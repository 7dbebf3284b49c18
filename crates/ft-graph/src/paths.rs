//! Path disjointness.
//!
//! Routing code across the workspace passes around vertex sequences; this
//! module gives them the disjointness predicate the paper's definitions
//! (§2) are phrased in.

use crate::ids::VertexId;
use std::collections::HashSet;

/// Whether a family of vertex sequences is pairwise vertex-disjoint
/// (including endpoints — the paper's requirement in all three network
/// definitions).
pub fn are_vertex_disjoint<'a>(paths: impl IntoIterator<Item = &'a [VertexId]>) -> bool {
    let mut seen = HashSet::new();
    for p in paths {
        for &u in p {
            if !seen.insert(u) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::v;

    #[test]
    fn vertex_disjointness() {
        let a = [v(0), v(1)];
        let b = [v(2), v(3)];
        let c = [v(1), v(4)];
        assert!(are_vertex_disjoint([&a[..], &b[..]]));
        assert!(!are_vertex_disjoint([&a[..], &c[..]]));
        assert!(are_vertex_disjoint(std::iter::empty::<&[VertexId]>()));
    }
}
