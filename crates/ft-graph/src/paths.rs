//! Path values and disjointness checks.
//!
//! Routing code across the workspace passes around vertex sequences; this
//! module gives them a validated type and the disjointness predicates the
//! paper's definitions (§2) are phrased in.

use crate::ids::VertexId;
use crate::Csr;
use std::collections::HashSet;

/// A directed path, stored as its vertex sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    vertices: Vec<VertexId>,
}

impl Path {
    /// Wraps a vertex sequence, validating that consecutive vertices are
    /// joined by an edge of `g` and that no vertex repeats.
    pub fn new(g: &Csr, vertices: Vec<VertexId>) -> Result<Self, PathError> {
        if vertices.is_empty() {
            return Err(PathError::Empty);
        }
        let mut seen = HashSet::with_capacity(vertices.len());
        for &u in &vertices {
            if !seen.insert(u) {
                return Err(PathError::RepeatedVertex(u));
            }
        }
        for w in vertices.windows(2) {
            let (a, b) = (w[0], w[1]);
            if !g.has_edge(a, b) {
                return Err(PathError::MissingEdge(a, b));
            }
        }
        Ok(Path { vertices })
    }

    /// First vertex.
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Last vertex.
    pub fn sink(&self) -> VertexId {
        *self.vertices.last().unwrap()
    }

    /// Number of edges (vertices − 1).
    pub fn len(&self) -> usize {
        self.vertices.len() - 1
    }

    /// Whether the path is a single vertex.
    pub fn is_empty(&self) -> bool {
        self.vertices.len() == 1
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }
}

/// Why a vertex sequence is not a valid path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PathError {
    /// No vertices at all.
    Empty,
    /// A vertex occurs twice.
    RepeatedVertex(VertexId),
    /// Two consecutive vertices have no connecting edge.
    MissingEdge(VertexId, VertexId),
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::Empty => write!(f, "empty vertex sequence"),
            PathError::RepeatedVertex(v) => write!(f, "vertex {v} repeats"),
            PathError::MissingEdge(a, b) => write!(f, "no edge {a} -> {b}"),
        }
    }
}

impl std::error::Error for PathError {}

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

/// Whether a family of paths is pairwise *edge*-disjoint, given the edge
/// sequences implied by consecutive vertex pairs. Vertices may repeat
/// across paths. Used by the Lemma 1 machinery, which wants edge-disjoint
/// (not vertex-disjoint) leaf-to-leaf paths. Treats edges as undirected
/// vertex pairs, matching the paper's undirected tree setting.
pub fn are_edge_disjoint<'a>(paths: impl IntoIterator<Item = &'a [VertexId]>) -> bool {
    let mut seen: HashSet<(VertexId, VertexId)> = HashSet::new();
    for p in paths {
        for w in p.windows(2) {
            let key = if w[0] < w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            if !seen.insert(key) {
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

    fn chain() -> Csr {
        Csr::from_edges(4, vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(3))])
    }

    #[test]
    fn valid_path() {
        let g = chain();
        let p = Path::new(&g, vec![v(0), v(1), v(2)]).unwrap();
        assert_eq!(p.source(), v(0));
        assert_eq!(p.sink(), v(2));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }

    #[test]
    fn trivial_path() {
        let g = chain();
        let p = Path::new(&g, vec![v(2)]).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.source(), p.sink());
    }

    #[test]
    fn invalid_paths() {
        let g = chain();
        assert_eq!(Path::new(&g, vec![]).unwrap_err(), PathError::Empty);
        assert_eq!(
            Path::new(&g, vec![v(0), v(2)]).unwrap_err(),
            PathError::MissingEdge(v(0), v(2))
        );
        assert_eq!(
            Path::new(&g, vec![v(0), v(1), v(0)]).unwrap_err(),
            PathError::RepeatedVertex(v(0))
        );
        // direction matters
        assert!(Path::new(&g, vec![v(1), v(0)]).is_err());
    }

    #[test]
    fn vertex_disjointness() {
        let a = [v(0), v(1)];
        let b = [v(2), v(3)];
        let c = [v(1), v(4)];
        assert!(are_vertex_disjoint([&a[..], &b[..]]));
        assert!(!are_vertex_disjoint([&a[..], &c[..]]));
        assert!(are_vertex_disjoint(std::iter::empty::<&[VertexId]>()));
    }

    #[test]
    fn edge_disjointness_allows_shared_vertices() {
        let a = [v(0), v(1), v(2)];
        let b = [v(3), v(1), v(4)]; // shares vertex 1 but no edge
        assert!(are_edge_disjoint([&a[..], &b[..]]));
        let c = [v(2), v(1), v(5)]; // uses edge {1,2} reversed
        assert!(!are_edge_disjoint([&a[..], &c[..]]));
    }
}
