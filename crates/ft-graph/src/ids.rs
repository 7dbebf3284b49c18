//! Typed indices for vertices and edges.
//!
//! Networks in this workspace routinely reach tens of millions of edges
//! (the paper-exact construction at `ν = 3` already has ~7·10⁷ edges), so
//! indices are `u32` newtypes rather than `usize`: half the memory of
//! `usize` on 64-bit targets, and the type distinction prevents mixing
//! vertex and edge indices in flow/matching code where both are juggled.

use std::fmt;

/// Index of a vertex in a [`crate::Csr`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

/// Index of a directed edge (a *switch* in the paper's terminology).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl VertexId {
    /// Sentinel used by traversal code for "no vertex".
    pub const NONE: VertexId = VertexId(u32::MAX);

    /// The index as a `usize`, for slice indexing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the [`VertexId::NONE`] sentinel.
    #[inline(always)]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

impl EdgeId {
    /// Sentinel used by traversal code for "no edge".
    pub const NONE: EdgeId = EdgeId(u32::MAX);

    /// The index as a `usize`, for slice indexing.
    #[inline(always)]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the [`EdgeId::NONE`] sentinel.
    #[inline(always)]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

impl From<usize> for VertexId {
    #[inline(always)]
    fn from(i: usize) -> Self {
        debug_assert!(i < u32::MAX as usize, "vertex index overflows u32");
        VertexId(i as u32)
    }
}

impl From<usize> for EdgeId {
    #[inline(always)]
    fn from(i: usize) -> Self {
        debug_assert!(i < u32::MAX as usize, "edge index overflows u32");
        EdgeId(i as u32)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "v#none")
        } else {
            write!(f, "v{}", self.0)
        }
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "e#none")
        } else {
            write!(f, "e{}", self.0)
        }
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Convenience constructor, mainly for tests: `v(3)` instead of `VertexId(3)`.
#[inline(always)]
pub fn v(i: u32) -> VertexId {
    VertexId(i)
}

/// Convenience constructor, mainly for tests: `e(3)` instead of `EdgeId(3)`.
#[inline(always)]
pub fn e(i: u32) -> EdgeId {
    EdgeId(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let id = VertexId::from(42usize);
        assert_eq!(id.index(), 42);
        assert_eq!(id, v(42));
        assert!(!id.is_none());
    }

    #[test]
    fn edge_id_roundtrip() {
        let id = EdgeId::from(7usize);
        assert_eq!(id.index(), 7);
        assert_eq!(id, e(7));
        assert!(!id.is_none());
    }

    #[test]
    fn sentinels_are_none() {
        assert!(VertexId::NONE.is_none());
        assert!(EdgeId::NONE.is_none());
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", v(5)), "v5");
        assert_eq!(format!("{:?}", e(9)), "e9");
        assert_eq!(format!("{:?}", VertexId::NONE), "v#none");
        assert_eq!(format!("{}", e(1)), "e1");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(v(1) < v(2));
        assert!(e(0) < e(10));
    }

    #[test]
    fn ids_are_small() {
        assert_eq!(std::mem::size_of::<VertexId>(), 4);
        assert_eq!(std::mem::size_of::<EdgeId>(), 4);
        // Option<VertexId> would be 8 bytes; the NONE sentinel keeps
        // parent arrays at 4 bytes per entry.
    }
}
