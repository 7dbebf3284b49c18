//! The §4 repair procedure: discard faulty components and their
//! immediate neighbours.
//!
//! The paper's second observation in §4: *"with high probability we can
//! find a nonblocking network contained in the fault-tolerant network
//! merely by discarding faulty components and their immediate neighbors,
//! so no difficult computations are hidden here."* A vertex is faulty if
//! any incident switch failed (§6); the repaired network keeps exactly
//! the non-faulty vertices and the (necessarily normal) switches between
//! them. The fault-tolerance claim is then that the repaired network
//! still *contains* a nonblocking network on the surviving terminals —
//! certified downstream in `ft-core`.

use crate::instance::FailureInstance;
use ft_graph::ids::VertexId;
use ft_graph::Csr;

/// A repaired view of a network: faulty vertices and all their incident
/// edges removed. Vertex/edge ids are those of the original graph, so
/// terminal lists remain valid.
#[derive(Clone, Debug)]
pub struct Repaired {
    /// `true` at vertices that survive (not faulty).
    pub alive: Vec<bool>,
}

impl Repaired {
    /// Applies the repair procedure to `g` under `inst`.
    pub fn new(g: &Csr, inst: &FailureInstance) -> Self {
        let faulty = inst.faulty_vertices(g);
        Repaired {
            alive: faulty.into_iter().map(|f| !f).collect(),
        }
    }

    /// Whether vertex `v` survived.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.alive[v.index()]
    }

    /// Survivors among `terminals` (order preserved).
    pub fn surviving_terminals(&self, terminals: &[VertexId]) -> Vec<VertexId> {
        terminals
            .iter()
            .copied()
            .filter(|&t| self.is_alive(t))
            .collect()
    }

    /// Number of surviving vertices.
    pub fn num_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// A vertex filter closure for the traversal/flow APIs.
    pub fn vertex_filter(&self) -> impl Fn(VertexId) -> bool + '_ {
        move |v| self.alive[v.index()]
    }
}

/// Every edge whose endpoints both survive repair is automatically in the
/// normal state (a failed edge marks both endpoints faulty). This
/// invariant is what lets the repaired network be used without any edge
/// filter; the function checks it, for tests and debug assertions.
pub fn repaired_edges_all_normal(g: &Csr, inst: &FailureInstance, repaired: &Repaired) -> bool {
    (0..g.num_edges()).all(|e| {
        let e = ft_graph::ids::EdgeId::from(e);
        let (t, h) = g.endpoints(e);
        !(repaired.is_alive(t) && repaired.is_alive(h)) || inst.is_normal(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FailureModel, SwitchState};
    use ft_graph::gen::rng;
    use ft_graph::ids::v;

    /// The repaired network materialised: the edges of `g` whose
    /// endpoints both survive, ids renumbered in order.
    fn materialised(g: &Csr, r: &Repaired) -> Csr {
        let kept = g
            .edges()
            .filter(|&(_, t, h)| r.is_alive(t) && r.is_alive(h));
        Csr::from_edges(g.num_vertices(), kept.map(|(_, t, h)| (t, h)).collect())
    }

    fn diamond() -> Csr {
        Csr::from_edges(
            4,
            vec![
                (v(0), v(1)), // e0
                (v(0), v(2)), // e1
                (v(1), v(3)), // e2
                (v(2), v(3)), // e3
            ],
        )
    }

    #[test]
    fn no_failures_everything_survives() {
        let g = diamond();
        let inst = FailureInstance::perfect(4);
        let r = Repaired::new(&g, &inst);
        assert_eq!(r.num_alive(), 4);
        assert_eq!(materialised(&g, &r).num_edges(), 4);
        assert!(repaired_edges_all_normal(&g, &inst, &r));
    }

    #[test]
    fn failed_edge_kills_both_endpoints() {
        let g = diamond();
        // fail e2 = (1,3): vertices 1 and 3 die
        let inst = FailureInstance::from_states(vec![
            SwitchState::Normal,
            SwitchState::Normal,
            SwitchState::Open,
            SwitchState::Normal,
        ]);
        let r = Repaired::new(&g, &inst);
        assert!(r.is_alive(v(0)));
        assert!(!r.is_alive(v(1)));
        assert!(r.is_alive(v(2)));
        assert!(!r.is_alive(v(3)));
        let repaired = materialised(&g, &r);
        // only e1 = (0,2) has both endpoints alive
        assert_eq!(repaired.num_edges(), 1);
        assert!(repaired.has_edge(v(0), v(2)));
        assert!(repaired_edges_all_normal(&g, &inst, &r));
        assert_eq!(r.surviving_terminals(&[v(0), v(1)]), vec![v(0)]);
    }

    #[test]
    fn closed_failures_also_kill() {
        let g = diamond();
        let inst = FailureInstance::from_states(vec![
            SwitchState::Closed,
            SwitchState::Normal,
            SwitchState::Normal,
            SwitchState::Normal,
        ]);
        let r = Repaired::new(&g, &inst);
        assert!(!r.is_alive(v(0)));
        assert!(!r.is_alive(v(1)));
        assert_eq!(r.num_alive(), 2);
    }

    #[test]
    fn filter_view_matches_materialised() {
        let g = diamond();
        let model = FailureModel::symmetric(0.2);
        let mut rr = rng(3);
        for _ in 0..50 {
            let inst = FailureInstance::sample(&model, &mut rr, 4);
            let r = Repaired::new(&g, &inst);
            let mat = materialised(&g, &r);
            let filt = r.vertex_filter();
            for u in g.vertices() {
                if !filt(u) {
                    assert_eq!(mat.degree(u), 0);
                }
            }
            assert!(repaired_edges_all_normal(&g, &inst, &r));
        }
    }
}
