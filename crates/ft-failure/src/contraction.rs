//! Closed-failure contraction: the quotient graph and shorting events.
//!
//! A closed-failed switch permanently connects its two links: the paper
//! models this as the two endpoints contracting to one vertex (§2). The
//! contraction of all closed edges partitions the vertex set into
//! electrical nodes; two *terminals* falling into one class is a
//! **short** — the catastrophic event behind Lemma 2 (many close-together
//! inputs ⇒ some pair shorts with probability ≥ ½ at ε = ¼) and Lemma 7
//! (𝒩's terminals short with probability ≤ c₂ν²(160ε)^{2ν}).

use crate::instance::FailureInstance;
use ft_graph::ids::{EdgeId, VertexId};
use ft_graph::{Csr, UnionFind};

/// Union–find over the vertices with one union per closed edge.
pub fn contraction_classes(g: &Csr, inst: &FailureInstance) -> UnionFind {
    let mut uf = UnionFind::new(g.num_vertices());
    contraction_classes_into(g, inst, &mut uf);
    uf
}

/// [`contraction_classes`] into a caller-owned [`UnionFind`] (reset
/// here): iterates only the closed switches via the packed mask's
/// word-skipping, so a trial at the paper's tiny ε costs O(m/32 +
/// closures) instead of a per-switch scan — the Monte Carlo hot path.
pub(crate) fn contraction_classes_into(g: &Csr, inst: &FailureInstance, uf: &mut UnionFind) {
    debug_assert_eq!(uf.len(), g.num_vertices());
    uf.reset();
    for e in inst.closed_edges() {
        let (t, h) = g.endpoints(e);
        uf.union(t.0, h.0);
    }
}

/// Returns the first pair of distinct terminals that contract to a single
/// electrical node, if any. `None` means no short among `terminals`.
pub fn find_shorted_pair(
    g: &Csr,
    inst: &FailureInstance,
    terminals: &[VertexId],
) -> Option<(VertexId, VertexId)> {
    let mut uf = contraction_classes(g, inst);
    // map root -> first terminal seen with that root
    let mut seen: std::collections::HashMap<u32, VertexId> = std::collections::HashMap::new();
    for &t in terminals {
        let r = uf.find(t.0);
        if let Some(&prev) = seen.get(&r) {
            if prev != t {
                return Some((prev, t));
            }
        } else {
            seen.insert(r, t);
        }
    }
    None
}

/// Whether any two distinct terminals are shorted.
pub fn terminals_shorted(g: &Csr, inst: &FailureInstance, terminals: &[VertexId]) -> bool {
    find_shorted_pair(g, inst, terminals).is_some()
}

/// [`terminals_shorted`] for terminals given as per-vertex flags (a
/// staged network's `terminal_mask()`), so no terminal list is built.
/// Only a terminal on a closed switch shares its class with anything,
/// so only those are looked up: O(closed switches) after contraction.
pub fn flagged_terminals_shorted(g: &Csr, inst: &FailureInstance, is_terminal: &[bool]) -> bool {
    let mut uf = contraction_classes(g, inst);
    // class root -> a terminal seen in that class
    let mut seen: std::collections::HashMap<u32, VertexId> = std::collections::HashMap::new();
    for e in inst.closed_edges() {
        let (t, h) = g.endpoints(e);
        for u in [t, h] {
            if is_terminal[u.index()] && seen.insert(uf.find(u.0), u).is_some_and(|prev| prev != u)
            {
                return true;
            }
        }
    }
    false
}

/// The fully contracted network: closed edges merge endpoint classes,
/// open edges vanish, normal edges survive between classes (self-loop
/// normal edges inside a class are dropped — electrically meaningless).
#[derive(Clone, Debug)]
pub struct ContractedNetwork {
    /// Quotient graph over electrical nodes.
    pub graph: Csr,
    /// For each surviving quotient edge, the original [`EdgeId`].
    pub edge_origin: Vec<EdgeId>,
}

/// Builds the contracted network of `g` under `inst`.
pub fn contract(g: &Csr, inst: &FailureInstance) -> ContractedNetwork {
    let mut uf = contraction_classes(g, inst);
    let (class_of, num_classes) = uf.quotient();
    let mut edges = Vec::new();
    for e in 0..g.num_edges() {
        let e = EdgeId::from(e);
        if !inst.is_normal(e) {
            continue;
        }
        let (t, h) = g.endpoints(e);
        let (ct, ch) = (class_of[t.index()], class_of[h.index()]);
        if ct != ch {
            edges.push((VertexId(ct), VertexId(ch), e));
        }
    }
    let (graph, edge_origin) = Csr::from_tagged_edges(num_classes, edges);
    ContractedNetwork { graph, edge_origin }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SwitchState;
    use ft_graph::ids::v;

    fn chain4() -> Csr {
        Csr::from_edges(4, vec![(v(0), v(1)), (v(1), v(2)), (v(2), v(3))])
    }

    #[test]
    fn no_failures_no_short() {
        let g = chain4();
        let inst = FailureInstance::perfect(3);
        assert!(!terminals_shorted(&g, &inst, &[v(0), v(3)]));
        let c = contract(&g, &inst);
        assert_eq!(c.graph.num_vertices(), 4);
        assert_eq!(c.graph.num_edges(), 3);
    }

    #[test]
    fn closed_chain_shorts_terminals() {
        let g = chain4();
        let inst = FailureInstance::from_states(vec![SwitchState::Closed; 3]);
        assert!(terminals_shorted(&g, &inst, &[v(0), v(3)]));
        let (a, b) = find_shorted_pair(&g, &inst, &[v(0), v(3)]).unwrap();
        assert_eq!((a, b), (v(0), v(3)));
        let c = contract(&g, &inst);
        assert_eq!(c.graph.num_vertices(), 1);
        assert_eq!(c.graph.num_edges(), 0);
    }

    #[test]
    fn partial_closure_no_short() {
        let g = chain4();
        // close only the middle edge: 1 and 2 merge, terminals 0,3 distinct
        let inst = FailureInstance::from_states(vec![
            SwitchState::Normal,
            SwitchState::Closed,
            SwitchState::Normal,
        ]);
        assert!(!terminals_shorted(&g, &inst, &[v(0), v(3)]));
        let c = contract(&g, &inst);
        assert_eq!(c.graph.num_vertices(), 3);
        assert_eq!(c.graph.num_edges(), 2, "two normal edges survive");
        let mut classes = contraction_classes(&g, &inst);
        assert!(classes.same(1, 2));
        assert!(!classes.same(0, 3));
    }

    #[test]
    fn open_edges_vanish() {
        let g = chain4();
        let inst = FailureInstance::from_states(vec![
            SwitchState::Open,
            SwitchState::Normal,
            SwitchState::Open,
        ]);
        let c = contract(&g, &inst);
        assert_eq!(c.graph.num_vertices(), 4);
        assert_eq!(c.graph.num_edges(), 1);
        assert_eq!(c.edge_origin, vec![ft_graph::ids::e(1)]);
    }

    #[test]
    fn normal_self_loop_inside_class_dropped() {
        // triangle-ish: 0->1 closed, plus a parallel normal 0->1
        let g = Csr::from_edges(2, vec![(v(0), v(1)), (v(0), v(1))]);
        let inst = FailureInstance::from_states(vec![SwitchState::Closed, SwitchState::Normal]);
        let c = contract(&g, &inst);
        assert_eq!(c.graph.num_vertices(), 1);
        assert_eq!(
            c.graph.num_edges(),
            0,
            "normal edge inside one electrical node is dropped"
        );
    }

    #[test]
    fn shorted_with_matches_allocating_on_random_instances() {
        use crate::model::FailureModel;
        use ft_graph::gen::rng;
        let g = chain4();
        let model = FailureModel::new(0.1, 0.3);
        let mut r = rng(3);
        let terminals = [v(0), v(2), v(3)];
        let flags = [true, false, true, true];
        for _ in 0..200 {
            let inst = FailureInstance::sample(&model, &mut r, g.num_edges());
            let shorted = terminals_shorted(&g, &inst, &terminals);
            assert_eq!(
                shorted,
                flagged_terminals_shorted(&g, &inst, &flags),
                "{:?}",
                inst.counts()
            );
        }
    }

    #[test]
    fn three_terminals_short_detection() {
        let g = chain4();
        // short 2-3 only; terminals {0, 2, 3}: pair (2,3) shorted
        let inst = FailureInstance::from_states(vec![
            SwitchState::Normal,
            SwitchState::Normal,
            SwitchState::Closed,
        ]);
        let (a, b) = find_shorted_pair(&g, &inst, &[v(0), v(2), v(3)]).unwrap();
        assert_eq!((a, b), (v(2), v(3)));
        assert!(!terminals_shorted(&g, &inst, &[v(0), v(2)]));
    }
}
