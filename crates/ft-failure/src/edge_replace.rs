//! Edge substitution: replace every switch by a two-terminal gadget.
//!
//! §3's invariance arguments rest on this transformation: substituting an
//! `(ε₂, ε₁)-1-network` for each edge of an `(ε₁, δ)-X` network yields an
//! `(ε₂, δ)-X` network whose size grows by the gadget's size factor and
//! depth by the gadget's depth factor. The substitution is purely
//! structural; this module implements it for arbitrary digraphs.

use crate::reliability::TwoTerminal;
use ft_graph::ids::{EdgeId, VertexId};
use ft_graph::Csr;

/// Result of substituting a gadget for every edge.
#[derive(Clone, Debug)]
pub struct Substituted {
    /// The expanded graph. Vertices `0..n` are the original vertices
    /// (ids preserved); gadget interiors follow.
    pub graph: Csr,
    /// For every new edge, the original edge it implements.
    pub edge_origin: Vec<EdgeId>,
}

/// Replaces each edge `(u, w)` of `g` by a copy of `gadget`, identifying
/// the gadget's source with `u` and sink with `w`; gadget interior
/// vertices are freshly allocated per edge.
pub fn substitute(g: &Csr, gadget: &TwoTerminal) -> Substituted {
    let n = g.num_vertices();
    let gn = gadget.graph.num_vertices();
    let gm = gadget.graph.num_edges();
    // interior = gadget vertices other than its terminals
    let interior: Vec<VertexId> = (0..gn)
        .map(VertexId::from)
        .filter(|&v| v != gadget.source && v != gadget.sink)
        .collect();
    let mut edges = Vec::with_capacity(gm * g.num_edges());
    // map from gadget vertex -> new vertex, rebuilt per edge
    let mut map = vec![VertexId::NONE; gn];
    for eid in 0..g.num_edges() {
        let e = EdgeId::from(eid);
        let (tail, head) = g.endpoints(e);
        map[gadget.source.index()] = tail;
        map[gadget.sink.index()] = head;
        let first = n + eid * interior.len();
        for (k, &iv) in interior.iter().enumerate() {
            map[iv.index()] = VertexId::from(first + k);
        }
        for ge in 0..gm {
            let (gt, gh) = gadget.graph.endpoints(EdgeId::from(ge));
            edges.push((map[gt.index()], map[gh.index()], e));
        }
    }
    let (graph, edge_origin) = Csr::from_tagged_edges(n + interior.len() * g.num_edges(), edges);
    Substituted { graph, edge_origin }
}

/// Iterates substitution on a two-terminal network: level 0 is a single
/// switch, level `k` substitutes `gadget` into every switch of level
/// `k−1`. Size is `gadget.size^k`, depth ≤ `gadget_depth^k`.
pub fn iterate_gadget(gadget: &TwoTerminal, levels: usize) -> TwoTerminal {
    let mut current = crate::reliability::single_switch();
    for _ in 0..levels {
        // substituting the gadget INTO each edge of `current`
        let sub = substitute(&current.graph, gadget);
        current = TwoTerminal {
            graph: sub.graph,
            source: current.source,
            sink: current.sink,
        };
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FailureModel;
    use crate::reliability::{bridge, bridge_map, single_switch, Connectivity, FailureProbs};
    use ft_graph::ids::v;

    #[test]
    fn substitute_single_edge_with_bridge() {
        let sw = single_switch();
        let sub = substitute(&sw.graph, &bridge());
        // 2 original + 2 interior, 5 edges
        assert_eq!(sub.graph.num_vertices(), 4);
        assert_eq!(sub.graph.num_edges(), 5);
        assert!(sub.edge_origin.iter().all(|&e| e == ft_graph::ids::e(0)));
    }

    #[test]
    fn substitute_preserves_terminal_ids() {
        // chain of 2 edges, substitute bridge into each
        let g = Csr::from_edges(3, vec![(v(0), v(1)), (v(1), v(2))]);
        let sub = substitute(&g, &bridge());
        assert_eq!(sub.graph.num_vertices(), 3 + 2 * 2);
        assert_eq!(sub.graph.num_edges(), 10);
        // connectivity from 0 still reaches 2 (undirected or directed
        // through forward bridge edges)
        let b = ft_graph::traversal::bfs_forward(&sub.graph, v(0));
        assert!(b.reached(v(2)));
        // edge origins: 5 edges from e0, among 0, 1 and e0's interior
        // {3, 4}; 5 from e1, among 1, 2 and e1's interior {5, 6}
        for (e, copy) in [(0, [0, 1, 3, 4]), (1, [1, 2, 5, 6])] {
            let from_e: Vec<_> = sub
                .graph
                .edges()
                .filter(|(se, _, _)| sub.edge_origin[se.index()] == ft_graph::ids::e(e))
                .collect();
            assert_eq!(from_e.len(), 5, "copy of e{e}");
            for (_, t, h) in from_e {
                assert!(copy.contains(&t.0) && copy.contains(&h.0), "copy of e{e}");
            }
        }
    }

    #[test]
    fn iterated_bridge_sizes() {
        let b = bridge();
        for levels in 0..3 {
            let net = iterate_gadget(&b, levels);
            assert_eq!(net.graph.num_edges(), 5usize.pow(levels as u32));
        }
    }

    #[test]
    fn iterated_bridge_reliability_matches_map() {
        // The physical level-2 bridge must have exactly the failure
        // probabilities predicted by composing the probability map —
        // 25 edges is too many to enumerate, so compare level 1 exactly
        // and level 2 by Monte Carlo.
        let model = FailureModel::symmetric(0.3);
        let level1 = iterate_gadget(&bridge(), 1);
        let exact1 = level1.exact_failure_probs(&model, Connectivity::Undirected);
        let map1 = bridge_map(FailureProbs::single_switch(&model));
        assert!((exact1.p_open - map1.p_open).abs() < 1e-12);
        assert!((exact1.p_short - map1.p_short).abs() < 1e-12);

        let map2 = bridge_map(map1);
        let level2 = iterate_gadget(&bridge(), 2);
        let (open, short) = level2.mc_failure_probs(&model, Connectivity::Undirected, 30_000, 5);
        let (olo, ohi) = open.wilson95();
        assert!(
            olo - 0.01 <= map2.p_open && map2.p_open <= ohi + 0.01,
            "map {} outside MC [{olo}, {ohi}]",
            map2.p_open
        );
        let (slo, shi) = short.wilson95();
        assert!(slo - 0.01 <= map2.p_short && map2.p_short <= shi + 0.01);
    }

    #[test]
    fn substitute_empty_graph() {
        let sub = substitute(&Csr::from_edges(0, vec![]), &bridge());
        assert_eq!(sub.graph.num_vertices(), 0);
        assert_eq!(sub.graph.num_edges(), 0);
    }

    #[test]
    fn level_zero_is_single_switch() {
        let net = iterate_gadget(&bridge(), 0);
        assert_eq!(net.graph.num_edges(), 1);
        assert_eq!(net.graph.num_vertices(), 2);
    }
}
