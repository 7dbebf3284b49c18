//! Series-parallel two-terminal networks and their exact failure calculus.
//!
//! Moore & Shannon's composition rules: for networks with failure
//! probabilities `(o, s)` (open, short),
//!
//! * **series**: shorts only if *all* parts short, opens if *any* part
//!   opens — `s' = ∏ sᵢ`, `o' = 1 − ∏ (1 − oᵢ)`;
//! * **parallel**: opens only if *all* parts open, shorts if *any* part
//!   shorts — `o' = ∏ oᵢ`, `s' = 1 − ∏ (1 − sᵢ)`.
//!
//! These give exact probabilities in O(size) — no enumeration — and the
//! §3 invariance arguments (replace every switch by a 1-network) are pure
//! compositions in this calculus.

use crate::model::FailureModel;
use crate::reliability::{FailureProbs, TwoTerminal};
use ft_graph::{Csr, VertexId};

/// A series-parallel two-terminal network, as a composition tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpNetwork {
    /// A single switch.
    Switch,
    /// Sub-networks wired input-to-output in a chain.
    Series(Vec<SpNetwork>),
    /// Sub-networks sharing both terminals.
    Parallel(Vec<SpNetwork>),
}

impl SpNetwork {
    /// `n` copies of `sub` in series.
    pub fn series_of(n: usize, sub: SpNetwork) -> SpNetwork {
        assert!(n >= 1);
        SpNetwork::Series(vec![sub; n])
    }

    /// `n` copies of `sub` in parallel.
    pub fn parallel_of(n: usize, sub: SpNetwork) -> SpNetwork {
        assert!(n >= 1);
        SpNetwork::Parallel(vec![sub; n])
    }

    /// The `l × w` series-parallel ladder: `l` parallel strands, each a
    /// series of `w` switches. (The rung-free skeleton of a Moore–Shannon
    /// hammock; the grid hammock with rungs lives in [`crate::hammock`].)
    pub fn ladder(l: usize, w: usize) -> SpNetwork {
        SpNetwork::parallel_of(l, SpNetwork::series_of(w, SpNetwork::Switch))
    }

    /// Number of switches.
    pub fn size(&self) -> usize {
        match self {
            SpNetwork::Switch => 1,
            SpNetwork::Series(parts) => parts.iter().map(SpNetwork::size).sum(),
            SpNetwork::Parallel(parts) => parts.iter().map(SpNetwork::size).sum(),
        }
    }

    /// Depth: the largest number of switches on a terminal-to-terminal
    /// path.
    pub fn depth(&self) -> usize {
        match self {
            SpNetwork::Switch => 1,
            SpNetwork::Series(parts) => parts.iter().map(SpNetwork::depth).sum(),
            SpNetwork::Parallel(parts) => parts.iter().map(SpNetwork::depth).max().unwrap_or(0),
        }
    }

    /// Exact failure probabilities when every switch has failure pair
    /// `leaf` — Moore–Shannon calculus, O(size).
    pub fn failure_probs_from(&self, leaf: FailureProbs) -> FailureProbs {
        match self {
            SpNetwork::Switch => leaf,
            SpNetwork::Series(parts) => {
                let mut not_open = 1.0;
                let mut short = 1.0;
                for part in parts {
                    let p = part.failure_probs_from(leaf);
                    not_open *= 1.0 - p.p_open;
                    short *= p.p_short;
                }
                FailureProbs {
                    p_open: 1.0 - not_open,
                    p_short: short,
                }
            }
            SpNetwork::Parallel(parts) => {
                let mut open = 1.0;
                let mut not_short = 1.0;
                for part in parts {
                    let p = part.failure_probs_from(leaf);
                    open *= p.p_open;
                    not_short *= 1.0 - p.p_short;
                }
                FailureProbs {
                    p_open: open,
                    p_short: 1.0 - not_short,
                }
            }
        }
    }

    /// Exact failure probabilities under the given switch failure model.
    pub fn failure_probs(&self, model: &FailureModel) -> FailureProbs {
        self.failure_probs_from(FailureProbs::single_switch(model))
    }

    /// Materialises the composition tree as a [`TwoTerminal`] graph
    /// (all edges oriented source → sink, so directed and undirected
    /// connectivity coincide).
    pub fn to_two_terminal(&self) -> TwoTerminal {
        let (s, t) = (VertexId(0), VertexId(1));
        let (mut n, mut edges) = (2, Vec::new());
        build(self, &mut n, &mut edges, s, t);
        edges.sort_by_key(|&(t, _)| t);
        return TwoTerminal {
            graph: Csr::from_edges(n, edges),
            source: s,
            sink: t,
        };

        /// Wires `net` between `s` and `t`, numbering new vertices from `n`.
        fn build(
            net: &SpNetwork,
            n: &mut usize,
            edges: &mut Vec<(VertexId, VertexId)>,
            s: VertexId,
            t: VertexId,
        ) {
            match net {
                SpNetwork::Switch => edges.push((s, t)),
                SpNetwork::Series(parts) => {
                    let mut cur = s;
                    for (i, part) in parts.iter().enumerate() {
                        let next = if i + 1 == parts.len() {
                            t
                        } else {
                            *n += 1;
                            VertexId::from(*n - 1)
                        };
                        build(part, n, edges, cur, next);
                        cur = next;
                    }
                }
                SpNetwork::Parallel(parts) => {
                    for part in parts {
                        build(part, n, edges, s, t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::Connectivity;

    #[test]
    fn sizes_and_depths() {
        assert_eq!(SpNetwork::Switch.size(), 1);
        assert_eq!(SpNetwork::Switch.depth(), 1);
        let ladder = SpNetwork::ladder(3, 4);
        assert_eq!(ladder.size(), 12);
        assert_eq!(ladder.depth(), 4);
        let nested = SpNetwork::series_of(2, SpNetwork::parallel_of(3, SpNetwork::Switch));
        assert_eq!(nested.size(), 6);
        assert_eq!(nested.depth(), 2);
    }

    #[test]
    fn series_calculus() {
        let net = SpNetwork::series_of(2, SpNetwork::Switch);
        let model = FailureModel::new(0.1, 0.2);
        let p = net.failure_probs(&model);
        assert!((p.p_open - (1.0 - 0.81)).abs() < 1e-12);
        assert!((p.p_short - 0.04).abs() < 1e-12);
    }

    #[test]
    fn parallel_calculus() {
        let net = SpNetwork::parallel_of(2, SpNetwork::Switch);
        let model = FailureModel::new(0.1, 0.2);
        let p = net.failure_probs(&model);
        assert!((p.p_open - 0.01).abs() < 1e-12);
        assert!((p.p_short - (1.0 - 0.64)).abs() < 1e-12);
    }

    #[test]
    fn calculus_matches_enumeration() {
        // ladder(2, 2): small enough for exact enumeration on the graph
        let net = SpNetwork::ladder(2, 2);
        let model = FailureModel::new(0.15, 0.1);
        let calc = net.failure_probs(&model);
        let tt = net.to_two_terminal();
        let exact = tt.exact_failure_probs(&model, Connectivity::Undirected);
        assert!(
            (calc.p_open - exact.p_open).abs() < 1e-12,
            "{calc:?} vs {exact:?}"
        );
        assert!((calc.p_short - exact.p_short).abs() < 1e-12);
        // and directed agrees (all edges point forward)
        let exact_dir = tt.exact_failure_probs(&model, Connectivity::Directed);
        assert!((calc.p_open - exact_dir.p_open).abs() < 1e-12);
    }

    #[test]
    fn materialisation_shape() {
        let net = SpNetwork::ladder(3, 4);
        let tt = net.to_two_terminal();
        assert_eq!(tt.graph.num_edges(), 12);
        // 2 terminals + 3 strands × 3 interior vertices
        assert_eq!(tt.graph.num_vertices(), 2 + 9);
        assert!(ft_graph::traversal::is_acyclic(&tt.graph));
    }

    #[test]
    fn ladder_monotone_in_eps() {
        let net = SpNetwork::ladder(4, 4);
        let mut last = 0.0;
        for eps in [0.01, 0.05, 0.1, 0.2] {
            let p = net.failure_probs(&FailureModel::symmetric(eps));
            let total = p.p_open + p.p_short;
            assert!(total > last, "failure probability must grow with ε");
            last = total;
        }
    }

    #[test]
    fn square_ladder_amplifies_small_eps() {
        // k×k ladder with ε = 0.05: both failure modes should improve
        let net = SpNetwork::ladder(4, 4);
        let p = net.failure_probs(&FailureModel::symmetric(0.05));
        assert!(p.p_open < 0.05);
        assert!(p.p_short < 0.05);
    }

    #[test]
    fn perfect_model_never_fails() {
        let net = SpNetwork::ladder(2, 3);
        let p = net.failure_probs(&FailureModel::perfect());
        assert_eq!(p.p_open, 0.0);
        assert_eq!(p.p_short, 0.0);
    }
}
