//! The Moore–Shannon hammock: an `(l, w)`-directed grid with terminals.
//!
//! The paper's Fig. 4 directed grid — `w` stages of `l` rows, edges
//! `(i,j) → (i,j+1)` and `(i,j) → (i+1,j+1)` — becomes a two-terminal
//! *hammock* when a source is wired to every first-stage vertex and every
//! last-stage vertex is wired to a sink. This is the reliability
//! amplifier behind Proposition 1 and the input/output interface stages
//! of the §6 construction.
//!
//! Analytic bounds (both proved by the arguments the paper uses in
//! Lemmas 3 and 7):
//!
//! * **open**: the `l` straight row paths are edge-disjoint, so
//!   `P[open] ≤ (1 − (1−ε₁)^{w+1})^l`;
//! * **short**: every source→sink connection has ≥ `w+1` switches and
//!   the number of simple undirected paths of length `L` from the source
//!   is ≤ `l·4^{L−1}`, so for ε₂ < ¼,
//!   `P[short] ≤ (l/4)·(4ε₂)^{w+1} / (1 − 4ε₂)`.

use crate::model::FailureModel;
use crate::reliability::FailureProbs;

/// A hammock network, given by its grid dimensions.
#[derive(Clone, Debug)]
pub struct Hammock {
    /// Rows `l` (the paper's first grid parameter).
    pub(crate) rows: usize,
    /// Stages `w` (the paper's second grid parameter).
    pub(crate) stages: usize,
}

impl Hammock {
    /// The `(l, w)` hammock.
    pub fn new(rows: usize, stages: usize) -> Self {
        assert!(rows >= 1 && stages >= 1, "hammock needs l, w ≥ 1");
        Hammock { rows, stages }
    }

    /// Analytic upper bound on `P[open]` (see module docs).
    pub(crate) fn open_bound(&self, model: &FailureModel) -> f64 {
        open_bound(self.rows, self.stages, model.eps_open)
    }

    /// Analytic upper bound on `P[short]`; `+∞` if ε₂ ≥ ¼ (bound
    /// inapplicable).
    pub(crate) fn short_bound(&self, model: &FailureModel) -> f64 {
        short_bound(self.rows, self.stages, model.eps_close)
    }

    /// Both analytic bounds.
    pub fn bounds(&self, model: &FailureModel) -> FailureProbs {
        FailureProbs {
            p_open: self.open_bound(model),
            p_short: self.short_bound(model),
        }
    }
}

/// `P[open] ≤ (1 − (1−ε)^{w+1})^l` — the `l` straight row paths are
/// edge-disjoint and each conducts unless one of its `w+1` switches
/// open-fails.
pub(crate) fn open_bound(l: usize, w: usize, eps_open: f64) -> f64 {
    let per_row_ok = (1.0 - eps_open).powi(w as i32 + 1);
    (1.0 - per_row_ok).powi(l as i32)
}

/// `P[short] ≤ (l/4)·(4ε)^{w+1}/(1−4ε)` for ε < ¼, else `+∞`.
pub(crate) fn short_bound(l: usize, w: usize, eps_close: f64) -> f64 {
    if eps_close <= 0.0 {
        return 0.0;
    }
    if eps_close >= 0.25 {
        return f64::INFINITY;
    }
    let x = 4.0 * eps_close;
    (l as f64 / 4.0) * x.powi(w as i32 + 1) / (1.0 - x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::{Connectivity, TwoTerminal};
    use ft_graph::{Csr, VertexId};

    impl Hammock {
        /// The materialised two-terminal graph. Vertex layout: source =
        /// 0, sink = 1, grid vertex `(i, j)` (row `i ∈ 0..l`, stage
        /// `j ∈ 0..w`) at `2 + j·l + i`.
        fn net(&self) -> TwoTerminal {
            let (l, w) = (self.rows, self.stages);
            let mut edges = Vec::with_capacity(2 * l + (2 * l - 1) * (w - 1));
            let (source, sink) = (VertexId(0), VertexId(1));
            for i in 0..l {
                edges.push((source, self.grid_vertex(i, 0)));
            }
            for j in 0..w - 1 {
                for i in 0..l {
                    edges.push((self.grid_vertex(i, j), self.grid_vertex(i, j + 1)));
                    if i + 1 < l {
                        edges.push((self.grid_vertex(i, j), self.grid_vertex(i + 1, j + 1)));
                    }
                }
            }
            for i in 0..l {
                edges.push((self.grid_vertex(i, w - 1), sink));
            }
            TwoTerminal {
                graph: Csr::from_edges(2 + l * w, edges),
                source,
                sink,
            }
        }

        /// Vertex id of grid position `(row, stage)`.
        fn grid_vertex(&self, row: usize, stage: usize) -> VertexId {
            assert!(row < self.rows && stage < self.stages);
            VertexId::from(2 + stage * self.rows + row)
        }
    }

    /// Edges on the longest source → sink path.
    fn depth(net: &TwoTerminal) -> Option<u32> {
        ft_graph::traversal::dag_depth_between(&net.graph, &[net.source], &[net.sink])
    }

    #[test]
    fn shape_matches_formulas() {
        for (l, w) in [(1usize, 1usize), (2, 3), (4, 8), (5, 2)] {
            let net = Hammock::new(l, w).net();
            assert_eq!(net.graph.num_vertices(), 2 + l * w);
            assert_eq!(net.graph.num_edges(), 2 * l + (2 * l - 1) * (w - 1));
            assert!(ft_graph::traversal::is_acyclic(&net.graph));
            assert_eq!(depth(&net), Some(w as u32 + 1));
        }
    }

    #[test]
    fn fig4_grid_dimensions() {
        // the paper's Fig. 4 is a (4, 8)-directed grid
        let h = Hammock::new(4, 8);
        assert_eq!(h.rows, 4);
        assert_eq!(h.stages, 8);
        // interior vertex degrees: out ≤ 2, in ≤ 2
        let net = h.net();
        for j in 1..7 {
            for i in 0..4 {
                let v = h.grid_vertex(i, j);
                assert!(net.graph.out_degree(v) <= 2);
                assert!(net.graph.in_degree(v) <= 2);
            }
        }
    }

    #[test]
    fn exact_probs_respect_bounds_tiny() {
        // (2,2) hammock has 2·2 + 3·1 = 7 edges — enumerable
        let h = Hammock::new(2, 2);
        assert_eq!(h.net().graph.num_edges(), 7);
        let model = FailureModel::symmetric(0.05);
        let exact = h
            .net()
            .exact_failure_probs(&model, Connectivity::Undirected);
        let bounds = h.bounds(&model);
        assert!(
            exact.p_open <= bounds.p_open + 1e-12,
            "open {} > bound {}",
            exact.p_open,
            bounds.p_open
        );
        assert!(
            exact.p_short <= bounds.p_short + 1e-12,
            "short {} > bound {}",
            exact.p_short,
            bounds.p_short
        );
    }

    #[test]
    fn mc_probs_respect_bounds_medium() {
        let h = Hammock::new(6, 6);
        let model = FailureModel::symmetric(0.08);
        let (open, short) = h
            .net()
            .mc_failure_probs(&model, Connectivity::Undirected, 20_000, 17);
        let bounds = h.bounds(&model);
        // Wilson lower bounds must not exceed the analytic upper bounds
        assert!(
            open.wilson95().0 <= bounds.p_open,
            "MC open {} vs bound {}",
            open.p(),
            bounds.p_open
        );
        assert!(short.wilson95().0 <= bounds.p_short);
    }

    #[test]
    fn bigger_hammock_is_more_reliable() {
        let model = FailureModel::symmetric(0.1);
        let small = Hammock::new(3, 3).bounds(&model);
        let large = Hammock::new(8, 8).bounds(&model);
        assert!(large.p_open < small.p_open);
        assert!(large.p_short < small.p_short);
    }

    #[test]
    fn bound_edge_cases() {
        assert_eq!(short_bound(4, 4, 0.0), 0.0);
        assert!(short_bound(4, 4, 0.3).is_infinite());
        assert_eq!(open_bound(4, 4, 0.0), 0.0);
        assert!((open_bound(1, 0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_row_hammock_is_a_chain() {
        let net = Hammock::new(1, 3).net();
        assert_eq!(net.graph.num_edges(), 2 + 2); // 2 terminal links + 2 straight
        assert_eq!(depth(&net), Some(4));
    }
}
