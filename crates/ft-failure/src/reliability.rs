//! Two-terminal reliability: exact (state enumeration) and Monte Carlo.
//!
//! A *two-terminal network* (Moore & Shannon's relay network, and the
//! paper's `(ε, ε′)-1-network` of §3) is a graph with one input and one
//! output. Under a failure instance it can fail two ways:
//!
//! * **short** — input and output contract into one vertex: they are
//!   connected by closed-failed switches alone;
//! * **open** — no usable (normal or closed) path connects input to
//!   output.
//!
//! Proposition 1 asks for both probabilities to be < ε′.

use crate::instance::FailureInstance;
use crate::model::{FailureModel, SwitchState};
use crate::montecarlo::Estimate;
use crate::sliced::{block_seed, SlicedFailureMask, LANES};
use ft_graph::ids::{EdgeId, VertexId};
use ft_graph::sliced::{sliced_reach_into, SlicedWorkspace};
use ft_graph::traversal::{bfs, bfs_into, Direction};
use ft_graph::workspace::TraversalWorkspace;
use ft_graph::{Csr, UnionFind};

/// A graph with a single input and a single output terminal.
#[derive(Clone, Debug)]
pub struct TwoTerminal {
    /// The network graph.
    pub graph: Csr,
    /// Input terminal.
    pub source: VertexId,
    /// Output terminal.
    pub sink: VertexId,
}

/// How connectivity is interpreted for the *open* failure event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Connectivity {
    /// Electrical (relay-network) semantics: a chain of conducting
    /// switches regardless of edge orientation. The Moore–Shannon default.
    #[default]
    Undirected,
    /// Staged-network semantics: a directed input → output path.
    Directed,
}

/// The two failure probabilities of a two-terminal network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureProbs {
    /// Probability the network is open (terminals disconnected).
    pub p_open: f64,
    /// Probability the network is shorted (terminals contracted).
    pub p_short: f64,
}

impl FailureProbs {
    /// A single switch: opens with ε₁, shorts with ε₂.
    pub fn single_switch(model: &FailureModel) -> Self {
        FailureProbs {
            p_open: model.eps_open,
            p_short: model.eps_close,
        }
    }

    /// The worse of the two probabilities.
    pub fn max(&self) -> f64 {
        self.p_open.max(self.p_short)
    }
}

impl TwoTerminal {
    /// Whether the instance shorts the terminals (closed edges alone
    /// connect them, ignoring direction).
    pub fn is_shorted(&self, inst: &FailureInstance) -> bool {
        let mut uf = UnionFind::new(self.graph.num_vertices());
        self.is_shorted_with(inst, &mut uf)
    }

    /// [`Self::is_shorted`] with a caller-owned [`UnionFind`] (reset
    /// here), iterating only the closed switches — the Monte Carlo hot
    /// path.
    pub fn is_shorted_with(&self, inst: &FailureInstance, uf: &mut UnionFind) -> bool {
        debug_assert_eq!(uf.len(), self.graph.num_vertices());
        uf.reset();
        for e in inst.closed_edges() {
            let (t, h) = self.graph.endpoints(e);
            uf.union(t.0, h.0);
        }
        uf.same(self.source.0, self.sink.0)
    }

    /// Whether the instance leaves the terminals connected by usable
    /// (normal or closed) switches.
    pub fn is_connected(&self, inst: &FailureInstance, conn: Connectivity) -> bool {
        let dir = match conn {
            Connectivity::Undirected => Direction::Undirected,
            Connectivity::Directed => Direction::Forward,
        };
        let b = bfs(
            &self.graph,
            &[self.source],
            dir,
            |e| inst.is_usable(e),
            |_| true,
        );
        b.reached(self.sink)
    }

    /// Exact failure probabilities by enumerating all `3^m` switch-state
    /// assignments. Exponential: intended for gadgets (m ≤ 13).
    ///
    /// # Panics
    /// Panics if the network has more than 13 switches.
    pub fn exact_failure_probs(&self, model: &FailureModel, conn: Connectivity) -> FailureProbs {
        let m = self.graph.num_edges();
        assert!(m <= 13, "exact enumeration limited to 13 switches, got {m}");
        let probs = [
            1.0 - model.total(), // Normal
            model.eps_open,      // Open
            model.eps_close,     // Closed
        ];
        const DIGIT_STATE: [SwitchState; 3] =
            [SwitchState::Normal, SwitchState::Open, SwitchState::Closed];
        let dir = match conn {
            Connectivity::Undirected => Direction::Undirected,
            Connectivity::Directed => Direction::Forward,
        };
        let mut ws = TraversalWorkspace::new();
        let mut uf = UnionFind::new(self.graph.num_vertices());
        let mut p_open = 0.0;
        let mut p_short = 0.0;
        let mut idx = vec![0u8; m];
        // the instance mirrors `idx` and is updated digit by digit as
        // the base-3 odometer turns — no per-assignment rebuild, and the
        // 3^m shorted/connected checks share one workspace + union–find
        let mut inst = FailureInstance::perfect(m);
        loop {
            let mut p = 1.0;
            for &d in &idx {
                p *= probs[d as usize];
            }
            if p > 0.0 {
                if self.is_shorted_with(&inst, &mut uf) {
                    p_short += p;
                }
                bfs_into(
                    &self.graph,
                    &[self.source],
                    dir,
                    |e| inst.is_usable(e),
                    |_| true,
                    &mut ws,
                );
                if !ws.reached(self.sink) {
                    p_open += p;
                }
            }
            // increment base-3 counter
            let mut i = 0;
            loop {
                if i == m {
                    return FailureProbs { p_open, p_short };
                }
                idx[i] += 1;
                if idx[i] < 3 {
                    inst.set_state(EdgeId::from(i), DIGIT_STATE[idx[i] as usize]);
                    break;
                }
                idx[i] = 0;
                inst.set_state(EdgeId::from(i), SwitchState::Normal);
                i += 1;
            }
        }
    }

    /// Monte Carlo estimates of `(p_open, p_short)`, bit-sliced: trials
    /// run in [`LANES`]-sized blocks under the
    /// [`block_seed`] per-lane seeding discipline, and each block is
    /// decided by **two lane-parallel sweeps** — a reachability sweep
    /// over the lanes' usable switches (open verdicts) and an undirected
    /// sweep over the closed plane alone (short verdicts; the word-level
    /// equivalent of the union–find contraction). The `trials % LANES`
    /// tail runs scalar on the first lanes of the next block.
    ///
    /// [`Self::mc_failure_probs_scalar`] is the pinned scalar reference:
    /// it takes trial *t* from lane `t % 64` of block `t / 64`, so the
    /// two return **exactly** equal estimates in every regime, on shared
    /// instances, and the equality checks the lane-parallel sweeps
    /// against BFS and union–find.
    pub fn mc_failure_probs(
        &self,
        model: &FailureModel,
        conn: Connectivity,
        trials: u64,
        seed: u64,
    ) -> (Estimate, Estimate) {
        let m = self.graph.num_edges();
        let dir = match conn {
            Connectivity::Undirected => Direction::Undirected,
            Connectivity::Directed => Direction::Forward,
        };
        let blocks = trials / LANES as u64;
        let rem = trials % LANES as u64;
        let mut sliced = SlicedFailureMask::new();
        let mut sws = SlicedWorkspace::new();
        let mut opens = 0u64;
        let mut shorts = 0u64;
        for b in 0..blocks {
            let mut rng = ft_graph::gen::rng(block_seed(seed, b));
            model.sample_sliced_into(&mut rng, m, &mut sliced);
            sliced_reach_into(
                &self.graph,
                &[(self.source, !0)],
                dir,
                |e| sliced.usable_word(e.index()),
                |_| !0,
                &mut sws,
            );
            opens += (!sws.reached_lanes(self.sink)).count_ones() as u64;
            sliced_reach_into(
                &self.graph,
                &[(self.source, !0)],
                Direction::Undirected,
                |e| sliced.closed_word(e.index()),
                |_| !0,
                &mut sws,
            );
            shorts += sws.reached_lanes(self.sink).count_ones() as u64;
        }
        if rem > 0 {
            let (o, s) = self.mc_failure_probs_tail(model, dir, rem, blocks, seed);
            opens += o;
            shorts += s;
        }
        (
            Estimate {
                successes: opens,
                trials,
            },
            Estimate {
                successes: shorts,
                trials,
            },
        )
    }

    /// Scalar reference for [`Self::mc_failure_probs`]: identical block
    /// partition and seeding, but each lane is unpacked and evaluated as
    /// one scalar trial (packed instance + BFS + union–find). Exactly
    /// equal to the sliced estimates in every regime, on shared
    /// instances.
    pub fn mc_failure_probs_scalar(
        &self,
        model: &FailureModel,
        conn: Connectivity,
        trials: u64,
        seed: u64,
    ) -> (Estimate, Estimate) {
        let dir = match conn {
            Connectivity::Undirected => Direction::Undirected,
            Connectivity::Directed => Direction::Forward,
        };
        let blocks = trials / LANES as u64;
        let rem = trials % LANES as u64;
        let mut opens = 0u64;
        let mut shorts = 0u64;
        for b in 0..blocks {
            let (o, s) = self.mc_failure_probs_tail(model, dir, LANES as u64, b, seed);
            opens += o;
            shorts += s;
        }
        if rem > 0 {
            let (o, s) = self.mc_failure_probs_tail(model, dir, rem, blocks, seed);
            opens += o;
            shorts += s;
        }
        (
            Estimate {
                successes: opens,
                trials,
            },
            Estimate {
                successes: shorts,
                trials,
            },
        )
    }

    /// Runs the first `count` trials of block `block` scalar-side (also
    /// the shared remainder path of both drivers): lanes `0..count` of
    /// the block's sliced sample, each evaluated with BFS + union–find.
    fn mc_failure_probs_tail(
        &self,
        model: &FailureModel,
        dir: Direction,
        count: u64,
        block: u64,
        seed: u64,
    ) -> (u64, u64) {
        let m = self.graph.num_edges();
        let mut rng = ft_graph::gen::rng(block_seed(seed, block));
        let mut sliced = SlicedFailureMask::new();
        model.sample_sliced_into(&mut rng, m, &mut sliced);
        let mut inst = FailureInstance::perfect(m);
        let mut ws = TraversalWorkspace::new();
        let mut uf = UnionFind::new(self.graph.num_vertices());
        let mut opens = 0u64;
        let mut shorts = 0u64;
        for lane in 0..count as usize {
            sliced.extract_lane_into(lane, inst.mask_mut());
            bfs_into(
                &self.graph,
                &[self.source],
                dir,
                |e| inst.is_usable(e),
                |_| true,
                &mut ws,
            );
            if !ws.reached(self.sink) {
                opens += 1;
            }
            if self.is_shorted_with(&inst, &mut uf) {
                shorts += 1;
            }
        }
        (opens, shorts)
    }
}

/// The Wheatstone **bridge**: terminals s, t; interior a, b; switches
/// s–a, s–b, a–t, the cross switch a–b, and b–t. Self-dual, so with
/// ε₁ = ε₂ = ε < ½ one substitution level strictly decreases both failure
/// probabilities — the amplification gadget behind our full-range
/// Proposition 1 construction.
pub fn bridge() -> TwoTerminal {
    let [s, a, b, t] = [0, 1, 2, 3].map(VertexId);
    // the cross switch a–b is read with undirected semantics
    let edges = vec![(s, a), (s, b), (a, t), (a, b), (b, t)];
    TwoTerminal {
        graph: Csr::from_edges(4, edges),
        source: s,
        sink: t,
    }
}

/// Exact failure probabilities of the bridge when each switch
/// independently opens with `probs.p_open` and shorts with
/// `probs.p_short` — the one-level substitution map `(o, s) ↦ (o', s')`.
pub fn bridge_map(probs: FailureProbs) -> FailureProbs {
    bridge().exact_failure_probs(
        &FailureModel::new(probs.p_open, probs.p_short),
        Connectivity::Undirected,
    )
}

/// A single switch as a two-terminal network.
pub fn single_switch() -> TwoTerminal {
    let (s, t) = (VertexId(0), VertexId(1));
    TwoTerminal {
        graph: Csr::from_edges(2, vec![(s, t)]),
        source: s,
        sink: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_probs() {
        let sw = single_switch();
        let model = FailureModel::new(0.1, 0.2);
        let p = sw.exact_failure_probs(&model, Connectivity::Undirected);
        assert!((p.p_open - 0.1).abs() < 1e-12);
        assert!((p.p_short - 0.2).abs() < 1e-12);
    }

    #[test]
    fn two_in_series_exact() {
        // series: open = 1-(1-ε₁)², short = ε₂²
        let [s, mid, t] = [0, 1, 2].map(VertexId);
        let tt = TwoTerminal {
            graph: Csr::from_edges(3, vec![(s, mid), (mid, t)]),
            source: s,
            sink: t,
        };
        let model = FailureModel::new(0.1, 0.2);
        let p = tt.exact_failure_probs(&model, Connectivity::Undirected);
        assert!((p.p_open - (1.0 - 0.9 * 0.9)).abs() < 1e-12);
        assert!((p.p_short - 0.04).abs() < 1e-12);
    }

    #[test]
    fn two_in_parallel_exact() {
        // parallel: open = ε₁², short = 1-(1-ε₂)²
        let (s, t) = (VertexId(0), VertexId(1));
        let tt = TwoTerminal {
            graph: Csr::from_edges(2, vec![(s, t), (s, t)]),
            source: s,
            sink: t,
        };
        let model = FailureModel::new(0.1, 0.2);
        let p = tt.exact_failure_probs(&model, Connectivity::Undirected);
        assert!((p.p_open - 0.01).abs() < 1e-12);
        assert!((p.p_short - (1.0 - 0.8 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn bridge_is_self_dual_at_symmetric_eps() {
        for eps in [0.05, 0.2, 0.4] {
            let p = bridge_map(FailureProbs {
                p_open: eps,
                p_short: eps,
            });
            assert!(
                (p.p_open - p.p_short).abs() < 1e-12,
                "self-duality violated at ε={eps}: {p:?}"
            );
        }
    }

    #[test]
    fn bridge_amplifies_below_half() {
        // f(ε) < ε for 0 < ε < 1/2 — the crummy-relay theorem
        for eps in [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49] {
            let p = bridge_map(FailureProbs {
                p_open: eps,
                p_short: eps,
            });
            assert!(
                p.p_open < eps && p.p_short < eps,
                "no amplification at ε={eps}: {p:?}"
            );
        }
    }

    #[test]
    fn bridge_map_is_monotone_in_eps() {
        let mut last = FailureProbs {
            p_open: 0.0,
            p_short: 0.0,
        };
        for eps in [0.1, 0.2, 0.3, 0.4] {
            let p = bridge_map(FailureProbs {
                p_open: eps,
                p_short: eps,
            });
            assert!(p.p_open > last.p_open && p.p_short > last.p_short);
            last = p;
        }
    }

    #[test]
    fn mc_agrees_with_exact_on_bridge() {
        let b = bridge();
        let model = FailureModel::symmetric(0.3);
        let exact = b.exact_failure_probs(&model, Connectivity::Undirected);
        let (open, short) = b.mc_failure_probs(&model, Connectivity::Undirected, 40_000, 99);
        assert!(
            (open.p() - exact.p_open).abs() < 0.01,
            "{} vs {}",
            open.p(),
            exact.p_open
        );
        assert!((short.p() - exact.p_short).abs() < 0.01);
    }

    #[test]
    fn sliced_equals_scalar_exactly() {
        // non-multiple-of-64 trial count exercises the scalar tail too;
        // one sparse and one dense model
        let b = bridge();
        for model in [FailureModel::new(0.02, 0.03), FailureModel::new(0.2, 0.1)] {
            for conn in [Connectivity::Undirected, Connectivity::Directed] {
                let sliced = b.mc_failure_probs(&model, conn, 10_037, 3);
                let scalar = b.mc_failure_probs_scalar(&model, conn, 10_037, 3);
                assert_eq!(sliced, scalar, "{model:?} {conn:?}");
            }
        }
    }

    #[test]
    fn sparse_sliced_estimates_cover_the_exact_polynomial() {
        // The sparse sampler's law end to end: the exact enumeration
        // must lie inside the 99.9 % Wilson interval of the sliced
        // estimate, for both failure modes, on the bridge (failure
        // quadratic in ε) and on a chain of 6 switches in series
        // (open failure ≈ 6ε₁, so the open/closed split shows even at
        // ε = 10⁻³, where most gaps are alias-table tails).
        use crate::sp::SpNetwork;
        let chain = SpNetwork::series_of(6, SpNetwork::Switch).to_two_terminal();
        for (name, net) in [("bridge", bridge()), ("chain of 6", chain)] {
            for model in [
                FailureModel::symmetric(1e-3),
                FailureModel::new(0.01, 0.03),
                FailureModel::symmetric(0.03),
            ] {
                assert!(model.total() < FailureModel::DENSE_CUTOFF);
                let exact = net.exact_failure_probs(&model, Connectivity::Undirected);
                let (open, short) =
                    net.mc_failure_probs(&model, Connectivity::Undirected, 64 * 2_000, 71);
                for (what, est, want) in [
                    ("open", open, exact.p_open),
                    ("short", short, exact.p_short),
                ] {
                    let (lo, hi) = est.wilson(3.2905);
                    assert!(
                        lo <= want && want <= hi,
                        "{name} {model:?} {what}: exact {want} outside [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn sliced_and_scalar_agree_statistically_in_dense_regime() {
        let b = bridge();
        let model = FailureModel::symmetric(0.3);
        let exact = b.exact_failure_probs(&model, Connectivity::Undirected);
        let (open, short) = b.mc_failure_probs_scalar(&model, Connectivity::Undirected, 40_000, 99);
        assert!((open.p() - exact.p_open).abs() < 0.01);
        assert!((short.p() - exact.p_short).abs() < 0.01);
    }

    #[test]
    fn directed_vs_undirected_connectivity() {
        // s -> t and a "wrong way" edge t -> s in parallel: if the forward
        // edge opens, undirected connectivity survives via the other edge
        // but directed does not.
        let (s, t) = (VertexId(0), VertexId(1));
        let tt = TwoTerminal {
            graph: Csr::from_edges(2, vec![(s, t), (t, s)]),
            source: s,
            sink: t,
        };
        let inst = FailureInstance::from_states(vec![SwitchState::Open, SwitchState::Normal]);
        assert!(tt.is_connected(&inst, Connectivity::Undirected));
        assert!(!tt.is_connected(&inst, Connectivity::Directed));
    }

    #[test]
    fn perfect_instance_is_connected_not_shorted() {
        let b = bridge();
        let inst = FailureInstance::perfect(5);
        assert!(b.is_connected(&inst, Connectivity::Undirected));
        assert!(!b.is_shorted(&inst));
    }
}
