//! Explicit `(ε, ε′)-1-networks` — Proposition 1 (Moore & Shannon).
//!
//! Given `0 < ε < ½` and `0 < ε′ < ε`, build a two-terminal network in
//! which each switch fails open/closed with probability ε, yet the whole
//! network opens or shorts with probability < ε′ — using
//! `O((log₂ 1/ε′)²)` switches and `O(log₂ 1/ε′)` depth, constants
//! depending only on ε.
//!
//! Construction, certified *exactly* (no union bounds — every level's
//! failure pair is computed by enumeration or the series-parallel
//! calculus):
//!
//! 1. **Pre-amplification** (constant size): while the failure pair
//!    exceeds 0.1, substitute every switch with a Wheatstone bridge.
//!    The bridge is self-dual and amplifies for all ε < ½ (verified by
//!    exact state enumeration at each step), so a constant number of
//!    levels — depending only on ε — suffices. Size ×5, depth ×3 per
//!    level.
//! 2. **Quad squaring**: iterate the 4-switch composition
//!    `Q(N) = parallel(series(N, N), series(N, N))`, whose exact map is
//!    `o′ = (2o − o²)²`, `s′ = 2s² − s⁴`. Below 0.1 both modes square
//!    each level, so `j = log₂ log(1/ε′) + O(1)` levels reach ε′ with
//!    size `4^j = O((log 1/ε′)²)` and depth `2^j = O(log 1/ε′)` —
//!    exactly Proposition 1's form.

use crate::edge_replace::{iterate_gadget, substitute};
use crate::reliability::{bridge, bridge_map, FailureProbs, TwoTerminal};
use crate::sp::SpNetwork;

/// An explicit (ε, ε′)-1-network with its certification data.
#[derive(Clone, Debug)]
pub struct OneNet {
    /// The materialised network.
    pub net: TwoTerminal,
    /// Exact failure pair of the final network (each mode < ε′).
    pub certified: FailureProbs,
}

impl OneNet {
    /// Number of switches.
    pub fn size(&self) -> usize {
        self.net.graph.num_edges()
    }

    /// Depth: longest source→sink path in switches.
    pub fn depth(&self) -> u32 {
        ft_graph::traversal::dag_depth_between(
            &self.net.graph,
            &[self.net.source],
            &[self.net.sink],
        )
        .expect("one-network must connect its terminals")
    }
}

/// Pre-amplification threshold: below this the quad map strictly
/// contracts (o′ ≤ 4o² ≤ 0.4·o).
const QUAD_COMFORT: f64 = 0.1;

/// The exact quad map: `Q(N) = parallel(series(N,N), series(N,N))`.
pub fn quad_map(p: FailureProbs) -> FailureProbs {
    let series_open = 1.0 - (1.0 - p.p_open) * (1.0 - p.p_open);
    let series_short = p.p_short * p.p_short;
    FailureProbs {
        p_open: series_open * series_open,
        p_short: 1.0 - (1.0 - series_short) * (1.0 - series_short),
    }
}

/// Computes the number of bridge levels and the resulting failure pair
/// needed to bring `(ε, ε)` under `QUAD_COMFORT`.
///
/// # Panics
/// Panics if ε ≥ ½ (amplification impossible: ½ is the bridge's fixed
/// point) or if 200 levels do not suffice (unreachable for ε ≤ 0.499).
pub(crate) fn preamp_schedule(eps: f64) -> (usize, FailureProbs) {
    assert!(
        (0.0..0.5).contains(&eps),
        "Proposition 1 requires 0 ≤ ε < 1/2, got {eps}"
    );
    let mut p = FailureProbs {
        p_open: eps,
        p_short: eps,
    };
    let mut levels = 0usize;
    while p.max() > QUAD_COMFORT {
        let next = bridge_map(p);
        assert!(
            next.max() < p.max(),
            "bridge failed to amplify at {p:?} (ε too close to 1/2?)"
        );
        p = next;
        levels += 1;
        assert!(levels <= 200, "pre-amplification diverged");
    }
    (levels, p)
}

/// Number of quad levels needed to bring `p` (both modes ≤ 0.1) below
/// `eps_prime`, together with the exact resulting pair.
pub(crate) fn quad_schedule(p: FailureProbs, eps_prime: f64) -> (usize, FailureProbs) {
    assert!(eps_prime > 0.0, "ε′ must be positive");
    assert!(
        p.max() <= QUAD_COMFORT,
        "quad_schedule expects pre-amplified inputs"
    );
    let mut cur = p;
    let mut levels = 0usize;
    while cur.max() >= eps_prime {
        cur = quad_map(cur);
        levels += 1;
        assert!(levels <= 64, "quad iteration diverged");
    }
    (levels, cur)
}

/// The quad network as a series-parallel composition tree with `levels`
/// levels (level 0 = single switch).
pub(crate) fn quad_sp(levels: usize) -> SpNetwork {
    let mut net = SpNetwork::Switch;
    for _ in 0..levels {
        let chain = SpNetwork::Series(vec![net.clone(), net]);
        net = SpNetwork::Parallel(vec![chain.clone(), chain]);
    }
    net
}

/// Builds an explicit (ε, ε′)-1-network per Proposition 1.
///
/// # Panics
/// Panics unless `0 < ε′ < ε < ½`.
pub fn construct_onenet(eps: f64, eps_prime: f64) -> OneNet {
    assert!(
        0.0 < eps_prime && eps_prime < eps && eps < 0.5,
        "Proposition 1 requires 0 < ε′ < ε < 1/2 (got ε={eps}, ε′={eps_prime})"
    );
    let (preamp_levels, amplified) = preamp_schedule(eps);
    let (quad_levels, certified) = quad_schedule(amplified, eps_prime);
    let skeleton = quad_sp(quad_levels).to_two_terminal();
    let net = if preamp_levels == 0 {
        skeleton
    } else {
        let gadget = iterate_gadget(&bridge(), preamp_levels);
        let sub = substitute(&skeleton.graph, &gadget);
        TwoTerminal {
            graph: sub.graph,
            source: skeleton.source,
            sink: skeleton.sink,
        }
    };
    OneNet { net, certified }
}

/// The Proposition 1 size form `c·(log₂ 1/ε′)²`: returns the constant
/// `c = size / (log₂ 1/ε′)²` achieved by a constructed network.
pub fn size_constant(net: &OneNet, eps_prime: f64) -> f64 {
    let lg = (1.0 / eps_prime).log2();
    net.size() as f64 / (lg * lg)
}

/// The Proposition 1 depth form `d·log₂ 1/ε′`: returns the achieved
/// constant `d`.
pub fn depth_constant(net: &OneNet, eps_prime: f64) -> f64 {
    let lg = (1.0 / eps_prime).log2();
    net.depth() as f64 / lg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FailureModel;
    use crate::reliability::Connectivity;

    #[test]
    fn quad_map_matches_sp_calculus() {
        let leaf = FailureProbs {
            p_open: 0.07,
            p_short: 0.04,
        };
        let map = quad_map(leaf);
        let sp = quad_sp(1).failure_probs_from(leaf);
        assert!((map.p_open - sp.p_open).abs() < 1e-15);
        assert!((map.p_short - sp.p_short).abs() < 1e-15);
        // two levels
        let map2 = quad_map(map);
        let sp2 = quad_sp(2).failure_probs_from(leaf);
        assert!((map2.p_open - sp2.p_open).abs() < 1e-15);
        assert!((map2.p_short - sp2.p_short).abs() < 1e-15);
    }

    #[test]
    fn quad_contracts_below_comfort() {
        let p = FailureProbs {
            p_open: 0.1,
            p_short: 0.1,
        };
        let q = quad_map(p);
        assert!(q.p_open < 0.05 && q.p_short < 0.05);
    }

    #[test]
    fn preamp_noop_when_small() {
        let (levels, p) = preamp_schedule(0.05);
        assert_eq!(levels, 0);
        assert_eq!(p.p_open, 0.05);
    }

    #[test]
    fn preamp_handles_large_eps() {
        for eps in [0.2, 0.3, 0.4, 0.45] {
            let (levels, p) = preamp_schedule(eps);
            assert!(levels > 0, "ε={eps} needs pre-amplification");
            assert!(p.max() <= QUAD_COMFORT);
            // symmetric stays symmetric (self-duality)
            assert!((p.p_open - p.p_short).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "requires 0 ≤ ε < 1/2")]
    fn preamp_rejects_half() {
        preamp_schedule(0.5);
    }

    #[test]
    fn quad_levels_grow_like_loglog() {
        let p = FailureProbs {
            p_open: 0.05,
            p_short: 0.05,
        };
        let (j3, c3) = quad_schedule(p, 1e-3);
        let (j6, c6) = quad_schedule(p, 1e-6);
        let (j12, c12) = quad_schedule(p, 1e-12);
        assert!(c3.max() < 1e-3 && c6.max() < 1e-6 && c12.max() < 1e-12);
        assert!(j3 <= j6 && j6 <= j12);
        // doubling log(1/ε′) adds ~1 level
        assert!(j12 <= j6 + 2, "j6={j6}, j12={j12}");
    }

    #[test]
    fn onenet_small_eps_has_no_preamp() {
        let net = construct_onenet(0.05, 1e-4);
        let (preamp_levels, amplified) = preamp_schedule(0.05);
        assert_eq!(preamp_levels, 0);
        let (quad_levels, _) = quad_schedule(amplified, 1e-4);
        assert!(net.certified.p_open < 1e-4);
        assert!(net.certified.p_short < 1e-4);
        assert_eq!(net.size(), 4usize.pow(quad_levels as u32));
        assert_eq!(net.depth(), 2u32.pow(quad_levels as u32));
    }

    #[test]
    fn onenet_large_eps_preamps() {
        let net = construct_onenet(0.4, 1e-2);
        let (preamp_levels, amplified) = preamp_schedule(0.4);
        assert!(preamp_levels > 0);
        let (quad_levels, _) = quad_schedule(amplified, 1e-2);
        assert!(net.certified.max() < 1e-2);
        assert_eq!(
            net.size(),
            4usize.pow(quad_levels as u32) * 5usize.pow(preamp_levels as u32)
        );
    }

    #[test]
    fn onenet_certification_is_exact_small() {
        // small enough instance to cross-check certification by full
        // enumeration: ε=0.2 → 1 bridge level (5 edges) then quads
        let net = construct_onenet(0.2, 0.05);
        if net.size() <= 13 {
            let model = FailureModel::symmetric(0.2);
            let exact = net
                .net
                .exact_failure_probs(&model, Connectivity::Undirected);
            assert!((exact.p_open - net.certified.p_open).abs() < 1e-12);
            assert!((exact.p_short - net.certified.p_short).abs() < 1e-12);
        }
    }

    #[test]
    fn onenet_mc_respects_certificate() {
        let net = construct_onenet(0.15, 0.02);
        let model = FailureModel::symmetric(0.15);
        let (open, short) = net
            .net
            .mc_failure_probs(&model, Connectivity::Undirected, 20_000, 23);
        // MC must agree with the exact certificate within CI slack
        assert!(open.wilson95().0 <= net.certified.p_open + 0.005);
        assert!(short.wilson95().0 <= net.certified.p_short + 0.005);
        assert!(open.p() < 0.02 + 0.01);
        assert!(short.p() < 0.02 + 0.01);
    }

    #[test]
    fn proposition1_scaling_constants_are_bounded() {
        // constants c, d must stay bounded as ε′ shrinks (fixed ε)
        for eps_prime in [1e-2, 1e-4, 1e-8, 1e-12] {
            let net = construct_onenet(0.05, eps_prime);
            let c = size_constant(&net, eps_prime);
            let d = depth_constant(&net, eps_prime);
            assert!(c < 8.0, "size constant {c} too large at ε′={eps_prime}");
            assert!(d < 4.0, "depth constant {d} too large at ε′={eps_prime}");
        }
    }

    #[test]
    fn materialised_onenet_is_dag_with_terminals() {
        let net = construct_onenet(0.3, 1e-3);
        assert!(ft_graph::traversal::is_acyclic(&net.net.graph));
        let b = ft_graph::traversal::bfs_forward(&net.net.graph, net.net.source);
        assert!(b.reached(net.net.sink));
    }

    #[test]
    #[should_panic(expected = "requires 0 < ε′ < ε < 1/2")]
    fn onenet_rejects_bad_params() {
        construct_onenet(0.1, 0.2);
    }
}
