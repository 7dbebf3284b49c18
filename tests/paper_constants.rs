//! Paper-constant pinning: every number the paper states that our
//! construction can check mechanically, checked mechanically.

use fault_tolerant_switching::core::lowerbound::lemma1_short_paths;
use fault_tolerant_switching::core::network::FtNetwork;
use fault_tolerant_switching::core::params::{gamma_for, Params};
use fault_tolerant_switching::core::theory;
use fault_tolerant_switching::expander::paper::{expansion_factor, ExpanderSpec};
use fault_tolerant_switching::failure::onenet::{construct_onenet, depth_constant, size_constant};
use fault_tolerant_switching::failure::{Connectivity, FailureModel};
use fault_tolerant_switching::graph::ids::v;
use fault_tolerant_switching::graph::Csr;

#[test]
fn gamma_sandwich_34_136() {
    // §6: 136ν ≥ 4^γ ≥ 34ν for γ = ⌈log₄ 34ν⌉
    for nu in 1..=10u32 {
        let g = gamma_for(34.0, nu);
        let fg = (1usize << (2 * g)) as f64;
        assert!(fg >= 34.0 * nu as f64);
        assert!(fg <= 136.0 * nu as f64);
    }
}

#[test]
fn stage_count_and_depth() {
    // §6: 𝒩 has 2(ν+γ)+1 − 2γ + 2(ν−1) + 2 = 4ν+1 stages; depth 4ν
    for nu in 1..=3u32 {
        let p = Params::reduced(nu, 8, 8, 1.0);
        assert_eq!(p.num_stages(), 4 * nu as usize + 1);
        if nu <= 2 {
            let ftn = FtNetwork::build(p);
            assert_eq!(ftn.net().depth(), 4 * nu);
        }
    }
}

#[test]
fn middle_census_1280() {
    // §6: "there are 1280ν4^{ν+γ} edges in 𝓜" at F = 64, d = 10
    for nu in 1..=4u32 {
        let p = Params::paper_exact(nu);
        assert_eq!(
            p.middle_edges(),
            1280 * nu as usize * p.n() * p.four_gamma()
        );
    }
}

#[test]
fn terminal_census_128() {
    // §6: "128·4^{ν+γ} edges adjacent to inputs and outputs"
    for nu in 1..=4u32 {
        let p = Params::paper_exact(nu);
        assert_eq!(p.terminal_edges(), 128 * p.n() * p.four_gamma());
    }
}

#[test]
fn built_network_matches_census_nu1() {
    let p = Params::paper_exact(1);
    let ftn = FtNetwork::build(p);
    // at ν = 1 there are no grid gaps, so our census equals the
    // paper's 1408ν4^{ν+γ} exactly
    assert_eq!(ftn.net().size(), 1408 * p.n() * p.four_gamma());
    assert_eq!(ftn.net().size(), p.paper_census());
}

#[test]
fn grid_diagonal_census_delta_nu2() {
    // for ν ≥ 2 our grids carry (2l−1) switches per gap where the
    // paper counts l: measured − paper = 2n(l−1)(ν−1)
    let p = Params::paper_exact(2);
    let delta = p.predicted_size() as i64 - p.paper_census() as i64;
    let expected = 2 * p.n() as i64 * (p.grid_rows() as i64 - 1) * (p.nu as i64 - 1);
    assert_eq!(delta, expected);
}

#[test]
fn expansion_constant_33_07() {
    // §6: 32(1 + (2−√3)/8) ≈ 33.07
    let c = 32.0 * expansion_factor();
    assert!((c - 33.07).abs() < 0.01, "constant {c}");
    let spec = ExpanderSpec::at_scale(1);
    assert_eq!((spec.c, spec.t), (32, 64));
}

#[test]
fn theorem2_failure_bound_vanishes_at_paper_eps() {
    // Theorem 2: arbitrarily small δ at ε = 10⁻⁶ for n large
    let b2 = theory::theorem2_failure_bound(&Params::paper_exact(2), 1e-6);
    assert!(b2 < 1e-2, "bound {b2}");
    // and the lemma components are individually small
    assert!(theory::lemma3_grid_failure_bound(&Params::paper_exact(2), 1e-6) < 1e-100);
    assert!(theory::lemma7_shorting_bound(&Params::paper_exact(2), 1e-6) < 1e-3);
}

#[test]
fn lemma4_paper_envelope() {
    // Lemma 4 at ε = 10⁻⁶: P ≤ e^{−0.06·4^μ} (2560εe < 0.01)
    for mu in 0..6u32 {
        let tail = theory::lemma4_paper_tail(mu, 1e-6);
        let envelope = (-0.06 * 4f64.powi(mu as i32)).exp();
        assert!(
            tail <= envelope * 1.01,
            "mu={mu}: tail {tail} > envelope {envelope}"
        );
    }
}

#[test]
fn theorem1_constants() {
    assert!((theory::theorem1_size_lower_bound(4096) - 4096.0 * 144.0 / 2688.0).abs() < 1e-9);
    assert_eq!(theory::theorem1_depth_lower_bound(1 << 16), 1.0);
}

#[test]
fn proposition1_constants_bounded_over_sweep() {
    // Proposition 1: size/(log₂ 1/ε′)² and depth/(log₂ 1/ε′) stay
    // bounded as ε′ sweeps five orders of magnitude
    let mut max_c = 0.0f64;
    let mut max_d = 0.0f64;
    for &ep in &[1e-2, 1e-3, 1e-4, 1e-5, 1e-6] {
        let net = construct_onenet(0.1, ep);
        assert!(net.certified.p_open < ep);
        assert!(net.certified.p_short < ep);
        let (c, d) = theory::prop1_constants(net.size(), net.depth(), ep);
        max_c = max_c.max(c);
        max_d = max_d.max(d);
    }
    assert!(max_c < 30.0, "size constant blew up: {max_c}");
    assert!(max_d < 5.0, "depth constant blew up: {max_d}");
}

#[test]
fn proposition1_constants_bounded_at_other_eps() {
    // the same sweep at ε = ¼ and ε = 1/100: the constants depend on
    // ε (they grow as ε approaches ½) but stay bounded in ε′
    for (eps, max_c, max_d) in [(0.25, 30.0, 10.0), (0.01, 30.0, 5.0)] {
        for ep in [1e-1, 1e-2, 1e-3, 1e-4, 1e-6]
            .into_iter()
            .filter(|&ep| ep < eps)
        {
            let net = construct_onenet(eps, ep);
            assert!(net.certified.p_open < ep && net.certified.p_short < ep);
            let (c, d) = (size_constant(&net, ep), depth_constant(&net, ep));
            assert!(c < max_c, "eps={eps} eps'={ep}: size constant {c}");
            assert!(d < max_d, "eps={eps} eps'={ep}: depth constant {d}");
        }
    }
}

#[test]
fn proposition1_certified_pair_matches_monte_carlo() {
    // the series–parallel calculus is exact: Monte Carlo on the built
    // (0.1, 10⁻³)-1-network brackets both certified failure modes
    let net = construct_onenet(0.1, 1e-3);
    let model = FailureModel::symmetric(0.1);
    let (open, short) = net
        .net
        .mc_failure_probs(&model, Connectivity::Undirected, 200_000, 99);
    for (exact, est) in [(net.certified.p_open, open), (net.certified.p_short, short)] {
        let (lo, hi) = est.wilson95();
        assert!(lo <= exact && exact <= hi, "exact {exact} outside {est:?}");
    }
}

#[test]
fn census_formula_rows_up_to_nu_6() {
    // Theorem 2 beyond the buildable ν ≤ 2: our census carries the
    // grid diagonals the paper's count omits, so it is never below the
    // paper's 1408ν·4^{ν+γ}; and 4ν switches of depth stay ≤ 5 log₄ n
    for nu in 1..=6u32 {
        let p = Params::paper_exact(nu);
        assert!(p.predicted_size() >= p.paper_census(), "nu={nu}");
        assert_eq!(p.depth(), 4 * nu);
        assert!(p.depth() as f64 <= theory::theorem2_depth_bound(p.n()));
    }
}

#[test]
fn lemma5_family_bound_at_paper_eps() {
    // Lemma 5: the union over 𝓜's whole expander family at ν = 2,
    // ε = 10⁻⁶ is 8.14·10⁻⁷
    let b = theory::lemma5_family_bound(&Params::paper_exact(2), 1e-6);
    assert!(b < 1e-6, "bound {b}");
}

#[test]
fn figure1_bad_leaf_and_figure2_demo_tree() {
    // Fig. 1: leaf 0 hangs off a binary tree of depth 3, so its nearest
    // other leaf is 4 away and it is bad; the 8 good leaves still pair
    // up into 4 edge-disjoint short paths
    let tree = (1..8u32).flat_map(|p| [(v(p), v(2 * p)), (v(p), v(2 * p + 1))]);
    let g = Csr::from_edges(16, [(v(0), v(1))].into_iter().chain(tree).collect());
    let r = lemma1_short_paths(&g);
    assert_eq!((r.num_leaves, r.good_leaves, r.paths.len()), (9, 8, 4));
    // Fig. 2: a centre with 3 branch children of 2 leaves each — every
    // leaf is good and sibling pairs give 3 paths
    let children = (1..=3u32).map(|c| (v(0), v(c)));
    let leaves = (1..=3u32).flat_map(|c| [(v(c), v(2 * c + 2)), (v(c), v(2 * c + 3))]);
    let g = Csr::from_edges(10, children.chain(leaves).collect());
    let r = lemma1_short_paths(&g);
    assert_eq!((r.num_leaves, r.good_leaves, r.paths.len()), (6, 6, 3));
}

#[test]
fn depth_bound_5log4n() {
    for nu in 1..=8u32 {
        let p = Params::paper_exact(nu);
        assert!((p.depth() as f64) < theory::theorem2_depth_bound(p.n()));
    }
}
