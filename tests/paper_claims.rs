//! The paper's probabilistic claims, asserted by Monte Carlo on reduced
//! profiles of 𝒩 and on the Θ(n log n) baselines — Lemmas 3–7,
//! Theorem 2 end to end, the `4^γ ≥ 34ν` scale-up and §3's
//! ε-invariance.
//!
//! Every estimate runs single-threaded under a fixed seed, so each test
//! is deterministic. Assertions read the 95 % Wilson interval, never the
//! point estimate: a claim "P ≥ x" checks the lower end, "P ≤ x" the
//! upper end, and "Monte Carlo ≤ analytic bound" is refuted only when
//! the lower end exceeds the bound (at 0 events in 2000 trials the
//! upper end, ≈ 0.002, still sits far above Lemma 3's 4.25·10⁻⁵).
//! Every 𝒩 is built as the simulator builds it, from its
//! `FabricSpec::Ftn`, and repaired by the fabric's §4 discipline.

use fault_tolerant_switching::core::access::{
    access_profile, all_grids_majority, busy_mask, grid_access_count, majority_access_report,
};
use fault_tolerant_switching::core::certify::certify_with_budget;
use fault_tolerant_switching::core::network::{FtNetwork, Side, StageKind};
use fault_tolerant_switching::core::params::Params;
use fault_tolerant_switching::core::routing;
use fault_tolerant_switching::core::theory;
use fault_tolerant_switching::failure::contraction::terminals_shorted;
use fault_tolerant_switching::failure::montecarlo::estimate_probability;
use fault_tolerant_switching::failure::{
    construct_onenet, Estimate, FailureInstance, FailureModel,
};
use fault_tolerant_switching::graph::distance::nearest_other_terminal;
use fault_tolerant_switching::graph::gen::{random_permutation, rng};
use fault_tolerant_switching::graph::{Csr, Digraph, VertexId};
use fault_tolerant_switching::networks::{Benes, Butterfly, CircuitRouter};
use fault_tolerant_switching::sim::{Fabric, FabricSpec};
use rand::rngs::SmallRng;
use rand::Rng;

/// `ftn NU WIDTH DEGREE GAMMA` as the simulator builds it, beside its
/// layout: `FtNetwork` built again from the same `Params`, for the grid
/// and stage queries a fabric does not answer. The builder is
/// deterministic, so the two graphs must be equal.
fn ftn(nu: u32, width: usize, degree: usize, gamma: f64) -> (Fabric, FtNetwork) {
    let fabric = FabricSpec::Ftn(nu, width, degree, gamma).build();
    let layout = FtNetwork::build(Params::reduced(nu, width, degree, gamma));
    let (a, b) = (fabric.net(), layout.net());
    assert!(
        a.csr().edges().eq(b.csr().edges())
            && (a.inputs(), a.outputs()) == (b.inputs(), b.outputs())
            && a.stage_table() == b.stage_table(),
        "ftn {nu} {width} {degree} {gamma}: layout differs from the fabric"
    );
    (fabric, layout)
}

/// Whether 𝒩, repaired from `inst`, greedily routes `perm` (input `j`
/// → output `perm[j]`) in full.
fn routes(fabric: &Fabric, f: &FtNetwork, inst: &FailureInstance, perm: &[u32]) -> bool {
    let mut router = CircuitRouter::with_alive_mask(f.net(), fabric.alive_mask(inst));
    routing::route_permutation(&mut router, f, perm)
        .0
        .all_connected()
}

/// One end-to-end trial: sample failures, repair, route a random
/// permutation in full.
fn carries_random_permutation(
    fabric: &Fabric,
    f: &FtNetwork,
    model: &FailureModel,
    rng: &mut SmallRng,
) -> bool {
    let inst = FailureInstance::sample(model, rng, fabric.net().num_edges());
    let perm = random_permutation(rng, fabric.terminals());
    routes(fabric, f, &inst, &perm)
}

/// Whether every switch on every path is normal: a natively routed
/// circuit set survives the instance.
fn paths_survive(g: &Csr, inst: &FailureInstance, paths: &[Vec<VertexId>]) -> bool {
    paths.iter().flat_map(|p| p.windows(2)).all(|w| {
        g.out_edges(w[0])
            .any(|e| g.head(e) == w[1] && inst.is_normal(e))
    })
}

/// Lemma 3: an input keeps strict-majority access to its grid's
/// boundary stage, failing with probability at most `c₁ν(144ε)^l`.
/// Where that bound is below 1 (ε = 0.005 here) the estimate lies under
/// it; past the hammock threshold (ε ≥ 0.1) access is lost almost
/// surely, for `l = 32` and `l = 64` alike.
#[test]
fn lemma3_grid_majority_access() {
    for (nu, width) in [(1u32, 8usize), (2, 8), (2, 16)] {
        let (fabric, f) = &ftn(nu, width, 8, 1.0);
        let (m, l) = (f.net().num_edges(), f.rows());
        let mut alive = Vec::new();
        for (eps, trials) in [(0.005, 2000), (0.1, 200), (0.15, 200)] {
            let model = FailureModel::symmetric(eps);
            let est = estimate_probability(trials, 0xE6, |rng| {
                let inst = FailureInstance::sample(&model, rng, m);
                fabric.alive_mask_into(&inst, &mut alive);
                2 * grid_access_count(f, &alive, Side::Input, 0) <= l
            });
            let (lo, hi) = est.wilson95();
            let bound = theory::lemma3_grid_failure_bound(f.params(), eps);
            assert!(
                lo <= bound,
                "l={l} eps={eps}: {est:?} exceeds bound {bound}"
            );
            if eps < 0.1 {
                assert!(hi < 0.01, "l={l} eps={eps}: access lost too often, {est:?}");
            } else {
                assert!(lo > 0.95, "l={l} eps={eps}: access survives, {est:?}");
            }
        }
    }
}

/// Lemma 4: one expanding graph with `t = 64·4^μ` outlets, each
/// incident to 20 switches failing with probability 2ε, has more than
/// `0.07·4^μ` faulty outlets with probability at most
/// `lemma4_paper_tail(μ, ε)` — on all 16 (μ, ε) rows. At ε = 10⁻⁶,
/// μ = 0 the estimate reads 7/4000 against a bound of 0.94.
#[test]
fn lemma4_outlet_fault_tail_is_under_its_bound() {
    for mu in 0..=3u32 {
        let t = 64usize << (2 * mu);
        let budget = (0.07 * 4f64.powi(mu as i32)).floor() as usize;
        for eps in [1e-6f64, 1e-4, 5e-4, 2e-3] {
            let p_faulty = 1.0 - (1.0 - 2.0 * eps).powi(20);
            let est = estimate_probability(4000, 0xE7, |rng| {
                let mut faulty = 0;
                (0..t).any(|_| {
                    faulty += (rng.random::<f64>() < p_faulty) as usize;
                    faulty > budget
                })
            });
            let bound = theory::lemma4_paper_tail(mu, eps);
            assert!(
                est.wilson95().0 <= bound,
                "mu={mu} eps={eps}: {est:?} exceeds the Lemma 4 tail {bound}"
            );
        }
    }
}

/// One Lemma 6 trial: sample failures, repair, route a random partial
/// permutation (each pair kept with probability ½) as the busy pattern,
/// then ask whether every idle terminal on both sides (Corollary 2's
/// mirror included) reaches a strict majority of stage 2ν.
fn majority_access_trial(
    fabric: &Fabric,
    f: &FtNetwork,
    model: &FailureModel,
    rng: &mut SmallRng,
) -> bool {
    let inst = FailureInstance::sample(model, rng, f.net().num_edges());
    let alive = fabric.alive_mask(&inst);
    let mut router = CircuitRouter::with_alive_mask(f.net(), alive.clone());
    let perm = random_permutation(rng, f.n());
    let mut paths = Vec::new();
    for (i, &o) in perm.iter().enumerate() {
        if rng.random::<f64>() < 0.5 {
            continue;
        }
        if let Ok(id) = router.connect(f.input(i), f.output(o as usize)) {
            paths.push(router.session_path(id).unwrap().to_vec());
        }
    }
    let busy = busy_mask(f.net().num_vertices(), &paths);
    [Side::Input, Side::Output]
        .into_iter()
        .all(|side| majority_access_report(f, &alive, &busy, side).all_majority())
}

/// Lemma 6 / Corollary 2: under random failures and random busy
/// circuits, 𝒩 is a majority-access network on both sides — in every
/// trial at ε ≤ 5·10⁻³, for ν = 1 and ν = 2.
#[test]
fn lemma6_majority_access_holds_in_every_trial() {
    for nu in [1u32, 2] {
        let (fabric, f) = &ftn(nu, 8, 8, 1.0);
        for eps in [1e-4, 1e-3, 5e-3] {
            let model = FailureModel::symmetric(eps);
            let est = estimate_probability(100, 0xE8, |rng| {
                majority_access_trial(fabric, f, &model, rng)
            });
            assert_eq!(est.successes, est.trials, "nu={nu} eps={eps}");
        }
    }
}

/// Lemma 6's access recurrence `r′ = 1 − e^{−d·r/4}` has a positive
/// fixed point only for `d > 4`. From r = 1, 200 steps leave 0.010 at
/// d = 4 (the critical map, decaying like 2/k towards 0) and settle on
/// the fixed point 0.371 at d = 5. Built at ν = 2, F = 8, ε = 10⁻³,
/// degrees 3 and 4 lose majority access and every d ≥ 5 keeps it.
#[test]
fn lemma6_needs_degree_above_four() {
    let step = |d: usize, r: f64| 1.0 - (-(d as f64) * r / 4.0).exp();
    let settle = |d: usize| (0..200).fold(1.0, |r, _| step(d, r));
    assert!((settle(4) - 0.010).abs() < 5e-4, "d=4: {}", settle(4));
    let r5 = settle(5);
    assert!((r5 - 0.371).abs() < 5e-4, "d=5: {r5}");
    assert!((step(5, r5) - r5).abs() < 1e-12, "d=5 has not settled");

    let model = FailureModel::symmetric(1e-3);
    for d in [3usize, 4, 5, 6, 8, 10] {
        let (fabric, f) = &ftn(2, 8, d, 1.0);
        let est = estimate_probability(50, 0xE8D, |rng| {
            majority_access_trial(fabric, f, &model, rng)
        });
        let (lo, hi) = est.wilson95();
        if d <= 4 {
            assert!(hi < 0.1, "d={d} keeps majority access: {est:?}");
        } else {
            assert!(lo > 0.9, "d={d} loses majority access: {est:?}");
        }
    }
}

/// Lemma 6's induction, stage by stage: with half the terminals busy,
/// idle input 0's accessed share grows through the left half of 𝓜 and
/// ends above ½ at stage 2ν (it reads 0.81).
#[test]
fn lemma6_access_share_exceeds_half_at_stage_2nu() {
    let (fabric, f) = &ftn(2, 8, 8, 1.0);
    let nu = f.params().nu as usize;
    let mut r = rng(0x8E8);
    let inst = FailureInstance::sample(&FailureModel::symmetric(1e-3), &mut r, f.net().num_edges());
    let alive = fabric.alive_mask(&inst);
    let mut router = CircuitRouter::with_alive_mask(f.net(), alive.clone());
    let mut paths = Vec::new();
    for i in 1..f.n() / 2 {
        if let Ok(id) = router.connect(f.input(i), f.output(i)) {
            paths.push(router.session_path(id).unwrap().to_vec());
        }
    }
    let busy = busy_mask(f.net().num_vertices(), &paths);
    let profile = access_profile(f, &alive, &busy, Side::Input, 0);
    let share = |s: usize| profile[s] as f64 / f.net().stage_range(s).len() as f64;
    let left_middle: Vec<usize> = (0..=2 * nu)
        .filter(|&s| f.stage_kind(s) == StageKind::Middle)
        .collect();
    assert_eq!(left_middle, (nu..=2 * nu).collect::<Vec<_>>());
    for w in left_middle.windows(2) {
        assert!(share(w[1]) > share(w[0]), "share falls at stage {}", w[1]);
    }
    assert!(share(2 * nu) > 0.5, "share at stage 2nu: {}", share(2 * nu));
}

/// Lemma 7: a short needs a whole terminal-to-terminal path of closed
/// switches, at least 2ν of them. The bound only needs distance ≥ 2ν;
/// the measured minimum is 2ν + 2 (4 at ν = 1, 6 at ν = 2), because two
/// terminals' groups first share a vertex at stage ν + 1, so a path
/// climbs there and back down. Deeper networks therefore short later:
/// at ε₂ = 0.05, ν = 2 shorts in 0 of 1000 trials while ν = 1 shorts
/// in 99.
#[test]
fn lemma7_shorting_needs_long_closed_paths() {
    let mut shorts = Vec::new();
    for (nu, measured) in [(1u32, 4u32), (2, 6)] {
        let fabric = FabricSpec::Ftn(nu, 8, 8, 1.0).build();
        let net = fabric.net();
        let terminals: Vec<VertexId> = net.inputs().iter().chain(net.outputs()).copied().collect();
        let min = *nearest_other_terminal(net.graph(), &terminals)
            .iter()
            .min()
            .unwrap();
        assert!(min >= 2 * nu, "nu={nu}: terminals {min} apart");
        assert_eq!(min, measured, "nu={nu}");
        let model = FailureModel::new(0.0, 0.05);
        let m = net.num_edges();
        shorts.push(estimate_probability(1000, 0xE9, |rng| {
            terminals_shorted(
                net.graph(),
                &FailureInstance::sample(&model, rng, m),
                &terminals,
            )
        }));
    }
    let (nu1_lo, _) = shorts[0].wilson95();
    let (_, nu2_hi) = shorts[1].wilson95();
    assert!(nu2_hi < 0.01, "nu=2 shorts: {:?}", shorts[1]);
    assert!(
        nu1_lo > nu2_hi,
        "nu=1 {:?} vs nu=2 {:?}",
        shorts[0],
        shorts[1]
    );
}

/// Theorem 2 end to end: the sturdy 𝒩 (F = 16, d = 10, γ one notch
/// up) carries every random permutation in every trial up to
/// ε = 2·10⁻², at ν = 1 and ν = 2.
#[test]
fn theorem2_sturdy_ftn_carries_every_permutation() {
    for nu in [1u32, 2] {
        let (fabric, f) = &ftn(nu, 16, 10, 4.0);
        for eps in [1e-5, 1e-4, 1e-3, 5e-3, 2e-2] {
            let model = FailureModel::symmetric(eps);
            let est = estimate_probability(100, 0xE10, |rng| {
                carries_random_permutation(fabric, f, &model, rng)
            });
            assert_eq!(est.successes, est.trials, "nu={nu} eps={eps}");
        }
    }
}

/// Theorem 2 against the Θ(n log n) baselines at n = 16, ε = 5·10⁻³,
/// each on its native protocol: Beneš routes by the looping algorithm,
/// the butterfly by its unique paths, and a trial succeeds when every
/// switch on the routed circuits is normal. Both lose the permutation
/// in over a third of the trials (0.34 and 0.58 carried), while 𝒩 —
/// above — carries all of them. Beneš's circuits occupy 16·7 distinct
/// switches, so its rate is exactly `(1 − 2ε)^112`.
#[test]
fn theorem2_baselines_collapse_where_ftn_routes() {
    let eps = 5e-3;
    let model = FailureModel::symmetric(eps);
    let benes = Benes::new(4);
    let benes_est = estimate_probability(1000, 0xB10, |rng| {
        let paths = benes.route_permutation(&random_permutation(rng, 16));
        let inst = FailureInstance::sample(&model, rng, benes.net.num_edges());
        paths_survive(benes.net.graph(), &inst, &paths)
    });
    let bf = Butterfly::new(4);
    let bf_est = estimate_probability(1000, 0xBF10, |rng| {
        let perm = random_permutation(rng, 16);
        let paths: Vec<Vec<VertexId>> = (0..16)
            .map(|x| bf.unique_path(x, perm[x as usize]))
            .collect();
        let inst = FailureInstance::sample(&model, rng, bf.net.num_edges());
        paths_survive(bf.net.graph(), &inst, &paths)
    });
    let (lo, hi) = benes_est.wilson95();
    let exact = (1.0 - 2.0 * eps).powi(112);
    assert!(
        lo <= exact && exact <= hi,
        "benes {benes_est:?} vs exact {exact}"
    );
    for (name, est) in [("benes", benes_est), ("butterfly", bf_est)] {
        assert!(
            est.wilson95().1 < 2.0 / 3.0,
            "{name} carries too much: {est:?}"
        );
    }
}

/// Theorem 2's certificate on the sturdy ν = 2 network: it holds at
/// ε ≤ 10⁻³, and in every trial a certified survivor routes the random
/// permutation (certified ⇒ routed).
#[test]
fn theorem2_certified_survivors_route() {
    let (fabric, f) = &ftn(2, 16, 10, 4.0);
    let m = f.net().num_edges();
    for eps in [1e-4, 1e-3] {
        let model = FailureModel::symmetric(eps);
        let est = estimate_probability(40, 0xC10, |rng| {
            let inst = FailureInstance::sample(&model, rng, m);
            let certified = certify_with_budget(f, &inst, 0.10).implies_nonblocking();
            let perm = random_permutation(rng, f.n());
            assert!(!certified || routes(fabric, f, &inst, &perm));
            certified
        });
        assert!(est.wilson95().0 > 0.9, "eps={eps}: certified {est:?}");
    }
}

/// The `4^γ ≥ 34ν` scale-up is load-bearing: at ν = 2, F = 8, d = 8 and
/// ε = 0.02, raising γ from 1 to 2 (4× the grid rows) lifts
/// P[every grid keeps majority access] from 0.28 to 1.00.
#[test]
fn gamma_scaleup_lifts_grid_majority() {
    let model = FailureModel::symmetric(0.02);
    let ests: Vec<Estimate> = [1u32, 2]
        .into_iter()
        .map(|gamma| {
            let (fabric, f) = &ftn(2, 8, 8, (1 << (2 * gamma)) as f64 / 2.0);
            assert_eq!(f.params().gamma, gamma);
            let mut alive = Vec::new();
            estimate_probability(100, 0x12A, |rng| {
                let inst = FailureInstance::sample(&model, rng, f.net().num_edges());
                fabric.alive_mask_into(&inst, &mut alive);
                all_grids_majority(f, &alive).0
            })
        })
        .collect();
    assert!(
        ests[1].wilson95().0 > ests[0].wilson95().1,
        "gamma=1 {:?}, gamma=2 {:?}",
        ests[0],
        ests[1]
    );
}

/// §3's invariance: substituting an `(ε₂, ε₁)`-1-network for every
/// switch turns 10 %-failing switches into ones failing like 10⁻³
/// switches, so 𝒩 routes as on clean switches (1.000 vs 1.000) while
/// plain 𝒩 on the dirty switches does not (0 of 300). A substituted
/// switch is open exactly when its gadget disconnects and closed
/// exactly when the gadget shorts, independently per switch, so the
/// substituted network samples from the gadget's exact failure pair;
/// `tests/paper_constants.rs` checks that pair against Monte Carlo.
#[test]
fn substituted_gadget_restores_clean_routing() {
    let (eps_dirty, eps_clean) = (0.1, 1e-3);
    let gadget = construct_onenet(eps_dirty, eps_clean);
    assert_eq!((gadget.size(), gadget.depth()), (64, 8));
    let (fabric, f) = &ftn(1, 8, 8, 1.0);
    let carried = |model: FailureModel, seed: u64| {
        estimate_probability(300, seed, |rng| {
            carries_random_permutation(fabric, f, &model, rng)
        })
    };
    let clean = carried(FailureModel::symmetric(eps_clean), 0x13A);
    let dirty = carried(FailureModel::symmetric(eps_dirty), 0x13B);
    let substituted = carried(
        FailureModel::new(gadget.certified.p_open, gadget.certified.p_short),
        0x13C,
    );
    for (name, est) in [("clean", clean), ("substituted", substituted)] {
        assert!(est.wilson95().0 > 0.98, "{name}: {est:?}");
    }
    assert!(dirty.wilson95().1 < 0.05, "dirty: {dirty:?}");
}
