//! Baseline behaviour pinning: the §2 cast acts the way the paper's
//! comparison needs them to.

use fault_tolerant_switching::core::lowerbound::{short_terminal_paths, zone_audit_with};
use fault_tolerant_switching::core::theory;
use fault_tolerant_switching::failure::contraction::terminals_shorted;
use fault_tolerant_switching::failure::montecarlo::estimate_probability;
use fault_tolerant_switching::failure::{Estimate, FailureInstance, FailureModel};
use fault_tolerant_switching::graph::distance::nearest_other_terminal;
use fault_tolerant_switching::graph::gen::{random_permutation, rng};
use fault_tolerant_switching::graph::{Digraph, StagedNetwork};
use fault_tolerant_switching::networks::verify::{
    churn_finds_blocking, verify_rearrangeable_exhaustive,
};
use fault_tolerant_switching::networks::{Benes, Butterfly, CircuitRouter, Clos};
use fault_tolerant_switching::sim::FabricSpec;

/// P[two inputs of `net` short] with only closed failures at rate
/// `eps_close`, over `trials` seeded trials.
fn input_short_estimate(net: &StagedNetwork, eps_close: f64, trials: u64) -> Estimate {
    let model = FailureModel::new(0.0, eps_close);
    let m = net.num_edges();
    estimate_probability(trials, 0xE3, |rng| {
        terminals_shorted(
            net.graph(),
            &FailureInstance::sample(&model, rng, m),
            net.inputs(),
        )
    })
}

#[test]
fn benes_is_rearrangeable() {
    // exhaustively for n = 4; looping algorithm for larger samples
    let b = Benes::new(2);
    assert!(verify_rearrangeable_exhaustive(&b.net).is_ok());
    let b = Benes::new(4);
    let mut r = rng(1);
    for _ in 0..20 {
        let perm = random_permutation(&mut r, 16);
        let paths = b.route_permutation(&perm);
        assert_eq!(paths.len(), 16);
        // vertex-disjointness
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            for &v in p {
                assert!(seen.insert(v), "looping paths overlap at {v:?}");
            }
        }
    }
}

#[test]
fn benes_is_not_strictly_nonblocking() {
    // greedy + churn adversary must find a blocking state
    let b = Benes::new(2);
    let mut r = rng(0x1234);
    assert!(
        churn_finds_blocking(&b.net, 50, 100, &mut r),
        "Benes should block greedy churn"
    );
}

#[test]
fn strict_clos_never_blocks() {
    let c = Clos::strictly_nonblocking(3, 3);
    let mut r = rng(0x4321);
    assert!(
        !churn_finds_blocking(&c.net, 20, 200, &mut r),
        "strict Clos must not block"
    );
}

#[test]
fn butterfly_unique_paths_are_paths() {
    let bf = Butterfly::new(4);
    for x in 0..16u32 {
        for y in [0u32, 5, 15] {
            let p = bf.unique_path(x, y);
            assert_eq!(p.len(), 5, "k+1 link stages input→output");
            for w in p.windows(2) {
                assert!(
                    bf.net.graph().has_edge(w[0], w[1]),
                    "unique path skips an edge"
                );
            }
        }
    }
}

#[test]
fn baseline_inputs_are_close_together() {
    // Lemma 2's premise: O(n log n) networks have inputs at O(1)
    // distance
    for k in [3u32, 4, 5] {
        let b = Benes::new(k);
        let d = nearest_other_terminal(b.net.graph(), b.net.inputs());
        assert!(d.iter().all(|&x| x <= 2), "Benes inputs not close: {d:?}");
        let bf = Butterfly::new(k);
        let d = nearest_other_terminal(bf.net.graph(), bf.net.inputs());
        assert!(d.iter().all(|&x| x <= 2));
    }
}

#[test]
fn baselines_have_no_good_inputs_at_threshold_4() {
    for k in [4u32, 5] {
        let b = Benes::new(k);
        let audit = zone_audit_with(b.net.graph(), b.net.inputs(), 4, 2);
        assert_eq!(audit.good_terminals, 0);
    }
}

#[test]
fn lemma2_pipeline_extracts_disjoint_short_paths_on_benes() {
    let b = Benes::new(4); // n = 16
    let r = short_terminal_paths(b.net.graph(), b.net.inputs(), 4);
    assert!(
        r.paths.len() >= 16usize.div_ceil(84),
        "expected ≥ ⌈n/84⌉ paths, got {}",
        r.paths.len()
    );
    assert!(r.max_len <= 12, "paths too long: {}", r.max_len);
    let mut used = std::collections::HashSet::new();
    for p in &r.paths {
        assert_ne!(p.ends.0, p.ends.1);
        for &e in &p.host_edges {
            assert!(used.insert(e), "paths share a host edge");
        }
    }
}

#[test]
fn ftn_inputs_are_all_good_at_threshold_4() {
    // Theorem 1's structure, present in 𝒩: every input is good and
    // every zone out to h = 2 holds the 32 switches of its grid fan
    for nu in [1u32, 2] {
        let fabric = FabricSpec::Ftn(nu, 8, 8, 1.0).build();
        let net = fabric.net();
        let audit = zone_audit_with(net.graph(), net.inputs(), 4, 2);
        assert_eq!(audit.good_terminals, net.inputs().len(), "nu={nu}");
        assert_eq!(audit.min_zone_edges, Some(32), "nu={nu}");
    }
}

#[test]
fn shorting_at_quarter_rises_with_n_on_benes_and_butterfly() {
    // Lemma 2 on both O(n log n) baselines: its pipeline pairs every
    // input with another through ≤ 3 switches, no-short is at most
    // (1 − ε₂^len)^paths, and P[short] at ε₂ = ¼ climbs with n (Beneš
    // 0.47 at n = 8, 0.99 at n = 64)
    for name in ["benes", "butterfly"] {
        let mut below: Option<Estimate> = None;
        for k in 3..=6u32 {
            let net = match name {
                "benes" => Benes::new(k).net,
                _ => Butterfly::new(k).net,
            };
            let n = 1usize << k;
            let max_j = theory::lemma2_distance_threshold(n).ceil() as u32 + 2;
            let l2 = short_terminal_paths(net.graph(), net.inputs(), max_j);
            assert!(l2.paths.len() >= n / 2 && l2.max_len <= 3, "{name}({n})");
            let est = input_short_estimate(&net, 0.25, 2000);
            let (lo, hi) = est.wilson95();
            let bound = theory::lemma2_no_short_probability(l2.paths.len(), l2.max_len, 0.25);
            assert!(
                1.0 - hi <= bound,
                "{name}({n}): no-short above {bound}, {est:?}"
            );
            if let Some(prev) = below {
                assert!(lo > prev.wilson95().1, "{name}({n}) {est:?} vs {prev:?}");
            }
            below = Some(est);
        }
    }
}

#[test]
fn ftn_vs_benes_input_shorting_crossover() {
    // 𝒩 (reduced ν = 2) against Beneš(16), inputs only. At ε₂ ≤ 0.02
    // 𝒩's inputs short in none of 1000 trials. At ε₂ = 0.1 𝒩 shorts
    // *more* than Beneš (0.80 vs 0.16): with 87× the switches it offers
    // far more closed paths. At 0.02 the two are not separable in 1000
    // trials (0 vs 5 events), so no order is claimed there.
    let ftn = FabricSpec::Ftn(2, 8, 8, 1.0).build();
    let benes = FabricSpec::Benes(4).build();
    for eps2 in [0.005, 0.02] {
        let est = input_short_estimate(ftn.net(), eps2, 1000);
        assert!(est.wilson95().1 <= 0.01, "eps2={eps2}: {est:?}");
    }
    let ftn_est = input_short_estimate(ftn.net(), 0.1, 1000);
    let benes_est = input_short_estimate(benes.net(), 0.1, 1000);
    assert!(
        ftn_est.wilson95().0 > benes_est.wilson95().1,
        "N {ftn_est:?} vs Benes {benes_est:?}"
    );
}

#[test]
fn benes_shorts_with_high_probability_at_quarter() {
    // Lemma 2's conclusion, empirically: ε₂ = ¼ shorts two inputs of a
    // Beneš with probability ≥ ½ for n ≥ 32
    let b = Benes::new(5);
    let model = FailureModel::new(0.0, 0.25);
    let mut r = rng(9);
    let m = b.net.graph().num_edges();
    let mut shorted = 0;
    for _ in 0..200 {
        let inst = FailureInstance::sample(&model, &mut r, m);
        if terminals_shorted(b.net.graph(), &inst, b.net.inputs()) {
            shorted += 1;
        }
    }
    assert!(shorted >= 100, "only {shorted}/200 trials shorted");
}

#[test]
fn greedy_on_butterfly_blocks_even_fault_free() {
    // unique-path networks cannot carry arbitrary permutations as
    // circuits: greedy must fail on some random permutation
    let bf = Butterfly::new(4);
    let mut r = rng(11);
    let mut blocked = false;
    for _ in 0..20 {
        let mut router = CircuitRouter::new(&bf.net);
        let perm = random_permutation(&mut r, 16);
        for (x, &y) in perm.iter().enumerate() {
            if router
                .connect(bf.net.inputs()[x], bf.net.outputs()[y as usize])
                .is_err()
            {
                blocked = true;
            }
        }
    }
    assert!(blocked, "butterfly routed everything — suspicious");
}
