//! Validation of the simulation engine against closed-form and static
//! Monte Carlo references — the acceptance criteria of the ft-sim
//! subsystem:
//!
//! 1. fault-free low-load sanity: a strictly nonblocking fabric never
//!    reports path blocking, and offered-load sweeps move busy
//!    rejections monotonically;
//! 2. Erlang-B: a single-circuit fabric under Poisson arrivals
//!    reproduces `B(a, 1) = a / (1 + a)` (and, by Erlang insensitivity,
//!    does so for heavy-tailed holding times too);
//! 3. temporal/static cross-check: with per-switch failure rate λ and
//!    repair rate 1/mttr, the stationary per-switch unavailability is
//!    `u = λ / (λ + 1/mttr)`; by PASTA, arrival-observed blocking in
//!    the sim's steady state must match a static Monte Carlo estimate
//!    over `FailureInstance`s sampled at ε_total = u under the same
//!    repair discipline.

use ft_failure::montecarlo::estimate_probability;
use ft_failure::{FailureInstance, FailureModel};
use ft_graph::traversal::{bfs, Direction};
use ft_sim::{run_seed, FabricSpec, HoldingTime, SimConfig, TrafficPattern};
use rand::Rng;

fn cfg(arrival_rate: f64, duration: f64) -> SimConfig {
    SimConfig {
        arrival_rate,
        holding: HoldingTime::Exponential { mean: 1.0 },
        pattern: TrafficPattern::Uniform,
        fault_rate: 0.0,
        fault_open_share: 0.5,
        mttr: 0.0,
        duration,
        warmup: 0.0,
        buckets: 1,
        ..SimConfig::default()
    }
}

#[test]
fn strictly_nonblocking_fabric_has_zero_blocking_and_monotone_load_sweep() {
    let fabric = FabricSpec::ClosStrict(2, 3).build(); // 6 terminals, m = 3 = 2n−1
    let mut busy = Vec::new();
    for rate in [0.2, 2.0, 8.0, 32.0] {
        let out = run_seed(&fabric, &cfg(rate, 1000.0), 42);
        assert_eq!(
            out.metrics.blocked, 0,
            "strict Clos blocked at rate {rate}: {:?}",
            out.metrics
        );
        assert!(out.metrics.offered > 100);
        busy.push(out.metrics.busy_rejection());
    }
    // offered-load sweep: busy rejection grows with the load
    for w in busy.windows(2) {
        assert!(w[0] <= w[1], "busy rejection not monotone: {busy:?}");
    }
    assert!(busy[0] < 0.1, "low load should barely collide: {busy:?}");
    assert!(busy[3] > 0.5, "high load should saturate: {busy:?}");
}

#[test]
fn erlang_b_reference_on_a_single_circuit() {
    // crossbar 1: one input, one output, one switch — an M/M/1/1 loss
    // system. Offered load a = λ·h = 0.5 erlangs ⇒ B = 1/3.
    let fabric = FabricSpec::Crossbar(1).build();
    let mut c = cfg(0.5, 40_000.0);
    c.warmup = 100.0;
    let out = run_seed(&fabric, &c, 7);
    let sim_b = out.metrics.busy_rejection();
    let want = ft_sim::erlang_b(0.5, 1);
    assert!(
        (sim_b - want).abs() < 0.01,
        "sim {sim_b} vs Erlang-B {want} ({} arrivals)",
        out.metrics.offered
    );
    // carried load = a(1 − B)
    let carried = out.metrics.carried_erlangs();
    assert!(
        (carried - 0.5 * (1.0 - want)).abs() < 0.01,
        "carried {carried}"
    );

    // Erlang-B insensitivity: same blocking under heavy-tailed holding
    c.holding = HoldingTime::Pareto {
        shape: 2.5,
        mean: 1.0,
    };
    let heavy = run_seed(&fabric, &c, 7);
    assert!(
        (heavy.metrics.busy_rejection() - want).abs() < 0.015,
        "pareto holding broke insensitivity: {} vs {want}",
        heavy.metrics.busy_rejection()
    );
}

/// The temporal fault process against the static snapshot machinery.
///
/// Sim side: strict Clos under per-switch failure rate λ with repair
/// rate μ = 1/mttr, long run, sparse traffic (so terminal collisions
/// are negligible); arrival-observed blocking estimates the stationary
/// probability that a uniform random pair has no alive path (PASTA).
///
/// Static side: `estimate_probability` over fresh `FailureInstance`s at
/// ε_total = λ/(λ + μ) (the stationary unavailability of the two-state
/// Markov switch), alive mask by the same §4 discipline, BFS for the
/// same pair-blocking event.
#[test]
fn temporal_fault_blocking_matches_static_snapshot_estimate() {
    let fabric = FabricSpec::ClosStrict(2, 3).build();
    let net = fabric.net();
    let n = fabric.terminals();
    let lambda = 0.02; // per-switch failures per time unit
    let mttr = 5.0;
    let u = lambda / (lambda + 1.0 / mttr); // = 1/11 ≈ 0.0909

    // --- temporal estimate ---
    let sim_cfg = SimConfig {
        arrival_rate: 1.0,
        holding: HoldingTime::Exponential { mean: 0.02 },
        pattern: TrafficPattern::Uniform,
        fault_rate: lambda,
        fault_open_share: 0.5,
        mttr,
        duration: 4000.0,
        warmup: 100.0,
        buckets: 1,
        ..SimConfig::default()
    };
    let out = run_seed(&fabric, &sim_cfg, 2024);
    let m = &out.metrics;
    assert!(m.faults > 1000, "fault process too quiet: {}", m.faults);
    assert!(m.repairs > 1000);
    assert!(m.dropped > 0, "sessions should be killed by faults");
    assert_eq!(m.dropped, m.rerouted + m.abandoned);
    // sparse traffic: busy collisions must not contaminate the estimate
    assert!(m.busy_rejection() < 0.01, "{:?}", m.busy_rejection());
    let sim_p = m.blocking_probability();

    // --- static estimate at the stationary unavailability ---
    let model = FailureModel::new(u / 2.0, u / 2.0);
    let est = estimate_probability(40_000, 99, |rng| {
        let inst = FailureInstance::sample(&model, rng, net.size());
        let alive = fabric.alive_mask(&inst);
        let i = rng.random_range(0..n);
        let o = rng.random_range(0..n);
        let b = bfs(
            net.graph(),
            &[net.inputs()[i]],
            Direction::Forward,
            |_| true,
            |v| alive[v.index()],
        );
        !b.reached(net.outputs()[o])
    });
    let static_p = est.p();

    // Both estimators are deterministic per seed; the sim's effective
    // sample count (~duration/mttr mask regenerations) dominates the
    // tolerance.
    assert!(
        (sim_p - static_p).abs() < 0.03,
        "temporal {sim_p} vs static {static_p} (u = {u})"
    );
    // and both see a clearly nonzero blocking signal at this ε
    assert!(static_p > 0.05, "static {static_p} too small to compare");
    assert!(sim_p > 0.05, "sim {sim_p} too small to compare");
}

/// Permanent faults (no repair): the expected number of failed switches
/// after time T is `m·(1 − e^{−λT})`, the same marginal a static
/// snapshot at ε_total = 1 − e^{−λT} samples.
#[test]
fn permanent_fault_count_matches_static_marginal() {
    let fabric = FabricSpec::ClosStrict(2, 3).build();
    let m = fabric.net().size() as f64;
    let lambda = 0.001f64;
    let t_end = 200.0f64;
    let expect = m * (1.0 - (-lambda * t_end).exp());
    let mut counts = Vec::new();
    for seed in 0..20 {
        let mut c = cfg(0.5, t_end);
        c.fault_rate = lambda;
        let out = run_seed(&fabric, &c, seed);
        assert_eq!(out.metrics.repairs, 0);
        counts.push(out.metrics.faults as f64);
    }
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    // std of one run ≈ sqrt(expect); 20 seeds tighten it ~4.5x
    let tol = 3.0 * (expect / 20.0).sqrt();
    assert!(
        (mean - expect).abs() < tol,
        "mean faults {mean} vs expected {expect} ± {tol}"
    );
}
