//! Injector determinism: every [`ft_sim::FaultInjector`] implementation
//! must keep the engine's byte-reproducibility contract — a fixed
//! `(scenario, seed)` pair yields the identical event stream (FNV
//! fingerprint), identical metrics, and identical sweep results
//! regardless of worker-thread count. The golden pins for one storm
//! seed and one targeted-adversary seed live in the workspace-level
//! `tests/determinism.rs`; these property tests cover the spec space
//! around them.

use ft_sim::{
    run_seed, run_sweep, Fabric, FabricSpec, FaultSpec, HoldingTime, RerouteMode, RetryPolicy,
    SimConfig, TrafficPattern,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The fabrics injectors are exercised on (built once; all support
/// faults).
fn fabrics() -> &'static Vec<Fabric> {
    static FABRICS: OnceLock<Vec<Fabric>> = OnceLock::new();
    FABRICS.get_or_init(|| {
        vec![
            FabricSpec::ClosStrict(2, 3).build(),
            FabricSpec::Benes(3).build(),
            FabricSpec::Multibutterfly(3, 2, 7).build(),
        ]
    })
}

/// Decodes integer knobs into one spec per injector implementation
/// (`kind` selects the implementation; the rest vary its parameters).
fn spec_from(kind: u64, rate_k: u64, span_k: u64, extra: u64) -> FaultSpec {
    let rate = rate_k as f64 / 100.0; // 0.01 .. 0.20
    let window = span_k as f64 / 4.0; // 0.0 .. 3.75
    match kind % 4 {
        0 => FaultSpec::Iid,
        1 => FaultSpec::Storm {
            rate,
            window,
            stage: [None, Some(1), Some(2)][(extra % 3) as usize],
        },
        2 => FaultSpec::Burst {
            rate,
            size: (extra % 5 + 1) as usize,
            window,
        },
        _ => FaultSpec::Targeted { rate },
    }
}

fn retry_from(kind: u64, budget: u64, base_k: u64, depth_sel: u64) -> RetryPolicy {
    if kind.is_multiple_of(2) {
        RetryPolicy::OnRepair
    } else {
        RetryPolicy::Backoff {
            budget: (budget % 5) as u32,
            base: base_k as f64 / 10.0 + 0.1, // 0.1 .. 2.0
            shed_depth: [0usize, 2, 16][(depth_sel % 3) as usize],
        }
    }
}

fn cfg_for(faults: FaultSpec, retry: RetryPolicy, reroute: RerouteMode) -> SimConfig {
    SimConfig {
        arrival_rate: 5.0,
        holding: HoldingTime::Exponential { mean: 1.0 },
        pattern: TrafficPattern::Uniform,
        // the i.i.d. process needs fault_rate; correlated injectors
        // carry their own rate and require fault_rate = 0
        fault_rate: if faults.is_iid() { 0.01 } else { 0.0 },
        mttr: 6.0,
        duration: 40.0,
        warmup: 5.0,
        buckets: 4,
        faults,
        retry,
        reroute,
        ..SimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ identical outcome (fingerprint, event count AND full
    /// metrics), for every injector × retry policy × fabric.
    #[test]
    fn every_injector_reproduces_its_stream(
        fkind in 0u64..4,
        rate_k in 1u64..20,
        span_k in 0u64..16,
        extra in 0u64..30,
        rkind in 0u64..2,
        budget in 0u64..10,
        base_k in 0u64..19,
        depth_sel in 0u64..3,
        seed in 0u64..10_000,
        fabric_idx in 0usize..3,
    ) {
        let faults = spec_from(fkind, rate_k, span_k, extra);
        let retry = retry_from(rkind, budget, base_k, depth_sel);
        let fabric = &fabrics()[fabric_idx];
        let cfg = cfg_for(faults, retry, RerouteMode::Greedy);
        let a = run_seed(fabric, &cfg, seed);
        let b = run_seed(fabric, &cfg, seed);
        prop_assert_eq!(&a, &b, "rerun diverged for {:?}", cfg.faults);
        // the identities the report leans on
        let m = &a.metrics;
        prop_assert_eq!(m.dropped, m.rerouted + m.abandoned);
        prop_assert!(m.shed <= m.abandoned);
        prop_assert!(m.degraded_time <= m.measured_time + 1e-9);
    }

    /// Sweep results must be independent of the worker-thread count for
    /// every injector, reroute planner and fabric: 1 vs 4 threads, same
    /// seeds, same bytes.
    #[test]
    fn sweeps_match_across_thread_counts(
        fkind in 0u64..4,
        rate_k in 1u64..20,
        span_k in 0u64..16,
        extra in 0u64..30,
        rkind in 0u64..2,
        budget in 0u64..10,
        base_k in 0u64..19,
        depth_sel in 0u64..3,
        reroute in 0usize..2,
        seed_base in 0u64..1_000,
        fabric_idx in 0usize..3,
    ) {
        let faults = spec_from(fkind, rate_k, span_k, extra);
        let retry = retry_from(rkind, budget, base_k, depth_sel);
        let fabric = &fabrics()[fabric_idx];
        let reroute = [RerouteMode::Greedy, RerouteMode::Mincost][reroute];
        let cfg = cfg_for(faults, retry, reroute);
        let seeds: Vec<u64> = (seed_base..seed_base + 4).collect();
        let serial = run_sweep(fabric, &cfg, &seeds, 1);
        let parallel = run_sweep(fabric, &cfg, &seeds, 4);
        prop_assert_eq!(serial, parallel, "thread count changed results for {:?}", cfg.faults);
    }
}

/// Storms and the adversary actually do what the scenario promises:
/// correlated kills show up as multi-fault episodes with nonzero
/// recovery metrics.
#[test]
fn storm_produces_episodes_and_recovery_metrics() {
    let fabric = FabricSpec::ClosStrict(2, 3).build();
    let cfg = cfg_for(
        FaultSpec::Storm {
            rate: 0.1,
            window: 2.0,
            stage: Some(2),
        },
        RetryPolicy::Backoff {
            budget: 3,
            base: 0.25,
            shed_depth: 4,
        },
        RerouteMode::Greedy,
    );
    let out = run_seed(&fabric, &cfg, 5);
    let m = &out.metrics;
    assert!(m.storms > 0, "no storm episode fired: {m:?}");
    assert!(
        m.faults > m.storms,
        "a stage storm should strike several switches per episode: {m:?}"
    );
    assert!(m.degraded_time > 0.0);
    assert!(m.recovery_count > 0, "no recovery episode completed: {m:?}");
    assert!(m.time_to_recover_mean() > 0.0);
    assert!(m.dropped_per_storm() > 0.0);
}

#[test]
fn targeted_adversary_prefers_loaded_switches() {
    let fabric = FabricSpec::ClosStrict(2, 3).build();
    let cfg = cfg_for(
        FaultSpec::Targeted { rate: 0.08 },
        RetryPolicy::OnRepair,
        RerouteMode::Greedy,
    );
    let out = run_seed(&fabric, &cfg, 11);
    let m = &out.metrics;
    assert!(m.faults > 0);
    // greedy max-damage: under steady traffic, most strikes cut a
    // live circuit — far above the uniform-random hit rate
    assert!(
        m.dropped as f64 >= 0.5 * m.faults as f64,
        "adversary barely hit circuits: dropped {} faults {}",
        m.dropped,
        m.faults
    );
}

/// The thread-count property above has teeth under `reroute = mincost`:
/// a fixed storm scenario actually reroutes circuits through the
/// min-cost planner, and its sweep is identical on 1 and 4 threads.
#[test]
fn mincost_storm_reroutes_and_matches_across_thread_counts() {
    let cfg = SimConfig {
        arrival_rate: 4.0,
        holding: HoldingTime::Exponential { mean: 0.8 },
        faults: FaultSpec::Storm {
            rate: 0.06,
            window: 2.0,
            stage: None,
        },
        reroute: RerouteMode::Mincost,
        mttr: 8.0,
        duration: 120.0,
        buckets: 4,
        ..SimConfig::default()
    };
    let seeds: Vec<u64> = (1..=6).collect();
    for fabric in [
        FabricSpec::ClosStrict(2, 3).build(),
        FabricSpec::Benes(3).build(),
    ] {
        let one = run_sweep(&fabric, &cfg, &seeds, 1);
        let rerouted: u64 = one.iter().map(|o| o.metrics.rerouted).sum();
        assert!(
            rerouted > 0,
            "{}: storm produced no reroutes",
            fabric.label()
        );
        assert_eq!(
            one,
            run_sweep(&fabric, &cfg, &seeds, 4),
            "{}",
            fabric.label()
        );
    }
}
