//! Simulation-engine kernels: event-loop throughput with and without
//! the temporal fault process.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_sim::{
    run_seed_obs, run_seed_with, Fabric, FaultSpec, HoldingTime, RerouteMode, RetryPolicy,
    Scenario, SimConfig, SimWorkspace, TrafficPattern,
};
use std::hint::black_box;

fn cfg_1k_calls() -> SimConfig {
    SimConfig {
        arrival_rate: 10.0,
        holding: HoldingTime::Exponential { mean: 1.0 },
        pattern: TrafficPattern::Uniform,
        fault_rate: 0.0,
        fault_open_share: 0.5,
        mttr: 0.0,
        duration: 100.0, // ≈ 1000 arrivals
        warmup: 0.0,
        buckets: 10,
        ..SimConfig::default()
    }
}

/// Pure event-loop churn: ~1000 arrivals plus their hangups on a
/// strict Clos, no faults — the engine overhead per call. This (and
/// every other `run_seed_with` bench here) exercises the no-op
/// [`ft_obs::Observer`] path: emission sites are monomorphized away,
/// so these numbers ARE the disabled-observer cost the gate pins.
fn bench_sim_churn(c: &mut Criterion) {
    let fabric = Fabric::clos_strict(4, 4);
    let cfg = cfg_1k_calls();
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("sim_churn_1k_calls", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_seed_with(&fabric, &cfg, seed, &mut ws))
        })
    });
}

/// The 1k-call churn with a live NDJSON trace observer: what `ftsim
/// --trace` pays over the no-op path. Each iteration renders one seed
/// into a fresh `TraceBuf`, as a traced sweep does per seed.
fn bench_sim_churn_traced(c: &mut Criterion) {
    let fabric = Fabric::clos_strict(4, 4);
    let cfg = cfg_1k_calls();
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("sim_churn_1k_calls_traced", |b| {
        b.iter(|| {
            seed += 1;
            let mut buf = ft_obs::TraceBuf::new();
            buf.begin_seed(seed);
            let out = run_seed_obs(&fabric, &cfg, seed, &mut ws, &mut buf);
            black_box((out, buf.lines()))
        })
    });
}

/// The same workload with the temporal fault process on: every fault
/// and repair recomputes the §4 alive mask and reapplies it.
fn bench_sim_churn_faulty(c: &mut Criterion) {
    let fabric = Fabric::clos_strict(4, 4);
    let mut cfg = cfg_1k_calls();
    cfg.fault_rate = 0.002;
    cfg.mttr = 10.0;
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("sim_churn_1k_calls_faulty", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_seed_with(&fabric, &cfg, seed, &mut ws))
        })
    });
}

/// Heavy-traffic configuration: ~100 000 arrivals under a hotspot
/// pattern on the ν = 2 fault-tolerant network 𝒩 (19 424 switches) —
/// the regime where per-event O(V + E) recomputation used to dominate
/// and the incremental fault path plus the O(path) route search pay
/// off.
fn cfg_100k_calls() -> SimConfig {
    SimConfig {
        arrival_rate: 100.0,
        holding: HoldingTime::Exponential { mean: 0.08 },
        pattern: TrafficPattern::Hotspot {
            hot_fraction: 0.25,
            p_hot: 0.5,
        },
        fault_rate: 0.0,
        fault_open_share: 0.5,
        mttr: 0.0,
        duration: 1000.0, // ≈ 100 000 arrivals
        warmup: 0.0,
        buckets: 10,
        ..SimConfig::default()
    }
}

fn ftn_nu2() -> Fabric {
    Fabric::ftn_reduced(2, 8, 8, 1.0)
}

/// 100k-arrival hotspot run on 𝒩 (ν = 2), fault-free: routing and
/// event-loop throughput at scale.
fn bench_sim_churn_100k(c: &mut Criterion) {
    let fabric = ftn_nu2();
    let cfg = cfg_100k_calls();
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("sim_churn_100k_calls", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_seed_with(&fabric, &cfg, seed, &mut ws))
        })
    });
}

/// The same heavy run with a hot temporal fault process (~2 faults per
/// time unit, quick repairs): every fault/repair event exercises the
/// incremental repair-mask/kill/occupancy path on a 19 424-switch
/// fabric, where the old from-scratch recompute was O(V + E) per event.
fn bench_sim_churn_100k_faulty(c: &mut Criterion) {
    let fabric = ftn_nu2();
    let mut cfg = cfg_100k_calls();
    cfg.fault_rate = 1e-4; // aggregate ≈ 1.9 faults per time unit
    cfg.mttr = 1.0;
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("sim_churn_100k_calls_faulty", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_seed_with(&fabric, &cfg, seed, &mut ws))
        })
    });
}

/// Group-storm recovery: storms repeatedly take out the middle switch
/// stage of a strict Clos mid-run while calls churn, with backoff
/// retries and admission shedding reacting — the mass-kill /
/// mass-reroute path (stage sweep, victim collection, retry events,
/// repair-driven revival) end to end.
fn storm_cfg() -> SimConfig {
    let mut cfg = cfg_1k_calls();
    cfg.faults = FaultSpec::Storm {
        rate: 0.05,
        window: 2.0,
        stage: Some(2),
    };
    cfg.retry = RetryPolicy::Backoff {
        budget: 4,
        base: 0.25,
        shed_depth: 64,
    };
    cfg.mttr = 5.0;
    cfg
}

fn bench_reroute_storm(c: &mut Criterion) {
    let fabric = Fabric::clos_strict(4, 4);
    let cfg = storm_cfg();
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("reroute_storm", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_seed_with(&fabric, &cfg, seed, &mut ws))
        })
    });
}

/// The identical storm workload with the min-cost reroute planner: each
/// kill wave places its victims one by one in kill order, each on a
/// cheapest idle path found by Dijkstra with potentials over the live
/// fabric's vertex split, so this measures the planner against greedy
/// `reroute_storm` above. On this unit-staged fabric every path costs
/// the same: the planners differ in their tie-break and in booking
/// failed probes, not in how many victims they save.
fn bench_reroute_storm_mincost(c: &mut Criterion) {
    let fabric = Fabric::clos_strict(4, 4);
    let mut cfg = storm_cfg();
    cfg.reroute = RerouteMode::Mincost;
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("reroute_storm_mincost", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_seed_with(&fabric, &cfg, seed, &mut ws))
        })
    });
}

/// `studies/storm_recovery.ftexp`'s `ftn 2 4 4 1.0` × `storm 0.1 2` ×
/// `mincost` cell, one seed per iteration: the planner on a 5,600-switch
/// fabric, where any per-wave pass over the whole fabric would show.
fn bench_reroute_storm_mincost_ftn_nu2(c: &mut Criterion) {
    let scenario = Scenario::parse(
        "network = ftn 2 4 4 1.0
         arrival_rate = 4.0
         holding = exp 1.0
         fault_rate = 0
         fault_open_share = 0.5
         mttr = 3
         retry = budget 3 backoff 0.5 shed 16
         duration = 120
         warmup = 5
         buckets = 1
         faults = storm 0.1 2
         reroute = mincost",
    )
    .expect("storm_recovery cell parses");
    let fabric = scenario.fabric.build();
    let mut ws = SimWorkspace::default();
    let mut seed = 0u64;
    c.bench_function("reroute_storm_mincost_ftn_nu2", |b| {
        b.iter(|| {
            seed += 1;
            black_box(run_seed_with(&fabric, &scenario.config, seed, &mut ws))
        })
    });
}

criterion_group!(
    benches,
    bench_sim_churn,
    bench_sim_churn_traced,
    bench_sim_churn_faulty,
    bench_sim_churn_100k,
    bench_sim_churn_100k_faulty,
    bench_reroute_storm,
    bench_reroute_storm_mincost,
    bench_reroute_storm_mincost_ftn_nu2
);
criterion_main!(benches);
