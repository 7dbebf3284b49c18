//! Simulation-engine kernels: event-loop throughput with and without
//! the temporal fault process, and the event queue and the NDJSON trace
//! renderer on a storm workload's own schedule and event stream.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_graph::ids::EdgeId;
use ft_obs::{Observer, TraceBuf, TraceEvent};
use ft_sim::{
    export_stream, run_seed_obs, run_seed_with, EventKind, EventQueue, Fabric, FabricSpec,
    FaultSpec, HoldingTime, RerouteMode, RetryPolicy, Scenario, SimConfig, SimWorkspace,
    StreamKind, TrafficPattern,
};
use std::collections::HashMap;
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
    let fabric = FabricSpec::ClosStrict(4, 4).build();
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
    let fabric = FabricSpec::ClosStrict(4, 4).build();
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
    let fabric = FabricSpec::ClosStrict(4, 4).build();
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
    FabricSpec::Ftn(2, 8, 8, 1.0).build()
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
    let fabric = FabricSpec::ClosStrict(4, 4).build();
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
    let fabric = FabricSpec::ClosStrict(4, 4).build();
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

/// The repo benchmark's `sim_clos_storm` scenario at a tenth of its
/// duration: stage storms on `clos-strict 4 4` under the retry/shed
/// ladder and the min-cost planner, ≈ 28 600 events at seed 1.
fn clos_storm() -> Scenario {
    let mut scenario = Scenario::parse(include_str!(
        "../../../benchmark/workloads/sim_clos_storm.ftsim"
    ))
    .expect("the sim_clos_storm scenario parses");
    scenario.config.duration /= 10.0;
    scenario
}

/// The seed-1 heap schedule of [`clos_storm`] on a bare `EventQueue`,
/// as `export_stream` draws it: at each connect or fault every event
/// due is popped, then the call's hangup or the switch's repair is
/// pushed, and the rest drains at the end. The queue traffic of the
/// engine without the engine (the open-loop stream has no retries and
/// no stale events).
fn bench_event_queue_storm_replay(c: &mut Criterion) {
    // (now, what to push once everything due by `now` has popped),
    // built backwards so each connect or fault meets its own hangup or
    // repair: the next one of the same call or switch.
    let mut hangup_at = HashMap::new();
    let mut repair_at = HashMap::new();
    let mut schedule: Vec<(f64, Option<(f64, EventKind)>)> = Vec::new();
    for ev in export_stream(&clos_storm(), 1).iter().rev() {
        match ev.kind {
            StreamKind::Disconnect { id } => {
                hangup_at.insert(id, ev.time);
            }
            StreamKind::Repair { switch } => {
                repair_at.insert(switch, ev.time);
            }
            StreamKind::Connect { id, .. } => {
                let slot = id as u32;
                let hangup = hangup_at.remove(&id);
                schedule.push((
                    ev.time,
                    hangup.map(|t| (t, EventKind::Hangup { slot, token: slot })),
                ));
            }
            StreamKind::Fault { switch, .. } => {
                let edge = EdgeId(switch);
                let repair = repair_at.remove(&switch);
                schedule.push((ev.time, repair.map(|t| (t, EventKind::Repair { edge }))));
            }
        }
    }
    schedule.reverse();
    let mut queue = EventQueue::new();
    c.bench_function("event_queue_storm_replay", |b| {
        b.iter(|| {
            queue.reset();
            for &(now, push) in &schedule {
                while queue.peek_time().is_some_and(|t| t <= now) {
                    black_box(queue.pop());
                }
                if let Some((t, kind)) = push {
                    queue.push(t, kind);
                }
            }
            while let Some(ev) = queue.pop() {
                black_box(ev);
            }
        })
    });
}

/// Copies an engine run's trace events out, for rendering later.
#[derive(Default)]
struct Recorder(Vec<(f64, u64, TraceEvent<'static>)>);

impl Observer for Recorder {
    fn event(&mut self, time: f64, seq: u64, ev: &TraceEvent<'_>) {
        // One recorded seed per bench process: its paths are leaked
        // rather than threaded through a lifetime.
        let keep = |path: &[u32]| -> &'static [u32] { Box::leak(path.into()) };
        let ev = match *ev {
            TraceEvent::Arrival { src, dst } => TraceEvent::Arrival { src, dst },
            TraceEvent::Connect {
                token,
                src,
                dst,
                path,
            } => TraceEvent::Connect {
                token,
                src,
                dst,
                path: keep(path),
            },
            TraceEvent::BusyReject { src, dst } => TraceEvent::BusyReject { src, dst },
            TraceEvent::Block { src, dst } => TraceEvent::Block { src, dst },
            TraceEvent::Hangup { token } => TraceEvent::Hangup { token },
            TraceEvent::Fault {
                switch,
                open,
                episode,
            } => TraceEvent::Fault {
                switch,
                open,
                episode,
            },
            TraceEvent::Kill { token, slot } => TraceEvent::Kill { token, slot },
            TraceEvent::Reroute {
                token,
                src,
                dst,
                ok,
                path,
            } => TraceEvent::Reroute {
                token,
                src,
                dst,
                ok,
                path: keep(path),
            },
            TraceEvent::Retry { token } => TraceEvent::Retry { token },
            TraceEvent::Shed { token, src, dst } => TraceEvent::Shed { token, src, dst },
            TraceEvent::Repair { switch } => TraceEvent::Repair { switch },
            TraceEvent::RecoveryClose { span } => TraceEvent::RecoveryClose { span },
        };
        self.0.push((time, seq, ev));
    }
}

/// [`clos_storm`]'s seed-1 trace events, recorded once and rendered per
/// iteration into one cleared `TraceBuf`: the NDJSON renderer alone,
/// on warm pages, without the engine around it.
fn bench_trace_render_storm(c: &mut Criterion) {
    let scenario = clos_storm();
    let fabric = scenario.fabric.build();
    let mut recorded = Recorder::default();
    run_seed_obs(
        &fabric,
        &scenario.config,
        1,
        &mut SimWorkspace::default(),
        &mut recorded,
    );
    let mut buf = TraceBuf::new();
    c.bench_function("trace_render_storm", |b| {
        b.iter(|| {
            buf.clear();
            buf.begin_seed(1);
            for (time, seq, ev) in &recorded.0 {
                buf.event(*time, *seq, ev);
            }
            black_box(buf.lines())
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
    bench_reroute_storm_mincost_ftn_nu2,
    bench_event_queue_storm_replay,
    bench_trace_render_storm
);
criterion_main!(benches);
