//! The `sim_*` workloads: the `ftsim` engine run seed after seed on one
//! `SimWorkspace`, as a sweep worker runs it. A rep is one seed (see
//! [`Reps`] for what is reported from them). Host time only: the simulated
//! statistics are printed per seed (fingerprint, events, outcomes) so
//! two commits compare them exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ft_obs::{Hist, TraceBuf};
use ft_sim::{
    export_stream, run_seed_obs, run_seed_with, EventKind, EventQueue, Fabric, RerouteMode,
    Scenario, SeedOutcome, SimConfig, SimWorkspace, StreamKind,
};

use crate::alloc::allocations;
use crate::bare::Bare;
use crate::report::Outcome;
use crate::reps::Reps;
use crate::spans::{SpanLog, NO_REQUEST, ROOT};
use crate::{setup_repeatedly, Layers, Run};

/// Draws of the workload-draw rung and records of the histogram rung.
const MICRO_ITERS: u32 = 1_000_000;
/// The priming run of set-up simulates this share of the scenario.
const PRIME_SHARE: f64 = 100.0;
/// Timed runs of one seed per rung of the traced run.
const TIMED_RUNS: u32 = 3;

/// One `sim_*` workload.
pub struct SimWorkload {
    /// Scenario text (`benchmark/workloads/*.ftsim`).
    pub scenario: &'static str,
    /// Run through `run_seed_obs` with a `TraceBuf`.
    pub traced: bool,
}

struct Ready {
    scenario: Scenario,
    fabric: Fabric,
    ws: SimWorkspace,
}

/// What `setup_s` covers: parse the scenario, build the fabric and its
/// CSR, make a workspace, and prime it with the scenario at
/// 1/[`PRIME_SHARE`] of its duration — the run in which the workspace's
/// buffers grow to their working size, as a sweep worker's first seed
/// does. Without the priming run the small fabric's set-up is 13 or
/// 21 µs depending on the state of the process's heap, a coin that ten
/// runs do not average out; with it set-up is what a worker really pays
/// before its first result, and the coin is 1 % of it.
fn ready(text: &str) -> Result<Ready, String> {
    let scenario = Scenario::parse(text)?;
    let fabric = scenario.fabric.build();
    fabric.net().csr();
    let mut ws = SimWorkspace::default();
    let prime = SimConfig {
        duration: scenario.config.duration / PRIME_SHARE,
        warmup: 0.0,
        ..scenario.config.clone()
    };
    black_box(run_seed_with(&fabric, &prime, 0, &mut ws));
    Ok(Ready {
        scenario,
        fabric,
        ws,
    })
}

/// The `k`-th simulation seed of benchmark seed `seed`.
fn sim_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_shl(20).wrapping_add(k)
}

/// One seed the way the workload runs it. A traced seed builds and
/// drops its NDJSON buffer, as `run_sweep_traced` does per seed.
fn one_seed(r: &mut Ready, cfg: &SimConfig, traced: bool, seed: u64) -> (SeedOutcome, u64) {
    if traced {
        let mut buf = TraceBuf::new();
        buf.begin_seed(seed);
        let out = run_seed_obs(&r.fabric, cfg, seed, &mut r.ws, &mut buf);
        let bytes = black_box(buf.as_str()).len() as u64;
        (out, bytes)
    } else {
        (run_seed_with(&r.fabric, cfg, seed, &mut r.ws), 0)
    }
}

/// Calls the engine refused or lost for good, over calls offered.
fn failed_share(o: &SeedOutcome) -> f64 {
    (o.metrics.blocked + o.metrics.abandoned) as f64 / o.metrics.offered.max(1) as f64
}

fn print_seed(name: &str, o: &SeedOutcome) {
    let m = &o.metrics;
    println!(
        "fingerprint {name} seed={} fp={:016x} events={} offered={} connected={} blocked={} dropped={} rerouted={} abandoned={}",
        o.seed, o.fingerprint, o.events, m.offered, m.connected, m.blocked, m.dropped, m.rerouted, m.abandoned
    );
}

/// The output checks of one seed against the reference run of the same
/// seed. Returns the failed checks.
fn check_seed(o: &SeedOutcome, reference: Option<&SeedOutcome>) -> Vec<String> {
    let mut bad = Vec::new();
    if o.metrics.dropped != o.metrics.rerouted + o.metrics.abandoned {
        bad.push(format!("seed {}: dropped != rerouted + abandoned", o.seed));
    }
    if let Some(r) = reference {
        if (o.fingerprint, o.events) != (r.fingerprint, r.events) || o.metrics != r.metrics {
            bad.push(format!(
                "seed {}: a second run of the seed gave another event stream",
                o.seed
            ));
        }
    }
    bad
}

/// The run without benchmark spans: end-to-end metrics only.
pub fn run(w: &SimWorkload, name: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let (setup_s, mut r) = setup_repeatedly(|| ready(w.scenario), |_| Ok(()))?;
    let cfg = r.scenario.config.clone();
    // Warm-up, and the reference the first measured seed must
    // reproduce: always through the plain engine, so a traced workload
    // also proves its observer changes nothing.
    let reference = run_seed_with(&r.fabric, &cfg, sim_seed(seed, 0), &mut r.ws);

    let mut reps = Reps::begin()?;
    let mut offered = 0u64;
    let mut failed_checks = Vec::new();
    let window = Instant::now();
    while window.elapsed() < Duration::from_secs(seconds) {
        let k = reps.len() as u64;
        let start = Instant::now();
        let (o, _) = one_seed(&mut r, &cfg, w.traced, sim_seed(seed, k));
        let wall = start.elapsed();
        reps.push(o.events as f64, wall, wall.as_secs_f64() * 1e6)?;
        offered += o.metrics.offered;
        print_seed(name, &o);
        println!(
            "rep {name} {k} events_per_s={:.0}",
            o.events as f64 / wall.as_secs_f64()
        );
        failed_checks.extend(check_seed(&o, (k == 0).then_some(&reference)));
    }
    let (metrics, validity) = reps.finish(setup_s, 0.0)?;
    for check in &failed_checks {
        println!("check failed {name}: {check}");
    }
    Ok(Run {
        outcome: Outcome {
            correct: failed_checks.is_empty(),
            attempted: offered,
            failed: 0,
            metrics,
        },
        validity,
    })
}

/// Runs `seed` once to warm the workspace, then [`TIMED_RUNS`] times
/// inside a span, and returns the fastest timed run: its outcome, wall
/// ns, allocation count and trace bytes. Fastest, because the engine is
/// single-threaded and deterministic, so interference only ever adds.
fn timed_seed(
    log: &mut SpanLog,
    span: &'static str,
    rung: u32,
    r: &mut Ready,
    cfg: &SimConfig,
    traced: bool,
    seed: u64,
) -> (SeedOutcome, f64, u64, u64) {
    let mut fastest = (one_seed(r, cfg, traced, seed).0, f64::INFINITY, 0, 0);
    for _ in 0..TIMED_RUNS {
        let allocs = allocations();
        let ((o, bytes), ns) = log.time(span, rung, seed, || one_seed(r, cfg, traced, seed));
        if ns < fastest.1 {
            fastest = (o, ns, allocations() - allocs, bytes);
        }
    }
    fastest
}

/// Replays the seed's exported stream on [`Bare`]: router and tracker
/// work of a comparable schedule, with no engine around it.
fn replay_rung(log: &mut SpanLog, r: &Ready, seed: u64) -> f64 {
    let stream = export_stream(&r.scenario, seed);
    let mut bare = Bare::new(&r.fabric);
    let ((), ns) = log.time("ft-networks.replay", ROOT, seed, || {
        for ev in &stream {
            match ev.kind {
                // The stream is open loop: a busy terminal or a blocked
                // pair is part of it, as it is for the engine.
                StreamKind::Connect { id, src, dst } => drop(bare.connect(id, src, dst)),
                StreamKind::Disconnect { id } => drop(bare.disconnect(id)),
                StreamKind::Fault { switch, .. } => {
                    bare.fail_edge(switch);
                    bare.kill_wave();
                }
                StreamKind::Repair { switch } => {
                    bare.repair_edge(switch);
                    bare.revive();
                }
            }
        }
    });
    ns / stream.len().max(1) as f64
}

/// A bare `EventQueue` fed the seed's hangup schedule: at each arrival
/// time everything due is popped, then the call's hangup is pushed —
/// the heap traffic of the engine without the engine.
fn queue_rung(log: &mut SpanLog, r: &Ready, seed: u64) -> f64 {
    let stream = export_stream(&r.scenario, seed);
    let mut hangup_at = std::collections::HashMap::new();
    for ev in &stream {
        if let StreamKind::Disconnect { id } = ev.kind {
            hangup_at.insert(id, ev.time);
        }
    }
    let mut queue = EventQueue::new();
    let mut moved = 0u64;
    let ((), ns) = log.time("ft-sim.events.queue", ROOT, seed, || {
        for ev in &stream {
            let StreamKind::Connect { id, .. } = ev.kind else {
                continue;
            };
            while queue.peek_time().is_some_and(|t| t <= ev.time) {
                black_box(queue.pop());
                moved += 1;
            }
            if let Some(&t) = hangup_at.get(&id) {
                queue.push(
                    t,
                    EventKind::Hangup {
                        slot: id as u32,
                        token: id as u32,
                    },
                );
                moved += 1;
            }
        }
    });
    ns / moved.max(1) as f64
}

/// The three draws the engine makes per arrival.
fn draw_rung(log: &mut SpanLog, r: &Ready, seed: u64) -> f64 {
    let cfg = &r.scenario.config;
    let n = r.fabric.terminals();
    let mut rng = ft_graph::gen::rng(seed);
    let ((), ns) = log.time("ft-sim.workload.draw", ROOT, seed, || {
        for _ in 0..MICRO_ITERS {
            black_box(cfg.pattern.sample_pair(&mut rng, n, &[]));
            black_box(cfg.holding.sample(&mut rng));
            black_box(ft_sim::workload::exp_draw(&mut rng, 1.0 / cfg.arrival_rate));
        }
    });
    ns / f64::from(MICRO_ITERS)
}

fn hist_rung(log: &mut SpanLog) -> f64 {
    let mut hist = Hist::new();
    let ((), ns) = log.time("ft-obs.hist_record", ROOT, NO_REQUEST, || {
        for i in 0..MICRO_ITERS {
            hist.record(f64::from(i % 97));
        }
    });
    black_box(hist.count());
    ns / f64::from(MICRO_ITERS)
}

/// The traced run: one seed, taken apart.
pub fn ladder(
    w: &SimWorkload,
    name: &str,
    seed: u64,
    log: &mut SpanLog,
) -> Result<(Outcome, Layers), String> {
    let mut out = Vec::new();
    let t = Instant::now();
    let scenario = Scenario::parse(w.scenario)?;
    let fabric = scenario.fabric.build();
    out.push(("ft-core.build_ns", t.elapsed().as_nanos() as f64));
    let t = Instant::now();
    fabric.net().csr();
    out.push(("ft-graph.csr_build_ns", t.elapsed().as_nanos() as f64));
    let mut r = Ready {
        scenario,
        fabric,
        ws: SimWorkspace::default(),
    };
    let cfg = r.scenario.config.clone();
    let s0 = sim_seed(seed, 0);

    let rung = log.open("rung.engine", ROOT);
    let (o, ns, allocs, _) = timed_seed(log, "ft-sim.run_seed_with", rung, &mut r, &cfg, false, s0);
    log.close(rung);
    let events = o.events as f64;
    let ns_per_event = ns / events;
    print_seed(name, &o);
    out.push(("ft-sim.engine.ns_per_event", ns_per_event));
    out.push(("ft-sim.events_per_seed", events));
    out.push(("ft-sim.allocs_per_event", allocs as f64 / events));
    out.push(("ft-sim.failed_share", failed_share(&o)));
    out.push((
        "ft-graph.bibfs_pops_per_call",
        o.kernel.bibfs_pops as f64 / o.metrics.offered.max(1) as f64,
    ));

    let replay = replay_rung(log, &r, s0);
    out.push(("ft-networks.replay_ns_per_event", replay));
    out.push(("ft-sim.engine.self_ns_per_event", ns_per_event - replay));
    out.push(("ft-sim.events.queue_ns_per_event", queue_rung(log, &r, s0)));
    out.push(("ft-sim.workload.draw_ns_per_call", draw_rung(log, &r, s0)));

    if cfg.reroute == RerouteMode::Mincost {
        let greedy = SimConfig {
            reroute: RerouteMode::Greedy,
            ..cfg.clone()
        };
        let rung = log.open("rung.engine_greedy", ROOT);
        let (g, g_ns, _, _) = timed_seed(
            log,
            "ft-sim.run_seed_with",
            rung,
            &mut r,
            &greedy,
            false,
            s0,
        );
        log.close(rung);
        out.push((
            "ft-sim.engine.mincost_extra_ns_per_event",
            ns_per_event - g_ns / g.events as f64,
        ));
    }

    let mut failed_checks = check_seed(&o, None);
    if w.traced {
        let rung = log.open("rung.engine_traced", ROOT);
        let (t, t_ns, _, bytes) =
            timed_seed(log, "ft-sim.run_seed_obs", rung, &mut r, &cfg, true, s0);
        log.close(rung);
        failed_checks.extend(check_seed(&t, Some(&o)));
        out.push(("ft-obs.trace_ns_per_event", (t_ns - ns) / events));
        out.push(("ft-obs.trace_bytes_per_event", bytes as f64 / events));
        out.push(("ft-obs.hist_record_ns", hist_rung(log)));
    }

    // The same top rung with no span around it: what the ladder costs.
    let (_, spanned_ns, _, _) =
        timed_seed(log, "ft-sim.top_rung", ROOT, &mut r, &cfg, w.traced, s0);
    let mut bare_ns = f64::INFINITY;
    for _ in 0..TIMED_RUNS {
        let t = Instant::now();
        let (again, _) = one_seed(&mut r, &cfg, w.traced, s0);
        bare_ns = bare_ns.min(t.elapsed().as_nanos() as f64);
        failed_checks.extend(check_seed(&again, Some(&o)));
    }
    out.push(("ladder_overhead_ratio", spanned_ns / bare_ns));

    for check in &failed_checks {
        println!("check failed {name}: {check}");
    }
    Ok((
        Outcome {
            correct: failed_checks.is_empty(),
            attempted: o.metrics.offered,
            failed: 0,
            metrics: Vec::new(),
        },
        out,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "network = clos-strict 2 2\nfaults = storm 0.1 1 2\nretry = budget 2 backoff 0.5 shed 8\nmttr = 2\nduration = 200\n";

    #[test]
    fn a_traced_seed_reproduces_the_untraced_one() {
        let mut r = ready(SMALL).unwrap();
        let cfg = r.scenario.config.clone();
        let (plain, no_bytes) = one_seed(&mut r, &cfg, false, 5);
        let (traced, bytes) = one_seed(&mut r, &cfg, true, 5);
        assert_eq!(no_bytes, 0);
        assert!(bytes > 0);
        assert_eq!(check_seed(&traced, Some(&plain)), Vec::<String>::new());
        let (other, _) = one_seed(&mut r, &cfg, false, 6);
        assert_eq!(check_seed(&other, Some(&plain)).len(), 1);
    }

    #[test]
    fn the_shipped_scenarios_parse() {
        for text in [
            include_str!("../workloads/sim_ftn_hotspot.ftsim"),
            include_str!("../workloads/sim_clos_storm.ftsim"),
        ] {
            Scenario::parse(text).unwrap();
        }
    }

    #[test]
    fn simulation_seeds_do_not_collide_across_benchmark_seeds() {
        assert_ne!(sim_seed(1, 0), sim_seed(2, 0));
        assert_ne!(sim_seed(1, 1), sim_seed(1, 2));
        assert_eq!(sim_seed(3, 4), (3 << 20) + 4);
    }
}
