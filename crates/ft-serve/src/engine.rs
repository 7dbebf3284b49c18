//! The single-writer engine thread.
//!
//! All routing state — one [`SwitchingCore`], the same router, failure
//! states, §4 repair mask and fault → kill-wave → revive code the
//! simulator drives — is owned by ONE thread that drains a bounded job
//! queue. Frontends never touch it; they encode requests into [`Job`]s
//! and try-send them. A full queue is *backpressure*: connect attempts
//! are shed at the frontend
//! with [`Status::Shed`] (mirroring the simulator's
//! `RetryPolicy::Backoff` shed ladder), control requests block. This
//! preserves the simulator's admission discipline — jobs execute in one
//! total order, so `--deterministic` runs replay to byte-identical
//! reports — while keeping the service responsive under storm load:
//! the engine never wedges, it degrades.
//!
//! Topology reloads are generational: the engine drains the current
//! core (stopping admission for the duration of one queue pass),
//! swaps in the freshly built fabric, then *migrates* every live
//! circuit onto it in ascending circuit-id order, counting the ones the
//! new topology cannot carry as dropped. Counters and histograms
//! survive generations — and, via the `snapshot` module, `kill -9`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::time::Instant;

use ft_failure::SwitchState;
use ft_graph::{Digraph, EdgeId};
use ft_networks::{RouteError, SessionId};
use ft_obs::{Fixed, Hist, JsonWriter, Layout};
use ft_sim::{CoreBuffers, Fabric, FabricSpec, SwitchingCore};

use crate::protocol::{Request, Response, Status};
use crate::snapshot::Snapshot;

macro_rules! counter_fields {
    ($($name:ident),* $(,)?) => {
        /// Cumulative service counters. Field order is the snapshot wire
        /// order — append-only; renames or reorders bump the snapshot
        /// version.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        #[allow(missing_docs)] // field names are the documentation (and the snapshot format)
        pub(crate) struct Counters {
            $(pub $name: u64,)*
        }

        impl Counters {
            /// `(name, value)` pairs in fixed snapshot order.
            pub(crate) fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name)),*]
            }

            /// Restores from parsed `(names, values)`; `None` on any
            /// name/order mismatch (stale snapshot layout).
            pub(crate) fn set_fields(&mut self, names: &[String], values: &[u64]) -> Option<()> {
                let expected = [$(stringify!($name)),*];
                if names.len() != expected.len() || values.len() != expected.len() {
                    return None;
                }
                for (got, want) in names.iter().zip(expected) {
                    if got != want {
                        return None;
                    }
                }
                let mut it = values.iter();
                $(self.$name = *it.next()?;)*
                Some(())
            }
        }
    };
}

counter_fields!(
    offered,
    connected,
    blocked,
    busy,
    shed,
    deadline_expired,
    duplicate,
    bad_arg,
    disconnected,
    unknown_disconnects,
    faults,
    fault_noops,
    repairs,
    repair_noops,
    killed,
    reloads,
    bad_specs,
    migrated,
    migrate_dropped,
    snapshots,
    recovery_episodes,
    bad_frames,
);

/// Lock-free state shared between frontends and the engine.
#[derive(Debug, Default)]
pub struct SharedFlags {
    /// Connects shed at the frontends (queue full). Folded into
    /// the engine's `shed` counter at render/snapshot time.
    pub shed: AtomicU64,
    /// Malformed frames answered at the frontends.
    pub bad_frames: AtomicU64,
    /// Connections closed at accept because the concurrent-connection
    /// cap was reached. Not part of the wire report (the engine never
    /// saw these clients); tests and operators read it here.
    pub refused: AtomicU64,
    /// Set by the engine on shutdown; frontends and the acceptor poll it.
    pub(crate) shutdown: AtomicBool,
}

/// One queued request plus its reply channel and admission timestamp.
#[derive(Debug)]
pub struct Job {
    /// The decoded request.
    pub req: Request,
    /// Where the (single) response goes. Send errors are ignored — a
    /// vanished client does not perturb the engine.
    pub reply: Sender<Response>,
    /// When the frontend enqueued the job, for deadline accounting.
    pub enqueued: Instant,
}

/// Engine configuration, fixed at startup.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Deterministic mode: no deadline expiry, no wall-clock in any
    /// output — a lockstep client replays to byte-identical reports.
    pub deterministic: bool,
    /// Snapshot file; `None` disables both restore and periodic dumps.
    pub snapshot_path: Option<PathBuf>,
    /// Dump a snapshot every this many jobs (0 = only on request/shutdown).
    pub snapshot_every: u64,
}

/// Why a generation ended.
enum GenExit {
    /// Graceful reload: swap to this fabric, then migrate and reply.
    Reload {
        fabric: Box<Fabric>,
        tag: u64,
        reply: Sender<Response>,
    },
    /// Graceful shutdown (tag/reply already answered).
    Shutdown,
    /// Every frontend sender dropped — the server is tearing down.
    Disconnected,
}

/// State that survives generations (reloads) within one process.
struct Persistent {
    counters: Counters,
    /// Path lengths (hops) of every successfully connected circuit,
    /// recorded once at admission — reload migration re-places circuits
    /// without re-recording, so `count()` tracks `connected`.
    path_hist: Hist,
    /// Live circuits by client id; `BTreeMap` so migration order is
    /// deterministic.
    circuits: BTreeMap<u64, Circuit>,
    generations: u64,
    restored: bool,
    jobs_since_snapshot: u64,
}

/// One live circuit: its terminal pair (what a reload migrates) and
/// its session in the current generation's core (rewritten by the
/// migration).
struct Circuit {
    src: u32,
    dst: u32,
    sid: SessionId,
}

/// Runs the engine to completion on the calling thread. Returns the
/// final report (also the body of the last `REPORT` response).
///
/// `fabric` is the boot topology; reloads replace it in place. If
/// `cfg.snapshot_path` holds a well-formed snapshot from a previous
/// incarnation, its counters and histogram become the starting base
/// (the crash-recovery path exercised by the CI `server_smoke` step).
pub fn run(
    mut fabric: Fabric,
    rx: Receiver<Job>,
    shared: &SharedFlags,
    cfg: &EngineConfig,
) -> String {
    let mut state = Persistent {
        counters: Counters::default(),
        path_hist: Hist::new(),
        circuits: BTreeMap::new(),
        generations: 0,
        restored: false,
        jobs_since_snapshot: 0,
    };
    if let Some(path) = &cfg.snapshot_path {
        if let Some(snap) = Snapshot::load(path) {
            state.counters = snap.counters;
            state.path_hist = snap.hist;
            state.restored = true;
            eprintln!(
                "ftserve: restored counters from snapshot {} (offered {})",
                path.display(),
                state.counters.offered
            );
        }
    }
    let mut pending_migration: Option<(u64, Sender<Response>)> = None;
    loop {
        state.generations += 1;
        let exit = run_generation(
            &fabric,
            &rx,
            shared,
            cfg,
            &mut state,
            pending_migration.take(),
        );
        match exit {
            GenExit::Reload {
                fabric: f,
                tag,
                reply,
            } => {
                fabric = *f;
                pending_migration = Some((tag, reply));
            }
            GenExit::Shutdown | GenExit::Disconnected => break,
        }
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    if cfg.snapshot_path.is_some() {
        write_snapshot(&mut state, shared, cfg);
    }
    render_report(&fabric, &state, shared, cfg)
}

fn effective_counters(state: &Persistent, shared: &SharedFlags) -> Counters {
    let mut c = state.counters.clone();
    c.shed += shared.shed.load(Ordering::SeqCst);
    c.bad_frames += shared.bad_frames.load(Ordering::SeqCst);
    c
}

fn write_snapshot(state: &mut Persistent, shared: &SharedFlags, cfg: &EngineConfig) {
    let Some(path) = &cfg.snapshot_path else {
        return;
    };
    let snap = Snapshot {
        counters: effective_counters(state, shared),
        hist: state.path_hist.clone(),
    };
    match snap.write(path) {
        Ok(()) => state.counters.snapshots += 1,
        Err(e) => eprintln!("ftserve: snapshot write to {} failed: {e}", path.display()),
    }
    state.jobs_since_snapshot = 0;
}

fn render_report(
    fabric: &Fabric,
    state: &Persistent,
    shared: &SharedFlags,
    cfg: &EngineConfig,
) -> String {
    let c = effective_counters(state, shared);
    let mut j = JsonWriter::new();
    j.object(Layout::Block)
        .field("service", "ftserve")
        .field("fabric", fabric.label())
        .field("terminals", fabric.terminals())
        .field("deterministic", cfg.deterministic)
        .field("generations", state.generations)
        .field("restored", state.restored)
        .key("counters")
        .object(Layout::Block);
    for (key, value) in c.fields() {
        j.field(key, value);
    }
    let hops = &state.path_hist;
    j.end()
        .key("path_hops")
        .object(Layout::Block)
        .field("count", hops.count())
        .field("p50", Fixed(hops.quantile(50.0), 3))
        .field("p90", Fixed(hops.quantile(90.0), 3))
        .field("p99", Fixed(hops.quantile(99.0), 3))
        .end()
        .end();
    j.finish()
}

fn render_metrics(
    fabric: &Fabric,
    state: &Persistent,
    shared: &SharedFlags,
    cfg: &EngineConfig,
    active: usize,
    failed: usize,
    started: Instant,
) -> String {
    let c = effective_counters(state, shared);
    let mut line = ft_obs::KvLine::new("ftserve metrics")
        .kv("active", active)
        .kv("failed_switches", failed)
        .kv("generation", state.generations);
    for (key, value) in c.fields() {
        line = line.kv(key, value);
    }
    line = line
        .kv_f1("hops_p50", state.path_hist.quantile(50.0))
        .kv_f1("hops_p99", state.path_hist.quantile(99.0));
    if !cfg.deterministic {
        line = line.kv("uptime_ms", started.elapsed().as_millis());
    }
    let _ = fabric; // label lives in the report; metrics stay one line
    line.finish()
}

/// One generation: a switching core bound to `fabric` serving jobs
/// until reload, shutdown, or disconnect.
fn run_generation(
    fabric: &Fabric,
    rx: &Receiver<Job>,
    shared: &SharedFlags,
    cfg: &EngineConfig,
    state: &mut Persistent,
    pending_migration: Option<(u64, Sender<Response>)>,
) -> GenExit {
    let started = Instant::now();
    let mut core = SwitchingCore::new(fabric, CoreBuffers::default());
    let num_switches = core.net().num_edges();
    let n = fabric.terminals();
    // Client circuit id holding each router slot.
    let mut slot_owner: Vec<Option<u64>> = Vec::new();

    // Migrate the previous generation's circuits onto the new fabric,
    // ascending circuit id (BTreeMap order) so the outcome is a pure
    // function of the live set — not of arrival history.
    let (mut migrated, mut dropped) = (0u32, 0u32);
    state.circuits.retain(|&id, c| {
        let placed = if (c.src as usize) < n && (c.dst as usize) < n {
            core.admit(c.src as usize, c.dst as usize).ok()
        } else {
            None
        };
        match placed {
            Some(sid) => {
                c.sid = sid;
                claim_slot(&mut slot_owner, sid, id);
                // No path_hist record here: the circuit was already
                // counted at admission, and a circuit surviving N
                // reloads must not weigh N+1 times.
                migrated += 1;
            }
            None => dropped += 1,
        }
        placed.is_some()
    });
    if let Some((tag, reply)) = pending_migration {
        state.counters.migrated += u64::from(migrated);
        state.counters.migrate_dropped += u64::from(dropped);
        let mut body = Vec::with_capacity(8);
        body.extend_from_slice(&migrated.to_le_bytes());
        body.extend_from_slice(&dropped.to_le_bytes());
        let _ = reply.send(Response::ok(tag, body));
    }

    loop {
        let Ok(job) = rx.recv() else {
            return GenExit::Disconnected;
        };
        state.jobs_since_snapshot += 1;
        let reply = job.reply;
        // Deadline check at dequeue: a connect that waited in queue
        // past its deadline is answered typed, not routed — the client
        // has already given up on it. Deterministic mode never expires.
        if !cfg.deterministic {
            if let Request::Connect {
                tag, deadline_ms, ..
            } = job.req
            {
                if deadline_ms > 0
                    && job.enqueued.elapsed().as_millis() as u64 > u64::from(deadline_ms)
                {
                    state.counters.offered += 1;
                    state.counters.deadline_expired += 1;
                    let _ = reply.send(Response::new(Status::DeadlineExpired, tag));
                    continue;
                }
            }
        }
        match job.req {
            Request::Connect { tag, src, dst, .. } => {
                state.counters.offered += 1;
                // The entry API doesn't fit: the insert is conditional
                // on `core.admit` succeeding in a later branch.
                #[allow(clippy::map_entry)]
                let resp = if state.circuits.contains_key(&tag) {
                    state.counters.duplicate += 1;
                    Response::new(Status::DuplicateId, tag)
                } else if (src as usize) >= n || (dst as usize) >= n {
                    state.counters.bad_arg += 1;
                    Response::new(Status::BadArg, tag)
                } else {
                    match core.admit(src as usize, dst as usize) {
                        Ok(sid) => {
                            state.counters.connected += 1;
                            state.circuits.insert(tag, Circuit { src, dst, sid });
                            claim_slot(&mut slot_owner, sid, tag);
                            let hops = core.router().session_path(sid).map_or(0, |p| p.len());
                            state.path_hist.record(hops as f64);
                            Response::ok(tag, (hops as u32).to_le_bytes().to_vec())
                        }
                        Err(RouteError::Blocked(..)) => {
                            state.counters.blocked += 1;
                            Response::new(Status::Blocked, tag)
                        }
                        Err(RouteError::InputUnavailable(_) | RouteError::OutputUnavailable(_)) => {
                            state.counters.busy += 1;
                            Response::new(Status::Busy, tag)
                        }
                    }
                };
                let _ = reply.send(resp);
            }
            Request::Disconnect { tag } => {
                let resp = match state.circuits.remove(&tag) {
                    Some(Circuit { sid, .. }) => {
                        let released = core.release(sid);
                        debug_assert!(released, "circuit table out of sync with router");
                        slot_owner[sid.0 as usize] = None;
                        state.counters.disconnected += 1;
                        Response::new(Status::Ok, tag)
                    }
                    None => {
                        state.counters.unknown_disconnects += 1;
                        Response::new(Status::UnknownCircuit, tag)
                    }
                };
                let _ = reply.send(resp);
            }
            Request::Fault { tag, switch, open } => {
                let mode = if open {
                    SwitchState::Open
                } else {
                    SwitchState::Closed
                };
                let resp = if (switch as usize) >= num_switches || !fabric.supports_faults() {
                    state.counters.bad_arg += 1;
                    Response::new(Status::BadArg, tag)
                } else if let Some(killed) = core.fail(EdgeId(switch), mode) {
                    state.counters.faults += 1;
                    for sid in killed {
                        if let Some(owner) = slot_owner[sid.0 as usize].take() {
                            state.circuits.remove(&owner);
                        }
                    }
                    state.counters.killed += killed.len() as u64;
                    Response::ok(tag, (killed.len() as u32).to_le_bytes().to_vec())
                } else {
                    state.counters.fault_noops += 1;
                    Response::new(Status::Noop, tag)
                };
                let _ = reply.send(resp);
            }
            Request::Repair { tag, switch } => {
                let resp = if (switch as usize) >= num_switches || !fabric.supports_faults() {
                    state.counters.bad_arg += 1;
                    Response::new(Status::BadArg, tag)
                } else if core.repair(EdgeId(switch)) {
                    state.counters.repairs += 1;
                    if core.failed() == 0 {
                        // The fabric is whole again: one recovery
                        // episode closed (the smoke test's headline
                        // robustness counter).
                        state.counters.recovery_episodes += 1;
                    }
                    Response::new(Status::Ok, tag)
                } else {
                    state.counters.repair_noops += 1;
                    Response::new(Status::Noop, tag)
                };
                let _ = reply.send(resp);
            }
            Request::Metrics { tag } => {
                let text = render_metrics(
                    fabric,
                    state,
                    shared,
                    cfg,
                    core.router().active_sessions(),
                    core.failed(),
                    started,
                );
                let _ = reply.send(Response::ok(tag, text.into_bytes()));
            }
            Request::Reload { tag, spec } => match FabricSpec::parse(&spec) {
                Ok(fs) => {
                    state.counters.reloads += 1;
                    if core.failed() > 0 {
                        // A reload swaps in a whole fabric, closing any
                        // open degradation episode.
                        state.counters.recovery_episodes += 1;
                    }
                    // Drain: tear the live circuits out of the old
                    // core cleanly; their endpoints stay registered
                    // for migration onto the new fabric.
                    let drained = core.drain();
                    debug_assert_eq!(drained.len(), state.circuits.len());
                    return GenExit::Reload {
                        fabric: Box::new(fs.build()),
                        tag,
                        reply,
                    };
                }
                Err(e) => {
                    state.counters.bad_specs += 1;
                    eprintln!("ftserve: reload rejected: {e}");
                    let _ = reply.send(Response::new(Status::BadSpec, tag));
                }
            },
            Request::Snapshot { tag } => {
                if cfg.snapshot_path.is_some() {
                    write_snapshot(state, shared, cfg);
                    let _ = reply.send(Response::new(Status::Ok, tag));
                } else {
                    let _ = reply.send(Response::new(Status::BadArg, tag));
                }
            }
            Request::Report { tag } => {
                let text = render_report(fabric, state, shared, cfg);
                let _ = reply.send(Response::ok(tag, text.into_bytes()));
            }
            Request::Shutdown { tag } => {
                let _ = reply.send(Response::new(Status::Ok, tag));
                return GenExit::Shutdown;
            }
        }
        if cfg.snapshot_every > 0
            && cfg.snapshot_path.is_some()
            && state.jobs_since_snapshot >= cfg.snapshot_every
        {
            write_snapshot(state, shared, cfg);
        }
    }
}

fn claim_slot(slot_owner: &mut Vec<Option<u64>>, sid: SessionId, owner: u64) {
    let slot = sid.0 as usize;
    if slot >= slot_owner.len() {
        slot_owner.resize(slot + 1, None);
    }
    slot_owner[slot] = Some(owner);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn boot() -> (Fabric, EngineConfig, SharedFlags) {
        (
            FabricSpec::parse("clos-strict 4 4").unwrap().build(),
            EngineConfig {
                deterministic: false,
                snapshot_path: None,
                snapshot_every: 0,
            },
            SharedFlags::default(),
        )
    }

    /// Drives `run` on a thread; returns (job sender, report receiver).
    fn spawn(fabric: Fabric, cfg: EngineConfig) -> (mpsc::SyncSender<Job>, mpsc::Receiver<String>) {
        let (tx, rx) = mpsc::sync_channel(64);
        let (report_tx, report_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let shared = SharedFlags::default();
            let report = run(fabric, rx, &shared, &cfg);
            report_tx.send(report).unwrap();
        });
        (tx, report_rx)
    }

    fn ask(tx: &mpsc::SyncSender<Job>, req: Request) -> Response {
        ask_at(tx, req, Instant::now())
    }

    fn ask_at(tx: &mpsc::SyncSender<Job>, req: Request, enqueued: Instant) -> Response {
        let (reply, reply_rx) = mpsc::channel();
        tx.send(Job {
            req,
            reply,
            enqueued,
        })
        .unwrap();
        reply_rx.recv().unwrap()
    }

    #[test]
    fn connect_disconnect_and_typed_errors() {
        let (fabric, cfg, _) = boot();
        let terminals = fabric.terminals() as u32;
        let (tx, report_rx) = spawn(fabric, cfg);
        let ok = ask(
            &tx,
            Request::Connect {
                tag: 1,
                src: 0,
                dst: 1,
                deadline_ms: 0,
            },
        );
        assert_eq!(ok.status, Status::Ok);
        assert!(u32::from_le_bytes(ok.body[..4].try_into().unwrap()) >= 2);
        // duplicate id
        let dup = ask(
            &tx,
            Request::Connect {
                tag: 1,
                src: 2,
                dst: 3,
                deadline_ms: 0,
            },
        );
        assert_eq!(dup.status, Status::DuplicateId);
        // busy input terminal
        let busy = ask(
            &tx,
            Request::Connect {
                tag: 2,
                src: 0,
                dst: 2,
                deadline_ms: 0,
            },
        );
        assert_eq!(busy.status, Status::Busy);
        // out-of-range terminal
        let bad = ask(
            &tx,
            Request::Connect {
                tag: 3,
                src: terminals,
                dst: 0,
                deadline_ms: 0,
            },
        );
        assert_eq!(bad.status, Status::BadArg);
        assert_eq!(ask(&tx, Request::Disconnect { tag: 1 }).status, Status::Ok);
        // double disconnect of the same circuit id
        assert_eq!(
            ask(&tx, Request::Disconnect { tag: 1 }).status,
            Status::UnknownCircuit
        );
        assert_eq!(ask(&tx, Request::Shutdown { tag: 99 }).status, Status::Ok);
        let report = report_rx.recv().unwrap();
        assert!(report.contains("\"connected\": 1"));
        assert!(report.contains("\"duplicate\": 1"));
    }

    #[test]
    fn stale_connect_expires_but_deterministic_mode_never_does() {
        let (fabric, mut cfg, _) = boot();
        let stale = Instant::now() - Duration::from_millis(500);
        {
            let (tx, _report) = spawn(
                FabricSpec::parse("clos-strict 4 4").unwrap().build(),
                cfg.clone(),
            );
            let resp = ask_at(
                &tx,
                Request::Connect {
                    tag: 1,
                    src: 0,
                    dst: 0,
                    deadline_ms: 10,
                },
                stale,
            );
            assert_eq!(resp.status, Status::DeadlineExpired);
            ask(&tx, Request::Shutdown { tag: 2 });
        }
        cfg.deterministic = true;
        let (tx, _report) = spawn(fabric, cfg);
        let resp = ask_at(
            &tx,
            Request::Connect {
                tag: 1,
                src: 0,
                dst: 0,
                deadline_ms: 10,
            },
            stale,
        );
        assert_eq!(
            resp.status,
            Status::Ok,
            "deterministic mode ignores deadlines"
        );
        ask(&tx, Request::Shutdown { tag: 2 });
    }

    #[test]
    fn fault_kills_crossing_circuits_and_repair_closes_the_episode() {
        let (fabric, cfg, _) = boot();
        let (tx, report_rx) = spawn(fabric, cfg);
        for i in 0..4u64 {
            let r = ask(
                &tx,
                Request::Connect {
                    tag: i,
                    src: i as u32,
                    dst: i as u32,
                    deadline_ms: 0,
                },
            );
            assert_eq!(r.status, Status::Ok);
        }
        // Fail switches until some circuit dies, then repair them all.
        let mut struck = Vec::new();
        let mut total_killed = 0u32;
        for switch in 0.. {
            let r = ask(
                &tx,
                Request::Fault {
                    tag: 100 + switch as u64,
                    switch,
                    open: true,
                },
            );
            if r.status == Status::BadArg {
                break; // ran past the edge count
            }
            assert_eq!(r.status, Status::Ok);
            struck.push(switch);
            total_killed += u32::from_le_bytes(r.body[..4].try_into().unwrap());
            if total_killed > 0 {
                break;
            }
        }
        assert!(total_killed > 0, "some strike must kill a circuit");
        // Double-fault is a typed no-op.
        let again = ask(
            &tx,
            Request::Fault {
                tag: 999,
                switch: struck[0],
                open: true,
            },
        );
        assert_eq!(again.status, Status::Noop);
        for &switch in &struck {
            let r = ask(
                &tx,
                Request::Repair {
                    tag: 200 + switch as u64,
                    switch,
                },
            );
            assert_eq!(r.status, Status::Ok);
        }
        // A killed circuit's id is free again.
        let metrics = ask(&tx, Request::Metrics { tag: 1000 });
        assert_eq!(metrics.status, Status::Ok);
        let text = metrics.body_text();
        assert!(
            text.contains("recovery_episodes=1"),
            "episode closed: {text}"
        );
        ask(&tx, Request::Shutdown { tag: 0 });
        let report = report_rx.recv().unwrap();
        assert!(report.contains("\"recovery_episodes\": 1"), "{report}");
        assert!(
            report.contains(&format!("\"killed\": {total_killed}")),
            "{report}"
        );
    }

    #[test]
    fn fault_and_repair_on_a_fabric_that_cannot_fail_are_bad_args() {
        for spec in ["crossbar 4", "benes 1"] {
            let (_, cfg, _) = boot();
            let fabric = FabricSpec::parse(spec).unwrap().build();
            // The one switch a circuit from input 0 to output 0 crosses.
            let g = fabric.net();
            let first_pair = (g.inputs()[0], g.outputs()[0]);
            let switch = (0..g.num_edges() as u32)
                .find(|&e| g.graph().endpoints(EdgeId(e)) == first_pair)
                .unwrap();
            let (tx, report_rx) = spawn(fabric, cfg);
            let connect = Request::Connect {
                tag: 1,
                src: 0,
                dst: 0,
                deadline_ms: 0,
            };
            assert_eq!(ask(&tx, connect).status, Status::Ok, "{spec}");
            let (tag, open) = (2, true);
            let fault = ask(&tx, Request::Fault { tag, switch, open });
            assert_eq!(fault.status, Status::BadArg, "{spec}");
            let repair = ask(&tx, Request::Repair { tag: 3, switch });
            assert_eq!(repair.status, Status::BadArg, "{spec}");
            let text = ask(&tx, Request::Metrics { tag: 4 }).body_text();
            for kv in [
                "active=1 ",
                "bad_arg=2 ",
                "faults=0 ",
                "repairs=0 ",
                "killed=0 ",
            ] {
                assert!(text.contains(kv), "{spec}: {kv} in {text}");
            }
            // The circuit through the refused switch is still live.
            assert_eq!(
                ask(&tx, Request::Disconnect { tag: 1 }).status,
                Status::Ok,
                "{spec}"
            );
            ask(&tx, Request::Shutdown { tag: 5 });
            let report = report_rx.recv().unwrap();
            assert!(report.contains("\"bad_arg\": 2,"), "{spec}: {report}");
            assert!(report.contains("\"disconnected\": 1,"), "{spec}: {report}");
        }
    }

    #[test]
    fn fault_answers_the_kill_count_of_an_identically_loaded_core() {
        let (fabric, cfg, _) = boot();
        let twin = FabricSpec::parse("clos-strict 4 4").unwrap().build();
        let mut core = SwitchingCore::new(&twin, CoreBuffers::default());
        let (tx, _report) = spawn(fabric, cfg);
        let n = twin.terminals() as u32;
        for src in 0..n {
            let (tag, dst, deadline_ms) = (u64::from(src), (src * 5 + 3) % n, 0);
            let connect = Request::Connect {
                tag,
                src,
                dst,
                deadline_ms,
            };
            assert_eq!(ask(&tx, connect).status, Status::Ok);
            core.admit(src as usize, dst as usize).unwrap();
        }
        let mut total = 0;
        for switch in 0..twin.net().num_edges() as u32 {
            let (tag, open) = (1000 + u64::from(switch), switch % 2 == 0);
            let r = ask(&tx, Request::Fault { tag, switch, open });
            assert_eq!(r.status, Status::Ok);
            let mode = if open {
                SwitchState::Open
            } else {
                SwitchState::Closed
            };
            let expect = core.fail(EdgeId(switch), mode).unwrap().len() as u32;
            let got = u32::from_le_bytes(r.body[..4].try_into().unwrap());
            assert_eq!(got, expect, "switch {switch}");
            total += got;
        }
        assert_eq!(total, n, "with every switch failed every circuit has died");
        ask(&tx, Request::Shutdown { tag: 0 });
    }

    #[test]
    fn reload_migrates_live_circuits_and_rejects_bad_specs() {
        let (fabric, cfg, _) = boot();
        let (tx, report_rx) = spawn(fabric, cfg);
        for i in 0..3u64 {
            let r = ask(
                &tx,
                Request::Connect {
                    tag: 10 + i,
                    src: i as u32,
                    dst: (3 - i) as u32,
                    deadline_ms: 0,
                },
            );
            assert_eq!(r.status, Status::Ok);
        }
        let bad = ask(
            &tx,
            Request::Reload {
                tag: 50,
                spec: "klos-strict 4 4".into(),
            },
        );
        assert_eq!(bad.status, Status::BadSpec);
        // Reload onto a bigger fabric: everything migrates.
        let r = ask(
            &tx,
            Request::Reload {
                tag: 51,
                spec: "benes 8".into(),
            },
        );
        assert_eq!(r.status, Status::Ok);
        let migrated = u32::from_le_bytes(r.body[..4].try_into().unwrap());
        let dropped = u32::from_le_bytes(r.body[4..8].try_into().unwrap());
        assert_eq!((migrated, dropped), (3, 0));
        // The migrated circuits are live on the new fabric: their ids
        // still disconnect cleanly.
        for i in 0..3u64 {
            assert_eq!(
                ask(&tx, Request::Disconnect { tag: 10 + i }).status,
                Status::Ok
            );
        }
        ask(&tx, Request::Shutdown { tag: 0 });
        let report = report_rx.recv().unwrap();
        assert!(report.contains("\"generations\": 2"), "{report}");
        assert!(report.contains("\"migrated\": 3"), "{report}");
        assert!(report.contains("\"bad_specs\": 1"), "{report}");
    }

    /// Specs that used to reach `Params::reduced`'s asserts on the
    /// engine thread (an odd width, a zero degree) and one whose census
    /// overflows the u32 ids are refused by the parser: BadSpec, and the
    /// engine keeps serving on its old fabric.
    #[test]
    fn reload_refuses_specs_the_builders_would_panic_on() {
        let (fabric, cfg, _) = boot();
        let (tx, report_rx) = spawn(fabric, cfg);
        for (tag, spec) in [
            (60, "ftn 1 3 4 1.0"),
            (61, "ftn 1 8 0 1.0"),
            (62, "crossbar 65536"),
        ] {
            let r = ask(
                &tx,
                Request::Reload {
                    tag,
                    spec: spec.into(),
                },
            );
            assert_eq!(r.status, Status::BadSpec, "{spec}");
        }
        let r = ask(
            &tx,
            Request::Connect {
                tag: 70,
                src: 0,
                dst: 1,
                deadline_ms: 0,
            },
        );
        assert_eq!(r.status, Status::Ok);
        ask(&tx, Request::Shutdown { tag: 0 });
        let report = report_rx.recv().unwrap();
        assert!(report.contains("\"generations\": 1"), "{report}");
        assert!(report.contains("\"bad_specs\": 3"), "{report}");
    }

    #[test]
    fn snapshot_survives_a_simulated_crash() {
        let dir = std::env::temp_dir().join(format!("ftserve-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crash.snap");
        let mut cfg = EngineConfig {
            deterministic: true,
            snapshot_path: Some(path.clone()),
            snapshot_every: 1,
        };
        let fabric = FabricSpec::parse("clos-strict 4 4").unwrap().build();
        {
            let (tx, _report) = spawn(
                FabricSpec::parse("clos-strict 4 4").unwrap().build(),
                cfg.clone(),
            );
            for i in 0..5u64 {
                ask(
                    &tx,
                    Request::Connect {
                        tag: i,
                        src: (i % 4) as u32,
                        dst: (i % 4) as u32,
                        deadline_ms: 0,
                    },
                );
            }
            // Simulated kill -9: drop the sender without Shutdown. The
            // engine sees Disconnected and exits; the per-job snapshot
            // cadence already persisted the counters.
        }
        std::thread::sleep(Duration::from_millis(100));
        let snap = Snapshot::load(&path).expect("snapshot exists after crash");
        assert_eq!(snap.counters.offered, 5);
        // Restart against the same snapshot: counters resume.
        cfg.snapshot_every = 0;
        let (tx, report_rx) = spawn(fabric, cfg);
        ask(
            &tx,
            Request::Connect {
                tag: 100,
                src: 0,
                dst: 0,
                deadline_ms: 0,
            },
        );
        ask(&tx, Request::Shutdown { tag: 0 });
        let report = report_rx.recv().unwrap();
        assert!(report.contains("\"restored\": true"), "{report}");
        assert!(report.contains("\"offered\": 6"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
