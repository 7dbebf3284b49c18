//! The deterministic discrete-event engine.
//!
//! One [`run_seed`] drives a [`SwitchingCore`] through virtual time:
//! Poisson call arrivals (optionally burst-modulated) draw terminal
//! pairs from the traffic pattern and holding times from the holding
//! distribution; a pluggable [`FaultInjector`] decides which switches
//! fail and when (the i.i.d. default is the exact superposition:
//! next-failure ~ `Exp(healthy · rate)`, resampled — valid by
//! memorylessness — whenever the healthy count changes; storms, bursts
//! and the targeted adversary are the correlated alternatives); each
//! fault goes through [`SwitchingCore::fail`], and the circuits it
//! kills run through the [`RetryPolicy`] degradation ladder; repairs
//! restore switches after `Exp(mttr)`.
//!
//! Everything randomized flows through one seeded RNG in event order,
//! so a `(scenario, seed)` pair reproduces a byte-identical event
//! stream — pinned by the FNV fingerprint every run accumulates over
//! the events it processes.
//!
//! The engine is generic over an [`Observer`] ([`run_seed_obs`]): every
//! semantic event — arrival, connect, busy-reject, block, hangup,
//! fault, kill, reroute attempt, retry, shed, repair, recovery-close —
//! is emitted to it stamped with the enclosing queue event's
//! `(sim-time, seq)` plus session token and circuit path where they
//! exist. The observer is write-only: the engine never reads it back,
//! so tracing cannot perturb the simulation, and with the default
//! [`Noop`] the monomorphized emission sites vanish entirely (the
//! golden fingerprints and the gated sim benches pin that).

use crate::core::{CoreBuffers, SwitchingCore};
use crate::events::{Event, EventKind, EventQueue};
use crate::fabric::Fabric;
use crate::inject::{FaultInjector, FaultSpec, RerouteMode, RetryPolicy};
use crate::metrics::{Bucket, Metrics};
use crate::workload::{exp_draw, HoldingTime, TrafficPattern};
use ft_failure::SwitchState;
use ft_graph::gen::{random_permutation, rng};
use ft_graph::{EdgeId, KernelStats};
use ft_networks::{MincostBatch, RouteError, SessionId};
use ft_obs::{Noop, Observer, TraceEvent};
use rand::rngs::SmallRng;

/// Resolved simulation parameters (one seed's worth of work).
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Network-wide Poisson call arrival rate (calls per time unit).
    pub arrival_rate: f64,
    /// Holding-time distribution.
    pub holding: HoldingTime,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Per-switch exponential failure rate (0 = fault-free). Drives the
    /// [`FaultSpec::Iid`] process only.
    pub fault_rate: f64,
    /// Share of switch failures that are open (the rest are closed).
    pub fault_open_share: f64,
    /// Mean time to repair a failed switch (0 = failures permanent).
    pub mttr: f64,
    /// Simulated duration.
    pub duration: f64,
    /// Warm-up time excluded from headline counters.
    pub warmup: f64,
    /// Number of time-series buckets over `[0, duration]`.
    pub buckets: usize,
    /// Fault-injection process (i.i.d., storm, burst, targeted).
    pub faults: FaultSpec,
    /// Reaction policy for fault-killed calls (degradation ladder).
    pub retry: RetryPolicy,
    /// Placement planner for the kill-time reroute wave (greedy
    /// per-victim search vs min-cost placement).
    pub reroute: RerouteMode,
}

impl Default for SimConfig {
    /// The scenario-grammar defaults: unit uniform load on a fault-free
    /// fabric, i.i.d. faults (inert at `fault_rate = 0`), on-repair
    /// retries.
    fn default() -> Self {
        SimConfig {
            arrival_rate: 1.0,
            holding: HoldingTime::Exponential { mean: 1.0 },
            pattern: TrafficPattern::Uniform,
            fault_rate: 0.0,
            fault_open_share: 0.5,
            mttr: 0.0,
            duration: 100.0,
            warmup: 0.0,
            buckets: 10,
            faults: FaultSpec::Iid,
            retry: RetryPolicy::OnRepair,
            reroute: RerouteMode::Greedy,
        }
    }
}

impl SimConfig {
    /// Whether the configured fault process can fail any switch at all
    /// (gates the fabric fault-capability assertion).
    pub(crate) fn has_faults(&self) -> bool {
        self.faults.active(self.fault_rate)
    }
}

/// Outcome of simulating one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// Aggregated metrics.
    pub metrics: Metrics,
    /// FNV fingerprint of the processed event stream.
    pub fingerprint: u64,
    /// Number of events processed.
    pub events: u64,
    /// Per-kernel work counters of the run's route searches
    /// (deterministic: the same run always pops the same frontiers).
    pub kernel: KernelStats,
}

/// Reusable per-worker buffers: one allocation set serves every seed a
/// sweep worker runs (the [`crate::run_sweep`] discipline: one RNG per
/// seed + one workspace per worker). Besides the queue and call
/// table this holds the fault-path scratch — the switching core's
/// buffers (lent to each seed's [`SwitchingCore`]) and the victim
/// records — so a fault or repair event allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SimWorkspace {
    queue: EventQueue,
    /// Pending call arrivals, sorted descending by `(time, seq)` so the
    /// next one is `last()`. Arrivals are ~half of all queue traffic
    /// but at most one is *live* at a time (plus a few stale draws from
    /// burst-rate changes), so this tiny lane replaces two O(log n)
    /// heap operations per call with O(1) vector ops. Sequence numbers
    /// come from the shared queue counter, so the `(time, seq)` pop
    /// order — and the event-stream fingerprint — is byte-identical to
    /// the all-heap ordering.
    arrivals: Vec<ArrivalEv>,
    calls: Vec<Option<Call>>,
    pending: Vec<PendingCall>,
    /// The switching core's repair mask and kill-wave scratch, taken
    /// for the length of a seed and put back after it.
    core: CoreBuffers,
    /// Call records of the sessions the current fault killed (drained
    /// before any reroute can reuse a freed slot).
    victims: Vec<Call>,
    /// Dense histogram scratch, `bucket * DENSE_ROWS + row`: rows
    /// [`OCCUPANCY_ROW`] (arrival-observed occupancy, PASTA draws),
    /// [`SETUP_COST_ROW`] and [`PATH_LEN_ROW`]. Folded into the
    /// corresponding `Metrics` histograms once per seed, so the
    /// per-arrival recording cost is one add per sample. All-zero
    /// between seeds (the flush re-zeroes every touched entry).
    dense_hist: Vec<u64>,
    /// Flat indices of nonzero `dense_hist` entries, first-touch order.
    dense_touched: Vec<u32>,
    /// Min-cost planner state, restarted per kill wave when
    /// `reroute = mincost` (untouched by the greedy mode).
    batch: MincostBatch,
}

#[derive(Clone, Copy, Debug)]
struct ArrivalEv {
    time: f64,
    seq: u64,
    epoch: u32,
}

#[derive(Clone, Copy, Debug)]
struct Call {
    token: u32,
    src: usize,
    dst: usize,
    hangup_time: f64,
}

#[derive(Clone, Copy, Debug)]
struct PendingCall {
    src: usize,
    dst: usize,
    hangup_time: f64,
    killed_at_epoch: u64,
    /// Sim-time of the kill (reroute-latency samples in sim-time).
    killed_at_time: f64,
    /// Whether the kill was counted in `metrics.dropped` (post-warmup).
    /// The eventual reroute/abandon increments the matching counter
    /// only if so, preserving `dropped == rerouted + abandoned`.
    counted: bool,
    /// Matches this entry to its scheduled `Retry` events (backoff
    /// policy only; the pending vector shifts, tokens don't).
    token: u32,
    /// Backoff retries still available after the next scheduled one.
    retries_left: u32,
    /// Delay of the next backoff retry (doubles each attempt).
    next_delay: f64,
}

/// Rows of [`SimWorkspace`]'s dense histogram scratch.
const OCCUPANCY_ROW: usize = 0;
const SETUP_COST_ROW: usize = 1;
const PATH_LEN_ROW: usize = 2;
const DENSE_ROWS: usize = 3;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

struct Engine<'a, O: Observer> {
    cfg: &'a SimConfig,
    rng: SmallRng,
    /// Router, failure states and repair mask of the fabric under test.
    core: SwitchingCore<'a>,
    /// The configured fault process (which switch fails next, when).
    injector: Box<dyn FaultInjector>,
    fault_epoch: u32,
    arrival_epoch: u32,
    burst_on: bool,
    /// Monotone counter of fault+repair events (reroute latency unit).
    churn_epoch: u64,
    token_counter: u32,
    /// Tokens matching backoff `Retry` events to pending entries.
    retry_counter: u32,
    /// Whether the fabric is currently degraded (failed switches or
    /// calls waiting for a reroute) — the recovery-metric indicator.
    degraded_now: bool,
    /// When the current degraded episode began.
    degraded_since: f64,
    perm: Vec<u32>,
    now: f64,
    last_t: f64,
    active_now: u64,
    metrics: Metrics,
    fingerprint: u64,
    events: u64,
    ws: &'a mut SimWorkspace,
    /// Structured-event sink (Noop monomorphizes every emission away).
    obs: &'a mut O,
    /// `seq` of the queue event currently being processed — trace
    /// events inherit it, so one queue event's emissions share a stamp.
    cur_seq: u64,
    /// Scratch for materialising circuit paths into trace events
    /// (touched only when `O::ENABLED`).
    trace_path: Vec<u32>,
}

/// Runs one seed with fresh buffers.
pub fn run_seed(fabric: &Fabric, cfg: &SimConfig, seed: u64) -> SeedOutcome {
    run_seed_with(fabric, cfg, seed, &mut SimWorkspace::default())
}

/// Runs one seed reusing a worker-owned [`SimWorkspace`].
pub fn run_seed_with(
    fabric: &Fabric,
    cfg: &SimConfig,
    seed: u64,
    ws: &mut SimWorkspace,
) -> SeedOutcome {
    run_seed_obs(fabric, cfg, seed, ws, &mut Noop)
}

/// Runs one seed with an explicit [`Observer`] receiving every
/// structured event. The observer is write-only and cannot perturb the
/// run: metrics, fingerprint, and event count are identical to
/// [`run_seed_with`] whatever the observer does.
pub fn run_seed_obs<O: Observer>(
    fabric: &Fabric,
    cfg: &SimConfig,
    seed: u64,
    ws: &mut SimWorkspace,
    obs: &mut O,
) -> SeedOutcome {
    assert!(
        !cfg.has_faults() || fabric.supports_faults(),
        "fabric {} cannot express switch faults as vertex discards",
        fabric.label()
    );
    // Unit staging from stage-0 inputs to last-stage outputs puts one
    // vertex of every circuit in each stage: the live-circuit count is
    // every stage's occupancy (see `crate::metrics`).
    let net = fabric.net();
    let (tab, last) = (net.stage_table(), net.num_stages() as u32 - 1);
    assert!(
        net.is_unit_staged()
            && net.inputs().iter().all(|v| tab[v.index()] == 0)
            && net.outputs().iter().all(|v| tab[v.index()] == last),
        "fabric {} is not unit-staged from its inputs in stage 0 to its outputs in the last stage",
        fabric.label()
    );
    let n = fabric.terminals();

    // Reset the workspace for this seed.
    ws.queue.reset();
    ws.arrivals.clear();
    ws.calls.clear();
    ws.pending.clear();
    ws.victims.clear();
    ws.dense_hist.resize(DENSE_ROWS * ft_obs::NUM_BUCKETS, 0);
    ws.dense_touched.clear();
    let mut r = rng(seed);
    let perm = if matches!(cfg.pattern, TrafficPattern::Permutation) {
        random_permutation(&mut r, n)
    } else {
        Vec::new()
    };

    let metrics = Metrics {
        measured_time: cfg.duration - cfg.warmup,
        buckets: vec![Bucket::default(); cfg.buckets.max(1)],
        ..Metrics::default()
    };

    let mut engine = Engine {
        cfg,
        core: SwitchingCore::new(fabric, std::mem::take(&mut ws.core)),
        injector: cfg.faults.build(cfg),
        fault_epoch: 0,
        arrival_epoch: 0,
        burst_on: false,
        churn_epoch: 0,
        token_counter: 0,
        retry_counter: 0,
        degraded_now: false,
        degraded_since: 0.0,
        perm,
        now: 0.0,
        last_t: 0.0,
        active_now: 0,
        metrics,
        fingerprint: FNV_OFFSET,
        events: 0,
        ws,
        obs,
        cur_seq: 0,
        trace_path: Vec::new(),
        rng: r,
    };
    engine.schedule_initial();
    engine.run();
    engine.flush_hists();
    let kernel = engine.core.router().kernel_stats();
    engine.ws.core = engine.core.into_buffers();
    SeedOutcome {
        seed,
        metrics: engine.metrics,
        fingerprint: engine.fingerprint,
        events: engine.events,
        kernel,
    }
}

impl<'a, O: Observer> Engine<'a, O> {
    /// Forwards one structured event to the observer under the current
    /// `(time, seq)` stamp. With [`Noop`] this compiles to nothing.
    #[inline]
    fn emit(&mut self, ev: TraceEvent<'_>) {
        if O::ENABLED {
            self.obs.event(self.now, self.cur_seq, &ev);
        }
    }

    /// Records one sample into a dense scratch row: one array add per
    /// sample on the arrival hot path, deferred to [`Self::flush_hists`].
    #[inline]
    fn dense_record(&mut self, row: usize, v: f64) {
        let flat = ft_obs::bucket_index(v) as usize * DENSE_ROWS + row;
        let c = &mut self.ws.dense_hist[flat];
        if *c == 0 {
            self.ws.dense_touched.push(flat as u32);
        }
        *c += 1;
    }

    /// Folds the dense scratch into the occupancy / setup-cost /
    /// path-length histograms and re-zeroes it, restoring the
    /// between-seeds invariant. The sparse `Hist` is canonical by
    /// construction, so the first-touch flush order cannot affect the
    /// folded bytes.
    fn flush_hists(&mut self) {
        for k in 0..self.ws.dense_touched.len() {
            let flat = self.ws.dense_touched[k] as usize;
            let n = std::mem::take(&mut self.ws.dense_hist[flat]);
            let (row, idx) = (flat % DENSE_ROWS, flat / DENSE_ROWS);
            let h = match row {
                OCCUPANCY_ROW => &mut self.metrics.occupancy_hist,
                SETUP_COST_ROW => &mut self.metrics.setup_cost_hist,
                _ => &mut self.metrics.path_len_hist,
            };
            h.record_bucket_n(idx as u32, n);
        }
        self.ws.dense_touched.clear();
    }

    /// Takes the trace scratch buffer filled with a session's path as
    /// raw vertex ids (callers put it back after emitting, so the
    /// buffer is reused for the whole run).
    fn take_path(&mut self, id: SessionId) -> Vec<u32> {
        let mut p = std::mem::take(&mut self.trace_path);
        p.clear();
        if let Some(path) = self.core.router().session_path(id) {
            p.extend(path.iter().map(|v| v.0));
        }
        p
    }

    fn schedule_initial(&mut self) {
        let mean = 1.0 / self.arrival_rate();
        let dt = exp_draw(&mut self.rng, mean);
        self.push_arrival(dt, 0);
        if let Some(t) = self
            .injector
            .next_fault(self.now, &self.core, &mut self.rng)
        {
            self.ws.queue.push(t, EventKind::Fault { epoch: 0 });
        }
        if let Some((_, mean_off, _)) = self.cfg.pattern.burst_params() {
            let dt = exp_draw(&mut self.rng, mean_off);
            self.ws.queue.push(dt, EventKind::BurstToggle);
        }
    }

    /// Pops the globally earliest event across the heap and the arrival
    /// lane — exactly the `(time, seq)` total order a single heap would
    /// produce, since both draw from one sequence counter.
    fn next_event(&mut self) -> Option<Event> {
        let Some(&a) = self.ws.arrivals.last() else {
            return self.ws.queue.pop();
        };
        if let Some(ev) = self.ws.queue.pop_before(a.time, a.seq) {
            return Some(ev);
        }
        self.ws.arrivals.pop();
        Some(Event {
            time: a.time,
            seq: a.seq,
            kind: EventKind::Arrival { epoch: a.epoch },
        })
    }

    /// Schedules an arrival into the side lane (sorted descending, so
    /// the earliest stays at the back).
    fn push_arrival(&mut self, time: f64, epoch: u32) {
        assert!(time.is_finite() && time >= 0.0, "bad arrival time {time}");
        let seq = self.ws.queue.reserve_seq();
        let a = ArrivalEv { time, seq, epoch };
        let pos = self
            .ws
            .arrivals
            .partition_point(|b| (b.time, b.seq) > (a.time, a.seq));
        self.ws.arrivals.insert(pos, a);
    }

    fn run(&mut self) {
        while let Some(ev) = self.next_event() {
            if ev.time > self.cfg.duration {
                break;
            }
            self.advance_clock(ev.time);
            self.absorb(&ev.kind, ev.time);
            self.events += 1;
            self.cur_seq = ev.seq;
            match ev.kind {
                EventKind::Arrival { epoch } => self.on_arrival(epoch),
                EventKind::Hangup { slot, token } => self.on_hangup(slot, token),
                EventKind::Fault { epoch } => self.on_fault(epoch),
                EventKind::Repair { edge } => self.on_repair(edge),
                EventKind::BurstToggle => self.on_burst_toggle(),
                EventKind::Retry { token } => self.on_retry(token),
            }
        }
        self.advance_clock(self.cfg.duration);
        // Calls still waiting for a reroute at the end of the run never
        // re-established: they are lost (counted iff their drop was).
        self.metrics.abandoned += self.ws.pending.iter().filter(|p| p.counted).count() as u64;
        self.ws.pending.clear();
    }

    /// Folds one event into the stream fingerprint (stale events
    /// included — they are part of the processed stream).
    fn absorb(&mut self, kind: &EventKind, time: f64) {
        let (tag, a, b) = match *kind {
            EventKind::Arrival { epoch } => (1u64, epoch as u64, 0),
            EventKind::Hangup { slot, token } => (2, slot as u64, token as u64),
            EventKind::Fault { epoch } => (3, epoch as u64, 0),
            EventKind::Repair { edge } => (4, edge.index() as u64, 0),
            EventKind::BurstToggle => (5, 0, 0),
            EventKind::Retry { token } => (6, token as u64, 0),
        };
        for word in [tag, time.to_bits(), a, b] {
            self.fingerprint = (self.fingerprint ^ word).wrapping_mul(FNV_PRIME);
        }
    }

    /// Advances occupancy integrals over the measured window.
    fn advance_clock(&mut self, to: f64) {
        let a = self.last_t.max(self.cfg.warmup);
        let b = to.min(self.cfg.duration);
        if b > a {
            let dt = b - a;
            self.metrics.active_time += self.active_now as f64 * dt;
            if self.degraded_now {
                self.metrics.degraded_time += dt;
            }
        }
        self.last_t = to;
        self.now = to;
    }

    fn measured(&self) -> bool {
        self.now >= self.cfg.warmup
    }

    fn bucket(&mut self) -> &mut Bucket {
        let k = self.metrics.buckets.len();
        let idx = ((self.now / self.cfg.duration) * k as f64) as usize;
        &mut self.metrics.buckets[idx.min(k - 1)]
    }

    fn arrival_rate(&self) -> f64 {
        let boost = match self.cfg.pattern.burst_params() {
            Some((_, _, boost)) if self.burst_on => boost,
            _ => 1.0,
        };
        self.cfg.arrival_rate * boost
    }

    fn schedule_next_arrival(&mut self) {
        let mean = 1.0 / self.arrival_rate();
        let dt = exp_draw(&mut self.rng, mean);
        let epoch = self.arrival_epoch;
        self.push_arrival(self.now + dt, epoch);
    }

    /// Establishes bookkeeping for a freshly connected session and
    /// returns the circuit's path length in switches.
    fn admit(&mut self, id: SessionId, src: usize, dst: usize, hangup_time: f64) -> u64 {
        let slot = id.0 as usize;
        if self.ws.calls.len() <= slot {
            self.ws.calls.resize(slot + 1, None);
        }
        let token = self.token_counter;
        self.token_counter = self
            .token_counter
            .checked_add(1)
            .expect("call token overflow");
        self.ws.calls[slot] = Some(Call {
            token,
            src,
            dst,
            hangup_time,
        });
        self.ws
            .queue
            .push(hangup_time, EventKind::Hangup { slot: id.0, token });
        let vertices = self.core.router().session_path(id).map_or(0, <[_]>::len);
        self.active_now += 1;
        (vertices as u64).saturating_sub(1)
    }

    fn on_arrival(&mut self, epoch: u32) {
        if epoch != self.arrival_epoch {
            return; // stale draw from before a rate change
        }
        self.schedule_next_arrival();
        let n = self.core.fabric().terminals();
        let (src, dst) = self.cfg.pattern.sample_pair(&mut self.rng, n, &self.perm);
        let measured = self.measured();
        if measured {
            self.metrics.offered += 1;
            // PASTA sampling: the occupancy this Poisson arrival sees is
            // an unbiased draw of the time-average occupancy.
            self.dense_record(OCCUPANCY_ROW, self.active_now as f64);
        }
        self.bucket().offered += 1;
        self.emit(TraceEvent::Arrival {
            src: src as u32,
            dst: dst as u32,
        });
        let pops_before = if measured {
            self.core.router().kernel_stats().bibfs_pops
        } else {
            0
        };
        let attempt = self.core.admit(src, dst);
        if measured {
            // Setup cost in vertices the route search scanned: the
            // deterministic search-effort analogue of setup latency.
            let pops = self.core.router().kernel_stats().bibfs_pops - pops_before;
            self.dense_record(SETUP_COST_ROW, pops as f64);
        }
        match attempt {
            Ok(id) => {
                let holding = self.cfg.holding.sample(&mut self.rng);
                self.bucket().connected += 1;
                let token = self.token_counter; // the token admit assigns
                let len = self.admit(id, src, dst, self.now + holding);
                if O::ENABLED {
                    let path = self.take_path(id);
                    self.emit(TraceEvent::Connect {
                        token,
                        src: src as u32,
                        dst: dst as u32,
                        path: &path,
                    });
                    self.trace_path = path;
                }
                if measured {
                    self.metrics.connected += 1;
                    self.metrics.total_path_len += len;
                    self.metrics.max_path_len = self.metrics.max_path_len.max(len);
                    self.dense_record(PATH_LEN_ROW, len as f64);
                }
            }
            Err(RouteError::Blocked(_, _)) => {
                if measured {
                    self.metrics.blocked += 1;
                }
                self.bucket().blocked += 1;
                self.emit(TraceEvent::Block {
                    src: src as u32,
                    dst: dst as u32,
                });
            }
            Err(RouteError::InputUnavailable(v) | RouteError::OutputUnavailable(v)) => {
                // Terminals are exempt from repair discards, so an
                // unavailable terminal is a busy terminal.
                debug_assert!(self.core.router().is_alive(v));
                if measured {
                    self.metrics.rejected_busy += 1;
                }
                self.emit(TraceEvent::BusyReject {
                    src: src as u32,
                    dst: dst as u32,
                });
            }
        }
    }

    fn on_hangup(&mut self, slot: u32, token: u32) {
        let live = self
            .ws
            .calls
            .get(slot as usize)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.token == token);
        if !live {
            return; // session was killed by a fault (slot possibly reused)
        }
        self.emit(TraceEvent::Hangup { token });
        self.ws.calls[slot as usize] = None;
        let torn_down = self.core.release(SessionId(slot));
        debug_assert!(torn_down);
        self.active_now -= 1;
        if self.measured() {
            self.metrics.completed += 1;
        }
    }

    /// Recomputes the degraded indicator (failed switches present or
    /// calls waiting for a reroute) and books the recovery metrics on
    /// its edges: a rising edge opens an episode, a falling edge closes
    /// one and records its full length as a time-to-recover sample
    /// (fully healed + drained ⇒ blocking is back at its fault-free
    /// baseline). Episodes still open at the end of the run contribute
    /// to `degraded_time` but not to the closed-interval samples.
    fn update_degraded(&mut self) {
        let degraded = self.core.failed() > 0 || !self.ws.pending.is_empty();
        if degraded == self.degraded_now {
            return;
        }
        if degraded {
            self.degraded_since = self.now;
        } else {
            let span = self.now - self.degraded_since;
            self.emit(TraceEvent::RecoveryClose { span });
            if self.measured() {
                self.metrics.recovery_sum += span;
                self.metrics.recovery_count += 1;
                self.metrics.recovery_max = self.metrics.recovery_max.max(span);
            }
        }
        self.degraded_now = degraded;
    }

    fn on_fault(&mut self, epoch: u32) {
        if epoch != self.fault_epoch || self.core.healthy() == 0 {
            return; // stale draw from before a healthy-count change
        }
        let Some(strike) = self.injector.strike(self.now, &self.core, &mut self.rng) else {
            // No viable victim (e.g. a storm whose target group came up
            // empty): the event is a no-op, but the process continues.
            self.reschedule_faults();
            return;
        };
        self.churn_epoch += 1;
        let e = strike.edge;
        self.emit(TraceEvent::Fault {
            switch: e.index() as u32,
            open: matches!(strike.state, SwitchState::Open),
            episode: strike.new_episode,
        });
        if self.measured() {
            self.metrics.faults += 1;
            if strike.new_episode {
                self.metrics.storms += 1;
            }
        }
        let measured = self.measured();
        let killed = self
            .core
            .fail(e, strike.state)
            .expect("strike hit an already-failed switch");
        // Drain every victim's call record BEFORE attempting reroutes:
        // a reroute may reuse any just-freed slot (free-list order is
        // unspecified), and admitting into a later victim's slot would
        // otherwise clobber its record mid-loop.
        self.ws.victims.clear();
        for &id in killed {
            let call = self.ws.calls[id.0 as usize]
                .take()
                .expect("killed session had no call record");
            // Not `self.emit`: `killed` keeps the core borrowed.
            if O::ENABLED {
                let kill = TraceEvent::Kill {
                    token: call.token,
                    slot: id.0,
                };
                self.obs.event(self.now, self.cur_seq, &kill);
            }
            self.ws.victims.push(call);
        }
        // Min-cost mode starts one planner wave per kill wave (after
        // the victims' paths were released above) and places the wave's
        // reroutes one by one, potentials carried from victim to victim.
        if self.cfg.reroute == RerouteMode::Mincost && !self.ws.victims.is_empty() {
            self.core.router().begin_mincost_batch(&mut self.ws.batch);
        }
        for i in 0..self.ws.victims.len() {
            let call = self.ws.victims[i];
            if measured {
                self.metrics.dropped += 1;
            }
            self.bucket().dropped += 1;
            self.active_now -= 1;
            self.route_after_kill(call, measured);
        }
        if self.cfg.mttr > 0.0 {
            let dt = exp_draw(&mut self.rng, self.cfg.mttr);
            self.ws
                .queue
                .push(self.now + dt, EventKind::Repair { edge: e });
        }
        self.reschedule_faults();
        self.update_degraded();
    }

    /// The degradation ladder's admission step for one killed call: an
    /// immediate reroute attempt by the configured planner — greedy
    /// search or min-cost placement — then, per the retry policy,
    /// either park in the pending queue for repair-triggered retries,
    /// or schedule deterministic exponential-backoff retries (shedding
    /// outright when the queue is past the overload threshold). Later
    /// attempts are always greedy: the planner's potentials are only
    /// valid within the wave that started them.
    fn route_after_kill(&mut self, call: Call, counted: bool) {
        let waiting = PendingCall {
            src: call.src,
            dst: call.dst,
            hangup_time: call.hangup_time,
            killed_at_epoch: self.churn_epoch,
            killed_at_time: self.now,
            counted,
            token: 0,
            retries_left: 0,
            next_delay: 0.0,
        };
        match self.cfg.retry {
            RetryPolicy::OnRepair => {
                if !self.try_reroute(self.cfg.reroute, waiting) {
                    self.ws.pending.push(waiting);
                }
            }
            RetryPolicy::Backoff {
                budget,
                base,
                shed_depth,
            } => {
                if shed_depth > 0 && self.ws.pending.len() >= shed_depth {
                    // Storm-mode admission shedding: the queue is past
                    // the overload threshold, drop without retrying.
                    self.emit(TraceEvent::Shed {
                        token: call.token,
                        src: call.src as u32,
                        dst: call.dst as u32,
                    });
                    if counted {
                        self.metrics.shed += 1;
                        self.metrics.abandoned += 1;
                    }
                    return;
                }
                if self.try_reroute(self.cfg.reroute, waiting) {
                    return;
                }
                if budget == 0 {
                    if counted {
                        self.metrics.abandoned += 1;
                    }
                    return;
                }
                let token = self.retry_counter;
                self.retry_counter = self
                    .retry_counter
                    .checked_add(1)
                    .expect("retry token overflow");
                self.ws.pending.push(PendingCall {
                    token,
                    retries_left: budget - 1,
                    next_delay: base * 2.0,
                    ..waiting
                });
                self.ws
                    .queue
                    .push(self.now + base, EventKind::Retry { token });
            }
        }
    }

    /// A scheduled backoff retry fires: expire, reroute, or back off
    /// again (doubling the delay) until the budget runs out.
    fn on_retry(&mut self, token: u32) {
        let Some(pos) = self.ws.pending.iter().position(|p| p.token == token) else {
            return; // entry already resolved
        };
        self.emit(TraceEvent::Retry { token });
        let p = self.ws.pending[pos];
        if p.hangup_time <= self.now {
            self.ws.pending.remove(pos);
            if p.counted {
                self.metrics.abandoned += 1;
            }
        } else if self.try_reroute(RerouteMode::Greedy, p) {
            self.ws.pending.remove(pos);
        } else if p.retries_left > 0 {
            let entry = &mut self.ws.pending[pos];
            entry.retries_left -= 1;
            let at = self.now + entry.next_delay;
            // Delays double deterministically; the clamp keeps the
            // timestamp finite for pathological budgets.
            entry.next_delay = (entry.next_delay * 2.0).min(1e18);
            self.ws.queue.push(at, EventKind::Retry { token });
        } else {
            self.ws.pending.remove(pos);
            if p.counted {
                self.metrics.abandoned += 1;
            }
        }
        self.update_degraded();
    }

    fn on_repair(&mut self, edge: EdgeId) {
        self.churn_epoch += 1;
        // A repair kills nothing, so occupancy is untouched.
        let repaired = self.core.repair(edge);
        debug_assert!(repaired, "repair of a switch that was not failed");
        self.emit(TraceEvent::Repair {
            switch: edge.index() as u32,
        });
        if self.measured() {
            self.metrics.repairs += 1;
        }
        self.reschedule_faults();
        if matches!(self.cfg.retry, RetryPolicy::OnRepair) {
            // Waiting calls retry in kill order; expired ones are lost.
            // (Under the backoff policy retries fire at their own
            // scheduled times instead.)
            let mut waiting = std::mem::take(&mut self.ws.pending);
            waiting.retain(|p| {
                if p.hangup_time <= self.now {
                    if p.counted {
                        self.metrics.abandoned += 1;
                    }
                    return false;
                }
                !self.try_reroute(RerouteMode::Greedy, *p)
            });
            debug_assert!(self.ws.pending.is_empty());
            self.ws.pending = waiting;
        }
        self.update_degraded();
    }

    /// Invalidates the pending next-fault draw (epoch bump) and asks
    /// the injector for a fresh one — for the i.i.d. process an exact
    /// resample of the aggregate exponential after a healthy-count
    /// change (valid by memorylessness); episode processes answer from
    /// their remembered schedules.
    fn reschedule_faults(&mut self) {
        self.fault_epoch += 1;
        if let Some(t) = self
            .injector
            .next_fault(self.now, &self.core, &mut self.rng)
        {
            let epoch = self.fault_epoch;
            self.ws.queue.push(t, EventKind::Fault { epoch });
        }
    }

    /// Attempts to re-establish killed call `p` by planner `mode`: a
    /// greedy search against the live fabric, or one min-cost
    /// placement in the current kill wave. Returns
    /// whether it succeeded (bookkeeping done). `p.counted` says
    /// whether the kill entered `metrics.dropped`; the reroute counter
    /// mirrors it so the `dropped == rerouted + abandoned` identity
    /// holds under warmup.
    fn try_reroute(&mut self, mode: RerouteMode, p: PendingCall) -> bool {
        // `moved` measures disruption: every greedy attempt —
        // successful or not — executes a search against the live
        // fabric, while a failed min-cost probe is planning-only and
        // touches neither the fabric nor the metrics.
        let placed = match mode {
            RerouteMode::Greedy => {
                if p.counted {
                    self.metrics.moved += 1;
                }
                self.core.admit(p.src, p.dst)
            }
            RerouteMode::Mincost => {
                let placed = self.core.admit_mincost(&mut self.ws.batch, p.src, p.dst);
                if p.counted && placed.is_ok() {
                    self.metrics.moved += 1;
                }
                placed
            }
        };
        let Ok(id) = placed else {
            self.emit(TraceEvent::Reroute {
                token: 0,
                src: p.src as u32,
                dst: p.dst as u32,
                ok: false,
                path: &[],
            });
            return false;
        };
        if p.counted {
            let waited = self.churn_epoch - p.killed_at_epoch;
            self.metrics.rerouted += 1;
            self.metrics.reroute_latency_events += waited;
            self.metrics.reroute_hist_events.record(waited as f64);
            self.metrics
                .reroute_hist_time
                .record(self.now - p.killed_at_time);
        }
        let token = self.token_counter; // the token admit assigns
        self.admit(id, p.src, p.dst, p.hangup_time);
        if O::ENABLED {
            let path = self.take_path(id);
            self.emit(TraceEvent::Reroute {
                token,
                src: p.src as u32,
                dst: p.dst as u32,
                ok: true,
                path: &path,
            });
            self.trace_path = path;
        }
        true
    }

    fn on_burst_toggle(&mut self) {
        let Some((mean_on, mean_off, _)) = self.cfg.pattern.burst_params() else {
            return;
        };
        self.burst_on = !self.burst_on;
        let phase_mean = if self.burst_on { mean_on } else { mean_off };
        let dt = exp_draw(&mut self.rng, phase_mean);
        self.ws.queue.push(self.now + dt, EventKind::BurstToggle);
        // The arrival rate changed: invalidate the pending interarrival
        // draw and resample under the new rate (exact by memorylessness).
        self.arrival_epoch += 1;
        self.schedule_next_arrival();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> SimConfig {
        SimConfig {
            arrival_rate: 4.0,
            holding: HoldingTime::Exponential { mean: 1.0 },
            pattern: TrafficPattern::Uniform,
            fault_rate: 0.0,
            fault_open_share: 0.5,
            mttr: 0.0,
            duration: 50.0,
            warmup: 0.0,
            buckets: 5,
            faults: FaultSpec::Iid,
            retry: RetryPolicy::OnRepair,
            reroute: RerouteMode::Greedy,
        }
    }

    #[test]
    fn arrival_accounting_is_conserved() {
        let fabric = Fabric::clos_strict(2, 3);
        let out = run_seed(&fabric, &base_cfg(), 7);
        let m = &out.metrics;
        assert!(m.offered > 100);
        assert_eq!(m.offered, m.connected + m.blocked + m.rejected_busy);
        // fault-free: no drops, every connected call completes or is
        // still live at the end
        assert_eq!(m.dropped, 0);
        assert_eq!(m.faults, 0);
        assert!(m.completed <= m.connected);
        let bucket_offered: u64 = m.buckets.iter().map(|b| b.offered).sum();
        assert_eq!(bucket_offered, m.offered);
    }

    #[test]
    fn strictly_nonblocking_fabric_never_blocks() {
        let fabric = Fabric::clos_strict(2, 3);
        let mut cfg = base_cfg();
        cfg.arrival_rate = 20.0; // saturating load
        let out = run_seed(&fabric, &cfg, 11);
        assert_eq!(out.metrics.blocked, 0, "{:?}", out.metrics);
        assert!(out.metrics.rejected_busy > 0, "load too low to saturate");
    }

    #[test]
    fn same_seed_reproduces_fingerprint_and_metrics() {
        let fabric = Fabric::clos_strict(2, 2);
        let mut cfg = base_cfg();
        cfg.fault_rate = 0.002;
        cfg.mttr = 5.0;
        let a = run_seed(&fabric, &cfg, 42);
        let b = run_seed(&fabric, &cfg, 42);
        assert_eq!(a, b);
        let c = run_seed(&fabric, &cfg, 43);
        assert_ne!(a.fingerprint, c.fingerprint);
    }

    #[test]
    fn workspace_reuse_matches_fresh_buffers() {
        let fabric = Fabric::clos_strict(2, 2);
        let mut cfg = base_cfg();
        cfg.fault_rate = 0.005;
        cfg.mttr = 3.0;
        let mut ws = SimWorkspace::default();
        let first = run_seed_with(&fabric, &cfg, 1, &mut ws);
        let second = run_seed_with(&fabric, &cfg, 2, &mut ws);
        assert_eq!(first, run_seed(&fabric, &cfg, 1));
        assert_eq!(second, run_seed(&fabric, &cfg, 2));
    }

    #[test]
    fn faults_drop_and_reroute_sessions() {
        let fabric = Fabric::clos_strict(2, 3);
        let mut cfg = base_cfg();
        cfg.arrival_rate = 3.0;
        cfg.holding = HoldingTime::Exponential { mean: 4.0 };
        cfg.fault_rate = 0.004;
        cfg.mttr = 10.0;
        cfg.duration = 400.0;
        let out = run_seed(&fabric, &cfg, 5);
        let m = &out.metrics;
        assert!(m.faults > 10, "faults {}", m.faults);
        assert!(m.repairs > 0);
        assert!(m.dropped > 0);
        assert_eq!(m.dropped, m.rerouted + m.abandoned);
        // The strict Clos has spare middle capacity: most drops reroute.
        assert!(m.rerouted > 0);
    }

    #[test]
    fn mincost_reroute_keeps_identities_and_moves_no_more_than_greedy() {
        let fabric = Fabric::clos_strict(2, 3);
        let mut cfg = base_cfg();
        cfg.arrival_rate = 6.0;
        cfg.holding = HoldingTime::Exponential { mean: 2.0 };
        cfg.faults = FaultSpec::Storm {
            rate: 0.05,
            window: 2.0,
            stage: Some(1),
        };
        cfg.mttr = 8.0;
        cfg.duration = 300.0;
        let greedy = run_seed(&fabric, &cfg, 13);
        cfg.reroute = RerouteMode::Mincost;
        let mincost = run_seed(&fabric, &cfg, 13);
        for out in [&greedy, &mincost] {
            let m = &out.metrics;
            assert!(m.dropped > 0, "storms produced no drops");
            assert_eq!(m.dropped, m.rerouted + m.abandoned);
        }
        assert!(greedy.metrics.moved >= greedy.metrics.rerouted);
        assert!(
            mincost.metrics.moved <= greedy.metrics.moved,
            "mincost moved {} > greedy moved {}",
            mincost.metrics.moved,
            greedy.metrics.moved
        );
    }

    #[test]
    fn greedy_mode_is_byte_identical_to_default() {
        // `reroute = greedy` is the pre-portfolio behaviour: the enum
        // only branches at the kill wave, so the whole outcome — not
        // just the fingerprint — must be identical.
        let fabric = Fabric::clos_strict(2, 2);
        let mut cfg = base_cfg();
        cfg.fault_rate = 0.01;
        cfg.mttr = 5.0;
        cfg.duration = 200.0;
        let a = run_seed(&fabric, &cfg, 42);
        cfg.reroute = RerouteMode::Greedy;
        let b = run_seed(&fabric, &cfg, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn permanent_faults_degrade_until_blocked() {
        let fabric = Fabric::clos_strict(2, 2);
        let mut cfg = base_cfg();
        cfg.fault_rate = 0.02;
        cfg.mttr = 0.0; // no repair: the fabric decays
        cfg.duration = 300.0;
        let out = run_seed(&fabric, &cfg, 3);
        assert!(out.metrics.blocked > 0, "{:?}", out.metrics);
        assert_eq!(out.metrics.repairs, 0);
    }

    #[test]
    fn warmup_gates_headline_counters_not_buckets() {
        let fabric = Fabric::crossbar(4);
        let mut cfg = base_cfg();
        cfg.warmup = 25.0;
        let full = run_seed(&fabric, &cfg, 9);
        cfg.warmup = 0.0;
        let ungated = run_seed(&fabric, &cfg, 9);
        assert!(full.metrics.offered < ungated.metrics.offered);
        // identical event streams: warmup changes accounting, not dynamics
        assert_eq!(full.fingerprint, ungated.fingerprint);
        let fb: u64 = full.metrics.buckets.iter().map(|b| b.offered).sum();
        let ub: u64 = ungated.metrics.buckets.iter().map(|b| b.offered).sum();
        assert_eq!(fb, ub);
    }

    /// Records the sim-time of the first fault event.
    struct FirstFault(Option<f64>);

    impl Observer for FirstFault {
        fn event(&mut self, time: f64, _seq: u64, ev: &TraceEvent<'_>) {
            if self.0.is_none() && matches!(ev, TraceEvent::Fault { .. }) {
                self.0 = Some(time);
            }
        }
    }

    #[test]
    fn warmup_gates_time_integrals() {
        // A permanent fault (no repair) before the warm-up ends keeps the
        // fabric degraded for the rest of the run, so the degraded-time
        // integral must cover exactly the measured window.
        let fabric = Fabric::clos_strict(2, 2);
        let mut cfg = base_cfg();
        cfg.fault_rate = 0.02;
        cfg.mttr = 0.0;
        cfg.warmup = 20.0;
        let mut first = FirstFault(None);
        let out = run_seed_obs(&fabric, &cfg, 3, &mut SimWorkspace::default(), &mut first);
        let t = first.0.expect("no fault struck");
        assert!(t < cfg.warmup, "first fault at {t}, after the warm-up");
        let want = cfg.duration - cfg.warmup;
        assert!(
            (out.metrics.degraded_time - want).abs() < 1e-9,
            "degraded_time {} != duration - warmup {want}",
            out.metrics.degraded_time
        );
    }

    #[test]
    fn bursty_pattern_raises_offered_load() {
        let fabric = Fabric::crossbar(8);
        let mut quiet = base_cfg();
        quiet.duration = 200.0;
        let mut bursty = quiet.clone();
        bursty.pattern = TrafficPattern::Bursty {
            mean_on: 5.0,
            mean_off: 5.0,
            boost: 6.0,
        };
        let q = run_seed(&fabric, &quiet, 21);
        let b = run_seed(&fabric, &bursty, 21);
        // on/off split ~50/50 at 6x boost => ~3.5x the arrivals
        assert!(
            b.metrics.offered as f64 > 2.0 * q.metrics.offered as f64,
            "quiet {} bursty {}",
            q.metrics.offered,
            b.metrics.offered
        );
    }

    #[test]
    #[should_panic(expected = "cannot express switch faults")]
    fn crossbar_with_faults_is_rejected() {
        let fabric = Fabric::crossbar(4);
        let mut cfg = base_cfg();
        cfg.fault_rate = 0.01;
        run_seed(&fabric, &cfg, 1);
    }
}
