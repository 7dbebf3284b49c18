//! Pluggable fault-injection processes.
//!
//! The paper's analysis — and the engine's original fault loop — assumes
//! switches fail independently at a per-switch exponential rate. Real
//! fabrics also die in *correlated* ways: a power domain takes out a
//! whole middle-stage group, a firmware push sweeps a cluster of
//! adjacent switches, an adversary aims at the switches carrying the
//! most circuits. The [`FaultInjector`] trait abstracts *which switch
//! fails next and when*, while the engine keeps ownership of everything
//! downstream of a strike (repair mask, kills, reroutes, repairs), so
//! every process rides the same deterministic `(time, seq)` event
//! discipline.
//!
//! Contract: the engine calls [`FaultInjector::next_fault`] once at
//! `t = 0` and again after every fault or repair event, invalidating
//! the previously scheduled draw through its epoch guard (so a process
//! may either redraw — exact for the memoryless i.i.d. process — or
//! return a remembered schedule). When a scheduled fault fires, the
//! engine calls [`FaultInjector::strike`] to pick the victim. All
//! randomness flows through the engine's single seeded RNG in event
//! order, which is what keeps event streams byte-reproducible per seed.
//!
//! Four processes are provided, selected by [`FaultSpec`]:
//!
//! * [`FaultSpec::Iid`] — the original aggregate process,
//!   next-failure ~ `Exp(healthy · fault_rate)` with a uniformly random
//!   healthy victim. Byte-identical to the pre-trait engine (pinned by
//!   the golden fingerprints in `tests/determinism.rs`).
//! * [`FaultSpec::Storm`] — group storms: at Poisson storm arrivals,
//!   every healthy switch leaving one stage (configured or uniformly
//!   random) fails, the strikes spread evenly over a short window.
//! * [`FaultSpec::Burst`] — spatially correlated bursts: a uniformly
//!   random healthy seed switch plus its BFS neighborhood (switches
//!   sharing a vertex, i.e. stage-adjacent) up to a configured cluster
//!   size, spread over a window.
//! * [`FaultSpec::Targeted`] — a greedy max-damage adversary: at each
//!   Poisson attack it scans the healthy switches and fails the one
//!   whose discard kills the most live circuits (tie-broken by how many
//!   alive internal endpoints it discards, then by lowest switch id —
//!   computed from the incremental alive mask and the router's
//!   vertex→session owner index).
//!
//! The reaction side — what the engine does with the calls a strike
//! kills — is configured independently by [`RetryPolicy`].

use crate::core::SwitchingCore;
use crate::engine::SimConfig;
use crate::workload::exp_draw;
use ft_failure::{FailureInstance, SwitchState};
use ft_graph::{Digraph, EdgeId};
use ft_networks::SessionId;
use rand::rngs::SmallRng;
use rand::Rng;

/// Which fault-injection process drives a run.
///
/// Parsed from the scenario directive
/// `faults = iid | storm RATE WINDOW [STAGE] | burst RATE SIZE WINDOW |
/// targeted RATE`; see the module docs for what each process does. The
/// non-i.i.d. processes carry their own intensity (`RATE` = expected
/// episodes per time unit) and require `fault_rate = 0` — the scenario
/// validator enforces the split so a sweep never superposes two
/// processes by accident.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// Independent per-switch exponential failures at `fault_rate`
    /// (the default; the paper's model).
    Iid,
    /// Group storms: whole-stage sweeps at Poisson rate `rate`.
    Storm {
        /// Storm arrivals per time unit.
        rate: f64,
        /// Strikes of one storm spread evenly over this span.
        window: f64,
        /// Victim stage (tail stage of the killed switches); `None`
        /// picks a random internal stage per storm.
        stage: Option<usize>,
    },
    /// Spatially correlated bursts: seed + BFS cluster of
    /// vertex-adjacent switches.
    Burst {
        /// Burst arrivals per time unit.
        rate: f64,
        /// Cluster size (healthy switches per burst, including seed).
        size: usize,
        /// Strikes of one burst spread evenly over this span.
        window: f64,
    },
    /// Greedy max-damage adversary at Poisson rate `rate`.
    Targeted {
        /// Attacks per time unit.
        rate: f64,
    },
}

impl FaultSpec {
    /// Whether this spec is the i.i.d. baseline process.
    pub fn is_iid(&self) -> bool {
        matches!(self, FaultSpec::Iid)
    }

    /// Whether the process can produce any fault at all (drives the
    /// engine's fault-capability assertion and the scenario validator).
    pub fn active(&self, fault_rate: f64) -> bool {
        match self {
            FaultSpec::Iid => fault_rate > 0.0,
            _ => true,
        }
    }

    /// The spec as it appears in scenario text (the parser's inverse;
    /// `ftexp` hashes this into cell cache keys).
    pub fn to_spec_string(&self) -> String {
        match *self {
            FaultSpec::Iid => "iid".into(),
            FaultSpec::Storm {
                rate,
                window,
                stage: None,
            } => format!("storm {rate} {window}"),
            FaultSpec::Storm {
                rate,
                window,
                stage: Some(s),
            } => format!("storm {rate} {window} {s}"),
            FaultSpec::Burst { rate, size, window } => format!("burst {rate} {size} {window}"),
            FaultSpec::Targeted { rate } => format!("targeted {rate}"),
        }
    }

    /// Instantiates the injector for one seed's run.
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn FaultInjector> {
        let open_share = cfg.fault_open_share;
        match *self {
            FaultSpec::Iid => Box::new(IidExp {
                rate: cfg.fault_rate,
                open_share,
            }),
            FaultSpec::Storm {
                rate,
                window,
                stage,
            } => Box::new(GroupStorm {
                rate,
                window,
                stage,
                open_share,
                next_start: None,
                victims: Vec::new(),
                cursor: 0,
            }),
            FaultSpec::Burst { rate, size, window } => Box::new(SpatialBurst {
                rate,
                size: size.max(1),
                window,
                open_share,
                next_start: None,
                victims: Vec::new(),
                cursor: 0,
            }),
            FaultSpec::Targeted { rate } => Box::new(Targeted {
                rate,
                open_share,
                next_start: None,
            }),
        }
    }
}

/// How the engine reacts to calls killed by a fault — the degradation
/// ladder.
///
/// Parsed from `retry = on-repair | budget N backoff BASE [shed DEPTH]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RetryPolicy {
    /// The original policy (the default): one immediate reroute
    /// attempt, then the call waits in the pending queue and retries at
    /// every repair completion until it reroutes or its hangup deadline
    /// expires.
    OnRepair,
    /// Deterministic exponential backoff with admission shedding: one
    /// immediate attempt, then up to `budget` retries at delays
    /// `base, 2·base, 4·base, …`; repairs do *not* trigger retries.
    /// When a kill arrives while the waiting-reroute queue already
    /// holds `shed_depth` calls (storm overload), the call is shed
    /// immediately instead of queued.
    Backoff {
        /// Retry attempts after the immediate one (0 = immediate only).
        budget: u32,
        /// First backoff delay; each further retry doubles it.
        base: f64,
        /// Queue depth that triggers admission shedding (0 = never).
        shed_depth: usize,
    },
}

impl RetryPolicy {
    /// The policy as it appears in scenario text (the parser's inverse).
    pub fn to_spec_string(&self) -> String {
        match *self {
            RetryPolicy::OnRepair => "on-repair".into(),
            RetryPolicy::Backoff {
                budget,
                base,
                shed_depth: 0,
            } => format!("budget {budget} backoff {base}"),
            RetryPolicy::Backoff {
                budget,
                base,
                shed_depth,
            } => format!("budget {budget} backoff {base} shed {shed_depth}"),
        }
    }
}

/// How the engine replaces the circuits a strike kills — the placement
/// planner for the kill-time reroute wave.
///
/// Parsed from `reroute = greedy | mincost`. Orthogonal to
/// [`RetryPolicy`], which decides *when* further attempts happen;
/// this decides *how* the batch of victims dying at one strike is
/// placed back onto the fabric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RerouteMode {
    /// The original policy (the default): victims are rerouted one at a
    /// time in kill order, each by an independent shortest-path search
    /// over whatever capacity the previous victims left behind.
    #[default]
    Greedy,
    /// Min-cost placement: each victim, in kill order, is placed on a
    /// cheapest idle path (cost = fabric vertices occupied) by a
    /// Dijkstra whose potentials carry through the kill wave, and is
    /// never repacked. No reroute is *executed* unless a placement
    /// exists — a failed probe never touches the fabric. On
    /// unit-staged fabrics every path costs the same, so this differs
    /// from `Greedy` only in its tie-break and in what `moved` books.
    Mincost,
}

impl RerouteMode {
    /// The mode as it appears in scenario text (the parser's inverse;
    /// `ftexp` hashes this into cell cache keys).
    pub fn to_spec_string(&self) -> &'static str {
        match self {
            RerouteMode::Greedy => "greedy",
            RerouteMode::Mincost => "mincost",
        }
    }
}

/// One fault the process wants to land *now*.
pub struct Strike {
    /// The victim switch (guaranteed healthy at strike time).
    pub edge: EdgeId,
    /// Failure mode (open or closed).
    pub state: SwitchState,
    /// Whether this strike opens a new fault episode (a storm/burst
    /// start, a targeted attack, or — for the i.i.d. process — every
    /// fault). Drives the `storms` recovery metric.
    pub new_episode: bool,
}

/// A fault process behind the engine's deterministic event discipline.
///
/// Implementations must draw randomness only from the `rng` handed in,
/// and only inside these two calls — the engine invokes them at fixed
/// points of the event order, which is what makes every process
/// byte-reproducible per seed and independent of sweep thread count.
/// `ctx` is the engine's switching core, read-only.
pub trait FaultInjector {
    /// Absolute time of the next fault, or `None` if the process is
    /// currently inert. Called at `t = 0` and after every fault/repair
    /// event; the engine discards the previous answer (epoch guard), so
    /// a remembered schedule must be returned again, clamped to `now`.
    fn next_fault(&mut self, now: f64, ctx: &SwitchingCore<'_>, rng: &mut SmallRng) -> Option<f64>;

    /// Chooses the victim for a fault event firing at `now`, or `None`
    /// to skip (e.g. a storm whose target group has no healthy switch).
    fn strike(&mut self, now: f64, ctx: &SwitchingCore<'_>, rng: &mut SmallRng) -> Option<Strike>;
}

/// Uniformly random healthy switch (rejection sampling with a
/// deterministic linear-scan fallback).
///
/// # Panics
/// Panics if no switch is healthy — callers guard on `healthy > 0`.
pub(crate) fn pick_healthy_edge(inst: &FailureInstance, rng: &mut SmallRng) -> EdgeId {
    let m = inst.len();
    for _ in 0..128 {
        let e = EdgeId::from(rng.random_range(0..m));
        if inst.is_normal(e) {
            return e;
        }
    }
    let start = rng.random_range(0..m);
    for k in 0..m {
        let e = EdgeId::from((start + k) % m);
        if inst.is_normal(e) {
            return e;
        }
    }
    unreachable!("pick_healthy_edge called with no healthy switch");
}

fn draw_state(open_share: f64, rng: &mut SmallRng) -> SwitchState {
    if rng.random::<f64>() < open_share {
        SwitchState::Open
    } else {
        SwitchState::Closed
    }
}

/// The original aggregate i.i.d. process: next-failure ~
/// `Exp(healthy · rate)` (exact superposition, redrawn after every
/// healthy-count change — valid by memorylessness), uniformly random
/// healthy victim. RNG call-for-call identical to the pre-trait engine.
struct IidExp {
    rate: f64,
    open_share: f64,
}

impl FaultInjector for IidExp {
    fn next_fault(&mut self, now: f64, ctx: &SwitchingCore<'_>, rng: &mut SmallRng) -> Option<f64> {
        if self.rate > 0.0 && ctx.healthy() > 0 {
            let mean = 1.0 / (ctx.healthy() as f64 * self.rate);
            Some(now + exp_draw(rng, mean))
        } else {
            None
        }
    }

    fn strike(&mut self, _now: f64, ctx: &SwitchingCore<'_>, rng: &mut SmallRng) -> Option<Strike> {
        let edge = pick_healthy_edge(ctx.instance(), rng);
        Some(Strike {
            edge,
            state: draw_state(self.open_share, rng),
            new_episode: true,
        })
    }
}

/// Shared scaffolding for episode processes (storms and bursts): a
/// remembered Poisson arrival for the next episode start, plus a queue
/// of pre-scheduled `(time, victim)` strikes for the one in progress.
/// `next_fault` answers from the queue first; the arrival draw happens
/// at most once per episode (the rate is fixed, so — unlike the
/// i.i.d. superposition — nothing is redrawn on healthy-count changes).
fn episode_next_fault(
    now: f64,
    rate: f64,
    next_start: &mut Option<f64>,
    victims: &[(f64, EdgeId)],
    cursor: usize,
    rng: &mut SmallRng,
) -> Option<f64> {
    if let Some(&(t, _)) = victims.get(cursor) {
        // Clamp: a stale-guard round trip may re-ask after `t` passed.
        return Some(t.max(now));
    }
    if rate <= 0.0 {
        return None;
    }
    let t = *next_start.get_or_insert_with(|| now + exp_draw(rng, 1.0 / rate));
    Some(t.max(now))
}

/// Spreads `group` over `[now, now + window]` as the strike queue and
/// returns the first strike (landing immediately).
fn begin_episode(
    now: f64,
    window: f64,
    group: &[EdgeId],
    victims: &mut Vec<(f64, EdgeId)>,
    cursor: &mut usize,
    open_share: f64,
    rng: &mut SmallRng,
) -> Option<Strike> {
    victims.clear();
    *cursor = 0;
    let first = *group.first()?;
    let k = group.len();
    for (i, &e) in group.iter().enumerate().skip(1) {
        victims.push((now + window * i as f64 / k as f64, e));
    }
    Some(Strike {
        edge: first,
        state: draw_state(open_share, rng),
        new_episode: true,
    })
}

/// Group storms: at each Poisson arrival every healthy switch leaving
/// one stage fails within `window`.
struct GroupStorm {
    rate: f64,
    window: f64,
    stage: Option<usize>,
    open_share: f64,
    next_start: Option<f64>,
    victims: Vec<(f64, EdgeId)>,
    cursor: usize,
}

impl FaultInjector for GroupStorm {
    fn next_fault(
        &mut self,
        now: f64,
        _ctx: &SwitchingCore<'_>,
        rng: &mut SmallRng,
    ) -> Option<f64> {
        episode_next_fault(
            now,
            self.rate,
            &mut self.next_start,
            &self.victims,
            self.cursor,
            rng,
        )
    }

    fn strike(&mut self, now: f64, ctx: &SwitchingCore<'_>, rng: &mut SmallRng) -> Option<Strike> {
        if let Some(&(_, e)) = self.victims.get(self.cursor) {
            self.cursor += 1;
            // A victim scheduled healthy can only have changed state by
            // being repaired mid-storm (repairs re-heal, never fail), so
            // it is still strikeable; the guard is belt-and-braces.
            if !ctx.instance().is_normal(e) {
                return None;
            }
            return Some(Strike {
                edge: e,
                state: draw_state(self.open_share, rng),
                new_episode: false,
            });
        }
        self.next_start = None;
        let stages = ctx.net().num_stages();
        // Victim stages are tail stages of switches: 0..stages-1. The
        // random pick sticks to internal stages (a "middle-stage group")
        // when the fabric has any.
        let s = match self.stage {
            Some(s) => s.min(stages.saturating_sub(2)),
            None => {
                if stages >= 3 {
                    rng.random_range(1..stages - 1)
                } else {
                    0
                }
            }
        };
        let mut group: Vec<EdgeId> = Vec::new();
        for v in ctx.net().stage_vertices(s) {
            for e in ctx.net().graph().out_edges(v) {
                if ctx.instance().is_normal(e) {
                    group.push(e);
                }
            }
        }
        begin_episode(
            now,
            self.window,
            &group,
            &mut self.victims,
            &mut self.cursor,
            self.open_share,
            rng,
        )
    }
}

/// Spatially correlated bursts: a uniformly random healthy seed switch
/// plus its BFS cluster of vertex-adjacent healthy switches, up to
/// `size`, within `window`.
struct SpatialBurst {
    rate: f64,
    size: usize,
    window: f64,
    open_share: f64,
    next_start: Option<f64>,
    victims: Vec<(f64, EdgeId)>,
    cursor: usize,
}

impl FaultInjector for SpatialBurst {
    fn next_fault(
        &mut self,
        now: f64,
        _ctx: &SwitchingCore<'_>,
        rng: &mut SmallRng,
    ) -> Option<f64> {
        episode_next_fault(
            now,
            self.rate,
            &mut self.next_start,
            &self.victims,
            self.cursor,
            rng,
        )
    }

    fn strike(&mut self, now: f64, ctx: &SwitchingCore<'_>, rng: &mut SmallRng) -> Option<Strike> {
        if let Some(&(_, e)) = self.victims.get(self.cursor) {
            self.cursor += 1;
            if !ctx.instance().is_normal(e) {
                return None;
            }
            return Some(Strike {
                edge: e,
                state: draw_state(self.open_share, rng),
                new_episode: false,
            });
        }
        self.next_start = None;
        if ctx.healthy() == 0 {
            return None;
        }
        let seed = pick_healthy_edge(ctx.instance(), rng);
        // BFS over switch adjacency (switches sharing a vertex), seeded
        // at `seed`, collecting healthy switches in deterministic
        // discovery order. Failed switches still conduct adjacency —
        // the cluster is spatial, not health-dependent.
        let g = ctx.net().graph();
        let mut visited = vec![false; g.num_edges()];
        visited[seed.index()] = true;
        let mut group = vec![seed];
        let mut frontier = 0;
        while frontier < group.len() && group.len() < self.size {
            let e = group[frontier];
            frontier += 1;
            let (t, h) = g.endpoints(e);
            'scan: for v in [t, h] {
                for e2 in g.out_edges(v).chain(g.in_edges(v).iter().copied()) {
                    if !visited[e2.index()] {
                        visited[e2.index()] = true;
                        if ctx.instance().is_normal(e2) {
                            group.push(e2);
                            if group.len() == self.size {
                                break 'scan;
                            }
                        }
                    }
                }
            }
        }
        begin_episode(
            now,
            self.window,
            &group,
            &mut self.victims,
            &mut self.cursor,
            self.open_share,
            rng,
        )
    }
}

/// Greedy max-damage adversary: scans every healthy switch and fails
/// the one killing the most live circuits.
struct Targeted {
    rate: f64,
    open_share: f64,
    next_start: Option<f64>,
}

impl FaultInjector for Targeted {
    fn next_fault(
        &mut self,
        now: f64,
        _ctx: &SwitchingCore<'_>,
        rng: &mut SmallRng,
    ) -> Option<f64> {
        if self.rate <= 0.0 {
            return None;
        }
        let t = *self
            .next_start
            .get_or_insert_with(|| now + exp_draw(rng, 1.0 / self.rate));
        Some(t.max(now))
    }

    fn strike(&mut self, _now: f64, ctx: &SwitchingCore<'_>, rng: &mut SmallRng) -> Option<Strike> {
        self.next_start = None;
        let g = ctx.net();
        let is_terminal = g.terminal_mask();
        // Damage of failing switch e: how many live circuits cross the
        // internal endpoints its discard would newly kill (each vertex
        // carries at most one circuit, so the score is 0..=2), then how
        // many alive internal endpoints it discards (mask impact), then
        // lowest id. First-win keeps ties deterministic.
        let mut best: Option<(u32, u32, EdgeId)> = None;
        for i in 0..g.num_edges() {
            let e = EdgeId::from(i);
            if !ctx.instance().is_normal(e) {
                continue;
            }
            let (t, h) = g.graph().endpoints(e);
            let mut circuits = 0u32;
            let mut discards = 0u32;
            let mut seen: Option<SessionId> = None;
            for v in [t, h] {
                if is_terminal[v.index()] || !ctx.alive()[v.index()] {
                    continue;
                }
                discards += 1;
                if let Some(id) = ctx.router().session_through(v) {
                    if seen != Some(id) {
                        circuits += 1;
                        seen = Some(id);
                    }
                }
            }
            if best.is_none_or(|(c, d, _)| (circuits, discards) > (c, d)) {
                best = Some((circuits, discards, e));
            }
        }
        let (_, _, edge) = best?;
        Some(Strike {
            edge,
            state: draw_state(self.open_share, rng),
            new_episode: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_strings_round_trip_the_parser_grammar() {
        for (spec, text) in [
            (FaultSpec::Iid, "iid"),
            (
                FaultSpec::Storm {
                    rate: 0.5,
                    window: 2.0,
                    stage: None,
                },
                "storm 0.5 2",
            ),
            (
                FaultSpec::Storm {
                    rate: 0.5,
                    window: 2.0,
                    stage: Some(3),
                },
                "storm 0.5 2 3",
            ),
            (
                FaultSpec::Burst {
                    rate: 0.25,
                    size: 6,
                    window: 1.5,
                },
                "burst 0.25 6 1.5",
            ),
            (FaultSpec::Targeted { rate: 0.1 }, "targeted 0.1"),
        ] {
            assert_eq!(spec.to_spec_string(), text);
        }
        assert_eq!(RetryPolicy::OnRepair.to_spec_string(), "on-repair");
        assert_eq!(
            RetryPolicy::Backoff {
                budget: 3,
                base: 0.5,
                shed_depth: 0
            }
            .to_spec_string(),
            "budget 3 backoff 0.5"
        );
        assert_eq!(
            RetryPolicy::Backoff {
                budget: 3,
                base: 0.5,
                shed_depth: 16
            }
            .to_spec_string(),
            "budget 3 backoff 0.5 shed 16"
        );
        assert_eq!(RerouteMode::Greedy.to_spec_string(), "greedy");
        assert_eq!(RerouteMode::Mincost.to_spec_string(), "mincost");
        assert_eq!(RerouteMode::default(), RerouteMode::Greedy);
    }

    #[test]
    fn activity_rules() {
        assert!(!FaultSpec::Iid.active(0.0));
        assert!(FaultSpec::Iid.active(0.01));
        assert!(FaultSpec::Targeted { rate: 0.1 }.active(0.0));
        assert!(FaultSpec::Storm {
            rate: 0.1,
            window: 1.0,
            stage: None
        }
        .active(0.0));
    }
}
