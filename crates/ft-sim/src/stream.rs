//! Deterministic workload-stream export for the `ftserve` replay
//! client.
//!
//! A *stream* is the offline rendering of one seed's traffic and fault
//! schedule: connects with their matching disconnects, plus switch
//! fault/repair times — everything a live client needs to drive the
//! online service through the same regime a scenario's simulation run
//! covers. The export is a pure function of `(scenario, seed)` drawn
//! from the workspace RNG in a fixed order, so two exports of the same
//! pair are identical event for event (pinned by tests), which is what
//! lets `ftserve --deterministic` runs produce byte-identical reports:
//! the replay client plays the stream in lockstep, so the server sees a
//! reproducible request sequence.
//!
//! The fault schedule is an *open-loop surrogate* of the engine's
//! closed-loop injectors: it draws from the same processes (i.i.d.
//! exponential, stage-group storms, correlated bursts, targeted
//! strikes) but against its own failed-switch ledger rather than the
//! live engine state, and the burst/targeted variants strike uniformly
//! rather than by adjacency/damage. That is deliberate — a recorded
//! stream must not depend on how the server reacts to it.
//!
//! Streams render to NDJSON (`render_ndjson`/[`parse_ndjson`]) so they
//! can be recorded by `ftsim --export-stream`, inspected with standard
//! tools, and replayed from disk.

use crate::scenario::Scenario;
use crate::workload::{exp_draw, TrafficPattern};
use ft_graph::gen::{random_permutation, rng};
use ft_obs::{JsonWriter, Layout};

/// One replayable service request (or fault-process strike) at a
/// virtual timestamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamEvent {
    /// Virtual time of the event (same clock as the scenario's
    /// `duration`); the replay client maps it to wall-clock via its
    /// speed multiplier.
    pub time: f64,
    /// What happens at `time`.
    pub kind: StreamKind,
}

/// The event payload of a [`StreamEvent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamKind {
    /// Establish circuit `id` from input terminal `src` to output
    /// terminal `dst`.
    Connect {
        /// Client-chosen circuit id (unique within the stream).
        id: u64,
        /// Input terminal index.
        src: u32,
        /// Output terminal index.
        dst: u32,
    },
    /// Release circuit `id` (its holding time expired).
    Disconnect {
        /// The circuit id of the matching connect.
        id: u64,
    },
    /// Inject a switch failure.
    Fault {
        /// Failing switch (edge index).
        switch: u32,
        /// Open failure (`true`) or closed (`false`).
        open: bool,
    },
    /// Repair a previously failed switch.
    Repair {
        /// The switch being restored.
        switch: u32,
    },
}

/// Exports the deterministic stream of one `(scenario, seed)` pair.
///
/// Events come back sorted by `(time, generation order)` — ties break
/// by the order the generator drew them, so the result is a total
/// order and two exports of the same pair are equal element-wise.
pub fn export_stream(scenario: &Scenario, seed: u64) -> Vec<StreamEvent> {
    let fabric = scenario.fabric.build();
    let cfg = &scenario.config;
    let n = fabric.terminals();
    let mut r = rng(seed);
    let mut events: Vec<StreamEvent> = Vec::new();

    // Traffic: Poisson connects with their holding-time disconnects.
    // Disconnects falling past `duration` are omitted — those circuits
    // stay up until the client's session ends, like calls still live
    // at the end of a simulation run.
    let perm = if matches!(cfg.pattern, TrafficPattern::Permutation) {
        random_permutation(&mut r, n)
    } else {
        Vec::new()
    };
    if cfg.arrival_rate > 0.0 {
        let mut t = 0.0;
        let mut id = 0u64;
        loop {
            t += exp_draw(&mut r, 1.0 / cfg.arrival_rate);
            if t >= cfg.duration {
                break;
            }
            id += 1;
            let (src, dst) = cfg.pattern.sample_pair(&mut r, n, &perm);
            let hold = cfg.holding.sample(&mut r);
            events.push(StreamEvent {
                time: t,
                kind: StreamKind::Connect {
                    id,
                    src: src as u32,
                    dst: dst as u32,
                },
            });
            if t + hold < cfg.duration {
                events.push(StreamEvent {
                    time: t + hold,
                    kind: StreamKind::Disconnect { id },
                });
            }
        }
    }

    // Faults: the open-loop surrogate schedule (see module docs).
    if fabric.spec().fault_support().is_ok() && cfg.faults.active(cfg.fault_rate) {
        push_fault_schedule(&mut events, scenario, &fabric, &mut r);
    }

    // Stable sort on time: the per-source generation order breaks ties
    // deterministically.
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    events
}

/// Draws the surrogate fault/repair schedule into `events`.
fn push_fault_schedule(
    events: &mut Vec<StreamEvent>,
    scenario: &Scenario,
    fabric: &crate::fabric::Fabric,
    r: &mut rand::rngs::SmallRng,
) {
    use crate::inject::FaultSpec;
    use rand::Rng;

    let cfg = &scenario.config;
    let net = fabric.net();
    let m = net.size();
    if m == 0 {
        return;
    }
    // Interval ledger: switch `s` is down during `[strike, failed_until[s])`
    // (`INFINITY` = permanent). Strike times from different episodes
    // can interleave (overlapping storm windows), so an interval test
    // is the exact guard where an apply-repairs-in-order sweep would
    // mis-order.
    let mut failed_until = vec![f64::NEG_INFINITY; m];
    let strike = |t: f64,
                  s: u32,
                  r: &mut rand::rngs::SmallRng,
                  failed_until: &mut [f64],
                  events: &mut Vec<StreamEvent>| {
        if t < failed_until[s as usize] {
            return; // still down from an earlier strike
        }
        let open = r.random::<f64>() < cfg.fault_open_share;
        events.push(StreamEvent {
            time: t,
            kind: StreamKind::Fault { switch: s, open },
        });
        failed_until[s as usize] = f64::INFINITY;
        if cfg.mttr > 0.0 {
            let rt = t + exp_draw(r, cfg.mttr);
            if rt < cfg.duration {
                failed_until[s as usize] = rt;
                events.push(StreamEvent {
                    time: rt,
                    kind: StreamKind::Repair { switch: s },
                });
            }
        }
    };

    match cfg.faults {
        FaultSpec::Iid => {
            let mut t = 0.0;
            loop {
                t += exp_draw(r, 1.0 / (cfg.fault_rate * m as f64));
                if t >= cfg.duration {
                    break;
                }
                let s = r.random_range(0..m) as u32;
                strike(t, s, r, &mut failed_until, events);
            }
        }
        FaultSpec::Storm {
            rate,
            window,
            stage,
        } => {
            // A storm sweeps the switches whose tail vertex sits in one
            // internal stage, spread evenly across `window`.
            let stages = net.num_stages();
            let mut t = 0.0;
            loop {
                t += exp_draw(r, 1.0 / rate);
                if t >= cfg.duration {
                    break;
                }
                let victim_stage = match stage {
                    Some(s) => s.min(stages.saturating_sub(2)),
                    // internal tail stages are 1 ..= stages - 2
                    None => {
                        if stages <= 2 {
                            0
                        } else {
                            1 + r.random_range(0..stages - 2)
                        }
                    }
                };
                let victims: Vec<u32> = (0..m)
                    .filter(|&e| {
                        let (tail, _) = net.graph().endpoints(ft_graph::EdgeId::from(e));
                        net.stage_of(tail) == victim_stage
                    })
                    .map(|e| e as u32)
                    .collect();
                let k = victims.len();
                for (i, &s) in victims.iter().enumerate() {
                    let st = t + window * i as f64 / k.max(1) as f64;
                    if st >= cfg.duration {
                        break;
                    }
                    strike(st, s, r, &mut failed_until, events);
                }
            }
        }
        FaultSpec::Burst { rate, size, window } => {
            // Surrogate burst: `size` uniform strikes across `window`
            // (the engine's injector clusters by adjacency; a recorded
            // stream keeps the volume and tempo, not the geometry).
            let mut t = 0.0;
            loop {
                t += exp_draw(r, 1.0 / rate);
                if t >= cfg.duration {
                    break;
                }
                for i in 0..size {
                    let st = t + window * i as f64 / size.max(1) as f64;
                    if st >= cfg.duration {
                        break;
                    }
                    let s = r.random_range(0..m) as u32;
                    strike(st, s, r, &mut failed_until, events);
                }
            }
        }
        FaultSpec::Targeted { rate } => {
            // Surrogate adversary: one uniform strike per attack (the
            // engine's greedy damage choice needs live state).
            let mut t = 0.0;
            loop {
                t += exp_draw(r, 1.0 / rate);
                if t >= cfg.duration {
                    break;
                }
                let s = r.random_range(0..m) as u32;
                strike(t, s, r, &mut failed_until, events);
            }
        }
    }
}

/// Renders a stream as NDJSON, one event per line, with the same
/// shortest-round-trip float formatting the reports use — parseable by
/// [`parse_ndjson`] and by line-oriented tools.
pub fn render_ndjson(events: &[StreamEvent]) -> String {
    let mut j = JsonWriter::new();
    for e in events {
        j.object(Layout::Inline).field("t", e.time);
        match e.kind {
            StreamKind::Connect { id, src, dst } => j
                .field("ev", "connect")
                .field("id", id)
                .field("src", src)
                .field("dst", dst),
            StreamKind::Disconnect { id } => j.field("ev", "disconnect").field("id", id),
            StreamKind::Fault { switch, open } => j
                .field("ev", "fault")
                .field("switch", switch)
                .field("open", open),
            StreamKind::Repair { switch } => j.field("ev", "repair").field("switch", switch),
        };
        j.end();
    }
    j.finish()
}

/// Parses the NDJSON rendering back into events — the exact inverse of
/// [`render_ndjson`] on its own output (pinned by tests). Errors name
/// the first offending line.
pub fn parse_ndjson(text: &str) -> Result<Vec<StreamEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let fail = |what: &str| format!("stream line {}: {what}: `{line}`", i + 1);
        let field = |key: &str| -> Option<&str> {
            let pat = format!("\"{key}\": ");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim().trim_matches('"'))
        };
        let time: f64 = field("t")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| fail("bad or missing t"))?;
        let kind = match field("ev") {
            Some("connect") => StreamKind::Connect {
                id: field("id")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail("bad id"))?,
                src: field("src")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail("bad src"))?,
                dst: field("dst")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail("bad dst"))?,
            },
            Some("disconnect") => StreamKind::Disconnect {
                id: field("id")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail("bad id"))?,
            },
            Some("fault") => StreamKind::Fault {
                switch: field("switch")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail("bad switch"))?,
                open: field("open")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail("bad open"))?,
            },
            Some("repair") => StreamKind::Repair {
                switch: field("switch")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| fail("bad switch"))?,
            },
            _ => return Err(fail("unknown ev")),
        };
        events.push(StreamEvent { time, kind });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn storm_scenario() -> Scenario {
        Scenario::parse(
            "network = clos-strict 4 4\narrival_rate = 6.0\nholding = exp 1.0\n\
             fault_rate = 0\nfaults = storm 0.05 2 2\nmttr = 3\nduration = 120\nseeds = 1\n",
        )
        .unwrap()
    }

    #[test]
    fn export_is_deterministic_and_seed_sensitive() {
        let sc = storm_scenario();
        let a = export_stream(&sc, 1);
        let b = export_stream(&sc, 1);
        assert_eq!(a, b, "same (scenario, seed) must export identically");
        assert!(!a.is_empty());
        let c = export_stream(&sc, 2);
        assert_ne!(a, c, "seed change must perturb the stream");
    }

    #[test]
    fn stream_is_time_sorted_and_well_formed() {
        let sc = storm_scenario();
        let events = export_stream(&sc, 7);
        let mut connects = std::collections::BTreeSet::new();
        let mut faults = 0usize;
        for w in events.windows(2) {
            assert!(w[0].time <= w[1].time, "stream must be time-sorted");
        }
        for e in &events {
            assert!(e.time >= 0.0 && e.time < sc.config.duration);
            match e.kind {
                StreamKind::Connect { id, .. } => {
                    assert!(connects.insert(id), "connect ids must be unique");
                }
                StreamKind::Disconnect { id } => {
                    assert!(connects.contains(&id), "disconnect must follow its connect");
                }
                StreamKind::Fault { .. } => faults += 1,
                StreamKind::Repair { .. } => {}
            }
        }
        assert!(faults > 0, "storm scenario must carry faults");
    }

    #[test]
    fn faults_never_double_strike_a_failed_switch() {
        let sc = storm_scenario();
        let events = export_stream(&sc, 3);
        let m = sc.fabric.build().net().size();
        let mut failed = vec![false; m];
        for e in &events {
            match e.kind {
                StreamKind::Fault { switch, .. } => {
                    assert!(!failed[switch as usize], "fault on already-failed switch");
                    failed[switch as usize] = true;
                }
                StreamKind::Repair { switch } => {
                    assert!(failed[switch as usize], "repair of healthy switch");
                    failed[switch as usize] = false;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn ndjson_round_trips_exactly() {
        let sc = storm_scenario();
        let events = export_stream(&sc, 11);
        let text = render_ndjson(&events);
        let back = parse_ndjson(&text).unwrap();
        assert_eq!(back, events);
        assert_eq!(render_ndjson(&back), text);
        assert!(parse_ndjson("{\"t\": 1, \"ev\": \"warp\"}\n").is_err());
        assert!(parse_ndjson("not json\n").is_err());
    }
}
