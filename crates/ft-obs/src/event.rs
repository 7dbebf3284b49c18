//! The structured trace-event vocabulary and the [`Observer`] trait the
//! simulation engine is generic over.
//!
//! The engine calls [`Observer::event`] at every semantic event it
//! processes, stamped with the event's `(sim-time, seq)` — the same total
//! order the event-stream fingerprint folds over. The default observer is
//! [`Noop`], a zero-sized type whose `event` body is empty: the engine is
//! monomorphized per observer, so with `Noop` every emission site compiles
//! to nothing (path scratch included — sites gate on
//! [`Observer::ENABLED`]) and the hot loop is byte-for-byte the pre-trace
//! engine, pinned by the golden event-stream fingerprints and the gated
//! sim benches.

use std::ops::Range;

use crate::json::{push_f64, push_u64};

/// One structured simulation event, borrowed from engine state.
///
/// `token` is the session token of the call involved (unique per
/// admitted call within a run); `path` is the circuit's vertex-id route
/// through the fabric where one exists.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent<'a> {
    /// A live call arrival sampled `src → dst` (terminal indices).
    Arrival {
        /// Input terminal.
        src: u32,
        /// Output terminal.
        dst: u32,
    },
    /// The arrival was admitted with a circuit along `path`.
    Connect {
        /// Session token of the new circuit.
        token: u32,
        /// Input terminal.
        src: u32,
        /// Output terminal.
        dst: u32,
        /// The circuit's vertex ids.
        path: &'a [u32],
    },
    /// The arrival found an endpoint already in use.
    BusyReject {
        /// Input terminal.
        src: u32,
        /// Output terminal.
        dst: u32,
    },
    /// The arrival found no idle path (the paper's blocking event).
    Block {
        /// Input terminal.
        src: u32,
        /// Output terminal.
        dst: u32,
    },
    /// An established call hung up normally.
    Hangup {
        /// Session token of the call.
        token: u32,
    },
    /// A switch failed.
    Fault {
        /// The failed switch (edge index).
        switch: u32,
        /// Stuck-open (`true`) or stuck-closed.
        open: bool,
        /// First strike of a new storm episode.
        episode: bool,
    },
    /// The fault killed this session's circuit.
    Kill {
        /// Session token of the killed call.
        token: u32,
        /// Router slot the session held.
        slot: u32,
    },
    /// A reroute attempt for a killed call.
    Reroute {
        /// Session token of the re-established circuit (0 on failure).
        token: u32,
        /// Input terminal.
        src: u32,
        /// Output terminal.
        dst: u32,
        /// Whether a circuit was found.
        ok: bool,
        /// The new circuit's vertex ids (empty on failure).
        path: &'a [u32],
    },
    /// A scheduled backoff retry fired for a still-pending call.
    Retry {
        /// Session token of the call.
        token: u32,
    },
    /// The degradation ladder shed a killed call without retrying.
    Shed {
        /// Session token of the call.
        token: u32,
        /// Input terminal.
        src: u32,
        /// Output terminal.
        dst: u32,
    },
    /// A failed switch was repaired.
    Repair {
        /// The repaired switch (edge index).
        switch: u32,
    },
    /// A degraded episode closed.
    RecoveryClose {
        /// The episode's length in sim-time.
        span: f64,
    },
}

impl TraceEvent<'_> {
    /// The `ev` tag the NDJSON serialization uses.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Connect { .. } => "connect",
            TraceEvent::BusyReject { .. } => "busy_reject",
            TraceEvent::Block { .. } => "block",
            TraceEvent::Hangup { .. } => "hangup",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Kill { .. } => "kill",
            TraceEvent::Reroute { .. } => "reroute",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Repair { .. } => "repair",
            TraceEvent::RecoveryClose { .. } => "recovery_close",
        }
    }
}

/// A sink for the engine's structured event stream.
///
/// Implementations must be deterministic functions of the event sequence
/// alone — the engine guarantees it calls `event` in `(time, seq)` order
/// and never consults the observer, so an observer can never perturb the
/// simulation (the golden fingerprints pin this).
pub trait Observer {
    /// Whether emission sites should do any work at all. The engine
    /// gates path-materialisation scratch on this constant, so a
    /// disabled observer pays nothing, not even a branch.
    const ENABLED: bool = true;

    /// One event at simulation time `time`, queue sequence `seq`.
    fn event(&mut self, time: f64, seq: u64, ev: &TraceEvent<'_>);
}

/// The disabled observer: a zero-sized no-op the engine monomorphizes
/// away entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noop;

impl Observer for Noop {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _time: f64, _seq: u64, _ev: &TraceEvent<'_>) {}
}

/// An observer serializing every event as one line of deterministic
/// NDJSON into an in-memory buffer.
///
/// Keys appear in a fixed order per event kind and every number renders
/// as `format!` would (`{n}`, and `{x}`'s shortest round-trip decimal),
/// so the same event stream always produces the same bytes —
/// `trace_diff` compares traces line-by-line on that guarantee.
///
/// No byte of a normal trace goes through `core::fmt`: each line is
/// written straight into the buffer in one pass. The tag, its closing
/// quote and the first key are one literal per event kind, integers
/// take a two-digits-per-step table, and the two `f64` fields (`t`,
/// `span`) take an exact shortest-round-trip fast path in `u128`
/// arithmetic. It covers every positive normal `x = m·2^-s` with
/// `2 ≤ s ≤ 66` (about `6.1e-5 ≤ x < 2.3e15`) whose significand `m` is
/// not a power of two, and defers to `write!(…, "{x}")` for the rest:
/// zero, negatives, subnormals, non-finite values, powers of two, larger
/// or smaller magnitudes, and the rare value whose nearest candidate is
/// a tie. The `{"t":…,"seq":…,"ev":"` stamp is rendered once per
/// `(time, seq)` and copied from the buffer itself for the next event
/// under the same stamp — the engine emits several (arrival + connect,
/// fault + kills + reroutes). The buffer is the only allocation: rendering an event
/// allocates only when the buffer grows, and [`Self::clear`] keeps its
/// capacity for the next seed.
#[derive(Clone, Debug, Default)]
pub struct TraceBuf {
    buf: Vec<u8>,
    lines: u64,
    /// Where in `buf` the stamp of `stamp_key` was last rendered.
    stamp: Range<usize>,
    /// `(time.to_bits(), seq)` of the event `stamp` was rendered for.
    stamp_key: Option<(u64, u64)>,
}

impl TraceBuf {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a seed header line. Sweep drivers call this once per seed
    /// before running it, so a multi-seed trace file concatenated in
    /// seed order is self-describing (and independent of thread count).
    pub fn begin_seed(&mut self, seed: u64) {
        self.buf.extend_from_slice(b"{\"ev\":\"seed\",\"seed\":");
        push_u64(&mut self.buf, seed);
        self.buf.extend_from_slice(b"}\n");
        self.lines += 1;
    }

    /// Empties the trace but keeps its buffer, so a sweep worker renders
    /// seed after seed into pages it has already touched.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.lines = 0;
        self.stamp_key = None;
    }

    /// Number of NDJSON lines written (seed headers included).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The NDJSON bytes, for a writer that needs no `str`.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The NDJSON text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf).expect("the trace is ASCII")
    }
}

/// Appends `key` (a literal ending in `"name":`) and then `n`.
fn push_field(buf: &mut Vec<u8>, key: &[u8], n: u32) {
    buf.extend_from_slice(key);
    push_u64(buf, n.into());
}

fn push_bool(buf: &mut Vec<u8>, key: &[u8], b: bool) {
    buf.extend_from_slice(key);
    buf.extend_from_slice(if b { b"true" } else { b"false" });
}

fn push_path(buf: &mut Vec<u8>, path: &[u32]) {
    buf.extend_from_slice(b",\"path\":[");
    for (i, &v) in path.iter().enumerate() {
        if i > 0 {
            buf.push(b',');
        }
        push_u64(buf, v.into());
    }
    buf.push(b']');
}

impl Observer for TraceBuf {
    fn event(&mut self, time: f64, seq: u64, ev: &TraceEvent<'_>) {
        let buf = &mut self.buf;
        let key = Some((time.to_bits(), seq));
        if self.stamp_key == key {
            buf.extend_from_within(self.stamp.clone());
        } else {
            let start = buf.len();
            buf.extend_from_slice(b"{\"t\":");
            push_f64(buf, time);
            buf.extend_from_slice(b",\"seq\":");
            push_u64(buf, seq);
            buf.extend_from_slice(b",\"ev\":\"");
            self.stamp = start..buf.len();
            self.stamp_key = key;
        }
        // Each arm opens with one literal: the tag, its closing quote and
        // the first key.
        match *ev {
            TraceEvent::Arrival { src, dst } => {
                push_field(buf, b"arrival\",\"src\":", src);
                push_field(buf, b",\"dst\":", dst);
            }
            TraceEvent::BusyReject { src, dst } => {
                push_field(buf, b"busy_reject\",\"src\":", src);
                push_field(buf, b",\"dst\":", dst);
            }
            TraceEvent::Block { src, dst } => {
                push_field(buf, b"block\",\"src\":", src);
                push_field(buf, b",\"dst\":", dst);
            }
            TraceEvent::Connect {
                token,
                src,
                dst,
                path,
            } => {
                push_field(buf, b"connect\",\"token\":", token);
                push_field(buf, b",\"src\":", src);
                push_field(buf, b",\"dst\":", dst);
                push_path(buf, path);
            }
            TraceEvent::Hangup { token } => push_field(buf, b"hangup\",\"token\":", token),
            TraceEvent::Retry { token } => push_field(buf, b"retry\",\"token\":", token),
            TraceEvent::Fault {
                switch,
                open,
                episode,
            } => {
                push_field(buf, b"fault\",\"switch\":", switch);
                push_bool(buf, b",\"open\":", open);
                push_bool(buf, b",\"episode\":", episode);
            }
            TraceEvent::Kill { token, slot } => {
                push_field(buf, b"kill\",\"token\":", token);
                push_field(buf, b",\"slot\":", slot);
            }
            TraceEvent::Reroute {
                token,
                src,
                dst,
                ok,
                path,
            } => {
                push_field(buf, b"reroute\",\"token\":", token);
                push_field(buf, b",\"src\":", src);
                push_field(buf, b",\"dst\":", dst);
                push_bool(buf, b",\"ok\":", ok);
                push_path(buf, path);
            }
            TraceEvent::Shed { token, src, dst } => {
                push_field(buf, b"shed\",\"token\":", token);
                push_field(buf, b",\"src\":", src);
                push_field(buf, b",\"dst\":", dst);
            }
            TraceEvent::Repair { switch } => push_field(buf, b"repair\",\"switch\":", switch),
            TraceEvent::RecoveryClose { span } => {
                buf.extend_from_slice(b"recovery_close\",\"span\":");
                push_f64(buf, span);
            }
        }
        buf.extend_from_slice(b"}\n");
        self.lines += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<Noop>(), 0);
        const { assert!(!Noop::ENABLED) };
        const { assert!(TraceBuf::ENABLED) };
    }

    /// The `format!` rendering `TraceBuf` must reproduce byte for byte.
    fn reference_line(time: f64, seq: u64, ev: &TraceEvent<'_>) -> String {
        let tag = ev.tag();
        let list = |path: &[u32]| {
            let items: Vec<String> = path.iter().map(u32::to_string).collect();
            format!("[{}]", items.join(","))
        };
        let fields = match *ev {
            TraceEvent::Arrival { src, dst }
            | TraceEvent::BusyReject { src, dst }
            | TraceEvent::Block { src, dst } => format!("\"src\":{src},\"dst\":{dst}"),
            TraceEvent::Connect {
                token,
                src,
                dst,
                path,
            } => format!(
                "\"token\":{token},\"src\":{src},\"dst\":{dst},\"path\":{}",
                list(path)
            ),
            TraceEvent::Hangup { token } | TraceEvent::Retry { token } => {
                format!("\"token\":{token}")
            }
            TraceEvent::Fault {
                switch,
                open,
                episode,
            } => format!("\"switch\":{switch},\"open\":{open},\"episode\":{episode}"),
            TraceEvent::Kill { token, slot } => format!("\"token\":{token},\"slot\":{slot}"),
            TraceEvent::Reroute {
                token,
                src,
                dst,
                ok,
                path,
            } => format!(
                "\"token\":{token},\"src\":{src},\"dst\":{dst},\"ok\":{ok},\"path\":{}",
                list(path)
            ),
            TraceEvent::Shed { token, src, dst } => {
                format!("\"token\":{token},\"src\":{src},\"dst\":{dst}")
            }
            TraceEvent::Repair { switch } => format!("\"switch\":{switch}"),
            TraceEvent::RecoveryClose { span } => format!("\"span\":{span}"),
        };
        format!("{{\"t\":{time},\"seq\":{seq},\"ev\":\"{tag}\",{fields}}}\n")
    }

    #[test]
    fn every_variant_renders_as_format_would() {
        const M: u32 = u32::MAX;
        // Where the digit count of a rendered integer changes.
        const EDGES: [u32; 9] = [0, 9, 10, 99, 100, 9_999, 10_000, 100_000_000, M];
        let long: Vec<u32> = (0..300).map(|i| i * 14_316_557).collect();
        let paths: [&[u32]; 5] = [&[], &[0], &[M, 0, 10, 99, 100], &EDGES, &long];
        let mut events = vec![
            TraceEvent::Hangup { token: 0 },
            TraceEvent::Hangup { token: M },
            TraceEvent::Retry { token: 9 },
            TraceEvent::Retry {
                token: 1_000_000_000,
            },
            TraceEvent::Kill { token: 0, slot: M },
            TraceEvent::Kill { token: M, slot: 0 },
            TraceEvent::Repair { switch: 0 },
            TraceEvent::Repair { switch: M },
            TraceEvent::RecoveryClose { span: 0.0 },
            TraceEvent::RecoveryClose { span: 7.75 },
            TraceEvent::RecoveryClose { span: 1e-7 },
            TraceEvent::RecoveryClose { span: 1.0e21 },
        ];
        // Every field at every edge, each beside a different edge.
        let pairs = EDGES.iter().zip(EDGES.iter().rev()).map(|(&a, &b)| (a, b));
        for (v, w) in pairs.clone() {
            events.push(TraceEvent::Hangup { token: v });
            events.push(TraceEvent::Retry { token: v });
            events.push(TraceEvent::Kill { token: v, slot: w });
            events.push(TraceEvent::Repair { switch: v });
            events.push(TraceEvent::Fault {
                switch: v,
                open: v % 2 == 0,
                episode: w % 2 == 0,
            });
        }
        for (src, dst) in [(0, 0), (M, M), (0, M), (19, 100)].into_iter().chain(pairs) {
            events.push(TraceEvent::Arrival { src, dst });
            events.push(TraceEvent::BusyReject { src, dst });
            events.push(TraceEvent::Block { src, dst });
            events.push(TraceEvent::Shed {
                token: dst,
                src,
                dst: src,
            });
            for path in paths {
                events.push(TraceEvent::Connect {
                    token: src,
                    src: dst,
                    dst,
                    path,
                });
                events.push(TraceEvent::Reroute {
                    token: dst,
                    src,
                    dst,
                    ok: !path.is_empty(),
                    path,
                });
            }
        }
        for (open, episode) in [(false, false), (false, true), (true, false), (true, true)] {
            events.push(TraceEvent::Fault {
                switch: M - u32::from(open),
                open,
                episode,
            });
        }
        // Stamps: repeats (the cached case), seq alone moving, time alone
        // moving, both extremes, and -0.0 vs 0.0 (equal as floats, not
        // as rendered text).
        let stamps = [
            (0.0, 0),
            (0.0, 0),
            (-0.0, 0),
            (0.0, 1),
            (0.5, 1),
            (0.5, 1),
            (0.5, 9),
            (0.5, 10),
            (0.5, 99),
            (0.5, 100),
            (0.5, 9_999),
            (0.5, 10_000),
            (0.5, 100_000_000),
            (0.5, u32::MAX.into()),
            (1.0e-9, u64::MAX),
            (123_456.789_012_345, 10_000_000_000),
            (f64::MAX, 18_446_744_073_709_551_614),
        ];
        let mut got = TraceBuf::new();
        let mut want = String::new();
        for seed in [0, 7, u64::MAX] {
            got.begin_seed(seed);
            want.push_str(&format!("{{\"ev\":\"seed\",\"seed\":{seed}}}\n"));
            for (i, ev) in events.iter().enumerate() {
                // walk the stamps slowly so most of them repeat
                let (time, seq) = stamps[(i / 3) % stamps.len()];
                got.event(time, seq, ev);
                want.push_str(&reference_line(time, seq, ev));
            }
        }
        assert_eq!(got.lines(), 3 * (events.len() as u64 + 1));
        for (g, w) in got.as_str().lines().zip(want.lines()) {
            assert_eq!(g, w);
        }
        assert_eq!(got.as_str(), want);
    }

    #[test]
    fn ndjson_lines_are_deterministic_and_wellformed() {
        let emit = |obs: &mut TraceBuf| {
            obs.begin_seed(7);
            obs.event(0.5, 1, &TraceEvent::Arrival { src: 0, dst: 3 });
            obs.event(
                0.5,
                1,
                &TraceEvent::Connect {
                    token: 0,
                    src: 0,
                    dst: 3,
                    path: &[2, 9, 14],
                },
            );
            obs.event(
                1.25,
                4,
                &TraceEvent::Fault {
                    switch: 11,
                    open: true,
                    episode: false,
                },
            );
            obs.event(1.25, 4, &TraceEvent::Kill { token: 0, slot: 0 });
            obs.event(
                1.25,
                4,
                &TraceEvent::Reroute {
                    token: 1,
                    src: 0,
                    dst: 3,
                    ok: true,
                    path: &[2, 10, 14],
                },
            );
            obs.event(9.0, 20, &TraceEvent::RecoveryClose { span: 7.75 });
        };
        let mut a = TraceBuf::new();
        let mut b = TraceBuf::new();
        emit(&mut a);
        emit(&mut b);
        assert_eq!(a.as_str(), b.as_str());
        assert_eq!(a.lines(), 7);
        assert_eq!(a.as_str().lines().next(), Some(r#"{"ev":"seed","seed":7}"#));
        assert!(a.as_str().lines().any(|l| l
            == r#"{"t":0.5,"seq":1,"ev":"connect","token":0,"src":0,"dst":3,"path":[2,9,14]}"#));
        assert!(a
            .as_str()
            .lines()
            .any(|l| l
                == r#"{"t":1.25,"seq":4,"ev":"fault","switch":11,"open":true,"episode":false}"#));
        // Every line is brace-delimited and newline-terminated.
        assert!(a.as_str().ends_with('\n'));
        for line in a.as_str().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
