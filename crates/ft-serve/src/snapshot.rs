//! Crash-consistent metrics snapshots.
//!
//! The engine periodically dumps its cumulative counters (and the path-
//! length histogram) to a plain-text file via [`ft_obs::write_atomic`]
//! — temp sibling + rename — so a `kill -9` at any instant leaves
//! either the previous complete snapshot or the new complete snapshot,
//! never a torn file. On restart the snapshot becomes the counter
//! *base*: the revived server's report continues from where the dead
//! one checkpointed (modulo the jobs admitted after the last dump,
//! which are lost by design — the format trades a bounded counter gap
//! for zero write amplification on the admission path).
//!
//! Format (`ftserve snapshot v2`; v1 differed only in a checksum that
//! multiplied by a wrong FNV prime, and loads as a clean miss):
//!
//! ```text
//! ftserve snapshot v2
//! fields <n>
//! <key> <u64>        (exactly n lines, fixed order)
//! hist <compact histogram string>
//! ok <fnv-1a 64 of everything above, hex>
//! ```
//!
//! Any deviation — missing header, wrong field count, unparsable value,
//! truncation — makes [`Snapshot::parse`] return `None` and the server
//! starts from zero with a stderr note, mirroring the ftexp cell-cache
//! discipline: corruption degrades, never panics. The trailing checksum
//! exists because a *prefix* of the body can be self-consistent (the
//! compact histogram string truncates to a valid shorter histogram);
//! with it, every proper prefix is detectably torn.

use crate::engine::Counters;
#[cfg(test)]
use ft_obs::fnv1a;
use ft_obs::{seal, unseal, Hist};

/// Magic first line; bump on any layout change.
const VERSION: &str = "ftserve snapshot v2";

/// A parsed (or about-to-be-written) snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Snapshot {
    /// Cumulative engine counters at dump time.
    pub(crate) counters: Counters,
    /// Path-length histogram at dump time.
    pub(crate) hist: Hist,
}

impl Snapshot {
    /// Renders the snapshot body (the bytes handed to `write_atomic`).
    pub(crate) fn render(&self) -> String {
        let fields = self.counters.fields();
        let mut out = String::with_capacity(64 + fields.len() * 24);
        out.push_str(VERSION);
        out.push('\n');
        out.push_str(&format!("fields {}\n", fields.len()));
        for (key, value) in fields {
            out.push_str(&format!("{key} {value}\n"));
        }
        out.push_str("hist ");
        out.push_str(&self.hist.to_compact_string());
        out.push('\n');
        seal(out)
    }

    /// Parses a snapshot body. `None` = corrupt/stale/truncated; the
    /// caller recomputes from zero.
    pub(crate) fn parse(text: &str) -> Option<Snapshot> {
        // Checksum first: the final `ok` line covers every preceding
        // byte, so any tear or bit-flip is caught before field parsing.
        let mut lines = unseal(text)?.lines();
        if lines.next()? != VERSION {
            return None;
        }
        let n: usize = lines.next()?.strip_prefix("fields ")?.parse().ok()?;
        let mut counters = Counters::default();
        let expected = counters.fields().len();
        if n != expected {
            return None;
        }
        let mut names = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines.next()?;
            let (key, value) = line.split_once(' ')?;
            names.push(key.to_string());
            values.push(value.parse::<u64>().ok()?);
        }
        counters.set_fields(&names, &values)?;
        let hist = Hist::from_compact_str(lines.next()?.strip_prefix("hist ")?)?;
        if lines.next().is_some() {
            return None; // trailing garbage
        }
        Some(Snapshot { counters, hist })
    }

    /// Writes the snapshot atomically to `path`.
    pub(crate) fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        ft_obs::write_atomic(path, self.render())
    }

    /// Loads and parses `path`. Missing file is a silent `None`; any
    /// other failure gets a stderr note (and still degrades to `None`).
    pub(crate) fn load(path: &std::path::Path) -> Option<Snapshot> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(e) => {
                eprintln!(
                    "ftserve: snapshot {} unreadable ({e}); starting from zero",
                    path.display()
                );
                return None;
            }
        };
        let parsed = Snapshot::parse(&text);
        if parsed.is_none() {
            eprintln!(
                "ftserve: snapshot {} corrupt or stale; starting from zero",
                path.display()
            );
        }
        parsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.offered = 120;
        s.counters.connected = 100;
        s.counters.shed = 7;
        s.counters.recovery_episodes = 3;
        s.hist.record(4.0);
        s.hist.record_n(6.0, 9);
        s
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let s = sample();
        let text = s.render();
        let back = Snapshot::parse(&text).expect("well-formed snapshot parses");
        assert_eq!(back, s);
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn truncation_at_every_boundary_is_a_clean_miss() {
        let text = sample().render();
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let torn = &text[..cut];
            // Tearing can only accidentally stay parseable if the cut
            // lands exactly on the original content — it can't, since
            // the hist line is last and parse demands it.
            assert_eq!(Snapshot::parse(torn), None, "cut at byte {cut}");
        }
    }

    #[test]
    fn wrong_version_count_or_garbage_is_a_miss() {
        let s = sample();
        let text = s.render();
        assert_eq!(Snapshot::parse(&text.replace("v2", "v1")), None);
        // a stale header is a miss even under a valid checksum
        let body = text[..text.rfind("ok ").unwrap()].replace("v2", "v1");
        let stale = format!("{body}ok {:016x}\n", fnv1a(body.as_bytes()));
        assert_eq!(Snapshot::parse(&stale), None);
        assert_eq!(Snapshot::parse(&text.replace("fields ", "fields 9")), None);
        assert_eq!(Snapshot::parse(&format!("{text}extra\n")), None);
        assert_eq!(Snapshot::parse(&text.replace("offered", "ofefred")), None);
        assert_eq!(Snapshot::parse(""), None);
    }

    #[test]
    fn write_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("ftserve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        let s = sample();
        s.write(&path).unwrap();
        assert_eq!(Snapshot::load(&path), Some(s));
        std::fs::write(&path, "ftserve snapshot v2\nfields 2\n").unwrap();
        assert_eq!(Snapshot::load(&path), None, "torn file degrades");
        assert_eq!(Snapshot::load(&dir.join("missing.snap")), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}
