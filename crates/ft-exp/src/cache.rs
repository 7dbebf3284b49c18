//! The on-disk cell cache: one flat text file per completed cell.
//!
//! A cell is keyed by the FNV content hash of its canonical resolved
//! scenario plus the static-check trial count
//! ([`crate::grid::cell_hash`]), so interrupted or re-run studies only
//! compute missing cells and *any* change to a cell's parameters (or to
//! the cache format) is a clean miss, never a stale hit. Files are
//! self-describing `key = value` text; every number round-trips exactly
//! (integers verbatim, `f64` through Rust's shortest-round-trip
//! formatting), which is what lets a cache-warm run render the
//! byte-identical aggregate report a cold run does — pinned by
//! `tests/determinism.rs`. The per-seed lines, their order and their
//! count come from [`SeedRow`]'s one field list. A file that fails any
//! check (trailing checksum, version, hash, structure) is treated as a
//! miss and recomputed.

use crate::result::{CellData, SeedRow};
use ft_failure::Estimate;
use ft_obs::{seal, unseal};
use std::path::{Path, PathBuf};

/// Format tag written to (and required of) every cache file. Bumped to
/// v2 when the recovery metrics (storms/shed/degraded_time/…) joined
/// the per-seed rows, to v3 when the reroute-latency histograms
/// (compact `idx:count` sparse encodings) did, to v4 when the
/// `moved` reroute-churn counter did, and to v5 when the trailing
/// `ok <fnv1a>` checksum line was added (a truncation that clips the
/// final histogram value mid-digit still parses as a valid shorter
/// histogram, so structure checks alone cannot catch every torn tail),
/// and to v6 when the sliced failure sampler's sparse stream changed
/// (a v5 cell's `static_*` estimate came from the old stream and must
/// never be served beside new ones) — older files are clean misses.
const VERSION: &str = "ftexp cell-cache v6";

/// The cache file path for a cell hash.
pub fn cell_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.ftcell"))
}

/// Renders a completed cell for the cache.
pub fn render(hash: u64, data: &CellData) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(VERSION);
    out.push('\n');
    push(&mut out, "hash", &format!("{hash:016x}"));
    push(&mut out, "fabric", &data.fabric_label);
    push(&mut out, "switches", &data.switches.to_string());
    push(&mut out, "terminals", &data.terminals.to_string());
    push(&mut out, "seed_rows", &data.seeds.len().to_string());
    if let Some(est) = data.static_est {
        push(&mut out, "static_successes", &est.successes.to_string());
        push(&mut out, "static_trials", &est.trials.to_string());
    }
    for row in &data.seeds {
        row.cache_lines(|key, value| push(&mut out, key, value));
    }
    seal(out)
}

fn push(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str(" = ");
    out.push_str(value);
    out.push('\n');
}

/// Parses a cache file back into a [`CellData`]. `None` = malformed or
/// wrong version/hash — callers treat it as a miss.
pub fn parse(text: &str, expect_hash: u64) -> Option<CellData> {
    // The trailing `ok <fnv1a>` line is verified first: any torn or
    // bit-flipped byte anywhere in the file is a miss before field
    // parsing even starts.
    let mut lines = unseal(text)?.lines();
    if lines.next()? != VERSION {
        return None;
    }
    // A row's lines start with its first field and number exactly
    // `SeedRow::NAMES.len()`.
    let row_len = SeedRow::NAMES.len();
    let mut header: Vec<(String, String)> = Vec::new();
    let mut seeds: Vec<SeedRow> = Vec::new();
    let mut fields_in_row = row_len;
    for line in lines {
        let (key, value) = line.split_once(" = ")?;
        if key == SeedRow::NAMES[0] {
            if fields_in_row != row_len {
                return None; // truncated previous row
            }
            fields_in_row = 0;
            seeds.push(SeedRow::default());
        }
        match seeds.last_mut() {
            None => header.push((key.to_string(), value.to_string())),
            Some(row) => {
                row.set(key, value)?;
                fields_in_row += 1;
            }
        }
    }
    if fields_in_row != row_len {
        return None; // truncated final row
    }
    let get = |k: &str| {
        header
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    };
    if u64::from_str_radix(get("hash")?, 16).ok()? != expect_hash {
        return None;
    }
    let static_est = match (get("static_successes"), get("static_trials")) {
        (Some(s), Some(t)) => Some(Estimate {
            successes: s.parse().ok()?,
            trials: t.parse().ok()?,
        }),
        (None, None) => None,
        _ => return None,
    };
    if seeds.is_empty() || get("seed_rows")?.parse::<usize>().ok()? != seeds.len() {
        return None; // truncated between complete rows
    }
    Some(CellData {
        fabric_label: get("fabric")?.to_string(),
        switches: get("switches")?.parse().ok()?,
        terminals: get("terminals")?.parse().ok()?,
        seeds,
        static_est,
    })
}

/// Loads a cell from `dir`, verifying version and hash. `None` = miss.
///
/// An *absent* file is a silent miss (the normal cold-cache case). A
/// file that exists but fails any check — unreadable bytes, wrong
/// version, bit-flipped content, truncation — is still a miss (the
/// cell recomputes), but it leaves a one-line note on stderr: silent
/// degradation would hide a corrupting disk or a torn writer from the
/// operator forever.
pub fn load(dir: &Path, hash: u64) -> Option<CellData> {
    let path = cell_path(dir, hash);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(e) => {
            eprintln!(
                "ftexp: cache file {} unreadable ({e}); recomputing cell",
                path.display()
            );
            return None;
        }
    };
    let parsed = parse(&text, hash);
    if parsed.is_none() {
        eprintln!(
            "ftexp: cache file {} corrupt or stale; recomputing cell",
            path.display()
        );
    }
    parsed
}

/// Stores a completed cell in `dir` (best-effort: an unwritable cache
/// degrades to recomputation, never to failure). The write goes to a
/// temporary sibling and is renamed into place, so an interrupted run
/// can never leave a half-written file under the final name — and the
/// trailing checksum catches truncation even if it somehow does.
pub fn store(dir: &Path, hash: u64, data: &CellData) -> std::io::Result<()> {
    ft_obs::write_atomic(cell_path(dir, hash), render(hash, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CellData {
        CellData {
            fabric_label: "clos m=3 n=2 r=2".into(),
            switches: 24,
            terminals: 4,
            seeds: vec![
                SeedRow {
                    seed: 1,
                    events: 321,
                    fingerprint: 0xDEAD_BEEF_0123_4567,
                    offered: 100,
                    connected: 90,
                    blocked: 4,
                    rejected_busy: 6,
                    dropped: 3,
                    rerouted: 2,
                    moved: 4,
                    abandoned: 1,
                    faults: 5,
                    repairs: 4,
                    storms: 2,
                    shed: 1,
                    degraded_time: 7.25,
                    time_to_recover: 3.625,
                    dropped_per_storm: 1.5,
                    blocking: 0.04,
                    busy_rejection: 0.06,
                    drop_rate: 1.0 / 90.0,
                    carried_erlangs: 2.517_342_109_8,
                    mean_path_len: 3.733_333_333_333_333_3,
                    mean_reroute_latency: 0.5,
                    util_max: 0.312_500_001,
                    reroute_hist_events: {
                        let mut h = ft_obs::Hist::new();
                        h.record(1.0);
                        h.record_n(3.0, 2);
                        h
                    },
                    reroute_hist_time: {
                        let mut h = ft_obs::Hist::new();
                        h.record(0.5);
                        h
                    },
                },
                SeedRow {
                    seed: 2,
                    blocking: f64::MIN_POSITIVE,
                    ..SeedRow::default()
                },
            ],
            static_est: Some(Estimate {
                successes: 17,
                trials: 1000,
            }),
        }
    }

    #[test]
    fn render_parse_round_trip_is_exact() {
        let data = sample();
        let text = render(42, &data);
        let back = parse(&text, 42).expect("parses");
        assert_eq!(back, data);
        // and renders back to the identical bytes — the property the
        // cold-vs-warm byte-identical aggregate depends on
        assert_eq!(render(42, &back), text);
    }

    #[test]
    fn wrong_hash_version_or_structure_is_a_miss() {
        let data = sample();
        let text = render(42, &data);
        assert!(parse(&text, 43).is_none(), "hash mismatch must miss");
        let other = text.replace(VERSION, "ftexp cell-cache v0");
        assert!(parse(&other, 42).is_none(), "old version must miss");
        let truncated = &text[..text.len() / 2];
        // truncation either drops rows or breaks a line; both must miss
        // or at worst parse fewer seeds — never panic
        let _ = parse(truncated, 42);
        let garbled = text.replace("blocking", "blockiNG");
        assert!(parse(&garbled, 42).is_none());
        // truncation at a *complete* row boundary: structurally valid,
        // caught only by the seed_rows header count
        let boundary = text.find("seed = 2").unwrap();
        assert!(
            parse(&text[..boundary], 42).is_none(),
            "row-boundary truncation must miss"
        );
    }

    #[test]
    fn no_static_estimate_round_trips_too() {
        let mut data = sample();
        data.static_est = None;
        let text = render(7, &data);
        assert_eq!(parse(&text, 7).unwrap(), data);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ftexp_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Bit-flip every byte of a committed cache file in turn: with the
    /// trailing checksum line, *every* single-bit corruption — content,
    /// checksum digits, even the final newline — must be a clean
    /// recomputation miss, never a panic and never a silent hit.
    #[test]
    fn bit_flipped_committed_file_is_always_a_miss() {
        let dir = scratch_dir("bitflip");
        let data = sample();
        store(&dir, 42, &data).unwrap();
        let path = cell_path(&dir, 42);
        let clean = std::fs::read(&path).unwrap();
        assert!(load(&dir, 42).is_some(), "clean stored file must hit");
        for pos in 0..clean.len() {
            for bit in [0x01u8, 0x80] {
                let mut bytes = clean.clone();
                bytes[pos] ^= bit;
                std::fs::write(&path, &bytes).unwrap();
                assert!(
                    load(&dir, 42).is_none(),
                    "bit flip at byte {pos} (mask {bit:#04x}) must miss"
                );
            }
        }
        // invalid UTF-8 is an unreadable file, not a crash
        std::fs::write(&path, [0xFFu8, 0xFE, b'\n']).unwrap();
        assert!(load(&dir, 42).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncate a committed cache file at every byte boundary: always a
    /// miss (the seed_rows header catches even row-aligned prefixes),
    /// never a panic, and a subsequent store repairs the cell.
    #[test]
    fn truncated_committed_file_is_always_a_miss() {
        let dir = scratch_dir("truncate");
        let data = sample();
        store(&dir, 9, &data).unwrap();
        let path = cell_path(&dir, 9);
        let clean = std::fs::read(&path).unwrap();
        for len in 0..clean.len() {
            std::fs::write(&path, &clean[..len]).unwrap();
            assert!(
                load(&dir, 9).is_none(),
                "truncation to {len} bytes must be a miss"
            );
        }
        store(&dir, 9, &data).unwrap();
        assert_eq!(load(&dir, 9).unwrap(), data, "re-store must repair");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
