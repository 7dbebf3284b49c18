//! Profiling hooks: `key=value` stderr accounting lines and per-phase
//! wall-clock sections.
//!
//! Everything here renders to *stderr only* by convention — profiling is
//! wall-clock and therefore non-deterministic, so it must never leak
//! into report JSON, study tables, or anything else the byte-stability
//! contracts cover. [`KvLine`] is the one formatter for accounting
//! lines, so `cells total=… computed=…`-style output stays a single
//! consistent format across binaries.

use std::fmt::Display;
use std::fmt::Write as _;
use std::time::Instant;

/// Builder for one `label key=value key=value …` accounting line.
#[derive(Clone, Debug)]
pub struct KvLine {
    buf: String,
}

impl KvLine {
    /// Starts a line with a fixed label (may itself contain spaces or a
    /// trailing colon — it is emitted verbatim).
    pub fn new(label: &str) -> Self {
        KvLine {
            buf: label.to_string(),
        }
    }

    /// Appends ` key=value` with `value`'s `Display` form.
    pub fn kv(mut self, key: &str, value: impl Display) -> Self {
        let _ = write!(self.buf, " {key}={value}");
        self
    }

    /// Appends ` key=value` with one decimal place (the wall-clock
    /// milliseconds convention).
    pub fn kv_f1(mut self, key: &str, value: f64) -> Self {
        let _ = write!(self.buf, " {key}={value:.1}");
        self
    }

    /// The finished line.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Named wall-clock phase sections, collected in execution order.
///
/// A disabled profiler still runs every closure (profiling must never
/// change behavior) but records nothing and renders no lines.
#[derive(Clone, Debug)]
pub struct Profiler {
    enabled: bool,
    sections: Vec<(String, f64)>,
}

impl Profiler {
    /// A profiler that records only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Profiler {
            enabled,
            sections: Vec::new(),
        }
    }

    /// Times `f` as phase `name` (when enabled) and returns its result.
    pub fn section<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add_ms(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Records an externally measured phase duration in milliseconds.
    pub fn add_ms(&mut self, name: &str, ms: f64) {
        if self.enabled {
            self.sections.push((name.to_string(), ms));
        }
    }

    /// Renders one `phase <name> ms=<t>` line per recorded section, in
    /// execution order. Empty when disabled.
    pub fn lines(&self) -> Vec<String> {
        self.sections
            .iter()
            .map(|(name, ms)| {
                KvLine::new(&format!("phase {name}"))
                    .kv_f1("ms", *ms)
                    .finish()
            })
            .collect()
    }
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`. Only a line
/// that *starts* with the key counts: the `Name:` line carries the
/// executable name verbatim.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MB (10⁶ bytes, the unit of
/// the repo benchmark's `peak_rss_mb`), or `None` where `/proc` does not
/// say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kb(&status)? as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_its_own_line_only() {
        let status = "Name:\tVmHWM: 7 kB\nVmPeak:\t  900 kB\nVmHWM:\t    4321 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4321));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn kvline_reproduces_the_accounting_formats() {
        // The exact bytes CI greps for in ftexp's stderr.
        let summary = KvLine::new("cells")
            .kv("total", 4)
            .kv("computed", 4)
            .kv("cached", 0)
            .kv("skipped", 0)
            .finish();
        assert_eq!(summary, "cells total=4 computed=4 cached=0 skipped=0");
        let timing = KvLine::new("cell wall-time ms:")
            .kv("computed", 3)
            .kv_f1("mean", 12.06)
            .kv_f1("max", 20.0)
            .finish();
        assert_eq!(timing, "cell wall-time ms: computed=3 mean=12.1 max=20.0");
    }

    #[test]
    fn profiler_records_sections_in_order_when_enabled() {
        let mut p = Profiler::new(true);
        let x = p.section("parse", || 2 + 2);
        assert_eq!(x, 4);
        p.add_ms("render", 3.12);
        let lines = p.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("phase parse ms="), "{}", lines[0]);
        assert_eq!(lines[1], "phase render ms=3.1");
    }

    #[test]
    fn disabled_profiler_runs_closures_but_stays_silent() {
        let mut p = Profiler::new(false);
        let mut ran = false;
        p.section("work", || ran = true);
        p.add_ms("ignored", 9.9);
        assert!(ran);
        assert!(p.lines().is_empty());
    }
}
