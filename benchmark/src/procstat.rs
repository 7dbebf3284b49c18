//! What the kernel says about this process: CPU time, peak resident
//! memory, and how busy the box is. Parsers are separate from the file
//! reads so the tests can feed them hostile text.

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux fixes it at 100 for every architecture it
/// exports `/proc` on; std offers no `sysconf`, so it is a constant.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field is the executable name in parentheses and may
/// itself contain spaces and `)`; everything up to the *last* `)` is
/// skipped. After it the fields continue with `state` (field 3), so
/// `utime` (14) and `stime` (15) are the 12th and 13th tokens.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`. Only a line
/// that *starts* with the key counts: the `Name:` line carries the
/// executable name verbatim and may contain the key.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg_1min(loadavg: &str) -> Option<f64> {
    loadavg.split_ascii_whitespace().next()?.parse().ok()
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// CPU seconds (user + system, all threads, live and joined) this
/// process has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = read("/proc/self/stat")?;
    let ticks = parse_stat_cpu_ticks(&stat).ok_or("/proc/self/stat: unparseable")?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size of this process in MB (10⁶ bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = read("/proc/self/status")?;
    let kb = parse_vm_hwm_kb(&status).ok_or("/proc/self/status: no VmHWM line")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

/// 1-minute load average of the box (0 if `/proc/loadavg` is absent).
pub fn loadavg_1min() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg_1min(&s))
        .unwrap_or(0.0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str = "S 1 42 42 0 -1 4194560 100 0 0 0 77 23 0 0 20 0 5 0 100 1000 10";

    #[test]
    fn stat_plain_name() {
        let stat = format!("42 (ftbench) {TAIL}");
        assert_eq!(parse_stat_cpu_ticks(&stat), Some(100));
    }

    #[test]
    fn stat_name_with_spaces_and_parens() {
        let stat = format!("42 (a b) c) 9 9 9 9 9 9 9 9 9 9 9 9 9 (x) {TAIL}");
        assert_eq!(parse_stat_cpu_ticks(&stat), Some(100));
    }

    #[test]
    fn stat_garbage_is_none() {
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn hwm_skips_a_hostile_name_line() {
        let status =
            "Name:\tVmHWM: 1 kB) x\nVmPeak:\t  900 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(
            parse_loadavg_1min("0.52 0.40 0.31 2/345 6789\n"),
            Some(0.52)
        );
    }

    #[test]
    fn live_process_reads() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(nproc() >= 1);
    }
}
