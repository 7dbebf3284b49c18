//! Command line of both binaries.
//!
//! With `--workload NAME` one workload runs in this process and its
//! result line is the last line of stdout (the form the benchmark
//! driver calls). Without it, every workload runs in a fresh child
//! process and a table of all metrics is printed; `--check` does that
//! twice and fails unless the second set is within every metric's bound
//! of the first.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::mc::{self, McWorkload};
use crate::report::Outcome;
use crate::serve::{self, ServeWorkload};
use crate::sim::{self, SimWorkload};
use crate::spans::SpanLog;
use crate::tables::{self, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::{per_layer_metrics, procstat};

/// Parsed arguments.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub check: bool,
    pub print_benchmark_json: bool,
}

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] \
                     [--trace 0|1 | --ladder] [--check]";

/// Parses the arguments after the program name.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        check: false,
        print_benchmark_json: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--ladder" => parsed.trace = true,
            "--check" => parsed.check = true,
            "--print-benchmark-json" => parsed.print_benchmark_json = true,
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.iter().any(|known| known.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; one of: {}", names.join(" ")));
        }
    }
    Ok(parsed)
}

enum Kind {
    Serve(ServeWorkload),
    Sim(SimWorkload),
    Mc(McWorkload),
}

const FTN: &str = "ftn 2 8 8 1.0";
const CLOS_STORM: &str = include_str!("../workloads/sim_clos_storm.ftsim");

fn kind_of(name: &str) -> Kind {
    let serve = |fabric, hold, storm| {
        Kind::Serve(ServeWorkload {
            fabric,
            hold,
            storm,
        })
    };
    match name {
        "serve_clos_pipelined" => serve("clos-strict 4 4", 8, false),
        "serve_ftn_pipelined" => serve(FTN, 8, false),
        "serve_ftn_storm" => serve(FTN, 12, true),
        "sim_ftn_hotspot" => Kind::Sim(SimWorkload {
            scenario: include_str!("../workloads/sim_ftn_hotspot.ftsim"),
            traced: false,
        }),
        "sim_clos_storm" => Kind::Sim(SimWorkload {
            scenario: CLOS_STORM,
            traced: false,
        }),
        "sim_clos_storm_traced" => Kind::Sim(SimWorkload {
            scenario: CLOS_STORM,
            traced: true,
        }),
        "mc_ftn_repair" => Kind::Mc(McWorkload {
            fabric: FTN,
            eps: 0.02,
        }),
        "mc_benes_sample" => Kind::Mc(McWorkload {
            fabric: "benes 10",
            eps: 0.02,
        }),
        other => unreachable!("parse_args admitted unknown workload {other}"),
    }
}

/// Where the traced run writes its spans: `$FTBENCH_OUT` (run.sh sets
/// it to `benchmark/out`), else `benchmark/out` under the current
/// directory.
fn out_dir() -> PathBuf {
    std::env::var_os("FTBENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// Runs one workload in this process and prints its lines, the result
/// line last. `Ok(false)` = it ran but an output check failed.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let (seed, seconds) = (args.seed, args.seconds);
    let kind = kind_of(name);
    let outcome = if args.trace {
        let mut log = SpanLog::new();
        let (mut outcome, layers) = match &kind {
            Kind::Serve(w) => serve::ladder(w, name, seed, seconds, &mut log)?,
            Kind::Sim(w) => sim::ladder(w, name, seed, &mut log)?,
            Kind::Mc(w) => mc::ladder(w, name, seed, &mut log)?,
        };
        outcome.metrics = per_layer_metrics(&layers);
        let path = out_dir().join(format!("spans_{name}.ndjson"));
        log.write(&path)?;
        println!("spans {name} count={} file={}", log.len(), path.display());
        outcome
    } else {
        let load_before = procstat::loadavg_1min();
        let run = match &kind {
            Kind::Serve(w) => serve::run(w, name, seed, seconds)?,
            Kind::Sim(w) => sim::run(w, name, seed, seconds)?,
            Kind::Mc(w) => mc::run(w, name, seed, seconds)?,
        };
        let v = run.validity;
        println!(
            "validity {name} valid={} nproc={} load1_before={load_before} load1_after={} underfull_share={} runner_up_gap={:.4} max_rep_deviation={:.4} reps={}",
            v.is_valid(),
            procstat::nproc(),
            procstat::loadavg_1min(),
            v.underfull_share,
            v.runner_up_gap,
            v.max_rep_deviation,
            v.reps,
        );
        run.outcome
    };
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

/// What a child run printed, picked apart.
struct ChildRun {
    outcome: Outcome,
    valid: bool,
    /// `seed → (fingerprint, events)` of the `fingerprint` lines.
    fingerprints: BTreeMap<String, String>,
}

/// Runs one workload in a fresh process of this same executable.
fn run_child(name: &str, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut fingerprints = BTreeMap::new();
    let mut valid = true;
    for line in stdout.lines() {
        let mut words = line.split(' ');
        match words.next() {
            Some("fingerprint") => {
                let fields: Vec<&str> = words.skip(1).collect();
                if let [seed, fp, events, ..] = fields[..] {
                    fingerprints.insert(seed.to_string(), format!("{fp} {events}"));
                }
            }
            Some("validity") => valid = line.contains(" valid=true "),
            Some("check") => println!("{line}"),
            _ => {}
        }
    }
    let outcome = stdout
        .lines()
        .last()
        .and_then(Outcome::parse_result_line)
        .ok_or_else(|| format!("{name}: no result line (exit {})", output.status))?;
    Ok(ChildRun {
        outcome,
        valid,
        fingerprints,
    })
}

/// Runs every workload once, each in a fresh process, and prints every
/// reported metric by name with its unit. `Ok(None)` = some run was
/// incorrect or invalid.
fn run_set(args: &Args) -> Result<Option<BTreeMap<&'static str, ChildRun>>, String> {
    let mut runs = BTreeMap::new();
    let mut ok = true;
    for w in &WORKLOADS {
        eprintln!("ftbench: {} ...", w.name);
        let run = run_child(w.name, args)?;
        for (metric, value) in &run.outcome.metrics {
            // A per-layer 0 means "not on this workload's path".
            if !args.trace || *value != 0.0 {
                let unit = tables::unit_of(metric).unwrap_or("?");
                println!("{:<24} {:<44} {value:>16.4} {unit}", w.name, metric);
            }
        }
        if !run.outcome.correct || run.outcome.failed > 0 {
            println!(
                "{}: INCORRECT (failed {} of {})",
                w.name, run.outcome.failed, run.outcome.attempted
            );
            ok = false;
        }
        if !run.valid {
            println!(
                "{}: INVALID RUN (see its validity line); numbers not to be used",
                w.name
            );
            ok = false;
        }
        runs.insert(w.name, run);
    }
    // The traced simulation must simulate exactly what the plain one
    // does: same seeds, same fingerprints and event counts.
    let (plain, traced) = (&runs["sim_clos_storm"], &runs["sim_clos_storm_traced"]);
    for (seed, fp) in &traced.fingerprints {
        if plain.fingerprints.get(seed).is_some_and(|p| p != fp) {
            println!("sim_clos_storm_traced {seed}: fingerprint differs from sim_clos_storm");
            ok = false;
        }
    }
    if args.trace {
        ok &= layers_separate(&runs);
    }
    Ok(ok.then_some(runs))
}

/// The design claims of the workload set, checked on the traced set:
/// the serve pair separates wire from router, the mc pair separates
/// repair from sampler.
fn layers_separate(runs: &BTreeMap<&'static str, ChildRun>) -> bool {
    let get = |w: &str, m: &str| runs[w].outcome.metric(m).unwrap_or(0.0);
    let search = "ft-graph.bibfs_ns_per_search";
    let (alive, sample, reach) = (
        "ft-sim.fabric.alive_words_ns_per_block",
        "ft-failure.sample_sliced_ns_per_block",
        "ft-graph.sliced_reach_ns_per_block",
    );
    let claims = [
        (
            "bibfs_ns_per_search at least 5x larger on serve_ftn_pipelined than on serve_clos_pipelined",
            get("serve_ftn_pipelined", search) >= 5.0 * get("serve_clos_pipelined", search),
        ),
        (
            "alive_words dominates a block of mc_ftn_repair",
            get("mc_ftn_repair", alive) > get("mc_ftn_repair", sample).max(get("mc_ftn_repair", reach)),
        ),
        (
            "sample_sliced dominates a block of mc_benes_sample",
            get("mc_benes_sample", sample) > get("mc_benes_sample", alive).max(get("mc_benes_sample", reach)),
        ),
    ];
    for (claim, holds) in claims {
        println!("separation: {claim}: {}", if holds { "yes" } else { "NO" });
    }
    claims.iter().all(|(_, holds)| *holds)
}

/// Two full sets back to back; the second must be within every
/// end-to-end metric's bound of the first.
fn check(args: &Args) -> Result<bool, String> {
    let (Some(first), Some(second)) = (run_set(args)?, run_set(args)?) else {
        return Ok(false);
    };
    let mut ok = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let value = |set: &BTreeMap<&str, ChildRun>| {
                set[w.name]
                    .outcome
                    .metric(m.name)
                    .ok_or(format!("{}: no {}", w.name, m.name))
            };
            let (a, b) = (value(&first)?, value(&second)?);
            let worse = if m.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse > m.bound {
                "OUT OF BOUND"
            } else {
                "ok"
            };
            println!(
                "check {:<24} {:<16} first {a:>14.4} second {b:>14.4} worse by {:>+7.2}% (bound {:.0}%) {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
            ok &= worse <= m.bound;
        }
    }
    Ok(ok)
}

/// `main` of both binaries. `counting` says whether this binary
/// installed the counting allocator, which only the traced run wants.
pub fn main(counting: bool) -> ExitCode {
    let run = || -> Result<bool, String> {
        let args = parse_args(std::env::args().skip(1))?;
        if args.print_benchmark_json {
            print!("{}", tables::benchmark_json());
            return Ok(true);
        }
        if args.trace != counting {
            return Err(format!(
                "--trace {} runs in {}; benchmark/run.sh picks the binary",
                u8::from(args.trace),
                if args.trace {
                    "ftbench-ladder"
                } else {
                    "ftbench"
                }
            ));
        }
        match &args.workload {
            Some(name) => run_one(name, &args),
            None if args.check => check(&args),
            None => Ok(run_set(&args)?.is_some()),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ftbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_driver_form_parses() {
        let a = parse(&[
            "--workload",
            "serve_ftn_storm",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_ftn_storm"));
        assert_eq!((a.seed, a.seconds, a.trace, a.check), (42, 10, true, false));
    }

    #[test]
    fn defaults_and_aliases() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (None, 1, RUN_SECONDS, false)
        );
        assert!(parse(&["--ladder"]).unwrap().trace);
        assert!(parse(&["--check"]).unwrap().check);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn every_workload_in_the_table_has_a_definition() {
        for w in &WORKLOADS {
            kind_of(w.name);
        }
    }
}
