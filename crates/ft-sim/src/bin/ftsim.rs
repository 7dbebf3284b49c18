//! `ftsim` — run a plain-text scenario through the discrete-event
//! engine and emit a JSON report.
//!
//! ```text
//! usage: ftsim SCENARIO [--out PATH] [--threads N] [--trace FILE]
//!              [--export-stream FILE] [--profile]
//!
//!   SCENARIO      path to a scenario spec (`-` reads stdin)
//!   --out PATH    also write the JSON report to PATH
//!   --threads N   override the scenario's worker count
//!   --trace FILE  write the deterministic NDJSON event trace to FILE
//!   --export-stream FILE  write the first seed's replayable workload
//!                 stream (NDJSON, see `ft_sim::stream`) for `ftserve-replay`
//!   --profile     print per-phase wall-clock, kernel counters and peak RSS to stderr
//! ```
//!
//! The report goes to stdout; diagnostics go to stderr. Exit status is
//! nonzero on any parse or I/O error. See `ft_sim::scenario` for the
//! spec format.

use std::io::Read;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: ftsim SCENARIO [--out PATH] [--threads N] [--trace FILE] [--export-stream FILE] [--profile]\n       (SCENARIO = path to a spec file, or `-` for stdin)"
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut threads_override: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut stream_path: Option<String> = None;
    let mut profile = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            "--out" => {
                out_path = Some(it.next().ok_or("--out needs a path")?);
            }
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                threads_override = Some(n.parse().map_err(|_| format!("bad thread count `{n}`"))?);
            }
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a path")?);
            }
            "--export-stream" => {
                stream_path = Some(it.next().ok_or("--export-stream needs a path")?);
            }
            "--profile" => profile = true,
            other if scenario_path.is_none() => scenario_path = Some(other.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    let scenario_path = scenario_path.ok_or_else(|| usage().to_string())?;
    let text = if scenario_path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(&scenario_path)
            .map_err(|e| format!("reading {scenario_path}: {e}"))?
    };

    let mut prof = ft_obs::Profiler::new(profile);
    let mut scenario = prof.section("parse", || ft_sim::Scenario::parse(&text))?;
    if let Some(t) = threads_override {
        scenario.threads = t;
    }
    let fabric = prof.section("build", || scenario.fabric.build());
    eprintln!(
        "ftsim: {} ({} switches, {} terminals), {} seed(s), duration {}",
        fabric.label(),
        fabric.net().size(),
        fabric.terminals(),
        scenario.seeds,
        scenario.config.duration,
    );
    let seeds = scenario.seed_list();
    if let Some(path) = &stream_path {
        // The replayable stream of the sweep's first seed, rendered
        // before the sweep so `--export-stream` works even on scenarios
        // too heavy to simulate here.
        let stream = ft_sim::stream::export_stream(&scenario, seeds[0]);
        let ndjson = ft_sim::stream::render_ndjson(&stream);
        ft_obs::write_atomic(path, &ndjson).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "ftsim: stream written to {path} ({} events, seed {})",
            stream.len(),
            seeds[0]
        );
    }
    let outcomes = prof.section("sweep", || -> Result<_, String> {
        let (cfg, threads) = (&scenario.config, scenario.threads);
        let Some(path) = &trace_path else {
            return Ok(ft_sim::run_sweep(&fabric, cfg, &seeds, threads));
        };
        // Each seed's trace is written as soon as the seeds before it
        // are, so memory holds at most one trace buffer per worker.
        let (outcomes, lines) = ft_obs::write_atomic_with(path, |f| {
            ft_sim::run_sweep_traced_to(&fabric, cfg, &seeds, threads, f)
        })
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("ftsim: trace written to {path} ({lines} lines)");
        Ok(outcomes)
    })?;
    let mut kernel = ft_graph::KernelStats::default();
    for o in &outcomes {
        kernel.merge(&o.kernel);
    }
    let report = ft_sim::Report::new(scenario, &fabric, outcomes);
    let json = prof.section("render", || report.to_json());
    print!("{json}");
    if let Some(path) = out_path {
        // Temp sibling + rename: an interrupted run must never leave a
        // torn report that downstream tooling half-parses.
        ft_obs::write_atomic(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("ftsim: report written to {path}");
    }
    if profile {
        for line in prof.lines() {
            eprintln!("ftsim: {line}");
        }
        let counters = ft_obs::KvLine::new("kernel counters")
            .kv("bibfs_pops", kernel.bibfs_pops)
            .kv("epoch_resets", kernel.epoch_resets)
            .kv("mincost_pops", kernel.mincost_pops)
            .finish();
        eprintln!("ftsim: {counters}");
        if let Some(mb) = ft_obs::profile::peak_rss_mb() {
            let line = ft_obs::KvLine::new("memory").kv_f1("peak_rss_mb", mb);
            eprintln!("ftsim: {}", line.finish());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftsim: {e}");
            ExitCode::FAILURE
        }
    }
}
