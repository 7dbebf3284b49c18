//! The grid runner: parallel cell execution with cache reuse.
//!
//! Cells are prepared (expanded, validated, hashed, cache-probed)
//! serially — that part is cheap and deterministic — and the cache
//! misses are then executed by a worker pool. Each worker owns **one
//! [`SimWorkspace`] for every seed of every cell it runs** (the
//! discipline of `ft_sim::run_sweep`), workers claim cells from an atomic cursor, and results
//! land by cell index. Per-cell work is single-threaded and seeded, so
//! the worker count affects wall clock only — never a byte of the
//! report, which `tests/determinism.rs` pins.

use crate::cache;
use crate::grid::{Cell, GridSpec};
use crate::result::{CellData, SeedRow};
use ft_failure::FailureModel;
use ft_sim::{pair_blocking_estimate, run_seed_with, Scenario, SimWorkspace};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the runner should execute a study.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Cell cache directory (`None` disables caching entirely).
    pub cache_dir: Option<PathBuf>,
    /// Ignore cache hits and recompute every cell (still writes back).
    pub recompute: bool,
}

/// How a cell's data came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellSource {
    /// Simulated this run.
    Computed,
    /// Loaded from the cell cache.
    Cached,
}

/// One finished cell: the grid cell plus its data (or skip reason).
#[derive(Clone, Debug)]
pub struct CellReport {
    /// The expanded grid cell (assignments, scenario, hash).
    pub cell: Cell,
    /// The results, or `Err(reason)` for a skipped (invalid) cell.
    pub data: Result<(CellData, CellSource), String>,
}

/// A finished study: every cell in grid order, plus run accounting.
#[derive(Clone, Debug)]
pub struct StudyResult {
    /// Cells in grid (row-major) order.
    pub cells: Vec<CellReport>,
    /// Cells simulated this run.
    pub computed: usize,
    /// Cells served from the cache.
    pub cached: usize,
    /// Cells skipped by the validator.
    pub skipped: usize,
    /// Mean wall-time per *computed* cell, in milliseconds (0 when no
    /// cell was computed). Wall time is run accounting — stderr only,
    /// never part of the deterministic study bytes.
    pub(crate) wall_ms_mean: f64,
    /// Worst computed-cell wall-time, in milliseconds.
    pub(crate) wall_ms_max: f64,
    /// Wall-clock of the three runner phases — (serial cache probe,
    /// parallel compute, write-back/assembly) — in milliseconds. Run
    /// accounting for `--profile`; stderr only, never in the tables.
    pub(crate) phase_ms: [f64; 3],
}

/// Display names for [`StudyResult::phase_ms`], in order.
pub(crate) const PHASE_NAMES: [&str; 3] = ["probe", "compute", "write-back"];

impl StudyResult {
    /// One-line run accounting (the `ftexp` CLI prints this to stderr;
    /// CI greps it to assert a warm run computes zero cells). Stable
    /// and deterministic — timing lives in [`Self::timing_line`].
    pub fn summary_line(&self) -> String {
        ft_obs::KvLine::new("cells")
            .kv("total", self.cells.len())
            .kv("computed", self.computed)
            .kv("cached", self.cached)
            .kv("skipped", self.skipped)
            .finish()
    }

    /// Per-cell wall-time accounting for the cells computed this run
    /// (`None` when everything came from the cache or was skipped) —
    /// makes study-runtime regressions visible in CI logs without
    /// touching the byte-stable tables.
    pub fn timing_line(&self) -> Option<String> {
        (self.computed > 0).then(|| {
            ft_obs::KvLine::new("cell wall-time ms:")
                .kv("computed", self.computed)
                .kv_f1("mean", self.wall_ms_mean)
                .kv_f1("max", self.wall_ms_max)
                .finish()
        })
    }

    /// One `phase <name> ms=<t>` line per runner phase, for `--profile`.
    pub fn phase_lines(&self) -> Vec<String> {
        let mut prof = ft_obs::Profiler::new(true);
        for (name, &ms) in PHASE_NAMES.iter().zip(&self.phase_ms) {
            prof.add_ms(name, ms);
        }
        prof.lines()
    }
}

/// Executes every cell of `spec`, reusing `opts.cache_dir` hits.
///
/// Fails only on environment errors (cache directory creation); a cell
/// whose parameter combination is invalid is reported as skipped, and a
/// cache file that fails verification is recomputed.
pub fn run_grid(spec: &GridSpec, opts: &RunOptions) -> Result<StudyResult, String> {
    if let Some(dir) = &opts.cache_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating cache dir {}: {e}", dir.display()))?;
    }

    let cells = spec.cells();
    let phase_start = std::time::Instant::now();
    // 1) serial pass: skips and cache probes, in cell order
    let mut resolved: Vec<Option<Result<(CellData, CellSource), String>>> =
        Vec::with_capacity(cells.len());
    let mut jobs: Vec<usize> = Vec::new();
    let (mut cached, mut skipped) = (0usize, 0usize);
    for cell in &cells {
        let entry = match (&cell.scenario, cell.hash) {
            (Err(reason), _) => {
                skipped += 1;
                Some(Err(reason.clone()))
            }
            (Ok(_), Some(hash)) => {
                let hit = if opts.recompute {
                    None
                } else {
                    opts.cache_dir.as_deref().and_then(|d| cache::load(d, hash))
                };
                match hit {
                    Some(data) => {
                        cached += 1;
                        Some(Ok((data, CellSource::Cached)))
                    }
                    None => {
                        jobs.push(cell.index);
                        None
                    }
                }
            }
            (Ok(_), None) => unreachable!("valid cells always hash"),
        };
        resolved.push(entry);
    }

    let probe_ms = phase_start.elapsed().as_secs_f64() * 1e3;
    let phase_start = std::time::Instant::now();

    // 2) parallel pass: workers claim cache misses from a cursor
    let computed = jobs.len();
    let slots: Vec<Mutex<Option<(CellData, f64)>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let workers = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        opts.threads
    };
    let workers = workers.clamp(1, jobs.len().max(1));
    let cursor = AtomicUsize::new(0);
    let (cells_ref, jobs_ref, slots_ref) = (&cells, &jobs, &slots);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut ws = SimWorkspace::default();
                loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    if j >= jobs_ref.len() {
                        return;
                    }
                    let cell = &cells_ref[jobs_ref[j]];
                    let scenario = cell.scenario.as_ref().expect("jobs are valid cells");
                    let hash = cell.hash.expect("valid cells always hash");
                    let t0 = std::time::Instant::now();
                    let data = compute_cell(scenario, spec.static_trials, hash, &mut ws);
                    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                    *slots_ref[j].lock().unwrap() = Some((data, wall_ms));
                }
            });
        }
    });

    let compute_ms = phase_start.elapsed().as_secs_f64() * 1e3;
    let phase_start = std::time::Instant::now();

    // 3) write-back and assembly, in cell order
    let (mut wall_sum, mut wall_max) = (0.0f64, 0.0f64);
    for (&ci, slot) in jobs.iter().zip(&slots) {
        let (data, wall_ms) = slot
            .lock()
            .unwrap()
            .take()
            .expect("worker left a cell unfilled");
        wall_sum += wall_ms;
        wall_max = wall_max.max(wall_ms);
        if let Some(dir) = &opts.cache_dir {
            // best-effort: an unwritable cache costs recomputation later
            let _ = cache::store(dir, cells[ci].hash.unwrap(), &data);
        }
        resolved[ci] = Some(Ok((data, CellSource::Computed)));
    }
    let reports = cells
        .into_iter()
        .zip(resolved)
        .map(|(cell, data)| CellReport {
            cell,
            data: data.expect("every cell resolved"),
        })
        .collect();
    Ok(StudyResult {
        cells: reports,
        computed,
        cached,
        skipped,
        wall_ms_mean: if computed > 0 {
            wall_sum / computed as f64
        } else {
            0.0
        },
        wall_ms_max: wall_max,
        phase_ms: [
            probe_ms,
            compute_ms,
            phase_start.elapsed().as_secs_f64() * 1e3,
        ],
    })
}

/// Simulates one cell: every seed through the engine on the caller's
/// workspace, then the static cross-check (seeded by the cell hash so
/// it is deterministic per cell content).
fn compute_cell(
    scenario: &Scenario,
    static_trials: u64,
    hash: u64,
    ws: &mut SimWorkspace,
) -> CellData {
    let fabric = scenario.fabric.build();
    let seeds = scenario
        .seed_list()
        .iter()
        .map(|&seed| {
            SeedRow::from_outcome(&run_seed_with(&fabric, &scenario.config, seed, ws), &fabric)
        })
        .collect();
    let c = &scenario.config;
    let static_est = (static_trials > 0 && c.fault_rate > 0.0 && c.mttr > 0.0).then(|| {
        let model = FailureModel::stationary(c.fault_rate, c.mttr, c.fault_open_share);
        pair_blocking_estimate(&fabric, &model, static_trials, hash)
    });
    CellData {
        fabric_label: fabric.label(),
        switches: fabric.net().size(),
        terminals: fabric.terminals(),
        seeds,
        static_est,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    const GRID: &str = "\
arrival_rate = 4
duration = 25
seeds = 2
static_trials = 500
sweep network = clos-strict 2 2 | crossbar 4
sweep fault_rate = 0, 0.004
";

    fn no_cache() -> RunOptions {
        RunOptions {
            threads: 1,
            cache_dir: None,
            recompute: false,
        }
    }

    #[test]
    fn runs_a_grid_and_skips_invalid_cells() {
        let spec = GridSpec::parse(GRID).unwrap();
        let result = run_grid(&spec, &no_cache()).unwrap();
        assert_eq!(result.cells.len(), 4);
        assert_eq!(result.computed, 3);
        assert_eq!(result.cached, 0);
        assert_eq!(result.skipped, 1); // crossbar × fault_rate 0.004
        let skip = result.cells[3].data.as_ref().unwrap_err();
        assert!(skip.contains("crossbar"), "{skip}");
        // faulty clos cell carries the static cross-check; fault-free
        // cells don't
        let (faulty, _) = result.cells[1].data.as_ref().unwrap();
        assert!(faulty.static_est.is_none(), "mttr defaults to 0 here");
        assert_eq!(
            result.summary_line(),
            "cells total=4 computed=3 cached=0 skipped=1"
        );
        // wall-time accounting covers exactly the computed cells
        assert!(result.wall_ms_mean > 0.0);
        assert!(result.wall_ms_max >= result.wall_ms_mean);
        let timing = result.timing_line().expect("cells were computed");
        assert!(timing.starts_with("cell wall-time ms: computed=3 mean="));
        let phases = result.phase_lines();
        assert_eq!(phases.len(), 3);
        assert!(phases[0].starts_with("phase probe ms="), "{}", phases[0]);
        assert!(phases[1].starts_with("phase compute ms="), "{}", phases[1]);
        assert!(
            phases[2].starts_with("phase write-back ms="),
            "{}",
            phases[2]
        );
    }

    #[test]
    fn timing_line_absent_when_nothing_computed() {
        let spec = GridSpec::parse("duration = 5\nsweep network = crossbar 2\n").unwrap();
        let dir = std::env::temp_dir().join("ftexp-runner-timing-test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            threads: 1,
            cache_dir: Some(dir),
            recompute: false,
        };
        let cold = run_grid(&spec, &opts).unwrap();
        assert!(cold.timing_line().is_some());
        let warm = run_grid(&spec, &opts).unwrap();
        assert_eq!(warm.computed, 0);
        assert_eq!(warm.timing_line(), None, "cache hits report no wall time");
        assert_eq!(warm.wall_ms_mean, 0.0);
    }

    #[test]
    fn static_check_runs_with_repairs_enabled() {
        let spec =
            GridSpec::parse("mttr = 10\nduration = 25\nstatic_trials = 400\nsweep network = clos-strict 2 2\nsweep fault_rate = 0.004, 0.04\n")
                .unwrap();
        let result = run_grid(&spec, &no_cache()).unwrap();
        let (lo, _) = result.cells[0].data.as_ref().unwrap();
        let (hi, _) = result.cells[1].data.as_ref().unwrap();
        let (lo, hi) = (lo.static_est.unwrap(), hi.static_est.unwrap());
        assert_eq!(lo.trials, 400);
        assert!(hi.p() >= lo.p(), "{} vs {}", hi.p(), lo.p());
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let spec = GridSpec::parse(GRID).unwrap();
        let serial = run_grid(&spec, &no_cache()).unwrap();
        let mut opts = no_cache();
        opts.threads = 4;
        let parallel = run_grid(&spec, &opts).unwrap();
        opts.threads = 0;
        let auto = run_grid(&spec, &opts).unwrap();
        for other in [&parallel, &auto] {
            for (a, b) in serial.cells.iter().zip(&other.cells) {
                match (&a.data, &b.data) {
                    (Ok((da, _)), Ok((db, _))) => assert_eq!(da, db),
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                    // deliberate test-only panic: a cell that is ok on
                    // one thread count and skipped on another is a
                    // determinism bug this test exists to catch
                    _ => panic!("cell source mix-up"),
                }
            }
        }
    }
}
