//! Multi-seed parallel sweeps.
//!
//! The driver's worker discipline, which [`crate::pair_blocking_estimate`]
//! shares within one thread (blocks seeded by `block_seed` alone, one
//! set of buffers for all of them): each thread owns **one RNG-per-seed engine and one
//! reusable [`SimWorkspace`]** for its whole share of seeds, so a
//! sweep's steady-state allocation is one workspace per worker. Workers
//! claim the next seed from a shared cursor. Results land in seed order
//! regardless of the worker count — per-seed runs are independent, so
//! `threads` affects wall clock only, never the report bytes.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

use crate::engine::{run_seed_obs, run_seed_with, SeedOutcome, SimConfig, SimWorkspace};
use crate::fabric::Fabric;
use ft_obs::TraceBuf;

/// Runs `job(i, state)` for every `i < count` on `threads` workers (0 =
/// one per available core) and returns the results in index order. Each
/// worker owns one `state` (its workspace, and its trace buffer when
/// tracing) and claims indices from a shared cursor, so indices start
/// in ascending order.
fn for_each_seed<S: Default, T: Send>(
    count: usize,
    threads: usize,
    job: impl Fn(usize, &mut S) -> T + Sync,
) -> Vec<T> {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut state = S::default();
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return done;
            }
            done.push((i, job(i, &mut state)));
        }
    };
    let mut results = if threads.min(count) <= 1 {
        worker()
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads.min(count))
                .map(|_| scope.spawn(worker))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, t)| t).collect()
}

/// Runs every seed of `seeds` on `threads` workers (0 = one per
/// available core). Outcomes come back in `seeds` order.
pub fn run_sweep(
    fabric: &Fabric,
    cfg: &SimConfig,
    seeds: &[u64],
    threads: usize,
) -> Vec<SeedOutcome> {
    for_each_seed(seeds.len(), threads, |i, ws: &mut SimWorkspace| {
        run_seed_with(fabric, cfg, seeds[i], ws)
    })
}

/// [`run_sweep_traced_to`] into memory: the whole trace as one string.
pub fn run_sweep_traced(
    fabric: &Fabric,
    cfg: &SimConfig,
    seeds: &[u64],
    threads: usize,
) -> (Vec<SeedOutcome>, String) {
    let mut bytes = Vec::new();
    let (outcomes, _) = run_sweep_traced_to(fabric, cfg, seeds, threads, &mut bytes)
        .expect("writing to memory cannot fail");
    let trace = String::from_utf8(bytes).expect("the trace is ASCII");
    (outcomes, trace)
}

/// [`run_sweep`] with an NDJSON trace of every seed's event stream,
/// streamed to `out`; returns the outcomes and the trace's line count.
///
/// Each seed's trace opens with a `{"ev":"seed",...}` header. A worker
/// renders its seeds into one [`TraceBuf`] and hands it to `out` as
/// soon as every earlier seed's is written, waiting for its turn if
/// needed, so `out` receives the same bytes for every `threads` value.
/// The worker then clears the buffer and renders its next seed into the
/// same pages: one live buffer per worker, grown once. After a write
/// error the sweep still finishes, writes nothing more, and returns
/// the error.
pub fn run_sweep_traced_to<W: Write + Send + ?Sized>(
    fabric: &Fabric,
    cfg: &SimConfig,
    seeds: &[u64],
    threads: usize,
    out: &mut W,
) -> io::Result<(Vec<SeedOutcome>, u64)> {
    stream_seeds(seeds.len(), threads, out, |i, ws, buf| {
        buf.begin_seed(seeds[i]);
        run_seed_obs(fabric, cfg, seeds[i], ws, buf)
    })
}

/// [`for_each_seed`] for jobs that also render a trace into the worker's
/// buffer: each seed's trace goes to `out` in index order, the buffer is
/// cleared for the worker's next seed, and the total line count comes
/// back.
fn stream_seeds<T: Send, W: Write + Send + ?Sized>(
    count: usize,
    threads: usize,
    out: &mut W,
    job: impl Fn(usize, &mut SimWorkspace, &mut TraceBuf) -> T + Sync,
) -> io::Result<(Vec<T>, u64)> {
    let turn = Turn {
        state: Mutex::new(TurnState {
            next: 0,
            out,
            lines: 0,
            result: Ok(()),
            abandoned: false,
        }),
        changed: Condvar::new(),
    };
    let results = for_each_seed(
        count,
        threads,
        |i, (ws, buf): &mut (SimWorkspace, TraceBuf)| {
            let _guard = AbandonOnPanic(&turn);
            let result = job(i, ws, buf);
            turn.write_in_turn(i, buf);
            buf.clear();
            result
        },
    );
    let state = turn
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    state.result.map(|()| (results, state.lines))
}

/// The in-order handoff of per-seed trace buffers to one writer.
struct Turn<'w, W: ?Sized> {
    state: Mutex<TurnState<'w, W>>,
    changed: Condvar,
}

struct TurnState<'w, W: ?Sized> {
    /// The seed index whose buffer is written next.
    next: usize,
    out: &'w mut W,
    lines: u64,
    result: io::Result<()>,
    /// A worker panicked: nobody waits for a turn any more.
    abandoned: bool,
}

impl<W: Write + ?Sized> Turn<'_, W> {
    /// Waits until every seed before `i` is written, then writes `buf`.
    fn write_in_turn(&self, i: usize, buf: &TraceBuf) {
        // The lock is poisoned only by a panic inside `write_all`, which
        // leaves the state as it was and marks the sweep abandoned.
        let lock = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut state = self
            .changed
            .wait_while(lock, |s| s.next != i && !s.abandoned)
            .unwrap_or_else(PoisonError::into_inner);
        if state.abandoned {
            return;
        }
        if state.result.is_ok() {
            state.result = state.out.write_all(buf.as_bytes());
            state.lines += buf.lines();
        }
        state.next += 1;
        self.changed.notify_all();
    }
}

/// Wakes every waiting worker if the seed it guards panics, so the
/// panic reaches the caller instead of leaving later seeds waiting for
/// a turn that never comes.
struct AbandonOnPanic<'a, 'w, W: ?Sized>(&'a Turn<'w, W>);

impl<W: ?Sized> Drop for AbandonOnPanic<'_, '_, W> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.abandoned = true;
            self.0.changed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricSpec;
    use crate::workload::{HoldingTime, TrafficPattern};

    fn cfg() -> SimConfig {
        SimConfig {
            arrival_rate: 5.0,
            holding: HoldingTime::Exponential { mean: 1.0 },
            pattern: TrafficPattern::Uniform,
            fault_rate: 0.003,
            fault_open_share: 0.5,
            mttr: 8.0,
            duration: 40.0,
            warmup: 0.0,
            buckets: 4,
            ..SimConfig::default()
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let fabric = FabricSpec::ClosStrict(2, 2).build();
        let cfg = cfg();
        let seeds: Vec<u64> = (1..=6).collect();
        let serial = run_sweep(&fabric, &cfg, &seeds, 1);
        let parallel = run_sweep(&fabric, &cfg, &seeds, 3);
        let auto = run_sweep(&fabric, &cfg, &seeds, 0);
        assert_eq!(serial, parallel);
        assert_eq!(serial, auto);
        let got: Vec<u64> = serial.iter().map(|o| o.seed).collect();
        assert_eq!(got, seeds);
    }

    #[test]
    fn traced_sweep_is_thread_count_independent() {
        let fabric = FabricSpec::ClosStrict(2, 2).build();
        let cfg = cfg();
        let seeds: Vec<u64> = (1..=5).collect();
        let (serial_out, serial_trace) = run_sweep_traced(&fabric, &cfg, &seeds, 1);
        let (parallel_out, parallel_trace) = run_sweep_traced(&fabric, &cfg, &seeds, 4);
        assert_eq!(serial_out, parallel_out);
        assert_eq!(serial_trace, parallel_trace);
        // The trace is the untraced sweep's outcomes plus bytes on the side.
        assert_eq!(serial_out, run_sweep(&fabric, &cfg, &seeds, 1));
        assert_eq!(serial_trace.matches("\"ev\":\"seed\"").count(), seeds.len());
    }

    /// A writer that accepts `left` writes, then fails every one.
    struct FailAfter {
        left: usize,
        got: Vec<u8>,
    }

    impl Write for FailAfter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if self.left == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.left -= 1;
            self.got.extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streamed_trace_is_in_seed_order_and_stops_at_a_write_error() {
        let fabric = FabricSpec::ClosStrict(2, 2).build();
        let cfg = cfg();
        let seeds: Vec<u64> = (1..=5).collect();
        let (outcomes, whole) = run_sweep_traced(&fabric, &cfg, &seeds, 1);
        let mut out = Vec::new();
        let (streamed, lines) = run_sweep_traced_to(&fabric, &cfg, &seeds, 2, &mut out).unwrap();
        assert_eq!((streamed, out), (outcomes, whole.clone().into_bytes()));
        assert_eq!(lines, whole.lines().count() as u64);

        // Each seed's buffer is one write: two succeed, then the sweep
        // writes nothing more and reports the error.
        let mut failing = FailAfter {
            left: 2,
            got: Vec::new(),
        };
        assert!(run_sweep_traced_to(&fabric, &cfg, &seeds, 2, &mut failing).is_err());
        let (_, first_two) = run_sweep_traced(&fabric, &cfg, &seeds[..2], 1);
        assert_eq!(failing.got, first_two.into_bytes());
    }

    #[test]
    fn a_panicking_seed_fails_the_streamed_sweep_instead_of_hanging() {
        // Seed 0 panics only after seed 1 is done, so seed 1 is (about
        // to be) waiting for its turn when the panic comes.
        let seed_1_done = std::sync::Barrier::new(2);
        let sweep = std::panic::AssertUnwindSafe(|| {
            stream_seeds(4, 2, &mut Vec::new(), |i, _, _| {
                if i <= 1 {
                    seed_1_done.wait();
                }
                assert_ne!(i, 0, "seed 0 fails");
            })
        });
        assert!(std::panic::catch_unwind(sweep).is_err());
    }

    #[test]
    fn single_seed_sweep() {
        let fabric = FabricSpec::ClosStrict(2, 2).build();
        let out = run_sweep(&fabric, &cfg(), &[9], 4);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].seed, 9);
    }
}
