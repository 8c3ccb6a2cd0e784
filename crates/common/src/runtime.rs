//! Timed-run scaffolding shared by every engine.
//!
//! All experiments follow the same shape: spawn one long-lived pinned
//! thread per "core" (Section 3.1), run a warmup, measure a fixed window,
//! stop, and merge per-thread statistics. Engines differ only in what each
//! worker does, so they pass a worker closure.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::affinity::pin_to_core;
use crate::stats::{RunStats, ThreadStats};

/// Run-control flags polled by workers.
pub struct RunCtl {
    measuring: AtomicBool,
    stop: AtomicBool,
    /// A worker thread died (panicked) mid-run. Survivors poll this to
    /// avoid waiting forever on a peer that will never drain its ring —
    /// the run is already doomed to report the panic; liveness of the
    /// shutdown path is all that is left to protect.
    failed: AtomicBool,
}

impl RunCtl {
    /// A fresh controller: not measuring, not stopped. [`timed_run`]
    /// builds one per run; an ORTHRUS engine owns one behind an `Arc`
    /// beside its threads and drives it through
    /// [`Self::begin_measuring`] / [`Self::request_stop`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        RunCtl {
            measuring: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }

    /// Whether the measurement window is open (workers count commits only
    /// while it is).
    #[inline]
    pub fn is_measuring(&self) -> bool {
        self.measuring.load(Ordering::Relaxed)
    }

    /// Whether workers must wind down.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Open the measurement window: workers reset their window counters
    /// at the next poll.
    pub fn begin_measuring(&self) {
        self.measuring.store(true, Ordering::SeqCst);
    }

    /// Ask workers to wind down (drain and exit their loops).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Record that a worker thread died mid-run (called from its unwind
    /// path). See [`Self::is_failed`].
    pub fn mark_failed(&self) {
        self.failed.store(true, Ordering::Release);
    }

    /// Whether some worker thread has died. A producer blocked on a full
    /// ring whose consumer may be the dead thread must stop waiting and
    /// discard — the consumer will never drain again, and the engine is
    /// already committed to reporting the panic at shutdown.
    #[inline]
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }
}

/// Common run parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// Worker ("core") count. The baseline engines spawn exactly this
    /// many workers. ORTHRUS derives its worker count from the engine's
    /// own CC/exec split instead and **enforces** this field: pass `0`
    /// ("derive from the engine") or the exact
    /// `OrthrusConfig::total_threads()` — anything else is rejected at
    /// run start, so a harness can no longer believe it measured a
    /// thread count the engine never ran.
    pub threads: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Warmup before the measured window.
    pub warmup: Duration,
    /// Measured window length.
    pub measure: Duration,
    /// OLLP estimate-noise percentage (planned engines; see
    /// `orthrus_txn::plan_accesses`). ORTHRUS plans with its own
    /// `OrthrusConfig::ollp_noise_pct` and enforces this field like
    /// `threads`: pass `0` ("take the engine's") or exactly that value.
    pub ollp_noise_pct: u32,
}

impl RunParams {
    /// Quick defaults for tests: short windows, fixed seed.
    pub fn quick(threads: usize) -> Self {
        RunParams {
            threads,
            seed: 42,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(200),
            ollp_noise_pct: 0,
        }
    }
}

/// Spawn `n_workers` pinned threads running `worker(index, ctl)`, drive
/// the warmup → measure → stop protocol, and merge the returned stats.
/// The baseline engines' run protocol (ORTHRUS owns its threads itself:
/// `orthrus_core::OrthrusEngine::run`).
pub fn timed_run<F>(n_workers: usize, warmup: Duration, measure: Duration, worker: F) -> RunStats
where
    F: Fn(usize, &RunCtl) -> ThreadStats + Sync,
{
    let ctl = RunCtl::new();
    let mut per_thread: Vec<ThreadStats> = Vec::new();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_workers);
        for i in 0..n_workers {
            let ctl = &ctl;
            let worker = &worker;
            handles.push(scope.spawn(move || {
                pin_to_core(i);
                worker(i, ctl)
            }));
        }
        std::thread::sleep(warmup);
        ctl.begin_measuring();
        let t0 = Instant::now();
        std::thread::sleep(measure);
        ctl.request_stop();
        elapsed = t0.elapsed();
        for h in handles {
            per_thread.push(h.join().expect("worker panicked"));
        }
    });
    RunStats::collect(&per_thread, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_only_the_window() {
        let stats = timed_run(
            4,
            Duration::from_millis(30),
            Duration::from_millis(100),
            |_, ctl| {
                let mut s = ThreadStats::default();
                while !ctl.is_stopped() {
                    std::thread::sleep(Duration::from_millis(1));
                    if ctl.is_measuring() {
                        s.committed += 1;
                    }
                }
                s
            },
        );
        assert_eq!(stats.threads, 4);
        assert!(stats.totals.committed > 0);
        // ~100 per thread if sleeps were exact; allow wide slack but catch
        // counting during warmup (~130/thread) or forever (unbounded).
        assert!(
            stats.totals.committed < 4 * 130,
            "counted outside the window: {}",
            stats.totals.committed
        );
        assert!(stats.elapsed >= Duration::from_millis(95));
    }

    /// A worker's panic fails the whole run instead of being counted as
    /// an empty thread.
    #[test]
    #[should_panic(expected = "worker panicked")]
    fn a_panicking_worker_fails_the_run() {
        timed_run(1, Duration::ZERO, Duration::ZERO, |_, _| panic!("boom"));
    }

    #[test]
    fn throughput_reflects_commits_over_window() {
        let stats = timed_run(
            1,
            Duration::from_millis(1),
            Duration::from_millis(50),
            |_, ctl| {
                let mut s = ThreadStats::default();
                while !ctl.is_stopped() {
                    if ctl.is_measuring() {
                        s.committed += 1;
                    }
                }
                s
            },
        );
        assert!(stats.throughput() > 0.0);
    }
}
