//! Cross-thread group-fsync coordinator (durability rung 2).
//!
//! Under per-run sync every exec thread calls `fdatasync` for its own
//! writes, serializing all of them behind the device's flush latency.
//! The coordinator inverts the protocol: exec threads only *publish*
//! their appended watermark (see
//! [`CommandLog::append_frames`](crate::CommandLog::append_frames) in
//! group mode) and queue the write's completions; one coordinator thread
//! coalesces every outstanding append across all threads into a single
//! fsync, then the exec threads release every ticketed completion at or
//! below the synced watermark. One flush pays for N appends — the same
//! group-commit amortization the engine already applies to log records
//! (one record per fused run), lifted from the record layer to the
//! *flush* layer.
//!
//! The pause between passes walks: when a pass coalesces little (the log
//! is idle or the coordinator is over-eager) it doubles; when a pass
//! coalesces a lot (appends are piling up behind the flush) it halves,
//! bounded to [`MIN_INTERVAL_US`]..[`MAX_INTERVAL_US`]. (Why it walks
//! rather than fsyncing whenever anything is unsynced: DESIGN.md, "Every
//! self-tuner and what it reads".)

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use orthrus_common::sim;
use orthrus_common::stats::ThreadStats;

use crate::log::CommandLog;

/// Lower bound of the adaptive sync interval (µs). Below this the
/// coordinator would busy-spin the flush path.
pub const MIN_INTERVAL_US: u64 = 20;
/// Upper bound of the adaptive sync interval (µs). Above this the
/// durability tax on open-loop latency dominates the fsync savings.
pub const MAX_INTERVAL_US: u64 = 2_000;

/// How `log+fsync` mode schedules its flushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncInterval {
    /// Every exec thread fsyncs its own writes inline, one fsync per
    /// write (durability rung 1). No coordinator thread is spawned.
    PerRun,
    /// Group sync: a coordinator thread whose pause between passes
    /// doubles or halves with the per-pass coalescing count.
    #[default]
    Adaptive,
}

impl SyncInterval {
    /// Whether this interval uses the cross-thread coordinator (vs
    /// inline per-run fsync).
    pub fn is_group(self) -> bool {
        self != SyncInterval::PerRun
    }
}

impl FromStr for SyncInterval {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "perrun" | "per-run" | "per_run" => Ok(SyncInterval::PerRun),
            "adaptive" => Ok(SyncInterval::Adaptive),
            _ => Err(format!(
                "unknown sync interval {s:?} (want per-run or adaptive)"
            )),
        }
    }
}

impl fmt::Display for SyncInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncInterval::PerRun => write!(f, "per-run"),
            SyncInterval::Adaptive => write!(f, "adaptive"),
        }
    }
}

/// Coordinator thread body: periodically coalesce all outstanding
/// appends into one fsync until `stop` is raised **and** the log is
/// fully synced (so no completion is left waiting on a watermark that
/// will never advance). Panics on fsync failure — the shared `failed`
/// flag is already raised by then, so exec threads fail too instead of
/// hanging.
///
/// Returns the coordinator's counters for merging into the run totals.
pub fn run_sync_coordinator(log: &CommandLog, stop: &AtomicBool) -> ThreadStats {
    // If this thread dies for *any* reason — an fsync error panic below,
    // or a simulated crash injected at one of its hooks — the watermark
    // will never advance again, and exec threads waiting on it must fail
    // loudly rather than hang. Raise the shared failure flag on unwind.
    struct FailOnUnwind<'a>(&'a CommandLog);
    impl Drop for FailOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.sync_state().mark_failed();
            }
        }
    }
    let _unwind_guard = FailOnUnwind(log);
    let mut stats = ThreadStats::default();
    let mut pause_us = MIN_INTERVAL_US;
    loop {
        let coalesced = match log.group_sync_now() {
            Ok(n) => n,
            Err(e) => panic!("group fsync failed: {e}"),
        };
        if coalesced > 0 {
            stats.log_group_syncs += 1;
            stats.log_synced_appends += coalesced;
            stats.log_flushes += 1;
        }
        // Steer the per-pass coalescing count into [8, 32]: below it
        // the flush cadence outpaces the append rate (each fsync is
        // under-amortized *and* the coordinator steals cycles from the
        // workers) — back off; above it appends pile up behind the flush
        // and the append→durable wait grows — tighten. The band is a
        // setpoint, not a dead zone: any pass outside it moves the pause.
        if coalesced < 8 {
            pause_us = (pause_us * 2).min(MAX_INTERVAL_US);
        } else if coalesced > 32 {
            pause_us = (pause_us / 2).max(MIN_INTERVAL_US);
        }
        let st = log.sync_state();
        if stop.load(Ordering::Acquire) && st.appended() == st.synced() {
            return stats;
        }
        if !sim::on_park() {
            std::thread::sleep(Duration::from_micros(pause_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::DurabilityMode;
    use crate::LoggedCommit;
    use orthrus_common::TempDir;
    use orthrus_txn::Program;
    use std::sync::Arc;

    #[test]
    fn intervals_parse_and_print() {
        for (s, v) in [
            ("per-run", SyncInterval::PerRun),
            ("perrun", SyncInterval::PerRun),
            ("adaptive", SyncInterval::Adaptive),
        ] {
            assert_eq!(s.parse::<SyncInterval>().unwrap(), v);
        }
        assert_eq!(SyncInterval::PerRun.to_string(), "per-run");
        assert_eq!(SyncInterval::Adaptive.to_string(), "adaptive");
        assert!("sometimes".parse::<SyncInterval>().is_err());
        assert!(
            "150".parse::<SyncInterval>().is_err(),
            "a fixed cadence is no longer a mode"
        );
        assert!(!SyncInterval::PerRun.is_group());
        assert!(SyncInterval::Adaptive.is_group());
    }

    #[test]
    fn coordinator_drains_outstanding_appends_before_stopping() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("synccoord");
        let log = Arc::new(
            CommandLog::open(t.path(), DurabilityMode::LogFsync)
                .unwrap()
                .with_group_sync(true),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let coord = {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            std::thread::spawn(move || run_sync_coordinator(&log, &stop))
        };
        for i in 0..20u64 {
            let mut batch = vec![LoggedCommit {
                ticket: Some(i),
                program: Program::Rmw { keys: vec![i] },
            }];
            log.append_run(&mut batch).unwrap();
        }
        stop.store(true, Ordering::Release);
        let stats = coord.join().unwrap();
        let st = log.sync_state();
        assert_eq!(st.synced(), 20, "stop only after everything is durable");
        assert_eq!(st.synced_records(), 20);
        assert_eq!(stats.log_synced_appends, 20);
        assert!(
            stats.log_group_syncs <= 20,
            "coalescing can only reduce fsyncs"
        );
    }
}
