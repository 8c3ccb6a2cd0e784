//! The command log: a shared group-commit writer over
//! [`orthrus_storage::log::SegmentedLog`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use orthrus_common::failpoint::{self, FailAction};
use orthrus_common::sim;
use orthrus_storage::log::{LogPos, SegmentedLog, DEFAULT_SEGMENT_BYTES};
use parking_lot::Mutex;

use crate::codec::{encode_run, LoggedCommit};

/// Failpoint consulted on every record append (`err` fails it, `torn:N`
/// persists only the first N frame bytes before failing).
pub const FP_APPEND: &str = "durability.append";
/// Failpoint consulted on every fsync (`err` fails it).
pub const FP_FSYNC: &str = "durability.fsync";

/// Sim point reached after a group-mode append publishes its watermark
/// (the exec-thread → coordinator handoff).
pub const POINT_WATERMARK: &str = "durability.watermark";
/// Sim point reached by the coordinator before a group fsync (the
/// coordinator → waiting-exec-threads handoff).
pub const POINT_SYNC: &str = "durability.sync";

/// How durable a commit is before its completion is released
/// (`ORTHRUS_DURABILITY` in the harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// No log: the paper's main-memory-only semantics (default).
    #[default]
    Off,
    /// Append each run's record before releasing its locks/completions;
    /// no fsync — a crash loses at most the OS-buffered suffix, and
    /// recovery replays the surviving prefix.
    Log,
    /// Append **and fsync** before release: a delivered completion
    /// guarantees the covering record is on stable storage (true commit
    /// latency — the group-commit batching is what keeps this survivable).
    LogFsync,
}

impl DurabilityMode {
    /// Whether any log is written.
    pub fn is_on(&self) -> bool {
        !matches!(self, DurabilityMode::Off)
    }
}

impl std::fmt::Display for DurabilityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DurabilityMode::Off => "off",
            DurabilityMode::Log => "log",
            DurabilityMode::LogFsync => "log+fsync",
        })
    }
}

impl std::str::FromStr for DurabilityMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(DurabilityMode::Off),
            "log" => Ok(DurabilityMode::Log),
            "log+fsync" | "fsync" => Ok(DurabilityMode::LogFsync),
            _ => Err(format!(
                "unknown durability mode {s:?}; expected off | log | log+fsync"
            )),
        }
    }
}

/// What one append cost — folded into the committing thread's
/// `ThreadStats` (log bytes/records/flushes in `RunStats`).
#[derive(Debug, Clone, Copy)]
pub struct AppendReceipt {
    /// Framed bytes written for this record.
    pub bytes: u64,
    /// Whether an fsync was issued inline (`log+fsync` with per-run
    /// sync). Group-mode appends return `false`; durability arrives
    /// later, when the coordinator's watermark passes `lsn`.
    pub synced: bool,
    /// This record's log sequence number (1-based count of appended
    /// records this process). Compare against
    /// [`SyncState::synced`] to learn when the record is durable.
    pub lsn: u64,
}

/// Shared sync state between group-mode appenders (exec threads) and the
/// sync coordinator: the appended/synced watermarks in record LSNs, plus
/// coalescing counters. All lock-free — exec threads poll `synced`
/// between work quanta rather than blocking on a condvar.
#[derive(Debug, Default)]
pub struct SyncState {
    /// LSN of the last appended record (published under the writer lock).
    appended: AtomicU64,
    /// LSN through which records are known durable.
    synced: AtomicU64,
    /// A group fsync failed: waiters must stop waiting and fail loudly
    /// (the watermark will never advance again).
    failed: AtomicBool,
    /// Group fsyncs issued.
    group_syncs: AtomicU64,
    /// Records covered by those fsyncs (coalescing numerator).
    synced_records: AtomicU64,
}

impl SyncState {
    /// LSN of the last appended record.
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// LSN through which records are durable.
    pub fn synced(&self) -> u64 {
        self.synced.load(Ordering::Acquire)
    }

    /// Whether a group fsync failed (waiters must panic, not hang).
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Raise the failure flag without an fsync error — used when the
    /// coordinator thread itself dies (panic or injected crash), which
    /// also means the watermark will never advance again.
    pub fn mark_failed(&self) {
        self.failed.store(true, Ordering::Release);
    }

    /// Group fsyncs issued so far.
    pub fn group_syncs(&self) -> u64 {
        self.group_syncs.load(Ordering::Relaxed)
    }

    /// Records covered by group fsyncs so far.
    pub fn synced_records(&self) -> u64 {
        self.synced_records.load(Ordering::Relaxed)
    }
}

/// The engine-facing command log: one per engine, shared by every
/// execution thread.
///
/// The writer sits behind a mutex. That lock is **not** incidental — it
/// is the ordering guarantee: a thread appends while still holding its
/// run's locks, so for any two conflicting runs the lock fabric already
/// serialized the appends; the mutex serializes the *non*-conflicting
/// ones into some interleaving, which replay is free to use as its serial
/// order. Contention on it is one acquisition per fused run, the same
/// amortization schedule as the lock fabric's round trips.
pub struct CommandLog {
    inner: Mutex<Writer>,
    mode: DurabilityMode,
    /// `log+fsync` sync discipline: `false` = each append fsyncs inline
    /// (PR 5 per-run semantics); `true` = appends only publish their
    /// watermark and a sync coordinator coalesces the fsyncs
    /// ([`crate::sync::run_sync_coordinator`]).
    group_sync: bool,
    sync_state: SyncState,
    /// Total framed bytes appended this process (checkpoint trigger).
    appended_bytes: AtomicU64,
}

struct Writer {
    log: SegmentedLog,
    /// LSN of the last appended record (1-based count this process).
    next_lsn: u64,
}

impl CommandLog {
    /// Open (or create) the log at `dir` for appending. `mode` must not
    /// be [`DurabilityMode::Off`] — "no log" is represented by not
    /// constructing one.
    ///
    /// An existing clean log is continued. A *crashed* (torn) log is
    /// **refused** — records appended behind a tear would be durable yet
    /// unreachable to every future replay, the worst possible failure
    /// for a durability layer — so restart-after-crash must go through
    /// [`crate::recover`] (the engine's `OrthrusEngine::recover`), which
    /// repairs the tail first.
    pub fn open(dir: &Path, mode: DurabilityMode) -> io::Result<Self> {
        Self::open_with_segment_bytes(dir, mode, DEFAULT_SEGMENT_BYTES)
    }

    /// [`Self::open`] with an explicit segment byte budget (tests
    /// exercise segment rolling with tiny budgets).
    pub fn open_with_segment_bytes(
        dir: &Path,
        mode: DurabilityMode,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        assert!(mode.is_on(), "DurabilityMode::Off opens no log");
        if !orthrus_storage::log::tail_is_clean(dir)? {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "command log at {} has a torn tail; recover it first \
                     (OrthrusEngine::recover replays and repairs in place)",
                    dir.display()
                ),
            ));
        }
        Ok(CommandLog {
            inner: Mutex::new(Writer {
                log: SegmentedLog::open(dir, segment_bytes)?,
                next_lsn: 0,
            }),
            mode,
            group_sync: false,
            sync_state: SyncState::default(),
            appended_bytes: AtomicU64::new(0),
        })
    }

    /// Switch `log+fsync` appends to group-sync discipline: appends stop
    /// fsyncing inline and a coordinator thread
    /// ([`crate::sync::run_sync_coordinator`]) coalesces outstanding
    /// appends across all exec threads into single fsyncs. No effect in
    /// other modes. Builder-style; call before sharing the log.
    pub fn with_group_sync(mut self, on: bool) -> Self {
        self.group_sync = on;
        self
    }

    /// Whether group-sync discipline is active.
    pub fn group_sync(&self) -> bool {
        self.group_sync && self.mode == DurabilityMode::LogFsync
    }

    /// The shared appended/synced watermarks.
    pub fn sync_state(&self) -> &SyncState {
        &self.sync_state
    }

    /// The configured durability mode.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Current physical append position (all records end at or before
    /// it). Takes the writer lock; checkpoint-rate, not commit-rate.
    pub fn position(&self) -> LogPos {
        self.inner.lock().log.position()
    }

    /// Total framed bytes appended by this process — the checkpointer's
    /// "log grew enough" trigger.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes.load(Ordering::Relaxed)
    }

    /// Group commit: append one record covering the whole run, draining
    /// `txns` on success. Under [`DurabilityMode::LogFsync`] the record
    /// is fsynced before this returns — the caller releases locks and
    /// completions only after, so "completed" implies "durable".
    ///
    /// On error (real I/O failure, or the [`FP_APPEND`]/[`FP_FSYNC`]
    /// failpoints) the batch is left untouched and nothing counts as
    /// committed; the committing thread decides how loudly to fail
    /// (the engine panics — continuing past a broken durability contract
    /// would be silent data loss).
    pub fn append_run(&self, txns: &mut Vec<LoggedCommit>) -> io::Result<AppendReceipt> {
        self.append_run_into(txns, &mut Vec::with_capacity(64 * txns.len() + 8))
    }

    /// [`Self::append_run`], encoding the record into a buffer the
    /// caller keeps (whatever it held is overwritten): a committing
    /// thread encodes every run in the same one.
    pub fn append_run_into(
        &self,
        txns: &mut Vec<LoggedCommit>,
        buf: &mut Vec<u8>,
    ) -> io::Result<AppendReceipt> {
        debug_assert!(!txns.is_empty(), "empty runs are not logged");
        // Encode before taking the writer lock: the per-run CPU work is
        // thread-local and must not lengthen the shared critical
        // section, which should be the file write (plus the fsync)
        // alone.
        buf.clear();
        encode_run(txns, buf);
        let group = self.group_sync();
        let synced = self.mode == DurabilityMode::LogFsync && !group;
        // Sim yield point and failpoint consults happen *before* taking
        // the writer mutex: a thread parked by the scheduler while
        // holding it would deadlock every other committing thread.
        sim::on_point(FP_APPEND);
        let append_fault = failpoint::global().hit(FP_APPEND);
        let fsync_fault = if synced {
            failpoint::global().hit(FP_FSYNC)
        } else {
            None
        };
        let mut w = self.inner.lock();
        match append_fault {
            Some(FailAction::Err) => return Err(failpoint::injected_io_error(FP_APPEND)),
            Some(FailAction::Torn(keep)) => {
                // Persist a torn frame — the bytes a crash mid-append
                // leaves — then report the append as failed.
                w.log.append_torn(buf, keep)?;
                return Err(failpoint::injected_io_error(FP_APPEND));
            }
            _ => {}
        }
        let bytes = w.log.append(buf)?;
        if synced {
            if let Some(FailAction::Err) = fsync_fault {
                return Err(failpoint::injected_io_error(FP_FSYNC));
            }
            w.log.sync()?;
        }
        let lsn = w.next_lsn + 1;
        w.next_lsn = lsn;
        // Publish the watermark while still holding the writer lock: the
        // plain store stays monotone because appends are serialized here.
        self.sync_state.appended.store(lsn, Ordering::Release);
        if synced {
            self.sync_state.synced.store(lsn, Ordering::Release);
        }
        drop(w);
        self.appended_bytes.fetch_add(bytes, Ordering::Relaxed);
        if group {
            // The watermark-publish handoff to the coordinator, visible
            // to the sim scheduler (outside the mutex, per the seam's
            // no-OS-lock contract).
            sim::on_point(POINT_WATERMARK);
        }
        txns.clear();
        Ok(AppendReceipt { bytes, synced, lsn })
    }

    /// One coordinator pass: fsync every record appended since the last
    /// pass and advance the synced watermark over all of them — the
    /// cross-thread group commit. Returns how many appends the fsync
    /// coalesced (0 = nothing outstanding, no fsync issued). Honors the
    /// [`FP_FSYNC`] failpoint. On failure the shared `failed` flag is
    /// raised **before** returning, so threads waiting on the watermark
    /// fail loudly instead of hanging.
    pub fn group_sync_now(&self) -> io::Result<u64> {
        let target = self.sync_state.appended();
        let prev = self.sync_state.synced();
        if target == prev {
            return Ok(0);
        }
        sim::on_point(POINT_SYNC);
        let fail = |e: io::Error| {
            self.sync_state.failed.store(true, Ordering::Release);
            e
        };
        if let Some(FailAction::Err) = failpoint::global().hit(FP_FSYNC) {
            return Err(fail(failpoint::injected_io_error(FP_FSYNC)));
        }
        self.inner.lock().log.sync().map_err(fail)?;
        // `target` was read before the fsync, so every record it covers
        // was fully appended (and thus flushed) by that fsync.
        self.sync_state.synced.store(target, Ordering::Release);
        self.sync_state.group_syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_state
            .synced_records
            .fetch_add(target - prev, Ordering::Relaxed);
        Ok(target - prev)
    }

    /// Flush OS-buffered appends to stable storage. Called at engine
    /// shutdown so a clean stop is always fully replayable even in
    /// fsync-free [`DurabilityMode::Log`]. Honors the [`FP_FSYNC`]
    /// failpoint.
    pub fn sync(&self) -> io::Result<()> {
        sim::on_point(FP_FSYNC);
        if let Some(FailAction::Err) = failpoint::global().hit(FP_FSYNC) {
            return Err(failpoint::injected_io_error(FP_FSYNC));
        }
        self.inner.lock().log.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_common::TempDir;
    use orthrus_txn::Program;

    fn commits(ids: std::ops::Range<u64>) -> Vec<LoggedCommit> {
        ids.map(|i| LoggedCommit {
            ticket: Some(i),
            program: Program::Rmw {
                keys: vec![i, i + 1],
            },
        })
        .collect()
    }

    #[test]
    fn modes_parse_and_print() {
        for (s, m) in [
            ("off", DurabilityMode::Off),
            ("log", DurabilityMode::Log),
            ("log+fsync", DurabilityMode::LogFsync),
        ] {
            assert_eq!(s.parse::<DurabilityMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("journal".parse::<DurabilityMode>().is_err());
        assert!(!DurabilityMode::Off.is_on());
        assert!(DurabilityMode::LogFsync.is_on());
    }

    #[test]
    fn append_run_drains_and_reports_bytes() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        let mut batch = commits(0..3);
        let r = log.append_run(&mut batch).unwrap();
        assert!(batch.is_empty(), "group commit consumes the batch");
        assert!(r.bytes > 0);
        assert!(!r.synced, "fsync-free mode must not sync per append");
        log.sync().unwrap();

        let scan = orthrus_storage::log::scan(t.path()).unwrap();
        assert_eq!(scan.payloads.len(), 1, "one record per run");
        let decoded = crate::codec::decode_run(&scan.payloads[0]).unwrap();
        assert_eq!(decoded, commits(0..3));
    }

    #[test]
    fn open_refuses_a_torn_log() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        log.append_run(&mut commits(0..2)).unwrap();
        log.sync().unwrap();
        drop(log);
        let total = orthrus_storage::log::total_bytes(t.path()).unwrap();
        orthrus_storage::log::truncate_at(t.path(), total - 1).unwrap();
        // Appending behind a tear would be durable-yet-unreplayable: the
        // open must refuse and point at recovery.
        let err = match CommandLog::open(t.path(), DurabilityMode::Log) {
            Err(e) => e,
            Ok(_) => panic!("torn log must be refused"),
        };
        assert!(err.to_string().contains("recover"), "{err}");
        // After repair, the log opens again.
        orthrus_storage::log::truncate_torn_tail(t.path()).unwrap();
        CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
    }

    #[test]
    fn fsync_mode_reports_the_flush() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::LogFsync).unwrap();
        let r = log.append_run(&mut commits(0..1)).unwrap();
        assert!(r.synced);
    }

    #[test]
    fn group_mode_coalesces_appends_into_one_fsync() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::LogFsync)
            .unwrap()
            .with_group_sync(true);
        assert!(log.group_sync());
        let r1 = log.append_run(&mut commits(0..2)).unwrap();
        let r2 = log.append_run(&mut commits(2..4)).unwrap();
        assert!(!r1.synced && !r2.synced, "group mode defers the fsync");
        assert_eq!((r1.lsn, r2.lsn), (1, 2), "LSNs count appended runs");
        let st = log.sync_state();
        assert_eq!(st.appended(), 2);
        assert_eq!(st.synced(), 0);

        // One coordinator pass covers both outstanding appends.
        assert_eq!(log.group_sync_now().unwrap(), 2);
        assert_eq!(st.synced(), 2);
        assert_eq!(st.group_syncs(), 1);
        assert_eq!(st.synced_records(), 2);
        // Nothing outstanding: the fast path reports zero, no fsync.
        assert_eq!(log.group_sync_now().unwrap(), 0);
        assert_eq!(st.group_syncs(), 1);
    }

    #[test]
    fn group_sync_failure_raises_the_shared_flag() {
        let _fp = crate::arm_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::LogFsync)
            .unwrap()
            .with_group_sync(true);
        log.append_run(&mut commits(0..1)).unwrap();
        failpoint::global().configure(FP_FSYNC, FailAction::Err, Some(1));
        assert!(log.group_sync_now().is_err());
        failpoint::global().clear();
        assert!(
            log.sync_state().is_failed(),
            "waiters must see the failure instead of spinning forever"
        );
    }
}
