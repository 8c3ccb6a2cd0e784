//! The command log: a shared group-commit writer over
//! [`orthrus_storage::log::SegmentedLog`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use orthrus_common::failpoint::{self, FailAction};
use orthrus_common::sim;
use orthrus_storage::log::{LogPos, SegmentedLog, DEFAULT_SEGMENT_BYTES};

use crate::codec::{frame_run, LoggedCommit};

/// Failpoint consulted on every write (`err` fails it, `torn:N` persists
/// only the first N bytes of the write's frames before failing).
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
    /// Write each run's record before releasing its locks/completions;
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

/// What one write cost — folded into the committing thread's
/// `ThreadStats` (log bytes/records/writes/flushes in `RunStats`).
#[derive(Debug, Clone, Copy)]
pub struct AppendReceipt {
    /// Framed bytes written.
    pub bytes: u64,
    /// Whether an fsync was issued inline (`log+fsync` with per-run
    /// sync). Group-mode appends return `false`; durability arrives
    /// later, when the coordinator's watermark passes `lsn`.
    pub synced: bool,
    /// The log sequence number of the write's last record (LSNs are the
    /// 1-based count of appended records this process; a write of `n`
    /// records takes the next `n`). Compare against
    /// [`SyncState::synced`] to learn when the write is durable.
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
    /// The log is broken: a group fsync failed (waiters must stop
    /// waiting and fail loudly — the watermark will never advance
    /// again), or a write failed after it touched the file, so whatever
    /// it left could sit ahead of any later record (appends and syncs
    /// refuse from then on).
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

    /// Whether a group fsync or a write failed (waiters must panic, not
    /// hang; the log takes no more appends or syncs).
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Raise the failure flag: when a write fails after touching the
    /// file, when the writer mutex is poisoned, and when the coordinator
    /// thread itself dies (panic or injected crash), which also means the
    /// watermark will never advance again.
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
/// is the ordering guarantee: a thread writes a run's record before the
/// run's lock releases leave it, so for any two conflicting runs the
/// lock fabric already serialized the writes; the mutex serializes the
/// *non*-conflicting ones into some interleaving, which replay is free to
/// use as its serial order. Contention on it is one acquisition per
/// write — an execution thread writes every run it committed in one
/// scheduling quantum at once ([`Self::append_frames`]) — and no fsync
/// runs under it except per-run sync's own.
pub struct CommandLog {
    /// Poison fails the log ([`Self::writer`]): a holder that panicked
    /// mid-write left the segment and `next_lsn` in an unknown state.
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
    pub fn position(&self) -> io::Result<LogPos> {
        Ok(self.writer()?.log.position())
    }

    /// The writer. A poisoned mutex fails the log and is an error: a
    /// later write would land behind whatever the panicking one left.
    fn writer(&self) -> io::Result<MutexGuard<'_, Writer>> {
        self.inner.lock().map_err(|_| {
            self.sync_state.mark_failed();
            io::Error::other("command-log writer poisoned by a panic mid-write")
        })
    }

    /// The error every append and sync returns once the log has failed.
    fn refuse_if_failed(&self) -> io::Result<()> {
        if self.sync_state.is_failed() {
            return Err(io::Error::other(
                "command log failed earlier; recover it before writing again",
            ));
        }
        Ok(())
    }

    /// Total framed bytes appended by this process — the checkpointer's
    /// "log grew enough" trigger.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes.load(Ordering::Relaxed)
    }

    /// Append one record covering the whole run, draining `txns` on
    /// success: [`Self::append_frames`] of one record framed into a
    /// fresh buffer. Tests, benches and one-off writers use it; a
    /// committing execution thread frames every run of its quantum into
    /// one buffer it keeps and writes them together.
    pub fn append_run(&self, txns: &mut Vec<LoggedCommit>) -> io::Result<AppendReceipt> {
        debug_assert!(!txns.is_empty(), "empty runs are not logged");
        let mut frames = Vec::with_capacity(64 * txns.len() + 16);
        frame_run(txns, &mut frames);
        let receipt = self.append_frames(&frames, 1)?;
        txns.clear();
        Ok(receipt)
    }

    /// Group commit: write `records` records, framed back to back in
    /// `frames` ([`crate::codec::frame_run`]), with one `write`, and give
    /// them the next `records` LSNs. Under [`DurabilityMode::LogFsync`]
    /// with per-run sync they are fsynced before this returns — the
    /// caller releases locks and completions only after, so "completed"
    /// implies "durable"; under group sync the receipt's LSN is what the
    /// coordinator's watermark must pass.
    ///
    /// The failpoints and the sim are consulted once per call. On error
    /// (real I/O failure, or the [`FP_APPEND`]/[`FP_FSYNC`] failpoints)
    /// no LSN is taken and nothing counts as committed; the committing
    /// thread decides how loudly to fail (the engine panics — continuing
    /// past a broken durability contract would be silent data loss). An
    /// error after the file was touched — a torn or short write, a failed
    /// roll or per-run fsync — also fails the log: a later record would
    /// sit behind bytes no replay gets past, so every later call refuses.
    pub fn append_frames(&self, frames: &[u8], records: u64) -> io::Result<AppendReceipt> {
        debug_assert!(
            records > 0 && !frames.is_empty(),
            "empty writes are not made"
        );
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
        let mut w = self.writer()?;
        self.refuse_if_failed()?;
        let fail = |e: io::Error| {
            self.sync_state.mark_failed();
            e
        };
        match append_fault {
            Some(FailAction::Err) => return Err(failpoint::injected_io_error(FP_APPEND)),
            Some(FailAction::Torn(keep)) => {
                // Persist a torn write — the bytes a crash mid-write
                // leaves — then report the append as failed.
                w.log.append_torn(frames, keep).map_err(fail)?;
                return Err(fail(failpoint::injected_io_error(FP_APPEND)));
            }
            _ => {}
        }
        let bytes = w.log.append_frames(frames).map_err(fail)?;
        if synced {
            if let Some(FailAction::Err) = fsync_fault {
                return Err(fail(failpoint::injected_io_error(FP_FSYNC)));
            }
            w.log.sync().map_err(fail)?;
        }
        let lsn = w.next_lsn + records;
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
        Ok(AppendReceipt { bytes, synced, lsn })
    }

    /// The appended watermark and a handle to `fdatasync` it through,
    /// read together under the writer mutex — which the fsync itself then
    /// does not hold, so appends proceed while the device flushes.
    ///
    /// Why the one handle covers the watermark: every record at or below
    /// it was written before the handle was cloned, either into the
    /// segment the handle is on or into an earlier one — and a roll
    /// syncs the segment it closes before the next record is written.
    /// Records appended after the clone may or may not be covered; the
    /// watermark does not claim them.
    fn sync_target(&self) -> io::Result<(u64, std::fs::File)> {
        let w = self.writer()?;
        Ok((w.next_lsn, w.log.sync_handle()?))
    }

    /// One coordinator pass: fsync every record appended since the last
    /// pass and advance the synced watermark over all of them — the
    /// cross-thread group commit. Returns how many records the fsync
    /// coalesced (0 = nothing outstanding, no fsync issued). The fsync
    /// runs outside the writer mutex ([`Self::sync_target`]). Honors the
    /// [`FP_FSYNC`] failpoint. On failure the shared `failed` flag is
    /// raised **before** returning, so threads waiting on the watermark
    /// fail loudly instead of hanging.
    pub fn group_sync_now(&self) -> io::Result<u64> {
        let prev = self.sync_state.synced();
        if self.sync_state.appended() == prev {
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
        let (target, file) = self.sync_target().map_err(fail)?;
        file.sync_data().map_err(fail)?;
        self.sync_state.synced.store(target, Ordering::Release);
        self.sync_state.group_syncs.fetch_add(1, Ordering::Relaxed);
        self.sync_state
            .synced_records
            .fetch_add(target - prev, Ordering::Relaxed);
        Ok(target - prev)
    }

    /// Flush OS-buffered appends to stable storage, outside the writer
    /// mutex as [`Self::group_sync_now`] does. Called at engine shutdown
    /// so a clean stop is always fully replayable even in fsync-free
    /// [`DurabilityMode::Log`]. Honors the [`FP_FSYNC`] failpoint, and
    /// refuses once the log has failed.
    pub fn sync(&self) -> io::Result<()> {
        sim::on_point(FP_FSYNC);
        if let Some(FailAction::Err) = failpoint::global().hit(FP_FSYNC) {
            return Err(failpoint::injected_io_error(FP_FSYNC));
        }
        self.refuse_if_failed()?;
        self.sync_target()?.1.sync_data()
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

    /// Several runs framed into one buffer go out in one write under one
    /// LSN range, and read back as one record per run; a failed write
    /// takes no LSN and leaves nothing behind.
    #[test]
    fn a_write_of_several_records_takes_one_lsn_range() {
        let _fp = crate::arm_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        let mut frames = Vec::new();
        for ids in [0..2, 2..3, 3..6] {
            crate::codec::frame_run(&commits(ids), &mut frames);
        }
        let r = log.append_frames(&frames, 3).unwrap();
        assert_eq!((r.bytes, r.lsn), (frames.len() as u64, 3));
        assert_eq!(log.appended_bytes(), frames.len() as u64);

        failpoint::global().configure(FP_APPEND, FailAction::Err, Some(1));
        assert!(log.append_frames(&frames, 3).is_err());
        failpoint::global().clear();
        assert_eq!(
            log.sync_state().appended(),
            3,
            "a failed write takes no LSN"
        );
        assert_eq!(log.append_frames(&frames, 3).unwrap().lsn, 6);
        log.sync().unwrap();

        let scan = orthrus_storage::log::scan(t.path()).unwrap();
        let runs: Vec<Vec<LoggedCommit>> = scan
            .payloads
            .iter()
            .map(|p| crate::codec::decode_run(p).unwrap())
            .collect();
        let once = [commits(0..2), commits(2..3), commits(3..6)];
        assert_eq!(runs, [once.clone(), once].concat());
    }

    /// A torn write fails the log: the next append is refused rather
    /// than acknowledged behind bytes no replay gets past.
    #[test]
    fn a_torn_write_refuses_every_later_append() {
        let _fp = crate::arm_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        assert_eq!(log.append_run(&mut commits(0..2)).unwrap().lsn, 1);
        failpoint::global().configure(FP_APPEND, FailAction::Torn(7), Some(1));
        assert!(log.append_run(&mut commits(2..4)).is_err());
        failpoint::global().clear();
        assert!(
            log.append_run(&mut commits(4..6)).is_err(),
            "a record behind the tear would be acknowledged yet unreplayable"
        );
        assert!(log.sync_state().is_failed());
        assert!(log.sync().is_err());
        assert_eq!(
            orthrus_storage::log::scan(t.path()).unwrap().payloads.len(),
            1
        );
    }

    /// A writer poisoned by a panic mid-write is an error, never reused.
    #[test]
    fn a_poisoned_writer_fails_the_log() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("cmdlog");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _writer = log.inner.lock();
                panic!("dies holding the writer");
            });
            assert!(holder.join().is_err());
        });
        assert!(log.position().is_err());
        assert!(log.sync_state().is_failed());
        assert!(log.append_run(&mut commits(0..1)).is_err());
        assert!(log.sync().is_err());
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
        // After recovery cuts the tear, the log opens again.
        let db = orthrus_txn::Database::Flat(orthrus_storage::Table::new(4, 64));
        crate::recover(&db, t.path()).unwrap();
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
