//! Fuzzy checkpoints: bound recovery work and let old log segments be
//! garbage-collected, without ever quiescing the engine.
//!
//! ## Shadow-replay design
//!
//! A classic fuzzy checkpoint walks the *live* tables while writers run,
//! then relies on physical redo to fix the fuzziness. A command log has
//! no physical redo — replay re-executes programs — so a fuzzy image of
//! the live arenas would be unusable (it corresponds to no prefix of the
//! log). Instead the checkpointer never looks at the live database at
//! all: it keeps a private **shadow replica**, built from the previous
//! checkpoint image and advanced by replaying the on-disk log through
//! the engine's own deterministic replay path. The shadow is exactly
//! the state at a known log position, so `(image, pos)` is a consistent
//! pair by construction, and the only thing shared with the running
//! engine is the log directory itself. Exec threads are never paused,
//! never locked, never even signalled — quiesce-free in the strictest
//! sense.
//!
//! ## Durable-prefix cap
//!
//! The shadow replay consumes the log only up to the **durable**
//! watermark (the position is snapshotted, then an fsync issued). This
//! is a soundness requirement, not an optimization: if a checkpoint
//! covered non-durable bytes, a crash could truncate the log to *before*
//! the checkpoint's position, post-recovery appends would land below
//! `pos`, and every future suffix replay would skip them. A concurrent
//! appender can also leave a half-written record at the tail; the CRC
//! check stops the reader at the valid prefix, and the cap guarantees
//! that stopping point is at or past everything the checkpoint claims
//! to cover.
//!
//! ## Crash semantics
//!
//! The checkpoint file write is atomic (tmp + fsync + rename, see
//! [`orthrus_storage::checkpoint`]) and recovery takes the newest
//! *valid* checkpoint, so a crash anywhere in this module degrades
//! recovery to the previous checkpoint plus a longer suffix — never to
//! wrong state. The failpoints [`FP_CKPT_WRITE`] and [`FP_CKPT_FSYNC`]
//! script exactly those crashes for the test suite.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use orthrus_common::failpoint::{self, FailAction};
use orthrus_common::sim;
use orthrus_storage::checkpoint::{
    checkpoint_files, load_newest_checkpoint, prune_checkpoints, read_checkpoint, write_checkpoint,
    write_torn_checkpoint,
};
use orthrus_storage::log::LogPos;
use orthrus_storage::log::{remove_segments_below, LogReader};
use orthrus_txn::Database;

use crate::log::CommandLog;
use crate::replay::replay_stream;
use crate::snapshot::{build_db, serialize_db};

/// Failpoint: the checkpoint file write (torn = crash mid-write, err =
/// write failure). Doubles as the sim yield point name.
pub const FP_CKPT_WRITE: &str = "checkpoint.write";
/// Failpoint: the checkpoint fsync (err = flush failure; the file is
/// left torn, as an unflushed file may be after power loss).
pub const FP_CKPT_FSYNC: &str = "checkpoint.fsync";

/// How many checkpoint files to keep (newest N). Two, so the newest can
/// be torn by a crash and recovery still has a local fallback.
pub const CHECKPOINTS_KEPT: usize = 2;

/// Write checkpoint #0 from a quiesced database — the base image every
/// later shadow replay grows from. The engine calls this at
/// construction (pristine database, before any worker starts) when the
/// directory has no valid checkpoint yet.
///
/// # Safety
/// The database must be quiesced (no concurrent writers), as for
/// [`serialize_db`].
pub unsafe fn write_initial_checkpoint(dir: &Path, db: &Database, pos: LogPos) -> io::Result<()> {
    let image = serialize_db(db);
    write_checkpoint(dir, 0, pos, &image)?;
    Ok(())
}

/// Take one fuzzy checkpoint: advance a shadow replica from the newest
/// valid checkpoint over the durable log prefix, write the next
/// checkpoint file, prune old checkpoints, and GC log segments wholly
/// below the oldest kept position. Returns the new checkpoint index, or
/// `None` when no durable records landed since the last checkpoint
/// (nothing to do — no file written).
pub fn checkpoint_once(log: &CommandLog, dir: &Path) -> io::Result<Option<u32>> {
    let base = load_newest_checkpoint(dir)?.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "checkpoint: no valid base checkpoint (engine writes #0 at startup)",
        )
    })?;

    // Durable-prefix cap (see module docs): snapshot the position FIRST,
    // then fsync — everything at or below the snapshot is durable once
    // the sync returns.
    let durable_pos = log.position()?;
    log.sync()?;
    if durable_pos <= base.pos {
        return Ok(None);
    }

    // Shadow replica: previous image + durable suffix, through the replay
    // loop recovery runs. It stops before a record past the durable
    // watermark (the next checkpoint picks that up) and before a record
    // recovery would cut.
    let shadow = build_db(&base.image)?;
    let mut reader = LogReader::open_at(dir, base.pos)?;
    let (replayed, pos) = replay_stream(&shadow, &mut reader, Some(durable_pos))?;
    drop(reader);
    if replayed.txns == 0 {
        return Ok(None);
    }

    // SAFETY: the shadow is exclusively owned by this function.
    let image = unsafe { serialize_db(&shadow) };
    let index = base.index + 1;
    sim::on_point(FP_CKPT_WRITE);
    match failpoint::global().hit(FP_CKPT_WRITE) {
        Some(FailAction::Err) => return Err(failpoint::injected_io_error(FP_CKPT_WRITE)),
        Some(FailAction::Torn(keep)) => {
            // Crash mid-write: a partial file under the final name (the
            // tmp+rename discipline makes this impossible on an honest
            // device; the torn write models a dishonest one, which
            // recovery must survive anyway).
            write_torn_checkpoint(dir, index, pos, &image, keep)?;
            return Err(failpoint::injected_io_error(FP_CKPT_WRITE));
        }
        _ => {}
    }
    sim::on_point(FP_CKPT_FSYNC);
    if let Some(FailAction::Err) = failpoint::global().hit(FP_CKPT_FSYNC) {
        // A failed flush leaves an unsynced file: after power loss its
        // content is undefined. Model the worst case — torn.
        write_torn_checkpoint(dir, index, pos, &image, image.len() as u64)?;
        return Err(failpoint::injected_io_error(FP_CKPT_FSYNC));
    }
    write_checkpoint(dir, index, pos, &image)?;
    prune_checkpoints(dir, CHECKPOINTS_KEPT)?;

    // GC: segments wholly below the *oldest kept* checkpoint's position
    // are unreachable by any recovery this directory can still run.
    let keep_floor = checkpoint_files(dir)?
        .iter()
        .filter_map(|(idx, path)| read_checkpoint(*idx, path).ok().flatten())
        .map(|c| c.pos.seg_index)
        .min()
        .unwrap_or(pos.seg_index);
    remove_segments_below(dir, keep_floor)?;
    Ok(Some(index))
}

/// Checkpointer thread body: take a checkpoint whenever `every_bytes`
/// new log bytes have been appended since the last one, until `stop`.
/// Returns the number of checkpoints written. Panics on I/O failure
/// (crash-consistency bugs must be loud); *injected* failpoint errors
/// are returned to the harness instead, so crash-point tests can script
/// a torn checkpoint without killing the thread.
pub fn run_checkpointer(
    log: &CommandLog,
    dir: &Path,
    stop: &AtomicBool,
    every_bytes: u64,
) -> io::Result<u64> {
    let every = every_bytes.max(1);
    let mut last_trigger = log.appended_bytes();
    let mut written = 0u64;
    loop {
        let appended = log.appended_bytes();
        if appended.saturating_sub(last_trigger) >= every {
            match checkpoint_once(log, dir) {
                Ok(Some(_)) => written += 1,
                Ok(None) => {}
                Err(e) if failpoint::is_injected(&e) => return Err(e),
                Err(e) => panic!("checkpoint failed: {e}"),
            }
            last_trigger = appended;
        }
        if stop.load(Ordering::Acquire) {
            return Ok(written);
        }
        if !sim::on_park() {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::DurabilityMode;
    use crate::replay::recover;
    use crate::LoggedCommit;
    use orthrus_common::TempDir;
    use orthrus_storage::log::indexed_segment_paths;
    use orthrus_storage::Table;
    use orthrus_txn::Program;

    fn rmw(keys: &[u64]) -> Program {
        Program::Rmw {
            keys: keys.to_vec(),
        }
    }

    fn append(log: &CommandLog, ticket: u64, keys: &[u64]) {
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(ticket),
            program: rmw(keys),
        }])
        .unwrap();
    }

    #[test]
    fn checkpoint_covers_the_durable_prefix_and_recovery_resumes_after_it() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("ckpt2");
        let db = Database::Flat(Table::new(8, 64));
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        unsafe { write_initial_checkpoint(t.path(), &db, log.position().unwrap()).unwrap() };

        append(&log, 0, &[1]);
        append(&log, 1, &[1, 2]);
        assert_eq!(checkpoint_once(&log, t.path()).unwrap(), Some(1));
        // Nothing new: no churn.
        assert_eq!(checkpoint_once(&log, t.path()).unwrap(), None);

        append(&log, 2, &[3]);
        log.sync().unwrap();
        drop(log);

        let target = Database::Flat(Table::new(8, 64));
        let report = recover(&target, t.path()).unwrap();
        assert_eq!(report.checkpoint, Some(1));
        assert_eq!(report.tickets, vec![2], "only the suffix replays");
        unsafe {
            assert_eq!(target.read_counter(1), 2, "checkpointed state restored");
            assert_eq!(target.read_counter(2), 1);
            assert_eq!(target.read_counter(3), 1, "suffix applied on top");
        }
    }

    #[test]
    fn checkpoints_truncate_old_segments() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("ckptgc");
        let db = Database::Flat(Table::new(8, 64));
        // Tiny segments so appends roll over quickly.
        let log = CommandLog::open_with_segment_bytes(t.path(), DurabilityMode::Log, 256).unwrap();
        unsafe { write_initial_checkpoint(t.path(), &db, log.position().unwrap()).unwrap() };
        for i in 0..32 {
            append(&log, i, &[i % 8]);
        }
        checkpoint_once(&log, t.path()).unwrap().unwrap();
        for i in 32..64 {
            append(&log, i, &[i % 8]);
        }
        checkpoint_once(&log, t.path()).unwrap().unwrap();
        let segs = indexed_segment_paths(t.path()).unwrap();
        assert!(
            segs.first().unwrap().0 > 0,
            "old segments must be truncated, got {segs:?}"
        );
        log.sync().unwrap();
        drop(log);
        // The truncated log still recovers to full state.
        let target = Database::Flat(Table::new(8, 64));
        let report = recover(&target, t.path()).unwrap();
        let total: u64 = (0..8).map(|k| unsafe { target.read_counter(k) }).sum();
        assert_eq!(total, 64);
        assert!(report.checkpoint.is_some());
    }

    #[test]
    fn failed_checkpoint_fsync_recovers_from_previous_checkpoint_and_full_suffix() {
        let _fp = crate::arm_failpoints();
        let t = TempDir::new("ckptsync");
        let db = Database::Flat(Table::new(8, 64));
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        unsafe { write_initial_checkpoint(t.path(), &db, log.position().unwrap()).unwrap() };
        append(&log, 0, &[1]);
        append(&log, 1, &[2, 3]);
        checkpoint_once(&log, t.path()).unwrap().unwrap();
        append(&log, 2, &[1, 1]);
        // The flush fails: the file is left torn (unsynced content after
        // power loss is undefined), and the injected error reaches the
        // harness as a scripted crash.
        failpoint::global().configure(FP_CKPT_FSYNC, FailAction::Err, Some(1));
        let err = checkpoint_once(&log, t.path()).unwrap_err();
        failpoint::global().clear();
        assert!(failpoint::is_injected(&err));
        log.sync().unwrap();
        drop(log);

        let target = Database::Flat(Table::new(8, 64));
        let report = recover(&target, t.path()).unwrap();
        assert_eq!(report.checkpoint, Some(1), "unsynced #2 skipped");
        // Ticket conservation: exactly the post-#1 suffix replays, and
        // the final state covers every appended commit exactly once.
        assert_eq!(report.tickets, vec![2]);
        unsafe {
            assert_eq!(target.read_counter(1), 3);
            assert_eq!(target.read_counter(2), 1);
            assert_eq!(target.read_counter(3), 1);
        }
    }

    #[test]
    fn torn_checkpoint_write_falls_back_to_the_previous_one() {
        let _fp = crate::arm_failpoints();
        let t = TempDir::new("ckpttorn");
        let db = Database::Flat(Table::new(8, 64));
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        unsafe { write_initial_checkpoint(t.path(), &db, log.position().unwrap()).unwrap() };
        append(&log, 0, &[1]);
        checkpoint_once(&log, t.path()).unwrap().unwrap();
        append(&log, 1, &[2]);
        failpoint::global().configure(FP_CKPT_WRITE, FailAction::Torn(20), Some(1));
        let err = checkpoint_once(&log, t.path()).unwrap_err();
        failpoint::global().clear();
        assert!(failpoint::is_injected(&err));
        log.sync().unwrap();
        drop(log);

        let target = Database::Flat(Table::new(8, 64));
        let report = recover(&target, t.path()).unwrap();
        assert_eq!(report.checkpoint, Some(1), "torn #2 skipped");
        assert_eq!(report.tickets, vec![1], "full suffix after ckpt #1");
        unsafe {
            assert_eq!(target.read_counter(1), 1);
            assert_eq!(target.read_counter(2), 1);
        }
    }
}
