//! Crash recovery: replay the committed stream through the engine's own
//! execution path, one commit at a time, in log order.
//!
//! One loop does the replaying (`replay_stream`). It reads records from a
//! [`LogReader`] — from the log's start or from a checkpoint's position,
//! up to an optional cap — applies each commit with `apply`, and stops at
//! the first tear or at the first record it cannot decode. [`replay`],
//! [`recover`] and the checkpointer's shadow replay
//! ([`crate::checkpoint::checkpoint_once`]) all run it. It holds one log
//! segment in memory, never the decoded log, so recovery memory is bounded
//! by the segment budget (plus the report's ticket audit trail), not by
//! the log's length.
//!
//! - **Log order is a serial order.** A run's record is written while the
//!   run's locks are held (crate docs), so of two conflicting
//!   transactions the one serialized first is logged first, and
//!   transactions that do not conflict commute. Re-executing the log in
//!   order is one of the live run's equivalent serial orders.
//! - **The cut comes from the reader.** [`recover`] repairs the log just
//!   past the last record it applied ([`LogReader::position`], cut with
//!   [`truncate_to`]), whatever stopped the stream. The prefix replayed is
//!   the prefix kept, and a clean log is read once.
//! - **There is no parallel replay.** A footprint-levelled replayer
//!   measured 12–34× slower than this loop on a 2-core host, and no
//!   workload ran it (DESIGN.md, "Recovery reads the log once").

use std::io;
use std::path::Path;

use orthrus_common::XorShift64;
use orthrus_storage::checkpoint::{checkpoint_files, read_checkpoint};
use orthrus_storage::log::{truncate_to, LogPos, LogReader, RECORD_OVERHEAD};
use orthrus_txn::{execute_planned, plan_accesses, AbortKind, Database};

use crate::codec::{decode_run, LoggedCommit};

/// What a replay did — the audit trail the crash-point and
/// shutdown-recovery tests check conservation against.
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Log records (= fused admission runs) replayed.
    pub records: u64,
    /// Transactions re-executed.
    pub txns: u64,
    /// Framed record bytes consumed (payloads + per-record framing;
    /// segment headers excluded).
    pub bytes: u64,
    /// Bytes dropped as the torn tail (0 for a clean log).
    pub torn_bytes: u64,
    /// Ticket ids of replayed *client* commits, in replay order (one
    /// entry per ticketed transaction, exactly once each — synthetic
    /// commits carry no ticket and appear only in `txns`).
    pub tickets: Vec<u64>,
    /// Index of the checkpoint recovery restored from (`None` = full-log
    /// replay, either because no valid checkpoint existed or because the
    /// caller used the log-only [`replay`] path).
    pub checkpoint: Option<u32>,
}

/// Replay every fully-logged commit in `dir` against `db`, **read-only
/// on the log** (the torn tail, if any, is reported but left in place).
///
/// The database must be the same logical snapshot the log started from
/// (for the reproduction: a freshly loaded database with the run's
/// original seed — the log covers the whole run). A log whose segment 0
/// is gone does not start there and is refused with `InvalidData`;
/// [`recover`] starts from a checkpoint instead.
pub fn replay(db: &Database, dir: &Path) -> io::Result<ReplayReport> {
    let mut reader = LogReader::open_at(dir, LogPos::start())?;
    Ok(replay_stream(db, &mut reader, None)?.0)
}

/// Recover `db` from `dir`: restore the newest usable checkpoint, replay
/// the log past it, and **repair** the log so it can be reopened for
/// appending (the recovered engine continues logging where the replayed
/// prefix ends). This is the entry point `OrthrusEngine::recover` uses.
///
/// Checkpoints are scanned newest to oldest; the first that is valid
/// **and** whose log suffix is still openable is restored into `db` (an
/// older checkpoint whose segments were collected is useless). Without
/// one the whole log replays onto `db`, which must then be the snapshot
/// checkpoint #0 was taken from (a freshly loaded database with the run's
/// original seed), and the log must still start at segment 0: one that
/// does not is refused with `InvalidData` before any file is touched.
///
/// Whatever stopped the replay — a torn record, a cut or missing
/// segment, a checksum-valid record that does not decode — the log is
/// cut just past the last applied record ([`truncate_to`]): nothing may
/// sit between the replayable prefix and the append position. A clean
/// log is not written.
pub fn recover(db: &Database, dir: &Path) -> io::Result<ReplayReport> {
    let mut resume = None;
    for (idx, path) in checkpoint_files(dir)?.into_iter().rev() {
        // Torn or corrupt checkpoints, and those whose suffix cannot be
        // opened, are skipped — never an error, they only cost replay work.
        let Some(ckpt) = read_checkpoint(idx, &path)? else {
            continue;
        };
        let Ok(reader) = LogReader::open_at(dir, ckpt.pos) else {
            continue;
        };
        // SAFETY: recovery runs before any worker starts; the database
        // is quiesced by contract.
        unsafe { crate::snapshot::restore_db(db, &ckpt.image)? };
        resume = Some((idx, reader));
        break;
    }
    let (checkpoint, mut reader) = match resume {
        Some((idx, reader)) => (Some(idx), reader),
        None => (None, LogReader::open_at(dir, LogPos::start())?),
    };
    let (mut report, end) = replay_stream(db, &mut reader, None)?;
    report.checkpoint = checkpoint;
    if reader.tear().is_some() || report.torn_bytes > 0 {
        truncate_to(dir, end)?;
    }
    Ok(report)
}

/// The one replay loop: apply `reader`'s commits to `db` in log order
/// until the log ends, a tear, a record that does not decode, or — under
/// a cap — the first record that ends past `upto`. Returns the report and
/// the position just past the last applied record; `torn_bytes` counts
/// the undecodable record and whatever the reader left behind it.
pub(crate) fn replay_stream(
    db: &Database,
    reader: &mut LogReader,
    upto: Option<LogPos>,
) -> io::Result<(ReplayReport, LogPos)> {
    let mut report = ReplayReport::default();
    // The RNG feeds plan_accesses' noise branch only; replay always plans
    // noise-free, so the seed is inert — any value yields the same plans.
    let mut rng = XorShift64::new(0x5245_504C_4159); // "REPLAY"
    let mut end = reader.position();
    while let Some(payload) = reader.next_record()? {
        if upto.is_some_and(|cap| reader.position() > cap) {
            // Past the cap (the checkpointer's durable watermark): the
            // record may still be in flight.
            break;
        }
        let framed = RECORD_OVERHEAD + payload.len() as u64;
        let Ok(txns) = decode_run(&payload) else {
            // Checksum-clean but unparseable (version skew / codec bug):
            // stop before it, so a recovered engine never appends behind
            // a record replay cannot consume.
            report.torn_bytes += framed;
            break;
        };
        for LoggedCommit { ticket, program } in txns {
            apply(db, &program, &mut rng);
            report.txns += 1;
            if let Some(t) = ticket {
                report.tickets.push(t);
            }
        }
        report.records += 1;
        report.bytes += framed;
        end = reader.position();
    }
    report.torn_bytes += reader.dropped_bytes()?;
    Ok((report, end))
}

/// Bound on OLLP replan attempts during replay. Replay plans against
/// exactly the state the live transaction committed under (the log order
/// is conflict-consistent and nothing runs concurrently), so noise-free
/// reconnaissance cannot mis-estimate; the loop exists to state that
/// assumption loudly rather than hang on it.
const MAX_REPLAY_RETRIES: u32 = 8;

/// Re-execute one committed program: plan (noise-free reconnaissance
/// against current state) + `execute_planned`, the same path the live
/// engine ran it through.
fn apply(db: &Database, program: &orthrus_txn::Program, rng: &mut XorShift64) {
    for _ in 0..MAX_REPLAY_RETRIES {
        let plan = plan_accesses(program, db, 0, rng);
        match execute_planned(program, db, &plan) {
            Ok(v) => {
                std::hint::black_box(v);
                return;
            }
            // A mismatch here would mean replay state diverged from the
            // live commit's view; replanning re-reads the (replay) truth
            // and must converge immediately if it ever fires.
            Err(AbortKind::OllpMismatch) => continue,
            Err(other) => unreachable!("planned replay abort: {other:?}"),
        }
    }
    panic!("replay could not converge on {}", program.kind());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{CommandLog, DurabilityMode};
    use orthrus_common::TempDir;
    use orthrus_storage::Table;
    use orthrus_txn::Program;

    fn rmw(keys: &[u64]) -> Program {
        Program::Rmw {
            keys: keys.to_vec(),
        }
    }

    /// Write a log of known runs, replay it into a fresh table, and check
    /// both the per-key effects and the audit counters.
    #[test]
    fn replay_applies_each_commit_exactly_once() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("replay");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        // Two fused runs + one singleton, tickets on some.
        log.append_run(&mut vec![
            LoggedCommit {
                ticket: Some(0),
                program: rmw(&[1, 2]),
            },
            LoggedCommit {
                ticket: Some(1),
                program: rmw(&[1, 3]),
            },
        ])
        .unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: None,
            program: rmw(&[2]),
        }])
        .unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(2),
            program: rmw(&[1]),
        }])
        .unwrap();
        log.sync().unwrap();

        let db = Database::Flat(Table::new(8, 64));
        let report = replay(&db, t.path()).unwrap();
        assert_eq!(report.records, 3);
        assert_eq!(report.txns, 4);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.tickets, vec![0, 1, 2]);
        let counters: Vec<u64> = (0..4).map(|k| unsafe { db.read_counter(k) }).collect();
        assert_eq!(counters, vec![0, 3, 2, 1]);
    }

    /// A replay of an empty / nonexistent log is a no-op, not an error.
    #[test]
    fn empty_log_replays_to_nothing() {
        let t = TempDir::new("replay");
        let db = Database::Flat(Table::new(4, 64));
        let report = recover(&db, &t.path().join("never")).unwrap();
        assert_eq!(report.records, 0);
        assert_eq!(report.txns, 0);
        for k in 0..4 {
            assert_eq!(unsafe { db.read_counter(k) }, 0);
        }
    }

    /// A checksum-valid record that does not *parse* (version skew /
    /// codec bug) is a tear too: recovery must cut it away, or the
    /// recovered engine would append new commits behind a record no
    /// future replay can get past.
    #[test]
    fn recover_cuts_away_undecodable_records() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("replay");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(0),
            program: rmw(&[0]),
        }])
        .unwrap();
        drop(log);
        // Append framing-valid garbage (correct CRC, nonsense payload),
        // then a well-formed record behind it.
        let mut raw = orthrus_storage::log::SegmentedLog::open(
            t.path(),
            orthrus_storage::log::DEFAULT_SEGMENT_BYTES,
        )
        .unwrap();
        raw.append(&[0xEE; 13]).unwrap();
        raw.sync().unwrap();
        drop(raw);
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(1),
            program: rmw(&[1]),
        }])
        .unwrap();
        log.sync().unwrap();
        drop(log);

        let db = Database::Flat(Table::new(4, 64));
        let report = recover(&db, t.path()).unwrap();
        assert_eq!(report.tickets, vec![0], "replay stops at the bad record");
        assert!(report.torn_bytes > 0);
        // The repair removed the garbage *and* the unreachable record
        // behind it: a post-recovery append is the next replayable commit.
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(7),
            program: rmw(&[2]),
        }])
        .unwrap();
        log.sync().unwrap();
        drop(log);
        let db2 = Database::Flat(Table::new(4, 64));
        let report = replay(&db2, t.path()).unwrap();
        assert_eq!(report.tickets, vec![0, 7], "no commit hides behind the cut");
        assert_eq!(report.torn_bytes, 0, "repair left a clean log");
    }

    /// Recovery after a mid-record crash: the torn record contributes
    /// nothing, everything before it replays, and the repaired log
    /// accepts new appends that replay seamlessly afterwards.
    #[test]
    fn recover_drops_torn_tail_and_reopens() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("replay");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(0),
            program: rmw(&[0]),
        }])
        .unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(1),
            program: rmw(&[1]),
        }])
        .unwrap();
        log.sync().unwrap();
        drop(log);
        // Crash 1 byte short of the second record's end.
        let total = orthrus_storage::log::total_bytes(t.path()).unwrap();
        orthrus_storage::log::truncate_at(t.path(), total - 1).unwrap();

        let db = Database::Flat(Table::new(4, 64));
        let report = recover(&db, t.path()).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(report.tickets, vec![0]);
        assert!(report.torn_bytes > 0);
        assert_eq!(unsafe { db.read_counter(0) }, 1);
        assert_eq!(unsafe { db.read_counter(1) }, 0, "torn commit not applied");

        // The repaired log appends + replays cleanly.
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(9),
            program: rmw(&[2]),
        }])
        .unwrap();
        log.sync().unwrap();
        drop(log);
        let db2 = Database::Flat(Table::new(4, 64));
        let report = replay(&db2, t.path()).unwrap();
        assert_eq!(report.tickets, vec![0, 9]);
        assert_eq!(unsafe { db2.read_counter(2) }, 1);
    }

    /// A log of `n` single-transaction runs (ticket `i` RMWs key `i`),
    /// and the physical end offset of each record: a crash at `ends[k]`
    /// keeps exactly `k + 1` records.
    fn scripted_log(n: u64) -> (TempDir, Vec<u64>) {
        let t = TempDir::new("crash-points");
        let log = CommandLog::open(t.path(), DurabilityMode::Log).unwrap();
        for i in 0..n {
            log.append_run(&mut vec![LoggedCommit {
                ticket: Some(i),
                program: rmw(&[i]),
            }])
            .unwrap();
        }
        log.sync().unwrap();
        let ends = orthrus_storage::log::scan(t.path()).unwrap().record_ends;
        assert_eq!(ends.len() as u64, n);
        (t, ends)
    }

    #[test]
    fn boundary_crash_keeps_exactly_k_records() {
        let _fp = crate::pass_failpoints();
        let (t, ends) = scripted_log(5);
        orthrus_storage::log::truncate_at(t.path(), ends[2]).unwrap();
        let db = Database::Flat(Table::new(8, 64));
        let report = recover(&db, t.path()).unwrap();
        assert_eq!(report.tickets, vec![0, 1, 2]);
        for k in 0..5u64 {
            let expect = u64::from(k < 3);
            assert_eq!(unsafe { db.read_counter(k) }, expect, "key {k}");
        }
    }

    #[test]
    fn mid_record_crash_drops_only_the_torn_commit() {
        let _fp = crate::pass_failpoints();
        let (t, ends) = scripted_log(4);
        orthrus_storage::log::truncate_at(t.path(), ends[3] - 1).unwrap(); // 1 byte short
        let db = Database::Flat(Table::new(8, 64));
        let report = recover(&db, t.path()).unwrap();
        assert_eq!(report.tickets, vec![0, 1, 2]);
        assert!(report.torn_bytes > 0);
    }

    /// Truncation is monotone, so descending offsets script several
    /// crashes against one log.
    #[test]
    fn descending_offsets_script_on_one_log() {
        let _fp = crate::pass_failpoints();
        let (t, ends) = scripted_log(6);
        for &k in &[5usize, 3, 1] {
            orthrus_storage::log::truncate_at(t.path(), ends[k] - 2).unwrap(); // tear record k
            let db = Database::Flat(Table::new(8, 64));
            let report = recover(&db, t.path()).unwrap();
            assert_eq!(report.txns as usize, k, "crash inside record {k}");
        }
    }

    /// A missing segment is a tear: with segment 1 of six gone, replay
    /// stops behind segment 0, and the repair drops every segment after
    /// the gap — as for a bad checksum in an earlier segment — so the next
    /// append is the next replayable record.
    #[test]
    fn a_missing_segment_is_a_tear_and_the_repair_drops_what_follows() {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("replay-gap");
        // 32-byte segments hold one record each.
        let log = CommandLog::open_with_segment_bytes(t.path(), DurabilityMode::Log, 32).unwrap();
        for i in 0..6 {
            log.append_run(&mut vec![LoggedCommit {
                ticket: Some(i),
                program: rmw(&[i]),
            }])
            .unwrap();
        }
        log.sync().unwrap();
        drop(log);
        let segments = || orthrus_storage::log::segment_indices(t.path()).unwrap();
        assert_eq!(segments(), vec![0, 1, 2, 3, 4, 5]);
        std::fs::remove_file(t.path().join("seg-000001.olog")).unwrap();

        let db = Database::Flat(Table::new(8, 64));
        let report = recover(&db, t.path()).unwrap();
        assert_eq!(report.tickets, vec![0], "nothing behind the gap replays");
        assert!(
            report.torn_bytes > 0,
            "the segments behind the gap are torn"
        );
        assert_eq!(segments(), vec![0]);
        for k in 0..6u64 {
            assert_eq!(unsafe { db.read_counter(k) }, u64::from(k == 0), "key {k}");
        }

        let log = CommandLog::open_with_segment_bytes(t.path(), DurabilityMode::Log, 32).unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(9),
            program: rmw(&[7]),
        }])
        .unwrap();
        log.sync().unwrap();
        drop(log);
        let report = replay(&Database::Flat(Table::new(8, 64)), t.path()).unwrap();
        assert_eq!(report.tickets, vec![0, 9]);
        assert_eq!(report.torn_bytes, 0);
    }
}
