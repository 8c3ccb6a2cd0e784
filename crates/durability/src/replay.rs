//! Crash recovery: replay the committed stream through the engine's own
//! execution path.
//!
//! Two replay strategies share one report format:
//!
//! - **Serial** ([`replay`], and [`recover_with`] at 1 thread): stream
//!   the log and re-execute in log order. Memory-bounded, always
//!   correct.
//! - **Footprint-parallel** ([`recover_with`] at >1 thread): partition
//!   the committed suffix into *levels* of transactions whose planned
//!   footprints are pairwise key-disjoint, execute each level across
//!   threads, and fall back to serial order at conflict edges (a new
//!   level starts at the first transaction whose footprint intersects
//!   the level under construction). Disjoint footprints commute — any
//!   interleaving of a level is one of its equivalent serial orders —
//!   so the result is bit-identical to serial replay (proptest-pinned).
//!
//!   Soundness leans on a property of the planner (verified against
//!   `orthrus_txn::plan`): every reconnaissance-board word a plan reads
//!   is covered by a key in that plan's own footprint, so executing
//!   footprint-disjoint peers concurrently can never perturb a plan's
//!   inputs — OLLP validation cannot newly fail inside a level. If a
//!   mismatch fires anyway (defense in depth), the transaction is
//!   deferred and re-planned serially after its level completes.

use std::io;
use std::path::Path;

use orthrus_common::{Key, XorShift64};
use orthrus_storage::log::{LogPos, LogReader};
use orthrus_txn::{execute_planned, plan_accesses, AbortKind, Database, Plan};

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
/// original seed — the log covers the whole run). The log is streamed
/// one segment at a time ([`orthrus_storage::log::LogReader`]), so
/// memory is bounded by the segment budget, not the log size (the
/// report's ticket audit trail still grows with ticketed commits).
pub fn replay(db: &Database, dir: &Path) -> io::Result<ReplayReport> {
    Ok(replay_inner(db, dir)?.0)
}

/// [`replay`], also returning the physical cut offset to repair a
/// *decode* tear (`None` when every checksum-valid record parsed).
fn replay_inner(db: &Database, dir: &Path) -> io::Result<(ReplayReport, Option<u64>)> {
    let mut reader = orthrus_storage::log::LogReader::open(dir)?;
    let mut report = ReplayReport::default();
    // The RNG feeds plan_accesses' noise branch only; replay always plans
    // noise-free, so the seed is inert — any value yields the same plans.
    let mut rng = XorShift64::new(0x5245_504C_4159); // "REPLAY"
    let mut decode_cut = None;
    while let Some(payload) = reader.next_record()? {
        let txns = match decode_run(&payload) {
            Ok(txns) => txns,
            Err(_) => {
                // Checksum-clean but unparseable (version skew / codec
                // bug): stop at the well-formed prefix and hand the
                // repair a physical cut *before* this record, so a
                // recovered engine never appends behind a record replay
                // cannot consume.
                let end = reader.last_record_end();
                let framed = orthrus_storage::log::RECORD_OVERHEAD + payload.len() as u64;
                decode_cut = Some(end - framed);
                report.torn_bytes += framed;
                break;
            }
        };
        report.records += 1;
        report.bytes += orthrus_storage::log::RECORD_OVERHEAD + payload.len() as u64;
        for LoggedCommit { ticket, program } in txns {
            apply(db, &program, &mut rng);
            report.txns += 1;
            if let Some(t) = ticket {
                report.tickets.push(t);
            }
        }
    }
    report.torn_bytes += reader.dropped_bytes()?;
    Ok((report, decode_cut))
}

/// [`replay`] then **repair**: truncate the torn tail in place so the log
/// can be reopened for appending (the recovered engine continues logging
/// where the valid prefix ends). A decode tear — a checksum-valid record
/// replay cannot parse — is cut away too, for the same reason a physical
/// tear is: nothing may sit between the replayable prefix and the append
/// position. This is the entry point `OrthrusEngine::recover` uses.
pub fn recover(db: &Database, dir: &Path) -> io::Result<ReplayReport> {
    recover_with(db, dir, 1)
}

/// [`recover`], checkpoint-aware and optionally parallel.
///
/// Scans `ckpt-*` files newest to oldest, restores the first one that is
/// valid **and** whose log suffix is still openable (an older checkpoint
/// whose segments were GC'd is useless), then replays only the suffix —
/// across `replay_threads` when >1 (see module docs for why that is
/// bit-identical to serial). Falls back to full-log replay when no
/// usable checkpoint exists. The torn tail is repaired in place, as for
/// [`recover`].
///
/// The database must be the same logical snapshot checkpoint #0 was
/// taken from (a freshly loaded database with the run's original seed).
pub fn recover_with(db: &Database, dir: &Path, replay_threads: usize) -> io::Result<ReplayReport> {
    // Newest usable checkpoint wins; torn/corrupt files and checkpoints
    // whose suffix cannot be opened are skipped (never an error — they
    // only cost replay work).
    let mut start = LogPos::start();
    let mut checkpoint = None;
    for (idx, path) in orthrus_storage::checkpoint::checkpoint_files(dir)?
        .into_iter()
        .rev()
    {
        let Some(ckpt) = orthrus_storage::checkpoint::read_checkpoint(idx, &path)? else {
            continue;
        };
        if LogReader::open_at(dir, ckpt.pos).is_err() {
            continue;
        }
        // SAFETY: recovery runs before any worker starts; the database
        // is quiesced by contract.
        unsafe { crate::snapshot::restore_db(db, &ckpt.image)? };
        start = ckpt.pos;
        checkpoint = Some(idx);
        break;
    }

    // Collect the committed suffix. Unlike the streaming [`replay`],
    // recovery materializes the suffix's programs: the parallel leveler
    // needs look-ahead, and a checkpointed suffix is bounded anyway.
    // Full-log replays open unpositioned: a crash may have truncated
    // segment 0 below even the magic, which is a tear to report, not a
    // resume-position error.
    let mut reader = if checkpoint.is_some() {
        LogReader::open_at(dir, start)?
    } else {
        LogReader::open(dir)?
    };
    let mut report = ReplayReport {
        checkpoint,
        ..ReplayReport::default()
    };
    let mut suffix: Vec<LoggedCommit> = Vec::new();
    let mut decode_cut = None;
    while let Some(payload) = reader.next_record()? {
        match decode_run(&payload) {
            Ok(txns) => {
                report.records += 1;
                report.bytes += orthrus_storage::log::RECORD_OVERHEAD + payload.len() as u64;
                suffix.extend(txns);
            }
            Err(_) => {
                let end = reader.last_record_end();
                let framed = orthrus_storage::log::RECORD_OVERHEAD + payload.len() as u64;
                decode_cut = Some(end - framed);
                report.torn_bytes += framed;
                break;
            }
        }
    }
    report.torn_bytes += reader.dropped_bytes()?;
    drop(reader);

    // Tickets are collected at flatten time, so the report's replay
    // order is the log order regardless of execution strategy.
    report.txns = suffix.len() as u64;
    report.tickets = suffix.iter().filter_map(|c| c.ticket).collect();

    if replay_threads > 1 {
        replay_leveled(db, &suffix, replay_threads);
    } else {
        let mut rng = XorShift64::new(0x5245_504C_4159);
        for commit in &suffix {
            apply(db, &commit.program, &mut rng);
        }
    }

    match decode_cut {
        // The decode cut subsumes any later physical tear.
        Some(offset) => orthrus_storage::log::truncate_at(dir, offset)?,
        None => {
            orthrus_storage::log::truncate_torn_tail(dir)?;
        }
    }
    Ok(report)
}

/// Execute a committed suffix by contiguous-prefix leveling: greedily
/// grow a level while every new footprint stays key-disjoint from the
/// level's union, run the level across threads, barrier, repeat. The
/// first conflicting transaction seeds the next level — the serial-order
/// fallback at conflict edges.
fn replay_leveled(db: &Database, suffix: &[LoggedCommit], threads: usize) {
    let mut rng = XorShift64::new(0x5245_504C_4159);
    let mut i = 0;
    while i < suffix.len() {
        // Build one level. Plans are computed here, against the state
        // all previous levels produced — exactly what each transaction
        // saw live, since everything before it in log order has run.
        let mut plans: Vec<Plan> = Vec::new();
        let mut level_keys: Vec<Key> = Vec::new();
        let mut end = i;
        while end < suffix.len() {
            let plan = plan_accesses(&suffix[end].program, db, 0, &mut rng);
            let keys: Vec<Key> = plan.accesses.entries().iter().map(|&(k, _)| k).collect();
            if end > i && !disjoint(&level_keys, &keys) {
                break;
            }
            let mut merged = Vec::with_capacity(level_keys.len() + keys.len());
            merge_sorted(&level_keys, &keys, &mut merged);
            level_keys = merged;
            plans.push(plan);
            end += 1;
        }

        let level = &suffix[i..end];
        if level.len() == 1 || threads <= 1 {
            for commit in level {
                apply(db, &commit.program, &mut rng);
            }
        } else {
            // Disjoint footprints: any thread assignment is one of the
            // level's equivalent serial orders. Chunk contiguously.
            let deferred = std::sync::Mutex::new(Vec::new());
            let chunk = level.len().div_ceil(threads);
            std::thread::scope(|s| {
                for (c, (txns, plans)) in level.chunks(chunk).zip(plans.chunks(chunk)).enumerate() {
                    let deferred = &deferred;
                    s.spawn(move || {
                        for (j, (commit, plan)) in txns.iter().zip(plans).enumerate() {
                            match execute_planned(&commit.program, db, plan) {
                                Ok(v) => {
                                    std::hint::black_box(v);
                                }
                                // Defense in depth (see module docs): a
                                // mismatch inside a level should be
                                // impossible; never re-plan concurrently
                                // — the new footprint could overlap a
                                // peer. Defer to the serial tail.
                                Err(AbortKind::OllpMismatch) => {
                                    deferred.lock().unwrap().push(c * chunk + j);
                                }
                                Err(other) => {
                                    unreachable!("planned replay abort: {other:?}")
                                }
                            }
                        }
                    });
                }
            });
            let mut deferred = deferred.into_inner().unwrap();
            deferred.sort_unstable();
            for j in deferred {
                apply(db, &level[j].program, &mut rng);
            }
        }
        i = end;
    }
}

/// Whether two ascending key slices share no element.
fn disjoint(a: &[Key], b: &[Key]) -> bool {
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Merge two ascending key slices into `out` (duplicates impossible:
/// callers check disjointness first).
fn merge_sorted(a: &[Key], b: &[Key], out: &mut Vec<Key>) {
    let (mut x, mut y) = (0, 0);
    while x < a.len() && y < b.len() {
        if a[x] <= b[y] {
            out.push(a[x]);
            x += 1;
        } else {
            out.push(b[y]);
            y += 1;
        }
    }
    out.extend_from_slice(&a[x..]);
    out.extend_from_slice(&b[y..]);
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
pub(crate) fn apply(db: &Database, program: &orthrus_txn::Program, rng: &mut XorShift64) {
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
}
