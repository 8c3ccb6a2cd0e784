//! Property pins for the durability subsystem.
//!
//! 1. The codec is lossless over arbitrary programs (the log stores the
//!    *command*; any byte lost would silently change replayed state).
//! 2. The crash contract over **random offsets**: wherever a crash cuts
//!    the log, recovery reproduces exactly the state of the longest
//!    fully-logged commit prefix — no double-apply, no loss, no torn
//!    half-transaction.

use proptest::prelude::*;

use orthrus_common::TempDir;
use orthrus_storage::log::{scan, total_bytes, truncate_at};
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};

use crate::codec::{decode_run, encode_run, LoggedCommit};
use crate::log::{CommandLog, DurabilityMode};
use crate::replay::{recover, replay};
use crate::snapshot::serialize_db;

fn program_strategy() -> impl Strategy<Value = Program> {
    prop_oneof![
        prop::collection::vec(0u64..64, 0..6).prop_map(|keys| Program::ReadOnly { keys }),
        prop::collection::vec(0u64..64, 0..6).prop_map(|keys| Program::Rmw { keys }),
        (
            0u32..4,
            0u32..10,
            0u32..300,
            0u64..100_000,
            any::<bool>(),
            0u16..100
        )
            .prop_map(|(w, d, c, cents, by_name, name_id)| {
                Program::Payment(orthrus_txn::PaymentInput {
                    w,
                    d,
                    amount_cents: cents,
                    customer: if by_name {
                        orthrus_txn::CustomerSelector::ByLastName {
                            c_w: w,
                            c_d: d,
                            name_id,
                        }
                    } else {
                        orthrus_txn::CustomerSelector::ById { c_w: w, c_d: d, c }
                    },
                })
            }),
        (0u32..4, 0u8..11).prop_map(|(w, carrier)| {
            Program::Delivery(orthrus_txn::DeliveryInput { w, carrier })
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode→decode is the identity for arbitrary runs.
    #[test]
    fn codec_roundtrips_arbitrary_runs(
        txns in prop::collection::vec(
            (prop::option::of(any::<u64>()), program_strategy())
                .prop_map(|(ticket, program)| LoggedCommit { ticket, program }),
            0..12,
        ),
    ) {
        let mut buf = Vec::new();
        encode_run(&txns, &mut buf);
        prop_assert_eq!(decode_run(&buf).unwrap(), txns);
    }

    /// Crash anywhere: recovery state == the longest complete-record
    /// prefix applied exactly once, and the replayed tickets are exactly
    /// that prefix's tickets.
    #[test]
    fn recovery_is_prefix_exact_under_random_crash_offsets(
        runs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u64..16, 1..4), 1..4),
            1..10,
        ),
        cut_back in 0u64..400,
    ) {
        let _fp = crate::pass_failpoints();
        let t = TempDir::new("durability-prop");
        // Tiny segments so crashes also land on segment boundaries/headers.
        let log = CommandLog::open_with_segment_bytes(t.path(), DurabilityMode::Log, 96).unwrap();
        let mut ticket = 0u64;
        let mut flat: Vec<(u64, Vec<u64>)> = Vec::new(); // (ticket, keys) in log order
        let mut run_of_ticket: Vec<usize> = Vec::new();
        for (run_idx, run) in runs.iter().enumerate() {
            let mut batch: Vec<LoggedCommit> = run
                .iter()
                .map(|keys| {
                    let c = LoggedCommit {
                        ticket: Some(ticket),
                        program: Program::Rmw { keys: keys.clone() },
                    };
                    flat.push((ticket, keys.clone()));
                    run_of_ticket.push(run_idx);
                    ticket += 1;
                    c
                })
                .collect();
            log.append_run(&mut batch).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let total = total_bytes(t.path()).unwrap();
        let offset = total.saturating_sub(cut_back % (total + 1));
        truncate_at(t.path(), offset).unwrap();
        let survivors = scan(t.path()).unwrap().record_ends.len();

        let db = Database::Flat(Table::new(16, 64));
        let report = recover(&db, t.path()).unwrap();
        prop_assert_eq!(report.records as usize, survivors);

        // Replayed tickets are exactly the tickets of the surviving runs,
        // in order (whole runs survive or die — records are atomic).
        let expected: Vec<(u64, &Vec<u64>)> = flat
            .iter()
            .zip(&run_of_ticket)
            .filter(|&(_, &r)| r < survivors)
            .map(|((t, keys), _)| (*t, keys))
            .collect();
        prop_assert_eq!(
            &report.tickets,
            &expected.iter().map(|&(t, _)| t).collect::<Vec<_>>()
        );

        // Exactly-once effects: each key's counter equals its occurrence
        // count across the surviving commits.
        for k in 0..16u64 {
            let want: u64 = expected
                .iter()
                .map(|(_, keys)| keys.iter().filter(|&&x| x == k).count() as u64)
                .sum();
            // SAFETY: quiesced single-threaded test database.
            prop_assert_eq!(unsafe { db.read_counter(k) }, want, "key {}", k);
        }

        // Wherever the crash landed — at a segment boundary, inside a
        // segment header — the cut leaves an appendable log: one more run
        // lands behind the survivors and replays with no tear.
        let log = CommandLog::open_with_segment_bytes(t.path(), DurabilityMode::Log, 96).unwrap();
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(ticket),
            program: Program::Rmw { keys: vec![0] },
        }])
        .unwrap();
        log.sync().unwrap();
        drop(log);
        let again = replay(&Database::Flat(Table::new(16, 64)), t.path()).unwrap();
        prop_assert_eq!(again.records as usize, survivors + 1);
        prop_assert_eq!(again.torn_bytes, 0);
    }

    /// Durability rung 2: wherever a crash cuts the log, recovering from
    /// the newest checkpoint + suffix yields a database bit-identical to
    /// recovering the same surviving log bytes from scratch. (The
    /// serialized image is the digest: byte-equal images ⇔ equivalent
    /// databases.)
    #[test]
    fn checkpoint_plus_suffix_recovery_matches_full_log_recovery(
        runs in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0u64..16, 1..4), 1..4),
            2..10,
        ),
        ckpt_after in 1usize..5,
        cut_back in 0u64..300,
    ) {
        let _fp = crate::pass_failpoints();
        let a = TempDir::new("ckpt-prop-a");
        let log = CommandLog::open(a.path(), DurabilityMode::Log).unwrap();
        let pristine = Database::Flat(Table::new(16, 64));
        // SAFETY: quiesced, single-threaded.
        unsafe {
            crate::checkpoint::write_initial_checkpoint(a.path(), &pristine, log.position().unwrap())
                .unwrap()
        };
        let mut ticket = 0u64;
        for (i, run) in runs.iter().enumerate() {
            let mut batch: Vec<LoggedCommit> = run
                .iter()
                .map(|keys| {
                    let c = LoggedCommit {
                        ticket: Some(ticket),
                        program: Program::Rmw { keys: keys.clone() },
                    };
                    ticket += 1;
                    c
                })
                .collect();
            log.append_run(&mut batch).unwrap();
            if i + 1 == ckpt_after.min(runs.len()) {
                crate::checkpoint::checkpoint_once(&log, a.path()).unwrap();
            }
        }
        log.sync().unwrap();
        drop(log);

        // Mirror the directory, then strip the mirror's checkpoints so it
        // must replay the whole log; crash both at the same offset.
        let b = TempDir::new("ckpt-prop-b");
        for entry in std::fs::read_dir(a.path()).unwrap() {
            let p = entry.unwrap().path();
            let name = p.file_name().unwrap().to_str().unwrap().to_string();
            if name.starts_with("seg-") {
                std::fs::copy(&p, b.path().join(&name)).unwrap();
            }
        }
        let total = total_bytes(a.path()).unwrap();
        prop_assert_eq!(total, total_bytes(b.path()).unwrap());
        let offset = total.saturating_sub(cut_back % (total + 1));
        truncate_at(a.path(), offset).unwrap();
        truncate_at(b.path(), offset).unwrap();

        let via_ckpt = Database::Flat(Table::new(16, 64));
        let full = Database::Flat(Table::new(16, 64));
        let ra = recover(&via_ckpt, a.path()).unwrap();
        let rb = recover(&full, b.path()).unwrap();
        prop_assert!(rb.checkpoint.is_none());
        // SAFETY: both databases quiesced.
        prop_assert_eq!(unsafe { serialize_db(&via_ckpt) }, unsafe { serialize_db(&full) });
        // The checkpoint path replays a suffix of what the full path
        // replays (never more, never reordered).
        prop_assert!(ra.tickets.len() <= rb.tickets.len());
        prop_assert_eq!(&ra.tickets[..], &rb.tickets[rb.tickets.len() - ra.tickets.len()..]);
    }
}
