//! `orthrus-part` — the partitioned ORTHRUS deployment.
//!
//! The paper's engine scales *within* one shared-memory engine by
//! separating concurrency control from execution. This crate adds the
//! orthogonal axis: N independent engines, each owning a disjoint key
//! partition, behind a single router — the classic shared-nothing
//! recipe, but with cross-partition work handled by **deterministic
//! epoch sequencing** instead of two-phase commit or a distributed lock
//! manager (the coordination-free lineage of Calvin and H-Store's
//! sibling designs, applied to the planned-locking engine this repo
//! grows).
//!
//! See [`engine`] for the architecture and the serializability
//! argument, and [`map`] for footprint classification and slicing.
//!
//! The ablation harness's `abl12` sweeps cross-partition fraction ×
//! partition count over this crate; the expected shape is the
//! *coordination collapse* curve — near-linear partition scaling at 0%
//! cross-partition work, degrading smoothly as the epoch barrier's
//! round trips claim a growing share of every partition's time.

pub mod engine;
pub mod map;

pub use engine::{
    PartSession, PartitionedConfig, PartitionedEngine, PartitionedHandle, DEFAULT_EPOCH_BATCH,
    DEFAULT_XP_CAPACITY,
};
pub use map::{route, slice, PartitionMap, Route};

#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use orthrus_core::{CcAssignment, OrthrusConfig, TrySubmitError};
    use orthrus_storage::Table;
    use orthrus_txn::{Database, Program};

    use crate::{PartitionedConfig, PartitionedEngine};

    const N_RECORDS: u64 = 64;

    fn dbs(parts: usize) -> Vec<Arc<Database>> {
        (0..parts)
            .map(|_| Arc::new(Database::Flat(Table::new(N_RECORDS as usize, 64))))
            .collect()
    }

    fn config(parts: usize) -> PartitionedConfig {
        PartitionedConfig::new(
            parts,
            OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo),
        )
    }

    /// Sum every partition's owned counters — the deployment-wide
    /// "money supply" a transfer workload must conserve (mod 2⁶⁴).
    fn total_balance(dbs: &[Arc<Database>], parts: usize) -> u64 {
        let mut sum = 0u64;
        for key in 0..N_RECORDS {
            let part = (key % parts as u64) as usize;
            sum = sum.wrapping_add(unsafe { dbs[part].read_counter(key) });
        }
        sum
    }

    fn submit_all(session: &crate::PartSession, programs: Vec<Program>) -> u64 {
        let mut n = 0;
        for mut p in programs {
            loop {
                match session.try_submit(p) {
                    Ok(_) => break,
                    Err(TrySubmitError::Full(back)) => {
                        p = back;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            n += 1;
        }
        n
    }

    #[test]
    fn single_partition_fast_path_conserves_tickets() {
        let _serial = crate::test_serial();
        let dbs = dbs(2);
        let mut handle = PartitionedEngine::start(dbs, config(2), 11);
        let session = handle.session();
        // Keys 0..N alternate partitions; each program stays inside one.
        let programs: Vec<Program> = (0..40u64).map(|i| Program::Rmw { keys: vec![i] }).collect();
        let n = submit_all(&session, programs);
        let stats = handle.shutdown();
        assert_eq!(handle.accepted(), n);
        let mut out = Vec::new();
        handle.drain_completions(&mut out);
        let mut tickets: Vec<u64> = out.iter().map(|c| c.ticket.0).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..n).collect::<Vec<_>>(), "dense global tickets");
        // One ledger per partition localizes every completion.
        assert_eq!(stats.hub.len(), 2);
        let routed: u64 = stats.hub.iter().map(|h| h.routed).sum();
        assert_eq!(routed, n, "all local completions routed, none orphaned");
        assert!(stats.hub.iter().all(|h| h.orphaned == 0 && h.unowned == 0));
    }

    #[test]
    fn cross_partition_transfers_conserve_money() {
        let _serial = crate::test_serial();
        let dbs = dbs(2);
        let before = total_balance(&dbs, 2);
        let mut handle = PartitionedEngine::start(dbs.clone(), config(2), 23);
        let session = handle.session();
        let mut programs = Vec::new();
        for i in 0..30u64 {
            // from and to in different partitions (parity differs).
            programs.push(Program::Transfer {
                from: (2 * i) % N_RECORDS,
                to: (2 * i + 7) % N_RECORDS,
                amount: 10 + i,
            });
        }
        // Mix in same-partition fast-path traffic.
        for i in 0..20u64 {
            programs.push(Program::Rmw {
                keys: vec![(2 * i) % N_RECORDS],
            });
        }
        let n = submit_all(&session, programs);
        handle.shutdown();
        let mut out = Vec::new();
        handle.drain_completions(&mut out);
        assert_eq!(out.len() as u64, n, "every ticket completed");
        let after = total_balance(&dbs, 2);
        // 20 Rmw increments of 1 each; transfers cancel exactly.
        assert_eq!(after, before.wrapping_add(20), "transfers conserve money");
    }

    /// Submitter threads hammer `try_submit` (every third program
    /// cross-partition) while `shutdown()` runs. The fence is a count of
    /// submitters in flight, not a lock, so this is where it has to hold:
    /// every ticket handed out completes exactly once, the tickets are
    /// dense, nothing is accepted after the first refusal, and every
    /// local completion came back to the sequencer naming it as owner.
    #[test]
    fn shutdown_racing_submitters_conserves_tickets() {
        let _serial = crate::test_serial();
        const SUBMITTERS: u64 = 4;
        let mut handle = PartitionedEngine::start(dbs(2), config(2), 47);
        let mut accepted: Vec<u64> = Vec::new();
        let mut stats = None;
        std::thread::scope(|s| {
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let session = handle.session();
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        for i in t * 1_000_000.. {
                            let k = i % N_RECORDS;
                            let program = match i % 3 {
                                // Different parity: different partitions.
                                0 => Program::Transfer {
                                    from: k,
                                    to: (k + 1) % N_RECORDS,
                                    amount: 1,
                                },
                                _ => Program::Rmw { keys: vec![k] },
                            };
                            match session.try_submit(program) {
                                Ok(ticket) => mine.push(ticket.0),
                                Err(TrySubmitError::Full(_)) => std::thread::yield_now(),
                                Err(TrySubmitError::Shutdown(_)) => break,
                            }
                        }
                        for k in 0..50 {
                            let late = session.try_submit(Program::Rmw { keys: vec![k] });
                            assert!(matches!(late, Err(TrySubmitError::Shutdown(_))));
                        }
                        mine
                    })
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(30));
            stats = Some(handle.shutdown());
            for submitter in submitters {
                accepted.extend(submitter.join().expect("submitter"));
            }
        });
        let stats = stats.expect("shut down");
        let n = handle.accepted();
        assert!(n > 0, "the race needs submissions on both sides of it");
        accepted.sort_unstable();
        assert_eq!(accepted, (0..n).collect::<Vec<_>>(), "dense, none invented");
        let mut out = Vec::new();
        handle.drain_completions(&mut out);
        let mut completed: Vec<u64> = out.iter().map(|c| c.ticket.0).collect();
        completed.sort_unstable();
        assert_eq!(completed, accepted, "each accepted ticket completed once");
        // Ledgers: every commit a member engine made (fast-path
        // programs and fused epoch slices alike) carried the sequencer,
        // its owner.
        assert_eq!(stats.hub.len(), 2);
        let routed: u64 = stats.hub.iter().map(|h| h.routed).sum();
        assert_eq!(routed, stats.totals.committed_all);
        assert!(stats.hub.iter().all(|h| h.orphaned == 0 && h.unowned == 0));
    }

    #[test]
    fn epoch_batches_replay_in_epoch_order_after_recovery() {
        let _serial = crate::test_serial();
        use orthrus_core::DurabilityMode;
        let base = orthrus_common::TempDir::new("part-recover");
        let parts = 2usize;
        let mk_cfg = || {
            let mut cfg = config(parts);
            cfg.engine = cfg.engine.with_durability(DurabilityMode::Log, base.path());
            cfg
        };
        let dbs1 = dbs(parts);
        let mut handle = PartitionedEngine::start(dbs1.clone(), mk_cfg(), 31);
        let session = handle.session();
        let programs: Vec<Program> = (0..24u64)
            .map(|i| Program::Transfer {
                from: i % N_RECORDS,
                to: (i + 3) % N_RECORDS,
                amount: 5 + i,
            })
            .collect();
        submit_all(&session, programs);
        handle.shutdown();
        let live = total_balance(&dbs1, parts);

        // Fresh databases + per-partition replay reconstruct the same
        // state: per-partition log order is epoch order.
        let dbs2 = dbs(parts);
        let reports = PartitionedEngine::recover(&dbs2, &mk_cfg()).expect("recovery");
        assert_eq!(reports.len(), parts);
        assert_eq!(total_balance(&dbs2, parts), live, "replay matches live");
    }

    /// A config without a log directory is the caller's mistake, reported
    /// as one — not a panic.
    #[test]
    fn recover_without_a_log_dir_is_invalid_input() {
        let err = PartitionedEngine::recover(&dbs(2), &config(2)).expect_err("no log_dir");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
