//! "Deadlock free locking": planned access + ordered acquisition over the
//! shared lock table (Sections 3.2 and 4).
//!
//! Workers analyze each transaction's read/write sets in advance, acquire
//! every lock in ascending key order (global order ⇒ no deadlock), execute
//! with a no-op guard, then release. The only abort source is an OLLP
//! estimate mismatch, which re-plans and retries with the corrected
//! annotation. Run over a `Database::Partitioned` to get the "Split
//! Deadlock-free" variant of Section 4.3.

use std::sync::Arc;

use orthrus_common::runtime::{timed_run, RunParams};
use orthrus_common::{Phase, PhaseTimer, RunStats, ThreadId, ThreadStats, TxnId, XorShift64};
use orthrus_lockmgr::{LockManager, LockWaiter, NoDeadlockPolicy, WaitEvent};
use orthrus_txn::{execute_planned, AbortKind, Database};
use orthrus_workload::Spec;

/// Planned, ordered, deadlock-free locking over a shared lock table.
pub struct DeadlockFreeEngine {
    db: Arc<Database>,
    mgr: Arc<LockManager<NoDeadlockPolicy>>,
    spec: Spec,
}

impl DeadlockFreeEngine {
    /// Build an engine. `n_buckets` sizes the shared lock table.
    pub fn new(db: Arc<Database>, n_buckets: usize, spec: Spec) -> Self {
        DeadlockFreeEngine {
            db,
            mgr: Arc::new(LockManager::new(n_buckets, NoDeadlockPolicy)),
            spec,
        }
    }

    /// Run the workload on `params.threads` workers.
    pub fn run(&self, params: &RunParams) -> RunStats {
        timed_run(params.threads, params.warmup, params.measure, |idx, ctl| {
            self.worker(idx, ctl, params)
        })
    }

    fn worker(&self, idx: usize, ctl: &orthrus_common::RunCtl, params: &RunParams) -> ThreadStats {
        let mut gen = self.spec.generator(params.seed, idx);
        let mut plan_rng = XorShift64::for_thread(params.seed ^ 0x6f6c_6c70, idx);
        let waiter = Arc::new(LockWaiter::new());
        let mut stats = ThreadStats::default();
        let mut timer = PhaseTimer::start(Phase::Execution);
        let mut seq = 0u64;
        let mut in_window = false;

        while !ctl.is_stopped() {
            if !in_window && ctl.is_measuring() {
                stats.reset_window();
                timer = PhaseTimer::start(Phase::Execution);
                in_window = true;
            }
            let program = gen.next_program();
            let txn = TxnId::compose(seq, ThreadId(idx as u32));
            seq += 1;
            let started = std::time::Instant::now();

            // First attempt may carry estimate noise; retries re-plan with
            // the corrected annotation (noise 0), per OLLP.
            let mut noise = params.ollp_noise_pct;
            loop {
                timer.switch(&mut stats, Phase::Locking);
                let plan = orthrus_txn::plan_accesses(&program, &self.db, noise, &mut plan_rng);
                // Ascending key order — the global order that makes
                // deadlock impossible (Section 3.2).
                for &(key, mode) in plan.accesses.entries() {
                    self.mgr
                        .acquire_observed(txn, key, mode, &waiter, |ev| match ev {
                            WaitEvent::Begin => timer.switch(&mut stats, Phase::Waiting),
                            WaitEvent::End => timer.switch(&mut stats, Phase::Locking),
                        })
                        .expect("ordered acquisition cannot abort");
                }
                timer.switch(&mut stats, Phase::Execution);
                let result = execute_planned(&program, &self.db, &plan);
                timer.switch(&mut stats, Phase::Locking);
                self.mgr
                    .release_all(txn, plan.accesses.entries().iter().map(|(k, _)| k));
                match result {
                    Ok(v) => {
                        std::hint::black_box(v);
                        stats.committed += 1;
                        stats.committed_all += 1;
                        stats.latency.record(started.elapsed().as_nanos() as u64);
                        timer.switch(&mut stats, Phase::Execution);
                        break;
                    }
                    Err(AbortKind::OllpMismatch) => {
                        stats.aborts_ollp += 1;
                        noise = 0; // corrected annotation on retry
                        if ctl.is_stopped() {
                            break;
                        }
                    }
                    Err(other) => unreachable!("planned engine abort: {other:?}"),
                }
            }
        }
        timer.finish(&mut stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_storage::tpcc::{TpccConfig, TpccDb, TpccLayout};
    use orthrus_storage::{PartitionedTable, Table};
    use orthrus_workload::{MicroSpec, TpccSpec};

    #[test]
    fn contended_rmw_makes_progress_with_exact_counts() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 4, 2, 4, false));
        let engine = DeadlockFreeEngine::new(Arc::clone(&db), 64, spec);
        let stats = engine.run(&RunParams::quick(4));
        assert!(stats.totals.committed > 0);
        assert_eq!(stats.totals.aborts(), 0, "planned locking never aborts");
        // Strong invariant (unlike dynamic 2PL): every commit applies each
        // of its 4 RMWs exactly once, and nothing else writes.
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn split_variant_runs_on_partitioned_database() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Partitioned(PartitionedTable::new(128, 64, 4)));
        let spec = Spec::Micro(MicroSpec::uniform(128, 6, false));
        let engine = DeadlockFreeEngine::new(Arc::clone(&db), 64, spec);
        let stats = engine.run(&RunParams::quick(4));
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..128).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 6);
    }

    #[test]
    fn tpcc_money_conservation_under_planned_locking() {
        let _serial = crate::test_serial();
        let cfg = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg, 9)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg));
        let engine = DeadlockFreeEngine::new(Arc::clone(&db), 512, spec);
        let stats = engine.run(&RunParams::quick(4));
        assert!(stats.totals.committed > 0);

        // Planned locking never leaves partial effects, so full accounting
        // invariants hold: sum(warehouse ytd deltas) == sum(district ytd
        // deltas) == total payment volume.
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta, "warehouse vs district payment totals");

        // Customer payment counters line up with history rows.
        let hist_cnt: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.history_ctr as u64) })
            .sum();
        let pay_cnt: u64 = (0..t.customers.len())
            .map(|c| unsafe { t.customers.read_with(c, |r| (r.payment_cnt - 1) as u64) })
            .sum();
        assert_eq!(hist_cnt, pay_cnt, "history rows vs customer payments");

        // District o_id counters equal order headers written.
        for w in 0..cfg.warehouses {
            for d in 0..cfg.districts_per_wh {
                let dn = t.layout.district_no(w, d) as usize;
                let next = unsafe { t.districts.read_with(dn, |r| r.next_o_id) };
                let slots = cfg.order_slots_per_district.min(next);
                for o in 0..slots.min(4) {
                    let k = t.layout.order_key(w, d, o);
                    let o_id = unsafe { t.orders.read_with(TpccLayout::slot(k), |r| r.o_id) };
                    // Slot was written by order o or a wrapped successor.
                    assert_eq!(o_id % cfg.order_slots_per_district, o);
                }
            }
        }
    }

    #[test]
    fn ollp_noise_causes_aborts_then_recovers() {
        let _serial = crate::test_serial();
        let cfg = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg, 11)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg));
        let engine = DeadlockFreeEngine::new(db, 512, spec);
        let mut params = RunParams::quick(2);
        params.ollp_noise_pct = 50;
        let stats = engine.run(&params);
        assert!(stats.totals.committed > 0);
        assert!(
            stats.totals.aborts_ollp > 0,
            "noise must exercise the OLLP retry path"
        );
    }
}
