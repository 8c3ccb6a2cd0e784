//! System dispatch: build the right database + engine for a named system
//! and run one timed point.

use std::sync::Arc;

use orthrus_baselines::{DeadlockFreeEngine, PartitionedStoreEngine, TwoPlEngine};
use orthrus_common::RunStats;
use orthrus_core::{CcAssignment, OrthrusConfig, OrthrusEngine};
use orthrus_lockmgr::{Dreadlocks, NoWait, WaitDie, WaitForGraph, WoundWait};
use orthrus_storage::tpcc::{TpccConfig, TpccDb};
use orthrus_storage::{PartitionedTable, Table};
use orthrus_txn::Database;
use orthrus_workload::{MicroSpec, Spec, TpccSpec};

use crate::config::BenchConfig;

/// Every system that appears in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    TwoPlWaitDie,
    TwoPlWfg,
    TwoPlDreadlocks,
    /// Extension: abort-on-conflict (no waiting at all).
    TwoPlNoWait,
    /// Extension: older transactions wound younger lock holders.
    TwoPlWoundWait,
    DeadlockFree,
    SplitDeadlockFree,
    Orthrus,
    SplitOrthrus,
    PartitionedStore,
}

impl SystemKind {
    /// Label as used in the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::TwoPlWaitDie => "2PL-WaitDie",
            SystemKind::TwoPlWfg => "2PL-WaitForGraph",
            SystemKind::TwoPlDreadlocks => "2PL-Dreadlocks",
            SystemKind::TwoPlNoWait => "2PL-NoWait",
            SystemKind::TwoPlWoundWait => "2PL-WoundWait",
            SystemKind::DeadlockFree => "Deadlock-free",
            SystemKind::SplitDeadlockFree => "Split-Deadlock-free",
            SystemKind::Orthrus => "ORTHRUS",
            SystemKind::SplitOrthrus => "SPLIT-ORTHRUS",
            SystemKind::PartitionedStore => "Partitioned-store",
        }
    }

    /// ORTHRUS's CC-thread count for a total core budget (the paper's 1/5
    /// ratio: 16 CC at 80 cores).
    pub fn n_cc_for(total_threads: usize) -> usize {
        (total_threads / 5).max(1)
    }

    /// The partition count the workload's `key % of` constraint should use
    /// for this system at this thread count, so "partitions accessed per
    /// transaction" means the same thing everywhere (Section 4.3: "a
    /// transaction which accesses three physical partitions in
    /// Partitioned-store will request locks from three concurrency control
    /// threads in ORTHRUS").
    pub fn partition_of(self, threads: usize) -> u32 {
        match self {
            SystemKind::PartitionedStore => threads.max(1) as u32,
            _ => Self::n_cc_for(threads) as u32,
        }
    }
}

fn lock_buckets(n_records: usize) -> usize {
    (n_records / 4).next_power_of_two().clamp(1 << 10, 1 << 20)
}

/// Run one timed point of a microbenchmark workload on `kind`.
pub fn run_micro(kind: SystemKind, spec: MicroSpec, threads: usize, bc: &BenchConfig) -> RunStats {
    let params = bc.params(threads);
    let n = spec.n_records as usize;
    let buckets = lock_buckets(n);
    let spec = Spec::Micro(spec);
    match kind {
        SystemKind::TwoPlWaitDie => {
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            TwoPlEngine::new(db, WaitDie, buckets, spec).run(&params)
        }
        SystemKind::TwoPlWfg => {
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            TwoPlEngine::new(db, WaitForGraph::new(threads), buckets, spec).run(&params)
        }
        SystemKind::TwoPlDreadlocks => {
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            TwoPlEngine::new(db, Dreadlocks::new(threads), buckets, spec).run(&params)
        }
        SystemKind::TwoPlNoWait => {
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            TwoPlEngine::new(db, NoWait, buckets, spec).run(&params)
        }
        SystemKind::TwoPlWoundWait => {
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            TwoPlEngine::new(db, WoundWait::new(threads), buckets, spec).run(&params)
        }
        SystemKind::DeadlockFree => {
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            DeadlockFreeEngine::new(db, buckets, spec).run(&params)
        }
        SystemKind::SplitDeadlockFree => {
            let parts = SystemKind::n_cc_for(threads);
            let db = Arc::new(Database::Partitioned(PartitionedTable::new(
                n,
                bc.record_size,
                parts,
            )));
            DeadlockFreeEngine::new(db, buckets, spec).run(&params)
        }
        SystemKind::Orthrus => {
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            let mut cfg = OrthrusConfig::for_cores(threads, CcAssignment::KeyModulo);
            cfg.flush_threshold = bc.flush_threshold;
            cfg.admission = bc.admission.clone();
            let _log_dir = bc.apply_durability(&mut cfg);
            // for_cores(1) still runs 1 CC + 1 exec; label what actually
            // runs (the engine enforces the match).
            let params = bc.params(cfg.total_threads());
            OrthrusEngine::new(db, spec, cfg).run(&params)
        }
        SystemKind::SplitOrthrus => {
            let mut cfg = OrthrusConfig::for_cores(threads, CcAssignment::KeyModulo);
            cfg.flush_threshold = bc.flush_threshold;
            cfg.admission = bc.admission.clone();
            let _log_dir = bc.apply_durability(&mut cfg);
            // Index partitions aligned with CC partitions (Section 4.3).
            let db = Arc::new(Database::Partitioned(PartitionedTable::new(
                n,
                bc.record_size,
                cfg.n_cc,
            )));
            let params = bc.params(cfg.total_threads());
            OrthrusEngine::new(db, spec, cfg).run(&params)
        }
        SystemKind::PartitionedStore => {
            let db = Arc::new(Database::Partitioned(PartitionedTable::new(
                n,
                bc.record_size,
                threads.max(1),
            )));
            PartitionedStoreEngine::new(db, spec).run(&params)
        }
    }
}

/// Run one ORTHRUS point with an explicit CC/exec split (the autotuner's
/// measurement epoch; also Figure 5's grid).
pub fn run_orthrus_split(
    spec: MicroSpec,
    n_cc: usize,
    n_exec: usize,
    bc: &BenchConfig,
) -> RunStats {
    let params = bc.params(n_cc + n_exec);
    let n = spec.n_records as usize;
    let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
    let mut cfg = OrthrusConfig::with_threads(n_cc, n_exec, CcAssignment::KeyModulo);
    cfg.flush_threshold = bc.flush_threshold;
    cfg.admission = bc.admission.clone();
    let _log_dir = bc.apply_durability(&mut cfg);
    OrthrusEngine::new(db, Spec::Micro(spec), cfg).run(&params)
}

/// Build the bench-scale TPC-C configuration.
pub fn tpcc_config(bc: &BenchConfig, warehouses: u32) -> TpccConfig {
    let mut cfg = TpccConfig::with_warehouses(warehouses);
    cfg.customers_per_district = bc.tpcc_cpd;
    cfg.items = bc.tpcc_items;
    cfg.order_slots_per_district = bc.tpcc_order_slots;
    cfg.history_slots_per_district = bc.tpcc_order_slots;
    cfg
}

/// Run one timed point of the paper's TPC-C mix (NewOrder+Payment) on
/// `kind`.
pub fn run_tpcc(kind: SystemKind, warehouses: u32, threads: usize, bc: &BenchConfig) -> RunStats {
    let cfg_t = tpcc_config(bc, warehouses);
    run_tpcc_spec(kind, TpccSpec::paper_mix(cfg_t), threads, bc)
}

/// Run one timed point of the full five-transaction TPC-C mix
/// (45/43/4/4/4 with OrderStatus, Delivery, and StockLevel) on `kind`.
/// Districts are pre-loaded with orders so the read-side transactions have
/// data from the first transaction.
pub fn run_tpcc_full(
    kind: SystemKind,
    warehouses: u32,
    threads: usize,
    bc: &BenchConfig,
) -> RunStats {
    let cfg_t = tpcc_config(bc, warehouses).with_initial_orders((bc.tpcc_order_slots / 2).max(30));
    run_tpcc_spec(kind, TpccSpec::full_mix(cfg_t), threads, bc)
}

fn run_tpcc_spec(kind: SystemKind, spec_t: TpccSpec, threads: usize, bc: &BenchConfig) -> RunStats {
    let params = bc.params(threads);
    let cfg_t = spec_t.cfg;
    let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, bc.seed)));
    let spec = Spec::Tpcc(spec_t);
    let buckets = lock_buckets(cfg_t.n_customers() as usize + cfg_t.n_stock() as usize);
    match kind {
        SystemKind::TwoPlDreadlocks => {
            TwoPlEngine::new(db, Dreadlocks::new(threads), buckets, spec).run(&params)
        }
        SystemKind::TwoPlWaitDie => TwoPlEngine::new(db, WaitDie, buckets, spec).run(&params),
        SystemKind::TwoPlWfg => {
            TwoPlEngine::new(db, WaitForGraph::new(threads), buckets, spec).run(&params)
        }
        SystemKind::TwoPlNoWait => TwoPlEngine::new(db, NoWait, buckets, spec).run(&params),
        SystemKind::TwoPlWoundWait => {
            TwoPlEngine::new(db, WoundWait::new(threads), buckets, spec).run(&params)
        }
        SystemKind::DeadlockFree => DeadlockFreeEngine::new(db, buckets, spec).run(&params),
        SystemKind::Orthrus => {
            let mut cfg = OrthrusConfig::for_cores(threads, CcAssignment::Warehouse);
            cfg.flush_threshold = bc.flush_threshold;
            cfg.admission = bc.admission.clone();
            let _log_dir = bc.apply_durability(&mut cfg);
            // for_cores(1) still runs 1 CC + 1 exec; label what actually
            // runs (the engine enforces the match).
            let params = bc.params(cfg.total_threads());
            OrthrusEngine::new(db, spec, cfg).run(&params)
        }
        other => panic!("{} does not run TPC-C in the paper", other.label()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let _serial = crate::test_serial();
        let all = [
            SystemKind::TwoPlWaitDie,
            SystemKind::TwoPlWfg,
            SystemKind::TwoPlDreadlocks,
            SystemKind::TwoPlNoWait,
            SystemKind::TwoPlWoundWait,
            SystemKind::DeadlockFree,
            SystemKind::SplitDeadlockFree,
            SystemKind::Orthrus,
            SystemKind::SplitOrthrus,
            SystemKind::PartitionedStore,
        ];
        let mut labels: Vec<&str> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn partition_alignment_rules() {
        let _serial = crate::test_serial();
        assert_eq!(SystemKind::PartitionedStore.partition_of(80), 80);
        assert_eq!(SystemKind::Orthrus.partition_of(80), 16);
        assert_eq!(SystemKind::DeadlockFree.partition_of(80), 16);
        assert_eq!(SystemKind::n_cc_for(4), 1);
    }

    #[test]
    fn every_system_runs_a_micro_point() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        for kind in [
            SystemKind::TwoPlWaitDie,
            SystemKind::TwoPlWfg,
            SystemKind::TwoPlDreadlocks,
            SystemKind::TwoPlNoWait,
            SystemKind::TwoPlWoundWait,
            SystemKind::DeadlockFree,
            SystemKind::SplitDeadlockFree,
            SystemKind::Orthrus,
            SystemKind::SplitOrthrus,
            SystemKind::PartitionedStore,
        ] {
            let spec = MicroSpec::uniform(bc.n_records as u64, 4, false);
            let stats = run_micro(kind, spec, 4, &bc);
            assert!(
                stats.totals.committed > 0,
                "{} made no progress",
                kind.label()
            );
        }
    }

    #[test]
    fn tpcc_systems_run_a_point() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        for kind in [
            SystemKind::Orthrus,
            SystemKind::DeadlockFree,
            SystemKind::TwoPlDreadlocks,
        ] {
            let stats = run_tpcc(kind, 2, 4, &bc);
            assert!(
                stats.totals.committed > 0,
                "{} made no TPC-C progress",
                kind.label()
            );
        }
    }

    #[test]
    fn tpcc_full_mix_systems_run_a_point() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        for kind in [
            SystemKind::Orthrus,
            SystemKind::DeadlockFree,
            SystemKind::TwoPlDreadlocks,
        ] {
            let stats = run_tpcc_full(kind, 2, 4, &bc);
            assert!(
                stats.totals.committed > 0,
                "{} made no full-mix progress",
                kind.label()
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not run TPC-C")]
    fn partitioned_store_rejects_tpcc() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let _ = run_tpcc(SystemKind::PartitionedStore, 2, 2, &bc);
    }
}
