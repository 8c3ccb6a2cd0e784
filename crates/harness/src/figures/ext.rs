//! Extension experiments beyond the paper's evaluation.
//!
//! The paper restricts TPC-C to NewOrder+Payment ("the vast majority of
//! the benchmark"). `ext01` runs the spec's full five-transaction mix —
//! OrderStatus, Delivery, and StockLevel exercise OLLP on every
//! data-dependent shape the system supports (by-name lookups, Delivery's
//! order/customer resolution, StockLevel's item sweeps) — and asks whether
//! the paper's headline ordering (ORTHRUS > Deadlock-free > 2PL) survives
//! the heavier, deadlock-prone mix.

use crate::ablations::push_cc_util;
use crate::config::BenchConfig;
use crate::report::{FigureResult, Series};
use crate::systems::{run_micro, run_orthrus_split, run_tpcc_full, SystemKind};

const SYSTEMS: [SystemKind; 3] = [
    SystemKind::Orthrus,
    SystemKind::DeadlockFree,
    SystemKind::TwoPlDreadlocks,
];

/// Extension 1: full TPC-C mix throughput vs warehouse count at the full
/// thread budget (companion to Figure 8).
pub fn ext01_tpcc_fullmix(bc: &BenchConfig) -> FigureResult {
    let threads = bc.clamp_threads(80);
    let mut fig = FigureResult::new(
        "ext01",
        format!("Full TPC-C mix (45/43/4/4/4) vs warehouses ({threads} threads)"),
        "warehouses",
        "txns/sec",
    );
    for kind in SYSTEMS {
        let mut s = Series::new(kind.label());
        for wh in [4u32, 8, 16, 32, 64] {
            let stats = run_tpcc_full(kind, wh, threads, bc);
            s.push(wh as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// Extension 2: full-mix scalability at 8 warehouses (high contention;
/// companion to Figure 9 — the Delivery legs make districts even hotter).
pub fn ext02_fullmix_scalability(bc: &BenchConfig) -> FigureResult {
    let mut fig = FigureResult::new(
        "ext02",
        "Full TPC-C mix scalability, 8 warehouses",
        "threads",
        "txns/sec",
    );
    for kind in SYSTEMS {
        let mut s = Series::new(kind.label());
        for threads in bc.thread_sweep() {
            let stats = run_tpcc_full(kind, 8, threads, bc);
            s.push(threads as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// Extension 3: the Figure-4 hot-set sweep with **five** deadlock
/// strategies — the paper's three (wait-for graph, wait-die, Dreadlocks)
/// plus no-wait and wound-wait from Yu et al. [50] — against the
/// deadlock-free planned baseline.
pub fn ext03_deadlock_policies(bc: &BenchConfig, threads: usize) -> FigureResult {
    let threads = bc.clamp_threads(threads);
    let mut fig = FigureResult::new(
        "ext03",
        format!("Five deadlock strategies vs hot-set size ({threads} threads)"),
        "hot_records",
        "txns/sec",
    );
    let systems = [
        SystemKind::DeadlockFree,
        SystemKind::TwoPlDreadlocks,
        SystemKind::TwoPlWaitDie,
        SystemKind::TwoPlWfg,
        SystemKind::TwoPlNoWait,
        SystemKind::TwoPlWoundWait,
    ];
    for kind in systems {
        let mut s = Series::new(kind.label());
        for hot in [1024u64, 256, 64]
            .into_iter()
            .filter(|&h| h + 16 <= bc.n_records as u64)
        {
            let spec =
                orthrus_workload::MicroSpec::hot_cold(bc.n_records as u64, hot, 2, 10, false);
            let stats = crate::systems::run_micro(kind, spec, threads, bc);
            s.push(hot as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// Extension 4: Zipfian skew (YCSB's scrambled-Zipfian model) against
/// ORTHRUS's fixed CC assignment.
///
/// Under scrambled-Zipfian popularity the hot keys land on arbitrary CC
/// threads, so the modulo assignment over- and under-utilizes CC threads
/// ("concurrency control threads may be subject to over- and
/// under-utilization due to workload skew", Section 3.3). Each CC
/// thread's busy share shows that imbalance beside ORTHRUS's throughput,
/// and the shared-table baselines, which have no partition to imbalance,
/// are the comparison.
pub fn ext04_skew(bc: &BenchConfig) -> FigureResult {
    let threads = bc.clamp_threads(80);
    // At least two CC threads, or there is no partition for skew to
    // unbalance (the paper's 1:4 split gives one below 10 threads).
    let n_cc = (threads / 5).max(2);
    let n_exec = threads.saturating_sub(n_cc).max(1);
    let mut fig = FigureResult::new(
        "ext04",
        format!(
            "Zipfian skew under modulo CC assignment ({threads} threads; \
             ORTHRUS {n_cc} CC / {n_exec} exec; cc series: % of the window busy)"
        ),
        "zipf_theta",
        "txns/sec",
    );
    let thetas = [0.5f64, 0.8, 0.95, 0.99];
    let mk = |theta: f64| orthrus_workload::MicroSpec::zipf(bc.n_records as u64, 10, theta, false);

    let mut s = Series::new("ORTHRUS (modulo)");
    let mut cc_util = Vec::new();
    for theta in thetas {
        let stats = run_orthrus_split(mk(theta), n_cc, n_exec, bc);
        s.push(theta, stats.throughput());
        cc_util.push((theta, stats.cc));
    }
    fig.series.push(s);
    push_cc_util(&mut fig, "orthrus", &cc_util);

    for kind in [SystemKind::DeadlockFree, SystemKind::TwoPlWaitDie] {
        let mut s = Series::new(kind.label());
        for theta in thetas {
            s.push(theta, run_micro(kind, mk(theta), threads, bc).throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// Extension 5: the SEDA-style CC/exec split tuner (Section 4.2) — the
/// measurement trace and the pick, as a figure.
pub fn ext05_cc_split(bc: &BenchConfig) -> FigureResult {
    let threads = bc.clamp_threads(20).max(2);
    let spec = orthrus_workload::MicroSpec::uniform(bc.n_records as u64, 10, false);
    let result = crate::autotune::tune_cc_split(threads, |n_cc| {
        crate::systems::run_orthrus_split(spec.clone(), n_cc, threads - n_cc, bc).throughput()
    });
    let mut fig = FigureResult::new(
        "ext05",
        format!(
            "CC/exec split tuning ({threads} threads; pick: {} CC in {} epochs)",
            result.best.n_cc,
            result.trace.len()
        ),
        "n_cc",
        "txns/sec",
    );
    let mut s = Series::new("measured epochs");
    for p in &result.trace {
        s.push(p.n_cc as f64, p.throughput);
    }
    fig.series.push(s);
    fig
}

/// One row of the ext06 latency table.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    pub system: &'static str,
    pub throughput: f64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl LatencyRow {
    /// Render rows as the ext06 table.
    pub fn render(rows: &[LatencyRow], title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("# ext06 — {title}\n"));
        out.push_str(&format!(
            "{:<22}{:>14}{:>12}{:>12}{:>12}\n",
            "system", "txns/sec", "mean µs", "p50 µs", "p99 µs"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<22}{:>14.0}{:>12.1}{:>12.1}{:>12.1}\n",
                r.system, r.throughput, r.mean_us, r.p50_us, r.p99_us
            ));
        }
        out
    }
}

/// Extension 6: commit-latency profile on the Appendix-A high-contention
/// 10RMW workload. The paper reports throughput only; the latency columns
/// quantify what ORTHRUS's message hops and deliberate asynchrony
/// (parking transactions while grants are in flight, Section 3.3) cost.
pub fn ext06_latency(bc: &BenchConfig) -> Vec<LatencyRow> {
    let threads = bc.clamp_threads(80);
    let spec = || orthrus_workload::MicroSpec::hot_cold(bc.n_records as u64, 64, 2, 10, false);
    [
        SystemKind::Orthrus,
        SystemKind::DeadlockFree,
        SystemKind::TwoPlWaitDie,
    ]
    .into_iter()
    .map(|kind| {
        let stats = run_micro(kind, spec(), threads, bc);
        LatencyRow {
            system: kind.label(),
            throughput: stats.throughput(),
            mean_us: stats.totals.latency.mean_ns() as f64 / 1_000.0,
            p50_us: stats.p50_latency_us(),
            p99_us: stats.p99_latency_us(),
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext06_latency_rows_are_sane() {
        let _serial = crate::test_serial();
        let mut bc = BenchConfig::test_quick();
        bc.measure = std::time::Duration::from_millis(80);
        let rows = ext06_latency(&bc);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.throughput > 0.0, "{}", r.system);
            assert!(r.p50_us > 0.0 && r.p50_us <= r.p99_us, "{}", r.system);
            assert!(r.mean_us > 0.0);
        }
        let text = LatencyRow::render(&rows, "test");
        assert!(text.contains("ORTHRUS"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn ext04_runs_all_series() {
        let _serial = crate::test_serial();
        let mut bc = BenchConfig::test_quick();
        bc.measure = std::time::Duration::from_millis(60);
        bc.warmup = std::time::Duration::from_millis(20);
        let fig = ext04_skew(&bc);
        // Throughput, one busy% per CC thread (2 at 4 threads), two
        // baselines.
        assert_eq!(fig.series.len(), 5);
        assert_eq!(fig.series[1].label, "orthrus cc0 busy%");
        for s in &fig.series {
            assert_eq!(s.points.len(), 4);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn ext03_covers_six_systems() {
        let _serial = crate::test_serial();
        let mut bc = BenchConfig::test_quick();
        bc.measure = std::time::Duration::from_millis(60);
        let fig = ext03_deadlock_policies(&bc, 4);
        assert_eq!(fig.series.len(), 6);
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn ext01_runs_three_systems() {
        let _serial = crate::test_serial();
        let mut bc = BenchConfig::test_quick();
        bc.measure = std::time::Duration::from_millis(80);
        let threads = bc.clamp_threads(80);
        // One warehouse point per system keeps the test quick.
        for kind in SYSTEMS {
            let stats = run_tpcc_full(kind, 2, threads, &bc);
            assert!(stats.totals.committed > 0, "{}", kind.label());
        }
    }
}
