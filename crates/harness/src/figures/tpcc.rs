//! TPC-C figures: 8, 9, 10 (Section 4.4).

use crate::config::BenchConfig;
use crate::report::{FigureResult, Series};
use crate::systems::{run_tpcc, SystemKind};

const SYSTEMS: [SystemKind; 3] = [
    SystemKind::Orthrus,
    SystemKind::DeadlockFree,
    SystemKind::TwoPlDreadlocks,
];

/// Figure 8: NewOrder+Payment throughput vs warehouse count (contention
/// decreases left to right), all systems at the full thread budget.
pub fn fig08_tpcc_warehouses(bc: &BenchConfig) -> FigureResult {
    let bc = &bc.paper();
    let threads = bc.clamp_threads(80);
    let mut fig = FigureResult::new(
        "fig08",
        format!("TPC-C throughput vs warehouses ({threads} threads)"),
        "warehouses",
        "txns/sec",
    );
    for kind in SYSTEMS {
        let mut s = Series::new(kind.label());
        for wh in [4u32, 8, 16, 32, 64, 96, 128] {
            let stats = run_tpcc(kind, wh, threads, bc);
            s.push(wh as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// Figure 9: TPC-C scalability at 16 warehouses (high contention) while
/// the thread count grows.
pub fn fig09_tpcc_scalability(bc: &BenchConfig) -> FigureResult {
    let bc = &bc.paper();
    let mut fig = FigureResult::new(
        "fig09",
        "TPC-C scalability, 16 warehouses",
        "threads",
        "txns/sec",
    );
    for kind in SYSTEMS {
        let mut s = Series::new(kind.label());
        for threads in bc.thread_sweep() {
            let stats = run_tpcc(kind, 16, threads, bc);
            s.push(threads as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// One row of the Figure-10 breakdown.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    pub contention: &'static str,
    pub system: &'static str,
    pub execution_pct: f64,
    pub locking_pct: f64,
    pub waiting_pct: f64,
}

impl BreakdownRow {
    /// Render a set of rows as the two-panel table of Figure 10.
    pub fn render(rows: &[BreakdownRow]) -> String {
        let mut out = String::new();
        out.push_str("# fig10 — Execution-thread CPU time breakdown (TPC-C)\n");
        out.push_str(&format!(
            "{:<18}{:<22}{:>12}{:>12}{:>12}\n",
            "contention", "system", "execution%", "locking%", "waiting%"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<18}{:<22}{:>12.1}{:>12.1}{:>12.1}\n",
                r.contention, r.system, r.execution_pct, r.locking_pct, r.waiting_pct
            ));
        }
        out
    }
}

/// Figure 10: CPU-time breakdown of execution threads at 128 warehouses
/// (low contention) and 16 warehouses (high contention).
pub fn fig10_breakdown(bc: &BenchConfig) -> Vec<BreakdownRow> {
    let bc = &bc.paper();
    let threads = bc.clamp_threads(80);
    let mut rows = Vec::new();
    for (contention, wh) in [("low(128WH)", 128u32), ("high(16WH)", 16u32)] {
        for kind in SYSTEMS {
            let stats = run_tpcc(kind, wh, threads, bc);
            let b = stats.breakdown();
            rows.push(BreakdownRow {
                contention,
                system: kind.label(),
                execution_pct: b.execution_pct,
                locking_pct: b.locking_pct,
                waiting_pct: b.waiting_pct,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig09_runs_three_systems() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = fig09_tpcc_scalability(&bc);
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn fig10_breakdown_sums_to_100() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let rows = fig10_breakdown(&bc);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            let sum = r.execution_pct + r.locking_pct + r.waiting_pct;
            assert!((sum - 100.0).abs() < 1.5, "{}: {sum}", r.system);
        }
        let text = BreakdownRow::render(&rows);
        assert!(text.contains("ORTHRUS"));
        assert!(text.contains("high(16WH)"));
    }
}
