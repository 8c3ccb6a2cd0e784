//! Microbenchmark / YCSB figures: 1, 4, 5, 11, 12.

use orthrus_workload::{MicroSpec, PartitionConstraint};

use crate::config::BenchConfig;
use crate::report::{FigureResult, Series};
use crate::systems::{run_micro, SystemKind};

/// Figure 1: scalability of short read-only transactions under 2PL on a
/// high-contention workload (2 hot of 64 + 8 cold reads). The paper shows
/// throughput collapsing past 40 cores despite zero logical conflicts.
pub fn fig01_2pl_readonly(bc: &BenchConfig) -> FigureResult {
    let bc = &bc.paper();
    let mut fig = FigureResult::new(
        "fig01",
        "Read-only scalability under 2PL, high contention",
        "threads",
        "txns/sec",
    );
    let mut s = Series::new("Two-Phase Locking");
    for threads in bc.thread_sweep() {
        let spec = MicroSpec::hot_cold(bc.n_records as u64, 64, 2, 10, true);
        let stats = run_micro(SystemKind::TwoPlWaitDie, spec, threads, bc);
        s.push(threads as f64, stats.throughput());
    }
    fig.series.push(s);
    fig
}

/// The paper's Figure-4 hot-set sweep (8K → 64), largest first so
/// contention increases left-to-right like the paper's x-axis.
fn hot_sweep(bc: &BenchConfig) -> Vec<u64> {
    // A hot set must leave room for the 8 distinct cold draws of each
    // 2-hot + 8-cold transaction (matters only at test scales).
    [8192u64, 4096, 2048, 1024, 512, 384, 256, 192, 128, 64]
        .into_iter()
        .filter(|&h| h + 16 <= bc.n_records as u64)
        .collect()
}

/// Figure 4: deadlock-handling overhead while varying the number of hot
/// records; panel (a) is 10 cores, panel (b) 80 cores — pass `threads`.
pub fn fig04_deadlock_overhead(bc: &BenchConfig, threads: usize) -> FigureResult {
    let bc = &bc.paper();
    let threads = bc.clamp_threads(threads);
    let mut fig = FigureResult::new(
        "fig04",
        format!("Deadlock handling overhead vs hot-set size ({threads} threads)"),
        "hot_records",
        "txns/sec",
    );
    let systems = [
        SystemKind::DeadlockFree,
        SystemKind::TwoPlDreadlocks,
        SystemKind::TwoPlWaitDie,
        SystemKind::TwoPlWfg,
    ];
    for kind in systems {
        let mut s = Series::new(kind.label());
        for hot in hot_sweep(bc) {
            let spec = MicroSpec::hot_cold(bc.n_records as u64, hot, 2, 10, false);
            let stats = run_micro(kind, spec, threads, bc);
            s.push(hot as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// Figure 5: ORTHRUS execution-thread scalability under fixed CC-thread
/// allocations (4/8/16 CC threads; uniform 10-RMW; every transaction's
/// locks on a single CC thread).
pub fn fig05_thread_allocation(bc: &BenchConfig) -> FigureResult {
    let bc = &bc.paper();
    let (cc_list, exec_list): (Vec<usize>, Vec<usize>) = if bc.max_threads == 0 {
        (vec![4, 8, 16], vec![4, 8, 16, 24, 32, 48, 64])
    } else {
        let cap = bc.max_threads.max(2);
        (
            [1usize, 2, 4]
                .into_iter()
                .filter(|&c| c <= cap / 2)
                .collect(),
            [1usize, 2, 4, 8, 16, 32]
                .into_iter()
                .filter(|&e| e <= cap)
                .collect(),
        )
    };
    let mut fig = FigureResult::new(
        "fig05",
        "ORTHRUS execution-thread scalability per CC allocation",
        "exec_threads",
        "txns/sec",
    );
    for &n_cc in &cc_list {
        let mut s = Series::new(format!("{n_cc} CC threads"));
        for &n_exec in &exec_list {
            let spec = MicroSpec::uniform(bc.n_records as u64, 10, false).with_constraint(
                PartitionConstraint::Exact {
                    count: 1,
                    of: n_cc as u32,
                },
            );
            let stats =
                crate::ablations::run_orthrus_custom(spec, n_cc, n_exec, true, None, 16, bc);
            s.push(n_exec as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// The YCSB placement/system set of Figures 11 and 12 (Appendix A).
fn ycsb_figure(bc: &BenchConfig, read_only: bool, high_contention: bool) -> Vec<Series> {
    let make_spec = |of: u32, placement: Option<u32>| {
        let base = if high_contention {
            MicroSpec::hot_cold(bc.n_records as u64, 64, 2, 10, read_only)
        } else {
            MicroSpec::uniform(bc.n_records as u64, 10, read_only)
        };
        match placement {
            Some(count) => base.with_constraint(PartitionConstraint::Exact {
                count: count.min(of),
                of,
            }),
            None => base,
        }
    };

    let mut series = Vec::new();
    // ORTHRUS placements: single, dual, random.
    for (label, placement) in [
        ("ORTHRUS(Single)", Some(1)),
        ("ORTHRUS(Dual)", Some(2)),
        ("ORTHRUS(Random)", None),
    ] {
        let mut s = Series::new(label);
        for threads in bc.thread_sweep() {
            let of = SystemKind::Orthrus.partition_of(threads);
            let stats = run_micro(SystemKind::Orthrus, make_spec(of, placement), threads, bc);
            s.push(threads as f64, stats.throughput());
        }
        series.push(s);
    }
    for kind in [SystemKind::DeadlockFree, SystemKind::TwoPlWaitDie] {
        let mut s = Series::new(kind.label());
        for threads in bc.thread_sweep() {
            let of = kind.partition_of(threads);
            // Shared-everything systems see the same key distribution but
            // no placement constraint is meaningful for them; the paper
            // runs them on the plain YCSB mix.
            let _ = of;
            let stats = run_micro(kind, make_spec(1, None), threads, bc);
            s.push(threads as f64, stats.throughput());
        }
        series.push(s);
    }
    series
}

/// Figure 11: YCSB read-only scalability; `high_contention` selects panel
/// (b) (2 hot of 64) over panel (a) (uniform).
pub fn fig11_ycsb_readonly(bc: &BenchConfig, high_contention: bool) -> FigureResult {
    let bc = &bc.paper();
    let panel = if high_contention { "high" } else { "low" };
    let mut fig = FigureResult::new(
        "fig11",
        format!("YCSB read-only scalability ({panel} contention)"),
        "threads",
        "txns/sec",
    );
    fig.series = ycsb_figure(bc, true, high_contention);
    fig
}

/// Figure 12: YCSB 10-RMW scalability; panels as in Figure 11.
pub fn fig12_ycsb_rmw(bc: &BenchConfig, high_contention: bool) -> FigureResult {
    let bc = &bc.paper();
    let panel = if high_contention { "high" } else { "low" };
    let mut fig = FigureResult::new(
        "fig12",
        format!("YCSB 10RMW scalability ({panel} contention)"),
        "threads",
        "txns/sec",
    );
    fig.series = ycsb_figure(bc, false, high_contention);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_produces_full_sweep() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = fig01_2pl_readonly(&bc);
        assert_eq!(fig.series.len(), 1);
        assert_eq!(fig.series[0].points.len(), bc.thread_sweep().len());
        assert!(fig.series[0].points.iter().all(|&(_, y)| y > 0.0));
    }

    #[test]
    fn fig04_has_four_systems_over_hot_sweep() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = fig04_deadlock_overhead(&bc, 4);
        assert_eq!(fig.series.len(), 4);
        let n = hot_sweep(&bc).len();
        assert!(n >= 5, "test table too small for the sweep");
        for s in &fig.series {
            assert_eq!(s.points.len(), n);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn fig05_runs_scaled_grid() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = fig05_thread_allocation(&bc);
        assert!(!fig.series.is_empty());
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y > 0.0));
        }
    }

    #[test]
    fn fig11_and_12_have_five_series() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        for fig in [fig11_ycsb_readonly(&bc, false), fig12_ycsb_rmw(&bc, true)] {
            assert_eq!(fig.series.len(), 5);
            for s in &fig.series {
                assert!(
                    s.points.iter().all(|&(_, y)| y > 0.0),
                    "{} has a dead point",
                    s.label
                );
            }
        }
    }
}
