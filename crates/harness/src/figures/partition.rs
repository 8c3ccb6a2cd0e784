//! Multi-partition transaction figures: 6 and 7 (Section 4.3).

use orthrus_workload::{MicroSpec, PartitionConstraint};

use crate::config::BenchConfig;
use crate::report::{FigureResult, Series};
use crate::systems::{run_micro, SystemKind};

const SYSTEMS: [SystemKind; 5] = [
    SystemKind::PartitionedStore,
    SystemKind::SplitOrthrus,
    SystemKind::SplitDeadlockFree,
    SystemKind::Orthrus,
    SystemKind::DeadlockFree,
];

/// Figure 6: throughput as each transaction accesses 1–10 partitions.
/// "Partitions" means physical partitions for Partitioned-store and CC
/// threads for ORTHRUS, aligned per system by
/// [`SystemKind::partition_of`].
pub fn fig06_multipartition_count(bc: &BenchConfig) -> FigureResult {
    let bc = &bc.paper();
    let threads = bc.clamp_threads(80);
    // Every chosen span must be realizable on every system's partition
    // count (the CC count is the binding one on capped hosts).
    let max_span = SYSTEMS
        .iter()
        .map(|s| s.partition_of(threads))
        .min()
        .unwrap();
    let counts: Vec<u32> = [1u32, 2, 4, 6, 8, 10]
        .into_iter()
        .filter(|&c| c <= max_span && c <= 10)
        .collect();

    let mut fig = FigureResult::new(
        "fig06",
        format!("Throughput vs partitions accessed per transaction ({threads} threads)"),
        "partitions/txn",
        "txns/sec",
    );
    for kind in SYSTEMS {
        let mut s = Series::new(kind.label());
        for &count in &counts {
            let of = kind.partition_of(threads);
            let spec = MicroSpec::uniform(bc.n_records as u64, 10, false)
                .with_constraint(PartitionConstraint::Exact { count, of });
            let stats = run_micro(kind, spec, threads, bc);
            s.push(count as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// Figure 7: throughput as the share of multi-partition (2-partition)
/// transactions grows from 0% to 100%.
pub fn fig07_multipartition_fraction(bc: &BenchConfig) -> FigureResult {
    let bc = &bc.paper();
    let threads = bc.clamp_threads(80);
    let mut fig = FigureResult::new(
        "fig07",
        format!("Throughput vs % multi-partition transactions ({threads} threads)"),
        "multi_partition_%",
        "txns/sec",
    );
    for kind in SYSTEMS {
        let mut s = Series::new(kind.label());
        for pct in [0u32, 20, 40, 60, 80, 100] {
            let of = kind.partition_of(threads);
            let spec = MicroSpec::uniform(bc.n_records as u64, 10, false)
                .with_constraint(PartitionConstraint::MultiFraction { pct, of });
            let stats = run_micro(kind, spec, threads, bc);
            s.push(pct as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig06_runs_all_five_systems() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = fig06_multipartition_count(&bc);
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert!(!s.points.is_empty(), "{} empty", s.label);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn fig07_covers_percentages() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = fig07_multipartition_fraction(&bc);
        assert_eq!(fig.series.len(), 5);
        for s in &fig.series {
            assert_eq!(s.points.len(), 6);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }
}
