//! Experiment harness: regenerates every figure of the paper's evaluation.
//!
//! Each `figures::figNN_*` function builds the exact workload, database,
//! and system set of the corresponding figure, runs timed windows, and
//! returns a [`report::FigureResult`] whose `print()` emits the same
//! rows/series the paper plots. Scales (table size, record size, window
//! lengths, thread sweeps) come from [`config::BenchConfig`], overridable
//! via `ORTHRUS_*` environment variables — see EXPERIMENTS.md for the
//! paper-scale settings and DESIGN.md for what the defaults substitute.

pub mod ablations;
pub mod autotune;
pub mod config;
pub mod figures;
pub mod netbench;
pub mod report;
pub mod systems;

pub use autotune::{tune_cc_split, TunePoint, TuneResult};
pub use config::BenchConfig;
pub use report::{FigureResult, Series};
pub use systems::SystemKind;

/// Serializes the crate's timed-engine tests: two concurrent multi-thread
/// engine runs on a small CI host can starve one window to zero commits.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
