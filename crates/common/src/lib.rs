//! Shared infrastructure for the ORTHRUS reproduction.
//!
//! This crate holds the small, dependency-light building blocks every other
//! crate uses: typed identifiers ([`ids`]), a fast non-cryptographic hasher
//! ([`hash`]), a deterministic per-thread RNG ([`rng`]), run statistics and
//! the execution/locking/waiting phase timers behind Figure 10
//! ([`stats`]), the yield-first wait policy of every poll loop
//! ([`backoff`]), the park/unpark event wait behind it ([`doorbell`]), and
//! best-effort thread pinning ([`affinity`]).

pub mod affinity;
pub mod backoff;
pub mod doorbell;
pub mod failpoint;
pub mod hash;
pub mod ids;
pub mod latency;
pub mod rng;
pub mod runtime;
pub mod sim;
pub mod stats;
pub mod tempdir;

pub use backoff::Backoff;
pub use doorbell::Doorbell;
pub use failpoint::{FailAction, FailpointRegistry};
pub use hash::{fx_hash_u64, FxBuildHasher, FxHashMap, FxHashSet};
pub use ids::{CcId, ExecId, Key, LockMode, PartitionId, ThreadId, TxnId};
pub use latency::LatencyHistogram;
pub use rng::XorShift64;
pub use runtime::{timed_run, RunCtl, RunParams};
pub use stats::{CcUtil, HubBreakdown, Phase, PhaseBreakdown, PhaseTimer, RunStats, ThreadStats};
pub use tempdir::TempDir;
