//! Shared infrastructure for the ORTHRUS reproduction.
//!
//! This crate holds the small, dependency-light building blocks every other
//! crate uses: typed identifiers ([`ids`]), a fast non-cryptographic hasher
//! ([`hash`]), a deterministic per-thread RNG ([`rng`]), run statistics and
//! the execution/locking/waiting phase timers behind Figure 10
//! ([`stats`]), the yield-first wait policy of every poll loop
//! ([`backoff`]), the park/unpark event wait behind it ([`doorbell`]),
//! best-effort thread pinning ([`affinity`]), and [`CachePadded`], which
//! keeps a hot atomic or latch off its neighbours' cache lines.

use std::ops::{Deref, DerefMut};

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

/// Pads and aligns a value to the length of a cache line, so two values
/// written by different threads never share one (false sharing).
///
/// 128 bytes, not 64: two lines, because x86_64's adjacent-line
/// prefetcher and some aarch64 cores move lines in pairs.
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads and aligns `value` to the length of a cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::CachePadded;

    #[test]
    fn cache_padded_is_aligned_and_derefs() {
        let mut x = CachePadded::new(7u64);
        assert_eq!(*x, 7);
        *x += 1;
        assert_eq!(*x, 8);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(std::mem::size_of::<CachePadded<u64>>(), 128);
    }
}
