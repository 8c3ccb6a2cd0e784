//! The message vocabulary between execution and CC threads.
//!
//! Messages are small: a token identifying the in-flight transaction slot
//! on its execution thread, the span cursor, and an `Arc` of the immutable
//! lock plan. The `Arc` is this reproduction's equivalent of the paper's
//! "message labelled T1" — a handle to the transaction's lock request
//! list, never a shared mutable structure.

use std::sync::Arc;

use crate::plan::LockPlan;

/// Identifies an in-flight transaction: (execution thread, slot,
/// generation).
///
/// The generation disambiguates slot reuse: an execution thread frees a
/// slot (or retries after an OLLP mismatch) as soon as its `Release`
/// messages are *enqueued*, and the successor transaction's acquire can
/// reach a CC thread through the **forwarding path** — a different ring —
/// before those releases drain. The CC thread must treat the successor as
/// an ordinary conflicting transaction (it parks behind the stale holder
/// and is granted when the in-flight release arrives), not as the same
/// transaction double-acquiring. Generations make the two cases
/// distinguishable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token {
    pub exec: u16,
    pub slot: u16,
    pub gen: u32,
}

impl Token {
    #[inline]
    pub fn pack(self) -> u64 {
        (self.gen as u64) << 32 | (self.exec as u64) << 16 | self.slot as u64
    }
}

/// A request processed by a CC thread.
pub enum CcRequest {
    /// Acquire the locks of `plan.span(span_idx)` on behalf of `token`.
    /// When every lock in the span is granted: if `forward` and a later
    /// span exists, forward to the next CC thread (Section 3.3);
    /// otherwise answer the execution thread.
    Acquire {
        token: Token,
        plan: Arc<LockPlan>,
        span_idx: u16,
        forward: bool,
        /// Grant-deferral events (locks that could not be granted
        /// immediately) accumulated at *earlier* CC threads in the
        /// forwarding chain. Execution threads send `0`; each CC thread
        /// adds its span's deferrals before forwarding, so the final
        /// grant carries the transaction's whole conflict footprint — the
        /// contention signal the in-flight depth walks on.
        waiters: u32,
    },
    /// Release the locks of `plan.span(span_idx)`. "Lock release requests
    /// are satisfied immediately" — no response is sent.
    Release {
        token: Token,
        plan: Arc<LockPlan>,
        span_idx: u16,
    },
}

/// A response delivered to an execution thread.
#[derive(Debug)]
pub enum ExecResponse {
    /// All locks up to and including `span_idx` are held. With forwarding
    /// this arrives once (from the last CC in the chain); without it, once
    /// per span.
    Granted {
        slot: u16,
        span_idx: u16,
        /// Grant-deferral events this acquisition experienced: how many of
        /// its locks had to wait behind a holder or a queued waiter. With
        /// forwarding, the count spans the whole CC chain; without it,
        /// each per-span grant reports its own span's deferrals (the sum
        /// over spans is the same signal). Execution threads count them
        /// (`ThreadStats::lock_waits`) and walk their in-flight depth on
        /// them.
        waiters: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_packs_uniquely() {
        let a = Token {
            exec: 1,
            slot: 2,
            gen: 0,
        }
        .pack();
        let b = Token {
            exec: 2,
            slot: 1,
            gen: 0,
        }
        .pack();
        let c = Token {
            exec: 1,
            slot: 3,
            gen: 0,
        }
        .pack();
        let d = Token {
            exec: 1,
            slot: 2,
            gen: 1,
        }
        .pack();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d, "generations distinguish slot reuse");
        assert_eq!(
            Token {
                exec: 1,
                slot: 2,
                gen: 0
            }
            .pack(),
            a
        );
    }

    #[test]
    fn messages_are_small() {
        // One Arc + a few words: cheap to move through the rings.
        assert!(std::mem::size_of::<CcRequest>() <= 32);
        assert!(std::mem::size_of::<ExecResponse>() <= 8);
    }
}
