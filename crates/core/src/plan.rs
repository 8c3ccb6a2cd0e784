//! The lock plan: a transaction's access set grouped into per-CC spans.
//!
//! Spans are ordered by ascending CC id — the global acquisition order of
//! Section 3.2. Each CC thread processes its whole span in one atomic step
//! (it is single-threaded), which together with per-key FIFO queues makes
//! wait-for edges point strictly from later requests to earlier ones:
//! deadlock is impossible.

use std::collections::VecDeque;
use std::sync::Arc;

use orthrus_common::{Key, LockMode};
use orthrus_txn::AccessSet;

/// One contiguous run of plan entries owned by a single CC thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Owning CC thread.
    pub cc: u32,
    /// Start index into `entries`.
    pub start: u32,
    /// One past the last index.
    pub end: u32,
}

/// A shareable lock plan, immutable while anybody else holds it. Passed
/// by `Arc` through the message fabric so CC threads never touch
/// execution-thread state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LockPlan {
    entries: Vec<(Key, LockMode)>,
    spans: Vec<Span>,
}

/// The sort buffer [`LockPlan::rebuild`] works in: each entry with its
/// owning CC thread. One per planning thread, reused.
pub type PlanScratch = Vec<(u32, Key, LockMode)>;

impl LockPlan {
    /// Group a (key-sorted, deduplicated) access set by CC thread.
    pub fn build(set: &AccessSet, cc_of: impl FnMut(Key) -> u32) -> Self {
        let mut plan = LockPlan::default();
        plan.rebuild(set, &mut PlanScratch::with_capacity(set.len()), cc_of);
        plan
    }

    /// [`Self::build`] in this plan's own buffers, whatever they held.
    pub fn rebuild(
        &mut self,
        set: &AccessSet,
        scratch: &mut PlanScratch,
        mut cc_of: impl FnMut(Key) -> u32,
    ) {
        scratch.clear();
        scratch.extend(set.entries().iter().map(|&(k, m)| (cc_of(k), k, m)));
        // Ascending (cc, key): the global deadlock-avoidance order.
        scratch.sort_unstable_by_key(|&(cc, k, _)| (cc, k));

        self.entries.clear();
        self.entries.reserve(scratch.len());
        self.spans.clear();
        for (i, &(cc, k, m)) in scratch.iter().enumerate() {
            self.entries.push((k, m));
            match self.spans.last_mut() {
                Some(s) if s.cc == cc => s.end = (i + 1) as u32,
                _ => self.spans.push(Span {
                    cc,
                    start: i as u32,
                    end: (i + 1) as u32,
                }),
            }
        }
    }

    /// All entries in acquisition order.
    pub fn entries(&self) -> &[(Key, LockMode)] {
        &self.entries
    }

    /// The per-CC spans, ascending by CC id.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of CC threads involved (the paper's `Ncc`).
    pub fn n_cc_involved(&self) -> usize {
        self.spans.len()
    }

    /// The entries of span `idx`.
    pub fn span_entries(&self, idx: usize) -> &[(Key, LockMode)] {
        let s = self.spans[idx];
        &self.entries[s.start as usize..s.end as usize]
    }

    /// Whether the plan is empty (degenerate transactions).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The lock plans one execution thread has issued and is done with,
/// oldest first, so that the thread rebuilds its next plan in the
/// buffers of an old one.
///
/// A plan is lent out: clones of its `Arc` ride the acquire chain and
/// the releases to the CC threads, and the last of them is dropped
/// there. The execution thread never drops its own clone — it moves it
/// in here — so a CC thread's drop is a decrement, never a `free`, and
/// `Arc::get_mut` is the whole reclamation protocol: a strong count of
/// one means every reader is done. A plan somebody still holds is
/// skipped, never waited for; what is in here is bounded by the
/// releases still on their way to a CC thread.
#[derive(Default)]
pub(crate) struct PlanPool {
    returned: VecDeque<Arc<LockPlan>>,
}

impl PlanPool {
    /// The oldest returned plan nobody else holds any more, or a fresh
    /// one. The caller is its only owner until it clones the `Arc`.
    pub(crate) fn take(&mut self) -> Arc<LockPlan> {
        let unique = (self.returned.iter_mut()).position(|plan| Arc::get_mut(plan).is_some());
        unique
            .and_then(|i| self.returned.remove(i))
            .unwrap_or_default()
    }

    /// Hand back a plan whose releases have been sent.
    pub(crate) fn give(&mut self, plan: Arc<LockPlan>) {
        self.returned.push_back(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(Key, LockMode)]) -> AccessSet {
        AccessSet::from_unsorted(pairs.to_vec())
    }

    #[test]
    fn groups_by_cc_ascending() {
        use LockMode::*;
        // cc_of = key % 3
        let plan = LockPlan::build(
            &set(&[
                (1, Exclusive),
                (2, Shared),
                (3, Exclusive),
                (4, Shared),
                (6, Exclusive),
            ]),
            |k| (k % 3) as u32,
        );
        // cc0: {3,6}, cc1: {1,4}, cc2: {2}
        assert_eq!(plan.n_cc_involved(), 3);
        assert_eq!(plan.spans()[0].cc, 0);
        assert_eq!(plan.span_entries(0), &[(3, Exclusive), (6, Exclusive)]);
        assert_eq!(plan.span_entries(1), &[(1, Exclusive), (4, Shared)]);
        assert_eq!(plan.span_entries(2), &[(2, Shared)]);
        // Spans tile the entries exactly.
        let n: u32 = plan.spans().iter().map(|s| s.end - s.start).sum();
        assert_eq!(n as usize, plan.entries().len());
    }

    #[test]
    fn single_cc_single_span() {
        let plan = LockPlan::build(
            &set(&[(10, LockMode::Shared), (20, LockMode::Shared)]),
            |_| 5,
        );
        assert_eq!(plan.n_cc_involved(), 1);
        assert_eq!(
            plan.spans()[0],
            Span {
                cc: 5,
                start: 0,
                end: 2
            }
        );
    }

    #[test]
    fn keys_sorted_within_span() {
        let plan = LockPlan::build(
            &set(&[
                (9, LockMode::Exclusive),
                (3, LockMode::Exclusive),
                (6, LockMode::Exclusive),
            ]),
            |_| 0,
        );
        let keys: Vec<u64> = plan.span_entries(0).iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![3, 6, 9]);
    }

    /// What is still on its way to a CC thread is never handed out; what
    /// has come all the way back is, oldest first.
    #[test]
    fn a_plan_somebody_still_holds_is_skipped_not_handed_out() {
        let mut pool = PlanPool::default();
        let first = pool.take();
        let at_the_cc_thread = Arc::clone(&first);
        let first_at = Arc::as_ptr(&first);
        pool.give(first);

        let second = pool.take();
        let third = pool.take();
        let (second_at, third_at) = (Arc::as_ptr(&second), Arc::as_ptr(&third));
        assert!(first_at != second_at && first_at != third_at && second_at != third_at);
        assert_eq!(Arc::strong_count(&at_the_cc_thread), 2, "still pooled");
        pool.give(second);
        pool.give(third);

        // The last release was handled: a decrement, and the allocation
        // is the execution thread's again.
        drop(at_the_cc_thread);
        let mut back = pool.take();
        assert_eq!(Arc::as_ptr(&back), first_at);
        assert!(Arc::get_mut(&mut back).is_some(), "handed out unshared");
        assert_eq!(Arc::as_ptr(&pool.take()), second_at, "then oldest first");
    }

    #[test]
    fn empty_plan() {
        let plan = LockPlan::build(&set(&[]), |_| 0);
        assert!(plan.is_empty());
        assert_eq!(plan.n_cc_involved(), 0);
    }
}
