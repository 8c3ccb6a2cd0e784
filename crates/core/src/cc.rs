//! The concurrency-control thread: a latch-free, single-owner lock
//! manager partition.
//!
//! "Every lock acquisition and release request for a particular object is
//! serviced by a single concurrency control thread; reads and writes of
//! an object's meta-data are restricted to one thread" (Section 3.1). The
//! state here is deliberately plain — no atomics, no latches — because
//! only the owning thread ever touches it. [`CcState`] is the pure state
//! machine (unit-testable single-threadedly); the engine drives it from
//! the message loop.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use orthrus_common::{FxHashMap, Key, LockMode};

use crate::msg::{CcRequest, ExecResponse, Token};
use crate::plan::LockPlan;

/// An outgoing message produced while handling a request.
pub enum OutMsg {
    /// Forward an acquire to the next CC thread in the chain.
    ToCc { cc: u32, req: CcRequest },
    /// Answer an execution thread.
    ToExec { exec: u16, resp: ExecResponse },
}

/// What a CC thread's message loop drives: this module's thread-local
/// partition of the lock space, or [`crate::shared::SharedCcState`]'s
/// handle onto the Section-3.4 shared latched table.
pub trait CcTable {
    /// Handle one request, appending any outgoing messages to `out`.
    fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>);

    /// Re-poll acquisitions parked on locks that *other* CC threads
    /// release (shared table only: a partition's waiters are woken by
    /// requests arriving in its own inbox). Returns how many progressed.
    fn poll_parked(&mut self, _out: &mut Vec<OutMsg>) -> usize {
        0
    }

    /// How many acquisitions [`Self::poll_parked`] is still watching.
    fn parked(&self) -> usize {
        0
    }
}

impl CcTable for CcState {
    #[inline]
    fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>) {
        CcState::handle(self, req, out);
    }
}

/// A transaction whose span is partially granted: the countdown to
/// completion.
struct Pending {
    token: Token,
    plan: Arc<LockPlan>,
    span_idx: u16,
    forward: bool,
    remaining: u32,
    /// Grant-deferral events accumulated so far (earlier spans in the
    /// chain plus this span's ungranted locks) — reported to the
    /// execution thread with the grant as the contention signal.
    waiters: u32,
}

struct Waiter {
    token: u64, // Token::pack()
    mode: LockMode,
    pending_idx: u32,
}

struct CcEntry {
    holders: Vec<(u64, LockMode)>,
    waiters: VecDeque<Waiter>,
}

/// Holders and waiters a new entry has room for: the deepest convoy one
/// key can gather from an execution thread's default sixteen in-flight
/// slots. Entries move between keys, so room found only when a convoy
/// first forms would be found by the last spare entry arbitrarily late;
/// given at birth, an entry allocates again only for a deeper convoy
/// than that.
const ENTRY_ROOM: usize = 16;

impl CcEntry {
    fn new() -> Self {
        CcEntry {
            holders: Vec::with_capacity(ENTRY_ROOM),
            waiters: VecDeque::with_capacity(ENTRY_ROOM),
        }
    }

    fn compatible(&self, mode: LockMode) -> bool {
        self.holders.iter().all(|&(_, m)| !m.conflicts_with(mode))
    }

    fn grantable(&self, mode: LockMode) -> bool {
        self.waiters.is_empty() && self.compatible(mode)
    }
}

/// The lock state owned by one CC thread.
///
/// The table holds exactly the keys somebody holds or waits for: an
/// entry leaves when its last holder releases and comes back, buffers
/// and all, from `spare` on the next acquire. Its size therefore follows
/// the number of transactions in flight, not the number of keys ever
/// locked, and it stays in cache however large the database is — with
/// entries kept forever, a uniform workload over 200 000 keys paid a
/// cache miss or two per lock operation, and the engine's throughput
/// followed the host's memory latency from one run to the next
/// (EXPERIMENTS.md, "Wait policy").
pub struct CcState {
    id: u32,
    table: FxHashMap<Key, CcEntry>,
    /// Emptied entries, most recently used last.
    spare: Vec<CcEntry>,
    pending: Vec<Option<Pending>>,
    free: Vec<u32>,
    /// Acquisitions one release step completed, emitted once the table
    /// borrow ends; empty between steps.
    done: Vec<Pending>,
}

impl CcState {
    /// Create the state for CC thread `id`, with room for `capacity` keys
    /// locked at the same time: the table's buckets, that many spare
    /// entries and a slab of that many pending acquisitions exist from
    /// the start, so that below it no request ever waits for the
    /// allocator. Beyond it everything grows.
    pub fn new(id: u32, capacity: usize) -> Self {
        let mut table = FxHashMap::default();
        table.reserve(capacity);
        CcState {
            id,
            table,
            spare: (0..capacity).map(|_| CcEntry::new()).collect(),
            pending: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            done: Vec::with_capacity(capacity),
        }
    }

    /// Number of keys held or waited for (tests).
    pub fn locked_keys(&self) -> usize {
        self.table.len()
    }

    /// This CC thread's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of partially-granted transactions parked here (tests).
    pub fn pending_count(&self) -> usize {
        self.pending.iter().filter(|p| p.is_some()).count()
    }

    /// Handle one request, appending any outgoing messages to `out`.
    pub fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>) {
        match req {
            CcRequest::Acquire {
                token,
                plan,
                span_idx,
                forward,
                waiters,
            } => self.handle_acquire(token, plan, span_idx, forward, waiters, out),
            CcRequest::Release {
                token,
                plan,
                span_idx,
            } => self.handle_release(token, &plan, span_idx, out),
        }
    }

    fn handle_acquire(
        &mut self,
        token: Token,
        plan: Arc<LockPlan>,
        span_idx: u16,
        forward: bool,
        waiters: u32,
        out: &mut Vec<OutMsg>,
    ) {
        debug_assert_eq!(plan.spans()[span_idx as usize].cc, self.id);
        // Pass 1: how many of the span's locks must wait? (Single-threaded
        // state: nothing can change between the passes.)
        let mut ungranted = 0u32;
        for &(key, mode) in plan.span_entries(span_idx as usize) {
            let grantable = self
                .table
                .get(&key)
                .map(|e| e.grantable(mode))
                .unwrap_or(true);
            if !grantable {
                ungranted += 1;
            }
        }

        let pending_idx = if ungranted > 0 {
            Some(self.alloc_pending(Pending {
                token,
                plan: Arc::clone(&plan),
                span_idx,
                forward,
                remaining: ungranted,
                waiters: waiters.saturating_add(ungranted),
            }))
        } else {
            None
        };

        // Pass 2: grant or enqueue.
        let packed = token.pack();
        for &(key, mode) in plan.span_entries(span_idx as usize) {
            let spare = &mut self.spare;
            let entry = self
                .table
                .entry(key)
                .or_insert_with(|| spare.pop().unwrap_or_else(CcEntry::new));
            debug_assert!(
                !entry.holders.iter().any(|&(t, _)| t == packed),
                "token {packed:#x} re-acquiring key {key:#x}"
            );
            if entry.grantable(mode) {
                entry.holders.push((packed, mode));
            } else {
                entry.waiters.push_back(Waiter {
                    token: packed,
                    mode,
                    pending_idx: pending_idx.unwrap(),
                });
            }
        }

        if ungranted == 0 {
            Self::complete(token, &plan, span_idx, forward, waiters, out);
        }
        // "The response may take a while; the lock acquisition request may
        // have to wait for prior conflicting requests to release locks."
    }

    fn handle_release(
        &mut self,
        token: Token,
        plan: &Arc<LockPlan>,
        span_idx: u16,
        out: &mut Vec<OutMsg>,
    ) {
        debug_assert_eq!(plan.spans()[span_idx as usize].cc, self.id);
        let packed = token.pack();
        // Completions are deferred past the table borrow; emission order
        // within one release step is not semantically meaningful.
        for &(key, _) in plan.span_entries(span_idx as usize) {
            let Entry::Occupied(mut slot) = self.table.entry(key) else {
                panic!("release of never-acquired key");
            };
            let entry = slot.get_mut();
            let before = entry.holders.len();
            entry.holders.retain(|&(t, _)| t != packed);
            debug_assert_eq!(before, entry.holders.len() + 1, "unheld release");

            // Grant the longest compatible prefix of the queue.
            while let Some(front) = entry.waiters.front() {
                if !entry.compatible(front.mode) {
                    break;
                }
                let w = entry.waiters.pop_front().unwrap();
                entry.holders.push((w.token, w.mode));
                let slot = &mut self.pending[w.pending_idx as usize];
                let finished = {
                    let p = slot.as_mut().expect("waiter points at freed pending");
                    p.remaining -= 1;
                    p.remaining == 0
                };
                if finished {
                    self.done.push(slot.take().unwrap());
                    self.free.push(w.pending_idx);
                }
            }
            if entry.holders.is_empty() {
                debug_assert!(entry.waiters.is_empty(), "free lock with a queue");
                self.spare.push(slot.remove());
            }
        }
        for p in self.done.drain(..) {
            Self::complete(p.token, &p.plan, p.span_idx, p.forward, p.waiters, out);
        }
    }

    /// Every lock of the span is held: forward down the chain or answer
    /// the execution thread (Section 3.3).
    fn complete(
        token: Token,
        plan: &Arc<LockPlan>,
        span_idx: u16,
        forward: bool,
        waiters: u32,
        out: &mut Vec<OutMsg>,
    ) {
        let next = span_idx as usize + 1;
        if forward && next < plan.spans().len() {
            out.push(OutMsg::ToCc {
                cc: plan.spans()[next].cc,
                req: CcRequest::Acquire {
                    token,
                    plan: Arc::clone(plan),
                    span_idx: next as u16,
                    forward,
                    waiters,
                },
            });
        } else {
            out.push(OutMsg::ToExec {
                exec: token.exec,
                resp: ExecResponse::Granted {
                    slot: token.slot,
                    span_idx,
                    waiters,
                },
            });
        }
    }

    fn alloc_pending(&mut self, p: Pending) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.pending[i as usize] = Some(p);
                i
            }
            None => {
                self.pending.push(Some(p));
                (self.pending.len() - 1) as u32
            }
        }
    }

    /// Holders of a key (tests/diagnostics).
    pub fn holders_of(&self, key: Key) -> Vec<u64> {
        self.table
            .get(&key)
            .map(|e| e.holders.iter().map(|&(t, _)| t).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_txn::AccessSet;

    fn plan_on_cc0(keys: &[(Key, LockMode)]) -> Arc<LockPlan> {
        Arc::new(LockPlan::build(
            &AccessSet::from_unsorted(keys.to_vec()),
            |_| 0,
        ))
    }

    fn tok(exec: u16, slot: u16) -> Token {
        Token { exec, slot, gen: 0 }
    }

    fn tok_gen(exec: u16, slot: u16, gen: u32) -> Token {
        Token { exec, slot, gen }
    }

    fn acquire(token: Token, plan: &Arc<LockPlan>, span: u16) -> CcRequest {
        CcRequest::Acquire {
            token,
            plan: Arc::clone(plan),
            span_idx: span,
            forward: true,
            waiters: 0,
        }
    }

    fn release(token: Token, plan: &Arc<LockPlan>, span: u16) -> CcRequest {
        CcRequest::Release {
            token,
            plan: Arc::clone(plan),
            span_idx: span,
        }
    }

    #[test]
    fn uncontended_acquire_responds_immediately() {
        let mut cc = CcState::new(0, 64);
        let plan = plan_on_cc0(&[(1, LockMode::Exclusive), (2, LockMode::Exclusive)]);
        let mut out = Vec::new();
        cc.handle(acquire(tok(0, 0), &plan, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                exec: 0,
                resp: ExecResponse::Granted {
                    slot: 0,
                    span_idx: 0,
                    waiters: 0,
                }
            }
        ));
        assert_eq!(cc.pending_count(), 0);
    }

    /// The table is as large as what is locked, not as what ever was: a
    /// key leaves with its last holder, stays while a waiter inherits it,
    /// and a sweep over many keys leaves nothing behind.
    #[test]
    fn the_table_holds_only_keys_somebody_holds_or_waits_for() {
        let mut cc = CcState::new(0, 64);
        let mut out = Vec::new();
        let first = plan_on_cc0(&[(1, LockMode::Exclusive), (2, LockMode::Shared)]);
        let second = plan_on_cc0(&[(2, LockMode::Exclusive)]);
        cc.handle(acquire(tok(0, 0), &first, 0), &mut out);
        cc.handle(acquire(tok(0, 1), &second, 0), &mut out);
        assert_eq!(cc.locked_keys(), 2);
        // Key 1 is free; key 2 passes to its waiter.
        cc.handle(release(tok(0, 0), &first, 0), &mut out);
        assert_eq!(cc.locked_keys(), 1);
        assert_eq!(cc.holders_of(2), vec![tok(0, 1).pack()]);
        cc.handle(release(tok(0, 1), &second, 0), &mut out);
        assert_eq!(cc.locked_keys(), 0);
        for k in 0..10_000 {
            let plan = plan_on_cc0(&[(k, LockMode::Exclusive)]);
            cc.handle(acquire(tok(0, 2), &plan, 0), &mut out);
            cc.handle(release(tok(0, 2), &plan, 0), &mut out);
        }
        assert_eq!(cc.locked_keys(), 0);
        assert_eq!(cc.pending_count(), 0);
    }

    #[test]
    fn deferred_grants_report_their_waiter_count() {
        // Two of the second transaction's three locks conflict with the
        // holder; the eventual grant must carry waiters = 2 (the
        // contention signal adaptive admission consumes).
        let mut cc = CcState::new(0, 64);
        let holder = plan_on_cc0(&[(1, LockMode::Exclusive), (2, LockMode::Exclusive)]);
        let contender = plan_on_cc0(&[
            (1, LockMode::Exclusive),
            (2, LockMode::Exclusive),
            (3, LockMode::Exclusive),
        ]);
        let mut out = Vec::new();
        cc.handle(acquire(tok(0, 0), &holder, 0), &mut out);
        out.clear();
        cc.handle(acquire(tok(0, 1), &contender, 0), &mut out);
        assert!(out.is_empty());
        cc.handle(release(tok(0, 0), &holder, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                resp: ExecResponse::Granted {
                    slot: 1,
                    waiters: 2,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn conflicting_acquire_waits_until_release() {
        let mut cc = CcState::new(0, 64);
        let plan1 = plan_on_cc0(&[(7, LockMode::Exclusive)]);
        let plan2 = plan_on_cc0(&[(7, LockMode::Exclusive), (8, LockMode::Exclusive)]);
        let mut out = Vec::new();
        cc.handle(acquire(tok(0, 0), &plan1, 0), &mut out);
        out.clear();
        cc.handle(acquire(tok(0, 1), &plan2, 0), &mut out);
        assert!(out.is_empty(), "conflicting span must park");
        assert_eq!(cc.pending_count(), 1);
        // Key 8 was granted eagerly even though 7 waits.
        assert_eq!(cc.holders_of(8), vec![tok(0, 1).pack()]);
        // Release 7 → slot 1 completes.
        cc.handle(release(tok(0, 0), &plan1, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                resp: ExecResponse::Granted { slot: 1, .. },
                ..
            }
        ));
        assert_eq!(cc.pending_count(), 0);
        assert_eq!(cc.holders_of(7), vec![tok(0, 1).pack()]);
    }

    #[test]
    fn shared_holders_coexist_and_batch_grant() {
        let mut cc = CcState::new(0, 64);
        let w = plan_on_cc0(&[(5, LockMode::Exclusive)]);
        let r1 = plan_on_cc0(&[(5, LockMode::Shared)]);
        let r2 = plan_on_cc0(&[(5, LockMode::Shared)]);
        let mut out = Vec::new();
        cc.handle(acquire(tok(0, 0), &w, 0), &mut out);
        out.clear();
        cc.handle(acquire(tok(0, 1), &r1, 0), &mut out);
        cc.handle(acquire(tok(0, 2), &r2, 0), &mut out);
        assert!(out.is_empty());
        cc.handle(release(tok(0, 0), &w, 0), &mut out);
        assert_eq!(out.len(), 2, "both shared waiters granted together");
        assert_eq!(cc.holders_of(5).len(), 2);
    }

    #[test]
    fn fifo_prevents_shared_jumping_queued_exclusive() {
        let mut cc = CcState::new(0, 64);
        let r0 = plan_on_cc0(&[(3, LockMode::Shared)]);
        let w = plan_on_cc0(&[(3, LockMode::Exclusive)]);
        let r1 = plan_on_cc0(&[(3, LockMode::Shared)]);
        let mut out = Vec::new();
        cc.handle(acquire(tok(0, 0), &r0, 0), &mut out); // shared holder
        out.clear();
        cc.handle(acquire(tok(0, 1), &w, 0), &mut out); // queued writer
        cc.handle(acquire(tok(0, 2), &r1, 0), &mut out); // must queue too
        assert!(out.is_empty());
        cc.handle(release(tok(0, 0), &r0, 0), &mut out);
        // Writer granted, reader still parked.
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                resp: ExecResponse::Granted { slot: 1, .. },
                ..
            }
        ));
        out.clear();
        cc.handle(release(tok(0, 1), &w, 0), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn forwarding_chains_to_next_cc() {
        // Plan spanning cc0 and cc1 (cc_of = key % 2).
        let plan = Arc::new(LockPlan::build(
            &AccessSet::from_unsorted(vec![
                (2, LockMode::Exclusive), // cc0
                (3, LockMode::Exclusive), // cc1
            ]),
            |k| (k % 2) as u32,
        ));
        let mut cc0 = CcState::new(0, 64);
        let mut out = Vec::new();
        cc0.handle(
            CcRequest::Acquire {
                token: tok(1, 4),
                plan: Arc::clone(&plan),
                span_idx: 0,
                forward: true,
                waiters: 0,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        match &out[0] {
            OutMsg::ToCc {
                cc,
                req: CcRequest::Acquire { span_idx, .. },
            } => {
                assert_eq!(*cc, 1);
                assert_eq!(*span_idx, 1);
            }
            _ => panic!("expected forward to cc1"),
        }
        // cc1 completes the chain with a single response to the exec.
        let mut cc1 = CcState::new(1, 64);
        let fwd = out.pop().unwrap();
        let OutMsg::ToCc { req, .. } = fwd else {
            unreachable!()
        };
        cc1.handle(req, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                exec: 1,
                resp: ExecResponse::Granted {
                    slot: 4,
                    span_idx: 1,
                    waiters: 0,
                }
            }
        ));
    }

    #[test]
    fn no_forwarding_answers_exec_per_span() {
        let plan = Arc::new(LockPlan::build(
            &AccessSet::from_unsorted(vec![(2, LockMode::Exclusive), (3, LockMode::Exclusive)]),
            |k| (k % 2) as u32,
        ));
        let mut cc0 = CcState::new(0, 64);
        let mut out = Vec::new();
        cc0.handle(
            CcRequest::Acquire {
                token: tok(0, 0),
                plan,
                span_idx: 0,
                forward: false,
                waiters: 0,
            },
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                resp: ExecResponse::Granted { span_idx: 0, .. },
                ..
            }
        ));
    }

    #[test]
    fn slot_reuse_parks_behind_stale_holder() {
        // Regression test for the forwarding/slot-reuse race: exec 0
        // committed transaction (slot 3, gen 0) and enqueued its release,
        // then reused slot 3 for a new transaction whose *forwarded*
        // acquire arrives at this CC thread before the release does. The
        // new generation must be treated as an ordinary conflicting
        // transaction, parked, and granted once the release drains.
        let mut cc = CcState::new(0, 64);
        let plan = plan_on_cc0(&[(9, LockMode::Exclusive)]);
        let mut out = Vec::new();
        cc.handle(acquire(tok_gen(0, 3, 0), &plan, 0), &mut out);
        out.clear();

        // The successor (same exec, same slot, new gen) arrives early.
        cc.handle(acquire(tok_gen(0, 3, 1), &plan, 0), &mut out);
        assert!(out.is_empty(), "successor must park, not self-grant");
        assert_eq!(cc.pending_count(), 1);

        // The in-flight release of gen 0 lands; gen 1 is granted.
        cc.handle(release(tok_gen(0, 3, 0), &plan, 0), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                resp: ExecResponse::Granted { slot: 3, .. },
                ..
            }
        ));
        assert_eq!(cc.holders_of(9), vec![tok_gen(0, 3, 1).pack()]);
    }

    #[test]
    fn pending_slab_reuses_slots() {
        let mut cc = CcState::new(0, 64);
        let holder = plan_on_cc0(&[(1, LockMode::Exclusive)]);
        let waiter_plan = plan_on_cc0(&[(1, LockMode::Exclusive)]);
        let mut out = Vec::new();
        for round in 0..10 {
            cc.handle(acquire(tok(0, 0), &holder, 0), &mut out);
            cc.handle(acquire(tok(0, 1), &waiter_plan, 0), &mut out);
            cc.handle(release(tok(0, 0), &holder, 0), &mut out);
            cc.handle(release(tok(0, 1), &waiter_plan, 0), &mut out);
            assert_eq!(cc.pending_count(), 0, "round {round}");
        }
        assert!(cc.pending.len() <= 2, "slab must not grow unboundedly");
    }
}
