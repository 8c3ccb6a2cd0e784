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
//!
//! This is the engine's only CC architecture: every key has exactly one
//! owning CC thread ([`crate::OrthrusConfig::cc_of`]), and a waiter is
//! woken by a release arriving in that thread's own inbox, so an idle CC
//! thread always parks on its doorbell. Section 3.4's alternative, one
//! latched table shared by every CC thread, was measured slower at every
//! hot-set size and removed (DESIGN.md, "One CC architecture").

use std::collections::hash_map::Entry;
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

/// The end of a list in [`Nodes`].
const NIL: u32 = u32::MAX;

/// One holder or waiter of a key: a link in that key's list.
#[derive(Clone, Copy)]
struct Node {
    token: u64, // Token::pack()
    mode: LockMode,
    /// A waiter's partially granted acquisition, as an index into
    /// [`CcState::pending`]; [`NIL`] for a lock granted on arrival.
    pending_idx: u32,
    next: u32,
}

/// A FIFO list of [`Node`]s, linked by index.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(self) -> bool {
        self.head == NIL
    }
}

/// A key's lock: who holds it, and who waits for it in arrival order.
#[derive(Clone, Copy)]
struct CcEntry {
    holders: List,
    waiters: List,
}

impl CcEntry {
    const FREE: CcEntry = CcEntry {
        holders: List::EMPTY,
        waiters: List::EMPTY,
    };
}

/// Every holder and waiter of one CC thread's keys, in one slab. A freed
/// node is the next one handed out, so the slab grows only when more
/// locks are held or awaited at once than ever before — a convoy of any
/// depth, on any key, allocates nothing once one as deep has been seen.
struct Nodes {
    slab: Vec<Node>,
    /// Head of the freed nodes, linked through `next`.
    free: u32,
}

impl Nodes {
    fn with_capacity(capacity: usize) -> Self {
        Nodes {
            slab: Vec::with_capacity(capacity),
            free: NIL,
        }
    }

    /// The nodes of `list`, front first.
    fn iter(&self, list: List) -> impl Iterator<Item = &Node> {
        let at = |i: u32| self.slab.get(i as usize);
        std::iter::successors(at(list.head), move |n| at(n.next))
    }

    fn compatible(&self, holders: List, mode: LockMode) -> bool {
        self.iter(holders).all(|h| !h.mode.conflicts_with(mode))
    }

    fn grantable(&self, entry: CcEntry, mode: LockMode) -> bool {
        entry.waiters.is_empty() && self.compatible(entry.holders, mode)
    }

    /// Append node `i` to `list`.
    fn link(&mut self, list: &mut List, i: u32) {
        match self.slab.get_mut(list.tail as usize) {
            Some(tail) => tail.next = i,
            None => list.head = i,
        }
        list.tail = i;
    }

    fn push_back(&mut self, list: &mut List, token: u64, mode: LockMode, pending_idx: u32) {
        let node = Node {
            token,
            mode,
            pending_idx,
            next: NIL,
        };
        let i = match self.slab.get_mut(self.free as usize) {
            Some(freed) => {
                let i = self.free;
                self.free = freed.next;
                *freed = node;
                i
            }
            None => {
                self.slab.push(node);
                (self.slab.len() - 1) as u32
            }
        };
        self.link(list, i);
    }

    /// Unlink `token`'s node from `list` and free it. Returns whether
    /// `list` held one.
    fn remove(&mut self, list: &mut List, token: u64) -> bool {
        let (mut prev, mut i) = (NIL, list.head);
        while let Some(&node) = self.slab.get(i as usize) {
            if node.token == token {
                match self.slab.get_mut(prev as usize) {
                    Some(p) => p.next = node.next,
                    None => list.head = node.next,
                }
                if list.tail == i {
                    list.tail = prev;
                }
                self.slab[i as usize].next = self.free;
                self.free = i;
                return true;
            }
            (prev, i) = (i, node.next);
        }
        false
    }

    /// Move the first waiter of `entry` to its holders if it is
    /// compatible with them, and return it.
    fn grant_front(&mut self, entry: &mut CcEntry) -> Option<Node> {
        let i = entry.waiters.head;
        let node = *self.slab.get(i as usize)?;
        if !self.compatible(entry.holders, node.mode) {
            return None;
        }
        entry.waiters.head = node.next;
        if node.next == NIL {
            entry.waiters.tail = NIL;
        }
        self.slab[i as usize].next = NIL;
        self.link(&mut entry.holders, i);
        Some(node)
    }
}

/// The lock state owned by one CC thread.
///
/// The table holds exactly the keys somebody holds or waits for: an
/// entry — two list heads into the node slab, no buffer of its own —
/// leaves when its last holder releases. Its size therefore follows
/// the number of transactions in flight, not the number of keys ever
/// locked, and it stays in cache however large the database is — with
/// entries kept forever, a uniform workload over 200 000 keys paid a
/// cache miss or two per lock operation, and the engine's throughput
/// followed the host's memory latency from one run to the next
/// (EXPERIMENTS.md, "Wait policy").
pub struct CcState {
    id: u32,
    table: FxHashMap<Key, CcEntry>,
    /// The holders and waiters of every key in `table`.
    nodes: Nodes,
    pending: Vec<Option<Pending>>,
    free: Vec<u32>,
    /// Acquisitions one release step completed, emitted once the table
    /// borrow ends; empty between steps.
    done: Vec<Pending>,
}

impl CcState {
    /// Create the state for CC thread `id`, with room for `capacity` keys
    /// locked at the same time: the table's buckets, that many holder and
    /// waiter nodes and a slab of that many pending acquisitions exist
    /// from the start, so that below it no request ever waits for the
    /// allocator. Beyond it everything grows.
    pub fn new(id: u32, capacity: usize) -> Self {
        let mut table = FxHashMap::default();
        table.reserve(capacity);
        CcState {
            id,
            table,
            nodes: Nodes::with_capacity(capacity),
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
                .is_none_or(|&e| self.nodes.grantable(e, mode));
            if !grantable {
                ungranted += 1;
            }
        }

        let pending_idx = if ungranted > 0 {
            self.alloc_pending(Pending {
                token,
                plan: Arc::clone(&plan),
                span_idx,
                forward,
                remaining: ungranted,
                waiters: waiters.saturating_add(ungranted),
            })
        } else {
            NIL
        };

        // Pass 2: grant or enqueue.
        let packed = token.pack();
        let nodes = &mut self.nodes;
        for &(key, mode) in plan.span_entries(span_idx as usize) {
            let entry = self.table.entry(key).or_insert(CcEntry::FREE);
            debug_assert!(
                !nodes.iter(entry.holders).any(|h| h.token == packed),
                "token {packed:#x} re-acquiring key {key:#x}"
            );
            if nodes.grantable(*entry, mode) {
                nodes.push_back(&mut entry.holders, packed, mode, NIL);
            } else {
                nodes.push_back(&mut entry.waiters, packed, mode, pending_idx);
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
            let held = self.nodes.remove(&mut entry.holders, packed);
            debug_assert!(held, "unheld release");

            // Grant the longest compatible prefix of the queue.
            while let Some(w) = self.nodes.grant_front(entry) {
                let pending = &mut self.pending[w.pending_idx as usize];
                debug_assert!(pending.is_some(), "waiter points at freed pending");
                let finished = pending.take_if(|p| {
                    p.remaining -= 1;
                    p.remaining == 0
                });
                if let Some(p) = finished {
                    self.done.push(p);
                    self.free.push(w.pending_idx);
                }
            }
            if entry.holders.is_empty() {
                debug_assert!(entry.waiters.is_empty(), "free lock with a queue");
                slot.remove();
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
            .map(|e| self.nodes.iter(e.holders).map(|h| h.token).collect())
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
        // contention signal the in-flight depth walks on).
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

/// The node slab grants exactly what the state it replaced granted: per
/// key, a `Vec` of holders and a `VecDeque` of waiters. That reference is
/// kept here verbatim, and the two are driven side by side through
/// arbitrary engines' worth of traffic — a few keys, both lock modes,
/// plans over up to three CC threads, forwarding on and off, slots reused
/// under new generations while their releases are still in flight.
#[cfg(test)]
mod slab_matches_queues {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use orthrus_txn::AccessSet;

    struct Waiter {
        token: u64,
        mode: LockMode,
        pending_idx: u32,
    }

    #[derive(Default)]
    struct QueueEntry {
        holders: Vec<(u64, LockMode)>,
        waiters: VecDeque<Waiter>,
    }

    impl QueueEntry {
        fn compatible(&self, mode: LockMode) -> bool {
            self.holders.iter().all(|&(_, m)| !m.conflicts_with(mode))
        }

        fn grantable(&self, mode: LockMode) -> bool {
            self.waiters.is_empty() && self.compatible(mode)
        }
    }

    /// The CC state with a `Vec` + `VecDeque` per key.
    #[derive(Default)]
    struct Queues {
        table: FxHashMap<Key, QueueEntry>,
        pending: Vec<Option<Pending>>,
        free: Vec<u32>,
        done: Vec<Pending>,
    }

    impl Queues {
        fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>) {
            match req {
                CcRequest::Acquire {
                    token,
                    plan,
                    span_idx,
                    forward,
                    waiters,
                } => self.acquire(token, plan, span_idx, forward, waiters, out),
                CcRequest::Release {
                    token,
                    plan,
                    span_idx,
                } => self.release(token, &plan, span_idx, out),
            }
        }

        fn acquire(
            &mut self,
            token: Token,
            plan: Arc<LockPlan>,
            span_idx: u16,
            forward: bool,
            waiters: u32,
            out: &mut Vec<OutMsg>,
        ) {
            let mut ungranted = 0u32;
            for &(key, mode) in plan.span_entries(span_idx as usize) {
                if !self.table.get(&key).is_none_or(|e| e.grantable(mode)) {
                    ungranted += 1;
                }
            }
            let pending_idx = (ungranted > 0).then(|| {
                let p = Pending {
                    token,
                    plan: Arc::clone(&plan),
                    span_idx,
                    forward,
                    remaining: ungranted,
                    waiters: waiters.saturating_add(ungranted),
                };
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
            });
            let packed = token.pack();
            for &(key, mode) in plan.span_entries(span_idx as usize) {
                let entry = self.table.entry(key).or_default();
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
                CcState::complete(token, &plan, span_idx, forward, waiters, out);
            }
        }

        fn release(
            &mut self,
            token: Token,
            plan: &Arc<LockPlan>,
            span_idx: u16,
            out: &mut Vec<OutMsg>,
        ) {
            let packed = token.pack();
            for &(key, _) in plan.span_entries(span_idx as usize) {
                let Entry::Occupied(mut slot) = self.table.entry(key) else {
                    panic!("release of never-acquired key");
                };
                let entry = slot.get_mut();
                entry.holders.retain(|&(t, _)| t != packed);
                while let Some(front) = entry.waiters.front() {
                    if !entry.compatible(front.mode) {
                        break;
                    }
                    let w = entry.waiters.pop_front().unwrap();
                    entry.holders.push((w.token, w.mode));
                    let slot = &mut self.pending[w.pending_idx as usize];
                    let p = slot.as_mut().unwrap();
                    p.remaining -= 1;
                    if p.remaining == 0 {
                        self.done.push(slot.take().unwrap());
                        self.free.push(w.pending_idx);
                    }
                }
                if entry.holders.is_empty() {
                    slot.remove();
                }
            }
            for p in self.done.drain(..) {
                CcState::complete(p.token, &p.plan, p.span_idx, p.forward, p.waiters, out);
            }
        }
    }

    /// An outgoing message, comparably: the plan by identity.
    #[derive(Debug, PartialEq, Eq)]
    enum Sent {
        ToCc(u32, u64, usize, u16, bool, u32),
        ToExec(u16, u16, u16, u32),
    }

    fn sent(out: &[OutMsg]) -> Vec<Sent> {
        out.iter()
            .map(|m| match m {
                OutMsg::ToCc {
                    cc,
                    req:
                        CcRequest::Acquire {
                            token,
                            plan,
                            span_idx,
                            forward,
                            waiters,
                        },
                } => Sent::ToCc(
                    *cc,
                    token.pack(),
                    Arc::as_ptr(plan) as usize,
                    *span_idx,
                    *forward,
                    *waiters,
                ),
                OutMsg::ToCc { .. } => panic!("a CC thread forwards acquires only"),
                OutMsg::ToExec {
                    exec,
                    resp:
                        ExecResponse::Granted {
                            slot,
                            span_idx,
                            waiters,
                        },
                } => Sent::ToExec(*exec, *slot, *span_idx, *waiters),
            })
            .collect()
    }

    fn dup(req: &CcRequest) -> CcRequest {
        match req {
            CcRequest::Acquire {
                token,
                plan,
                span_idx,
                forward,
                waiters,
            } => CcRequest::Acquire {
                token: *token,
                plan: Arc::clone(plan),
                span_idx: *span_idx,
                forward: *forward,
                waiters: *waiters,
            },
            CcRequest::Release {
                token,
                plan,
                span_idx,
            } => CcRequest::Release {
                token: *token,
                plan: Arc::clone(plan),
                span_idx: *span_idx,
            },
        }
    }

    const EXECS: u16 = 2;
    const SLOTS: u16 = 2;

    /// A transaction on an execution thread's slot.
    struct Txn {
        token: Token,
        plan: Arc<LockPlan>,
        forward: bool,
    }

    /// Execution threads and the rings between everyone, around one
    /// `CcState` and one `Queues` per CC thread.
    struct Engine {
        n_cc: u32,
        slab: Vec<CcState>,
        queues: Vec<Queues>,
        /// `lanes[src][dst]`: the FIFO ring from `src` — execution
        /// threads first, then CC threads — into CC thread `dst`.
        lanes: Vec<Vec<VecDeque<CcRequest>>>,
        /// `slots[exec][slot]`: the transaction on it, if any.
        slots: Vec<Vec<Option<Txn>>>,
        /// Fully granted transactions, waiting to release.
        granted: Vec<(u16, u16)>,
        next_gen: u32,
    }

    impl Engine {
        fn new(n_cc: u32, capacity: usize) -> Self {
            let sources = EXECS as usize + n_cc as usize;
            Engine {
                n_cc,
                slab: (0..n_cc).map(|cc| CcState::new(cc, capacity)).collect(),
                queues: (0..n_cc).map(|_| Queues::default()).collect(),
                lanes: (0..sources)
                    .map(|_| (0..n_cc).map(|_| VecDeque::new()).collect())
                    .collect(),
                slots: (0..EXECS)
                    .map(|_| (0..SLOTS).map(|_| None).collect())
                    .collect(),
                granted: Vec::new(),
                next_gen: 0,
            }
        }

        fn exec_send(&mut self, exec: u16, req: CcRequest) {
            let (CcRequest::Acquire { plan, span_idx, .. }
            | CcRequest::Release { plan, span_idx, .. }) = &req;
            let cc = plan.spans()[*span_idx as usize].cc;
            self.lanes[exec as usize][cc as usize].push_back(req);
        }

        /// Start `plan` on the `pick`th free slot, if there is one.
        fn start(&mut self, pick: usize, plan: &Arc<LockPlan>, forward: bool) {
            let free: Vec<(u16, u16)> = (0..EXECS)
                .flat_map(|e| (0..SLOTS).map(move |s| (e, s)))
                .filter(|&(e, s)| self.slots[e as usize][s as usize].is_none())
                .collect();
            let Some(&(exec, slot)) = free.get(pick % free.len().max(1)) else {
                return;
            };
            let token = Token {
                exec,
                slot,
                gen: self.next_gen,
            };
            self.next_gen += 1;
            self.slots[exec as usize][slot as usize] = Some(Txn {
                token,
                plan: Arc::clone(plan),
                forward,
            });
            self.exec_send(
                exec,
                CcRequest::Acquire {
                    token,
                    plan: Arc::clone(plan),
                    span_idx: 0,
                    forward,
                    waiters: 0,
                },
            );
        }

        /// Release the `pick`th granted transaction, freeing its slot at
        /// once: its releases are still on their way.
        fn release(&mut self, pick: usize) {
            if self.granted.is_empty() {
                return;
            }
            let (exec, slot) = self.granted.swap_remove(pick % self.granted.len());
            let Some(txn) = self.slots[exec as usize][slot as usize].take() else {
                unreachable!("granted transactions hold their slot")
            };
            for span_idx in 0..txn.plan.spans().len() as u16 {
                self.exec_send(
                    exec,
                    CcRequest::Release {
                        token: txn.token,
                        plan: Arc::clone(&txn.plan),
                        span_idx,
                    },
                );
            }
        }

        /// Deliver the head of the `pick`th non-empty lane to both
        /// states, check they answered alike, and route the answer.
        fn deliver(&mut self, pick: usize) -> Result<bool, TestCaseError> {
            let full: Vec<(usize, usize)> = (0..self.lanes.len())
                .flat_map(|src| (0..self.n_cc as usize).map(move |dst| (src, dst)))
                .filter(|&(src, dst)| !self.lanes[src][dst].is_empty())
                .collect();
            let Some(&(src, dst)) = full.get(pick % full.len().max(1)) else {
                return Ok(false);
            };
            let Some(req) = self.lanes[src][dst].pop_front() else {
                unreachable!("the lane is not empty")
            };
            let (mut by_slab, mut by_queues) = (Vec::new(), Vec::new());
            self.queues[dst].handle(dup(&req), &mut by_queues);
            self.slab[dst].handle(req, &mut by_slab);
            prop_assert_eq!(sent(&by_slab), sent(&by_queues));
            prop_assert_eq!(self.slab[dst].locked_keys(), self.queues[dst].table.len());
            let parked = self.queues[dst].pending.iter().flatten().count();
            prop_assert_eq!(self.slab[dst].pending_count(), parked);
            for msg in by_slab {
                match msg {
                    OutMsg::ToCc { cc, req } => {
                        self.lanes[EXECS as usize + dst][cc as usize].push_back(req)
                    }
                    OutMsg::ToExec { exec, resp } => self.on_grant(exec, resp),
                }
            }
            Ok(true)
        }

        /// An execution thread's grant: without forwarding it asks for
        /// the next span itself; on the last span the transaction holds
        /// every lock.
        fn on_grant(&mut self, exec: u16, resp: ExecResponse) {
            let ExecResponse::Granted { slot, span_idx, .. } = resp;
            let Some(txn) = &self.slots[exec as usize][slot as usize] else {
                unreachable!("a grant for a free slot")
            };
            let next = span_idx + 1;
            if (next as usize) < txn.plan.spans().len() {
                assert!(!txn.forward, "forwarding answers on the last span only");
                let req = CcRequest::Acquire {
                    token: txn.token,
                    plan: Arc::clone(&txn.plan),
                    span_idx: next,
                    forward: false,
                    waiters: 0,
                };
                self.exec_send(exec, req);
            } else {
                self.granted.push((exec, slot));
            }
        }
    }

    fn mode() -> impl Strategy<Value = LockMode> {
        prop_oneof![Just(LockMode::Shared), Just(LockMode::Exclusive)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_slab_grants_what_the_queues_granted(
            txns in prop::collection::vec(
                (prop::collection::vec((0u64..6, mode()), 1..5), any::<bool>()),
                1..40,
            ),
            steps in prop::collection::vec((0u8..3, any::<u8>()), 0..200),
            n_cc in 1u32..4,
            capacity in 0usize..4,
        ) {
            let plans: Vec<(Arc<LockPlan>, bool)> = txns
                .iter()
                .map(|(keys, forward)| {
                    let set = AccessSet::from_unsorted(keys.clone());
                    (Arc::new(LockPlan::build(&set, |k| (k % n_cc as u64) as u32)), *forward)
                })
                .collect();
            let mut engine = Engine::new(n_cc, capacity);
            let mut next = 0;
            for &(action, pick) in &steps {
                match action {
                    0 => {
                        let (plan, forward) = &plans[next % plans.len()];
                        next += 1;
                        engine.start(pick as usize, plan, *forward);
                    }
                    1 => {
                        engine.deliver(pick as usize)?;
                    }
                    _ => engine.release(pick as usize),
                }
            }
            // Drain: deliver everything, release whatever that granted,
            // until nothing moves.
            loop {
                if engine.deliver(0)? {
                    continue;
                }
                if engine.granted.is_empty() {
                    break;
                }
                engine.release(0);
            }
            for cc in 0..n_cc as usize {
                prop_assert_eq!(engine.slab[cc].locked_keys(), 0);
                prop_assert_eq!(engine.slab[cc].pending_count(), 0);
            }
            prop_assert!(engine.slots.iter().flatten().all(Option::is_none));
        }
    }
}
