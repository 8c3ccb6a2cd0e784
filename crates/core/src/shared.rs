//! The Section-3.4 alternative architecture: CC threads sharing one
//! latched lock table.
//!
//! "A plausible alternative implementation would be to share a single lock
//! table across all concurrency control threads. A single concurrency
//! control thread could then obtain all the logical locks needed by a
//! particular transaction. Execution threads could request any one of
//! several concurrency control threads to acquire locks on its behalf.
//! Although such an implementation would be subject to synchronization and
//! data movement overhead, this synchronization is only across the
//! concurrency control threads — a much smaller number of threads than the
//! total threads in the system."
//!
//! Mechanically: the execution thread picks a CC thread round-robin and
//! sends it the *whole* plan (one span). The CC thread acquires the locks
//! from the shared `orthrus-lockmgr` table in ascending key order
//! (deadlock-free), but never blocks its pump: a conflicting request is
//! parked and re-polled, because the *releasing* CC thread's table
//! promotion flips the parked waiter's flag across threads.

use std::sync::Arc;

use orthrus_common::{LockMode, TxnId};
use orthrus_lockmgr::{AcquireOutcome, LockTable, LockWaiter, WaitState};

use crate::cc::OutMsg;
use crate::msg::{CcRequest, ExecResponse, Token};
use crate::plan::LockPlan;

/// A transaction mid-acquisition on this CC thread.
struct PendingShared {
    token: Token,
    plan: Arc<LockPlan>,
    /// Next entry index to acquire.
    next: usize,
    /// Armed while waiting for `plan.entries()[next]`.
    waiter: Arc<LockWaiter>,
    /// Grant-deferral events so far: each lock that had to queue counts
    /// once — the same contention signal the partitioned CC path reports.
    deferrals: u32,
}

/// Per-CC-thread driver over the shared table.
pub struct SharedCcState {
    table: Arc<LockTable>,
    pending: Vec<PendingShared>,
    waiter_pool: Vec<Arc<LockWaiter>>,
}

/// A token-derived transaction id for the shared table (unique across
/// in-flight transactions; the table needs ids only for holder matching).
#[inline]
fn txn_of(token: Token) -> TxnId {
    TxnId(token.pack())
}

impl SharedCcState {
    /// Create a driver over `table`.
    pub fn new(table: Arc<LockTable>) -> Self {
        SharedCcState {
            table,
            pending: Vec::new(),
            waiter_pool: Vec::new(),
        }
    }

    /// Transactions parked mid-acquisition (diagnostics/tests).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn take_waiter(&mut self) -> Arc<LockWaiter> {
        self.waiter_pool
            .pop()
            .unwrap_or_else(|| Arc::new(LockWaiter::new()))
    }

    /// Drive one request.
    pub fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>) {
        match req {
            CcRequest::Acquire {
                token,
                plan,
                span_idx,
                ..
            } => {
                debug_assert_eq!(span_idx, 0, "shared mode sends whole-plan requests");
                let waiter = self.take_waiter();
                let mut p = PendingShared {
                    token,
                    plan,
                    next: 0,
                    waiter,
                    deferrals: 0,
                };
                if self.advance(&mut p, out) {
                    self.waiter_pool.push(p.waiter);
                } else {
                    self.pending.push(p);
                }
            }
            CcRequest::Release { token, plan, .. } => {
                let txn = txn_of(token);
                for &(key, _) in plan.entries() {
                    self.table.release(key, txn);
                }
            }
        }
    }

    /// Poll parked transactions; call once per pump iteration. Returns how
    /// many made progress.
    pub fn poll_pending(&mut self, out: &mut Vec<OutMsg>) -> usize {
        let mut progressed = 0;
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].waiter.state() {
                WaitState::Granted => {
                    self.pending[i].waiter.disarm();
                    self.pending[i].next += 1;
                    let mut p = self.pending.swap_remove(i);
                    progressed += 1;
                    if self.advance(&mut p, out) {
                        self.waiter_pool.push(p.waiter);
                    } else {
                        self.pending.push(p);
                        // The re-pushed entry lands at the end; do not
                        // advance `i`, the swapped-in element sits there.
                    }
                }
                WaitState::Waiting => i += 1,
                other => unreachable!("shared-mode waiter in state {other:?}"),
            }
        }
        progressed
    }

    /// Acquire entries from `next` onward until done (respond, return
    /// `true`) or a conflict parks the transaction (return `false`).
    fn advance(&mut self, p: &mut PendingShared, out: &mut Vec<OutMsg>) -> bool {
        let txn = txn_of(p.token);
        while p.next < p.plan.entries().len() {
            let (key, mode): (u64, LockMode) = p.plan.entries()[p.next];
            match self.table.acquire(key, txn, mode, &p.waiter, |_| true) {
                AcquireOutcome::Granted => p.next += 1,
                AcquireOutcome::Queued(_) => {
                    p.deferrals = p.deferrals.saturating_add(1);
                    return false;
                }
                AcquireOutcome::Denied => unreachable!("always-wait policy"),
            }
        }
        out.push(OutMsg::ToExec {
            exec: p.token.exec,
            resp: ExecResponse::Granted {
                slot: p.token.slot,
                span_idx: 0,
                waiters: p.deferrals,
            },
        });
        true
    }
}

impl crate::cc::CcTable for SharedCcState {
    fn handle(&mut self, req: CcRequest, out: &mut Vec<OutMsg>) {
        SharedCcState::handle(self, req, out);
    }

    fn poll_parked(&mut self, out: &mut Vec<OutMsg>) -> usize {
        self.poll_pending(out)
    }

    fn parked(&self) -> usize {
        self.pending_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_txn::AccessSet;

    fn plan(keys: &[(u64, LockMode)]) -> Arc<LockPlan> {
        // Shared mode: every key maps to the handling CC (constant 0).
        Arc::new(LockPlan::build(
            &AccessSet::from_unsorted(keys.to_vec()),
            |_| 0,
        ))
    }

    fn tok(exec: u16, slot: u16) -> Token {
        Token { exec, slot, gen: 0 }
    }

    fn acquire(token: Token, p: &Arc<LockPlan>) -> CcRequest {
        CcRequest::Acquire {
            token,
            plan: Arc::clone(p),
            span_idx: 0,
            forward: false,
            waiters: 0,
        }
    }

    fn release(token: Token, p: &Arc<LockPlan>) -> CcRequest {
        CcRequest::Release {
            token,
            plan: Arc::clone(p),
            span_idx: 0,
        }
    }

    #[test]
    fn uncontended_whole_plan_grants_immediately() {
        let table = Arc::new(LockTable::new(64));
        let mut cc = SharedCcState::new(Arc::clone(&table));
        let mut out = Vec::new();
        let p = plan(&[(1, LockMode::Exclusive), (2, LockMode::Shared)]);
        cc.handle(acquire(tok(0, 0), &p), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                resp: ExecResponse::Granted { slot: 0, .. },
                ..
            }
        ));
        assert_eq!(cc.pending_count(), 0);
        cc.handle(release(tok(0, 0), &p), &mut out);
        assert!(table.holders_of(1).is_empty());
    }

    #[test]
    fn conflict_parks_and_resumes_after_release() {
        let table = Arc::new(LockTable::new(64));
        let mut cc = SharedCcState::new(Arc::clone(&table));
        let mut out = Vec::new();
        let p1 = plan(&[(5, LockMode::Exclusive)]);
        let p2 = plan(&[(5, LockMode::Exclusive), (6, LockMode::Exclusive)]);
        cc.handle(acquire(tok(0, 0), &p1), &mut out);
        out.clear();
        cc.handle(acquire(tok(0, 1), &p2), &mut out);
        assert!(out.is_empty());
        assert_eq!(cc.pending_count(), 1);
        // Nothing changes while the conflict stands.
        assert_eq!(cc.poll_pending(&mut out), 0);
        // Release unblocks; polling resumes the acquisition through key 6.
        cc.handle(release(tok(0, 0), &p1), &mut out);
        assert_eq!(cc.poll_pending(&mut out), 1);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                resp: ExecResponse::Granted {
                    slot: 1,
                    waiters: 1,
                    ..
                },
                ..
            }
        ));
        assert_eq!(cc.pending_count(), 0);
    }

    #[test]
    fn cross_cc_grant_via_shared_table() {
        // Two CC drivers over ONE table: a release handled by cc_a wakes a
        // transaction parked on cc_b — the shared-memory coupling the
        // partitioned design avoids.
        let table = Arc::new(LockTable::new(64));
        let mut cc_a = SharedCcState::new(Arc::clone(&table));
        let mut cc_b = SharedCcState::new(Arc::clone(&table));
        let mut out = Vec::new();
        let p1 = plan(&[(9, LockMode::Exclusive)]);
        let p2 = plan(&[(9, LockMode::Exclusive)]);
        cc_a.handle(acquire(tok(0, 0), &p1), &mut out);
        cc_b.handle(acquire(tok(1, 0), &p2), &mut out);
        assert!(out.is_empty() || out.len() == 1);
        out.clear();
        assert_eq!(cc_b.pending_count(), 1);
        cc_a.handle(release(tok(0, 0), &p1), &mut out);
        assert_eq!(cc_b.poll_pending(&mut out), 1);
        assert!(matches!(
            out[0],
            OutMsg::ToExec {
                exec: 1,
                resp: ExecResponse::Granted { slot: 0, .. },
            }
        ));
    }

    #[test]
    fn waiter_pool_is_reused() {
        let table = Arc::new(LockTable::new(64));
        let mut cc = SharedCcState::new(table);
        let mut out = Vec::new();
        for round in 0..10 {
            let p = plan(&[(round as u64, LockMode::Exclusive)]);
            cc.handle(acquire(tok(0, 0), &p), &mut out);
            cc.handle(release(tok(0, 0), &p), &mut out);
        }
        assert!(cc.waiter_pool.len() <= 1, "pool must recycle one waiter");
    }
}
