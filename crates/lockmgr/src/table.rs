//! The latched hash lock table.
//!
//! "Our 2PL implementation uses a lock-table to store information about
//! the locks acquired and requested by transactions. The lock-table is
//! implemented as a hash-table [with] per-bucket latches instead of a
//! single latch ... transactions only acquire fine-grained logical locks
//! on individual records" (Section 4).
//!
//! Grant discipline is FIFO: a request is granted immediately only when it
//! is compatible with every holder *and* no request is queued ahead of it
//! (queue jumping would starve writers on the hot records these workloads
//! are all about). On release or waiter cancellation the longest
//! compatible prefix of the queue is granted, so batches of shared
//! requests are granted together.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use orthrus_common::{fx_hash_u64, CachePadded, FxHashMap, Key, LockMode, TxnId};

use crate::waiter::LockWaiter;

/// Result of an acquisition attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Lock granted immediately; caller holds it.
    Granted,
    /// Caller was enqueued; wait on its `LockWaiter`. Carries the blocker
    /// snapshot (conflicting holders + queued requests ahead) that the
    /// wait decision was made against.
    Queued(Vec<TxnId>),
    /// The `may_wait` policy callback refused the wait (wait-die); the
    /// caller was *not* enqueued and must abort.
    Denied,
}

struct WaitReq {
    txn: TxnId,
    mode: LockMode,
    waiter: Arc<LockWaiter>,
}

#[derive(Default)]
struct LockEntry {
    /// Granted requests. Hot entries keep their capacity forever (the
    /// paper's no-allocator-traffic rule).
    holders: Vec<(TxnId, LockMode)>,
    waiters: VecDeque<WaitReq>,
}

impl LockEntry {
    /// Whether `mode` is compatible with every current holder.
    fn compatible(&self, mode: LockMode) -> bool {
        self.holders.iter().all(|&(_, h)| !h.conflicts_with(mode))
    }

    /// Grant the longest compatible prefix of the wait queue. Called after
    /// any state change that may unblock waiters.
    fn promote(&mut self) {
        while let Some(front) = self.waiters.front() {
            if self.compatible(front.mode) {
                let req = self.waiters.pop_front().unwrap();
                self.holders.push((req.txn, req.mode));
                req.waiter.grant();
            } else {
                break;
            }
        }
    }

    /// The set a queued transaction is (transitively) waiting behind:
    /// conflicting holders plus everything queued ahead of it. Used both
    /// for the wait decision and for deadlock-detection refresh.
    fn blockers_of(&self, txn: TxnId, mode: LockMode, out: &mut Vec<TxnId>) {
        out.clear();
        for &(h, hm) in &self.holders {
            if hm.conflicts_with(mode) {
                out.push(h);
            }
        }
        for w in &self.waiters {
            if w.txn == txn {
                break;
            }
            out.push(w.txn);
        }
    }
}

/// Hash lock table with per-bucket latches.
pub struct LockTable {
    // One latched map per bucket; the nesting *is* the design (per-bucket
    // latches, Section 4), not incidental complexity. Poison is ignored:
    // each holder's grant, queue and release steps leave the entry whole.
    #[allow(clippy::type_complexity)]
    buckets: Box<[CachePadded<Mutex<FxHashMap<Key, LockEntry>>>]>,
    mask: usize,
}

impl LockTable {
    /// Create a table with `n_buckets` (rounded up to a power of two).
    pub fn new(n_buckets: usize) -> Self {
        let n = n_buckets.max(1).next_power_of_two();
        let buckets = (0..n)
            .map(|_| CachePadded::new(Mutex::new(FxHashMap::default())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockTable {
            buckets,
            mask: n - 1,
        }
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.mask + 1
    }

    /// Latch `key`'s bucket.
    #[inline]
    fn bucket(&self, key: Key) -> MutexGuard<'_, FxHashMap<Key, LockEntry>> {
        let bucket = &self.buckets[(fx_hash_u64(key) as usize) & self.mask];
        bucket.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attempt to acquire `key` in `mode` for `txn`.
    ///
    /// If the request conflicts, `may_wait` is consulted *under the bucket
    /// latch* with the blocker set; returning `false` leaves the table
    /// unchanged ([`AcquireOutcome::Denied`]). Otherwise the request is
    /// enqueued and `waiter` is armed.
    pub fn acquire(
        &self,
        key: Key,
        txn: TxnId,
        mode: LockMode,
        waiter: &Arc<LockWaiter>,
        may_wait: impl FnOnce(&[TxnId]) -> bool,
    ) -> AcquireOutcome {
        let mut bucket = self.bucket(key);
        let entry = bucket.entry(key).or_default();
        debug_assert!(
            !entry.holders.iter().any(|&(h, _)| h == txn),
            "re-entrant acquisition of {key} by {txn:?} (no upgrade support)"
        );
        if entry.waiters.is_empty() && entry.compatible(mode) {
            entry.holders.push((txn, mode));
            return AcquireOutcome::Granted;
        }
        let mut blockers = Vec::new();
        entry.blockers_of(txn, mode, &mut blockers);
        if !may_wait(&blockers) {
            return AcquireOutcome::Denied;
        }
        waiter.arm();
        entry.waiters.push_back(WaitReq {
            txn,
            mode,
            waiter: Arc::clone(waiter),
        });
        AcquireOutcome::Queued(blockers)
    }

    /// Release a held lock and grant any newly compatible waiters.
    pub fn release(&self, key: Key, txn: TxnId) {
        let mut bucket = self.bucket(key);
        let entry = bucket
            .get_mut(&key)
            .expect("release of a key with no lock entry");
        let before = entry.holders.len();
        entry.holders.retain(|&(h, _)| h != txn);
        debug_assert_eq!(
            entry.holders.len() + 1,
            before,
            "release of unheld lock {key} by {txn:?}"
        );
        entry.promote();
        // Entries are intentionally left in the map when empty: hot keys
        // reuse their queues' capacity, and the map never shrinks.
    }

    /// Remove a queued (not yet granted) request, e.g. on deadlock abort.
    ///
    /// Returns `true` if the request was still queued and is now
    /// cancelled; `false` if a concurrent grant won the race (the caller
    /// then *holds* the lock and must release it normally).
    pub fn cancel_wait(&self, key: Key, txn: TxnId) -> bool {
        let mut bucket = self.bucket(key);
        let entry = match bucket.get_mut(&key) {
            Some(e) => e,
            None => return false,
        };
        let pos = entry.waiters.iter().position(|w| w.txn == txn);
        match pos {
            Some(i) => {
                let req = entry.waiters.remove(i).unwrap();
                req.waiter.cancel();
                // Removing a conflicting request from the middle can
                // unblock the queue front (e.g. an X request between two
                // batches of S requests).
                entry.promote();
                true
            }
            None => false,
        }
    }

    /// Refresh the blocker set of a queued transaction (deadlock-detection
    /// poll). Empty result means the transaction is no longer queued
    /// (granted or cancelled concurrently).
    pub fn blockers_for_waiter(&self, key: Key, txn: TxnId, mode: LockMode, out: &mut Vec<TxnId>) {
        out.clear();
        let bucket = self.bucket(key);
        if let Some(entry) = bucket.get(&key) {
            if entry.waiters.iter().any(|w| w.txn == txn) {
                entry.blockers_of(txn, mode, out);
            }
        }
    }

    /// Snapshot the holders of a key (tests / diagnostics).
    pub fn holders_of(&self, key: Key) -> Vec<(TxnId, LockMode)> {
        let bucket = self.bucket(key);
        bucket
            .get(&key)
            .map(|e| e.holders.clone())
            .unwrap_or_default()
    }

    /// Number of queued (ungranted) requests on a key (tests).
    pub fn queue_len(&self, key: Key) -> usize {
        let bucket = self.bucket(key);
        bucket.get(&key).map(|e| e.waiters.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_common::ThreadId;

    fn txn(n: u64) -> TxnId {
        TxnId::compose(n, ThreadId(0))
    }

    fn mk() -> (LockTable, Arc<LockWaiter>) {
        (LockTable::new(16), Arc::new(LockWaiter::new()))
    }

    #[test]
    fn exclusive_then_conflict_queues() {
        let (t, w) = mk();
        assert_eq!(
            t.acquire(1, txn(1), LockMode::Exclusive, &w, |_| true),
            AcquireOutcome::Granted
        );
        let w2 = Arc::new(LockWaiter::new());
        match t.acquire(1, txn(2), LockMode::Exclusive, &w2, |_| true) {
            AcquireOutcome::Queued(blockers) => assert_eq!(blockers, vec![txn(1)]),
            other => panic!("expected queue, got {other:?}"),
        }
        assert_eq!(t.queue_len(1), 1);
        t.release(1, txn(1));
        assert_eq!(w2.state(), crate::WaitState::Granted);
        assert_eq!(t.holders_of(1), vec![(txn(2), LockMode::Exclusive)]);
    }

    #[test]
    fn shared_locks_coexist() {
        let (t, w) = mk();
        for i in 0..5 {
            assert_eq!(
                t.acquire(9, txn(i), LockMode::Shared, &w, |_| true),
                AcquireOutcome::Granted
            );
        }
        assert_eq!(t.holders_of(9).len(), 5);
    }

    #[test]
    fn fifo_blocks_shared_behind_queued_exclusive() {
        let (t, w) = mk();
        t.acquire(5, txn(1), LockMode::Shared, &w, |_| true);
        let wx = Arc::new(LockWaiter::new());
        t.acquire(5, txn(2), LockMode::Exclusive, &wx, |_| true);
        // A new shared request is compatible with the holder but must not
        // jump the queued writer.
        let ws = Arc::new(LockWaiter::new());
        match t.acquire(5, txn(3), LockMode::Shared, &ws, |_| true) {
            AcquireOutcome::Queued(blockers) => {
                // Blockers: the queued writer ahead (holder is compatible).
                assert_eq!(blockers, vec![txn(2)]);
            }
            other => panic!("expected queue, got {other:?}"),
        }
        // Release the shared holder: writer granted, reader still queued.
        t.release(5, txn(1));
        assert_eq!(wx.state(), crate::WaitState::Granted);
        assert_eq!(ws.state(), crate::WaitState::Waiting);
        // Release the writer: reader granted.
        t.release(5, txn(2));
        assert_eq!(ws.state(), crate::WaitState::Granted);
    }

    #[test]
    fn shared_batch_granted_together() {
        let (t, w) = mk();
        t.acquire(5, txn(1), LockMode::Exclusive, &w, |_| true);
        let readers: Vec<Arc<LockWaiter>> = (0..3).map(|_| Arc::new(LockWaiter::new())).collect();
        for (i, r) in readers.iter().enumerate() {
            t.acquire(5, txn(10 + i as u64), LockMode::Shared, r, |_| true);
        }
        t.release(5, txn(1));
        for r in &readers {
            assert_eq!(r.state(), crate::WaitState::Granted);
        }
        assert_eq!(t.holders_of(5).len(), 3);
    }

    #[test]
    fn denied_leaves_table_unchanged() {
        let (t, w) = mk();
        t.acquire(7, txn(1), LockMode::Exclusive, &w, |_| true);
        let w2 = Arc::new(LockWaiter::new());
        assert_eq!(
            t.acquire(7, txn(2), LockMode::Exclusive, &w2, |_| false),
            AcquireOutcome::Denied
        );
        assert_eq!(t.queue_len(7), 0);
        assert_eq!(w2.state(), crate::WaitState::Idle);
    }

    #[test]
    fn cancel_middle_waiter_unblocks_queue() {
        let (t, w) = mk();
        t.acquire(3, txn(1), LockMode::Shared, &w, |_| true);
        let wx = Arc::new(LockWaiter::new());
        t.acquire(3, txn(2), LockMode::Exclusive, &wx, |_| true);
        let ws = Arc::new(LockWaiter::new());
        t.acquire(3, txn(3), LockMode::Shared, &ws, |_| true);
        // Cancel the writer: the shared waiter becomes compatible with the
        // shared holder and must be promoted.
        assert!(t.cancel_wait(3, txn(2)));
        assert_eq!(wx.state(), crate::WaitState::Cancelled);
        assert_eq!(ws.state(), crate::WaitState::Granted);
        assert_eq!(t.holders_of(3).len(), 2);
    }

    #[test]
    fn cancel_after_grant_reports_false() {
        let (t, w) = mk();
        t.acquire(4, txn(1), LockMode::Exclusive, &w, |_| true);
        let w2 = Arc::new(LockWaiter::new());
        t.acquire(4, txn(2), LockMode::Exclusive, &w2, |_| true);
        t.release(4, txn(1)); // grants txn(2)
        assert!(!t.cancel_wait(4, txn(2)));
        assert_eq!(w2.state(), crate::WaitState::Granted);
    }

    #[test]
    fn blockers_refresh_reflects_current_state() {
        let (t, w) = mk();
        t.acquire(8, txn(1), LockMode::Exclusive, &w, |_| true);
        let w2 = Arc::new(LockWaiter::new());
        t.acquire(8, txn(2), LockMode::Exclusive, &w2, |_| true);
        let w3 = Arc::new(LockWaiter::new());
        t.acquire(8, txn(3), LockMode::Exclusive, &w3, |_| true);
        let mut buf = Vec::new();
        t.blockers_for_waiter(8, txn(3), LockMode::Exclusive, &mut buf);
        assert_eq!(buf, vec![txn(1), txn(2)]);
        // After txn(1) releases, txn(2) holds; txn(3) waits only on it.
        t.release(8, txn(1));
        t.blockers_for_waiter(8, txn(3), LockMode::Exclusive, &mut buf);
        assert_eq!(buf, vec![txn(2)]);
        // Once granted, the refresh reports empty.
        t.release(8, txn(2));
        t.blockers_for_waiter(8, txn(3), LockMode::Exclusive, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn cross_thread_mutual_exclusion() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let table = Arc::new(LockTable::new(64));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for th in 0..4u32 {
            let table = Arc::clone(&table);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                let waiter = Arc::new(LockWaiter::new());
                for i in 0..500u64 {
                    let id = TxnId::compose(i, ThreadId(th));
                    match table.acquire(42, id, LockMode::Exclusive, &waiter, |_| true) {
                        AcquireOutcome::Granted => {}
                        AcquireOutcome::Queued(_) => {
                            let st = waiter.wait(|| false, u32::MAX);
                            assert_eq!(st, crate::WaitState::Granted);
                            waiter.disarm();
                        }
                        AcquireOutcome::Denied => unreachable!(),
                    }
                    // Non-atomic RMW protected purely by the logical lock.
                    let v = counter.load(Ordering::Relaxed);
                    std::hint::black_box(v);
                    counter.store(v + 1, Ordering::Relaxed);
                    table.release(42, id);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2000);
    }
}
