//! Wait-for graph deadlock detection, thread-partitioned.
//!
//! "We use a graph to track the dependencies between transactions waiting
//! to acquire logical locks, and the current holders of the lock. ...
//! In order to scale across multiple cores, our implementation avoids the
//! use of a global latch to protect the entire graph. Instead, each
//! database thread maintains a local partition of the wait-for graph, as
//! is done by Yu et al." (Section 4).
//!
//! Each worker thread has at most one blocked transaction at a time, so
//! the partition indexed by thread id holds that transaction's current
//! out-edges. Detection (run by the waiter itself) walks edges across
//! partitions with a DFS; finding a path back to the waiter means a cycle,
//! and the waiter aborts itself.

use std::sync::{Mutex, MutexGuard, PoisonError};

use orthrus_common::{CachePadded, TxnId};

use super::DeadlockPolicy;

/// One partition: the (single) blocked transaction of one thread and its
/// out-edges.
#[derive(Default)]
struct Partition {
    /// `Some((waiter, blockers))` while this thread's transaction waits.
    edge: Option<(TxnId, Vec<TxnId>)>,
}

/// Thread-partitioned wait-for graph.
pub struct WaitForGraph {
    /// Poison is ignored: every update is one assignment or refill of a
    /// partition's edge list.
    partitions: Box<[CachePadded<Mutex<Partition>>]>,
}

impl WaitForGraph {
    /// Create a graph for up to `n_threads` worker threads.
    pub fn new(n_threads: usize) -> Self {
        WaitForGraph {
            partitions: (0..n_threads)
                .map(|_| CachePadded::new(Mutex::new(Partition::default())))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        }
    }

    fn slot(&self, txn: TxnId) -> MutexGuard<'_, Partition> {
        let slot = &self.partitions[txn.thread().as_usize() % self.partitions.len()];
        slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record/refresh the out-edges of `txn`.
    fn set_edges(&self, txn: TxnId, blockers: &[TxnId]) {
        let mut p = self.slot(txn);
        match &mut p.edge {
            Some((t, edges)) if *t == txn => {
                edges.clear();
                edges.extend_from_slice(blockers);
            }
            other => *other = Some((txn, blockers.to_vec())),
        }
    }

    /// Remove the out-edges of `txn`.
    fn clear_edges(&self, txn: TxnId) {
        let mut p = self.slot(txn);
        if matches!(&p.edge, Some((t, _)) if *t == txn) {
            p.edge = None;
        }
    }

    /// Copy the out-edges of `txn` (empty if it is not waiting).
    fn edges_of(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        out.clear();
        let p = self.slot(txn);
        if let Some((t, edges)) = &p.edge {
            if *t == txn {
                out.extend_from_slice(edges);
            }
        }
    }

    /// DFS from `start`: does any wait path lead back to it?
    fn has_cycle_through(&self, start: TxnId) -> bool {
        // Depth is bounded by the thread count (one blocked txn each), so
        // plain Vecs beat hash sets here.
        let mut stack: Vec<TxnId> = Vec::with_capacity(self.partitions.len());
        let mut visited: Vec<TxnId> = Vec::with_capacity(self.partitions.len());
        let mut edges = Vec::new();
        self.edges_of(start, &mut edges);
        stack.extend_from_slice(&edges);
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if visited.contains(&t) {
                continue;
            }
            visited.push(t);
            self.edges_of(t, &mut edges);
            stack.extend_from_slice(&edges);
        }
        false
    }
}

impl DeadlockPolicy for WaitForGraph {
    fn on_wait_begin(&self, txn: TxnId, blockers: &[TxnId]) {
        self.set_edges(txn, blockers);
    }

    fn check_deadlock(&self, txn: TxnId, blockers: &[TxnId]) -> bool {
        // Refresh our edges from the live blocker set, then search.
        self.set_edges(txn, blockers);
        self.has_cycle_through(txn)
    }

    fn on_wait_end(&self, txn: TxnId) {
        self.clear_edges(txn);
    }

    fn on_txn_end(&self, txn: TxnId) {
        self.clear_edges(txn);
    }

    fn name(&self) -> &'static str {
        "wait-for-graph"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_common::ThreadId;

    fn t(thread: u32) -> TxnId {
        TxnId::compose(1, ThreadId(thread))
    }

    #[test]
    fn two_cycle_detected() {
        let g = WaitForGraph::new(4);
        g.on_wait_begin(t(0), &[t(1)]);
        assert!(!g.check_deadlock(t(0), &[t(1)]), "no cycle yet");
        // t1 now waits on t0: cycle.
        g.on_wait_begin(t(1), &[t(0)]);
        assert!(g.check_deadlock(t(0), &[t(1)]));
        assert!(g.check_deadlock(t(1), &[t(0)]));
    }

    #[test]
    fn three_cycle_detected() {
        let g = WaitForGraph::new(4);
        g.on_wait_begin(t(0), &[t(1)]);
        g.on_wait_begin(t(1), &[t(2)]);
        assert!(!g.check_deadlock(t(2), &[])); // t2 not blocked: no cycle
        g.on_wait_begin(t(2), &[t(0)]);
        assert!(g.check_deadlock(t(2), &[t(0)]));
    }

    #[test]
    fn chain_is_not_a_cycle() {
        let g = WaitForGraph::new(4);
        g.on_wait_begin(t(0), &[t(1)]);
        g.on_wait_begin(t(1), &[t(2)]);
        assert!(!g.check_deadlock(t(0), &[t(1)]));
    }

    #[test]
    fn wait_end_breaks_cycle() {
        let g = WaitForGraph::new(4);
        g.on_wait_begin(t(0), &[t(1)]);
        g.on_wait_begin(t(1), &[t(0)]);
        g.on_wait_end(t(1));
        assert!(!g.check_deadlock(t(0), &[t(1)]));
    }

    #[test]
    fn stale_entry_from_old_txn_on_same_thread_is_ignored() {
        let g = WaitForGraph::new(2);
        let old = TxnId::compose(1, ThreadId(0));
        let new = TxnId::compose(2, ThreadId(0));
        g.on_wait_begin(old, &[t(1)]);
        g.on_txn_end(old);
        let mut edges = Vec::new();
        g.edges_of(new, &mut edges);
        assert!(edges.is_empty());
    }

    #[test]
    fn refresh_replaces_edges() {
        let g = WaitForGraph::new(4);
        g.on_wait_begin(t(0), &[t(1)]);
        // Blockers changed: t(1) released, now blocked on t(2) only.
        g.check_deadlock(t(0), &[t(2)]);
        let mut edges = Vec::new();
        g.edges_of(t(0), &mut edges);
        assert_eq!(edges, vec![t(2)]);
    }
}
