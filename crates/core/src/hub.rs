//! Completion fan-out: routing engine completions back to the client
//! that submitted each ticket.
//!
//! The engine's completion rings are per-*execution-thread* — one
//! drainer ([`crate::EngineHandle::drain_completions`]) sees every
//! completion, in no particular client order. In-process harness
//! clients don't care (one driver owns all tickets), but a network
//! front-end has many connections, each owed exactly the completions
//! for its own submissions. The [`CompletionHub`] is that router:
//!
//! - submission tags each ticket with its owner — client id plus the
//!   client's own tag for it, e.g. a wire request id — in the
//!   [`OwnerTable`] (a sharded ticket → owner map written under the
//!   ingest-lane lock *before* the ring push, so a completion — which
//!   happens-after the push — always finds its owner, and the receiver
//!   needs no ticket → request map of its own);
//! - one pump thread drains the engine and calls [`CompletionHub::route`],
//!   which moves each client's share of the batch to its bounded SPSC
//!   ring ([`ClientRx`]) as one slice, spilling to a per-client overflow
//!   queue when the client lags (never lost, never blocking the pump),
//!   and rings the client's doorbell once;
//! - a disconnected client's leftovers are counted as *orphaned*, so
//!   ticket conservation stays provable per connection even through
//!   abrupt disconnects: `routed + orphaned + unowned` = completions
//!   drained.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use orthrus_common::Doorbell;
use orthrus_spsc::{channel_labeled, Consumer, Producer};
use parking_lot::{Mutex, MutexGuard};

use crate::session::Session;
use crate::source::Completion;

/// Number of shards in the ticket → owner map.
const OWNER_SHARDS: u64 = 16;
/// Consecutive tickets per shard stripe. Batch submission mints a run
/// of consecutive tickets and completions come back roughly in ticket
/// order, so striping lets both sides cover a whole run with one or two
/// shard locks ([`OwnerCursor`]) instead of one per ticket, while
/// submitters and the pump — a window apart in ticket space — still
/// mostly land on different shards.
const OWNER_STRIPE: u64 = 16;

/// Who is owed a ticket's completion, and the tag they attached to it
/// at submission (a wire front-end's request id), handed back verbatim
/// in [`Routed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Owner {
    pub(crate) client: u32,
    pub(crate) tag: u64,
}

/// Sharded ticket → [`Owner`] map. Entries are inserted at submission
/// (under the ingest-lane lock, before the ring push) and removed by the
/// routing pump, so the table's steady-state size is the in-flight
/// window, not the run length.
pub(crate) struct OwnerTable {
    shards: Vec<Mutex<HashMap<u64, Owner>>>,
}

impl OwnerTable {
    pub(crate) fn new() -> Self {
        OwnerTable {
            shards: (0..OWNER_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    /// A cursor for touching a run of tickets; see [`OwnerCursor`].
    pub(crate) fn cursor(&self) -> OwnerCursor<'_> {
        OwnerCursor {
            table: self,
            held: None,
        }
    }
}

/// Holds at most one shard lock and keeps it across neighbouring
/// tickets. Must be dropped before any ring push: a push is a sim
/// schedule point, and no hook may be reached with a lock held.
pub(crate) struct OwnerCursor<'a> {
    table: &'a OwnerTable,
    held: Option<(usize, MutexGuard<'a, HashMap<u64, Owner>>)>,
}

impl OwnerCursor<'_> {
    fn shard(&mut self, ticket: u64) -> &mut HashMap<u64, Owner> {
        let idx = (ticket / OWNER_STRIPE % OWNER_SHARDS) as usize;
        if self.held.as_ref().is_none_or(|(held, _)| *held != idx) {
            // Release before acquiring: never two shard locks at once.
            self.held = None;
            self.held = Some((idx, self.table.shards[idx].lock()));
        }
        &mut self.held.as_mut().expect("just locked").1
    }

    #[inline]
    pub(crate) fn insert(&mut self, ticket: u64, owner: Owner) {
        self.shard(ticket).insert(ticket, owner);
    }

    /// Remove and return a completed ticket's owner (routing consumes
    /// the entry — each ticket completes exactly once).
    #[inline]
    pub(crate) fn take(&mut self, ticket: u64) -> Option<Owner> {
        self.shard(ticket).remove(&ticket)
    }
}

/// One completion as its owner receives it: the engine's [`Completion`]
/// plus the tag the owner attached at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    pub tag: u64,
    pub completion: Completion,
}

/// Engine-side slot for one registered client.
struct Slot {
    ring: Producer<Routed>,
    overflow: Arc<Mutex<VecDeque<Routed>>>,
    bell: Arc<Doorbell>,
}

/// The client's receive half: a bounded completion ring, the shared
/// overflow queue the pump spills into when the ring is full, and the
/// doorbell the pump rings after routing to this client.
pub struct ClientRx {
    id: u32,
    ring: Consumer<Routed>,
    overflow: Arc<Mutex<VecDeque<Routed>>>,
    bell: Arc<Doorbell>,
}

impl ClientRx {
    /// This client's id — pass as `owner` to
    /// [`Session::try_submit_owned`] / [`Session::try_submit_batch`].
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Move up to `max` completions into `out` (ring first — the fast
    /// path — then any overflow spill); returns how many.
    pub fn drain_into(&mut self, out: &mut Vec<Routed>, max: usize) -> usize {
        let mut n = self.ring.drain_into(out, max);
        if n < max {
            let mut spill = self.overflow.lock();
            let k = spill.len().min(max - n);
            out.extend(spill.drain(..k));
            n += k;
        }
        n
    }

    /// Whether nothing is waiting to be drained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.overflow.lock().is_empty()
    }

    /// Rung by [`CompletionHub::route`] once per call that delivered to
    /// this client. Wait on it with a predicate that includes
    /// `!self.is_empty()`; ring it yourself to wake the waiter for any
    /// other reason (shutdown, a peer thread's state change).
    pub fn doorbell(&self) -> &Arc<Doorbell> {
        &self.bell
    }
}

/// Routes drained completions to per-client rings. One instance per
/// engine; registration and deregistration from any thread.
pub struct CompletionHub {
    session: Session,
    /// Held for a whole [`route`](Self::route) call, which also
    /// serializes pumps — the per-client SPSC rings require it.
    slots: Mutex<Slots>,
    next_id: AtomicU32,
    partition: usize,
    routed: AtomicU64,
    orphaned: AtomicU64,
    unowned: AtomicU64,
}

#[derive(Default)]
struct Slots {
    by_client: HashMap<u32, Slot>,
    /// `route`'s scratch: the batch's owned completions, grouped by
    /// client.
    owned: Vec<(u32, Routed)>,
    /// `route`'s scratch: one client's group, staged for
    /// `try_push_slice`.
    stage: Vec<Routed>,
}

impl CompletionHub {
    /// Build a hub over the engine the session belongs to. The session is
    /// only used to reach the shared [`OwnerTable`]; cloning one costs an
    /// `Arc` bump. The hub labels itself partition 0; a partitioned
    /// deployment uses [`with_partition`](Self::with_partition).
    pub fn new(session: Session) -> Self {
        Self::with_partition(session, 0)
    }

    /// Like [`new`](Self::new), but tagging this hub with the partition it
    /// serves so conservation audits ([`breakdown`](Self::breakdown)) can
    /// localize routed/orphaned losses to one partition.
    pub fn with_partition(session: Session, partition: usize) -> Self {
        CompletionHub {
            session,
            slots: Mutex::default(),
            next_id: AtomicU32::new(0),
            partition,
            routed: AtomicU64::new(0),
            orphaned: AtomicU64::new(0),
            unowned: AtomicU64::new(0),
        }
    }

    /// Register a client; `capacity` bounds its completion ring (rounded
    /// up to a power of two). Returns the receive half.
    pub fn register(&self, capacity: usize) -> ClientRx {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (p, c) = channel_labeled(capacity, "client-completion");
        let overflow = Arc::new(Mutex::new(VecDeque::new()));
        let bell = Arc::new(Doorbell::new());
        self.slots.lock().by_client.insert(
            id,
            Slot {
                ring: p,
                overflow: Arc::clone(&overflow),
                bell: Arc::clone(&bell),
            },
        );
        ClientRx {
            id,
            ring: c,
            overflow,
            bell,
        }
    }

    /// Drop a client's slot. Completions for its still-inflight tickets
    /// are counted as orphaned when they arrive — the abrupt-disconnect
    /// path; conservation accounting stays intact.
    pub fn unregister(&self, id: u32) {
        self.slots.lock().by_client.remove(&id);
    }

    /// Route a drained batch: resolve every owner first, group by
    /// client, then per touched client one slice push (spilling what the
    /// ring refuses — the client is lagging; never block the pump) and
    /// one doorbell ring.
    pub fn route(&self, completions: &[Completion]) {
        if completions.is_empty() {
            return;
        }
        let mut slots = self.slots.lock();
        let Slots {
            by_client,
            owned,
            stage,
        } = &mut *slots;
        self.session.take_owners(completions, owned);
        let unowned = (completions.len() - owned.len()) as u64;
        // Stable: a client's completions keep their drain order.
        owned.sort_by_key(|(client, _)| *client);

        self.unowned.fetch_add(unowned, Ordering::Relaxed);
        for group in owned.chunk_by(|a, b| a.0 == b.0) {
            let n = group.len() as u64;
            let Some(slot) = by_client.get_mut(&group[0].0) else {
                self.orphaned.fetch_add(n, Ordering::Relaxed);
                continue;
            };
            // Ledger first: a client woken by the ring below can answer
            // its peer before this thread runs again, and whoever then
            // reads the ledger must find these completions in it.
            self.routed.fetch_add(n, Ordering::Relaxed);
            stage.extend(group.iter().map(|(_, r)| *r));
            slot.ring.try_push_slice(stage);
            if !stage.is_empty() {
                slot.overflow.lock().extend(stage.drain(..));
            }
            slot.bell.ring();
        }
        owned.clear();
    }

    /// Completions delivered to a registered client (ring or overflow).
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// Completions whose owner had unregistered (abrupt disconnect).
    pub fn orphaned(&self) -> u64 {
        self.orphaned.load(Ordering::Relaxed)
    }

    /// Completions for tickets never tagged with an owner (submitted
    /// through the plain un-owned [`Session`] API).
    pub fn unowned(&self) -> u64 {
        self.unowned.load(Ordering::Relaxed)
    }

    /// The partition this hub serves (0 for unpartitioned deployments).
    pub fn partition(&self) -> usize {
        self.partition
    }

    /// Snapshot the per-partition routing ledger for
    /// [`orthrus_common::RunStats::hub`] — how this partition's drained
    /// completions split into routed / orphaned / unowned.
    pub fn breakdown(&self) -> orthrus_common::HubBreakdown {
        orthrus_common::HubBreakdown {
            partition: self.partition,
            routed: self.routed(),
            orphaned: self.orphaned(),
            unowned: self.unowned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CcAssignment, OrthrusConfig};
    use crate::engine::OrthrusEngine;
    use orthrus_storage::Table;
    use orthrus_txn::{Database, Program};

    fn tiny_engine() -> crate::engine::EngineHandle {
        let db = Arc::new(Database::Flat(Table::new(256, 64)));
        let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        OrthrusEngine::service(db, cfg).start(7)
    }

    fn rmw(key: u64) -> Program {
        Program::Rmw { keys: vec![key] }
    }

    /// Two clients, a pump running *while* they submit — so a completion
    /// is regularly routed before `try_submit_owned` has returned its
    /// ticket — and tags minted from a counter inside the call: every
    /// completion reaches its owner carrying the tag minted for it (the
    /// tag is in the table before the push), and the counter moved once
    /// per accepted submission, backpressured attempts included.
    #[test]
    fn completions_route_to_their_owners() {
        use crate::session::TrySubmitError;
        use std::sync::atomic::AtomicBool;

        let _guard = crate::test_serial();
        let mut handle = tiny_engine();
        let session = handle.session();
        let hub = CompletionHub::new(session.clone());
        let mut a = hub.register(64);
        let mut b = hub.register(64);
        const N: u64 = 2_000;

        let submitting = AtomicBool::new(true);
        let mut want = HashMap::new();
        let mut minted = 0u64;
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut drained = Vec::new();
                while submitting.load(Ordering::Acquire) || hub.routed() < N {
                    drained.clear();
                    handle.drain_completions(&mut drained);
                    hub.route(&drained);
                    std::thread::yield_now();
                }
            });
            for i in 0..N {
                let rx = if i % 2 == 0 { &a } else { &b };
                let mut program = rmw(i % 256);
                let ticket = loop {
                    let mint = || {
                        minted += 1;
                        1_000 + minted
                    };
                    match session.try_submit_owned(program, rx.id(), mint) {
                        Ok(t) => break t,
                        Err(TrySubmitError::Full(back)) => {
                            program = back;
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("unexpected: {e}"),
                    }
                };
                want.insert(ticket, (rx.id(), 1_000 + minted));
            }
            submitting.store(false, Ordering::Release);
        });
        assert_eq!(minted, N, "a tag is minted only for an accepted submission");

        let mut got = Vec::new();
        for rx in [&mut a, &mut b] {
            let from = got.len();
            rx.drain_into(&mut got, usize::MAX);
            for r in &got[from..] {
                let owed = want.remove(&r.completion.ticket);
                assert_eq!(owed, Some((rx.id(), r.tag)), "ticket {:?}", r.completion);
            }
        }
        assert!(want.is_empty(), "every ticket completed exactly once");
        assert_eq!(hub.routed(), N);
        assert_eq!(hub.orphaned() + hub.unowned(), 0);
        let bd = hub.breakdown();
        assert_eq!(bd.partition, 0, "plain hubs label themselves partition 0");
        assert_eq!(bd.total(), N);
        handle.shutdown();
    }

    #[test]
    fn unregistered_owner_counts_as_orphaned_not_lost() {
        let _guard = crate::test_serial();
        let mut handle = tiny_engine();
        let session = handle.session();
        let hub = CompletionHub::new(session.clone());
        let gone = hub.register(8);
        let gone_id = gone.id();
        let n = 10u64;
        for i in 0..n {
            session.try_submit_owned(rmw(i), gone_id, || i).unwrap();
        }
        hub.unregister(gone_id); // abrupt disconnect before completions land
        drop(gone);

        let mut drained = Vec::new();
        while hub.orphaned() < n {
            drained.clear();
            handle.drain_completions(&mut drained);
            hub.route(&drained);
            std::thread::yield_now();
        }
        assert_eq!(hub.orphaned(), n, "every ticket accounted for");
        assert_eq!(hub.routed(), 0);
        assert_eq!(
            hub.breakdown(),
            orthrus_common::HubBreakdown {
                partition: 0,
                routed: 0,
                orphaned: n,
                unowned: 0
            }
        );
        handle.shutdown();
    }

    #[test]
    fn ring_overflow_spills_without_loss() {
        let _guard = crate::test_serial();
        let mut handle = tiny_engine();
        let session = handle.session();
        let hub = CompletionHub::new(session.clone());
        // Ring capacity 2: most of the 30 completions must spill into the
        // overflow queue while the client refuses to drain.
        let mut rx = hub.register(2);
        let n = 30u64;
        for i in 0..n {
            let mut p = rmw(i);
            loop {
                match session.try_submit_owned(p, rx.id(), || i) {
                    Ok(_) => break,
                    Err(crate::session::TrySubmitError::Full(back)) => {
                        p = back;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }
        let mut drained = Vec::new();
        while hub.routed() < n {
            drained.clear();
            handle.drain_completions(&mut drained);
            hub.route(&drained);
            std::thread::yield_now();
        }
        let mut got = Vec::new();
        assert_eq!(rx.drain_into(&mut got, usize::MAX), n as usize);
        let mut tickets: Vec<_> = got.iter().map(|r| r.completion.ticket.0).collect();
        tickets.sort_unstable();
        assert_eq!(tickets, (0..n).collect::<Vec<_>>());
        handle.shutdown();
    }

    /// One route call touching 3 of 4 clients rings exactly 3 doorbells:
    /// each touched client is woken once, with its whole share already
    /// in its ring, and the untouched client stays parked.
    #[test]
    fn a_route_call_rings_each_touched_client_once() {
        use std::sync::atomic::AtomicBool;

        let _guard = crate::test_serial();
        let mut handle = tiny_engine();
        let session = handle.session();
        let hub = CompletionHub::new(session.clone());
        let rxs: Vec<ClientRx> = (0..4).map(|_| hub.register(64)).collect();
        // Clients 0..3 get 5 tickets each, tagged; client 3 gets none.
        const PER_CLIENT: usize = 5;
        for (c, rx) in rxs[..3].iter().enumerate() {
            let batch = (0..PER_CLIENT as u64)
                .map(|i| (c as u64 * 100 + i, rmw(c as u64 * 8 + i)))
                .collect();
            let out = session.try_submit_batch(batch, Some(rx.id()));
            assert_eq!(out.accepted.len(), PER_CLIENT);
        }
        // Collect all 15 completions first so they go through *one*
        // route call.
        let mut drained = Vec::new();
        while drained.len() < 3 * PER_CLIENT {
            handle.drain_completions(&mut drained);
            std::thread::yield_now();
        }

        // Each client parks once and reports what that one wake-up
        // brought. Only the test may release the untouched client.
        let release = Arc::new(AtomicBool::new(false));
        let idle_bell = Arc::clone(rxs[3].doorbell());
        let waiters: Vec<_> = rxs
            .into_iter()
            .map(|mut rx| {
                let release = Arc::clone(&release);
                std::thread::spawn(move || {
                    let bell = Arc::clone(rx.doorbell());
                    bell.wait(|| !rx.is_empty() || release.load(Ordering::Acquire));
                    let mut got = Vec::new();
                    rx.drain_into(&mut got, usize::MAX);
                    got.iter().map(|r| r.tag).collect::<Vec<u64>>()
                })
            })
            .collect();
        hub.route(&drained);
        assert_eq!(hub.routed(), (3 * PER_CLIENT) as u64);
        assert_eq!(
            hub.routed() + hub.orphaned() + hub.unowned(),
            drained.len() as u64
        );
        let mut waiters = waiters.into_iter();
        for (c, w) in waiters.by_ref().take(3).enumerate() {
            let mut tags = w.join().expect("waiter");
            tags.sort_unstable();
            let want: Vec<u64> = (0..PER_CLIENT as u64).map(|i| c as u64 * 100 + i).collect();
            assert_eq!(tags, want, "client {c}: one ring, its whole share");
        }
        let idle = waiters.next().expect("fourth client");
        assert!(!idle.is_finished(), "an untouched client is not rung");
        release.store(true, Ordering::Release);
        idle_bell.ring();
        assert_eq!(idle.join().expect("idle waiter"), Vec::<u64>::new());
        handle.shutdown();
    }
}
