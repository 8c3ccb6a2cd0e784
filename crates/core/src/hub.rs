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
//! - a completion carries its own return address — the client id and
//!   the client's tag for it, e.g. a wire request id — written into the
//!   submission under the ingest-lane lock by the session's one lane
//!   push ([`crate::Session::try_submit_owned`] for one request,
//!   [`crate::Session::try_submit_queue`] for a queue of them) and
//!   handed back in
//!   [`Completion::client`] / [`Completion::tag`]. The hub looks nothing
//!   up and the receiver needs no ticket → request map of its own; the
//!   hub needs no engine either, only a stream of completions;
//! - one pump thread drains that stream and calls
//!   [`CompletionHub::route`], which moves each client's share of the
//!   batch to its bounded SPSC ring ([`ClientRx`]) as one slice,
//!   spilling to a per-client overflow queue when the client lags (never
//!   lost, never blocking the pump), and rings the client's doorbell
//!   once;
//! - a disconnected client's leftovers are counted as *orphaned*, so
//!   ticket conservation stays provable per connection even through
//!   abrupt disconnects: `routed + orphaned + unowned` = completions
//!   drained.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use orthrus_common::Doorbell;
use orthrus_spsc::{channel_labeled, Consumer, Producer};

use crate::source::Completion;

fn lock_spill(spill: &Mutex<VecDeque<Completion>>) -> MutexGuard<'_, VecDeque<Completion>> {
    spill.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Engine-side slot for one registered client.
struct Slot {
    ring: Producer<Completion>,
    /// Poison is ignored: every update is one `extend` or `drain` of
    /// plain values.
    overflow: Arc<Mutex<VecDeque<Completion>>>,
    bell: Arc<Doorbell>,
}

/// The client's receive half: a bounded completion ring, the shared
/// overflow queue the pump spills into when the ring is full, and the
/// doorbell the pump rings after routing to this client.
pub struct ClientRx {
    id: u32,
    ring: Consumer<Completion>,
    overflow: Arc<Mutex<VecDeque<Completion>>>,
    bell: Arc<Doorbell>,
}

impl ClientRx {
    /// This client's id — pass as `owner` to
    /// [`crate::Session::try_submit_owned`] /
    /// [`crate::Session::try_submit_queue`].
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Move up to `max` completions into `out` (ring first — the fast
    /// path — then any overflow spill); returns how many.
    pub fn drain_into(&mut self, out: &mut Vec<Completion>, max: usize) -> usize {
        let mut n = self.ring.drain_into(out, max);
        if n < max {
            let mut spill = lock_spill(&self.overflow);
            let k = spill.len().min(max - n);
            out.extend(spill.drain(..k));
            n += k;
        }
        n
    }

    /// Whether nothing is waiting to be drained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && lock_spill(&self.overflow).is_empty()
    }

    /// Rung by [`CompletionHub::route`] once per call that delivered to
    /// this client. Wait on it with a predicate that includes
    /// `!self.is_empty()`; ring it yourself to wake the waiter for any
    /// other reason (shutdown, a peer thread's state change).
    pub fn doorbell(&self) -> &Arc<Doorbell> {
        &self.bell
    }
}

/// Routes drained completions to per-client rings. Registration and
/// deregistration from any thread.
#[derive(Default)]
pub struct CompletionHub {
    /// Held for a whole [`route`](Self::route) call, which also
    /// serializes pumps — the per-client SPSC rings require it. Poison
    /// is ignored: a registration is one map insert or remove, and
    /// `route` calls nothing that panics between filling its scratch and
    /// emptying it.
    slots: Mutex<Slots>,
    next_id: AtomicU32,
    routed: AtomicU64,
    orphaned: AtomicU64,
    unowned: AtomicU64,
}

#[derive(Default)]
struct Slots {
    by_client: HashMap<u32, Slot>,
    /// `route`'s scratch: the batch's owned completions, grouped by
    /// client.
    owned: Vec<Completion>,
    /// `route`'s scratch: one client's group, staged for
    /// `try_push_slice`.
    stage: Vec<Completion>,
}

impl CompletionHub {
    /// A hub with no clients yet. It sits over any completion stream:
    /// whoever drains one hands the batches to [`route`](Self::route).
    pub fn new() -> Self {
        Self::default()
    }

    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a client; `capacity` bounds its completion ring (rounded
    /// up to a power of two). Returns the receive half.
    pub fn register(&self, capacity: usize) -> ClientRx {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (p, c) = channel_labeled(capacity, "client-completion");
        let overflow = Arc::new(Mutex::new(VecDeque::new()));
        let bell = Arc::new(Doorbell::new());
        self.slots().by_client.insert(
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
        self.slots().by_client.remove(&id);
    }

    /// Route a drained batch — a pure function of the batch and of who
    /// is registered: group by [`Completion::client`], then per touched
    /// client one slice push (spilling what the ring refuses — the
    /// client is lagging; never block the pump) and one doorbell ring.
    pub fn route(&self, completions: &[Completion]) {
        if completions.is_empty() {
            return;
        }
        let mut slots = self.slots();
        let Slots {
            by_client,
            owned,
            stage,
        } = &mut *slots;
        owned.extend(completions.iter().filter(|c| c.client.is_some()));
        let unowned = (completions.len() - owned.len()) as u64;
        // Stable: a client's completions keep their drain order.
        owned.sort_by_key(|c| c.client);

        self.unowned.fetch_add(unowned, Ordering::Relaxed);
        for group in owned.chunk_by(|a, b| a.client == b.client) {
            let n = group.len() as u64;
            let Some(slot) = group[0].client.and_then(|id| by_client.get_mut(&id)) else {
                self.orphaned.fetch_add(n, Ordering::Relaxed);
                continue;
            };
            // Ledger first: a client woken by the ring below can answer
            // its peer before this thread runs again, and whoever then
            // reads the ledger must find these completions in it.
            self.routed.fetch_add(n, Ordering::Relaxed);
            stage.extend_from_slice(group);
            slot.ring.try_push_slice(stage);
            if !stage.is_empty() {
                lock_spill(&slot.overflow).extend(stage.drain(..));
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

    /// Completions that named no owner (submitted through the plain
    /// [`crate::Session::try_submit`]).
    pub fn unowned(&self) -> u64 {
        self.unowned.load(Ordering::Relaxed)
    }

    /// Snapshot the routing ledger for [`orthrus_common::RunStats::hub`]
    /// — how the drained completions split into routed / orphaned /
    /// unowned. One hub serves one engine, labelled partition 0; a
    /// partitioned deployment counts its own per-partition ledgers.
    pub fn breakdown(&self) -> orthrus_common::HubBreakdown {
        orthrus_common::HubBreakdown {
            partition: 0,
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

    /// A completion as an engine would hand it over, built by hand.
    fn done(ticket: u64, client: Option<u32>, tag: u64) -> Completion {
        Completion {
            ticket: crate::source::Ticket(ticket),
            latency_ns: 1,
            client,
            tag,
        }
    }

    /// No engine anywhere: the hub is a function of the batch and of who
    /// is registered. Two clients (one gone by the time its completions
    /// arrive) and one ownerless completion, and the ledger reads
    /// exactly.
    #[test]
    fn a_hub_with_no_engine_routes_a_hand_built_batch() {
        let hub = CompletionHub::new();
        let mut here = hub.register(8);
        let gone = hub.register(8).id();
        hub.unregister(gone);
        let batch = [
            done(0, Some(here.id()), 70),
            done(1, Some(gone), 71),
            done(2, None, 72),
            done(3, Some(here.id()), 73),
            done(4, Some(gone), 74),
        ];
        hub.route(&batch);
        let mut got = Vec::new();
        assert_eq!(here.drain_into(&mut got, usize::MAX), 2);
        assert_eq!(got, [batch[0], batch[3]], "whole, and in drain order");
        assert!(here.is_empty());
        assert_eq!(
            hub.breakdown(),
            orthrus_common::HubBreakdown {
                partition: 0,
                routed: 2,
                orphaned: 2,
                unowned: 1
            }
        );
        hub.route(&[]);
        assert_eq!(hub.breakdown().total(), batch.len() as u64);
    }

    /// Two clients, a pump running *while* they submit — so a completion
    /// is regularly routed before `try_submit_owned` has returned its
    /// ticket — and tags minted from a counter inside the call: every
    /// completion reaches its owner carrying the tag minted for it (the
    /// tag is in the submission, so nothing can outrun it), and the
    /// counter moved once per accepted submission, backpressured
    /// attempts included.
    #[test]
    fn completions_route_to_their_owners() {
        use crate::session::TrySubmitError;
        use std::sync::atomic::AtomicBool;

        let _guard = crate::test_serial();
        let mut handle = tiny_engine();
        let session = handle.session();
        let hub = CompletionHub::new();
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
                let owed = want.remove(&r.ticket);
                assert_eq!(owed, Some((rx.id(), r.tag)), "ticket {r:?}");
                assert_eq!(r.client, Some(rx.id()));
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
        let hub = CompletionHub::new();
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
        let hub = CompletionHub::new();
        // Ring capacity 2: most of the 30 completions must spill into the
        // overflow queue while the client refuses to drain.
        let mut rx = hub.register(2);
        let n = 30u64;
        for chunk in (0..n).collect::<Vec<_>>().chunks(7) {
            let batch: Vec<_> = chunk.iter().map(|&i| done(i, Some(rx.id()), i)).collect();
            hub.route(&batch);
        }
        assert_eq!(hub.routed(), n);
        let mut got = Vec::new();
        assert_eq!(rx.drain_into(&mut got, usize::MAX), n as usize);
        let tickets: Vec<_> = got.iter().map(|r| r.ticket.0).collect();
        assert_eq!(tickets, (0..n).collect::<Vec<_>>(), "none lost, in order");
    }

    /// One route call touching 3 of 4 clients rings exactly 3 doorbells:
    /// each touched client is woken once, with its whole share already
    /// in its ring, and the untouched client stays parked.
    #[test]
    fn a_route_call_rings_each_touched_client_once() {
        use std::sync::atomic::AtomicBool;

        let hub = CompletionHub::new();
        let rxs: Vec<ClientRx> = (0..4).map(|_| hub.register(64)).collect();
        // Clients 0..3 get 5 completions each, tagged and interleaved;
        // client 3 gets none. All 15 go through *one* route call.
        const PER_CLIENT: usize = 5;
        let drained: Vec<Completion> = (0..3 * PER_CLIENT as u64)
            .map(|t| {
                let (c, i) = (t % 3, t / 3);
                done(t, Some(rxs[c as usize].id()), c * 100 + i)
            })
            .collect();

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
    }
}
