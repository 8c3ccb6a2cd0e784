//! Client sessions: the open-loop submission API.
//!
//! A [`Session`] is a cheap, cloneable handle a client (or an offered-load
//! driver) uses to push [`Program`]s into a running service-mode engine
//! ([`crate::OrthrusEngine::start`]). Submissions are routed to a
//! per-execution-thread ingest ring (a *lane*):
//!
//! - **by hot key** when the program exposes one
//!   ([`Program::hot_key_hint`]): all submissions contending on a key
//!   land on the same execution thread, so conflict-class admission can
//!   fuse them into single lock acquisitions exactly as it does for
//!   synthetic work;
//! - **round-robin** otherwise.
//!
//! **One way into a lane.** Every submission — [`Session::try_submit`],
//! [`Session::try_submit_owned`], [`Session::submit`] and
//! [`Session::try_submit_queue`] — goes through one private push: lock
//! the lane, refuse if the engine is closed, take as many requests as the
//! lane has room for, mint their tickets with one `fetch_add`, push
//! them with one ring publish, unlock, ring the lane's bell. The partition layer's
//! fast path and its sequencer's fused slices are `try_submit_owned`
//! calls, so they take the same path.
//!
//! The rings are bounded: a full ring is *backpressure*
//! ([`TrySubmitError::Full`] hands the program back; a queue submit leaves
//! the refused request where it was), never silent loss — every minted
//! [`Ticket`] is owed a [`crate::source::Completion`]. An *owned*
//! submission also names who is owed it; the name is written into the
//! [`Submission`] under the lane lock and comes back in the completion,
//! so submitters share nothing besides the lanes and the ticket counter.
//!
//! The producer side of each ring sits behind a mutex shared by all
//! sessions. That lock is deliberately **off the engine's hot path**: the
//! consumer side stays a pure latch-free SPSC drain on the execution
//! thread; only submitting clients contend, and only per-lane. The same
//! mutex doubles as the shutdown fence (see [`SubmitShared::close`]): a
//! submission that won the lock before close lands in the ring and will
//! be drained; one that loses sees `accepting == false` and is refused —
//! there is no window in which a ticket can be accepted yet missed by the
//! drain.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

use orthrus_common::runtime::RunCtl;
use orthrus_common::{fx_hash_u64, Backoff, Doorbell};
use orthrus_spsc::Producer;
use orthrus_txn::Program;

use crate::source::{Reply, Submission, Ticket};

/// One ingest lane's producer side, behind the lane mutex.
struct Lane {
    ring: Producer<Submission>,
    /// A multi-request push's submissions, staged for one slice publish:
    /// empty between pushes, sized for a full ring from the start.
    stage: Vec<Submission>,
}

/// Acquire a lane's producer lock without OS-blocking: under the
/// deterministic sim scheduler another enrolled submitter may be parked
/// *inside* its ring push (a schedule point) while still holding the
/// lane mutex, so a blocking `lock()` would wedge the token. Parking at
/// the sim seam keeps the handoff deterministic; outside the sim the
/// loop is the plain try-spin a short critical section tolerates.
fn lock_lane(lane: &Mutex<Lane>) -> MutexGuard<'_, Lane> {
    loop {
        match lane.try_lock() {
            Ok(g) => return g,
            Err(TryLockError::Poisoned(e)) => return e.into_inner(),
            Err(TryLockError::WouldBlock) => {}
        }
        if !orthrus_common::sim::on_park() {
            std::thread::yield_now();
        }
    }
}

/// Why a submission was not accepted. Both variants hand the program
/// back so the caller can retry without cloning.
#[derive(Debug)]
pub enum TrySubmitError {
    /// The destination ingest ring is full — backpressure. Retry after
    /// the engine drains (or use the blocking [`Session::submit`]).
    Full(Program),
    /// The engine has begun shutting down; no new work is accepted.
    Shutdown(Program),
}

impl TrySubmitError {
    /// Recover the rejected program.
    pub fn into_program(self) -> Program {
        match self {
            TrySubmitError::Full(p) | TrySubmitError::Shutdown(p) => p,
        }
    }
}

impl std::fmt::Display for TrySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::Full(_) => write!(f, "ingest ring full (backpressure)"),
            TrySubmitError::Shutdown(_) => write!(f, "engine shutting down"),
        }
    }
}

/// The engine has begun shutting down, or one of its threads died, and
/// it accepts nothing more (what [`Session::try_submit_queue`] reports;
/// the requests stay queued).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineClosed;

/// Submission state shared by every session of one service-mode engine:
/// the ingest lanes (one per execution thread), the ticket counter, and
/// the accepting flag the shutdown fence flips.
pub(crate) struct SubmitShared {
    /// Poison is ignored: a ring push publishes whole or not at all, and
    /// a push clears the stage before filling it.
    lanes: Vec<Mutex<Lane>>,
    /// Lane `i`'s consumer — execution thread `i` — parks on `bells[i]`
    /// when idle; rung after every push into the lane.
    bells: Arc<[Doorbell]>,
    accepting: AtomicBool,
    /// The engine's run-control flags: once a thread has died
    /// ([`RunCtl::is_failed`]) nothing drains the lanes any more, so a
    /// push is refused as if the engine were closed.
    ctl: Arc<RunCtl>,
    /// Ticket-id mint, bumped only for *accepted* submissions (room is
    /// counted under the lane lock before minting), so ids are dense and
    /// the counter doubles as the conservation ledger completions are
    /// checked against.
    next_ticket: AtomicU64,
    round_robin: AtomicUsize,
}

impl SubmitShared {
    pub(crate) fn new(
        lanes: Vec<Producer<Submission>>,
        bells: Arc<[Doorbell]>,
        ctl: Arc<RunCtl>,
    ) -> Self {
        assert!(!lanes.is_empty(), "validated by OrthrusConfig (n_exec ≥ 1)");
        assert_eq!(lanes.len(), bells.len(), "one bell per ingest lane");
        let lanes = lanes.into_iter().map(|ring| {
            let stage = Vec::with_capacity(ring.capacity());
            Mutex::new(Lane { ring, stage })
        });
        SubmitShared {
            lanes: lanes.collect(),
            bells,
            accepting: AtomicBool::new(true),
            ctl,
            next_ticket: AtomicU64::new(0),
            round_robin: AtomicUsize::new(0),
        }
    }

    /// Submissions accepted so far (each is owed exactly one completion;
    /// backpressured or post-shutdown attempts are not counted).
    pub(crate) fn accepted(&self) -> u64 {
        self.next_ticket.load(Ordering::Acquire)
    }

    /// The shutdown fence. After this returns, no further submission can
    /// land in any ingest ring: the flag flip happens-before the per-lane
    /// lock round, so a submitter that enqueued raced *before* the fence
    /// (its push is visible to the draining execution thread), and any
    /// later one observes `accepting == false` under the lane lock.
    pub(crate) fn close(&self) {
        self.accepting.store(false, Ordering::SeqCst);
        for lane in &self.lanes {
            drop(lane.lock().unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// The lane `program` enters: by its [`Program::routing_key`] — the
    /// hot-key hint, else the smallest static-footprint key, so hint-less
    /// programs with a known footprint (transfers, fused batches) still
    /// land on a deterministic lane — and round-robin for footprint-free
    /// programs.
    fn lane_of(&self, program: &Program) -> usize {
        let n = self.lanes.len();
        match program.routing_key() {
            Some(key) => (fx_hash_u64(key) % n as u64) as usize,
            None => self.round_robin.fetch_add(1, Ordering::Relaxed) % n,
        }
    }

    /// The one way into an ingest lane. Locks `lane`, refuses if the
    /// engine is closed or failed, and when the lane has room asks
    /// `wanted(requests, room)` how many of the caller's `requests` it
    /// wants in (≥ 1). It takes `k = min(room, wanted)`: mints `k` dense
    /// tickets with one `fetch_add`, pushes the `k` requests
    /// `fill(requests, first ticket, k)` hands over — front first, the
    /// `i`-th under ticket `first + i`, owed to `client` — with one ring
    /// publish, unlocks and rings the lane's bell. `wanted` and `fill`
    /// run only under the lane lock and only when the lane has room, so a
    /// refusal costs the lock alone, and whatever `fill` mints (an
    /// owner's tag) covers exactly the accepted work. Returns `k`: 0 when
    /// the lane is full.
    fn push<'r, R, I: IntoIterator<Item = (u64, Program)>>(
        &self,
        lane: usize,
        client: Option<u32>,
        requests: &'r mut R,
        wanted: impl FnOnce(&R, usize) -> usize,
        fill: impl FnOnce(&'r mut R, Ticket, usize) -> I,
    ) -> Result<usize, EngineClosed> {
        // The latency clock starts before the lane lock, not inside its
        // critical section: waiting for the lane counts, as waiting in
        // the ingest ring does.
        let submitted = Instant::now();
        let mut guard = lock_lane(&self.lanes[lane]);
        if !self.accepting.load(Ordering::SeqCst) || self.ctl.is_failed() {
            return Err(EngineClosed);
        }
        let Lane { ring, stage } = &mut *guard;
        // Room is counted before minting, so ticket ids stay dense
        // (= accepted count). Under the lane lock the occupancy can only
        // shrink (the execution thread drains concurrently), so the push
        // cannot fall short.
        let room = ring.capacity() - ring.len();
        if room == 0 {
            return Ok(0);
        }
        let k = wanted(requests, room).min(room);
        let first = self.next_ticket.fetch_add(k as u64, Ordering::AcqRel);
        let requests = fill(requests, Ticket(first), k).into_iter().take(k);
        let mut submissions = requests.zip(first..).map(|((tag, program), ticket)| {
            let reply = Reply {
                ticket: Ticket(ticket),
                client,
                tag,
            };
            Submission {
                reply,
                program,
                submitted,
            }
        });
        // One request is one `try_push`, as a single submission always
        // was; more are staged and published as one slice.
        let pushed = if k == 1 {
            submissions
                .next()
                .map_or(0, |s| usize::from(ring.try_push(s).is_ok()))
        } else {
            // Empty unless a caller's `fill` panicked mid-extend, which
            // poisons the lane: what that push staged never counts.
            stage.clear();
            stage.extend(submissions);
            ring.try_push_slice(stage)
        };
        assert_eq!(
            pushed, k,
            "room counted under the lane lock; ingest pushes are not fault-injected"
        );
        drop(guard);
        self.bells[lane].ring();
        Ok(k)
    }
}

/// A client handle into a running service-mode engine. Clone freely —
/// sessions share the engine's submission state and are `Send`; each
/// clone may live on its own client thread.
#[derive(Clone)]
pub struct Session {
    shared: Arc<SubmitShared>,
}

impl Session {
    pub(crate) fn new(shared: Arc<SubmitShared>) -> Self {
        Session { shared }
    }

    /// Submit without blocking, to the lane the program routes to (see
    /// the module docs). Mints a [`Ticket`] on success, and returns the
    /// program back inside [`TrySubmitError::Full`] when the destination
    /// ring is full. The completion comes back ownerless.
    pub fn try_submit(&self, program: Program) -> Result<Ticket, TrySubmitError> {
        self.submit_one(program, None, || 0)
    }

    /// [`Self::try_submit`], naming the completion's owner — a client id
    /// from [`crate::hub::CompletionHub::register`] and the owner's own
    /// tag for this submission. Both ride the submission and come back
    /// in the completion ([`crate::source::Completion::client`],
    /// [`crate::source::Completion::tag`]), which is how the hub routes
    /// it. `tag` is called at most once, under the lane lock and only
    /// once the submission is certain to be accepted (after the shutdown
    /// and backpressure checks): an owner that mints its tags from a
    /// counter gets a dense sequence covering exactly the accepted work.
    pub fn try_submit_owned(
        &self,
        program: Program,
        owner: u32,
        tag: impl FnOnce() -> u64,
    ) -> Result<Ticket, TrySubmitError> {
        self.submit_one(program, Some(owner), tag)
    }

    fn submit_one(
        &self,
        program: Program,
        client: Option<u32>,
        tag: impl FnOnce() -> u64,
    ) -> Result<Ticket, TrySubmitError> {
        let lane = self.shared.lane_of(&program);
        // The program until the lane takes it, then its ticket.
        let mut out = Err(program);
        let fill = |out: &mut Result<Ticket, Program>, ticket, _| {
            let taken = std::mem::replace(out, Ok(ticket));
            taken.err().map(|program| (tag(), program))
        };
        let pushed = self.shared.push(lane, client, &mut out, |_, _| 1, fill);
        out.map_err(|program| match pushed {
            Ok(_) => TrySubmitError::Full(program),
            Err(EngineClosed) => TrySubmitError::Shutdown(program),
        })
    }

    /// Submit `owner`'s requests from the front of `queue` in arrival
    /// order, each with its tag (a wire request id, say), which comes
    /// back in the completion beside `owner`. Consecutive requests bound
    /// for the same lane share one lane lock and one ring publish.
    ///
    /// Stops at the first refusal: what was accepted is gone from the
    /// front of `queue`, the refused request and everything behind it
    /// stay, in order. A refusal routes the refused request alone, so a
    /// retry against a full lane costs one lane lock whatever is parked.
    /// Returns how many were accepted (0: the first request's lane is
    /// full), or [`EngineClosed`] when the engine is shutting down and
    /// took none.
    pub fn try_submit_queue(
        &self,
        queue: &mut VecDeque<(u64, Program)>,
        owner: u32,
    ) -> Result<usize, EngineClosed> {
        let shared = &*self.shared;
        let mut taken = 0;
        // The lane of the request at the front, when the scan behind the
        // previous run already routed it: routing it again would advance
        // the round-robin counter twice, and skip a lane.
        let mut next = None;
        while let Some((_, head)) = queue.front() {
            let lane = next.take().unwrap_or_else(|| shared.lane_of(head));
            // The run bound for `lane`, scanned under the lane lock no
            // further than one request past the lane's room.
            let mut run = 1;
            let run_of = |queue: &VecDeque<(u64, Program)>, room| {
                for (_, program) in queue.iter().skip(1).take(room) {
                    let behind = shared.lane_of(program);
                    if behind != lane {
                        next = Some(behind);
                        break;
                    }
                    run += 1;
                }
                run
            };
            match shared.push(lane, Some(owner), queue, run_of, |q, _, k| q.drain(..k)) {
                Ok(k) => {
                    taken += k;
                    if k < run {
                        break;
                    }
                }
                Err(EngineClosed) if taken == 0 => return Err(EngineClosed),
                Err(EngineClosed) => break,
            }
        }
        Ok(taken)
    }

    /// Submit, backing off while the destination ring is full (the
    /// open-loop driver's saturation behaviour: offered load beyond
    /// engine capacity queues here). Errors only on shutdown — or once an
    /// engine thread has died, when the lanes will never drain again.
    ///
    /// Every fruitless attempt is one [`Backoff::snooze`]: a yield that
    /// hands a shared core to the engine thread that has to drain the
    /// ring, and under the sim scheduler a park step that hands it the
    /// token (`crates/sim/tests/blocking_submit.rs` hangs without it).
    ///
    /// Completions should be drained (`EngineHandle::drain_completions`)
    /// alongside sustained submission: the completion rings are the
    /// bounded fast path, and a client that lags parks its completions
    /// in engine-side overflow buffers — never lost, never wedging the
    /// engine, but memory grows with the lag until the client drains.
    pub fn submit(&self, mut program: Program) -> Result<Ticket, TrySubmitError> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_submit(program) {
                Ok(t) => return Ok(t),
                Err(TrySubmitError::Full(p)) => {
                    program = p;
                    backoff.snooze();
                }
                Err(e @ TrySubmitError::Shutdown(_)) => return Err(e),
            }
        }
    }

    /// Tickets accepted engine-wide so far (across all sessions).
    pub fn accepted(&self) -> u64 {
        self.shared.accepted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_spsc::{channel, Consumer};

    fn shared(lanes: usize, capacity: usize) -> (Arc<SubmitShared>, Vec<Consumer<Submission>>) {
        let mut producers = Vec::new();
        let mut consumers = Vec::new();
        for _ in 0..lanes {
            let (p, c) = channel::<Submission>(capacity);
            producers.push(p);
            consumers.push(c);
        }
        let bells = (0..lanes).map(|_| Doorbell::new()).collect();
        let shared = SubmitShared::new(producers, bells, Arc::new(RunCtl::new()));
        (Arc::new(shared), consumers)
    }

    fn rmw(key: u64) -> Program {
        Program::Rmw { keys: vec![key] }
    }

    /// Tag each program with `100 + its index`.
    fn tagged(programs: Vec<Program>) -> VecDeque<(u64, Program)> {
        (100..).zip(programs).collect()
    }

    #[test]
    fn full_ring_backpressure_is_deterministic_and_lossless() {
        // One lane of capacity 4 (rings round up to powers of two):
        // exactly 4 submissions are accepted, the 5th returns Full with
        // the program intact, and the accepted-ticket count excludes it.
        let (s, mut consumers) = shared(1, 4);
        let session = Session::new(Arc::clone(&s));
        let mut tickets = Vec::new();
        for i in 0..4 {
            tickets.push(session.try_submit(rmw(i)).expect("ring has space"));
        }
        let no_tag = || unreachable!("refused work must not mint a tag");
        match session.try_submit_owned(rmw(99), 7, no_tag) {
            Err(TrySubmitError::Full(p)) => assert_eq!(p, rmw(99), "program handed back"),
            other => panic!("5th submission must backpressure, got {other:?}"),
        }
        assert_eq!(s.accepted(), 4, "rejected attempts must not mint tickets");
        // Every accepted ticket is in the ring, in order.
        for expect in &tickets {
            assert_eq!(consumers[0].try_pop().unwrap().reply.ticket, *expect);
        }
        // Space freed: submission works again.
        assert!(session.try_submit(rmw(5)).is_ok());
    }

    #[test]
    fn hot_key_hint_routes_to_a_stable_lane() {
        let (s, consumers) = shared(4, 64);
        let session = Session::new(Arc::clone(&s));
        for _ in 0..12 {
            session.try_submit(rmw(7)).unwrap();
        }
        let occupied: Vec<usize> = consumers.iter().map(Consumer::len).collect();
        assert_eq!(
            occupied.iter().sum::<usize>(),
            12,
            "all submissions landed somewhere"
        );
        assert_eq!(
            occupied.iter().filter(|&&n| n > 0).count(),
            1,
            "same hot key must always route to the same execution thread: {occupied:?}"
        );
    }

    #[test]
    fn hintless_programs_round_robin() {
        let (s, consumers) = shared(3, 64);
        let session = Session::new(Arc::clone(&s));
        for _ in 0..9 {
            session
                .try_submit(Program::Rmw { keys: vec![] })
                .expect("empty programs still route");
        }
        for c in &consumers {
            assert_eq!(c.len(), 3, "round-robin must spread hintless work");
        }
    }

    /// A queue of hint-less programs round-robins too, though each is
    /// routed while scanning for the end of the run before it: on two
    /// lanes, a request routed twice would land on its predecessor's lane.
    #[test]
    fn queued_hintless_programs_round_robin() {
        let (s, consumers) = shared(2, 64);
        let session = Session::new(Arc::clone(&s));
        let mut queue = tagged(vec![Program::Rmw { keys: vec![] }; 8]);
        assert_eq!(session.try_submit_queue(&mut queue, 1), Ok(8));
        for c in &consumers {
            assert_eq!(c.len(), 4, "round-robin must spread queued hintless work");
        }
    }

    #[test]
    fn hintless_programs_with_footprints_route_by_footprint() {
        // Regression (ISSUE 9 satellite): routing once keyed on
        // `hot_key_hint` alone, so hint-less programs with a perfectly
        // known footprint (transfers, fused batches) round-robined — and
        // a partitioned front-end classifying by footprint would disagree
        // with the lane the session picked. The footprint fallback must
        // pin them to one deterministic lane, symmetric in argument order.
        let (s, consumers) = shared(4, 64);
        let session = Session::new(Arc::clone(&s));
        for i in 0..6 {
            let (from, to) = if i % 2 == 0 { (7, 3) } else { (3, 7) };
            let p = Program::Transfer {
                from,
                to,
                amount: 1,
            };
            assert_eq!(p.hot_key_hint(), None, "transfer must stay hint-less");
            session.try_submit(p).unwrap();
        }
        session
            .try_submit(Program::Fused {
                epoch: 1,
                parts: vec![Program::Adjust { key: 3, delta: 1 }],
            })
            .unwrap();
        let occupied: Vec<usize> = consumers.iter().map(Consumer::len).collect();
        assert_eq!(occupied.iter().sum::<usize>(), 7);
        assert_eq!(
            occupied.iter().filter(|&&n| n > 0).count(),
            1,
            "footprint key 3 must pin every submission to one lane: {occupied:?}"
        );
    }

    #[test]
    fn close_fences_out_new_submissions() {
        let (s, consumers) = shared(2, 16);
        let session = Session::new(Arc::clone(&s));
        session.try_submit(rmw(1)).unwrap();
        s.close();
        let no_tag = || unreachable!("refused work must not mint a tag");
        match session.try_submit_owned(rmw(2), 7, no_tag) {
            Err(TrySubmitError::Shutdown(p)) => assert_eq!(p, rmw(2)),
            other => panic!("post-close submission must be refused, got {other:?}"),
        }
        match session.submit(rmw(3)) {
            Err(TrySubmitError::Shutdown(_)) => {}
            other => panic!("blocking submit must also refuse, got {other:?}"),
        }
        assert_eq!(s.accepted(), 1);
        assert_eq!(consumers.iter().map(Consumer::len).sum::<usize>(), 1);
    }

    /// A dead engine thread fences the lanes like a shutdown: a full
    /// lane no longer means "wait", since nothing will drain it.
    #[test]
    fn a_failed_engine_refuses_every_submission() {
        let (s, _consumers) = shared(1, 2);
        let session = Session::new(Arc::clone(&s));
        session.try_submit(rmw(0)).unwrap();
        session.try_submit(rmw(1)).unwrap();
        s.ctl.mark_failed();
        match session.submit(rmw(2)) {
            Err(TrySubmitError::Shutdown(p)) => assert_eq!(p, rmw(2)),
            other => panic!("a blocking submit into a failed engine must fail, got {other:?}"),
        }
        let mut queue = tagged(vec![rmw(3)]);
        assert_eq!(session.try_submit_queue(&mut queue, 1), Err(EngineClosed));
        assert_eq!(s.accepted(), 2);
    }

    #[test]
    fn batch_submit_accepts_everything_that_fits() {
        let (s, mut consumers) = shared(2, 16);
        let session = Session::new(Arc::clone(&s));
        // Hot keys pin lanes; hintless programs round-robin.
        let mut queue = tagged(vec![rmw(1), rmw(2), rmw(1), Program::Rmw { keys: vec![] }]);
        assert_eq!(session.try_submit_queue(&mut queue, 9), Ok(4));
        assert!(queue.is_empty(), "everything accepted leaves the queue");
        // Dense tickets: exactly 0..4 minted, in arrival order, each
        // with its request's tag.
        assert_eq!(s.accepted(), 4);
        let mut seen: Vec<(u64, u64)> = Vec::new();
        for c in &mut consumers {
            while let Some(sub) = c.try_pop() {
                seen.push((sub.reply.ticket.0, sub.reply.tag));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 100), (1, 101), (2, 102), (3, 103)]);
    }

    /// One lane, capacity 4: a queue of 7 has its first 4 accepted; the
    /// overflow stays queued, in order, tags and programs intact.
    #[test]
    fn batch_submit_hands_back_overflow_per_lane() {
        let (s, mut consumers) = shared(1, 4);
        let session = Session::new(Arc::clone(&s));
        let mut queue = tagged((0..7).map(rmw).collect());
        assert_eq!(session.try_submit_queue(&mut queue, 3), Ok(4));
        assert_eq!(s.accepted(), 4, "refused requests must not mint tickets");
        assert_eq!(queue, [(104, rmw(4)), (105, rmw(5)), (106, rmw(6))]);
        // A full lane takes nothing and leaves the queue alone.
        assert_eq!(session.try_submit_queue(&mut queue, 3), Ok(0));
        assert_eq!(queue.len(), 3);
        // Room for one: the head goes, the rest waits behind it.
        assert_eq!(consumers[0].try_pop().map(|sub| sub.reply.tag), Some(100));
        assert_eq!(session.try_submit_queue(&mut queue, 3), Ok(1));
        assert_eq!(queue.front().map(|r| r.0), Some(105));
    }

    /// A queue submit routes no further than one request past the lane's
    /// room, and a refusal routes the head alone — counted on the
    /// round-robin counter, which routing each hint-less request bumps.
    #[test]
    fn a_queue_submit_routes_one_past_the_room_and_a_refusal_only_the_head() {
        let (s, _consumers) = shared(1, 4);
        let session = Session::new(Arc::clone(&s));
        let routed = || s.round_robin.load(Ordering::Relaxed);
        let mut queue = tagged(vec![Program::Rmw { keys: vec![] }; 100]);
        assert_eq!(session.try_submit_queue(&mut queue, 1), Ok(4));
        assert_eq!(routed(), 5, "the head and the four behind it");
        assert_eq!(session.try_submit_queue(&mut queue, 1), Ok(0));
        assert_eq!(routed(), 6, "a full lane: the head alone");
    }

    #[test]
    fn batch_submit_after_close_reports_shutdown() {
        let (s, _consumers) = shared(2, 8);
        let session = Session::new(Arc::clone(&s));
        s.close();
        let mut queue = tagged(vec![rmw(1), rmw(2)]);
        assert_eq!(session.try_submit_queue(&mut queue, 3), Err(EngineClosed));
        assert_eq!(
            queue,
            tagged(vec![rmw(1), rmw(2)]),
            "the queue is untouched"
        );
        assert_eq!(s.accepted(), 0);
    }

    /// Requests bound for two lanes enter in arrival order: tickets
    /// follow the queue, and once one lane is full nothing behind its
    /// refused request is taken, not even for the lane with room.
    #[test]
    fn queued_requests_for_two_lanes_enter_in_arrival_order() {
        let (s, mut consumers) = shared(2, 2);
        let session = Session::new(Arc::clone(&s));
        // The `i`-th program bound for `lane`.
        let to = |lane, i: u64| {
            rmw((1_000 * i..)
                .find(|&k| fx_hash_u64(k) % 2 == lane)
                .unwrap_or(0))
        };
        let mut queue = tagged(vec![to(0, 1), to(0, 2), to(1, 1), to(0, 3), to(1, 2)]);
        assert_eq!(session.try_submit_queue(&mut queue, 5), Ok(3));
        let left: Vec<u64> = queue.iter().map(|r| r.0).collect();
        assert_eq!(left, [103, 104], "lane 1 had room, but waits behind lane 0");
        // Lane 0 drains one; the rest enters, still in order.
        assert_eq!(consumers[0].try_pop().map(|sub| sub.reply.tag), Some(100));
        assert_eq!(session.try_submit_queue(&mut queue, 5), Ok(2));
        let lane = |c: &mut Consumer<Submission>| {
            std::iter::from_fn(|| c.try_pop().map(|sub| (sub.reply.ticket.0, sub.reply.tag)))
                .collect::<Vec<_>>()
        };
        assert_eq!(lane(&mut consumers[0]), [(1, 101), (3, 103)]);
        assert_eq!(lane(&mut consumers[1]), [(2, 102), (4, 104)]);
    }

    /// The return address is in the submission itself, as popped from
    /// the lane: owner and tag for owned work (single and queued), nobody
    /// for plain work.
    #[test]
    fn owned_submissions_carry_their_return_address() {
        let (s, mut consumers) = shared(1, 64);
        let session = Session::new(Arc::clone(&s));
        let t = session.try_submit_owned(rmw(1), 42, || 5).unwrap();
        let t2 = session.try_submit(rmw(2)).unwrap();
        let mut queue = tagged((0..40).map(rmw).collect());
        assert_eq!(session.try_submit_queue(&mut queue, 7), Ok(40));

        let mut pop = || {
            consumers[0]
                .try_pop()
                .expect("accepted work is in the lane")
        };
        let owned = |ticket, client, tag| Reply {
            ticket,
            client: Some(client),
            tag,
        };
        assert_eq!(pop().reply, owned(t, 42, 5));
        let plain = pop().reply;
        assert_eq!((plain.ticket, plain.client), (t2, None));
        for i in 0..40 {
            let sub = pop();
            assert_eq!(sub.reply, owned(Ticket(2 + i), 7, 100 + i));
            assert_eq!(sub.program, rmw(i), "the tag rides its program");
        }
    }

    #[test]
    fn blocking_submit_waits_for_drain() {
        let (s, mut consumers) = shared(1, 2);
        let session = Session::new(Arc::clone(&s));
        session.try_submit(rmw(0)).unwrap();
        session.try_submit(rmw(1)).unwrap();
        let h = std::thread::spawn(move || session.submit(rmw(2)).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(consumers[0].try_pop().unwrap().reply.ticket, Ticket(0));
        let t = h.join().unwrap();
        assert_eq!(t, Ticket(2));
        assert_eq!(s.accepted(), 3);
    }
}
