//! The deterministic-simulation seam.
//!
//! Every cross-thread handoff in the engine — SPSC ring push/pop, fan-in
//! round starts, backoff parks, and named synchronization points like
//! command-log appends — funnels through the hooks in this module. With no
//! scheduler installed each hook is a single relaxed atomic load and the
//! engine runs at full speed on real threads. With a scheduler installed
//! (see `orthrus-sim`), enrolled threads hand control to it at every hook:
//! the scheduler serializes execution onto one runnable thread at a time,
//! picks interleavings from a seeded RNG, and may *deny* an operation to
//! model a full ring (push) or a delayed delivery (pop).
//!
//! The contract that keeps a simulated run deadlock-free: a hook may only
//! be reached while the thread holds no OS lock that another enrolled
//! thread can block on. Ring operations and backoff parks satisfy this by
//! construction (the rings are latch-free; parks happen in wait loops);
//! the durability layer consults its hooks *before* taking the log mutex.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Identifies one SPSC ring for tracing. `0` means "allocated while no
/// scheduler was installed" and is never traced.
pub type ChanId = u32;

/// One observable step at a simulation hook.
#[derive(Debug, Clone, Copy)]
pub enum SimOp<'a> {
    /// About to publish `n` messages into ring `chan`.
    Push {
        chan: ChanId,
        label: &'a str,
        n: usize,
    },
    /// About to consume from ring `chan` (single pop or batch drain).
    Pop { chan: ChanId, label: &'a str },
    /// A wait loop found no work and would spin/yield.
    Park,
    /// A named synchronization point (e.g. `"durability.append"`).
    Point { name: &'a str },
}

/// What the scheduler decided about one hooked operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimDecision {
    /// Perform the operation.
    Proceed,
    /// Deny it (pretend-full push, pretend-empty pop).
    Deny,
    /// Kill the calling thread here: the dispatch layer panics on its
    /// behalf (after releasing the scheduler lock), modelling a thread
    /// that dies mid-run. The enrollment guard retires it during unwind.
    Crash,
}

/// A simulation scheduler: owns virtual time and decides, at every hook,
/// who runs next and whether the operation proceeds.
pub trait Scheduler: Send + Sync {
    /// Enroll the calling thread under `name`. Blocks until every expected
    /// thread has enrolled *and* this thread is granted the virtual-time
    /// token, so execution after enrollment is fully serialized. Returns
    /// `None` if `name` is not an expected participant (the thread then
    /// runs unenrolled, outside the simulation).
    fn register(&self, name: &str) -> Option<usize>;

    /// The thread is exiting; pass the token on.
    fn unregister(&self, thread: usize);

    /// Thread `thread` reached a hook. May block to run other threads
    /// first; the returned [`SimDecision`] says whether the operation
    /// proceeds, is denied, or the thread is crashed on the spot.
    fn reached(&self, thread: usize, op: SimOp<'_>) -> SimDecision;

    /// Pick the starting lane for a fan-in drain round (grant/message
    /// reordering), or `None` to keep the engine's own rotation.
    fn fanin_start(&self, thread: usize, lanes: usize) -> Option<usize>;

    /// Whether the thread enrolled under `name` is still live (enrolled
    /// and not yet exited) in **virtual** time. Wait loops use this in
    /// place of `JoinHandle::is_finished`, which flips on *OS* time: a
    /// retired thread's handle stays unfinished for however long its
    /// real unwind takes, and a hooked spin gated on that would record a
    /// timing-dependent number of steps — nondeterminism. `None` means
    /// the name is not a participant of this simulation (it runs
    /// unenrolled; the caller should fall back to the OS-level check).
    fn peer_live(&self, name: &str) -> Option<bool> {
        let _ = name;
        None
    }

    /// Assign a trace id to a newly created ring.
    fn alloc_chan(&self, label: &'static str) -> ChanId;

    /// Isolation oracle: a CC thread granted the last lock of `token`'s
    /// lock set (see [`on_grant`]).
    fn on_grant(&self, token: u64) {
        let _ = token;
    }

    /// Isolation oracle: `ticket` committed under `token`'s lock set
    /// (`None`: it asked for no lock), and its reads fold to `digest`
    /// (see [`on_commit`]).
    fn on_commit(&self, token: Option<u64>, ticket: u64, digest: u64) {
        let _ = (token, ticket, digest);
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SCHEDULER: RwLock<Option<Arc<dyn Scheduler>>> = RwLock::new(None);

thread_local! {
    /// The enrolled thread id, if this OS thread is participating.
    static SIM_THREAD: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Install a scheduler process-wide. Engines started afterwards route
/// every handoff through it. Panics if one is already installed.
pub fn install(sched: Arc<dyn Scheduler>) {
    let mut slot = SCHEDULER.write().unwrap();
    assert!(slot.is_none(), "a sim scheduler is already installed");
    *slot = Some(sched);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Remove the installed scheduler. Callers must have retired every
/// enrolled thread first (a parked thread would deadlock the write lock).
pub fn uninstall() {
    ACTIVE.store(false, Ordering::SeqCst);
    *SCHEDULER.write().unwrap() = None;
}

/// Whether a scheduler is installed (racy snapshot; cheap).
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Enrollment handle: retires the thread from the simulation on drop, so
/// a panicking worker still passes the token on during unwind.
pub struct SimGuard {
    enrolled: Option<usize>,
}

impl Drop for SimGuard {
    fn drop(&mut self) {
        if let Some(id) = self.enrolled.take() {
            SIM_THREAD.with(|t| t.set(None));
            if let Some(sched) = SCHEDULER.read().unwrap().as_ref() {
                sched.unregister(id);
            }
        }
    }
}

/// Enroll the calling thread under `name`. A no-op guard when no
/// scheduler is installed. Blocks until the simulation grants the token
/// (see [`Scheduler::register`]).
pub fn enroll(name: &str) -> SimGuard {
    if !is_active() {
        return SimGuard { enrolled: None };
    }
    let enrolled = SCHEDULER
        .read()
        .unwrap()
        .as_ref()
        .and_then(|s| s.register(name));
    if let Some(id) = enrolled {
        SIM_THREAD.with(|t| t.set(Some(id)));
    }
    SimGuard { enrolled }
}

/// Dispatch `op` for the calling thread if it is enrolled under an
/// installed scheduler. Returns `None` when not simulating.
#[inline]
fn dispatch(op: SimOp<'_>) -> Option<bool> {
    if !is_active() {
        return None;
    }
    dispatch_slow(op)
}

#[cold]
fn dispatch_slow(op: SimOp<'_>) -> Option<bool> {
    let me = SIM_THREAD.with(|t| t.get())?;
    let guard = SCHEDULER.read().unwrap();
    let sched = guard.as_ref()?;
    match sched.reached(me, op) {
        SimDecision::Proceed => Some(true),
        SimDecision::Deny => Some(false),
        SimDecision::Crash => {
            // Release the scheduler read lock *before* unwinding: the
            // enrollment guard's drop re-acquires it to unregister, and
            // std's RwLock is not reentrant.
            drop(guard);
            panic!("sim: injected crash of enrolled thread {me}");
        }
    }
}

/// Hook before publishing `n` messages. `false` = pretend the ring is
/// full (the caller must return its not-pushed value / zero count).
#[inline]
pub fn on_push(chan: ChanId, label: &str, n: usize) -> bool {
    dispatch(SimOp::Push { chan, label, n }).unwrap_or(true)
}

/// Hook before consuming. `false` = pretend the ring is empty (delayed
/// delivery; the messages stay queued for a later round).
#[inline]
pub fn on_pop(chan: ChanId, label: &str) -> bool {
    dispatch(SimOp::Pop { chan, label }).unwrap_or(true)
}

/// Hook inside wait loops. Returns `true` when the simulation consumed
/// the park (the caller should skip its real spin/yield).
#[inline]
pub fn on_park() -> bool {
    dispatch(SimOp::Park).is_some()
}

/// Whether the thread enrolled under `name` is still live in virtual
/// time. `None` when no scheduler is installed *or* the name is not a
/// participant of the current simulation — callers then fall back to an
/// OS-level check like `JoinHandle::is_finished`. See
/// [`Scheduler::peer_live`] for why join-wait loops must not gate on OS
/// time under the simulation.
pub fn peer_live(name: &str) -> Option<bool> {
    if !is_active() {
        return None;
    }
    SCHEDULER
        .read()
        .unwrap()
        .as_ref()
        .and_then(|s| s.peer_live(name))
}

/// Whether a spawned thread is still running, preferring virtual-time
/// liveness over the OS clock: under a scheduler that knows `name`,
/// this is [`peer_live`]; otherwise it falls back to
/// `JoinHandle::is_finished`. Join-wait loops that record sim steps
/// (hooked pops/parks) must gate on this, not on `is_finished`
/// directly — see [`Scheduler::peer_live`].
pub fn thread_running<T>(handle: &std::thread::JoinHandle<T>, name: &str) -> bool {
    match peer_live(name) {
        Some(live) => live,
        None => !handle.is_finished(),
    }
}

/// Hook at a named synchronization point. The return value is currently
/// always `true`; failure injection at points goes through the
/// [`failpoint`](crate::failpoint) registry instead.
#[inline]
pub fn on_point(name: &str) -> bool {
    dispatch(SimOp::Point { name }).unwrap_or(true)
}

/// Ask the scheduler for a fan-in start lane (message reordering).
#[inline]
pub fn fanin_start(lanes: usize) -> Option<usize> {
    if !is_active() {
        return None;
    }
    let me = SIM_THREAD.with(|t| t.get())?;
    let guard = SCHEDULER.read().unwrap();
    guard.as_ref()?.fanin_start(me, lanes)
}

/// Isolation-oracle hook, called by a CC thread when it grants the last
/// lock a lock set asked for: every lock of `token` (a packed exec
/// token) is held from here until its releases. The scheduler stamps
/// the grant with the next number of one global sequence. The stamp is
/// taken at the grant, not at execution, on purpose: under the
/// scheduler a run executes between two hooks, so runs never interleave
/// and any execution order replays its own reads. Whether the locks did
/// their job shows in whether *grant* order replays them. Not a
/// scheduling point.
#[inline]
pub fn on_grant(token: u64) {
    if is_active() {
        record(|s| s.on_grant(token));
    }
}

/// Isolation-oracle hook, called by an execution thread for every
/// ticketed transaction it commits, in execution order: the lock set it
/// ran under (`None` when it asked for none) and a digest of what it
/// read (the value `orthrus_txn::execute` returns). Not a scheduling
/// point.
#[inline]
pub fn on_commit(token: Option<u64>, ticket: u64, digest: u64) {
    if is_active() {
        record(|s| s.on_commit(token, ticket, digest));
    }
}

/// Hand an oracle record to the installed scheduler. The slot is
/// written only by [`install`] and [`uninstall`], so a poisoned lock
/// still holds a whole value.
#[cold]
fn record(f: impl FnOnce(&dyn Scheduler)) {
    if let Some(s) = SCHEDULER
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        f(s.as_ref());
    }
}

/// Allocate a trace id for a new ring (0 when not simulating).
#[inline]
pub fn alloc_chan(label: &'static str) -> ChanId {
    if !is_active() {
        return 0;
    }
    let guard = SCHEDULER.read().unwrap();
    guard.as_ref().map_or(0, |s| s.alloc_chan(label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_pass_through_when_inactive() {
        assert!(!is_active());
        assert!(on_push(0, "x", 1));
        assert!(on_pop(0, "x"));
        assert!(!on_park());
        assert!(on_point("p"));
        assert_eq!(fanin_start(4), None);
        assert_eq!(alloc_chan("x"), 0);
        let _guard = enroll("nobody"); // no-op
    }
}
