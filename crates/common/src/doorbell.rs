//! A one-waiter doorbell: the event wait that replaces sleep-polling.
//!
//! A consumer that found nothing to do calls [`Doorbell::wait`] with the
//! predicate it is waiting for; a producer calls [`Doorbell::ring`]
//! *after* publishing whatever makes that predicate true. Nobody sleeps
//! on a timer, and when nobody is parked a ring costs one fence and one
//! load — cheap enough for an execution thread to pay every quantum.
//!
//! The handshake is the classic store-then-check on both sides:
//!
//! ```text
//! waiter:  parked = true ; fence ; re-check predicate ; park
//! ringer:  publish data  ; fence ; if parked { parked = false ; unpark }
//! ```
//!
//! The two `SeqCst` fences order each side's store before its load, so
//! at least one of them sees the other: either the waiter's re-check
//! observes the published data, or the ringer observes `parked` and
//! unparks. `unpark` before `park` is not lost either — the thread's
//! park token makes the next `park` return at once.
//!
//! One thread waits at a time (whichever thread called `wait` last is
//! the one rung); any number may ring. A bare `unpark` of the waiting
//! thread is a valid nudge too: every return from `park` goes back to
//! the predicate.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::sim;

/// Re-checks (with a `yield_now` after each) before a waiter parks.
///
/// On an idle core a yield returns at once, so this is ~3 µs of polling
/// that saves a futex round trip when the event is about to land. On a
/// busy core it hands the CPU to whoever is runnable — often the very
/// producer being waited for — instead of burning it: with more wire
/// threads than cores, pause-spinning here for 15 µs instead cost the
/// 8-connection TCP front door 40 % of its throughput (measured on 2
/// cores; the 2-connection case was indifferent between the two, and
/// both beat parking at once).
const YIELDS_BEFORE_PARK: u32 = 8;

/// How long a poll loop that owns an inbox doorbell keeps yield-polling
/// with nothing to do before [`Backoff::snooze_on`](crate::Backoff::snooze_on)
/// parks it. Longer than any gap a loaded engine shows — a 4 000/s open
/// loop leaves 250 µs between requests, and none of them should pay a
/// futex wake inside the engine — and short enough that an engine nobody
/// talks to is off its cores after a millisecond.
pub(crate) const IDLE_BEFORE_PARK: Duration = Duration::from_millis(1);

#[derive(Debug, Default)]
pub struct Doorbell {
    /// Set by the waiter just before it parks; cleared by the ringer
    /// that takes responsibility for waking it (or by the waiter itself
    /// when its re-check succeeds).
    parked: AtomicBool,
    /// The thread to unpark, recorded before `parked` is set. Poison is
    /// ignored: a plain assignment is the only update ever made under it.
    waiter: Mutex<Option<Thread>>,
}

impl Doorbell {
    pub fn new() -> Self {
        Doorbell::default()
    }

    /// Wake the waiter if it is parked (or about to park). Call after
    /// publishing the data the waiter's predicate reads.
    #[inline]
    pub fn ring(&self) {
        // Pairs with the fence in `wait_until`: see the module docs.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            self.wake();
        }
    }

    #[cold]
    fn wake(&self) {
        // The swap elects one ringer among several to pay the unpark.
        if self.parked.swap(false, Ordering::SeqCst) {
            let waiter = self.waiter.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(t) = waiter.as_ref() {
                t.unpark();
            }
        }
    }

    /// Block until `ready()` holds.
    ///
    /// Under the sim scheduler an enrolled thread never OS-blocks: the
    /// wait is one `sim::on_park()` step (yield the virtual-time token)
    /// and the call returns whether `ready()` holds yet — callers loop.
    pub fn wait(&self, ready: impl FnMut() -> bool) -> bool {
        self.wait_until(ready, None)
    }

    /// [`wait`](Self::wait), giving up at `deadline`. Returns whether
    /// `ready()` held when the call returned.
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool, deadline: Option<Instant>) -> bool {
        if sim::on_park() {
            return ready();
        }
        // The event is often imminent (a peer thread is mid-publish), so
        // re-check a few times before paying for a futex — yielding in
        // between, not pause-spinning: see `YIELDS_BEFORE_PARK`.
        for _ in 0..YIELDS_BEFORE_PARK {
            if ready() {
                return true;
            }
            thread::yield_now();
        }
        self.park_until(ready, deadline)
    }

    /// The park itself, with no polling first: for [`wait_until`](Self::wait_until)
    /// and for a loop that has done its own polling
    /// ([`Backoff::snooze_on`](crate::Backoff::snooze_on)). The caller
    /// has already passed the sim seam.
    pub(crate) fn park_until(
        &self,
        mut ready: impl FnMut() -> bool,
        deadline: Option<Instant>,
    ) -> bool {
        *self.waiter.lock().unwrap_or_else(PoisonError::into_inner) = Some(thread::current());
        let ready = loop {
            self.parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if ready() {
                break true;
            }
            match deadline {
                None => thread::park(),
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => thread::park_timeout(left),
                    _ => break false,
                },
            }
            // Rung, timed out, or a spurious return: the loop re-arms
            // and re-checks in every case.
        };
        self.parked.store(false, Ordering::SeqCst);
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn ring_before_wait_does_not_block() {
        let bell = Doorbell::new();
        let flag = AtomicBool::new(false);
        flag.store(true, Ordering::Release);
        bell.ring(); // nobody parked: a no-op, and nothing to lose
        assert!(bell.wait(|| flag.load(Ordering::Acquire)));
        assert!(!bell.parked.load(Ordering::SeqCst));
    }

    #[test]
    fn deadline_returns_without_a_ring() {
        let bell = Doorbell::new();
        let t0 = Instant::now();
        let ready = bell.wait_until(|| false, Some(t0 + Duration::from_millis(5)));
        assert!(!ready);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert!(!bell.parked.load(Ordering::SeqCst), "flag cleared on exit");
    }

    /// A stale park token (or any spurious `park` return) must send the
    /// waiter back to its predicate, not out of `wait`.
    #[test]
    fn spurious_park_returns_recheck_the_predicate() {
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (bell, flag) = (Arc::clone(&bell), Arc::clone(&flag));
            thread::spawn(move || {
                // Pre-load the park token: the first `park` inside
                // `wait` returns immediately with the predicate false.
                thread::current().unpark();
                let ready = bell.wait(|| flag.load(Ordering::Acquire));
                assert!(ready && flag.load(Ordering::Acquire));
            })
        };
        // Unpark the waiter behind the doorbell's back a few times once
        // it has armed; only the real ring below may release it.
        while !bell.parked.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        for _ in 0..3 {
            waiter.thread().unpark();
            thread::yield_now();
        }
        assert!(
            !waiter.is_finished(),
            "spurious wake-ups must not end the wait"
        );
        flag.store(true, Ordering::Release);
        bell.ring();
        waiter.join().expect("waiter");
    }

    /// Lost-wakeup check: two threads hand a turn counter back and
    /// forth, each waiting on its own doorbell. One lost wake-up hangs
    /// the test.
    fn handoffs(n: u64, wait: fn(&Doorbell, &AtomicU64, u64)) {
        let turn = Arc::new(AtomicU64::new(0));
        let bells = Arc::new([Doorbell::new(), Doorbell::new()]);
        let player = |me: u64| {
            let (turn, bells) = (Arc::clone(&turn), Arc::clone(&bells));
            move || {
                // Player 0 moves on even turns, player 1 on odd ones.
                let mut next = me;
                while next < n {
                    wait(&bells[me as usize], &turn, next);
                    turn.store(next + 1, Ordering::Release);
                    bells[1 - me as usize].ring();
                    next += 2;
                }
            }
        };
        let a = thread::spawn(player(0));
        let b = thread::spawn(player(1));
        a.join().expect("player 0");
        b.join().expect("player 1");
        assert_eq!(turn.load(Ordering::Acquire), n);
    }

    #[test]
    fn a_million_handoffs_lose_no_wakeup() {
        handoffs(1_000_000, |bell, turn, next| {
            bell.wait(|| turn.load(Ordering::Acquire) == next);
        });
    }

    /// The same through the idle-park entry point, which arms without
    /// polling first: every handoff is a real park/unpark race.
    #[test]
    fn parking_at_once_loses_no_wakeup_either() {
        handoffs(200_000, |bell, turn, next| {
            bell.park_until(|| turn.load(Ordering::Acquire) == next, None);
        });
    }

    /// A poll loop left alone parks on its bell, and a ring brings it
    /// back: the ringer moves only once it has seen the loop parked.
    #[test]
    fn an_idle_poll_loop_parks_and_a_ring_wakes_it() {
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let t0 = Instant::now();
        let poller = {
            let (bell, flag) = (Arc::clone(&bell), Arc::clone(&flag));
            thread::spawn(move || {
                let mut backoff = crate::Backoff::new();
                while !flag.load(Ordering::Acquire) {
                    backoff.snooze_on(&bell, || flag.load(Ordering::Acquire));
                }
            })
        };
        while !bell.parked.load(Ordering::SeqCst) {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "an idle loop must park"
            );
            thread::yield_now();
        }
        assert!(t0.elapsed() >= IDLE_BEFORE_PARK, "parked before its time");
        flag.store(true, Ordering::Release);
        bell.ring();
        poller.join().expect("poller");
    }
}
