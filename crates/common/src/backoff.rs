//! Yield-first backoff: the one wait policy of every poll loop.
//!
//! The paper's prototype busy-spins (it owns all 80 cores, one pinned
//! thread each). This reproduction pins with `core % nproc`, so threads
//! share cores on any smaller host, and a waiter that pause-spins does
//! so on the very core its producer needs. A fruitless poll therefore
//! yields at once: on a core the thread has to itself `sched_yield`
//! returns immediately and the loop stays a sub-microsecond poll, on a
//! shared core it hands the CPU to whoever is runnable. A thread with a
//! [`Doorbell`] on its inbox goes one step further and parks once it has
//! polled for [`IDLE_BEFORE_PARK`] with nothing to do. See DESIGN.md
//! substitution #1.

use std::thread;
use std::time::Instant;

use crate::doorbell::{Doorbell, IDLE_BEFORE_PARK};
use crate::sim;

/// One wait episode of a poll loop. Reset after making progress.
#[derive(Debug, Default)]
pub struct Backoff {
    /// The episode's first fruitless [`snooze_on`](Self::snooze_on).
    idle_since: Option<Instant>,
}

impl Backoff {
    #[inline]
    pub fn new() -> Self {
        Backoff::default()
    }

    /// One fruitless poll: give the core away. Under a sim scheduler the
    /// park hook replaces the yield — handing over the virtual-time
    /// token is the simulated analogue of waiting.
    #[inline]
    pub fn snooze(&mut self) {
        if !sim::on_park() {
            thread::yield_now();
        }
    }

    /// [`snooze`](Self::snooze) for a thread whose producers ring `bell`
    /// after publishing: yield like any other waiter, but once the
    /// episode has lasted [`IDLE_BEFORE_PARK`], park until `ready()`
    /// holds. `ready` must cover everything the caller's next poll could
    /// act on. Under a sim scheduler this is the same single park step
    /// as `snooze`.
    #[inline]
    pub fn snooze_on(&mut self, bell: &Doorbell, ready: impl FnMut() -> bool) {
        if sim::on_park() {
            return;
        }
        let now = Instant::now();
        if now.duration_since(*self.idle_since.get_or_insert(now)) < IDLE_BEFORE_PARK {
            thread::yield_now();
        } else {
            bell.park_until(ready, None);
            // Woken for a reason: poll for a while again before parking.
            self.idle_since = None;
        }
    }

    /// Restart the episode (call after making progress).
    #[inline]
    pub fn reset(&mut self) {
        self.idle_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_young_episode_never_blocks_and_reset_keeps_it_young() {
        let bell = Doorbell::new();
        let mut b = Backoff::new();
        // Nobody ever rings: a park here would hang the test.
        b.snooze_on(&bell, || false);
        thread::sleep(2 * IDLE_BEFORE_PARK);
        b.reset();
        b.snooze_on(&bell, || false);
    }
}
