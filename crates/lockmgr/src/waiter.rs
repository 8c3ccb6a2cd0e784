//! The per-thread lock waiter: the cell a blocked transaction spins on.
//!
//! A blocking 2PL worker has at most one outstanding lock request, so each
//! thread allocates exactly one `Arc<LockWaiter>` for its lifetime and
//! resets it per wait episode (the paper's no-allocator-traffic rule).
//! All state *transitions* happen under the owning bucket's latch; the
//! waiting thread reads the state latch-free.

use std::sync::atomic::{AtomicU8, Ordering};

use orthrus_common::Backoff;

/// Wait-episode state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WaitState {
    /// Not part of any queue.
    Idle = 0,
    /// Queued behind conflicting holders.
    Waiting = 1,
    /// Lock granted; the waiter now holds it.
    Granted = 2,
    /// Removed from the queue by an abort (deadlock / wait-die).
    Cancelled = 3,
}

impl WaitState {
    fn from_u8(v: u8) -> WaitState {
        match v {
            0 => WaitState::Idle,
            1 => WaitState::Waiting,
            2 => WaitState::Granted,
            3 => WaitState::Cancelled,
            _ => unreachable!("invalid wait state {v}"),
        }
    }
}

/// Poll-and-yield cell for one blocked lock request.
#[derive(Debug)]
pub struct LockWaiter {
    state: AtomicU8,
}

impl Default for LockWaiter {
    fn default() -> Self {
        Self::new()
    }
}

impl LockWaiter {
    pub fn new() -> Self {
        LockWaiter {
            state: AtomicU8::new(WaitState::Idle as u8),
        }
    }

    /// Arm for a new wait episode. Called by the owning thread while the
    /// bucket latch is held (so no grant can race the reset).
    pub fn arm(&self) {
        self.state
            .store(WaitState::Waiting as u8, Ordering::Relaxed);
    }

    /// Current state.
    #[inline]
    pub fn state(&self) -> WaitState {
        WaitState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Grant the lock (bucket latch held).
    pub fn grant(&self) {
        debug_assert_eq!(self.state(), WaitState::Waiting);
        self.state
            .store(WaitState::Granted as u8, Ordering::Release);
    }

    /// Cancel the wait (bucket latch held).
    pub fn cancel(&self) {
        debug_assert_eq!(self.state(), WaitState::Waiting);
        self.state
            .store(WaitState::Cancelled as u8, Ordering::Release);
    }

    /// Mark consumed after the owner observed a terminal state.
    pub fn disarm(&self) {
        self.state.store(WaitState::Idle as u8, Ordering::Relaxed);
    }

    /// Block until granted or cancelled, calling `on_poll` every `stride`
    /// backoff steps (deadlock-detection hook; return `true` from it to
    /// request cancellation by the caller — this function keeps waiting
    /// until the queue-side resolution actually happens).
    pub fn wait(&self, mut on_poll: impl FnMut() -> bool, stride: u32) -> WaitState {
        let mut backoff = Backoff::new();
        let mut polls = 0u32;
        loop {
            match self.state() {
                WaitState::Waiting => {}
                terminal => return terminal,
            }
            backoff.snooze();
            polls += 1;
            if polls.is_multiple_of(stride.max(1)) && on_poll() {
                // The poll hook decided to abort; the caller is responsible
                // for cancelling through the lock table, after which the
                // state becomes Cancelled (or Granted if the grant won the
                // race). Report what we see now:
                return self.state();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn state_machine_roundtrip() {
        let w = LockWaiter::new();
        assert_eq!(w.state(), WaitState::Idle);
        w.arm();
        assert_eq!(w.state(), WaitState::Waiting);
        w.grant();
        assert_eq!(w.state(), WaitState::Granted);
        w.disarm();
        w.arm();
        w.cancel();
        assert_eq!(w.state(), WaitState::Cancelled);
    }

    #[test]
    fn wait_returns_on_cross_thread_grant() {
        let w = Arc::new(LockWaiter::new());
        w.arm();
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            w2.grant();
        });
        let got = w.wait(|| false, 16);
        assert_eq!(got, WaitState::Granted);
        h.join().unwrap();
    }

    #[test]
    fn poll_hook_is_invoked() {
        let w = Arc::new(LockWaiter::new());
        w.arm();
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            w2.grant();
        });
        let mut calls = 0;
        let got = w.wait(
            || {
                calls += 1;
                false
            },
            1,
        );
        assert_eq!(got, WaitState::Granted);
        assert!(calls > 0, "poll hook never ran");
        h.join().unwrap();
    }

    #[test]
    fn poll_hook_abort_request_returns_current_state() {
        let w = LockWaiter::new();
        w.arm();
        let got = w.wait(|| true, 1);
        // Nothing resolved the wait yet; hook requested abort.
        assert_eq!(got, WaitState::Waiting);
    }
}
