//! The partition spinlock of Partitioned-store.
//!
//! "Partitioned-store associates a coarse-grain partition-level spinlock
//! with each worker" (Section 4.3). Test-and-test-and-set with the shared
//! yield-first backoff (pure spinning would livelock on an
//! oversubscribed host; DESIGN.md substitution #1).

use std::sync::atomic::{AtomicBool, Ordering};

use orthrus_common::Backoff;

/// A TTAS spinlock.
#[derive(Debug, Default)]
pub struct SpinLock {
    locked: AtomicBool,
}

impl SpinLock {
    pub fn new() -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Single attempt; `true` on success.
    #[inline]
    pub fn try_lock(&self) -> bool {
        // Test first: avoids bouncing the line on contended CAS storms.
        !self.locked.load(Ordering::Relaxed)
            && self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Acquire, backing off while contended.
    pub fn lock(&self) {
        let mut backoff = Backoff::new();
        while !self.try_lock() {
            backoff.snooze();
        }
    }

    /// Release. Caller must hold the lock.
    #[inline]
    pub fn unlock(&self) {
        debug_assert!(self.locked.load(Ordering::Relaxed), "unlock of free lock");
        self.locked.store(false, Ordering::Release);
    }

    /// Whether the lock is currently held (diagnostics).
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_lock_excludes() {
        let l = SpinLock::new();
        assert!(l.try_lock());
        assert!(!l.try_lock());
        l.unlock();
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn serializes_nonatomic_updates() {
        let lock = Arc::new(SpinLock::new());
        struct Wrap(Arc<std::cell::UnsafeCell<u64>>);
        unsafe impl Send for Wrap {}
        // SAFETY (Sync): all access to the cell happens under `lock`.
        unsafe impl Sync for Wrap {}
        #[allow(clippy::arc_with_non_send_sync)]
        // Wrap supplies Sync; the inner Arc is never shared bare
        let cell = Arc::new(Wrap(Arc::new(std::cell::UnsafeCell::new(0u64))));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let cell = Arc::clone(&cell);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50_000 {
                    lock.lock();
                    // SAFETY: spinlock held.
                    unsafe { *cell.0.get() += 1 };
                    lock.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsafe { *cell.0.get() }, 200_000);
    }
}
