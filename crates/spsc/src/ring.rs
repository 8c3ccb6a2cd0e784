//! The SPSC ring itself.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use orthrus_common::{sim, Backoff, CachePadded};

/// Shared state between the two endpoints.
struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Written by consumer only.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written by producer only.
    tail: CachePadded<AtomicUsize>,
    /// Simulation trace id (0 outside a sim run) and role label.
    chan: sim::ChanId,
    label: &'static str,
}

// SAFETY: `Inner` is shared between exactly one producer and one consumer.
// All slot accesses are ordered by the head/tail acquire/release pairs: the
// producer only writes slots in `[head_seen, tail)` wrap-space that the
// consumer has vacated, and the consumer only reads slots the producer has
// published with a Release store of `tail`.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // By the time the last Arc drops there is no concurrent access.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            let slot = &self.buf[i & self.mask];
            // SAFETY: slots in [head, tail) hold initialized, un-consumed
            // values; we have exclusive access in drop.
            unsafe { (*slot.get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Sending endpoint. `Send`, not `Sync`: exactly one thread may produce.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Producer-local copy of `tail` (authoritative; only we write it).
    tail: usize,
    /// Stale cache of the consumer's `head`, refreshed only when the ring
    /// looks full.
    head_cache: usize,
}

/// Receiving endpoint. `Send`, not `Sync`: exactly one thread may consume.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Consumer-local copy of `head` (authoritative; only we write it).
    head: usize,
    /// Stale cache of the producer's `tail`, refreshed only when the ring
    /// looks empty.
    tail_cache: usize,
}

// The endpoints own &mut-like access to their side; moving one to another
// thread is fine, sharing one is not (no Sync impl is derived because of
// the raw cell access — make Send explicit).
unsafe impl<T: Send> Send for Producer<T> {}
unsafe impl<T: Send> Send for Consumer<T> {}

/// Create a ring with capacity for at least `capacity` in-flight messages
/// (rounded up to a power of two, minimum 2).
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    channel_labeled(capacity, "chan")
}

/// [`channel`], tagged with a role label (`"exec_cc"`, `"completion"`, …)
/// so the sim scheduler can trace and target this ring's handoffs.
pub fn channel_labeled<T>(capacity: usize, label: &'static str) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        buf,
        mask: cap - 1,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        chan: sim::alloc_chan(label),
        label,
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            inner,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Try to enqueue; returns the value back if the ring is full.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        if !sim::on_push(self.inner.chan, self.inner.label, 1) {
            return Err(value); // injected ring-full burst
        }
        let cap = self.inner.mask + 1;
        if self.tail.wrapping_sub(self.head_cache) >= cap {
            // Looks full; refresh the cached head. Acquire pairs with the
            // consumer's Release store so the slot is truly vacated.
            self.head_cache = self.inner.head.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) >= cap {
                return Err(value);
            }
        }
        let slot = &self.inner.buf[self.tail & self.inner.mask];
        // SAFETY: the head check above guarantees the consumer is done with
        // this slot; we are the only producer.
        unsafe { (*slot.get()).write(value) };
        // Release publishes the slot write before the new tail.
        self.inner
            .tail
            .store(self.tail.wrapping_add(1), Ordering::Release);
        self.tail = self.tail.wrapping_add(1);
        Ok(())
    }

    /// Enqueue, backing off while the ring is full (the paper's "rare case
    /// where the queue fills up").
    pub fn push(&mut self, mut value: T) {
        let mut backoff = Backoff::new();
        loop {
            match self.try_push(value) {
                Ok(()) => return,
                Err(v) => {
                    value = v;
                    backoff.snooze();
                }
            }
        }
    }

    /// Enqueue as many messages from the front of `values` as fit,
    /// publishing them all with a **single** Release store of `tail` (and
    /// at most one refresh of the cached consumer index). Returns how many
    /// were moved out of `values`.
    ///
    /// This is the batch analogue of [`try_push`](Self::try_push): N
    /// messages cost N slot writes plus one atomic store, instead of N
    /// store/refresh round trips on the `tail`/`head` cache lines.
    pub fn try_push_slice(&mut self, values: &mut Vec<T>) -> usize {
        if values.is_empty() {
            return 0;
        }
        if !sim::on_push(self.inner.chan, self.inner.label, values.len()) {
            return 0; // injected ring-full burst
        }
        let cap = self.inner.mask + 1;
        let mut free = cap - self.tail.wrapping_sub(self.head_cache);
        if free < values.len() {
            // Cached view is insufficient; refresh once. Acquire pairs
            // with the consumer's Release store of `head`.
            self.head_cache = self.inner.head.load(Ordering::Acquire);
            free = cap - self.tail.wrapping_sub(self.head_cache);
        }
        let n = free.min(values.len());
        if n == 0 {
            return 0;
        }
        // The destination wrap-space [tail, tail + n) is at most two
        // contiguous runs of the buffer: copy each with one memcpy
        // instead of a per-message loop.
        let start = self.tail & self.inner.mask;
        let first = n.min(cap - start);
        // SAFETY: the free-space check above covers all `n` slots, we are
        // the only producer, and the slot memory lives in `UnsafeCell`s
        // (the cast peels the transparent `UnsafeCell<MaybeUninit<T>>`
        // layers). The copied prefix of `values` is forgotten below via
        // the length-truncating shift, so each value is moved exactly
        // once.
        unsafe {
            let base = self.inner.buf.as_ptr() as *mut T;
            let src = values.as_ptr();
            std::ptr::copy_nonoverlapping(src, base.add(start), first);
            std::ptr::copy_nonoverlapping(src.add(first), base, n - first);
            let remaining = values.len() - n;
            let p = values.as_mut_ptr();
            std::ptr::copy(p.add(n), p, remaining);
            values.set_len(remaining);
        }
        // One Release publishes every slot write before the new tail.
        self.inner
            .tail
            .store(self.tail.wrapping_add(n), Ordering::Release);
        self.tail = self.tail.wrapping_add(n);
        n
    }

    /// Enqueue all of `values`, backing off whenever the ring is full.
    /// Partial batches are published as space frees up, preserving order.
    pub fn push_slice(&mut self, values: &mut Vec<T>) {
        let mut backoff = Backoff::new();
        while !values.is_empty() {
            if self.try_push_slice(values) > 0 {
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
    }

    /// Number of messages currently in flight (approximate: the consumer
    /// may be draining concurrently). Also refreshes the producer's cached
    /// consumer index, so a following `try_push`/`try_push_slice` on the
    /// flush path does not pay a redundant acquire-load.
    pub fn len(&mut self) -> usize {
        self.head_cache = self.inner.head.load(Ordering::Acquire);
        self.tail.wrapping_sub(self.head_cache)
    }

    /// Whether the ring looks empty from the producer side (refreshes the
    /// cached consumer index, like [`len`](Self::len)).
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Try to dequeue.
    #[inline]
    pub fn try_pop(&mut self) -> Option<T> {
        if !sim::on_pop(self.inner.chan, self.inner.label) {
            return None; // injected delivery delay
        }
        if self.head == self.tail_cache {
            // Looks empty; refresh the cached tail. Acquire pairs with the
            // producer's Release store so the slot contents are visible.
            self.tail_cache = self.inner.tail.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let slot = &self.inner.buf[self.head & self.inner.mask];
        // SAFETY: head < tail_cache ≤ tail, so the producer published this
        // slot; we are the only consumer.
        let value = unsafe { (*slot.get()).assume_init_read() };
        // Release the slot back to the producer.
        self.inner
            .head
            .store(self.head.wrapping_add(1), Ordering::Release);
        self.head = self.head.wrapping_add(1);
        Some(value)
    }

    /// Dequeue up to `max` messages into `out`, consuming them all with a
    /// **single** Release store of `head` (and at most one refresh of the
    /// cached producer index). Returns how many were moved.
    ///
    /// The batch analogue of [`try_pop`](Self::try_pop): N messages cost N
    /// slot reads plus one atomic store, instead of N store/refresh round
    /// trips on the `head`/`tail` cache lines.
    pub fn drain_into(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        if !sim::on_pop(self.inner.chan, self.inner.label) {
            return 0; // injected delivery delay
        }
        let mut avail = self.tail_cache.wrapping_sub(self.head);
        if avail < max {
            // Cached view may undercount; refresh once. Acquire pairs
            // with the producer's Release store of `tail`.
            self.tail_cache = self.inner.tail.load(Ordering::Acquire);
            avail = self.tail_cache.wrapping_sub(self.head);
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        // The source wrap-space [head, head + n) is at most two
        // contiguous runs: copy each straight into `out`'s spare capacity
        // with one memcpy instead of a per-message loop.
        let cap = self.inner.mask + 1;
        let start = self.head & self.inner.mask;
        let first = n.min(cap - start);
        out.reserve(n);
        // SAFETY: head + n ≤ tail_cache ≤ tail, so the producer published
        // (Release/Acquire-paired) all `n` slots; we are the only
        // consumer. `reserve` guarantees the spare capacity written
        // before `set_len`. Slots are logically vacated by the head store
        // below, so each value is moved out exactly once.
        unsafe {
            let base = self.inner.buf.as_ptr() as *const T;
            let dst = out.as_mut_ptr().add(out.len());
            std::ptr::copy_nonoverlapping(base.add(start), dst, first);
            std::ptr::copy_nonoverlapping(base, dst.add(first), n - first);
            out.set_len(out.len() + n);
        }
        // One Release hands every slot back to the producer.
        self.inner
            .head
            .store(self.head.wrapping_add(n), Ordering::Release);
        self.head = self.head.wrapping_add(n);
        n
    }

    /// Dequeue every currently-readable message into `out`. Returns how
    /// many were moved.
    pub fn pop_batch(&mut self, out: &mut Vec<T>) -> usize {
        let cap = self.inner.mask + 1;
        self.drain_into(out, cap)
    }

    /// Number of messages currently readable (approximate).
    pub fn len(&self) -> usize {
        let tail = self.inner.tail.load(Ordering::Acquire);
        tail.wrapping_sub(self.head)
    }

    /// Whether the ring looks empty from the consumer side.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fifo_order() {
        let (mut tx, mut rx) = channel::<u32>(8);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        let (tx, _rx) = channel::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = channel::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn full_ring_rejects() {
        let (mut tx, mut rx) = channel::<u32>(2);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.try_push(3), Err(3));
        assert_eq!(rx.try_pop(), Some(1));
        // Space freed: push succeeds again.
        tx.try_push(3).unwrap();
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), Some(3));
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = channel::<u64>(4);
        for round in 0..10_000u64 {
            tx.try_push(round).unwrap();
            assert_eq!(rx.try_pop(), Some(round));
        }
    }

    #[test]
    fn len_tracks_in_flight() {
        let (mut tx, mut rx) = channel::<u8>(8);
        assert!(tx.is_empty());
        assert!(rx.is_empty());
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.len(), 2);
        rx.try_pop().unwrap();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn drops_unconsumed_values() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (mut tx, mut rx) = channel::<Token>(8);
            for _ in 0..5 {
                tx.try_push(Token).unwrap();
            }
            drop(rx.try_pop()); // one consumed (and dropped)
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn cross_thread_stress() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(64);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.push(i);
            }
        });
        let mut expected = 0u64;
        let mut sum = 0u64;
        let mut backoff = Backoff::new();
        while expected < N {
            match rx.try_pop() {
                Some(v) => {
                    assert_eq!(v, expected, "messages must arrive in order");
                    sum = sum.wrapping_add(v);
                    expected += 1;
                    backoff.reset();
                }
                None => backoff.snooze(),
            }
        }
        producer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
    }

    /// Two threads sharing one CPU hand a counter back and forth. Every
    /// handoff is a wait on the very core the other side needs, so each
    /// fruitless poll has to give the core away at once: 0.15 s here,
    /// against 2.3 s for a waiter that pause-spins 15 µs before its
    /// first yield.
    #[test]
    fn handoffs_between_threads_on_one_cpu_yield_the_core() {
        const HANDOFFS: u64 = 200_000;
        fn pop(rx: &mut Consumer<u64>) -> u64 {
            let mut backoff = Backoff::new();
            loop {
                match rx.try_pop() {
                    Some(v) => return v,
                    None => backoff.snooze(),
                }
            }
        }
        let (mut ping_tx, mut ping_rx) = channel::<u64>(1);
        let (mut pong_tx, mut pong_rx) = channel::<u64>(1);
        let t0 = std::time::Instant::now();
        let echo = std::thread::spawn(move || {
            orthrus_common::affinity::pin_to_core(0);
            for _ in 0..HANDOFFS / 2 {
                let v = pop(&mut ping_rx);
                pong_tx.push(v);
            }
        });
        let driver = std::thread::spawn(move || {
            orthrus_common::affinity::pin_to_core(0);
            for v in 0..HANDOFFS / 2 {
                ping_tx.push(v);
                assert_eq!(pop(&mut pong_rx), v);
            }
        });
        driver.join().unwrap();
        echo.join().unwrap();
        let took = t0.elapsed();
        assert!(
            took < std::time::Duration::from_secs(1),
            "{HANDOFFS} same-CPU handoffs took {took:?}"
        );
    }

    #[test]
    fn batch_roundtrip_preserves_fifo() {
        let (mut tx, mut rx) = channel::<u32>(16);
        let mut batch: Vec<u32> = (0..10).collect();
        assert_eq!(tx.try_push_slice(&mut batch), 10);
        assert!(batch.is_empty());
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.pop_batch(&mut out), 6);
        assert_eq!(out, (0..10).collect::<Vec<u32>>());
        assert_eq!(rx.drain_into(&mut out, 8), 0);
    }

    #[test]
    fn partial_batch_push_on_full_ring() {
        let (mut tx, mut rx) = channel::<u32>(4);
        let mut batch: Vec<u32> = (0..7).collect();
        // Only 4 slots: the prefix goes in, the rest stays.
        assert_eq!(tx.try_push_slice(&mut batch), 4);
        assert_eq!(batch, vec![4, 5, 6]);
        assert_eq!(tx.try_push_slice(&mut batch), 0);
        // Drain two, push two more: order must stitch together.
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 2), 2);
        assert_eq!(tx.try_push_slice(&mut batch), 2);
        assert_eq!(batch, vec![6]);
        rx.pop_batch(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn batch_ops_wrap_the_index_boundary() {
        let (mut tx, mut rx) = channel::<u64>(8);
        let mut out = Vec::new();
        let mut expected = 0u64;
        // Unaligned batch size vs capacity 8 forces every wrap offset.
        for round in 0..1000u64 {
            let mut batch: Vec<u64> = (0..5).map(|i| round * 5 + i).collect();
            tx.push_slice(&mut batch);
            assert_eq!(rx.drain_into(&mut out, 5), 5);
            for v in out.drain(..) {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
    }

    #[test]
    fn mixed_single_and_batch_are_fifo_equivalent() {
        let (mut tx, mut rx) = channel::<u32>(8);
        tx.try_push(0).unwrap();
        let mut batch = vec![1, 2, 3];
        assert_eq!(tx.try_push_slice(&mut batch), 3);
        tx.try_push(4).unwrap();
        assert_eq!(rx.try_pop(), Some(0));
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 2), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(rx.try_pop(), Some(3));
        assert_eq!(rx.try_pop(), Some(4));
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn producer_len_refreshes_stale_cache() {
        let (mut tx, mut rx) = channel::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        // Consumer drains everything; the producer's head cache is stale
        // and still reports a full ring until refreshed.
        for _ in 0..4 {
            rx.try_pop().unwrap();
        }
        assert_eq!(tx.len(), 0, "len must refresh the stale head cache");
        assert!(tx.is_empty());
        // The refresh is cached: a full-capacity batch push succeeds
        // without observing a stale "full" view.
        let mut batch = vec![10, 11, 12, 13];
        assert_eq!(tx.try_push_slice(&mut batch), 4);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let (mut tx, mut rx) = channel::<u32>(2);
        tx.try_push(0).unwrap();
        tx.try_push(1).unwrap();
        let h = std::thread::spawn(move || {
            tx.push(2); // blocks until the consumer drains one
            tx
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.try_pop(), Some(0));
        let _tx = h.join().unwrap();
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.try_pop(), Some(2));
    }
}
