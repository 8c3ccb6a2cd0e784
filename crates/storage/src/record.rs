//! Fixed-size record payload storage.
//!
//! One contiguous allocation holding `n_records × record_size` bytes. The
//! microbenchmark and YCSB experiments use 1,000-byte records in the paper;
//! the size is a constructor parameter here (DESIGN.md substitution #2
//! scales the default down to fit the host).

use std::cell::UnsafeCell;

/// A store of `n_records` records, each `record_size` bytes.
pub struct RecordStore {
    data: Box<[UnsafeCell<u8>]>,
    record_size: usize,
    n_records: usize,
}

// SAFETY: concurrent access to *disjoint* records is the engines'
// responsibility (logical locks). The store itself never aliases: each
// accessor touches only `[rid * record_size, (rid+1) * record_size)`.
unsafe impl Sync for RecordStore {}
unsafe impl Send for RecordStore {}

impl RecordStore {
    /// Allocate a zero-initialized store.
    pub fn new(n_records: usize, record_size: usize) -> Self {
        assert!(record_size >= 8, "records must hold at least a u64 counter");
        let len = n_records
            .checked_mul(record_size)
            .expect("record store size overflow");
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || UnsafeCell::new(0));
        RecordStore {
            data: v.into_boxed_slice(),
            record_size,
            n_records,
        }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_records
    }

    /// Whether the store holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_records == 0
    }

    /// Bytes per record.
    #[inline]
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    #[inline]
    fn ptr(&self, rid: usize) -> *mut u8 {
        debug_assert!(rid < self.n_records, "record {rid} out of bounds");
        // UnsafeCell<u8> is layout-identical to u8.
        self.data[rid * self.record_size].get()
    }

    /// Ask the CPU to start loading the lines [`rmw_add`](Self::rmw_add)
    /// will touch first. A hint: it reads nothing and needs no lock.
    #[inline]
    pub fn prefetch(&self, rid: usize) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: both addresses lie inside record `rid`; a prefetch
        // does not access memory architecturally.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let p = self.ptr(rid) as *const i8;
            _mm_prefetch::<_MM_HINT_T0>(p);
            if self.record_size > 64 {
                _mm_prefetch::<_MM_HINT_T0>(p.add(64));
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = rid;
    }

    /// Read the first 8 bytes of a record as a little-endian counter.
    ///
    /// # Safety
    /// Caller must hold at least a shared logical lock on the record, or be
    /// performing a speculative (OLLP) read it will validate.
    #[inline]
    pub unsafe fn read_u64(&self, rid: usize) -> u64 {
        let mut buf = [0u8; 8];
        std::ptr::copy_nonoverlapping(self.ptr(rid), buf.as_mut_ptr(), 8);
        u64::from_le_bytes(buf)
    }

    /// Overwrite the first 8 bytes of a record.
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock on the record.
    #[inline]
    pub unsafe fn write_u64(&self, rid: usize, value: u64) {
        let bytes = value.to_le_bytes();
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr(rid), 8);
    }

    /// Copy the whole record payload into `buf` (must be `record_size`
    /// long).
    ///
    /// # Safety
    /// Caller must hold at least a shared logical lock on the record.
    #[inline]
    pub unsafe fn read_into(&self, rid: usize, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.record_size);
        std::ptr::copy_nonoverlapping(self.ptr(rid), buf.as_mut_ptr(), self.record_size);
    }

    /// Overwrite the whole record payload from `buf`.
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock on the record.
    #[inline]
    pub unsafe fn write_from(&self, rid: usize, buf: &[u8]) {
        debug_assert_eq!(buf.len(), self.record_size);
        std::ptr::copy_nonoverlapping(buf.as_ptr(), self.ptr(rid), self.record_size);
    }

    /// The canonical read-modify-write of the paper's microbenchmarks:
    /// increment the embedded counter and touch the rest of the payload
    /// (so payload size has its real cost).
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock on the record.
    #[inline]
    pub unsafe fn rmw_increment(&self, rid: usize) -> u64 {
        self.rmw_add(rid, 1)
    }

    /// Read-modify-write with an arbitrary wrapping delta: the transfer
    /// primitive. Subtraction passes the two's complement
    /// (`amount.wrapping_neg()`), so a debit/credit pair conserves the sum
    /// of all counters modulo 2⁶⁴ — the money-conservation invariant the
    /// cross-partition simulation corpus checks.
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock on the record.
    #[inline]
    pub unsafe fn rmw_add(&self, rid: usize, delta: u64) -> u64 {
        let v = self.read_u64(rid).wrapping_add(delta);
        self.write_u64(rid, v);
        // Touch one byte per cache line of the remaining payload, like a
        // real row update would.
        let p = self.ptr(rid);
        let mut off = 64;
        while off < self.record_size {
            *p.add(off) = (v as u8).wrapping_add(off as u8);
            off += 64;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let s = RecordStore::new(16, 64);
        for rid in 0..16 {
            assert_eq!(unsafe { s.read_u64(rid) }, 0);
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let s = RecordStore::new(4, 32);
        unsafe {
            s.write_u64(2, 0xDEAD_BEEF);
            assert_eq!(s.read_u64(2), 0xDEAD_BEEF);
            // Neighbours untouched.
            assert_eq!(s.read_u64(1), 0);
            assert_eq!(s.read_u64(3), 0);
        }
    }

    #[test]
    fn full_payload_roundtrip() {
        let s = RecordStore::new(2, 100);
        let src: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let mut dst = vec![0u8; 100];
        unsafe {
            s.write_from(1, &src);
            s.read_into(1, &mut dst);
        }
        assert_eq!(src, dst);
        unsafe {
            s.read_into(0, &mut dst);
        }
        assert!(dst.iter().all(|&b| b == 0));
    }

    #[test]
    fn rmw_increments_counter() {
        let s = RecordStore::new(1, 256);
        for expect in 1..=10u64 {
            assert_eq!(unsafe { s.rmw_increment(0) }, expect);
        }
        assert_eq!(unsafe { s.read_u64(0) }, 10);
    }

    #[test]
    fn concurrent_disjoint_access_is_sound() {
        use std::sync::Arc;
        let s = Arc::new(RecordStore::new(8, 64));
        let handles: Vec<_> = (0..8)
            .map(|rid| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        // Each thread owns its record: no logical conflict.
                        unsafe { s.rmw_increment(rid) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for rid in 0..8 {
            assert_eq!(unsafe { s.read_u64(rid) }, 10_000);
        }
    }

    #[test]
    #[should_panic]
    fn tiny_records_rejected() {
        let _ = RecordStore::new(1, 4);
    }
}
