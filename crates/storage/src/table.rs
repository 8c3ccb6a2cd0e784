//! A single logical table: hash index + record store.
//!
//! The shared-everything configuration of the microbenchmark and YCSB
//! experiments: one global index over all records, the layout the paper's
//! non-SPLIT systems use.

use orthrus_common::Key;

use crate::{HashIndex, RecordStore};

/// A table of `n` fixed-size records with dense keys `0..n`.
pub struct Table {
    index: HashIndex,
    store: RecordStore,
}

impl Table {
    /// Build a table of `n_records` records of `record_size` bytes with the
    /// identity key mapping (keys are dense record ids, as in the paper's
    /// single-table benchmarks).
    pub fn new(n_records: usize, record_size: usize) -> Self {
        Table {
            index: HashIndex::identity(n_records),
            store: RecordStore::new(n_records, record_size),
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Resolve a key to a record slot via the index (the index probe is
    /// part of the measured work, as in the paper).
    #[inline]
    pub fn lookup(&self, key: Key) -> Option<usize> {
        self.index.get(key)
    }

    /// Start loading `key`'s record ahead of its use: the index probe
    /// happens now, the record's lines arrive while the caller does
    /// something else. Unknown keys are ignored.
    #[inline]
    pub fn prefetch(&self, key: Key) {
        if let Some(slot) = self.index.get(key) {
            self.store.prefetch(slot);
        }
    }

    /// The underlying payload store.
    #[inline]
    pub fn store(&self) -> &RecordStore {
        &self.store
    }

    /// Read the record counter under a shared logical lock.
    ///
    /// # Safety
    /// Caller must hold at least a shared logical lock on `key`.
    #[inline]
    pub unsafe fn read_counter(&self, key: Key) -> u64 {
        let slot = self.index.get(key).expect("key not loaded");
        self.store.read_u64(slot)
    }

    /// Read-modify-write the record under an exclusive logical lock.
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock on `key`.
    #[inline]
    pub unsafe fn rmw(&self, key: Key) -> u64 {
        let slot = self.index.get(key).expect("key not loaded");
        self.store.rmw_increment(slot)
    }

    /// Add a wrapping delta to the record counter under an exclusive
    /// logical lock (the transfer primitive; see
    /// [`crate::RecordStore::rmw_add`]).
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock on `key`.
    #[inline]
    pub unsafe fn add_counter(&self, key: Key, delta: u64) -> u64 {
        let slot = self.index.get(key).expect("key not loaded");
        self.store.rmw_add(slot, delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_only_a_hint() {
        let t = Table::new(100, 100);
        for k in [0, 42, 99, 100, u64::MAX - 1] {
            t.prefetch(k); // the last record's second line and unknown keys included
        }
        unsafe {
            assert_eq!(t.rmw(99), 1);
            assert_eq!(t.read_counter(42), 0);
        }
    }

    #[test]
    fn lookup_and_rmw() {
        let t = Table::new(100, 64);
        assert_eq!(t.len(), 100);
        assert_eq!(t.lookup(42), Some(42));
        assert_eq!(t.lookup(100), None);
        unsafe {
            assert_eq!(t.read_counter(42), 0);
            t.rmw(42);
            t.rmw(42);
            assert_eq!(t.read_counter(42), 2);
            assert_eq!(t.read_counter(41), 0);
        }
    }
}
