//! The database a program executes against.
//!
//! One enum instead of a trait object: the interpreter's data path is the
//! hot path of every experiment, and a match on three variants inlines
//! where dynamic dispatch would not.

use orthrus_common::Key;
use orthrus_storage::tpcc::TpccDb;
use orthrus_storage::{PartitionedTable, Table};

/// The data layouts used across the evaluation.
pub enum Database {
    /// One global index + store (microbench / YCSB, shared-everything).
    Flat(Table),
    /// Physically partitioned records + indexes (Partitioned-store and the
    /// SPLIT variants of Section 4.3).
    Partitioned(PartitionedTable),
    /// The TPC-C subset schema (Section 4.4).
    Tpcc(TpccDb),
}

impl Database {
    /// Start loading the record behind `key` (see
    /// [`orthrus_storage::Table::prefetch`]). Only the flat layout maps a
    /// lock key straight to a record; the others ignore the hint.
    #[inline]
    pub fn prefetch(&self, key: Key) {
        if let Database::Flat(t) = self {
            t.prefetch(key);
        }
    }

    /// Read a record's embedded counter.
    ///
    /// # Safety
    /// Caller must hold at least a shared logical lock (or partition lock)
    /// covering `key`.
    #[inline]
    pub unsafe fn read_counter(&self, key: Key) -> u64 {
        match self {
            Database::Flat(t) => t.read_counter(key),
            Database::Partitioned(t) => t.read_counter(key),
            Database::Tpcc(_) => panic!("counter ops are not TPC-C operations"),
        }
    }

    /// Read-modify-write a record.
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock (or partition lock)
    /// covering `key`.
    #[inline]
    pub unsafe fn rmw(&self, key: Key) -> u64 {
        match self {
            Database::Flat(t) => t.rmw(key),
            Database::Partitioned(t) => t.rmw(key),
            Database::Tpcc(_) => panic!("counter ops are not TPC-C operations"),
        }
    }

    /// Add a wrapping delta to a record's counter (the transfer
    /// primitive: debit = `amount.wrapping_neg()`, credit = `amount`, so
    /// the sum of all counters is conserved modulo 2⁶⁴).
    ///
    /// # Safety
    /// Caller must hold an exclusive logical lock (or partition lock)
    /// covering `key`.
    #[inline]
    pub unsafe fn add_counter(&self, key: Key, delta: u64) -> u64 {
        match self {
            Database::Flat(t) => t.add_counter(key, delta),
            Database::Partitioned(t) => t.add_counter(key, delta),
            Database::Tpcc(_) => panic!("counter ops are not TPC-C operations"),
        }
    }

    /// The TPC-C database, when this is one.
    #[inline]
    pub fn tpcc(&self) -> &TpccDb {
        match self {
            Database::Tpcc(db) => db,
            _ => panic!("not a TPC-C database"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_storage::tpcc::TpccConfig;

    #[test]
    fn flat_counter_ops() {
        let db = Database::Flat(Table::new(10, 64));
        unsafe {
            db.rmw(3);
            db.rmw(3);
            assert_eq!(db.read_counter(3), 2);
        }
    }

    #[test]
    fn partitioned_counter_ops() {
        let db = Database::Partitioned(PartitionedTable::new(10, 64, 2));
        unsafe {
            db.rmw(3);
            assert_eq!(db.read_counter(3), 1);
        }
    }

    #[test]
    #[should_panic(expected = "not TPC-C")]
    fn counter_ops_reject_tpcc() {
        let db = Database::Tpcc(TpccDb::load(TpccConfig::tiny(1), 1));
        unsafe {
            db.rmw(0);
        }
    }
}
