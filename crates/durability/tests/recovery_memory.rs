//! Recovery streams the log: its peak heap does not grow with the log.
//!
//! A counting global allocator tracks the bytes currently allocated and
//! their high-water mark. Two logs on 4 KiB segments, one four times
//! longer than the other, are recovered into equal tables; the peak heap
//! during `recover` may differ between them by at most one segment
//! budget. The commits carry no ticket, so the report's audit trail (the
//! one thing recovery keeps per commit) stays empty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use orthrus_common::TempDir;
use orthrus_durability::{recover, CommandLog, DurabilityMode, LoggedCommit};
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};

/// Bytes currently allocated, and their high-water mark.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEGMENT_BYTES: u64 = 4096;

/// Log `commits` ticketless two-key RMW commits, one record each, and
/// return the peak heap above what was live when `recover` began.
fn recovery_peak(commits: u64) -> usize {
    let t = TempDir::new("recovery-memory");
    let log = CommandLog::open_with_segment_bytes(t.path(), DurabilityMode::Log, SEGMENT_BYTES)
        .expect("open the log");
    for i in 0..commits {
        let keys = vec![i % 64, (i * 7 + 1) % 64];
        log.append_run(&mut vec![LoggedCommit {
            ticket: None,
            program: Program::Rmw { keys },
        }])
        .expect("append");
    }
    log.sync().expect("sync");
    drop(log);

    let db = Database::Flat(Table::new(64, 64));
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let report = recover(&db, t.path()).expect("recover");
    let peak = PEAK.load(Relaxed) - before;
    assert_eq!(report.txns, commits);
    assert_eq!(report.torn_bytes, 0);
    peak
}

#[test]
fn recovery_peak_heap_does_not_grow_with_the_log() {
    let short = recovery_peak(2_000);
    let long = recovery_peak(8_000);
    assert!(
        long <= short + SEGMENT_BYTES as usize,
        "peak heap during recovery grew with the log: {short} B for 2 000 commits, \
         {long} B for 8 000 (allowed: one {SEGMENT_BYTES} B segment more)"
    );
}
