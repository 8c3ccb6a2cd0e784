//! An engine nobody talks to gives its cores away: its CC and execution
//! threads (and a partitioned deployment's sequencer) park once they have
//! been idle for a millisecond, wake on the first submission, and a stop
//! request reaches them while parked.
//!
//! Process CPU time is `utime + stime` from `/proc/self/stat`, so the two
//! tests run one at a time and this file holds nothing else.

#![cfg(target_os = "linux")]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus::core::{CcAssignment, Completion, OrthrusConfig, OrthrusEngine};
use orthrus::part::{PartitionedConfig, PartitionedEngine};
use orthrus::storage::Table;
use orthrus::txn::{Database, Program};

/// CPU time this process has used so far, user plus system.
fn cpu_time() -> Duration {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes a plain integer and touches no memory.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) };
    assert!(ticks_per_s > 0, "sysconf(_SC_CLK_TCK)");
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // The command name (field 2) may hold spaces; fields count from its
    // closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    Duration::from_nanos(ticks * 1_000_000_000 / ticks_per_s as u64)
}

fn db() -> Arc<Database> {
    Arc::new(Database::Flat(Table::new(1024, 64)))
}

/// The three things an idle system owes: ~no CPU while left alone, a
/// prompt answer to the request that ends the quiet, and a prompt
/// shutdown from the parked state.
fn check_idle(
    what: &str,
    wake_with: Program,
    mut submit: impl FnMut(Program),
    mut drain: impl FnMut(&mut Vec<Completion>) -> usize,
    shutdown: impl FnOnce(),
) {
    // Everything parks a millisecond after its last work; start-up is
    // the only work so far.
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_time();
    std::thread::sleep(Duration::from_millis(500));
    let used = cpu_time() - before;
    assert!(
        used < Duration::from_millis(50),
        "{what}: 500 ms of idling cost {used:?} of CPU"
    );

    // Best of three: one deschedule of this thread must not fail the
    // test, and a wake-up that needed a timer would be slow every time.
    let mut out = Vec::new();
    let best = (0..3)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(20));
            let t0 = Instant::now();
            submit(wake_with.clone());
            while drain(&mut out) == 0 {
                assert!(t0.elapsed() < Duration::from_secs(10), "{what}: no answer");
                std::thread::yield_now();
            }
            t0.elapsed()
        })
        .min()
        .expect("three tries");
    assert!(
        best < Duration::from_millis(5),
        "{what}: a request to the parked system took {best:?} at best"
    );
    assert_eq!(out.len(), 3, "{what}: one completion per submission");

    std::thread::sleep(Duration::from_millis(20));
    let t0 = Instant::now();
    shutdown();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "{what}: shutting down from the parked state took {took:?}"
    );
}

#[test]
fn an_idle_engine_parks_wakes_on_a_submission_and_stops() {
    let _guard = common::serial();
    let cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
    let handle = std::cell::RefCell::new(OrthrusEngine::service(db(), cfg).start(7));
    let session = handle.borrow().session();
    check_idle(
        "2 CC + 2 exec",
        // Keys 2 and 3 belong to different CC threads: the grant is
        // forwarded through one parked thread to the other.
        Program::Rmw { keys: vec![2, 3] },
        |p| {
            session.try_submit(p).expect("accepted");
        },
        |out| handle.borrow_mut().drain_completions(out),
        || {
            handle.borrow_mut().shutdown();
        },
    );
}

#[test]
fn an_idle_partitioned_deployment_parks_wakes_and_stops() {
    let _guard = common::serial();
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
    let handle = std::cell::RefCell::new(PartitionedEngine::start(
        vec![db(), db()],
        PartitionedConfig::new(2, cfg),
        7,
    ));
    let session = handle.borrow().session();
    check_idle(
        "2 partitions",
        // Accounts 0 and 1 live in different partitions: this goes
        // through the parked sequencer and both parked engines.
        Program::Transfer {
            from: 0,
            to: 1,
            amount: 1,
        },
        |p| {
            session.try_submit(p).expect("accepted");
        },
        |out| handle.borrow_mut().drain_completions(out),
        || {
            handle.borrow_mut().shutdown();
        },
    );
}
