//! Where an engine's threads run: every CC and execution thread pins to
//! one CPU of the set its engine was started in, and a partitioned
//! deployment's partitions take different cores rather than each the
//! standalone engine's.
//!
//! Each thread's CPU set is read by name from `/proc/self/task/*/status`
//! (`Cpus_allowed_list`), so this file is Linux only, and it needs two
//! CPUs to tell a spread from a stack.

#![cfg(target_os = "linux")]

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus::common::affinity::{available_cores, pin_to_core};
use orthrus::core::{CcAssignment, Completion, OrthrusConfig, OrthrusEngine};
use orthrus::part::{PartitionedConfig, PartitionedEngine};
use orthrus::storage::Table;
use orthrus::txn::{Database, Program};

fn db() -> Arc<Database> {
    Arc::new(Database::Flat(Table::new(1024, 64)))
}

/// A `Cpus_allowed_list` value (`0-2,5`) as CPU numbers.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter(|part| !part.is_empty())
        .flat_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            let (lo, hi): (usize, usize) = (lo.parse().unwrap(), hi.parse().unwrap());
            lo..=hi
        })
        .collect()
}

/// The allowed CPUs in a `/proc` status file's text.
fn allowed_in(status: &str) -> Vec<usize> {
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .expect("Cpus_allowed_list");
    parse_cpu_list(list.trim())
}

/// The calling thread's allowed CPUs.
fn own_cpus() -> Vec<usize> {
    allowed_in(&std::fs::read_to_string("/proc/thread-self/status").expect("procfs"))
}

/// The allowed CPUs of this process's live thread named `name`.
fn cpus_of(name: &str) -> Vec<usize> {
    let found: Vec<Vec<usize>> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Name:"))
                .is_some_and(|n| n.trim() == name)
        })
        .map(|status| allowed_in(&status))
        .collect();
    assert_eq!(found.len(), 1, "exactly one live thread named {name:?}");
    found.into_iter().next().unwrap()
}

/// Whether this host can show a placement at all; says why not.
fn two_cpus() -> bool {
    let n = own_cpus().len();
    if n < 2 {
        eprintln!("skipped: this thread may use {n} CPU, placement needs 2");
    }
    n >= 2
}

/// Submit `program` and wait for its completion: every thread it passes
/// through has started, and so has pinned itself.
fn commit_one(
    program: Program,
    submit: impl FnOnce(Program),
    mut drain: impl FnMut(&mut Vec<Completion>) -> usize,
) {
    submit(program);
    let t0 = Instant::now();
    let mut out = Vec::new();
    while drain(&mut out) == 0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "no completion");
        std::thread::yield_now();
    }
}

/// A plain engine of 2 CC threads and 1 execution thread, its threads
/// named `cc0`, `cc1`, `exec0`, each pinned once a transaction that
/// passes both CC threads has committed. Returns each thread's CPUs.
fn plain_engine_cpus() -> [Vec<usize>; 3] {
    let cfg = OrthrusConfig::with_threads(2, 1, CcAssignment::KeyModulo);
    let mut handle = OrthrusEngine::service(db(), cfg).start(7);
    let session = handle.session();
    // Keys 2 and 3 belong to different CC threads.
    commit_one(
        Program::Rmw { keys: vec![2, 3] },
        |p| {
            session.try_submit(p).expect("accepted");
        },
        |out| handle.drain_completions(out),
    );
    let cpus = [cpus_of("cc0"), cpus_of("cc1"), cpus_of("exec0")];
    handle.shutdown();
    cpus
}

#[test]
fn two_partitions_put_their_execution_threads_on_different_cpus() {
    let _guard = common::serial();
    if !two_cpus() {
        return;
    }
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
    let mut handle = PartitionedEngine::start(vec![db(), db()], PartitionedConfig::new(2, cfg), 7);
    let session = handle.session();
    // Accounts 0 and 1 live in different partitions: both engines run
    // a slice of it.
    commit_one(
        Program::Transfer {
            from: 0,
            to: 1,
            amount: 1,
        },
        |p| {
            session.try_submit(p).expect("accepted");
        },
        |out| handle.drain_completions(out),
    );
    let exec = [cpus_of("p0.exec0"), cpus_of("p1.exec0")];
    let cc = [cpus_of("p0.cc0"), cpus_of("p1.cc0")];
    handle.shutdown();
    for cpus in exec.iter().chain(&cc) {
        assert_eq!(
            cpus.len(),
            1,
            "each engine thread is pinned: {exec:?} {cc:?}"
        );
    }
    assert_ne!(exec[0], exec[1], "execution threads stacked on one CPU");
    assert_ne!(cc[0], cc[1], "CC threads stacked on one CPU");
}

#[test]
fn a_plain_engine_keeps_the_standalone_cores() {
    let _guard = common::serial();
    if !two_cpus() {
        return;
    }
    let own = own_cpus();
    let [cc0, cc1, exec0] = plain_engine_cpus();
    assert_eq!(cc0, [own[0]]);
    assert_eq!(cc1, [own[1]]);
    // Core index 2 wraps to the first CPU on a 2-CPU set, and is the
    // third CPU of a larger one.
    assert_eq!(exec0, [own[2 % own.len()]]);
}

#[test]
fn an_engine_stays_inside_the_cpus_it_was_started_in() {
    let _guard = common::serial();
    if !two_cpus() {
        return;
    }
    let last = *own_cpus().last().unwrap();
    // A thread of its own: pinning the test thread would outlive the test.
    let (mine, engine) = std::thread::spawn(|| {
        pin_to_core(available_cores() - 1);
        (own_cpus(), plain_engine_cpus())
    })
    .join()
    .unwrap();
    assert_eq!(mine, [last], "the starting thread is restricted");
    for cpus in &engine {
        assert_eq!(cpus, &[last], "an engine thread left its set: {engine:?}");
    }
}
