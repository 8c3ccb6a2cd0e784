//! The crash-point test harness (end to end, through the umbrella crate).
//!
//! A service-mode engine runs with command logging; the test then plays
//! crash scenarios against the resulting log with
//! `storage::log::{scan, truncate_at}` — truncating mid-record at
//! scripted byte offsets — and recovers. The contract under test, for
//! every admission policy:
//!
//! - **torn tail dropped**: a record cut mid-bytes contributes nothing;
//! - **no loss**: every fully-logged commit is replayed;
//! - **no double-apply**: each replayed ticket appears exactly once, and
//!   the recovered table state equals the scripted commits applied once
//!   each (verified against an independent model, not against replay
//!   itself);
//! - **prefix consistency**: the recovered state is the state of a log
//!   prefix — torn-tail commits vanish atomically, whole records at a
//!   time.

mod common;

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus::common::failpoint::global as failpoints;
use orthrus::common::runtime::RunParams;
use orthrus::common::{FailAction, TempDir};
use orthrus::core::{
    AdmissionPolicy, CcAssignment, DurabilityMode, EngineError, OrthrusConfig, OrthrusEngine,
};
use orthrus::durability::log::{FP_APPEND, FP_FSYNC};
use orthrus::durability::{CommandLog, LoggedCommit};
use orthrus::storage::log::{scan, truncate_at};
use orthrus::storage::Table;
use orthrus::txn::{Database, Program};
use orthrus::workload::{MicroSpec, Spec, TpccSpec};

const KEYS: u64 = 64;

/// Drive `n` deterministic submissions through a fresh logging engine,
/// shut down, and return (log scratch dir, ticket → program map).
fn run_logged(
    admission: AdmissionPolicy,
    mode: DurabilityMode,
    n: u64,
) -> (TempDir, HashMap<u64, Program>) {
    let scratch = TempDir::new("crash-suite");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
        .with_durability(mode, scratch.path());
    cfg.admission = admission;
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
    let mut handle = engine.start(17);
    let session = handle.session();
    // Hot-key-skewed programs so conflict batching fuses multi-commit
    // records (group commit must be crash-tested, not just singletons).
    let mut gen = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false)).generator(41, 0);
    let mut by_ticket = HashMap::new();
    for _ in 0..n {
        let program = gen.next_program();
        let ticket = session.submit(program.clone()).expect("accepting");
        by_ticket.insert(ticket.0, program);
    }
    let stats = handle.shutdown();
    assert_eq!(stats.totals.committed_all, n, "shutdown drains dry");
    let mut done = Vec::new();
    handle.drain_completions(&mut done);
    assert_eq!(done.len() as u64, n, "every ticket completed");
    (scratch, by_ticket)
}

/// Recover the (possibly mutilated) log into a fresh database and check
/// the conservation contract against the submission ledger. Returns how
/// many transactions were replayed.
fn recover_and_audit(dir: &std::path::Path, by_ticket: &HashMap<u64, Program>) -> u64 {
    let fresh = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, dir);
    let (_engine, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);

    // No double-apply: tickets are distinct…
    let mut tickets = report.tickets.clone();
    tickets.sort_unstable();
    let before = tickets.len();
    tickets.dedup();
    assert_eq!(tickets.len(), before, "a ticket replayed twice");
    // …and no invention: every replayed ticket was really submitted.
    let mut model = vec![0u64; KEYS as usize];
    for t in &tickets {
        let program = by_ticket.get(t).expect("replayed a ticket never issued");
        let Program::Rmw { keys } = program else {
            panic!("micro workload submits RMWs only");
        };
        for &k in keys {
            model[k as usize] += 1;
        }
    }
    // Exactly-once effects: recovered state equals the surviving commits
    // applied once each (independent model, not replay-vs-replay).
    for k in 0..KEYS {
        // SAFETY: quiesced test database.
        let got = unsafe { fresh.read_counter(k) };
        assert_eq!(got, model[k as usize], "key {k} diverged");
    }
    assert_eq!(report.txns as usize, tickets.len());
    report.txns
}

/// The scripted crash-point sweep: clean log first (no loss at all),
/// then ≥3 truncation offsets — a mid-record tear near the end, an exact
/// record boundary, and a deep cut — scripted in descending order
/// against one log (truncation is monotone), under both admission
/// policies.
#[test]
fn crash_points_conserve_tickets_under_every_policy() {
    let _serial = common::serial();
    for admission in [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        },
    ] {
        let n = 250u64;
        let (scratch, by_ticket) = run_logged(admission.clone(), DurabilityMode::Log, n);
        let dir = scratch.path();

        // Untruncated: the clean log loses nothing.
        let replayed = recover_and_audit(dir, &by_ticket);
        assert_eq!(replayed, n, "{admission}: clean log must replay all");

        let ends = scan(dir).unwrap().record_ends;
        assert!(ends.len() >= 6, "{admission}: too few records to script");
        // Offset 1: tear the final record 3 bytes short of its end.
        truncate_at(dir, ends[ends.len() - 1] - 3).unwrap();
        let r1 = recover_and_audit(dir, &by_ticket);
        assert!(r1 < n, "{admission}: torn tail must drop its commits");

        // Offset 2: an exact record boundary ~2/3 in (clean crash).
        let k2 = (ends.len() * 2 / 3).min(ends.len() - 2);
        truncate_at(dir, ends[k2]).unwrap();
        let r2 = recover_and_audit(dir, &by_ticket);
        assert!(r2 <= r1, "{admission}: deeper cut keeps fewer commits");

        // Offset 3: a deep tear, 1 byte into a record ~1/3 in.
        let k3 = ends.len() / 3;
        truncate_at(dir, ends[k3] - 1).unwrap();
        let r3 = recover_and_audit(dir, &by_ticket);
        assert!(
            0 < r3 && r3 < r2,
            "{admission}: deep tear keeps a nonempty strict prefix"
        );

        // Offset 4 (bonus): cut inside the segment header — recovery of
        // an (effectively) empty log is a clean zero state.
        truncate_at(dir, 3).unwrap();
        let r4 = recover_and_audit(dir, &by_ticket);
        assert_eq!(r4, 0, "{admission}: headerless log replays nothing");
    }
}

/// `log+fsync`: the same crash contract holds when every record is
/// fsynced — and a crash at any scripted offset still recovers the
/// longest prefix (fsync narrows the loss *window*; the recovery
/// algebra is identical).
#[test]
fn crash_points_hold_under_fsync_mode() {
    let _serial = common::serial();
    let n = 120u64;
    let (scratch, by_ticket) = run_logged(
        AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        },
        DurabilityMode::LogFsync,
        n,
    );
    let dir = scratch.path();
    assert_eq!(recover_and_audit(dir, &by_ticket), n);
    let ends = scan(dir).unwrap().record_ends;
    truncate_at(dir, ends[ends.len() / 2] - 2).unwrap();
    let kept = recover_and_audit(dir, &by_ticket);
    assert!(0 < kept && kept < n);
}

/// Crash consistency on TPC-C: a torn log replays to a *valid* prefix
/// state — the money-conservation invariants hold on the recovered
/// database even though the tail commits vanished.
#[test]
fn tpcc_crash_recovery_preserves_invariants() {
    let _serial = common::serial();
    let scratch = TempDir::new("crash-tpcc");
    let tpcc_cfg = orthrus::storage::tpcc::TpccConfig::tiny(2);
    let db = Arc::new(Database::Tpcc(orthrus::storage::tpcc::TpccDb::load(
        tpcc_cfg, 33,
    )));
    let cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse)
        .with_durability(DurabilityMode::Log, scratch.path());
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
    let mut handle = engine.start(9);
    let session = handle.session();
    let mut gen = Spec::Tpcc(TpccSpec::paper_mix(tpcc_cfg)).generator(7, 0);
    let n = 300u64;
    for _ in 0..n {
        session.submit(gen.next_program()).expect("accepting");
    }
    handle.shutdown();
    drop(handle);
    drop(engine);

    let dir = scratch.path();
    let ends = scan(dir).unwrap().record_ends;
    truncate_at(dir, ends[ends.len() / 2] - 1).unwrap();

    let fresh = Arc::new(Database::Tpcc(orthrus::storage::tpcc::TpccDb::load(
        tpcc_cfg, 33,
    )));
    let (_engine, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
    assert!(0 < report.txns && report.txns < n);
    let t = fresh.tpcc();
    // Money conservation on the prefix state (same invariant the live
    // engine tests pin): warehouse ytd deltas == district ytd deltas,
    // history rows == payments.
    let w_delta: u64 = (0..t.warehouses.len())
        // SAFETY: quiesced test database.
        .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
        .sum();
    let d_delta: u64 = (0..t.districts.len())
        // SAFETY: quiesced test database.
        .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
        .sum();
    assert_eq!(w_delta, d_delta, "torn tail broke money conservation");
    let hist: u64 = (0..t.districts.len())
        // SAFETY: quiesced test database.
        .map(|d| unsafe { t.districts.read_with(d, |r| r.history_ctr as u64) })
        .sum();
    let pay: u64 = (0..t.customers.len())
        // SAFETY: quiesced test database.
        .map(|c| unsafe { t.customers.read_with(c, |r| (r.payment_cnt - 1) as u64) })
        .sum();
    assert_eq!(hist, pay);
}

/// Clears the shared failpoint registry on drop, so a failing assertion
/// in one scripted test cannot leave faults armed for the next.
struct ArmedRegistry;

impl ArmedRegistry {
    fn arm(name: &str, action: FailAction, count: Option<u64>) -> Self {
        failpoints().clear();
        failpoints().configure(name, action, count);
        ArmedRegistry
    }
}

impl Drop for ArmedRegistry {
    fn drop(&mut self) {
        failpoints().clear();
    }
}

/// An injected final-sync failure degrades gracefully: `try_shutdown`
/// returns a typed [`EngineError::LogSync`], every worker is joined (the
/// handle is reusable enough to report `Failed` on a retry), and the
/// already-appended log still recovers in full.
#[test]
fn injected_fsync_failure_reports_typed_error() {
    let _serial = common::serial();
    let n = 40u64;
    let scratch = TempDir::new("fsync-fault");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, scratch.path());
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
    let mut handle = engine.start(17);
    let session = handle.session();
    let mut gen = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false)).generator(41, 0);
    let mut by_ticket = HashMap::new();
    for _ in 0..n {
        let program = gen.next_program();
        let ticket = session.submit(program.clone()).expect("accepting");
        by_ticket.insert(ticket.0, program);
    }
    // Arm *after* the work is submitted: in fsync-free `Log` mode the
    // workers never sync; only the shutdown's final sync hits the fault.
    let _armed = ArmedRegistry::arm(FP_FSYNC, FailAction::Err, None);
    match handle.try_shutdown() {
        Err(EngineError::LogSync(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::Other, "injected error kind")
        }
        other => panic!("expected LogSync, got {other:?}"),
    }
    assert!(failpoints().hits(FP_FSYNC) > 0, "the fault never fired");
    // The handle is spent and says so — no panic, no hang, no leak.
    match handle.try_shutdown() {
        Err(EngineError::Failed(_)) => {}
        other => panic!("expected Failed on retried shutdown, got {other:?}"),
    }
    drop(handle);
    drop(_armed);
    // Workers were joined before the failing sync, so every record was
    // appended: the log replays the complete run.
    assert_eq!(recover_and_audit(scratch.path(), &by_ticket), n);
}

/// An injected append failure kills the execution thread; shutdown
/// reports it as a typed [`EngineError::WorkerPanicked`] — joining every
/// worker, not hanging on the dead one — and recovery still replays the
/// record-complete prefix.
#[test]
fn injected_append_failure_degrades_to_worker_panic() {
    let _serial = common::serial();
    let scratch = TempDir::new("append-fault");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, scratch.path());
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
    let mut handle = engine.start(17);
    let session = handle.session();
    let mut gen = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false)).generator(41, 0);
    let _armed = ArmedRegistry::arm(FP_APPEND, FailAction::Err, Some(1));
    // Few enough submissions to fit the ingest ring: the client must not
    // block feeding an execution thread the fault is about to kill.
    for _ in 0..20 {
        session.submit(gen.next_program()).expect("accepting");
    }
    match handle.try_shutdown() {
        Err(EngineError::WorkerPanicked(msg)) => {
            assert!(
                msg.contains("append"),
                "panic should name the append failure: {msg:?}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

/// An execution thread writes every run its quantum committed with one
/// `write`, and hands out their completions only after it. When that
/// write fails, every record in it is lost together — and none of them
/// was reported: the replayed tickets are exactly the drained ones.
/// Sixteen single-key transactions arrive at once, are granted in one
/// batch and commit in one quantum, so the failed write carries several
/// records; the live table, which they did update, says how many.
#[test]
fn a_failed_write_of_several_records_loses_only_unreported_commits() {
    let _serial = common::serial();
    let scratch = TempDir::new("append-fault-write");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, scratch.path());
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
    let mut handle = engine.start(17);
    let session = handle.session();
    // Key `k` is touched by ticket `k` alone.
    let queue = |keys: std::ops::Range<u64>| -> std::collections::VecDeque<(u64, Program)> {
        keys.map(|k| (k, Program::Rmw { keys: vec![k] })).collect()
    };
    let mut done = Vec::new();
    let mut first = queue(0..16);
    assert_eq!(session.try_submit_queue(&mut first, 1), Ok(16));
    while done.len() < 16 {
        handle.drain_completions(&mut done);
        std::thread::yield_now();
    }
    let _armed = ArmedRegistry::arm(FP_APPEND, FailAction::Err, Some(1));
    let mut second = queue(16..48);
    assert_eq!(session.try_submit_queue(&mut second, 1), Ok(32));
    match handle.try_shutdown() {
        Err(EngineError::WorkerPanicked(msg)) => assert!(msg.contains("append"), "{msg:?}"),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    handle.drain_completions(&mut done);
    drop(handle);
    drop(engine);
    drop(_armed);

    let fresh = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let (_recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
    let mut replayed = report.tickets.clone();
    replayed.sort_unstable();
    let mut drained: Vec<u64> = done.iter().map(|c| c.ticket.0).collect();
    drained.sort_unstable();
    assert_eq!(replayed, drained, "replayed = reported, no more, no less");
    // SAFETY: both engines are shut down; nothing touches the tables.
    let counter = |db: &Database, k| unsafe { db.read_counter(k) };
    let lost: Vec<u64> = (0..48)
        .filter(|&k| counter(&db, k) == 1 && counter(&fresh, k) == 0)
        .collect();
    assert!(
        lost.len() >= 2,
        "the failed write carried one record or none: {lost:?}"
    );
    assert!(lost.iter().all(|t| replayed.binary_search(t).is_err()));
}

/// A failed engine accepts no more work: once its only execution thread
/// has died, nothing drains the ingest lane, so a blocking `submit` that
/// found it full would wait forever. It is refused instead, as after a
/// shutdown. A watchdog turns a hang into a failure.
#[test]
fn a_failed_engine_refuses_submissions() {
    let _serial = common::serial();
    let scratch = TempDir::new("append-fault-refuse");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, scratch.path());
    cfg.ingest_capacity = 16;
    let engine = OrthrusEngine::service(db, cfg);
    let mut handle = engine.start(17);
    let session = handle.session();
    let _armed = ArmedRegistry::arm(FP_APPEND, FailAction::Err, Some(1));
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut gen = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false)).generator(41, 0);
        // Far more than the lane holds, or the thread admits before its
        // first write.
        let refused = (0..256).find_map(|_| session.submit(gen.next_program()).err());
        let _ = done.send(refused.map(|e| e.to_string()));
    });
    let refused = (outcome.recv_timeout(Duration::from_secs(10)))
        .expect("submit spins on the dead engine's full lane");
    assert_eq!(refused.as_deref(), Some("engine shutting down"));
    match handle.try_shutdown() {
        Err(EngineError::WorkerPanicked(msg)) => assert!(msg.contains("append"), "{msg:?}"),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

/// Names of this process's live threads that start with `prefix` (engine
/// threads are named after their `sim_prefix` + role).
#[cfg(target_os = "linux")]
fn live_threads(prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|name| name.starts_with(prefix))
        .collect();
    names.sort();
    names
}

/// The closed loop is a client of the same spawn path: an execution
/// thread killed mid-`run` (its first append fails) makes `run` fail
/// with the worker's own message, on time, and with every other thread
/// the run started — CC workers, group-fsync coordinator, checkpointer —
/// joined rather than leaked.
#[cfg(target_os = "linux")]
#[test]
fn injected_append_failure_fails_a_closed_loop_run_without_leaking_threads() {
    let _serial = common::serial();
    let scratch = TempDir::new("append-fault-closed");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let mut cfg = OrthrusConfig::with_threads(2, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::LogFsync, scratch.path());
    cfg.checkpoint_bytes = Some(1 << 30);
    cfg.sim_prefix = "leak.".to_string();
    let spec = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false));
    let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);

    // The leak check can see these threads at all: a started engine shows
    // all five, a shut-down one none.
    let mut handle = engine.start(17);
    let all = [
        "leak.cc0",
        "leak.cc1",
        "leak.ckpt",
        "leak.exec0",
        "leak.sync",
    ];
    // (A thread names itself as it starts: give the five a moment.)
    let deadline = Instant::now() + Duration::from_secs(5);
    while live_threads("leak.") != all && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(live_threads("leak."), all);
    handle.shutdown();
    assert_eq!(live_threads("leak."), Vec::<String>::new());

    let _armed = ArmedRegistry::arm(FP_APPEND, FailAction::Err, Some(1));
    let params = RunParams::quick(0);
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| engine.run(&params)));
    let took = started.elapsed();
    let payload = outcome.expect_err("a run that lost its execution thread must not succeed");
    let msg = payload
        .downcast_ref::<String>()
        .expect("run fails with a formatted message");
    assert!(msg.contains("append"), "should name the append: {msg:?}");
    assert!(
        took < params.warmup + params.measure + Duration::from_secs(2),
        "the run must end with its window, not hang on the dead thread: {took:?}"
    );
    assert_eq!(live_threads("leak."), Vec::<String>::new(), "leaked");
}

/// Fail-stop at two execution threads: every transaction locks the one
/// record, and when one execution thread dies in its append holding it,
/// its peer abandons its in-flight work instead of waiting forever for
/// grants. A watchdog turns a hang into a failure.
#[cfg(target_os = "linux")]
#[test]
fn injected_append_failure_fails_a_two_exec_run_on_one_key_without_leaking_threads() {
    let _serial = common::serial();
    let scratch = TempDir::new("append-fault-two-exec");
    let db = Arc::new(Database::Flat(Table::new(1, 64)));
    let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::LogFsync, scratch.path());
    cfg.checkpoint_bytes = Some(1 << 30);
    cfg.sim_prefix = "leak2.".to_string();
    let (workers, companions) = cfg.thread_names();
    assert_eq!(workers, ["leak2.cc0", "leak2.exec0", "leak2.exec1"]);
    assert_eq!(companions, ["leak2.sync", "leak2.ckpt"]);
    let spec = Spec::Micro(MicroSpec::uniform(1, 1, false));
    let engine = OrthrusEngine::new(db, spec, cfg);

    let _armed = ArmedRegistry::arm(FP_APPEND, FailAction::Err, Some(1));
    let params = RunParams::quick(0);
    let watchdog = params.warmup + params.measure + Duration::from_secs(10);
    let (done, outcome) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| engine.run(&params)));
        let _ = done.send(outcome.map(drop));
    });
    let outcome = (outcome.recv_timeout(watchdog))
        .expect("the run hangs: the live execution thread waits for its dead peer's locks");
    let payload = outcome.expect_err("a run that lost an execution thread must not succeed");
    let msg = payload
        .downcast_ref::<String>()
        .expect("run fails with a formatted message");
    assert!(msg.contains("append"), "should name the append: {msg:?}");
    assert_eq!(live_threads("leak2."), Vec::<String>::new(), "leaked");
}

/// A torn append scripted mid-stream through the registry — the write
/// lands only a 7-byte prefix of the frame, something the offline
/// truncation harness cannot do against a *live* engine: recovery drops
/// the torn record atomically and replays every fully-written commit.
#[test]
fn injected_torn_append_recovers_written_prefix() {
    let _serial = common::serial();
    let n1 = 30u64;
    let scratch = TempDir::new("torn-fault");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, scratch.path());
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
    let mut handle = engine.start(17);
    let session = handle.session();
    let mut gen = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false)).generator(41, 0);
    let mut by_ticket = HashMap::new();
    let mut done = Vec::new();
    for _ in 0..n1 {
        let program = gen.next_program();
        let ticket = session.submit(program.clone()).expect("accepting");
        by_ticket.insert(ticket.0, program);
    }
    // Completions release only after the covering record is written:
    // once all n1 are back, n1 commits are durably framed in the log.
    while (done.len() as u64) < n1 {
        handle.drain_completions(&mut done);
        std::thread::yield_now();
    }
    let _armed = ArmedRegistry::arm(FP_APPEND, FailAction::Torn(7), Some(1));
    for _ in 0..10 {
        let program = gen.next_program();
        let ticket = session.submit(program.clone()).expect("accepting");
        by_ticket.insert(ticket.0, program);
    }
    match handle.try_shutdown() {
        Err(EngineError::WorkerPanicked(_)) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    drop(handle);
    drop(engine);
    drop(_armed);
    // The torn frame is dropped; everything whole before it survives.
    let replayed = recover_and_audit(scratch.path(), &by_ticket);
    assert!(
        replayed >= n1 && replayed < n1 + 10,
        "replayed {replayed}, expected the pre-tear prefix (≥ {n1}, < {})",
        n1 + 10
    );
}

/// An unreadable log is a typed [`EngineError::Recovery`], not a panic:
/// here the "directory" is a plain file.
#[test]
fn unreadable_log_is_a_typed_recovery_error() {
    let _serial = common::serial();
    let scratch = TempDir::new("recover-fault");
    let bogus = scratch.path().join("not-a-dir");
    std::fs::write(&bogus, b"junk").unwrap();
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, &bogus);
    match OrthrusEngine::try_recover(db, cfg) {
        Err(EngineError::Recovery(_)) => {}
        Ok(_) => panic!("recovering from a plain file must fail"),
        Err(other) => panic!("expected Recovery, got {other:?}"),
    }
}

/// A log whose segment 0 is gone no longer starts from the snapshot a
/// fresh database holds, and without a checkpoint nothing says where it
/// does: recovery refuses it as a typed error and touches no file.
#[test]
fn a_log_without_segment_zero_needs_a_checkpoint() {
    let _serial = common::serial();
    let scratch = TempDir::new("recover-no-seg0");
    // 32-byte segments hold one record each.
    let log = CommandLog::open_with_segment_bytes(scratch.path(), DurabilityMode::Log, 32).unwrap();
    for i in 0..6 {
        log.append_run(&mut vec![LoggedCommit {
            ticket: Some(i),
            program: Program::Rmw { keys: vec![i] },
        }])
        .unwrap();
    }
    log.sync().unwrap();
    drop(log);
    std::fs::remove_file(scratch.path().join("seg-000000.olog")).unwrap();
    let files = || {
        let mut files: Vec<_> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let before = files();
    assert_eq!(before.len(), 5);

    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, scratch.path());
    match OrthrusEngine::try_recover(Arc::clone(&db), cfg) {
        Err(EngineError::Recovery(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}")
        }
        Ok((_, report)) => panic!("replayed {:?} onto a fresh table", report.tickets),
        Err(other) => panic!("expected Recovery, got {other:?}"),
    }
    assert!(files() == before, "a refused recovery touches no file");
    for k in 0..KEYS {
        // SAFETY: quiesced test database.
        assert_eq!(unsafe { db.read_counter(k) }, 0, "key {k}");
    }
}

/// `drain_completions` stays safe after the engine is shut down: the
/// workers are joined, but the handle still owns the completion rings
/// and the internal stash, so the call returns every remaining
/// completion and then empties — it must never panic on joined threads.
#[test]
fn drain_completions_after_shutdown_returns_leftovers_then_empty() {
    let _serial = common::serial();
    let n = 25u64;
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
    let mut handle = engine.start(17);
    let session = handle.session();
    let mut gen = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false)).generator(41, 0);
    for _ in 0..n {
        session.submit(gen.next_program()).expect("accepting");
    }
    // No drains before shutdown: everything lands in the shutdown stash.
    handle.shutdown();
    let mut done = Vec::new();
    assert_eq!(handle.drain_completions(&mut done) as u64, n);
    assert_eq!(
        done.len() as u64,
        n,
        "post-shutdown drain conserves tickets"
    );
    // Drained dry: further calls are cheap no-ops, not errors.
    for _ in 0..3 {
        assert_eq!(handle.drain_completions(&mut done), 0);
    }
}

/// Same audit on the *failed*-shutdown path: after a worker panic the
/// handle reports `EngineError::Failed` on retries, and draining must
/// still be a non-panicking no-op (whatever completed before the fault
/// is collectable; nothing hangs).
#[test]
fn drain_completions_after_failed_shutdown_does_not_panic() {
    let _serial = common::serial();
    let scratch = TempDir::new("drain-after-fail");
    let db = Arc::new(Database::Flat(Table::new(KEYS as usize, 64)));
    let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo)
        .with_durability(DurabilityMode::Log, scratch.path());
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
    let mut handle = engine.start(17);
    let session = handle.session();
    let mut gen = Spec::Micro(MicroSpec::hot_cold(KEYS, 8, 2, 3, false)).generator(41, 0);
    let _armed = ArmedRegistry::arm(FP_APPEND, FailAction::Err, Some(1));
    for _ in 0..10 {
        session.submit(gen.next_program()).expect("accepting");
    }
    match handle.try_shutdown() {
        Err(EngineError::WorkerPanicked(_)) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let mut done = Vec::new();
    handle.drain_completions(&mut done); // must not panic
    match handle.try_shutdown() {
        Err(EngineError::Failed(_)) => {}
        other => panic!("expected Failed on retried shutdown, got {other:?}"),
    }
    handle.drain_completions(&mut done); // still safe after Failed
}
