//! Mid-run crash-restart simulation: kill one enrolled engine thread at
//! a scheduled step, then recover *inside the same simulation* — same
//! scheduler, same seeded token — and check that the crash boundary
//! preserved every durability invariant.
//!
//! The fault model is **thread death**, not process death: the command
//! log's appends are full `write_all`s issued before any completion is
//! released, so a record either made it into the (process-visible) log
//! or its transaction never reported. Torn tails are the recovery
//! suite's department (`append_torn`); this module owns the scheduling
//! side — a victim dying between any two handoffs, with the survivors
//! mid-flight.
//!
//! Generation 1 drives a micro workload with `try_submit` (never
//! blocking: once the victim is dead the engine may never drain again),
//! stops feeding at the crash, and expects shutdown to report the death.
//! Generation 2 then recovers a fresh database from the log **in-sim**
//! (replay runs on the enrolled client thread), restarts the engine
//! through the scheduler's restart barrier
//! ([`SimScheduler::expect_restart`]/[`SimScheduler::await_restart`]),
//! and submits a post-restart batch. Checks:
//!
//! - every completion delivered before the crash is in the replayed set
//!   (durability of reported commits);
//! - the recovered state equals the submitted-effect model over exactly
//!   the replayed tickets (no partial transactions);
//! - generation 2 conserves its own tickets densely;
//! - the final state equals the model over replayed ∪ post-restart
//!   programs, and re-recovering from the combined log (twice) rebuilds
//!   it bit-identically — replay determinism across the restart
//!   boundary.
//!
//! The whole two-generation run hashes into one trace on the one
//! scheduler, so `(seed)` replays the crash and the recovery
//! bit-identically — the property `crash_runs_replay_bit_identically`
//! pins.

use std::collections::HashMap;
use std::sync::Arc;

use orthrus_common::rng::XorShift64;
use orthrus_common::{sim, TempDir};
use orthrus_core::{
    AdmissionPolicy, CcAssignment, DurabilityMode, EngineError, OrthrusConfig, OrthrusEngine,
    SyncInterval, TrySubmitError,
};
use orthrus_txn::Program;

use crate::run::{build_db, digest, draw_depth, sim_lock, workload_spec, WorkloadKind, N_RECORDS};
use crate::sched::{client_names, CrashSpec, FaultPlan, SchedReport, SimScheduler};

/// A crash-restart run configuration. Narrower than [`crate::SimConfig`]
/// on purpose: micro workloads only (their submitted-effect model is
/// exact, so the recovered state can be checked against precisely the
/// replayed ticket set), durability always on (there is nothing to
/// recover without a log), one exec thread (the victim's lane is the
/// whole engine, so "the engine stalls after the crash" is deterministic
/// rather than lane-dependent), and no checkpoints (a checkpoint image
/// would absorb part of the replayed set and blur the exact-model
/// check).
#[derive(Debug, Clone)]
pub struct CrashSimConfig {
    pub seed: u64,
    pub workload: WorkloadKind,
    /// Transactions the client tries to submit before the crash point.
    pub txns_pre: usize,
    /// Transactions submitted after the in-sim restart.
    pub txns_post: usize,
    pub n_cc: usize,
    pub max_inflight: usize,
    pub flush_threshold: usize,
    pub admission: AdmissionPolicy,
    pub durability: DurabilityMode,
    pub sync_interval: SyncInterval,
    pub forwarding: bool,
    pub plan: FaultPlan,
}

impl CrashSimConfig {
    /// Derive a crash corpus entry from a seed: every knob including the
    /// victim (`exec0`, or the group-fsync coordinator when the seed
    /// runs one) and the crash step. Any engine thread can be named
    /// instead (`cc0`: `crates/sim/tests/cc_crash.rs`).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0xC4A5_4B00_7AB1_E5E5);
        let workload = if rng.chance_percent(50) {
            WorkloadKind::MicroHot
        } else {
            WorkloadKind::MicroUniform
        };
        let admission = match rng.next_below(3) {
            0 => AdmissionPolicy::Fifo,
            1 => AdmissionPolicy::ConflictBatch {
                classes: 4,
                batch: 4,
            },
            // One class: every transaction shares a run queue. (This draw
            // was a deleted adaptive policy; it stays three-way so every
            // seed keeps the rest of its stream.)
            _ => AdmissionPolicy::ConflictBatch {
                classes: 1,
                batch: 4,
            },
        };
        let durability = if rng.chance_percent(50) {
            DurabilityMode::Log
        } else {
            DurabilityMode::LogFsync
        };
        // The third outcome was a fixed-cadence coordinator; it stays
        // drawn so every seed derives the rest of its configuration from
        // the same RNG stream.
        let sync_interval = match rng.next_below(3) {
            0 => SyncInterval::PerRun,
            _ => SyncInterval::Adaptive,
        };
        let has_sync = durability == DurabilityMode::LogFsync && sync_interval.is_group();
        let victim = if has_sync && rng.chance_percent(40) {
            "sync".to_string()
        } else {
            "exec0".to_string()
        };
        let at_step = 20 + rng.next_below(381);
        let mut cfg = CrashSimConfig {
            seed,
            workload,
            txns_pre: 12 + rng.next_below(13) as usize,
            txns_post: 8 + rng.next_below(9) as usize,
            n_cc: 1 + rng.next_below(2) as usize,
            max_inflight: 2 + rng.next_below(3) as usize,
            flush_threshold: [1, 4][rng.next_below(2) as usize],
            admission,
            durability,
            sync_interval,
            forwarding: {
                // Once the shared-lock-table CC variant's draw; kept so
                // the rest of the seed's configuration is unchanged.
                rng.chance_percent(25);
                rng.chance_percent(75)
            },
            plan: FaultPlan {
                delay_pct: [0, 10, 30][rng.next_below(3) as usize],
                deny_push_pct: [0, 10][rng.next_below(2) as usize],
                shuffle_lanes: rng.chance_percent(50),
                crash: Some(CrashSpec { victim, at_step }),
                ..FaultPlan::default()
            },
        };
        cfg.max_inflight = draw_depth(&mut rng, cfg.max_inflight, &mut cfg.admission);
        cfg
    }
}

/// Everything a finished crash-restart run exposes.
#[derive(Debug)]
pub struct CrashSimOutcome {
    pub steps: u64,
    /// One hash over both generations' schedule — the bit-identity pin
    /// *across* the restart boundary.
    pub trace_hash: u64,
    /// Whether the scheduled crash actually fired (a late `at_step` can
    /// miss a short run; the run then checks clean-shutdown invariants
    /// instead).
    pub crashed: bool,
    /// Tickets recovery replayed at the restart.
    pub replayed: usize,
    /// Final table digest after generation 2 (or generation 1 when the
    /// crash never fired).
    pub state_digest: Vec<u64>,
    pub violations: Vec<String>,
    pub report: SchedReport,
    pub thread_names: Vec<String>,
}

/// Record `program`'s effect into the per-key increment model. Micro
/// generators emit only `Rmw`; anything else would break the exact-model
/// contract, so it is a run violation, not a silent skip.
fn fold_model(model: &mut [u64], keys: &[u64]) {
    for &k in keys {
        model[k as usize] += 1;
    }
}

fn rmw_keys(program: &Program, violations: &mut Vec<String>) -> Vec<u64> {
    match program {
        Program::Rmw { keys } => keys.clone(),
        other => {
            violations.push(format!("crash sim expects Rmw programs, got {other:?}"));
            Vec::new()
        }
    }
}

/// Install (once, process-wide) a panic hook that swallows the panics
/// this module *injects* — the victim's `sim: injected crash` and the
/// downstream `commits lost durability` from exec threads orphaned by a
/// coordinator death. Everything else still reaches the previous hook:
/// a corpus of hundreds of crashes would otherwise bury real failures
/// under pages of expected backtraces.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if msg.contains("sim: injected crash") || msg.contains("commits lost durability") {
                return;
            }
            prev(info);
        }));
    });
}

/// Run one two-generation crash-restart simulation. See the module docs
/// for the protocol and the checked invariants.
pub fn run_crash_sim(cfg: &CrashSimConfig, keep_trace: bool) -> CrashSimOutcome {
    let _serial = sim_lock();
    silence_injected_panics();
    let mut violations: Vec<String> = Vec::new();

    let crash = cfg.plan.crash.clone().expect("crash sim needs a CrashSpec");
    let db = build_db(cfg.workload);
    let mut ocfg = OrthrusConfig::with_threads(cfg.n_cc, 1, CcAssignment::KeyModulo);
    ocfg.max_inflight = cfg.max_inflight;
    ocfg.forwarding = cfg.forwarding;
    ocfg.flush_threshold = cfg.flush_threshold;
    ocfg.ingest_capacity = 16;
    ocfg.admission = cfg.admission.clone();
    assert!(cfg.durability.is_on(), "crash recovery needs a log");
    let scratch = TempDir::new("crashsim");
    ocfg = ocfg.with_durability(cfg.durability, scratch.path());
    ocfg.sync_interval = cfg.sync_interval;

    let (workers, companions) = ocfg.thread_names();
    let engine_names: Vec<String> = workers.iter().chain(&companions).cloned().collect();
    let names: Vec<String> = workers
        .into_iter()
        .chain(client_names(1))
        .chain(companions)
        .collect();
    if !engine_names.contains(&crash.victim) {
        violations.push(format!(
            "crash victim {:?} is not an engine participant",
            crash.victim
        ));
    }
    let sched = Arc::new(SimScheduler::new(
        cfg.seed,
        names,
        cfg.plan.clone(),
        keep_trace,
    ));
    let thread_names = sched.names().to_vec();
    sim::install(Arc::<SimScheduler>::clone(&sched));

    let engine = OrthrusEngine::service(Arc::clone(&db), ocfg.clone());
    let mut handle = engine.start(cfg.seed);
    let client = sim::enroll("client");

    // Generation 1: feed with `try_submit` only — once the victim dies
    // the engine may never drain again, so a blocking submit could park
    // forever. Stop feeding the moment the crash fires. The returned
    // ticket maps each accepted program to its id for the replay-model
    // check.
    let mut generator = workload_spec(cfg.workload).generator(cfg.seed, 0);
    let session = handle.session();
    let mut programs: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut completions = Vec::new();
    'feed: for _ in 0..cfg.txns_pre {
        let mut program = generator.next_program();
        let keys = rmw_keys(&program, &mut violations);
        loop {
            if sched.crash_fired() {
                break 'feed;
            }
            match session.try_submit(program) {
                Ok(ticket) => {
                    programs.insert(ticket.0, keys);
                    break;
                }
                Err(TrySubmitError::Full(p)) => {
                    program = p;
                    handle.drain_completions(&mut completions);
                    if !sim::on_park() {
                        std::thread::yield_now();
                    }
                }
                Err(TrySubmitError::Shutdown(_)) => {
                    violations.push("submission refused before any shutdown".to_string());
                    break 'feed;
                }
            }
        }
    }

    // Drain until the crash fires or everything accepted has completed
    // (a late `at_step` can outlive a short run).
    let accepted1 = handle.accepted();
    while !sched.crash_fired() && (completions.len() as u64) < accepted1 {
        handle.drain_completions(&mut completions);
        if !sim::on_park() {
            std::thread::yield_now();
        }
    }

    let delivered1: Vec<u64> = completions.iter().map(|c| c.ticket.0).collect();

    let outcome_digest;
    let mut replayed_count = 0usize;
    let shutdown = handle.try_shutdown();
    // Read after the shutdown: the victim runs until joined, and a crash
    // scheduled late can fire while it drains.
    let crashed = sched.crash_fired();
    match shutdown {
        // Expected: the victim's death surfaces as its panic.
        Err(EngineError::WorkerPanicked(_)) if crashed => {}
        Err(e) if crashed => violations.push(format!("a crash surfaced as {e}")),
        Err(e) => violations.push(format!("shutdown failed without a crash: {e}")),
        Ok(_) if crashed => {
            violations.push("crash fired but shutdown reported success".to_string())
        }
        Ok(stats) => {
            // The crash never fired: generation 1 is an ordinary clean
            // run — hold it to the ordinary conservation bar.
            if stats.totals.committed_all != accepted1 {
                violations.push(format!(
                    "commit conservation: {} committed vs {accepted1} accepted",
                    stats.totals.committed_all
                ));
            }
        }
    }
    handle.drain_completions(&mut completions);
    drop(handle);
    drop(engine);

    if crashed {
        // ---- Generation 2: recover in-sim and restart. ----
        let db2 = build_db(cfg.workload);
        match OrthrusEngine::try_recover(Arc::clone(&db2), ocfg.clone()) {
            Ok((engine2, replay)) => {
                replayed_count = replay.tickets.len();
                // Replayed tickets: a duplicate-free subset of what was
                // accepted, covering everything whose completion was
                // delivered before the crash.
                let mut sorted = replay.tickets.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != replay.tickets.len() {
                    violations.push("replay produced duplicate tickets".to_string());
                }
                if sorted.iter().any(|&t| t >= accepted1) {
                    violations.push(format!(
                        "replayed a ticket never accepted (accepted {accepted1})"
                    ));
                }
                for t in &delivered1 {
                    if !sorted.contains(t) {
                        violations.push(format!(
                            "durability hole: completion {t} delivered before the \
                             crash but absent from replay"
                        ));
                        break;
                    }
                }
                // Exact-model check: the recovered state is the effect of
                // precisely the replayed programs, each applied once.
                let mut model = vec![0u64; N_RECORDS as usize];
                for t in &replay.tickets {
                    match programs.get(t) {
                        Some(keys) => fold_model(&mut model, keys),
                        None => violations.push(format!("replayed unknown ticket {t}")),
                    }
                }
                if digest(&db2, cfg.workload) != model {
                    violations
                        .push("recovered state diverged from the replayed-set model".to_string());
                }

                // Restart the engine threads through the scheduler's
                // barrier: announce, spawn, admit atomically.
                let restart: Vec<&str> = engine_names.iter().map(String::as_str).collect();
                sched.expect_restart(&restart);
                let mut handle2 = engine2.start(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
                sched.await_restart();

                // Post-restart batch: the engine is healthy again, so the
                // ordinary blocking submit (parking via the sim seam) is
                // safe.
                let session2 = handle2.session();
                let mut post_model = vec![0u64; N_RECORDS as usize];
                let mut completions2 = Vec::new();
                for i in 0..cfg.txns_post {
                    let program = generator.next_program();
                    fold_model(&mut post_model, &rmw_keys(&program, &mut violations));
                    if let Err(e) = session2.submit(program) {
                        violations.push(format!("post-restart submit #{i} rejected: {e:?}"));
                        break;
                    }
                    if i % 8 == 7 {
                        handle2.drain_completions(&mut completions2);
                    }
                }
                let accepted2 = handle2.accepted();
                match handle2.try_shutdown() {
                    Ok(stats) => {
                        if stats.totals.committed_all != accepted2 {
                            violations.push(format!(
                                "post-restart commit conservation: {} committed vs \
                                 {accepted2} accepted",
                                stats.totals.committed_all
                            ));
                        }
                    }
                    Err(e) => violations.push(format!("post-restart shutdown failed: {e}")),
                }
                let mut rounds = 0;
                while (completions2.len() as u64) < accepted2 && rounds < 1024 {
                    handle2.drain_completions(&mut completions2);
                    rounds += 1;
                }
                let mut tickets2: Vec<u64> = completions2.iter().map(|c| c.ticket.0).collect();
                tickets2.sort_unstable();
                if tickets2 != (0..accepted2).collect::<Vec<u64>>() {
                    violations.push(format!(
                        "post-restart ticket conservation: {} completions for \
                         {accepted2} accepted",
                        tickets2.len()
                    ));
                }
                // Final state = replayed model + post-restart model.
                for (k, n) in post_model.into_iter().enumerate() {
                    model[k] += n;
                }
                if digest(&db2, cfg.workload) != model {
                    violations.push("final state diverged from replayed+post model".to_string());
                }
                outcome_digest = digest(&db2, cfg.workload);
                drop(handle2);
                drop(engine2);
            }
            Err(e) => {
                violations.push(format!("in-sim recovery failed: {e}"));
                outcome_digest = digest(&db2, cfg.workload);
            }
        }
    } else {
        outcome_digest = digest(&db, cfg.workload);
    }

    drop(client);
    let report = sched.report();
    sim::uninstall();
    if !report.unknown_registrations.is_empty() {
        violations.push(format!(
            "unexpected sim participants: {:?}",
            report.unknown_registrations
        ));
    }

    // Replay determinism across the restart boundary: recovering the
    // combined (gen-1 prefix + gen-2) log twice more — outside the sim,
    // like any post-mortem — must rebuild the final state both times.
    if violations.is_empty() {
        for round in 0..2 {
            let fresh = build_db(cfg.workload);
            match OrthrusEngine::try_recover(Arc::clone(&fresh), ocfg.clone()) {
                Ok((recovered, _replay)) => {
                    drop(recovered);
                    if digest(&fresh, cfg.workload) != outcome_digest {
                        violations.push(format!(
                            "post-mortem replay #{round} diverged from the live final state"
                        ));
                    }
                }
                Err(e) => violations.push(format!("post-mortem recovery #{round} failed: {e}")),
            }
        }
    }

    CrashSimOutcome {
        steps: report.steps,
        trace_hash: report.trace_hash,
        crashed,
        replayed: replayed_count,
        state_digest: outcome_digest,
        violations,
        report,
        thread_names,
    }
}
