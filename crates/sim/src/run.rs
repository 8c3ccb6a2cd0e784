//! One simulated engine run: derive a configuration from a seed, drive a
//! workload through the open-loop client API under the [`SimScheduler`],
//! and check every invariant the run is supposed to preserve.
//!
//! Violations are *collected*, not asserted: the explorer wants to report
//! a failing seed (and minimize its fault budget) rather than unwind.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use orthrus_common::rng::XorShift64;
use orthrus_common::{sim, TempDir};
use orthrus_core::{
    AdmissionPolicy, CcAssignment, DurabilityMode, OrthrusConfig, OrthrusEngine, SyncInterval,
};
use orthrus_storage::tpcc::{TpccConfig, TpccDb};
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};
use orthrus_workload::{MicroSpec, Spec, TpccSpec};

use crate::sched::{client_names, FaultPlan, SchedReport, SimScheduler};

/// Flat-keyspace size for the micro workloads (small: more contention).
pub(crate) const N_RECORDS: u64 = 32;
/// Fixed TPC-C load seed — part of the deterministic surface, and what
/// recovery reloads as the log's logical starting snapshot.
pub(crate) const TPCC_DB_SEED: u64 = 7;

/// Which workload the simulated clients submit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Hot/cold micro RMW: heavy conflicts on a tiny hot set.
    MicroHot,
    /// Uniform micro RMW.
    MicroUniform,
    /// TPC-C paper mix on a tiny one-warehouse database.
    Tpcc,
}

/// A full simulated-run configuration. [`SimConfig::from_seed`] derives
/// every knob from the seed, so the explorer's space covers both
/// admission policies (batched with four classes or one) × durability
/// modes × 1–3 CC threads.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub seed: u64,
    /// Transactions the clients submit (between them) before shutdown.
    pub txns: usize,
    /// Client threads enrolled in the schedule (≥ 1). Client `k`
    /// submits the transactions with index ≡ k (mod `n_clients`), each
    /// from its own generator stream.
    pub n_clients: usize,
    pub n_cc: usize,
    pub n_exec: usize,
    pub max_inflight: usize,
    pub flush_threshold: usize,
    pub ingest_capacity: usize,
    pub admission: AdmissionPolicy,
    pub durability: DurabilityMode,
    /// Fsync grouping for `LogFsync` seeds: per-run inline syncs or the
    /// cross-thread group coordinator (rung 2).
    pub sync_interval: SyncInterval,
    /// Fuzzy-checkpoint cadence in appended log bytes (rung 2); `None`
    /// disables the checkpointer thread.
    pub checkpoint_bytes: Option<u64>,
    /// CC→CC grant forwarding (Section 3.3).
    pub forwarding: bool,
    pub workload: WorkloadKind,
    pub plan: FaultPlan,
    /// Submit only these transaction indices (the workload shrinker's
    /// knob). `None` = all of `0..txns`. Generator streams are *not*
    /// re-derived — dropped indices are generated and skipped, so the
    /// kept transactions are byte-identical to the full run's.
    pub keep: Option<Vec<u32>>,
    /// Self-test fault for the shrinker: report a violation when the
    /// final counter of `(key, threshold).0` reaches `threshold`. Lets a
    /// test hand-seed a failing run whose minimal repro size is known
    /// exactly (micro workloads only; inert otherwise).
    pub poison: Option<(u64, u64)>,
}

impl SimConfig {
    /// Derive a mixed-workload configuration from a seed. The derivation
    /// RNG is separate from the scheduler's, so two seeds differing in
    /// one bit still explore unrelated configurations.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0xC0FF_EE00_D15E_A5E5);
        let workload = match rng.next_below(3) {
            0 => WorkloadKind::MicroHot,
            1 => WorkloadKind::MicroUniform,
            _ => WorkloadKind::Tpcc,
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
        let durability = match rng.next_below(3) {
            0 => DurabilityMode::Off,
            1 => DurabilityMode::Log,
            _ => DurabilityMode::LogFsync,
        };
        // Rung-2 knobs: LogFsync seeds split between inline per-run
        // syncs and the group coordinator; any durable seed may also run
        // the fuzzy checkpointer. Tiny cadence so even short runs cross
        // a checkpoint boundary. (The third outcome was a fixed-cadence
        // coordinator; it stays drawn so every seed keeps deriving the
        // rest of its configuration from the same RNG stream.)
        let sync_interval = match rng.next_below(3) {
            0 => SyncInterval::PerRun,
            _ => SyncInterval::Adaptive,
        };
        let checkpoint_bytes = (durability.is_on() && rng.chance_percent(50)).then_some(192);
        // Micro seeds once drew a shared-lock-table CC variant here; the
        // draw stays so every seed keeps deriving the rest of its
        // configuration from the same RNG stream.
        if workload != WorkloadKind::Tpcc {
            rng.chance_percent(25);
        }
        let mut cfg = SimConfig {
            seed,
            txns: 24 + rng.next_below(17) as usize,
            n_clients: 1,
            n_cc: 1 + rng.next_below(3) as usize,
            n_exec: 1 + rng.next_below(2) as usize,
            max_inflight: 2 + rng.next_below(3) as usize,
            flush_threshold: [1, 4, 16][rng.next_below(3) as usize],
            ingest_capacity: 16,
            admission,
            durability,
            sync_interval,
            checkpoint_bytes,
            forwarding: rng.chance_percent(75),
            workload,
            plan: FaultPlan {
                delay_pct: [0, 10, 30][rng.next_below(3) as usize],
                deny_push_pct: [0, 10][rng.next_below(2) as usize],
                shuffle_lanes: rng.chance_percent(50),
                ..FaultPlan::default()
            },
            keep: None,
            poison: None,
        };
        // Drawn last so the knob rides along without re-deriving any
        // earlier field for pre-existing seeds.
        cfg.n_clients = if rng.chance_percent(25) { 2 } else { 1 };
        cfg
    }

    /// How many transactions the keep-filter actually submits.
    pub fn submitted_txns(&self) -> usize {
        match &self.keep {
            None => self.txns,
            Some(keep) => (0..self.txns as u32).filter(|i| keep.contains(i)).count(),
        }
    }
}

/// Everything a finished simulated run exposes to the explorer and to
/// the determinism pin.
#[derive(Debug)]
pub struct SimOutcome {
    pub steps: u64,
    /// Order-sensitive hash of the whole schedule — equal hashes mean a
    /// bit-identical interleaving.
    pub trace_hash: u64,
    pub perturbations: u64,
    /// Flattened final table state (see [`digest`]): the other half of
    /// the determinism/replay pin.
    pub state_digest: Vec<u64>,
    pub committed: u64,
    /// Runs the execution threads admitted (one lock round each), and the
    /// most transactions one of them had in flight: how admission shaped
    /// the run.
    pub runs: u64,
    pub inflight_max: u64,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    pub report: SchedReport,
    pub thread_names: Vec<String>,
}

/// Serializes simulated runs process-wide: the sim seam is a process
/// global, so two concurrent runs would enroll into each other's
/// schedulers.
pub(crate) fn sim_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn build_db(workload: WorkloadKind) -> Arc<Database> {
    match workload {
        WorkloadKind::MicroHot | WorkloadKind::MicroUniform => {
            Arc::new(Database::Flat(Table::new(N_RECORDS as usize, 64)))
        }
        WorkloadKind::Tpcc => Arc::new(Database::Tpcc(TpccDb::load(
            TpccConfig::tiny(1),
            TPCC_DB_SEED,
        ))),
    }
}

pub(crate) fn workload_spec(workload: WorkloadKind) -> Spec {
    match workload {
        WorkloadKind::MicroHot => Spec::Micro(MicroSpec::hot_cold(N_RECORDS, 8, 2, 3, false)),
        WorkloadKind::MicroUniform => Spec::Micro(MicroSpec::uniform(N_RECORDS, 3, false)),
        WorkloadKind::Tpcc => Spec::Tpcc(TpccSpec::paper_mix(TpccConfig::tiny(1))),
    }
}

/// Flatten the final table state into a comparable vector. Covers every
/// field the workloads mutate; `Instant`-derived latencies never reach
/// table state, so equal digests under equal schedules are the
/// serializability/replay pin.
pub(crate) fn digest(db: &Database, workload: WorkloadKind) -> Vec<u64> {
    match workload {
        WorkloadKind::MicroHot | WorkloadKind::MicroUniform => (0..N_RECORDS)
            .map(|k| unsafe { db.read_counter(k) })
            .collect(),
        WorkloadKind::Tpcc => {
            let t = db.tpcc();
            let mut out = Vec::new();
            for w in 0..t.warehouses.len() {
                out.push(unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) });
            }
            for d in 0..t.districts.len() {
                out.push(unsafe {
                    t.districts.read_with(d, |r| {
                        r.ytd_cents
                            ^ ((r.next_o_id as u64) << 1)
                            ^ ((r.history_ctr as u64) << 17)
                            ^ ((r.delivered_cnt as u64) << 33)
                    })
                });
                out.push(unsafe { t.districts.read_with(d, |r| r.delivered_cents) });
            }
            for c in 0..t.customers.len() {
                out.push(unsafe {
                    t.customers.read_with(c, |r| {
                        (r.balance_cents as u64)
                            ^ (r.ytd_payment_cents << 1)
                            ^ ((r.payment_cnt as u64) << 33)
                            ^ ((r.delivery_cnt as u64) << 49)
                    })
                });
            }
            for s in 0..t.stock.len() {
                out.push(unsafe {
                    t.stock.read_with(s, |r| {
                        (r.quantity as u64)
                            ^ ((r.ytd as u64) << 16)
                            ^ ((r.order_cnt as u64) << 32)
                            ^ ((r.remote_cnt as u64) << 48)
                    })
                });
            }
            out
        }
    }
}

/// Run one simulated engine lifetime under `cfg` and return its outcome.
/// `keep_trace` records the full step list (memory-heavy; the explorer
/// enables it only when reproducing a failure).
pub fn run_sim(cfg: &SimConfig, keep_trace: bool) -> SimOutcome {
    run_sim_guided(cfg, keep_trace, None)
}

/// [`run_sim`] with an optional coverage snapshot: the scheduler biases
/// its picks toward handoff transitions absent from `snapshot` (see
/// [`crate::cover`]). Bit-identical replay needs the same snapshot.
pub fn run_sim_guided(
    cfg: &SimConfig,
    keep_trace: bool,
    snapshot: Option<HashSet<u64>>,
) -> SimOutcome {
    let _serial = sim_lock();
    let mut violations: Vec<String> = Vec::new();
    assert!(cfg.n_clients >= 1, "a run needs a driving client");

    let db = build_db(cfg.workload);

    let assignment = match cfg.workload {
        WorkloadKind::Tpcc => CcAssignment::Warehouse,
        _ => CcAssignment::KeyModulo,
    };
    let mut ocfg = OrthrusConfig::with_threads(cfg.n_cc, cfg.n_exec, assignment);
    ocfg.max_inflight = cfg.max_inflight;
    ocfg.forwarding = cfg.forwarding;
    ocfg.flush_threshold = cfg.flush_threshold;
    ocfg.ingest_capacity = cfg.ingest_capacity;
    ocfg.admission = cfg.admission.clone();
    let scratch = cfg.durability.is_on().then(|| TempDir::new("sim"));
    if let Some(dir) = &scratch {
        ocfg = ocfg.with_durability(cfg.durability, dir.path());
        ocfg.sync_interval = cfg.sync_interval;
        ocfg.checkpoint_bytes = cfg.checkpoint_bytes;
    }

    // The registration barrier must match the enrolled set exactly: the
    // engine's own thread list, with the clients between its workers and
    // its companions.
    let (mut names, companions) = ocfg.thread_names();
    names.extend(client_names(cfg.n_clients));
    names.extend(companions);
    let mut sched = SimScheduler::new(cfg.seed, names, cfg.plan.clone(), keep_trace);
    if let Some(snap) = snapshot {
        sched = sched.with_coverage(snap);
    }
    let sched = Arc::new(sched);
    let thread_names = sched.names().to_vec();
    sim::install(Arc::<SimScheduler>::clone(&sched));

    let engine = OrthrusEngine::service(Arc::clone(&db), ocfg.clone());
    let mut handle = engine.start(cfg.seed);

    // Secondary clients: enrolled participants submitting their share of
    // the index space through their own sessions, each returning its
    // local expected-effect model (per-key increments commute, so the
    // merged model checks exactly).
    let mut extra_clients = Vec::new();
    for k in 1..cfg.n_clients {
        let session = handle.session();
        let mut generator = workload_spec(cfg.workload).generator(cfg.seed, k);
        let (txns, n_clients, keep) = (cfg.txns, cfg.n_clients, cfg.keep.clone());
        extra_clients.push(std::thread::spawn(move || {
            let _sim = sim::enroll(&format!("client{k}"));
            let mut model = vec![0u64; N_RECORDS as usize];
            let mut errors = Vec::new();
            for i in (k..txns).step_by(n_clients) {
                let program = generator.next_program();
                if keep.as_ref().is_some_and(|ks| !ks.contains(&(i as u32))) {
                    continue;
                }
                if let Program::Rmw { keys } = &program {
                    for &key in keys {
                        model[key as usize] += 1;
                    }
                }
                if let Err(e) = session.submit(program) {
                    errors.push(format!("client{k} submit #{i} rejected: {e:?}"));
                    break;
                }
            }
            (model, errors)
        }));
    }

    // Enroll *after* start(): the registration barrier waits for every
    // participant, and the workers are only spawned by start().
    let client = sim::enroll("client");

    // Expected effect model for the micro workloads: each Rmw increments
    // each of its keys once (multi-mentions count multiply).
    let mut expected = vec![0u64; N_RECORDS as usize];
    let mut generator = workload_spec(cfg.workload).generator(cfg.seed, 0);
    let session = handle.session();
    let mut completions = Vec::new();
    let mut drains = 0usize;
    for i in (0..cfg.txns).step_by(cfg.n_clients) {
        let program = generator.next_program();
        if cfg
            .keep
            .as_ref()
            .is_some_and(|ks| !ks.contains(&(i as u32)))
        {
            continue;
        }
        if let Program::Rmw { keys } = &program {
            for &k in keys {
                expected[k as usize] += 1;
            }
        }
        if let Err(e) = session.submit(program) {
            violations.push(format!("submit #{i} rejected: {e:?}"));
            break;
        }
        drains += 1;
        if drains % 8 == 7 {
            handle.drain_completions(&mut completions);
        }
    }

    // Join the secondary clients before fencing submissions: their
    // blocking submits park through the sim seam, so spinning here with
    // `on_park` keeps the token circulating (same pattern as the
    // engine's aux-thread join).
    for (k, h) in extra_clients.into_iter().enumerate() {
        // Virtual-time liveness, not `is_finished`: the OS unwind of a
        // retired client takes real time, and counting parks against it
        // would make the step count timing-dependent.
        while sim::thread_running(&h, &format!("client{}", k + 1)) {
            if !sim::on_park() {
                std::thread::yield_now();
            }
            handle.drain_completions(&mut completions);
        }
        let (model, errors) = h.join().expect("client thread panicked");
        for (k, n) in model.into_iter().enumerate() {
            expected[k] += n;
        }
        violations.extend(errors);
    }

    let submitted = cfg.submitted_txns() as u64;
    let accepted = handle.accepted();
    if accepted != submitted && violations.is_empty() {
        violations.push(format!(
            "submission ledger: accepted {accepted} of {submitted} submitted"
        ));
    }

    let (mut committed, mut runs, mut inflight_max) = (0, 0, 0);
    let shutdown_ok = match handle.try_shutdown() {
        Ok(stats) => {
            committed = stats.totals.committed_all;
            runs = stats.totals.runs;
            inflight_max = stats.inflight_max();
            if committed != accepted {
                violations.push(format!(
                    "commit conservation: {committed} committed vs {accepted} accepted"
                ));
            }
            true
        }
        Err(e) => {
            violations.push(format!("shutdown failed: {e}"));
            false
        }
    };
    // Final drain, retried: pop-delay faults can deny the drain itself
    // (delayed delivery), and a real client retries those. Bounded so an
    // engine that genuinely lost a completion still fails the check.
    let mut rounds = 0;
    while (completions.len() as u64) < accepted && rounds < 1024 {
        handle.drain_completions(&mut completions);
        rounds += 1;
    }

    // Ticket conservation: every accepted ticket completes exactly once.
    let mut tickets: Vec<u64> = completions.iter().map(|c| c.ticket.0).collect();
    tickets.sort_unstable();
    let expected_tickets: Vec<u64> = (0..accepted).collect();
    if tickets != expected_tickets {
        violations.push(format!(
            "ticket conservation: {} completions for {accepted} accepted \
             (lost or duplicated tickets)",
            tickets.len()
        ));
    }

    if shutdown_ok {
        check_semantics(&db, cfg.workload, &expected, &mut violations);
    }
    if let Some((key, threshold)) = cfg.poison {
        if matches!(
            cfg.workload,
            WorkloadKind::MicroHot | WorkloadKind::MicroUniform
        ) {
            let got = unsafe { db.read_counter(key) };
            if got >= threshold {
                violations.push(format!(
                    "poison: key {key} counter {got} reached threshold {threshold}"
                ));
            }
        }
    }
    let state_digest = digest(&db, cfg.workload);

    drop(handle);
    drop(engine);
    drop(client);
    let report = sched.report();
    sim::uninstall();

    if !report.unknown_registrations.is_empty() {
        violations.push(format!(
            "unexpected sim participants: {:?}",
            report.unknown_registrations
        ));
    }

    // Replay-determinism pin: recover a fresh database from the command
    // log and require bit-identical table state and a complete, dense
    // ticket set — the serializability witness surviving a crash.
    if shutdown_ok && cfg.durability.is_on() {
        let fresh = build_db(cfg.workload);
        match OrthrusEngine::try_recover(Arc::clone(&fresh), ocfg) {
            Ok((recovered, replay)) => {
                drop(recovered);
                let mut replayed = replay.tickets.clone();
                replayed.sort_unstable();
                // With checkpoints, recovery replays only the suffix
                // past the newest image: a duplicate-free subset of the
                // accepted tickets (the image covers the rest, which
                // the digest comparison below still pins). Without
                // checkpoints the whole dense set must replay.
                let conserved = if cfg.checkpoint_bytes.is_some() {
                    replayed.len() as u64 <= accepted
                        && replayed.windows(2).all(|w| w[0] < w[1])
                        && replayed.last().is_none_or(|&t| t < accepted)
                } else {
                    replayed == expected_tickets
                };
                if !conserved {
                    violations.push(format!(
                        "replay ticket set: {} records for {accepted} accepted",
                        replayed.len()
                    ));
                }
                if digest(&fresh, cfg.workload) != state_digest {
                    violations.push("replayed state diverged from live state".to_string());
                }
            }
            Err(e) => violations.push(format!("recovery failed: {e}")),
        }
    }

    SimOutcome {
        steps: report.steps,
        trace_hash: report.trace_hash,
        perturbations: report.perturbations,
        state_digest,
        committed,
        runs,
        inflight_max,
        violations,
        report,
        thread_names,
    }
}

/// Workload-semantic invariants over the final table state.
fn check_semantics(
    db: &Database,
    workload: WorkloadKind,
    expected: &[u64],
    violations: &mut Vec<String>,
) {
    match workload {
        WorkloadKind::MicroHot | WorkloadKind::MicroUniform => {
            for (k, &want) in expected.iter().enumerate() {
                let got = unsafe { db.read_counter(k as u64) };
                if got != want {
                    violations.push(format!(
                        "serializability: key {k} counter {got}, submitted model says {want}"
                    ));
                    return; // one key is enough to flag the run
                }
            }
        }
        WorkloadKind::Tpcc => {
            let t = db.tpcc();
            let w_delta: u64 = (0..t.warehouses.len())
                .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
                .sum();
            let d_delta: u64 = (0..t.districts.len())
                .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
                .sum();
            if w_delta != d_delta {
                violations.push(format!(
                    "TPC-C money conservation: warehouse ytd delta {w_delta} \
                     != district ytd delta {d_delta}"
                ));
            }
            let hist: u64 = (0..t.districts.len())
                .map(|d| unsafe { t.districts.read_with(d, |r| r.history_ctr as u64) })
                .sum();
            let pay: u64 = (0..t.customers.len())
                .map(|c| unsafe { t.customers.read_with(c, |r| (r.payment_cnt - 1) as u64) })
                .sum();
            if hist != pay {
                violations.push(format!(
                    "TPC-C history/payment count: {hist} history rows vs {pay} payments"
                ));
            }
        }
    }
}
