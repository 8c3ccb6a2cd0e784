//! The ORTHRUS engine: queue fabric wiring and the run protocol.
//!
//! The fabric is a full mesh of SPSC rings, one per (producer, consumer)
//! pair (Section 3.1): every execution thread has a private ring into
//! every CC thread (acquires and releases), every CC thread has a private
//! ring into every other CC thread (forwards) and into every execution
//! thread (grants). Ring capacities are sized from the in-flight
//! *ceiling*, [`OrthrusConfig::max_inflight`], so the steady state never
//! blocks on a full ring at any depth an execution thread walks to below
//! it:
//!
//! - exec→cc: ≤ 1 acquire + 1 release per in-flight transaction
//!   (`2 × max_inflight + 4`);
//! - cc→cc: ≤ 1 in-flight forward per in-flight transaction system-wide
//!   (`n_exec × max_inflight + 4`);
//! - cc→exec: ≤ 1 outstanding grant per in-flight transaction
//!   (`max_inflight + 4`).
//!
//! Service mode's completion rings count the ceiling too (see
//! [`OrthrusEngine::start_with_bell`]).
//!
//! Messages move in **batches** ([`OrthrusConfig::flush_threshold`]):
//! both thread kinds stage outgoing messages per destination during one
//! scheduling quantum and publish each destination's batch with a single
//! slice push (one atomic store), and drain their inputs in per-lane
//! batches. Staged messages are a subset of the same in-flight bounds
//! above — batching moves queue occupancy out of the rings, never adds to
//! it — so the capacity sizing (and the deadlock-freedom argument that
//! rests on it) is unchanged from the per-message fabric, which remains
//! available as `flush_threshold = 1`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use orthrus_common::affinity::{pin_to_cpu, CpuSet};
use orthrus_common::runtime::{RunCtl, RunParams};
use orthrus_common::sim;
use orthrus_common::{Backoff, Doorbell, Phase, PhaseTimer, RunStats, ThreadStats};
use orthrus_durability::checkpoint::{run_checkpointer, write_initial_checkpoint};
use orthrus_durability::{run_sync_coordinator, CommandLog, ReplayReport};
use orthrus_spsc::{channel_labeled, Consumer, FanIn, Producer};
use orthrus_txn::Database;
use orthrus_workload::Spec;

use crate::cc::{CcState, OutMsg};
use crate::config::{Companion, OrthrusConfig};
use crate::msg::{CcRequest, ExecResponse};
use crate::session::{Session, SubmitShared};
use crate::source::{ClientSource, Completion, Submission, SyntheticSource, TxnSource};

/// A typed shutdown/recovery failure: the error paths the fault injector
/// can reach (fsync failure, a worker killed by an injected fault) report
/// here instead of panicking the client thread, so a harness can observe
/// graceful degradation.
#[derive(Debug)]
pub enum EngineError {
    /// A worker thread panicked; the payload is its panic message. The
    /// engine is stopped and every thread joined — nothing leaks — but
    /// run statistics are lost and the database may hold only a prefix
    /// of the accepted work.
    WorkerPanicked(String),
    /// The final command-log sync failed: the engine stopped cleanly but
    /// the OS-buffered log suffix may not be durable.
    LogSync(std::io::Error),
    /// Recovery could not read or repair the command log.
    Recovery(std::io::Error),
    /// A previous [`EngineHandle::try_shutdown`] already failed with the
    /// contained message; the handle is spent.
    Failed(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::WorkerPanicked(msg) => write!(f, "engine worker panicked: {msg}"),
            EngineError::LogSync(e) => write!(f, "command-log sync failed: {e}"),
            EngineError::Recovery(e) => write!(f, "command-log recovery failed: {e}"),
            EngineError::Failed(msg) => write!(f, "engine already shut down uncleanly: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::LogSync(e) | EngineError::Recovery(e) => Some(e),
            _ => None,
        }
    }
}

/// Render a `JoinHandle::join` panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One doorbell per engine thread, on that thread's inbox (a CC
/// thread's request fan-in; an execution thread's grant fan-in and
/// ingest ring). Whoever publishes into an inbox rings its bell after
/// the publish; the owner parks on it once it has been idle for a while
/// (see [`Backoff::snooze_on`]). While nobody is parked a ring is one
/// fence and one load.
#[derive(Clone)]
pub(crate) struct Bells {
    pub(crate) cc: Arc<[Doorbell]>,
    pub(crate) exec: Arc<[Doorbell]>,
}

impl Bells {
    fn new(n_cc: usize, n_exec: usize) -> Self {
        Bells {
            cc: (0..n_cc).map(|_| Doorbell::new()).collect(),
            exec: (0..n_exec).map(|_| Doorbell::new()).collect(),
        }
    }

    /// Wake every engine thread: something all of their wait predicates
    /// read just changed (a [`RunCtl`] flag, `active_execs`).
    pub(crate) fn ring_all(&self) {
        self.cc
            .iter()
            .chain(self.exec.iter())
            .for_each(Doorbell::ring);
    }
}

/// Publish all of `buf` into `ring`, ringing the consumer's `bell` after
/// every partial publish: a consumer that parked on an empty ring must
/// hear about the messages that then fill it, or the producer waits for
/// room forever. Once `dead()` holds the consumer is never going to
/// drain again and the remainder is discarded.
pub(crate) fn publish<T>(
    ring: &mut Producer<T>,
    buf: &mut Vec<T>,
    bell: &Doorbell,
    dead: impl Fn() -> bool,
) {
    let mut backoff = Backoff::new();
    while !buf.is_empty() {
        if ring.try_push_slice(buf) > 0 {
            bell.ring();
        } else if dead() {
            buf.clear();
        } else {
            backoff.snooze();
        }
    }
}

/// Endpoints handed to one CC thread at startup.
struct CcEndpoints {
    /// This thread's index into `bells.cc`.
    id: usize,
    fanin: FanIn<CcRequest>,
    to_cc: Vec<Producer<CcRequest>>,
    to_exec: Vec<Producer<ExecResponse>>,
    bells: Bells,
}

/// Endpoints handed to one execution thread at startup.
pub(crate) struct ExecEndpoints {
    pub(crate) fanin: FanIn<ExecResponse>,
    pub(crate) to_cc: Vec<Producer<CcRequest>>,
}

/// The assembled engine.
pub struct OrthrusEngine {
    db: Arc<Database>,
    /// The closed-loop workload ([`Self::run`]); `None` for engines built
    /// with [`Self::service`], which are driven by client sessions
    /// instead.
    spec: Option<Spec>,
    cfg: OrthrusConfig,
    /// The command log ([`OrthrusConfig::durability`]): opened once at
    /// construction, shared by every execution thread, synced when a run
    /// or service shuts down. `None` when durability is off.
    log: Option<Arc<CommandLog>>,
}

impl OrthrusEngine {
    /// Build a closed-loop engine over `db` running `spec`
    /// (self-driving: each execution thread generates its own work).
    ///
    /// # Panics
    /// Rejects configurations [`OrthrusConfig::validate_for`] flags (zero
    /// thread counts, zero in-flight cap, a degenerate admission shape, a
    /// warehouse assignment over a database that is not TPC-C) — better
    /// a loud construction failure than an engine that silently hangs or
    /// starves at run time.
    pub fn new(db: Arc<Database>, spec: Spec, cfg: OrthrusConfig) -> Self {
        Self::build(db, Some(spec), cfg)
    }

    /// Build a service-mode engine over `db`: no synthetic workload —
    /// transactions arrive through client [`Session`]s after
    /// [`Self::start`]. Validation as in [`Self::new`].
    pub fn service(db: Arc<Database>, cfg: OrthrusConfig) -> Self {
        Self::build(db, None, cfg)
    }

    fn build(db: Arc<Database>, spec: Option<Spec>, cfg: OrthrusConfig) -> Self {
        if let Err(why) = cfg.validate_for(&db) {
            panic!("invalid OrthrusConfig: {why}");
        }
        let log = open_log(&cfg);
        ensure_initial_checkpoint(&cfg, &db, &log);
        OrthrusEngine { db, spec, cfg, log }
    }

    /// Crash recovery: replay the command log at [`OrthrusConfig::log_dir`]
    /// through the engine's own `execute_planned` path to rebuild `db`'s
    /// table state, cut the log where the replay stopped, and return a
    /// **service-mode** engine that continues appending where the
    /// replayed prefix ends — plus the replay's audit report.
    ///
    /// `db` must be the same logical snapshot the log started from (for
    /// this reproduction: a freshly loaded database with the original
    /// seed). When the directory holds a valid fuzzy checkpoint, `db` is
    /// overwritten from its image and only the log suffix past it
    /// replays. Replay is one serial pass in log order that holds one log
    /// segment in memory ([`orthrus_durability::recover`]).
    ///
    /// # Panics
    /// On an invalid configuration, a durability mode of `Off` (there is
    /// nothing to recover from), or an unreadable log — including one
    /// whose segment 0 is gone with no usable checkpoint to start from.
    /// Callers that need to survive an unreadable log use
    /// [`Self::try_recover`].
    pub fn recover(db: Arc<Database>, cfg: OrthrusConfig) -> (Self, ReplayReport) {
        Self::try_recover(db, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::recover`], reporting an unreadable or unrepairable log as
    /// a typed [`EngineError::Recovery`] instead of panicking. Config
    /// misuse (invalid shape, durability off) still panics — those are
    /// construction bugs, not runtime faults.
    pub fn try_recover(
        db: Arc<Database>,
        cfg: OrthrusConfig,
    ) -> Result<(Self, ReplayReport), EngineError> {
        if let Err(why) = cfg.validate_for(&db) {
            panic!("invalid OrthrusConfig: {why}");
        }
        assert!(
            cfg.durability.is_on(),
            "recover() needs durability on; with DurabilityMode::Off there is no log"
        );
        let dir = cfg.log_dir.as_deref().expect("validated: log_dir is set");
        let report = orthrus_durability::recover(&db, dir).map_err(EngineError::Recovery)?;
        Ok((Self::service(db, cfg), report))
    }

    /// The engine configuration.
    pub fn config(&self) -> &OrthrusConfig {
        &self.cfg
    }

    /// Run the closed-loop workload for a timed window: the same threads
    /// [`Self::start`] spawns, each execution thread admitting from its
    /// own [`SyntheticSource`], stopped after `warmup + measure`.
    ///
    /// # Panics
    /// - on an engine built with [`Self::service`] (no workload spec);
    /// - if `params.threads` is neither `0` ("derive from the engine")
    ///   nor exactly [`OrthrusConfig::total_threads`], or
    ///   `params.ollp_noise_pct` is neither `0` ("take the engine's") nor
    ///   exactly [`OrthrusConfig::ollp_noise_pct`] — the engine always
    ///   runs its own configuration, and a silently ignored mismatch
    ///   would let a harness mislabel what it measured;
    /// - if a worker died or the final log sync failed (the message is
    ///   the [`EngineError`]'s; every thread is joined first).
    pub fn run(&self, params: &RunParams) -> RunStats {
        let spec = self
            .spec
            .as_ref()
            .expect("closed-loop run() needs a workload spec; service engines use start()");
        assert!(
            params.threads == 0 || params.threads == self.cfg.total_threads(),
            "RunParams.threads = {} does not match the engine's {} CC + {} exec threads \
             (pass 0 to derive from the engine)",
            params.threads,
            self.cfg.n_cc,
            self.cfg.n_exec,
        );
        assert!(
            params.ollp_noise_pct == 0 || params.ollp_noise_pct == self.cfg.ollp_noise_pct,
            "RunParams.ollp_noise_pct = {} does not match the engine's \
             OrthrusConfig.ollp_noise_pct = {} (pass 0 to take the engine's)",
            params.ollp_noise_pct,
            self.cfg.ollp_noise_pct,
        );
        // The synthetic source wraps the seed's generator stream
        // unchanged, and always has backlog: nobody needs to ring an
        // execution thread for work.
        let mut workers = Workers::spawn(self, params.seed, |ex| {
            let source = SyntheticSource::new(spec.generator(params.seed, ex));
            (source, None)
        });
        std::thread::sleep(params.warmup);
        workers.begin_measuring();
        std::thread::sleep(params.measure);
        workers
            .stop(|| {})
            .unwrap_or_else(|e| panic!("closed-loop run failed: {e}"))
    }

    /// Start the engine in **service mode**: spawn its CC and execution
    /// threads as long-lived workers driven by client submissions, and
    /// return the [`EngineHandle`] that owns them. Execution thread `ex`
    /// admits from a bounded ingest ring
    /// ([`OrthrusConfig::ingest_capacity`]) fed by [`Session`]s — see
    /// [`crate::session`] for routing and backpressure — and reports
    /// every ticketed commit through a completion ring the handle
    /// drains.
    ///
    /// `seed` seeds the planning RNGs (the OLLP reconnaissance stream),
    /// exactly as a closed-loop run's `params.seed` would.
    ///
    /// Both admission policies operate unchanged over the client
    /// source; statistics accumulate until [`EngineHandle::shutdown`]
    /// (open a measurement window with
    /// [`EngineHandle::begin_measurement`]).
    pub fn start(&self, seed: u64) -> EngineHandle {
        self.start_with_bell(seed, Arc::new(Doorbell::new()))
    }

    /// [`Self::start`] with the caller's completion doorbell (see
    /// [`EngineHandle::wait_completions`]) in place of a fresh one, so
    /// that one thread can wait on several engines at once: the
    /// partition sequencer hands every member engine the same bell.
    pub fn start_with_bell(&self, seed: u64, completion_bell: Arc<Doorbell>) -> EngineHandle {
        let cfg = &self.cfg;
        // Fast-path sizing: everything accepted-but-uncompleted sits in
        // the ingest ring, the admission policy's run queues (up to one
        // refill window), or an in-flight slot; doubling covers a client
        // whose draining lags its submitting by a burst. A client that
        // lags further never wedges the engine — completions overflow to
        // an exec-local buffer and re-flush as the client drains (see
        // `ExecThread::completion_overflow`); the ring only bounds the
        // latch-free fast path.
        let completion_capacity =
            2 * (cfg.ingest_capacity + cfg.admission.max_queued_window() + cfg.max_inflight);
        let mut ingest: Vec<Producer<Submission>> = Vec::with_capacity(cfg.n_exec);
        let mut completions: Vec<Consumer<Completion>> = Vec::with_capacity(cfg.n_exec);
        let workers = Workers::spawn(self, seed, |_| {
            let (submit_tx, submit_rx) =
                channel_labeled::<Submission>(cfg.ingest_capacity, "ingest");
            let (done_tx, done_rx) =
                channel_labeled::<Completion>(completion_capacity, "completion");
            ingest.push(submit_tx);
            completions.push(done_rx);
            let source = ClientSource::new(submit_rx, cfg.flush_threshold);
            (source, Some((done_tx, Arc::clone(&completion_bell))))
        });
        EngineHandle {
            submit: Arc::new(SubmitShared::new(
                ingest,
                Arc::clone(&workers.bells.exec),
                Arc::clone(&workers.ctl),
            )),
            workers,
            completions,
            completion_bell,
            stash: Vec::new(),
            stats: None,
            fail: None,
        }
    }
}

/// Spawn one engine thread under `name`: its OS thread name and, under a
/// sim scheduler, its enrollment — which blocks until every participant
/// has enrolled, and whose guard retires the thread on drop, panics
/// included. A no-op enrollment otherwise. The partition sequencer is
/// spawned through here too.
pub fn spawn_named<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || {
            let _sim = sim::enroll(&name);
            body()
        })
        .unwrap_or_else(|e| panic!("cannot spawn an engine thread: {e}"))
}

/// An engine thread and the name it was spawned under.
type NamedThread = (String, JoinHandle<ThreadStats>);

/// Wait until every thread has finished, calling `idle()` between
/// liveness checks, then join them all — one dead thread must not leak
/// the rest. Returns each thread's statistics (zeroes for a dead one)
/// and the first panic message: the root cause.
///
/// Under a sim scheduler the caller holds the token, and a bare join
/// would block while the threads sit parked waiting for it; `idle()`
/// must therefore reach a park point, and the exit condition is
/// *virtual*-time liveness — gating on `is_finished` would record however
/// many steps the threads' real OS unwind takes, which varies run to run.
fn join_all(
    threads: &mut Vec<NamedThread>,
    mut idle: impl FnMut(),
) -> (Vec<ThreadStats>, Option<String>) {
    while (threads.iter()).any(|(name, t)| sim::thread_running(t, name)) {
        idle();
    }
    let mut panic_msg: Option<String> = None;
    let stats = (threads.drain(..))
        .map(|(_, t)| {
            t.join().unwrap_or_else(|payload| {
                panic_msg.get_or_insert_with(|| panic_message(payload));
                ThreadStats::default()
            })
        })
        .collect();
    (stats, panic_msg)
}

/// Where an execution thread reports ticketed commits (service mode):
/// its completion ring and the drainer's doorbell.
type CompletionPath = (Producer<Completion>, Arc<Doorbell>);

/// The one owner of an engine's threads: the CC and execution workers
/// over one fabric, their run-control flags and inbox bells, and the
/// durability companions. Service mode ([`EngineHandle`]) and the closed
/// loop ([`OrthrusEngine::run`]) are both clients of it; they differ in
/// the [`TxnSource`] each execution thread admits from and in what they
/// do between [`Self::spawn`] and [`Self::stop`].
struct Workers {
    ctl: Arc<RunCtl>,
    /// The workers' inbox doorbells: a [`RunCtl`] flag flipped from here
    /// is followed by [`Bells::ring_all`], since a parked worker polls
    /// nothing.
    bells: Bells,
    /// CC workers first, then execution workers (join order matters only
    /// for the stats split).
    threads: Vec<NamedThread>,
    n_cc: usize,
    measure_from: Instant,
    /// The engine's command log, synced once every worker has joined so a
    /// clean stop is fully replayable even in fsync-free `log` mode.
    log: Option<Arc<CommandLog>>,
    /// The group-fsync coordinator and checkpointer (see
    /// [`spawn_companions`]) and the flag that stops them.
    companions: Vec<NamedThread>,
    companions_stop: Arc<AtomicBool>,
}

impl Workers {
    /// Build the fabric and spawn every thread of `engine`. `wire(ex)`
    /// runs on the calling thread, once per execution thread in index
    /// order, and returns what that thread admits from and where it
    /// reports ticketed commits (nowhere, for a synthetic source).
    /// `seed` seeds the planning RNGs.
    fn spawn<S: TxnSource + Send + 'static>(
        engine: &OrthrusEngine,
        seed: u64,
        mut wire: impl FnMut(usize) -> (S, Option<CompletionPath>),
    ) -> Workers {
        let cfg = Arc::new(engine.cfg.clone());
        let fabric = build_fabric(&cfg);
        let ctl = Arc::new(RunCtl::new());
        let active_execs = Arc::new(AtomicUsize::new(cfg.n_exec));
        let companions_stop = Arc::new(AtomicBool::new(false));
        let (names, companion_names) = cfg.thread_names();
        let companions = spawn_companions(&cfg, &engine.log, &companions_stop, companion_names);
        let mut threads = Vec::with_capacity(cfg.total_threads());
        let mut names = names.into_iter();
        // The spawning thread's CPU set, read once: every worker pins to
        // the CPU its place in the deployment names within it.
        let cpus = CpuSet::of_this_thread();
        let place = cfg.placement;

        for ((cc, ep), name) in fabric.cc.into_iter().enumerate().zip(names.by_ref()) {
            let ctl = Arc::clone(&ctl);
            let active = Arc::clone(&active_execs);
            let flush = cfg.flush_threshold;
            let capacity = cc_table_capacity(&cfg);
            let cpu = cpus.cpu(place.cc_core(cfg.n_cc, cc, cpus.len()));
            let thread = spawn_named(name.clone(), move || {
                if let Some(cpu) = cpu {
                    pin_to_cpu(cpu);
                }
                run_cc(CcState::new(cc as u32, capacity), flush, ep, &ctl, &active)
            });
            threads.push((name, thread));
        }

        for ((ex, ep), name) in fabric.exec.into_iter().enumerate().zip(names) {
            let (source, completions) = wire(ex);
            let db = Arc::clone(&engine.db);
            let cfg = Arc::clone(&cfg);
            let ctl = Arc::clone(&ctl);
            let active = Arc::clone(&active_execs);
            let log = engine.log.clone();
            let bells = fabric.bells.clone();
            let cpu = cpus.cpu(place.exec_core(cfg.n_cc, cfg.n_exec, ex, cpus.len()));
            let thread = spawn_named(name.clone(), move || {
                if let Some(cpu) = cpu {
                    pin_to_cpu(cpu);
                }
                // Admission is thread-local: each execution thread owns
                // its policy state (source, planning RNG, any
                // conflict-class run queues).
                let admit = crate::admit::Admitter::new(
                    &cfg.admission,
                    source,
                    seed,
                    ex as u16,
                    cfg.ollp_noise_pct,
                );
                crate::exec::ExecThread::new(ex as u16, &db, &cfg, &ctl, ep, bells, admit)
                    .with_completions(completions)
                    .with_log(log)
                    .run(&active)
            });
            threads.push((name, thread));
        }

        Workers {
            ctl,
            bells: fabric.bells,
            threads,
            n_cc: engine.cfg.n_cc,
            measure_from: Instant::now(),
            log: engine.log.clone(),
            companions,
            companions_stop,
        }
    }

    /// Open the measurement window: per-thread window counters reset and
    /// throughput/latency accounting runs from here to [`Self::stop`].
    /// Single-shot: workers latch the transition once, so repeated calls
    /// are ignored (re-arming only `elapsed` would silently inflate
    /// reported throughput).
    fn begin_measuring(&mut self) {
        if self.ctl.is_measuring() {
            return;
        }
        self.ctl.begin_measuring();
        self.bells.ring_all();
        self.measure_from = Instant::now();
    }

    /// Close the window, stop and join every worker and then the
    /// companions — all of them on every path, error or not — sync the
    /// log, and merge the statistics. `while_waiting` runs while the
    /// workers wind down: a service-mode owner drains completion rings
    /// there, since an execution thread with undelivered completions
    /// does not exit.
    fn stop(&mut self, mut while_waiting: impl FnMut()) -> Result<RunStats, EngineError> {
        let elapsed = self.measure_from.elapsed();
        self.ctl.request_stop();
        self.bells.ring_all();
        let (mut cc_stats, worker_panic) = join_all(&mut self.threads, || {
            while_waiting();
            std::thread::yield_now();
        });
        // Every worker is joined, so every append's watermark is
        // published: the coordinator's exit condition (stopped ∧ fully
        // synced) now covers the whole log. A companion's panic (fsync
        // failure) is itself a worker panic.
        self.companions_stop.store(true, Ordering::Release);
        let (companion_stats, companion_panic) = join_all(&mut self.companions, || {
            if !sim::on_park() {
                std::thread::yield_now();
            }
        });
        if let Some(msg) = worker_panic.or(companion_panic) {
            return Err(EngineError::WorkerPanicked(msg));
        }
        if let Some(log) = &self.log {
            // Every accepted ticket's record is appended. Push the
            // OS-buffered suffix to stable storage.
            log.sync().map_err(EngineError::LogSync)?;
        }
        let exec_stats = cc_stats.split_off(self.n_cc);
        // CC threads and the coordinator (group fsyncs, coalesced
        // appends) add their counters to the totals without inflating
        // the thread count.
        let mut stats = RunStats::collect(&exec_stats, elapsed).with_cc_threads(&cc_stats);
        for companion in &companion_stats {
            stats.totals.merge(companion);
        }
        Ok(stats)
    }
}

/// Open the configured command log (validated: a non-`Off` mode has a
/// `log_dir`). I/O failure is a loud construction failure, like an
/// invalid config — an engine that silently dropped its durability
/// contract would be worse than one that refuses to start.
fn open_log(cfg: &OrthrusConfig) -> Option<Arc<CommandLog>> {
    if !cfg.durability.is_on() {
        return None;
    }
    let dir = cfg.log_dir.as_deref().expect("validated: log_dir is set");
    let log = CommandLog::open(dir, cfg.durability)
        .unwrap_or_else(|e| panic!("cannot open command log at {}: {e}", dir.display()));
    // Group sync ([`OrthrusConfig::sync_interval`]): appends publish a
    // watermark instead of fsyncing inline; the coordinator thread
    // spawned alongside the workers issues the coalesced fsyncs. The
    // flag is inert outside `log+fsync` mode.
    Some(Arc::new(log.with_group_sync(cfg.sync_interval.is_group())))
}

/// Write checkpoint #0 (the base image every shadow replay grows from)
/// when checkpointing is enabled and the log directory has no valid
/// checkpoint yet. Called at construction, before any worker exists, so
/// the database is quiescent; `db` must correspond to the log's current
/// end position — a pristine database with a fresh log, or a recovered
/// one whose replay consumed the whole valid prefix.
fn ensure_initial_checkpoint(cfg: &OrthrusConfig, db: &Database, log: &Option<Arc<CommandLog>>) {
    let Some(log) = log else { return };
    if cfg.checkpoint_bytes.is_none() {
        return;
    }
    let dir = cfg.log_dir.as_deref().expect("validated: log_dir is set");
    let have = orthrus_storage::checkpoint::load_newest_checkpoint(dir)
        .unwrap_or_else(|e| panic!("cannot scan checkpoints in {}: {e}", dir.display()))
        .is_some();
    if !have {
        // SAFETY: construction time — no engine thread exists yet.
        log.position()
            .and_then(|pos| unsafe { write_initial_checkpoint(dir, db, pos) })
            .unwrap_or_else(|e| panic!("cannot write initial checkpoint: {e}"));
    }
}

/// Spawn the durability rung-2 companion threads the configuration asks
/// for — the group-fsync coordinator (`sync`) and the fuzzy checkpointer
/// (`ckpt`) — under `names`, each running until `stop` is raised.
/// [`Workers::stop`] raises it only **after** every exec worker has
/// joined: the coordinator must keep flushing while they drain their
/// pending-durable queues, and then drains every outstanding append
/// before it exits.
fn spawn_companions(
    cfg: &OrthrusConfig,
    log: &Option<Arc<CommandLog>>,
    stop: &Arc<AtomicBool>,
    names: Vec<String>,
) -> Vec<NamedThread> {
    let Some(log) = log else { return Vec::new() };
    let spawn = |(companion, name): (Companion, String)| {
        let (log, stop) = (Arc::clone(log), Arc::clone(stop));
        let thread = match companion {
            Companion::Sync => spawn_named(name.clone(), move || run_sync_coordinator(&log, &stop)),
            Companion::Checkpointer { every } => {
                let dir = cfg.log_dir.clone().expect("validated: log_dir is set");
                spawn_named(name.clone(), move || {
                    // Real I/O failures panic inside `run_checkpointer`;
                    // an `Err` is an *injected* failpoint — a scripted
                    // crash the recovery suite owns. The live engine just
                    // stops checkpointing (recovery falls back to the
                    // previous checkpoint plus a longer suffix).
                    let _ = run_checkpointer(&log, &dir, &stop, every);
                    ThreadStats::default()
                })
            }
        };
        (name, thread)
    };
    cfg.companions().zip(names).map(spawn).collect()
}

/// Pre-size each CC's table for the locks an execution thread's in-flight
/// ceiling of sixteen-key transactions holds at once: 1 024 keys at the
/// default ceiling, never fewer than 256 nor more than 65 536. It grows
/// if more are held; an entry leaves with its last holder, so the table
/// never outgrows what is in flight.
fn cc_table_capacity(cfg: &OrthrusConfig) -> usize {
    (16 * cfg.max_inflight).clamp(256, 1 << 16)
}

/// The wired message mesh, ready to hand to workers.
struct Fabric {
    cc: Vec<CcEndpoints>,
    exec: Vec<ExecEndpoints>,
    bells: Bells,
}

/// Build the full SPSC mesh for `cfg`'s thread shape (see the module
/// docs for the capacity bounds), for [`Workers::spawn`] to hand out.
// Indexed loops keep the (producer, consumer) ring-matrix wiring
// visibly symmetric; iterator forms obscure which side is which.
#[allow(clippy::needless_range_loop)]
fn build_fabric(cfg: &OrthrusConfig) -> Fabric {
    let c = cfg.n_cc;
    let e = cfg.n_exec;
    let inflight = cfg.max_inflight;
    let exec_cc_cap = cfg.exec_queue_capacity.unwrap_or(2 * inflight + 4);
    let cc_cc_cap = e * inflight + 4;
    let cc_exec_cap = inflight + 4;

    // Build the mesh. Consumer lane order inside each fan-in does not
    // matter (round-robin polling), only completeness does.
    let mut cc_in: Vec<Vec<Consumer<CcRequest>>> = (0..c).map(|_| Vec::new()).collect();
    let mut exec_in: Vec<Vec<Consumer<ExecResponse>>> = (0..e).map(|_| Vec::new()).collect();
    let mut exec_to_cc: Vec<Vec<Producer<CcRequest>>> = (0..e).map(|_| Vec::new()).collect();
    let mut cc_to_cc: Vec<Vec<Producer<CcRequest>>> = (0..c).map(|_| Vec::new()).collect();
    let mut cc_to_exec: Vec<Vec<Producer<ExecResponse>>> = (0..c).map(|_| Vec::new()).collect();

    for ex in 0..e {
        for cc in 0..c {
            let (p, co) = channel_labeled(exec_cc_cap, "exec_cc");
            exec_to_cc[ex].push(p);
            cc_in[cc].push(co);
        }
    }
    for src in 0..c {
        for dst in 0..c {
            let (p, co) = channel_labeled(cc_cc_cap, "cc_cc");
            cc_to_cc[src].push(p);
            cc_in[dst].push(co);
        }
    }
    for cc in 0..c {
        for ex in 0..e {
            let (p, co) = channel_labeled(cc_exec_cap, "cc_exec");
            cc_to_exec[cc].push(p);
            exec_in[ex].push(co);
        }
    }

    let bells = Bells::new(c, e);
    Fabric {
        cc: cc_in
            .into_iter()
            .zip(cc_to_cc)
            .zip(cc_to_exec)
            .enumerate()
            .map(|(id, ((lanes, to_cc), to_exec))| CcEndpoints {
                id,
                fanin: FanIn::new(lanes),
                to_cc,
                to_exec,
                bells: bells.clone(),
            })
            .collect(),
        exec: exec_in
            .into_iter()
            .zip(exec_to_cc)
            .map(|(lanes, to_cc)| ExecEndpoints {
                fanin: FanIn::new(lanes),
                to_cc,
            })
            .collect(),
        bells,
    }
}

/// A running service-mode engine: the engine's threads plus the
/// submission fabric and the completion rings.
///
/// Lifecycle: [`OrthrusEngine::start`] → [`Self::session`] /
/// [`Self::begin_measurement`] / [`Self::drain_completions`] →
/// [`Self::shutdown`]. Dropping a handle without calling `shutdown`
/// shuts the engine down (discarding the stats), so a panicking client
/// cannot leak spinning engine threads.
pub struct EngineHandle {
    workers: Workers,
    submit: Arc<SubmitShared>,
    completions: Vec<Consumer<Completion>>,
    /// Rung by execution threads after publishing completions; see
    /// [`Self::wait_completions`].
    completion_bell: Arc<Doorbell>,
    /// Completions drained internally (e.g. while unblocking workers
    /// during shutdown) but not yet handed to the client.
    stash: Vec<Completion>,
    stats: Option<RunStats>,
    /// Why a previous [`Self::try_shutdown`] failed, if it did (the
    /// workers are joined either way; the handle is spent).
    fail: Option<String>,
}

impl EngineHandle {
    /// A client handle for submitting transactions. Cheap; clone it or
    /// call this again for every client thread.
    pub fn session(&self) -> Session {
        Session::new(Arc::clone(&self.submit))
    }

    /// Submissions accepted engine-wide so far — the conservation ledger:
    /// exactly this many completions will have been delivered once the
    /// engine is shut down and drained.
    pub fn accepted(&self) -> u64 {
        self.submit.accepted()
    }

    /// Open the measurement window: per-thread window counters reset and
    /// throughput/latency accounting runs from here to [`Self::shutdown`].
    /// Without this call, statistics cover the engine's whole lifetime.
    /// Single-shot: repeated calls are ignored.
    pub fn begin_measurement(&mut self) {
        self.workers.begin_measuring();
    }

    /// Move every available completion into `out`; returns how many.
    /// Clients should call this regularly — completion rings are bounded
    /// and apply backpressure to the engine when full.
    pub fn drain_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut n = self.stash.len();
        out.append(&mut self.stash);
        for ring in &mut self.completions {
            n += ring.pop_batch(out);
        }
        n
    }

    /// Park until a completion is ready to drain, `or()` holds, or
    /// `timeout` passes — the event wait for a drainer with nothing else
    /// to do (a pump thread), in place of sleep-polling
    /// [`Self::drain_completions`]. Returns whether either condition
    /// held. Execution threads ring for completions; whoever makes
    /// `or()` true must `unpark` the waiting thread itself. One thread
    /// waits at a time. Under the sim scheduler an enrolled caller never
    /// blocks: the wait is one park step (see [`Doorbell::wait`]).
    pub fn wait_completions(
        &self,
        timeout: std::time::Duration,
        mut or: impl FnMut() -> bool,
    ) -> bool {
        self.completion_bell.wait_until(
            || self.has_completions() || or(),
            Some(Instant::now() + timeout),
        )
    }

    /// Whether [`Self::drain_completions`] would return anything.
    pub fn has_completions(&self) -> bool {
        !self.stash.is_empty() || self.completions.iter().any(|r| !r.is_empty())
    }

    /// Shut down: fence out new submissions, drain every accepted ticket
    /// (in-flight *and* still queued in ingest rings — conservation),
    /// stop and join the workers, and return the run's statistics. The
    /// measured window runs from [`Self::begin_measurement`] (or
    /// [`OrthrusEngine::start`] if it was never called) to this call;
    /// commits landing during the shutdown drain complete their tickets
    /// but fall outside the window. Idempotent; drained completions
    /// remain collectable via [`Self::drain_completions`] afterwards.
    pub fn shutdown(&mut self) -> RunStats {
        self.try_shutdown()
            .unwrap_or_else(|e| panic!("engine shutdown failed: {e}"))
    }

    /// [`Self::shutdown`], reporting worker panics and final-sync I/O
    /// failures as typed [`EngineError`]s instead of panicking, so a
    /// client can degrade gracefully when a fault injector (or real
    /// hardware) kills part of the engine. Every worker is joined before
    /// this returns, error or not — nothing leaks.
    pub fn try_shutdown(&mut self) -> Result<RunStats, EngineError> {
        if let Some(stats) = &self.stats {
            return Ok(stats.clone());
        }
        if let Some(msg) = &self.fail {
            return Err(EngineError::Failed(msg.clone()));
        }
        // Fence first: after close() no new ticket can land in any ingest
        // ring, so the execution threads' stop-drain sees a closed set.
        self.submit.close();
        // Workers may be blocked publishing completions; keep draining
        // while they wind down.
        let (completions, stash) = (&mut self.completions, &mut self.stash);
        let result = self.workers.stop(|| {
            for ring in completions.iter_mut() {
                ring.pop_batch(stash);
            }
        });
        match &result {
            Ok(stats) => self.stats = Some(stats.clone()),
            Err(e) => self.fail = Some(e.to_string()),
        }
        result
    }
}

impl Drop for EngineHandle {
    fn drop(&mut self) {
        if !self.workers.threads.is_empty() {
            // Swallow shutdown errors: a panic during drop would abort,
            // and the drop path has no caller to report to. Workers are
            // joined either way.
            let _ = self.try_shutdown();
        }
    }
}

/// Per-destination staging for a CC thread's outgoing messages. One drain
/// round's forwards and grants are coalesced per destination and flushed
/// as a single slice (one atomic publish) — a CC thread granting several
/// spans to the same execution thread in one round emits one batched
/// flush instead of one ring transaction per grant.
struct CcOutBufs {
    to_cc: Vec<Vec<CcRequest>>,
    to_exec: Vec<Vec<ExecResponse>>,
}

impl CcOutBufs {
    fn new(n_cc: usize, n_exec: usize, flush: usize) -> Self {
        CcOutBufs {
            to_cc: (0..n_cc).map(|_| Vec::with_capacity(flush)).collect(),
            to_exec: (0..n_exec).map(|_| Vec::with_capacity(flush)).collect(),
        }
    }

    /// Stage one routed message; returns immediately (no ring traffic).
    #[inline]
    fn stage(&mut self, msg: OutMsg, stats: &mut ThreadStats) {
        match msg {
            OutMsg::ToCc { cc, req } => self.to_cc[cc as usize].push(req),
            OutMsg::ToExec { exec, resp } => self.to_exec[exec as usize].push(resp),
        }
        stats.messages_sent += 1;
    }

    /// Publish every staged message, one slice per destination, and ring
    /// each destination's bell. A dead destination (its thread panicked;
    /// see [`RunCtl::is_failed`]) can never drain its ring again, so a
    /// plain blocking `push_slice` would wait forever once the ring
    /// fills — under the simulator's crash faults that wedged the whole
    /// shutdown. On failure the staged remainder is discarded instead:
    /// the engine is already committed to reporting `WorkerPanicked`,
    /// and completions lost with the dead thread are exactly what the
    /// recovery path replays.
    fn flush(&mut self, ep: &mut CcEndpoints, ctl: &RunCtl) {
        for (cc, buf) in self.to_cc.iter_mut().enumerate() {
            publish(&mut ep.to_cc[cc], buf, &ep.bells.cc[cc], || ctl.is_failed());
        }
        for (exec, buf) in self.to_exec.iter_mut().enumerate() {
            publish(&mut ep.to_exec[exec], buf, &ep.bells.exec[exec], || {
                ctl.is_failed()
            });
        }
    }
}

/// What a CC thread with nothing to drain waits for: requests, the exit
/// condition, or the measurement window opening.
fn cc_wake(
    fanin: &FanIn<CcRequest>,
    ctl: &RunCtl,
    active_execs: &AtomicUsize,
    in_window: bool,
) -> bool {
    !fanin.is_empty()
        || (ctl.is_stopped() && active_execs.load(Ordering::Acquire) == 0)
        || (!in_window && ctl.is_measuring())
}

/// Close a CC thread's accounting. Its timer ran `Locking` while it
/// handled requests and `Waiting` while it had none: that is the
/// thread's utilisation (Section 3.3), reported on its own — the
/// Figure-10 buckets these stats are merged into describe execution
/// threads only.
fn finish_cc(timer: PhaseTimer, mut stats: ThreadStats) -> ThreadStats {
    timer.finish(&mut stats);
    stats.cc_busy_ns = std::mem::take(&mut stats.locking_ns);
    stats.cc_idle_ns = std::mem::take(&mut stats.waiting_ns);
    stats
}

/// The CC thread loop: a tight, latch-free request pump (Section 3.1,
/// "concurrency control threads run a tight loop which sequentially
/// processes requests"), batched: each poll drains up to `flush_threshold`
/// requests from the fan-in in one sweep, and the round's outgoing
/// messages are coalesced per destination and flushed as slices. With
/// `flush_threshold == 1` this degenerates to the seed's
/// one-message-per-atomic-publish pump. The thread owns its partition
/// of the lock space outright: every release that can wake one of its
/// waiters arrives in its own inbox, so with nothing to drain it parks on
/// its doorbell.
fn run_cc(
    mut state: CcState,
    flush_threshold: usize,
    mut ep: CcEndpoints,
    ctl: &RunCtl,
    active_execs: &AtomicUsize,
) -> ThreadStats {
    // A dying CC thread grants and forwards nothing more, so an execution
    // thread waiting on it, or publishing into its full inbox, would wait
    // forever. Its unwind raises `RunCtl::mark_failed`, as an execution
    // thread's does, and rings every bell: a parked peer polls nothing.
    struct FailOnUnwind<'g>(&'g RunCtl, Bells);
    impl Drop for FailOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.mark_failed();
                self.1.ring_all();
            }
        }
    }
    let _unwind = FailOnUnwind(ctl, ep.bells.clone());
    let mut stats = ThreadStats::default();
    let mut out: Vec<OutMsg> = Vec::with_capacity(16);
    let drain_budget = flush_threshold;
    let mut in_buf: Vec<CcRequest> = Vec::with_capacity(drain_budget);
    let mut out_bufs = CcOutBufs::new(ep.to_cc.len(), ep.to_exec.len(), drain_budget);
    let mut backoff = Backoff::new();
    let mut timer = PhaseTimer::start(Phase::Locking);
    let mut in_window = false;
    loop {
        if !in_window && ctl.is_measuring() {
            stats.reset_window();
            timer = PhaseTimer::start(Phase::Locking);
            in_window = true;
        }
        if ep.fanin.drain_round(&mut in_buf, drain_budget) > 0 {
            timer.switch(&mut stats, Phase::Locking);
            for req in in_buf.drain(..) {
                state.handle(req, &mut out);
            }
            for msg in out.drain(..) {
                out_bufs.stage(msg, &mut stats);
            }
            out_bufs.flush(&mut ep, ctl);
            backoff.reset();
        } else if ctl.is_stopped() && active_execs.load(Ordering::Acquire) == 0 {
            // Every exec flushed its final sends before decrementing, and
            // forwards only exist while acquires are unresolved — one last
            // sweep and we are done.
            if ep.fanin.is_empty() {
                break;
            }
        } else {
            timer.switch(&mut stats, Phase::Waiting);
            backoff.snooze_on(&ep.bells.cc[ep.id], || {
                cc_wake(&ep.fanin, ctl, active_execs, in_window)
            });
        }
    }
    finish_cc(timer, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_common::runtime::RunParams;
    use orthrus_storage::tpcc::{TpccConfig, TpccDb};
    use orthrus_storage::{PartitionedTable, Table};
    use orthrus_workload::{MicroSpec, PartitionConstraint, TpccSpec};

    use crate::config::{CcAssignment, DEFAULT_FLUSH_THRESHOLD};

    fn quick() -> RunParams {
        RunParams::quick(0) // threads field unused by OrthrusEngine
    }

    #[test]
    fn single_cc_uniform_rmw_exact_counts() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(128, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(128, 4, false));
        let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0, "no progress");
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..128).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn multi_cc_contended_rmw_exact_counts() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        // 2 hot of 8, 4 ops total: heavy conflicts across 4 CC threads.
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let cfg = OrthrusConfig::with_threads(4, 4, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn read_only_workload_counts_nothing_but_commits() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, true));
        let cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, 0, "read-only must not write");
    }

    #[test]
    fn exact_partition_spans_drive_multiple_ccs() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(256, 64)));
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 8, false)
                .with_constraint(PartitionConstraint::Exact { count: 4, of: 4 }),
        );
        // One lock round per transaction: the paper's message economics.
        let mut cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::Fifo;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 8);
        // Message economics with forwarding: Ncc+1 acquire-path messages +
        // Ncc releases per txn = 2·Ncc + 1 = 9 per commit.
        let per_commit = stats.totals.messages_sent as f64 / stats.totals.committed as f64;
        assert!(
            (8.0..=10.5).contains(&per_commit),
            "messages/commit {per_commit:.2}, expected ≈9"
        );
    }

    #[test]
    fn forwarding_saves_messages() {
        let _serial = crate::test_serial();
        let mk = |forwarding: bool| {
            let db = Arc::new(Database::Flat(Table::new(256, 64)));
            let spec = Spec::Micro(
                MicroSpec::uniform(256, 8, false)
                    .with_constraint(PartitionConstraint::Exact { count: 4, of: 4 }),
            );
            let mut cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
            cfg.admission = crate::admit::AdmissionPolicy::Fifo;
            cfg.forwarding = forwarding;
            let engine = OrthrusEngine::new(db, spec, cfg);
            let stats = engine.run(&quick());
            stats.totals.messages_sent as f64 / stats.totals.committed.max(1) as f64
        };
        let with = mk(true); // Ncc+1 + Ncc releases ≈ 9
        let without = mk(false); // 2·Ncc + Ncc releases ≈ 12
        assert!(
            without > with + 1.5,
            "forwarding must cut messages: with={with:.2} without={without:.2}"
        );
    }

    #[test]
    fn split_orthrus_runs_on_partitioned_database() {
        let _serial = crate::test_serial();
        // SPLIT ORTHRUS (Section 4.3): index partitions aligned with CC
        // partitions (both key % 4).
        let db = Arc::new(Database::Partitioned(PartitionedTable::new(256, 64, 4)));
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 4, false)
                .with_constraint(PartitionConstraint::Exact { count: 2, of: 4 }),
        );
        let cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn tpcc_money_conservation_under_orthrus() {
        let _serial = crate::test_serial();
        let cfg_t = TpccConfig::tiny(4);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 21)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg_t));
        let cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::Warehouse);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
        let hist_cnt: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.history_ctr as u64) })
            .sum();
        let pay_cnt: u64 = (0..t.customers.len())
            .map(|c| unsafe { t.customers.read_with(c, |r| (r.payment_cnt - 1) as u64) })
            .sum();
        assert_eq!(hist_cnt, pay_cnt);
    }

    #[test]
    fn tpcc_with_ollp_noise_recovers() {
        let _serial = crate::test_serial();
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 33)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg_t));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        // Conservation must survive the abort/retry churn.
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
    }

    #[test]
    fn flush_threshold_one_reproduces_seed_semantics() {
        let _serial = crate::test_serial();
        // flush_threshold = 1: every send publishes immediately, exactly
        // the pre-batching fabric. The serializability witness and the
        // per-commit message economics must both hold unchanged.
        let db = Arc::new(Database::Flat(Table::new(256, 64)));
        let spec = Spec::Micro(
            MicroSpec::uniform(256, 8, false)
                .with_constraint(PartitionConstraint::Exact { count: 4, of: 4 }),
        );
        let mut cfg = OrthrusConfig::with_threads(4, 2, CcAssignment::KeyModulo);
        cfg.flush_threshold = 1;
        cfg.admission = crate::admit::AdmissionPolicy::Fifo;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..256).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 8);
        let per_commit = stats.totals.messages_sent as f64 / stats.totals.committed as f64;
        assert!(
            (8.0..=10.5).contains(&per_commit),
            "messages/commit {per_commit:.2}, expected ≈9"
        );
    }

    #[test]
    fn deep_batching_keeps_exact_counts() {
        let _serial = crate::test_serial();
        // A flush threshold far above the in-flight cap: flushes happen
        // only at quantum boundaries. Exactness must be unaffected.
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(4, 4, CcAssignment::KeyModulo);
        cfg.flush_threshold = 64;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn deep_batching_with_tiny_rings_still_completes() {
        let _serial = crate::test_serial();
        // Batches larger than the ring: push_slice must publish partial
        // prefixes under backpressure without losing order or messages.
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        cfg.flush_threshold = 32;
        cfg.exec_queue_capacity = Some(2);
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn conflict_batch_admission_keeps_exact_counts() {
        let _serial = crate::test_serial();
        // Heavy skew on a tiny hot set: conflict-class batching reorders
        // admission, but serializability (exact counter sums) must hold.
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 4, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        };
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0, "batched admission stalled");
        assert_eq!(stats.totals.aborts(), 0);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, stats.totals.committed_all * 4);
    }

    #[test]
    fn adaptive_admission_keeps_exact_counts_on_both_fabrics() {
        let _serial = crate::test_serial();
        // A hot workload at the default ceiling, so the in-flight cap
        // walks its admission depth between floor and ceiling on the lock
        // waits its grants report. Under both policies, serializability
        // (exact counter sums — every admitted transaction commits exactly
        // once) must hold on the batched fabric and on the seed's
        // per-message fabric alike, and the waits the cap reads must show.
        for flush_threshold in [DEFAULT_FLUSH_THRESHOLD, 1] {
            for policy in every_policy() {
                let db = Arc::new(Database::Flat(Table::new(64, 64)));
                let spec = Spec::Micro(MicroSpec::hot_cold(64, 4, 2, 4, false));
                let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
                assert!(cfg.max_inflight > crate::admit::DEFAULT_CLASS_BATCH);
                cfg.flush_threshold = flush_threshold;
                cfg.admission = policy.clone();
                let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
                let stats = engine.run(&quick());
                assert!(
                    stats.totals.committed > 0,
                    "flush {flush_threshold}, {policy}: admission stalled"
                );
                assert_eq!(stats.totals.aborts(), 0);
                let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
                assert_eq!(
                    total,
                    stats.totals.committed_all * 4,
                    "flush {flush_threshold}, {policy}: counter sums diverged"
                );
                assert!(
                    stats.totals.lock_waits > 0,
                    "flush {flush_threshold}, {policy}: hot workload must report deferrals"
                );
            }
        }
    }

    #[test]
    fn conflict_batch_admission_runs_tpcc_with_ollp() {
        let _serial = crate::test_serial();
        // The plan produced at admission must survive the OLLP abort/retry
        // path: conservation holds across re-planned retries.
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 11)));
        let spec = Spec::Tpcc(TpccSpec::paper_mix(cfg_t));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.admission = crate::admit::AdmissionPolicy::conflict_batch();
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg);
        let stats = engine.run(&quick());
        assert!(stats.totals.committed > 0);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
    }

    #[test]
    #[should_panic(expected = "invalid OrthrusConfig")]
    fn engine_rejects_zero_inflight_cap() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.max_inflight = 0;
        let _ = OrthrusEngine::new(db, spec, cfg);
    }

    /// A slot is a `u16`: a deeper ceiling is refused at construction,
    /// by name, instead of killing `exec0` at its first admission.
    #[test]
    #[should_panic(expected = "max_inflight must be ≤ 65536")]
    fn service_rejects_an_inflight_ceiling_beyond_the_slot_index() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.max_inflight = 70_000;
        let _ = OrthrusEngine::service(db, cfg);
    }

    /// The deepest ceiling a `u16` indexes has every one of its slots.
    #[test]
    fn service_commits_at_the_deepest_inflight_ceiling() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.max_inflight = 1 << 16;
        let mut handle = OrthrusEngine::service(db, cfg).start(7);
        let session = handle.session();
        let mut gen = Spec::Micro(MicroSpec::uniform(64, 2, false)).generator(7, 0);
        for _ in 0..200 {
            session
                .submit(gen.next_program())
                .expect("engine is accepting");
        }
        let stats = handle.shutdown();
        assert_eq!(stats.totals.committed_all, 200);
    }

    /// The depth follows contention: where grants almost never wait
    /// (uniform over a wide table) it climbs to the ceiling; where nearly
    /// every grant waits (transfers among ten accounts) it stays at the
    /// floor of sixteen.
    #[test]
    fn inflight_depth_climbs_where_nobody_waits_and_holds_where_grants_queue() {
        let _serial = crate::test_serial();
        let run = |n_records: u64, spec: MicroSpec| {
            let db = Arc::new(Database::Flat(Table::new(n_records as usize, 16)));
            let mut cfg = OrthrusConfig::with_threads(2, 1, CcAssignment::KeyModulo);
            assert_eq!(cfg.max_inflight, 64, "the default ceiling");
            // One grant per transaction: the windows the rule walks by.
            cfg.admission = crate::admit::AdmissionPolicy::Fifo;
            OrthrusEngine::new(db, Spec::Micro(spec), cfg).run(&quick())
        };
        let uniform = run(200_000, MicroSpec::uniform(200_000, 10, false));
        assert_eq!(
            uniform.max_inflight_cap(),
            64,
            "mean {:.1}",
            uniform.mean_inflight_cap()
        );
        assert!(uniform.mean_inflight_cap() > 16.0);
        let transfers = run(10, MicroSpec::uniform(10, 2, false).with_transfers(100));
        assert!(transfers.totals.lock_waits > 0);
        assert_eq!(transfers.max_inflight_cap(), 16);
        assert_eq!(transfers.mean_inflight_cap(), 16.0);
    }

    /// A quantum's releases leave before admission: transfers among ten
    /// accounts queue on every hot lock, and releases are staged while
    /// admission still has work.
    #[test]
    fn contended_releases_leave_before_admission() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(10, 16)));
        let spec = Spec::Micro(MicroSpec::uniform(10, 2, false).with_transfers(100));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        let stats = OrthrusEngine::new(db, spec, cfg).run(&quick());
        assert!(stats.totals.lock_waits > 0);
        assert!(stats.totals.releases_first > 0);
        assert!(stats.releases_first_per_commit() > 0.0);
    }

    /// A fused run is as long as its class's batch: transfers among ten
    /// accounts keep the cap at its floor, yet a batched run is clipped
    /// only by the headroom under the ceiling, so runs carry several
    /// transactions each. FIFO admits one transaction per run.
    #[test]
    fn batched_runs_fuse_past_the_cap_and_fifo_runs_hold_one() {
        let _serial = crate::test_serial();
        let run = |admission| {
            let db = Arc::new(Database::Flat(Table::new(10, 16)));
            let spec = Spec::Micro(MicroSpec::uniform(10, 2, false).with_transfers(100));
            let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
            cfg.admission = admission;
            OrthrusEngine::new(db, spec, cfg).run(&quick())
        };
        let batched = run(crate::admit::AdmissionPolicy::conflict_batch());
        assert!(batched.totals.lock_waits > 0);
        assert!(
            batched.txns_per_run() >= 3.0,
            "{:.2} transactions per run",
            batched.txns_per_run()
        );
        assert!(batched.inflight_max() <= 64);
        let fifo = run(crate::admit::AdmissionPolicy::Fifo);
        assert_eq!(fifo.txns_per_run(), 1.0);
        assert!(
            fifo.inflight_max() <= 16,
            "runs of one never pass the cap, held at its floor here"
        );
    }

    /// A ceiling between the floor and the cap plus a batch: a run that
    /// starts just under the cap fills the headroom above it but never
    /// passes the ceiling, and every ticket still completes.
    #[test]
    fn runs_never_pass_the_ceiling() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(10, 16)));
        let spec = MicroSpec::uniform(10, 2, false).with_transfers(100);
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::conflict_batch();
        cfg.max_inflight = 20;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let n = 4000;
        let mut gen = Spec::Micro(spec).generator(5, 0);
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n, "every ticket completes");
        assert_eq!(stats.totals.committed_all, n);
        assert!(stats.inflight_max() <= 20, "{}", stats.inflight_max());
        assert!(
            stats.inflight_max() > 16,
            "a run filled the headroom above the cap"
        );
    }

    #[test]
    #[should_panic(expected = "invalid OrthrusConfig")]
    fn engine_rejects_zero_conflict_classes() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 0,
            batch: 1,
        };
        let _ = OrthrusEngine::new(db, spec, cfg);
    }

    // ---- Service mode (open-loop sessions) ---------------------------

    use crate::source::Completion;
    use orthrus_workload::Gen;

    /// Drive `n` submissions through a session (blocking on
    /// backpressure), draining completions as they arrive, then shut
    /// down and drain the tail. Returns (completions, stats).
    fn drive_service(
        engine: &OrthrusEngine,
        gen: &mut Gen,
        n: u64,
    ) -> (Vec<Completion>, orthrus_common::RunStats) {
        let mut handle = engine.start(7);
        handle.begin_measurement();
        let session = handle.session();
        let mut done = Vec::new();
        for _ in 0..n {
            session
                .submit(gen.next_program())
                .expect("engine is accepting");
            handle.drain_completions(&mut done);
        }
        let stats = handle.shutdown();
        handle.drain_completions(&mut done);
        assert_eq!(handle.accepted(), n);
        (done, stats)
    }

    fn every_policy() -> [crate::admit::AdmissionPolicy; 2] {
        [
            crate::admit::AdmissionPolicy::Fifo,
            crate::admit::AdmissionPolicy::ConflictBatch {
                classes: 4,
                batch: 8,
            },
        ]
    }

    /// Every accepted ticket completes exactly once, under both
    /// admission policies, with the serializability witness intact —
    /// including tickets still queued in ingest rings at shutdown
    /// (`submit` never waits for completions, so at `shutdown()` up to
    /// ring-capacity submissions are still undrained in-flight work).
    #[test]
    fn service_mode_conserves_tickets_under_every_policy() {
        let _serial = crate::test_serial();
        for admission in every_policy() {
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            // Hot keys: conflict-class routing and fusing both engage.
            let spec = MicroSpec::hot_cold(64, 8, 2, 4, false);
            let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
            cfg.admission = admission.clone();
            cfg.ingest_capacity = 32;
            let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
            let n = 600;
            let mut gen = Spec::Micro(spec).generator(11, 0);
            let (done, stats) = drive_service(&engine, &mut gen, n);
            assert_eq!(
                done.len() as u64,
                n,
                "{admission}: every ticket must complete exactly once"
            );
            let mut tickets: Vec<u64> = done.iter().map(|c| c.ticket.0).collect();
            tickets.sort_unstable();
            tickets.dedup();
            assert_eq!(
                tickets.len() as u64,
                n,
                "{admission}: tickets must be distinct"
            );
            assert_eq!(stats.totals.committed_all, n, "{admission}");
            // The logical locks serialized every RMW exactly once.
            let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
            assert_eq!(total, n * 4, "{admission}: counter sums diverged");
            // Submit→commit latency was recorded for every in-window
            // commit; the shutdown drain tail falls outside the window.
            let recorded = stats.totals.latency.count();
            assert!(
                0 < recorded && recorded <= n,
                "{admission}: latency samples {recorded} of {n} commits"
            );
            assert!(stats.per_thread_latency.len() >= 3, "{admission}");
        }
    }

    /// Shutdown with the ingest rings still full: the fence refuses new
    /// work, but everything already accepted drains to completion.
    #[test]
    fn service_shutdown_drains_queued_submissions() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        cfg.ingest_capacity = 64;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let mut handle = engine.start(3);
        let session = handle.session();
        let mut gen = Spec::Micro(MicroSpec::uniform(64, 4, false)).generator(5, 0);
        // Burst without draining a single completion.
        let n = 200u64;
        for _ in 0..n {
            session.submit(gen.next_program()).expect("accepting");
        }
        let accepted = handle.accepted();
        assert_eq!(accepted, n);
        let stats = handle.shutdown();
        // Post-shutdown submission is fenced out, not lost silently.
        assert!(matches!(
            session.try_submit(gen.next_program()),
            Err(crate::session::TrySubmitError::Shutdown(_))
        ));
        let mut done = Vec::new();
        handle.drain_completions(&mut done);
        assert_eq!(done.len() as u64, n, "shutdown must drain, not drop");
        assert_eq!(stats.totals.committed_all, n);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, n * 4);
    }

    /// Regression (review finding): an admission-queue window far deeper
    /// than the ingest ring. A refill can pull `classes × batch` ticketed
    /// transactions out of a tiny ring while the client keeps it full and
    /// then blocks in `submit`; the completion rings must absorb the
    /// whole backlog (ingest + window + in-flight, doubled for drain
    /// lag) or the engine wedges against the blocked client.
    #[test]
    fn service_mode_survives_admission_window_deeper_than_ingest_ring() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = MicroSpec::hot_cold(64, 4, 2, 4, false);
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 16,
            batch: 8, // window 128 ≫ ingest ring
        };
        cfg.ingest_capacity = 8;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let n = 500;
        let mut gen = Spec::Micro(spec).generator(19, 0);
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n, "deep-window backlog must drain");
        assert_eq!(stats.totals.committed_all, n);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, n * 4);
    }

    /// Regression (review finding): a hot-key burst routes every
    /// submission to ONE execution thread's lane, and the client drains
    /// nothing until shutdown — far more undrained completions than the
    /// completion ring holds. The engine must park the overflow and stay
    /// live (a blocking completion push would wedge it against the
    /// client stuck in `submit`), and shutdown must deliver every
    /// ticket.
    #[test]
    fn service_mode_survives_hot_key_burst_without_draining() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        cfg.ingest_capacity = 16; // completion fast path: 2·(16+0+16) = 64
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let mut handle = engine.start(23);
        let session = handle.session();
        // One hot key → one lane; 300 undrained completions ≫ 64.
        let n = 300u64;
        for i in 0..n {
            session
                .submit(orthrus_txn::Program::Rmw {
                    keys: vec![7, 40 + i % 8],
                })
                .expect("accepting");
        }
        let stats = handle.shutdown();
        let mut done = Vec::new();
        handle.drain_completions(&mut done);
        assert_eq!(done.len() as u64, n, "overflowed completions delivered");
        assert_eq!(stats.totals.committed_all, n);
        let total: u64 = (0..64).map(|k| unsafe { db.read_counter(k) }).sum();
        assert_eq!(total, n * 2);
    }

    /// Ticket conservation through the OLLP abort/retry path: a retried
    /// transaction keeps its ticket and completes once.
    #[test]
    fn service_mode_tickets_survive_ollp_retries() {
        let _serial = crate::test_serial();
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 27)));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
        let mut gen = Spec::Tpcc(TpccSpec::paper_mix(cfg_t)).generator(13, 0);
        let n = 400;
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(
            done.len() as u64,
            n,
            "retried tickets must not fork or drop"
        );
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        let t = db.tpcc();
        let w_delta: u64 = (0..t.warehouses.len())
            .map(|w| unsafe { t.warehouses.read_with(w, |r| r.ytd_cents) } - 30_000_000)
            .sum();
        let d_delta: u64 = (0..t.districts.len())
            .map(|d| unsafe { t.districts.read_with(d, |r| r.ytd_cents) } - 3_000_000)
            .sum();
        assert_eq!(w_delta, d_delta);
    }

    /// Submit `n` programs — every third one plain, the rest owned, each
    /// under its own `(client, tag)` — and check every completion's
    /// return address against what its ticket was submitted with: it
    /// rode the transaction through whatever the engine did to it.
    /// `drain_late` is the client that drains only after shutdown, so
    /// its completions cross `completion_overflow`.
    fn assert_owners_come_back(
        engine: &OrthrusEngine,
        mut next: impl FnMut(u64) -> orthrus_txn::Program,
        n: u64,
        drain_late: bool,
    ) -> orthrus_common::RunStats {
        use crate::session::TrySubmitError;
        let mut handle = engine.start(7);
        let session = handle.session();
        let mut want = std::collections::HashMap::new();
        let mut done = Vec::new();
        for i in 0..n {
            let owner = (i % 3 != 0).then_some(((i % 5) as u32, 1_000 + i));
            let mut program = next(i);
            let ticket = loop {
                let tried = match owner {
                    Some((client, tag)) => session.try_submit_owned(program, client, || tag),
                    None => session.try_submit(program),
                };
                match tried {
                    Ok(ticket) => break ticket,
                    Err(TrySubmitError::Full(back)) => {
                        program = back;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            };
            want.insert(ticket, owner);
            if !drain_late {
                handle.drain_completions(&mut done);
            }
        }
        let stats = handle.shutdown();
        handle.drain_completions(&mut done);
        assert_eq!(done.len() as u64, n, "every ticket completes once");
        for c in &done {
            let owner = c.client.map(|client| (client, c.tag));
            assert_eq!(want.remove(&c.ticket), Some(owner), "{c:?}");
        }
        stats
    }

    /// Owned and plain submissions interleaved, under every admission
    /// policy (fused runs included), with durability off and with
    /// `log+fsync` behind the group-sync coordinator (completions wait in
    /// `pending_durable`): the owner comes back with the ticket.
    #[test]
    fn completions_carry_the_owner_they_were_submitted_with() {
        let _serial = crate::test_serial();
        for admission in every_policy() {
            for durable in [false, true] {
                let scratch = durable.then(|| TempDir::new("engine-owner"));
                let db = Arc::new(Database::Flat(Table::new(64, 64)));
                let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo);
                if let Some(dir) = &scratch {
                    cfg = cfg.with_durability(DurabilityMode::LogFsync, dir.path());
                }
                cfg.admission = admission.clone();
                cfg.ingest_capacity = 32;
                let engine = OrthrusEngine::service(db, cfg);
                let spec = MicroSpec::hot_cold(64, 8, 2, 4, false);
                let mut gen = Spec::Micro(spec).generator(11, 0);
                let stats = assert_owners_come_back(&engine, |_| gen.next_program(), 600, false);
                assert_eq!(
                    stats.totals.log_group_syncs > 0,
                    durable,
                    "{admission}: the coordinator gates completions iff durable"
                );
            }
        }
    }

    /// The owner survives the overflow buffer (one hot lane, nothing
    /// drained until shutdown: 300 completions ≫ the ring's 64) and the
    /// OLLP abort/retry path (TPC-C with half the estimates wrong).
    #[test]
    fn the_owner_survives_completion_overflow_and_ollp_retries() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        cfg.ingest_capacity = 16;
        let engine = OrthrusEngine::service(db, cfg);
        let hot = |i| orthrus_txn::Program::Rmw {
            keys: vec![7, 40 + i % 8],
        };
        assert_owners_come_back(&engine, hot, 300, true);

        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 27)));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::service(db, cfg);
        let mut gen = Spec::Tpcc(TpccSpec::paper_mix(cfg_t)).generator(13, 0);
        let stats = assert_owners_come_back(&engine, |_| gen.next_program(), 400, false);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
    }

    #[test]
    fn dropping_the_handle_shuts_the_engine_down() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::service(db, cfg);
        let handle = engine.start(1);
        let session = handle.session();
        session
            .submit(orthrus_txn::Program::Rmw { keys: vec![3] })
            .unwrap();
        drop(handle); // must join the workers, not leak them spinning
        assert!(matches!(
            session.try_submit(orthrus_txn::Program::Rmw { keys: vec![3] }),
            Err(crate::session::TrySubmitError::Shutdown(_))
        ));
    }

    #[test]
    #[should_panic(expected = "does not match the engine's")]
    fn run_rejects_mismatched_thread_count() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo);
        let engine = OrthrusEngine::new(db, spec, cfg);
        let _ = engine.run(&RunParams::quick(7)); // engine runs 3 threads
    }

    /// `RunParams::ollp_noise_pct` follows the `threads` rule: 0 takes
    /// the engine's, the engine's own value is accepted, anything else is
    /// refused naming both — never silently ignored.
    #[test]
    fn run_rejects_mismatched_ollp_noise() {
        let _serial = crate::test_serial();
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let spec = Spec::Micro(MicroSpec::uniform(16, 2, false));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.ollp_noise_pct = 30;
        let engine = OrthrusEngine::new(db, spec, cfg);
        let mut params = quick();
        params.measure = std::time::Duration::from_millis(20);
        assert!(engine.run(&params).totals.committed > 0, "0 = the engine's");
        params.ollp_noise_pct = 30;
        assert!(engine.run(&params).totals.committed > 0, "the engine's own");
        params.ollp_noise_pct = 50;
        let refused =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&params)))
                .expect_err("a noise level the engine would not plan with");
        let msg = refused.downcast_ref::<String>().expect("formatted");
        assert!(msg.contains("= 50") && msg.contains("= 30"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "needs a workload spec")]
    fn run_rejects_service_engines() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        let _ = OrthrusEngine::service(db, cfg).run(&RunParams::quick(0));
    }

    /// A warehouse assignment over a flat table is refused when the
    /// engine is built, naming the field, instead of killing a worker
    /// at the first plan ("not a TPC-C database").
    #[test]
    #[should_panic(expected = "assignment Warehouse needs a TPC-C database")]
    fn service_rejects_a_warehouse_assignment_over_a_flat_table() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::Warehouse);
        let _ = OrthrusEngine::service(db, cfg);
    }

    #[test]
    #[should_panic(expected = "invalid OrthrusConfig")]
    fn service_rejects_zero_ingest_capacity() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.ingest_capacity = 0;
        let _ = OrthrusEngine::service(db, cfg);
    }

    // ---- Durability (command log + replay) ---------------------------

    use orthrus_common::TempDir;
    use orthrus_durability::DurabilityMode;
    use orthrus_txn::Program;

    /// Quiesced per-key counters of a flat database.
    fn counters(db: &Database, n: u64) -> Vec<u64> {
        // SAFETY: the engine is shut down; no thread touches the table.
        (0..n).map(|k| unsafe { db.read_counter(k) }).collect()
    }

    /// Closed-loop run with command logging: the log covers every commit
    /// (lifetime count, group-commit records ≤ commits), and replaying it
    /// into a fresh database reproduces the live table state exactly.
    #[test]
    fn closed_loop_log_replays_to_identical_state() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-log");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(2, 3, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::Log, scratch.path());
        cfg.admission = crate::admit::AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        };
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg.clone());
        let stats = engine.run(&quick());
        assert!(stats.totals.committed_all > 0);
        assert!(stats.totals.log_records > 0, "commits must be logged");
        assert!(
            stats.totals.log_records <= stats.totals.committed_all,
            "group commit: at most one record per commit"
        );
        assert!(
            0 < stats.totals.log_writes && stats.totals.log_writes <= stats.totals.log_records,
            "a write carries one record or more"
        );
        assert!(stats.totals.log_bytes > 0);
        assert_eq!(stats.totals.log_flushes, 0, "`log` mode must not fsync");
        drop(engine); // release the writer before recovery repairs the log

        let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
        let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert_eq!(report.txns, stats.totals.committed_all);
        // The stat counters are *windowed* (reset at measurement start,
        // like `committed`); the log itself covers the whole lifetime.
        assert!(report.records >= stats.totals.log_records);
        assert_eq!(report.torn_bytes, 0, "clean shutdown leaves no tear");
        assert!(
            report.tickets.is_empty(),
            "synthetic commits are unticketed"
        );
        assert_eq!(counters(&fresh, 64), counters(&db, 64));
        drop(recovered);
    }

    /// `log+fsync` with per-run sync (durability rung 1): completions
    /// release only after the inline fsync, and there is one fsync per
    /// write — a write carries every run one quantum committed, so at
    /// most one per record.
    #[test]
    fn fsync_mode_flushes_once_per_write() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-fsync");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::LogFsync, scratch.path());
        cfg.sync_interval = orthrus_durability::SyncInterval::PerRun;
        let stats = OrthrusEngine::new(Arc::clone(&db), spec, cfg).run(&quick());
        assert!(stats.totals.committed_all > 0);
        assert!(stats.totals.log_writes > 0);
        assert_eq!(stats.totals.log_flushes, stats.totals.log_writes);
        assert!(stats.totals.log_writes <= stats.totals.log_records);
        assert_eq!(stats.totals.log_group_syncs, 0, "no coordinator spawned");
    }

    /// `log+fsync` with the group-sync coordinator (durability rung 2,
    /// the default): exec threads only publish watermarks, the
    /// coordinator's fsyncs cover every appended record before its
    /// completion releases, and replay still reproduces the state.
    #[test]
    fn group_sync_covers_every_record_and_recovers() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-groupsync");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false));
        let cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::LogFsync, scratch.path());
        let engine = OrthrusEngine::new(Arc::clone(&db), spec, cfg.clone());
        let stats = engine.run(&quick());
        assert!(stats.totals.committed_all > 0);
        assert!(stats.totals.log_records > 0);
        assert!(stats.totals.log_group_syncs > 0, "coordinator must flush");
        // Every record this closed-loop run appended was covered by a
        // coordinator fsync before its completion released (the
        // coordinator's counters are lifetime-scoped, so they dominate
        // the windowed record count), and in group mode the only fsyncs
        // are the coordinator's.
        assert!(stats.totals.log_synced_appends >= stats.totals.log_records);
        assert_eq!(stats.totals.log_flushes, stats.totals.log_group_syncs);
        assert!(stats.totals.log_fsync_wait.count() > 0, "waits recorded");
        drop(engine);

        let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
        let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert_eq!(report.txns, stats.totals.committed_all);
        assert_eq!(report.torn_bytes, 0, "clean stop leaves no tear");
        assert_eq!(counters(&fresh, 64), counters(&db, 64));
        drop(recovered);
    }

    /// The engine-level checkpoint loop: a service run with a tiny
    /// checkpoint trigger writes checkpoints behind the workers' backs,
    /// truncates old segments, and recovery replays checkpoint + suffix
    /// to the exact live state with every ticket conserved.
    #[test]
    fn service_checkpoints_truncate_and_recover() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-ckpt");
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
            .with_durability(DurabilityMode::Log, scratch.path());
        cfg.checkpoint_bytes = Some(256); // aggressive: many checkpoints
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
        let mut gen = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false)).generator(9, 0);
        let n = 800u64;
        let (done, _stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n);
        drop(engine);

        let newest = orthrus_storage::checkpoint::load_newest_checkpoint(scratch.path())
            .unwrap()
            .expect("a valid checkpoint survives");
        assert!(
            newest.index > 0,
            "checkpointer advanced past the base image"
        );

        let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
        let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert!(
            report.checkpoint.is_some(),
            "recovery starts at a checkpoint"
        );
        assert!(
            (report.txns as usize) < n as usize,
            "only the suffix replays ({} of {n})",
            report.txns
        );
        assert_eq!(counters(&fresh, 64), counters(&db, 64));
        drop(recovered);
    }

    /// Rung-2 equivalence across admission policies: each policy shapes
    /// fused runs — and therefore log records — differently, but
    /// recovering from the newest checkpoint + suffix must be
    /// bit-identical (snapshot-codec bytes) to replaying the same log
    /// from scratch, and the full replay must carry every accepted
    /// ticket exactly once (the conservation audit).
    #[test]
    fn checkpoint_recovery_matches_full_log_for_every_admission_policy() {
        let _serial = crate::test_serial();
        for admission in [
            crate::admit::AdmissionPolicy::Fifo,
            crate::admit::AdmissionPolicy::conflict_batch(),
        ] {
            let scratch = TempDir::new("engine-ckpt-pol");
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
                .with_durability(DurabilityMode::Log, scratch.path());
            cfg.admission = admission.clone();
            cfg.checkpoint_bytes = Some(256);
            let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
            let mut gen = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false)).generator(11, 0);
            let n = 800u64;
            let (done, _stats) = drive_service(&engine, &mut gen, n);
            assert_eq!(done.len() as u64, n, "{admission:?}");
            drop(engine);

            // Mirror only the log segments: the mirror has no
            // checkpoints, so it must replay the whole history.
            let mirror = TempDir::new("engine-ckpt-mirror");
            for entry in std::fs::read_dir(scratch.path()).unwrap() {
                let p = entry.unwrap().path();
                let name = p.file_name().unwrap().to_str().unwrap().to_string();
                if name.starts_with("seg-") {
                    std::fs::copy(&p, mirror.path().join(&name)).unwrap();
                }
            }

            let via_ckpt = Database::Flat(Table::new(64, 64));
            let full = Database::Flat(Table::new(64, 64));
            let ra = orthrus_durability::recover(&via_ckpt, scratch.path()).unwrap();
            let rb = orthrus_durability::recover(&full, mirror.path()).unwrap();
            assert!(ra.checkpoint.is_some(), "{admission:?}");
            assert!(rb.checkpoint.is_none(), "{admission:?}");
            // SAFETY: both databases are quiesced (recovery returned).
            let (a, b) = unsafe {
                (
                    orthrus_durability::snapshot::serialize_db(&via_ckpt),
                    orthrus_durability::snapshot::serialize_db(&full),
                )
            };
            assert_eq!(a, b, "{admission:?}: ckpt+suffix state != full-log state");
            let mut all = rb.tickets.clone();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "{admission:?}");
            assert!(ra.tickets.len() <= rb.tickets.len(), "{admission:?}");
            assert_eq!(
                ra.tickets[..],
                rb.tickets[rb.tickets.len() - ra.tickets.len()..],
                "{admission:?}: suffix mismatch"
            );
        }
    }

    /// Shutdown + recovery interaction (the drained-dry contract): a
    /// service engine accepts a burst — including submissions still
    /// queued in ingest rings when shutdown begins — drains everything,
    /// and `recover` on the resulting log reproduces the drained state
    /// with every accepted ticket replayed exactly once. Work fenced out
    /// by the shutdown (refused tickets) is excluded from the log.
    #[test]
    fn shutdown_drains_dry_then_recover_reproduces_state() {
        let _serial = crate::test_serial();
        for admission in [
            crate::admit::AdmissionPolicy::Fifo,
            crate::admit::AdmissionPolicy::ConflictBatch {
                classes: 4,
                batch: 8,
            },
        ] {
            let scratch = TempDir::new("engine-drain");
            let db = Arc::new(Database::Flat(Table::new(64, 64)));
            let mut cfg = OrthrusConfig::with_threads(1, 2, CcAssignment::KeyModulo)
                .with_durability(DurabilityMode::Log, scratch.path());
            cfg.admission = admission.clone();
            cfg.ingest_capacity = 64;
            let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
            let mut handle = engine.start(3);
            let session = handle.session();
            let mut gen = Spec::Micro(MicroSpec::hot_cold(64, 8, 2, 4, false)).generator(5, 0);
            // Burst without draining: at shutdown() up to ring-capacity
            // submissions are still queued backlog.
            let n = 200u64;
            for _ in 0..n {
                session.submit(gen.next_program()).expect("accepting");
            }
            let stats = handle.shutdown();
            assert_eq!(stats.totals.committed_all, n, "{admission}: drained dry");
            // Post-fence work is refused — and must not leak into the log.
            assert!(session.try_submit(gen.next_program()).is_err());
            let mut done = Vec::new();
            handle.drain_completions(&mut done);
            assert_eq!(done.len() as u64, n);
            drop(handle);
            drop(engine);

            let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
            let (recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
            assert_eq!(report.txns, n, "{admission}: every ticket replayed");
            // Exactly-once, no loss: replayed tickets == completed tickets.
            let mut replayed = report.tickets.clone();
            replayed.sort_unstable();
            let mut completed: Vec<u64> = done.iter().map(|c| c.ticket.0).collect();
            completed.sort_unstable();
            assert_eq!(replayed, completed, "{admission}");
            assert_eq!(counters(&fresh, 64), counters(&db, 64), "{admission}");

            // The recovered engine keeps serving — and keeps logging.
            let mut handle = recovered.start(4);
            let session = handle.session();
            for _ in 0..10 {
                session.submit(gen.next_program()).expect("accepting");
            }
            let more = handle.shutdown();
            assert_eq!(more.totals.committed_all, 10, "{admission}");
        }
    }

    /// A program with an empty footprint (the wire codec accepts an empty
    /// key list) touches nothing and has nothing to lock: it commits
    /// without a lock round, exactly once, and the engine goes on. It
    /// used to reach `send_acquire`'s `spans()[0]` and kill the execution
    /// thread, after which no ticket ever completed again.
    #[test]
    fn a_program_that_touches_nothing_commits_and_the_engine_goes_on() {
        let _serial = crate::test_serial();
        let empties = [
            Program::Rmw { keys: vec![] },
            Program::ReadOnly { keys: vec![] },
            Program::Fused {
                epoch: 1,
                parts: vec![],
            },
        ];
        for admission in every_policy() {
            for durable in [false, true] {
                let scratch = TempDir::new("engine-empty");
                let db = Arc::new(Database::Flat(Table::new(64, 64)));
                let mut cfg = OrthrusConfig::with_threads(2, 1, CcAssignment::KeyModulo);
                if durable {
                    cfg = cfg.with_durability(DurabilityMode::Log, scratch.path());
                }
                cfg.admission = admission.clone();
                let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
                let mut handle = engine.start(7);
                let session = handle.session();
                // Each empty program between two ordinary ones, then all
                // three back to back: a batched window fuses those into
                // one run that is empty as a whole.
                let mut programs = Vec::new();
                for empty in &empties {
                    programs.push(Program::Rmw { keys: vec![1, 2] });
                    programs.push(empty.clone());
                    programs.push(Program::Rmw { keys: vec![2, 3] });
                }
                programs.extend(empties.iter().cloned());
                let n = programs.len() as u64;
                for program in programs {
                    session.submit(program).expect("accepting");
                }
                let what = format!("{admission}, log {durable}");
                let mut done = Vec::new();
                let deadline = Instant::now() + std::time::Duration::from_secs(20);
                while (done.len() as u64) < n {
                    assert!(Instant::now() < deadline, "{what}: {} of {n}", done.len());
                    handle.drain_completions(&mut done);
                    std::thread::yield_now();
                }
                let stats = handle.shutdown();
                handle.drain_completions(&mut done);
                let mut tickets: Vec<u64> = done.iter().map(|c| c.ticket.0).collect();
                tickets.sort_unstable();
                assert_eq!(tickets, (0..n).collect::<Vec<_>>(), "{what}: exactly once");
                assert_eq!(stats.totals.committed, n, "{what}");
                assert_eq!(counters(&db, 4), vec![0, 3, 6, 3], "{what}");
                drop(handle);
                drop(engine);
                if durable {
                    let fresh = Arc::new(Database::Flat(Table::new(64, 64)));
                    let (_, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
                    assert_eq!(report.txns, n, "{what}: the empty ones are in the log");
                    assert_eq!(counters(&fresh, 64), counters(&db, 64), "{what}");
                }
            }
        }
    }

    /// Ticket conservation through OLLP retries under logging: a retried
    /// transaction is logged once (at its commit), and replay reproduces
    /// the TPC-C money invariants of the live run.
    #[test]
    fn tpcc_service_with_ollp_noise_recovers_exactly() {
        let _serial = crate::test_serial();
        let scratch = TempDir::new("engine-tpcc");
        let cfg_t = TpccConfig::tiny(2);
        let db = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 27)));
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse)
            .with_durability(DurabilityMode::Log, scratch.path());
        cfg.ollp_noise_pct = 50;
        let engine = OrthrusEngine::service(Arc::clone(&db), cfg.clone());
        let mut gen = Spec::Tpcc(TpccSpec::paper_mix(cfg_t)).generator(13, 0);
        let n = 300;
        let (done, stats) = drive_service(&engine, &mut gen, n);
        assert_eq!(done.len() as u64, n);
        assert!(stats.totals.aborts_ollp > 0, "noise must hit the OLLP path");
        drop(engine);

        // Replay into a freshly loaded database (same seed = the same
        // logical snapshot the log started from).
        cfg.ollp_noise_pct = 0; // recovery replans noise-free regardless
        let fresh = Arc::new(Database::Tpcc(TpccDb::load(cfg_t, 27)));
        let (_recovered, report) = OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        assert_eq!(report.txns, n, "retried commits logged exactly once");
        let (a, b) = (db.tpcc(), fresh.tpcc());
        for w in 0..a.warehouses.len() {
            // SAFETY: both databases are quiesced.
            let (ya, yb) = unsafe {
                (
                    a.warehouses.read_with(w, |r| r.ytd_cents),
                    b.warehouses.read_with(w, |r| r.ytd_cents),
                )
            };
            assert_eq!(ya, yb, "warehouse {w} ytd");
        }
        for d in 0..a.districts.len() {
            // SAFETY: quiesced (see above).
            let (da, db_) = unsafe {
                (
                    a.districts
                        .read_with(d, |r| (r.ytd_cents, r.next_o_id, r.history_ctr)),
                    b.districts
                        .read_with(d, |r| (r.ytd_cents, r.next_o_id, r.history_ctr)),
                )
            };
            assert_eq!(da, db_, "district {d}");
        }
        for c in 0..a.customers.len() {
            // SAFETY: quiesced (see above).
            let (ca, cb) = unsafe {
                (
                    a.customers
                        .read_with(c, |r| (r.balance_cents, r.payment_cnt)),
                    b.customers
                        .read_with(c, |r| (r.balance_cents, r.payment_cnt)),
                )
            };
            assert_eq!(ca, cb, "customer {c}");
        }
    }

    #[test]
    #[should_panic(expected = "needs a log_dir")]
    fn engine_rejects_durability_without_dir() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.durability = DurabilityMode::Log;
        let _ = OrthrusEngine::service(db, cfg);
    }

    #[test]
    #[should_panic(expected = "needs durability on")]
    fn recover_rejects_durability_off() {
        let db = Arc::new(Database::Flat(Table::new(16, 64)));
        let cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        let _ = OrthrusEngine::recover(db, cfg);
    }

    #[test]
    fn single_partition_messages_are_three_per_commit() {
        let _serial = crate::test_serial();
        // Single-CC transactions: acquire + grant + release = 3 messages
        // (the Appendix-A "2 message delays" acquire path plus 1 release).
        let db = Arc::new(Database::Flat(Table::new(64, 64)));
        let spec = Spec::Micro(
            MicroSpec::uniform(64, 4, false)
                .with_constraint(PartitionConstraint::Exact { count: 1, of: 2 }),
        );
        let mut cfg = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        cfg.admission = crate::admit::AdmissionPolicy::Fifo;
        let engine = OrthrusEngine::new(db, spec, cfg);
        let stats = engine.run(&quick());
        let per_commit = stats.totals.messages_sent as f64 / stats.totals.committed as f64;
        assert!(
            (2.5..=3.5).contains(&per_commit),
            "messages/commit {per_commit:.2}, expected ≈3"
        );
    }
}
