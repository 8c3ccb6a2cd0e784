//! The partitioned engine: N independent ORTHRUS engines behind one
//! router, with cross-partition work sequenced into deterministic
//! epoch batches.
//!
//! ## Shape
//!
//! [`PartitionedEngine::start`] boots one service-mode
//! [`OrthrusEngine`] per partition (threads today; each partition
//! shares nothing with its peers — own database, own CC/exec threads,
//! own command log — so the step to one *process* per partition is a
//! transport change, not a redesign). A [`PartSession`] classifies each
//! submitted [`Program`] by its planned footprint
//! ([`crate::map::route`]):
//!
//! - **Single-partition** (the overwhelming majority by design):
//!   submitted straight into that partition's existing ingest ring —
//!   the fast path adds one partition-map lookup to the unpartitioned
//!   submit path; the global ticket rides the submission as its owner
//!   tag.
//! - **Cross-partition**: queued for the **sequencer**. The sequencer
//!   drains the queue into ordered batches, assigns each batch a global
//!   *epoch* number, slices every program per partition
//!   ([`crate::map::slice`]), and submits one fused program
//!   ([`Program::Fused`]) per touched partition. It releases epoch
//!   `E+1` only after every partition has *completed* its slice of
//!   epoch `E` — the epoch barrier.
//!
//! ## Why this is deadlock- and 2PC-free
//!
//! Each fused slice is an ordinary program inside its partition: its
//! whole footprint is planned and acquired through the partition's
//! planned-locking CC threads (`execute_planned` underneath), so there
//! is no distributed lock graph — no partition ever waits on another's
//! locks, only the sequencer waits on completions. The barrier makes
//! the epoch order *the* serial order for cross-partition work under
//! any admission policy: at most one epoch is in flight anywhere, every
//! partition executes its slice of `E` strictly before its slice of
//! `E+1`, and single-partition transactions — which touch exactly one
//! partition — interleave with epochs at that partition alone, so no
//! cross-partition cycle can form. No prepare/commit round trips, no
//! aborts for atomicity: a batch's slices are logged and executed as
//! committed work on every touched partition.
//!
//! ## Tickets and conservation
//!
//! The partition layer mints its own dense global tickets
//! (`0..accepted`), exactly like a single engine: the conservation
//! audit (`accepted == completions delivered`) holds across the whole
//! deployment. Every partition-layer submission names the sequencer as
//! its owner and carries the global ticket as its tag, and a member
//! engine hands both back in the completion ([`Completion::tag`]): there
//! is no local→global map to keep and nothing between the sequencer and
//! [`EngineHandle::drain_completions`]. The sequencer re-labels each
//! completion with its global ticket and passes it to the client via
//! [`PartitionedHandle::drain_completions`]; what it observed per
//! partition — `routed` carried an owner, `unowned` did not (a fault:
//! nothing here submits ownerless) — is [`RunStats::hub`], one entry per
//! partition.
//!
//! ## Durability
//!
//! Each partition appends to its own command log under
//! `<log_dir>/part-<i>`. Fused programs carry their epoch number in the
//! program encoding, so epoch markers ride the existing codec for free:
//! recovery ([`PartitionedEngine::recover`]) replays each partition's
//! log independently, and because the barrier ensured epoch `E` was
//! fully logged everywhere before `E+1` existed anywhere, per-partition
//! log order *is* epoch order.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use orthrus_common::affinity::Placement;
use orthrus_common::{Backoff, Doorbell, HubBreakdown, RunStats};
use orthrus_core::{
    spawn_named, Completion, EngineError, EngineHandle, OrthrusConfig, OrthrusEngine, Session,
    Ticket, TrySubmitError,
};
use orthrus_durability::ReplayReport;
use orthrus_txn::{Database, Program};

use crate::map::{route, slice, PartitionMap, Route};

/// Default cap on cross-partition programs fused into one epoch: deep
/// enough to amortize the barrier round trip, shallow enough that one
/// epoch's fused footprint stays a small multiple of a normal program.
pub const DEFAULT_EPOCH_BATCH: usize = 64;

/// Default bound on the queued-but-unsequenced cross-partition backlog;
/// a full queue backpressures the submitter ([`TrySubmitError::Full`]),
/// mirroring a full ingest ring.
pub const DEFAULT_XP_CAPACITY: usize = 1024;

/// Shape of a partitioned deployment.
#[derive(Debug, Clone)]
pub struct PartitionedConfig {
    /// Key → partition ownership.
    pub map: PartitionMap,
    /// Template for every member engine. `log_dir`, when set, is the
    /// *base*: partition `i` logs under `<log_dir>/part-<i>`.
    /// `sim_prefix` is likewise composed per partition (`p<i>.`).
    pub engine: OrthrusConfig,
    /// Max cross-partition programs fused into one epoch batch.
    pub epoch_max_batch: usize,
    /// Bound on the queued cross-partition backlog.
    pub xp_capacity: usize,
}

impl PartitionedConfig {
    /// `parts` modulo-mapped partitions, every engine cloned from
    /// `engine`.
    pub fn new(parts: usize, engine: OrthrusConfig) -> Self {
        PartitionedConfig {
            map: PartitionMap::Modulo { parts },
            engine,
            epoch_max_batch: DEFAULT_EPOCH_BATCH,
            xp_capacity: DEFAULT_XP_CAPACITY,
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.map.partitions()
    }

    /// The member-engine configuration for partition `i`: the template
    /// with a partition-scoped sim-enrollment prefix, log directory and
    /// place in the deployment (its threads pin after the partitions
    /// before it, [`Placement`]).
    pub fn engine_for(&self, i: usize) -> OrthrusConfig {
        let mut cfg = self.engine.clone();
        cfg.sim_prefix = format!("{}p{i}.", self.engine.sim_prefix);
        cfg.placement = Placement {
            partition: i,
            partitions: self.partitions(),
        };
        if let Some(base) = &self.engine.log_dir {
            cfg.log_dir = Some(base.join(format!("part-{i}")));
        }
        cfg
    }

    /// Every thread the deployment runs, by the name it enrolls under:
    /// each member engine's ([`OrthrusConfig::thread_names`]), partition
    /// by partition, then the sequencer.
    pub fn thread_names(&self) -> Vec<String> {
        let members = (0..self.partitions()).flat_map(|i| {
            let (workers, companions) = self.engine_for(i).thread_names();
            workers.into_iter().chain(companions)
        });
        members.chain([self.sequencer_name()]).collect()
    }

    fn sequencer_name(&self) -> String {
        format!("{}partseq", self.engine.sim_prefix)
    }
}

/// The owner tag of an epoch's fused slices. Every other local ticket is
/// tagged with the global ticket it completes, minted from a dense
/// counter that cannot reach this value.
const FUSED_TAG: u64 = u64::MAX;

/// The owner every partition-layer submission names: the sequencer, the
/// one drainer of every member engine.
const SEQUENCER: u32 = 0;

/// A global ticket's completion as the client receives it. Ownerless:
/// the partition layer has no place yet for an owner of its own clients.
fn global_completion(global: u64, latency_ns: u64) -> Completion {
    Completion {
        ticket: Ticket(global),
        latency_ns,
        client: None,
        tag: 0,
    }
}

/// One queued cross-partition program awaiting its epoch.
struct XpEntry {
    global: u64,
    program: Program,
    enqueued: Instant,
}

/// State shared between client sessions and the sequencer thread.
struct PartShared {
    accepting: AtomicBool,
    /// Client threads currently inside [`PartSession::try_submit`]. Each
    /// checks `accepting` only after announcing itself here, so once the
    /// sequencer has read zero with `accepting` down, every global ticket
    /// that will ever exist is visible in `next_global`.
    submitting: AtomicUsize,
    stop: AtomicBool,
    /// Dense global ticket mint — the deployment-wide conservation
    /// ledger, exactly like a single engine's.
    next_global: AtomicU64,
    /// Global completions handed to the fan-in buffer so far.
    emitted: AtomicU64,
    sessions: Vec<Session>,
    /// Cross-partition backlog, drained by the sequencer into epochs.
    /// Poison is ignored: every update is one push or drain of plain
    /// values.
    xp: Mutex<Vec<XpEntry>>,
    xp_capacity: usize,
    /// Fan-in: translated global completions awaiting the client.
    /// Poison is ignored, as for `xp`.
    fanin: Mutex<Vec<Completion>>,
    /// The sequencer's doorbell: every member engine's completion bell
    /// (see [`OrthrusEngine::start_with_bell`]), also rung when
    /// cross-partition work is queued and when `stop` is raised.
    bell: Arc<Doorbell>,
}

impl PartShared {
    fn xp(&self) -> MutexGuard<'_, Vec<XpEntry>> {
        self.xp.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fanin(&self) -> MutexGuard<'_, Vec<Completion>> {
        self.fanin.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn accepted(&self) -> u64 {
        self.next_global.load(Ordering::SeqCst)
    }
}

/// A client handle onto the partitioned deployment. Cheap to clone;
/// submission is classified per program (fast path vs epoch queue).
#[derive(Clone)]
pub struct PartSession {
    shared: Arc<PartShared>,
    map: PartitionMap,
}

impl PartSession {
    /// Submit without blocking. Returns the *global* ticket: dense
    /// across the whole deployment, completed exactly once via
    /// [`PartitionedHandle::drain_completions`].
    pub fn try_submit(&self, program: Program) -> Result<Ticket, TrySubmitError> {
        /// Announces a submitter for the length of one call (unwinding
        /// included: a count stuck above zero would hang shutdown).
        struct Submitting<'a>(&'a AtomicUsize);
        impl Drop for Submitting<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let shared = &*self.shared;
        shared.submitting.fetch_add(1, Ordering::SeqCst);
        let _submitting = Submitting(&shared.submitting);
        if !shared.accepting.load(Ordering::SeqCst) {
            return Err(TrySubmitError::Shutdown(program));
        }
        let mint = || shared.next_global.fetch_add(1, Ordering::SeqCst);
        match route(&program, &self.map) {
            Route::Single(p) => {
                // The member session calls `mint` under its lane lock,
                // once the submission is certain to be accepted: global
                // tickets stay dense, and the tag is part of what is
                // pushed, so the completion cannot outrun it.
                let mut global = 0;
                shared.sessions[p].try_submit_owned(program, SEQUENCER, || {
                    global = mint();
                    global
                })?;
                Ok(Ticket(global))
            }
            Route::Cross(_) => {
                let mut q = shared.xp();
                if q.len() >= shared.xp_capacity {
                    return Err(TrySubmitError::Full(program));
                }
                let global = mint();
                q.push(XpEntry {
                    global,
                    program,
                    enqueued: Instant::now(),
                });
                drop(q);
                shared.bell.ring();
                Ok(Ticket(global))
            }
        }
    }

    /// Global tickets minted so far (single- and cross-partition).
    pub fn accepted(&self) -> u64 {
        self.shared.accepted()
    }
}

/// The partitioned engine constructor — the partitioned analogue of
/// [`OrthrusEngine`].
pub struct PartitionedEngine;

impl PartitionedEngine {
    /// Boot every partition engine and the sequencer thread; returns the
    /// running deployment's handle. `dbs[i]` is partition `i`'s database
    /// (each sized for the full keyspace; a partition only ever touches
    /// the keys the map assigns it).
    pub fn start(dbs: Vec<Arc<Database>>, cfg: PartitionedConfig, seed: u64) -> PartitionedHandle {
        cfg.map.validate();
        let n = cfg.partitions();
        assert_eq!(dbs.len(), n, "one database per partition");

        let mut handles = Vec::with_capacity(n);
        let mut sessions = Vec::with_capacity(n);
        let bell = Arc::new(Doorbell::new());
        for (i, db) in dbs.into_iter().enumerate() {
            let engine = OrthrusEngine::service(db, cfg.engine_for(i));
            // Distinct per-partition seeds: partitions are independent
            // engines, not replicas.
            let handle = engine.start_with_bell(
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                Arc::clone(&bell),
            );
            sessions.push(handle.session());
            handles.push(handle);
        }

        let shared = Arc::new(PartShared {
            accepting: AtomicBool::new(true),
            submitting: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            next_global: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            sessions,
            xp: Mutex::new(Vec::new()),
            xp_capacity: cfg.xp_capacity,
            fanin: Mutex::new(Vec::new()),
            bell,
        });

        let seq = Sequencer {
            shared: Arc::clone(&shared),
            map: cfg.map.clone(),
            handles,
            ledgers: (0..n)
                .map(|partition| HubBreakdown {
                    partition,
                    ..HubBreakdown::default()
                })
                .collect(),
            epoch: 0,
            inflight: None,
            max_batch: cfg.epoch_max_batch.max(1),
        };
        let seq_thread = spawn_named(cfg.sequencer_name(), move || seq.run());

        PartitionedHandle {
            shared,
            map: cfg.map,
            seq_thread: Some(seq_thread),
            stats: None,
        }
    }

    /// Crash recovery: replay every partition's command log under
    /// `<log_dir>/part-<i>` against its database, one serial pass each,
    /// and cut each log where its replay stopped
    /// ([`orthrus_durability::recover`]). Per-partition log order is
    /// epoch order (see the module docs), so independent replays
    /// reconstruct a cross-partition-consistent state for every
    /// fully-logged epoch.
    pub fn recover(
        dbs: &[Arc<Database>],
        cfg: &PartitionedConfig,
    ) -> std::io::Result<Vec<ReplayReport>> {
        let n = cfg.partitions();
        assert_eq!(dbs.len(), n, "one database per partition");
        let mut reports = Vec::with_capacity(n);
        for (i, db) in dbs.iter().enumerate() {
            let dir = cfg.engine_for(i).log_dir.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "recovery requires a log_dir base",
                )
            })?;
            reports.push(orthrus_durability::recover(db, &dir)?);
        }
        Ok(reports)
    }
}

/// The running deployment: owns the sequencer thread (which in turn
/// owns every partition's [`EngineHandle`]).
pub struct PartitionedHandle {
    shared: Arc<PartShared>,
    map: PartitionMap,
    seq_thread: Option<std::thread::JoinHandle<Result<RunStats, EngineError>>>,
    stats: Option<RunStats>,
}

impl PartitionedHandle {
    /// A client handle; clone freely across submitter threads.
    pub fn session(&self) -> PartSession {
        PartSession {
            shared: Arc::clone(&self.shared),
            map: self.map.clone(),
        }
    }

    /// Global tickets accepted so far — the conservation ledger.
    pub fn accepted(&self) -> u64 {
        self.shared.accepted()
    }

    /// Move every available translated completion into `out`; returns
    /// how many. Tickets are the *global* ids [`PartSession::try_submit`]
    /// returned.
    pub fn drain_completions(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut fanin = self.shared.fanin();
        let n = fanin.len();
        out.append(&mut fanin);
        n
    }

    /// Shut down: fence submissions, let the sequencer flush the
    /// cross-partition backlog and drain every accepted ticket, then
    /// stop every partition engine and return the merged statistics
    /// (one [`orthrus_common::HubBreakdown`] per partition in
    /// [`RunStats::hub`]). Completions remain collectable via
    /// [`Self::drain_completions`] afterwards.
    pub fn shutdown(&mut self) -> RunStats {
        self.try_shutdown()
            .unwrap_or_else(|e| panic!("partitioned shutdown failed: {e}"))
    }

    /// [`Self::shutdown`], reporting a failure as a typed [`EngineError`]
    /// instead of panicking: the first member engine's that failed to
    /// shut down (every member is stopped and joined regardless), or
    /// [`EngineError::WorkerPanicked`] for the sequencer thread itself.
    pub fn try_shutdown(&mut self) -> Result<RunStats, EngineError> {
        if let Some(stats) = &self.stats {
            return Ok(stats.clone());
        }
        self.shared.accepting.store(false, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.bell.ring();
        let thread = self
            .seq_thread
            .take()
            .ok_or_else(|| EngineError::Failed("the partitioned handle is spent".to_string()))?;
        let stats = thread.join().map_err(|_| {
            EngineError::WorkerPanicked("partition sequencer thread panicked".to_string())
        })??;
        self.stats = Some(stats.clone());
        Ok(stats)
    }
}

impl Drop for PartitionedHandle {
    fn drop(&mut self) {
        if self.seq_thread.is_some() {
            let _ = self.try_shutdown();
        }
    }
}

/// One in-flight epoch at the barrier.
struct EpochInflight {
    /// Touched partitions still running their fused slice.
    outstanding: usize,
    /// Global tickets (and their enqueue instants, for latency) to
    /// complete when the barrier clears.
    globals: Vec<(u64, Instant)>,
}

/// The sequencer-and-pump thread: drains every partition's completions
/// (handing fast-path ones on under their global tickets), and runs the
/// epoch barrier for cross-partition batches.
struct Sequencer {
    shared: Arc<PartShared>,
    map: PartitionMap,
    handles: Vec<EngineHandle>,
    /// What each partition's drained completions were, as observed.
    ledgers: Vec<HubBreakdown>,
    epoch: u64,
    inflight: Option<EpochInflight>,
    max_batch: usize,
}

impl Sequencer {
    fn run(mut self) -> Result<RunStats, EngineError> {
        let mut drained: Vec<Completion> = Vec::new();
        // Set once no submitter is left inside `try_submit` after
        // `accepting` dropped: `next_global` is final from then on.
        let mut quiesced = false;
        let mut backoff = Backoff::new();
        loop {
            let mut progress = self.pump(&mut drained);

            // Barrier cleared? Emit the epoch's global completions and
            // release the next batch.
            if self.inflight.as_ref().is_some_and(|e| e.outstanding == 0) {
                let done = self.inflight.take().expect("checked above");
                let k = done.globals.len() as u64;
                let mut fanin = self.shared.fanin();
                fanin.extend(done.globals.iter().map(|(global, enqueued)| {
                    global_completion(*global, enqueued.elapsed().as_nanos() as u64)
                }));
                drop(fanin);
                self.shared.emitted.fetch_add(k, Ordering::SeqCst);
                progress = true;
            }
            if self.inflight.is_none() {
                let batch: Vec<XpEntry> = {
                    let mut q = self.shared.xp();
                    let k = q.len().min(self.max_batch);
                    q.drain(..k).collect()
                };
                if !batch.is_empty() {
                    self.release_epoch(batch, &mut drained);
                    progress = true;
                }
            }

            if self.shared.stop.load(Ordering::SeqCst) {
                // `stop` is raised after `accepting` drops, and a
                // submitter announces itself before it reads `accepting`:
                // one zero here means every later attempt is refused and
                // every earlier one has minted its ticket or given up.
                quiesced = quiesced || self.shared.submitting.load(Ordering::SeqCst) == 0;
                let done = quiesced
                    && self.inflight.is_none()
                    && self.shared.xp().is_empty()
                    && self.shared.emitted.load(Ordering::SeqCst) == self.shared.accepted();
                if done {
                    break;
                }
            }
            if progress {
                backoff.reset();
            } else {
                // Everything the next turn could act on: a member
                // engine's completions, queued cross-partition work once
                // no epoch is in flight, a stop request.
                backoff.snooze_on(&self.shared.bell, || {
                    self.handles.iter().any(EngineHandle::has_completions)
                        || (self.inflight.is_none() && !self.shared.xp().is_empty())
                        || (!quiesced && self.shared.stop.load(Ordering::SeqCst))
                });
            }
        }

        // Every global ticket is emitted; the member engines are idle.
        // Stop them and merge their statistics, one ledger per
        // partition.
        let mut merged: Option<RunStats> = None;
        let mut fail: Option<EngineError> = None;
        for (mut handle, ledger) in self.handles.into_iter().zip(self.ledgers) {
            match handle.try_shutdown() {
                Ok(stats) => {
                    let stats = stats.with_hub(ledger);
                    match &mut merged {
                        None => merged = Some(stats),
                        Some(m) => m.absorb(stats),
                    }
                }
                Err(e) => {
                    fail.get_or_insert(e);
                }
            };
        }
        match fail {
            Some(e) => Err(e),
            None => Ok(merged.expect("at least one partition")),
        }
    }

    /// Drain every member engine and observe what came out. Returns
    /// whether anything moved.
    fn pump(&mut self, drained: &mut Vec<Completion>) -> bool {
        let mut progress = false;
        for part in 0..self.handles.len() {
            drained.clear();
            if self.handles[part].drain_completions(drained) > 0 {
                self.observe(part, drained);
                progress = true;
            }
        }
        progress
    }

    /// One member engine's drained batch. A fused slice of the in-flight
    /// epoch is barrier bookkeeping; anything else is a fast-path
    /// submission, whose tag is the global ticket to emit — all of them
    /// under one `fanin` lock and one `emitted` bump.
    fn observe(&mut self, part: usize, batch: &[Completion]) {
        let ledger = &mut self.ledgers[part];
        let mut fanin = self.shared.fanin();
        let held = fanin.len();
        for c in batch {
            if c.client.is_none() {
                // Not ours: counted, and missing from `emitted` for good.
                ledger.unowned += 1;
                continue;
            }
            ledger.routed += 1;
            if c.tag != FUSED_TAG {
                fanin.push(global_completion(c.tag, c.latency_ns));
                continue;
            }
            // At most one epoch is in flight, so the slice is its.
            debug_assert!(
                self.inflight.is_some(),
                "fused slice with no epoch in flight"
            );
            if let Some(e) = &mut self.inflight {
                e.outstanding -= 1;
            }
        }
        let emitted = (fanin.len() - held) as u64;
        drop(fanin);
        self.shared.emitted.fetch_add(emitted, Ordering::SeqCst);
    }

    /// Slice `batch` per partition, stamp the next epoch number, and
    /// submit one fused program to every touched partition. The epoch
    /// is recorded in-flight *before* the first submission so slice
    /// completions arriving during the submit loop are matched.
    fn release_epoch(&mut self, batch: Vec<XpEntry>, drained: &mut Vec<Completion>) {
        self.epoch += 1;
        let n = self.handles.len();
        let mut parts: Vec<Vec<Program>> = vec![Vec::new(); n];
        let mut globals = Vec::with_capacity(batch.len());
        for entry in batch {
            for (p, s) in slice(&entry.program, &self.map) {
                parts[p].push(s);
            }
            globals.push((entry.global, entry.enqueued));
        }
        self.inflight = Some(EpochInflight {
            outstanding: 0,
            globals,
        });
        for (p, progs) in parts.into_iter().enumerate() {
            if progs.is_empty() {
                continue;
            }
            let mut program = Program::Fused {
                epoch: self.epoch,
                parts: progs,
            };
            // Retry on a full ingest ring, draining completions in
            // between so the partition can make room — the sequencer
            // must never wedge on backpressure it is itself the only
            // thread able to relieve.
            // Counted before the submit, so no pump can see the slice
            // complete first.
            self.inflight.as_mut().expect("just set").outstanding += 1;
            loop {
                match self.shared.sessions[p].try_submit_owned(program, SEQUENCER, || FUSED_TAG) {
                    Ok(_) => break,
                    Err(TrySubmitError::Full(back)) => {
                        program = back;
                        self.pump(drained);
                        if !orthrus_common::sim::on_park() {
                            std::thread::yield_now();
                        }
                    }
                    Err(TrySubmitError::Shutdown(_)) => {
                        unreachable!("member sessions outlive the sequencer loop")
                    }
                }
            }
        }
    }
}
