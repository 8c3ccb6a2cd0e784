//! ORTHRUS engine configuration.

use std::path::PathBuf;

use orthrus_common::affinity::Placement;
use orthrus_common::Key;
use orthrus_durability::{DurabilityMode, SyncInterval};
use orthrus_txn::Database;

use crate::admit::AdmissionPolicy;

/// How lockable keys map to CC threads ("ORTHRUS partitions
/// responsibility for database objects across concurrency control threads
/// such that each database object is controlled by a single thread").
///
/// Both mappings are fixed, so under skew the CC thread that owns the hot
/// keys does more of the work. The paper leaves that to "prior
/// techniques" (Section 3.3) and builds no planner; neither does this
/// engine. `figures ext04` measures what Zipfian skew costs the modulo
/// mapping against the shared-table baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcAssignment {
    /// `key % n_cc` — the flat-keyspace experiments. Aligned with the
    /// workload generators' partition constraints and with the SPLIT
    /// variant's index partitions.
    KeyModulo,
    /// `warehouse(key) % n_cc` — TPC-C ("partitions database tables across
    /// concurrency control threads based on each row's warehouse_id
    /// attribute", Section 4.4).
    Warehouse,
}

/// Engine shape and tuning.
#[derive(Debug, Clone)]
pub struct OrthrusConfig {
    /// Concurrency-control thread count.
    pub n_cc: usize,
    /// Execution thread count.
    pub n_exec: usize,
    /// Key → CC mapping.
    pub assignment: CcAssignment,
    /// Ceiling of the in-flight transactions per execution thread (the
    /// asynchrony depth of Section 3.3). The depth itself walks between
    /// `min(max_inflight, DEFAULT_CLASS_BATCH)` and this ceiling, driven
    /// by how many grants waited for a lock (DESIGN.md, "How deep the
    /// pipeline is"); at 16 or less it is fixed. At most 65 536: a slot
    /// index is a `u16`.
    pub max_inflight: usize,
    /// CC→CC forwarding (Section 3.3). Disable for the `Ncc+1` vs `2·Ncc`
    /// ablation.
    pub forwarding: bool,
    /// OLLP estimate noise (see `orthrus_txn::plan_accesses`).
    pub ollp_noise_pct: u32,
    /// Override the exec→CC ring capacity (ablation A2). Only this ring
    /// may be shrunk safely: an execution thread blocked on a full input
    /// ring of a *live, draining* CC thread always makes progress, whereas
    /// undersized CC→CC rings could deadlock mutually-blocked CC threads.
    pub exec_queue_capacity: Option<usize>,
    /// Message-fabric batching degree (ablation A5). Execution threads
    /// buffer up to this many requests per destination CC thread before
    /// flushing them as one slice (one atomic publish); CC threads drain
    /// up to this many requests per poll round and coalesce the round's
    /// outgoing grants/forwards per destination into one flush.
    ///
    /// `1` reproduces the seed's message-per-message semantics exactly
    /// (every send publishes immediately), which keeps an apples-to-apples
    /// ablation baseline. Buffered messages are always flushed before the
    /// thread polls or parks, so batching never delays a message behind an
    /// idle quantum. Must be ≥ 1: a zero would make every drain round a
    /// no-op (livelock), so [`Self::validate`] refuses it.
    pub flush_threshold: usize,
    /// Capacity of each per-execution-thread client ingest ring in
    /// service mode ([`crate::OrthrusEngine::start`]); rounded up to a
    /// power of two by the ring. Bounded by design: a full ring is
    /// backpressure (`TrySubmitError::Full`) — the open-loop submission
    /// API never queues unboundedly inside the engine. Completion rings
    /// are sized from this plus the admission policy's queue window and
    /// the in-flight cap, so a draining client can never wedge the
    /// engine.
    pub ingest_capacity: usize,
    /// Admission scheduling policy (ablation A6), one of two. The
    /// default, [`AdmissionPolicy::conflict_batch`], batches transactions
    /// by conflict class before admission (Prasaad et al.): it plans each
    /// transaction once at admission, drains per-class run queues
    /// back-to-back, and each drained run takes one fused lock round; a
    /// transaction that arrives alone is a run of one. `Fifo` is the
    /// paper's and the seed's admission order, one lock round per
    /// transaction: the paper figures, the seed-semantics pins and the
    /// FIFO ablation cells name it (DESIGN.md, "Batched admission is the
    /// default").
    pub admission: AdmissionPolicy,
    /// Durability (`ORTHRUS_DURABILITY` in the harness): `Off` is the
    /// paper's main-memory-only semantics; `Log` appends one command-log
    /// record per fused admission run before the run's locks and
    /// completions are released; `LogFsync` additionally fsyncs per
    /// record, so a delivered completion implies a durable commit. Any
    /// mode other than `Off` requires [`Self::log_dir`].
    pub durability: DurabilityMode,
    /// Command-log directory when durability is on. The engine appends to
    /// an existing clean log; recovery (`OrthrusEngine::recover`) replays
    /// and repairs it first.
    pub log_dir: Option<PathBuf>,
    /// Fsync scheduling under `LogFsync` (`ORTHRUS_SYNC_INTERVAL` in the
    /// harness): `PerRun` = every exec thread fsyncs its own appends
    /// inline (durability rung 1); `Adaptive` (default) = the
    /// cross-thread group-sync coordinator coalesces all
    /// outstanding appends into one fsync and exec threads release
    /// completions at or below the synced watermark. Ignored unless
    /// `durability == LogFsync`.
    pub sync_interval: SyncInterval,
    /// Fuzzy-checkpoint trigger (`ORTHRUS_CHECKPOINT` in the harness):
    /// take a checkpoint every this many appended log bytes; `None`
    /// disables the checkpointer thread. Ignored when durability is off.
    pub checkpoint_bytes: Option<u64>,
    /// Prefix for the names this engine's threads run under and enroll
    /// with the deterministic-simulation scheduler (`cc0`, `exec1`,
    /// `sync`, ...; the list is [`Self::thread_names`]).
    /// Empty for a standalone engine; a partitioned deployment gives
    /// each member engine a distinct prefix (`p0.`, `p1.`, ...) so N
    /// engines under one seeded scheduler don't collide on names.
    pub sim_prefix: String,
    /// Which engine of its deployment this is, which decides the cores
    /// its CC and execution threads pin to ([`Placement`]). A standalone
    /// engine is the whole deployment ([`Placement::ALONE`]); a
    /// partitioned deployment numbers its member engines, so that no two
    /// partitions stack their threads on the same cores.
    pub placement: Placement,
}

/// A thread that runs beside the workers when the command log is on: the
/// group-fsync coordinator, or the checkpointer (one checkpoint every
/// `every` appended log bytes).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Companion {
    Sync,
    Checkpointer { every: u64 },
}

/// Default fabric batching degree: deep enough to amortize the
/// `head`/`tail` cache-line round trips, shallow enough that one round's
/// flush always fits the steady-state ring-capacity bounds.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 16;

/// Default per-execution-thread client ingest ring capacity (service
/// mode): deep enough that an offered-load driver rarely backpressures
/// below engine capacity, shallow enough that the post-shutdown drain
/// tail stays bounded and submit→commit latency reflects engine queueing
/// rather than an unbounded buffer.
pub const DEFAULT_INGEST_CAPACITY: usize = 256;

/// Default in-flight ceiling per execution thread: four fabric batches.
/// Where grants wait, the depth stays at its floor of sixteen; where they
/// do not, the closed loop runs up to here instead of being batch-bound.
pub const DEFAULT_MAX_INFLIGHT: usize = 64;

/// The largest `max_inflight`: in-flight slots are `u16` indices.
const MAX_INFLIGHT_LIMIT: usize = 1 << 16;

impl OrthrusConfig {
    /// A paper-style configuration: given a total "core" budget, dedicate
    /// 1/5 of threads to concurrency control (the 16 CC / 64 exec split
    /// the paper uses at 80 cores) and the rest to execution.
    pub fn for_cores(total: usize, assignment: CcAssignment) -> Self {
        let n_cc = (total / 5).max(1);
        Self::with_threads(n_cc, (total - n_cc).max(1), assignment)
    }

    /// Explicit CC/exec split.
    pub fn with_threads(n_cc: usize, n_exec: usize, assignment: CcAssignment) -> Self {
        assert!(n_cc >= 1 && n_exec >= 1);
        OrthrusConfig {
            n_cc,
            n_exec,
            assignment,
            max_inflight: DEFAULT_MAX_INFLIGHT,
            forwarding: true,
            ollp_noise_pct: 0,
            exec_queue_capacity: None,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            ingest_capacity: DEFAULT_INGEST_CAPACITY,
            admission: AdmissionPolicy::conflict_batch(),
            durability: DurabilityMode::Off,
            log_dir: None,
            sync_interval: SyncInterval::default(),
            checkpoint_bytes: None,
            sim_prefix: String::new(),
            placement: Placement::ALONE,
        }
    }

    /// Enable command logging: `mode` governs the fsync policy, `dir`
    /// holds the segmented log.
    pub fn with_durability(mut self, mode: DurabilityMode, dir: impl Into<PathBuf>) -> Self {
        self.durability = mode;
        self.log_dir = Some(dir.into());
        self
    }

    /// Validate the engine shape. [`crate::OrthrusEngine::new`] rejects
    /// invalid configurations at construction — a zero thread count or
    /// in-flight cap would otherwise hang or starve silently at run time.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_cc == 0 {
            return Err("n_cc must be ≥ 1: no CC thread would own the lock space".into());
        }
        if self.n_exec == 0 {
            return Err("n_exec must be ≥ 1: no thread would run transactions".into());
        }
        if self.n_cc > u16::MAX as usize || self.n_exec > u16::MAX as usize {
            return Err(format!(
                "thread counts are u16 message-routing ids; got {} CC / {} exec",
                self.n_cc, self.n_exec
            ));
        }
        if self.max_inflight == 0 {
            return Err(
                "max_inflight must be ≥ 1: admission would never start a transaction".into(),
            );
        }
        if self.max_inflight > MAX_INFLIGHT_LIMIT {
            return Err(format!(
                "max_inflight must be ≤ {MAX_INFLIGHT_LIMIT}: in-flight slots are u16 \
                 indices; got {}",
                self.max_inflight
            ));
        }
        if self.flush_threshold == 0 {
            return Err(
                "flush_threshold must be ≥ 1: a zero batch would make every drain round a no-op"
                    .into(),
            );
        }
        if self.ingest_capacity == 0 {
            return Err(
                "ingest_capacity must be ≥ 1: a zero ring could never accept a submission".into(),
            );
        }
        if self.placement.partition >= self.placement.partitions {
            return Err(format!(
                "placement partition {} must be below its deployment's {} partitions",
                self.placement.partition, self.placement.partitions
            ));
        }
        self.admission.validate()?;
        if self.durability.is_on() && self.log_dir.is_none() {
            return Err(format!(
                "durability mode {} needs a log_dir (OrthrusConfig::with_durability)",
                self.durability
            ));
        }
        Ok(())
    }

    /// [`Self::validate`], then the checks that need the database the
    /// engine will serve: [`CcAssignment::Warehouse`] reads each key's
    /// warehouse from the TPC-C layout, so it is refused over any other
    /// database here rather than at the first plan on a CC route.
    pub fn validate_for(&self, db: &Database) -> Result<(), String> {
        self.validate()?;
        if self.assignment == CcAssignment::Warehouse && !matches!(db, Database::Tpcc(_)) {
            return Err(
                "assignment Warehouse needs a TPC-C database: it maps keys by warehouse".into(),
            );
        }
        Ok(())
    }

    /// Total thread (core) budget.
    pub fn total_threads(&self) -> usize {
        self.n_cc + self.n_exec
    }

    /// The durability companions an engine with this configuration runs
    /// beside its workers, in spawn order: the group-fsync coordinator
    /// under `log+fsync` with a group [`Self::sync_interval`], the
    /// checkpointer whenever the log is on and a cadence is set.
    pub(crate) fn companions(&self) -> impl Iterator<Item = Companion> {
        let sync = self.durability == DurabilityMode::LogFsync && self.sync_interval.is_group();
        let ckpt = self.checkpoint_bytes.filter(|_| self.durability.is_on());
        let ckpt = ckpt.map(|every| Companion::Checkpointer { every });
        sync.then_some(Companion::Sync).into_iter().chain(ckpt)
    }

    /// Every thread an engine with this configuration runs, by the name it
    /// runs under — its OS thread name and its sim-scheduler enrollment,
    /// behind [`Self::sim_prefix`]: the workers (`cc0…`, then `exec0…`)
    /// and the companions (`sync`, then `ckpt`, each only when it runs).
    /// Two lists, so that a driver enrolling beside the engine (the
    /// simulator's clients) can take its place between them.
    pub fn thread_names(&self) -> (Vec<String>, Vec<String>) {
        let prefix = &self.sim_prefix;
        let cc = (0..self.n_cc).map(|i| format!("{prefix}cc{i}"));
        let exec = (0..self.n_exec).map(|i| format!("{prefix}exec{i}"));
        let companions = self.companions().map(|c| match c {
            Companion::Sync => format!("{prefix}sync"),
            Companion::Checkpointer { .. } => format!("{prefix}ckpt"),
        });
        (cc.chain(exec).collect(), companions.collect())
    }

    /// Resolve the CC thread owning `key`.
    #[inline]
    pub fn cc_of(&self, db: &Database, key: Key) -> u32 {
        match &self.assignment {
            CcAssignment::KeyModulo => (key % self.n_cc as u64) as u32,
            CcAssignment::Warehouse => {
                let layout = &db.tpcc().layout;
                layout.warehouse_of(key) % self.n_cc as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orthrus_storage::tpcc::{TpccConfig, TpccDb};
    use orthrus_storage::Table;

    #[test]
    fn for_cores_keeps_paper_ratio() {
        let c = OrthrusConfig::for_cores(80, CcAssignment::KeyModulo);
        assert_eq!(c.n_cc, 16);
        assert_eq!(c.n_exec, 64);
        assert_eq!(c.total_threads(), 80);
        let c = OrthrusConfig::for_cores(5, CcAssignment::KeyModulo);
        assert_eq!((c.n_cc, c.n_exec), (1, 4));
    }

    #[test]
    fn validate_rejects_degenerate_shapes() {
        let good = OrthrusConfig::with_threads(2, 2, CcAssignment::KeyModulo);
        assert!(good.validate().is_ok());

        let mut c = good.clone();
        c.n_cc = 0;
        assert!(c.validate().unwrap_err().contains("n_cc"));

        let mut c = good.clone();
        c.n_exec = 0;
        assert!(c.validate().unwrap_err().contains("n_exec"));

        let mut c = good.clone();
        c.max_inflight = 0;
        assert!(c.validate().unwrap_err().contains("max_inflight"));

        let mut c = good.clone();
        c.n_exec = u16::MAX as usize + 1;
        assert!(c.validate().is_err());

        let mut c = good.clone();
        c.admission = AdmissionPolicy::ConflictBatch {
            classes: 0,
            batch: 16,
        };
        assert!(c.validate().unwrap_err().contains("ConflictBatch"));

        let mut c = good.clone();
        c.placement = Placement {
            partition: 2,
            partitions: 2,
        };
        assert!(c.validate().unwrap_err().contains("placement"));
    }

    /// The fabric never runs at a zero batch: the default is ≥ 1, and a
    /// zero is refused at validation, naming the field, instead of
    /// livelocking every drain round.
    #[test]
    fn effective_flush_threshold_never_zero() {
        let mut c = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        assert_eq!(c.flush_threshold, DEFAULT_FLUSH_THRESHOLD);
        assert!(c.flush_threshold >= 1 && c.validate().is_ok());
        c.flush_threshold = 0;
        assert!(c.validate().unwrap_err().contains("flush_threshold"));
        c.flush_threshold = 1;
        assert!(c.validate().is_ok(), "1 is per-message, the seed's fabric");
    }

    /// A slot index is a `u16`: 65 536 slots fit, one more does not, and
    /// the refusal names the field.
    #[test]
    fn validate_bounds_max_inflight_by_the_slot_index() {
        let mut c = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        assert_eq!(c.max_inflight, DEFAULT_MAX_INFLIGHT);
        c.max_inflight = 1 << 16;
        assert!(c.validate().is_ok());
        for too_deep in [(1 << 16) + 1, 70_000, usize::MAX] {
            c.max_inflight = too_deep;
            let why = c.validate().unwrap_err();
            assert!(why.contains("max_inflight"), "{why}");
            assert!(why.contains(&too_deep.to_string()), "{why}");
        }
    }

    #[test]
    fn key_modulo_assignment() {
        let c = OrthrusConfig::with_threads(4, 4, CcAssignment::KeyModulo);
        let db = Database::Flat(Table::new(16, 64));
        for k in 0..16u64 {
            assert_eq!(c.cc_of(&db, k), (k % 4) as u32);
        }
    }

    #[test]
    fn warehouse_assignment_groups_by_warehouse() {
        let c = OrthrusConfig::with_threads(2, 2, CcAssignment::Warehouse);
        let db = Database::Tpcc(TpccDb::load(TpccConfig::tiny(4), 1));
        let l = db.tpcc().layout;
        for w in 0..4u32 {
            let expected = w % 2;
            assert_eq!(c.cc_of(&db, l.warehouse_key(w)), expected);
            assert_eq!(c.cc_of(&db, l.district_key(w, 1)), expected);
            assert_eq!(c.cc_of(&db, l.customer_key(w, 1, 3)), expected);
            assert_eq!(c.cc_of(&db, l.stock_key(w, 9)), expected);
        }
    }
}
