//! Admission: which transaction enters the engine next, and with what
//! plan.
//!
//! The seed inlined admission in the execution thread — generate a
//! program, plan its accesses, occupy an in-flight slot — which admits
//! hot-key transactions blindly: under high skew their waiters pile up in
//! CC queues, burning fabric round trips on lock requests that can only
//! serialize anyway. Prasaad et al. ("Improving High Contention OLTP
//! Performance via Transaction Scheduling") show that batching
//! transactions by *conflict class* before admission recovers much of
//! that loss.
//!
//! This module lifts admission into a pluggable policy layer:
//!
//! - [`AdmissionPolicy::Fifo`] reproduces the seed's admission order
//!   exactly (same generator stream, same planning RNG stream, one
//!   generate+plan per admission, runs of one) — proptest-pinned in
//!   `crate::proptests`.
//! - [`AdmissionPolicy::ConflictBatch`] plans each transaction **once at
//!   admission** and reuses the plan downstream, derives its conflict
//!   class from the **hottest key of the planned footprint** (a decaying
//!   frequency sketch over recent footprints; ties fall back to the
//!   pre-admission [`Program::hot_key_hint`]), and drains per-class run
//!   queues back-to-back — up to `batch` per class, round-robin across
//!   classes. A drained run is handed to the execution thread as one
//!   unit, which **serializes it locally**: the union of the run's
//!   footprints is acquired in a single fused round, the run executes
//!   back-to-back under it, and one release round frees it. The hot-key
//!   convoy that cost FIFO admission one fabric round trip per waiting
//!   transaction costs one per *run* instead.
//!
//! `ConflictBatch` is the engine's default. Ablation A6
//! (`abl06_admission`) measured the tradeoff at the default ceiling of
//! 64 in flight, closed loop, Zipf 10-RMW over 200 000 records, on two
//! cores (EXPERIMENTS.md, "Batched admission at the default depth"). At
//! 1 CC + 3 exec threads a crossover is left: batching ties FIFO at
//! θ ≤ 0.3 (median batch/FIFO throughput 1.04 and 1.02 over seven runs),
//! loses at θ = 0.6 (median 0.91, 0.78–1.08, two runs of seven won) and
//! wins from θ = 0.9 on (1.48–2.37, every run). The depth rule is not
//! why: counting a fused grant as its run's transactions lets the
//! batched depth reach the ceiling there too, and that lowered batched
//! throughput at θ ≤ 0.3 with two and three exec threads. The default
//! flips anyway on the benchmark's workloads, service mode with one
//! execution thread each: three gain throughput, ×1.18–1.60, and no
//! median is worse than its bound (EXPERIMENTS.md, "Batched admission
//! is the default"). A transaction that arrives alone is a window of one
//! and so a run of one; its class queue round trip costs a fraction of
//! a microsecond that `examples/lone_txn.rs` does not resolve end to
//! end. `Fifo` stays the paper's admission and the seed pin, named where
//! that is what is measured.
//!
//! Starvation-freedom of `ConflictBatch` is structural: the admitter only
//! refills its run queues when **every** class queue is empty, and the
//! drain rotates round-robin with a per-class cap, so each refill window
//! is admitted in full — a saturated hot class can delay a cold class by
//! at most one window, never forever.

use std::collections::VecDeque;

use orthrus_common::{fx_hash_u64, Key, XorShift64};
use orthrus_txn::{plan_accesses_into, Database, Plan, Program};

use crate::source::{Reply, TxnSource};

/// Default conflict-class count for [`AdmissionPolicy::ConflictBatch`]:
/// enough classes that distinct hot keys rarely collide, few enough that
/// the per-class batches stay deep at a refill window of
/// `classes × batch`.
pub const DEFAULT_CONFLICT_CLASSES: usize = 8;

/// Default per-class drain batch for [`AdmissionPolicy::ConflictBatch`],
/// and the floor an execution thread's in-flight cap never walks below
/// (`min(max_inflight, DEFAULT_CLASS_BATCH)`). A run is clipped only to
/// the headroom under the ceiling, `max_inflight − inflight`, not under
/// the cap: at the default ceiling of 64 a class's run can fuse its full
/// batch while the cap sits at its floor. Deeper batches amortize more
/// round trips per fused run under contention.
pub const DEFAULT_CLASS_BATCH: usize = 16;

/// How the engine admits transactions ([`crate::config::OrthrusConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// The seed's admission order: generate and plan one transaction per
    /// admission, in generator order.
    Fifo,
    /// Conflict-class batched admission (Prasaad et al.): plan at
    /// admission, bucket into `classes` run queues by the hottest
    /// footprint key, drain up to `batch` same-class transactions
    /// back-to-back before rotating to the next class. Drained runs are
    /// serialized locally by the execution thread under one fused lock
    /// acquisition.
    ConflictBatch {
        /// Number of conflict classes (run queues); must be ≥ 1.
        classes: usize,
        /// Back-to-back admissions per class before rotating; must be ≥ 1.
        batch: usize,
    },
}

impl AdmissionPolicy {
    /// `ConflictBatch` with the default class/batch shape.
    pub fn conflict_batch() -> Self {
        AdmissionPolicy::ConflictBatch {
            classes: DEFAULT_CONFLICT_CLASSES,
            batch: DEFAULT_CLASS_BATCH,
        }
    }

    /// The most transactions this policy can hold *planned and queued*
    /// inside the admitter (outside any ring, before occupying in-flight
    /// slots): one refill window for `ConflictBatch`, zero for
    /// `Fifo`. Service mode sizes its completion rings from this bound —
    /// everything accepted can sit in the ingest ring, the admission
    /// queues, or an in-flight slot, and all of it may complete before a
    /// client drains.
    pub fn max_queued_window(&self) -> usize {
        match *self {
            AdmissionPolicy::Fifo => 0,
            AdmissionPolicy::ConflictBatch { classes, batch } => classes * batch,
        }
    }

    /// Reject degenerate shapes. Called by `OrthrusConfig::validate` at
    /// engine construction and by the `FromStr` env parser, so both paths
    /// refuse the same configurations.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AdmissionPolicy::Fifo => Ok(()),
            AdmissionPolicy::ConflictBatch { classes, batch } => {
                if *classes == 0 || *batch == 0 {
                    return Err(format!(
                        "ConflictBatch needs classes ≥ 1 and batch ≥ 1, got {classes}/{batch}"
                    ));
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::Fifo => write!(f, "fifo"),
            AdmissionPolicy::ConflictBatch { classes, batch } => {
                write!(f, "batch:{classes}:{batch}")
            }
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    /// Parse the harness's `ORTHRUS_ADMISSION` syntax: `fifo`, `batch`
    /// (default shape) or `batch:<classes>:<batch>`.
    fn from_str(s: &str) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {what} {v:?}"))
        }
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["fifo"] => Ok(AdmissionPolicy::Fifo),
            ["batch" | "conflict-batch"] => Ok(AdmissionPolicy::conflict_batch()),
            ["batch" | "conflict-batch", c, b] => {
                let policy = AdmissionPolicy::ConflictBatch {
                    classes: num("class count", c)?,
                    batch: num("batch size", b)?,
                };
                // The one validator, so env parsing rejects what the
                // engine would.
                policy.validate().map(|()| policy)
            }
            _ => Err(format!(
                "unknown admission policy {s:?}; expected fifo | batch | batch:<classes>:<batch>"
            )),
        }
    }
}

/// One admitted transaction: the program plus the plan produced at
/// admission. The plan travels with the transaction — lock-plan
/// construction and execution reuse it instead of re-planning.
pub struct Admitted {
    pub program: Program,
    pub plan: Plan,
    /// The client ticket and return address riding this transaction
    /// (`None` for synthetic work). Completed — once, exactly — when the
    /// transaction commits, surviving OLLP retries.
    pub reply: Option<Reply>,
    /// Latency clock start: client submission time for sourced work,
    /// generation time for synthetic work. Commit latency is measured
    /// from here, so time spent queued in an ingest ring or a
    /// conflict-class run queue counts toward latency
    /// (FIFO-vs-ConflictBatch latency comparisons stay honest).
    pub started: std::time::Instant,
}

/// A tiny decaying frequency sketch over lock-space keys: which keys have
/// been hot in the recently planned footprints. Lets the classifier pick
/// the *hottest* key of a footprint even when the workload's skew is not
/// positional (scrambled-Zipfian popularity scatters hot keys anywhere in
/// the key space). Counters are hashed (no key set is materialized) and
/// halve periodically so the sketch tracks workload drift.
///
/// Decay is **boundary-clocked**: [`Self::observe`] only counts, and
/// [`Self::decay_tick`] halves the counters when due. The admitter calls
/// the tick exclusively at the refill boundary, so a refill window is
/// always observed and classified against one sketch state, and a decay
/// can never land mid-classification of a drained run.
struct HotSketch {
    counts: Box<[u32; Self::LEN]>,
    observed: u32,
}

impl HotSketch {
    /// Counter-array length (power of two; collisions just merge classes,
    /// which the `% classes` projection does anyway).
    const LEN: usize = 1024;
    /// Halve every counter at the first window boundary after this many
    /// observations.
    const DECAY_EVERY: u32 = 8192;

    fn new() -> Self {
        HotSketch {
            counts: Box::new([0; Self::LEN]),
            observed: 0,
        }
    }

    #[inline]
    fn slot(key: Key) -> usize {
        fx_hash_u64(key) as usize & (Self::LEN - 1)
    }

    #[inline]
    fn observe(&mut self, key: Key) {
        let c = &mut self.counts[Self::slot(key)];
        *c = c.saturating_add(1);
        self.observed = self.observed.saturating_add(1);
    }

    /// Halve every counter if enough observations have accumulated.
    /// Call only at the refill boundary (see the type docs).
    fn decay_tick(&mut self) {
        if self.observed >= Self::DECAY_EVERY {
            self.observed = 0;
            for c in self.counts.iter_mut() {
                *c >>= 1;
            }
        }
    }

    #[inline]
    fn hotness(&self, key: Key) -> u32 {
        self.counts[Self::slot(key)]
    }
}

/// Per-class run queues for `ConflictBatch`.
struct RunQueues {
    queues: Vec<VecDeque<Admitted>>,
    /// Class currently draining.
    cursor: usize,
    /// Admissions left in the current class's back-to-back batch.
    budget: usize,
    /// Per-class drain cap.
    batch: usize,
    /// Total queued transactions across all classes.
    queued: usize,
    /// Which keys have been hot recently (feeds classification).
    sketch: HotSketch,
}

/// One execution thread's admission state: the transaction source
/// (synthetic generator or client ingest ring — see [`crate::source`]),
/// the planning RNG (the OLLP reconnaissance noise stream), and any
/// policy queues. Owned by the thread — admission is thread-local,
/// exactly like the seed's inlined path. Generic over the source so the
/// hot admission path monomorphizes (no per-transaction dispatch).
pub struct Admitter<S: TxnSource> {
    source: S,
    plan_rng: XorShift64,
    /// OLLP estimate noise applied to admission-time planning; retries
    /// always re-plan with the corrected (noise-free) estimate.
    noise: u32,
    run_queues: Option<RunQueues>,
    /// Plans of committed transactions and the emptied vectors of
    /// finished runs, handed back by the execution thread
    /// ([`Self::recycle_plan`], [`Self::recycle_run`]): the next admission
    /// plans into one and fills the other. Oldest first, so that every
    /// buffer in circulation is used equally often and they all reach the
    /// capacity of the workload's largest footprint together.
    spare_plans: VecDeque<Plan>,
    spare_runs: VecDeque<Vec<Admitted>>,
}

impl<S: TxnSource> Admitter<S> {
    /// Build the admission state for execution thread `exec_id`.
    ///
    /// The planning RNG is seeded exactly as the seed's `ExecThread` was,
    /// so `Fifo` admission over a [`crate::source::SyntheticSource`]
    /// reproduces the seed's program and plan streams bit for bit.
    pub fn new(policy: &AdmissionPolicy, source: S, seed: u64, exec_id: u16, noise: u32) -> Self {
        let run_queues = match *policy {
            AdmissionPolicy::Fifo => None,
            AdmissionPolicy::ConflictBatch { classes, batch } => {
                assert!(classes >= 1 && batch >= 1, "validated by OrthrusConfig");
                Some(RunQueues {
                    queues: (0..classes).map(|_| VecDeque::new()).collect(),
                    cursor: 0,
                    budget: batch,
                    batch,
                    queued: 0,
                    sketch: HotSketch::new(),
                })
            }
        };
        Admitter {
            source,
            plan_rng: XorShift64::for_thread(seed ^ 0x6578_6563, exec_id as usize),
            noise,
            run_queues,
            spare_plans: VecDeque::new(),
            spare_runs: VecDeque::new(),
        }
    }

    /// Admit the next transaction (pulling and planning as the policy
    /// dictates). `None` when the source is currently dry (a client
    /// ingest ring with nothing submitted); synthetic sources always
    /// admit.
    pub fn next(&mut self, db: &Database) -> Option<Admitted> {
        self.next_run(db, 1).pop()
    }

    /// Admit the next *run*: up to `max` same-class transactions drained
    /// back-to-back, meant to be serialized locally by the execution
    /// thread under one fused lock acquisition. `Fifo` always returns a
    /// single transaction (the seed admitted one acquisition chain per
    /// transaction); `ConflictBatch` returns the current class's next
    /// `min(max, batch budget)` queued transactions. **Empty** exactly
    /// when the source has nothing to admit (client ring dry) and no
    /// backlog is queued.
    pub fn next_run(&mut self, db: &Database, max: usize) -> Vec<Admitted> {
        debug_assert!(max >= 1);
        match self.run_queues {
            None => self.next_single(db),
            Some(_) => self.next_run_batched(db, max),
        }
    }

    /// Pull one transaction and plan it, into the plan of a transaction
    /// that committed. `None` when the source is dry.
    fn pull_planned(&mut self, db: &Database) -> Option<Admitted> {
        let sourced = self.source.pull()?;
        let mut plan = self.spare_plans.pop_front().unwrap_or_default();
        plan_accesses_into(
            &sourced.program,
            db,
            self.noise,
            &mut self.plan_rng,
            &mut plan,
        );
        Some(Admitted {
            program: sourced.program,
            plan,
            reply: sourced.reply,
            started: sourced.started,
        })
    }

    /// The seed's admission step: pull one, plan one. Empty when the
    /// source is dry.
    fn next_single(&mut self, db: &Database) -> Vec<Admitted> {
        let Some(admitted) = self.pull_planned(db) else {
            return Vec::new();
        };
        let mut run = self.spare_runs.pop_front().unwrap_or_default();
        run.push(admitted);
        run
    }

    /// Re-plan after an OLLP mismatch with the corrected (noise-free)
    /// estimate, continuing the same planning RNG stream the seed used.
    /// The new plan overwrites the wrong one, in its buffer.
    pub fn replan(&mut self, txn: &mut Admitted, db: &Database) {
        plan_accesses_into(&txn.program, db, 0, &mut self.plan_rng, &mut txn.plan);
    }

    /// Take back the plan of a transaction that committed.
    pub fn recycle_plan(&mut self, plan: Plan) {
        self.spare_plans.push_back(plan);
    }

    /// Take back the vector of a run whose transactions have all left it.
    pub fn recycle_run(&mut self, run: Vec<Admitted>) {
        debug_assert!(run.is_empty(), "a recycled run has been drained");
        self.spare_runs.push_back(run);
    }

    /// Transactions planned and queued but not yet admitted (always 0 for
    /// `Fifo`).
    /// They hold no locks and no slots. At shutdown, synthetic backlog is
    /// simply dropped; ticketed backlog is drained first (see
    /// [`Self::drain_on_stop`]).
    pub fn queued(&self) -> usize {
        self.run_queues.as_ref().map_or(0, |rq| rq.queued)
    }

    /// Whether undelivered work exists: queued transactions or source
    /// input. Drives the shutdown drain for client sources.
    pub fn has_backlog(&self) -> bool {
        self.queued() > 0 || self.source.has_pending()
    }

    /// The source's shutdown contract (see [`TxnSource::drain_on_stop`]):
    /// `true` means the execution thread must keep admitting after a stop
    /// request until [`Self::has_backlog`] clears — every accepted client
    /// ticket is owed a completion.
    pub fn drain_on_stop(&self) -> bool {
        self.source.drain_on_stop()
    }

    fn next_run_batched(&mut self, db: &Database, max: usize) -> Vec<Admitted> {
        if self.queued() == 0 {
            self.refill(db);
            if self.queued() == 0 {
                // Source dry (client ring empty): nothing to admit, and
                // the rotation below must not spin on empty queues.
                return Vec::new();
            }
        }
        let rq = self.run_queues.as_mut().expect("batched policy");
        // Drain the current class back-to-back up to its batch budget,
        // then rotate. `queued > 0` guarantees the rotation terminates.
        loop {
            if rq.budget > 0 && !rq.queues[rq.cursor].is_empty() {
                let take = rq.budget.min(max).min(rq.queues[rq.cursor].len());
                let mut run = self.spare_runs.pop_front().unwrap_or_default();
                run.extend(rq.queues[rq.cursor].drain(..take));
                rq.budget -= take;
                rq.queued -= take;
                return run;
            }
            rq.cursor = (rq.cursor + 1) % rq.queues.len();
            rq.budget = rq.batch;
        }
    }

    /// Pull and plan one refill window (up to `classes × batch`
    /// transactions — fewer if the source runs dry mid-window) and bucket
    /// it into the class queues. Planning happens here, once — the plans
    /// ride the queues to execution.
    fn refill(&mut self, db: &Database) {
        // Out of `self` for the loop: pulling borrows the whole admitter.
        let mut rq = self.run_queues.take().expect("batched policy");
        // The sketch decays on the window clock, here: never mid-window.
        rq.sketch.decay_tick();
        let window = rq.queues.len() * rq.batch;
        for _ in 0..window {
            let Some(admitted) = self.pull_planned(db) else {
                break;
            };
            for &(k, _) in admitted.plan.accesses.entries() {
                rq.sketch.observe(k);
            }
            let class = conflict_class(
                &admitted.program,
                &admitted.plan,
                &rq.sketch,
                rq.queues.len(),
            );
            rq.queues[class].push_back(admitted);
            rq.queued += 1;
        }
        self.run_queues = Some(rq);
    }
}

/// The conflict class of a planned transaction: the **hottest key of the
/// planned footprint**, hashed onto the class space. Hotness comes from
/// the admitter's frequency sketch over recent footprints, so positional
/// skew (hot/cold generators put hot keys first) and popularity skew
/// (scrambled Zipf scatters them anywhere) both classify correctly; ties
/// — e.g. a cold sketch right after startup — fall back to the
/// pre-admission hint ([`Program::hot_key_hint`]).
fn conflict_class(program: &Program, plan: &Plan, sketch: &HotSketch, classes: usize) -> usize {
    let hint = program.hot_key_hint();
    let entries = plan.accesses.entries();
    let key = match entries.first() {
        None => hint.unwrap_or(0),
        Some(&(first, _)) => {
            let mut best = first;
            let mut best_h = sketch.hotness(first);
            for &(k, _) in &entries[1..] {
                let h = sketch.hotness(k);
                if h > best_h || (h == best_h && Some(k) == hint) {
                    best = k;
                    best_h = h;
                }
            }
            best
        }
    };
    (fx_hash_u64(key) % classes as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SyntheticSource;
    use orthrus_storage::Table;
    use orthrus_workload::{MicroSpec, Spec};

    fn flat(n: usize) -> Database {
        Database::Flat(Table::new(n, 64))
    }

    fn keys_of(p: &Program) -> Vec<u64> {
        match p {
            Program::ReadOnly { keys } | Program::Rmw { keys } => keys.clone(),
            _ => panic!("micro workloads yield key programs"),
        }
    }

    /// Sorted multiset fingerprint of a window of programs.
    fn fingerprint(ps: &[Program]) -> Vec<Vec<u64>> {
        let mut v: Vec<Vec<u64>> = ps.iter().map(keys_of).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn fifo_admits_in_generator_order() {
        let spec = MicroSpec::uniform(256, 4, false);
        let db = flat(256);
        let mut admit = Admitter::new(
            &AdmissionPolicy::Fifo,
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(9, 1)),
            9,
            1,
            0,
        );
        let mut reference = spec.generator(9, 1);
        for _ in 0..64 {
            let a = admit.next(&db).expect("synthetic sources always admit");
            assert_eq!(a.program, reference.next_program());
            assert_eq!(admit.queued(), 0, "fifo never queues ahead");
        }
    }

    #[test]
    fn conflict_batch_windows_conserve_the_generator_stream() {
        // Every refill window must be admitted as a permutation of the
        // corresponding generation window: nothing is dropped, nothing
        // starves, even with a hot class that dominates the stream.
        let spec = MicroSpec::hot_cold(1024, 4, 2, 4, false);
        let policy = AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        };
        let db = flat(1024);
        let mut admit = Admitter::new(
            &policy,
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(7, 0)),
            7,
            0,
            0,
        );
        let mut reference = spec.generator(7, 0);
        let window = 4 * 8;
        let mut reordered_somewhere = false;
        for _ in 0..4 {
            let admitted: Vec<Program> = (0..window)
                .map(|_| admit.next(&db).expect("synthetic").program)
                .collect();
            let generated: Vec<Program> = (0..window).map(|_| reference.next_program()).collect();
            reordered_somewhere |= admitted != generated;
            assert_eq!(
                fingerprint(&admitted),
                fingerprint(&generated),
                "window must be a permutation of the generator stream"
            );
            assert_eq!(admit.queued(), 0, "window fully drained before refill");
        }
        assert!(reordered_somewhere, "class batching must actually reorder");
    }

    #[test]
    fn conflict_batch_drains_back_to_back_runs() {
        // With 4 distinct hot keys leading each transaction, admissions
        // come out in same-class runs (bounded by the batch cap), not in
        // generator interleaving.
        let spec = MicroSpec::hot_cold(1024, 4, 1, 3, false);
        let policy = AdmissionPolicy::ConflictBatch {
            classes: 8,
            batch: 4,
        };
        let db = flat(1024);
        let mut admit = Admitter::new(
            &policy,
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(3, 0)),
            3,
            0,
            0,
        );
        let window = 8 * 4;
        // A fresh (all-zero) sketch classifies by the pre-admission hint,
        // which for hot/cold programs is the same hot key the admitter's
        // evolving sketch converges on.
        let fresh = HotSketch::new();
        let classes: Vec<usize> = (0..window)
            .map(|_| {
                let a = admit.next(&db).expect("synthetic sources always admit");
                conflict_class(&a.program, &a.plan, &fresh, 8)
            })
            .collect();
        let mut runs = Vec::new();
        let mut len = 1;
        for w in classes.windows(2) {
            if w[0] == w[1] {
                len += 1;
            } else {
                runs.push(len);
                len = 1;
            }
        }
        runs.push(len);
        let avg = window as f64 / runs.len() as f64;
        assert!(
            avg > 1.5,
            "same-class admissions must clump: runs {runs:?} (avg {avg:.2})"
        );
    }

    #[test]
    fn saturated_single_class_never_livelocks() {
        // Every transaction is the same single hot key: one class holds
        // the whole window, and the rotation must keep re-granting its
        // batch budget rather than spinning on empty siblings.
        let spec = MicroSpec::hot_cold(64, 1, 1, 1, false);
        let policy = AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 2,
        };
        let db = flat(64);
        let mut admit = Admitter::new(
            &policy,
            SyntheticSource::new(Spec::Micro(spec).generator(1, 0)),
            1,
            0,
            0,
        );
        for _ in 0..64 {
            let a = admit.next(&db).expect("synthetic sources always admit");
            assert_eq!(keys_of(&a.program), vec![0], "the one hot key");
        }
    }

    #[test]
    fn replan_uses_corrected_estimates() {
        // replan must not re-apply admission noise (noise only perturbs
        // TPC-C reconnaissance, but the contract is policy-independent).
        let db = flat(128);
        let mut admit = Admitter::new(
            &AdmissionPolicy::Fifo,
            SyntheticSource::new(Spec::Micro(MicroSpec::uniform(128, 2, false)).generator(2, 0)),
            2,
            0,
            50,
        );
        let mut a = admit.next(&db).expect("synthetic sources always admit");
        let admitted_with = a.plan.clone();
        admit.replan(&mut a, &db);
        assert_eq!(a.plan.accesses, admitted_with.accesses);
    }

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!("fifo".parse(), Ok(AdmissionPolicy::Fifo));
        assert_eq!("batch".parse(), Ok(AdmissionPolicy::conflict_batch()));
        assert_eq!(
            "batch:4:32".parse(),
            Ok(AdmissionPolicy::ConflictBatch {
                classes: 4,
                batch: 32
            })
        );
        assert_eq!(
            "conflict-batch".parse(),
            Ok(AdmissionPolicy::conflict_batch())
        );
        for bad in ["", "lifo", "batch:0:4", "batch:4:0", "batch:x:y", "batch:1"] {
            assert!(bad.parse::<AdmissionPolicy>().is_err(), "{bad:?}");
        }
        // The deleted adaptive policy is refused, naming what is accepted.
        for stale in ["adaptive", "adaptive:80:2:128"] {
            let err = stale.parse::<AdmissionPolicy>().unwrap_err();
            assert!(
                err.contains("fifo | batch | batch:<classes>:<batch>"),
                "{stale:?}: {err}"
            );
        }
        for p in [
            AdmissionPolicy::Fifo,
            AdmissionPolicy::conflict_batch(),
            AdmissionPolicy::ConflictBatch {
                classes: 3,
                batch: 7,
            },
        ] {
            assert_eq!(p.to_string().parse(), Ok(p.clone()));
        }
    }

    // ---- Sketch decay clock ------------------------------------------

    #[test]
    fn sketch_decays_only_on_the_boundary_tick() {
        let mut s = HotSketch::new();
        let n = HotSketch::DECAY_EVERY + 100;
        for _ in 0..n {
            s.observe(42);
        }
        // Quota exceeded, but no boundary tick yet: counters intact.
        assert_eq!(s.hotness(42), n);
        s.decay_tick();
        assert_eq!(s.hotness(42), n / 2, "the boundary tick halves");
        // A tick before the next quota is a no-op.
        s.observe(42);
        let h = s.hotness(42);
        s.decay_tick();
        assert_eq!(s.hotness(42), h);
    }

    #[test]
    fn sketch_decay_waits_for_the_refill_boundary() {
        // Prime the sketch just under the decay quota, then admit one
        // full ConflictBatch window: the quota is crossed *mid-window*,
        // but the halving must wait for the next refill boundary so the
        // whole window is classified against one sketch state.
        let spec = MicroSpec::hot_cold(1024, 4, 2, 4, false);
        let policy = AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 8,
        };
        let db = flat(1024);
        let mut admit = Admitter::new(
            &policy,
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(5, 0)),
            5,
            0,
            0,
        );
        let hot_before = {
            let rq = admit.run_queues.as_mut().expect("batched policy");
            for _ in 0..HotSketch::DECAY_EVERY - 8 {
                rq.sketch.observe(7);
            }
            rq.sketch.hotness(7)
        };
        let window = 4 * 8;
        for i in 0..window {
            admit.next(&db).expect("synthetic");
            let h = admit.run_queues.as_ref().unwrap().sketch.hotness(7);
            assert!(h >= hot_before, "decay mid-window at admission {i}");
        }
        assert_eq!(admit.queued(), 0);
        // The next admission refills — the boundary tick halves first.
        admit.next(&db).expect("synthetic");
        let h = admit.run_queues.as_ref().unwrap().sketch.hotness(7);
        assert!(h < hot_before, "the refill boundary must apply the decay");
    }
}
