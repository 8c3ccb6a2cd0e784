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
//! The tradeoff is deliberate and visible in ablation A6
//! (`abl06_admission`): under low skew the fused unions hold more locks
//! for longer than independent acquisitions and FIFO wins; past the
//! contention crossover the amortized round trips dominate and
//! `ConflictBatch` wins, increasingly with skew.
//!
//! Starvation-freedom of `ConflictBatch` is structural: the admitter only
//! refills its run queues when **every** class queue is empty, and the
//! drain rotates round-robin with a per-class cap, so each refill window
//! is admitted in full — a saturated hot class can delay a cold class by
//! at most one window, never forever.
//!
//! ## Adaptive admission ([`AdmissionPolicy::Adaptive`])
//!
//! Ablation A6 shows a clean crossover: FIFO wins at low skew,
//! `ConflictBatch` past it. Which side of the crossover a deployment sits
//! on is a property of the *observed* workload, so the third policy picks
//! online: it wraps both static policies and switches between them from a
//! contention signal collected on the hot path — every lock grant carries
//! the number of grant-deferral events (locks that had to wait) the
//! acquisition experienced, and the execution thread folds those into the
//! admitter's per-epoch counters ([`Admitter::note_lock_waits`]). Every
//! `epoch` admissions, [`AdaptiveController`] compares the epoch's
//! deferrals-per-100-admissions against a threshold with hysteresis
//! (promote to batching after `hysteresis` consecutive hot epochs, demote
//! after as many cold ones, hold inside the band between the promote and
//! demote thresholds) and, while batching, doubles the per-class batch
//! depth on a hot epoch and halves it on a cold one.
//!
//! Conservation across a live switch is structural: a demotion to FIFO
//! never drops the transactions still parked in class queues — they drain
//! first, one per admission in the same round-robin order (so the
//! per-class starvation cap keeps holding across the switch), and only
//! then does the admitter fall back to generate-one-admit-one.
//!
//! **Clocks.** The frequency sketch's decay and the adaptive epoch share
//! one boundary discipline: decay ticks only *between* admission windows
//! — at a `ConflictBatch` refill boundary, or at an `Adaptive` epoch
//! close — never while a window is being observed and classified, so
//! every refill window is classified against a single sketch state and a
//! drained run can never straddle a decay.

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

/// Default promote threshold for [`AdmissionPolicy::Adaptive`], in
/// grant-deferral events per 100 admissions. Calibrated on the A6/A7
/// sweeps under FIFO admission: scrambled-Zipf θ = 0.3 runs at ≈35/100
/// (below even the demote band at half this), θ = 0.6 — the crossover —
/// at ≈100, θ = 0.9 at ≈350. Sitting between the θ = 0.3 and θ = 0.6
/// rates keeps the low-skew side on FIFO and promotes from the crossover
/// up.
pub const DEFAULT_ADAPTIVE_THRESHOLD_PCT: u32 = 80;

/// Default hysteresis depth for [`AdmissionPolicy::Adaptive`]: how many
/// consecutive epochs must sit past the promote (or below the demote)
/// threshold before the policy switches.
pub const DEFAULT_ADAPTIVE_HYSTERESIS: u32 = 2;

/// Default adaptive epoch length, in admissions per execution thread.
/// Long enough that a deferrals-per-100-admissions rate is statistically
/// meaningful, short enough to react within a fraction of a measurement
/// window.
pub const DEFAULT_ADAPTIVE_EPOCH: u32 = 128;

/// The smallest batch depth while adaptively batching. Depth 1 fuses
/// nothing (it is FIFO with extra queues), so the controller enters
/// batching at 2 and doubles from there.
pub const ADAPTIVE_MIN_BATCH: usize = 2;

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
    /// Conflict-driven online policy switching: admit FIFO while the
    /// observed contention is low, promote to conflict-class batching
    /// while it is high (doubling the batch depth each epoch it stays so).
    /// The contention signal is the per-epoch count of grant-deferral
    /// events reported back with every lock grant; switching is governed
    /// by [`AdaptiveController`]'s hysteresis.
    Adaptive {
        /// Conflict classes used while batching; must be ≥ 1.
        classes: usize,
        /// Ceiling of the batch depth; must be ≥ 1.
        max_batch: usize,
        /// Promote when an epoch sees at least this many grant-deferral
        /// events per 100 admissions (demote below half of it); must be
        /// ≥ 1.
        threshold_pct: u32,
        /// Consecutive epochs past a threshold before switching; must be
        /// ≥ 1.
        hysteresis: u32,
        /// Epoch length in admissions; must be ≥ 2 (a 1-admission epoch
        /// makes the rate a 0-or-everything coin flip).
        epoch: u32,
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

    /// `Adaptive` with the default thresholds and shape.
    pub fn adaptive() -> Self {
        AdmissionPolicy::Adaptive {
            classes: DEFAULT_CONFLICT_CLASSES,
            max_batch: DEFAULT_CLASS_BATCH,
            threshold_pct: DEFAULT_ADAPTIVE_THRESHOLD_PCT,
            hysteresis: DEFAULT_ADAPTIVE_HYSTERESIS,
            epoch: DEFAULT_ADAPTIVE_EPOCH,
        }
    }

    /// The most transactions this policy can hold *planned and queued*
    /// inside the admitter (outside any ring, before occupying in-flight
    /// slots): one refill window for the batched policies, zero for
    /// `Fifo`. Service mode sizes its completion rings from this bound —
    /// everything accepted can sit in the ingest ring, the admission
    /// queues, or an in-flight slot, and all of it may complete before a
    /// client drains.
    pub fn max_queued_window(&self) -> usize {
        match *self {
            AdmissionPolicy::Fifo => 0,
            AdmissionPolicy::ConflictBatch { classes, batch } => classes * batch,
            AdmissionPolicy::Adaptive {
                classes, max_batch, ..
            } => classes * max_batch,
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
            AdmissionPolicy::Adaptive {
                classes,
                max_batch,
                threshold_pct,
                hysteresis,
                epoch,
            } => {
                if *classes == 0 || *max_batch == 0 {
                    return Err(format!(
                        "Adaptive needs classes ≥ 1 and max_batch ≥ 1, got {classes}/{max_batch}"
                    ));
                }
                if *threshold_pct == 0 {
                    return Err(
                        "Adaptive threshold_pct must be ≥ 1: a zero threshold marks every \
                         epoch hot and the policy degenerates to ConflictBatch"
                            .into(),
                    );
                }
                if *hysteresis == 0 {
                    return Err("Adaptive hysteresis must be ≥ 1: zero would switch before \
                         observing any epoch"
                        .into());
                }
                if *epoch < 2 {
                    return Err(format!(
                        "Adaptive epoch length must be ≥ 2, got {epoch}: a 1-admission \
                         epoch makes the conflict rate a 0-or-everything coin flip and the \
                         controller flaps on it"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// The hysteresis state machine behind [`AdmissionPolicy::Adaptive`]: a
/// **pure, deterministic** function of the epoch-counter sequence fed to
/// [`Self::observe_epoch`] — no clocks, no randomness — so a fixed
/// conflict-signal trace always produces the same policy-switch schedule
/// (proptest-pinned in `crate::proptests`).
///
/// Semantics per epoch, with `rate` = deferrals per 100 admissions:
///
/// - **hot** (`rate ≥ threshold_pct`): while FIFO, grow the promote
///   streak — `hysteresis` consecutive hot epochs promote to batching at
///   [`ADAPTIVE_MIN_BATCH`]. While batching, double the batch depth, up
///   to `max_batch`.
/// - **cold** (`rate < threshold_pct.div_ceil(2)`): while batching, halve
///   the depth (not below [`ADAPTIVE_MIN_BATCH`]) and grow the demote
///   streak — `hysteresis` consecutive cold epochs demote to FIFO. While
///   FIFO, nothing to do.
/// - **in the band between**: reset the active streak and hold — the
///   hysteresis band is what keeps a rate oscillating *at* the promote
///   threshold from flapping the policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveController {
    threshold_pct: u32,
    demote_pct: u32,
    hysteresis: u32,
    min_batch: usize,
    max_batch: usize,
    batching: bool,
    batch: usize,
    streak: u32,
    switches: u64,
}

impl AdaptiveController {
    /// Build a controller; parameters as in [`AdmissionPolicy::Adaptive`]
    /// (already validated by `OrthrusConfig::validate`). Starts in FIFO.
    pub fn new(threshold_pct: u32, hysteresis: u32, max_batch: usize) -> Self {
        assert!(
            threshold_pct >= 1 && hysteresis >= 1 && max_batch >= 1,
            "validated by OrthrusConfig"
        );
        let min_batch = ADAPTIVE_MIN_BATCH.min(max_batch);
        AdaptiveController {
            threshold_pct,
            demote_pct: threshold_pct.div_ceil(2),
            hysteresis,
            min_batch,
            max_batch,
            batching: false,
            batch: min_batch,
            streak: 0,
            switches: 0,
        }
    }

    /// Close one epoch: feed its counters, get back the (batching?, batch
    /// depth) to use for the next epoch.
    pub fn observe_epoch(&mut self, deferrals: u64, admitted: u64) -> (bool, usize) {
        debug_assert!(admitted > 0, "epochs close after ≥ 1 admission");
        let rate = deferrals.saturating_mul(100) / admitted.max(1);
        let hot = rate >= self.threshold_pct as u64;
        let cold = rate < self.demote_pct as u64;
        if self.batching {
            if hot {
                self.batch = self.batch.saturating_mul(2).min(self.max_batch);
                self.streak = 0;
            } else if cold {
                self.batch = (self.batch / 2).max(self.min_batch);
                self.streak += 1;
                if self.streak >= self.hysteresis {
                    self.batching = false;
                    self.batch = self.min_batch;
                    self.streak = 0;
                    self.switches += 1;
                }
            } else {
                self.streak = 0;
            }
        } else if hot {
            self.streak += 1;
            if self.streak >= self.hysteresis {
                self.batching = true;
                self.batch = self.min_batch;
                self.streak = 0;
                self.switches += 1;
            }
        } else {
            self.streak = 0;
        }
        (self.batching, self.batch)
    }

    /// Whether the controller currently batches.
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// The current batch depth.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Policy switches so far (each direction counts one).
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

impl std::fmt::Display for AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionPolicy::Fifo => write!(f, "fifo"),
            AdmissionPolicy::ConflictBatch { classes, batch } => {
                write!(f, "batch:{classes}:{batch}")
            }
            AdmissionPolicy::Adaptive {
                classes,
                max_batch,
                threshold_pct,
                hysteresis,
                epoch,
            } => {
                write!(
                    f,
                    "adaptive:{threshold_pct}:{hysteresis}:{epoch}:{classes}:{max_batch}"
                )
            }
        }
    }
}

impl std::str::FromStr for AdmissionPolicy {
    type Err = String;

    /// Parse the harness's `ORTHRUS_ADMISSION` syntax: `fifo`, `batch`
    /// (default shape), `batch:<classes>:<batch>`, `adaptive` (default
    /// thresholds), `adaptive:<threshold>:<k>:<epoch>`, or the full
    /// `adaptive:<threshold>:<k>:<epoch>:<classes>:<max_batch>`.
    fn from_str(s: &str) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("bad {what} {v:?}"))
        }
        let parts: Vec<&str> = s.split(':').collect();
        match parts.as_slice() {
            ["fifo"] => Ok(AdmissionPolicy::Fifo),
            ["batch" | "conflict-batch"] => Ok(AdmissionPolicy::conflict_batch()),
            ["batch" | "conflict-batch", c, b] => {
                let classes: usize = num("class count", c)?;
                let batch: usize = num("batch size", b)?;
                if classes == 0 || batch == 0 {
                    return Err(format!("classes and batch must be ≥ 1, got {s:?}"));
                }
                Ok(AdmissionPolicy::ConflictBatch { classes, batch })
            }
            ["adaptive"] => Ok(AdmissionPolicy::adaptive()),
            ["adaptive", t, k, e] | ["adaptive", t, k, e, _, _] => {
                let (classes, max_batch) = match parts.as_slice() {
                    ["adaptive", _, _, _, c, b] => (num("class count", c)?, num("max batch", b)?),
                    _ => (DEFAULT_CONFLICT_CLASSES, DEFAULT_CLASS_BATCH),
                };
                let policy = AdmissionPolicy::Adaptive {
                    classes,
                    max_batch,
                    threshold_pct: num("threshold", t)?,
                    hysteresis: num("hysteresis depth", k)?,
                    epoch: num("epoch length", e)?,
                };
                // Reuse the one validator (OrthrusConfig::validate defers
                // to it too) so env parsing rejects what the engine would.
                policy.validate().map(|()| policy)
            }
            _ => Err(format!(
                "unknown admission policy {s:?}; expected fifo | batch | \
                 batch:<classes>:<batch> | adaptive | adaptive:<threshold>:<k>:<epoch>\
                 [:<classes>:<max_batch>]"
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
/// the tick exclusively at window boundaries — a `ConflictBatch` refill,
/// or an `Adaptive` epoch close — so a refill window is always observed
/// and classified against one sketch state, and a decay can never land
/// mid-classification of a drained run.
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
    /// Call only at window/epoch boundaries (see the type docs).
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

/// Per-thread adaptive state: the controller plus the epoch counters the
/// execution thread feeds ([`Admitter::note_lock_waits`]).
struct AdaptiveState {
    ctl: AdaptiveController,
    /// Epoch length in admissions.
    epoch: u64,
    admitted_in_epoch: u64,
    waits_in_epoch: u64,
    /// Whether admissions currently batch (mirrors `ctl.batching()`; the
    /// queued backlog may still be draining after a demotion).
    batching: bool,
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
    adaptive: Option<AdaptiveState>,
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
        let mut adaptive = None;
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
            AdmissionPolicy::Adaptive {
                classes,
                max_batch,
                threshold_pct,
                hysteresis,
                epoch,
            } => {
                assert!(classes >= 1 && epoch >= 2, "validated by OrthrusConfig");
                let ctl = AdaptiveController::new(threshold_pct, hysteresis, max_batch);
                let batch = ctl.batch();
                adaptive = Some(AdaptiveState {
                    ctl,
                    epoch: epoch as u64,
                    admitted_in_epoch: 0,
                    waits_in_epoch: 0,
                    batching: false,
                });
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
            adaptive,
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
    /// `min(max, batch budget)` queued transactions. `Adaptive` behaves
    /// like whichever policy its controller currently selects, closing an
    /// epoch first if one is due — policy switches only ever land on run
    /// boundaries. **Empty** exactly when the source has nothing to
    /// admit (client ring dry) and no backlog is queued.
    pub fn next_run(&mut self, db: &Database, max: usize) -> Vec<Admitted> {
        debug_assert!(max >= 1);
        self.maybe_close_epoch();
        let batching = match (&self.run_queues, &self.adaptive) {
            (None, _) => None,
            (Some(_), None) => Some(true),
            (Some(_), Some(st)) => Some(st.batching),
        };
        let run = match batching {
            None => self.next_single(db, false),
            Some(true) => self.next_run_batched(db, max),
            Some(false) => self.next_run_fifo(db),
        };
        if let Some(st) = &mut self.adaptive {
            st.admitted_in_epoch += run.len() as u64;
        }
        run
    }

    /// Fold grant-deferral events reported with a lock grant into the
    /// current adaptive epoch's conflict counter. No-op for the static
    /// policies.
    #[inline]
    pub fn note_lock_waits(&mut self, waiters: u32) {
        if let Some(st) = &mut self.adaptive {
            st.waits_in_epoch += waiters as u64;
        }
    }

    /// Whether adaptive admission is currently batching (always `true`
    /// for `ConflictBatch`, `false` for `Fifo`). Diagnostics/tests.
    pub fn batching(&self) -> bool {
        match (&self.run_queues, &self.adaptive) {
            (None, _) => false,
            (Some(_), None) => true,
            (_, Some(st)) => st.batching,
        }
    }

    /// Adaptive policy switches so far (0 for the static policies).
    pub fn switches(&self) -> u64 {
        self.adaptive.as_ref().map_or(0, |st| st.ctl.switches())
    }

    /// Close the adaptive epoch if it is due: feed the counters to the
    /// controller, apply its (mode, batch-depth) verdict, and tick the
    /// sketch decay — the epoch close *is* the adaptive sketch clock (see
    /// the module docs on clocks).
    fn maybe_close_epoch(&mut self) {
        let Some(st) = &mut self.adaptive else { return };
        if st.admitted_in_epoch < st.epoch {
            return;
        }
        let (batching, batch) = st
            .ctl
            .observe_epoch(st.waits_in_epoch, st.admitted_in_epoch);
        st.admitted_in_epoch = 0;
        st.waits_in_epoch = 0;
        st.batching = batching;
        let rq = self.run_queues.as_mut().expect("adaptive has queues");
        rq.sketch.decay_tick();
        rq.batch = batch;
        rq.budget = rq.budget.min(batch);
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

    /// The seed's admission step: pull one, plan one. With `observe`
    /// (adaptive FIFO mode) the planned footprint still feeds the
    /// frequency sketch, so a later promotion classifies with a warm
    /// sketch instead of falling back to the hint. Empty when the source
    /// is dry.
    fn next_single(&mut self, db: &Database, observe: bool) -> Vec<Admitted> {
        let Some(admitted) = self.pull_planned(db) else {
            return Vec::new();
        };
        if observe {
            let rq = self.run_queues.as_mut().expect("adaptive has queues");
            for &(k, _) in admitted.plan.accesses.entries() {
                rq.sketch.observe(k);
            }
        }
        let mut run = self.spare_runs.pop_front().unwrap_or_default();
        run.push(admitted);
        run
    }

    /// Adaptive FIFO mode: first drain any backlog left queued by a
    /// demotion — one transaction per admission, same round-robin
    /// rotation, so nothing is lost and the per-class cap keeps bounding
    /// wait across the switch — then admit in the seed's
    /// generate-one-admit-one order.
    fn next_run_fifo(&mut self, db: &Database) -> Vec<Admitted> {
        if self.queued() > 0 {
            self.next_run_batched(db, 1)
        } else {
            self.next_single(db, true)
        }
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
    /// `Fifo`; for `Adaptive` a demotion's backlog counts until drained).
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
            // Plain ConflictBatch decays on its window clock: the refill
            // boundary. Adaptive ticks at epoch closes instead (one clock,
            // see `maybe_close_epoch`). Either way, never mid-window.
            if self.adaptive.is_none() {
                let rq = self.run_queues.as_mut().expect("batched policy");
                rq.sketch.decay_tick();
            }
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
        assert_eq!("adaptive".parse(), Ok(AdmissionPolicy::adaptive()));
        assert_eq!(
            "adaptive:30:3:64".parse(),
            Ok(AdmissionPolicy::Adaptive {
                classes: DEFAULT_CONFLICT_CLASSES,
                max_batch: DEFAULT_CLASS_BATCH,
                threshold_pct: 30,
                hysteresis: 3,
                epoch: 64,
            })
        );
        assert_eq!(
            "adaptive:30:3:64:4:32".parse(),
            Ok(AdmissionPolicy::Adaptive {
                classes: 4,
                max_batch: 32,
                threshold_pct: 30,
                hysteresis: 3,
                epoch: 64,
            })
        );
        for bad in [
            "",
            "lifo",
            "batch:0:4",
            "batch:4:0",
            "batch:x:y",
            "batch:1",
            "adaptive:30",
            "adaptive:30:3",
            "adaptive:0:3:64",       // zero threshold
            "adaptive:30:0:64",      // zero hysteresis
            "adaptive:30:3:1",       // epoch length 1
            "adaptive:30:3:64:0:16", // zero classes
            "adaptive:30:3:64:4:0",  // zero max_batch
            "adaptive:x:3:64",
        ] {
            assert!(bad.parse::<AdmissionPolicy>().is_err(), "{bad:?}");
        }
        for p in [
            AdmissionPolicy::Fifo,
            AdmissionPolicy::conflict_batch(),
            AdmissionPolicy::ConflictBatch {
                classes: 3,
                batch: 7,
            },
            AdmissionPolicy::adaptive(),
            AdmissionPolicy::Adaptive {
                classes: 3,
                max_batch: 4,
                threshold_pct: 55,
                hysteresis: 4,
                epoch: 32,
            },
        ] {
            assert_eq!(p.to_string().parse(), Ok(p.clone()));
        }
    }

    // ---- AdaptiveController -----------------------------------------

    #[test]
    fn controller_promotes_and_demotes_with_hysteresis() {
        let mut c = AdaptiveController::new(40, 2, 16);
        assert!(!c.batching());
        // One hot epoch is not enough…
        assert_eq!(c.observe_epoch(100, 100), (false, 2));
        // …the second consecutive one promotes, at the bottom rung.
        assert_eq!(c.observe_epoch(100, 100), (true, 2));
        assert_eq!(c.switches(), 1);
        // Sustained heat doubles the depth up to the configured cap.
        assert_eq!(c.observe_epoch(100, 100), (true, 4));
        assert_eq!(c.observe_epoch(100, 100), (true, 8));
        assert_eq!(c.observe_epoch(100, 100), (true, 16));
        assert_eq!(c.observe_epoch(100, 100), (true, 16));
        // Cooling steps the depth down while the demote streak builds
        // (threshold 40 → demote below 20), then demotes.
        assert_eq!(c.observe_epoch(0, 100), (true, 8));
        assert_eq!(c.observe_epoch(0, 100), (false, 2));
        assert_eq!(c.switches(), 2);
    }

    /// The depth clamps at `max_batch` (a power of two or not, without
    /// overflow at `usize::MAX`) and at the entry depth.
    #[test]
    fn the_batch_depth_steps_clamp_at_both_ends() {
        let mut c = AdaptiveController::new(40, 5, 12);
        let hot: Vec<usize> = (0..9).map(|_| c.observe_epoch(100, 100).1).collect();
        assert_eq!(hot, [2, 2, 2, 2, 2, 4, 8, 12, 12]);
        let cold: Vec<usize> = (0..4).map(|_| c.observe_epoch(0, 100).1).collect();
        assert_eq!(cold, [6, 3, 2, 2]);
        let mut c = AdaptiveController::new(40, 1, usize::MAX);
        for _ in 0..70 {
            c.observe_epoch(100, 100);
        }
        assert_eq!(c.batch(), usize::MAX, "the ceiling holds without overflow");
    }

    /// Heat walks the depth up to the cap; cold walks it back to the
    /// entry depth before the demote streak completes.
    #[test]
    fn the_batch_depth_walks_up_then_back_to_the_entry_depth() {
        let mut c = AdaptiveController::new(40, 10, 16);
        for _ in 0..20 {
            c.observe_epoch(100, 100);
        }
        assert_eq!((c.batching(), c.batch()), (true, 16));
        for _ in 0..9 {
            c.observe_epoch(0, 100);
        }
        assert_eq!((c.batching(), c.batch()), (true, 2));
    }

    #[test]
    fn controller_holds_inside_the_hysteresis_band() {
        let mut c = AdaptiveController::new(40, 2, 16);
        c.observe_epoch(100, 100);
        c.observe_epoch(100, 100);
        assert!(c.batching());
        let depth = c.batch();
        // Rates in [demote, promote) = [20, 40): neither hot nor cold —
        // mode and depth both hold, streaks reset.
        for _ in 0..50 {
            assert_eq!(c.observe_epoch(30, 100), (true, depth));
        }
        assert_eq!(c.switches(), 1);
    }

    #[test]
    fn controller_does_not_flap_at_the_threshold() {
        // A conflict rate oscillating exactly at the promote threshold:
        // hot epochs alternate with in-band epochs, so a K=2 streak never
        // accumulates — zero switches, not one per oscillation.
        let mut c = AdaptiveController::new(40, 2, 16);
        for i in 0..1000u64 {
            let rate = if i % 2 == 0 { 40 } else { 39 };
            c.observe_epoch(rate, 100);
        }
        assert_eq!(c.switches(), 0, "threshold oscillation must not flap");
        // K=1 under an adversarial full-swing signal is the worst case
        // the epochs/K bound allows — exactly one switch per epoch, which
        // is what makes the bound tight (the generic bound is
        // proptest-pinned in crate::proptests).
        let mut c = AdaptiveController::new(40, 1, 16);
        let epochs = 1000u64;
        for i in 0..epochs {
            c.observe_epoch(if i % 2 == 0 { 100 } else { 0 }, 100);
        }
        assert_eq!(c.switches(), epochs, "K=1 full swing flips every epoch");
    }

    // ---- Adaptive admission ------------------------------------------

    fn adaptive_policy(epoch: u32, hysteresis: u32) -> AdmissionPolicy {
        AdmissionPolicy::Adaptive {
            classes: 4,
            max_batch: 8,
            threshold_pct: 40,
            hysteresis,
            epoch,
        }
    }

    #[test]
    fn adaptive_without_signal_is_the_seed_fifo_stream() {
        let spec = MicroSpec::uniform(256, 4, false);
        let db = flat(256);
        let mut admit = Admitter::new(
            &AdmissionPolicy::adaptive(),
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(9, 1)),
            9,
            1,
            0,
        );
        let mut reference = spec.generator(9, 1);
        // 300 admissions cross at least two default epochs (128): with a
        // zero conflict signal the controller never leaves FIFO and the
        // stream is the seed's, admission by admission.
        for _ in 0..300 {
            let a = admit.next(&db).expect("synthetic sources always admit");
            assert_eq!(a.program, reference.next_program());
            assert_eq!(admit.queued(), 0, "fifo mode must not queue ahead");
        }
        assert!(!admit.batching());
        assert_eq!(admit.switches(), 0);
    }

    #[test]
    fn adaptive_promotes_under_sustained_conflict_signal() {
        let spec = MicroSpec::hot_cold(1024, 4, 2, 4, false);
        let db = flat(1024);
        let mut admit = Admitter::new(
            &adaptive_policy(16, 2),
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(7, 0)),
            7,
            0,
            0,
        );
        for _ in 0..3 * 16 {
            let run = admit.next_run(&db, 8);
            // Two deferrals per admitted transaction: rate 200 ≥ 40.
            admit.note_lock_waits(run.len() as u32 * 2);
        }
        assert!(admit.batching(), "two hot epochs must promote");
        assert_eq!(admit.switches(), 1);
        // Batched mode produces real multi-transaction runs.
        let saw_multi = (0..64).any(|_| {
            let run = admit.next_run(&db, 8);
            admit.note_lock_waits(run.len() as u32 * 2);
            run.len() > 1
        });
        assert!(saw_multi, "promotion must enable fused runs");
    }

    #[test]
    fn adaptive_conserves_the_generator_stream_across_switches() {
        // Alternate hot and cold signal phases to force at least two live
        // Fifo↔ConflictBatch transitions, then drain: every generated
        // transaction must be admitted exactly once (multiset equality
        // with the raw generator stream).
        let spec = MicroSpec::hot_cold(1024, 4, 2, 4, false);
        let db = flat(1024);
        let mut admit = Admitter::new(
            &adaptive_policy(8, 1),
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(7, 0)),
            7,
            0,
            0,
        );
        let mut reference = spec.generator(7, 0);
        let mut admitted: Vec<Program> = Vec::new();
        for phase in 0..4 {
            let hot = phase % 2 == 0;
            for _ in 0..40 {
                let run = admit.next_run(&db, 4);
                if hot {
                    admit.note_lock_waits(run.len() as u32 * 2);
                }
                admitted.extend(run.into_iter().map(|a| a.program));
            }
        }
        assert!(
            admit.switches() >= 2,
            "signal phases must force ≥ 2 transitions, saw {}",
            admit.switches()
        );
        // Cool down (no signal → demote) and drain the backlog dry.
        let mut guard = 0;
        while admit.batching() || admit.queued() > 0 {
            admitted.extend(admit.next_run(&db, 4).into_iter().map(|a| a.program));
            guard += 1;
            assert!(guard < 10_000, "drain must terminate");
        }
        let generated: Vec<Program> = (0..admitted.len())
            .map(|_| reference.next_program())
            .collect();
        assert_eq!(
            fingerprint(&admitted),
            fingerprint(&generated),
            "no transaction lost or duplicated across live policy switches"
        );
    }

    #[test]
    fn demotion_backlog_drains_before_any_new_generation() {
        // A demotion that lands while a refill window is still queued must
        // not strand it: FIFO mode drains the backlog one admission at a
        // time (same round-robin rotation, so the per-class cap's wait
        // bound survives the switch) before generating anything new.
        let spec = MicroSpec::hot_cold(1024, 4, 2, 4, false);
        let db = flat(1024);
        let mut admit = Admitter::new(
            &adaptive_policy(2, 1),
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(3, 0)),
            3,
            0,
            0,
        );
        // Promote and keep the signal hot until the doubling has grown the
        // refill window deep enough that a backlog outlives the (2-epoch)
        // demotion lag, then stop the signal.
        let mut guard = 0;
        while !(admit.batching() && admit.queued() >= 16) {
            admit.next_run(&db, 1);
            admit.note_lock_waits(8);
            guard += 1;
            assert!(guard < 10_000, "promotion with a deep backlog must happen");
        }
        // Cold epochs now demote (K = 1) while the backlog is queued.
        let mut saw_fifo_backlog = false;
        let mut guard = 0;
        while admit.queued() > 0 {
            let before = admit.queued();
            let run = admit.next_run(&db, 1);
            if !admit.batching() {
                saw_fifo_backlog = true;
                assert_eq!(run.len(), 1, "backlog drains one per admission");
                assert_eq!(
                    admit.queued(),
                    before - 1,
                    "fifo mode must drain, never refill"
                );
            }
            guard += 1;
            assert!(guard < 1000, "backlog drain must terminate");
        }
        assert!(
            saw_fifo_backlog,
            "the demotion must land while transactions were queued"
        );
        assert!(admit.switches() >= 2);
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
