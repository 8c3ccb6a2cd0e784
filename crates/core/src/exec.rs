//! The execution thread: transaction logic only, no lock metadata.
//!
//! "Execution threads do not contain instructions nor data pertaining to
//! concurrency control; they are only responsible for performing each
//! transaction's logic" (Section 3.1). Each thread multiplexes a slab of
//! in-flight transactions: after sending a lock request it does not wait —
//! it handles responses for older transactions or starts new ones
//! (Section 3.3's asynchrony).
//!
//! **Which** transaction enters next is not this thread's decision: the
//! admission loop pulls *runs* from a per-thread [`Admitter`] (see
//! [`crate::admit`]), which generates, plans, and — under the
//! `ConflictBatch` policy — groups same-conflict-class transactions
//! back-to-back before they ever occupy an in-flight slot. A multi-
//! transaction run is serialized locally: one fused lock acquisition over
//! the union footprint, back-to-back execution, one release round. The
//! plans produced at admission ride the slot to execution; only OLLP
//! retries re-plan.
//!
//! **How many** transactions are in flight is the thread's own decision,
//! in two parts. Whether a run may start: only while fewer than the cap
//! are in flight, and `InflightCap` walks the cap between a floor and
//! [`OrthrusConfig::max_inflight`] from the lock waits its grants report.
//! How long the run may be: up to the ceiling's headroom,
//! `max_inflight − inflight`, so a class's run is as long as its batch
//! budget and queue allow (DESIGN.md, "A run is as long as its class's
//! batch").
//!
//! A quantum drains grants, executes the runs they complete and stages
//! their releases, publishes what it staged, then admits new work. So a
//! hot lock is held for its run's execution, not for the planning of the
//! next runs (DESIGN.md, "A release leaves before admission").
//!
//! Figure-10 accounting on this thread: `Execution` = running transaction
//! logic; `Locking` = admission (generation + planning), building lock
//! plans, sending/receiving lock messages; `Waiting` = idle polls with
//! nothing runnable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use orthrus_common::runtime::RunCtl;
use orthrus_common::{Backoff, Doorbell, Phase, PhaseTimer, ThreadStats};
use orthrus_durability::codec::frame_run;
use orthrus_durability::{CommandLog, LoggedCommit};
use orthrus_spsc::{FanIn, Producer};
use orthrus_txn::{execute_planned, AbortKind, AccessSet, Database};

use crate::admit::{Admitted, Admitter, DEFAULT_CLASS_BATCH};
use crate::config::OrthrusConfig;
use crate::engine::{publish, Bells, ExecEndpoints};
use crate::msg::{CcRequest, ExecResponse, Token};
use crate::plan::{LockPlan, PlanPool, PlanScratch};
use crate::source::{Completion, Reply, TxnSource};

/// One in-flight lock acquisition: a *run* of same-conflict-class
/// transactions serialized locally under a single fused lock plan. FIFO
/// admission always produces runs of one (the seed's shape); conflict-
/// batched admission fuses up to `batch` same-class transactions into one
/// acquire/release round — the hot-key convoy pays one fabric round trip
/// per run instead of one per transaction. Each [`Admitted`] carries the
/// plan produced at admission (reused through execution — no
/// re-planning) and its admission timestamp (commit latency spans
/// run-queue wait, lock wait, and OLLP retries).
struct Inflight {
    txns: Vec<Admitted>,
    /// Fused lock plan covering the union of the run's footprints.
    lock_plan: Arc<LockPlan>,
    /// Token generation of the current acquire chain (see [`Token`]):
    /// fresh per run *and* per OLLP retry, so CC threads never confuse a
    /// successor's early-arriving forwarded acquire with a double-acquire
    /// by the predecessor whose releases are still in flight.
    gen: u32,
    /// OLLP mismatches from this run awaiting standalone retry (rare):
    /// retried one at a time on this slot after the fused release.
    retries: Vec<Admitted>,
}

/// Below how many transactions in flight an execution thread starts a
/// run: Section 3.3's asynchrony depth, walked between a floor and a
/// ceiling by the lock waits its own grants report (DESIGN.md, "How deep
/// the pipeline is"). It does not clip the run it lets start: that may
/// fill the headroom under the ceiling.
///
/// The walk goes one window at a time, a window being as many grants as
/// the cap was when it opened. A window in which no grant waited, while
/// the thread had work it could not admit for want of room, adds one
/// fabric batch. A window in which some did shrinks the cap by half the
/// share that waited, `cap × (1 − waited / 2·window)` — DCTCP's rule, with
/// a lock wait in place of a congestion mark. Where nobody waits the
/// depth climbs to the ceiling; where grants queue behind each other
/// deeper pipelines only lengthen the queues, and it stays at the floor.
///
/// A pure function of the grants and of when the thread was held back:
/// no clock. A shape whose floor is its ceiling (`max_inflight` ≤ 16)
/// never moves.
#[derive(Debug)]
struct InflightCap {
    floor: usize,
    ceiling: usize,
    /// One step up: a fabric batch.
    step: usize,
    cap: usize,
    /// The current window's length, and its grants so far: all of them,
    /// and those that waited.
    window: usize,
    grants: usize,
    waited: usize,
    /// The thread had backlog but no room for it during this window.
    held_back: bool,
}

impl InflightCap {
    /// A cap that starts at, and never leaves, `[min(ceiling, 16),
    /// ceiling]`, growing by `step` at a time.
    fn new(ceiling: usize, step: usize) -> Self {
        let floor = ceiling.min(DEFAULT_CLASS_BATCH);
        InflightCap {
            floor,
            ceiling,
            step,
            cap: floor,
            window: floor,
            grants: 0,
            waited: 0,
            held_back: false,
        }
    }

    /// The depth in force.
    fn get(&self) -> usize {
        self.cap
    }

    /// Whether the depth can move at all.
    fn walks(&self) -> bool {
        self.floor < self.ceiling
    }

    /// The thread had backlog it could not admit: the cap held it back.
    fn held_back(&mut self) {
        self.held_back = true;
    }

    /// One grant arrived, reporting `waiters` locks that waited.
    fn on_grant(&mut self, waiters: u32) {
        self.grants += 1;
        self.waited += usize::from(waiters > 0);
        if self.grants < self.window {
            return;
        }
        if self.waited == 0 {
            if self.held_back {
                self.cap = (self.cap + self.step).min(self.ceiling);
            }
        } else {
            let keep = 2 * self.grants - self.waited;
            self.cap = (self.cap * keep / (2 * self.grants)).max(self.floor);
        }
        self.window = self.cap;
        self.grants = 0;
        self.waited = 0;
        self.held_back = false;
    }
}

/// The service-mode completion path: this thread's ring to the drainer
/// and the doorbell a drainer with nothing to do parks on.
struct CompletionSink {
    ring: Producer<Completion>,
    bell: Arc<Doorbell>,
    /// Completions were published since the bell was last rung.
    unrung: bool,
}

/// One execution thread's state and endpoints.
pub struct ExecThread<'a, S: TxnSource> {
    exec_id: u16,
    db: &'a Database,
    cfg: &'a OrthrusConfig,
    /// The engine's run-control flags: stop, measure, and whether a peer
    /// died (then a full ring to it is never drained again).
    ctl: &'a RunCtl,
    to_cc: Vec<Producer<CcRequest>>,
    from_cc: FanIn<ExecResponse>,
    /// The engine's inbox doorbells: `bells.cc[cc]` is rung after every
    /// publish into `to_cc[cc]`, and this thread waits on
    /// `bells.exec[exec_id]`, which CC threads ring after publishing
    /// grants and sessions after publishing submissions.
    bells: Bells,
    slots: Vec<Option<Inflight>>,
    free: Vec<u16>,
    inflight: usize,
    /// Below how many transactions in flight a run may start; `slots`
    /// has room for its ceiling, which `inflight` never passes.
    cap: InflightCap,
    /// The pluggable admission layer: transaction source + planning + any
    /// conflict-class run queues.
    admit: Admitter<S>,
    /// Completion ring back to the client side (service mode): every
    /// ticketed commit reports its submit→commit latency here. `None` in
    /// closed-loop (synthetic) runs.
    completions: Option<CompletionSink>,
    /// The engine's command log (durability on): one record per fused
    /// run, written **before the run's lock releases leave this thread**
    /// — see [`Self::write_log`] for the ordering contract. `None` when
    /// durability is off.
    log: Option<Arc<CommandLog>>,
    /// Committed programs of the current run awaiting their record
    /// (reused across runs; empty whenever `log` is `None`).
    log_batch: Vec<LoggedCommit>,
    /// The records of the runs this quantum committed, framed back to
    /// back, not yet written ([`Self::write_log`]); reused across quanta.
    log_buf: Vec<u8>,
    /// How many records `log_buf` holds.
    log_records: u64,
    /// Commits awaiting latency stamping and (for ticketed work)
    /// completion delivery. With the log on, they wait here until the
    /// write carrying their records (and its fsync, under per-run
    /// `log+fsync`), so commit latency includes the durability wait
    /// ("true commit latency").
    commit_batch: Vec<(Option<Reply>, std::time::Instant)>,
    /// Group-sync mode (`log+fsync` with a sync coordinator): `true`
    /// when appends publish a watermark instead of fsyncing inline, and
    /// completions gate on [`orthrus_durability::SyncState::synced`].
    group_sync: bool,
    /// Commits appended but not yet covered by the coordinator's synced
    /// watermark, FIFO in LSN order: `(reply, started, appended_at,
    /// lsn)`. Released by [`Self::release_durable`] each quantum once
    /// `lsn <= synced`; `appended_at → release` is the fsync wait.
    pending_durable:
        std::collections::VecDeque<(Option<Reply>, std::time::Instant, std::time::Instant, u64)>,
    /// Completions that did not fit the ring because the client lagged.
    /// The engine **never blocks** on completion delivery — a blocking
    /// push could wedge the whole engine against a client stuck in a
    /// backpressured `submit` (each blocked on the other) — so overflow
    /// parks here and re-flushes every quantum, FIFO order preserved.
    /// Memory is proportional to how far the client's draining lags its
    /// submitting, and tickets are never dropped.
    completion_overflow: Vec<Completion>,
    /// Set once a stop request lands on a drain-on-stop (client) source:
    /// the shutdown drain can be ingest-ring-deep, and its commits fall
    /// *after* the measured window closes, so they must not count toward
    /// windowed throughput/latency (they still complete tickets and
    /// bump the lifetime counter). The closed-loop drain tail (bounded
    /// by `max_inflight`, present in the seed too) stays counted —
    /// message-economics ratios are pinned against it.
    post_stop: bool,
    stats: ThreadStats,
    /// Wrapping token-generation counter (see [`Inflight::gen`]).
    next_token_gen: u32,
    /// Per-destination send buffers: requests accumulated during one
    /// scheduling quantum, flushed as a slice (one atomic publish per
    /// destination). With `flush_threshold == 1` every send flushes
    /// immediately — the seed's message-per-message behaviour.
    send_buf: Vec<Vec<CcRequest>>,
    /// Responses staged by the fan-in drain (reused across iterations).
    resp_buf: Vec<ExecResponse>,
    /// The lock plans this thread issued and is done with; the next plan
    /// is rebuilt in the oldest one no CC thread holds any more.
    plans: PlanPool,
    /// Sort buffer of [`LockPlan::rebuild`].
    plan_scratch: PlanScratch,
    /// The union footprint of a multi-transaction run, rebuilt per run.
    fused: AccessSet,
}

impl<'a, S: TxnSource> ExecThread<'a, S> {
    pub(crate) fn new(
        exec_id: u16,
        db: &'a Database,
        cfg: &'a OrthrusConfig,
        ctl: &'a RunCtl,
        ep: ExecEndpoints,
        bells: Bells,
        admit: Admitter<S>,
    ) -> Self {
        let ceiling = cfg.max_inflight.max(1);
        let n_cc = ep.to_cc.len();
        let flush = cfg.flush_threshold;
        ExecThread {
            exec_id,
            db,
            cfg,
            ctl,
            to_cc: ep.to_cc,
            from_cc: ep.fanin,
            bells,
            slots: (0..ceiling).map(|_| None).collect(),
            // Validated: the ceiling is at most 65 536, every slot a u16.
            free: (0..=u16::MAX).take(ceiling).rev().collect(),
            inflight: 0,
            cap: InflightCap::new(ceiling, flush),
            admit,
            completions: None,
            log: None,
            log_batch: Vec::new(),
            log_buf: Vec::new(),
            log_records: 0,
            commit_batch: Vec::new(),
            group_sync: false,
            pending_durable: std::collections::VecDeque::new(),
            completion_overflow: Vec::new(),
            post_stop: false,
            stats: ThreadStats::default(),
            next_token_gen: 0,
            send_buf: (0..n_cc).map(|_| Vec::with_capacity(flush)).collect(),
            resp_buf: Vec::with_capacity(ceiling),
            plans: PlanPool::default(),
            plan_scratch: PlanScratch::new(),
            fused: AccessSet::default(),
        }
    }

    /// Attach the completion path (service mode; `None` for a synthetic
    /// source): ticketed commits are reported back to the client through
    /// the ring, and the bell is rung after each run's completions are
    /// published.
    pub fn with_completions(mut self, path: Option<(Producer<Completion>, Arc<Doorbell>)>) -> Self {
        self.completions = path.map(|(ring, bell)| CompletionSink {
            ring,
            bell,
            unrung: false,
        });
        self
    }

    /// Attach the engine's command log (durability on): every committed
    /// run has one record written before its locks and completions
    /// release.
    pub fn with_log(mut self, log: Option<Arc<CommandLog>>) -> Self {
        self.group_sync = log.as_ref().is_some_and(|l| l.group_sync());
        self.log = log;
        self
    }

    /// Release every pending commit the coordinator's synced watermark
    /// now covers (group-sync mode only): stamp its latency and fsync
    /// wait, then hand the ticketed ones to the client. Returns how many
    /// were released.
    ///
    /// # Panics
    /// When the coordinator's fsync failed: these commits already
    /// executed, and this thread has no way to un-execute them — the
    /// broken durability contract surfaces as
    /// [`crate::EngineError::WorkerPanicked`] at shutdown.
    fn release_durable(&mut self) -> usize {
        if self.pending_durable.is_empty() {
            return 0;
        }
        let st = self.log.as_ref().expect("pending implies log").sync_state();
        if st.is_failed() {
            panic!(
                "group fsync failed; {} commits lost durability",
                self.pending_durable.len()
            );
        }
        let synced = st.synced();
        let mut released = 0;
        // One clock read covers everything this pass releases.
        let mut now = None;
        while (self.pending_durable.front()).is_some_and(|&(_, _, _, lsn)| lsn <= synced) {
            let Some((reply, started, appended_at, _)) = self.pending_durable.pop_front() else {
                break;
            };
            let now = *now.get_or_insert_with(std::time::Instant::now);
            let latency_ns = now.duration_since(started).as_nanos() as u64;
            if !self.post_stop {
                self.stats.committed += 1;
                self.stats.latency.record(latency_ns);
                self.stats
                    .log_fsync_wait
                    .record(now.duration_since(appended_at).as_nanos() as u64);
            }
            if let Some(reply) = reply {
                self.deliver_completion(reply.completed(latency_ns));
            }
            released += 1;
        }
        released
    }

    /// Stage a request for `cc`, flushing the destination's buffer as one
    /// slice once it reaches the batching threshold.
    #[inline]
    fn send(&mut self, cc: usize, req: CcRequest) {
        self.send_buf[cc].push(req);
        self.stats.messages_sent += 1;
        if self.send_buf[cc].len() >= self.cfg.flush_threshold {
            self.publish_to(cc);
        }
    }

    /// Publish `cc`'s staged requests and ring its bell — after writing
    /// the log records they may release locks over ([`Self::write_log`]).
    /// A dead CC thread never drains its ring again: once a peer has
    /// died, what does not fit is dropped.
    fn publish_to(&mut self, cc: usize) {
        self.write_log();
        let (bell, ctl) = (&self.bells.cc[cc], self.ctl);
        publish(&mut self.to_cc[cc], &mut self.send_buf[cc], bell, || {
            ctl.is_failed()
        });
    }

    /// Write every record this thread has framed since its last write,
    /// with one `write`, then stamp and hand out the commits waiting on
    /// it. Called before anything that depends on those records leaves
    /// the thread: before any publish (a lock release is a message in a
    /// send buffer until then) and, once per quantum, before the
    /// quantum's completions are handed out and before the loop decides
    /// whether it is finished. So a run's record is written while its
    /// locks are still held — not early lock release: a release is a
    /// staged message until a publish, and every publish writes first,
    /// whether it comes before admission ([`Self::release_first`]), at a
    /// batching threshold or at the quantum's end — and log order is
    /// conflict order: a conflicting successor cannot be
    /// granted, let alone write, before our release is published (see
    /// DESIGN.md, "When a record reaches the OS").
    ///
    /// # Panics
    /// When the write fails: the durability contract for these
    /// already-executed commits just broke, and this thread has no way
    /// to un-execute them. The panic surfaces as a typed
    /// `EngineError::WorkerPanicked` at shutdown.
    fn write_log(&mut self) {
        let Some(log) = self.log.as_ref().filter(|_| self.log_records > 0) else {
            return;
        };
        let receipt = (log.append_frames(&self.log_buf, self.log_records))
            .unwrap_or_else(|e| panic!("command-log append failed: {e}"));
        // Stat counters share the `committed` window (post-stop drain
        // writes still happen — durability — but don't count), so
        // `committed / log_records` is an unbiased amortization factor in
        // both run modes.
        if !self.post_stop {
            self.stats.log_records += self.log_records;
            self.stats.log_writes += 1;
            self.stats.log_bytes += receipt.bytes;
            self.stats.log_flushes += u64::from(receipt.synced);
        }
        self.log_buf.clear();
        self.log_records = 0;
        self.complete_batch(receipt.lsn);
    }

    /// Hand a ticketed commit's completion to the client, parking it in
    /// the overflow buffer if the ring is full (never blocks; see
    /// [`Self::completion_overflow`]).
    #[inline]
    fn deliver_completion(&mut self, completion: Completion) {
        let Some(sink) = self.completions.as_mut() else {
            return;
        };
        if !self.completion_overflow.is_empty() || sink.ring.try_push(completion).is_err() {
            self.completion_overflow.push(completion);
        } else {
            sink.unrung = true;
        }
    }

    /// Re-flush parked completions into the ring as the client drains
    /// (one slice publish per attempt; cheap no-op when nothing parked).
    fn flush_completions(&mut self) {
        let Some(sink) = self.completions.as_mut() else {
            return;
        };
        while !self.completion_overflow.is_empty() {
            if sink.ring.try_push_slice(&mut self.completion_overflow) == 0 {
                break;
            }
            sink.unrung = true;
        }
    }

    /// Wake the drainer if completions were published since the last
    /// ring. When nobody is parked — every in-process driver polls —
    /// this costs one fence and one flag load per quantum.
    #[inline]
    fn ring_drainer(&mut self) {
        if let Some(sink) = self.completions.as_mut() {
            if sink.unrung {
                sink.unrung = false;
                sink.bell.ring();
            }
        }
    }

    /// Publish every staged request. Called before the thread polls or
    /// parks, so batching never holds a message across an idle quantum.
    fn flush_sends(&mut self) {
        for cc in 0..self.send_buf.len() {
            self.publish_to(cc);
        }
    }

    /// Publish the quantum's staged releases *before* admission plans new
    /// work, when admission is about to run: then a hot lock's hand-off
    /// to a queued successor does not wait behind planning and lock-plan
    /// building for other transactions. When admission has nothing to do
    /// the releases leave at the quantum's end, no later. The publish
    /// writes the quantum's log records first ([`Self::publish_to`]), so
    /// the log contract is unchanged.
    fn release_first(&mut self) {
        if self.inflight >= self.cap.get()
            || !self.admit.has_backlog()
            || self.send_buf.iter().all(|b| b.is_empty())
        {
            return;
        }
        self.flush_sends();
        if !self.post_stop {
            self.stats.releases_first += 1;
        }
    }

    /// A fresh token generation for a new acquire chain.
    fn fresh_gen(&mut self) -> u32 {
        let g = self.next_token_gen;
        self.next_token_gen = self.next_token_gen.wrapping_add(1);
        g
    }

    /// Build the lock plan of `run`: the union of its members' footprints
    /// — a run of several same-class transactions acquires it in one
    /// round — grouped into one span per owning CC thread
    /// ([`OrthrusConfig::cc_of`]). Built in the buffers of a plan every CC
    /// thread has let go of. `None` when the run touches no record at all
    /// (every member's key list is empty): there is nothing to ask a CC
    /// thread for.
    fn plan_locks(&mut self, run: &[Admitted]) -> Option<Arc<LockPlan>> {
        let footprint = match run {
            [single] => &single.plan.accesses,
            many => {
                let members = many.iter().map(|a| a.plan.accesses.entries());
                self.fused.refill(members.flatten().copied());
                &self.fused
            }
        };
        if footprint.is_empty() {
            return None;
        }
        // The run executes when its last grant arrives, a few message
        // delays from now: ask for its records' cache lines meanwhile, so
        // execution does not wait for memory one record at a time.
        for &(key, _) in footprint.entries() {
            self.db.prefetch(key);
        }
        let (cfg, db) = (self.cfg, self.db);
        let mut shared = self.plans.take();
        // Unshared, as `take` hands them out: this borrows, never copies.
        let plan = Arc::make_mut(&mut shared);
        plan.rebuild(footprint, &mut self.plan_scratch, |k| cfg.cc_of(db, k));
        Some(shared)
    }

    /// Main loop: run until stopped *and* every in-flight transaction has
    /// drained, then decrement `active_execs` (CC threads exit once it
    /// reaches zero and their queues are dry).
    ///
    /// The stop contract depends on the source
    /// ([`TxnSource::drain_on_stop`]): synthetic sources stop admitting
    /// at the stop request (the seed's wind-down); client sources keep
    /// admitting until the ingest ring and any admission backlog are
    /// **dry** — every accepted ticket completes, even the ones still
    /// queued when shutdown began. Unless a peer thread died
    /// ([`RunCtl::is_failed`]): then this one leaves at once, abandoning
    /// what it has in flight (fail-stop).
    pub fn run(mut self, active_execs: &AtomicUsize) -> ThreadStats {
        let ctl = self.ctl;
        // Decrement on every exit path, unwinding included: a panicking
        // exec thread must not leave CC threads waiting forever on an
        // `active_execs` count that can no longer reach zero. The same
        // unwind also raises `RunCtl::mark_failed` so a CC thread blocked
        // pushing grants into this (now consumer-less) thread's ring can
        // discard and exit instead of spinning forever. Both are part of
        // the CC threads' wait predicates, and a parked thread polls
        // nothing: ring them.
        struct ActiveGuard<'g>(&'g AtomicUsize, &'g RunCtl, Bells);
        impl Drop for ActiveGuard<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.1.mark_failed();
                }
                self.0.fetch_sub(1, Ordering::AcqRel);
                self.2.ring_all();
            }
        }
        let _active = ActiveGuard(active_execs, ctl, self.bells.clone());
        let mut timer = PhaseTimer::start(Phase::Locking);
        let mut backoff = Backoff::new();
        let mut in_window = false;
        // One quantum per iteration: drain grant batches (executing the
        // runs they complete and staging their releases), flush the
        // releases (`release_first`), admit up to the in-flight cap, then
        // flush every staged request as slices.
        let drain_budget = self.cfg.max_inflight.max(1);
        loop {
            if !in_window && ctl.is_measuring() {
                self.stats.reset_window();
                timer = PhaseTimer::start(Phase::Locking);
                in_window = true;
            }
            if !self.post_stop && ctl.is_stopped() && self.admit.drain_on_stop() {
                self.post_stop = true;
            }
            let mut progress = false;
            loop {
                let mut resp_buf = std::mem::take(&mut self.resp_buf);
                let drained = self.from_cc.drain_round(&mut resp_buf, drain_budget);
                for resp in resp_buf.drain(..) {
                    self.on_response(resp, &mut timer);
                }
                self.resp_buf = resp_buf;
                if drained == 0 {
                    break;
                }
                progress = true;
            }
            let stopped = ctl.is_stopped();
            let draining = stopped && self.admit.drain_on_stop();
            if !stopped || (draining && self.admit.has_backlog()) {
                self.release_first();
                while self.inflight < self.cap.get() && self.start_run(&mut timer) {
                    progress = true;
                }
                if self.cap.walks() && self.inflight >= self.cap.get() && self.admit.has_backlog() {
                    self.cap.held_back();
                }
            }
            // The quantum's records go out before its completions do.
            self.write_log();
            // Durable-release pass: commits whose covering group fsync
            // landed since the last quantum become client-visible now.
            progress |= self.release_durable() > 0;
            self.flush_completions();
            // Parked completions hold the thread alive until the
            // shutdown drain makes room — every ticket is delivered.
            let finished = stopped
                && self.inflight == 0
                && !(self.admit.drain_on_stop() && self.admit.has_backlog())
                && self.completion_overflow.is_empty()
                && self.pending_durable.is_empty();
            // Publish the quantum's sends before polling again, parking
            // or exiting: responses can only arrive for flushed requests
            // (and the last commits' releases may still be staged).
            self.flush_sends();
            // Once per quantum, after the CC threads have their messages
            // (a wake-up is a syscall; locks should not wait behind it):
            // under load one ring covers every run the quantum
            // committed, under a trickle the quantum is one run long.
            self.ring_drainer();
            // Fail-stop: a dead peer's locks are never released, so the
            // grants this thread waits for may never come.
            if finished || ctl.is_failed() {
                break;
            }
            if progress {
                backoff.reset();
                continue;
            }
            timer.switch(&mut self.stats, Phase::Waiting);
            if self.pending_durable.is_empty() && self.completion_overflow.is_empty() {
                backoff.snooze_on(&self.bells.exec[self.exec_id as usize], || {
                    !self.from_cc.is_empty()
                        || (self.inflight < self.cap.get() && self.admit.has_backlog())
                        || ctl.is_stopped() != stopped
                        || (!in_window && ctl.is_measuring())
                        || ctl.is_failed()
                });
            } else {
                // The group fsync's watermark and the client's draining
                // of a full completion ring ring nobody: poll for them.
                backoff.snooze();
            }
        }
        debug_assert!(self.send_buf.iter().all(|b| b.is_empty()));
        debug_assert!(self.log_records == 0 && self.commit_batch.is_empty());
        timer.finish(&mut self.stats);
        self.stats
    }

    /// Admit the next run and fire its first lock request. The admission
    /// policy decides *which* transactions those are and hands over the
    /// plans it produced — no re-planning here. A run of several
    /// same-class transactions acquires the union of its footprints in
    /// one round and executes back-to-back under it (local
    /// serialization). Returns `false` when the source had nothing to
    /// admit (client ingest ring dry) — the caller parks instead of
    /// spinning.
    ///
    /// The caller starts a run only below the cap; the run itself may
    /// take the whole headroom under the ceiling (`slots.len()`, which is
    /// `max_inflight`), so a batched class fuses as deep as its budget
    /// and queue allow. Runs in flight stay at most the cap, hence at
    /// most the slots.
    fn start_run(&mut self, timer: &mut PhaseTimer) -> bool {
        timer.switch(&mut self.stats, Phase::Locking);
        let run = self
            .admit
            .next_run(self.db, self.slots.len() - self.inflight);
        if run.is_empty() {
            return false;
        }
        self.inflight += run.len();
        debug_assert!(self.inflight <= self.slots.len());
        self.stats.runs += 1;
        self.stats.inflight_max = self.stats.inflight_max.max(self.inflight as u64);
        let slot = self.free.pop().expect("inflight cap exceeded");
        self.launch(slot, run, Vec::new(), timer);
        true
    }

    /// Give `slot` its next thing to do: the run in `txns`; with `txns`
    /// empty, the next queued OLLP mismatch; with neither, nothing — the
    /// slot is free again.
    ///
    /// A mismatch is re-planned with the corrected estimate and
    /// re-acquired under a fresh token generation. The retry's direct
    /// acquire is ordered behind the releases on its own exec→CC ring;
    /// where the retry reaches a CC thread through forwarding instead,
    /// the fresh generation makes it an ordinary conflicting transaction
    /// that parks until the in-flight release drains. Mismatches are
    /// rare, so retries run one at a time (runs of one) rather than
    /// re-fusing.
    ///
    /// A run that touches no record has no lock to wait for: it commits
    /// here, without a lock round (a client may send a program with an
    /// empty key list; the wire codec accepts one).
    fn launch(
        &mut self,
        slot: u16,
        mut txns: Vec<Admitted>,
        mut retries: Vec<Admitted>,
        timer: &mut PhaseTimer,
    ) {
        loop {
            if txns.is_empty() {
                let Some(mut txn) = retries.pop() else {
                    self.admit.recycle_run(txns);
                    self.free.push(slot);
                    return;
                };
                self.admit.replan(&mut txn, self.db);
                txns.push(txn);
            }
            let Some(lock_plan) = self.plan_locks(&txns) else {
                self.commit_run(&mut txns, &mut retries, timer);
                continue;
            };
            let gen = self.fresh_gen();
            self.send_acquire(&lock_plan, slot, gen, 0);
            self.slots[slot as usize] = Some(Inflight {
                txns,
                lock_plan,
                gen,
                retries,
            });
            return;
        }
    }

    fn send_acquire(&mut self, lock_plan: &Arc<LockPlan>, slot: u16, gen: u32, span_idx: u16) {
        let cc = lock_plan.spans()[span_idx as usize].cc;
        self.send(
            cc as usize,
            CcRequest::Acquire {
                token: Token {
                    exec: self.exec_id,
                    slot,
                    gen,
                },
                plan: Arc::clone(lock_plan),
                span_idx,
                forward: self.cfg.forwarding,
                waiters: 0,
            },
        );
    }

    fn send_releases(&mut self, lock_plan: &Arc<LockPlan>, slot: u16, gen: u32) {
        for i in 0..lock_plan.spans().len() {
            let cc = lock_plan.spans()[i].cc;
            self.send(
                cc as usize,
                CcRequest::Release {
                    token: Token {
                        exec: self.exec_id,
                        slot,
                        gen,
                    },
                    plan: Arc::clone(lock_plan),
                    span_idx: i as u16,
                },
            );
        }
    }

    fn on_response(&mut self, resp: ExecResponse, timer: &mut PhaseTimer) {
        let ExecResponse::Granted {
            slot,
            span_idx,
            waiters,
        } = resp;
        // The grant's deferral count is the contention signal: fold it
        // into the run stats. Without forwarding each span reports its own
        // share, so summing per-grant stays correct in both modes.
        self.stats.lock_waits += waiters as u64;
        // The same signal sets how deep this thread's pipeline runs.
        let cap = self.cap.get() as u64;
        self.stats.inflight_cap_sum += cap;
        self.stats.inflight_cap_grants += 1;
        self.stats.inflight_cap_max = self.stats.inflight_cap_max.max(cap);
        self.cap.on_grant(waiters);
        // Without forwarding, the execution thread mediates each span
        // itself: 2·Ncc message delays (Section 3.3's unoptimized mode).
        if !self.cfg.forwarding {
            let next = span_idx as usize + 1;
            let lock_plan = {
                let inf = self.slots[slot as usize]
                    .as_ref()
                    .expect("grant for free slot");
                if next < inf.lock_plan.spans().len() {
                    Some((Arc::clone(&inf.lock_plan), inf.gen))
                } else {
                    None
                }
            };
            if let Some((lp, gen)) = lock_plan {
                timer.switch(&mut self.stats, Phase::Locking);
                self.send_acquire(&lp, slot, gen, next as u16);
                return;
            }
        }

        // All locks held: run the whole run back-to-back (local
        // serialization — one acquire/release round for every
        // transaction in it).
        let Inflight {
            mut txns,
            lock_plan,
            gen,
            mut retries,
        } = self.slots[slot as usize]
            .take()
            .expect("grant for free slot");
        self.commit_run(&mut txns, &mut retries, timer);
        self.send_releases(&lock_plan, slot, gen);
        // Lent to the CC threads until the last release is handled; this
        // thread keeps its own clone, so theirs is never the last.
        self.plans.give(lock_plan);
        self.launch(slot, txns, retries, timer);
    }

    /// Execute `txns` back-to-back — their locks are held, or they need
    /// none — then frame the run's record for the quantum's write (log
    /// on) or stamp and deliver its commits (log off). Drains `txns`;
    /// OLLP mismatches move to `retries`, everything else commits.
    fn commit_run(
        &mut self,
        txns: &mut Vec<Admitted>,
        retries: &mut Vec<Admitted>,
        timer: &mut PhaseTimer,
    ) {
        timer.switch(&mut self.stats, Phase::Execution);
        for txn in txns.drain(..) {
            match execute_planned(&txn.program, self.db, &txn.plan) {
                Ok(v) => {
                    std::hint::black_box(v);
                    self.stats.committed_all += 1;
                    self.commit_batch.push((txn.reply, txn.started));
                    self.admit.recycle_plan(txn.plan);
                    if self.log.is_some() {
                        // Command logging: the program *is* the record
                        // (effects are replayed, not stored).
                        self.log_batch.push(LoggedCommit {
                            ticket: txn.reply.map(|r| r.ticket.0),
                            program: txn.program,
                        });
                    }
                    self.inflight -= 1;
                }
                Err(AbortKind::OllpMismatch) => {
                    // The estimate was wrong (Section 3.2); the rest of
                    // the run is unaffected. Queue the mismatch for a
                    // standalone retry after the fused release.
                    self.stats.aborts_ollp += 1;
                    retries.push(txn);
                }
                Err(other) => unreachable!("planned execution abort: {other:?}"),
            }
        }
        timer.switch(&mut self.stats, Phase::Locking);
        if self.log.is_none() {
            self.complete_batch(0);
        } else if !self.log_batch.is_empty() {
            // Group commit: one record for the run, framed now beside the
            // quantum's others and written by `write_log` before the
            // run's releases or completions leave this thread.
            frame_run(&self.log_batch, &mut self.log_buf);
            self.log_batch.clear();
            self.log_records += 1;
        }
    }

    /// Commit point of everything in `commit_batch`: stamp latency and
    /// release completions *now* — after the write (and per-run fsync)
    /// covering them, at log sequence number `lsn`, or at once with the
    /// log off — so under `log+fsync` the histograms carry the durability
    /// wait. The clock is read once: every commit in the batch becomes
    /// client-visible here, and the wait for its run-mates' execution and
    /// the write is genuinely part of its latency.
    ///
    /// Group-sync mode inverts the flush: the write only published a
    /// watermark, so the completions park in `pending_durable` until the
    /// coordinator's fsync covers `lsn`; the lock releases still go out
    /// (successors may execute, they just can't report before their own
    /// later log position syncs).
    fn complete_batch(&mut self, lsn: u64) {
        let now = std::time::Instant::now();
        if self.group_sync {
            for (reply, started) in self.commit_batch.drain(..) {
                self.pending_durable.push_back((reply, started, now, lsn));
            }
            self.release_durable();
        } else {
            let mut ready = std::mem::take(&mut self.commit_batch);
            for (reply, started) in ready.drain(..) {
                let latency_ns = now.duration_since(started).as_nanos() as u64;
                if !self.post_stop {
                    self.stats.committed += 1;
                    self.stats.latency.record(latency_ns);
                }
                if let Some(reply) = reply {
                    self.deliver_completion(reply.completed(latency_ns));
                }
            }
            self.commit_batch = ready;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::InflightCap;

    /// Feed `windows` full windows, each `waits(i)` grants of which
    /// waited, the thread held back before each; return the cap after
    /// every window.
    fn walk(cap: &mut InflightCap, windows: usize, waits: impl Fn(usize) -> usize) -> Vec<usize> {
        (0..windows)
            .map(|w| {
                cap.held_back();
                let len = cap.get();
                for g in 0..len {
                    cap.on_grant(u32::from(g < waits(w)));
                }
                cap.get()
            })
            .collect()
    }

    #[test]
    fn a_wait_free_stream_climbs_to_the_ceiling_one_batch_a_window() {
        let mut cap = InflightCap::new(64, 16);
        assert_eq!(cap.get(), 16, "starts at the floor");
        assert_eq!(walk(&mut cap, 5, |_| 0), [32, 48, 64, 64, 64]);
    }

    #[test]
    fn a_thread_that_was_never_held_back_does_not_climb() {
        let mut cap = InflightCap::new(64, 16);
        for _ in 0..10 * 64 {
            cap.on_grant(0);
        }
        assert_eq!(cap.get(), 16);
    }

    #[test]
    fn every_other_grant_waiting_holds_the_floor() {
        let mut cap = InflightCap::new(64, 16);
        for g in 0..10_000u32 {
            cap.held_back();
            cap.on_grant(g % 2);
            assert_eq!(cap.get(), 16);
        }
    }

    /// DCTCP's cut: half the share of the window that waited.
    #[test]
    fn waits_cut_the_cap_by_half_their_share() {
        let mut cap = InflightCap::new(256, 16);
        walk(&mut cap, 15, |_| 0);
        assert_eq!(cap.get(), 256);
        // 64 of 256 waited: keep 1 − 64/512 of it.
        assert_eq!(walk(&mut cap, 1, |_| 64), [224]);
        // One wait in a window still cuts, by the rounding.
        assert_eq!(walk(&mut cap, 1, |_| 1), [223]);
        // All of them: half, then the floor.
        assert_eq!(walk(&mut cap, 5, |w| usize::MAX - w), [111, 55, 27, 16, 16]);
    }

    #[test]
    fn the_cap_never_leaves_floor_and_ceiling() {
        let mut rng = orthrus_common::XorShift64::new(7);
        for (ceiling, step) in [(17, 16), (64, 16), (64, 1), (100, 64), (1 << 16, 16)] {
            let mut cap = InflightCap::new(ceiling, step);
            for _ in 0..200_000 {
                if rng.next_below(4) == 0 {
                    cap.held_back();
                }
                let waiters = if rng.next_below(50) == 0 { 3 } else { 0 };
                cap.on_grant(waiters);
                assert!((16..=ceiling).contains(&cap.get()), "{cap:?}");
            }
        }
    }

    #[test]
    fn a_ceiling_of_sixteen_or_less_never_moves() {
        for ceiling in [1, 2, 3, 4, 8, 16] {
            let mut cap = InflightCap::new(ceiling, 16);
            assert!(!cap.walks());
            for g in 0..1_000u32 {
                cap.held_back();
                cap.on_grant(g % 3 / 2);
                assert_eq!(cap.get(), ceiling);
            }
        }
    }
}
