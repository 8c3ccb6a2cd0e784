//! The seeded scheduler: serializes every enrolled engine thread onto a
//! single virtual-time token and picks interleavings (and faults) from a
//! deterministic RNG.
//!
//! ## How determinism survives real OS threads
//!
//! The engine's workers stay ordinary `std::thread`s, but exactly one
//! enrolled thread holds the *token* at any moment; everyone else is
//! parked on a condvar. Every cross-thread handoff (ring push/pop, park,
//! named point — see `orthrus_common::sim`) is a yield point: the running
//! thread announces the operation it is about to take, rolls the
//! scheduler's RNG for who runs next, and hands the token over; when the
//! token returns, it decides faults, records the step, and proceeds.
//! Since engine state only changes while a thread runs, and threads only
//! run one at a time between yield points, the whole execution is a
//! deterministic function of the seed — OS scheduling decides nothing.
//!
//! Two details keep it airtight:
//! - thread identity comes from a **pre-declared name list** (`cc0`,
//!   `exec1`, `client`), never from registration order, which the OS
//!   *does* control;
//! - enrollment itself is a yield point: `register` blocks until every
//!   expected thread arrived and the token reaches the caller, so even
//!   startup is serialized.
//!
//! ## Coverage-directed picks
//!
//! Because each parked thread has *announced* its next operation, the
//! picker knows which handoff **transition** (previous step's label →
//! candidate's announced label, see [`crate::cover`]) each choice would
//! take. A scheduler built with a coverage snapshot
//! ([`SimScheduler::with_coverage`]) weights its draw toward candidates
//! whose transition is unseen — in the snapshot or so far in this run —
//! by [`NOVELTY_WEIGHT`]. The weighted draw is still a pure function of
//! `(seed, budget, snapshot)`, so guided runs replay bit-identically
//! given the same snapshot.
//!
//! ## Faults
//!
//! The same RNG drives injection: a denied pop is a delayed/reordered
//! delivery (the messages stay queued), a denied push is a ring-full
//! burst, and a shuffled fan-in start lane reorders grant streams across
//! lanes (never within one). Ingest pushes are exempt — the session
//! reserves its slot under the lane lock before pushing, so a pretend
//! -full there would violate the ring's own contract rather than model a
//! real fault. Past [`FaultPlan::soft_cap`] steps, injection stops (the
//! run must terminate; a genuine livelock would still hang and be
//! caught), and an exhausted [`FaultPlan::budget`] stops it early — the
//! knob the trace minimizer binary-searches.
//!
//! ## Crash-restart
//!
//! A [`CrashSpec`] kills one named thread at its first hook at or past a
//! scheduled step: the decision comes back as
//! [`SimDecision::Crash`](orthrus_common::sim::SimDecision) and the
//! dispatch layer panics on the victim's behalf, so the enrollment guard
//! retires it like any real thread death. The run then recovers *inside
//! the same simulation*: the surviving driver announces the replacement
//! thread group with [`SimScheduler::expect_restart`], restarts the
//! engine, and [`SimScheduler::await_restart`] admits the whole group
//! atomically — arrivals are OS-timed, but none becomes runnable until
//! the driver (which holds the token throughout) says so, keeping the
//! candidate sets, and therefore the schedule, deterministic.

use std::collections::{HashMap, HashSet};
use std::str::FromStr;
use std::sync::{Condvar, Mutex};

use orthrus_common::rng::XorShift64;
use orthrus_common::sim::{ChanId, Scheduler, SimDecision, SimOp};

use crate::cover::{fnv_mix, fnv_str, transition};

/// Ring labels eligible for push-denial (ring-full bursts). `"ingest"`
/// is deliberately absent: see the module docs.
pub const PUSH_FAULTABLE: &[&str] = &["exec_cc", "cc_cc", "cc_exec", "completion"];

/// How much more likely a novel-transition candidate is to be picked
/// than a seen one. High enough to steer, low enough that hot orderings
/// (which the invariants also need exercised) still run.
pub const NOVELTY_WEIGHT: u64 = 8;

/// Kill one enrolled thread mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSpec {
    /// The victim's enrolled name (`"exec0"`, `"sync"`, `"ckpt"`, …).
    pub victim: String,
    /// Fires at the victim's first hook once this many steps have
    /// executed. Not budget-counted: the budget minimizer searches the
    /// ordinary faults *around* a fixed crash.
    pub at_step: u64,
}

/// What faults a simulated run injects, and how many.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Percent chance a pop is denied (delayed delivery).
    pub delay_pct: u32,
    /// Percent chance a push to a [`PUSH_FAULTABLE`] ring is denied
    /// (ring-full burst).
    pub deny_push_pct: u32,
    /// Shuffle each fan-in round's starting lane (grant reordering).
    pub shuffle_lanes: bool,
    /// Restrict pop-denial to these ring labels (`None` = all labels).
    pub delay_labels: Option<Vec<String>>,
    /// Max faults to fire (`None` = unlimited). Same seed + same budget
    /// ⇒ bit-identical run; the minimizer searches this knob.
    pub budget: Option<u64>,
    /// Steps after which no further faults fire, bounding termination.
    pub soft_cap: u64,
    /// Kill a thread mid-run (see [`CrashSpec`]).
    pub crash: Option<CrashSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            delay_pct: 0,
            deny_push_pct: 0,
            shuffle_lanes: false,
            delay_labels: None,
            budget: None,
            soft_cap: 2_000_000,
            crash: None,
        }
    }
}

impl FaultPlan {
    /// The plan with a different fault budget (minimizer step).
    pub fn with_budget(&self, budget: u64) -> Self {
        FaultPlan {
            budget: Some(budget),
            ..self.clone()
        }
    }

    /// Render the plan as a compact spec string (`""` for the default
    /// plan) — the inverse of [`FaultPlan::from_str`], so a failing
    /// plan is reproducible from a command line.
    pub fn to_spec(&self) -> String {
        let d = FaultPlan::default();
        let mut parts: Vec<String> = Vec::new();
        if self.delay_pct != d.delay_pct {
            parts.push(format!("delay={}", self.delay_pct));
        }
        if self.deny_push_pct != d.deny_push_pct {
            parts.push(format!("deny={}", self.deny_push_pct));
        }
        if self.shuffle_lanes {
            parts.push("shuffle".to_string());
        }
        if let Some(labels) = &self.delay_labels {
            parts.push(format!("labels={}", labels.join("|")));
        }
        if let Some(b) = self.budget {
            parts.push(format!("budget={b}"));
        }
        if self.soft_cap != d.soft_cap {
            parts.push(format!("cap={}", self.soft_cap));
        }
        if let Some(c) = &self.crash {
            parts.push(format!("crash={}@{}", c.victim, c.at_step));
        }
        parts.join(",")
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parse a spec string like
    /// `"delay=30,deny=10,shuffle,labels=cc_cc|cc_exec,budget=25,crash=exec0@500"`.
    /// The empty string is the default plan.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').unwrap_or((part, ""));
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{key}: bad number {v:?}"))
            };
            match key {
                "delay" => plan.delay_pct = num(value)? as u32,
                "deny" => plan.deny_push_pct = num(value)? as u32,
                "shuffle" => plan.shuffle_lanes = true,
                "labels" => {
                    plan.delay_labels =
                        Some(value.split('|').map(str::to_string).collect::<Vec<_>>())
                }
                "budget" => plan.budget = Some(num(value)?),
                "cap" => plan.soft_cap = num(value)?,
                "crash" => {
                    let (victim, at) = value
                        .split_once('@')
                        .ok_or_else(|| format!("crash: want victim@step, got {value:?}"))?;
                    plan.crash = Some(CrashSpec {
                        victim: victim.to_string(),
                        at_step: num(at)?,
                    });
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// One recorded scheduler step. Compact — a long run records millions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    pub thread: u16,
    pub kind: StepKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    Push {
        chan: ChanId,
        n: u32,
        denied: bool,
    },
    Pop {
        chan: ChanId,
        denied: bool,
    },
    Park,
    Point {
        name: u32,
    },
    Lane {
        lanes: u32,
        start: u32,
    },
    Exit,
    /// An injected mid-run crash ([`CrashSpec`]) fired here.
    Crash,
}

/// Everything observable about a finished simulated schedule.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Total steps taken (counted even when the trace is not kept).
    pub steps: u64,
    /// Order-sensitive hash over every step — the bit-identity pin.
    pub trace_hash: u64,
    /// Faults actually fired.
    pub perturbations: u64,
    /// The full step list, when tracing was enabled.
    pub trace: Option<Vec<Step>>,
    /// Ring label per [`ChanId`] (index `chan - 1`).
    pub chan_labels: Vec<&'static str>,
    /// Interned point names ([`StepKind::Point`] indexes).
    pub point_names: Vec<String>,
    /// Threads that tried to enroll under an unexpected name — a harness
    /// bug that breaks determinism; the runner reports it as a violation.
    pub unknown_registrations: Vec<String>,
    /// The run's handoff-transition set (see [`crate::cover`]) — what
    /// the explorer folds into its [`crate::cover::CoverageMap`].
    pub transitions: HashSet<u64>,
    /// Whether the plan's [`CrashSpec`] fired.
    pub crashed: bool,
    /// Every ticketed commit, in execution order, with the grant stamp
    /// and read digest the isolation oracle checks ([`crate::isolation`]).
    pub commits: Vec<Committed>,
}

impl SchedReport {
    /// Render the last `n` steps with labels resolved — what the
    /// explorer prints for a failing seed.
    pub fn render_tail(&self, names: &[String], n: usize) -> String {
        let Some(trace) = &self.trace else {
            return String::from("(trace not kept; re-run with tracing)");
        };
        let start = trace.len().saturating_sub(n);
        let mut out = String::new();
        for (i, step) in trace[start..].iter().enumerate() {
            let who = names.get(step.thread as usize).map_or("?", String::as_str);
            let chan_label = |chan: ChanId| {
                self.chan_labels
                    .get(chan.wrapping_sub(1) as usize)
                    .copied()
                    .unwrap_or("?")
            };
            let line = match step.kind {
                StepKind::Push { chan, n, denied } => format!(
                    "push {}#{chan} n={n}{}",
                    chan_label(chan),
                    if denied { " DENIED" } else { "" }
                ),
                StepKind::Pop { chan, denied } => format!(
                    "pop {}#{chan}{}",
                    chan_label(chan),
                    if denied { " DENIED" } else { "" }
                ),
                StepKind::Park => "park".to_string(),
                StepKind::Point { name } => format!(
                    "point {}",
                    self.point_names
                        .get(name as usize)
                        .map_or("?", String::as_str)
                ),
                StepKind::Lane { lanes, start } => {
                    format!("fanin lanes={lanes} start={start}")
                }
                StepKind::Exit => "exit".to_string(),
                StepKind::Crash => "CRASH (injected)".to_string(),
            };
            out.push_str(&format!("  [{:>6}] {who:<8} {line}\n", start + i));
        }
        out
    }
}

struct State {
    registered: Vec<bool>,
    live: Vec<bool>,
    parked: Vec<bool>,
    running: Option<usize>,
    n_registered: usize,
    started: bool,
    rng: XorShift64,
    steps: u64,
    trace_hash: u64,
    perturbations: u64,
    budget_left: Option<u64>,
    trace: Option<Vec<Step>>,
    chan_labels: Vec<&'static str>,
    point_names: Vec<String>,
    unknown: Vec<String>,
    /// Per-thread label of the *announced* next operation (hook entry
    /// sets it before yielding) — what the guided picker weights by.
    pending_label: Vec<u64>,
    /// Label of the last executed step, the transition's "from" side.
    last_label: u64,
    /// Transitions taken this run.
    run_seen: HashSet<u64>,
    crash_fired: bool,
    /// Restart barrier: ids announced by `expect_restart` that have not
    /// re-registered yet, and the full group awaiting activation.
    restart_pending: usize,
    restart_group: Vec<usize>,
}

impl State {
    /// Whether injection is still allowed, and consume one budget unit
    /// if a fault fires.
    fn try_fire(&mut self, plan: &FaultPlan, pct: u32) -> bool {
        if self.steps >= plan.soft_cap || pct == 0 {
            return false;
        }
        if let Some(0) = self.budget_left {
            return false;
        }
        if !self.rng.chance_percent(pct) {
            return false;
        }
        if let Some(b) = &mut self.budget_left {
            *b -= 1;
        }
        self.perturbations += 1;
        true
    }

    fn record(&mut self, thread: usize, kind: StepKind) {
        self.steps += 1;
        self.trace_hash = fold_step(self.trace_hash, thread, &kind);
        if let Some(trace) = &mut self.trace {
            trace.push(Step {
                thread: thread as u16,
                kind,
            });
        }
    }

    /// Fold the executed step's label into the transition coverage set.
    fn cover(&mut self, label: u64) {
        self.run_seen.insert(transition(self.last_label, label));
        self.last_label = label;
    }
}

/// FNV-style fold of one step into the running trace hash.
fn fold_step(mut h: u64, thread: usize, kind: &StepKind) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    mix(thread as u64);
    match *kind {
        StepKind::Push { chan, n, denied } => {
            mix(1);
            mix(chan as u64);
            mix(n as u64);
            mix(denied as u64);
        }
        StepKind::Pop { chan, denied } => {
            mix(2);
            mix(chan as u64);
            mix(denied as u64);
        }
        StepKind::Park => mix(3),
        StepKind::Point { name } => {
            mix(4);
            mix(name as u64);
        }
        StepKind::Lane { lanes, start } => {
            mix(5);
            mix(lanes as u64);
            mix(start as u64);
        }
        StepKind::Exit => mix(6),
        StepKind::Crash => mix(7),
    }
    h
}

/// The names `n` driving client threads enroll under: `client`,
/// `client1`, …. A participant list is an engine's own thread list
/// (`OrthrusConfig::thread_names`) with these between its workers and
/// its companions.
pub fn client_names(n: usize) -> impl Iterator<Item = String> {
    assert!(n >= 1, "a run needs a driving client");
    std::iter::once("client".to_string()).chain((1..n).map(|i| format!("client{i}")))
}

/// The seeded scheduler. Install with `orthrus_common::sim::install`,
/// then start the engine and enroll the client; see `crate::run_sim`.
pub struct SimScheduler {
    names: Vec<String>,
    name_hash: Vec<u64>,
    plan: FaultPlan,
    /// Pre-resolved [`CrashSpec::victim`] id (`None` when the victim
    /// name is not in the participant list — the crash then never fires,
    /// which the runner reports).
    crash_victim: Option<usize>,
    /// Coverage snapshot biasing the picker; `None` = uniform picks.
    snapshot: Option<HashSet<u64>>,
    state: Mutex<State>,
    cv: Condvar,
    /// The isolation oracle's records (not part of the schedule).
    isolation: Mutex<Isolation>,
}

impl SimScheduler {
    /// `names` is the full expected participant set, in canonical order
    /// (thread ids are indexes into it — never registration order).
    pub fn new(seed: u64, names: Vec<String>, plan: FaultPlan, keep_trace: bool) -> Self {
        let n = names.len();
        assert!(n > 0, "a simulation needs at least one participant");
        let name_hash: Vec<u64> = names.iter().map(|s| fnv_str(s)).collect();
        let crash_victim = plan
            .crash
            .as_ref()
            .and_then(|c| names.iter().position(|n| *n == c.victim));
        // Every thread's first announced label is "about to start".
        let pending_label: Vec<u64> = name_hash.iter().map(|&h| fnv_mix(h, 8)).collect();
        SimScheduler {
            state: Mutex::new(State {
                registered: vec![false; n],
                live: vec![false; n],
                parked: vec![false; n],
                running: None,
                n_registered: 0,
                started: false,
                rng: XorShift64::new(seed ^ 0x0005_1EDD_5C4E_D01E),
                steps: 0,
                trace_hash: 0xcbf2_9ce4_8422_2325,
                perturbations: 0,
                budget_left: plan.budget,
                trace: keep_trace.then(Vec::new),
                chan_labels: Vec::new(),
                point_names: Vec::new(),
                unknown: Vec::new(),
                pending_label,
                last_label: 0,
                run_seen: HashSet::new(),
                crash_fired: false,
                restart_pending: 0,
                restart_group: Vec::new(),
            }),
            names,
            name_hash,
            plan,
            crash_victim,
            snapshot: None,
            cv: Condvar::new(),
            isolation: Mutex::default(),
        }
    }

    /// Bias this scheduler's picks toward transitions absent from
    /// `snapshot` (see the module docs). The schedule stays a pure
    /// function of `(seed, plan, snapshot)`.
    pub fn with_coverage(mut self, snapshot: HashSet<u64>) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// The participant names, in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether the plan's [`CrashSpec`] has fired yet. The driving
    /// client polls this to stop feeding an engine whose victim is dead.
    pub fn crash_fired(&self) -> bool {
        self.state.lock().unwrap().crash_fired
    }

    /// Announce that the named threads (all currently retired) will
    /// re-enroll for an in-sim restart. Call from the token-holding
    /// driver *before* spawning the replacement engine, then
    /// [`Self::await_restart`] after.
    pub fn expect_restart(&self, names: &[&str]) {
        let mut s = self.state.lock().unwrap();
        assert!(s.started, "restart before the initial barrier completed");
        for name in names {
            let id = self
                .names
                .iter()
                .position(|n| n == name)
                .unwrap_or_else(|| panic!("restart of unknown sim thread {name:?}"));
            assert!(
                s.registered[id] && !s.live[id],
                "restart target {name:?} is not a retired participant"
            );
            // Fresh generation, fresh first-label announcement.
            s.pending_label[id] = fnv_mix(self.name_hash[id], 8);
            s.restart_group.push(id);
        }
        s.restart_pending = s.restart_group.len();
    }

    /// Block until every announced restart thread has re-enrolled, then
    /// admit the whole group atomically. The caller holds the token
    /// throughout (re-enrollment does not need it), so arrival *order* —
    /// which the OS controls — never reaches the picker: the group
    /// becomes runnable in one deterministic instant.
    pub fn await_restart(&self) {
        let mut s = self.state.lock().unwrap();
        while s.restart_pending > 0 {
            s = self.cv.wait(s).unwrap();
        }
        let group = std::mem::take(&mut s.restart_group);
        for id in group {
            s.live[id] = true;
            s.parked[id] = true;
        }
    }

    /// Snapshot the schedule's observables. Meaningful once every
    /// participant has retired (the runner calls it after the client
    /// guard drops).
    pub fn report(&self) -> SchedReport {
        let s = self.state.lock().unwrap();
        SchedReport {
            steps: s.steps,
            trace_hash: s.trace_hash,
            perturbations: s.perturbations,
            trace: s.trace.clone(),
            chan_labels: s.chan_labels.clone(),
            point_names: s.point_names.clone(),
            unknown_registrations: s.unknown.clone(),
            transitions: s.run_seen.clone(),
            crashed: s.crash_fired,
            commits: self.isolation.lock().unwrap().commits.clone(),
        }
    }

    /// Pick the next runnable thread (parked ∧ live) — callers guarantee
    /// at least one candidate. With a coverage snapshot installed the
    /// draw is novelty-weighted over each candidate's announced label.
    fn pick_next(&self, s: &mut State) -> usize {
        let cands: Vec<usize> = (0..s.live.len())
            .filter(|&i| s.parked[i] && s.live[i])
            .collect();
        debug_assert!(!cands.is_empty(), "no runnable sim thread");
        let Some(snapshot) = &self.snapshot else {
            return cands[s.rng.next_below(cands.len() as u64) as usize];
        };
        let weights: Vec<u64> = cands
            .iter()
            .map(|&i| {
                let key = transition(s.last_label, s.pending_label[i]);
                if snapshot.contains(&key) || s.run_seen.contains(&key) {
                    1
                } else {
                    NOVELTY_WEIGHT
                }
            })
            .collect();
        let total: u64 = weights.iter().sum();
        let mut draw = s.rng.next_below(total);
        for (idx, &w) in weights.iter().enumerate() {
            if draw < w {
                return cands[idx];
            }
            draw -= w;
        }
        unreachable!("weighted draw out of range")
    }

    /// Hand the token to a seeded choice (possibly back to `me`) and
    /// block until it returns.
    fn yield_token<'a>(
        &'a self,
        mut s: std::sync::MutexGuard<'a, State>,
        me: usize,
    ) -> std::sync::MutexGuard<'a, State> {
        s.parked[me] = true;
        let next = self.pick_next(&mut s);
        s.running = Some(next);
        if next != me {
            self.cv.notify_all();
            while s.running != Some(me) {
                s = self.cv.wait(s).unwrap();
            }
        }
        s.parked[me] = false;
        s
    }

    /// The stable label of `op` as executed by `thread` — name-based, so
    /// equal schedules hash equally across runs and participant lists.
    fn label_of(&self, thread: usize, op: &SimOp<'_>) -> u64 {
        let base = self.name_hash[thread];
        match op {
            SimOp::Push { label, .. } => fnv_mix(fnv_mix(base, 1), fnv_str(label)),
            SimOp::Pop { label, .. } => fnv_mix(fnv_mix(base, 2), fnv_str(label)),
            SimOp::Park => fnv_mix(base, 3),
            SimOp::Point { name } => fnv_mix(fnv_mix(base, 4), fnv_str(name)),
        }
    }
}

impl Scheduler for SimScheduler {
    fn register(&self, name: &str) -> Option<usize> {
        let Some(id) = self.names.iter().position(|n| n == name) else {
            self.state.lock().unwrap().unknown.push(name.to_string());
            return None;
        };
        let mut s = self.state.lock().unwrap();
        if s.started {
            // A restart re-enrollment (see `expect_restart`). The thread
            // is registered but waits for the driver to admit the whole
            // group — it only runs once granted the token like everyone
            // else.
            assert!(
                s.registered[id] && !s.live[id] && s.restart_group.contains(&id),
                "sim thread {name:?} enrolled twice"
            );
            s.restart_pending -= 1;
            if s.restart_pending == 0 {
                self.cv.notify_all();
            }
            while s.running != Some(id) {
                s = self.cv.wait(s).unwrap();
            }
            s.parked[id] = false;
            return Some(id);
        }
        assert!(!s.registered[id], "sim thread {name:?} enrolled twice");
        s.registered[id] = true;
        s.live[id] = true;
        s.parked[id] = true;
        s.n_registered += 1;
        if s.n_registered == self.names.len() {
            // Barrier complete: grant the first token. From here on the
            // execution is serialized and seed-deterministic.
            s.started = true;
            let first = self.pick_next(&mut s);
            s.running = Some(first);
            self.cv.notify_all();
        }
        while s.running != Some(id) {
            s = self.cv.wait(s).unwrap();
        }
        s.parked[id] = false;
        Some(id)
    }

    fn unregister(&self, thread: usize) {
        let mut s = self.state.lock().unwrap();
        debug_assert_eq!(s.running, Some(thread), "retiring thread lacks the token");
        let exit_label = fnv_mix(self.name_hash[thread], 9);
        s.cover(exit_label);
        s.record(thread, StepKind::Exit);
        s.live[thread] = false;
        s.parked[thread] = false;
        let any_left = (0..s.live.len()).any(|i| s.parked[i] && s.live[i]);
        s.running = if any_left {
            Some(self.pick_next(&mut s))
        } else {
            None
        };
        self.cv.notify_all();
    }

    fn reached(&self, thread: usize, op: SimOp<'_>) -> SimDecision {
        let mut s = self.state.lock().unwrap();
        debug_assert_eq!(
            s.running,
            Some(thread),
            "hook from a thread without the token"
        );
        // Announce what this thread is about to do, then yield: the
        // picker sees every parked thread's next transition.
        let label = self.label_of(thread, &op);
        s.pending_label[thread] = label;
        let mut s = self.yield_token(s, thread);

        // Token regained: this step now executes. Crash check first — a
        // crashed thread takes no further operation.
        if let Some(spec) = &self.plan.crash {
            if !s.crash_fired && self.crash_victim == Some(thread) && s.steps >= spec.at_step {
                s.crash_fired = true;
                s.cover(fnv_mix(self.name_hash[thread], 10));
                s.record(thread, StepKind::Crash);
                return SimDecision::Crash;
            }
        }
        s.cover(label);
        let proceed = match op {
            SimOp::Push { chan, label, n } => {
                let eligible = PUSH_FAULTABLE.contains(&label);
                let denied = eligible && s.try_fire(&self.plan, self.plan.deny_push_pct);
                s.record(
                    thread,
                    StepKind::Push {
                        chan,
                        n: n as u32,
                        denied,
                    },
                );
                !denied
            }
            SimOp::Pop { chan, label } => {
                let eligible = self
                    .plan
                    .delay_labels
                    .as_ref()
                    .is_none_or(|ls| ls.iter().any(|l| l == label));
                let denied = eligible && s.try_fire(&self.plan, self.plan.delay_pct);
                s.record(thread, StepKind::Pop { chan, denied });
                !denied
            }
            SimOp::Park => {
                s.record(thread, StepKind::Park);
                true
            }
            SimOp::Point { name } => {
                let idx = match s.point_names.iter().position(|p| p == name) {
                    Some(i) => i,
                    None => {
                        s.point_names.push(name.to_string());
                        s.point_names.len() - 1
                    }
                };
                s.record(thread, StepKind::Point { name: idx as u32 });
                true
            }
        };
        if proceed {
            SimDecision::Proceed
        } else {
            SimDecision::Deny
        }
    }

    fn peer_live(&self, name: &str) -> Option<bool> {
        let id = self.names.iter().position(|n| n == name)?;
        let s = self.state.lock().unwrap();
        Some(s.registered[id] && s.live[id])
    }

    fn fanin_start(&self, thread: usize, lanes: usize) -> Option<usize> {
        if !self.plan.shuffle_lanes || lanes < 2 {
            return None;
        }
        let mut s = self.state.lock().unwrap();
        if !s.try_fire(&self.plan, 100) {
            return None;
        }
        let start = s.rng.next_below(lanes as u64) as usize;
        s.record(
            thread,
            StepKind::Lane {
                lanes: lanes as u32,
                start: start as u32,
            },
        );
        Some(start)
    }

    fn alloc_chan(&self, label: &'static str) -> ChanId {
        let mut s = self.state.lock().unwrap();
        s.chan_labels.push(label);
        s.chan_labels.len() as ChanId
    }

    fn on_grant(&self, token: u64) {
        let mut iso = self.isolation.lock().unwrap();
        let stamp = iso.next_stamp;
        iso.next_stamp += 1;
        iso.stamps.insert(token, stamp);
    }

    fn on_commit(&self, token: Option<u64>, ticket: u64, digest: u64) {
        let mut iso = self.isolation.lock().unwrap();
        let stamp = token.map(|t| iso.stamps.get(&t).copied());
        iso.commits.push(Committed {
            ticket,
            stamp,
            digest,
        });
    }
}

/// One ticketed commit as the isolation oracle records it
/// ([`orthrus_common::sim::on_commit`]); [`SchedReport::commits`] lists
/// them in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Committed {
    pub ticket: u64,
    /// The stamp of the grant that completed the lock set it ran under:
    /// `None` when it asked for no lock, `Some(None)` when no CC thread
    /// ever granted that lock set.
    pub stamp: Option<Option<u64>>,
    /// What its execution returned: a digest of the values it read.
    pub digest: u64,
}

/// The isolation oracle's records: one global grant sequence, and every
/// ticketed commit.
#[derive(Default)]
struct Isolation {
    next_stamp: u64,
    /// Grant stamp per packed exec token.
    stamps: HashMap<u64, u64>,
    commits: Vec<Committed>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_spec_roundtrips() {
        let plans = [
            FaultPlan::default(),
            FaultPlan {
                delay_pct: 30,
                deny_push_pct: 10,
                shuffle_lanes: true,
                delay_labels: Some(vec!["cc_cc".to_string(), "cc_exec".to_string()]),
                budget: Some(25),
                soft_cap: 500_000,
                crash: Some(CrashSpec {
                    victim: "exec0".to_string(),
                    at_step: 500,
                }),
            },
            FaultPlan {
                crash: Some(CrashSpec {
                    victim: "sync".to_string(),
                    at_step: 1,
                }),
                ..FaultPlan::default()
            },
        ];
        for plan in plans {
            let spec = plan.to_spec();
            let back: FaultPlan = spec.parse().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(back, plan, "spec {spec:?}");
        }
        assert!("crash=exec0".parse::<FaultPlan>().is_err());
        assert!("warp=9".parse::<FaultPlan>().is_err());
        assert_eq!("".parse::<FaultPlan>().unwrap(), FaultPlan::default());
    }
}
