//! The explorer loop: sweep seeds — uniformly or coverage-guided — and
//! on failure shrink first the *workload* (delta-debugging the
//! transaction list) and then the *fault budget*, rendering a replayable
//! trace.
//!
//! Reproduction contract: a uniform failure is fully described by
//! `(seed, kept transactions, budget)` — `sim run --seed S [--keep
//! I,J,K] [--budget B] --trace` replays the identical schedule. A
//! *guided* failure additionally depends on the coverage snapshot the
//! sweep had accumulated when the seed ran; snapshots are a pure
//! function of the sweep prefix, so `sim explore --guided` from the same
//! base rebuilds them — and the minimizer freezes the failing seed's
//! snapshot across all its shrink attempts, keeping every reproduction
//! within one sweep exact.

use std::collections::HashSet;

use crate::cover::CoverageMap;
use crate::run::{run_sim_guided, SimConfig, SimOutcome};

/// How many trailing steps of a failing schedule to render.
const TRACE_TAIL: usize = 40;

/// A sweep has plateaued when this many consecutive seeds add no new
/// transition — the signal to grow the corpus elsewhere (more clients,
/// other workloads) rather than burn more seeds.
pub const PLATEAU_WINDOW: usize = 25;

/// Total extra runs the minimizer may spend per failure (delta-debugging
/// rounds + budget bisection + the final traced reproduction).
const MINIMIZE_RUN_BUDGET: usize = 200;

/// One failing seed, minimized and rendered.
#[derive(Debug)]
pub struct FailureReport {
    pub seed: u64,
    /// The smallest fault budget that still fails, when minimization
    /// held; `None` means the failure reproduces with faults disabled
    /// entirely or only with the unlimited budget (see [`minimize`]).
    pub budget: Option<u64>,
    /// The delta-debugged transaction subset that still fails (`None`
    /// when shrinking bought nothing — the full list is minimal).
    pub kept: Option<Vec<u32>>,
    /// Violations of the final (shrunken, capped) reproduction.
    pub violations: Vec<String>,
    /// The unshrunken run's violations, when they differ from the
    /// reproduction's: a capped budget changes the RNG draw sequence, so
    /// the minimized repro can fail *differently* — both failures are
    /// real, and hiding the original would send the debugger to the
    /// wrong invariant. Empty when the repro matches.
    pub original_violations: Vec<String>,
    /// Whether the failing run was coverage-guided (reproduction then
    /// needs the sweep's snapshot; see the module docs).
    pub guided: bool,
    pub steps: u64,
    pub perturbations: u64,
    pub trace_tail: String,
}

/// A finished exploration sweep.
#[derive(Debug)]
pub struct ExploreReport {
    pub seeds_run: u64,
    pub failures: Vec<FailureReport>,
    /// Unique handoff transitions covered across the sweep (see
    /// [`crate::cover`]).
    pub transitions_covered: usize,
    /// Cumulative transitions-covered after each seed — the growth curve
    /// `sim coverage` compares between uniform and guided sweeps.
    pub growth: Vec<usize>,
    /// No seed in the last [`PLATEAU_WINDOW`] added a new transition.
    pub plateau: bool,
    /// Whether the sweep biased its schedulers by accumulated coverage.
    pub guided: bool,
    /// Seeds that ran at least 16 in flight per execution thread.
    pub deep_seeds: u64,
}

impl ExploreReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run `count` seeds starting at `base`; `txns` overrides the per-seed
/// transaction count (the CI corpus shrinks it). `guided` biases each
/// seed's scheduler toward handoff transitions the sweep has not covered
/// yet. `verbose` prints a progress line per seed.
pub fn explore(
    base: u64,
    count: u64,
    txns: Option<usize>,
    verbose: bool,
    guided: bool,
) -> ExploreReport {
    let mut failures = Vec::new();
    let mut map = CoverageMap::new();
    let mut growth = Vec::with_capacity(count as usize);
    let mut last_novel = 0usize;
    let mut deep_seeds = 0;
    for (idx, seed) in (base..base.saturating_add(count)).enumerate() {
        let mut cfg = SimConfig::from_seed(seed);
        if let Some(t) = txns {
            cfg.txns = t;
        }
        deep_seeds += u64::from(cfg.max_inflight >= 16);
        // Guidance sees only seeds *before* this one — the snapshot is a
        // pure function of the sweep prefix, which is what makes guided
        // failures reproducible.
        let snapshot = guided.then(|| map.snapshot());
        let out = run_sim_guided(&cfg, false, snapshot.clone());
        if map.absorb(&out.report.transitions) > 0 {
            last_novel = idx;
        }
        growth.push(map.covered());
        if verbose {
            eprintln!(
                "seed {seed}: {} steps, {} faults, {} committed, {} transitions covered{}",
                out.steps,
                out.perturbations,
                out.committed,
                map.covered(),
                if out.violations.is_empty() {
                    String::new()
                } else {
                    format!(" — {} VIOLATIONS", out.violations.len())
                }
            );
        }
        if !out.violations.is_empty() {
            failures.push(minimize(&cfg, out, snapshot));
        }
    }
    let plateau =
        count as usize > PLATEAU_WINDOW && count as usize - 1 - last_novel >= PLATEAU_WINDOW;
    ExploreReport {
        seeds_run: count,
        failures,
        transitions_covered: map.covered(),
        growth,
        plateau,
        guided,
        deep_seeds,
    }
}

/// Delta-debug the transaction list: find a small `keep` subset that
/// still fails. Classic ddmin over index chunks, reducing to the
/// complement; the criterion is "any violation" (a shrunken run may fail
/// *differently* — still a failure, and the caveat reporting in
/// [`minimize`] surfaces the difference). Returns `None` when no
/// reduction held. Decrements `runs_left` per attempt and stops at zero.
fn ddmin_txns(
    cfg: &SimConfig,
    snapshot: &Option<HashSet<u64>>,
    runs_left: &mut usize,
) -> Option<Vec<u32>> {
    let fails = |keep: &[u32], runs_left: &mut usize| -> bool {
        if *runs_left == 0 {
            return false;
        }
        *runs_left -= 1;
        let mut c = cfg.clone();
        c.keep = Some(keep.to_vec());
        !run_sim_guided(&c, false, snapshot.clone())
            .violations
            .is_empty()
    };
    let mut current: Vec<u32> = match &cfg.keep {
        Some(keep) => keep.clone(),
        None => (0..cfg.txns as u32).collect(),
    };
    let full_len = current.len();
    let mut n = 2usize;
    while current.len() >= 2 && *runs_left > 0 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        for i in 0..n {
            let (lo, hi) = (i * chunk, ((i + 1) * chunk).min(current.len()));
            if lo >= hi {
                break;
            }
            let complement: Vec<u32> = current[..lo]
                .iter()
                .chain(&current[hi..])
                .copied()
                .collect();
            if !complement.is_empty() && fails(&complement, runs_left) {
                current = complement;
                reduced = true;
                break;
            }
        }
        if reduced {
            n = 2.max(n - 1);
        } else {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    (current.len() < full_len).then_some(current)
}

/// Shrink a failing run: delta-debug the transaction list first (fewer
/// transactions shrink everything downstream — steps, faults, trace),
/// then binary-search the smallest fault budget that still fails. Both
/// best-effort — an exhausted budget changes the RNG draw sequence, so a
/// capped run can diverge from the uncapped one; when the final
/// reproduction fails with *different* violations than the original run,
/// both sets are reported (see [`FailureReport::original_violations`]).
pub fn minimize(
    cfg: &SimConfig,
    original: SimOutcome,
    snapshot: Option<HashSet<u64>>,
) -> FailureReport {
    let guided = snapshot.is_some();
    let mut runs_left = MINIMIZE_RUN_BUDGET;

    // Phase 1: workload shrink.
    let kept = ddmin_txns(cfg, &snapshot, &mut runs_left);
    let mut shrunk = cfg.clone();
    if let Some(keep) = &kept {
        shrunk.keep = Some(keep.clone());
    }

    // Phase 2: fault-budget bisection on the shrunken workload.
    let mut fails_at = |budget: u64| -> bool {
        if runs_left == 0 {
            return false;
        }
        runs_left -= 1;
        let mut capped = shrunk.clone();
        capped.plan = shrunk.plan.with_budget(budget);
        !run_sim_guided(&capped, false, snapshot.clone())
            .violations
            .is_empty()
    };
    let hi = original.perturbations;
    let budget = if fails_at(hi) {
        // Invariant: `hi` fails, everything below `lo` passes.
        let (mut lo, mut hi) = (0u64, hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fails_at(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(hi)
    } else {
        None
    };

    // Reproduce once more with the trace kept, at the minimized budget
    // (or the original unlimited plan when minimization did not hold).
    let mut repro_cfg = shrunk.clone();
    if let Some(b) = budget {
        repro_cfg.plan = shrunk.plan.with_budget(b);
    }
    let repro = run_sim_guided(&repro_cfg, true, snapshot);
    let (out, violations, original_violations) = if repro.violations.is_empty() {
        // The traced run matches the untraced one bit-for-bit, so this
        // only happens if tracing itself perturbed memory enough to
        // matter — which would be a determinism bug worth reporting.
        (repro, original.violations, Vec::new())
    } else if repro.violations == original.violations {
        let v = repro.violations.clone();
        (repro, v, Vec::new())
    } else {
        // The capped/shrunken reproduction fails differently: report
        // both, the repro's as primary (that is what the printed command
        // line replays) and the original's for context.
        let v = repro.violations.clone();
        (repro, v, original.violations)
    };
    FailureReport {
        seed: cfg.seed,
        budget,
        kept,
        violations,
        original_violations,
        guided,
        steps: out.steps,
        perturbations: out.perturbations,
        trace_tail: out.report.render_tail(&out.thread_names, TRACE_TAIL),
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "seed {} FAILED", self.seed)?;
        let mut repro = format!("sim run --seed {}", self.seed);
        if let Some(keep) = &self.kept {
            let list: Vec<String> = keep.iter().map(u32::to_string).collect();
            repro.push_str(&format!(" --keep {}", list.join(",")));
        }
        if let Some(b) = self.budget {
            repro.push_str(&format!(" --budget {b}"));
        }
        repro.push_str(" --trace");
        writeln!(f, "  reproduce: {repro}")?;
        if self.guided {
            writeln!(
                f,
                "  (guided sweep: exact replay additionally needs the sweep's \
                 coverage snapshot — re-run `sim explore --guided` from the same base)"
            )?;
        }
        if let Some(keep) = &self.kept {
            writeln!(f, "  shrunk to {} transactions", keep.len())?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        for v in &self.original_violations {
            writeln!(f, "  violation (unshrunken original): {v}")?;
        }
        writeln!(
            f,
            "  {} steps, {} faults; last steps:",
            self.steps, self.perturbations
        )?;
        write!(f, "{}", self.trace_tail)
    }
}
