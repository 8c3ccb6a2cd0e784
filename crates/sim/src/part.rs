//! Simulated runs over the partitioned deployment (`orthrus-part`).
//!
//! The partitioned engine's correctness story has three load-bearing
//! claims the single-engine corpus ([`crate::run`]) never exercises:
//!
//! - **Money conservation across partitions** — a cross-partition
//!   [`Program::Transfer`] is sliced into a debit `Adjust` on one
//!   engine and a credit `Adjust` on another, executed under an epoch
//!   barrier. If the barrier (or recovery) ever applies half a
//!   transfer, the deployment-wide balance drifts. The corpus submits a
//!   seeded mix of single-partition Rmws and cross-partition transfers
//!   and checks the final counters against an exact wrapping model,
//!   key by key and in total.
//! - **Global ticket conservation** — the partition layer mints its own
//!   dense global tickets over per-partition local ones; every accepted
//!   ticket must complete exactly once through the fan-in, under seeded
//!   perturbations of every partition's workers *and* the sequencer.
//! - **Epoch-ordered replay** — each partition's command log doubles as
//!   its epoch journal (the fused batch programs carry their epoch
//!   number through the codec). After a clean run the corpus scans each
//!   log and requires the recorded epochs to be strictly increasing,
//!   then replays every partition twice into fresh databases and pins
//!   both recoveries to the live state — crash recovery of any one
//!   partition's log is deterministic and epoch-ordered.
//!
//! Enrollment covers every partition's workers (named `p{i}.cc{j}`,
//! `p{i}.exec{j}` via the engine's sim-prefix), the epoch sequencer
//! (`partseq`), and the driving client. Durability is always `Log`
//! mode (no fsync coordinator or checkpointer threads), so the barrier
//! name set is exact and `unknown_registrations` must stay empty.

use std::sync::Arc;

use orthrus_common::rng::XorShift64;
use orthrus_common::{sim, TempDir};
use orthrus_core::{AdmissionPolicy, CcAssignment, DurabilityMode, OrthrusConfig, TrySubmitError};
use orthrus_part::{route, PartitionedConfig, PartitionedEngine, Route};
use orthrus_storage::log::LogReader;
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};
use orthrus_workload::{MicroSpec, PartitionConstraint};

use crate::run::{draw_depth, sim_lock};
use crate::sched::{client_names, FaultPlan, SchedReport, SimScheduler};

/// Keyspace per partition-mapped table — tiny, so the hot set collides
/// and fused epochs repeat keys.
const N_RECORDS: u64 = 32;

/// Part-sim configuration, derived from a seed like [`crate::SimConfig`]
/// but over the partition-layer knobs: partition count, cross-partition
/// transfer fraction, multi-partition Rmw fraction, and epoch batch
/// size.
#[derive(Debug, Clone)]
pub struct PartSimConfig {
    pub seed: u64,
    pub parts: usize,
    pub txns: usize,
    pub n_cc: usize,
    pub n_exec: usize,
    /// Percent of programs emitted as two-endpoint transfers whose
    /// endpoints are guaranteed to span partitions.
    pub xfer_pct: u32,
    /// Percent of Rmw programs whose key set spans two partitions
    /// (sliced by key ownership rather than the transfer path).
    pub multi_pct: u32,
    /// Epoch batch bound — small values force many short epochs.
    pub epoch_max_batch: usize,
    /// In-flight ceiling per execution thread (4, 16 or 64).
    pub max_inflight: usize,
    pub admission: AdmissionPolicy,
    pub plan: FaultPlan,
}

impl PartSimConfig {
    /// Derive a configuration from a seed (derivation RNG decoupled
    /// from the scheduler's, same trick as `SimConfig::from_seed`).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x5EED_9A27_0DD5_0CA1);
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
        let mut cfg = PartSimConfig {
            seed,
            parts: 2 + rng.next_below(2) as usize,
            txns: 24 + rng.next_below(25) as usize,
            n_cc: 1,
            n_exec: 1 + rng.next_below(2) as usize,
            xfer_pct: [10, 30, 50][rng.next_below(3) as usize],
            multi_pct: [0, 10, 25][rng.next_below(3) as usize],
            epoch_max_batch: [1, 4, 16][rng.next_below(3) as usize],
            plan: FaultPlan {
                delay_pct: [0, 10, 30][rng.next_below(3) as usize],
                deny_push_pct: [0, 10][rng.next_below(2) as usize],
                shuffle_lanes: rng.chance_percent(50),
                ..FaultPlan::default()
            },
            admission,
            max_inflight: 4,
        };
        cfg.max_inflight = draw_depth(&mut rng, cfg.max_inflight, &mut cfg.admission);
        cfg
    }
}

/// Outcome of one part-sim run.
#[derive(Debug)]
pub struct PartSimOutcome {
    pub steps: u64,
    pub perturbations: u64,
    /// Global tickets minted (single- and cross-partition).
    pub accepted: u64,
    /// Cross-partition programs submitted (epoch-sequenced).
    pub cross: u64,
    /// Fused epoch records found across all partition logs.
    pub epochs_logged: u64,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    /// The schedule's observables — the corpus surfaces its transition
    /// coverage alongside the core corpus's (see `crate::cover`).
    pub report: SchedReport,
}

/// Fold one submitted program into the exact wrapping counter model.
fn apply_model(expected: &mut [u64], program: &Program) {
    match program {
        Program::Rmw { keys } => {
            for &k in keys {
                expected[k as usize] = expected[k as usize].wrapping_add(1);
            }
        }
        Program::Transfer { from, to, amount } => {
            expected[*from as usize] = expected[*from as usize].wrapping_sub(*amount);
            expected[*to as usize] = expected[*to as usize].wrapping_add(*amount);
        }
        _ => {}
    }
}

/// Run one partitioned-deployment lifetime under the seeded scheduler
/// and check conservation + semantics + epoch-ordered replay (module
/// docs).
pub fn run_part_sim(cfg: &PartSimConfig) -> PartSimOutcome {
    let _serial = sim_lock();
    let mut violations: Vec<String> = Vec::new();

    let mk_dbs = || -> Vec<Arc<Database>> {
        (0..cfg.parts)
            .map(|_| Arc::new(Database::Flat(Table::new(N_RECORDS as usize, 64))))
            .collect()
    };
    let dbs = mk_dbs();

    let scratch = TempDir::new("sim-part");
    let mk_pcfg = || {
        let mut ocfg = OrthrusConfig::with_threads(cfg.n_cc, cfg.n_exec, CcAssignment::KeyModulo);
        ocfg.max_inflight = cfg.max_inflight;
        ocfg.ingest_capacity = 16;
        ocfg.admission = cfg.admission.clone();
        // Always `Log`: the replay pin needs the journal, and plain log
        // mode spawns no sync/ckpt threads — the barrier name set below
        // stays exact.
        ocfg = ocfg.with_durability(DurabilityMode::Log, scratch.path());
        let mut pcfg = PartitionedConfig::new(cfg.parts, ocfg);
        pcfg.epoch_max_batch = cfg.epoch_max_batch;
        pcfg
    };
    let pcfg = mk_pcfg();

    // Barrier = every partition's threads (the engine enrolls them under
    // its per-partition sim prefix) + the sequencer + the client.
    let mut names = pcfg.thread_names();
    names.extend(client_names(1));
    let sched = Arc::new(SimScheduler::new(cfg.seed, names, cfg.plan.clone(), false));
    sim::install(Arc::<SimScheduler>::clone(&sched));

    let mut handle = PartitionedEngine::start(dbs.clone(), pcfg.clone(), cfg.seed);
    // Enroll *after* start(): the registration barrier waits for every
    // participant, and the workers are only spawned by start().
    let client = sim::enroll("client");

    let spec = MicroSpec::hot_cold(N_RECORDS, 8, 2, 3, false)
        .with_constraint(PartitionConstraint::MultiFraction {
            pct: cfg.multi_pct,
            of: cfg.parts as u32,
        })
        .with_transfers(cfg.xfer_pct);
    let mut generator = spec.generator(cfg.seed ^ 1, 0);

    let mut expected = vec![0u64; N_RECORDS as usize];
    let session = handle.session();
    let mut completions = Vec::new();
    let mut cross = 0u64;
    'submit: for i in 0..cfg.txns {
        let mut program = generator.next_program();
        apply_model(&mut expected, &program);
        if matches!(route(&program, &pcfg.map), Route::Cross(_)) {
            cross += 1;
        }
        loop {
            match session.try_submit(program) {
                Ok(_) => break,
                Err(TrySubmitError::Full(back)) => {
                    // Backpressure (a full ingest ring or epoch queue):
                    // drain and retry, parking at the sim seam so the
                    // sequencer can run.
                    program = back;
                    handle.drain_completions(&mut completions);
                    if !sim::on_park() {
                        std::thread::yield_now();
                    }
                }
                Err(e) => {
                    violations.push(format!("submit #{i} rejected: {e}"));
                    break 'submit;
                }
            }
        }
        if i % 8 == 7 {
            handle.drain_completions(&mut completions);
        }
    }

    let accepted = handle.accepted();
    if accepted != cfg.txns as u64 && violations.is_empty() {
        violations.push(format!(
            "submission ledger: accepted {accepted} of {} submitted",
            cfg.txns
        ));
    }

    // Unenroll before shutdown: joining the sequencer is not a sim
    // operation, so an enrolled client would block while holding the
    // scheduler's token.
    drop(client);
    match handle.try_shutdown() {
        Ok(stats) => {
            // Satellite: one hub breakdown per partition, and no
            // completion ever mis-routed (orphaned) or untagged
            // (unowned) — the sequencer owns every local ticket.
            if stats.hub.len() != cfg.parts {
                violations.push(format!(
                    "hub ledger: {} breakdowns for {} partitions",
                    stats.hub.len(),
                    cfg.parts
                ));
            }
            for bd in &stats.hub {
                if bd.orphaned != 0 || bd.unowned != 0 {
                    violations.push(format!(
                        "hub ledger: partition {} orphaned {} unowned {}",
                        bd.partition, bd.orphaned, bd.unowned
                    ));
                }
            }
        }
        Err(e) => violations.push(format!("shutdown failed: {e}")),
    }
    handle.drain_completions(&mut completions);

    // Global ticket conservation: every accepted ticket completes
    // exactly once through the fan-in, ids dense from zero.
    let mut tickets: Vec<u64> = completions.iter().map(|c| c.ticket.0).collect();
    tickets.sort_unstable();
    if tickets != (0..accepted).collect::<Vec<_>>() {
        violations.push(format!(
            "ticket conservation: {} completions for {accepted} accepted \
             (lost or duplicated tickets)",
            tickets.len()
        ));
    }

    // Semantics: every key's counter equals the wrapping model, and the
    // deployment-wide balance is conserved (cross-partition transfer
    // halves cancel exactly).
    let part_of = |k: u64| pcfg.map.partition_of(k);
    let mut live = vec![0u64; N_RECORDS as usize];
    for k in 0..N_RECORDS {
        live[k as usize] = unsafe { dbs[part_of(k)].read_counter(k) };
    }
    if live != expected {
        violations.push("serializability: counters diverged from the submitted model".into());
    }
    let total = |v: &[u64]| v.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    if total(&live) != total(&expected) {
        violations.push(format!(
            "money conservation: balance {} vs model {}",
            total(&live),
            total(&expected)
        ));
    }

    drop(handle);
    let report = sched.report();
    sim::uninstall();

    if !report.unknown_registrations.is_empty() {
        violations.push(format!(
            "unexpected sim participants: {:?}",
            report.unknown_registrations
        ));
    }

    // Epoch journal: each partition's command log must record its fused
    // batches with strictly increasing epoch numbers — per-partition log
    // order *is* epoch order, which is what makes independent replays
    // cross-partition consistent.
    let mut epochs_logged = 0u64;
    for p in 0..cfg.parts {
        let dir = scratch.path().join(format!("part-{p}"));
        let mut seen: Vec<u64> = Vec::new();
        let mut reader = match LogReader::open(&dir) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("partition {p}: log open failed: {e}"));
                continue;
            }
        };
        loop {
            match reader.next_record() {
                Ok(Some(payload)) => match orthrus_durability::codec::decode_run(&payload) {
                    Ok(commits) => {
                        for c in commits {
                            if let Program::Fused { epoch, .. } = &c.program {
                                if *epoch > 0 {
                                    seen.push(*epoch);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        violations.push(format!("partition {p}: undecodable record: {e:?}"));
                        break;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    violations.push(format!("partition {p}: log read failed: {e}"));
                    break;
                }
            }
        }
        if !seen.windows(2).all(|w| w[0] < w[1]) {
            violations.push(format!(
                "partition {p}: epochs out of order in the log: {seen:?}"
            ));
        }
        epochs_logged += seen.len() as u64;
    }
    if cross > 0 && epochs_logged == 0 {
        violations.push(format!(
            "{cross} cross-partition programs submitted but no fused epoch reached any log"
        ));
    }

    // Replay-determinism pin: recover every partition twice into fresh
    // databases; both recoveries must reconstruct the live state
    // exactly (and hence match each other) — epoch-ordered replay of
    // one partition's log is deterministic.
    for round in 0..2 {
        let fresh = mk_dbs();
        match PartitionedEngine::recover(&fresh, &mk_pcfg()) {
            Ok(reports) => {
                if reports.len() != cfg.parts {
                    violations.push(format!(
                        "recovery round {round}: {} reports for {} partitions",
                        reports.len(),
                        cfg.parts
                    ));
                }
                for k in 0..N_RECORDS {
                    let got = unsafe { fresh[part_of(k)].read_counter(k) };
                    if got != live[k as usize] {
                        violations.push(format!(
                            "recovery round {round}: key {k} replayed {got}, live {}",
                            live[k as usize]
                        ));
                        break;
                    }
                }
            }
            Err(e) => violations.push(format!("recovery round {round} failed: {e}")),
        }
    }

    PartSimOutcome {
        steps: report.steps,
        perturbations: report.perturbations,
        accepted,
        cross,
        epochs_logged,
        violations,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeds_conserve_across_partitions() {
        let mut saw_cross = false;
        for seed in 1..=4 {
            let cfg = PartSimConfig::from_seed(seed);
            let out = run_part_sim(&cfg);
            assert!(
                out.violations.is_empty(),
                "seed {seed} ({cfg:?}): {:?}",
                out.violations
            );
            assert_eq!(out.accepted, cfg.txns as u64);
            saw_cross |= out.cross > 0;
        }
        assert!(saw_cross, "the corpus must exercise the epoch path");
    }

    #[test]
    fn faulty_seed_still_conserves() {
        let mut cfg = PartSimConfig::from_seed(7);
        cfg.plan.delay_pct = 30;
        cfg.plan.deny_push_pct = 10;
        cfg.plan.shuffle_lanes = true;
        cfg.xfer_pct = 50;
        let out = run_part_sim(&cfg);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.perturbations > 0, "fault plan should actually fire");
        assert!(out.epochs_logged > 0, "epochs must reach the logs");
    }
}
