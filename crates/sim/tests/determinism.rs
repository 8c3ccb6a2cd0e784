//! The simulation layer's own contract tests.
//!
//! 1. **Determinism pin** (proptest): the same seed and configuration
//!    produce a bit-identical step trace (equal order-sensitive hashes,
//!    equal step counts) *and* bit-identical final table state across
//!    two independent runs — the property every `sim run --seed S`
//!    reproduction line depends on.
//! 2. **Grant reorder regression**: delaying and reordering lock-grant
//!    forwarding between CC threads (pop-delay + lane shuffle on the
//!    `cc_cc`/`cc_exec` rings) must not lose, duplicate, or misorder the
//!    admitted stream — ticket conservation and the serializability
//!    witnesses hold under schedules threaded tests cannot express.
//! 3. **Explorer smoke**: a small seed sweep runs clean end to end.
//! 4. **Pinned schedules**: the reproduction seeds 3, 17 and 42 keep
//!    their trace hashes.
//! 5. **Corpus depth**: every corpus runs a third of its seeds at the
//!    ledger's in-flight depth.

use proptest::prelude::*;

use orthrus_core::{AdmissionPolicy, DurabilityMode, SyncInterval};
use orthrus_sim::{
    explore, run_sim, CrashSimConfig, FaultPlan, NetSimConfig, PartSimConfig, SimConfig,
    WorkloadKind,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed + config ⇒ bit-identical schedule and state.
    #[test]
    fn same_seed_replays_bit_identically(seed in 1u64..5000) {
        let cfg = SimConfig::from_seed(seed);
        let a = run_sim(&cfg, false);
        let b = run_sim(&cfg, false);
        prop_assert_eq!(a.trace_hash, b.trace_hash, "schedules diverged");
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.perturbations, b.perturbations);
        prop_assert_eq!(a.state_digest, b.state_digest, "table state diverged");
        prop_assert_eq!(a.committed, b.committed);
    }
}

#[test]
fn capped_budget_replays_bit_identically() {
    // The minimizer's premise: (seed, budget) pins the whole run too.
    let mut cfg = SimConfig::from_seed(42);
    cfg.plan = cfg.plan.with_budget(25);
    let a = run_sim(&cfg, true);
    let b = run_sim(&cfg, true);
    assert_eq!(a.trace_hash, b.trace_hash);
    assert_eq!(a.report.trace, b.report.trace, "step-for-step replay");
    assert_eq!(a.state_digest, b.state_digest);
}

/// The reproduction lines `sim run --seed {3,17,42} --trace` print the
/// same schedule from one tree to the next. A change that moves one of
/// these schedules on purpose updates its hash here and says why in
/// CHANGES.md.
#[test]
fn pinned_seeds_keep_their_schedules() {
    for (seed, hash) in [
        (3, 0x0ee1_4573_a3a8_0e08u64),
        (17, 0xf14e_81b8_d57d_e88f),
        (42, 0x7e1e_eb1c_ffa7_c101),
    ] {
        let got = run_sim(&SimConfig::from_seed(seed), false).trace_hash;
        assert_eq!(got, hash, "seed {seed}: {got:#018x}");
    }
}

/// Every corpus runs at least a third of its CI seeds at the depth the
/// ledger's workloads run (16, or 64 walking from 16), and its batched
/// deep seeds drain the default batch.
#[test]
fn every_corpus_runs_a_third_of_its_seeds_deep() {
    let corpora: [(&str, Vec<(usize, AdmissionPolicy)>); 4] = [
        (
            "explore",
            (1..=50)
                .map(SimConfig::from_seed)
                .map(|c| (c.max_inflight, c.admission))
                .collect(),
        ),
        (
            "crash",
            (1..=40)
                .map(CrashSimConfig::from_seed)
                .map(|c| (c.max_inflight, c.admission))
                .collect(),
        ),
        (
            "net",
            (1..=25)
                .map(NetSimConfig::from_seed)
                .map(|c| (c.max_inflight, c.admission))
                .collect(),
        ),
        (
            "part",
            (1..=50)
                .map(PartSimConfig::from_seed)
                .map(|c| (c.max_inflight, c.admission))
                .collect(),
        ),
    ];
    for (corpus, seeds) in corpora {
        let deep: Vec<_> = seeds.iter().filter(|(depth, _)| *depth >= 16).collect();
        assert!(
            3 * deep.len() >= seeds.len(),
            "{corpus}: {} of {} seeds deep",
            deep.len(),
            seeds.len()
        );
        for (depth, admission) in deep {
            assert!([16, 64].contains(depth), "{corpus}: depth {depth}");
            if let AdmissionPolicy::ConflictBatch { batch, .. } = admission {
                assert_eq!(*batch, 16, "{corpus}: a deep seed drains the default batch");
            }
        }
    }
}

/// Heavy delay/reordering restricted to the CC→CC forwarding and CC→exec
/// grant rings, under both admission policies.
#[test]
fn delayed_and_reordered_grant_forwarding_conserves_admitted_stream() {
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 4,
        },
    ];
    for (i, admission) in policies.into_iter().enumerate() {
        for seed in [3, 17, 91] {
            // Multi-CC shape with forwarding on: grants for a
            // multi-partition transaction travel cc→cc before the final
            // cc→exec hop, so delays here reorder the grant stream the
            // deadlock-freedom argument depends on.
            let cfg = SimConfig {
                seed,
                txns: 32,
                n_cc: 3,
                n_exec: 2,
                max_inflight: 3,
                flush_threshold: 4,
                ingest_capacity: 16,
                admission: admission.clone(),
                durability: DurabilityMode::Off,
                sync_interval: SyncInterval::PerRun,
                checkpoint_bytes: None,
                forwarding: true,
                workload: WorkloadKind::MicroHot,
                n_clients: 1,
                keep: None,
                poison: None,
                plan: FaultPlan {
                    delay_pct: 40,
                    deny_push_pct: 0,
                    shuffle_lanes: true,
                    delay_labels: Some(vec!["cc_cc".to_string(), "cc_exec".to_string()]),
                    ..FaultPlan::default()
                },
            };
            let out = run_sim(&cfg, false);
            assert!(
                out.violations.is_empty(),
                "policy {i}, seed {seed}: {:?}",
                out.violations
            );
            assert_eq!(out.committed, 32, "policy {i}, seed {seed}");
            assert!(
                out.perturbations > 0,
                "policy {i}, seed {seed}: the fault plan never fired"
            );
        }
    }
}

/// Durable mode under the same grant perturbations: the replay pin
/// inside `run_sim` additionally checks log completeness.
#[test]
fn delayed_grants_with_durability_replay_cleanly() {
    let cfg = SimConfig {
        seed: 7,
        txns: 28,
        n_cc: 2,
        n_exec: 2,
        max_inflight: 3,
        flush_threshold: 4,
        ingest_capacity: 16,
        admission: AdmissionPolicy::Fifo,
        durability: DurabilityMode::Log,
        sync_interval: SyncInterval::PerRun,
        checkpoint_bytes: None,
        forwarding: true,
        workload: WorkloadKind::MicroUniform,
        n_clients: 1,
        keep: None,
        poison: None,
        plan: FaultPlan {
            delay_pct: 30,
            deny_push_pct: 10,
            shuffle_lanes: true,
            ..FaultPlan::default()
        },
    };
    let out = run_sim(&cfg, false);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

/// Rung-2 durability under the scheduler: the group-fsync coordinator
/// and the fuzzy checkpointer enroll as `sync`/`ckpt` participants, the
/// run stays violation-free under grant faults, and the whole thing —
/// watermark handoffs, sync batching, checkpoint timing — replays
/// bit-identically from the seed.
#[test]
fn group_fsync_and_checkpoints_replay_deterministically_under_faults() {
    let cfg = SimConfig {
        seed: 11,
        txns: 32,
        n_cc: 2,
        n_exec: 2,
        max_inflight: 3,
        flush_threshold: 4,
        ingest_capacity: 16,
        admission: AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 4,
        },
        durability: DurabilityMode::LogFsync,
        sync_interval: SyncInterval::Adaptive,
        checkpoint_bytes: Some(192),
        forwarding: true,
        workload: WorkloadKind::MicroHot,
        n_clients: 1,
        keep: None,
        poison: None,
        plan: FaultPlan {
            delay_pct: 30,
            deny_push_pct: 10,
            shuffle_lanes: true,
            ..FaultPlan::default()
        },
    };
    let a = run_sim(&cfg, false);
    assert!(a.violations.is_empty(), "{:?}", a.violations);
    assert!(
        a.thread_names.iter().any(|n| n == "sync"),
        "coordinator not enrolled"
    );
    assert!(
        a.thread_names.iter().any(|n| n == "ckpt"),
        "checkpointer not enrolled"
    );
    let b = run_sim(&cfg, false);
    assert_eq!(a.trace_hash, b.trace_hash, "schedule diverged");
    assert_eq!(a.state_digest, b.state_digest);
}

/// Above sixteen in flight the execution threads walk their depth from
/// the grants they receive, and a batched run may fill the headroom
/// under the ceiling rather than under the cap. Under the scheduler both
/// rules must keep every invariant and replay bit-identically from the
/// seed, like everything else, under each admission policy. (About a
/// third of the corpora's seeds run each of 2–4, 16 and 64 in flight;
/// this pins 32 under both policies at a fixed transaction count.)
#[test]
fn a_walking_inflight_depth_conserves_and_replays() {
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 16,
        },
    ];
    for admission in policies {
        let mut fused = false;
        for seed in [4, 19, 58, 203] {
            let mut cfg = SimConfig::from_seed(seed);
            cfg.admission = admission.clone();
            cfg.max_inflight = 32;
            cfg.ingest_capacity = 64;
            cfg.txns = 80;
            let a = run_sim(&cfg, false);
            assert!(
                a.violations.is_empty(),
                "{admission} seed {seed}: {:?}",
                a.violations
            );
            assert_eq!(a.committed, 80, "{admission} seed {seed}");
            assert!(a.inflight_max <= 32, "{admission} seed {seed}");
            if admission == AdmissionPolicy::Fifo {
                assert_eq!(a.runs, 80, "seed {seed}: FIFO runs hold one");
            }
            fused |= a.runs < a.committed;
            let b = run_sim(&cfg, false);
            assert_eq!(
                a.trace_hash, b.trace_hash,
                "{admission} seed {seed}: schedule diverged"
            );
            assert_eq!(a.steps, b.steps, "{admission} seed {seed}");
            assert_eq!(
                a.state_digest, b.state_digest,
                "{admission} seed {seed}: state diverged"
            );
        }
        assert_eq!(
            fused,
            admission != AdmissionPolicy::Fifo,
            "{admission}: whether some run fused"
        );
    }
}

#[test]
fn explorer_smoke() {
    let report = explore(9000, 6, Some(12), false, false);
    assert_eq!(report.seeds_run, 6);
    assert!(
        report.failures.is_empty(),
        "{}",
        report
            .failures
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Guided runs are as deterministic as uniform ones: the snapshot is
    /// part of the run's input, so `(seed, budget, snapshot)` pins the
    /// schedule and the final state bit-for-bit. This is what makes a
    /// `sim explore --guided` failure reproducible at all.
    #[test]
    fn guided_runs_replay_bit_identically(seed in 1u64..2000) {
        use orthrus_sim::run_sim_guided;
        // The snapshot a second seed would see mid-sweep: the first
        // run's transition set.
        let first = run_sim(&SimConfig::from_seed(seed), false);
        let snapshot = first.report.transitions.clone();
        let cfg = SimConfig::from_seed(seed + 1);
        let a = run_sim_guided(&cfg, false, Some(snapshot.clone()));
        let b = run_sim_guided(&cfg, false, Some(snapshot));
        prop_assert_eq!(a.trace_hash, b.trace_hash, "seed {}: schedule diverged", seed);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.state_digest, b.state_digest, "seed {}: state diverged", seed);
        // And the snapshot genuinely steered: a guided run is a
        // *different* pure function than the uniform one (it may
        // coincide for some seed, so assert only on the pinned pair).
        prop_assert_eq!(a.committed, b.committed);
    }

    /// The crash-restart corpus is deterministic *across the restart
    /// boundary*: both generations — the kill, the in-sim recovery, the
    /// post-restart batch — hash into one schedule that replays
    /// bit-identically from the seed.
    #[test]
    fn crash_runs_replay_bit_identically(seed in 1u64..64) {
        use orthrus_sim::{run_crash_sim, CrashSimConfig};
        let cfg = CrashSimConfig::from_seed(seed);
        let a = run_crash_sim(&cfg, false);
        let b = run_crash_sim(&cfg, false);
        prop_assert_eq!(a.crashed, b.crashed, "seed {}", seed);
        prop_assert_eq!(a.trace_hash, b.trace_hash, "seed {}: schedule diverged", seed);
        prop_assert_eq!(a.steps, b.steps, "seed {}", seed);
        prop_assert_eq!(a.replayed, b.replayed, "seed {}", seed);
        prop_assert_eq!(a.state_digest, b.state_digest, "seed {}: state diverged", seed);
    }
}

/// The first crash-corpus seed in `1..64` whose victim is `victim` and
/// whose crash fires, with its outcome. Chosen by property, not pinned: a
/// change that shortens a seed's run past its `at_step` moves the test
/// to the next seed instead of silently dropping the crash.
fn first_fired_crash(victim: &str) -> orthrus_sim::CrashSimOutcome {
    use orthrus_sim::{run_crash_sim, CrashSimConfig};
    (1u64..64)
        .map(CrashSimConfig::from_seed)
        .filter(|cfg| cfg.plan.crash.as_ref().is_some_and(|c| c.victim == victim))
        .map(|cfg| run_crash_sim(&cfg, false))
        .find(|out| out.crashed)
        .unwrap_or_else(|| panic!("no seed in 1..64 fires a crash of {victim}"))
}

/// An execution-thread crash mid-run recovers inside the same
/// simulation: the victim dies at its scheduled step, recovery replays
/// the log in-sim, the restarted engine completes a post-crash batch,
/// and every durability invariant holds.
#[test]
fn exec_thread_crash_recovers_in_sim() {
    let out = first_fired_crash("exec0");
    assert!(out.crashed);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
}

/// Same, with the group-fsync coordinator as the victim: exec threads
/// must fail loudly (not hang) when the sync watermark dies with it, and
/// recovery must still replay exactly the durable prefix.
#[test]
fn sync_coordinator_crash_recovers_in_sim() {
    let out = first_fired_crash("sync");
    assert!(out.crashed);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(
        out.thread_names.iter().any(|n| n == "sync"),
        "coordinator not enrolled"
    );
}

/// Multiple enrolled client threads submitting interleaved slices of one
/// workload: ticket conservation and the exact per-key model hold under
/// both admission policies, and the whole thing replays from the seed.
#[test]
fn multi_client_sessions_conserve_under_all_admission_policies() {
    let policies = [
        AdmissionPolicy::Fifo,
        AdmissionPolicy::ConflictBatch {
            classes: 4,
            batch: 4,
        },
    ];
    for (i, admission) in policies.into_iter().enumerate() {
        let cfg = SimConfig {
            seed: 61,
            txns: 30,
            n_clients: 3,
            n_cc: 2,
            n_exec: 2,
            max_inflight: 3,
            flush_threshold: 4,
            ingest_capacity: 16,
            admission,
            durability: DurabilityMode::Log,
            sync_interval: SyncInterval::PerRun,
            checkpoint_bytes: None,
            forwarding: true,
            workload: WorkloadKind::MicroUniform,
            keep: None,
            poison: None,
            plan: FaultPlan {
                delay_pct: 20,
                deny_push_pct: 10,
                shuffle_lanes: true,
                ..FaultPlan::default()
            },
        };
        let a = run_sim(&cfg, false);
        assert!(a.violations.is_empty(), "policy {i}: {:?}", a.violations);
        assert_eq!(a.committed, 30, "policy {i}: every submission completes");
        let b = run_sim(&cfg, false);
        assert_eq!(a.trace_hash, b.trace_hash, "policy {i}: schedule diverged");
        assert_eq!(a.state_digest, b.state_digest);
    }
}

/// The workload shrinker on a hand-seeded failure: poison a hot key so
/// the invariant trips once a handful of transactions have bumped it,
/// then check the delta debugger cuts the repro to single digits.
#[test]
fn poisoned_run_shrinks_to_single_digit_transactions() {
    use orthrus_sim::minimize;
    let mut cfg = SimConfig::from_seed(77);
    cfg.workload = WorkloadKind::MicroHot;
    cfg.txns = 40;
    cfg.n_clients = 1;
    cfg.keep = None;
    cfg.poison = Some((0, 3));
    let out = run_sim(&cfg, false);
    assert!(
        out.violations.iter().any(|v| v.contains("poison")),
        "the poisoned key must trip on the full run: {:?}",
        out.violations
    );
    let report = minimize(&cfg, out, None);
    let kept = report
        .kept
        .as_ref()
        .expect("a 3-hit poison must shrink below 40 transactions");
    assert!(
        kept.len() <= 10,
        "shrunken repro should be single-digit transactions, got {}",
        kept.len()
    );
    assert!(
        report.violations.iter().any(|v| v.contains("poison")),
        "the shrunken repro must still trip the poison: {:?}",
        report.violations
    );
}
