//! Property tests for the lock-plan grouping — the structure the whole
//! deadlock-freedom argument rests on — a model-based check of the CC
//! thread's lock state machine, and the pin that keeps `Fifo` admission
//! identical to the seed's inlined admission path.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;

use orthrus_common::{FxHashMap, Key, LockMode, XorShift64};
use orthrus_storage::tpcc::{TpccConfig, TpccDb};
use orthrus_storage::Table;
use orthrus_txn::{plan_accesses, AccessSet, Database};
use orthrus_workload::{MicroSpec, Spec, TpccSpec};

use crate::admit::{AdmissionPolicy, Admitter};
use crate::cc::{CcState, OutMsg};
use crate::msg::{CcRequest, ExecResponse, Token};
use crate::plan::{LockPlan, PlanScratch, Span};
use crate::source::SyntheticSource;

fn mode_strategy() -> impl Strategy<Value = LockMode> {
    prop_oneof![Just(LockMode::Shared), Just(LockMode::Exclusive)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Spans tile the entry list exactly, ascend strictly by CC id, and
    /// every entry lands on the CC thread the mapping assigns it.
    #[test]
    fn spans_tile_and_ascend(
        raw in prop::collection::vec((0u64..512, mode_strategy()), 1..64),
        n_cc in 1u32..16,
    ) {
        let set = AccessSet::from_unsorted(raw);
        let plan = LockPlan::build(&set, |k| (k % n_cc as u64) as u32);

        // Tiling: spans cover [0, entries.len()) contiguously.
        let mut cursor = 0u32;
        for s in plan.spans() {
            prop_assert_eq!(s.start, cursor);
            prop_assert!(s.end > s.start);
            cursor = s.end;
        }
        prop_assert_eq!(cursor as usize, plan.entries().len());

        // Strictly ascending CC order (the global acquisition order).
        for w in plan.spans().windows(2) {
            prop_assert!(w[0].cc < w[1].cc);
        }

        // Ownership and intra-span key order.
        for (i, s) in plan.spans().iter().enumerate() {
            let entries = plan.span_entries(i);
            for &(k, _) in entries {
                prop_assert_eq!((k % n_cc as u64) as u32, s.cc);
            }
            for w in entries.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "keys sorted within span");
            }
        }
    }

    /// The plan loses nothing: its entries are a permutation of the access
    /// set's entries.
    #[test]
    fn plan_preserves_access_set(
        raw in prop::collection::vec((0u64..256, mode_strategy()), 1..64),
        n_cc in 1u32..8,
    ) {
        let set = AccessSet::from_unsorted(raw);
        let plan = LockPlan::build(&set, |k| (k % n_cc as u64) as u32);
        let mut from_plan: Vec<_> = plan.entries().to_vec();
        let mut from_set: Vec<_> = set.entries().to_vec();
        from_plan.sort_unstable_by_key(|e| e.0);
        from_set.sort_unstable_by_key(|e| e.0);
        prop_assert_eq!(from_plan, from_set);
    }

    /// Rebuilding in the buffers of a plan (and a sort scratch) that
    /// still hold another transaction gives exactly the plan that
    /// grouping from scratch gives, for any set and any key→CC map. The
    /// reference is the construction `build` used before it shared
    /// `rebuild`'s code: tag, sort by (cc, key), cut spans.
    #[test]
    fn rebuilding_a_used_plan_equals_building_a_fresh_one(
        raw in prop::collection::vec((0u64..256, mode_strategy()), 0..64),
        stale in prop::collection::vec((0u64..256, mode_strategy()), 0..64),
        cc_map in prop::collection::vec(0u32..6, 1..32),
    ) {
        let cc_of = |k: Key| cc_map[k as usize % cc_map.len()];
        let set = AccessSet::from_unsorted(raw);

        let mut tagged: Vec<(u32, Key, LockMode)> =
            set.entries().iter().map(|&(k, m)| (cc_of(k), k, m)).collect();
        tagged.sort_unstable_by_key(|&(cc, k, _)| (cc, k));
        let mut spans: Vec<Span> = Vec::new();
        for (i, &(cc, _, _)) in tagged.iter().enumerate() {
            match spans.last_mut() {
                Some(s) if s.cc == cc => s.end = (i + 1) as u32,
                _ => spans.push(Span { cc, start: i as u32, end: (i + 1) as u32 }),
            }
        }
        let entries: Vec<(Key, LockMode)> = tagged.iter().map(|&(_, k, m)| (k, m)).collect();

        let fresh = LockPlan::build(&set, cc_of);
        prop_assert_eq!(fresh.entries(), &entries[..]);
        prop_assert_eq!(fresh.spans(), &spans[..]);

        let mut scratch = PlanScratch::new();
        let mut reused = LockPlan::default();
        reused.rebuild(&AccessSet::from_unsorted(stale), &mut scratch, |k| (k % 5) as u32);
        reused.rebuild(&set, &mut scratch, cc_of);
        prop_assert_eq!(reused, fresh);
    }

    /// `n_cc_involved` counts exactly the distinct CC threads.
    #[test]
    fn ncc_counts_distinct_ccs(
        raw in prop::collection::vec((0u64..64, mode_strategy()), 1..32),
        n_cc in 1u32..8,
    ) {
        let set = AccessSet::from_unsorted(raw);
        let plan = LockPlan::build(&set, |k| (k % n_cc as u64) as u32);
        let mut ccs: Vec<u32> = set
            .entries()
            .iter()
            .map(|&(k, _)| (k % n_cc as u64) as u32)
            .collect();
        ccs.sort_unstable();
        ccs.dedup();
        prop_assert_eq!(plan.n_cc_involved(), ccs.len());
    }
}

// ---- Fifo admission ≡ seed admission -------------------------------------
//
// The seed inlined admission in the execution thread: pull a program from
// the thread's generator, plan it with the thread's planning RNG
// (`seed ^ 0x6578_6563`), admit. The `Fifo` policy must reproduce that
// stream bit for bit — programs AND plans — so the policy layer is a pure
// refactor, not a behaviour change. Since the open-loop redesign the
// admitter pulls through the `TxnSource` seam, so these pins now also
// guarantee that `SyntheticSource` is transparent: generator → source →
// admitter yields the identical stream the seed's inlined
// generate-then-plan produced. The reference below is written against
// the raw generator + `plan_accesses`, independent of both the
// `Admitter` and the source implementation.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Micro workloads: every admission matches the seed's
    /// generate-then-plan order for any spec shape, seed, and thread id.
    #[test]
    fn fifo_admission_matches_seed_stream_micro(
        seed in any::<u64>(),
        exec_id in 0u16..4,
        n_records in 64u64..512,
        ops in 1usize..6,
        hot in prop::option::of(1u64..8),
        read_only in any::<bool>(),
    ) {
        let spec = match hot {
            Some(n_hot) => {
                let hot_ops = (n_hot as usize).min(ops);
                MicroSpec::hot_cold(n_records, n_hot, hot_ops, ops, read_only)
            }
            None => MicroSpec::uniform(n_records, ops, read_only),
        };
        let db = Database::Flat(Table::new(n_records as usize, 8));
        let mut admit = Admitter::new(
            &AdmissionPolicy::Fifo,
            SyntheticSource::new(Spec::Micro(spec.clone()).generator(seed, exec_id as usize)),
            seed,
            exec_id,
            0,
        );
        let mut ref_gen = spec.generator(seed, exec_id as usize);
        let mut ref_rng = XorShift64::for_thread(seed ^ 0x6578_6563, exec_id as usize);
        for round in 0..24 {
            // Half the admissions go through the run API with headroom > 1
            // (the execution thread's shape): Fifo runs are still single
            // transactions in seed order, whatever `max` allows.
            let a = if round % 2 == 0 {
                admit.next(&db).expect("synthetic sources always admit")
            } else {
                let mut run = admit.next_run(&db, 8);
                prop_assert_eq!(run.len(), 1, "fifo admits runs of one");
                run.pop().unwrap()
            };
            let program = ref_gen.next_program();
            let plan = plan_accesses(&program, &db, 0, &mut ref_rng);
            prop_assert_eq!(&a.program, &program, "admission order diverged");
            prop_assert_eq!(&a.plan, &plan, "admission-time plan diverged");
            prop_assert_eq!(a.reply, None, "synthetic work is unticketed");
        }
        prop_assert_eq!(admit.queued(), 0, "fifo must not queue ahead");
    }

    /// TPC-C with OLLP noise: the reconnaissance RNG stream (consumed
    /// during planning) must also stay aligned with the seed's.
    #[test]
    fn fifo_admission_matches_seed_stream_tpcc(
        seed in any::<u64>(),
        exec_id in 0u16..3,
        noise in 0u32..=100,
    ) {
        let cfg_t = TpccConfig::tiny(2);
        let db = Database::Tpcc(TpccDb::load(cfg_t, 5));
        let spec = TpccSpec::paper_mix(cfg_t);
        let mut admit = Admitter::new(
            &AdmissionPolicy::Fifo,
            SyntheticSource::new(Spec::Tpcc(spec.clone()).generator(seed, exec_id as usize)),
            seed,
            exec_id,
            noise,
        );
        let mut ref_gen = spec.generator(seed, exec_id as usize);
        let mut ref_rng = XorShift64::for_thread(seed ^ 0x6578_6563, exec_id as usize);
        for _ in 0..16 {
            let a = admit.next(&db).expect("synthetic sources always admit");
            let program = ref_gen.next_program();
            let plan = plan_accesses(&program, &db, noise, &mut ref_rng);
            prop_assert_eq!(&a.program, &program);
            prop_assert_eq!(&a.plan, &plan);
        }
    }
}

// ---- Model-based check of the CC state machine --------------------------
//
// A reference implementation of the single-CC lock discipline (FIFO
// queues, longest-compatible-prefix grants, whole-span completion) runs
// in lockstep with `CcState` over randomly generated acquire/release
// schedules; grant emissions must match step by step (as multisets: the
// order of completions within one release step is not semantically
// meaningful).

/// Per-key model state: current holders and the FIFO wait queue.
type ModelEntry = (Vec<(u64, LockMode)>, VecDeque<(u64, LockMode)>);

/// The reference model: per-key holders + FIFO waiters, per-transaction
/// ungranted countdown.
#[derive(Default)]
struct Model {
    entries: FxHashMap<Key, ModelEntry>,
    remaining: FxHashMap<u64, usize>,
}

impl Model {
    fn compatible(holders: &[(u64, LockMode)], mode: LockMode) -> bool {
        holders.iter().all(|&(_, m)| !m.conflicts_with(mode))
    }

    /// Returns the tokens completed by this acquire (0 or 1).
    fn acquire(&mut self, token: u64, plan: &[(Key, LockMode)]) -> Vec<u64> {
        let mut ungranted = 0usize;
        for &(k, m) in plan {
            let (holders, waiters) = self.entries.entry(k).or_default();
            if waiters.is_empty() && Self::compatible(holders, m) {
                holders.push((token, m));
            } else {
                waiters.push_back((token, m));
                ungranted += 1;
            }
        }
        if ungranted == 0 {
            vec![token]
        } else {
            self.remaining.insert(token, ungranted);
            Vec::new()
        }
    }

    /// Returns the tokens completed by this release (any number).
    fn release(&mut self, token: u64, plan: &[(Key, LockMode)]) -> Vec<u64> {
        let mut done = Vec::new();
        for &(k, _) in plan {
            let (holders, waiters) = self.entries.get_mut(&k).expect("release unknown key");
            holders.retain(|&(t, _)| t != token);
            while let Some(&(t, m)) = waiters.front() {
                if !Self::compatible(holders, m) {
                    break;
                }
                waiters.pop_front();
                holders.push((t, m));
                let r = self
                    .remaining
                    .get_mut(&t)
                    .expect("waiter without countdown");
                *r -= 1;
                if *r == 0 {
                    self.remaining.remove(&t);
                    done.push(t);
                }
            }
        }
        done
    }

    fn holders_of(&self, k: Key) -> Vec<u64> {
        self.entries
            .get(&k)
            .map(|(h, _)| h.iter().map(|&(t, _)| t).collect())
            .unwrap_or_default()
    }
}

fn grants_of(out: &[OutMsg]) -> Vec<u16> {
    out.iter()
        .map(|m| match m {
            OutMsg::ToExec {
                resp: ExecResponse::Granted { slot, .. },
                ..
            } => *slot,
            OutMsg::ToCc { .. } => panic!("single-CC plans never forward"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CcState and the reference model emit identical grants over random
    /// schedules, and both drain to empty.
    #[test]
    fn cc_state_matches_reference_model(
        plans in prop::collection::vec(
            prop::collection::vec((0u64..12, mode_strategy()), 1..6),
            1..24,
        ),
        schedule in prop::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut cc = CcState::new(0, 64);
        let mut model = Model::default();
        let mut out = Vec::new();

        // Per-transaction state: its deduplicated plan and lifecycle.
        let plans: Vec<Arc<LockPlan>> = plans
            .iter()
            .map(|raw| Arc::new(LockPlan::build(&AccessSet::from_unsorted(raw.clone()), |_| 0)))
            .collect();
        let token = |i: usize| Token { exec: 0, slot: i as u16, gen: 0 };

        let mut next_submit = 0usize;
        let mut granted: Vec<usize> = Vec::new(); // awaiting release
        let mut outstanding = 0usize;             // submitted, not granted

        let mut step = |cc: &mut CcState,
                        model: &mut Model,
                        submit: bool,
                        next_submit: &mut usize,
                        granted: &mut Vec<usize>,
                        outstanding: &mut usize|
         -> Result<(), TestCaseError> {
            out.clear();
            let expected: Vec<u64>;
            if submit && *next_submit < plans.len() {
                let i = *next_submit;
                *next_submit += 1;
                let entries = plans[i].entries().to_vec();
                expected = model.acquire(token(i).pack(), &entries);
                cc.handle(
                    CcRequest::Acquire {
                        token: token(i),
                        plan: Arc::clone(&plans[i]),
                        span_idx: 0,
                        forward: true,
                        waiters: 0,
                    },
                    &mut out,
                );
                *outstanding += 1;
            } else if let Some(i) = granted.pop() {
                let entries = plans[i].entries().to_vec();
                expected = model.release(token(i).pack(), &entries);
                cc.handle(
                    CcRequest::Release {
                        token: token(i),
                        plan: Arc::clone(&plans[i]),
                        span_idx: 0,
                    },
                    &mut out,
                );
            } else {
                return Ok(());
            }
            // Grants must match as multisets. For exec 0, gen 0 the packed
            // token equals the slot, so expected tokens recover slots
            // directly.
            let mut got = grants_of(&out);
            let mut want: Vec<u16> = expected.iter().map(|&t| t as u16).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(&got, &want, "grant mismatch");
            for &slot in &got {
                granted.push(slot as usize);
                *outstanding -= 1;
            }
            // Holder sets agree on every key.
            for k in 0u64..12 {
                let mut a = cc.holders_of(k);
                let mut b = model.holders_of(k);
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "holders diverge on key {}", k);
            }
            prop_assert_eq!(cc.pending_count(), *outstanding, "pending count");
            Ok(())
        };

        for &submit in &schedule {
            step(&mut cc, &mut model, submit, &mut next_submit, &mut granted, &mut outstanding)?;
        }
        // Drain: submit everything left, then release until quiescent.
        while next_submit < plans.len() {
            step(&mut cc, &mut model, true, &mut next_submit, &mut granted, &mut outstanding)?;
        }
        while !granted.is_empty() {
            step(&mut cc, &mut model, false, &mut next_submit, &mut granted, &mut outstanding)?;
        }
        prop_assert_eq!(outstanding, 0, "every transaction granted");
        prop_assert_eq!(cc.pending_count(), 0);
        for k in 0u64..12 {
            prop_assert!(cc.holders_of(k).is_empty(), "key {} still held", k);
        }
    }
}

proptest! {
    // Engine-spawning cases are expensive; a handful covers the policy ×
    // shape space (the deterministic sub-steps are pinned separately in
    // orthrus-durability's proptests).
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Replay determinism (the durability contract's keystone): a
    /// service-mode run with command logging, shut down cleanly, then
    /// replayed from its log into a fresh database, yields **bit-identical
    /// table contents** to the live run's final state — under every
    /// admission policy, arbitrary key mixes, and enough submissions to
    /// exercise fused multi-transaction records.
    #[test]
    fn replay_reproduces_live_state_bit_for_bit(
        programs in prop::collection::vec(
            prop::collection::vec(0u64..48, 1..5),
            20..120,
        ),
        batched in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let _serial = crate::test_serial();
        let scratch = orthrus_common::TempDir::new("replay-pin");
        let admission = if batched {
            AdmissionPolicy::ConflictBatch { classes: 4, batch: 8 }
        } else {
            AdmissionPolicy::Fifo
        };
        let db = Arc::new(Database::Flat(Table::new(48, 64)));
        let mut cfg = crate::config::OrthrusConfig::with_threads(
            1,
            2,
            crate::config::CcAssignment::KeyModulo,
        )
        .with_durability(orthrus_durability::DurabilityMode::Log, scratch.path());
        cfg.admission = admission;
        let engine = crate::engine::OrthrusEngine::service(Arc::clone(&db), cfg.clone());
        let mut handle = engine.start(seed);
        let session = handle.session();
        for keys in &programs {
            session
                .submit(orthrus_txn::Program::Rmw { keys: keys.clone() })
                .expect("engine is accepting");
        }
        let stats = handle.shutdown();
        prop_assert_eq!(stats.totals.committed_all as usize, programs.len());
        drop(handle);
        drop(engine);

        let fresh = Arc::new(Database::Flat(Table::new(48, 64)));
        let (recovered, report) =
            crate::engine::OrthrusEngine::recover(Arc::clone(&fresh), cfg);
        prop_assert_eq!(report.txns as usize, programs.len());
        prop_assert_eq!(report.tickets.len(), programs.len());
        // Bit-identical table contents: every record counter agrees.
        for k in 0..48u64 {
            // SAFETY: both databases are quiesced (engines shut down).
            let (live, replayed) = unsafe { (db.read_counter(k), fresh.read_counter(k)) };
            prop_assert_eq!(live, replayed, "key {} diverged", k);
        }
        drop(recovered);
    }
}
