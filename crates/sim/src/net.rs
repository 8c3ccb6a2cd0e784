//! Simulated runs over the TCP front door (`orthrus-net`).
//!
//! The engine-only corpus ([`crate::run`]) pins bit-identical traces
//! because every participating thread enrolls in the scheduler before
//! the run starts. The net stack cannot make that promise: connection
//! threads are spawned *by an accept*, which only happens once the
//! registration barrier has already released, and socket readiness is
//! OS timing the virtual clock never sees. So the net corpus asserts a
//! deliberately different contract:
//!
//! - **Convergence** — the run finishes: every submitted transaction is
//!   answered over the wire, under seeded scheduler perturbations of
//!   the enrolled threads (CC, exec, `netlisten`).
//! - **Conservation** — per-connection request-id sets match exactly
//!   (nothing lost, nothing duplicated, nothing cross-routed), the
//!   engine commits exactly what it accepted, and the completion hub's
//!   routed/orphaned/unowned ledger accounts for every completion.
//! - **Semantics** — the final counter table equals the submitted
//!   Rmw model, i.e. serializability survives the wire.
//!
//! Enrollment: the barrier covers the engine workers plus `netlisten`
//! (whose doorbell wait is a sim park step — an enrolled thread never
//! OS-blocks). The per-connection `netconn{i}` readers and `netconn{i}w`
//! writers *do* call [`orthrus_common::sim::enroll`] but their names are
//! unknown to the scheduler, so enrollment no-ops and they free-run,
//! really parking on their doorbells; the scheduler records them in
//! `unknown_registrations`, which we filter — any unknown participant
//! *not* named `netconn*` is a violation (a thread the barrier should
//! have covered).

use std::sync::Arc;
use std::time::Duration;

use orthrus_common::rng::XorShift64;
use orthrus_common::sim;
use orthrus_core::{AdmissionPolicy, CcAssignment, OrthrusConfig, OrthrusEngine};
use orthrus_net::{NetClient, NetConfig, NetServer};
use orthrus_storage::Table;
use orthrus_txn::{Database, Program};
use orthrus_workload::{MicroSpec, Spec};

use crate::run::{draw_depth, sim_lock};
use crate::sched::{FaultPlan, SchedReport, SimScheduler};

/// Keyspace for the net corpus — tiny, so conflicts are the norm.
const N_RECORDS: u64 = 32;
/// Per-client response deadline. Generous: the serialized scheduler
/// makes wall-clock progress slow, and a hang past this is exactly the
/// non-convergence the corpus exists to catch.
const RECV_DEADLINE: Duration = Duration::from_secs(60);

/// Net-sim configuration, derived from a seed like [`crate::SimConfig`]
/// but over the front-door-relevant knobs: connection count, frame-size
/// cap, and tiny rings so backpressure actually engages.
#[derive(Debug, Clone)]
pub struct NetSimConfig {
    pub seed: u64,
    /// Sequentially-driven client connections.
    pub conns: usize,
    /// Transactions per connection.
    pub txns_per_conn: usize,
    pub n_cc: usize,
    pub n_exec: usize,
    /// In-flight ceiling per execution thread (4, 16 or 64).
    pub max_inflight: usize,
    pub admission: AdmissionPolicy,
    pub plan: FaultPlan,
    /// Front-end tuning (small rings/caps so the backpressure and
    /// overflow paths run even at sim scale).
    pub net: NetConfig,
}

impl NetSimConfig {
    /// Derive a configuration from a seed (derivation RNG decoupled
    /// from the scheduler's, same trick as `SimConfig::from_seed`).
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x5EED_0F0E_7E57_0137);
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
        let net = NetConfig {
            batch_max: [4, 8, 16][rng.next_below(3) as usize],
            client_ring: 8,
            backpressure_cap: [4, 16][rng.next_below(2) as usize],
            ..NetConfig::default()
        };
        let mut cfg = NetSimConfig {
            seed,
            conns: 1 + rng.next_below(2) as usize,
            txns_per_conn: 16 + rng.next_below(17) as usize,
            n_cc: 1 + rng.next_below(2) as usize,
            n_exec: 1 + rng.next_below(2) as usize,
            admission,
            plan: FaultPlan {
                delay_pct: [0, 10, 30][rng.next_below(3) as usize],
                deny_push_pct: [0, 10][rng.next_below(2) as usize],
                shuffle_lanes: rng.chance_percent(50),
                ..FaultPlan::default()
            },
            net,
            max_inflight: 4,
        };
        cfg.max_inflight = draw_depth(&mut rng, cfg.max_inflight, &mut cfg.admission);
        cfg
    }
}

/// Outcome of one net-sim run.
#[derive(Debug)]
pub struct NetSimOutcome {
    pub steps: u64,
    pub perturbations: u64,
    pub committed: u64,
    /// Responses delivered over the wire, all connections.
    pub delivered: u64,
    /// Invariant violations; empty means the run passed.
    pub violations: Vec<String>,
    /// The schedule's observables — the corpus surfaces its transition
    /// coverage alongside the core corpus's (see `crate::cover`).
    pub report: SchedReport,
}

/// Run one engine-behind-TCP lifetime under the seeded scheduler and
/// check convergence + conservation + semantics (see module docs for
/// why this corpus does not pin trace hashes).
pub fn run_net_sim(cfg: &NetSimConfig) -> NetSimOutcome {
    let _serial = sim_lock();
    let mut violations: Vec<String> = Vec::new();

    let db = Arc::new(Database::Flat(Table::new(N_RECORDS as usize, 64)));
    let spec = Spec::Micro(MicroSpec::hot_cold(N_RECORDS, 8, 2, 3, false));

    let mut ocfg = OrthrusConfig::with_threads(cfg.n_cc, cfg.n_exec, CcAssignment::KeyModulo);
    ocfg.max_inflight = cfg.max_inflight;
    ocfg.ingest_capacity = 16;
    ocfg.admission = cfg.admission.clone();

    // Barrier = the engine's threads + the listener. No "client": the
    // driver below free-runs, like the netconn threads (module docs).
    let (mut names, companions) = ocfg.thread_names();
    names.extend(companions);
    names.push("netlisten".to_string());
    let sched = Arc::new(SimScheduler::new(cfg.seed, names, cfg.plan.clone(), false));
    sim::install(Arc::<SimScheduler>::clone(&sched));

    let engine = OrthrusEngine::service(Arc::clone(&db), ocfg);
    let handle = engine.start(cfg.seed);
    let server = match NetServer::start(handle, cfg.net.clone()) {
        Ok(s) => s,
        Err(e) => {
            sim::uninstall();
            return NetSimOutcome {
                steps: 0,
                perturbations: 0,
                committed: 0,
                delivered: 0,
                violations: vec![format!("server failed to start: {e}")],
                report: sched.report(),
            };
        }
    };
    let addr = server.addr();

    // Drive connections sequentially: each gets a deterministic
    // `netconn{i}` name (accept order == connect order) and a private
    // Rmw model slice folded into the shared expectation.
    let mut expected = vec![0u64; N_RECORDS as usize];
    let mut delivered = 0u64;
    for conn in 0..cfg.conns {
        let mut generator = spec.generator(cfg.seed ^ (conn as u64 + 1), conn);
        let mut client = match NetClient::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                violations.push(format!("conn {conn}: connect failed: {e}"));
                break;
            }
        };
        let mut sent_ids: Vec<u64> = Vec::new();
        let mut responses = Vec::new();
        // Several wire batches per connection so frame chunking and the
        // parked-request retry path both run.
        let mut remaining = cfg.txns_per_conn;
        while remaining > 0 {
            let n = remaining.min(5);
            remaining -= n;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                let program = generator.next_program();
                if let Program::Rmw { keys } = &program {
                    for &k in keys {
                        expected[k as usize] += 1;
                    }
                }
                batch.push(program);
            }
            match client.send_batch(batch) {
                Ok(ids) => sent_ids.extend(ids),
                Err(e) => {
                    violations.push(format!("conn {conn}: send failed: {e}"));
                    break;
                }
            }
        }
        if let Err(e) = client.recv_exact(sent_ids.len(), RECV_DEADLINE, &mut responses) {
            violations.push(format!(
                "conn {conn}: convergence: {e} ({} of {} responses)",
                responses.len(),
                sent_ids.len()
            ));
        }
        delivered += responses.len() as u64;
        // Per-connection request-id conservation: the response set must
        // be exactly the request set — no loss, duplication, or
        // cross-connection leakage.
        let mut got: Vec<u64> = responses.iter().map(|m| m.req_id).collect();
        got.sort_unstable();
        sent_ids.sort_unstable();
        if got != sent_ids {
            violations.push(format!(
                "conn {conn}: req-id conservation: {} responses for {} requests",
                got.len(),
                sent_ids.len()
            ));
        }
    }

    let routed = server.hub().routed();
    let orphaned = server.hub().orphaned();
    let unowned = server.hub().unowned();
    let (mut handle, _net_stats) = server.shutdown();
    let accepted = handle.accepted();

    let mut committed = 0;
    match handle.try_shutdown() {
        Ok(stats) => {
            committed = stats.totals.committed_all;
            if committed != accepted {
                violations.push(format!(
                    "commit conservation: {committed} committed vs {accepted} accepted"
                ));
            }
        }
        Err(e) => violations.push(format!("shutdown failed: {e}")),
    }
    if delivered != routed {
        violations.push(format!(
            "hub ledger: {delivered} delivered on the wire vs {routed} routed"
        ));
    }
    if routed + orphaned + unowned != accepted {
        violations.push(format!(
            "hub ledger: routed {routed} + orphaned {orphaned} + unowned {unowned} \
             != accepted {accepted}"
        ));
    }

    // Serializability over the wire: final counters equal the model.
    for (k, &want) in expected.iter().enumerate() {
        let got = unsafe { db.read_counter(k as u64) };
        if got != want {
            violations.push(format!(
                "serializability: key {k} counter {got}, submitted model says {want}"
            ));
            break;
        }
    }

    drop(handle);
    drop(engine);
    let report = sched.report();
    sim::uninstall();

    // Connection threads are expected strangers; anything else is a
    // thread the barrier should have covered.
    let strangers: Vec<&String> = report
        .unknown_registrations
        .iter()
        .filter(|n| !n.starts_with("netconn"))
        .collect();
    if !strangers.is_empty() {
        violations.push(format!("unexpected sim participants: {strangers:?}"));
    }

    NetSimOutcome {
        steps: report.steps,
        perturbations: report.perturbations,
        committed,
        delivered,
        violations,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_seeds_converge_and_conserve() {
        for seed in 1..=4 {
            let cfg = NetSimConfig::from_seed(seed);
            let out = run_net_sim(&cfg);
            assert!(
                out.violations.is_empty(),
                "seed {seed} ({cfg:?}): {:?}",
                out.violations
            );
            assert_eq!(
                out.delivered,
                (cfg.conns * cfg.txns_per_conn) as u64,
                "seed {seed}: every submitted txn must be answered"
            );
        }
    }

    #[test]
    fn faulty_seed_still_converges() {
        let mut cfg = NetSimConfig::from_seed(99);
        cfg.plan.delay_pct = 30;
        cfg.plan.deny_push_pct = 10;
        cfg.plan.shuffle_lanes = true;
        let out = run_net_sim(&cfg);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.perturbations > 0, "fault plan should actually fire");
    }
}
