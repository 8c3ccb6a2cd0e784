//! What one transaction that arrives alone costs under each admission
//! policy.
//!
//! A 1 CC + 1 exec engine over a 200 000-record table is sent Zipf
//! θ = 0.9 ten-key read-modify-writes one at a time: submit, wait for the
//! completion, pause 5 µs, submit the next. Nothing else is in flight, so
//! every conflict-batched admission window holds exactly one transaction
//! and the run it forms is a run of one. The rounds alternate FIFO and
//! conflict-batched engines, and each prints the submit→commit latency
//! the engine stamped on the completions (`Completion::latency_ns`).
//!
//! Run: `cargo run --release --example lone_txn [rounds] [samples]`
//! (defaults 4 and 25 000: four rounds per policy).

use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus::core::{AdmissionPolicy, CcAssignment, Completion, OrthrusConfig, OrthrusEngine};
use orthrus::storage::Table;
use orthrus::txn::Database;
use orthrus::workload::{MicroSpec, Spec};

const N_RECORDS: u64 = 200_000;
const GAP: Duration = Duration::from_micros(5);

/// One round: a fresh engine under `admission`, `samples` lone
/// transactions after a short warmup. Returns the sorted latencies, ns.
fn round(admission: AdmissionPolicy, samples: usize, seed: u64) -> Vec<u64> {
    let db = Arc::new(Database::Flat(Table::new(N_RECORDS as usize, 100)));
    let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
    cfg.admission = admission;
    let mut handle = OrthrusEngine::service(Arc::clone(&db), cfg).start(seed);
    let session = handle.session();
    let mut gen = Spec::Micro(MicroSpec::zipf(N_RECORDS, 10, 0.9, false)).generator(seed, 0);
    let warmup = samples / 10;
    let mut latencies = Vec::with_capacity(samples);
    let mut done: Vec<Completion> = Vec::with_capacity(1);
    for i in 0..warmup + samples {
        session
            .submit(gen.next_program())
            .expect("engine is accepting");
        // Yield, not spin: the engine's two threads share this host's
        // cores with this one, and a spinning client holds a core the
        // woken engine thread is waiting for.
        while handle.drain_completions(&mut done) == 0 {
            std::thread::yield_now();
        }
        if i >= warmup {
            latencies.push(done[0].latency_ns);
        }
        done.clear();
        let pause = Instant::now();
        while pause.elapsed() < GAP {
            std::thread::yield_now();
        }
    }
    let stats = handle.shutdown();
    assert_eq!(stats.totals.committed_all, (warmup + samples) as u64);
    assert_eq!(
        stats.totals.runs, stats.totals.committed_all,
        "a transaction that arrives alone is a run of one"
    );
    latencies.sort_unstable();
    latencies
}

fn pct(sorted: &[u64], p: usize) -> f64 {
    sorted[(sorted.len() - 1) * p / 100] as f64 / 1e3
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: usize = args.next().map_or(4, |a| a.parse().expect("rounds"));
    let samples: usize = args.next().map_or(25_000, |a| a.parse().expect("samples"));
    println!(
        "# lone transactions: 1 CC + 1 exec, Zipf 0.9 10-RMW over {N_RECORDS} records, 5 µs gap"
    );
    println!("# round policy    p10_us  p50_us  p90_us");
    for r in 0..rounds {
        for (name, policy) in [
            ("fifo ", AdmissionPolicy::Fifo),
            ("batch", AdmissionPolicy::conflict_batch()),
        ] {
            let l = round(policy, samples, 4501 + r as u64);
            println!(
                "{r:>7} {name}  {:>7.2} {:>7.2} {:>7.2}",
                pct(&l, 10),
                pct(&l, 50),
                pct(&l, 90)
            );
        }
    }
}
