//! TCP load generator: stand up the engine behind the `orthrus-net`
//! front door on loopback and drive it with protocol clients.
//!
//! ```text
//! cargo run --release -p orthrus-harness --bin loadgen
//! ORTHRUS_NET_CONNS=16 ORTHRUS_NET_RATE=50000 \
//!     cargo run --release -p orthrus-harness --bin loadgen
//! ```
//!
//! Knobs (all `ORTHRUS_*` / `ORTHRUS_NET_*`, see
//! `orthrus_harness::config`): the workload is the high-contention
//! crucible (scrambled-Zipf θ = 0.9, 10 RMW) at `ORTHRUS_RECORDS`
//! scale; `ORTHRUS_ADMISSION` picks the engine policy;
//! `ORTHRUS_NET_CONNS`/`ORTHRUS_NET_INFLIGHT` shape the client fleet;
//! `ORTHRUS_NET_RATE=0` (default) saturates closed-loop, a nonzero
//! value offers that many txns/sec open-loop.

use orthrus_harness::netbench::{run_net_load, NetLoadConfig};
use orthrus_harness::BenchConfig;
use orthrus_workload::MicroSpec;

fn main() {
    let bc = BenchConfig::from_env();
    let load = NetLoadConfig::from_env(&bc);
    let spec = MicroSpec::zipf(bc.n_records as u64, 10, 0.9, false);
    eprintln!(
        "loadgen: {} conns x {} inflight, rate {}, policy {:?}, {} records",
        load.conns,
        load.inflight,
        if load.rate == 0.0 {
            "closed-loop".to_string()
        } else {
            format!("{:.0}/s", load.rate)
        },
        load.policy,
        bc.n_records,
    );
    let r = run_net_load(&spec, &load, &bc);

    println!("delivered_txns {}", r.delivered);
    println!("throughput_tps {:.1}", r.throughput());
    println!(
        "latency_p50_us {:.1}",
        r.latency.quantile_ns(0.50) as f64 / 1000.0
    );
    println!(
        "latency_p99_us {:.1}",
        r.latency.quantile_ns(0.99) as f64 / 1000.0
    );
    println!("rtt_p50_us {:.1}", r.rtt.quantile_ns(0.50) as f64 / 1000.0);
    println!("rtt_p99_us {:.1}", r.rtt.quantile_ns(0.99) as f64 / 1000.0);
    println!("wire_rx_batch_mean {:.2}", r.rx_batch_mean());
    println!("wire_tx_batch_mean {:.2}", r.tx_batch_mean());
    println!("txns_per_read_syscall {:.2}", r.txns_per_read_call());
    println!("read_syscalls {}", r.net.net_read_calls);
    println!("write_syscalls {}", r.net.net_write_calls);
    println!("bad_frames {}", r.net.net_bad_frames);
    println!(
        "conservation routed={} orphaned={} unowned={} accounted={}",
        r.routed,
        r.orphaned,
        r.unowned,
        r.accounted()
    );
    println!("engine_committed_all {}", r.committed_all);
    println!("inflight_cap_mean {:.1}", r.inflight_cap_mean);
    println!("inflight_cap_max {}", r.inflight_cap_max);
    println!("txns_per_run {:.2}", r.txns_per_run);
    println!("inflight_max {}", r.inflight_max);
    println!("log_records_per_write {:.2}", r.records_per_write);
    println!(
        "releases_first_per_commit {:.3}",
        r.releases_first_per_commit
    );
    for (i, cc) in r.cc.iter().enumerate() {
        println!("cc{i}_busy_pct {:.1}", cc.busy_pct());
    }

    // A load generator that silently loses work is worse than one that
    // crashes: every completion the engine produced must be accounted.
    assert!(
        r.accounted() >= r.routed,
        "hub accounting went backwards: {r:?}"
    );
}
