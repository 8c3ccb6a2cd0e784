//! TCP quickstart: run ORTHRUS behind the `orthrus-net` front door and
//! talk to it over a real socket.
//!
//! The in-process quickstart (`examples/quickstart.rs`) clones a
//! `Session` and submits directly. This one goes through the wire: a
//! `NetServer` owns the engine, clients speak the length-prefixed,
//! CRC'd frame protocol, each read syscall carries however many
//! requests the client framed, and each write carries whatever
//! completions had accumulated when the connection's writer looked.
//!
//! Run: `cargo run --release --example tcp_quickstart`

use std::sync::Arc;
use std::time::Duration;

use orthrus::core::{CcAssignment, OrthrusConfig, OrthrusEngine};
use orthrus::net::{NetClient, NetConfig, NetServer};
use orthrus::storage::Table;
use orthrus::txn::Database;
use orthrus::workload::{MicroSpec, Spec};

fn main() {
    let n_records = 100_000;
    let n = 20_000u64; // transactions this client will send
    let db = Arc::new(Database::Flat(Table::new(n_records, 100)));

    // Engine in service mode; the NetServer takes the handle and owns
    // it (single completion pump) until shutdown hands it back.
    let cfg = OrthrusConfig::with_threads(2, 4, CcAssignment::KeyModulo);
    let engine = OrthrusEngine::service(Arc::clone(&db), cfg);
    let handle = engine.start(7);
    let server = NetServer::start(handle, NetConfig::default()).expect("bind loopback");
    println!("serving on {}", server.addr());

    // A protocol client: batches of programs go out as one frame (one
    // write syscall); responses carry the request id and the engine's
    // submit→commit latency.
    let mut client = NetClient::connect(server.addr()).expect("connect");
    let mut gen = Spec::Micro(MicroSpec::uniform(n_records as u64, 10, false)).generator(7, 0);
    let mut responses = Vec::new();
    let mut sent = 0u64;
    while sent < n {
        let batch: Vec<_> = (0..32).map(|_| gen.next_program()).collect();
        sent += batch.len() as u64;
        client.send_batch(batch).expect("send");
        // Closed-ish loop: opportunistically pick up finished work.
        client.poll_responses(&mut responses).expect("poll");
    }
    client
        .recv_exact(
            n as usize - responses.len(),
            Duration::from_secs(30),
            &mut responses,
        )
        .expect("all responses arrive");

    // Conservation across the wire: every request id answered once.
    let mut ids: Vec<u64> = responses.iter().map(|m| m.req_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, n, "one response per request");

    let (mut handle, net_stats) = server.shutdown();
    let stats = handle.shutdown();
    println!("committed  : {:>12}", stats.totals.committed_all);
    println!(
        "wire       : {:>12} read syscalls, {} write syscalls",
        net_stats.net_read_calls, net_stats.net_write_calls
    );
    println!(
        "batching   : {:>12.1} txns/request-frame, {:.1} completions/response-frame",
        net_stats.net_rx_txns as f64 / net_stats.net_rx_frames.max(1) as f64,
        net_stats.net_tx_completions as f64 / net_stats.net_tx_frames.max(1) as f64
    );

    // Serializability survived the socket: counters add up exactly.
    let total: u64 = (0..n_records as u64)
        .map(|k| unsafe { db.read_counter(k) })
        .sum();
    assert_eq!(total, stats.totals.committed_all * 10);
    println!("verified: {n} responses, {total} counter increments, zero lost updates");
}
