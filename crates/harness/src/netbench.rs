//! Load generation over the TCP front door (`orthrus-net`).
//!
//! The in-process harness measures the engine; this module measures the
//! *front door*: a service-mode engine behind a loopback [`NetServer`],
//! driven by `conns` protocol clients, each either closed-loop (a fixed
//! in-flight window, the saturation probe) or open-loop (wall-clock
//! paced at an offered rate, the latency/batching probe). Shared by the
//! `loadgen` binary and ablation A11.
//!
//! Delivered throughput is counted **client-side** — a completion only
//! counts when its response frame arrived back over TCP, so the number
//! includes every wire cost the in-process figures skip. Wire batching
//! behaviour comes from the server's merged per-connection
//! [`ThreadStats`] (read/write syscalls, frames, per-frame occupancy).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus_common::{CcUtil, LatencyHistogram, ThreadStats};
use orthrus_core::{AdmissionPolicy, CcAssignment, OrthrusConfig, OrthrusEngine};
use orthrus_net::{NetClient, NetConfig, NetServer};
use orthrus_storage::Table;
use orthrus_txn::Database;
use orthrus_workload::{MicroSpec, Spec};

use crate::config::BenchConfig;

/// Requests per request frame from the load generator: reasonably
/// framed input, so the server's read side is not what is measured.
const SEND_CHUNK: usize = 128;

/// Shape of one load-generation run.
#[derive(Debug, Clone)]
pub struct NetLoadConfig {
    /// Concurrent connections (`ORTHRUS_NET_CONNS`, default 8).
    pub conns: usize,
    /// Per-connection in-flight window (`ORTHRUS_NET_INFLIGHT`, default
    /// 128). Closed-loop keeps the window full; open-loop uses it as a
    /// client-memory cap while TCP backpressure does the real limiting.
    /// The default saturates a small engine without piling up queueing
    /// latency (deeper windows buy no throughput once past saturation).
    pub inflight: usize,
    /// Offered load in txns/sec summed over all connections
    /// (`ORTHRUS_NET_RATE`); `0.0` = closed loop.
    pub rate: f64,
    /// Engine admission policy for the run.
    pub policy: AdmissionPolicy,
    /// Front-end tuning (see [`crate::config::net_config_from_env`]).
    pub net: NetConfig,
}

impl NetLoadConfig {
    /// Read the load shape from `ORTHRUS_NET_*`, with the engine policy
    /// taken from the bench config's admission knob.
    pub fn from_env(bc: &BenchConfig) -> Self {
        NetLoadConfig {
            conns: crate::config::env_u64("ORTHRUS_NET_CONNS", 8).max(1) as usize,
            inflight: crate::config::env_u64("ORTHRUS_NET_INFLIGHT", 128).max(1) as usize,
            rate: crate::config::env_u64("ORTHRUS_NET_RATE", 0) as f64,
            policy: bc.admission.clone(),
            net: crate::config::net_config_from_env(),
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Completions received by clients within the measurement window.
    pub delivered: u64,
    /// The measurement window length.
    pub measure: Duration,
    /// Engine-reported submit→commit latency of every measured
    /// completion (the wire adds client RTT on top; this is the
    /// server-side component).
    pub latency: LatencyHistogram,
    /// Client-side round trip of the same completions: `send_batch`
    /// call → the `poll_responses` return that carried the response.
    pub rtt: LatencyHistogram,
    /// Merged server-side connection stats (syscalls, frames, batches).
    pub net: ThreadStats,
    /// Hub conservation counters at shutdown.
    pub routed: u64,
    pub orphaned: u64,
    pub unowned: u64,
    /// Engine-side lifetime commits (sanity: ≥ every routed completion).
    pub committed_all: u64,
    /// Each CC thread's busy/idle split over the engine's lifetime.
    pub cc: Vec<CcUtil>,
    /// The execution threads' in-flight cap over the engine's lifetime:
    /// grant-weighted mean, and maximum.
    pub inflight_cap_mean: f64,
    pub inflight_cap_max: u64,
    /// Transactions per admitted run, and the most transactions any
    /// execution thread had in flight, over the engine's lifetime.
    pub txns_per_run: f64,
    pub inflight_max: u64,
    /// Command-log records per write (0.0 with the log off).
    pub records_per_write: f64,
    /// Quanta whose releases left before admission, per commit.
    pub releases_first_per_commit: f64,
}

impl NetLoadReport {
    /// Delivered transactions per second over the measurement window.
    pub fn throughput(&self) -> f64 {
        self.delivered as f64 / self.measure.as_secs_f64()
    }

    /// Mean requests per inbound request frame.
    pub fn rx_batch_mean(&self) -> f64 {
        ratio(self.net.net_rx_txns, self.net.net_rx_frames)
    }

    /// Mean completions per outbound response frame (each sized at half
    /// of what its connection had in the engine).
    pub fn tx_batch_mean(&self) -> f64 {
        ratio(self.net.net_tx_completions, self.net.net_tx_frames)
    }

    /// Transactions ingested per read syscall.
    pub fn txns_per_read_call(&self) -> f64 {
        ratio(self.net.net_rx_txns, self.net.net_read_calls)
    }

    /// Every completion the pump drained must be accounted somewhere.
    pub fn accounted(&self) -> u64 {
        self.routed + self.orphaned + self.unowned
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Stand up engine + TCP front door on loopback, drive it with
/// `load.conns` clients for `bc.warmup + bc.measure`, tear everything
/// down, and report. Panics on protocol violations (a load generator
/// must not paper over a broken server).
pub fn run_net_load(spec: &MicroSpec, load: &NetLoadConfig, bc: &BenchConfig) -> NetLoadReport {
    let db = Arc::new(Database::Flat(Table::new(
        spec.n_records as usize,
        bc.record_size,
    )));
    let (n_cc, n_exec) = (1usize, 2usize);
    let mut cfg = OrthrusConfig::with_threads(n_cc, n_exec, CcAssignment::KeyModulo);
    cfg.flush_threshold = bc.flush_threshold;
    cfg.admission = load.policy.clone();
    let _log_dir = bc.apply_durability(&mut cfg);
    let handle = OrthrusEngine::service(db, cfg).start(bc.seed);
    let server = NetServer::start(handle, load.net.clone()).expect("bind loopback");
    let addr = server.addr();

    let per_conn_rate = load.rate / load.conns as f64;
    let clients: Vec<_> = (0..load.conns)
        .map(|i| {
            let spec = spec.clone();
            let bc = bc.clone();
            let inflight = load.inflight;
            std::thread::Builder::new()
                .name(format!("loadgen{i}"))
                .spawn(move || client_loop(addr, &spec, &bc, i, inflight, per_conn_rate))
                .expect("spawn loadgen client")
        })
        .collect();

    let mut delivered = 0u64;
    let mut latency = LatencyHistogram::new();
    let mut rtt = LatencyHistogram::new();
    for c in clients {
        let (d, h, r) = c.join().expect("loadgen client panicked");
        delivered += d;
        latency.merge(&h);
        rtt.merge(&r);
    }

    let routed = server.hub().routed();
    let orphaned = server.hub().orphaned();
    let unowned = server.hub().unowned();
    let (mut handle, net) = server.shutdown();
    let engine_stats = handle.shutdown();
    NetLoadReport {
        delivered,
        measure: bc.measure,
        latency,
        rtt,
        net,
        routed,
        orphaned,
        unowned,
        committed_all: engine_stats.totals.committed_all,
        inflight_cap_mean: engine_stats.mean_inflight_cap(),
        inflight_cap_max: engine_stats.max_inflight_cap(),
        txns_per_run: engine_stats.txns_per_run(),
        inflight_max: engine_stats.inflight_max(),
        records_per_write: engine_stats.records_per_write(),
        releases_first_per_commit: engine_stats.releases_first_per_commit(),
        cc: engine_stats.cc,
    }
}

/// One connection's drive loop. Returns (completions delivered in the
/// measurement window, their engine-latency histogram, their
/// client-side round-trip histogram).
fn client_loop(
    addr: SocketAddr,
    spec: &MicroSpec,
    bc: &BenchConfig,
    conn_idx: usize,
    inflight: usize,
    rate: f64,
) -> (u64, LatencyHistogram, LatencyHistogram) {
    let mut client = NetClient::connect(addr).expect("connect loadgen client");
    // Decorrelate each connection's stream from the others and from any
    // engine-side streams (exec threads use low thread ids).
    let mut gen = Spec::Micro(spec.clone()).generator(bc.seed, 64 + conn_idx);
    let mut got = Vec::new();
    let mut in_flight = 0usize;
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut hist = LatencyHistogram::new();
    let mut rtt = LatencyHistogram::new();
    // Send time by request id (ids are dense per connection).
    let mut sent_at: Vec<Instant> = Vec::new();

    let t0 = Instant::now();
    let measure_from = bc.warmup;
    let end = bc.warmup + bc.measure;
    loop {
        let elapsed = t0.elapsed();
        if elapsed >= end {
            break;
        }
        // Top up: the full window (closed loop) or the paced target
        // (open loop), whichever governs. Blocking writes are the
        // point — TCP pushback is how server backpressure reaches us.
        //
        // Hysteresis: in closed loop, wait until half the window is
        // free before sending (capped at one chunk). Topping up after
        // every drained response degenerates into 1–2-txn frames — a
        // syscall and a context switch per transaction across every
        // wire thread — which on an oversubscribed host starves the
        // engine of the very CPU it needs to clear the window. Half a
        // window (rather than all of it) keeps the pipeline double-
        // buffered: the engine chews one half while the other is on
        // the wire.
        let target = if rate == 0.0 {
            u64::MAX
        } else {
            (rate * elapsed.as_secs_f64()) as u64
        };
        let min_send = if rate == 0.0 {
            (inflight / 2).clamp(1, SEND_CHUNK)
        } else {
            1
        };
        while inflight - in_flight >= min_send && sent < target {
            let n = SEND_CHUNK
                .min(inflight - in_flight)
                .min(usize::try_from(target - sent).unwrap_or(usize::MAX));
            let batch: Vec<_> = (0..n).map(|_| gen.next_program()).collect();
            sent_at.resize(sent_at.len() + n, Instant::now());
            client.send_batch(batch).expect("send");
            in_flight += n;
            sent += n as u64;
            if rate == 0.0 && in_flight >= inflight {
                break;
            }
        }
        if rate > 0.0 && in_flight == 0 {
            // Open loop with nothing owed: wait for the schedule, not
            // for the socket — an idle `poll_responses` returns on the
            // client's read timeout (8 ms after tick rounding), which
            // would turn a steady offered rate into 8 ms bursts.
            let due = Duration::from_secs_f64((sent + 1) as f64 / rate);
            std::thread::sleep(due.saturating_sub(t0.elapsed()));
            continue;
        }
        got.clear();
        match client.poll_responses(&mut got) {
            Ok(_) => {}
            Err(e) => panic!("server dropped a live load connection: {e}"),
        }
        let arrived = Instant::now();
        let now = arrived - t0;
        for m in &got {
            in_flight -= 1;
            if now >= measure_from && now < end {
                delivered += 1;
                hist.record(m.latency_ns);
                rtt.record((arrived - sent_at[m.req_id as usize]).as_nanos() as u64);
            }
        }
    }
    // Best-effort drain so the common case shuts down with zero
    // orphans; anything still in flight after the grace window is the
    // abrupt-disconnect path the hub accounts as orphaned.
    let grace = Instant::now() + Duration::from_secs(2);
    while in_flight > 0 && Instant::now() < grace {
        got.clear();
        match client.poll_responses(&mut got) {
            Ok(n) => in_flight = in_flight.saturating_sub(n),
            Err(_) => break,
        }
    }
    (delivered, hist, rtt)
}
