//! Ablation experiments beyond the paper's figures, probing the design
//! choices DESIGN.md calls out: CC→CC forwarding, queue capacity, and
//! execution-thread asynchrony depth.

use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus_common::{CcUtil, RunStats};
use orthrus_core::{AdmissionPolicy, CcAssignment, OrthrusConfig, OrthrusEngine};
use orthrus_storage::Table;
use orthrus_txn::Database;
use orthrus_workload::{Gen, MicroSpec, PartitionConstraint, Spec};

use crate::config::BenchConfig;
use crate::report::{FigureResult, Series};

/// Run ORTHRUS with explicit knobs (also used by Figure 5).
pub fn run_orthrus_custom(
    spec: MicroSpec,
    n_cc: usize,
    n_exec: usize,
    forwarding: bool,
    exec_queue_capacity: Option<usize>,
    max_inflight: usize,
    bc: &BenchConfig,
) -> RunStats {
    let n = spec.n_records as usize;
    let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
    let mut cfg = OrthrusConfig::with_threads(n_cc, n_exec, CcAssignment::KeyModulo);
    cfg.forwarding = forwarding;
    cfg.exec_queue_capacity = exec_queue_capacity;
    cfg.max_inflight = max_inflight;
    cfg.flush_threshold = bc.flush_threshold;
    cfg.admission = bc.admission.clone();
    let _log_dir = bc.apply_durability(&mut cfg);
    let engine = OrthrusEngine::new(db, Spec::Micro(spec), cfg);
    engine.run(&bc.params(n_cc + n_exec))
}

/// Append one series per CC thread, `"<label> cc<i> busy%"`, from each
/// sweep point's [`RunStats::cc`]: Section 3.3's over- and
/// under-utilised CC threads as a number, beside the throughput they
/// explain.
fn push_cc_util(fig: &mut FigureResult, label: &str, points: &[(f64, Vec<CcUtil>)]) {
    let n_cc = points.iter().map(|(_, cc)| cc.len()).max().unwrap_or(0);
    for i in 0..n_cc {
        let mut s = Series::new(format!("{label} cc{i} busy%"));
        for (x, cc) in points {
            if let Some(u) = cc.get(i) {
                s.push(*x, u.busy_pct());
            }
        }
        fig.series.push(s);
    }
}

fn split(bc: &BenchConfig) -> (usize, usize) {
    let total = bc.clamp_threads(80);
    let n_cc = (total / 5).max(1);
    (n_cc, (total - n_cc).max(1))
}

/// A1: the value of CC→CC forwarding (`Ncc+1` vs `2·Ncc` message delays,
/// Section 3.3) as transactions span more CC threads.
pub fn abl01_forwarding(bc: &BenchConfig) -> FigureResult {
    let (n_cc, n_exec) = split(bc);
    let mut fig = FigureResult::new(
        "abl01",
        format!("Forwarding ablation ({n_cc} CC / {n_exec} exec threads)"),
        "cc_threads/txn",
        "txns/sec",
    );
    let counts: Vec<u32> = [1u32, 2, 4, 8]
        .into_iter()
        .filter(|&c| c <= n_cc as u32)
        .collect();
    for (label, forwarding) in [
        ("forwarding (Ncc+1)", true),
        ("exec-mediated (2Ncc)", false),
    ] {
        let mut s = Series::new(label);
        for &count in &counts {
            let spec = MicroSpec::uniform(bc.n_records as u64, 10, false).with_constraint(
                PartitionConstraint::Exact {
                    count,
                    of: n_cc as u32,
                },
            );
            let stats = run_orthrus_custom(spec, n_cc, n_exec, forwarding, None, 16, bc);
            s.push(count as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

/// A2: sensitivity to the exec→CC ring capacity. Tiny rings make the
/// paper's "rare case where the queue fills up" common.
pub fn abl02_queue_capacity(bc: &BenchConfig) -> FigureResult {
    let (n_cc, n_exec) = split(bc);
    let mut fig = FigureResult::new(
        "abl02",
        format!("exec→CC queue capacity sensitivity ({n_cc} CC / {n_exec} exec)"),
        "ring_capacity",
        "txns/sec",
    );
    let mut s = Series::new("ORTHRUS");
    for cap in [2usize, 4, 8, 16, 32, 64] {
        let spec = MicroSpec::uniform(bc.n_records as u64, 10, false).with_constraint(
            PartitionConstraint::Exact {
                count: 2.min(n_cc as u32),
                of: n_cc as u32,
            },
        );
        let stats = run_orthrus_custom(spec, n_cc, n_exec, true, Some(cap), 16, bc);
        s.push(cap as f64, stats.throughput());
    }
    fig.series.push(s);
    fig
}

/// A3: asynchrony depth — in-flight transactions per execution thread
/// (Section 3.3). Depth 1 serializes each exec thread on its lock-grant
/// round trips; beyond saturation extra depth only lengthens lock hold
/// times. Up to 16 the depth is the `max_inflight` it is given; above
/// that `max_inflight` is the ceiling of the depth rule, which walks
/// between 16 and it by the lock waits grants report — the last rows are
/// the rule's points, and the cap columns say where it went (DESIGN.md,
/// "How deep the pipeline is").
pub fn abl03_inflight_cap(bc: &BenchConfig) -> FigureResult {
    let (n_cc, n_exec) = split(bc);
    let mut fig = FigureResult::new(
        "abl03",
        format!(
            "In-flight cap (asynchrony depth): fixed up to 16, the depth rule's ceiling above \
             ({n_cc} CC / {n_exec} exec)"
        ),
        "max_inflight",
        "txns/sec; in-flight cap",
    );
    let mut s = Series::new("ORTHRUS");
    let mut mean = Series::new("mean cap");
    let mut max = Series::new("max cap");
    for depth in [1usize, 2, 4, 8, 16, 32, 64] {
        let spec = MicroSpec::uniform(bc.n_records as u64, 10, false).with_constraint(
            PartitionConstraint::Exact {
                count: 1,
                of: n_cc as u32,
            },
        );
        let stats = run_orthrus_custom(spec, n_cc, n_exec, true, None, depth, bc);
        s.push(depth as f64, stats.throughput());
        mean.push(depth as f64, stats.mean_inflight_cap());
        max.push(depth as f64, stats.max_inflight_cap() as f64);
    }
    fig.series.extend([s, mean, max]);
    fig
}

/// A5: message-fabric batching (`flush_threshold`) under high contention.
/// `1` is the seed's per-message fabric; deeper thresholds amortize the
/// `head`/`tail` cache-line round trips of every ring transaction over
/// whole scheduling quanta (slice publishes, drain rounds, coalesced
/// grants). Throughput should be monotonically non-decreasing in the
/// threshold on contended multi-core runs. Beside it: how often per 100
/// commits a quantum's releases left before admission. At threshold 1
/// every message is published as it is sent, nothing is staged to leave
/// early, and the rate is 0.
pub fn abl05_batching(bc: &BenchConfig) -> FigureResult {
    let (n_cc, n_exec) = split(bc);
    let mut fig = FigureResult::new(
        "abl05",
        format!("Fabric batching: flush_threshold ({n_cc} CC / {n_exec} exec)"),
        "flush_threshold",
        "txns/sec (cc series: % of the window spent handling requests; \
         rel-first: quanta releasing before admission per 100 commits)",
    );
    let mut s = Series::new("ORTHRUS high-contention");
    let mut early = Series::new("rel-first/100 txn");
    let mut cc_util = Vec::new();
    for threshold in [1usize, 4, 16] {
        // The paper's contention crucible: a small hot set touched by
        // every transaction, so the fabric (not record access) dominates.
        let hot = 64u64.min(bc.n_records as u64 / 2).max(2);
        let spec = MicroSpec::hot_cold(bc.n_records as u64, hot, 2, 10, false);
        let mut bc_t = bc.clone();
        bc_t.flush_threshold = threshold;
        let stats = run_orthrus_custom(spec, n_cc, n_exec, true, None, 16, &bc_t);
        s.push(threshold as f64, stats.throughput());
        early.push(threshold as f64, 100.0 * stats.releases_first_per_commit());
        cc_util.push((threshold as f64, stats.cc));
    }
    fig.series.push(s);
    push_cc_util(&mut fig, "orthrus", &cc_util);
    fig.series.push(early);
    fig
}

/// A6: admission scheduling under skew (Prasaad et al., "Improving High
/// Contention OLTP Performance via Transaction Scheduling"). FIFO admits
/// hot-key transactions blindly, piling waiters into CC queues;
/// conflict-class batching plans at admission, drains per-class run
/// queues back-to-back, and serializes each run locally under one fused
/// lock acquisition. The sweep crosses the policy's break-even: at low
/// skew the fused unions hold more locks for longer and FIFO wins; past
/// the contention crossover (θ ≈ 0.6 at bench scale) the amortized
/// acquire/release round trips dominate and conflict batching wins,
/// increasingly with skew. Beside each policy: transactions per fused
/// run (1 under FIFO) and the most transactions in flight at once.
pub fn abl06_admission(bc: &BenchConfig) -> FigureResult {
    let (n_cc, n_exec) = split(bc);
    let mut fig = FigureResult::new(
        "abl06",
        format!(
            "Admission scheduling: FIFO vs conflict-class batching ({n_cc} CC / {n_exec} exec)"
        ),
        "zipf_theta",
        "txns/sec (cc series: % of the window spent handling requests; \
         txns/run: transactions per lock round; inflight max: peak in flight)",
    );
    let mut cc_util = Vec::new();
    let mut shape = Vec::new();
    for (label, short, policy) in [
        ("FIFO admission", "fifo", AdmissionPolicy::Fifo),
        (
            "conflict-batch admission",
            "batch",
            AdmissionPolicy::conflict_batch(),
        ),
    ] {
        let mut s = Series::new(label);
        let mut per_run = Series::new(format!("{short} txns/run"));
        let mut peak = Series::new(format!("{short} inflight max"));
        let mut points = Vec::new();
        for theta in [0.3f64, 0.6, 0.9, 0.99] {
            // Scrambled-Zipf 10RMW: the YCSB hot set, scattered across CC
            // threads, with the skew knob as the x-axis.
            let spec = MicroSpec::zipf(bc.n_records as u64, 10, theta, false);
            let mut bc_t = bc.clone();
            bc_t.admission = policy.clone();
            let stats = run_orthrus_custom(spec, n_cc, n_exec, true, None, 16, &bc_t);
            s.push(theta, stats.throughput());
            per_run.push(theta, stats.txns_per_run());
            peak.push(theta, stats.inflight_max() as f64);
            points.push((theta, stats.cc));
        }
        fig.series.push(s);
        shape.extend([per_run, peak]);
        cc_util.push((short, points));
    }
    for (short, points) in &cc_util {
        push_cc_util(&mut fig, short, points);
    }
    fig.series.extend(shape);
    fig
}

/// One point of the A8 offered-load sweep: drive a service-mode engine
/// open-loop at `rate` transactions/sec for `warmup + measure`, with
/// the measurement window opened after the warmup. Returns the run's
/// statistics (throughput and the submit→commit latency histogram).
///
/// The driver paces submissions against the wall clock, drains
/// completions continuously, and *blocks* on ingest backpressure — so
/// past saturation the delivered throughput flattens while latency
/// climbs to the queueing bound, the classic open-loop hockey stick.
fn drive_openloop(
    spec: &MicroSpec,
    policy: &AdmissionPolicy,
    rate: f64,
    n_cc: usize,
    n_exec: usize,
    bc: &BenchConfig,
) -> RunStats {
    let db = Arc::new(Database::Flat(Table::new(
        spec.n_records as usize,
        bc.record_size,
    )));
    let mut cfg = OrthrusConfig::with_threads(n_cc, n_exec, CcAssignment::KeyModulo);
    cfg.flush_threshold = bc.flush_threshold;
    cfg.admission = policy.clone();
    let _log_dir = bc.apply_durability(&mut cfg);
    let engine = OrthrusEngine::service(db, cfg);
    let mut handle = engine.start(bc.seed);
    let session = handle.session();
    // One client generator stands in for the offered load; thread id
    // n_exec keeps its stream decorrelated from any engine-side streams.
    let mut gen = Spec::Micro(spec.clone()).generator(bc.seed, n_exec);
    let mut done = Vec::new();

    let mut drive = |handle: &mut orthrus_core::EngineHandle, gen: &mut Gen, window: Duration| {
        let t0 = Instant::now();
        let mut sent = 0u64;
        loop {
            let elapsed = t0.elapsed();
            if elapsed >= window {
                break;
            }
            let target = (rate * elapsed.as_secs_f64()) as u64;
            while sent < target && t0.elapsed() < window {
                if session.submit(gen.next_program()).is_err() {
                    return; // engine shut down underneath us
                }
                sent += 1;
                // Keep the completion rings shallow even at high rates.
                if sent.is_multiple_of(64) {
                    done.clear();
                    handle.drain_completions(&mut done);
                }
            }
            done.clear();
            handle.drain_completions(&mut done);
            // Yield, don't spin: on small hosts the driver timeshares
            // with the engine threads it is measuring.
            std::thread::yield_now();
        }
    };

    drive(&mut handle, &mut gen, bc.warmup);
    handle.begin_measurement();
    drive(&mut handle, &mut gen, bc.measure);
    handle.shutdown()
}

/// A8: the **open-loop** front door. The closed-loop harness measures
/// the engine driving itself as fast as it can commit; real deployments
/// see an *offered* load arriving through the session API
/// (`OrthrusEngine::start` + `Session::submit`), where the questions are
/// delivered throughput and submit→commit latency as the offered rate
/// approaches capacity. The sweep calibrates capacity with one
/// closed-loop FIFO run, then offers {50%, 90%, 130%} of it under each
/// admission policy: below saturation all policies should deliver the
/// offered rate and differ only in latency; past it, delivered
/// throughput flattens at each policy's capacity and latency climbs to
/// the ingest-queueing bound (hot-key submissions routed to a stable
/// execution thread let conflict batching fuse them, which is where the
/// high-skew latency gap comes from).
pub fn abl08_openloop(bc: &BenchConfig) -> FigureResult {
    let (n_cc, n_exec) = split(bc);
    let mut fig = FigureResult::new(
        "abl08",
        format!("Open-loop offered-load sweep ({n_cc} CC / {n_exec} exec threads)"),
        "offered_fraction_of_fifo_capacity",
        "txns/sec (latency series: µs)",
    );
    // The contention crucible, matched to A6's high-skew point.
    let spec = MicroSpec::zipf(bc.n_records as u64, 10, 0.9, false);
    // Capacity calibration: one closed-loop FIFO run.
    let mut bc_fifo = bc.clone();
    bc_fifo.admission = AdmissionPolicy::Fifo;
    let capacity =
        run_orthrus_custom(spec.clone(), n_cc, n_exec, true, None, 16, &bc_fifo).throughput();
    let fractions = [0.5f64, 0.9, 1.3];
    for (label, policy) in [
        ("FIFO", AdmissionPolicy::Fifo),
        ("conflict-batch", AdmissionPolicy::conflict_batch()),
    ] {
        let mut tput = Series::new(format!("{label} txns/sec"));
        let mut p50 = Series::new(format!("{label} p50 µs"));
        let mut p99 = Series::new(format!("{label} p99 µs"));
        for frac in fractions {
            let stats = drive_openloop(&spec, &policy, capacity * frac, n_cc, n_exec, bc);
            tput.push(frac, stats.throughput());
            p50.push(frac, stats.p50_latency_us());
            p99.push(frac, stats.p99_latency_us());
        }
        fig.series.push(tput);
        fig.series.push(p50);
        fig.series.push(p99);
    }
    fig
}

/// A9: the durability tax and the group-commit amortization that pays
/// it. The engine is main-memory in the paper; `abl09` measures what
/// command logging costs under the A6 contention crucible
/// (scrambled-Zipf θ = 0.9 10RMW) across the `ORTHRUS_DURABILITY` knob:
///
/// - `off` — the paper's semantics (baseline);
/// - `log` — one checksummed record per fused admission run, appended
///   before the run's locks release, no fsync;
/// - `log+fsync` — the record is also fsynced before completions
///   release, so "committed" means "on stable storage".
///
/// Under FIFO every commit is its own record (and, with fsync, its own
/// flush); under conflict-batched admission a whole fused run shares
/// one — the `txns/log record` series *is* the amortization factor, and
/// the reason `log` stays within ~10% of `off` at high contention (see
/// EXPERIMENTS.md for recorded numbers). The fsync series is where the
/// latency tail moves from memory speed to device speed.
pub fn abl09_durability(bc: &BenchConfig) -> FigureResult {
    use orthrus_core::DurabilityMode;

    let (n_cc, n_exec) = split(bc);
    let mut fig = FigureResult::new(
        "abl09",
        format!("Durability: command log + group commit ({n_cc} CC / {n_exec} exec threads)"),
        "durability (0=off 1=log 2=log+fsync)",
        "txns/sec (aux series: txns/log record, log MB/s)",
    );
    let spec = MicroSpec::zipf(bc.n_records as u64, 10, 0.9, false);
    for (plabel, policy) in [
        ("FIFO", AdmissionPolicy::Fifo),
        ("conflict-batch", AdmissionPolicy::conflict_batch()),
    ] {
        let mut tput = Series::new(format!("{plabel} txns/sec"));
        let mut group = Series::new(format!("{plabel} txns/log record"));
        let mut rate = Series::new(format!("{plabel} log MB/s"));
        for (x, mode) in [
            (0.0, DurabilityMode::Off),
            (1.0, DurabilityMode::Log),
            (2.0, DurabilityMode::LogFsync),
        ] {
            let n = spec.n_records as usize;
            let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
            let mut cfg = OrthrusConfig::with_threads(n_cc, n_exec, CcAssignment::KeyModulo);
            cfg.flush_threshold = bc.flush_threshold;
            cfg.admission = policy.clone();
            // The sweep owns the knob here; the env default
            // (bc.apply_durability) governs every *other* figure.
            let scratch = mode.is_on().then(|| {
                let dir = orthrus_common::TempDir::new("abl09-cmdlog");
                cfg.durability = mode;
                cfg.log_dir = Some(dir.path().to_path_buf());
                dir
            });
            let stats = OrthrusEngine::new(db, Spec::Micro(spec.clone()), cfg)
                .run(&bc.params(n_cc + n_exec));
            tput.push(x, stats.throughput());
            if mode.is_on() {
                group.push(
                    x,
                    stats.totals.committed as f64 / stats.totals.log_records.max(1) as f64,
                );
                rate.push(
                    x,
                    stats.totals.log_bytes as f64 / 1e6 / stats.elapsed.as_secs_f64().max(1e-9),
                );
            }
            drop(scratch);
        }
        fig.series.push(tput);
        fig.series.push(group);
        fig.series.push(rate);
    }
    fig
}

/// A10: durability rung 2 — what the cross-thread group-fsync
/// coordinator buys over rung 1's inline per-run fsync, on the same
/// θ = 0.9 scrambled-Zipf crucible as A9 under conflict-batched
/// admission, pinned to the smallest engine shape (1 CC / 1 exec) where
/// per-run fsync hurts most (every run's device flush is on the one
/// exec thread's critical path).
///
/// Sweep (x): `0` = `per-run` inline fsync, `1` = `adaptive` group
/// coordinator, `2` = adaptive plus the fuzzy checkpointer (1 MiB
/// cadence) — the full rung-2 stack.
///
/// Series: throughput; records per fdatasync (the amortization factor
/// — under `per-run`, one fsync per write, so the records a write
/// carries); the p99 append→durable wait, which is the latency the
/// group commit charges each transaction in exchange; and records per
/// write (the runs an execution thread's quantum commits together).
pub fn abl10_durability2(bc: &BenchConfig) -> FigureResult {
    use orthrus_core::{DurabilityMode, SyncInterval};

    let mut fig = FigureResult::new(
        "abl10",
        "Durability rung 2: per-run fsync vs cross-thread group fsync (1 CC / 1 exec)".to_string(),
        "sync mode (0=per-run 1=adaptive 2=adaptive+ckpt)",
        "txns/sec (aux series: appends/fsync, fsync-wait p99 µs, records/write)",
    );
    let spec = MicroSpec::zipf(bc.n_records as u64, 10, 0.9, false);
    let mut tput = Series::new("txns/sec".to_string());
    let mut coalesce = Series::new("appends/fsync".to_string());
    let mut wait99 = Series::new("fsync-wait p99 µs".to_string());
    let mut per_write = Series::new("records/write".to_string());
    for (x, interval, ckpt) in [
        (0.0, SyncInterval::PerRun, None),
        (1.0, SyncInterval::Adaptive, None),
        (2.0, SyncInterval::Adaptive, Some(1 << 20)),
    ] {
        let n = spec.n_records as usize;
        let db = Arc::new(Database::Flat(Table::new(n, bc.record_size)));
        let mut cfg = OrthrusConfig::with_threads(1, 1, CcAssignment::KeyModulo);
        cfg.flush_threshold = bc.flush_threshold;
        cfg.admission = AdmissionPolicy::conflict_batch();
        let dir = orthrus_common::TempDir::new("abl10-cmdlog");
        cfg.durability = DurabilityMode::LogFsync;
        cfg.log_dir = Some(dir.path().to_path_buf());
        cfg.sync_interval = interval;
        cfg.checkpoint_bytes = ckpt;
        let stats = OrthrusEngine::new(db, Spec::Micro(spec.clone()), cfg).run(&bc.params(2));
        tput.push(x, stats.throughput());
        // Per-run mode flushes inline, one fsync per write and no
        // coordinator: its records per fsync are its records per write.
        coalesce.push(
            x,
            if interval == SyncInterval::PerRun {
                stats.records_per_write()
            } else {
                stats.coalesced_appends_per_sync()
            },
        );
        wait99.push(x, stats.fsync_wait_p99_us());
        per_write.push(x, stats.records_per_write());
        drop(dir);
    }
    fig.series.push(tput);
    fig.series.push(coalesce);
    fig.series.push(wait99);
    fig.series.push(per_write);
    fig
}

/// A11: the **TCP front door** (`orthrus-net`) vs the in-process
/// session, and how response frames fill as offered load rises.
/// The same contention crucible as A8 (scrambled-Zipf θ = 0.9, 10 RMW,
/// conflict-batched admission, 1 CC / 2 exec) runs three ways:
///
/// - **in-process** closed loop — the capacity reference every wire
///   cost is measured against;
/// - **TCP closed loop** — `ORTHRUS_NET_CONNS` loopback connections
///   with a fixed in-flight window each: how much of that capacity
///   survives real framing, syscalls, and completion fan-out (the
///   acceptance floor is 80%);
/// - **TCP open loop** at 0.5× and 1.3× of capacity — the batch
///   series: mean completions per response frame. Nothing steers it; a
///   writer sends a frame once it carries half of what its connection
///   has in the engine (see EXPERIMENTS.md §Network for how that grows
///   with load).
pub fn abl11_net(bc: &BenchConfig) -> FigureResult {
    use crate::netbench::{run_net_load, NetLoadConfig};

    let mut fig = FigureResult::new(
        "abl11",
        "TCP front door: delivered throughput + frame occupancy (1 CC / 2 exec)".to_string(),
        "offered_fraction_of_capacity (0 = closed loop)",
        "txns/sec (batch series: completions/frame, txns/read-syscall)",
    );
    let spec = MicroSpec::zipf(bc.n_records as u64, 10, 0.9, false);
    let mut bc_cb = bc.clone();
    bc_cb.admission = AdmissionPolicy::conflict_batch();
    // The same thread shape the net run uses, so the comparison isolates
    // the wire instead of the engine size.
    let capacity = run_orthrus_custom(spec.clone(), 1, 2, true, None, 16, &bc_cb).throughput();

    let mut load = NetLoadConfig::from_env(&bc_cb);
    load.policy = AdmissionPolicy::conflict_batch();

    let mut inproc = Series::new("in-process txns/sec (capacity)");
    let mut tput = Series::new("tcp delivered txns/sec");
    let mut txb = Series::new("wire tx batch mean (completions/frame)");
    let mut rxb = Series::new("wire rx batch mean (txns/frame)");
    let mut per_read = Series::new("txns per read syscall");
    for frac in [0.0f64, 0.5, 1.3] {
        load.rate = capacity * frac; // 0.0 stays closed-loop
        let r = run_net_load(&spec, &load, &bc_cb);
        inproc.push(frac, capacity); // flat row: the reference line
        tput.push(frac, r.throughput());
        txb.push(frac, r.tx_batch_mean());
        rxb.push(frac, r.rx_batch_mean());
        per_read.push(frac, r.txns_per_read_call());
    }
    fig.series.push(inproc);
    fig.series.push(tput);
    fig.series.push(txb);
    fig.series.push(rxb);
    fig.series.push(per_read);
    fig
}

/// Drive one partitioned-deployment cell: an open-loop client pushing a
/// contended hot/cold mix against [`PartitionedEngine`], with
/// `cross_pct`% of programs spanning two partitions (epoch-sequenced)
/// and `bc.xpart_pct`% emitted as transfers on top. Measures completed
/// transactions per second over the bench window.
///
/// Resources are held constant across partition counts: the whole
/// deployment always gets 4 CC + 2 exec threads (2+1 per partition at
/// `parts == 2`), so the comparison isolates what sharding buys — no
/// cross-CC grant forwarding, no hot-lock traffic between unrelated key
/// ranges — rather than just granting the deployment more threads.
pub fn run_partitioned(parts: usize, cross_pct: u32, bc: &BenchConfig) -> RunStats {
    use orthrus_part::{PartitionedConfig, PartitionedEngine};

    let n = bc.n_records as u64;
    let dbs: Vec<Arc<Database>> = (0..parts)
        .map(|_| Arc::new(Database::Flat(Table::new(bc.n_records, bc.record_size))))
        .collect();
    let per_part = |total: usize| (total / parts).max(1);
    let mut ocfg = OrthrusConfig::with_threads(per_part(4), per_part(2), CcAssignment::KeyModulo);
    ocfg.admission = bc.admission.clone();
    ocfg.flush_threshold = bc.flush_threshold;
    // Shallow pipelines: the cell isolates coordination (grant-chain
    // hops, the epoch barrier), which deep in-flight windows would
    // amortize away.
    ocfg.max_inflight = 1;
    let mut pcfg = PartitionedConfig::new(parts, ocfg);
    // Small epochs: each barrier round trip covers a handful of
    // cross-partition programs, so the per-epoch deployment-wide stall
    // shows up in the curve instead of vanishing into a 64-deep batch.
    pcfg.epoch_max_batch = 1;
    let mut handle = PartitionedEngine::start(dbs, pcfg, bc.seed);
    let session = handle.session();

    // The paper's high-contention shape: a tiny hot set every program
    // hits, so the unsharded engine pays hot-lock grant chains that hop
    // between its CC threads, while each partition's slice of the hot
    // set lives under a single CC. `cross_pct` flips that fraction of
    // programs to a two-partition footprint — same keys-per-program
    // shape at every point on the curve, only the coordination changes.
    let hot = (4 * parts.max(2)) as u64;
    let spec = MicroSpec::hot_cold(n, hot, 4, 4, false)
        .with_constraint(PartitionConstraint::MultiFraction {
            pct: cross_pct,
            of: parts as u32,
        })
        .with_transfers(bc.xpart_pct);
    let mut generator = spec.generator(bc.seed, 0);

    let mut completions = Vec::new();
    let mut drive = |window: Duration, completions: &mut Vec<_>| -> (u64, Duration) {
        let t0 = Instant::now();
        let mut done = 0u64;
        while t0.elapsed() < window {
            for _ in 0..32 {
                let mut program = generator.next_program();
                loop {
                    match session.try_submit(program) {
                        Ok(_) => break,
                        Err(orthrus_core::TrySubmitError::Full(back)) => {
                            program = back;
                            completions.clear();
                            done += handle.drain_completions(completions) as u64;
                            std::thread::yield_now();
                        }
                        Err(e) => panic!("partitioned submit rejected: {e}"),
                    }
                }
            }
            completions.clear();
            done += handle.drain_completions(completions) as u64;
        }
        (done, t0.elapsed())
    };
    drive(bc.warmup, &mut completions);
    let (done, elapsed) = drive(bc.measure, &mut completions);

    let mut stats = handle.shutdown();
    // Report the measured window, not the engines' own run clocks: the
    // open-loop cell is defined by completions drained per wall second.
    stats.totals.committed = done;
    stats.elapsed = elapsed;
    stats
}

/// A12: partition scaling × cross-partition fraction — the coordination
/// collapse curve. At 0% every program fast-paths into its own engine
/// and the partitioned deployment outruns the equal-resource single
/// engine (whose hot-lock grants hop between CC threads); as the
/// cross-partition fraction grows, a rising share of work serializes
/// behind the epoch barrier's submit/complete round trips and the
/// partition advantage collapses toward (below, eventually) the
/// single-engine line, which is flat by construction — the constraint
/// is inert at one partition. `ORTHRUS_PARTITIONS` extends the
/// partition-count sweep; `ORTHRUS_XPART_FRACTION` layers transfer
/// traffic on every cell.
pub fn abl12_partition(bc: &BenchConfig) -> FigureResult {
    let mut fig = FigureResult::new(
        "abl12",
        "Partitioned deployment: throughput vs cross-partition fraction (4 CC + 2 exec total)"
            .to_string(),
        "cross_partition_pct",
        "txns/sec",
    );
    let mut counts = vec![1usize, 2];
    if bc.partitions > 2 {
        counts.push(bc.partitions);
    }
    let fracs = [0u32, 1, 5, 20, 50];
    for &parts in &counts {
        let mut s = Series::new(if parts == 1 {
            "1 partition (single engine)".to_string()
        } else {
            format!("{parts} partitions")
        });
        for &pct in &fracs {
            let stats = run_partitioned(parts, pct, bc);
            s.push(pct as f64, stats.throughput());
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability2_ablation_covers_all_sync_modes() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl10_durability2(&bc);
        assert_eq!(fig.series.len(), 4);
        // Every sync mode commits work...
        assert!(fig.series[0].points.iter().all(|&(_, y)| y > 0.0));
        // ...no fsync covers less than a record (the ≥2× separation of
        // the group rows is a release-run acceptance number, not a
        // quick-test invariant), and no write carries less than one.
        assert!(fig.series[1].points.iter().all(|&(_, y)| y >= 1.0));
        assert!(fig.series[3].points.iter().all(|&(_, y)| y >= 1.0));
    }

    #[test]
    fn partition_ablation_covers_every_cell() {
        let _serial = crate::test_serial();
        let mut bc = BenchConfig::test_quick();
        // Tiny windows: the test pins shape and liveness, not the
        // release-run scaling ratio (that's an EXPERIMENTS.md number).
        bc.warmup = Duration::from_millis(10);
        bc.measure = Duration::from_millis(40);
        let fig = abl12_partition(&bc);
        // 1-partition baseline plus the 2-partition deployment (the env
        // knob can extend the sweep but never shrinks it).
        assert!(fig.series.len() >= 2, "{}", fig.series.len());
        for s in &fig.series {
            assert!(s.points.len() >= 5, "{}", s.label);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn forwarding_ablation_runs_both_modes() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl01_forwarding(&bc);
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
    }

    #[test]
    fn tiny_queues_still_complete() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl02_queue_capacity(&bc);
        // Correctness under backpressure is the point: every capacity,
        // even 2, must finish and commit.
        assert!(fig.series[0].points.iter().all(|&(_, y)| y > 0.0));
    }

    #[test]
    fn inflight_depth_one_works() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl03_inflight_cap(&bc);
        assert!(fig.series[0].points.iter().all(|&(_, y)| y > 0.0));
        // Up to 16 the depth is what it was given; above, the rule keeps
        // it between 16 and the ceiling.
        let [_, mean, max] = &fig.series[..] else {
            panic!("throughput, mean cap, max cap")
        };
        for (&(x, m), &(_, hi)) in mean.points.iter().zip(&max.points) {
            if x <= 16.0 {
                assert_eq!((m, hi), (x, x));
            } else {
                assert!(16.0 <= m && m <= hi && hi <= x, "ceiling {x}: {m} / {hi}");
            }
        }
    }

    #[test]
    fn admission_ablation_runs_both_policies() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl06_admission(&bc);
        let (n_cc, _) = split(&bc);
        assert_eq!(
            fig.series.len(),
            2 + 2 * n_cc + 4,
            "2 policies + their CC threads + their txns/run and inflight max"
        );
        for s in &fig.series {
            assert_eq!(
                s.points.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                vec![0.3, 0.6, 0.9, 0.99],
                "{}",
                s.label
            );
            // Correctness at every skew level is the gate here; the
            // ConflictBatch ≥ Fifo throughput claim is for the timed bench
            // run, where windows are long enough to rank policies.
            assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{}", s.label);
        }
        let fifo_runs = fig.series.iter().find(|s| s.label == "fifo txns/run");
        assert!(
            fifo_runs.is_some_and(|s| s.points.iter().all(|&(_, y)| y == 1.0)),
            "FIFO admits one transaction per run"
        );
    }

    #[test]
    fn durability_ablation_sweeps_modes_and_policies() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl09_durability(&bc);
        // 2 policies × (throughput, txns/record, log MB/s).
        assert_eq!(fig.series.len(), 6);
        for p in 0..2 {
            let tput = &fig.series[3 * p];
            assert_eq!(
                tput.points.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                vec![0.0, 1.0, 2.0],
                "{}",
                tput.label
            );
            assert!(tput.points.iter().all(|&(_, y)| y > 0.0), "{}", tput.label);
            let group = &fig.series[3 * p + 1];
            // Logged modes only, and at least one txn per record.
            assert_eq!(group.points.len(), 2, "{}", group.label);
            assert!(
                group.points.iter().all(|&(_, y)| y >= 1.0),
                "{}",
                group.label
            );
            let rate = &fig.series[3 * p + 2];
            assert!(rate.points.iter().all(|&(_, y)| y > 0.0), "{}", rate.label);
        }
    }

    #[test]
    fn openloop_ablation_reports_all_policies_and_quantiles() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl08_openloop(&bc);
        assert_eq!(
            fig.series.len(),
            6,
            "2 policies × (throughput, p50, p99) series"
        );
        for s in &fig.series {
            assert_eq!(
                s.points.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                vec![0.5, 0.9, 1.3],
                "{}",
                s.label
            );
        }
        for s in fig.series.iter().filter(|s| s.label.contains("txns/sec")) {
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{} must deliver work at every offered rate",
                s.label
            );
        }
        for s in fig.series.iter().filter(|s| s.label.contains("µs")) {
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{} must report submit→commit latency",
                s.label
            );
        }
    }

    #[test]
    fn net_ablation_delivers_over_tcp() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl11_net(&bc);
        assert_eq!(fig.series.len(), 5);
        let tput = &fig.series[1];
        assert_eq!(tput.label, "tcp delivered txns/sec");
        assert!(
            tput.points.iter().all(|&(_, y)| y > 0.0),
            "every load point must deliver work over TCP: {:?}",
            tput.points
        );
        // Frame occupancy is a mean over ≥1-item flushes — it can never
        // be reported below 1 when any frame went out.
        let txb = &fig.series[2];
        assert!(
            txb.points.iter().all(|&(_, y)| y >= 1.0),
            "{:?}",
            txb.points
        );
    }

    #[test]
    fn batching_ablation_covers_all_thresholds() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::test_quick();
        let fig = abl05_batching(&bc);
        let points = &fig.series[0].points;
        assert_eq!(
            points.iter().map(|&(x, _)| x as usize).collect::<Vec<_>>(),
            vec![1, 4, 16]
        );
        // Correctness at every batching depth is the gate here; the
        // monotone throughput claim is for the timed bench run, where the
        // windows are long enough to rank configurations.
        assert!(points.iter().all(|&(_, y)| y > 0.0));
        // One utilisation series per CC thread, a percentage at every
        // threshold: a CC thread that handled requests was busy for some
        // of the window and idle for some of it.
        let (n_cc, _) = split(&bc);
        assert_eq!(fig.series.len(), 2 + n_cc);
        for s in &fig.series[1..=n_cc] {
            assert_eq!(s.points.len(), 3, "{}", s.label);
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0 && y < 100.0),
                "{}: {:?}",
                s.label,
                s.points
            );
        }
        // The releases-first rate: 0 at threshold 1, where nothing is
        // staged to leave early.
        let early = &fig.series[1 + n_cc];
        assert_eq!(
            early
                .points
                .iter()
                .map(|&(x, _)| x as usize)
                .collect::<Vec<_>>(),
            vec![1, 4, 16]
        );
        assert_eq!(early.points[0].1, 0.0);
        assert!(early.points.iter().all(|&(_, y)| y >= 0.0));
    }
}
