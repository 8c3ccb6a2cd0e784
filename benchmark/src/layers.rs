//! Per-layer call costs: direct, single-threaded calls into each
//! layer's public functions on the first [`N_PROGRAMS`] programs the
//! workload generates. No engine runs while these are timed, so each
//! number is the layer's own cost without waiting.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use orthrus_common::XorShift64;
use orthrus_core::LockPlan;
use orthrus_durability::{CommandLog, DurabilityMode, LoggedCommit};
use orthrus_net::codec::encode_request;
use orthrus_net::{Frame, FrameDecoder};
use orthrus_part::{route, slice, PartitionMap, Route};
use orthrus_txn::{execute_planned, plan_accesses, Plan, Program};

use crate::names::Metrics;
use crate::stats::ratio;
use crate::workloads::{Workload, PARTITIONS};

pub const N_PROGRAMS: usize = 100_000;
/// Messages per ring transaction, as the engine's default flush
/// threshold batches them.
const SPSC_BATCH: usize = 16;
/// Requests per request frame.
const FRAME_BATCH: usize = 32;
/// Appends between two group syncs.
const APPENDS_PER_SYNC: usize = 1000;

fn ns_each(started: Instant, n: usize) -> f64 {
    ratio(started.elapsed().as_nanos() as f64, n as f64)
}

/// Time the calls and set their metrics. Returns how many calls gave a
/// wrong result.
pub fn measure(w: &Workload, seed: u64, scratch: &Path, m: &mut Metrics) -> Result<u64, String> {
    let mut failed = 0u64;

    // workload: program generation (Zipf's zeta table is built outside
    // the timed part, as the driver builds it before its windows).
    let mut gen = w.spec().generator(seed, 0);
    let t = Instant::now();
    let programs: Vec<Program> = (0..N_PROGRAMS).map(|_| gen.next_program()).collect();
    m.set("workload.gen_ns_per_txn", ns_each(t, N_PROGRAMS));

    // storage: one table build, as set-up does it.
    let t = Instant::now();
    let db = w.build_db(seed);
    m.set("storage.table_build_s", t.elapsed().as_secs_f64());

    // txn: access analysis, then execution under the plan on this
    // private table.
    let mut rng = XorShift64::new(seed);
    let t = Instant::now();
    let plans: Vec<Plan> = programs
        .iter()
        .map(|p| plan_accesses(p, &db, 0, &mut rng))
        .collect();
    m.set("txn.plan_ns_per_txn", ns_each(t, N_PROGRAMS));
    let t = Instant::now();
    for (program, plan) in programs.iter().zip(&plans) {
        failed += u64::from(black_box(execute_planned(program, &db, plan)).is_err());
    }
    m.set("txn.execute_ns_per_txn", ns_each(t, N_PROGRAMS));

    // core::plan: grouping the access set into per-CC spans.
    let cfg = w.engine_config(scratch);
    let mut ccs = 0usize;
    let t = Instant::now();
    for plan in &plans {
        let lock_plan = LockPlan::build(&plan.accesses, |k| cfg.cc_of(&db, k));
        ccs += black_box(lock_plan).n_cc_involved();
    }
    m.set("core.plan.build_ns_per_txn", ns_each(t, N_PROGRAMS));
    m.set(
        "core.plan.ccs_per_txn",
        ratio(ccs as f64, N_PROGRAMS as f64),
    );

    // spsc: one slice publish and one batch pop per 16 messages.
    let (mut tx, mut rx) = orthrus_spsc::channel::<u64>(1024);
    let mut stage: Vec<u64> = Vec::with_capacity(SPSC_BATCH);
    let mut popped: Vec<u64> = Vec::with_capacity(SPSC_BATCH);
    let mut sum = 0u64;
    let t = Instant::now();
    for round in 0..N_PROGRAMS as u64 {
        stage.extend(round..round + SPSC_BATCH as u64);
        tx.push_slice(&mut stage);
        rx.pop_batch(&mut popped);
        sum = sum.wrapping_add(popped.drain(..).sum::<u64>());
    }
    black_box(sum);
    m.set(
        "spsc.push_pop_ns_per_msg",
        ns_each(t, N_PROGRAMS * SPSC_BATCH),
    );

    // durability: one record per transaction (what FIFO admission
    // writes), group-synced every 1000 appends.
    let log_dir = scratch.join("layers-log");
    let _ = std::fs::remove_dir_all(&log_dir);
    let log = CommandLog::open(&log_dir, DurabilityMode::LogFsync)
        .map_err(|e| format!("open {}: {e}", log_dir.display()))?
        .with_group_sync(true);
    let mut runs: Vec<Vec<LoggedCommit>> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![LoggedCommit {
                ticket: Some(i as u64),
                program: p.clone(),
            }]
        })
        .collect();
    let (mut append_ns, mut sync_ns, mut syncs) = (0u128, 0u128, 0u64);
    for chunk in runs.chunks_mut(APPENDS_PER_SYNC) {
        let t = Instant::now();
        for run in chunk.iter_mut() {
            log.append_run(run).map_err(|e| format!("append: {e}"))?;
        }
        append_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let covered = log.group_sync_now().map_err(|e| format!("sync: {e}"))?;
        sync_ns += t.elapsed().as_nanos();
        syncs += 1;
        failed += u64::from(covered != chunk.len() as u64);
    }
    drop(log);
    let _ = std::fs::remove_dir_all(&log_dir);
    m.set(
        "durability.append_ns_per_record",
        ratio(append_ns as f64, N_PROGRAMS as f64),
    );
    m.set(
        "durability.group_sync_us",
        ratio(sync_ns as f64 / 1e3, syncs as f64),
    );

    // net::codec: request frames of 32, encoded then decoded.
    let requests: Vec<(u64, Program)> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p.clone()))
        .collect();
    let mut wire: Vec<u8> = Vec::with_capacity(N_PROGRAMS * 128);
    let t = Instant::now();
    for frame in requests.chunks(FRAME_BATCH) {
        encode_request(frame, &mut wire);
    }
    m.set("net.codec.encode_ns_per_txn", ns_each(t, N_PROGRAMS));
    m.set(
        "net.codec.wire_bytes_per_txn",
        ratio(wire.len() as f64, N_PROGRAMS as f64),
    );
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    let t = Instant::now();
    for piece in wire.chunks(64 * 1024) {
        decoder.feed(piece);
        while let Ok(Some(frame)) = decoder.next_frame() {
            if let Frame::Request(reqs) = black_box(frame) {
                decoded += reqs.len();
            }
        }
    }
    m.set("net.codec.decode_ns_per_txn", ns_each(t, N_PROGRAMS));
    failed += u64::from(decoded != N_PROGRAMS || decoder.bad_frames() != 0);

    // part::map: classify every program, slice the cross-partition ones.
    let map = PartitionMap::Modulo { parts: PARTITIONS };
    let t = Instant::now();
    let cross: Vec<&Program> = programs
        .iter()
        .filter(|p| matches!(black_box(route(p, &map)), Route::Cross(_)))
        .collect();
    m.set("part.map.route_ns_per_txn", ns_each(t, N_PROGRAMS));
    m.set(
        "part.cross_share",
        ratio(cross.len() as f64, N_PROGRAMS as f64),
    );
    let t = Instant::now();
    for p in &cross {
        black_box(slice(p, &map));
    }
    m.set("part.map.slice_ns_per_cross_txn", ns_each(t, cross.len()));

    Ok(failed)
}
