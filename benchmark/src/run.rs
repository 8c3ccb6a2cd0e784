//! One pass of one workload: set up, warm up, the paced window, the
//! closed-loop window (and, in the traced pass, a second closed-loop
//! window with spans on), shutdown, the output checks, recovery, and the
//! metrics all of that yields.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orthrus_core::{DurabilityMode, OrthrusEngine};

use crate::layers;
use crate::load::{pin_generator, Clock, WindowStats};
use crate::names::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, ratio};
use crate::workloads::{
    counter_sum, set_up, tables_equal, Door, SetUp, Stopped, SumRule, Workload,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `--trace 0`: the gated metrics, tracing off throughout.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics; closed-loop time is split
    /// between an untraced and a traced window on the same instance, so
    /// their difference is the tracing overhead.
    Traced,
}

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Samples behind the paced median.
    pub paced_samples: usize,
}

/// Set-ups timed per end-to-end pass; `setup_s` is their median.
const SETUPS: usize = 15;

/// How `--seconds` is split. The closed-loop window gets the larger
/// share: its rate estimate needs many one-second samples, the paced
/// median needs few.
struct Phases {
    warmup: Duration,
    paced: Duration,
    closed: Duration,
    traced: Duration,
}

impl Phases {
    fn new(seconds: f64, pass: Pass) -> Self {
        let share = |s: f64| Duration::from_secs_f64(seconds * s);
        let (paced, closed, traced) = match pass {
            Pass::EndToEnd => (0.3, 0.7, 0.0),
            Pass::Traced => (0.2, 0.4, 0.4),
        };
        Phases {
            warmup: share(0.1).min(Duration::from_millis(1500)),
            paced: share(paced),
            closed: share(closed),
            traced: share(traced),
        }
    }
}

/// Output checks: each is one attempt, and one failure if it is false.
struct Checks {
    attempted: u64,
    failed: u64,
    workload: &'static str,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("{}: CHECK FAILED: {what}", self.workload);
        }
    }
}

pub fn run_pass(w: &Workload, seed: u64, seconds: f64, pass: Pass) -> Result<Outcome, String> {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let log_dir = out_dir.join(format!("log-{}", w.name));
    let phases = Phases::new(seconds, pass);

    // Only the end-to-end pass reports set-up time, so only it repeats
    // the set-up.
    let first = w.spec().generator(seed, 0).next_program();
    let n_setups = if pass == Pass::EndToEnd { SETUPS } else { 1 };
    let mut setup_s = Vec::with_capacity(n_setups);
    let mut kept: Option<SetUp> = None;
    for _ in 0..n_setups {
        if let Some(previous) = kept.take() {
            previous.discard();
        }
        let s = set_up(w, seed, &log_dir, first.clone())?;
        setup_s.push(s.total_s);
        kept = Some(s);
    }
    let kept = kept.expect("at least one set-up");
    let dbs = kept.dbs.clone();
    let set_up_done = Instant::now();

    let (warm_s, paced, closed, traced, stopped) = on_generator_thread(|| {
        let mut rig = kept.into_rig(w, seed, Clock::start());
        rig.window(0, phases.warmup)?;
        let warm_s = set_up_done.elapsed().as_secs_f64();
        let paced = rig.window(w.paced_rate, phases.paced)?.summarize();
        let closed = rig.window(0, phases.closed)?.summarize();
        let traced = match pass {
            Pass::EndToEnd => None,
            Pass::Traced => {
                rig.set_tracing(true);
                Some(rig.window(0, phases.traced)?.summarize())
            }
        };
        Ok((warm_s, paced, closed, traced, rig.shutdown()))
    })?;
    // Before recovery and the direct calls allocate: the engine, its
    // tables and the generator's preallocated buffers.
    let peak_rss_mb = peak_rss_mb();

    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        workload: w.name,
    };
    let a = stopped.audit;
    // Every accepted ticket completes exactly once; nothing is refused
    // for a reason other than backpressure.
    if a.wrong() > 0 {
        eprintln!(
            "{}: {} accepted, {} completed, {} refused, {} duplicate or unknown completions",
            w.name, a.accepted, a.completed, a.rejected, a.anomalies
        );
    }
    checks.check(
        "the system and the generators agree on how many submissions were accepted",
        stopped.engine_accepted == a.accepted,
    );
    // Tables start zeroed, and the set-up's first commit is one of the
    // accepted tickets.
    match w.sum_rule() {
        SumRule::Zero => checks.check("transfers conserve money", counter_sum(&dbs) == 0),
        SumRule::PerCommit(n) => checks.check(
            "every commit bumped each of its counters exactly once",
            counter_sum(&dbs) == a.accepted.wrapping_mul(n),
        ),
        SumRule::None => {}
    }
    let hub_total: u64 = stopped.hub.iter().map(|h| h.total()).sum();
    let hub_routed: u64 = stopped.hub.iter().map(|h| h.routed).sum();
    match w.door {
        Door::Session => {}
        Door::Tcp => {
            checks.check(
                "hub routed + orphaned + unowned = accepted",
                hub_total == stopped.engine_accepted,
            );
            checks.check("every completion was routed", hub_routed == hub_total);
            checks.check("no bad frames", stopped.net.net_bad_frames == 0);
        }
        Door::Part => {
            checks.check(
                "per-partition hubs account for every local commit",
                hub_total == stopped.stats.totals.committed_all,
            );
            checks.check("every completion was routed", hub_routed == hub_total);
        }
    }

    let mut recover_s = 0.0;
    let mut recovered_txns = 0u64;
    if w.durability.is_on() {
        let fresh = Arc::new(w.build_db(seed));
        let started = Instant::now();
        let (engine, report) =
            OrthrusEngine::try_recover(Arc::clone(&fresh), w.engine_config(&log_dir))
                .map_err(|e| format!("recovery: {e}"))?;
        recover_s = started.elapsed().as_secs_f64();
        drop(engine);
        recovered_txns = report.txns;
        checks.check(
            "the recovered table equals the live table",
            tables_equal(&fresh, &dbs[0]),
        );
        let mut tickets = report.tickets;
        tickets.sort_unstable();
        checks.check(
            "every delivered ticket was replayed exactly once",
            tickets.len() as u64 == a.accepted && tickets.iter().copied().eq(0..a.accepted),
        );
        let _ = std::fs::remove_dir_all(&log_dir);
    }

    for (what, win) in [("paced", &paced), ("closed", &closed)] {
        if win.overflow > 0 {
            eprintln!(
                "{}: {} {what} latency samples did not fit the buffer",
                w.name, win.overflow
            );
        }
    }
    if !(0.9..=1.1).contains(&closed.littles_ratio) {
        eprintln!(
            "{}: SUSPECT: Little's-law ratio {:.3} outside 0.9-1.1",
            w.name, closed.littles_ratio
        );
    }

    let metrics = match pass {
        Pass::EndToEnd => {
            let mut m = Metrics::new(END_TO_END);
            m.set("commits_per_s", closed.rate);
            m.set("paced_p50_us", paced.quiet_p50_us);
            // Everything before the first measured second: the system's
            // set-up, then the generator's own (buffers, Zipf table) and
            // the warm-up.
            m.set("setup_s", median(&setup_s) + warm_s);
            m
        }
        Pass::Traced => {
            let traced = traced.expect("the traced pass has a traced window");
            let mut m = Metrics::new(PER_LAYER);
            engine_metrics(&mut m, &stopped);
            loadgen_metrics(&mut m, &paced, &closed);
            m.set("durability.recover_s", recover_s);
            m.set(
                "durability.recover_txns_per_s",
                ratio(recovered_txns as f64, recover_s),
            );
            trace_metrics(&mut m, w, &stopped, &closed, &traced);
            if w.durability.is_on() {
                let lost = fsync_probe(&mut m, w, seed, &log_dir, first, phases.warmup)?;
                checks.check(
                    "group-fsync probe: every ticket completed exactly once",
                    lost == 0,
                );
            }
            let path = out_dir.join(format!("trace-{}.json", w.name));
            stopped
                .tracer
                .write_json(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let wrong = layers::measure(w, seed, &out_dir, &mut m)?;
            checks.check("direct layer calls gave the expected results", wrong == 0);
            m.set("process.peak_rss_mb", peak_rss_mb);
            m.set("setup.first_commit_s", setup_s[0]);
            m
        }
    };

    Ok(Outcome {
        metrics,
        attempted: a.accepted + a.rejected + checks.attempted,
        failed: a.wrong() + checks.failed,
        paced_samples: paced.lat.count,
    })
}

/// `benchmark/` in the checkout the binary is run from, else where it
/// was built.
pub fn bench_dir() -> PathBuf {
    let here = std::env::current_dir().map(|d| d.join("benchmark"));
    match here {
        Ok(dir) if dir.join("Cargo.toml").is_file() => dir,
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")),
    }
}

/// Run `drive` on a thread of its own, pinned as the load generator.
/// Not on the caller's thread: pinning that would make every thread the
/// next set-up spawns inherit its one-CPU mask.
fn on_generator_thread<T: Send>(
    drive: impl FnOnce() -> Result<T, String> + Send,
) -> Result<T, String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_generator();
            drive()
        })
        .join()
    })
    .map_err(|_| "the load generator panicked".to_string())?
}

/// The group-fsync path, ungated: a second, short closed-loop run of the
/// durable workload with `log+fsync` and the adaptive sync coordinator.
/// Kept out of the gated windows because it measures the host's disk:
/// identical runs spread 85-118 k/s here, and 17-69 k/s while a
/// neighbour was busy. Returns how many tickets went wrong.
fn fsync_probe(
    m: &mut Metrics,
    w: &Workload,
    seed: u64,
    log_dir: &Path,
    first: orthrus_txn::Program,
    dur: Duration,
) -> Result<u64, String> {
    let probe = Workload {
        durability: DurabilityMode::LogFsync,
        ..*w
    };
    let su = set_up(&probe, seed, log_dir, first)?;
    let (window, stopped) = on_generator_thread(|| {
        let mut rig = su.into_rig(&probe, seed, Clock::start());
        let window = rig.window(0, dur)?.summarize();
        Ok((window, rig.shutdown()))
    })?;
    let _ = std::fs::remove_dir_all(log_dir);
    m.set("durability.fsync_commits_per_s", window.rate);
    m.set("durability.fsync_commit_p50_us", window.lat.p50_us);
    m.set(
        "durability.appends_per_sync",
        stopped.stats.coalesced_appends_per_sync(),
    );
    m.set(
        "durability.fsync_wait_p50_us",
        stopped.stats.fsync_wait_p50_us(),
    );
    Ok(stopped.audit.wrong())
}

/// Ratios from the `RunStats` the shutdown returned. They cover the
/// engine's whole life (first commit, warm-up and every window): with no
/// measurement window opened the counters are exact totals, so e.g. the
/// messages-per-commit bound reads exactly, not approximately.
fn engine_metrics(m: &mut Metrics, stopped: &Stopped) {
    let t = &stopped.stats.totals;
    let commits = t.committed_all as f64;
    m.set(
        "core.fabric.msgs_per_commit",
        ratio(t.messages_sent as f64, commits),
    );
    m.set(
        "core.cc.lock_waits_per_commit",
        ratio(t.lock_waits as f64, commits),
    );
    m.set(
        "core.exec.execution_ns_per_commit",
        ratio(t.execution_ns as f64, commits),
    );
    m.set(
        "core.exec.locking_ns_per_commit",
        ratio(t.locking_ns as f64, commits),
    );
    m.set(
        "core.exec.waiting_ns_per_commit",
        ratio(t.waiting_ns as f64, commits),
    );
    m.set("core.admit.switches", t.admission_switches as f64);
    m.set(
        "core.admit.ollp_aborts_per_commit",
        ratio(t.aborts_ollp as f64, commits),
    );
    m.set(
        "durability.commits_per_record",
        ratio(commits, t.log_records as f64),
    );
    m.set(
        "durability.log_bytes_per_commit",
        ratio(t.log_bytes as f64, commits),
    );

    let n = &stopped.net;
    m.set(
        "net.rx_txns_per_read",
        ratio(n.net_rx_txns as f64, n.net_read_calls as f64),
    );
    m.set(
        "net.tx_completions_per_frame",
        ratio(n.net_tx_completions as f64, n.net_tx_frames as f64),
    );
    m.set(
        "net.write_calls_per_commit",
        ratio(n.net_write_calls as f64, commits),
    );
    m.set("net.bad_frames", n.net_bad_frames as f64);

    let routed: Vec<f64> = stopped.hub.iter().map(|h| h.routed as f64).collect();
    let total: u64 = stopped.hub.iter().map(|h| h.total()).sum();
    m.set(
        "core.hub.routed_share",
        ratio(routed.iter().sum(), total as f64),
    );
    if routed.len() > 1 {
        let max = routed.iter().copied().fold(f64::MIN, f64::max);
        let min = routed.iter().copied().fold(f64::MAX, f64::min);
        m.set("part.partition_imbalance", ratio(max, min));
    }
}

fn loadgen_metrics(m: &mut Metrics, paced: &WindowStats, closed: &WindowStats) {
    m.set("loadgen.closed_p50_us", closed.lat.p50_us);
    m.set("loadgen.closed_p99_us", closed.lat.p99_us);
    m.set("loadgen.closed_tail_us", closed.lat.tail_us);
    m.set("loadgen.closed_samples", closed.lat.count as f64);
    m.set("loadgen.paced_window_p50_us", paced.lat.p50_us);
    m.set("loadgen.paced_p99_us", paced.lat.p99_us);
    m.set("loadgen.paced_tail_us", paced.lat.tail_us);
    m.set("loadgen.paced_samples", paced.lat.count as f64);
    m.set("loadgen.paced_lag_p99_us", paced.lag_p99_us);
    m.set("loadgen.paced_lag_max_us", paced.lag_max_us);
    m.set("loadgen.submit_full_share", closed.full_share);
    m.set("loadgen.per_second_cv", closed.cv);
    m.set("loadgen.littles_law_ratio", closed.littles_ratio);
}

/// Call costs at the front door the workload used, the sampled
/// transactions' residence, and what tracing cost.
fn trace_metrics(
    m: &mut Metrics,
    w: &Workload,
    stopped: &Stopped,
    untraced: &WindowStats,
    traced: &WindowStats,
) {
    let tr = &stopped.tracer;
    match w.door {
        Door::Session => {
            m.set(
                "core.session.submit_ns_per_txn",
                tr.stat("core.session.submit").ns_per_item(),
            );
            m.set(
                "core.session.drain_ns_per_completion",
                tr.stat("core.session.drain").ns_per_item(),
            );
        }
        Door::Part => {
            m.set(
                "part.session.submit_ns_per_txn",
                tr.stat("part.session.submit").ns_per_item(),
            );
            m.set(
                "part.session.drain_ns_per_completion",
                tr.stat("part.session.drain").ns_per_item(),
            );
        }
        Door::Tcp => {
            let (send, poll) = (tr.stat("net.client.send"), tr.stat("net.client.poll"));
            m.set("net.client.send_us_per_batch", send.us_per_call());
            m.set("net.client.poll_us_per_call", poll.us_per_call());
            m.set(
                "net.client.empty_polls_per_completion",
                ratio(poll.empty as f64, poll.items as f64),
            );
        }
    }
    // The `txn` span's self time: submit call to drain return, minus the
    // two calls themselves — what the transaction spent inside the
    // system (and, over TCP, on the wire).
    let mut residence = tr.self_times_ns("txn");
    residence.sort_unstable();
    m.set(
        "core.engine.residence_p50_us",
        percentile(&residence, 0.5) / 1e3,
    );
    m.set("core.engine.shutdown_s", stopped.shutdown_s);
    m.set("trace.commits_per_s", traced.rate);
    m.set(
        "trace.overhead_share",
        1.0 - ratio(traced.rate, untraced.rate),
    );
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
