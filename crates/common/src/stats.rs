//! Run statistics and the CPU-time phase accounting behind Figure 10.
//!
//! Each worker owns a local [`ThreadStats`] (no shared counters on the hot
//! path — shared statistics would reintroduce exactly the cache-line
//! ping-pong the paper is about). At the end of a run the harness merges
//! them into a [`RunStats`].

use std::time::{Duration, Instant};

use crate::latency::LatencyHistogram;

/// The three execution-thread CPU-time categories of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Running transaction logic (reads/writes of record payloads).
    Execution,
    /// Concurrency-control work performed by this thread: lock table
    /// manipulation, planning, building/sending lock messages.
    Locking,
    /// Blocked or idle: spinning on a lock grant, waiting for responses
    /// from CC threads with no runnable transaction.
    Waiting,
}

/// Per-thread counters, owned by the worker and merged after the run.
#[derive(Debug, Clone, Default)]
pub struct ThreadStats {
    /// Committed transactions within the measurement window.
    pub committed: u64,
    /// Committed transactions over the worker's whole lifetime (warmup +
    /// window + drain). Not a throughput input — it lets tests state
    /// *exact* effect invariants (e.g. every commit applied its N writes
    /// exactly once), which the windowed counter cannot.
    pub committed_all: u64,
    /// Aborts caused by detected deadlocks (wait-for graph / Dreadlocks).
    pub aborts_deadlock: u64,
    /// Aborts caused by the wait-die timestamp rule (includes false
    /// positives, which the paper calls out in Section 4.1).
    pub aborts_wait_die: u64,
    /// Aborts caused by an OLLP access-estimate mismatch (Section 3.2).
    pub aborts_ollp: u64,
    /// Nanoseconds spent in each Figure-10 phase.
    pub execution_ns: u64,
    pub locking_ns: u64,
    pub waiting_ns: u64,
    /// ORTHRUS CC threads only: wall time spent handling requests, and
    /// spent with none to handle (yielding or parked). Kept apart from
    /// the three buckets above, which describe execution threads.
    pub cc_busy_ns: u64,
    pub cc_idle_ns: u64,
    /// Messages sent (ORTHRUS only; validates the Ncc+1 analysis of
    /// Section 3.3).
    pub messages_sent: u64,
    /// Grant-deferral events observed (ORTHRUS only): locks that could
    /// not be granted immediately, summed over every grant received —
    /// the contention signal adaptive admission switches on.
    pub lock_waits: u64,
    /// ORTHRUS execution threads: the in-flight cap in force at each
    /// grant, summed, and the grants summed over — their ratio is the
    /// grant-weighted mean depth — and the deepest cap reached.
    pub inflight_cap_sum: u64,
    pub inflight_cap_grants: u64,
    pub inflight_cap_max: u64,
    /// ORTHRUS execution threads: runs admitted — one lock round each,
    /// however many transactions it fused — over the thread's whole
    /// lifetime (like `committed_all`, which it divides).
    pub runs: u64,
    /// ORTHRUS execution threads: the most transactions in flight at once
    /// over the thread's lifetime; never above `max_inflight`.
    pub inflight_max: u64,
    /// ORTHRUS execution threads: quanta whose staged lock releases were
    /// published before admission planned new work (windowed like
    /// `committed`).
    pub releases_first: u64,
    /// Adaptive-admission policy switches over the thread's whole
    /// lifetime (a lifetime counter like `committed_all`; 0 for the
    /// static policies).
    pub admission_switches: u64,
    /// Deadlock-detection passes that found a cycle (wait-for graph).
    pub cycles_found: u64,
    /// Command-log records appended within the measurement window
    /// (durability on: one per fused admission run). Windowed like
    /// `committed`, so `committed / log_records` is the group-commit
    /// amortization factor; post-stop drain appends happen but are not
    /// counted here.
    pub log_records: u64,
    /// Command-log writes those records went out in (one per execution
    /// thread's quantum, or per publish that had records behind it);
    /// windowed like `log_records`, so `log_records / log_writes` is the
    /// records per write.
    pub log_writes: u64,
    /// Command-log bytes appended (record framing included).
    pub log_bytes: u64,
    /// Command-log fsyncs issued (`log+fsync` mode only): one per write
    /// under per-run sync. Under the group-sync coordinator this counts
    /// the *coordinator's* coalesced fsyncs (merged into the run
    /// totals), not per-write flushes.
    pub log_flushes: u64,
    /// Group fsyncs issued by the sync coordinator (0 under per-run
    /// sync). `log_synced_appends / log_group_syncs` is the
    /// coalesced-appends-per-sync factor the coordinator exists for.
    pub log_group_syncs: u64,
    /// Appended records covered by those group fsyncs.
    pub log_synced_appends: u64,
    /// TCP front-end: socket `read` calls issued (one per inbound wire
    /// batch — the syscall-amortization denominator).
    pub net_read_calls: u64,
    /// TCP front-end: socket `write` calls issued.
    pub net_write_calls: u64,
    /// Request frames decoded off the wire.
    pub net_rx_frames: u64,
    /// Response frames written to the wire.
    pub net_tx_frames: u64,
    /// Transactions received inside those request frames.
    pub net_rx_txns: u64,
    /// Completions pushed back inside those response frames.
    pub net_tx_completions: u64,
    /// Frames rejected at the codec (bad CRC / bad version) without
    /// desyncing the stream.
    pub net_bad_frames: u64,
    /// Commit latency (transaction start → commit, including retries).
    pub latency: LatencyHistogram,
    /// Time a committed run's completions waited for the covering fsync
    /// (append → durable-release), group-sync mode only. Separates the
    /// durability tax from execution time in the open-loop histograms.
    pub log_fsync_wait: LatencyHistogram,
    /// Adaptive wire batching: requests per inbound frame (a count
    /// histogram riding the latency-histogram buckets — the recorded
    /// unit is "transactions", not nanoseconds).
    pub net_rx_batch: LatencyHistogram,
    /// Adaptive wire batching: completions per outbound frame.
    pub net_tx_batch: LatencyHistogram,
}

impl ThreadStats {
    /// Total aborts across all causes.
    pub fn aborts(&self) -> u64 {
        self.aborts_deadlock + self.aborts_wait_die + self.aborts_ollp
    }

    /// Zero the window counters at measurement start, preserving lifetime
    /// counters.
    pub fn reset_window(&mut self) {
        let (committed_all, runs, inflight_max) =
            (self.committed_all, self.runs, self.inflight_max);
        *self = ThreadStats::default();
        self.committed_all = committed_all;
        self.runs = runs;
        self.inflight_max = inflight_max;
    }

    /// Merge another thread's counters into this one.
    pub fn merge(&mut self, other: &ThreadStats) {
        self.committed += other.committed;
        self.committed_all += other.committed_all;
        self.aborts_deadlock += other.aborts_deadlock;
        self.aborts_wait_die += other.aborts_wait_die;
        self.aborts_ollp += other.aborts_ollp;
        self.execution_ns += other.execution_ns;
        self.locking_ns += other.locking_ns;
        self.waiting_ns += other.waiting_ns;
        self.cc_busy_ns += other.cc_busy_ns;
        self.cc_idle_ns += other.cc_idle_ns;
        self.messages_sent += other.messages_sent;
        self.lock_waits += other.lock_waits;
        self.inflight_cap_sum += other.inflight_cap_sum;
        self.inflight_cap_grants += other.inflight_cap_grants;
        self.inflight_cap_max = self.inflight_cap_max.max(other.inflight_cap_max);
        self.runs += other.runs;
        self.inflight_max = self.inflight_max.max(other.inflight_max);
        self.releases_first += other.releases_first;
        self.admission_switches += other.admission_switches;
        self.cycles_found += other.cycles_found;
        self.log_records += other.log_records;
        self.log_writes += other.log_writes;
        self.log_bytes += other.log_bytes;
        self.log_flushes += other.log_flushes;
        self.log_group_syncs += other.log_group_syncs;
        self.log_synced_appends += other.log_synced_appends;
        self.net_read_calls += other.net_read_calls;
        self.net_write_calls += other.net_write_calls;
        self.net_rx_frames += other.net_rx_frames;
        self.net_tx_frames += other.net_tx_frames;
        self.net_rx_txns += other.net_rx_txns;
        self.net_tx_completions += other.net_tx_completions;
        self.net_bad_frames += other.net_bad_frames;
        self.latency.merge(&other.latency);
        self.log_fsync_wait.merge(&other.log_fsync_wait);
        self.net_rx_batch.merge(&other.net_rx_batch);
        self.net_tx_batch.merge(&other.net_tx_batch);
    }

    /// Add elapsed nanoseconds to a phase bucket.
    #[inline]
    pub fn add_phase(&mut self, phase: Phase, ns: u64) {
        match phase {
            Phase::Execution => self.execution_ns += ns,
            Phase::Locking => self.locking_ns += ns,
            Phase::Waiting => self.waiting_ns += ns,
        }
    }
}

/// Tracks which phase a worker is currently in and accumulates wall time
/// into its [`ThreadStats`]. `Instant`-based: ~25 ns per transition, paid
/// only at phase boundaries (a handful per transaction).
#[derive(Debug)]
pub struct PhaseTimer {
    current: Phase,
    since: Instant,
}

impl PhaseTimer {
    /// Start timing in the given phase.
    pub fn start(initial: Phase) -> Self {
        PhaseTimer {
            current: initial,
            since: Instant::now(),
        }
    }

    /// Switch phases, attributing elapsed time to the previous phase.
    /// No-ops (cheaply) when the phase is unchanged.
    #[inline]
    pub fn switch(&mut self, stats: &mut ThreadStats, next: Phase) {
        if next == self.current {
            return;
        }
        let now = Instant::now();
        stats.add_phase(self.current, (now - self.since).as_nanos() as u64);
        self.current = next;
        self.since = now;
    }

    /// Flush the currently accumulating interval (call at end of run).
    pub fn finish(self, stats: &mut ThreadStats) {
        stats.add_phase(self.current, self.since.elapsed().as_nanos() as u64);
    }

    /// Current phase (for assertions/tests).
    pub fn current(&self) -> Phase {
        self.current
    }
}

/// Percent breakdown of exec-thread CPU time (Figure 10 rows).
#[derive(Debug, Clone, Copy)]
pub struct PhaseBreakdown {
    pub execution_pct: f64,
    pub locking_pct: f64,
    pub waiting_pct: f64,
}

/// Per-partition completion-routing counters: a completion hub's (or
/// partitioned pump's) routed/orphaned/unowned tallies labeled with the
/// partition that produced them. The conservation audit
/// `routed + orphaned + unowned == accepted` holds per partition, so a
/// failing audit localizes the loss to one partition instead of one
/// global number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubBreakdown {
    /// Partition index (0 for an unpartitioned engine).
    pub partition: usize,
    /// Completions routed to a registered owner.
    pub routed: u64,
    /// Owned completions whose owner had already unregistered.
    pub orphaned: u64,
    /// Completions for tickets submitted without an owner.
    pub unowned: u64,
}

impl HubBreakdown {
    /// Every completion this partition accounted for.
    pub fn total(&self) -> u64 {
        self.routed + self.orphaned + self.unowned
    }
}

/// One CC thread's wall time over the window, split into handling
/// requests and having none to handle — Section 3.3's over- and
/// under-utilised CC threads as a number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcUtil {
    pub busy_ns: u64,
    pub idle_ns: u64,
}

impl CcUtil {
    /// Percent of the thread's time spent handling requests.
    pub fn busy_pct(&self) -> f64 {
        100.0 * self.busy_ns as f64 / ((self.busy_ns + self.idle_ns) as f64).max(1.0)
    }
}

/// Aggregated results of a timed run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Merged per-thread counters.
    pub totals: ThreadStats,
    /// Measured wall-clock window.
    pub elapsed: Duration,
    /// Number of worker (execution) threads that contributed.
    pub threads: usize,
    /// Per-thread commit-latency histograms, one per contributing worker
    /// (same order as the merge). The merged totals hide per-thread
    /// skew — a hot-key exec thread can run an order of magnitude slower
    /// than its siblings under conflict-class routing — so open-loop
    /// experiments report both.
    pub per_thread_latency: Vec<LatencyHistogram>,
    /// Per-partition completion-routing breakdown. Empty when no
    /// completion fan-in ran (closed-loop runs); one entry per partition
    /// under `orthrus-part`, a single labeled entry when a lone
    /// `CompletionHub` reports through [`RunStats::with_hub`].
    pub hub: Vec<HubBreakdown>,
    /// One entry per ORTHRUS CC thread, in thread order (every
    /// partition's, concatenated, under `orthrus-part`). Empty for the
    /// baselines.
    pub cc: Vec<CcUtil>,
}

impl RunStats {
    /// Combine per-thread stats into a run summary.
    pub fn collect(per_thread: &[ThreadStats], elapsed: Duration) -> Self {
        let mut totals = ThreadStats::default();
        for t in per_thread {
            totals.merge(t);
        }
        RunStats {
            totals,
            elapsed,
            threads: per_thread.len(),
            per_thread_latency: per_thread.iter().map(|t| t.latency.clone()).collect(),
            hub: Vec::new(),
            cc: Vec::new(),
        }
    }

    /// Fold in the threads that did not run transactions themselves
    /// (ORTHRUS CC threads): their counters join the totals without
    /// counting as workers, and each one's utilisation is kept.
    pub fn with_cc_threads(mut self, cc_threads: &[ThreadStats]) -> Self {
        for t in cc_threads {
            self.totals.merge(t);
            self.cc.push(CcUtil {
                busy_ns: t.cc_busy_ns,
                idle_ns: t.cc_idle_ns,
            });
        }
        self
    }

    /// Attach a completion-routing breakdown entry (builder-style; used
    /// by completion fan-in layers after shutdown).
    pub fn with_hub(mut self, entry: HubBreakdown) -> Self {
        self.hub.push(entry);
        self
    }

    /// Fold another run's counters into this one — the partitioned
    /// engine's shutdown merges one `RunStats` per partition. The window
    /// is the longest of the two (partitions measure concurrently, so
    /// windows overlap rather than add); everything else sums or
    /// concatenates.
    pub fn absorb(&mut self, other: RunStats) {
        self.totals.merge(&other.totals);
        self.elapsed = self.elapsed.max(other.elapsed);
        self.threads += other.threads;
        self.per_thread_latency.extend(other.per_thread_latency);
        self.hub.extend(other.hub);
        self.cc.extend(other.cc);
    }

    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        self.totals.committed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Fraction of started transactions that aborted at least once.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.totals.committed + self.totals.aborts();
        if attempts == 0 {
            0.0
        } else {
            self.totals.aborts() as f64 / attempts as f64
        }
    }

    /// Median commit latency in microseconds.
    pub fn p50_latency_us(&self) -> f64 {
        self.totals.latency.quantile_ns(0.50) as f64 / 1_000.0
    }

    /// 99th-percentile commit latency in microseconds.
    pub fn p99_latency_us(&self) -> f64 {
        self.totals.latency.quantile_ns(0.99) as f64 / 1_000.0
    }

    /// Median fsync-wait (append → durable-release) in microseconds,
    /// group-sync mode only (0 when nothing waited).
    pub fn fsync_wait_p50_us(&self) -> f64 {
        self.totals.log_fsync_wait.quantile_ns(0.50) as f64 / 1_000.0
    }

    /// 99th-percentile fsync-wait in microseconds.
    pub fn fsync_wait_p99_us(&self) -> f64 {
        self.totals.log_fsync_wait.quantile_ns(0.99) as f64 / 1_000.0
    }

    /// Command-log records per write — how many runs an execution
    /// thread's write carries (0.0 when nothing was logged).
    pub fn records_per_write(&self) -> f64 {
        if self.totals.log_writes == 0 {
            0.0
        } else {
            self.totals.log_records as f64 / self.totals.log_writes as f64
        }
    }

    /// Quanta whose releases left before admission, per commit (0.0
    /// when nothing committed in the window).
    pub fn releases_first_per_commit(&self) -> f64 {
        if self.totals.committed == 0 {
            0.0
        } else {
            self.totals.releases_first as f64 / self.totals.committed as f64
        }
    }

    /// Appended records per coordinator fsync — the group-commit
    /// coalescing factor (0.0 when no group syncs ran).
    pub fn coalesced_appends_per_sync(&self) -> f64 {
        if self.totals.log_group_syncs == 0 {
            0.0
        } else {
            self.totals.log_synced_appends as f64 / self.totals.log_group_syncs as f64
        }
    }

    /// Mean requests per inbound wire frame (0.0 when the run had no
    /// network front-end).
    pub fn wire_rx_batch_mean(&self) -> f64 {
        if self.totals.net_rx_frames == 0 {
            0.0
        } else {
            self.totals.net_rx_txns as f64 / self.totals.net_rx_frames as f64
        }
    }

    /// Mean completions per outbound wire frame.
    pub fn wire_tx_batch_mean(&self) -> f64 {
        if self.totals.net_tx_frames == 0 {
            0.0
        } else {
            self.totals.net_tx_completions as f64 / self.totals.net_tx_frames as f64
        }
    }

    /// Decoded requests per socket read — the syscall-amortization factor
    /// adaptive wire batching exists for (0.0 without a front-end).
    pub fn txns_per_read_call(&self) -> f64 {
        if self.totals.net_read_calls == 0 {
            0.0
        } else {
            self.totals.net_rx_txns as f64 / self.totals.net_read_calls as f64
        }
    }

    /// The execution threads' in-flight cap, weighted by the grants it
    /// was in force for (0.0 when no grant arrived).
    pub fn mean_inflight_cap(&self) -> f64 {
        if self.totals.inflight_cap_grants == 0 {
            0.0
        } else {
            self.totals.inflight_cap_sum as f64 / self.totals.inflight_cap_grants as f64
        }
    }

    /// The deepest in-flight cap any execution thread reached.
    pub fn max_inflight_cap(&self) -> u64 {
        self.totals.inflight_cap_max
    }

    /// Transactions per admitted run over the engine's lifetime — how
    /// many transactions one lock round carried (exactly 1.0 under FIFO
    /// admission; 0.0 when no run was admitted).
    pub fn txns_per_run(&self) -> f64 {
        if self.totals.runs == 0 {
            0.0
        } else {
            self.totals.committed_all as f64 / self.totals.runs as f64
        }
    }

    /// The most transactions any execution thread had in flight at once.
    pub fn inflight_max(&self) -> u64 {
        self.totals.inflight_max
    }

    /// Figure-10 style breakdown over the three phase buckets.
    pub fn breakdown(&self) -> PhaseBreakdown {
        let total =
            (self.totals.execution_ns + self.totals.locking_ns + self.totals.waiting_ns) as f64;
        if total == 0.0 {
            return PhaseBreakdown {
                execution_pct: 0.0,
                locking_pct: 0.0,
                waiting_pct: 0.0,
            };
        }
        PhaseBreakdown {
            execution_pct: 100.0 * self.totals.execution_ns as f64 / total,
            locking_pct: 100.0 * self.totals.locking_ns as f64 / total,
            waiting_pct: 100.0 * self.totals.waiting_ns as f64 / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let a = ThreadStats {
            committed: 10,
            committed_all: 12,
            aborts_deadlock: 1,
            aborts_wait_die: 2,
            aborts_ollp: 3,
            execution_ns: 100,
            locking_ns: 200,
            waiting_ns: 300,
            cc_busy_ns: 30,
            cc_idle_ns: 70,
            messages_sent: 5,
            lock_waits: 7,
            inflight_cap_sum: 160,
            inflight_cap_grants: 10,
            inflight_cap_max: 32,
            runs: 4,
            inflight_max: 20,
            releases_first: 6,
            admission_switches: 2,
            cycles_found: 1,
            log_records: 4,
            log_writes: 2,
            log_bytes: 64,
            log_flushes: 3,
            log_group_syncs: 2,
            log_synced_appends: 6,
            net_read_calls: 3,
            net_write_calls: 4,
            net_rx_frames: 5,
            net_tx_frames: 6,
            net_rx_txns: 40,
            net_tx_completions: 39,
            net_bad_frames: 1,
            latency: LatencyHistogram::new(),
            log_fsync_wait: LatencyHistogram::new(),
            net_rx_batch: LatencyHistogram::new(),
            net_tx_batch: LatencyHistogram::new(),
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.committed, 20);
        assert_eq!(b.aborts(), 12);
        assert_eq!(b.waiting_ns, 600);
        assert_eq!((b.cc_busy_ns, b.cc_idle_ns), (60, 140));
        assert_eq!(b.messages_sent, 10);
        assert_eq!(b.lock_waits, 14);
        assert_eq!((b.inflight_cap_sum, b.inflight_cap_grants), (320, 20));
        assert_eq!(b.inflight_cap_max, 32, "a maximum, not a sum");
        assert_eq!(b.runs, 8);
        assert_eq!(b.inflight_max, 20, "a maximum, not a sum");
        assert_eq!(b.releases_first, 12);
        assert_eq!(b.admission_switches, 4);
        assert_eq!(b.log_records, 8);
        assert_eq!(b.log_writes, 4);
        assert_eq!(b.log_bytes, 128);
        assert_eq!(b.log_flushes, 6);
        assert_eq!(b.log_group_syncs, 4);
        assert_eq!(b.log_synced_appends, 12);
        assert_eq!(b.net_read_calls, 6);
        assert_eq!(b.net_write_calls, 8);
        assert_eq!(b.net_rx_frames, 10);
        assert_eq!(b.net_tx_frames, 12);
        assert_eq!(b.net_rx_txns, 80);
        assert_eq!(b.net_tx_completions, 78);
        assert_eq!(b.net_bad_frames, 2);
    }

    #[test]
    fn wire_batch_means_derive_from_frame_counts() {
        let rs = RunStats::collect(
            &[ThreadStats {
                net_read_calls: 10,
                net_rx_frames: 10,
                net_rx_txns: 80,
                net_tx_frames: 4,
                net_tx_completions: 60,
                ..Default::default()
            }],
            Duration::from_secs(1),
        );
        assert!((rs.wire_rx_batch_mean() - 8.0).abs() < 1e-9);
        assert!((rs.wire_tx_batch_mean() - 15.0).abs() < 1e-9);
        assert!((rs.txns_per_read_call() - 8.0).abs() < 1e-9);
        let empty = RunStats::collect(&[], Duration::from_secs(1));
        assert_eq!(empty.wire_rx_batch_mean(), 0.0);
        assert_eq!(empty.txns_per_read_call(), 0.0);
    }

    #[test]
    fn coalescing_factor_reads_from_totals() {
        let rs = RunStats::collect(
            &[ThreadStats {
                log_group_syncs: 4,
                log_synced_appends: 14,
                ..Default::default()
            }],
            Duration::from_secs(1),
        );
        assert!((rs.coalesced_appends_per_sync() - 3.5).abs() < 1e-9);
        let empty = RunStats::collect(&[], Duration::from_secs(1));
        assert_eq!(empty.coalesced_appends_per_sync(), 0.0);
        assert_eq!(empty.records_per_write(), 0.0);
        let writes = RunStats::collect(
            &[ThreadStats {
                log_records: 12,
                log_writes: 5,
                ..Default::default()
            }],
            Duration::from_secs(1),
        );
        assert!((writes.records_per_write() - 2.4).abs() < 1e-9);
        assert_eq!(empty.releases_first_per_commit(), 0.0);
        let early = RunStats::collect(
            &[ThreadStats {
                committed: 40,
                releases_first: 10,
                ..Default::default()
            }],
            Duration::from_secs(1),
        );
        assert!((early.releases_first_per_commit() - 0.25).abs() < 1e-9);
        assert_eq!(empty.fsync_wait_p50_us(), 0.0);
    }

    #[test]
    fn reset_window_preserves_lifetime_counter() {
        let mut s = ThreadStats {
            committed: 5,
            committed_all: 9,
            runs: 3,
            inflight_max: 7,
            waiting_ns: 100,
            ..Default::default()
        };
        s.reset_window();
        assert_eq!(s.committed, 0);
        assert_eq!(s.waiting_ns, 0);
        assert_eq!((s.committed_all, s.runs, s.inflight_max), (9, 3, 7));
    }

    #[test]
    fn phase_timer_attributes_time() {
        let mut stats = ThreadStats::default();
        let mut timer = PhaseTimer::start(Phase::Waiting);
        std::thread::sleep(Duration::from_millis(5));
        timer.switch(&mut stats, Phase::Execution);
        std::thread::sleep(Duration::from_millis(5));
        timer.finish(&mut stats);
        assert!(
            stats.waiting_ns >= 3_000_000,
            "waiting {}",
            stats.waiting_ns
        );
        assert!(
            stats.execution_ns >= 3_000_000,
            "execution {}",
            stats.execution_ns
        );
        assert_eq!(stats.locking_ns, 0);
    }

    #[test]
    fn switch_to_same_phase_is_noop() {
        let mut stats = ThreadStats::default();
        let mut timer = PhaseTimer::start(Phase::Locking);
        timer.switch(&mut stats, Phase::Locking);
        assert_eq!(stats.locking_ns, 0);
        assert_eq!(timer.current(), Phase::Locking);
    }

    #[test]
    fn run_stats_throughput_and_breakdown() {
        let per_thread = vec![
            ThreadStats {
                committed: 500,
                execution_ns: 50,
                locking_ns: 25,
                waiting_ns: 25,
                ..Default::default()
            },
            ThreadStats {
                committed: 500,
                execution_ns: 50,
                locking_ns: 25,
                waiting_ns: 25,
                ..Default::default()
            },
        ];
        let rs = RunStats::collect(&per_thread, Duration::from_secs(1));
        assert!((rs.throughput() - 1000.0).abs() < 1e-6);
        let b = rs.breakdown();
        assert!((b.execution_pct - 50.0).abs() < 1e-9);
        assert!((b.locking_pct - 25.0).abs() < 1e-9);
        assert!((b.waiting_pct - 25.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_merges_partition_runs_and_hub_entries() {
        let mut a = RunStats::collect(
            &[ThreadStats {
                committed: 10,
                ..Default::default()
            }],
            Duration::from_secs(2),
        )
        .with_hub(HubBreakdown {
            partition: 0,
            routed: 8,
            orphaned: 1,
            unowned: 1,
        });
        let b = RunStats::collect(
            &[ThreadStats {
                committed: 5,
                ..Default::default()
            }],
            Duration::from_secs(1),
        )
        .with_hub(HubBreakdown {
            partition: 1,
            routed: 5,
            orphaned: 0,
            unowned: 0,
        });
        a.absorb(b);
        assert_eq!(a.totals.committed, 15);
        assert_eq!(a.elapsed, Duration::from_secs(2), "windows overlap");
        assert_eq!(a.threads, 2);
        assert_eq!(a.hub.len(), 2);
        assert_eq!(a.hub[0].total(), 10);
        assert_eq!(a.hub[1].partition, 1);
    }

    #[test]
    fn cc_threads_join_the_totals_but_not_the_worker_count() {
        let exec = ThreadStats {
            committed: 7,
            ..Default::default()
        };
        let cc = |busy, idle| ThreadStats {
            messages_sent: 3,
            cc_busy_ns: busy,
            cc_idle_ns: idle,
            ..Default::default()
        };
        let rs = RunStats::collect(&[exec], Duration::from_secs(1))
            .with_cc_threads(&[cc(25, 75), cc(0, 0)]);
        assert_eq!(rs.threads, 1);
        assert_eq!(rs.per_thread_latency.len(), 1);
        assert_eq!(rs.totals.messages_sent, 6);
        assert_eq!(rs.cc.len(), 2);
        assert!((rs.cc[0].busy_pct() - 25.0).abs() < 1e-9);
        assert_eq!(rs.cc[1].busy_pct(), 0.0, "a thread that never ran");
    }

    /// The depth reads as a grant-weighted mean over every execution
    /// thread and the maximum of their maxima; CC threads carry none.
    #[test]
    fn inflight_cap_is_weighted_by_grants() {
        let exec = |sum, grants, max| ThreadStats {
            inflight_cap_sum: sum,
            inflight_cap_grants: grants,
            inflight_cap_max: max,
            ..Default::default()
        };
        let rs = RunStats::collect(
            &[exec(16 * 30, 30, 16), exec(64 * 10, 10, 64)],
            Duration::ZERO,
        )
        .with_cc_threads(&[ThreadStats::default()]);
        assert!((rs.mean_inflight_cap() - 28.0).abs() < 1e-9);
        assert_eq!(rs.max_inflight_cap(), 64);
        let empty = RunStats::collect(&[], Duration::ZERO);
        assert_eq!(empty.mean_inflight_cap(), 0.0);
    }

    /// Runs divide lifetime commits; the peak depth is a maximum over
    /// execution threads.
    #[test]
    fn txns_per_run_divides_lifetime_commits() {
        let exec = |committed_all, runs, inflight_max| ThreadStats {
            committed_all,
            runs,
            inflight_max,
            ..Default::default()
        };
        let rs = RunStats::collect(&[exec(90, 20, 24), exec(30, 10, 40)], Duration::ZERO);
        assert!((rs.txns_per_run() - 4.0).abs() < 1e-9);
        assert_eq!(rs.inflight_max(), 40);
        let empty = RunStats::collect(&[], Duration::ZERO);
        assert_eq!(empty.txns_per_run(), 0.0);
    }

    #[test]
    fn abort_rate_zero_when_no_attempts() {
        let rs = RunStats::collect(&[], Duration::from_secs(1));
        assert_eq!(rs.abort_rate(), 0.0);
    }

    #[test]
    fn per_thread_latency_preserved_alongside_the_merge() {
        let mut a = ThreadStats::default();
        let mut b = ThreadStats::default();
        for _ in 0..10 {
            a.latency.record(1_000);
            b.latency.record(1_000_000);
        }
        let rs = RunStats::collect(&[a, b], Duration::from_secs(1));
        assert_eq!(rs.per_thread_latency.len(), 2);
        // The merged totals blend both threads; the per-thread view keeps
        // the skew visible.
        assert_eq!(rs.totals.latency.count(), 20);
        assert!(rs.per_thread_latency[0].quantile_ns(0.5) < 10_000);
        assert!(rs.per_thread_latency[1].quantile_ns(0.5) > 100_000);
    }
}
