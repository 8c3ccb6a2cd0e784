//! Bench-run configuration, overridable from the environment.

use std::time::Duration;

use orthrus_common::{RunParams, TempDir};
use orthrus_core::{AdmissionPolicy, DurabilityMode, OrthrusConfig, SyncInterval};

/// Scales and windows for figure runs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Measured window per point (`ORTHRUS_MEASURE_MS`, default 250).
    pub measure: Duration,
    /// Warmup per point (`ORTHRUS_WARMUP_MS`, default 100).
    pub warmup: Duration,
    /// Workload seed (`ORTHRUS_SEED`, default 42).
    pub seed: u64,
    /// Microbench table size (`ORTHRUS_RECORDS`, default 200_000; paper:
    /// 10M — DESIGN.md substitution #2).
    pub n_records: usize,
    /// Record payload bytes (`ORTHRUS_RECSIZE`, default 100; paper: 1000).
    pub record_size: usize,
    /// TPC-C customers per district (`ORTHRUS_TPCC_CPD`, default 300;
    /// spec: 3000 — contention lives in warehouse/district rows either
    /// way).
    pub tpcc_cpd: u32,
    /// TPC-C items (`ORTHRUS_TPCC_ITEMS`, default 10_000; spec: 100_000).
    pub tpcc_items: u32,
    /// TPC-C pre-allocated order slots per district
    /// (`ORTHRUS_TPCC_OSLOTS`, default 512 — sized so a measured window
    /// never wraps a district's slot ring; order lines dominate memory at
    /// 128 warehouses).
    pub tpcc_order_slots: u32,
    /// Cap on the thread sweeps (`ORTHRUS_MAX_THREADS`; default 0 = the
    /// paper's full 10–80 sweep, oversubscribed on small hosts).
    pub max_threads: usize,
    /// Message-fabric batching degree applied to every ORTHRUS run
    /// (`ORTHRUS_FLUSH_THRESHOLD`, default
    /// `orthrus_core::config::DEFAULT_FLUSH_THRESHOLD`; `1` = the
    /// pre-batching per-message fabric, see ablation A5).
    pub flush_threshold: usize,
    /// Admission policy applied to every ORTHRUS run
    /// (`ORTHRUS_ADMISSION`, default `fifo` — the seed's admission order;
    /// `batch` or `batch:<classes>:<batch>` enables conflict-class
    /// batched admission, see ablation A6).
    pub admission: AdmissionPolicy,
    /// Durability mode applied to every ORTHRUS run
    /// (`ORTHRUS_DURABILITY`, default `off`; `log` appends one
    /// command-log record per fused admission run, `log+fsync` also
    /// fsyncs per record — see ablation A9). The harness logs into a
    /// scratch dir under `target/` ([`Self::apply_durability`]).
    pub durability: DurabilityMode,
    /// Fsync grouping under `log+fsync` (`ORTHRUS_SYNC_INTERVAL`, default
    /// `adaptive` — the rung-2 cross-thread group coordinator; `per-run`
    /// restores the rung-1 inline fsync per admission run).
    pub sync_interval: SyncInterval,
    /// Fuzzy-checkpoint cadence in appended log bytes
    /// (`ORTHRUS_CHECKPOINT`, default unset/`0` = no checkpointer).
    pub checkpoint_bytes: Option<u64>,
    /// Partition count for partitioned-deployment runs
    /// (`ORTHRUS_PARTITIONS`, default 1 = the single shared-memory
    /// engine; ≥ 2 shards the engine behind the `orthrus-part` router —
    /// see ablation A12).
    pub partitions: usize,
    /// Percent of partitioned-run programs emitted as cross-partition
    /// transfers (`ORTHRUS_XPART_FRACTION`, default 0; inert unless
    /// `partitions` ≥ 2 — see ablation A12).
    pub xpart_pct: u32,
}

/// Parse a numeric knob. Unset → `default`; present but malformed → a
/// hard error naming the knob. The old behaviour (silently falling back
/// to the default) meant a typo'd `ORTHRUS_MEASURE_MS=25O` benchmarked
/// the wrong configuration without a trace — the same reasoning as the
/// policy knobs below.
pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("{name}={v:?} is not a valid integer: {e}")),
        Err(_) => default,
    }
}

/// TCP front-end tuning from `ORTHRUS_NET_*` (each knob defaults to
/// [`orthrus_net::NetConfig::default`]):
///
/// - `ORTHRUS_NET_ADDR` — listen address (`127.0.0.1:0` = ephemeral);
/// - `ORTHRUS_NET_RING` — per-connection completion-ring capacity;
/// - `ORTHRUS_NET_READBUF` — socket read buffer bytes;
/// - `ORTHRUS_NET_BACKPRESSURE` — parked-request cap before a
///   connection stops reading (ring-full → TCP flow control).
///
/// Malformed values are hard errors, like every other knob here.
pub fn net_config_from_env() -> orthrus_net::NetConfig {
    let mut cfg = orthrus_net::NetConfig::default();
    if let Ok(addr) = std::env::var("ORTHRUS_NET_ADDR") {
        cfg.addr = addr
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("ORTHRUS_NET_ADDR={addr:?} is not a socket address: {e}"));
    }
    cfg.client_ring = env_u64("ORTHRUS_NET_RING", cfg.client_ring as u64).max(2) as usize;
    cfg.read_buf = env_u64("ORTHRUS_NET_READBUF", cfg.read_buf as u64).max(512) as usize;
    cfg.backpressure_cap =
        env_u64("ORTHRUS_NET_BACKPRESSURE", cfg.backpressure_cap as u64).max(1) as usize;
    cfg
}

/// Parse `ORTHRUS_ADMISSION`; a present-but-invalid value is a hard error
/// (silently benchmarking the wrong policy would corrupt comparisons).
fn admission_from_env() -> AdmissionPolicy {
    match std::env::var("ORTHRUS_ADMISSION") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("ORTHRUS_ADMISSION: {e}")),
        Err(_) => AdmissionPolicy::Fifo,
    }
}

/// Parse `ORTHRUS_DURABILITY`; a present-but-invalid value is a hard
/// error for the same reason as the admission knob.
fn durability_from_env() -> DurabilityMode {
    match std::env::var("ORTHRUS_DURABILITY") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("ORTHRUS_DURABILITY: {e}")),
        Err(_) => DurabilityMode::Off,
    }
}

/// Parse `ORTHRUS_SYNC_INTERVAL` (same hard-error discipline).
fn sync_interval_from_env() -> SyncInterval {
    match std::env::var("ORTHRUS_SYNC_INTERVAL") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|e| panic!("ORTHRUS_SYNC_INTERVAL: {e}")),
        Err(_) => SyncInterval::default(),
    }
}

/// Parse `ORTHRUS_CHECKPOINT` (appended-byte cadence; unset or `0`
/// disables the checkpointer).
fn checkpoint_from_env() -> Option<u64> {
    let every = env_u64("ORTHRUS_CHECKPOINT", 0);
    (every > 0).then_some(every)
}

impl BenchConfig {
    /// Read overrides from the environment.
    pub fn from_env() -> Self {
        BenchConfig {
            measure: Duration::from_millis(env_u64("ORTHRUS_MEASURE_MS", 250)),
            warmup: Duration::from_millis(env_u64("ORTHRUS_WARMUP_MS", 100)),
            seed: env_u64("ORTHRUS_SEED", 42),
            n_records: env_u64("ORTHRUS_RECORDS", 200_000) as usize,
            record_size: env_u64("ORTHRUS_RECSIZE", 100) as usize,
            tpcc_cpd: env_u64("ORTHRUS_TPCC_CPD", 300) as u32,
            tpcc_items: env_u64("ORTHRUS_TPCC_ITEMS", 10_000) as u32,
            tpcc_order_slots: env_u64("ORTHRUS_TPCC_OSLOTS", 512) as u32,
            max_threads: env_u64("ORTHRUS_MAX_THREADS", 0) as usize,
            flush_threshold: env_u64(
                "ORTHRUS_FLUSH_THRESHOLD",
                orthrus_core::config::DEFAULT_FLUSH_THRESHOLD as u64,
            ) as usize,
            admission: admission_from_env(),
            durability: durability_from_env(),
            sync_interval: sync_interval_from_env(),
            checkpoint_bytes: checkpoint_from_env(),
            partitions: env_u64("ORTHRUS_PARTITIONS", 1).max(1) as usize,
            xpart_pct: env_u64("ORTHRUS_XPART_FRACTION", 0).min(100) as u32,
        }
    }

    /// A fast configuration for tests.
    ///
    /// Scales are fixed, but the three semantics knobs —
    /// `ORTHRUS_FLUSH_THRESHOLD`, `ORTHRUS_ADMISSION`, and
    /// `ORTHRUS_DURABILITY` — are still read from the environment, so the
    /// CI matrix legs (seed semantics, command-log durability) exercise their paths through the whole harness test
    /// suite.
    pub fn test_quick() -> Self {
        BenchConfig {
            measure: Duration::from_millis(120),
            warmup: Duration::from_millis(40),
            seed: 42,
            n_records: 4096,
            record_size: 64,
            tpcc_cpd: 60,
            tpcc_items: 200,
            tpcc_order_slots: 128,
            max_threads: 4,
            flush_threshold: env_u64(
                "ORTHRUS_FLUSH_THRESHOLD",
                orthrus_core::config::DEFAULT_FLUSH_THRESHOLD as u64,
            ) as usize,
            admission: admission_from_env(),
            durability: durability_from_env(),
            sync_interval: sync_interval_from_env(),
            checkpoint_bytes: checkpoint_from_env(),
            partitions: env_u64("ORTHRUS_PARTITIONS", 1).max(1) as usize,
            xpart_pct: env_u64("ORTHRUS_XPART_FRACTION", 0).min(100) as u32,
        }
    }

    /// Apply the env-selected durability mode to an engine config,
    /// logging into a fresh scratch directory under `target/`. Returns
    /// the directory guard — hold it across the run (dropping it deletes
    /// the log). `None` (and no config change) when durability is off,
    /// so the default path stays byte-identical to the pre-durability
    /// harness.
    pub fn apply_durability(&self, cfg: &mut OrthrusConfig) -> Option<TempDir> {
        if !self.durability.is_on() {
            return None;
        }
        let scratch = TempDir::new("harness-cmdlog");
        cfg.durability = self.durability;
        cfg.log_dir = Some(scratch.path().to_path_buf());
        cfg.sync_interval = self.sync_interval;
        cfg.checkpoint_bytes = self.checkpoint_bytes;
        Some(scratch)
    }

    /// Run parameters for `threads` workers.
    pub fn params(&self, threads: usize) -> RunParams {
        RunParams {
            threads,
            seed: self.seed,
            warmup: self.warmup,
            measure: self.measure,
            ollp_noise_pct: 0,
        }
    }

    /// The paper's core-count sweep {10, 20, 40, 60, 80}, capped by
    /// `max_threads`.
    pub fn thread_sweep(&self) -> Vec<usize> {
        let paper = [10usize, 20, 40, 60, 80];
        if self.max_threads == 0 {
            return paper.to_vec();
        }
        let mut v: Vec<usize> = paper
            .iter()
            .copied()
            .filter(|&t| t <= self.max_threads)
            .collect();
        if v.is_empty() || *v.last().unwrap() < self.max_threads {
            v.push(self.max_threads);
        }
        v
    }

    /// Clamp an arbitrary thread count to the cap.
    pub fn clamp_threads(&self, t: usize) -> usize {
        if self.max_threads == 0 {
            t
        } else {
            t.min(self.max_threads)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let _serial = crate::test_serial();
        let bc = BenchConfig::from_env();
        assert!(bc.n_records > 0);
        assert!(bc.measure > Duration::ZERO);
        // The suite may legitimately run under any ORTHRUS_ADMISSION
        // (the CI matrix legs do); only the *unset* default is pinned.
        if std::env::var("ORTHRUS_ADMISSION").is_err() {
            assert_eq!(
                bc.admission,
                AdmissionPolicy::Fifo,
                "default must be the seed's admission order"
            );
        }
    }

    /// A present-but-malformed numeric knob must abort with the knob's
    /// name, not silently benchmark the default. One test per knob: the
    /// regression here was exactly one call site quietly swallowing
    /// `parse().ok()`, so each knob pins its own path.
    macro_rules! malformed_knob_panics {
        ($($test:ident : $knob:literal => $read:expr;)+) => {$(
            #[test]
            fn $test() {
                let _serial = crate::test_serial();
                std::env::set_var($knob, "not-a-number");
                let got = std::panic::catch_unwind(|| {
                    let _ = $read;
                });
                std::env::remove_var($knob);
                let err = got.expect_err("malformed knob must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "panic payload was not a String".into());
                assert!(
                    msg.contains($knob),
                    "panic must name the offending knob: {msg:?}"
                );
            }
        )+};
    }

    malformed_knob_panics! {
        malformed_measure_ms_panics: "ORTHRUS_MEASURE_MS" => BenchConfig::from_env();
        malformed_warmup_ms_panics: "ORTHRUS_WARMUP_MS" => BenchConfig::from_env();
        malformed_seed_panics: "ORTHRUS_SEED" => BenchConfig::from_env();
        malformed_records_panics: "ORTHRUS_RECORDS" => BenchConfig::from_env();
        malformed_recsize_panics: "ORTHRUS_RECSIZE" => BenchConfig::from_env();
        malformed_tpcc_cpd_panics: "ORTHRUS_TPCC_CPD" => BenchConfig::from_env();
        malformed_tpcc_items_panics: "ORTHRUS_TPCC_ITEMS" => BenchConfig::from_env();
        malformed_tpcc_oslots_panics: "ORTHRUS_TPCC_OSLOTS" => BenchConfig::from_env();
        malformed_max_threads_panics: "ORTHRUS_MAX_THREADS" => BenchConfig::from_env();
        malformed_flush_threshold_panics: "ORTHRUS_FLUSH_THRESHOLD" => BenchConfig::from_env();
        malformed_checkpoint_panics: "ORTHRUS_CHECKPOINT" => BenchConfig::from_env();
        malformed_partitions_panics: "ORTHRUS_PARTITIONS" => BenchConfig::from_env();
        malformed_xpart_fraction_panics: "ORTHRUS_XPART_FRACTION" => BenchConfig::from_env();
        malformed_net_addr_panics: "ORTHRUS_NET_ADDR" => net_config_from_env();
        malformed_net_ring_panics: "ORTHRUS_NET_RING" => net_config_from_env();
        malformed_net_readbuf_panics: "ORTHRUS_NET_READBUF" => net_config_from_env();
        malformed_net_backpressure_panics: "ORTHRUS_NET_BACKPRESSURE" => net_config_from_env();
    }

    #[test]
    fn well_formed_knob_overrides_and_unset_defaults() {
        let _serial = crate::test_serial();
        std::env::set_var("ORTHRUS_SEED", " 1234 "); // whitespace tolerated
        let bc = BenchConfig::from_env();
        std::env::remove_var("ORTHRUS_SEED");
        assert_eq!(bc.seed, 1234);
        assert_eq!(BenchConfig::from_env().seed, 42, "unset falls back");
    }

    #[test]
    fn thread_sweep_respects_cap() {
        // `test_quick` reads the environment the malformed-knob tests
        // above scribble on.
        let _serial = crate::test_serial();
        let mut bc = BenchConfig::test_quick();
        bc.max_threads = 0;
        assert_eq!(bc.thread_sweep(), vec![10, 20, 40, 60, 80]);
        bc.max_threads = 40;
        assert_eq!(bc.thread_sweep(), vec![10, 20, 40]);
        bc.max_threads = 4;
        assert_eq!(bc.thread_sweep(), vec![4]);
        bc.max_threads = 25;
        assert_eq!(bc.thread_sweep(), vec![10, 20, 25]);
        assert_eq!(bc.clamp_threads(80), 25);
    }
}
