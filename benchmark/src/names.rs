//! Every metric the binary emits, by name, with its unit and direction.
//! `BENCHMARK.json` declares the same tables; a unit test renders them
//! and compares with the file, so the two cannot drift apart.

/// Seconds one run measures when `--seconds` is not given;
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 16;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which a gated metric may get
    /// worse; 0 for per-layer metrics, which are not gated.
    pub bound: f64,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    gated(name, unit, better, 0.0)
}

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    gated("commits_per_s", "txns/s", "higher", 0.25),
    gated("paced_p50_us", "us", "lower", 0.25),
    gated("setup_s", "s", "lower", 0.25),
];

/// Single layers; layer = crate/module name. Printed by the traced
/// pass. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // From `RunStats`, over the engine's lifetime.
    layer("core.fabric.msgs_per_commit", "msgs/txn", "lower"),
    layer("core.cc.lock_waits_per_commit", "waits/txn", "lower"),
    layer("core.exec.execution_ns_per_commit", "ns/txn", "lower"),
    layer("core.exec.locking_ns_per_commit", "ns/txn", "lower"),
    layer("core.exec.waiting_ns_per_commit", "ns/txn", "lower"),
    layer("core.admit.switches", "count", "lower"),
    layer("core.admit.ollp_aborts_per_commit", "aborts/txn", "lower"),
    layer("core.hub.routed_share", "ratio", "higher"),
    layer("durability.commits_per_record", "txns/record", "higher"),
    layer("durability.log_bytes_per_commit", "B/txn", "lower"),
    layer("durability.recover_txns_per_s", "txns/s", "higher"),
    layer("durability.recover_s", "s", "lower"),
    // From the group-fsync probe (durable workload only).
    layer("durability.fsync_commits_per_s", "txns/s", "higher"),
    layer("durability.fsync_commit_p50_us", "us", "lower"),
    layer("durability.appends_per_sync", "appends/sync", "higher"),
    layer("durability.fsync_wait_p50_us", "us", "lower"),
    layer("net.rx_txns_per_read", "txns/read", "higher"),
    layer("net.tx_completions_per_frame", "txns/frame", "higher"),
    layer("net.write_calls_per_commit", "calls/txn", "lower"),
    layer("net.bad_frames", "count", "lower"),
    layer("part.partition_imbalance", "ratio", "lower"),
    // From the load generator's own clock.
    layer("loadgen.closed_p50_us", "us", "lower"),
    layer("loadgen.closed_p99_us", "us", "lower"),
    layer("loadgen.closed_tail_us", "us", "lower"),
    layer("loadgen.closed_samples", "count", "higher"),
    layer("loadgen.paced_window_p50_us", "us", "lower"),
    layer("loadgen.paced_p99_us", "us", "lower"),
    layer("loadgen.paced_tail_us", "us", "lower"),
    layer("loadgen.paced_samples", "count", "higher"),
    layer("loadgen.paced_lag_p99_us", "us", "lower"),
    layer("loadgen.paced_lag_max_us", "us", "lower"),
    layer("loadgen.submit_full_share", "ratio", "lower"),
    layer("loadgen.per_second_cv", "ratio", "lower"),
    layer("loadgen.littles_law_ratio", "ratio", "higher"),
    layer("process.peak_rss_mb", "MB", "lower"),
    layer("setup.first_commit_s", "s", "lower"),
    // From the traced window: spans and call counters around the
    // benchmark's calls into each front door.
    layer("core.session.submit_ns_per_txn", "ns/txn", "lower"),
    layer("core.session.drain_ns_per_completion", "ns/txn", "lower"),
    layer("part.session.submit_ns_per_txn", "ns/txn", "lower"),
    layer("part.session.drain_ns_per_completion", "ns/txn", "lower"),
    layer("net.client.send_us_per_batch", "us", "lower"),
    layer("net.client.poll_us_per_call", "us", "lower"),
    layer(
        "net.client.empty_polls_per_completion",
        "polls/txn",
        "lower",
    ),
    layer("core.engine.residence_p50_us", "us", "lower"),
    layer("core.engine.shutdown_s", "s", "lower"),
    layer("trace.commits_per_s", "txns/s", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
    // Direct single-threaded calls on the workload's first 100 000
    // programs.
    layer("workload.gen_ns_per_txn", "ns/txn", "lower"),
    layer("storage.table_build_s", "s", "lower"),
    layer("txn.plan_ns_per_txn", "ns/txn", "lower"),
    layer("txn.execute_ns_per_txn", "ns/txn", "lower"),
    layer("core.plan.build_ns_per_txn", "ns/txn", "lower"),
    layer("core.plan.ccs_per_txn", "ccs/txn", "lower"),
    layer("spsc.push_pop_ns_per_msg", "ns/msg", "lower"),
    layer("durability.append_ns_per_record", "ns/record", "lower"),
    layer("durability.group_sync_us", "us", "lower"),
    layer("net.codec.encode_ns_per_txn", "ns/txn", "lower"),
    layer("net.codec.decode_ns_per_txn", "ns/txn", "lower"),
    layer("net.codec.wire_bytes_per_txn", "B/txn", "lower"),
    layer("part.map.route_ns_per_txn", "ns/txn", "lower"),
    layer("part.map.slice_ns_per_cross_txn", "ns/txn", "lower"),
    layer("part.cross_share", "ratio", "lower"),
];

/// Values for one table of metrics; every name of the table is present
/// (0 until set), and no other name can be.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// # Panics
    /// If `name` is not in the table: an emitted name the declaration
    /// does not have is a bug in the benchmark.
    fn index(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` as these tables declare it.
    fn render() -> String {
        let mut s = String::from("{\n");
        s += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
        s += "  \"paths\": [\"benchmark\"],\n";
        s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
        s += "  \"workloads\": [\n";
        let rows: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect();
        s += &rows.join(",\n");
        s += "\n  ],\n  \"end_to_end\": [\n";
        let rows: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name, d.unit, d.better, d.bound
                )
            })
            .collect();
        s += &rows.join(",\n");
        s += "\n  ],\n  \"per_layer\": [\n";
        let rows: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name, d.unit, d.better
                )
            })
            .collect();
        s += &rows.join(",\n");
        s += "\n  ]\n}\n";
        s
    }

    #[test]
    fn declared_names_equal_emitted_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        // A missing file fails like a differing one: with the expected text.
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        let expected = render();
        assert!(
            on_disk == expected,
            "BENCHMARK.json differs from the tables in names.rs and workloads.rs; \
             it should read:\n{expected}"
        );
    }

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(d.unit.len() <= 16 && d.unit.chars().all(ok), "{}", d.unit);
            assert!(d.better == "higher" || d.better == "lower");
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn metrics_hold_exactly_the_declared_names() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.25);
        assert_eq!(m.get("setup_s"), 0.25);
        assert_eq!(m.get("commits_per_s"), 0.0);
        assert_eq!(m.iter().count(), END_TO_END.len());
        assert!(std::panic::catch_unwind(move || m.set("undeclared", 1.0)).is_err());
    }
}
