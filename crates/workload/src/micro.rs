//! The microbenchmark / YCSB key-selection machinery.
//!
//! One generator covers Figures 1, 4–7, 11, 12: transactions of
//! `total_ops` distinct keys, with an optional *hot set* (the first
//! `n_hot` keys of the table; `hot_ops` keys drawn from it, placed first
//! in access order — "hot records are updated before cold records",
//! Appendix A) and an optional *partition constraint* (keys must span an
//! exact number of partitions of `key % of`, the placement rule shared by
//! Partitioned-store, the SPLIT variants, and ORTHRUS's CC partitioning).

use orthrus_common::XorShift64;
use orthrus_txn::Program;

use crate::zipf::Zipfian;

/// How transaction keys must relate to partitions (`key % of`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionConstraint {
    /// Unconstrained uniform choice (shared-everything experiments).
    None,
    /// Keys span exactly `count` distinct partitions out of `of`
    /// (Figure 6; also YCSB "single"=1 and "dual"=2 placements).
    Exact { count: u32, of: u32 },
    /// With probability `pct`% the transaction spans exactly 2 partitions,
    /// otherwise exactly 1 (Figure 7's multi-partition fraction).
    MultiFraction { pct: u32, of: u32 },
}

/// Workload description.
#[derive(Debug, Clone)]
pub struct MicroSpec {
    /// Table size (keys are `0..n_records`).
    pub n_records: u64,
    /// Hot set size (first `n_hot` keys); `None` = fully uniform.
    pub n_hot: Option<u64>,
    /// Keys drawn from the hot set per transaction (ignored when
    /// `n_hot == None`).
    pub hot_ops: usize,
    /// Total keys per transaction.
    pub total_ops: usize,
    /// Read-only (shared locks) vs read-modify-write (exclusive).
    pub read_only: bool,
    /// Partition spanning rule.
    pub constraint: PartitionConstraint,
    /// Scrambled-Zipfian key popularity with this theta (YCSB's skew
    /// model) instead of uniform choice. Exclusive with `n_hot` and
    /// partition constraints.
    pub zipf_theta: Option<f64>,
    /// Percent of programs emitted as two-endpoint [`Program::Transfer`]s
    /// instead of the read/rmw shape — the partitioned engine's
    /// cross-partition knob (`ORTHRUS_XPART_FRACTION` in the harness).
    /// Under a partition constraint with `of >= 2` the endpoints land in
    /// two *different* partitions (a guaranteed cross-partition
    /// transaction); unconstrained, they are two distinct uniform keys.
    pub transfer_pct: u32,
}

impl MicroSpec {
    /// Uniform workload: `ops` distinct keys over the whole table
    /// (Figures 5, 11a, 12a).
    pub fn uniform(n_records: u64, ops: usize, read_only: bool) -> Self {
        MicroSpec {
            n_records,
            n_hot: None,
            hot_ops: 0,
            total_ops: ops,
            read_only,
            constraint: PartitionConstraint::None,
            zipf_theta: None,
            transfer_pct: 0,
        }
    }

    /// Scrambled-Zipfian workload: `ops` distinct keys drawn with YCSB's
    /// skew model (extension; `ext04` runs it against modulo CC assignment).
    pub fn zipf(n_records: u64, ops: usize, theta: f64, read_only: bool) -> Self {
        let mut spec = Self::uniform(n_records, ops, read_only);
        assert!(
            n_records >= 4 * ops as u64,
            "distinct-draw loop needs slack in the key space"
        );
        spec.zipf_theta = Some(theta);
        spec
    }

    /// The paper's high-contention mix: `hot_ops` keys from a hot set of
    /// `n_hot`, the rest cold (Figures 1, 4, 11b, 12b).
    pub fn hot_cold(
        n_records: u64,
        n_hot: u64,
        hot_ops: usize,
        total_ops: usize,
        read_only: bool,
    ) -> Self {
        assert!(n_hot <= n_records);
        assert!(hot_ops <= total_ops);
        assert!(n_hot >= hot_ops as u64, "hot set smaller than hot draw");
        assert!(
            n_records - n_hot >= (total_ops - hot_ops) as u64,
            "cold range too small for {} distinct cold draws",
            total_ops - hot_ops
        );
        MicroSpec {
            n_records,
            n_hot: Some(n_hot),
            hot_ops,
            total_ops,
            read_only,
            constraint: PartitionConstraint::None,
            zipf_theta: None,
            transfer_pct: 0,
        }
    }

    /// Attach a partition constraint.
    pub fn with_constraint(mut self, c: PartitionConstraint) -> Self {
        if let PartitionConstraint::Exact { count, of } = c {
            assert!(count >= 1 && count <= of, "invalid span {count}/{of}");
            assert!(count as usize <= self.total_ops);
        }
        self.constraint = c;
        self
    }

    /// Emit `pct`% of programs as [`Program::Transfer`]s (see
    /// [`Self::transfer_pct`]).
    pub fn with_transfers(mut self, pct: u32) -> Self {
        assert!(pct <= 100, "transfer_pct is a percentage");
        self.transfer_pct = pct;
        self
    }

    /// Instantiate this thread's generator. With `zipf_theta` set this
    /// pays an `O(n_records)` zeta precomputation per generator; build
    /// generators once per thread, not per transaction.
    pub fn generator(&self, seed: u64, thread: usize) -> MicroGen {
        let zipf = self.zipf_theta.map(|theta| {
            assert!(
                self.n_hot.is_none(),
                "zipf and hot/cold are alternative skew models"
            );
            assert!(
                matches!(self.constraint, PartitionConstraint::None),
                "zipf keys cannot satisfy partition constraints"
            );
            Zipfian::new(self.n_records, theta, true)
        });
        MicroGen {
            spec: self.clone(),
            rng: XorShift64::for_thread(seed, thread),
            parts: Vec::new(),
            keys: Vec::new(),
            zipf,
        }
    }
}

/// Per-thread generator.
pub struct MicroGen {
    spec: MicroSpec,
    rng: XorShift64,
    parts: Vec<u32>,
    keys: Vec<u64>,
    zipf: Option<Zipfian>,
}

impl MicroGen {
    /// Produce the next program.
    ///
    /// Keys are emitted in access order with hot keys first, which makes
    /// `Program::hot_key_hint` (the first key) the program's hottest key
    /// *before* admission — the contract the conflict-class admission
    /// scheduler (`orthrus-core::admit`) classifies on.
    pub fn next_program(&mut self) -> Program {
        if self.spec.transfer_pct > 0 && self.rng.chance_percent(self.spec.transfer_pct) {
            return self.next_transfer();
        }
        self.next_keys();
        let keys = self.keys.clone();
        if self.spec.read_only {
            Program::ReadOnly { keys }
        } else {
            Program::Rmw { keys }
        }
    }

    /// A two-endpoint transfer. Under a partition constraint with
    /// `of >= 2` the endpoints are drawn from two *different* partitions
    /// — a guaranteed cross-partition transaction for the partitioned
    /// engine; otherwise two distinct uniform keys.
    fn next_transfer(&mut self) -> Program {
        let spec = &self.spec;
        let of = match spec.constraint {
            PartitionConstraint::Exact { of, .. }
            | PartitionConstraint::MultiFraction { of, .. }
                if of >= 2 =>
            {
                Some(of as u64)
            }
            _ => None,
        };
        let (from, to) = match of {
            Some(of) => {
                let pa = self.rng.next_below(of);
                let mut pb = self.rng.next_below(of - 1);
                if pb >= pa {
                    pb += 1;
                }
                (
                    Self::sample_in_partition_range(&mut self.rng, 0, spec.n_records, pa, of),
                    Self::sample_in_partition_range(&mut self.rng, 0, spec.n_records, pb, of),
                )
            }
            None => {
                let from = self.rng.next_below(spec.n_records);
                let mut to = self.rng.next_below(spec.n_records - 1);
                if to >= from {
                    to += 1;
                }
                (from, to)
            }
        };
        Program::Transfer {
            from,
            to,
            amount: 1 + self.rng.next_below(1000),
        }
    }

    /// Number of keys `< hi` congruent to `p (mod of)`.
    #[inline]
    fn keys_in_partition(hi: u64, p: u64, of: u64) -> u64 {
        if p >= hi {
            0
        } else {
            (hi - 1 - p) / of + 1
        }
    }

    /// Sample a key `< hi` congruent to `p (mod of)`.
    #[cfg(test)]
    fn sample_in_partition(rng: &mut XorShift64, hi: u64, p: u64, of: u64) -> u64 {
        let n = Self::keys_in_partition(hi, p, of);
        debug_assert!(n > 0, "partition {p} empty below {hi}");
        p + rng.next_below(n) * of
    }

    /// Sample a key in `[lo, hi)` congruent to `p (mod of)`.
    #[inline]
    fn sample_in_partition_range(rng: &mut XorShift64, lo: u64, hi: u64, p: u64, of: u64) -> u64 {
        let below_lo = Self::keys_in_partition(lo, p, of);
        let below_hi = Self::keys_in_partition(hi, p, of);
        debug_assert!(below_hi > below_lo, "partition {p} empty in [{lo},{hi})");
        p + (below_lo + rng.next_below(below_hi - below_lo)) * of
    }

    fn choose_partitions(&mut self) -> u32 {
        let (count, of) = match self.spec.constraint {
            PartitionConstraint::None => {
                self.parts.clear();
                return 0;
            }
            PartitionConstraint::Exact { count, of } => (count, of),
            PartitionConstraint::MultiFraction { pct, of } => {
                let count = if of >= 2 && self.rng.chance_percent(pct) {
                    2
                } else {
                    1
                };
                (count, of)
            }
        };
        self.parts.clear();
        while self.parts.len() < count as usize {
            let p = self.rng.next_below(of as u64) as u32;
            if !self.parts.contains(&p) {
                self.parts.push(p);
            }
        }
        of
    }

    fn next_keys(&mut self) {
        let of = self.choose_partitions();
        let spec = &self.spec;
        self.keys.clear();
        let hot_end = spec.n_hot.unwrap_or(0);
        let hot_ops = if spec.n_hot.is_some() {
            spec.hot_ops
        } else {
            0
        };

        for i in 0..spec.total_ops {
            let (lo, hi) = if i < hot_ops {
                (0, hot_end)
            } else if hot_end > 0 {
                (hot_end, spec.n_records)
            } else {
                (0, spec.n_records)
            };
            loop {
                let key = if let Some(z) = &self.zipf {
                    z.sample(&mut self.rng)
                } else if self.parts.is_empty() {
                    lo + self.rng.next_below(hi - lo)
                } else {
                    // Round-robin ops over the chosen partitions so every
                    // chosen partition gets at least one key (the "exactly
                    // N partitions" guarantee of Figure 6).
                    let p = self.parts[i % self.parts.len()] as u64;
                    Self::sample_in_partition_range(&mut self.rng, lo, hi, p, of as u64)
                };
                if !self.keys.contains(&key) {
                    self.keys.push(key);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_knob_emits_cross_partition_transfers() {
        let spec = MicroSpec::uniform(64, 2, false)
            .with_constraint(PartitionConstraint::MultiFraction { pct: 0, of: 4 })
            .with_transfers(100);
        let mut gen = spec.generator(99, 0);
        for _ in 0..200 {
            match gen.next_program() {
                Program::Transfer { from, to, .. } => {
                    assert!(from < 64 && to < 64);
                    assert_ne!(from % 4, to % 4, "endpoints span two partitions");
                }
                other => panic!("expected a transfer, got {}", other.kind()),
            }
        }
        // pct = 0 keeps the classic shape.
        let mut gen = MicroSpec::uniform(64, 2, false).generator(99, 0);
        for _ in 0..50 {
            assert!(matches!(gen.next_program(), Program::Rmw { .. }));
        }
    }

    fn keys_of(p: Program) -> Vec<u64> {
        match p {
            Program::ReadOnly { keys } | Program::Rmw { keys } => keys,
            _ => panic!("micro workloads yield key programs"),
        }
    }

    #[test]
    fn uniform_yields_distinct_in_range() {
        let spec = MicroSpec::uniform(1000, 10, false);
        let mut g = spec.generator(1, 0);
        for _ in 0..100 {
            let keys = keys_of(g.next_program());
            assert_eq!(keys.len(), 10);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 10, "keys must be distinct");
            assert!(keys.iter().all(|&k| k < 1000));
        }
    }

    #[test]
    fn read_only_flag_selects_program() {
        let mut g = MicroSpec::uniform(100, 5, true).generator(1, 0);
        assert!(matches!(g.next_program(), Program::ReadOnly { .. }));
        let mut g = MicroSpec::uniform(100, 5, false).generator(1, 0);
        assert!(matches!(g.next_program(), Program::Rmw { .. }));
    }

    #[test]
    fn hot_cold_puts_hot_first() {
        let spec = MicroSpec::hot_cold(10_000, 64, 2, 10, false);
        let mut g = spec.generator(7, 0);
        for _ in 0..200 {
            let keys = keys_of(g.next_program());
            assert!(keys[0] < 64 && keys[1] < 64, "first two must be hot");
            assert!(
                keys[2..].iter().all(|&k| (64..10_000).contains(&k)),
                "rest must be cold"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cold range too small")]
    fn hot_cold_rejects_empty_cold_range() {
        // hot == records leaves nothing for the 8 cold draws; this must
        // fail at construction, not as an RNG panic mid-benchmark.
        let _ = MicroSpec::hot_cold(4096, 4096, 2, 10, false);
    }

    #[test]
    fn hot_cold_accepts_exact_boundary() {
        // Exactly enough cold records for the distinct cold draws.
        let spec = MicroSpec::hot_cold(72, 64, 2, 10, false);
        let mut g = spec.generator(3, 0);
        for _ in 0..50 {
            let keys = keys_of(g.next_program());
            assert_eq!(keys.len(), 10);
        }
    }

    #[test]
    fn zipf_keys_distinct_and_skewed() {
        let spec = MicroSpec::zipf(4096, 8, 0.99, false);
        let mut g = spec.generator(9, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..2_000 {
            let keys = keys_of(g.next_program());
            assert_eq!(keys.len(), 8);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "keys must be distinct");
            for k in keys {
                assert!(k < 4096);
                *counts.entry(k).or_insert(0u32) += 1;
            }
        }
        let max = *counts.values().max().unwrap();
        assert!(
            max > 200,
            "a scrambled-zipf hot key must dominate; max count {max}"
        );
    }

    #[test]
    #[should_panic(expected = "alternative skew models")]
    fn zipf_rejects_hot_cold() {
        let mut spec = MicroSpec::hot_cold(4096, 64, 2, 10, false);
        spec.zipf_theta = Some(0.9);
        let _ = spec.generator(1, 0);
    }

    #[test]
    #[should_panic(expected = "cannot satisfy partition constraints")]
    fn zipf_rejects_constraints() {
        let spec = MicroSpec::zipf(4096, 8, 0.9, false)
            .with_constraint(PartitionConstraint::Exact { count: 2, of: 4 });
        let _ = spec.generator(1, 0);
    }

    #[test]
    fn exact_partition_span() {
        for count in [1u32, 2, 4, 7, 10] {
            let spec = MicroSpec::uniform(100_000, 10, false)
                .with_constraint(PartitionConstraint::Exact { count, of: 16 });
            let mut g = spec.generator(3, 1);
            for _ in 0..100 {
                let keys = keys_of(g.next_program());
                let mut parts: Vec<u64> = keys.iter().map(|k| k % 16).collect();
                parts.sort_unstable();
                parts.dedup();
                assert_eq!(parts.len(), count as usize, "span must be exactly {count}");
            }
        }
    }

    #[test]
    fn multifraction_mixes_single_and_dual() {
        let spec = MicroSpec::uniform(100_000, 10, false)
            .with_constraint(PartitionConstraint::MultiFraction { pct: 50, of: 8 });
        let mut g = spec.generator(11, 0);
        let (mut singles, mut duals) = (0, 0);
        for _ in 0..1000 {
            let keys = keys_of(g.next_program());
            let mut parts: Vec<u64> = keys.iter().map(|k| k % 8).collect();
            parts.sort_unstable();
            parts.dedup();
            match parts.len() {
                1 => singles += 1,
                2 => duals += 1,
                n => panic!("unexpected span {n}"),
            }
        }
        assert!(singles > 300 && duals > 300, "{singles}/{duals}");
    }

    #[test]
    fn multifraction_extremes() {
        let spec = MicroSpec::uniform(10_000, 10, false)
            .with_constraint(PartitionConstraint::MultiFraction { pct: 0, of: 4 });
        let mut g = spec.generator(2, 0);
        for _ in 0..50 {
            let keys = keys_of(g.next_program());
            let p0 = keys[0] % 4;
            assert!(keys.iter().all(|k| k % 4 == p0));
        }
        let spec = MicroSpec::uniform(10_000, 10, false)
            .with_constraint(PartitionConstraint::MultiFraction { pct: 100, of: 4 });
        let mut g = spec.generator(2, 0);
        for _ in 0..50 {
            let keys = keys_of(g.next_program());
            let mut parts: Vec<u64> = keys.iter().map(|k| k % 4).collect();
            parts.sort_unstable();
            parts.dedup();
            assert_eq!(parts.len(), 2);
        }
    }

    #[test]
    fn hot_cold_with_partition_constraint() {
        // YCSB high contention under the "single" placement: both hot and
        // cold keys of a txn on one partition.
        let spec = MicroSpec::hot_cold(100_000, 64, 2, 10, false)
            .with_constraint(PartitionConstraint::Exact { count: 1, of: 16 });
        let mut g = spec.generator(9, 2);
        for _ in 0..200 {
            let keys = keys_of(g.next_program());
            let p = keys[0] % 16;
            assert!(keys.iter().all(|&k| k % 16 == p), "single-partition txn");
            assert!(keys[0] < 64 && keys[1] < 64);
            assert!(keys[2..].iter().all(|&k| k >= 64));
        }
    }

    #[test]
    fn hot_key_hint_exposes_hot_key_pre_admission() {
        // The admission scheduler's contract: for hot/cold workloads the
        // pre-admission footprint hint is a hot-set key (the first key in
        // access order), with no planning required.
        let spec = MicroSpec::hot_cold(10_000, 64, 2, 10, false);
        let mut g = spec.generator(5, 0);
        for _ in 0..200 {
            let p = g.next_program();
            let hint = p.hot_key_hint().expect("key programs have a footprint");
            assert!(hint < 64, "hint {hint} must be a hot-set key");
            let keys = keys_of(p);
            assert_eq!(hint, keys[0], "hint is the first access-order key");
        }
    }

    #[test]
    fn threads_draw_different_streams() {
        let spec = MicroSpec::uniform(1_000_000, 10, false);
        let a = keys_of(spec.generator(1, 0).next_program());
        let b = keys_of(spec.generator(1, 1).next_program());
        assert_ne!(a, b);
        // Same thread, same seed: reproducible.
        let a2 = keys_of(spec.generator(1, 0).next_program());
        assert_eq!(a, a2);
    }

    #[test]
    fn partition_arithmetic_helpers() {
        assert_eq!(MicroGen::keys_in_partition(10, 0, 4), 3); // 0,4,8
        assert_eq!(MicroGen::keys_in_partition(10, 1, 4), 3); // 1,5,9
        assert_eq!(MicroGen::keys_in_partition(10, 3, 4), 2); // 3,7
        assert_eq!(MicroGen::keys_in_partition(3, 7, 4), 0);
        let mut rng = XorShift64::new(4);
        for _ in 0..100 {
            let k = MicroGen::sample_in_partition(&mut rng, 100, 3, 8);
            assert!(k < 100 && k % 8 == 3);
            let k = MicroGen::sample_in_partition_range(&mut rng, 64, 1000, 5, 8);
            assert!((64..1000).contains(&k) && k % 8 == 5);
        }
    }
}
