//! Zipfian key sampling (the YCSB skew model).
//!
//! The paper's microbenchmarks model contention with a hot/cold split;
//! YCSB itself (Cooper et al. [9], which Appendix A adopts) uses a
//! Zipfian popularity distribution. This sampler implements the classic
//! Gray et al. algorithm YCSB uses — closed-form inversion against a
//! precomputed `zeta(n, θ)` — plus the *scrambled* variant, which hashes
//! ranks onto the key space so popular keys are scattered rather than
//! clustered at the low end. Scrambling is what makes skew interesting
//! for ORTHRUS: hot keys land on arbitrary CC threads, so CC-thread load
//! becomes imbalanced (Section 3.3's "over- and under-utilization due to
//! workload skew"). The engine keeps its fixed assignment under skew, as
//! the paper does; `figures ext04` measures what that costs.

use orthrus_common::{fx_hash_u64, XorShift64};

/// A Zipfian generator over ranks `0..n` with parameter `theta` in
/// `(0, 1)`; `theta → 0` approaches uniform, YCSB's default is `0.99`.
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zeta_n: f64,
    eta: f64,
    zeta_2: f64,
    /// Scatter ranks over the key space with a hash (YCSB's
    /// `ScrambledZipfianGenerator`).
    scrambled: bool,
}

/// `zeta(n, θ) = Σ_{i=1..n} 1 / i^θ`.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Zipfian {
    /// Build a generator for ranks `0..n`. `O(n)` precomputation of
    /// `zeta(n, θ)`; build once per workload, not per thread.
    pub fn new(n: u64, theta: f64, scrambled: bool) -> Self {
        assert!(n >= 1, "empty key space");
        assert!(
            (0.0..1.0).contains(&theta),
            "theta must be in [0, 1); got {theta}"
        );
        let zeta_n = zeta(n, theta);
        let zeta_2 = zeta(2.min(n), theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta_2 / zeta_n);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zeta_n,
            eta,
            zeta_2,
            scrambled,
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draw the next key in `[0, n)`.
    pub fn sample(&self, rng: &mut XorShift64) -> u64 {
        let rank = self.sample_rank(rng);
        if self.scrambled {
            fx_hash_u64(rank) % self.n
        } else {
            rank
        }
    }

    /// Draw a popularity rank in `[0, n)` (rank 0 is the most popular).
    pub fn sample_rank(&self, rng: &mut XorShift64) -> u64 {
        // Gray et al. "Quickly generating billion-record synthetic
        // databases", as implemented in YCSB's ZipfianGenerator.
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The probability mass of rank `r` (diagnostics/tests).
    pub fn mass_of_rank(&self, r: u64) -> f64 {
        1.0 / ((r + 1) as f64).powf(self.theta) / self.zeta_n
    }

    /// Unused-field silencer with meaning: `zeta_2` participates in `eta`
    /// only at construction, but keeping it makes the generator's state
    /// inspectable.
    pub fn zeta_2(&self) -> f64 {
        self.zeta_2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_in_range() {
        for &(n, theta) in &[(1u64, 0.0), (10, 0.5), (1000, 0.99)] {
            let z = Zipfian::new(n, theta, false);
            let mut rng = XorShift64::new(7);
            for _ in 0..5_000 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn scrambled_samples_stay_in_range() {
        let z = Zipfian::new(1000, 0.9, true);
        let mut rng = XorShift64::new(8);
        for _ in 0..5_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let z = Zipfian::new(1000, 0.99, false);
        let mut rng = XorShift64::new(3);
        let mut counts = vec![0u32; 1000];
        let draws = 200_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let top = counts[0] as f64 / draws as f64;
        let expected = z.mass_of_rank(0);
        assert!(
            (top - expected).abs() < 0.02,
            "rank-0 mass {top:.3} vs expected {expected:.3}"
        );
        // Top 10 ranks must dominate the bottom 500.
        let top10: u32 = counts[..10].iter().sum();
        let bottom500: u32 = counts[500..].iter().sum();
        assert!(top10 > bottom500, "{top10} vs {bottom500}");
    }

    #[test]
    fn low_theta_is_near_uniform() {
        let z = Zipfian::new(100, 0.01, false);
        let mut rng = XorShift64::new(5);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 2.0, "near-uniform expected: {max} / {min}");
    }

    #[test]
    fn scrambling_disperses_the_hottest_keys() {
        let plain = Zipfian::new(4096, 0.99, false);
        let scrambled = Zipfian::new(4096, 0.99, true);
        let mut rng = XorShift64::new(11);
        // Plain: hottest key is rank 0 = key 0. Scrambled: hash(0) % n.
        let mut low_plain = 0u32;
        let mut low_scrambled = 0u32;
        for _ in 0..50_000 {
            if plain.sample(&mut rng) < 16 {
                low_plain += 1;
            }
            if scrambled.sample(&mut rng) < 16 {
                low_scrambled += 1;
            }
        }
        // Scrambling can still hash a moderately hot rank into the low
        // window, so the contrast is strong but not unbounded.
        assert!(
            low_plain > low_scrambled * 2,
            "plain zipf clusters at low keys: {low_plain} vs {low_scrambled}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let z = Zipfian::new(500, 0.9, true);
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
        assert!(z.zeta_2() > 0.0);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn rejects_theta_one() {
        let _ = Zipfian::new(10, 1.0, false);
    }
}
