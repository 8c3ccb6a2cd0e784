//! SEDA-style thread-allocation tuning (Section 4.2).
//!
//! "While ORTHRUS provides the flexibility to configure the number of
//! concurrency control and execution threads, the choice of the optimal
//! division of threads between concurrency control and execution is not
//! obvious. ... ORTHRUS can use techniques for dynamic resource allocation
//! on SEDA systems." This module is that technique, made concrete for a
//! fixed thread budget: measure candidate splits in short epochs and
//! search the (unimodal-in-expectation) throughput curve with an integer
//! ternary search, falling back to exhaustive evaluation of the final
//! bracket. Too few CC threads and they saturate (Figure 5's plateaus);
//! too many and execution starves — the tuner finds the knee without
//! sweeping every split.

/// One measured allocation.
#[derive(Debug, Clone, Copy)]
pub struct TunePoint {
    /// CC threads (execution threads = budget − n_cc).
    pub n_cc: usize,
    /// Measured throughput (txns/sec).
    pub throughput: f64,
}

/// The tuner's outcome: the winning split and every epoch it measured.
#[derive(Debug, Clone)]
pub struct TuneResult {
    pub best: TunePoint,
    /// Measurement trace in evaluation order (one entry per epoch; splits
    /// are never re-measured).
    pub trace: Vec<TunePoint>,
}

/// Search the CC/exec split for a `total_threads` budget.
///
/// `measure(n_cc)` runs one epoch with `n_cc` CC threads and
/// `total_threads - n_cc` execution threads, returning throughput. The
/// search is an integer ternary search over `n_cc ∈ [1, total-1]`
/// (memoized: each split is measured at most once), so the epoch count is
/// `O(log₁.₅ total)` instead of a full sweep.
pub fn tune_cc_split(total_threads: usize, mut measure: impl FnMut(usize) -> f64) -> TuneResult {
    assert!(
        total_threads >= 2,
        "need at least one CC and one exec thread"
    );
    let mut memo: Vec<Option<f64>> = vec![None; total_threads];
    let mut trace: Vec<TunePoint> = Vec::new();

    let mut eval = |n_cc: usize, memo: &mut Vec<Option<f64>>, trace: &mut Vec<TunePoint>| {
        if let Some(t) = memo[n_cc] {
            return t;
        }
        let t = measure(n_cc);
        memo[n_cc] = Some(t);
        trace.push(TunePoint {
            n_cc,
            throughput: t,
        });
        t
    };

    let (mut lo, mut hi) = (1usize, total_threads - 1);
    while hi - lo > 2 {
        let third = (hi - lo) / 3;
        let m1 = lo + third.max(1);
        let m2 = (hi - third.max(1)).max(m1 + 1);
        let t1 = eval(m1, &mut memo, &mut trace);
        let t2 = eval(m2, &mut memo, &mut trace);
        if t1 < t2 {
            lo = m1 + 1;
        } else {
            hi = m2 - 1;
        }
    }
    for n_cc in lo..=hi {
        eval(n_cc, &mut memo, &mut trace);
    }

    let best = *trace
        .iter()
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .expect("at least one epoch ran");
    TuneResult { best, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noiseless unimodal curve peaking at `peak`.
    fn curve(peak: usize) -> impl FnMut(usize) -> f64 {
        move |n_cc| 1000.0 - (n_cc as f64 - peak as f64).abs() * 10.0
    }

    #[test]
    fn finds_the_peak_of_a_unimodal_curve() {
        for peak in [1usize, 4, 8, 15, 31] {
            let r = tune_cc_split(32, curve(peak));
            assert_eq!(r.best.n_cc, peak, "peak {peak}");
        }
    }

    #[test]
    fn epoch_count_is_logarithmic() {
        let mut calls = 0usize;
        let mut f = curve(13);
        let r = tune_cc_split(64, |c| {
            calls += 1;
            f(c)
        });
        assert_eq!(r.trace.len(), calls, "trace records every epoch once");
        assert!(calls <= 20, "64-way budget must not need {calls} epochs");
    }

    #[test]
    fn best_is_the_trace_argmax() {
        let r = tune_cc_split(16, curve(5));
        let max = r
            .trace
            .iter()
            .map(|p| p.throughput)
            .fold(f64::MIN, f64::max);
        assert_eq!(r.best.throughput, max);
    }

    #[test]
    fn tiny_budget_evaluates_the_whole_range() {
        let r = tune_cc_split(3, curve(2));
        let mut seen: Vec<usize> = r.trace.iter().map(|p| p.n_cc).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn never_measures_a_split_twice() {
        let mut seen = std::collections::HashSet::new();
        tune_cc_split(40, |c| {
            assert!(seen.insert(c), "split {c} measured twice");
            curve(9)(c)
        });
    }

    #[test]
    #[should_panic(expected = "at least one CC and one exec")]
    fn rejects_budget_of_one() {
        let _ = tune_cc_split(1, |_| 0.0);
    }

    #[test]
    fn survives_a_noisy_plateau() {
        // Plateau with deterministic "noise": the tuner must still return
        // the argmax of what it saw (no stronger guarantee is possible).
        let r = tune_cc_split(24, |c| 500.0 + ((c * 7919) % 13) as f64);
        let max = r
            .trace
            .iter()
            .map(|p| p.throughput)
            .fold(f64::MIN, f64::max);
        assert_eq!(r.best.throughput, max);
    }
}
