//! The power-of-two climb [`crate::autotune::tune_flush_threshold`] runs:
//! measure the rungs `1, 2, 4, …` in ascending order under an explicit
//! ceiling, and stop once the curve has turned down.

/// An ascending climb over the rungs `1, 2, 4, …, max`, early-stopping
/// after `patience` consecutive regressions. Usage: while [`Self::rung`]
/// is `Some`, measure that rung and [`Self::record`] the score.
#[derive(Debug, Clone)]
pub(crate) struct Pow2Climb {
    next: Option<usize>,
    max: usize,
    patience: usize,
    declines: usize,
    prev: f64,
}

impl Pow2Climb {
    /// A climb up to `max` (inclusive; the last rung may undershoot it if
    /// it is not a power of two), stopping after `patience` consecutive
    /// score regressions.
    pub(crate) fn new(max: usize, patience: usize) -> Self {
        assert!(max >= 1, "ladder needs at least rung 1");
        assert!(patience >= 1, "patience 0 would stop before measuring");
        Pow2Climb {
            next: Some(1),
            max,
            patience,
            declines: 0,
            prev: f64::MIN,
        }
    }

    /// The rung to measure next, or `None` when the climb is over.
    pub(crate) fn rung(&self) -> Option<usize> {
        self.next
    }

    /// Record the current rung's score and advance.
    pub(crate) fn record(&mut self, score: f64) {
        let Some(cur) = self.next else { return };
        if score < self.prev {
            self.declines += 1;
            if self.declines >= self.patience {
                self.next = None;
                return;
            }
        } else {
            self.declines = 0;
        }
        self.prev = score;
        self.next = cur.checked_mul(2).filter(|&n| n <= self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn climb_visits_every_rung_of_a_rising_curve() {
        let mut climb = Pow2Climb::new(64, 2);
        let mut rungs = Vec::new();
        while let Some(r) = climb.rung() {
            rungs.push(r);
            climb.record((r as f64).ln() + 1.0);
        }
        assert_eq!(rungs, vec![1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn climb_stops_after_patience_regressions() {
        // Peak at 4: rungs 8 and 16 regress, so the climb ends there.
        let mut climb = Pow2Climb::new(1024, 2);
        let mut rungs = Vec::new();
        while let Some(r) = climb.rung() {
            rungs.push(r);
            climb.record(1000.0 - (r as f64 - 4.0).abs() * 10.0);
        }
        assert_eq!(rungs, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn climb_of_one_rung_measures_once() {
        let mut climb = Pow2Climb::new(1, 2);
        assert_eq!(climb.rung(), Some(1));
        climb.record(1.0);
        assert_eq!(climb.rung(), None);
    }

    #[test]
    #[should_panic(expected = "at least rung 1")]
    fn climb_rejects_zero_max() {
        let _ = Pow2Climb::new(0, 2);
    }
}
