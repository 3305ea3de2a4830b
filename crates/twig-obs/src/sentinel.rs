//! The regression sentinel's metric table: which headline figures a run
//! is judged on, how far each may move, and in which direction is good.
//!
//! `twig metrics regress` judges fresh snapshots against checked-in
//! baselines with it, and the fleet's A/B deploy gate judges a candidate
//! layout against the deployed one with it, so both always apply the
//! same thresholds. Thresholds are relative; the simulator is
//! bit-deterministic, so a clean rerun reproduces a baseline exactly and
//! any nonzero delta reflects a real change.

/// The headline figures the sentinel tracks, derived from one run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Headline {
    /// Retired instructions per cycle.
    pub ipc: f64,
    /// BTB misses per kilo-instruction.
    pub btb_mpki: f64,
    /// Fraction of BTB misses covered by prefetching (1.0 when missless).
    pub coverage: f64,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// Outcome of one metric comparison.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Within the threshold of the baseline.
    Ok,
    /// Moved past the threshold in the good direction.
    Improved,
    /// Moved past the threshold in the bad direction.
    Regressed,
}

impl Verdict {
    /// Stable label for reports (`ok`, `improved`, `REGRESSED`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One row of the sentinel's table.
pub struct Metric {
    /// Metric name as reports print it.
    pub name: &'static str,
    /// Relative change tolerated before a verdict flips (0.02 = 2%).
    pub threshold: f64,
    /// Direction of improvement.
    pub higher_is_better: bool,
    /// Reads this metric from a run's headline figures.
    pub read: fn(&Headline) -> f64,
}

/// The sentinel's metric set, latency-shaped metrics (`ipc`, `cycles`)
/// first.
#[rustfmt::skip]
pub const METRICS: [Metric; 4] = [
    Metric { name: "ipc", threshold: 0.005, higher_is_better: true, read: |h| h.ipc },
    Metric { name: "cycles", threshold: 0.005, higher_is_better: false, read: |h| h.cycles as f64 },
    Metric { name: "btb_mpki", threshold: 0.02, higher_is_better: false, read: |h| h.btb_mpki },
    Metric { name: "coverage", threshold: 0.02, higher_is_better: true, read: |h| h.coverage },
];

/// `(current - base) / base`; a zero base never divides (an unchanged
/// zero is 0, anything else an infinite move in its direction).
fn relative_delta(base: f64, current: f64) -> f64 {
    if base == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY * (current - base).signum()
        }
    } else {
        (current - base) / base
    }
}

impl Metric {
    /// The relative delta of this metric from `base` to `current`, and
    /// its verdict.
    pub fn judge(&self, base: &Headline, current: &Headline) -> (f64, Verdict) {
        let delta = relative_delta((self.read)(base), (self.read)(current));
        let verdict = if delta.abs() <= self.threshold {
            Verdict::Ok
        } else if (delta > 0.0) == self.higher_is_better {
            Verdict::Improved
        } else {
            Verdict::Regressed
        };
        (delta, verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use Verdict::{Improved as I, Ok as O, Regressed as R};

    fn headline(ipc: f64, btb_mpki: f64, coverage: f64, cycles: u64) -> Headline {
        Headline {
            ipc,
            btb_mpki,
            coverage,
            cycles,
        }
    }

    #[test]
    fn table_verdicts_respect_direction_and_threshold() {
        // (case, base, current, verdicts in METRICS order:
        // ipc, cycles, btb_mpki, coverage).
        let cases: [(&str, Headline, Headline, [Verdict; 4]); 10] = [
            (
                "clear ipc win",
                headline(1.0, 10.0, 0.2, 100_000),
                headline(1.10, 8.0, 0.5, 91_000),
                [I, I, I, I],
            ),
            (
                "noise band",
                headline(1.0, 10.0, 0.2, 100_000),
                headline(1.004, 10.1, 0.201, 99_700),
                [O, O, O, O],
            ),
            (
                "mpki regression beside an ipc win",
                headline(1.0, 10.0, 0.5, 100_000),
                headline(1.10, 10.3, 0.5, 90_000),
                [I, I, R, O],
            ),
            (
                "coverage-only win",
                headline(1.0, 10.0, 0.2, 100_000),
                headline(1.001, 9.9, 0.4, 99_900),
                [O, O, O, I],
            ),
            (
                "identical runs",
                headline(1.2, 4.0, 0.8, 50_000),
                headline(1.2, 4.0, 0.8, 50_000),
                [O, O, O, O],
            ),
            (
                "ipc up 2%, mpki down 10%",
                headline(1.0, 10.0, 0.5, 100_000),
                headline(1.02, 9.0, 0.5, 100_000),
                [I, O, I, O],
            ),
            (
                "ipc down 2%, mpki up 5%",
                headline(1.0, 10.0, 0.5, 100_000),
                headline(0.98, 10.5, 0.5, 100_000),
                [R, O, R, O],
            ),
            (
                "ipc up 0.4%, mpki up 1% stay in the band",
                headline(1.0, 10.0, 0.5, 100_000),
                headline(1.004, 10.1, 0.5, 100_000),
                [O, O, O, O],
            ),
            (
                "zero baselines never divide",
                headline(0.0, 0.0, 0.5, 100_000),
                headline(0.0, 0.0, 0.5, 100_000),
                [O, O, O, O],
            ),
            (
                "moves off a zero baseline",
                headline(0.0, 0.0, 0.5, 100_000),
                headline(1.0, 1.0, 0.5, 100_000),
                [I, O, R, O],
            ),
        ];
        for (case, base, current, expected) in cases {
            let got: Vec<Verdict> = METRICS
                .iter()
                .map(|metric| metric.judge(&base, &current).1)
                .collect();
            assert_eq!(got, expected, "{case}");
        }
        let names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names, ["ipc", "cycles", "btb_mpki", "coverage"]);
        assert_eq!(relative_delta(10.0, 10.5), 0.05);
        assert_eq!(relative_delta(0.0, -1.0), f64::NEG_INFINITY);
    }
}
