//! The A/B deploy gate: every candidate layout is judged against the
//! currently deployed one before it ships.
//!
//! The gate applies the regression sentinel's metric table
//! ([`twig_obs::sentinel`], the same one `twig metrics regress` uses)
//! and folds the per-metric verdicts into one decision. A candidate that
//! moves any metric past its threshold in the bad direction is
//! `Rollback`; one that improves IPC or cycles past the threshold (with
//! nothing regressing) is `Deploy`; everything else is `Hold`, and
//! consecutive holds are what the convergence watchdog counts.

use twig_obs::sentinel::{Headline, Verdict, METRICS};
use twig_sim::SimStats;

/// Derives the headline figures the gate compares from simulator
/// statistics.
pub fn gate_metrics(stats: &SimStats) -> Headline {
    let misses = stats.total_btb_misses();
    Headline {
        ipc: stats.ipc(),
        btb_mpki: if stats.retired_instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / stats.retired_instructions as f64
        },
        coverage: if misses == 0 {
            1.0
        } else {
            stats.total_covered_misses() as f64 / misses as f64
        },
        cycles: stats.cycles,
    }
}

/// What the gate decided about one candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GateDecision {
    /// Candidate clearly better: ship it.
    Deploy,
    /// Within the noise band: keep the deployed layout, count a hold.
    Hold,
    /// Candidate clearly worse on some metric: keep the deployed layout
    /// and count a rollback.
    Rollback,
}

/// Judges `candidate` against `deployed`.
pub fn judge_deploy(deployed: &Headline, candidate: &Headline) -> GateDecision {
    METRICS.iter().fold(GateDecision::Hold, |decision, metric| {
        match (decision, metric.judge(deployed, candidate).1) {
            (_, Verdict::Regressed) | (GateDecision::Rollback, _) => GateDecision::Rollback,
            // Only the latency-shaped metrics earn a deploy on their
            // own; coverage/MPKI wins that do not move cycles are held.
            (_, Verdict::Improved) if matches!(metric.name, "ipc" | "cycles") => {
                GateDecision::Deploy
            }
            (decision, _) => decision,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(ipc: f64, btb_mpki: f64, coverage: f64, cycles: u64) -> Headline {
        Headline { ipc, btb_mpki, coverage, cycles }
    }

    #[test]
    fn clear_ipc_win_deploys() {
        let deployed = metrics(1.0, 10.0, 0.2, 100_000);
        let candidate = metrics(1.10, 8.0, 0.5, 91_000);
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Deploy);
    }

    #[test]
    fn noise_band_holds() {
        let deployed = metrics(1.0, 10.0, 0.2, 100_000);
        let candidate = metrics(1.004, 10.1, 0.201, 99_700);
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Hold);
    }

    #[test]
    fn any_regression_rolls_back_even_with_an_ipc_win() {
        let deployed = metrics(1.0, 10.0, 0.5, 100_000);
        let candidate = metrics(1.10, 10.3, 0.5, 90_000); // MPKI +3% > 2%
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Rollback);
    }

    #[test]
    fn coverage_only_wins_hold_rather_than_churn_deploys() {
        let deployed = metrics(1.0, 10.0, 0.2, 100_000);
        let candidate = metrics(1.001, 9.9, 0.4, 99_900);
        assert_eq!(judge_deploy(&deployed, &candidate), GateDecision::Hold);
    }

    #[test]
    fn identical_runs_hold() {
        let m = metrics(1.2, 4.0, 0.8, 50_000);
        assert_eq!(judge_deploy(&m, &m), GateDecision::Hold);
    }
}
