//! Pieces every workload shares: inputs from the seed, result cells and
//! their checks, the statistics digest, and host measurements from `/proc`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use twig_sim::{IntegrityConfig, ObsConfig, SimConfig, SimStats};
use twig_workload::{InputConfig, WorkloadSpec};

/// The train and test inputs a seed selects.
///
/// Seed `n` picks `InputConfig::numbered(2n)` for training and
/// `numbered(2n + 1)` for evaluation (indices modulo 2^32), so seed 0 is
/// the harness's own train #0 / test #1 split.
#[derive(Clone, Copy, Debug)]
pub struct Inputs {
    pub train: InputConfig,
    pub test: InputConfig,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Self {
        let train = (seed as u32).wrapping_mul(2);
        Inputs {
            train: InputConfig::numbered(train),
            test: InputConfig::numbered(train.wrapping_add(1)),
        }
    }
}

/// The paper's Table 1 configuration for `spec`, with observability and
/// integrity checking pinned off so `TWIG_*` variables in the environment
/// cannot change what is measured.
pub fn base_config(spec: &WorkloadSpec) -> SimConfig {
    SimConfig {
        obs: ObsConfig::off(),
        integrity: IntegrityConfig::off(),
        ..SimConfig::paper_baseline(spec.backend_extra_cpki)
    }
}

/// One requested result: an `(app, system, config)` simulation.
#[derive(Clone, Debug)]
pub struct Cell {
    pub id: String,
    pub stats: Result<SimStats, String>,
    /// Events in the input trace the cell replays.
    pub events: u64,
}

impl Cell {
    /// A cell fails when its pipeline failed or when its pass retired fewer
    /// instructions than its budget.
    pub fn new(id: String, budget: u64, events: u64, stats: Result<SimStats, String>) -> Self {
        let stats = stats.and_then(|s| {
            if s.retired_instructions < budget {
                Err(format!(
                    "retired {} of {budget} budgeted instructions",
                    s.retired_instructions
                ))
            } else {
                Ok(s)
            }
        });
        Cell { id, stats, events }
    }
}

/// Runs one pipeline step, turning a panic into an error.
pub fn attempt<T>(step: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(step)) {
        Ok(result) => result,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())),
    }
}

/// Pipeline counts of one iteration (deterministic for a seed).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counts {
    pub profile_samples: u64,
    pub plans: u64,
    pub injected_ops: u64,
}

/// What one timed iteration produced.
#[derive(Default)]
pub struct Iteration {
    pub cells: Vec<Cell>,
    pub counts: Counts,
    /// Twig speedups over the FDIP baseline, percent (headline only).
    pub twig_speedups: Vec<f64>,
}

impl Iteration {
    /// FNV-1a over every cell's id and rendered statistics, in order; two
    /// commits with equal digests produced bit-identical statistics.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for cell in &self.cells {
            let text = format!("{}={:?}", cell.id, cell.stats);
            for b in text.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// User plus system CPU seconds of this process (`/proc/self/stat`; the
/// kernel reports them in USER_HZ = 100 ticks per second).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // Fields 14 and 15 of the file are utime and stime; `rest` starts at
    // field 3.
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_harness_split() {
        let inputs = Inputs::from_seed(0);
        assert_eq!(inputs.train, InputConfig::numbered(0));
        assert_eq!(inputs.test, InputConfig::numbered(1));
    }

    #[test]
    fn short_pass_fails_its_cell() {
        let stats = SimStats {
            retired_instructions: 99,
            ..SimStats::default()
        };
        let cell = Cell::new("a/b".into(), 100, 10, Ok(stats));
        assert!(cell.stats.is_err());
    }

    #[test]
    fn panics_become_errors() {
        let r: Result<(), String> = attempt(|| panic!("boom"));
        assert_eq!(r, Err("boom".to_string()));
    }

    #[test]
    fn median_of_even_sample_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
