//! The observability layer: structured metrics, stage tracing, and run
//! telemetry for the Twig harness — zero-cost when off.
//!
//! Twig's evaluation hinges on per-component frontend telemetry (BTB
//! MPKI, FTQ occupancy, prefetch timeliness, stall attribution). This
//! crate gives every component one way to expose those numbers:
//!
//! * [`MetricsRegistry`] — typed counters and log2-bucketed fixed-size
//!   histograms. Registration allocates once at construction; the hot
//!   loop records through integer handles ([`CounterId`], [`HistId`])
//!   with no allocation and no hashing. [`MetricsSnapshot`] freezes the
//!   registry into a name-sorted, deterministic form serialized to
//!   `results/metrics/<app>_<config>.json`.
//! * [`TraceRing`] — a sampled bounded ring buffer of span events
//!   ([`TraceEvent`]) over the decoupled-frontend stages, exportable as
//!   chrome://tracing JSON ([`chrome_trace_json`]).
//! * [`diff`] — structural comparison of two metrics snapshots (the
//!   `twig-cli metrics diff` subcommand).
//! * [`schema`] — a minimal JSON-schema-subset validator used by CI to
//!   pin the exported metrics/trace formats.
//! * [`sentinel`] — the regression sentinel's metric table (thresholds,
//!   directions, verdicts), shared by `twig metrics regress` and the
//!   fleet's deploy gate.
//!
//! Tiering mirrors the integrity layer and is selected via
//! [`ObsConfig`] or the `TWIG_OBS` environment variable (parsed through
//! the unified `twig_types::HarnessConfig`):
//!
//! * `off` — the default; instrumentation compiles to one never-taken
//!   branch per cycle.
//! * `counters` — counters and histograms; deterministic for a fixed
//!   seed regardless of thread count (each simulation is
//!   single-threaded; the registry holds no clocks and no addresses).
//! * `trace[=N]` — counters plus span events, sampling one event in `N`
//!   (default 1) into the bounded ring.
//!
//! # Examples
//!
//! ```
//! use twig_obs::{MetricsRegistry, ObsLevel};
//!
//! let mut reg = MetricsRegistry::new();
//! let hits = reg.counter("btb.hits");
//! let occ = reg.histogram("ftq.occupancy");
//! reg.inc(hits, 3);
//! reg.record(occ, 17);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("btb.hits"), Some(3));
//! assert_eq!(ObsLevel::parse("trace=8").unwrap(), ObsLevel::Trace { sample: 8 });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod diff;
pub mod metrics;
pub mod schema;
pub mod sentinel;
pub mod timeseries;
pub mod trace;

pub use attr::{
    folded_stacks, AttrConfig, AttrEntry, AttrKey, AttrTable, AttributionSnapshot, MissKind,
    ATTRIBUTION_VERSION, DEFAULT_ATTR_K,
};
pub use diff::{diff_snapshots, MetricsDiff};
pub use metrics::{
    CounterId, Hist64, HistId, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    METRICS_VERSION,
};
pub use schema::{validate, SchemaError};
pub use timeseries::{
    detect_phases, diff_timelines, parse_window_spec, window_spec_text, DerivedWindow,
    PhaseSegment, TimeSeriesRing, TimelineDiff, TimelineSnapshot, TrackId, TrackKind,
    TrackSnapshot, WindowSnapshot, DEFAULT_TIMELINE_CAPACITY, TIMELINE_VERSION,
};
pub use trace::{
    chrome_trace_json, trace_pid, Stage, TraceEvent, TraceRing, DEFAULT_TRACE_CAPACITY,
};

use twig_serde::{Deserialize, Serialize};

/// A failed metrics/trace/attribution export or import: the document
/// could not be serialized or parsed.
///
/// Carries *what* was being exported and the serializer's reason, so
/// callers (the CLI, the harness telemetry writer) can surface it as a
/// typed error instead of panicking mid-run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExportError {
    what: &'static str,
    detail: String,
}

impl ExportError {
    /// An export error for document kind `what`.
    pub fn new(what: &'static str, detail: impl Into<String>) -> Self {
        ExportError {
            what,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.what, self.detail)
    }
}

impl std::error::Error for ExportError {}

/// How much the observability layer records.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum ObsLevel {
    /// Nothing: the hot loop pays only one never-taken branch per cycle.
    #[default]
    Off,
    /// Counters and histograms (allocation-free in the hot loop).
    Counters,
    /// Counters plus span events sampled one-in-`sample` into the ring.
    Trace {
        /// Record every `sample`-th span event (min 1 = every event).
        sample: u64,
    },
}

impl ObsLevel {
    /// Whether counters/histograms are recorded at this tier.
    pub fn counters(&self) -> bool {
        !matches!(self, ObsLevel::Off)
    }

    /// The trace sampling period; `None` when tracing is off.
    pub fn trace_sample(&self) -> Option<u64> {
        match *self {
            ObsLevel::Trace { sample } => Some(sample.max(1)),
            _ => None,
        }
    }

    /// Parses `off` | `counters` | `trace` | `trace=N`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.trim() {
            "off" | "" => Ok(ObsLevel::Off),
            "counters" => Ok(ObsLevel::Counters),
            "trace" => Ok(ObsLevel::Trace { sample: 1 }),
            other => {
                if let Some(n) = other.strip_prefix("trace=") {
                    let sample: u64 = n
                        .parse()
                        .map_err(|_| format!("bad trace sample period {n:?} in {other:?}"))?;
                    if sample == 0 {
                        return Err("trace sample period must be >= 1".into());
                    }
                    Ok(ObsLevel::Trace { sample })
                } else {
                    Err(format!(
                        "unknown observability level {other:?} \
                         (expected off | counters | trace[=N])"
                    ))
                }
            }
        }
    }

    /// Stable textual form (round-trips through [`ObsLevel::parse`]).
    pub fn as_text(&self) -> String {
        match *self {
            ObsLevel::Off => "off".to_string(),
            ObsLevel::Counters => "counters".to_string(),
            ObsLevel::Trace { sample: 1 } => "trace".to_string(),
            ObsLevel::Trace { sample } => format!("trace={sample}"),
        }
    }
}

/// Observability knobs, carried inside the simulator configuration.
///
/// `Copy` on purpose (the owning `SimConfig` is `Copy`); the actual
/// recording state lives behind an `Option<Box<_>>` in the simulator so
/// the `off` tier allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Recording tier.
    pub level: ObsLevel,
    /// Trace ring capacity in events (oldest events are overwritten).
    pub trace_capacity: u32,
    /// Per-branch cycle attribution knobs (`TWIG_OBS_ATTR`), orthogonal
    /// to the tier: enabling attribution alone still creates recording
    /// state (and thus a metrics snapshot).
    pub attr: AttrConfig,
    /// Windowed time-series sampling period (`TWIG_OBS_WINDOW`), in
    /// retired instructions per window; `None` = off. Orthogonal to the
    /// tier *and* to [`ObsConfig::recording`]: windowing samples the
    /// live statistics read-only, so it composes with batched idle-cycle
    /// stepping and preserves bit-identical simulation statistics.
    pub window: Option<u64>,
}

impl ObsConfig {
    /// Observability disabled.
    pub fn off() -> Self {
        ObsConfig {
            level: ObsLevel::Off,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            attr: AttrConfig::off(),
            window: None,
        }
    }

    /// Counters and histograms only.
    pub fn counters() -> Self {
        ObsConfig {
            level: ObsLevel::Counters,
            ..ObsConfig::off()
        }
    }

    /// Counters plus span tracing, sampling one event in `sample`.
    pub fn trace(sample: u64) -> Self {
        ObsConfig {
            level: ObsLevel::Trace {
                sample: sample.max(1),
            },
            ..ObsConfig::off()
        }
    }

    /// Windowed time-series sampling every `window` retired instructions
    /// (floored to 1), leaving the recording tier off.
    pub fn windowed(window: u64) -> Self {
        ObsConfig {
            window: Some(window.max(1)),
            ..ObsConfig::off()
        }
    }

    /// This configuration with the timeline window set per `window`.
    pub fn with_window(self, window: Option<u64>) -> Self {
        ObsConfig { window, ..self }
    }

    /// Stable textual form of the window knob (`TWIG_OBS_WINDOW`
    /// grammar), for the run manifest's effective-configuration dump.
    pub fn window_text(&self) -> String {
        timeseries::window_spec_text(self.window)
    }

    /// Builds from the environment (`TWIG_OBS`) via the unified harness
    /// configuration.
    pub fn from_env() -> Result<Self, String> {
        Self::from_harness(twig_types::HarnessConfig::global())
    }

    /// Builds from an already-parsed harness configuration (the tier
    /// and attribution grammars are owned here, not in `twig-types`).
    pub fn from_harness(harness: &twig_types::HarnessConfig) -> Result<Self, String> {
        let level =
            ObsLevel::parse(&harness.obs.value).map_err(|e| format!("TWIG_OBS: {e}"))?;
        let attr = AttrConfig::parse(&harness.obs_attr.value)
            .map_err(|e| format!("TWIG_OBS_ATTR: {e}"))?;
        let window = timeseries::parse_window_spec(&harness.obs_window.value)
            .map_err(|e| format!("TWIG_OBS_WINDOW: {e}"))?;
        Ok(ObsConfig {
            level,
            attr,
            window,
            ..ObsConfig::off()
        })
    }

    /// This configuration with attribution enabled per `attr`.
    pub fn with_attr(self, attr: AttrConfig) -> Self {
        ObsConfig { attr, ..self }
    }

    /// Whether any recording state exists at all (counters tier or
    /// attribution enabled) — the gate for `Option<Box<ObsState>>`.
    pub fn recording(&self) -> bool {
        self.level.counters() || self.attr.enabled
    }

    /// Validates the knobs (called from the simulator's config validation).
    pub fn validate(&self) -> Result<(), String> {
        if let ObsLevel::Trace { sample } = self.level {
            if sample == 0 {
                return Err("obs trace sample period must be >= 1".into());
            }
        }
        if self.trace_capacity == 0 {
            return Err("obs trace_capacity must be >= 1".into());
        }
        if self.window == Some(0) {
            return Err("obs window size must be >= 1".into());
        }
        self.attr.validate()
    }
}

impl Default for ObsConfig {
    /// The effective process-wide configuration: an explicit override
    /// installed via [`set_global_override`] wins over the environment
    /// (`TWIG_OBS`), which wins over `off` — the harness-wide
    /// *explicit arg > env > default* precedence rule.
    ///
    /// # Panics
    ///
    /// Panics if `TWIG_OBS` is malformed — a misconfigured run must not
    /// silently fall back to `off`.
    fn default() -> Self {
        if let Some(config) = GLOBAL_OVERRIDE.get() {
            return *config;
        }
        ObsConfig::from_env().expect("invalid observability environment")
    }
}

static GLOBAL_OVERRIDE: std::sync::OnceLock<ObsConfig> = std::sync::OnceLock::new();

/// Pins the process-wide observability configuration, overriding
/// `TWIG_OBS` for every subsequent `ObsConfig::default()` (binaries call
/// this when the user passes an explicit `--obs` flag). The first caller
/// wins; later calls are ignored, like the integrity dump-dir override.
pub fn set_global_override(config: ObsConfig) {
    let _ = GLOBAL_OVERRIDE.set(config);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_grammar_round_trips() {
        for (text, level) in [
            ("off", ObsLevel::Off),
            ("counters", ObsLevel::Counters),
            ("trace", ObsLevel::Trace { sample: 1 }),
            ("trace=64", ObsLevel::Trace { sample: 64 }),
        ] {
            assert_eq!(ObsLevel::parse(text).unwrap(), level, "{text}");
            assert_eq!(ObsLevel::parse(&level.as_text()).unwrap(), level);
        }
        assert_eq!(ObsLevel::parse("  counters  ").unwrap(), ObsLevel::Counters);
        assert_eq!(ObsLevel::parse("").unwrap(), ObsLevel::Off);
    }

    #[test]
    fn level_grammar_rejects_garbage() {
        assert!(ObsLevel::parse("verbose").unwrap_err().contains("verbose"));
        assert!(ObsLevel::parse("trace=0").is_err());
        assert!(ObsLevel::parse("trace=lots").is_err());
    }

    #[test]
    fn config_tiers_and_validation() {
        assert_eq!(ObsConfig::off().level, ObsLevel::Off);
        assert!(ObsConfig::counters().level.counters());
        assert_eq!(ObsConfig::trace(0).level.trace_sample(), Some(1));
        assert!(ObsConfig::off().validate().is_ok());
        let bad = ObsConfig {
            trace_capacity: 0,
            ..ObsConfig::counters()
        };
        assert!(bad.validate().is_err());
        // Windowing is orthogonal: it neither creates recording state
        // nor requires a tier.
        let windowed = ObsConfig::windowed(4096);
        assert_eq!(windowed.window, Some(4096));
        assert!(!windowed.recording());
        assert_eq!(windowed.window_text(), "window=4096");
        assert_eq!(ObsConfig::off().window_text(), "off");
        assert!(windowed.validate().is_ok());
        let bad = ObsConfig::off().with_window(Some(0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn recording_gate_covers_attr_only_runs() {
        assert!(!ObsConfig::off().recording());
        assert!(ObsConfig::counters().recording());
        assert!(ObsConfig::off().with_attr(AttrConfig::on()).recording());
        let bad = ObsConfig::counters().with_attr(AttrConfig {
            sample: 0,
            ..AttrConfig::on()
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn from_harness_parses_the_tier() {
        let harness = twig_types::HarnessConfig::from_lookup(|var| match var {
            "TWIG_OBS" => Some("trace=4".to_string()),
            "TWIG_OBS_ATTR" => Some("k=32,sample=2".to_string()),
            "TWIG_OBS_WINDOW" => Some("window=8192".to_string()),
            _ => None,
        })
        .unwrap();
        let obs = ObsConfig::from_harness(&harness).unwrap();
        assert_eq!(obs.level, ObsLevel::Trace { sample: 4 });
        assert!(obs.attr.enabled);
        assert_eq!((obs.attr.k, obs.attr.sample), (32, 2));
        assert_eq!(obs.window, Some(8192));

        let harness = twig_types::HarnessConfig::from_lookup(|var| match var {
            "TWIG_OBS_WINDOW" => Some("window=0".to_string()),
            _ => None,
        })
        .unwrap();
        let err = ObsConfig::from_harness(&harness).unwrap_err();
        assert!(err.contains("TWIG_OBS_WINDOW"), "{err}");

        let harness = twig_types::HarnessConfig::from_lookup(|var| match var {
            "TWIG_OBS_ATTR" => Some("k=zero".to_string()),
            _ => None,
        })
        .unwrap();
        let err = ObsConfig::from_harness(&harness).unwrap_err();
        assert!(err.contains("TWIG_OBS_ATTR"), "{err}");

        let harness = twig_types::HarnessConfig::from_lookup(|var| match var {
            "TWIG_OBS" => Some("loud".to_string()),
            _ => None,
        })
        .unwrap();
        let err = ObsConfig::from_harness(&harness).unwrap_err();
        assert!(err.contains("TWIG_OBS"), "{err}");
    }
}
