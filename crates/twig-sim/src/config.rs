//! Simulator configuration (Table 1 of the paper).
//!
//! Defaults reproduce the paper's baseline: a 3.2 GHz 6-wide OOO core with a
//! decoupled frontend — 24-entry FTQ, 8K-entry 4-way BTB, 32-entry RAS,
//! 4K-entry 4-way IBTB, 32 KB 8-way L1i, 1 MB L2, 10 MB L3.

use std::fmt;

use twig_obs::ObsConfig;
use twig_serde::{Deserialize, Serialize};

use crate::integrity::IntegrityConfig;

/// A rejected simulator configuration: which field, and why.
///
/// Produced by [`SimConfig::builder`]'s `build()` and by
/// [`SimConfig::validate_typed`]; the legacy [`SimConfig::validate`]
/// flattens it to a string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimConfigError {
    /// The offending field (dotted path, e.g. `btb.entries`).
    pub field: &'static str,
    /// Why the value was rejected.
    pub reason: String,
}

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid SimConfig field {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for SimConfigError {}

/// Geometry of a set-associative predictor structure (BTB, IBTB).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BtbGeometry {
    /// Total entries (must be a multiple of `ways`).
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

impl BtbGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`, or the set
    /// count is not a power of two. Use [`BtbGeometry::try_new`] for a
    /// typed error instead.
    pub fn new(entries: usize, ways: usize) -> Self {
        match BtbGeometry::try_new(entries, ways) {
            Ok(geometry) => geometry,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a geometry, rejecting bad shapes with a description.
    ///
    /// # Errors
    ///
    /// Fails if `entries` is not a positive multiple of `ways`, or the set
    /// count is not a power of two.
    pub fn try_new(entries: usize, ways: usize) -> Result<Self, String> {
        if ways == 0 || entries == 0 || !entries.is_multiple_of(ways) {
            return Err(format!(
                "entries ({entries}) must be a positive multiple of ways ({ways})"
            ));
        }
        if !(entries / ways).is_power_of_two() {
            return Err(format!(
                "set count ({}) must be a power of two",
                entries / ways
            ));
        }
        Ok(BtbGeometry { entries, ways })
    }

    /// Number of sets.
    #[inline]
    pub fn sets(self) -> usize {
        self.entries / self.ways
    }
}

/// Geometry of a cache level (64-byte lines).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Capacity in bytes.
    pub bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Creates a cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if the derived set count is zero or not a power of two.
    pub fn new(bytes: usize, ways: usize) -> Self {
        let sets = bytes / 64 / ways;
        assert!(sets > 0 && sets.is_power_of_two(), "bad cache geometry");
        CacheGeometry { bytes, ways }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(self) -> usize {
        self.bytes / 64 / self.ways
    }
}

/// Conditional direction predictor selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum DirectionPredictorKind {
    /// Classic gshare with the given log2 table size.
    Gshare {
        /// log2 of the 2-bit-counter table size.
        table_bits: u32,
    },
    /// A TAGE-like predictor (bimodal base + 4 tagged tables with geometric
    /// history lengths), standing in for the paper's 64 KB TAGE-SC-L.
    TageLite,
    /// A perceptron predictor (Jiménez & Lin) with the given log2 table
    /// size.
    Perceptron {
        /// log2 of the perceptron table size.
        table_bits: u32,
    },
    /// Every conditional direction predicted correctly (limit studies).
    Oracle,
}

/// Full frontend/simulator configuration.
///
/// # Examples
///
/// ```
/// use twig_sim::SimConfig;
///
/// let config = SimConfig::default();          // the paper's Table 1
/// assert_eq!(config.btb.entries, 8192);
/// let ideal = SimConfig { ideal_btb: true, ..SimConfig::default() };
/// assert!(ideal.ideal_btb);
/// ```
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct SimConfig {
    /// Instructions fetched/decoded per cycle.
    pub fetch_width: u32,
    /// Instructions retired per cycle (6-wide OOO).
    pub retire_width: u32,
    /// Fetch target queue capacity in basic blocks — how far the decoupled
    /// frontend can run ahead (Fig. 28 sweeps this 1–64).
    pub ftq_entries: usize,
    /// Fetch regions the branch prediction unit produces per cycle
    /// (one region spans up to [`Self::region_max_instrs`] instructions and
    /// ends at a predicted-taken branch, matching Table 1's "up to
    /// 12-instruction" prediction bandwidth).
    pub bpu_regions_per_cycle: u32,
    /// Maximum original instructions per fetch region.
    pub region_max_instrs: u32,
    /// Reorder-buffer capacity: decoded-but-unretired instructions the
    /// backend can hold (Table 1: 224). Bounds how far the frontend can run
    /// ahead of retirement, so frontend bubbles are only absorbed up to the
    /// ROB slack.
    pub rob_entries: usize,
    /// Main BTB geometry (8K entries, 4-way baseline).
    pub btb: BtbGeometry,
    /// Indirect-target BTB geometry (4K entries, 4-way).
    pub ibtb: BtbGeometry,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// BTB prefetch buffer entries (Fig. 25 sweeps this 8–256).
    pub prefetch_buffer_entries: usize,
    /// L1 instruction cache (32 KB 8-way).
    pub l1i: CacheGeometry,
    /// Unified L2 (1 MB 16-way).
    pub l2: CacheGeometry,
    /// Shared L3 (10 MB 20-way).
    pub l3: CacheGeometry,
    /// L1i hit latency in cycles.
    pub l1i_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// L3 hit latency in cycles.
    pub l3_latency: u64,
    /// Memory latency in cycles.
    pub mem_latency: u64,
    /// Pipeline stages between fetch completion and decode.
    pub decode_pipe: u64,
    /// Stages between decode and branch execution (resteer detection for
    /// direction/indirect mispredicts).
    pub exec_pipe: u64,
    /// Extra cycles to redirect the BPU after a resteer is detected.
    pub redirect_penalty: u64,
    /// Cycles from decoding a `brprefetch` to its entry being usable in the
    /// prefetch buffer.
    pub prefetch_exec_latency: u64,
    /// Extra latency for a `brcoalesce` whose table line is not in the
    /// table-line buffer (charged as an L2 access).
    pub coalesce_table_miss_latency: u64,
    /// Direction predictor.
    pub direction: DirectionPredictorKind,
    /// Extra backend-stall cycles per 1000 retired instructions (models
    /// D-cache/dependency stalls; see the workload spec).
    pub backend_extra_cpki: f64,
    /// Model wrong-path sequential fetch during BTB-miss stalls: while the
    /// BPU waits for a decode resteer, FDIP keeps prefetching the
    /// fall-through path it (wrongly) believes in. Off by default — the
    /// paper's comparisons do not depend on wrong-path effects — but
    /// available for sensitivity studies: the accidental warmth it creates
    /// can slightly help or hurt depending on layout locality.
    pub wrong_path_prefetch: bool,
    /// Lines of sequential wrong-path prefetching issued per BTB-miss
    /// stall when [`Self::wrong_path_prefetch`] is enabled.
    pub wrong_path_lines: u32,
    /// Limit study: every BTB lookup hits with the correct target (Fig. 2).
    pub ideal_btb: bool,
    /// Limit study: every I-cache access hits (Fig. 2).
    pub ideal_icache: bool,
    /// Batch the per-cycle stepping: when every structure the cycle could
    /// touch is quiescent (per the hot loop's activity mask) and integrity
    /// sampling is off, jump straight to the next cycle at which any stage
    /// can act, bulk-applying the skipped cycles' retire-slot accounting
    /// and occupancy histograms. Produces bit-identical statistics and
    /// observability output to cycle-by-cycle stepping (asserted by
    /// `tests/sim_behavior.rs` and `tests/batching_oracle.rs`); off only
    /// for the before/after benchmark groups in `benches/sim.rs`.
    pub batch_stepping: bool,
    /// Simulation integrity layer: checking tier, watchdog budgets, and
    /// the optional seeded mutation. Defaults from the `TWIG_INTEGRITY`
    /// environment (off unless set).
    pub integrity: IntegrityConfig,
    /// Observability layer: metrics/tracing tier and trace-ring capacity.
    /// Defaults from the `TWIG_OBS` environment (off unless set).
    pub obs: ObsConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fetch_width: 6,
            retire_width: 6,
            ftq_entries: 24,
            bpu_regions_per_cycle: 3,
            region_max_instrs: 12,
            rob_entries: 224,
            btb: BtbGeometry::new(8192, 4),
            ibtb: BtbGeometry::new(4096, 4),
            ras_entries: 32,
            prefetch_buffer_entries: 64,
            l1i: CacheGeometry::new(32 * 1024, 8),
            l2: CacheGeometry::new(1024 * 1024, 16),
            l3: CacheGeometry::new(10 * 1024 * 1024 / 64 / 20 * 64 * 20, 20),
            l1i_latency: 1,
            l2_latency: 14,
            l3_latency: 40,
            mem_latency: 200,
            decode_pipe: 12,
            exec_pipe: 10,
            redirect_penalty: 2,
            prefetch_exec_latency: 4,
            coalesce_table_miss_latency: 14,
            direction: DirectionPredictorKind::TageLite,
            backend_extra_cpki: 150.0,
            wrong_path_prefetch: false,
            wrong_path_lines: 8,
            ideal_btb: false,
            ideal_icache: false,
            batch_stepping: true,
            integrity: IntegrityConfig::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl SimConfig {
    /// The Table 1 baseline with a workload-specific backend stall factor.
    pub fn paper_baseline(backend_extra_cpki: f64) -> Self {
        SimConfig {
            backend_extra_cpki,
            ..SimConfig::default()
        }
    }

    /// Returns a copy with a different BTB entry count (same associativity).
    pub fn with_btb_entries(mut self, entries: usize) -> Self {
        self.btb = BtbGeometry::new(entries, self.btb.ways);
        self
    }

    /// Returns a copy with a different BTB associativity (same capacity).
    pub fn with_btb_ways(mut self, ways: usize) -> Self {
        self.btb = BtbGeometry::new(self.btb.entries, ways);
        self
    }

    /// Starts a builder seeded with the Table 1 baseline — the preferred
    /// construction path: every setter takes raw values and `build()`
    /// reports the first bad one as a typed [`SimConfigError`] instead of
    /// panicking mid-experiment.
    ///
    /// # Examples
    ///
    /// ```
    /// use twig_sim::SimConfig;
    ///
    /// let config = SimConfig::builder()
    ///     .btb(32 * 1024, 4)
    ///     .ftq_entries(32)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(config.btb.entries, 32 * 1024);
    ///
    /// let err = SimConfig::builder().btb(100, 3).build().unwrap_err();
    /// assert_eq!(err.field, "btb");
    /// ```
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Validates cross-field constraints, naming the offending field.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`SimConfigError`].
    pub fn validate_typed(&self) -> Result<(), SimConfigError> {
        fn reject(field: &'static str, reason: impl Into<String>) -> Result<(), SimConfigError> {
            Err(SimConfigError {
                field,
                reason: reason.into(),
            })
        }
        if self.fetch_width == 0 {
            return reject("fetch_width", "must be positive");
        }
        if self.retire_width == 0 {
            return reject("retire_width", "must be positive");
        }
        if self.ftq_entries == 0 {
            return reject("ftq_entries", "FTQ needs at least one entry");
        }
        if self.bpu_regions_per_cycle == 0 || self.region_max_instrs == 0 {
            return reject(
                "bpu_regions_per_cycle",
                "BPU must advance at least one region per cycle",
            );
        }
        if self.rob_entries < self.retire_width as usize {
            return reject("rob_entries", "ROB must hold at least one retire group");
        }
        if !(self.l1i_latency <= self.l2_latency
            && self.l2_latency <= self.l3_latency
            && self.l3_latency <= self.mem_latency)
        {
            return reject("mem_latency", "memory latencies must be monotone");
        }
        if self.backend_extra_cpki < 0.0 {
            return reject("backend_extra_cpki", "must be non-negative");
        }
        if let Err(reason) = self.integrity.validate() {
            return reject("integrity", reason);
        }
        if let Err(reason) = self.obs.validate() {
            return reject("obs", reason);
        }
        Ok(())
    }

    /// Validates cross-field constraints (legacy string-error form).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_typed().map_err(|e| e.to_string())
    }
}

/// Builder for [`SimConfig`]: mutate freely, validate once at
/// [`SimConfigBuilder::build`].
///
/// Structural fields that can be *shaped wrong* (BTB/IBTB/cache
/// geometries) are held as raw numbers and only checked at build time, so
/// a sweep over invalid shapes surfaces as a typed error naming the field
/// rather than a panic inside a worker thread.
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    config: SimConfig,
    btb: (usize, usize),
    ibtb: (usize, usize),
    l1i: (usize, usize),
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        let config = SimConfig::default();
        SimConfigBuilder {
            btb: (config.btb.entries, config.btb.ways),
            ibtb: (config.ibtb.entries, config.ibtb.ways),
            l1i: (config.l1i.bytes, config.l1i.ways),
            config,
        }
    }
}

impl SimConfigBuilder {
    /// Fetch and retire width (instructions per cycle).
    pub fn widths(mut self, fetch: u32, retire: u32) -> Self {
        self.config.fetch_width = fetch;
        self.config.retire_width = retire;
        self
    }

    /// Fetch target queue capacity in basic-block regions.
    pub fn ftq_entries(mut self, entries: usize) -> Self {
        self.config.ftq_entries = entries;
        self
    }

    /// Reorder-buffer capacity.
    pub fn rob_entries(mut self, entries: usize) -> Self {
        self.config.rob_entries = entries;
        self
    }

    /// Main BTB shape (entries, ways); validated at build.
    pub fn btb(mut self, entries: usize, ways: usize) -> Self {
        self.btb = (entries, ways);
        self
    }

    /// Indirect-target BTB shape (entries, ways); validated at build.
    pub fn ibtb(mut self, entries: usize, ways: usize) -> Self {
        self.ibtb = (entries, ways);
        self
    }

    /// L1 instruction cache shape (bytes, ways); validated at build.
    pub fn l1i(mut self, bytes: usize, ways: usize) -> Self {
        self.l1i = (bytes, ways);
        self
    }

    /// Return address stack depth.
    pub fn ras_entries(mut self, entries: usize) -> Self {
        self.config.ras_entries = entries;
        self
    }

    /// BTB prefetch buffer capacity.
    pub fn prefetch_buffer_entries(mut self, entries: usize) -> Self {
        self.config.prefetch_buffer_entries = entries;
        self
    }

    /// Conditional direction predictor.
    pub fn direction(mut self, kind: DirectionPredictorKind) -> Self {
        self.config.direction = kind;
        self
    }

    /// Extra backend-stall cycles per 1000 retired instructions.
    pub fn backend_extra_cpki(mut self, cpki: f64) -> Self {
        self.config.backend_extra_cpki = cpki;
        self
    }

    /// Limit study: every BTB lookup hits.
    pub fn ideal_btb(mut self, ideal: bool) -> Self {
        self.config.ideal_btb = ideal;
        self
    }

    /// Limit study: every I-cache access hits.
    pub fn ideal_icache(mut self, ideal: bool) -> Self {
        self.config.ideal_icache = ideal;
        self
    }

    /// Batched (idle-skipping) cycle stepping; on by default, off only for
    /// the before/after performance benchmarks.
    pub fn batch_stepping(mut self, batch: bool) -> Self {
        self.config.batch_stepping = batch;
        self
    }

    /// Integrity tier (overrides the `TWIG_INTEGRITY` default).
    pub fn integrity(mut self, integrity: IntegrityConfig) -> Self {
        self.config.integrity = integrity;
        self
    }

    /// Observability tier (overrides the `TWIG_OBS` default).
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.config.obs = obs;
        self
    }

    /// Arbitrary access to the remaining fields (latencies, pipeline
    /// depths, wrong-path knobs) without one setter per field.
    pub fn tune(mut self, f: impl FnOnce(&mut SimConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field as a [`SimConfigError`].
    pub fn build(self) -> Result<SimConfig, SimConfigError> {
        let mut config = self.config;
        config.btb = BtbGeometry::try_new(self.btb.0, self.btb.1)
            .map_err(|reason| SimConfigError { field: "btb", reason })?;
        config.ibtb = BtbGeometry::try_new(self.ibtb.0, self.ibtb.1)
            .map_err(|reason| SimConfigError { field: "ibtb", reason })?;
        let l1i_sets = self.l1i.0.checked_div(64 * self.l1i.1).unwrap_or(0);
        if l1i_sets == 0 || !l1i_sets.is_power_of_two() {
            return Err(SimConfigError {
                field: "l1i",
                reason: format!(
                    "bad cache geometry: {} bytes / {} ways",
                    self.l1i.0, self.l1i.1
                ),
            });
        }
        config.l1i = CacheGeometry::new(self.l1i.0, self.l1i.1);
        config.validate_typed()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = SimConfig::default();
        c.validate().unwrap();
        assert_eq!(c.btb.entries, 8192);
        assert_eq!(c.btb.ways, 4);
        assert_eq!(c.btb.sets(), 2048);
        assert_eq!(c.ibtb.entries, 4096);
        assert_eq!(c.ras_entries, 32);
        assert_eq!(c.ftq_entries, 24);
        assert_eq!(c.l1i.bytes, 32 * 1024);
        assert_eq!(c.l1i.ways, 8);
        assert_eq!(c.l1i.sets(), 64);
    }

    #[test]
    fn btb_geometry_rejects_bad_shapes() {
        assert!(std::panic::catch_unwind(|| BtbGeometry::new(100, 3)).is_err());
        assert!(std::panic::catch_unwind(|| BtbGeometry::new(0, 1)).is_err());
        // 96 entries 4 ways -> 24 sets, not a power of two.
        assert!(std::panic::catch_unwind(|| BtbGeometry::new(96, 4)).is_err());
    }

    #[test]
    fn builders_preserve_other_fields() {
        let c = SimConfig::default().with_btb_entries(32768);
        assert_eq!(c.btb.entries, 32768);
        assert_eq!(c.btb.ways, 4);
        let c = c.with_btb_ways(128);
        assert_eq!(c.btb.entries, 32768);
        assert_eq!(c.btb.ways, 128);
    }

    #[test]
    fn validate_catches_nonmonotone_latencies() {
        let c = SimConfig {
            l2_latency: 500,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        assert_eq!(c.validate_typed().unwrap_err().field, "mem_latency");
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = SimConfig::builder().build().unwrap();
        assert_eq!(built, SimConfig::default());
    }

    #[test]
    fn builder_reports_typed_errors() {
        let err = SimConfig::builder().btb(96, 4).build().unwrap_err();
        assert_eq!(err.field, "btb");
        assert!(err.to_string().contains("power of two"), "{err}");

        let err = SimConfig::builder().ibtb(0, 4).build().unwrap_err();
        assert_eq!(err.field, "ibtb");

        let err = SimConfig::builder().l1i(1000, 3).build().unwrap_err();
        assert_eq!(err.field, "l1i");

        let err = SimConfig::builder()
            .widths(6, 8)
            .rob_entries(4)
            .build()
            .unwrap_err();
        assert_eq!(err.field, "rob_entries");

        let err = SimConfig::builder()
            .backend_extra_cpki(-1.0)
            .build()
            .unwrap_err();
        assert_eq!(err.field, "backend_extra_cpki");
    }

    #[test]
    fn builder_wires_integrity_and_obs_uniformly() {
        let config = SimConfig::builder()
            .integrity(IntegrityConfig::sampled(64))
            .obs(ObsConfig::counters())
            .build()
            .unwrap();
        assert_eq!(config.integrity, IntegrityConfig::sampled(64));
        assert_eq!(config.obs, ObsConfig::counters());

        let err = SimConfig::builder()
            .obs(ObsConfig {
                trace_capacity: 0,
                ..ObsConfig::counters()
            })
            .build()
            .unwrap_err();
        assert_eq!(err.field, "obs");
    }

    #[test]
    fn builder_tune_reaches_every_field() {
        let config = SimConfig::builder()
            .tune(|c| c.redirect_penalty = 9)
            .build()
            .unwrap();
        assert_eq!(config.redirect_penalty, 9);
    }
}
