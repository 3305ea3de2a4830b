//! The end-to-end Twig pipeline: profile → analyze → rewrite → evaluate.
//!
//! Mirrors the paper's methodology (§4.1): collect an LBR profile of the
//! production binary under a *training* input, inject BTB prefetch
//! instructions at link time, and evaluate the rewritten binary under the
//! same or different inputs against the FDIP baseline and an ideal BTB.

use twig_serde::{Deserialize, Serialize};
use twig_profile::{LbrRecorder, Profile};
use twig_sim::{speedup_percent, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{
    BlockEvent, EventSource, InputConfig, LayoutOptions, Program, ProgramGenerator, Walker,
    WorkloadSpec,
};

use crate::analysis::{analyze_profile_with_layout, MissPlan};
use crate::config::TwigConfig;
use crate::report::baseline_relative_coverage;
use crate::rewrite::{apply_rewrite, RewriteOutcome};

/// A Twig-optimized binary with its rewrite metadata.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct OptimizedBinary {
    /// The rewritten program (prefetch ops injected, re-laid-out).
    pub program: Program,
    /// Rewrite statistics (static overhead, op counts).
    pub rewrite: RewriteOutcome,
    /// Number of miss branches planned for prefetching.
    pub planned_misses: usize,
}

/// Evaluation of one optimized binary against the baseline on one input.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct EvalReport {
    /// FDIP baseline statistics.
    pub baseline: SimStats,
    /// Twig statistics.
    pub twig: SimStats,
    /// Ideal-BTB statistics (same input, original binary).
    pub ideal: SimStats,
    /// Twig speedup over the baseline, percent (Fig. 16).
    pub speedup_percent: f64,
    /// Ideal-BTB speedup over the baseline, percent.
    pub ideal_speedup_percent: f64,
    /// Twig as a fraction of the ideal-BTB speedup (Table 2).
    pub pct_of_ideal: f64,
    /// Baseline-relative BTB miss coverage (Fig. 17).
    pub coverage: f64,
    /// Prefetch accuracy (Fig. 19).
    pub accuracy: f64,
    /// Dynamic instruction overhead (Fig. 22).
    pub dynamic_overhead: f64,
}

/// Drives the full profile-guided optimization flow for one application.
///
/// # Examples
///
/// ```
/// use twig::{TwigConfig, TwigOptimizer};
/// use twig_sim::SimConfig;
/// use twig_workload::WorkloadSpec;
///
/// let optimizer = TwigOptimizer::new(TwigConfig::default());
/// let spec = WorkloadSpec::tiny_test();
/// let sim = SimConfig::paper_baseline(spec.backend_extra_cpki)
///     .with_btb_entries(64); // pressure the tiny program's BTB
/// let report = optimizer.run_app(&spec, sim, 0, &[0], 60_000).remove(0);
/// assert!(report.twig.ipc() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct TwigOptimizer {
    config: TwigConfig,
}

impl TwigOptimizer {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: TwigConfig) -> Self {
        config.validate().expect("invalid twig config");
        TwigOptimizer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TwigConfig {
        &self.config
    }

    /// Collects an LBR profile of `program` under `input` (baseline run).
    pub fn collect_profile(
        &self,
        program: &Program,
        sim_config: SimConfig,
        input: InputConfig,
        instructions: u64,
    ) -> Profile {
        let events = Walker::new(program, input).run_instructions(instructions);
        self.collect_profile_from_events(program, sim_config, &events, instructions)
    }

    /// Collects an LBR profile from an already-materialized event stream
    /// (the experiment harness shares one walker trace across figures via
    /// its artifact cache instead of re-walking per profile).
    pub fn collect_profile_from_events(
        &self,
        program: &Program,
        sim_config: SimConfig,
        events: &[BlockEvent],
        instructions: u64,
    ) -> Profile {
        self.collect_profile_and_stats_from_events(program, sim_config, events, instructions)
            .0
    }

    /// [`Self::collect_profile_from_events`], also returning the
    /// statistics of the underlying simulation. The observer is passive,
    /// so these are exactly the stats of a plain FDIP baseline run over
    /// the same events — callers that need both get the baseline run for
    /// free with the profile.
    pub fn collect_profile_and_stats_from_events(
        &self,
        program: &Program,
        sim_config: SimConfig,
        events: &[BlockEvent],
        instructions: u64,
    ) -> (Profile, SimStats) {
        let mut recorder = LbrRecorder::new(program, 1);
        recorder.observe_events(program, events.iter().copied());
        let mut sim = Simulator::new(program, sim_config, PlainBtb::new(&sim_config));
        let stats = sim.run_observed(events.iter().copied(), instructions, &mut recorder);
        (recorder.into_profile(), stats)
    }

    /// [`Self::collect_profile_and_stats_from_events`] over a streaming
    /// [`EventSource`] — the out-of-core path. The profile pass consumes
    /// one full pass of the source, the source is reset, and the
    /// simulation replays the identical stream (replay determinism is the
    /// source contract), so profile and stats agree exactly with the
    /// materialized variant on the same events.
    pub fn collect_profile_and_stats_from_source<S: EventSource>(
        &self,
        program: &Program,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
    ) -> (Profile, SimStats) {
        let mut recorder = LbrRecorder::new(program, 1);
        recorder.observe_events(program, source.by_ref());
        source.reset();
        let mut sim = Simulator::new(program, sim_config, PlainBtb::new(&sim_config));
        let stats = sim.run_observed(source.by_ref(), instructions, &mut recorder);
        (recorder.into_profile(), stats)
    }

    /// Analyzes a profile into miss plans (no layout awareness; prefer
    /// [`Self::analyze_for`] when the program is at hand).
    pub fn analyze(&self, profile: &Profile) -> Vec<MissPlan> {
        analyze_profile_with_layout(profile, &self.config, None)
    }

    /// Analyzes a profile with encodability-aware site selection against
    /// the program's layout.
    pub fn analyze_for(&self, profile: &Profile, program: &Program) -> Vec<MissPlan> {
        analyze_profile_with_layout(profile, &self.config, Some(program))
    }

    /// Rewrites a fresh copy of the program according to `plans`.
    pub fn rewrite(
        &self,
        generator: &ProgramGenerator,
        plans: &[MissPlan],
    ) -> OptimizedBinary {
        self.rewrite_program(generator.generate(), &generator.layout_options(), plans)
    }

    /// Rewrites a clone of an already-generated pristine (op-free) program.
    ///
    /// Generation is deterministic, so this produces the same binary as
    /// [`Self::rewrite`] with that program's generator — without re-running
    /// generation. The clone shares the pristine CFG and copies only its
    /// layout. Sweeps that rewrite the same application once per
    /// configuration point use this with their shared pristine copy.
    pub fn rewrite_of(
        &self,
        pristine: &Program,
        layout: &LayoutOptions,
        plans: &[MissPlan],
    ) -> OptimizedBinary {
        self.rewrite_program(pristine.clone(), layout, plans)
    }

    fn rewrite_program(
        &self,
        mut program: Program,
        layout: &LayoutOptions,
        plans: &[MissPlan],
    ) -> OptimizedBinary {
        let rewrite = apply_rewrite(&mut program, plans, &self.config, layout);
        OptimizedBinary {
            program,
            rewrite,
            planned_misses: plans.len(),
        }
    }

    /// Evaluates an optimized binary against the baseline and the ideal BTB
    /// under one input.
    pub fn evaluate(
        &self,
        original: &Program,
        optimized: &OptimizedBinary,
        sim_config: SimConfig,
        input: InputConfig,
        instructions: u64,
    ) -> EvalReport {
        let events = Walker::new(original, input).run_instructions(instructions);
        self.evaluate_with_events(original, optimized, sim_config, &events, instructions)
    }

    /// Evaluates an optimized binary over an already-materialized event
    /// stream (cache-friendly variant of [`Self::evaluate`]).
    pub fn evaluate_with_events(
        &self,
        original: &Program,
        optimized: &OptimizedBinary,
        sim_config: SimConfig,
        events: &[BlockEvent],
        instructions: u64,
    ) -> EvalReport {
        let (baseline, ideal) =
            Self::reference_stats(original, sim_config, events, instructions);
        self.evaluate_optimized(optimized, sim_config, events, instructions, baseline, ideal)
    }

    /// Simulates the FDIP baseline and the ideal BTB for `original` over
    /// `events` — the two reference runs every evaluation is scored
    /// against. They depend only on the original binary and the input,
    /// not on the optimized variant, so callers evaluating several
    /// rewrites of the same program under the same input compute them
    /// once and feed them to [`Self::evaluate_optimized`] repeatedly.
    pub fn reference_stats(
        original: &Program,
        sim_config: SimConfig,
        events: &[BlockEvent],
        instructions: u64,
    ) -> (SimStats, SimStats) {
        let mut base_sim = Simulator::new(original, sim_config, PlainBtb::new(&sim_config));
        let baseline = base_sim.run(events.iter().copied(), instructions);

        let ideal_cfg = SimConfig {
            ideal_btb: true,
            ..sim_config
        };
        let mut ideal_sim = Simulator::new(original, ideal_cfg, PlainBtb::new(&ideal_cfg));
        let ideal = ideal_sim.run(events.iter().copied(), instructions);
        (baseline, ideal)
    }

    /// [`Self::reference_stats`] over a streaming [`EventSource`]: the
    /// baseline pass runs, the source resets, the ideal pass replays.
    pub fn reference_stats_from_source<S: EventSource>(
        original: &Program,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
    ) -> (SimStats, SimStats) {
        let mut base_sim = Simulator::new(original, sim_config, PlainBtb::new(&sim_config));
        let baseline = base_sim.run(source.by_ref(), instructions);
        source.reset();
        let ideal_cfg = SimConfig {
            ideal_btb: true,
            ..sim_config
        };
        let mut ideal_sim = Simulator::new(original, ideal_cfg, PlainBtb::new(&ideal_cfg));
        let ideal = ideal_sim.run(source.by_ref(), instructions);
        (baseline, ideal)
    }

    /// Scores one optimized binary against precomputed reference runs
    /// (see [`Self::reference_stats`]); runs only the Twig simulation.
    pub fn evaluate_optimized(
        &self,
        optimized: &OptimizedBinary,
        sim_config: SimConfig,
        events: &[BlockEvent],
        instructions: u64,
        baseline: SimStats,
        ideal: SimStats,
    ) -> EvalReport {
        // The optimized binary replays the same control flow (block ids are
        // stable across the rewrite).
        let mut twig_sim = Simulator::new(
            &optimized.program,
            sim_config,
            PlainBtb::new(&sim_config),
        );
        let twig = twig_sim.run(events.iter().copied(), instructions);
        self.score(twig, baseline, ideal)
    }

    /// [`Self::evaluate_optimized`] over a streaming [`EventSource`]
    /// (resets the source first, so it composes after a reference pass).
    pub fn evaluate_optimized_from_source<S: EventSource>(
        &self,
        optimized: &OptimizedBinary,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
        baseline: SimStats,
        ideal: SimStats,
    ) -> EvalReport {
        source.reset();
        let mut twig_sim = Simulator::new(
            &optimized.program,
            sim_config,
            PlainBtb::new(&sim_config),
        );
        let twig = twig_sim.run(source.by_ref(), instructions);
        self.score(twig, baseline, ideal)
    }

    /// [`Self::evaluate_with_events`] over a streaming [`EventSource`]:
    /// three bounded-memory passes (baseline, ideal, Twig) over one
    /// resettable stream.
    pub fn evaluate_with_source<S: EventSource>(
        &self,
        original: &Program,
        optimized: &OptimizedBinary,
        sim_config: SimConfig,
        source: &mut S,
        instructions: u64,
    ) -> EvalReport {
        let (baseline, ideal) =
            Self::reference_stats_from_source(original, sim_config, source, instructions);
        self.evaluate_optimized_from_source(
            optimized,
            sim_config,
            source,
            instructions,
            baseline,
            ideal,
        )
    }

    /// Scores a Twig run against precomputed reference stats.
    fn score(&self, twig: SimStats, baseline: SimStats, ideal: SimStats) -> EvalReport {
        let speedup = speedup_percent(&baseline, &twig);
        let ideal_speedup = speedup_percent(&baseline, &ideal);
        EvalReport {
            speedup_percent: speedup,
            ideal_speedup_percent: ideal_speedup,
            pct_of_ideal: if ideal_speedup > 0.0 {
                speedup / ideal_speedup
            } else {
                0.0
            },
            coverage: baseline_relative_coverage(&baseline, &twig),
            accuracy: twig.prefetch_accuracy(),
            dynamic_overhead: twig.dynamic_overhead(),
            baseline,
            twig,
            ideal,
        }
    }

    /// Convenience: full flow for one application spec — profile on input
    /// `train`, rewrite, evaluate on each input of `test`.
    pub fn run_app(
        &self,
        spec: &WorkloadSpec,
        sim_config: SimConfig,
        train: u32,
        test: &[u32],
        instructions: u64,
    ) -> Vec<EvalReport> {
        let generator = ProgramGenerator::new(spec.clone());
        let program = generator.generate();
        let profile = self.collect_profile(
            &program,
            sim_config,
            InputConfig::numbered(train),
            instructions,
        );
        let plans = self.analyze_for(&profile, &program);
        let optimized = self.rewrite(&generator, &plans);
        test.iter()
            .map(|&i| {
                self.evaluate(
                    &program,
                    &optimized,
                    sim_config,
                    InputConfig::numbered(i),
                    instructions,
                )
            })
            .collect()
    }
}

impl Default for TwigOptimizer {
    fn default() -> Self {
        TwigOptimizer::new(TwigConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressured_config(spec: &WorkloadSpec) -> SimConfig {
        // The tiny test program has only a few hundred branch sites; shrink
        // the BTB so capacity misses exist to optimize away (at 256 entries
        // the whole working set fits and only compulsory misses remain).
        SimConfig::paper_baseline(spec.backend_extra_cpki).with_btb_entries(64)
    }

    #[test]
    fn end_to_end_improves_ipc_and_covers_misses() {
        let spec = WorkloadSpec::tiny_test();
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let report = optimizer.run_app(&spec, sim, 0, &[0], 200_000).remove(0);
        assert!(
            report.speedup_percent > 0.0,
            "Twig must speed up the pressured baseline: {:.2}%",
            report.speedup_percent
        );
        assert!(
            report.coverage > 0.2,
            "coverage too low: {:.3}",
            report.coverage
        );
        assert!(report.twig.retired_prefetch_ops > 0);
        assert!(report.dynamic_overhead > 0.0);
        assert!(report.accuracy > 0.0);
        assert!(report.ideal_speedup_percent >= report.speedup_percent * 0.5);
    }

    #[test]
    fn cross_input_generalizes() {
        let spec = WorkloadSpec::tiny_test();
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let reports = optimizer.run_app(&spec, sim, 0, &[1, 2], 200_000);
        for r in &reports {
            assert!(
                r.coverage > 0.1,
                "cross-input coverage collapsed: {:.3}",
                r.coverage
            );
        }
    }

    #[test]
    fn source_paths_match_materialized_paths() {
        use twig_workload::{ColumnarReader, ColumnarSource, MemSource};

        let spec = WorkloadSpec::tiny_test();
        let generator = ProgramGenerator::new(spec.clone());
        let program = generator.generate();
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let budget = 60_000u64;
        let events =
            Walker::new(&program, InputConfig::numbered(0)).run_instructions(budget);

        let (profile, stats) =
            optimizer.collect_profile_and_stats_from_events(&program, sim, &events, budget);
        let plans = optimizer.analyze_for(&profile, &program);
        let optimized = optimizer.rewrite(&generator, &plans);
        let report = optimizer.evaluate_with_events(&program, &optimized, sim, &events, budget);

        // In-memory source and out-of-core columnar source must reproduce
        // the materialized path exactly — profiles, stats, and reports.
        let columnar = twig_workload::columnar::encode_columnar_chunked(&events, 4096);
        let mut sources: Vec<twig_workload::AnySource> = vec![
            MemSource::from(events.clone()).into(),
            ColumnarSource::from_reader(std::sync::Arc::new(
                ColumnarReader::from_bytes(columnar).unwrap(),
            ))
            .into(),
        ];
        for source in &mut sources {
            let (p2, s2) = optimizer
                .collect_profile_and_stats_from_source(&program, sim, source, budget);
            assert_eq!(p2, profile);
            assert_eq!(s2, stats);
            source.reset();
            let r2 =
                optimizer.evaluate_with_source(&program, &optimized, sim, source, budget);
            assert_eq!(r2, report);
        }
    }

    #[test]
    fn profile_reflects_workload() {
        let spec = WorkloadSpec::tiny_test();
        let generator = ProgramGenerator::new(spec.clone());
        let program = generator.generate();
        let sim = pressured_config(&spec);
        let optimizer = TwigOptimizer::default();
        let profile =
            optimizer.collect_profile(&program, sim, InputConfig::numbered(0), 100_000);
        assert!(profile.num_samples() > 0);
        assert!(profile.instructions >= 100_000);
        let plans = optimizer.analyze(&profile);
        assert!(!plans.is_empty());
    }

    /// Rewrites `spec`'s program from a short profile both ways — from the
    /// generator and from the pristine copy — and checks that the two
    /// binaries are equal, that the copy shares the pristine CFG, and that
    /// dropping it leaves the pristine program as it was.
    fn check_rewrite_of(spec: WorkloadSpec, sim: SimConfig, budget: u64) {
        let generator = ProgramGenerator::new(spec);
        let pristine = generator.generate();
        let optimizer = TwigOptimizer::default();
        let profile = optimizer.collect_profile(&pristine, sim, InputConfig::numbered(0), budget);
        let plans = optimizer.analyze_for(&profile, &pristine);
        let snapshot = pristine.clone();

        let fresh = optimizer.rewrite(&generator, &plans);
        let of = optimizer.rewrite_of(&pristine, &generator.layout_options(), &plans);
        assert!(of.rewrite.brprefetch_ops > 0, "{:?}", of.rewrite);
        assert!(of.rewrite.brcoalesce_ops > 0, "{:?}", of.rewrite);
        // Addresses, ops and coalesce table alike.
        assert_eq!(of, fresh);
        assert!(of.program.shares_cfg_with(&pristine));
        assert!(!fresh.program.shares_cfg_with(&pristine));

        drop(of);
        assert_eq!(pristine, snapshot);
        assert!(pristine.all_prefetch_ops().is_empty());
        assert!(pristine.coalesce_table().is_empty());
    }

    #[test]
    fn rewrite_of_pristine_equals_rewrite_from_generator() {
        let spec = WorkloadSpec::tiny_test();
        let sim = pressured_config(&spec);
        check_rewrite_of(spec, sim, 60_000);
    }

    #[test]
    fn rewrite_of_pristine_equals_rewrite_from_generator_on_a_preset() {
        // The preset with the smallest text footprint keeps the test quick.
        let spec = twig_workload::AppId::ALL
            .iter()
            .map(|&app| WorkloadSpec::preset(app))
            .min_by_key(WorkloadSpec::estimated_footprint_bytes)
            .expect("presets exist");
        let sim = SimConfig::paper_baseline(spec.backend_extra_cpki);
        check_rewrite_of(spec, sim, 100_000);
    }

    #[test]
    #[should_panic(expected = "already rewritten")]
    fn rewriting_a_rewritten_binary_panics() {
        let spec = WorkloadSpec::tiny_test();
        let generator = ProgramGenerator::new(spec.clone());
        let pristine = generator.generate();
        let optimizer = TwigOptimizer::default();
        let profile = optimizer.collect_profile(
            &pristine,
            pressured_config(&spec),
            InputConfig::numbered(0),
            60_000,
        );
        let plans = optimizer.analyze_for(&profile, &pristine);
        let layout = generator.layout_options();
        let optimized = optimizer.rewrite_of(&pristine, &layout, &plans);
        optimizer.rewrite_of(&optimized.program, &layout, &plans);
    }
}
