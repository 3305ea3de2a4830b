//! `headline`: the Fig. 16 computation for all nine presets, traces in
//! memory and observability off — what users of the repository run. Per
//! app: profile on the train input, analyze, rewrite, the FDIP and ideal
//! reference runs and the Twig run on the test input, then Shotgun and
//! Confluence through the prefetcher registry. The simulator hot loop and
//! the contenders do most of the work.

use twig::{EvalReport, TwigConfig, TwigOptimizer};
use twig_profile::Profile;
use twig_sim::{SimConfig, SimStats, Simulator};
use twig_workload::{
    AppId, BlockEvent, LayoutOptions, Program, ProgramGenerator, Walker, WorkloadSpec,
};

use crate::common::{attempt, base_config, Cell, Inputs, Iteration};
use crate::spans::{CellId, Layer, Tracer, NO_CELL};
use crate::Workload;

/// Instructions per trace and per simulated pass.
const BUDGET: u64 = 400_000;
const SMOKE_BUDGET: u64 = 20_000;

/// One application with its traces in memory.
pub struct App {
    pub id: AppId,
    pub program: Program,
    pub layout: LayoutOptions,
    pub config: SimConfig,
    pub train: Vec<BlockEvent>,
    pub test: Vec<BlockEvent>,
    /// Instructions per trace and per simulated pass.
    pub budget: u64,
}

impl App {
    /// Profiles the train trace: one FDIP pass with the LBR recorder on.
    pub fn profile(
        &self,
        tracer: &mut Tracer,
        cell: CellId,
        it: &mut Iteration,
    ) -> Result<Profile, String> {
        let budget = self.budget;
        attempt(|| {
            let (profile, stats) = tracer.layer(Layer::Profile, cell, || {
                TwigOptimizer::default().collect_profile_and_stats_from_events(
                    &self.program,
                    self.config,
                    &self.train,
                    self.budget,
                )
            });
            tracer.add_work(
                Layer::Profile,
                stats.retired_instructions,
                self.train.len() as u64,
            );
            it.counts.profile_samples += profile.num_samples() as u64;
            if stats.retired_instructions < budget {
                return Err(format!(
                    "profile pass retired {} instructions",
                    stats.retired_instructions
                ));
            }
            Ok(profile)
        })
    }

    /// The FDIP baseline and ideal-BTB runs on the test trace.
    pub fn references(
        &self,
        tracer: &mut Tracer,
        cell: CellId,
    ) -> Result<(SimStats, SimStats), String> {
        let (base, ideal) = attempt(|| {
            Ok(tracer.layer(Layer::Sim, cell, || {
                TwigOptimizer::reference_stats(&self.program, self.config, &self.test, self.budget)
            }))
        })?;
        let instrs = base.retired_instructions + ideal.retired_instructions;
        tracer.add_work(Layer::Sim, instrs, 2 * self.test.len() as u64);
        Ok((base, ideal))
    }

    /// Analyzes `profile` and rewrites the program with `optimizer`, then
    /// runs the Twig binary on the test trace and scores it against `refs`.
    pub fn twig(
        &self,
        optimizer: &TwigOptimizer,
        profile: &Profile,
        refs: &(SimStats, SimStats),
        tracer: &mut Tracer,
        cell: CellId,
        it: &mut Iteration,
    ) -> Result<EvalReport, String> {
        attempt(|| {
            let plans = tracer.layer(Layer::Analysis, cell, || {
                optimizer.analyze_for(profile, &self.program)
            });
            it.counts.plans += plans.len() as u64;
            let optimized = tracer.layer(Layer::Rewrite, cell, || {
                optimizer.rewrite_of(&self.program, &self.layout, &plans)
            });
            it.counts.injected_ops +=
                optimized.rewrite.brprefetch_ops + optimized.rewrite.brcoalesce_ops;
            let report = tracer.layer(Layer::Sim, cell, || {
                optimizer.evaluate_optimized(
                    &optimized,
                    self.config,
                    &self.test,
                    self.budget,
                    refs.0.clone(),
                    refs.1.clone(),
                )
            });
            tracer.add_work(
                Layer::Sim,
                report.twig.retired_instructions,
                self.test.len() as u64,
            );
            Ok(report)
        })
    }

    /// Appends the baseline and ideal cells of `refs` to `it`.
    pub fn push_reference_cells(
        &self,
        refs: Result<(SimStats, SimStats), String>,
        it: &mut Iteration,
    ) {
        let (base, ideal) = match refs {
            Ok((b, i)) => (Ok(b), Ok(i)),
            Err(e) => (Err(e.clone()), Err(e)),
        };
        let name = self.id.name();
        let events = self.test.len() as u64;
        it.cells.push(Cell::new(
            format!("{name}/baseline"),
            self.budget,
            events,
            base,
        ));
        it.cells.push(Cell::new(
            format!("{name}/ideal"),
            self.budget,
            events,
            ideal,
        ));
    }
}

/// Generates `apps` and walks their train and test traces into memory.
pub fn setup_apps(apps: &[AppId], inputs: Inputs, budget: u64, tracer: &mut Tracer) -> Vec<App> {
    apps.iter()
        .map(|&id| {
            let spec = WorkloadSpec::preset(id);
            let config = base_config(&spec);
            let generator = ProgramGenerator::new(spec);
            let program = tracer.layer(Layer::Generate, NO_CELL, || generator.generate());
            let mut walk = |input| {
                let events = tracer.layer(Layer::Walk, NO_CELL, || {
                    Walker::new(&program, input).run_instructions(budget)
                });
                tracer.add_work(Layer::Walk, 0, events.len() as u64);
                events
            };
            let train = walk(inputs.train);
            let test = walk(inputs.test);
            App {
                id,
                layout: generator.layout_options(),
                program,
                config,
                train,
                test,
                budget,
            }
        })
        .collect()
}

/// Runs one boxed registry system over an in-memory trace.
fn run_registered(
    name: &str,
    program: &Program,
    config: SimConfig,
    events: &[BlockEvent],
    budget: u64,
) -> Result<SimStats, String> {
    let system = twig_prefetchers::by_name(name, &config).map_err(|e| e.to_string())?;
    let mut sim = Simulator::new(program, config, system);
    sim.try_run(events.iter().copied(), budget)
        .map_err(|v| v.to_string())
}

pub struct Headline {
    budget: u64,
}

impl Headline {
    pub fn new(smoke: bool) -> Self {
        Headline {
            budget: if smoke { SMOKE_BUDGET } else { BUDGET },
        }
    }
}

impl Workload for Headline {
    type State = Vec<App>;

    fn setup(
        &self,
        inputs: Inputs,
        _dir: &std::path::Path,
        tracer: &mut Tracer,
    ) -> Result<Vec<App>, String> {
        Ok(setup_apps(&AppId::ALL, inputs, self.budget, tracer))
    }

    fn iterate(&self, apps: &Vec<App>, tracer: &mut Tracer) -> Iteration {
        let optimizer = TwigOptimizer::new(TwigConfig::default());
        let mut it = Iteration::default();
        for app in apps {
            let name = app.id.name();
            let budget = app.budget;
            let test_events = app.test.len() as u64;
            let twig_cell = tracer.cell(|| format!("{name}/twig"));
            let ref_cell = tracer.cell(|| format!("{name}/baseline+ideal"));
            let profile = app.profile(tracer, twig_cell, &mut it);
            let refs = app.references(tracer, ref_cell);
            let twig = match (&profile, &refs) {
                (Ok(profile), Ok(refs)) => app
                    .twig(&optimizer, profile, refs, tracer, twig_cell, &mut it)
                    .map(|report| {
                        it.twig_speedups.push(report.speedup_percent);
                        report.twig
                    }),
                (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            };
            app.push_reference_cells(refs, &mut it);
            it.cells
                .push(Cell::new(format!("{name}/twig"), budget, test_events, twig));
            for system in ["shotgun", "confluence"] {
                let cell = tracer.cell(|| format!("{name}/{system}"));
                let stats = attempt(|| {
                    tracer.layer(Layer::Prefetchers, cell, || {
                        run_registered(system, &app.program, app.config, &app.test, budget)
                    })
                });
                if let Ok(s) = &stats {
                    tracer.add_work(Layer::Prefetchers, s.retired_instructions, test_events);
                }
                let id = format!("{name}/{system}");
                it.cells.push(Cell::new(id, budget, test_events, stats));
            }
        }
        it
    }

    fn trace_bytes_per_event(&self, _apps: &Vec<App>) -> f64 {
        std::mem::size_of::<BlockEvent>() as f64
    }
}
