//! `hw_sweep_streamed`: one mid-footprint preset (kafka) whose long train
//! and test traces are streamed at setup from `WalkerSource` into `.twgc`
//! files through `ColumnarWriter`. The timed part builds the Twig binary
//! from the streamed train trace, then sweeps BTB entries, prefetch-buffer
//! entries and FTQ depth (Figs. 23, 25, 28); each point runs the FDIP
//! baseline and the Twig binary through boxed registry systems over
//! `ColumnarSource`, with `ObsConfig::counters()` on. The same simulator as
//! `headline`, used differently: streamed decode, dynamic dispatch and
//! instrumentation on.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use twig::{OptimizedBinary, TwigConfig, TwigOptimizer};
use twig_sim::{ObsConfig, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{
    AppId, ColumnarReader, ColumnarSource, ColumnarWriter, InputConfig, LayoutOptions, Program,
    ProgramGenerator, WalkerSource, WorkloadSpec,
};

use crate::common::{attempt, base_config, Cell, Inputs, Iteration};
use crate::spans::{CellId, Layer, Tracer, NO_CELL};
use crate::{Probes, Workload};

const APP: AppId = AppId::Kafka;
/// Train and test trace lengths in instructions; the test trace is what
/// every sweep pass replays.
const TRAIN_BUDGET: u64 = 500_000;
const TEST_BUDGET: u64 = 1_000_000;
const SMOKE_TRAIN_BUDGET: u64 = 20_000;
const SMOKE_TEST_BUDGET: u64 = 40_000;
/// Events walked per batch before the batch is encoded: setup residency
/// stays bounded by one batch, and walk and write time stay separable.
const WALK_BATCH: usize = 1 << 16;
/// The point whose streamed baseline is replayed in memory after the
/// timed part.
const CHECKED_POINT: &str = "btb=2K";

fn points(base: SimConfig) -> Vec<(&'static str, SimConfig)> {
    let counted = SimConfig {
        obs: ObsConfig::counters(),
        ..base
    };
    vec![
        ("default", counted),
        ("btb=2K", counted.with_btb_entries(2048)),
        ("btb=32K", counted.with_btb_entries(32 * 1024)),
        (
            "pb=16",
            SimConfig {
                prefetch_buffer_entries: 16,
                ..counted
            },
        ),
        (
            "pb=256",
            SimConfig {
                prefetch_buffer_entries: 256,
                ..counted
            },
        ),
        (
            "ftq=4",
            SimConfig {
                ftq_entries: 4,
                ..counted
            },
        ),
        (
            "ftq=64",
            SimConfig {
                ftq_entries: 64,
                ..counted
            },
        ),
    ]
}

pub struct Streamed {
    program: Arc<Program>,
    layout: LayoutOptions,
    config: SimConfig,
    train: Arc<ColumnarReader>,
    test: Arc<ColumnarReader>,
    test_bytes: u64,
}

/// Streams one budgeted walk into a `.twgc` file and opens it.
fn stream_to_file(
    program: &Arc<Program>,
    input: InputConfig,
    budget: u64,
    path: &Path,
    tracer: &mut Tracer,
) -> Result<(Arc<ColumnarReader>, u64), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(File::create(path).map_err(io)?);
    let mut writer = ColumnarWriter::new(&mut out).map_err(io)?;
    let mut source = WalkerSource::new(Arc::clone(program), input, budget);
    let mut batch = Vec::with_capacity(WALK_BATCH);
    loop {
        batch.clear();
        tracer.layer(Layer::Walk, NO_CELL, || {
            batch.extend(source.by_ref().take(WALK_BATCH))
        });
        tracer.add_work(Layer::Walk, 0, batch.len() as u64);
        if batch.is_empty() {
            break;
        }
        tracer
            .layer(Layer::ColumnarWrite, NO_CELL, || {
                batch.iter().try_for_each(|&ev| writer.push(ev))
            })
            .map_err(io)?;
    }
    tracer
        .layer(Layer::ColumnarWrite, NO_CELL, || writer.finish())
        .map_err(io)?;
    tracer
        .layer(Layer::ColumnarWrite, NO_CELL, || out.flush())
        .map_err(io)?;
    drop(out);
    let bytes = std::fs::metadata(path).map_err(io)?.len();
    let reader = ColumnarReader::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((Arc::new(reader), bytes))
}

/// One boxed registry system over a fresh streamed pass of `trace`.
fn run_streamed(
    name: &str,
    program: &Program,
    config: SimConfig,
    trace: &Arc<ColumnarReader>,
    budget: u64,
) -> Result<SimStats, String> {
    let system = twig_prefetchers::by_name(name, &config).map_err(|e| e.to_string())?;
    let mut sim = Simulator::new(program, config, system);
    sim.try_run(ColumnarSource::from_reader(Arc::clone(trace)), budget)
        .map_err(|v| v.to_string())
}

pub struct HwSweep {
    train_budget: u64,
    test_budget: u64,
}

impl HwSweep {
    pub fn new(smoke: bool) -> Self {
        let (train_budget, test_budget) = if smoke {
            (SMOKE_TRAIN_BUDGET, SMOKE_TEST_BUDGET)
        } else {
            (TRAIN_BUDGET, TEST_BUDGET)
        };
        HwSweep {
            train_budget,
            test_budget,
        }
    }

    fn twig_binary(
        &self,
        s: &Streamed,
        cell: CellId,
        tracer: &mut Tracer,
        it: &mut Iteration,
    ) -> Result<OptimizedBinary, String> {
        let optimizer = TwigOptimizer::new(TwigConfig::default());
        let (profile, stats) = tracer.layer(Layer::Profile, cell, || {
            optimizer.collect_profile_and_stats_from_source(
                &s.program,
                s.config,
                &mut ColumnarSource::from_reader(Arc::clone(&s.train)),
                self.train_budget,
            )
        });
        tracer.add_work(
            Layer::Profile,
            stats.retired_instructions,
            s.train.total_events(),
        );
        it.counts.profile_samples += profile.num_samples() as u64;
        if stats.retired_instructions < self.train_budget {
            return Err(format!(
                "profile pass retired {} instructions",
                stats.retired_instructions
            ));
        }
        let plans = tracer.layer(Layer::Analysis, cell, || {
            optimizer.analyze_for(&profile, &s.program)
        });
        it.counts.plans += plans.len() as u64;
        let optimized = tracer.layer(Layer::Rewrite, cell, || {
            optimizer.rewrite_of(&s.program, &s.layout, &plans)
        });
        it.counts.injected_ops +=
            optimized.rewrite.brprefetch_ops + optimized.rewrite.brcoalesce_ops;
        Ok(optimized)
    }
}

impl Workload for HwSweep {
    type State = Streamed;

    fn setup(&self, inputs: Inputs, dir: &Path, tracer: &mut Tracer) -> Result<Streamed, String> {
        let spec = WorkloadSpec::preset(APP);
        let config = base_config(&spec);
        let generator = ProgramGenerator::new(spec);
        let program = Arc::new(tracer.layer(Layer::Generate, NO_CELL, || generator.generate()));
        let (train, _) = stream_to_file(
            &program,
            inputs.train,
            self.train_budget,
            &dir.join("train.twgc"),
            tracer,
        )?;
        let (test, test_bytes) = stream_to_file(
            &program,
            inputs.test,
            self.test_budget,
            &dir.join("test.twgc"),
            tracer,
        )?;
        Ok(Streamed {
            layout: generator.layout_options(),
            program,
            config,
            train,
            test,
            test_bytes,
        })
    }

    fn iterate(&self, s: &Streamed, tracer: &mut Tracer) -> Iteration {
        let budget = self.test_budget;
        let events = s.test.total_events();
        let mut it = Iteration::default();
        let name = APP.name();
        let binary_cell = tracer.cell(|| format!("{name}/twig-binary"));
        let optimized = attempt(|| self.twig_binary(s, binary_cell, tracer, &mut it));
        for (label, cfg) in points(s.config) {
            let base_cell = tracer.cell(|| format!("{name}/baseline/{label}"));
            let base = attempt(|| {
                tracer.layer(Layer::Obs, base_cell, || {
                    run_streamed("baseline", &s.program, cfg, &s.test, budget)
                })
            });
            let twig_cell = tracer.cell(|| format!("{name}/twig/{label}"));
            let twig = match &optimized {
                Ok(optimized) => attempt(|| {
                    tracer.layer(Layer::Obs, twig_cell, || {
                        run_streamed("twig", &optimized.program, cfg, &s.test, budget)
                    })
                }),
                Err(e) => Err(e.clone()),
            };
            for stats in [&base, &twig].into_iter().flatten() {
                tracer.add_work(Layer::Obs, stats.retired_instructions, events);
            }
            it.cells.push(Cell::new(
                format!("{name}/baseline/{label}"),
                budget,
                events,
                base,
            ));
            it.cells.push(Cell::new(
                format!("{name}/twig/{label}"),
                budget,
                events,
                twig,
            ));
        }
        it
    }

    /// Replays [`CHECKED_POINT`]'s baseline from memory through the
    /// monomorphized simulator and fails the streamed cell if its stats
    /// differ. In the traced run, also times a decode-only pass and the
    /// counters tier against observability off at the default point.
    fn after(
        &self,
        s: &Streamed,
        first: &mut Iteration,
        tracer: &mut Tracer,
        traced: bool,
    ) -> Result<Probes, String> {
        let budget = self.test_budget;
        let (_, cfg) = points(s.config)
            .into_iter()
            .find(|(label, _)| *label == CHECKED_POINT)
            .expect("checked point is swept");
        let events = s.test.read_all().map_err(|e| e.to_string())?;
        let in_memory = attempt(|| {
            let mut sim = Simulator::new(&s.program, cfg, PlainBtb::new(&cfg));
            sim.try_run(events.iter().copied(), budget)
                .map_err(|v| v.to_string())
        });
        drop(events);
        let id = format!("{}/baseline/{CHECKED_POINT}", APP.name());
        let cell = first
            .cells
            .iter_mut()
            .find(|c| c.id == id)
            .expect("checked cell is requested");
        if let Ok(streamed) = &cell.stats {
            if in_memory.as_ref() != Ok(streamed) {
                cell.stats = Err(format!(
                    "streamed stats differ from in-memory replay: {in_memory:?}"
                ));
            }
        }
        if !traced {
            return Ok(Probes::default());
        }

        let decoded = tracer.layer(Layer::ColumnarDecode, NO_CELL, || {
            ColumnarSource::from_reader(Arc::clone(&s.test))
                .map(std::hint::black_box)
                .count()
        });
        if decoded as u64 != s.test.total_events() {
            return Err(format!(
                "decoded {decoded} of {} events",
                s.test.total_events()
            ));
        }
        let counted = points(s.config)[0].1;
        let timed = |cfg: SimConfig| -> Result<f64, String> {
            let t = Instant::now();
            run_streamed("baseline", &s.program, cfg, &s.test, budget)?;
            Ok(t.elapsed().as_secs_f64())
        };
        let on = timed(counted)?;
        let off = timed(SimConfig {
            obs: ObsConfig::off(),
            ..counted
        })?;
        Ok(Probes {
            obs_overhead_ratio: on / off,
            obs_overhead_base_s: off,
        })
    }

    fn trace_bytes_per_event(&self, s: &Streamed) -> f64 {
        s.test_bytes as f64 / s.test.total_events() as f64
    }
}
