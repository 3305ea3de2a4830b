//! `config_sweep`: the two largest presets by estimated footprint, each
//! profiled once, then analyze → rewrite → one Twig evaluation at several
//! `TwigConfig` points (prefetch distance, coalesce width, sites per miss,
//! as in Figs. 26–27). Analysis and rewrite dominate here; the contenders,
//! the columnar reader and observability are bypassed.

use twig::{TwigConfig, TwigOptimizer};
use twig_workload::{AppId, WorkloadSpec};

use crate::common::{Cell, Inputs, Iteration};
use crate::headline::{setup_apps, App};
use crate::spans::Tracer;
use crate::Workload;

const BUDGET: u64 = 400_000;
const SMOKE_BUDGET: u64 = 20_000;

/// The swept optimizer configurations, labelled for cell ids.
fn points() -> Vec<(&'static str, TwigConfig)> {
    let default = TwigConfig::default();
    let with = |set: fn(&mut TwigConfig)| {
        let mut config = default;
        set(&mut config);
        config
    };
    vec![
        ("default", default),
        ("distance=5", with(|c| c.prefetch_distance = 5)),
        ("distance=40", with(|c| c.prefetch_distance = 40)),
        ("coalesce=1", with(|c| c.coalesce_bitmask_bits = 1)),
        ("coalesce=32", with(|c| c.coalesce_bitmask_bits = 32)),
        ("sites=1", with(|c| c.max_sites_per_miss = 1)),
        ("sites=6", with(|c| c.max_sites_per_miss = 6)),
    ]
}

/// The two presets with the largest estimated text footprint.
pub fn largest_two() -> [AppId; 2] {
    let mut apps = AppId::ALL.to_vec();
    apps.sort_by_key(|&a| std::cmp::Reverse(WorkloadSpec::preset(a).estimated_footprint_bytes()));
    [apps[0], apps[1]]
}

pub struct ConfigSweep {
    budget: u64,
}

impl ConfigSweep {
    pub fn new(smoke: bool) -> Self {
        ConfigSweep {
            budget: if smoke { SMOKE_BUDGET } else { BUDGET },
        }
    }
}

impl Workload for ConfigSweep {
    type State = Vec<App>;

    fn setup(
        &self,
        inputs: Inputs,
        _dir: &std::path::Path,
        tracer: &mut Tracer,
    ) -> Result<Vec<App>, String> {
        Ok(setup_apps(&largest_two(), inputs, self.budget, tracer))
    }

    fn iterate(&self, apps: &Vec<App>, tracer: &mut Tracer) -> Iteration {
        let mut it = Iteration::default();
        for app in apps {
            let name = app.id.name();
            let test_events = app.test.len() as u64;
            let ref_cell = tracer.cell(|| format!("{name}/baseline+ideal"));
            let profile = app.profile(tracer, ref_cell, &mut it);
            let refs = app.references(tracer, ref_cell);
            for (label, config) in points() {
                let cell = tracer.cell(|| format!("{name}/twig/{label}"));
                let twig = match (&profile, &refs) {
                    (Ok(profile), Ok(refs)) => {
                        let optimizer = TwigOptimizer::new(config);
                        app.twig(&optimizer, profile, refs, tracer, cell, &mut it)
                            .map(|report| report.twig)
                    }
                    (Err(e), _) | (_, Err(e)) => Err(e.clone()),
                };
                let id = format!("{name}/twig/{label}");
                it.cells.push(Cell::new(id, app.budget, test_events, twig));
            }
            app.push_reference_cells(refs, &mut it);
        }
        it
    }

    fn trace_bytes_per_event(&self, _apps: &Vec<App>) -> f64 {
        std::mem::size_of::<twig_workload::BlockEvent>() as f64
    }
}
