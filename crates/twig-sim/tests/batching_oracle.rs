//! The batching contract under the recording tiers: idle-cycle batching
//! leaps spans in which no stage can act, and must leave every observable
//! exactly as cycle-by-cycle stepping leaves it — the statistics, the
//! metrics snapshot (including the per-cycle occupancy histograms, which
//! a leap records once with the span's weight), the attribution profile
//! and the trace events. Checked for the counters tier and for trace plus
//! attribution, on all nine presets under the plain, ideal, Shotgun and
//! Confluence BTB systems, and on one rewritten Twig binary.

use std::sync::OnceLock;

use twig::{TwigConfig, TwigOptimizer};
use twig_obs::{AttributionSnapshot, MetricsSnapshot, TraceEvent};
use twig_sim::{AttrConfig, ObsConfig, SimConfig, SimStats, Simulator};
use twig_workload::{
    AppId, BlockEvent, InputConfig, Program, ProgramGenerator, Walker, WorkloadSpec,
};

const BUDGET: u64 = 30_000;

/// The recording tiers whose runs must not depend on batching.
fn tiers() -> [(&'static str, ObsConfig); 2] {
    [
        ("counters", ObsConfig::counters()),
        (
            "trace+attr",
            ObsConfig::trace(1).with_attr(AttrConfig::on()),
        ),
    ]
}

/// Everything a run exposes.
#[derive(Debug, PartialEq)]
struct Observed {
    stats: SimStats,
    metrics: Option<MetricsSnapshot>,
    attribution: Option<AttributionSnapshot>,
    trace: Vec<TraceEvent>,
}

fn observe(program: &Program, config: SimConfig, system: &str, events: &[BlockEvent]) -> Observed {
    let btb = twig_prefetchers::by_name(system, &config).expect("registered system");
    let mut sim = Simulator::new(program, config, btb);
    let stats = sim.run(events.iter().copied(), BUDGET);
    Observed {
        stats,
        metrics: sim.metrics_snapshot(),
        attribution: sim.attribution_snapshot(),
        trace: sim.trace_events(),
    }
}

/// Runs `system` batched and stepped under each tier and asserts the two
/// runs are indistinguishable.
fn assert_batching_invisible(
    label: &str,
    program: &Program,
    base: SimConfig,
    system: &str,
    events: &[BlockEvent],
) {
    for (tier, obs) in tiers() {
        let config = |batch_stepping| SimConfig {
            obs,
            batch_stepping,
            ..base
        };
        let batched = observe(program, config(true), system, events);
        let stepped = observe(program, config(false), system, events);
        let metrics = batched.metrics.as_ref().expect("recording tier");
        // Every cycle records one occupancy sample, leapt or stepped.
        let occupancy = metrics
            .histogram("frontend.ftq_occupancy")
            .expect("occupancy histogram");
        assert_eq!(
            occupancy.count, batched.stats.cycles,
            "{label}/{system} {tier}"
        );
        assert!(
            batched.stats.retired_instructions > 0,
            "{label}/{system} {tier}"
        );
        assert_eq!(
            batched, stepped,
            "batching changed {label}/{system} under {tier}"
        );
    }
}

/// One preset's program, its paper-baseline configuration and a test
/// trace, shared by the tests below.
struct App {
    id: AppId,
    program: Program,
    config: SimConfig,
    events: Vec<BlockEvent>,
}

fn apps() -> &'static [App] {
    static APPS: OnceLock<Vec<App>> = OnceLock::new();
    APPS.get_or_init(|| {
        AppId::ALL
            .into_iter()
            .map(|id| {
                let spec = WorkloadSpec::preset(id);
                let config = SimConfig::paper_baseline(spec.backend_extra_cpki);
                let program = ProgramGenerator::new(spec).generate();
                let events =
                    Walker::new(&program, InputConfig::numbered(1)).run_instructions(BUDGET);
                App {
                    id,
                    program,
                    config,
                    events,
                }
            })
            .collect()
    })
}

#[test]
fn plain_and_ideal_btb_on_all_presets() {
    for app in apps() {
        let label = format!("{:?}", app.id);
        assert_batching_invisible(&label, &app.program, app.config, "plain", &app.events);
        let ideal = SimConfig {
            ideal_btb: true,
            ..app.config
        };
        assert_batching_invisible(&label, &app.program, ideal, "ideal", &app.events);
    }
}

#[test]
fn shotgun_on_all_presets() {
    for app in apps() {
        let label = format!("{:?}", app.id);
        assert_batching_invisible(&label, &app.program, app.config, "shotgun", &app.events);
    }
}

#[test]
fn confluence_on_all_presets() {
    for app in apps() {
        let label = format!("{:?}", app.id);
        assert_batching_invisible(&label, &app.program, app.config, "confluence", &app.events);
    }
}

#[test]
fn rewritten_twig_binary() {
    let app = apps()
        .iter()
        .find(|app| app.id == AppId::Kafka)
        .expect("kafka preset");
    let generator = ProgramGenerator::new(WorkloadSpec::preset(AppId::Kafka));
    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let profile =
        optimizer.collect_profile(&app.program, app.config, InputConfig::numbered(0), BUDGET);
    let plans = optimizer.analyze_for(&profile, &app.program);
    let optimized = optimizer.rewrite_of(&app.program, &generator.layout_options(), &plans);
    assert!(
        !optimized.program.all_prefetch_ops().is_empty(),
        "the rewrite injected no prefetch ops"
    );
    assert_batching_invisible(
        "kafka-twig",
        &optimized.program,
        app.config,
        "twig",
        &app.events,
    );
}
