//! Subcommand implementations.

use twig::{TwigConfig, TwigOptimizer};
use twig_profile::LbrRecorder;
use twig_sim::{BtbSystem, PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{
    AppId, InputConfig, Program, ProgramGenerator, Walker, WorkloadSpec,
};

use crate::error::CliError;
use crate::io::{read_json, read_profile, open_trace_source, write_json, write_profile, write_trace_file, Args};

const USAGE: &str = "\
twig — profile-guided BTB prefetching toolkit (MICRO'21 reproduction)

usage: twig <command> [flags]

commands:
  apps                                   list the nine built-in applications
  spec      --app NAME --out SPEC.json   export a workload spec for editing
  trace     --spec SPEC.json --out T.twgt|T.twgc [--input N] [--instructions N]
                                         record a control-flow trace (.twgc =
                                         columnar, streamed to disk unbuffered)
  profile   --spec SPEC.json --out P.json|P.twpf [--input N]
            [--instructions N] [--period N]
                                         collect an LBR-style BTB-miss profile
                                         (.twpf = compact binary format)
  analyze   --spec SPEC.json --profile P.json --out PLANS.json
                                         select prefetch injection sites
  simulate  --spec SPEC.json [--system NAME] [--plans PLANS.json]
            [--trace T.twgt|T.twgc] [--skip-events N] [--input N]
            [--instructions N] [--json]
            [--obs off|counters|trace[=N]] [--obs-attr off|on|k=N,sample=N]
            [--metrics-out M.json] [--trace-out T.json]
            [--attr-out A.attr.json] [--folded-out F.folded.txt]
                                         run the frontend simulator
  optimize  --spec SPEC.json [--train N] [--test N] [--instructions N] [--json]
                                         full profile->rewrite->evaluate flow
  report    [--top N] [--timeline] [--json]
            SNAPSHOT.json|PROFILE.attr.json|CELL.timeline.json ...
                                         per-cell frontend-bottleneck report
                                         (deterministic; sorted by cell);
                                         --timeline renders windowed exports
                                         as sparklines + phase tables and
                                         --json emits the schema-validated
                                         digest (docs/schema/report-v1.json)
  metrics   diff A.json B.json           semantic diff of two metrics exports
                                         (exit 1 when they differ)
  metrics   timeline diff A.json B.json  per-window semantic diff of two
                                         timeline exports (exit 1 on differ)
  metrics   validate DOC.json SCHEMA.json
                                         check an exported metrics/trace JSON
                                         against a schema
  metrics   regress --baseline DIR CURRENT_DIR [--trajectory FILE]
                                         judge fresh snapshots against
                                         checked-in baselines (exit 1 on any
                                         regression)
  fleet     run [--out DIR] [--tenants N] [--faults SPEC] [--state-dir DIR]
                                         run the continuous-PGO fleet service
                                         (TWIG_FLEET_*, TWIG_FAULT_SPEC) and
                                         write DIR/fleet_manifest.json
  fleet     report MANIFEST.json         per-tenant health/deploy/latency
                                         table from a fleet manifest
  bench     budget BENCH_RESULTS.json --budget BUDGET.json [--slack X]
                                         check per-figure wall-clock against
                                         a checked-in timing budget (exit 1
                                         when any figure overshoots
                                         budget x slack)

systems: twig (default; aliases plain/baseline, or ideal for a perfect
         BTB), shotgun, confluence, phantom, btbx, bulk, stream
         (legacy spellings btb-x, phantom-btb, two-level-bulk still work)

observability: --obs selects the recording tier for this run and
         --obs-attr the per-branch cycle attribution profiler (each beats
         its TWIG_OBS/TWIG_OBS_ATTR environment variable);
         --metrics-out/--trace-out/--attr-out/--folded-out write the
         snapshot, chrome://tracing, attribution, and folded-stack
         exports after the run
";

/// Dispatches a parsed command line.
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return Ok(());
    };
    let rest = Args::new(&args[1..]);
    match command.as_str() {
        "apps" => cmd_apps(),
        "spec" => cmd_spec(&rest),
        "trace" => cmd_trace(&rest),
        "profile" => cmd_profile(&rest),
        "analyze" => cmd_analyze(&rest),
        "simulate" => cmd_simulate(&rest),
        "optimize" => cmd_optimize(&rest),
        "report" => crate::report::cmd_report(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "fleet" => crate::fleet::cmd_fleet(&args[1..]),
        "help" | "--help" | "-h" => {
            eprint!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}; try `twig help`"))),
    }
}

fn cmd_apps() -> Result<(), CliError> {
    println!("{:<16} {:>10} {:>12} {:>10}", "app", "functions", "footprint", "handlers");
    for app in AppId::ALL {
        let spec = WorkloadSpec::preset(app);
        println!(
            "{:<16} {:>10} {:>9.1} MB {:>10}",
            spec.name,
            spec.app_funcs + spec.lib_funcs,
            spec.estimated_footprint_bytes() as f64 / (1 << 20) as f64,
            spec.handlers
        );
    }
    Ok(())
}

fn load_spec(args: &Args<'_>) -> Result<WorkloadSpec, CliError> {
    let path = args.require("spec")?;
    let spec: WorkloadSpec = read_json(path)?;
    spec.validate().map_err(|e| CliError::Invalid(format!("invalid spec: {e}")))?;
    Ok(spec)
}

fn cmd_spec(args: &Args<'_>) -> Result<(), CliError> {
    let name = args.require("app")?;
    let app = AppId::ALL
        .iter()
        .copied()
        .find(|a| a.name() == name)
        .ok_or_else(|| CliError::Invalid(format!("unknown app {name:?}; see `twig apps`")))?;
    let out = args.require("out")?;
    write_json(out, &WorkloadSpec::preset(app))?;
    eprintln!("wrote {out}");
    Ok(())
}

fn cmd_trace(args: &Args<'_>) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    let out = args.require("out")?;
    let input: u32 = args.parse_or("input", 0)?;
    let instructions: u64 = args.parse_or("instructions", 1_000_000)?;
    let program = ProgramGenerator::new(spec).generate();
    let count = if out.ends_with(".twgc") {
        // Columnar output streams the walk straight to disk, one chunk
        // at a time — arbitrarily long traces never materialize.
        let source = twig_workload::WalkerSource::new(
            std::sync::Arc::new(program),
            InputConfig::numbered(input),
            instructions,
        );
        twig_workload::write_columnar_file(std::path::Path::new(out), source)
            .map_err(|e| CliError::io("write", out, e))?
    } else {
        let events =
            Walker::new(&program, InputConfig::numbered(input)).run_instructions(instructions);
        write_trace_file(out, &events)?;
        events.len() as u64
    };
    eprintln!("wrote {out}: {count} events ({instructions} instructions)");
    Ok(())
}

fn cmd_profile(args: &Args<'_>) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    let out = args.require("out")?;
    let input: u32 = args.parse_or("input", 0)?;
    let instructions: u64 = args.parse_or("instructions", 1_000_000)?;
    let period: u32 = args.parse_or("period", 1)?;
    let program = ProgramGenerator::new(spec.clone()).generate();
    let config = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let events =
        Walker::new(&program, InputConfig::numbered(input)).run_instructions(instructions);
    let mut recorder = LbrRecorder::new(&program, period);
    recorder.observe_events(&program, events.iter().copied());
    let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
    sim.run_observed(events, instructions, &mut recorder);
    let profile = recorder.into_profile();
    eprintln!(
        "{} miss samples over {} distinct branches",
        profile.num_samples(),
        profile.miss_histogram().len()
    );
    write_profile(out, &profile)?;
    eprintln!("wrote {out}");
    Ok(())
}

fn cmd_analyze(args: &Args<'_>) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    let profile: twig_profile::Profile = read_profile(args.require("profile")?)?;
    let out = args.require("out")?;
    let program = ProgramGenerator::new(spec).generate();
    let optimizer = TwigOptimizer::new(twig_config(args)?);
    let plans = optimizer.analyze_for(&profile, &program);
    let covered: u64 = plans.iter().map(|p| p.covered_samples()).sum();
    eprintln!(
        "{} plans covering {covered} of {} samples",
        plans.len(),
        profile.num_samples()
    );
    write_json(out, &plans)?;
    eprintln!("wrote {out}");
    Ok(())
}

fn twig_config(args: &Args<'_>) -> Result<TwigConfig, CliError> {
    let mut config = TwigConfig::default();
    config.prefetch_distance = args.parse_or("prefetch-distance", config.prefetch_distance)?;
    config.coalesce_bitmask_bits =
        args.parse_or("bitmask-bits", config.coalesce_bitmask_bits)?;
    if args.has("no-coalesce") {
        config.enable_coalescing = false;
    }
    config.validate().map_err(CliError::Invalid)?;
    Ok(config)
}

fn build_system(name: &str, config: &SimConfig) -> Result<Box<dyn BtbSystem>, CliError> {
    twig_prefetchers::by_name(name, config).map_err(|e| CliError::Invalid(e.to_string()))
}

fn print_stats(stats: &SimStats, json: bool) -> Result<(), CliError> {
    if json {
        println!(
            "{}",
            twig_serde_json::to_string_pretty(stats).map_err(|e| CliError::decode("stdout", e))?
        );
    } else {
        println!("IPC               {:.4}", stats.ipc());
        println!("cycles            {}", stats.cycles);
        println!("instructions      {}", stats.retired_instructions);
        println!("prefetch ops      {}", stats.retired_prefetch_ops);
        println!("BTB MPKI          {:.2}", stats.btb_mpki());
        println!("BTB misses        {}", stats.total_btb_misses());
        println!("covered misses    {}", stats.total_covered_misses());
        println!("decode resteers   {}", stats.decode_resteers);
        println!("exec resteers     {}", stats.exec_resteers);
        println!(
            "frontend-bound    {:.1}%",
            stats.topdown.frontend_fraction() * 100.0
        );
        println!(
            "prefetch accuracy {:.1}%",
            stats.prefetch_accuracy() * 100.0
        );
    }
    Ok(())
}

/// Applies `--plans` to a fresh program copy, if given.
fn maybe_rewrite(
    args: &Args<'_>,
    generator: &ProgramGenerator,
) -> Result<Program, CliError> {
    match args.flag("plans") {
        None => Ok(generator.generate()),
        Some(path) => {
            let plans: Vec<twig::MissPlan> = read_json(path)?;
            let optimizer = TwigOptimizer::new(twig_config(args)?);
            Ok(optimizer.rewrite(generator, &plans).program)
        }
    }
}

fn cmd_simulate(args: &Args<'_>) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    let system_name = args.flag("system").unwrap_or("plain");
    let input: u32 = args.parse_or("input", 0)?;
    let instructions: u64 = args.parse_or("instructions", 1_000_000)?;
    let generator = ProgramGenerator::new(spec.clone());
    let program = maybe_rewrite(args, &generator)?;
    let mut config = SimConfig::paper_baseline(spec.backend_extra_cpki);
    if system_name == "ideal" {
        config.ideal_btb = true;
    }
    // Explicit --obs/--obs-attr beat their TWIG_OBS*/environment
    // variables (which paper_baseline already folded into config.obs via
    // the default).
    if let Some(text) = args.flag("obs") {
        let level = twig_obs::ObsLevel::parse(text)
            .map_err(|e| CliError::Usage(format!("--obs: {e}")))?;
        config.obs = twig_obs::ObsConfig {
            level,
            ..config.obs
        };
    }
    if let Some(text) = args.flag("obs-attr") {
        let attr = twig_obs::AttrConfig::parse(text)
            .map_err(|e| CliError::Usage(format!("--obs-attr: {e}")))?;
        config.obs = config.obs.with_attr(attr);
    }
    let system = build_system(system_name, &config)?;
    let mut sim = Simulator::new(&program, config, system);
    let skip: u64 = args.parse_or("skip-events", 0)?;
    let stats = match args.flag("trace") {
        Some(path) => {
            // `.twgc` traces stream via the mmap'd chunked reader; the
            // chunk directory makes `--skip-events` a macro-block leap
            // over whole chunks instead of a decode-and-discard loop.
            use twig_workload::EventSource;
            let mut source = open_trace_source(path)?;
            if skip > 0 {
                source.skip_events(skip);
            }
            sim.run(source, instructions)
        }
        None => {
            if skip > 0 {
                return Err(CliError::Usage(
                    "--skip-events needs --trace (live walks have no index to skip by)".into(),
                ));
            }
            sim.run(
                Walker::new(&program, InputConfig::numbered(input)),
                instructions,
            )
        }
    };
    if let Some(path) = args.flag("metrics-out") {
        let snapshot = sim.metrics_snapshot().ok_or_else(|| {
            CliError::Invalid(
                "--metrics-out needs a recording tier; pass --obs counters (or trace)".into(),
            )
        })?;
        let json = snapshot.to_json().map_err(|e| CliError::decode(path, e))?;
        crate::io::write_text(path, &json)?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.flag("trace-out") {
        let chrome = sim
            .chrome_trace()
            .map_err(|e| CliError::decode(path, e))?
            .ok_or_else(|| {
                CliError::Invalid("--trace-out needs the trace tier; pass --obs trace[=N]".into())
            })?;
        crate::io::write_text(path, &chrome)?;
        eprintln!("wrote {path}");
    }
    let attr_label = format!("{}/{}", spec.name, system_name);
    if let Some(path) = args.flag("attr-out") {
        let attr = sim.attribution_snapshot().ok_or_else(|| {
            CliError::Invalid("--attr-out needs attribution; pass --obs-attr on".into())
        })?;
        let json = attr.to_json().map_err(|e| CliError::decode(path, e))?;
        crate::io::write_text(path, &json)?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = args.flag("folded-out") {
        let folded = sim.attribution_folded(&attr_label).ok_or_else(|| {
            CliError::Invalid("--folded-out needs attribution; pass --obs-attr on".into())
        })?;
        crate::io::write_text(path, &folded)?;
        eprintln!("wrote {path}");
    }
    print_stats(&stats, args.has("json"))
}

fn read_snapshot(path: &str) -> Result<twig_obs::MetricsSnapshot, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io("read", path, e))?;
    twig_obs::MetricsSnapshot::from_json(&text).map_err(|e| CliError::decode(path, e))
}

fn read_timeline_snapshot(path: &str) -> Result<twig_obs::TimelineSnapshot, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io("read", path, e))?;
    twig_obs::TimelineSnapshot::from_json(&text).map_err(|e| CliError::decode(path, e))
}

fn cmd_metrics(args: &[String]) -> Result<(), CliError> {
    let usage = || {
        CliError::Usage(
            "usage: twig metrics diff A.json B.json | twig metrics timeline diff \
             A.json B.json | twig metrics validate DOC.json SCHEMA.json | \
             twig metrics regress --baseline DIR CURRENT_DIR"
                .into(),
        )
    };
    let sub = args.first().ok_or_else(usage)?;
    match sub.as_str() {
        "timeline" => {
            // Same exit-1-on-differs contract as `metrics diff`, per
            // window and per track instead of per counter.
            if args.get(1).map(String::as_str) != Some("diff") {
                return Err(usage());
            }
            let [a, b] = [args.get(2).ok_or_else(usage)?, args.get(3).ok_or_else(usage)?];
            let before = read_timeline_snapshot(a)?;
            let after = read_timeline_snapshot(b)?;
            let diff = twig_obs::diff_timelines(&before, &after);
            print!("{diff}");
            if diff.is_empty() {
                Ok(())
            } else {
                Err(CliError::Differs(format!(
                    "{} window value(s) differ",
                    diff.values.len()
                )))
            }
        }
        "diff" => {
            let [a, b] = [args.get(1).ok_or_else(usage)?, args.get(2).ok_or_else(usage)?];
            let before = read_snapshot(a)?;
            let after = read_snapshot(b)?;
            let diff = twig_obs::diff_snapshots(&before, &after);
            print!("{diff}");
            if diff.is_empty() {
                Ok(())
            } else {
                Err(CliError::Differs(format!(
                    "{} counter(s) and {} histogram(s) differ",
                    diff.counters.len(),
                    diff.histograms.len()
                )))
            }
        }
        "validate" => {
            let doc_path = args.get(1).ok_or_else(usage)?;
            let schema_path = args.get(2).ok_or_else(usage)?;
            let doc: twig_serde::Value = read_json(doc_path)?;
            let schema: twig_serde::Value = read_json(schema_path)?;
            twig_obs::validate(&doc, &schema).map_err(|e| {
                CliError::Invalid(format!("{doc_path} does not match {schema_path}: {e}"))
            })?;
            eprintln!("{doc_path}: valid against {schema_path}");
            Ok(())
        }
        "regress" => crate::report::cmd_regress(&args[1..]),
        other => Err(CliError::Usage(format!(
            "unknown metrics subcommand {other:?}; expected diff | timeline diff | \
             validate | regress"
        ))),
    }
}

/// One object field by key.
fn field<'v>(value: &'v twig_serde::Value, key: &str) -> Option<&'v twig_serde::Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    let usage = || {
        CliError::Usage(
            "usage: twig bench budget BENCH_RESULTS.json --budget BUDGET.json [--slack X]".into(),
        )
    };
    match args.first().map(String::as_str) {
        Some("budget") => {}
        _ => return Err(usage()),
    }
    let results_path = args.get(1).filter(|a| !a.starts_with("--")).ok_or_else(usage)?;
    let flags = Args::new(&args[2..]);
    let budget_path = flags.require("budget")?;

    let results: twig_serde::Value = read_json(results_path)?;
    let budget: twig_serde::Value = read_json(budget_path)?;
    let slack: f64 = match flags.flag("slack") {
        Some(text) => text
            .parse()
            .map_err(|_| CliError::Usage(format!("--slack {text:?} is not a number")))?,
        None => field(&budget, "slack").and_then(|v| v.as_f64()).unwrap_or(2.0),
    };
    if slack < 1.0 || slack.is_nan() {
        return Err(CliError::Invalid(format!("slack {slack} must be >= 1")));
    }

    // Measured seconds per figure, from the run under judgement.
    let mut measured: Vec<(&str, f64)> = Vec::new();
    for entry in field(&results, "figures")
        .and_then(|v| v.as_array())
        .ok_or_else(|| CliError::Invalid(format!("{results_path}: no figures[] array")))?
    {
        let id = field(entry, "id").and_then(|v| v.as_str());
        let seconds = field(entry, "seconds").and_then(|v| v.as_f64());
        if let (Some(id), Some(seconds)) = (id, seconds) {
            measured.push((id, seconds));
        }
    }

    let budgets = field(&budget, "figures")
        .and_then(|v| v.as_object())
        .ok_or_else(|| CliError::Invalid(format!("{budget_path}: no figures object")))?;
    let mut over = Vec::new();
    for (id, allowed) in budgets {
        let allowed = allowed.as_f64().ok_or_else(|| {
            CliError::Invalid(format!("{budget_path}: budget for {id} is not a number"))
        })?;
        let Some(&(_, seconds)) = measured.iter().find(|(m, _)| m == id) else {
            return Err(CliError::Invalid(format!(
                "{results_path} has no timing for budgeted figure {id}"
            )));
        };
        let limit = allowed * slack;
        let verdict = if seconds > limit { "OVER" } else { "ok" };
        println!("{id:<8} {seconds:>7.2}s  budget {allowed:>6.2}s x{slack} = {limit:>6.2}s  {verdict}");
        if seconds > limit {
            over.push(id.clone());
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(CliError::Differs(format!(
            "{} figure(s) overshot the timing budget: {}",
            over.len(),
            over.join(", ")
        )))
    }
}

fn cmd_optimize(args: &Args<'_>) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    let train: u32 = args.parse_or("train", 0)?;
    let test: u32 = args.parse_or("test", 1)?;
    let instructions: u64 = args.parse_or("instructions", 1_000_000)?;
    let config = SimConfig::paper_baseline(spec.backend_extra_cpki);
    let optimizer = TwigOptimizer::new(twig_config(args)?);
    let report = optimizer
        .run_app(&spec, config, train, &[test], instructions)
        .remove(0);
    if args.has("json") {
        println!(
            "{}",
            twig_serde_json::to_string_pretty(&report).map_err(|e| CliError::decode("stdout", e))?
        );
    } else {
        println!("baseline IPC      {:.4}", report.baseline.ipc());
        println!("twig IPC          {:.4}", report.twig.ipc());
        println!("ideal-BTB IPC     {:.4}", report.ideal.ipc());
        println!("twig speedup      {:+.2}%", report.speedup_percent);
        println!("ideal speedup     {:+.2}%", report.ideal_speedup_percent);
        println!("% of ideal        {:.1}%", report.pct_of_ideal * 100.0);
        println!("miss coverage     {:.1}%", report.coverage * 100.0);
        println!("accuracy          {:.1}%", report.accuracy * 100.0);
        println!("dynamic overhead  {:.2}%", report.dynamic_overhead * 100.0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_flags_and_switches() {
        let raw = strs(&["--spec", "a.json", "--json", "--input", "2"]);
        let args = Args::new(&raw);
        assert_eq!(args.flag("spec"), Some("a.json"));
        assert!(args.has("json"));
        assert_eq!(args.parse_or::<u32>("input", 0).unwrap(), 2);
        assert_eq!(args.parse_or::<u32>("missing", 7).unwrap(), 7);
        assert!(args.require("nope").is_err());
        assert!(args.parse_or::<u32>("spec", 0).is_err());
    }

    #[test]
    fn unknown_command_and_system_error() {
        assert!(dispatch(&strs(&["frobnicate"])).is_err());
        let config = SimConfig::default();
        let err = match build_system("nope", &config) {
            Err(e) => e,
            Ok(_) => panic!("expected an error for an unknown system"),
        };
        assert!(err.to_string().contains("shotgun"), "error lists options: {err}");
        for name in [
            // Canonical registry names.
            "twig",
            "shotgun",
            "confluence",
            "phantom",
            "btbx",
            "bulk",
            "stream",
            // Legacy CLI spellings stay accepted.
            "plain",
            "ideal",
            "btb-x",
            "phantom-btb",
            "two-level-bulk",
        ] {
            assert!(build_system(name, &config).is_ok(), "{name}");
        }
    }

    #[test]
    fn error_categories_map_to_distinct_exit_codes() {
        // Unknown command: usage (2).
        let e = dispatch(&strs(&["frobnicate"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        // Missing required flag: usage (2).
        let e = dispatch(&strs(&["trace"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        // Missing file: I/O (3).
        let e = dispatch(&strs(&["trace", "--spec", "/nonexistent/spec.json", "--out", "/tmp/x"]))
            .unwrap_err();
        assert_eq!(e.exit_code(), 3);
        // Corrupt artifact: decode (4).
        let dir = std::env::temp_dir().join(format!("twig-cli-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, b"{not json").unwrap();
        let e = dispatch(&strs(&[
            "trace",
            "--spec",
            &bad.to_string_lossy(),
            "--out",
            "/tmp/x",
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 4);
        // Semantically invalid: (5).
        let e = dispatch(&strs(&["spec", "--app", "not-an-app", "--out", "/tmp/x"])).unwrap_err();
        assert_eq!(e.exit_code(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_diff_and_validate_subcommands() {
        let dir = std::env::temp_dir().join(format!("twig-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let mut reg = twig_obs::MetricsRegistry::new();
        reg.set_by_name("btb.hits", 10);
        std::fs::write(p("a.json"), reg.snapshot().to_json().unwrap()).unwrap();
        std::fs::write(p("same.json"), reg.snapshot().to_json().unwrap()).unwrap();
        reg.set_by_name("btb.hits", 12);
        std::fs::write(p("b.json"), reg.snapshot().to_json().unwrap()).unwrap();

        // Identical snapshots: clean exit.
        dispatch(&strs(&["metrics", "diff", &p("a.json"), &p("same.json")])).unwrap();
        // Differing snapshots: exit code 1, like diff(1).
        let e = dispatch(&strs(&["metrics", "diff", &p("a.json"), &p("b.json")])).unwrap_err();
        assert_eq!(e.exit_code(), 1);

        // The export validates against a minimal schema; a wrong-shape
        // document does not.
        std::fs::write(
            p("schema.json"),
            r#"{"type": "object", "required": ["version", "counters"],
                "properties": {"version": {"type": "integer"},
                               "counters": {"type": "array"}}}"#,
        )
        .unwrap();
        dispatch(&strs(&["metrics", "validate", &p("a.json"), &p("schema.json")])).unwrap();
        std::fs::write(p("bad.json"), r#"{"version": "one"}"#).unwrap();
        let e = dispatch(&strs(&["metrics", "validate", &p("bad.json"), &p("schema.json")]))
            .unwrap_err();
        assert_eq!(e.exit_code(), 5);

        // Bad sub-usage is a usage error.
        let e = dispatch(&strs(&["metrics", "frobnicate"])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A small sim-track timeline with `n` windows, `step` instructions
    /// and `cycles_per` cycles apiece.
    fn demo_timeline(n: u64, step: u64, cycles_per: u64) -> twig_obs::TimelineSnapshot {
        use twig_obs::timeseries::track_names;
        let mut ring = twig_obs::timeseries::TimeSeriesRing::new(64);
        ring.track(track_names::CYCLES, twig_obs::TrackKind::Counter);
        ring.track(track_names::INSTRUCTIONS, twig_obs::TrackKind::Counter);
        for w in 1..=n {
            ring.push_window(w * step, w * cycles_per, &[w * cycles_per, w * step]);
        }
        ring.snapshot(step)
    }

    #[test]
    fn timeline_report_and_diff_subcommands() {
        let dir = std::env::temp_dir().join(format!("twig-cli-tl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let a = demo_timeline(6, 10_000, 20_000);
        let mut b = demo_timeline(6, 10_000, 20_000);
        b.windows[3].values[0] += 7; // one cycle-delta diverges
        std::fs::write(p("a.timeline.json"), a.to_json().unwrap()).unwrap();
        std::fs::write(p("same.timeline.json"), a.to_json().unwrap()).unwrap();
        std::fs::write(p("b.timeline.json"), b.to_json().unwrap()).unwrap();

        // Identical timelines: clean exit. Diverging ones: exit 1.
        dispatch(&strs(&[
            "metrics", "timeline", "diff",
            &p("a.timeline.json"), &p("same.timeline.json"),
        ]))
        .unwrap();
        let e = dispatch(&strs(&[
            "metrics", "timeline", "diff",
            &p("a.timeline.json"), &p("b.timeline.json"),
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);

        // Rendering a timeline needs the --timeline flag; with it (and
        // with --json) the report succeeds.
        let e = dispatch(&strs(&["report", &p("a.timeline.json")])).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        dispatch(&strs(&["report", "--timeline", &p("a.timeline.json")])).unwrap();
        dispatch(&strs(&[
            "report", "--timeline", "--json",
            &p("a.timeline.json"), &p("b.timeline.json"),
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Satellite: diff coverage for fleet manifests. The per-tenant
    /// generation series embedded in `fleet_manifest.json` is a timeline
    /// (window axis = generation), so `metrics timeline diff` is the
    /// cross-generation diff: a clean seeded run against a latency-spiked
    /// one must flag exactly the spiked generations' gauges, and two
    /// clean runs must diff empty.
    #[test]
    fn fleet_manifest_series_diff_flags_spiked_generations() {
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("twig-cli-fleetdiff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let tenants = twig_fleet::TenantSpec::demo_fleet(2);
        let config = twig_fleet::FleetConfig {
            instructions: 30_000,
            requests_per_generation: 64,
            ..twig_fleet::FleetConfig::demo()
        };
        let mut spiked_config = config.clone();
        spiked_config.faults = Arc::new(
            twig_sched::FaultSpec::parse("latency-spike:tenant=svc-bravo,gen=1").unwrap(),
        );
        let series_of = |manifest: &twig_fleet::FleetManifest, name: &str| {
            manifest
                .tenants
                .iter()
                .find(|t| t.name == name)
                .unwrap()
                .series
                .to_json()
                .unwrap()
        };
        let clean = twig_fleet::run_fleet(&tenants, &config).unwrap();
        let again = twig_fleet::run_fleet(&tenants, &config).unwrap();
        let spiked = twig_fleet::run_fleet(&tenants, &spiked_config).unwrap();
        std::fs::write(p("clean.json"), series_of(&clean, "svc-bravo")).unwrap();
        std::fs::write(p("again.json"), series_of(&again, "svc-bravo")).unwrap();
        std::fs::write(p("spiked.json"), series_of(&spiked, "svc-bravo")).unwrap();

        // Seeded reruns carry identical series: clean diff exit.
        dispatch(&strs(&["metrics", "timeline", "diff", &p("clean.json"), &p("again.json")]))
            .unwrap();
        // The spiked run differs, and only on the spiked generation's
        // latency/burn gauges (the deploy counter and IPC are untouched
        // by a latency spike).
        let e = dispatch(&strs(&[
            "metrics", "timeline", "diff", &p("clean.json"), &p("spiked.json"),
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);
        let before = twig_obs::TimelineSnapshot::from_json(
            &std::fs::read_to_string(p("clean.json")).unwrap(),
        )
        .unwrap();
        let after = twig_obs::TimelineSnapshot::from_json(
            &std::fs::read_to_string(p("spiked.json")).unwrap(),
        )
        .unwrap();
        let diff = twig_obs::diff_timelines(&before, &after);
        assert!(!diff.values.is_empty());
        for v in &diff.values {
            assert_eq!(v.window, 1, "only generation 1 was spiked: {v:?}");
            assert!(
                v.track == "fleet.latency_p99" || v.track == "fleet.slo_burn_permille",
                "unexpected differing track: {v:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_budget_judges_figures_against_slacked_limits() {
        let dir = std::env::temp_dir().join(format!("twig-cli-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

        std::fs::write(
            p("bench.json"),
            r#"{"schema_version": 2, "total_seconds": 9.0,
                "figures": [{"id": "fig16", "seconds": 3.0},
                            {"id": "tab03", "seconds": 6.0}]}"#,
        )
        .unwrap();
        std::fs::write(
            p("budget.json"),
            r#"{"slack": 2.0, "figures": {"fig16": 2.0, "tab03": 4.0}}"#,
        )
        .unwrap();

        // Within budget x slack on both figures: clean exit.
        dispatch(&strs(&["bench", "budget", &p("bench.json"), "--budget", &p("budget.json")]))
            .unwrap();
        // Tightening the slack trips fig16 (3.0 > 2.0 x 1.25) with the
        // diff-style exit code.
        let e = dispatch(&strs(&[
            "bench", "budget", &p("bench.json"),
            "--budget", &p("budget.json"),
            "--slack", "1.25",
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 1);
        assert!(e.to_string().contains("fig16"), "{e}");
        // A budgeted figure missing from the run is an error, not a pass.
        std::fs::write(
            p("sparse.json"),
            r#"{"figures": [{"id": "fig16", "seconds": 3.0}]}"#,
        )
        .unwrap();
        let e = dispatch(&strs(&[
            "bench", "budget", &p("sparse.json"),
            "--budget", &p("budget.json"),
        ]))
        .unwrap_err();
        assert_eq!(e.exit_code(), 5);
        assert!(e.to_string().contains("tab03"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_file_pipeline_roundtrip() {
        let dir = std::env::temp_dir().join(format!("twig-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

        // Export a spec, shrink it for test speed, and run the pipeline.
        let mut spec = WorkloadSpec::tiny_test();
        spec.app_funcs = 200;
        crate::io::write_json(&p("spec.json"), &spec).unwrap();

        dispatch(&strs(&[
            "trace",
            "--spec", &p("spec.json"),
            "--out", &p("t.twgt"),
            "--instructions", "20000",
        ]))
        .unwrap();
        dispatch(&strs(&[
            "profile",
            "--spec", &p("spec.json"),
            "--out", &p("p.twpf"),
            "--instructions", "20000",
        ]))
        .unwrap();
        dispatch(&strs(&[
            "analyze",
            "--spec", &p("spec.json"),
            "--profile", &p("p.twpf"),
            "--out", &p("plans.json"),
        ]))
        .unwrap();
        dispatch(&strs(&[
            "simulate",
            "--spec", &p("spec.json"),
            "--plans", &p("plans.json"),
            "--trace", &p("t.twgt"),
            "--instructions", "20000",
            "--json",
        ]))
        .unwrap();
        dispatch(&strs(&[
            "optimize",
            "--spec", &p("spec.json"),
            "--instructions", "20000",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn columnar_trace_roundtrip_matches_twgt() {
        let dir =
            std::env::temp_dir().join(format!("twig-cli-twgc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = |name: &str| dir.join(name).to_string_lossy().into_owned();

        let mut spec = WorkloadSpec::tiny_test();
        spec.app_funcs = 200;
        crate::io::write_json(&p("spec.json"), &spec).unwrap();

        // Record the same walk in both formats.
        for out in ["t.twgt", "t.twgc"] {
            dispatch(&strs(&[
                "trace",
                "--spec", &p("spec.json"),
                "--out", &p(out),
                "--instructions", "20000",
            ]))
            .unwrap();
        }
        let mut row = crate::io::open_trace_source(&p("t.twgt")).unwrap();
        let mut col = crate::io::open_trace_source(&p("t.twgc")).unwrap();
        let row_events: Vec<_> = (&mut row).collect();
        let col_events: Vec<_> = (&mut col).collect();
        assert_eq!(row_events, col_events, "formats must carry identical events");
        assert!(!row_events.is_empty());

        // Simulating from the columnar trace must work end to end.
        dispatch(&strs(&[
            "simulate",
            "--spec", &p("spec.json"),
            "--trace", &p("t.twgc"),
            "--instructions", "20000",
            "--json",
        ]))
        .unwrap();
        // And the fast-forward flag leaps via the chunk directory.
        dispatch(&strs(&[
            "simulate",
            "--spec", &p("spec.json"),
            "--trace", &p("t.twgc"),
            "--skip-events", "100",
            "--instructions", "20000",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
