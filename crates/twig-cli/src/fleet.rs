//! `twig fleet` — drive the continuous-PGO fleet service and report on
//! its manifest.
//!
//! `fleet run` executes the demo fleet under the typed harness
//! configuration (`TWIG_FLEET_MAX_GENERATIONS`, `TWIG_FAULT_SPEC`) and
//! writes the deterministic `fleet_manifest.json`. `fleet report`
//! renders a manifest as a per-tenant health table.

use std::sync::Arc;

use twig_fleet::{run_fleet, FleetConfig, FleetManifest, TenantSpec};
use twig_sched::FaultSpec;

use crate::error::CliError;
use crate::io::Args;

/// Dispatches `twig fleet <run|report> ...`.
pub fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&Args::new(&args[1..])),
        Some("report") => cmd_report(&args[1..]),
        _ => Err(CliError::Usage(
            "usage: twig fleet run [--out DIR] [--tenants N] [--faults SPEC] \
             | twig fleet report MANIFEST.json"
                .into(),
        )),
    }
}

fn cmd_run(args: &Args<'_>) -> Result<(), CliError> {
    let out_dir = args.flag("out").unwrap_or("results");
    let tenants: usize = args.parse_or("tenants", 3)?;
    let mut config = FleetConfig::from_harness(twig_types::HarnessConfig::global());
    if let Some(spec) = args.flag("faults") {
        let parsed = FaultSpec::parse(spec)
            .map_err(|e| CliError::Invalid(format!("bad --faults spec: {e}")))?;
        config.faults = Arc::new(parsed);
    }
    if let Some(dir) = args.flag("state-dir") {
        config.state_dir = Some(dir.into());
    }

    // One fleet run per output directory; a killed run's lock is stolen,
    // a live one is a typed refusal (exit 6).
    let _run_lock = match twig_sched::RunLock::acquire(std::path::Path::new(out_dir)) {
        Ok(lock) => lock,
        Err(twig_sched::LockError::Held { path, pid }) => {
            return Err(CliError::Locked {
                path: path.display().to_string(),
                pid,
            });
        }
        Err(twig_sched::LockError::Io(e)) => return Err(CliError::io("lock", out_dir, e)),
    };
    // Heal crash residue a killed predecessor left in the output
    // directory before this run publishes over it.
    for healed in twig_sched::recover_dir(std::path::Path::new(out_dir)) {
        eprintln!("recovered crash residue: {healed}");
    }

    let manifest = run_fleet(&TenantSpec::demo_fleet(tenants), &config)
        .map_err(CliError::Invalid)?;

    let path = format!("{out_dir}/fleet_manifest.json");
    let json = manifest
        .to_json()
        .map_err(|e| CliError::Invalid(format!("serialize manifest: {e}")))?;
    twig_sched::publish_atomic(
        std::path::Path::new(&path),
        json.as_bytes(),
        Some("fleet-manifest-tmp"),
        Some("fleet-manifest-published"),
    )
    .map_err(|e| CliError::io("write", &path, e))?;

    println!(
        "fleet: {} tenant(s), {} generation(s), converged={}",
        manifest.tenants.len(),
        manifest.generations_run,
        manifest.converged
    );
    println!("manifest written to {path}");
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::Usage("usage: twig fleet report MANIFEST.json".into()));
    };
    let text = std::fs::read_to_string(path).map_err(|e| CliError::io("read", path, e))?;
    let manifest = FleetManifest::from_json(&text).map_err(|e| CliError::Decode {
        path: path.to_string(),
        source: e.into(),
    })?;

    println!(
        "fleet manifest v{}: {} generation(s), converged={}",
        manifest.version, manifest.generations_run, manifest.converged
    );
    println!(
        "{:<12} {:<12} {:<16} {:>4} {:>8} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "tenant", "health", "reason", "conv", "deploys", "rollbacks", "faults", "ipc",
        "lat_p50", "lat_p99", "lat_p999", "burn", "breach"
    );
    for t in &manifest.tenants {
        println!(
            "{:<12} {:<12} {:<16} {:>4} {:>8} {:>9} {:>7} {:>8.4} {:>8} {:>8} {:>8} {:>8} {:>6}",
            t.name,
            t.health,
            t.reason,
            if t.converged { "yes" } else { "no" },
            t.deploys,
            t.rollbacks,
            t.faults_seen,
            t.ipc_micros as f64 / 1e6,
            t.latency.p50,
            t.latency.p99,
            t.latency.p999,
            // Burn rate in permille of the SLO budget (>1000 = burning).
            t.slo_burn_permille,
            t.slo_breaches
        );
    }
    for t in &manifest.tenants {
        for tr in &t.transitions {
            println!(
                "  {:<12} g{:<3} {} -> {} ({})",
                t.name, tr.generation, tr.from, tr.to, tr.reason
            );
        }
    }
    Ok(())
}
