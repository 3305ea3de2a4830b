//! Seeded chaos drill for the fleet service (the CI fleet-chaos lane).
//!
//! For every injectable service fault kind the drill runs the demo fleet
//! with that fault pinned to one victim tenant and asserts the supervised
//! loop's contract:
//!
//! 1. the fault is detected within a bounded number of generations
//!    (degraded at the first faulted generation, quarantined at the
//!    second consecutive one);
//! 2. exactly the injected tenant is quarantined, with the typed reason
//!    recorded in the manifest — bystanders stay healthy and converge;
//! 3. a subsequent clean run heals back to convergence with a manifest
//!    byte-identical to the clean reference (layout fingerprints
//!    included).
//!
//! It also pins one-shot degrade-then-heal for a transient fault and the
//! SLO burn path: two consecutive `latency-spike` generations must read as a
//! sustained breach on the per-generation series, degrade the victim with
//! reason `slo-burn`, and heal on clean generations. Exits 0 only when
//! every check passes; any violation prints `FAIL:` and exits 1.
//!
//! The scheduler's thread cap is fixed once per process, so thread-count
//! invariance is checked across processes instead: CI runs `twig-cli
//! fleet run` at `TWIG_NUM_THREADS=1` and `=4` and compares the manifests,
//! as does `crates/twig-cli/tests/fleet_threads.rs`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use twig_fleet::{run_fleet, FleetConfig, FleetManifest, TenantSpec};
use twig_sched::FaultSpec;

const VICTIM: &str = "svc-bravo";
const BYSTANDERS: [&str; 2] = ["svc-alpha", "svc-charlie"];
const SERVICE_FAULTS: [&str; 4] =
    ["stall-stream", "corrupt-profile", "tenant-churn", "disk-full"];

/// Generations within which a persistent fault must quarantine its
/// tenant: one to degrade, one more consecutive to quarantine.
const QUARANTINE_BOUND: u64 = 2;

struct Drill {
    failures: u32,
}

impl Drill {
    fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("  ok: {what}");
        } else {
            eprintln!("FAIL: {what}");
            self.failures += 1;
        }
    }
}

fn drill_config(state_dir: &std::path::Path) -> FleetConfig {
    FleetConfig {
        instructions: 30_000,
        requests_per_generation: 128,
        state_dir: Some(state_dir.to_path_buf()),
        ..FleetConfig::demo()
    }
}

fn run(config: &FleetConfig) -> FleetManifest {
    run_fleet(&TenantSpec::demo_fleet(3), config).unwrap_or_else(|e| {
        eprintln!("FAIL: fleet run errored: {e}");
        std::process::exit(1);
    })
}

fn tenant<'a>(manifest: &'a FleetManifest, name: &str) -> &'a twig_fleet::TenantRecord {
    manifest.tenants.iter().find(|t| t.name == name).unwrap_or_else(|| {
        eprintln!("FAIL: tenant {name} missing from manifest");
        std::process::exit(1);
    })
}

fn main() -> ExitCode {
    let state_dir: PathBuf = std::env::temp_dir()
        .join(format!("twig-fleet-drill-{}", std::process::id()));
    let mut drill = Drill { failures: 0 };

    println!("== clean reference ==");
    let clean_config = drill_config(&state_dir);
    let reference = run(&clean_config);
    let reference_json = reference.to_json().expect("serialize reference manifest");
    drill.check(reference.converged, "clean fleet converges");
    drill.check(
        reference.tenants.iter().all(|t| t.health == "healthy" && t.deploys >= 1),
        "all tenants healthy with at least one deploy",
    );
    drill.check(
        reference.tenants.iter().all(|t| t.latency.p50 <= t.latency.p999),
        "latency digests are ordered (p50 <= p99.9)",
    );

    for kind in SERVICE_FAULTS {
        println!("== chaos: persistent {kind} on {VICTIM} ==");
        let mut config = drill_config(&state_dir);
        config.faults = Arc::new(
            FaultSpec::parse(&format!("{kind}:tenant={VICTIM}")).expect("parse drill spec"),
        );
        let manifest = run(&config);

        let victim = tenant(&manifest, VICTIM);
        drill.check(victim.health == "quarantined", &format!("{kind}: victim quarantined"));
        drill.check(
            victim.reason == kind,
            &format!("{kind}: typed reason recorded (got {:?})", victim.reason),
        );
        let quarantine_gen = victim
            .transitions
            .iter()
            .find(|t| t.to == "quarantined")
            .map_or(u64::MAX, |t| t.generation);
        drill.check(
            quarantine_gen < QUARANTINE_BOUND,
            &format!("{kind}: quarantined within {QUARANTINE_BOUND} generations (at {quarantine_gen})"),
        );
        let quarantined: Vec<&str> = manifest
            .tenants
            .iter()
            .filter(|t| t.health == "quarantined")
            .map(|t| t.name.as_str())
            .collect();
        drill.check(
            quarantined == [VICTIM],
            &format!("{kind}: exactly the injected tenant is quarantined ({quarantined:?})"),
        );
        for name in BYSTANDERS {
            let bystander = tenant(&manifest, name);
            drill.check(
                bystander.health == "healthy" && bystander.converged && bystander.faults_seen == 0,
                &format!("{kind}: bystander {name} unaffected and converged"),
            );
        }

        let healed = run(&clean_config);
        drill.check(
            healed.to_json().expect("serialize") == reference_json,
            &format!("{kind}: clean re-run heals to a byte-identical manifest"),
        );
    }

    println!("== transient fault heals in place ==");
    let mut config = drill_config(&state_dir);
    config.faults = Arc::new(
        FaultSpec::parse(&format!("corrupt-profile:tenant={VICTIM},gen=1")).expect("parse"),
    );
    let manifest = run(&config);
    let victim = tenant(&manifest, VICTIM);
    drill.check(
        victim.health == "healthy" && victim.converged && victim.faults_seen == 1,
        "one corrupted chunk degrades, heals, and still converges",
    );
    drill.check(
        victim.transitions.iter().any(|t| t.reason == "recovered"),
        "heal transition recorded",
    );

    println!("== SLO burn: two spiked generations degrade, then heal ==");
    let mut config = drill_config(&state_dir);
    config.faults = Arc::new(
        FaultSpec::parse(&format!(
            "latency-spike:tenant={VICTIM},gen=1;latency-spike:tenant={VICTIM},gen=2"
        ))
        .expect("parse"),
    );
    let manifest = run(&config);
    let victim = tenant(&manifest, VICTIM);
    drill.check(
        victim.health == "healthy" && victim.converged,
        "sustained burn degrades without quarantining, and heals",
    );
    drill.check(
        victim
            .transitions
            .iter()
            .any(|t| t.to == "degraded" && t.reason == "slo-burn" && t.generation == 2),
        "degraded with reason slo-burn at the second spiked generation",
    );
    drill.check(
        victim.transitions.iter().any(|t| t.reason == "recovered"),
        "burn heal transition recorded",
    );
    drill.check(
        victim.slo_breaches >= 2,
        &format!("both spiked generations counted as breaches ({})", victim.slo_breaches),
    );
    let burn = victim
        .series
        .track_values("fleet.slo_burn_permille")
        .expect("burn track present in series");
    drill.check(
        burn.iter().filter(|&&b| b > 1000).count() >= 2,
        "series records over-budget burn for the spiked generations",
    );
    drill.check(
        !victim.series.windows.is_empty()
            && victim.series.windows.len() == victim.generations as usize,
        "series has one window per profiled generation",
    );
    for name in BYSTANDERS {
        let bystander = tenant(&manifest, name);
        drill.check(
            bystander.slo_breaches == 0 && bystander.health == "healthy",
            &format!("slo-burn: bystander {name} never breached"),
        );
    }
    let healed = run(&clean_config);
    drill.check(
        healed.to_json().expect("serialize") == reference_json,
        "slo-burn: clean re-run heals to a byte-identical manifest",
    );

    let _ = std::fs::remove_dir_all(&state_dir);
    if drill.failures == 0 {
        println!("fleet chaos drill: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("fleet chaos drill: {} check(s) failed", drill.failures);
        ExitCode::FAILURE
    }
}
