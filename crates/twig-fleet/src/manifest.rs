//! The versioned fleet manifest: `results/fleet_manifest.json`.
//!
//! The manifest is the fleet run's deterministic artifact, shaped by the
//! same rules as the metrics exports: a leading schema version, tenants
//! sorted by name, integer-only figures (IPC is stored in micro-IPC so
//! no float formatting can differ across platforms), and **no
//! wall-clock or thread count anywhere** — a run at 1 thread and a
//! run at 4 must produce byte-identical files (CI diffs them). Schema:
//! `docs/schema/fleet-manifest-v2.json`, validated in the chaos lane
//! via `twig metrics validate`.

use twig_obs::TimelineSnapshot;
use twig_serde::{Deserialize, Serialize};

/// Schema version of `fleet_manifest.json`.
///
/// v2 added the per-tenant generation `series` (a windowed
/// [`TimelineSnapshot`], one window per profiled generation) and the SLO
/// burn gauges (`slo_breaches`, `slo_burn_permille`).
pub const FLEET_MANIFEST_VERSION: u32 = 2;

/// Request-latency digest for one tenant (cycles, from the per-tenant
/// `Hist64` — p99.9 is the tail the fleet service is judged on).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median request latency, cycles.
    pub p50: u64,
    /// 99th-percentile request latency, cycles.
    pub p99: u64,
    /// 99.9th-percentile request latency, cycles.
    pub p999: u64,
}

/// One recorded health transition (see `health::Transition`).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TransitionRecord {
    /// Generation the transition happened at.
    pub generation: u64,
    /// State before (`healthy` / `degraded` / `quarantined`).
    pub from: String,
    /// State after.
    pub to: String,
    /// Typed reason: a fault kind name or `recovered`.
    pub reason: String,
}

/// One tenant's final record.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct TenantRecord {
    /// Tenant name (unique within the fleet).
    pub name: String,
    /// Final health state.
    pub health: String,
    /// Most recent typed fault reason (`none` if never faulted).
    pub reason: String,
    /// Whether the convergence watchdog fired for this tenant.
    pub converged: bool,
    /// Generations this tenant participated in.
    pub generations: u64,
    /// Generation of the last successful deploy (0 if none ever shipped).
    pub deployed_generation: u64,
    /// Layout deploys that passed the A/B gate.
    pub deploys: u64,
    /// Candidates rejected by the gate.
    pub rollbacks: u64,
    /// Faulted generations observed.
    pub faults_seen: u64,
    /// Deployed-layout IPC in micro-IPC (IPC × 1 000 000, rounded).
    pub ipc_micros: u64,
    /// Fingerprint of the deployed plan set (byte-identity witness).
    pub layout_fingerprint: u64,
    /// Request-latency digest.
    pub latency: LatencySummary,
    /// Generations whose own p99 exceeded the SLO target.
    pub slo_breaches: u64,
    /// Last profiled generation's burn rate: p99 × 1000 / SLO target
    /// (values over 1000 mean the budget was burning).
    pub slo_burn_permille: u64,
    /// Per-generation series (window axis = generation, window period
    /// 1): IPC, p99, burn-rate gauges plus the cumulative-deploy counter.
    pub series: TimelineSnapshot,
    /// Full health history.
    pub transitions: Vec<TransitionRecord>,
}

/// The `fleet_manifest.json` document.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct FleetManifest {
    /// Schema version ([`FLEET_MANIFEST_VERSION`]).
    pub version: u32,
    /// Generations the fleet loop actually ran.
    pub generations_run: u64,
    /// True when every non-quarantined tenant converged.
    pub converged: bool,
    /// Per-tenant records, sorted by name.
    pub tenants: Vec<TenantRecord>,
}

impl FleetManifest {
    /// Serializes to pretty JSON with a trailing newline (the on-disk
    /// format CI byte-compares).
    ///
    /// # Errors
    ///
    /// Returns the underlying serializer error message.
    pub fn to_json(&self) -> Result<String, String> {
        twig_serde_json::to_string_pretty(self)
            .map(|mut s| {
                s.push('\n');
                s
            })
            .map_err(|e| e.to_string())
    }

    /// Parses a manifest, rejecting unknown schema versions.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a version mismatch.
    pub fn from_json(text: &str) -> Result<FleetManifest, String> {
        let manifest: FleetManifest =
            twig_serde_json::from_str(text).map_err(|e| e.to_string())?;
        if manifest.version != FLEET_MANIFEST_VERSION {
            return Err(format!(
                "unsupported fleet manifest version {} (expected {})",
                manifest.version, FLEET_MANIFEST_VERSION
            ));
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetManifest {
        FleetManifest {
            version: FLEET_MANIFEST_VERSION,
            generations_run: 5,
            converged: true,
            tenants: vec![TenantRecord {
                name: "svc-alpha".into(),
                health: "healthy".into(),
                reason: "none".into(),
                converged: true,
                generations: 5,
                deployed_generation: 1,
                deploys: 2,
                rollbacks: 0,
                faults_seen: 0,
                ipc_micros: 512_345,
                layout_fingerprint: 0xDEAD_BEEF,
                latency: LatencySummary { p50: 220, p99: 512, p999: 760 },
                slo_breaches: 0,
                slo_burn_permille: 128,
                series: TimelineSnapshot::empty(1),
                transitions: vec![TransitionRecord {
                    generation: 2,
                    from: "healthy".into(),
                    to: "degraded".into(),
                    reason: "stall-stream".into(),
                }],
            }],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let manifest = sample();
        let json = manifest.to_json().unwrap();
        assert!(json.ends_with('\n'));
        let back = FleetManifest::from_json(&json).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(back.to_json().unwrap(), json);
    }

    #[test]
    fn rejects_future_versions() {
        let mut manifest = sample();
        manifest.version = 99;
        let json = twig_serde_json::to_string_pretty(&manifest).unwrap();
        let err = FleetManifest::from_json(&json).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
    }
}
