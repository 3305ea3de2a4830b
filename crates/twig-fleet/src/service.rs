//! The continuous-PGO fleet loop.
//!
//! N tenant binaries run under M rotating load phases. Each layout
//! generation, every active tenant profiles its *deployed* binary with a
//! sampled LBR-style profile: one supervised job per tenant
//! ([`run_supervised`]), run on the harness scheduler
//! ([`twig_sched::parallel_map`]) and joined before the generation's
//! control step. The control loop merges
//! the fresh miss plans into the tenant's deployed plan set, rewrites a
//! candidate from the pristine binary, and A/B-judges candidate against
//! deployed with the regression sentinel's thresholds ([`crate::gate`]).
//! Deploys that pass ship and are checkpointed as the tenant's last-good
//! record; anything that regresses rolls back and counts as a faulted
//! generation. A convergence watchdog retires a tenant after
//! `converge_after` consecutive in-noise generations; the fleet stops
//! when every non-quarantined tenant has converged or the generation cap
//! fires.
//!
//! # Determinism
//!
//! The manifest must be byte-identical across `TWIG_NUM_THREADS`
//! settings, so: profile jobs are pure functions of their payload,
//! service faults match by pure predicate (no firing budgets), results
//! come back in submission order, all checkpoint writes happen on the
//! control thread in tenant order, and nothing wall-clock-shaped is
//! recorded.

use std::path::PathBuf;
use std::sync::Arc;

use twig::{MissPlan, TwigConfig, TwigOptimizer};
use twig_bench::CheckpointStore;
use twig_obs::timeseries::{TimeSeriesRing, DEFAULT_TIMELINE_CAPACITY};
use twig_obs::{Hist64, TrackKind};
use twig_profile::Profile;
use twig_sched::fault::FaultSpec;
use twig_sched::{parallel_map, run_supervised, FaultKind, TaskError, TaskPolicy, TaskReport};
use twig_serde::{Deserialize, Serialize};
use twig_sim::{PlainBtb, SimConfig, SimStats, Simulator};
use twig_workload::{
    BlockEvent, InputConfig, LayoutOptions, LoadPhase, MemSource, PhaseSchedule, Program,
    ProgramGenerator, Walker, WorkloadSpec,
};

use crate::gate::{gate_metrics, judge_deploy, GateDecision};
use crate::health::{FaultReason, HealthTracker};
use crate::manifest::{
    FleetManifest, LatencySummary, TenantRecord, TransitionRecord, FLEET_MANIFEST_VERSION,
};

/// One tenant of the fleet: a named binary with its own drift seed.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Unique tenant name (matched by `tenant=` fault selectors).
    pub name: String,
    /// Per-tenant seed: rotates the phase schedule and skews the walker
    /// inputs so tenants sharing a workload spec still profile
    /// differently.
    pub seed: u64,
    /// The tenant's workload.
    pub spec: WorkloadSpec,
}

impl TenantSpec {
    /// A small demonstration fleet (at most 6 tenants) over the tiny
    /// test workload — the fixture the drills and `twig fleet run` use.
    pub fn demo_fleet(count: usize) -> Vec<TenantSpec> {
        const NAMES: [&str; 6] =
            ["svc-alpha", "svc-bravo", "svc-charlie", "svc-delta", "svc-echo", "svc-foxtrot"];
        NAMES
            .iter()
            .take(count.clamp(1, NAMES.len()))
            .enumerate()
            .map(|(i, name)| TenantSpec {
                name: (*name).to_string(),
                seed: 0x5EED_0000 + i as u64 * 0x9E37_79B9,
                spec: WorkloadSpec::tiny_test(),
            })
            .collect()
    }
}

/// Knobs for one fleet run (see `TWIG_FLEET_*` in the README).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Layout-generation cap (`TWIG_FLEET_MAX_GENERATIONS`).
    pub max_generations: u64,
    /// Full-phase profiling budget per generation, instructions.
    pub instructions: u64,
    /// Consecutive in-noise generations before a tenant converges.
    pub converge_after: u32,
    /// Synthetic requests per tenant-generation for the latency digest.
    pub requests_per_generation: u32,
    /// BTB capacity for the simulated frontends (small = pressured).
    pub btb_entries: usize,
    /// p99 request-latency SLO, cycles: the burn-rate gauge divides each
    /// generation's p99 by this target.
    pub slo_p99_cycles: u64,
    /// Consecutive over-SLO generations before the sustained burn counts
    /// as a faulted generation (degrading the tenant).
    pub slo_burn_generations: u32,
    /// Last-good record directory (`None` disables checkpointing; churn
    /// then re-onboards from scratch).
    pub state_dir: Option<PathBuf>,
    /// Injected faults (parsed `TWIG_FAULT_SPEC`).
    pub faults: Arc<FaultSpec>,
}

impl FleetConfig {
    /// Defaults sized for the demo fleet: pressured 64-entry BTB,
    /// 8-generation cap.
    pub fn demo() -> FleetConfig {
        FleetConfig {
            max_generations: 8,
            instructions: 60_000,
            converge_after: 2,
            requests_per_generation: 256,
            btb_entries: 64,
            slo_p99_cycles: 4_000,
            slo_burn_generations: 2,
            state_dir: None,
            faults: Arc::new(FaultSpec::none()),
        }
    }

    /// Wires the typed harness configuration (`TWIG_FLEET_*`) and the
    /// process-wide fault spec into the demo defaults.
    pub fn from_harness(harness: &twig_types::HarnessConfig) -> FleetConfig {
        let faults = match &harness.fault_spec.value {
            Some(raw) => FaultSpec::parse(raw)
                .unwrap_or_else(|e| panic!("malformed TWIG_FAULT_SPEC: {e}")),
            None => FaultSpec::none(),
        };
        FleetConfig {
            max_generations: harness.fleet_max_generations.value,
            faults: Arc::new(faults),
            ..FleetConfig::demo()
        }
    }
}

/// One tenant's profile job for one generation.
struct ProfileJob {
    /// `fleet:<tenant>@g<N>:<phase>`, matched by label fault selectors.
    label: String,
    tenant: String,
    generation: u64,
    deployed: Arc<Program>,
    events: Arc<[BlockEvent]>,
    instructions: u64,
    sim: SimConfig,
}

/// A profile chunk coming back from a job.
struct ProfileChunk {
    profile: Profile,
    stats: SimStats,
    fingerprint: u64,
    events: Arc<[BlockEvent]>,
    instructions: u64,
}

/// The checkpointed last-good record a churned tenant re-onboards from.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
struct LastGood {
    generation: u64,
    plans: Vec<MissPlan>,
}

/// Tracks of the per-tenant generation series (the window axis is the
/// layout generation; window period 1). Gauges carry the generation's
/// raw reading; `fleet.deploys` is cumulative, so its per-window deltas
/// telescope to the tenant's total deploys.
const SERIES_TRACKS: [(&str, TrackKind); 4] = [
    ("fleet.ipc_micros", TrackKind::Gauge),
    ("fleet.latency_p99", TrackKind::Gauge),
    ("fleet.slo_burn_permille", TrackKind::Gauge),
    ("fleet.deploys", TrackKind::Counter),
];

fn new_series() -> TimeSeriesRing {
    let mut ring = TimeSeriesRing::new(DEFAULT_TIMELINE_CAPACITY);
    for (name, kind) in SERIES_TRACKS {
        ring.track(name, kind);
    }
    ring
}

struct TenantState {
    name: String,
    seed: u64,
    sim: SimConfig,
    layout: LayoutOptions,
    schedule: PhaseSchedule,
    pristine: Arc<Program>,
    deployed: Arc<Program>,
    plans: Vec<MissPlan>,
    /// Miss branches whose candidate layouts the gate rolled back; never
    /// re-tried, which is what bounds the generation loop (every branch
    /// ends up deployed or rejected, then only holds remain).
    rejected: std::collections::HashSet<u32>,
    events: Vec<(LoadPhase, Arc<[BlockEvent]>)>,
    health: HealthTracker,
    holds: u32,
    converged: bool,
    generations: u64,
    deployed_generation: u64,
    deploys: u64,
    rollbacks: u64,
    ipc_micros: u64,
    latency: Hist64,
    /// Per-generation series: one window per profiled generation.
    series: TimeSeriesRing,
    /// Consecutive generations whose p99 burned past the SLO.
    slo_burn_streak: u32,
    /// Total generations whose p99 exceeded the SLO.
    slo_breaches: u64,
    /// Most recent generation's burn rate (p99 × 1000 / SLO).
    slo_burn_permille: u64,
}

impl TenantState {
    fn active(&self) -> bool {
        !self.health.is_quarantined() && !self.converged
    }
}

/// Content fingerprint of a profile — recomputed by the control loop to
/// detect bit-rot between collection and aggregation (`corrupt-profile`
/// faults flip the carried copy, not the profile, so the mismatch is
/// what the loop must catch).
fn profile_fingerprint(profile: &Profile) -> u64 {
    use std::hash::Hasher;
    let mut hasher = twig_types::fxhash::FxHasher::default();
    hasher.write_u64(profile.instructions);
    hasher.write_u32(profile.sample_period);
    for (block, count) in profile.miss_histogram() {
        hasher.write_u32(block.raw());
        hasher.write_u64(count);
    }
    hasher.finish()
}

/// Fingerprint of a deployed plan set: the byte-identity witness the
/// chaos drill compares across clean runs.
fn plans_fingerprint(plans: &[MissPlan]) -> u64 {
    use std::hash::Hasher;
    let json = twig_serde_json::to_string(&plans.to_vec()).unwrap_or_default();
    let mut hasher = twig_types::fxhash::FxHasher::default();
    hasher.write(json.as_bytes());
    hasher.finish()
}

fn simulate(program: &Program, sim: SimConfig, events: &[BlockEvent], instructions: u64) -> SimStats {
    let mut simulator = Simulator::new(program, sim, PlainBtb::new(&sim));
    simulator.run(events.iter().copied(), instructions)
}

/// Merges fresh miss plans into the deployed set, keeping existing
/// entries (deployed prefetch sites are never silently dropped),
/// appending plans for newly observed miss branches, and skipping
/// branches the gate has already rejected. Monotone and bounded by the
/// program's branch count, which is what guarantees the generation loop
/// converges.
fn merge_plans(
    deployed: &[MissPlan],
    fresh: &[MissPlan],
    rejected: &std::collections::HashSet<u32>,
) -> Vec<MissPlan> {
    let mut merged = deployed.to_vec();
    for plan in fresh {
        if rejected.contains(&plan.branch_block.raw()) {
            continue;
        }
        if !merged.iter().any(|p| p.branch_block == plan.branch_block) {
            merged.push(plan.clone());
        }
    }
    merged
}

fn events_for(
    state: &mut TenantState,
    phase: LoadPhase,
    full_budget: u64,
) -> (Arc<[BlockEvent]>, u64) {
    let instructions = phase.scaled_budget(full_budget);
    if let Some((_, events)) = state.events.iter().find(|(p, _)| *p == phase) {
        return (Arc::clone(events), instructions);
    }
    // Tenant seed folded into the phase input: tenants sharing a spec
    // still see different request mixes.
    let base = phase.input();
    let input = InputConfig { seed: base.seed ^ state.seed, ..base };
    let events: Arc<[BlockEvent]> =
        Walker::new(state.pristine.as_ref(), input).run_instructions(instructions).into();
    state.events.push((phase, Arc::clone(&events)));
    (events, instructions)
}

/// A fired `latency-spike` clause multiplies every request latency of
/// the matching generation by this factor — far enough past any demo
/// SLO that the burn gauge must read the breach.
const LATENCY_SPIKE_FACTOR: u64 = 64;

/// Synthetic request latencies for one clean generation: path length is
/// a pure hash of `(tenant, generation, request)`, scaled by the
/// deployed binary's measured CPI, so the digest improves exactly when
/// deploys improve IPC and never depends on wall-clock. Returns the
/// generation's own p99 (the SLO burn gauge's input); an injected
/// `latency-spike` inflates every request of the generation.
fn record_latency(
    state: &mut TenantState,
    generation: u64,
    stats: &SimStats,
    requests: u32,
    spike: bool,
) -> u64 {
    use std::hash::Hasher;
    if stats.retired_instructions == 0 {
        return 0;
    }
    let cpi_milli = stats.cycles.saturating_mul(1000) / stats.retired_instructions;
    let factor = if spike { LATENCY_SPIKE_FACTOR } else { 1 };
    let mut window = Hist64::new();
    for request in 0..requests {
        let mut hasher = twig_types::fxhash::FxHasher::default();
        hasher.write(state.name.as_bytes());
        hasher.write_u64(generation);
        hasher.write_u32(request);
        let path_blocks = 64 + (hasher.finish() % 192);
        let latency = (path_blocks * cpi_milli / 1000).max(1).saturating_mul(factor);
        state.latency.record(latency);
        window.record(latency);
    }
    window.percentile(99, 100)
}

fn last_good_key(name: &str) -> String {
    format!("fleet-{name}")
}

/// Persists the tenant's last-good record and scrubs it back. A torn
/// write (injected `disk-full`, or any real corruption) fails the scrub
/// — the CRC layer evicts the record — and the generation is counted as
/// faulted, so persistence failures are detected the generation they
/// happen, never discovered at churn time.
fn persist_last_good(state: &TenantState, store: &CheckpointStore, faults: &FaultSpec) -> bool {
    if !store.is_enabled() {
        return true;
    }
    let record = LastGood {
        generation: state.deployed_generation,
        plans: state.plans.clone(),
    };
    let Ok(payload) = twig_serde_json::to_string(&record) else {
        return false;
    };
    let key = last_good_key(&state.name);
    // The LastGood commit is the fleet's durability boundary: a kill on
    // either side must leave a record the next run re-derives (pre: the
    // previous generation's record still stands; post: the store's
    // atomic rename already landed this one).
    twig_sched::durable::hit("fleet-lastgood-pre");
    store.store_with_faults(&key, payload.as_bytes(), faults);
    twig_sched::durable::hit("fleet-lastgood-post");
    store.load(&key).is_some()
}

/// A churned tenant lost its in-memory generation state and re-onboards
/// from its last-good record (or from the pristine binary when no valid
/// record exists).
fn churn_reonboard(state: &mut TenantState, optimizer: &TwigOptimizer, store: &CheckpointStore) {
    let restored = store
        .load(&last_good_key(&state.name))
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .and_then(|text| twig_serde_json::from_str::<LastGood>(&text).ok());
    match restored {
        Some(record) => {
            let rebuilt = optimizer.rewrite_of(&state.pristine, &state.layout, &record.plans);
            state.deployed = Arc::new(rebuilt.program);
            state.plans = record.plans;
            state.deployed_generation = record.generation;
        }
        None => {
            state.deployed = Arc::clone(&state.pristine);
            state.plans.clear();
            state.deployed_generation = 0;
        }
    }
}

/// Runs the continuous-PGO loop over `tenants` and returns the
/// deterministic, thread-count-invariant manifest.
///
/// # Errors
///
/// Returns a message for duplicate tenant names or an invalid workload
/// spec.
pub fn run_fleet(tenants: &[TenantSpec], config: &FleetConfig) -> Result<FleetManifest, String> {
    if tenants.is_empty() {
        return Err("fleet needs at least one tenant".to_string());
    }
    for (i, a) in tenants.iter().enumerate() {
        for b in &tenants[i + 1..] {
            if a.name == b.name {
                return Err(format!("duplicate tenant name {:?}", a.name));
            }
        }
    }

    let optimizer = TwigOptimizer::new(TwigConfig::default());
    let store = match &config.state_dir {
        // Cold open: last-good records are per-run state (churn within a
        // run re-onboards from them; a fresh run must not see a prior
        // run's records or clean reruns would not be byte-identical).
        Some(dir) => CheckpointStore::open(dir, false),
        None => CheckpointStore::disabled(),
    };

    let mut states: Vec<TenantState> = tenants
        .iter()
        .map(|tenant| {
            tenant.spec.validate().map_err(|e| format!("tenant {}: {e}", tenant.name))?;
            let generator = ProgramGenerator::new(tenant.spec.clone());
            let pristine = Arc::new(generator.generate());
            Ok(TenantState {
                name: tenant.name.clone(),
                seed: tenant.seed,
                sim: SimConfig::paper_baseline(tenant.spec.backend_extra_cpki)
                    .with_btb_entries(config.btb_entries),
                layout: generator.layout_options(),
                schedule: PhaseSchedule::diurnal(tenant.seed),
                deployed: Arc::clone(&pristine),
                pristine,
                plans: Vec::new(),
                rejected: std::collections::HashSet::new(),
                events: Vec::new(),
                health: HealthTracker::new(),
                holds: 0,
                converged: false,
                generations: 0,
                deployed_generation: 0,
                deploys: 0,
                rollbacks: 0,
                ipc_micros: 0,
                latency: Hist64::new(),
                series: new_series(),
                slo_burn_streak: 0,
                slo_breaches: 0,
                slo_burn_permille: 0,
            })
        })
        .collect::<Result<_, String>>()?;

    let policy = TaskPolicy { attempts: 2, backoff_ms: 1, timeout_ms: None };
    // Fleet-lifetime submission counter: the task index `task=N` fault
    // selectors match.
    let mut submissions = 0usize;
    let mut generations_run = 0u64;
    for generation in 0..config.max_generations {
        if !states.iter().any(TenantState::active) {
            break;
        }
        generations_run += 1;

        let mut submitted: Vec<usize> = Vec::new();
        let mut jobs: Vec<(usize, ProfileJob)> = Vec::new();
        for (i, state) in states.iter_mut().enumerate() {
            if !state.active() {
                continue;
            }
            state.generations += 1;
            if config.faults.fires_service(FaultKind::TenantChurn, &state.name, generation) {
                churn_reonboard(state, &optimizer, &store);
                state.holds = 0;
                state.health.on_fault(generation, FaultReason::TenantChurn);
                continue;
            }
            let phase = state.schedule.phase_at(generation);
            let (events, instructions) = events_for(state, phase, config.instructions);
            jobs.push((
                submissions,
                ProfileJob {
                    label: format!("fleet:{}@g{}:{}", state.name, generation, phase.name()),
                    tenant: state.name.clone(),
                    generation,
                    deployed: Arc::clone(&state.deployed),
                    events,
                    instructions,
                    sim: state.sim,
                },
            ));
            submissions += 1;
            submitted.push(i);
        }

        let reports = parallel_map(jobs, |(index, job)| {
            run_supervised(&job.label, index, &policy, |_token| {
                collect_chunk(&job, &config.faults, &optimizer)
            })
        });
        for (i, report) in submitted.iter().zip(reports) {
            process_report(&mut states[*i], report, generation, config, &optimizer, &store);
        }
    }

    states.sort_by(|a, b| a.name.cmp(&b.name));
    let active_exists = states.iter().any(|s| !s.health.is_quarantined());
    let converged = active_exists
        && states.iter().all(|s| s.health.is_quarantined() || s.converged);
    let tenants = states
        .iter()
        .map(|state| TenantRecord {
            name: state.name.clone(),
            health: state.health.state().as_str().to_string(),
            reason: state.health.last_reason().to_string(),
            converged: state.converged,
            generations: state.generations,
            deployed_generation: state.deployed_generation,
            deploys: state.deploys,
            rollbacks: state.rollbacks,
            faults_seen: state.health.faults_seen(),
            ipc_micros: state.ipc_micros,
            layout_fingerprint: plans_fingerprint(&state.plans),
            latency: LatencySummary {
                p50: state.latency.percentile(50, 100),
                p99: state.latency.percentile(99, 100),
                p999: state.latency.percentile(999, 1000),
            },
            slo_breaches: state.slo_breaches,
            slo_burn_permille: state.slo_burn_permille,
            series: state.series.snapshot(1),
            transitions: state
                .health
                .transitions()
                .iter()
                .map(|t| TransitionRecord {
                    generation: t.generation,
                    from: t.from.as_str().to_string(),
                    to: t.to.as_str().to_string(),
                    reason: t.reason.clone(),
                })
                .collect(),
        })
        .collect();

    Ok(FleetManifest {
        version: FLEET_MANIFEST_VERSION,
        generations_run,
        converged,
        tenants,
    })
}

/// One profile job's body: a stalled stream yields no chunk; otherwise
/// the deployed binary is profiled over the phase's events and the chunk
/// carries a fingerprint a `corrupt-profile` fault flips.
fn collect_chunk(
    job: &ProfileJob,
    faults: &FaultSpec,
    optimizer: &TwigOptimizer,
) -> Result<ProfileChunk, TaskError> {
    if faults.fires_service(FaultKind::StallStream, &job.tenant, job.generation) {
        return Err(TaskError::Domain {
            kind: "stall-stream".to_string(),
            detail: format!(
                "profile stream for {} produced no samples at generation {}",
                job.tenant, job.generation
            ),
        });
    }
    // The sampled stream arrives as a shared slice; feeding it through a
    // `MemSource` keeps the job on the same source-based path the
    // out-of-core readers use.
    let (profile, stats) = optimizer.collect_profile_and_stats_from_source(
        &job.deployed,
        job.sim,
        &mut MemSource::new(Arc::clone(&job.events)),
        job.instructions,
    );
    let mut fingerprint = profile_fingerprint(&profile);
    if faults.fires_service(FaultKind::CorruptProfile, &job.tenant, job.generation) {
        fingerprint ^= 0xBAD5_EED5_BAD5_EED5;
    }
    Ok(ProfileChunk {
        profile,
        stats,
        fingerprint,
        events: Arc::clone(&job.events),
        instructions: job.instructions,
    })
}

fn process_report(
    state: &mut TenantState,
    report: TaskReport<ProfileChunk>,
    generation: u64,
    config: &FleetConfig,
    optimizer: &TwigOptimizer,
    store: &CheckpointStore,
) {
    let mut fault: Option<FaultReason> = None;
    match report.result {
        Err(_) => {
            // Stalled, panicked, or timed out: either way no usable
            // profile arrived this generation.
            fault = Some(FaultReason::StallStream);
        }
        Ok(chunk) => {
            if profile_fingerprint(&chunk.profile) != chunk.fingerprint {
                fault = Some(FaultReason::CorruptProfile);
            } else {
                let spike = config.faults.fires_service(
                    FaultKind::LatencySpike,
                    &state.name,
                    generation,
                );
                let gen_p99 = record_latency(
                    state,
                    generation,
                    &chunk.stats,
                    config.requests_per_generation,
                    spike,
                );
                state.ipc_micros = (chunk.stats.ipc() * 1e6).round() as u64;
                state.slo_burn_permille =
                    gen_p99.saturating_mul(1000) / config.slo_p99_cycles.max(1);
                if state.slo_burn_permille > 1000 {
                    state.slo_breaches += 1;
                    state.slo_burn_streak += 1;
                } else {
                    state.slo_burn_streak = 0;
                }
                let fresh = optimizer.analyze_for(&chunk.profile, &state.pristine);
                let merged = merge_plans(&state.plans, &fresh, &state.rejected);
                if merged.len() > state.plans.len() {
                    let candidate = optimizer.rewrite_of(&state.pristine, &state.layout, &merged);
                    let candidate_stats = simulate(
                        &candidate.program,
                        state.sim,
                        &chunk.events,
                        chunk.instructions,
                    );
                    match judge_deploy(
                        &gate_metrics(&chunk.stats),
                        &gate_metrics(&candidate_stats),
                    ) {
                        GateDecision::Deploy => {
                            state.deployed = Arc::new(candidate.program);
                            state.plans = merged;
                            state.deployed_generation = generation;
                            state.deploys += 1;
                            state.holds = 0;
                        }
                        GateDecision::Hold => state.holds += 1,
                        GateDecision::Rollback => {
                            // The gate doing its job is not a fault: the
                            // deployed layout was revalidated as better,
                            // which counts as an in-noise generation. The
                            // novel branches are blacklisted so the same
                            // losing candidate is never rebuilt.
                            for plan in &merged[state.plans.len()..] {
                                state.rejected.insert(plan.branch_block.raw());
                            }
                            state.rollbacks += 1;
                            state.holds += 1;
                        }
                    }
                } else {
                    state.holds += 1;
                }
                if fault.is_none() && !persist_last_good(state, store, &config.faults) {
                    fault = Some(FaultReason::DiskFull);
                }
                // One window per profiled generation (the series' window
                // axis is the generation number), pushed after the gate
                // so `fleet.deploys` reflects this generation's outcome.
                state.series.push_window(
                    generation,
                    generation,
                    &[
                        state.ipc_micros,
                        gen_p99,
                        state.slo_burn_permille,
                        state.deploys,
                    ],
                );
                // A sustained burn is an SLO fault for this generation
                // (unless something harder already claimed it).
                if fault.is_none() && state.slo_burn_streak >= config.slo_burn_generations {
                    fault = Some(FaultReason::SloBurn);
                }
            }
        }
    }
    match fault {
        Some(reason) => {
            state.holds = 0;
            state.health.on_fault(generation, reason);
        }
        None => {
            state.health.on_clean(generation);
            if state.holds >= config.converge_after {
                state.converged = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_monotone_and_keeps_deployed_sites() {
        let plan = |raw: u32| MissPlan {
            branch_block: twig_types::BlockId::new(raw),
            total_samples: u64::from(raw),
            sites: Vec::new(),
        };
        let deployed = vec![plan(1), plan(2)];
        let rejected: std::collections::HashSet<u32> = [4].into_iter().collect();
        let merged = merge_plans(&deployed, &[plan(2), plan(3), plan(4)], &rejected);
        let blocks: Vec<u32> = merged.iter().map(|p| p.branch_block.raw()).collect();
        assert_eq!(blocks, [1, 2, 3], "rejected branch 4 must never come back");
        let again = merge_plans(&merged, &[plan(3), plan(1)], &rejected);
        assert_eq!(again.len(), 3, "remerge must be a no-op");
    }

    #[test]
    fn fingerprints_are_content_sensitive() {
        let mut a = Profile::new(8, 1);
        a.instructions = 1000;
        let mut b = Profile::new(8, 1);
        b.instructions = 1001;
        assert_ne!(profile_fingerprint(&a), profile_fingerprint(&b));
        assert_eq!(profile_fingerprint(&a), profile_fingerprint(&a));
    }

    #[test]
    fn duplicate_tenant_names_are_rejected() {
        let mut tenants = TenantSpec::demo_fleet(2);
        tenants[1].name = tenants[0].name.clone();
        let err = run_fleet(&tenants, &FleetConfig::demo()).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
