//! Deterministic fault injection, driven by the `TWIG_FAULT_SPEC`
//! environment variable.
//!
//! The harness's fault-tolerance machinery (panic isolation, watchdogs,
//! retry, cache integrity checks) is only trustworthy if it can be
//! exercised on demand; this module provides the lever. A spec is a
//! `;`-separated list of clauses, each `kind[:sel,sel,...]`:
//!
//! ```text
//! panic:task=3                     panic before the 4th task of a batch
//! abort:task=3                     abort the whole process at the 4th task
//! panic:cell=sim:kafka/twig        panic in tasks whose label contains the text
//! delay:app=tomcat,ms=60000        sleep 60s (cooperatively) in matching tasks
//! corrupt-cache:app=kafka,times=1  poison the first matching cache populate
//! stall-stream:tenant=t1           tenant t1's profile stream never arrives
//! corrupt-profile:tenant=t2,gen=1  flip t2's profile fingerprint at generation 1
//! tenant-churn:tenant=t0,gen=2     t0 churns (resets) at generation 2
//! disk-full:label=ckpt             tear matching harness writes mid-record
//! ```
//!
//! Selectors (all present selectors must match):
//!
//! * `task=N`  — the task's index within its batch equals `N`;
//! * `cell=S` / `app=S` / `label=S` / `tenant=S` — the task label (or
//!   tenant name, for service faults) contains `S`;
//! * `gen=N`   — the fleet layout generation equals `N` (service faults
//!   and torn writes only; batch-task matching ignores it);
//! * `ms=N`    — delay duration (only meaningful for `delay`);
//! * `times=N` — fire at most `N` times (default: unlimited for
//!   `panic`/`delay`, once for `corrupt-cache` so the evicted entry can
//!   repopulate cleanly). Service-level kinds ignore `times`: their
//!   firing is a pure predicate of `(tenant, generation)`, which keeps
//!   fleet runs byte-identical across worker counts.
//!
//! Matching is purely a function of the spec and the task's
//! `(label, index)` — or, for the service-level kinds, the tenant's
//! `(name, generation)` — so injected failures land on the same cells on
//! every run; the property the resume tests and fleet chaos drills rely
//! on.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use crate::supervise::CancelToken;

/// The kind of fault a clause injects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic (with a recognizable payload) before the task body runs.
    Panic,
    /// Abort the entire process (no unwinding, no cleanup) before the
    /// task body runs — a deterministic stand-in for `kill -9` on a
    /// matrix worker, which the multi-process sharding tests use to
    /// verify that a dead worker degrades to `FAILED` cells and
    /// `--resume` completes them.
    Abort,
    /// Sleep cooperatively for `ms`, polling the cancellation token.
    Delay,
    /// Corrupt the integrity fingerprint of a matching cache populate.
    CorruptCache,
    /// Service: a tenant's profile stream stalls — no samples arrive for
    /// the matching generation, so the fleet loop must degrade instead
    /// of wedging.
    StallStream,
    /// Service: a tenant's profile arrives bit-rotted — its fingerprint
    /// is flipped before verification, so the loop must detect and
    /// discard it.
    CorruptProfile,
    /// Service: the tenant binary churns (redeploy/restart) — its
    /// in-flight generation is lost and it must re-onboard from its
    /// last-good record.
    TenantChurn,
    /// Tear a matching harness write mid-record (checkpoint, manifest,
    /// metrics export) — the deterministic stand-in for `ENOSPC` or a
    /// crash between `write` and `fsync`.
    DiskFull,
    /// Service: a tenant's request latencies spike for the matching
    /// generation (a noisy neighbor, a GC storm) — the fleet's SLO
    /// burn-rate gauge must catch the sustained breach and degrade the
    /// tenant instead of letting the regression ship silently.
    LatencySpike,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "abort" => Some(FaultKind::Abort),
            "delay" => Some(FaultKind::Delay),
            "corrupt-cache" => Some(FaultKind::CorruptCache),
            "stall-stream" => Some(FaultKind::StallStream),
            "corrupt-profile" => Some(FaultKind::CorruptProfile),
            "tenant-churn" => Some(FaultKind::TenantChurn),
            "disk-full" => Some(FaultKind::DiskFull),
            "latency-spike" => Some(FaultKind::LatencySpike),
            _ => None,
        }
    }
}

/// One parsed clause of a fault spec.
#[derive(Debug)]
pub struct FaultClause {
    /// What to inject.
    pub kind: FaultKind,
    /// Required task index (`task=N`), if any.
    pub task: Option<usize>,
    /// Required fleet generation (`gen=N`), if any.
    pub gen: Option<u64>,
    /// Required label substrings (`cell=`/`app=`/`label=`/`tenant=`).
    pub label_contains: Vec<String>,
    /// Delay duration in milliseconds (`ms=N`).
    pub ms: u64,
    /// Maximum number of firings (`times=N`).
    pub times: u32,
    fired: AtomicU32,
}

impl FaultClause {
    /// True when the clause's selectors match `(label, index)`.
    fn matches(&self, label: &str, index: usize) -> bool {
        if let Some(task) = self.task {
            if task != index {
                return false;
            }
        }
        self.label_contains.iter().all(|s| label.contains(s))
    }

    /// True when the clause's selectors match a fleet tenant at a
    /// generation. A **pure predicate** — no firing budget is consumed —
    /// so the outcome is independent of the order worker threads reach
    /// matching tenants, which keeps fleet manifests byte-identical
    /// across `TWIG_NUM_THREADS` settings.
    fn matches_service(&self, tenant: &str, generation: u64) -> bool {
        if let Some(gen) = self.gen {
            if gen != generation {
                return false;
            }
        }
        self.label_contains.iter().all(|s| tenant.contains(s))
    }

    /// Consumes one firing if the selectors match and the budget allows.
    fn try_fire(&self, label: &str, index: usize) -> bool {
        if !self.matches(label, index) {
            return false;
        }
        let prev = self.fired.fetch_add(1, Ordering::Relaxed);
        if prev >= self.times {
            // Over budget: undo so the counter cannot wrap.
            self.fired.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}

/// A parsed `TWIG_FAULT_SPEC`.
#[derive(Debug, Default)]
pub struct FaultSpec {
    clauses: Vec<FaultClause>,
    /// The raw spec text, echoed into the run manifest.
    pub raw: Option<String>,
}

impl FaultSpec {
    /// Parses a spec string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(raw: &str) -> Result<FaultSpec, String> {
        let mut clauses = Vec::new();
        for part in raw.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind_str, sels) = match part.split_once(':') {
                Some((k, s)) => (k, s),
                None => (part, ""),
            };
            let kind = FaultKind::parse(kind_str.trim())
                .ok_or_else(|| format!("unknown fault kind {kind_str:?} in {part:?}"))?;
            let mut clause = FaultClause {
                kind,
                task: None,
                gen: None,
                label_contains: Vec::new(),
                ms: 0,
                times: if kind == FaultKind::CorruptCache {
                    1
                } else {
                    u32::MAX
                },
                fired: AtomicU32::new(0),
            };
            for sel in sels.split(',') {
                let sel = sel.trim();
                if sel.is_empty() {
                    continue;
                }
                let (key, value) = sel
                    .split_once('=')
                    .ok_or_else(|| format!("selector {sel:?} is not key=value in {part:?}"))?;
                match key.trim() {
                    "task" => {
                        clause.task = Some(
                            value
                                .trim()
                                .parse()
                                .map_err(|_| format!("task index {value:?} is not a number"))?,
                        );
                    }
                    "cell" | "app" | "label" | "tenant" => {
                        clause.label_contains.push(value.trim().to_string());
                    }
                    "gen" => {
                        clause.gen = Some(
                            value
                                .trim()
                                .parse()
                                .map_err(|_| format!("generation {value:?} is not a number"))?,
                        );
                    }
                    "ms" => {
                        clause.ms = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("delay ms {value:?} is not a number"))?;
                    }
                    "times" => {
                        clause.times = value
                            .trim()
                            .parse()
                            .map_err(|_| format!("times {value:?} is not a number"))?;
                    }
                    other => return Err(format!("unknown selector key {other:?} in {part:?}")),
                }
            }
            if kind == FaultKind::Delay && clause.ms == 0 {
                return Err(format!("delay clause {part:?} needs ms=N"));
            }
            clauses.push(clause);
        }
        Ok(FaultSpec {
            clauses,
            raw: Some(raw.to_string()),
        })
    }

    /// An empty spec (injects nothing).
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// True when no clause is present.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Applies `panic`/`delay` clauses matching `(label, index)`.
    ///
    /// Returns `false` when an injected delay was cut short by the
    /// cancellation token — the caller must treat the task as timed out
    /// without running its body. Panics (on purpose) when a `panic` clause
    /// fires; the supervisor's `catch_unwind` turns that into a typed
    /// task failure.
    pub fn apply_task_faults(&self, label: &str, index: usize, token: &CancelToken) -> bool {
        for clause in &self.clauses {
            match clause.kind {
                FaultKind::Panic => {
                    if clause.try_fire(label, index) {
                        panic!("injected panic (fault spec) in task {label:?}");
                    }
                }
                FaultKind::Abort => {
                    if clause.try_fire(label, index) {
                        eprintln!("injected abort (fault spec) in task {label:?}");
                        std::process::abort();
                    }
                }
                FaultKind::Delay => {
                    if clause.try_fire(label, index) {
                        let deadline = std::time::Instant::now()
                            + std::time::Duration::from_millis(clause.ms);
                        while std::time::Instant::now() < deadline {
                            if token.is_cancelled() {
                                return false;
                            }
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                    }
                }
                // Cache poisoning and the service-level kinds have their
                // own injection points (`corrupt_fingerprint`,
                // `fires_service`, `apply_write_fault`).
                FaultKind::CorruptCache
                | FaultKind::StallStream
                | FaultKind::CorruptProfile
                | FaultKind::TenantChurn
                | FaultKind::DiskFull
                | FaultKind::LatencySpike => {}
            }
        }
        !token.is_cancelled()
    }

    /// True when a service-level clause of `kind` matches `tenant` at
    /// `generation`. Purely functional (no firing budget — see
    /// [`FaultClause::matches_service`]), so fleet chaos drills are
    /// deterministic at any thread count.
    pub fn fires_service(&self, kind: FaultKind, tenant: &str, generation: u64) -> bool {
        self.clauses
            .iter()
            .any(|c| c.kind == kind && c.matches_service(tenant, generation))
    }

    /// Applies a matching `disk-full` clause to a serialized record about
    /// to be written under `label`: returns `Some(torn_prefix)` — the
    /// record truncated mid-payload, what a crash between `write` and
    /// `fsync` (or `ENOSPC`) leaves behind — when a clause fires, `None`
    /// otherwise. Unlike the service predicates this *does* consume the
    /// clause's `times` budget, so a single-shot torn write can be
    /// followed by clean retries.
    pub fn apply_write_fault(&self, label: &str, record: &[u8]) -> Option<Vec<u8>> {
        for clause in &self.clauses {
            if clause.kind == FaultKind::DiskFull && clause.try_fire(label, 0) {
                let keep = record.len() / 2;
                return Some(record[..keep].to_vec());
            }
        }
        None
    }

    /// Corrupts `fingerprint` when a `corrupt-cache` clause matches
    /// `label`; identity otherwise. Cache populates run this over their
    /// freshly computed integrity fingerprint, so a fired clause makes the
    /// stored entry fail its next verification — exactly what a torn or
    /// poisoned populate would look like.
    pub fn corrupt_fingerprint(&self, label: &str, fingerprint: u64) -> u64 {
        for clause in &self.clauses {
            if clause.kind == FaultKind::CorruptCache && clause.try_fire(label, 0) {
                return fingerprint ^ 0xDEAD_BEEF_DEAD_BEEF;
            }
        }
        fingerprint
    }
}

/// The process-wide spec parsed from `TWIG_FAULT_SPEC` (empty when the
/// variable is unset). A malformed spec aborts: silently ignoring an
/// operator's injection request would make a fault-tolerance CI job pass
/// vacuously.
pub fn global() -> &'static FaultSpec {
    static SPEC: OnceLock<FaultSpec> = OnceLock::new();
    SPEC.get_or_init(
        || match &twig_types::HarnessConfig::global().fault_spec.value {
            Some(raw) => FaultSpec::parse(raw)
                .unwrap_or_else(|e| panic!("malformed TWIG_FAULT_SPEC: {e}")),
            None => FaultSpec::none(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_issue_example() {
        let spec =
            FaultSpec::parse("panic:task=3;delay:task=7,ms=500;corrupt-cache:app=kafka").unwrap();
        assert_eq!(spec.clauses.len(), 3);
        assert_eq!(spec.clauses[0].kind, FaultKind::Panic);
        assert_eq!(spec.clauses[0].task, Some(3));
        assert_eq!(spec.clauses[1].kind, FaultKind::Delay);
        assert_eq!(spec.clauses[1].ms, 500);
        assert_eq!(spec.clauses[2].kind, FaultKind::CorruptCache);
        assert_eq!(spec.clauses[2].label_contains, vec!["kafka".to_string()]);
        assert_eq!(spec.clauses[2].times, 1, "corrupt-cache defaults to once");
    }

    #[test]
    fn abort_clause_parses_and_matches_like_panic() {
        let spec = FaultSpec::parse("abort:task=5,cell=sim:kafka").unwrap();
        assert_eq!(spec.clauses.len(), 1);
        assert_eq!(spec.clauses[0].kind, FaultKind::Abort);
        assert!(spec.clauses[0].matches("sim:kafka/twig", 5));
        assert!(!spec.clauses[0].matches("sim:kafka/twig", 4));
        // Never call apply_task_faults on a matching label here: a fired
        // abort clause takes the whole test process down by design.
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultSpec::parse("explode:task=1").is_err());
        assert!(FaultSpec::parse("panic:task=abc").is_err());
        assert!(FaultSpec::parse("panic:notakv").is_err());
        assert!(FaultSpec::parse("panic:zzz=1").is_err());
        assert!(FaultSpec::parse("delay:task=1").is_err(), "delay needs ms");
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert!(FaultSpec::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn matching_is_conjunctive_over_selectors() {
        let spec = FaultSpec::parse("panic:task=2,cell=sim:kafka").unwrap();
        let c = &spec.clauses[0];
        assert!(c.matches("sim:kafka/twig", 2));
        assert!(!c.matches("sim:kafka/twig", 3), "wrong index");
        assert!(!c.matches("sim:tomcat/twig", 2), "wrong label");
    }

    #[test]
    fn injected_panic_fires_and_respects_times() {
        let spec = FaultSpec::parse("panic:cell=victim,times=1").unwrap();
        let token = CancelToken::new();
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            spec.apply_task_faults("victim", 0, &token)
        }));
        assert!(hit.is_err(), "first firing panics");
        // Budget exhausted: the same task now passes through.
        assert!(spec.apply_task_faults("victim", 0, &token));
        // Non-matching labels never fire.
        assert!(spec.apply_task_faults("bystander", 0, &token));
    }

    #[test]
    fn delay_is_cut_short_by_cancellation() {
        let spec = FaultSpec::parse("delay:cell=slow,ms=60000").unwrap();
        let token = CancelToken::with_deadline_ms(30);
        let started = std::time::Instant::now();
        let proceed = spec.apply_task_faults("slow", 0, &token);
        assert!(!proceed, "cancelled delay must abort the task");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "delay must not run to its full 60s"
        );
    }

    #[test]
    fn service_kinds_parse_and_match_purely() {
        let spec = FaultSpec::parse(
            "stall-stream:tenant=t1;corrupt-profile:tenant=t2,gen=1;tenant-churn:tenant=t0,gen=2",
        )
        .unwrap();
        // stall-stream: every generation of t1, nobody else.
        assert!(spec.fires_service(FaultKind::StallStream, "t1", 0));
        assert!(spec.fires_service(FaultKind::StallStream, "t1", 7));
        assert!(!spec.fires_service(FaultKind::StallStream, "t2", 0));
        // corrupt-profile: only t2 at gen 1.
        assert!(spec.fires_service(FaultKind::CorruptProfile, "t2", 1));
        assert!(!spec.fires_service(FaultKind::CorruptProfile, "t2", 2));
        assert!(!spec.fires_service(FaultKind::CorruptProfile, "t1", 1));
        // Pure predicate: repeated queries never exhaust a budget.
        for _ in 0..10 {
            assert!(spec.fires_service(FaultKind::TenantChurn, "t0", 2));
        }
        // Wrong kind never matches.
        assert!(!spec.fires_service(FaultKind::DiskFull, "t1", 0));
    }

    #[test]
    fn disk_full_tears_the_record_once_per_budget() {
        let spec = FaultSpec::parse("disk-full:label=ckpt:victim,times=1").unwrap();
        let record = vec![0xABu8; 64];
        let torn = spec.apply_write_fault("ckpt:victim-cell", &record).unwrap();
        assert_eq!(torn.len(), 32, "record truncated mid-payload");
        assert_eq!(&torn[..], &record[..32]);
        // Budget spent: the retry goes through clean.
        assert_eq!(spec.apply_write_fault("ckpt:victim-cell", &record), None);
        // Non-matching labels are never torn.
        let spec = FaultSpec::parse("disk-full:label=ckpt:victim").unwrap();
        assert_eq!(spec.apply_write_fault("ckpt:other", &record), None);
    }

    #[test]
    fn gen_selector_rejects_garbage() {
        assert!(FaultSpec::parse("stall-stream:gen=abc").is_err());
        assert!(FaultSpec::parse("disk-full:tenant=t1,gen=3").is_ok());
    }

    #[test]
    fn corrupt_fingerprint_flips_once() {
        let spec = FaultSpec::parse("corrupt-cache:label=events:kafka").unwrap();
        let a = spec.corrupt_fingerprint("events:kafka/1", 42);
        assert_ne!(a, 42, "first populate is corrupted");
        let b = spec.corrupt_fingerprint("events:kafka/1", 42);
        assert_eq!(b, 42, "repopulate after eviction is clean");
        assert_eq!(spec.corrupt_fingerprint("events:tomcat/1", 7), 7);
    }
}
