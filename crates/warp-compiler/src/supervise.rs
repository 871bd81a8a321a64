//! The seeded wedge-storm soak: proof that the supervision layer
//! detects stalled jobs, replaces their workers, escalates retries
//! into hard isolation, and keeps serving — deterministically.
//!
//! [`run_wedge_soak`] drives a live [`CompileDaemon`] whose chaos
//! hooks inject three poison classes among a healthy Zipfian mix
//! (reusing the [`crate::soak`] program universe):
//!
//! * **once-wedges** (`!wedge-once` names): the job spins without
//!   polling its cancel token on its *first* run only — an
//!   environmental hang. The supervisor wedges it, and the escalated
//!   resubmission (subprocess probe, then in-process reproduce)
//!   succeeds.
//! * **hard-wedges** (`!wedge-hard` names): the job spins on *every*
//!   run. The supervisor wedges it; the escalated retry's sacrificial
//!   child spins too and is `SIGKILL`ed at the isolation timeout, the
//!   retry fails permanently, and the breaker quarantines the name —
//!   the full three-rung ladder.
//! * **native faults** (`!nfault` names, native backend): native
//!   serving validation fails and the job is transparently re-served
//!   by the sim fallback (`degraded`), exercising the backend
//!   fallback and its counters.
//!
//! The storm runs in lockstep waves (pause → seeded burst → resume),
//! with at most `workers - 1` spinners per wave so healthy work keeps
//! flowing around the stalled workers. Once a wave's healthy jobs
//! complete and its spinners are running, the clock is advanced past
//! the grace and [`CompileDaemon::supervise_now`] must wedge exactly
//! the spinners — each delivering exactly one `wedged` report, each
//! wedged worker replaced before the next wave.
//!
//! Invariants are *recorded* (not panicked) in
//! [`WedgeSoakReport::violations`]:
//!
//! 1. Exactly one terminal report per accepted job; a second wait
//!    yields nothing.
//! 2. Every injected spinner ends `wedged`; healthy jobs end
//!    `ok`/`degraded`; native-fault jobs end `degraded`.
//! 3. After every wave the pool is back to full strength
//!    (`live_workers == workers`), and at the end
//!    `respawned == wedged` (zero workers permanently lost).
//! 4. With native faults injected, at least one native→sim fallback
//!    was served.
//! 5. With escalation enabled, once-wedges recover (`ok`) and
//!    hard-wedges fail then land in quarantine — and nothing else is
//!    quarantined.
//!
//! The sorted `(name, outcome-label)` multiset is the determinism
//! identity: two runs of the same seed must agree exactly.
//! [`WedgeSoakReport::to_json`] renders `BENCH_supervise.json`.
//!
//! **Escalation needs a real binary.** The subprocess rung re-execs
//! [`WedgeSoakConfig::isolate_exe`]; when it is `None` the escalation
//! phase is skipped entirely (wedged names are simply never
//! resubmitted) so library tests can run without spawning processes —
//! and without re-exec'ing a test harness that does not speak the
//! child protocol.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use warp_common::{Clock, SplitMix64};
use warp_service::{ExecutorConfig, JobOutcome, ShutdownMode, SUPERVISE_MANUAL};

use crate::cache::CacheConfig;
use crate::corpus;
use crate::daemon::{CompileDaemon, DaemonConfig};
use crate::report::{json_str_array, percentile};
use crate::service::ServiceConfig;
use crate::soak::{program_universe, zipf};
use crate::{CompileOptions, ExecBackend};

/// Marker for the first-run-only spin (environmental wedge).
pub const WEDGE_ONCE_MARKER: &str = "!wedge-once";
/// Marker for the every-run spin (reproducible hard wedge).
pub const WEDGE_HARD_MARKER: &str = "!wedge-hard";
/// Marker for injected native-validation faults.
pub const NATIVE_FAULT_MARKER: &str = "!nfault";

/// Knobs of one wedge-storm run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WedgeSoakConfig {
    /// Seed for the whole storm (poison placement, program mix,
    /// arrival jitter).
    pub seed: u64,
    /// Worker threads (spinners per wave are capped at `workers - 1`).
    pub workers: usize,
    /// Jobs submitted in the storm phase.
    pub jobs: usize,
    /// Wedge draws per thousand submissions (split evenly between
    /// once- and hard-wedges, capped per wave).
    pub wedge_per_mille: u32,
    /// Native-fault draws per thousand submissions.
    pub native_per_mille: u32,
    /// Queue capacity (wave size).
    pub queue_capacity: usize,
    /// Heartbeat grace in clock ticks before a job counts as wedged.
    pub grace_ticks: u64,
    /// Circuit-breaker threshold (shared by the per-program and
    /// native-backend breakers).
    pub breaker_threshold: u32,
    /// Maximum seeded arrival jitter between submissions, in ticks.
    pub arrival_jitter_max_ticks: u64,
    /// Binary to re-exec for the hard-isolation rung. `None` skips
    /// the escalation phase (see the module docs).
    pub isolate_exe: Option<PathBuf>,
    /// Real-time budget per isolated child before `SIGKILL`.
    pub isolate_timeout_ms: u64,
    /// `true` when the clock only moves when this harness advances it
    /// (ManualClock): enables the strict per-wave detection checks.
    /// Set `false` on a system clock, where the background supervisor
    /// races this driver benignly.
    pub lockstep: bool,
}

impl Default for WedgeSoakConfig {
    fn default() -> WedgeSoakConfig {
        WedgeSoakConfig {
            seed: 0x5EED_0CA1,
            workers: 4,
            jobs: 200,
            wedge_per_mille: 150,
            native_per_mille: 100,
            queue_capacity: 32,
            grace_ticks: 1_000,
            breaker_threshold: 2,
            arrival_jitter_max_ticks: 25,
            isolate_exe: None,
            isolate_timeout_ms: 250,
            lockstep: true,
        }
    }
}

/// Everything one wedge-storm run observed.
#[derive(Clone, Debug)]
pub struct WedgeSoakReport {
    /// The configuration that produced this report.
    pub config: WedgeSoakConfig,
    /// Sorted `(job name, outcome label)` pairs — the determinism
    /// identity.
    pub outcomes: Vec<(String, String)>,
    /// Admission attempts across all phases.
    pub submitted: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Spinner jobs injected (once + hard).
    pub wedge_injected: u64,
    /// Native-fault jobs injected.
    pub native_injected: u64,
    /// Jobs the supervisor declared wedged.
    pub wedges_detected: u64,
    /// Replacement workers spawned.
    pub respawned: u64,
    /// Live workers at the end (must equal `config.workers`).
    pub live_workers_end: usize,
    /// Native→sim fallbacks served (includes breaker skips).
    pub native_fallbacks: u64,
    /// Previously-wedged names resubmitted through the isolation
    /// ladder.
    pub escalations_probed: u64,
    /// Escalated once-wedges that came back `ok`.
    pub escalations_recovered: u64,
    /// Names quarantined by the breaker at the end.
    pub quarantined: Vec<String>,
    /// Median ticks-past-heartbeat at wedge detection.
    pub wedge_detect_p50_ticks: u64,
    /// 99th-percentile ticks-past-heartbeat at wedge detection.
    pub wedge_detect_p99_ticks: u64,
    /// Median healthy-job latency in ticks, measured *during* the
    /// wedge storm.
    pub healthy_p50_ticks: u64,
    /// 99th-percentile healthy-job latency under the storm.
    pub healthy_p99_ticks: u64,
    /// Elapsed clock ticks across the whole run.
    pub elapsed_ticks: u64,
    /// Invariant violations observed (empty = the run proved out).
    pub violations: Vec<String>,
}

impl WedgeSoakReport {
    /// `true` when every supervision invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The determinism identity: compare across two runs of one seed.
    pub fn identity(&self) -> &[(String, String)] {
        &self.outcomes
    }

    /// Renders `BENCH_supervise.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"warp-supervise-bench-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"workers\": {},\n", self.config.workers));
        out.push_str(&format!("  \"jobs\": {},\n", self.config.jobs));
        out.push_str(&format!(
            "  \"wedge_per_mille\": {},\n",
            self.config.wedge_per_mille
        ));
        out.push_str(&format!(
            "  \"native_per_mille\": {},\n",
            self.config.native_per_mille
        ));
        out.push_str(&format!(
            "  \"grace_ticks\": {},\n",
            self.config.grace_ticks
        ));
        out.push_str(&format!(
            "  \"escalation\": {},\n",
            self.config.isolate_exe.is_some()
        ));
        out.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        out.push_str(&format!("  \"accepted\": {},\n", self.accepted));
        out.push_str(&format!("  \"shed\": {},\n", self.shed));
        out.push_str(&format!("  \"wedge_injected\": {},\n", self.wedge_injected));
        out.push_str(&format!(
            "  \"native_injected\": {},\n",
            self.native_injected
        ));
        out.push_str(&format!(
            "  \"wedges_detected\": {},\n",
            self.wedges_detected
        ));
        out.push_str(&format!("  \"respawned\": {},\n", self.respawned));
        out.push_str(&format!(
            "  \"workers_lost\": {},\n",
            self.wedges_detected.saturating_sub(self.respawned)
        ));
        out.push_str(&format!(
            "  \"live_workers_end\": {},\n",
            self.live_workers_end
        ));
        out.push_str(&format!(
            "  \"native_fallbacks\": {},\n",
            self.native_fallbacks
        ));
        out.push_str(&format!(
            "  \"escalations_probed\": {},\n",
            self.escalations_probed
        ));
        out.push_str(&format!(
            "  \"escalations_recovered\": {},\n",
            self.escalations_recovered
        ));
        out.push_str(&format!(
            "  \"wedge_detect_p50_ticks\": {},\n",
            self.wedge_detect_p50_ticks
        ));
        out.push_str(&format!(
            "  \"wedge_detect_p99_ticks\": {},\n",
            self.wedge_detect_p99_ticks
        ));
        out.push_str(&format!(
            "  \"healthy_p50_ticks\": {},\n",
            self.healthy_p50_ticks
        ));
        out.push_str(&format!(
            "  \"healthy_p99_ticks\": {},\n",
            self.healthy_p99_ticks
        ));
        out.push_str(&format!("  \"elapsed_ticks\": {},\n", self.elapsed_ticks));
        out.push_str(&format!(
            "  \"quarantined\": {},\n",
            json_str_array(&self.quarantined)
        ));
        out.push_str(&format!(
            "  \"violations\": {}\n}}\n",
            json_str_array(&self.violations)
        ));
        out
    }
}

/// What one submitted job is expected to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobKind {
    Clean,
    NativeFault,
    SpinOnce,
    SpinHard,
}

/// Spins (real time) until `cond` holds, recording a violation on a
/// 30 s timeout. Dispatch progress does not need the soak clock to
/// advance, so this is safe under a `ManualClock`.
fn wait_until(what: &str, violations: &mut Vec<String>, mut cond: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    while !cond() {
        if start.elapsed() > Duration::from_secs(30) {
            violations.push(format!("timed out waiting for {what}"));
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Runs the full wedge storm against a fresh daemon on the given
/// clock. See the module docs for phases and invariants.
pub fn run_wedge_soak(config: &WedgeSoakConfig, clock: Arc<dyn Clock>) -> WedgeSoakReport {
    let release = Arc::new(AtomicBool::new(false));
    let mut daemon = CompileDaemon::new(
        CompileOptions::default(),
        DaemonConfig {
            service: ServiceConfig {
                exec: ExecutorConfig {
                    queue_capacity: config.queue_capacity,
                    deadline_ticks: 0,
                    breaker_threshold: config.breaker_threshold,
                    ..ExecutorConfig::default()
                },
                workers: config.workers,
                skew_max_events: 50_000_000,
                max_cell_cycles: 100_000_000,
                max_source_bytes: 4 * 1024 * 1024,
                supervise_grace_ticks: config.grace_ticks,
                // Lockstep runs own every scan via `supervise_now`;
                // a background scanner would race the strict
                // found-count check.
                supervise_interval_ms: if config.lockstep { SUPERVISE_MANUAL } else { 0 },
            },
            cache: CacheConfig {
                byte_budget: 64 << 20,
                negative_ttl_ticks: u64::MAX / 2,
            },
            store: None,
        },
        clock.clone(),
    )
    .with_chaos_spin_once_marker(WEDGE_ONCE_MARKER, release.clone())
    .with_chaos_spin_marker(WEDGE_HARD_MARKER, release.clone())
    .with_chaos_native_marker(NATIVE_FAULT_MARKER)
    .with_isolate_timeout(Duration::from_millis(config.isolate_timeout_ms));
    if let Some(exe) = &config.isolate_exe {
        daemon = daemon.with_isolate_exe(exe.clone());
    }

    let started = clock.now_ticks();
    let mut rng = SplitMix64::new(config.seed);
    let programs = program_universe();
    let mut violations: Vec<String> = Vec::new();
    let mut outcomes: Vec<(String, String)> = Vec::new();
    let mut healthy_latencies: Vec<u64> = Vec::new();
    let mut wedge_latencies: Vec<u64> = Vec::new();
    let (mut submitted, mut accepted, mut shed) = (0u64, 0u64, 0u64);
    let (mut wedge_injected, mut native_injected) = (0u64, 0u64);
    // Sources of injected spinners, for the escalation phase.
    let mut spin_sources: Vec<(String, JobKind, String)> = Vec::new();
    let mut serial = 0usize;

    // ---- Storm phase: lockstep waves of poisoned bursts. ----
    let mut remaining = config.jobs;
    while remaining > 0 {
        let size = remaining.min(config.queue_capacity.max(1));
        remaining -= size;
        let mut spin_budget = config.workers.saturating_sub(1);
        let mut wave: Vec<(usize, String, JobKind)> = Vec::new();
        daemon.pause();
        for _ in 0..size {
            serial += 1;
            if config.arrival_jitter_max_ticks != 0 {
                let jitter = rng.below(config.arrival_jitter_max_ticks + 1);
                if jitter != 0 {
                    clock.sleep_ticks(jitter);
                }
            }
            let wedge_draw = spin_budget > 0 && rng.chance(config.wedge_per_mille.into(), 1_000);
            let (name, source, kind, backend) = if wedge_draw {
                spin_budget -= 1;
                let hard = rng.chance(1, 2);
                let (marker, kind) = if hard {
                    (WEDGE_HARD_MARKER, JobKind::SpinHard)
                } else {
                    (WEDGE_ONCE_MARKER, JobKind::SpinOnce)
                };
                (
                    format!("wedge{marker}#{serial}"),
                    corpus::POLYNOMIAL.to_owned(),
                    kind,
                    ExecBackend::Sim,
                )
            } else if rng.chance(config.native_per_mille.into(), 1_000) {
                (
                    format!("nat{NATIVE_FAULT_MARKER}#{serial}"),
                    corpus::POLYNOMIAL.to_owned(),
                    JobKind::NativeFault,
                    ExecBackend::Native,
                )
            } else {
                let k = zipf(&mut rng, programs.len());
                let (prog, src) = &programs[k];
                (
                    format!("{prog}#{serial}"),
                    src.clone(),
                    JobKind::Clean,
                    ExecBackend::Sim,
                )
            };
            submitted += 1;
            match daemon
                .submit_with_backend(&name, source.clone(), backend)
                .id()
            {
                Some(id) => {
                    accepted += 1;
                    match kind {
                        JobKind::SpinOnce | JobKind::SpinHard => {
                            wedge_injected += 1;
                            spin_sources.push((name.clone(), kind, source));
                        }
                        JobKind::NativeFault => native_injected += 1,
                        JobKind::Clean => {}
                    }
                    wave.push((id, name, kind));
                }
                None => shed += 1,
            }
        }
        daemon.resume();

        let spin_ids: Vec<usize> = wave
            .iter()
            .filter(|(_, _, k)| matches!(k, JobKind::SpinOnce | JobKind::SpinHard))
            .map(|(id, _, _)| *id)
            .collect();
        let other_ids: Vec<usize> = wave
            .iter()
            .filter(|(_, _, k)| matches!(k, JobKind::Clean | JobKind::NativeFault))
            .map(|(id, _, _)| *id)
            .collect();

        // Healthy work must complete *around* the stalled workers.
        let reports = daemon.wait(&other_ids);
        if reports.len() != other_ids.len() {
            violations.push(format!(
                "lost responses: waited for {} healthy jobs, got {}",
                other_ids.len(),
                reports.len()
            ));
        }
        let kind_of = |name: &str| {
            wave.iter()
                .find(|(_, n, _)| n == name)
                .map(|(_, _, k)| *k)
                .unwrap_or(JobKind::Clean)
        };
        for r in &reports {
            let label = r.outcome.label();
            match kind_of(&r.name) {
                JobKind::NativeFault if label != "degraded" => violations.push(format!(
                    "native-fault job `{}` ended `{label}`, expected degraded",
                    r.name
                )),
                JobKind::Clean if label != "ok" && label != "degraded" => {
                    violations.push(format!("healthy job `{}` ended `{label}`", r.name))
                }
                _ => {}
            }
            outcomes.push((r.name.clone(), label.to_owned()));
            healthy_latencies.push(r.wall_ticks);
        }

        if !spin_ids.is_empty() {
            // All spinners must reach a worker before the grace can
            // mean anything.
            wait_until("spinners to be dispatched", &mut violations, || {
                daemon.queue_len() == 0 && daemon.running_len() == spin_ids.len()
            });
            clock.sleep_ticks(config.grace_ticks + 1);
            let found = daemon.supervise_now();
            if config.lockstep && found != spin_ids.len() {
                violations.push(format!(
                    "supervisor wedged {found} of {} stalled jobs in one scan",
                    spin_ids.len()
                ));
            }
            let wedged = daemon.wait(&spin_ids);
            if wedged.len() != spin_ids.len() {
                violations.push(format!(
                    "lost wedge reports: {} stalled, {} reported",
                    spin_ids.len(),
                    wedged.len()
                ));
            }
            for r in &wedged {
                match r.outcome {
                    JobOutcome::Wedged { stalled_for_ticks } => {
                        wedge_latencies.push(stalled_for_ticks)
                    }
                    _ => violations.push(format!(
                        "spinner `{}` ended `{}`, expected wedged",
                        r.name,
                        r.outcome.label()
                    )),
                }
                outcomes.push((r.name.clone(), r.outcome.label().to_owned()));
            }
            // Exactly-once: a second wait must deliver nothing.
            if !daemon.wait(&spin_ids).is_empty() {
                violations.push("second wait on wedged jobs returned reports".to_owned());
            }
            // The pool must be back at full strength for the next wave.
            wait_until("respawned workers", &mut violations, || {
                daemon.live_workers() == config.workers
            });
        }
    }

    // ---- Escalation phase: resubmit every wedged name through the
    // isolation ladder (needs a real child binary). ----
    let mut escalations_probed = 0u64;
    let mut escalations_recovered = 0u64;
    if config.isolate_exe.is_some() {
        let mut wedged_names = daemon.wedged_names();
        wedged_names.sort();
        for name in wedged_names {
            let Some((_, kind, source)) = spin_sources.iter().find(|(n, _, _)| *n == name) else {
                violations.push(format!("unknown wedged name `{name}`"));
                continue;
            };
            escalations_probed += 1;
            let expected: &[&str] = match kind {
                // Probe succeeds, in-process reproduce compiles clean.
                JobKind::SpinOnce => &["ok"],
                // Child killed → permanent failure → breaker (already
                // fed once by the wedge) quarantines the name.
                JobKind::SpinHard => &["failed", "quarantined"],
                _ => &[],
            };
            for want in expected {
                submitted += 1;
                let Some(id) = daemon.submit(&name, source.clone()).id() else {
                    shed += 1;
                    violations.push(format!("escalated resubmit of `{name}` was shed"));
                    continue;
                };
                accepted += 1;
                let reports = daemon.wait(&[id]);
                let label = reports.first().map_or("lost", |r| r.outcome.label());
                if label != *want {
                    violations.push(format!(
                        "escalated `{name}` ended `{label}`, expected `{want}`"
                    ));
                }
                if *kind == JobKind::SpinOnce && label == "ok" {
                    escalations_recovered += 1;
                }
                outcomes.push((name.clone(), label.to_owned()));
            }
        }
        // Quarantine must hit exactly the hard-wedge names.
        for name in daemon.quarantined_names() {
            if !name.contains(WEDGE_HARD_MARKER) {
                violations.push(format!("collateral quarantine of `{name}`"));
            }
        }
    }

    // ---- Wind-down and the global invariant sweep. ----
    release.store(true, Ordering::SeqCst);
    let pool = daemon.pool_stats();
    if pool.wedged != wedge_injected {
        violations.push(format!(
            "injected {wedge_injected} spinners but supervisor wedged {}",
            pool.wedged
        ));
    }
    if pool.respawned != pool.wedged {
        violations.push(format!(
            "{} wedges but only {} respawns: workers permanently lost",
            pool.wedged, pool.respawned
        ));
    }
    let live_workers_end = daemon.live_workers();
    if live_workers_end != config.workers {
        violations.push(format!(
            "pool ended with {live_workers_end} live workers, expected {}",
            config.workers
        ));
    }
    let native = daemon.native_stats();
    if native_injected > 0 && native.fallbacks == 0 {
        violations.push(format!(
            "{native_injected} native faults injected but zero sim fallbacks served"
        ));
    }
    let quarantined = daemon.quarantined_names();
    daemon.shutdown(ShutdownMode::Drain);

    outcomes.sort();
    healthy_latencies.sort_unstable();
    wedge_latencies.sort_unstable();

    WedgeSoakReport {
        config: config.clone(),
        outcomes,
        submitted,
        accepted,
        shed,
        wedge_injected,
        native_injected,
        wedges_detected: pool.wedged,
        respawned: pool.respawned,
        live_workers_end,
        native_fallbacks: native.fallbacks,
        escalations_probed,
        escalations_recovered,
        quarantined,
        wedge_detect_p50_ticks: percentile(&wedge_latencies, 0.50),
        wedge_detect_p99_ticks: percentile(&wedge_latencies, 0.99),
        healthy_p50_ticks: percentile(&healthy_latencies, 0.50),
        healthy_p99_ticks: percentile(&healthy_latencies, 0.99),
        elapsed_ticks: clock.now_ticks().saturating_sub(started),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_common::ManualClock;

    fn small() -> WedgeSoakConfig {
        WedgeSoakConfig {
            workers: 2,
            jobs: 40,
            queue_capacity: 8,
            wedge_per_mille: 200,
            native_per_mille: 150,
            ..WedgeSoakConfig::default()
        }
    }

    #[test]
    fn wedge_storm_recovers_and_is_clean() {
        let report = run_wedge_soak(&small(), Arc::new(ManualClock::new(0)));
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.wedge_injected > 0, "seed injected no wedges");
        assert_eq!(report.wedges_detected, report.wedge_injected);
        assert_eq!(report.respawned, report.wedges_detected);
        assert_eq!(report.live_workers_end, 2);
        assert!(report.native_fallbacks >= 1, "{report:?}");
        assert!(report.outcomes.iter().any(|(_, label)| label == "wedged"));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"warp-supervise-bench-v1\""));
        assert!(json.contains("\"violations\": []"));
        assert!(json.contains("\"workers_lost\": 0"));
    }

    #[test]
    fn same_seed_same_identity() {
        let a = run_wedge_soak(&small(), Arc::new(ManualClock::new(0)));
        let b = run_wedge_soak(&small(), Arc::new(ManualClock::new(0)));
        assert_eq!(a.identity(), b.identity());
        assert_eq!(a.wedges_detected, b.wedges_detected);
        assert_eq!(a.shed, b.shed);
    }
}
