//! The seeded chaos/soak harness: proof that the always-on compile
//! service degrades gracefully instead of wedging or dropping work.
//!
//! [`run_soak`] drives a live [`CompileDaemon`] with a deterministic
//! load generator and checks the robustness invariants as it goes:
//!
//! * **Workload.** A Zipfian mix over a small program universe
//!   (corpus programs plus parameterized generator variants — the
//!   "one artifact re-served many times" shape of a processor-array
//!   compile server), with a seeded poison fraction split across
//!   three chaos classes: syntax crashers (deterministic rejection →
//!   breaker food), injected internal-compiler-error panics (via the
//!   daemon's chaos marker), and cancel-at-admission "bombs"
//!   (abandoning clients).
//! * **Lockstep waves.** Each wave pauses dispatch, submits a burst
//!   against the quiescent queue, cancels that wave's bombs, resumes,
//!   and waits for every accepted job. Pausing makes admission
//!   decisions — and therefore shed counts at each overload factor —
//!   a pure function of the seed, while execution itself stays fully
//!   concurrent across the worker pool.
//! * **Overload.** After the steady phase, one burst per configured
//!   overload factor `f` submits `f × queue_capacity` jobs, measuring
//!   the shed rate under 1×/4×/16× pressure.
//! * **Shutdown.** A final wave is submitted and then aborted
//!   mid-flight, checking that the daemon exits cleanly and still
//!   delivers exactly one response per accepted job.
//!
//! Invariants checked (violations are *recorded*, not panicked, so
//! the harness can report everything it saw):
//!
//! 1. Every accepted job yields exactly one report; waiting again
//!    yields nothing (no lost or duplicated responses).
//! 2. Every rejected job carries a positive retry-after hint.
//! 3. The queue depth never exceeds its capacity.
//! 4. Poison names are quarantined; healthy jobs only ever end in
//!    `ok`/`degraded` (no collateral damage).
//! 5. The aborted wave's jobs all come back `timeout` (cancelled),
//!    exactly once each.
//!
//! The per-job `(name, outcome-label)` multiset is returned in sorted
//! order, so running the same seed twice and comparing
//! [`SoakReport::outcomes`] is a loom-free determinism guard: any
//! nondeterministic shed, breaker, or cache behavior shows up as a
//! set difference.
//!
//! [`SoakReport::to_json`] renders `BENCH_serve.json` next to the
//! existing `BENCH_compile.json` (same hand-rolled serializer idiom).

use std::sync::Arc;

use warp_common::{Clock, SplitMix64};
use warp_service::{Admission, ExecutorConfig, ShutdownMode};

use crate::cache::{CacheConfig, CacheStats};
use crate::corpus;
use crate::daemon::{CompileDaemon, DaemonConfig};
use crate::report::{json_str_array, percentile};
use crate::service::ServiceConfig;
use crate::CompileOptions;

/// Name marker that triggers the daemon's injected-panic chaos hook.
pub const CHAOS_MARKER: &str = "!ice";
/// Breaker key of the syntax-crasher poison class.
pub const POISON_SYNTAX: &str = "poison-syntax";
/// Breaker key of the injected-panic poison class (contains the
/// chaos marker).
pub const POISON_ICE: &str = "poison-ice!ice";

/// A W2 source that fails the front end deterministically.
const SYNTAX_CRASHER: &str = "module crasher (x in) this is not w2";

/// Knobs of one soak run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoakConfig {
    /// Seed for the whole workload (program mix, poison placement,
    /// arrival jitter).
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Jobs submitted in the steady (1×) phase.
    pub jobs: usize,
    /// Poison jobs per thousand submissions.
    pub poison_per_mille: u32,
    /// Queue capacity (wave size).
    pub queue_capacity: usize,
    /// Circuit-breaker threshold.
    pub breaker_threshold: u32,
    /// Per-job deadline in clock ticks (`0` = none; keep 0 on a
    /// `ManualClock` so labels stay interleaving-independent).
    pub deadline_ticks: u64,
    /// Overload factors to probe after the steady phase (each factor
    /// `f` submits `f × queue_capacity` jobs in one burst).
    pub overload_factors: Vec<u32>,
    /// Maximum seeded arrival jitter between submissions, in clock
    /// ticks (`0` = none). On a `ManualClock` this is what makes
    /// elapsed time advance.
    pub arrival_jitter_max_ticks: u64,
    /// Negative-cache TTL in clock ticks, forwarded to the daemon's
    /// [`CacheConfig`]. The default is effectively "never expires" so
    /// poison jobs stay negative hits for the whole soak; a soak on a
    /// `ManualClock` can set a small value and jitter past it to
    /// exercise deterministic expiry.
    pub negative_ttl_ticks: u64,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: 0x50AC_50AC,
            workers: 4,
            jobs: 200,
            poison_per_mille: 150,
            queue_capacity: 32,
            breaker_threshold: 3,
            deadline_ticks: 0,
            overload_factors: vec![1, 4, 16],
            arrival_jitter_max_ticks: 50,
            negative_ttl_ticks: u64::MAX / 2,
        }
    }
}

/// Shed measurements for one overload factor.
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadPoint {
    /// The overload factor (multiples of queue capacity).
    pub factor: u32,
    /// Jobs submitted in the burst.
    pub submitted: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Jobs shed with a retry hint.
    pub shed: u64,
}

impl OverloadPoint {
    /// Fraction of the burst that was shed.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }
}

/// Everything one soak run observed.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// The configuration that produced this report.
    pub config: SoakConfig,
    /// Sorted `(job name, outcome label)` pairs for every accepted job
    /// — the determinism-guard identity.
    pub outcomes: Vec<(String, String)>,
    /// Total admission attempts across all phases.
    pub submitted: u64,
    /// Jobs admitted.
    pub accepted: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Per-overload-factor shed measurements.
    pub overload: Vec<OverloadPoint>,
    /// Names quarantined by the circuit breaker at the end.
    pub quarantined: Vec<String>,
    /// Cache counters at the end.
    pub cache: CacheStats,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Elapsed clock ticks across the whole run.
    pub elapsed_ticks: u64,
    /// Median completed-job latency in ticks (µs on the system clock).
    pub p50_ticks: u64,
    /// 99th-percentile completed-job latency in ticks.
    pub p99_ticks: u64,
    /// Completed jobs per second of clock time (0 when the clock did
    /// not advance).
    pub jobs_per_sec: f64,
    /// Invariant violations observed (empty = the run proved out).
    pub violations: Vec<String>,
}

impl SoakReport {
    /// `true` when every robustness invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"warp-serve-bench-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"workers\": {},\n", self.config.workers));
        out.push_str(&format!(
            "  \"poison_per_mille\": {},\n",
            self.config.poison_per_mille
        ));
        out.push_str(&format!(
            "  \"queue_capacity\": {},\n",
            self.config.queue_capacity
        ));
        out.push_str(&format!("  \"submitted\": {},\n", self.submitted));
        out.push_str(&format!("  \"accepted\": {},\n", self.accepted));
        out.push_str(&format!("  \"shed\": {},\n", self.shed));
        out.push_str(&format!("  \"jobs_per_sec\": {:.3},\n", self.jobs_per_sec));
        out.push_str(&format!("  \"p50_latency_ticks\": {},\n", self.p50_ticks));
        out.push_str(&format!("  \"p99_latency_ticks\": {},\n", self.p99_ticks));
        out.push_str(&format!(
            "  \"cache_hit_rate\": {:.4},\n",
            self.cache.hit_rate()
        ));
        out.push_str(&format!(
            "  \"cache\": {{\"lookups\": {}, \"hits\": {}, \"negative_hits\": {}, \
             \"misses\": {}, \"coalesced\": {}, \"evictions\": {}}},\n",
            self.cache.lookups,
            self.cache.hits,
            self.cache.negative_hits,
            self.cache.misses,
            self.cache.coalesced,
            self.cache.evictions,
        ));
        out.push_str(&format!(
            "  \"max_queue_depth\": {},\n",
            self.max_queue_depth
        ));
        out.push_str("  \"overload\": [\n");
        for (i, p) in self.overload.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"factor\": {}, \"submitted\": {}, \"accepted\": {}, \
                 \"shed\": {}, \"shed_rate\": {:.4}}}{}\n",
                p.factor,
                p.submitted,
                p.accepted,
                p.shed,
                p.shed_rate(),
                if i + 1 < self.overload.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
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

/// The Zipfian program universe: corpus staples plus generator
/// variants, weighted `1/rank`. Small programs keep a 200-job soak
/// fast; the cache makes most submissions hits anyway.
pub(crate) fn program_universe() -> Vec<(&'static str, String)> {
    vec![
        ("poly10", corpus::POLYNOMIAL.to_owned()),
        ("conv1d", corpus::ONED_CONV.to_owned()),
        ("poly4", corpus::polynomial_source(4, 8)),
        ("conv3", corpus::conv1d_source(3, 16)),
        ("binop2", corpus::binop_source(2, 4)),
        ("poly6", corpus::polynomial_source(6, 12)),
        ("conv5", corpus::conv1d_source(5, 8)),
        ("binop4", corpus::binop_source(4, 4)),
    ]
}

/// Draws a Zipf(1) rank in `0..n`: weight of rank `k` is `1/(k+1)`.
pub(crate) fn zipf(rng: &mut SplitMix64, n: usize) -> usize {
    let weights: Vec<u64> = (0..n)
        .map(|k| (1_000_000 / (k as u64 + 1)).max(1))
        .collect();
    let total: u64 = weights.iter().sum();
    let mut draw = rng.below(total);
    for (k, w) in weights.iter().enumerate() {
        if draw < *w {
            return k;
        }
        draw -= w;
    }
    n - 1
}

struct Driver {
    daemon: CompileDaemon,
    rng: SplitMix64,
    programs: Vec<(&'static str, String)>,
    jitter_max: u64,
    clock: Arc<dyn Clock>,
    poison_per_mille: u32,
    next_serial: usize,
    outcomes: Vec<(String, String)>,
    latencies: Vec<u64>,
    submitted: u64,
    accepted: u64,
    shed: u64,
    violations: Vec<String>,
}

impl Driver {
    fn violation(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Submits one burst of `size` jobs against the paused daemon,
    /// cancels the wave's bombs, then resumes and waits for every
    /// accepted job. Returns (submitted, accepted, shed) for the wave.
    fn wave(&mut self, size: usize) -> (u64, u64, u64) {
        self.daemon.pause();
        let mut ids = Vec::new();
        let mut bombs = Vec::new();
        let (mut submitted, mut accepted, mut shed) = (0_u64, 0_u64, 0_u64);
        for _ in 0..size {
            let serial = self.next_serial;
            self.next_serial += 1;
            if self.jitter_max != 0 {
                let jitter = self.rng.below(self.jitter_max + 1);
                if jitter != 0 {
                    self.clock.sleep_ticks(jitter);
                }
            }
            let poison = self.rng.chance(self.poison_per_mille.into(), 1_000);
            let (name, source, is_bomb) = if poison {
                match self.rng.below(3) {
                    0 => (POISON_SYNTAX.to_owned(), SYNTAX_CRASHER.to_owned(), false),
                    1 => (POISON_ICE.to_owned(), corpus::POLYNOMIAL.to_owned(), false),
                    _ => (
                        format!("bomb#{serial}"),
                        corpus::POLYNOMIAL.to_owned(),
                        true,
                    ),
                }
            } else {
                let k = zipf(&mut self.rng, self.programs.len());
                let (prog, src) = &self.programs[k];
                (format!("{prog}#{serial}"), src.clone(), false)
            };
            submitted += 1;
            match self.daemon.submit(&name, source) {
                Admission::Accepted { id, cancel } => {
                    accepted += 1;
                    ids.push(id);
                    if is_bomb {
                        bombs.push(cancel);
                    }
                }
                Admission::Rejected { retry_after_ticks } => {
                    shed += 1;
                    if retry_after_ticks == 0 {
                        self.violation(format!(
                            "rejected job `{name}` carried no retry-after hint"
                        ));
                    }
                }
            }
        }
        // Abandoning clients: cancel this wave's bombs while dispatch
        // is still gated, so the label is deterministic.
        for bomb in &bombs {
            bomb.cancel();
        }
        self.daemon.resume();
        let reports = self.daemon.wait(&ids);
        if reports.len() != ids.len() {
            self.violation(format!(
                "lost responses: waited for {} jobs, got {} reports",
                ids.len(),
                reports.len()
            ));
        }
        for r in &reports {
            self.outcomes
                .push((r.name.clone(), r.outcome.label().to_owned()));
            self.latencies.push(r.wall_ticks);
        }
        // Exactly-once: a second wait must deliver nothing.
        let dupes = self.daemon.wait(&ids);
        if !dupes.is_empty() {
            self.violation(format!(
                "duplicated responses: second wait returned {} reports",
                dupes.len()
            ));
        }
        self.submitted += submitted;
        self.accepted += accepted;
        self.shed += shed;
        (submitted, accepted, shed)
    }
}

/// Runs the full soak against a fresh daemon on the given clock. See
/// the module docs for the phases and invariants.
pub fn run_soak(config: &SoakConfig, clock: Arc<dyn Clock>) -> SoakReport {
    let daemon = CompileDaemon::new(
        CompileOptions::default(),
        DaemonConfig {
            service: ServiceConfig {
                exec: ExecutorConfig {
                    queue_capacity: config.queue_capacity,
                    deadline_ticks: config.deadline_ticks,
                    breaker_threshold: config.breaker_threshold,
                    ..ExecutorConfig::default()
                },
                workers: config.workers,
                // Generous pipeline budgets; the universe clears them.
                skew_max_events: 50_000_000,
                max_cell_cycles: 100_000_000,
                max_source_bytes: 4 * 1024 * 1024,
                ..ServiceConfig::default()
            },
            cache: CacheConfig {
                byte_budget: 64 << 20,
                negative_ttl_ticks: config.negative_ttl_ticks,
            },
            store: None,
        },
        clock.clone(),
    )
    .with_chaos_panic_marker(CHAOS_MARKER);

    let started = clock.now_ticks();
    let mut driver = Driver {
        daemon,
        rng: SplitMix64::new(config.seed),
        programs: program_universe(),
        jitter_max: config.arrival_jitter_max_ticks,
        clock: clock.clone(),
        poison_per_mille: config.poison_per_mille,
        next_serial: 0,
        outcomes: Vec::new(),
        latencies: Vec::new(),
        submitted: 0,
        accepted: 0,
        shed: 0,
        violations: Vec::new(),
    };

    // Steady phase: waves of exactly queue_capacity against an empty
    // queue — nothing sheds at 1×.
    let mut remaining = config.jobs;
    while remaining > 0 {
        let size = remaining.min(config.queue_capacity.max(1));
        driver.wave(size);
        remaining -= size;
    }

    // Overload phase: one burst per factor.
    let mut overload = Vec::new();
    for &factor in &config.overload_factors {
        let size = config.queue_capacity.max(1) * factor as usize;
        let (submitted, accepted, shed) = driver.wave(size);
        overload.push(OverloadPoint {
            factor,
            submitted,
            accepted,
            shed,
        });
    }

    // Shutdown phase: submit a wave, abort mid-flight, and require
    // exactly one (cancelled) response per accepted job.
    driver.daemon.pause();
    let mut late_ids = Vec::new();
    for _ in 0..config.queue_capacity.max(1) {
        let serial = driver.next_serial;
        driver.next_serial += 1;
        driver.submitted += 1;
        if let Some(id) = driver
            .daemon
            .submit(format!("shutdown#{serial}"), corpus::POLYNOMIAL)
            .id()
        {
            driver.accepted += 1;
            late_ids.push(id);
        } else {
            driver.shed += 1;
        }
    }
    driver.daemon.shutdown(ShutdownMode::Abort);
    let late = driver.daemon.wait(&late_ids);
    if late.len() != late_ids.len() {
        driver.violation(format!(
            "shutdown dropped responses: {} accepted, {} reported",
            late_ids.len(),
            late.len()
        ));
    }
    for r in &late {
        if r.outcome.label() != "timeout" {
            driver.violation(format!(
                "aborted job `{}` ended `{}`, expected cancelled timeout",
                r.name,
                r.outcome.label()
            ));
        }
        driver
            .outcomes
            .push((r.name.clone(), r.outcome.label().to_owned()));
    }
    // Post-shutdown submissions must shed, not vanish.
    if driver
        .daemon
        .submit("late", corpus::POLYNOMIAL)
        .is_accepted()
    {
        driver.violation("daemon accepted a job after shutdown".to_owned());
    }

    // Invariant sweep over the collected outcomes.
    let pool = driver.daemon.pool_stats();
    if pool.max_queue_depth > config.queue_capacity && config.queue_capacity != 0 {
        driver.violation(format!(
            "queue depth {} exceeded capacity {}",
            pool.max_queue_depth, config.queue_capacity
        ));
    }
    let quarantined = driver.daemon.quarantined_names();
    for name in &quarantined {
        if name != POISON_SYNTAX && name != POISON_ICE {
            driver.violation(format!("collateral quarantine of healthy name `{name}`"));
        }
    }
    let mut healthy_bad = Vec::new();
    for (name, label) in &driver.outcomes {
        let is_poison = name.starts_with("poison-")
            || name.starts_with("bomb#")
            || name.starts_with("shutdown#");
        if !is_poison && label != "ok" && label != "degraded" && healthy_bad.len() < 5 {
            healthy_bad.push(format!("healthy job `{name}` ended `{label}`"));
        }
    }
    driver.violations.extend(healthy_bad);

    let mut outcomes = driver.outcomes;
    outcomes.sort();
    let mut latencies = driver.latencies;
    latencies.sort_unstable();
    let elapsed_ticks = clock.now_ticks().saturating_sub(started);
    let completed = latencies.len() as f64;
    let jobs_per_sec = if elapsed_ticks == 0 {
        0.0
    } else {
        completed * 1_000_000.0 / elapsed_ticks as f64
    };

    SoakReport {
        config: config.clone(),
        outcomes,
        submitted: driver.submitted,
        accepted: driver.accepted,
        shed: driver.shed,
        overload,
        quarantined,
        cache: driver.daemon.cache_stats(),
        max_queue_depth: pool.max_queue_depth,
        elapsed_ticks,
        p50_ticks: percentile(&latencies, 0.50),
        p99_ticks: percentile(&latencies, 0.99),
        jobs_per_sec,
        violations: driver.violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_common::ManualClock;

    fn small() -> SoakConfig {
        SoakConfig {
            jobs: 40,
            queue_capacity: 8,
            workers: 2,
            overload_factors: vec![1, 4],
            ..SoakConfig::default()
        }
    }

    #[test]
    fn small_soak_is_clean_and_sheds_at_overload() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_soak(&small(), Arc::new(ManualClock::new(0)));
        std::panic::set_hook(hook);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.accepted > 0);
        // 1× overload sheds nothing; 4× sheds three quarters.
        assert_eq!(report.overload[0].shed, 0);
        assert_eq!(report.overload[1].shed, 3 * 8);
        assert!(report.cache.hit_rate() > 0.5, "{:?}", report.cache);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"warp-serve-bench-v1\""));
        assert!(json.contains("\"violations\": []"));
    }

    #[test]
    fn same_seed_same_outcome_set() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = run_soak(&small(), Arc::new(ManualClock::new(0)));
        let b = run_soak(&small(), Arc::new(ManualClock::new(0)));
        std::panic::set_hook(hook);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.quarantined, b.quarantined);
    }

    #[test]
    fn different_seeds_differ() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = run_soak(&small(), Arc::new(ManualClock::new(0)));
        let b = run_soak(
            &SoakConfig {
                seed: 99,
                ..small()
            },
            Arc::new(ManualClock::new(0)),
        );
        std::panic::set_hook(hook);
        assert_ne!(a.outcomes, b.outcomes);
    }
}
