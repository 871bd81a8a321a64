//! Seeded chaos scenarios against a live [`CompileDaemon`]: proof that
//! the always-on compile service degrades gracefully instead of
//! wedging, dropping work, or losing workers.
//!
//! A scenario reports a [`Verdict`], not a benchmark: recorded (never
//! panicked) invariant violations, pass/fail counters, and a sorted
//! `(job name, outcome label)` multiset that must be identical for two
//! runs of one seed — a loom-free determinism guard in which any
//! nondeterministic shed, breaker, cache or supervisor behaviour shows
//! up as a set difference. Latency and throughput are the judged
//! benchmark's business (`benchmark/`, `serve_cold` / `serve_warm`).
//!
//! **One wave driver.** Every scenario runs on a [`ManualClock`] whose
//! only time source is the seeded arrival jitter, in lockstep waves:
//! pause dispatch, submit a seeded burst against the quiescent queue,
//! cancel that wave's bombs, resume, wait for every accepted job, then
//! wait again and require nothing (exactly-once delivery). Pausing
//! makes admission — and therefore every shed count — a pure function
//! of the seed while execution stays fully concurrent across the pool.
//! A script supplies the closure that draws each job from a Zipfian
//! program universe (corpus staples plus generator variants: the "one
//! artifact re-served many times" shape of a processor-array compile
//! server) and whatever poison it studies.
//!
//! **The chaos soak** ([`run_soak`]) poisons the mix with syntax
//! crashers (deterministic rejection → breaker food), injected
//! internal-compiler-error panics, and cancel-at-admission bombs
//! (abandoning clients); probes one burst of `f × queue_capacity` jobs
//! per overload factor; then submits a final wave and aborts the
//! daemon mid-flight. Invariants: one report per accepted job, a
//! positive retry-after hint on every rejection, queue depth within
//! capacity, poison quarantined with no collateral damage, and every
//! aborted job back as a cancelled `timeout`.
//!
//! **The wedge storm** ([`run_wedge_soak`]) injects jobs that spin
//! without polling their cancel token — on their first run only
//! (`!wedge-once`, an environmental hang) or on every run
//! (`!wedge-hard`) — plus native-backend validation faults
//! (`!nfault`), at most `workers - 1` spinners per wave so healthy
//! work keeps flowing around the stalled workers. After each wave the
//! clock is advanced past the grace and one supervisor scan must wedge
//! exactly the spinners, each reported once, each worker replaced
//! before the next wave. With an isolation binary configured, every
//! wedged name is then resubmitted through the escalation ladder:
//! once-wedges recover in the subprocess probe, hard-wedges are
//! `SIGKILL`ed, fail, and land in quarantine — and nothing else does.
//! Native faults must be transparently re-served `degraded` by the sim
//! fallback. When [`WedgeSoakConfig::isolate_exe`] is `None` the
//! escalation phase is skipped so library tests never re-exec a test
//! harness that does not speak the child protocol.
//!
//! The durability scenario lives in [`crate::crash`]: a different
//! process model (no daemon), the same universe and the same verdict.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use warp_common::{CancelToken, ManualClock, SplitMix64};
use warp_service::{Admission, ExecutorConfig, ShutdownMode, SUPERVISE_MANUAL};

use crate::cache::CacheConfig;
use crate::corpus;
use crate::daemon::{CompileDaemon, DaemonConfig};
use crate::service::ServiceConfig;
use crate::{CompileOptions, ExecBackend};

/// Name marker that triggers the daemon's injected-panic chaos hook.
pub const CHAOS_MARKER: &str = "!ice";
/// Breaker key of the syntax-crasher poison class.
pub const POISON_SYNTAX: &str = "poison-syntax";
/// Breaker key of the injected-panic poison class (contains the
/// chaos marker).
pub const POISON_ICE: &str = "poison-ice!ice";
/// Marker for the first-run-only spin (environmental wedge).
pub const WEDGE_ONCE_MARKER: &str = "!wedge-once";
/// Marker for the every-run spin (reproducible hard wedge).
pub const WEDGE_HARD_MARKER: &str = "!wedge-hard";
/// Marker for injected native-validation faults.
pub const NATIVE_FAULT_MARKER: &str = "!nfault";

/// A W2 source that fails the front end deterministically.
const SYNTAX_CRASHER: &str = "module crasher (x in) this is not w2";

/// What one scenario run proved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Named counts, in a fixed per-scenario order. All of them are a
    /// pure function of the seed.
    pub counters: Vec<(String, u64)>,
    /// The determinism identity: sorted `(name, outcome)` pairs.
    pub identity: Vec<(String, String)>,
    /// Invariant violations observed (empty = the run proved out).
    pub violations: Vec<String>,
}

impl Verdict {
    /// `true` when every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The counter named `key`.
    ///
    /// # Panics
    ///
    /// If the scenario reports no such counter.
    pub fn counter(&self, key: &str) -> u64 {
        match self.counters.iter().find(|(k, _)| k == key) {
            Some((_, n)) => *n,
            None => panic!("verdict has no counter `{key}`"),
        }
    }

    /// `counters` with owned keys, in order.
    pub(crate) fn named(counters: &[(&str, u64)]) -> Vec<(String, u64)> {
        let owned = counters.iter().map(|(key, n)| ((*key).to_owned(), *n));
        owned.collect()
    }

    /// Every reason this run must fail: each recorded violation, each
    /// `floors` counter still at zero (the run proved nothing), and —
    /// given a second run of the same seed — any difference from it.
    pub fn failures(&self, floors: &[&str], rerun: Option<&Verdict>) -> Vec<String> {
        let mut out = self.violations.clone();
        for floor in floors {
            if self.counter(floor) == 0 {
                out.push(format!("`{floor}` is zero — the run proved nothing"));
            }
        }
        if rerun.is_some_and(|second| second != self) {
            out.push("two runs with one seed produced different verdicts".to_owned());
        }
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

/// What a drawn job is expected to do: how the driver treats it and
/// which terminal labels are legal for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Must end `ok` or `degraded`.
    Healthy,
    /// Breaker food; any terminal label.
    Poison,
    /// Cancelled while the wave's dispatch is still gated, so its
    /// label is deterministic.
    Bomb,
    /// Native validation fails; the sim fallback must serve `degraded`.
    NativeFault,
    /// Never polls its cancel token; left running for the supervisor.
    Spin,
}

/// One drawn submission.
struct Job {
    name: String,
    source: String,
    backend: ExecBackend,
    kind: Kind,
}

impl Job {
    fn new(name: String, source: &str, backend: ExecBackend, kind: Kind) -> Job {
        Job {
            name,
            source: source.to_owned(),
            backend,
            kind,
        }
    }
}

/// What one wave admitted.
struct Wave {
    /// `(job id, name, kind)` of every accepted job, in submission
    /// order.
    admitted: Vec<(usize, String, Kind)>,
    /// Jobs shed at admission.
    shed: u64,
}

impl Wave {
    fn ids(&self, pick: impl Fn(Kind) -> bool) -> Vec<usize> {
        let picked = self.admitted.iter().filter(|(_, _, kind)| pick(*kind));
        picked.map(|(id, _, _)| *id).collect()
    }
}

/// The daemon every scenario drives: generous pipeline budgets (the
/// universe clears them), no per-job deadline (on a manual clock a
/// deadline would make labels depend on the interleaving), and a
/// negative cache that never expires, so poison stays a negative hit
/// for the whole run.
fn daemon_config(workers: usize, queue_capacity: usize, breaker_threshold: u32) -> DaemonConfig {
    DaemonConfig {
        service: ServiceConfig {
            exec: ExecutorConfig {
                queue_capacity,
                deadline_ticks: 0,
                breaker_threshold,
                ..ExecutorConfig::default()
            },
            workers,
            skew_max_events: 50_000_000,
            max_cell_cycles: 100_000_000,
            max_source_bytes: 4 * 1024 * 1024,
            ..ServiceConfig::default()
        },
        cache: CacheConfig {
            byte_budget: 64 << 20,
            negative_ttl_ticks: u64::MAX / 2,
        },
        store: None,
    }
}

/// Spins (real time) until `cond` holds, recording a violation on a
/// 30 s timeout. Dispatch progress does not need the manual clock to
/// advance.
fn wait_until(what: &str, violations: &mut Vec<String>, cond: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        if start.elapsed() > Duration::from_secs(30) {
            violations.push(format!("timed out waiting for {what}"));
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The shared wave driver: one daemon, one seeded stream, one clock,
/// and everything a run accumulates.
struct Driver {
    daemon: CompileDaemon,
    clock: Arc<ManualClock>,
    rng: SplitMix64,
    programs: Vec<(&'static str, String)>,
    /// Maximum seeded arrival jitter between submissions, in ticks.
    /// The jitter is the only thing that moves the clock.
    jitter_max: u64,
    /// Submissions drawn so far; job names carry it.
    serial: usize,
    submitted: u64,
    accepted: u64,
    shed: u64,
    outcomes: Vec<(String, String)>,
    violations: Vec<String>,
}

impl Driver {
    fn new(daemon: CompileDaemon, clock: Arc<ManualClock>, seed: u64, jitter_max: u64) -> Driver {
        Driver {
            daemon,
            clock,
            rng: SplitMix64::new(seed),
            programs: program_universe(),
            jitter_max,
            serial: 0,
            submitted: 0,
            accepted: 0,
            shed: 0,
            outcomes: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// A healthy job: a Zipf draw from the universe.
    fn healthy(&mut self, serial: usize) -> Job {
        let (prog, source) = &self.programs[zipf(&mut self.rng, self.programs.len())];
        let name = format!("{prog}#{serial}");
        Job::new(name, source, ExecBackend::Sim, Kind::Healthy)
    }

    /// Submits one job and counts its admission; `None` when shed.
    fn submit(&mut self, job: &Job) -> Option<(usize, CancelToken)> {
        self.submitted += 1;
        let admission =
            self.daemon
                .submit_with_backend(&job.name, job.source.as_str(), job.backend);
        match admission {
            Admission::Accepted { id, cancel } => {
                self.accepted += 1;
                Some((id, cancel))
            }
            Admission::Rejected { retry_after_ticks } => {
                self.shed += 1;
                if retry_after_ticks == 0 {
                    self.violations.push(format!(
                        "rejected job `{}` carried no retry-after hint",
                        job.name
                    ));
                }
                None
            }
        }
    }

    /// Waits for `ids`, requires one report each and none on a second
    /// wait, records every `(name, label)`, and returns the labels.
    fn collect(&mut self, ids: &[usize]) -> Vec<(String, &'static str)> {
        let reports = self.daemon.wait(ids);
        if reports.len() != ids.len() {
            self.violations.push(format!(
                "lost responses: waited for {} jobs, got {} reports",
                ids.len(),
                reports.len()
            ));
        }
        let dupes = self.daemon.wait(ids);
        if !dupes.is_empty() {
            self.violations.push(format!(
                "duplicated responses: second wait returned {} reports",
                dupes.len()
            ));
        }
        let labels: Vec<(String, &'static str)> = reports
            .into_iter()
            .map(|r| (r.name, r.outcome.label()))
            .collect();
        for (name, label) in &labels {
            self.outcomes.push((name.clone(), (*label).to_owned()));
        }
        labels
    }

    /// One lockstep wave of `size` jobs drawn by `draw` (which gets the
    /// driver and the job's 0-based serial). Everything but the wave's
    /// spinners has reported, exactly once, when this returns.
    fn wave(&mut self, size: usize, mut draw: impl FnMut(&mut Driver, usize) -> Job) -> Wave {
        self.daemon.pause();
        let mut wave = Wave {
            admitted: Vec::new(),
            shed: 0,
        };
        let mut bombs = Vec::new();
        for _ in 0..size {
            let serial = self.serial;
            self.serial += 1;
            let jitter = self.rng.below(self.jitter_max + 1);
            self.clock.advance(jitter);
            let job = draw(self, serial);
            match self.submit(&job) {
                Some((id, cancel)) => {
                    if job.kind == Kind::Bomb {
                        bombs.push(cancel);
                    }
                    wave.admitted.push((id, job.name, job.kind));
                }
                None => wave.shed += 1,
            }
        }
        for bomb in &bombs {
            bomb.cancel();
        }
        self.daemon.resume();

        for (name, label) in self.collect(&wave.ids(|kind| kind != Kind::Spin)) {
            let admitted = wave.admitted.iter().find(|(_, n, _)| *n == name);
            match admitted.map(|(_, _, kind)| *kind) {
                Some(Kind::Healthy) if label != "ok" && label != "degraded" => self
                    .violations
                    .push(format!("healthy job `{name}` ended `{label}`")),
                Some(Kind::NativeFault) if label != "degraded" => self.violations.push(format!(
                    "native-fault job `{name}` ended `{label}`, expected degraded"
                )),
                _ => {}
            }
        }
        wave
    }

    /// The supervise scan after a wave: with the clock `grace` ticks
    /// past their last heartbeat, one scan must wedge exactly
    /// `spinners`, each must report `wedged` once, and the pool must be
    /// back at `workers` before the next wave.
    fn reap(&mut self, spinners: &[usize], grace: u64, workers: usize) {
        if spinners.is_empty() {
            return;
        }
        // All spinners must reach a worker before the grace can mean
        // anything.
        let daemon = &self.daemon;
        wait_until("spinners to be dispatched", &mut self.violations, || {
            daemon.queue_len() == 0 && daemon.running_len() == spinners.len()
        });
        self.clock.advance(grace + 1);
        let found = self.daemon.supervise_now();
        if found != spinners.len() {
            self.violations.push(format!(
                "supervisor wedged {found} of {} stalled jobs in one scan",
                spinners.len()
            ));
        }
        for (name, label) in self.collect(spinners) {
            if label != "wedged" {
                self.violations
                    .push(format!("spinner `{name}` ended `{label}`, expected wedged"));
            }
        }
        let daemon = &self.daemon;
        wait_until("respawned workers", &mut self.violations, || {
            daemon.live_workers() == workers
        });
    }

    /// Closes the run: admission totals first, then the script's own
    /// counters, and the sorted identity.
    fn verdict(mut self, counters: Vec<(String, u64)>) -> Verdict {
        self.outcomes.sort();
        let mut all = Verdict::named(&[
            ("submitted", self.submitted),
            ("accepted", self.accepted),
            ("shed", self.shed),
        ]);
        all.extend(counters);
        Verdict {
            counters: all,
            identity: self.outcomes,
            violations: self.violations,
        }
    }
}

/// Knobs of one chaos soak.
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
    /// Overload factors to probe after the steady phase (each factor
    /// `f` submits `f × queue_capacity` jobs in one burst).
    pub overload_factors: Vec<u32>,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: 0x50AC_50AC,
            workers: 4,
            jobs: 200,
            poison_per_mille: 150,
            queue_capacity: 32,
            overload_factors: vec![1, 4, 16],
        }
    }
}

/// Counters of [`run_soak`] that must be nonzero for the run to have
/// proved anything.
pub const SOAK_FLOORS: &[&str] = &["accepted"];

/// Runs the chaos soak against a fresh daemon. See the module docs for
/// the phases and invariants.
pub fn run_soak(config: &SoakConfig) -> Verdict {
    let clock = Arc::new(ManualClock::new(0));
    // Three strikes: each poison class recurs many times per run, so
    // both breaker keys trip well inside the steady phase.
    let daemon = CompileDaemon::new(
        CompileOptions::default(),
        daemon_config(config.workers, config.queue_capacity, 3),
        clock.clone(),
    )
    .with_chaos_panic_marker(CHAOS_MARKER);
    // Up to 50 ticks between arrivals.
    let mut driver = Driver::new(daemon, clock, config.seed, 50);
    let capacity = config.queue_capacity.max(1);

    let poison = u64::from(config.poison_per_mille);
    let mut draw = |d: &mut Driver, serial: usize| {
        if !d.rng.chance(poison, 1_000) {
            return d.healthy(serial);
        }
        let (name, source, kind) = match d.rng.below(3) {
            0 => (POISON_SYNTAX.to_owned(), SYNTAX_CRASHER, Kind::Poison),
            1 => (POISON_ICE.to_owned(), corpus::POLYNOMIAL, Kind::Poison),
            _ => (format!("bomb#{serial}"), corpus::POLYNOMIAL, Kind::Bomb),
        };
        Job::new(name, source, ExecBackend::Sim, kind)
    };

    // Steady phase: waves of exactly queue_capacity against an empty
    // queue — nothing sheds at 1×.
    let mut remaining = config.jobs;
    while remaining > 0 {
        let size = remaining.min(capacity);
        driver.wave(size, &mut draw);
        remaining -= size;
    }

    // Overload phase: one burst per factor.
    let mut counters = Vec::new();
    for &factor in &config.overload_factors {
        let wave = driver.wave(capacity * factor as usize, &mut draw);
        counters.push((format!("overload-{factor}x-shed"), wave.shed));
    }

    // Shutdown phase: submit a wave, abort mid-flight, and require
    // exactly one (cancelled) response per accepted job.
    driver.daemon.pause();
    let mut late_ids = Vec::new();
    for _ in 0..capacity {
        let name = format!("shutdown#{}", driver.serial);
        let job = Job::new(name, corpus::POLYNOMIAL, ExecBackend::Sim, Kind::Poison);
        driver.serial += 1;
        if let Some((id, _)) = driver.submit(&job) {
            late_ids.push(id);
        }
    }
    driver.daemon.shutdown(ShutdownMode::Abort);
    for (name, label) in driver.collect(&late_ids) {
        if label != "timeout" {
            driver.violations.push(format!(
                "aborted job `{name}` ended `{label}`, expected cancelled timeout"
            ));
        }
    }
    // Post-shutdown submissions must shed, not vanish.
    if driver
        .daemon
        .submit("late", corpus::POLYNOMIAL)
        .is_accepted()
    {
        driver
            .violations
            .push("daemon accepted a job after shutdown".to_owned());
    }

    let pool = driver.daemon.pool_stats();
    if pool.max_queue_depth > config.queue_capacity && config.queue_capacity != 0 {
        driver.violations.push(format!(
            "queue depth {} exceeded capacity {}",
            pool.max_queue_depth, config.queue_capacity
        ));
    }
    let quarantined = driver.daemon.quarantined_names();
    for name in &quarantined {
        if name != POISON_SYNTAX && name != POISON_ICE {
            driver
                .violations
                .push(format!("collateral quarantine of healthy name `{name}`"));
        }
    }
    let cache = driver.daemon.cache_stats();
    counters.extend(Verdict::named(&[
        ("quarantined", quarantined.len() as u64),
        ("max-queue-depth", pool.max_queue_depth as u64),
        ("cache-lookups", cache.lookups),
        ("cache-hits", cache.hits),
        ("cache-negative-hits", cache.negative_hits),
    ]));
    driver.verdict(counters)
}

/// Knobs of one wedge storm.
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
    /// Binary to re-exec for the hard-isolation rung. `None` skips
    /// the escalation phase (see the module docs).
    pub isolate_exe: Option<PathBuf>,
    /// Real-time budget per isolated child before `SIGKILL`.
    pub isolate_timeout_ms: u64,
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
            isolate_exe: None,
            isolate_timeout_ms: 250,
        }
    }
}

/// Counters of [`run_wedge_soak`] that must be nonzero for the run to
/// have proved anything.
pub const WEDGE_FLOORS: &[&str] = &["wedge-injected", "native-fallbacks"];

/// Runs the wedge storm against a fresh daemon. See the module docs
/// for the phases and invariants.
pub fn run_wedge_soak(config: &WedgeSoakConfig) -> Verdict {
    // Heartbeat grace before a job counts as wedged: far above the
    // ≤ 25-tick arrival jitter, so only the deliberate advance in
    // `reap` ever crosses it.
    const GRACE_TICKS: u64 = 1_000;
    let release = Arc::new(AtomicBool::new(false));
    let clock = Arc::new(ManualClock::new(0));
    // Two strikes: a hard wedge's own wedge report plus its killed
    // probe are exactly what must quarantine it.
    let mut daemon_config = daemon_config(config.workers, config.queue_capacity, 2);
    daemon_config.service.supervise_grace_ticks = GRACE_TICKS;
    // This script owns every scan via `supervise_now`; a background
    // scanner would race the strict found-count check.
    daemon_config.service.supervise_interval_ms = SUPERVISE_MANUAL;
    let mut daemon = CompileDaemon::new(CompileOptions::default(), daemon_config, clock.clone())
        .with_chaos_spin_once_marker(WEDGE_ONCE_MARKER, release.clone())
        .with_chaos_spin_marker(WEDGE_HARD_MARKER, release.clone())
        .with_chaos_native_marker(NATIVE_FAULT_MARKER)
        .with_isolate_timeout(Duration::from_millis(config.isolate_timeout_ms));
    if let Some(exe) = &config.isolate_exe {
        daemon = daemon.with_isolate_exe(exe.clone());
    }
    let mut driver = Driver::new(daemon, clock, config.seed, 25);
    let (mut wedge_injected, mut native_injected) = (0u64, 0u64);

    // Storm phase: lockstep waves of poisoned bursts.
    let (wedge, native) = (
        u64::from(config.wedge_per_mille),
        u64::from(config.native_per_mille),
    );
    let mut remaining = config.jobs;
    while remaining > 0 {
        let size = remaining.min(config.queue_capacity.max(1));
        remaining -= size;
        let mut spin_budget = config.workers.saturating_sub(1);
        let wave = driver.wave(size, |d, serial| {
            // Storm names count from 1 (chaos names from 0); names are
            // part of the identity, so both numberings stay.
            let serial = serial + 1;
            let (name, backend, kind) = if spin_budget > 0 && d.rng.chance(wedge, 1_000) {
                spin_budget -= 1;
                let marker = if d.rng.chance(1, 2) {
                    WEDGE_HARD_MARKER
                } else {
                    WEDGE_ONCE_MARKER
                };
                (
                    format!("wedge{marker}#{serial}"),
                    ExecBackend::Sim,
                    Kind::Spin,
                )
            } else if d.rng.chance(native, 1_000) {
                (
                    format!("nat{NATIVE_FAULT_MARKER}#{serial}"),
                    ExecBackend::Native,
                    Kind::NativeFault,
                )
            } else {
                return d.healthy(serial);
            };
            Job::new(name, corpus::POLYNOMIAL, backend, kind)
        });
        let spinners = wave.ids(|kind| kind == Kind::Spin);
        wedge_injected += spinners.len() as u64;
        native_injected += wave.ids(|kind| kind == Kind::NativeFault).len() as u64;
        driver.reap(&spinners, GRACE_TICKS, config.workers);
    }

    // Escalation phase: resubmit every wedged name through the
    // isolation ladder (needs a real child binary).
    let (mut probed, mut recovered) = (0u64, 0u64);
    if config.isolate_exe.is_some() {
        let mut wedged_names = driver.daemon.wedged_names();
        wedged_names.sort();
        for name in wedged_names {
            let expected: &[&str] = if name.contains(WEDGE_ONCE_MARKER) {
                // Probe succeeds, in-process reproduce compiles clean.
                &["ok"]
            } else if name.contains(WEDGE_HARD_MARKER) {
                // Child killed → permanent failure → breaker (already
                // fed once by the wedge) quarantines the name.
                &["failed", "quarantined"]
            } else {
                driver
                    .violations
                    .push(format!("unknown wedged name `{name}`"));
                continue;
            };
            probed += 1;
            let job = Job::new(name, corpus::POLYNOMIAL, ExecBackend::Sim, Kind::Poison);
            for want in expected {
                let Some((id, _)) = driver.submit(&job) else {
                    driver
                        .violations
                        .push(format!("escalated resubmit of `{}` was shed", job.name));
                    continue;
                };
                let labels = driver.collect(&[id]);
                let label = labels.first().map_or("lost", |(_, label)| label);
                if label != *want {
                    driver.violations.push(format!(
                        "escalated `{}` ended `{label}`, expected `{want}`",
                        job.name
                    ));
                }
                recovered += u64::from(label == "ok");
            }
        }
        // Quarantine must hit exactly the hard-wedge names.
        for name in driver.daemon.quarantined_names() {
            if !name.contains(WEDGE_HARD_MARKER) {
                driver
                    .violations
                    .push(format!("collateral quarantine of `{name}`"));
            }
        }
    }

    // Wind-down and the global invariant sweep.
    release.store(true, Ordering::SeqCst);
    let pool = driver.daemon.pool_stats();
    if pool.wedged != wedge_injected {
        driver.violations.push(format!(
            "injected {wedge_injected} spinners but supervisor wedged {}",
            pool.wedged
        ));
    }
    if pool.respawned != pool.wedged {
        driver.violations.push(format!(
            "{} wedges but only {} respawns: workers permanently lost",
            pool.wedged, pool.respawned
        ));
    }
    let live_workers = driver.daemon.live_workers();
    if live_workers != config.workers {
        driver.violations.push(format!(
            "pool ended with {live_workers} live workers, expected {}",
            config.workers
        ));
    }
    let native_fallbacks = driver.daemon.native_stats().fallbacks;
    if native_injected > 0 && native_fallbacks == 0 {
        driver.violations.push(format!(
            "{native_injected} native faults injected but zero sim fallbacks served"
        ));
    }
    let quarantined = driver.daemon.quarantined_names().len() as u64;
    driver.daemon.shutdown(ShutdownMode::Drain);

    driver.verdict(Verdict::named(&[
        ("wedge-injected", wedge_injected),
        ("native-injected", native_injected),
        ("wedges-detected", pool.wedged),
        ("respawned", pool.respawned),
        ("live-workers", live_workers as u64),
        ("native-fallbacks", native_fallbacks),
        ("escalations-probed", probed),
        ("escalations-recovered", recovered),
        ("quarantined", quarantined),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_soak() -> SoakConfig {
        SoakConfig {
            jobs: 40,
            queue_capacity: 8,
            workers: 2,
            overload_factors: vec![1, 4],
            ..SoakConfig::default()
        }
    }

    /// The poison classes panic by design; silence their backtraces.
    fn soak(config: &SoakConfig) -> Verdict {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let verdict = run_soak(config);
        std::panic::set_hook(hook);
        verdict
    }

    #[test]
    fn small_soak_is_clean_and_sheds_at_overload() {
        let report = soak(&small_soak());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.counter("accepted") > 0);
        // 1× overload sheds nothing; 4× sheds three quarters.
        assert_eq!(report.counter("overload-1x-shed"), 0);
        assert_eq!(report.counter("overload-4x-shed"), 3 * 8);
        let served = report.counter("cache-hits") + report.counter("cache-negative-hits");
        assert!(2 * served > report.counter("cache-lookups"), "{report:?}");
    }

    #[test]
    fn same_seed_same_outcome_set() {
        let a = soak(&small_soak());
        let b = soak(&small_soak());
        assert_eq!(a.identity, b.identity);
        assert_eq!(a.counter("shed"), b.counter("shed"));
        assert_eq!(a.counter("quarantined"), b.counter("quarantined"));
    }

    #[test]
    fn different_seeds_differ() {
        let a = soak(&small_soak());
        let b = soak(&SoakConfig {
            seed: 99,
            ..small_soak()
        });
        assert_ne!(a.identity, b.identity);
    }

    fn small_storm() -> WedgeSoakConfig {
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
        let report = run_wedge_soak(&small_storm());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(
            report.counter("wedge-injected") > 0,
            "seed injected no wedges"
        );
        assert_eq!(
            report.counter("wedges-detected"),
            report.counter("wedge-injected")
        );
        assert_eq!(
            report.counter("respawned"),
            report.counter("wedges-detected")
        );
        assert_eq!(report.counter("live-workers"), 2);
        assert!(report.counter("native-fallbacks") >= 1, "{report:?}");
        assert!(report.identity.iter().any(|(_, label)| label == "wedged"));
    }

    #[test]
    fn same_seed_same_identity() {
        let a = run_wedge_soak(&small_storm());
        let b = run_wedge_soak(&small_storm());
        assert_eq!(a.identity, b.identity);
        assert_eq!(a.counter("wedges-detected"), b.counter("wedges-detected"));
        assert_eq!(a.counter("shed"), b.counter("shed"));
    }

    fn hand_built() -> Verdict {
        Verdict {
            counters: vec![("fired".to_owned(), 3), ("served".to_owned(), 9)],
            identity: vec![("job#0".to_owned(), "ok".to_owned())],
            violations: Vec::new(),
        }
    }

    #[test]
    fn a_clean_verdict_that_repeats_has_no_failures() {
        let v = hand_built();
        assert!(v
            .failures(&["fired", "served"], Some(&v.clone()))
            .is_empty());
    }

    #[test]
    fn a_violation_fails_the_run() {
        let mut v = hand_built();
        v.violations.push("lost responses".to_owned());
        assert_eq!(v.failures(&["fired"], None), ["lost responses"]);
    }

    #[test]
    fn a_floor_counter_at_zero_fails_the_run() {
        let mut v = hand_built();
        v.counters[0].1 = 0;
        let failures = v.failures(&["fired", "served"], None);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("`fired` is zero"), "{failures:?}");
    }

    #[test]
    fn an_identity_mismatch_between_two_runs_fails_the_run() {
        let v = hand_built();
        let mut second = hand_built();
        second.identity[0].1 = "degraded".to_owned();
        let failures = v.failures(&["fired"], Some(&second));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("different verdicts"), "{failures:?}");
    }
}
