//! The always-on compile daemon: one long-lived [`WorkerPool`] behind
//! a compile cache.
//!
//! Where a batch ([`crate::service::compile_batch_named`]) builds a
//! pool, submits, waits, and shuts it down, a [`CompileDaemon`] keeps
//! its pool hot: `submit` returns a job id immediately, workers
//! compile as soon as capacity allows, and clients collect their own
//! results with [`CompileDaemon::wait`]. Every compile goes through
//! the content-addressed [`CompileCache`], so repeated requests for
//! one program (the common case for a processor-array compile server)
//! are served without recompiling, and N concurrent requests for the
//! same program compile it once (single-flight).
//!
//! The daemon inherits the pool's robustness contract: bounded queue
//! with load shedding and retry-after hints, per-job deadlines and
//! pipeline budgets via [`SessionCtrl`](crate::SessionCtrl), panic
//! isolation, per-name FIFO dispatch, and a per-name circuit breaker (a
//! client that abandons its job does not count against the program —
//! the pool's one breaker rule). A cached *negative* result still
//! feeds the breaker — a program that keeps being resubmitted after a
//! deterministic rejection is quarantined without ever stampeding the
//! pool with recompiles.
//!
//! For chaos testing, [`CompileDaemon::with_chaos_panic_marker`]
//! injects a panic into any job whose name contains the marker —
//! modelling an internal compiler error without needing a source
//! program that actually crashes the pipeline.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use warp_common::{Clock, RealVfs, SystemClock, Vfs, VfsError};
use warp_service::{
    Admission, JobFailure, JobReport, JobState, PoolConfig, PoolStats, ShutdownMode, WorkerPool,
};

use crate::cache::{cache_key, CacheConfig, CacheStats, CompileCache};
use crate::isolate::{self, IsolateRequest, IsolateVerdict, VALIDATE_SEED};
use crate::service::{global_error, job_result, session_ctrl, ServiceConfig};
use crate::store::{ClearReport, DiskStore, StoreConfig, StoreStats, TieredCache};
use crate::{
    audit, CompileFailure, CompileOptions, CompiledModule, ExecBackend, NativeRunError, Session,
    SessionCtrl,
};

/// Configuration of a [`CompileDaemon`]: the compile service's knobs
/// (job engine + pipeline budgets + worker count) plus the cache's.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DaemonConfig {
    /// Job-engine, pipeline-budget, and worker-count knobs.
    pub service: ServiceConfig,
    /// Compile-cache knobs (memory tier).
    pub cache: CacheConfig,
    /// Persistent artifact store (disk tier); `None` = memory-only.
    pub store: Option<StoreConfig>,
}

/// One daemon job's report. The module is shared with the cache, so a
/// hit costs an `Arc` clone, not a deep copy.
pub type DaemonReport = JobReport<Arc<CompiledModule>, CompileFailure>;

/// Counters for the native serving path and its automatic sim
/// fallback, snapshotted by [`CompileDaemon::native_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NativeServeStats {
    /// Native validations attempted (breaker closed).
    pub attempts: u64,
    /// Native validations that failed (structured error or chaos).
    pub failures: u64,
    /// Jobs transparently served by the sim fallback after a native
    /// failure — the `degraded_native` count.
    pub fallbacks: u64,
    /// Jobs routed straight to sim because the native breaker was
    /// open (these also count as fallbacks).
    pub breaker_skips: u64,
    /// Consecutive native failures; at the breaker threshold the
    /// native path is skipped until a reset.
    pub consecutive_failures: u32,
}

/// The per-backend circuit breaker guarding the native serving path.
struct NativeGate(Mutex<NativeServeStats>);

impl NativeGate {
    fn lock(&self) -> MutexGuard<'_, NativeServeStats> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn breaker_open(&self, threshold: u32) -> bool {
        threshold != 0 && self.lock().consecutive_failures >= threshold
    }
}

/// Chaos hook state for wedge injection: which names spin, and the
/// harness-owned latch that eventually lets the zombies unwind.
struct ChaosSpin {
    /// Names containing this marker spin on *every* run — a
    /// reproducible hard wedge (the escalated child spins too and is
    /// killed).
    marker: Option<String>,
    /// Names containing this marker spin only on their *first* run —
    /// an environmental wedge the subprocess probe clears.
    once_marker: Option<String>,
    /// Set by the harness when the soak ends so detached zombie
    /// threads exit instead of burning until process death.
    release: Arc<AtomicBool>,
    fired: Mutex<BTreeSet<String>>,
}

impl ChaosSpin {
    /// `true` when this in-process run of `name` must spin.
    fn should_spin(&self, name: &str) -> bool {
        if self.spins_persistently(name) {
            return true;
        }
        if self
            .once_marker
            .as_deref()
            .is_some_and(|m| name.contains(m))
        {
            return self
                .fired
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(name.to_owned());
        }
        false
    }

    fn spins_persistently(&self, name: &str) -> bool {
        self.marker.as_deref().is_some_and(|m| name.contains(m))
    }
}

/// Wraps a serving-layer failure (isolation, validation) as a
/// [`CompileFailure`] so it flows through the existing report
/// taxonomy.
fn synthetic_failure(message: String) -> CompileFailure {
    CompileFailure::Diagnostics(global_error(message))
}

/// The always-on concurrent compile service. See the module docs.
///
/// # Examples
///
/// ```
/// use warp_compiler::{corpus, daemon::{CompileDaemon, DaemonConfig}, CompileOptions};
/// use warp_service::ShutdownMode;
///
/// let daemon = CompileDaemon::with_system_clock(
///     CompileOptions::default(),
///     DaemonConfig::default(),
/// );
/// let id = daemon.submit("polynomial", corpus::POLYNOMIAL).id().unwrap();
/// let reports = daemon.wait(&[id]);
/// assert!(reports[0].outcome.is_success());
/// // The same source again: served from the cache.
/// let id2 = daemon.submit("polynomial-again", corpus::POLYNOMIAL).id().unwrap();
/// assert!(daemon.wait(&[id2])[0].outcome.is_success());
/// assert_eq!(daemon.cache_stats().hits, 1);
/// daemon.shutdown(ShutdownMode::Drain);
/// ```
pub struct CompileDaemon {
    opts: CompileOptions,
    config: DaemonConfig,
    pool: WorkerPool<Arc<CompiledModule>, CompileFailure>,
    cache: Arc<TieredCache>,
    /// Disk-tier counters snapshotted right after the recovery scan
    /// (recovered/quarantined/tmp-cleaned), for the warm-start banner.
    warm_start: Option<StoreStats>,
    /// Why the disk tier is absent despite being configured; the
    /// daemon degrades to memory-only rather than refusing to start.
    store_error: Option<VfsError>,
    chaos_panic_marker: Option<String>,
    chaos_spin: Option<Arc<ChaosSpin>>,
    chaos_native_marker: Option<String>,
    native_gate: Arc<NativeGate>,
    /// Host binary for the hard-isolation tier; `None` re-execs
    /// `current_exe()` (correct for the service binaries, which hook
    /// [`isolate::maybe_run_child`]).
    isolate_exe: Option<PathBuf>,
    /// Real-time budget per isolated child before it is `SIGKILL`ed.
    isolate_timeout: Duration,
}

impl CompileDaemon {
    /// A daemon over an injectable clock, with the disk tier (if
    /// configured) on the real filesystem. Workers spawn immediately.
    pub fn new(opts: CompileOptions, config: DaemonConfig, clock: Arc<dyn Clock>) -> CompileDaemon {
        CompileDaemon::with_vfs(opts, config, clock, Arc::new(RealVfs))
    }

    /// A daemon whose disk tier lives on an injectable [`Vfs`] — the
    /// crash soak runs this over a fault-injecting in-memory tree. If
    /// the store fails to open (directory uncreatable/unlistable) the
    /// daemon starts memory-only and reports the error via
    /// [`CompileDaemon::store_error`].
    pub fn with_vfs(
        opts: CompileOptions,
        config: DaemonConfig,
        clock: Arc<dyn Clock>,
        vfs: Arc<dyn Vfs>,
    ) -> CompileDaemon {
        let pool = WorkerPool::new(
            PoolConfig {
                exec: config.service.exec.clone(),
                workers: config.service.workers,
                supervise_grace_ticks: config.service.supervise_grace_ticks,
                supervise_interval_ms: config.service.supervise_interval_ms,
            },
            clock.clone(),
        );
        let mem = CompileCache::new(config.cache, clock);
        let (disk, warm_start, store_error) = match &config.store {
            None => (None, None, None),
            Some(sc) => match DiskStore::open(vfs, sc.clone()) {
                Ok(store) => {
                    let warm = store.stats();
                    (Some(store), Some(warm), None)
                }
                Err(e) => (None, None, Some(e)),
            },
        };
        let cache = Arc::new(TieredCache::new(mem, disk));
        CompileDaemon {
            opts,
            config,
            pool,
            cache,
            warm_start,
            store_error,
            chaos_panic_marker: None,
            chaos_spin: None,
            chaos_native_marker: None,
            native_gate: Arc::new(NativeGate(Mutex::new(NativeServeStats::default()))),
            isolate_exe: None,
            isolate_timeout: Duration::from_secs(10),
        }
    }

    /// A daemon over the real clock (ticks are microseconds).
    pub fn with_system_clock(opts: CompileOptions, config: DaemonConfig) -> CompileDaemon {
        CompileDaemon::new(opts, config, Arc::new(SystemClock::new()))
    }

    /// Chaos hook: any job whose name contains `marker` panics instead
    /// of compiling, modelling an internal compiler error. Set before
    /// submitting; used by the soak harness.
    pub fn with_chaos_panic_marker(mut self, marker: impl Into<String>) -> CompileDaemon {
        self.chaos_panic_marker = Some(marker.into());
        self
    }

    /// Chaos hook: any job whose name contains `marker` spins without
    /// polling its cancel token — a reproducible hard wedge (its
    /// escalated subprocess retry spins too, proving the `SIGKILL`
    /// rung). `release` is the harness latch that lets abandoned
    /// zombie threads unwind at soak end. Set before submitting.
    pub fn with_chaos_spin_marker(
        mut self,
        marker: impl Into<String>,
        release: Arc<AtomicBool>,
    ) -> CompileDaemon {
        let spin = self.chaos_spin_mut(release);
        spin.marker = Some(marker.into());
        self
    }

    /// As [`CompileDaemon::with_chaos_spin_marker`], but the wedge
    /// fires only on the *first* run of each matching name — an
    /// environmental hang whose subprocess probe (and therefore its
    /// resubmission) succeeds.
    pub fn with_chaos_spin_once_marker(
        mut self,
        marker: impl Into<String>,
        release: Arc<AtomicBool>,
    ) -> CompileDaemon {
        let spin = self.chaos_spin_mut(release);
        spin.once_marker = Some(marker.into());
        self
    }

    fn chaos_spin_mut(&mut self, release: Arc<AtomicBool>) -> &mut ChaosSpin {
        let spin = self.chaos_spin.get_or_insert_with(|| {
            Arc::new(ChaosSpin {
                marker: None,
                once_marker: None,
                release,
                fired: Mutex::new(BTreeSet::new()),
            })
        });
        Arc::get_mut(spin).expect("chaos hooks are configured before any submit")
    }

    /// Chaos hook: any native-backend job whose name contains `marker`
    /// has its native serving validation fail, forcing the sim
    /// fallback. Set before submitting.
    pub fn with_chaos_native_marker(mut self, marker: impl Into<String>) -> CompileDaemon {
        self.chaos_native_marker = Some(marker.into());
        self
    }

    /// Overrides the binary re-exec'd for hard-isolated jobs (tests
    /// point this at a built service binary; the default
    /// `current_exe()` is right for the daemons themselves).
    pub fn with_isolate_exe(mut self, exe: impl Into<PathBuf>) -> CompileDaemon {
        self.isolate_exe = Some(exe.into());
        self
    }

    /// Real-time budget per isolated child before `SIGKILL` (default
    /// 10 s).
    pub fn with_isolate_timeout(mut self, timeout: Duration) -> CompileDaemon {
        self.isolate_timeout = timeout;
        self
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// The effective worker count (after resolving `workers: 0`).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Admission control: queues a compile job (workers pick it up
    /// immediately) or sheds it with a retry hint when the queue is at
    /// capacity.
    pub fn submit(&self, name: impl Into<String>, source: impl Into<String>) -> Admission {
        self.submit_with_backend(name, source, ExecBackend::default())
    }

    /// As [`CompileDaemon::submit`], with the serving backend recorded
    /// on the job's [`SessionCtrl`](crate::SessionCtrl) — and therefore
    /// in its cache key, so sim- and native-serving artifacts never alias
    /// (`w2cd`'s `submit NAME FILE.w2 [sim|native]`).
    pub fn submit_with_backend(
        &self,
        name: impl Into<String>,
        source: impl Into<String>,
        backend: ExecBackend,
    ) -> Admission {
        let name = name.into();
        let source = source.into();
        let opts = self.opts.clone();
        let cache = self.cache.clone();
        let chaos = self.chaos_panic_marker.clone();
        let chaos_spin = self.chaos_spin.clone();
        let chaos_native = self.chaos_native_marker.clone();
        let native_gate = self.native_gate.clone();
        let service = self.config.service.clone();
        // Escalation ladder: a name that has already wedged a worker
        // never gets a second chance in-thread — its retry is probed
        // in a SIGKILLable child first.
        let escalate = self.pool.was_wedged(&name);
        let isolate_exe = self.isolate_exe.clone();
        let isolate_timeout = self.isolate_timeout;
        self.pool.submit(name, move |ctx| {
            if let Some(marker) = &chaos {
                if ctx.name.contains(marker.as_str()) {
                    panic!("chaos: injected panic in `{}`", ctx.name);
                }
            }
            let chaos_native_hit = chaos_native
                .as_deref()
                .is_some_and(|m| ctx.name.contains(m));
            if escalate {
                let req = IsolateRequest {
                    name: ctx.name.clone(),
                    source: source.clone(),
                    native: backend == ExecBackend::Native,
                    skew_max_events: service.skew_max_events,
                    max_cell_cycles: service.max_cell_cycles,
                    max_source_bytes: service.max_source_bytes,
                    chaos_spin: chaos_spin
                        .as_ref()
                        .is_some_and(|s| s.spins_persistently(&ctx.name)),
                    chaos_native: chaos_native_hit,
                };
                match isolate::run_isolated(isolate_exe.as_deref(), &req, isolate_timeout) {
                    // The probe survived; whatever it concluded, the
                    // job is safe to reproduce in-process below, where
                    // the cache and the normal failure taxonomy apply.
                    Ok(IsolateVerdict::Served { .. }) | Ok(IsolateVerdict::Failed { .. }) => {}
                    Ok(IsolateVerdict::Panicked { what }) => {
                        return Err(JobFailure::permanent(synthetic_failure(format!(
                            "isolated probe of previously-wedged `{}` panicked: {what}",
                            ctx.name
                        ))))
                    }
                    // Death, hang-and-kill, garbled output: the last
                    // rung — fail permanently so the breaker
                    // quarantines the name.
                    Err(e) => {
                        return Err(JobFailure::permanent(synthetic_failure(format!(
                            "hard-isolated retry of previously-wedged `{}` failed: {e}",
                            ctx.name
                        ))))
                    }
                }
            } else if let Some(spin) = &chaos_spin {
                if spin.should_spin(&ctx.name) {
                    // Ignore cancellation entirely; only the harness
                    // latch (or process death) ends this.
                    while !spin.release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
            let ctrl = session_ctrl(&SessionCtrl::default(), &service, &ctx.cancel, backend);
            let key = cache_key(&source, &opts, &ctrl);
            let (result, _provenance) = cache.get_or_compile(key, || {
                Session::new(opts.clone())
                    .with_ctrl(ctrl.clone())
                    .try_compile(&source)
            });
            let mut success = job_result(result)?;
            if backend == ExecBackend::Native {
                success.degraded |= serve_native(
                    &success.value,
                    ctx,
                    chaos_native_hit,
                    &native_gate,
                    service.exec.breaker_threshold,
                )?;
            }
            Ok(success)
        })
    }

    /// Blocks until the given jobs finish and takes their reports (in
    /// id order, each delivered exactly once).
    pub fn wait(&self, ids: &[usize]) -> Vec<DaemonReport> {
        self.pool.wait(ids)
    }

    /// Where job `id` currently is.
    pub fn state_of(&self, id: usize) -> Option<JobState> {
        self.pool.state_of(id)
    }

    /// `(id, name, state)` for every job still in the system.
    pub fn jobs_in_flight(&self) -> Vec<(usize, String, JobState)> {
        self.pool.jobs_in_flight()
    }

    /// Jobs currently queued (excludes running).
    pub fn queue_len(&self) -> usize {
        self.pool.queue_len()
    }

    /// Jobs currently executing.
    pub fn running_len(&self) -> usize {
        self.pool.running_len()
    }

    /// Pool counters (admissions, sheds, completions, …).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Memory-tier cache counters (hits, misses, evictions, …).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.memory().stats()
    }

    /// Disk-tier counters, when the store is open.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.cache.disk().map(DiskStore::stats)
    }

    /// The disk tier's counters as they stood right after the opening
    /// recovery scan (entries recovered, corrupt quarantined, `.tmp`
    /// leftovers cleaned) — the warm-start banner's numbers.
    pub fn warm_start(&self) -> Option<StoreStats> {
        self.warm_start
    }

    /// Why the configured disk tier failed to open, if it did; the
    /// daemon is running memory-only in that case.
    pub fn store_error(&self) -> Option<&VfsError> {
        self.store_error.as_ref()
    }

    /// The tiered cache itself (soak harnesses drive it directly).
    pub fn cache(&self) -> &TieredCache {
        &self.cache
    }

    /// Drops every entry in both tiers (operator `cache clear`),
    /// reporting what each reclaimed.
    pub fn clear_cache(&self) -> ClearReport {
        self.cache.clear_tiers()
    }

    /// Counters for the native serving path and its sim fallback.
    pub fn native_stats(&self) -> NativeServeStats {
        *self.native_gate.lock()
    }

    /// `true` while the per-backend breaker is skipping the native
    /// path (consecutive failures at or past the breaker threshold).
    pub fn native_breaker_open(&self) -> bool {
        self.native_gate
            .breaker_open(self.config.service.exec.breaker_threshold)
    }

    /// Closes the native breaker (operator override); returns `true`
    /// when it was open.
    pub fn reset_native_breaker(&self) -> bool {
        let was_open = self.native_breaker_open();
        self.native_gate.lock().consecutive_failures = 0;
        was_open
    }

    /// Runs one supervision scan synchronously; see
    /// [`WorkerPool::supervise_now`].
    pub fn supervise_now(&self) -> usize {
        self.pool.supervise_now()
    }

    /// Worker threads currently presumed live; see
    /// [`WorkerPool::live_workers`].
    pub fn live_workers(&self) -> usize {
        self.pool.live_workers()
    }

    /// Every name that has ever wedged a worker.
    pub fn wedged_names(&self) -> Vec<String> {
        self.pool.wedged_names()
    }

    /// Names quarantined by the circuit breaker.
    pub fn quarantined_names(&self) -> Vec<String> {
        self.pool.quarantined_names()
    }

    /// Names with breaker history (tripped or warming), with counts.
    pub fn breaker_history(&self) -> Vec<(String, u32)> {
        self.pool.breaker_history()
    }

    /// `true` once the breaker has quarantined `name`.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.pool.is_quarantined(name)
    }

    /// Clears breaker history for `name`; `false` when there was none.
    pub fn reset_breaker(&self, name: &str) -> bool {
        self.pool.reset_breaker(name)
    }

    /// Gates dispatch (lockstep drivers); see [`WorkerPool::pause`].
    pub fn pause(&self) {
        self.pool.pause();
    }

    /// Reopens dispatch after [`CompileDaemon::pause`].
    pub fn resume(&self) {
        self.pool.resume();
    }

    /// Stops the pool and joins the workers; see
    /// [`WorkerPool::shutdown`].
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.pool.shutdown(mode);
    }
}

/// Validates the native serving path for one freshly-served job:
/// compiles are backend-agnostic, so the daemon proves the *execution*
/// path works by running seeded smoke inputs on the native executor.
/// A native failure transparently retries the validation on the sim
/// backend (`Ok(true)` = job degraded to sim) and feeds the
/// per-backend breaker; once the breaker is open the native attempt is
/// skipped entirely until it is reset.
fn serve_native(
    module: &CompiledModule,
    ctx: &warp_service::JobCtx,
    chaos_native: bool,
    gate: &NativeGate,
    breaker_threshold: u32,
) -> Result<bool, JobFailure<CompileFailure>> {
    let owned = audit::seeded_inputs(module, VALIDATE_SEED);
    let inputs: Vec<(&str, &[f32])> = owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    if gate.breaker_open(breaker_threshold) {
        gate.lock().breaker_skips += 1;
        return match module.run(&inputs) {
            Ok(_) => {
                gate.lock().fallbacks += 1;
                Ok(true)
            }
            Err(sim) => Err(JobFailure::permanent(synthetic_failure(format!(
                "native breaker open and sim fallback failed ({sim})"
            )))),
        };
    }
    gate.lock().attempts += 1;
    let native_err = if chaos_native {
        Some("chaos: injected native fault".to_owned())
    } else {
        let native_opts = warp_native::NativeOptions {
            cancel: ctx.cancel.clone(),
            ..warp_native::NativeOptions::default()
        };
        match module.run_native(&inputs, &native_opts) {
            Ok(_) => None,
            // Cancellation/deadline during validation is the job's
            // timeout, not the backend's fault: no breaker feed, no
            // fallback.
            Err(NativeRunError::Native(warp_native::NativeError::Interrupted(reason))) => {
                return Err(JobFailure::timeout(synthetic_failure(format!(
                    "native validation interrupted: {reason}"
                ))))
            }
            Err(e) => Some(e.to_string()),
        }
    };
    match native_err {
        None => {
            gate.lock().consecutive_failures = 0;
            Ok(false)
        }
        Some(native) => {
            {
                let mut stats = gate.lock();
                stats.failures += 1;
                stats.consecutive_failures = stats.consecutive_failures.saturating_add(1);
            }
            match module.run(&inputs) {
                Ok(_) => {
                    gate.lock().fallbacks += 1;
                    Ok(true)
                }
                Err(sim) => Err(JobFailure::permanent(synthetic_failure(format!(
                    "native serving path failed ({native}); sim fallback too ({sim})"
                )))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{corpus, BatchReport};
    use warp_common::ManualClock;
    use warp_service::{ExecutorConfig, JobOutcome};

    fn daemon(workers: usize, exec: ExecutorConfig) -> CompileDaemon {
        CompileDaemon::new(
            CompileOptions::default(),
            DaemonConfig {
                service: ServiceConfig {
                    exec,
                    workers,
                    ..ServiceConfig::default()
                },
                cache: CacheConfig {
                    byte_budget: 0,
                    negative_ttl_ticks: 1_000_000,
                },
                store: None,
            },
            Arc::new(ManualClock::new(0)),
        )
    }

    #[test]
    fn concurrent_submissions_compile_and_cache() {
        let d = daemon(4, ExecutorConfig::default());
        let mut ids = Vec::new();
        for round in 0..3 {
            for (name, src) in corpus::TABLE_7_1 {
                let id = d
                    .submit(format!("{name}#{round}"), src)
                    .id()
                    .expect("accepted");
                ids.push(id);
            }
        }
        let reports = d.wait(&ids);
        assert_eq!(reports.len(), 15);
        assert!(reports.iter().all(|r| r.outcome.is_success()));
        let cs = d.cache_stats();
        // 5 distinct programs, 15 lookups: at most 5 compiles; the rest
        // hit or coalesced on the in-flight compile.
        assert_eq!(cs.lookups, 15);
        assert!(cs.misses <= 5, "misses={}", cs.misses);
        assert!(cs.hits + cs.coalesced >= 10);
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn negative_cache_still_feeds_the_breaker() {
        let d = daemon(
            2,
            ExecutorConfig {
                breaker_threshold: 3,
                ..ExecutorConfig::default()
            },
        );
        let mut ids = Vec::new();
        for _ in 0..5 {
            ids.push(d.submit("broken", "module broken").id().expect("accepted"));
        }
        let reports = d.wait(&ids);
        let labels: Vec<&str> = reports.iter().map(|r| r.outcome.label()).collect();
        assert_eq!(
            labels,
            ["failed", "failed", "failed", "quarantined", "quarantined"]
        );
        // Only the first failure compiled; the rest were negative hits
        // or quarantined before reaching the cache.
        let cs = d.cache_stats();
        assert_eq!(cs.misses, 1);
        assert_eq!(cs.negative_hits, 2);
        assert!(d.is_quarantined("broken"));
        assert!(d.reset_breaker("broken"));
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn chaos_marker_panics_are_contained() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let d = daemon(2, ExecutorConfig::default()).with_chaos_panic_marker("!boom");
        let bomb = d
            .submit("poly!boom", corpus::POLYNOMIAL)
            .id()
            .expect("accepted");
        let ok = d.submit("poly", corpus::POLYNOMIAL).id().expect("accepted");
        let reports = d.wait(&[bomb, ok]);
        std::panic::set_hook(hook);
        assert_eq!(reports[0].outcome.label(), "panicked");
        assert!(reports[1].outcome.is_success());
        assert_eq!(d.pool_stats().panicked, 1);
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn native_failure_falls_back_to_sim_and_degrades() {
        let d = daemon(2, ExecutorConfig::default()).with_chaos_native_marker("!nfault");
        let ok = d
            .submit_with_backend("poly-native", corpus::POLYNOMIAL, ExecBackend::Native)
            .id()
            .expect("accepted");
        let reports = d.wait(&[ok]);
        let JobOutcome::Success(s) = &reports[0].outcome else {
            panic!(
                "native-validated job failed: {:?}",
                reports[0].outcome.label()
            );
        };
        assert!(!s.degraded, "clean native serve is not degraded");
        let bad = d
            .submit_with_backend("poly!nfault", corpus::POLYNOMIAL, ExecBackend::Native)
            .id()
            .expect("accepted");
        let reports = d.wait(&[bad]);
        let JobOutcome::Success(s) = &reports[0].outcome else {
            panic!("fallback job failed: {:?}", reports[0].outcome.label());
        };
        assert!(s.degraded, "sim-fallback serve is degraded");
        let stats = d.native_stats();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.breaker_skips, 0);
        assert!(!d.native_breaker_open());
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn native_breaker_opens_after_consecutive_failures_and_resets() {
        let d = daemon(
            1,
            ExecutorConfig {
                breaker_threshold: 2,
                ..ExecutorConfig::default()
            },
        )
        .with_chaos_native_marker("!nfault");
        for i in 0..2 {
            let id = d
                .submit_with_backend(
                    format!("n{i}!nfault"),
                    corpus::POLYNOMIAL,
                    ExecBackend::Native,
                )
                .id()
                .expect("accepted");
            assert!(d.wait(&[id])[0].outcome.is_success());
        }
        assert!(d.native_breaker_open(), "two consecutive native failures");
        // Open breaker: a clean native job is routed straight to sim.
        let skipped = d
            .submit_with_backend("clean", corpus::POLYNOMIAL, ExecBackend::Native)
            .id()
            .expect("accepted");
        let reports = d.wait(&[skipped]);
        let JobOutcome::Success(s) = &reports[0].outcome else {
            panic!("breaker-skipped job failed");
        };
        assert!(s.degraded, "breaker-skip serves via sim");
        let stats = d.native_stats();
        assert_eq!(stats.attempts, 2, "no native attempt while open");
        assert_eq!(stats.breaker_skips, 1);
        assert_eq!(stats.fallbacks, 3);
        // Operator reset closes it; the next clean job serves native.
        assert!(d.reset_native_breaker());
        assert!(!d.reset_native_breaker(), "second reset is a no-op");
        let clean = d
            .submit_with_backend("clean2", corpus::POLYNOMIAL, ExecBackend::Native)
            .id()
            .expect("accepted");
        let reports = d.wait(&[clean]);
        let JobOutcome::Success(s) = &reports[0].outcome else {
            panic!("post-reset job failed");
        };
        assert!(!s.degraded);
        assert_eq!(d.native_stats().attempts, 3);
        d.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn daemon_reports_feed_the_batch_summary_without_a_copy() {
        let d = daemon(2, ExecutorConfig::default());
        let ids: Vec<usize> = corpus::TABLE_7_1
            .iter()
            .map(|(name, src)| d.submit(*name, *src).id().expect("accepted"))
            .collect();
        let reports = d.wait(&ids);
        let batch = BatchReport {
            jobs: reports,
            quarantined: d.quarantined_names(),
        };
        assert_eq!(batch.succeeded(), 5);
        assert!(batch.is_healthy());
        assert!(batch
            .summary()
            .starts_with("batch: 5 ok (0 degraded), 0 failed, 0 timed out, 0 quarantined"));
        d.shutdown(ShutdownMode::Drain);
    }
}
