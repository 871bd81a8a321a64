//! The compile service: Warp compilations as resilient jobs.
//!
//! This module binds the job engine of [`warp_service`] to the
//! [`Session`] pipeline (DESIGN.md §10). Each submitted source becomes
//! a named [`WorkerPool`] job whose [`SessionCtrl`] carries the job's
//! cancellation token and the service's budget knobs, so a deadline or
//! cancellation reaches every cooperative poll point in the pipeline —
//! pass boundaries, the skew engine, the simulator cycle loop —
//! and comes back as a structured [`CompileFailure`] instead of a hang.
//!
//! There is one engine and two ways to hold it. A batch
//! ([`compile_batch_named`], behind [`crate::compile_many`] and
//! `w2c --corpus all`) builds a pool, submits everything, waits, and
//! shuts it down; the [`CompileDaemon`](crate::daemon::CompileDaemon)
//! keeps one pool running behind a cache. Both build a job's
//! [`SessionCtrl`] with `session_ctrl` and turn its result into the
//! engine's vocabulary with `job_result`.
//!
//! Failure classification:
//!
//! - [`CompileFailure::Interrupted`] → [`FailureKind::Timeout`] — the
//!   job's own budget stopped it.
//! - [`CompileFailure::Diagnostics`], [`CompileFailure::TooLarge`], and
//!   [`CompileFailure::TimingOverflow`] → [`FailureKind::Permanent`] —
//!   deterministic for a given source, so retrying is pointless and the
//!   circuit breaker should count them.
//!
//! The compiler itself never produces transient failures; the
//! [`FailureKind::Transient`] path exists for service embeddings whose
//! job closures do I/O around the compile.

use crate::{CompileFailure, CompileOptions, CompiledModule, ExecBackend, Session, SessionCtrl};
use std::borrow::Borrow;
use std::fmt::Write as _;
use std::sync::Arc;
use warp_common::{CancelToken, Diagnostic, DiagnosticBag, SystemClock};
use warp_service::{
    effective_workers, ExecutorConfig, FailureKind, JobFailure, JobOutcome, JobReport, JobSuccess,
    PoolConfig, ShutdownMode, WorkerPool,
};

/// How the retry/breaker machinery should treat a [`CompileFailure`]:
/// budget interruptions are timeouts, everything else is permanent.
pub fn classify_failure(failure: &CompileFailure) -> FailureKind {
    match failure {
        CompileFailure::Interrupted { .. } => FailureKind::Timeout,
        CompileFailure::Diagnostics(_)
        | CompileFailure::TooLarge { .. }
        | CompileFailure::TimingOverflow { .. } => FailureKind::Permanent,
    }
}

/// Configuration of the compile service: the job engine's knobs plus
/// the per-job pipeline budgets threaded into [`SessionCtrl`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Queue, deadline, retry, and breaker parameters.
    pub exec: ExecutorConfig,
    /// Event budget for the exact skew analysis (`0` = unlimited);
    /// see [`SessionCtrl::skew_max_events`].
    pub skew_max_events: u64,
    /// Cell-program size ceiling in cycles (`0` = unlimited); see
    /// [`SessionCtrl::max_cell_cycles`].
    pub max_cell_cycles: u64,
    /// Source-size ceiling in bytes (`0` = unlimited); see
    /// [`SessionCtrl::max_source_bytes`].
    pub max_source_bytes: u64,
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Heartbeat staleness (clock ticks) past which the daemon's
    /// supervisor declares a running job wedged and replaces its
    /// worker (`0` = supervision off). Only the always-on
    /// [`CompileDaemon`](crate::daemon::CompileDaemon) supervises; a
    /// batch ignores this.
    pub supervise_grace_ticks: u64,
    /// Real-time milliseconds between background supervisor scans
    /// (`0` = a small default).
    pub supervise_interval_ms: u64,
}

/// The pipeline control block for one job: the caller's `template`
/// (pipeline policy, rewrite fuel) with the job's cancellation token,
/// the service's budgets and the serving backend laid over it.
pub(crate) fn session_ctrl(
    template: &SessionCtrl,
    config: &ServiceConfig,
    cancel: &CancelToken,
    backend: ExecBackend,
) -> SessionCtrl {
    SessionCtrl {
        cancel: cancel.clone(),
        skew_max_events: config.skew_max_events,
        max_cell_cycles: config.max_cell_cycles,
        max_source_bytes: config.max_source_bytes,
        backend,
        ..template.clone()
    }
}

/// One compile's result in the job engine's vocabulary: a module whose
/// skew bounds fell back to the conservative form is a degraded
/// success, and a failure carries its [`classify_failure`] kind. `M` is
/// the module handle — owned in a batch, an `Arc` out of the daemon's
/// cache.
pub(crate) fn job_result<M: Borrow<CompiledModule>>(
    result: Result<M, CompileFailure>,
) -> Result<JobSuccess<M>, JobFailure<CompileFailure>> {
    match result {
        Ok(module) => {
            let degraded = module.borrow().skew.degraded;
            Ok(JobSuccess {
                value: module,
                degraded,
            })
        }
        Err(failure) => Err(JobFailure {
            kind: classify_failure(&failure),
            error: failure,
        }),
    }
}

/// The outcome of one batch: per-job reports in submission order plus
/// the breaker's quarantine list as of the end of the batch. `M` is the
/// module handle: [`CompiledModule`] for an owned batch,
/// `Arc<CompiledModule>` for reports taken straight from the daemon
/// (the counts, health verdict, and summary never look inside it).
#[derive(Debug)]
pub struct BatchReport<M = CompiledModule> {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport<M, CompileFailure>>,
    /// Names quarantined by the circuit breaker after this batch.
    pub quarantined: Vec<String>,
}

impl<M> BatchReport<M> {
    fn count(&self, pred: impl Fn(&JobOutcome<M, CompileFailure>) -> bool) -> usize {
        self.jobs.iter().filter(|j| pred(&j.outcome)).count()
    }

    /// Jobs that produced a module (including degraded ones).
    pub fn succeeded(&self) -> usize {
        self.count(JobOutcome::is_success)
    }

    /// Successful jobs that degraded to conservative skew bounds.
    pub fn degraded(&self) -> usize {
        self.count(JobOutcome::is_degraded)
    }

    /// Jobs rejected with diagnostics or a size ceiling (plus panics).
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Failed { .. } | JobOutcome::Panicked { .. }))
    }

    /// Jobs stopped by their budget or external cancellation.
    pub fn timed_out(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::TimedOut { .. }))
    }

    /// Jobs refused by the circuit breaker.
    pub fn quarantined_jobs(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Quarantined { .. }))
    }

    /// Jobs the supervisor declared wedged (worker presumed lost).
    pub fn wedged(&self) -> usize {
        self.count(|o| matches!(o, JobOutcome::Wedged { .. }))
    }

    /// The job with the largest wall time, if any ran.
    pub fn slowest(&self) -> Option<&JobReport<M, CompileFailure>> {
        self.jobs.iter().max_by_key(|j| j.wall_ticks)
    }

    /// `true` when nothing timed out, panicked, or was quarantined —
    /// ordinary diagnostic failures are still "healthy" (the service
    /// did its job; the input was just wrong).
    pub fn is_healthy(&self) -> bool {
        self.timed_out() == 0
            && self.quarantined.is_empty()
            && self.quarantined_jobs() == 0
            && self.wedged() == 0
            && self.count(|o| matches!(o, JobOutcome::Panicked { .. })) == 0
    }

    /// A human-readable per-job table with a totals line: name,
    /// outcome, wall time in clock ticks (microseconds under the
    /// system clock), with the slowest job flagged.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch: {} ok ({} degraded), {} failed, {} timed out, {} quarantined, {} wedged",
            self.succeeded(),
            self.degraded(),
            self.failed(),
            self.timed_out(),
            self.quarantined_jobs(),
            self.wedged(),
        );
        let slowest = self.slowest().map(|j| j.id);
        let width = self
            .jobs
            .iter()
            .map(|j| j.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for job in &self.jobs {
            let mark = if slowest == Some(job.id) && self.jobs.len() > 1 {
                "  <- slowest"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<width$}  {:<11} {:>12} ticks{}",
                job.name,
                job.outcome.label(),
                job.wall_ticks,
                mark,
                width = width,
            );
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "  quarantined names: {}", self.quarantined.join(", "));
        }
        out
    }
}

impl BatchReport {
    /// Flattens the batch into per-program compile results in
    /// submission order — the [`crate::compile_many`] contract. Budget
    /// stops, panics, and quarantines become diagnostic-bearing
    /// failures.
    pub fn into_results(self) -> Vec<Result<CompiledModule, DiagnosticBag>> {
        self.jobs
            .into_iter()
            .map(|job| match job.outcome {
                JobOutcome::Success(s) => Ok(s.value),
                JobOutcome::Failed { error, .. } => Err(error.into_diagnostics()),
                JobOutcome::TimedOut { reason, .. } => {
                    Err(global_error(format!("compilation interrupted: {reason}")))
                }
                JobOutcome::Panicked { what, .. } => {
                    Err(global_error(format!("internal compiler error: {what}")))
                }
                JobOutcome::Quarantined {
                    consecutive_failures,
                } => Err(global_error(format!(
                    "program quarantined by the circuit breaker after \
                     {consecutive_failures} consecutive failures"
                ))),
                JobOutcome::Wedged { stalled_for_ticks } => Err(global_error(format!(
                    "compile job wedged: worker unresponsive for \
                     {stalled_for_ticks} ticks; presumed lost and replaced"
                ))),
            })
            .collect()
    }
}

/// A diagnostic bag holding one error that belongs to no source span —
/// how the serving layer reports what happened *around* a compile.
pub(crate) fn global_error(message: impl Into<String>) -> DiagnosticBag {
    let mut diags = DiagnosticBag::new();
    diags.push(Diagnostic::error_global(message));
    diags
}

/// Batch-compiles `sources` with everything inert (no deadlines, no
/// retry, no breaker, unbounded queue) on the system clock — the engine
/// behind [`crate::compile_many`]. `ctrl` is each job's pipeline policy
/// (see [`compile_batch_named`]).
pub fn compile_batch<S: AsRef<str>>(
    sources: &[S],
    opts: &CompileOptions,
    ctrl: &SessionCtrl,
) -> BatchReport {
    compile_batch_named(
        sources
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("input[{i}]"), s.as_ref().to_owned()))
            .collect(),
        opts,
        ctrl,
        &ServiceConfig {
            exec: ExecutorConfig {
                queue_capacity: 0,
                ..ExecutorConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
}

/// Batch-compiles named sources under an explicit [`ServiceConfig`] on
/// the system clock: one short-lived [`WorkerPool`], everything
/// submitted while dispatch is paused (so which jobs are shed depends
/// only on `queue_capacity`, never on how fast workers drain), then
/// resumed, waited for, and shut down. Reports come back in submission
/// order; same-name jobs run one at a time in that order, and the
/// breaker sees each result before the next one of its name starts.
///
/// Every job compiles under `ctrl` — the caller's pipeline policy,
/// rewrite fuel and backend — with its own cancellation token and
/// `config`'s three size budgets laid over it.
pub fn compile_batch_named(
    named_sources: Vec<(String, String)>,
    opts: &CompileOptions,
    ctrl: &SessionCtrl,
    config: &ServiceConfig,
) -> BatchReport {
    if named_sources.is_empty() {
        return BatchReport {
            jobs: Vec::new(),
            quarantined: Vec::new(),
        };
    }
    let pool: WorkerPool<CompiledModule, CompileFailure> = WorkerPool::new(
        PoolConfig {
            exec: config.exec.clone(),
            workers: effective_workers(config.workers).min(named_sources.len()),
            ..PoolConfig::default()
        },
        Arc::new(SystemClock::new()),
    );
    pool.pause();
    let admitted: Vec<(String, Option<usize>)> = named_sources
        .into_iter()
        .map(|(name, source)| {
            let (opts, template, config) = (opts.clone(), ctrl.clone(), config.clone());
            let admission = pool.submit(name.clone(), move |ctx| {
                let ctrl = session_ctrl(&template, &config, &ctx.cancel, template.backend);
                job_result(
                    Session::new(opts.clone())
                        .with_ctrl(ctrl)
                        .try_compile(&source),
                )
            });
            (name, admission.id())
        })
        .collect();
    pool.resume();
    let ids: Vec<usize> = admitted.iter().filter_map(|(_, id)| *id).collect();
    let mut finished = pool.wait(&ids).into_iter();
    let quarantined = pool.quarantined_names();
    pool.shutdown(ShutdownMode::Drain);
    // Load-shed jobs still occupy their submission slot in the report
    // (a transient failure with zero attempts), so callers keep
    // positional alignment with their inputs.
    let jobs = admitted
        .into_iter()
        .map(|(name, id)| match id {
            Some(_) => finished
                .next()
                .expect("every accepted job reports exactly once"),
            None => JobReport {
                id: usize::MAX,
                name,
                outcome: JobOutcome::Failed {
                    kind: FailureKind::Transient,
                    error: CompileFailure::Diagnostics(global_error(
                        "compile service queue full (load shed); retry later",
                    )),
                    attempts: 0,
                },
                wall_ticks: 0,
            },
        })
        .collect();
    BatchReport { jobs, quarantined }
}
