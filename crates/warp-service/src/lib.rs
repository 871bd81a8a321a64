//! Resilient job execution for the Warp compile service.
//!
//! This crate is the generic half of the service layer described in
//! DESIGN.md §10. It has one engine, [`WorkerPool`]: a bounded job
//! queue with admission control, per-job budgets (a wall-clock deadline
//! armed when the job starts running), cooperative cancellation, panic
//! isolation, deterministic retry with jittered exponential backoff
//! for transient failures, and a per-program circuit breaker that
//! quarantines inputs which keep failing. A batch is "pause, submit
//! everything, resume, wait"; a daemon is the same pool left running.
//! This file holds the vocabulary both share (configuration, outcomes,
//! reports) and `run_job`, the one attempt loop every worker executes.
//! The crate knows nothing about compilation — jobs are closures
//! returning [`JobSuccess`] or [`JobFailure`] — so the whole layer is
//! unit-testable with a [`ManualClock`](warp_common::ManualClock) and
//! trivial jobs, with zero real sleeps.
//!
//! The compiler-specific half (mapping
//! `CompileFailure` to [`FailureKind`], the `w2cd` daemon, the batch
//! driver) lives in `warp-compiler`.
//!
//! # Determinism
//!
//! All time flows through the injected [`Clock`]; all randomness is
//! [`splitmix64`] seeded from [`ExecutorConfig::jitter_seed`] and the
//! job name. Two runs with the same config, clock behaviour, and job
//! results produce byte-identical reports.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use warp_common::{panic_message, splitmix64, CancelReason, CancelToken, Clock};

pub mod pool;

pub use pool::{
    effective_workers, JobState, PoolConfig, PoolStats, ShutdownMode, WorkerPool, SUPERVISE_MANUAL,
};

/// Parameters of the jittered exponential backoff between retry
/// attempts: `min(max_ticks, base_ticks * factor^(attempt-1))` plus a
/// deterministic jitter of up to a quarter of the raw delay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Delay before the first retry, in clock ticks.
    pub base_ticks: u64,
    /// Multiplier applied per additional attempt.
    pub factor: u64,
    /// Ceiling on the un-jittered delay.
    pub max_ticks: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig {
            base_ticks: 1_000,
            factor: 2,
            max_ticks: 60_000,
        }
    }
}

/// Knobs of the job engine. Everything is deterministic given a
/// deterministic [`Clock`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Maximum queued jobs before [`WorkerPool::submit`] sheds load
    /// (`0` = unbounded).
    pub queue_capacity: usize,
    /// Per-job wall-clock budget in clock ticks, armed when the job
    /// starts executing and spanning all retry attempts (`0` = none).
    pub deadline_ticks: u64,
    /// Total attempts per job including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff schedule between attempts.
    pub backoff: BackoffConfig,
    /// Seed for the deterministic retry jitter.
    pub jitter_seed: u64,
    /// Consecutive non-transient failures of one job name before the
    /// circuit breaker quarantines it (`0` = breaker disabled).
    pub breaker_threshold: u32,
    /// `retry_after_ticks` hint attached to load-shed rejections.
    pub retry_after_ticks: u64,
}

impl Default for ExecutorConfig {
    fn default() -> ExecutorConfig {
        ExecutorConfig {
            queue_capacity: 64,
            deadline_ticks: 0,
            max_attempts: 1,
            backoff: BackoffConfig::default(),
            jitter_seed: 0x5EED_CAFE,
            breaker_threshold: 0,
            retry_after_ticks: 10_000,
        }
    }
}

/// How a job failure should be treated by the retry and breaker
/// machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Worth retrying (e.g. a resource hiccup). Retried up to
    /// [`ExecutorConfig::max_attempts`]; does not feed the breaker.
    Transient,
    /// Deterministic — retrying the same input cannot help (e.g. a
    /// diagnostic-bearing compile error). Feeds the circuit breaker.
    Permanent,
    /// The job observed its own budget/cancellation and stopped
    /// cooperatively. Reported as [`JobOutcome::TimedOut`].
    Timeout,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Transient => "transient",
            FailureKind::Permanent => "permanent",
            FailureKind::Timeout => "timeout",
        })
    }
}

/// A classified job failure: the kind drives retry/breaker policy, the
/// payload is the domain error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobFailure<E> {
    /// Retry/breaker classification.
    pub kind: FailureKind,
    /// The domain error itself.
    pub error: E,
}

impl<E> JobFailure<E> {
    /// A failure worth retrying.
    pub fn transient(error: E) -> JobFailure<E> {
        JobFailure {
            kind: FailureKind::Transient,
            error,
        }
    }

    /// A deterministic failure.
    pub fn permanent(error: E) -> JobFailure<E> {
        JobFailure {
            kind: FailureKind::Permanent,
            error,
        }
    }

    /// A cooperative budget/cancellation stop.
    pub fn timeout(error: E) -> JobFailure<E> {
        JobFailure {
            kind: FailureKind::Timeout,
            error,
        }
    }
}

/// A successful job result, possibly produced in degraded mode (the
/// job fell back to a cheaper, conservative strategy to stay inside
/// its budget).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSuccess<T> {
    /// The job's product.
    pub value: T,
    /// `true` when a budget-driven fallback produced a sound but
    /// conservative result.
    pub degraded: bool,
}

impl<T> JobSuccess<T> {
    /// A full-fidelity success.
    pub fn full(value: T) -> JobSuccess<T> {
        JobSuccess {
            value,
            degraded: false,
        }
    }
}

/// Execution context handed to each job attempt. Jobs must poll
/// [`JobCtx::cancel`] from their long-running loops (the Warp pipeline
/// does so at pass boundaries, in the skew engine, and in the
/// simulator cycle loop).
#[derive(Clone, Debug)]
pub struct JobCtx {
    /// The job's name (breaker key).
    pub name: String,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Deadline/cancellation token shared by all attempts of this job.
    pub cancel: CancelToken,
}

/// The job closure: re-invocable because transient failures retry.
pub type Job<T, E> = Box<dyn Fn(&JobCtx) -> Result<JobSuccess<T>, JobFailure<E>> + Send + Sync>;

/// Result of [`WorkerPool::submit`]: either a queue slot (with the
/// cancellation token for that job) or a load-shed rejection carrying
/// a retry hint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Queued. `id` names the job to [`WorkerPool::wait`]; `cancel`
    /// cancels this one job from outside.
    Accepted {
        /// The job's id, assigned in submission order.
        id: usize,
        /// Cancels this job (cooperatively) from outside.
        cancel: CancelToken,
    },
    /// Queue full — resubmit after roughly `retry_after_ticks`.
    Rejected {
        /// Backpressure hint, in clock ticks.
        retry_after_ticks: u64,
    },
}

impl Admission {
    /// `true` for [`Admission::Accepted`].
    pub fn is_accepted(&self) -> bool {
        matches!(self, Admission::Accepted { .. })
    }
}

/// Terminal state of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome<T, E> {
    /// The job produced a value (possibly degraded).
    Success(JobSuccess<T>),
    /// All attempts failed; `kind` is the final attempt's class.
    Failed {
        /// Classification of the final failure.
        kind: FailureKind,
        /// The final attempt's domain error.
        error: E,
        /// Attempts actually executed.
        attempts: u32,
    },
    /// The job's budget expired or it was cancelled.
    TimedOut {
        /// What tripped the token.
        reason: CancelReason,
        /// Attempts actually executed (0 = stopped before running).
        attempts: u32,
    },
    /// The job panicked; the panic was contained to this job.
    Panicked {
        /// The panic payload, stringified.
        what: String,
        /// Attempts actually executed.
        attempts: u32,
    },
    /// The circuit breaker refused to run this job name.
    Quarantined {
        /// Consecutive non-transient failures that tripped the breaker.
        consecutive_failures: u32,
    },
    /// The supervisor declared the job wedged: its worker stopped
    /// refreshing the heartbeat for longer than the configured grace
    /// (it never polls its token, or polls but refuses to stop). The
    /// worker was presumed lost and replaced; the job's thread may
    /// still be running as a detached zombie, and any result it
    /// eventually produces is discarded.
    Wedged {
        /// Ticks since the job's last heartbeat when it was declared
        /// wedged.
        stalled_for_ticks: u64,
    },
}

impl<T, E> JobOutcome<T, E> {
    /// `true` for [`JobOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, JobOutcome::Success(_))
    }

    /// `true` for a success produced by a degraded fallback.
    pub fn is_degraded(&self) -> bool {
        matches!(self, JobOutcome::Success(JobSuccess { degraded: true, .. }))
    }

    /// Short machine-friendly label for summaries.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Success(s) if s.degraded => "degraded",
            JobOutcome::Success(_) => "ok",
            JobOutcome::Failed { .. } => "failed",
            JobOutcome::TimedOut { .. } => "timeout",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::Quarantined { .. } => "quarantined",
            JobOutcome::Wedged { .. } => "wedged",
        }
    }
}

/// One job's report: outcome plus accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobReport<T, E> {
    /// Slot assigned at admission (submission order).
    pub id: usize,
    /// The job's name.
    pub name: String,
    /// Terminal state.
    pub outcome: JobOutcome<T, E>,
    /// Wall time across all attempts (including backoff sleeps), in
    /// clock ticks.
    pub wall_ticks: u64,
}

#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BreakerState {
    pub(crate) consecutive: u32,
}

pub(crate) struct QueuedJob<T, E> {
    pub(crate) id: usize,
    pub(crate) name: String,
    pub(crate) token: CancelToken,
    pub(crate) job: Job<T, E>,
}

/// The deterministic jittered backoff schedule:
/// `min(max, base * factor^(attempt-1))` plus `splitmix64` jitter of
/// up to a quarter of the raw delay, seeded by `jitter_seed` and the
/// job name.
pub fn backoff_ticks(config: &ExecutorConfig, name: &str, attempt: u32) -> u64 {
    let attempt = attempt.max(1);
    let raw = config
        .backoff
        .base_ticks
        .saturating_mul(config.backoff.factor.saturating_pow(attempt - 1))
        .min(config.backoff.max_ticks);
    let span = raw / 4 + 1;
    raw + splitmix64(config.jitter_seed ^ hash_name(name) ^ u64::from(attempt)) % span
}

fn hash_name(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| splitmix64(h ^ u64::from(b)))
}

pub(crate) fn run_job<T, E>(
    config: &ExecutorConfig,
    clock: &Arc<dyn Clock>,
    quarantined: bool,
    breaker: BreakerState,
    q: &QueuedJob<T, E>,
) -> JobReport<T, E> {
    if quarantined {
        return JobReport {
            id: q.id,
            name: q.name.clone(),
            outcome: JobOutcome::Quarantined {
                consecutive_failures: breaker.consecutive,
            },
            wall_ticks: 0,
        };
    }
    let started = clock.now_ticks();
    if config.deadline_ticks != 0 {
        q.token
            .arm_deadline(started.saturating_add(config.deadline_ticks));
    }
    let max_attempts = config.max_attempts.max(1);
    let mut attempts = 0_u32;
    let outcome = loop {
        // The budget spans retries: a tripped token ends the job even
        // if attempts remain.
        if let Err(reason) = q.token.check() {
            break JobOutcome::TimedOut { reason, attempts };
        }
        attempts += 1;
        let ctx = JobCtx {
            name: q.name.clone(),
            attempt: attempts,
            cancel: q.token.clone(),
        };
        match catch_unwind(AssertUnwindSafe(|| (q.job)(&ctx))) {
            Ok(Ok(success)) => break JobOutcome::Success(success),
            Ok(Err(failure)) => match failure.kind {
                FailureKind::Timeout => {
                    let reason = q.token.check().err().unwrap_or(CancelReason::Cancelled);
                    break JobOutcome::TimedOut { reason, attempts };
                }
                FailureKind::Transient if attempts < max_attempts => {
                    clock.sleep_ticks(backoff_ticks(config, &q.name, attempts));
                }
                kind => {
                    break JobOutcome::Failed {
                        kind,
                        error: failure.error,
                        attempts,
                    };
                }
            },
            Err(payload) => {
                break JobOutcome::Panicked {
                    what: panic_message(payload.as_ref()),
                    attempts,
                };
            }
        }
    };
    JobReport {
        id: q.id,
        name: q.name.clone(),
        outcome,
        wall_ticks: clock.now_ticks().saturating_sub(started),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let config = ExecutorConfig {
            jitter_seed: 42,
            ..ExecutorConfig::default()
        };
        let a: Vec<u64> = (1..=5).map(|n| backoff_ticks(&config, "job", n)).collect();
        let b: Vec<u64> = (1..=5).map(|n| backoff_ticks(&config, "job", n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (n, &ticks) in a.iter().enumerate() {
            let raw = (config.backoff.base_ticks * config.backoff.factor.pow(n as u32))
                .min(config.backoff.max_ticks);
            assert!(
                ticks >= raw && ticks <= raw + raw / 4,
                "jitter in [0, raw/4]"
            );
        }
        // Different names and seeds decorrelate the jitter.
        assert_ne!(
            backoff_ticks(&config, "job", 1),
            backoff_ticks(&config, "other", 1)
        );
        let reseeded = ExecutorConfig {
            jitter_seed: 43,
            ..config
        };
        assert_ne!(
            backoff_ticks(&config, "job", 1),
            backoff_ticks(&reseeded, "job", 1)
        );
    }

    #[test]
    fn outcome_labels_cover_all_states() {
        let ok: JobOutcome<u32, String> = JobOutcome::Success(JobSuccess::full(1));
        assert_eq!(ok.label(), "ok");
        let failed: JobOutcome<u32, String> = JobOutcome::Failed {
            kind: FailureKind::Permanent,
            error: "e".to_owned(),
            attempts: 1,
        };
        assert_eq!(failed.label(), "failed");
        let timeout: JobOutcome<u32, String> = JobOutcome::TimedOut {
            reason: CancelReason::Cancelled,
            attempts: 1,
        };
        assert_eq!(timeout.label(), "timeout");
        let wedged: JobOutcome<u32, String> = JobOutcome::Wedged {
            stalled_for_ticks: 500,
        };
        assert_eq!(wedged.label(), "wedged");
        assert_eq!(FailureKind::Transient.to_string(), "transient");
        assert_eq!(FailureKind::Permanent.to_string(), "permanent");
        assert_eq!(FailureKind::Timeout.to_string(), "timeout");
    }
}
