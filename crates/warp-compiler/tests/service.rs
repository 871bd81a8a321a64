//! End-to-end tests of the resilient compile service: budgets,
//! cancellation, graceful degradation, and the circuit breaker driven
//! against the real pipeline. Tests that count ticks run a one-worker
//! [`CompileDaemon`] on a deterministic clock — no real sleeps, no
//! wall-clock flakiness; tests that only need the outcome go through
//! [`compile_batch_named`], the batch entry point.
//!
//! The deterministic-time trick: a [`ManualClock`] with auto-advance
//! charges one tick per deadline poll, so "wall time" is the number of
//! cooperative cancellation checks a job performs. The Table 7-1 corpus
//! polls a handful of times per compile (the pass boundaries; its skew
//! analyses finish in far fewer than the 4096 engine steps between two
//! polls), while the runaway program below makes the skew engine step
//! through a million events one by one and poll hundreds of times. A
//! deadline between the two kills only the runaway, deterministically.

use std::sync::Arc;
use warp_common::{CancelReason, CancelToken, ManualClock};
use warp_compiler::{
    audit::{self, AuditOptions},
    corpus,
    daemon::{CompileDaemon, DaemonConfig},
    service::compile_batch_named,
    BatchReport, CompileFailure, CompileOptions, CompiledModule, ServiceConfig, Session,
    SessionCtrl,
};
use warp_service::{Admission, ExecutorConfig, FailureKind, JobOutcome, ShutdownMode};

/// A structurally valid two-cell program whose skew analysis has to
/// step through a million sends — far beyond any deadline a test arms.
/// Trip counts alone would not do it: the skew engine jumps over a loop
/// whose sends and receives advance in lockstep, however long. Here the
/// receiving loop takes two words per iteration and the sending loop
/// gives one, so no iteration of one is a shifted copy of an iteration
/// of the other and every event is paired by hand. It must be
/// multi-cell: a single-cell array has no interior queues and the skew
/// pass has nothing to pair.
const RUNAWAY: &str = "module runaway (xs in, ys out) float xs[1000000]; float ys[1000000]; \
    cellprogram (cid : 0 : 1) begin function f begin float a, b, s; int i; \
    s := 0.0; \
    for i := 0 to 499999 do begin \
      receive (L, X, a, xs[2 * i]); receive (L, X, b, xs[2 * i + 1]); s := s + a * b; end; \
    for i := 0 to 999999 do begin send (R, X, s, ys[i]); end; \
    end call f; end";

/// One tick per clock read: a job's budget is its poll count.
fn auto_clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::with_auto_advance(0, 1))
}

/// A one-worker daemon on the auto-advancing clock: jobs run one at a
/// time in submission order, so every tick count is deterministic.
fn daemon(exec: ExecutorConfig) -> CompileDaemon {
    CompileDaemon::new(
        CompileOptions::default(),
        DaemonConfig {
            service: ServiceConfig {
                exec,
                workers: 1,
                ..ServiceConfig::default()
            },
            ..DaemonConfig::default()
        },
        auto_clock(),
    )
}

/// Submits `jobs` against a paused queue, then runs them and collects
/// the batch.
fn run_batch(d: &CompileDaemon, jobs: &[(&str, &str)]) -> BatchReport<Arc<CompiledModule>> {
    d.pause();
    let ids: Vec<usize> = jobs
        .iter()
        .map(|(name, source)| d.submit(*name, *source).id().expect("accepted"))
        .collect();
    d.resume();
    BatchReport {
        jobs: d.wait(&ids),
        quarantined: d.quarantined_names(),
    }
}

/// A batch of one on the system clock, through the same entry point as
/// `w2c --corpus all`.
fn batch_of_one(name: &str, source: &str, config: &ServiceConfig) -> BatchReport {
    compile_batch_named(
        vec![(name.to_owned(), source.to_owned())],
        &CompileOptions::default(),
        &SessionCtrl::default(),
        config,
    )
}

/// The acceptance scenario: a pathological job submitted alongside the
/// full Table 7-1 corpus is killed by its budget with a structured
/// timeout report while every other job completes.
#[test]
fn runaway_job_is_killed_by_its_budget_while_the_corpus_completes() {
    // 200 polls of budget: corpus programs use ~a dozen each, the
    // runaway needs hundreds before its skew analysis would finish.
    let d = daemon(ExecutorConfig {
        queue_capacity: 16,
        deadline_ticks: 200,
        ..ExecutorConfig::default()
    });
    // Sandwich the runaway between corpus programs: jobs before and
    // after it must be unaffected.
    let mut jobs = corpus::TABLE_7_1.to_vec();
    jobs.insert(2, ("runaway", RUNAWAY));
    let batch = run_batch(&d, &jobs);
    d.shutdown(ShutdownMode::Drain);
    assert_eq!(batch.jobs.len(), 6);
    assert_eq!(batch.succeeded(), 5, "{}", batch.summary());
    assert_eq!(batch.timed_out(), 1, "{}", batch.summary());
    assert!(!batch.is_healthy());

    for job in &batch.jobs {
        if job.name == "runaway" {
            let JobOutcome::TimedOut { reason, attempts } = &job.outcome else {
                panic!("runaway must time out, got {}", job.outcome.label());
            };
            assert!(
                matches!(reason, CancelReason::DeadlineExceeded { .. }),
                "{reason}"
            );
            assert_eq!(*attempts, 1);
            assert!(job.wall_ticks >= 200, "the budget was consumed");
        } else {
            assert!(
                job.outcome.is_success(),
                "{} must complete, got {}",
                job.name,
                job.outcome.label()
            );
            assert!(!job.outcome.is_degraded());
        }
    }
    let summary = batch.summary();
    assert!(summary.contains("runaway"), "{summary}");
    assert!(summary.contains("timeout"), "{summary}");
}

/// A deadline that expires mid-pass (inside the skew engine, not at a
/// pass boundary) comes back as a structured
/// [`CompileFailure::Interrupted`] naming the pass — not a hang, not a
/// generic diagnostic.
#[test]
fn deadline_exceeded_mid_pass_is_a_structured_timeout() {
    let clock = auto_clock();
    let token = CancelToken::with_deadline(clock, 50);
    let failure = Session::new(CompileOptions::default())
        .with_ctrl(SessionCtrl {
            cancel: token,
            ..SessionCtrl::default()
        })
        .try_compile(RUNAWAY)
        .expect_err("a 50-poll budget cannot cover a million engine steps");
    let CompileFailure::Interrupted { pass, reason } = failure else {
        panic!("expected Interrupted, got {failure}");
    };
    assert_eq!(
        pass, "skew",
        "the event-by-event pairing is where the time goes"
    );
    assert!(
        matches!(reason, CancelReason::DeadlineExceeded { deadline: 50, .. }),
        "{reason}"
    );
}

/// Cancelling a token before the session starts stops the pipeline at
/// the first pass boundary.
#[test]
fn cancelled_session_stops_at_the_first_checkpoint() {
    let token = CancelToken::new(auto_clock());
    token.cancel();
    let failure = Session::new(CompileOptions::default())
        .with_ctrl(SessionCtrl {
            cancel: token,
            ..SessionCtrl::default()
        })
        .try_compile(corpus::POLYNOMIAL)
        .expect_err("a cancelled token must stop the session");
    let CompileFailure::Interrupted { pass, reason } = failure else {
        panic!("expected Interrupted, got {failure}");
    };
    assert_eq!(pass, "frontend");
    assert_eq!(reason, CancelReason::Cancelled);
}

/// The cell-program size ceiling rejects an oversized loop nest before
/// the expensive analyses, with a structured report of the excess.
#[test]
fn size_ceiling_rejects_oversized_programs_as_permanent() {
    let batch = batch_of_one(
        "runaway",
        RUNAWAY,
        &ServiceConfig {
            max_cell_cycles: 10_000,
            ..ServiceConfig::default()
        },
    );
    let JobOutcome::Failed { kind, error, .. } = &batch.jobs[0].outcome else {
        panic!("expected Failed, got {}", batch.jobs[0].outcome.label());
    };
    assert_eq!(*kind, FailureKind::Permanent, "size is deterministic");
    let CompileFailure::TooLarge {
        pass,
        what,
        size,
        limit,
    } = error
    else {
        panic!("expected TooLarge, got {error}");
    };
    assert_eq!(*pass, "cell-codegen");
    assert_eq!(*what, "cell cycles");
    assert_eq!(*limit, 10_000);
    assert!(*size > *limit);
}

/// When the skew event budget runs out the compile still succeeds with
/// conservative closed-form bounds, the module is flagged `degraded`,
/// and the guarantee audit (which simulates at the claimed skew) still
/// passes — the bound is sound, just not claimed tight.
#[test]
fn degraded_skew_fallback_still_passes_the_guarantee_audit() {
    let batch = batch_of_one(
        "conv1d",
        corpus::ONED_CONV,
        &ServiceConfig {
            skew_max_events: 8,
            ..ServiceConfig::default()
        },
    );
    assert_eq!(batch.succeeded(), 1, "{}", batch.summary());
    assert_eq!(batch.degraded(), 1, "{}", batch.summary());
    assert!(batch.is_healthy(), "degraded is not unhealthy");

    let JobOutcome::Success(success) = &batch.jobs[0].outcome else {
        panic!("expected success, got {}", batch.jobs[0].outcome.label());
    };
    let module = &success.value;
    assert!(module.skew.degraded);

    let report = audit::audit(module, &AuditOptions::default());
    assert!(report.passed(), "{report}");
    let tightness = report
        .checks
        .iter()
        .find(|c| c.name == "skew-tightness")
        .expect("the audit always reports skew-tightness");
    assert!(
        tightness.skipped,
        "a degraded bound is sound but not claimed tight: {}",
        tightness.detail
    );
}

/// Three consecutive permanent failures trip the per-program breaker:
/// the fourth submission is refused without running the compiler, and
/// an operator reset reopens it.
#[test]
fn circuit_breaker_quarantines_a_repeatedly_failing_program() {
    const BROKEN: &str = "module broken (xs in) float xs[4]; \
        cellprogram (cid : 0 : 0) begin function f begin \
        this is not w2; end call f; end";
    let d = daemon(ExecutorConfig {
        breaker_threshold: 3,
        ..ExecutorConfig::default()
    });
    for round in 0..3 {
        let batch = run_batch(&d, &[("broken", BROKEN)]);
        assert_eq!(batch.failed(), 1, "round {round}: {}", batch.summary());
    }
    assert!(d.is_quarantined("broken"));

    let batch = run_batch(&d, &[("broken", BROKEN)]);
    assert_eq!(batch.quarantined_jobs(), 1, "{}", batch.summary());
    assert_eq!(batch.quarantined, vec!["broken".to_owned()]);
    assert!(!batch.is_healthy());

    assert!(d.reset_breaker("broken"));
    assert!(!d.is_quarantined("broken"));
    // A (fixed) program under the same name runs again after the reset.
    let batch = run_batch(&d, &[("broken", corpus::POLYNOMIAL)]);
    assert_eq!(batch.succeeded(), 1, "{}", batch.summary());
    d.shutdown(ShutdownMode::Drain);
}

/// Load shedding at the admission boundary: a full queue rejects with a
/// retry hint instead of queueing unboundedly.
#[test]
fn full_queue_sheds_load_with_a_retry_hint() {
    let d = daemon(ExecutorConfig {
        queue_capacity: 2,
        retry_after_ticks: 777,
        ..ExecutorConfig::default()
    });
    d.pause();
    let a = d.submit("a", corpus::POLYNOMIAL).id().expect("accepted");
    let b = d.submit("b", corpus::POLYNOMIAL).id().expect("accepted");
    match d.submit("c", corpus::POLYNOMIAL) {
        Admission::Rejected { retry_after_ticks } => assert_eq!(retry_after_ticks, 777),
        Admission::Accepted { .. } => panic!("queue of 2 must shed the third job"),
    }
    assert_eq!(d.queue_len(), 2);
    d.resume();
    let reports = d.wait(&[a, b]);
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().all(|r| r.outcome.is_success()));
    d.shutdown(ShutdownMode::Drain);
}

/// A batch keeps positional alignment with its inputs under load
/// shedding: with room for two, sources three and four come back as
/// zero-attempt transient failures in their own slots — whatever the
/// worker count, because the batch submits against a paused queue.
#[test]
fn shed_batch_jobs_keep_their_submission_slots() {
    let named: Vec<(String, String)> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| ((*n).to_owned(), corpus::POLYNOMIAL.to_owned()))
        .collect();
    let batch = compile_batch_named(
        named,
        &CompileOptions::default(),
        &SessionCtrl::default(),
        &ServiceConfig {
            exec: ExecutorConfig {
                queue_capacity: 2,
                ..ExecutorConfig::default()
            },
            ..ServiceConfig::default()
        },
    );
    let names: Vec<&str> = batch.jobs.iter().map(|j| j.name.as_str()).collect();
    assert_eq!(names, ["a", "b", "c", "d"]);
    assert!(batch.jobs[0].outcome.is_success());
    assert!(batch.jobs[1].outcome.is_success());
    for shed in &batch.jobs[2..] {
        let JobOutcome::Failed {
            kind,
            error,
            attempts,
        } = &shed.outcome
        else {
            panic!("{} must be shed, got {}", shed.name, shed.outcome.label());
        };
        assert_eq!(*kind, FailureKind::Transient);
        assert_eq!(*attempts, 0);
        assert!(error.to_string().contains("load shed"), "{error}");
    }
    assert_eq!(batch.into_results().iter().filter(|r| r.is_ok()).count(), 2);
}
