//! Integration tests for the self-healing supervision layer: heartbeat
//! wedge detection on a `ManualClock`, the hard-isolation escalation
//! ladder against a real re-exec'd child binary, and the wedge-soak
//! determinism guard.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

use warp::compiler::{corpus, CompileOptions};
use warp::serve::cache::CacheConfig;
use warp::serve::daemon::{CompileDaemon, DaemonConfig};
use warp::serve::scenario::{run_wedge_soak, WedgeSoakConfig};
use warp::serve::service::ServiceConfig;
use warp::serve::{ExecutorConfig, JobOutcome, ShutdownMode, SUPERVISE_MANUAL};
use warp_common::{Clock, ManualClock};

/// Builds (once) and returns the debug `w2cd` binary — the isolation
/// child the escalation ladder re-execs. Library tests must never let
/// the ladder fall back to `current_exe()`: that is the test harness
/// itself, which does not speak the child protocol.
fn isolate_exe() -> PathBuf {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "warp-compiler", "--bin", "w2cd"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building w2cd failed");
    });
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("target");
    path.push("debug");
    path.push("w2cd");
    path
}

fn daemon_config(workers: usize, breaker_threshold: u32, grace_ticks: u64) -> DaemonConfig {
    DaemonConfig {
        service: ServiceConfig {
            exec: ExecutorConfig {
                queue_capacity: 64,
                breaker_threshold,
                ..ExecutorConfig::default()
            },
            workers,
            skew_max_events: 50_000_000,
            max_cell_cycles: 100_000_000,
            max_source_bytes: 4 * 1024 * 1024,
            supervise_grace_ticks: grace_ticks,
            supervise_interval_ms: SUPERVISE_MANUAL,
        },
        cache: CacheConfig::default(),
        store: None,
    }
}

/// Real-time spin until `cond` holds (dispatch progress does not need
/// the manual clock to advance).
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn supervisor_wedges_a_cancellation_ignoring_job_and_recovers() {
    let release = Arc::new(AtomicBool::new(false));
    let clock = Arc::new(ManualClock::new(0));
    let grace = 500u64;
    let daemon = CompileDaemon::new(
        CompileOptions::default(),
        daemon_config(2, 10, grace),
        clock.clone(),
    )
    .with_chaos_spin_once_marker("!hang", release.clone());

    // A job that spins without ever polling its cancel token.
    let id = daemon
        .submit("victim!hang", corpus::POLYNOMIAL)
        .id()
        .expect("accepted");
    wait_for("the spinner to reach a worker", || {
        daemon.queue_len() == 0 && daemon.running_len() == 1
    });

    // Within the grace nothing happens; one tick past it the
    // supervisor declares the wedge.
    clock.sleep_ticks(grace);
    assert_eq!(daemon.supervise_now(), 0, "wedged inside the grace");
    clock.sleep_ticks(1);
    assert_eq!(daemon.supervise_now(), 1, "missed the stale heartbeat");

    // Exactly one Wedged report; a second wait yields nothing.
    let reports = daemon.wait(&[id]);
    assert_eq!(reports.len(), 1);
    match reports[0].outcome {
        JobOutcome::Wedged { stalled_for_ticks } => {
            assert!(stalled_for_ticks > grace, "{stalled_for_ticks}")
        }
        ref other => panic!("expected wedged, got {}", other.label()),
    }
    assert!(daemon.wait(&[id]).is_empty(), "duplicate wedge report");
    assert!(daemon.wedged_names().contains(&"victim!hang".to_owned()));

    // The replacement worker serves subsequent jobs at full strength.
    assert_eq!(daemon.live_workers(), 2);
    let after: Vec<usize> = (0..4)
        .map(|i| {
            daemon
                .submit(format!("after-{i}"), corpus::POLYNOMIAL)
                .id()
                .expect("accepted")
        })
        .collect();
    let reports = daemon.wait(&after);
    assert_eq!(reports.len(), 4);
    for r in &reports {
        assert_eq!(r.outcome.label(), "ok", "{}", r.name);
    }

    release.store(true, Ordering::SeqCst);
    daemon.shutdown(ShutdownMode::Drain);
}

#[test]
fn escalation_ladder_probes_retries_and_quarantines() {
    let release = Arc::new(AtomicBool::new(false));
    let clock = Arc::new(ManualClock::new(0));
    let grace = 500u64;
    let daemon = CompileDaemon::new(
        CompileOptions::default(),
        daemon_config(2, 2, grace),
        clock.clone(),
    )
    .with_chaos_spin_once_marker("!soft", release.clone())
    .with_chaos_spin_marker("!hard", release.clone())
    .with_isolate_exe(isolate_exe())
    .with_isolate_timeout(Duration::from_millis(1_500));

    let wedge_one = |name: &str| {
        let id = daemon
            .submit(name, corpus::POLYNOMIAL)
            .id()
            .expect("accepted");
        wait_for("spinner dispatch", || {
            daemon.queue_len() == 0 && daemon.running_len() == 1
        });
        clock.sleep_ticks(grace + 1);
        assert_eq!(daemon.supervise_now(), 1, "{name} not wedged");
        let reports = daemon.wait(&[id]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome.label(), "wedged", "{name}");
    };

    // An environmental (first-run-only) hang: the wedge marks the
    // name, and the escalated retry — subprocess probe, then
    // in-process reproduce — succeeds.
    wedge_one("job!soft");
    let id = daemon
        .submit("job!soft", corpus::POLYNOMIAL)
        .id()
        .expect("accepted");
    let reports = daemon.wait(&[id]);
    assert_eq!(
        reports[0].outcome.label(),
        "ok",
        "escalated retry must recover"
    );

    // A reproducible hard wedge: the sacrificial child spins too and
    // is SIGKILLed, the retry fails permanently, and the second
    // failure (wedge + killed probe) trips the breaker.
    wedge_one("job!hard");
    let id = daemon
        .submit("job!hard", corpus::POLYNOMIAL)
        .id()
        .expect("accepted");
    let reports = daemon.wait(&[id]);
    assert_eq!(
        reports[0].outcome.label(),
        "failed",
        "killed probe must fail the retry"
    );
    let id = daemon
        .submit("job!hard", corpus::POLYNOMIAL)
        .id()
        .expect("accepted");
    let reports = daemon.wait(&[id]);
    assert_eq!(reports[0].outcome.label(), "quarantined");
    assert!(daemon.is_quarantined("job!hard"));
    assert!(
        !daemon.is_quarantined("job!soft"),
        "no collateral quarantine"
    );

    release.store(true, Ordering::SeqCst);
    daemon.shutdown(ShutdownMode::Drain);
}

#[test]
fn wedge_soak_with_escalation_is_deterministic_across_runs() {
    let config = WedgeSoakConfig {
        workers: 2,
        jobs: 40,
        queue_capacity: 8,
        wedge_per_mille: 200,
        native_per_mille: 150,
        isolate_exe: Some(isolate_exe()),
        isolate_timeout_ms: 1_200,
        ..WedgeSoakConfig::default()
    };
    let a = run_wedge_soak(&config);
    assert!(a.is_clean(), "violations: {:?}", a.violations);
    assert!(a.counter("wedge-injected") > 0, "seed injected no wedges");
    assert_eq!(a.counter("respawned"), a.counter("wedges-detected"));
    assert!(a.counter("escalations-probed") > 0, "{a:?}");
    assert!(a.counter("native-fallbacks") >= 1, "{a:?}");

    let b = run_wedge_soak(&config);
    assert!(b.is_clean(), "violations: {:?}", b.violations);
    assert_eq!(a.identity, b.identity, "same seed must agree");
    assert_eq!(a.counter("quarantined"), b.counter("quarantined"));
}
