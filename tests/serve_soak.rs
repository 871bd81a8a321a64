//! Acceptance test for the always-on compile service: the seeded
//! chaos/soak harness at full scale (the same run the CI `soaks` job
//! executes via `wserve`) must hold every robustness invariant —
//! no lost or duplicated responses, rejections with retry hints,
//! poison quarantined without collateral damage, bounded queue, clean
//! mid-flight shutdown — and the whole run must be a pure function of
//! the seed.

use warp::serve::scenario::{run_soak, SoakConfig, Verdict};

/// The acceptance configuration: ≥4 workers, ≥200 jobs, a nonzero
/// poison fraction, overload probes at 1×/4×/16×.
fn acceptance_config() -> SoakConfig {
    let config = SoakConfig::default();
    assert!(config.workers >= 4);
    assert!(config.jobs >= 200);
    assert!(config.poison_per_mille > 0);
    assert_eq!(config.overload_factors, vec![1, 4, 16]);
    config
}

fn run(config: &SoakConfig) -> Verdict {
    // The poison classes panic by design; silence their backtraces.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_soak(config);
    std::panic::set_hook(hook);
    report
}

#[test]
fn full_soak_holds_every_invariant() {
    let config = acceptance_config();
    let report = run(&config);

    // The harness records violations instead of panicking; a clean run
    // means exactly-one-response, retry hints on every rejection, no
    // queue overflow, no collateral quarantine, and a clean abort.
    assert!(
        report.is_clean(),
        "soak violations: {:#?}",
        report.violations
    );
    assert!(report.counter("accepted") >= config.jobs as u64);
    assert_eq!(
        report.identity.len() as u64,
        report.counter("accepted"),
        "every accepted job reports exactly once"
    );

    // Both poison classes are quarantined; the bombs (unique names)
    // never are — a clean run has no collateral quarantine, so two
    // quarantined names are exactly `POISON_ICE` and `POISON_SYNTAX`.
    assert_eq!(report.counter("quarantined"), 2);

    // Healthy jobs are untouched by the chaos around them.
    for (name, label) in &report.identity {
        if !name.starts_with("poison-")
            && !name.starts_with("bomb#")
            && !name.starts_with("shutdown#")
        {
            assert!(
                label == "ok" || label == "degraded",
                "healthy `{name}` ended `{label}`"
            );
        }
    }

    // The content-addressed cache carries the repeated mix.
    let served = report.counter("cache-hits") + report.counter("cache-negative-hits");
    let lookups = report.counter("cache-lookups");
    assert!(
        2 * served > lookups,
        "cache served {served} of {lookups} lookups"
    );

    // Graceful saturation: nothing sheds at 1×, exactly the overflow
    // sheds at 4× and 16× (admission is lockstep, so these are exact).
    assert_eq!(report.counter("overload-1x-shed"), 0);
    let cap = config.queue_capacity as u64;
    assert_eq!(report.counter("overload-4x-shed"), 3 * cap);
    assert_eq!(report.counter("overload-16x-shed"), 15 * cap);
    assert!(report.counter("max-queue-depth") <= cap);
}

#[test]
fn same_seed_twice_gives_identical_outcome_sets() {
    // The loom-free determinism guard: per-name FIFO dispatch plus
    // lockstep admission make the sorted (name, label) multiset — and
    // the shed counts and quarantine set — a pure function of the
    // seed, regardless of thread interleaving.
    let config = acceptance_config();
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.identity, b.identity);
    // Shed, accepted, quarantine and cache-hit counts included.
    assert_eq!(a.counters, b.counters);
}
