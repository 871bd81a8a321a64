//! `wserve` — the seeded chaos scenarios for the compile service.
//!
//! ```text
//! wserve              [--seed N] [--jobs N] [--workers N] [--poison-per-mille N]
//! wserve --wedge-soak [--seed N] [--jobs N] [--workers N]
//! wserve --crash-soak [--seed N]
//!        ... [--check-determinism]
//! ```
//!
//! The default scenario is the chaos soak: a live `CompileDaemon`
//! under a deterministic Zipfian load mix with a seeded poison
//! fraction (syntax crashers, injected panics, cancel bombs), shed
//! probes at 1×/4×/16× overload, and a final wave aborted mid-flight.
//!
//! `--wedge-soak` runs the wedge storm against the heartbeat
//! supervisor: jobs that spin without polling cancellation (once or
//! on every run) plus injected native-backend faults. Every stalled
//! job must be detected, reported exactly once as `wedged`, and its
//! worker replaced; previously-wedged names escalate through the
//! `SIGKILL`able subprocess rung (hard wedges end quarantined,
//! transient ones recover); native faults are re-served by the sim
//! fallback.
//!
//! `--crash-soak` runs the durability scenario: a persistent artifact
//! store is killed at a seeded crash-point each simulated process
//! lifetime (plus seeded torn writes, bit flips, and `ENOSPC`),
//! restarted, and checked — no corrupt artifact is ever served
//! (bitwise against fresh compiles) and recovery is total.
//!
//! Every scenario runs on a manual clock, prints its verdict as
//! `key=value` counters, and writes no file. `--check-determinism`
//! runs the same seed twice and requires identical verdicts. Exit code
//! is non-zero on any invariant violation (lost or duplicated
//! response, rejection without a retry hint, queue overflow, lost
//! worker, collateral quarantine, corrupt artifact served, lost store
//! entry), on a run that proved nothing (no wedge injected, no
//! crash-point fired), or on a determinism mismatch.

use std::process::ExitCode;

use warp_compiler::crash::{run_crash_soak, CrashSoakConfig, CRASH_FLOORS};
use warp_compiler::isolate;
use warp_compiler::scenario::{
    run_soak, run_wedge_soak, SoakConfig, Verdict, WedgeSoakConfig, SOAK_FLOORS, WEDGE_FLOORS,
};

fn usage() -> ! {
    eprintln!(
        "usage: wserve [--wedge-soak | --crash-soak] [--seed N] [--jobs N] [--workers N]\n\
         \x20             [--poison-per-mille N] [--check-determinism]"
    );
    std::process::exit(2)
}

/// Runs `scenario` (twice under `check_determinism`), prints its
/// counters, and turns [`Verdict::failures`] into the exit code.
fn run(
    name: &str,
    seed: u64,
    floors: &[&str],
    check_determinism: bool,
    scenario: impl Fn() -> Verdict,
) -> ExitCode {
    let verdict = scenario();
    let rerun = check_determinism.then(&scenario);

    let counters: Vec<String> = verdict
        .counters
        .iter()
        .map(|(key, n)| format!("{key}={n}"))
        .collect();
    println!("{name}: seed={seed} {}", counters.join(" "));

    let failures = verdict.failures(floors, rerun.as_ref());
    for failure in &failures {
        eprintln!("FAIL: {failure}");
    }
    if !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    if check_determinism {
        println!("determinism: two runs with seed {seed} agree");
    }
    ExitCode::SUCCESS
}

fn parse_num<T: std::str::FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
    let value = args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} expects a value");
        std::process::exit(2)
    });
    value.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects a non-negative integer, got `{value}`");
        std::process::exit(2)
    })
}

fn main() -> ExitCode {
    // When re-exec'd as a hard-isolation child (the wedge storm's
    // escalation rung re-execs this binary) this never returns.
    isolate::maybe_run_child();

    let mut config = SoakConfig::default();
    let mut wedge_config = WedgeSoakConfig::default();
    let mut crash_config = CrashSoakConfig::default();
    let mut crash_mode = false;
    let mut wedge_mode = false;
    let mut check_determinism = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--crash-soak" => crash_mode = true,
            "--wedge-soak" => wedge_mode = true,
            "--seed" => {
                config.seed = parse_num("--seed", &mut args);
                crash_config.seed = config.seed;
                wedge_config.seed = config.seed;
            }
            "--jobs" => {
                config.jobs = parse_num("--jobs", &mut args);
                wedge_config.jobs = config.jobs;
            }
            "--workers" => {
                config.workers = parse_num("--workers", &mut args);
                wedge_config.workers = config.workers;
            }
            "--poison-per-mille" => {
                config.poison_per_mille = parse_num("--poison-per-mille", &mut args);
                if config.poison_per_mille > 1000 {
                    eprintln!("error: --poison-per-mille must be at most 1000");
                    return ExitCode::from(2);
                }
            }
            "--check-determinism" => check_determinism = true,
            _ => usage(),
        }
    }

    if crash_mode {
        return run(
            "crash soak",
            crash_config.seed,
            CRASH_FLOORS,
            check_determinism,
            || run_crash_soak(&crash_config),
        );
    }
    if wedge_mode {
        wedge_config.workers = warp_service::effective_workers(wedge_config.workers);
        // The escalation rung re-execs this very binary (the child
        // hook at the top of main makes that safe).
        wedge_config.isolate_exe = std::env::current_exe().ok();
        return run(
            "wedge storm",
            wedge_config.seed,
            WEDGE_FLOORS,
            check_determinism,
            || run_wedge_soak(&wedge_config),
        );
    }
    config.workers = warp_service::effective_workers(config.workers);
    // The chaos classes panic by design; keep their backtraces off the
    // console (the pool already contains them).
    std::panic::set_hook(Box::new(|_| {}));
    run(
        "chaos soak",
        config.seed,
        SOAK_FLOORS,
        check_determinism,
        || run_soak(&config),
    )
}
