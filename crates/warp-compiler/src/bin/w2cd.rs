//! `w2cd` — the long-running W2 compile service.
//!
//! ```text
//! w2cd [--deadline-ms N] [--queue-capacity N] [--max-attempts N]
//!      [--breaker-threshold N] [--skew-max-events N]
//!      [--max-cell-cycles N] [--max-source-bytes N] [--workers N]
//!      [--cache-bytes N] [--negative-ttl-ms N] [--listen PATH]
//!      [--store-dir PATH] [--store-bytes N]
//!      [--supervise-grace-ms N] [--supervise-interval-ms N]
//! w2cd --corpus [same flags]       (one-shot: queue Table 7-1, wait, exit)
//! ```
//!
//! With `--store-dir` the cache gains a crash-safe persistent disk
//! tier: artifacts survive restarts (warm hits without recompiling),
//! and the startup banner reports what the recovery scan found —
//! entries recovered intact, corrupt/stale entries quarantined, and
//! `.tmp` crash leftovers cleaned. `--store-bytes` caps the disk
//! tier (LRU eviction; 0 = unbounded).
//!
//! The daemon is built on the worker pool of `warp-service` (the same
//! job engine batch compiles use, left running) fronted by the
//! content-addressed compile cache:
//! workers compile the moment a job is admitted, `submit` returns a
//! job id immediately, and `run` waits for (and collects) the calling
//! client's jobs. Admission control, per-job deadlines and pipeline
//! budgets, panic isolation, and the per-program circuit breaker all
//! apply continuously — not just during an explicit batch drain.
//!
//! **Supervision is on by default**: every worker heartbeats at its
//! cooperative poll points, and a job whose heartbeat goes stale for
//! `--supervise-grace-ms` (default 10 000 ms; `0` disables) is
//! declared wedged, reported exactly once, and its worker replaced. A
//! previously-wedged name is retried through a hard-isolated,
//! `SIGKILL`able subprocess before it is allowed back in-process.
//! `health` reports the honest taxonomy — `healthy`, `degraded`, or
//! `critical` with the contributing reasons — instead of a
//! hard-coded all-clear.
//!
//! Two front ends share one daemon:
//!
//! * **stdin** (default): the single-client compatibility mode, same
//!   line protocol as before.
//! * **`--listen PATH`**: a Unix-domain socket accepting any number of
//!   concurrent clients, each with its own session (job set, exit
//!   accounting). All clients share the worker pool, cache, and
//!   breaker.
//!
//! The line protocol lives in `warp_compiler::protocol` (hardened:
//! 64 KiB line cap, non-UTF-8 lines rejected without ending the
//! session, hostile bytes never echoed raw):
//!
//! ```text
//! corpus NAME|all         queue a Table 7-1 program (or all five)
//! submit NAME FILE.w2 [sim|native]
//!                         queue a source file under NAME; the optional
//!                         backend token records which executor serves
//!                         the job's runs (default sim) and keys the
//!                         artifact cache per serving path
//! run                     wait for this client's jobs, print the batch summary
//! status                  per-job state (queued/running/done) and breaker state
//! health                  taxonomy verdict + live limits, one line
//! cache [clear]           cache counters (or drop both tiers, reporting bytes)
//! store                   disk-tier counters (recovered, quarantined, hits)
//! stats                   pool + native-serving counters
//! reset NAME              reopen the circuit breakers for NAME
//! quit                    end this client session (EOF works too)
//! shutdown                stop the daemon (socket mode; = quit on stdin)
//! ```
//!
//! The undocumented `--chaos-spin-marker` / `--chaos-native-marker`
//! flags arm the fault-injection hooks used by the supervision soak
//! and the README's two-terminal wedge demo; they have no effect on
//! jobs whose names avoid the marker.

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use warp_compiler::{
    cache::CacheConfig,
    daemon::{CompileDaemon, DaemonConfig},
    isolate,
    protocol::{banner, ClientSession},
    service::ServiceConfig,
    store::StoreConfig,
    CompileOptions,
};
use warp_service::{effective_workers, ExecutorConfig, ShutdownMode};

struct DaemonArgs {
    config: DaemonConfig,
    opts: CompileOptions,
    one_shot_corpus: bool,
    listen: Option<String>,
    chaos_spin_marker: Option<String>,
    chaos_native_marker: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: w2cd [--deadline-ms N] [--queue-capacity N] [--max-attempts N]\n\
         \x20           [--breaker-threshold N] [--skew-max-events N]\n\
         \x20           [--max-cell-cycles N] [--max-source-bytes N] [--workers N]\n\
         \x20           [--cache-bytes N] [--negative-ttl-ms N] [--listen PATH]\n\
         \x20           [--store-dir PATH] [--store-bytes N]\n\
         \x20           [--supervise-grace-ms N] [--supervise-interval-ms N]\n\
         \x20      w2cd --corpus [same flags]\n\
         \x20  protocol: corpus NAME|all, submit NAME FILE.w2 [sim|native], run, status,\n\
         \x20            health, cache [clear], store, stats, reset NAME, quit, shutdown"
    );
    std::process::exit(2)
}

/// Parses the operand of a numeric flag, naming the flag in the error
/// so `--workers banana` fails with a diagnosis, not a usage dump.
fn parse_u64(flag: &str, args: &mut impl Iterator<Item = String>) -> u64 {
    let Some(value) = args.next() else {
        eprintln!("error: {flag} expects a value");
        std::process::exit(2)
    };
    match value.parse() {
        Ok(v) => v,
        Err(_) => {
            eprintln!("error: {flag} expects a non-negative integer, got `{value}`");
            std::process::exit(2)
        }
    }
}

fn parse_string(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("error: {flag} expects a value");
        std::process::exit(2)
    })
}

fn parse_args() -> DaemonArgs {
    let mut parsed = DaemonArgs {
        config: DaemonConfig {
            service: ServiceConfig {
                exec: ExecutorConfig {
                    queue_capacity: 64,
                    // SystemClock ticks are microseconds; default to a
                    // 30-second budget per job, spanning retries.
                    deadline_ticks: 30_000_000,
                    max_attempts: 1,
                    breaker_threshold: 3,
                    ..ExecutorConfig::default()
                },
                // Generous defaults that the Table 7-1 corpus clears
                // easily but a pathological loop nest will not.
                skew_max_events: 50_000_000,
                max_cell_cycles: 100_000_000,
                // 4 MiB of W2 source is far beyond any real program but
                // cheap enough that an accidental paste can't wedge a
                // worker in the lexer.
                max_source_bytes: 4 * 1024 * 1024,
                // 0 = available parallelism, resolved at startup and
                // printed in the ready banner and `health`.
                workers: 0,
                // 10 s of heartbeat silence before a running job is
                // declared wedged; far past any cooperative-poll gap
                // in a healthy pipeline, far under a human's patience.
                supervise_grace_ticks: 10_000_000,
                supervise_interval_ms: 0,
            },
            cache: CacheConfig::default(),
            store: None,
        },
        opts: CompileOptions::default(),
        one_shot_corpus: false,
        listen: None,
        chaos_spin_marker: None,
        chaos_native_marker: None,
    };
    let mut store_dir: Option<String> = None;
    let mut store_bytes = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--corpus" => parsed.one_shot_corpus = true,
            "--deadline-ms" => {
                parsed.config.service.exec.deadline_ticks =
                    parse_u64(flag, &mut args).saturating_mul(1_000);
            }
            "--queue-capacity" => {
                parsed.config.service.exec.queue_capacity = parse_u64(flag, &mut args) as usize;
            }
            "--max-attempts" => {
                parsed.config.service.exec.max_attempts =
                    parse_u64(flag, &mut args).min(u64::from(u32::MAX)) as u32;
            }
            "--breaker-threshold" => {
                parsed.config.service.exec.breaker_threshold =
                    parse_u64(flag, &mut args).min(u64::from(u32::MAX)) as u32;
            }
            "--skew-max-events" => {
                parsed.config.service.skew_max_events = parse_u64(flag, &mut args);
            }
            "--max-cell-cycles" => {
                parsed.config.service.max_cell_cycles = parse_u64(flag, &mut args);
            }
            "--max-source-bytes" => {
                parsed.config.service.max_source_bytes = parse_u64(flag, &mut args);
            }
            "--workers" => {
                parsed.config.service.workers = parse_u64(flag, &mut args) as usize;
            }
            "--supervise-grace-ms" => {
                parsed.config.service.supervise_grace_ticks =
                    parse_u64(flag, &mut args).saturating_mul(1_000);
            }
            "--supervise-interval-ms" => {
                parsed.config.service.supervise_interval_ms = parse_u64(flag, &mut args);
            }
            "--cache-bytes" => {
                parsed.config.cache.byte_budget = parse_u64(flag, &mut args);
            }
            "--negative-ttl-ms" => {
                parsed.config.cache.negative_ttl_ticks =
                    parse_u64(flag, &mut args).saturating_mul(1_000);
            }
            "--listen" => parsed.listen = Some(parse_string(flag, &mut args)),
            "--store-dir" => store_dir = Some(parse_string(flag, &mut args)),
            "--store-bytes" => {
                store_bytes = parse_u64(flag, &mut args);
            }
            "--chaos-spin-marker" => {
                parsed.chaos_spin_marker = Some(parse_string(flag, &mut args));
            }
            "--chaos-native-marker" => {
                parsed.chaos_native_marker = Some(parse_string(flag, &mut args));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    match store_dir {
        Some(dir) => {
            parsed.config.store = Some(StoreConfig {
                dir: dir.into(),
                byte_budget: store_bytes,
            });
        }
        None if store_bytes != 0 => {
            eprintln!("error: --store-bytes requires --store-dir");
            std::process::exit(2)
        }
        None => {}
    }
    parsed
}

fn serve_listener(daemon: Arc<CompileDaemon>, path: &str) -> ExitCode {
    use std::io::{BufReader, Write};
    use std::sync::atomic::Ordering;

    let _ = std::fs::remove_file(path);
    let listener = match std::os::unix::net::UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind `{path}`: {e}");
            return ExitCode::from(2);
        }
    };
    println!("w2cd listening on {path} (workers {})", daemon.workers());
    let _ = std::io::stdout().flush();
    let stop = Arc::new(AtomicBool::new(false));
    let all_clean = Arc::new(AtomicBool::new(true));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let daemon = daemon.clone();
        let stop = stop.clone();
        let all_clean = all_clean.clone();
        let path = path.to_owned();
        std::thread::spawn(move || {
            let reader = match stream.try_clone() {
                Ok(r) => BufReader::new(r),
                Err(_) => return,
            };
            let mut out = stream;
            let mut session = ClientSession::new(&daemon);
            let _ = writeln!(out, "{}", banner(&daemon));
            session.serve(reader, &mut out);
            if !session.all_clean() {
                all_clean.store(false, Ordering::SeqCst);
            }
            if session.want_shutdown() {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop with a throwaway connection.
                let _ = std::os::unix::net::UnixStream::connect(&path);
            }
        });
    }
    daemon.shutdown(ShutdownMode::Drain);
    let _ = std::fs::remove_file(path);
    if all_clean.load(Ordering::SeqCst) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // When re-exec'd as a hard-isolation child this never returns;
    // it must run before anything touches the daemon machinery.
    isolate::maybe_run_child();

    let args = parse_args();
    // Resolve `--workers 0` once so every surface (banner, health,
    // stats) reports the effective parallelism.
    let mut config = args.config.clone();
    config.service.workers = effective_workers(config.service.workers);
    let mut daemon = CompileDaemon::with_system_clock(args.opts.clone(), config);
    if let Some(marker) = &args.chaos_spin_marker {
        // The daemon's own lifetime is the latch: zombie spinners die
        // with the process.
        daemon = daemon.with_chaos_spin_marker(marker, Arc::new(AtomicBool::new(false)));
    }
    if let Some(marker) = &args.chaos_native_marker {
        daemon = daemon.with_chaos_native_marker(marker);
    }

    if args.one_shot_corpus {
        let mut session = ClientSession::new(&daemon);
        let mut out = std::io::stdout();
        if session.queue_corpus(&mut out, "all").is_err() || session.run(&mut out).is_err() {
            return ExitCode::FAILURE;
        }
        use std::io::Write;
        let _ = out.flush();
        let clean = session.all_clean();
        daemon.shutdown(ShutdownMode::Drain);
        return if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if let Some(path) = &args.listen {
        return serve_listener(Arc::new(daemon), path);
    }

    println!("{}", banner(&daemon));
    let mut session = ClientSession::new(&daemon);
    let mut out = std::io::stdout();
    session.serve(std::io::stdin().lock(), &mut out);
    let clean = session.all_clean();
    daemon.shutdown(ShutdownMode::Drain);
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
