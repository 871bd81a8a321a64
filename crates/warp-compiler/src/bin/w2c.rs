//! `w2c` — the W2 compiler command line.
//!
//! ```text
//! w2c FILE.w2 [--no-opt] [--unroll K] [--no-pipeline] [--rewrite-fuel N]
//!             [--emit KIND] [--dump-after PASS] [--time-passes]
//!             [--run NAME=v1,v2,... ...] [--cells N] [--check]
//!             [--audit-guarantees] [--inject SPEC] [--backend sim|native]
//! w2c FILE.w2 --differential-check [--seed S] [--inject SPEC]
//!             [--backend sim|native|all]
//! w2c --differential N [--seed S] [--repro-dir DIR] [--inject SPEC]
//!             [--backend sim|native|all]
//! w2c --fuzz N [--seed S] [--repro-dir DIR] [--backend sim|native]
//! w2c --corpus NAME [same flags]        (polynomial, conv1d, binop,
//!                                        colorseg, mandelbrot)
//! w2c --corpus all [--time-passes] [--audit-guarantees]
//! ```
//!
//! Compiles a W2 module and prints metrics, optionally per-pass
//! timings and artifact dumps, optionally a microcode listing, and
//! optionally simulates it with the given inputs.
//!
//! `--audit-guarantees` runs the guarantee audit (tightness of the
//! claimed skew and queue bounds, plus a fault-detection sweep) on the
//! compiled module; with `--corpus all` it audits the size-scaled
//! audit corpus and prints a per-program summary. `--inject SPEC`
//! simulates under an explicit fault plan (e.g.
//! `seed=7,skew=-1,drop=X:0`) and prints the structured fault report
//! if an invariant trips.
//!
//! `--differential N` generates N seeded programs, compiles each
//! through the full pipeline, and compares the simulation bitwise
//! against the reference oracle; disagreements are shrunk and (with
//! `--repro-dir`) written as self-describing repro files. `FILE.w2
//! --differential-check` replays one such repro: the same compile,
//! run, and comparison for a single program. Combined with `--inject`
//! both modes check a deliberately perturbed build, which must be
//! caught.
//!
//! `--fuzz N` runs N seeded byte/token mutations of the corpus through
//! the guarded pipeline and demands a structured verdict for each —
//! compiled, rejected, budget-stopped, or overflow-stopped. Any panic
//! is caught, line-shrunk, and (with `--repro-dir`) written as a
//! replayable `fuzz-<seed>.w2` file; the exit code is non-zero.
//!
//! `--backend` selects the executor(s): `sim` (default) keeps the
//! cycle-level simulator, `native` uses the `warp-native` fast path
//! (for `--run`, `--differential*`, and `--fuzz`, which then also
//! executes every compiling input natively), and `all` makes the
//! differential modes three-way — oracle, simulator, and native
//! compared pairwise, so a mismatch localizes to one executor.

use std::process::ExitCode;
use std::time::Duration;
use warp_common::{observe, Artifact, CollectDumps, CollectTimings, PassObserver};
use warp_compiler::{
    audit, corpus, differential, fuzz, passes, service, CompileOptions, CompiledModule,
    ExecBackend, ServiceConfig, Session, SessionCtrl,
};
use warp_ir::LowerOptions;
use warp_service::JobOutcome;
use warp_sim::{FaultPlan, SimOptions};

/// `--emit` kinds: the Table 7-1 metrics and listings, plus one kind
/// per dumpable pass artifact.
const EMIT_KINDS: [(&str, Option<&str>); 10] = [
    ("metrics", None),
    ("cell", None),
    ("iu", None),
    // Per-pass artifact dumps (equivalent to --dump-after <pass>).
    ("hir", Some("frontend")),
    ("comm", Some("comm")),
    ("ir", Some("lower")),
    ("rewrite", Some("rewrite")),
    ("decompose", Some("decompose")),
    ("skew", Some("skew")),
    ("host", Some("host-codegen")),
];

struct Args {
    source: Option<(String, String)>,
    corpus_all: bool,
    emit: Vec<String>,
    dump_after: Vec<String>,
    time_passes: bool,
    runs: Vec<(String, Vec<f32>)>,
    opts: CompileOptions,
    ctrl: SessionCtrl,
    cells: Option<u32>,
    check: bool,
    audit: bool,
    inject: Option<FaultPlan>,
    differential: Option<usize>,
    differential_check: bool,
    fuzz: Option<usize>,
    seed: Option<u64>,
    repro_dir: Option<std::path::PathBuf>,
    backend: differential::BackendSel,
}

fn usage() -> ! {
    let emit_kinds: Vec<&str> = EMIT_KINDS.iter().map(|(k, _)| *k).collect();
    let pass_names: Vec<&str> = passes::pass_names().collect();
    eprintln!(
        "usage: w2c FILE.w2 [--no-opt] [--unroll K] [--no-pipeline]\n\
         \x20           [--rewrite-fuel N] [--emit KIND]\n\
         \x20           [--dump-after PASS] [--time-passes]\n\
         \x20           [--run NAME=v1,v2,...] [--cells N] [--check]\n\
         \x20           [--audit-guarantees] [--inject SPEC]\n\
         \x20      w2c FILE.w2 --differential-check [--seed S] [--inject SPEC]\n\
         \x20                  [--backend sim|native|all]\n\
         \x20      w2c --differential N [--seed S] [--repro-dir DIR] [--inject SPEC]\n\
         \x20                  [--backend sim|native|all]\n\
         \x20      w2c --fuzz N [--seed S] [--repro-dir DIR] [--backend sim|native]\n\
         \x20      w2c --corpus NAME [same flags]\n\
         \x20      w2c --corpus all [--time-passes] [--audit-guarantees]\n\
         \x20  --emit KIND: one of {}\n\
         \x20  --dump-after PASS: one of {}\n\
         \x20  --no-pipeline: disable modulo scheduling of innermost loops\n\
         \x20      (cell loop bodies keep their list schedules)\n\
         \x20  --rewrite-fuel N: cap the mid-end at N pattern applications\n\
         \x20  --time-passes: print the per-pass timing table\n\
         \x20  --check: also execute the reference interpreter and compare\n\
         \x20  --audit-guarantees: verify the static skew/queue claims are\n\
         \x20      tight and every injectable fault class is detected\n\
         \x20  --differential N: fuzz N generated programs against the\n\
         \x20      reference oracle, shrinking any disagreement\n\
         \x20  --differential-check: compile FILE and compare simulator vs\n\
         \x20      oracle once (the repro-replay mode)\n\
         \x20  --fuzz N: run N mutated inputs through the guarded pipeline;\n\
         \x20      any panic is caught, shrunk, and reported\n\
         \x20  --backend B: which executor(s) run compiled modules —\n\
         \x20      sim (cycle-level simulator, default), native (fast\n\
         \x20      whole-array execution), or all (three-way differential:\n\
         \x20      oracle vs simulator vs native, pairwise). With --run,\n\
         \x20      native executes on the native backend; with --fuzz,\n\
         \x20      native also executes every compiling input natively\n\
         \x20  --seed S: root seed for --differential / --fuzz, input seed\n\
         \x20      for --differential-check (default 1)\n\
         \x20  --repro-dir DIR: where --differential / --fuzz write shrunk\n\
         \x20      repros\n\
         \x20  --inject SPEC: simulate under a fault plan, e.g.\n\
         \x20      seed=7,skew=-1,queue=4,budget=500,drop=X:0,corrupt=Y:3,\n\
         \x20      truncate=X:10,adr-delay=100@2,adr-drop=5,adr-corrupt=0:4096,\n\
         \x20      flip-flow",
        emit_kinds.join("|"),
        pass_names.join("|"),
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        source: None,
        corpus_all: false,
        emit: Vec::new(),
        dump_after: Vec::new(),
        time_passes: false,
        runs: Vec::new(),
        opts: CompileOptions::default(),
        ctrl: SessionCtrl::default(),
        cells: None,
        check: false,
        audit: false,
        inject: None,
        differential: None,
        differential_check: false,
        fuzz: None,
        seed: None,
        repro_dir: None,
        backend: differential::BackendSel::default(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => parsed.check = true,
            "--audit-guarantees" => parsed.audit = true,
            "--inject" => {
                let spec = args.next().unwrap_or_else(|| usage());
                match spec.parse::<FaultPlan>() {
                    Ok(plan) => parsed.inject = Some(plan),
                    Err(e) => {
                        eprintln!("bad --inject spec: {e}\n");
                        usage();
                    }
                }
            }
            "--differential" => {
                let n = args.next().unwrap_or_else(|| usage());
                parsed.differential = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--differential-check" => parsed.differential_check = true,
            "--fuzz" => {
                let n = args.next().unwrap_or_else(|| usage());
                parsed.fuzz = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--seed" => {
                let s = args.next().unwrap_or_else(|| usage());
                parsed.seed = Some(s.parse().unwrap_or_else(|_| usage()));
            }
            "--repro-dir" => {
                let dir = args.next().unwrap_or_else(|| usage());
                parsed.repro_dir = Some(std::path::PathBuf::from(dir));
            }
            "--backend" => {
                let b = args.next().unwrap_or_else(|| usage());
                match b.parse::<differential::BackendSel>() {
                    Ok(sel) => {
                        parsed.backend = sel;
                        // The request-level backend recorded with the
                        // compile (and in the cache key).
                        parsed.ctrl.backend = match sel {
                            differential::BackendSel::Sim => ExecBackend::Sim,
                            _ => ExecBackend::Native,
                        };
                    }
                    Err(e) => {
                        eprintln!("bad --backend: {e}\n");
                        usage();
                    }
                }
            }
            "--no-pipeline" => parsed.ctrl.pipeline = false,
            "--rewrite-fuel" => {
                let n = args.next().unwrap_or_else(|| usage());
                parsed.ctrl.rewrite_fuel = Some(n.parse().unwrap_or_else(|_| usage()));
            }
            "--time-passes" => parsed.time_passes = true,
            "--no-opt" => {
                parsed.opts.lower = LowerOptions {
                    optimize: false,
                    ..parsed.opts.lower.clone()
                }
            }
            "--unroll" => {
                let k = args.next().unwrap_or_else(|| usage());
                parsed.opts.lower.unroll = k.parse().unwrap_or_else(|_| usage());
            }
            "--emit" => {
                let kind = args.next().unwrap_or_else(|| usage());
                if !EMIT_KINDS.iter().any(|(k, _)| *k == kind) {
                    eprintln!("unknown --emit kind `{kind}`\n");
                    usage();
                }
                parsed.emit.push(kind);
            }
            "--dump-after" => {
                let pass = args.next().unwrap_or_else(|| usage());
                if passes::find_pass(&pass).is_none() {
                    eprintln!("unknown pass `{pass}` for --dump-after\n");
                    usage();
                }
                parsed.dump_after.push(pass);
            }
            "--cells" => {
                let n = args.next().unwrap_or_else(|| usage());
                let n: u32 = n.parse().unwrap_or_else(|_| usage());
                if n == 0 {
                    eprintln!("--cells must be at least 1\n");
                    usage();
                }
                parsed.cells = Some(n);
            }
            "--run" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let (name, vals) = spec.split_once('=').unwrap_or_else(|| usage());
                let data: Vec<f32> = vals
                    .split(',')
                    .map(|v| v.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                parsed.runs.push((name.to_owned(), data));
            }
            "--corpus" => {
                let name = args.next().unwrap_or_else(|| usage());
                if name == "all" {
                    parsed.corpus_all = true;
                    continue;
                }
                let Some((_, src)) = corpus::TABLE_7_1.iter().find(|(n, _)| *n == name) else {
                    eprintln!("unknown corpus program `{name}`");
                    std::process::exit(2);
                };
                parsed.source = Some((name, (*src).to_owned()));
            }
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => {
                let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read `{path}`: {e}");
                    std::process::exit(2);
                });
                parsed.source = Some((path.to_owned(), source));
            }
            _ => usage(),
        }
    }
    if parsed.corpus_all {
        if parsed.source.is_some()
            || !parsed.runs.is_empty()
            || !parsed.emit.is_empty()
            || !parsed.dump_after.is_empty()
            || parsed.check
            || parsed.inject.is_some()
        {
            eprintln!(
                "--corpus all batch-compiles the whole corpus; it only combines with \
                 compilation options, --time-passes, and --audit-guarantees\n"
            );
            usage();
        }
    } else if parsed.source.is_none() && parsed.differential.is_none() && parsed.fuzz.is_none() {
        usage();
    }
    if parsed.differential_check && parsed.source.is_none() {
        eprintln!("--differential-check needs a FILE to check\n");
        usage();
    }
    parsed
}

/// Passes whose artifacts must be captured: explicit `--dump-after`
/// plus the pass-mapped `--emit` kinds, in request order, deduplicated.
fn wanted_dumps(args: &Args) -> Vec<String> {
    let mut wanted: Vec<String> = Vec::new();
    let mapped = args.emit.iter().filter_map(|kind| {
        EMIT_KINDS
            .iter()
            .find(|(k, _)| k == kind)
            .and_then(|(_, pass)| *pass)
            .map(str::to_owned)
    });
    for pass in args.dump_after.iter().cloned().chain(mapped) {
        if !wanted.contains(&pass) {
            wanted.push(pass);
        }
    }
    wanted
}

fn print_summary(module: &CompiledModule, source_name: &str) {
    println!(
        "compiled `{}` ({}) for {} cells",
        module.name, source_name, module.n_cells
    );
    println!("  W2 lines      : {}", module.metrics.w2_lines);
    println!("  cell ucode    : {}", module.metrics.cell_ucode);
    println!("  IU ucode      : {}", module.metrics.iu_ucode);
    println!("  IU registers  : {}", module.iu.regs_used);
    println!("  IU table words: {}", module.iu.table.len());
    println!("  min skew      : {}", module.skew.min_skew);
    println!("  queue bound   : {:?}", module.skew.queue_occupancy);
}

/// The single-module driver's observer: artifact dumps for
/// `--dump-after` / `--emit`, pass times for `--time-passes`.
struct Observers {
    dumps: CollectDumps,
    timings: CollectTimings,
}

impl PassObserver for Observers {
    fn exit_pass(&mut self, name: &'static str, elapsed: Duration, artifact: &dyn Artifact) {
        self.dumps.exit_pass(name, elapsed, artifact);
        self.timings.exit_pass(name, elapsed, artifact);
    }
}

fn print_time_passes(module_name: &str, timings: &CollectTimings) {
    println!("\nper-pass timing for `{module_name}`:");
    let table = observe::timing_table(&timings.timings, timings.total());
    for line in table.lines() {
        println!("  {line}");
    }
}

fn corpus_all(args: &Args) -> ExitCode {
    if args.audit {
        return corpus_audit(args);
    }
    // Batch-compile through the compile service so the summary carries
    // per-job wall times and resilience outcomes (degraded, timed out,
    // quarantined), not just pass/fail.
    let named: Vec<(String, String)> = corpus::TABLE_7_1
        .iter()
        .map(|(name, src)| ((*name).to_owned(), (*src).to_owned()))
        .collect();
    let batch = service::compile_batch_named(
        named,
        &args.opts,
        &args.ctrl,
        // Inert: no deadline, retry or breaker, and five jobs fit the
        // default queue.
        &ServiceConfig::default(),
    );
    println!(
        "{:<12} {:>9} {:>11} {:>9} {:>6} {:>6}",
        "name", "W2 lines", "cell ucode", "IU ucode", "skew", "cells"
    );
    let mut failed = 0usize;
    for job in &batch.jobs {
        match &job.outcome {
            JobOutcome::Success(s) => {
                let m = &s.value;
                println!(
                    "{:<12} {:>9} {:>11} {:>9} {:>6} {:>6}",
                    job.name,
                    m.metrics.w2_lines,
                    m.metrics.cell_ucode,
                    m.metrics.iu_ucode,
                    m.skew.min_skew,
                    m.n_cells,
                );
            }
            JobOutcome::Failed {
                error: warp_compiler::CompileFailure::Diagnostics(diags),
                ..
            } => {
                failed += 1;
                eprintln!("{}: FAILED\n{diags}", job.name);
            }
            other => {
                failed += 1;
                eprintln!("{}: {}", job.name, other.label());
            }
        }
    }
    print!("{}", batch.summary());
    if args.time_passes {
        // Pass times are observed, not stored: compile each program once
        // more on this thread under the timing observer.
        for (name, src) in corpus::TABLE_7_1 {
            let mut timings = CollectTimings::default();
            let session = Session::with_observer(args.opts.clone(), &mut timings)
                .with_ctrl(args.ctrl.clone());
            if session.compile(src).is_ok() {
                print_time_passes(name, &timings);
            }
        }
    }
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--corpus all --audit-guarantees`: audit the size-scaled corpus and
/// summarize per program. Any failed check — or failed compile — fails
/// the run, but never stops the rest of the batch.
fn corpus_audit(args: &Args) -> ExitCode {
    let results = audit::audit_corpus(&audit::AuditOptions::default(), &args.opts, &args.ctrl);
    let total = results.len();
    let mut failed = 0usize;
    for (name, result) in results {
        match result {
            Ok(report) => {
                if report.passed() {
                    let (passed, _, skipped) = report.tally();
                    println!("{name:<12} PASS ({passed} checks, {skipped} n/a)");
                } else {
                    failed += 1;
                    println!("{report}");
                }
            }
            Err(diags) => {
                failed += 1;
                eprintln!("{name}: compile FAILED\n{diags}");
            }
        }
    }
    println!("guarantee audit: {} ok, {failed} failed", total - failed);
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--differential N`: the generate → compile → simulate → compare
/// loop of [`differential::run_differential`], with mismatch repros
/// shrunk and written to `--repro-dir`. Exits non-zero on any
/// mismatch, generator rejection, or oracle error — a clean compiler
/// and a clean generator produce all-agree runs.
fn run_differential(args: &Args, cases: usize) -> ExitCode {
    let opts = differential::DiffOptions {
        cases,
        seed: args.seed.unwrap_or(1),
        compile: args.opts.clone(),
        pipeline: args.ctrl.pipeline,
        inject: args.inject.clone(),
        repro_dir: args.repro_dir.clone(),
        backend: args.backend,
        ..differential::DiffOptions::default()
    };
    let report = differential::run_differential(&opts);
    print!("{report}");
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--fuzz N`: mutated inputs through the guarded pipeline via
/// [`fuzz::run_fuzz`], with caught panics shrunk and written to
/// `--repro-dir`. Exits non-zero on any crash — a total compiler
/// produces crash-free runs on every seed.
fn run_fuzz(args: &Args, cases: usize) -> ExitCode {
    let opts = fuzz::FuzzOptions {
        cases,
        seed: args.seed.unwrap_or(1),
        compile: args.opts.clone(),
        pipeline: args.ctrl.pipeline,
        repro_dir: args.repro_dir.clone(),
        // `all` has no extra meaning for fuzzing: anything beyond sim
        // exercises the native executor on every compiling input.
        backend: if args.backend == differential::BackendSel::Sim {
            ExecBackend::Sim
        } else {
            ExecBackend::Native
        },
        ..fuzz::FuzzOptions::default()
    };
    let report = fuzz::run_fuzz(&opts);
    print!("{report}");
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `FILE --differential-check`: one compile + simulate + bitwise
/// oracle comparison — the replay half of the repro workflow the
/// shrunk `.w2` files name in their header comment.
fn differential_check(args: &Args, source: &str, source_name: &str) -> ExitCode {
    let opts = differential::DiffOptions {
        compile: args.opts.clone(),
        pipeline: args.ctrl.pipeline,
        inject: args.inject.clone(),
        backend: args.backend,
        ..differential::DiffOptions::default()
    };
    let input_seed = args.seed.unwrap_or(1);
    match differential::check_case(source, input_seed, &opts) {
        differential::CaseOutcome::Agree => {
            let who = match opts.backend {
                differential::BackendSel::Sim => "simulator agrees with the oracle",
                differential::BackendSel::Native => "native backend agrees with the oracle",
                differential::BackendSel::All => {
                    "oracle, simulator, and native backend agree pairwise"
                }
            };
            println!("differential check `{source_name}`: {who}");
            ExitCode::SUCCESS
        }
        differential::CaseOutcome::Rejected(d) => {
            eprintln!("differential check `{source_name}`: program rejected\n{d}");
            ExitCode::FAILURE
        }
        differential::CaseOutcome::Budget(d) => {
            eprintln!("differential check `{source_name}`: budget exhausted: {d}");
            ExitCode::FAILURE
        }
        differential::CaseOutcome::OracleError(d) => {
            eprintln!("differential check `{source_name}`: oracle error: {d}");
            ExitCode::FAILURE
        }
        differential::CaseOutcome::Mismatch(d) => {
            eprintln!("differential check `{source_name}`: MISMATCH: {d}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.corpus_all {
        return corpus_all(&args);
    }
    if let (Some(cases), None) = (args.differential, &args.source) {
        return run_differential(&args, cases);
    }
    if let (Some(cases), None) = (args.fuzz, &args.source) {
        return run_fuzz(&args, cases);
    }
    let (source_name, source) = args.source.clone().expect("checked by parse_args");
    if args.differential_check {
        return differential_check(&args, &source, &source_name);
    }

    let mut observers = Observers {
        dumps: CollectDumps::for_passes(wanted_dumps(&args)),
        timings: CollectTimings::default(),
    };
    let session =
        Session::with_observer(args.opts.clone(), &mut observers).with_ctrl(args.ctrl.clone());
    let module = match session.compile(&source) {
        Ok(m) => m,
        Err(diags) => {
            for d in &diags {
                eprintln!("{}", d.render(&source));
            }
            // Any error-severity diagnostic means the compile failed;
            // warnings alone never reach this path (the front end
            // returns Ok and carries them on the module).
            return ExitCode::FAILURE;
        }
    };
    for w in &module.warnings {
        eprintln!("{}", w.render(&source));
    }

    print_summary(&module, &source_name);
    if args.time_passes {
        print_time_passes(&module.name, &observers.timings);
    }

    for dump in observers.dumps.dumps() {
        println!("\n=== dump after {} ({}) ===", dump.pass, dump.kind);
        print!("{}", dump.text);
    }

    for what in args.emit.iter().map(String::as_str) {
        match what {
            "cell" => println!("\n{}", module.cell_code.listing()),
            "iu" => println!("\n{}", module.iu.listing()),
            // "metrics" is the always-printed summary; pass-mapped
            // kinds were rendered through the dump observer above.
            _ => {}
        }
    }

    if args.audit {
        let report = audit::audit(&module, &audit::AuditOptions::default());
        println!("\n{report}");
        if !report.passed() {
            return ExitCode::FAILURE;
        }
    }

    if let Some(plan) = &args.inject {
        // Simulate under the fault plan, with the caller's inputs if
        // given, otherwise the audit's seeded inputs.
        let owned;
        let inputs: Vec<(&str, &[f32])> = if args.runs.is_empty() {
            owned = audit::seeded_inputs(&module, plan.seed);
            owned
                .iter()
                .map(|(n, d)| (n.as_str(), d.as_slice()))
                .collect()
        } else {
            args.runs
                .iter()
                .map(|(n, d)| (n.as_str(), d.as_slice()))
                .collect()
        };
        let n_cells = args.cells.unwrap_or(module.n_cells);
        println!("\ninjecting: {plan}");
        let opts = SimOptions {
            plan: plan.clone(),
            claims: Some(module.claims()),
            ..SimOptions::default()
        };
        match module.run_audited(n_cells, module.skew.min_skew, &inputs, &opts) {
            Ok(report) => {
                println!(
                    "run survived the fault plan: {} cycles, {} FLOPs (outputs may still \
                     be corrupted — compare against a clean run)",
                    report.cycles, report.fp_ops
                );
            }
            Err(fault) => {
                println!("{fault}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    if !args.runs.is_empty() && args.backend == differential::BackendSel::Native {
        // `--run --backend native`: execute on the native backend.
        // Untimed — no cycle count — but bitwise the same words.
        let inputs: Vec<(&str, &[f32])> = args
            .runs
            .iter()
            .map(|(n, d)| (n.as_str(), d.as_slice()))
            .collect();
        match module.run_native(&inputs, &warp_native::NativeOptions::default()) {
            Ok(report) => {
                println!(
                    "\nran natively on {} cells: {} FLOPs, {} boundary word(s) out",
                    module.n_cells, report.fp_ops, report.words_out
                );
                for name in module
                    .ir
                    .vars
                    .iter()
                    .filter(|(_, v)| v.kind == w2_lang::hir::VarKind::Host)
                    .map(|(_, v)| v.name.clone())
                {
                    let data = match report.host.get(&name) {
                        Ok(d) => d,
                        Err(e) => {
                            eprintln!("cannot read host variable `{name}`: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let preview: Vec<String> =
                        data.iter().take(8).map(|v| format!("{v}")).collect();
                    println!(
                        "  {name} = [{}{}]",
                        preview.join(", "),
                        if data.len() > 8 { ", ..." } else { "" }
                    );
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("native execution failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if !args.runs.is_empty() {
        let inputs: Vec<(&str, &[f32])> = args
            .runs
            .iter()
            .map(|(n, d)| (n.as_str(), d.as_slice()))
            .collect();
        let n_cells = args.cells.unwrap_or(module.n_cells);
        match module.run_with(n_cells, module.skew.min_skew, &inputs) {
            Ok(report) => {
                println!(
                    "\nran on {} cells: {} cycles, {} FLOPs, {:.3} results/cycle",
                    n_cells,
                    report.cycles,
                    report.fp_ops,
                    report.throughput()
                );
                for name in module
                    .ir
                    .vars
                    .iter()
                    .filter(|(_, v)| v.kind == w2_lang::hir::VarKind::Host)
                    .map(|(_, v)| v.name.clone())
                {
                    let data = match report.host.get(&name) {
                        Ok(d) => d,
                        Err(e) => {
                            eprintln!("cannot read host variable `{name}`: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let preview: Vec<String> =
                        data.iter().take(8).map(|v| format!("{v}")).collect();
                    println!(
                        "  {name} = [{}{}]",
                        preview.join(", "),
                        if data.len() > 8 { ", ..." } else { "" }
                    );
                }
            }
            Err(e) => {
                eprintln!("simulation failed: {e}");
                return ExitCode::FAILURE;
            }
        }

        if args.check {
            let hir = match w2_lang::parse_and_check(&source) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("front end failed during --check: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut host = warp_host::HostMemory::new(&module.ir.vars);
            for (name, data) in &args.runs {
                if let Err(e) = host.set(name, data) {
                    eprintln!("--check setup failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            match warp_oracle::interpret(&hir, &host) {
                Ok(want) => {
                    let sim = match module.run_with(n_cells, module.skew.min_skew, &inputs) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("--check re-run failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let mut mismatches = 0usize;
                    for (_, v) in module.ir.vars.iter() {
                        if v.kind != w2_lang::hir::VarKind::Host {
                            continue;
                        }
                        let (a, b) = match (sim.host.get(&v.name), want.get(&v.name)) {
                            (Ok(a), Ok(b)) => (a, b),
                            (Err(e), _) | (_, Err(e)) => {
                                eprintln!("--check cannot read `{}`: {e}", v.name);
                                return ExitCode::FAILURE;
                            }
                        };
                        for k in 0..a.len() {
                            if a[k].to_bits() != b[k].to_bits() {
                                if mismatches < 5 {
                                    eprintln!(
                                        "  MISMATCH {}[{}]: array {} vs oracle {}",
                                        v.name, k, a[k], b[k]
                                    );
                                }
                                mismatches += 1;
                            }
                        }
                    }
                    if mismatches == 0 {
                        println!("\ncheck: simulated array agrees with the reference interpreter");
                    } else {
                        eprintln!("\ncheck FAILED: {mismatches} word(s) differ");
                        return ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("oracle failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
