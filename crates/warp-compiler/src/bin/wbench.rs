//! `wbench` — the compile-and-run benchmark harness.
//!
//! ```text
//! wbench [--corpus-dir DIR] [--out FILE] [--seed S]
//! ```
//!
//! Compiles every `*.w2` program under `--corpus-dir`
//! (default `corpus/`) twice — modulo-scheduled and `--no-pipeline`
//! baseline — simulates both builds on seeded inputs, prints the
//! comparison table, and writes the machine-readable report to `--out`
//! (default `BENCH_compile.json`).
//!
//! Exit code is non-zero if any program fails to compile or run, if any
//! program's simulated cycles regress under pipelining, or if fewer than
//! three improve — the acceptance bar the CI `bench-smoke` job enforces.
//! (Simulator-vs-native speed is the benchmark's `exec_sim` /
//! `exec_native` pair: `bash benchmark/run.sh --workload exec_sim`.)

use std::process::ExitCode;
use warp_compiler::{bench, CompileOptions};

fn usage() -> ! {
    eprintln!("usage: wbench [--corpus-dir DIR] [--out FILE] [--seed S]");
    std::process::exit(2)
}

/// The acceptance floor: modulo scheduling must improve at least this
/// many corpus programs (and regress none).
const MIN_IMPROVED: usize = 3;

fn main() -> ExitCode {
    let mut corpus_dir = std::path::PathBuf::from("corpus");
    let mut out_path: Option<std::path::PathBuf> = None;
    let mut seed = 1u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--corpus-dir" => corpus_dir = args.next().unwrap_or_else(|| usage()).into(),
            "--out" => out_path = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--seed" => {
                let s = args.next().unwrap_or_else(|| usage());
                seed = s.parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_compile.json".into());

    let mut programs: Vec<(String, String)> = Vec::new();
    let entries = match std::fs::read_dir(&corpus_dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot read corpus dir `{}`: {e}", corpus_dir.display());
            return ExitCode::FAILURE;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "w2") {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            match std::fs::read_to_string(&path) {
                Ok(src) => programs.push((name, src)),
                Err(e) => {
                    eprintln!("cannot read `{}`: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    programs.sort();
    if programs.is_empty() {
        eprintln!("no .w2 programs under `{}`", corpus_dir.display());
        return ExitCode::FAILURE;
    }

    let report = match bench::run_bench(&programs, &CompileOptions::default(), seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.table());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write `{}`: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());

    if report.regressed() > 0 {
        eprintln!(
            "FAIL: {} program(s) regressed under pipelining",
            report.regressed()
        );
        return ExitCode::FAILURE;
    }
    if report.improved() < MIN_IMPROVED {
        eprintln!(
            "FAIL: only {} program(s) improved (need {MIN_IMPROVED})",
            report.improved()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
