//! `w2bench` — the repository's benchmark: seven workloads from socket
//! line to simulated cycle, end-to-end and per-layer.
//!
//! ```text
//! w2bench [--seed N] [--seconds S] [--out DIR]
//!     every workload, an untraced then a traced pass, each in a fresh
//!     process; prints every
//!     metric by name with its unit, writes DIR/results.tsv,
//!     DIR/items.tsv and DIR/trace-<workload>.jsonl (default DIR:
//!     benchmark/out), exits 1 if any output check failed
//! w2bench --workload NAME --seed N --seconds S --trace 0|1
//!     one pass over one workload in this process; the last stdout
//!     line is the JSON object the benchmark driver reads
//! w2bench --compare A B
//!     relative difference of result set B against A per
//!     workload × end-to-end metric, against the bounds; exits 1 on a
//!     breach
//! w2bench --print-benchmark-json
//!     BENCHMARK.json, generated from the metric table
//! ```
//!
//! Run it through `benchmark/run.sh` from the repository root, which
//! builds this crate and the `w2cd` binary the serving workloads start.

mod calib;
mod harness;
mod items;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use report::RunResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    print_json: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: w2bench [--seed N] [--seconds S] [--out DIR]\n\
         \x20      w2bench --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      w2bench --compare A B\n\
         \x20      w2bench --print-benchmark-json\n\
         workloads: {}",
        metrics::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        compare: None,
        print_json: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} expects a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut it)?),
            "--seed" => {
                args.seed = value(&flag, &mut it)?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer".to_owned())?;
            }
            "--seconds" => {
                args.seconds = value(&flag, &mut it)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                args.trace = match value(&flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_owned()),
                };
            }
            "--out" => args.out = PathBuf::from(value(&flag, &mut it)?),
            "--compare" => {
                let a = PathBuf::from(value(&flag, &mut it)?);
                let b = PathBuf::from(value(&flag, &mut it)?);
                args.compare = Some((a, b));
            }
            "--print-benchmark-json" => args.print_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run_one(name: &str, args: &Args, traced: bool) -> Result<RunResult, String> {
    let def = metrics::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let (setup, setup_repeats) =
        workloads::setup_of(def.name).expect("every listed workload has a set-up");
    harness::run(&harness::RunSpec {
        workload: def.name,
        setup,
        setup_repeats,
        seed: args.seed,
        seconds: args.seconds,
        traced,
        out_dir: &args.out,
    })
}

/// One pass over one workload: the table on stderr, the pass's rows in
/// `result-<workload>-trace<0|1>.tsv` and `items-<workload>.tsv`, and the
/// JSON object the driver reads as the last line of stdout.
fn single_pass(name: &str, args: &Args) -> Result<bool, String> {
    let result = run_one(name, args, args.trace)?;
    eprint!("{}", result.table());
    report::overwrite(&pass_file(&args.out, name, args.trace), &result.tsv_rows())?;
    if !args.trace {
        report::overwrite(
            &args.out.join(format!("items-{name}.tsv")),
            &result.item_rows(),
        )?;
    }
    println!("{}", result.driver_json());
    Ok(result.correct)
}

fn pass_file(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("result-{workload}-trace{}.tsv", u8::from(traced)))
}

/// Every workload, an untraced then a traced pass, each in a fresh
/// process of this binary — exactly what the driver runs, so peak
/// memory and allocator state never carry over from one workload to
/// the next — then one `results.tsv` and `items.tsv` from their rows.
fn full_mode(args: &Args) -> Result<bool, String> {
    clear_stale(&args.out);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    println!(
        "w2bench: seed {}, {} s per pass, {} client(s)/worker(s) for serving, {} core(s)",
        args.seed,
        args.seconds,
        workloads::serve::clients(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let mut results_tsv = String::from(report::RESULTS_HEADER);
    let mut items_tsv = String::from(report::ITEMS_HEADER);
    let mut all_correct = true;
    for w in metrics::WORKLOADS {
        for traced in [false, true] {
            let pass = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            // The pass's table (its stderr) is this mode's report.
            print!("{}", String::from_utf8_lossy(&pass.stderr));
            match pass.status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("the {} pass did not finish", w.name)),
            }
            let rows = pass_file(&args.out, w.name, traced);
            results_tsv.push_str(
                &std::fs::read_to_string(&rows).map_err(|e| format!("{}: {e}", rows.display()))?,
            );
            let _ = std::fs::remove_file(&rows);
        }
        let rows = args.out.join(format!("items-{}.tsv", w.name));
        items_tsv.push_str(
            &std::fs::read_to_string(&rows).map_err(|e| format!("{}: {e}", rows.display()))?,
        );
        let _ = std::fs::remove_file(&rows);
    }
    report::overwrite(&args.out.join("results.tsv"), &results_tsv)?;
    report::overwrite(&args.out.join("items.tsv"), &items_tsv)?;
    println!(
        "results: {} — outputs {}",
        args.out.join("results.tsv").display(),
        if all_correct {
            "all correct"
        } else {
            "NOT all correct"
        }
    );
    Ok(all_correct)
}

/// Removes what an earlier run of the benchmark left in the output
/// directory (its own files only), so every result there belongs to
/// this run.
fn clear_stale(out: &Path) {
    let Ok(entries) = std::fs::read_dir(out) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ours = matches!(&*name, "results.tsv" | "items.tsv")
            || (name.starts_with("trace-") && name.ends_with(".jsonl"))
            || ((name.starts_with("result-") || name.starts_with("items-"))
                && name.ends_with(".tsv"))
            || name.starts_with("work-");
        if ours {
            let _ = if path.is_dir() {
                std::fs::remove_dir_all(&path)
            } else {
                std::fs::remove_file(&path)
            };
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.print_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = if let Some((a, b)) = &args.compare {
        report::compare(a, b).map(|(text, breached)| {
            print!("{text}");
            !breached
        })
    } else if let Some(name) = &args.workload {
        single_pass(name, &args)
    } else {
        full_mode(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
