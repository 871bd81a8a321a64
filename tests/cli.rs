//! Integration tests for the `w2c` command line driver.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;

fn w2c() -> Command {
    // `cargo test` on the root package does not build other members'
    // binaries, so build the CLI once before the first use.
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "warp-compiler", "--bin", "w2c"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building w2c failed");
    });
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("target");
    path.push("debug");
    path.push("w2c");
    Command::new(path)
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("w2c-test-{name}-{}.w2", std::process::id()));
    std::fs::write(&p, contents).expect("write temp source");
    p
}

const DOUBLE: &str = "module double (xs in, ys out)\nfloat xs[4];\nfloat ys[4];\n\
    cellprogram (cid : 0 : 0)\nbegin\n  function f\n  begin\n    float v;\n    int i;\n\
    for i := 0 to 3 do begin\n      receive (L, X, v, xs[i]);\n      send (R, X, v + v, ys[i]);\n\
    end;\n  end\n  call f;\nend\n";

#[test]
fn compiles_runs_and_checks() {
    let src = write_temp("ok", DOUBLE);
    let out = w2c()
        .arg(&src)
        .args(["--run", "xs=1,2,3,4", "--check", "--emit", "cell"])
        .output()
        .expect("w2c runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("compiled `double`"), "{stdout}");
    assert!(stdout.contains("ys = [2, 4, 6, 8]"), "{stdout}");
    assert!(
        stdout.contains("agrees with the reference interpreter"),
        "{stdout}"
    );
    assert!(stdout.contains("recv"), "listing expected: {stdout}");
    let _ = std::fs::remove_file(src);
}

#[test]
fn reports_diagnostics_with_location() {
    let src = write_temp("bad", "module broken (a in)\nfloat a[4];\ncellprogram (c : 0 : 0)\nbegin\n  function f\n  begin\n    float x;\n    x := zz;\n  end\n  call f;\nend\n");
    let out = w2c().arg(&src).output().expect("w2c runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("undeclared variable `zz`"), "{stderr}");
    assert!(stderr.contains("line 8"), "{stderr}");
    let _ = std::fs::remove_file(src);
}

#[test]
fn corpus_shortcut_works() {
    let out = w2c()
        .args(["--corpus", "polynomial"])
        .output()
        .expect("w2c runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compiled `polynomial`"), "{stdout}");
    assert!(stdout.contains("for 10 cells"), "{stdout}");
}

#[test]
fn time_passes_prints_all_nine_stages() {
    let out = w2c()
        .args(["--corpus", "polynomial", "--time-passes"])
        .output()
        .expect("w2c runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("per-pass timing"), "{stdout}");
    for pass in [
        "frontend",
        "comm",
        "lower",
        "rewrite",
        "decompose",
        "cell-codegen",
        "skew",
        "iu-codegen",
        "host-codegen",
    ] {
        let row = format!("\n  {pass} ");
        assert!(stdout.contains(&row), "missing pass `{pass}`: {stdout}");
    }
    assert!(stdout.contains("% of total"), "{stdout}");
    assert!(stdout.contains("\n  total "), "{stdout}");
}

/// The `--dump-after lower` output for the polynomial program is
/// deterministic; the golden file pins it so IR or dump-format changes
/// are reviewed deliberately (regenerate with
/// `w2c --corpus polynomial --dump-after lower`).
#[test]
fn dump_after_lower_matches_golden() {
    let out = w2c()
        .args(["--corpus", "polynomial", "--dump-after", "lower"])
        .output()
        .expect("w2c runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let dump = stdout
        .find("=== dump after lower")
        .map(|i| &stdout[i..])
        .expect("dump section present");
    let mut golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    golden.push("tests/golden/polynomial_lower.dump");
    let want = std::fs::read_to_string(golden).expect("golden file");
    assert_eq!(dump, want, "lower dump drifted from tests/golden");
}

#[test]
fn unknown_emit_kind_is_a_usage_error() {
    let out = w2c()
        .args(["--corpus", "polynomial", "--emit", "object"])
        .output()
        .expect("w2c runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown --emit kind `object`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn unknown_dump_pass_is_a_usage_error() {
    let out = w2c()
        .args(["--corpus", "polynomial", "--dump-after", "linker"])
        .output()
        .expect("w2c runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown pass `linker`"), "{stderr}");
    assert!(
        stderr.contains("--dump-after PASS: one of frontend"),
        "{stderr}"
    );
}

#[test]
fn emit_kinds_map_to_pass_dumps() {
    let out = w2c()
        .args(["--corpus", "polynomial", "--emit", "hir", "--emit", "skew"])
        .output()
        .expect("w2c runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("=== dump after frontend (hir) ==="),
        "{stdout}"
    );
    assert!(
        stdout.contains("=== dump after skew (skew-report) ==="),
        "{stdout}"
    );
}

#[test]
fn corpus_all_batch_compiles_every_program() {
    let out = w2c().args(["--corpus", "all"]).output().expect("w2c runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["polynomial", "conv1d", "binop", "colorseg", "mandelbrot"] {
        assert!(stdout.contains(name), "missing `{name}`: {stdout}");
    }
    // Output rows follow the fixed corpus order, not completion order.
    let poly = stdout.find("polynomial").expect("row");
    let mandel = stdout.find("mandelbrot").expect("row");
    assert!(poly < mandel, "deterministic row order: {stdout}");
}

/// The `cell ucode` / `IU ucode` columns of one `--corpus all` row.
fn corpus_all_row(stdout: &str, name: &str) -> (String, String) {
    let row = stdout
        .lines()
        .find(|l| l.starts_with(name))
        .unwrap_or_else(|| panic!("no `{name}` row: {stdout}"));
    let cols: Vec<&str> = row.split_whitespace().collect();
    (cols[2].to_owned(), cols[3].to_owned())
}

/// `--corpus all` promises to combine with compilation options:
/// `--no-pipeline` must reach the batch's jobs, as it reaches a single
/// `--corpus polynomial` compile (17 / 21 list-scheduled, 24 / 28
/// modulo-scheduled).
#[test]
fn corpus_all_honours_no_pipeline() {
    let run = |extra: &[&str]| {
        let out = w2c()
            .args(["--corpus", "all"])
            .args(extra)
            .output()
            .expect("w2c runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let (pipelined, listed) = (run(&[]), run(&["--no-pipeline"]));
    let words = |n: u32| n.to_string();
    assert_eq!(
        corpus_all_row(&listed, "polynomial"),
        (words(17), words(21)),
        "{listed}"
    );
    assert_ne!(
        corpus_all_row(&pipelined, "polynomial"),
        corpus_all_row(&listed, "polynomial"),
        "{pipelined}"
    );
}

#[test]
fn audit_guarantees_passes_on_a_single_module() {
    let src = write_temp("audit", DOUBLE);
    let out = w2c()
        .arg(&src)
        .arg("--audit-guarantees")
        .output()
        .expect("w2c runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("guarantee audit `double`: PASS"),
        "{stdout}"
    );
    assert!(stdout.contains("nominal"), "{stdout}");
    assert!(stdout.contains("detect:hang"), "{stdout}");
    let _ = std::fs::remove_file(src);
}

#[test]
fn corpus_all_audit_summarizes_per_program() {
    let out = w2c()
        .args(["--corpus", "all", "--audit-guarantees"])
        .output()
        .expect("w2c runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in ["polynomial", "conv1d", "binop", "colorseg", "mandelbrot"] {
        assert!(stdout.contains(name), "missing `{name}`: {stdout}");
    }
    assert!(stdout.contains("guarantee audit:"), "{stdout}");
    assert!(stdout.contains("0 failed"), "{stdout}");
}

#[test]
fn inject_prints_a_fault_report_and_fails() {
    let src = write_temp("inject", DOUBLE);
    let out = w2c()
        .arg(&src)
        .args(["--inject", "seed=3,truncate=X:2", "--run", "xs=1,2,3,4"])
        .output()
        .expect("w2c runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("injecting: seed=3,truncate=X:2"),
        "{stdout}"
    );
    assert!(stdout.contains("fault report: queue underflow"), "{stdout}");
    assert!(stdout.contains("injected faults:"), "{stdout}");
    let _ = std::fs::remove_file(src);
}

#[test]
fn inject_with_no_trip_succeeds() {
    let src = write_temp("inject-ok", DOUBLE);
    // Corrupting a data word violates no invariant; the run survives.
    let out = w2c()
        .arg(&src)
        .args(["--inject", "seed=3,corrupt=X:1"])
        .output()
        .expect("w2c runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("survived the fault plan"), "{stdout}");
    let _ = std::fs::remove_file(src);
}

#[test]
fn malformed_inject_spec_is_a_usage_error() {
    let out = w2c()
        .args(["--corpus", "polynomial", "--inject", "seed=x"])
        .output()
        .expect("w2c runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --inject spec"), "{stderr}");
}

#[test]
fn zero_cells_is_a_usage_error() {
    let out = w2c()
        .args(["--corpus", "polynomial", "--cells", "0"])
        .output()
        .expect("w2c runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cells must be at least 1"), "{stderr}");
}

#[test]
fn corpus_all_prints_batch_summary() {
    let out = w2c().args(["--corpus", "all"]).output().expect("w2c runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("batch: 5 ok (0 degraded), 0 failed, 0 timed out, 0 quarantined"),
        "{stdout}"
    );
    assert!(stdout.contains("<- slowest"), "{stdout}");
}

/// `DOUBLE` with one extra cell-local variable that is never used:
/// sema warns, the compile still succeeds.
const DOUBLE_UNUSED: &str = "module double (xs in, ys out)\nfloat xs[4];\nfloat ys[4];\n\
    cellprogram (cid : 0 : 0)\nbegin\n  function f\n  begin\n    float v;\n    float w;\n    int i;\n\
    for i := 0 to 3 do begin\n      receive (L, X, v, xs[i]);\n      send (R, X, v + v, ys[i]);\n\
    end;\n  end\n  call f;\nend\n";

#[test]
fn warnings_go_to_stderr_but_do_not_fail_the_compile() {
    let src = write_temp("warn", DOUBLE_UNUSED);
    let out = w2c().arg(&src).output().expect("w2c runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "warnings must not fail the compile: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: unused cell-local variable `w`"),
        "{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("compiled `double`"), "{stdout}");
    let _ = std::fs::remove_file(src);
}

#[test]
fn error_diagnostics_exit_nonzero() {
    // Any error-severity diagnostic must turn into a non-zero exit —
    // scripts and CI depend on the exit code, not on parsing stderr.
    let src = write_temp(
        "error-exit",
        "module broken (a in)\nfloat a[4];\ncellprogram (c : 0 : 0)\nbegin\n  function f\n  begin\n    float x;\n    x := zz;\n  end\n  call f;\nend\n",
    );
    let out = w2c().arg(&src).output().expect("w2c runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    let _ = std::fs::remove_file(src);
}

#[test]
fn differential_smoke_is_clean() {
    let out = w2c()
        .args(["--differential", "5", "--seed", "1"])
        .output()
        .expect("w2c runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("5 agree"), "{stdout}");
    assert!(stdout.contains("0 mismatch"), "{stdout}");
}

#[test]
fn differential_check_agrees_on_a_file() {
    let src = write_temp("diff-check", DOUBLE);
    let out = w2c()
        .arg(&src)
        .args(["--differential-check", "--seed", "7"])
        .output()
        .expect("w2c runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("simulator agrees with the oracle"),
        "{stdout}"
    );
    let _ = std::fs::remove_file(src);
}

#[test]
fn differential_inject_fails_and_writes_shrunk_repros() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("w2c-test-repros-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = w2c()
        .args(["--differential", "5", "--seed", "1"])
        .args(["--inject", "skew=-1"])
        .arg("--repro-dir")
        .arg(&dir)
        .output()
        .expect("w2c runs");
    // skew=-1 ships every word one cycle early; at least one of the
    // first five generated programs must notice.
    assert_eq!(out.status.code(), Some(1));
    let repros: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("repro dir created")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.starts_with("case-") && n.ends_with(".w2") && !n.ends_with(".orig.w2")
            })
        })
        .collect();
    assert!(!repros.is_empty(), "no shrunk repro written");
    let repro = std::fs::read_to_string(&repros[0]).expect("read repro");
    assert!(
        repro.contains("--differential-check"),
        "repro must carry its replay command: {repro}"
    );
    let source_lines = repro
        .lines()
        .filter(|l| !l.trim_start().starts_with("/*"))
        .count();
    assert!(
        source_lines <= 10,
        "shrunk repro should be minimal, got {source_lines} source lines:\n{repro}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_all_rejects_single_module_flags() {
    let out = w2c()
        .args(["--corpus", "all", "--run", "xs=1"])
        .output()
        .expect("w2c runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--corpus all"), "{stderr}");
}
