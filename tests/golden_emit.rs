//! Golden snapshot tests for `w2c --emit` output.
//!
//! The full `--emit cell --emit iu` listing for `corpus/binop.w2` and
//! `corpus/conv1d.w2` is compared line-for-line against checked-in
//! snapshots under `tests/golden/`. Any change to instruction
//! selection, scheduling, skew, or the listing format shows up as a
//! readable diff here instead of only as a perf or correctness shift
//! downstream.
//!
//! When an intentional compiler change moves the output, refresh the
//! snapshots with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_emit
//! ```
//!
//! then review the diff of `tests/golden/*.txt` like any other code
//! change. Everything the driver prints is deterministic.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;

fn w2c() -> Command {
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

/// Emits the listing for one corpus file. `extra` is appended to the
/// argument list (e.g. `--no-pipeline` for the list-scheduled
/// baseline).
fn emit(corpus_file: &str, extra: &[&str]) -> String {
    // `w2c` echoes the path it was given into line 1 of the listing, so
    // pass it relative to the checkout: the snapshots then hold in any
    // checkout directory.
    let src = format!("corpus/{corpus_file}");
    let out = w2c()
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([src.as_str(), "--emit", "cell", "--emit", "iu"])
        .args(extra)
        .output()
        .expect("w2c runs");
    assert!(
        out.status.success(),
        "w2c failed on {corpus_file}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut kept: Vec<&str> = stdout.lines().collect();
    // Normalize the trailing newline so editors that add one don't
    // break the comparison.
    while kept.last().is_some_and(|l| l.trim().is_empty()) {
        kept.pop();
    }
    kept.join("\n") + "\n"
}

fn check_golden(corpus_file: &str, snapshot: &str) {
    check_golden_with(corpus_file, snapshot, &[]);
}

fn check_golden_with(corpus_file: &str, snapshot: &str, extra: &[&str]) {
    let got = emit(corpus_file, extra);
    let path = format!("{}/tests/golden/{snapshot}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test golden_emit` to create it")
    });
    if got != want {
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(
                || got.lines().count().min(want.lines().count()) + 1,
                |i| i + 1,
            );
        panic!(
            "{snapshot} drifted from `w2c --emit` output (first difference at line \
             {first_diff}).\nIf the change is intentional, refresh with \
             `UPDATE_GOLDEN=1 cargo test --test golden_emit` and review the diff.\n\
             --- got ---\n{got}\n--- want ---\n{want}"
        );
    }
}

#[test]
fn binop_emit_matches_golden() {
    check_golden("binop.w2", "binop_emit.txt");
}

#[test]
fn conv1d_emit_matches_golden() {
    check_golden("conv1d.w2", "conv1d_emit.txt");
}

#[test]
fn conv1d_no_pipeline_emit_matches_golden() {
    // The list-scheduled baseline: the same program without modulo
    // scheduling. Pins the `--no-pipeline` escape hatch and makes the
    // kernel-vs-baseline difference reviewable as a snapshot diff.
    check_golden_with(
        "conv1d.w2",
        "conv1d_no_pipeline_emit.txt",
        &["--no-pipeline"],
    );
}
