//! Integration tests for the pass-manager driver: per-pass timings
//! and dumps through the observer, and the parallel batch driver.

use std::time::{Duration, Instant};
use warp::common::{CollectDumps, CollectTimings};
use warp::compiler::{compile, compile_many, corpus, passes, CompileOptions, Session};
use warp::serve::store::artifact_bytes;

const CORPUS: [&str; 5] = [
    corpus::POLYNOMIAL,
    corpus::ONED_CONV,
    corpus::BINOP,
    corpus::COLORSEG,
    corpus::MANDELBROT,
];

#[test]
fn per_pass_timings_sum_to_at_most_the_total() {
    let mut timings = CollectTimings::default();
    let start = Instant::now();
    Session::with_observer(CompileOptions::default(), &mut timings)
        .compile(corpus::POLYNOMIAL)
        .expect("compiles");
    let wall = start.elapsed();
    let total = timings.total();
    assert!(total > Duration::ZERO);
    assert!(
        total <= wall,
        "pass time {total:?} exceeds compile time {wall:?}"
    );
}

#[test]
fn every_pass_appears_exactly_once_in_pipeline_order() {
    for src in CORPUS {
        let mut timings = CollectTimings::default();
        let m = Session::with_observer(CompileOptions::default(), &mut timings)
            .compile(src)
            .expect("compiles");
        let names: Vec<&str> = timings.timings.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            passes::pass_names().collect::<Vec<_>>(),
            "per-pass entries must match the pipeline for `{}`",
            m.name
        );
    }
}

#[test]
fn observer_sees_enter_and_exit_for_every_pass() {
    let mut dumps = CollectDumps::all();
    Session::with_observer(CompileOptions::default(), &mut dumps)
        .compile(corpus::POLYNOMIAL)
        .expect("compiles");
    let kinds: Vec<&str> = dumps.dumps().iter().map(|d| d.kind).collect();
    let expected: Vec<&str> = passes::PIPELINE.iter().map(|p| p.artifact).collect();
    assert_eq!(kinds, expected, "one artifact per pass, in order");
    assert!(dumps.dumps().iter().all(|d| !d.text.is_empty()));
}

#[test]
fn failing_pass_reports_no_artifact_for_later_passes() {
    let mut dumps = CollectDumps::all();
    let err = Session::with_observer(CompileOptions::default(), &mut dumps)
        .compile("module broken")
        .expect_err("parse error");
    assert!(err.has_errors());
    assert!(dumps.dumps().is_empty(), "frontend failed; nothing to dump");
}

/// `compile_many` must produce, element for element, what sequential
/// `compile` produces — bitwise, as the store would hold it.
#[test]
fn compile_many_matches_sequential_compile() {
    let opts = CompileOptions::default();
    let parallel = compile_many(&CORPUS, &opts);
    assert_eq!(parallel.len(), CORPUS.len());
    for (src, got) in CORPUS.iter().zip(parallel) {
        let got = got.expect("parallel compile succeeds");
        let want = compile(src, &opts).expect("sequential compile succeeds");
        assert_eq!(
            artifact_bytes(&got),
            artifact_bytes(&want),
            "`{}` differs between the batch and a sequential compile",
            want.name
        );
    }
}

#[test]
fn compile_many_keeps_input_order_and_per_item_errors() {
    let sources = [corpus::POLYNOMIAL, "module broken", corpus::BINOP];
    let results = compile_many(&sources, &CompileOptions::default());
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_ref().expect("ok").name, "polynomial");
    assert!(results[1].is_err(), "parse error stays at its own index");
    assert_eq!(results[2].as_ref().expect("ok").name, "binop");
}

#[test]
fn compile_many_on_empty_input_is_empty() {
    let none: [&str; 0] = [];
    assert!(compile_many(&none, &CompileOptions::default()).is_empty());
}
