//! Integration tests for the guarantee-audit subsystem: the corpus
//! passes the audit, the audit catches planted compiler bugs, batches
//! degrade gracefully, and error sources chain to their root cause.

use warp::compiler::audit::{audit, audit_corpus, AuditOptions};
use warp::compiler::{
    compile, compile_many, corpus, CompileOptions, CompileOrSimError, SessionCtrl,
};
use warp::sim::{Fault, FaultPlan, SimError, SimOptions};

#[test]
fn every_corpus_program_passes_the_audit() {
    // Modulo-scheduled and list-scheduled code make different timing
    // claims; both must hold.
    for pipeline in [true, false] {
        let ctrl = SessionCtrl {
            pipeline,
            ..SessionCtrl::default()
        };
        let results = audit_corpus(&AuditOptions::default(), &CompileOptions::default(), &ctrl);
        assert!(results.len() >= 5, "audit corpus covers Table 7-1");
        for (name, result) in results {
            let report = result.unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
            assert!(
                report.passed(),
                "{name} (pipeline {pipeline}) failed its audit:\n{report}"
            );
        }
    }
}

#[test]
fn audit_catches_a_loose_skew_claim() {
    // Plant the bug the audit exists to catch: a skew analysis that
    // claims one cycle more than the true minimum. Running at
    // claimed - 1 then succeeds, which must fail the tightness check.
    let mut m =
        compile(&corpus::polynomial_source(3, 8), &CompileOptions::default()).expect("compiles");
    assert!(m.skew.min_skew > 0);
    m.skew.min_skew += 1;
    let report = audit(&m, &AuditOptions::default());
    assert!(!report.passed(), "loose claim must fail:\n{report}");
    let tightness = report
        .checks
        .iter()
        .find(|c| c.name == "skew-tightness")
        .expect("check ran");
    assert!(!tightness.passed, "{report}");
    assert!(tightness.detail.contains("not minimal"), "{report}");
}

#[test]
fn audit_catches_an_understated_occupancy_claim() {
    // The dual bug: an analysis that claims a lower queue bound than
    // the machine actually reaches.
    let mut m =
        compile(&corpus::polynomial_source(3, 8), &CompileOptions::default()).expect("compiles");
    let (chan, bound) = m
        .skew
        .queue_occupancy
        .iter()
        .map(|(c, b)| (*c, *b))
        .max_by_key(|&(_, b)| b)
        .expect("has queue traffic");
    assert!(bound > 0);
    m.skew.queue_occupancy.insert(chan, bound - 1);
    let report = audit(&m, &AuditOptions::default());
    let occupancy = report
        .checks
        .iter()
        .find(|c| c.name == "occupancy-bound")
        .expect("check ran");
    assert!(!occupancy.passed, "understated bound must fail:\n{report}");
}

#[test]
fn batch_with_a_broken_program_still_completes() {
    // One deliberately broken program must yield a per-program failure
    // record while every other program compiles normally.
    let small = corpus::binop_source(4, 4);
    let sources = [
        corpus::POLYNOMIAL,
        "module broken (a in) float a[4]; cellprogram (c : 0 : 0) begin \
         function f begin float x; x := zz; end call f; end",
        small.as_str(),
    ];
    let results = compile_many(&sources, &CompileOptions::default());
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[0].as_ref().map(|m| m.name.as_str()),
        Ok("polynomial")
    );
    let diags = results[1].as_ref().expect_err("broken program fails");
    assert!(diags.has_errors());
    assert!(diags.to_string().contains("zz"), "{diags}");
    assert_eq!(results[2].as_ref().map(|m| m.name.as_str()), Ok("binop"));
}

#[test]
fn run_audited_returns_a_structured_report() {
    let m =
        compile(&corpus::polynomial_source(3, 8), &CompileOptions::default()).expect("compiles");
    let inputs_owned = warp::compiler::audit::seeded_inputs(&m, 11);
    let inputs: Vec<(&str, &[f32])> = inputs_owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    let report = m
        .run_audited(
            m.n_cells,
            m.skew.min_skew,
            &inputs,
            &SimOptions {
                plan: FaultPlan::new(11).with(Fault::SkewDelta(-1)),
                claims: Some(m.claims()),
                ..SimOptions::default()
            },
        )
        .expect_err("jittered skew trips");
    assert!(matches!(report.error, SimError::QueueUnderflow { .. }));
    assert_eq!(
        report.claims.as_ref().map(|c| c.min_skew),
        Some(m.skew.min_skew)
    );
    assert!(!report.injected.is_empty());
    // The report itself is an error whose source is the SimError.
    let source = std::error::Error::source(&*report).expect("chains");
    assert!(source.to_string().contains("underflow"));
}

#[test]
fn error_sources_chain_to_the_root_cause() {
    use std::error::Error as _;
    let m = compile(&corpus::binop_source(4, 4), &CompileOptions::default()).expect("compiles");
    // A wrong-length binding: run() -> SimError::Host(HostError).
    let sim_err = m.run(&[("a", &[1.0][..])]).expect_err("wrong length");
    let wrapped = CompileOrSimError::from(sim_err);
    // CompileOrSimError -> SimError -> HostError: two hops to the root.
    let hop1 = wrapped.source().expect("Sim variant has a source");
    let hop2 = hop1.source().expect("Host error is the root cause");
    assert!(hop2.to_string().contains("word"), "{hop2}");
    assert!(hop2.source().is_none(), "chain terminates at the root");
    // Compile diagnostics are an aggregate: no single source.
    let diags = compile("module broken", &CompileOptions::default()).unwrap_err();
    assert!(CompileOrSimError::from(diags).source().is_none());
}
