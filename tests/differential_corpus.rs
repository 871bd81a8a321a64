//! The oracle vs the simulator, end to end, on every standalone
//! corpus program.
//!
//! Each `corpus/*.w2` file is compiled through the full `Session`
//! pipeline and simulated on seeded inputs; the result must agree
//! **bitwise** with the reference interpreter in `warp-oracle` — both
//! the final `out` parameters and every word of the boundary output
//! streams. This is the hand-written-corpus half of the differential
//! harness (`w2c --differential` covers generated programs) and the
//! test the CI `differential-smoke` job runs.

use warp::compiler::differential::{check_case, BackendSel, CaseOutcome, DiffOptions};

fn read(name: &str) -> String {
    let path = format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

const CORPUS: [&str; 7] = [
    "polynomial.w2",
    "conv1d.w2",
    "binop.w2",
    "colorseg.w2",
    "mandelbrot.w2",
    "fft16.w2",
    "matmul_2x4x4.w2",
];

/// Corpus programs are bigger than generated ones (colorseg runs >10M
/// cell cycles), so lift the fuzzing-oriented budgets.
fn corpus_opts() -> DiffOptions {
    DiffOptions {
        max_cell_cycles: 0,
        case_timeout: std::time::Duration::from_secs(120),
        ..DiffOptions::default()
    }
}

#[test]
fn corpus_agrees_with_oracle() {
    // Both cell-codegen modes must agree bitwise with the oracle: the
    // modulo-scheduled default and the `--no-pipeline` list-scheduled
    // baseline (check_case pins reassociation off, so pipelining may
    // not change a single output bit).
    for pipeline in [true, false] {
        let opts = DiffOptions {
            pipeline,
            ..corpus_opts()
        };
        for file in CORPUS {
            // Two input seeds per program: catches value-dependent paths
            // (e.g. mandelbrot's escape conditional) on different data.
            for input_seed in [1u64, 0xDEAD_BEEF] {
                let outcome = check_case(&read(file), input_seed, &opts);
                assert!(
                    matches!(outcome, CaseOutcome::Agree),
                    "{file} (input seed {input_seed}, pipeline {pipeline}): {outcome:?}"
                );
            }
        }
    }
}

#[test]
fn injected_corruption_is_visible_on_every_corpus_program() {
    // `corrupt=X:0` flips mantissa bits of one in-flight word and trips
    // no machine invariant — only the oracle comparison can catch it.
    // If any corpus program let it through, the differential harness
    // would be blind on that program's communication pattern.
    let opts = DiffOptions {
        inject: Some("seed=5,corrupt=X:0".parse().expect("valid spec")),
        ..corpus_opts()
    };
    for file in CORPUS {
        let outcome = check_case(&read(file), 1, &opts);
        assert!(
            matches!(outcome, CaseOutcome::Mismatch(_)),
            "{file}: corruption not detected: {outcome:?}"
        );
    }
}

#[test]
fn negative_zero_plus_positive_zero_agrees_three_ways() {
    // `w2c --differential 1000 --seed 1`, case 465, shrunk. `w / -2.0`
    // is −0.0 (w starts at 0.0) and `acc / 2.0` folds to +0.0; their
    // sum is +0.0. Folding `x + 0.0 → x` gave −0.0 on the simulator and
    // the native backend where the oracle said +0.0.
    const CASE_465: &str = "module gen (r0 out)
float r0[1];
cellprogram (cid : 0 : 0) begin
function f begin
float acc; float w;
acc := 0.0;
w := w / (-2.0) + acc / 2.0;
send (R, X, w, r0[0]);
end
call f; end
";
    for pipeline in [true, false] {
        let opts = DiffOptions {
            pipeline,
            backend: BackendSel::All,
            ..DiffOptions::default()
        };
        let outcome = check_case(CASE_465, 10172024870146277062, &opts);
        assert!(
            matches!(outcome, CaseOutcome::Agree),
            "pipeline {pipeline}: {outcome:?}"
        );
    }
}
