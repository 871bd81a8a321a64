//! Acceptance test for the modulo-scheduling rollout: across the
//! on-disk corpus, the pipelined default must drop simulated cycles on
//! at least three programs and regress on **none** (the scheduler's
//! profitability gate keeps unprofitable loops on their list
//! schedules, so any regression is a bug).

use warp::compiler::{audit, CompileOptions, Session, SessionCtrl};

fn corpus_programs() -> Vec<(String, String)> {
    let dir = format!("{}/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut programs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            if path.extension()? != "w2" {
                return None;
            }
            let name = path.file_stem()?.to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&path).expect("readable corpus file");
            Some((name, src))
        })
        .collect();
    programs.sort();
    programs
}

/// Simulated array cycles of `source` on seed-1 inputs, with the
/// modulo scheduler on or off.
fn cycles(name: &str, source: &str, pipeline: bool) -> u64 {
    let module = Session::new(CompileOptions::default())
        .with_ctrl(SessionCtrl {
            pipeline,
            ..SessionCtrl::default()
        })
        .compile(source)
        .unwrap_or_else(|e| panic!("{name} (pipeline={pipeline}) must compile:\n{e}"));
    let owned = audit::seeded_inputs(&module, 1);
    let inputs: Vec<(&str, &[f32])> = owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    let report = module.run(&inputs);
    report
        .unwrap_or_else(|e| panic!("{name} (pipeline={pipeline}) must simulate: {e}"))
        .cycles
}

#[test]
fn pipelining_improves_the_corpus_and_regresses_nothing() {
    let programs = corpus_programs();
    assert_eq!(programs.len(), 7, "the Table 7-1 corpus has 7 programs");
    let mut improved = 0;
    for (name, source) in &programs {
        let baseline = cycles(name, source, false);
        let pipelined = cycles(name, source, true);
        assert!(
            pipelined <= baseline,
            "{name} regressed: {baseline} -> {pipelined} cycles"
        );
        improved += usize::from(pipelined < baseline);
    }
    assert!(
        improved >= 3,
        "expected >= 3 programs to improve, got {improved}"
    );
}
