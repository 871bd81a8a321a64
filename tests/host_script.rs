//! The host transfer scripts are loop nests generated from the static
//! region tree; `warp_skew::visit_events` still walks every dynamic
//! iteration and evaluates every external index, and shares no code
//! with them. Expanding a script must give, word for word, what the
//! enumeration gives — on the corpus in both cell-codegen modes, on the
//! benchmark's large-image shapes, and on generated programs.

use std::collections::BTreeMap;
use warp::compiler::corpus;
use warp::compiler::{CompileOptions, CompiledModule, Session, SessionCtrl};
use warp::host::{HostScript, HostWord};
use warp::serve::store::artifact_bytes;
use warp::skew::{visit_events, HostBinding};
use warp::w2::ast::Chan;
use warp::w2::hir::VarId;

/// One transferred word, comparable bit for bit.
#[derive(Debug, PartialEq)]
enum Word {
    Lit(u32),
    Elem(VarId, i64),
    Discard,
}

type Streams = BTreeMap<Chan, Vec<Word>>;

/// The words `scripts` transfer; `lit` is what a [`HostWord::Lit`]
/// means on that side of the array.
fn expand(scripts: &BTreeMap<Chan, HostScript>, lit: impl Fn(f32) -> Word) -> Streams {
    let stream = |script: &HostScript| {
        let mut words = Vec::with_capacity(script.len());
        script.for_each(|w, index| {
            words.push(match w {
                HostWord::Elem { var, .. } => Word::Elem(*var, i64::from(index)),
                HostWord::Lit(v) => lit(*v),
            });
        });
        assert_eq!(words.len(), script.len(), "len() is the dynamic count");
        words
    };
    scripts.iter().map(|(c, s)| (*c, stream(s))).collect()
}

/// The boundary streams by enumeration, as `host_codegen` defines
/// them: an unbound input reads 0.0, an output bound to anything but
/// an array element is discarded.
fn enumerate(module: &CompiledModule) -> (Streams, Streams) {
    let flow = module.skew.flow;
    let (mut inputs, mut outputs) = (Streams::new(), Streams::new());
    visit_events(&module.cell_code, &module.ir.loops, |e| {
        if e.is_recv && e.dir == flow.opposite() {
            inputs.entry(e.chan).or_default().push(match e.host {
                Some(HostBinding::Elem(var, index)) => Word::Elem(var, index),
                Some(HostBinding::Lit(v)) => Word::Lit(v.to_bits()),
                None => Word::Lit(0f32.to_bits()),
            });
        } else if !e.is_recv && e.dir == flow {
            outputs.entry(e.chan).or_default().push(match e.host {
                Some(HostBinding::Elem(var, index)) => Word::Elem(var, index),
                _ => Word::Discard,
            });
        }
    });
    (inputs, outputs)
}

fn assert_script_is_the_enumeration(what: &str, module: &CompiledModule) {
    let (inputs, outputs) = enumerate(module);
    let got = expand(&module.host.inputs, |v| Word::Lit(v.to_bits()));
    assert!(
        got == inputs,
        "{what}: input scripts differ from the enumeration"
    );
    let got = expand(&module.host.outputs, |_| Word::Discard);
    assert!(
        got == outputs,
        "{what}: output scripts differ from the enumeration"
    );
    let words = |s: &Streams| s.values().map(Vec::len).sum::<usize>();
    assert_eq!(module.host.input_count(), words(&inputs), "{what}");
    assert_eq!(module.host.output_count(), words(&outputs), "{what}");
}

fn compile(source: &str, pipeline: bool) -> Result<CompiledModule, String> {
    let ctrl = SessionCtrl {
        pipeline,
        ..SessionCtrl::default()
    };
    let session = Session::new(CompileOptions::default()).with_ctrl(ctrl);
    session.try_compile(source).map_err(|e| e.to_string())
}

#[test]
fn corpus_scripts_match_the_enumeration_in_both_modes() {
    const CORPUS: [&str; 7] = [
        "polynomial.w2",
        "conv1d.w2",
        "binop.w2",
        "colorseg.w2",
        "mandelbrot.w2",
        "fft16.w2",
        "matmul_2x4x4.w2",
    ];
    for file in CORPUS {
        let path = format!("{}/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
        let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for pipeline in [true, false] {
            let what = format!("{file} (pipeline {pipeline})");
            let module = compile(&source, pipeline).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_script_is_the_enumeration(&what, &module);
        }
    }
}

/// The seven `compile_images` items of the benchmark.
fn image_sources() -> Vec<(&'static str, String)> {
    vec![
        ("binop-256x256", corpus::binop_source(256, 256)),
        ("binop-512x512", corpus::binop_source(512, 512)),
        ("colorseg-256x256", corpus::colorseg_source(256, 256)),
        ("colorseg-512x512", corpus::colorseg_source(512, 512)),
        ("grayseg-512x512", corpus::grayseg_source(512, 512)),
        ("conv1d-9x65536", corpus::conv1d_source(9, 65536)),
        ("polynomial-10x65536", corpus::polynomial_source(10, 65536)),
    ]
}

#[test]
fn image_scripts_match_the_enumeration() {
    let mut script_words = 0;
    for (name, source) in image_sources() {
        let module = compile(&source, true).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_script_is_the_enumeration(name, &module);
        script_words += module.host.input_count() + module.host.output_count();
    }
    // The benchmark's `warp-host.script_words` for this workload.
    assert_eq!(script_words, 3_342_374);
}

#[test]
fn generated_program_scripts_match_the_enumeration() {
    let cfg = warp::oracle::GenConfig::default();
    let mut checked = 0;
    for seed in 0..600 {
        let program = warp::oracle::generate(seed, &cfg);
        // A generated program the compiler rejects has no script.
        let Ok(module) = compile(&program.source, seed % 2 == 0) else {
            continue;
        };
        assert_script_is_the_enumeration(&format!("generated seed {seed}"), &module);
        checked += 1;
    }
    assert!(
        checked >= 500,
        "only {checked} of 600 generated programs compiled"
    );
}

#[test]
fn artifact_size_does_not_follow_the_data_size() {
    let size = |rows, cols| {
        let module = compile(&corpus::binop_source(rows, cols), true).expect("binop compiles");
        artifact_bytes(&module).len()
    };
    let (small, large) = (size(64, 64), size(512, 512));
    assert!(
        small.abs_diff(large) < 64,
        "binop artifacts: {small} bytes at 64x64, {large} bytes at 512x512"
    );
}
