//! The loop-nest skew engine against the enumeration it replaced.
//!
//! `warp_skew::Nests` answers from the loop structure and skips
//! iterations it can prove are shifted copies; `warp_skew::Timeline`
//! lists every dynamic I/O operation and is the definition of the
//! answer. They must agree — minimum skew, and per-channel occupancy at
//! the minimum skew, above it and at the analytic bound — on everything
//! the compiler emits and on hand-shaped nests it rarely does. The last
//! test pins the point of the engine: its cost follows the program text.
//!
//! CI runs this file in debug and in release: debug traps arithmetic
//! overflow, release wraps, and the agreement has to hold under both.

mod common;

use common::{gen_options, sweeps, wide_config};
use w2_lang::ast::{Chan, Dir};
use warp::cell::{CellCode, CodeRegion};
use warp::compiler::{corpus, CompileOptions, CompiledModule, Session, SessionCtrl};
use warp::oracle::{generate, GenConfig};
use warp::skew::{extract, min_skew_bound, paper, Meter, Nests, Timeline};
use warp_common::{CancelToken, IdVec, SplitMix64};
use warp_ir::region::LoopMeta;
use warp_ir::LoopId;

/// Asserts engine ≡ enumeration on `code` and returns the engine's step
/// count for the skew and the occupancy at it.
fn check(name: &str, code: &CellCode, loops: &IdVec<LoopId, LoopMeta>, flow: Dir) -> u64 {
    let tl = Timeline::build(code, loops);
    let nests = Nests::build(code, flow).expect("spans fit u64");
    assert_eq!(nests.span, tl.span, "{name}: span");

    let mut meter = Meter::new(CancelToken::none());
    let skew = nests.min_skew(&mut meter).expect("inert token");
    assert_eq!(skew, tl.min_skew(flow), "{name}: min skew");
    let occupancy_at = |at: i64, meter: &mut Meter| {
        let got = nests.max_queue_occupancy(at, meter).expect("inert token");
        assert_eq!(
            got,
            tl.max_queue_occupancy(flow, at),
            "{name}: occupancy at skew {at} (min {skew})"
        );
    };
    occupancy_at(skew, &mut meter);
    let steps = meter.steps();

    for delta in [1, 7, 100] {
        occupancy_at(skew + delta, &mut meter);
    }
    // The skew `SkewMethod::Analytic` would run the occupancy at.
    if let Ok(bound) = min_skew_bound(&extract(code), flow) {
        occupancy_at(bound, &mut meter);
    }
    steps
}

fn compile(source: &str, opts: &CompileOptions, pipeline: bool) -> Option<CompiledModule> {
    let ctrl = SessionCtrl {
        pipeline,
        ..SessionCtrl::default()
    };
    Session::new(opts.clone())
        .with_ctrl(ctrl)
        .compile(source)
        .ok()
}

/// Compiles `source` in both scheduling modes and checks what comes
/// out; returns how many modules were checked.
fn check_source(name: &str, source: &str, opts: &CompileOptions) -> usize {
    let mut checked = 0;
    for pipeline in [true, false] {
        if let Some(m) = compile(source, opts, pipeline) {
            let name = format!("{name} pipeline={pipeline}");
            check(&name, &m.cell_code, &m.ir.loops, m.skew.flow);
            checked += 1;
        }
    }
    checked
}

#[test]
fn corpus_and_sweeps_agree_with_the_enumeration() {
    let opts = CompileOptions::default();
    let dir = format!("{}/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "w2"))
        .collect();
    files.sort();
    assert!(files.len() >= 7, "corpus/*.w2 went missing: {files:?}");
    for path in files {
        let source = std::fs::read_to_string(&path).expect("corpus file reads");
        let name = path.display().to_string();
        assert_eq!(check_source(&name, &source, &opts), 2, "{name} compiles");
    }
    for (name, source) in sweeps() {
        assert_eq!(check_source(&name, &source, &opts), 2, "{name} compiles");
    }
}

#[test]
fn paper_examples_agree_with_the_enumeration() {
    let loops = paper::paper_loops();
    check("fig6-2", &paper::fig_6_2_code(), &loops, Dir::Right);
    check("fig6-4", &paper::fig_6_4_code(), &loops, Dir::Right);
    for (recv_at, send_at) in [(3, 3), (2, 3), (0, 3), (3, 0)] {
        let stage = paper::fig_3_1_stage(4, recv_at, send_at);
        check("fig3-1", &stage, &loops, Dir::Right);
    }
}

#[test]
fn generated_programs_agree_with_the_enumeration() {
    let opts = gen_options();
    let mut checked = 0;
    for (label, config, seeds) in [
        ("gen", GenConfig::default(), 3000),
        ("gen-wide", wide_config(), 1000),
    ] {
        for seed in 0..seeds {
            let source = generate(seed, &config).source;
            checked += check_source(&format!("{label}-{seed}"), &source, &opts);
        }
    }
    assert_eq!(
        checked, 8000,
        "every generated program compiles in both modes"
    );
}

// ---------- hand-shaped nests the code generator rarely emits ----------

/// A block of `len` cycles whose events are drawn at random: receives
/// from the left and sends to the right, on either channel.
fn random_block(rng: &mut SplitMix64) -> CodeRegion {
    let len = 1 + rng.below(5) as u32;
    let mut events: Vec<(u32, Dir, Chan, bool)> = (0..rng.below(4))
        .map(|_| {
            let is_recv = rng.chance(1, 2);
            let dir = if is_recv { Dir::Left } else { Dir::Right };
            let chan = if rng.chance(1, 4) { Chan::Y } else { Chan::X };
            (rng.below(u64::from(len)) as u32, dir, chan, is_recv)
        })
        .collect();
    // Mostly in cycle order, as the back end emits them; sometimes not,
    // since the engine promises emitted order, not time order.
    if rng.chance(3, 4) {
        events.sort_by_key(|e| e.0);
    }
    paper::block(len as usize, events)
}

/// Regions of nesting depth ≤ `depth`; `budget` bounds the product of
/// the trip counts along any path so the enumeration stays small.
fn random_regions(
    rng: &mut SplitMix64,
    depth: u32,
    budget: u64,
    next_loop: &mut u32,
) -> Vec<CodeRegion> {
    (0..1 + rng.below(3))
        .map(|_| {
            if depth == 0 || rng.chance(2, 5) {
                return random_block(rng);
            }
            // Small counts exercise loop entry and exit, large ones the
            // jumps; equal counts in sibling loops make similar nests.
            let count = match rng.below(4) {
                0 => 1 + rng.below(3),
                1 => 100,
                _ => 1 + rng.below(300),
            }
            .min(budget);
            let id = LoopId(*next_loop);
            *next_loop += 1;
            CodeRegion::Loop {
                id,
                count,
                body: random_regions(rng, depth - 1, (budget / count).max(1), next_loop),
            }
        })
        .collect()
}

fn code_of(regions: Vec<CodeRegion>, n_loops: u32) -> (CellCode, IdVec<LoopId, LoopMeta>) {
    let mut loops = IdVec::new();
    for _ in 0..n_loops.max(1) {
        loops.push(LoopMeta {
            var: w2_lang::hir::VarId(0),
            lo: 0,
            count: 0,
        });
    }
    let code = CellCode {
        name: "nest".into(),
        regions,
        regs_used: 0,
        scratch_words: 0,
        pipelined: vec![],
    };
    (code, loops)
}

#[test]
fn random_nests_agree_with_the_enumeration() {
    for seed in [1, 0x5EED, 0xC0FFEE, 0xDEAD_BEEF] {
        let mut rng = SplitMix64::new(seed);
        for case in 0..400 {
            let mut n_loops = 0;
            let regions = random_regions(&mut rng, 3, 2_000, &mut n_loops);
            let (code, loops) = code_of(regions, n_loops);
            check(
                &format!("seed {seed} case {case}"),
                &code,
                &loops,
                Dir::Right,
            );
        }
    }
}

/// Dissimilar nests with balanced word counts: `outer × inner` receives
/// in a two-deep nest against one flat loop of as many sends, and two
/// words per iteration in against one out.
#[test]
fn dissimilar_balanced_nests_agree_with_the_enumeration() {
    let recv = |len| paper::block(len, vec![(0, Dir::Left, Chan::X, true)]);
    let send = |len| paper::block(len, vec![(0, Dir::Right, Chan::X, false)]);
    let looped = |id, count, body| CodeRegion::Loop {
        id: LoopId(id),
        count,
        body,
    };
    for (outer, inner) in [(7, 40), (40, 7), (1, 300), (300, 1)] {
        for (recv_len, send_len) in [(1, 1), (2, 1), (1, 3)] {
            let nested = looped(0, outer, vec![looped(1, inner, vec![recv(recv_len)])]);
            let flat = looped(2, outer * inner, vec![send(send_len)]);
            let name = format!("{outer}x{inner} recv/{recv_len} send/{send_len}");
            for regions in [vec![nested.clone(), flat.clone()], vec![flat, nested]] {
                let (code, loops) = code_of(regions, 3);
                check(&name, &code, &loops, Dir::Right);
            }
        }
    }
    let pairs = paper::block(
        3,
        vec![(0, Dir::Left, Chan::X, true), (1, Dir::Left, Chan::X, true)],
    );
    let (code, loops) = code_of(
        vec![looped(0, 250, vec![pairs]), looped(1, 500, vec![send(2)])],
        2,
    );
    let steps = check("two in, one out", &code, &loops, Dir::Right);
    assert!(
        steps >= 500,
        "dissimilar nests are stepped, not guessed: {steps}"
    );
}

/// Cost follows text: the engine's step count does not depend on the
/// number of points the program streams.
#[test]
fn step_count_is_independent_of_the_data_size() {
    let steps_of = |name: &str, source: String| {
        let m = compile(&source, &CompileOptions::default(), true)
            .unwrap_or_else(|| panic!("{name} compiles"));
        check(name, &m.cell_code, &m.ir.loops, m.skew.flow)
    };
    let conv = [256, 65536].map(|n| steps_of("conv1d-9", corpus::conv1d_source(9, n)));
    let poly = [256, 65536].map(|n| steps_of("polynomial-10", corpus::polynomial_source(10, n)));
    assert_eq!(conv[0], conv[1], "conv1d-9 at 256 and 65536 points");
    assert_eq!(poly[0], poly[1], "polynomial-10 at 256 and 65536 points");
    for steps in conv.into_iter().chain(poly) {
        assert!(steps < 100, "{steps} steps");
    }
}
