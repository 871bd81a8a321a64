//! Seeded property tests over the core analyses and the whole
//! pipeline, on the in-house [`SplitMix64`] stream (no registry
//! dependency, so they run offline in tier-1).
//!
//! * random loop-structured I/O programs → the closed-form timing
//!   functions agree with exact enumeration, and the analytic skew
//!   bound covers the exact skew;
//! * queue occupancy is monotone in the skew;
//! * random parameters through the corpus generators → compiled +
//!   simulated results equal the references bit-for-bit;
//! * random affine nests → IU emissions equal direct evaluation;
//! * `Rat` obeys field laws and order compatibility;
//! * random arithmetic DAGs → legal schedules, semantics-preserving
//!   height reduction, allocation within budget;
//! * generated programs round-trip through the pretty-printer.
//!
//! Every property runs `cases` draws from each seed in [`SEEDS`];
//! shapes that once failed are replayed as explicit cases first.

use w2_lang::ast::{Chan, Dir};
use warp::cell::{CellCode, CellMachine, CodeRegion};
use warp::compiler::{compile, corpus, reference, CompileOptions};
use warp::skew::{extract, min_skew_bound, paper, Timeline};
use warp_common::{IdVec, Rat, SplitMix64};
use warp_ir::region::LoopMeta;
use warp_ir::{LoopId, NodeId, NodeKind};

const SEEDS: [u64; 4] = [1, 2, 3, 0x5EED];

/// Runs `property` on `cases` draws from each seed's stream.
fn for_each_case(cases: usize, mut property: impl FnMut(&mut SplitMix64)) {
    for seed in SEEDS {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..cases {
            property(&mut rng);
        }
    }
}

/// A value in `lo..hi`.
fn int_in(rng: &mut SplitMix64, lo: u32, hi: u32) -> u32 {
    lo + rng.below(u64::from(hi - lo)) as u32
}

/// `n` floats on a 1/1024 grid in `lo..hi`.
fn floats_in(rng: &mut SplitMix64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    let steps = ((hi - lo) * 1024.0) as u64;
    (0..n)
        .map(|_| lo + rng.below(steps) as f32 / 1024.0)
        .collect()
}

// ---------- random I/O region programs ----------

#[derive(Clone, Debug)]
enum ProgShape {
    /// A straight-line block with one event per cycle, each `true` =
    /// input (recv L,X), `false` = output (send R,X).
    Block(Vec<bool>),
    /// A loop around blocks.
    Loop(u8, Vec<ProgShape>),
}

fn shape(rng: &mut SplitMix64, depth: u32) -> ProgShape {
    if depth == 0 || rng.chance(1, 2) {
        let events = (0..rng.below(4)).map(|_| rng.chance(1, 2)).collect();
        ProgShape::Block(events)
    } else {
        let count = int_in(rng, 1, 4) as u8;
        let body = (0..int_in(rng, 1, 3))
            .map(|_| shape(rng, depth - 1))
            .collect();
        ProgShape::Loop(count, body)
    }
}

fn shapes(rng: &mut SplitMix64, depth: u32) -> Vec<ProgShape> {
    (0..int_in(rng, 1, 4)).map(|_| shape(rng, depth)).collect()
}

/// The shape proptest once shrank a failure to.
fn regression_shapes() -> Vec<ProgShape> {
    let block = ProgShape::Block(vec![true, false, true]);
    vec![ProgShape::Loop(1, vec![ProgShape::Loop(2, vec![block])])]
}

fn build_regions(shapes: &[ProgShape], next_loop: &mut u32) -> Vec<CodeRegion> {
    let mut out = Vec::new();
    for s in shapes {
        match s {
            ProgShape::Block(events) => {
                let evs = events
                    .iter()
                    .enumerate()
                    .map(|(i, &is_recv)| {
                        let dir = if is_recv { Dir::Left } else { Dir::Right };
                        (i as u32, dir, Chan::X, is_recv)
                    })
                    .collect();
                out.push(paper::block(events.len().max(1), evs));
            }
            ProgShape::Loop(count, body) => {
                let id = LoopId(*next_loop);
                *next_loop += 1;
                out.push(CodeRegion::Loop {
                    id,
                    count: u64::from(*count),
                    body: build_regions(body, next_loop),
                });
            }
        }
    }
    out
}

fn build_code(shapes: &[ProgShape]) -> (CellCode, IdVec<LoopId, LoopMeta>) {
    let mut next_loop = 0;
    let regions = build_regions(shapes, &mut next_loop);
    let mut loops = IdVec::new();
    for _ in 0..next_loop.max(1) {
        loops.push(LoopMeta {
            var: w2_lang::hir::VarId(0),
            lo: 0,
            count: 0,
        });
    }
    let code = CellCode {
        name: "prop".into(),
        regions,
        regs_used: 0,
        scratch_words: 0,
        pipelined: vec![],
    };
    (code, loops)
}

/// The send (R,X) and receive (L,X) times of `code`, truncated to
/// the words both sides transfer.
fn matched_streams(
    code: &CellCode,
    loops: &IdVec<LoopId, LoopMeta>,
) -> Option<(Vec<u64>, Vec<u64>)> {
    let tl = Timeline::build(code, loops);
    let outs = tl.sends.get(&(Dir::Right, Chan::X))?;
    let ins = tl.recvs.get(&(Dir::Left, Chan::X))?;
    let n = outs.len().min(ins.len());
    Some((outs[..n].to_vec(), ins[..n].to_vec()))
}

/// The closed-form τ functions evaluate to exactly the enumerated
/// operation times, over their exact domains.
fn check_timing_functions(shapes: &[ProgShape]) {
    let (code, loops) = build_code(shapes);
    let tl = Timeline::build(&code, &loops);
    let stmts = extract(&code);
    for (is_recv, streams) in [(true, &tl.recvs), (false, &tl.sends)] {
        for (&(dir, chan), times) in streams {
            assert_eq!(chan, Chan::X);
            let of_stream = || {
                let all = stmts.iter();
                all.filter(move |s| s.dir == dir && s.chan == chan && s.is_recv == is_recv)
            };
            for (n, &t) in times.iter().enumerate() {
                let matches: Vec<i64> = of_stream().filter_map(|s| s.tf.eval(n as i64)).collect();
                assert_eq!(
                    matches,
                    [t as i64],
                    "ordinal {n} must match exactly one statement, at its enumerated time: {shapes:?}"
                );
            }
            // Past-the-end ordinals are in no domain.
            for s in of_stream() {
                assert_eq!(s.tf.eval(times.len() as i64), None, "{shapes:?}");
            }
        }
    }
}

#[test]
fn timing_functions_match_enumeration() {
    check_timing_functions(&regression_shapes());
    for_each_case(32, |rng| check_timing_functions(&shapes(rng, 3)));
}

/// The analytic skew bound never under-approximates the exact
/// minimum skew.
fn check_skew_bound(shapes: &[ProgShape]) {
    let (code, loops) = build_code(shapes);
    let Some((outs, ins)) = matched_streams(&code, &loops) else {
        return;
    };
    let Some(exact) = outs
        .iter()
        .zip(&ins)
        .map(|(&o, &i)| o as i64 - i as i64)
        .max()
    else {
        return;
    };
    let bound = min_skew_bound(&extract(&code), Dir::Right).expect("tiny programs cannot overflow");
    assert!(
        bound >= exact.max(0),
        "bound {bound} < exact {exact}: {shapes:?}"
    );
}

#[test]
fn analytic_skew_bound_sound() {
    check_skew_bound(&regression_shapes());
    for_each_case(32, |rng| check_skew_bound(&shapes(rng, 3)));
}

/// Queue occupancy never decreases as the skew grows.
fn check_occupancy_monotone(shapes: &[ProgShape], skew: i64, delta: i64) {
    let (code, loops) = build_code(shapes);
    let Some((outs, ins)) = matched_streams(&code, &loops) else {
        return;
    };
    let a = Timeline::queue_occupancy(&outs, &ins, skew);
    let b = Timeline::queue_occupancy(&outs, &ins, skew + delta);
    assert!(
        b >= a,
        "occupancy {a} at skew {skew} fell to {b} at {}: {shapes:?}",
        skew + delta
    );
}

#[test]
fn occupancy_monotone_in_skew() {
    for (skew, delta) in [(0, 0), (0, 1), (3, 36)] {
        check_occupancy_monotone(&regression_shapes(), skew, delta);
    }
    for_each_case(32, |rng| {
        let shapes = shapes(rng, 2);
        let (skew, delta) = (rng.below(40) as i64, rng.below(40) as i64);
        check_occupancy_monotone(&shapes, skew, delta);
    });
}

// ---------- end-to-end: corpus generators vs references ----------

#[test]
fn polynomial_pipeline_correct() {
    for_each_case(3, |rng| {
        let (n_cells, points) = (int_in(rng, 2, 6), int_in(rng, 1, 24));
        let c = floats_in(rng, n_cells as usize, -2.0, 2.0);
        let z = floats_in(rng, points as usize, -1.5, 1.5);
        let src = corpus::polynomial_source(n_cells, points);
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let r = m.run(&[("c", &c), ("z", &z)]).expect("runs");
        assert_eq!(
            r.host.get("results").expect("results"),
            &reference::polynomial(&c, &z)[..]
        );
    });
}

#[test]
fn conv_pipeline_correct() {
    for_each_case(3, |rng| {
        let (taps, n) = (int_in(rng, 2, 6), int_in(rng, 8, 32));
        let w = floats_in(rng, taps as usize, -1.0, 1.0);
        let x = floats_in(rng, n as usize, -4.0, 4.0);
        let src = corpus::conv1d_source(taps, n);
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let r = m.run(&[("w", &w), ("x", &x)]).expect("runs");
        assert_eq!(r.host.get("y").expect("y"), &reference::conv1d(&w, &x)[..]);
    });
}

#[test]
fn matmul_correct() {
    for_each_case(3, |rng| {
        let (cells, rows, p, w) = (
            int_in(rng, 1, 4),
            int_in(rng, 1, 4),
            int_in(rng, 1, 4),
            int_in(rng, 1, 3),
        );
        let q = cells * w;
        let a = floats_in(rng, (rows * p) as usize, -3.0, 3.0);
        let b = floats_in(rng, (p * q) as usize, -3.0, 3.0);
        let src = corpus::matmul_source(cells, rows, p, w);
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let r = m.run(&[("a", &a), ("b", &b)]).expect("runs");
        assert_eq!(
            r.host.get("c").expect("c"),
            &reference::matmul(&a, &b, rows as usize, p as usize, q as usize)[..]
        );
    });
}

#[test]
fn mandelbrot_correct() {
    for_each_case(3, |rng| {
        let (size, iters) = (int_in(rng, 2, 6), int_in(rng, 1, 5));
        let n = (size * size) as usize;
        let cre = floats_in(rng, n, -2.0, 2.0);
        let cim = floats_in(rng, n, -2.0, 2.0);
        let src = corpus::mandelbrot_source(size, iters);
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let r = m.run(&[("cre", &cre), ("cim", &cim)]).expect("runs");
        assert_eq!(
            r.host.get("count").expect("count"),
            &reference::mandelbrot(&cre, &cim, iters)[..]
        );
    });
}

// ---------- Rat laws ----------

fn rat(rng: &mut SplitMix64) -> Rat {
    Rat::new(rng.below(2000) as i128 - 1000, 1 + rng.below(59) as i128)
}

#[test]
fn rat_field_laws() {
    for_each_case(64, |rng| {
        let (a, b, c) = (rat(rng), rat(rng), rat(rng));
        assert_eq!(a + b, b + a);
        assert_eq!((a + b) + c, a + (b + c));
        assert_eq!(a * b, b * a);
        assert_eq!((a * b) * c, a * (b * c));
        assert_eq!(a * (b + c), a * b + a * c);
        assert_eq!(a + Rat::ZERO, a);
        assert_eq!(a * Rat::ONE, a);
        assert_eq!(a - a, Rat::ZERO);
        if b != Rat::ZERO {
            assert_eq!((a / b) * b, a);
        }
    });
}

#[test]
fn rat_order_compatible() {
    for_each_case(64, |rng| {
        let (a, b, c) = (rat(rng), rat(rng), rat(rng));
        if a < b {
            assert!(a + c < b + c);
            if c.signum() > 0 {
                assert!(a * c < b * c);
            }
        }
        let (f, ce) = (a.floor(), a.ceil());
        assert!(Rat::from(f) <= a);
        assert!(a <= Rat::from(ce));
        assert!(ce - f <= 1);
    });
}

// ---------- IU address streams on random nests ----------

/// A random 2-deep loop nest written in (i, j) order and read back in
/// a possibly flipped row order (negative strides): the IU's
/// strength-reduced address stream equals direct evaluation, checked
/// end to end — the program buffers through cell memory and must still
/// reproduce its input.
#[test]
fn iu_streams_permutation_roundtrip() {
    for_each_case(6, |rng| {
        let (rows, cols) = (int_in(rng, 1, 5), int_in(rng, 1, 5));
        let flip_row = rng.chance(1, 2);
        let n = rows * cols;
        let read_idx = if flip_row {
            format!("t[{rmax} - i, j]", rmax = rows - 1)
        } else {
            "t[i, j]".to_owned()
        };
        let src = format!(
            "module perm (xs in, ys out) float xs[{n}]; float ys[{n}]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; \
             float t[{rows}, {cols}]; int i, j; \
             for i := 0 to {rlast} do for j := 0 to {clast} do begin \
               receive (L, X, v, xs[i * {cols} + j]); t[i, j] := v; end; \
             for i := 0 to {rlast} do for j := 0 to {clast} do begin \
               v := {read_idx}; send (R, X, v, ys[i * {cols} + j]); end; \
             end call f; end",
            rlast = rows - 1,
            clast = cols - 1,
        );
        let m = compile(&src, &CompileOptions::default()).expect("compiles");
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let r = m.run(&[("xs", &xs)]).expect("runs");
        let expect: Vec<f32> = (0..rows)
            .flat_map(|i| {
                let src_row = if flip_row { rows - 1 - i } else { i };
                (0..cols).map(move |j| (src_row * cols + j) as f32)
            })
            .collect();
        assert_eq!(r.host.get("ys").expect("ys"), &expect[..]);
    });
}

// ---------- scheduler and height reduction on random DAGs ----------

/// A recipe for a random arithmetic DAG: each op picks two earlier
/// values (by index modulo the current frontier) and an opcode.
#[derive(Clone, Debug)]
struct DagRecipe {
    n_loads: usize,
    ops: Vec<(u8, usize, usize)>,
}

fn dag(rng: &mut SplitMix64) -> DagRecipe {
    let n_loads = int_in(rng, 2, 6) as usize;
    let ops = (0..int_in(rng, 1, 24))
        .map(|_| {
            (
                rng.below(3) as u8,
                rng.next_u64() as usize,
                rng.next_u64() as usize,
            )
        })
        .collect();
    DagRecipe { n_loads, ops }
}

/// The two `(recipe, inputs)` pairs proptest once shrank
/// height-reduction failures to.
fn regression_dags() -> [(DagRecipe, [i8; 8]); 2] {
    let first = DagRecipe {
        n_loads: 5,
        ops: vec![
            (0, 0, 0),
            (0, 0, 0),
            (0, 0, 738345225),
            (2, 4684247227409062077, 341106744960261377),
            (0, 4590712471914390734, 5307816106013856316),
            (1, 17442128379612974043, 5641868722025681671),
            (1, 14216860322660176537, 11154815103382098306),
            (1, 13600187760967715669, 15110085603208292715),
            (0, 397545775200998018, 15058580448738457289),
            (1, 14991012540779425933, 5644250141259430210),
            (1, 2560194296951556909, 573703710323552685),
            (0, 486434288949874535, 15406588074137436697),
            (2, 18163646442821538629, 9682031736324433826),
            (0, 8744061120305603850, 15048127792028297970),
            (0, 15180760806311638636, 5411054060527620600),
            (2, 14075056267387268871, 2119470150596111977),
            (0, 9985048998396927223, 11884971912166518058),
        ],
    };
    let second = DagRecipe {
        n_loads: 2,
        ops: vec![
            (0, 0, 0),
            (0, 5013300004754124687, 2853102540526642734),
            (1, 0, 1024172520951),
            (1, 12321796419118640675, 11007969137013229503),
            (0, 3325397126005392070, 5485748392435270447),
            (1, 10615462174727241428, 6760681875887582751),
            (2, 4830651335651865563, 10600663724448478211),
            (1, 10585318161275813609, 1878160514146359279),
            (2, 17888658280793735574, 16912296597796283026),
            (0, 16461885219808320374, 11108722627151951106),
            (0, 5447963661508779787, 2388468839620454157),
            (2, 6771819264917186380, 8428726136944969487),
            (0, 9546969523878743073, 213627015440373430),
            (0, 2672544771751307630, 10833119654187619165),
            (2, 18014212388146092127, 10805291842060644192),
            (2, 13960513425417280018, 13585285103471343797),
            (2, 14320019852497428698, 6681330072340667159),
            (1, 7386949983018528012, 2237906836725717029),
            (2, 16691200698964257493, 18063323111448622962),
            (1, 10337018881594542848, 4860251108254377469),
        ],
    };
    [
        (first, [-1, 0, -1, -2, -2, -4, 0, 0]),
        (second, [1, -3, -1, 3, 3, -4, 1, 0]),
    ]
}

fn build_dag(recipe: &DagRecipe) -> (warp_ir::Block, Vec<NodeId>) {
    use w2_lang::hir::VarId;
    use warp_ir::{Affine, Node};
    let mut b = warp_ir::Block::new();
    let mut values: Vec<NodeId> = (0..recipe.n_loads)
        .map(|i| {
            b.nodes.push(Node {
                kind: NodeKind::Load {
                    var: VarId(0),
                    addr: Affine::constant(i as i64),
                },
                inputs: vec![],
                deps: vec![],
            })
        })
        .collect();
    let loads = values.clone();
    for &(op, x, y) in &recipe.ops {
        let kind = match op {
            0 => NodeKind::FAdd,
            1 => NodeKind::FMul,
            _ => NodeKind::FSub,
        };
        let inputs = vec![values[x % values.len()], values[y % values.len()]];
        values.push(b.nodes.push(Node {
            kind,
            inputs,
            deps: vec![],
        }));
    }
    // Store the last value so everything upstream of it is live.
    let store = b.nodes.push(Node {
        kind: NodeKind::Store {
            var: VarId(0),
            addr: Affine::constant(100),
        },
        inputs: vec![*values.last().expect("nonempty")],
        deps: vec![],
    });
    b.roots.push(store);
    (b, loads)
}

/// Evaluates the DAG with integer-valued leaves (exact in f64, so
/// reassociation by height reduction cannot change the result).
fn eval_dag(b: &warp_ir::Block, loads: &[NodeId], inputs: &[f64]) -> f64 {
    fn go(
        b: &warp_ir::Block,
        n: NodeId,
        loads: &[NodeId],
        inputs: &[f64],
        memo: &mut std::collections::HashMap<NodeId, f64>,
    ) -> f64 {
        if let Some(&v) = memo.get(&n) {
            return v;
        }
        let node = &b.nodes[n];
        let mut arg = |k: usize| go(b, node.inputs[k], loads, inputs, memo);
        let v = match &node.kind {
            NodeKind::Load { .. } => inputs[loads.iter().position(|&l| l == n).expect("is a load")],
            NodeKind::FAdd => arg(0) + arg(1),
            NodeKind::FSub => arg(0) - arg(1),
            NodeKind::FMul => arg(0) * arg(1),
            NodeKind::Store { .. } => arg(0),
            other => unreachable!("{other:?}"),
        };
        memo.insert(n, v);
        v
    }
    let mut memo = std::collections::HashMap::new();
    go(b, b.roots[0], loads, inputs, &mut memo)
}

/// Every random DAG gets a legal schedule (latencies, deps, and
/// resource limits all validated).
#[test]
fn scheduler_always_legal() {
    for_each_case(24, |rng| {
        let (b, _) = build_dag(&dag(rng));
        let m = CellMachine::default();
        let facts = warp::cell::BlockFacts::new(&b, &m);
        let s = warp::cell::schedule(&facts);
        assert_eq!(warp::cell::validate(&facts, &s), Ok(()));
    });
}

/// Height reduction preserves semantics (integer-valued inputs keep
/// f64 evaluation exact under reassociation: up to 24 factors in
/// [-4, 4] stay below 2^53) and never lengthens the critical path.
fn check_height_reduction(recipe: &DagRecipe, raw_inputs: &[i8]) {
    let (mut b, loads) = build_dag(recipe);
    let inputs: Vec<f64> = raw_inputs.iter().map(|&v| f64::from(v)).collect();
    let m = CellMachine::default();
    let latency = |k: &NodeKind| m.latency_of(k);
    let before = eval_dag(&b, &loads, &inputs);
    let cp_before = warp_ir::rewrite::critical_path(&b, latency);
    warp_ir::rewrite::height_reduce(&mut b, &m.latency_model());
    assert_eq!(before, eval_dag(&b, &loads, &inputs), "{recipe:?}");
    assert!(warp_ir::rewrite::critical_path(&b, latency) <= cp_before);
    // The rewritten DAG still schedules legally.
    let facts = warp::cell::BlockFacts::new(&b, &m);
    let s = warp::cell::schedule(&facts);
    assert_eq!(warp::cell::validate(&facts, &s), Ok(()));
}

#[test]
fn height_reduction_semantics() {
    for (recipe, raw_inputs) in regression_dags() {
        check_height_reduction(&recipe, &raw_inputs);
    }
    for_each_case(24, |rng| {
        let recipe = dag(rng);
        let raw_inputs: Vec<i8> = (0..8).map(|_| rng.below(8) as i8 - 4).collect();
        check_height_reduction(&recipe, &raw_inputs);
    });
}

/// Register allocation under any file size either succeeds within
/// budget or honestly reports a spillable victim.
#[test]
fn allocation_respects_budget() {
    for_each_case(24, |rng| {
        let (b, _) = build_dag(&dag(rng));
        let regs = int_in(rng, 2, 64);
        let m = CellMachine::default();
        let facts = warp::cell::BlockFacts::new(&b, &m);
        let s = warp::cell::schedule(&facts);
        match warp::cell::allocate(&facts, &s, regs) {
            Ok(a) => assert!(a.regs_used <= regs),
            Err(spill) => assert!(spill.victim.is_some() || regs < 4),
        }
    });
}

// ---------- the pretty-printer on generated programs ----------

/// The canonical pretty-printer round-trips every generated program:
/// printed source reparses to the same tree.
#[test]
fn pretty_printer_roundtrips() {
    use warp::oracle::gen::{generate, GenConfig};
    use warp::w2::parser::parse;
    use warp::w2::pretty::{print_module, strip_spans};
    for seed in 0..64 {
        let program = generate(seed, &GenConfig::default());
        let ast1 = parse(&program.source).expect("generated source parses");
        let printed = print_module(&ast1);
        let ast2 = parse(&printed)
            .unwrap_or_else(|e| panic!("printed source must reparse:\n{e}\n{printed}"));
        assert_eq!(strip_spans(&ast1), strip_spans(&ast2), "seed {seed}");
    }
}
