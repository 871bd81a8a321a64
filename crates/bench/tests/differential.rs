//! Differential fuzzing: random W2 programs are compiled, simulated on
//! the array, and compared bit-for-bit against the independent HIR
//! oracle interpreter ([`warp::oracle`]). The oracle shares no
//! code with the scheduler, register allocator, IU, or simulator, so
//! agreement exercises the whole back end.

use proptest::prelude::*;
use warp::compiler::{compile, CompileOptions};
use warp::host::HostMemory;
use warp::oracle;
use warp::w2::parse_and_check;

/// A randomly generated expression over the cell's float scalars.
#[derive(Clone, Debug)]
enum Expr {
    Var(u8),
    Arr, // arr[i]
    Const(i8),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

const VARS: [&str; 4] = ["x", "y", "z", "acc"];

impl Expr {
    fn render(&self) -> String {
        match self {
            Expr::Var(v) => VARS[*v as usize % VARS.len()].to_owned(),
            Expr::Arr => "arr[i]".to_owned(),
            Expr::Const(c) => format!("{:.1}", f32::from(*c) * 0.5),
            Expr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            Expr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            Expr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<u8>().prop_map(Expr::Var),
        Just(Expr::Arr),
        any::<i8>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
        ]
    })
}

/// A statement inside a loop body (between the receives and the sends).
#[derive(Clone, Debug)]
enum Mid {
    Assign(u8, Expr),
    ArrStore(Expr),                               // arr[i] := e
    If(Expr, Expr, u8, Expr, Option<(u8, Expr)>), // if a < b then v := e [else v2 := e2]
}

fn mid_strategy() -> impl Strategy<Value = Mid> {
    prop_oneof![
        (any::<u8>(), expr_strategy()).prop_map(|(v, e)| Mid::Assign(v, e)),
        expr_strategy().prop_map(Mid::ArrStore),
        (
            expr_strategy(),
            expr_strategy(),
            any::<u8>(),
            expr_strategy(),
            prop::option::of((any::<u8>(), expr_strategy()))
        )
            .prop_map(|(a, b, v, e, els)| Mid::If(a, b, v, e, els)),
    ]
}

#[derive(Clone, Debug)]
struct LoopSpec {
    trip: u8, // 2..=8
    n_io: u8, // 1..=3 recv/send pairs
    mids: Vec<Mid>,
}

#[derive(Clone, Debug)]
struct ProgramSpec {
    loops: Vec<LoopSpec>,
    n_cells: u8, // 1..=3
}

fn program_strategy() -> impl Strategy<Value = ProgramSpec> {
    (
        prop::collection::vec(
            (2u8..8, 1u8..4, prop::collection::vec(mid_strategy(), 0..4))
                .prop_map(|(trip, n_io, mids)| LoopSpec { trip, n_io, mids }),
            1..3,
        ),
        1u8..4,
    )
        .prop_map(|(loops, n_cells)| ProgramSpec { loops, n_cells })
}

fn render(spec: &ProgramSpec) -> (String, usize) {
    let mut body = String::new();
    let mut in_base = 0usize;
    let mut out_base = 0usize;
    for (li, l) in spec.loops.iter().enumerate() {
        let trip = l.trip as usize;
        body.push_str(&format!("    for i := 0 to {} do begin\n", trip - 1));
        // Receives bind x, y, z cyclically.
        for r in 0..l.n_io {
            body.push_str(&format!(
                "      receive (L, X, {}, zs[i + {}]);\n",
                VARS[r as usize % VARS.len()],
                in_base
            ));
            in_base += trip;
        }
        for m in &l.mids {
            match m {
                Mid::Assign(v, e) => body.push_str(&format!(
                    "      {} := {};\n",
                    VARS[*v as usize % VARS.len()],
                    e.render()
                )),
                Mid::ArrStore(e) => body.push_str(&format!("      arr[i] := {};\n", e.render())),
                Mid::If(a, b, v, e, els) => {
                    body.push_str(&format!(
                        "      if {} < {} then\n        {} := {};\n",
                        a.render(),
                        b.render(),
                        VARS[*v as usize % VARS.len()],
                        e.render()
                    ));
                    if let Some((v2, e2)) = els {
                        body.push_str(&format!(
                            "      else\n        {} := {};\n",
                            VARS[*v2 as usize % VARS.len()],
                            e2.render()
                        ));
                    }
                }
            }
        }
        for s in 0..l.n_io {
            let e = Expr::Add(Box::new(Expr::Var(s)), Box::new(Expr::Var(s + 1)));
            body.push_str(&format!(
                "      send (R, X, {}, rs[i + {}]);\n",
                e.render(),
                out_base
            ));
            out_base += trip;
        }
        body.push_str("    end;\n");
        let _ = li;
    }
    let src = format!(
        "module fuzz (zs in, rs out)\nfloat zs[512];\nfloat rs[512];\n\
         cellprogram (cid : 0 : {})\nbegin\n  function f\n  begin\n\
         \x20   float x, y, z, acc;\n    float arr[8];\n    int i;\n{body}  end\n  call f;\nend\n",
        spec.n_cells - 1
    );
    (src, out_base)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled-and-simulated results equal the oracle's, bit for bit.
    /// Height reduction is disabled: reassociating `+`/`*` chains is
    /// the one optimization allowed to change f32 rounding (checked
    /// separately with a relative tolerance below).
    #[test]
    fn compiled_equals_oracle(spec in program_strategy(), seed in any::<u32>()) {
        let (src, n_out) = render(&spec);
        let exact_opts = CompileOptions {
            lower: warp::ir::LowerOptions {
                reassociate: false,
                ..warp::ir::LowerOptions::default()
            },
            ..CompileOptions::default()
        };
        let module = compile(&src, &exact_opts)
            .unwrap_or_else(|e| panic!("generated program must compile:\n{e}\n{src}"));
        let hir = parse_and_check(&src).expect("front end");

        let zs: Vec<f32> = (0..512)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h >> 16) as i32 % 64) as f32 * 0.25
            })
            .collect();

        let sim = module.run(&[("zs", &zs)]).expect("simulates");
        let mut host = HostMemory::new(&module.ir.vars);
        host.set("zs", &zs);
        let oracle_out = oracle::interpret(&hir, &host).expect("oracle runs");

        let a = sim.host.get("rs");
        let b = oracle_out.get("rs");
        for k in 0..n_out {
            prop_assert_eq!(
                a[k].to_bits(),
                b[k].to_bits(),
                "rs[{}]: sim {} vs oracle {}\nprogram:\n{}",
                k,
                a[k],
                b[k],
                src
            );
        }
    }

    /// Nested loops with 2-D array traffic, squeezed through a tiny IU
    /// register file so plans spill to table memory, still match the
    /// oracle bit-for-bit.
    #[test]
    fn nested_loops_and_tight_iu_match_oracle(
        rows in 2u32..5,
        cols in 2u32..5,
        iu_regs in 1u32..4,
        n_cells in 1u32..3,
        seed in any::<u32>(),
    ) {
        let src = format!(
            "module nest (zs in, rs out)\nfloat zs[64];\nfloat rs[64];\n\
             cellprogram (cid : 0 : {nc})\nbegin\n  function f\n  begin\n\
             \x20   float v, acc;\n    float m[{rows}, {cols}];\n    int i, j;\n\
             \x20   for i := 0 to {rl} do\n      for j := 0 to {cl} do begin\n\
             \x20     receive (L, X, v, zs[i * {cols} + j]);\n\
             \x20     m[i, j] := v;\n\
             \x20     send (R, X, v, rs[i * {cols} + j]);\n      end;\n\
             \x20   acc := 0.0;\n\
             \x20   for i := 0 to {rl} do\n      for j := 0 to {cl} do\n\
             \x20     acc := acc + m[{rl} - i, j];\n\
             \x20   receive (L, Y, v, 1.0);\n\
             \x20   send (R, Y, acc + v, rs[63]);\n  end\n  call f;\nend\n",
            nc = n_cells - 1,
            rl = rows - 1,
            cl = cols - 1,
        );
        let opts = CompileOptions {
            iu: warp::iu::IuOptions {
                registers: iu_regs,
                ..warp::iu::IuOptions::default()
            },
            lower: warp::ir::LowerOptions {
                reassociate: false,
                ..warp::ir::LowerOptions::default()
            },
            ..CompileOptions::default()
        };
        let module = compile(&src, &opts)
            .unwrap_or_else(|e| panic!("must compile:\n{e}\n{src}"));
        let hir = parse_and_check(&src).expect("front end");
        let zs: Vec<f32> = (0..64)
            .map(|i| ((i as u32).wrapping_mul(seed | 1) >> 20) as f32 - 2048.0)
            .collect();
        let sim = module.run(&[("zs", &zs)]).expect("simulates");
        let mut host = HostMemory::new(&module.ir.vars);
        host.set("zs", &zs);
        let want = oracle::interpret(&hir, &host).expect("oracle");
        let (a, b) = (sim.host.get("rs"), want.get("rs"));
        for k in 0..64 {
            prop_assert_eq!(a[k].to_bits(), b[k].to_bits(), "rs[{}]: {} vs {}", k, a[k], b[k]);
        }
    }

    /// The same program, compiled with every optimization configuration,
    /// still matches the oracle (optimizations are semantics-preserving
    /// up to the reassociation the scheduler is allowed).
    #[test]
    fn option_matrix_equals_oracle(spec in program_strategy()) {
        let (src, n_out) = render(&spec);
        let hir = parse_and_check(&src).expect("front end");
        let zs: Vec<f32> = (0..512).map(|i| ((i * 13) % 32) as f32 - 16.0).collect();
        let mut host = HostMemory::new(
            &warp::ir::lower(&hir, &warp::ir::LowerOptions::default())
                .expect("lowers")
                .vars,
        );
        host.set("zs", &zs);
        let want = oracle::interpret(&hir, &host).expect("oracle");

        for (optimize, unroll, pipeline) in [
            (true, 1u32, false),
            (false, 1, false),
            (true, 4, false),
            (true, 1, true),
            (true, 2, true),
        ] {
            let opts = CompileOptions {
                lower: warp::ir::LowerOptions {
                    optimize,
                    unroll,
                    reassociate: false,
                    ..warp::ir::LowerOptions::default()
                },
                ..CompileOptions::default()
            };
            let module = warp::compiler::Session::new(opts)
                .with_ctrl(warp::compiler::SessionCtrl {
                    pipeline,
                    ..warp::compiler::SessionCtrl::default()
                })
                .compile(&src)
                .unwrap_or_else(|e| panic!("must compile (opt={optimize}, unroll={unroll}):\n{e}"));
            let sim = module.run(&[("zs", &zs)]).expect("simulates");
            let a = sim.host.get("rs");
            let b = want.get("rs");
            for k in 0..n_out {
                prop_assert_eq!(
                    a[k].to_bits(), b[k].to_bits(),
                    "rs[{}] differs with opt={}, unroll={}, pipeline={}\n{}",
                    k, optimize, unroll, pipeline, src
                );
            }
        }

        // With reassociation on, results may differ only by rounding:
        // require agreement within a relative tolerance.
        let module = compile(&src, &CompileOptions::default()).expect("compiles");
        let sim = module.run(&[("zs", &zs)]).expect("simulates");
        let a = sim.host.get("rs");
        let b = want.get("rs");
        for k in 0..n_out {
            let (x, y) = (f64::from(a[k]), f64::from(b[k]));
            let close = if x.is_finite() && y.is_finite() {
                let scale = x.abs().max(y.abs()).max(1.0);
                ((x - y) / scale).abs() < 1e-4
            } else {
                // Overflow/NaN classes must agree (reassociation can
                // only perturb rounding, not fabricate finite values
                // out of overflow in these magnitudes).
                x.is_nan() == y.is_nan() && (x.is_nan() || x == y)
            };
            prop_assert!(
                close,
                "rs[{}] diverges beyond rounding with reassociation: {} vs {}\n{}",
                k, x, y, src
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The canonical pretty-printer round-trips every generated program.
    #[test]
    fn pretty_printer_roundtrips(spec in program_strategy()) {
        use warp::w2::parser::parse;
        use warp::w2::pretty::{print_module, strip_spans};
        let (src, _) = render(&spec);
        let ast1 = parse(&src).expect("generated source parses");
        let printed = print_module(&ast1);
        let ast2 = parse(&printed)
            .unwrap_or_else(|e| panic!("printed source must reparse:\n{e}\n{printed}"));
        prop_assert_eq!(strip_spans(&ast1), strip_spans(&ast2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer and parser never panic on arbitrary input; they either
    /// produce a module or a diagnostic.
    #[test]
    fn front_end_never_panics(input in "\\PC{0,200}") {
        let _ = warp::w2::parser::parse(&input);
    }

    /// Same for byte soup that is valid UTF-8 built from W2-ish tokens.
    #[test]
    fn front_end_handles_token_soup(
        tokens in prop::collection::vec(
            prop_oneof![
                Just("module"), Just("begin"), Just("end"), Just("for"),
                Just("receive"), Just("send"), Just(":="), Just("("),
                Just(")"), Just("["), Just("]"), Just(";"), Just(","),
                Just("1"), Just("2.5"), Just("x"), Just("<"), Just("+"),
                Just("cellprogram"), Just(":"), Just("if"), Just("then"),
            ],
            0..60,
        )
    ) {
        let src = tokens.join(" ");
        let _ = warp::w2::parse_and_check(&src);
    }
}
