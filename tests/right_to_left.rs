//! Unidirectional programs may also flow right-to-left (paper §5.1.1
//! allows either direction, just not both). The compiler and simulator
//! mirror everything: the boundary input is the rightmost cell and
//! skew delays cells towards the left.

use warp::compiler::{compile, CompileOptions};

const R2L: &str = "module r2l (xs in, ys out) float xs[8]; float ys[8]; \
    cellprogram (cid : 0 : 2) begin function f begin float v; int i; \
    for i := 0 to 7 do begin \
      receive (R, X, v, xs[i]); \
      send (L, X, v + 1.0, ys[i]); \
    end; end call f; end";

#[test]
fn right_to_left_pipeline_runs() {
    let m = compile(R2L, &CompileOptions::default()).expect("compiles");
    assert_eq!(m.skew.flow, warp::w2::ast::Dir::Left);
    let xs: Vec<f32> = (0..8).map(|i| i as f32 * 2.0).collect();
    let r = m.run(&[("xs", &xs)]).expect("runs");
    // Three cells each add 1.
    let expect: Vec<f32> = xs.iter().map(|v| v + 3.0).collect();
    assert_eq!(r.host.get("ys").unwrap(), &expect[..]);
}

#[test]
fn right_to_left_skew_is_minimal() {
    let m = compile(R2L, &CompileOptions::default()).expect("compiles");
    assert!(m.skew.min_skew > 0);
    let xs = vec![1.0f32; 8];
    let err = m
        .run_with(3, m.skew.min_skew - 1, &[("xs", &xs)])
        .expect_err("below minimum underflows");
    assert!(matches!(err, warp::sim::SimError::QueueUnderflow { .. }));
}

#[test]
fn oracle_agrees_right_to_left() {
    let m = compile(R2L, &CompileOptions::default()).expect("compiles");
    let hir = warp::w2::parse_and_check(R2L).expect("front end");
    let xs: Vec<f32> = (0..8).map(|i| (i * i) as f32).collect();
    let mut host = warp::host::HostMemory::new(&m.ir.vars);
    host.set("xs", &xs).expect("xs binds");
    let want = warp::oracle::interpret(&hir, &host).expect("oracle");
    let got = m.run(&[("xs", &xs)]).expect("runs");
    assert_eq!(got.host.get("ys").unwrap(), want.get("ys").unwrap());
}
