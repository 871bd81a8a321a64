//! Corpus conformance of the reference W2 interpreter (test-only).
//!
//! The interpreter itself lives in the `warp-oracle` crate (together
//! with the seeded program generator and the shrinker) so it can never
//! depend on — or be contaminated by — the compiler it checks. These
//! tests sit on the compiler side because they need its `corpus` and
//! `reference` modules.

use crate::{corpus, reference};
use w2_lang::parse_and_check;
use warp_host::HostMemory;
use warp_oracle::interpret;

fn run_oracle(src: &str, inputs: &[(&str, &[f32])]) -> HostMemory {
    let hir = parse_and_check(src).expect("valid");
    let mut host = {
        // Build via the same HIR variable table the compiler uses.
        let ir = warp_ir::lower(&hir, &warp_ir::LowerOptions::default()).expect("lowers");
        HostMemory::new(&ir.vars)
    };
    for (name, data) in inputs {
        host.set(name, data).expect("test input binds");
    }
    interpret(&hir, &host).expect("oracle runs")
}

#[test]
fn oracle_matches_polynomial_reference() {
    let c: Vec<f32> = vec![1.0, -0.5, 2.0];
    let z: Vec<f32> = (0..16).map(|i| i as f32 * 0.1 - 0.8).collect();
    let host = run_oracle(&corpus::polynomial_source(3, 16), &[("c", &c), ("z", &z)]);
    assert_eq!(
        host.get("results").unwrap(),
        &reference::polynomial(&c, &z)[..]
    );
}

#[test]
fn oracle_matches_conv_reference() {
    let w = vec![0.5f32, -0.25, 1.0];
    let x: Vec<f32> = (0..20).map(|i| ((i * 7) % 9) as f32).collect();
    let host = run_oracle(&corpus::conv1d_source(3, 20), &[("w", &w), ("x", &x)]);
    assert_eq!(host.get("y").unwrap(), &reference::conv1d(&w, &x)[..]);
}

#[test]
fn oracle_matches_mandelbrot_reference() {
    let n = 6usize;
    let cre: Vec<f32> = (0..n * n).map(|i| -2.0 + (i % n) as f32 * 0.5).collect();
    let cim: Vec<f32> = (0..n * n).map(|i| -1.0 + (i / n) as f32 * 0.4).collect();
    let host = run_oracle(
        &corpus::mandelbrot_source(n as u32, 4),
        &[("cre", &cre), ("cim", &cim)],
    );
    assert_eq!(
        host.get("count").unwrap(),
        &reference::mandelbrot(&cre, &cim, 4)[..]
    );
}

#[test]
fn oracle_matches_matmul_reference() {
    let a: Vec<f32> = (0..12).map(|i| i as f32 - 5.0).collect();
    let b: Vec<f32> = (0..16).map(|i| ((i * 5) % 7) as f32).collect();
    let host = run_oracle(&corpus::matmul_source(2, 3, 4, 2), &[("a", &a), ("b", &b)]);
    assert_eq!(
        host.get("c").unwrap(),
        &reference::matmul(&a, &b, 3, 4, 4)[..]
    );
}

#[test]
fn oracle_detects_count_mismatch() {
    // Receives more than upstream sends.
    let src = "module bad (xs in) float xs[4]; \
        cellprogram (cid : 0 : 1) begin function f begin float v; \
        receive (L, X, v, xs[0]); receive (L, X, v, xs[1]); send (R, X, v); \
        end call f; end";
    let hir = parse_and_check(src).expect("front end accepts");
    let ir = warp_ir::lower(&hir, &warp_ir::LowerOptions::default()).expect("lowers");
    let host = HostMemory::new(&ir.vars);
    let err = interpret(&hir, &host).expect_err("cell 1 starves");
    assert!(err.contains("empty upstream"), "{err}");
}
