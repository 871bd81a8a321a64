//! The paper's flagship example (Figure 4-1): polynomial evaluation by
//! Horner's rule, one coefficient per cell, on the 10-cell array.
//!
//! ```sh
//! cargo run --example polynomial
//! ```

use warp::compiler::{compile, corpus, reference, CompileOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let module = compile(corpus::POLYNOMIAL, &CompileOptions::default())?;
    println!("compiled `{}` for {} cells", module.name, module.n_cells);
    println!(
        "cell µcode {} instructions, IU µcode {}, minimum skew {} cycles",
        module.metrics.cell_ucode, module.metrics.iu_ucode, module.skew.min_skew
    );

    // P(z) = z^9 - 2 z^7 + 0.5 z^4 + 3 z - 1 (high-order coefficient
    // first, as the cells consume them).
    let mut c = vec![0.0f32; 10];
    c[0] = 1.0; // z^9
    c[2] = -2.0; // z^7
    c[5] = 0.5; // z^4
    c[8] = 3.0; // z
    c[9] = -1.0; // 1
    let z: Vec<f32> = (0..100).map(|i| -1.0 + i as f32 * 0.02).collect();

    let report = module.run(&[("c", &c), ("z", &z)])?;
    let results = report.host.get("results").unwrap();
    let expect = reference::polynomial(&c, &z);
    assert_eq!(results, &expect[..], "array matches Horner bit-for-bit");

    println!("\n  z        P(z)");
    for i in (0..z.len()).step_by(20) {
        println!("  {:+.2}    {:+.6}", z[i], results[i]);
    }
    println!(
        "\n{} points in {} cycles ({:.3} results/cycle once filled); pipeline fill {} cycles",
        z.len(),
        report.cycles,
        z.len() as f64 / report.cycles as f64,
        module.skew.pipeline_fill(module.n_cells),
    );

    // The same program with unrolling on top of the default modulo
    // scheduling — the overlap the real Warp needed for its
    // one-result-per-cycle rate.
    let fast = compile(
        corpus::POLYNOMIAL,
        &CompileOptions {
            lower: warp::ir::LowerOptions {
                unroll: 4,
                ..warp::ir::LowerOptions::default()
            },
            ..CompileOptions::default()
        },
    )?;
    let fast_report = fast.run(&[("c", &c), ("z", &z)])?;
    assert_eq!(fast_report.host.get("results").unwrap(), &expect[..]);
    println!(
        "with unroll 4 on top: {} cycles ({:.3} results/cycle)",
        fast_report.cycles,
        z.len() as f64 / fast_report.cycles as f64,
    );
    Ok(())
}
