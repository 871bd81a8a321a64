//! Regenerates the Table 7-1 size metrics for all corpus programs —
//! the numbers recorded in EXPERIMENTS.md E8 — with modulo scheduling
//! (the default) and without it (`w2c --no-pipeline`).
//!
//! Compile time is not a property of the compiled module; it is
//! measured by `bash benchmark/run.sh --workload compile_kernels`.
//!
//! ```sh
//! cargo run --release --example metrics
//! ```

use warp::compiler::{corpus, CompileOptions, Session, SessionCtrl};

/// `39 (59)`: our number beside the paper's, where the paper has one.
fn with_paper(ours: String, paper: Option<u32>) -> String {
    match paper {
        Some(paper) => format!("{ours} ({paper})"),
        None => ours,
    }
}

/// Compiles `source` with and without software pipelining and prints
/// its row; `paper` is Table 7-1's (W2 lines, cell µcode, IU µcode).
fn print_row(
    name: &str,
    source: &str,
    paper: [Option<u32>; 3],
) -> Result<(), Box<dyn std::error::Error>> {
    let compile = |pipeline| {
        Session::new(CompileOptions::default())
            .with_ctrl(SessionCtrl {
                pipeline,
                ..SessionCtrl::default()
            })
            .compile(source)
    };
    let (module, listed) = (compile(true)?, compile(false)?.metrics);
    let piped = &module.metrics;
    println!(
        "{:<12} {:>10} {:>18} {:>18} {:>6} {:>6}",
        name,
        with_paper(piped.w2_lines.to_string(), paper[0]),
        with_paper(
            format!("{} / {}", piped.cell_ucode, listed.cell_ucode),
            paper[1]
        ),
        with_paper(
            format!("{} / {}", piped.iu_ucode, listed.iu_ucode),
            paper[2]
        ),
        module.skew.min_skew,
        module.n_cells,
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table 7-1 reproduction: pipelined / list-scheduled (paper)\n");
    println!(
        "{:<12} {:>10} {:>18} {:>18} {:>6} {:>6}",
        "Name", "W2 Lines", "Cell ucode", "IU ucode", "skew", "cells"
    );
    for (name, source, paper) in [
        ("1d-Conv", corpus::ONED_CONV, [59, 69, 72]),
        ("Binop", corpus::BINOP, [61, 118, 130]),
        ("ColorSeg", corpus::COLORSEG, [88, 556, 270]),
        ("Mandelbrot", corpus::MANDELBROT, [102, 1511, 254]),
        ("Polynomial", corpus::POLYNOMIAL, [49, 72, 83]),
    ] {
        print_row(name, source, paper.map(Some))?;
    }

    println!("\nExtension program (not in the paper's table):");
    print_row(
        "Matmul-10c",
        &corpus::matmul_source(10, 16, 16, 2),
        [None; 3],
    )
}
