//! Program lists shared by the test files that sweep the compiler
//! (`cell_golden`, `skew_nest`).

use warp::compiler::{corpus, CompileOptions};
use warp::oracle::GenConfig;

/// The benchmark's generator budget for compile and serve items.
pub fn wide_config() -> GenConfig {
    GenConfig {
        max_cells: 6,
        max_segments: 5,
        max_depth: 3,
        max_trip: 6,
        max_words: 96,
    }
}

/// The generator sweeps of the benchmark's two compile workloads.
pub fn sweeps() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (cells, points) in [(4, 32), (6, 128), (8, 64), (10, 256), (10, 65536)] {
        out.push((
            format!("polynomial-{cells}x{points}"),
            corpus::polynomial_source(cells, points),
        ));
    }
    for (taps, n) in [(3, 64), (5, 128), (7, 96), (9, 256), (9, 65536)] {
        out.push((format!("conv1d-{taps}x{n}"), corpus::conv1d_source(taps, n)));
    }
    for (cells, m, p, w) in [(2, 3, 4, 2), (4, 2, 3, 1), (3, 4, 4, 2), (2, 8, 8, 4)] {
        out.push((
            format!("matmul-{cells}x{m}x{p}x{w}"),
            corpus::matmul_source(cells, m, p, w),
        ));
    }
    for n in [4, 8, 32] {
        out.push((format!("fft-{n}"), corpus::fft_source(n)));
    }
    for (size, iters) in [(8, 2), (16, 4), (16, 8), (24, 6)] {
        out.push((
            format!("mandelbrot-{size}x{iters}"),
            corpus::mandelbrot_source(size, iters),
        ));
    }
    for side in [256, 512] {
        out.push((
            format!("binop-{side}x{side}"),
            corpus::binop_source(side, side),
        ));
        out.push((
            format!("colorseg-{side}x{side}"),
            corpus::colorseg_source(side, side),
        ));
        out.push((
            format!("grayseg-{side}x{side}"),
            corpus::grayseg_source(side, side),
        ));
    }
    out
}

/// Generated programs are compiled as the differential compiles them:
/// reassociation off, everything else at the defaults.
pub fn gen_options() -> CompileOptions {
    let mut opts = CompileOptions::default();
    opts.lower.reassociate = false;
    opts
}
