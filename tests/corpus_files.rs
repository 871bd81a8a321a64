//! The generator-derived `.w2` files under `corpus/` stay in sync with
//! their generators in `warp_compiler::corpus` (the five paper programs
//! *are* the files: the constants `include_str!` them), and all seven
//! files compile.

use warp::compiler::corpus;

fn read(name: &str) -> String {
    let path = format!("{}/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn files_match_canonical_sources() {
    for (file, canon) in [
        ("fft16.w2", corpus::fft_source(16)),
        ("matmul_2x4x4.w2", corpus::matmul_source(2, 4, 4, 2)),
    ] {
        assert_eq!(read(file), canon.trim_start(), "{file} is out of sync");
    }
}

#[test]
fn files_compile() {
    for file in [
        "polynomial.w2",
        "conv1d.w2",
        "binop.w2",
        "colorseg.w2",
        "mandelbrot.w2",
        "fft16.w2",
        "matmul_2x4x4.w2",
    ] {
        let src = read(file);
        warp::compiler::compile(&src, &warp::compiler::CompileOptions::default())
            .unwrap_or_else(|e| panic!("{file} failed to compile:\n{e}"));
    }
}
