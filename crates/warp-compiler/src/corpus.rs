//! The W2 program corpus: the paper's five benchmark programs (Table
//! 7-1) and parameterized generators for tests and benchmarks.
//!
//! The paper prints only the polynomial program (Figure 4-1, reproduced
//! verbatim in [`POLYNOMIAL`]); the other four are reconstructed from
//! their one-line descriptions in Table 7-1:
//!
//! * **1d-Conv** — kernel size 9, one kernel element per cell: a
//!   classic systolic FIR where each cell delays the `x` stream by one
//!   element, so cell `k` contributes `w[k]·x[j−k]`.
//! * **Binop** — a binary operator over two 512×512 images streamed on
//!   the X and Y channels.
//! * **ColorSeg** — threshold-based color separation of a 512×512
//!   image (predicated conditionals).
//! * **Mandelbrot** — 32×32 image, 4 iterations, on one cell: the
//!   escape test is predicated, so every point runs all iterations and
//!   the escape count accumulates through selects.
//!
//! A matrix-multiplication generator ([`matmul_source`]) reconstructs
//! the paper's flagship example from §2.2 ("each cell computes some
//! columns of the result") using the same count-conserving idiom as
//! Figure 4-1.
//!
//! The five paper programs are the files under `corpus/`; the constants
//! here embed them, so the text exists once.

/// The five Table 7-1 benchmark programs by name, at paper sizes (the
/// table the `w2c --corpus` flag resolves against).
pub const TABLE_7_1: [(&str, &str); 5] = [
    ("polynomial", POLYNOMIAL),
    ("conv1d", ONED_CONV),
    ("binop", BINOP),
    ("colorseg", COLORSEG),
    ("mandelbrot", MANDELBROT),
];

/// Size-scaled variants of the corpus for the guarantee audit
/// ([`crate::audit::audit_corpus`]), plus the matmul generator for
/// Y-channel coverage.
///
/// The audit simulates each program about a dozen times (nominal,
/// tightness, and one run per injected fault class), so the paper's
/// 512×512 image sizes are scaled down to keep the whole suite in CI
/// time. W2 control flow is static and conditionals are predicated, so
/// cell timing — the thing the audited claims are about — has the same
/// structure at any size.
pub fn audit_corpus() -> Vec<(&'static str, String)> {
    vec![
        ("polynomial", polynomial_source(4, 12)),
        ("conv1d", conv1d_source(3, 16)),
        ("binop", binop_source(6, 6)),
        ("colorseg", colorseg_source(4, 4)),
        ("mandelbrot", mandelbrot_source(4, 2)),
        ("matmul", matmul_source(2, 3, 4, 2)),
    ]
}

/// Figure 4-1 of the paper: polynomial evaluation with Horner's rule,
/// one coefficient per cell, 10 coefficients, 100 points, 10 cells.
pub const POLYNOMIAL: &str = include_str!("../../../corpus/polynomial.w2");

/// Generates the polynomial program for `n_cells` coefficients and
/// `points` data points.
pub fn polynomial_source(n_cells: u32, points: u32) -> String {
    format!(
        r#"
module polynomial (z in, c in, results out)
float z[{points}], c[{n}];
float results[{points}];
cellprogram (cid : 0 : {last})
begin
  function poly
  begin
    float coeff, temp, xin, yin, ans;
    int i;
    receive (L, X, coeff, c[0]);
    for i := 1 to {last} do begin
      receive (L, X, temp, c[i]);
      send (R, X, temp);
    end;
    send (R, X, 0.0);
    for i := 0 to {plast} do begin
      receive (L, X, xin, z[i]);
      receive (L, Y, yin, 0.0);
      send (R, X, xin);
      ans := coeff + yin*xin;
      send (R, Y, ans, results[i]);
    end;
  end
  call poly;
end
"#,
        n = n_cells,
        last = n_cells - 1,
        plast = points - 1,
    )
}

/// Table 7-1 "1d-Conv": kernel size 9 over a 128-sample signal, one
/// kernel element per cell (9 cells).
pub const ONED_CONV: &str = include_str!("../../../corpus/conv1d.w2");

/// Generates the 1-D convolution for a kernel of `taps` cells over `n`
/// samples.
pub fn conv1d_source(taps: u32, n: u32) -> String {
    assert!(n > taps, "need more samples than taps");
    format!(
        r#"
module conv1d (w in, x in, y out)
float w[{taps}];
float x[{n}];
float y[{outn}];
cellprogram (cid : 0 : {tlast})
begin
  function conv
  begin
    float coeff, temp, xin, yin, xprev;
    int i;
    receive (L, X, coeff, w[0]);
    for i := 1 to {tlast} do begin
      receive (L, X, temp, w[i]);
      send (R, X, temp);
    end;
    send (R, X, 0.0);
    xprev := 0.0;
    for i := 0 to {warm} do begin
      receive (L, X, xin, x[i]);
      receive (L, Y, yin, 0.0);
      send (R, X, xprev);
      send (R, Y, yin + coeff * xin);
      xprev := xin;
    end;
    for i := {taps_m1} to {nlast} do begin
      receive (L, X, xin, x[i]);
      receive (L, Y, yin, 0.0);
      send (R, X, xprev);
      send (R, Y, yin + coeff * xin, y[i - {warm_p1}]);
      xprev := xin;
    end;
  end
  call conv;
end
"#,
        outn = n - taps + 1,
        tlast = taps - 1,
        warm = taps - 2,
        taps_m1 = taps - 1,
        nlast = n - 1,
        warm_p1 = taps - 1,
    )
}

/// Table 7-1 "Binop": a binary operator (elementwise multiply) over two
/// 512×512 images streamed on the X and Y channels.
pub const BINOP: &str = include_str!("../../../corpus/binop.w2");

/// Generates a `rows`×`cols` binop program.
pub fn binop_source(rows: u32, cols: u32) -> String {
    format!(
        r#"
module binop (a in, b in, c out)
float a[{rows}, {cols}];
float b[{rows}, {cols}];
float c[{rows}, {cols}];
cellprogram (cid : 0 : 0)
begin
  function binop
  begin
    float av, bv;
    int i, j;
    for i := 0 to {rlast} do
      for j := 0 to {clast} do begin
        receive (L, X, av, a[i, j]);
        receive (L, Y, bv, b[i, j]);
        send (R, X, av * bv, c[i, j]);
      end;
  end
  call binop;
end
"#,
        rlast = rows - 1,
        clast = cols - 1,
    )
}

/// Table 7-1 "ColorSeg": color separation of a 512×512 RGB image into
/// four classes (dark, red-, green-, blue-dominant). The three color
/// planes stream interleaved on X; classification is a predicated
/// decision tree over the color values.
pub const COLORSEG: &str = include_str!("../../../corpus/colorseg.w2");

/// Generates a `rows`×`cols` RGB color-separation program (the image
/// parameter holds `r,g,b` interleaved per pixel, so it is
/// `rows × 3·cols` words).
pub fn colorseg_source(rows: u32, cols: u32) -> String {
    format!(
        r#"
module colorseg (img in, seg out)
float img[{rows}, {c3}];
float seg[{rows}, {cols}];
cellprogram (cid : 0 : 0)
begin
  function colorseg
  begin
    float r, g, b, s;
    int i, j;
    for i := 0 to {rlast} do
      for j := 0 to {clast} do begin
        receive (L, X, r, img[i, 3*j]);
        receive (L, X, g, img[i, 3*j + 1]);
        receive (L, X, b, img[i, 3*j + 2]);
        if r >= g and r >= b then
          s := 1.0;
        else begin
          if g >= b then
            s := 2.0;
          else
            s := 3.0;
        end
        if r + g + b < 96.0 then
          s := 0.0;
        send (R, X, s, seg[i, j]);
      end;
  end
  call colorseg;
end
"#,
        c3 = cols * 3,
        rlast = rows - 1,
        clast = cols - 1,
    )
}

/// A single-plane thresholding variant of ColorSeg (grayscale), used by
/// the image-pipeline example.
pub fn grayseg_source(rows: u32, cols: u32) -> String {
    format!(
        r#"
module grayseg (img in, seg out)
float img[{rows}, {cols}];
float seg[{rows}, {cols}];
cellprogram (cid : 0 : 0)
begin
  function grayseg
  begin
    float v, s;
    int i, j;
    for i := 0 to {rlast} do
      for j := 0 to {clast} do begin
        receive (L, X, v, img[i, j]);
        if v < 85.0 then
          s := 0.0;
        else begin
          if v < 170.0 then
            s := 1.0;
          else
            s := 2.0;
        end
        send (R, X, s, seg[i, j]);
      end;
  end
  call grayseg;
end
"#,
        rlast = rows - 1,
        clast = cols - 1,
    )
}

/// Table 7-1 "Mandelbrot": 32×32 image, 4 iterations, one cell. The
/// escape test is predicated, so the count accumulates through selects.
pub const MANDELBROT: &str = include_str!("../../../corpus/mandelbrot.w2");

/// Generates a `size`×`size`, `iters`-iteration Mandelbrot program.
pub fn mandelbrot_source(size: u32, iters: u32) -> String {
    format!(
        r#"
module mandelbrot (cre in, cim in, count out)
float cre[{size}, {size}];
float cim[{size}, {size}];
float count[{size}, {size}];
cellprogram (cid : 0 : 0)
begin
  function mandel
  begin
    float zr, zi, cr, ci, cnt, zr2, mag;
    int i, j, k;
    for i := 0 to {slast} do
      for j := 0 to {slast} do begin
        receive (L, X, cr, cre[i, j]);
        receive (L, Y, ci, cim[i, j]);
        zr := 0.0;
        zi := 0.0;
        cnt := 0.0;
        for k := 0 to {klast} do begin
          zr2 := zr*zr - zi*zi + cr;
          zi := 2.0*zr*zi + ci;
          zr := zr2;
          mag := zr*zr + zi*zi;
          if mag < 4.0 then cnt := cnt + 1.0;
        end;
        send (R, X, cnt, count[i, j]);
      end;
  end
  call mandel;
end
"#,
        slast = size - 1,
        klast = iters - 1,
    )
}

/// Generates matrix multiplication `C = A·B` on `cells` cells, with `A`
/// of shape `m×p`, `B` of shape `p×(cells·w)`, and `w` result columns
/// per cell (paper §2.2: "each cell computes some columns of the
/// result").
///
/// Column distribution uses the Figure 4-1 idiom: every cell keeps the
/// first `w` columns it sees, forwards the rest, and appends `w` dummy
/// columns so send/receive counts stay homogeneous. Result rows travel
/// on the Y channel, rotated per cell, so the last cell emits column
/// blocks in reverse cell order — the external bindings account for
/// this.
///
/// # Panics
///
/// Panics for degenerate shapes (`cells == 0`, `w == 0`, `p == 0`,
/// `m == 0`).
pub fn matmul_source(cells: u32, m: u32, p: u32, w: u32) -> String {
    assert!(cells >= 1 && m >= 1 && p >= 1 && w >= 1);
    let q = cells * w;
    let pass_cols = q - w; // columns forwarded during loading
    let mut out = format!(
        r#"
module matmul (a in, b in, c out)
float a[{m}, {p}];
float b[{p}, {q}];
float c[{m}, {q}];
cellprogram (cid : 0 : {clast})
begin
  function mm
  begin
    float v, av, yv, acc;
    float bloc[{p}, {w}];
    float arow[{p}];
    float res[{w}];
    float ybuf[{q}];
    int r, cc, k, blk;

    /* Load phase: keep the first {w} columns, forward the rest,
       append {w} dummy columns to conserve counts. */
    for cc := 0 to {wlast} do
      for k := 0 to {plast} do begin
        receive (L, X, v, b[k, cc]);
        bloc[k, cc] := v;
      end;
"#,
        clast = cells - 1,
        wlast = w - 1,
        plast = p - 1,
    );
    if pass_cols > 0 {
        out.push_str(&format!(
            r#"    for cc := 0 to {pc_last} do
      for k := 0 to {plast} do begin
        receive (L, X, v, b[k, cc + {w}]);
        send (R, X, v);
      end;
"#,
            pc_last = pass_cols - 1,
            plast = p - 1,
        ));
    }
    out.push_str(&format!(
        r#"    for cc := 0 to {wlast} do
      for k := 0 to {plast} do
        send (R, X, 0.0);

    /* Compute phase: stream each row of A through, form {w} dot
       products, and rotate the Y result stream. */
    for r := 0 to {mlast} do begin
      for k := 0 to {plast} do begin
        receive (L, X, av, a[r, k]);
        arow[k] := av;
        send (R, X, av);
      end;
      for cc := 0 to {wlast} do begin
        acc := 0.0;
        for k := 0 to {plast} do
          acc := acc + arow[k] * bloc[k, cc];
        res[cc] := acc;
      end;
      for cc := 0 to {qlast} do begin
        receive (L, Y, yv, 0.0);
        ybuf[cc] := yv;
      end;
      for cc := 0 to {wlast} do
        send (R, Y, res[cc], c[r, cc + {own_base}]);
"#,
        wlast = w - 1,
        plast = p - 1,
        mlast = m - 1,
        qlast = q - 1,
        own_base = (cells - 1) * w,
    ));
    if cells > 1 {
        out.push_str(&format!(
            r#"      for blk := 0 to {blk_last} do
        for cc := 0 to {wlast} do
          send (R, Y, ybuf[blk * {w} + cc], c[r, {rev_base} - blk * {w} + cc]);
"#,
            blk_last = cells - 2,
            wlast = w - 1,
            rev_base = (cells - 2) * w,
        ));
    }
    out.push_str(
        r#"    end;
  end
  call mm;
end
"#,
    );
    out
}

/// Generates an `n`-point complex FFT on `log2 n` cells — the paper's
/// headline application ("a 10-cell Warp can process 1024-point complex
/// FFTs at a rate of one FFT every 600 microseconds", §2).
///
/// The constant-geometry (Pease) radix-2 formulation is the one where
/// **every stage performs identical data movement**, which is exactly
/// what the homogeneous-program restriction (§5.1) requires: cell `s`
/// executes stage `s`. Per-stage twiddle factors stream through the
/// array with the Figure 4-1 keep-and-forward idiom; real parts travel
/// on X, imaginary parts on Y. The result leaves the last cell in
/// bit-reversed order (the host unscrambles, as real Warp hosts did);
/// [`crate::reference::fft_pease`] reproduces the stream bit-for-bit.
///
/// # Panics
///
/// Panics unless `n` is a power of two with `4 ≤ n ≤ 1024` (a 4K-word
/// cell memory holds the 3·n-word input/twiddle working set up to
/// n = 1024).
pub fn fft_source(n: u32) -> String {
    assert!(n.is_power_of_two() && (4..=1024).contains(&n));
    let m = n.trailing_zeros();
    let half = n / 2;
    format!(
        r#"
module fft (twr in, twi in, xre in, xim in, outre out, outim out)
float twr[{m}, {half}], twi[{m}, {half}];
float xre[{n}], xim[{n}];
float outre[{n}], outim[{n}];
cellprogram (cid : 0 : {mlast})
begin
  function stage
  begin
    float v, ar, ai, br, bi, dr, di, wr, wi;
    float myr[{half}], myi[{half}];
    float bre[{n}], bim[{n}];
    int s, i;

    /* Twiddle distribution: keep the first stage set, forward the
       rest, and pad to conserve counts. */
    for i := 0 to {hlast} do begin
      receive (L, X, v, twr[0, i]);
      myr[i] := v;
      receive (L, Y, v, twi[0, i]);
      myi[i] := v;
    end;
    for s := 1 to {mlast} do
      for i := 0 to {hlast} do begin
        receive (L, X, v, twr[s, i]);
        send (R, X, v);
        receive (L, Y, v, twi[s, i]);
        send (R, Y, v);
      end;
    for i := 0 to {hlast} do begin
      send (R, X, 0.0);
      send (R, Y, 0.0);
    end;

    /* Buffer the whole input vector (butterflies need x[i] and
       x[i + n/2] together). */
    for i := 0 to {nlast} do begin
      receive (L, X, v, xre[i]);
      bre[i] := v;
      receive (L, Y, v, xim[i]);
      bim[i] := v;
    end;

    /* One constant-geometry butterfly stage. The outputs emerge in
       stream order (2i, 2i+1), so they are sent directly — no output
       buffer, and the downstream cell consumes at the production
       rate, keeping queue occupancy low. */
    for i := 0 to {hlast} do begin
      ar := bre[i];
      ai := bim[i];
      br := bre[i + {half}];
      bi := bim[i + {half}];
      send (R, X, ar + br, outre[2*i]);
      send (R, Y, ai + bi, outim[2*i]);
      dr := ar - br;
      di := ai - bi;
      wr := myr[i];
      wi := myi[i];
      send (R, X, dr*wr - di*wi, outre[2*i + 1]);
      send (R, Y, dr*wi + di*wr, outim[2*i + 1]);
    end;
  end
  call stage;
end
"#,
        mlast = m - 1,
        hlast = half - 1,
        nlast = n - 1,
    )
}

/// The flat `[stage, butterfly]` twiddle arrays the FFT module's host
/// parameters expect (`twr`/`twi`).
pub fn fft_twiddle_arrays(n: u32) -> (Vec<f32>, Vec<f32>) {
    let m = n.trailing_zeros();
    let mut twr = Vec::new();
    let mut twi = Vec::new();
    for s in 0..m {
        let (re, im) = crate::reference::pease_twiddles(n as usize, s);
        twr.extend(re);
        twi.extend(im);
    }
    (twr, twi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions};

    #[test]
    fn all_paper_programs_compile() {
        for (name, src) in [
            ("polynomial", POLYNOMIAL),
            ("conv1d", ONED_CONV),
            ("binop", BINOP),
            ("colorseg", COLORSEG),
            ("mandelbrot", MANDELBROT),
        ] {
            let m = compile(src, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
            assert!(m.metrics.cell_ucode > 0, "{name}");
        }
    }

    #[test]
    fn generators_match_consts() {
        // The generators at paper sizes should produce equivalent
        // metrics to the fixed sources.
        let opts = CompileOptions::default();
        let a = compile(POLYNOMIAL, &opts).unwrap();
        let b = compile(&polynomial_source(10, 100), &opts).unwrap();
        assert_eq!(a.metrics.cell_ucode, b.metrics.cell_ucode);
        assert_eq!(a.skew.min_skew, b.skew.min_skew);

        let a = compile(ONED_CONV, &opts).unwrap();
        let b = compile(&conv1d_source(9, 128), &opts).unwrap();
        assert_eq!(a.metrics.cell_ucode, b.metrics.cell_ucode);
    }

    #[test]
    fn matmul_compiles() {
        let src = matmul_source(2, 3, 4, 2);
        let m = compile(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("matmul failed:\n{e}\nsource:\n{src}"));
        assert_eq!(m.n_cells, 2);
    }
}
