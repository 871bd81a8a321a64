//! The programs the workloads compile and run: corpus programs, size
//! sweeps of the corpus generators, and seed-derived generated
//! programs — each with seeded inputs and an expected output that
//! does not come from the compiler under test.
//!
//! Corpus-family items are checked against the plain-Rust
//! `warp_compiler::reference` functions; generated items against the
//! `warp_oracle` interpreter. Generated items compile with
//! reassociation off — the setting the repository's differential
//! harness uses — so bit-equality with the interpreter is meaningful;
//! everything else compiles exactly as `w2cd` ships
//! (`CompileOptions::default()`).

use w2_lang::ast::ParamDir;
use w2_lang::hir::HirModule;
use warp_common::{splitmix64, SplitMix64};
use warp_compiler::{corpus, reference, CompileOptions};
use warp_host::HostMemory;
use warp_oracle::GenConfig;

/// Named input or output arrays.
pub type Arrays = Vec<(String, Vec<f32>)>;

/// What computation an item is, which decides its inputs and its
/// reference.
#[derive(Clone, Debug, PartialEq)]
pub enum Family {
    Polynomial {
        cells: u32,
        points: u32,
    },
    Conv1d {
        taps: u32,
        n: u32,
    },
    Matmul {
        cells: u32,
        m: u32,
        p: u32,
        w: u32,
    },
    Fft {
        n: u32,
    },
    Mandelbrot {
        size: u32,
        iters: u32,
    },
    Binop {
        rows: u32,
        cols: u32,
    },
    Colorseg {
        rows: u32,
        cols: u32,
    },
    Grayseg {
        rows: u32,
        cols: u32,
    },
    /// A `warp_oracle::generate` program.
    Generated {
        program_seed: u64,
    },
}

/// One program with everything needed to compile, run and check it.
#[derive(Clone, Debug)]
pub struct Item {
    pub name: String,
    pub source: String,
    pub family: Family,
    pub opts: CompileOptions,
}

/// An independent, non-overlapping stream for `(seed, purpose)`.
/// `SplitMix64::new(s)` and `new(s + 1)` are the same stream shifted by
/// one, so adjacent `--seed` values are hashed apart first.
pub fn stream(seed: u64, purpose: u64) -> SplitMix64 {
    SplitMix64::new(splitmix64(
        splitmix64(seed) ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ))
}

/// Uniform `f32` in `[lo, hi)` from 24 random bits.
fn uniform(rng: &mut SplitMix64, lo: f32, hi: f32) -> f32 {
    let unit = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
    lo + unit * (hi - lo)
}

fn fill(rng: &mut SplitMix64, len: u32, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| uniform(rng, lo, hi)).collect()
}

impl Item {
    /// A corpus-family item compiled with the shipped default options.
    pub fn corpus(family: Family) -> Item {
        let (name, source) = match &family {
            Family::Polynomial { cells, points } => (
                format!("polynomial-{cells}x{points}"),
                corpus::polynomial_source(*cells, *points),
            ),
            Family::Conv1d { taps, n } => (
                format!("conv1d-{taps}x{n}"),
                corpus::conv1d_source(*taps, *n),
            ),
            Family::Matmul { cells, m, p, w } => (
                format!("matmul-{cells}x{m}x{p}x{w}"),
                corpus::matmul_source(*cells, *m, *p, *w),
            ),
            Family::Fft { n } => (format!("fft-{n}"), corpus::fft_source(*n)),
            Family::Mandelbrot { size, iters } => (
                format!("mandelbrot-{size}x{iters}"),
                corpus::mandelbrot_source(*size, *iters),
            ),
            Family::Binop { rows, cols } => (
                format!("binop-{rows}x{cols}"),
                corpus::binop_source(*rows, *cols),
            ),
            Family::Colorseg { rows, cols } => (
                format!("colorseg-{rows}x{cols}"),
                corpus::colorseg_source(*rows, *cols),
            ),
            Family::Grayseg { rows, cols } => (
                format!("grayseg-{rows}x{cols}"),
                corpus::grayseg_source(*rows, *cols),
            ),
            Family::Generated { .. } => unreachable!("generated items come from Item::generated"),
        };
        Item {
            name,
            source,
            family,
            opts: CompileOptions::default(),
        }
    }

    /// One of the verbatim corpus programs (`corpus/*.w2`), under its
    /// file stem.
    fn verbatim(name: &str, source: &str, family: Family) -> Item {
        Item {
            name: name.to_owned(),
            source: source.to_owned(),
            family,
            opts: CompileOptions::default(),
        }
    }

    /// A generated program, compiled with reassociation off.
    pub fn generated(program_seed: u64, cfg: &GenConfig) -> Item {
        let prog = warp_oracle::generate(program_seed, cfg);
        let mut opts = CompileOptions::default();
        opts.lower.reassociate = false;
        Item {
            name: format!("gen-{program_seed:016x}"),
            source: prog.source,
            family: Family::Generated { program_seed },
            opts,
        }
    }

    /// Seeded values for every `in` parameter, in declaration order.
    /// Value ranges follow what the computation is meant for (pixel
    /// values for the segmentation programs, the complex plane for
    /// Mandelbrot); FFT twiddles are the fixed tables the program
    /// expects.
    pub fn inputs(&self, hir: &HirModule, seed: u64) -> Arrays {
        let mut rng = stream(seed, 0x1217 ^ warp_common::fnv1a64(self.name.as_bytes()));
        let (lo, hi) = match self.family {
            Family::Colorseg { .. } | Family::Grayseg { .. } => (0.0, 256.0),
            Family::Mandelbrot { .. } => (-2.0, 1.5),
            Family::Generated { .. } => (0.25, 1.25),
            _ => (-1.0, 1.0),
        };
        let twiddles = match self.family {
            Family::Fft { n } => Some(corpus::fft_twiddle_arrays(n)),
            _ => None,
        };
        hir.params
            .iter()
            .filter(|(_, dir)| *dir == ParamDir::In)
            .map(|(var, _)| {
                let info = &hir.vars[*var];
                let data = match (&twiddles, info.name.as_str()) {
                    (Some((twr, _)), "twr") => twr.clone(),
                    (Some((_, twi)), "twi") => twi.clone(),
                    _ => fill(&mut rng, info.size(), lo, hi),
                };
                (info.name.clone(), data)
            })
            .collect()
    }

    /// The expected value of every `out` parameter for `inputs`.
    ///
    /// # Errors
    ///
    /// A message when the interpreter cannot run a generated program.
    pub fn expected(&self, hir: &HirModule, inputs: &Arrays) -> Result<Arrays, String> {
        let get = |name: &str| -> &[f32] {
            inputs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| d.as_slice())
                .unwrap_or_else(|| panic!("item {} has no input `{name}`", self.name))
        };
        let one = |name: &str, data: Vec<f32>| Ok(vec![(name.to_owned(), data)]);
        match self.family {
            Family::Polynomial { .. } => one("results", reference::polynomial(get("c"), get("z"))),
            Family::Conv1d { .. } => one("y", reference::conv1d(get("w"), get("x"))),
            Family::Matmul { cells, m, p, w } => one(
                "c",
                reference::matmul(
                    get("a"),
                    get("b"),
                    m as usize,
                    p as usize,
                    (cells * w) as usize,
                ),
            ),
            Family::Fft { .. } => {
                let (re, im) = reference::fft_pease(get("xre"), get("xim"));
                Ok(vec![("outre".to_owned(), re), ("outim".to_owned(), im)])
            }
            Family::Mandelbrot { iters, .. } => one(
                "count",
                reference::mandelbrot(get("cre"), get("cim"), iters),
            ),
            Family::Binop { .. } => one("c", reference::binop(get("a"), get("b"))),
            Family::Colorseg { .. } => one("seg", reference::colorseg_rgb(get("img"))),
            Family::Grayseg { .. } => one("seg", reference::colorseg(get("img"))),
            Family::Generated { .. } => {
                let mut host = HostMemory::new(&hir.vars);
                for (name, data) in inputs {
                    host.set(name, data).map_err(|e| e.to_string())?;
                }
                let after = warp_oracle::interpret(hir, &host)?;
                hir.params
                    .iter()
                    .filter(|(_, dir)| *dir == ParamDir::Out)
                    .map(|(var, _)| {
                        let name = &hir.vars[*var].name;
                        let words = after.get(name).map_err(|e| e.to_string())?;
                        Ok((name.clone(), words.to_vec()))
                    })
                    .collect()
            }
        }
    }
}

/// Borrowed `(name, data)` pairs, the shape `CompiledModule::run` takes.
pub fn as_slices(arrays: &Arrays) -> Vec<(&str, &[f32])> {
    arrays
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect()
}

/// First word where `got` differs bitwise from `want`, as a message.
pub fn first_difference(got: &HostMemory, want: &Arrays) -> Option<String> {
    for (name, expect) in want {
        let words = match got.get(name) {
            Ok(w) => w,
            Err(e) => return Some(e.to_string()),
        };
        if words.len() != expect.len() {
            return Some(format!(
                "`{name}`: {} word(s), expected {}",
                words.len(),
                expect.len()
            ));
        }
        if let Some(k) = (0..words.len()).find(|&k| words[k].to_bits() != expect[k].to_bits()) {
            return Some(format!(
                "`{name}[{k}]`: got {:?}, expected {:?}",
                words[k], expect[k]
            ));
        }
    }
    None
}

/// The generator budget for compile and serve items: wider than the
/// differential default so the programs have several segments, deeper
/// nests and more cells.
pub fn wide_gen_config() -> GenConfig {
    GenConfig {
        max_cells: 6,
        max_segments: 5,
        max_depth: 3,
        max_trip: 6,
        max_words: 96,
    }
}

/// Source sizes, in bytes, of the generated programs a workload takes.
/// Under [`wide_gen_config`] sources run from 230 to 1700 bytes and
/// compile times from 0.03 to 3 ms (600 draws), so eight programs drawn
/// freely cost 2.0 ms together with a quartile distance of 0.8 ms and a
/// tail past 4 ms: of `compile_kernels`' 12 ms round that is a
/// difference of up to a third from one seed to the next, which says
/// nothing about the compiler. A third of all draws fall inside this
/// band, where no program costs more than 0.5 ms and eight cost 1.3 ms
/// with a quartile distance of 0.2 ms. Size is a property of the input:
/// the compiler under test still has no say in the list.
const GEN_SOURCE_BYTES: std::ops::RangeInclusive<usize> = 400..=800;

/// The first `count` programs of the seed's generated stream whose
/// source size lies in [`GEN_SOURCE_BYTES`]. The compiler under test
/// has no say in the list: a program it rejects is a failed op of the
/// workload that compiles it. (No draw in 20 000 under
/// [`wide_gen_config`] is rejected today.)
pub fn generated_items(seed: u64, purpose: u64, count: usize, cfg: &GenConfig) -> Vec<Item> {
    let mut rng = stream(seed, purpose);
    std::iter::repeat_with(|| Item::generated(rng.next_u64(), cfg))
        .filter(|item| GEN_SOURCE_BYTES.contains(&item.source.len()))
        .take(count)
        .collect()
}

/// The fixed (seed-independent) small-data programs: the five kernel
/// programs of `corpus/` and size sweeps of their generators.
fn kernel_catalogue() -> Vec<Item> {
    let mut items = vec![
        Item::verbatim(
            "polynomial",
            corpus::POLYNOMIAL,
            Family::Polynomial {
                cells: 10,
                points: 100,
            },
        ),
        Item::verbatim(
            "conv1d",
            corpus::ONED_CONV,
            Family::Conv1d { taps: 9, n: 128 },
        ),
        Item::verbatim("fft16", &corpus::fft_source(16), Family::Fft { n: 16 }),
        Item::verbatim(
            "matmul_2x4x4",
            &corpus::matmul_source(2, 4, 4, 2),
            Family::Matmul {
                cells: 2,
                m: 4,
                p: 4,
                w: 2,
            },
        ),
        Item::verbatim(
            "mandelbrot",
            corpus::MANDELBROT,
            Family::Mandelbrot { size: 32, iters: 4 },
        ),
    ];
    let sweeps = [
        Family::Polynomial {
            cells: 4,
            points: 32,
        },
        Family::Polynomial {
            cells: 6,
            points: 128,
        },
        Family::Polynomial {
            cells: 8,
            points: 64,
        },
        Family::Polynomial {
            cells: 10,
            points: 256,
        },
        Family::Conv1d { taps: 3, n: 64 },
        Family::Conv1d { taps: 5, n: 128 },
        Family::Conv1d { taps: 7, n: 96 },
        Family::Conv1d { taps: 9, n: 256 },
        Family::Matmul {
            cells: 2,
            m: 3,
            p: 4,
            w: 2,
        },
        Family::Matmul {
            cells: 4,
            m: 2,
            p: 3,
            w: 1,
        },
        Family::Matmul {
            cells: 3,
            m: 4,
            p: 4,
            w: 2,
        },
        Family::Matmul {
            cells: 2,
            m: 8,
            p: 8,
            w: 4,
        },
        Family::Fft { n: 4 },
        Family::Fft { n: 8 },
        Family::Fft { n: 32 },
        Family::Mandelbrot { size: 8, iters: 2 },
        Family::Mandelbrot { size: 16, iters: 4 },
        Family::Mandelbrot { size: 16, iters: 8 },
        Family::Mandelbrot { size: 24, iters: 6 },
    ];
    items.extend(sweeps.into_iter().map(Item::corpus));
    items
}

/// Generated programs per `compile_kernels` run.
pub const KERNEL_GENERATED: usize = 8;

/// `compile_kernels` items: the fixed catalogue plus
/// [`KERNEL_GENERATED`] seed-derived generated programs.
pub fn kernel_items(seed: u64) -> Vec<Item> {
    let mut items = kernel_catalogue();
    items.extend(generated_items(
        seed,
        0xC0DE,
        KERNEL_GENERATED,
        &wide_gen_config(),
    ));
    items
}

/// `compile_images` items: the large-data programs, where script and
/// address generation dominate compile time.
pub fn image_items() -> Vec<Item> {
    [
        Family::Binop {
            rows: 256,
            cols: 256,
        },
        Family::Binop {
            rows: 512,
            cols: 512,
        },
        Family::Colorseg {
            rows: 256,
            cols: 256,
        },
        Family::Colorseg {
            rows: 512,
            cols: 512,
        },
        Family::Grayseg {
            rows: 512,
            cols: 512,
        },
        Family::Conv1d { taps: 9, n: 65536 },
        Family::Polynomial {
            cells: 10,
            points: 65536,
        },
    ]
    .into_iter()
    .map(Item::corpus)
    .collect()
}

/// The six programs both executors run.
pub fn exec_items() -> Vec<Item> {
    [
        Family::Polynomial {
            cells: 10,
            points: 8192,
        },
        Family::Conv1d { taps: 9, n: 8192 },
        Family::Mandelbrot {
            size: 64,
            iters: 16,
        },
        Family::Grayseg {
            rows: 128,
            cols: 128,
        },
        Family::Colorseg {
            rows: 512,
            cols: 512,
        },
        Family::Binop {
            rows: 512,
            cols: 512,
        },
    ]
    .into_iter()
    .map(Item::corpus)
    .collect()
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(values: &mut [T], rng: &mut SplitMix64) {
    for i in (1..values.len()).rev() {
        values.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::parse_and_check;

    #[test]
    fn same_seed_gives_byte_identical_items_and_inputs() {
        let a = kernel_items(7);
        let b = kernel_items(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((&x.name, &x.source), (&y.name, &y.source));
            let hir = parse_and_check(&x.source).expect("catalogue items check");
            let (ix, iy) = (x.inputs(&hir, 7), y.inputs(&hir, 7));
            assert_eq!(ix.len(), iy.len());
            for ((nx, dx), (ny, dy)) in ix.iter().zip(&iy) {
                assert_eq!(nx, ny);
                let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(dx), bits(dy));
            }
        }
        // Another seed changes the generated tail, not the catalogue.
        let c = kernel_items(8);
        let fixed = a.len() - KERNEL_GENERATED;
        assert!(a[..fixed]
            .iter()
            .zip(&c[..fixed])
            .all(|(x, y)| x.source == y.source));
        assert!(a[fixed..]
            .iter()
            .zip(&c[fixed..])
            .any(|(x, y)| x.source != y.source));
    }

    #[test]
    fn adjacent_seeds_do_not_share_a_shifted_stream() {
        let a: Vec<u64> = {
            let mut r = stream(1, 5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = stream(2, 5);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert!(a.iter().all(|v| !b.contains(v)));
    }

    #[test]
    fn item_names_are_unique() {
        for items in [kernel_items(1), image_items(), exec_items()] {
            let mut names: Vec<_> = items.iter().map(|i| i.name.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), items.len());
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut stream(3, 1));
        shuffle(&mut b, &mut stream(3, 1));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
