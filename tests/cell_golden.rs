//! Golden digest table for cell code generation.
//!
//! One row per (program, `pipeline` on/off): a digest of the wire
//! encoding of the [`CellCode`] regions — every micro-instruction
//! field, I/O event, Adr deadline and loop count the back end emits —
//! with `regs_used`, `scratch_words` and the pipelined loops as plain
//! columns beside it. The programs are `corpus/*.w2`, the generator
//! sweeps the benchmark compiles, and 800 `warp_oracle::generate`
//! programs, plus 200 of those again at register files of 3, 4 and 6
//! (the only rows that spill), so a change to scheduling, register
//! allocation, spilling or emission that moves a single field anywhere
//! shows up as a changed row.
//!
//! When the back end's output changes on purpose, refresh the table
//! with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test cell_golden
//! ```
//!
//! and review the diff of `tests/golden/cell_digests.txt` like code.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use warp::cell::{
    AddrSource, CellCode, CodeRegion, FpuField, IoField, MemField, MicroInst, Operand,
};
use warp::common::hash::fnv1a64;
use warp::common::wire::to_bytes;
mod common;

use common::{gen_options, sweeps, wide_config};
use warp::compiler::{CompileOptions, Session, SessionCtrl};
use warp::oracle::{generate, GenConfig};

const CORPUS: [&str; 7] = [
    "polynomial.w2",
    "conv1d.w2",
    "binop.w2",
    "colorseg.w2",
    "mandelbrot.w2",
    "fft16.w2",
    "matmul_2x4x4.w2",
];

/// `GenConfig::default()` seeds pinned (and checked by the register
/// accounting test below).
const DEFAULT_SEEDS: u64 = 600;
/// Seeds pinned under [`wide_config`].
const WIDE_SEEDS: u64 = 200;
/// `GenConfig::default()` seeds pinned again at each of
/// [`SMALL_FILES`], where the spill path runs (`scratch > 0`) or the
/// block is rejected; no row at the default file spills.
const SMALL_FILE_SEEDS: u64 = 200;
/// Register-file sizes small enough to force spills.
const SMALL_FILES: [u32; 3] = [3, 4, 6];

fn row(name: &str, source: &str, opts: &CompileOptions, pipeline: bool) -> String {
    let ctrl = SessionCtrl {
        pipeline,
        ..SessionCtrl::default()
    };
    let mode = if pipeline { "on" } else { "off" };
    match Session::new(opts.clone()).with_ctrl(ctrl).compile(source) {
        Ok(module) => {
            let code = &module.cell_code;
            let mut loops = String::new();
            for p in &code.pipelined {
                write!(loops, "({},{},{},{})", p.id, p.ii, p.stages, p.kernel_count).unwrap();
            }
            format!(
                "{name} pipeline={mode} | digest={:016x} regs={} scratch={} loops=[{loops}]",
                fnv1a64(&to_bytes(&code.regions)),
                code.regs_used,
                code.scratch_words,
            )
        }
        Err(diags) => format!("{name} pipeline={mode} | rejected: {diags}"),
    }
}

fn build_table() -> String {
    let mut programs: Vec<(String, String, CompileOptions)> = Vec::new();
    for file in CORPUS {
        let path = format!("{}/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        programs.push((file.to_owned(), src, CompileOptions::default()));
    }
    for (name, src) in sweeps() {
        programs.push((name, src, CompileOptions::default()));
    }
    for seed in 0..DEFAULT_SEEDS {
        let src = generate(seed, &GenConfig::default()).source;
        programs.push((format!("gen-{seed}"), src, gen_options()));
    }
    for seed in 0..WIDE_SEEDS {
        let src = generate(seed, &wide_config()).source;
        programs.push((format!("gen-wide-{seed}"), src, gen_options()));
    }
    for registers in SMALL_FILES {
        let mut opts = gen_options();
        opts.machine.registers = registers;
        for seed in 0..SMALL_FILE_SEEDS {
            let src = generate(seed, &GenConfig::default()).source;
            programs.push((format!("gen-{seed}-regs{registers}"), src, opts.clone()));
        }
    }

    let mut table = String::new();
    for (name, src, opts) in &programs {
        for pipeline in [true, false] {
            writeln!(table, "{}", row(name, src, opts, pipeline)).unwrap();
        }
    }
    table
}

#[test]
fn cell_code_matches_the_recorded_digests() {
    let got = build_table();
    let path = format!(
        "{}/tests/golden/cell_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "cell_digests.txt line {}", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "cell_digests.txt line count"
    );
}

/// Every register and every literal memory address the program names.
fn referenced(code: &CellCode) -> (BTreeSet<u16>, BTreeSet<u16>) {
    fn operand(regs: &mut BTreeSet<u16>, op: &Operand) {
        if let Operand::Reg(r) = op {
            regs.insert(r.0);
        }
    }
    fn fpu(regs: &mut BTreeSet<u16>, f: &FpuField) {
        regs.extend(f.dst.map(|r| r.0));
        for s in &f.srcs {
            operand(regs, s);
        }
    }
    fn inst(regs: &mut BTreeSet<u16>, addrs: &mut BTreeSet<u16>, i: &MicroInst) {
        for f in i.fadd.iter().chain(&i.fmul) {
            fpu(regs, f);
        }
        for m in i.mem.iter().flatten() {
            let addr = match m {
                MemField::Read { addr, dst } => {
                    regs.extend(dst.map(|r| r.0));
                    addr
                }
                MemField::Write { addr, src } => {
                    operand(regs, src);
                    addr
                }
            };
            if let AddrSource::Literal(a) = addr {
                addrs.insert(*a);
            }
        }
        for io in i.io.iter().flatten() {
            match io {
                IoField::Recv { dst, .. } => regs.extend(dst.map(|r| r.0)),
                IoField::Send { src, .. } => operand(regs, src),
            }
        }
    }
    fn region(regs: &mut BTreeSet<u16>, addrs: &mut BTreeSet<u16>, r: &CodeRegion) {
        match r {
            CodeRegion::Block(b) => b.insts.iter().for_each(|i| inst(regs, addrs, i)),
            CodeRegion::Loop { body, .. } => body.iter().for_each(|r| region(regs, addrs, r)),
        }
    }
    let (mut regs, mut addrs) = (BTreeSet::new(), BTreeSet::new());
    for r in &code.regions {
        region(&mut regs, &mut addrs, r);
    }
    (regs, addrs)
}

#[test]
fn register_and_scratch_totals_count_only_assembled_code() {
    // A loop that pipelines throws its list-scheduled body away; the
    // registers and spill words of that discarded version must not
    // stay in the totals (seed 197 at the default file, and again at
    // three registers, is enough to see it).
    let mut checked = 0u32;
    for registers in [64u32, 3, 4, 5, 6] {
        let mut opts = gen_options();
        opts.machine.registers = registers;
        for seed in 0..DEFAULT_SEEDS {
            let src = generate(seed, &GenConfig::default()).source;
            // A register file this small legitimately rejects some
            // programs; those have no totals to check.
            let Ok(module) = Session::new(opts.clone()).compile(&src) else {
                continue;
            };
            checked += 1;
            let code = &module.cell_code;
            let (regs, addrs) = referenced(code);
            assert_eq!(
                code.regs_used,
                regs.last().map_or(0, |&r| u32::from(r) + 1),
                "gen-{seed} at {registers} registers: regs_used vs highest register referenced"
            );
            let scratch_base = module.ir.layout.words_used();
            let scratch = addrs
                .iter()
                .filter(|&&a| u32::from(a) >= scratch_base)
                .count();
            assert_eq!(
                code.scratch_words as usize, scratch,
                "gen-{seed} at {registers} registers: scratch_words vs scratch addresses referenced"
            );
        }
    }
    assert!(checked > 2000, "only {checked} programs compiled");
}
