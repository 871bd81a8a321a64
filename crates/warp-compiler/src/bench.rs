//! Compile-and-run benchmarking of the corpus: the numbers behind
//! `BENCH_compile.json`.
//!
//! For every program the harness compiles twice — once with the
//! modulo-scheduling pipeline enabled (the default) and once with the
//! `--no-pipeline` list-scheduled baseline — simulates both builds on
//! the same seeded inputs, and records:
//!
//! * static µcode size (cell and IU words),
//! * simulated array cycles for each build,
//! * compile wall time of the pipelined build,
//! * the mid-end's per-pattern rewrite hit counts,
//! * how many innermost loops actually pipelined and at what IIs.
//!
//! The report serializes to JSON without any external dependency (the
//! container is offline), and [`BenchReport::improved`] /
//! [`BenchReport::regressed`] carry the acceptance criterion: modulo
//! scheduling must drop simulated cycles on several programs and may
//! regress none — the scheduler's profitability gate keeps every
//! unprofitable loop on its list schedule, so a regression here is a
//! bug, not a tuning matter.

use crate::report::json_str;
use crate::{audit, CompileOptions, Session, SessionCtrl};
use warp_ir::Region;

/// One program's before/after measurements.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Program name (corpus file stem).
    pub name: String,
    /// Cell µcode words of the pipelined build.
    pub cell_ucode: u32,
    /// IU µcode words of the pipelined build.
    pub iu_ucode: u64,
    /// Simulated array cycles of the `pipeline: false` baseline.
    pub cycles_baseline: u64,
    /// Simulated array cycles of the default (pipelined) build.
    pub cycles_pipelined: u64,
    /// Wall-clock compile time of the pipelined build, in milliseconds.
    pub compile_ms: f64,
    /// Per-pattern rewrite application counts (mid-end `Metrics`).
    pub rewrite_hits: Vec<(String, u64)>,
    /// One entry per *innermost* loop, in region order:
    /// `Some((ii, stages))` when it modulo-scheduled, `None` when the
    /// profitability gate kept it on its list schedule. The JSON
    /// serialization keeps the entry and emits explicit `null`s, so the
    /// schema is stable whether or not a loop pipelined.
    pub pipelined_loops: Vec<Option<(u32, u32)>>,
}

/// The whole corpus, measured.
#[derive(Clone, Debug, Default)]
pub struct BenchReport {
    /// One record per program, in input order.
    pub programs: Vec<BenchRecord>,
}

impl BenchReport {
    /// Programs whose simulated cycles dropped under pipelining.
    pub fn improved(&self) -> usize {
        self.programs
            .iter()
            .filter(|r| r.cycles_pipelined < r.cycles_baseline)
            .count()
    }

    /// Programs whose simulated cycles *rose* under pipelining. The
    /// profitability gate makes this a correctness criterion: it must
    /// be zero.
    pub fn regressed(&self) -> usize {
        self.programs
            .iter()
            .filter(|r| r.cycles_pipelined > r.cycles_baseline)
            .count()
    }

    /// Hand-rolled JSON (the container has no serde): the
    /// `BENCH_compile.json` payload.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"programs\": [\n");
        for (i, r) in self.programs.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"name\": {}, ", json_str(&r.name)));
            out.push_str(&format!("\"cell_ucode\": {}, ", r.cell_ucode));
            out.push_str(&format!("\"iu_ucode\": {}, ", r.iu_ucode));
            out.push_str(&format!("\"cycles_baseline\": {}, ", r.cycles_baseline));
            out.push_str(&format!("\"cycles_pipelined\": {}, ", r.cycles_pipelined));
            out.push_str(&format!("\"compile_ms\": {:.3}, ", r.compile_ms));
            out.push_str("\"rewrite_hits\": {");
            for (j, (name, n)) in r.rewrite_hits.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_str(name), n));
            }
            out.push_str("}, \"pipelined_loops\": [");
            for (j, entry) in r.pipelined_loops.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match entry {
                    Some((ii, stages)) => {
                        out.push_str(&format!("{{\"ii\": {ii}, \"stages\": {stages}}}"));
                    }
                    // A loop the gate skipped still gets its entry —
                    // explicit nulls, never a missing key.
                    None => out.push_str("{\"ii\": null, \"stages\": null}"),
                }
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.programs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"improved\": {},\n", self.improved()));
        out.push_str(&format!("  \"regressed\": {}\n", self.regressed()));
        out.push_str("}\n");
        out
    }

    /// A fixed-width console summary.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<14} {:>10} {:>8} {:>10} {:>10} {:>7} {:>9} {:>6}\n",
            "name", "cell ucode", "iu", "base cyc", "piped cyc", "delta", "rewrites", "loops"
        );
        for r in &self.programs {
            let delta = r.cycles_baseline as i64 - r.cycles_pipelined as i64;
            let rewrites: u64 = r.rewrite_hits.iter().map(|(_, n)| n).sum();
            out.push_str(&format!(
                "{:<14} {:>10} {:>8} {:>10} {:>10} {:>7} {:>9} {:>6}\n",
                r.name,
                r.cell_ucode,
                r.iu_ucode,
                r.cycles_baseline,
                r.cycles_pipelined,
                delta,
                rewrites,
                r.pipelined_loops.iter().flatten().count(),
            ));
        }
        out.push_str(&format!(
            "improved on {} of {} programs, regressed on {}\n",
            self.improved(),
            self.programs.len(),
            self.regressed(),
        ));
        out
    }
}

/// Innermost loops of the region tree in region order — the loops the
/// modulo scheduler considers. A loop is innermost when its body
/// contains no further loop.
fn innermost_loops(region: &Region, out: &mut Vec<warp_ir::LoopId>) {
    match region {
        Region::Block(_) => {}
        Region::Loop { id, body } => {
            let before = out.len();
            innermost_loops(body, out);
            if out.len() == before {
                out.push(*id);
            }
        }
        Region::Seq(rs) => {
            for r in rs {
                innermost_loops(r, out);
            }
        }
    }
}

fn compile_mode(
    source: &str,
    opts: &CompileOptions,
    pipeline: bool,
) -> Result<crate::CompiledModule, String> {
    Session::new(opts.clone())
        .with_ctrl(SessionCtrl {
            pipeline,
            ..SessionCtrl::default()
        })
        .compile(source)
        .map_err(|d| d.to_string())
}

fn simulate(module: &crate::CompiledModule, seed: u64) -> Result<u64, String> {
    let owned = audit::seeded_inputs(module, seed);
    let inputs: Vec<(&str, &[f32])> = owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    module
        .run(&inputs)
        .map(|r| r.cycles)
        .map_err(|e| e.to_string())
}

/// Measures one program: both builds, both simulations.
///
/// # Errors
///
/// Returns the compile diagnostics or simulator error, prefixed with
/// the program name.
pub fn bench_program(
    name: &str,
    source: &str,
    opts: &CompileOptions,
    seed: u64,
) -> Result<BenchRecord, String> {
    let err = |stage: &str, e: String| format!("{name}: {stage}: {e}");

    let t0 = std::time::Instant::now();
    let piped = compile_mode(source, opts, true).map_err(|e| err("compile (pipelined)", e))?;
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    let base = compile_mode(source, opts, false).map_err(|e| err("compile (baseline)", e))?;

    let cycles_pipelined = simulate(&piped, seed).map_err(|e| err("simulate (pipelined)", e))?;
    let cycles_baseline = simulate(&base, seed).map_err(|e| err("simulate (baseline)", e))?;

    let mut loops = Vec::new();
    innermost_loops(&piped.ir.root, &mut loops);
    let pipelined_loops = loops
        .iter()
        .map(|lid| {
            piped
                .cell_code
                .pipelined
                .iter()
                .find(|p| p.id == *lid)
                .map(|p| (p.ii, p.stages))
        })
        .collect();

    Ok(BenchRecord {
        name: name.to_owned(),
        cell_ucode: piped.metrics.cell_ucode,
        iu_ucode: piped.metrics.iu_ucode,
        cycles_baseline,
        cycles_pipelined,
        compile_ms,
        rewrite_hits: piped.metrics.rewrite_hits.clone(),
        pipelined_loops,
    })
}

/// Measures every `(name, source)` pair; fails on the first program
/// that does not compile and simulate in both modes.
///
/// # Errors
///
/// Propagates the first [`bench_program`] failure.
pub fn run_bench(
    programs: &[(String, String)],
    opts: &CompileOptions,
    seed: u64,
) -> Result<BenchReport, String> {
    let mut report = BenchReport::default();
    for (name, source) in programs {
        report
            .programs
            .push(bench_program(name, source, opts, seed)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn polynomial_improves_and_serializes() {
        let report = run_bench(
            &[("polynomial".to_owned(), corpus::polynomial_source(4, 64))],
            &CompileOptions::default(),
            1,
        )
        .expect("benches");
        assert_eq!(report.programs.len(), 1);
        let r = &report.programs[0];
        assert!(
            r.cycles_pipelined < r.cycles_baseline,
            "polynomial should pipeline: {} vs {}",
            r.cycles_pipelined,
            r.cycles_baseline
        );
        assert!(r.pipelined_loops.iter().any(Option::is_some));
        let json = report.to_json();
        assert!(json.contains("\"cycles_baseline\""));
        assert!(json.contains("\"improved\": 1"));
        assert!(json.contains("\"regressed\": 0"));
    }

    #[test]
    fn non_pipelined_loops_serialize_as_explicit_nulls() {
        let report = BenchReport {
            programs: vec![BenchRecord {
                name: "t".to_owned(),
                cell_ucode: 1,
                iu_ucode: 1,
                cycles_baseline: 2,
                cycles_pipelined: 2,
                compile_ms: 0.1,
                rewrite_hits: vec![],
                pipelined_loops: vec![Some((3, 2)), None],
            }],
        };
        let json = report.to_json();
        assert!(
            json.contains("{\"ii\": 3, \"stages\": 2}, {\"ii\": null, \"stages\": null}"),
            "{json}"
        );
    }

    #[test]
    fn every_innermost_loop_gets_a_record_entry() {
        // One pipelined build of the polynomial generator: the record
        // must carry one entry per innermost loop whether or not the
        // gate scheduled it, so consumers can line entries up with the
        // loop structure.
        let src = corpus::polynomial_source(4, 64);
        let r = bench_program("polynomial", &src, &CompileOptions::default(), 1).expect("benches");
        let module = compile_mode(&src, &CompileOptions::default(), true).expect("compiles");
        let mut loops = Vec::new();
        innermost_loops(&module.ir.root, &mut loops);
        assert_eq!(r.pipelined_loops.len(), loops.len());
        assert!(r.pipelined_loops.len() >= module.cell_code.pipelined.len());
    }
}
