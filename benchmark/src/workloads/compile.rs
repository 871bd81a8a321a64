//! `compile_kernels` and `compile_images`: one op is one in-process
//! `warp_compiler::compile`.
//!
//! The two workloads run the same compiler on opposite inputs. On the
//! small-data kernels the frontend and modulo-scheduling cell codegen
//! take most of the time and host codegen almost none; on the
//! large-data image programs host and IU script generation take nearly
//! all of it. An optimisation of either side has one workload that
//! shows it and one that must not move.

use crate::harness::{Finish, RoundOut, SetupCtx, Workload};
use crate::items::{self, as_slices, first_difference, Arrays, Item};
use crate::trace::Tracer;
use std::time::Instant;
use w2_lang::parse_and_check;
use warp_compiler::store::{artifact_bytes, canonical_artifact_bytes};
use warp_compiler::{CompiledModule, Session};
use warp_native::NativeOptions;

/// Passes over the item list per round, sized so a round takes about
/// half a second on the 2-core reference box.
const KERNEL_PASSES: usize = 24;
const IMAGE_PASSES: usize = 2;

pub struct CompileWorkload {
    items: Vec<Item>,
    /// The fixed operation list: item indices, in seeded order.
    ops: Vec<u32>,
    /// Simulate each item in the gate (`array_cycles`); off for the
    /// image programs, whose simulation would dwarf the measurement.
    simulate: bool,
    /// The module each item's latest compile produced (the first one
    /// in set-up; `None` while the item has never compiled).
    latest: Vec<Option<CompiledModule>>,
    /// Per item: seeded inputs and the reference's outputs for them.
    gate: Vec<(Arrays, Arrays)>,
    tracer: Tracer,
}

fn build(
    items: Vec<Item>,
    passes: usize,
    seed: u64,
    simulate: bool,
) -> Result<Box<dyn Workload>, String> {
    let gate = items
        .iter()
        .map(|item| {
            let hir = parse_and_check(&item.source).map_err(|d| format!("{}: {d}", item.name))?;
            let inputs = item.inputs(&hir, seed);
            let expected = item.expected(&hir, &inputs)?;
            Ok((inputs, expected))
        })
        .collect::<Result<_, String>>()?;
    let mut rng = items::stream(seed, 0x0585);
    let mut ops = Vec::with_capacity(items.len() * passes);
    for _ in 0..passes {
        let mut order: Vec<u32> = (0..items.len() as u32).collect();
        items::shuffle(&mut order, &mut rng);
        ops.extend(order);
    }
    // Every item is compiled once here: set-up then takes mostly the
    // compiler's time, not the harness's own input generation, whose
    // memory-bound array fills run in one of two speeds per process on
    // a virtual machine (1.4× apart) and made `setup_s` bimodal.
    let latest = items
        .iter()
        .map(|item| warp_compiler::compile(&item.source, &item.opts).ok())
        .collect();
    Ok(Box::new(CompileWorkload {
        items,
        ops,
        simulate,
        latest,
        gate,
        tracer: Tracer::new(),
    }))
}

/// Set-up of `compile_kernels`.
pub fn setup_kernels(ctx: &SetupCtx<'_>) -> Result<Box<dyn Workload>, String> {
    build(items::kernel_items(ctx.seed), KERNEL_PASSES, ctx.seed, true)
}

/// Set-up of `compile_images`.
pub fn setup_images(ctx: &SetupCtx<'_>) -> Result<Box<dyn Workload>, String> {
    build(items::image_items(), IMAGE_PASSES, ctx.seed, false)
}

impl Workload for CompileWorkload {
    fn item_names(&self) -> Vec<String> {
        self.items.iter().map(|i| i.name.clone()).collect()
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let mut total = 0u64;
        for &idx in &self.ops {
            let item = &self.items[idx as usize];
            let (compiled, ns) = if traced {
                self.tracer.begin_op(idx);
                self.tracer.enter("compile");
                let r = Session::with_observer(item.opts.clone(), &mut self.tracer)
                    .compile(&item.source);
                self.tracer.exit();
                (r, self.tracer.end_op().as_nanos() as u64)
            } else {
                let t = Instant::now();
                let r = warp_compiler::compile(&item.source, &item.opts);
                (r, t.elapsed().as_nanos() as u64)
            };
            total += ns;
            match compiled {
                Ok(module) => {
                    out.samples.push((idx, ns));
                    self.latest[idx as usize] = Some(module);
                }
                Err(diags) => out.fail(format!("{} did not compile: {diags}", item.name)),
            }
        }
        out.wall = std::time::Duration::from_nanos(total);
        if traced {
            out.spans.push(self.tracer.take_spans());
        }
        out
    }

    fn finish(&mut self, fin: &mut Finish<'_>) {
        let mut ucode_words = 0u64;
        let mut artifact_total = 0u64;
        let mut cycles_total = 0u64;
        let mut counts = LayerCounts::default();
        for (idx, item) in self.items.iter().enumerate() {
            let Some(module) = self.latest[idx].as_ref() else {
                fin.check(Some(format!("{} never compiled", item.name)));
                continue;
            };
            // Determinism: a second compile gives the same code.
            let again = match warp_compiler::compile(&item.source, &item.opts) {
                Ok(m) => m,
                Err(d) => {
                    fin.check(Some(format!("{} recompile failed: {d}", item.name)));
                    continue;
                }
            };
            let same = canonical_artifact_bytes(module) == canonical_artifact_bytes(&again);
            fin.check(
                (!same)
                    .then(|| format!("{}: two compiles produced different artifacts", item.name)),
            );

            let words = u64::from(module.metrics.cell_ucode) + module.metrics.iu_ucode;
            let bytes = artifact_bytes(module).len() as u64;
            ucode_words += words;
            artifact_total += bytes;
            fin.items[idx].ucode_words = Some(words);
            fin.items[idx].artifact_bytes = Some(bytes);
            counts.add(module);

            // Outputs against the independent reference.
            let (inputs, expected) = &self.gate[idx];
            let native = module.run_native(&as_slices(inputs), &NativeOptions::default());
            fin.check(match &native {
                Ok(r) => first_difference(&r.host, expected)
                    .map(|d| format!("{} (native) {d}", item.name)),
                Err(e) => Some(format!("{} native run failed: {e}", item.name)),
            });
            if self.simulate {
                match module.run(&as_slices(inputs)) {
                    Ok(r) => {
                        fin.check(
                            first_difference(&r.host, expected)
                                .map(|d| format!("{} (sim) {d}", item.name)),
                        );
                        cycles_total += r.cycles;
                        fin.items[idx].array_cycles = Some(r.cycles);
                    }
                    Err(e) => fin.check(Some(format!("{} sim run failed: {e}", item.name))),
                }
            }
        }

        if fin.traced {
            counts.report(fin);
            let st = fin.self_times;
            let mean_source_kib = self
                .ops
                .iter()
                .map(|&i| self.items[i as usize].source.len() as f64)
                .sum::<f64>()
                / 1024.0
                / self.ops.len().max(1) as f64;
            let frontend = st.per_op_secs("frontend");
            if frontend > 0.0 {
                fin.set("w2-lang.source_kib_per_s", mean_source_kib / frontend);
            }
            super::report_pass_times(fin);
        }
        fin.set("ucode_words", ucode_words as f64);
        fin.set("artifact_kib", artifact_total as f64 / 1024.0);
        if self.simulate {
            fin.set("array_cycles", cycles_total as f64);
        }
    }
}

/// Static properties of the generated code, summed over a workload's
/// programs: what a pass change moves besides its own time.
#[derive(Default)]
struct LayerCounts {
    rewrite_hits: u64,
    cell_words: u64,
    loops_pipelined: u64,
    ii_sum: u64,
    min_skew_sum: i64,
    queue_occupancy_max: u64,
    degraded: u64,
    iu_words: u64,
    script_words: u64,
}

impl LayerCounts {
    fn add(&mut self, m: &CompiledModule) {
        self.rewrite_hits += m.metrics.rewrite_hits.iter().map(|(_, n)| n).sum::<u64>();
        self.cell_words += u64::from(m.metrics.cell_ucode);
        self.loops_pipelined += m.cell_code.pipelined.len() as u64;
        self.ii_sum += m
            .cell_code
            .pipelined
            .iter()
            .map(|p| u64::from(p.ii))
            .sum::<u64>();
        self.min_skew_sum += m.skew.min_skew;
        self.queue_occupancy_max = self
            .queue_occupancy_max
            .max(m.skew.queue_occupancy.values().copied().max().unwrap_or(0));
        self.degraded += u64::from(m.skew.degraded);
        self.iu_words += m.metrics.iu_ucode;
        self.script_words += (m.host.input_count() + m.host.output_count()) as u64;
    }

    fn report(&self, fin: &mut Finish<'_>) {
        fin.set("warp-ir.rewrite_hits", self.rewrite_hits as f64);
        fin.set("warp-cell.ucode_words", self.cell_words as f64);
        fin.set("warp-cell.loops_pipelined", self.loops_pipelined as f64);
        fin.set("warp-cell.ii_sum", self.ii_sum as f64);
        fin.set("warp-skew.min_skew_sum", self.min_skew_sum as f64);
        fin.set(
            "warp-skew.queue_occupancy_max",
            self.queue_occupancy_max as f64,
        );
        fin.set("warp-skew.degraded", self.degraded as f64);
        fin.set("warp-iu.ucode_words", self.iu_words as f64);
        fin.set("warp-host.script_words", self.script_words as f64);
    }
}
