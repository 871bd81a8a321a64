//! `exec_sim` and `exec_native`: one op runs a precompiled program on
//! seeded inputs, on the cycle-level simulator or the native backend.
//!
//! Both workloads run the same six programs on the same inputs, so a
//! simulator change has a workload that shows it (`exec_sim`) and one
//! that bypasses it (`exec_native`), while anything the two executors
//! share — host binding, the queues — moves both.

use super::span;
use crate::harness::{alloc_counters, Finish, RoundOut, SetupCtx, Workload};
use crate::items::{self, as_slices, first_difference, Arrays, Item};
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use w2_lang::parse_and_check;
use warp_compiler::CompiledModule;
use warp_host::HostMemory;
use warp_native::{NativeOptions, NativeProgram};
use warp_sim::{MachineConfig, RunReport};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sim,
    Native,
}

struct Prepared {
    item: Item,
    module: CompiledModule,
    native: NativeProgram,
    inputs: Arrays,
    expected: Arrays,
    /// Array cells × cycles of one run as the skew analysis predicts
    /// them (`array_span`): the work unit the native backend's rate is
    /// quoted against, since a native run counts no cycles. (The
    /// simulator's rate uses the cycles it actually counted.)
    predicted_cell_cycles: u64,
    /// Simulated cycles of the latest simulator run.
    cycles: Option<u64>,
}

pub struct ExecWorkload {
    backend: Backend,
    programs: Vec<Prepared>,
    ops: Vec<u32>,
    tracer: Tracer,
    /// Mean `NativeProgram::build` time in set-up, seconds.
    native_build_secs: f64,
    /// Over the traced executor calls: how many there were, the
    /// allocation calls inside them, and the work they did (cells ×
    /// cycles; simulated cycles as the simulator counted them).
    exec_calls: u64,
    exec_allocs: u64,
    traced_cell_cycles: u64,
    traced_cycles: u64,
}

/// How often each of the six programs runs per round, in
/// [`items::exec_items`] order. The long programs run once; the short
/// ones repeat so that no single program is most of a round.
const SIM_REPEATS: [usize; 6] = [2, 2, 1, 4, 1, 1];
const NATIVE_REPEATS: [usize; 6] = [12, 12, 8, 24, 4, 4];

fn setup(ctx: &SetupCtx<'_>, backend: Backend) -> Result<Box<dyn Workload>, String> {
    let mut programs = Vec::new();
    let mut build_secs = 0.0;
    for item in items::exec_items() {
        let module = warp_compiler::compile(&item.source, &item.opts)
            .map_err(|d| format!("{} did not compile: {d}", item.name))?;
        let hir = parse_and_check(&item.source).map_err(|d| d.to_string())?;
        let inputs = item.inputs(&hir, ctx.seed);
        let expected = item.expected(&hir, &inputs)?;
        let t = Instant::now();
        let native = module.native_program();
        build_secs += t.elapsed().as_secs_f64();
        let predicted_cell_cycles =
            u64::from(module.n_cells) * module.skew.array_span(module.n_cells);
        programs.push(Prepared {
            item,
            module,
            native,
            inputs,
            expected,
            predicted_cell_cycles,
            cycles: None,
        });
    }
    let repeats = match backend {
        Backend::Sim => SIM_REPEATS,
        Backend::Native => NATIVE_REPEATS,
    };
    let mut ops: Vec<u32> = repeats
        .iter()
        .enumerate()
        .flat_map(|(i, n)| std::iter::repeat_n(i as u32, *n))
        .collect();
    items::shuffle(&mut ops, &mut items::stream(ctx.seed, 0xE8EC));
    let native_build_secs = build_secs / programs.len() as f64;
    Ok(Box::new(ExecWorkload {
        backend,
        programs,
        ops,
        tracer: Tracer::new(),
        native_build_secs,
        exec_allocs: 0,
        exec_calls: 0,
        traced_cell_cycles: 0,
        traced_cycles: 0,
    }))
}

/// Set-up of `exec_sim`.
pub fn setup_sim(ctx: &SetupCtx<'_>) -> Result<Box<dyn Workload>, String> {
    setup(ctx, Backend::Sim)
}

/// Set-up of `exec_native`.
pub fn setup_native(ctx: &SetupCtx<'_>) -> Result<Box<dyn Workload>, String> {
    setup(ctx, Backend::Native)
}

fn bind(module: &CompiledModule, inputs: &Arrays) -> Result<HostMemory, String> {
    let mut host = HostMemory::new(&module.ir.vars);
    for (name, data) in inputs {
        host.set(name, data).map_err(|e| e.to_string())?;
    }
    Ok(host)
}

fn simulate(module: &CompiledModule, host: HostMemory) -> Result<RunReport, String> {
    warp_sim::run(
        &MachineConfig {
            cell_code: &module.cell_code,
            iu: &module.iu,
            host_program: &module.host,
            machine: &module.machine,
            n_cells: module.n_cells,
            skew: module.skew.min_skew,
            flow: module.skew.flow,
        },
        host,
    )
    .map_err(|e| e.to_string())
}

impl ExecWorkload {
    /// One untraced op: exactly the call a user makes.
    fn op_plain(&self, p: &Prepared) -> (Result<RunReport, String>, u64) {
        let t = Instant::now();
        let report = match self.backend {
            Backend::Sim => p
                .module
                .run(&as_slices(&p.inputs))
                .map_err(|e| e.to_string()),
            Backend::Native => bind(&p.module, &p.inputs).and_then(|host| {
                p.native
                    .run(host, &NativeOptions::default())
                    .map_err(|e| e.to_string())
            }),
        };
        (report, t.elapsed().as_nanos() as u64)
    }

    /// The same op from its public parts, one span around each.
    fn op_traced(&mut self, idx: u32) -> (Result<RunReport, String>, u64) {
        let p = &self.programs[idx as usize];
        self.tracer.begin_op(idx);
        self.tracer.enter(span::HOST_BIND);
        let host = bind(&p.module, &p.inputs);
        self.tracer.exit();
        let (name, allocs_before) = match self.backend {
            Backend::Sim => (span::SIM_RUN, alloc_counters().0),
            Backend::Native => (span::NATIVE_RUN, alloc_counters().0),
        };
        self.tracer.enter(name);
        let report = host.and_then(|host| match self.backend {
            Backend::Sim => simulate(&p.module, host),
            Backend::Native => p
                .native
                .run(host, &NativeOptions::default())
                .map_err(|e| e.to_string()),
        });
        self.tracer.exit();
        self.exec_allocs += alloc_counters().0 - allocs_before;
        self.exec_calls += 1;
        if let Ok(r) = &report {
            self.traced_cycles += r.cycles;
        }
        self.traced_cell_cycles += match (&report, self.backend) {
            (Ok(r), Backend::Sim) => u64::from(p.module.n_cells) * r.cycles,
            _ => p.predicted_cell_cycles,
        };
        (report, self.tracer.end_op().as_nanos() as u64)
    }
}

impl Workload for ExecWorkload {
    fn item_names(&self) -> Vec<String> {
        self.programs.iter().map(|p| p.item.name.clone()).collect()
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let mut total = 0u64;
        for k in 0..self.ops.len() {
            let idx = self.ops[k];
            let (report, ns) = if traced {
                self.op_traced(idx)
            } else {
                self.op_plain(&self.programs[idx as usize])
            };
            total += ns;
            // The output check is the harness's, outside the op's time.
            let p = &mut self.programs[idx as usize];
            let problem = match &report {
                Ok(r) => first_difference(&r.host, &p.expected),
                Err(e) => Some(format!("run failed: {e}")),
            };
            match (problem, report) {
                (None, Ok(r)) => {
                    if self.backend == Backend::Sim {
                        if p.cycles.is_some_and(|c| c != r.cycles) {
                            out.fail(format!("{}: simulated cycles changed", p.item.name));
                            continue;
                        }
                        p.cycles = Some(r.cycles);
                    }
                    out.samples.push((idx, ns));
                }
                (Some(d), _) => out.fail(format!("{} {d}", p.item.name)),
                (None, Err(_)) => unreachable!("an Err report always yields a problem"),
            }
        }
        out.wall = Duration::from_nanos(total);
        if traced {
            out.spans.push(self.tracer.take_spans());
        }
        out
    }

    fn finish(&mut self, fin: &mut Finish<'_>) {
        // Both executors answer to the same reference; check the other
        // one once here so sim and native are compared bitwise.
        for p in &self.programs {
            if self.backend == Backend::Native {
                continue;
            }
            let native = bind(&p.module, &p.inputs).and_then(|h| {
                p.native
                    .run(h, &NativeOptions::default())
                    .map_err(|e| e.to_string())
            });
            fin.check(match native {
                Ok(r) => first_difference(&r.host, &p.expected)
                    .map(|d| format!("{} (native vs reference) {d}", p.item.name)),
                Err(e) => Some(format!("{} native run failed: {e}", p.item.name)),
            });
        }
        if self.backend == Backend::Sim {
            for (row, p) in fin.items.iter_mut().zip(&self.programs) {
                row.array_cycles = p.cycles;
            }
        }

        if self.backend == Backend::Sim {
            let cycles: u64 = self.programs.iter().filter_map(|p| p.cycles).sum();
            fin.set("array_cycles", cycles as f64);
        }
        if !fin.traced {
            return;
        }
        let st = fin.self_times;
        super::report_call_us(fin, "warp-host.bind_us", span::HOST_BIND);
        let mcc = self.traced_cell_cycles as f64 * 1e-6;
        match self.backend {
            Backend::Sim => {
                let secs = st.self_secs(span::SIM_RUN);
                fin.set("warp-sim.run_ms", st.per_op_secs(span::SIM_RUN) * 1e3);
                fin.set("warp-sim.mcc_per_s", mcc / secs.max(1e-12));
                fin.set(
                    "warp-sim.allocs_per_kcycle",
                    self.exec_allocs as f64 / (self.traced_cycles as f64 / 1e3).max(1e-12),
                );
                // Per round: one pass over the distinct programs.
                let per_round: u64 = self
                    .ops
                    .iter()
                    .map(|&i| self.programs[i as usize].cycles.unwrap_or(0))
                    .sum();
                fin.set("warp-sim.cycles", per_round as f64);
            }
            Backend::Native => {
                let secs = st.self_secs(span::NATIVE_RUN);
                fin.set("warp-native.run_ms", st.per_op_secs(span::NATIVE_RUN) * 1e3);
                fin.set("warp-native.mcc_equiv_per_s", mcc / secs.max(1e-12));
                fin.set(
                    "warp-native.allocs_per_run",
                    self.exec_allocs as f64 / self.exec_calls.max(1) as f64,
                );
                fin.set("warp-native.build_us", self.native_build_secs * 1e6);
            }
        }
    }
}
