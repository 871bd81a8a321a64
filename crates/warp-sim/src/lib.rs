//! Cycle-level simulator of the Warp machine.
//!
//! The paper's compiler targeted real hardware; this reproduction targets
//! a simulator that models exactly the properties the compiler must
//! reason about (paper §2): lock-step cells with two 5-stage pipelined
//! FPUs and a 4K-word memory, 128-word inter-cell queues on the X and Y
//! paths, the systolic Adr path fed by the IU, and host I/O processors
//! that move data in a fixed order. Every compile-time guarantee — no
//! queue underflow or overflow, every IU address on time — is re-checked
//! dynamically, so a successful simulation is end-to-end evidence the
//! compiler is right.
//!
//! See [`machine::run`] for the entry point; the integration tests in
//! the workspace root compile W2 programs and compare simulated results
//! against straightforward Rust reference implementations.

mod decode;
pub mod error;
pub mod fault;
pub mod machine;
pub mod report;

#[cfg(test)]
mod tests_errors;

pub use error::SimError;
pub use fault::{splitmix64, Fault, FaultPlan, FaultSpecError};
pub use machine::{
    run, run_traced, run_with_options, MachineConfig, RunReport, SimOptions, TraceEvent,
};
pub use report::{FaultReport, StaticClaims};

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::parse_and_check;
    use warp_cell::{codegen as cell_codegen, CellMachine};
    use warp_host::{host_codegen, HostMemory};
    use warp_ir::{decompose, lower, LowerOptions};
    use warp_iu::{iu_codegen, IuOptions};
    use warp_skew::{analyze, SkewOptions};

    struct Compiled {
        ir: warp_ir::CellIr,
        cell: warp_cell::CellCode,
        iu: warp_iu::IuProgram,
        host: warp_host::HostProgram,
        skew: warp_skew::SkewReport,
    }

    fn compile(src: &str) -> Compiled {
        let hir = parse_and_check(src).expect("front end");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lower");
        let dec = decompose::decompose(&mut ir);
        let machine = CellMachine::default();
        let cell = cell_codegen(&ir, &machine).expect("cell codegen");
        let skew = analyze(
            &cell,
            &ir.loops,
            &SkewOptions {
                n_cells: ir.n_cells,
                ..SkewOptions::default()
            },
        )
        .expect("skew");
        let iu = iu_codegen(&ir, &dec, &cell, &IuOptions::default()).expect("iu codegen");
        let host = host_codegen(&ir, &cell, skew.flow).expect("host codegen");
        Compiled {
            ir,
            cell,
            iu,
            host,
            skew,
        }
    }

    fn simulate(
        c: &Compiled,
        n_cells: u32,
        skew_override: Option<i64>,
        inputs: &[(&str, Vec<f32>)],
    ) -> Result<RunReport, SimError> {
        let machine = CellMachine::default();
        let mut host = HostMemory::new(&c.ir.vars);
        for (name, data) in inputs {
            host.set(name, data).expect("test input binds");
        }
        run(
            &MachineConfig {
                cell_code: &c.cell,
                iu: &c.iu,
                host_program: &c.host,
                machine: &machine,
                n_cells,
                skew: skew_override.unwrap_or(c.skew.min_skew),
                flow: c.skew.flow,
            },
            host,
        )
    }

    const SCALE: &str = "module scale (xs in, ys out) float xs[8]; float ys[8]; \
        cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
        for i := 0 to 7 do begin receive (L, X, v, xs[i]); send (R, X, v * 2.0 + 1.0, ys[i]); end; \
        end call f; end";

    #[test]
    fn single_cell_scale() {
        let c = compile(SCALE);
        let xs: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let r = simulate(&c, 1, None, &[("xs", xs.clone())]).expect("runs");
        let expect: Vec<f32> = xs.iter().map(|v| v * 2.0 + 1.0).collect();
        assert_eq!(r.host.get("ys").unwrap(), &expect[..]);
        assert_eq!(r.words_out, 8);
    }

    /// A two-cell pipeline where each cell adds 1: results = input + 2.
    const ADD_PIPE: &str = "module addpipe (xs in, ys out) float xs[6]; float ys[6]; \
        cellprogram (cid : 0 : 1) begin function f begin float v; int i; \
        for i := 0 to 5 do begin receive (L, X, v, xs[i]); send (R, X, v + 1.0, ys[i]); end; \
        end call f; end";

    #[test]
    fn two_cell_pipeline() {
        let c = compile(ADD_PIPE);
        let xs: Vec<f32> = vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5];
        let r = simulate(&c, 2, None, &[("xs", xs.clone())]).expect("runs");
        let expect: Vec<f32> = xs.iter().map(|v| v + 2.0).collect();
        assert_eq!(r.host.get("ys").unwrap(), &expect[..]);
    }

    #[test]
    fn underflow_when_skew_too_small() {
        let c = compile(ADD_PIPE);
        assert!(c.skew.min_skew > 0, "a nontrivial skew is required");
        let xs: Vec<f32> = vec![1.0; 6];
        let err = simulate(&c, 2, Some(c.skew.min_skew - 1), &[("xs", xs)])
            .expect_err("one cycle less must underflow");
        assert!(matches!(err, SimError::QueueUnderflow { .. }), "{err}");
    }

    #[test]
    fn extra_skew_still_correct() {
        let c = compile(ADD_PIPE);
        let xs: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let r = simulate(&c, 2, Some(c.skew.min_skew + 10), &[("xs", xs.clone())]).expect("runs");
        let expect: Vec<f32> = xs.iter().map(|v| v + 2.0).collect();
        assert_eq!(r.host.get("ys").unwrap(), &expect[..]);
    }

    #[test]
    fn iu_addresses_drive_cell_memory() {
        // Store then reload through IU-generated addresses.
        let src = "module buf (xs in, ys out) float xs[8]; float ys[8]; \
            cellprogram (cid : 0 : 0) begin function f begin float v; float b[8]; int i; \
            for i := 0 to 7 do begin receive (L, X, v, xs[i]); b[i] := v; end; \
            for i := 0 to 7 do begin v := b[7 - i]; send (R, X, v, ys[i]); end; \
            end call f; end";
        let c = compile(src);
        let xs: Vec<f32> = (0..8).map(|i| (i * i) as f32).collect();
        let r = simulate(&c, 1, None, &[("xs", xs.clone())]).expect("runs");
        let expect: Vec<f32> = xs.iter().rev().copied().collect();
        assert_eq!(r.host.get("ys").unwrap(), &expect[..]);
    }

    #[test]
    fn predicated_conditional_executes_both_sides() {
        let src = "module clamp (xs in, ys out) float xs[6]; float ys[6]; \
            cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
            for i := 0 to 5 do begin receive (L, X, v, xs[i]); \
            if v < 0.0 then v := 0.0; send (R, X, v, ys[i]); end; \
            end call f; end";
        let c = compile(src);
        let xs = vec![-2.0, 3.0, -0.5, 0.0, 7.0, -9.0];
        let r = simulate(&c, 1, None, &[("xs", xs)]).expect("runs");
        assert_eq!(r.host.get("ys").unwrap(), &[0.0, 3.0, 0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn throughput_reported() {
        let c = compile(SCALE);
        let r = simulate(&c, 1, None, &[("xs", vec![1.0; 8])]).expect("runs");
        assert!(r.throughput() > 0.0);
        assert!(r.fp_ops >= 16, "two FLOP per element");
        assert!(
            r.max_queue_occupancy == 0,
            "single cell has no interior queues"
        );
    }

    #[test]
    fn tiny_queue_overflows() {
        // Run the two-cell pipeline with a 1-word queue but a huge skew:
        // the first cell fills the queue long before the second starts.
        let c = compile(ADD_PIPE);
        let machine = CellMachine {
            queue_capacity: 1,
            ..CellMachine::default()
        };
        let mut host = HostMemory::new(&c.ir.vars);
        host.set("xs", &[1.0; 6]).expect("xs binds");
        let err = run(
            &MachineConfig {
                cell_code: &c.cell,
                iu: &c.iu,
                host_program: &c.host,
                machine: &machine,
                n_cells: 2,
                skew: 100,
                flow: c.skew.flow,
            },
            host,
        )
        .expect_err("queue of 1 word with skew 100 must overflow");
        assert!(matches!(err, SimError::QueueOverflow { .. }), "{err}");
    }

    #[test]
    fn loop_carried_accumulator() {
        let src = "module total (xs in, ys out) float xs[8]; float ys[1]; \
            cellprogram (cid : 0 : 0) begin function f begin float v, acc; int i; \
            acc := 0.0; \
            for i := 0 to 7 do begin receive (L, X, v, xs[i]); acc := acc + v; end; \
            send (R, X, acc, ys[0]); \
            end call f; end";
        let c = compile(src);
        let xs: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let r = simulate(&c, 1, None, &[("xs", xs)]).expect("runs");
        assert_eq!(r.host.get("ys").unwrap(), &[36.0]);
    }
}
