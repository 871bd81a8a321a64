//! Native execution backend for compiled W2 modules.
//!
//! The third executor in the Warp verification fleet, next to the
//! reference HIR interpreter (`warp-oracle`) and the cycle-accurate
//! simulator (`warp-sim`): [`NativeProgram::build`] lowers the typed
//! post-rewrite cell IR (a `CompiledModule`'s `ir` field) into flat
//! pre-decoded op tables, and [`NativeProgram::run`] dispatches them
//! in a tight loop — cells run to completion in flow order, inter-cell
//! words ride fixed-capacity [`RingQueue`]s sized from the program's
//! static send counts, host I/O is plain slice access. No cycle
//! bookkeeping, no microcode interpretation: this is the "run this W2
//! program NOW" serving path, orders of magnitude faster than
//! simulation.
//!
//! **Bitwise fidelity.** Float arithmetic executes in the DAG's
//! operand order, which with reassociation off is the source
//! expression tree — the same order the oracle interprets and the
//! scheduled microcode computes. IEEE f32 operations are deterministic
//! functions of their operands, so all three executors produce
//! bit-identical words; the differential harness compares them with
//! `to_bits`, and [`RunReport`](warp_sim::RunReport)s from this crate
//! slot straight into it. Timing is the one thing the native path
//! does not model: `cycles` is reported as 0 and the simulator stays
//! the timing/audit oracle.
//!
//! # Examples
//!
//! ```
//! use w2_lang::parse_and_check;
//! use warp_ir::{decompose, lower, LowerOptions};
//! use warp_native::{NativeOptions, NativeProgram};
//! use warp_host::HostMemory;
//!
//! let src = "module inc (a in, r out) float a[3]; float r[3]; \
//!     cellprogram (cid : 0 : 1) begin function f begin float v; int i; \
//!     for i := 0 to 2 do begin receive (L, X, v, a[i]); \
//!     send (R, X, v + 1.0, r[i]); end; end call f; end";
//! let hir = parse_and_check(src)?;
//! let mut ir = lower(&hir, &LowerOptions::default())?;
//! decompose::decompose(&mut ir);
//! let program = NativeProgram::build(&ir, w2_lang::ast::Dir::Right);
//! let mut host = HostMemory::new(&ir.vars);
//! host.set("a", &[1.0, 2.0, 3.0]).unwrap();
//! let report = program.run(host, &NativeOptions::default()).unwrap();
//! // Two cells each add 1.0.
//! assert_eq!(report.host.get("r").unwrap(), &[3.0, 4.0, 5.0]);
//! # Ok::<(), warp_common::DiagnosticBag>(())
//! ```

mod exec;
mod program;

pub use exec::{NativeError, NativeOptions, NativeRunner};
pub use program::NativeProgram;
pub use warp_common::RingQueue;

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::ast::{Chan, Dir};
    use w2_lang::parse_and_check;
    use warp_host::HostMemory;
    use warp_ir::{decompose, lower, CellIr, LowerOptions};

    fn build_ir(src: &str) -> CellIr {
        let hir = parse_and_check(src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        decompose::decompose(&mut ir);
        ir
    }

    fn run(src: &str, inputs: &[(&str, &[f32])]) -> warp_sim::RunReport {
        let ir = build_ir(src);
        let program = NativeProgram::build(&ir, Dir::Right);
        let mut host = HostMemory::new(&ir.vars);
        for (name, data) in inputs {
            host.set(name, data).expect("input binds");
        }
        program
            .run(host, &NativeOptions::default())
            .expect("native run")
    }

    #[test]
    fn words_thread_through_a_two_cell_pipeline() {
        let src = "module inc (a in, r out) float a[3]; float r[3]; \
            cellprogram (cid : 0 : 1) begin function f begin float v; int i; \
            for i := 0 to 2 do begin receive (L, X, v, a[i]); \
            send (R, X, v + 1.0, r[i]); end; end call f; end";
        let report = run(src, &[("a", &[1.0, 2.0, 3.0])]);
        assert_eq!(report.host.get("r").unwrap(), &[3.0, 4.0, 5.0]);
        assert_eq!(report.out_streams[&Chan::X], vec![3.0, 4.0, 5.0]);
        assert_eq!(report.words_out, 3);
        assert_eq!(report.cycles, 0, "native is untimed by design");
        assert!(report.fp_ops >= 6, "two cells x three adds");
        // Three words crossed the single interior boundary.
        assert_eq!(report.queue_high_water[&Chan::X], 3);
    }

    #[test]
    fn streams_capture_unannotated_sends() {
        let src = "module t (a in, r out) float a[1]; float r[1]; \
            cellprogram (cid : 0 : 0) begin function f begin float v; \
            receive (L, X, v, a[0]); send (R, X, v, r[0]); send (R, X, v + 1.0); \
            end call f; end";
        let report = run(src, &[("a", &[5.0])]);
        assert_eq!(report.host.get("r").unwrap(), &[5.0]);
        assert_eq!(report.out_streams[&Chan::X], vec![5.0, 6.0]);
    }

    #[test]
    fn conditionals_are_predicated_selects() {
        let src = "module sel (a in, r out) float a[2]; float r[2]; \
            cellprogram (cid : 0 : 0) begin function f begin float v, w; int i; \
            for i := 0 to 1 do begin receive (L, X, v, a[i]); \
            if v < 0.0 then w := -v; else w := v; \
            send (R, X, w, r[i]); end; end call f; end";
        let report = run(src, &[("a", &[-3.0, 4.0])]);
        assert_eq!(report.host.get("r").unwrap(), &[3.0, 4.0]);
    }

    #[test]
    fn cell_arrays_and_nested_loops() {
        // Each of 2 cells buffers the whole input, then replays it
        // scaled — exercises Load/Store with loop-variant addresses.
        let src = "module buf (a in, r out) float a[4]; float r[4]; \
            cellprogram (cid : 0 : 1) begin function f begin \
            float s[4]; float v; int i, j; \
            for i := 0 to 3 do begin receive (L, X, v, a[i]); s[i] := v; end; \
            for j := 0 to 3 do begin send (R, X, s[j] * 2.0, r[j]); end; \
            end call f; end";
        let report = run(src, &[("a", &[1.0, 2.0, 3.0, 4.0])]);
        assert_eq!(report.host.get("r").unwrap(), &[4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn starving_receive_is_a_structured_error() {
        // Cell 1 consumes two words, cell 0 only produces one.
        let src = "module bad (xs in) float xs[4]; \
            cellprogram (cid : 0 : 1) begin function f begin float v; \
            receive (L, X, v, xs[0]); receive (L, X, v, xs[1]); send (R, X, v); \
            end call f; end";
        let ir = build_ir(src);
        let program = NativeProgram::build(&ir, Dir::Right);
        let host = HostMemory::new(&ir.vars);
        let err = program
            .run(host, &NativeOptions::default())
            .expect_err("cell 1 starves");
        assert!(
            matches!(
                err,
                NativeError::EmptyQueue {
                    cell: 1,
                    chan: Chan::X
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("empty upstream"), "{err}");
    }

    #[test]
    fn queue_capacity_ceiling_is_enforced() {
        let src = "module big (r out) float r[1]; \
            cellprogram (cid : 0 : 1) begin function f begin int i; \
            for i := 0 to 99 do begin send (R, X, 1.0); end; \
            end call f; end";
        let ir = build_ir(src);
        let program = NativeProgram::build(&ir, Dir::Right);
        assert_eq!(program.queue_words()[&Chan::X], 100);
        let opts = NativeOptions {
            max_queue_words: 10,
            ..NativeOptions::default()
        };
        let err = program
            .run(HostMemory::new(&ir.vars), &opts)
            .expect_err("over the ceiling");
        assert!(matches!(err, NativeError::QueueTooLarge { .. }), "{err:?}");
    }

    #[test]
    fn cancellation_interrupts_the_dispatch_loop() {
        use std::sync::Arc;
        // A long program under an already-expired deadline.
        let src = "module spin (r out) float r[1]; \
            cellprogram (cid : 0 : 0) begin function f begin float v; int i, j; \
            for i := 0 to 999 do begin for j := 0 to 999 do begin \
            v := v + 1.0; end; end; send (R, X, v, r[0]); end call f; end";
        let ir = build_ir(src);
        let program = NativeProgram::build(&ir, Dir::Right);
        let opts = NativeOptions {
            cancel: warp_common::CancelToken::with_deadline(
                Arc::new(warp_common::ManualClock::new(1_000)),
                0,
            ),
            poll_interval: 64,
            ..NativeOptions::default()
        };
        let err = program
            .run(HostMemory::new(&ir.vars), &opts)
            .expect_err("deadline already passed");
        assert!(matches!(err, NativeError::Interrupted(_)), "{err:?}");
    }

    #[test]
    fn right_to_left_flow_mirrors() {
        // Sends Left: flow is right-to-left, cell order reversed.
        let src = "module rtl (a in, r out) float a[2]; float r[2]; \
            cellprogram (cid : 0 : 1) begin function f begin float v; int i; \
            for i := 0 to 1 do begin receive (R, X, v, a[i]); \
            send (L, X, v + 1.0, r[i]); end; end call f; end";
        let report = {
            let ir = build_ir(src);
            let program = NativeProgram::build(&ir, Dir::Left);
            let mut host = HostMemory::new(&ir.vars);
            host.set("a", &[1.0, 2.0]).unwrap();
            program.run(host, &NativeOptions::default()).expect("runs")
        };
        assert_eq!(report.host.get("r").unwrap(), &[3.0, 4.0]);
    }
}
