//! The seven workloads and the span names they share.

pub mod compile;
pub mod differential;
pub mod exec;
pub mod serve;

use crate::harness::{Finish, SetupFn};

/// Span names recorded around calls into the executors, the host
/// binding, the oracle and the comparison (the nine pass spans carry
/// the pass names the compiler's driver reports).
pub mod span {
    pub const COMPILE: &str = "compile";
    pub const HOST_BIND: &str = "host.bind";
    pub const SIM_RUN: &str = "sim.run";
    pub const NATIVE_BUILD: &str = "native.build";
    pub const NATIVE_RUN: &str = "native.run";
    pub const ORACLE_INTERP: &str = "oracle.interp";
    pub const AUDIT_INPUTS: &str = "audit.inputs";
    pub const DIFF_COMPARE: &str = "diff.compare";
    pub const SUBMIT_LINE: &str = "protocol.submit_line";
    pub const RUN_REPLY: &str = "protocol.run_reply";
}

/// A workload's set-up function and how often a run repeats it for
/// the median behind `setup_s`: the cheaper a set-up, the more repeats
/// it takes to report it steadily. Each count makes the repeats last
/// between a third of a second and a second on the reference box.
pub fn setup_of(workload: &str) -> Option<(SetupFn, usize)> {
    Some(match workload {
        "compile_kernels" => (compile::setup_kernels, 51),
        "compile_images" => (compile::setup_images, 11),
        "exec_sim" => (exec::setup_sim, 11),
        "exec_native" => (exec::setup_native, 11),
        "differential" => (differential::setup, 31),
        "serve_cold" => (serve::setup_cold, 51),
        "serve_warm" => (serve::setup_warm, 11),
        _ => return None,
    })
}

/// Reports the mean self time per op of every compiler pass that ran
/// in the traced rounds, and the driver overhead (the `compile` span
/// minus its pass spans).
pub fn report_pass_times(fin: &mut Finish<'_>) {
    const PASSES: [(&str, &str); 10] = [
        ("w2-lang.frontend_ms", "frontend"),
        ("warp-ir.comm_ms", "comm"),
        ("warp-ir.lower_ms", "lower"),
        ("warp-ir.rewrite_ms", "rewrite"),
        ("warp-ir.decompose_ms", "decompose"),
        ("warp-cell.codegen_ms", "cell-codegen"),
        ("warp-skew.skew_ms", "skew"),
        ("warp-iu.codegen_ms", "iu-codegen"),
        ("warp-host.codegen_ms", "host-codegen"),
        ("session.driver_overhead_ms", span::COMPILE),
    ];
    let st = fin.self_times;
    for (metric, name) in PASSES {
        if st.count(name) > 0 {
            fin.set(metric, st.per_op_secs(name) * 1e3);
        }
    }
}

/// Reports `metric` as the mean self time per call of `name`, in µs,
/// when the span was recorded at all.
pub fn report_call_us(fin: &mut Finish<'_>, metric: &'static str, name: &str) {
    let st = fin.self_times;
    if st.count(name) > 0 {
        fin.set(metric, st.per_call_secs(name) * 1e6);
    }
}
