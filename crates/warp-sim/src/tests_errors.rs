//! Direct tests of the simulator's error paths.
//!
//! Two layers: hand-built microprograms that the compiler would never
//! emit (exercising each check in isolation), and compiler-produced
//! programs perturbed by a [`FaultPlan`] (proving each corruption class
//! is *detected* on a realistic run, with the faulting cell and cycle).

use crate::{run, MachineConfig, SimError};
use w2_lang::ast::{Chan, Dir};
use warp_cell::{
    AddrSource, BlockCode, CellCode, CellMachine, CodeRegion, IoField, MemField, MicroInst,
    Operand, Reg,
};
use warp_host::HostMemory;
use warp_iu::{EmitPlan, EmitSource, IuBlock, IuProgram, IuRegion};

fn empty_host() -> HostMemory {
    HostMemory::default()
}

fn one_block(insts: Vec<MicroInst>) -> CellCode {
    CellCode {
        name: "synthetic".into(),
        pipelined: vec![],
        regions: vec![CodeRegion::Block(BlockCode {
            insts,
            io_events: vec![],
            adr_deadlines: vec![],
            source: None,
        })],
        regs_used: 1,
        scratch_words: 0,
    }
}

fn no_iu() -> IuProgram {
    IuProgram::default()
}

/// An output script that receives `words` words and stores none.
fn discards(words: u64) -> warp_host::HostScript {
    let body = vec![warp_host::HostNode::Word(warp_host::HostWord::Lit(0.0))];
    let nodes = vec![warp_host::HostNode::Loop { count: words, body }];
    warp_host::HostScript::new(nodes).expect("a valid nest")
}

fn cfg<'a>(
    code: &'a CellCode,
    iu: &'a IuProgram,
    host_program: &'a warp_host::HostProgram,
    machine: &'a CellMachine,
) -> MachineConfig<'a> {
    MachineConfig {
        cell_code: code,
        iu,
        host_program,
        machine,
        n_cells: 1,
        skew: 0,
        flow: Dir::Right,
    }
}

#[test]
fn address_underflow_detected() {
    let mut inst = MicroInst::default();
    inst.mem[0] = Some(MemField::Read {
        addr: AddrSource::AdrQueue,
        dst: Some(Reg(0)),
    });
    let code = one_block(vec![inst]);
    let iu = no_iu();
    let hp = warp_host::HostProgram::default();
    let machine = CellMachine::default();
    let err = run(&cfg(&code, &iu, &hp, &machine), empty_host()).unwrap_err();
    assert!(matches!(err, SimError::AddressUnderflow { .. }), "{err}");
}

#[test]
fn late_address_detected() {
    // The IU emits the address at cycle 5; the cell consumes at cycle 0.
    let mut inst = MicroInst::default();
    inst.mem[0] = Some(MemField::Read {
        addr: AddrSource::AdrQueue,
        dst: Some(Reg(0)),
    });
    let code = one_block(vec![inst]);
    let iu = IuProgram {
        name: "late".into(),
        regs_used: 0,
        table: vec![3],
        init: vec![],
        regions: vec![IuRegion::Block(IuBlock {
            len: 6,
            emits: vec![EmitPlan {
                cycle: 5,
                source: EmitSource::Table,
            }],
        })],
    };
    let hp = warp_host::HostProgram::default();
    let machine = CellMachine::default();
    let err = run(&cfg(&code, &iu, &hp, &machine), empty_host()).unwrap_err();
    assert!(
        matches!(err, SimError::AddressLate { available: 5, .. }),
        "{err}"
    );
}

#[test]
fn bad_address_detected() {
    let mut inst = MicroInst::default();
    inst.mem[0] = Some(MemField::Read {
        addr: AddrSource::AdrQueue,
        dst: Some(Reg(0)),
    });
    let code = one_block(vec![inst]);
    let iu = IuProgram {
        name: "oob".into(),
        regs_used: 0,
        table: vec![99999],
        init: vec![],
        regions: vec![IuRegion::Block(IuBlock {
            len: 1,
            emits: vec![EmitPlan {
                cycle: 0,
                source: EmitSource::Table,
            }],
        })],
    };
    let hp = warp_host::HostProgram::default();
    let machine = CellMachine::default();
    let err = run(&cfg(&code, &iu, &hp, &machine), empty_host()).unwrap_err();
    assert!(
        matches!(err, SimError::BadAddress { addr: 99999, .. }),
        "{err}"
    );
}

#[test]
fn wrong_direction_detected() {
    // A send towards the upstream side of a right-flowing array.
    let mut inst = MicroInst::default();
    inst.io[0] = Some(IoField::Send {
        src: Operand::Imm(1.0),
        ext: None,
    }); // io index 0 = (Left, X)
    let code = one_block(vec![inst]);
    let iu = no_iu();
    let hp = warp_host::HostProgram::default();
    let machine = CellMachine::default();
    let err = run(&cfg(&code, &iu, &hp, &machine), empty_host()).unwrap_err();
    assert!(matches!(err, SimError::WrongDirection { .. }), "{err}");
}

#[test]
fn boundary_underflow_detected() {
    // A receive with no host data behind it.
    let mut inst = MicroInst::default();
    inst.io[0] = Some(IoField::Recv {
        dst: Some(Reg(0)),
        ext: None,
    });
    let code = one_block(vec![inst]);
    let iu = no_iu();
    let hp = warp_host::HostProgram::default();
    let machine = CellMachine::default();
    let err = run(&cfg(&code, &iu, &hp, &machine), empty_host()).unwrap_err();
    assert!(
        matches!(
            err,
            SimError::QueueUnderflow {
                cell: 0,
                chan: Chan::X,
                ..
            }
        ),
        "{err}"
    );
}

#[test]
fn output_count_mismatch_detected() {
    // The host program expects one word; the array sends none.
    let code = one_block(vec![MicroInst::default()]);
    let iu = no_iu();
    let mut hp = warp_host::HostProgram::default();
    hp.outputs.insert(Chan::X, discards(1));
    let machine = CellMachine::default();
    let err = run(&cfg(&code, &iu, &hp, &machine), empty_host()).unwrap_err();
    assert!(matches!(err, SimError::OutputCountMismatch { .. }), "{err}");
}

mod fault_plan {
    //! Every [`SimError`] variant provoked on a *compiled* program via
    //! fault injection — the detection half of the guarantee audit.

    use crate::fault::{Fault, FaultPlan};
    use crate::{run_with_options, FaultReport, MachineConfig, RunReport, SimError, SimOptions};
    use w2_lang::ast::Chan;
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

    fn compile(src: &str, n_cells: u32) -> Compiled {
        let hir = parse_and_check(src).expect("front end");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lower");
        let dec = decompose::decompose(&mut ir);
        let machine = CellMachine::default();
        let cell = cell_codegen(&ir, &machine).expect("cell codegen");
        let skew = analyze(
            &cell,
            &ir.loops,
            &SkewOptions {
                n_cells,
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

    fn run_plan(
        c: &Compiled,
        n_cells: u32,
        inputs: &[(&str, Vec<f32>)],
        plan: FaultPlan,
    ) -> Result<RunReport, Box<FaultReport>> {
        let machine = CellMachine::default();
        let mut host = HostMemory::new(&c.ir.vars);
        for (name, data) in inputs {
            host.set(name, data).expect("test input binds");
        }
        run_with_options(
            &MachineConfig {
                cell_code: &c.cell,
                iu: &c.iu,
                host_program: &c.host,
                machine: &machine,
                n_cells,
                skew: c.skew.min_skew,
                flow: c.skew.flow,
            },
            host,
            &SimOptions {
                plan,
                ..SimOptions::default()
            },
        )
    }

    /// Two-cell pipeline, each cell adds 1 (min_skew > 0).
    const ADD_PIPE: &str = "module addpipe (xs in, ys out) float xs[6]; float ys[6]; \
        cellprogram (cid : 0 : 1) begin function f begin float v; int i; \
        for i := 0 to 5 do begin receive (L, X, v, xs[i]); send (R, X, v + 1.0, ys[i]); end; \
        end call f; end";

    /// Single cell buffering through IU-generated addresses.
    const BUF: &str = "module buf (xs in, ys out) float xs[8]; float ys[8]; \
        cellprogram (cid : 0 : 0) begin function f begin float v; float b[8]; int i; \
        for i := 0 to 7 do begin receive (L, X, v, xs[i]); b[i] := v; end; \
        for i := 0 to 7 do begin v := b[7 - i]; send (R, X, v, ys[i]); end; \
        end call f; end";

    fn xs(n: usize) -> (Vec<f32>, Vec<(&'static str, Vec<f32>)>) {
        let data: Vec<f32> = (0..n).map(|i| i as f32 + 0.5).collect();
        (data.clone(), vec![("xs", data)])
    }

    #[test]
    fn skew_jitter_provokes_queue_underflow() {
        let c = compile(ADD_PIPE, 2);
        assert!(c.skew.min_skew > 0);
        let (_, inputs) = xs(6);
        let report = run_plan(&c, 2, &inputs, FaultPlan::new(1).with(Fault::SkewDelta(-1)))
            .expect_err("one cycle less must underflow");
        let SimError::QueueUnderflow { cell, chan, cycle } = report.error else {
            panic::abort_test(&report)
        };
        assert_eq!(cell, 1, "the downstream cell starves");
        assert_eq!(chan, Chan::X);
        assert!(cycle >= (c.skew.min_skew - 1) as u64, "after cell 1 starts");
        assert_eq!(report.injected, vec!["skew jittered by -1 cycle(s)"]);
        assert!(!report.recent_events.is_empty(), "ring buffer captured I/O");
    }

    #[test]
    fn shrunk_queue_provokes_overflow() {
        let c = compile(ADD_PIPE, 2);
        let (_, inputs) = xs(6);
        // Extra skew makes the producer run far ahead of the consumer,
        // so the shrunk queue fills before cell 1 starts draining it.
        let plan = FaultPlan::new(1)
            .with(Fault::QueueCapacity(1))
            .with(Fault::SkewDelta(100));
        let report = run_plan(&c, 2, &inputs, plan)
            .expect_err("a 1-word queue under 100 extra cycles of skew must overflow");
        let SimError::QueueOverflow {
            cell,
            chan,
            capacity,
            cycle,
        } = report.error
        else {
            panic::abort_test(&report)
        };
        assert_eq!(cell, 1);
        assert_eq!(chan, Chan::X);
        assert_eq!(capacity, 1, "the report shows the effective capacity");
        assert!(cycle > 0);
    }

    #[test]
    fn delayed_addresses_miss_their_deadline() {
        let c = compile(BUF, 1);
        assert!(!c.iu.emissions().is_empty(), "program uses the Adr path");
        let (_, inputs) = xs(8);
        let report = run_plan(
            &c,
            1,
            &inputs,
            FaultPlan::new(1).with(Fault::DelayAddresses {
                cell: None,
                cycles: 100_000,
            }),
        )
        .expect_err("delayed addresses must be late");
        let SimError::AddressLate {
            cell,
            cycle,
            available,
        } = report.error
        else {
            panic::abort_test(&report)
        };
        assert_eq!(cell, 0);
        assert!(available > cycle, "availability is after the consumer");
        assert!(available >= 100_000);
    }

    #[test]
    fn dropped_final_address_underflows_the_adr_queue() {
        let c = compile(BUF, 1);
        let n_addrs = c.iu.emissions().len();
        assert!(n_addrs >= 2);
        let (_, inputs) = xs(8);
        let report = run_plan(
            &c,
            1,
            &inputs,
            FaultPlan::new(1).with(Fault::DropAddress {
                cell: None,
                index: n_addrs - 1,
            }),
        )
        .expect_err("one address short must underflow");
        let SimError::AddressUnderflow { cell, cycle } = report.error else {
            panic::abort_test(&report)
        };
        assert_eq!(cell, 0);
        assert!(cycle > 0);
    }

    #[test]
    fn corrupted_address_is_out_of_range() {
        let c = compile(BUF, 1);
        let (_, inputs) = xs(8);
        let bad = CellMachine::default().memory_words;
        let report = run_plan(
            &c,
            1,
            &inputs,
            FaultPlan::new(1).with(Fault::CorruptAddress {
                cell: None,
                index: 0,
                addr: bad,
            }),
        )
        .expect_err("address past memory must be rejected");
        let SimError::BadAddress { cell, addr, .. } = report.error else {
            panic::abort_test(&report)
        };
        assert_eq!(cell, 0);
        assert_eq!(addr, bad as usize);
    }

    #[test]
    fn flipped_flow_is_wrong_direction() {
        let c = compile(ADD_PIPE, 2);
        let (_, inputs) = xs(6);
        let report = run_plan(&c, 2, &inputs, FaultPlan::new(1).with(Fault::FlipFlow))
            .expect_err("every transfer is now against the flow");
        let SimError::WrongDirection { cell, .. } = report.error else {
            panic::abort_test(&report)
        };
        assert_eq!(cell, 0, "the first faulting cell is upstream-most");
    }

    #[test]
    fn dropped_boundary_word_is_an_output_mismatch() {
        let c = compile(BUF, 1);
        let (_, inputs) = xs(8);
        // The single cell sends 8 words on X; drop the last one.
        let report = run_plan(
            &c,
            1,
            &inputs,
            FaultPlan::new(1).with(Fault::DropWord {
                chan: Chan::X,
                index: 7,
            }),
        )
        .expect_err("host expects 8 words, gets 7");
        let SimError::OutputCountMismatch {
            chan,
            expected,
            got,
        } = report.error
        else {
            panic::abort_test(&report)
        };
        assert_eq!(chan, Chan::X);
        assert_eq!((expected, got), (8, 7));
    }

    #[test]
    fn dropped_interior_word_starves_downstream() {
        let c = compile(ADD_PIPE, 2);
        let (_, inputs) = xs(6);
        // Word 0 on X is cell 0's first send into the interior queue.
        let report = run_plan(
            &c,
            2,
            &inputs,
            FaultPlan::new(1).with(Fault::DropWord {
                chan: Chan::X,
                index: 0,
            }),
        )
        .expect_err("the interior queue runs one word short");
        assert!(
            matches!(
                report.error,
                SimError::QueueUnderflow { cell: 1, .. } | SimError::OutputCountMismatch { .. }
            ),
            "{}",
            report.error
        );
    }

    #[test]
    fn truncated_host_input_starves_the_boundary_cell() {
        let c = compile(BUF, 1);
        let (_, inputs) = xs(8);
        let report = run_plan(
            &c,
            1,
            &inputs,
            FaultPlan::new(1).with(Fault::TruncateInput {
                chan: Chan::X,
                keep: 7,
            }),
        )
        .expect_err("the eighth receive has no word behind it");
        let SimError::QueueUnderflow { cell, chan, .. } = report.error else {
            panic::abort_test(&report)
        };
        assert_eq!((cell, chan), (0, Chan::X));
    }

    #[test]
    fn cut_cycle_budget_hangs() {
        let c = compile(BUF, 1);
        let (_, inputs) = xs(8);
        let report = run_plan(
            &c,
            1,
            &inputs,
            FaultPlan::new(1).with(Fault::CycleBudget(3)),
        )
        .expect_err("three cycles are not enough");
        let SimError::Hang { cycle } = report.error else {
            panic::abort_test(&report)
        };
        assert_eq!(cycle, 4, "the guard trips one cycle past the budget");
    }

    #[test]
    fn corrupted_word_runs_clean_but_differs() {
        // Value corruption violates no machine invariant: the run
        // *succeeds*, and only a differential check catches it — which
        // is exactly what the guarantee audit automates.
        let c = compile(BUF, 1);
        let (data, inputs) = xs(8);
        let clean = run_plan(&c, 1, &inputs, FaultPlan::default()).expect("clean run");
        let expect: Vec<f32> = data.iter().rev().copied().collect();
        assert_eq!(clean.host.get("ys").unwrap(), &expect[..]);
        let corrupted = run_plan(
            &c,
            1,
            &inputs,
            FaultPlan::new(7).with(Fault::CorruptWord {
                chan: Chan::X,
                index: 3,
            }),
        )
        .expect("no invariant trips");
        assert_ne!(
            corrupted.host.get("ys").unwrap(),
            clean.host.get("ys").unwrap(),
            "the corruption reached the output"
        );
    }

    #[test]
    fn fault_report_carries_claims_and_high_water() {
        let c = compile(ADD_PIPE, 2);
        let machine = CellMachine::default();
        let mut host = HostMemory::new(&c.ir.vars);
        host.set("xs", &[1.0; 6]).expect("binds");
        let claims = crate::StaticClaims {
            min_skew: c.skew.min_skew,
            queue_occupancy: c.skew.queue_occupancy.clone(),
        };
        let report = run_with_options(
            &MachineConfig {
                cell_code: &c.cell,
                iu: &c.iu,
                host_program: &c.host,
                machine: &machine,
                n_cells: 2,
                skew: c.skew.min_skew,
                flow: c.skew.flow,
            },
            host,
            &SimOptions {
                plan: FaultPlan::new(1).with(Fault::SkewDelta(-1)),
                ring_capacity: 4,
                claims: Some(claims.clone()),
                ..SimOptions::default()
            },
        )
        .expect_err("underflows");
        assert_eq!(report.claims.as_ref(), Some(&claims));
        assert!(report.recent_events.len() <= 4, "ring buffer is bounded");
        assert!(
            !report.claim_exceeded(),
            "a too-small skew starves queues; it does not overfill them"
        );
        let rendered = report.to_string();
        assert!(rendered.contains("claimed min skew"), "{rendered}");
        assert!(rendered.contains("injected faults"), "{rendered}");
    }

    /// Small helper so variant mismatches abort with the full report.
    mod panic {
        use crate::FaultReport;

        pub fn abort_test(report: &FaultReport) -> ! {
            unreachable!("unexpected error variant:\n{report}")
        }
    }
}

#[test]
fn cancelled_token_stops_the_run_at_the_first_poll() {
    use crate::{run_with_options, SimOptions};
    use std::sync::Arc;
    use warp_common::ctrl::{CancelReason, CancelToken, ManualClock};

    let code = one_block(vec![MicroInst::default(); 200]);
    let iu = no_iu();
    let hp = warp_host::HostProgram::default();
    let machine = CellMachine::default();
    let token = CancelToken::new(Arc::new(ManualClock::new(0)));
    token.cancel();
    let opts = SimOptions {
        cancel: token,
        poll_interval: 16,
        ..SimOptions::default()
    };
    let report = run_with_options(&cfg(&code, &iu, &hp, &machine), empty_host(), &opts)
        .expect_err("a cancelled token must interrupt the run");
    let SimError::Interrupted { cycle, reason } = report.error else {
        unreachable!("unexpected error variant: {}", report.error)
    };
    assert_eq!(reason, CancelReason::Cancelled);
    assert!(
        cycle < opts.poll_interval,
        "a pre-set cancel is observed within one poll interval, got cycle {cycle}"
    );
}

#[test]
fn deadline_interrupts_within_one_poll_interval() {
    use crate::{run_with_options, SimOptions};
    use std::sync::Arc;
    use warp_common::ctrl::{CancelReason, CancelToken, ManualClock};

    // Each deadline poll reads the clock once and advances it by one
    // tick, so the run "spends" one tick per poll. With a deadline of
    // 10 ticks, poll k reads tick k and the first failing read is
    // k = 11 — at simulated cycle 11 * poll_interval, exactly one poll
    // interval after the deadline was last satisfied.
    const POLL: u64 = 4;
    const DEADLINE: u64 = 10;
    let code = one_block(vec![MicroInst::default(); 200]);
    let iu = no_iu();
    let hp = warp_host::HostProgram::default();
    let machine = CellMachine::default();
    let clock = Arc::new(ManualClock::with_auto_advance(0, 1));
    let token = CancelToken::with_deadline(clock, DEADLINE);
    let opts = SimOptions {
        cancel: token,
        poll_interval: POLL,
        ..SimOptions::default()
    };
    let report = run_with_options(&cfg(&code, &iu, &hp, &machine), empty_host(), &opts)
        .expect_err("the deadline must interrupt the run");
    let SimError::Interrupted { cycle, reason } = report.error else {
        unreachable!("unexpected error variant: {}", report.error)
    };
    assert!(
        matches!(reason, CancelReason::DeadlineExceeded { deadline: 10, .. }),
        "{reason}"
    );
    assert_eq!(cycle % POLL, 0, "interruptions land on poll boundaries");
    assert_eq!(
        cycle,
        (DEADLINE + 1) * POLL,
        "stopped within one poll interval of the deadline tripping"
    );
}

#[test]
fn writeback_timing_respects_latency() {
    // fadd at cycle 0 writes r0 at cycle 5; a send at cycle 5 sees the
    // new value, a send at cycle 4 would see the old (zero) value.
    use warp_cell::{AluOp, FpuField};
    let add = MicroInst {
        fadd: Some(FpuField {
            op: AluOp::Add,
            dst: Some(Reg(0)),
            srcs: vec![Operand::Imm(2.0), Operand::Imm(3.0)],
        }),
        ..MicroInst::default()
    };
    let mut early = MicroInst::default();
    early.io[2] = Some(IoField::Send {
        src: Operand::Reg(Reg(0)),
        ext: None,
    }); // (Right, X)
    let mut on_time = early.clone();
    let _ = &mut on_time;
    let insts = vec![
        add,
        MicroInst::default(),
        MicroInst::default(),
        MicroInst::default(),
        early.clone(), // cycle 4: old value 0.0
        early,         // cycle 5: new value 5.0
    ];
    let code = one_block(insts);
    let iu = no_iu();
    let mut hp = warp_host::HostProgram::default();
    hp.outputs.insert(Chan::X, discards(2));
    let machine = CellMachine::default();
    // Collect via trace.
    let mut events = Vec::new();
    let report = crate::run_traced(&cfg(&code, &iu, &hp, &machine), empty_host(), &mut events)
        .expect("runs");
    let sends: Vec<f32> = events
        .iter()
        .filter(|e| !e.is_recv)
        .map(|e| e.value)
        .collect();
    assert_eq!(sends, vec![0.0, 5.0]);
    assert_eq!(report.words_out, 2);
}
