//! Cell code generation: schedule, allocate registers, emit microcode.
//!
//! Per basic block this runs the loop
//!
//! ```text
//! schedule → allocate registers → (on pressure) spill a value → repeat
//! ```
//!
//! Spilled values get scratch words in cell data memory, addressed through
//! the instruction's literal field, so spills never involve the IU.

use crate::machine::{io_index, CellMachine, Unit};
use crate::mcode::{
    AddrSource, AluOp, BlockCode, CellCode, CodeRegion, FpuField, IoEvent, IoField, MemField,
    MicroInst, Operand, Reg,
};
use crate::regalloc::{allocate_excluding, Allocation, SpillNeeded};
use crate::sched::{schedule, BlockFacts, BlockSchedule};
use w2_lang::hir::VarId;
use warp_common::idvec::Id as _;
use warp_common::{Diagnostic, DiagnosticBag, IdVec};
use warp_ir::{Affine, Block, BlockId, CellIr, HostSlot, Node, NodeId, NodeKind, Region};

/// Synthetic variable id for register-spill scratch words.
pub const SCRATCH_VAR: VarId = VarId(u32::MAX);

/// Options for cell code generation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellCodegenOptions {
    /// Modulo-schedule eligible innermost loops (see [`crate::modulo`]).
    pub software_pipeline: bool,
}

/// Maximum spill-and-reschedule iterations per block.
const MAX_SPILL_ROUNDS: usize = 128;

/// Generates the cell microprogram for a decomposed module.
///
/// # Errors
///
/// Reports a diagnostic if register pressure cannot be resolved by
/// spilling or if spill scratch space overflows cell memory.
pub fn codegen(ir: &CellIr, machine: &CellMachine) -> Result<CellCode, DiagnosticBag> {
    codegen_with(ir, machine, &CellCodegenOptions::default())
}

/// Like [`codegen`], with explicit options.
///
/// # Errors
///
/// Same as [`codegen`].
pub fn codegen_with(
    ir: &CellIr,
    machine: &CellMachine,
    options: &CellCodegenOptions,
) -> Result<CellCode, DiagnosticBag> {
    let mut asm = Assembler {
        ir,
        machine,
        options,
        scratch_base: ir.layout.words_used(),
        scratch_words: 0,
        regs_used: 0,
        pipelined: Vec::new(),
        diags: DiagnosticBag::new(),
    };
    let regions = asm.assemble(&ir.root);
    if asm.scratch_base + asm.scratch_words > machine.memory_words {
        asm.diags.push(Diagnostic::error_global(format!(
            "cell memory overflow: {} data + {} spill words exceed {}",
            asm.scratch_base, asm.scratch_words, machine.memory_words
        )));
    }
    if asm.diags.has_errors() {
        return Err(asm.diags);
    }
    Ok(CellCode {
        name: ir.name.clone(),
        regions,
        regs_used: asm.regs_used,
        scratch_words: asm.scratch_words,
        pipelined: asm.pipelined,
    })
}

/// Walks the region tree, compiling each block where it is placed, so
/// the register and spill-word totals count exactly the code that ends
/// up in the program.
struct Assembler<'a> {
    ir: &'a CellIr,
    machine: &'a CellMachine,
    options: &'a CellCodegenOptions,
    scratch_base: u32,
    scratch_words: u32,
    regs_used: u32,
    pipelined: Vec<crate::mcode::PipelineInfo>,
    diags: DiagnosticBag,
}

impl Assembler<'_> {
    fn assemble(&mut self, region: &Region) -> Vec<CodeRegion> {
        match region {
            Region::Block(bid) => {
                let facts = BlockFacts::new(&self.ir.blocks[*bid], self.machine);
                vec![CodeRegion::Block(self.block(*bid, &facts))]
            }
            Region::Loop { id, body } => {
                let count = self.ir.loops[*id].count;
                let body = match &**body {
                    Region::Block(bid) if self.options.software_pipeline => {
                        let facts = BlockFacts::new(&self.ir.blocks[*bid], self.machine);
                        let (scratch_words, regs_used) = (self.scratch_words, self.regs_used);
                        let code = self.block(*bid, &facts);
                        if let Some(p) = crate::modulo::try_pipeline(
                            &facts,
                            count,
                            *id,
                            self.ir.loops[*id].lo,
                            code.len(),
                        ) {
                            // The list-scheduled body is thrown away:
                            // its registers and spill words leave the
                            // totals with it.
                            self.scratch_words = scratch_words;
                            self.regs_used = regs_used.max(p.regs_used);
                            self.pipelined.push(crate::mcode::PipelineInfo {
                                id: *id,
                                ii: p.ii,
                                stages: p.stages,
                                kernel_count: p.kernel_count,
                            });
                            return vec![
                                CodeRegion::Block(p.prologue),
                                CodeRegion::Loop {
                                    id: *id,
                                    count: p.kernel_count,
                                    body: vec![CodeRegion::Block(p.kernel)],
                                },
                                CodeRegion::Block(p.epilogue),
                            ];
                        }
                        vec![CodeRegion::Block(code)]
                    }
                    body => self.assemble(body),
                };
                vec![CodeRegion::Loop {
                    id: *id,
                    count,
                    body,
                }]
            }
            Region::Seq(rs) => rs.iter().flat_map(|r| self.assemble(r)).collect(),
        }
    }

    /// The list-scheduled code of block `bid`; a block that cannot be
    /// compiled is reported and stands in as empty code.
    fn block(&mut self, bid: BlockId, facts: &BlockFacts<'_>) -> BlockCode {
        let mut code = match compile_block(facts, self.scratch_base, &mut self.scratch_words) {
            Ok((code, regs)) => {
                self.regs_used = self.regs_used.max(regs);
                code
            }
            Err(msg) => {
                self.diags
                    .push(Diagnostic::error_global(format!("block {bid}: {msg}")));
                BlockCode::default()
            }
        };
        code.source = Some(bid);
        code
    }
}

/// Compiles one block, starting from the `facts` of the block as
/// written; the DAG is copied (and analysed again) only once a spill
/// rewrites it.
fn compile_block(
    facts: &BlockFacts<'_>,
    scratch_base: u32,
    scratch_words: &mut u32,
) -> Result<(BlockCode, u32), String> {
    let machine = facts.machine;
    let mut rewritten: Option<Block> = None;
    // Victims are always values of the block as written: a spill adds
    // only scratch stores and reloads, and neither is ever chosen.
    let mut spilled = vec![false; facts.block.nodes.len()];
    for _ in 0..MAX_SPILL_ROUNDS {
        let victim = {
            let again = rewritten.as_ref().map(|b| BlockFacts::new(b, machine));
            let facts = again.as_ref().unwrap_or(facts);
            let sched = schedule(facts);
            debug_assert!(
                crate::sched::validate(facts, &sched).is_ok(),
                "scheduler produced an illegal schedule: {:?}",
                crate::sched::validate(facts, &sched)
            );
            match allocate_excluding(facts, &sched, machine.registers, &spilled) {
                Ok(alloc) => return Ok((emit(facts, &sched, &alloc)?, alloc.regs_used)),
                Err(SpillNeeded { victim: None }) => {
                    return Err(format!(
                        "register file of {} registers is too small for this block even with spilling",
                        machine.registers
                    ));
                }
                Err(SpillNeeded {
                    victim: Some(victim),
                }) => victim,
            }
        };
        let addr = i64::from(scratch_base + *scratch_words);
        *scratch_words += 1;
        spilled[victim.index()] = true;
        let block = rewritten.get_or_insert_with(|| facts.block.clone());
        spill(block, victim, addr);
    }
    Err("register allocation did not converge after spilling".to_owned())
}

/// Rewrites the DAG so `victim`'s value round-trips through memory: a
/// store after the definition and one reload per consumer.
fn spill(block: &mut Block, victim: NodeId, addr: i64) {
    let store = block.nodes.push(Node {
        kind: NodeKind::Store {
            var: SCRATCH_VAR,
            addr: Affine::constant(addr),
        },
        inputs: vec![victim],
        deps: vec![],
    });
    let user_ids: Vec<NodeId> = block
        .nodes
        .ids()
        .filter(|&n| {
            n != store
                && block.nodes[n].inputs.contains(&victim)
                // Keep earlier spill stores reading the original value;
                // re-routing them through reloads would be circular.
                && !matches!(block.nodes[n].kind, NodeKind::Store { var, .. } if var == SCRATCH_VAR)
        })
        .collect();
    for user in user_ids {
        let reload = block.nodes.push(Node {
            kind: NodeKind::Load {
                var: SCRATCH_VAR,
                addr: Affine::constant(addr),
            },
            inputs: vec![],
            deps: vec![store],
        });
        for input in &mut block.nodes[user].inputs {
            if *input == victim {
                *input = reload;
            }
        }
    }
}

fn emit(
    facts: &BlockFacts<'_>,
    sched: &BlockSchedule,
    alloc: &Allocation,
) -> Result<BlockCode, String> {
    let mut ops: Vec<(u32, NodeId)> = facts
        .live
        .iter()
        .filter(|&&n| facts.unit[n] != Unit::None)
        .map(|&n| (sched.at(n), n))
        .collect();
    ops.sort_unstable();
    let mut code = BlockBuilder::new(sched.len);
    for (t, n) in ops {
        code.place(t, facts.block, n, &alloc.assignment, Clone::clone)?;
    }
    Ok(code.finish())
}

/// A block of microcode under construction: the one place a
/// [`NodeKind`] becomes an instruction field. The list path places each
/// op of a block once; the modulo path places one instance per
/// iteration in flight into its prologue, kernel and epilogue.
pub(crate) struct BlockBuilder {
    insts: Vec<MicroInst>,
    io_events: Vec<IoEvent>,
    /// Adr-queue memory operations as `(node, issue cycle)`.
    adr: Vec<(NodeId, u32)>,
}

impl BlockBuilder {
    pub(crate) fn new(len: u32) -> BlockBuilder {
        BlockBuilder {
            insts: vec![MicroInst::default(); len as usize],
            io_events: Vec::new(),
            adr: Vec::new(),
        }
    }

    /// Emits op `n` of `block` into the instruction word at `cycle`,
    /// reading operand and destination registers from `regs`; `ext`
    /// maps an I/O node's host slot to the one this instance carries.
    /// Ops sharing a cycle fill memory port `m0` before `m1` in
    /// placement order, so that order is part of the output.
    ///
    /// # Errors
    ///
    /// A literal address that does not fit its field, or an operand
    /// that was never given a register.
    pub(crate) fn place(
        &mut self,
        cycle: u32,
        block: &Block,
        n: NodeId,
        regs: &IdVec<NodeId, Option<Reg>>,
        ext: impl Fn(&Option<HostSlot>) -> Option<HostSlot>,
    ) -> Result<(), String> {
        let node = &block.nodes[n];
        let operand = |p: NodeId| match block.nodes[p].kind {
            NodeKind::ConstF(v) => Ok(Operand::Imm(v)),
            NodeKind::ConstB(v) => Ok(Operand::ImmB(v)),
            _ => regs[p].map(Operand::Reg).ok_or_else(|| {
                format!("node {p:?} is consumed but was never allocated a register")
            }),
        };
        let dst = regs[n];
        let fpu = |field: &mut Option<FpuField>, op: AluOp| {
            debug_assert!(field.is_none(), "FPU double-booked");
            let srcs = node
                .inputs
                .iter()
                .map(|&p| operand(p))
                .collect::<Result<_, _>>()?;
            *field = Some(FpuField { op, dst, srcs });
            Ok::<(), String>(())
        };
        let inst = &mut self.insts[cycle as usize];
        match &node.kind {
            // Literals ride in their consumers' operand fields.
            NodeKind::ConstF(_) | NodeKind::ConstB(_) => {}
            NodeKind::FAdd => fpu(&mut inst.fadd, AluOp::Add)?,
            NodeKind::FSub => fpu(&mut inst.fadd, AluOp::Sub)?,
            NodeKind::FCmp(c) => fpu(&mut inst.fadd, AluOp::Cmp(*c))?,
            NodeKind::BAnd => fpu(&mut inst.fadd, AluOp::And)?,
            NodeKind::BOr => fpu(&mut inst.fadd, AluOp::Or)?,
            NodeKind::BNot => fpu(&mut inst.fadd, AluOp::Not)?,
            NodeKind::Select => fpu(&mut inst.fadd, AluOp::Select)?,
            NodeKind::FMul => fpu(&mut inst.fmul, AluOp::Mul)?,
            NodeKind::FDiv => fpu(&mut inst.fmul, AluOp::Div)?,
            NodeKind::FNeg => fpu(&mut inst.fmul, AluOp::Neg)?,
            NodeKind::Load { addr, .. } | NodeKind::Store { addr, .. } => {
                let addr = addr_source(addr)?;
                if addr == AddrSource::AdrQueue {
                    self.adr.push((n, cycle));
                }
                *free_mem_slot(inst) = Some(match node.kind {
                    NodeKind::Load { .. } => MemField::Read { addr, dst },
                    _ => MemField::Write {
                        addr,
                        src: operand(node.inputs[0])?,
                    },
                });
            }
            NodeKind::Recv {
                dir,
                chan,
                ext: slot,
            }
            | NodeKind::Send {
                dir,
                chan,
                ext: slot,
            } => {
                let is_recv = matches!(node.kind, NodeKind::Recv { .. });
                let ext = ext(slot);
                let port = &mut inst.io[io_index(*dir, *chan)];
                debug_assert!(port.is_none(), "I/O port double-booked");
                *port = Some(if is_recv {
                    IoField::Recv {
                        dst,
                        ext: ext.clone(),
                    }
                } else {
                    IoField::Send {
                        src: operand(node.inputs[0])?,
                        ext: ext.clone(),
                    }
                });
                self.io_events.push(IoEvent {
                    cycle,
                    dir: *dir,
                    chan: *chan,
                    is_recv,
                    ext,
                });
            }
        }
        Ok(())
    }

    pub(crate) fn finish(mut self) -> BlockCode {
        self.io_events.sort_by_key(|e| e.cycle);
        self.adr.sort_by_key(|&(n, _)| n);
        BlockCode {
            insts: self.insts,
            io_events: self.io_events,
            adr_deadlines: self.adr.into_iter().map(|(_, t)| t).collect(),
            source: None,
        }
    }
}

fn addr_source(addr: &Affine) -> Result<AddrSource, String> {
    if addr.is_constant() {
        u16::try_from(addr.constant)
            .map(AddrSource::Literal)
            .map_err(|_| {
                format!(
                    "memory address {} does not fit the 16-bit literal field",
                    addr.constant
                )
            })
    } else {
        Ok(AddrSource::AdrQueue)
    }
}

fn free_mem_slot(inst: &mut MicroInst) -> &mut Option<MemField> {
    if inst.mem[0].is_none() {
        &mut inst.mem[0]
    } else {
        debug_assert!(inst.mem[1].is_none(), "memory ports double-booked");
        &mut inst.mem[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::parse_and_check;
    use warp_ir::{decompose, lower, LowerOptions};

    fn compile(body: &str) -> CellCode {
        let src = format!(
            "module m (zs in, rs out) float zs[64]; float rs[64]; \
             cellprogram (cid : 0 : 1) begin function f begin \
             float x, y; float arr[16]; int i; {body} end call f; end"
        );
        let hir = parse_and_check(&src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        decompose::decompose(&mut ir);
        codegen(&ir, &CellMachine::default()).expect("codegen")
    }

    #[test]
    fn straight_line_block() -> Result<(), String> {
        let code = compile("receive (L, X, x, zs[0]); send (R, X, x + 1.0, rs[0]);");
        assert_eq!(code.regions.len(), 1);
        let CodeRegion::Block(b) = &code.regions[0] else {
            return Err(format!("expected block, got {:?}", code.regions[0]));
        };
        // recv at 0, add at 1, send at 6 (fp latency 5), store x...
        assert!(b.len() >= 7);
        assert_eq!(b.io_events.len(), 2);
        assert!(b.io_events[0].is_recv);
        assert!(!b.io_events[1].is_recv);
        assert!(b.io_events[1].cycle >= b.io_events[0].cycle + 1 + 5);
        Ok(())
    }

    #[test]
    fn loop_region_structure() -> Result<(), String> {
        let code = compile(
            "for i := 0 to 15 do begin receive (L, X, x, zs[i]); send (R, X, x, rs[i]); end;",
        );
        assert_eq!(code.regions.len(), 1);
        let CodeRegion::Loop { count, body, .. } = &code.regions[0] else {
            return Err(format!("expected loop, got {:?}", code.regions[0]));
        };
        assert_eq!(*count, 16);
        assert_eq!(body.len(), 1);
        Ok(())
    }

    #[test]
    fn adr_deadlines_recorded() -> Result<(), String> {
        let code = compile("for i := 0 to 15 do begin receive (L, X, x, zs[i]); arr[i] := x; end;");
        let CodeRegion::Loop { body, .. } = &code.regions[0] else {
            return Err(format!("expected loop, got {:?}", code.regions[0]));
        };
        let CodeRegion::Block(b) = &body[0] else {
            return Err(format!("expected block, got {:?}", body[0]));
        };
        assert_eq!(b.adr_deadlines.len(), 1);
        // The store issues after the recv's value is ready.
        assert!(b.adr_deadlines[0] >= 1);
        Ok(())
    }

    #[test]
    fn spilling_under_tiny_register_file() {
        // b and c must wait behind the long multiply chain on the ordered
        // RX channel, so three values are live at once; with two
        // registers one of them must spill to scratch memory.
        let src = "module m (zs in, rs out) float zs[64]; float rs[64] ; \
             cellprogram (cid : 0 : 0) begin function f begin \
             float x, y, b, c; \
             receive (L, X, x, zs[0]); receive (L, X, b, zs[1]); receive (L, X, c, zs[2]); \
             y := ((x*x)*x)*x; \
             send (R, X, y*y, rs[0]); \
             send (R, X, b, rs[1]); send (R, X, c, rs[2]); end call f; end";
        let hir = parse_and_check(src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        decompose::decompose(&mut ir);
        let tiny = CellMachine {
            registers: 2,
            ..CellMachine::default()
        };
        let code = codegen(&ir, &tiny).expect("codegen with spills");
        assert!(code.scratch_words > 0, "spills happened");
        assert!(code.regs_used <= 2);
        let full = codegen(&ir, &CellMachine::default()).expect("codegen");
        assert_eq!(full.scratch_words, 0);
        // Spilled code is no shorter.
        assert!(code.static_len() >= full.static_len());
    }

    #[test]
    fn infeasible_register_file_reports_error() {
        // A binary operation needs both register operands live at issue:
        // one register can never work, and the compiler must say so
        // rather than loop.
        let src = "module m (zs in, rs out) float zs[4]; float rs[4]; \
             cellprogram (cid : 0 : 0) begin function f begin \
             float a, b; receive (L, X, a, zs[0]); receive (L, X, b, zs[1]); \
             send (R, X, a + b, rs[0]); end call f; end";
        let hir = parse_and_check(src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        decompose::decompose(&mut ir);
        let one = CellMachine {
            registers: 1,
            ..CellMachine::default()
        };
        let err = codegen(&ir, &one).expect_err("cannot fit one register");
        assert!(err.to_string().contains("too small"), "{err}");
    }

    #[test]
    fn registers_bounded() {
        let code = compile(
            "receive (L, X, x, zs[0]); y := x * x + x; \
             send (R, X, y * y + x, rs[0]);",
        );
        assert!(code.regs_used <= 64);
        assert!(code.regs_used >= 1);
    }

    #[test]
    fn unused_recv_pops_without_register() -> Result<(), String> {
        // temp is received and immediately re-sent; the final extra
        // receive's value is discarded but the pop must still exist.
        let code = compile("receive (L, X, x, zs[0]);");
        let CodeRegion::Block(b) = &code.regions[0] else {
            return Err(format!("expected block, got {:?}", code.regions[0]));
        };
        let has_recv = b.insts.iter().any(|i| {
            i.io.iter()
                .flatten()
                .any(|f| matches!(f, IoField::Recv { .. }))
        });
        assert!(has_recv);
        Ok(())
    }
}
