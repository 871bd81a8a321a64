//! Horizontal microcode for the Warp cell.
//!
//! A [`MicroInst`] is one wide instruction word: each field steers one
//! functional unit for one cycle, and all fields fire in parallel (the
//! real word is over 200 bits, paper §2.4). The sequencer executes blocks
//! straight-line and loops under IU control.

use std::fmt;
use w2_lang::ast::{Chan, Dir};
use warp_ir::{CmpOp, HostSlot, LoopId};

/// A physical register number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An operand of a functional-unit operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// A register read.
    Reg(Reg),
    /// A float literal from the instruction word.
    Imm(f32),
    /// A boolean literal.
    ImmB(bool),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
            Operand::ImmB(v) => write!(f, "#{v}"),
        }
    }
}

/// Operation selector for the FPU fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Float add.
    Add,
    /// Float subtract.
    Sub,
    /// Float multiply.
    Mul,
    /// Float divide.
    Div,
    /// Float negate.
    Neg,
    /// Float comparison producing a boolean.
    Cmp(CmpOp),
    /// Boolean and.
    And,
    /// Boolean or.
    Or,
    /// Boolean not.
    Not,
    /// `dst = src0 ? src1 : src2`.
    Select,
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "fadd",
            AluOp::Sub => "fsub",
            AluOp::Mul => "fmul",
            AluOp::Div => "fdiv",
            AluOp::Neg => "fneg",
            AluOp::Cmp(CmpOp::Eq) => "fcmp.eq",
            AluOp::Cmp(CmpOp::Ne) => "fcmp.ne",
            AluOp::Cmp(CmpOp::Lt) => "fcmp.lt",
            AluOp::Cmp(CmpOp::Le) => "fcmp.le",
            AluOp::Cmp(CmpOp::Gt) => "fcmp.gt",
            AluOp::Cmp(CmpOp::Ge) => "fcmp.ge",
            AluOp::And => "band",
            AluOp::Or => "bor",
            AluOp::Not => "bnot",
            AluOp::Select => "select",
        };
        write!(f, "{s}")
    }
}

/// One FPU field: the operation, destination, and operands.
#[derive(Clone, Debug, PartialEq)]
pub struct FpuField {
    /// Operation selector.
    pub op: AluOp,
    /// Destination register; `None` discards the result.
    pub dst: Option<Reg>,
    /// Operands (1–3 depending on `op`).
    pub srcs: Vec<Operand>,
}

impl fmt::Display for FpuField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.dst {
            Some(d) => write!(f, "{} {d}", self.op)?,
            None => write!(f, "{} _", self.op)?,
        }
        for s in &self.srcs {
            write!(f, ", {s}")?;
        }
        Ok(())
    }
}

/// Where a memory operation's address comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AddrSource {
    /// Literal address in the instruction word (scalars, spill slots).
    Literal(u16),
    /// The next word from the systolic Adr path FIFO (IU-generated).
    AdrQueue,
}

impl fmt::Display for AddrSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrSource::Literal(a) => write!(f, "@{a}"),
            AddrSource::AdrQueue => write!(f, "@adr"),
        }
    }
}

/// One memory-port field.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MemField {
    /// Read memory into a register.
    Read {
        /// Address source.
        addr: AddrSource,
        /// Destination register; `None` discards (never emitted normally).
        dst: Option<Reg>,
    },
    /// Write an operand to memory.
    Write {
        /// Address source.
        addr: AddrSource,
        /// Value to write.
        src: Operand,
    },
}

impl fmt::Display for MemField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemField::Read { addr, dst: Some(d) } => write!(f, "ld {d}, {addr}"),
            MemField::Read { addr, dst: None } => write!(f, "ld _, {addr}"),
            MemField::Write { addr, src } => write!(f, "st {addr}, {src}"),
        }
    }
}

/// One I/O-port field.
#[derive(Clone, Debug, PartialEq)]
pub enum IoField {
    /// Dequeue from the channel into a register.
    Recv {
        /// Destination register; `None` discards the word (the pop still
        /// happens).
        dst: Option<Reg>,
        /// Host data source, meaningful on the boundary cell only.
        ext: Option<HostSlot>,
    },
    /// Enqueue an operand to the channel.
    Send {
        /// Value to enqueue.
        src: Operand,
        /// Host destination, meaningful on the boundary cell only.
        ext: Option<HostSlot>,
    },
}

impl fmt::Display for IoField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoField::Recv { dst: Some(d), .. } => write!(f, "recv {d}"),
            IoField::Recv { dst: None, .. } => write!(f, "recv _"),
            IoField::Send { src, .. } => write!(f, "send {src}"),
        }
    }
}

/// One horizontal microinstruction: every field executes in the same
/// cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MicroInst {
    /// The add-class FPU field.
    pub fadd: Option<FpuField>,
    /// The multiplier FPU field.
    pub fmul: Option<FpuField>,
    /// The two memory ports.
    pub mem: [Option<MemField>; 2],
    /// The four I/O ports, indexed by [`crate::machine::io_index`].
    pub io: [Option<IoField>; 4],
}

impl MicroInst {
    /// Returns `true` if no field is used (a NOP cycle).
    pub fn is_nop(&self) -> bool {
        self.fadd.is_none()
            && self.fmul.is_none()
            && self.mem.iter().all(Option::is_none)
            && self.io.iter().all(Option::is_none)
    }
}

impl fmt::Display for MicroInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(a) = &self.fadd {
            parts.push(format!("A[{a}]"));
        }
        if let Some(m) = &self.fmul {
            parts.push(format!("M[{m}]"));
        }
        for (i, m) in self.mem.iter().enumerate() {
            if let Some(m) = m {
                parts.push(format!("m{i}[{m}]"));
            }
        }
        const PORT: [&str; 4] = ["LX", "LY", "RX", "RY"];
        for (i, io) in self.io.iter().enumerate() {
            if let Some(io) = io {
                parts.push(format!("{}[{io}]", PORT[i]));
            }
        }
        if parts.is_empty() {
            write!(f, "nop")
        } else {
            write!(f, "{}", parts.join(" "))
        }
    }
}

/// One I/O event of a block's schedule (used by the skew analysis and the
/// host program generator).
#[derive(Clone, Debug, PartialEq)]
pub struct IoEvent {
    /// Issue cycle relative to the block start.
    pub cycle: u32,
    /// Neighbour direction.
    pub dir: Dir,
    /// Channel.
    pub chan: Chan,
    /// `true` for a receive (dequeue), `false` for a send.
    pub is_recv: bool,
    /// Host binding at the array boundary.
    pub ext: Option<HostSlot>,
}

/// The scheduled microcode of one basic block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockCode {
    /// The instructions; index = cycle within the block.
    pub insts: Vec<MicroInst>,
    /// All queue operations, sorted by cycle.
    pub io_events: Vec<IoEvent>,
    /// Issue cycle of each Adr-queue memory operation, in slot order
    /// (these become the IU's deadlines).
    pub adr_deadlines: Vec<u32>,
    /// The IR block this code was compiled from; `None` for blocks the
    /// code generator synthesizes (software-pipelining prologues and
    /// epilogues), which never carry IU address slots.
    pub source: Option<warp_ir::BlockId>,
}

impl BlockCode {
    /// Number of cycles (= instructions) in the block.
    pub fn len(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Returns `true` if the block is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// The structured microprogram of a cell: code regions mirror the IR
/// region tree so the sequencer (and simulator) can loop bodies without
/// unrolling.
#[derive(Clone, Debug, PartialEq)]
pub enum CodeRegion {
    /// Straight-line code.
    Block(BlockCode),
    /// A counted loop; the IU sends the continue/terminate signal at each
    /// iteration boundary (paper §6.3.1).
    Loop {
        /// Which IR loop this is.
        id: LoopId,
        /// Iteration count.
        count: u64,
        /// Loop body.
        body: Vec<CodeRegion>,
    },
}

impl CodeRegion {
    /// Static instruction count (loop bodies counted once) — the "length
    /// of µcode" metric of Table 7-1.
    pub fn static_len(&self) -> u32 {
        match self {
            CodeRegion::Block(b) => b.len(),
            CodeRegion::Loop { body, .. } => body.iter().map(CodeRegion::static_len).sum(),
        }
    }

    /// Total cycles of one execution (loop bodies multiplied by their
    /// counts).
    pub fn dynamic_len(&self) -> u64 {
        match self {
            CodeRegion::Block(b) => u64::from(b.len()),
            CodeRegion::Loop { count, body, .. } => {
                count * body.iter().map(CodeRegion::dynamic_len).sum::<u64>()
            }
        }
    }
}

/// The complete compiled cell program.
#[derive(Clone, Debug, PartialEq)]
pub struct CellCode {
    /// Module name.
    pub name: String,
    /// Top-level code regions, in execution order.
    pub regions: Vec<CodeRegion>,
    /// Registers used (max over blocks).
    pub regs_used: u32,
    /// Scratch memory words reserved for register spills.
    pub scratch_words: u32,
    /// Loops that were modulo-scheduled (see [`crate::modulo`]), in
    /// region order.
    pub pipelined: Vec<PipelineInfo>,
}

/// Summary of one software-pipelined (modulo-scheduled) loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineInfo {
    /// The source loop.
    pub id: LoopId,
    /// Initiation interval: cycles between successive iteration starts.
    pub ii: u32,
    /// Stage count: iterations in flight in the steady state.
    pub stages: u32,
    /// Kernel executions (`count − stages + 1`).
    pub kernel_count: u64,
}

impl CellCode {
    /// Static µcode length — the Table 7-1 "cell µcode" metric.
    pub fn static_len(&self) -> u32 {
        self.regions.iter().map(CodeRegion::static_len).sum()
    }

    /// Cycles of one complete execution on one cell.
    pub fn dynamic_len(&self) -> u64 {
        self.regions.iter().map(CodeRegion::dynamic_len).sum()
    }

    /// A human-readable microcode listing with loop structure.
    pub fn listing(&self) -> String {
        fn region(out: &mut String, r: &CodeRegion, indent: usize) {
            let pad = "  ".repeat(indent);
            match r {
                CodeRegion::Block(b) => {
                    for (cycle, inst) in b.insts.iter().enumerate() {
                        out.push_str(&format!(
                            "{pad}{cycle:>4}: {inst}
"
                        ));
                    }
                }
                CodeRegion::Loop { id, count, body } => {
                    out.push_str(&format!(
                        "{pad}loop {id} x{count} {{
"
                    ));
                    for r in body {
                        region(out, r, indent + 1);
                    }
                    out.push_str(&format!(
                        "{pad}}}
"
                    ));
                }
            }
        }
        let mut out = format!(
            "; cell program `{}`: {} instructions, {} registers, {} spill words
",
            self.name,
            self.static_len(),
            self.regs_used,
            self.scratch_words
        );
        for p in &self.pipelined {
            out.push_str(&format!(
                "; pipelined {}: ii={} stages={} kernel x{}
",
                p.id, p.ii, p.stages, p.kernel_count
            ));
        }
        for r in &self.regions {
            region(&mut out, r, 0);
        }
        out
    }
}

impl warp_common::Artifact for CellCode {
    fn kind(&self) -> &'static str {
        "cell-ucode"
    }

    fn dump(&self) -> String {
        self.listing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_detection_and_display() {
        let mut inst = MicroInst::default();
        assert!(inst.is_nop());
        assert_eq!(inst.to_string(), "nop");
        inst.fadd = Some(FpuField {
            op: AluOp::Add,
            dst: Some(Reg(3)),
            srcs: vec![Operand::Reg(Reg(1)), Operand::Imm(2.0)],
        });
        assert!(!inst.is_nop());
        assert_eq!(inst.to_string(), "A[fadd r3, r1, #2]");
    }

    #[test]
    fn mem_io_display() {
        let mut inst = MicroInst::default();
        inst.mem[0] = Some(MemField::Read {
            addr: AddrSource::AdrQueue,
            dst: Some(Reg(5)),
        });
        inst.io[2] = Some(IoField::Send {
            src: Operand::Reg(Reg(5)),
            ext: None,
        });
        assert_eq!(inst.to_string(), "m0[ld r5, @adr] RX[send r5]");
    }

    #[test]
    fn region_lengths() {
        let block = |n: usize| {
            CodeRegion::Block(BlockCode {
                insts: vec![MicroInst::default(); n],
                io_events: vec![],
                adr_deadlines: vec![],
                source: None,
            })
        };
        let r = CodeRegion::Loop {
            id: LoopId(0),
            count: 10,
            body: vec![block(3), block(2)],
        };
        assert_eq!(r.static_len(), 5);
        assert_eq!(r.dynamic_len(), 50);
        let code = CellCode {
            name: "t".into(),
            regions: vec![block(4), r],
            regs_used: 2,
            scratch_words: 0,
            pipelined: vec![],
        };
        assert_eq!(code.static_len(), 9);
        assert_eq!(code.dynamic_len(), 54);
    }
}
