//! Pre-decoded microcode: the cell program flattened once per run.
//!
//! [`Program::decode`] walks the [`CellCode`] region tree once — cost
//! proportional to the *static* µcode length — and produces
//!
//! * a flat table of [`Op`]s, one per *used* field of each
//!   microinstruction, in the order the machine commits them (add FPU,
//!   multiplier, the two memory ports, the four I/O ports), with
//!   operands resolved to register-file indices and latencies resolved
//!   to writeback delays;
//! * the linear [`Seq`] program the [`Sequencer`] runs to yield one
//!   word per cycle: runs of consecutive words and explicit loop
//!   counters instead of a tree walk.
//!
//! Immediates live in extra registers behind the allocator's, so an
//! operand read is one indexed load whatever its kind; results nobody
//! wants are written to a sink register nobody reads.

use w2_lang::ast::{Chan, Dir};
use warp_cell::{
    AddrSource, AluOp, CellCode, CellMachine, CodeRegion, FpuField, IoField, MemField, MicroInst,
    Operand,
};
use warp_ir::CmpOp;

/// Index of a channel in per-channel arrays.
pub(crate) fn chan_idx(c: Chan) -> usize {
    match c {
        Chan::X => 0,
        Chan::Y => 1,
    }
}

/// The channel at a per-channel array index.
pub(crate) fn chan_of(ci: usize) -> Chan {
    if ci == 0 {
        Chan::X
    } else {
        Chan::Y
    }
}

/// One used field of a microinstruction, ready to execute. Every FPU
/// operation (each comparison included) is a variant of its own, so
/// executing an op is one dispatch, not one per enum level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Op {
    Add(Fpu),
    Sub(Fpu),
    Mul(Fpu),
    Div(Fpu),
    Neg(Fpu),
    Eq(Fpu),
    Ne(Fpu),
    Lt(Fpu),
    Le(Fpu),
    Gt(Fpu),
    Ge(Fpu),
    And(Fpu),
    Or(Fpu),
    Not(Fpu),
    /// `dst = srcs[0] ? srcs[1] : srcs[2]`.
    Select(Fpu),
    /// A memory read into a register.
    Read {
        addr: AddrSource,
        dst: u32,
        delay: u32,
    },
    /// A memory write from a register.
    Write {
        addr: AddrSource,
        src: u32,
    },
    /// A send with the data flow.
    Send {
        chan: usize,
        src: u32,
    },
    /// A receive against the data flow.
    Recv {
        chan: usize,
        dst: u32,
        delay: u32,
    },
    /// A send against, or a receive with, the data flow.
    WrongDirection,
}

/// The registers and timing of an FPU op. Registers index the cell's
/// register file (constants included; unused operands name the sink);
/// `delay` is how many cycles later the result lands — at least one,
/// since a value written this cycle is visible from the next.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Fpu {
    pub srcs: [u32; 3],
    pub dst: u32,
    pub delay: u32,
}

/// One step of the sequencer's control program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seq {
    /// Issue words `start..end`, one per cycle.
    Run { start: u32, end: u32 },
    /// Enter a loop of `count >= 1` iterations whose counter is
    /// `depth` (its nesting level).
    Enter { count: u64, depth: u32 },
    /// End of a loop body: count one iteration off and go back to
    /// `head` while any remain.
    Next { head: u32, depth: u32 },
    /// End of the program.
    Halt,
}

/// The decoded cell program.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    ops: Vec<Op>,
    /// Word `w` owns `ops[word_ops[w]..word_ops[w + 1]]`.
    word_ops: Vec<u32>,
    seq: Vec<Seq>,
    /// Deepest loop nesting (counters each sequencer needs).
    depth: u32,
    /// Initial register file: the allocator's registers and the sink
    /// zeroed, then the constants.
    pub regs: Vec<f32>,
    /// The largest writeback delay of any op.
    pub max_delay: u32,
    /// Words one cell sends per channel over a whole run (saturating)
    /// — no interior queue can ever hold more.
    pub sends: [u64; 2],
}

impl Program {
    /// Decodes `code` for a machine whose data flows toward `flow`.
    ///
    /// # Panics
    ///
    /// Panics if a field names a register the machine does not have —
    /// a code-generator bug, not a data condition.
    pub fn decode(code: &CellCode, machine: &CellMachine, flow: Dir) -> Program {
        let mut d = Decoder {
            machine,
            flow,
            sink: machine.registers,
            program: Program {
                ops: Vec::new(),
                word_ops: vec![0],
                seq: Vec::new(),
                depth: 0,
                regs: vec![0.0; machine.registers as usize + 1],
                max_delay: 1,
                sends: [0, 0],
            },
        };
        d.regions(&code.regions, 1, 0);
        d.program.seq.push(Seq::Halt);
        d.program
    }

    /// The ops of word `w`, in commit order.
    pub fn word(&self, w: usize) -> &[Op] {
        &self.ops[self.word_ops[w] as usize..self.word_ops[w + 1] as usize]
    }
}

struct Decoder<'a> {
    machine: &'a CellMachine,
    flow: Dir,
    /// Register index that swallows discarded results; the constants
    /// (distinct bit patterns) follow it in `program.regs`.
    sink: u32,
    program: Program,
}

impl Decoder<'_> {
    /// Appends `regions`, executed `mult` times in total, at loop
    /// nesting `depth`.
    fn regions(&mut self, regions: &[CodeRegion], mult: u64, depth: u32) {
        for region in regions {
            match region {
                CodeRegion::Block(b) => {
                    let start = self.words();
                    for inst in &b.insts {
                        self.word(inst, mult);
                    }
                    let end = self.words();
                    match self.program.seq.last_mut() {
                        Some(Seq::Run { end: prev, .. }) if *prev == start => *prev = end,
                        _ if start < end => self.program.seq.push(Seq::Run { start, end }),
                        _ => {}
                    }
                }
                CodeRegion::Loop { count, body, .. } => {
                    if *count == 0 {
                        continue;
                    }
                    let (seq_len, words) = (self.program.seq.len(), self.words());
                    self.program.seq.push(Seq::Enter {
                        count: *count,
                        depth,
                    });
                    let head = self.program.seq.len() as u32;
                    self.regions(body, mult.saturating_mul(*count), depth + 1);
                    if self.words() == words {
                        // A body with no words takes no cycles.
                        self.program.seq.truncate(seq_len);
                    } else {
                        self.program.seq.push(Seq::Next { head, depth });
                        self.program.depth = self.program.depth.max(depth + 1);
                    }
                }
            }
        }
    }

    fn words(&self) -> u32 {
        self.program.word_ops.len() as u32 - 1
    }

    fn word(&mut self, inst: &MicroInst, mult: u64) {
        for f in [&inst.fadd, &inst.fmul].into_iter().flatten() {
            let op = self.fpu(f);
            self.program.ops.push(op);
        }
        for m in inst.mem.iter().flatten() {
            let op = match *m {
                MemField::Read { addr, dst } => Op::Read {
                    addr,
                    dst: dst.map_or(self.sink, |r| self.reg(r.0)),
                    delay: self.delay(self.machine.mem_latency),
                },
                MemField::Write { addr, src } => Op::Write {
                    addr,
                    src: self.operand(src),
                },
            };
            self.program.ops.push(op);
        }
        for (field, (dir, chan)) in inst.io.iter().zip(PORTS) {
            let Some(field) = field else { continue };
            let chan = chan_idx(chan);
            let op = match field {
                IoField::Send { src, .. } if dir == self.flow => {
                    let sends = &mut self.program.sends[chan];
                    *sends = sends.saturating_add(mult);
                    Op::Send {
                        chan,
                        src: self.operand(*src),
                    }
                }
                IoField::Recv { dst, .. } if dir != self.flow => Op::Recv {
                    chan,
                    dst: dst.map_or(self.sink, |r| self.reg(r.0)),
                    delay: self.delay(self.machine.io_latency),
                },
                _ => Op::WrongDirection,
            };
            self.program.ops.push(op);
        }
        self.program.word_ops.push(self.program.ops.len() as u32);
    }

    fn fpu(&mut self, f: &FpuField) -> Op {
        let arity = match f.op {
            AluOp::Neg | AluOp::Not => 1,
            AluOp::Select => 3,
            _ => 2,
        };
        let mut srcs = [self.sink; 3];
        for (slot, src) in srcs.iter_mut().zip(&f.srcs[..arity]) {
            *slot = self.operand(*src);
        }
        let latency = match f.op {
            AluOp::Div => self.machine.div_latency,
            _ => self.machine.fp_latency,
        };
        let fpu = Fpu {
            srcs,
            dst: f.dst.map_or(self.sink, |r| self.reg(r.0)),
            delay: self.delay(latency),
        };
        match f.op {
            AluOp::Add => Op::Add(fpu),
            AluOp::Sub => Op::Sub(fpu),
            AluOp::Mul => Op::Mul(fpu),
            AluOp::Div => Op::Div(fpu),
            AluOp::Neg => Op::Neg(fpu),
            AluOp::Cmp(CmpOp::Eq) => Op::Eq(fpu),
            AluOp::Cmp(CmpOp::Ne) => Op::Ne(fpu),
            AluOp::Cmp(CmpOp::Lt) => Op::Lt(fpu),
            AluOp::Cmp(CmpOp::Le) => Op::Le(fpu),
            AluOp::Cmp(CmpOp::Gt) => Op::Gt(fpu),
            AluOp::Cmp(CmpOp::Ge) => Op::Ge(fpu),
            AluOp::And => Op::And(fpu),
            AluOp::Or => Op::Or(fpu),
            AluOp::Not => Op::Not(fpu),
            AluOp::Select => Op::Select(fpu),
        }
    }

    fn delay(&mut self, latency: u32) -> u32 {
        let delay = latency.max(1);
        self.program.max_delay = self.program.max_delay.max(delay);
        delay
    }

    fn reg(&self, r: u16) -> u32 {
        assert!(
            u32::from(r) < self.machine.registers,
            "microcode names register r{r}, the machine has {}",
            self.machine.registers
        );
        u32::from(r)
    }

    fn operand(&mut self, op: Operand) -> u32 {
        let bits = match op {
            Operand::Reg(r) => return self.reg(r.0),
            Operand::Imm(v) => v.to_bits(),
            Operand::ImmB(b) => f32::from(u8::from(b)).to_bits(),
        };
        let regs = &mut self.program.regs;
        let first = self.sink as usize + 1;
        let at = regs[first..].iter().position(|c| c.to_bits() == bits);
        let k = at.unwrap_or_else(|| {
            regs.push(f32::from_bits(bits));
            regs.len() - first - 1
        });
        (first + k) as u32
    }
}

/// The I/O ports in `MicroInst::io` order (see `warp_cell::io_index`).
const PORTS: [(Dir, Chan); 4] = [
    (Dir::Left, Chan::X),
    (Dir::Left, Chan::Y),
    (Dir::Right, Chan::X),
    (Dir::Right, Chan::Y),
];

/// A cell's microprogram sequencer: yields the word to issue each
/// cycle, driving counted loops the way the cell's sequencer does
/// under IU loop signals.
#[derive(Clone, Debug)]
pub(crate) struct Sequencer {
    /// Next word of the current run, and the run's end.
    pc: u32,
    end: u32,
    /// Next control step.
    at: usize,
    /// Iterations left, per loop nesting level.
    counters: Vec<u64>,
}

impl Sequencer {
    /// Starts at the beginning of `program`.
    pub fn new(program: &Program) -> Sequencer {
        Sequencer {
            pc: 0,
            end: 0,
            at: 0,
            counters: vec![0; program.depth as usize],
        }
    }

    /// Advances one cycle: the word to issue, or `None` once the
    /// program has finished.
    pub fn step(&mut self, program: &Program) -> Option<usize> {
        loop {
            if self.pc < self.end {
                self.pc += 1;
                return Some(self.pc as usize - 1);
            }
            match program.seq[self.at] {
                Seq::Run { start, end } => {
                    self.pc = start;
                    self.end = end;
                    self.at += 1;
                }
                Seq::Enter { count, depth } => {
                    self.counters[depth as usize] = count;
                    self.at += 1;
                }
                Seq::Next { head, depth } => {
                    let left = &mut self.counters[depth as usize];
                    *left -= 1;
                    self.at = if *left > 0 {
                        head as usize
                    } else {
                        self.at + 1
                    };
                }
                Seq::Halt => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_cell::{BlockCode, Reg};
    use warp_ir::LoopId;

    fn block(n: usize) -> CodeRegion {
        CodeRegion::Block(BlockCode {
            insts: vec![MicroInst::default(); n],
            io_events: vec![],
            adr_deadlines: vec![],
            source: None,
        })
    }

    fn code(regions: Vec<CodeRegion>) -> CellCode {
        CellCode {
            name: "synthetic".into(),
            regions,
            regs_used: 1,
            scratch_words: 0,
            pipelined: vec![],
        }
    }

    fn decode(regions: Vec<CodeRegion>) -> Program {
        Program::decode(&code(regions), &CellMachine::default(), Dir::Right)
    }

    /// The words the sequencer issues, to the end of the program.
    fn issued(program: &Program) -> Vec<usize> {
        let mut s = Sequencer::new(program);
        let mut words = Vec::new();
        while let Some(w) = s.step(program) {
            words.push(w);
        }
        assert_eq!(s.step(program), None, "a finished program stays finished");
        words
    }

    #[test]
    fn straight_line() {
        assert_eq!(issued(&decode(vec![block(3)])), [0, 1, 2]);
    }

    #[test]
    fn loops_repeat_bodies() {
        let p = decode(vec![
            block(1),
            CodeRegion::Loop {
                id: LoopId(0),
                count: 4,
                body: vec![block(2)],
            },
            block(1),
        ]);
        assert_eq!(issued(&p), [0, 1, 2, 1, 2, 1, 2, 1, 2, 3]);
    }

    #[test]
    fn nested_loops() {
        let inner = CodeRegion::Loop {
            id: LoopId(1),
            count: 3,
            body: vec![block(1)],
        };
        let p = decode(vec![CodeRegion::Loop {
            id: LoopId(0),
            count: 2,
            body: vec![block(1), inner],
        }]);
        assert_eq!(issued(&p), [0, 1, 1, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn zero_count_loop_skipped() {
        let p = decode(vec![CodeRegion::Loop {
            id: LoopId(0),
            count: 0,
            body: vec![block(5)],
        }]);
        assert_eq!(issued(&p), []);
    }

    #[test]
    fn empty_blocks_skipped() {
        let empty_loop = CodeRegion::Loop {
            id: LoopId(0),
            count: u64::MAX,
            body: vec![block(0)],
        };
        let p = decode(vec![block(0), empty_loop, block(2), block(0)]);
        assert_eq!(issued(&p), [0, 1]);
    }

    #[test]
    fn operands_resolve_to_registers_and_pooled_constants() {
        let mut inst = MicroInst {
            fadd: Some(FpuField {
                op: AluOp::Add,
                dst: None,
                srcs: vec![Operand::Reg(Reg(3)), Operand::Imm(2.5)],
            }),
            fmul: Some(FpuField {
                op: AluOp::Div,
                dst: Some(Reg(4)),
                srcs: vec![Operand::Imm(2.5), Operand::ImmB(true)],
            }),
            ..MicroInst::default()
        };
        inst.io[1] = Some(IoField::Send {
            src: Operand::Imm(9.0),
            ext: None,
        });
        inst.io[2] = Some(IoField::Send {
            src: Operand::Imm(-0.0),
            ext: None,
        });
        inst.io[3] = Some(IoField::Send {
            src: Operand::Imm(0.0),
            ext: None,
        });
        let machine = CellMachine::default();
        let body = CodeRegion::Block(BlockCode {
            insts: vec![inst],
            io_events: vec![],
            adr_deadlines: vec![],
            source: None,
        });
        let p = decode(vec![CodeRegion::Loop {
            id: LoopId(0),
            count: 7,
            body: vec![body],
        }]);
        let sink = machine.registers;
        assert_eq!(
            p.word(0),
            [
                Op::Add(Fpu {
                    srcs: [3, sink + 1, sink],
                    dst: sink,
                    delay: machine.fp_latency,
                }),
                Op::Div(Fpu {
                    srcs: [sink + 1, sink + 2, sink],
                    dst: 4,
                    delay: machine.div_latency,
                }),
                // A send toward the left of a right-flowing array.
                Op::WrongDirection,
                Op::Send {
                    chan: 0,
                    src: sink + 3,
                },
                Op::Send {
                    chan: 1,
                    src: sink + 4,
                },
            ]
        );
        // Signed zeros are distinct constants.
        let consts: Vec<u32> = p.regs[sink as usize + 1..]
            .iter()
            .map(|c| c.to_bits())
            .collect();
        let bits = [2.5f32, 1.0, -0.0, 0.0].map(f32::to_bits);
        assert_eq!(consts, bits);
        assert_eq!(p.max_delay, machine.div_latency);
        assert_eq!(p.sends, [7, 7]);
    }
}
