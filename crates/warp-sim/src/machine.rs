//! The cycle-level Warp machine simulator.
//!
//! Executes the compiled cell microprogram on every cell of the array in
//! lock step, with cell `p+1` starting `skew` cycles after cell `p`
//! (the skewed computation model, paper §3). The simulator enforces at
//! run time exactly the invariants the compiler establishes statically:
//!
//! * a receive from an empty queue is an error (underflow, §6.2.1),
//! * a queue growing past its capacity is an error (overflow, §6.2.2),
//! * a memory operation whose IU address has not arrived is an error
//!   (deadline miss, §6.3.2).
//!
//! Within one global cycle all sends commit before any receive, so a
//! send and its matching receive may share a cycle (Figure 6-3).
//!
//! [`run_with_options`] additionally applies a [`FaultPlan`] — the
//! deliberate perturbations of [`crate::fault`] — and reports any
//! violation as a structured [`FaultReport`] carrying queue high-water
//! marks, the last trace events, and the static claims under test.

use crate::cursor::Cursor;
use crate::error::SimError;
use crate::fault::{Fault, FaultPlan};
use crate::report::{FaultReport, StaticClaims};
use std::collections::{BTreeMap, VecDeque};
use w2_lang::ast::{Chan, Dir};
use warp_cell::{
    AddrSource, AluOp, CellCode, CellMachine, FpuField, IoField, MemField, Operand, Reg,
};
use warp_common::CancelToken;
use warp_host::{HostMemory, HostProgram, HostWordSource};
use warp_ir::CmpOp;
use warp_iu::IuProgram;

/// Everything the simulator needs to run one module.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig<'a> {
    /// The cell microprogram (identical on every cell).
    pub cell_code: &'a CellCode,
    /// The IU program feeding addresses down the Adr path.
    pub iu: &'a IuProgram,
    /// The host I/O processor transfer scripts.
    pub host_program: &'a HostProgram,
    /// Machine parameters (latencies, queue capacity, …).
    pub machine: &'a CellMachine,
    /// Number of cells.
    pub n_cells: u32,
    /// Start-time skew between adjacent cells.
    pub skew: i64,
    /// Data flow direction.
    pub flow: Dir,
}

/// Run-time knobs beyond the machine configuration: fault injection,
/// the trace ring-buffer depth, the static claims to audit, and the
/// service layer's cooperative cancellation hooks.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOptions {
    /// Faults to inject (empty plan = a clean run).
    pub plan: FaultPlan,
    /// How many trace events the violation ring buffer keeps.
    pub ring_capacity: usize,
    /// The compiler's static claims, echoed into any [`FaultReport`].
    pub claims: Option<StaticClaims>,
    /// Cancellation handle polled every [`SimOptions::poll_interval`]
    /// cycles; the inert default costs one branch per poll.
    pub cancel: CancelToken,
    /// How many simulated cycles between cancellation polls. A stop
    /// request is observed within at most this many cycles.
    pub poll_interval: u64,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            plan: FaultPlan::default(),
            ring_capacity: 32,
            claims: None,
            cancel: CancelToken::none(),
            poll_interval: 1024,
        }
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Host memory after the run (`out` parameters filled in).
    pub host: HostMemory,
    /// Total cycles until the last cell finished.
    pub cycles: u64,
    /// Floating point operations executed across the array.
    pub fp_ops: u64,
    /// Largest occupancy observed on any inter-cell queue.
    pub max_queue_occupancy: usize,
    /// Highest interior-queue occupancy per channel, across all cells —
    /// the observed counterpart of the skew analysis' static bound.
    pub queue_high_water: BTreeMap<Chan, u64>,
    /// Words delivered to the host.
    pub words_out: u64,
    /// Every word the last cell sent toward the host, per channel, in
    /// arrival order — including words no host sink claims. This is the
    /// boundary stream the differential oracle compares against: a
    /// reordering or dropped word shows up here even when the final
    /// memory image happens to agree.
    pub out_streams: BTreeMap<Chan, Vec<f32>>,
}

impl RunReport {
    /// Results per cycle: `words_out / cycles` — the throughput measure
    /// the paper quotes ("one result per cycle").
    pub fn throughput(&self) -> f64 {
        self.words_out as f64 / self.cycles as f64
    }
}

struct Cell<'a> {
    cursor: Cursor<'a>,
    start: u64,
    done: bool,
    memory: Vec<f32>,
    regs: Vec<f32>,
    /// Pending register writebacks: `(due local cycle, register, value)`.
    pending: Vec<(u64, Reg, f32)>,
    /// Adr path arrivals: `(available at global cycle, address)`.
    adr: VecDeque<(u64, u32)>,
    fp_ops: u64,
}

/// One deferred receive (phase 2 of a cycle).
struct PendingRecv {
    pos: usize,
    chan: Chan,
    upstream: bool,
    dst: Option<Reg>,
}

/// One observed I/O event (see [`run_traced`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Global cycle.
    pub cycle: u64,
    /// Pipeline position of the cell.
    pub cell: usize,
    /// Channel.
    pub chan: Chan,
    /// `true` for a dequeue.
    pub is_recv: bool,
    /// The word transferred.
    pub value: f32,
}

/// Runs the module on the array with `host` pre-loaded with the `in`
/// parameters.
///
/// # Errors
///
/// Returns a [`SimError`] describing the first violated machine
/// invariant (these indicate compiler bugs or deliberately injected bad
/// parameters, not data conditions).
pub fn run(cfg: &MachineConfig<'_>, host: HostMemory) -> Result<RunReport, SimError> {
    run_impl(cfg, host, None, &SimOptions::default()).map_err(|r| r.error)
}

/// Like [`run`], but records every send and receive with its cycle —
/// the raw material for Figure 6-3-style execution timelines.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_traced(
    cfg: &MachineConfig<'_>,
    host: HostMemory,
    trace: &mut Vec<TraceEvent>,
) -> Result<RunReport, SimError> {
    run_impl(cfg, host, Some(trace), &SimOptions::default()).map_err(|r| r.error)
}

/// Runs the module with explicit [`SimOptions`]: injected faults, the
/// ring-buffer depth, and the static claims to audit.
///
/// # Errors
///
/// Returns a structured [`FaultReport`] (boxed — it is large) for the
/// first violated machine invariant.
pub fn run_with_options(
    cfg: &MachineConfig<'_>,
    host: HostMemory,
    opts: &SimOptions,
) -> Result<RunReport, Box<FaultReport>> {
    run_impl(cfg, host, None, opts)
}

fn run_impl(
    cfg: &MachineConfig<'_>,
    host: HostMemory,
    mut trace: Option<&mut Vec<TraceEvent>>,
    opts: &SimOptions,
) -> Result<RunReport, Box<FaultReport>> {
    let n = cfg.n_cells as usize;
    assert!(n >= 1, "at least one cell");
    let plan = &opts.plan;
    let flow = if plan.flips_flow() {
        cfg.flow.opposite()
    } else {
        cfg.flow
    };
    let skew = u64::try_from((cfg.skew + plan.skew_delta()).max(0)).expect("non-negative skew");
    let capacity = plan.queue_capacity(cfg.machine.queue_capacity);

    // Pipeline positions: position 0 is the upstream-most cell.
    let emissions = cfg.iu.emissions();
    let mut cells: Vec<Cell> = (0..n)
        .map(|p| {
            let start = skew * p as u64;
            Cell {
                cursor: Cursor::new(&cfg.cell_code.regions),
                start,
                done: false,
                memory: vec![0.0; cfg.machine.memory_words as usize],
                regs: vec![0.0; cfg.machine.registers as usize],
                pending: Vec::new(),
                adr: faulted_adr_stream(&emissions, start, p, plan),
                fp_ops: 0,
            }
        })
        .collect();

    // Interior queues: queue[p] connects position p-1 to position p.
    let mut queues: Vec<[VecDeque<f32>; 2]> =
        (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect();
    let chan_idx = |c: Chan| match c {
        Chan::X => 0usize,
        Chan::Y => 1usize,
    };
    let chan_of = |ci: usize| if ci == 0 { Chan::X } else { Chan::Y };

    // Boundary input: the host sustains full bandwidth (paper §2.1), so
    // the input stream is modeled as an unbounded pre-filled queue.
    let mut boundary_in: [VecDeque<f32>; 2] = [VecDeque::new(), VecDeque::new()];
    for (chan, sources) in &cfg.host_program.inputs {
        let q = &mut boundary_in[chan_idx(*chan)];
        for s in sources {
            q.push_back(match *s {
                HostWordSource::Lit(v) => v,
                HostWordSource::Elem { var, index } => host.word(var, index),
            });
        }
    }
    for fault in &plan.faults {
        if let Fault::TruncateInput { chan, keep } = fault {
            boundary_in[chan_idx(*chan)].truncate(*keep);
        }
    }
    let mut boundary_out: [Vec<f32>; 2] = [Vec::new(), Vec::new()];

    let span = cfg.cell_code.dynamic_len();
    let deadline = plan.cycle_budget(skew * (n as u64 - 1) + span + 8);
    let mut max_occ = 0usize;
    let mut high_water: BTreeMap<Chan, u64> = BTreeMap::new();
    let mut ring: VecDeque<TraceEvent> = VecDeque::with_capacity(opts.ring_capacity.min(1024));
    // Words committed so far per channel, for the drop/corrupt faults.
    let mut sent: [u64; 2] = [0, 0];
    let mut t: u64 = 0;
    let mut host = host;

    // Builds the structured report for a violation at cycle `t`.
    macro_rules! fail {
        ($err:expr) => {
            return Err(Box::new(FaultReport {
                error: $err,
                cycles_run: t,
                queue_high_water: high_water.clone(),
                recent_events: ring.iter().copied().collect(),
                claims: opts.claims.clone(),
                injected: plan.describe(),
            }))
        };
    }
    macro_rules! record {
        ($ev:expr) => {{
            let ev: TraceEvent = $ev;
            if let Some(tr) = trace.as_deref_mut() {
                tr.push(ev);
            }
            if opts.ring_capacity > 0 {
                if ring.len() == opts.ring_capacity {
                    ring.pop_front();
                }
                ring.push_back(ev);
            }
        }};
    }

    let poll_interval = opts.poll_interval.max(1);
    loop {
        if cells.iter().all(|c| c.done) {
            break;
        }
        if t > deadline {
            fail!(SimError::Hang { cycle: t });
        }
        if t.is_multiple_of(poll_interval) {
            if let Err(reason) = opts.cancel.check() {
                fail!(SimError::Interrupted { cycle: t, reason });
            }
        }

        // Fetch this cycle's instruction per active cell and apply due
        // register writebacks (values land at the start of their cycle).
        let mut insts: Vec<Option<&warp_cell::MicroInst>> = vec![None; n];
        for (p, cell) in cells.iter_mut().enumerate() {
            if cell.done || t < cell.start {
                continue;
            }
            let local = t - cell.start;
            cell.pending.retain(|&(due, reg, value)| {
                if due <= local {
                    // `regs` indexed by allocator-assigned numbers.
                    cell_write(&mut cell.regs, reg, value);
                    false
                } else {
                    true
                }
            });
            match cell.cursor.step() {
                Some(inst) => insts[p] = Some(inst),
                None => cell.done = true,
            }
        }

        // Phase 1: compute, memory, sends.
        let mut recvs: Vec<PendingRecv> = Vec::new();
        for p in 0..n {
            let Some(inst) = insts[p] else { continue };
            let local = t - cells[p].start;

            if let Some(f) = &inst.fadd {
                let v = eval_fpu(f, &cells[p].regs);
                cells[p].fp_ops += 1;
                if let Some(dst) = f.dst {
                    let lat = u64::from(alu_latency(cfg.machine, f.op));
                    cells[p].pending.push((local + lat, dst, v));
                }
            }
            if let Some(f) = &inst.fmul {
                let v = eval_fpu(f, &cells[p].regs);
                cells[p].fp_ops += 1;
                if let Some(dst) = f.dst {
                    let lat = u64::from(alu_latency(cfg.machine, f.op));
                    cells[p].pending.push((local + lat, dst, v));
                }
            }
            for slot in 0..2 {
                let Some(m) = inst.mem[slot].clone() else {
                    continue;
                };
                match m {
                    MemField::Read { addr, dst } => {
                        let a = match resolve_addr(cfg, &mut cells[p], addr, p, t) {
                            Ok(a) => a,
                            Err(e) => fail!(e),
                        };
                        let v = cells[p].memory[a];
                        if let Some(dst) = dst {
                            let lat = u64::from(cfg.machine.mem_latency);
                            cells[p].pending.push((local + lat, dst, v));
                        }
                    }
                    MemField::Write { addr, src } => {
                        let a = match resolve_addr(cfg, &mut cells[p], addr, p, t) {
                            Ok(a) => a,
                            Err(e) => fail!(e),
                        };
                        let v = operand(&cells[p].regs, src);
                        cells[p].memory[a] = v;
                    }
                }
            }
            for (io_idx, field) in inst.io.iter().enumerate() {
                let Some(field) = field else { continue };
                let (dir, chan) = io_unindex(io_idx);
                match field {
                    IoField::Send { src, .. } => {
                        let mut v = operand(&cells[p].regs, *src);
                        if dir != flow {
                            fail!(SimError::WrongDirection { cell: p, cycle: t });
                        }
                        // In-transit faults: the word may be corrupted
                        // or vanish between the send and its delivery.
                        let word_idx = sent[chan_idx(chan)];
                        sent[chan_idx(chan)] += 1;
                        let mut dropped = false;
                        for fault in &plan.faults {
                            match fault {
                                Fault::DropWord { chan: c, index }
                                    if *c == chan && *index == word_idx =>
                                {
                                    dropped = true;
                                }
                                Fault::CorruptWord { chan: c, index }
                                    if *c == chan && *index == word_idx =>
                                {
                                    v = f32::from_bits(
                                        v.to_bits() ^ plan.corruption_mask(word_idx),
                                    );
                                }
                                _ => {}
                            }
                        }
                        record!(TraceEvent {
                            cycle: t,
                            cell: p,
                            chan,
                            is_recv: false,
                            value: v,
                        });
                        if dropped {
                            continue;
                        }
                        if p + 1 == n {
                            boundary_out[chan_idx(chan)].push(v);
                        } else {
                            queues[p + 1][chan_idx(chan)].push_back(v);
                        }
                    }
                    IoField::Recv { dst, .. } => {
                        if dir != flow.opposite() {
                            fail!(SimError::WrongDirection { cell: p, cycle: t });
                        }
                        recvs.push(PendingRecv {
                            pos: p,
                            chan,
                            upstream: true,
                            dst: *dst,
                        });
                    }
                }
            }
        }

        // Phase 2: receives (after every send has committed).
        for r in recvs {
            debug_assert!(r.upstream);
            let q = if r.pos == 0 {
                &mut boundary_in[chan_idx(r.chan)]
            } else {
                &mut queues[r.pos][chan_idx(r.chan)]
            };
            let Some(v) = q.pop_front() else {
                fail!(SimError::QueueUnderflow {
                    cell: r.pos,
                    chan: r.chan,
                    cycle: t,
                });
            };
            record!(TraceEvent {
                cycle: t,
                cell: r.pos,
                chan: r.chan,
                is_recv: true,
                value: v,
            });
            if let Some(dst) = r.dst {
                let local = t - cells[r.pos].start;
                let lat = u64::from(cfg.machine.io_latency);
                cells[r.pos].pending.push((local + lat, dst, v));
            }
        }

        // End of cycle: capacity check on interior queues.
        for (p, qs) in queues.iter().enumerate().skip(1) {
            for (ci, q) in qs.iter().enumerate() {
                max_occ = max_occ.max(q.len());
                if !q.is_empty() {
                    let hw = high_water.entry(chan_of(ci)).or_insert(0);
                    *hw = (*hw).max(q.len() as u64);
                }
                if q.len() > capacity as usize {
                    fail!(SimError::QueueOverflow {
                        cell: p,
                        chan: chan_of(ci),
                        cycle: t,
                        capacity,
                    });
                }
            }
        }

        t += 1;
    }

    // Deliver collected boundary output to host memory.
    let mut words_out = 0u64;
    for (chan, sinks) in &cfg.host_program.outputs {
        let collected = &boundary_out[chan_idx(*chan)];
        if collected.len() != sinks.len() {
            fail!(SimError::OutputCountMismatch {
                chan: *chan,
                expected: sinks.len(),
                got: collected.len(),
            });
        }
        for (sink, &v) in sinks.iter().zip(collected) {
            words_out += 1;
            if let Some((var, index)) = sink {
                host.set_word(*var, *index, v);
            }
        }
    }

    let fp_ops = cells.iter().map(|c| c.fp_ops).sum();
    let out_streams = boundary_out
        .iter()
        .enumerate()
        .filter(|(_, words)| !words.is_empty())
        .map(|(ci, words)| (chan_of(ci), words.clone()))
        .collect();
    Ok(RunReport {
        host,
        cycles: t,
        fp_ops,
        max_queue_occupancy: max_occ,
        queue_high_water: high_water,
        words_out,
        out_streams,
    })
}

/// The Adr arrivals for one cell, with the plan's address-stream faults
/// applied: corrupt in place, delay arrivals, then drop entries (drops
/// last, so every index refers to the original stream).
fn faulted_adr_stream(
    emissions: &[warp_iu::Emission],
    start: u64,
    pos: usize,
    plan: &FaultPlan,
) -> VecDeque<(u64, u32)> {
    let mut adr: Vec<(u64, u32)> = emissions
        .iter()
        .map(|e| (e.cycle + start, e.addr))
        .collect();
    let applies = |cell: &Option<usize>| cell.is_none() || *cell == Some(pos);
    let mut drops: Vec<usize> = Vec::new();
    for fault in &plan.faults {
        match fault {
            Fault::CorruptAddress { cell, index, addr } if applies(cell) => {
                if let Some(slot) = adr.get_mut(*index) {
                    slot.1 = *addr;
                }
            }
            Fault::DelayAddresses { cell, cycles } if applies(cell) => {
                for slot in &mut adr {
                    slot.0 += cycles;
                }
            }
            Fault::DropAddress { cell, index } if applies(cell) => drops.push(*index),
            _ => {}
        }
    }
    drops.sort_unstable();
    for index in drops.into_iter().rev() {
        if index < adr.len() {
            adr.remove(index);
        }
    }
    adr.into()
}

fn cell_write(regs: &mut [f32], reg: Reg, value: f32) {
    regs[reg.0 as usize] = value;
}

fn operand(regs: &[f32], op: Operand) -> f32 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::Imm(v) => v,
        Operand::ImmB(b) => {
            if b {
                1.0
            } else {
                0.0
            }
        }
    }
}

fn alu_latency(machine: &CellMachine, op: AluOp) -> u32 {
    match op {
        AluOp::Div => machine.div_latency,
        _ => machine.fp_latency,
    }
}

fn eval_fpu(f: &FpuField, regs: &[f32]) -> f32 {
    let v = |i: usize| operand(regs, f.srcs[i]);
    let b = |i: usize| operand(regs, f.srcs[i]) != 0.0;
    let bool_val = |x: bool| if x { 1.0 } else { 0.0 };
    match f.op {
        AluOp::Add => v(0) + v(1),
        AluOp::Sub => v(0) - v(1),
        AluOp::Mul => v(0) * v(1),
        AluOp::Div => v(0) / v(1),
        AluOp::Neg => -v(0),
        AluOp::Cmp(c) => bool_val(apply_cmp(c, v(0), v(1))),
        AluOp::And => bool_val(b(0) && b(1)),
        AluOp::Or => bool_val(b(0) || b(1)),
        AluOp::Not => bool_val(!b(0)),
        AluOp::Select => {
            if b(0) {
                v(1)
            } else {
                v(2)
            }
        }
    }
}

fn apply_cmp(c: CmpOp, l: f32, r: f32) -> bool {
    c.apply(l, r)
}

fn resolve_addr(
    cfg: &MachineConfig<'_>,
    cell: &mut Cell<'_>,
    addr: AddrSource,
    pos: usize,
    t: u64,
) -> Result<usize, SimError> {
    let a = match addr {
        AddrSource::Literal(a) => u32::from(a),
        AddrSource::AdrQueue => {
            let Some(&(avail, value)) = cell.adr.front() else {
                return Err(SimError::AddressUnderflow {
                    cell: pos,
                    cycle: t,
                });
            };
            if avail > t {
                return Err(SimError::AddressLate {
                    cell: pos,
                    cycle: t,
                    available: avail,
                });
            }
            cell.adr.pop_front();
            value
        }
    };
    let a = a as usize;
    if a >= cfg.machine.memory_words as usize {
        return Err(SimError::BadAddress {
            cell: pos,
            cycle: t,
            addr: a,
        });
    }
    Ok(a)
}

fn io_unindex(idx: usize) -> (Dir, Chan) {
    match idx {
        0 => (Dir::Left, Chan::X),
        1 => (Dir::Left, Chan::Y),
        2 => (Dir::Right, Chan::X),
        3 => (Dir::Right, Chan::Y),
        _ => unreachable!("four I/O ports"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_cell::{BlockCode, CodeRegion, MicroInst};

    /// Two cells, a 2-word queue, six cycles that each receive from the
    /// left and send to the right: cell 0 runs `skew` cycles ahead, so
    /// the interior queue holds `skew` words when cell 1 starts.
    fn send_and_receive_every_cycle(skew: i64) -> Result<RunReport, SimError> {
        let mut inst = MicroInst::default();
        inst.io[0] = Some(IoField::Recv {
            dst: Some(Reg(0)),
            ext: None,
        });
        inst.io[2] = Some(IoField::Send {
            src: Operand::Imm(1.0),
            ext: None,
        });
        let code = CellCode {
            name: "synthetic".into(),
            pipelined: vec![],
            regions: vec![CodeRegion::Block(BlockCode {
                insts: vec![inst; 6],
                io_events: vec![],
                adr_deadlines: vec![],
                source: None,
            })],
            regs_used: 1,
            scratch_words: 0,
        };
        let host_program = HostProgram {
            inputs: [(Chan::X, vec![HostWordSource::Lit(2.0); 6])]
                .into_iter()
                .collect(),
            outputs: [(Chan::X, vec![None; 6])].into_iter().collect(),
        };
        let machine = CellMachine {
            queue_capacity: 2,
            ..CellMachine::default()
        };
        run(
            &MachineConfig {
                cell_code: &code,
                iu: &IuProgram::default(),
                host_program: &host_program,
                machine: &machine,
                n_cells: 2,
                skew,
                flow: Dir::Right,
            },
            HostMemory::default(),
        )
    }

    #[test]
    fn full_queue_with_same_cycle_send_and_receive_is_not_overflow() {
        // From cycle 2 on the queue holds exactly `capacity` words at
        // the start of a cycle, gains one and loses one (Figure 6-3):
        // overflow is judged at the end of the cycle, where it is full
        // but not over.
        let report = send_and_receive_every_cycle(2).expect("capacity is not exceeded");
        assert_eq!(report.max_queue_occupancy, 2);
        assert_eq!(report.queue_high_water[&Chan::X], 2);
        assert_eq!(report.words_out, 6);
    }

    #[test]
    fn one_word_over_capacity_at_end_of_cycle_is_overflow() {
        let err = send_and_receive_every_cycle(3).expect_err("three words in a 2-word queue");
        assert_eq!(
            err,
            SimError::QueueOverflow {
                cell: 1,
                chan: Chan::X,
                cycle: 2,
                capacity: 2,
            }
        );
    }
}
