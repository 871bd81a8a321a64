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

use crate::decode::{chan_idx, chan_of, Fpu, Op, Program, Sequencer};
use crate::error::SimError;
use crate::fault::{Fault, FaultPlan};
use crate::report::{FaultReport, StaticClaims};
use std::collections::BTreeMap;
use w2_lang::ast::{Chan, Dir};
use warp_cell::{AddrSource, CellCode, CellMachine};
use warp_common::{CancelToken, RingQueue};
use warp_host::{HostMemory, HostProgram, HostWord};
use warp_ir::CmpOp;
use warp_iu::{Emission, IuProgram};

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

/// Most register writebacks that can fall due in one cycle of one
/// cell: two FPU fields at each of the two FPU latencies, two memory
/// ports, two receive ports (the other two I/O ports face the wrong
/// way).
const SLOT_WRITES: usize = 8;

/// The writebacks due in one cycle, in the order they were issued.
#[derive(Clone, Copy, Default)]
struct Slot {
    len: usize,
    writes: [(u32, f32); SLOT_WRITES],
}

struct Cell<'a> {
    seq: Sequencer,
    start: u64,
    memory: Vec<f32>,
    /// The allocator's registers, the sink, then the constants.
    regs: Vec<f32>,
    /// The writeback wheel: slot `c & mask` holds the writes that land
    /// at the start of local cycle `c`. It has more slots than the
    /// longest delay, so a slot is drained before it is refilled, and
    /// appending keeps the writes of one cycle in issue order.
    wheel: Vec<Slot>,
    mask: u64,
    /// Adr path arrivals (cycles relative to this cell's start) and
    /// the next one to consume.
    adr: &'a [Emission],
    adr_next: usize,
    fp_ops: u64,
}

impl Cell<'_> {
    /// Schedules `regs[reg] = value` for `delay >= 1` cycles after
    /// local cycle `local`.
    fn defer(&mut self, local: u64, delay: u32, reg: u32, value: f32) {
        let slot = &mut self.wheel[((local + u64::from(delay)) & self.mask) as usize];
        slot.writes[slot.len] = (reg, value);
        slot.len += 1;
    }

    /// Issues the FPU op `f` at local cycle `local`: `eval` maps its
    /// three operand values to the result.
    fn fpu(&mut self, local: u64, f: Fpu, eval: impl FnOnce(f32, f32, f32) -> f32) {
        let [a, b, c] = f.srcs.map(|r| self.regs[r as usize]);
        self.fp_ops += 1;
        self.defer(local, f.delay, f.dst, eval(a, b, c));
    }

    /// Lands the writebacks due at local cycle `local`.
    fn write_back(&mut self, local: u64) {
        let slot = &mut self.wheel[(local & self.mask) as usize];
        for &(reg, value) in &slot.writes[..slot.len] {
            self.regs[reg as usize] = value;
        }
        slot.len = 0;
    }

    fn resolve_addr(
        &mut self,
        addr: AddrSource,
        memory_words: u32,
        pos: usize,
        t: u64,
    ) -> Result<usize, SimError> {
        let a = match addr {
            AddrSource::Literal(a) => u32::from(a),
            AddrSource::AdrQueue => {
                let Some(e) = self.adr.get(self.adr_next) else {
                    return Err(SimError::AddressUnderflow {
                        cell: pos,
                        cycle: t,
                    });
                };
                let available = e.cycle + self.start;
                if available > t {
                    return Err(SimError::AddressLate {
                        cell: pos,
                        cycle: t,
                        available,
                    });
                }
                self.adr_next += 1;
                e.addr
            }
        };
        if a >= memory_words {
            return Err(SimError::BadAddress {
                cell: pos,
                cycle: t,
                addr: a as usize,
            });
        }
        Ok(a as usize)
    }
}

/// One deferred receive (phase 2 of a cycle).
struct PendingRecv {
    pos: usize,
    chan: usize,
    dst: u32,
    delay: u32,
}

/// The last trace events before a violation, oldest overwritten first.
struct EventRing {
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring is full.
    oldest: usize,
    capacity: usize,
}

impl EventRing {
    fn new(capacity: usize) -> EventRing {
        EventRing {
            events: Vec::with_capacity(capacity.min(1024)),
            oldest: 0,
            capacity,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else if self.capacity > 0 {
            self.events[self.oldest] = ev;
            self.oldest += 1;
            if self.oldest == self.capacity {
                self.oldest = 0;
            }
        }
    }

    fn oldest_first(&self) -> Vec<TraceEvent> {
        let (newer, older) = self.events.split_at(self.oldest);
        [older, newer].concat()
    }
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
    run_impl::<false>(cfg, host, None, &SimOptions::default()).map_err(|r| r.error)
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
    run_impl::<true>(cfg, host, Some(trace), &SimOptions::default()).map_err(|r| r.error)
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
    run_impl::<true>(cfg, host, None, opts)
}

fn run_impl<const INSTRUMENTED: bool>(
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
    let memory_words = cfg.machine.memory_words;

    let program = Program::decode(cfg.cell_code, cfg.machine, flow);
    let wheel_slots = (program.max_delay as usize + 1).next_power_of_two();

    // Pipeline positions: position 0 is the upstream-most cell. Every
    // cell reads the one emission table unless an address fault
    // targets it.
    let emissions = cfg.iu.emissions();
    let faulted: Vec<Option<Vec<Emission>>> = (0..n)
        .map(|p| faulted_adr_stream(&emissions, p, plan))
        .collect();
    let mut cells: Vec<Cell> = (0..n)
        .map(|p| Cell {
            seq: Sequencer::new(&program),
            start: skew * p as u64,
            memory: vec![0.0; memory_words as usize],
            regs: program.regs.clone(),
            wheel: vec![Slot::default(); wheel_slots],
            mask: wheel_slots as u64 - 1,
            adr: faulted[p].as_deref().unwrap_or(&emissions),
            adr_next: 0,
            fp_ops: 0,
        })
        .collect();

    // Interior queues: queues[p] connects position p to position p+1.
    // Overflow is judged at the end of a cycle and a send may share the
    // cycle with its matching receive (Figure 6-3), so a queue holds one
    // word more than the capacity under test — but never more than a
    // cell sends in a whole run.
    let ring_words = |ci: usize| {
        usize::try_from(u64::from(capacity).min(program.sends[ci]) + 1).unwrap_or(usize::MAX)
    };
    let mut queues: Vec<[RingQueue; 2]> = (1..n)
        .map(|_| [0, 1].map(|ci| RingQueue::with_capacity(ring_words(ci))))
        .collect();

    // Boundary input: the host sustains full bandwidth (paper §2.1), so
    // the input stream is modeled as a pre-filled stream and a cursor.
    let mut boundary_in: [Vec<f32>; 2] = [Vec::new(), Vec::new()];
    for (chan, script) in &cfg.host_program.inputs {
        let words = &mut boundary_in[chan_idx(*chan)];
        words.reserve(script.len());
        script.for_each(|source, index| {
            words.push(match source {
                HostWord::Lit(v) => *v,
                HostWord::Elem { var, .. } => host.word(*var, index),
            });
        });
    }
    for fault in &plan.faults {
        if let Fault::TruncateInput { chan, keep } = fault {
            boundary_in[chan_idx(*chan)].truncate(*keep);
        }
    }
    let mut in_next = [0usize; 2];
    let mut boundary_out: [Vec<f32>; 2] = [Vec::new(), Vec::new()];
    for (chan, script) in &cfg.host_program.outputs {
        boundary_out[chan_idx(*chan)].reserve(script.len());
    }

    let span = cfg.cell_code.dynamic_len();
    let deadline = plan.cycle_budget(skew * (n as u64 - 1) + span + 8);
    // Highest end-of-cycle occupancy of any interior queue, per channel.
    let mut high_water = [0usize; 2];
    let mut ring = EventRing::new(if INSTRUMENTED { opts.ring_capacity } else { 0 });
    // Words committed so far per channel, for the drop/corrupt faults.
    let mut sent: [u64; 2] = [0, 0];
    let mut recvs: Vec<PendingRecv> = Vec::new();
    let mut t: u64 = 0;
    let mut host = host;

    // Builds the structured report for a violation at cycle `t`.
    macro_rules! fail {
        ($err:expr) => {
            return Err(Box::new(FaultReport {
                error: $err,
                cycles_run: t,
                queue_high_water: high_water_map(high_water),
                recent_events: ring.oldest_first(),
                claims: opts.claims.clone(),
                injected: plan.describe(),
            }))
        };
    }
    macro_rules! record {
        ($ev:expr) => {
            if INSTRUMENTED {
                let ev: TraceEvent = $ev;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.push(ev);
                }
                ring.push(ev);
            }
        };
    }

    let poll_interval = opts.poll_interval.max(1);
    let mut next_poll = 0u64;
    // Cells start in position order and, all running the same program,
    // finish in it: the live ones are `finished..started`.
    let (mut finished, mut started) = (0usize, 0usize);
    while finished < n {
        if t > deadline {
            fail!(SimError::Hang { cycle: t });
        }
        if t == next_poll {
            if let Err(reason) = opts.cancel.check() {
                fail!(SimError::Interrupted { cycle: t, reason });
            }
            next_poll = next_poll.saturating_add(poll_interval);
        }
        while started < n && cells[started].start <= t {
            started += 1;
        }
        let live = finished..started;

        // Phase 1: land due register writebacks (values arrive at the
        // start of their cycle), fetch, then compute, memory, sends.
        recvs.clear();
        for p in live.clone() {
            let cell = &mut cells[p];
            let local = t - cell.start;
            cell.write_back(local);
            let Some(word) = cell.seq.step(&program) else {
                finished += 1;
                continue;
            };
            let bool_val = |x: bool| if x { 1.0 } else { 0.0 };
            for op in program.word(word) {
                match *op {
                    Op::Add(f) => cell.fpu(local, f, |a, b, _| a + b),
                    Op::Sub(f) => cell.fpu(local, f, |a, b, _| a - b),
                    Op::Mul(f) => cell.fpu(local, f, |a, b, _| a * b),
                    Op::Div(f) => cell.fpu(local, f, |a, b, _| a / b),
                    Op::Neg(f) => cell.fpu(local, f, |a, _, _| -a),
                    Op::Eq(f) => cell.fpu(local, f, |a, b, _| bool_val(CmpOp::Eq.apply(a, b))),
                    Op::Ne(f) => cell.fpu(local, f, |a, b, _| bool_val(CmpOp::Ne.apply(a, b))),
                    Op::Lt(f) => cell.fpu(local, f, |a, b, _| bool_val(CmpOp::Lt.apply(a, b))),
                    Op::Le(f) => cell.fpu(local, f, |a, b, _| bool_val(CmpOp::Le.apply(a, b))),
                    Op::Gt(f) => cell.fpu(local, f, |a, b, _| bool_val(CmpOp::Gt.apply(a, b))),
                    Op::Ge(f) => cell.fpu(local, f, |a, b, _| bool_val(CmpOp::Ge.apply(a, b))),
                    Op::And(f) => cell.fpu(local, f, |a, b, _| bool_val(a != 0.0 && b != 0.0)),
                    Op::Or(f) => cell.fpu(local, f, |a, b, _| bool_val(a != 0.0 || b != 0.0)),
                    Op::Not(f) => cell.fpu(local, f, |a, _, _| bool_val(a == 0.0)),
                    Op::Select(f) => cell.fpu(local, f, |a, b, c| if a != 0.0 { b } else { c }),
                    Op::Read { addr, dst, delay } => {
                        let a = match cell.resolve_addr(addr, memory_words, p, t) {
                            Ok(a) => a,
                            Err(e) => fail!(e),
                        };
                        let v = cell.memory[a];
                        cell.defer(local, delay, dst, v);
                    }
                    Op::Write { addr, src } => {
                        let a = match cell.resolve_addr(addr, memory_words, p, t) {
                            Ok(a) => a,
                            Err(e) => fail!(e),
                        };
                        cell.memory[a] = cell.regs[src as usize];
                    }
                    Op::Send { chan, src } => {
                        let mut v = cell.regs[src as usize];
                        let mut dropped = false;
                        if INSTRUMENTED {
                            // In-transit faults: the word may be corrupted
                            // or vanish between the send and its delivery.
                            let word_idx = sent[chan];
                            sent[chan] += 1;
                            for fault in &plan.faults {
                                match fault {
                                    Fault::DropWord { chan: c, index }
                                        if chan_idx(*c) == chan && *index == word_idx =>
                                    {
                                        dropped = true;
                                    }
                                    Fault::CorruptWord { chan: c, index }
                                        if chan_idx(*c) == chan && *index == word_idx =>
                                    {
                                        v = f32::from_bits(
                                            v.to_bits() ^ plan.corruption_mask(word_idx),
                                        );
                                    }
                                    _ => {}
                                }
                            }
                        }
                        record!(TraceEvent {
                            cycle: t,
                            cell: p,
                            chan: chan_of(chan),
                            is_recv: false,
                            value: v,
                        });
                        if dropped {
                            continue;
                        }
                        if p + 1 == n {
                            boundary_out[chan].push(v);
                        } else {
                            // At most `capacity` words survived the last
                            // end-of-cycle check and this is the cycle's
                            // only send into this queue.
                            let accepted = queues[p][chan].push(v);
                            assert!(accepted, "interior queue sized below capacity + 1");
                        }
                    }
                    Op::Recv { chan, dst, delay } => recvs.push(PendingRecv {
                        pos: p,
                        chan,
                        dst,
                        delay,
                    }),
                    Op::WrongDirection => fail!(SimError::WrongDirection { cell: p, cycle: t }),
                }
            }
        }

        // Phase 2: receives (after every send has committed).
        for r in &recvs {
            let word = if r.pos == 0 {
                let word = boundary_in[r.chan].get(in_next[r.chan]).copied();
                in_next[r.chan] += 1;
                word
            } else {
                queues[r.pos - 1][r.chan].pop()
            };
            let Some(v) = word else {
                fail!(SimError::QueueUnderflow {
                    cell: r.pos,
                    chan: chan_of(r.chan),
                    cycle: t,
                });
            };
            record!(TraceEvent {
                cycle: t,
                cell: r.pos,
                chan: chan_of(r.chan),
                is_recv: true,
                value: v,
            });
            let cell = &mut cells[r.pos];
            cell.defer(t - cell.start, r.delay, r.dst, v);
        }

        // End of cycle: capacity check on the interior queues that can
        // have grown, the ones a live cell feeds. A queue no fuller than
        // the high-water mark passed this check when the mark was set.
        for (q, pair) in queues.iter().enumerate().take(live.end).skip(live.start) {
            for (ci, queue) in pair.iter().enumerate() {
                if queue.len() > high_water[ci] {
                    high_water[ci] = queue.len();
                    if queue.len() > capacity as usize {
                        fail!(SimError::QueueOverflow {
                            cell: q + 1,
                            chan: chan_of(ci),
                            cycle: t,
                            capacity,
                        });
                    }
                }
            }
        }

        t += 1;
    }

    // Deliver collected boundary output to host memory.
    let mut words_out = 0u64;
    for (chan, script) in &cfg.host_program.outputs {
        let collected = &boundary_out[chan_idx(*chan)];
        if collected.len() != script.len() {
            fail!(SimError::OutputCountMismatch {
                chan: *chan,
                expected: script.len(),
                got: collected.len(),
            });
        }
        words_out += collected.len() as u64;
        let mut arrived = collected.iter();
        script.for_each(|sink, index| {
            let v = *arrived.next().expect("one word per script word");
            if let HostWord::Elem { var, .. } = sink {
                host.set_word(*var, index, v);
            }
        });
    }

    let out_streams = boundary_out
        .into_iter()
        .enumerate()
        .filter(|(_, words)| !words.is_empty())
        .map(|(ci, words)| (chan_of(ci), words))
        .collect();
    Ok(RunReport {
        host,
        cycles: t,
        fp_ops: cells.iter().map(|c| c.fp_ops).sum(),
        max_queue_occupancy: high_water[0].max(high_water[1]),
        queue_high_water: high_water_map(high_water),
        words_out,
        out_streams,
    })
}

/// The per-channel occupancy marks as reported: channels whose queues
/// never held a word are absent.
fn high_water_map(high_water: [usize; 2]) -> BTreeMap<Chan, u64> {
    high_water
        .iter()
        .enumerate()
        .filter(|(_, words)| **words > 0)
        .map(|(ci, words)| (chan_of(ci), *words as u64))
        .collect()
}

/// The Adr arrivals for the cell at `pos` when the plan's address-stream
/// faults touch it: corrupt in place, delay arrivals, then drop entries
/// (drops last, so every index refers to the original stream). `None`
/// when no fault targets the cell and it reads the shared table.
fn faulted_adr_stream(
    emissions: &[Emission],
    pos: usize,
    plan: &FaultPlan,
) -> Option<Vec<Emission>> {
    let applies = |cell: &Option<usize>| cell.is_none() || *cell == Some(pos);
    let mut adr: Option<Vec<Emission>> = None;
    let mut drops: Vec<usize> = Vec::new();
    for fault in &plan.faults {
        match fault {
            Fault::CorruptAddress { cell, index, addr } if applies(cell) => {
                let adr = adr.get_or_insert_with(|| emissions.to_vec());
                if let Some(slot) = adr.get_mut(*index) {
                    slot.addr = *addr;
                }
            }
            Fault::DelayAddresses { cell, cycles } if applies(cell) => {
                for slot in adr.get_or_insert_with(|| emissions.to_vec()) {
                    slot.cycle += cycles;
                }
            }
            Fault::DropAddress { cell, index } if applies(cell) => drops.push(*index),
            _ => {}
        }
    }
    drops.sort_unstable();
    for index in drops.into_iter().rev() {
        let adr = adr.get_or_insert_with(|| emissions.to_vec());
        if index < adr.len() {
            adr.remove(index);
        }
    }
    adr
}
