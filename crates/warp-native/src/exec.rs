//! The native dispatch loop: runs a [`NativeProgram`] to completion.
//!
//! Cells execute sequentially in flow order — legal because accepted
//! W2 programs are unidirectional, so a cell's entire input is
//! available before it starts, and exactly what the oracle interpreter
//! does. Inter-cell words ride [`RingQueue`]s sized to the statically
//! exact per-channel send counts; the queues from the previous cell
//! become the upstream of the next, and the pair is recycled by
//! swapping.
//!
//! The hot state is deliberately flat: queues and boundary streams
//! live in fixed two-slot arrays indexed by channel, and host arrays
//! are copied out of the [`HostMemory`] hash map once at startup and
//! written back once at the end — so the per-word path (receive,
//! arithmetic, send) touches only vectors, never a hash or tree
//! lookup. That is what buys the order-of-magnitude gap over the
//! cycle-level simulator.
//!
//! The loop is untimed: [`warp_sim::RunReport::cycles`] is reported as
//! 0, and the cycle-accurate simulator remains the timing/audit
//! oracle. Everything value-carrying in the report — final host
//! memory, boundary output streams, fp-op and word counts, queue
//! high-water marks — is filled in for bitwise comparison.

use std::collections::BTreeMap;

use w2_lang::ast::Chan;
use warp_common::{CancelReason, CancelToken, RingQueue};
use warp_host::HostMemory;
use warp_sim::RunReport;

use crate::program::{NativeProgram, Op};

/// The two channels, in slot order (`chan_slot` is the inverse).
const CHANS: [Chan; 2] = [Chan::X, Chan::Y];

/// Fixed array slot of a channel.
#[inline]
pub(crate) fn chan_slot(chan: Chan) -> usize {
    match chan {
        Chan::X => 0,
        Chan::Y => 1,
    }
}

/// Knobs for one native run.
#[derive(Clone, Debug)]
pub struct NativeOptions {
    /// Cooperative cancellation, polled every [`NativeOptions::poll_interval`]
    /// loop back-edges.
    pub cancel: CancelToken,
    /// Loop back-edges between cancellation polls (0 = never poll).
    /// Polling rides the back-edges (plus once per cell) rather than
    /// every dispatched op to keep the hot loop branch-free; the
    /// straight-line stretch between two back-edges is bounded by the
    /// op-table length, so responsiveness stays bounded too.
    pub poll_interval: u64,
    /// Ceiling on any single channel's ring capacity, in words. A
    /// program whose static send count exceeds it is refused up front
    /// ([`NativeError::QueueTooLarge`]) instead of attempting a
    /// pathological allocation.
    pub max_queue_words: u64,
}

impl Default for NativeOptions {
    fn default() -> NativeOptions {
        NativeOptions {
            cancel: CancelToken::default(),
            poll_interval: 65_536,
            max_queue_words: 1 << 24,
        }
    }
}

/// A structured native-execution failure. For compiler-produced
/// modules none of these should occur (the compiler bounds-checks
/// every index and balances every queue); each maps a would-be panic
/// to a verdict the differential and fuzz harnesses can classify.
#[derive(Clone, Debug, PartialEq)]
pub enum NativeError {
    /// A cell consumed more words than its upstream neighbour sent.
    EmptyQueue {
        /// Position of the starving cell (in flow order).
        cell: u32,
        /// The starving channel.
        chan: Chan,
    },
    /// A downstream queue refused a word — impossible while capacities
    /// come from the static send counts, kept as a defensive verdict.
    FullQueue {
        /// The refusing channel.
        chan: Chan,
    },
    /// A cell-memory address fell outside the data memory image.
    MemOutOfBounds {
        /// Position of the faulting cell.
        cell: u32,
        /// The evaluated word address.
        addr: i64,
        /// Words of cell data memory.
        words: usize,
    },
    /// A boundary host reference indexed outside its variable.
    HostIndex {
        /// The host variable's name.
        var: String,
        /// The evaluated flat word index.
        index: i64,
        /// Words the variable holds.
        size: u32,
    },
    /// A channel's static send count exceeds
    /// [`NativeOptions::max_queue_words`].
    QueueTooLarge {
        /// The oversized channel.
        chan: Chan,
        /// Words the channel would need.
        words: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The run was cancelled or ran past its deadline.
    Interrupted(CancelReason),
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::EmptyQueue { cell, chan } => {
                write!(f, "cell {cell}: receive on empty upstream {chan:?}")
            }
            NativeError::FullQueue { chan } => {
                write!(f, "native queue {chan:?} overflowed its static capacity")
            }
            NativeError::MemOutOfBounds { cell, addr, words } => write!(
                f,
                "cell {cell}: memory address {addr} outside the {words}-word data memory"
            ),
            NativeError::HostIndex { var, index, size } => write!(
                f,
                "host index {index} out of bounds for `{var}` ({size} word(s))"
            ),
            NativeError::QueueTooLarge { chan, words, limit } => write!(
                f,
                "channel {chan:?} needs {words} queued word(s), over the {limit}-word limit"
            ),
            NativeError::Interrupted(reason) => write!(f, "native run interrupted: {reason}"),
        }
    }
}

impl std::error::Error for NativeError {}

impl NativeProgram {
    /// Executes the whole array natively: `host` supplies the `in`
    /// parameters and comes back in the report with `out` parameters
    /// filled, bitwise-identical to the oracle interpreter (and to the
    /// simulator) when the module was compiled with reassociation off.
    ///
    /// One-shot convenience over [`NativeRunner`]; a serving loop that
    /// runs the same program repeatedly should build one runner and
    /// reuse it, amortizing every buffer allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`NativeError`] on queue starvation, an out-of-bounds
    /// cell-memory or host index, an oversized static queue, or
    /// cancellation. Compiler-produced modules run clean.
    pub fn run(&self, host: HostMemory, opts: &NativeOptions) -> Result<RunReport, NativeError> {
        NativeRunner::new(self, opts)?.run(host, opts)
    }
}

/// The whole-array runtime state: register files, queues, streams, and
/// flat host arrays, allocated once and reused across runs of the same
/// [`NativeProgram`]. Per-run state is reset at the top of
/// [`NativeRunner::run`], so results are independent of history.
pub struct NativeRunner<'p> {
    program: &'p NativeProgram,
    /// Host arrays by variable id (empty for non-host ids); populated
    /// by moving them out of the run's [`HostMemory`], returned on
    /// completion.
    harr: Vec<Vec<f32>>,
    mem: Vec<f32>,
    fregs: Vec<f32>,
    bregs: Vec<bool>,
    /// Address registers: strength-reduced affine addresses, kept
    /// current by `AddrSet` / loop-entry inits / back-edge steps.
    aregs: Vec<i64>,
    loop_vals: Vec<i64>,
    upstream: [RingQueue; 2],
    downstream: [RingQueue; 2],
    streams: [Vec<f32>; 2],
    /// Back-edges until the next cancellation check; `u64::MAX` when
    /// polling is disabled, so the hot path is one decrement-and-test.
    until_poll: u64,
    poll_interval: u64,
    cancel: CancelToken,
}

/// Checks every register index, loop slot, variable id, and jump
/// target in `program` against the file sizes the runner allocates.
/// [`NativeProgram::build`] upholds all of this by construction;
/// validating once here is what makes the unchecked register accesses
/// in the dispatch loop sound — even against a future lowering bug,
/// which trips this panic instead of undefined behaviour.
fn validate(program: &NativeProgram) {
    let nf = program.f_slots.max(1);
    let nb = program.b_slots.max(1);
    let na = program.a_slots.max(1);
    let nl = program.n_loops.max(1);
    let nv = program.var_names.len();
    let bug = |what: &str| panic!("NativeProgram::build invariant broken: {what}");
    let chk_f = |i: u32| {
        if i as usize >= nf {
            bug("f-register out of range");
        }
    };
    let chk_b = |i: u32| {
        if i as usize >= nb {
            bug("b-register out of range");
        }
    };
    let chk_a = |i: u32| {
        if i as usize >= na {
            bug("address register out of range");
        }
    };
    let addr_ok = |addr: &crate::program::Addr| {
        if addr.terms.iter().any(|&(s, _)| s >= nl) {
            bug("address term outside the loop file");
        }
    };
    let var_ok = |v: u32| {
        if v as usize >= nv {
            bug("host variable id out of range");
        }
    };
    for table in [&program.first, &program.interior, &program.last] {
        for op in table {
            match op {
                Op::ConstF { dst, .. } | Op::RecvLit { dst, .. } => chk_f(*dst),
                Op::ConstB { dst, .. } => chk_b(*dst),
                Op::AddrSet { aslot, addr } => {
                    chk_a(*aslot);
                    addr_ok(addr);
                }
                Op::Load { dst, aslot } => {
                    chk_f(*dst);
                    chk_a(*aslot);
                }
                Op::Store { src, aslot } => {
                    chk_f(*src);
                    chk_a(*aslot);
                }
                Op::RecvQueue { dst, .. } => chk_f(*dst),
                Op::RecvHost {
                    dst, var, aslot, ..
                } => {
                    chk_f(*dst);
                    chk_a(*aslot);
                    var_ok(var.0);
                }
                Op::SendQueue { src, .. } => chk_f(*src),
                Op::SendLast { src, sink, .. } => {
                    chk_f(*src);
                    if let Some((var, _, aslot)) = sink {
                        chk_a(*aslot);
                        var_ok(var.0);
                    }
                }
                Op::FAdd { dst, a, b }
                | Op::FSub { dst, a, b }
                | Op::FMul { dst, a, b }
                | Op::FDiv { dst, a, b } => {
                    chk_f(*dst);
                    chk_f(*a);
                    chk_f(*b);
                }
                Op::FMulAdd { m, dst, a, b, c }
                | Op::FMulSub { m, dst, a, b, c }
                | Op::FMulAddR { m, dst, a, b, c }
                | Op::FMulSubR { m, dst, a, b, c } => {
                    chk_f(*m);
                    chk_f(*dst);
                    chk_f(*a);
                    chk_f(*b);
                    chk_f(*c);
                }
                Op::FNeg { dst, a } => {
                    chk_f(*dst);
                    chk_f(*a);
                }
                Op::FCmp { dst, a, b, .. } => {
                    chk_b(*dst);
                    chk_f(*a);
                    chk_f(*b);
                }
                Op::BAnd { dst, a, b } | Op::BOr { dst, a, b } => {
                    chk_b(*dst);
                    chk_b(*a);
                    chk_b(*b);
                }
                Op::BNot { dst, a } => {
                    chk_b(*dst);
                    chk_b(*a);
                }
                Op::Select { dst, cond, t, e } => {
                    chk_f(*dst);
                    chk_b(*cond);
                    chk_f(*t);
                    chk_f(*e);
                }
                Op::LoopStart {
                    slot, exit, inits, ..
                } => {
                    if *slot as usize >= nl {
                        bug("loop slot out of range");
                    }
                    if *exit as usize > table.len() {
                        bug("loop exit past the table");
                    }
                    for (aslot, addr) in inits.iter() {
                        chk_a(*aslot);
                        addr_ok(addr);
                    }
                }
                Op::LoopEnd {
                    slot, body, steps, ..
                } => {
                    if *slot as usize >= nl {
                        bug("loop slot out of range");
                    }
                    if *body as usize > table.len() {
                        bug("loop body past the table");
                    }
                    for (aslot, _) in steps.iter() {
                        chk_a(*aslot);
                    }
                }
            }
        }
    }
}

impl<'p> NativeRunner<'p> {
    /// Allocates the runtime state for `program`. The queue-size
    /// ceiling ([`NativeOptions::max_queue_words`]) is enforced here,
    /// before any capacity is allocated, and the op tables are
    /// validated once ([`validate`]) so the dispatch loop can index its
    /// register files unchecked.
    ///
    /// # Errors
    ///
    /// Returns [`NativeError::QueueTooLarge`] when a channel's static
    /// send count exceeds the configured ceiling.
    pub fn new(program: &'p NativeProgram, opts: &NativeOptions) -> Result<Self, NativeError> {
        validate(program);
        for (&chan, &words) in program.queue_words() {
            if words > opts.max_queue_words {
                return Err(NativeError::QueueTooLarge {
                    chan,
                    words,
                    limit: opts.max_queue_words,
                });
            }
        }
        // A single-cell array never touches a queue (its receives are
        // host-side, its sends boundary) — skip the capacity.
        let cap = |chan: Chan| {
            if program.n_cells > 1 {
                program.queue_words.get(&chan).map_or(0, |&w| w as usize)
            } else {
                0
            }
        };
        Ok(NativeRunner {
            program,
            harr: Vec::new(),
            mem: vec![0.0; program.mem_words],
            fregs: vec![0.0; program.f_slots.max(1)],
            bregs: vec![false; program.b_slots.max(1)],
            aregs: vec![0; program.a_slots.max(1)],
            loop_vals: vec![0; program.n_loops.max(1)],
            upstream: CHANS.map(|c| RingQueue::with_capacity(cap(c))),
            downstream: CHANS.map(|c| RingQueue::with_capacity(cap(c))),
            streams: [Vec::new(), Vec::new()],
            until_poll: u64::MAX,
            poll_interval: 0,
            cancel: CancelToken::default(),
        })
    }

    /// Executes the whole array once. See [`NativeProgram::run`] for
    /// the semantics; `opts` supplies this run's cancellation token and
    /// poll cadence (the queue ceiling was enforced at construction).
    ///
    /// # Errors
    ///
    /// Returns a [`NativeError`] on queue starvation, an out-of-bounds
    /// cell-memory or host index, or cancellation.
    pub fn run(
        &mut self,
        mut host: HostMemory,
        opts: &NativeOptions,
    ) -> Result<RunReport, NativeError> {
        let program = self.program;
        // Reset per-run state so a reused runner is history-free.
        self.fregs.fill(0.0);
        self.bregs.fill(false);
        self.aregs.fill(0);
        self.loop_vals.fill(0);
        for q in self.upstream.iter_mut().chain(self.downstream.iter_mut()) {
            q.reset();
        }
        for (s, stream) in self.streams.iter_mut().enumerate() {
            stream.clear();
            // The last cell's boundary pushes are the same statically
            // exact send counts the queues are sized to.
            let words = program
                .queue_words
                .get(&CHANS[s])
                .map_or(0, |&w| w as usize);
            stream.reserve(words);
        }
        self.until_poll = if opts.poll_interval > 0 {
            opts.poll_interval
        } else {
            u64::MAX
        };
        self.poll_interval = opts.poll_interval;
        self.cancel = opts.cancel.clone();
        // Host arrays move (not copy) out of the hash map and into flat
        // id-indexed vectors for the duration of the run; non-host
        // variable ids keep an empty vector.
        self.harr.clear();
        self.harr.extend(
            program
                .var_names
                .iter()
                .map(|name| host.take_words(name).unwrap_or_default()),
        );

        for pos in 0..program.n_cells {
            self.run_cell(pos)?;
        }

        // Final host arrays move back into the memory image.
        for (name, arr) in program.var_names.iter().zip(self.harr.drain(..)) {
            if !arr.is_empty() {
                let _ = host.put_words(name, arr);
            }
        }
        let mut queue_high_water: BTreeMap<Chan, u64> = BTreeMap::new();
        if program.n_cells > 1 {
            for &chan in program.queue_words.keys() {
                let s = chan_slot(chan);
                let hw = self.upstream[s]
                    .high_water()
                    .max(self.downstream[s].high_water());
                queue_high_water.insert(chan, hw as u64);
            }
        }
        let max_queue_occupancy = queue_high_water.values().copied().max().unwrap_or(0) as usize;
        // Every completed `SendLast` pushed one stream word, so the
        // word count falls out of the stream lengths; float ops come
        // from the statically exact per-table totals.
        let words_out = self.streams.iter().map(|s| s.len() as u64).sum();
        let mut fp_ops = program.table_fp[0];
        if program.n_cells > 1 {
            fp_ops = fp_ops.saturating_add(program.table_fp[2]);
        }
        fp_ops = fp_ops.saturating_add(
            program.table_fp[1].saturating_mul(u64::from(program.n_cells.saturating_sub(2))),
        );
        let mut out_streams: BTreeMap<Chan, Vec<f32>> = BTreeMap::new();
        for (s, words) in self.streams.iter_mut().enumerate() {
            if !words.is_empty() {
                out_streams.insert(CHANS[s], std::mem::take(words));
            }
        }
        Ok(RunReport {
            host,
            // The native path is untimed; the simulator is the timing
            // oracle. Zero keeps the field honest rather than guessed.
            cycles: 0,
            fp_ops,
            max_queue_occupancy,
            queue_high_water,
            words_out,
            out_streams,
        })
    }
}

impl NativeRunner<'_> {
    fn host_index_error(&self, var: u32, index: i64, size: u32) -> NativeError {
        NativeError::HostIndex {
            var: self.program.var_names[var as usize].clone(),
            index,
            size,
        }
    }

    /// Unchecked register-file reads/writes. SAFETY: every register
    /// index baked into an op was checked against the file sizes by
    /// [`validate`] when the runner was built, and the files never
    /// shrink afterwards.
    #[inline(always)]
    fn f(&self, i: u32) -> f32 {
        debug_assert!((i as usize) < self.fregs.len());
        unsafe { *self.fregs.get_unchecked(i as usize) }
    }

    #[inline(always)]
    fn set_f(&mut self, i: u32, v: f32) {
        debug_assert!((i as usize) < self.fregs.len());
        unsafe { *self.fregs.get_unchecked_mut(i as usize) = v }
    }

    #[inline(always)]
    fn b(&self, i: u32) -> bool {
        debug_assert!((i as usize) < self.bregs.len());
        unsafe { *self.bregs.get_unchecked(i as usize) }
    }

    #[inline(always)]
    fn set_b(&mut self, i: u32, v: bool) {
        debug_assert!((i as usize) < self.bregs.len());
        unsafe { *self.bregs.get_unchecked_mut(i as usize) = v }
    }

    #[inline(always)]
    fn a(&self, i: u32) -> i64 {
        debug_assert!((i as usize) < self.aregs.len());
        unsafe { *self.aregs.get_unchecked(i as usize) }
    }

    #[inline(always)]
    fn set_a(&mut self, i: u32, v: i64) {
        debug_assert!((i as usize) < self.aregs.len());
        unsafe { *self.aregs.get_unchecked_mut(i as usize) = v }
    }

    /// One cancellation-poll tick: counts down and checks the token
    /// when the countdown expires. Called per cell and per loop
    /// back-edge, not per op. Disabled polling counts down from
    /// `u64::MAX`, keeping the hot path a single decrement-and-test.
    #[inline]
    fn poll_tick(&mut self) -> Result<(), NativeError> {
        self.until_poll -= 1;
        if self.until_poll == 0 {
            self.until_poll = if self.poll_interval > 0 {
                self.poll_interval
            } else {
                u64::MAX
            };
            self.cancel.check().map_err(NativeError::Interrupted)?;
        }
        Ok(())
    }

    fn run_cell(&mut self, pos: u32) -> Result<(), NativeError> {
        self.poll_tick()?;
        // The words the previous cell produced become this cell's
        // upstream; its old upstream is drained (or initially unused)
        // and recycled as the fresh downstream.
        std::mem::swap(&mut self.upstream, &mut self.downstream);
        for q in &mut self.downstream {
            q.clear();
        }
        self.mem.fill(0.0);

        let table = self.program.table(pos);
        let mut ip = 0usize;
        while ip < table.len() {
            match &table[ip] {
                Op::ConstF { dst, v } => self.set_f(*dst, *v),
                Op::ConstB { dst, v } => self.set_b(*dst, *v),
                Op::AddrSet { aslot, addr } => {
                    let v = addr.eval(&self.loop_vals);
                    self.set_a(*aslot, v);
                }
                Op::Load { dst, aslot } => {
                    let a = self.a(*aslot);
                    let Some(v) = usize::try_from(a).ok().and_then(|a| self.mem.get(a)) else {
                        return Err(NativeError::MemOutOfBounds {
                            cell: pos,
                            addr: a,
                            words: self.mem.len(),
                        });
                    };
                    let v = *v;
                    self.set_f(*dst, v);
                }
                Op::Store { src, aslot } => {
                    let a = self.a(*aslot);
                    let v = self.f(*src);
                    let words = self.mem.len();
                    let Some(slot) = usize::try_from(a).ok().and_then(|a| self.mem.get_mut(a))
                    else {
                        return Err(NativeError::MemOutOfBounds {
                            cell: pos,
                            addr: a,
                            words,
                        });
                    };
                    *slot = v;
                }
                Op::RecvQueue { dst, chan } => {
                    let Some(v) = self.upstream[chan_slot(*chan)].pop() else {
                        return Err(NativeError::EmptyQueue {
                            cell: pos,
                            chan: *chan,
                        });
                    };
                    self.set_f(*dst, v);
                }
                Op::RecvLit { dst, v } => self.set_f(*dst, *v),
                Op::RecvHost {
                    dst,
                    var,
                    size,
                    aslot,
                } => {
                    // Fast path: one branch. Host arrays exist at their
                    // declared size, so an in-bounds slice read is the
                    // common case; the cold arm distinguishes a bad
                    // index (error) from an absent array (reads 0.0,
                    // as the oracle resolves unbound inputs).
                    let i = self.a(*aslot);
                    let got = usize::try_from(i)
                        .ok()
                        .and_then(|i| self.harr[var.0 as usize].get(i));
                    let v = match got {
                        Some(v) => *v,
                        None if i < 0 || i >= i64::from(*size) => {
                            return Err(self.host_index_error(var.0, i, *size));
                        }
                        None => 0.0,
                    };
                    self.set_f(*dst, v);
                }
                Op::SendQueue { src, chan } => {
                    let v = self.f(*src);
                    if !self.downstream[chan_slot(*chan)].push(v) {
                        return Err(NativeError::FullQueue { chan: *chan });
                    }
                }
                Op::SendLast { src, chan, sink } => {
                    let v = self.f(*src);
                    self.streams[chan_slot(*chan)].push(v);
                    if let Some((var, size, aslot)) = sink {
                        let i = self.a(*aslot);
                        let slot = usize::try_from(i)
                            .ok()
                            .and_then(|i| self.harr[var.0 as usize].get_mut(i));
                        match slot {
                            Some(slot) => *slot = v,
                            None if i < 0 || i >= i64::from(*size) => {
                                return Err(self.host_index_error(var.0, i, *size));
                            }
                            // A missing host array is silently skipped,
                            // as `HostMemory::set_word` does.
                            None => {}
                        }
                    }
                }
                // Float ops are not counted here: the per-table totals
                // are statically exact (`NativeProgram::table_fp`).
                Op::FAdd { dst, a, b } => {
                    let r = self.f(*a) + self.f(*b);
                    self.set_f(*dst, r);
                }
                Op::FSub { dst, a, b } => {
                    let r = self.f(*a) - self.f(*b);
                    self.set_f(*dst, r);
                }
                Op::FMul { dst, a, b } => {
                    let r = self.f(*a) * self.f(*b);
                    self.set_f(*dst, r);
                }
                // The fused forms round the product and the sum
                // separately (two f32 ops, never a hardware FMA), and
                // write the product register before reading `c` so a
                // cross-block `c == m` alias still reads the product.
                Op::FMulAdd { m, dst, a, b, c } => {
                    let p = self.f(*a) * self.f(*b);
                    self.set_f(*m, p);
                    let r = p + self.f(*c);
                    self.set_f(*dst, r);
                }
                Op::FMulSub { m, dst, a, b, c } => {
                    let p = self.f(*a) * self.f(*b);
                    self.set_f(*m, p);
                    let r = p - self.f(*c);
                    self.set_f(*dst, r);
                }
                Op::FMulAddR { m, dst, a, b, c } => {
                    let p = self.f(*a) * self.f(*b);
                    self.set_f(*m, p);
                    let r = self.f(*c) + p;
                    self.set_f(*dst, r);
                }
                Op::FMulSubR { m, dst, a, b, c } => {
                    let p = self.f(*a) * self.f(*b);
                    self.set_f(*m, p);
                    let r = self.f(*c) - p;
                    self.set_f(*dst, r);
                }
                Op::FDiv { dst, a, b } => {
                    let r = self.f(*a) / self.f(*b);
                    self.set_f(*dst, r);
                }
                Op::FNeg { dst, a } => {
                    let r = -self.f(*a);
                    self.set_f(*dst, r);
                }
                Op::FCmp { op, dst, a, b } => {
                    let r = op.apply(self.f(*a), self.f(*b));
                    self.set_b(*dst, r);
                }
                Op::BAnd { dst, a, b } => {
                    let r = self.b(*a) & self.b(*b);
                    self.set_b(*dst, r);
                }
                Op::BOr { dst, a, b } => {
                    let r = self.b(*a) | self.b(*b);
                    self.set_b(*dst, r);
                }
                Op::BNot { dst, a } => {
                    let r = !self.b(*a);
                    self.set_b(*dst, r);
                }
                Op::Select { dst, cond, t, e } => {
                    let r = if self.b(*cond) {
                        self.f(*t)
                    } else {
                        self.f(*e)
                    };
                    self.set_f(*dst, r);
                }
                Op::LoopStart {
                    slot,
                    lo,
                    count,
                    exit,
                    inits,
                } => {
                    if *count == 0 {
                        ip = *exit as usize;
                        continue;
                    }
                    self.loop_vals[*slot as usize] = *lo;
                    for (a, addr) in inits.iter() {
                        let v = addr.eval(&self.loop_vals);
                        self.set_a(*a, v);
                    }
                }
                Op::LoopEnd {
                    slot,
                    body,
                    last,
                    steps,
                } => {
                    self.poll_tick()?;
                    // SAFETY: `slot` was checked against the loop file
                    // by [`validate`] at construction.
                    debug_assert!((*slot as usize) < self.loop_vals.len());
                    let v = unsafe { self.loop_vals.get_unchecked_mut(*slot as usize) };
                    if *v != *last {
                        *v = v.wrapping_add(1);
                        for (a, s) in steps.iter() {
                            let r = self.a(*a).wrapping_add(*s);
                            self.set_a(*a, r);
                        }
                        ip = *body as usize;
                        continue;
                    }
                }
            }
            ip += 1;
        }
        Ok(())
    }
}
