//! Iterative modulo scheduling (software pipelining) of innermost loops.
//!
//! The paper's cell scheduling cites Rau & Glaeser, whose technique
//! matured into modulo scheduling: overlap loop iterations at a fixed
//! *initiation interval* (II) so a new iteration starts every II cycles
//! even though one iteration spans several times that. This module
//! implements the full iterative form:
//!
//! * the candidate II starts at the **minimum initiation interval**,
//!   the larger of the resource bound (`resource_mii`) and the
//!   recurrence bound (`rec_mii`, a Bellman–Ford positive-cycle test
//!   over loop-carried dependence cycles);
//! * ops are placed highest-first (priority = latency height) into a
//!   **modulo reservation table**; when no conflict-free slot exists in
//!   a full II window the op is *forced* and conflicting or
//!   dependence-violating ops are evicted and rescheduled — the
//!   Rau-style backtracking that lets tight schedules converge where a
//!   single greedy pass gives up;
//! * when no II below the list-schedule length produces a valid
//!   schedule (or pipelining would not actually run faster), the caller
//!   falls back to the plain list schedule.
//!
//! Two restrictions keep the transformation provably safe:
//!
//! * only innermost loops whose body is one basic block with **no
//!   IU-generated addresses** are pipelined (the Adr FIFO would
//!   otherwise need restructuring);
//! * register lifetimes are constrained so a fixed register per value
//!   works for all in-flight iterations (no modulo variable expansion):
//!   every use must issue within `latency(def) + II − 1` cycles of its
//!   definition — iteration *i+1*'s writeback then lands strictly after
//!   iteration *i*'s last read. `regalloc::allocate_modulo`
//!   enforces this while it packs the cyclic lifetime arcs so disjoint
//!   values share registers.
//!
//! The result replaces `loop { body }` with
//! `prologue; loop(count−SC+1) { kernel }; epilogue`, where SC is the
//! stage count — the classic ramp-up / steady-state / drain shape.

use crate::codegen::BlockBuilder;
use crate::machine::{Unit, UnitRow};
use crate::mcode::BlockCode;
use crate::regalloc::{allocate_modulo, Allocation};
use crate::sched::{check, BlockFacts, Times};
use warp_common::IdVec;
use warp_ir::{Affine, HostSlot, LoopId, NodeId, NodeKind};

/// A pipelined loop: ramp-up block, steady-state kernel, drain block.
#[derive(Clone, Debug)]
pub(crate) struct PipelinedLoop {
    /// Ramp-up code ((SC−1)·II cycles).
    pub prologue: BlockCode,
    /// Steady state (II cycles, executed `kernel_count` times).
    pub kernel: BlockCode,
    /// Drain code.
    pub epilogue: BlockCode,
    /// Initiation interval.
    pub ii: u32,
    /// Stage count.
    pub stages: u32,
    /// Kernel iterations (`count − stages + 1`).
    pub kernel_count: u64,
    /// Registers used.
    pub regs_used: u32,
}

/// Attempts to software-pipeline the block of `facts` (the body of a
/// loop running `count` iterations of loop `loop_id` whose index starts
/// at `lo`). Returns `None` when the loop is ineligible, when no II
/// below `baseline_len` schedules, when registers cannot be assigned, or
/// when the pipelined shape would not beat `count` executions of the
/// list schedule.
pub(crate) fn try_pipeline(
    facts: &BlockFacts<'_>,
    count: u64,
    loop_id: LoopId,
    lo: i64,
    baseline_len: u32,
) -> Option<PipelinedLoop> {
    if facts.live.is_empty() || baseline_len < 2 {
        return None;
    }
    // Eligibility: no IU addresses.
    for &n in &facts.live {
        match &facts.block.nodes[n].kind {
            NodeKind::Load { addr, .. } | NodeKind::Store { addr, .. } if !addr.is_constant() => {
                return None;
            }
            _ => {}
        }
    }

    let mii = resource_mii(facts).max(rec_mii(facts, baseline_len)).max(1);

    for ii in mii..baseline_len {
        let Some(times) = ims_schedule(facts, ii, baseline_len) else {
            continue;
        };
        let max_t = times.values().flatten().copied().max().unwrap_or(0);
        let stages = max_t / ii + 1;
        if stages < 2 {
            // The whole iteration fits in one II: plain scheduling
            // already achieves this.
            return None;
        }
        if count < u64::from(stages) {
            continue; // not enough iterations to fill the pipe
        }
        let Some(alloc) = allocate_modulo(facts, &times, ii) else {
            continue; // a lifetime outlasts the II, or the arcs overflow the file
        };
        // Profitability: the pipelined shape must be strictly shorter
        // than `count` back-to-back list-scheduled iterations.
        let prologue_len = u64::from((stages - 1) * ii);
        let kernel_count = count - u64::from(stages) + 1;
        let epilogue_len = u64::from((max_t + 1).saturating_sub(ii));
        let piped = prologue_len + kernel_count * u64::from(ii) + epilogue_len;
        if piped >= count * u64::from(baseline_len) {
            continue;
        }
        return emit(facts, &times, ii, stages, count, loop_id, lo, &alloc);
    }
    None
}

/// Resource-bound MII: the most-used unit must fit one iteration's worth
/// of ops into II cycles.
pub(crate) fn resource_mii(facts: &BlockFacts<'_>) -> u32 {
    // At most seven units exist (two FPUs, memory, four I/O ports).
    let mut ops: Vec<(Unit, u32)> = Vec::new();
    for &n in &facts.live {
        let unit = facts.unit[n];
        if unit == Unit::None {
            continue;
        }
        match ops.iter_mut().find(|(u, _)| *u == unit) {
            Some((_, count)) => *count += 1,
            None => ops.push((unit, 1)),
        }
    }
    ops.into_iter()
        .map(|(unit, n)| n.div_ceil(facts.machine.ports(unit)))
        .max()
        .unwrap_or(0)
}

/// Recurrence-bound MII: the smallest II for which no dependence cycle
/// demands more latency than `II × distance` provides. Each cycle C
/// requires `II ≥ ⌈Σlat(C) / Σdist(C)⌉`; rather than enumerate cycles,
/// test a candidate II for a positive-weight cycle under edge weight
/// `lat − dist·II`. Every `dist ≥ 0`, so raising the II only lowers
/// weights and feasibility is monotone: the smallest feasible II is
/// found by bisection. Returns `cap` when every II below it is
/// infeasible.
pub(crate) fn rec_mii(facts: &BlockFacts<'_>, cap: u32) -> u32 {
    let mut pot = facts.table(0i64);
    let (mut lo, mut hi) = (cap.min(1), cap);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(facts, mid, &mut pot) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Bellman–Ford style longest-path relaxation over `pot` (one slot per
/// node): still relaxing after |V| rounds ⇔ a positive cycle exists.
fn has_positive_cycle(facts: &BlockFacts<'_>, ii: u32, pot: &mut IdVec<NodeId, i64>) -> bool {
    pot.values_mut().for_each(|p| *p = 0);
    for _ in 0..=facts.live.len() {
        let mut changed = false;
        for e in &facts.edges {
            let nw = pot[e.from] + e.lat - e.dist * i64::from(ii);
            if nw > pot[e.to] {
                pot[e.to] = nw;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
    }
    true
}

/// Iterative modulo scheduling with eviction (Rau's IMS). Places every
/// live op at an absolute cycle with resources reserved modulo II.
/// Priority is latency height; an op that cannot find a conflict-free
/// slot within a full II window is *forced* at `max(estart, 1 + last
/// attempt)` and the ops in its way — resource conflictors at that slot
/// and placed successors whose constraints it now violates — are
/// evicted and rescheduled. A fixed budget bounds the process.
fn ims_schedule(facts: &BlockFacts<'_>, ii: u32, baseline_len: u32) -> Option<Times> {
    let machine = facts.machine;
    let order = topo_order(facts)?;
    let ii_i = i64::from(ii);

    // Height priority: longest same-iteration latency path to any sink.
    let mut height = facts.table(0i64);
    for &n in order.iter().rev() {
        height[n] = facts
            .edges_out(n)
            .filter(|e| e.dist == 0)
            .map(|e| height[e.to] + e.lat)
            .max()
            .unwrap_or(0);
    }

    let sched_nodes: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&n| facts.unit[n] != Unit::None)
        .collect();
    if sched_nodes.is_empty() {
        return None;
    }

    // A schedule stretching far past the list schedule can never pass
    // the profitability gate; cap absolute time so forcing terminates.
    let horizon = i64::from(baseline_len) * 4 + ii_i * 4 + 64;
    let mut budget = sched_nodes.len() * (ii as usize + 2) * 8 + 64;

    // The modulo reservation table: one unit row per cycle of the II.
    let mut mrt = vec![UnitRow::default(); ii as usize];
    let mut times: Times = facts.table(None);
    let mut prev_try = facts.table(-1i64);

    let evict = |n: NodeId, times: &mut Times, mrt: &mut Vec<UnitRow>| {
        if let Some(t) = times[n].take() {
            mrt[(t % ii) as usize].release(facts.unit[n], n);
        }
    };

    // Highest unplaced op first; ties broken by DAG id for determinism.
    while let Some(&n) = sched_nodes
        .iter()
        .filter(|&&n| times[n].is_none())
        .max_by_key(|&&n| (height[n], std::cmp::Reverse(n)))
    {
        if budget == 0 {
            return None;
        }
        budget -= 1;

        let unit = facts.unit[n];
        let mut estart: i64 = 0;
        for e in facts.edges_in(n) {
            if e.from != n {
                if let Some(tf) = times[e.from] {
                    estart = estart.max(i64::from(tf) + e.lat - e.dist * ii_i);
                }
            }
        }

        // Find a conflict-free slot in a full II window, else force.
        let chosen =
            (estart..estart + ii_i).find(|t| mrt[(t % ii_i) as usize].is_free(unit, machine));
        let forced = chosen.is_none();
        let t = chosen.unwrap_or_else(|| estart.max(prev_try[n] + 1));
        if t > horizon {
            return None;
        }
        prev_try[n] = t;

        if forced {
            // Evict whatever holds this unit at the forced slot.
            if let Some(m) = mrt[(t % ii_i) as usize].holder(unit) {
                evict(m, &mut times, &mut mrt);
            }
        }

        // Place n at t.
        mrt[(t % ii_i) as usize].take(unit, n);
        times[n] = Some(u32::try_from(t).ok()?);

        // Evict placed successors whose dependence constraints n's new
        // position violates.
        for e in facts.edges_out(n) {
            if e.to != n && times[e.to].is_some_and(|tt| i64::from(tt) < t + e.lat - e.dist * ii_i)
            {
                evict(e.to, &mut times, &mut mrt);
            }
        }
    }

    // Final validation of every constraint.
    check(facts, &times, ii, true).ok()?;
    Some(times)
}

/// Intra-iteration topological order over inputs + deps.
fn topo_order(facts: &BlockFacts<'_>) -> Option<Vec<NodeId>> {
    let live = &facts.live;
    let mut indeg = facts.preds.clone();
    let mut ready: Vec<NodeId> = live.iter().copied().filter(|&n| indeg[n] == 0).collect();
    let mut out = Vec::with_capacity(live.len());
    while let Some(n) = ready.pop() {
        out.push(n);
        for s in facts.users(n) {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(s);
            }
        }
    }
    (out.len() == live.len()).then_some(out)
}

#[allow(clippy::too_many_arguments)]
fn emit(
    facts: &BlockFacts<'_>,
    times: &Times,
    ii: u32,
    stages: u32,
    count: u64,
    loop_id: LoopId,
    lo: i64,
    alloc: &Allocation,
) -> Option<PipelinedLoop> {
    let block = facts.block;
    let prologue_len = (stages - 1) * ii;
    let kernel_count = count - u64::from(stages) + 1;
    let max_t = times.values().flatten().copied().max().unwrap_or(0);
    // One iteration spans [0, max_t]; the last iteration (count−1)
    // finishes at (count−1)·II + max_t. The epilogue covers everything
    // after the last kernel execution.
    let epilogue_len = (max_t + 1).saturating_sub(ii);

    let mut prologue = BlockBuilder::new(prologue_len);
    let mut kernel = BlockBuilder::new(ii);
    let mut epilogue = BlockBuilder::new(epilogue_len);
    let regs = &alloc.assignment;

    for (n, t) in times.iter().filter_map(|(n, t)| Some((n, (*t)?))) {
        let stage = t / ii;
        // Prologue instances: iterations 0..stages−1 whose absolute time
        // falls before the steady state.
        for i in 0..u64::from(stages - 1) {
            let abs = i * u64::from(ii) + u64::from(t);
            if abs < u64::from(prologue_len) {
                let bake = ExtBake::Fixed(lo + i as i64);
                let ext = |e: &_| bake_ext(e, &bake, loop_id);
                prologue.place(abs as u32, block, n, regs, ext).ok()?;
            }
        }
        // Kernel: the op of stage `s` belongs to iteration
        // `k + (stages−1) − s` where k is the kernel counter.
        let bake = ExtBake::Shifted(i64::from(stages - 1 - stage));
        let ext = |e: &_| bake_ext(e, &bake, loop_id);
        kernel.place(t % ii, block, n, regs, ext).ok()?;
        // Epilogue: the tail instances of the last `stages−1`
        // iterations. Iteration i executes op at absolute i·II + t; the
        // epilogue starts at absolute (kernel_count + stages − 1)·II...
        // relative to the epilogue, instance of iteration
        // count−1−d (d = 0..stages−1) lands at
        // t − (d+1)·II (only when non-negative).
        for d in 0..u64::from(stages - 1) {
            let rel = i64::from(t) - (d as i64 + 1) * i64::from(ii);
            if rel >= 0 {
                let bake = ExtBake::Fixed(lo + (count - 1 - d) as i64);
                let ext = |e: &_| bake_ext(e, &bake, loop_id);
                epilogue.place(rel as u32, block, n, regs, ext).ok()?;
            }
        }
    }

    Some(PipelinedLoop {
        prologue: prologue.finish(),
        kernel: kernel.finish(),
        epilogue: epilogue.finish(),
        ii,
        stages,
        kernel_count,
        regs_used: alloc.regs_used,
    })
}

enum ExtBake {
    /// The instance belongs to a fixed iteration: substitute the loop
    /// variable's value into the affine index.
    Fixed(i64),
    /// Kernel instance: keep the loop term (the kernel counter) and add
    /// `coeff × shift` for the stage offset.
    Shifted(i64),
}

fn bake_ext(ext: &Option<HostSlot>, bake: &ExtBake, loop_id: LoopId) -> Option<HostSlot> {
    let slot = ext.as_ref()?;
    Some(match slot {
        HostSlot::Lit(v) => HostSlot::Lit(*v),
        HostSlot::Elem { var, index } => {
            let coeff = index.coeff(loop_id);
            let mut index = index.clone();
            match bake {
                ExtBake::Fixed(value) => {
                    index = index.sub(&Affine::term(loop_id, coeff));
                    index.constant += coeff * value;
                }
                ExtBake::Shifted(shift) => {
                    index.constant += coeff * shift;
                }
            }
            HostSlot::Elem { var: *var, index }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CellMachine;
    use w2_lang::ast::{Chan, Dir};
    use w2_lang::hir::VarId;
    use warp_ir::{Block, Node};

    /// [`try_pipeline`] on the default machine, for loop 0 starting at 0.
    fn pipeline(b: &Block, count: u64, baseline_len: u32) -> Option<PipelinedLoop> {
        let machine = CellMachine::default();
        try_pipeline(
            &BlockFacts::new(b, &machine),
            count,
            LoopId(0),
            0,
            baseline_len,
        )
    }

    fn node(b: &mut Block, kind: NodeKind, inputs: Vec<NodeId>, deps: Vec<NodeId>) -> NodeId {
        b.nodes.push(Node { kind, inputs, deps })
    }

    /// recv -> fmul -> fadd -> send: a classic 1-result-per-iteration
    /// stream with long latency.
    fn stream_block() -> Block {
        let mut b = Block::new();
        let r = node(
            &mut b,
            NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            vec![],
            vec![],
        );
        b.roots.push(r);
        let c = node(&mut b, NodeKind::ConstF(2.0), vec![], vec![]);
        let m = node(&mut b, NodeKind::FMul, vec![r, c], vec![]);
        let c1 = node(&mut b, NodeKind::ConstF(1.0), vec![], vec![]);
        let a = node(&mut b, NodeKind::FAdd, vec![m, c1], vec![]);
        let s = node(
            &mut b,
            NodeKind::Send {
                dir: Dir::Right,
                chan: Chan::X,
                ext: None,
            },
            vec![a],
            vec![],
        );
        b.roots.push(s);
        b
    }

    #[test]
    fn pipelines_a_latency_bound_stream() {
        let b = stream_block();
        // Baseline: recv(1) + mul(5) + add(5) + send ≈ 13 cycles.
        let p = pipeline(&b, 32, 13).expect("pipelines");
        assert!(p.ii < 13, "II {} must beat the baseline", p.ii);
        assert!(p.stages >= 2);
        assert_eq!(p.kernel.len(), p.ii);
        assert_eq!(p.kernel_count, 32 - u64::from(p.stages) + 1);
        assert_eq!(p.prologue.len(), (p.stages - 1) * p.ii);
        // Every iteration's recv and send appear exactly once across
        // prologue + kernel×count + epilogue.
        let recvs = |bc: &BlockCode| bc.io_events.iter().filter(|e| e.is_recv).count() as u64;
        let total = recvs(&p.prologue) + recvs(&p.kernel) * p.kernel_count + recvs(&p.epilogue);
        assert_eq!(total, 32);
    }

    #[test]
    fn reaches_the_resource_bound_ii() {
        // One op per unit class and no recurrence: IMS should reach
        // II = 1 (one result per cycle — the paper's throughput goal).
        let b = stream_block();
        let p = pipeline(&b, 64, 13).expect("pipelines");
        assert_eq!(p.ii, 1, "no recurrence and unit-disjoint ops: II=1");
    }

    #[test]
    fn refuses_iu_addressed_loops() {
        let mut b = Block::new();
        let r = node(
            &mut b,
            NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            vec![],
            vec![],
        );
        b.roots.push(r);
        let st = node(
            &mut b,
            NodeKind::Store {
                var: VarId(0),
                addr: Affine::term(LoopId(0), 1),
            },
            vec![r],
            vec![],
        );
        b.roots.push(st);
        assert!(pipeline(&b, 32, 10).is_none());
    }

    #[test]
    fn refuses_short_loops() {
        let b = stream_block();
        // Fewer iterations than stages: cannot fill the pipe.
        assert!(pipeline(&b, 1, 13).is_none());
    }

    /// load a; a' = a+1; store a — a serial accumulator whose
    /// loop-carried cycle (store →(dist 1) load → add → store) bounds
    /// the II from below.
    fn accumulator_block() -> Block {
        let mut b = Block::new();
        let l = node(
            &mut b,
            NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(3),
            },
            vec![],
            vec![],
        );
        let c = node(&mut b, NodeKind::ConstF(1.0), vec![], vec![]);
        let a = node(&mut b, NodeKind::FAdd, vec![l, c], vec![]);
        let st = node(
            &mut b,
            NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(3),
            },
            vec![a],
            vec![l],
        );
        b.roots.push(st);
        b
    }

    #[test]
    fn recurrence_mii_bounds_the_accumulator() {
        // The cycle store →(dist 1) load →(lat 1) add →(lat 5) store
        // (lat 1) has Σlat = 7 over distance 1, so RecMII = 7.
        let b = accumulator_block();
        let machine = CellMachine::default();
        assert_eq!(rec_mii(&BlockFacts::new(&b, &machine), 100), 7);
    }

    #[test]
    fn cross_iteration_memory_edges_exist() {
        let b = accumulator_block();
        match pipeline(&b, 32, 8) {
            None => {} // fine: no profitable II
            Some(p) => {
                // If it pipelines, the recurrence constraint must hold:
                // next iteration's load at least 1 cycle after this
                // store, i.e. t_load + II >= t_store + 1.
                assert!(p.ii >= 7, "accumulator recurrence bounds II, got {}", p.ii);
            }
        }
    }

    #[test]
    fn resource_mii_counts_ports() {
        let b = stream_block();
        let machine = CellMachine::default();
        // 1 recv on LX, 1 send on RX, 1 add, 1 mul: MII = 1.
        assert_eq!(resource_mii(&BlockFacts::new(&b, &machine)), 1);
    }

    #[test]
    fn schedules_validate_under_the_modulo_checker() {
        for block in [stream_block(), accumulator_block()] {
            let machine = CellMachine::default();
            let facts = BlockFacts::new(&block, &machine);
            for ii in 1u32..16 {
                if let Some(times) = ims_schedule(&facts, ii, 16) {
                    check(&facts, &times, ii, true).unwrap_or_else(|e| panic!("II {ii}: {e}"));
                }
            }
        }
    }

    #[test]
    fn eviction_resolves_contended_units() {
        // Four adds feeding a chain: the add FPU is the bottleneck
        // (ResMII = 4) and a greedy one-pass placement of the chain
        // tail easily collides; IMS must still find II = 4.
        let mut b = Block::new();
        let r = node(
            &mut b,
            NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            vec![],
            vec![],
        );
        b.roots.push(r);
        let mut acc = r;
        for _ in 0..4 {
            let c = node(&mut b, NodeKind::ConstF(1.0), vec![], vec![]);
            acc = node(&mut b, NodeKind::FAdd, vec![acc, c], vec![]);
        }
        let s = node(
            &mut b,
            NodeKind::Send {
                dir: Dir::Right,
                chan: Chan::X,
                ext: None,
            },
            vec![acc],
            vec![],
        );
        b.roots.push(s);
        // Baseline ≈ 1 + 4·5 + 1 = 22 cycles.
        let p = pipeline(&b, 64, 22).expect("pipelines");
        assert_eq!(p.ii, 4, "add FPU bound: II = number of adds");
    }

    #[test]
    fn shared_registers_stay_below_one_per_value() {
        // A long chain of dependent adds: values die quickly, so the
        // cyclic-arc allocator must share registers rather than burn
        // one per value.
        let mut b = Block::new();
        let r = node(
            &mut b,
            NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            vec![],
            vec![],
        );
        b.roots.push(r);
        let mut acc = r;
        for _ in 0..6 {
            let c = node(&mut b, NodeKind::ConstF(1.0), vec![], vec![]);
            acc = node(&mut b, NodeKind::FAdd, vec![acc, c], vec![]);
        }
        let s = node(
            &mut b,
            NodeKind::Send {
                dir: Dir::Right,
                chan: Chan::X,
                ext: None,
            },
            vec![acc],
            vec![],
        );
        b.roots.push(s);
        if let Some(p) = pipeline(&b, 64, 32) {
            assert!(
                p.regs_used <= 7,
                "7 values with short lifetimes should share, used {}",
                p.regs_used
            );
        }
    }

    /// Deterministic xorshift for the property generator below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    /// A random loop body: a few recvs and constant-address loads
    /// feeding a random arithmetic DAG, drained by sends and a
    /// constant-address store (dep-ordered after the load of the same
    /// address to model a loop-carried scalar).
    fn random_block(rng: &mut Rng) -> Block {
        let mut b = Block::new();
        let mut pool: Vec<NodeId> = Vec::new();
        let dirs = [Dir::Left, Dir::Right];
        let chans = [Chan::X, Chan::Y];
        for i in 0..1 + rng.below(2) {
            let r = node(
                &mut b,
                NodeKind::Recv {
                    dir: dirs[i as usize % 2],
                    chan: chans[rng.below(2) as usize],
                    ext: None,
                },
                vec![],
                vec![],
            );
            b.roots.push(r);
            pool.push(r);
        }
        let load = if rng.below(2) == 0 {
            let l = node(
                &mut b,
                NodeKind::Load {
                    var: VarId(0),
                    addr: Affine::constant(rng.below(4) as i64),
                },
                vec![],
                vec![],
            );
            pool.push(l);
            Some(l)
        } else {
            None
        };
        pool.push(node(
            &mut b,
            NodeKind::ConstF(rng.below(9) as f32 - 4.0),
            vec![],
            vec![],
        ));
        for _ in 0..2 + rng.below(7) {
            let x = pool[rng.below(pool.len() as u64) as usize];
            let y = pool[rng.below(pool.len() as u64) as usize];
            let kind = match rng.below(3) {
                0 => NodeKind::FAdd,
                1 => NodeKind::FSub,
                _ => NodeKind::FMul,
            };
            pool.push(node(&mut b, kind, vec![x, y], vec![]));
        }
        for i in 0..1 + rng.below(2) {
            let v = pool[rng.below(pool.len() as u64) as usize];
            let s = node(
                &mut b,
                NodeKind::Send {
                    dir: dirs[(i as usize + 1) % 2],
                    chan: chans[rng.below(2) as usize],
                    ext: None,
                },
                vec![v],
                vec![],
            );
            b.roots.push(s);
        }
        if let Some(l) = load {
            let v = pool[rng.below(pool.len() as u64) as usize];
            let st = node(
                &mut b,
                NodeKind::Store {
                    var: VarId(0),
                    addr: Affine::constant(rng.below(4) as i64),
                },
                vec![v],
                vec![l],
            );
            b.roots.push(st);
        }
        b
    }

    /// The scan [`rec_mii`] bisects: the first II without a positive
    /// cycle, tried in order.
    fn rec_mii_by_scan(facts: &BlockFacts<'_>, cap: u32) -> u32 {
        let mut pot = facts.table(0i64);
        (1..cap)
            .find(|&ii| !has_positive_cycle(facts, ii, &mut pot))
            .unwrap_or(cap)
    }

    #[test]
    fn rec_mii_by_bisection_agrees_with_the_scan() {
        let machine = CellMachine::default();
        let mut rng = Rng(0x5EED_0FB1_5EC7_0001);
        let mut bodies: Vec<Block> = (0..600).map(|_| random_block(&mut rng)).collect();
        bodies.push(accumulator_block());
        let mut bounded = 0u32;
        for b in &bodies {
            let facts = BlockFacts::new(b, &machine);
            for cap in [1, 2, 8, 64] {
                let want = rec_mii_by_scan(&facts, cap);
                assert_eq!(rec_mii(&facts, cap), want, "cap {cap}\nblock: {b:?}");
                bounded += u32::from(want > 1 && want < cap);
            }
        }
        assert!(bounded > 100, "only {bounded} recurrence-bound answers");
        // The accumulator needs II ≥ 7: under a cap of 7 or less every
        // II tried is infeasible and the cap itself comes back.
        let acc = accumulator_block();
        let facts = BlockFacts::new(&acc, &machine);
        for cap in [0, 1, 2, 6, 7] {
            assert_eq!(rec_mii_by_scan(&facts, cap), cap);
            assert_eq!(rec_mii(&facts, cap), cap);
        }
        assert_eq!(rec_mii(&facts, 8), 7);
    }

    #[test]
    fn random_schedules_respect_latencies_deps_and_unit_limits() {
        // The property the modulo checker enforces slot by slot: every
        // value edge waits out its producer's latency, every
        // sequencing/FIFO/memory edge holds across iterations at
        // distance `dist`, and no modulo slot oversubscribes the add
        // FPU, mul FPU, memory ports, or an I/O port.
        let machine = CellMachine::default();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut scheduled = 0u32;
        for _ in 0..200 {
            let b = random_block(&mut rng);
            let facts = BlockFacts::new(&b, &machine);
            let mii = resource_mii(&facts).max(rec_mii(&facts, 64)).max(1);
            for ii in mii..mii + 8 {
                if let Some(times) = ims_schedule(&facts, ii, 48) {
                    scheduled += 1;
                    check(&facts, &times, ii, true)
                        .unwrap_or_else(|e| panic!("II {ii}: {e}\nblock: {b:?}"));
                }
            }
        }
        assert!(
            scheduled > 100,
            "generator should produce schedulable bodies, got {scheduled}"
        );
    }

    #[test]
    fn random_pipelines_conserve_io_and_profitability() {
        // End-to-end over the same generator: whenever try_pipeline
        // fires, the emitted prologue/kernel/epilogue must conserve
        // every iteration's I/O events and beat the baseline strictly.
        let mut rng = Rng(0x0123_4567_89AB_CDEF);
        let mut pipelined = 0u32;
        for _ in 0..100 {
            let b = random_block(&mut rng);
            let count = 8 + rng.below(57);
            // A pessimistic serial baseline: the critical path with
            // each op's full latency (what the list scheduler cannot
            // beat in the worst case).
            let baseline = 4 * b.live_nodes().len().max(1) as u32;
            let Some(p) = pipeline(&b, count, baseline) else {
                continue;
            };
            pipelined += 1;
            let recvs = |bc: &BlockCode| bc.io_events.iter().filter(|e| e.is_recv).count() as u64;
            let sends = |bc: &BlockCode| bc.io_events.iter().filter(|e| !e.is_recv).count() as u64;
            let live = b.live_nodes();
            let n_recv = live
                .iter()
                .filter(|&&n| matches!(b.nodes[n].kind, NodeKind::Recv { .. }))
                .count() as u64;
            let n_send = live
                .iter()
                .filter(|&&n| matches!(b.nodes[n].kind, NodeKind::Send { .. }))
                .count() as u64;
            assert_eq!(
                recvs(&p.prologue) + recvs(&p.kernel) * p.kernel_count + recvs(&p.epilogue),
                n_recv * count,
                "recv conservation"
            );
            assert_eq!(
                sends(&p.prologue) + sends(&p.kernel) * p.kernel_count + sends(&p.epilogue),
                n_send * count,
                "send conservation"
            );
            let piped = p.prologue.len() as u64
                + u64::from(p.ii) * p.kernel_count
                + p.epilogue.len() as u64;
            assert!(
                piped < count * u64::from(baseline),
                "profitability gate: {piped} vs {}",
                count * u64::from(baseline)
            );
        }
        assert!(
            pipelined > 20,
            "generator too hostile: {pipelined} pipelined"
        );
    }
}
