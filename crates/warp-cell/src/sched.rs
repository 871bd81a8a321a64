//! Schedules of block DAGs on the cell datapath.
//!
//! The paper bases cell scheduling on hardware pipelining techniques
//! (Patel & Davidson; Rau & Glaeser — §6.2). A schedule assigns every
//! DAG node an issue cycle; a modulo schedule (see [`crate::modulo`])
//! additionally repeats every II cycles. Either kind is legal when
//!
//! * every precedence edge of [`build_edges`] holds: a value operand
//!   was issued at least `latency(producer)` cycles earlier, a
//!   sequencing dep at least 1 cycle earlier, and (when the schedule
//!   wraps) loop-carried FIFO and memory order survives the overlap,
//! * no cycle over-subscribes a functional unit (1 op per FPU, 2 memory
//!   references, 1 op per I/O port).
//!
//! This module holds that shared definition ([`EdgeSpec`], a table of
//! `UnitRow`s, one legality check) and the classic resource-constrained
//! list scheduler with critical-path priority.

use crate::machine::{io_index, CellMachine, Unit, UnitRow};
use std::collections::HashMap;
use warp_ir::{Block, NodeId, NodeKind};

/// The issue schedule of one block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockSchedule {
    /// Issue cycle per live node.
    pub time: HashMap<NodeId, u32>,
    /// Block length in cycles (max issue cycle + 1; 0 for empty blocks).
    pub len: u32,
}

/// One precedence constraint `t(to) ≥ t(from) + lat − dist·II`.
#[derive(Clone, Copy, Debug)]
pub struct EdgeSpec {
    /// Producing (or earlier) op.
    pub from: NodeId,
    /// Consuming (or later) op.
    pub to: NodeId,
    /// Minimum issue distance in cycles.
    pub lat: i64,
    /// Iteration distance (0 = same iteration, 1 = loop-carried).
    pub dist: i64,
}

/// All precedence constraints: `t(to) ≥ t(from) + lat − dist·II`.
pub fn build_edges(block: &Block, machine: &CellMachine, live: &[NodeId]) -> Vec<EdgeSpec> {
    let mut edges = Vec::new();
    for &n in live {
        let node = &block.nodes[n];
        for &p in &node.inputs {
            if matches!(
                block.nodes[p].kind,
                NodeKind::ConstF(_) | NodeKind::ConstB(_)
            ) {
                continue;
            }
            edges.push(EdgeSpec {
                from: p,
                to: n,
                lat: i64::from(machine.latency_of(&block.nodes[p].kind).max(1)),
                dist: 0,
            });
        }
        for &d in &node.deps {
            edges.push(EdgeSpec {
                from: d,
                to: n,
                lat: 1,
                dist: 0,
            });
        }
    }

    // Channel FIFO order across iterations: the last op of iteration i
    // precedes the first op of iteration i+1 in absolute time.
    let mut per_port: HashMap<(usize, bool), Vec<NodeId>> = HashMap::new();
    for &n in live {
        match &block.nodes[n].kind {
            NodeKind::Recv { dir, chan, .. } => per_port
                .entry((io_index(*dir, *chan), true))
                .or_default()
                .push(n),
            NodeKind::Send { dir, chan, .. } => per_port
                .entry((io_index(*dir, *chan), false))
                .or_default()
                .push(n),
            _ => {}
        }
    }
    for ops in per_port.values() {
        if let (Some(&first), Some(&last)) = (ops.first(), ops.last()) {
            edges.push(EdgeSpec {
                from: last,
                to: first,
                lat: 1,
                dist: 1,
            });
        }
    }

    // Memory cells (constant addresses) shared by all iterations: any
    // two conflicting accesses must keep their relative order across
    // iterations too.
    let mut per_addr: HashMap<i64, Vec<(NodeId, bool)>> = HashMap::new();
    for &n in live {
        match &block.nodes[n].kind {
            NodeKind::Load { addr, .. } => {
                per_addr.entry(addr.constant).or_default().push((n, false))
            }
            NodeKind::Store { addr, .. } => {
                per_addr.entry(addr.constant).or_default().push((n, true))
            }
            _ => {}
        }
    }
    for ops in per_addr.values() {
        for &(a, a_store) in ops {
            for &(b, b_store) in ops {
                if a == b || (!a_store && !b_store) {
                    continue;
                }
                // b of iteration i+1 must follow a of iteration i.
                edges.push(EdgeSpec {
                    from: a,
                    to: b,
                    lat: 1,
                    dist: 1,
                });
            }
        }
    }
    edges
}

/// Successor lists and predecessor counts over the value and sequencing
/// edges of the live nodes (liveness is closed under both, so every
/// predecessor is itself in `live`).
pub(crate) fn successors(
    block: &Block,
    live: &[NodeId],
) -> (HashMap<NodeId, Vec<NodeId>>, HashMap<NodeId, u32>) {
    let mut succs: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut preds: HashMap<NodeId, u32> = HashMap::new();
    for &n in live {
        let node = &block.nodes[n];
        for &p in node.inputs.iter().chain(&node.deps) {
            succs.entry(p).or_default().push(n);
        }
        preds.insert(n, (node.inputs.len() + node.deps.len()) as u32);
    }
    (succs, preds)
}

/// The one legality check behind [`validate`] and
/// [`crate::modulo::validate_modulo`]. The schedule occupies `rows`
/// unit rows: a list schedule one per cycle of the block, a modulo
/// schedule (`wraps`) one per cycle of the II. When it wraps, an op
/// issued at `t` lands in row `t % rows` and a loop-carried edge gains
/// `dist · rows` cycles of slack; when it does not, only same-iteration
/// edges apply and every op must lie inside the block.
///
/// # Errors
///
/// Returns a description of the first violated constraint.
pub(crate) fn check(
    block: &Block,
    machine: &CellMachine,
    live: &[NodeId],
    edges: &[EdgeSpec],
    time: &HashMap<NodeId, u32>,
    rows: u32,
    wraps: bool,
) -> Result<(), String> {
    for e in edges {
        if e.dist != 0 && !wraps {
            continue;
        }
        let (Some(&tf), Some(&tt)) = (time.get(&e.from), time.get(&e.to)) else {
            continue;
        };
        if i64::from(tt) < i64::from(tf) + e.lat - e.dist * i64::from(rows) {
            return Err(format!(
                "edge {:?}->{:?} (lat {}, dist {}) violated: t={tf} vs t={tt} over {rows} rows",
                e.from, e.to, e.lat, e.dist
            ));
        }
    }
    let mut table = vec![UnitRow::default(); rows as usize];
    for &n in live {
        let unit = machine.unit_of(&block.nodes[n].kind);
        if unit == Unit::None {
            continue;
        }
        let &t = time
            .get(&n)
            .ok_or_else(|| format!("live op {n:?} is unscheduled"))?;
        let r = if wraps { t % rows } else { t };
        let row = table
            .get_mut(r as usize)
            .ok_or_else(|| format!("{n:?}@{t} beyond block length {rows}"))?;
        if !row.is_free(unit, machine) {
            return Err(format!("{unit:?} oversubscribed in row {r}"));
        }
        row.take(unit, n);
    }
    Ok(())
}

/// Computes a legal schedule for `block` on `machine`.
///
/// Constants are given cycle 0 and occupy no resources (they live in the
/// instruction's literal field).
pub fn schedule(block: &Block, machine: &CellMachine) -> BlockSchedule {
    let live = block.live_nodes();
    if live.is_empty() {
        return BlockSchedule::default();
    }
    let (succs, mut preds_left) = successors(block, &live);

    // Critical-path priority: height to the furthest sink, weighted by
    // result latency.
    let mut height: HashMap<NodeId, u64> = HashMap::new();
    for &n in live.iter().rev() {
        let node = &block.nodes[n];
        let lat = u64::from(machine.latency_of(&node.kind)).max(1);
        let h = succs
            .get(&n)
            .into_iter()
            .flatten()
            .map(|s| height.get(s).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
            + lat;
        height.insert(n, h);
    }

    let mut time: HashMap<NodeId, u32> = HashMap::new();
    // Earliest legal issue cycle, updated as predecessors schedule.
    let mut earliest: HashMap<NodeId, u32> = HashMap::new();
    let mut ready: Vec<NodeId> = Vec::new();
    for &n in &live {
        if preds_left[&n] == 0 {
            ready.push(n);
            earliest.insert(n, 0);
        }
    }

    let mut rows: Vec<UnitRow> = Vec::new();
    let mut scheduled = 0usize;
    let mut cycle: u32 = 0;
    let mut max_issue: u32 = 0;
    let mut any_real = false;

    while scheduled < live.len() {
        // Highest priority first; ties broken by creation order for
        // determinism.
        ready.sort_by_key(|&n| (std::cmp::Reverse(height[&n]), n));
        let mut placed_any = false;
        let mut i = 0;
        while i < ready.len() {
            let n = ready[i];
            if earliest[&n] > cycle {
                i += 1;
                continue;
            }
            let kind = &block.nodes[n].kind;
            let unit = machine.unit_of(kind);
            if unit == Unit::None {
                // Literal: free at its earliest cycle.
                time.insert(n, earliest[&n]);
            } else {
                while rows.len() <= cycle as usize {
                    rows.push(UnitRow::default());
                }
                if !rows[cycle as usize].is_free(unit, machine) {
                    i += 1;
                    continue;
                }
                rows[cycle as usize].take(unit, n);
                time.insert(n, cycle);
                max_issue = max_issue.max(cycle);
                any_real = true;
            }
            placed_any = true;
            scheduled += 1;
            ready.swap_remove(i);
            // Release successors.
            let lat = machine.latency_of(kind);
            let t = time[&n];
            for &s in succs.get(&n).into_iter().flatten() {
                let node_s = &block.nodes[s];
                let is_value_edge = node_s.inputs.contains(&n);
                // Literals have latency 0 and may feed a consumer in the
                // same cycle; real units deliver after their latency.
                let gap = if is_value_edge { lat } else { 1 };
                let e = earliest.entry(s).or_insert(0);
                *e = (*e).max(t + gap);
                let left = preds_left.get_mut(&s).expect("tracked");
                *left -= 1;
                if *left == 0 {
                    ready.push(s);
                }
            }
        }
        if scheduled < live.len() && !placed_any {
            cycle += 1;
        } else if scheduled < live.len() {
            // Try to pack more into this cycle before advancing. If
            // nothing else fits, the next loop iteration detects it.
            if ready.iter().all(|&n| {
                earliest[&n] > cycle || {
                    let unit = machine.unit_of(&block.nodes[n].kind);
                    rows.get(cycle as usize)
                        .is_some_and(|r| !r.is_free(unit, machine))
                }
            }) {
                cycle += 1;
            }
        }
    }

    let mut sched = BlockSchedule {
        time,
        len: if any_real { max_issue + 1 } else { 0 },
    };
    sink_loads(block, machine, &mut rows, &mut sched);
    sched
}

/// Moves memory reads as late as their consumers allow.
///
/// The list scheduler is eager: it issues a load as soon as a port is
/// free, which can stretch the value's live range across most of the
/// block. Sinking each load towards its first consumer shortens live
/// ranges, which is what lets the spill-and-reschedule loop in
/// [`crate::codegen`] converge under small register files.
fn sink_loads(
    block: &Block,
    machine: &CellMachine,
    rows: &mut [UnitRow],
    sched: &mut BlockSchedule,
) {
    let live = block.live_nodes();
    // Earliest consumer per node, and dep successors to respect.
    let mut first_use: HashMap<NodeId, u32> = HashMap::new();
    let mut dep_succ: HashMap<NodeId, u32> = HashMap::new();
    for &n in &live {
        let t = sched.time[&n];
        for &p in &block.nodes[n].inputs {
            let e = first_use.entry(p).or_insert(t);
            *e = (*e).min(t);
        }
        for &d in &block.nodes[n].deps {
            let e = dep_succ.entry(d).or_insert(t);
            *e = (*e).min(t);
        }
    }
    // Sink in reverse issue order so consumers move before producers.
    let mut loads: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|&n| matches!(block.nodes[n].kind, NodeKind::Load { .. }))
        .collect();
    loads.sort_by_key(|&n| std::cmp::Reverse(sched.time[&n]));
    for n in loads {
        let t = sched.time[&n];
        let lat = machine.latency_of(&block.nodes[n].kind);
        let mut upper = u32::MAX;
        if let Some(&u) = first_use.get(&n) {
            upper = upper.min(u.saturating_sub(lat));
        }
        if let Some(&d) = dep_succ.get(&n) {
            upper = upper.min(d.saturating_sub(1));
        }
        if upper == u32::MAX {
            continue; // result unused and nothing ordered after: leave it
        }
        // Latest cycle in (t, upper] with a free port. `upper` is bounded
        // by the issue cycle of a unit-holding op, so its row exists.
        let target = (t + 1..=upper)
            .rev()
            .find(|&c| rows[c as usize].is_free(Unit::Mem, machine));
        if let Some(c) = target {
            rows[t as usize].release(Unit::Mem, n);
            rows[c as usize].take(Unit::Mem, n);
            sched.time.insert(n, c);
        }
    }
}

/// Checks that `sched` is legal for `block` on `machine`.
///
/// # Errors
///
/// Returns a description of the first violated constraint. Used by tests
/// and property checks.
pub fn validate(block: &Block, machine: &CellMachine, sched: &BlockSchedule) -> Result<(), String> {
    let live = block.live_nodes();
    let edges = build_edges(block, machine, &live);
    check(block, machine, &live, &edges, &sched.time, sched.len, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::hir::VarId;
    use warp_ir::{Affine, Node};

    fn node(block: &mut Block, kind: NodeKind, inputs: Vec<NodeId>, deps: Vec<NodeId>) -> NodeId {
        block.nodes.push(Node { kind, inputs, deps })
    }

    fn load(block: &mut Block, addr: i64) -> NodeId {
        node(
            block,
            NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(addr),
            },
            vec![],
            vec![],
        )
    }

    fn root_store(block: &mut Block, value: NodeId, addr: i64) -> NodeId {
        let s = node(
            block,
            NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(addr),
            },
            vec![value],
            vec![],
        );
        block.roots.push(s);
        s
    }

    #[test]
    fn empty_block() {
        let b = Block::new();
        let s = schedule(&b, &CellMachine::default());
        assert_eq!(s.len, 0);
        assert!(validate(&b, &CellMachine::default(), &s).is_ok());
    }

    #[test]
    fn latency_respected() {
        let m = CellMachine::default();
        let mut b = Block::new();
        let a = load(&mut b, 0);
        let c = load(&mut b, 1);
        let sum = node(&mut b, NodeKind::FAdd, vec![a, c], vec![]);
        root_store(&mut b, sum, 2);
        let s = schedule(&b, &m);
        validate(&b, &m, &s).expect("legal");
        // loads at 0 (two ports), add at 1, store at 1+5=6, len 7.
        assert_eq!(s.time[&sum], 1);
        assert_eq!(s.len, 7);
    }

    #[test]
    fn mem_port_limit() {
        let m = CellMachine::default();
        let mut b = Block::new();
        let loads: Vec<NodeId> = (0..4).map(|i| load(&mut b, i)).collect();
        // Sum all four so everything is live.
        let s1 = node(&mut b, NodeKind::FAdd, vec![loads[0], loads[1]], vec![]);
        let s2 = node(&mut b, NodeKind::FAdd, vec![loads[2], loads[3]], vec![]);
        let s3 = node(&mut b, NodeKind::FMul, vec![s1, s2], vec![]);
        root_store(&mut b, s3, 9);
        let s = schedule(&b, &m);
        validate(&b, &m, &s).expect("legal");
        // 4 loads over 2 ports: cycles 0 and 1.
        let load_cycles: Vec<u32> = loads.iter().map(|l| s.time[l]).collect();
        assert!(load_cycles.iter().filter(|&&t| t == 0).count() <= 2);
    }

    #[test]
    fn fpu_units_run_in_parallel() {
        let m = CellMachine::default();
        let mut b = Block::new();
        let a = load(&mut b, 0);
        let c = load(&mut b, 1);
        let sum = node(&mut b, NodeKind::FAdd, vec![a, c], vec![]);
        let prod = node(&mut b, NodeKind::FMul, vec![a, c], vec![]);
        root_store(&mut b, sum, 2);
        root_store(&mut b, prod, 3);
        let s = schedule(&b, &m);
        validate(&b, &m, &s).expect("legal");
        assert_eq!(s.time[&sum], s.time[&prod], "different units, same cycle");
    }

    #[test]
    fn dep_edges_enforce_order() {
        let m = CellMachine::default();
        let mut b = Block::new();
        let v = load(&mut b, 0);
        let st = root_store(&mut b, v, 5);
        // A load that must follow the store (may-alias).
        let l2 = node(
            &mut b,
            NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(5),
            },
            vec![],
            vec![st],
        );
        root_store(&mut b, l2, 6);
        let s = schedule(&b, &m);
        validate(&b, &m, &s).expect("legal");
        assert!(s.time[&l2] > s.time[&st]);
    }

    #[test]
    fn consts_are_free() {
        let m = CellMachine::default();
        let mut b = Block::new();
        let c1 = node(&mut b, NodeKind::ConstF(1.0), vec![], vec![]);
        let c2 = node(&mut b, NodeKind::ConstF(2.0), vec![], vec![]);
        let sum = node(&mut b, NodeKind::FAdd, vec![c1, c2], vec![]);
        root_store(&mut b, sum, 0);
        let s = schedule(&b, &m);
        validate(&b, &m, &s).expect("legal");
        assert_eq!(s.time[&sum], 0);
        assert_eq!(s.len, 6); // add at 0, store at 5.
    }

    #[test]
    fn io_port_serializes_same_channel() {
        use w2_lang::ast::{Chan, Dir};
        let m = CellMachine::default();
        let mut b = Block::new();
        let r1 = node(
            &mut b,
            NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            vec![],
            vec![],
        );
        let r2 = node(
            &mut b,
            NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            vec![],
            vec![r1],
        );
        b.roots.push(r1);
        b.roots.push(r2);
        root_store(&mut b, r1, 0);
        root_store(&mut b, r2, 1);
        let s = schedule(&b, &m);
        validate(&b, &m, &s).expect("legal");
        assert!(s.time[&r2] > s.time[&r1]);
    }

    #[test]
    fn critical_path_priority_prefers_long_chain() {
        let m = CellMachine::default();
        let mut b = Block::new();
        // Long chain: l0 -> mul -> mul -> store. Short: l1 -> store.
        let l0 = load(&mut b, 0);
        let l1 = load(&mut b, 1);
        let m1 = node(&mut b, NodeKind::FMul, vec![l0, l0], vec![]);
        let m2 = node(&mut b, NodeKind::FMul, vec![m1, m1], vec![]);
        root_store(&mut b, m2, 2);
        root_store(&mut b, l1, 3);
        let s = schedule(&b, &m);
        validate(&b, &m, &s).expect("legal");
        // The chain head must be scheduled in cycle 0.
        assert_eq!(s.time[&l0], 0);
    }
}
