//! Schedules of block DAGs on the cell datapath.
//!
//! The paper bases cell scheduling on hardware pipelining techniques
//! (Patel & Davidson; Rau & Glaeser — §6.2). A schedule assigns every
//! DAG node an issue cycle; a modulo schedule (see [`crate::modulo`])
//! additionally repeats every II cycles. Either kind is legal when
//!
//! * every precedence edge of `BlockFacts::edges` holds: a value
//!   operand was issued at least `latency(producer)` cycles earlier, a
//!   sequencing dep at least 1 cycle earlier, and (when the schedule
//!   wraps) loop-carried FIFO and memory order survives the overlap,
//! * no cycle over-subscribes a functional unit (1 op per FPU, 2 memory
//!   references, 1 op per I/O port).
//!
//! This module holds that shared definition ([`BlockFacts`], a table of
//! `UnitRow`s, one legality check) and the classic resource-constrained
//! list scheduler with critical-path priority.
//!
//! `NodeId` is a dense index into the block's arena, so every per-node
//! table here and in the passes downstream is a vector indexed by it,
//! sized once per block: no pass hashes a node id, and no iteration
//! order other than creation order can reach the output.

use crate::machine::{io_index, CellMachine, Unit, UnitRow};
use warp_common::idvec::Id as _;
use warp_common::IdVec;
use warp_ir::{Block, NodeId, NodeKind};

/// Issue cycle per node; `None` for a dead node or one not (yet) placed.
pub(crate) type Times = IdVec<NodeId, Option<u32>>;

/// The issue schedule of one block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockSchedule {
    /// Issue cycle per live node.
    pub(crate) time: Times,
    /// Block length in cycles (max issue cycle + 1; 0 for empty blocks).
    pub len: u32,
}

impl BlockSchedule {
    /// The issue cycle of live node `n`.
    pub(crate) fn at(&self, n: NodeId) -> u32 {
        self.time[n].expect("every live node is scheduled")
    }
}

/// One precedence constraint `t(to) ≥ t(from) + lat − dist·II`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EdgeSpec {
    /// Producing (or earlier) op.
    pub from: NodeId,
    /// Consuming (or later) op.
    pub to: NodeId,
    /// Minimum issue distance in cycles.
    pub lat: i64,
    /// Iteration distance (0 = same iteration, 1 = loop-carried).
    pub dist: i64,
}

/// A relation from nodes to small integers in flat (CSR) form: the row
/// of node `n` is `items[start[n]..start[n + 1]]`, in the order its
/// pairs were given.
struct Rows {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Rows {
    fn new(nodes: usize, pairs: impl Iterator<Item = (NodeId, u32)> + Clone) -> Rows {
        // Count row `n` into `start[n + 2]`; after the prefix sums
        // `start[n + 1]` is where row `n` begins, and filling advances
        // it to where the row ends, which is where row `n + 1` begins.
        let mut start = vec![0u32; nodes + 2];
        for (n, _) in pairs.clone() {
            start[n.index() + 2] += 1;
        }
        for i in 2..start.len() {
            start[i] += start[i - 1];
        }
        let mut items = vec![0u32; start[nodes + 1] as usize];
        for (n, item) in pairs {
            let next = &mut start[n.index() + 1];
            items[*next as usize] = item;
            *next += 1;
        }
        Rows { start, items }
    }

    fn of(&self, n: NodeId) -> &[u32] {
        &self.items[self.start[n.index()] as usize..self.start[n.index() + 1] as usize]
    }
}

/// What every pass of the back end needs to know about one block on one
/// machine, derived once per (block, spill round): the scheduler, the
/// load sinker, the lifetime pass, both emitters, the modulo scheduler
/// and the legality check all read these tables instead of re-walking
/// the DAG.
pub struct BlockFacts<'a> {
    pub(crate) block: &'a Block,
    pub(crate) machine: &'a CellMachine,
    /// The live nodes in creation order.
    pub(crate) live: Vec<NodeId>,
    /// The unit each node executes on.
    pub(crate) unit: IdVec<NodeId, Unit>,
    /// Each node's result latency.
    pub(crate) lat: IdVec<NodeId, u32>,
    users: Rows,
    /// How many operands and deps each live node waits for (0 for a
    /// dead node): what [`users`](Self::users) counts down.
    pub(crate) preds: IdVec<NodeId, u32>,
    /// All precedence constraints `t(to) ≥ t(from) + lat − dist·II`:
    /// the value and sequencing edges of each live node in creation
    /// order (literal operands excluded), then the loop-carried FIFO
    /// edge of each I/O port in port order, then the loop-carried memory
    /// edges of each constant address in address order.
    pub(crate) edges: Vec<EdgeSpec>,
    /// Per node, the indices into `edges` of the edges leaving and
    /// entering it, in `edges` order.
    edges_out: Rows,
    edges_in: Rows,
}

impl<'a> BlockFacts<'a> {
    /// Analyses `block` for `machine`.
    pub fn new(block: &'a Block, machine: &'a CellMachine) -> BlockFacts<'a> {
        let nodes = block.nodes.len();
        let live = block.live_nodes();
        let lat: IdVec<NodeId, u32> = block
            .nodes
            .values()
            .map(|n| machine.latency_of(&n.kind))
            .collect();
        // Liveness is closed under inputs and deps, so every
        // predecessor of a live node is itself live.
        let users = Rows::new(
            nodes,
            live.iter().flat_map(|&n| {
                let node = &block.nodes[n];
                node.inputs.iter().chain(&node.deps).map(move |&p| (p, n.0))
            }),
        );
        let mut preds: IdVec<NodeId, u32> = std::iter::repeat_n(0, nodes).collect();
        for &n in &live {
            preds[n] = (block.nodes[n].inputs.len() + block.nodes[n].deps.len()) as u32;
        }
        let edges = build_edges(block, &lat, &live);
        let numbered = || (0u32..).zip(&edges);
        BlockFacts {
            block,
            machine,
            unit: block
                .nodes
                .values()
                .map(|n| machine.unit_of(&n.kind))
                .collect(),
            edges_out: Rows::new(nodes, numbered().map(|(i, e)| (e.from, i))),
            edges_in: Rows::new(nodes, numbered().map(|(i, e)| (e.to, i))),
            live,
            lat,
            users,
            preds,
            edges,
        }
    }

    /// The live nodes that read or are sequenced after `n`, in creation
    /// order, once per operand or dep that names it (literal operands
    /// included).
    pub(crate) fn users(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.users.of(n).iter().map(|&s| NodeId(s))
    }

    /// The edges leaving `n`.
    pub(crate) fn edges_out(&self, n: NodeId) -> impl Iterator<Item = &EdgeSpec> {
        self.edges_out
            .of(n)
            .iter()
            .map(|&e| &self.edges[e as usize])
    }

    /// The edges entering `n`.
    pub(crate) fn edges_in(&self, n: NodeId) -> impl Iterator<Item = &EdgeSpec> {
        self.edges_in.of(n).iter().map(|&e| &self.edges[e as usize])
    }

    /// A per-node table holding `fill` for every node of the block.
    pub(crate) fn table<T: Clone>(&self, fill: T) -> IdVec<NodeId, T> {
        std::iter::repeat_n(fill, self.block.nodes.len()).collect()
    }
}

fn build_edges(block: &Block, lat: &IdVec<NodeId, u32>, live: &[NodeId]) -> Vec<EdgeSpec> {
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
                lat: i64::from(lat[p].max(1)),
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
    // precedes the first op of iteration i+1 in absolute time. One slot
    // per (port, send | receive).
    let mut per_port: [Option<(NodeId, NodeId)>; 8] = [None; 8];
    for &n in live {
        let slot = match &block.nodes[n].kind {
            NodeKind::Recv { dir, chan, .. } => 2 * io_index(*dir, *chan) + 1,
            NodeKind::Send { dir, chan, .. } => 2 * io_index(*dir, *chan),
            _ => continue,
        };
        per_port[slot].get_or_insert((n, n)).1 = n;
    }
    for (first, last) in per_port.into_iter().flatten() {
        edges.push(EdgeSpec {
            from: last,
            to: first,
            lat: 1,
            dist: 1,
        });
    }

    // Memory cells (constant addresses) shared by all iterations: any
    // two conflicting accesses must keep their relative order across
    // iterations too.
    let mut accesses: Vec<(i64, NodeId, bool)> = live
        .iter()
        .filter_map(|&n| match &block.nodes[n].kind {
            NodeKind::Load { addr, .. } => Some((addr.constant, n, false)),
            NodeKind::Store { addr, .. } => Some((addr.constant, n, true)),
            _ => None,
        })
        .collect();
    accesses.sort_by_key(|&(addr, ..)| addr);
    for ops in accesses.chunk_by(|a, b| a.0 == b.0) {
        for &(_, a, a_store) in ops {
            for &(_, b, b_store) in ops {
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

/// The one legality check of a schedule, list or modulo. The schedule
/// occupies `rows` unit rows: a list schedule one per cycle of the
/// block, a modulo schedule (`wraps`) one per cycle of the II. When it
/// wraps, an op issued at `t` lands in row `t % rows` and a loop-carried
/// edge gains `dist · rows` cycles of slack; when it does not, only
/// same-iteration edges apply and every op must lie inside the block.
///
/// # Errors
///
/// Returns a description of the first violated constraint.
pub(crate) fn check(
    facts: &BlockFacts<'_>,
    time: &Times,
    rows: u32,
    wraps: bool,
) -> Result<(), String> {
    for e in &facts.edges {
        if e.dist != 0 && !wraps {
            continue;
        }
        let (Some(tf), Some(tt)) = (time[e.from], time[e.to]) else {
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
    for &n in &facts.live {
        let unit = facts.unit[n];
        if unit == Unit::None {
            continue;
        }
        let t = time[n].ok_or_else(|| format!("live op {n:?} is unscheduled"))?;
        let r = if wraps { t % rows } else { t };
        let row = table
            .get_mut(r as usize)
            .ok_or_else(|| format!("{n:?}@{t} beyond block length {rows}"))?;
        if !row.is_free(unit, facts.machine) {
            return Err(format!("{unit:?} oversubscribed in row {r}"));
        }
        row.take(unit, n);
    }
    Ok(())
}

/// Computes a legal schedule for the block of `facts` on its machine.
///
/// Constants are given cycle 0 and occupy no resources (they live in the
/// instruction's literal field).
pub fn schedule(facts: &BlockFacts<'_>) -> BlockSchedule {
    let (block, machine, live) = (facts.block, facts.machine, &facts.live);
    if live.is_empty() {
        return BlockSchedule::default();
    }
    // Critical-path priority: height to the furthest sink, weighted by
    // result latency.
    let mut height = facts.table(0u64);
    for &n in live.iter().rev() {
        let lat = u64::from(facts.lat[n]).max(1);
        height[n] = facts.users(n).map(|s| height[s]).max().unwrap_or(0) + lat;
    }

    let mut time: Times = facts.table(None);
    // Earliest legal issue cycle, updated as predecessors schedule.
    let mut earliest = facts.table(0u32);
    let mut preds_left = facts.preds.clone();
    let mut ready: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|&n| preds_left[n] == 0)
        .collect();

    let mut rows: Vec<UnitRow> = Vec::new();
    let mut scheduled = 0usize;
    let mut cycle: u32 = 0;
    let mut max_issue: u32 = 0;
    let mut any_real = false;

    while scheduled < live.len() {
        // Highest priority first; ties broken by creation order for
        // determinism.
        ready.sort_by_key(|&n| (std::cmp::Reverse(height[n]), n));
        let mut placed_any = false;
        let mut i = 0;
        while i < ready.len() {
            let n = ready[i];
            if earliest[n] > cycle {
                i += 1;
                continue;
            }
            let unit = facts.unit[n];
            let t = if unit == Unit::None {
                // Literal: free at its earliest cycle.
                earliest[n]
            } else {
                while rows.len() <= cycle as usize {
                    rows.push(UnitRow::default());
                }
                if !rows[cycle as usize].is_free(unit, machine) {
                    i += 1;
                    continue;
                }
                rows[cycle as usize].take(unit, n);
                max_issue = max_issue.max(cycle);
                any_real = true;
                cycle
            };
            time[n] = Some(t);
            placed_any = true;
            scheduled += 1;
            ready.swap_remove(i);
            // Release successors.
            for s in facts.users(n) {
                let is_value_edge = block.nodes[s].inputs.contains(&n);
                // Literals have latency 0 and may feed a consumer in the
                // same cycle; real units deliver after their latency.
                let gap = if is_value_edge { facts.lat[n] } else { 1 };
                earliest[s] = earliest[s].max(t + gap);
                preds_left[s] -= 1;
                if preds_left[s] == 0 {
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
                earliest[n] > cycle
                    || rows
                        .get(cycle as usize)
                        .is_some_and(|r| !r.is_free(facts.unit[n], machine))
            }) {
                cycle += 1;
            }
        }
    }

    let mut sched = BlockSchedule {
        time,
        len: if any_real { max_issue + 1 } else { 0 },
    };
    sink_loads(facts, &mut rows, &mut sched);
    sched
}

/// Moves memory reads as late as their consumers allow.
///
/// The list scheduler is eager: it issues a load as soon as a port is
/// free, which can stretch the value's live range across most of the
/// block. Sinking each load towards its first consumer shortens live
/// ranges, which is what lets the spill-and-reschedule loop in
/// [`crate::codegen`] converge under small register files.
fn sink_loads(facts: &BlockFacts<'_>, rows: &mut [UnitRow], sched: &mut BlockSchedule) {
    let (block, machine, live) = (facts.block, facts.machine, &facts.live);
    // Earliest consumer per node, and dep successors to respect.
    let mut first_use: Times = facts.table(None);
    let mut dep_succ: Times = facts.table(None);
    for &n in live {
        let t = sched.at(n);
        for &p in &block.nodes[n].inputs {
            first_use[p] = Some(first_use[p].map_or(t, |e| e.min(t)));
        }
        for &d in &block.nodes[n].deps {
            dep_succ[d] = Some(dep_succ[d].map_or(t, |e| e.min(t)));
        }
    }
    // Sink in reverse issue order so consumers move before producers.
    let mut loads: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|&n| matches!(block.nodes[n].kind, NodeKind::Load { .. }))
        .collect();
    loads.sort_by_key(|&n| std::cmp::Reverse(sched.at(n)));
    for n in loads {
        let t = sched.at(n);
        let mut upper = u32::MAX;
        if let Some(u) = first_use[n] {
            upper = upper.min(u.saturating_sub(facts.lat[n]));
        }
        if let Some(d) = dep_succ[n] {
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
            sched.time[n] = Some(c);
        }
    }
}

/// Checks that `sched` is legal for the block and machine of `facts`.
///
/// # Errors
///
/// Returns a description of the first violated constraint. Used by tests
/// and property checks.
pub fn validate(facts: &BlockFacts<'_>, sched: &BlockSchedule) -> Result<(), String> {
    check(facts, &sched.time, sched.len, false)
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

    /// The list schedule of `b`, checked legal.
    fn legal_schedule(b: &Block, m: &CellMachine) -> BlockSchedule {
        let facts = BlockFacts::new(b, m);
        let s = schedule(&facts);
        validate(&facts, &s).expect("legal");
        s
    }

    #[test]
    fn empty_block() {
        let s = legal_schedule(&Block::new(), &CellMachine::default());
        assert_eq!(s.len, 0);
    }

    #[test]
    fn latency_respected() {
        let m = CellMachine::default();
        let mut b = Block::new();
        let a = load(&mut b, 0);
        let c = load(&mut b, 1);
        let sum = node(&mut b, NodeKind::FAdd, vec![a, c], vec![]);
        root_store(&mut b, sum, 2);
        let s = legal_schedule(&b, &m);
        // loads at 0 (two ports), add at 1, store at 1+5=6, len 7.
        assert_eq!(s.at(sum), 1);
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
        let s = legal_schedule(&b, &m);
        // 4 loads over 2 ports: cycles 0 and 1.
        let load_cycles: Vec<u32> = loads.iter().map(|&l| s.at(l)).collect();
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
        let s = legal_schedule(&b, &m);
        assert_eq!(s.at(sum), s.at(prod), "different units, same cycle");
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
        let s = legal_schedule(&b, &m);
        assert!(s.at(l2) > s.at(st));
    }

    #[test]
    fn consts_are_free() {
        let m = CellMachine::default();
        let mut b = Block::new();
        let c1 = node(&mut b, NodeKind::ConstF(1.0), vec![], vec![]);
        let c2 = node(&mut b, NodeKind::ConstF(2.0), vec![], vec![]);
        let sum = node(&mut b, NodeKind::FAdd, vec![c1, c2], vec![]);
        root_store(&mut b, sum, 0);
        let s = legal_schedule(&b, &m);
        assert_eq!(s.at(sum), 0);
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
        let s = legal_schedule(&b, &m);
        assert!(s.at(r2) > s.at(r1));
    }

    #[test]
    fn loop_carried_edges_come_in_port_then_address_order() {
        use w2_lang::ast::{Chan, Dir};
        let m = CellMachine::default();
        let mut b = Block::new();
        // Three ports, named in an order that is not port order.
        let recv = |b: &mut Block, dir, chan| {
            let r = node(
                b,
                NodeKind::Recv {
                    dir,
                    chan,
                    ext: None,
                },
                vec![],
                vec![],
            );
            b.roots.push(r);
            r
        };
        let ry = recv(&mut b, Dir::Right, Chan::Y);
        let lx = recv(&mut b, Dir::Left, Chan::X);
        let ly = recv(&mut b, Dir::Left, Chan::Y);
        // Three addresses, each read then written, highest first.
        let cells: Vec<(NodeId, NodeId)> = [(ry, 9), (lx, 4), (ly, 0)]
            .into_iter()
            .map(|(v, addr)| {
                let l = load(&mut b, addr);
                let sum = node(&mut b, NodeKind::FAdd, vec![l, v], vec![]);
                (l, root_store(&mut b, sum, addr))
            })
            .collect();

        let edges = BlockFacts::new(&b, &m).edges;
        assert_eq!(
            edges,
            BlockFacts::new(&b, &m).edges,
            "same block, same list"
        );
        let carried: Vec<(NodeId, NodeId)> = edges
            .iter()
            .filter(|e| e.dist == 1)
            .map(|e| (e.from, e.to))
            .collect();
        let mut want = vec![(lx, lx), (ly, ly), (ry, ry)];
        for &(l, st) in cells.iter().rev() {
            want.extend([(l, st), (st, l)]);
        }
        assert_eq!(carried, want);
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
        let s = legal_schedule(&b, &m);
        // The chain head must be scheduled in cycle 0.
        assert_eq!(s.at(l0), 0);
    }
}
