//! Register allocation for scheduled block DAGs.
//!
//! After scheduling, every value-producing node needs a register from
//! its writeback until its last consumer issues (`value_lifetimes`).
//! A linear scan over these intervals assigns physical registers; when
//! the file is exhausted the allocator reports the value with the
//! longest remaining lifetime so the code generator can spill it to a
//! scratch word of cell memory and re-schedule (the real compiler
//! allocates 32-word files per FPU; we model a unified file, see
//! [`crate::machine`]). A modulo schedule folds the same lifetimes into
//! cyclic arcs of the kernel (`allocate_modulo`).

use crate::machine::Unit;
use crate::mcode::Reg;
use crate::sched::{BlockFacts, BlockSchedule, Times};
use warp_common::idvec::Id as _;
use warp_common::IdVec;
use warp_ir::{NodeId, NodeKind};

/// A successful register assignment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Allocation {
    /// Register per value-producing node; `None` for nodes without
    /// consumers, literal constants and dead nodes.
    pub(crate) assignment: IdVec<NodeId, Option<Reg>>,
    /// Number of distinct registers used.
    pub regs_used: u32,
}

/// Allocation failure: the file is exhausted and `victim` (the live value
/// with the furthest last use) should be spilled. `victim` is `None` when
/// every live value is already a spill reload, i.e. the block cannot fit
/// the register file at all.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillNeeded {
    /// The node whose value should move to memory.
    pub victim: Option<NodeId>,
}

/// The register lifetime `(write, last_read, node)` of every value of
/// the block when node `n` issues at `time_of(n)`: the register is
/// written at `t(def) + latency` (until then the value is in the unit's
/// pipeline) and read for the last time when its latest consumer
/// issues. Literals live in the instruction word, stores and sends
/// produce nothing, and an unread result is discarded: none of them
/// holds a register.
fn value_lifetimes(
    facts: &BlockFacts<'_>,
    time_of: impl Fn(NodeId) -> u32,
) -> Vec<(u32, u32, NodeId)> {
    let block = facts.block;
    let mut last_read: Times = facts.table(None);
    for &n in &facts.live {
        for &p in &block.nodes[n].inputs {
            // Literals take no operands and (in a modulo schedule) have
            // no issue cycle to ask for.
            let t = time_of(n);
            last_read[p] = Some(last_read[p].map_or(t, |e| e.max(t)));
        }
    }
    facts
        .live
        .iter()
        .filter_map(|&n| {
            if facts.unit[n] == Unit::None
                || matches!(
                    block.nodes[n].kind,
                    NodeKind::Store { .. } | NodeKind::Send { .. }
                )
            {
                return None;
            }
            Some((time_of(n) + facts.lat[n], last_read[n]?, n))
        })
        .collect()
}

/// Runs linear scan over the value intervals of the block under `sched`.
///
/// # Errors
///
/// Returns [`SpillNeeded`] when more than `registers` values are live at
/// once.
pub fn allocate(
    facts: &BlockFacts<'_>,
    sched: &BlockSchedule,
    registers: u32,
) -> Result<Allocation, SpillNeeded> {
    allocate_excluding(facts, sched, registers, &[])
}

/// Like [`allocate`], but never proposes a node flagged in `no_spill`
/// (indexed by node; values that were already spilled) as the next
/// spill victim.
pub(crate) fn allocate_excluding(
    facts: &BlockFacts<'_>,
    sched: &BlockSchedule,
    registers: u32,
    no_spill: &[bool],
) -> Result<Allocation, SpillNeeded> {
    let mut intervals = value_lifetimes(facts, |n| sched.at(n));
    intervals.sort_unstable();
    let mut free: Vec<Reg> = (0..registers as u16).rev().map(Reg).collect();
    let mut active: Vec<(u32, Reg, NodeId)> = Vec::new(); // (end, reg, node)
    let mut assignment = facts.table(None);
    let mut used = 0u32;

    for (def, end, n) in intervals {
        // Expire intervals whose last read is strictly before this def.
        // `def` is the first cycle the register holds the new value at
        // cycle start (writeback happens at the end of `def - 1`), so a
        // last read in `def - 1` is safe but a read in `def` is not.
        active.retain(|&(aend, reg, _)| {
            if aend < def {
                free.push(reg);
                false
            } else {
                true
            }
        });
        let Some(reg) = free.pop() else {
            // Spill the active value with the furthest end (Belady),
            // never re-spilling a scratch reload: that would regress
            // forever.
            let victim = active
                .iter()
                .copied()
                .chain(std::iter::once((end, Reg(u16::MAX), n)))
                .filter(|&(_, _, node)| {
                    !no_spill.get(node.index()).copied().unwrap_or(false)
                        && !matches!(
                            facts.block.nodes[node].kind,
                            NodeKind::Load {
                                var: crate::codegen::SCRATCH_VAR,
                                ..
                            }
                        )
                })
                .max_by_key(|&(aend, _, node)| (aend, node))
                .map(|(_, _, node)| node);
            return Err(SpillNeeded { victim });
        };
        used = used.max(u32::from(reg.0) + 1);
        assignment[n] = Some(reg);
        active.push((end, reg, n));
    }

    Ok(Allocation {
        assignment,
        regs_used: used,
    })
}

/// Register assignment for a modulo-scheduled loop (see
/// [`crate::modulo`]). In the steady state every value's lifetime is a
/// *cyclic arc* of the II-cycle kernel, which must span at most one
/// revolution: a fixed register per value works for all in-flight
/// iterations (no modulo variable expansion) only if the last read
/// comes less than II cycles after the write, so that the next
/// iteration's writeback lands strictly after it. Two values may share
/// a register iff their arcs are disjoint modulo II — disjoint arcs are
/// disjoint at every absolute cycle, and the prologue/epilogue execute
/// subsets of the steady state, so the sharing is safe there too. A
/// first-fit pack over the arcs assigns registers; returns `None` when
/// a lifetime outlasts the II or more than `machine.registers` are
/// needed (the caller then tries a larger II or falls back to the list
/// schedule).
pub(crate) fn allocate_modulo(
    facts: &BlockFacts<'_>,
    times: &Times,
    ii: u32,
) -> Option<Allocation> {
    let mut arcs = value_lifetimes(facts, |n| times[n].expect("every live op is placed"));
    arcs.sort_unstable();

    // First-fit: a register is a set of pairwise-disjoint arcs
    // `(start slot, length)`.
    let in_arc = |start: u32, len: u32, x: u32| (x + ii - start) % ii < len;
    let overlap = |(s1, l1): (u32, u32), (s2, l2): (u32, u32)| {
        // Arcs of length ≤ II overlap iff either start lies inside the
        // other.
        in_arc(s1, l1, s2) || in_arc(s2, l2, s1)
    };
    let mut reg_arcs: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut assignment = facts.table(None);
    for (write, last_read, n) in arcs {
        let arc = (write % ii, last_read - write + 1);
        if arc.1 > ii {
            return None; // the next iteration would overwrite it unread
        }
        let reg = reg_arcs
            .iter()
            .position(|held| held.iter().all(|&h| !overlap(arc, h)))
            .unwrap_or_else(|| {
                reg_arcs.push(Vec::new());
                reg_arcs.len() - 1
            });
        if reg >= facts.machine.registers as usize {
            return None;
        }
        reg_arcs[reg].push(arc);
        assignment[n] = Some(Reg(reg as u16));
    }
    Some(Allocation {
        regs_used: reg_arcs.len() as u32,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CellMachine;
    use crate::sched::schedule;
    use w2_lang::hir::VarId;
    use warp_ir::{Affine, Block, Node};

    /// A modulo schedule placing exactly the listed ops.
    fn times_of(facts: &BlockFacts<'_>, placed: &[(NodeId, u32)]) -> Times {
        let mut times = facts.table(None);
        for &(n, t) in placed {
            times[n] = Some(t);
        }
        times
    }

    fn build_chain(n_loads: usize) -> Block {
        // n loads all summed pairwise at the end: all live simultaneously.
        let mut b = Block::new();
        let loads: Vec<NodeId> = (0..n_loads)
            .map(|i| {
                b.nodes.push(Node {
                    kind: NodeKind::Load {
                        var: VarId(0),
                        addr: Affine::constant(i as i64),
                    },
                    inputs: vec![],
                    deps: vec![],
                })
            })
            .collect();
        let mut acc = loads[0];
        for &l in &loads[1..] {
            acc = b.nodes.push(Node {
                kind: NodeKind::FAdd,
                inputs: vec![acc, l],
                deps: vec![],
            });
        }
        let store = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(99),
            },
            inputs: vec![acc],
            deps: vec![],
        });
        b.roots.push(store);
        b
    }

    #[test]
    fn small_block_allocates() {
        let m = CellMachine::default();
        let b = build_chain(4);
        let facts = BlockFacts::new(&b, &m);
        let a = allocate(&facts, &schedule(&facts), 64).expect("fits");
        assert!(a.regs_used >= 2);
        assert!(a.regs_used <= 8);
        // Every add input that is not a literal has a register.
        for (_, node) in b.nodes.iter() {
            if matches!(node.kind, NodeKind::FAdd) {
                for &i in &node.inputs {
                    assert!(a.assignment[i].is_some());
                }
            }
        }
    }

    #[test]
    fn exhaustion_reports_spill() {
        let m = CellMachine::default();
        let b = build_chain(8);
        let facts = BlockFacts::new(&b, &m);
        // A float add reads two register operands at issue, so a single
        // register can never satisfy the chain.
        let err = allocate(&facts, &schedule(&facts), 1).expect_err("cannot fit");
        // Victim is a live node of the block.
        assert!(b.live_nodes().contains(&err.victim.expect("spillable")));
    }

    #[test]
    fn registers_reused_after_expiry() {
        let m = CellMachine::default();
        // Two independent load->store pairs sequentialized by deps: the
        // second can reuse the first register.
        let mut b = Block::new();
        let l1 = b.nodes.push(Node {
            kind: NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(0),
            },
            inputs: vec![],
            deps: vec![],
        });
        let s1 = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(1),
            },
            inputs: vec![l1],
            deps: vec![],
        });
        let l2 = b.nodes.push(Node {
            kind: NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(2),
            },
            inputs: vec![],
            deps: vec![s1],
        });
        let s2 = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(3),
            },
            inputs: vec![l2],
            deps: vec![s1],
        });
        b.roots.push(s1);
        b.roots.push(s2);
        let facts = BlockFacts::new(&b, &m);
        let a = allocate(&facts, &schedule(&facts), 64).expect("fits");
        assert_eq!(a.regs_used, 1, "sequential values share one register");
    }

    #[test]
    fn modulo_arcs_share_registers() {
        use w2_lang::ast::{Chan, Dir};
        let m = CellMachine::default();
        // recv(t0) -> add(t2) -> send, II = 4: recv's value is written
        // at 1 and last read at 2 (slots {1,2}); the add's value is
        // written at 7 and, with the send at 8, occupies slots {3,0}.
        // Disjoint mod 4, so one register suffices; moving the send to
        // 9 stretches the arc to {3,0,1}, colliding with the recv.
        let mut b = Block::new();
        let r = b.nodes.push(Node {
            kind: NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            inputs: vec![],
            deps: vec![],
        });
        let c = b.nodes.push(Node {
            kind: NodeKind::ConstF(1.0),
            inputs: vec![],
            deps: vec![],
        });
        let a = b.nodes.push(Node {
            kind: NodeKind::FAdd,
            inputs: vec![r, c],
            deps: vec![],
        });
        let s = b.nodes.push(Node {
            kind: NodeKind::Send {
                dir: Dir::Right,
                chan: Chan::X,
                ext: None,
            },
            inputs: vec![a],
            deps: vec![],
        });
        b.roots.push(r);
        b.roots.push(s);
        let facts = BlockFacts::new(&b, &m);
        let times = times_of(&facts, &[(r, 0), (a, 2), (s, 8)]);
        let alloc = allocate_modulo(&facts, &times, 4).expect("fits");
        assert_eq!(alloc.regs_used, 1, "disjoint cyclic arcs share");

        let times = times_of(&facts, &[(r, 0), (a, 2), (s, 9)]);
        let alloc = allocate_modulo(&facts, &times, 4).expect("fits");
        assert_eq!(alloc.regs_used, 2, "overlapping arcs get distinct regs");

        // With the send at 11 the add's value, written at 7, would still
        // be unread when the next iteration overwrites it at 11.
        let times = times_of(&facts, &[(r, 0), (a, 2), (s, 11)]);
        assert!(allocate_modulo(&facts, &times, 4).is_none());
    }

    #[test]
    fn modulo_allocation_respects_file_size() {
        let m = CellMachine {
            registers: 1,
            ..CellMachine::default()
        };
        // Two values alive across each other at II = 2.
        let mut b = Block::new();
        let l1 = b.nodes.push(Node {
            kind: NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(0),
            },
            inputs: vec![],
            deps: vec![],
        });
        let l2 = b.nodes.push(Node {
            kind: NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(1),
            },
            inputs: vec![],
            deps: vec![],
        });
        let a = b.nodes.push(Node {
            kind: NodeKind::FAdd,
            inputs: vec![l1, l2],
            deps: vec![],
        });
        let st = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(2),
            },
            inputs: vec![a],
            deps: vec![],
        });
        b.roots.push(st);
        let facts = BlockFacts::new(&b, &m);
        let times = times_of(&facts, &[(l1, 0), (l2, 0), (a, 1), (st, 7)]);
        assert!(allocate_modulo(&facts, &times, 2).is_none());
    }

    #[test]
    fn discarded_results_need_no_register() {
        use w2_lang::ast::{Chan, Dir};
        let m = CellMachine::default();
        let mut b = Block::new();
        let r = b.nodes.push(Node {
            kind: NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None,
            },
            inputs: vec![],
            deps: vec![],
        });
        b.roots.push(r);
        let facts = BlockFacts::new(&b, &m);
        let a = allocate(&facts, &schedule(&facts), 64).expect("fits");
        assert!(a.assignment.values().all(Option::is_none));
        assert_eq!(a.regs_used, 0);
    }
}
