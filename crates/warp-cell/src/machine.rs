//! The Warp cell machine model (paper §2.4, Figure 2-2).
//!
//! Each cell is a horizontal micro-engine: a wide instruction word
//! controls every functional unit independently each cycle. The model
//! captures the resources the scheduler must reserve and the latencies it
//! must respect:
//!
//! * two floating-point units (an add-class ALU and a multiplier), both
//!   5-stage pipelined: one operation may issue per unit per cycle and the
//!   result is available 5 cycles later;
//! * a local data memory sustaining **two references per cycle**;
//! * one I/O port per `(direction, channel)` pair;
//! * register files buffering all operands (modeled as one unified file;
//!   the real cell has a 32-word file per FPU connected by a full
//!   crossbar).

use warp_ir::{NodeId, NodeKind};

/// Functional units an operation can occupy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Unit {
    /// The add-class FPU (add, subtract, compare, select, boolean ops).
    AddFpu,
    /// The multiplier FPU (multiply, divide, negate-by-multiply).
    MulFpu,
    /// One of the two memory ports.
    Mem,
    /// The I/O port of a specific `(direction, channel)` pair; the index
    /// is produced by [`io_index`].
    Io(usize),
    /// No unit: the value comes from the instruction's literal field.
    None,
}

/// Which op holds which unit in one cycle of a schedule. The list
/// scheduler keeps one row per absolute cycle, the modulo reservation
/// table one per `t % II`, and the legality check refills rows from a
/// finished schedule; holders are kept in the order they were placed.
#[derive(Clone, Debug, Default)]
pub(crate) struct UnitRow(Vec<(Unit, NodeId)>);

impl UnitRow {
    fn holders(&self, unit: Unit) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().filter(move |h| h.0 == unit).map(|h| h.1)
    }

    /// Whether `unit` can accept one more op in this cycle.
    pub fn is_free(&self, unit: Unit, machine: &CellMachine) -> bool {
        (self.holders(unit).count() as u32) < machine.ports(unit)
    }

    /// Reserves `unit` for `n`.
    pub fn take(&mut self, unit: Unit, n: NodeId) {
        if unit != Unit::None {
            self.0.push((unit, n));
        }
    }

    /// Gives back the reservation [`take`](Self::take) made for `n`.
    pub fn release(&mut self, unit: Unit, n: NodeId) {
        self.0.retain(|&h| h != (unit, n));
    }

    /// The op to evict to make room on `unit`: its latest-placed holder
    /// (freeing one memory port is enough).
    pub fn holder(&self, unit: Unit) -> Option<NodeId> {
        self.holders(unit).last()
    }
}

/// Maps a `(direction, channel)` pair to its I/O port index.
pub fn io_index(dir: w2_lang::ast::Dir, chan: w2_lang::ast::Chan) -> usize {
    use w2_lang::ast::{Chan, Dir};
    match (dir, chan) {
        (Dir::Left, Chan::X) => 0,
        (Dir::Left, Chan::Y) => 1,
        (Dir::Right, Chan::X) => 2,
        (Dir::Right, Chan::Y) => 3,
    }
}

/// Machine parameters of one Warp cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellMachine {
    /// Result latency of the pipelined FPUs (5 stages on the real Warp).
    pub fp_latency: u32,
    /// Result latency of a division (iterative on the multiplier).
    pub div_latency: u32,
    /// Cycles from a memory read issue to the value being usable.
    pub mem_latency: u32,
    /// Cycles from a queue dequeue to the value being usable.
    pub io_latency: u32,
    /// Memory references per cycle (2 on the real Warp).
    pub mem_ports: u32,
    /// Usable registers (2 × 32-word register files on the real Warp).
    pub registers: u32,
    /// Words per inter-cell queue (128 on the real Warp).
    pub queue_capacity: u32,
    /// Words of cell data memory (4K on the real Warp).
    pub memory_words: u32,
}

impl Default for CellMachine {
    fn default() -> CellMachine {
        CellMachine {
            fp_latency: 5,
            div_latency: 10,
            mem_latency: 1,
            io_latency: 1,
            mem_ports: 2,
            registers: 64,
            queue_capacity: 128,
            memory_words: 4096,
        }
    }
}

impl CellMachine {
    /// The unit an abstract operation executes on.
    pub fn unit_of(&self, kind: &NodeKind) -> Unit {
        match kind {
            NodeKind::ConstF(_) | NodeKind::ConstB(_) => Unit::None,
            NodeKind::Load { .. } | NodeKind::Store { .. } => Unit::Mem,
            NodeKind::Recv { dir, chan, .. } | NodeKind::Send { dir, chan, .. } => {
                Unit::Io(io_index(*dir, *chan))
            }
            NodeKind::FMul | NodeKind::FDiv | NodeKind::FNeg => Unit::MulFpu,
            NodeKind::FAdd
            | NodeKind::FSub
            | NodeKind::FCmp(_)
            | NodeKind::BAnd
            | NodeKind::BOr
            | NodeKind::BNot
            | NodeKind::Select => Unit::AddFpu,
        }
    }

    /// Ops `unit` accepts per cycle: one per FPU and per I/O port,
    /// [`mem_ports`](Self::mem_ports) memory references, and any number
    /// of literals.
    pub fn ports(&self, unit: Unit) -> u32 {
        match unit {
            Unit::Mem => self.mem_ports,
            Unit::None => u32::MAX,
            _ => 1,
        }
    }

    /// The machine's latencies as the DAG-level [`warp_ir::LatencyModel`],
    /// so mid-end passes (height reduction, rewrite cost models) agree
    /// with the scheduler.
    pub fn latency_model(&self) -> warp_ir::LatencyModel {
        warp_ir::LatencyModel {
            fp: self.fp_latency,
            div: self.div_latency,
            mem: self.mem_latency,
            io: self.io_latency,
        }
    }

    /// The result latency of an abstract operation: a consumer may issue
    /// this many cycles after the producer.
    pub fn latency_of(&self, kind: &NodeKind) -> u32 {
        self.latency_model().latency_of(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::ast::{Chan, Dir};

    #[test]
    fn io_indices_distinct() {
        let mut seen = Vec::new();
        for dir in [Dir::Left, Dir::Right] {
            for chan in [Chan::X, Chan::Y] {
                seen.push(io_index(dir, chan));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, [0, 1, 2, 3]);
    }

    #[test]
    fn default_matches_paper() {
        let m = CellMachine::default();
        assert_eq!(m.fp_latency, 5);
        assert_eq!(m.mem_ports, 2);
        assert_eq!(m.queue_capacity, 128);
        assert_eq!(m.memory_words, 4096);
        assert_eq!(m.registers, 64);
    }

    #[test]
    fn unit_mapping() {
        let m = CellMachine::default();
        assert_eq!(m.unit_of(&NodeKind::FAdd), Unit::AddFpu);
        assert_eq!(m.unit_of(&NodeKind::FMul), Unit::MulFpu);
        assert_eq!(m.unit_of(&NodeKind::ConstF(1.0)), Unit::None);
        assert_eq!(m.unit_of(&NodeKind::Select), Unit::AddFpu);
        assert_eq!(
            m.unit_of(&NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None
            }),
            Unit::Io(0)
        );
    }

    #[test]
    fn unit_row_tracks_holders_per_unit() {
        let m = CellMachine::default();
        let mut row = UnitRow::default();
        assert!(row.is_free(Unit::AddFpu, &m));
        row.take(Unit::AddFpu, NodeId(1));
        assert!(!row.is_free(Unit::AddFpu, &m));
        assert!(row.is_free(Unit::MulFpu, &m), "units are independent");
        // Two memory ports; the latest-placed holder is the evictee.
        row.take(Unit::Mem, NodeId(2));
        assert!(row.is_free(Unit::Mem, &m));
        row.take(Unit::Mem, NodeId(3));
        assert!(!row.is_free(Unit::Mem, &m));
        assert_eq!(row.holder(Unit::Mem), Some(NodeId(3)));
        row.release(Unit::Mem, NodeId(3));
        assert_eq!(row.holder(Unit::Mem), Some(NodeId(2)));
        assert!(row.is_free(Unit::Mem, &m));
        // Literals hold nothing.
        row.take(Unit::None, NodeId(4));
        assert!(row.is_free(Unit::None, &m));
        assert_eq!(row.holder(Unit::None), None);
        assert_eq!(row.holder(Unit::Io(0)), None);
    }

    #[test]
    fn latency_mapping() {
        let m = CellMachine::default();
        assert_eq!(m.latency_of(&NodeKind::FAdd), 5);
        assert_eq!(m.latency_of(&NodeKind::FDiv), 10);
        assert_eq!(m.latency_of(&NodeKind::ConstF(0.0)), 0);
        assert_eq!(
            m.latency_of(&NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: None
            }),
            1
        );
    }
}
