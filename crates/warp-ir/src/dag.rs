//! Basic-block DAGs of abstract Warp cell operations.
//!
//! Each basic block of the flowgraph holds a directed acyclic graph whose
//! nodes are *abstract* cell operations: "this level models the Warp cell
//! as a simple processor with memory to memory operations and no
//! registers" (paper §6.1). The code generator later maps these onto the
//! real datapath.
//!
//! Two edge kinds exist, mirroring the paper:
//!
//! * **value inputs** ([`Node::inputs`]) — the operands of the operation;
//! * **sequencing deps** ([`Node::deps`]) — conservative ordering arcs the
//!   flow analyzer inserts where a strict dependence cannot be proven
//!   (memory aliasing, queue order).

use crate::affine::Affine;
use w2_lang::hir::VarId;
use w2_lang::{ast::Chan, ast::Dir};
use warp_common::define_id;
use warp_common::idvec::Id as _;
use warp_common::IdVec;

define_id!(NodeId, "n");
define_id!(BlockId, "b");

/// Float comparison operators (results feed [`NodeKind::Select`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison to concrete values.
    #[inline]
    pub fn apply(self, l: f32, r: f32) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// A host-memory reference attached to a boundary `send`/`receive`
/// (the "external variable" of paper §4.3), with the subscripts already
/// flattened to a single affine word index.
#[derive(Clone, Debug, PartialEq)]
pub enum HostSlot {
    /// The host supplies a constant (e.g. the `0.0` seed in Figure 4-1).
    Lit(f32),
    /// A word of a host variable at an affine flat index.
    Elem {
        /// The host variable.
        var: VarId,
        /// Flat word index into the variable.
        index: Affine,
    },
}

/// The operation a DAG node performs.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// A float constant.
    ConstF(f32),
    /// A boolean constant (folded comparisons).
    ConstB(bool),
    /// Read one word of cell memory at an affine address.
    Load {
        /// Variable (for diagnostics and aliasing).
        var: VarId,
        /// Word address in cell data memory.
        addr: Affine,
    },
    /// Write one word of cell memory; input 0 is the value.
    Store {
        /// Variable.
        var: VarId,
        /// Word address in cell data memory.
        addr: Affine,
    },
    /// Dequeue one word from a neighbour channel.
    Recv {
        /// Which neighbour.
        dir: Dir,
        /// Which channel.
        chan: Chan,
        /// Host data source at the array boundary.
        ext: Option<HostSlot>,
    },
    /// Enqueue one word to a neighbour channel; input 0 is the value.
    Send {
        /// Which neighbour.
        dir: Dir,
        /// Which channel.
        chan: Chan,
        /// Host destination at the array boundary.
        ext: Option<HostSlot>,
    },
    /// Float addition (2 inputs).
    FAdd,
    /// Float subtraction (2 inputs).
    FSub,
    /// Float multiplication (2 inputs).
    FMul,
    /// Float division (2 inputs).
    FDiv,
    /// Float negation (1 input).
    FNeg,
    /// Float comparison (2 inputs, boolean result).
    FCmp(CmpOp),
    /// Boolean and (2 inputs).
    BAnd,
    /// Boolean or (2 inputs).
    BOr,
    /// Boolean not (1 input).
    BNot,
    /// Predicated select: inputs are `(cond, if_true, if_false)`.
    Select,
}

impl NodeKind {
    /// Returns `true` for nodes with side effects (they are block roots
    /// and must execute even if their value is unused).
    pub fn is_effect(&self) -> bool {
        matches!(
            self,
            NodeKind::Store { .. } | NodeKind::Send { .. } | NodeKind::Recv { .. }
        )
    }

    /// Returns `true` for pure, hash-consable nodes.
    pub fn is_pure(&self) -> bool {
        !self.is_effect() && !matches!(self, NodeKind::Load { .. })
    }
}

/// A DAG node: an operation plus its value inputs and sequencing deps.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The operation.
    pub kind: NodeKind,
    /// Value operands, in operand order.
    pub inputs: Vec<NodeId>,
    /// Conservative ordering arcs ("sequencing arcs", paper §6.1): this
    /// node must execute after each dep.
    pub deps: Vec<NodeId>,
}

/// A basic block: a DAG plus the ordered list of its effectful roots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// All nodes, in creation (program) order.
    pub nodes: IdVec<NodeId, Node>,
    /// Effectful nodes in program order.
    pub roots: Vec<NodeId>,
}

impl Block {
    /// Creates an empty block.
    pub fn new() -> Block {
        Block::default()
    }

    /// Returns the number of nodes reachable from the roots (the live
    /// size of the block).
    pub fn live_node_count(&self) -> usize {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.roots.clone();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut live[n.index()], true) {
                continue;
            }
            let node = &self.nodes[n];
            stack.extend(node.inputs.iter().copied());
            stack.extend(node.deps.iter().copied());
        }
        live.iter().filter(|&&l| l).count()
    }

    /// Iterates over the live node ids in creation order.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.roots.clone();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut live[n.index()], true) {
                continue;
            }
            let node = &self.nodes[n];
            stack.extend(node.inputs.iter().copied());
            stack.extend(node.deps.iter().copied());
        }
        (0..self.nodes.len())
            .filter(|&i| live[i])
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Counts nodes of a particular shape among the live nodes.
    pub fn count_live(&self, pred: impl Fn(&NodeKind) -> bool) -> usize {
        self.live_nodes()
            .into_iter()
            .filter(|&n| pred(&self.nodes[n].kind))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_apply() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(!CmpOp::Lt.apply(2.0, 1.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(CmpOp::Ne.apply(1.0, 2.0));
        assert!(CmpOp::Eq.apply(3.0, 3.0));
        assert!(CmpOp::Le.apply(3.0, 3.0));
        assert!(CmpOp::Gt.apply(4.0, 3.0));
    }

    #[test]
    fn effect_classification() {
        assert!(NodeKind::Store {
            var: VarId(0),
            addr: Affine::constant(0)
        }
        .is_effect());
        assert!(NodeKind::Recv {
            dir: Dir::Left,
            chan: Chan::X,
            ext: None
        }
        .is_effect());
        assert!(!NodeKind::FAdd.is_effect());
        assert!(NodeKind::FAdd.is_pure());
        assert!(!NodeKind::Load {
            var: VarId(0),
            addr: Affine::constant(0)
        }
        .is_pure());
    }

    #[test]
    fn live_node_count_ignores_dead() {
        let mut b = Block::new();
        let c1 = b.nodes.push(Node {
            kind: NodeKind::ConstF(1.0),
            inputs: vec![],
            deps: vec![],
        });
        // Dead node: no root reaches it.
        b.nodes.push(Node {
            kind: NodeKind::ConstF(2.0),
            inputs: vec![],
            deps: vec![],
        });
        let send = b.nodes.push(Node {
            kind: NodeKind::Send {
                dir: Dir::Right,
                chan: Chan::X,
                ext: None,
            },
            inputs: vec![c1],
            deps: vec![],
        });
        b.roots.push(send);
        assert_eq!(b.live_node_count(), 2);
        assert_eq!(b.live_nodes(), vec![c1, send]);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::ConstF(_))), 1);
    }
}
