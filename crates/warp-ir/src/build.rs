//! Lowering from HIR to the cell IR.
//!
//! This is the "flow analysis" module of paper §6.1: it builds the region
//! tree (flowgraph) and one DAG per basic block, applying the local
//! optimizations the paper lists — common sub-expression elimination,
//! constant folding, idempotent operation removal — during construction
//! (hash-consing through the shared folding core of [`crate::rewrite`]).
//! Height reduction and the rest of the pattern catalog run afterwards
//! as the driver's `rewrite` pass ([`crate::rewrite::rewrite_module`]).
//!
//! Consecutive non-loop statements are merged into a single basic block,
//! so the list scheduler automatically overlaps the computation of
//! adjacent statements (the purpose of the paper's global dependency
//! arcs). Dependences the builder cannot prove independent become
//! conservative sequencing arcs on the DAG.
//!
//! Conditionals are lowered by *predication*: both branches are evaluated
//! and every assignment under a predicate `p` becomes
//! `lhs := select(p, rhs, lhs)`.

use crate::affine::{Affine, LoopId};
use crate::dag::{Block, BlockId, CmpOp, HostSlot, Node, NodeId, NodeKind};
use crate::region::{CellIr, Layout, LoopMeta, Region};
use crate::rewrite::{fold_value, Folded};
use std::collections::{HashMap, HashSet};
use w2_lang::ast::{BinOp, UnOp};
use w2_lang::hir::{HirExpr, HirLValue, HirModule, HirStmt, HostRef, VarId};
use warp_common::{DiagnosticBag, IdVec, Span};

/// Options controlling the lowering.
#[derive(Clone, Debug, PartialEq)]
pub struct LowerOptions {
    /// Apply local optimizations (CSE, folding, identities, height
    /// reduction). Disable to measure their effect (ablation A1).
    pub optimize: bool,
    /// Size of the cell data memory in words (4096 on the real machine).
    pub memory_words: u32,
    /// Maximum unroll factor for innermost loops (1 = off). Unrolling
    /// merges consecutive iterations into one basic block, letting the
    /// list scheduler overlap them across the pipelined FPUs — the
    /// static stand-in for the software pipelining of the paper's
    /// follow-up work.
    pub unroll: u32,
    /// Allow height reduction to reassociate `+`/`*` chains. This is
    /// the one optimization that can change f32 rounding (the paper's
    /// compiler reassociated too); disable it when bit-exact agreement
    /// with a sequential evaluation is required.
    pub reassociate: bool,
}

impl Default for LowerOptions {
    fn default() -> LowerOptions {
        LowerOptions {
            optimize: true,
            memory_words: 4096,
            unroll: 1,
            reassociate: true,
        }
    }
}

/// Lowers a checked module to cell IR.
///
/// # Errors
///
/// Reports diagnostics for non-affine subscripts and cell memory overflow.
pub fn lower(hir: &HirModule, opts: &LowerOptions) -> Result<CellIr, DiagnosticBag> {
    let mut diags = DiagnosticBag::new();
    let layout = Layout::build(&hir.vars, opts.memory_words, &mut diags);
    let mut lw = Lowerer {
        hir,
        opts,
        blocks: IdVec::new(),
        loops: IdVec::new(),
        layout,
        active: HashMap::new(),
        depth: 0,
        depth_exceeded: false,
        diags,
    };
    let root = lw.lower_seq(&hir.body);
    if lw.diags.has_errors() {
        return Err(lw.diags);
    }
    Ok(CellIr {
        name: hir.name.clone(),
        blocks: lw.blocks,
        loops: lw.loops,
        root,
        layout: lw.layout,
        vars: hir.vars.clone(),
        n_cells: hir.n_cells,
    })
}

/// How an active loop variable maps to an IR loop: its W2 value is
/// `scale·iter + offset` where `iter` is the IR loop's 0-based counter
/// plus its `lo` (for unrolled loops `lo = 0`, `scale` is the unroll
/// factor, and `offset` varies per body copy).
#[derive(Clone, Copy, Debug)]
struct LoopBinding {
    id: LoopId,
    scale: i64,
    offset: i64,
}

/// Recursion-depth cap for the lowerer's region/expression walk. The
/// frontend already bounds nesting, but `lower` accepts any
/// [`HirModule`], so the lowerer defends its own stack too.
pub const MAX_LOWER_DEPTH: usize = 256;

struct Lowerer<'h> {
    hir: &'h HirModule,
    opts: &'h LowerOptions,
    blocks: IdVec<BlockId, Block>,
    loops: IdVec<LoopId, LoopMeta>,
    layout: Layout,
    /// Active loop index variables, mapped to their loop bindings.
    active: HashMap<VarId, LoopBinding>,
    /// Current region/expression recursion depth, guarded against
    /// [`MAX_LOWER_DEPTH`].
    depth: usize,
    /// Set once the depth cap has been reported (one diagnostic per
    /// module, not one per pruned subtree).
    depth_exceeded: bool,
    diags: DiagnosticBag,
}

impl Lowerer<'_> {
    /// Charges one recursion level, reporting (once) and refusing when
    /// [`MAX_LOWER_DEPTH`] is reached. Callers skip the subtree on
    /// `false`; [`leave_depth`](Self::leave_depth) undoes a successful
    /// charge.
    fn enter_depth(&mut self, span: Span) -> bool {
        if self.depth >= MAX_LOWER_DEPTH {
            if !self.depth_exceeded {
                self.depth_exceeded = true;
                self.diags.error(
                    format!("nesting exceeds the lowering depth limit of {MAX_LOWER_DEPTH}"),
                    span,
                );
            }
            return false;
        }
        self.depth += 1;
        true
    }

    fn leave_depth(&mut self) {
        self.depth -= 1;
    }

    /// Largest unroll factor `k ≤ opts.unroll` dividing `count`, for
    /// innermost (loop-free-body) loops only.
    fn pick_unroll(&self, count: u64, body: &[HirStmt]) -> u64 {
        fn has_loop(stmts: &[HirStmt]) -> bool {
            stmts.iter().any(|s| match s {
                HirStmt::For { .. } => true,
                HirStmt::If {
                    then_body,
                    else_body,
                    ..
                } => has_loop(then_body) || has_loop(else_body),
                _ => false,
            })
        }
        let max = u64::from(self.opts.unroll.max(1));
        if max == 1 || has_loop(body) {
            return 1;
        }
        (2..=max.min(count))
            .rev()
            .find(|k| count.is_multiple_of(*k))
            .unwrap_or(1)
    }

    fn lower_seq(&mut self, stmts: &[HirStmt]) -> Region {
        let mut regions: Vec<Region> = Vec::new();
        let mut bb: Option<Bb> = None;
        for stmt in stmts {
            match stmt {
                HirStmt::For {
                    var,
                    lo,
                    hi,
                    body,
                    span,
                } => {
                    if let Some(b) = bb.take() {
                        regions.push(Region::Block(b.finish(self)));
                    }
                    // In i128: `hi - lo + 1` overflows i64 (and the old
                    // `as u64` cast wrapped) for adversarial HIR bounds.
                    let count_wide = i128::from(*hi) - i128::from(*lo) + 1;
                    let Ok(count) = u64::try_from(count_wide) else {
                        self.diags.error(
                            format!(
                                "loop range {lo}..{hi} cannot be lowered ({count_wide} iterations)"
                            ),
                            *span,
                        );
                        continue;
                    };
                    if !self.enter_depth(*span) {
                        continue;
                    }
                    let unroll = self.pick_unroll(count, body);
                    if unroll > 1 {
                        let id = self.loops.push(LoopMeta {
                            var: *var,
                            lo: 0,
                            count: count / unroll,
                        });
                        // All copies build into one basic block so the
                        // scheduler can overlap the iterations.
                        let mut b = Bb::new();
                        for j in 0..unroll {
                            self.active.insert(
                                *var,
                                LoopBinding {
                                    id,
                                    scale: unroll as i64,
                                    offset: lo + j as i64,
                                },
                            );
                            for stmt in body {
                                b.stmt(self, stmt, None);
                            }
                        }
                        self.active.remove(var);
                        let block = Region::Block(b.finish(self));
                        regions.push(Region::Loop {
                            id,
                            body: Box::new(block),
                        });
                        self.leave_depth();
                        continue;
                    }
                    let id = self.loops.push(LoopMeta {
                        var: *var,
                        lo: *lo,
                        count,
                    });
                    self.active.insert(
                        *var,
                        LoopBinding {
                            id,
                            scale: 1,
                            offset: 0,
                        },
                    );
                    let body_region = self.lower_seq(body);
                    self.active.remove(var);
                    regions.push(Region::Loop {
                        id,
                        body: Box::new(body_region),
                    });
                    self.leave_depth();
                }
                other => {
                    let b = bb.get_or_insert_with(Bb::new);
                    b.stmt(self, other, None);
                }
            }
        }
        if let Some(b) = bb.take() {
            regions.push(Region::Block(b.finish(self)));
        }
        if regions.len() == 1 {
            regions.pop().expect("one region")
        } else {
            Region::Seq(regions)
        }
    }
}

/// Hashable identity for pure nodes (value numbering / CSE).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum PureKey {
    ConstF(u32),
    ConstB(bool),
    Bin(u8, NodeId, NodeId),
    Un(u8, NodeId),
    Sel(NodeId, NodeId, NodeId),
}

pub(crate) fn bin_code(kind: &NodeKind) -> u8 {
    match kind {
        NodeKind::FAdd => 0,
        NodeKind::FSub => 1,
        NodeKind::FMul => 2,
        NodeKind::FDiv => 3,
        NodeKind::FCmp(CmpOp::Eq) => 4,
        NodeKind::FCmp(CmpOp::Ne) => 5,
        NodeKind::FCmp(CmpOp::Lt) => 6,
        NodeKind::FCmp(CmpOp::Le) => 7,
        NodeKind::FCmp(CmpOp::Gt) => 8,
        NodeKind::FCmp(CmpOp::Ge) => 9,
        NodeKind::BAnd => 10,
        NodeKind::BOr => 11,
        other => unreachable!("not a binary pure op: {other:?}"),
    }
}

pub(crate) fn is_commutative(kind: &NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::FAdd
            | NodeKind::FMul
            | NodeKind::BAnd
            | NodeKind::BOr
            | NodeKind::FCmp(CmpOp::Eq)
            | NodeKind::FCmp(CmpOp::Ne)
    )
}

/// Builder for one basic block.
struct Bb {
    block: Block,
    /// Current value of float scalars.
    env: HashMap<VarId, NodeId>,
    /// Scalars assigned in this block (stored back at block exit), in
    /// first-assignment order.
    modified: Vec<VarId>,
    modified_set: HashSet<VarId>,
    /// First load of each scalar (anti-dependence target for the
    /// write-back store).
    scalar_first_load: HashMap<VarId, NodeId>,
    /// Loads/stores per array, for element-wise dependence tests.
    arr_loads: HashMap<VarId, Vec<(Affine, NodeId)>>,
    arr_stores: HashMap<VarId, Vec<(Affine, NodeId)>>,
    /// Store-to-load forwarding: value most recently stored at an address.
    fwd: HashMap<(VarId, Affine), NodeId>,
    /// Load CSE cache.
    load_cache: HashMap<(VarId, Affine), NodeId>,
    /// Last receive per (dir, chan) — queue pops must stay ordered.
    last_recv: HashMap<(w2_lang::ast::Dir, w2_lang::ast::Chan), NodeId>,
    /// Last send per (dir, chan) — queue pushes must stay ordered.
    last_send: HashMap<(w2_lang::ast::Dir, w2_lang::ast::Chan), NodeId>,
    /// Value numbering table.
    cse: HashMap<PureKey, NodeId>,
}

impl Bb {
    fn new() -> Bb {
        Bb {
            block: Block::new(),
            env: HashMap::new(),
            modified: Vec::new(),
            modified_set: HashSet::new(),
            scalar_first_load: HashMap::new(),
            arr_loads: HashMap::new(),
            arr_stores: HashMap::new(),
            fwd: HashMap::new(),
            load_cache: HashMap::new(),
            last_recv: HashMap::new(),
            last_send: HashMap::new(),
            cse: HashMap::new(),
        }
    }

    /// Write back modified scalars and finish the block.
    fn finish(mut self, lw: &mut Lowerer<'_>) -> BlockId {
        for var in std::mem::take(&mut self.modified) {
            let value = self.env[&var];
            let addr = Affine::constant(i64::from(lw.layout.base_of(var)));
            let mut deps = Vec::new();
            if let Some(&load) = self.scalar_first_load.get(&var) {
                deps.push(load);
            }
            let store = self.block.nodes.push(Node {
                kind: NodeKind::Store { var, addr },
                inputs: vec![value],
                deps,
            });
            self.block.roots.push(store);
        }
        lw.blocks.push(self.block)
    }

    fn push_node(&mut self, kind: NodeKind, inputs: Vec<NodeId>, deps: Vec<NodeId>) -> NodeId {
        self.block.nodes.push(Node { kind, inputs, deps })
    }

    /// Adds a pure node with folding, identity simplification, and CSE.
    fn pure(&mut self, lw: &Lowerer<'_>, kind: NodeKind, inputs: Vec<NodeId>) -> NodeId {
        debug_assert!(kind.is_pure());
        if lw.opts.optimize {
            if let Some(n) = self.simplify(&kind, &inputs) {
                return n;
            }
            let key = self.pure_key(&kind, &inputs);
            if let Some(&n) = self.cse.get(&key) {
                return n;
            }
            let n = self.push_node(kind, inputs, vec![]);
            self.cse.insert(key, n);
            n
        } else {
            self.push_node(kind, inputs, vec![])
        }
    }

    fn pure_key(&self, kind: &NodeKind, inputs: &[NodeId]) -> PureKey {
        match kind {
            NodeKind::ConstF(v) => PureKey::ConstF(v.to_bits()),
            NodeKind::ConstB(v) => PureKey::ConstB(*v),
            NodeKind::FNeg => PureKey::Un(0, inputs[0]),
            NodeKind::BNot => PureKey::Un(1, inputs[0]),
            NodeKind::Select => PureKey::Sel(inputs[0], inputs[1], inputs[2]),
            bin => {
                let (mut a, mut b) = (inputs[0], inputs[1]);
                if is_commutative(bin) && b < a {
                    std::mem::swap(&mut a, &mut b);
                }
                PureKey::Bin(bin_code(bin), a, b)
            }
        }
    }

    /// Constant folding and identity ("idempotent operation") removal,
    /// delegated to the rewrite module's shared folding core so the
    /// construction-time rules and the `const-fold`/`identity` patterns
    /// can never disagree.
    fn simplify(&mut self, kind: &NodeKind, inputs: &[NodeId]) -> Option<NodeId> {
        match fold_value(&self.block, kind, inputs)? {
            Folded::Use(n) => Some(n),
            Folded::F(v) => Some(self.const_node(v)),
            Folded::B(v) => Some(self.bool_node(v)),
        }
    }

    fn const_node(&mut self, v: f32) -> NodeId {
        let key = PureKey::ConstF(v.to_bits());
        if let Some(&n) = self.cse.get(&key) {
            return n;
        }
        let n = self.push_node(NodeKind::ConstF(v), vec![], vec![]);
        self.cse.insert(key, n);
        n
    }

    fn bool_node(&mut self, v: bool) -> NodeId {
        let key = PureKey::ConstB(v);
        if let Some(&n) = self.cse.get(&key) {
            return n;
        }
        let n = self.push_node(NodeKind::ConstB(v), vec![], vec![]);
        self.cse.insert(key, n);
        n
    }

    // ---- expressions ----

    fn expr(&mut self, lw: &mut Lowerer<'_>, e: &HirExpr, span: Span) -> Option<NodeId> {
        if !lw.enter_depth(span) {
            return None;
        }
        let result = self.expr_guarded(lw, e, span);
        lw.leave_depth();
        result
    }

    fn expr_guarded(&mut self, lw: &mut Lowerer<'_>, e: &HirExpr, span: Span) -> Option<NodeId> {
        match e {
            HirExpr::FloatLit(v) => Some(if lw.opts.optimize {
                self.const_node(*v)
            } else {
                self.push_node(NodeKind::ConstF(*v), vec![], vec![])
            }),
            HirExpr::IntLit(v) => Some(if lw.opts.optimize {
                self.const_node(*v as f32)
            } else {
                self.push_node(NodeKind::ConstF(*v as f32), vec![], vec![])
            }),
            HirExpr::ReadVar(v) => Some(self.read_scalar(lw, *v)),
            HirExpr::ReadElem { var, indices } => {
                let addr = self.cell_addr(lw, *var, indices, span)?;
                Some(self.load(lw, *var, addr))
            }
            HirExpr::Binary { op, lhs, rhs, .. } => {
                let l = self.expr(lw, lhs, span)?;
                let r = self.expr(lw, rhs, span)?;
                let kind = match op {
                    BinOp::Add => NodeKind::FAdd,
                    BinOp::Sub => NodeKind::FSub,
                    BinOp::Mul => NodeKind::FMul,
                    BinOp::Div => NodeKind::FDiv,
                    BinOp::Eq => NodeKind::FCmp(CmpOp::Eq),
                    BinOp::Ne => NodeKind::FCmp(CmpOp::Ne),
                    BinOp::Lt => NodeKind::FCmp(CmpOp::Lt),
                    BinOp::Le => NodeKind::FCmp(CmpOp::Le),
                    BinOp::Gt => NodeKind::FCmp(CmpOp::Gt),
                    BinOp::Ge => NodeKind::FCmp(CmpOp::Ge),
                    BinOp::And => NodeKind::BAnd,
                    BinOp::Or => NodeKind::BOr,
                };
                Some(self.pure(lw, kind, vec![l, r]))
            }
            HirExpr::Unary { op, operand, .. } => {
                let o = self.expr(lw, operand, span)?;
                let kind = match op {
                    UnOp::Neg => NodeKind::FNeg,
                    UnOp::Not => NodeKind::BNot,
                };
                Some(self.pure(lw, kind, vec![o]))
            }
        }
    }

    fn read_scalar(&mut self, lw: &mut Lowerer<'_>, var: VarId) -> NodeId {
        if let Some(&n) = self.env.get(&var) {
            return n;
        }
        let addr = Affine::constant(i64::from(lw.layout.base_of(var)));
        let n = self.push_node(NodeKind::Load { var, addr }, vec![], vec![]);
        self.env.insert(var, n);
        self.scalar_first_load.entry(var).or_insert(n);
        n
    }

    fn load(&mut self, lw: &mut Lowerer<'_>, var: VarId, addr: Affine) -> NodeId {
        let _ = lw;
        let key = (var, addr.clone());
        if let Some(&v) = self.fwd.get(&key) {
            return v;
        }
        if let Some(&n) = self.load_cache.get(&key) {
            return n;
        }
        let deps: Vec<NodeId> = self
            .arr_stores
            .get(&var)
            .map(|stores| {
                stores
                    .iter()
                    .filter(|(a, _)| !a.provably_disjoint(&addr))
                    .map(|&(_, n)| n)
                    .collect()
            })
            .unwrap_or_default();
        let n = self.push_node(
            NodeKind::Load {
                var,
                addr: addr.clone(),
            },
            vec![],
            deps,
        );
        self.arr_loads
            .entry(var)
            .or_default()
            .push((addr.clone(), n));
        self.load_cache.insert(key, n);
        n
    }

    fn store(&mut self, var: VarId, addr: Affine, value: NodeId) {
        let mut deps: Vec<NodeId> = Vec::new();
        if let Some(stores) = self.arr_stores.get(&var) {
            deps.extend(
                stores
                    .iter()
                    .filter(|(a, _)| !a.provably_disjoint(&addr))
                    .map(|&(_, n)| n),
            );
        }
        if let Some(loads) = self.arr_loads.get(&var) {
            deps.extend(
                loads
                    .iter()
                    .filter(|(a, _)| !a.provably_disjoint(&addr))
                    .map(|&(_, n)| n),
            );
        }
        let n = self.push_node(
            NodeKind::Store {
                var,
                addr: addr.clone(),
            },
            vec![value],
            deps,
        );
        self.block.roots.push(n);
        // Later ops only need to depend on this store (it already depends
        // on all earlier conflicting accesses), so replace must-alias
        // entries and keep the rest.
        let stores = self.arr_stores.entry(var).or_default();
        stores.retain(|(a, _)| *a != addr);
        stores.push((addr.clone(), n));
        // Invalidate stale cached loads/forwards that may alias.
        self.load_cache
            .retain(|(v, a), _| *v != var || a.provably_disjoint(&addr));
        self.fwd
            .retain(|(v, a), _| *v != var || a.provably_disjoint(&addr));
        self.fwd.insert((var, addr), value);
    }

    fn affine(&mut self, lw: &mut Lowerer<'_>, e: &HirExpr, span: Span) -> Option<Affine> {
        if let Some(v) = e.const_int() {
            return Some(Affine::constant(v));
        }
        match e {
            HirExpr::IntLit(v) => Some(Affine::constant(*v)),
            HirExpr::ReadVar(v) => match lw.active.get(v) {
                Some(&LoopBinding { id, scale, offset }) => {
                    Some(Affine::term(id, scale).add(&Affine::constant(offset)))
                }
                None => {
                    lw.diags.error(
                        "loop index not in scope for subscript (compiler invariant)",
                        span,
                    );
                    None
                }
            },
            HirExpr::Binary { op, lhs, rhs, .. } => {
                let l = self.affine(lw, lhs, span)?;
                let r = self.affine(lw, rhs, span)?;
                match op {
                    BinOp::Add => Some(l.add(&r)),
                    BinOp::Sub => Some(l.sub(&r)),
                    BinOp::Mul => {
                        if l.is_constant() {
                            Some(r.scale(l.constant))
                        } else if r.is_constant() {
                            Some(l.scale(r.constant))
                        } else {
                            lw.diags.error(
                                "subscript is not affine in the loop indices: the IU generates \
                                 addresses by addition only (paper §6.3.2)",
                                span,
                            );
                            None
                        }
                    }
                    _ => {
                        lw.diags
                            .error("subscript is not affine in the loop indices", span);
                        None
                    }
                }
            }
            HirExpr::Unary {
                op: UnOp::Neg,
                operand,
                ..
            } => Some(self.affine(lw, operand, span)?.scale(-1)),
            _ => {
                lw.diags
                    .error("subscript is not an integer expression", span);
                None
            }
        }
    }

    /// Flattens subscripts to a word offset and adds the variable's base.
    fn cell_addr(
        &mut self,
        lw: &mut Lowerer<'_>,
        var: VarId,
        indices: &[HirExpr],
        span: Span,
    ) -> Option<Affine> {
        let flat = self.flat_index(lw, var, indices, span)?;
        Some(flat.add(&Affine::constant(i64::from(lw.layout.base_of(var)))))
    }

    fn flat_index(
        &mut self,
        lw: &mut Lowerer<'_>,
        var: VarId,
        indices: &[HirExpr],
        span: Span,
    ) -> Option<Affine> {
        let dims = lw.hir.vars[var].dims.clone();
        debug_assert_eq!(dims.len(), indices.len());
        let mut flat = Affine::constant(0);
        for (i, idx) in indices.iter().enumerate() {
            let a = self.affine(lw, idx, span)?;
            let stride: i64 = dims[i + 1..].iter().map(|&d| i64::from(d)).product();
            flat = flat.add(&a.scale(stride));
        }
        Some(flat)
    }

    fn host_slot(&mut self, lw: &mut Lowerer<'_>, host: &HostRef, span: Span) -> Option<HostSlot> {
        match host {
            HostRef::Lit(v) => Some(HostSlot::Lit(*v)),
            HostRef::Var(var) => Some(HostSlot::Elem {
                var: *var,
                index: Affine::constant(0),
            }),
            HostRef::Elem { var, indices } => {
                let index = self.flat_index(lw, *var, indices, span)?;
                Some(HostSlot::Elem { var: *var, index })
            }
        }
    }

    // ---- statements ----

    fn stmt(&mut self, lw: &mut Lowerer<'_>, stmt: &HirStmt, pred: Option<NodeId>) {
        if !lw.enter_depth(stmt.span()) {
            return;
        }
        self.stmt_guarded(lw, stmt, pred);
        lw.leave_depth();
    }

    fn stmt_guarded(&mut self, lw: &mut Lowerer<'_>, stmt: &HirStmt, pred: Option<NodeId>) {
        match stmt {
            HirStmt::Assign { lhs, rhs, span } => {
                let Some(value) = self.expr(lw, rhs, *span) else {
                    return;
                };
                self.assign(lw, lhs, value, pred, *span);
            }
            HirStmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let Some(c) = self.expr(lw, cond, *span) else {
                    return;
                };
                let p_then = match pred {
                    Some(p) => self.pure(lw, NodeKind::BAnd, vec![p, c]),
                    None => c,
                };
                for s in then_body {
                    self.stmt(lw, s, Some(p_then));
                }
                if !else_body.is_empty() {
                    let not_c = self.pure(lw, NodeKind::BNot, vec![c]);
                    let p_else = match pred {
                        Some(p) => self.pure(lw, NodeKind::BAnd, vec![p, not_c]),
                        None => not_c,
                    };
                    for s in else_body {
                        self.stmt(lw, s, Some(p_else));
                    }
                }
            }
            HirStmt::Receive {
                dir,
                chan,
                dst,
                ext,
                span,
            } => {
                debug_assert!(pred.is_none(), "sema rejects receive under if");
                let ext_slot = match ext {
                    Some(h) => self.host_slot(lw, h, *span),
                    None => None,
                };
                let dep = self.last_recv.get(&(*dir, *chan)).copied();
                let n = self.push_node(
                    NodeKind::Recv {
                        dir: *dir,
                        chan: *chan,
                        ext: ext_slot,
                    },
                    vec![],
                    dep.into_iter().collect(),
                );
                self.block.roots.push(n);
                self.last_recv.insert((*dir, *chan), n);
                self.assign(lw, dst, n, None, *span);
            }
            HirStmt::Send {
                dir,
                chan,
                value,
                ext,
                span,
            } => {
                debug_assert!(pred.is_none(), "sema rejects send under if");
                let Some(v) = self.expr(lw, value, *span) else {
                    return;
                };
                let ext_slot = match ext {
                    Some(h) => self.host_slot(lw, h, *span),
                    None => None,
                };
                let dep = self.last_send.get(&(*dir, *chan)).copied();
                let n = self.push_node(
                    NodeKind::Send {
                        dir: *dir,
                        chan: *chan,
                        ext: ext_slot,
                    },
                    vec![v],
                    dep.into_iter().collect(),
                );
                self.block.roots.push(n);
                self.last_send.insert((*dir, *chan), n);
            }
            HirStmt::For { .. } => unreachable!("loops are handled by lower_seq"),
        }
    }

    fn assign(
        &mut self,
        lw: &mut Lowerer<'_>,
        lhs: &HirLValue,
        value: NodeId,
        pred: Option<NodeId>,
        span: Span,
    ) {
        match lhs {
            HirLValue::Var(var) => {
                let value = match pred {
                    Some(p) => {
                        let old = self.read_scalar(lw, *var);
                        self.pure(lw, NodeKind::Select, vec![p, value, old])
                    }
                    None => value,
                };
                self.env.insert(*var, value);
                if self.modified_set.insert(*var) {
                    self.modified.push(*var);
                }
            }
            HirLValue::Elem { var, indices } => {
                let Some(addr) = self.cell_addr(lw, *var, indices, span) else {
                    return;
                };
                let value = match pred {
                    Some(p) => {
                        let old = self.load(lw, *var, addr.clone());
                        self.pure(lw, NodeKind::Select, vec![p, value, old])
                    }
                    None => value,
                };
                self.store(*var, addr, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::parse_and_check;

    fn lower_src(src: &str) -> CellIr {
        let hir = parse_and_check(src).expect("front end accepts");
        lower(&hir, &LowerOptions::default()).expect("lowering succeeds")
    }

    fn wrap(body: &str) -> String {
        format!(
            "module m (zs in, rs out) float zs[16]; float rs[16]; \
             cellprogram (cid : 0 : 1) begin function f begin \
             float x, y, z; float arr[8]; float mat[4, 4]; int i, j; {body} end call f; end"
        )
    }

    #[test]
    fn polynomial_structure() {
        let src = r#"
module polynomial (z in, c in, results out)
float z[100], c[10];
float results[100];
cellprogram (cid : 0 : 9)
begin
  function poly
  begin
    float coeff, temp, xin, yin, ans;
    int i;
    receive (L, X, coeff, c[0]);
    for i := 1 to 9 do begin
      receive (L, X, temp, c[i]);
      send (R, X, temp);
    end;
    send (R, X, 0.0);
    for i := 0 to 99 do begin
      receive (L, X, xin, z[i]);
      receive (L, Y, yin, 0.0);
      send (R, X, xin);
      ans := coeff + yin*xin;
      send (R, Y, ans, results[i]);
    end;
  end
  call poly;
end
"#;
        let ir = lower_src(src);
        assert_eq!(ir.loops.len(), 2);
        assert_eq!(ir.loops[LoopId(0)].count, 9);
        assert_eq!(ir.loops[LoopId(1)].count, 100);
        // Seq: [block(recv coeff), loop, block(send 0), loop]
        match &ir.root {
            Region::Seq(rs) => {
                assert_eq!(rs.len(), 4);
                assert!(matches!(rs[0], Region::Block(_)));
                assert!(matches!(rs[1], Region::Loop { .. }));
                assert!(matches!(rs[2], Region::Block(_)));
                assert!(matches!(rs[3], Region::Loop { .. }));
            }
            other => panic!("unexpected root {other:?}"),
        }
        assert_eq!(ir.n_cells, 10);
    }

    #[test]
    fn cse_merges_repeated_subexpressions() {
        let ir = lower_src(&wrap("x := y*y + y*y;"));
        let b = &ir.blocks[BlockId(0)];
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FMul)), 1);
    }

    #[test]
    fn constant_folding() {
        let ir = lower_src(&wrap("x := 2.0 * 3.0 + 1.0;"));
        let b = &ir.blocks[BlockId(0)];
        assert_eq!(
            b.count_live(|k| matches!(k, NodeKind::FMul | NodeKind::FAdd)),
            0
        );
        assert_eq!(
            b.count_live(|k| matches!(k, NodeKind::ConstF(v) if *v == 7.0)),
            1
        );
    }

    #[test]
    fn identity_removal() {
        let ir = lower_src(&wrap("x := y - 0.0; z := y * 1.0;"));
        let b = &ir.blocks[BlockId(0)];
        assert_eq!(
            b.count_live(|k| matches!(k, NodeKind::FSub | NodeKind::FMul)),
            0
        );
        // `y + 0.0` is not an identity: it turns y = −0.0 into +0.0.
        let ir = lower_src(&wrap("x := y + 0.0;"));
        let b = &ir.blocks[BlockId(0)];
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FAdd)), 1);
    }

    #[test]
    fn no_opt_mode_keeps_everything() {
        let hir = parse_and_check(&wrap("x := 2.0 * 3.0 + y*y + y*y;")).unwrap();
        let opts = LowerOptions {
            optimize: false,
            ..LowerOptions::default()
        };
        let ir = lower(&hir, &opts).unwrap();
        let b = &ir.blocks[BlockId(0)];
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FMul)), 3);
    }

    #[test]
    fn store_to_load_forwarding() {
        let ir = lower_src(&wrap("arr[3] := y; x := arr[3];"));
        let b = &ir.blocks[BlockId(0)];
        // The load of arr[3] is forwarded; only the store and the scalar
        // traffic remain.
        assert_eq!(
            b.count_live(|k| matches!(k, NodeKind::Load { var, .. } if var.0 >= 5)),
            0,
            "no array load should remain"
        );
    }

    #[test]
    fn disjoint_array_ops_have_no_deps() {
        let ir = lower_src(&wrap("arr[0] := y; x := arr[1];"));
        let b = &ir.blocks[BlockId(0)];
        let load = b
            .live_nodes()
            .into_iter()
            .find(|&n| matches!(b.nodes[n].kind, NodeKind::Load { addr: ref a, .. } if !a.is_constant() || a.constant > 4))
            .or_else(|| {
                b.live_nodes()
                    .into_iter()
                    .find(|&n| matches!(b.nodes[n].kind, NodeKind::Load { .. }))
            });
        // arr[1]'s load must not depend on the store to arr[0].
        if let Some(load) = load {
            let store_ids: Vec<NodeId> = b
                .live_nodes()
                .into_iter()
                .filter(|&n| matches!(b.nodes[n].kind, NodeKind::Store { .. }))
                .collect();
            for s in store_ids {
                assert!(!b.nodes[load].deps.contains(&s));
            }
        }
    }

    #[test]
    fn aliasing_array_ops_are_ordered() {
        // Same symbolic subscript in two loops? Within one block: i vs i+0
        // cannot be distinguished from j: store arr[i], load arr[j] may
        // alias (coefficients differ), so a dep edge must exist.
        let ir = lower_src(&wrap(
            "for i := 0 to 3 do begin arr[i] := y; x := arr[i + 1]; end;",
        ));
        // block inside the loop
        let b = ir
            .blocks
            .values()
            .find(|b| b.count_live(|k| matches!(k, NodeKind::Store { .. })) > 0)
            .expect("loop body block");
        // arr[i] and arr[i+1] are provably disjoint: the load has no dep.
        let loads: Vec<_> = b
            .live_nodes()
            .into_iter()
            .filter(|&n| matches!(b.nodes[n].kind, NodeKind::Load { .. }))
            .collect();
        for l in loads {
            assert!(b.nodes[l].deps.is_empty());
        }
    }

    #[test]
    fn predication_generates_select() {
        let ir = lower_src(&wrap("if y < 1.0 then x := y; else x := z;"));
        let b = &ir.blocks[BlockId(0)];
        // One select per predicated assignment (then and else branches).
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::Select)), 2);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FCmp(_))), 1);
    }

    #[test]
    fn nested_predicates_combine() {
        let ir = lower_src(&wrap("if y < 1.0 then begin if z < 1.0 then x := y; end"));
        let b = &ir.blocks[BlockId(0)];
        assert!(b.count_live(|k| matches!(k, NodeKind::BAnd)) >= 1);
    }

    #[test]
    fn predicated_array_store_reads_old_value() {
        let ir = lower_src(&wrap("if y < 1.0 then arr[2] := y;"));
        let b = &ir.blocks[BlockId(0)];
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::Select)), 1);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::Load { .. })), 2); // y and arr[2]
    }

    #[test]
    fn io_order_chains() {
        let ir = lower_src(&wrap(
            "receive (L, X, x, zs[0]); receive (L, X, y, zs[1]); send (R, X, x); send (R, X, y);",
        ));
        let b = &ir.blocks[BlockId(0)];
        let recvs: Vec<_> = b
            .live_nodes()
            .into_iter()
            .filter(|&n| matches!(b.nodes[n].kind, NodeKind::Recv { .. }))
            .collect();
        assert_eq!(recvs.len(), 2);
        assert!(b.nodes[recvs[1]].deps.contains(&recvs[0]));
        let sends: Vec<_> = b
            .live_nodes()
            .into_iter()
            .filter(|&n| matches!(b.nodes[n].kind, NodeKind::Send { .. }))
            .collect();
        assert!(b.nodes[sends[1]].deps.contains(&sends[0]));
    }

    #[test]
    fn two_dim_addressing() {
        let ir = lower_src(&wrap(
            "for i := 0 to 3 do for j := 0 to 3 do mat[i, j] := 1.0;",
        ));
        let b = ir
            .blocks
            .values()
            .find(|b| b.count_live(|k| matches!(k, NodeKind::Store { .. })) > 0)
            .unwrap();
        let store = b
            .live_nodes()
            .into_iter()
            .find(|&n| matches!(b.nodes[n].kind, NodeKind::Store { .. }))
            .unwrap();
        match &b.nodes[store].kind {
            NodeKind::Store { addr, .. } => {
                // stride 4 on i, 1 on j
                assert_eq!(addr.coeff(LoopId(0)), 4);
                assert_eq!(addr.coeff(LoopId(1)), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scalar_writeback_at_block_end() {
        let ir = lower_src(&wrap("x := y + 1.0;"));
        let b = &ir.blocks[BlockId(0)];
        // y loaded, x stored.
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::Load { .. })), 1);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::Store { .. })), 1);
    }

    #[test]
    fn loop_carried_scalar_through_memory() {
        let ir = lower_src(&wrap(
            "x := 0.0; for i := 0 to 7 do begin receive (L, X, y, zs[i]); x := x + y; end; send (R, X, x, rs[0]);",
        ));
        // Loop body block loads x, stores x.
        let body = ir
            .blocks
            .values()
            .find(|b| b.count_live(|k| matches!(k, NodeKind::Recv { .. })) > 0)
            .unwrap();
        assert!(body.count_live(|k| matches!(k, NodeKind::Load { .. })) >= 1);
        assert!(body.count_live(|k| matches!(k, NodeKind::Store { .. })) >= 1);
    }

    #[test]
    fn non_affine_subscript_rejected() {
        let hir = parse_and_check(&wrap(
            "for i := 0 to 3 do for j := 0 to 3 do arr[i * j] := 1.0;",
        ))
        .unwrap();
        let err = lower(&hir, &LowerOptions::default()).unwrap_err();
        assert!(err.to_string().contains("not affine"), "{err}");
    }

    #[test]
    fn memory_overflow_rejected() {
        let hir = parse_and_check(&wrap("x := 1.0;")).unwrap();
        let err = lower(
            &hir,
            &LowerOptions {
                memory_words: 8,
                ..LowerOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("memory overflow"), "{err}");
    }
}

#[cfg(test)]
mod unroll_tests {
    use super::*;
    use w2_lang::parse_and_check;

    fn wrap(body: &str) -> String {
        format!(
            "module m (zs in, rs out) float zs[16]; float rs[16]; \
             cellprogram (cid : 0 : 1) begin function f begin \
             float x; float arr[16]; int i; {body} end call f; end"
        )
    }

    fn lower_unrolled(body: &str, unroll: u32) -> CellIr {
        let hir = parse_and_check(&wrap(body)).expect("valid");
        lower(
            &hir,
            &LowerOptions {
                unroll,
                ..LowerOptions::default()
            },
        )
        .expect("lowers")
    }

    #[test]
    fn unroll_divides_trip_count() {
        let ir = lower_unrolled(
            "for i := 0 to 15 do begin receive (L, X, x, zs[i]); arr[i] := x; end;",
            4,
        );
        assert_eq!(ir.loops[LoopId(0)].count, 4);
        assert_eq!(ir.loops[LoopId(0)].lo, 0);
        // Four array stores per body block now (plus the scalar
        // write-back of x).
        let b = ir.blocks.values().next().unwrap();
        // Store addresses: base + 4*L + j for j = 0..3.
        let mut offsets: Vec<i64> = b
            .live_nodes()
            .into_iter()
            .filter_map(|n| match &b.nodes[n].kind {
                NodeKind::Store { addr, .. } if !addr.is_constant() => {
                    assert_eq!(addr.coeff(LoopId(0)), 4);
                    Some(addr.constant)
                }
                _ => None,
            })
            .collect();
        assert_eq!(offsets.len(), 4);
        offsets.sort_unstable();
        let base = offsets[0];
        assert_eq!(offsets, vec![base, base + 1, base + 2, base + 3]);
    }

    #[test]
    fn unroll_prefers_largest_divisor() {
        let ir = lower_unrolled(
            "for i := 0 to 8 do begin receive (L, X, x, zs[0]); send (R, X, x); end;",
            4,
        );
        // 9 iterations: the largest divisor ≤ 4 is 3.
        assert_eq!(ir.loops[LoopId(0)].count, 3);
    }

    #[test]
    fn prime_trip_count_not_unrolled() {
        let ir = lower_unrolled(
            "for i := 0 to 6 do begin receive (L, X, x, zs[0]); send (R, X, x); end;",
            4,
        );
        assert_eq!(ir.loops[LoopId(0)].count, 7);
    }

    #[test]
    fn outer_loops_not_unrolled() {
        let src = "module m (zs in, rs out) float zs[16]; float rs[16]; \
             cellprogram (cid : 0 : 1) begin function f begin \
             float x; int i, j; \
             for i := 0 to 3 do for j := 0 to 3 do begin \
               receive (L, X, x, zs[i*4 + j]); send (R, X, x, rs[i*4 + j]); end; \
             end call f; end";
        let hir = parse_and_check(src).expect("valid");
        let ir = lower(
            &hir,
            &LowerOptions {
                unroll: 4,
                ..LowerOptions::default()
            },
        )
        .expect("lowers");
        // The outer loop keeps its 4 iterations (its body contains a
        // loop); the inner one fully unrolls.
        assert_eq!(ir.loops[LoopId(0)].count, 4);
        assert_eq!(ir.loops[LoopId(1)].count, 1);
    }
}
