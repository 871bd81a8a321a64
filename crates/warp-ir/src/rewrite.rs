//! The pattern-rewrite mid-end.
//!
//! The paper's §6.1 local optimizations (CSE, constant folding,
//! idempotent-operation removal, height reduction) were originally
//! hand-ordered passes baked into the DAG builder plus a monolithic
//! `opt` module. This module re-expresses them — and a few new ones —
//! as *named rewrite patterns* behind a single [`Rewrite`] trait, with
//! a worklist driver that iterates to fixpoint and reports per-pattern
//! application counts ([`RewriteStats`]).
//!
//! The catalog:
//!
//! | pattern            | effect                                               |
//! |--------------------|------------------------------------------------------|
//! | `const-fold`       | all-constant operands → constant result              |
//! | `identity`         | `x+(−0)`, `x−0`, `x·1`, `x÷1`, `¬¬x`, `select(c,t,t)`, …; |
//! |                    | `x±0` for either zero (reassoc-gated)                |
//! | `mul-special`      | `x·2 → x+x`; `x·−1 → −x`, `x·0 → 0` (reassoc-gated)  |
//! | `strength-reduce`  | `x ÷ 2ᵏ → x · 2⁻ᵏ` (bitwise exact)                   |
//! | `commute-canon`    | canonical operand order for `+`/`·` (reassoc-gated)  |
//! | `cse`              | value numbering over the whole block                 |
//! | `dead-store`       | store overwritten by a later same-address store      |
//! | `height-reduce`    | Huffman rebalance of `+`/`·` chains (reassoc-gated)  |
//!
//! Patterns that can change f32 bit patterns on special values (NaN
//! sign/payload for `x·−1`, `x·0` on NaN/∞, `x+0` on `−0.0`, any
//! reassociation) are
//! gated behind [`RewriteOptions::reassociate`], which the differential
//! oracle turns off; everything else is bitwise exact on every input.
//!
//! A note on the *dead-recv* pattern this module deliberately does
//! **not** implement: a `receive` whose value is unused still pops the
//! channel queue, and that pop synchronizes with the neighbouring
//! cell's send schedule — eliminating it would change every later
//! word on the channel. Cell codegen already drops the dead register
//! write while keeping the pop; the DAG-level dead-code pattern here
//! is the sound counterpart for memory (`dead-store`).

use crate::dag::{Block, Node, NodeId, NodeKind};
use crate::region::CellIr;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use warp_common::idvec::Id as _;

/// Result latencies of the abstract cell operations, shared between
/// DAG-level passes (height reduction) and the cell scheduler so both
/// agree on what the critical path costs. `warp_cell::CellMachine`
/// constructs one from its own fields; the default mirrors the real
/// machine (5-stage FPUs, 10-cycle divide, 1-cycle memory and I/O).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Pipelined FPU result latency (add, sub, mul, compares, …).
    pub fp: u32,
    /// Divide latency.
    pub div: u32,
    /// Memory read latency.
    pub mem: u32,
    /// Receive latency.
    pub io: u32,
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel {
            fp: 5,
            div: 10,
            mem: 1,
            io: 1,
        }
    }
}

impl LatencyModel {
    /// Result latency of one operation.
    pub fn latency_of(&self, kind: &NodeKind) -> u32 {
        match kind {
            NodeKind::ConstF(_) | NodeKind::ConstB(_) => 0,
            NodeKind::Load { .. } => self.mem,
            NodeKind::Store { .. } | NodeKind::Send { .. } => 1,
            NodeKind::Recv { .. } => self.io,
            NodeKind::FDiv => self.div,
            _ => self.fp,
        }
    }
}

/// Options controlling the rewrite driver.
#[derive(Clone, Debug, PartialEq)]
pub struct RewriteOptions {
    /// Allow patterns that can change f32 rounding or NaN bit patterns
    /// (reassociation by height reduction, `x·0 → 0`, `x·−1 → −x`,
    /// operand reordering). Off for bit-exact oracle comparison.
    pub reassociate: bool,
    /// Maximum number of rewrite applications (`None` = unlimited).
    /// The driver stops cleanly when the fuel runs out — useful for
    /// bisecting a miscompile down to the one bad application.
    pub fuel: Option<u64>,
    /// Latency model used by height reduction.
    pub latency: LatencyModel,
}

impl Default for RewriteOptions {
    fn default() -> RewriteOptions {
        RewriteOptions {
            reassociate: true,
            fuel: None,
            latency: LatencyModel::default(),
        }
    }
}

/// Per-pattern application counts from one driver run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    hits: BTreeMap<&'static str, u64>,
    /// True when the driver stopped because the fuel ran out.
    pub fuel_exhausted: bool,
}

impl RewriteStats {
    /// Records one application of `pattern`.
    pub fn record(&mut self, pattern: &'static str) {
        *self.hits.entry(pattern).or_insert(0) += 1;
    }

    /// Records `n` applications of `pattern`.
    pub fn record_n(&mut self, pattern: &'static str, n: u64) {
        if n > 0 {
            *self.hits.entry(pattern).or_insert(0) += n;
        }
    }

    /// Per-pattern counts in deterministic (name) order.
    pub fn hits(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.hits.iter().map(|(&k, &v)| (k, v))
    }

    /// Applications of one pattern.
    pub fn hits_of(&self, pattern: &str) -> u64 {
        self.hits.get(pattern).copied().unwrap_or(0)
    }

    /// Total applications across all patterns.
    pub fn total(&self) -> u64 {
        self.hits.values().sum()
    }

    /// Accumulates another run's counts into this one.
    pub fn merge(&mut self, other: &RewriteStats) {
        for (name, n) in other.hits() {
            self.record_n(name, n);
        }
        self.fuel_exhausted |= other.fuel_exhausted;
    }
}

/// What a node-level pattern application did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// Every use of the matched node must be replaced by this value.
    Replace(NodeId),
    /// The node was updated in place (e.g. operands reordered).
    Local,
}

/// One rewrite pattern: match + apply on DAG nodes (or, for patterns
/// that need a whole-block view, on the block).
///
/// A pattern implements `rewrite_node`, `rewrite_block`, or both. The
/// driver guarantees `rewrite_node` is only called on live nodes and
/// applies the returned [`Applied::Replace`] substitution itself.
pub trait Rewrite {
    /// Stable pattern name used in metrics and dumps.
    fn name(&self) -> &'static str;

    /// Attempts to rewrite the value produced by `n`.
    fn rewrite_node(&self, _cx: &mut RewriteCx<'_>, _n: NodeId) -> Option<Applied> {
        None
    }

    /// Block-scoped restructuring; applies at most `limit` rewrites and
    /// returns how many were applied.
    fn rewrite_block(&self, _cx: &mut RewriteCx<'_>, _limit: u64) -> u64 {
        0
    }
}

/// Mutable rewrite context over one block: the block itself plus a
/// constant-interning table kept in sync as patterns add nodes.
pub struct RewriteCx<'a> {
    /// The block being rewritten.
    pub block: &'a mut Block,
    /// Driver options (latency model, reassociation gate).
    pub opts: &'a RewriteOptions,
    consts: HashMap<(bool, u32), NodeId>,
}

impl<'a> RewriteCx<'a> {
    fn new(block: &'a mut Block, opts: &'a RewriteOptions) -> RewriteCx<'a> {
        let mut consts = HashMap::new();
        for (id, node) in block.nodes.iter() {
            match node.kind {
                NodeKind::ConstF(v) => {
                    consts.entry((false, v.to_bits())).or_insert(id);
                }
                NodeKind::ConstB(v) => {
                    consts.entry((true, u32::from(v))).or_insert(id);
                }
                _ => {}
            }
        }
        RewriteCx {
            block,
            opts,
            consts,
        }
    }

    /// The interned `ConstF` node for `v` (bitwise identity).
    pub fn const_f(&mut self, v: f32) -> NodeId {
        if let Some(&n) = self.consts.get(&(false, v.to_bits())) {
            return n;
        }
        let n = self.push(NodeKind::ConstF(v), vec![]);
        self.consts.insert((false, v.to_bits()), n);
        n
    }

    /// The interned `ConstB` node for `v`.
    pub fn const_b(&mut self, v: bool) -> NodeId {
        if let Some(&n) = self.consts.get(&(true, u32::from(v))) {
            return n;
        }
        let n = self.push(NodeKind::ConstB(v), vec![]);
        self.consts.insert((true, u32::from(v)), n);
        n
    }

    /// The f32 constant produced by `n`, if any.
    pub fn as_const_f(&self, n: NodeId) -> Option<f32> {
        match self.block.nodes[n].kind {
            NodeKind::ConstF(v) => Some(v),
            _ => None,
        }
    }

    /// Appends a pure node.
    pub fn push(&mut self, kind: NodeKind, inputs: Vec<NodeId>) -> NodeId {
        self.block.nodes.push(Node {
            kind,
            inputs,
            deps: vec![],
        })
    }

    /// Rewrites every input (and sequencing) edge `from` → `to`.
    pub fn replace_uses(&mut self, from: NodeId, to: NodeId) {
        debug_assert_ne!(from, to);
        for node in self.block.nodes.values_mut() {
            for i in node.inputs.iter_mut() {
                if *i == from {
                    *i = to;
                }
            }
            for d in node.deps.iter_mut() {
                if *d == from {
                    *d = to;
                }
            }
            node.deps.dedup();
        }
        for r in self.block.roots.iter_mut() {
            if *r == from {
                *r = to;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared folding core (also used by the DAG builder at construction time)
// ---------------------------------------------------------------------------

/// Outcome of folding a prospective pure node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Folded {
    /// The operation is the identity on (or selects) an existing value.
    Use(NodeId),
    /// The operation folds to an f32 constant.
    F(f32),
    /// The operation folds to a boolean constant.
    B(bool),
}

/// Constant folding and identity ("idempotent operation") removal for a
/// pure operation over existing nodes. This is the single home of the
/// paper's §6.1 folding rules: the DAG builder applies it eagerly at
/// construction and the `const-fold`/`identity` patterns re-apply it
/// whenever other rewrites expose new opportunities.
pub fn fold_value(block: &Block, kind: &NodeKind, inputs: &[NodeId]) -> Option<Folded> {
    const POS_ZERO: u32 = 0;
    const NEG_ZERO: u32 = 1 << 31;
    let cf = |n: NodeId| match block.nodes[n].kind {
        NodeKind::ConstF(v) => Some(v),
        _ => None,
    };
    let cb = |n: NodeId| match block.nodes[n].kind {
        NodeKind::ConstB(v) => Some(v),
        _ => None,
    };
    match kind {
        NodeKind::FAdd => {
            let (a, b) = (inputs[0], inputs[1]);
            // Only `−0.0` is an exact additive identity: `x + 0.0` turns
            // `−0.0` into `+0.0` (a float literal pattern would match
            // both zeros, so compare bits).
            match (cf(a), cf(b)) {
                (Some(x), Some(y)) => Some(Folded::F(x + y)),
                (Some(z), None) if z.to_bits() == NEG_ZERO => Some(Folded::Use(b)),
                (None, Some(z)) if z.to_bits() == NEG_ZERO => Some(Folded::Use(a)),
                _ => None,
            }
        }
        NodeKind::FSub => {
            let (a, b) = (inputs[0], inputs[1]);
            match (cf(a), cf(b)) {
                (Some(x), Some(y)) => Some(Folded::F(x - y)),
                (None, Some(z)) if z.to_bits() == POS_ZERO => Some(Folded::Use(a)),
                _ => None,
            }
        }
        NodeKind::FMul => {
            let (a, b) = (inputs[0], inputs[1]);
            match (cf(a), cf(b)) {
                (Some(x), Some(y)) => Some(Folded::F(x * y)),
                (Some(1.0), None) => Some(Folded::Use(b)),
                (None, Some(1.0)) => Some(Folded::Use(a)),
                _ => None,
            }
        }
        NodeKind::FDiv => {
            let (a, b) = (inputs[0], inputs[1]);
            match (cf(a), cf(b)) {
                (Some(x), Some(y)) if y != 0.0 => Some(Folded::F(x / y)),
                (None, Some(1.0)) => Some(Folded::Use(a)),
                _ => None,
            }
        }
        NodeKind::FNeg => match cf(inputs[0]) {
            Some(x) => Some(Folded::F(-x)),
            None => match block.nodes[inputs[0]].kind {
                NodeKind::FNeg => Some(Folded::Use(block.nodes[inputs[0]].inputs[0])),
                _ => None,
            },
        },
        NodeKind::FCmp(op) => {
            let (a, b) = (cf(inputs[0])?, cf(inputs[1])?);
            Some(Folded::B(op.apply(a, b)))
        }
        NodeKind::BAnd => {
            let (a, b) = (inputs[0], inputs[1]);
            match (cb(a), cb(b)) {
                (Some(true), _) => Some(Folded::Use(b)),
                (_, Some(true)) => Some(Folded::Use(a)),
                (Some(false), _) | (_, Some(false)) => Some(Folded::B(false)),
                _ => None,
            }
        }
        NodeKind::BOr => {
            let (a, b) = (inputs[0], inputs[1]);
            match (cb(a), cb(b)) {
                (Some(false), _) => Some(Folded::Use(b)),
                (_, Some(false)) => Some(Folded::Use(a)),
                (Some(true), _) | (_, Some(true)) => Some(Folded::B(true)),
                _ => None,
            }
        }
        NodeKind::BNot => match cb(inputs[0]) {
            Some(v) => Some(Folded::B(!v)),
            None => match block.nodes[inputs[0]].kind {
                NodeKind::BNot => Some(Folded::Use(block.nodes[inputs[0]].inputs[0])),
                _ => None,
            },
        },
        NodeKind::Select => {
            let (c, t, f) = (inputs[0], inputs[1], inputs[2]);
            if t == f {
                return Some(Folded::Use(t));
            }
            match cb(c) {
                Some(true) => Some(Folded::Use(t)),
                Some(false) => Some(Folded::Use(f)),
                None => None,
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Node-level patterns
// ---------------------------------------------------------------------------

struct ConstFold;

impl Rewrite for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn rewrite_node(&self, cx: &mut RewriteCx<'_>, n: NodeId) -> Option<Applied> {
        let node = &cx.block.nodes[n];
        if !node.kind.is_pure() {
            return None;
        }
        let (kind, inputs) = (node.kind.clone(), node.inputs.clone());
        match fold_value(cx.block, &kind, &inputs)? {
            Folded::Use(_) => None, // identity's job
            Folded::F(v) => Some(Applied::Replace(cx.const_f(v))),
            Folded::B(v) => Some(Applied::Replace(cx.const_b(v))),
        }
    }
}

struct Identity;

impl Rewrite for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn rewrite_node(&self, cx: &mut RewriteCx<'_>, n: NodeId) -> Option<Applied> {
        let node = &cx.block.nodes[n];
        if !node.kind.is_pure() {
            return None;
        }
        let same = match fold_value(cx.block, &node.kind, &node.inputs) {
            Some(Folded::Use(m)) => Some(m),
            _ if cx.opts.reassociate => zero_identity(cx.block, n),
            _ => None,
        };
        same.filter(|m| *m != n).map(Applied::Replace)
    }
}

/// `x + 0 → x`, `0 + x → x`, `x − 0 → x` for a zero of *either* sign.
/// Not bitwise exact (`−0.0 + 0.0` is `+0.0`, and so is `−0.0 − −0.0`),
/// so it rides behind the reassociate gate like `x·0 → 0`;
/// [`fold_value`] has the exact forms.
fn zero_identity(block: &Block, n: NodeId) -> Option<NodeId> {
    let node = &block.nodes[n];
    let constant = |m: NodeId| matches!(block.nodes[m].kind, NodeKind::ConstF(_));
    // `−0.0 == 0.0`: either zero compares equal.
    let zero = |m: NodeId| block.nodes[m].kind == NodeKind::ConstF(0.0);
    if !matches!(node.kind, NodeKind::FAdd | NodeKind::FSub) {
        return None;
    }
    let (a, b) = (node.inputs[0], node.inputs[1]);
    if zero(b) && !constant(a) {
        Some(a)
    } else if node.kind == NodeKind::FAdd && zero(a) && !constant(b) {
        Some(b)
    } else {
        None
    }
}

/// `x·2 → x+x` (ungated: bitwise exact for every input — both compute
/// the same correctly-rounded value and propagate the same NaN), plus
/// the reassociate-gated `x·−1 → −x` (NaN sign differs) and `x·0 → 0`
/// (wrong on NaN/∞).
struct MulSpecial;

impl Rewrite for MulSpecial {
    fn name(&self) -> &'static str {
        "mul-special"
    }

    fn rewrite_node(&self, cx: &mut RewriteCx<'_>, n: NodeId) -> Option<Applied> {
        if cx.block.nodes[n].kind != NodeKind::FMul {
            return None;
        }
        let (a, b) = (cx.block.nodes[n].inputs[0], cx.block.nodes[n].inputs[1]);
        let (ca, cb) = (cx.as_const_f(a), cx.as_const_f(b));
        let (x, c) = match (ca, cb) {
            (None, Some(c)) => (a, c),
            (Some(c), None) => (b, c),
            _ => return None,
        };
        if c == 2.0 {
            let add = cx.push(NodeKind::FAdd, vec![x, x]);
            return Some(Applied::Replace(add));
        }
        if cx.opts.reassociate {
            if c == -1.0 {
                let neg = cx.push(NodeKind::FNeg, vec![x]);
                return Some(Applied::Replace(neg));
            }
            if c == 0.0 {
                return Some(Applied::Replace(cx.const_f(c)));
            }
        }
        None
    }
}

/// `x ÷ c → x · (1/c)` when `c` and `1/c` are both normal powers of
/// two: multiplication and division by an exact power of two round the
/// same real value, so the results are bitwise identical (including
/// NaN/∞ propagation) while the operation drops from the 10-cycle
/// divider to the 5-cycle multiplier.
struct StrengthReduce;

fn exact_reciprocal(c: f32) -> Option<f32> {
    let pow2 = |v: f32| {
        let bits = v.to_bits();
        let exp = (bits >> 23) & 0xFF;
        (bits & 0x007F_FFFF) == 0 && exp != 0 && exp != 0xFF
    };
    if c == 1.0 || !pow2(c) {
        return None;
    }
    let recip = 1.0 / c;
    pow2(recip).then_some(recip)
}

impl Rewrite for StrengthReduce {
    fn name(&self) -> &'static str {
        "strength-reduce"
    }

    fn rewrite_node(&self, cx: &mut RewriteCx<'_>, n: NodeId) -> Option<Applied> {
        if cx.block.nodes[n].kind != NodeKind::FDiv {
            return None;
        }
        let (x, d) = (cx.block.nodes[n].inputs[0], cx.block.nodes[n].inputs[1]);
        let recip = exact_reciprocal(cx.as_const_f(d)?)?;
        let r = cx.const_f(recip);
        let mul = cx.push(NodeKind::FMul, vec![x, r]);
        Some(Applied::Replace(mul))
    }
}

/// Canonical operand order for commutative chains: constants to the
/// right, otherwise lower node id first. Purely a normalization (it
/// maximizes CSE matches and stabilizes dumps), but operand order can
/// pick a different NaN payload on two-NaN inputs, so it rides behind
/// the reassociate gate with the other bit-pattern-changing rewrites.
struct CommuteCanon;

impl Rewrite for CommuteCanon {
    fn name(&self) -> &'static str {
        "commute-canon"
    }

    fn rewrite_node(&self, cx: &mut RewriteCx<'_>, n: NodeId) -> Option<Applied> {
        if !cx.opts.reassociate {
            return None;
        }
        let node = &cx.block.nodes[n];
        if !crate::build::is_commutative(&node.kind) || node.inputs.len() != 2 {
            return None;
        }
        let (a, b) = (node.inputs[0], node.inputs[1]);
        let is_const = |m: NodeId| {
            matches!(
                cx.block.nodes[m].kind,
                NodeKind::ConstF(_) | NodeKind::ConstB(_)
            )
        };
        let swap = match (is_const(a), is_const(b)) {
            (true, false) => true,
            (false, true) | (true, true) => false,
            (false, false) => b < a,
        };
        if !swap {
            return None;
        }
        cx.block.nodes[n].inputs.swap(0, 1);
        Some(Applied::Local)
    }
}

// ---------------------------------------------------------------------------
// Block-level patterns
// ---------------------------------------------------------------------------

/// Value numbering over the whole block (the builder's construction-time
/// CSE re-run after other patterns have rewritten operands).
struct Cse;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum CseKey {
    ConstF(u32),
    ConstB(bool),
    Bin(u8, NodeId, NodeId),
    Un(u8, NodeId),
    Sel(NodeId, NodeId, NodeId),
}

fn cse_key(block: &Block, n: NodeId) -> Option<CseKey> {
    let node = &block.nodes[n];
    Some(match &node.kind {
        NodeKind::ConstF(v) => CseKey::ConstF(v.to_bits()),
        NodeKind::ConstB(v) => CseKey::ConstB(*v),
        NodeKind::FNeg => CseKey::Un(0, node.inputs[0]),
        NodeKind::BNot => CseKey::Un(1, node.inputs[0]),
        NodeKind::Select => CseKey::Sel(node.inputs[0], node.inputs[1], node.inputs[2]),
        kind if kind.is_pure() => {
            let (mut a, mut b) = (node.inputs[0], node.inputs[1]);
            if crate::build::is_commutative(kind) && b < a {
                std::mem::swap(&mut a, &mut b);
            }
            CseKey::Bin(crate::build::bin_code(kind), a, b)
        }
        _ => return None,
    })
}

impl Rewrite for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn rewrite_block(&self, cx: &mut RewriteCx<'_>, limit: u64) -> u64 {
        let mut seen: HashMap<CseKey, NodeId> = HashMap::new();
        let mut applied = 0u64;
        for n in cx.block.live_nodes() {
            if applied >= limit {
                break;
            }
            let Some(key) = cse_key(cx.block, n) else {
                continue;
            };
            match seen.get(&key) {
                Some(&m) if m != n => {
                    cx.replace_uses(n, m);
                    applied += 1;
                }
                Some(_) => {}
                None => {
                    seen.insert(key, n);
                }
            }
        }
        applied
    }
}

/// Removes a store whose cell is overwritten by a later store to the
/// identical address before anyone reads it. Soundness: the only
/// readers the builder could have recorded are sequencing deps on the
/// store, so a store with no dep-successors other than the overwriting
/// store is invisible; its ordering obligations are spliced into the
/// successor. (This is the sound stand-in for dead-*recv* elimination,
/// which is impossible here: an unused receive still pops the channel
/// queue, and that pop synchronizes with the neighbouring cell.)
struct DeadStore;

impl Rewrite for DeadStore {
    fn name(&self) -> &'static str {
        "dead-store"
    }

    fn rewrite_block(&self, cx: &mut RewriteCx<'_>, limit: u64) -> u64 {
        if limit == 0 {
            return 0;
        }
        let live = cx.block.live_nodes();
        for i in 0..cx.block.roots.len() {
            let r = cx.block.roots[i];
            let (var, addr) = match &cx.block.nodes[r].kind {
                NodeKind::Store { var, addr } => (*var, addr.clone()),
                _ => continue,
            };
            // A later root store to the identical cell.
            let Some(shadow) = cx.block.roots[i + 1..].iter().copied().find(|&r2| {
                matches!(&cx.block.nodes[r2].kind,
                    NodeKind::Store { var: v2, addr: a2 } if *v2 == var && *a2 == addr)
            }) else {
                continue;
            };
            // Any other dep-successor (a may-alias load, an ordering
            // anchor) still needs this store in place.
            let watched = live
                .iter()
                .any(|&m| m != shadow && m != r && cx.block.nodes[m].deps.contains(&r));
            if watched {
                continue;
            }
            // Remove the store, splicing its ordering obligations into
            // the overwriting store.
            let spliced = cx.block.nodes[r].deps.clone();
            cx.block.roots.remove(i);
            let deps = &mut cx.block.nodes[shadow].deps;
            deps.retain(|&d| d != r);
            for d in spliced {
                if d != shadow && !deps.contains(&d) {
                    deps.push(d);
                }
            }
            return 1;
        }
        0
    }
}

/// Rebalances single-use chains of `FAdd`/`FMul` by combining the two
/// *shallowest* operands first (Huffman-style), which minimizes the
/// resulting critical path and never exceeds the original chain's.
///
/// Only chains whose intermediate nodes have exactly one use are
/// touched, so observable rounding behaviour changes only where the
/// paper's compiler would have reassociated too — and the whole
/// pattern sits behind the reassociate gate.
struct HeightReduce;

impl Rewrite for HeightReduce {
    fn name(&self) -> &'static str {
        "height-reduce"
    }

    fn rewrite_block(&self, cx: &mut RewriteCx<'_>, limit: u64) -> u64 {
        if !cx.opts.reassociate {
            return 0;
        }
        let mut applied = 0u64;
        while applied < limit && height_reduce_once(cx.block, &cx.opts.latency) {
            applied += 1;
        }
        applied
    }
}

/// Standalone height reduction to fixpoint (the block-level pattern
/// drives the same routine through the rewrite driver).
pub fn height_reduce(block: &mut Block, latency: &LatencyModel) {
    // Each pass rebalances at most one tree and then restarts, because
    // a rebalance appends nodes and rewires inputs, invalidating the
    // use counts. The pass count is bounded by the number of chain
    // heads, which only shrinks.
    for _ in 0..block.nodes.len() + 8 {
        if !height_reduce_once(block, latency) {
            break;
        }
    }
}

fn height_reduce_once(block: &mut Block, latency: &LatencyModel) -> bool {
    let uses = use_counts(block);
    let live = block.live_nodes();
    // Availability depth per node under the latency model.
    let mut depth: Vec<Option<u64>> = vec![None; block.nodes.len()];
    for &n in &live {
        node_depth(block, latency, n, &mut depth);
    }
    for n in live {
        if !is_assoc(&block.nodes[n].kind) {
            continue;
        }
        // Skip chain-internal nodes; the chain head handles them.
        if uses[n.index()] == 1 {
            if let Some(user) = single_user(block, n) {
                if block.nodes[user].kind == block.nodes[n].kind {
                    continue;
                }
            }
        }
        let mut leaves = Vec::new();
        collect_leaves(block, &uses, n, &block.nodes[n].kind.clone(), &mut leaves);
        if leaves.len() < 3 {
            continue;
        }
        // Was the chain already optimal? Combine shallowest-first and
        // compare against the chain head's current depth.
        let kind = block.nodes[n].kind.clone();
        let lat = u64::from(latency.latency_of(&kind));
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, NodeId)>> = leaves
            .iter()
            .map(|&l| std::cmp::Reverse((depth[l.index()].expect("computed"), l)))
            .collect();
        let mut new_nodes: Vec<(NodeId, NodeId)> = Vec::new();
        while heap.len() > 2 {
            let std::cmp::Reverse((da, a)) = heap.pop().expect("len > 2");
            let std::cmp::Reverse((db, b)) = heap.pop().expect("len > 1");
            // Placeholder id; allocated below only if we commit.
            let placeholder = NodeId(u32::MAX - new_nodes.len() as u32);
            new_nodes.push((a, b));
            heap.push(std::cmp::Reverse((da.max(db) + lat, placeholder)));
        }
        let std::cmp::Reverse((d1, top_a)) = heap.pop().expect("two remain");
        let std::cmp::Reverse((d2, top_b)) = heap.pop().expect("one remains");
        let new_depth = d1.max(d2) + lat;
        if new_depth >= depth[n.index()].expect("computed") {
            continue; // no improvement: keep the existing shape
        }
        // Commit: materialize the combines in order; placeholders are
        // resolved as the nodes are created.
        let base = block.nodes.len() as u32;
        let resolve = |id: NodeId, base: u32| -> NodeId {
            if id.0 > u32::MAX - 4096 {
                NodeId(base + (u32::MAX - id.0))
            } else {
                id
            }
        };
        for &(a, b) in &new_nodes {
            block.nodes.push(Node {
                kind: kind.clone(),
                inputs: vec![resolve(a, base), resolve(b, base)],
                deps: vec![],
            });
        }
        block.nodes[n].inputs = vec![resolve(top_a, base), resolve(top_b, base)];
        // Restart: the appended nodes are not covered by `uses`.
        return true;
    }
    false
}

/// Memoized availability depth under the latency model.
fn node_depth(
    block: &Block,
    latency: &LatencyModel,
    n: NodeId,
    memo: &mut Vec<Option<u64>>,
) -> u64 {
    if let Some(d) = memo[n.index()] {
        return d;
    }
    let node = &block.nodes[n];
    let mut start = 0;
    for &i in &node.inputs {
        start = start.max(node_depth(block, latency, i, memo));
    }
    for &d in &node.deps {
        start = start.max(node_depth(block, latency, d, memo).max(1));
    }
    let d = start + u64::from(latency.latency_of(&node.kind));
    memo[n.index()] = Some(d);
    d
}

fn is_assoc(kind: &NodeKind) -> bool {
    matches!(kind, NodeKind::FAdd | NodeKind::FMul)
}

fn single_user(block: &Block, n: NodeId) -> Option<NodeId> {
    let mut user = None;
    for (id, node) in block.nodes.iter() {
        if node.inputs.contains(&n) {
            if user.is_some() {
                return None;
            }
            user = Some(id);
        }
    }
    user
}

fn collect_leaves(
    block: &Block,
    uses: &[u32],
    n: NodeId,
    kind: &NodeKind,
    leaves: &mut Vec<NodeId>,
) {
    for &inp in &block.nodes[n].inputs {
        if &block.nodes[inp].kind == kind && uses[inp.index()] == 1 {
            collect_leaves(block, uses, inp, kind, leaves);
        } else {
            leaves.push(inp);
        }
    }
}

// ---------------------------------------------------------------------------
// Worklist driver
// ---------------------------------------------------------------------------

/// A set of boxed patterns, in application order.
type Patterns = Vec<Box<dyn Rewrite>>;

/// The standard pattern catalog in application order.
fn catalog() -> (Patterns, Patterns) {
    let node: Patterns = vec![
        Box::new(ConstFold),
        Box::new(Identity),
        Box::new(StrengthReduce),
        Box::new(MulSpecial),
        Box::new(CommuteCanon),
    ];
    let block: Patterns = vec![Box::new(Cse), Box::new(DeadStore), Box::new(HeightReduce)];
    (node, block)
}

/// Runs the full pattern catalog on one block to fixpoint (or until the
/// fuel runs out). Node patterns run through a worklist seeded with the
/// live nodes; each applied substitution re-enqueues the affected
/// users. Block patterns run once the worklist drains; any application
/// restarts the worklist.
pub fn rewrite_block(block: &mut Block, opts: &RewriteOptions) -> RewriteStats {
    let mut stats = RewriteStats::default();
    let mut fuel = opts.fuel;
    let mut cx = RewriteCx::new(block, opts);
    let (node_patterns, block_patterns) = catalog();

    // Every committed rewrite strictly shrinks the live DAG, folds a
    // constant, or strictly reduces a chain's depth, so the fixpoint is
    // finite; the round cap is a defensive backstop.
    let max_rounds = cx.block.nodes.len() * 2 + 64;
    'driver: for _ in 0..max_rounds {
        let mut changed = false;

        let mut live: HashSet<NodeId> = cx.block.live_nodes().into_iter().collect();
        let mut queue: VecDeque<NodeId> = cx.block.live_nodes().into();
        let mut queued: HashSet<NodeId> = queue.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            queued.remove(&n);
            if !live.contains(&n) {
                continue;
            }
            if fuel == Some(0) {
                stats.fuel_exhausted = true;
                break 'driver;
            }
            for pat in &node_patterns {
                let Some(applied) = pat.rewrite_node(&mut cx, n) else {
                    continue;
                };
                stats.record(pat.name());
                if let Some(f) = fuel.as_mut() {
                    *f -= 1;
                }
                changed = true;
                match applied {
                    Applied::Replace(m) => {
                        cx.replace_uses(n, m);
                        live = cx.block.live_nodes().into_iter().collect();
                        // The replacement and everyone now using it may
                        // enable further patterns.
                        for &u in &live {
                            let uses_m = u == m || cx.block.nodes[u].inputs.contains(&m);
                            if uses_m && queued.insert(u) {
                                queue.push_back(u);
                            }
                        }
                    }
                    Applied::Local => {
                        if queued.insert(n) {
                            queue.push_back(n);
                        }
                    }
                }
                break;
            }
        }

        for pat in &block_patterns {
            let limit = fuel.unwrap_or(u64::MAX);
            if limit == 0 {
                stats.fuel_exhausted = true;
                break 'driver;
            }
            let applied = pat.rewrite_block(&mut cx, limit);
            if applied > 0 {
                stats.record_n(pat.name(), applied);
                if let Some(f) = fuel.as_mut() {
                    *f -= applied.min(*f);
                }
                changed = true;
            }
        }

        if !changed {
            break;
        }
    }
    stats
}

/// Runs the rewrite driver over every block of a module, accumulating
/// the per-pattern counts.
pub fn rewrite_module(ir: &mut CellIr, opts: &RewriteOptions) -> RewriteStats {
    let mut stats = RewriteStats::default();
    let mut fuel = opts.fuel;
    for block in ir.blocks.values_mut() {
        let block_opts = RewriteOptions {
            fuel,
            ..opts.clone()
        };
        let s = rewrite_block(block, &block_opts);
        if let Some(f) = fuel.as_mut() {
            *f -= s.total().min(*f);
        }
        stats.merge(&s);
        if stats.fuel_exhausted {
            break;
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// DAG metrics
// ---------------------------------------------------------------------------

/// Counts value uses of each node among the live nodes (roots count once).
pub fn use_counts(block: &Block) -> Vec<u32> {
    let mut uses = vec![0u32; block.nodes.len()];
    for n in block.live_nodes() {
        for &inp in &block.nodes[n].inputs {
            uses[inp.index()] += 1;
        }
    }
    for &r in &block.roots {
        uses[r.index()] += 1;
    }
    uses
}

/// Length of the longest latency-weighted path through the live DAG.
///
/// `latency` gives each operation's result latency; sequencing deps
/// contribute a latency of 1 (the dep must merely issue first).
pub fn critical_path(block: &Block, latency: impl Fn(&NodeKind) -> u32) -> u32 {
    fn depth(
        block: &Block,
        latency: &impl Fn(&NodeKind) -> u32,
        n: NodeId,
        memo: &mut [Option<u32>],
    ) -> u32 {
        if let Some(d) = memo[n.index()] {
            return d;
        }
        let node = &block.nodes[n];
        let mut start = 0;
        for &i in &node.inputs {
            start = start.max(depth(block, latency, i, memo));
        }
        for &d in &node.deps {
            start = start.max(depth(block, latency, d, memo).max(1));
        }
        let d = start + latency(&node.kind);
        memo[n.index()] = Some(d);
        d
    }
    let mut memo = vec![None; block.nodes.len()];
    block
        .roots
        .iter()
        .map(|&r| depth(block, &latency, r, &mut memo))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::Affine;
    use w2_lang::hir::VarId;

    fn load(block: &mut Block, addr: i64) -> NodeId {
        block.nodes.push(Node {
            kind: NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(addr),
            },
            inputs: vec![],
            deps: vec![],
        })
    }

    fn chain(block: &mut Block, kind: NodeKind, leaves: &[NodeId]) -> NodeId {
        let mut acc = leaves[0];
        for &l in &leaves[1..] {
            acc = block.nodes.push(Node {
                kind: kind.clone(),
                inputs: vec![acc, l],
                deps: vec![],
            });
        }
        acc
    }

    fn store_root(block: &mut Block, value: NodeId) {
        store_root_at(block, value, 99)
    }

    fn store_root_at(block: &mut Block, value: NodeId, addr: i64) {
        let s = block.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(addr),
            },
            inputs: vec![value],
            deps: vec![],
        });
        block.roots.push(s);
    }

    const fn fp_latency(kind: &NodeKind) -> u32 {
        match kind {
            NodeKind::FAdd | NodeKind::FMul => 5,
            _ => 1,
        }
    }

    fn pure(block: &mut Block, kind: NodeKind, inputs: Vec<NodeId>) -> NodeId {
        block.nodes.push(Node {
            kind,
            inputs,
            deps: vec![],
        })
    }

    #[test]
    fn linear_chain_becomes_log_depth() {
        let mut b = Block::new();
        let leaves: Vec<NodeId> = (0..8).map(|i| load(&mut b, i)).collect();
        let sum = chain(&mut b, NodeKind::FAdd, &leaves);
        store_root(&mut b, sum);
        let before = critical_path(&b, fp_latency);
        assert_eq!(before, 1 + 7 * 5 + 1); // load + 7 serial adds + store
        height_reduce(&mut b, &LatencyModel::default());
        let after = critical_path(&b, fp_latency);
        assert_eq!(after, 1 + 3 * 5 + 1); // load + log2(8) adds + store
                                          // Same number of live adds.
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FAdd)), 7);
    }

    #[test]
    fn driver_height_reduces_and_reports_hits() {
        let mut b = Block::new();
        let leaves: Vec<NodeId> = (0..8).map(|i| load(&mut b, i)).collect();
        let sum = chain(&mut b, NodeKind::FAdd, &leaves);
        store_root(&mut b, sum);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert!(stats.hits_of("height-reduce") >= 1);
        assert_eq!(critical_path(&b, fp_latency), 1 + 3 * 5 + 1);
    }

    #[test]
    fn shared_subexpression_is_a_leaf() {
        // (((a+b)+c) where (a+b) has a second user: must not be absorbed.
        let mut b = Block::new();
        let a = load(&mut b, 0);
        let bb = load(&mut b, 1);
        let c = load(&mut b, 2);
        let d = load(&mut b, 3);
        let ab = pure(&mut b, NodeKind::FAdd, vec![a, bb]);
        let abc = pure(&mut b, NodeKind::FAdd, vec![ab, c]);
        let abcd = pure(&mut b, NodeKind::FAdd, vec![abc, d]);
        // Second use of ab.
        let other = pure(&mut b, NodeKind::FMul, vec![ab, ab]);
        store_root(&mut b, abcd);
        store_root_at(&mut b, other, 98);
        height_reduce(&mut b, &LatencyModel::default());
        // ab is still live (used by other).
        assert!(b.live_nodes().contains(&ab));
    }

    #[test]
    fn short_chains_untouched() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let y = load(&mut b, 1);
        let s = pure(&mut b, NodeKind::FAdd, vec![x, y]);
        store_root(&mut b, s);
        let before = b.nodes.len();
        height_reduce(&mut b, &LatencyModel::default());
        assert_eq!(b.nodes.len(), before);
    }

    #[test]
    fn mul_chains_also_reduced() {
        let mut b = Block::new();
        let leaves: Vec<NodeId> = (0..4).map(|i| load(&mut b, i)).collect();
        let prod = chain(&mut b, NodeKind::FMul, &leaves);
        store_root(&mut b, prod);
        height_reduce(&mut b, &LatencyModel::default());
        assert_eq!(critical_path(&b, fp_latency), 1 + 2 * 5 + 1);
    }

    #[test]
    fn use_counts_include_roots() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        store_root(&mut b, x);
        let counts = use_counts(&b);
        assert_eq!(counts[x.index()], 1);
        assert_eq!(counts[b.roots[0].index()], 1);
    }

    #[test]
    fn const_fold_and_identity_patterns_fire() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let c2 = pure(&mut b, NodeKind::ConstF(2.0), vec![]);
        let c3 = pure(&mut b, NodeKind::ConstF(3.0), vec![]);
        let sum = pure(&mut b, NodeKind::FAdd, vec![c2, c3]); // → 5.0
        let zero = pure(&mut b, NodeKind::ConstF(-0.0), vec![]);
        let plus0 = pure(&mut b, NodeKind::FAdd, vec![x, zero]); // x + −0.0 → x
        let out = pure(&mut b, NodeKind::FMul, vec![sum, plus0]);
        store_root(&mut b, out);
        let exact = RewriteOptions {
            reassociate: false,
            ..RewriteOptions::default()
        };
        let stats = rewrite_block(&mut b, &exact);
        assert_eq!(stats.hits_of("const-fold"), 1);
        assert_eq!(stats.hits_of("identity"), 1);
        let n = b.live_nodes();
        // out now multiplies x by the folded 5.0 directly.
        let mul = n
            .iter()
            .find(|&&m| b.nodes[m].kind == NodeKind::FMul)
            .unwrap();
        let srcs: Vec<_> = b.nodes[*mul]
            .inputs
            .iter()
            .map(|&i| b.nodes[i].kind.clone())
            .collect();
        assert!(srcs.contains(&NodeKind::ConstF(5.0)));
    }

    #[test]
    fn strength_reduction_turns_pow2_div_into_mul() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let c8 = pure(&mut b, NodeKind::ConstF(8.0), vec![]);
        let div = pure(&mut b, NodeKind::FDiv, vec![x, c8]);
        store_root(&mut b, div);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert_eq!(stats.hits_of("strength-reduce"), 1);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FDiv)), 0);
        let live = b.live_nodes();
        let mul = live
            .iter()
            .find(|&&m| b.nodes[m].kind == NodeKind::FMul)
            .expect("division became a multiply");
        let consts: Vec<f32> = b.nodes[*mul]
            .inputs
            .iter()
            .filter_map(|&i| match b.nodes[i].kind {
                NodeKind::ConstF(v) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![0.125]);
    }

    #[test]
    fn strength_reduction_skips_non_pow2() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let c3 = pure(&mut b, NodeKind::ConstF(3.0), vec![]);
        let div = pure(&mut b, NodeKind::FDiv, vec![x, c3]);
        store_root(&mut b, div);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert_eq!(stats.hits_of("strength-reduce"), 0);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FDiv)), 1);
    }

    #[test]
    fn mul_by_two_becomes_add() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let c2 = pure(&mut b, NodeKind::ConstF(2.0), vec![]);
        let m = pure(&mut b, NodeKind::FMul, vec![x, c2]);
        store_root(&mut b, m);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert_eq!(stats.hits_of("mul-special"), 1);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FMul)), 0);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FAdd)), 1);
    }

    #[test]
    fn mul_by_neg_one_and_zero_are_reassociate_gated() {
        let build = || {
            let mut b = Block::new();
            let x = load(&mut b, 0);
            let cm1 = pure(&mut b, NodeKind::ConstF(-1.0), vec![]);
            let c0 = pure(&mut b, NodeKind::ConstF(0.0), vec![]);
            let m1 = pure(&mut b, NodeKind::FMul, vec![x, cm1]);
            let m0 = pure(&mut b, NodeKind::FMul, vec![x, c0]);
            let s = pure(&mut b, NodeKind::FAdd, vec![m1, m0]);
            store_root(&mut b, s);
            b
        };
        let mut gated = build();
        let off = RewriteOptions {
            reassociate: false,
            ..RewriteOptions::default()
        };
        let s0 = rewrite_block(&mut gated, &off);
        assert_eq!(s0.hits_of("mul-special"), 0);
        assert_eq!(gated.count_live(|k| matches!(k, NodeKind::FMul)), 2);

        let mut open = build();
        let s1 = rewrite_block(&mut open, &RewriteOptions::default());
        assert!(s1.hits_of("mul-special") >= 2);
        assert_eq!(open.count_live(|k| matches!(k, NodeKind::FMul)), 0);
        assert_eq!(open.count_live(|k| matches!(k, NodeKind::FNeg)), 1);
    }

    #[test]
    fn cse_pattern_merges_exposed_duplicates() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let y = load(&mut b, 1);
        // Two identical adds built without construction-time CSE.
        let a1 = pure(&mut b, NodeKind::FAdd, vec![x, y]);
        let a2 = pure(&mut b, NodeKind::FAdd, vec![x, y]);
        let m = pure(&mut b, NodeKind::FMul, vec![a1, a2]);
        store_root(&mut b, m);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert!(stats.hits_of("cse") >= 1);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FAdd)), 1);
    }

    #[test]
    fn dead_store_removed_and_orders_spliced() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let y = load(&mut b, 1);
        // store x → [5]; store y → [5] (overwrites before any read).
        let s1 = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(5),
            },
            inputs: vec![x],
            deps: vec![x],
        });
        b.roots.push(s1);
        let s2 = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(5),
            },
            inputs: vec![y],
            deps: vec![s1],
        });
        b.roots.push(s2);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert_eq!(stats.hits_of("dead-store"), 1);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::Store { .. })), 1);
        // s2 inherited s1's ordering obligation on the load.
        assert!(b.nodes[s2].deps.contains(&x));
    }

    #[test]
    fn dead_store_kept_when_watched_by_a_load() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let s1 = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(5),
            },
            inputs: vec![x],
            deps: vec![],
        });
        b.roots.push(s1);
        // A may-alias read between the two stores.
        let rd = b.nodes.push(Node {
            kind: NodeKind::Load {
                var: VarId(0),
                addr: Affine::constant(5),
            },
            inputs: vec![],
            deps: vec![s1],
        });
        let s2 = b.nodes.push(Node {
            kind: NodeKind::Store {
                var: VarId(0),
                addr: Affine::constant(5),
            },
            inputs: vec![rd],
            deps: vec![s1, rd],
        });
        b.roots.push(s2);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert_eq!(stats.hits_of("dead-store"), 0);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::Store { .. })), 2);
    }

    #[test]
    fn only_the_exact_signed_zero_identities_are_ungated() {
        // x + 0.0, 0.0 + x and x − −0.0 turn x = −0.0 into +0.0, so the
        // plain fold leaves them alone; identity takes them only when
        // reassociation is allowed.
        for (kind, zero, zero_first, exact) in [
            (NodeKind::FAdd, -0.0f32, false, true),
            (NodeKind::FAdd, -0.0, true, true),
            (NodeKind::FSub, 0.0, false, true),
            (NodeKind::FAdd, 0.0, false, false),
            (NodeKind::FAdd, 0.0, true, false),
            (NodeKind::FSub, -0.0, false, false),
            (NodeKind::FSub, 0.0, true, false),
        ] {
            let mut b = Block::new();
            let x = load(&mut b, 0);
            let z = pure(&mut b, NodeKind::ConstF(zero), vec![]);
            let inputs = if zero_first { vec![z, x] } else { vec![x, z] };
            let folded = fold_value(&b, &kind, &inputs);
            assert_eq!(
                folded,
                exact.then_some(Folded::Use(x)),
                "{kind:?} {zero:?} {zero_first}"
            );
            let op = pure(&mut b, kind.clone(), inputs);
            store_root(&mut b, op);
            let gated = zero_first && kind == NodeKind::FSub;
            let stats = rewrite_block(&mut b, &RewriteOptions::default());
            assert_eq!(
                stats.hits_of("identity"),
                u64::from(!gated),
                "{kind:?} {zero:?}"
            );
        }
    }

    #[test]
    fn fuel_bounds_applications() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let zero = pure(&mut b, NodeKind::ConstF(-0.0), vec![]);
        // A ladder of x + −0.0 nodes, each feeding the next.
        let mut v = x;
        for _ in 0..6 {
            v = pure(&mut b, NodeKind::FAdd, vec![v, zero]);
        }
        store_root(&mut b, v);
        let stats = rewrite_block(
            &mut b,
            &RewriteOptions {
                fuel: Some(2),
                ..RewriteOptions::default()
            },
        );
        assert_eq!(stats.total(), 2);
        assert!(stats.fuel_exhausted);
        let unlimited = rewrite_block(&mut b, &RewriteOptions::default());
        assert!(!unlimited.fuel_exhausted);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FAdd)), 0);
    }

    #[test]
    fn commute_canon_orders_operands() {
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let c = pure(&mut b, NodeKind::ConstF(4.0), vec![]);
        let m = pure(&mut b, NodeKind::FAdd, vec![c, x]); // const first: non-canonical
        store_root(&mut b, m);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert_eq!(stats.hits_of("commute-canon"), 1);
        assert_eq!(b.nodes[m].inputs, vec![x, c]);
    }

    #[test]
    fn fixpoint_cascades_across_patterns() {
        // (x·0 + y) requires mul-special then identity to reach y. Both
        // steps change bits on special values (x·0 on NaN/∞, 0.0 + y on
        // y = −0.0), so neither fires with reassociation off.
        let mut b = Block::new();
        let x = load(&mut b, 0);
        let y = load(&mut b, 1);
        let c0 = pure(&mut b, NodeKind::ConstF(0.0), vec![]);
        let m = pure(&mut b, NodeKind::FMul, vec![x, c0]);
        let s = pure(&mut b, NodeKind::FAdd, vec![m, y]);
        store_root(&mut b, s);
        let exact = RewriteOptions {
            reassociate: false,
            ..RewriteOptions::default()
        };
        assert_eq!(rewrite_block(&mut b, &exact).total(), 0);
        let stats = rewrite_block(&mut b, &RewriteOptions::default());
        assert!(stats.hits_of("mul-special") >= 1);
        assert!(stats.hits_of("identity") >= 1);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FAdd)), 0);
        assert_eq!(b.count_live(|k| matches!(k, NodeKind::FMul)), 0);
    }
}
