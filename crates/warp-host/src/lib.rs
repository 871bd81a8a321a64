//! Host I/O processor program generation.
//!
//! The Warp host's I/O processors "must be programmed to supply input in
//! the exact sequence as the data is used in the Warp cells" (paper
//! §2.2). The compiler derives that sequence from the external-variable
//! annotations of the boundary cell's `send`/`receive` operations. Like
//! the IU's address programs (§6.3), a transfer script stays a *loop
//! nest*: [`host_codegen`] projects the cell code's region tree onto each
//! boundary channel, with every array reference affine in the iteration
//! numbers of the loops around it, so compiling costs what the program
//! text costs, whatever the data size. [`HostScript::for_each`] expands a
//! nest into the word sequence when a run needs it, and [`HostMemory`]
//! is what the executors bind real data to.
//!
//! # Examples
//!
//! ```
//! use w2_lang::parse_and_check;
//! use warp_ir::{decompose, lower, LowerOptions};
//! use warp_cell::{codegen, CellMachine};
//! use warp_host::host_codegen;
//!
//! let src = r#"
//! module copy (xs in, ys out)
//! float xs[4];
//! float ys[4];
//! cellprogram (cid : 0 : 0)
//! begin
//!   function body
//!   begin
//!     float v;
//!     int i;
//!     for i := 0 to 3 do begin
//!       receive (L, X, v, xs[i]);
//!       send (R, X, v, ys[i]);
//!     end;
//!   end
//!   call body;
//! end
//! "#;
//! let hir = parse_and_check(src)?;
//! let mut ir = lower(&hir, &LowerOptions::default())?;
//! decompose::decompose(&mut ir);
//! let code = codegen(&ir, &CellMachine::default())?;
//! let host = host_codegen(&ir, &code, w2_lang::ast::Dir::Right)?;
//! assert_eq!(host.input_count(), 4);
//! assert_eq!(host.output_count(), 4);
//! // One loop around one leaf per channel, however many words it moves.
//! assert_eq!(host.inputs[&w2_lang::ast::Chan::X].leaves().len(), 1);
//! # Ok::<(), warp_common::DiagnosticBag>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use w2_lang::ast::{Chan, Dir};
use w2_lang::hir::{VarId, VarInfo, VarKind};
use warp_cell::{CellCode, CodeRegion};
use warp_common::idvec::Id;
use warp_common::wire::{Decode, Encode, WireError, WireReader};
use warp_common::{Diagnostic, DiagnosticBag, IdVec};
use warp_ir::{CellIr, HostSlot, LoopId};

/// One word of a transfer script: the two cases of the IR's
/// [`HostSlot`], with the index resolved against the script's loops.
#[derive(Clone, Debug, PartialEq)]
pub enum HostWord {
    /// No host array takes part. An input channel is fed this constant
    /// (the `0.0` accumulator seed of Figure 4-1; `0.0` too when the
    /// receive names no source); a word arriving on an output channel is
    /// discarded (the conservation padding the polynomial program sends).
    Lit(f32),
    /// A word of a host array, read on an input channel and written on
    /// an output channel. Its flat index is affine in the iteration
    /// numbers (from 0) of the script loops around the leaf.
    Elem {
        /// The host array.
        var: VarId,
        /// The index in the first iteration of every enclosing loop
        /// (the loops' lower bounds are folded in).
        base: i64,
        /// Index step per iteration of each enclosing loop, outermost
        /// first.
        strides: Vec<i64>,
    },
}

/// The least and greatest value of `base + Σ strides[d]·i[d]` over the
/// iteration box `0 <= i[d] < counts[d]` (every count at least 1) —
/// exact, the iterations being independent. `None` unless there is one
/// stride per count.
fn index_range(base: i64, strides: &[i64], counts: &[u64]) -> Option<(i128, i128)> {
    if strides.len() != counts.len() {
        return None;
    }
    let (mut lo, mut hi) = (i128::from(base), i128::from(base));
    for (&stride, &count) in strides.iter().zip(counts) {
        let reach = i128::from(stride) * i128::from(count - 1);
        if reach < 0 {
            lo = lo.saturating_add(reach);
        } else {
            hi = hi.saturating_add(reach);
        }
    }
    Some((lo, hi))
}

/// A node of a transfer script.
#[derive(Clone, Debug, PartialEq)]
pub enum HostNode {
    /// Transfer one word.
    Word(HostWord),
    /// Run `body` `count` times.
    Loop {
        /// Trip count, at least 1.
        count: u64,
        /// The transfers of one iteration, at least one word.
        body: Vec<HostNode>,
    },
}

/// One channel's transfer script: the cell program's loop nest projected
/// onto the channel's boundary events, so its size follows the program
/// text, not the data. Every loop runs at least once and transfers at
/// least one word, and every index a leaf can reach fits a `u32`.
#[derive(Clone, Debug, PartialEq)]
pub struct HostScript {
    nodes: Vec<HostNode>,
    /// Dynamic word count of one execution.
    words: usize,
}

/// The dynamic word count of `nodes` under loops of trip counts
/// `counts`; `None` if a [`HostScript`] invariant is broken or the
/// count overflows.
fn count_words(nodes: &[HostNode], counts: &mut Vec<u64>) -> Option<usize> {
    let mut total = 0usize;
    for node in nodes {
        let words = match node {
            HostNode::Word(HostWord::Lit(_)) => 1,
            HostNode::Word(HostWord::Elem { base, strides, .. }) => {
                let (lo, hi) = index_range(*base, strides, counts)?;
                if lo < 0 || hi > i128::from(u32::MAX) {
                    return None;
                }
                1
            }
            HostNode::Loop { count: 0, .. } => return None,
            HostNode::Loop { count, body } => {
                counts.push(*count);
                let per_iteration = count_words(body, counts).filter(|&n| n > 0)?;
                counts.pop();
                usize::try_from(*count).ok()?.checked_mul(per_iteration)?
            }
        };
        total = total.checked_add(words)?;
    }
    Some(total)
}

impl HostScript {
    /// Wraps `nodes`, or `None` if they break an invariant of the type.
    pub fn new(nodes: Vec<HostNode>) -> Option<HostScript> {
        let words = count_words(&nodes, &mut Vec::new())?;
        Some(HostScript { nodes, words })
    }

    /// Words transferred per array execution.
    pub fn len(&self) -> usize {
        self.words
    }

    /// Returns `true` if the script transfers nothing.
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// Every leaf once, in script order (loop bodies are not repeated).
    pub fn leaves(&self) -> Vec<&HostWord> {
        fn of(nodes: &[HostNode]) -> Vec<&HostWord> {
            let leaves = nodes.iter().flat_map(|node| match node {
                HostNode::Word(w) => vec![w],
                HostNode::Loop { body, .. } => of(body),
            });
            leaves.collect()
        }
        of(&self.nodes)
    }

    /// Calls `f(word, index)` for every transferred word in transfer
    /// order; `index` is the flat word index of an array reference and 0
    /// for a [`HostWord::Lit`].
    pub fn for_each(&self, mut f: impl FnMut(&HostWord, u32)) {
        // `new` checked every reachable index against `u32`, so the
        // arithmetic cannot overflow and the casts are lossless.
        fn walk(nodes: &[HostNode], iters: &mut Vec<u64>, f: &mut impl FnMut(&HostWord, u32)) {
            let index = |w: &HostWord, iters: &[u64]| match w {
                HostWord::Lit(_) => 0,
                HostWord::Elem { base, strides, .. } => {
                    let steps = strides.iter().zip(iters);
                    base + steps.map(|(&s, &i)| s * i as i64).sum::<i64>()
                }
            };
            for node in nodes {
                match node {
                    HostNode::Word(w) => f(w, index(w, iters) as u32),
                    HostNode::Loop { count, body } => {
                        let depth = iters.len();
                        iters.push(0);
                        if let [HostNode::Word(w @ HostWord::Elem { strides, .. })] = &body[..] {
                            // A run of one array reference: step the
                            // index rather than evaluate it per word (the
                            // step past the last word may leave the
                            // checked range).
                            let mut at = index(w, iters);
                            for _ in 0..*count {
                                f(w, at as u32);
                                at = at.wrapping_add(strides[depth]);
                            }
                        } else {
                            for i in 0..*count {
                                iters[depth] = i;
                                walk(body, iters, f);
                            }
                        }
                        iters.pop();
                    }
                }
            }
        }
        walk(&self.nodes, &mut Vec::new(), &mut f);
    }
}

/// The compiled host I/O processor programs: per channel, the exact
/// transfer order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostProgram {
    /// Words to feed the boundary input cell, per channel, in
    /// consumption order.
    pub inputs: BTreeMap<Chan, HostScript>,
    /// Destinations of the words the boundary output cell produces.
    pub outputs: BTreeMap<Chan, HostScript>,
}

impl HostProgram {
    /// Total words the host sends per array execution.
    pub fn input_count(&self) -> usize {
        self.inputs.values().map(HostScript::len).sum()
    }

    /// Total words the host receives per array execution.
    pub fn output_count(&self) -> usize {
        self.outputs.values().map(HostScript::len).sum()
    }

    /// A human-readable listing of the per-channel transfer scripts;
    /// `i0` is the iteration number of the outermost loop around a leaf.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        fn nest(out: &mut String, nodes: &[HostNode], depth: usize, lit: fn(f32) -> String) {
            let pad = "  ".repeat(depth);
            for node in nodes {
                let _ = match node {
                    HostNode::Word(HostWord::Lit(v)) => writeln!(out, "{pad}{}", lit(*v)),
                    HostNode::Word(HostWord::Elem { var, base, strides }) => {
                        let steps = strides.iter().enumerate().filter(|(_, s)| **s != 0);
                        let steps: String = steps.map(|(d, s)| format!(" + {s}*i{d}")).collect();
                        writeln!(out, "{pad}{var:?}[{base}{steps}]")
                    }
                    HostNode::Loop { count, body } => {
                        let _ = writeln!(out, "{pad}loop x{count} {{");
                        nest(out, body, depth + 1, lit);
                        writeln!(out, "{pad}}}")
                    }
                };
            }
        }
        let mut out = format!(
            "host program: {} input word(s), {} output word(s)\n",
            self.input_count(),
            self.output_count()
        );
        let mut side = |name, scripts: &BTreeMap<Chan, HostScript>, lit| {
            for (chan, script) in scripts {
                let _ = writeln!(out, "{name} {chan:?} ({} words):", script.len());
                nest(&mut out, &script.nodes, 1, lit);
            }
        };
        side("input", &self.inputs, |v| format!("literal {v}"));
        side("output", &self.outputs, |_| "discard".to_owned());
        out
    }
}

impl warp_common::Artifact for HostProgram {
    fn kind(&self) -> &'static str {
        "host-program"
    }

    fn dump(&self) -> String {
        self.listing()
    }
}

/// A host-memory binding error: the caller named a variable the module
/// does not declare, or supplied data of the wrong length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HostError {
    /// No host variable with this name exists in the module.
    UnknownVariable {
        /// The requested name.
        name: String,
    },
    /// The supplied slice does not match the variable's word count.
    LengthMismatch {
        /// The variable name.
        name: String,
        /// Words the variable holds.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::UnknownVariable { name } => {
                write!(f, "unknown host variable `{name}`")
            }
            HostError::LengthMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "host variable `{name}` holds {expected} word(s), got {got}"
            ),
        }
    }
}

impl std::error::Error for HostError {}

/// Generates the host program for a module whose data flows in `flow`
/// direction: one walk of the static region tree per boundary channel,
/// whatever the trip counts.
///
/// # Errors
///
/// Reports a diagnostic if an external reference can index outside its
/// host array (loop-variant indices are checked here, over the whole
/// iteration box of the loops around them).
pub fn host_codegen(ir: &CellIr, code: &CellCode, flow: Dir) -> Result<HostProgram, DiagnosticBag> {
    let mut cx = Projector {
        ir,
        nest: Vec::new(),
        counts: Vec::new(),
        diags: DiagnosticBag::new(),
    };
    let mut prog = HostProgram::default();
    for chan in [Chan::X, Chan::Y] {
        let sides = [
            (&mut prog.inputs, (true, flow.opposite(), chan)),
            (&mut prog.outputs, (false, flow, chan)),
        ];
        for (scripts, port) in sides {
            let nodes = cx.project(&code.regions, port);
            if !nodes.is_empty() && !cx.diags.has_errors() {
                let script = HostScript::new(nodes).expect("projected and bounds-checked");
                scripts.insert(chan, script);
            }
        }
    }
    if cx.diags.has_errors() {
        Err(cx.diags)
    } else {
        Ok(prog)
    }
}

/// Projects the cell code's region tree onto one channel's events.
struct Projector<'a> {
    ir: &'a CellIr,
    /// The loops around the current region, outermost first, and their
    /// trip counts in the cell code (all nonzero).
    nest: Vec<LoopId>,
    counts: Vec<u64>,
    diags: DiagnosticBag,
}

impl Projector<'_> {
    /// The script of `regions` for the events of `port` (`is_recv`,
    /// direction, channel); subtrees without such an event, and loops
    /// that never run, leave no node.
    fn project(&mut self, regions: &[CodeRegion], port: (bool, Dir, Chan)) -> Vec<HostNode> {
        let mut out = Vec::new();
        for region in regions {
            match region {
                CodeRegion::Block(b) => {
                    let events = b.io_events.iter();
                    for e in events.filter(|e| (e.is_recv, e.dir, e.chan) == port) {
                        out.push(HostNode::Word(self.word(e.ext.as_ref())));
                    }
                }
                CodeRegion::Loop { count: 0, .. } => {}
                CodeRegion::Loop { id, count, body } => {
                    self.nest.push(*id);
                    self.counts.push(*count);
                    let body = self.project(body, port);
                    self.nest.pop();
                    self.counts.pop();
                    if !body.is_empty() {
                        let count = *count;
                        out.push(HostNode::Loop { count, body });
                    }
                }
            }
        }
        out
    }

    /// The host word an event's external binding names, bounds-checked
    /// over the iteration box of the current nest.
    fn word(&mut self, ext: Option<&HostSlot>) -> HostWord {
        let (var, index) = match ext {
            None => return HostWord::Lit(0.0),
            Some(HostSlot::Lit(v)) => return HostWord::Lit(*v),
            Some(HostSlot::Elem { var, index }) => (*var, index),
        };
        let at_lo = index.terms.iter().map(|(&l, &c)| c * self.ir.loops[l].lo);
        let base = index.constant + at_lo.sum::<i64>();
        let strides: Vec<i64> = self.nest.iter().map(|&l| index.coeff(l)).collect();
        let (lo, hi) = index_range(base, &strides, &self.counts).expect("one stride per loop");
        let info = &self.ir.vars[var];
        let size = i128::from(info.size());
        if lo < 0 || hi >= size {
            let index = if hi >= size { hi } else { lo };
            self.diags.push(Diagnostic::error_global(format!(
                "external reference indexes host variable `{}` at word {index}, \
                 but it has {size} word(s)",
                info.name
            )));
        }
        HostWord::Elem { var, base, strides }
    }
}

/// Host memory: the module-level variables the W2 program binds at the
/// array boundary. The simulator loads `in` parameters before a run and
/// reads `out` parameters after it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostMemory {
    /// Storage by variable id (ids are dense): one indexed load per
    /// word for the executors. `None` for non-host variables.
    arrays: Vec<Option<Vec<f32>>>,
    by_name: HashMap<String, VarId>,
}

impl HostMemory {
    /// Creates zero-initialized storage for every host variable.
    pub fn new(vars: &IdVec<VarId, VarInfo>) -> HostMemory {
        let host = |info: &VarInfo| info.kind == VarKind::Host;
        HostMemory {
            arrays: vars
                .iter()
                .map(|(_, info)| host(info).then(|| vec![0.0; info.size() as usize]))
                .collect(),
            by_name: vars
                .iter()
                .filter(|(_, info)| host(info))
                .map(|(id, info)| (info.name.clone(), id))
                .collect(),
        }
    }

    fn array(&self, var: VarId) -> Option<&Vec<f32>> {
        self.arrays.get(var.index())?.as_ref()
    }

    fn array_mut(&mut self, var: VarId) -> Option<&mut Vec<f32>> {
        self.arrays.get_mut(var.index())?.as_mut()
    }

    /// Resolves a host variable by source name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// Loads data into a host variable.
    ///
    /// # Errors
    ///
    /// Returns a [`HostError`] if `name` is unknown or `data` has the
    /// wrong length.
    pub fn set(&mut self, name: &str, data: &[f32]) -> Result<(), HostError> {
        let var = self.var(name).ok_or_else(|| HostError::UnknownVariable {
            name: name.to_owned(),
        })?;
        let arr = self.array_mut(var).expect("host storage exists");
        if arr.len() != data.len() {
            return Err(HostError::LengthMismatch {
                name: name.to_owned(),
                expected: arr.len(),
                got: data.len(),
            });
        }
        arr.copy_from_slice(data);
        Ok(())
    }

    /// Reads a host variable's contents.
    ///
    /// # Errors
    ///
    /// Returns a [`HostError`] if `name` is unknown.
    pub fn get(&self, name: &str) -> Result<&[f32], HostError> {
        let var = self.var(name).ok_or_else(|| HostError::UnknownVariable {
            name: name.to_owned(),
        })?;
        Ok(self.array(var).expect("host storage exists"))
    }

    /// Moves a variable's words out of the image without copying. The
    /// variable reads as an empty array until [`HostMemory::put_words`]
    /// restores it — callers that take must put back before anyone else
    /// observes the memory. Exists for the native executor, which owns
    /// the arrays flat for the duration of a run.
    pub fn take_words(&mut self, name: &str) -> Option<Vec<f32>> {
        let var = self.var(name)?;
        Some(std::mem::take(self.array_mut(var)?))
    }

    /// Moves words back into a variable taken with
    /// [`HostMemory::take_words`]. The words replace the array verbatim
    /// (no length check — the contract is give back what was taken,
    /// possibly with values updated in place).
    ///
    /// # Errors
    ///
    /// Returns [`HostError::UnknownVariable`] if `name` is unknown.
    pub fn put_words(&mut self, name: &str, words: Vec<f32>) -> Result<(), HostError> {
        let var = self.var(name).ok_or_else(|| HostError::UnknownVariable {
            name: name.to_owned(),
        })?;
        *self.array_mut(var).expect("host storage exists") = words;
        Ok(())
    }

    /// Reads one word by variable id.
    pub fn word(&self, var: VarId, index: u32) -> f32 {
        self.array(var).expect("a host variable")[index as usize]
    }

    /// Writes one word by variable id.
    pub fn set_word(&mut self, var: VarId, index: u32, value: f32) {
        if let Some(arr) = self.array_mut(var) {
            arr[index as usize] = value;
        }
    }
}

// Wire codec impls so host programs persist inside `CompiledModule`
// artifacts. Enum tags and field orders are on-disk format; changing
// them requires a store schema-version bump.
warp_common::wire_enum!(HostWord {
    0 => Lit(value),
    1 => Elem { var, base, strides },
});
warp_common::wire_enum!(HostNode {
    0 => Word(word),
    1 => Loop { count, body },
});
warp_common::wire_struct!(HostProgram { inputs, outputs });

// Only the nest travels: the word count and the invariants of the type
// are re-established from it on the way in, never trusted.
impl Encode for HostScript {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.encode(out);
    }
}

impl Decode for HostScript {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let what = "host script";
        HostScript::new(Vec::decode(r)?).ok_or(WireError::Invalid { what })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::parse_and_check;
    use warp_cell::{codegen, CellMachine};
    use warp_ir::{decompose, lower, LowerOptions};

    fn compile(src: &str) -> (CellIr, CellCode) {
        let hir = parse_and_check(src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        decompose::decompose(&mut ir);
        let code = codegen(&ir, &CellMachine::default()).expect("codegen");
        (ir, code)
    }

    const COPY: &str = "module copy (xs in, ys out) float xs[4]; float ys[4]; \
        cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
        for i := 0 to 3 do begin receive (L, X, v, xs[i]); send (R, X, v, ys[i]); end; \
        end call f; end";

    /// The words a script transfers, each with its evaluated index.
    fn expand(script: &HostScript) -> Vec<(HostWord, u32)> {
        let mut out = Vec::new();
        script.for_each(|w, index| out.push((w.clone(), index)));
        assert_eq!(out.len(), script.len());
        out
    }

    fn var(ir: &CellIr, name: &str) -> VarId {
        ir.vars.iter().find(|(_, v)| v.name == name).unwrap().0
    }

    #[test]
    fn copy_program_sequences() {
        let (ir, code) = compile(COPY);
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        let elem = |name| HostWord::Elem {
            var: var(&ir, name),
            base: 0,
            strides: vec![1],
        };
        let input = HostNode::Loop {
            count: 4,
            body: vec![HostNode::Word(elem("xs"))],
        };
        assert_eq!(host.inputs[&Chan::X], HostScript::new(vec![input]).unwrap());
        let output = expand(&host.outputs[&Chan::X]);
        let want: Vec<_> = (0..4).map(|i| (elem("ys"), i)).collect();
        assert_eq!(output, want);
        assert!(
            !host.inputs.contains_key(&Chan::Y),
            "unused channels have no script"
        );
    }

    #[test]
    fn literal_ext_becomes_lit_source() {
        let (ir, code) = compile(
            "module m (rs out) float rs[2]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; \
             receive (L, Y, v, 0.0); send (R, Y, v + 1.0, rs[0]); \
             receive (L, Y, v, 2.5); send (R, Y, v, rs[1]); \
             end call f; end",
        );
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        assert_eq!(
            host.inputs[&Chan::Y].leaves(),
            [&HostWord::Lit(0.0), &HostWord::Lit(2.5)]
        );
    }

    #[test]
    fn discarded_output_is_none() {
        let (ir, code) = compile(
            "module m (xs in) float xs[2]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; \
             receive (L, X, v, xs[0]); send (R, X, v); \
             receive (L, X, v, xs[1]); send (R, X, v); \
             end call f; end",
        );
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        let discard = HostWord::Lit(0.0);
        assert_eq!(host.outputs[&Chan::X].leaves(), [&discard, &discard]);
    }

    /// Host codegen of a one-cell module whose function body is `body`,
    /// over `xs[4]` in and `rs[4]` out.
    fn host_of(body: &str) -> Result<HostProgram, DiagnosticBag> {
        let (ir, code) = compile(&format!(
            "module m (xs in, rs out) float xs[4]; float rs[4]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; int i, j; \
             {body} end call f; end"
        ));
        host_codegen(&ir, &code, Dir::Right)
    }

    #[test]
    fn out_of_bounds_ext_rejected() {
        let err =
            host_of("for i := 0 to 5 do begin receive (L, X, v, xs[i]); send (R, X, v); end;")
                .expect_err("xs[4..5] out of range");
        assert!(err.to_string().contains("indexes host variable"), "{err}");
        assert!(err.to_string().contains("at word 5"), "{err}");
    }

    #[test]
    fn bounds_hold_over_the_whole_iteration_box() {
        // A negative stride walks down from the top of the array...
        let host = host_of(
            "for i := 0 to 3 do begin receive (L, X, v, xs[3 - i]); send (R, X, v, rs[i]); end;",
        )
        .expect("xs[3], xs[2], xs[1], xs[0]");
        let read: Vec<u32> = expand(&host.inputs[&Chan::X]).iter().map(|w| w.1).collect();
        assert_eq!(read, [3, 2, 1, 0]);
        // ...and off its bottom one iteration later.
        let err =
            host_of("for i := 0 to 4 do begin receive (L, X, v, xs[3 - i]); send (R, X, v); end;")
                .expect_err("xs[-1] in the last iteration");
        assert!(err.to_string().contains("at word -1"), "{err}");
        // Out of range only in the last iteration of the outer loop.
        let nest = |hi: u32| {
            host_of(&format!(
                "for i := 0 to {hi} do for j := 0 to 1 do begin \
                 receive (L, X, v, xs[2 * i + j]); send (R, X, v); end;"
            ))
        };
        assert_eq!(nest(1).expect("xs[0..3]").input_count(), 4);
        let err = nest(2).expect_err("xs[4], xs[5] when i = 2");
        assert!(err.to_string().contains("at word 5"), "{err}");
    }

    #[test]
    fn reference_under_a_zero_trip_loop_is_accepted() {
        // W2 has no empty loop ranges, so append the loop to the code by
        // hand: `xs[i + 7]` is far outside `xs[4]`.
        use warp_cell::{BlockCode, IoEvent, MicroInst};
        let (ir, code) = compile(COPY);
        let (lid, _) = ir.loops.iter().next().expect("the copy loop");
        let with_loop = |count| {
            let stray = IoEvent {
                cycle: 0,
                dir: Dir::Left,
                chan: Chan::X,
                is_recv: true,
                ext: Some(HostSlot::Elem {
                    var: var(&ir, "xs"),
                    index: warp_ir::Affine::term(lid, 1).add(&warp_ir::Affine::constant(7)),
                }),
            };
            let body = CodeRegion::Block(BlockCode {
                insts: vec![MicroInst::default()],
                io_events: vec![stray],
                adr_deadlines: vec![],
                source: None,
            });
            let mut code = code.clone();
            code.regions.push(CodeRegion::Loop {
                id: lid,
                count,
                body: vec![body],
            });
            host_codegen(&ir, &code, Dir::Right)
        };
        let host = with_loop(0).expect("a loop that never runs transfers nothing");
        assert_eq!(host.input_count(), 4);
        with_loop(1).expect_err("xs[7] once the loop runs");
    }

    #[test]
    fn script_constructor_rejects_broken_nests() {
        let elem = |base, strides| HostWord::Elem {
            var: VarId(0),
            base,
            strides,
        };
        let word = HostNode::Word;
        let looped = |count, body| HostNode::Loop { count, body };
        let new = HostScript::new;
        assert_eq!(
            new(vec![looped(3, vec![word(elem(2, vec![5]))])])
                .unwrap()
                .len(),
            3
        );
        assert!(
            new(vec![looped(0, vec![word(elem(0, vec![1]))])]).is_none(),
            "zero-trip loop"
        );
        assert!(
            new(vec![looped(3, vec![])]).is_none(),
            "loop without a word"
        );
        assert!(
            new(vec![looped(3, vec![word(elem(0, vec![]))])]).is_none(),
            "missing stride"
        );
        assert!(
            new(vec![word(elem(0, vec![1]))]).is_none(),
            "stride without a loop"
        );
        assert!(
            new(vec![looped(3, vec![word(elem(1, vec![-1]))])]).is_none(),
            "index -1"
        );
        assert!(
            new(vec![word(elem(1 << 32, vec![]))]).is_none(),
            "index beyond u32"
        );
        let huge = looped(
            u64::MAX,
            vec![looped(u64::MAX, vec![HostNode::Word(HostWord::Lit(0.0))])],
        );
        assert!(new(vec![huge]).is_none(), "word count overflows");
    }

    #[test]
    fn decoding_recomputes_the_word_count() {
        use warp_common::wire::{from_bytes, to_bytes};
        let (ir, code) = compile(COPY);
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        let bytes = to_bytes(&host);
        assert_eq!(from_bytes::<HostProgram>(&bytes).expect("round trip"), host);
        // Stretch the input loop from 4 to 5 trips. No total is stored,
        // so the count follows the nest (the codec checks the type's
        // invariants; array sizes are the compiler's to check).
        let at = bytes
            .windows(8)
            .position(|w| w == 4u64.to_le_bytes())
            .unwrap();
        let mut longer = bytes.clone();
        longer[at] = 5;
        let back = from_bytes::<HostProgram>(&longer).expect("still a valid nest");
        assert_eq!(back.input_count(), 5);
        // A zero-trip loop is not a script the compiler writes.
        longer[at] = 0;
        assert!(from_bytes::<HostProgram>(&longer).is_err());
    }

    #[test]
    fn host_memory_roundtrip() {
        let (ir, _) = compile(COPY);
        let mut mem = HostMemory::new(&ir.vars);
        mem.set("xs", &[1.0, 2.0, 3.0, 4.0]).expect("xs exists");
        assert_eq!(mem.get("xs").expect("xs exists"), &[1.0, 2.0, 3.0, 4.0]);
        let xs = mem.var("xs").unwrap();
        assert_eq!(mem.word(xs, 2), 3.0);
        mem.set_word(xs, 2, 9.0);
        assert_eq!(mem.word(xs, 2), 9.0);
        assert_eq!(mem.get("ys").expect("ys exists"), &[0.0; 4]);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let (ir, _) = compile(COPY);
        let mut mem = HostMemory::new(&ir.vars);
        let err = mem.get("nope").unwrap_err();
        assert_eq!(
            err,
            HostError::UnknownVariable {
                name: "nope".to_owned()
            }
        );
        assert!(err.to_string().contains("unknown host variable"), "{err}");
        let err = mem.set("nope", &[1.0]).unwrap_err();
        assert!(matches!(err, HostError::UnknownVariable { .. }), "{err:?}");
    }

    #[test]
    fn wrong_length_is_an_error() {
        let (ir, _) = compile(COPY);
        let mut mem = HostMemory::new(&ir.vars);
        let err = mem.set("xs", &[1.0]).unwrap_err();
        assert_eq!(
            err,
            HostError::LengthMismatch {
                name: "xs".to_owned(),
                expected: 4,
                got: 1
            }
        );
        assert!(err.to_string().contains("4 word(s), got 1"), "{err}");
    }

    #[test]
    fn host_program_listing_is_deterministic() {
        let (ir, code) = compile(COPY);
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        let a = host.listing();
        assert_eq!(a, host.listing());
        assert!(a.contains("input X (4 words):"), "{a}");
        assert!(a.contains("output X (4 words):"), "{a}");
        use warp_common::Artifact as _;
        assert_eq!(host.kind(), "host-program");
    }
}
