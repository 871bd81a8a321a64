//! Host I/O processor program generation.
//!
//! The Warp host's I/O processors "must be programmed to supply input in
//! the exact sequence as the data is used in the Warp cells" (paper
//! §2.2). The compiler derives that sequence from the external-variable
//! annotations of the boundary cell's `send`/`receive` operations: this
//! crate enumerates them (via [`warp_skew::visit_events`]) into ordered
//! transfer scripts, and provides the [`HostMemory`] the simulator binds
//! real data to.
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
//! # Ok::<(), warp_common::DiagnosticBag>(())
//! ```

use std::collections::{BTreeMap, HashMap};
use w2_lang::ast::{Chan, Dir};
use w2_lang::hir::{VarId, VarInfo, VarKind};
use warp_cell::CellCode;
use warp_common::idvec::Id;
use warp_common::{Diagnostic, DiagnosticBag, IdVec};
use warp_ir::CellIr;
use warp_skew::{visit_events, HostBinding};

/// One word the host must supply to the array.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HostWordSource {
    /// A constant (e.g. the `0.0` accumulator seed of Figure 4-1).
    Lit(f32),
    /// A word of an `in` parameter.
    Elem {
        /// The host array.
        var: VarId,
        /// Flat word index.
        index: u32,
    },
}

/// One word the host receives from the array, and where to store it
/// (`None` discards the word — e.g. the conservation padding the
/// polynomial program sends).
pub type HostWordSink = Option<(VarId, u32)>;

/// The compiled host I/O processor programs: per channel, the exact
/// transfer order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HostProgram {
    /// Words to feed the boundary input cell, per channel, in
    /// consumption order.
    pub inputs: BTreeMap<Chan, Vec<HostWordSource>>,
    /// Destinations of the words the boundary output cell produces.
    pub outputs: BTreeMap<Chan, Vec<HostWordSink>>,
}

impl HostProgram {
    /// Total words the host sends per array execution.
    pub fn input_count(&self) -> usize {
        self.inputs.values().map(Vec::len).sum()
    }

    /// Total words the host receives per array execution.
    pub fn output_count(&self) -> usize {
        self.outputs.values().map(Vec::len).sum()
    }

    /// A human-readable listing of the per-channel transfer scripts.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "host program: {} input word(s), {} output word(s)\n",
            self.input_count(),
            self.output_count()
        );
        for (chan, words) in &self.inputs {
            let _ = writeln!(out, "input {chan:?} ({} words):", words.len());
            for (i, w) in words.iter().enumerate() {
                match w {
                    HostWordSource::Lit(v) => {
                        let _ = writeln!(out, "  {i:>4}: literal {v}");
                    }
                    HostWordSource::Elem { var, index } => {
                        let _ = writeln!(out, "  {i:>4}: {var:?}[{index}]");
                    }
                }
            }
        }
        for (chan, words) in &self.outputs {
            let _ = writeln!(out, "output {chan:?} ({} words):", words.len());
            for (i, w) in words.iter().enumerate() {
                match w {
                    None => {
                        let _ = writeln!(out, "  {i:>4}: discard");
                    }
                    Some((var, index)) => {
                        let _ = writeln!(out, "  {i:>4}: {var:?}[{index}]");
                    }
                }
            }
        }
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
/// direction.
///
/// # Errors
///
/// Reports a diagnostic if an external reference indexes outside its
/// host array (loop-variant indices are only fully checkable here, after
/// enumeration).
pub fn host_codegen(ir: &CellIr, code: &CellCode, flow: Dir) -> Result<HostProgram, DiagnosticBag> {
    let mut diags = DiagnosticBag::new();
    let mut prog = HostProgram::default();

    visit_events(code, &ir.loops, |e| {
        let boundary_input = e.is_recv && e.dir == flow.opposite();
        let boundary_output = !e.is_recv && e.dir == flow;
        if boundary_input {
            let source = match e.host {
                Some(HostBinding::Lit(v)) => HostWordSource::Lit(v),
                Some(HostBinding::Elem(var, index)) => {
                    match checked_index(ir, var, index, &mut diags) {
                        Some(index) => HostWordSource::Elem { var, index },
                        None => HostWordSource::Lit(0.0),
                    }
                }
                None => HostWordSource::Lit(0.0),
            };
            prog.inputs.entry(e.chan).or_default().push(source);
        } else if boundary_output {
            let sink = match e.host {
                Some(HostBinding::Elem(var, index)) => {
                    checked_index(ir, var, index, &mut diags).map(|i| (var, i))
                }
                _ => None,
            };
            prog.outputs.entry(e.chan).or_default().push(sink);
        }
    });

    if diags.has_errors() {
        Err(diags)
    } else {
        Ok(prog)
    }
}

fn checked_index(ir: &CellIr, var: VarId, index: i64, diags: &mut DiagnosticBag) -> Option<u32> {
    let info = &ir.vars[var];
    let size = i64::from(info.size());
    if index < 0 || index >= size {
        diags.push(Diagnostic::error_global(format!(
            "external reference indexes host variable `{}` at word {index}, \
             but it has {size} word(s)",
            info.name
        )));
        return None;
    }
    Some(index as u32)
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
warp_common::wire_enum!(HostWordSource {
    0 => Lit(value),
    1 => Elem { var, index },
});
warp_common::wire_struct!(HostProgram { inputs, outputs });

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

    #[test]
    fn copy_program_sequences() {
        let (ir, code) = compile(COPY);
        let host = host_codegen(&ir, &code, Dir::Right).expect("host");
        let xs = ir.vars.iter().find(|(_, v)| v.name == "xs").unwrap().0;
        let ys = ir.vars.iter().find(|(_, v)| v.name == "ys").unwrap().0;
        assert_eq!(
            host.inputs[&Chan::X],
            (0..4)
                .map(|i| HostWordSource::Elem { var: xs, index: i })
                .collect::<Vec<_>>()
        );
        assert_eq!(
            host.outputs[&Chan::X],
            (0..4).map(|i| Some((ys, i))).collect::<Vec<_>>()
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
            host.inputs[&Chan::Y],
            vec![HostWordSource::Lit(0.0), HostWordSource::Lit(2.5)]
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
        assert_eq!(host.outputs[&Chan::X], vec![None, None]);
    }

    #[test]
    fn out_of_bounds_ext_rejected() {
        let (ir, code) = compile(
            "module m (xs in, rs out) float xs[4]; float rs[4]; \
             cellprogram (cid : 0 : 0) begin function f begin float v; int i; \
             for i := 0 to 5 do begin receive (L, X, v, xs[i]); send (R, X, v); end; \
             end call f; end",
        );
        let err = host_codegen(&ir, &code, Dir::Right).expect_err("xs[4..5] out of range");
        assert!(err.to_string().contains("indexes host variable"), "{err}");
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
