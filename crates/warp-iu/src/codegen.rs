//! IU code generation (paper §6.3.2).
//!
//! Every data-independent address is an affine function of loop indices.
//! The IU has no multiplier, at most 16 registers, and a 32K-word
//! sequential table, so the generator:
//!
//! 1. groups address slots into *plans* — one induction register per
//!    distinct linear part per block (slots differing by a constant
//!    share the register and emit `reg + offset`),
//! 2. strength-reduces each plan: initialize once, add the inner-loop
//!    stride each iteration, and add a compensation constant at each
//!    outer-loop boundary,
//! 3. moves plans to **table memory** when registers run out, when the
//!    per-iteration ALU budget is exceeded, or when strength reduction
//!    is disabled (the ablation: without it, loop-variant addresses
//!    would need multiplications the IU cannot do),
//! 4. generates loop signals, unrolling the last `k = 3/len + 1`
//!    iterations of loops whose body is shorter than the 3-cycle
//!    counter-update-and-test (paper §6.3.1).

use crate::program::{EmitPlan, EmitSource, IuBlock, IuOp, IuProgram, IuReg, IuRegion};
use std::collections::{BTreeMap, HashMap};
use warp_cell::{BlockCode, CellCode, CodeRegion};
use warp_common::idvec::Id as _;
use warp_common::{Diagnostic, DiagnosticBag};
use warp_ir::affine::{Affine, LoopId};
use warp_ir::{CellIr, Decomposition};

/// Options for the IU code generator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IuOptions {
    /// Available registers (16 on the real IU).
    pub registers: u32,
    /// Table memory capacity in words (32K on the real IU).
    pub table_words: usize,
    /// Share one register among addresses that differ by a constant.
    pub share_registers: bool,
    /// Enable strength reduction; when disabled, every loop-variant
    /// address goes to the table (ablation A3).
    pub strength_reduction: bool,
}

impl Default for IuOptions {
    fn default() -> IuOptions {
        IuOptions {
            registers: 16,
            table_words: 32768,
            share_registers: true,
            strength_reduction: true,
        }
    }
}

/// IU-side cycles needed to update and test a loop counter (paper
/// §6.3.1).
pub const LOOP_TEST_CYCLES: u64 = 3;

/// A violated generator invariant, reported as a diagnostic so batch
/// and service callers fail one job instead of aborting the process.
fn internal_error(msg: impl std::fmt::Display) -> DiagnosticBag {
    let mut diags = DiagnosticBag::new();
    diags.push(Diagnostic::error_global(format!(
        "internal IU code generator error: {msg}"
    )));
    diags
}

struct Plan {
    /// Linear part (loop-coefficient map); constant excluded.
    linear: BTreeMap<LoopId, i64>,
    /// Constant of the representative slot.
    base: i64,
    /// Enclosing loops, outermost first.
    nest: Vec<LoopId>,
    /// Index into the flattened block list.
    block_idx: usize,
    /// `(slot position within block, constant offset from base)`.
    emits: Vec<(usize, i64)>,
    /// Total emissions over the whole program.
    dynamic_count: u64,
    /// Destination decided by allocation.
    to_table: bool,
    /// Assigned register (when not in the table).
    reg: Option<IuReg>,
}

struct FlatBlock<'a> {
    code: &'a BlockCode,
    nest: Vec<LoopId>,
    /// Affine per slot, in Adr order (empty when the block has none).
    slots: Vec<Affine>,
}

/// Generates the IU program for a compiled module.
///
/// # Errors
///
/// Reports a diagnostic when the table memory is exhausted (the paper
/// notes nested-loop addresses "can overflow the table memory easily").
pub fn iu_codegen(
    ir: &CellIr,
    dec: &Decomposition,
    code: &CellCode,
    opts: &IuOptions,
) -> Result<IuProgram, DiagnosticBag> {
    let mut diags = DiagnosticBag::new();

    // Flatten blocks in execution order; each code block names the IR
    // block it came from (synthesized prologues/epilogues name none and
    // carry no IU slots).
    let mut flat: Vec<FlatBlock> = Vec::new();
    collect_blocks(&code.regions, &mut Vec::new(), &mut flat);
    for fb in flat.iter_mut() {
        let Some(bid) = fb.code.source else {
            assert!(
                fb.code.adr_deadlines.is_empty(),
                "synthesized blocks cannot consume IU addresses"
            );
            continue;
        };
        let bid = &bid;
        if let Some(slots) = dec.slots.get(bid) {
            fb.slots = slots.iter().map(|s| s.affine.clone()).collect();
            assert_eq!(
                fb.slots.len(),
                fb.code.adr_deadlines.len(),
                "slot/deadline mismatch"
            );
            for (i, &d) in fb.code.adr_deadlines.iter().enumerate() {
                assert!(
                    d as usize >= i,
                    "Adr FIFO deadline earlier than the emission rate permits"
                );
            }
        }
    }

    // Build plans.
    let mut plans: Vec<Plan> = Vec::new();
    for (block_idx, fb) in flat.iter().enumerate() {
        let executions: u64 = fb
            .nest
            .iter()
            .map(|&l| ir.loops[l].count)
            .product::<u64>()
            .max(1);
        let mut by_linear: HashMap<Vec<(LoopId, i64)>, usize> = HashMap::new();
        for (slot_idx, affine) in fb.slots.iter().enumerate() {
            let key: Vec<(LoopId, i64)> = affine.terms.iter().map(|(&l, &c)| (l, c)).collect();
            let plan_idx = if opts.share_registers {
                by_linear.get(&key).copied()
            } else {
                None
            };
            match plan_idx {
                Some(p) => {
                    let offset = affine.constant - plans[p].base;
                    plans[p].emits.push((slot_idx, offset));
                    plans[p].dynamic_count += executions;
                }
                None => {
                    by_linear.insert(key, plans.len());
                    plans.push(Plan {
                        linear: affine.terms.clone(),
                        base: affine.constant,
                        nest: fb.nest.clone(),
                        block_idx,
                        emits: vec![(slot_idx, 0)],
                        dynamic_count: executions,
                        to_table: false,
                        reg: None,
                    });
                }
            }
        }
    }

    // Constant plans never need a register or the table: they emit a
    // literal... but the Adr path carries only what the IU sends, so a
    // constant address still occupies a register-free emission. Model
    // constants as offset-0 emissions from a dedicated zero register?
    // Simpler and faithful: a constant plan is an offset from the "zero"
    // of its own register initialized to the constant with no updates —
    // it only costs a register. (Decomposition only produces loop-variant
    // slots, so this is a corner case for robustness.)

    // Allocation: strength reduction off moves every loop-variant plan
    // to the table.
    if !opts.strength_reduction {
        for p in &mut plans {
            if !p.linear.is_empty() {
                p.to_table = true;
            }
        }
    }

    // ALU budget per loop iteration: updates at the loop boundary plus
    // offset emissions inside the iteration must fit the iteration span.
    loop {
        let mut worst: Option<(usize, u64)> = None; // (plan, overload)
        for (lidx, (span, _count)) in loop_spans(&code.regions).iter().enumerate() {
            let lid = LoopId(lidx as u32);
            let mut ops: u64 = 0;
            let mut contributors: Vec<(usize, u64)> = Vec::new();
            for (pi, p) in plans.iter().enumerate() {
                if p.to_table {
                    continue;
                }
                let mut c: u64 = 0;
                if p.nest.contains(&lid) {
                    c += 1; // the update at this loop's boundary
                    let offs = p.emits.iter().filter(|&&(_, o)| o != 0).count() as u64;
                    // Offset emissions per iteration of this loop.
                    let inner: u64 = p
                        .nest
                        .iter()
                        .skip_while(|&&l| l != lid)
                        .skip(1)
                        .map(|&l| ir.loops[l].count)
                        .product::<u64>()
                        .max(1);
                    c += offs * inner;
                }
                if c > 0 {
                    ops += c;
                    contributors.push((pi, c));
                }
            }
            if ops > *span {
                if let Some(&(pi, c)) = contributors.iter().max_by_key(|&&(_, c)| c) {
                    let overload = ops - span;
                    if worst.is_none_or(|(_, w)| overload > w) {
                        worst = Some((pi, overload));
                        let _ = c;
                    }
                }
            }
        }
        match worst {
            Some((pi, _)) => plans[pi].to_table = true,
            None => break,
        }
    }

    // Register budget: cheapest plans (fewest table words) spill first.
    loop {
        let reg_plans = plans.iter().filter(|p| !p.to_table).count();
        if reg_plans <= opts.registers as usize {
            break;
        }
        // `reg_plans > 0` here, so a victim always exists; the `else`
        // arm keeps this a structural no-op rather than a panic site.
        let victim = plans
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.to_table)
            .min_by_key(|(_, p)| p.dynamic_count)
            .map(|(i, _)| i);
        match victim {
            Some(i) => plans[i].to_table = true,
            None => break,
        }
    }

    // Table capacity.
    let table_need: u64 = plans
        .iter()
        .filter(|p| p.to_table)
        .map(|p| p.dynamic_count)
        .sum();
    if table_need > opts.table_words as u64 {
        diags.push(Diagnostic::error_global(format!(
            "IU table memory exhausted: {table_need} address words needed, {} available \
             (paper §6.3.2: address streams of nested loops overflow the table easily)",
            opts.table_words
        )));
        return Err(diags);
    }

    // Assign registers and build init ops.
    let mut init = Vec::new();
    let mut next_reg = 0u32;
    for p in &mut plans {
        if p.to_table {
            continue;
        }
        let reg = IuReg(next_reg);
        next_reg += 1;
        p.reg = Some(reg);
        let mut value = p.base;
        for &l in &p.nest {
            value += p.linear.get(&l).copied().unwrap_or(0) * ir.loops[l].lo;
        }
        init.push(IuOp::Init { reg, value });
    }

    // Per-block emission plans (slot order) and per-loop updates.
    let mut block_emits: Vec<Vec<EmitPlan>> = vec![Vec::new(); flat.len()];
    for (block_idx, fb) in flat.iter().enumerate() {
        let mut emits: Vec<Option<EmitPlan>> = vec![None; fb.slots.len()];
        for p in plans.iter().filter(|p| p.block_idx == block_idx) {
            for &(slot_idx, offset) in &p.emits {
                let source = if p.to_table {
                    EmitSource::Table
                } else {
                    let Some(reg) = p.reg else {
                        return Err(internal_error(
                            "IU plan bound for a register was never allocated one",
                        ));
                    };
                    if offset == 0 {
                        EmitSource::Reg(reg)
                    } else {
                        EmitSource::RegOffset(reg, offset)
                    }
                };
                emits[slot_idx] = Some(EmitPlan {
                    cycle: slot_idx as u32,
                    source,
                });
            }
        }
        let mut planned = Vec::with_capacity(emits.len());
        for (slot_idx, e) in emits.into_iter().enumerate() {
            match e {
                Some(e) => planned.push(e),
                None => {
                    return Err(internal_error(format!(
                        "IU address slot {slot_idx} of block {block_idx} was never \
                         covered by an emission plan"
                    )));
                }
            }
        }
        block_emits[block_idx] = planned;
    }

    let mut updates_per_loop: HashMap<LoopId, Vec<IuOp>> = HashMap::new();
    for p in &plans {
        if p.to_table {
            continue;
        }
        let Some(reg) = p.reg else {
            return Err(internal_error(
                "IU plan bound for a register was never allocated one",
            ));
        };
        for (j, &l) in p.nest.iter().enumerate() {
            let c = p.linear.get(&l).copied().unwrap_or(0);
            let delta = match p.nest.get(j + 1) {
                Some(&inner) => {
                    let c_inner = p.linear.get(&inner).copied().unwrap_or(0);
                    c - c_inner * ir.loops[inner].count as i64
                }
                None => c,
            };
            if delta != 0 {
                updates_per_loop
                    .entry(l)
                    .or_default()
                    .push(IuOp::AddImm { reg, imm: delta });
            }
        }
    }

    // Table contents: walk the program in execution order evaluating the
    // table plans' affines.
    let mut table: Vec<u32> = Vec::new();
    {
        // Per block, the slot -> plan map for table slots.
        let mut table_slots: Vec<Vec<Option<&Plan>>> =
            flat.iter().map(|fb| vec![None; fb.slots.len()]).collect();
        for p in plans.iter().filter(|p| p.to_table) {
            for &(slot_idx, _) in &p.emits {
                table_slots[p.block_idx][slot_idx] = Some(p);
            }
        }
        let mut env: BTreeMap<LoopId, i64> = BTreeMap::new();
        if let Err(d) = fill_table(
            &code.regions,
            ir,
            &flat,
            &table_slots,
            &mut env,
            0,
            &mut table,
        ) {
            diags.push(d);
            return Err(diags);
        }
    }

    // Assemble regions mirroring the cell code.
    let mut block_counter = 0usize;
    let regions = assemble(
        &code.regions,
        &block_emits,
        &mut updates_per_loop,
        &mut block_counter,
    );

    Ok(IuProgram {
        name: code.name.clone(),
        regs_used: next_reg,
        table,
        init,
        regions,
    })
}

fn collect_blocks<'a>(
    regions: &'a [CodeRegion],
    nest: &mut Vec<LoopId>,
    out: &mut Vec<FlatBlock<'a>>,
) {
    for r in regions {
        match r {
            CodeRegion::Block(b) => out.push(FlatBlock {
                code: b,
                nest: nest.clone(),
                slots: Vec::new(),
            }),
            CodeRegion::Loop { id, body, .. } => {
                nest.push(*id);
                collect_blocks(body, nest, out);
                nest.pop();
            }
        }
    }
}

/// `(iteration span, count)` per loop id.
fn loop_spans(regions: &[CodeRegion]) -> Vec<(u64, u64)> {
    fn walk(regions: &[CodeRegion], out: &mut Vec<(u64, u64)>) {
        for r in regions {
            if let CodeRegion::Loop { id, count, body } = r {
                let span: u64 = body.iter().map(CodeRegion::dynamic_len).sum();
                let idx = id.index();
                if out.len() <= idx {
                    out.resize(idx + 1, (u64::MAX, 0));
                }
                out[idx] = (span.max(1), *count);
                walk(body, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(regions, &mut out);
    // Unused entries get an effectively infinite span.
    for e in &mut out {
        if e.1 == 0 {
            *e = (u64::MAX, 0);
        }
    }
    out
}

/// Walks the program in execution order appending table-plan addresses.
/// `base_idx` is the static index of the first block in `regions`;
/// every iteration of a loop revisits the same static indices.
///
/// A table address that evaluates outside the 32-bit address space
/// (e.g. a negative subscript reached by the loop bounds) is a
/// diagnostic, not a panic: the program is wrong, not the compiler.
fn fill_table(
    regions: &[CodeRegion],
    ir: &CellIr,
    flat: &[FlatBlock],
    table_slots: &[Vec<Option<&Plan>>],
    env: &mut BTreeMap<LoopId, i64>,
    base_idx: usize,
    table: &mut Vec<u32>,
) -> Result<usize, Diagnostic> {
    let mut idx = base_idx;
    for r in regions {
        match r {
            CodeRegion::Block(_) => {
                for (slot_idx, plan) in table_slots[idx].iter().enumerate() {
                    if plan.is_some() {
                        let affine = &flat[idx].slots[slot_idx];
                        let v = affine.eval(env);
                        let word = u32::try_from(v).map_err(|_| {
                            Diagnostic::error_global(format!(
                                "IU table address evaluates to {v}, outside the 32-bit \
                                 address space (check the subscript against its loop bounds)"
                            ))
                        })?;
                        table.push(word);
                    }
                }
                idx += 1;
            }
            CodeRegion::Loop { id, count, body } => {
                let after = idx + count_static_blocks(body);
                // Most loops hold no table slot (most programs have no
                // table at all): skip their iterations, not walk them.
                if table_slots[idx..after]
                    .iter()
                    .flatten()
                    .any(Option::is_some)
                {
                    let lo = ir.loops[*id].lo;
                    for iter in 0..*count {
                        env.insert(*id, lo + iter as i64);
                        fill_table(body, ir, flat, table_slots, env, idx, table)?;
                    }
                    env.remove(id);
                }
                idx = after;
            }
        }
    }
    Ok(idx)
}

fn count_static_blocks(regions: &[CodeRegion]) -> usize {
    regions
        .iter()
        .map(|r| match r {
            CodeRegion::Block(_) => 1,
            CodeRegion::Loop { body, .. } => count_static_blocks(body),
        })
        .sum()
}

fn assemble(
    regions: &[CodeRegion],
    block_emits: &[Vec<EmitPlan>],
    updates_per_loop: &mut HashMap<LoopId, Vec<IuOp>>,
    block_counter: &mut usize,
) -> Vec<IuRegion> {
    let mut out = Vec::new();
    for r in regions {
        match r {
            CodeRegion::Block(b) => {
                let idx = *block_counter;
                *block_counter += 1;
                out.push(IuRegion::Block(IuBlock {
                    len: b.len(),
                    emits: block_emits[idx].clone(),
                }));
            }
            CodeRegion::Loop { id, count, body } => {
                let span: u64 = body.iter().map(CodeRegion::dynamic_len).sum::<u64>().max(1);
                let unrolled_tail = if span >= LOOP_TEST_CYCLES {
                    0
                } else {
                    (LOOP_TEST_CYCLES / span + 1).min(count.saturating_sub(1))
                };
                let inner = assemble(body, block_emits, updates_per_loop, block_counter);
                out.push(IuRegion::Loop {
                    count: *count,
                    body: inner,
                    updates: updates_per_loop.remove(id).unwrap_or_default(),
                    unrolled_tail,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::parse_and_check;
    use warp_cell::{codegen as cell_codegen, CellMachine};
    use warp_ir::{decompose, lower, LowerOptions};

    fn compile(body: &str, opts: &IuOptions) -> (CellIr, IuProgram) {
        let src = format!(
            "module m (zs in, rs out) float zs[64]; float rs[64]; \
             cellprogram (cid : 0 : 0) begin function f begin \
             float x, y; float arr[16]; float mat[4, 4]; int i, j; {body} end call f; end"
        );
        let hir = parse_and_check(&src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        let dec = decompose::decompose(&mut ir);
        let code = cell_codegen(&ir, &CellMachine::default()).expect("cell codegen");
        let iu = iu_codegen(&ir, &dec, &code, opts).expect("iu codegen");
        (ir, iu)
    }

    /// The addresses the cell will consume, in order, with the loop
    /// variables enumerated — the ground truth the IU must reproduce.
    fn expected_stream(ir: &CellIr, dec: &Decomposition) -> Vec<u32> {
        let mut out = Vec::new();
        let mut env = BTreeMap::new();
        walk(&ir.root, ir, dec, &mut env, &mut out);
        fn walk(
            region: &warp_ir::Region,
            ir: &CellIr,
            dec: &Decomposition,
            env: &mut BTreeMap<LoopId, i64>,
            out: &mut Vec<u32>,
        ) {
            match region {
                warp_ir::Region::Block(b) => {
                    if let Some(slots) = dec.slots.get(b) {
                        for s in slots {
                            out.push(s.affine.eval(env) as u32);
                        }
                    }
                }
                warp_ir::Region::Loop { id, body } => {
                    let meta = &ir.loops[*id];
                    for i in 0..meta.count {
                        env.insert(*id, meta.lo + i as i64);
                        walk(body, ir, dec, env, out);
                    }
                    env.remove(id);
                }
                warp_ir::Region::Seq(rs) => {
                    for r in rs {
                        walk(r, ir, dec, env, out);
                    }
                }
            }
        }
        out
    }

    fn check_stream(body: &str, opts: &IuOptions) -> IuProgram {
        let src = format!(
            "module m (zs in, rs out) float zs[64]; float rs[64]; \
             cellprogram (cid : 0 : 0) begin function f begin \
             float x, y; float arr[16]; float mat[4, 4]; int i, j; {body} end call f; end"
        );
        let hir = parse_and_check(&src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        let dec = decompose::decompose(&mut ir);
        let code = cell_codegen(&ir, &CellMachine::default()).expect("cell codegen");
        let iu = iu_codegen(&ir, &dec, &code, opts).expect("iu codegen");
        let got: Vec<u32> = iu.emissions().iter().map(|e| e.addr).collect();
        assert_eq!(got, expected_stream(&ir, &dec), "address stream mismatch");
        iu
    }

    #[test]
    fn one_dim_loop_stream() {
        let iu = check_stream(
            "for i := 0 to 15 do begin receive (L, X, x, zs[i]); arr[i] := x; end;",
            &IuOptions::default(),
        );
        assert_eq!(iu.regs_used, 1);
        assert!(iu.table.is_empty());
    }

    #[test]
    fn two_dim_loop_stream() {
        let iu = check_stream(
            "for i := 0 to 3 do for j := 0 to 3 do begin receive (L, X, x, zs[i]); mat[i, j] := x; end;",
            &IuOptions::default(),
        );
        assert_eq!(iu.regs_used, 1);
        assert!(iu.table.is_empty());
    }

    #[test]
    fn shared_register_for_offset_addresses() {
        // arr[i] and arr[i+1]: same linear part, one register.
        let iu = check_stream(
            "for i := 0 to 14 do begin receive (L, X, x, zs[i]); arr[i + 1] := x; x := arr[i]; send (R, X, x, rs[i]); end;",
            &IuOptions::default(),
        );
        assert_eq!(iu.regs_used, 1);
        let unshared = check_stream(
            "for i := 0 to 14 do begin receive (L, X, x, zs[i]); arr[i + 1] := x; x := arr[i]; send (R, X, x, rs[i]); end;",
            &IuOptions {
                share_registers: false,
                ..IuOptions::default()
            },
        );
        assert_eq!(unshared.regs_used, 2);
    }

    #[test]
    fn strength_reduction_off_uses_table() {
        let iu = check_stream(
            "for i := 0 to 15 do begin receive (L, X, x, zs[i]); arr[i] := x; end;",
            &IuOptions {
                strength_reduction: false,
                ..IuOptions::default()
            },
        );
        assert_eq!(iu.regs_used, 0);
        assert_eq!(iu.table.len(), 16);
    }

    #[test]
    fn table_exhaustion_reported() {
        let src = "module m (zs in, rs out) float zs[64]; float rs[64]; \
             cellprogram (cid : 0 : 0) begin function f begin \
             float x; float arr[16]; int i, j; \
             for i := 0 to 15 do for j := 0 to 15 do begin receive (L, X, x, zs[i]); arr[j] := x; end; \
             end call f; end";
        let hir = parse_and_check(src).expect("valid");
        let mut ir = lower(&hir, &LowerOptions::default()).expect("lowers");
        let dec = decompose::decompose(&mut ir);
        let code = cell_codegen(&ir, &CellMachine::default()).expect("cell codegen");
        let err = iu_codegen(
            &ir,
            &dec,
            &code,
            &IuOptions {
                strength_reduction: false,
                table_words: 100,
                ..IuOptions::default()
            },
        )
        .expect_err("256 words > 100");
        assert!(err.to_string().contains("table memory exhausted"), "{err}");
    }

    #[test]
    fn register_pressure_spills_to_table() {
        // Four distinct linear parts with one register available: three
        // plans move to the table, the cheapest first.
        let body = "for i := 0 to 3 do for j := 0 to 3 do begin \
             receive (L, X, x, zs[i]); \
             mat[i, j] := x; \
             x := mat[j, i]; \
             arr[i] := x; \
             arr[j] := x; \
             send (R, X, x, rs[i]); end;";
        let iu = check_stream(
            body,
            &IuOptions {
                registers: 1,
                ..IuOptions::default()
            },
        );
        assert_eq!(iu.regs_used, 1);
        assert!(!iu.table.is_empty());
        // With all 16 registers nothing spills.
        let full = check_stream(body, &IuOptions::default());
        assert!(full.table.is_empty());
        assert_eq!(full.regs_used, 4);
    }

    #[test]
    fn short_loops_unroll_tail() -> Result<(), String> {
        let (_, iu) = compile(
            "for i := 0 to 15 do begin receive (L, X, x, zs[i]); send (R, X, x, rs[i]); end;",
            &IuOptions::default(),
        );
        // The loop body is a couple of cycles long; if shorter than the
        // 3-cycle test, a tail is unrolled.
        let IuRegion::Loop {
            unrolled_tail,
            body,
            ..
        } = &iu.regions[0]
        else {
            return Err(format!("expected loop, got {:?}", iu.regions[0]));
        };
        let span: u64 = body.iter().map(IuRegion::static_len).sum();
        if span < LOOP_TEST_CYCLES {
            assert!(*unrolled_tail > 0);
        } else {
            assert_eq!(*unrolled_tail, 0);
        }
        Ok(())
    }

    #[test]
    fn iu_static_len_metric_positive() {
        let (_, iu) = compile(
            "for i := 0 to 15 do begin receive (L, X, x, zs[i]); arr[i] := x; end;",
            &IuOptions::default(),
        );
        assert!(iu.static_len() > 0);
    }
}
