//! Warp cell code generation.
//!
//! Translates the abstract cell IR of [`warp_ir`] into horizontal
//! microcode for the Warp cell datapath (paper §2.4, §6.2): list
//! scheduling with pipeline latencies and resource reservation
//! ([`sched`]), iterative modulo scheduling of innermost loops
//! ([`modulo`]), linear-scan register allocation with memory spilling
//! ([`regalloc`]), and emission of wide micro-instructions ([`mcode`]).
//!
//! # Examples
//!
//! ```
//! use w2_lang::parse_and_check;
//! use warp_ir::{decompose, lower, LowerOptions};
//! use warp_cell::{codegen, CellMachine};
//!
//! let src = r#"
//! module axpy (xs in, ys out)
//! float xs[8];
//! float ys[8];
//! cellprogram (cid : 0 : 0)
//! begin
//!   function body
//!   begin
//!     float v;
//!     int i;
//!     for i := 0 to 7 do begin
//!       receive (L, X, v, xs[i]);
//!       send (R, X, 2.0 * v + 1.0, ys[i]);
//!     end;
//!   end
//!   call body;
//! end
//! "#;
//! let hir = parse_and_check(src)?;
//! let mut ir = lower(&hir, &LowerOptions::default())?;
//! decompose::decompose(&mut ir);
//! let code = codegen(&ir, &CellMachine::default())?;
//! assert!(code.static_len() > 0);
//! # Ok::<(), warp_common::DiagnosticBag>(())
//! ```

pub mod codegen;
pub mod machine;
pub mod mcode;
pub mod modulo;
pub mod regalloc;
pub mod sched;
pub mod wire;

pub use codegen::{codegen, codegen_with, CellCodegenOptions};
pub use machine::{io_index, CellMachine, Unit};
pub use mcode::{
    AddrSource, AluOp, BlockCode, CellCode, CodeRegion, FpuField, IoEvent, IoField, MemField,
    MicroInst, Operand, PipelineInfo, Reg,
};
pub use regalloc::{allocate, Allocation, SpillNeeded};
pub use sched::{schedule, validate, BlockFacts, BlockSchedule};
