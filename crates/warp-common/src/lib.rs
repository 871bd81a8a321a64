//! Shared infrastructure for the Warp compiler reproduction.
//!
//! This crate provides the small, dependency-free building blocks used by
//! every other crate in the workspace:
//!
//! * [`Rat`] — exact rational arithmetic. The minimum-skew analysis of
//!   Gross & Lam (PLDI 1986, §6.2.1) bounds differences of I/O timing
//!   functions whose coefficients are rationals such as `5/3` or `52/3`;
//!   floating point would make those bounds unsound.
//! * [`Span`] — byte-range source locations for diagnostics.
//! * [`Diagnostic`] and [`DiagnosticBag`] — structured compile errors and
//!   warnings.
//! * [`IdVec`] and the [`define_id!`] macro — typed index vectors used for
//!   IR arenas (DAG nodes, basic blocks, registers, …).
//! * [`Artifact`], [`PassObserver`] and [`PassTiming`] — the pass
//!   observation hooks the driver's pass manager is built on.
//! * [`CancelToken`], [`Clock`] and friends — cooperative cancellation
//!   and injectable time for the resilient service layer.
//! * [`RingQueue`] — the fixed-capacity inter-cell word queue both
//!   executors (simulator and native backend) run on.
//!
//! # Examples
//!
//! ```
//! use warp_common::Rat;
//!
//! let bound = Rat::new(52, 3) - Rat::new(1, 1) + Rat::new(1, 6) * Rat::from(8);
//! assert_eq!(bound, Rat::new(53, 3));
//! assert_eq!(bound.ceil(), 18);
//! ```

pub mod ctrl;
pub mod diag;
pub mod hash;
pub mod idvec;
pub mod observe;
pub mod queue;
pub mod rat;
pub mod span;
pub mod vfs;
pub mod wire;

pub use ctrl::{
    panic_message, splitmix64, CancelReason, CancelToken, Clock, ManualClock, SplitMix64,
    SystemClock,
};
pub use diag::{Diagnostic, DiagnosticBag, Severity};
pub use hash::{fnv1a64, ContentKey, StableHasher};
pub use idvec::IdVec;
pub use observe::{Artifact, CollectDumps, CollectTimings, PassDump, PassObserver, PassTiming};
pub use queue::RingQueue;
pub use rat::Rat;
pub use span::Span;
pub use vfs::{atomic_write, FaultCounts, FaultProfile, FaultVfs, MemVfs, RealVfs, Vfs, VfsError};
pub use wire::{Decode, Encode, WireError, WireReader};
