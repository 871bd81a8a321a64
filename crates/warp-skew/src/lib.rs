//! Skew and timing analysis for the skewed computation model.
//!
//! The skewed computation model (Gross & Lam, PLDI 1986, §3) runs the
//! same program on every cell, delayed by a fixed per-cell *skew*. The
//! compiler must pick the minimum skew that guarantees no queue ever
//! underflows (§6.2.1), and must bound queue occupancy against the
//! 128-word hardware queues (§6.2.2). This crate implements both:
//!
//! * [`nest`] — the analysis: exact skew and occupancy from each lane's
//!   loop nest, at a cost that follows the program text;
//! * [`vectors`] — the paper's five-vector timing functions `τ(n)` and
//!   the closed-form rational skew bound;
//! * [`skew`] — the analysis driver ([`analyze`]) plus the SIMD-model
//!   latency comparison of Figure 3-1;
//! * [`timeline`] — enumeration of every dynamic I/O operation, the
//!   oracle the other three are tested against;
//! * [`paper`] — the worked example programs of §6.2.1 (Figures 6-2 and
//!   6-4), used by tests and benchmarks.
//!
//! # Examples
//!
//! ```
//! use warp_skew::{analyze, paper, SkewOptions};
//!
//! let report = analyze(
//!     &paper::fig_6_2_code(),
//!     &paper::paper_loops(),
//!     &SkewOptions::default(),
//! )?;
//! assert_eq!(report.min_skew, 3); // Table 6-1 of the paper
//! # Ok::<(), warp_skew::SkewError>(())
//! ```

pub mod nest;
pub mod paper;
pub mod skew;
pub mod timeline;
pub mod vectors;

pub use nest::{Meter, Nests};
pub use skew::{analyze, ModelComparison, SkewError, SkewMethod, SkewOptions, SkewReport};
pub use timeline::{visit_events, HostBinding, TimedIo, Timeline};
pub use vectors::{
    bound_pair, extract, min_skew_bound, occupancy_bound, IoStatement, Level, TimingFunction,
    TimingOverflow,
};
