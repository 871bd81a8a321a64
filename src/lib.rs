//! Facade crate for the Warp systolic array compiler reproduction
//! (Gross & Lam, *Compilation for a High-performance Systolic Array*,
//! PLDI 1986).
//!
//! This crate re-exports the workspace crates under stable module names so
//! downstream users can depend on a single crate:
//!
//! ```
//! use warp::compiler::{compile, CompileOptions};
//!
//! let source = warp::compiler::corpus::POLYNOMIAL;
//! let module = compile(source, &CompileOptions::default()).expect("compiles");
//! assert!(module.skew.min_skew >= 0);
//! ```

pub use w2_lang as w2;
pub use warp_common as common;
pub use warp_compiler as compiler;
pub use warp_host as host;
pub use warp_iu as iu;
pub use warp_oracle as oracle;
pub use warp_service as service;
pub use warp_sim as sim;
pub use warp_skew as skew;

pub use warp_cell as cell;
pub use warp_ir as ir;

/// The serving layer — cache, store, daemon, protocol, the chaos
/// scenarios and the worker-pool types they are configured with —
/// under its permanent public name. Which crate a module lives in is
/// not part of this interface.
pub mod serve {
    pub use warp_compiler::{
        cache, crash, daemon, health, isolate, protocol, scenario, service, store,
    };
    pub use warp_service::{
        ExecutorConfig, JobOutcome, JobSuccess, PoolConfig, ShutdownMode, WorkerPool,
        SUPERVISE_MANUAL,
    };
}
