//! The Warp compiler driver: W2 source in, a complete machine program
//! out.
//!
//! This crate wires the pipeline of paper §6.1 together (Figure 6-1):
//!
//! ```text
//! W2 source ──► front end ──► flow analysis ──► decomposition
//!      ──► cell code generation ──► skew & queue analysis
//!      ──► IU code generation ──► host code generation
//! ```
//!
//! The driver is an explicit pass manager: a [`Session`] runs the
//! nine named passes of [`passes::PIPELINE`] in order, reporting each
//! one's elapsed time and output artifact to an attached
//! [`warp_common::PassObserver`] — that is what `w2c --time-passes`
//! and `w2c --dump-after <pass>` are built on. [`compile`] is the
//! plain entry point; [`compile_many`] batch-compiles independent
//! modules on a worker pool with deterministic output ordering.
//!
//! The result is a [`CompiledModule`] that can be executed on the
//! cycle-level simulator with [`CompiledModule::run`]. It is a pure
//! function of the source text and the options: two compiles of one
//! source encode to the same bytes ([`store::artifact_bytes`]).
//!
//! The [`corpus`] module carries the paper's five benchmark programs
//! (Table 7-1) plus parameterized generators, and [`mod@reference`] holds
//! plain-Rust implementations of the same computations for end-to-end
//! validation.
//!
//! # Examples
//!
//! ```
//! use warp_compiler::{compile, CompileOptions};
//!
//! let module = compile(warp_compiler::corpus::POLYNOMIAL, &CompileOptions::default())?;
//! assert_eq!(module.n_cells, 10);
//!
//! // Evaluate P(z) = sum c_k z^(9-k) over 100 points on the 10-cell array.
//! let c: Vec<f32> = (1..=10).map(|k| k as f32 / 10.0).collect();
//! let z: Vec<f32> = (0..100).map(|i| -1.0 + i as f32 * 0.02).collect();
//! let report = module.run(&[("c", &c), ("z", &z)])?;
//! let expected = warp_compiler::reference::polynomial(&c, &z);
//! assert_eq!(report.host.get("results")?, &expected[..]);
//! # Ok::<(), warp_compiler::CompileOrSimError>(())
//! ```

pub mod audit;
pub mod cache;
pub mod corpus;
pub mod crash;
pub mod daemon;
pub mod differential;
pub mod fuzz;
pub mod health;
pub mod isolate;
#[cfg(test)]
mod oracle;
pub mod passes;
pub mod protocol;
pub mod reference;
pub mod scenario;
pub mod service;
mod session;
pub mod store;

pub use service::{BatchReport, ServiceConfig};
pub use session::{compile_many, Session};

use warp_cell::{CellCode, CellMachine};
use warp_common::{CancelReason, CancelToken, DiagnosticBag};
use warp_host::{HostError, HostMemory, HostProgram};
use warp_ir::{comm, CellIr, LowerOptions};
use warp_iu::{IuOptions, IuProgram};
use warp_sim::{FaultReport, MachineConfig, RunReport, SimError, SimOptions, StaticClaims};
use warp_skew::SkewReport;

/// Options for one compilation.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    /// Cell machine parameters.
    pub machine: CellMachine,
    /// IU code generation options.
    pub iu: IuOptions,
    /// Lowering/optimization options.
    pub lower: LowerOptions,
}

/// Which executor serves a compiled module's runs.
///
/// The compiler's output is identical either way — the backend is an
/// *execution* preference recorded with the request so the service
/// layer can route runs and the cache can key artifacts per serving
/// path. [`ExecBackend::Sim`] is the cycle-accurate simulator (the
/// timing/audit oracle); [`ExecBackend::Native`] is the `warp-native`
/// fast path, bitwise-identical on values but untimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecBackend {
    /// Cycle-level simulation (`warp-sim`) — timed, auditable, slow.
    #[default]
    Sim,
    /// Flat-op-table native execution (`warp-native`) — untimed, fast.
    Native,
}

impl std::fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecBackend::Sim => write!(f, "sim"),
            ExecBackend::Native => write!(f, "native"),
        }
    }
}

impl std::str::FromStr for ExecBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecBackend, String> {
        match s {
            "sim" => Ok(ExecBackend::Sim),
            "native" => Ok(ExecBackend::Native),
            other => Err(format!("unknown backend `{other}` (expected sim|native)")),
        }
    }
}

/// Resource-control knobs for one compilation, injected by the service
/// layer: cooperative cancellation polled at every pass boundary (and
/// inside the skew engine), an event budget for the exact skew
/// analysis, an IR-size ceiling checked between passes, and pipeline
/// policy toggles. The default is fully inert — un-budgeted compiles
/// behave exactly as before.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCtrl {
    /// Cancellation handle; checked before every pass and threaded into
    /// the skew analysis.
    pub cancel: CancelToken,
    /// Budget on the program's dynamic I/O events, checked by the skew
    /// pass before its exact analysis (`0` = unlimited). Exceeding it
    /// degrades the skew report to conservative closed-form bounds
    /// ([`warp_skew::SkewReport::degraded`]).
    pub skew_max_events: u64,
    /// Ceiling on the dynamic length of the generated cell program in
    /// cycles, checked after cell code generation (`0` = unlimited) —
    /// the memory/IR-size budget guarding against oversized loop
    /// bounds.
    pub max_cell_cycles: u64,
    /// Ceiling on the source text size in bytes, checked before the
    /// frontend runs (`0` = unlimited). Oversized inputs fail fast with
    /// [`CompileFailure::TooLarge`] instead of being lexed.
    pub max_source_bytes: u64,
    /// Modulo-schedule (software-pipeline) eligible innermost loops
    /// (see [`warp_cell::modulo`]). On by default; `w2c --no-pipeline`
    /// clears it for one-iteration-at-a-time baselines and A/B runs.
    pub pipeline: bool,
    /// Ceiling on total rewrite-pattern applications in the `rewrite`
    /// pass (`None` = unlimited). A debugging/bisection knob: fuel `k`
    /// stops the fixpoint driver after the k-th application.
    pub rewrite_fuel: Option<u64>,
    /// Which executor this request's runs are served by
    /// (`w2c --backend`, `w2cd` per-job backend field). Part of the
    /// content-addressed cache key.
    pub backend: ExecBackend,
}

impl Default for SessionCtrl {
    fn default() -> SessionCtrl {
        SessionCtrl {
            cancel: CancelToken::default(),
            skew_max_events: 0,
            max_cell_cycles: 0,
            max_source_bytes: 0,
            pipeline: true,
            rewrite_fuel: None,
            backend: ExecBackend::default(),
        }
    }
}

/// A structured compilation failure: what stopped the pipeline, and
/// where. [`Session::try_compile`] returns this; the plain
/// [`compile`] entry point flattens it back into a [`DiagnosticBag`]
/// for compatibility.
#[derive(Clone, Debug)]
pub enum CompileFailure {
    /// The program was rejected with ordinary diagnostics.
    Diagnostics(DiagnosticBag),
    /// The compilation was cancelled or ran past its deadline; `pass`
    /// names the pass boundary (or in-pass poll) that observed it.
    Interrupted {
        /// The pass that was running (or about to run).
        pass: &'static str,
        /// Why the compilation was stopped.
        reason: CancelReason,
    },
    /// A measured resource exceeded its configured ceiling: the
    /// generated cell program outgrew [`SessionCtrl::max_cell_cycles`],
    /// or the source text outgrew [`SessionCtrl::max_source_bytes`].
    TooLarge {
        /// The pass whose output tripped the ceiling.
        pass: &'static str,
        /// What was measured (`"cell cycles"`, `"source bytes"`).
        what: &'static str,
        /// The measured size.
        size: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// Timing arithmetic overflowed its fixed-width representation:
    /// the rational skew bounds or the `i64` schedule offsets could
    /// not be computed exactly ([`warp_skew::TimingOverflow`]). The
    /// program is rejected rather than scheduled with wrong timing.
    TimingOverflow {
        /// The pass whose arithmetic overflowed.
        pass: &'static str,
        /// Human-readable description of the overflowing computation.
        detail: String,
    },
}

impl CompileFailure {
    /// `true` for the budget-enforcement outcomes (interruption or size
    /// ceiling) as opposed to an ordinary rejection of the program.
    pub fn is_budget_failure(&self) -> bool {
        matches!(
            self,
            CompileFailure::Interrupted { .. } | CompileFailure::TooLarge { .. }
        )
    }

    /// Flattens the failure into plain diagnostics.
    pub fn into_diagnostics(self) -> DiagnosticBag {
        match self {
            CompileFailure::Diagnostics(d) => d,
            other => {
                let mut diags = DiagnosticBag::new();
                diags.push(warp_common::Diagnostic::error_global(other.to_string()));
                diags
            }
        }
    }
}

impl std::fmt::Display for CompileFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileFailure::Diagnostics(d) => write!(f, "{d}"),
            CompileFailure::Interrupted { pass, reason } => {
                write!(f, "compilation interrupted during `{pass}`: {reason}")
            }
            CompileFailure::TooLarge {
                pass,
                what,
                size,
                limit,
            } => write!(
                f,
                "program too large during `{pass}`: {size} {what} exceeds the configured \
                 limit of {limit}"
            ),
            CompileFailure::TimingOverflow { pass, detail } => {
                write!(f, "timing arithmetic overflow during `{pass}`: {detail}")
            }
        }
    }
}

impl std::error::Error for CompileFailure {}

impl From<DiagnosticBag> for CompileFailure {
    fn from(d: DiagnosticBag) -> CompileFailure {
        CompileFailure::Diagnostics(d)
    }
}

/// Size metrics of one compilation — the count columns of Table 7-1.
/// Compile time is an observation of a compile, not part of its
/// result: a [`warp_common::PassObserver`] receives it per pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Non-blank source lines ("W2 Lines").
    pub w2_lines: u32,
    /// Static cell micro-instructions ("Cell µcode").
    pub cell_ucode: u32,
    /// Static IU micro-instructions ("IU µcode").
    pub iu_ucode: u64,
    /// Per-pattern application counts from the `rewrite` pass, sorted
    /// by pattern name. Empty when optimization is disabled.
    pub rewrite_hits: Vec<(String, u64)>,
}

/// A fully compiled module: programs for the cells, the IU, and the
/// host, plus the analyses that justify them.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// Module name from the source.
    pub name: String,
    /// Cells declared by the `cellprogram` range.
    pub n_cells: u32,
    /// The cell IR (kept for the simulator's variable/loop tables).
    pub ir: CellIr,
    /// The cell microprogram.
    pub cell_code: CellCode,
    /// The IU program.
    pub iu: IuProgram,
    /// The host transfer scripts.
    pub host: HostProgram,
    /// Skew and queue analysis results.
    pub skew: SkewReport,
    /// Communication structure of the program.
    pub comm: comm::CommReport,
    /// Machine parameters the module was compiled for.
    pub machine: CellMachine,
    /// Compilation metrics.
    pub metrics: Metrics,
    /// Warning-severity diagnostics from the front end (unused locals,
    /// dead loop indices). A successful compile never carries errors —
    /// those reject the program — so drivers print these and exit
    /// successfully.
    pub warnings: Vec<warp_common::Diagnostic>,
}

/// Compiles a W2 module by running a [`Session`] with no observer.
///
/// # Errors
///
/// Returns the accumulated diagnostics of whichever pass rejected the
/// program: parsing, semantic analysis, the unidirectionality check of
/// §5.1.1, lowering, cell or IU code generation, or the skew/queue
/// analysis.
pub fn compile(source: &str, opts: &CompileOptions) -> Result<CompiledModule, DiagnosticBag> {
    Session::new(opts.clone()).compile(source)
}

/// An error from compiling or running a module (convenience for examples
/// and doctests).
#[derive(Debug)]
pub enum CompileOrSimError {
    /// Compilation diagnostics.
    Compile(DiagnosticBag),
    /// A simulator invariant violation.
    Sim(SimError),
    /// A host-memory binding error (unknown variable, wrong length).
    Host(HostError),
}

impl std::fmt::Display for CompileOrSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileOrSimError::Compile(d) => write!(f, "{d}"),
            CompileOrSimError::Sim(e) => write!(f, "{e}"),
            CompileOrSimError::Host(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileOrSimError {
    /// Simulator and host errors keep their underlying cause reachable
    /// (e.g. `Sim(Host(e))` chains down to the [`HostError`]), so
    /// callers can walk to the root instead of re-parsing messages.
    /// Compile diagnostics are an aggregate with no single cause.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileOrSimError::Compile(_) => None,
            CompileOrSimError::Sim(e) => Some(e),
            CompileOrSimError::Host(e) => Some(e),
        }
    }
}

impl From<DiagnosticBag> for CompileOrSimError {
    fn from(d: DiagnosticBag) -> CompileOrSimError {
        CompileOrSimError::Compile(d)
    }
}

impl From<SimError> for CompileOrSimError {
    fn from(e: SimError) -> CompileOrSimError {
        CompileOrSimError::Sim(e)
    }
}

impl From<HostError> for CompileOrSimError {
    fn from(e: HostError) -> CompileOrSimError {
        CompileOrSimError::Host(e)
    }
}

/// An error from a native-backend run: either the inputs did not bind,
/// or the native executor itself stopped ([`warp_native::NativeError`]
/// — starved queue, out-of-bounds access, budget ceiling,
/// cancellation).
#[derive(Clone, Debug)]
pub enum NativeRunError {
    /// A host-memory binding error (unknown variable, wrong length).
    Host(HostError),
    /// A structured native-execution failure.
    Native(warp_native::NativeError),
}

impl std::fmt::Display for NativeRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeRunError::Host(e) => write!(f, "{e}"),
            NativeRunError::Native(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for NativeRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NativeRunError::Host(e) => Some(e),
            NativeRunError::Native(e) => Some(e),
        }
    }
}

impl From<HostError> for NativeRunError {
    fn from(e: HostError) -> NativeRunError {
        NativeRunError::Host(e)
    }
}

impl From<warp_native::NativeError> for NativeRunError {
    fn from(e: warp_native::NativeError) -> NativeRunError {
        NativeRunError::Native(e)
    }
}

impl CompiledModule {
    /// Runs the module on its declared number of cells at the computed
    /// minimum skew.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the inputs do not bind
    /// ([`SimError::Host`]) or a machine invariant is violated — which
    /// for compiler-produced parameters indicates a compiler bug.
    pub fn run(&self, inputs: &[(&str, &[f32])]) -> Result<RunReport, SimError> {
        self.run_with(self.n_cells, self.skew.min_skew, inputs)
    }

    /// Runs the module with explicit cell count and skew (used by tests
    /// to probe the minimality of the skew and by benchmarks to sweep
    /// configurations).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Host`] if `inputs` name unknown host
    /// variables or have wrong lengths, otherwise the first violated
    /// machine invariant.
    pub fn run_with(
        &self,
        n_cells: u32,
        skew: i64,
        inputs: &[(&str, &[f32])],
    ) -> Result<RunReport, SimError> {
        let mut host = HostMemory::new(&self.ir.vars);
        for (name, data) in inputs {
            host.set(name, data)?;
        }
        warp_sim::run(
            &MachineConfig {
                cell_code: &self.cell_code,
                iu: &self.iu,
                host_program: &self.host,
                machine: &self.machine,
                n_cells,
                skew,
                flow: self.skew.flow,
            },
            host,
        )
    }

    /// Lowers this module's cell IR into the native-execution program
    /// (`warp-native` flat op tables). Build once and
    /// [`run`](warp_native::NativeProgram::run) repeatedly — the build
    /// is cheap but not free, and benchmarks amortize it.
    pub fn native_program(&self) -> warp_native::NativeProgram {
        warp_native::NativeProgram::build(&self.ir, self.skew.flow)
    }

    /// Runs the module on the native backend: whole-array semantics
    /// executed as tight dispatch loops, bitwise-identical words to
    /// [`CompiledModule::run`] (the simulator) when compiled with
    /// reassociation off, but untimed — the returned report's `cycles`
    /// is 0 and the simulator remains the timing oracle.
    ///
    /// # Errors
    ///
    /// Returns [`NativeRunError::Host`] if `inputs` name unknown host
    /// variables or have wrong lengths, otherwise the first structured
    /// [`warp_native::NativeError`] the executor hits.
    pub fn run_native(
        &self,
        inputs: &[(&str, &[f32])],
        opts: &warp_native::NativeOptions,
    ) -> Result<RunReport, NativeRunError> {
        let program = self.native_program();
        let mut host = HostMemory::new(&self.ir.vars);
        for (name, data) in inputs {
            host.set(name, data)?;
        }
        Ok(program.run(host, opts)?)
    }

    /// The static claims the skew/queue analysis made for this module —
    /// what the [`audit`] module holds the simulator's observations
    /// against.
    pub fn claims(&self) -> StaticClaims {
        StaticClaims {
            min_skew: self.skew.min_skew,
            queue_occupancy: self.skew.queue_occupancy.clone(),
        }
    }

    /// Runs the module under explicit [`SimOptions`] — fault plan, ring
    /// buffer, and static claims — returning a structured
    /// [`FaultReport`] on any violation (including input-binding
    /// failures, which surface as [`SimError::Host`] with no cycles
    /// run).
    ///
    /// # Errors
    ///
    /// Returns the [`FaultReport`] for the first violated invariant.
    pub fn run_audited(
        &self,
        n_cells: u32,
        skew: i64,
        inputs: &[(&str, &[f32])],
        opts: &SimOptions,
    ) -> Result<RunReport, Box<FaultReport>> {
        let mut host = HostMemory::new(&self.ir.vars);
        for (name, data) in inputs {
            if let Err(e) = host.set(name, data) {
                return Err(Box::new(FaultReport {
                    error: SimError::Host(e),
                    cycles_run: 0,
                    queue_high_water: Default::default(),
                    recent_events: Vec::new(),
                    claims: opts.claims.clone(),
                    injected: opts.plan.describe(),
                }));
            }
        }
        warp_sim::run_with_options(
            &MachineConfig {
                cell_code: &self.cell_code,
                iu: &self.iu,
                host_program: &self.host,
                machine: &self.machine,
                n_cells,
                skew,
                flow: self.skew.flow,
            },
            host,
            opts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_produces_metrics() {
        let m = compile(corpus::POLYNOMIAL, &CompileOptions::default()).expect("compiles");
        assert_eq!(m.name, "polynomial");
        assert_eq!(m.n_cells, 10);
        assert!(m.metrics.w2_lines > 20);
        assert!(m.metrics.cell_ucode > 10);
        assert!(m.metrics.iu_ucode > 0);
        assert!(m.skew.min_skew >= 0);
        assert!(m.comm.is_unidirectional());
    }

    #[test]
    fn per_pass_timings_cover_the_pipeline() {
        let mut timings = warp_common::CollectTimings::default();
        Session::with_observer(CompileOptions::default(), &mut timings)
            .compile(corpus::POLYNOMIAL)
            .expect("compiles");
        let names: Vec<_> = timings.timings.iter().map(|t| t.name).collect();
        assert_eq!(names, passes::pass_names().collect::<Vec<_>>());
    }

    #[test]
    fn bidirectional_rejected_at_driver() {
        let src = "module bidi (a in, r out) float a[4]; float r[4]; \
            cellprogram (cid : 0 : 1) begin function f begin float x; \
            receive (L, X, x, a[0]); send (R, X, x); \
            receive (R, Y, x); send (L, Y, x, r[0]); \
            end call f; end";
        let err = compile(src, &CompileOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains("cannot be mapped")
                || err.to_string().contains("bidirectional"),
            "{err}"
        );
    }

    #[test]
    fn parse_errors_propagate() {
        let err = compile("module broken", &CompileOptions::default()).unwrap_err();
        assert!(err.has_errors());
    }

    #[test]
    fn native_backend_matches_the_simulator_bitwise() {
        let mut opts = CompileOptions::default();
        opts.lower.reassociate = false;
        let m = compile(corpus::POLYNOMIAL, &opts).expect("compiles");
        let c: Vec<f32> = (1..=10).map(|k| k as f32 / 10.0).collect();
        let z: Vec<f32> = (0..100).map(|i| -1.0 + i as f32 * 0.02).collect();
        let inputs: &[(&str, &[f32])] = &[("c", &c), ("z", &z)];
        let sim = m.run(inputs).expect("sim runs");
        let native = m
            .run_native(inputs, &warp_native::NativeOptions::default())
            .expect("native runs");
        let sim_out: Vec<u32> = sim
            .host
            .get("results")
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let native_out: Vec<u32> = native
            .host
            .get("results")
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(sim_out, native_out);
        assert_eq!(native.cycles, 0, "native is untimed");
        assert!(sim.cycles > 0);
    }

    #[test]
    fn native_run_input_errors_are_structured() {
        let m = compile(corpus::POLYNOMIAL, &CompileOptions::default()).expect("compiles");
        let err = m
            .run_native(
                &[("nonsense", &[1.0][..])],
                &warp_native::NativeOptions::default(),
            )
            .unwrap_err();
        assert!(matches!(err, NativeRunError::Host(_)), "{err:?}");
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("sim".parse::<ExecBackend>().unwrap(), ExecBackend::Sim);
        assert_eq!(
            "native".parse::<ExecBackend>().unwrap(),
            ExecBackend::Native
        );
        assert!("jit".parse::<ExecBackend>().is_err());
        assert_eq!(ExecBackend::Native.to_string(), "native");
        assert_eq!(ExecBackend::default(), ExecBackend::Sim);
    }

    #[test]
    fn unknown_run_input_is_a_host_error() {
        let m = compile(corpus::POLYNOMIAL, &CompileOptions::default()).expect("compiles");
        let err = m.run(&[("nonsense", &[1.0][..])]).unwrap_err();
        assert!(matches!(err, SimError::Host(_)), "{err:?}");
        assert!(err.to_string().contains("unknown host variable"), "{err}");
    }
}
