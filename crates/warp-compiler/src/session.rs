//! One compilation as an explicit, observable pass pipeline.
//!
//! [`Session`] owns the [`CompileOptions`] and drives the nine passes
//! of [`PIPELINE`](crate::passes::PIPELINE) in order, checking the
//! cancel token before each one and reporting its elapsed time and
//! output artifact to an attached
//! [`PassObserver`](warp_common::PassObserver).
//! The plain [`compile`](crate::compile) function is a thin wrapper
//! over a session with no observer; [`compile_many`] batch-compiles
//! several sources on a short-lived worker pool.

use crate::{CompileFailure, CompileOptions, CompiledModule, Metrics, SessionCtrl};
use std::time::Instant;
use w2_lang::parse_and_check;
use warp_cell::{codegen_with as cell_codegen, CellCodegenOptions};
use warp_common::observe::{Artifact, PassObserver};
use warp_common::{Diagnostic, DiagnosticBag};
use warp_host::host_codegen;
use warp_ir::rewrite::{rewrite_module, RewriteOptions, RewriteStats};
use warp_ir::{comm, decompose, lower};
use warp_skew::{analyze, SkewError, SkewMethod, SkewOptions, TimingOverflow};

/// Artifact of the `rewrite` pass: the per-pattern application counts,
/// rendered as a stable name-sorted table for `--dump-after rewrite`.
struct RewriteArtifact(RewriteStats);

impl Artifact for RewriteArtifact {
    fn kind(&self) -> &'static str {
        "rewrite-stats"
    }

    fn dump(&self) -> String {
        let mut out = String::from("; rewrite pattern applications\n");
        for (name, n) in self.0.hits() {
            out.push_str(&format!("{name}: {n}\n"));
        }
        if self.0.fuel_exhausted {
            out.push_str("; fuel exhausted\n");
        }
        out
    }
}

/// Why a pass body failed: it rejected the program, or (the skew pass
/// only) its exact timing arithmetic overflowed.
enum PassError {
    Rejected(DiagnosticBag),
    Overflow(TimingOverflow),
}

impl From<DiagnosticBag> for PassError {
    fn from(diags: DiagnosticBag) -> PassError {
        PassError::Rejected(diags)
    }
}

impl From<SkewError> for PassError {
    fn from(e: SkewError) -> PassError {
        match e {
            SkewError::Diagnostics(diags) => PassError::Rejected(diags),
            SkewError::Overflow(o) => PassError::Overflow(o),
        }
    }
}

/// A single compilation: options, resource controls, and an optional
/// pass observer.
///
/// # Examples
///
/// ```
/// use warp_compiler::{corpus, CompileOptions, Session};
/// use warp_common::CollectDumps;
///
/// let mut dumps = CollectDumps::for_passes(["lower"]);
/// let session = Session::with_observer(CompileOptions::default(), &mut dumps);
/// let module = session.compile(corpus::POLYNOMIAL)?;
/// assert_eq!(module.name, "polynomial");
/// assert_eq!(dumps.dumps().len(), 1);
/// assert_eq!(dumps.dumps()[0].kind, "cell-ir");
/// # Ok::<(), warp_common::DiagnosticBag>(())
/// ```
pub struct Session<'obs> {
    opts: CompileOptions,
    ctrl: SessionCtrl,
    observer: Option<&'obs mut dyn PassObserver>,
}

impl Session<'static> {
    /// Creates a session with no observer.
    pub fn new(opts: CompileOptions) -> Session<'static> {
        Session {
            opts,
            ctrl: SessionCtrl::default(),
            observer: None,
        }
    }
}

impl<'obs> Session<'obs> {
    /// Creates a session whose pass events are reported to `observer`.
    pub fn with_observer(
        opts: CompileOptions,
        observer: &'obs mut dyn PassObserver,
    ) -> Session<'obs> {
        Session {
            opts,
            ctrl: SessionCtrl::default(),
            observer: Some(observer),
        }
    }

    /// Attaches resource-control knobs (cancellation, budgets) to the
    /// session (builder style). The default [`SessionCtrl`] is inert.
    #[must_use]
    pub fn with_ctrl(mut self, ctrl: SessionCtrl) -> Session<'obs> {
        self.ctrl = ctrl;
        self
    }

    /// Runs one pass: checks the cancel token at the pass boundary,
    /// notifies the observer, times the body, and hands the elapsed
    /// time and the artifact to the observer. A pass
    /// that rejects the program while the cancel token is tripped was
    /// interrupted (e.g. the skew engine observing the token mid-pass),
    /// not rejected. Timing-arithmetic overflow is its own
    /// failure class: the program may be well-formed, but its schedule
    /// cannot be represented.
    fn pass<T: Artifact, E: Into<PassError>>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&CompileOptions) -> Result<T, E>,
    ) -> Result<T, CompileFailure> {
        let interrupted = |reason| CompileFailure::Interrupted { pass: name, reason };
        self.ctrl.cancel.check().map_err(interrupted)?;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.enter_pass(name);
        }
        let start = Instant::now();
        match f(&self.opts).map_err(Into::into) {
            Ok(artifact) => {
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.exit_pass(name, start.elapsed(), &artifact);
                }
                Ok(artifact)
            }
            Err(PassError::Rejected(diags)) => Err(match self.ctrl.cancel.check() {
                Err(reason) => interrupted(reason),
                Ok(()) => CompileFailure::Diagnostics(diags),
            }),
            Err(PassError::Overflow(o)) => Err(CompileFailure::TimingOverflow {
                pass: name,
                detail: o.to_string(),
            }),
        }
    }

    /// Compiles a W2 module by running the full pipeline, flattening
    /// any structured failure into diagnostics.
    ///
    /// # Errors
    ///
    /// Returns the diagnostics of whichever pass rejected the program.
    pub fn compile(self, source: &str) -> Result<CompiledModule, DiagnosticBag> {
        self.try_compile(source)
            .map_err(CompileFailure::into_diagnostics)
    }

    /// Compiles a W2 module by running the full pipeline, keeping
    /// budget-enforcement failures structurally distinct from ordinary
    /// diagnostics.
    ///
    /// The cancel token is checked before every pass; the skew pass
    /// additionally polls it inside its engine and degrades to
    /// closed-form bounds when the program exceeds its event budget; the cell
    /// program's dynamic length is checked against
    /// [`SessionCtrl::max_cell_cycles`] right after cell code
    /// generation.
    ///
    /// # Errors
    ///
    /// [`CompileFailure::Diagnostics`] when a pass rejects the program,
    /// [`CompileFailure::Interrupted`] on cancellation or deadline
    /// expiry, [`CompileFailure::TooLarge`] when a size ceiling
    /// (source bytes or cell cycles) trips, and
    /// [`CompileFailure::TimingOverflow`] when the skew pass's exact
    /// rational arithmetic cannot represent the schedule.
    pub fn try_compile(mut self, source: &str) -> Result<CompiledModule, CompileFailure> {
        // The input-size guard: reject oversized sources before the
        // frontend allocates token and AST storage proportional to
        // them.
        if self.ctrl.max_source_bytes > 0 {
            let bytes = source.len() as u64;
            if bytes > self.ctrl.max_source_bytes {
                return Err(CompileFailure::TooLarge {
                    pass: "frontend",
                    what: "source bytes",
                    size: bytes,
                    limit: self.ctrl.max_source_bytes,
                });
            }
        }

        let hir = self.pass("frontend", |_| parse_and_check(source))?;

        let comm_report = self.pass("comm", |_| {
            let report = comm::analyze(&hir);
            if !report.is_mappable() {
                let mut diags = DiagnosticBag::new();
                diags.push(Diagnostic::error_global(
                    "program has both right and left communication cycles and cannot be mapped \
                     onto the skewed computation model (paper §5.1.1)",
                ));
                return Err(diags);
            }
            if !report.is_unidirectional() {
                let mut diags = DiagnosticBag::new();
                diags.push(Diagnostic::error_global(
                    "program is bidirectional; like the paper's compiler, only unidirectional \
                     data flow is supported (paper §5.1.1)",
                ));
                return Err(diags);
            }
            Ok(report)
        })?;

        let mut ir = self.pass("lower", |opts| lower(&hir, &opts.lower))?;

        let rewrite_fuel = self.ctrl.rewrite_fuel;
        let rewrite_stats = self.pass("rewrite", |opts| {
            let stats = if opts.lower.optimize {
                rewrite_module(
                    &mut ir,
                    &RewriteOptions {
                        reassociate: opts.lower.reassociate,
                        fuel: rewrite_fuel,
                        latency: opts.machine.latency_model(),
                    },
                )
            } else {
                RewriteStats::default()
            };
            Ok::<_, DiagnosticBag>(RewriteArtifact(stats))
        })?;

        let dec = self.pass("decompose", |_| {
            Ok::<_, DiagnosticBag>(decompose::decompose(&mut ir))
        })?;

        let pipeline = self.ctrl.pipeline;
        let cell_code = self.pass("cell-codegen", |opts| {
            cell_codegen(
                &ir,
                &opts.machine,
                &CellCodegenOptions {
                    software_pipeline: pipeline,
                },
            )
        })?;

        // The IR-size/memory ceiling: the dynamic cell-program length
        // bounds the simulation cost and the skew engine's worst case
        // downstream, so an oversized loop nest is rejected here —
        // before the expensive analyses — with a structured failure.
        if self.ctrl.max_cell_cycles > 0 {
            let cycles = cell_code.dynamic_len();
            if cycles > self.ctrl.max_cell_cycles {
                return Err(CompileFailure::TooLarge {
                    pass: "cell-codegen",
                    what: "cell cycles",
                    size: cycles,
                    limit: self.ctrl.max_cell_cycles,
                });
            }
        }

        let (cancel, max_events) = (self.ctrl.cancel.clone(), self.ctrl.skew_max_events);
        let skew = self.pass("skew", |opts| {
            analyze(
                &cell_code,
                &ir.loops,
                &SkewOptions {
                    method: SkewMethod::Exact,
                    queue_capacity: u64::from(opts.machine.queue_capacity),
                    n_cells: ir.n_cells,
                    cancel,
                    max_events,
                },
            )
        })?;

        let iu = self.pass("iu-codegen", |opts| {
            warp_iu::iu_codegen(&ir, &dec, &cell_code, &opts.iu)
        })?;

        let host = self.pass("host-codegen", |_| host_codegen(&ir, &cell_code, skew.flow))?;

        let metrics = Metrics {
            w2_lines: source.lines().filter(|l| !l.trim().is_empty()).count() as u32,
            cell_ucode: cell_code.static_len(),
            iu_ucode: iu.static_len(),
            rewrite_hits: rewrite_stats
                .0
                .hits()
                .map(|(name, n)| (name.to_owned(), n))
                .collect(),
        };

        Ok(CompiledModule {
            name: ir.name.clone(),
            n_cells: ir.n_cells,
            ir,
            cell_code,
            iu,
            host,
            skew,
            comm: comm_report,
            machine: self.opts.machine.clone(),
            metrics,
            warnings: hir.warnings,
        })
    }
}

/// Compiles several W2 modules in parallel.
///
/// A thin client of the job engine (see [`crate::service`]): each
/// source becomes a job on a short-lived
/// [`WorkerPool`](warp_service::WorkerPool) with everything inert — no
/// deadlines, no retry, no breaker — sized to the smaller of the batch
/// and [`std::thread::available_parallelism`].
///
/// Results are returned in input order regardless of which thread
/// finished first, and each element equals, bitwise as stored, what a
/// sequential [`compile`](crate::compile) of the same source produces.
///
/// The batch always completes: a program that fails — or even crashes —
/// the compiler yields an `Err` in its slot while every other program
/// compiles normally.
///
/// ```
/// use warp_compiler::{compile_many, corpus, CompileOptions};
///
/// let sources = [corpus::POLYNOMIAL, corpus::ONED_CONV];
/// let modules = compile_many(&sources, &CompileOptions::default());
/// assert_eq!(modules.len(), 2);
/// assert_eq!(modules[0].as_ref().unwrap().name, "polynomial");
/// assert_eq!(modules[1].as_ref().unwrap().name, "conv1d");
/// ```
pub fn compile_many<S: AsRef<str> + Sync>(
    sources: &[S],
    opts: &CompileOptions,
) -> Vec<Result<CompiledModule, DiagnosticBag>> {
    crate::service::compile_batch(sources, opts, &SessionCtrl::default()).into_results()
}
