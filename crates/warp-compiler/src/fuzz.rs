//! The totality fuzzing harness: arbitrary bytes through the guarded
//! pipeline, with panic capture, hang detection, and crash shrinking.
//!
//! Where [`differential`](crate::differential) checks that the
//! compiler's *answers* are right on well-typed programs, this harness
//! checks the complementary promise that compilation is a *total
//! function*: any input — corpus programs chewed up by the
//! [`warp_oracle::fuzz`] mutators into truncated, spliced, non-UTF-8,
//! absurdly nested bytes — must come back as a structured verdict.
//! Acceptable verdicts are a successful module, diagnostics, a budget
//! stop ([`CompileFailure::Interrupted`] / [`CompileFailure::TooLarge`])
//! or a timing-arithmetic overflow ([`CompileFailure::TimingOverflow`]).
//! A panic or a hang is a compiler bug, full stop.
//!
//! Each case follows the same script. A per-case seed is derived from
//! the root seed (`splitmix64(seed + i)`, the same scheme the
//! differential harness uses), the [`Mutator`] produces the input, and
//! [`check_case`] runs it through a [`Session`] under
//! `catch_unwind`, a wall-clock [`CancelToken`] deadline, and the full
//! set of resource guards ([`SessionCtrl`]: source-size cap,
//! cell-cycle ceiling, skew event budget). A panic is caught, its
//! message recorded, and the input handed to
//! [`warp_oracle::shrink_lines`] with "still crashes" as the predicate
//! — the byte-level shrinker, because crashers are usually not
//! parseable. The reduced input is written to the repro directory as
//! `fuzz-<seed>.w2` with a header comment carrying the replay command,
//! plus an `.orig.w2` sidecar with the unshrunk bytes — the same
//! self-describing repro shape `--differential` writes.
//!
//! [`FuzzOptions::inject_panic`] is the harness's own audit hook: it
//! plants a deliberate panic on inputs containing a needle, which must
//! then be caught, shrunk, and written out — proving the capture path
//! works before anyone needs it in anger.

use crate::{audit, corpus, CompileFailure, CompileOptions, ExecBackend, Session, SessionCtrl};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use warp_common::{panic_message, splitmix64, CancelToken, SplitMix64, SystemClock};
use warp_oracle::{shrink_lines, Mutator};

/// Configuration for one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Number of fuzzed inputs.
    pub cases: usize,
    /// Root seed; case `i` derives its own seed from it, so one crasher
    /// is replayable without rerunning the whole campaign.
    pub seed: u64,
    /// Compile options for every case.
    pub compile: CompileOptions,
    /// Where shrunk crashers are written (`None` = don't write files).
    pub repro_dir: Option<PathBuf>,
    /// Per-case wall-clock budget; `Duration::ZERO` disables the
    /// deadline. A case that exceeds it counts as a budget stop — and a
    /// case that *ignores* it would hang the run, which is exactly the
    /// bug class the deadline exists to surface.
    pub case_timeout: Duration,
    /// Ceiling on the dynamic cell-program length
    /// ([`SessionCtrl::max_cell_cycles`]); 0 = unlimited.
    pub max_cell_cycles: u64,
    /// Ceiling on the input size ([`SessionCtrl::max_source_bytes`]);
    /// 0 = unlimited.
    pub max_source_bytes: u64,
    /// Ceiling on the dynamic I/O events the skew analysis accepts
    /// ([`SessionCtrl::skew_max_events`]); 0 = unlimited.
    pub skew_max_events: u64,
    /// Modulo-schedule innermost loops ([`SessionCtrl::pipeline`]).
    pub pipeline: bool,
    /// Predicate-call budget for the crash shrinker.
    pub shrink_budget: usize,
    /// Test hook: panic on any input containing this needle, simulating
    /// a reintroduced compiler bug. The panic is raised *inside* the
    /// guarded region, so a working harness must catch, shrink, and
    /// report it like any real crash.
    pub inject_panic: Option<String>,
    /// With [`ExecBackend::Native`], every input that compiles is also
    /// *executed* on the native backend (seeded inputs, same deadline)
    /// inside the guarded region — so a native-executor panic on a
    /// fuzzed-but-valid program is captured and shrunk exactly like a
    /// compiler crash. Structured [`warp_native::NativeError`]s are
    /// totality kept, not crashes.
    pub backend: ExecBackend,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            cases: 100,
            seed: 1,
            compile: CompileOptions::default(),
            repro_dir: None,
            case_timeout: Duration::from_secs(5),
            max_cell_cycles: 2_000_000,
            max_source_bytes: 4 * 1024 * 1024,
            skew_max_events: 5_000_000,
            pipeline: true,
            shrink_budget: 2_000,
            inject_panic: None,
            backend: ExecBackend::default(),
        }
    }
}

/// The structured verdict for one fuzzed input. Everything except
/// [`FuzzVerdict::Crash`] is the compiler keeping its totality promise.
#[derive(Clone, Debug)]
pub enum FuzzVerdict {
    /// The input was a valid program and compiled to a module.
    Compiled,
    /// The input was rejected with diagnostics (including non-UTF-8
    /// inputs, which the `&str` pipeline boundary rejects up front).
    Rejected,
    /// A resource guard stopped the case: deadline, source-size cap,
    /// cell-cycle ceiling, or skew event budget.
    Budget,
    /// Timing arithmetic overflowed and was reported as
    /// [`CompileFailure::TimingOverflow`] instead of wrapping.
    Overflow,
    /// The compiler panicked. The payload is the panic message.
    Crash(String),
}

/// A caught, shrunk panic.
#[derive(Clone, Debug)]
pub struct CrashCase {
    /// Index in the fuzzed sequence.
    pub case_index: usize,
    /// Per-case seed (regenerates the input from the corpus).
    pub case_seed: u64,
    /// The original fuzzed input.
    pub input: Vec<u8>,
    /// The line-shrunk input that still crashes.
    pub shrunk: Vec<u8>,
    /// The panic message from the first crash.
    pub detail: String,
    /// Repro file, when a repro directory was configured.
    pub repro: Option<PathBuf>,
}

/// Aggregate result of [`run_fuzz`].
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases attempted.
    pub cases: usize,
    /// Inputs that compiled clean.
    pub compiled: usize,
    /// Inputs rejected with diagnostics.
    pub rejected: usize,
    /// Inputs stopped by a resource guard.
    pub budget: usize,
    /// Inputs stopped by checked timing arithmetic.
    pub overflow: usize,
    /// Panics caught, shrunk, and recorded.
    pub crashes: Vec<CrashCase>,
}

impl FuzzReport {
    /// `true` when the run is evidence of totality: no case panicked.
    pub fn clean(&self) -> bool {
        self.crashes.is_empty()
    }
}

impl fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fuzz: {} case(s) — {} compiled, {} rejected, {} budget, {} overflow, {} crash(es)",
            self.cases,
            self.compiled,
            self.rejected,
            self.budget,
            self.overflow,
            self.crashes.len(),
        )?;
        for c in &self.crashes {
            writeln!(
                f,
                "crash (case {}, seed {:#018x}): {}",
                c.case_index, c.case_seed, c.detail
            )?;
            match &c.repro {
                Some(p) => writeln!(f, "  shrunk repro: {}", p.display())?,
                None => writeln!(
                    f,
                    "  shrunk to ({} bytes):\n{}",
                    c.shrunk.len(),
                    String::from_utf8_lossy(&c.shrunk)
                )?,
            }
        }
        Ok(())
    }
}

/// Runs `opts.cases` mutated inputs through the guarded pipeline,
/// catching, shrinking, and recording every panic.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let sources: Vec<&str> = corpus::TABLE_7_1.iter().map(|(_, src)| *src).collect();
    let mutator = Mutator::new(&sources);
    let mut report = FuzzReport {
        cases: opts.cases,
        ..FuzzReport::default()
    };
    quiet_panics(|| {
        for i in 0..opts.cases {
            let case_seed = splitmix64(opts.seed.wrapping_add(i as u64));
            let input = mutator.case(&mut SplitMix64::new(case_seed));
            match check_case(&input, opts) {
                FuzzVerdict::Compiled => report.compiled += 1,
                FuzzVerdict::Rejected => report.rejected += 1,
                FuzzVerdict::Budget => report.budget += 1,
                FuzzVerdict::Overflow => report.overflow += 1,
                FuzzVerdict::Crash(detail) => {
                    let shrunk = shrink_lines(&input, opts.shrink_budget, |candidate| {
                        matches!(check_case(candidate, opts), FuzzVerdict::Crash(_))
                    });
                    let mut case = CrashCase {
                        case_index: i,
                        case_seed,
                        input: input.clone(),
                        shrunk,
                        detail,
                        repro: None,
                    };
                    if let Some(dir) = &opts.repro_dir {
                        match write_repro(dir, &case, opts) {
                            Ok(path) => case.repro = Some(path),
                            Err(e) => {
                                eprintln!("warning: could not write repro for case {i}: {e}");
                            }
                        }
                    }
                    report.crashes.push(case);
                }
            }
        }
    });
    report
}

/// Runs one input through the guarded pipeline under `catch_unwind`.
/// This is the exact predicate the crash shrinker uses, and the engine
/// behind the `tests/fuzz_regressions.rs` crasher corpus.
pub fn check_case(input: &[u8], opts: &FuzzOptions) -> FuzzVerdict {
    match panic::catch_unwind(AssertUnwindSafe(|| compile_input(input, opts))) {
        Ok(verdict) => verdict,
        Err(payload) => FuzzVerdict::Crash(panic_message(payload.as_ref())),
    }
}

/// The guarded region: injection hook, UTF-8 boundary, then a fully
/// budgeted [`Session`].
fn compile_input(input: &[u8], opts: &FuzzOptions) -> FuzzVerdict {
    if let Some(needle) = &opts.inject_panic {
        if !needle.is_empty() && contains(input, needle.as_bytes()) {
            panic!("injected fuzz panic: input contains `{needle}`");
        }
    }
    // The pipeline takes `&str`; non-UTF-8 bytes are rejected at this
    // boundary (as `w2c` rejects unreadable files), which is a
    // structured verdict, not a crash.
    let Ok(source) = std::str::from_utf8(input) else {
        return FuzzVerdict::Rejected;
    };
    let cancel = if opts.case_timeout.is_zero() {
        CancelToken::none()
    } else {
        let budget_us = u64::try_from(opts.case_timeout.as_micros()).unwrap_or(u64::MAX);
        CancelToken::with_deadline(Arc::new(SystemClock::new()), budget_us)
    };
    let session = Session::new(opts.compile.clone()).with_ctrl(SessionCtrl {
        cancel: cancel.clone(),
        skew_max_events: opts.skew_max_events,
        max_cell_cycles: opts.max_cell_cycles,
        max_source_bytes: opts.max_source_bytes,
        pipeline: opts.pipeline,
        backend: opts.backend,
        ..SessionCtrl::default()
    });
    match session.try_compile(source) {
        Ok(module) => {
            if opts.backend == ExecBackend::Native {
                // Drive the native executor on the compiled module —
                // still inside the caller's `catch_unwind`, so a panic
                // in table building or the dispatch loop is captured
                // and shrunk like any compiler crash. A structured
                // NativeError is the executor keeping its own totality
                // promise and needs no verdict of its own; only an
                // interruption is accounted as a budget stop.
                let owned = audit::seeded_inputs(&module, splitmix64(opts.seed));
                let inputs: Vec<(&str, &[f32])> = owned
                    .iter()
                    .map(|(n, d)| (n.as_str(), d.as_slice()))
                    .collect();
                let native_opts = warp_native::NativeOptions {
                    cancel,
                    ..warp_native::NativeOptions::default()
                };
                if let Err(crate::NativeRunError::Native(warp_native::NativeError::Interrupted(
                    _,
                ))) = module.run_native(&inputs, &native_opts)
                {
                    return FuzzVerdict::Budget;
                }
            }
            FuzzVerdict::Compiled
        }
        Err(CompileFailure::Diagnostics(_)) => FuzzVerdict::Rejected,
        Err(CompileFailure::TimingOverflow { .. }) => FuzzVerdict::Overflow,
        Err(CompileFailure::Interrupted { .. } | CompileFailure::TooLarge { .. }) => {
            FuzzVerdict::Budget
        }
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
}

/// Silences the default panic hook for panics on *this* thread while
/// `f` runs — a fuzz run catches hundreds of expected panics during
/// shrinking, and each would otherwise print a backtrace banner.
/// Panics on other threads still reach the previous hook.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let fuzz_thread = std::thread::current().id();
    let prev = Arc::new(panic::take_hook());
    let prev_for_hook = Arc::clone(&prev);
    panic::set_hook(Box::new(move |info| {
        if std::thread::current().id() != fuzz_thread {
            prev_for_hook(info);
        }
    }));
    let result = f();
    let _ = panic::take_hook();
    panic::set_hook(Box::new(move |info| prev(info)));
    result
}

/// Writes the shrunk crasher (with a header comment carrying the
/// replay commands) plus an `.orig.w2` sidecar with the unshrunk
/// input. Crashers are raw bytes — possibly invalid UTF-8 — so the
/// files are written byte-for-byte. Returns the repro path.
fn write_repro(dir: &Path, case: &CrashCase, opts: &FuzzOptions) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("fuzz-{:016x}", case.case_seed);
    let path = dir.join(format!("{stem}.w2"));
    let header = format!(
        "/* fuzz crash: {} */\n\
         /* reproduce: w2c {stem}.w2 */\n\
         /* found by: w2c --fuzz {} --seed {} (case {}) */\n",
        case.detail.replace("*/", "* /"),
        opts.cases,
        opts.seed,
        case.case_index,
    );
    let mut text = header.into_bytes();
    text.extend_from_slice(&case.shrunk);
    std::fs::write(&path, text)?;
    std::fs::write(dir.join(format!("{stem}.orig.w2")), &case.input)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> FuzzOptions {
        FuzzOptions {
            cases: 60,
            seed: 1,
            ..FuzzOptions::default()
        }
    }

    #[test]
    fn clean_compiler_survives_fuzzing_without_crashes() {
        let report = run_fuzz(&quick_opts());
        assert!(report.clean(), "{report}");
        assert_eq!(
            report.compiled + report.rejected + report.budget + report.overflow,
            report.cases,
            "{report}"
        );
        // The mutators must not degenerate into all-rejects: some
        // corpus mutations stay compilable.
        assert!(report.rejected > 0, "{report}");
    }

    #[test]
    fn verdict_counts_are_deterministic_in_the_seed() {
        let a = run_fuzz(&quick_opts());
        let b = run_fuzz(&quick_opts());
        assert_eq!(
            (a.compiled, a.rejected, a.budget, a.overflow),
            (b.compiled, b.rejected, b.budget, b.overflow)
        );
    }

    #[test]
    fn injected_panic_is_caught_shrunk_and_written_as_a_repro() {
        let dir = std::env::temp_dir().join(format!("warp-fuzz-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Nearly every mutated input still contains `cellprogram`, so
        // the injected bug fires often — the harness must catch every
        // one in-process, shrink it, and write a replayable file.
        let opts = FuzzOptions {
            cases: 10,
            inject_panic: Some("cellprogram".to_owned()),
            repro_dir: Some(dir.clone()),
            shrink_budget: 500,
            ..quick_opts()
        };
        let report = run_fuzz(&opts);
        assert!(!report.crashes.is_empty(), "{report}");
        let c = &report.crashes[0];
        assert!(c.detail.contains("injected fuzz panic"), "{}", c.detail);
        assert!(c.shrunk.len() <= c.input.len());
        assert!(
            contains(&c.shrunk, b"cellprogram"),
            "shrunk lost the trigger"
        );
        let repro = c.repro.as_ref().expect("repro written");
        let bytes = std::fs::read(repro).expect("repro readable");
        let text = String::from_utf8_lossy(&bytes);
        assert!(text.contains("reproduce: w2c fuzz-"), "{text}");
        assert!(text.contains("--fuzz"), "{text}");
        let stem = repro.file_stem().unwrap().to_string_lossy();
        let orig = repro.parent().unwrap().join(format!("{stem}.orig.w2"));
        assert_eq!(std::fs::read(orig).expect("sidecar readable"), c.input);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn native_backend_fuzzing_stays_clean() {
        // Every compiling input is also executed natively; the run must
        // stay crash-free, and the verdict counts must stay what they
        // were under compile-only fuzzing (native errors are structured,
        // so they never reclassify a compiled case).
        let sim_only = run_fuzz(&quick_opts());
        let report = run_fuzz(&FuzzOptions {
            backend: ExecBackend::Native,
            ..quick_opts()
        });
        assert!(report.clean(), "{report}");
        assert_eq!(report.compiled, sim_only.compiled, "{report}");
        assert!(report.compiled > 0, "{report}");
    }

    #[test]
    fn crasher_corpus_classes_get_structured_verdicts() {
        let opts = FuzzOptions::default();
        // Non-UTF-8: rejected at the boundary.
        let verdict = check_case(&[0xff, 0xfe, 0x00, 0x28], &opts);
        assert!(matches!(verdict, FuzzVerdict::Rejected), "{verdict:?}");
        // Deep nesting: the parser depth guard answers with
        // diagnostics, not a stack overflow.
        let mut deep = String::from("module m (x in) float x[1]; cellprogram (c : 0 : 0) begin function f begin float v; v := ");
        for _ in 0..10_000 {
            deep.push('(');
        }
        deep.push('x');
        let verdict = check_case(deep.as_bytes(), &opts);
        assert!(matches!(verdict, FuzzVerdict::Rejected), "{verdict:?}");
        // Oversized input: the source-size guard fires first.
        let huge = vec![b' '; 8 * 1024 * 1024];
        let verdict = check_case(
            &huge,
            &FuzzOptions {
                max_source_bytes: 1024,
                ..FuzzOptions::default()
            },
        );
        assert!(matches!(verdict, FuzzVerdict::Budget), "{verdict:?}");
    }
}
