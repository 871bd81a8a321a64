//! `differential`: one op is one three-way `differential::check_case`
//! (oracle, simulator, native) on a seed-derived generated program.
//!
//! This is the verification regime: thousands of ~100-cycle runs where
//! building executors and allocating dominate, the opposite of the
//! exec workloads' few long runs. It is the only workload through
//! `warp-oracle`.
//!
//! The case list comes from the seed alone; the compiler under test has
//! no say in what it is checked on. Every verdict other than `Agree` is
//! a failed op, with one documented exception. About one generated
//! program in two thousand makes the compiled code produce `-0.0` where
//! the oracle produces `0.0` (`w2c --differential 1000 --seed 1`, case
//! 465): a known compiler defect this benchmark neither fixes nor
//! hides. The benchmark driver needs workloads on which no op fails, on
//! any seed, so such a case is recognised by what it is, not by which
//! program it is: the harness runs the three executors again through
//! their public functions and treats signed zeros as equal; if nothing
//! else differs, the op counts as completed, the case is named on
//! stderr, and it is counted in `differential.mismatch` and
//! `differential.signed_zero`. At most [`KNOWN_DEFECT_CAP`] cases per
//! round are excused this way; a compiler change that multiplies them
//! fails the run.
//!
//! The traced pass cannot see inside `check_case`, so it runs the same
//! steps from their public parts with a span around each; the gate
//! checks that both give every case the same verdict.

use super::span;
use crate::harness::{Finish, RoundOut, SetupCtx, Workload};
use crate::items;
use crate::trace::Tracer;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use w2_lang::ast::{Chan, ParamDir};
use w2_lang::hir::HirModule;
use w2_lang::parse_and_check;
use warp_common::{splitmix64, CancelToken, SystemClock};
use warp_compiler::differential::{check_case, BackendSel, CaseOutcome, DiffOptions};
use warp_compiler::{audit, CompileFailure, NativeRunError, Session, SessionCtrl};
use warp_host::HostMemory;
use warp_native::{NativeError, NativeOptions};
use warp_oracle::GenConfig;
use warp_sim::{SimError, SimOptions};

/// Cases per round: about half a second of checks on the reference box.
const CASES: usize = 1500;

/// Signed-zero cases one round may excuse (1 % of the cases, more than
/// ten times today's rate); any beyond are failed ops.
const KNOWN_DEFECT_CAP: usize = CASES / 100;

struct Case {
    name: String,
    source: String,
    input_seed: u64,
}

/// What one case came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Agree,
    /// A mismatch in which only the sign of zeros differs.
    SignedZero,
    /// Any other mismatch, or an oracle error.
    Mismatch,
    Rejected,
    Budget,
}

pub struct DiffWorkload {
    cases: Vec<Case>,
    opts: DiffOptions,
    tracer: Tracer,
    /// Mean `warp_oracle::generate` time, seconds.
    gen_secs: f64,
    /// Verdict per case of the latest round through `check_case` and
    /// of the latest through the traced copy.
    plain: Vec<Verdict>,
    traced: Vec<Verdict>,
    /// The signed-zero cases have been named on stderr.
    named: bool,
}

/// Set-up of `differential`.
pub fn setup(ctx: &SetupCtx<'_>) -> Result<Box<dyn Workload>, String> {
    let opts = DiffOptions {
        backend: BackendSel::All,
        ..DiffOptions::default()
    };
    Ok(Box::new(DiffWorkload::new(ctx.seed, CASES, opts)))
}

impl DiffWorkload {
    /// The first `n` programs of the seed's stream, each with the input
    /// seed `w2c --differential` would give it.
    fn new(seed: u64, n: usize, opts: DiffOptions) -> DiffWorkload {
        let cfg = GenConfig::default();
        let mut rng = items::stream(seed, 0xD1FF);
        let t = Instant::now();
        let cases = (0..n)
            .map(|_| {
                let program_seed = rng.next_u64();
                Case {
                    name: format!("gen-{program_seed:016x}"),
                    source: warp_oracle::generate(program_seed, &cfg).source,
                    input_seed: splitmix64(program_seed),
                }
            })
            .collect();
        DiffWorkload {
            cases,
            opts,
            tracer: Tracer::new(),
            gen_secs: t.elapsed().as_secs_f64() / n.max(1) as f64,
            plain: Vec::new(),
            traced: Vec::new(),
            named: false,
        }
    }
}

fn describe(outcome: &CaseOutcome) -> String {
    match outcome {
        CaseOutcome::Agree => "agree".to_owned(),
        CaseOutcome::Rejected(d) => format!("rejected: {d}"),
        CaseOutcome::Budget(d) => format!("budget: {d}"),
        CaseOutcome::OracleError(d) => format!("oracle error: {d}"),
        CaseOutcome::Mismatch(d) => format!("mismatch: {d}"),
    }
}

/// One executor's observable output.
struct ExecOut {
    name: &'static str,
    host: HostMemory,
    streams: Vec<(Chan, Vec<f32>)>,
}

/// How two words are compared.
#[derive(Clone, Copy)]
enum Equality {
    Bitwise,
    /// Bitwise, except that `0.0` equals `-0.0`.
    ZeroSignBlind,
}

fn words_differ(a: &[f32], b: &[f32], eq: Equality) -> bool {
    a.len() != b.len()
        || a.iter().zip(b).any(|(x, y)| match eq {
            Equality::Bitwise => x.to_bits() != y.to_bits(),
            Equality::ZeroSignBlind => x.to_bits() != y.to_bits() && !(*x == 0.0 && *y == 0.0),
        })
}

/// Comparison of two executors: every `out` parameter, then every
/// boundary stream in send order.
fn divergence<'a>(hir: &HirModule, a: &'a ExecOut, b: &'a ExecOut, eq: Equality) -> Option<String> {
    for (var, dir) in &hir.params {
        if *dir != ParamDir::Out {
            continue;
        }
        let name = &hir.vars[*var].name;
        if words_differ(
            a.host.get(name).unwrap_or(&[]),
            b.host.get(name).unwrap_or(&[]),
            eq,
        ) {
            return Some(format!("out variable `{name}`: {} vs {}", a.name, b.name));
        }
    }
    let chans: BTreeSet<Chan> = a
        .streams
        .iter()
        .chain(&b.streams)
        .map(|(c, _)| *c)
        .collect();
    for chan in chans {
        let words = |o: &'a ExecOut| -> &'a [f32] {
            o.streams
                .iter()
                .find(|(c, _)| *c == chan)
                .map_or(&[], |(_, w)| w.as_slice())
        };
        if words_differ(words(a), words(b), eq) {
            return Some(format!("stream {chan:?}: {} vs {}", a.name, b.name));
        }
    }
    None
}

/// First pair of executors that diverge under `eq`.
fn first_divergence(hir: &HirModule, outs: &[ExecOut], eq: Equality) -> Option<String> {
    (0..outs.len())
        .flat_map(|i| (i + 1..outs.len()).map(move |j| (i, j)))
        .find_map(|(i, j)| divergence(hir, &outs[i], &outs[j], eq))
}

/// The steps of `check_case` up to the comparison, from public
/// functions, with a span around each call into a layer: compile, then
/// oracle, simulator and native on the same seeded inputs. `Err` is the
/// verdict of a case that did not get as far as three outputs.
fn three_way(
    t: &mut Tracer,
    case: &Case,
    opts: &DiffOptions,
) -> Result<(HirModule, Vec<ExecOut>), CaseOutcome> {
    let cancel = if opts.case_timeout.is_zero() {
        CancelToken::none()
    } else {
        let budget_us = u64::try_from(opts.case_timeout.as_micros()).unwrap_or(u64::MAX);
        CancelToken::with_deadline(Arc::new(SystemClock::new()), budget_us)
    };
    let mut copts = opts.compile.clone();
    copts.lower.reassociate = false;

    t.enter(span::COMPILE);
    let compiled = Session::with_observer(copts, t)
        .with_ctrl(SessionCtrl {
            cancel: cancel.clone(),
            max_cell_cycles: opts.max_cell_cycles,
            pipeline: opts.pipeline,
            ..SessionCtrl::default()
        })
        .try_compile(&case.source);
    t.exit();
    let module = match compiled {
        Ok(m) => m,
        Err(CompileFailure::Diagnostics(d)) => return Err(CaseOutcome::Rejected(d.to_string())),
        Err(budget) => return Err(CaseOutcome::Budget(budget.to_string())),
    };

    // The oracle interprets the HIR, so the front end runs again.
    let hir = t
        .span("frontend", || parse_and_check(&case.source))
        .map_err(|d| CaseOutcome::Rejected(d.to_string()))?;
    let owned = t.span(span::AUDIT_INPUTS, || {
        audit::seeded_inputs(&module, case.input_seed)
    });
    let inputs = items::as_slices(&owned);
    let bind = |t: &mut Tracer| {
        t.span(span::HOST_BIND, || {
            let mut host = HostMemory::new(&module.ir.vars);
            for (name, data) in &inputs {
                host.set(name, data).map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(host)
        })
    };

    let oracle_host = bind(t).map_err(CaseOutcome::OracleError)?;
    let oracle = t
        .span(span::ORACLE_INTERP, || {
            warp_oracle::interpret_run(&hir, &oracle_host)
        })
        .map_err(CaseOutcome::OracleError)?;
    let mut outs = vec![ExecOut {
        name: "oracle",
        host: oracle.host,
        streams: oracle.streams.into_iter().collect(),
    }];

    // `run_audited` binds its own host memory; the span covers both.
    let sim_opts = SimOptions {
        plan: opts.inject.clone().unwrap_or_default(),
        cancel: cancel.clone(),
        ..SimOptions::default()
    };
    let sim = t.span(span::SIM_RUN, || {
        module.run_audited(module.n_cells, module.skew.min_skew, &inputs, &sim_opts)
    });
    match sim {
        Ok(r) => outs.push(ExecOut {
            name: "simulator",
            host: r.host,
            streams: r.out_streams.into_iter().collect(),
        }),
        Err(fault) => {
            return Err(match fault.error {
                SimError::Interrupted { .. } => CaseOutcome::Budget(fault.error.to_string()),
                e => CaseOutcome::Mismatch(format!("simulator failed: {e}")),
            })
        }
    }

    let program = t.span(span::NATIVE_BUILD, || module.native_program());
    let native_host = bind(t).map_err(|e| CaseOutcome::Mismatch(format!("native failed: {e}")))?;
    let native_opts = NativeOptions {
        cancel,
        ..NativeOptions::default()
    };
    match t.span(span::NATIVE_RUN, || program.run(native_host, &native_opts)) {
        Ok(r) => outs.push(ExecOut {
            name: "native",
            host: r.host,
            streams: r.out_streams.into_iter().collect(),
        }),
        Err(NativeError::Interrupted(reason)) => {
            return Err(CaseOutcome::Budget(reason.to_string()))
        }
        Err(e) => {
            return Err(CaseOutcome::Mismatch(format!(
                "native failed: {}",
                NativeRunError::Native(e)
            )))
        }
    }
    Ok((hir, outs))
}

/// `check_case` with all three executors, step for step, traced.
fn check_case_traced(t: &mut Tracer, case: &Case, opts: &DiffOptions) -> CaseOutcome {
    let (hir, outs) = match three_way(t, case, opts) {
        Ok(ran) => ran,
        Err(verdict) => return verdict,
    };
    match t.span(span::DIFF_COMPARE, || {
        first_divergence(&hir, &outs, Equality::Bitwise)
    }) {
        Some(detail) => CaseOutcome::Mismatch(detail),
        None => CaseOutcome::Agree,
    }
}

/// Whether a mismatching case is the known defect: all three executors
/// run, and their outputs are equal once `0.0` and `-0.0` are.
fn only_signed_zeros_differ(case: &Case, opts: &DiffOptions) -> bool {
    match three_way(&mut Tracer::new(), case, opts) {
        Ok((hir, outs)) => first_divergence(&hir, &outs, Equality::ZeroSignBlind).is_none(),
        Err(_) => false,
    }
}

impl Workload for DiffWorkload {
    fn item_names(&self) -> Vec<String> {
        self.cases.iter().map(|c| c.name.clone()).collect()
    }

    fn round(&mut self, traced: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let mut total = 0u64;
        let mut verdicts = Vec::with_capacity(self.cases.len());
        let mut excused = 0usize;
        for (idx, case) in self.cases.iter().enumerate() {
            let (outcome, ns) = if traced {
                self.tracer.begin_op(idx as u32);
                let o = check_case_traced(&mut self.tracer, case, &self.opts);
                (o, self.tracer.end_op().as_nanos() as u64)
            } else {
                let t = Instant::now();
                let o = check_case(&case.source, case.input_seed, &self.opts);
                (o, t.elapsed().as_nanos() as u64)
            };
            total += ns;
            // Classifying a mismatch is the harness's work, untimed.
            let verdict = match &outcome {
                CaseOutcome::Agree => Verdict::Agree,
                CaseOutcome::Rejected(_) => Verdict::Rejected,
                CaseOutcome::Budget(_) => Verdict::Budget,
                CaseOutcome::Mismatch(_) if only_signed_zeros_differ(case, &self.opts) => {
                    Verdict::SignedZero
                }
                CaseOutcome::Mismatch(_) | CaseOutcome::OracleError(_) => Verdict::Mismatch,
            };
            verdicts.push(verdict);
            let known = verdict == Verdict::SignedZero && excused < KNOWN_DEFECT_CAP;
            if known {
                excused += 1;
                if !self.named {
                    eprintln!(
                        "differential: known signed-zero defect, not counted as failed: \
                         {} (input seed {:#018x}): {}",
                        case.name,
                        case.input_seed,
                        describe(&outcome)
                    );
                }
            }
            if known || verdict == Verdict::Agree {
                out.samples.push((idx as u32, ns));
            } else {
                out.fail(format!("{}: {}", case.name, describe(&outcome)));
            }
        }
        self.named = true;
        out.wall = Duration::from_nanos(total);
        if traced {
            out.spans.push(self.tracer.take_spans());
            self.traced = verdicts;
        } else {
            self.plain = verdicts;
        }
        out
    }

    fn finish(&mut self, fin: &mut Finish<'_>) {
        let count = |v: Verdict| self.plain.iter().filter(|x| **x == v).count() as f64;
        fin.set("differential.agree", count(Verdict::Agree));
        fin.set(
            "differential.mismatch",
            count(Verdict::Mismatch) + count(Verdict::SignedZero),
        );
        fin.set("differential.signed_zero", count(Verdict::SignedZero));
        fin.set("differential.rejected", count(Verdict::Rejected));
        fin.set("differential.budget", count(Verdict::Budget));
        if !fin.traced {
            return;
        }
        // The spans describe the traced copy; it must judge as the
        // shipped function does.
        let differs = self
            .plain
            .iter()
            .zip(&self.traced)
            .position(|(a, b)| a != b);
        fin.check(differs.map(|k| {
            format!(
                "{}: check_case says {:?}, its traced copy {:?}",
                self.cases[k].name, self.plain[k], self.traced[k]
            )
        }));
        super::report_pass_times(fin);
        super::report_call_us(fin, "warp-host.bind_us", span::HOST_BIND);
        super::report_call_us(fin, "warp-sim.tiny_run_us", span::SIM_RUN);
        super::report_call_us(fin, "warp-native.build_us", span::NATIVE_BUILD);
        super::report_call_us(fin, "warp-oracle.interp_us", span::ORACLE_INTERP);
        super::report_call_us(fin, "differential.compare_us", span::DIFF_COMPARE);
        fin.set("warp-oracle.gen_us", self.gen_secs * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_real_miscompare_is_a_failed_op_in_both_passes() {
        // A skew one cycle too small makes cells read words that have
        // not arrived: wrong values, not wrong signs of zero.
        let opts = DiffOptions {
            backend: BackendSel::All,
            inject: Some("skew=-1".parse().expect("valid fault plan")),
            ..DiffOptions::default()
        };
        let mut w = DiffWorkload::new(2, 12, opts);
        let plain = w.round(false);
        let traced = w.round(true);
        assert!(plain.failed > 0, "no case noticed the injected fault");
        assert_eq!(plain.failed, traced.failed);
        assert_eq!(w.plain, w.traced);
        assert!(!w.plain.contains(&Verdict::SignedZero));
        assert_eq!(
            plain.failed as usize,
            w.plain.iter().filter(|v| **v != Verdict::Agree).count()
        );
    }

    #[test]
    fn case_465_class_is_recognised_by_what_differs() {
        // One of the two signed-zero programs among seed 2's cases.
        // Vacuous once the compiler defect is fixed.
        let program_seed = 0x4163_af5c_100a_c474;
        let case = Case {
            name: "known".to_owned(),
            source: warp_oracle::generate(program_seed, &GenConfig::default()).source,
            input_seed: splitmix64(program_seed),
        };
        let opts = DiffOptions {
            backend: BackendSel::All,
            ..DiffOptions::default()
        };
        if let CaseOutcome::Mismatch(_) = check_case(&case.source, case.input_seed, &opts) {
            assert!(only_signed_zeros_differ(&case, &opts));
        }
    }

    #[test]
    fn only_the_sign_of_zero_is_excused() {
        let blind = Equality::ZeroSignBlind;
        assert!(words_differ(&[0.0], &[-0.0], Equality::Bitwise));
        assert!(!words_differ(&[0.0, 1.5], &[-0.0, 1.5], blind));
        assert!(words_differ(&[0.0], &[f32::MIN_POSITIVE], blind));
        assert!(words_differ(&[1.0], &[-1.0], blind));
        assert!(words_differ(&[0.0], &[0.0, 0.0], blind));
        let nan = f32::from_bits(0x7fc0_0001);
        assert!(words_differ(&[f32::NAN], &[nan], blind));
        assert!(!words_differ(&[nan], &[nan], blind));
    }
}
