//! The `GuaranteeAudit` pass: prove the compiler's static safety
//! claims hold — and that the simulator detects every way they can
//! break.
//!
//! The paper's central bargain (§6.2, §6.3.2) is *compiler-guaranteed,
//! runtime-unchecked*: the skew/queue analysis proves at compile time
//! that no queue under- or overflows and every IU address arrives on
//! time, so the hardware needs no interlocks. That bargain is only
//! honest if the claimed bounds are **tight** and the dynamic checks
//! that re-verify them actually fire. [`audit`] checks both directions
//! for one compiled module:
//!
//! * **Guarantee direction** — a nominal run at `min_skew` succeeds,
//!   and the observed queue high-water marks never exceed the claimed
//!   occupancy bounds.
//! * **Tightness direction** — one cycle less skew must fail, with a
//!   starvation error (`QueueUnderflow`/`AddressLate`), proving
//!   `min_skew` is minimal rather than merely sufficient.
//! * **Detection direction** — each class of injected fault
//!   ([`Fault`]) must be caught by the matching [`SimError`] variant;
//!   a silent value corruption must be observable differentially.
//!
//! [`audit_corpus`] runs the whole suite over size-scaled variants of
//! the paper's Table 7-1 corpus (scaled so CI finishes in seconds; the
//! timing structure is size-independent because W2 control flow is
//! static and conditionals are predicated).

use crate::{corpus, CompileOptions, CompiledModule, SessionCtrl};
use std::fmt;
use w2_lang::hir::VarKind;
use warp_common::DiagnosticBag;
use warp_host::HostWord;
use warp_sim::{splitmix64, Fault, FaultPlan, SimError, SimOptions};

/// Options for one audit.
#[derive(Clone, Debug)]
pub struct AuditOptions {
    /// Seed for the generated host inputs and corruption masks.
    /// Predicated execution makes cell timing data-independent, so any
    /// seed exercises the same schedule; the seed only varies values.
    pub seed: u64,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions { seed: 0x06A1_1D17 }
    }
}

/// The result of one named audit check.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Stable check name (e.g. `skew-tightness`, `detect:adr-delay`).
    pub name: &'static str,
    /// Whether the check passed (not-applicable checks pass).
    pub passed: bool,
    /// `true` when the check did not apply to this module (e.g. no IU
    /// addresses to delay) and was vacuously passed.
    pub skipped: bool,
    /// Human-readable evidence.
    pub detail: String,
}

impl CheckOutcome {
    fn pass(name: &'static str, detail: impl Into<String>) -> CheckOutcome {
        CheckOutcome {
            name,
            passed: true,
            skipped: false,
            detail: detail.into(),
        }
    }

    fn fail(name: &'static str, detail: impl Into<String>) -> CheckOutcome {
        CheckOutcome {
            name,
            passed: false,
            skipped: false,
            detail: detail.into(),
        }
    }

    fn skip(name: &'static str, detail: impl Into<String>) -> CheckOutcome {
        CheckOutcome {
            name,
            passed: true,
            skipped: true,
            detail: detail.into(),
        }
    }
}

/// The full audit result for one module.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Module name.
    pub module: String,
    /// Every check, in execution order.
    pub checks: Vec<CheckOutcome>,
}

impl AuditReport {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Counts of (passed, failed, skipped) checks.
    pub fn tally(&self) -> (usize, usize, usize) {
        let failed = self.checks.iter().filter(|c| !c.passed).count();
        let skipped = self.checks.iter().filter(|c| c.skipped).count();
        (self.checks.len() - failed - skipped, failed, skipped)
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (passed, failed, skipped) = self.tally();
        writeln!(
            f,
            "guarantee audit `{}`: {} — {passed} passed, {failed} failed, {skipped} n/a",
            self.module,
            if self.passed() { "PASS" } else { "FAIL" },
        )?;
        for c in &self.checks {
            writeln!(
                f,
                "  [{}] {:<22} {}",
                if !c.passed {
                    "FAIL"
                } else if c.skipped {
                    " n/a"
                } else {
                    "  ok"
                },
                c.name,
                c.detail
            )?;
        }
        Ok(())
    }
}

/// Deterministic host inputs for `module`, seeded by `seed`: every
/// array the host program feeds to the array gets values in
/// `[0.25, 1.25)` (bounded away from zero so corrupted words cannot
/// vanish in a multiplication).
pub fn seeded_inputs(module: &CompiledModule, seed: u64) -> Vec<(String, Vec<f32>)> {
    let mut input_vars: Vec<_> = module
        .host
        .inputs
        .values()
        .flat_map(|script| script.leaves())
        .filter_map(|w| match w {
            HostWord::Elem { var, .. } => Some(*var),
            HostWord::Lit(_) => None,
        })
        .collect();
    input_vars.sort();
    input_vars.dedup();
    input_vars
        .into_iter()
        .map(|var| {
            let info = &module.ir.vars[var];
            debug_assert_eq!(info.kind, VarKind::Host);
            let data = (0..info.size())
                .map(|k| {
                    let bits = splitmix64(seed ^ u64::from(var.0) << 32 ^ u64::from(k));
                    (bits >> 40) as f32 / (1u64 << 24) as f32 + 0.25
                })
                .collect();
            (info.name.clone(), data)
        })
        .collect()
}

/// Audits one compiled module. Never panics: every probe failure is
/// reported as a failing [`CheckOutcome`].
pub fn audit(module: &CompiledModule, opts: &AuditOptions) -> AuditReport {
    let owned = seeded_inputs(module, opts.seed);
    let inputs: Vec<(&str, &[f32])> = owned
        .iter()
        .map(|(n, d)| (n.as_str(), d.as_slice()))
        .collect();
    let claims = module.claims();
    let mut checks = Vec::new();

    let run_plan = |plan: FaultPlan| {
        module.run_audited(
            module.n_cells,
            module.skew.min_skew,
            &inputs,
            &SimOptions {
                plan,
                ring_capacity: 16,
                claims: Some(claims.clone()),
                ..SimOptions::default()
            },
        )
    };

    // Guarantee direction: the compiled parameters must run clean.
    let nominal = match run_plan(FaultPlan::new(opts.seed)) {
        Ok(report) => {
            checks.push(CheckOutcome::pass(
                "nominal",
                format!(
                    "min_skew {} runs clean in {} cycles",
                    module.skew.min_skew, report.cycles
                ),
            ));
            report
        }
        Err(fault) => {
            checks.push(CheckOutcome::fail(
                "nominal",
                format!("compiled parameters violate an invariant: {}", fault.error),
            ));
            // Every further check compares against the nominal run;
            // without one the audit cannot continue.
            return AuditReport {
                module: module.name.clone(),
                checks,
            };
        }
    };

    // Observed occupancy must respect (and ideally meet) the claims.
    let mut over = Vec::new();
    let mut evidence = Vec::new();
    for (chan, &claimed) in &claims.queue_occupancy {
        let observed = nominal.queue_high_water.get(chan).copied().unwrap_or(0);
        evidence.push(format!(
            "{chan:?} observed {observed}/{claimed}{}",
            if observed == claimed { " (tight)" } else { "" }
        ));
        if observed > claimed {
            over.push(format!("{chan:?} observed {observed} > claimed {claimed}"));
        }
    }
    checks.push(if over.is_empty() {
        CheckOutcome::pass("occupancy-bound", evidence.join(", "))
    } else {
        CheckOutcome::fail("occupancy-bound", over.join(", "))
    });

    // Tightness direction: one cycle less must starve something. A
    // degraded skew report carries a conservative (sound but not tight)
    // bound, so minimality cannot be asserted — skip, don't fail.
    checks.push(if module.skew.degraded {
        CheckOutcome::skip(
            "skew-tightness",
            "degraded skew: conservative bound is sound but not claimed tight".to_owned(),
        )
    } else if module.skew.min_skew == 0 || module.n_cells <= 1 {
        CheckOutcome::skip(
            "skew-tightness",
            "no positive inter-cell skew to undercut".to_owned(),
        )
    } else {
        match run_plan(FaultPlan::new(opts.seed).with(Fault::SkewDelta(-1))) {
            Err(fault)
                if matches!(
                    fault.error,
                    SimError::QueueUnderflow { .. } | SimError::AddressLate { .. }
                ) =>
            {
                CheckOutcome::pass(
                    "skew-tightness",
                    format!("min_skew - 1 starves the array: {}", fault.error),
                )
            }
            Err(fault) => CheckOutcome::fail(
                "skew-tightness",
                format!(
                    "min_skew - 1 failed, but not by starvation: {}",
                    fault.error
                ),
            ),
            Ok(_) => CheckOutcome::fail(
                "skew-tightness",
                "min_skew - 1 ran clean: the claimed skew is not minimal".to_owned(),
            ),
        }
    });

    // Detection direction: each fault class must trip its matching
    // SimError variant.
    let expect =
        |name: &'static str, plan: FaultPlan, ok: &dyn Fn(&SimError) -> bool, want: &str| {
            match run_plan(plan) {
                Err(fault) if ok(&fault.error) => {
                    CheckOutcome::pass(name, format!("detected: {}", fault.error))
                }
                Err(fault) => CheckOutcome::fail(
                    name,
                    format!(
                        "tripped the wrong invariant (wanted {want}): {}",
                        fault.error
                    ),
                ),
                Ok(_) => CheckOutcome::fail(name, format!("ran clean; {want} was not detected")),
            }
        };

    let max_high_water = nominal
        .queue_high_water
        .values()
        .copied()
        .max()
        .unwrap_or(0);
    checks.push(if max_high_water == 0 {
        CheckOutcome::skip(
            "detect:queue-shrink",
            "no interior queue traffic to overflow".to_owned(),
        )
    } else {
        // A queue one word smaller than the observed peak, plus extra
        // skew so the producer runs ahead, must overflow.
        let cap = u32::try_from(max_high_water - 1).unwrap_or(u32::MAX);
        expect(
            "detect:queue-shrink",
            FaultPlan::new(opts.seed)
                .with(Fault::QueueCapacity(cap))
                .with(Fault::SkewDelta(i64::from(module.machine.queue_capacity))),
            &|e| matches!(e, SimError::QueueOverflow { .. }),
            "QueueOverflow",
        )
    });

    let has_addresses = !module.iu.emissions().is_empty();
    checks.push(if !has_addresses {
        CheckOutcome::skip(
            "detect:adr-delay",
            "program uses no IU addresses".to_owned(),
        )
    } else {
        expect(
            "detect:adr-delay",
            FaultPlan::new(opts.seed).with(Fault::DelayAddresses {
                cell: None,
                cycles: 1 << 30,
            }),
            &|e| matches!(e, SimError::AddressLate { .. }),
            "AddressLate",
        )
    });
    checks.push(if !has_addresses {
        CheckOutcome::skip(
            "detect:adr-corrupt",
            "program uses no IU addresses".to_owned(),
        )
    } else {
        expect(
            "detect:adr-corrupt",
            FaultPlan::new(opts.seed).with(Fault::CorruptAddress {
                cell: None,
                index: 0,
                addr: module.machine.memory_words,
            }),
            &|e| matches!(e, SimError::BadAddress { .. }),
            "BadAddress",
        )
    });

    let input_chan = module
        .host
        .inputs
        .iter()
        .find(|(_, words)| !words.is_empty())
        .map(|(chan, words)| (*chan, words.len()));
    checks.push(match input_chan {
        None => CheckOutcome::skip(
            "detect:input-truncate",
            "host supplies no input words".to_owned(),
        ),
        Some((chan, len)) => expect(
            "detect:input-truncate",
            FaultPlan::new(opts.seed).with(Fault::TruncateInput {
                chan,
                keep: len - 1,
            }),
            &|e| {
                matches!(
                    e,
                    SimError::QueueUnderflow { cell: 0, .. } | SimError::Hang { .. }
                )
            },
            "QueueUnderflow at the boundary cell",
        ),
    });

    // The first word sent on the output-bearing channel is live: it
    // either feeds a downstream cell or is the first host result.
    let is_bound = |w: &HostWord| matches!(w, HostWord::Elem { .. });
    let output_chan = module
        .host
        .outputs
        .iter()
        .find(|(_, sinks)| sinks.leaves().into_iter().any(is_bound))
        .map(|(chan, _)| *chan);
    checks.push(match output_chan {
        None => CheckOutcome::skip(
            "detect:word-drop",
            "module produces no host outputs".to_owned(),
        ),
        Some(chan) => expect(
            "detect:word-drop",
            FaultPlan::new(opts.seed).with(Fault::DropWord { chan, index: 0 }),
            &|e| {
                matches!(
                    e,
                    SimError::QueueUnderflow { .. } | SimError::OutputCountMismatch { .. }
                )
            },
            "QueueUnderflow or OutputCountMismatch",
        ),
    });

    // A corrupted value violates no machine invariant; it must be
    // caught differentially against the clean run. Word 0 can land in
    // a deliberately discarded warm-up prefix (conv1d pads its first
    // taps-1 partial sums), so target the globally *last* word on the
    // output channel: cells are homogeneous, so each sends
    // `outputs[chan].len()` words on `chan`, and the final cell — which
    // finishes last — commits the final one, bound to the last output
    // element.
    let corrupt_target = module
        .host
        .outputs
        .iter()
        // The last leaf of the nest is the last word it transfers.
        .find(|(_, sinks)| sinks.leaves().last().is_some_and(|w| is_bound(w)))
        .map(|(chan, sinks)| (*chan, u64::from(module.n_cells) * sinks.len() as u64 - 1));
    checks.push(match corrupt_target {
        None => CheckOutcome::skip(
            "detect:word-corrupt",
            "no output channel ends in a host-bound word".to_owned(),
        ),
        Some((chan, index)) => {
            match run_plan(FaultPlan::new(opts.seed).with(Fault::CorruptWord { chan, index })) {
                Err(fault) => CheckOutcome::pass(
                    "detect:word-corrupt",
                    format!("corruption tripped an invariant: {}", fault.error),
                ),
                Ok(corrupted) => {
                    let differs = module.ir.vars.iter().any(|(_, v)| {
                        v.kind == VarKind::Host
                            && match (nominal.host.get(&v.name), corrupted.host.get(&v.name)) {
                                (Ok(a), Ok(b)) => {
                                    a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
                                }
                                _ => false,
                            }
                    });
                    if differs {
                        CheckOutcome::pass(
                            "detect:word-corrupt",
                            format!("corrupted {chan:?} word {index} visible in the output"),
                        )
                    } else {
                        CheckOutcome::fail(
                            "detect:word-corrupt",
                            format!("corrupted {chan:?} word {index} escaped undetected"),
                        )
                    }
                }
            }
        }
    });

    checks.push(expect(
        "detect:flow-flip",
        FaultPlan::new(opts.seed).with(Fault::FlipFlow),
        &|e| matches!(e, SimError::WrongDirection { .. }),
        "WrongDirection",
    ));

    checks.push(expect(
        "detect:hang",
        FaultPlan::new(opts.seed).with(Fault::CycleBudget(nominal.cycles.saturating_sub(2).max(1))),
        &|e| matches!(e, SimError::Hang { .. }),
        "Hang",
    ));

    // A bad host binding must surface as SimError::Host with the
    // underlying HostError reachable through the source() chain.
    checks.push({
        let name = "detect:host-binding";
        let bad_len = owned
            .first()
            .map(|(n, d)| (n.clone(), vec![0.0f32; d.len() + 1]));
        match bad_len {
            None => CheckOutcome::skip(name, "module takes no host inputs".to_owned()),
            Some((var, data)) => {
                let bad: Vec<(&str, &[f32])> = vec![(var.as_str(), data.as_slice())];
                match module.run_audited(
                    module.n_cells,
                    module.skew.min_skew,
                    &bad,
                    &SimOptions::default(),
                ) {
                    Err(fault) if matches!(fault.error, SimError::Host(_)) => {
                        let chained = std::error::Error::source(&fault.error).is_some();
                        if chained {
                            CheckOutcome::pass(
                                name,
                                format!("rejected with source chain intact: {}", fault.error),
                            )
                        } else {
                            CheckOutcome::fail(name, "Host error lost its source".to_owned())
                        }
                    }
                    Err(fault) => CheckOutcome::fail(
                        name,
                        format!("wrong error for a bad binding: {}", fault.error),
                    ),
                    Ok(_) => CheckOutcome::fail(
                        name,
                        "over-long input bound without complaint".to_owned(),
                    ),
                }
            }
        }
    });

    AuditReport {
        module: module.name.clone(),
        checks,
    }
}

/// Compiles and audits the scaled audit corpus
/// ([`corpus::audit_corpus`]) under the caller's options and pipeline
/// policy. Compilation failures are reported per program; one broken
/// program never aborts the batch.
pub fn audit_corpus(
    opts: &AuditOptions,
    compile_opts: &CompileOptions,
    ctrl: &SessionCtrl,
) -> Vec<(&'static str, Result<AuditReport, DiagnosticBag>)> {
    let programs = corpus::audit_corpus();
    let sources: Vec<&str> = programs.iter().map(|(_, src)| src.as_str()).collect();
    let compiled = crate::service::compile_batch(&sources, compile_opts, ctrl).into_results();
    programs
        .iter()
        .zip(compiled)
        .map(|((name, _), result)| (*name, result.map(|m| audit(&m, opts))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn audit_passes_on_a_pipeline_program() {
        let m = compile(&corpus::polynomial_source(3, 8), &CompileOptions::default())
            .expect("compiles");
        let report = audit(&m, &AuditOptions::default());
        assert!(report.passed(), "{report}");
        // A multi-cell program with positive skew exercises the full
        // check suite: nothing but structural n/a skips.
        let ran: Vec<_> = report
            .checks
            .iter()
            .filter(|c| !c.skipped)
            .map(|c| c.name)
            .collect();
        assert!(ran.contains(&"skew-tightness"), "{ran:?}");
        assert!(ran.contains(&"detect:word-corrupt"), "{ran:?}");
        assert!(ran.len() >= 8, "{ran:?}");
    }

    #[test]
    fn audit_passes_on_a_single_cell_program() {
        let m = compile(&corpus::mandelbrot_source(4, 2), &CompileOptions::default())
            .expect("compiles");
        let report = audit(&m, &AuditOptions::default());
        assert!(report.passed(), "{report}");
        let skipped: Vec<_> = report
            .checks
            .iter()
            .filter(|c| c.skipped)
            .map(|c| c.name)
            .collect();
        assert!(
            skipped.contains(&"skew-tightness"),
            "single cell has no skew to undercut: {skipped:?}"
        );
    }

    #[test]
    fn audit_report_renders_every_check() {
        let m = compile(&corpus::binop_source(4, 4), &CompileOptions::default()).expect("compiles");
        let report = audit(&m, &AuditOptions::default());
        let text = report.to_string();
        for c in &report.checks {
            assert!(text.contains(c.name), "{text}");
        }
        assert!(text.contains("PASS") || text.contains("FAIL"));
    }

    #[test]
    fn seeded_inputs_cover_every_host_input() {
        let m = compile(corpus::POLYNOMIAL, &CompileOptions::default()).expect("compiles");
        let inputs = seeded_inputs(&m, 1);
        let names: Vec<_> = inputs.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"z") && names.contains(&"c"), "{names:?}");
        assert!(!names.contains(&"results"), "outputs are not bound");
        for (_, data) in &inputs {
            assert!(data.iter().all(|v| (0.25..1.25).contains(v)));
        }
        // Deterministic per seed, different across seeds.
        assert_eq!(inputs, seeded_inputs(&m, 1));
        assert_ne!(inputs, seeded_inputs(&m, 2));
    }
}
