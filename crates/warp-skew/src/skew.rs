//! The skew and queue analysis driver.
//!
//! Given compiled cell code, this module determines:
//!
//! * the **flow direction** of the (unidirectional) program,
//! * the **minimum skew** between adjacent cells — exactly (by the
//!   loop-nest engine of [`crate::nest`]) or analytically (closed-form
//!   bounds, §6.2.1),
//! * the **queue occupancy bound** per channel at that skew, rejecting
//!   programs that overflow the 128-word queues (§6.2.2),
//! * the matching of send and receive counts per channel.

use crate::nest::{Meter, Nests};
use crate::vectors::{extract, min_skew_bound, occupancy_bound, TimingOverflow};
use std::collections::BTreeMap;
use w2_lang::ast::{Chan, Dir};
use warp_cell::CellCode;
use warp_common::{CancelToken, Diagnostic, DiagnosticBag, IdVec};
use warp_ir::affine::LoopId;
use warp_ir::region::LoopMeta;

/// Why [`analyze`] could not produce a report.
///
/// Ordinary program errors (bidirectional flow, count mismatches, queue
/// overflow, cancellation) arrive as diagnostics; arithmetic overflow in
/// the timing computation is a distinct class so callers can report it
/// as a structured `TimingOverflow` compile failure rather than a
/// generic diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub enum SkewError {
    /// Program-level errors, rendered as diagnostics.
    Diagnostics(DiagnosticBag),
    /// The exact rational timing arithmetic left `i128` range.
    Overflow(TimingOverflow),
}

impl std::fmt::Display for SkewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkewError::Diagnostics(d) => d.fmt(f),
            SkewError::Overflow(o) => o.fmt(f),
        }
    }
}

impl std::error::Error for SkewError {}

impl From<DiagnosticBag> for SkewError {
    fn from(d: DiagnosticBag) -> SkewError {
        SkewError::Diagnostics(d)
    }
}

impl From<TimingOverflow> for SkewError {
    fn from(o: TimingOverflow) -> SkewError {
        SkewError::Overflow(o)
    }
}

impl SkewError {
    /// Renders the error as a diagnostic bag regardless of class.
    pub fn into_diagnostics(self) -> DiagnosticBag {
        match self {
            SkewError::Diagnostics(d) => d,
            SkewError::Overflow(o) => {
                let mut bag = DiagnosticBag::new();
                bag.push(Diagnostic::error_global(o.to_string()));
                bag
            }
        }
    }
}

/// How to compute the minimum skew.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SkewMethod {
    /// Pair every send with its receive over the loop nest (exact; cost
    /// follows the program text where the send and receive nests are
    /// similar, the dynamic operation count where they are not).
    #[default]
    Exact,
    /// The paper's closed-form bound over statement pairs (sound, may
    /// exceed the exact skew by a little; constant in the loop counts).
    Analytic,
}

/// Options for [`analyze`].
#[derive(Clone, Debug, PartialEq)]
pub struct SkewOptions {
    /// Skew computation method.
    pub method: SkewMethod,
    /// Queue capacity in words (128 on the real Warp).
    pub queue_capacity: u64,
    /// Number of cells the program will run on. Send/receive counts must
    /// match per channel only when the array has interior queues
    /// (`n_cells > 1`).
    pub n_cells: u32,
    /// Cancellation handle polled every 4096 steps of the exact engine;
    /// the inert default never fires.
    pub cancel: CancelToken,
    /// Budget on the program's dynamic I/O events (`0` = unlimited),
    /// compared with their static total before the exact engine runs.
    /// Over budget, the analysis degrades gracefully to the closed-form
    /// skew and occupancy bounds and marks the report
    /// [`SkewReport::degraded`].
    pub max_events: u64,
}

impl Default for SkewOptions {
    fn default() -> SkewOptions {
        SkewOptions {
            method: SkewMethod::Exact,
            queue_capacity: 128,
            n_cells: 2,
            cancel: CancelToken::none(),
            max_events: 0,
        }
    }
}

/// The result of the skew analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct SkewReport {
    /// Data flow direction (`Right` = towards higher cell numbers).
    pub flow: Dir,
    /// Minimum cycles between adjacent cells' program starts.
    pub min_skew: i64,
    /// Maximum queue occupancy per channel at `min_skew`.
    pub queue_occupancy: BTreeMap<Chan, u64>,
    /// Words transferred per channel between adjacent cells.
    pub words_per_channel: BTreeMap<Chan, u64>,
    /// Program span of one cell in cycles.
    pub span: u64,
    /// `true` when the program exceeded the event budget and the
    /// skew/occupancy figures are the conservative closed-form bounds —
    /// sound (the program still runs correctly at this skew) but not
    /// tight.
    pub degraded: bool,
}

impl SkewReport {
    /// Latency until the last cell of an `n_cells` array starts.
    pub fn pipeline_fill(&self, n_cells: u32) -> u64 {
        self.min_skew.max(0) as u64 * u64::from(n_cells.saturating_sub(1))
    }

    /// Total cycles until the last cell finishes one program execution.
    pub fn array_span(&self, n_cells: u32) -> u64 {
        self.pipeline_fill(n_cells) + self.span
    }
}

impl std::fmt::Display for SkewReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.degraded {
            " (degraded: conservative bounds)"
        } else {
            ""
        };
        writeln!(f, "skew report: flow {:?}{tag}", self.flow)?;
        writeln!(f, "  min skew : {} cycle(s)", self.min_skew)?;
        writeln!(f, "  cell span: {} cycle(s)", self.span)?;
        for (chan, occ) in &self.queue_occupancy {
            writeln!(
                f,
                "  {chan:?}: max occupancy {occ} word(s), {} word(s) transferred",
                self.words_per_channel.get(chan).copied().unwrap_or(0)
            )?;
        }
        Ok(())
    }
}

impl warp_common::Artifact for SkewReport {
    fn kind(&self) -> &'static str {
        "skew-report"
    }

    fn dump(&self) -> String {
        self.to_string()
    }
}

/// Analyzes `code` and computes the skew report.
///
/// The flow direction and send/receive counts come from the *static*
/// timing functions, and so does the check of the event budget
/// ([`SkewOptions::max_events`]). A program over budget degrades
/// gracefully: the closed-form skew bound and the conservative occupancy
/// bound stand in for the exact figures and the report is marked
/// [`SkewReport::degraded`].
///
/// # Errors
///
/// Reports diagnostics when send/receive counts differ on a channel
/// (queues would drift), when the program is not unidirectional, when
/// the queue bound exceeds the capacity (paper §6.2.2 — overflow is
/// "detected and reported"), or when [`SkewOptions::cancel`] trips
/// mid-analysis. Returns [`SkewError::Overflow`] when the timing
/// arithmetic leaves its range.
///
/// `loops` is not read: the nest engine needs trip counts, which the
/// code regions carry, not index values.
pub fn analyze(
    code: &CellCode,
    _loops: &IdVec<LoopId, LoopMeta>,
    opts: &SkewOptions,
) -> Result<SkewReport, SkewError> {
    let mut diags = DiagnosticBag::new();
    let stmts = extract(code);

    // Determine flow direction from the static statements present.
    let sends_right = stmts.iter().any(|s| !s.is_recv && s.dir == Dir::Right);
    let sends_left = stmts.iter().any(|s| !s.is_recv && s.dir == Dir::Left);
    let recvs_left = stmts.iter().any(|s| s.is_recv && s.dir == Dir::Left);
    let recvs_right = stmts.iter().any(|s| s.is_recv && s.dir == Dir::Right);
    let flow = match (sends_right || recvs_left, sends_left || recvs_right) {
        (_, false) => Dir::Right,
        (false, true) => Dir::Left,
        (true, true) => {
            diags.push(Diagnostic::error_global(
                "program is bidirectional: the scheduler only supports unidirectional data flow \
                 (paper §5.1.1)",
            ));
            return Err(diags.into());
        }
    };

    // Send/receive counts must match per channel: all cells run the same
    // program, so any imbalance drifts the queues without bound.
    let mut words = BTreeMap::new();
    let mut events = 0u64;
    for chan in [Chan::X, Chan::Y] {
        let count = |is_recv: bool, dir: Dir| -> Result<u64, TimingOverflow> {
            let mut total = 0i128;
            for s in stmts
                .iter()
                .filter(|s| s.is_recv == is_recv && s.dir == dir && s.chan == chan)
            {
                total = total
                    .checked_add(s.tf.count()?.max(0))
                    .ok_or(TimingOverflow {
                        context: "channel word count",
                    })?;
            }
            u64::try_from(total).map_err(|_| TimingOverflow {
                context: "channel word count",
            })
        };
        let n_out = count(false, flow)?;
        let n_in = count(true, flow.opposite())?;
        if n_out != n_in && opts.n_cells > 1 {
            diags.push(Diagnostic::error_global(format!(
                "channel {chan:?}: {n_out} send(s) but {n_in} receive(s); counts must match \
                 (see the coefficient-passing idiom of Figure 4-1)"
            )));
        }
        if n_out > 0 {
            words.insert(chan, n_out);
        }
        // Unidirectional: these two lanes are all the channel's events.
        events = n_out
            .checked_add(n_in)
            .and_then(|n| events.checked_add(n))
            .ok_or(TimingOverflow {
                context: "dynamic event count",
            })?;
    }
    if diags.has_errors() {
        return Err(diags.into());
    }

    let span = code.dynamic_len();

    // A single-cell array has no interior queues: no skew to compute
    // and nothing to overflow (the boundary streams are paced by the
    // host and IU, paper §2.2).
    if opts.n_cells <= 1 {
        return Ok(SkewReport {
            flow,
            min_skew: 0,
            queue_occupancy: BTreeMap::new(),
            words_per_channel: words,
            span,
            degraded: false,
        });
    }

    // Even the Analytic skew method takes its occupancy from the exact
    // engine, so the budget applies to both methods.
    let degraded = opts.max_events != 0 && events > opts.max_events;
    let (min_skew, queue_occupancy) = if degraded {
        let min_skew = min_skew_bound(&stmts, flow)?;
        (min_skew, occupancy_bound(&stmts, flow, min_skew)?)
    } else {
        let nests = Nests::build(code, flow)?;
        let mut meter = Meter::new(opts.cancel.clone());
        let min_skew = match opts.method {
            SkewMethod::Exact => nests.min_skew(&mut meter)?,
            SkewMethod::Analytic => min_skew_bound(&stmts, flow)?,
        };
        (min_skew, nests.max_queue_occupancy(min_skew, &mut meter)?)
    };

    for (chan, &occ) in &queue_occupancy {
        if occ > opts.queue_capacity {
            diags.push(Diagnostic::error_global(format!(
                "queue overflow on channel {chan:?}: occupancy bound {occ} exceeds the \
                 {}-word queue (paper §6.2.2)",
                opts.queue_capacity
            )));
        }
    }
    if diags.has_errors() {
        return Err(diags.into());
    }

    Ok(SkewReport {
        flow,
        min_skew,
        queue_occupancy,
        words_per_channel: words,
        span,
        degraded,
    })
}

/// Latency comparison between the skewed computation model and the SIMD
/// model (paper §3, Figure 3-1).
///
/// In the SIMD model every cell executes the same step in the same
/// cycle, so a result is not available to the next cell until the whole
/// stage has run: the per-cell latency is the stage span. In the skewed
/// model it is the minimum skew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelComparison {
    /// Per-cell latency in the skewed model (= minimum skew).
    pub skewed_latency: i64,
    /// Per-cell latency in the SIMD model (= stage span).
    pub simd_latency: u64,
}

impl ModelComparison {
    /// Computes the comparison for a single-stage program (`loops`, as
    /// in [`analyze`], is not read).
    ///
    /// # Panics
    ///
    /// When the stage's span leaves `u64`.
    pub fn of(code: &CellCode, _loops: &IdVec<LoopId, LoopMeta>, flow: Dir) -> ModelComparison {
        let nests = Nests::build(code, flow).expect("a stage's cycles fit u64");
        let skewed_latency = nests
            .min_skew(&mut Meter::new(CancelToken::none()))
            .expect("the token is inert and the cycles fit");
        ModelComparison {
            skewed_latency,
            simd_latency: nests.span,
        }
    }

    /// Latency for a result to traverse `n_cells` cells in the skewed
    /// model.
    pub fn skewed_array_latency(&self, n_cells: u32) -> i64 {
        self.skewed_latency * i64::from(n_cells)
    }

    /// Latency for a result to traverse `n_cells` cells in the SIMD
    /// model.
    pub fn simd_array_latency(&self, n_cells: u32) -> u64 {
        self.simd_latency * u64::from(n_cells)
    }
}

// Wire codec impls so skew reports persist inside `CompiledModule`
// artifacts. Field order is on-disk format; changing it requires a
// store schema-version bump.
warp_common::wire_struct!(SkewReport {
    flow,
    min_skew,
    queue_occupancy,
    words_per_channel,
    span,
    degraded,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{block, fig_3_1_stage, fig_6_2_code, fig_6_4_code, paper_loops};
    use warp_cell::CodeRegion;

    #[test]
    fn analyze_figure_6_2() {
        let r = analyze(&fig_6_2_code(), &paper_loops(), &SkewOptions::default()).unwrap();
        assert_eq!(r.flow, Dir::Right);
        assert_eq!(r.min_skew, 3);
        assert_eq!(r.span, 6);
        assert_eq!(r.words_per_channel[&Chan::X], 2);
        assert_eq!(r.pipeline_fill(2), 3);
        assert_eq!(r.array_span(2), 9); // Figure 6-3: cell 2 ends at cycle 8.
    }

    #[test]
    fn analyze_figure_6_4_exact_vs_analytic() {
        let exact = analyze(&fig_6_4_code(), &paper_loops(), &SkewOptions::default()).unwrap();
        assert_eq!(exact.min_skew, 18);
        let analytic = analyze(
            &fig_6_4_code(),
            &paper_loops(),
            &SkewOptions {
                method: SkewMethod::Analytic,
                ..SkewOptions::default()
            },
        )
        .unwrap();
        assert!(analytic.min_skew >= exact.min_skew);
        assert!(analytic.min_skew <= exact.min_skew + 1);
    }

    #[test]
    fn count_mismatch_rejected() {
        let code = warp_cell::CellCode {
            name: "bad".into(),
            pipelined: vec![],
            regions: vec![block(
                3,
                vec![
                    (0, Dir::Left, Chan::X, true),
                    (1, Dir::Right, Chan::X, false),
                    (2, Dir::Right, Chan::X, false),
                ],
            )],
            regs_used: 0,
            scratch_words: 0,
        };
        let err = analyze(&code, &paper_loops(), &SkewOptions::default()).unwrap_err();
        assert!(err.to_string().contains("counts must match"), "{err}");
    }

    #[test]
    fn bidirectional_rejected() {
        let code = warp_cell::CellCode {
            name: "bidi".into(),
            pipelined: vec![],
            regions: vec![block(
                2,
                vec![
                    (0, Dir::Right, Chan::X, false),
                    (1, Dir::Left, Chan::Y, false),
                ],
            )],
            regs_used: 0,
            scratch_words: 0,
        };
        let err = analyze(&code, &paper_loops(), &SkewOptions::default()).unwrap_err();
        assert!(err.to_string().contains("bidirectional"), "{err}");
    }

    #[test]
    fn right_to_left_flow_supported() {
        let code = warp_cell::CellCode {
            name: "r2l".into(),
            pipelined: vec![],
            regions: vec![block(
                4,
                vec![
                    (0, Dir::Left, Chan::X, false),
                    (2, Dir::Right, Chan::X, true),
                ],
            )],
            regs_used: 0,
            scratch_words: 0,
        };
        let r = analyze(&code, &paper_loops(), &SkewOptions::default()).unwrap();
        assert_eq!(r.flow, Dir::Left);
        assert_eq!(r.min_skew, 0); // send@0 before recv@2: no delay needed
    }

    #[test]
    fn queue_overflow_reported() {
        // A long burst of sends before the first receive overflows a
        // tiny queue.
        let body = block(2, vec![(0, Dir::Right, Chan::X, false)]);
        let tail = CodeRegion::Loop {
            id: warp_ir::LoopId(1),
            count: 10,
            body: vec![block(1, vec![(0, Dir::Left, Chan::X, true)])],
        };
        let code = warp_cell::CellCode {
            name: "burst".into(),
            pipelined: vec![],
            regions: vec![
                CodeRegion::Loop {
                    id: warp_ir::LoopId(0),
                    count: 10,
                    body: vec![body],
                },
                tail,
            ],
            regs_used: 0,
            scratch_words: 0,
        };
        let err = analyze(
            &code,
            &paper_loops(),
            &SkewOptions {
                queue_capacity: 4,
                ..SkewOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("queue overflow"), "{err}");
        // With the real 128-word queue the program is fine.
        analyze(&code, &paper_loops(), &SkewOptions::default()).unwrap();
    }

    #[test]
    fn budget_exhaustion_degrades_to_sound_bounds() {
        let exact = analyze(&fig_6_4_code(), &paper_loops(), &SkewOptions::default()).unwrap();
        assert!(!exact.degraded);
        let degraded = analyze(
            &fig_6_4_code(),
            &paper_loops(),
            &SkewOptions {
                max_events: 3, // far below the 20 dynamic I/O events
                ..SkewOptions::default()
            },
        )
        .unwrap();
        assert!(degraded.degraded);
        assert!(
            degraded.min_skew >= exact.min_skew,
            "conservative skew {} must cover exact {}",
            degraded.min_skew,
            exact.min_skew
        );
        for (chan, &occ) in &exact.queue_occupancy {
            assert!(degraded.queue_occupancy[chan] >= occ);
        }
        // Flow, word counts and span are static facts: identical.
        assert_eq!(degraded.flow, exact.flow);
        assert_eq!(degraded.words_per_channel, exact.words_per_channel);
        assert_eq!(degraded.span, exact.span);
        assert!(degraded.to_string().contains("degraded"));
    }

    /// `first` iterations receiving `recvs_per_iter` words each, then
    /// `second` iterations sending one.
    fn recv_then_send(first: u64, recvs_per_iter: u32, second: u64) -> warp_cell::CellCode {
        let recvs = (0..recvs_per_iter).map(|c| (c, Dir::Left, Chan::X, true));
        warp_cell::CellCode {
            name: "recv-then-send".into(),
            pipelined: vec![],
            regions: vec![
                CodeRegion::Loop {
                    id: warp_ir::LoopId(0),
                    count: first,
                    body: vec![block(recvs_per_iter as usize, recvs.collect())],
                },
                CodeRegion::Loop {
                    id: warp_ir::LoopId(1),
                    count: second,
                    body: vec![block(1, vec![(0, Dir::Right, Chan::X, false)])],
                },
            ],
            regs_used: 0,
            scratch_words: 0,
        }
    }

    #[test]
    fn event_budget_is_checked_against_the_static_total() {
        // Figure 6-4 has 10 receives and 10 sends.
        let with_budget = |max_events| {
            let opts = SkewOptions {
                max_events,
                ..SkewOptions::default()
            };
            analyze(&fig_6_4_code(), &paper_loops(), &opts).unwrap()
        };
        let exact = with_budget(20);
        assert!(!exact.degraded);
        assert_eq!(exact.min_skew, 18);
        assert!(with_budget(19).degraded);
    }

    #[test]
    fn cancelled_analysis_reports_interruption() {
        use std::sync::Arc;
        use warp_common::{CancelToken, ManualClock};
        let token = CancelToken::new(Arc::new(ManualClock::new(0)));
        token.cancel();
        let opts = SkewOptions {
            cancel: token,
            ..SkewOptions::default()
        };
        // Dissimilar nests (two words per iteration in, one out) are
        // stepped event by event: 6000 steps pass a poll.
        let err = analyze(&recv_then_send(3000, 2, 6000), &paper_loops(), &opts).unwrap_err();
        assert!(
            err.to_string().contains("skew analysis interrupted"),
            "{err}"
        );
        // Similar nests are jumped over: a million trips finish before
        // the first poll, so the same token is never looked at.
        let r = analyze(
            &recv_then_send(1_000_000, 1, 1_000_000),
            &paper_loops(),
            &opts,
        )
        .unwrap();
        assert_eq!(r.words_per_channel[&Chan::X], 1_000_000);
    }

    #[test]
    fn figure_3_1_model_comparison() {
        // 4-step stage; the dependency is at step 4: the cell receives
        // its operand at step 3 (0-based) and produces the next cell's
        // operand at step 3 as well. Skewed latency: 1 cycle... the
        // paper's picture: skew 0 would need recv@3 after send@3 of the
        // neighbour, giving skew 0; the paper counts 1 step of latency.
        let cmp = ModelComparison::of(&fig_3_1_stage(4, 3, 3), &paper_loops(), Dir::Right);
        assert_eq!(cmp.simd_latency, 4);
        assert_eq!(cmp.skewed_latency, 0);
        // A stage that produces its result one step after consuming the
        // input (recv@2, send@3 of the *previous* iteration shape):
        let cmp2 = ModelComparison::of(&fig_3_1_stage(4, 2, 3), &paper_loops(), Dir::Right);
        assert_eq!(cmp2.skewed_latency, 1);
        assert_eq!(cmp2.simd_array_latency(3), 12);
        assert_eq!(cmp2.skewed_array_latency(3), 3);
    }
}
