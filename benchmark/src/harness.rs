//! The measurement protocol every workload runs under.
//!
//! set-up (several times, median → `setup_s`) → one discarded warm-up
//! round → timed rounds of a fixed operation list until `--seconds`
//! have been measured (at least [`MIN_ROUNDS`]) → the correctness gate.
//! A traced run spends the first part of its time on untraced rounds
//! and the rest on traced ones, so the tracing overhead comes from one
//! process and one set-up.
//!
//! The bounded times are at reference speed: divided by the machine
//! slowdown that [`crate::calib`] measured around the round or set-up
//! they belong to. The same times as measured are reported beside them
//! (`harness.raw_*`).

use crate::calib;
use crate::report::{ItemRow, RunResult};
use crate::stats;
use crate::trace::{self, SelfTimes, Span};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fewest timed rounds per phase, however slow the machine.
pub const MIN_ROUNDS: usize = 5;
/// Share of a traced run's time spent on untraced rounds (the
/// baseline of `harness.trace_overhead`).
const UNTRACED_SHARE: f64 = 0.35;

// --- counting allocator -----------------------------------------------

/// The system allocator with two relaxed counters in front. The
/// counters publish nothing but themselves, so `Relaxed` suffices.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` by this process so far.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

// --- /proc ------------------------------------------------------------

fn proc_path(pid: Option<u32>, file: &str) -> PathBuf {
    match pid {
        Some(pid) => PathBuf::from(format!("/proc/{pid}/{file}")),
        None => PathBuf::from(format!("/proc/self/{file}")),
    }
}

/// User + system CPU seconds of a process (`None` = this one),
/// including threads that have exited. Linux reports these in 10 ms
/// ticks (`USER_HZ` is 100 on every supported architecture).
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).ok()?;
    // The command name may hold spaces; fields resume after the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

fn status_field(pid: Option<u32>, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(proc_path(pid, "status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of a process in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Live threads of a process.
pub fn thread_count(pid: Option<u32>) -> Option<u64> {
    status_field(pid, "Threads")
}

// --- workload interface -------------------------------------------------

/// What one round did.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Wall time of the round's operations.
    pub wall: Duration,
    /// `(item index, op nanoseconds)` per completed operation.
    pub samples: Vec<(u32, u64)>,
    /// Operations that failed, were refused, or produced wrong output.
    pub failed: u64,
    /// Descriptions of the failures (a few; the count is `failed`).
    pub problems: Vec<String>,
    /// Spans recorded this round, one vector per recording thread.
    pub spans: Vec<Vec<Span>>,
}

impl RoundOut {
    /// Records a failure, keeping only the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(what);
        }
    }
}

/// Where a workload's correctness gate and layer counters report.
pub struct Finish<'a> {
    /// This is a traced run: report per-layer metrics too.
    pub traced: bool,
    /// Self times over every traced round.
    pub self_times: &'a SelfTimes,
    pub metrics: &'a mut BTreeMap<&'static str, f64>,
    /// Per-item columns, filled where they apply (same order as
    /// [`Workload::item_names`]).
    pub items: &'a mut [ItemRow],
    /// Gate checks made and failed.
    pub checks: u64,
    pub failed: u64,
    pub problems: &'a mut Vec<String>,
}

impl Finish<'_> {
    /// Counts one gate check; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.checks += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::find(name).is_some(),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }
}

/// One workload after set-up.
pub trait Workload {
    /// Names of the distinct items operations work on.
    fn item_names(&self) -> Vec<String>;

    /// The process whose CPU and memory are charged to the workload
    /// (`None` = the harness itself, for in-process workloads).
    fn worker_pid(&self) -> Option<u32> {
        None
    }

    /// Runs the fixed operation list once.
    fn round(&mut self, traced: bool) -> RoundOut;

    /// The correctness gate, the exact metrics, and (for a traced
    /// run) the layer counters and probes.
    fn finish(&mut self, fin: &mut Finish<'_>);
}

/// Inputs of a set-up.
pub struct SetupCtx<'a> {
    pub seed: u64,
    /// Where a workload keeps the input files it generates; inside the
    /// checkout (`benchmark/out/...`), emptied once per run. The set-ups
    /// of one run all generate the same files, so each after the first
    /// finds them in place: creating thousands of files per run made
    /// `setup_s` follow the state of the file system, not the program.
    pub input_dir: &'a Path,
    /// Scratch directory beside it for what the program under test
    /// writes (socket, store), emptied before each set-up.
    pub work_dir: &'a Path,
}

/// A workload's constructor: everything `setup_s` pays for.
pub type SetupFn = fn(&SetupCtx<'_>) -> Result<Box<dyn Workload>, String>;

// --- the run loop -------------------------------------------------------

/// One timed round, as measured.
struct Round {
    /// Wall seconds of the round's operations.
    wall: f64,
    ops: u64,
    /// User + system CPU seconds the worker process spent on it.
    cpu: f64,
    /// `(item, op nanoseconds)`.
    samples: Vec<(u32, u64)>,
    /// Self times of the spans recorded this round (traced rounds).
    self_times: SelfTimes,
}

/// The rounds of one phase with the gauge runs around them:
/// `gauges[i]` ran just before round `i`, `gauges[i + 1]` just after.
/// CPU time and allocations are read immediately around each round, so
/// the gauge and the harness's own work between rounds stay out of
/// both.
#[derive(Default)]
struct Phase {
    rounds: Vec<Round>,
    gauges: Vec<f64>,
    /// Allocation calls and bytes inside the rounds.
    allocs: (u64, u64),
    /// Peak resident set of the worker process, MiB, read once round
    /// [`MIN_ROUNDS`] is done: after the same work on every machine,
    /// however many more rounds a fast one fits into the run.
    peak_rss_mib: Option<f64>,
}

/// Whether times are taken as measured or at reference speed.
#[derive(Clone, Copy)]
enum Speed {
    Raw,
    Reference,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.rounds.iter().map(|r| r.ops).sum()
    }

    /// What round `i`'s times are divided by.
    fn divisor(&self, i: usize, speed: Speed) -> f64 {
        match speed {
            Speed::Raw => 1.0,
            Speed::Reference => calib::slowdown_around(&self.gauges, i),
        }
    }

    /// Median over rounds of operations per wall second.
    fn throughput(&self, speed: Speed) -> f64 {
        stats::median(&self.throughputs(speed))
    }

    fn throughputs(&self, speed: Speed) -> Vec<f64> {
        self.rounds
            .iter()
            .enumerate()
            .map(|(i, r)| r.ops as f64 * self.divisor(i, speed) / r.wall.max(1e-12))
            .collect()
    }

    /// Median over rounds of wall seconds per op, at reference speed.
    fn secs_per_op(&self) -> f64 {
        1.0 / self.throughput(Speed::Reference).max(1e-12)
    }

    /// CPU milliseconds per op over all rounds.
    fn cpu_ms_per_op(&self, speed: Speed) -> f64 {
        let cpu: f64 = self
            .rounds
            .iter()
            .enumerate()
            .map(|(i, r)| r.cpu / self.divisor(i, speed))
            .sum();
        cpu * 1e3 / self.ops().max(1) as f64
    }

    /// Op wall milliseconds per item, over all rounds.
    fn per_item_ms(&self, items: usize, speed: Speed) -> Vec<Vec<f64>> {
        let mut per_item = vec![Vec::new(); items];
        for (i, round) in self.rounds.iter().enumerate() {
            let scale = 1e-6 / self.divisor(i, speed);
            for (item, ns) in &round.samples {
                per_item[*item as usize].push(*ns as f64 * scale);
            }
        }
        per_item
    }
}

/// Runs rounds until `budget` seconds of operations have been measured
/// (at least [`MIN_ROUNDS`]); `first_spans` receives the spans of the
/// first traced round.
fn run_phase(
    w: &mut dyn Workload,
    traced: bool,
    budget: f64,
    result: &mut RunResult,
    first_spans: &mut Option<Vec<Vec<Span>>>,
) -> Phase {
    let pid = w.worker_pid();
    let mut phase = Phase {
        gauges: vec![calib::run_once()],
        ..Phase::default()
    };
    let mut measured = 0.0;
    while measured < budget || phase.rounds.len() < MIN_ROUNDS {
        let cpu_before = cpu_seconds(pid);
        let allocs_before = alloc_counters();
        let out = w.round(traced);
        let allocs_after = alloc_counters();
        let cpu_after = cpu_seconds(pid);
        phase.gauges.push(calib::run_once());
        measured += out.wall.as_secs_f64();
        phase.allocs.0 += allocs_after.0 - allocs_before.0;
        phase.allocs.1 += allocs_after.1 - allocs_before.1;
        result.attempted += out.samples.len() as u64 + out.failed;
        result.failed += out.failed;
        result.problems.extend(out.problems);
        let mut self_times = SelfTimes::default();
        for thread in &out.spans {
            self_times.add(thread);
        }
        phase.rounds.push(Round {
            wall: out.wall.as_secs_f64(),
            ops: out.samples.len() as u64 + out.failed,
            cpu: cpu_before.zip(cpu_after).map_or(0.0, |(a, b)| b - a),
            samples: out.samples,
            self_times,
        });
        if traced {
            first_spans.get_or_insert(out.spans);
        }
        if phase.rounds.len() == MIN_ROUNDS {
            phase.peak_rss_mib = peak_rss_mib(pid);
        }
    }
    phase
}

/// What one run measures.
pub struct RunSpec<'a> {
    pub workload: &'static str,
    pub setup: SetupFn,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    pub seed: u64,
    /// Seconds of operations to measure.
    pub seconds: f64,
    pub traced: bool,
    /// Where the trace and the scratch directory go.
    pub out_dir: &'a Path,
}

/// Runs one workload for `seconds` of measured time and returns its
/// metrics; a traced run also leaves `trace-<workload>.jsonl` in
/// `out_dir`.
///
/// # Errors
///
/// A message when set-up fails (nothing was measured).
pub fn run(spec: &RunSpec<'_>) -> Result<RunResult, String> {
    let RunSpec {
        workload,
        setup,
        setup_repeats,
        seed,
        seconds,
        traced,
        out_dir,
    } = *spec;
    let mut result = RunResult {
        workload,
        seed,
        traced,
        attempted: 0,
        failed: 0,
        correct: true,
        metrics: BTreeMap::new(),
        items: Vec::new(),
        problems: Vec::new(),
    };
    let run_dir = out_dir.join(format!("work-{workload}"));
    let (input_dir, work_dir) = (run_dir.join("inputs"), run_dir.join("live"));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&input_dir).map_err(|e| format!("{}: {e}", input_dir.display()))?;

    calib::prepare();
    let mut setup_secs = Vec::new();
    let mut setup_gauges = vec![calib::run_once()];
    let mut state: Option<Box<dyn Workload>> = None;
    for _ in 0..setup_repeats.max(1) {
        // Tear the previous set-up down first (a daemon must be gone
        // before its store directory is emptied), untimed.
        drop(state.take());
        let _ = std::fs::remove_dir_all(&work_dir);
        std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let t = Instant::now();
        state = Some(setup(&SetupCtx {
            seed,
            input_dir: &input_dir,
            work_dir: &work_dir,
        })?);
        setup_secs.push(t.elapsed().as_secs_f64());
        setup_gauges.push(calib::run_once());
    }
    // The set-ups together take about as long as a round or two: one
    // factor for all of them.
    let setup_slowdown = calib::slowdown(&setup_gauges);
    let mut w = state.expect("at least one set-up ran");
    let item_names = w.item_names();

    // Warm-up: caches fill and lazy set-up finishes; timing discarded,
    // failures kept.
    let warm = w.round(false);
    result.failed += warm.failed;
    result.attempted += warm.samples.len() as u64 + warm.failed;
    result.problems.extend(warm.problems);

    let pid = w.worker_pid();
    let untraced_budget = if traced {
        seconds * UNTRACED_SHARE
    } else {
        seconds
    };
    let mut first_round_spans = None;
    let base = run_phase(
        w.as_mut(),
        false,
        untraced_budget,
        &mut result,
        &mut first_round_spans,
    );
    let traced_phase = traced.then(|| {
        run_phase(
            w.as_mut(),
            true,
            seconds - untraced_budget,
            &mut result,
            &mut first_round_spans,
        )
    });
    let mut self_times = SelfTimes::default();
    for (i, round) in traced_phase
        .iter()
        .flat_map(|p| p.rounds.iter().enumerate())
    {
        let slowdown = traced_phase
            .as_ref()
            .map_or(1.0, |p| p.divisor(i, Speed::Reference));
        self_times.merge_scaled(&round.self_times, 1.0 / slowdown);
    }

    // --- metrics of the untraced phase ------------------------------
    let ops = base.ops();
    let per_item = base.per_item_ms(item_names.len(), Speed::Reference);
    let raw_per_item = base.per_item_ms(item_names.len(), Speed::Raw);
    let m = &mut result.metrics;
    m.insert("harness.machine_slowdown", calib::slowdown(&base.gauges));
    m.insert("harness.raw_setup_s", stats::median(&setup_secs));
    m.insert("harness.raw_throughput_ops_s", base.throughput(Speed::Raw));
    m.insert(
        "harness.raw_op_ms_geomean",
        stats::geomean_of_medians(&raw_per_item),
    );
    m.insert("harness.raw_cpu_ms_per_op", base.cpu_ms_per_op(Speed::Raw));
    if traced {
        let all_ms: Vec<f64> = per_item.iter().flatten().copied().collect();
        let (ptail, tail_ms) = stats::tail_percentile(&all_ms);
        m.insert("harness.samples", all_ms.len() as f64);
        m.insert("harness.op_ms_p50", stats::median(&all_ms));
        m.insert("harness.op_ms_ptail", tail_ms);
        m.insert("harness.ptail", ptail);
        m.insert(
            "harness.round_spread",
            stats::quartile_spread(&base.throughputs(Speed::Reference)).unwrap_or(0.0),
        );
        if pid.is_none() && ops > 0 {
            m.insert("harness.allocs_per_op", base.allocs.0 as f64 / ops as f64);
            m.insert(
                "harness.alloc_kib_per_op",
                base.allocs.1 as f64 / 1024.0 / ops as f64,
            );
        }
        if let Some(tp) = &traced_phase {
            m.insert(
                "harness.trace_overhead",
                tp.secs_per_op() / base.secs_per_op().max(1e-12),
            );
        }
        m.insert("harness.self_time_cover", self_times.cover());
    } else {
        m.insert("setup_s", stats::median(&setup_secs) / setup_slowdown);
        m.insert("throughput_ops_s", base.throughput(Speed::Reference));
        m.insert("op_ms_geomean", stats::geomean_of_medians(&per_item));
        m.insert("cpu_ms_per_op", base.cpu_ms_per_op(Speed::Reference));
        if let Some(rss) = base.peak_rss_mib {
            m.insert("peak_rss_mib", rss);
        }
    }

    result.items = item_names
        .iter()
        .zip(&per_item)
        .map(|(name, ms)| ItemRow {
            item: name.clone(),
            samples: ms.len() as u64,
            op_ms_p50: stats::median(ms),
            ucode_words: None,
            array_cycles: None,
            artifact_bytes: None,
        })
        .collect();

    // --- the gate ---------------------------------------------------
    let mut fin = Finish {
        traced,
        self_times: &self_times,
        metrics: &mut result.metrics,
        items: &mut result.items,
        checks: 0,
        failed: 0,
        problems: &mut result.problems,
    };
    w.finish(&mut fin);
    let (checks, gate_failed) = (fin.checks, fin.failed);
    result.attempted += checks;
    result.failed += gate_failed;
    drop(w);

    result.metrics.insert(
        "failed_share",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    result.correct = result.failed == 0;

    if let Some(threads) = first_round_spans {
        let mut text = String::new();
        let mut base_id = 0u32;
        for spans in &threads {
            text.push_str(&trace::to_jsonl(spans, &item_names, base_id));
            base_id += spans.len() as u32;
        }
        crate::report::overwrite(&out_dir.join(format!("trace-{workload}.jsonl")), &text)?;
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_speed_divides_each_round_by_its_own_slowdown() {
        // Six rounds of 10 ops; the machine ran the last three at half
        // speed (gauge 2× nominal around them), so they took twice as
        // long and twice the CPU.
        let n = calib::NOMINAL_SECS;
        let round = |wall: f64| Round {
            wall,
            ops: 10,
            cpu: wall * 0.9,
            samples: vec![(0, (wall * 1e8) as u64)],
            self_times: SelfTimes::default(),
        };
        let phase = Phase {
            rounds: [1.0, 1.0, 1.0, 2.0, 2.0, 2.0].map(round).into(),
            gauges: vec![n, n, n, n, 2.0 * n, 2.0 * n, 2.0 * n],
            ..Phase::default()
        };
        assert!((phase.divisor(0, Speed::Reference) - 1.0).abs() < 1e-12);
        assert!((phase.divisor(5, Speed::Reference) - 2.0).abs() < 1e-12);
        assert_eq!(phase.divisor(5, Speed::Raw), 1.0);
        assert!((phase.throughput(Speed::Raw) - 7.5).abs() < 1e-12);
        assert!((phase.cpu_ms_per_op(Speed::Raw) - 135.0).abs() < 1e-9);
        let raw = phase.per_item_ms(1, Speed::Raw);
        assert!((raw[0][0] - 100.0).abs() < 1e-6 && (raw[0][5] - 200.0).abs() < 1e-6);
        let scaled = phase.per_item_ms(1, Speed::Reference);
        assert!((scaled[0][5] - 100.0).abs() < 1e-6);
        assert!(phase.throughput(Speed::Reference) > phase.throughput(Speed::Raw));
        assert!(phase.cpu_ms_per_op(Speed::Reference) < phase.cpu_ms_per_op(Speed::Raw));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(cpu_seconds(None).is_some());
        assert!(peak_rss_mib(None).is_some_and(|m| m > 0.0));
        assert!(thread_count(None).is_some_and(|n| n >= 1));
        assert_eq!(cpu_seconds(Some(u32::MAX)), None);
    }
}
