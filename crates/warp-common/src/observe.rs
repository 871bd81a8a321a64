//! Pass observation: per-pass timing and artifact hooks.
//!
//! The compiler driver runs as an explicit pipeline of named passes
//! (paper Figure 6-1: front end → flow analysis → decomposition → cell
//! code generation → skew/queue analysis → IU code generation → host
//! code generation). This module holds the crate-neutral pieces of that
//! pipeline:
//!
//! * [`Artifact`] — the dumpable product of one pass. Every stage crate
//!   implements it for its output type (HIR, cell IR, microcode, …), so
//!   observers can pretty-print any intermediate without knowing its
//!   concrete type.
//! * [`PassObserver`] — enter/exit callbacks a driver invokes around
//!   each pass; [`CollectDumps`] is the standard implementation behind
//!   `w2c --dump-after`.
//! * [`CollectTimings`], [`PassTiming`] and [`timing_table`] — the
//!   per-pass wall-clock breakdown behind `w2c --time-passes`. Timings
//!   are an observation of a compile; the compiled artifact carries
//!   none.

use std::fmt::Write as _;
use std::time::Duration;

/// A dumpable intermediate artifact produced by a compiler pass.
///
/// Implementations must render deterministically (no hash-map iteration
/// order, no addresses): dumps are compared by golden tests.
pub trait Artifact {
    /// Short kind tag, e.g. `"hir"` or `"cell-ucode"`.
    fn kind(&self) -> &'static str;
    /// Human-readable, deterministic rendering of the artifact.
    fn dump(&self) -> String;
}

/// Wall-clock timing of one pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassTiming {
    /// Pass name (one of the driver's pipeline names).
    pub name: &'static str,
    /// Time spent inside the pass.
    pub duration: Duration,
}

/// Observer of pass execution. The driver calls [`enter_pass`]
/// immediately before running a pass and [`exit_pass`] immediately
/// after it succeeds, with the elapsed wall-clock time and the pass's
/// output artifact.
///
/// Both methods default to no-ops so observers only override what they
/// need.
///
/// [`enter_pass`]: PassObserver::enter_pass
/// [`exit_pass`]: PassObserver::exit_pass
pub trait PassObserver {
    /// Called before the named pass runs.
    fn enter_pass(&mut self, _name: &'static str) {}
    /// Called after the named pass succeeds.
    fn exit_pass(&mut self, _name: &'static str, _elapsed: Duration, _artifact: &dyn Artifact) {}
}

/// An observer that captures the artifact dumps of selected passes
/// (all passes when constructed with [`CollectDumps::all`]).
#[derive(Debug, Default)]
pub struct CollectDumps {
    wanted: Option<Vec<String>>,
    dumps: Vec<PassDump>,
}

/// One captured artifact dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassDump {
    /// The pass that produced the artifact.
    pub pass: &'static str,
    /// The artifact's kind tag.
    pub kind: &'static str,
    /// The rendered artifact.
    pub text: String,
}

impl CollectDumps {
    /// Captures only the passes named in `passes`.
    pub fn for_passes<S: Into<String>>(passes: impl IntoIterator<Item = S>) -> CollectDumps {
        CollectDumps {
            wanted: Some(passes.into_iter().map(Into::into).collect()),
            dumps: Vec::new(),
        }
    }

    /// Captures every pass.
    pub fn all() -> CollectDumps {
        CollectDumps {
            wanted: None,
            dumps: Vec::new(),
        }
    }

    /// The captured dumps, in pass execution order.
    pub fn dumps(&self) -> &[PassDump] {
        &self.dumps
    }
}

impl PassObserver for CollectDumps {
    fn exit_pass(&mut self, name: &'static str, _elapsed: Duration, artifact: &dyn Artifact) {
        let wanted = match &self.wanted {
            None => true,
            Some(w) => w.iter().any(|p| p == name),
        };
        if wanted {
            self.dumps.push(PassDump {
                pass: name,
                kind: artifact.kind(),
                text: artifact.dump(),
            });
        }
    }
}

/// An observer that records how long each pass took, in execution
/// order.
#[derive(Debug, Default)]
pub struct CollectTimings {
    /// One entry per pass that succeeded.
    pub timings: Vec<PassTiming>,
}

impl CollectTimings {
    /// The summed time spent inside passes.
    pub fn total(&self) -> Duration {
        self.timings.iter().map(|t| t.duration).sum()
    }
}

impl PassObserver for CollectTimings {
    fn exit_pass(&mut self, name: &'static str, elapsed: Duration, _artifact: &dyn Artifact) {
        self.timings.push(PassTiming {
            name,
            duration: elapsed,
        });
    }
}

/// Renders per-pass timings as an aligned table with a percentage
/// column, the format `w2c --time-passes` prints:
///
/// ```text
/// pass            time      % of total
/// frontend        102.3µs        12.4%
/// ...
/// total           822.9µs
/// ```
pub fn timing_table(timings: &[PassTiming], total: Duration) -> String {
    let mut out = String::new();
    let name_w = timings
        .iter()
        .map(|t| t.name.len())
        .chain([5])
        .max()
        .unwrap_or(5)
        + 2;
    let _ = writeln!(
        out,
        "{:<name_w$} {:>12} {:>12}",
        "pass", "time", "% of total"
    );
    let total_secs = total.as_secs_f64();
    for t in timings {
        let pct = if total_secs > 0.0 {
            t.duration.as_secs_f64() / total_secs * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<name_w$} {:>12} {:>11.1}%",
            t.name,
            format!("{:.1?}", t.duration),
            pct
        );
    }
    let _ = writeln!(out, "{:<name_w$} {:>12}", "total", format!("{total:.1?}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake(&'static str);
    impl Artifact for Fake {
        fn kind(&self) -> &'static str {
            "fake"
        }
        fn dump(&self) -> String {
            self.0.to_owned()
        }
    }

    #[test]
    fn collect_dumps_filters_by_pass() {
        let mut obs = CollectDumps::for_passes(["lower"]);
        obs.enter_pass("frontend");
        obs.exit_pass("frontend", Duration::from_micros(5), &Fake("hir"));
        obs.enter_pass("lower");
        obs.exit_pass("lower", Duration::from_micros(7), &Fake("ir"));
        assert_eq!(
            obs.dumps(),
            &[PassDump {
                pass: "lower",
                kind: "fake",
                text: "ir".to_owned(),
            }]
        );
    }

    #[test]
    fn collect_all_keeps_order() {
        let mut obs = CollectDumps::all();
        obs.exit_pass("a", Duration::ZERO, &Fake("1"));
        obs.exit_pass("b", Duration::ZERO, &Fake("2"));
        let passes: Vec<_> = obs.dumps().iter().map(|d| d.pass).collect();
        assert_eq!(passes, ["a", "b"]);
    }

    #[test]
    fn collect_timings_records_each_pass_and_sums() {
        let mut obs = CollectTimings::default();
        obs.exit_pass("a", Duration::from_micros(5), &Fake("1"));
        obs.exit_pass("b", Duration::from_micros(7), &Fake("2"));
        let names: Vec<_> = obs.timings.iter().map(|t| t.name).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(obs.total(), Duration::from_micros(12));
    }

    #[test]
    fn timing_table_has_all_rows_and_total() {
        let t = [
            PassTiming {
                name: "frontend",
                duration: Duration::from_micros(100),
            },
            PassTiming {
                name: "cell-codegen",
                duration: Duration::from_micros(300),
            },
        ];
        let table = timing_table(&t, Duration::from_micros(400));
        assert!(table.contains("frontend"), "{table}");
        assert!(table.contains("cell-codegen"), "{table}");
        assert!(table.contains("total"), "{table}");
        assert!(table.contains("75.0%"), "{table}");
    }
}
