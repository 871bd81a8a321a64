//! Results: one run's metrics, the driver's JSON line, the TSV files
//! under `benchmark/out/`, and `--compare` between two result sets.

use crate::metrics::{self, Better, Class, MetricDef, METRICS, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Per-item row of one run (the Table 7-1 view).
#[derive(Clone, Debug, PartialEq)]
pub struct ItemRow {
    pub item: String,
    pub samples: u64,
    pub op_ms_p50: f64,
    pub ucode_words: Option<u64>,
    pub array_cycles: Option<u64>,
    pub artifact_bytes: Option<u64>,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (per-op checks and the final gate).
    pub correct: bool,
    /// Metric name → value; a metric that does not apply is absent.
    pub metrics: BTreeMap<&'static str, f64>,
    pub items: Vec<ItemRow>,
    /// What went wrong, for the human reader.
    pub problems: Vec<String>,
}

/// Quotes `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl RunResult {
    /// The line the driver reads: every `end_to_end` metric for an
    /// untraced run, every `per_layer` metric for a traced one. A
    /// per-layer metric that does not apply to the workload reads 0.
    pub fn driver_json(&self) -> String {
        let defs: Vec<&MetricDef> = if self.traced {
            metrics::unbounded().collect()
        } else {
            metrics::bounded().collect()
        };
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self.metrics.get(d.name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(d.name),
                    json_number(v),
                    json_string(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }

    /// `workload × metric` rows for the metrics this pass is
    /// responsible for — end-to-end ones from the untraced pass,
    /// per-layer ones from the traced pass — with `-` where one does
    /// not apply.
    pub fn tsv_rows(&self) -> String {
        let mut out = String::new();
        for d in METRICS {
            let in_pass = match d.class {
                Class::Bounded(_) | Class::Exact => !self.traced,
                Class::Count | Class::Layer => self.traced,
            };
            if !in_pass {
                continue;
            }
            let value = self
                .metrics
                .get(d.name)
                .map_or("-".to_owned(), |v| json_number(*v));
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                self.workload, d.name, value, d.unit, self.seed
            );
        }
        out
    }

    /// Per-item rows (`-` where a column does not apply).
    pub fn item_rows(&self) -> String {
        let opt = |v: Option<u64>| v.map_or("-".to_owned(), |v| v.to_string());
        let mut out = String::new();
        for r in &self.items {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:.6}\t{}\t{}\t{}",
                self.workload,
                r.item,
                r.samples,
                r.op_ms_p50,
                opt(r.ucode_words),
                opt(r.array_cycles),
                opt(r.artifact_bytes),
            );
        }
        out
    }

    /// The human-readable block: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let pass = if self.traced { "traced" } else { "untraced" };
        let _ = writeln!(
            out,
            "== {} (seed {}, {pass}): {} ops, {} failed, outputs {}",
            self.workload,
            self.seed,
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "WRONG" }
        );
        for d in METRICS {
            if let Some(v) = self.metrics.get(d.name) {
                let _ = writeln!(out, "  {:<34} {:>16.6} {}", d.name, v, d.unit);
            }
        }
        for p in &self.problems {
            let _ = writeln!(out, "  ! {p}");
        }
        out
    }
}

/// Header of `results.tsv`.
pub const RESULTS_HEADER: &str = "workload\tmetric\tvalue\tunit\tseed\n";
/// Header of `items.tsv`.
pub const ITEMS_HEADER: &str =
    "workload\titem\tsamples\top_ms_p50\tucode_words\tarray_cycles\tartifact_bytes\n";

/// Writes `path`, replacing what an earlier run left there.
///
/// # Errors
///
/// The I/O error, with the path.
pub fn overwrite(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

// --- compare ----------------------------------------------------------

/// `(workload, metric) → value` of one run; `-` rows are absent.
type RunValues = BTreeMap<(String, String), f64>;

fn parse_results(path: &Path) -> Result<RunValues, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values = RunValues::new();
    for (n, line) in text.lines().enumerate().skip(1) {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 3 {
            return Err(format!("{}:{}: expected 5 columns", path.display(), n + 1));
        }
        if cols[2] == "-" {
            continue;
        }
        let v: f64 = cols[2]
            .parse()
            .map_err(|_| format!("{}:{}: bad value `{}`", path.display(), n + 1, cols[2]))?;
        values.insert((cols[0].to_owned(), cols[1].to_owned()), v);
    }
    Ok(values)
}

/// A result set is a directory holding `results.tsv` (one run) or
/// sub-directories that each hold one (several runs of one commit).
fn load_set(dir: &Path) -> Result<Vec<RunValues>, String> {
    let single = dir.join("results.tsv");
    if single.is_file() {
        return Ok(vec![parse_results(&single)?]);
    }
    let mut runs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path().join("results.tsv")))
        .filter(|p| p.is_file())
        .collect();
    runs.sort();
    if runs.is_empty() {
        return Err(format!("{}: no results.tsv found", dir.display()));
    }
    runs.iter().map(|p| parse_results(p)).collect()
}

/// Verdict of one `workload × metric` comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows (or an exact metric changed).
    Breach,
    /// Run-to-run spread is wider than the bound, so neither "same"
    /// nor "worse" can be claimed.
    Unresolved,
}

/// Compares the medians of two sets of samples of one metric.
/// `worse` is the signed share by which `b` is worse than `a`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Option<f64>, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = if ma == 0.0 {
        if mb == ma {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        match def.better {
            Better::Lower => (mb - ma) / ma.abs(),
            Better::Higher => (ma - mb) / ma.abs(),
        }
    };
    let spread = [a, b]
        .iter()
        .filter_map(|v| stats::quartile_spread(v))
        .reduce(f64::max);
    let verdict = match def.class {
        Class::Bounded(bound) => {
            // Every run of B better than every run of A resolves the
            // comparison whatever the spread.
            let b_always_better = match def.better {
                Better::Lower => stats::sorted(b).last() < stats::sorted(a).first(),
                Better::Higher => stats::sorted(b).first() > stats::sorted(a).last(),
            };
            if spread.is_some_and(|s| s > bound) && !b_always_better {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Breach
            } else {
                Verdict::Ok
            }
        }
        Class::Exact | Class::Count => {
            let same = |v: &[f64]| v.iter().all(|x| *x == v[0]);
            if same(a) && same(b) && ma == mb {
                Verdict::Ok
            } else {
                Verdict::Breach
            }
        }
        Class::Layer => Verdict::Ok,
    };
    (worse, spread, verdict)
}

/// `--compare A B`: prints the relative difference of B against A per
/// `workload × end-to-end metric` with its bound, checks that exact
/// metrics and per-layer counts are equal, and returns whether any
/// bound was breached.
///
/// # Errors
///
/// A message when a result set cannot be read.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<(String, bool), String> {
    let (a_runs, b_runs) = (load_set(a_dir)?, load_set(b_dir)?);
    let samples = |runs: &[RunValues], key: &(String, String)| -> Vec<f64> {
        runs.iter().filter_map(|r| r.get(key).copied()).collect()
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A = {} ({} run(s))   B = {} ({} run(s))",
        a_dir.display(),
        a_runs.len(),
        b_dir.display(),
        b_runs.len()
    );
    let _ = writeln!(
        out,
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "bound", "spread"
    );
    let mut breached = false;
    let mut counts_checked = 0usize;
    let mut counts_differ = Vec::new();
    for w in WORKLOADS {
        for d in METRICS {
            let key = (w.name.to_owned(), d.name.to_owned());
            let (a, b) = (samples(&a_runs, &key), samples(&b_runs, &key));
            if a.is_empty() && b.is_empty() {
                continue;
            }
            if a.is_empty() != b.is_empty() {
                breached = true;
                let _ = writeln!(out, "{:<16} {:<20} present in only one set", w.name, d.name);
                continue;
            }
            let (worse, spread, verdict) = judge(d, &a, &b);
            breached |= verdict == Verdict::Breach;
            if !metrics::is_end_to_end(d) {
                if d.class == Class::Count {
                    counts_checked += 1;
                    if verdict == Verdict::Breach {
                        counts_differ.push(format!("{} {}", w.name, d.name));
                    }
                }
                continue;
            }
            let bound = match d.class {
                Class::Bounded(b) => format!("{:.0}%", b * 100.0),
                _ => "exact".to_owned(),
            };
            let spread = spread.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
            let _ = writeln!(
                out,
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>8} {:>8}  {}",
                w.name,
                d.name,
                stats::median(&a),
                stats::median(&b),
                worse * 100.0,
                bound,
                spread,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Breach => "BREACH",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    let _ = writeln!(
        out,
        "per-layer counts: {} compared, {} differ{}",
        counts_checked,
        counts_differ.len(),
        if counts_differ.is_empty() {
            String::new()
        } else {
            format!(" ({})", counts_differ.join(", "))
        }
    );
    Ok((out, breached))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        metrics::find(name).unwrap()
    }

    #[test]
    fn bounded_metric_breaches_past_its_bound_only() {
        let d = def("throughput_ops_s"); // higher is better
        let Class::Bounded(bound) = d.class else {
            panic!()
        };
        assert_eq!(
            judge(d, &[100.0], &[100.0 * (1.0 - bound) + 1.0]).2,
            Verdict::Ok
        );
        assert_eq!(
            judge(d, &[100.0], &[100.0 * (1.0 - bound) - 1.0]).2,
            Verdict::Breach
        );
        assert_eq!(judge(d, &[100.0], &[150.0]).2, Verdict::Ok);
        let d = def("op_ms_geomean"); // lower is better
        let Class::Bounded(bound) = d.class else {
            panic!()
        };
        assert_eq!(
            judge(d, &[10.0], &[10.0 * (1.0 + bound) + 0.1]).2,
            Verdict::Breach
        );
        assert_eq!(
            judge(d, &[10.0], &[10.0 * (1.0 + bound) - 0.1]).2,
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let d = def("op_ms_geomean");
        let noisy = [8.0, 10.0, 12.0, 14.0];
        assert_eq!(judge(d, &noisy, &[11.0, 11.0]).2, Verdict::Unresolved);
        assert_eq!(judge(d, &noisy, &[5.0, 6.0]).2, Verdict::Ok);
    }

    #[test]
    fn exact_metrics_and_counts_must_be_equal() {
        assert_eq!(judge(def("ucode_words"), &[812.0], &[812.0]).2, Verdict::Ok);
        assert_eq!(
            judge(def("ucode_words"), &[812.0], &[811.0]).2,
            Verdict::Breach
        );
        assert_eq!(
            judge(def("cache.hits"), &[5.0, 5.0], &[5.0, 6.0]).2,
            Verdict::Breach
        );
        assert_eq!(judge(def("warp-sim.run_ms"), &[1.0], &[9.0]).2, Verdict::Ok);
    }

    #[test]
    fn driver_line_has_every_metric_of_its_pass() {
        let mut r = RunResult {
            workload: "exec_sim",
            seed: 1,
            traced: false,
            attempted: 12,
            failed: 0,
            correct: true,
            metrics: BTreeMap::new(),
            items: Vec::new(),
            problems: Vec::new(),
        };
        r.metrics.insert("setup_s", 0.25);
        let line = r.driver_json();
        for d in metrics::bounded() {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                "{line}"
            );
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, "));
        assert!(!line.contains("warp-sim.run_ms"));
        r.traced = true;
        let line = r.driver_json();
        assert!(line.contains("\"warp-sim.run_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(!line.contains("\"setup_s\""));
    }

    #[test]
    fn json_strings_escape_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
