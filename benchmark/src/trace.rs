//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around calls
//! into each layer's public functions; nothing inside the program
//! under test is instrumented. One root span (`op`) covers each
//! operation, children nest by call order, and a layer's *self time*
//! is its span minus the part its direct children cover. Spans stay in
//! memory until the run ends and are then written as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use warp_common::{Artifact, PassObserver};

/// Name of the root span that covers one operation.
pub const ROOT: &str = "op";

/// One recorded span. `parent` indexes [`Tracer::spans`]; roots have
/// none.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Operation counter (shared by all spans of one op).
    pub op: u32,
    /// Index of the item the op worked on.
    pub item: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Span name (a pass name or a `layer.call` label).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread. It doubles as the compiler's
/// [`PassObserver`], so the nine pass spans come from the driver's own
/// enter/exit calls.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    item: u32,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            item: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of the next operation on `item`.
    pub fn begin_op(&mut self, item: u32) {
        self.op += 1;
        self.item = item;
        self.enter(ROOT);
    }

    /// Closes the current operation's root span, returning its length.
    pub fn end_op(&mut self) -> Duration {
        debug_assert_eq!(self.open.len(), 1, "unbalanced spans inside an op");
        Duration::from_nanos(self.exit())
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op: self.op,
            item: self.item,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, returning its length in ns.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans, leaving the tracer empty (its clock
    /// and op counter keep running). The next round records about as
    /// many, so the space for them is reserved now, outside any span.
    pub fn take_spans(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "take_spans inside an open span");
        let fresh = Vec::with_capacity(self.spans.len());
        std::mem::replace(&mut self.spans, fresh)
    }
}

impl PassObserver for Tracer {
    fn enter_pass(&mut self, name: &'static str) {
        self.enter(name);
    }

    fn exit_pass(&mut self, _name: &'static str, _elapsed: Duration, _artifact: &dyn Artifact) {
        self.exit();
    }
}

/// Self time and call count per span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelfTimes {
    /// `name → (spans, Σ self ns)`.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Root spans seen (= operations).
    pub ops: u64,
    /// Σ root span length, ns.
    pub root_ns: u64,
    /// Σ over roots of the time their direct children cover, ns.
    pub covered_ns: u64,
}

impl SelfTimes {
    /// Adds the self times of `spans` (one thread's, in record order).
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        for (s, children) in spans.iter().zip(&child_ns) {
            let entry = self.by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.duration_ns().saturating_sub(*children);
            if s.parent.is_none() {
                self.ops += 1;
                self.root_ns += s.duration_ns();
                self.covered_ns += (*children).min(s.duration_ns());
            }
        }
    }

    /// Adds `other` with every time multiplied by `scale` (1 ÷ the
    /// machine slowdown of the round `other` was recorded in).
    pub fn merge_scaled(&mut self, other: &SelfTimes, scale: f64) {
        let scaled = |ns: u64| (ns as f64 * scale).round() as u64;
        for (name, (count, ns)) in &other.by_name {
            let entry = self.by_name.entry(name).or_default();
            entry.0 += count;
            entry.1 += scaled(*ns);
        }
        self.ops += other.ops;
        self.root_ns += scaled(other.root_ns);
        self.covered_ns += scaled(other.covered_ns);
    }

    /// Σ self time of `name`, in seconds.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1 as f64 * 1e-9)
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// Mean self time of `name` per operation, in seconds (an op that
    /// calls a layer twice counts both calls).
    pub fn per_op_secs(&self, name: &str) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.self_secs(name) / self.ops as f64
        }
    }

    /// Mean self time of `name` per call, in seconds.
    pub fn per_call_secs(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.self_secs(name) / n as f64,
        }
    }

    /// Share of root-span time covered by named child spans.
    pub fn cover(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.root_ns as f64
        }
    }
}

/// Renders spans as JSON lines
/// `{op, item, span, parent, name, start_ns, end_ns}`; `span_base`
/// offsets the span ids so several threads' spans share one file.
pub fn to_jsonl(spans: &[Span], items: &[String], span_base: u32) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for (id, s) in spans.iter().enumerate() {
        let item = items.get(s.item as usize).map_or("?", String::as_str);
        let parent = match s.parent {
            Some(p) => (p + span_base).to_string(),
            None => "null".to_owned(),
        };
        let _ = writeln!(
            out,
            "{{\"op\":{},\"item\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op,
            crate::report::json_string(item),
            id as u32 + span_base,
            parent,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 1,
            item: 0,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100] ⊃ compile [10,90] ⊃ {frontend [10,30], codegen [40,80]}
        let spans = vec![
            span(None, ROOT, 0, 100),
            span(Some(0), "compile", 10, 90),
            span(Some(1), "frontend", 10, 30),
            span(Some(1), "codegen", 40, 80),
        ];
        let mut st = SelfTimes::default();
        st.add(&spans);
        assert_eq!(st.by_name[ROOT], (1, 20));
        assert_eq!(st.by_name["compile"], (1, 20));
        assert_eq!(st.by_name["frontend"], (1, 20));
        assert_eq!(st.by_name["codegen"], (1, 40));
        assert_eq!(st.ops, 1);
        assert!((st.cover() - 0.8).abs() < 1e-12);
        // Self times partition the root span exactly.
        let total: u64 = st.by_name.values().map(|e| e.1).sum();
        assert_eq!(total, 100);
        // Merging at half speed halves every time and keeps the counts.
        let mut merged = SelfTimes::default();
        merged.merge_scaled(&st, 0.5);
        merged.merge_scaled(&st, 0.5);
        assert_eq!(merged.by_name["codegen"], (2, 40));
        assert_eq!((merged.ops, merged.root_ns), (2, 100));
        assert!((merged.cover() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new();
        t.begin_op(3);
        t.span("a", || ());
        t.enter("b");
        t.span("c", || ());
        t.exit();
        t.end_op();
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [(ROOT, None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]
        );
        assert!(t.spans().iter().all(|s| s.item == 3 && s.op == 1));
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let spans = vec![span(None, ROOT, 0, 5), span(Some(0), "x", 1, 2)];
        let text = to_jsonl(&spans, &["poly \"q\"".to_owned()], 10);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"op\":1,\"item\":\"poly \\\"q\\\"\",\"span\":11,\"parent\":10,\"name\":\"x\",\"start_ns\":1,\"end_ns\":2}"
        );
    }
}
