//! The benchmark's vocabulary: every workload and every metric, by
//! name, with unit, direction and regression bound.
//!
//! This table is the single source of truth. `BENCHMARK.json` at the
//! repository root is generated from it (`w2bench --print-benchmark-json`;
//! a unit test keeps the committed file equal), and `--compare` takes
//! its bounds from here.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How a metric is judged when two result sets are compared.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    /// End-to-end, defined and non-zero on every workload: listed
    /// under `end_to_end` in `BENCHMARK.json` with this bound (share
    /// of the baseline median it may worsen by).
    Bounded(f64),
    /// End-to-end property of the generated code or of the outcome
    /// (`ucode_words`, `array_cycles`, `artifact_kib`, `failed_share`):
    /// must repeat exactly. Not defined on every workload, so the
    /// driver sees these among the `per_layer` metrics.
    Exact,
    /// Per-layer count that must repeat exactly for one seed.
    Count,
    /// Per-layer time, rate or gauge; reported, never bounded.
    Layer,
}

/// One metric definition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub class: Class,
}

const fn m(name: &'static str, unit: &'static str, better: Better, class: Class) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        class,
    }
}

use Better::{Higher, Lower};
use Class::{Bounded, Count, Exact, Layer};

/// Every metric the benchmark prints.
pub const METRICS: &[MetricDef] = &[
    // --- end to end -------------------------------------------------
    m("setup_s", "s", Lower, Bounded(0.25)),
    m("throughput_ops_s", "1/s", Higher, Bounded(0.25)),
    m("op_ms_geomean", "ms", Lower, Bounded(0.25)),
    m("cpu_ms_per_op", "ms", Lower, Bounded(0.25)),
    m("peak_rss_mib", "MiB", Lower, Bounded(0.15)),
    m("failed_share", "share", Lower, Exact),
    m("ucode_words", "words", Lower, Exact),
    m("array_cycles", "cycles", Lower, Exact),
    m("artifact_kib", "KiB", Lower, Exact),
    // --- compiler passes --------------------------------------------
    m("w2-lang.frontend_ms", "ms", Lower, Layer),
    m("w2-lang.source_kib_per_s", "KiB/s", Higher, Layer),
    m("warp-ir.comm_ms", "ms", Lower, Layer),
    m("warp-ir.lower_ms", "ms", Lower, Layer),
    m("warp-ir.rewrite_ms", "ms", Lower, Layer),
    m("warp-ir.decompose_ms", "ms", Lower, Layer),
    m("warp-ir.rewrite_hits", "count", Higher, Count),
    m("warp-cell.codegen_ms", "ms", Lower, Layer),
    m("warp-cell.ucode_words", "words", Lower, Count),
    m("warp-cell.loops_pipelined", "count", Higher, Count),
    m("warp-cell.ii_sum", "cycles", Lower, Count),
    m("warp-skew.skew_ms", "ms", Lower, Layer),
    m("warp-skew.min_skew_sum", "cycles", Lower, Count),
    m("warp-skew.queue_occupancy_max", "words", Lower, Count),
    m("warp-skew.degraded", "count", Lower, Count),
    m("warp-iu.codegen_ms", "ms", Lower, Layer),
    m("warp-iu.ucode_words", "words", Lower, Count),
    m("warp-host.codegen_ms", "ms", Lower, Layer),
    m("warp-host.script_words", "words", Lower, Count),
    m("warp-host.bind_us", "us", Lower, Layer),
    m("session.driver_overhead_ms", "ms", Lower, Layer),
    // --- executors --------------------------------------------------
    m("warp-sim.run_ms", "ms", Lower, Layer),
    m("warp-sim.mcc_per_s", "Mcc/s", Higher, Layer),
    m("warp-sim.allocs_per_kcycle", "1/kcycle", Lower, Layer),
    m("warp-sim.cycles", "cycles", Lower, Count),
    m("warp-sim.tiny_run_us", "us", Lower, Layer),
    m("warp-native.build_us", "us", Lower, Layer),
    m("warp-native.run_ms", "ms", Lower, Layer),
    m("warp-native.mcc_equiv_per_s", "Mcc/s", Higher, Layer),
    m("warp-native.allocs_per_run", "count", Lower, Layer),
    // --- oracle and differential ------------------------------------
    m("warp-oracle.gen_us", "us", Lower, Layer),
    m("warp-oracle.interp_us", "us", Lower, Layer),
    m("differential.compare_us", "us", Lower, Layer),
    m("differential.agree", "count", Higher, Count),
    m("differential.mismatch", "count", Lower, Count),
    m("differential.signed_zero", "count", Lower, Count),
    m("differential.rejected", "count", Lower, Count),
    m("differential.budget", "count", Lower, Count),
    // --- wire, store, cache, pool -----------------------------------
    m("wire.encode_mib_per_s", "MiB/s", Higher, Layer),
    m("wire.decode_mib_per_s", "MiB/s", Higher, Layer),
    m("store.put_us", "us", Lower, Layer),
    m("store.get_us", "us", Lower, Layer),
    m("store.puts", "count", Lower, Count),
    m("store.disk_hits", "count", Higher, Count),
    m("store.recovered", "count", Higher, Count),
    m("store.quarantined", "count", Lower, Count),
    m("store.put_failures", "count", Lower, Count),
    m("store.cold_op_share", "share", Lower, Layer),
    m("cache.key_us", "us", Lower, Layer),
    m("cache.hit_us", "us", Lower, Layer),
    m("cache.insert_us", "us", Lower, Layer),
    m("cache.hits", "count", Higher, Count),
    m("cache.misses", "count", Lower, Count),
    m("cache.coalesced", "count", Higher, Count),
    m("cache.evictions", "count", Lower, Count),
    m("cache.hit_rate", "share", Higher, Count),
    m("pool.dispatch_us", "us", Lower, Layer),
    m("pool.noop_roundtrip_us", "us", Lower, Layer),
    m("pool.job_wall_us", "us", Lower, Layer),
    m("pool.submitted", "count", Lower, Count),
    m("pool.completed", "count", Higher, Count),
    m("pool.shed", "count", Lower, Count),
    m("pool.max_queue_depth", "count", Lower, Layer),
    // --- protocol, daemon, process ----------------------------------
    m("protocol.submit_line_us", "us", Lower, Layer),
    m("protocol.run_reply_us", "us", Lower, Layer),
    m("daemon.submit_wait_us", "us", Lower, Layer),
    m("daemon.native_attempts", "count", Lower, Count),
    m("daemon.native_fallbacks", "count", Lower, Count),
    m("w2cd.spawn_ms", "ms", Lower, Layer),
    m("w2cd.connect_us", "us", Lower, Layer),
    m("w2cd.threads", "count", Lower, Layer),
    // --- the harness itself -----------------------------------------
    m("harness.machine_slowdown", "ratio", Lower, Layer),
    m("harness.raw_setup_s", "s", Lower, Layer),
    m("harness.raw_throughput_ops_s", "1/s", Higher, Layer),
    m("harness.raw_op_ms_geomean", "ms", Lower, Layer),
    m("harness.raw_cpu_ms_per_op", "ms", Lower, Layer),
    m("harness.samples", "count", Higher, Layer),
    m("harness.op_ms_p50", "ms", Lower, Layer),
    m("harness.op_ms_ptail", "ms", Lower, Layer),
    m("harness.ptail", "pct", Higher, Layer),
    m("harness.round_spread", "share", Lower, Layer),
    m("harness.allocs_per_op", "count", Lower, Layer),
    m("harness.alloc_kib_per_op", "KiB", Lower, Layer),
    m("harness.trace_overhead", "ratio", Lower, Layer),
    m("harness.self_time_cover", "share", Higher, Layer),
];

/// One workload: its name and the one-line reason it exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The seven workloads, in the order `w2bench` runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "compile_kernels",
        why: "small-data programs: frontend and modulo-scheduling cell codegen dominate, host codegen is negligible",
    },
    WorkloadDef {
        name: "compile_images",
        why: "large-data programs: host and IU script generation dominate, cell codegen must not move it",
    },
    WorkloadDef {
        name: "exec_sim",
        why: "six precompiled programs on the cycle-level simulator: its per-cycle loop does all the work",
    },
    WorkloadDef {
        name: "exec_native",
        why: "the same six programs on the native backend: bypasses the simulator, guards shared queue and host binding",
    },
    WorkloadDef {
        name: "differential",
        why: "three-way oracle/sim/native checks of tiny generated programs: construction and allocation dominate",
    },
    WorkloadDef {
        name: "serve_cold",
        why: "closed-loop socket requests for never-seen programs: protocol, pool hand-off, compile, cache insert, native smoke run; store off while timed, on once in the gate",
    },
    WorkloadDef {
        name: "serve_warm",
        why: "closed-loop Zipf requests for resident programs after a store-backed restart: compile is off the path, cache hit and reply are on it",
    },
];

/// Default length of one run's timed phase, in seconds
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// Looks a metric up by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

/// The metrics the driver sees as `end_to_end`.
pub fn bounded() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|d| matches!(d.class, Class::Bounded(_)))
}

/// The metrics the driver sees as `per_layer` (everything unbounded).
pub fn unbounded() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|d| !matches!(d.class, Class::Bounded(_)))
}

/// `true` for the nine end-to-end metrics (bounded or exact).
pub fn is_end_to_end(def: &MetricDef) -> bool {
    matches!(def.class, Class::Bounded(_) | Class::Exact)
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<_> = bounded().collect();
    for (i, d) in e2e.iter().enumerate() {
        let comma = if i + 1 < e2e.len() { "," } else { "" };
        let Class::Bounded(bound) = d.class else {
            unreachable!("bounded() yields only bounded metrics")
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            d.name,
            d.unit,
            better_str(d.better)
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers: Vec<_> = unbounded().collect();
    for (i, d) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            d.name,
            d.unit,
            better_str(d.better)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for d in METRICS {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("cell·cycles/s") && valid_unit("1/s"));
    }

    #[test]
    fn table_fits_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&bounded().count()));
        assert!((1..=128).contains(&unbounded().count()));
        assert_eq!(METRICS.iter().filter(|d| is_end_to_end(d)).count(), 9);
        for d in bounded() {
            let Class::Bounded(b) = d.class else { panic!() };
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // setup_s carries the largest bound.
        let Class::Bounded(setup_bound) = setup.class else {
            panic!()
        };
        assert!(bounded().all(|d| matches!(d.class, Class::Bounded(b) if b <= setup_bound)));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `w2bench --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
