//! The kill/restart recovery soak for the persistent artifact store.
//!
//! Where `soak` proves the *worker pool* under chaos, this
//! module proves the *durability tier*: a store that is killed at a
//! seeded crash-point — mid-write, mid-rename, even mid-recovery —
//! and restarted, over and over, while background disk faults (torn
//! writes, bit flips, `ENOSPC`) fire at seeded rates.
//!
//! The soak runs entirely in-process and deterministically: the
//! "disk" is a [`MemVfs`] that survives across simulated process
//! lifetimes, each lifetime wraps it in a fresh [`FaultVfs`] with a
//! crash-point drawn from the seed, and the "process" is a
//! [`TieredCache`] (memory tier + [`DiskStore`]) that is dropped and
//! rebuilt every life — exactly the state a `kill -9` loses.
//!
//! Each life serves a seeded Zipfian request mix and checks two
//! invariants per response and one per restart:
//!
//! 1. **Never serve corruption.** Every served module's canonical
//!    bytes (timings zeroed, see
//!    [`canonical_artifact_bytes`](crate::store::canonical_artifact_bytes))
//!    must equal those of a known-good fresh compile of the same
//!    program, bitwise.
//! 2. **Always serve.** Every request must succeed — disk faults may
//!    cost a recompile, never an error.
//! 3. **Recovery is total.** At each restart, every artifact file in
//!    the store directory was either recovered intact or quarantined;
//!    none is left unaccounted, and the on-disk file count afterwards
//!    matches the recovered index.
//!
//! A final fault-free life measures the warm hit rate (how much of
//! the universe survived the whole ordeal on disk) and cold-compile
//! vs. warm-hit latency, and a deterministic [`ManualClock`] phase
//! exercises negative-cache TTL expiry end to end. Run-twice
//! determinism: every counter and outcome in the report except the
//! wall-clock latency fields is a pure function of the seed.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use warp_common::vfs::{FaultCounts, FaultProfile, FaultVfs};
use warp_common::{ManualClock, MemVfs, SplitMix64, Vfs};

use crate::cache::{cache_key, CacheConfig, CompileCache};
use crate::report::json_str_array;
use crate::soak::{program_universe, zipf};
use crate::store::{
    canonical_artifact_bytes, DiskStore, StoreConfig, StoreStats, TieredCache, TieredOutcome,
};
use crate::{CompileFailure, CompileOptions, Session, SessionCtrl};

/// Configuration of one crash/restart soak run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashSoakConfig {
    /// Seed for everything: request mix, crash-point placement,
    /// background fault arrivals.
    pub seed: u64,
    /// Simulated process lifetimes, each armed with one crash-point.
    pub lives: u64,
    /// Requests served per lifetime (fewer if the crash fires first
    /// and the life is cut short).
    pub requests_per_life: usize,
    /// Disk-tier byte budget (0 = unbounded).
    pub store_bytes: u64,
    /// Torn-write probability per mille per write.
    pub torn_write_per_mille: u64,
    /// Bit-flip probability per mille per read.
    pub bit_flip_per_mille: u64,
    /// `ENOSPC` probability per mille per write.
    pub no_space_per_mille: u64,
    /// Negative-cache TTL (ticks) for the `ManualClock` expiry phase.
    pub negative_ttl_ticks: u64,
}

impl Default for CrashSoakConfig {
    fn default() -> CrashSoakConfig {
        CrashSoakConfig {
            seed: 0xC0A5_7AC5,
            // ≥ 50 fired crash-points is the acceptance bar; roughly
            // half the draws land past a life's op count (that life
            // survives — also worth exercising), so 128 lives keep a
            // comfortable margin over the bar.
            lives: 128,
            requests_per_life: 24,
            store_bytes: 0,
            torn_write_per_mille: 60,
            bit_flip_per_mille: 25,
            no_space_per_mille: 15,
            negative_ttl_ticks: 1_000,
        }
    }
}

/// What one simulated lifetime observed (determinism-guard identity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LifeSummary {
    /// Lifetime index.
    pub life: u64,
    /// Op number the crash-point was armed at.
    pub crash_armed_at: u64,
    /// Whether the crash actually fired this life.
    pub crashed: bool,
    /// Artifacts recovered intact by this life's opening scan.
    pub recovered: u64,
    /// Entries quarantined by this life's opening scan.
    pub quarantined: u64,
    /// Requests served before death.
    pub served: u64,
    /// Per-outcome counts: memory hits, disk hits, compiles.
    pub memory_hits: u64,
    /// Requests served by decoding a disk artifact.
    pub disk_hits: u64,
    /// Requests that ran the compiler.
    pub compiles: u64,
}

/// Everything one crash soak observed.
#[derive(Clone, Debug)]
pub struct CrashSoakReport {
    /// The configuration that produced this report.
    pub config: CrashSoakConfig,
    /// One summary per simulated lifetime.
    pub lives: Vec<LifeSummary>,
    /// Lifetimes whose crash-point actually fired.
    pub crash_points_fired: u64,
    /// Total requests served across all lives.
    pub served: u64,
    /// Served modules whose canonical bytes mismatched the known-good
    /// compile (must be 0).
    pub corrupt_served: u64,
    /// Total artifacts recovered across all restarts.
    pub recovered_total: u64,
    /// Total entries quarantined across all restarts and reads.
    pub quarantined_total: u64,
    /// Total `.tmp` crash leftovers cleaned across all restarts.
    pub tmp_cleaned_total: u64,
    /// Disk-tier hits across all lives.
    pub disk_hits: u64,
    /// Compiles across all lives.
    pub compiles: u64,
    /// Disk writes that failed (crash, `ENOSPC`, fault).
    pub put_failures: u64,
    /// Background fault totals across all lives.
    pub faults: FaultCounts,
    /// Fraction of the program universe served from disk by the
    /// final fault-free restart.
    pub warm_hit_rate: f64,
    /// Disk-tier counters of the final fault-free restart.
    pub final_store: StoreStats,
    /// Negative-cache entries that expired in the TTL phase.
    pub ttl_expired: u64,
    /// Mean cold-compile latency (µs wall clock; not part of the
    /// determinism identity).
    pub cold_mean_us: u64,
    /// Mean warm disk-hit latency (µs wall clock; not part of the
    /// determinism identity).
    pub warm_mean_us: u64,
    /// Invariant violations observed (empty = the run proved out).
    pub violations: Vec<String>,
}

impl CrashSoakReport {
    /// `true` when every durability invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The seed-determined identity of the run: everything except the
    /// wall-clock latency fields. Two runs with one seed must agree.
    pub fn identity(&self) -> (Vec<LifeSummary>, Vec<u64>, f64) {
        (
            self.lives.clone(),
            vec![
                self.crash_points_fired,
                self.served,
                self.corrupt_served,
                self.recovered_total,
                self.quarantined_total,
                self.tmp_cleaned_total,
                self.disk_hits,
                self.compiles,
                self.put_failures,
                self.faults.total(),
                self.ttl_expired,
            ],
            self.warm_hit_rate,
        )
    }

    /// Renders the crash-soak `BENCH_serve.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"warp-crash-soak-v1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"lives\": {},\n", self.config.lives));
        out.push_str(&format!(
            "  \"crash_points_fired\": {},\n",
            self.crash_points_fired
        ));
        out.push_str(&format!("  \"served\": {},\n", self.served));
        out.push_str(&format!("  \"corrupt_served\": {},\n", self.corrupt_served));
        out.push_str(&format!(
            "  \"recovered_total\": {},\n",
            self.recovered_total
        ));
        out.push_str(&format!(
            "  \"quarantined_total\": {},\n",
            self.quarantined_total
        ));
        out.push_str(&format!(
            "  \"tmp_cleaned_total\": {},\n",
            self.tmp_cleaned_total
        ));
        out.push_str(&format!("  \"disk_hits\": {},\n", self.disk_hits));
        out.push_str(&format!("  \"compiles\": {},\n", self.compiles));
        out.push_str(&format!("  \"put_failures\": {},\n", self.put_failures));
        out.push_str(&format!(
            "  \"faults\": {{\"torn_writes\": {}, \"short_reads\": {}, \"bit_flips\": {}, \
             \"no_space\": {}, \"io_errors\": {}}},\n",
            self.faults.torn_writes,
            self.faults.short_reads,
            self.faults.bit_flips,
            self.faults.no_space,
            self.faults.io_errors,
        ));
        out.push_str(&format!(
            "  \"warm_hit_rate\": {:.4},\n",
            self.warm_hit_rate
        ));
        out.push_str(&format!(
            "  \"cold_restart_mean_us\": {},\n",
            self.cold_mean_us
        ));
        out.push_str(&format!(
            "  \"warm_restart_mean_us\": {},\n",
            self.warm_mean_us
        ));
        out.push_str(&format!("  \"ttl_expired\": {},\n", self.ttl_expired));
        out.push_str(&format!(
            "  \"violations\": {}\n}}\n",
            json_str_array(&self.violations)
        ));
        out
    }
}

const STORE_DIR: &str = "/crash-soak/store";

/// The expected canonical bytes of every universe program, from
/// fault-free compiles: the ground truth every served module is
/// bitwise-checked against.
struct GroundTruth {
    programs: Vec<(&'static str, String, warp_common::ContentKey, Vec<u8>)>,
}

fn ground_truth(opts: &CompileOptions, ctrl: &SessionCtrl) -> GroundTruth {
    let programs = program_universe()
        .into_iter()
        .map(|(name, source)| {
            let module = Session::new(opts.clone())
                .try_compile(&source)
                .expect("universe program compiles");
            let key = cache_key(&source, opts, ctrl);
            let canon = canonical_artifact_bytes(&module);
            (name, source, key, canon)
        })
        .collect();
    GroundTruth { programs }
}

fn fresh_compile(
    opts: &CompileOptions,
    source: &str,
) -> Result<crate::CompiledModule, CompileFailure> {
    Session::new(opts.clone()).try_compile(source)
}

/// Runs the crash/restart soak. See the module docs for the phases
/// and invariants.
pub fn run_crash_soak(config: &CrashSoakConfig) -> CrashSoakReport {
    let opts = CompileOptions::default();
    let ctrl = SessionCtrl::default();
    let truth = ground_truth(&opts, &ctrl);
    let disk = MemVfs::new();
    let mut rng = SplitMix64::new(config.seed);
    let store_config = StoreConfig {
        dir: PathBuf::from(STORE_DIR),
        byte_budget: config.store_bytes,
    };

    let mut lives = Vec::new();
    let mut violations = Vec::new();
    let mut faults = FaultCounts::default();
    let mut totals = (0u64, 0u64, 0u64); // recovered, quarantined, tmp
    let mut corrupt_served = 0u64;
    let mut served = 0u64;
    let mut disk_hits = 0u64;
    let mut compiles = 0u64;
    let mut put_failures = 0u64;
    let mut crash_points_fired = 0u64;

    for life in 0..config.lives {
        // Arm this life's crash-point. The recovery scan itself ticks
        // the op counter, so small draws kill the store mid-recovery
        // — the nastiest restart there is. The window is kept inside
        // the ops a typical life performs (scan reads + first-touch
        // disk hits + write-through puts); once the memory tier is
        // warm a life stops touching the disk, so a draw past the
        // window simply means that life survives.
        let crash_armed_at = 1 + rng.below(28);
        let profile = FaultProfile {
            seed: rng.next_u64(),
            torn_write_per_mille: config.torn_write_per_mille,
            short_read_per_mille: 0,
            bit_flip_per_mille: config.bit_flip_per_mille,
            no_space_per_mille: config.no_space_per_mille,
            io_error_per_mille: 0,
            crash_at_op: Some(crash_armed_at),
        };
        let vfs = Arc::new(FaultVfs::new(Arc::new(disk.clone()), profile));

        let mut summary = LifeSummary {
            life,
            crash_armed_at,
            crashed: false,
            recovered: 0,
            quarantined: 0,
            served: 0,
            memory_hits: 0,
            disk_hits: 0,
            compiles: 0,
        };

        // An open killed by the crash-point (or an injected fault)
        // degrades to memory-only, exactly as the real daemon does.
        let store = DiskStore::open(vfs.clone(), store_config.clone()).ok();
        if let Some(store) = &store {
            let warm = store.stats();
            summary.recovered = warm.recovered;
            summary.quarantined = warm.quarantined;
            totals.0 += warm.recovered;
            totals.1 += warm.quarantined;
            totals.2 += warm.tmp_cleaned;
        }
        let tiered = TieredCache::new(
            CompileCache::new(CacheConfig::default(), Arc::new(ManualClock::new(0))),
            store,
        );

        for r in 0..config.requests_per_life {
            let pick = zipf(&mut rng, truth.programs.len());
            let (name, source, key, canon) = &truth.programs[pick];
            let (result, outcome) = tiered.get_or_compile(*key, || fresh_compile(&opts, source));
            match result {
                Ok(module) => {
                    summary.served += 1;
                    if canonical_artifact_bytes(&module) != *canon {
                        corrupt_served += 1;
                        violations.push(format!(
                            "life {life} request {r}: served corrupt artifact for `{name}` \
                             (outcome {})",
                            outcome.label()
                        ));
                    }
                }
                Err(_) => violations.push(format!(
                    "life {life} request {r}: `{name}` failed to serve — \
                     disk faults must never surface as errors"
                )),
            }
            match outcome {
                TieredOutcome::MemoryHit => summary.memory_hits += 1,
                TieredOutcome::DiskHit => summary.disk_hits += 1,
                TieredOutcome::Compiled => summary.compiles += 1,
                TieredOutcome::NegativeHit | TieredOutcome::Coalesced => {}
            }
            // Process death: the memory tier and store index vanish;
            // whatever reached the durable tree is next life's
            // problem. Serve out of memory a moment longer and the
            // soak would miss the interesting window, so die now.
            if vfs.has_crashed() {
                break;
            }
        }

        summary.crashed = vfs.has_crashed();
        if summary.crashed {
            crash_points_fired += 1;
        }
        served += summary.served;
        disk_hits += summary.disk_hits;
        compiles += summary.compiles;
        if let Some(store) = tiered.disk() {
            let s = store.stats();
            put_failures += s.put_failures;
            // Quarantines during reads (not counted by the open scan).
            totals.1 += s.quarantined - summary.quarantined;
        }
        let c = vfs.fault_counts();
        faults.torn_writes += c.torn_writes;
        faults.short_reads += c.short_reads;
        faults.bit_flips += c.bit_flips;
        faults.no_space += c.no_space;
        faults.io_errors += c.io_errors;
        lives.push(summary);
    }

    // Final fault-free restart: recovery must be total, and whatever
    // survived must serve bitwise-correct. Measures the warm hit rate
    // and cold-vs-warm latency for BENCH_serve.json.
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let store = DiskStore::open(vfs, store_config).expect("fault-free open succeeds");
    let final_warm = store.stats();
    totals.0 += final_warm.recovered;
    totals.1 += final_warm.quarantined;
    totals.2 += final_warm.tmp_cleaned;
    if disk.file_count() as u64 != final_warm.recovered {
        violations.push(format!(
            "recovery not total: {} files on disk after a scan that recovered {}",
            disk.file_count(),
            final_warm.recovered
        ));
    }
    let tiered = TieredCache::new(
        CompileCache::new(CacheConfig::default(), Arc::new(ManualClock::new(0))),
        Some(store),
    );
    let mut warm_hits = 0u64;
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    for (name, source, key, canon) in &truth.programs {
        let start = Instant::now();
        let (result, outcome) = tiered.get_or_compile(*key, || fresh_compile(&opts, source));
        let elapsed = start.elapsed().as_micros() as u64;
        match result {
            Ok(module) => {
                if canonical_artifact_bytes(&module) != *canon {
                    corrupt_served += 1;
                    violations.push(format!(
                        "final restart: served corrupt artifact for `{name}`"
                    ));
                }
            }
            Err(_) => violations.push(format!("final restart: `{name}` failed to serve")),
        }
        match outcome {
            TieredOutcome::DiskHit => {
                warm_hits += 1;
                warm_us.push(elapsed);
            }
            TieredOutcome::Compiled => cold_us.push(elapsed),
            _ => {}
        }
    }
    served += truth.programs.len() as u64;
    disk_hits += warm_hits;
    let warm_hit_rate = warm_hits as f64 / truth.programs.len() as f64;
    let final_store = tiered.disk().expect("disk tier").stats();
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0
        } else {
            v.iter().sum::<u64>() / v.len() as u64
        }
    };

    // Negative-TTL phase on a ManualClock: a deterministic failure is
    // cached negative, expires after the configured ticks, and is
    // recompiled — the end-to-end proof the TTL runs on the injected
    // clock, not wall time.
    let clock = Arc::new(ManualClock::new(0));
    let ttl_cache = TieredCache::new(
        CompileCache::new(
            CacheConfig {
                negative_ttl_ticks: config.negative_ttl_ticks,
                ..CacheConfig::default()
            },
            clock.clone(),
        ),
        None,
    );
    let bad_source = "module broken";
    let bad_key = cache_key(bad_source, &opts, &ctrl);
    let run_bad = || ttl_cache.get_or_compile(bad_key, || fresh_compile(&opts, bad_source));
    let (_, first) = run_bad();
    let (_, second) = run_bad();
    clock.advance(config.negative_ttl_ticks + 1);
    let (_, third) = run_bad();
    let ttl_expired = ttl_cache.memory().stats().expired;
    if first != TieredOutcome::Compiled
        || second != TieredOutcome::NegativeHit
        || third != TieredOutcome::Compiled
        || ttl_expired == 0
    {
        violations.push(format!(
            "negative TTL phase: expected compiled/negative-hit/compiled with an expiry, \
             got {}/{}/{} with {} expired",
            first.label(),
            second.label(),
            third.label(),
            ttl_expired
        ));
    }

    CrashSoakReport {
        config: config.clone(),
        lives,
        crash_points_fired,
        served,
        corrupt_served,
        recovered_total: totals.0,
        quarantined_total: totals.1,
        tmp_cleaned_total: totals.2,
        disk_hits,
        compiles,
        put_failures,
        faults,
        warm_hit_rate,
        final_store,
        ttl_expired,
        cold_mean_us: mean(&cold_us),
        warm_mean_us: mean(&warm_us),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CrashSoakConfig {
        CrashSoakConfig {
            lives: 12,
            requests_per_life: 8,
            ..CrashSoakConfig::default()
        }
    }

    #[test]
    fn crash_soak_holds_invariants() {
        let report = run_crash_soak(&quick());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.corrupt_served, 0);
        assert!(report.crash_points_fired > 0, "no crash-point ever fired");
        assert!(report.served > 0);
    }

    #[test]
    fn crash_soak_is_deterministic() {
        let a = run_crash_soak(&quick());
        let b = run_crash_soak(&quick());
        assert_eq!(a.identity(), b.identity());
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = run_crash_soak(&CrashSoakConfig {
            lives: 4,
            requests_per_life: 4,
            ..CrashSoakConfig::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"warp-crash-soak-v1\""));
        assert!(json.contains("\"corrupt_served\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
