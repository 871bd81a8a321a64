//! The kill/restart recovery scenario for the persistent artifact
//! store.
//!
//! Where [`crate::scenario`] proves the *worker pool* under chaos,
//! this module proves the *durability tier*: a store that is killed at
//! a seeded crash-point — mid-write, mid-rename, even mid-recovery —
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
//! 1. **Never serve corruption.** Every served module's
//!    [`artifact_bytes`](crate::store::artifact_bytes) must equal
//!    those of a known-good fresh compile of the same program,
//!    bitwise.
//! 2. **Always serve.** Every request must succeed — disk faults may
//!    cost a recompile, never an error.
//! 3. **Recovery is total.** At each restart, every artifact file in
//!    the store directory was either recovered intact or quarantined;
//!    none is left unaccounted, and the on-disk file count afterwards
//!    matches the recovered index.
//!
//! A final fault-free life counts how much of the universe survived
//! the whole ordeal on disk (`warm-hits`), and a deterministic
//! [`ManualClock`] phase exercises negative-cache TTL expiry end to
//! end. The [`Verdict`]'s identity is one `(life, what it saw)` pair
//! per lifetime; it and every counter are a pure function of the seed.

use std::path::PathBuf;
use std::sync::Arc;

use warp_common::vfs::{FaultProfile, FaultVfs};
use warp_common::{ManualClock, MemVfs, SplitMix64, Vfs};

use crate::cache::{cache_key, CacheConfig, CompileCache};
use crate::scenario::{program_universe, zipf, Verdict};
use crate::store::{artifact_bytes, DiskStore, StoreConfig, TieredCache, TieredOutcome};
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
        }
    }
}

/// Counters of [`run_crash_soak`] that must be nonzero for the run to
/// have proved anything.
pub const CRASH_FLOORS: &[&str] = &["crash-points-fired", "warm-hits"];

const STORE_DIR: &str = "/crash-soak/store";

/// Name, source, key and expected artifact bytes of every universe
/// program, from fault-free compiles: the ground truth every served
/// module is bitwise-checked against.
fn ground_truth(
    opts: &CompileOptions,
    ctrl: &SessionCtrl,
) -> Vec<(&'static str, String, warp_common::ContentKey, Vec<u8>)> {
    program_universe()
        .into_iter()
        .map(|(name, source)| {
            let module = Session::new(opts.clone())
                .try_compile(&source)
                .expect("universe program compiles");
            let key = cache_key(&source, opts, ctrl);
            let canon = artifact_bytes(&module);
            (name, source, key, canon)
        })
        .collect()
}

fn fresh_compile(
    opts: &CompileOptions,
    source: &str,
) -> Result<crate::CompiledModule, CompileFailure> {
    Session::new(opts.clone()).try_compile(source)
}

/// Runs the crash/restart soak. See the module docs for the phases
/// and invariants.
pub fn run_crash_soak(config: &CrashSoakConfig) -> Verdict {
    // Negative-cache TTL (ticks) of the `ManualClock` expiry phase.
    const NEGATIVE_TTL_TICKS: u64 = 1_000;
    let opts = CompileOptions::default();
    let ctrl = SessionCtrl::default();
    let truth = ground_truth(&opts, &ctrl);
    let disk = MemVfs::new();
    let mut rng = SplitMix64::new(config.seed);
    let store_config = StoreConfig {
        dir: PathBuf::from(STORE_DIR),
        // Unbounded: `warm-hits` counts how much of the universe the
        // ordeal left on disk, which a budget would cap instead.
        byte_budget: 0,
    };

    let mut identity = Vec::new();
    let mut violations = Vec::new();
    let (mut torn_writes, mut bit_flips, mut no_space) = (0u64, 0u64, 0u64);
    let (mut recovered, mut quarantined, mut tmp_cleaned) = (0u64, 0u64, 0u64);
    let mut corrupt_served = 0u64;
    let mut served = 0u64;
    let mut disk_hits = 0u64;
    let mut compiles = 0u64;
    let mut put_failures = 0u64;
    let mut crash_points_fired = 0u64;

    for life in 0..config.lives {
        // Arm this life's crash-point. The recovery scan itself ticks
        // the op counter, so small draws kill the store mid-recovery
        // — the nastiest restart there is. The 28-op window is kept
        // inside the ops a typical life performs (scan reads +
        // first-touch disk hits + write-through puts); once the memory
        // tier is warm a life stops touching the disk, so a draw past
        // the window simply means that life survives.
        let crash_armed_at = 1 + rng.below(28);
        // Background disk faults on top of the crash-point: rare
        // enough (a few dozen over a default run) that most puts land.
        let profile = FaultProfile {
            seed: rng.next_u64(),
            torn_write_per_mille: 60,
            short_read_per_mille: 0,
            bit_flip_per_mille: 25,
            no_space_per_mille: 15,
            io_error_per_mille: 0,
            crash_at_op: Some(crash_armed_at),
        };
        let vfs = Arc::new(FaultVfs::new(Arc::new(disk.clone()), profile));

        // An open killed by the crash-point (or an injected fault)
        // degrades to memory-only, exactly as the real daemon does.
        let store = DiskStore::open(vfs.clone(), store_config.clone()).ok();
        let opened = store.as_ref().map(DiskStore::stats).unwrap_or_default();
        recovered += opened.recovered;
        quarantined += opened.quarantined;
        tmp_cleaned += opened.tmp_cleaned;
        let tiered = TieredCache::new(
            CompileCache::new(CacheConfig::default(), Arc::new(ManualClock::new(0))),
            store,
        );

        let (mut life_served, mut memory, mut from_disk, mut compiled) = (0u64, 0u64, 0u64, 0u64);
        for r in 0..config.requests_per_life {
            let pick = zipf(&mut rng, truth.len());
            let (name, source, key, canon) = &truth[pick];
            let (result, outcome) = tiered.get_or_compile(*key, || fresh_compile(&opts, source));
            match result {
                Ok(module) => {
                    life_served += 1;
                    if artifact_bytes(&module) != *canon {
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
                TieredOutcome::MemoryHit => memory += 1,
                TieredOutcome::DiskHit => from_disk += 1,
                TieredOutcome::Compiled => compiled += 1,
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

        let crashed = vfs.has_crashed();
        crash_points_fired += u64::from(crashed);
        served += life_served;
        disk_hits += from_disk;
        compiles += compiled;
        if let Some(store) = tiered.disk() {
            let s = store.stats();
            put_failures += s.put_failures;
            // Quarantines during reads (not counted by the open scan).
            quarantined += s.quarantined - opened.quarantined;
        }
        let faults = vfs.fault_counts();
        torn_writes += faults.torn_writes;
        bit_flips += faults.bit_flips;
        no_space += faults.no_space;
        identity.push((
            format!("life-{life:03}"),
            format!(
                "armed={crash_armed_at} crashed={crashed} recovered={} quarantined={} \
                 served={life_served} memory={memory} disk={from_disk} compiled={compiled}",
                opened.recovered, opened.quarantined
            ),
        ));
    }

    // Final fault-free restart: recovery must be total, and whatever
    // survived must serve bitwise-correct.
    let vfs: Arc<dyn Vfs> = Arc::new(disk.clone());
    let store = DiskStore::open(vfs, store_config).expect("fault-free open succeeds");
    let final_warm = store.stats();
    recovered += final_warm.recovered;
    quarantined += final_warm.quarantined;
    tmp_cleaned += final_warm.tmp_cleaned;
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
    for (name, source, key, canon) in &truth {
        let (result, outcome) = tiered.get_or_compile(*key, || fresh_compile(&opts, source));
        match result {
            Ok(module) => {
                if artifact_bytes(&module) != *canon {
                    corrupt_served += 1;
                    violations.push(format!(
                        "final restart: served corrupt artifact for `{name}`"
                    ));
                }
            }
            Err(_) => violations.push(format!("final restart: `{name}` failed to serve")),
        }
        warm_hits += u64::from(outcome == TieredOutcome::DiskHit);
    }
    served += truth.len() as u64;
    disk_hits += warm_hits;

    // Negative-TTL phase on a ManualClock: a deterministic failure is
    // cached negative, expires after the configured ticks, and is
    // recompiled — the end-to-end proof the TTL runs on the injected
    // clock, not wall time.
    let clock = Arc::new(ManualClock::new(0));
    let ttl_cache = TieredCache::new(
        CompileCache::new(
            CacheConfig {
                negative_ttl_ticks: NEGATIVE_TTL_TICKS,
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
    clock.advance(NEGATIVE_TTL_TICKS + 1);
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

    Verdict {
        counters: Verdict::named(&[
            ("crash-points-fired", crash_points_fired),
            ("served", served),
            ("corrupt-served", corrupt_served),
            ("recovered", recovered),
            ("quarantined", quarantined),
            ("tmp-cleaned", tmp_cleaned),
            ("disk-hits", disk_hits),
            ("compiles", compiles),
            ("put-failures", put_failures),
            ("torn-writes", torn_writes),
            ("bit-flips", bit_flips),
            ("no-space", no_space),
            ("warm-hits", warm_hits),
            ("ttl-expired", ttl_expired),
        ]),
        identity,
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
        assert_eq!(report.counter("corrupt-served"), 0);
        assert!(
            report.counter("crash-points-fired") > 0,
            "no crash-point ever fired"
        );
        assert!(report.counter("served") > 0);
    }

    #[test]
    fn crash_soak_is_deterministic() {
        let a = run_crash_soak(&quick());
        let b = run_crash_soak(&quick());
        assert_eq!(a, b);
    }
}
