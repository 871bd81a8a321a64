//! A content-addressed, in-memory compile cache.
//!
//! Processor-array compilers serve the same compiled artifact to many
//! requests: one benchmark kernel is compiled once and re-run across
//! parameter sweeps, classes of clients, and soak iterations. The
//! always-on daemon therefore fronts its worker pool with this cache.
//!
//! * **Keying.** [`cache_key`] hashes the source bytes together with
//!   the wire encoding of every configuration field that affects
//!   compiler output: the full [`CompileOptions`] and the
//!   output-affecting [`SessionCtrl`] fields (`skew_max_events`,
//!   `max_cell_cycles`, `max_source_bytes`, `pipeline`,
//!   `rewrite_fuel`, `backend`). The cancellation token is deliberately
//!   excluded — it never changes what a *completed* compile produces.
//!   Keys are 128-bit [`ContentKey`]s from `warp-common`'s stable
//!   FNV-1a, so they do not depend on `RandomState` seeding and are
//!   the same in every process.
//! * **Single-flight.** N concurrent requests for one key compile once:
//!   the first becomes the leader, the rest block on a condvar and
//!   receive the leader's result. The in-flight marker is cleared by a
//!   drop guard, so a panicking compile (contained by the pool's
//!   `catch_unwind` above us) still wakes the followers — one of them
//!   simply becomes the next leader.
//! * **Negative caching.** Deterministic failures — diagnostics,
//!   `TooLarge`, `TimingOverflow` — are cached with a TTL so a crasher
//!   or always-rejected program cannot stampede the pool with repeated
//!   doomed compiles. `Interrupted` (cancellation/deadline) is *not*
//!   cached: it reflects load, not the program.
//! * **Eviction.** Positive entries are evicted least-recently-used
//!   once the estimated resident bytes exceed the configured budget.
//!   Negative entries expire by TTL and are also dropped first under
//!   pressure (they are cheap to recreate).
//!
//! All counters needed by the `stats`/`cache` daemon verbs and the
//! soak harness's hit-rate assertion are kept in [`CacheStats`].

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use warp_common::wire::{to_bytes, Encode};
use warp_common::{Clock, ContentKey};

use crate::{CompileFailure, CompileOptions, CompiledModule, ExecBackend, SessionCtrl};

/// Knobs of the [`CompileCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Budget on the estimated resident bytes of positive entries
    /// (`0` = unbounded). Exceeding it evicts least-recently-used
    /// entries after each insert.
    pub byte_budget: u64,
    /// Lifetime of a negative (failure) entry in clock ticks
    /// (`0` = negative caching disabled).
    pub negative_ttl_ticks: u64,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            byte_budget: 64 << 20,
            // 60 s at the µs tick rate of `SystemClock`.
            negative_ttl_ticks: 60_000_000,
        }
    }
}

/// Monotonic cache counters, snapshotted by [`CompileCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups served from a positive entry.
    pub hits: u64,
    /// Lookups served from a live negative entry.
    pub negative_hits: u64,
    /// Lookups that found nothing (including expired negatives).
    pub misses: u64,
    /// Positive entries inserted.
    pub inserts: u64,
    /// Negative entries inserted.
    pub negative_inserts: u64,
    /// Positive entries evicted by the byte budget.
    pub evictions: u64,
    /// Negative entries dropped because their TTL had passed.
    pub expired: u64,
    /// Requests that waited for another request's in-flight compile
    /// instead of compiling themselves.
    pub coalesced: u64,
    /// Current estimated resident bytes of positive entries.
    pub resident_bytes: u64,
    /// Current number of entries (positive + live negative).
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (positive or
    /// negative), in `[0, 1]`. Zero before any lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            (self.hits + self.negative_hits) as f64 / self.lookups as f64
        }
    }
}

warp_common::wire_struct!(CompileOptions { machine, iu, lower });

warp_common::wire_enum!(ExecBackend {
    0 => Sim,
    1 => Native,
});

/// The content-addressed key for one compile request: source bytes
/// plus the wire encoding of every option field that affects the
/// output. Two requests with the same key produce the same module or
/// the same deterministic failure, in this process or any other.
///
/// The backend does not change the compiled artifact, but it is part
/// of the request identity: cached entries carry serving metadata (and
/// future backends may specialize), so sim and native requests must
/// not alias.
pub fn cache_key(source: &str, opts: &CompileOptions, ctrl: &SessionCtrl) -> ContentKey {
    let mut request = to_bytes(opts);
    ctrl.skew_max_events.encode(&mut request);
    ctrl.max_cell_cycles.encode(&mut request);
    ctrl.max_source_bytes.encode(&mut request);
    ctrl.pipeline.encode(&mut request);
    ctrl.rewrite_fuel.encode(&mut request);
    ctrl.backend.encode(&mut request);
    ContentKey::of_parts([source.as_bytes(), request.as_slice()])
}

/// Rough resident size of a module: the µcode stores dominate, plus a
/// fixed overhead for the IR tables. Only relative accuracy matters —
/// the budget trades off "how many modules stay warm".
pub fn estimate_module_bytes(module: &CompiledModule) -> u64 {
    4096 + u64::from(module.metrics.cell_ucode) * 64
        + module.metrics.iu_ucode * 64
        + module.name.len() as u64
}

/// `true` for failures that are a deterministic property of the
/// (source, options) pair and therefore safe to cache negatively.
/// `Interrupted` reflects load (deadline/cancel), not the program.
fn is_deterministic_failure(failure: &CompileFailure) -> bool {
    match failure {
        CompileFailure::Diagnostics(_)
        | CompileFailure::TooLarge { .. }
        | CompileFailure::TimingOverflow { .. } => true,
        CompileFailure::Interrupted { .. } => false,
    }
}

enum Entry {
    Positive {
        module: Arc<CompiledModule>,
        bytes: u64,
        last_used: u64,
    },
    Negative {
        failure: CompileFailure,
        expires_at: u64,
    },
}

struct Inner {
    entries: BTreeMap<ContentKey, Entry>,
    /// Keys with a compile in flight (single-flight leaders).
    in_flight: std::collections::BTreeSet<ContentKey>,
    stats: CacheStats,
    /// Recency clock for LRU.
    tick: u64,
}

/// The outcome of one [`CompileCache::get_or_compile`] call, with the
/// provenance the daemon reports per job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from a positive entry.
    Hit,
    /// Served from a live negative entry.
    NegativeHit,
    /// This request compiled (it was the single-flight leader, or the
    /// leader it waited for failed non-deterministically).
    Compiled,
    /// This request waited for a concurrent identical request and
    /// received its result.
    Coalesced,
}

impl CacheOutcome {
    /// `true` when the result came from the cache or a coalesced
    /// in-flight compile rather than a fresh compile.
    pub fn served_without_compile(&self) -> bool {
        !matches!(self, CacheOutcome::Compiled)
    }
}

/// A concurrency-safe content-addressed compile cache. See the module
/// docs for the keying, single-flight, negative-caching, and eviction
/// contracts.
pub struct CompileCache {
    config: CacheConfig,
    clock: Arc<dyn Clock>,
    inner: Mutex<Inner>,
    /// Followers of an in-flight compile wait here.
    flight: Condvar,
}

/// Clears the in-flight marker even if the leader's compile panics.
struct FlightGuard<'a> {
    cache: &'a CompileCache,
    key: ContentKey,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.lock();
        inner.in_flight.remove(&self.key);
        self.cache.flight.notify_all();
    }
}

impl CompileCache {
    /// An empty cache over the given clock (the clock drives negative
    /// TTLs; recency is a logical counter).
    pub fn new(config: CacheConfig, clock: Arc<dyn Clock>) -> CompileCache {
        CompileCache {
            config,
            clock,
            inner: Mutex::new(Inner {
                entries: BTreeMap::new(),
                in_flight: std::collections::BTreeSet::new(),
                stats: CacheStats::default(),
                tick: 0,
            }),
            flight: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// A snapshot of the counters (with `resident_bytes`/`entries`
    /// recomputed to the current state).
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        inner.stats
    }

    /// Looks `key` up; on a miss, runs `compile` (single-flight: if an
    /// identical request is already compiling, waits for it instead)
    /// and populates the cache. Returns the result plus where it came
    /// from.
    pub fn get_or_compile(
        &self,
        key: ContentKey,
        compile: impl FnOnce() -> Result<CompiledModule, CompileFailure>,
    ) -> (Result<Arc<CompiledModule>, CompileFailure>, CacheOutcome) {
        let mut inner = self.lock();
        inner.stats.lookups += 1;
        let mut waited = false;
        loop {
            // Serve from an existing entry.
            let now = self.clock.now_ticks();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.entries.get_mut(&key) {
                Some(Entry::Positive {
                    module, last_used, ..
                }) => {
                    *last_used = tick;
                    let module = module.clone();
                    inner.stats.hits += 1;
                    let outcome = if waited {
                        CacheOutcome::Coalesced
                    } else {
                        CacheOutcome::Hit
                    };
                    return (Ok(module), outcome);
                }
                Some(Entry::Negative {
                    failure,
                    expires_at,
                }) => {
                    if now < *expires_at {
                        let failure = failure.clone();
                        inner.stats.negative_hits += 1;
                        inner.stats.entries = inner.entries.len() as u64;
                        let outcome = if waited {
                            CacheOutcome::Coalesced
                        } else {
                            CacheOutcome::NegativeHit
                        };
                        return (Err(failure), outcome);
                    }
                    inner.entries.remove(&key);
                    inner.stats.expired += 1;
                }
                None => {}
            }
            // Miss: either wait for the in-flight leader or become it.
            if inner.in_flight.contains(&key) {
                waited = true;
                inner.stats.coalesced += 1;
                inner = self
                    .flight
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            inner.stats.misses += 1;
            inner.in_flight.insert(key);
            drop(inner);

            let guard = FlightGuard { cache: self, key };
            let result = compile();
            let out = match result {
                Ok(module) => {
                    let module = Arc::new(module);
                    let bytes = estimate_module_bytes(&module);
                    let mut inner = self.lock();
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner.entries.insert(
                        key,
                        Entry::Positive {
                            module: module.clone(),
                            bytes,
                            last_used: tick,
                        },
                    );
                    inner.stats.inserts += 1;
                    self.evict_over_budget(&mut inner);
                    self.refresh_gauges(&mut inner);
                    Ok(module)
                }
                Err(failure) => {
                    if self.config.negative_ttl_ticks != 0 && is_deterministic_failure(&failure) {
                        let expires_at = self
                            .clock
                            .now_ticks()
                            .saturating_add(self.config.negative_ttl_ticks);
                        let mut inner = self.lock();
                        inner.entries.insert(
                            key,
                            Entry::Negative {
                                failure: failure.clone(),
                                expires_at,
                            },
                        );
                        inner.stats.negative_inserts += 1;
                        self.refresh_gauges(&mut inner);
                    }
                    Err(failure)
                }
            };
            drop(guard);
            return (out, CacheOutcome::Compiled);
        }
    }

    /// Drops every entry (operator `cache clear`). Counters are kept;
    /// gauges reset.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.entries.clear();
        self.refresh_gauges(&mut inner);
    }

    /// `true` when `key` is resident (positive, or unexpired negative).
    /// A pure probe: touches neither the counters nor the LRU order.
    pub fn contains(&self, key: ContentKey) -> bool {
        let inner = self.lock();
        match inner.entries.get(&key) {
            Some(Entry::Positive { .. }) => true,
            Some(Entry::Negative { expires_at, .. }) => self.clock.now_ticks() < *expires_at,
            None => false,
        }
    }

    /// Number of entries currently resident (positive + negative).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// `true` when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn positive_bytes(inner: &Inner) -> u64 {
        inner
            .entries
            .values()
            .map(|e| match e {
                Entry::Positive { bytes, .. } => *bytes,
                Entry::Negative { .. } => 0,
            })
            .sum()
    }

    fn evict_over_budget(&self, inner: &mut Inner) {
        if self.config.byte_budget == 0 {
            return;
        }
        while Self::positive_bytes(inner) > self.config.byte_budget {
            // Expired negatives go first (free), then the LRU positive.
            let now = self.clock.now_ticks();
            let dead: Vec<ContentKey> = inner
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Negative { expires_at, .. } if now >= *expires_at => Some(*k),
                    _ => None,
                })
                .collect();
            for k in &dead {
                inner.entries.remove(k);
                inner.stats.expired += 1;
            }
            let victim = inner
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Positive { last_used, .. } => Some((*last_used, *k)),
                    Entry::Negative { .. } => None,
                })
                .min();
            match victim {
                Some((_, k)) => {
                    inner.entries.remove(&k);
                    inner.stats.evictions += 1;
                }
                None => break,
            }
        }
    }

    fn refresh_gauges(&self, inner: &mut Inner) {
        inner.stats.resident_bytes = Self::positive_bytes(inner);
        inner.stats.entries = inner.entries.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use std::sync::atomic::{AtomicU32, Ordering};
    use warp_common::ManualClock;

    fn compile_ok() -> Result<CompiledModule, CompileFailure> {
        crate::Session::new(CompileOptions::default()).try_compile(corpus::POLYNOMIAL)
    }

    fn cache(budget: u64, ttl: u64) -> CompileCache {
        CompileCache::new(
            CacheConfig {
                byte_budget: budget,
                negative_ttl_ticks: ttl,
            },
            Arc::new(ManualClock::new(0)),
        )
    }

    #[test]
    fn key_is_stable_and_sensitive_to_source_and_options() {
        let opts = CompileOptions::default();
        let ctrl = SessionCtrl::default();
        let k1 = cache_key("module a", &opts, &ctrl);
        assert_eq!(k1, cache_key("module a", &opts, &ctrl));
        assert_ne!(k1, cache_key("module b", &opts, &ctrl));
        // The cancel token does NOT key the cache.
        let cancelled = SessionCtrl {
            cancel: warp_common::CancelToken::new(Arc::new(ManualClock::new(9))),
            ..SessionCtrl::default()
        };
        assert_eq!(k1, cache_key("module a", &opts, &cancelled));
    }

    #[test]
    fn every_option_field_keys_the_cache() {
        let option_edits: [fn(&mut CompileOptions); 16] = [
            |o| o.machine.fp_latency += 1,
            |o| o.machine.div_latency += 1,
            |o| o.machine.mem_latency += 1,
            |o| o.machine.io_latency += 1,
            |o| o.machine.mem_ports += 1,
            |o| o.machine.registers += 1,
            |o| o.machine.queue_capacity += 1,
            |o| o.machine.memory_words += 1,
            |o| o.iu.registers += 1,
            |o| o.iu.table_words += 1,
            |o| o.iu.share_registers ^= true,
            |o| o.iu.strength_reduction ^= true,
            |o| o.lower.optimize ^= true,
            |o| o.lower.memory_words += 1,
            |o| o.lower.unroll += 1,
            |o| o.lower.reassociate ^= true,
        ];
        let ctrl_edits: [fn(&mut SessionCtrl); 6] = [
            |c| c.skew_max_events += 1,
            |c| c.max_cell_cycles += 1,
            |c| c.max_source_bytes += 1,
            |c| c.pipeline ^= true,
            |c| c.rewrite_fuel = Some(3),
            // Requests for different execution backends must not alias.
            |c| c.backend = ExecBackend::Native,
        ];
        let mut keys = std::collections::BTreeSet::new();
        keys.insert(cache_key(
            "module a",
            &CompileOptions::default(),
            &SessionCtrl::default(),
        ));
        for edit in option_edits {
            let mut opts = CompileOptions::default();
            edit(&mut opts);
            keys.insert(cache_key("module a", &opts, &SessionCtrl::default()));
        }
        for edit in ctrl_edits {
            let mut ctrl = SessionCtrl::default();
            edit(&mut ctrl);
            keys.insert(cache_key("module a", &CompileOptions::default(), &ctrl));
        }
        assert_eq!(keys.len(), 1 + 16 + 6, "a one-field change aliased");
    }

    #[test]
    fn second_lookup_hits_without_recompiling() {
        let c = cache(0, 0);
        let key = cache_key(
            corpus::POLYNOMIAL,
            &CompileOptions::default(),
            &SessionCtrl::default(),
        );
        let compiles = AtomicU32::new(0);
        let (r1, o1) = c.get_or_compile(key, || {
            compiles.fetch_add(1, Ordering::SeqCst);
            compile_ok()
        });
        assert!(r1.is_ok());
        assert_eq!(o1, CacheOutcome::Compiled);
        let (r2, o2) = c.get_or_compile(key, || {
            compiles.fetch_add(1, Ordering::SeqCst);
            compile_ok()
        });
        assert!(r2.is_ok());
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_requests() {
        let c = Arc::new(cache(0, 0));
        let key = cache_key(
            corpus::POLYNOMIAL,
            &CompileOptions::default(),
            &SessionCtrl::default(),
        );
        let compiles = Arc::new(AtomicU32::new(0));
        let started = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let (c, compiles, started, release) = (
                c.clone(),
                compiles.clone(),
                started.clone(),
                release.clone(),
            );
            std::thread::spawn(move || {
                c.get_or_compile(key, move || {
                    started.wait(); // follower may now submit
                    release.wait(); // ...and has had a chance to block
                    compiles.fetch_add(1, Ordering::SeqCst);
                    compile_ok()
                })
            })
        };
        started.wait();
        let follower = {
            let (c, compiles) = (c.clone(), compiles.clone());
            std::thread::spawn(move || {
                c.get_or_compile(key, move || {
                    compiles.fetch_add(1, Ordering::SeqCst);
                    compile_ok()
                })
            })
        };
        // Give the follower a moment to reach the wait, then release
        // the leader. (If the follower hasn't blocked yet it will see
        // the fresh entry as a plain hit — also a pass.)
        std::thread::sleep(std::time::Duration::from_millis(20));
        release.wait();
        let (r1, o1) = leader.join().expect("leader");
        let (r2, _o2) = follower.join().expect("follower");
        assert!(r1.is_ok() && r2.is_ok());
        assert_eq!(o1, CacheOutcome::Compiled);
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "exactly one compile");
    }

    #[test]
    fn deterministic_failures_cache_negatively_with_ttl() {
        let clock = Arc::new(ManualClock::new(0));
        let c = CompileCache::new(
            CacheConfig {
                byte_budget: 0,
                negative_ttl_ticks: 100,
            },
            clock.clone(),
        );
        let key = cache_key(
            "module broken",
            &CompileOptions::default(),
            &SessionCtrl::default(),
        );
        let compiles = AtomicU32::new(0);
        let doomed = || crate::Session::new(CompileOptions::default()).try_compile("module broken");
        let (r1, o1) = c.get_or_compile(key, || {
            compiles.fetch_add(1, Ordering::SeqCst);
            doomed()
        });
        assert!(r1.is_err());
        assert_eq!(o1, CacheOutcome::Compiled);
        // Within TTL: served negatively, no recompile.
        let (r2, o2) = c.get_or_compile(key, || {
            compiles.fetch_add(1, Ordering::SeqCst);
            doomed()
        });
        assert!(r2.is_err());
        assert_eq!(o2, CacheOutcome::NegativeHit);
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        // Past TTL: the entry expires and the compile reruns.
        clock.advance(101);
        let (_r3, o3) = c.get_or_compile(key, || {
            compiles.fetch_add(1, Ordering::SeqCst);
            doomed()
        });
        assert_eq!(o3, CacheOutcome::Compiled);
        assert_eq!(compiles.load(Ordering::SeqCst), 2);
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn interrupted_failures_are_not_cached() {
        let c = cache(0, 1_000_000);
        let key = cache_key(
            "module x",
            &CompileOptions::default(),
            &SessionCtrl::default(),
        );
        let compiles = AtomicU32::new(0);
        let interrupted = || {
            Err(CompileFailure::Interrupted {
                pass: "frontend",
                reason: warp_common::CancelReason::Cancelled,
            })
        };
        for _ in 0..2 {
            let (r, o) = c.get_or_compile(key, || {
                compiles.fetch_add(1, Ordering::SeqCst);
                interrupted()
            });
            assert!(r.is_err());
            assert_eq!(o, CacheOutcome::Compiled, "interrupted is never served");
        }
        assert_eq!(compiles.load(Ordering::SeqCst), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_respects_byte_budget_and_recency() {
        // Budget fits roughly one module: inserting a second evicts the
        // least recently used.
        let module = compile_ok().expect("compiles");
        let one = estimate_module_bytes(&module);
        let c = cache(one + one / 2, 0);
        let opts = CompileOptions::default();
        let ctrl = SessionCtrl::default();
        let key_a = cache_key("a", &opts, &ctrl);
        let key_b = cache_key("b", &opts, &ctrl);
        let (_, _) = c.get_or_compile(key_a, compile_ok);
        // Touch A so it is the most recent, then insert B.
        let (_, o) = c.get_or_compile(key_a, compile_ok);
        assert_eq!(o, CacheOutcome::Hit);
        let (_, _) = c.get_or_compile(key_b, compile_ok);
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= c.config().byte_budget);
        // B's insert postdates A's touch, so A is the LRU victim.
        assert!(c.contains(key_b), "B stayed resident");
        assert!(!c.contains(key_a), "A (the LRU) was evicted");
    }

    #[test]
    fn clear_empties_the_cache() {
        let c = cache(0, 0);
        let key = cache_key(
            corpus::POLYNOMIAL,
            &CompileOptions::default(),
            &SessionCtrl::default(),
        );
        let (_, _) = c.get_or_compile(key, compile_ok);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats().resident_bytes, 0);
        let (_, o) = c.get_or_compile(key, compile_ok);
        assert_eq!(o, CacheOutcome::Compiled);
    }
}
