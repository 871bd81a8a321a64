//! The crash-safe persistent artifact store: the disk tier under the
//! in-memory [`CompileCache`].
//!
//! A compiled module is serialized with the deterministic wire codec
//! (`warp_common::wire`), framed as a versioned, checksummed record
//! (`warp_common::vfs::record`), and written via the atomic
//! write-temp/fsync/rename protocol to `<store-dir>/<key>.wart`,
//! where `<key>` is the 32-hex-digit [`ContentKey`] of the compile
//! request. All I/O goes through the [`Vfs`] abstraction, so the same
//! store runs over the real filesystem in production and over a
//! fault-injecting in-memory tree in the crash soak.
//!
//! # Recovery and quarantine
//!
//! Opening a store scans its directory once:
//!
//! * `*.tmp` staging leftovers (a crash between write and rename) are
//!   deleted and counted — the target file, if present, still holds
//!   its previous intact content.
//! * Files whose name is not `<32 hex>.wart` are quarantined.
//! * Every artifact's record framing (length, checksum, magic,
//!   schema version) is validated; a torn, bit-flipped, truncated, or
//!   stale-schema record is **quarantined**: deleted and counted,
//!   never indexed, never served.
//!
//! Payload decode runs lazily on first read; a record whose checksum
//! passes but whose payload no longer decodes (e.g. an enum tag was
//! retired without a schema bump) is quarantined at that point. The
//! invariant either way: a byte that was not written by this schema's
//! encoder is never handed to a client.
//!
//! # Eviction
//!
//! A byte budget (0 = unbounded) is enforced after every put and at
//! open: least-recently-used artifacts are deleted until the resident
//! bytes fit, except the most recently used one, so a single artifact
//! larger than the budget still persists (mirroring the memory tier).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use warp_common::vfs::{atomic_write, record, Vfs, VfsError, TMP_SUFFIX};
use warp_common::wire::{from_bytes, to_bytes};
use warp_common::ContentKey;

use crate::cache::{CacheOutcome, CompileCache};
use crate::{CompileFailure, CompiledModule, Metrics};

/// Schema version of the serialized artifact payload. Bump whenever
/// any wire impl reachable from [`CompiledModule`] changes (field
/// order, enum tags), or what [`cache_key`](crate::cache::cache_key)
/// hashes: old records then quarantine as stale instead of
/// misdecoding. Version 2: host scripts are loop nests, not per-word
/// lists. Version 3: no wall-clock timings in [`Metrics`]; the key
/// hashes the options' wire encoding.
pub const STORE_SCHEMA_VERSION: u16 = 3;

/// File extension of persisted artifacts.
pub const ARTIFACT_EXT: &str = "wart";

// --- CompiledModule wire codec -------------------------------------

warp_common::wire_struct!(Metrics {
    w2_lines,
    cell_ucode,
    iu_ucode,
    rewrite_hits,
});

warp_common::wire_struct!(CompiledModule {
    name,
    n_cells,
    ir,
    cell_code,
    iu,
    host,
    skew,
    comm,
    machine,
    metrics,
    warnings,
});

/// Serializes a module to its exact artifact payload bytes. A module
/// is a pure function of (source, options), so two compiles of one
/// source agree on these bitwise.
pub fn artifact_bytes(module: &CompiledModule) -> Vec<u8> {
    to_bytes(module)
}

/// Alias of [`artifact_bytes`], kept only because
/// `benchmark/src/workloads/compile.rs` still imports it (ROADMAP 2b
/// drops that import, then this goes).
pub fn canonical_artifact_bytes(module: &CompiledModule) -> Vec<u8> {
    artifact_bytes(module)
}

// --- Disk store ----------------------------------------------------

/// Configuration of a [`DiskStore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreConfig {
    /// Directory holding the artifact files (created on open).
    pub dir: PathBuf,
    /// Resident-byte budget; 0 means unbounded.
    pub byte_budget: u64,
}

impl StoreConfig {
    /// An unbounded store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            byte_budget: 0,
        }
    }
}

/// Counters of a [`DiskStore`]. `entries`/`resident_bytes` are
/// gauges; the rest are monotonic over the store's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifacts found intact by the opening recovery scan.
    pub recovered: u64,
    /// Corrupt/truncated/stale/foreign entries deleted, at open or on
    /// a failed read.
    pub quarantined: u64,
    /// `.tmp` staging leftovers deleted by the recovery scan.
    pub tmp_cleaned: u64,
    /// Reads served from an intact artifact.
    pub hits: u64,
    /// Reads of keys with no (intact) artifact.
    pub misses: u64,
    /// Artifacts written successfully.
    pub puts: u64,
    /// Writes that failed (ENOSPC, EIO, crash).
    pub put_failures: u64,
    /// Artifacts deleted by the byte budget.
    pub evictions: u64,
    /// Artifacts currently indexed.
    pub entries: u64,
    /// Bytes currently on disk across indexed artifacts.
    pub resident_bytes: u64,
}

struct IndexEntry {
    bytes: u64,
    last_used: u64,
}

struct StoreInner {
    index: BTreeMap<ContentKey, IndexEntry>,
    stats: StoreStats,
    tick: u64,
}

/// The persistent artifact tier. See the module docs for the on-disk
/// protocol. All methods take `&self`; a mutex serializes index
/// updates and I/O.
pub struct DiskStore {
    vfs: Arc<dyn Vfs>,
    config: StoreConfig,
    inner: Mutex<StoreInner>,
}

impl DiskStore {
    /// Opens (or creates) the store and runs the recovery scan.
    ///
    /// # Errors
    ///
    /// Fails only if the directory cannot be created or listed;
    /// individual bad entries are quarantined, not errors.
    pub fn open(vfs: Arc<dyn Vfs>, config: StoreConfig) -> Result<DiskStore, VfsError> {
        vfs.create_dir_all(&config.dir)?;
        let mut inner = StoreInner {
            index: BTreeMap::new(),
            stats: StoreStats::default(),
            tick: 0,
        };
        let mut files = vfs.list_files(&config.dir)?;
        files.sort();
        for path in files {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(TMP_SUFFIX) {
                let _ = vfs.remove_file(&path);
                inner.stats.tmp_cleaned += 1;
                continue;
            }
            let Some(key) = key_from_file_name(name) else {
                let _ = vfs.remove_file(&path);
                inner.stats.quarantined += 1;
                continue;
            };
            let intact = match vfs.read(&path) {
                Ok(bytes) => {
                    let len = bytes.len() as u64;
                    record::decode(&bytes, STORE_SCHEMA_VERSION)
                        .is_ok()
                        .then_some(len)
                }
                Err(_) => None,
            };
            match intact {
                Some(len) => {
                    let tick = inner.tick;
                    inner.tick += 1;
                    inner.index.insert(
                        key,
                        IndexEntry {
                            bytes: len,
                            last_used: tick,
                        },
                    );
                    inner.stats.recovered += 1;
                }
                None => {
                    let _ = vfs.remove_file(&path);
                    inner.stats.quarantined += 1;
                }
            }
        }
        let store = DiskStore {
            vfs,
            config,
            inner: Mutex::new(inner),
        };
        {
            let mut inner = store.lock();
            store.evict_over_budget(&mut inner);
            Self::refresh_gauges(&mut inner);
        }
        Ok(store)
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Number of indexed artifacts.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// `true` when no artifact is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when an intact artifact for `key` is indexed (pure
    /// probe: no counters, no recency update, no payload validation).
    pub fn contains(&self, key: ContentKey) -> bool {
        self.lock().index.contains_key(&key)
    }

    /// Reads and decodes the artifact for `key`.
    ///
    /// Returns `None` on a miss — including the case where the file
    /// turns out corrupt or undecodable at read time, in which case
    /// it is quarantined first. A module this returns was bitwise
    /// validated against its record checksum.
    pub fn get(&self, key: ContentKey) -> Option<CompiledModule> {
        let mut inner = self.lock();
        if !inner.index.contains_key(&key) {
            inner.stats.misses += 1;
            return None;
        }
        let path = self.path_for(key);
        let module = self
            .vfs
            .read(&path)
            .ok()
            .and_then(|bytes| record::decode(&bytes, STORE_SCHEMA_VERSION).ok())
            .and_then(|payload| from_bytes::<CompiledModule>(&payload).ok());
        match module {
            Some(module) => {
                let tick = inner.tick;
                inner.tick += 1;
                if let Some(e) = inner.index.get_mut(&key) {
                    e.last_used = tick;
                }
                inner.stats.hits += 1;
                Some(module)
            }
            None => {
                let _ = self.vfs.remove_file(&path);
                inner.index.remove(&key);
                inner.stats.quarantined += 1;
                inner.stats.misses += 1;
                Self::refresh_gauges(&mut inner);
                None
            }
        }
    }

    /// Persists `module` under `key` via the atomic write protocol,
    /// then enforces the byte budget.
    ///
    /// # Errors
    ///
    /// Any [`VfsError`] from the write path; the store's index is
    /// untouched on failure (a `.tmp` leftover, if any, is cleaned by
    /// the next recovery scan).
    pub fn put(&self, key: ContentKey, module: &CompiledModule) -> Result<(), VfsError> {
        let bytes = record::encode(STORE_SCHEMA_VERSION, &artifact_bytes(module));
        let mut inner = self.lock();
        let path = self.path_for(key);
        match atomic_write(self.vfs.as_ref(), &path, &bytes) {
            Ok(()) => {
                let tick = inner.tick;
                inner.tick += 1;
                inner.index.insert(
                    key,
                    IndexEntry {
                        bytes: bytes.len() as u64,
                        last_used: tick,
                    },
                );
                inner.stats.puts += 1;
                self.evict_over_budget(&mut inner);
                Self::refresh_gauges(&mut inner);
                Ok(())
            }
            Err(e) => {
                inner.stats.put_failures += 1;
                Err(e)
            }
        }
    }

    /// Deletes every artifact (operator `cache clear`), returning the
    /// bytes reclaimed. Monotonic counters survive.
    pub fn clear(&self) -> u64 {
        let mut inner = self.lock();
        let reclaimed = inner.stats.resident_bytes;
        let keys: Vec<ContentKey> = inner.index.keys().copied().collect();
        for key in keys {
            let _ = self.vfs.remove_file(&self.path_for(key));
        }
        inner.index.clear();
        Self::refresh_gauges(&mut inner);
        reclaimed
    }

    fn path_for(&self, key: ContentKey) -> PathBuf {
        self.config.dir.join(format!("{key}.{ARTIFACT_EXT}"))
    }

    fn evict_over_budget(&self, inner: &mut StoreInner) {
        if self.config.byte_budget == 0 {
            return;
        }
        while inner.index.len() > 1 && Self::resident(inner) > self.config.byte_budget {
            let victim = inner
                .index
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .expect("non-empty index");
            inner.index.remove(&victim);
            let _ = self.vfs.remove_file(&self.path_for(victim));
            inner.stats.evictions += 1;
        }
    }

    fn resident(inner: &StoreInner) -> u64 {
        inner.index.values().map(|e| e.bytes).sum()
    }

    fn refresh_gauges(inner: &mut StoreInner) {
        inner.stats.entries = inner.index.len() as u64;
        inner.stats.resident_bytes = Self::resident(inner);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Parses `<32 hex>.wart` back into its [`ContentKey`] (the Display
/// form is `{hi:016x}{lo:016x}`).
fn key_from_file_name(name: &str) -> Option<ContentKey> {
    let stem = name.strip_suffix(&format!(".{ARTIFACT_EXT}"))?;
    if stem.len() != 32 || !stem.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let hi = u64::from_str_radix(&stem[..16], 16).ok()?;
    let lo = u64::from_str_radix(&stem[16..], 16).ok()?;
    Some(ContentKey { lo, hi })
}

// --- Tiered cache --------------------------------------------------

/// Where a tiered lookup was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TieredOutcome {
    /// Positive hit in the memory tier.
    MemoryHit,
    /// Live negative entry in the memory tier (negatives are never
    /// persisted).
    NegativeHit,
    /// Memory miss served by decoding a disk artifact (and promoted
    /// into the memory tier).
    DiskHit,
    /// Missed both tiers; this request compiled.
    Compiled,
    /// Coalesced onto a concurrent identical request.
    Coalesced,
}

impl TieredOutcome {
    /// `true` when the pipeline did not run for this request.
    pub fn served_without_compile(&self) -> bool {
        !matches!(self, TieredOutcome::Compiled)
    }

    /// Stable lowercase label for logs and stats tables.
    pub fn label(&self) -> &'static str {
        match self {
            TieredOutcome::MemoryHit => "memory-hit",
            TieredOutcome::NegativeHit => "negative-hit",
            TieredOutcome::DiskHit => "disk-hit",
            TieredOutcome::Compiled => "compiled",
            TieredOutcome::Coalesced => "coalesced",
        }
    }
}

/// Bytes and entries reclaimed by [`TieredCache::clear_tiers`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClearReport {
    /// Entries dropped from the memory tier.
    pub memory_entries: u64,
    /// Estimated bytes reclaimed in the memory tier.
    pub memory_bytes: u64,
    /// Artifacts deleted from the disk tier.
    pub disk_entries: u64,
    /// Bytes reclaimed on disk.
    pub disk_bytes: u64,
}

/// The two-tier cache: the in-memory [`CompileCache`] in front of an
/// optional persistent [`DiskStore`].
///
/// Lookup order is memory → disk → compile. A disk hit is promoted
/// into the memory tier; a fresh compile is written through to disk.
/// Negative results (deterministic failures) stay memory-only: they
/// are cheap to rediscover and quarantining policy belongs to the
/// breaker, not the store. Single-flight is inherited from the memory
/// tier — concurrent identical requests decode or compile once.
pub struct TieredCache {
    mem: CompileCache,
    disk: Option<DiskStore>,
}

impl TieredCache {
    /// A tiered cache; `disk: None` degrades to memory-only.
    pub fn new(mem: CompileCache, disk: Option<DiskStore>) -> TieredCache {
        TieredCache { mem, disk }
    }

    /// The memory tier.
    pub fn memory(&self) -> &CompileCache {
        &self.mem
    }

    /// The disk tier, when configured.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// Serves `key` from the shallowest tier that has it, else runs
    /// `compile` (single-flight) and populates both tiers on success.
    /// Disk write failures are absorbed: the result is still served
    /// and cached in memory, and the failure is counted in
    /// [`StoreStats::put_failures`].
    pub fn get_or_compile(
        &self,
        key: ContentKey,
        compile: impl FnOnce() -> Result<CompiledModule, CompileFailure>,
    ) -> (Result<Arc<CompiledModule>, CompileFailure>, TieredOutcome) {
        let from_disk = Cell::new(false);
        let (result, outcome) = self.mem.get_or_compile(key, || {
            if let Some(store) = &self.disk {
                if let Some(module) = store.get(key) {
                    from_disk.set(true);
                    return Ok(module);
                }
            }
            let module = compile()?;
            if let Some(store) = &self.disk {
                let _ = store.put(key, &module);
            }
            Ok(module)
        });
        let outcome = match outcome {
            CacheOutcome::Hit => TieredOutcome::MemoryHit,
            CacheOutcome::NegativeHit => TieredOutcome::NegativeHit,
            CacheOutcome::Coalesced => TieredOutcome::Coalesced,
            CacheOutcome::Compiled if from_disk.get() => TieredOutcome::DiskHit,
            CacheOutcome::Compiled => TieredOutcome::Compiled,
        };
        (result, outcome)
    }

    /// Clears both tiers, reporting what each reclaimed.
    pub fn clear_tiers(&self) -> ClearReport {
        let before = self.mem.stats();
        self.mem.clear();
        let (disk_entries, disk_bytes) = match &self.disk {
            Some(store) => (store.stats().entries, store.clear()),
            None => (0, 0),
        };
        ClearReport {
            memory_entries: before.entries,
            memory_bytes: before.resident_bytes,
            disk_entries,
            disk_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CacheStats};
    use crate::{corpus, CompileOptions, Session};
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use warp_common::{ManualClock, MemVfs};

    fn compile_ok(source: &str) -> CompiledModule {
        Session::new(CompileOptions::default())
            .try_compile(source)
            .expect("corpus program compiles")
    }

    fn mem_store(vfs: &MemVfs, budget: u64) -> DiskStore {
        DiskStore::open(
            Arc::new(vfs.clone()),
            StoreConfig {
                dir: PathBuf::from("/store"),
                byte_budget: budget,
            },
        )
        .expect("open store")
    }

    fn tiered(vfs: &MemVfs) -> TieredCache {
        TieredCache::new(
            CompileCache::new(CacheConfig::default(), Arc::new(ManualClock::new(0))),
            Some(mem_store(vfs, 0)),
        )
    }

    fn key_of(n: u64) -> ContentKey {
        ContentKey { lo: n, hi: !n }
    }

    #[test]
    fn module_round_trips_bitwise() {
        let module = compile_ok(corpus::POLYNOMIAL);
        let bytes = artifact_bytes(&module);
        let back: CompiledModule = from_bytes(&bytes).expect("decode");
        assert_eq!(bytes, artifact_bytes(&back));
        assert_eq!(module.name, back.name);
        assert_eq!(module.cell_code, back.cell_code);
        assert_eq!(module.iu, back.iu);
        assert_eq!(module.metrics, back.metrics);
        // Nothing in a module depends on when or how fast it compiled.
        let again = compile_ok(corpus::POLYNOMIAL);
        assert_eq!(artifact_bytes(&module), artifact_bytes(&again));
    }

    #[test]
    fn undecodable_payload_quarantines_on_get() {
        let vfs = MemVfs::new();
        let store = mem_store(&vfs, 0);
        let mut module = compile_ok(corpus::POLYNOMIAL);
        module.warnings = vec![warp_common::Diagnostic::error_global("w")];
        store.put(key_of(1), &module).expect("put");
        // The payload ends with the warning, which opens with its
        // severity tag. Retire that tag, then re-frame: length and
        // checksum are valid, only the decoder can object.
        let mut payload = artifact_bytes(&module);
        let tag = payload.len() - to_bytes(&module.warnings[0]).len();
        payload[tag] = 9;
        assert!(from_bytes::<CompiledModule>(&payload).is_err());
        let path = PathBuf::from(format!("/store/{}.{ARTIFACT_EXT}", key_of(1)));
        let vfs_dyn: &dyn Vfs = &vfs;
        vfs_dyn
            .write(&path, &record::encode(STORE_SCHEMA_VERSION, &payload))
            .unwrap();
        assert!(store.get(key_of(1)).is_none(), "undecodable never served");
        assert_eq!(store.stats().quarantined, 1);
        assert!(!store.contains(key_of(1)));
        assert_eq!(vfs.file_count(), 0);
    }

    #[test]
    fn store_round_trips_and_counts() {
        let vfs = MemVfs::new();
        let store = mem_store(&vfs, 0);
        let module = compile_ok(corpus::POLYNOMIAL);
        let key = key_of(1);
        assert!(store.get(key).is_none());
        store.put(key, &module).expect("put");
        assert!(store.contains(key));
        let back = store.get(key).expect("hit");
        assert_eq!(artifact_bytes(&module), artifact_bytes(&back));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.puts), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn reopen_recovers_cleans_tmp_and_quarantines() {
        let vfs = MemVfs::new();
        let module = compile_ok(corpus::POLYNOMIAL);
        {
            let store = mem_store(&vfs, 0);
            store.put(key_of(1), &module).expect("put");
            store.put(key_of(2), &module).expect("put");
        }
        // A crash leftover, a corrupt artifact, and a foreign file.
        let vfs_dyn: &dyn Vfs = &vfs;
        vfs_dyn
            .write(Path::new("/store/stale.wart.tmp"), b"partial")
            .unwrap();
        let victim = PathBuf::from(format!("/store/{}.{ARTIFACT_EXT}", key_of(2)));
        let mut bytes = vfs_dyn.read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        vfs_dyn.write(&victim, &bytes).unwrap();
        vfs_dyn
            .write(Path::new("/store/notes.txt"), b"not an artifact")
            .unwrap();

        let store = mem_store(&vfs, 0);
        let s = store.stats();
        assert_eq!(s.recovered, 1);
        assert_eq!(s.quarantined, 2, "bit-flipped artifact + foreign file");
        assert_eq!(s.tmp_cleaned, 1);
        assert!(store.contains(key_of(1)));
        assert!(!store.contains(key_of(2)));
        let back = store.get(key_of(1)).expect("recovered artifact serves");
        assert_eq!(artifact_bytes(&module), artifact_bytes(&back));
        // The quarantined files are gone from disk.
        assert_eq!(vfs.file_count(), 1);
    }

    #[test]
    fn stale_schema_quarantines_on_reopen() {
        let vfs = MemVfs::new();
        let vfs_dyn: &dyn Vfs = &vfs;
        vfs_dyn.create_dir_all(Path::new("/store")).unwrap();
        // A record of the schema with timings and one from the future.
        for (key, version) in [(8, 2), (9, STORE_SCHEMA_VERSION + 1)] {
            let path = PathBuf::from(format!("/store/{}.{ARTIFACT_EXT}", key_of(key)));
            let stale = record::encode(version, b"payload of another schema");
            vfs_dyn.write(&path, &stale).unwrap();
        }
        let store = mem_store(&vfs, 0);
        let s = store.stats();
        assert_eq!((s.recovered, s.quarantined), (0, 2));
        assert_eq!(vfs.file_count(), 0);
        assert!(
            store.get(key_of(8)).is_none(),
            "a miss: the caller recompiles"
        );
    }

    #[test]
    fn byte_budget_evicts_lru_but_keeps_newest() {
        let vfs = MemVfs::new();
        let module = compile_ok(corpus::POLYNOMIAL);
        let one = record::encode(STORE_SCHEMA_VERSION, &artifact_bytes(&module)).len() as u64;
        // Room for two artifacts, not three.
        let store = mem_store(&vfs, 2 * one + one / 2);
        store.put(key_of(1), &module).expect("put");
        store.put(key_of(2), &module).expect("put");
        assert!(store.get(key_of(1)).is_some(), "touch 1: now 2 is LRU");
        store.put(key_of(3), &module).expect("put");
        assert_eq!(store.stats().evictions, 1);
        assert!(store.contains(key_of(1)));
        assert!(!store.contains(key_of(2)));
        assert!(store.contains(key_of(3)));
        // A budget smaller than one artifact still keeps the newest.
        let tiny = mem_store(&vfs, 1);
        assert_eq!(tiny.len(), 1, "evicted down to the most recent");
    }

    #[test]
    fn corrupt_read_quarantines_instead_of_serving() {
        let vfs = MemVfs::new();
        let store = mem_store(&vfs, 0);
        let module = compile_ok(corpus::POLYNOMIAL);
        store.put(key_of(1), &module).expect("put");
        let path = PathBuf::from(format!("/store/{}.{ARTIFACT_EXT}", key_of(1)));
        let vfs_dyn: &dyn Vfs = &vfs;
        let mut bytes = vfs_dyn.read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        vfs_dyn.write(&path, &bytes).unwrap();
        assert!(store.get(key_of(1)).is_none(), "corrupt never served");
        let s = store.stats();
        assert_eq!(s.quarantined, 1);
        assert!(!store.contains(key_of(1)));
        assert_eq!(vfs.file_count(), 0);
    }

    #[test]
    fn tiered_lookup_memory_then_disk_then_compile() {
        let vfs = MemVfs::new();
        let compiles = AtomicUsize::new(0);
        let key = key_of(7);
        let run = |t: &TieredCache| {
            t.get_or_compile(key, || {
                compiles.fetch_add(1, Ordering::SeqCst);
                Ok(compile_ok(corpus::POLYNOMIAL))
            })
        };

        let t = tiered(&vfs);
        let (r, o) = run(&t);
        assert!(r.is_ok());
        assert_eq!(o, TieredOutcome::Compiled);
        let (_, o) = run(&t);
        assert_eq!(o, TieredOutcome::MemoryHit);
        assert_eq!(compiles.load(Ordering::SeqCst), 1);

        // "Restart": fresh memory tier over the same disk tree.
        let t2 = tiered(&vfs);
        let (r, o) = run(&t2);
        assert!(r.is_ok());
        assert_eq!(o, TieredOutcome::DiskHit, "warm restart skips compile");
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        // And the disk hit was promoted into memory.
        let (_, o) = run(&t2);
        assert_eq!(o, TieredOutcome::MemoryHit);
        assert!(o.served_without_compile());
    }

    #[test]
    fn tiered_negative_results_stay_memory_only() {
        let vfs = MemVfs::new();
        let t = tiered(&vfs);
        let key = key_of(8);
        let fail = || {
            Err(CompileFailure::Diagnostics(
                Session::new(CompileOptions::default())
                    .compile("module broken")
                    .expect_err("rejects"),
            ))
        };
        let (r, o) = t.get_or_compile(key, fail);
        assert!(r.is_err());
        assert_eq!(o, TieredOutcome::Compiled);
        let (r, o) = t.get_or_compile(key, fail);
        assert!(r.is_err());
        assert_eq!(o, TieredOutcome::NegativeHit);
        assert!(t.disk().expect("disk tier").is_empty());
        // A restart forgets the negative entry: it compiles again.
        let t2 = tiered(&vfs);
        let (_, o) = t2.get_or_compile(key, fail);
        assert_eq!(o, TieredOutcome::Compiled);
    }

    #[test]
    fn clear_tiers_reports_both_tiers() {
        let vfs = MemVfs::new();
        let t = tiered(&vfs);
        let (r, _) = t.get_or_compile(key_of(3), || Ok(compile_ok(corpus::POLYNOMIAL)));
        assert!(r.is_ok());
        let report = t.clear_tiers();
        assert_eq!(report.memory_entries, 1);
        assert!(report.memory_bytes > 0);
        assert_eq!(report.disk_entries, 1);
        assert!(report.disk_bytes > 0);
        assert_eq!(t.memory().len(), 0);
        assert!(t.disk().expect("disk tier").is_empty());
        let stats: CacheStats = t.memory().stats();
        assert_eq!(stats.resident_bytes, 0);
    }

    #[test]
    fn key_file_name_parsing_is_strict() {
        let key = ContentKey {
            lo: 0x0123_4567_89ab_cdef,
            hi: 0xfedc_ba98_7654_3210,
        };
        let name = format!("{key}.{ARTIFACT_EXT}");
        assert_eq!(key_from_file_name(&name), Some(key));
        assert_eq!(key_from_file_name("short.wart"), None);
        assert_eq!(key_from_file_name("notes.txt"), None);
        let bad = format!("{}z.{ARTIFACT_EXT}", &name[..31]);
        assert_eq!(key_from_file_name(&bad), None);
    }
}
