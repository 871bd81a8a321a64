//! Property tests for the persistent artifact codec: seeded random
//! `CompiledModule`s must round-trip bitwise through the wire format,
//! an artifact is a pure function of (source, options) — in one
//! process, through the batch engine, and as two stores hold it — and
//! no single-bit corruption of a framed artifact may ever reach the
//! decoder — the record checksum catches every flip.

use std::path::PathBuf;
use std::sync::Arc;
use warp::common::vfs::record;
use warp::common::wire::from_bytes;
use warp::common::{MemVfs, SplitMix64, Vfs};
use warp::compiler::{corpus, CompileOptions, CompiledModule, Session, SessionCtrl};
use warp::oracle::{generate, GenConfig};
use warp::serve::cache::cache_key;
use warp::serve::service::compile_batch;
use warp::serve::store::{artifact_bytes, DiskStore, StoreConfig, STORE_SCHEMA_VERSION};

fn compile(source: &str) -> CompiledModule {
    Session::new(CompileOptions::default())
        .try_compile(source)
        .expect("generated corpus program compiles")
}

/// Draws a generator-built source with seeded parameters, so each
/// seed yields modules of different shapes (cells, loop trips, array
/// sizes, pipeline structure).
fn random_source(rng: &mut SplitMix64) -> String {
    match rng.below(3) {
        0 => corpus::polynomial_source(1 + rng.below(6) as u32, 4 + rng.below(12) as u32),
        1 => {
            let taps = 2 + rng.below(5) as u32;
            corpus::conv1d_source(taps, taps + 2 + rng.below(12) as u32)
        }
        _ => corpus::binop_source(1 + rng.below(4) as u32, 2 + rng.below(6) as u32),
    }
}

#[test]
fn seeded_random_modules_round_trip_bitwise() {
    let mut rng = SplitMix64::new(0xA27F_0001);
    for case in 0..12 {
        let source = random_source(&mut rng);
        let module = compile(&source);
        let bytes = artifact_bytes(&module);
        let back: CompiledModule =
            from_bytes(&bytes).unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        // Re-encoding the decoded module must reproduce the exact
        // bytes: the codec has one canonical form, no drift.
        assert_eq!(bytes, artifact_bytes(&back), "case {case}: bytes drifted");
        // The decoded module is semantically the module: programs,
        // analyses, and metrics all survive.
        assert_eq!(module.name, back.name, "case {case}");
        assert_eq!(module.n_cells, back.n_cells, "case {case}");
        assert_eq!(module.ir, back.ir, "case {case}");
        assert_eq!(module.cell_code, back.cell_code, "case {case}");
        assert_eq!(module.iu, back.iu, "case {case}");
        assert_eq!(module.host, back.host, "case {case}");
        assert_eq!(module.skew, back.skew, "case {case}");
        assert_eq!(module.machine, back.machine, "case {case}");
        assert_eq!(module.warnings, back.warnings, "case {case}");
        // And it round-trips through the record framing too.
        let framed = record::encode(STORE_SCHEMA_VERSION, &bytes);
        let payload = record::decode(&framed, STORE_SCHEMA_VERSION)
            .unwrap_or_else(|e| panic!("case {case}: record decode failed: {e:?}"));
        assert_eq!(payload, bytes, "case {case}: framing corrupted payload");
    }
}

/// Every `corpus/*.w2` file plus 100 generated programs.
fn purity_sources() -> Vec<String> {
    let dir = format!("{}/corpus", env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("list {dir}: {e}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "w2"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 7, "{files:?}");
    let read = |path: &PathBuf| std::fs::read_to_string(path).expect("corpus file reads");
    let generated = (0..100).map(|seed| generate(seed, &GenConfig::default()).source);
    files.iter().map(read).chain(generated).collect()
}

/// Two compiles of one source are equal as stored, and so is the slot
/// the batch engine fills for it on a worker thread — with and without
/// modulo scheduling.
#[test]
fn artifact_bytes_are_compile_invariant() {
    let opts = CompileOptions::default();
    let sources = purity_sources();
    for pipeline in [true, false] {
        let ctrl = SessionCtrl {
            pipeline,
            ..SessionCtrl::default()
        };
        let compile = |source: &str| {
            Session::new(opts.clone())
                .with_ctrl(ctrl.clone())
                .compile(source)
                .map(|m| artifact_bytes(&m))
                .map_err(|d| d.to_string())
        };
        let batch = compile_batch(&sources, &opts, &ctrl).into_results();
        let mut compiled = 0;
        for (i, (source, slot)) in sources.iter().zip(batch).enumerate() {
            let first = compile(source);
            compiled += usize::from(first.is_ok());
            assert_eq!(first, compile(source), "source {i}, pipeline {pipeline}");
            let slot = slot.map(|m| artifact_bytes(&m)).map_err(|d| d.to_string());
            assert_eq!(first, slot, "source {i}, pipeline {pipeline}: batch slot");
        }
        assert!(compiled >= 100, "only {compiled} sources compiled");
    }
}

/// Two stores fed the same five compiles hold the same files with the
/// same bytes: nothing of the run (time, order of threads, addresses)
/// reaches the disk.
#[test]
fn two_stores_fed_the_same_compiles_are_identical() {
    let dir = PathBuf::from("/store");
    let (opts, ctrl) = (CompileOptions::default(), SessionCtrl::default());
    let fill = || {
        let vfs = MemVfs::new();
        let store = DiskStore::open(Arc::new(vfs.clone()), StoreConfig::new(&dir)).expect("open");
        for (_, source) in corpus::TABLE_7_1 {
            store
                .put(cache_key(source, &opts, &ctrl), &compile(source))
                .expect("put");
        }
        let vfs: &dyn Vfs = &vfs;
        let mut files = vfs.list_files(&dir).expect("list");
        files.sort();
        let contents: Vec<Vec<u8>> = files.iter().map(|f| vfs.read(f).expect("read")).collect();
        (files, contents)
    };
    let (a, b) = (fill(), fill());
    assert_eq!(a.0.len(), 5);
    assert_eq!(a, b);
}

#[test]
fn every_single_bit_flip_is_detected_as_corrupt() {
    // The smallest generator program keeps the exhaustive sweep fast;
    // the framing math is byte-position-independent, so coverage at
    // this size is coverage at any size.
    let module = compile(&corpus::binop_source(1, 2));
    let payload = artifact_bytes(&module);
    let framed = record::encode(STORE_SCHEMA_VERSION, &payload);
    let mut bytes = framed.clone();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            bytes[i] ^= 1 << bit;
            let verdict = record::decode(&bytes, STORE_SCHEMA_VERSION);
            assert!(
                verdict.is_err(),
                "flip at byte {i} bit {bit} decoded successfully"
            );
            bytes[i] ^= 1 << bit;
        }
    }
    assert_eq!(bytes, framed, "sweep must restore the original");
    // Sanity: the unflipped record still decodes.
    assert_eq!(
        record::decode(&framed, STORE_SCHEMA_VERSION).expect("intact record decodes"),
        payload
    );
}
