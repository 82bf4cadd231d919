//! Shared test support: build a warm artifact cache the way the CLI
//! would, so serve tests exercise the real resolution chain (RIB
//! checksum → PATHSET frame → content fingerprint → stage keys).
//!
//! Not every test binary uses every helper.
#![allow(dead_code)]

use asrank_core::engine::Snapshot;
use asrank_core::pipeline::InferenceConfig;
use asrank_core::CacheDir;
use asrank_serve::SourceSpec;
use asrank_types::{checksum64, Asn, AsPath, Ipv4Prefix, PathSample, PathSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh unique scratch directory under the system temp dir.
pub fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "asrank_serve_{tag}_{}_{}",
        std::process::id(),
        // lint: allow(atomics, the sequence only needs unique values for scratch-dir names, not ordering)
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a path set from raw hop lists (first hop doubles as the VP).
pub fn path_set(paths: Vec<Vec<u32>>) -> PathSet {
    paths
        .into_iter()
        .enumerate()
        .map(|(i, raw)| PathSample {
            vp: Asn(raw[0]),
            prefix: Ipv4Prefix::new((i as u32) << 12, 20).unwrap(),
            path: AsPath::from_u32s(raw),
        })
        .collect()
}

/// A small but non-trivial topology: a 3-AS clique, transit layers below
/// it, and stubs — enough structure that relationships, cones, degrees,
/// and ranks are all non-degenerate.
pub fn sample_paths() -> PathSet {
    path_set(vec![
        vec![10, 1, 2, 20],
        vec![10, 1, 3, 30],
        vec![20, 2, 1, 10],
        vec![20, 2, 3, 30],
        vec![30, 3, 1, 10],
        vec![30, 3, 2, 20],
        vec![10, 1, 2, 21, 41],
        vec![10, 1, 3, 31, 51],
        vec![20, 2, 3, 31, 52],
        vec![30, 3, 1, 11, 42],
        vec![20, 2, 1, 11, 43],
        vec![30, 3, 2, 21, 44],
        vec![10, 1, 11, 43],
        vec![41, 21, 2, 1, 10],
        vec![51, 31, 3, 2, 20],
    ])
}

/// A second topology sharing no ASNs with [`sample_paths`], so every
/// sentinel query distinguishes the two datasets.
pub fn alternate_paths() -> PathSet {
    path_set(vec![
        vec![910, 901, 902, 920],
        vec![920, 902, 901, 910],
        vec![910, 901, 902, 921, 941],
        vec![920, 902, 901, 911, 942],
        vec![941, 921, 902, 901, 910],
    ])
}

/// Write `rib_bytes` as the fake RIB file, store the decoded path set
/// under the ingest key (exactly what `asrank infer --cache-dir` does),
/// and materialize the inference + cone frames through the engine.
/// Returns a [`SourceSpec`] ready for `ServeSnapshot::load`.
pub fn warm_cache(root: &Path, rib_bytes: &[u8], ps: &PathSet) -> SourceSpec {
    std::fs::create_dir_all(root).unwrap();
    let spec = source_spec(root);
    std::fs::write(&spec.rib, rib_bytes).unwrap();
    warm_cache_frames(&spec.cache_root, rib_bytes, ps);
    spec
}

/// The [`SourceSpec`] of a cache [`warm_cache`] built under `root`.
pub fn source_spec(root: &Path) -> SourceSpec {
    SourceSpec {
        rib: root.join("test.mrt"),
        cache_root: root.join("cache"),
        cfg: InferenceConfig::default(),
        prefixes: None,
    }
}

/// Warm only the cache frames for (`rib_bytes`, `ps`) into `cache_root`
/// without touching any RIB file — used by hot-swap tests that re-point
/// an existing RIB path at new bytes.
pub fn warm_cache_frames(cache_root: &Path, rib_bytes: &[u8], ps: &PathSet) {
    std::fs::create_dir_all(cache_root).unwrap();
    let cache = CacheDir::new(cache_root);
    assert!(
        cache.store_paths("rib_ingest", checksum64(rib_bytes), ps),
        "storing ingest frame"
    );
    let mut snap =
        Snapshot::new(ps, InferenceConfig::default()).with_cache_dir(cache_root);
    snap.inference().expect("materialize inference");
    snap.cones().expect("materialize cones");
}
