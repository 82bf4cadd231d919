//! The disk cache must be invisible in the results: a warm snapshot
//! (every stage served from `--cache-dir` files) produces byte-identical
//! artifacts to the cold snapshot that wrote them, at every parallelism
//! level — and damaged cache files are silently recomputed, never
//! trusted and never fatal.

use asrank_core::engine::{stage_disk_key, Snapshot, StageReport, StageStats};
use asrank_core::persist::{kind, tag_for_stage};
use asrank_core::pipeline::InferenceConfig;
use asrank_core::{decode_artifact, encode_artifact, pathset_fingerprint, write_as_rel, CacheDir};
use asrank_types::codec::{checksum64, Encoder, CODEC_VERSION, TRAILER_LEN};
use asrank_types::{AsPath, Asn, Ipv4Prefix, Parallelism, PathSample, PathSet};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;

fn path_set(paths: Vec<Vec<u32>>) -> PathSet {
    let mut ps = PathSet::new();
    for (i, raw) in paths.into_iter().enumerate() {
        let vp = raw[0];
        ps.push(PathSample {
            vp: Asn(vp),
            prefix: asrank_types::Ipv4Prefix::new((i as u32) << 12, 20).unwrap(),
            path: AsPath::from_u32s(raw),
        });
    }
    ps
}

fn totals(report: &StageReport) -> StageStats {
    let mut t = StageStats::default();
    for name in Snapshot::stage_names() {
        if let Some(s) = report.get(name) {
            t.runs += s.runs;
            t.hits += s.hits;
            t.misses += s.misses;
            t.disk_hits += s.disk_hits;
            t.disk_stores += s.disk_stores;
        }
    }
    t
}

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "asrank_cache_persist_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Materialize every stage cold (writing the cache), then warm (reading
/// it back), and compare the canonical encoding of each artifact.
fn assert_cold_warm_identical(paths: &PathSet, par: Parallelism, dir: &PathBuf) {
    let mut cfg = InferenceConfig::default();
    cfg.parallelism = par;

    let mut cold = Snapshot::new(paths, cfg.clone()).with_cache_dir(dir);
    let cold_bytes: Vec<Vec<u8>> = Snapshot::stage_names()
        .iter()
        .map(|name| encode_artifact(&cold.materialize(name).unwrap()))
        .collect();
    let cold_totals = totals(&cold.stage_report());
    assert_eq!(cold_totals.disk_hits, 0, "cold run must not hit the cache");
    assert!(
        cold_totals.disk_stores > 0,
        "cold run must populate the cache"
    );

    let mut warm = Snapshot::new(paths, cfg).with_cache_dir(dir);
    let warm_bytes: Vec<Vec<u8>> = Snapshot::stage_names()
        .iter()
        .map(|name| encode_artifact(&warm.materialize(name).unwrap()))
        .collect();
    let warm_totals = totals(&warm.stage_report());
    assert_eq!(warm_totals.runs, 0, "warm run must not recompute any stage");
    assert_eq!(
        warm_totals.disk_hits as usize,
        Snapshot::stage_names().len(),
        "warm run must serve every stage from disk"
    );

    for (name, (c, w)) in Snapshot::stage_names()
        .iter()
        .zip(cold_bytes.iter().zip(warm_bytes.iter()))
    {
        assert_eq!(c, w, "stage {name} differs between cold and warm");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cold_and_warm_snapshots_are_byte_identical(
        paths in prop::collection::vec(prop::collection::vec(1u32..40, 2..6), 1..40),
    ) {
        let ps = path_set(paths);
        for (tag, par) in [("seq", Parallelism::sequential()), ("par4", Parallelism::threads(4))] {
            let dir = tmp_cache(&format!("prop_{tag}_{:016x}", pathset_fingerprint(&ps)));
            assert_cold_warm_identical(&ps, par, &dir);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A two-tier hierarchy big enough that every stage has real content.
fn fixture() -> PathSet {
    path_set(vec![
        vec![20, 10, 1, 2, 11, 21],
        vec![20, 10, 1, 3, 12, 22],
        vec![21, 11, 2, 1, 10, 20],
        vec![21, 11, 2, 3, 12, 23],
        vec![22, 12, 3, 1, 10, 20],
        vec![22, 12, 3, 2, 11, 21],
        vec![23, 12, 3, 2, 11, 20],
    ])
}

#[test]
fn corrupted_cache_entry_recomputes_and_rewrites() {
    let ps = fixture();
    let dir = tmp_cache("corrupt");
    let cfg = InferenceConfig::default();

    let mut cold = Snapshot::new(&ps, cfg.clone()).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        cold.materialize(name).unwrap();
    }

    // Bit-flip one byte of every cache file (header, payload, and
    // trailer positions all occur across the set), breaking either the
    // framing or the checksum.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert!(!files.is_empty());
    let mut originals = Vec::new();
    for (i, file) in files.iter().enumerate() {
        let mut bytes = std::fs::read(file).unwrap();
        originals.push((file.clone(), bytes.clone()));
        let pos = (i * 7) % bytes.len();
        bytes[pos] ^= 0x40;
        std::fs::write(file, &bytes).unwrap();
    }

    // Warm run over the damaged cache: silent recompute, same results,
    // and the damaged entries are rewritten valid.
    let mut warm = Snapshot::new(&ps, cfg.clone()).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        let got = encode_artifact(&warm.materialize(name).unwrap());
        let mut reference = Snapshot::new(&ps, cfg.clone());
        let want = encode_artifact(&reference.materialize(name).unwrap());
        assert_eq!(got, want, "stage {name} corrupted by damaged cache");
    }
    let warm_totals = totals(&warm.stage_report());
    assert_eq!(
        warm_totals.disk_hits, 0,
        "no damaged entry may count as a hit"
    );
    assert!(
        warm_totals.disk_stores > 0,
        "damaged entries must be rewritten"
    );

    for (file, original) in originals {
        assert_eq!(
            std::fs::read(&file).unwrap(),
            original,
            "rewritten cache file {} is not valid again",
            file.display()
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_version_skewed_entries_fall_back() {
    let ps = fixture();
    let dir = tmp_cache("truncate");
    let cfg = InferenceConfig::default();

    let mut cold = Snapshot::new(&ps, cfg.clone()).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        cold.materialize(name).unwrap();
    }
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    // Truncate half the files, rewrite the version word of the rest.
    for (i, file) in files.iter().enumerate() {
        let bytes = std::fs::read(file).unwrap();
        if i % 2 == 0 {
            std::fs::write(file, &bytes[..bytes.len() / 2]).unwrap();
        } else {
            let mut skew = bytes;
            skew[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
            std::fs::write(file, &skew).unwrap();
        }
    }

    let mut warm = Snapshot::new(&ps, cfg.clone()).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        let got = encode_artifact(&warm.materialize(name).unwrap());
        let mut reference = Snapshot::new(&ps, cfg.clone());
        let want = encode_artifact(&reference.materialize(name).unwrap());
        assert_eq!(got, want, "stage {name} diverged after cache damage");
    }
    assert_eq!(totals(&warm.stage_report()).disk_hits, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_configs_do_not_share_entries() {
    let ps = fixture();
    let dir = tmp_cache("cfgsplit");

    let mut a = Snapshot::new(&ps, InferenceConfig::default()).with_cache_dir(&dir);
    a.materialize("s1_sanitize").unwrap();

    // A different sanitize config must miss every entry the first
    // snapshot stored.
    let mut cfg = InferenceConfig::default();
    cfg.sanitize = asrank_core::SanitizeConfig::with_ixps([Asn(999)]);
    let mut b = Snapshot::new(&ps, cfg).with_cache_dir(&dir);
    b.materialize("s1_sanitize").unwrap();
    let t = totals(&b.stage_report());
    assert_eq!(t.disk_hits, 0, "config change must invalidate keys");
    assert!(t.disk_stores > 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Chained invalidation on the one input below the IXP list that moves
/// keys: the prefix table. A cache warmed under one table serves a fresh
/// snapshot under another without running any stage from S1 to S11 or
/// the arena — each is a disk hit or never requested — and each cone
/// runs exactly once.
#[test]
fn new_prefix_table_reruns_only_the_cones() {
    let ps = fixture();
    let dir = tmp_cache("prefix_table");
    let cfg = InferenceConfig::default();
    let table = |len: u8| -> HashMap<Asn, Vec<Ipv4Prefix>> {
        [10u32, 11, 12, 20, 21, 22, 23]
            .into_iter()
            .map(|a| (Asn(a), vec![Ipv4Prefix::new(a << 24, len).unwrap()]))
            .collect()
    };

    let mut cold = Snapshot::new(&ps, cfg.clone())
        .with_cache_dir(&dir)
        .with_prefixes(table(8));
    for name in Snapshot::stage_names() {
        cold.materialize(name).unwrap();
    }
    let cold_cones = cold.cones().unwrap();

    let mut warm = Snapshot::new(&ps, cfg)
        .with_cache_dir(&dir)
        .with_prefixes(table(16));
    let warm_cones = warm.cones().unwrap();
    let report = warm.stage_report();
    for name in Snapshot::stage_names() {
        let stats = report.get(name).unwrap();
        if name.starts_with("cone_") {
            assert_eq!((stats.runs, stats.disk_hits), (1, 0), "stage {name}");
        } else {
            assert_eq!(stats.runs, 0, "stage {name} ran under a new prefix table");
            assert!(stats.disk_hits <= 1, "stage {name}");
        }
    }
    for name in ["s11_inference", "path_arena"] {
        assert_eq!(
            report.get(name).unwrap().disk_hits,
            1,
            "stage {name} missed"
        );
    }
    // The new table reached the cones: the same ASes, fewer addresses.
    let recursive = (&cold_cones.0, &warm_cones.0);
    assert_eq!(recursive.0.len(), recursive.1.len());
    assert_ne!(
        recursive.0.size(Asn(10)).addresses,
        recursive.1.size(Asn(10)).addresses
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// An arena frame in the older layout, which stored one multiplicity
/// per distinct path after the ids, is rejected on its trailing bytes.
/// Through a cache directory that makes it a one-time miss: the arena
/// is recomputed and its frame rewritten, while every other stage still
/// hits.
#[test]
fn arena_frame_with_multiplicity_sequence_is_a_one_time_miss() {
    let ps = fixture();
    let dir = tmp_cache("old_arena");
    let cfg = InferenceConfig::default();

    let mut cold = Snapshot::new(&ps, cfg.clone()).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        cold.materialize(name).unwrap();
    }
    let arena = cold.arena().unwrap();
    // Every fixture path is distinct, so each multiplicity is 1.
    assert_eq!(cold.sanitized().unwrap().len(), arena.len());
    let mut e = Encoder::new(kind::ARENA);
    e.seq_u32(
        &arena
            .interner()
            .iter()
            .map(|(_, a)| a.0)
            .collect::<Vec<u32>>(),
    );
    e.seq_u32(arena.offsets());
    e.seq_u32(arena.ids());
    e.seq_u32(&vec![1; arena.len()]);
    let old = e.finish();
    assert!(decode_artifact(&old, kind::ARENA).is_err());

    let file = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("path_arena-")
        })
        .expect("arena frame on disk");
    let current = std::fs::read(&file).unwrap();
    assert_eq!(
        current,
        encode_artifact(&cold.materialize("path_arena").unwrap())
    );
    std::fs::write(&file, &old).unwrap();

    let mut warm = Snapshot::new(&ps, cfg).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        warm.materialize(name).unwrap();
    }
    let report = warm.stage_report();
    for name in Snapshot::stage_names() {
        let stats = report.get(name).unwrap();
        if name == "path_arena" {
            assert_eq!((stats.disk_hits, stats.runs, stats.disk_stores), (0, 1, 1));
        } else {
            assert_eq!((stats.disk_hits, stats.runs), (1, 0), "stage {name} missed");
        }
    }
    assert_eq!(
        std::fs::read(&file).unwrap(),
        current,
        "arena frame not rewritten"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The as-rel text of a snapshot's inference.
fn as_rel(snap: &mut Snapshot<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    write_as_rel(&snap.inference().unwrap().relationships, &mut out).unwrap();
    out
}

/// `frame` marked as codec version 1 and sealed again, so the version
/// word is the only thing a reader can reject it on.
fn as_version_one(mut frame: Vec<u8>) -> Vec<u8> {
    frame[4..8].copy_from_slice(&1u32.to_le_bytes());
    let body_end = frame.len() - TRAILER_LEN;
    let sum = checksum64(&frame[..body_end]);
    frame[body_end..].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// A PATHSET frame in the version-1 layout: the sample section with no
/// recorded fingerprint before it.
fn version_one_pathset(ps: &PathSet) -> Vec<u8> {
    let mut e = Encoder::new(kind::PATHSET);
    e.usize(ps.len());
    for s in ps.iter() {
        e.u32(s.vp.0);
        e.u32(s.prefix.network());
        e.u8(s.prefix.len());
        e.seq_u32(&s.path.0.iter().map(|a| a.0).collect::<Vec<u32>>());
    }
    as_version_one(e.finish())
}

/// A cache written by codec version 1 (stage frames and the ingest
/// frame alike) is a one-time miss: every frame and `load_paths` miss,
/// one snapshot recomputes and rewrites every frame in the current
/// format, and the next snapshot runs no stage and writes byte-identical
/// as-rel output.
#[test]
fn version_one_cache_is_a_one_time_miss() {
    let ps = fixture();
    let dir = tmp_cache("version_one");
    let cfg = InferenceConfig::default();
    let cache = CacheDir::new(&dir);
    const RIB_KEY: u64 = 0x0123_4567_89ab_cdef;

    let mut cold = Snapshot::new(&ps, cfg.clone()).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        cold.materialize(name).unwrap();
    }
    let cold_rel = as_rel(&mut cold);
    assert!(cache.store_paths("rib_ingest", RIB_KEY, &ps));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), Snapshot::stage_names().len() + 1);
    let current: Vec<Vec<u8>> = files.iter().map(|f| std::fs::read(f).unwrap()).collect();
    let ingest = cache.entry_path("rib_ingest", RIB_KEY);
    for (file, bytes) in files.iter().zip(&current) {
        let old = if *file == ingest {
            version_one_pathset(&ps)
        } else {
            as_version_one(bytes.clone())
        };
        std::fs::write(file, &old).unwrap();
    }

    let content_fp = pathset_fingerprint(&ps);
    assert!(cache.load_paths("rib_ingest", RIB_KEY).is_none());
    for name in Snapshot::stage_names() {
        let key = stage_disk_key(name, &cfg, None, content_fp).unwrap();
        let tag = tag_for_stage(name).unwrap();
        assert!(
            cache.load(name, key, tag).is_none(),
            "stage {name} hit a version-1 frame"
        );
    }

    let mut rewarm = Snapshot::new(&ps, cfg.clone()).with_cache_dir(&dir);
    for name in Snapshot::stage_names() {
        rewarm.materialize(name).unwrap();
    }
    let report = rewarm.stage_report();
    for name in Snapshot::stage_names() {
        let stats = report.get(name).unwrap();
        assert_eq!(
            (stats.disk_hits, stats.runs, stats.disk_stores),
            (0, 1, 1),
            "stage {name}"
        );
    }
    assert!(cache.store_paths("rib_ingest", RIB_KEY, &ps));
    for (file, bytes) in files.iter().zip(&current) {
        let rewritten = std::fs::read(file).unwrap();
        assert_eq!(rewritten[4..8], CODEC_VERSION.to_le_bytes());
        assert_eq!(&rewritten, bytes, "{} not rewritten", file.display());
    }
    assert_eq!(
        cache.load_paths("rib_ingest", RIB_KEY).unwrap().samples(),
        ps.samples()
    );

    let mut warm = Snapshot::new(&ps, cfg).with_cache_dir(&dir);
    let warm_rel = as_rel(&mut warm);
    for name in Snapshot::stage_names() {
        warm.materialize(name).unwrap();
    }
    assert_eq!(totals(&warm.stage_report()).runs, 0);
    assert_eq!(warm_rel, cold_rel);

    let _ = std::fs::remove_dir_all(&dir);
}
