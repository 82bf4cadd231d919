//! Property and invalidation tests for the staged engine:
//!
//! * on random path sets, `Snapshot::inference()` must be bit-identical
//!   to `infer_monolithic` — at `Parallelism::sequential()` and
//!   `Parallelism::threads(4)`, and under every ablation switch. The
//!   engine's S2 and S3 read the path arena while the monolithic
//!   pipeline runs `DegreeTable::compute` / `infer_clique` over the
//!   sanitized samples, so the degree table and clique are compared too;
//! * changing an S7-only knob (`degree_flip_ratio`) must invalidate
//!   exactly S7-and-downstream: S1–S6, the arena, and the observed-link
//!   list keep their single run and are served as cache hits;
//! * a second command over the same snapshot (the `rank`-after-`infer`
//!   shape) recomputes nothing upstream — zero redundant sanitize /
//!   arena / degree work, pinned via the cache counters.

use asrank_core::engine::Snapshot;
use asrank_core::pipeline::{infer_monolithic, InferenceConfig};
use asrank_types::prelude::*;
use proptest::prelude::*;

/// Random raw path sets over a small ASN universe — same shape as the
/// cone equivalence suite, so sanitization sees loops, prepending, and
/// overlapping paths.
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..6), 1..40)
}

fn path_set(paths: &[Vec<u32>]) -> PathSet {
    paths
        .iter()
        .enumerate()
        .map(|(i, p)| PathSample {
            vp: Asn(p[0]),
            prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
            path: AsPath::from_u32s(p.iter().copied()),
        })
        .collect()
}

/// Assert the engine and the monolithic pipeline produce bit-identical
/// inferences for one config.
fn assert_engine_matches(ps: &PathSet, cfg: &InferenceConfig) {
    let mono = infer_monolithic(ps, cfg);
    let mut snap = Snapshot::new(ps, cfg.clone());
    let inf = snap.inference().expect("engine inference");
    assert_eq!(inf.relationships, mono.relationships, "relationships differ");
    assert_eq!(inf.degrees, mono.degrees, "degree table differs");
    assert_eq!(inf.clique, mono.clique, "clique differs");
    assert_eq!(inf.report, mono.report, "report differs");
}

proptest! {
    #[test]
    fn engine_matches_monolithic_on_random_topologies(paths in paths_strategy()) {
        let ps = path_set(&paths);
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let mut cfg = InferenceConfig::default();
            cfg.parallelism = par;
            assert_engine_matches(&ps, &cfg);
        }
    }

    #[test]
    fn engine_matches_monolithic_under_ablations(paths in paths_strategy()) {
        let ps = path_set(&paths);
        for flag in 0..5usize {
            let mut cfg = InferenceConfig::default();
            match flag {
                0 => cfg.ablation.no_poison_filter = true,
                1 => cfg.ablation.no_vp_step = true,
                2 => cfg.ablation.no_anomaly_repair = true,
                3 => cfg.ablation.no_stub_clique = true,
                _ => cfg.ablation.no_providerless = true,
            }
            assert_engine_matches(&ps, &cfg);
        }
    }
}

/// A fixed two-tier hierarchy for the cache-behavior tests: clique
/// 1–2–3, transits 10/11, stubs 20–23 — enough structure for every
/// stage to produce non-trivial output deterministically.
fn fixture() -> PathSet {
    let raw: &[&[u32]] = &[
        &[20, 10, 1, 2, 11, 21],
        &[20, 10, 1, 3, 11, 22],
        &[21, 11, 2, 1, 10, 20],
        &[22, 11, 3, 2, 10, 23],
        &[23, 10, 1, 2, 11, 21],
        &[20, 10, 2, 3, 11, 22],
        &[21, 11, 3, 1, 10, 23],
    ];
    path_set(&raw.iter().map(|p| p.to_vec()).collect::<Vec<_>>())
}

/// Upstream stages that are looked up (and must hit) while re-running
/// S7-and-downstream: every direct input of a re-run stage.
const UPSTREAM_HIT_ON_S7_CHANGE: &[&str] = &[
    "s1_sanitize",
    "path_arena",
    "s2_degrees",
    "s3_clique",
    "s4_poison",
    "observed_links",
    "s6_vp_providers",
];

const S7_AND_DOWNSTREAM: &[&str] = &[
    "s7_anomaly_repair",
    "s8_stub_clique",
    "s9_providerless",
    "s10_p2p",
    "s11_inference",
];

#[test]
fn s7_config_change_invalidates_only_s7_and_downstream() {
    let ps = fixture();
    let mut snap = Snapshot::new(&ps, InferenceConfig::default());
    snap.inference().expect("cold inference");
    let before = snap.stage_report();

    let mut changed = InferenceConfig::default();
    changed.degree_flip_ratio = 25.0;
    snap.set_config(changed);
    snap.inference().expect("warm inference after S7 knob change");
    let after = snap.stage_report();

    for name in UPSTREAM_HIT_ON_S7_CHANGE {
        let (b, a) = (before.get(name).unwrap(), after.get(name).unwrap());
        assert_eq!(a.runs, b.runs, "{name} recomputed after an S7-only change");
        assert_eq!(a.misses, b.misses, "{name} took a cache miss");
        assert!(a.hits > b.hits, "{name} was never served from cache");
    }
    // S5 sits behind the cache-hit S6, so the warm run never even looks
    // it up — strictly less work than a hit.
    let (b, a) = (
        before.get("s5_topdown").unwrap(),
        after.get("s5_topdown").unwrap(),
    );
    assert_eq!(a.runs, b.runs, "s5_topdown recomputed after an S7-only change");
    assert_eq!(a.misses, b.misses);
    for name in S7_AND_DOWNSTREAM {
        let (b, a) = (before.get(name).unwrap(), after.get(name).unwrap());
        assert_eq!(a.runs, b.runs + 1, "{name} should re-run exactly once");
    }
}

#[test]
fn second_command_over_same_snapshot_recomputes_nothing_upstream() {
    let ps = fixture();
    let mut snap = Snapshot::new(&ps, InferenceConfig::default());

    // First command: `infer`.
    snap.inference().expect("inference");
    let before = snap.stage_report();

    // Second command: `rank` pulls the inference again plus the
    // recursive cone.
    snap.inference().expect("inference (warm)");
    snap.recursive_cone().expect("recursive cone");
    let after = snap.stage_report();

    for name in ["s1_sanitize", "s2_degrees", "path_arena"] {
        let (b, a) = (before.get(name).unwrap(), after.get(name).unwrap());
        assert_eq!(a.runs, 1, "{name} ran more than once across commands");
        assert_eq!(a.misses, b.misses, "{name} took a fresh cache miss");
    }
    // The warm inference materialization is a pure cache hit, and the
    // cone stage's lookup of its s11 input is a second one.
    let (b, a) = (
        before.get("s11_inference").unwrap(),
        after.get("s11_inference").unwrap(),
    );
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.hits, b.hits + 2);
    assert_eq!(a.misses, b.misses);
    // Only the cone stage itself did new work.
    assert_eq!(after.get("cone_recursive").unwrap().runs, 1);
}

