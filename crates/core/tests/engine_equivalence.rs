//! Property and cache-behavior tests for the staged engine and the
//! reference pipeline it is pinned to:
//!
//! * on random path sets, `Snapshot::inference()` must be bit-identical
//!   to `infer_monolithic` — at `Parallelism::sequential()` and
//!   `Parallelism::threads(4)`. The engine's S2 and S3 read the path
//!   arena while the monolithic pipeline runs `DegreeTable::compute` /
//!   `infer_clique` over the sanitized samples, so the degree table and
//!   clique are compared too;
//! * a step the reference pipeline skips reports a zero counter, and
//!   every step before it in paper order reports what the full run
//!   reports — on random path sets, and on a fixed set where every
//!   skippable step has work to do;
//! * a second command over the same snapshot (the `rank`-after-`infer`
//!   shape) recomputes nothing upstream — zero redundant sanitize /
//!   arena / degree work, pinned via the cache counters.

use asrank_core::engine::Snapshot;
use asrank_core::pipeline::{infer_monolithic, InferenceConfig, InferenceReport, Step};
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
    let mono = infer_monolithic(ps, cfg, None);
    let mut snap = Snapshot::new(ps, cfg.clone());
    let inf = snap.inference().expect("engine inference");
    assert_eq!(inf.relationships, mono.relationships, "relationships differ");
    assert_eq!(inf.degrees, mono.degrees, "degree table differs");
    assert_eq!(inf.clique, mono.clique, "clique differs");
    assert_eq!(inf.report, mono.report, "report differs");
}

/// The S4–S9 counters in paper order: S4 discards, S5's inferences and
/// conflicts, then S6, S7, S8 and S9.
fn paper_order_counters(r: &InferenceReport) -> [usize; 7] {
    [
        r.discarded_poisoned,
        r.c2p_from_topdown,
        r.conflicts,
        r.c2p_from_vps,
        r.repaired_anomalies,
        r.c2p_stub_clique,
        r.c2p_providerless,
    ]
}

/// Every skippable step, in paper order.
const STEPS: [Step; 5] = [
    Step::PoisonFilter,
    Step::VpProviders,
    Step::AnomalyRepair,
    Step::StubClique,
    Step::Providerless,
];

/// The position of a skippable step's own counter in
/// [`paper_order_counters`].
fn counter_of(step: Step) -> usize {
    match step {
        Step::PoisonFilter => 0,
        Step::VpProviders => 3,
        Step::AnomalyRepair => 4,
        Step::StubClique => 5,
        Step::Providerless => 6,
    }
}

/// Run the reference pipeline in full and with each step skipped. A
/// skipped step's counter is 0, and S1–S3 and every counter before it
/// in paper order equal the full run's. Returns the full run's counters.
fn assert_skips_are_exact(ps: &PathSet) -> [usize; 7] {
    let cfg = InferenceConfig::default();
    let full = infer_monolithic(ps, &cfg, None);
    let want = paper_order_counters(&full.report);
    for step in STEPS {
        let at = counter_of(step);
        let skipped = infer_monolithic(ps, &cfg, Some(step));
        let got = paper_order_counters(&skipped.report);
        assert_eq!(got[at], 0, "{step:?} skipped but counted");
        assert_eq!(
            got[..at],
            want[..at],
            "{step:?} skipped: an earlier step changed"
        );
        assert_eq!(
            skipped.report.sanitize, full.report.sanitize,
            "{step:?}: S1 changed"
        );
        assert_eq!(skipped.degrees, full.degrees, "{step:?}: S2 changed");
        assert_eq!(skipped.clique, full.clique, "{step:?}: S3 changed");
    }
    want
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
    fn skipped_step_counts_zero_and_earlier_steps_match(paths in paths_strategy()) {
        assert_skips_are_exact(&path_set(&paths));
    }
}

/// The same check on four paths plus a ten-path fan through AS 3 (a
/// transit degree ≥ 10, which S7 needs), found by search so that every
/// counter of [`paper_order_counters`] is nonzero: each skippable step
/// has work to do, and skipping it must change the map.
#[test]
fn every_skip_is_exact_where_every_step_does_work() {
    let mut raw: Vec<Vec<u32>> = vec![
        vec![7, 10, 8, 3],
        vec![1, 10, 2, 6, 5],
        vec![10, 1, 11, 3, 7],
        vec![8, 7, 9, 5, 1],
    ];
    raw.extend((0..10).map(|i| vec![100 + i, 3, 200 + i]));
    let ps = path_set(&raw);
    let counters = assert_skips_are_exact(&ps);
    assert!(
        counters.iter().all(|&c| c > 0),
        "a step does no work: {counters:?}"
    );
    let cfg = InferenceConfig::default();
    let full = infer_monolithic(&ps, &cfg, None);
    for step in STEPS {
        let skipped = infer_monolithic(&ps, &cfg, Some(step));
        assert_ne!(
            skipped.relationships, full.relationships,
            "{step:?} skip changed nothing"
        );
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

