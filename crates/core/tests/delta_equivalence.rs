//! Equivalence pins for the incremental engine:
//!
//! * after any sequence of update batches, a [`DeltaSession`] refresh
//!   must hold artifacts **byte-identical** (serialized frame compare,
//!   every stage) to a cold run over the same final sample set — at
//!   `Parallelism::sequential()` and `Parallelism::threads(4)`, whether
//!   it refreshes after every batch or coalesces them — and every
//!   refresh walks each stage incrementally, whatever the churn;
//! * an empty update batch is a byte-identical no-op: zero recomputes,
//!   every stage a delta skip, every held `Arc` reused, every encoded
//!   frame unchanged — pinned via the engine's cache counters; so is a
//!   batch of unknown withdrawals and a same-path re-announce;
//! * adversarial streams — withdraw everything then announce it all
//!   again, a path that leaves and returns before one refresh — match
//!   the cold run too.
//!
//! The rebuild-from-scratch semantics of [`UpdateBatch::apply`] is the
//! oracle throughout.

use asrank_core::delta::DeltaSession;
use asrank_core::engine::Snapshot;
use asrank_core::persist::encode_artifact;
use asrank_core::pipeline::InferenceConfig;
use asrank_types::{PathDelta, UpdateBatch};
use asrank_types::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Random raw path sets over a small ASN universe — same shape as the
/// engine equivalence suite, so sanitization sees loops, prepending,
/// and overlapping paths. `(vp, prefix)` keys are unique by
/// construction (the prefix encodes the sample index).
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..6), 1..30)
}

/// Raw op streams: `(kind, index, hops)` tuples that [`build_batch`]
/// resolves against the evolving sample set — withdraws and replacing
/// announcements target live keys, fresh announcements mint new ones.
fn batches_strategy() -> impl Strategy<Value = Vec<Vec<(u8, usize, Vec<u32>)>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                0u8..6,
                any::<usize>(),
                proptest::collection::vec(1u32..40, 2..6),
            ),
            0..8,
        ),
        1..4,
    )
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

/// Resolve one raw op stream into an [`UpdateBatch`] against the
/// current sample set. `fresh` mints never-before-seen prefixes in a
/// range disjoint from the base set's.
fn build_batch(
    ops: &[(u8, usize, Vec<u32>)],
    current: &PathSet,
    fresh: &mut u32,
) -> UpdateBatch {
    let keys: Vec<(Asn, Ipv4Prefix)> = current.iter().map(|s| (s.vp, s.prefix)).collect();
    let mut deltas = Vec::new();
    for (kind, idx, hops) in ops {
        let path = AsPath::from_u32s(hops.iter().copied());
        match kind % 3 {
            0 if !keys.is_empty() => {
                let (vp, prefix) = keys[idx % keys.len()];
                deltas.push((vp, prefix, PathDelta::Withdraw));
            }
            1 if !keys.is_empty() => {
                let (vp, prefix) = keys[idx % keys.len()];
                deltas.push((vp, prefix, PathDelta::Announce(path)));
            }
            _ => {
                *fresh += 1;
                let prefix = Ipv4Prefix::new(0xC000_0000 | (*fresh << 8), 24).unwrap();
                deltas.push((Asn(hops[0]), prefix, PathDelta::Announce(path)));
            }
        }
    }
    UpdateBatch::from_deltas(deltas)
}

/// Every artifact the session holds must serialize to the same bytes a
/// cold snapshot over `oracle` produces for that stage.
fn assert_matches_cold(session: &DeltaSession, oracle: &PathSet, cfg: &InferenceConfig) {
    let mut cold = Snapshot::new(oracle, cfg.clone());
    for (idx, name) in Snapshot::stage_names().iter().enumerate() {
        let want = encode_artifact(&cold.materialize(name).expect("cold stage"));
        let got = encode_artifact(&session.artifacts()[idx]);
        assert_eq!(
            got, want,
            "stage {name} frame differs from the cold run after delta refresh"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn refresh_per_batch_matches_cold_run(
        paths in paths_strategy(),
        raw in batches_strategy(),
    ) {
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let mut cfg = InferenceConfig::default();
            cfg.parallelism = par;
            let mut oracle = path_set(&paths);
            let mut session =
                DeltaSession::new(oracle.clone(), cfg.clone()).expect("session");
            let mut fresh = 0u32;
            for ops in &raw {
                let batch = build_batch(ops, &oracle, &mut fresh);
                session.apply(&batch).expect("apply");
                oracle = batch.apply(oracle);
                session.refresh().expect("refresh");
                prop_assert_eq!(session.len(), oracle.len());
                // One refresh path at every churn level: each stage is
                // walked incrementally, as exactly one skip or recompute.
                for (name, stats) in &session.stage_report().stages {
                    prop_assert_eq!(
                        stats.delta_skipped + stats.delta_recomputed,
                        1,
                        "stage {} not walked incrementally",
                        name
                    );
                }
                assert_matches_cold(&session, &oracle, &cfg);
            }
        }
    }

    #[test]
    fn coalesced_batches_match_cold_run(
        paths in paths_strategy(),
        raw in batches_strategy(),
    ) {
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let mut cfg = InferenceConfig::default();
            cfg.parallelism = par;
            let mut oracle = path_set(&paths);
            let mut session =
                DeltaSession::new(oracle.clone(), cfg.clone()).expect("session");
            let mut fresh = 0u32;
            for ops in &raw {
                let batch = build_batch(ops, &oracle, &mut fresh);
                session.apply(&batch).expect("apply");
                oracle = batch.apply(oracle);
            }
            session.refresh().expect("refresh");
            assert_matches_cold(&session, &oracle, &cfg);
        }
    }

    /// The empty batch, and a batch of withdrawals of keys the session
    /// never held plus a re-announce of the exact path a sample already
    /// holds, both change nothing.
    #[test]
    fn empty_batch_is_byte_identical_noop(paths in paths_strategy()) {
        let ps = path_set(&paths);
        let first = ps.iter().next().expect("at least one sample");
        let noop = UpdateBatch::from_deltas(vec![
            (Asn(1), Ipv4Prefix::new(0xC000_0000, 24).unwrap(), PathDelta::Withdraw),
            (first.vp, Ipv4Prefix::new(0xC000_0100, 24).unwrap(), PathDelta::Withdraw),
            (first.vp, first.prefix, PathDelta::Announce(first.path.clone())),
        ]);
        for (par, batch) in [Parallelism::sequential(), Parallelism::threads(4)]
            .into_iter()
            .flat_map(|par| [(par, UpdateBatch::default()), (par, noop.clone())])
        {
            let mut cfg = InferenceConfig::default();
            cfg.parallelism = par;
            let mut session = DeltaSession::new(ps.clone(), cfg).expect("session");
            let frames_before: Vec<Vec<u8>> =
                session.artifacts().iter().map(encode_artifact).collect();
            let inference_before = session.inference().expect("inference");
            let arena_before = session.arena().expect("arena");

            session.apply(&batch).expect("apply");
            prop_assert!(!session.pending(), "a no-op batch must not dirty the session");
            let outcome = session.refresh().expect("refresh");

            // Zero recomputes, every stage a skip — via the engine's
            // own delta counters.
            prop_assert_eq!(outcome.recomputed, 0);
            prop_assert_eq!(outcome.skipped, Snapshot::stage_names().len());
            for (name, stats) in &session.stage_report().stages {
                prop_assert_eq!(stats.runs, 0, "stage {} ran on an empty batch", name);
                prop_assert_eq!(stats.delta_skipped, 1, "stage {} not skipped", name);
                prop_assert_eq!(stats.delta_recomputed, 0, "stage {} recomputed", name);
            }

            // Held artifacts are the same allocations, and every
            // serialized frame is byte-identical.
            prop_assert!(Arc::ptr_eq(
                &inference_before,
                &session.inference().expect("inference")
            ));
            prop_assert!(Arc::ptr_eq(&arena_before, &session.arena().expect("arena")));
            prop_assert_eq!(session.len(), ps.len());
            for (idx, before) in frames_before.iter().enumerate() {
                let after = encode_artifact(&session.artifacts()[idx]);
                prop_assert_eq!(
                    before, &after,
                    "stage {} frame changed across a no-op refresh",
                    Snapshot::stage_names()[idx]
                );
            }
        }
    }
}

/// Regression: a batch that moves a transit degree while leaving S5 and
/// S6 unchanged must still rerun S7, which reads degrees directly. Here
/// announcing `600 500 11` lifts AS 500's transit degree from 20 to 21,
/// and the cold run's S7 demotes 500→600 from c2p to p2p.
#[test]
fn degree_only_change_reruns_anomaly_repair() {
    let base: Vec<Vec<u32>> = vec![
        vec![800, 1, 500, 11],
        vec![801, 1, 500, 12],
        vec![802, 1, 500, 13],
        vec![850, 590, 600, 500],
        vec![900, 850, 901],
        vec![902, 850, 903],
        vec![2, 500, 14],
        vec![3, 500, 15],
        vec![4, 500, 16],
        vec![5, 500, 17],
        vec![6, 500, 18],
        vec![7, 500, 19],
        vec![8, 500, 20],
        vec![9, 500, 11],
        vec![10, 500, 12],
    ];
    let batch = UpdateBatch::from_deltas(vec![(
        Asn(600),
        Ipv4Prefix::new(0xC000_0100, 24).unwrap(),
        PathDelta::Announce(AsPath::from_u32s([600, 500, 11])),
    )]);
    for par in [Parallelism::sequential(), Parallelism::threads(4)] {
        let mut cfg = InferenceConfig::default();
        cfg.parallelism = par;
        let paths = path_set(&base);
        let mut session = DeltaSession::new(paths.clone(), cfg.clone()).expect("session");
        session.apply(&batch).expect("apply");
        session.refresh().expect("refresh");
        assert_matches_cold(&session, &batch.apply(paths), &cfg);
    }
}

/// A batch that only moves samples between known paths — a live
/// sample re-announced with another live sample's path, sharing its
/// first two hops, while a third sample still holds its old path —
/// leaves the distinct path set and every `(vp, first hop)` count
/// alone. Only S1 and S6 may rerun; the arena and the structural stages
/// must stay delta skips, the arena the very allocation held before.
#[test]
fn multiplicity_only_batch_skips_structural_stages() {
    let base: Vec<Vec<u32>> = vec![
        vec![100, 10, 1, 11, 110],
        vec![100, 10, 1, 2, 20, 200],
        vec![100, 10, 1, 2, 21, 210],
        vec![210, 21, 2, 20, 200],
        vec![210, 21, 2, 1, 10, 100],
        vec![210, 21, 2, 1, 11, 110],
        vec![100, 10, 1, 11, 110],
    ];
    // Sample 0 (vp 100, prefix 0/24) takes sample 1's path.
    let batch = UpdateBatch::from_deltas(vec![(
        Asn(100),
        Ipv4Prefix::new(0, 24).unwrap(),
        PathDelta::Announce(AsPath::from_u32s(base[1].iter().copied())),
    )]);
    let paths = path_set(&base);
    let cfg = InferenceConfig::default();
    let mut session = DeltaSession::new(paths.clone(), cfg.clone()).expect("session");
    let arena_before = session.arena().expect("arena");
    session.apply(&batch).expect("apply");
    session.refresh().expect("refresh");
    let report = session.stage_report();
    let recomputed: Vec<&str> = report
        .stages
        .iter()
        .filter(|(_, s)| s.delta_recomputed == 1)
        .map(|&(name, _)| name)
        .collect();
    assert_eq!(recomputed, ["s1_sanitize", "s6_vp_providers"]);
    assert_eq!(
        report.get("path_arena").expect("arena stats").delta_skipped,
        1,
        "path_arena must be a delta skip"
    );
    assert!(Arc::ptr_eq(&arena_before, &session.arena().expect("arena")));
    assert_matches_cold(&session, &batch.apply(paths), &cfg);
}

/// The hierarchy the adversarial streams below run over: every sample
/// is clean, and several distinct paths share hops.
fn adversarial_base() -> Vec<Vec<u32>> {
    vec![
        vec![100, 10, 1, 2, 20, 200],
        vec![100, 10, 1, 3, 30, 300],
        vec![200, 20, 2, 1, 10, 100],
        vec![200, 20, 2, 3, 30, 300],
        vec![300, 30, 3, 1, 10, 100],
        vec![300, 30, 3, 2, 20, 200],
        vec![100, 10, 1, 2, 20, 200],
        vec![110, 10, 1, 2, 21, 210],
    ]
}

/// Every configuration the adversarial cases run at.
fn configs() -> [InferenceConfig; 2] {
    [Parallelism::sequential(), Parallelism::threads(4)].map(|parallelism| InferenceConfig {
        parallelism,
        ..InferenceConfig::default()
    })
}

/// Withdrawing every sample leaves an empty arena; announcing the base
/// table again afterwards restores every path, each refresh equal to a
/// cold run.
#[test]
fn withdraw_everything_then_reannounce_matches_cold_run() {
    let base = adversarial_base();
    for cfg in configs() {
        let paths = path_set(&base);
        let mut session = DeltaSession::new(paths.clone(), cfg.clone()).expect("session");

        let withdraw_all =
            UpdateBatch::from_deltas(paths.iter().map(|s| (s.vp, s.prefix, PathDelta::Withdraw)));
        session.apply(&withdraw_all).expect("apply");
        let emptied = withdraw_all.apply(paths.clone());
        assert!(emptied.is_empty());
        session.refresh().expect("refresh");
        assert!(session.is_empty());
        assert!(session.arena().expect("arena").is_empty());
        assert_matches_cold(&session, &emptied, &cfg);

        let reannounce = UpdateBatch::from_deltas(
            paths
                .iter()
                .map(|s| (s.vp, s.prefix, PathDelta::Announce(s.path.clone()))),
        );
        session.apply(&reannounce).expect("apply");
        let restored = reannounce.apply(emptied);
        session.refresh().expect("refresh");
        assert_eq!(session.len(), base.len());
        assert_matches_cold(&session, &restored, &cfg);
    }
}

/// A path held by one sample leaves the distinct set and comes back in
/// the next batch, both folded into one refresh. The structure is
/// dirty, so the arena is rebuilt, but its content is the arena held
/// before.
#[test]
fn path_that_leaves_and_returns_before_one_refresh_matches_cold_run() {
    let base = adversarial_base();
    // Sample 7 holds the only copy of its path.
    let (vp, prefix) = (Asn(110), Ipv4Prefix::new(7 << 8, 24).unwrap());
    let away = UpdateBatch::from_deltas(vec![(
        vp,
        prefix,
        PathDelta::Announce(AsPath::from_u32s([110, 10, 1, 3, 30, 300])),
    )]);
    let back = UpdateBatch::from_deltas(vec![(
        vp,
        prefix,
        PathDelta::Announce(AsPath::from_u32s(base[7].iter().copied())),
    )]);
    for cfg in configs() {
        let paths = path_set(&base);
        let mut session = DeltaSession::new(paths.clone(), cfg.clone()).expect("session");
        let arena_before = session.arena().expect("arena");
        session.apply(&away).expect("apply");
        session.apply(&back).expect("apply");
        assert!(session.pending());
        session.refresh().expect("refresh");
        let arena_stats = session
            .stage_report()
            .get("path_arena")
            .expect("arena stats");
        assert_eq!(
            arena_stats.delta_recomputed, 1,
            "a dirty structure rebuilds the arena"
        );
        assert_eq!(*session.arena().expect("arena"), *arena_before);
        assert_matches_cold(&session, &back.apply(away.apply(paths)), &cfg);
    }
}
