//! The serve tier must be answer-for-answer identical to the engine it
//! fronts: every query kind, over every observed AS (plus misses),
//! against the owned structures the pipeline produced.

mod common;

use asrank_core::engine::{stage_disk_key, Snapshot};
use asrank_core::pipeline::InferenceConfig;
use asrank_core::{rank_ases, CacheDir};
use asrank_serve::{
    Answer, ConeFlavor, Query, ServeError, ServeSnapshot, SourceSpec, INFERENCE_STAGE,
};
use asrank_types::{Asn, Ipv4Prefix};
use common::{sample_paths, scratch, warm_cache};
use std::collections::HashMap;

fn probes(ps: &asrank_types::PathSet) -> Vec<Asn> {
    let mut seen: Vec<Asn> = ps.iter().flat_map(|s| s.path.iter()).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.extend([Asn(0), Asn(7_777), Asn(u32::MAX)]);
    seen
}

#[test]
fn serve_answers_match_engine() {
    let root = scratch("equiv");
    let ps = sample_paths();
    let spec = warm_cache(&root, b"equiv-rib-bytes-v1", &ps);
    let serve = ServeSnapshot::load(&spec, 1).expect("load snapshot");

    let mut snap = Snapshot::new(&ps, InferenceConfig::default());
    let inf = snap.inference().expect("engine inference");
    let (recursive, bgp, pp) = snap.cones().expect("engine cones");
    let ranked = rank_ases(&recursive, &inf.degrees);

    let probes = probes(&ps);
    for &x in &probes {
        // degree + rank
        let (t, n) = serve.degree(x);
        assert_eq!(t as usize, inf.degrees.transit_degree(x), "transit {x:?}");
        assert_eq!(n as usize, inf.degrees.node_degree(x), "node {x:?}");
        let want_rank = ranked.iter().find(|r| r.asn == x).map(|r| r.rank as u64);
        assert_eq!(serve.rank(x), want_rank, "rank {x:?}");

        // cone sizes, every flavor
        for (flavor, cones) in [
            (ConeFlavor::Recursive, &recursive),
            (ConeFlavor::BgpObserved, &bgp),
            (ConeFlavor::ProviderPeer, &pp),
        ] {
            assert_eq!(serve.cone_size(flavor, x), cones.size(x), "{flavor} size {x:?}");
        }

        for &y in &probes {
            assert_eq!(
                serve.rel(x, y),
                inf.relationships.get(x, y),
                "rel {x:?} {y:?}"
            );
            assert_eq!(
                serve.orientation(x, y),
                inf.relationships.orientation(x, y),
                "orientation {x:?} {y:?}"
            );
            for (flavor, cones) in [
                (ConeFlavor::Recursive, &recursive),
                (ConeFlavor::BgpObserved, &bgp),
                (ConeFlavor::ProviderPeer, &pp),
            ] {
                assert_eq!(
                    serve.cone_contains(flavor, x, y),
                    cones.contains(x, y),
                    "{flavor} contains {x:?} {y:?}"
                );
            }
        }
    }
    assert_eq!(serve.ranked_len(), ranked.len());
    assert_eq!(serve.report(), &inf.report);
}

#[test]
fn batch_answers_match_single_answers() {
    let root = scratch("batch");
    let ps = sample_paths();
    let spec = warm_cache(&root, b"batch-rib-bytes-v1", &ps);
    let serve = ServeSnapshot::load(&spec, 1).expect("load snapshot");

    let queries: Vec<Query> = probes(&ps)
        .iter()
        .flat_map(|&x| {
            vec![
                Query::Rel(x, Asn(1)),
                Query::ConeContains(ConeFlavor::Recursive, Asn(1), x),
                Query::ConeSize(ConeFlavor::BgpObserved, x),
                Query::Degree(x),
                Query::Rank(x),
            ]
        })
        .collect();
    let mut batch: Vec<Answer> = Vec::new();
    serve.answer_batch(&queries, &mut batch);
    assert_eq!(batch.len(), queries.len());
    for (q, a) in queries.iter().zip(batch.iter()) {
        assert_eq!(serve.answer(*q), *a, "{q:?}");
    }
}

#[test]
fn resolved_frames_sit_at_stage_disk_keys() {
    // `resolve` keys all four frames from one `StageKeys`; each must be
    // the path `stage_disk_key` names, with and without a prefix table.
    let ps = sample_paths();
    let prefixes: HashMap<Asn, Vec<Ipv4Prefix>> =
        [(Asn(10), vec!["10.0.0.0/8".parse().unwrap()])].into();
    for (name, table) in [("keys", None), ("keys-prefixed", Some(prefixes))] {
        let root = scratch(name);
        let mut spec = warm_cache(&root, b"keys-rib-bytes-v1", &ps);
        if let Some(table) = &table {
            let mut snap = Snapshot::new(&ps, InferenceConfig::default())
                .with_cache_dir(&spec.cache_root)
                .with_prefixes(table.clone());
            snap.cones().expect("materialize prefixed cones");
        }
        spec.prefixes = table;
        let frames = spec.resolve().expect("resolve");
        let cache = CacheDir::new(&spec.cache_root);
        let stages = [INFERENCE_STAGE]
            .into_iter()
            .chain(ConeFlavor::ALL.map(|f| f.stage()));
        let located = [&frames.inference].into_iter().chain(&frames.cones);
        for (stage, path) in stages.zip(located) {
            let key = stage_disk_key(stage, &spec.cfg, spec.prefixes.as_ref(), frames.content_fp);
            assert_eq!(*path, cache.entry_path(stage, key.unwrap()), "{stage}");
        }
    }
}

#[test]
fn missing_frames_are_reported_with_paths() {
    let root = scratch("missing");
    let rib = root.join("cold.mrt");
    std::fs::write(&rib, b"cold-rib").unwrap();
    let spec = SourceSpec {
        rib,
        cache_root: root.join("empty-cache"),
        cfg: InferenceConfig::default(),
        prefixes: None,
    };
    match ServeSnapshot::load(&spec, 1) {
        Err(ServeError::MissingFrame { stage, .. }) => assert_eq!(stage, "rib_ingest"),
        other => panic!("expected MissingFrame, got {other:?}"),
    }
}

#[test]
fn stale_config_misses_cleanly() {
    // A cache warmed under the default config must not resolve for a
    // different config — the keys shift, and serve reports the miss
    // instead of serving wrong-config artifacts.
    let root = scratch("cfgmiss");
    let ps = sample_paths();
    let mut spec = warm_cache(&root, b"cfg-rib-bytes-v1", &ps);
    spec.cfg = InferenceConfig::with_ixps([Asn(999)]);
    match ServeSnapshot::load(&spec, 1) {
        Err(ServeError::MissingFrame { .. }) => {}
        other => panic!("expected MissingFrame under changed config, got {other:?}"),
    }
}
