//! Borrowed frame views must be indistinguishable from the owned decode:
//! for every artifact kind the serve tier maps (inference and cone),
//! every accessor the view exposes agrees with the owned structure
//! rebuilt by `decode_artifact` — at sequential and parallel engine runs,
//! since the frames themselves must not depend on parallelism. The
//! pathset ingest frame, of which serve reads only the recorded content
//! fingerprint, must record exactly `pathset_fingerprint` of its set. And
//! a view constructor, like the ingest frame's readers, must reject
//! damaged frames before any query touches them.

use asrank_core::engine::Snapshot;
use asrank_core::persist::view::{ConeView, InferenceView};
use asrank_core::persist::{decode_pathset, encode_pathset, kind, tag_for_stage};
use asrank_core::pipeline::InferenceConfig;
use asrank_core::{
    decode_artifact, encode_artifact, pathset_fingerprint, pathset_fingerprint_from_frame, Artifact,
};
use asrank_types::{Asn, AsPath, Ipv4Prefix, Parallelism, PathSample, PathSet};
use proptest::prelude::*;

fn path_set(paths: Vec<Vec<u32>>) -> PathSet {
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

/// Probe ASNs: everything observed plus a few certainly-unknown ones, so
/// lookups exercise both hit and miss paths.
fn probes(ps: &PathSet) -> Vec<Asn> {
    let mut seen: Vec<Asn> = ps.iter().flat_map(|s| s.path.iter()).collect();
    seen.sort_unstable();
    seen.dedup();
    seen.extend([Asn(0), Asn(99_999), Asn(u32::MAX)]);
    seen
}

/// Compare every view accessor of `bytes` against the owned decode of
/// the same frame. Stages whose kind has no view are not checked here.
fn assert_view_matches_owned(stage: &str, bytes: &[u8], probes: &[Asn]) {
    let tag = tag_for_stage(stage).expect("stage tag");
    let owned = decode_artifact(bytes, tag).expect("owned decode");
    match (tag, &owned) {
        (kind::INFERENCE, Artifact::Inference(inf)) => {
            let (v, layout, report) = InferenceView::open(bytes).expect("open inference");
            assert_eq!(report, inf.report);
            assert_rels_match(&v.rels, &inf.relationships, probes);
            let want: Vec<u32> = inf.clique.iter().map(|a| a.0).collect();
            assert_eq!(v.clique.to_vec(), want);
            assert_eq!(v.degrees.len(), inf.degrees.len());
            for (i, &asn) in inf.degrees.ranked().iter().enumerate() {
                let (va, vt, vn) = v.degrees.entry(i).expect("degree entry");
                assert_eq!((va, vt as usize, vn as usize), (
                    asn,
                    inf.degrees.transit_degree(asn),
                    inf.degrees.node_degree(asn)
                ));
            }
            // The reconstituted view answers identically to the opened one.
            let r = InferenceView::from_layout(bytes, &layout);
            for &x in probes {
                for &y in probes {
                    assert_eq!(r.rels.get(x, y), v.rels.get(x, y));
                }
            }
        }
        (kind::CONE, Artifact::Cone(c)) => {
            let (v, layout) = ConeView::open(bytes).expect("open cone");
            assert_eq!(v.len(), c.len());
            for &x in probes {
                let vs = v.size(x);
                let os = c.size(x);
                assert_eq!((vs.ases, vs.prefixes, vs.addresses), (os.ases, os.prefixes, os.addresses));
                let want: Vec<u32> = c.members(x).iter().map(|a| a.0).collect();
                assert_eq!(v.members(x).to_vec(), want, "members of {x:?}");
                for &y in probes {
                    assert_eq!(v.contains(x, y), c.contains(x, y), "contains({x:?},{y:?})");
                }
            }
            let got: Vec<_> = v.iter_sizes().map(|(a, s)| (a, s.ases)).collect();
            let want: Vec<_> = c.iter_sizes().map(|(a, s)| (a, s.ases)).collect();
            assert_eq!(got, want);
            let r = ConeView::from_layout(bytes, &layout);
            for &x in probes {
                assert_eq!(r.size(x).ases, v.size(x).ases);
            }
        }
        (kind::INFERENCE | kind::CONE, _) => panic!("{stage}: decoded to the wrong kind"),
        _ => {}
    }
}

fn assert_rels_match(
    view: &asrank_core::persist::view::RelsView<'_>,
    owned: &asrank_types::RelationshipMap,
    probes: &[Asn],
) {
    assert_eq!(view.len(), owned.len());
    let mut want: Vec<_> = owned.iter().collect();
    want.sort_unstable_by_key(|&(l, _)| l);
    let got: Vec<_> = view.iter().collect();
    assert_eq!(got, want);
    for &x in probes {
        for &y in probes {
            assert_eq!(view.get(x, y), owned.get(x, y), "get({x:?},{y:?})");
            assert_eq!(
                view.orientation(x, y),
                owned.orientation(x, y),
                "orientation({x:?},{y:?})"
            );
        }
    }
}

fn assert_all_stages_match(ps: &PathSet, par: Parallelism) {
    let mut cfg = InferenceConfig::default();
    cfg.parallelism = par;
    let mut snap = Snapshot::new(ps, cfg);
    let pr = probes(ps);
    for stage in Snapshot::stage_names() {
        let artifact = snap.materialize(stage).expect("materialize");
        let bytes = encode_artifact(&artifact);
        assert_view_matches_owned(stage, &bytes, &pr);
    }
    // PATHSET is not an engine stage; check it directly, fingerprint too.
    let bytes = encode_pathset(ps);
    let back = decode_pathset(&bytes).expect("decode pathset");
    assert_eq!(back.samples(), ps.samples());
    assert_eq!(
        pathset_fingerprint_from_frame(&bytes).expect("frame fingerprint"),
        pathset_fingerprint(ps),
        "recorded fingerprint must equal the owned one"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn views_match_owned_decode_for_every_viewed_kind(
        paths in prop::collection::vec(prop::collection::vec(1u32..40, 2..6), 1..30),
    ) {
        let ps = path_set(paths);
        assert_all_stages_match(&ps, Parallelism::sequential());
        assert_all_stages_match(&ps, Parallelism::threads(4));
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

/// Whether the view for `stage`'s kind opens `bytes`; `None` for kinds
/// without a view.
fn open_any(stage: &str, bytes: &[u8]) -> Option<bool> {
    match tag_for_stage(stage).unwrap() {
        kind::INFERENCE => Some(InferenceView::open(bytes).is_ok()),
        kind::CONE => Some(ConeView::open(bytes).is_ok()),
        _ => None,
    }
}

/// Damaged frames must be rejected by `open` — bit flips break the
/// checksum, truncations break the framing — so no query can ever run
/// over corrupt bytes.
#[test]
fn view_constructors_reject_damaged_frames() {
    let ps = fixture();
    let mut snap = Snapshot::new(&ps, InferenceConfig::default());
    for stage in Snapshot::stage_names() {
        let bytes = encode_artifact(&snap.materialize(stage).expect("materialize"));
        if open_any(stage, &bytes).is_none() {
            continue;
        }
        assert_eq!(
            open_any(stage, &bytes),
            Some(true),
            "{stage}: pristine frame must open"
        );
        for pos in [0, 5, 9, 12, HEADER_MID, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            let at = pos % bad.len();
            bad[at] ^= 0x10;
            assert_eq!(
                open_any(stage, &bad),
                Some(false),
                "{stage}: flip at byte {pos} went undetected"
            );
        }
        for cut in [0, 4, HEADER_MID, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                open_any(stage, &bytes[..cut.min(bytes.len() - 1)]),
                Some(false),
                "{stage}: truncation to {cut} went undetected"
            );
        }
    }
    // The ingest frame: both readers reject every damage the views do,
    // the recorded fingerprint field included.
    let bytes = encode_pathset(&ps);
    assert!(decode_pathset(&bytes).is_ok());
    assert!(pathset_fingerprint_from_frame(&bytes).is_ok());
    let fingerprint_field = asrank_types::codec::HEADER_LEN + 3;
    for pos in [
        0,
        5,
        9,
        12,
        HEADER_MID,
        fingerprint_field,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x10;
        assert!(decode_pathset(&bad).is_err(), "pathset: flip at byte {pos}");
        assert!(
            pathset_fingerprint_from_frame(&bad).is_err(),
            "fingerprint: flip at byte {pos}"
        );
    }
    for cut in [
        0,
        4,
        HEADER_MID,
        fingerprint_field,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        assert!(
            decode_pathset(&bytes[..cut]).is_err(),
            "pathset: cut to {cut}"
        );
        assert!(
            pathset_fingerprint_from_frame(&bytes[..cut]).is_err(),
            "fingerprint: cut to {cut}"
        );
    }
}

const HEADER_MID: usize = 15;
