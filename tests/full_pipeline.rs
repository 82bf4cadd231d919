//! Cross-crate integration: the complete reproduction chain at small
//! scale, across seeds, including the MRT interchange path.

use asrank::bgpsim::{simulate, SimConfig, VpSelection};
use asrank::core::pipeline::{infer, InferenceConfig};
use asrank::core::{sanitize, CustomerCones, PathArena, SanitizeConfig};
use asrank::mrt::{read_rib_dump, write_rib_dump};
use asrank::topology::{generate, TopologyConfig};
use asrank::types::prelude::*;
use asrank::validation::{build_corpus, evaluate_against_corpus, evaluate_against_truth};

fn chain(
    seed: u64,
) -> (
    asrank::topology::GeneratedTopology,
    asrank::bgpsim::SimOutput,
    asrank::core::Inference,
) {
    let topo = generate(&TopologyConfig::small(), seed);
    let mut cfg = SimConfig::defaults(seed);
    cfg.vp_selection = VpSelection::Count(30);
    let sim = simulate(&topo, &cfg);
    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    let inference = infer(&sim.paths, &InferenceConfig::with_ixps(ixps));
    (topo, sim, inference)
}

#[test]
fn accuracy_floors_hold_across_seeds() {
    for seed in [1u64, 77, 2013] {
        let (topo, _sim, inference) = chain(seed);
        let r = evaluate_against_truth(&inference.relationships, &topo.ground_truth.relationships);
        assert!(
            r.c2p_ppv() > 0.95,
            "seed {seed}: c2p PPV {:.3} too low",
            r.c2p_ppv()
        );
        assert!(
            r.p2p_ppv() > 0.6,
            "seed {seed}: p2p PPV {:.3} too low",
            r.p2p_ppv()
        );
        assert!(
            r.coverage() > 0.7,
            "seed {seed}: coverage {:.3} too low",
            r.coverage()
        );
        assert_eq!(r.phantom_links, 0, "clean sim must not invent links");
        assert_eq!(inference.report.cycle_links, 0, "no c2p cycles expected");
    }
}

#[test]
fn corpus_ppv_beats_corpus_error() {
    // The inference should be *more* accurate than the noisy corpora
    // suggest: its PPV against a source is bounded below by roughly
    // (1 - corpus error) when the inference is near-perfect.
    let (topo, _sim, inference) = chain(5);
    let corpus = build_corpus(&topo.ground_truth, 5);
    let rows = evaluate_against_corpus(&inference.relationships, &corpus);
    let direct = rows
        .iter()
        .find(|r| r.source.name() == "direct")
        .expect("direct row");
    assert!(
        direct.c2p_ppv() > 0.95,
        "direct-report c2p PPV {:.3}",
        direct.c2p_ppv()
    );
}

#[test]
fn mrt_interchange_preserves_inference() {
    let (topo, sim, inference) = chain(11);
    let mut buf = Vec::new();
    write_rib_dump(&sim.paths, &mut buf, 1_365_000_000).expect("write");
    let reread = read_rib_dump(&buf[..]).expect("read");
    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    let again = infer(&reread, &InferenceConfig::with_ixps(ixps));
    let mut a: Vec<_> = inference.relationships.iter().collect();
    let mut b: Vec<_> = again.relationships.iter().collect();
    a.sort_by_key(|(l, _)| (l.a, l.b));
    b.sort_by_key(|(l, _)| (l.a, l.b));
    assert_eq!(a, b);
}

#[test]
fn cone_definitions_nest_on_clean_data() {
    let (topo, sim, inference) = chain(23);
    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    let par = Parallelism::auto();
    let arena = PathArena::build(&sanitize(&sim.paths, &SanitizeConfig::with_ixps(ixps)), par);
    let rels = &inference.relationships;
    let recursive = CustomerCones::recursive(rels, None);
    let bgp_observed = CustomerCones::bgp_observed(&arena, rels, None, par);
    let provider_peer = CustomerCones::provider_peer_observed(&arena, rels, None, par);
    // BGP-observed ⊆ recursive holds unconditionally (observed descents
    // use exactly the p2c links whose closure is the recursive cone).
    for asn in bgp_observed.ases() {
        for m in bgp_observed.members(asn) {
            assert!(
                recursive.contains(asn, *m),
                "{m} in bgp-observed but not recursive cone of {asn}"
            );
        }
    }
    // provider/peer-observed ⊆ bgp-observed only holds when every link
    // of every witnessed descent was inferred correctly; with imperfect
    // inference a mid-chain misclassification breaks the chain for the
    // BGP-observed definition but not for the announcement-based one
    // (the paper's definitions diverge the same way). Require strong
    // overlap rather than strict nesting.
    let (mut inside, mut total) = (0usize, 0usize);
    for asn in provider_peer.ases() {
        for m in provider_peer.members(asn) {
            total += 1;
            if recursive.contains(asn, *m) {
                inside += 1;
            }
        }
    }
    assert!(
        inside as f64 > 0.9 * total as f64,
        "pp-observed cones stray too far from recursive: {inside}/{total}"
    );
}

#[test]
fn recursive_cone_matches_ground_truth_for_correct_inference() {
    // Where the inference is perfect (use ground truth directly), the
    // recursive cone must equal the true customer cone.
    let topo = generate(&TopologyConfig::tiny(), 3);
    let cones = CustomerCones::recursive(&topo.ground_truth.relationships, None);
    for &asn in topo.ground_truth.classes.keys() {
        let truth = topo.ground_truth.true_customer_cone(asn);
        let got: std::collections::HashSet<Asn> = cones.members(asn).iter().copied().collect();
        // IXP route servers have no links, hence trivial cones on both
        // sides — handled by the default.
        if got.is_empty() {
            assert_eq!(truth.len(), 1);
            continue;
        }
        assert_eq!(got, truth, "cone mismatch for {asn}");
    }
}

#[test]
fn vp_count_improves_p2p_visibility() {
    let topo = generate(&TopologyConfig::small(), 31);
    let truth = &topo.ground_truth.relationships;
    let run = |vps: usize| {
        let sim = simulate(
            &topo,
            &SimConfig {
                vp_selection: VpSelection::Count(vps),
                full_feed_fraction: 0.4,
                anomalies: Default::default(),
                destination_sample: None,
                rib_cap_per_vp: None,
                threads: 0,
                seed: 31,
            },
        );
        let inference = infer(&sim.paths, &InferenceConfig::default());
        let r = evaluate_against_truth(&inference.relationships, truth);
        r.confusion[1].iter().sum::<usize>() // true-p2p links classified
    };
    let few = run(4);
    let many = run(60);
    assert!(
        many > few,
        "more VPs must surface more peering links ({few} → {many})"
    );
}
