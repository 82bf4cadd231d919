//! The paper's comparative claim, as an executable assertion: on the
//! same observed paths, ASRank outperforms every baseline on c2p PPV,
//! and the baselines behave according to their documented weaknesses.

use asrank::baselines::{xia_gao_infer, Baseline, XiaGaoConfig};
use asrank::bgpsim::{simulate, SimConfig, VpSelection};
use asrank::core::pipeline::{infer, InferenceConfig};
use asrank::topology::{generate, TopologyConfig};
use asrank::types::prelude::*;
use asrank::validation::evaluate_against_truth;

struct Scores {
    c2p_ppv: f64,
    p2p_ppv: f64,
}

fn score(rels: &RelationshipMap, truth: &RelationshipMap) -> Scores {
    let r = evaluate_against_truth(rels, truth);
    Scores {
        c2p_ppv: r.c2p_ppv(),
        p2p_ppv: r.p2p_ppv(),
    }
}

#[test]
fn asrank_beats_every_baseline_on_c2p() {
    let topo = generate(&TopologyConfig::small(), 42);
    let mut cfg = SimConfig::defaults(42);
    cfg.vp_selection = VpSelection::Count(30);
    let sim = simulate(&topo, &cfg);
    let truth = &topo.ground_truth.relationships;

    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    let ours = infer(&sim.paths, &InferenceConfig::with_ixps(ixps));
    let our_score = score(&ours.relationships, truth);

    for b in Baseline::all() {
        let theirs = score(&b.run(&sim.paths), truth);
        assert!(
            our_score.c2p_ppv > theirs.c2p_ppv,
            "{} c2p PPV {:.3} should trail ASRank's {:.3}",
            b.name(),
            theirs.c2p_ppv,
            our_score.c2p_ppv
        );
    }
}

#[test]
fn seeding_helps_xia_gao() {
    let topo = generate(&TopologyConfig::small(), 17);
    let mut cfg = SimConfig::defaults(17);
    cfg.vp_selection = VpSelection::Count(25);
    let sim = simulate(&topo, &cfg);
    let truth = &topo.ground_truth.relationships;

    let unseeded = score(
        &xia_gao_infer(
            &sim.paths,
            &RelationshipMap::new(),
            &XiaGaoConfig::default(),
        ),
        truth,
    );

    // Seed with the true clique peering + the Tier-1s' customer links —
    // a plausible registry snapshot.
    let mut seed = RelationshipMap::new();
    let clique = topo.ground_truth.clique();
    for (i, &a) in clique.iter().enumerate() {
        for &b in &clique[i + 1..] {
            seed.insert_p2p(a, b);
        }
    }
    for (c, p) in truth.c2p_pairs() {
        if clique.contains(&p) {
            seed.insert_c2p(c, p);
        }
    }
    let seeded = score(
        &xia_gao_infer(&sim.paths, &seed, &XiaGaoConfig::default()),
        truth,
    );
    assert!(
        seeded.c2p_ppv >= unseeded.c2p_ppv,
        "seeding must not hurt c2p PPV ({:.3} vs {:.3})",
        seeded.c2p_ppv,
        unseeded.c2p_ppv
    );
}

#[test]
fn degree_heuristic_is_the_floor() {
    let topo = generate(&TopologyConfig::small(), 9);
    let mut cfg = SimConfig::defaults(9);
    cfg.vp_selection = VpSelection::Count(30);
    let sim = simulate(&topo, &cfg);
    let truth = &topo.ground_truth.relationships;

    let degree = score(&Baseline::Degree.run(&sim.paths), truth);
    let gao = score(&Baseline::Gao.run(&sim.paths), truth);
    // Gao uses path semantics; the blind degree heuristic should not
    // beat it on combined accuracy.
    let combined = |s: &Scores| s.c2p_ppv + s.p2p_ppv;
    assert!(
        combined(&gao) >= combined(&degree) - 0.05,
        "Gao {:.3}/{:.3} vs degree {:.3}/{:.3}",
        gao.c2p_ppv,
        gao.p2p_ppv,
        degree.c2p_ppv,
        degree.p2p_ppv
    );
}

#[test]
fn all_baselines_reach_minimum_sanity() {
    // Nobody should be catastrophically wrong on clean small data: c2p
    // PPV above 50% (coin flip on orientation) for every algorithm.
    let topo = generate(&TopologyConfig::small(), 4);
    let mut cfg = SimConfig::defaults(4);
    cfg.vp_selection = VpSelection::Count(30);
    let sim = simulate(&topo, &cfg);
    let truth = &topo.ground_truth.relationships;
    for b in Baseline::all() {
        let s = score(&b.run(&sim.paths), truth);
        assert!(
            s.c2p_ppv > 0.5,
            "{}: c2p PPV {:.3} below sanity floor",
            b.name(),
            s.c2p_ppv
        );
    }
}
