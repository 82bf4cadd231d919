//! Golden numbers for the published parameters that the baselines and the
//! validation-corpus emulators hold as constants (Gao's `L`/`R`, Xia-Gao's
//! majority, SARK's equal-level share, the degree band, and the three
//! corpus sources' participation, error, transit bias and p2p inclusion).
//! The figures were recorded when these values were still settable
//! defaults, so they pin the constants to the values they replaced. The
//! seeded Xia-Gao votes on this input never split, so its majority is
//! pinned by `xia_gao::tests::tied_votes_keep_gaos_verdict` instead.

use asrank::baselines::xia_gao::xia_gao_infer;
use asrank::baselines::Baseline;
use asrank::bgpsim::{simulate, SimConfig, VpSelection};
use asrank::topology::{generate, TopologyConfig};
use asrank::types::prelude::*;
use asrank::validation::{build_corpus, ValidationSource};

#[test]
fn published_constants_reproduce_the_recorded_counts() {
    let topo = generate(&TopologyConfig::small(), 5);
    let corpus = build_corpus(&topo.ground_truth, 5);
    let sources = [
        ValidationSource::DirectReport,
        ValidationSource::Rpsl,
        ValidationSource::Communities,
    ];
    assert_eq!(
        sources.map(|s| corpus.counts(s)),
        [(266, 55, 1), (843, 78, 3), (732, 172, 1)]
    );

    let mut cfg = SimConfig::defaults(5);
    cfg.vp_selection = VpSelection::Count(10);
    let sim = simulate(&topo, &cfg);
    assert_eq!(
        Baseline::all().map(|b| b.run(&sim.paths).counts()),
        [(1553, 24, 6), (1553, 24, 6), (1394, 189, 0), (1365, 218, 0)]
    );

    // Xia-Gao seeded with the direct reports, as experiment E4 runs it.
    let mut seed = RelationshipMap::new();
    for a in corpus.from_source(ValidationSource::DirectReport) {
        match a.rel {
            LinkRel::AC2pB => seed.insert_c2p(a.link.a, a.link.b),
            LinkRel::AP2cB => seed.insert_c2p(a.link.b, a.link.a),
            LinkRel::P2p => seed.insert_p2p(a.link.a, a.link.b),
            LinkRel::S2s => seed.insert_s2s(a.link.a, a.link.b),
        }
    }
    assert_eq!(xia_gao_infer(&sim.paths, &seed).counts(), (1554, 77, 4));
}
