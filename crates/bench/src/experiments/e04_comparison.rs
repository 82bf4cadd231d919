//! E4 — algorithm comparison (paper analog: the table scoring ASRank
//! against prior algorithms on the same validation data).

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_baselines::{xia_gao_infer, Baseline, XiaGaoConfig};
use asrank_types::{LinkRel, RelationshipMap};
use asrank_validation::{evaluate_against_truth, paired_comparison, ValidationSource};

/// Produce the E4 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let truth = &wb.topo.ground_truth.relationships;

    let ours = &wb.inference.relationships;
    let mut t = Table::new([
        "algorithm",
        "c2p PPV",
        "(n)",
        "p2p PPV",
        "(n)",
        "coverage",
        "vs ASRank (sign test)",
    ]);
    let mut add = |name: &str, rels: &RelationshipMap| {
        let r = evaluate_against_truth(rels, truth);
        // Exact sign test over links both algorithms classified: is
        // ASRank's advantage bigger than chance?
        let sig = if std::ptr::eq(rels, ours) {
            "—".to_string()
        } else {
            let c = paired_comparison(ours, rels, truth);
            format!("{}:{} discordant, p={:.1e}", c.a_only, c.b_only, c.p_value)
        };
        t.row([
            name.to_string(),
            pct(r.c2p_ppv()),
            r.c2p.1.to_string(),
            pct(r.p2p_ppv()),
            r.p2p.1.to_string(),
            pct(r.coverage()),
            sig,
        ]);
    };

    add("ASRank (this work)", ours);
    for b in [Baseline::Gao, Baseline::Sark, Baseline::Degree] {
        add(b.name(), &b.run(&wb.sim.paths));
    }
    // Xia-Gao gets the direct-report corpus as its seed, as in its paper
    // (it consumed registry data).
    let mut seed_map = RelationshipMap::new();
    for a in wb.corpus.from_source(ValidationSource::DirectReport) {
        match a.rel {
            LinkRel::AC2pB => seed_map.insert_c2p(a.link.a, a.link.b),
            LinkRel::AP2cB => seed_map.insert_c2p(a.link.b, a.link.a),
            LinkRel::P2p => seed_map.insert_p2p(a.link.a, a.link.b),
            LinkRel::S2s => seed_map.insert_s2s(a.link.a, a.link.b),
        }
    }
    add(
        "Xia-Gao (seeded: direct)",
        &xia_gao_infer(&wb.sim.paths, &seed_map, &XiaGaoConfig::default()),
    );

    format!(
        "E4: algorithm comparison on identical observed paths (paper: \
         ASRank dominates prior algorithms on both kinds)\n\n{}",
        t.render()
    )
}
