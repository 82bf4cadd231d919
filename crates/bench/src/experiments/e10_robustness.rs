//! E10 — robustness to path artifacts (paper analog: the sanitization /
//! poisoned-path discussion: inference quality must degrade gracefully).

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_validation::evaluate_against_truth;
use bgp_sim::AnomalyConfig;

/// Produce the E10 report: PPV under increasing artifact rates.
pub fn run(scale: Scale, seed: u64) -> String {
    let mut t = Table::new([
        "poison/leak rate",
        "c2p PPV",
        "p2p PPV",
        "paths discarded",
        "poisoned discarded",
    ]);
    for &rate in &[0.0, 0.001, 0.005, 0.02] {
        let mut scenario = Scenario::at_scale(scale, seed);
        let clique_guess = scenario.topology.mix.tier1;
        scenario.anomalies = AnomalyConfig {
            leak_prob: rate / 10.0,
            poison_prob: rate,
            prepend_prob: 0.02,
            rs_insertion_prob: 0.3,
            // The poisoner forges prominent ASNs; clique members are the
            // lowest ASNs by construction in the generator.
            poison_pool: (1..=clique_guess as u32).map(asrank_types::Asn).collect(),
        };
        let wb = Workbench::build(scenario);
        let r = evaluate_against_truth(
            &wb.inference.relationships,
            &wb.topo.ground_truth.relationships,
        );
        let rep = &wb.inference.report;
        let discarded = rep.sanitize.input_paths - rep.sanitize.output_paths;
        t.row([
            format!("{rate}"),
            pct(r.c2p_ppv()),
            pct(r.p2p_ppv()),
            discarded.to_string(),
            rep.discarded_poisoned.to_string(),
        ]);
    }
    format!(
        "E10: robustness to injected artifacts (paper: sanitization and \
         the poisoned-path discard keep PPV high under real-world noise)\n\n{}",
        t.render()
    )
}
