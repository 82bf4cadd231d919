//! E12 — step ablation: the contribution of each pipeline step to final
//! accuracy (the design-choice analysis DESIGN.md calls out). Run under
//! realistic artifact injection so the defensive steps (S4, S7) have
//! something to defend against.

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_core::pipeline::{infer, Ablation, InferenceConfig};
use asrank_types::Asn;
use asrank_validation::evaluate_against_truth;
use bgp_sim::AnomalyConfig;

/// Produce the E12 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let mut scenario = Scenario::at_scale(scale, seed);
    let tier1 = scenario.topology.mix.tier1;
    // Deliberately hostile artifact rates (well above the wild) so each
    // defensive step's contribution is visible in the deltas.
    scenario.anomalies = AnomalyConfig {
        leak_prob: 0.003,
        poison_prob: 0.03,
        prepend_prob: 0.05,
        rs_insertion_prob: 0.5,
        poison_pool: (1..=tier1 as u32).map(Asn).collect(),
    };
    let wb = Workbench::build(scenario);
    let truth = &wb.topo.ground_truth.relationships;
    let ixps: Vec<Asn> = wb.topo.ixps.iter().map(|i| i.route_server).collect();

    let variants: Vec<(&str, Ablation)> = vec![
        ("full pipeline", Ablation::default()),
        (
            "w/o S4 poison filter",
            Ablation {
                no_poison_filter: true,
                ..Default::default()
            },
        ),
        (
            "w/o S6 VP providers",
            Ablation {
                no_vp_step: true,
                ..Default::default()
            },
        ),
        (
            "w/o S7 anomaly repair",
            Ablation {
                no_anomaly_repair: true,
                ..Default::default()
            },
        ),
        (
            "w/o S8 stub-clique",
            Ablation {
                no_stub_clique: true,
                ..Default::default()
            },
        ),
        (
            "w/o S9 provider-less",
            Ablation {
                no_providerless: true,
                ..Default::default()
            },
        ),
    ];

    let mut t = Table::new([
        "variant",
        "c2p PPV",
        "p2p PPV",
        "coverage",
        "phantom",
        "discarded",
    ]);
    for (name, ablation) in variants {
        let mut cfg = InferenceConfig::with_ixps(ixps.clone());
        cfg.ablation = ablation;
        let inf = infer(&wb.sim.paths, &cfg);
        let r = evaluate_against_truth(&inf.relationships, truth);
        t.row([
            name.to_string(),
            pct(r.c2p_ppv()),
            pct(r.p2p_ppv()),
            pct(r.coverage()),
            r.phantom_links.to_string(),
            inf.report.discarded_poisoned.to_string(),
        ]);
    }
    format!(
        "E12: pipeline step ablation under realistic artifacts (each row \
         disables one step; deltas against the full pipeline quantify the \
         step's contribution)\n\n{}",
        t.render()
    )
}
