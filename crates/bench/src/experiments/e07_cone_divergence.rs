//! E7 — cone-definition divergence for the largest ASes (paper analog:
//! the figure comparing the three definitions per AS).

use crate::harness::{Scenario, Workbench};
use crate::sanitized;
use crate::table::{f, Table};
use as_topology_gen::Scale;
use asrank_core::{rank_ases, CustomerCones, PathArena};
use asrank_types::Parallelism;

/// Produce the E7 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let par = Parallelism::auto();
    let arena = PathArena::build(&sanitized(&wb), par);
    let rels = &wb.inference.relationships;
    let prefixes = Some(&wb.topo.ground_truth.prefixes);
    let recursive = CustomerCones::recursive(rels, prefixes);
    let bgp_observed = CustomerCones::bgp_observed(&arena, rels, prefixes, par);
    let provider_peer = CustomerCones::provider_peer_observed(&arena, rels, prefixes, par);
    let ranked = rank_ases(&recursive, &wb.inference.degrees);

    let mut t = Table::new([
        "rank",
        "asn",
        "recursive",
        "bgp-obs",
        "prov/peer",
        "obs/rec",
        "true cone",
    ]);
    for row in ranked.iter().take(10) {
        let rec = recursive.size(row.asn).ases;
        let obs = bgp_observed.size(row.asn).ases;
        let pp = provider_peer.size(row.asn).ases;
        let truth = wb.topo.ground_truth.true_customer_cone(row.asn).len();
        t.row([
            row.rank.to_string(),
            row.asn.to_string(),
            rec.to_string(),
            obs.to_string(),
            pp.to_string(),
            f(obs as f64 / rec.max(1) as f64, 2),
            truth.to_string(),
        ]);
    }
    format!(
        "E7: cone definitions on the top-10 ASes (paper: observed cones \
         shrink relative to recursive cones as visibility thins)\n\n{}",
        t.render()
    )
}
