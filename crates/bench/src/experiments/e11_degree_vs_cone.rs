//! E11 — transit degree vs. customer cone (paper analog: the observation
//! that cone size and transit degree correlate strongly but diverge for
//! peering-heavy networks).

use crate::harness::{Scenario, Workbench};
use crate::sanitized;
use crate::table::{f, Table};
use as_topology_gen::Scale;
use asrank_core::centrality::transit_centrality;
use asrank_core::cone::CustomerCones;
use asrank_core::rank::{rank_ases, spearman};
use asrank_types::Parallelism;

/// Produce the E11 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let clean = sanitized(&wb);
    let cones = CustomerCones::recursive(&wb.inference.relationships, None, Parallelism::auto());
    let degrees = &wb.inference.degrees;
    let centrality = transit_centrality(&clean);

    let xs: Vec<(asrank_types::Asn, f64)> = cones
        .iter_sizes()
        .map(|(a, s)| (a, s.ases as f64))
        .collect();
    let ys: Vec<(asrank_types::Asn, f64)> = xs
        .iter()
        .map(|&(a, _)| (a, degrees.transit_degree(a) as f64))
        .collect();
    let rho = spearman(&xs, &ys).unwrap_or(f64::NAN);

    // Centrality correlation alongside the degree correlation.
    let zs: Vec<(asrank_types::Asn, f64)> =
        xs.iter().map(|&(a, _)| (a, centrality.score(a))).collect();
    let rho_centrality = spearman(&xs, &zs).unwrap_or(f64::NAN);

    let ranked = rank_ases(&cones, degrees);
    let mut t = Table::new([
        "cone rank",
        "asn",
        "cone (ASes)",
        "transit degree",
        "degree rank",
        "centrality",
    ]);
    for row in ranked.iter().take(10) {
        let drank = degrees
            .position(row.asn)
            .map(|p| (p + 1).to_string())
            .unwrap_or_else(|| "-".into());
        t.row([
            row.rank.to_string(),
            row.asn.to_string(),
            row.cone.ases.to_string(),
            row.transit_degree.to_string(),
            drank,
            f(centrality.score(row.asn), 3),
        ]);
    }
    format!(
        "E11: transit degree vs customer cone (paper: strong but \
         imperfect rank correlation); transit centrality added as the \
         follow-on-work contrast\n\nSpearman rho (cone vs degree) = {}\n\
         Spearman rho (cone vs centrality) = {}\n\n{}",
        f(rho, 3),
        f(rho_centrality, 3),
        t.render()
    )
}
