//! E14 — inference stability vs. link visibility.
//!
//! The follow-on claim the paper's error analysis gestures at: links
//! seen by few vantage points are exactly the ones whose classification
//! flips under resampling. A jackknife over half-VP subsamples makes it
//! measurable.

use crate::harness::{Scenario, Workbench};
use crate::sanitized;
use crate::table::{f, pct, Table};
use as_topology_gen::Scale;
use asrank_core::pipeline::InferenceConfig;
use asrank_core::stability::jackknife;
use asrank_core::visibility::VisibilityTable;
use asrank_types::Asn;

/// Produce the E14 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let ixps: Vec<Asn> = wb.topo.ixps.iter().map(|i| i.route_server).collect();
    let cfg = InferenceConfig::with_ixps(ixps);
    let subsamples = 8;
    let report = jackknife(&wb.sim.paths, &cfg, subsamples, seed);
    let visibility = VisibilityTable::compute(&sanitized(&wb));

    // Bucket agreement by VP visibility.
    let buckets: [(&str, usize, usize); 4] = [
        ("1 VP", 1, 1),
        ("2–5", 2, 5),
        ("6–20", 6, 20),
        (">20", 21, usize::MAX),
    ];
    let mut t = Table::new(["visibility", "links", "mean agreement", "unstable (<90%)"]);
    for (label, lo, hi) in buckets {
        let mut agreements = Vec::new();
        let mut unstable = 0usize;
        for (link, stab) in report.iter() {
            let Some(vis) = visibility.get(link.a, link.b) else {
                continue;
            };
            if vis.vps < lo || vis.vps > hi || stab.observed == 0 {
                continue;
            }
            let a = stab.agreement();
            agreements.push(a);
            if a < 0.9 {
                unstable += 1;
            }
        }
        let mean = if agreements.is_empty() {
            1.0
        } else {
            agreements.iter().sum::<f64>() / agreements.len() as f64
        };
        t.row([
            label.to_string(),
            agreements.len().to_string(),
            f(mean, 3),
            unstable.to_string(),
        ]);
    }
    format!(
        "E14: inference stability (jackknife over {} half-VP subsamples) \
         vs. link visibility — weakly-observed links are the unstable \
         tail\n\nmean agreement overall: {}\n\n{}",
        subsamples,
        pct(report.mean_agreement()),
        t.render()
    )
}
