//! E15 — where the errors live: PPV broken down by the structural
//! classes of the link endpoints (the paper's error analysis localizes
//! mistakes to the edge and to peering-dense networks).

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_validation::ppv_by_class;

/// Produce the E15 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let rows = ppv_by_class(
        &wb.inference.relationships,
        &wb.topo.ground_truth.relationships,
        &wb.topo.ground_truth.classes,
    );
    let mut t = Table::new(["link class", "links", "correct", "PPV"]);
    // Sort worst-first so the error locus leads.
    let mut rows = rows;
    rows.sort_by(|a, b| {
        let pa = a.1 as f64 / a.2.max(1) as f64;
        let pb = b.1 as f64 / b.2.max(1) as f64;
        pa.partial_cmp(&pb).unwrap().then_with(|| a.0.cmp(&b.0))
    });
    for (bucket, correct, total) in &rows {
        t.row([
            bucket.clone(),
            total.to_string(),
            correct.to_string(),
            pct(*correct as f64 / (*total).max(1) as f64),
        ]);
    }
    format!(
        "E15: error locus by link class, worst first (paper: errors \
         concentrate at the edge and around peering-dense networks; \
         backbone c2p is near-perfect)\n\n{}",
        t.render()
    )
}
