//! E5 — Tier-1 clique recovery (paper analog: the inferred clique's
//! membership and stability discussion).

use crate::harness::{Scenario, Workbench};
use crate::table::{f, pct, Table};
use as_topology_gen::Scale;

/// Produce the E5 report: clique precision/recall across several seeds.
pub fn run(scale: Scale, seed: u64) -> String {
    let mut t = Table::new(["seed", "inferred size", "true size", "precision", "recall"]);
    let seeds: Vec<u64> = (0..5).map(|i| seed + i).collect();
    let (mut sp, mut sr) = (0.0, 0.0);
    for &s in &seeds {
        let wb = Workbench::build(Scenario::at_scale(scale, s));
        let truth = wb.topo.ground_truth.clique();
        let inferred = &wb.inference.clique;
        let hit = inferred.iter().filter(|a| truth.contains(a)).count();
        let precision = hit as f64 / inferred.len().max(1) as f64;
        let recall = hit as f64 / truth.len().max(1) as f64;
        sp += precision;
        sr += recall;
        t.row([
            s.to_string(),
            inferred.len().to_string(),
            truth.len().to_string(),
            pct(precision),
            pct(recall),
        ]);
    }
    let n = seeds.len() as f64;
    format!(
        "E5: Tier-1 clique recovery across seeds (paper: the inferred \
         clique matched the operator-known Tier-1 set)\n\n{}\nmean \
         precision {}  mean recall {}\n",
        t.render(),
        f(sp / n, 3),
        f(sr / n, 3)
    )
}
