//! E6 — customer cone size distributions for the three definitions
//! (paper analog: the cone-size CCDF figure).

use crate::harness::{Scenario, Workbench};
use crate::sanitized;
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_core::{CustomerCones, PathArena};
use asrank_types::Parallelism;

/// Produce the E6 report: CCDF points and quantiles per definition.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let par = Parallelism::auto();
    let arena = PathArena::build(&sanitized(&wb), par);
    let rels = &wb.inference.relationships;
    let prefixes = Some(&wb.topo.ground_truth.prefixes);
    let recursive = CustomerCones::recursive(rels, prefixes);
    let bgp_observed = CustomerCones::bgp_observed(&arena, rels, prefixes, par);
    let provider_peer = CustomerCones::provider_peer_observed(&arena, rels, prefixes, par);

    let defs: [(&str, &asrank_core::CustomerCones); 3] = [
        ("recursive", &recursive),
        ("bgp-observed", &bgp_observed),
        ("provider/peer", &provider_peer),
    ];

    let thresholds = [2usize, 5, 10, 50, 100, 1000];
    let mut t = Table::new({
        let mut h = vec![
            "definition".to_string(),
            "max".to_string(),
            "p99".to_string(),
        ];
        h.extend(thresholds.iter().map(|k| format!("P(cone>={k})")));
        h
    });
    for (name, c) in defs {
        let mut sizes: Vec<usize> = c.iter_sizes().map(|(_, s)| s.ases).collect();
        sizes.sort_unstable();
        let n = sizes.len().max(1);
        let p99 = sizes[(n * 99 / 100).min(n - 1)];
        let max = sizes.last().copied().unwrap_or(0);
        let mut row = vec![name.to_string(), max.to_string(), p99.to_string()];
        for &k in &thresholds {
            let ge = sizes.iter().filter(|&&s| s >= k).count();
            row.push(pct(ge as f64 / n as f64));
        }
        t.row(row);
    }
    format!(
        "E6: customer cone CCDF by definition (paper: the observed \
         definitions trade recall for robustness; heavy tail at the top)\n\n{}",
        t.render()
    )
}
