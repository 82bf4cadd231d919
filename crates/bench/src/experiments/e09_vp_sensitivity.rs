//! E9 — visibility: inference quality vs. number of vantage points
//! (paper analog: the discussion of VP coverage and peering-link
//! invisibility).

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_validation::evaluate_against_truth;

/// Produce the E9 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let truth = &wb.topo.ground_truth.relationships;
    let (true_c2p, true_p2p, _) = truth.counts();

    let sweeps: &[usize] = match scale {
        Scale::Tiny => &[2, 4, 8],
        Scale::Small => &[5, 10, 20, 40, 80],
        _ => &[10, 40, 120, 315],
    };

    let mut t = Table::new([
        "VPs",
        "c2p PPV",
        "p2p PPV",
        "links seen",
        "c2p seen",
        "p2p seen",
    ]);
    for &vps in sweeps {
        let (_sim, inf) = wb.with_vps(vps);
        let r = evaluate_against_truth(&inf.relationships, truth);
        let c2p_seen = r.confusion[0].iter().sum::<usize>();
        let p2p_seen = r.confusion[1].iter().sum::<usize>();
        t.row([
            vps.to_string(),
            pct(r.c2p_ppv()),
            pct(r.p2p_ppv()),
            pct((r.c2p.1 + r.p2p.1) as f64 / truth.len() as f64),
            pct(c2p_seen as f64 / true_c2p.max(1) as f64),
            pct(p2p_seen as f64 / true_p2p.max(1) as f64),
        ]);
    }
    format!(
        "E9: sensitivity to vantage-point count (paper: peering links \
         are visible only near their endpoints, so p2p coverage rises \
         sharply with VPs while c2p saturates early)\n\n{}",
        t.render()
    )
}
