//! E3 — the headline result: PPV of ASRank inferences against each
//! validation source, plus full-ground-truth scoring (paper: ≈99.6 %
//! c2p, ≈98.7 % p2p PPV against its corpus).

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_validation::{evaluate_against_corpus, evaluate_against_truth};

/// Produce the E3 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let rows = evaluate_against_corpus(&wb.inference.relationships, &wb.corpus);
    let mut t = Table::new(["source", "c2p PPV", "(n)", "p2p PPV", "(n)", "unobserved"]);
    for r in &rows {
        t.row([
            r.source.name().to_string(),
            pct(r.c2p_ppv()),
            r.c2p.1.to_string(),
            pct(r.p2p_ppv()),
            r.p2p.1.to_string(),
            r.unobserved.to_string(),
        ]);
    }
    let gt = evaluate_against_truth(
        &wb.inference.relationships,
        &wb.topo.ground_truth.relationships,
    );
    let mut g = Table::new(["metric", "value"]);
    g.row(["c2p PPV (full ground truth)", &pct(gt.c2p_ppv())]);
    g.row(["c2p inferences scored", &gt.c2p.1.to_string()]);
    g.row([
        "  of which reversed orientation",
        &gt.reversed_c2p.to_string(),
    ]);
    g.row(["p2p PPV (full ground truth)", &pct(gt.p2p_ppv())]);
    g.row(["p2p inferences scored", &gt.p2p.1.to_string()]);
    g.row(["link coverage of ground truth", &pct(gt.coverage())]);
    g.row(["phantom links (artifacts)", &gt.phantom_links.to_string()]);
    g.row([
        "c2p cycles detected (S11)",
        &wb.inference.report.cycle_links.to_string(),
    ]);
    format!(
        "E3: inference PPV (paper headline: 99.6% c2p / 98.7% p2p against \
         its corpus)\n\nAgainst emulated validation sources:\n{}\nAgainst \
         full ground truth (impossible for the paper):\n{}",
        t.render(),
        g.render()
    )
}
