//! E13 — corpus bias, quantified.
//!
//! The paper could only *discuss* how representative its validation
//! corpus was; with ground truth we can measure it. For each source we
//! compare the PPV the corpus *reports* against the PPV the same
//! inferences achieve on the full ground truth, and the corpus's own
//! error rate. The gap is the bias a real-world validation study
//! inherits silently.

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_validation::{evaluate_against_corpus, evaluate_against_truth, ValidationSource};

/// Produce the E13 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let truth = &wb.topo.ground_truth.relationships;
    let gt = evaluate_against_truth(&wb.inference.relationships, truth);
    let rows = evaluate_against_corpus(&wb.inference.relationships, &wb.corpus);

    let mut t = Table::new([
        "source",
        "corpus error",
        "c2p PPV (corpus)",
        "c2p PPV (truth)",
        "bias",
    ]);
    for r in &rows {
        let only = asrank_validation::ValidationCorpus {
            assertions: wb.corpus.from_source(r.source).copied().collect(),
        };
        let corpus_err = only.corpus_error(truth);
        let bias = r.c2p_ppv() - gt.c2p_ppv();
        t.row([
            r.source.name().to_string(),
            pct(corpus_err),
            pct(r.c2p_ppv()),
            pct(gt.c2p_ppv()),
            format!("{:+.1} pp", bias * 100.0),
        ]);
    }

    // Coverage bias: which link population does each source sample?
    let mut cov = Table::new(["source", "assertions", "share of all links", "p2p share"]);
    let total_links = truth.len();
    for source in [
        ValidationSource::DirectReport,
        ValidationSource::Rpsl,
        ValidationSource::Communities,
    ] {
        let (c2p, p2p, s2s) = wb.corpus.counts(source);
        let n = c2p + p2p + s2s;
        cov.row([
            source.name().to_string(),
            n.to_string(),
            pct(n as f64 / total_links.max(1) as f64),
            pct(p2p as f64 / n.max(1) as f64),
        ]);
    }
    let (tc2p, tp2p, ts2s) = truth.counts();
    format!(
        "E13: validation-corpus bias (the gap between corpus-reported PPV \
         and true PPV — measurable only with ground truth)\n\n{}\nCoverage \
         bias (ground truth: {} links, {:.1}% p2p):\n{}",
        t.render(),
        tc2p + tp2p + ts2s,
        100.0 * tp2p as f64 / (tc2p + tp2p + ts2s).max(1) as f64,
        cov.render()
    )
}
