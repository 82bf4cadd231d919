//! E2 — validation corpus composition (paper analog: the validation-data
//! table: assertion counts per source, split by relationship kind).

use crate::harness::{Scenario, Workbench};
use crate::table::{pct, Table};
use as_topology_gen::Scale;
use asrank_validation::ValidationSource;

/// Produce the E2 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let truth = &wb.topo.ground_truth.relationships;
    let mut t = Table::new(["source", "assertions", "c2p", "p2p", "corpus error"]);
    for source in [
        ValidationSource::DirectReport,
        ValidationSource::Rpsl,
        ValidationSource::Communities,
    ] {
        let (c2p, p2p, _) = wb.corpus.counts(source);
        let only: asrank_validation::ValidationCorpus = asrank_validation::ValidationCorpus {
            assertions: wb.corpus.from_source(source).copied().collect(),
        };
        t.row([
            source.name().to_string(),
            (c2p + p2p).to_string(),
            c2p.to_string(),
            p2p.to_string(),
            pct(only.corpus_error(truth)),
        ]);
    }
    format!(
        "E2: validation corpus composition (paper: direct reports are the \
         smallest/cleanest source; RPSL is c2p-heavy and stale; communities \
         are the largest and p2p-rich)\n\n{}",
        t.render()
    )
}
