//! E1 — BGP data and vantage-point statistics (paper analog: the data
//! table describing collectors, VPs, full feeds, and distinct paths).

use crate::harness::{Scenario, Workbench};
use crate::table::Table;
use as_topology_gen::Scale;

/// Produce the E1 report.
pub fn run(scale: Scale, seed: u64) -> String {
    let wb = Workbench::build(Scenario::at_scale(scale, seed));
    let paths = &wb.sim.paths;
    let full = paths.full_feed_vps(0.8);
    let links = {
        let mut set = std::collections::HashSet::new();
        for p in paths.paths() {
            for (a, b) in p.compress_prepending().links() {
                if a != b {
                    set.insert(asrank_types::AsLink::new(a, b));
                }
            }
        }
        set.len()
    };
    let mut t = Table::new(["metric", "value"]);
    t.row([
        "ASes in topology",
        &wb.topo.ground_truth.as_count().to_string(),
    ]);
    t.row([
        "links in topology",
        &wb.topo.ground_truth.link_count().to_string(),
    ]);
    t.row([
        "prefixes originated",
        &wb.topo.ground_truth.prefix_count().to_string(),
    ]);
    t.row(["vantage points", &wb.sim.vps.len().to_string()]);
    t.row(["full-feed VPs (>=80% of prefixes)", &full.len().to_string()]);
    t.row(["RIB entries collected", &paths.len().to_string()]);
    t.row([
        "distinct AS paths",
        &paths.distinct_paths().len().to_string(),
    ]);
    t.row([
        "distinct prefixes observed",
        &paths.prefixes().len().to_string(),
    ]);
    t.row(["ASes observed in paths", &paths.ases().len().to_string()]);
    t.row(["links observed in paths", &links.to_string()]);
    t.row([
        "destinations propagated",
        &wb.sim.stats.destinations.to_string(),
    ]);

    // Collection quality: path lengths and per-class link visibility.
    let analysis = bgp_sim::analyze(paths, &wb.topo.ground_truth.relationships);
    let mut a = Table::new(["metric", "value"]);
    a.row([
        "path length (min/median/p95/max)".to_string(),
        format!(
            "{}/{}/{}/{} (mean {:.2})",
            analysis.path_lengths.min,
            analysis.path_lengths.median,
            analysis.path_lengths.p95,
            analysis.path_lengths.max,
            analysis.path_lengths.mean
        ),
    ]);
    a.row([
        "c2p links observed".to_string(),
        format!(
            "{}/{} ({:.1}%)",
            analysis.c2p.observed,
            analysis.c2p.total,
            100.0 * analysis.c2p.fraction()
        ),
    ]);
    a.row([
        "p2p links observed".to_string(),
        format!(
            "{}/{} ({:.1}%)",
            analysis.p2p.observed,
            analysis.p2p.total,
            100.0 * analysis.p2p.fraction()
        ),
    ]);
    a.row([
        "phantom links".to_string(),
        analysis.phantom_links.to_string(),
    ]);

    // Calibration: does the generated Internet match published structure?
    let realism = as_topology_gen::check_realism(&wb.topo.ground_truth);
    for check in &realism.checks {
        a.row([
            format!("realism: {}", check.name),
            format!(
                "{:.3} (accepted {:.2}–{:.2}) {}",
                check.value,
                check.range.0,
                check.range.1,
                if check.ok() { "✓" } else { "✗" }
            ),
        ]);
    }

    format!(
        "E1: BGP data / VP statistics (paper: 315 VPs, 116 full feeds over \
         ~42k ASes, ~450k prefixes)\n\n{}\nCollection quality:\n{}",
        t.render(),
        a.render()
    )
}
