//! # asrank-baselines
//!
//! The relationship-inference algorithms the paper compares against, each
//! consuming the same [`asrank_types::PathSet`] and producing the same
//! [`asrank_types::RelationshipMap`] so the validation framework can
//! score all of them identically:
//!
//! * [`gao`] — Gao's classic degree-based algorithm (ToN 2001): find the
//!   top provider of each path by node degree, vote uphill/downhill,
//!   classify by vote counts, then mark near-equal-degree top links as
//!   peering.
//! * [`xia_gao`] — the Xia & Gao (2004) extension: start from a *seed* of
//!   known relationships (in the paper, RPSL-derived; here, a validation
//!   corpus sample), locate each path's peak using the seed, and infer
//!   the rest under the valley-free constraint.
//! * [`sark`] — the Subramanian et al. (INFOCOM 2002) multi-vantage-point
//!   heuristic: per-VP BFS levels, combined across views; links between
//!   similarly-ranked ASes become p2p, others c2p.
//! * [`degree`] — the naive floor: point c2p at the higher node degree
//!   unless the two degrees are within a tolerance band (then p2p).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod degree;
pub mod gao;
pub mod sark;
pub mod xia_gao;

use asrank_types::{AsLink, AsPath, Asn, PathSet, RelationshipMap};
use std::collections::HashMap;

/// A uniform handle over every baseline, so experiment harnesses can
/// sweep algorithms generically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Gao (2001).
    Gao,
    /// Xia & Gao (2004) — runs with an empty seed unless invoked through
    /// [`xia_gao::xia_gao_infer`] directly.
    XiaGao,
    /// Subramanian et al. (2002).
    Sark,
    /// Naive degree heuristic.
    Degree,
}

impl Baseline {
    /// Human-readable name used in report tables.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::Gao => "Gao",
            Baseline::XiaGao => "Xia-Gao",
            Baseline::Sark => "SARK",
            Baseline::Degree => "Degree",
        }
    }

    /// Run the baseline.
    pub fn run(&self, paths: &PathSet) -> RelationshipMap {
        match self {
            Baseline::Gao => gao::gao_infer(paths),
            Baseline::XiaGao => xia_gao::xia_gao_infer(paths, &RelationshipMap::new()),
            Baseline::Sark => sark::sark_infer(paths),
            Baseline::Degree => degree::degree_heuristic(paths),
        }
    }

    /// All baselines, in report order.
    pub fn all() -> [Baseline; 4] {
        [
            Baseline::Gao,
            Baseline::XiaGao,
            Baseline::Sark,
            Baseline::Degree,
        ]
    }
}

/// The path filter every baseline shares: prepending compressed away,
/// then only paths with at least one link, no loop and no reserved ASN.
pub(crate) fn clean_path(path: &AsPath) -> Option<AsPath> {
    let clean = path.compress_prepending();
    (clean.len() >= 2 && !clean.has_loop() && clean.all_routable()).then_some(clean)
}

/// The distinct clean paths of `paths`, sorted by hops.
pub(crate) fn distinct_clean_paths(paths: &PathSet) -> Vec<AsPath> {
    let mut distinct: Vec<AsPath> = paths.paths().filter_map(clean_path).collect();
    distinct.sort_by(|a, b| a.0.cmp(&b.0));
    distinct.dedup();
    distinct
}

/// Node degree (distinct neighbours) of every AS on `paths`, and the
/// sorted distinct links they observe.
pub(crate) fn link_graph(paths: &[AsPath]) -> (HashMap<Asn, usize>, Vec<AsLink>) {
    let mut links: Vec<AsLink> = paths
        .iter()
        .flat_map(|p| p.links().map(|(a, b)| AsLink::new(a, b)))
        .collect();
    links.sort();
    links.dedup();
    let mut degree: HashMap<Asn, usize> = HashMap::new();
    for link in &links {
        *degree.entry(link.a).or_default() += 1;
        *degree.entry(link.b).or_default() += 1;
    }
    (degree, links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::{Ipv4Prefix, PathSample};

    #[test]
    fn every_baseline_runs_on_a_tiny_input() {
        let ps: PathSet = [PathSample {
            vp: Asn(9),
            prefix: "10.0.0.0/24".parse::<Ipv4Prefix>().unwrap(),
            path: AsPath::from_u32s([9, 1, 5]),
        }]
        .into_iter()
        .collect();
        for b in Baseline::all() {
            let rels = b.run(&ps);
            assert!(rels.len() <= 2, "{} produced too many links", b.name());
            assert!(!b.name().is_empty());
        }
    }
}
