//! Collection analysis: the descriptive statistics the paper reports
//! about its input data (path lengths, link visibility by relationship
//! class, table sizes per VP).

use asrank_types::prelude::*;
use std::collections::{HashMap, HashSet};

/// Distribution summary of AS-path lengths (after prepending removal).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathLengthStats {
    /// Shortest observed path.
    pub min: usize,
    /// Median length.
    pub median: usize,
    /// Mean length.
    pub mean: f64,
    /// 95th percentile.
    pub p95: usize,
    /// Longest observed path.
    pub max: usize,
    /// Distinct paths measured.
    pub count: usize,
}

/// Per-relationship-class link visibility: how much of the topology's
/// link population each class contributes, and how much of it the
/// collected paths actually show.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassVisibility {
    /// Links of this class in the ground truth.
    pub total: usize,
    /// Of those, links appearing in at least one collected path.
    pub observed: usize,
}

impl ClassVisibility {
    /// Observed fraction (1.0 when the class is empty).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.observed as f64 / self.total as f64
        }
    }
}

/// Full collection analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectionAnalysis {
    /// Path-length distribution over distinct paths.
    pub path_lengths: PathLengthStats,
    /// Visibility of c2p links.
    pub c2p: ClassVisibility,
    /// Visibility of p2p links.
    pub p2p: ClassVisibility,
    /// Visibility of s2s links.
    pub s2s: ClassVisibility,
    /// Links observed in paths that do not exist in the ground truth
    /// (artifact links: poisoning, route-server insertion).
    pub phantom_links: usize,
}

/// Analyze a collected path set against its generating ground truth.
pub fn analyze(paths: &PathSet, truth: &RelationshipMap) -> CollectionAnalysis {
    let distinct: HashSet<AsPath> = paths
        .paths()
        .map(|p| p.compress_prepending())
        .filter(|p| p.len() >= 2)
        .collect();

    // Path lengths.
    let mut lengths: Vec<usize> = distinct.iter().map(AsPath::len).collect();
    lengths.sort_unstable();
    let path_lengths = if lengths.is_empty() {
        PathLengthStats::default()
    } else {
        let n = lengths.len();
        PathLengthStats {
            min: lengths[0],
            median: lengths[n / 2],
            mean: lengths.iter().sum::<usize>() as f64 / n as f64,
            p95: lengths[(n * 95 / 100).min(n - 1)],
            max: lengths[n - 1],
            count: n,
        }
    };

    // Observed links.
    let mut observed: HashSet<AsLink> = HashSet::new();
    for p in &distinct {
        for (a, b) in p.links() {
            if a != b {
                observed.insert(AsLink::new(a, b));
            }
        }
    }

    // Class visibility + phantom count.
    let mut by_kind: HashMap<RelationshipKind, ClassVisibility> = HashMap::new();
    for (link, rel) in truth.iter() {
        let e = by_kind.entry(rel.kind()).or_default();
        e.total += 1;
        if observed.contains(&link) {
            e.observed += 1;
        }
    }
    let phantom_links = observed
        .iter()
        .filter(|l| truth.get(l.a, l.b).is_none())
        .count();

    CollectionAnalysis {
        path_lengths,
        c2p: by_kind.remove(&RelationshipKind::C2p).unwrap_or_default(),
        p2p: by_kind.remove(&RelationshipKind::P2p).unwrap_or_default(),
        s2s: by_kind.remove(&RelationshipKind::S2s).unwrap_or_default(),
        phantom_links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::VpSelection;
    use crate::sim::{simulate, SimConfig};
    use as_topology_gen::{generate, TopologyConfig};

    #[test]
    fn clean_collection_has_no_phantoms() {
        let topo = generate(&TopologyConfig::tiny(), 2);
        let mut cfg = SimConfig::defaults(2);
        cfg.vp_selection = VpSelection::Count(8);
        cfg.full_feed_fraction = 1.0;
        let sim = simulate(&topo, &cfg);
        let a = analyze(&sim.paths, &topo.ground_truth.relationships);
        assert_eq!(a.phantom_links, 0);
        assert!(a.path_lengths.count > 0);
        assert!(a.path_lengths.min >= 2);
        assert!(a.path_lengths.mean >= a.path_lengths.min as f64);
        assert!(a.path_lengths.max <= 12, "paths unreasonably long");
        // c2p links are far more visible than p2p (peering is local).
        assert!(a.c2p.fraction() > a.p2p.fraction());
        assert!(a.c2p.fraction() > 0.5);
    }

    #[test]
    fn rs_insertion_creates_phantoms() {
        let topo = generate(&TopologyConfig::small(), 4);
        let mut cfg = SimConfig::defaults(4);
        cfg.vp_selection = VpSelection::Count(20);
        cfg.anomalies.rs_insertion_prob = 1.0;
        let sim = simulate(&topo, &cfg);
        let a = analyze(&sim.paths, &topo.ground_truth.relationships);
        assert!(
            a.phantom_links > 0,
            "route-server ASNs must appear as phantom links"
        );
    }

    #[test]
    fn empty_input() {
        let a = analyze(&PathSet::new(), &RelationshipMap::new());
        assert_eq!(a.path_lengths.count, 0);
        assert_eq!(a.phantom_links, 0);
        assert!((a.c2p.fraction() - 1.0).abs() < 1e-12);
    }
}
