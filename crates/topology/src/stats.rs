//! Summary statistics over generated (or inferred) topologies.

use asrank_types::prelude::*;
use std::collections::HashMap;

/// Degree summary for one population of ASes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Median degree.
    pub median: usize,
    /// Arithmetic mean degree.
    pub mean: f64,
    /// 95th percentile.
    pub p95: usize,
    /// Largest degree.
    pub max: usize,
}

impl DegreeStats {
    /// Summarize a list of degrees (empty input gives all-zero stats).
    pub fn from_degrees(mut degrees: Vec<usize>) -> Self {
        if degrees.is_empty() {
            return DegreeStats::default();
        }
        degrees.sort_unstable();
        let n = degrees.len();
        DegreeStats {
            min: degrees[0],
            median: degrees[n / 2],
            mean: degrees.iter().sum::<usize>() as f64 / n as f64,
            p95: degrees[(n * 95 / 100).min(n - 1)],
            max: degrees[n - 1],
        }
    }
}

/// Topology-level summary used by reports and tests.
#[derive(Debug, Clone)]
pub struct TopologyStats {
    /// Total AS count.
    pub as_count: usize,
    /// Total link count.
    pub link_count: usize,
    /// Links by kind: (c2p, p2p, s2s).
    pub link_kinds: (usize, usize, usize),
    /// ASes per class.
    pub class_counts: HashMap<String, usize>,
    /// Node degree (all neighbors).
    pub node_degree: DegreeStats,
    /// Customer degree of transit ASes only.
    pub customer_degree: DegreeStats,
    /// Fraction of ASes with zero customers (edge share).
    pub edge_fraction: f64,
}

impl TopologyStats {
    /// Compute stats for a ground-truth topology.
    pub fn compute(gt: &GroundTruth) -> Self {
        let adj = gt.relationships.adjacency();
        let node_degrees: Vec<usize> = gt
            .classes
            .keys()
            .map(|a| adj.get(a).map(Vec::len).unwrap_or(0))
            .collect();

        let customer_count = |a: &Asn| {
            adj.get(a)
                .map(|n| {
                    n.iter()
                        .filter(|&&(_, o)| o == Orientation::Customer)
                        .count()
                })
                .unwrap_or(0)
        };
        let customer_degrees: Vec<usize> = gt
            .classes
            .iter()
            .filter(|(_, c)| c.is_transit())
            .map(|(a, _)| customer_count(a))
            .collect();

        let edge = gt.classes.keys().filter(|a| customer_count(a) == 0).count();

        let mut class_counts: HashMap<String, usize> = HashMap::new();
        for class in gt.classes.values() {
            *class_counts.entry(format!("{class:?}")).or_default() += 1;
        }

        TopologyStats {
            as_count: gt.as_count(),
            link_count: gt.link_count(),
            link_kinds: gt.relationships.counts(),
            class_counts,
            node_degree: DegreeStats::from_degrees(node_degrees),
            customer_degree: DegreeStats::from_degrees(customer_degrees),
            edge_fraction: edge as f64 / gt.as_count().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TopologyConfig};

    #[test]
    fn degree_stats_basics() {
        let s = DegreeStats::from_degrees(vec![1, 2, 3, 4, 100]);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 3);
        assert_eq!(s.max, 100);
        assert!((s.mean - 22.0).abs() < 1e-9);
        assert_eq!(DegreeStats::from_degrees(vec![]).max, 0);
    }

    #[test]
    fn stats_on_generated_topology() {
        let t = generate(&TopologyConfig::small(), 1);
        let s = TopologyStats::compute(&t.ground_truth);
        assert_eq!(s.as_count, t.ground_truth.as_count());
        assert_eq!(s.link_count, t.ground_truth.link_count());
        // Most of the Internet is edge.
        assert!(s.edge_fraction > 0.6, "edge fraction {}", s.edge_fraction);
        // c2p dominates links in a transit hierarchy.
        assert!(s.link_kinds.0 > s.link_kinds.1 / 4);
        assert!(s.node_degree.max >= s.node_degree.median);
    }
}
