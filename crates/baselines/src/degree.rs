//! Naive degree heuristic — the floor every serious algorithm must beat.
//!
//! Classify each observed link by node degree alone: if the endpoint
//! degrees are within a tolerance factor, call it p2p; otherwise the
//! lower-degree AS is the customer. No path semantics at all, which is
//! exactly why it misclassifies content networks (high degree from
//! peering, yet customers of their transit providers).

use asrank_types::prelude::*;
use std::collections::{HashMap, HashSet};

/// Degree heuristic parameters.
#[derive(Debug, Clone)]
pub struct DegreeHeuristicConfig {
    /// Endpoint degrees within this factor of each other ⇒ p2p.
    pub p2p_band: f64,
}

impl Default for DegreeHeuristicConfig {
    fn default() -> Self {
        DegreeHeuristicConfig { p2p_band: 2.0 }
    }
}

/// Run the degree heuristic.
pub fn degree_heuristic(paths: &PathSet, cfg: &DegreeHeuristicConfig) -> RelationshipMap {
    let mut neighbors: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    for p in paths.paths() {
        let clean = p.compress_prepending();
        if clean.len() < 2 || clean.has_loop() || !clean.all_routable() {
            continue;
        }
        for (a, b) in clean.links() {
            neighbors.entry(a).or_default().insert(b);
            neighbors.entry(b).or_default().insert(a);
        }
    }
    let degree = |a: Asn| neighbors.get(&a).map(HashSet::len).unwrap_or(0) as f64;

    let mut links: Vec<AsLink> = neighbors
        .iter()
        .flat_map(|(&a, ns)| ns.iter().map(move |&b| AsLink::new(a, b)))
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    links.sort();

    let mut rels = RelationshipMap::new();
    for link in links {
        let (da, db) = (degree(link.a), degree(link.b));
        if da == 0.0 || db == 0.0 {
            continue;
        }
        let ratio = (da / db).max(db / da);
        if ratio <= cfg.p2p_band {
            rels.insert_p2p(link.a, link.b);
        } else if da < db {
            rels.insert_c2p(link.a, link.b);
        } else {
            rels.insert_c2p(link.b, link.a);
        }
    }
    rels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(raw: &[&[u32]]) -> PathSet {
        raw.iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect()
    }

    #[test]
    fn lower_degree_is_customer() {
        // 1 has degree 6; 10 has degree 2 — well outside the p2p band.
        let rels = degree_heuristic(
            &ps(&[&[100, 10, 1, 20], &[30, 1, 40], &[50, 1, 60]]),
            &DegreeHeuristicConfig::default(),
        );
        assert!(rels.is_c2p(Asn(10), Asn(1)), "{rels:?}");
    }

    #[test]
    fn similar_degrees_are_p2p() {
        let rels = degree_heuristic(&ps(&[&[100, 1, 2, 200]]), &DegreeHeuristicConfig::default());
        assert!(rels.is_p2p(Asn(1), Asn(2)));
    }

    #[test]
    fn band_parameter_controls_split() {
        let input = ps(&[&[100, 10, 1, 20], &[30, 1, 40]]);
        let strict = degree_heuristic(&input, &DegreeHeuristicConfig { p2p_band: 1.0 });
        // With band 1.0, only exactly-equal degrees peer.
        let (c2p, p2p, _) = strict.counts();
        assert!(c2p > 0);
        let loose = degree_heuristic(&input, &DegreeHeuristicConfig { p2p_band: 100.0 });
        let (_, p2p_loose, _) = loose.counts();
        assert!(p2p_loose >= p2p, "wider band can only add peering");
    }
}
