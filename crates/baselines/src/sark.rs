//! SARK — the Subramanian/Agarwal/Rexford/Katz multi-vantage-point
//! heuristic (INFOCOM 2002).
//!
//! Each vantage point's view of the AS graph is layered by breadth-first
//! "levels": the VP's own AS and whatever it takes to reach the top is
//! inverted so that higher level ≈ closer to the core. Combining the
//! per-view verdicts: a link whose endpoints are ranked equally in most
//! views is peering; otherwise the lower-ranked AS is the customer. SARK
//! needs no degree assumption, but its per-view layering conflates
//! peering with transit near the edges — the weakness the ASRank paper's
//! comparison surfaces.

use asrank_types::prelude::*;
use std::collections::{HashMap, HashSet};

/// SARK parameters.
#[derive(Debug, Clone)]
pub struct SarkConfig {
    /// A link is p2p when at least this fraction of views rank its
    /// endpoints at equal levels.
    pub equal_fraction: f64,
}

impl Default for SarkConfig {
    fn default() -> Self {
        SarkConfig {
            equal_fraction: 0.5,
        }
    }
}

/// Run the SARK heuristic.
pub fn sark_infer(paths: &PathSet, cfg: &SarkConfig) -> RelationshipMap {
    // Group distinct paths per VP (one "view" each).
    let mut views: HashMap<Asn, HashSet<AsPath>> = HashMap::new();
    for s in paths.iter() {
        let clean = s.path.compress_prepending();
        if clean.len() >= 2 && !clean.has_loop() && clean.all_routable() {
            views.entry(s.vp).or_default().insert(clean);
        }
    }

    // Per view: leaf-pruning levels over the view's undirected link
    // graph — iteratively peel degree-≤1 nodes; the round a node is
    // peeled in is its level, so the dense core ends up on top. A link
    // whose endpoints share a level in a view counts as an "equal" vote;
    // otherwise the lower-level endpoint votes customer.
    let mut equal: HashMap<AsLink, usize> = HashMap::new();
    let mut directional: HashMap<(Asn, Asn), usize> = HashMap::new(); // (customer, provider)
    let mut seen: HashMap<AsLink, usize> = HashMap::new();

    let mut vps: Vec<Asn> = views.keys().copied().collect();
    vps.sort();
    for vp in vps {
        let view = &views[&vp];
        let mut view_links: HashSet<AsLink> = HashSet::new();
        for p in view {
            for (a, b) in p.links() {
                view_links.insert(AsLink::new(a, b));
            }
        }
        let levels = pruning_levels(&view_links);
        for link in view_links {
            *seen.entry(link).or_default() += 1;
            let (la, lb) = (levels[&link.a], levels[&link.b]);
            if la == lb {
                *equal.entry(link).or_default() += 1;
            } else if la < lb {
                *directional.entry((link.a, link.b)).or_default() += 1;
            } else {
                *directional.entry((link.b, link.a)).or_default() += 1;
            }
        }
    }

    let mut rels = RelationshipMap::new();
    let mut links: Vec<AsLink> = seen.keys().copied().collect();
    links.sort();
    for link in links {
        let views_seen = seen[&link];
        let eq = equal.get(&link).copied().unwrap_or(0);
        if eq as f64 >= cfg.equal_fraction * views_seen as f64 {
            rels.insert_p2p(link.a, link.b);
            continue;
        }
        let ab = directional.get(&(link.a, link.b)).copied().unwrap_or(0);
        let ba = directional.get(&(link.b, link.a)).copied().unwrap_or(0);
        if ab >= ba {
            rels.insert_c2p(link.a, link.b);
        } else {
            rels.insert_c2p(link.b, link.a);
        }
    }
    rels
}

/// Leaf-pruning levels: round in which each node is peeled (degree ≤ 1),
/// with the surviving core assigned the final round's level.
pub fn pruning_levels(links: &HashSet<AsLink>) -> HashMap<Asn, usize> {
    let mut adj: HashMap<Asn, HashSet<Asn>> = HashMap::new();
    for l in links {
        adj.entry(l.a).or_default().insert(l.b);
        adj.entry(l.b).or_default().insert(l.a);
    }
    let mut levels: HashMap<Asn, usize> = HashMap::new();
    let mut level = 0usize;
    while !adj.is_empty() {
        let leaves: Vec<Asn> = adj
            .iter()
            .filter(|(_, ns)| ns.len() <= 1)
            .map(|(&a, _)| a)
            .collect();
        if leaves.is_empty() {
            // Dense core: everything remaining shares the top level.
            for a in adj.keys() {
                levels.insert(*a, level);
            }
            break;
        }
        for a in &leaves {
            levels.insert(*a, level);
            if let Some(ns) = adj.remove(a) {
                for n in ns {
                    if let Some(set) = adj.get_mut(&n) {
                        set.remove(a);
                    }
                }
            }
        }
        level += 1;
    }
    levels
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
    fn hierarchy_inferred_from_two_views() {
        let rels = sark_infer(
            &ps(&[
                &[100, 10, 1, 20, 200],
                &[100, 10, 1, 30, 300],
                &[200, 20, 1, 10, 100],
                &[200, 20, 1, 30, 300],
            ]),
            &SarkConfig::default(),
        );
        assert!(rels.is_c2p(Asn(10), Asn(1)), "{rels:?}");
        assert!(rels.is_c2p(Asn(20), Asn(1)));
    }

    #[test]
    fn symmetric_links_become_p2p() {
        // 1 and 2 have identical downstream counts in both views.
        let rels = sark_infer(
            &ps(&[&[100, 1, 2, 200], &[200, 2, 1, 100]]),
            &SarkConfig::default(),
        );
        assert!(rels.is_p2p(Asn(1), Asn(2)), "{rels:?}");
    }

    #[test]
    fn every_observed_link_classified() {
        let input = ps(&[&[100, 10, 1, 20, 200], &[300, 30, 1, 10, 100]]);
        let rels = sark_infer(&input, &SarkConfig::default());
        let mut links = HashSet::new();
        for s in input.iter() {
            for (a, b) in s.path.links() {
                links.insert(AsLink::new(a, b));
            }
        }
        assert_eq!(rels.len(), links.len());
    }
}
