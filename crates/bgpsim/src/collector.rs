//! Vantage points and feed modeling.
//!
//! RouteViews and RIS see the Internet through the BGP sessions that
//! networks volunteer. Two properties of that corpus shape the paper's
//! method and its visibility analysis:
//!
//! * VPs are **biased toward well-connected networks** — large transit
//!   providers are far more likely to peer with a collector than a random
//!   stub; and
//! * only about a third of VPs are **full feeds** (the paper's April 2013
//!   snapshot had 116 full feeds out of 315 VPs); the rest export partial
//!   tables.
//!
//! [`select_vps`] reproduces both properties with degree-weighted sampling.

use crate::graph::PolicyGraph;
use asrank_types::Asn;
use rand::prelude::*;
use rand::rngs::StdRng;

/// One vantage point: an AS exporting its table to a collector.
#[derive(Debug, Clone, PartialEq)]
pub struct VantagePoint {
    /// The AS hosting the VP.
    pub asn: Asn,
    /// True when the VP exports (nearly) the full routed table.
    pub full_feed: bool,
    /// Fraction of prefixes this VP reports (1.0 for full feeds).
    pub feed_fraction: f64,
}

/// How to choose vantage points.
#[derive(Debug, Clone, PartialEq)]
pub enum VpSelection {
    /// Pick this many VPs, degree-weighted (collector-peering bias).
    Count(usize),
    /// Use exactly these ASes as VPs.
    Explicit(Vec<Asn>),
}

/// Select vantage points over a compiled topology.
///
/// * With [`VpSelection::Count`], ASes are drawn without replacement with
///   probability proportional to `1 + degree²` — a strong bias toward
///   transit networks, matching who actually peers with collectors.
/// * `full_feed_fraction` of the chosen VPs export the whole table; the
///   rest report a uniform random fraction in `[0.05, 0.5)` of prefixes.
pub fn select_vps(
    g: &PolicyGraph,
    selection: &VpSelection,
    full_feed_fraction: f64,
    seed: u64,
) -> Vec<VantagePoint> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc011_ec70);
    let chosen: Vec<Asn> = match selection {
        VpSelection::Explicit(list) => list.clone(),
        VpSelection::Count(count) => {
            let mut weighted: Vec<(Asn, f64)> = g
                .ids()
                .map(|id| {
                    let deg = g.providers(id).len()
                        + g.customers(id).len()
                        + g.peers(id).len()
                        + g.siblings(id).len();
                    (g.asn(id), 1.0 + (deg * deg) as f64)
                })
                .collect();
            weighted.sort_by_key(|(a, _)| *a);
            let mut picked = Vec::with_capacity(*count);
            let mut total: f64 = weighted.iter().map(|(_, w)| w).sum();
            // Draw without replacement by zeroing out selected weights.
            for _ in 0..(*count).min(weighted.len()) {
                let mut target = rng.random::<f64>() * total;
                let mut idx = weighted.len() - 1;
                for (i, (_, w)) in weighted.iter().enumerate() {
                    if target < *w {
                        idx = i;
                        break;
                    }
                    target -= *w;
                }
                let (asn, w) = weighted[idx];
                picked.push(asn);
                total -= w;
                weighted[idx].1 = 0.0;
            }
            picked
        }
    };

    chosen
        .into_iter()
        .map(|asn| {
            let full = rng.random::<f64>() < full_feed_fraction;
            VantagePoint {
                asn,
                full_feed: full,
                feed_fraction: if full {
                    1.0
                } else {
                    0.05 + 0.45 * rng.random::<f64>()
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::prelude::*;

    fn star_graph() -> PolicyGraph {
        // Hub AS1 with 20 stub customers: degree bias should almost always
        // include the hub.
        let mut gt = GroundTruth::default();
        for i in 0..20u32 {
            gt.relationships.insert_c2p(Asn(100 + i), Asn(1));
            gt.classes.insert(Asn(100 + i), AsClass::Stub);
        }
        gt.classes.insert(Asn(1), AsClass::LargeTransit);
        PolicyGraph::new(&gt)
    }

    #[test]
    fn degree_bias_prefers_hub() {
        let g = star_graph();
        let mut hub_hits = 0;
        for seed in 0..50 {
            let vps = select_vps(&g, &VpSelection::Count(3), 0.5, seed);
            if vps.iter().any(|v| v.asn == Asn(1)) {
                hub_hits += 1;
            }
        }
        assert!(hub_hits > 40, "hub selected only {hub_hits}/50 times");
    }

    #[test]
    fn explicit_selection_is_exact() {
        let g = star_graph();
        let want = vec![Asn(100), Asn(105)];
        let vps = select_vps(&g, &VpSelection::Explicit(want.clone()), 1.0, 7);
        assert_eq!(vps.iter().map(|v| v.asn).collect::<Vec<_>>(), want);
        assert!(vps.iter().all(|v| v.full_feed));
        assert!(vps.iter().all(|v| (v.feed_fraction - 1.0).abs() < 1e-12));
    }

    #[test]
    fn no_duplicate_vps() {
        let g = star_graph();
        let vps = select_vps(&g, &VpSelection::Count(21), 0.3, 3);
        let set: std::collections::HashSet<Asn> = vps.iter().map(|v| v.asn).collect();
        assert_eq!(set.len(), vps.len());
        assert_eq!(vps.len(), 21); // never more than the population
    }

    #[test]
    fn partial_feeds_have_small_fractions() {
        let g = star_graph();
        let vps = select_vps(&g, &VpSelection::Count(10), 0.0, 5);
        for vp in vps {
            assert!(!vp.full_feed);
            assert!((0.05..0.5).contains(&vp.feed_fraction));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = star_graph();
        let a = select_vps(&g, &VpSelection::Count(5), 0.4, 11);
        let b = select_vps(&g, &VpSelection::Count(5), 0.4, 11);
        assert_eq!(a, b);
    }
}
