//! Xia & Gao's partially-validated inference (2004).
//!
//! Xia & Gao observed that a *small set of known relationships* (they
//! used routing-registry data) anchors the rest: in a valley-free path,
//! once any link's relationship is known, it constrains which side of the
//! peak every other link sits on. The algorithm seeds from the known set,
//! locates each path's peak consistently with the seed, and infers the
//! remaining links by voting; unseeded, it degenerates to Gao-style
//! top-by-degree peak selection.

use crate::distinct_clean_paths;
use crate::gao::gao_infer;
use asrank_types::prelude::*;
use std::collections::{HashMap, HashSet};

/// Share of a link's seeded-pass votes one verdict needs to classify it;
/// below it the link keeps Gao's verdict. Xia & Gao (2004) classify by
/// majority of the path evidence; 0.6 is the share this reproduction runs.
const MAJORITY: f64 = 0.6;

/// Run Xia-Gao with a seed of known relationships.
pub fn xia_gao_infer(paths: &PathSet, seed: &RelationshipMap) -> RelationshipMap {
    let distinct = distinct_clean_paths(paths);

    // Vote for each oriented pair: (customer, provider) → count.
    let mut c2p_votes: HashMap<(Asn, Asn), usize> = HashMap::new();
    let mut p2p_votes: HashMap<AsLink, usize> = HashMap::new();

    for p in &distinct {
        let hops = &p.0;
        // Locate the peak interval using seeded links: the last seeded
        // uphill link starts the peak; the first seeded downhill link
        // ends it.
        let mut peak_start: Option<usize> = None; // index of last uphill link + 1
        let mut peak_end: Option<usize> = None; // index of first downhill link
        for j in 0..hops.len() - 1 {
            match seed.orientation(hops[j], hops[j + 1]) {
                // hops[j+1] is hops[j]'s provider → still climbing at j.
                Some(Orientation::Provider) => peak_start = Some(j + 1),
                // hops[j+1] is hops[j]'s customer → descending from j.
                Some(Orientation::Customer) if peak_end.is_none() => {
                    peak_end = Some(j);
                }
                Some(Orientation::Peer) => {
                    peak_start = peak_start.or(Some(j));
                    if peak_end.is_none() {
                        peak_end = Some(j + 1);
                    }
                }
                _ => {}
            }
        }
        let (Some(start), Some(end)) = (peak_start, peak_end) else {
            continue; // seed gives no anchor for this path
        };
        if start > end {
            continue; // seed evidence is inconsistent (valley); skip
        }
        // Links strictly before the peak are uphill; strictly after,
        // downhill; links inside [start, end) are left alone (could be
        // the peering crossing).
        for j in 0..hops.len() - 1 {
            if j < start {
                *c2p_votes.entry((hops[j], hops[j + 1])).or_default() += 1;
            } else if j >= end {
                *c2p_votes.entry((hops[j + 1], hops[j])).or_default() += 1;
            } else if j == start && end == start + 1 {
                // Exactly one link inside the peak: the peering crossing.
                *p2p_votes
                    .entry(AsLink::new(hops[j], hops[j + 1]))
                    .or_default() += 1;
            }
        }
    }

    // Start from the fallback inference, then overwrite with seeded-pass
    // majorities, then stamp the seed itself (ground truth wins).
    let mut rels = gao_infer(paths);

    let mut all_links: HashSet<AsLink> = HashSet::new();
    for &(c, pvd) in c2p_votes.keys() {
        all_links.insert(AsLink::new(c, pvd));
    }
    all_links.extend(p2p_votes.keys().copied());
    let mut ordered: Vec<AsLink> = all_links.into_iter().collect();
    ordered.sort();
    for link in ordered {
        let up = c2p_votes.get(&(link.a, link.b)).copied().unwrap_or(0);
        let down = c2p_votes.get(&(link.b, link.a)).copied().unwrap_or(0);
        let peer = p2p_votes.get(&link).copied().unwrap_or(0);
        let total = up + down + peer;
        if total == 0 {
            continue;
        }
        let share = |n: usize| n as f64 / total as f64;
        if share(up) >= MAJORITY {
            rels.insert_c2p(link.a, link.b);
        } else if share(down) >= MAJORITY {
            rels.insert_c2p(link.b, link.a);
        } else if share(peer) >= MAJORITY {
            rels.insert_p2p(link.a, link.b);
        }
    }

    for (link, rel) in seed.iter() {
        match rel {
            LinkRel::AC2pB => rels.insert_c2p(link.a, link.b),
            LinkRel::AP2cB => rels.insert_c2p(link.b, link.a),
            LinkRel::P2p => rels.insert_p2p(link.a, link.b),
            LinkRel::S2s => rels.insert_s2s(link.a, link.b),
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
    fn seed_anchors_inference() {
        // Path 100-10-1-2-20-200 with seeded p2p(1,2): everything before
        // is uphill, everything after downhill.
        let mut seed = RelationshipMap::new();
        seed.insert_p2p(Asn(1), Asn(2));
        let rels = xia_gao_infer(
            &ps(&[&[100, 10, 1, 2, 20, 200], &[100, 11, 1, 2, 21, 201]]),
            &seed,
        );
        assert!(rels.is_p2p(Asn(1), Asn(2)));
        assert!(rels.is_c2p(Asn(10), Asn(1)), "{rels:?}");
        assert!(rels.is_c2p(Asn(100), Asn(10)));
        assert!(rels.is_c2p(Asn(20), Asn(2)));
        assert!(rels.is_c2p(Asn(200), Asn(20)));
    }

    #[test]
    fn seeded_c2p_anchors_peak() {
        // Seed 10 c2p 1 in path 100-10-1-20-200: peak must be at/after 1,
        // so 20, 200 descend.
        let mut seed = RelationshipMap::new();
        seed.insert_c2p(Asn(10), Asn(1));
        seed.insert_c2p(Asn(20), Asn(1));
        let rels = xia_gao_infer(&ps(&[&[100, 10, 1, 20, 200]]), &seed);
        assert!(rels.is_c2p(Asn(100), Asn(10)));
        assert!(rels.is_c2p(Asn(200), Asn(20)));
    }

    #[test]
    fn seed_always_wins() {
        let mut seed = RelationshipMap::new();
        seed.insert_p2p(Asn(10), Asn(1));
        let rels = xia_gao_infer(&ps(&[&[100, 10, 1, 20, 200]]), &seed);
        assert!(rels.is_p2p(Asn(10), Asn(1)));
    }

    #[test]
    fn tied_votes_keep_gaos_verdict() {
        // Seeded peerings put 10 below 1 in one path and 1 below 10 in the
        // other: one vote each way is no majority, so the 1–10 link keeps
        // Gao's sibling verdict (a share of one half would orient it).
        let mut seed = RelationshipMap::new();
        seed.insert_p2p(Asn(1), Asn(2));
        seed.insert_p2p(Asn(10), Asn(2));
        let input = ps(&[&[10, 1, 2, 20], &[1, 10, 2, 22]]);
        let verdict = xia_gao_infer(&input, &seed).get(Asn(1), Asn(10));
        assert_eq!(verdict, gao_infer(&input).get(Asn(1), Asn(10)));
        assert_eq!(verdict.map(|r| r.kind()), Some(RelationshipKind::S2s));
    }

    #[test]
    fn unseeded_degenerates_to_gao() {
        let input = ps(&[&[100, 10, 1, 20, 200], &[200, 20, 1, 10, 100]]);
        let xg = xia_gao_infer(&input, &RelationshipMap::new());
        let g = gao_infer(&input);
        let mut a: Vec<_> = xg.iter().collect();
        let mut b: Vec<_> = g.iter().collect();
        a.sort_by_key(|(l, _)| (l.a, l.b));
        b.sort_by_key(|(l, _)| (l.a, l.b));
        assert_eq!(a, b);
    }
}
