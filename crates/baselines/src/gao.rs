//! Gao's degree-based inference (IEEE/ACM ToN 2001).
//!
//! The first published AS-relationship algorithm, and the customary
//! baseline. For every path, the AS with the largest node degree is
//! assumed to be the path's *top provider*: links before it go uphill
//! (customer→provider), links after it downhill. Each traversal casts a
//! vote; vote totals classify links, with near-balanced votes indicating
//! siblings. A final phase marks links adjacent to the top provider as
//! peering when the two ASes have comparable degrees.
//!
//! Structural weaknesses the ASRank paper calls out (and our experiments
//! reproduce): node degree confuses big peering hubs with big transit
//! providers, a single path's top provider may actually sit beside a
//! peering link, and the sibling rule misfires on multihomed pairs.

use crate::{distinct_clean_paths, link_graph};
use asrank_types::prelude::*;
use std::collections::HashMap;

/// Gao's vote threshold `L`: one-sided vote counts above `L` give c2p;
/// two-sided counts at or below `L` give siblings. Gao's refined
/// algorithm uses small values; 1 is customary.
const L: usize = 1;

/// Gao's degree-ratio band `R` for the peering phase: a link adjacent to a
/// path's top provider is a peering candidate when the endpoint degrees
/// are within a factor of `R` (Gao 2001, which leaves `R` to calibration;
/// 60 is the value run here).
const R: f64 = 60.0;

/// Run Gao's algorithm.
pub fn gao_infer(paths: &PathSet) -> RelationshipMap {
    let distinct = distinct_clean_paths(paths);
    // Node degree over the observed link graph.
    let (degrees, links) = link_graph(&distinct);
    let degree = |a: Asn| degrees[&a];
    // Each path's top provider: its highest-degree hop, the first on ties.
    let top_of = |hops: &[Asn]| {
        hops.iter()
            .enumerate()
            .max_by_key(|&(i, &a)| (degree(a), std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };

    // Phase 1: vote uphill/downhill around each path's top provider.
    // votes[(u, v)] = number of paths suggesting v provides transit to u.
    let mut votes: HashMap<(Asn, Asn), usize> = HashMap::new();
    for p in &distinct {
        let hops = &p.0;
        let top = top_of(hops);
        for j in 0..hops.len() - 1 {
            let (u, v) = (hops[j], hops[j + 1]);
            if j < top {
                *votes.entry((u, v)).or_default() += 1; // v provides for u
            } else {
                *votes.entry((v, u)).or_default() += 1; // u provides for v
            }
        }
    }

    // Phase 2: classify by votes.
    let mut rels = RelationshipMap::new();
    for link in &links {
        let up = votes.get(&(link.a, link.b)).copied().unwrap_or(0); // b provides a
        let down = votes.get(&(link.b, link.a)).copied().unwrap_or(0); // a provides b
        if up > L && down <= L {
            rels.insert_c2p(link.a, link.b);
        } else if down > L && up <= L {
            rels.insert_c2p(link.b, link.a);
        } else if up > 0 && down > 0 {
            rels.insert_s2s(link.a, link.b);
        } else if up > 0 {
            rels.insert_c2p(link.a, link.b);
        } else if down > 0 {
            rels.insert_c2p(link.b, link.a);
        }
    }

    // Phase 3: peering — links adjacent to a path's top provider whose
    // endpoint degrees fall within the R band are re-marked p2p when the
    // path evidence is weak or balanced (no one-sided transit signal).
    for p in &distinct {
        let hops = &p.0;
        let top = top_of(hops);
        let mut candidates: Vec<(Asn, Asn)> = Vec::new();
        if top > 0 {
            candidates.push((hops[top - 1], hops[top]));
        }
        if top + 1 < hops.len() {
            candidates.push((hops[top], hops[top + 1]));
        }
        for (u, v) in candidates {
            let (du, dv) = (degree(u) as f64, degree(v) as f64);
            let ratio = (du / dv).max(dv / du);
            if ratio < R {
                let up = votes.get(&(u, v)).copied().unwrap_or(0);
                let down = votes.get(&(v, u)).copied().unwrap_or(0);
                let weak_both = up <= L && down <= L;
                let balanced = up > 0
                    && down > 0
                    && (up as f64 / down as f64) < 2.0
                    && (down as f64 / up as f64) < 2.0;
                if weak_both || balanced {
                    rels.insert_p2p(u, v);
                }
            }
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
    fn simple_hierarchy_inferred() {
        // 1 is the high-degree hub; chains hang off it.
        let rels = gao_infer(&ps(&[
            &[100, 10, 1, 20, 200],
            &[100, 10, 1, 30, 300],
            &[200, 20, 1, 30, 300],
            &[200, 20, 1, 10, 100],
        ]));
        assert!(rels.is_c2p(Asn(10), Asn(1)), "{rels:?}");
        assert!(rels.is_c2p(Asn(20), Asn(1)));
        assert!(rels.is_c2p(Asn(100), Asn(10)));
        assert!(rels.is_c2p(Asn(200), Asn(20)));
    }

    #[test]
    fn comparable_top_degrees_become_p2p() {
        // 1 and 2 have similar degree and meet at every path's peak.
        let rels = gao_infer(&ps(&[
            &[100, 10, 1, 2, 20, 200],
            &[200, 20, 2, 1, 10, 100],
            &[100, 11, 1, 2, 21, 200],
            &[200, 21, 2, 1, 11, 100],
        ]));
        assert!(rels.is_p2p(Asn(1), Asn(2)), "{rels:?}");
    }

    #[test]
    fn balanced_votes_give_siblings() {
        // The 5–6 link is seen uphill in both directions: toward top
        // provider 7 in two paths (votes 5→6) and toward top provider 8
        // in two others (votes 6→5). Balanced votes ⇒ sibling. No path
        // tops at 5 or 6, so the peering phase never considers the link.
        let rels = gao_infer(&ps(&[
            // 7 is the global degree champion, 8 the runner-up.
            &[80, 7, 81],
            &[82, 7, 83],
            &[84, 7, 85],
            &[86, 7, 87],
            &[60, 8, 61],
            &[62, 8, 63],
            &[64, 8, 65],
            // Uphill 5 → 6 → 7.
            &[90, 5, 6, 7],
            &[91, 5, 6, 7],
            // Uphill 6 → 5 → 8.
            &[70, 6, 5, 8],
            &[71, 6, 5, 8],
        ]));
        assert_eq!(
            rels.get(Asn(5), Asn(6)).map(|r| r.kind()),
            Some(RelationshipKind::S2s),
            "{rels:?}"
        );
    }

    #[test]
    fn deterministic() {
        let input = ps(&[&[100, 10, 1, 20, 200], &[200, 20, 1, 10, 100]]);
        let a = gao_infer(&input);
        let b = gao_infer(&input);
        let mut la: Vec<_> = a.iter().collect();
        let mut lb: Vec<_> = b.iter().collect();
        la.sort_by_key(|(l, _)| (l.a, l.b));
        lb.sort_by_key(|(l, _)| (l.a, l.b));
        assert_eq!(la, lb);
    }

    #[test]
    fn empty_input_gives_empty_map() {
        assert!(gao_infer(&PathSet::new()).is_empty());
    }
}
