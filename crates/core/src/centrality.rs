//! Transit centrality — a path-based importance measure.
//!
//! The cone-based ranking this paper introduced was later complemented by
//! path-centrality measures (e.g. AS hegemony) that ask a different
//! question: *what fraction of observed routes actually traverse this
//! AS?* A network can have a large customer cone yet carry little of the
//! observable traffic mix, and vice versa. This module implements the
//! straightforward observable variant: for each AS, the fraction of
//! distinct (VP, origin) paths that include it as a transit hop, with
//! the endpoints themselves excluded (an AS is not "transit" for its own
//! routes).

use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Per-AS transit centrality.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Centrality {
    scores: HashMap<Asn, f64>,
    /// Number of distinct paths the scores are normalized by.
    pub paths: usize,
}

impl Centrality {
    /// Centrality of `asn` in `[0, 1]` (0 for unobserved ASes).
    pub fn score(&self, asn: Asn) -> f64 {
        self.scores.get(&asn).copied().unwrap_or(0.0)
    }

    /// ASes ranked by centrality (descending), ties by ASN.
    pub fn ranked(&self) -> Vec<(Asn, f64)> {
        let mut v: Vec<(Asn, f64)> = self.scores.iter().map(|(&a, &s)| (a, s)).collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        v
    }

    /// Number of ASes with a nonzero score.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when no path contributed.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// Compute transit centrality over sanitized paths.
///
/// Each distinct path contributes once; every *interior* hop of the path
/// gets credit. VPs see the world from their own corner, so like the
/// paper's cones this is an *observable* measure, shaped by where the
/// collectors sit.
pub fn transit_centrality(paths: &SanitizedPaths) -> Centrality {
    let distinct: HashSet<&[Asn]> = paths.paths().collect();
    let total = distinct.len();
    let mut counts: HashMap<Asn, usize> = HashMap::new();
    for hops in &distinct {
        // Interior hops only — each AS at most once per path.
        let mut seen: HashSet<Asn> = HashSet::new();
        for &a in &hops[1..hops.len().saturating_sub(1)] {
            if seen.insert(a) {
                *counts.entry(a).or_default() += 1;
            }
        }
    }
    Centrality {
        scores: counts
            .into_iter()
            .map(|(a, c)| (a, c as f64 / total.max(1) as f64))
            .collect(),
        paths: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{sanitize, SanitizeConfig};

    fn sanitized(raw: &[&[u32]]) -> SanitizedPaths {
        let ps: PathSet = raw
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect();
        sanitize(&ps, &SanitizeConfig::default())
    }

    #[test]
    fn interior_hops_get_credit() {
        let c = transit_centrality(&sanitized(&[&[1, 2, 3], &[4, 2, 5]]));
        assert_eq!(c.paths, 2);
        assert!((c.score(Asn(2)) - 1.0).abs() < 1e-12, "2 transits both");
        assert_eq!(c.score(Asn(1)), 0.0, "endpoints are not transit");
        assert_eq!(c.score(Asn(3)), 0.0);
        assert_eq!(c.score(Asn(99)), 0.0);
    }

    #[test]
    fn ranking_is_descending_and_tie_broken() {
        let c = transit_centrality(&sanitized(&[&[1, 2, 3, 9], &[1, 2, 8], &[7, 3, 8]]));
        let ranked = c.ranked();
        assert_eq!(ranked[0].0, Asn(2)); // in 2 of 3 paths
                                         // 3 is interior in paths 1 and 3 → 2/3 as well: tie on score,
                                         // broken by ASN → 2 before 3.
        assert_eq!(ranked[1].0, Asn(3));
        assert!(ranked[0].1 >= ranked[1].1);
    }

    #[test]
    fn cone_and_centrality_can_disagree() {
        // 5 has a large "cone" (many customers below) but all VPs sit
        // inside its subtree, so it never appears interior; 6 transits
        // everything.
        let c = transit_centrality(&sanitized(&[&[10, 6, 20], &[11, 6, 21], &[12, 6, 22]]));
        assert!(c.score(Asn(6)) > 0.99);
        assert_eq!(c.score(Asn(5)), 0.0);
    }

    #[test]
    fn empty_input() {
        let c = transit_centrality(&SanitizedPaths::default());
        assert!(c.is_empty());
        assert_eq!(c.paths, 0);
    }
}
