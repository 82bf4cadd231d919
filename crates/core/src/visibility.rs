//! Per-link visibility analysis.
//!
//! The paper's error analysis turns on *visibility*: a link seen from a
//! single vantage point — typically near the path peaks or at the far
//! edge — carries far weaker evidence than one crossed by hundreds of
//! VPs' paths. This module computes, for every observed link, how many
//! VPs observed it, how many distinct paths crossed it, and whether it
//! was ever observed in a descending position (the evidence the S5
//! top-down step consumes).

use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use std::collections::{HashMap, HashSet};

/// Visibility statistics for one link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkVisibility {
    /// Distinct VPs whose paths crossed the link.
    pub vps: usize,
    /// Distinct paths crossing the link.
    pub paths: usize,
    /// True when the link was observed at the very first hop of a path
    /// (VP-side links, classified by S6 rather than S5).
    pub vp_adjacent: bool,
}

/// Visibility table over all observed links.
#[derive(Debug, Clone, Default)]
pub struct VisibilityTable {
    links: HashMap<AsLink, LinkVisibility>,
}

impl VisibilityTable {
    /// Compute visibility over a sanitized dataset.
    pub fn compute(sanitized: &SanitizedPaths) -> Self {
        let mut vps: HashMap<AsLink, HashSet<Asn>> = HashMap::new();
        let mut paths: HashMap<AsLink, HashSet<&[Asn]>> = HashMap::new();
        let mut vp_adjacent: HashSet<AsLink> = HashSet::new();
        for (vp, _, hops) in sanitized.iter() {
            for (i, w) in hops.windows(2).enumerate() {
                let link = AsLink::new(w[0], w[1]);
                vps.entry(link).or_default().insert(vp);
                paths.entry(link).or_default().insert(hops);
                if i == 0 {
                    vp_adjacent.insert(link);
                }
            }
        }
        let links = vps
            .into_iter()
            .map(|(link, v)| {
                (
                    link,
                    LinkVisibility {
                        vps: v.len(),
                        paths: paths.get(&link).map(HashSet::len).unwrap_or(0),
                        vp_adjacent: vp_adjacent.contains(&link),
                    },
                )
            })
            .collect();
        VisibilityTable { links }
    }

    /// Visibility of one link, if observed.
    pub fn get(&self, a: Asn, b: Asn) -> Option<&LinkVisibility> {
        self.links.get(&AsLink::new(a, b))
    }

    /// Number of observed links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Iterate over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (AsLink, &LinkVisibility)> {
        self.links.iter().map(|(&l, v)| (l, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{sanitize, SanitizeConfig};

    fn sanitized(raw: &[(u32, &[u32])]) -> SanitizedPaths {
        let ps: PathSet = raw
            .iter()
            .enumerate()
            .map(|(i, (vp, p))| PathSample {
                vp: Asn(*vp),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect();
        sanitize(&ps, &SanitizeConfig::default())
    }

    #[test]
    fn counts_vps_and_paths() {
        let s = sanitized(&[(9, &[9, 1, 2]), (9, &[9, 1, 3]), (8, &[8, 1, 2])]);
        let t = VisibilityTable::compute(&s);
        let v12 = t.get(Asn(1), Asn(2)).unwrap();
        assert_eq!(v12.vps, 2);
        assert_eq!(v12.paths, 2);
        assert!(!v12.vp_adjacent);
        let v91 = t.get(Asn(9), Asn(1)).unwrap();
        assert_eq!(v91.vps, 1);
        assert!(v91.vp_adjacent);
        assert!(t.get(Asn(1), Asn(9)).is_some(), "order-insensitive lookup");
        assert!(t.get(Asn(5), Asn(6)).is_none());
    }

    #[test]
    fn shared_link_counts_every_vp() {
        let s = sanitized(&[(9, &[9, 1, 2]), (8, &[8, 1, 2]), (7, &[7, 1, 2])]);
        let t = VisibilityTable::compute(&s);
        // 1-2 seen by 3 VPs; each VP link by 1.
        assert_eq!(t.get(Asn(1), Asn(2)).unwrap().vps, 3);
        for vp in [7, 8, 9] {
            assert_eq!(t.get(Asn(vp), Asn(1)).unwrap().vps, 1);
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn empty_input() {
        let t = VisibilityTable::compute(&SanitizedPaths::default());
        assert!(t.is_empty());
    }
}
