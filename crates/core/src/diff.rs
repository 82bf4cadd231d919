//! Relationship-map diffing.
//!
//! CAIDA publishes as-rel snapshots monthly; the interesting signal is
//! often the *delta* — new links, vanished links, and relationship
//! changes (a customer upgraded to peer is a business event worth
//! noticing). [`diff_relationships`] computes exactly that, and is also
//! the tool for comparing two inference runs (different VP sets,
//! different algorithm versions) over the same topology.

use asrank_types::prelude::*;

/// One changed link: classification before and after.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangedLink {
    /// The link.
    pub link: AsLink,
    /// Classification in the old map.
    pub before: LinkRel,
    /// Classification in the new map.
    pub after: LinkRel,
}

/// The delta between two relationship maps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelDiff {
    /// Links present only in the new map, sorted.
    pub added: Vec<(AsLink, LinkRel)>,
    /// Links present only in the old map, sorted.
    pub removed: Vec<(AsLink, LinkRel)>,
    /// Links present in both with a different classification, sorted.
    pub changed: Vec<ChangedLink>,
    /// Links present and identical in both.
    pub unchanged: usize,
}

impl RelDiff {
    /// Total number of differences.
    pub fn churn(&self) -> usize {
        self.added.len() + self.removed.len() + self.changed.len()
    }

    /// True when the maps are identical.
    pub fn is_empty(&self) -> bool {
        self.churn() == 0
    }

    /// Fraction of the union of links that is unchanged.
    pub fn stability(&self) -> f64 {
        let total = self.unchanged + self.churn();
        if total == 0 {
            1.0
        } else {
            self.unchanged as f64 / total as f64
        }
    }
}

/// Compute the delta from `old` to `new`.
pub fn diff_relationships(old: &RelationshipMap, new: &RelationshipMap) -> RelDiff {
    let mut diff = RelDiff::default();
    for (link, before) in old.iter() {
        match new.get(link.a, link.b) {
            None => diff.removed.push((link, before)),
            Some(after) if after != before => diff.changed.push(ChangedLink {
                link,
                before,
                after,
            }),
            Some(_) => diff.unchanged += 1,
        }
    }
    for (link, after) in new.iter() {
        if old.get(link.a, link.b).is_none() {
            diff.added.push((link, after));
        }
    }
    diff.added.sort_by_key(|(l, _)| (l.a, l.b));
    diff.removed.sort_by_key(|(l, _)| (l.a, l.b));
    diff.changed.sort_by_key(|c| (c.link.a, c.link.b));
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_maps_have_empty_diff() {
        let mut m = RelationshipMap::new();
        m.insert_c2p(Asn(1), Asn(2));
        m.insert_p2p(Asn(2), Asn(3));
        let d = diff_relationships(&m, &m.clone());
        assert!(d.is_empty());
        assert_eq!(d.unchanged, 2);
        assert!((d.stability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn detects_all_change_kinds() {
        let mut old = RelationshipMap::new();
        old.insert_c2p(Asn(1), Asn(2)); // will flip to p2p
        old.insert_p2p(Asn(3), Asn(4)); // will vanish
        old.insert_c2p(Asn(5), Asn(6)); // unchanged

        let mut new = RelationshipMap::new();
        new.insert_p2p(Asn(1), Asn(2));
        new.insert_c2p(Asn(5), Asn(6));
        new.insert_s2s(Asn(7), Asn(8)); // appears

        let d = diff_relationships(&old, &new);
        assert_eq!(d.added.len(), 1);
        assert_eq!(d.added[0].0, AsLink::new(Asn(7), Asn(8)));
        assert_eq!(d.removed.len(), 1);
        assert_eq!(d.removed[0].0, AsLink::new(Asn(3), Asn(4)));
        assert_eq!(d.changed.len(), 1);
        assert_eq!(d.changed[0].link, AsLink::new(Asn(1), Asn(2)));
        assert_eq!(d.changed[0].before.kind(), RelationshipKind::C2p);
        assert_eq!(d.changed[0].after.kind(), RelationshipKind::P2p);
        assert_eq!(d.unchanged, 1);
        assert_eq!(d.churn(), 3);
        assert!((d.stability() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn orientation_flip_counts_as_change() {
        let mut old = RelationshipMap::new();
        old.insert_c2p(Asn(1), Asn(2));
        let mut new = RelationshipMap::new();
        new.insert_c2p(Asn(2), Asn(1)); // reversed roles
        let d = diff_relationships(&old, &new);
        assert_eq!(d.changed.len(), 1);
    }

    #[test]
    fn empty_maps() {
        let d = diff_relationships(&RelationshipMap::new(), &RelationshipMap::new());
        assert!(d.is_empty());
        assert!((d.stability() - 1.0).abs() < 1e-12);
    }
}
