//! AS business relationships.
//!
//! The paper infers, for every AS link observed in BGP paths, one of:
//!
//! * **c2p** — customer-to-provider: the customer pays the provider for
//!   transit to the whole Internet;
//! * **p2p** — settlement-free peering: the two ASes exchange traffic for
//!   their respective customer cones only;
//! * **s2s** — siblings: two ASes under common ownership that may exchange
//!   anything (present in validation data, rare in inference output).
//!
//! [`RelationshipMap`] is the central artifact: both the generator's ground
//! truth and every inference algorithm's output are `RelationshipMap`s, so
//! the validation framework compares like with like.

use crate::asn::Asn;
use crate::fxhash::FxHashMap;
use std::collections::HashMap;
use std::fmt;

/// The three relationship kinds of the Gao-Rexford model, unoriented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationshipKind {
    /// Customer-to-provider (transit).
    C2p,
    /// Settlement-free peer-to-peer.
    P2p,
    /// Sibling (common ownership).
    S2s,
}

impl fmt::Display for RelationshipKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RelationshipKind::C2p => "c2p",
            RelationshipKind::P2p => "p2p",
            RelationshipKind::S2s => "s2s",
        })
    }
}

/// An unordered AS adjacency, stored canonically with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsLink {
    /// Lower-numbered endpoint.
    pub a: Asn,
    /// Higher-numbered endpoint.
    pub b: Asn,
}

impl AsLink {
    /// Canonicalize an adjacency between two distinct ASes.
    ///
    /// # Panics
    /// Panics if `x == y`; a self-link can never be a business relationship
    /// and indicates a bug upstream (sanitization removes prepending).
    pub fn new(x: Asn, y: Asn) -> Self {
        assert!(x != y, "self-link {x} is not a valid adjacency");
        if x < y {
            AsLink { a: x, b: y }
        } else {
            AsLink { a: y, b: x }
        }
    }

    /// True when `asn` is one of the endpoints.
    pub fn involves(&self, asn: Asn) -> bool {
        self.a == asn || self.b == asn
    }

    /// Given one endpoint, return the other.
    ///
    /// # Panics
    /// Panics when `asn` is not an endpoint of this link.
    pub fn other(&self, asn: Asn) -> Asn {
        if asn == self.a {
            self.b
        } else if asn == self.b {
            self.a
        } else {
            panic!("{asn} is not an endpoint of {self}")
        }
    }
}

impl fmt::Display for AsLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.a, self.b)
    }
}

/// The relationship on a canonical [`AsLink`], oriented relative to the
/// canonical (a, b) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkRel {
    /// `a` is a customer of `b`.
    AC2pB,
    /// `a` is a provider of `b` (i.e. `b` is the customer).
    AP2cB,
    /// Settlement-free peering.
    P2p,
    /// Siblings.
    S2s,
}

impl LinkRel {
    /// The unoriented kind of this relationship.
    pub fn kind(&self) -> RelationshipKind {
        match self {
            LinkRel::AC2pB | LinkRel::AP2cB => RelationshipKind::C2p,
            LinkRel::P2p => RelationshipKind::P2p,
            LinkRel::S2s => RelationshipKind::S2s,
        }
    }
}

/// The relationship as seen from one endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The neighbor is my provider (I am its customer).
    Provider,
    /// The neighbor is my customer (I am its provider).
    Customer,
    /// The neighbor is my settlement-free peer.
    Peer,
    /// The neighbor is my sibling.
    Sibling,
}

impl Orientation {
    /// The opposite point of view (my provider sees me as a customer).
    pub fn flipped(self) -> Orientation {
        match self {
            Orientation::Provider => Orientation::Customer,
            Orientation::Customer => Orientation::Provider,
            Orientation::Peer => Orientation::Peer,
            Orientation::Sibling => Orientation::Sibling,
        }
    }

    /// The unoriented kind.
    pub fn kind(self) -> RelationshipKind {
        match self {
            Orientation::Provider | Orientation::Customer => RelationshipKind::C2p,
            Orientation::Peer => RelationshipKind::P2p,
            Orientation::Sibling => RelationshipKind::S2s,
        }
    }
}

/// A complete relationship assignment over a set of AS links, with a
/// per-AS adjacency index for fast neighbor queries.
///
/// Both ground truth and inference output use this type. Inserting a link
/// twice replaces the previous classification (last writer wins), which is
/// exactly the semantics of the multi-step pipeline, where later steps may
/// refine earlier provisional inferences.
///
/// Links are hashed with [`FxHashMap`]: the keys are ASN pairs, trusted
/// data under the `fxhash` module's trust model, and the inference
/// stages probe the map once per hop they walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationshipMap {
    links: FxHashMap<AsLink, LinkRel>,
}

impl RelationshipMap {
    /// Create an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `customer` → `provider` transit.
    pub fn insert_c2p(&mut self, customer: Asn, provider: Asn) {
        let link = AsLink::new(customer, provider);
        let rel = if link.a == customer {
            LinkRel::AC2pB
        } else {
            LinkRel::AP2cB
        };
        self.links.insert(link, rel);
    }

    /// Record settlement-free peering between `x` and `y`.
    pub fn insert_p2p(&mut self, x: Asn, y: Asn) {
        self.links.insert(AsLink::new(x, y), LinkRel::P2p);
    }

    /// Record a sibling relationship between `x` and `y`.
    pub fn insert_s2s(&mut self, x: Asn, y: Asn) {
        self.links.insert(AsLink::new(x, y), LinkRel::S2s);
    }

    /// Remove a link entirely, returning its previous classification.
    pub fn remove(&mut self, x: Asn, y: Asn) -> Option<LinkRel> {
        self.links.remove(&AsLink::new(x, y))
    }

    /// The classification of the `x`–`y` link, if present.
    pub fn get(&self, x: Asn, y: Asn) -> Option<LinkRel> {
        if x == y {
            return None;
        }
        self.links.get(&AsLink::new(x, y)).copied()
    }

    /// The relationship between `x` and `y` from `x`'s point of view.
    pub fn orientation(&self, x: Asn, y: Asn) -> Option<Orientation> {
        let rel = self.get(x, y)?;
        let link = AsLink::new(x, y);
        Some(match (rel, link.a == x) {
            (LinkRel::AC2pB, true) | (LinkRel::AP2cB, false) => Orientation::Provider,
            (LinkRel::AC2pB, false) | (LinkRel::AP2cB, true) => Orientation::Customer,
            (LinkRel::P2p, _) => Orientation::Peer,
            (LinkRel::S2s, _) => Orientation::Sibling,
        })
    }

    /// True when `x` buys transit from `y`.
    // lint: allow(no-caller, the baselines' unit tests and this module's tests assert inferred c2p orientation with it)
    pub fn is_c2p(&self, x: Asn, y: Asn) -> bool {
        self.orientation(x, y) == Some(Orientation::Provider)
    }

    /// True when `x` and `y` peer.
    pub fn is_p2p(&self, x: Asn, y: Asn) -> bool {
        self.orientation(x, y) == Some(Orientation::Peer)
    }

    /// Number of classified links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no link is classified.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Iterate over `(link, rel)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (AsLink, LinkRel)> + '_ {
        self.links.iter().map(|(&l, &r)| (l, r))
    }

    /// Iterate over `(customer, provider)` pairs of all c2p links.
    pub fn c2p_pairs(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        self.links.iter().filter_map(|(&l, &r)| match r {
            LinkRel::AC2pB => Some((l.a, l.b)),
            LinkRel::AP2cB => Some((l.b, l.a)),
            _ => None,
        })
    }

    /// Iterate over the endpoints of all p2p links.
    pub fn p2p_pairs(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        self.links.iter().filter_map(|(&l, &r)| match r {
            LinkRel::P2p => Some((l.a, l.b)),
            _ => None,
        })
    }

    /// Count links by kind: `(c2p, p2p, s2s)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for rel in self.links.values() {
            match rel.kind() {
                RelationshipKind::C2p => c.0 += 1,
                RelationshipKind::P2p => c.1 += 1,
                RelationshipKind::S2s => c.2 += 1,
            }
        }
        c
    }

    /// Build a per-AS adjacency index: for every AS, its neighbors with the
    /// relationship seen from that AS.
    ///
    /// The index is a snapshot; it does not track later mutations.
    pub fn adjacency(&self) -> HashMap<Asn, Vec<(Asn, Orientation)>> {
        let mut adj: HashMap<Asn, Vec<(Asn, Orientation)>> = HashMap::new();
        for (&link, &rel) in &self.links {
            let a_view = match rel {
                LinkRel::AC2pB => Orientation::Provider,
                LinkRel::AP2cB => Orientation::Customer,
                LinkRel::P2p => Orientation::Peer,
                LinkRel::S2s => Orientation::Sibling,
            };
            adj.entry(link.a).or_default().push((link.b, a_view));
            adj.entry(link.b)
                .or_default()
                .push((link.a, a_view.flipped()));
        }
        adj
    }

    /// All ASes appearing as an endpoint of at least one link, in
    /// ascending ASN order (sort + dedup beats a hashed seen-set here,
    /// and the canonical order hides the link map's iteration order).
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        let mut endpoints: Vec<Asn> = self.link_endpoints().collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        endpoints.into_iter()
    }

    /// Raw link endpoints, with repeats, in link-map iteration order.
    /// Feed this to deduplicating consumers (`AsnInterner::from_ases`
    /// sorts and dedups anyway) to skip [`Self::ases`]'s extra sort.
    pub fn link_endpoints(&self) -> impl Iterator<Item = Asn> + '_ {
        self.links.keys().flat_map(|l| [l.a, l.b])
    }

    /// Direct providers of `asn` (linear scan; use [`Self::adjacency`] in
    /// hot loops).
    pub fn providers_of(&self, asn: Asn) -> Vec<Asn> {
        self.links
            .keys()
            .filter(|l| l.involves(asn))
            .filter_map(|l| {
                let other = l.other(asn);
                (self.orientation(asn, other) == Some(Orientation::Provider)).then_some(other)
            })
            .collect()
    }
}

impl FromIterator<(AsLink, LinkRel)> for RelationshipMap {
    fn from_iter<T: IntoIterator<Item = (AsLink, LinkRel)>>(iter: T) -> Self {
        RelationshipMap {
            links: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_canonicalization() {
        let l = AsLink::new(Asn(9), Asn(3));
        assert_eq!(l.a, Asn(3));
        assert_eq!(l.b, Asn(9));
        assert_eq!(l, AsLink::new(Asn(3), Asn(9)));
        assert!(l.involves(Asn(9)));
        assert_eq!(l.other(Asn(3)), Asn(9));
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn self_link_panics() {
        let _ = AsLink::new(Asn(5), Asn(5));
    }

    #[test]
    fn c2p_orientation_is_symmetric_in_storage() {
        let mut m = RelationshipMap::new();
        // customer has the *higher* ASN here, exercising AP2cB storage.
        m.insert_c2p(Asn(100), Asn(2));
        assert!(m.is_c2p(Asn(100), Asn(2)));
        assert!(!m.is_c2p(Asn(2), Asn(100)));
        assert_eq!(m.orientation(Asn(2), Asn(100)), Some(Orientation::Customer));
        assert_eq!(m.orientation(Asn(100), Asn(2)), Some(Orientation::Provider));

        // and the lower-ASN-customer case.
        m.insert_c2p(Asn(1), Asn(50));
        assert!(m.is_c2p(Asn(1), Asn(50)));
        assert_eq!(m.orientation(Asn(50), Asn(1)), Some(Orientation::Customer));
    }

    #[test]
    fn insert_overwrites() {
        let mut m = RelationshipMap::new();
        m.insert_c2p(Asn(1), Asn(2));
        m.insert_p2p(Asn(2), Asn(1));
        assert!(m.is_p2p(Asn(1), Asn(2)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn counts_and_pair_iters() {
        let mut m = RelationshipMap::new();
        m.insert_c2p(Asn(10), Asn(1));
        m.insert_c2p(Asn(11), Asn(1));
        m.insert_p2p(Asn(1), Asn(2));
        m.insert_s2s(Asn(5), Asn(6));
        assert_eq!(m.counts(), (2, 1, 1));

        let mut c2p: Vec<_> = m.c2p_pairs().collect();
        c2p.sort();
        assert_eq!(c2p, vec![(Asn(10), Asn(1)), (Asn(11), Asn(1))]);
        assert_eq!(m.p2p_pairs().count(), 1);
    }

    #[test]
    fn neighbor_queries() {
        let mut m = RelationshipMap::new();
        m.insert_c2p(Asn(10), Asn(1));
        m.insert_c2p(Asn(1), Asn(99));
        m.insert_p2p(Asn(1), Asn(2));
        assert_eq!(m.providers_of(Asn(1)), vec![Asn(99)]);

        let adj = m.adjacency();
        assert_eq!(adj[&Asn(1)].len(), 3);
        assert_eq!(adj[&Asn(10)], vec![(Asn(1), Orientation::Provider)]);
    }

    #[test]
    fn orientation_flip_round_trips() {
        for o in [
            Orientation::Provider,
            Orientation::Customer,
            Orientation::Peer,
            Orientation::Sibling,
        ] {
            assert_eq!(o.flipped().flipped(), o);
            assert_eq!(o.kind(), o.flipped().kind());
        }
    }

    #[test]
    fn get_self_is_none() {
        let mut m = RelationshipMap::new();
        m.insert_p2p(Asn(1), Asn(2));
        assert_eq!(m.get(Asn(1), Asn(1)), None);
    }
}
