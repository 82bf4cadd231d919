//! Compact policy graph.
//!
//! [`PolicyGraph`] compiles a [`GroundTruth`] into dense-index adjacency
//! vectors so the per-destination propagation (the hot loop of the whole
//! reproduction) touches flat memory only.

use asrank_types::prelude::*;
use std::collections::HashMap;

/// A compiled AS graph with relationship-typed adjacency lists.
///
/// All adjacency lists are sorted by neighbor ASN so iteration order is
/// stable. They live in one flat array, each node's neighbours in four
/// consecutive groups — customers, siblings, providers, peers — so the
/// neighbours each propagation stage exports to are one contiguous slice.
#[derive(Debug, Clone)]
pub struct PolicyGraph {
    interner: AsnInterner,
    /// Dense ids of every node's neighbours, grouped per node.
    adj: Vec<u32>,
    /// `offsets[4 * id + k]` starts group `k` (customers, siblings,
    /// providers, peers) of node `id` in `adj`; one final entry closes
    /// the last node.
    offsets: Vec<u32>,
    /// Map of p2p links that ride an IXP fabric → route-server ASN.
    ixp_links: HashMap<(u32, u32), Asn>,
}

impl PolicyGraph {
    /// Compile a ground-truth topology.
    pub fn new(gt: &GroundTruth) -> Self {
        Self::with_ixp_links(gt, &[])
    }

    /// Compile a topology, additionally tagging the given IXP route-server
    /// fabrics: `fabrics` maps each route server to its member list; any
    /// p2p link between two members is recorded as riding that fabric
    /// (used for route-server ASN insertion artifacts).
    pub fn with_ixp_links(gt: &GroundTruth, fabrics: &[(Asn, Vec<Asn>)]) -> Self {
        let mut interner = AsnInterner::new();
        // Intern in sorted ASN order so dense ids are reproducible.
        let mut ases: Vec<Asn> = gt.classes.keys().copied().collect();
        ases.sort();
        for &a in &ases {
            interner.intern(a);
        }
        // Links may mention ASes absent from `classes` (defensive).
        let mut link_ases: Vec<Asn> = gt.relationships.ases().collect();
        link_ases.sort();
        for a in link_ases {
            interner.intern(a);
        }

        let n = interner.len();
        let mut providers = vec![Vec::new(); n];
        let mut customers = vec![Vec::new(); n];
        let mut peers = vec![Vec::new(); n];
        let mut siblings = vec![Vec::new(); n];

        for (link, rel) in gt.relationships.iter() {
            let ia = interner.get(link.a).expect("interned");
            let ib = interner.get(link.b).expect("interned");
            match rel {
                LinkRel::AC2pB => {
                    // a is customer of b.
                    providers[ia as usize].push(ib);
                    customers[ib as usize].push(ia);
                }
                LinkRel::AP2cB => {
                    providers[ib as usize].push(ia);
                    customers[ia as usize].push(ib);
                }
                LinkRel::P2p => {
                    peers[ia as usize].push(ib);
                    peers[ib as usize].push(ia);
                }
                LinkRel::S2s => {
                    siblings[ia as usize].push(ib);
                    siblings[ib as usize].push(ia);
                }
            }
        }
        let by_asn = |interner: &AsnInterner, v: &mut Vec<u32>| {
            v.sort_by_key(|&i| interner.resolve(i));
        };
        for v in providers
            .iter_mut()
            .chain(&mut customers)
            .chain(&mut peers)
            .chain(&mut siblings)
        {
            by_asn(&interner, v);
        }

        let mut ixp_links = HashMap::new();
        for (rs, members) in fabrics {
            let ids: Vec<u32> = members.iter().filter_map(|m| interner.get(*m)).collect();
            for (i, &x) in ids.iter().enumerate() {
                for &y in &ids[i + 1..] {
                    let key = if x < y { (x, y) } else { (y, x) };
                    // Only tag pairs that actually peer.
                    if peers[x as usize].contains(&y) {
                        ixp_links.insert(key, *rs);
                    }
                }
            }
        }

        let mut adj = Vec::with_capacity(2 * gt.relationships.len());
        let mut offsets = Vec::with_capacity(4 * n + 1);
        let end =
            |adj: &[u32]| u32::try_from(adj.len()).expect("fewer than 2^32 adjacency entries");
        for v in 0..n {
            for group in [&customers[v], &siblings[v], &providers[v], &peers[v]] {
                offsets.push(end(&adj));
                adj.extend_from_slice(group);
            }
        }
        offsets.push(end(&adj));

        PolicyGraph {
            interner,
            adj,
            offsets,
            ixp_links,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Dense id of `asn`, if present.
    pub fn id(&self, asn: Asn) -> Option<u32> {
        self.interner.get(asn)
    }

    /// ASN behind dense id `id`.
    pub fn asn(&self, id: u32) -> Asn {
        self.interner.resolve(id)
    }

    /// Groups `from..to` of node `id`'s neighbours (0 customers,
    /// 1 siblings, 2 providers, 3 peers), as one slice.
    fn groups(&self, id: u32, from: usize, to: usize) -> &[u32] {
        let base = 4 * id as usize;
        &self.adj[self.offsets[base + from] as usize..self.offsets[base + to] as usize]
    }

    /// Providers of node `id`.
    pub fn providers(&self, id: u32) -> &[u32] {
        self.groups(id, 2, 3)
    }

    /// Customers of node `id`.
    pub fn customers(&self, id: u32) -> &[u32] {
        self.groups(id, 0, 1)
    }

    /// Peers of node `id`.
    pub fn peers(&self, id: u32) -> &[u32] {
        self.groups(id, 3, 4)
    }

    /// Siblings of node `id`.
    pub fn siblings(&self, id: u32) -> &[u32] {
        self.groups(id, 1, 2)
    }

    /// Where `id` exports a customer route: its siblings, then its
    /// providers.
    pub fn up_neighbors(&self, id: u32) -> &[u32] {
        self.groups(id, 1, 3)
    }

    /// Where `id` exports any route: its customers, then its siblings.
    pub fn down_neighbors(&self, id: u32) -> &[u32] {
        self.groups(id, 0, 2)
    }

    /// Where a route leaker re-exports a peer or provider route: its
    /// providers, then its peers.
    pub fn leak_neighbors(&self, id: u32) -> &[u32] {
        self.groups(id, 2, 4)
    }

    /// The route server whose fabric carries the `x`–`y` peering, if any.
    pub fn ixp_route_server(&self, x: u32, y: u32) -> Option<Asn> {
        let key = if x < y { (x, y) } else { (y, x) };
        self.ixp_links.get(&key).copied()
    }

    /// Iterate over all dense ids.
    pub fn ids(&self) -> impl Iterator<Item = u32> {
        0..self.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_gt() -> GroundTruth {
        let mut gt = GroundTruth::default();
        gt.relationships.insert_p2p(Asn(1), Asn(2));
        gt.relationships.insert_c2p(Asn(10), Asn(1));
        gt.relationships.insert_c2p(Asn(20), Asn(2));
        gt.relationships.insert_s2s(Asn(10), Asn(20));
        for a in [1, 2, 10, 20] {
            gt.classes.insert(Asn(a), AsClass::Stub);
        }
        gt
    }

    #[test]
    fn adjacency_compiles_correctly() {
        let gt = tiny_gt();
        let g = PolicyGraph::new(&gt);
        assert_eq!(g.len(), 4);
        let id = |a: u32| g.id(Asn(a)).unwrap();
        assert_eq!(g.providers(id(10)), &[id(1)]);
        assert_eq!(g.customers(id(1)), &[id(10)]);
        assert_eq!(g.peers(id(1)), &[id(2)]);
        assert_eq!(g.siblings(id(10)), &[id(20)]);
        assert!(g.providers(id(1)).is_empty());
    }

    #[test]
    fn ixp_tagging_only_marks_peering_members() {
        let gt = tiny_gt();
        let fabrics = vec![(Asn(900), vec![Asn(1), Asn(2), Asn(10)])];
        let g = PolicyGraph::with_ixp_links(&gt, &fabrics);
        let id = |a: u32| g.id(Asn(a)).unwrap();
        // 1-2 peer and are both members → tagged.
        assert_eq!(g.ixp_route_server(id(1), id(2)), Some(Asn(900)));
        assert_eq!(g.ixp_route_server(id(2), id(1)), Some(Asn(900)));
        // 1-10 is c2p, not peering → untagged even though both are members.
        assert_eq!(g.ixp_route_server(id(1), id(10)), None);
    }

    #[test]
    fn dense_ids_follow_sorted_asns() {
        let gt = tiny_gt();
        let g = PolicyGraph::new(&gt);
        // Sorted ASNs: 1, 2, 10, 20 → ids 0..4.
        assert_eq!(g.asn(0), Asn(1));
        assert_eq!(g.asn(3), Asn(20));
    }
}
