//! Single-destination route propagation under Gao-Rexford policy.
//!
//! [`compute_route_tree`] runs the classic three-stage breadth-first
//! computation that is exact for valley-free routing over an acyclic
//! transit hierarchy:
//!
//! 1. **Customer stage** — the destination's announcement climbs
//!    customer→provider (and sibling) edges; every AS reached holds a
//!    *customer route*, the most preferred class.
//! 2. **Peer stage** — every customer-route holder announces across each
//!    of its peering edges exactly once; ASes without a customer route
//!    adopt the best *peer route* offered.
//! 3. **Provider stage** — every route holder announces down
//!    provider→customer (and sibling) edges; routeless ASes adopt
//!    *provider routes*, which keep descending.
//!
//! Ties are broken deterministically but *diversely*: shorter AS path
//! first, then a per-(chooser, destination) hash over the candidate
//! next hops, then the candidate's dense id. A global tie-break (e.g.
//! lowest ASN) would synchronize every AS onto the same entry point into
//! a multihomed customer, hiding backup provider links from every
//! vantage point — real BGP tie-breaks (IGP distance, router ids) vary
//! per router, and that diversity is what lets collectors observe both
//! links of a multihomed pair. Route
//! leaks are modeled in stage 3: a *leaker* also re-exports its
//! provider-learned route to its providers and peers (one level of leak,
//! enough to create the valley paths the paper's sanitization
//! confronts).
//!
//! Each stage picks, for every AS, the contender minimizing
//! `(hash, id)` among those offering the same class at the same length.
//! That minimum does not depend on the order in which contenders arrive,
//! so BFS frontiers and Dial buckets are drained in arrival order, with
//! no sort. (The hash is a bijection of the candidate's ASN for a fixed
//! chooser and destination, so the id decides nothing today; it keeps
//! the order-independence from resting on that property of the mixer.)

use crate::graph::PolicyGraph;
use crate::hash;

/// Preference class of a selected route, most preferred first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PrefClass {
    /// The destination itself.
    Origin,
    /// Learned from a customer (or via sibling chains from one).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

/// A selected route at one AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Preference class under which the route was accepted.
    pub pref: PrefClass,
    /// AS-path length in hops to the destination.
    pub hops: u16,
    /// Dense id of the neighbor the route was learned from
    /// (self for the origin).
    pub parent: u32,
}

/// The result of propagating one destination: every AS's selected route.
#[derive(Debug, Clone)]
pub struct RouteTree {
    dest: u32,
    routes: Vec<Option<Route>>,
}

impl RouteTree {
    /// Dense id of the destination AS.
    pub fn dest(&self) -> u32 {
        self.dest
    }

    /// The route selected at `node`, if it has any.
    pub fn route(&self, node: u32) -> Option<Route> {
        self.routes[node as usize]
    }

    /// Fraction of ASes holding a route to the destination.
    pub fn reachability(&self) -> f64 {
        let reached = self.routes.iter().filter(|r| r.is_some()).count();
        reached as f64 / self.routes.len().max(1) as f64
    }

    /// The AS-level path from `node` to the destination as dense ids
    /// (`node` first, destination last), or `None` if `node` is routeless.
    pub fn path(&self, node: u32) -> Option<Vec<u32>> {
        let mut out = Vec::with_capacity(8);
        let mut cur = node;
        let mut guard = 0usize;
        loop {
            out.push(cur);
            if cur == self.dest {
                return Some(out);
            }
            let r = self.routes[cur as usize]?;
            cur = r.parent;
            guard += 1;
            if guard > self.routes.len() {
                // Defensive: a parent cycle would indicate a propagation
                // bug; fail closed rather than loop forever.
                return None;
            }
        }
    }
}

/// Reusable scratch buffers for route propagation.
///
/// [`compute_route_tree`] needs an offer table, Dial buckets, and BFS
/// frontiers, all sized by the graph — at 400k ASes that is hundreds of
/// thousands of `Vec`s allocated and dropped *per destination*. A
/// workspace amortizes them across destinations: each caller thread
/// holds one and passes it to [`compute_route_tree_with`]. Buffers are
/// cleared (capacity retained) between destinations, so results are
/// identical to the allocate-fresh path.
#[derive(Debug, Default)]
pub struct PropagationWorkspace {
    offers: Vec<Option<Route>>,
    buckets: Vec<Vec<u32>>,
    /// Highest bucket index touched this destination — only `0..=hi`
    /// needs clearing afterwards (bucket indices are hop counts, so in
    /// practice a dozen out of `n + 2`).
    hi_bucket: usize,
    scratch: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl PropagationWorkspace {
    /// A workspace; buffers grow lazily to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size buffers for a graph of `n` nodes and reset per-destination
    /// state. Buckets touched by the previous destination are cleared
    /// here — including entries parked in an already-drained bucket by
    /// the saturated `nh == h` hop-cap case, which must not leak into
    /// the next destination's propagation.
    fn reset(&mut self, n: usize, max_bucket: usize) {
        if self.offers.len() < n {
            self.offers.resize(n, None);
        }
        self.offers[..n].fill(None);
        if self.buckets.len() < max_bucket {
            self.buckets.resize_with(max_bucket, Vec::new);
        }
        for b in &mut self.buckets[..=self.hi_bucket] {
            b.clear();
        }
        self.hi_bucket = 0;
        self.scratch.clear();
        self.frontier.clear();
        self.next.clear();
    }
}

/// Compute the route tree for `dest`.
///
/// `leakers`, when provided, marks ASes (by dense id) that violate export
/// policy for this destination by re-announcing provider/peer routes
/// upward and sideways.
///
/// Allocates fresh scratch buffers; loops over many destinations should
/// hold a [`PropagationWorkspace`] and call [`compute_route_tree_with`].
pub fn compute_route_tree(g: &PolicyGraph, dest: u32, leakers: Option<&[bool]>) -> RouteTree {
    compute_route_tree_with(g, dest, leakers, &mut PropagationWorkspace::new())
}

/// [`compute_route_tree`] with caller-provided scratch buffers; produces
/// bit-identical trees for any workspace state.
pub fn compute_route_tree_with(
    g: &PolicyGraph,
    dest: u32,
    leakers: Option<&[bool]>,
    ws: &mut PropagationWorkspace,
) -> RouteTree {
    let n = g.len();
    let max_bucket = (n + 2).max(64);
    ws.reset(n, max_bucket);
    let mut routes: Vec<Option<Route>> = vec![None; n];
    routes[dest as usize] = Some(Route {
        pref: PrefClass::Origin,
        hops: 0,
        parent: dest,
    });

    // Per-(chooser, dest) tie-break: diverse but deterministic, and a
    // total order over candidates, so the winner among same-length
    // contenders is independent of the order they are compared in.
    let dest_asn = g.asn(dest).0 as u64;
    let tiekey = |chooser: u32, candidate: u32| -> (u64, u32) {
        let h = hash::mix(
            0x7135_b4ea,
            &[g.asn(chooser).0 as u64, g.asn(candidate).0 as u64, dest_asn],
        );
        (h, candidate)
    };

    // --- Stage 1: customer routes climb provider / sibling edges. ---
    // Level-synchronous BFS; candidates reached at the same level pick
    // the parent minimizing their tie-break key. A node joins `next`
    // only when it first gets a route, so each frontier holds distinct
    // nodes, drained in arrival order.
    let mut frontier = std::mem::take(&mut ws.frontier);
    let mut next = std::mem::take(&mut ws.next);
    frontier.push(dest);
    let mut hops: u16 = 0;
    while !frontier.is_empty() {
        hops += 1;
        next.clear();
        for &u in &frontier {
            for &v in g.up_neighbors(u) {
                match routes[v as usize] {
                    None => {
                        routes[v as usize] = Some(Route {
                            pref: PrefClass::Customer,
                            hops,
                            parent: u,
                        });
                        next.push(v);
                    }
                    // Same-level contender: keep the hash-preferred parent.
                    Some(r) if r.hops == hops && r.pref == PrefClass::Customer => {
                        if tiekey(v, u) < tiekey(v, r.parent) {
                            routes[v as usize] = Some(Route {
                                pref: PrefClass::Customer,
                                hops,
                                parent: u,
                            });
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    ws.frontier = frontier;
    ws.next = next;

    // --- Stage 2: one hop across peering edges. ---
    // Offers are collected first so every peer sees the same pre-stage
    // state (simultaneous announcement), then the best offer wins.
    let offers = &mut ws.offers;
    for u in 0..n as u32 {
        let Some(r) = routes[u as usize] else {
            continue;
        };
        if r.pref > PrefClass::Customer {
            continue; // only customer routes (and the origin) cross peering
        }
        for &v in g.peers(u) {
            if routes[v as usize].is_some() {
                continue; // customer route already preferred
            }
            let cand = Route {
                pref: PrefClass::Peer,
                hops: r.hops + 1,
                parent: u,
            };
            let better = match offers[v as usize] {
                None => true,
                Some(prev) => {
                    (cand.hops, tiekey(v, cand.parent)) < (prev.hops, tiekey(v, prev.parent))
                }
            };
            if better {
                offers[v as usize] = Some(cand);
            }
        }
    }
    for v in 0..n {
        if routes[v].is_none() {
            routes[v] = offers[v];
        }
    }

    // --- Stage 3: provider routes descend customer / sibling edges. ---
    // Multi-source shortest-path with unit weights (Dial buckets): every
    // current route holder is a source at its own hop count. A node is
    // pushed once, when it first holds a route, and its hop count never
    // changes after, so a bucket holds distinct, current entries; it is
    // drained in arrival order.
    let PropagationWorkspace {
        buckets,
        scratch,
        hi_bucket,
        ..
    } = ws;
    let mut hi = 0usize;
    for u in 0..n as u32 {
        if let Some(r) = routes[u as usize] {
            let h = (r.hops as usize).min(max_bucket - 1);
            buckets[h].push(u);
            hi = hi.max(h);
        }
    }
    for h in 0..max_bucket {
        if buckets[h].is_empty() {
            continue;
        }
        // Drain via the scratch buffer (same semantics as taking the
        // bucket, but both capacities survive for the next destination).
        scratch.clear();
        scratch.append(&mut buckets[h]);
        hi = hi.max((h + 1).min(max_bucket - 1));
        for i in 0..scratch.len() {
            let u = scratch[i];
            let Some(r) = routes[u as usize] else {
                continue;
            };
            if (r.hops as usize) != h {
                continue; // only past the clamped last bucket
            }
            let nh = (h + 1).min(max_bucket - 1);
            let announce =
                |v: u32, routes: &mut Vec<Option<Route>>, buckets: &mut Vec<Vec<u32>>| {
                    match routes[v as usize] {
                        None => {
                            routes[v as usize] = Some(Route {
                                pref: PrefClass::Provider,
                                hops: (h + 1) as u16,
                                parent: u,
                            });
                            buckets[nh].push(v);
                        }
                        // Same-length contender from an equal-level source:
                        // keep the hash-preferred parent (still hops h+1).
                        Some(rv)
                            if rv.pref == PrefClass::Provider
                                && rv.hops as usize == h + 1
                                && tiekey(v, u) < tiekey(v, rv.parent) =>
                        {
                            routes[v as usize] = Some(Route {
                                pref: PrefClass::Provider,
                                hops: (h + 1) as u16,
                                parent: u,
                            });
                        }
                        Some(_) => {}
                    }
                };
            for &v in g.down_neighbors(u) {
                announce(v, &mut routes, buckets);
            }
            // Route leak: this AS also re-exports upward/sideways. The
            // recipients then continue ordinary downward propagation,
            // which yields the classic provider→leaker→provider valley.
            let leaking =
                leakers.map(|l| l[u as usize]).unwrap_or(false) && r.pref >= PrefClass::Peer;
            if leaking {
                for &v in g.leak_neighbors(u) {
                    announce(v, &mut routes, buckets);
                }
            }
        }
    }
    *hi_bucket = hi;

    RouteTree { dest, routes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::prelude::*;

    /// Build:
    /// ```text
    ///        1 ===p2p=== 2
    ///        |           |
    ///       10          20
    ///        |           |
    ///       100         200
    /// ```
    fn diamond() -> (PolicyGraph, impl Fn(u32) -> u32) {
        let mut gt = GroundTruth::default();
        gt.relationships.insert_p2p(Asn(1), Asn(2));
        gt.relationships.insert_c2p(Asn(10), Asn(1));
        gt.relationships.insert_c2p(Asn(20), Asn(2));
        gt.relationships.insert_c2p(Asn(100), Asn(10));
        gt.relationships.insert_c2p(Asn(200), Asn(20));
        for a in [1, 2, 10, 20, 100, 200] {
            gt.classes.insert(Asn(a), AsClass::Stub);
        }
        let g = PolicyGraph::new(&gt);
        let ids: std::collections::HashMap<u32, u32> = [1u32, 2, 10, 20, 100, 200]
            .into_iter()
            .map(|a| (a, g.id(Asn(a)).unwrap()))
            .collect();
        (g, move |a: u32| ids[&a])
    }

    #[test]
    fn everyone_reaches_a_stub_origin() {
        let (g, id) = diamond();
        let t = compute_route_tree(&g, id(100), None);
        assert!((t.reachability() - 1.0).abs() < 1e-9);
        // Path from 200: 200 → 20 → 2 → 1 → 10 → 100.
        let p: Vec<Asn> = t.path(id(200)).unwrap().iter().map(|&i| g.asn(i)).collect();
        assert_eq!(
            p,
            vec![Asn(200), Asn(20), Asn(2), Asn(1), Asn(10), Asn(100)]
        );
    }

    #[test]
    fn preference_classes_are_correct() {
        let (g, id) = diamond();
        let t = compute_route_tree(&g, id(100), None);
        assert_eq!(t.route(id(100)).unwrap().pref, PrefClass::Origin);
        assert_eq!(t.route(id(10)).unwrap().pref, PrefClass::Customer);
        assert_eq!(t.route(id(1)).unwrap().pref, PrefClass::Customer);
        assert_eq!(t.route(id(2)).unwrap().pref, PrefClass::Peer);
        assert_eq!(t.route(id(20)).unwrap().pref, PrefClass::Provider);
        assert_eq!(t.route(id(200)).unwrap().pref, PrefClass::Provider);
    }

    #[test]
    fn customer_route_preferred_over_shorter_peer_route() {
        // 30 is customer of both 1 and 2; origin multihomes so 2 hears the
        // route from its customer 30 even though the peering with 1 is
        // also available.
        let mut gt = GroundTruth::default();
        gt.relationships.insert_p2p(Asn(1), Asn(2));
        gt.relationships.insert_c2p(Asn(30), Asn(1));
        gt.relationships.insert_c2p(Asn(30), Asn(2));
        for a in [1, 2, 30] {
            gt.classes.insert(Asn(a), AsClass::Stub);
        }
        let g = PolicyGraph::new(&gt);
        let t = compute_route_tree(&g, g.id(Asn(30)).unwrap(), None);
        let r2 = t.route(g.id(Asn(2)).unwrap()).unwrap();
        assert_eq!(r2.pref, PrefClass::Customer);
        assert_eq!(g.asn(r2.parent), Asn(30));
    }

    #[test]
    fn ties_break_deterministically_and_diversely() {
        // Origin 100 has two providers 5 and 9; their common provider 1
        // hears two equal-length customer routes. The winner must be one
        // of the two, identical across runs — and across many (chooser,
        // destination) pairs the hash must pick each side sometimes.
        let mut gt = GroundTruth::default();
        gt.relationships.insert_c2p(Asn(100), Asn(5));
        gt.relationships.insert_c2p(Asn(100), Asn(9));
        gt.relationships.insert_c2p(Asn(5), Asn(1));
        gt.relationships.insert_c2p(Asn(9), Asn(1));
        for a in [1, 5, 9, 100] {
            gt.classes.insert(Asn(a), AsClass::Stub);
        }
        let g = PolicyGraph::new(&gt);
        let dest = g.id(Asn(100)).unwrap();
        let a = compute_route_tree(&g, dest, None);
        let b = compute_route_tree(&g, dest, None);
        let ra = a.route(g.id(Asn(1)).unwrap()).unwrap();
        let rb = b.route(g.id(Asn(1)).unwrap()).unwrap();
        assert_eq!(ra, rb, "tie-break must be deterministic");
        assert!(matches!(g.asn(ra.parent), Asn(5) | Asn(9)));
    }

    #[test]
    fn tie_breaks_are_diverse_across_destinations() {
        // Many stubs multihomed to providers 5 and 9 sharing grandparent
        // 1: across destinations, 1 must sometimes route via 5 and
        // sometimes via 9 — diversity is what exposes backup links.
        let mut gt = GroundTruth::default();
        gt.relationships.insert_c2p(Asn(5), Asn(1));
        gt.relationships.insert_c2p(Asn(9), Asn(1));
        gt.classes.insert(Asn(1), AsClass::Tier1);
        gt.classes.insert(Asn(5), AsClass::MidTransit);
        gt.classes.insert(Asn(9), AsClass::MidTransit);
        for i in 0..40u32 {
            let s = Asn(100 + i);
            gt.relationships.insert_c2p(s, Asn(5));
            gt.relationships.insert_c2p(s, Asn(9));
            gt.classes.insert(s, AsClass::Stub);
        }
        let g = PolicyGraph::new(&gt);
        let mut via5 = 0;
        let mut via9 = 0;
        for i in 0..40u32 {
            let dest = g.id(Asn(100 + i)).unwrap();
            let t = compute_route_tree(&g, dest, None);
            let r = t.route(g.id(Asn(1)).unwrap()).unwrap();
            match g.asn(r.parent) {
                Asn(5) => via5 += 1,
                Asn(9) => via9 += 1,
                other => panic!("unexpected parent {other}"),
            }
        }
        assert!(
            via5 > 5 && via9 > 5,
            "no diversity: via5={via5} via9={via9}"
        );
    }

    #[test]
    fn workspace_reuse_matches_fresh_computation() {
        // One workspace carried across destinations (including a leaky
        // one) must reproduce the allocate-fresh trees exactly — stale
        // bucket or offer state would surface as a diverging route.
        let (g, id) = diamond();
        let mut leakers = vec![false; g.len()];
        leakers[id(20) as usize] = true;
        let mut ws = PropagationWorkspace::new();
        for round in 0..2 {
            for dest in [100u32, 200, 10, 20, 1, 2] {
                let leak = if dest == 100 { Some(&leakers[..]) } else { None };
                let fresh = compute_route_tree(&g, id(dest), leak);
                let reused = compute_route_tree_with(&g, id(dest), leak, &mut ws);
                for node in g.ids() {
                    assert_eq!(
                        fresh.route(node),
                        reused.route(node),
                        "round {round} dest {dest} node {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_valley_without_leaks() {
        // 200's route must NOT go 200 → 20 → 2 (provider) and then climb;
        // verify every path is valley-free: once it descends it never
        // ascends. We check pref monotonicity along the path.
        let (g, id) = diamond();
        for dest in [100u32, 200, 10, 20, 1, 2] {
            let t = compute_route_tree(&g, id(dest), None);
            for node in g.ids() {
                if let Some(path) = t.path(node) {
                    // Walking VP→origin, the *reverse* path climbs
                    // customer→provider first; equivalently, pref classes
                    // along the forward walk never improve after worsening.
                    let prefs: Vec<PrefClass> =
                        path.iter().map(|&x| t.route(x).unwrap().pref).collect();
                    for w in prefs.windows(2) {
                        assert!(
                            w[0] >= w[1],
                            "dest {dest} node {node}: pref climbs in {prefs:?}"
                        );
                        assert!(
                            !(w[0] == PrefClass::Peer && w[1] == PrefClass::Peer),
                            "dest {dest} node {node}: two peer hops in {prefs:?}"
                        );
                    }
                    assert_eq!(
                        prefs.last(),
                        Some(&PrefClass::Origin),
                        "dest {dest} node {node}"
                    );
                    let hops: Vec<u16> = path.iter().map(|&x| t.route(x).unwrap().hops).collect();
                    for w in hops.windows(2) {
                        assert_eq!(w[0], w[1] + 1, "hop counts must chain");
                    }
                }
            }
        }
    }

    #[test]
    fn leak_creates_valley() {
        // 20 leaks its provider route for dest 100 to its peer 21 — without
        // the leak, 21 (peer of 20, no providers, not connected otherwise)
        // would be unreachable.
        let mut gt = GroundTruth::default();
        gt.relationships.insert_c2p(Asn(100), Asn(10));
        gt.relationships.insert_c2p(Asn(10), Asn(1));
        gt.relationships.insert_c2p(Asn(20), Asn(1));
        gt.relationships.insert_p2p(Asn(20), Asn(21));
        for a in [1, 10, 20, 21, 100] {
            gt.classes.insert(Asn(a), AsClass::Stub);
        }
        let g = PolicyGraph::new(&gt);
        let dest = g.id(Asn(100)).unwrap();

        let clean = compute_route_tree(&g, dest, None);
        assert!(clean.route(g.id(Asn(21)).unwrap()).is_none());

        let mut leakers = vec![false; g.len()];
        leakers[g.id(Asn(20)).unwrap() as usize] = true;
        let leaked = compute_route_tree(&g, dest, Some(&leakers));
        let r21 = leaked.route(g.id(Asn(21)).unwrap()).unwrap();
        assert_eq!(g.asn(r21.parent), Asn(20));
        let p: Vec<Asn> = leaked
            .path(g.id(Asn(21)).unwrap())
            .unwrap()
            .iter()
            .map(|&i| g.asn(i))
            .collect();
        assert_eq!(p, vec![Asn(21), Asn(20), Asn(1), Asn(10), Asn(100)]);
    }

    #[test]
    fn unreachable_island_has_no_route() {
        let mut gt = GroundTruth::default();
        gt.relationships.insert_c2p(Asn(100), Asn(10));
        gt.relationships.insert_p2p(Asn(50), Asn(51)); // disconnected island
        for a in [10, 100, 50, 51] {
            gt.classes.insert(Asn(a), AsClass::Stub);
        }
        let g = PolicyGraph::new(&gt);
        let t = compute_route_tree(&g, g.id(Asn(100)).unwrap(), None);
        assert!(t.route(g.id(Asn(50)).unwrap()).is_none());
        assert!(t.path(g.id(Asn(51)).unwrap()).is_none());
        assert!(t.reachability() < 1.0);
    }

    #[test]
    fn sibling_edges_carry_routes_both_ways() {
        // 10 and 11 are siblings; 11 has no other links. Routes must flow
        // through the sibling edge in both directions.
        let mut gt = GroundTruth::default();
        gt.relationships.insert_c2p(Asn(100), Asn(10));
        gt.relationships.insert_s2s(Asn(10), Asn(11));
        for a in [10, 11, 100] {
            gt.classes.insert(Asn(a), AsClass::Stub);
        }
        let g = PolicyGraph::new(&gt);
        // Dest behind the sibling: 11 reaches 100.
        let t = compute_route_tree(&g, g.id(Asn(100)).unwrap(), None);
        assert!(t.route(g.id(Asn(11)).unwrap()).is_some());
        // Dest is the sibling itself: 100 reaches 11.
        let t2 = compute_route_tree(&g, g.id(Asn(11)).unwrap(), None);
        assert!(t2.route(g.id(Asn(100)).unwrap()).is_some());
    }
}
