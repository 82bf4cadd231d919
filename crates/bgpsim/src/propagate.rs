//! Single-destination route propagation under Gao-Rexford policy,
//! computed only where a set of target ASes can read it.
//!
//! [`propagate`] runs the classic three-stage computation that is exact
//! for valley-free routing over an acyclic transit hierarchy:
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
//! peer- or provider-learned route to its providers and peers (the
//! valley model of Giotsas & Zhou, enough to create the valley paths the
//! paper's sanitization confronts).
//!
//! Each stage picks, for every AS, the contender minimizing
//! `(hash, id)` among those offering the same class at the same length.
//! That minimum does not depend on the order in which contenders arrive,
//! so BFS frontiers and Dial buckets are drained in arrival order, with
//! no sort. (The hash is a bijection of the candidate's ASN for a fixed
//! chooser and destination, so the id decides nothing today; it keeps
//! the order-independence from resting on that property of the mixer.)
//!
//! **Demand-driven.** A vantage point's path reads only the routes on
//! its parent chain, so stages 2 and 3 run only over the *closure* of
//! the [`Targets`]. In stage 3 the neighbours that announce to an AS `v`
//! are its providers and siblings, plus those of its customers and peers
//! that leak a peer or provider route. So the closure is:
//!
//! - the targets and, transitively, their providers and siblings — fixed
//!   per target set, computed once by [`Targets::new`]; plus
//! - per destination, every customer or peer of a closure AS that drew a
//!   leak and holds no customer route, joined with its own providers and
//!   siblings, and so on until nothing new joins.
//!
//! Every announcer of a closure AS is then itself in the closure, so the
//! Dial drain restricted to it reaches every closure AS at the full
//! tree's hop count with the full tree's parent. The fixed part's
//! announcements inside itself are precomputed, so the drain does not
//! walk the thousands of stub customers of a tier-1 target. Stage 1
//! stays a full BFS up from the destination (it is cheap, and a peer
//! route's parent holds a customer route from it). Leak bits are asked
//! for only on the closure's *fringe* (its customers and peers), on ASes
//! that later join, and on closure ASes holding a peer or provider
//! route. With every AS a target, the closure is the whole graph: the
//! full route tree.

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

/// The ASes whose routes [`propagate`] must compute for a set of
/// targets, independent of the destination: the targets closed over
/// providers and siblings, the announcements that stay inside that
/// closure, and the fringe of customers and peers whose leaks could
/// reach it.
#[derive(Debug, Clone)]
pub struct Targets {
    /// The targets and, transitively, their providers and siblings.
    closure: Vec<u32>,
    /// `slot[v]`: `v`'s index in `closure`, or [`OUTSIDE`].
    slot: Vec<u32>,
    /// Per closure AS, in `closure` order, the closure ASes among its
    /// down neighbours, then among its leak neighbours.
    inner: Vec<u32>,
    /// `inner[inner_at[2k]..inner_at[2k + 1]]` holds closure AS `k`'s
    /// down group, and `..inner_at[2k + 2]` its leak group.
    inner_at: Vec<u32>,
    /// Customers and peers of closure ASes that are not in it, by id.
    fringe: Vec<u32>,
}

/// [`Targets::slot`] of an AS outside the closure.
const OUTSIDE: u32 = u32::MAX;

impl Targets {
    /// The closure and fringe of `targets` (dense ids) in `g`.
    pub fn new(g: &PolicyGraph, targets: impl IntoIterator<Item = u32>) -> Self {
        let mut slot = vec![OUTSIDE; g.len()];
        let mut closure = Vec::new();
        let add = |v: u32, slot: &mut Vec<u32>, closure: &mut Vec<u32>| {
            if slot[v as usize] == OUTSIDE {
                slot[v as usize] = closure.len() as u32;
                closure.push(v);
            }
        };
        for t in targets {
            add(t, &mut slot, &mut closure);
        }
        let mut i = 0;
        while let Some(&u) = closure.get(i) {
            for &v in g.up_neighbors(u) {
                add(v, &mut slot, &mut closure);
            }
            i += 1;
        }
        let inside = |v: &&u32| slot[**v as usize] != OUTSIDE;
        let mut inner = Vec::new();
        let mut inner_at = vec![0];
        for &u in &closure {
            for group in [g.down_neighbors(u), g.leak_neighbors(u)] {
                inner.extend(group.iter().filter(inside));
                inner_at.push(u32::try_from(inner.len()).expect("fewer than 2^32 edges"));
            }
        }
        let mut fringe: Vec<u32> = closure
            .iter()
            .flat_map(|&u| g.customers(u).iter().chain(g.peers(u)))
            .filter(|v| !inside(v))
            .copied()
            .collect();
        fringe.sort_unstable();
        fringe.dedup();
        Targets {
            closure,
            slot,
            inner,
            inner_at,
            fringe,
        }
    }

    /// True when `v` is in the destination-independent closure.
    fn contains(&self, v: u32) -> bool {
        self.slot[v as usize] != OUTSIDE
    }

    /// The closure ASes that closure AS `u` announces any route to
    /// (`leak = false`) or leaks a peer or provider route to (`true`).
    fn inner(&self, u: u32, leak: bool) -> &[u32] {
        let k = 2 * self.slot[u as usize] as usize + usize::from(leak);
        &self.inner[self.inner_at[k] as usize..self.inner_at[k + 1] as usize]
    }
}

/// The routes [`propagate`] computed for one destination, borrowed from
/// its workspace.
///
/// Exact for every target and every AS on a target's path. Other ASes
/// may read `None` although the full tree would route them.
#[derive(Debug, Clone, Copy)]
pub struct RouteTree<'w> {
    dest: u32,
    routes: &'w [Option<Route>],
}

impl RouteTree<'_> {
    /// Dense id of the destination AS.
    pub fn dest(&self) -> u32 {
        self.dest
    }

    /// The route selected at `node`, if it has any.
    pub fn route(&self, node: u32) -> Option<Route> {
        self.routes[node as usize]
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

/// Reusable state for route propagation: the route table, the closure
/// ASes joined for one destination, Dial buckets and BFS frontiers.
///
/// Each caller thread holds one and passes it to every [`propagate`].
/// Per-destination state is reset through the lists of what it touched
/// (`routed`, `joined`), so a destination costs what it reaches, not the
/// graph's size; results are identical for any workspace state.
#[derive(Debug, Default)]
pub struct PropagationWorkspace {
    /// Every AS's route to the current destination; `None` outside
    /// `routed`.
    routes: Vec<Option<Route>>,
    /// The ASes holding a route, in the order they got it.
    routed: Vec<u32>,
    /// ASes joined to the closure for the current destination.
    joined: Vec<u32>,
    /// `is_joined[v]`: `v` is in `joined`.
    is_joined: Vec<bool>,
    /// Announcements from the fixed closure to joined ASes: (sender,
    /// receiver, by a leak), sorted.
    into_joined: Vec<(u32, u32, bool)>,
    /// Dial buckets by hop count; every one is drained empty.
    buckets: Vec<Vec<u32>>,
    drain: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl PropagationWorkspace {
    /// A workspace; buffers grow lazily to the graph size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the tables for a graph of `n` nodes and undo the previous
    /// destination's routes and joins.
    fn reset(&mut self, n: usize) {
        for &v in &self.routed {
            self.routes[v as usize] = None;
        }
        self.routed.clear();
        for &v in &self.joined {
            self.is_joined[v as usize] = false;
        }
        self.joined.clear();
        if self.routes.len() < n {
            self.routes.resize(n, None);
            self.is_joined.resize(n, false);
        }
    }
}

/// Compute the routes toward `dest` that `targets` read.
///
/// `leaks(v)` says whether AS `v` (a dense id) violates export policy
/// for this destination by re-announcing peer and provider routes to its
/// providers and peers. It is asked only about ASes whose leak can reach
/// the closure, so a caller can draw leak bits lazily.
pub fn propagate<'w>(
    g: &PolicyGraph,
    dest: u32,
    targets: &Targets,
    leaks: impl Fn(u32) -> bool,
    ws: &'w mut PropagationWorkspace,
) -> RouteTree<'w> {
    let n = g.len();
    debug_assert_eq!(targets.slot.len(), n, "targets of another graph");
    ws.reset(n);
    let PropagationWorkspace {
        routes,
        routed,
        joined,
        is_joined,
        into_joined,
        buckets,
        drain,
        frontier,
        next,
    } = ws;
    routes[dest as usize] = Some(Route {
        pref: PrefClass::Origin,
        hops: 0,
        parent: dest,
    });
    routed.push(dest);

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
    frontier.clear();
    frontier.push(dest);
    let mut hops: u16 = 0;
    while !frontier.is_empty() {
        hops += 1;
        next.clear();
        for &u in frontier.iter() {
            for &v in g.up_neighbors(u) {
                match &mut routes[v as usize] {
                    slot @ None => {
                        *slot = Some(Route {
                            pref: PrefClass::Customer,
                            hops,
                            parent: u,
                        });
                        routed.push(v);
                        next.push(v);
                    }
                    // Same-level contender: keep the hash-preferred parent.
                    Some(r) if r.hops == hops && r.pref == PrefClass::Customer => {
                        if tiekey(v, u) < tiekey(v, r.parent) {
                            r.parent = u;
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        std::mem::swap(frontier, next);
    }

    // --- Closure: join the leakers that can announce into it. ---
    // An AS with a customer route (or the origin) never leaks; any other
    // customer or peer of the closure may yet get a peer or provider
    // route and leak it. A joined AS brings its providers and siblings,
    // and its own customers and peers are scanned in turn.
    let outside = |v: u32, is_joined: &[bool]| !targets.contains(v) && !is_joined[v as usize];
    for &f in &targets.fringe {
        if routes[f as usize].is_none() && leaks(f) {
            is_joined[f as usize] = true;
            joined.push(f);
        }
    }
    let mut i = 0;
    while let Some(&x) = joined.get(i) {
        for &p in g.up_neighbors(x) {
            if outside(p, is_joined) {
                is_joined[p as usize] = true;
                joined.push(p);
            }
        }
        for &y in g.customers(x).iter().chain(g.peers(x)) {
            if outside(y, is_joined) && routes[y as usize].is_none() && leaks(y) {
                is_joined[y as usize] = true;
                joined.push(y);
            }
        }
        i += 1;
    }
    let closure = || targets.closure.iter().chain(joined.iter()).copied();

    // --- Stage 2: one hop across peering edges. ---
    // Each closure AS without a customer route pulls the best offer from
    // its peers holding customer routes. Peer routes set here are never
    // offers (only customer routes cross peering), so every AS sees the
    // pre-stage state (simultaneous announcement).
    for v in closure() {
        if routes[v as usize].is_some() {
            continue; // customer route already preferred
        }
        let mut best: Option<Route> = None;
        for &u in g.peers(v) {
            let Some(r) = routes[u as usize] else {
                continue;
            };
            if r.pref > PrefClass::Customer {
                continue; // only customer routes (and the origin) cross peering
            }
            let better = best.is_none_or(|prev| {
                (r.hops + 1, tiekey(v, u)) < (prev.hops, tiekey(v, prev.parent))
            });
            if better {
                best = Some(Route {
                    pref: PrefClass::Peer,
                    hops: r.hops + 1,
                    parent: u,
                });
            }
        }
        if best.is_some() {
            routes[v as usize] = best;
            routed.push(v);
        }
    }

    // --- Stage 3: provider routes descend customer / sibling edges. ---
    // Multi-source shortest-path with unit weights (Dial buckets) over
    // the closure: every closure AS holding a route is a source at its
    // own hop count. A node is pushed once, when it first holds a route,
    // and its hop count never changes after, so a bucket holds distinct,
    // current entries; it is drained in arrival order, and every bucket
    // ends empty. A fixed-closure AS announces along its precomputed
    // inner lists plus its edges into joined ASes; a joined AS scans its
    // neighbours.
    // The fixed closure holds the siblings and providers of its members,
    // so its edges into a joined AS come from that AS's providers (down)
    // and peers (a leak) alone.
    into_joined.clear();
    for &x in joined.iter() {
        for (senders, by_leak) in [(g.providers(x), false), (g.peers(x), true)] {
            for &u in senders {
                if targets.contains(u) {
                    into_joined.push((u, x, by_leak));
                }
            }
        }
    }
    into_joined.sort_unstable();
    for u in closure() {
        if let Some(r) = routes[u as usize] {
            let h = r.hops as usize;
            if buckets.len() <= h {
                buckets.resize_with(h + 1, Vec::new);
            }
            buckets[h].push(u);
        }
    }
    let mut h = 0;
    while h < buckets.len() {
        // Drain via a second buffer so both capacities survive.
        drain.clear();
        drain.append(&mut buckets[h]);
        for &u in drain.iter() {
            let r = routes[u as usize].expect("a bucketed node holds a route");
            // Route leak: this AS also re-exports upward/sideways. The
            // recipients then continue ordinary downward propagation,
            // which yields the classic provider→leaker→provider valley.
            let leaking = r.pref >= PrefClass::Peer && leaks(u);
            let mut announce = |v: u32| {
                if outside(v, is_joined) {
                    return;
                }
                match &mut routes[v as usize] {
                    slot @ None => {
                        *slot = Some(Route {
                            pref: PrefClass::Provider,
                            hops: (h + 1) as u16,
                            parent: u,
                        });
                        routed.push(v);
                        if buckets.len() <= h + 1 {
                            buckets.push(Vec::new());
                        }
                        buckets[h + 1].push(v);
                    }
                    // Same-length contender from an equal-level source:
                    // keep the hash-preferred parent (still hops h+1).
                    Some(rv)
                        if rv.pref == PrefClass::Provider
                            && rv.hops as usize == h + 1
                            && tiekey(v, u) < tiekey(v, rv.parent) =>
                    {
                        rv.parent = u;
                    }
                    Some(_) => {}
                }
            };
            if targets.contains(u) {
                targets.inner(u, false).iter().for_each(|&v| announce(v));
                if leaking {
                    targets.inner(u, true).iter().for_each(|&v| announce(v));
                }
                let from = into_joined.partition_point(|e| e.0 < u);
                for &(_, x, by_leak) in into_joined[from..].iter().take_while(|e| e.0 == u) {
                    if leaking || !by_leak {
                        announce(x);
                    }
                }
            } else {
                g.down_neighbors(u).iter().for_each(|&v| announce(v));
                if leaking {
                    g.leak_neighbors(u).iter().for_each(|&v| announce(v));
                }
            }
        }
        h += 1;
    }

    RouteTree {
        dest,
        routes: &routes[..n],
    }
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

    /// A graph of stubs over `c2p`, `p2p` and `s2s` links between ASNs.
    fn graph(c2p: &[(u32, u32)], p2p: &[(u32, u32)], s2s: &[(u32, u32)]) -> PolicyGraph {
        let mut gt = GroundTruth::default();
        for &(c, p) in c2p {
            gt.relationships.insert_c2p(Asn(c), Asn(p));
        }
        for &(a, b) in p2p {
            gt.relationships.insert_p2p(Asn(a), Asn(b));
        }
        for &(a, b) in s2s {
            gt.relationships.insert_s2s(Asn(a), Asn(b));
        }
        let ases: Vec<Asn> = gt.relationships.ases().collect();
        for a in ases {
            gt.classes.insert(a, AsClass::Stub);
        }
        PolicyGraph::new(&gt)
    }

    /// The full tree toward `dest` with no leaks.
    fn full_tree<'w>(
        g: &PolicyGraph,
        dest: u32,
        ws: &'w mut PropagationWorkspace,
    ) -> RouteTree<'w> {
        propagate(g, dest, &Targets::new(g, g.ids()), |_| false, ws)
    }

    /// The ASN path from `node`, if it is routed.
    fn asn_path(g: &PolicyGraph, t: &RouteTree, node: u32) -> Option<Vec<Asn>> {
        t.path(node)
            .map(|ids| ids.iter().map(|&i| g.asn(i)).collect())
    }

    #[test]
    fn everyone_reaches_a_stub_origin() {
        let (g, id) = diamond();
        let mut ws = PropagationWorkspace::new();
        let t = full_tree(&g, id(100), &mut ws);
        assert!(g.ids().all(|v| t.route(v).is_some()));
        // Path from 200: 200 → 20 → 2 → 1 → 10 → 100.
        assert_eq!(
            asn_path(&g, &t, id(200)).unwrap(),
            vec![Asn(200), Asn(20), Asn(2), Asn(1), Asn(10), Asn(100)]
        );
    }

    #[test]
    fn preference_classes_are_correct() {
        let (g, id) = diamond();
        let mut ws = PropagationWorkspace::new();
        let t = full_tree(&g, id(100), &mut ws);
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
        let g = graph(&[(30, 1), (30, 2)], &[(1, 2)], &[]);
        let mut ws = PropagationWorkspace::new();
        let t = full_tree(&g, g.id(Asn(30)).unwrap(), &mut ws);
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
        let g = graph(&[(100, 5), (100, 9), (5, 1), (9, 1)], &[], &[]);
        let dest = g.id(Asn(100)).unwrap();
        let one = g.id(Asn(1)).unwrap();
        let mut ws = PropagationWorkspace::new();
        let ra = full_tree(&g, dest, &mut ws).route(one).unwrap();
        let rb = full_tree(&g, dest, &mut PropagationWorkspace::new())
            .route(one)
            .unwrap();
        assert_eq!(ra, rb, "tie-break must be deterministic");
        assert!(matches!(g.asn(ra.parent), Asn(5) | Asn(9)));
    }

    #[test]
    fn tie_breaks_are_diverse_across_destinations() {
        // Many stubs multihomed to providers 5 and 9 sharing grandparent
        // 1: across destinations, 1 must sometimes route via 5 and
        // sometimes via 9 — diversity is what exposes backup links.
        let mut c2p = vec![(5, 1), (9, 1)];
        for i in 0..40u32 {
            c2p.push((100 + i, 5));
            c2p.push((100 + i, 9));
        }
        let g = graph(&c2p, &[], &[]);
        let mut ws = PropagationWorkspace::new();
        let mut via5 = 0;
        let mut via9 = 0;
        for i in 0..40u32 {
            let dest = g.id(Asn(100 + i)).unwrap();
            let t = full_tree(&g, dest, &mut ws);
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
        // one) and target sets must reproduce fresh-workspace routes
        // exactly — stale route, join or bucket state would surface as a
        // diverging route.
        let (g, id) = diamond();
        let leaker = id(20);
        let all = Targets::new(&g, g.ids());
        let few = Targets::new(&g, [id(200)]);
        let mut ws = PropagationWorkspace::new();
        for round in 0..2 {
            for dest in [100u32, 200, 10, 20, 1, 2] {
                let leaks = |v: u32| dest == 100 && v == leaker;
                for targets in [&all, &few] {
                    let mut fresh_ws = PropagationWorkspace::new();
                    let fresh = propagate(&g, id(dest), targets, leaks, &mut fresh_ws);
                    let reused = propagate(&g, id(dest), targets, leaks, &mut ws);
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
    }

    #[test]
    fn no_valley_without_leaks() {
        // 200's route must NOT go 200 → 20 → 2 (provider) and then climb;
        // verify every path is valley-free: once it descends it never
        // ascends. We check pref monotonicity along the path.
        let (g, id) = diamond();
        let mut ws = PropagationWorkspace::new();
        for dest in [100u32, 200, 10, 20, 1, 2] {
            let t = full_tree(&g, id(dest), &mut ws);
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
        // would be unreachable. 21 alone as the target sees it too: 20 is
        // on its fringe, and joins the closure with its provider 1.
        let g = graph(&[(100, 10), (10, 1), (20, 1)], &[(20, 21)], &[]);
        let id = |a: u32| g.id(Asn(a)).unwrap();
        let dest = id(100);
        let mut ws = PropagationWorkspace::new();

        assert!(full_tree(&g, dest, &mut ws).route(id(21)).is_none());

        let leaks = |v: u32| v == id(20);
        let want = vec![Asn(21), Asn(20), Asn(1), Asn(10), Asn(100)];
        for targets in [Targets::new(&g, g.ids()), Targets::new(&g, [id(21)])] {
            let leaked = propagate(&g, dest, &targets, leaks, &mut ws);
            let r21 = leaked.route(id(21)).unwrap();
            assert_eq!(g.asn(r21.parent), Asn(20));
            assert_eq!(asn_path(&g, &leaked, id(21)).unwrap(), want);
        }
    }

    #[test]
    fn leaks_chain_into_the_closure() {
        // 21's only neighbour is its peer 20, which has no provider: 20
        // is routed only through its customer 30, which leaks the
        // provider route it holds via 1, and 20 leaks that on to 21.
        // Both leakers must join 21's closure, the second one found by
        // scanning the first one's customers.
        let g = graph(&[(100, 1), (30, 1), (30, 20)], &[(20, 21)], &[]);
        let id = |a: u32| g.id(Asn(a)).unwrap();
        let leaks = |v: u32| v == id(20) || v == id(30);
        let targets = Targets::new(&g, [id(21)]);
        assert_eq!((targets.closure.len(), targets.fringe.len()), (1, 1));
        let mut ws = PropagationWorkspace::new();
        let t = propagate(&g, id(100), &targets, leaks, &mut ws);
        assert_eq!(
            asn_path(&g, &t, id(21)).unwrap(),
            vec![Asn(21), Asn(20), Asn(30), Asn(1), Asn(100)]
        );
    }

    #[test]
    fn the_fixed_closure_announces_into_joined_ases() {
        // Targets 50 and 20 fix the closure; 30, on its fringe, leaks and
        // joins. 30's route comes from the fixed closure, down from its
        // provider 40 in the first graph and by a leak from its peer 10
        // in the second, and 30 leaks it on toward 50.
        let cases: [(&[(u32, u32)], &[(u32, u32)], &[u32], &[u32]); 2] = [
            (
                &[(100, 1), (40, 1), (20, 40), (30, 40)],
                &[(30, 50)],
                &[30],
                &[50, 30, 40, 1, 100],
            ),
            (
                &[(100, 1), (10, 1), (20, 10), (30, 40), (50, 40)],
                &[(10, 30)],
                &[10, 30],
                &[50, 40, 30, 10, 1, 100],
            ),
        ];
        for (c2p, p2p, leakers, want) in cases {
            let g = graph(c2p, p2p, &[]);
            let id = |a: u32| g.id(Asn(a)).unwrap();
            let leakers: Vec<u32> = leakers.iter().map(|&a| id(a)).collect();
            let want: Vec<Asn> = want.iter().map(|&a| Asn(a)).collect();
            let mut ws = PropagationWorkspace::new();
            for targets in [
                Targets::new(&g, g.ids()),
                Targets::new(&g, [id(50), id(20)]),
            ] {
                let t = propagate(&g, id(100), &targets, |v| leakers.contains(&v), &mut ws);
                assert_eq!(asn_path(&g, &t, id(50)).unwrap(), want);
            }
        }
    }

    #[test]
    fn joined_ases_close_over_siblings() {
        // 80's peer 70 leaks the provider route it learns over its sibling
        // link from 60: 70 joins 80's closure, and 60 must join with it.
        let g = graph(&[(100, 1), (60, 1)], &[(70, 80)], &[(60, 70)]);
        let id = |a: u32| g.id(Asn(a)).unwrap();
        let mut ws = PropagationWorkspace::new();
        let t = propagate(
            &g,
            id(100),
            &Targets::new(&g, [id(80)]),
            |v| v == id(70),
            &mut ws,
        );
        assert_eq!(
            asn_path(&g, &t, id(80)).unwrap(),
            vec![Asn(80), Asn(70), Asn(60), Asn(1), Asn(100)]
        );
    }

    #[test]
    fn targets_close_over_siblings() {
        // 11's route arrives over its sibling link from 10, a customer of
        // the origin's provider: 11's closure must hold 10 and 1.
        let g = graph(&[(100, 1), (10, 1)], &[], &[(10, 11)]);
        let id = |a: u32| g.id(Asn(a)).unwrap();
        let targets = Targets::new(&g, [id(11)]);
        assert_eq!(targets.closure.len(), 3);
        let mut ws = PropagationWorkspace::new();
        let t = propagate(&g, id(100), &targets, |_| false, &mut ws);
        assert_eq!(
            asn_path(&g, &t, id(11)).unwrap(),
            vec![Asn(11), Asn(10), Asn(1), Asn(100)]
        );
    }

    #[test]
    fn unreachable_island_has_no_route() {
        // 50-51 is a disconnected island.
        let g = graph(&[(100, 10)], &[(50, 51)], &[]);
        let mut ws = PropagationWorkspace::new();
        let t = full_tree(&g, g.id(Asn(100)).unwrap(), &mut ws);
        assert!(t.route(g.id(Asn(50)).unwrap()).is_none());
        assert!(t.path(g.id(Asn(51)).unwrap()).is_none());
        assert_eq!(g.ids().filter(|&v| t.route(v).is_some()).count(), 2);
    }

    #[test]
    fn sibling_edges_carry_routes_both_ways() {
        // 10 and 11 are siblings; 11 has no other links. Routes must flow
        // through the sibling edge in both directions.
        let g = graph(&[(100, 10)], &[], &[(10, 11)]);
        let mut ws = PropagationWorkspace::new();
        // Dest behind the sibling: 11 reaches 100.
        let t = full_tree(&g, g.id(Asn(100)).unwrap(), &mut ws);
        assert!(t.route(g.id(Asn(11)).unwrap()).is_some());
        // Dest is the sibling itself: 100 reaches 11.
        let t2 = full_tree(&g, g.id(Asn(11)).unwrap(), &mut ws);
        assert!(t2.route(g.id(Asn(100)).unwrap()).is_some());
    }
}
