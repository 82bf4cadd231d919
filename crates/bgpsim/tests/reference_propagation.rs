//! Cross-validation of the optimized three-stage propagation against
//! slow, obviously-correct references.
//!
//! * A fixpoint iteration that applies the Gao-Rexford export and
//!   preference rules literally. On random hierarchies, both must agree
//!   on reachability, preference class, and AS-path length for every
//!   (node, destination) pair; it says nothing about the parent.
//! * The parent each route names, on hierarchies with sibling links and
//!   route leakers, two ways: against the three stages as they ran when
//!   every BFS frontier and Dial bucket was sorted before it was drained,
//!   and against its definition, the `(hash, id)`-least neighbour that
//!   offers the same class at the same length.

use asrank_types::prelude::*;
use bgp_sim::hash;
use bgp_sim::propagate::{compute_route_tree, PrefClass, Route};
use bgp_sim::PolicyGraph;
use proptest::prelude::*;

/// A random acyclic transit hierarchy: node i > 0 buys transit from 1–2
/// lower-numbered nodes; random peer links are sprinkled on top.
fn arb_topology() -> impl Strategy<Value = GroundTruth> {
    (3usize..18, any::<u64>()).prop_map(|(n, seed)| {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_add(0x9e3779b97f4a7c15)
                .wrapping_mul(0xbf58476d1ce4e5b9);
            s ^ (s >> 31)
        };
        let mut gt = GroundTruth::default();
        for i in 0..n as u32 {
            gt.classes.insert(Asn(i + 1), AsClass::Stub);
        }
        // c2p edges toward lower indices (acyclic by construction).
        for i in 1..n as u32 {
            let homes = 1 + (next() % 2) as u32;
            for _ in 0..homes {
                let p = (next() % i as u64) as u32 + 1;
                if p != i + 1 {
                    gt.relationships.insert_c2p(Asn(i + 1), Asn(p));
                }
            }
        }
        // A few random peerings between unrelated pairs.
        for _ in 0..n / 3 {
            let a = (next() % n as u64) as u32 + 1;
            let b = (next() % n as u64) as u32 + 1;
            if a != b && gt.relationships.get(Asn(a), Asn(b)).is_none() {
                gt.relationships.insert_p2p(Asn(a), Asn(b));
            }
        }
        gt
    })
}

/// Reference route state: (preference rank, hops). Lower is better;
/// pref rank: 0 = origin/customer, 1 = peer, 2 = provider.
type RefRoute = Option<(u8, u16)>;

fn pref_rank(p: PrefClass) -> u8 {
    match p {
        PrefClass::Origin | PrefClass::Customer => 0,
        PrefClass::Peer => 1,
        PrefClass::Provider => 2,
    }
}

/// Literal Gao-Rexford fixpoint: synchronous best-response iteration.
///
/// Each round recomputes every node's best route *from scratch* out of
/// its neighbors' current routes — monotone "improve only" updates would
/// keep stale routes whose upstream later switched to a more-preferred
/// but longer path (real BGP retracts those). Gao-Rexford preferences
/// are dispute-free, so this iteration converges.
fn reference_routes(gt: &GroundTruth, dest: Asn) -> std::collections::HashMap<Asn, (u8, u16)> {
    use std::collections::HashMap;
    let adj = gt.relationships.adjacency();
    let mut ases: Vec<Asn> = gt.classes.keys().copied().collect();
    ases.sort();
    let mut routes: HashMap<Asn, (u8, u16)> = HashMap::new();
    routes.insert(dest, (0, 0));

    let n = gt.classes.len();
    for _ in 0..=2 * n + 4 {
        let mut next: HashMap<Asn, (u8, u16)> = HashMap::new();
        next.insert(dest, (0, 0));
        for &me in &ases {
            if me == dest {
                continue;
            }
            let Some(neigh) = adj.get(&me) else { continue };
            let mut best: Option<(u8, u16)> = None;
            for &(nb, orientation) in neigh {
                let Some(&(nb_rank, nb_hops)) = routes.get(&nb) else {
                    continue;
                };
                // Export rule: nb sends me its best route iff nb learned
                // it from a customer or originated it (nb_rank == 0), or
                // I am nb's customer (nb is my provider).
                let i_am_customer = orientation == Orientation::Provider;
                if nb_rank != 0 && !i_am_customer {
                    continue;
                }
                let my_rank = match orientation {
                    Orientation::Customer => 0, // nb is my customer
                    Orientation::Sibling => 0,  // siblings excluded here
                    Orientation::Peer => 1,
                    Orientation::Provider => 2,
                };
                let cand = (my_rank, nb_hops + 1);
                if best.is_none() || cand < best.unwrap() {
                    best = Some(cand);
                }
            }
            if let Some(b) = best {
                next.insert(me, b);
            }
        }
        let stable = next == routes;
        routes = next;
        if stable {
            break;
        }
    }
    routes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn three_stage_matches_reference_fixpoint(gt in arb_topology()) {
        let g = PolicyGraph::new(&gt);
        let mut dests: Vec<Asn> = gt.classes.keys().copied().collect();
        dests.sort();
        for &dest in &dests {
            let Some(dest_id) = g.id(dest) else { continue };
            let tree = compute_route_tree(&g, dest_id, None);
            let reference = reference_routes(&gt, dest);
            for &asn in gt.classes.keys() {
                let id = g.id(asn).unwrap();
                let fast: RefRoute = tree
                    .route(id)
                    .map(|r| (pref_rank(r.pref), r.hops));
                let slow: RefRoute = reference.get(&asn).copied();
                prop_assert_eq!(
                    fast, slow,
                    "disagreement at {} for dest {}: fast={:?} slow={:?}",
                    asn, dest, fast, slow
                );
            }
        }
    }
}

/// `arb_topology` plus sibling links between a few unrelated pairs, and
/// the seed the leaker sets are drawn from.
fn arb_topology_with_siblings() -> impl Strategy<Value = (GroundTruth, u64)> {
    (arb_topology(), any::<u64>()).prop_map(|(mut gt, seed)| {
        let n = gt.classes.len() as u64;
        let mut s = seed;
        let mut next = move || {
            s = hash::splitmix64(s);
            s
        };
        for _ in 0..n / 4 + 1 {
            let a = (next() % n) as u32 + 1;
            let b = (next() % n) as u32 + 1;
            if a != b && gt.relationships.get(Asn(a), Asn(b)).is_none() {
                gt.relationships.insert_s2s(Asn(a), Asn(b));
            }
        }
        (gt, seed)
    })
}

/// The tie-break key the propagation documents: the per-(chooser,
/// destination) hash of the candidate, then the candidate's dense id.
fn tiekey(g: &PolicyGraph, dest: u32, chooser: u32, candidate: u32) -> (u64, u32) {
    let h = hash::mix(
        0x7135_b4ea,
        &[
            g.asn(chooser).0 as u64,
            g.asn(candidate).0 as u64,
            g.asn(dest).0 as u64,
        ],
    );
    (h, candidate)
}

/// The three stages as they ran before frontiers and buckets were
/// drained in arrival order: every frontier and bucket is sorted and
/// deduplicated, contenders are met in ascending id order and compared
/// on the hash alone (strict `<`, so the first-met, lowest id keeps a
/// tie).
fn sorted_drain_routes(g: &PolicyGraph, dest: u32, leakers: Option<&[bool]>) -> Vec<Option<Route>> {
    let n = g.len();
    let key = |chooser: u32, candidate: u32| tiekey(g, dest, chooser, candidate).0;
    let mut routes: Vec<Option<Route>> = vec![None; n];
    routes[dest as usize] = Some(Route {
        pref: PrefClass::Origin,
        hops: 0,
        parent: dest,
    });

    let mut frontier = vec![dest];
    let mut hops: u16 = 0;
    while !frontier.is_empty() {
        hops += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.providers(u).iter().chain(g.siblings(u)) {
                match routes[v as usize] {
                    None => {
                        routes[v as usize] = Some(Route {
                            pref: PrefClass::Customer,
                            hops,
                            parent: u,
                        });
                        next.push(v);
                    }
                    Some(r) if r.hops == hops && r.pref == PrefClass::Customer => {
                        if key(v, u) < key(v, r.parent) {
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
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }

    let mut offers: Vec<Option<Route>> = vec![None; n];
    for u in 0..n as u32 {
        let Some(r) = routes[u as usize] else {
            continue;
        };
        if r.pref > PrefClass::Customer {
            continue;
        }
        for &v in g.peers(u) {
            if routes[v as usize].is_some() {
                continue;
            }
            let better = match offers[v as usize] {
                None => true,
                Some(prev) => (r.hops + 1, key(v, u)) < (prev.hops, key(v, prev.parent)),
            };
            if better {
                offers[v as usize] = Some(Route {
                    pref: PrefClass::Peer,
                    hops: r.hops + 1,
                    parent: u,
                });
            }
        }
    }
    for v in 0..n {
        if routes[v].is_none() {
            routes[v] = offers[v];
        }
    }

    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n + 2];
    for u in 0..n as u32 {
        if let Some(r) = routes[u as usize] {
            buckets[r.hops as usize].push(u);
        }
    }
    for h in 0..buckets.len() {
        let mut drain = std::mem::take(&mut buckets[h]);
        drain.sort_unstable();
        drain.dedup();
        for u in drain {
            let r = routes[u as usize].expect("a bucketed node holds a route");
            let mut targets: Vec<u32> = g
                .customers(u)
                .iter()
                .chain(g.siblings(u))
                .copied()
                .collect();
            if leakers.is_some_and(|l| l[u as usize]) && r.pref >= PrefClass::Peer {
                targets.extend(g.providers(u).iter().chain(g.peers(u)));
            }
            for v in targets {
                match routes[v as usize] {
                    None => {
                        routes[v as usize] = Some(Route {
                            pref: PrefClass::Provider,
                            hops: (h + 1) as u16,
                            parent: u,
                        });
                        buckets[h + 1].push(v);
                    }
                    Some(rv)
                        if rv.pref == PrefClass::Provider
                            && rv.hops as usize == h + 1
                            && key(v, u) < key(v, rv.parent) =>
                    {
                        routes[v as usize] = Some(Route {
                            pref: PrefClass::Provider,
                            hops: (h + 1) as u16,
                            parent: u,
                        });
                    }
                    Some(_) => {}
                }
            }
        }
    }
    routes
}

/// The neighbours that offer `v` a route of `route`'s class and length
/// in `routes`: the contenders its parent is chosen from.
fn eligible_parents(
    g: &PolicyGraph,
    routes: &[Option<Route>],
    leakers: Option<&[bool]>,
    v: u32,
    route: Route,
) -> Vec<u32> {
    let one_shorter =
        |u: u32| -> Option<Route> { routes[u as usize].filter(|r| r.hops + 1 == route.hops) };
    let leaks =
        |u: u32, r: Route| leakers.is_some_and(|l| l[u as usize]) && r.pref >= PrefClass::Peer;
    let mut out = Vec::new();
    match route.pref {
        PrefClass::Origin => {}
        // Customer routes climb: v is a provider or sibling of `u`.
        PrefClass::Customer => {
            for &u in g.customers(v).iter().chain(g.siblings(v)) {
                if one_shorter(u).is_some_and(|r| r.pref <= PrefClass::Customer) {
                    out.push(u);
                }
            }
        }
        // One hop across a peering, from a customer-route holder.
        PrefClass::Peer => {
            for &u in g.peers(v) {
                if one_shorter(u).is_some_and(|r| r.pref <= PrefClass::Customer) {
                    out.push(u);
                }
            }
        }
        // Every route holder announces to its customers and siblings; a
        // leaker holding a peer or provider route also announces to its
        // providers and peers.
        PrefClass::Provider => {
            for &u in g.providers(v).iter().chain(g.siblings(v)) {
                if one_shorter(u).is_some() {
                    out.push(u);
                }
            }
            for &u in g.customers(v).iter().chain(g.peers(v)) {
                if one_shorter(u).is_some_and(|r| leaks(u, r)) {
                    out.push(u);
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn parents_match_sorted_drain_and_definition(case in arb_topology_with_siblings()) {
        let (gt, seed) = case;
        let g = PolicyGraph::new(&gt);
        for dest in g.ids() {
            // Every other destination gets a random leaker set.
            let leakers: Option<Vec<bool>> = (dest % 2 == 1).then(|| {
                g.ids()
                    .map(|id| hash::mix(seed, &[u64::from(id), u64::from(dest)]).is_multiple_of(3))
                    .collect()
            });
            let leakers = leakers.as_deref();
            let tree = compute_route_tree(&g, dest, leakers);
            let routes: Vec<Option<Route>> = g.ids().map(|id| tree.route(id)).collect();
            prop_assert_eq!(
                &routes,
                &sorted_drain_routes(&g, dest, leakers),
                "dest {} leakers {:?}",
                dest,
                leakers
            );
            for v in g.ids() {
                let Some(route) = routes[v as usize] else { continue };
                if route.pref == PrefClass::Origin {
                    continue;
                }
                let best = eligible_parents(&g, &routes, leakers, v, route)
                    .into_iter()
                    .min_by_key(|&u| tiekey(&g, dest, v, u));
                prop_assert_eq!(
                    Some(route.parent),
                    best,
                    "node {} dest {} route {:?}",
                    v,
                    dest,
                    route
                );
            }
        }
    }
}
