//! Property tests pinning the cone engines to independent oracles:
//!
//! * the dense bitset recursive-cone closure must agree with the
//!   straightforward HashSet implementation on random small topologies —
//!   including ones with c2p cycles, which the bitset path collapses
//!   through an SCC condensation while the reference walks them directly
//!   with a visited-set BFS;
//! * the arena-backed single-sweep BGP-observed and provider/peer
//!   observed cones must agree exactly with [`observed_oracle`], which
//!   recomputes both straight from the paper's definitions over the
//!   sanitized paths and shares no scan code with the engine — on random
//!   path sets whose own links carry random relationships, at both
//!   `Parallelism::sequential()` and `Parallelism::threads(4)`, and on
//!   one generated topology large enough for the multi-block pair merge.

use as_topology_gen::{generate, TopologyConfig};
use asrank_core::engine::Snapshot;
use asrank_core::pipeline::InferenceConfig;
use asrank_core::{sanitize, ConeSize, CustomerCones, PathArena, SanitizeConfig, SanitizedPaths};
use asrank_types::prelude::*;
use bgp_sim::{simulate, SimConfig, VpSelection};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Random c2p edge list over a small ASN universe. Drawing endpoints
/// independently produces diamonds, multihoming, self-referential SCCs,
/// and disconnected fragments with high probability.
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((1u32..40, 1u32..40), 0..80)
}

/// Prefix table assigning a deterministic number of /24s to the ASes
/// divisible by 3, so measured sizes are exercised too.
fn prefixes_for(ases: impl IntoIterator<Item = u32>) -> HashMap<Asn, Vec<Ipv4Prefix>> {
    let mut table: HashMap<Asn, Vec<Ipv4Prefix>> = HashMap::new();
    for a in ases {
        if a % 3 == 0 {
            table.entry(Asn(a)).or_insert_with(|| {
                (0..a % 5)
                    .map(|i| Ipv4Prefix::new((a << 16) | (i << 8), 24).unwrap())
                    .collect()
            });
        }
    }
    table
}

fn rels_from(edges: &[(u32, u32)]) -> RelationshipMap {
    let mut rels = RelationshipMap::new();
    for &(c, p) in edges {
        if c != p {
            rels.insert_c2p(Asn(c), Asn(p));
        }
    }
    rels
}

/// Random raw path sets over the same small ASN universe. Sanitization
/// discards loops and compresses prepending, so the surviving set is a
/// realistic mix of short, duplicated, and overlapping paths.
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..6), 1..40)
}

fn sanitized_from(paths: &[Vec<u32>]) -> SanitizedPaths {
    let ps: PathSet = paths
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

/// Relationships on the paths' own links, so descents and announcements
/// are dense: the `k`-th distinct link (in ascending order) takes
/// `labels[k % labels.len()]` — 0 unrelated, 1 c2p low→high, 2 c2p
/// high→low, 3 p2p.
fn rels_on_links(sanitized: &SanitizedPaths, labels: &[u8]) -> RelationshipMap {
    let links: BTreeSet<(Asn, Asn)> = sanitized
        .paths()
        .flat_map(|p| p.windows(2).map(|w| (w[0], w[1])))
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    let mut rels = RelationshipMap::new();
    for (k, (lo, hi)) in links.into_iter().enumerate() {
        match labels[k % labels.len()] {
            1 => rels.insert_c2p(lo, hi),
            2 => rels.insert_c2p(hi, lo),
            3 => rels.insert_p2p(lo, hi),
            _ => {}
        }
    }
    rels
}

/// Cone membership per AS, as the definitions state it.
type Cones = BTreeMap<Asn, BTreeSet<Asn>>;

/// Both observed cones from the definitions, over every sanitized path
/// (hop 0 is the vantage point, the last hop the origin):
///
/// * BGP-observed: `y ∈ cone(x)` when a path descends from `x` to `y`,
///   each step a c2p edge (the next hop a customer of the previous);
/// * provider/peer-observed: when `hops[i]` is a customer or peer of
///   `hops[i-1]`, `hops[i]` announced everything after itself;
/// * every observed AS contains itself.
fn observed_oracle(sanitized: &SanitizedPaths, rels: &RelationshipMap) -> (Cones, Cones) {
    let (mut bgp, mut pp) = (Cones::new(), Cones::new());
    for path in sanitized.paths() {
        let hops: Vec<Asn> = path.to_vec();
        for &a in &hops {
            bgp.entry(a).or_default().insert(a);
            pp.entry(a).or_default().insert(a);
        }
        for i in 0..hops.len() {
            for j in i + 1..hops.len() {
                if !rels.is_c2p(hops[j], hops[j - 1]) {
                    break;
                }
                bgp.entry(hops[i]).or_default().insert(hops[j]);
            }
        }
        for i in 1..hops.len() {
            if rels.is_c2p(hops[i], hops[i - 1]) || rels.is_p2p(hops[i], hops[i - 1]) {
                pp.entry(hops[i]).or_default().extend(&hops[i + 1..]);
            }
        }
    }
    (bgp, pp)
}

/// Compare an engine cone against the oracle: coverage, members, and
/// sizes weighed from the prefix table.
fn assert_matches(
    name: &str,
    got: &CustomerCones,
    want: &Cones,
    prefixes: &HashMap<Asn, Vec<Ipv4Prefix>>,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} covers a different AS set", name);
    for (&asn, members) in want {
        let members: Vec<Asn> = members.iter().copied().collect();
        prop_assert_eq!(
            got.members(asn),
            members.as_slice(),
            "{} members of {}",
            name,
            asn
        );
        let owned = members.iter().filter_map(|m| prefixes.get(m));
        let size = ConeSize {
            ases: members.len(),
            prefixes: owned.clone().map(Vec::len).sum(),
            addresses: owned.flatten().map(Ipv4Prefix::address_count).sum(),
        };
        prop_assert_eq!(got.size(asn), size, "{} size of {}", name, asn);
    }
    Ok(())
}

proptest! {
    #[test]
    fn bitset_closure_matches_reference(edges in edges_strategy()) {
        let rels = rels_from(&edges);
        let prefixes = prefixes_for(edges.iter().flat_map(|&(c, p)| [c, p]));
        let fast = CustomerCones::recursive(&rels, Some(&prefixes));
        let slow = CustomerCones::recursive_reference(&rels, Some(&prefixes));

        prop_assert_eq!(fast.len(), slow.len());
        for asn in slow.ases() {
            prop_assert_eq!(
                fast.members(asn),
                slow.members(asn),
                "members of {} differ",
                asn
            );
            prop_assert_eq!(fast.size(asn), slow.size(asn), "size of {} differs", asn);
        }
        prop_assert_eq!(fast.largest(), slow.largest());
    }

    #[test]
    // chain ≥ 3: a 2-ring is unrepresentable (both directed edges share
    // one undirected AsLink, so the second insert overwrites the first).
    fn forced_cycles_still_match(chain in 3u32..12, extra in edges_strategy()) {
        // Sprinkle random edges, then deterministically close a ring
        // 1→2→…→chain→1 *afterwards* — `insert_c2p` is last-writer-wins,
        // so inserting the ring last guarantees it survives and every
        // case contains at least one non-trivial SCC.
        let mut edges: Vec<(u32, u32)> = extra;
        edges.extend((1..=chain).map(|i| (i, if i == chain { 1 } else { i + 1 })));
        let rels = rels_from(&edges);
        let fast = CustomerCones::recursive(&rels, None);
        let slow = CustomerCones::recursive_reference(&rels, None);
        for asn in slow.ases() {
            prop_assert_eq!(fast.members(asn), slow.members(asn));
        }
        // Every ring member shares the identical cone.
        let first = fast.members(Asn(1)).to_vec();
        for i in 2..=chain {
            prop_assert_eq!(fast.members(Asn(i)), first.as_slice());
        }
    }

    #[test]
    fn observed_cones_match_definitions(
        paths in paths_strategy(),
        labels in proptest::collection::vec(0u8..4, 1..64),
    ) {
        let sanitized = sanitized_from(&paths);
        let rels = rels_on_links(&sanitized, &labels);
        let prefixes = prefixes_for(1..40);
        let (bgp, pp) = observed_oracle(&sanitized, &rels);
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let arena = PathArena::build(&sanitized, par);
            let got = CustomerCones::bgp_observed(&arena, &rels, Some(&prefixes), par);
            assert_matches(&format!("bgp-observed at {par}"), &got, &bgp, &prefixes)?;
            let got = CustomerCones::provider_peer_observed(&arena, &rels, Some(&prefixes), par);
            assert_matches(&format!("provider/peer at {par}"), &got, &pp, &prefixes)?;
        }
    }
}

/// The engine's observed-cone stages on a generated topology whose arena
/// holds more than 2,048 ASes — the size above which the automatic block
/// width splits the pair merge into several blocks — against the
/// definitional oracle.
#[test]
fn observed_cones_match_definitions_across_merge_blocks() {
    let seed = 17;
    let mut topology = TopologyConfig::small();
    topology.mix.stubs = 2_600;
    let topo = generate(&topology, seed);
    let sim = simulate(
        &topo,
        &SimConfig {
            vp_selection: VpSelection::Count(8),
            destination_sample: Some(2_300),
            ..SimConfig::defaults(seed)
        },
    );
    let cfg = InferenceConfig::with_ixps(topo.ixps.iter().map(|i| i.route_server));
    let prefixes = topo.ground_truth.prefixes.clone();
    let mut snapshot = Snapshot::new(&sim.paths, cfg).with_prefixes(prefixes.clone());
    let arena = snapshot.arena().expect("arena");
    assert!(
        arena.num_ases() >= 2048,
        "only {} arena ASes: the merge runs a single block",
        arena.num_ases()
    );
    let sanitized = snapshot.sanitized().expect("sanitized");
    let inference = snapshot.inference().expect("inference");
    let (bgp, pp) = observed_oracle(&sanitized, &inference.relationships);
    let check = |name: &str, got: &CustomerCones, want: &Cones| {
        if let Err(e) = assert_matches(name, got, want, &prefixes) {
            panic!("{e}");
        }
    };
    let bgp_cone = snapshot.bgp_observed_cone().expect("bgp-observed cone");
    check("bgp-observed", &bgp_cone, &bgp);
    let pp_cone = snapshot.provider_peer_cone().expect("provider/peer cone");
    check("provider/peer", &pp_cone, &pp);
}
