//! The relationship-classification steps S4–S11.
//!
//! Each step is a standalone function taking the working
//! [`RelationshipMap`] so tests can exercise them in isolation.
//!
//! Two forms exist. The `pub` path-slice functions are the definitions:
//! [`super::infer_monolithic`] runs them in paper order over the sorted
//! distinct paths, and it is the oracle the engine is tested against.
//! The `pub(crate)` `*_arena` / `*_over` forms are what the engine's
//! stages run over the shared [`PathArena`]: distinct paths, the S5
//! occurrence index and the observed link list S8/S10 both need are
//! read from the arena built exactly once.

use super::InferenceReport;
use crate::degree::DegreeTable;
use crate::patharena::PathArena;
use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use asrank_types::FxHashMap;
use std::collections::{HashMap, HashSet};

/// S4 — a path is poisoned when a non-clique AS appears between two
/// clique members: legitimate routing never sandwiches a smaller AS
/// between two Tier-1s.
pub fn discard_poisoned(
    paths: Vec<AsPath>,
    clique_set: &HashSet<Asn>,
    report: &mut InferenceReport,
) -> Vec<AsPath> {
    let before = paths.len();
    let kept: Vec<AsPath> = paths
        .into_iter()
        .filter(|p| !is_poisoned(p, clique_set))
        .collect();
    report.discarded_poisoned = before - kept.len();
    kept
}

fn is_poisoned(path: &AsPath, clique_set: &HashSet<Asn>) -> bool {
    // Scan for clique, then ≥1 non-clique, then clique again.
    let mut seen_clique = false;
    let mut gap_since_clique = false;
    for asn in path.iter() {
        if clique_set.contains(&asn) {
            if seen_clique && gap_since_clique {
                return true;
            }
            seen_clique = true;
            gap_since_clique = false;
        } else if seen_clique {
            gap_since_clique = true;
        }
    }
    false
}

/// [`is_poisoned`] over dense-id hops with a clique bitmask — the same
/// clique / gap / clique scan, minus the hash probe per hop.
pub(crate) fn is_poisoned_ids(hops: &[u32], clique_mask: &[bool]) -> bool {
    let mut seen_clique = false;
    let mut gap_since_clique = false;
    for &id in hops {
        if clique_mask[id as usize] {
            if seen_clique && gap_since_clique {
                return true;
            }
            seen_clique = true;
            gap_since_clique = false;
        } else if seen_clique {
            gap_since_clique = true;
        }
    }
    false
}

/// S5 — visit ASes in decreasing transit-degree order. When visiting `z`,
/// every (distinct) path where `z` is preceded by an already-visited
/// (higher-ranked) AS is treated as evidence that the rest of the path is
/// `z`'s customer chain: `z` exported the route to a bigger network,
/// which (by the economics the paper leans on) it would only do for
/// customer routes. Each link of the remaining chain is inferred p2c
/// unless an earlier (higher-ranked, more trusted) inference disagrees,
/// in which case the walk stops and the conflict is recorded.
pub fn infer_topdown(
    paths: &[AsPath],
    degrees: &DegreeTable,
    clique_set: &HashSet<Asn>,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    // Index: AS → (path index, position) occurrences, with checked id
    // narrowing (L005) — a >4G-path or >4G-hop input is corrupt, not big.
    let mut occurrences: HashMap<Asn, Vec<(u32, u32)>> = HashMap::new();
    for (pi, path) in paths.iter().enumerate() {
        for (pos, asn) in path.iter().enumerate() {
            occurrences
                .entry(asn)
                .or_default()
                .push((dense_id(pi), dense_id(pos)));
        }
    }

    let mut visited: HashSet<Asn> = clique_set.clone();

    for &z in degrees.ranked() {
        let Some(occ) = occurrences.get(&z) else {
            visited.insert(z);
            continue;
        };
        for &(pi, pos) in occ {
            let hops = &paths[pi as usize].0;
            let i = pos as usize;
            // Evidence requires a higher-ranked AS on the VP side of z
            // and an unvisited (lower-ranked) AS on the origin side.
            if i == 0 || i + 1 >= hops.len() {
                continue;
            }
            if !visited.contains(&hops[i - 1]) || hops[i - 1] == z {
                continue;
            }
            if visited.contains(&hops[i + 1]) {
                continue;
            }
            // Walk the customer chain toward the origin.
            for j in i..hops.len() - 1 {
                let provider = hops[j];
                let customer = hops[j + 1];
                match rels.orientation(customer, provider) {
                    None => {
                        rels.insert_c2p(customer, provider);
                        report.c2p_from_topdown += 1;
                    }
                    Some(Orientation::Provider) => {} // agrees; keep walking
                    Some(_) => {
                        report.conflicts += 1;
                        break;
                    }
                }
            }
        }
        visited.insert(z);
    }
}

/// [`infer_topdown`] over the arena's prebuilt inverted index: the
/// occurrence list of each ranked AS comes straight from the arena
/// (ascending by path then position — the exact order the hash-map
/// index yielded), `kept` masks out S4-discarded paths, and the visited
/// set is a dense bitmask instead of a hashed `Asn` set.
///
/// A walk never overwrites a classification, so once a walk on a path
/// reaches the origin with no conflict, every link from its start on
/// agrees for the rest of the stage. `agreed[p]` keeps the earliest such
/// start; a later walk on `p` stops there, with nothing left to insert
/// or count. Agreement with the path-slice definition is pinned by unit
/// test.
pub(crate) fn infer_topdown_arena(
    arena: &PathArena,
    kept: &[bool],
    degrees: &DegreeTable,
    clique_mask: &[bool],
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    let interner = arena.interner();
    let mut visited = clique_mask.to_vec();
    let mut agreed = vec![u32::MAX; arena.len()];

    for &z in degrees.ranked() {
        // Every ranked AS appears in a sanitized path, hence in the
        // arena; skip defensively rather than panic (L002).
        let Some(zid) = interner.get(z) else { continue };
        for (pi, pos) in arena.occurrences(zid) {
            // Evidence requires a higher-ranked AS on the VP side of z
            // and an unvisited (lower-ranked) AS on the origin side. A
            // VP-side occurrence is skipped before its path is loaded.
            if pos == 0 || !kept[pi as usize] {
                continue;
            }
            let hops = arena.path(pi as usize);
            let i = pos as usize;
            if i + 1 >= hops.len() {
                continue;
            }
            if !visited[hops[i - 1] as usize] || hops[i - 1] == zid {
                continue;
            }
            if visited[hops[i + 1] as usize] {
                continue;
            }
            // Walk the customer chain toward the origin, or to where an
            // earlier walk on this path found it agreeing.
            let tail = &mut agreed[pi as usize];
            let end = (*tail as usize).min(hops.len() - 1);
            let mut complete = true;
            for j in i..end {
                let provider = interner.resolve(hops[j]);
                let customer = interner.resolve(hops[j + 1]);
                match rels.orientation(customer, provider) {
                    None => {
                        rels.insert_c2p(customer, provider);
                        report.c2p_from_topdown += 1;
                    }
                    Some(Orientation::Provider) => {} // agrees; keep walking
                    Some(_) => {
                        report.conflicts += 1;
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                *tail = (*tail).min(pos);
            }
        }
        visited[zid as usize] = true;
    }
}

/// The paper's S6 share: a first-hop neighbor must deliver at least
/// this fraction of a VP's distinct prefixes to be inferred its provider.
pub const VP_PROVIDER_SHARE: f64 = 0.35;

/// S6 — a vantage point's own links are rarely seen in descent (no other
/// path routes *through* a stub VP), so classify them from feed shares:
/// a first-hop neighbor delivering at least [`VP_PROVIDER_SHARE`] of
/// the VP's distinct prefixes is inferred to be its provider — a peer
/// would only deliver its own customer cone.
pub fn infer_vp_providers(
    sanitized: &SanitizedPaths,
    degrees: &DegreeTable,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    // Distinct-prefix evidence from one integer sort: pack each
    // qualifying sample as `network | prefix len | vp | first hop`, high
    // to low, so u128 order is `(prefix, vp, first hop)` order
    // (`Ipv4Prefix` orders by network, then length). That is a RIB
    // dump's own record order (prefix-major, peers ascending by ASN), so
    // on decoded samples the sort meets one ascending run and returns
    // after a linear scan; any other order is still correct and pays the
    // full sort. After the dedup, each key is one distinct `(prefix, vp,
    // first hop)` triple and each run of equal high 96 bits one distinct
    // `(vp, prefix)`.
    let mut keys: Vec<u128> = Vec::with_capacity(sanitized.len());
    for (vp, prefix, hops) in sanitized.iter() {
        if hops.len() < 2 || hops[0] != vp {
            continue;
        }
        keys.push(
            u128::from(prefix.network()) << 96
                | u128::from(prefix.len()) << 64
                | u128::from(vp.0) << 32
                | u128::from(hops[1].0),
        );
    }
    keys.sort_unstable();
    keys.dedup();

    // One counting pass: `totals[vp]` counts the VP's distinct prefixes,
    // `via[vp << 32 | w]` its distinct triples through first hop `w` (the
    // low 64 bits of a key). Only the few thousand distinct `(vp, w)`
    // candidates are sorted, into the order the classifier walks.
    let mut totals: FxHashMap<u32, usize> = FxHashMap::default();
    let mut via: FxHashMap<u64, usize> = FxHashMap::default();
    for run in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
        *totals.entry((run[0] >> 32) as u32).or_default() += 1;
        for &k in run {
            *via.entry(k as u64).or_default() += 1;
        }
    }
    let mut candidates: Vec<(Asn, Asn)> = via
        .keys()
        .map(|&c| (Asn((c >> 32) as u32), Asn(c as u32)))
        .collect();
    candidates.sort_unstable();

    classify_vp_providers(
        &candidates,
        |vp, w| {
            via.get(&(u64::from(vp.0) << 32 | u64::from(w.0)))
                .copied()
                .unwrap_or(0)
        },
        |vp| totals.get(&vp.0).copied().unwrap_or(0),
        degrees,
        rels,
        report,
    );
}

/// The classification half of S6, shared with the incremental engine:
/// given sorted `(vp, first hop)` candidates and closures yielding the
/// distinct-prefix evidence counts (however gathered — prefix sets here,
/// maintained counters on the delta path, identical because `(vp,
/// prefix)` samples are unique there), apply the share/degree rule in
/// candidate order. Order matters: an inserted c2p can suppress a later
/// candidate on the same link, so both callers must walk the same sorted
/// sequence.
pub(crate) fn classify_vp_providers(
    candidates: &[(Asn, Asn)],
    via_count: impl Fn(Asn, Asn) -> usize,
    total_count: impl Fn(Asn) -> usize,
    degrees: &DegreeTable,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    for &(vp, w) in candidates {
        if rels.get(vp, w).is_some() {
            continue;
        }
        let total = total_count(vp);
        if total == 0 {
            continue;
        }
        let share = via_count(vp, w) as f64 / total as f64;
        if share >= VP_PROVIDER_SHARE && degrees.transit_degree(w) >= degrees.transit_degree(vp) {
            rels.insert_c2p(vp, w);
            report.c2p_from_vps += 1;
        }
    }
}

/// The paper's S7 ratio: a c2p inference is demoted to p2p when the
/// customer's transit degree exceeds the provider's by this factor.
pub const DEGREE_FLIP_RATIO: f64 = 10.0;

/// S7 — demote c2p inferences whose customer dwarfs the provider: a
/// "customer" with [`DEGREE_FLIP_RATIO`] times the provider's transit
/// degree is overwhelmingly more likely a peer observed at a path peak
/// than an actual customer.
pub fn repair_anomalies(
    degrees: &DegreeTable,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    let offenders: Vec<(Asn, Asn)> = rels
        .c2p_pairs()
        .filter(|&(c, p)| {
            let tc = degrees.transit_degree(c);
            let tp = degrees.transit_degree(p);
            tp > 0 && tc as f64 > DEGREE_FLIP_RATIO * tp as f64 && tc >= 10
        })
        .collect();
    for (c, p) in offenders {
        rels.insert_p2p(c, p);
        report.repaired_anomalies += 1;
    }
}

/// S8 — an unclassified link between a stub (transit degree 0) and a
/// clique member is c2p: Tier-1 networks do not peer with stubs.
pub fn infer_stub_clique(
    paths: &[AsPath],
    degrees: &DegreeTable,
    clique_set: &HashSet<Asn>,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    stub_clique_over(&observed_links(paths), degrees, clique_set, rels, report);
}

/// [`infer_stub_clique`] over a precomputed sorted link list (shared
/// with S10 when running from the arena).
pub(crate) fn stub_clique_over(
    links: &[AsLink],
    degrees: &DegreeTable,
    clique_set: &HashSet<Asn>,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    for link in links {
        if rels.get(link.a, link.b).is_some() {
            continue;
        }
        let (stub, top) = if clique_set.contains(&link.a) && degrees.transit_degree(link.b) == 0 {
            (link.b, link.a)
        } else if clique_set.contains(&link.b) && degrees.transit_degree(link.a) == 0 {
            (link.a, link.b)
        } else {
            continue;
        };
        rels.insert_c2p(stub, top);
        report.c2p_stub_clique += 1;
    }
}

/// S9 — every non-clique AS that transits traffic must buy transit from
/// someone. For provider-less transit ASes, the most frequently adjacent
/// higher-ranked neighbor with an unclassified link is inferred to be a
/// provider.
pub fn infer_providerless(
    paths: &[AsPath],
    degrees: &DegreeTable,
    clique_set: &HashSet<Asn>,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    // Adjacency frequency per AS.
    let mut freq: HashMap<Asn, HashMap<Asn, usize>> = HashMap::new();
    for path in paths {
        for (a, b) in path.links() {
            *freq.entry(a).or_default().entry(b).or_default() += 1;
            *freq.entry(b).or_default().entry(a).or_default() += 1;
        }
    }

    let has_provider = |rels: &RelationshipMap, z: Asn, neigh: &HashMap<Asn, usize>| {
        neigh
            .keys()
            .any(|&w| rels.orientation(z, w) == Some(Orientation::Provider))
    };

    // Visit from the bottom of the hierarchy upward: small ASes have the
    // clearest upstream signal.
    for &z in degrees.ranked().iter().rev() {
        if clique_set.contains(&z) || degrees.transit_degree(z) == 0 {
            continue;
        }
        let Some(neigh) = freq.get(&z) else { continue };
        if has_provider(rels, z, neigh) {
            continue;
        }
        // Most frequent higher-ranked neighbor with an unclassified link.
        let mut cands: Vec<(&Asn, &usize)> = neigh
            .iter()
            .filter(|(&w, _)| {
                rels.get(z, w).is_none() && degrees.transit_degree(w) > degrees.transit_degree(z)
            })
            .collect();
        cands.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        if let Some((&w, _)) = cands.first() {
            rels.insert_c2p(z, w);
            report.c2p_providerless += 1;
        }
    }
}

/// [`infer_providerless`] over the arena: the nested
/// `HashMap<Asn, HashMap<Asn, usize>>` frequency table becomes
/// [`directed_link_counts`], read as per-source `(neighbor, count)` runs.
/// Neighbors iterate in ascending id (== ascending ASN) order, so keeping
/// the strictly-greatest count reproduces the old "max count, ties to
/// lowest ASN" sort exactly. Agreement with the path-slice definition is
/// pinned by unit test.
pub(crate) fn infer_providerless_arena(
    arena: &PathArena,
    kept: &[bool],
    degrees: &DegreeTable,
    clique_set: &HashSet<Asn>,
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    let interner = arena.interner();
    let n = interner.len();

    let table = directed_link_counts(arena, kept);
    let mut run_offsets = vec![0usize; n + 1];
    for &(pair, _) in &table {
        run_offsets[(pair >> 32) as usize + 1] += 1;
    }
    for s in 1..=n {
        run_offsets[s] += run_offsets[s - 1];
    }

    // Visit from the bottom of the hierarchy upward: small ASes have the
    // clearest upstream signal.
    for &z in degrees.ranked().iter().rev() {
        if clique_set.contains(&z) || degrees.transit_degree(z) == 0 {
            continue;
        }
        let Some(zid) = interner.get(z) else { continue };
        let run = &table[run_offsets[zid as usize]..run_offsets[zid as usize + 1]];
        if run.is_empty() {
            continue;
        }
        if run.iter().any(|&(pair, _)| {
            rels.orientation(z, interner.resolve(pair as u32)) == Some(Orientation::Provider)
        }) {
            continue;
        }
        // Most frequent higher-ranked neighbor with an unclassified link.
        let tz = degrees.transit_degree(z);
        let mut best: Option<(Asn, u32)> = None;
        for &(pair, count) in run {
            let w = interner.resolve(pair as u32);
            if rels.get(z, w).is_none() && degrees.transit_degree(w) > tz {
                let better = match best {
                    None => true,
                    Some((_, c)) => count > c,
                };
                if better {
                    best = Some((w, count));
                }
            }
        }
        if let Some((w, _)) = best {
            rels.insert_c2p(z, w);
            report.c2p_providerless += 1;
        }
    }
}

/// S10 — every observed link not yet classified is p2p. Peering links are
/// exactly the ones that never show up in a descent (peers export only
/// customer routes to each other), so this default captures them.
pub fn assign_remaining_p2p(
    paths: &[AsPath],
    rels: &mut RelationshipMap,
    report: &mut InferenceReport,
) {
    remaining_p2p_over(&observed_links(paths), rels, report);
}

/// [`assign_remaining_p2p`] over a precomputed sorted link list.
pub(crate) fn remaining_p2p_over(links: &[AsLink], rels: &mut RelationshipMap, report: &mut InferenceReport) {
    for link in links {
        if rels.get(link.a, link.b).is_none() {
            rels.insert_p2p(link.a, link.b);
            report.p2p_assigned += 1;
        }
    }
}

/// S11 — count links participating in a customer→provider cycle. A sound
/// inference has none; every counted link is an inference error the
/// validation framework will surface.
pub fn audit_cycles(rels: &RelationshipMap) -> usize {
    // lint: allow(panics, interner seeded from rels.ases covers every endpoint)
    try_audit_cycles(rels).expect("interner seeded from rels.ases covers every endpoint")
}

/// [`audit_cycles`] without the unreachable-panic shortcut: the engine's
/// S11 stage propagates the error instead of aborting the process.
pub(crate) fn try_audit_cycles(rels: &RelationshipMap) -> Result<usize, String> {
    // Dense ids over the c2p digraph, then exact SCCs: a link is on a
    // cycle iff both endpoints share a non-trivial component.
    let interner = AsnInterner::from_ases(rels.ases());
    let n = interner.len();
    let resolve = |a: Asn| {
        interner
            .get(a)
            .ok_or_else(|| format!("relationship endpoint {a} missing from its own interner"))
    };
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (c, p) in rels.c2p_pairs() {
        edges.push((resolve(c)?, resolve(p)?));
    }
    let adj = crate::csr::Csr::from_edges(n, &edges);
    let scc = crate::scc::tarjan(n, &adj);
    let mut on_cycle = 0usize;
    for &(ci, pi) in &edges {
        if scc.comp[ci as usize] == scc.comp[pi as usize] && scc.on_cycle(ci as usize) {
            on_cycle += 1;
        }
    }
    Ok(on_cycle)
}

/// Distinct links across a set of paths, in deterministic order.
fn observed_links(paths: &[AsPath]) -> Vec<AsLink> {
    let mut set: HashSet<AsLink> = HashSet::new();
    for p in paths {
        for (a, b) in p.links() {
            set.insert(AsLink::new(a, b));
        }
    }
    let mut v: Vec<AsLink> = set.into_iter().collect();
    v.sort();
    v
}

/// [`observed_links`] over the arena's kept paths: the pairs of
/// [`link_counts`], resolved. Ids ascend with ASN, so the list comes out
/// in the same `AsLink` order the hashed version sorted into.
pub(crate) fn observed_links_arena(arena: &PathArena, kept: &[bool]) -> Vec<AsLink> {
    let interner = arena.interner();
    link_counts(arena, kept)
        .iter()
        .map(|&(e, _)| {
            AsLink::new(
                interner.resolve((e >> 32) as u32),
                interner.resolve(e as u32),
            )
        })
        .collect()
}

/// Adjacency counts of the arena's kept paths: each canonical dense-id
/// pair, packed `lo << 32 | hi`, with the number of path windows that
/// cross it, ascending by pair. A hash count, not a sort: the kept paths
/// hold well over a hundred windows per distinct link (≈3.4M windows
/// over ≈18.6k links on a medium RIB), so only the distinct pairs are
/// sorted.
fn link_counts(arena: &PathArena, kept: &[bool]) -> Vec<(u64, u32)> {
    let mut counts: FxHashMap<u64, u32> = FxHashMap::default();
    for p in (0..arena.len()).filter(|&p| kept[p]) {
        for w in arena.path(p).windows(2) {
            let (lo, hi) = (w[0].min(w[1]), w[0].max(w[1]));
            *counts
                .entry(u64::from(lo) << 32 | u64::from(hi))
                .or_default() += 1;
        }
    }
    let mut pairs: Vec<(u64, u32)> = counts.into_iter().collect();
    pairs.sort_unstable();
    pairs
}

/// S9's frequency table: each [`link_counts`] entry in both directions,
/// packed `source << 32 | neighbor`, ascending. A path window crosses a
/// link in one direction, so a directed count equals its canonical one
/// (S1 leaves no window of one AS with itself).
fn directed_link_counts(arena: &PathArena, kept: &[bool]) -> Vec<(u64, u32)> {
    let counts = link_counts(arena, kept);
    let mut table: Vec<(u64, u32)> = Vec::with_capacity(2 * counts.len());
    for (pair, count) in counts {
        table.push((pair, count));
        table.push((pair.rotate_left(32), count));
    }
    table.sort_unstable();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(raw: &[&[u32]]) -> Vec<AsPath> {
        raw.iter()
            .map(|p| AsPath::from_u32s(p.iter().copied()))
            .collect()
    }

    fn degrees_for(raw: &[&[u32]]) -> DegreeTable {
        use crate::sanitize::{sanitize, SanitizeConfig};
        let ps: PathSet = raw
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect();
        DegreeTable::compute(&sanitize(&ps, &SanitizeConfig::default()))
    }

    #[test]
    fn poison_detection() {
        let clique: HashSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        assert!(is_poisoned(&AsPath::from_u32s([9, 1, 7, 2, 8]), &clique));
        assert!(!is_poisoned(&AsPath::from_u32s([9, 1, 2, 8]), &clique));
        assert!(!is_poisoned(&AsPath::from_u32s([9, 1, 7, 8]), &clique));
        assert!(!is_poisoned(&AsPath::from_u32s([1, 7, 8]), &clique));
        // Same clique AS twice would be a loop, caught by S1, not here.
    }

    #[test]
    fn discard_poisoned_counts() {
        let clique: HashSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        let mut report = InferenceReport::default();
        let kept = discard_poisoned(paths(&[&[9, 1, 7, 2], &[9, 1, 2, 8]]), &clique, &mut report);
        assert_eq!(kept.len(), 1);
        assert_eq!(report.discarded_poisoned, 1);
    }

    #[test]
    fn topdown_infers_descending_chain() {
        // Path 9 → 1 → 5 → 7: clique {1}; visiting 1 is implicit (clique
        // pre-visited); when 5 is visited, 1 (before it) is visited and 7
        // (after) is not → infer 5→7 p2c. The 1→5 link is inferred when
        // visiting 1?? — no: clique members are pre-visited, so the walk
        // happens when z=1 is dequeued in rank order with hops[i-1]=9
        // unvisited… 9 is ranked *lower*. The chain 1→5→7 is instead
        // inferred when visiting z=5: i=2, hops[1]=1 visited → walk infers
        // (5,7). The (1,5) link needs a path where 1 is preceded by a
        // visited AS: add a second clique member 2 and a path 2 1 5.
        let raw: Vec<&[u32]> = vec![&[9, 2, 1, 5, 7], &[9, 1, 5, 7]];
        let degrees = degrees_for(&raw);
        let clique: HashSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        let mut rels = RelationshipMap::new();
        rels.insert_p2p(Asn(1), Asn(2));
        let mut report = InferenceReport::default();
        infer_topdown(&paths(&raw), &degrees, &clique, &mut rels, &mut report);
        assert!(rels.is_c2p(Asn(5), Asn(1)), "5 should be 1's customer");
        assert!(rels.is_c2p(Asn(7), Asn(5)), "7 should be 5's customer");
        assert_eq!(report.c2p_from_topdown, 2);
        assert_eq!(report.conflicts, 0);
    }

    #[test]
    fn topdown_does_not_classify_peak_link() {
        // 9 → 5 → 1: ascending toward the clique; the 9–5 and 5–1 links
        // must NOT be inferred by the top-down walk (no visited AS
        // precedes 5 when it is visited… 1 comes *after* 5 here).
        let raw: Vec<&[u32]> = vec![&[9, 5, 1]];
        let degrees = degrees_for(&raw);
        let clique: HashSet<Asn> = [Asn(1)].into_iter().collect();
        let mut rels = RelationshipMap::new();
        let mut report = InferenceReport::default();
        infer_topdown(&paths(&raw), &degrees, &clique, &mut rels, &mut report);
        assert_eq!(rels.len(), 0);
        assert_eq!(report.c2p_from_topdown, 0);
    }

    #[test]
    fn topdown_conflict_stops_walk() {
        let raw: Vec<&[u32]> = vec![&[9, 2, 1, 5, 7]];
        let degrees = degrees_for(&raw);
        let clique: HashSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        let mut rels = RelationshipMap::new();
        // Pre-classify 5–7 *against* the walk: 5 is 7's customer.
        rels.insert_c2p(Asn(5), Asn(7));
        let mut report = InferenceReport::default();
        infer_topdown(&paths(&raw), &degrees, &clique, &mut rels, &mut report);
        // Walk inferred (1,5) then hit the conflict on (5,7); later
        // visits may re-encounter the same conflict.
        assert!(rels.is_c2p(Asn(5), Asn(1)));
        assert!(report.conflicts >= 1);
        // The conflicting link retains its earlier classification.
        assert!(rels.is_c2p(Asn(5), Asn(7)));
    }

    #[test]
    fn stub_clique_links_become_c2p() {
        let raw: Vec<&[u32]> = vec![&[9, 1, 5], &[9, 1, 6]];
        let degrees = degrees_for(&raw);
        let clique: HashSet<Asn> = [Asn(1)].into_iter().collect();
        let mut rels = RelationshipMap::new();
        let mut report = InferenceReport::default();
        infer_stub_clique(&paths(&raw), &degrees, &clique, &mut rels, &mut report);
        // 5, 6, 9 are stubs adjacent to clique member 1.
        assert!(rels.is_c2p(Asn(5), Asn(1)));
        assert!(rels.is_c2p(Asn(6), Asn(1)));
        assert!(rels.is_c2p(Asn(9), Asn(1)));
        assert_eq!(report.c2p_stub_clique, 3);
    }

    #[test]
    fn remaining_links_become_p2p() {
        let raw: Vec<&[u32]> = vec![&[9, 5, 7]];
        let mut rels = RelationshipMap::new();
        rels.insert_c2p(Asn(7), Asn(5));
        let mut report = InferenceReport::default();
        assign_remaining_p2p(&paths(&raw), &mut rels, &mut report);
        assert!(rels.is_p2p(Asn(9), Asn(5)));
        assert!(rels.is_c2p(Asn(7), Asn(5)), "existing inference untouched");
        assert_eq!(report.p2p_assigned, 1);
    }

    #[test]
    fn anomaly_repair_demotes_giant_customers() {
        // Transit degrees: make 5 huge and 7 tiny via synthetic paths.
        let raw: Vec<&[u32]> = vec![
            &[90, 5, 91],
            &[92, 5, 93],
            &[94, 5, 95],
            &[96, 5, 97],
            &[98, 5, 99],
            &[80, 5, 81],
            &[82, 5, 83],
            &[84, 5, 85],
            &[86, 5, 87],
            &[88, 5, 89],
            &[66, 5, 67],
            &[68, 5, 69],
            &[70, 7, 71], // 7 transits a little
        ];
        let degrees = degrees_for(&raw);
        assert!(degrees.transit_degree(Asn(5)) >= 20);
        assert_eq!(degrees.transit_degree(Asn(7)), 2);
        let mut rels = RelationshipMap::new();
        rels.insert_c2p(Asn(5), Asn(7)); // giant customer of a minnow
        let mut report = InferenceReport::default();
        repair_anomalies(&degrees, &mut rels, &mut report);
        assert!(rels.is_p2p(Asn(5), Asn(7)));
        assert_eq!(report.repaired_anomalies, 1);
    }

    #[test]
    fn providerless_transit_gets_a_provider() {
        // 5 transits (appears mid-path) but has no inferred provider;
        // 3 is its higher-ranked frequent neighbor.
        let raw: Vec<&[u32]> = vec![
            &[9, 3, 5, 7],
            &[8, 3, 5, 6],
            &[4, 3, 2, 11],
            &[12, 3, 13, 14],
        ];
        let degrees = degrees_for(&raw);
        assert!(degrees.transit_degree(Asn(3)) > degrees.transit_degree(Asn(5)));
        let clique: HashSet<Asn> = HashSet::new();
        let mut rels = RelationshipMap::new();
        let mut report = InferenceReport::default();
        infer_providerless(&paths(&raw), &degrees, &clique, &mut rels, &mut report);
        assert!(rels.is_c2p(Asn(5), Asn(3)), "{rels:?}");
        assert!(report.c2p_providerless >= 1);
    }

    #[test]
    fn cycle_audit_counts_only_cycles() {
        let mut rels = RelationshipMap::new();
        rels.insert_c2p(Asn(1), Asn(2));
        rels.insert_c2p(Asn(2), Asn(3));
        assert_eq!(audit_cycles(&rels), 0);
        rels.insert_c2p(Asn(3), Asn(1)); // 1→2→3→1
        assert_eq!(audit_cycles(&rels), 3);
        rels.insert_c2p(Asn(9), Asn(1)); // dangling customer, not in cycle
        assert_eq!(audit_cycles(&rels), 3);
    }

    #[test]
    fn vp_provider_inference_uses_share() {
        use crate::sanitize::{sanitize, SanitizeConfig};
        // VP 100 sees 10 prefixes: 8 via neighbor 5, 2 via neighbor 6.
        let mut ps = PathSet::new();
        for i in 0..8u32 {
            ps.push(PathSample {
                vp: Asn(100),
                prefix: Ipv4Prefix::new(i << 8, 24).unwrap(),
                path: AsPath::from_u32s([100, 5, 50 + i]),
            });
        }
        for i in 8..10u32 {
            ps.push(PathSample {
                vp: Asn(100),
                prefix: Ipv4Prefix::new(i << 8, 24).unwrap(),
                path: AsPath::from_u32s([100, 6, 50 + i]),
            });
        }
        let sanitized = sanitize(&ps, &SanitizeConfig::default());
        let degrees = DegreeTable::compute(&sanitized);
        let mut rels = RelationshipMap::new();
        let mut report = InferenceReport::default();
        infer_vp_providers(&sanitized, &degrees, &mut rels, &mut report);
        assert!(rels.is_c2p(Asn(100), Asn(5)), "80% share ⇒ provider");
        assert_eq!(rels.get(Asn(100), Asn(6)), None, "20% share ⇒ unknown");
        assert_eq!(report.c2p_from_vps, 1);
    }

    fn sanitized_for(raw: &[&[u32]]) -> SanitizedPaths {
        use crate::sanitize::{sanitize, SanitizeConfig};
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

    /// Pin: the arena-driven S4/S5/S9/S10 step implementations produce
    /// the exact relationship map and report counters of the retained
    /// path-slice definitions on a fixture with duplicates, a poisoned
    /// path, and a provider-less transit AS.
    #[test]
    fn arena_steps_agree_with_path_slice_steps() {
        let raw: Vec<&[u32]> = vec![
            &[9, 2, 1, 5, 7],
            &[9, 1, 5, 7],
            &[9, 1, 5, 7], // duplicate: multiplicity must not change inference
            &[8, 2, 6, 11],
            &[9, 1, 6, 11, 12],
            &[7, 5, 3, 4],
            &[9, 1, 7, 2, 8], // poisoned: non-clique 7 between clique 1 and 2
            &[10, 5, 7],
        ];
        let sanitized = sanitized_for(&raw);
        let degrees = DegreeTable::compute(&sanitized);
        let clique: HashSet<Asn> = [Asn(1), Asn(2)].into_iter().collect();
        let arena = PathArena::build(&sanitized, Parallelism::auto());

        // Reference: the pre-arena sequence — hash-dedup distinct paths,
        // sort, poison-filter, then the path-slice step functions.
        let distinct: Vec<AsPath> = {
            let set: HashSet<&[Asn]> = sanitized.paths().collect();
            let mut v: Vec<AsPath> = set.into_iter().map(|h| AsPath(h.to_vec())).collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut report_old = InferenceReport::default();
        let kept_paths = discard_poisoned(distinct, &clique, &mut report_old);
        let mut rels_old = RelationshipMap::new();
        rels_old.insert_p2p(Asn(1), Asn(2));
        infer_topdown(&kept_paths, &degrees, &clique, &mut rels_old, &mut report_old);
        infer_providerless(&kept_paths, &degrees, &clique, &mut rels_old, &mut report_old);
        assign_remaining_p2p(&kept_paths, &mut rels_old, &mut report_old);

        // Arena-driven versions of the same steps.
        let interner = arena.interner();
        let mut clique_mask = vec![false; interner.len()];
        for &a in &clique {
            if let Some(id) = interner.get(a) {
                clique_mask[id as usize] = true;
            }
        }
        let mut report_new = InferenceReport::default();
        let mut kept = vec![true; arena.len()];
        let mut discarded = 0usize;
        for (p, keep) in kept.iter_mut().enumerate() {
            if is_poisoned_ids(arena.path(p), &clique_mask) {
                *keep = false;
                discarded += 1;
            }
        }
        report_new.discarded_poisoned = discarded;
        let mut rels_new = RelationshipMap::new();
        rels_new.insert_p2p(Asn(1), Asn(2));
        infer_topdown_arena(&arena, &kept, &degrees, &clique_mask, &mut rels_new, &mut report_new);
        infer_providerless_arena(&arena, &kept, &degrees, &clique, &mut rels_new, &mut report_new);
        let links = observed_links_arena(&arena, &kept);
        assert_eq!(links, observed_links(&kept_paths));
        remaining_p2p_over(&links, &mut rels_new, &mut report_new);

        assert_eq!(report_old.discarded_poisoned, report_new.discarded_poisoned);
        assert_eq!(report_old.c2p_from_topdown, report_new.c2p_from_topdown);
        assert_eq!(report_old.conflicts, report_new.conflicts);
        assert_eq!(report_old.c2p_providerless, report_new.c2p_providerless);
        assert_eq!(report_old.p2p_assigned, report_new.p2p_assigned);
        assert_eq!(rels_old, rels_new);
        assert!(!rels_new.is_empty(), "fixture must actually infer links");
    }

    /// xorshift64: a fixed, dependency-free stream of test draws.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// S5 from the arena, with its per-path memo of agreeing tails,
    /// against the path-slice definition on random paths whose links are
    /// partly classified beforehand, so walks conflict and later walks
    /// on the same path meet those conflicts again.
    #[test]
    fn topdown_arena_matches_path_slice_under_conflicts() {
        let mut d = Draws(0x7D0_3A11);
        let (mut conflicts, mut inferred) = (0usize, 0usize);
        for case in 0..300 {
            let mut ps = PathSet::new();
            for i in 0..4 + d.below(40) as u32 {
                let mut hops: Vec<u32> = Vec::new();
                for _ in 0..2 + d.below(6) {
                    let a = 1 + d.below(12) as u32;
                    if !hops.contains(&a) {
                        hops.push(a);
                    }
                }
                ps.push(PathSample {
                    vp: Asn(hops[0]),
                    prefix: Ipv4Prefix::new(i << 8, 24).unwrap(),
                    path: AsPath::from_u32s(hops),
                });
            }
            let sanitized = crate::sanitize::sanitize(&ps, &Default::default());
            let degrees = DegreeTable::compute(&sanitized);
            let arena = PathArena::build(&sanitized, Parallelism::sequential());
            let clique: HashSet<Asn> = degrees
                .ranked()
                .iter()
                .take(d.below(3) as usize)
                .copied()
                .collect();
            let interner = arena.interner();
            let mut clique_mask = vec![false; interner.len()];
            for &a in &clique {
                clique_mask[interner.get(a).unwrap() as usize] = true;
            }
            let kept: Vec<bool> = (0..arena.len())
                .map(|p| !is_poisoned_ids(arena.path(p), &clique_mask))
                .collect();
            let kept_paths: Vec<AsPath> = (0..arena.len())
                .filter(|&p| kept[p])
                .map(|p| arena.resolve_path(p))
                .collect();
            let mut seeded = RelationshipMap::new();
            for path in &kept_paths {
                for (a, b) in path.links() {
                    match d.below(8) {
                        0 => seeded.insert_c2p(a, b),
                        1 => seeded.insert_c2p(b, a),
                        2 => seeded.insert_p2p(a, b),
                        _ => {}
                    }
                }
            }
            let (mut rels_want, mut report_want) = (seeded.clone(), InferenceReport::default());
            infer_topdown(
                &kept_paths,
                &degrees,
                &clique,
                &mut rels_want,
                &mut report_want,
            );
            let (mut rels, mut report) = (seeded, InferenceReport::default());
            infer_topdown_arena(
                &arena,
                &kept,
                &degrees,
                &clique_mask,
                &mut rels,
                &mut report,
            );
            assert_eq!(rels, rels_want, "case {case}");
            assert_eq!(report, report_want, "case {case}");
            conflicts += report.conflicts;
            inferred += report.c2p_from_topdown;
        }
        assert!(
            conflicts > 100 && inferred > 100,
            "conflicts {conflicts}, inferred {inferred}"
        );
    }

    /// S6's one-sort evidence against the two-sort tuple form it
    /// replaced, written out here. The engine and `infer_monolithic`
    /// both call [`infer_vp_providers`], so no equivalence suite can see
    /// an S6 bug; this is S6's own oracle.
    mod vp_providers_oracle {
        use super::*;
        use std::collections::HashMap;

        /// The tuple form: one `(vp, first hop, prefix)` triple per
        /// qualifying sample, sorted and deduped; `via` is each `(vp, w)`
        /// run's length, and `totals` counts the distinct `(vp, prefix)`
        /// pairs after a second sort and dedup. Also tallies, into
        /// `sides`, the candidate shares below and at or above the
        /// threshold.
        fn two_sorts(
            sanitized: &SanitizedPaths,
            degrees: &DegreeTable,
            rels: &mut RelationshipMap,
            report: &mut InferenceReport,
            sides: &mut [usize; 2],
        ) {
            let mut triples: Vec<(Asn, Asn, Ipv4Prefix)> = sanitized
                .iter()
                .filter(|(vp, _, hops)| hops.len() >= 2 && hops[0] == *vp)
                .map(|(vp, prefix, hops)| (vp, hops[1], prefix))
                .collect();
            triples.sort_unstable();
            triples.dedup();
            let mut candidates: Vec<(Asn, Asn)> = Vec::new();
            let mut via: HashMap<(Asn, Asn), usize> = HashMap::new();
            for &(vp, w, _) in &triples {
                if candidates.last() != Some(&(vp, w)) {
                    candidates.push((vp, w));
                }
                *via.entry((vp, w)).or_default() += 1;
            }
            let mut vp_prefixes: Vec<(Asn, Ipv4Prefix)> =
                triples.iter().map(|&(vp, _, p)| (vp, p)).collect();
            vp_prefixes.sort_unstable();
            vp_prefixes.dedup();
            let mut totals: HashMap<Asn, usize> = HashMap::new();
            for &(vp, _) in &vp_prefixes {
                *totals.entry(vp).or_default() += 1;
            }
            for (vp, w) in &candidates {
                let share = via[&(*vp, *w)] as f64 / totals[vp] as f64;
                sides[usize::from(share >= VP_PROVIDER_SHARE)] += 1;
            }
            classify_vp_providers(
                &candidates,
                |vp, w| via[&(vp, w)],
                |vp| totals.get(&vp).copied().unwrap_or(0),
                degrees,
                rels,
                report,
            );
        }

        type Sample = (Asn, Ipv4Prefix, Vec<Asn>);

        /// Samples from three VPs over eight prefixes and six first hops.
        /// Draws repeat the previous sample exactly, or keep its
        /// `(vp, prefix)` under a different first hop, or start the path
        /// at an AS that is not the VP.
        fn draw_samples(d: &mut Draws) -> (Vec<Sample>, [usize; 3]) {
            let mut out = Vec::new();
            // (exact duplicates, re-routed (vp, prefix) keys, foreign heads)
            let mut kinds = [0usize; 3];
            let n = 5 + d.below(60);
            let mut prev: Option<(Asn, Ipv4Prefix, Vec<Asn>)> = None;
            for _ in 0..n {
                let sample = match (d.below(6), &prev) {
                    (0, Some(p)) => {
                        kinds[0] += 1;
                        p.clone()
                    }
                    (1, Some((vp, prefix, hops))) => {
                        kinds[1] += 1;
                        let w = Asn(1 + (hops[1].0 + d.below(5) as u32) % 6);
                        (*vp, *prefix, vec![*vp, w, Asn(50 + d.below(4) as u32)])
                    }
                    _ => {
                        let vp = Asn(100 * (1 + d.below(3) as u32));
                        let prefix = Ipv4Prefix::new((d.below(8) as u32) << 8, 24).unwrap();
                        let head = if d.below(8) == 0 {
                            kinds[2] += 1;
                            Asn(vp.0 + 1)
                        } else {
                            vp
                        };
                        let mut hops = vec![head, Asn(1 + d.below(6) as u32)];
                        for _ in 0..d.below(3) {
                            hops.push(Asn(50 + d.below(4) as u32));
                        }
                        (vp, prefix, hops)
                    }
                };
                out.push(sample.clone());
                prev = Some(sample);
            }
            (out, kinds)
        }

        fn sanitized_of(samples: &[Sample]) -> SanitizedPaths {
            let mut out = SanitizedPaths::default();
            for (vp, prefix, hops) in samples {
                out.push(*vp, *prefix, hops);
            }
            out
        }

        /// The sample orders S6 must agree on: the drawn order with one
        /// VP-headed `(vp, prefix)` repeated at the end under another
        /// first hop, far from its first sample; that list shuffled; and
        /// that list in prefix-major order, `(prefix, vp, hops)`, the
        /// order in which S6's key sort meets one ascending run.
        fn orders(d: &mut Draws, mut drawn: Vec<Sample>) -> [Vec<Sample>; 3] {
            if let Some((vp, prefix, hops)) = drawn.iter().find(|s| s.2[0] == s.0).cloned() {
                let w = Asn(1 + hops[1].0 % 6);
                drawn.push((vp, prefix, vec![vp, w, Asn(60)]));
            }
            let mut shuffled = drawn.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, d.below(i as u64 + 1) as usize);
            }
            let mut prefix_major = drawn.clone();
            prefix_major.sort_by(|a, b| (a.1, a.0, &a.2).cmp(&(b.1, b.0, &b.2)));
            [drawn, shuffled, prefix_major]
        }

        #[test]
        fn one_sort_matches_two_sorts() {
            let mut d = Draws(0x5EED_0F56);
            let mut sides = [0usize; 2];
            let mut kinds = [0usize; 3];
            let mut inferred = 0usize;
            // (non-adjacent repeats of a (vp, prefix), shuffles that are
            // not prefix-major)
            let mut shapes = [0usize; 2];
            for case in 0..400 {
                let (drawn, k) = draw_samples(&mut d);
                for (total, n) in kinds.iter_mut().zip(k) {
                    *total += n;
                }
                let orders = orders(&mut d, drawn);
                let [drawn, shuffled, prefix_major] = &orders;
                let key = |s: &Sample| (s.1, s.0);
                let first = drawn
                    .iter()
                    .position(|s| key(s) == key(&drawn[drawn.len() - 1]));
                shapes[0] += usize::from(first.is_some_and(|i| i + 1 < drawn.len() - 1));
                shapes[1] += usize::from(shuffled != prefix_major);
                let sanitized = sanitized_of(drawn);
                let degrees = DegreeTable::compute(&sanitized);
                // Some cases hold a relationship on a VP link already, so
                // the classifier's skip is exercised too.
                let mut seeded = RelationshipMap::new();
                if case % 4 == 0 {
                    seeded.insert_p2p(Asn(100), Asn(1 + d.below(6) as u32));
                }
                let (mut rels_want, mut report_want) = (seeded.clone(), InferenceReport::default());
                two_sorts(
                    &sanitized,
                    &degrees,
                    &mut rels_want,
                    &mut report_want,
                    &mut sides,
                );
                inferred += report_want.c2p_from_vps;
                for (order, samples) in ["drawn", "shuffled", "prefix-major"].iter().zip(&orders) {
                    let sanitized = sanitized_of(samples);
                    let (mut rels, mut report) = (seeded.clone(), InferenceReport::default());
                    infer_vp_providers(&sanitized, &degrees, &mut rels, &mut report);
                    assert_eq!(rels, rels_want, "case {case}, {order} order");
                    assert_eq!(report, report_want, "case {case}, {order} order");
                }
            }
            assert!(
                sides[0] > 0 && sides[1] > 0,
                "shares on both sides: {sides:?}"
            );
            assert!(
                kinds.iter().all(|&k| k > 0),
                "every draw kind occurs: {kinds:?}"
            );
            assert!(
                shapes.iter().all(|&k| k > 300),
                "repeats and shuffles occur: {shapes:?}"
            );
            assert!(inferred > 0, "some VP provider is inferred");
        }
    }

    /// S9's frequency table and the observed link list against the
    /// packed sort + run-length form they replaced, written out here,
    /// over random arenas and `kept` masks. Paths may revisit an AS, so a
    /// link can be crossed twice in one path and must count twice.
    mod link_counts_oracle {
        use super::*;

        /// The replaced form: every kept window once per direction for
        /// S9 (sorted, run-length encoded into `(pair, count)`), and once
        /// canonically for the links (sorted, deduped, resolved).
        fn packed_sort(arena: &PathArena, kept: &[bool]) -> (Vec<(u64, u32)>, Vec<AsLink>) {
            let mut directed: Vec<u64> = Vec::new();
            let mut canonical: Vec<u64> = Vec::new();
            for p in (0..arena.len()).filter(|&p| kept[p]) {
                for w in arena.path(p).windows(2) {
                    directed.push((w[0] as u64) << 32 | w[1] as u64);
                    directed.push((w[1] as u64) << 32 | w[0] as u64);
                    let (lo, hi) = (w[0].min(w[1]), w[0].max(w[1]));
                    canonical.push((lo as u64) << 32 | hi as u64);
                }
            }
            directed.sort_unstable();
            let table = directed
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u32))
                .collect();
            canonical.sort_unstable();
            canonical.dedup();
            let interner = arena.interner();
            let links = canonical
                .iter()
                .map(|&e| {
                    AsLink::new(
                        interner.resolve((e >> 32) as u32),
                        interner.resolve(e as u32),
                    )
                })
                .collect();
            (table, links)
        }

        /// Up to 30 paths of 1–7 hops over up to 12 ASes (ASNs ascending
        /// with id, as the arena's interner assigns them), no hop
        /// repeated back to back, as S1 guarantees, and a random mask.
        fn draw_arena(d: &mut Draws) -> (PathArena, Vec<bool>) {
            let n = 2 + d.below(11) as u32;
            let interner = AsnInterner::from_ases((0..n).map(|i| Asn(64_500 + 7 * i)));
            let (mut offsets, mut ids) = (vec![0u32], Vec::new());
            let paths = d.below(31) as usize;
            for _ in 0..paths {
                let mut prev = None;
                for _ in 0..1 + d.below(7) {
                    let mut id = d.below(u64::from(n)) as u32;
                    if prev == Some(id) {
                        id = (id + 1) % n;
                    }
                    ids.push(id);
                    prev = Some(id);
                }
                offsets.push(ids.len() as u32);
            }
            let kept = (0..paths).map(|_| d.below(5) != 0).collect();
            (PathArena::from_raw(interner, offsets, ids), kept)
        }

        #[test]
        fn counted_table_and_links_match_packed_sort() {
            let mut d = Draws(0x11AC_C0DE);
            // (links crossed twice by one kept path, paths masked out)
            let mut shapes = [0usize; 2];
            for case in 0..500 {
                let (arena, kept) = draw_arena(&mut d);
                let (table, links) = packed_sort(&arena, &kept);
                assert_eq!(directed_link_counts(&arena, &kept), table, "case {case}");
                assert_eq!(observed_links_arena(&arena, &kept), links, "case {case}");
                for p in (0..arena.len()).filter(|&p| kept[p]) {
                    let mut seen: Vec<(u32, u32)> = arena
                        .path(p)
                        .windows(2)
                        .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
                        .collect();
                    let windows = seen.len();
                    seen.sort_unstable();
                    seen.dedup();
                    shapes[0] += usize::from(seen.len() < windows);
                }
                shapes[1] += kept.iter().filter(|&&k| !k).count();
            }
            assert!(
                shapes.iter().all(|&k| k > 100),
                "loops and masks occur: {shapes:?}"
            );
        }
    }
}
