//! Step S3 — Tier-1 clique inference.
//!
//! The top of the transit hierarchy is a set of networks that peer with
//! one another and buy transit from nobody — the Tier-1 clique. The paper
//! infers it by taking the ASes with the largest transit degrees and
//! finding the largest clique (via Bron-Kerbosch) in their observed
//! adjacency graph, seeded to contain the AS with the largest transit
//! degree. Everything downstream leans on this anchor: clique-to-clique
//! links are p2p by construction and the top-down c2p propagation starts
//! from the clique.

use crate::degree::DegreeTable;
use crate::patharena::PathArena;
use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Clique inference parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CliqueConfig {
    /// How many top-transit-degree ASes to consider as clique candidates.
    pub candidates: usize,
    /// Require the seed (largest transit degree AS) to be in the clique.
    pub require_seed: bool,
}

impl Default for CliqueConfig {
    fn default() -> Self {
        CliqueConfig {
            candidates: 25,
            require_seed: true,
        }
    }
}

/// Infer the Tier-1 clique. Returns members sorted by ASN.
///
/// Among all maximal cliques of the candidate adjacency graph (restricted
/// to links actually observed in paths), the one with the largest total
/// transit degree wins — size alone would favor accidental dense pockets
/// of mid-size ASes over the true top of the hierarchy.
pub fn infer_clique(paths: &SanitizedPaths, degrees: &DegreeTable, cfg: &CliqueConfig) -> Vec<Asn> {
    let candidates = clique_candidates(degrees, cfg);
    if candidates.is_empty() {
        return Vec::new();
    }
    let index: HashMap<Asn, usize> = candidates
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i))
        .collect();

    // Observed adjacency restricted to the candidates.
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); candidates.len()];
    for path in paths.paths() {
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
                adj[ia].insert(ib);
                adj[ib].insert(ia);
            }
        }
    }

    clique_from_adjacency(&candidates, &adj, degrees, cfg)
}

/// [`infer_clique`] over the arena's distinct paths — the S3 stage body.
/// Every candidate link shows up as one candidate directly followed by
/// another on some distinct path, so walking each candidate's own
/// occurrences and looking its next hop up in a dense slot table
/// recovers the observed adjacency without scanning any other path.
pub(crate) fn infer_clique_from_arena(
    arena: &PathArena,
    degrees: &DegreeTable,
    cfg: &CliqueConfig,
) -> Vec<Asn> {
    let candidates = clique_candidates(degrees, cfg);
    let interner = arena.interner();
    // Candidates as `(candidate index, dense id)`; `slot[id]` is the
    // candidate index + 1, 0 when the id is not a candidate.
    let present: Vec<(usize, u32)> = candidates
        .iter()
        .enumerate()
        .filter_map(|(i, &a)| interner.get(a).map(|id| (i, id)))
        .collect();
    let mut slot = vec![0usize; interner.len()];
    for &(i, id) in &present {
        slot[id as usize] = i + 1;
    }
    let mut adj: Vec<HashSet<usize>> = vec![HashSet::new(); candidates.len()];
    for &(i, id) in &present {
        for (p, pos) in arena.occurrences(id) {
            let next = arena.path(p as usize).get(pos as usize + 1);
            if let Some(j) = next.and_then(|&b| slot[b as usize].checked_sub(1)) {
                adj[i].insert(j);
                adj[j].insert(i);
            }
        }
    }
    clique_from_adjacency(&candidates, &adj, degrees, cfg)
}

/// Candidate list shared by [`infer_clique`] and the arena form:
/// the `cfg.candidates` highest-ranked ASes with nonzero transit degree.
pub(crate) fn clique_candidates(degrees: &DegreeTable, cfg: &CliqueConfig) -> Vec<Asn> {
    degrees
        .ranked()
        .iter()
        .copied()
        .filter(|&a| degrees.transit_degree(a) > 0)
        .take(cfg.candidates)
        .collect()
}

/// The adjacency-independent core of [`infer_clique`]: given the
/// candidate list and their observed adjacency (however it was built —
/// a full path scan, or the arena's inverted index), run the
/// deterministic Bron-Kerbosch search and tie-breaks.
/// Splitting here keeps both callers byte-identical by construction.
pub(crate) fn clique_from_adjacency(
    candidates: &[Asn],
    adj: &[HashSet<usize>],
    degrees: &DegreeTable,
    cfg: &CliqueConfig,
) -> Vec<Asn> {
    if candidates.is_empty() {
        return Vec::new();
    }
    // Bron-Kerbosch with pivoting, collecting maximal cliques.
    let mut best: Vec<usize> = Vec::new();
    let mut best_score: (usize, usize) = (0, 0); // (total transit degree, size)
    let score = |clique: &[usize]| -> (usize, usize) {
        (
            clique
                .iter()
                .map(|&i| degrees.transit_degree(candidates[i]))
                .sum(),
            clique.len(),
        )
    };

    let mut r: Vec<usize> = Vec::new();
    let p: HashSet<usize> = (0..candidates.len()).collect();
    let x: HashSet<usize> = HashSet::new();
    bron_kerbosch(adj, &mut r, p, x, &mut |clique: &[usize]| {
        if cfg.require_seed && !clique.contains(&0) {
            return;
        }
        let s = score(clique);
        // Equal-score ties go to the lexicographically smallest sorted
        // index set, so the winner is independent of the order
        // Bron-Kerbosch happens to enumerate maximal cliques in.
        let mut members = clique.to_vec();
        members.sort_unstable();
        if s > best_score || (s == best_score && !best.is_empty() && members < best) {
            best_score = s;
            best = members;
        }
    });

    // Fall back to the seed alone if nothing qualified (e.g. the seed is
    // isolated among candidates — degenerate but must not return empty).
    if best.is_empty() && cfg.require_seed {
        best.push(0);
    }

    let mut out: Vec<Asn> = best.into_iter().map(|i| candidates[i]).collect();
    out.sort();
    out
}

/// Classic Bron-Kerbosch with pivot selection by maximum degree in `p ∪ x`.
fn bron_kerbosch(
    adj: &[HashSet<usize>],
    r: &mut Vec<usize>,
    p: HashSet<usize>,
    x: HashSet<usize>,
    report: &mut impl FnMut(&[usize]),
) {
    if p.is_empty() && x.is_empty() {
        report(r);
        return;
    }
    // Pivot: vertex in P ∪ X with the most neighbors in P; ties broken
    // toward the smallest vertex so the recursion shape never depends on
    // hash-set iteration order.
    let pivot = p
        .iter()
        .chain(x.iter())
        .copied()
        .max_by_key(|&u| (adj[u].intersection(&p).count(), std::cmp::Reverse(u)));
    let expand: Vec<usize> = match pivot {
        Some(u) => p.iter().copied().filter(|v| !adj[u].contains(v)).collect(),
        None => p.iter().copied().collect(),
    };
    let mut p = p;
    let mut x = x;
    let mut expand = expand;
    expand.sort_unstable(); // deterministic recursion order
    for v in expand {
        let np: HashSet<usize> = p.intersection(&adj[v]).copied().collect();
        let nx: HashSet<usize> = x.intersection(&adj[v]).copied().collect();
        r.push(v);
        bron_kerbosch(adj, r, np, nx, report);
        r.pop();
        p.remove(&v);
        x.insert(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{sanitize, SanitizeConfig};

    /// Build a path set where ASes 1, 2, 3 form a fully-meshed top (each
    /// pair adjacent in some path, each with high transit degree) and
    /// 4, 5 are mid-tier.
    fn clique_paths() -> SanitizedPaths {
        let raw: Vec<&[u32]> = vec![
            // Clique adjacencies with transit positions for 1, 2, 3.
            &[40, 1, 2, 50],
            &[41, 2, 3, 51],
            &[42, 1, 3, 52],
            &[43, 3, 1, 53],
            &[44, 2, 1, 54],
            // Give 1, 2, 3 more transit neighbors than anyone else.
            &[45, 1, 55],
            &[46, 1, 56],
            &[47, 2, 57],
            &[48, 2, 58],
            &[49, 3, 59],
            &[60, 3, 61],
            // Mid-tier 4 and 5: some transit, attached below the clique.
            &[62, 4, 1, 63],
            &[64, 5, 2, 65],
        ];
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
    fn finds_planted_clique() {
        let paths = clique_paths();
        let degrees = DegreeTable::compute(&paths);
        let clique = infer_clique(&paths, &degrees, &CliqueConfig::default());
        assert_eq!(clique, vec![Asn(1), Asn(2), Asn(3)]);
    }

    #[test]
    fn candidate_cap_respected() {
        let paths = clique_paths();
        let degrees = DegreeTable::compute(&paths);
        let cfg = CliqueConfig {
            candidates: 1,
            require_seed: true,
        };
        let clique = infer_clique(&paths, &degrees, &cfg);
        assert_eq!(clique.len(), 1, "only the seed fits in one candidate");
    }

    #[test]
    fn empty_input_gives_empty_clique() {
        let paths = SanitizedPaths::default();
        let degrees = DegreeTable::compute(&paths);
        assert!(infer_clique(&paths, &degrees, &CliqueConfig::default()).is_empty());
    }

    #[test]
    fn clique_members_are_pairwise_adjacent_in_paths() {
        let paths = clique_paths();
        let degrees = DegreeTable::compute(&paths);
        let clique = infer_clique(&paths, &degrees, &CliqueConfig::default());
        let links: HashSet<AsLink> = paths
            .paths()
            .flat_map(|p| p.windows(2).map(|w| AsLink::new(w[0], w[1])))
            .collect();
        for (i, &a) in clique.iter().enumerate() {
            for &b in &clique[i + 1..] {
                assert!(
                    links.contains(&AsLink::new(a, b)),
                    "{a} and {b} inferred as clique but never adjacent"
                );
            }
        }
    }

    #[test]
    fn isolated_seed_falls_back_to_singleton() {
        // One path gives AS 2 transit degree but no candidate adjacency
        // (1 and 3 are endpoints with transit degree 0 → not candidates…
        // they are candidates only if transit degree > 0).
        let ps: PathSet = [PathSample {
            vp: Asn(1),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: AsPath::from_u32s([1, 2, 3]),
        }]
        .into_iter()
        .collect();
        let paths = sanitize(&ps, &SanitizeConfig::default());
        let degrees = DegreeTable::compute(&paths);
        let clique = infer_clique(&paths, &degrees, &CliqueConfig::default());
        assert_eq!(clique, vec![Asn(2)]);
    }

    /// The engine's arena forms of S2 and S3 against the path-slice
    /// definitions the monolithic pipeline runs.
    mod arena_oracle {
        use super::*;
        use crate::patharena::PathArena;
        use proptest::prelude::*;

        /// Random paths over ASNs 1..60 whose hops land on the hubs 1–4
        /// a third of the time (dense hub-to-hub adjacency for the
        /// clique), plus a fan of `n` paths `100+i hub 200+i` that gives
        /// one hub transit degree ≥ 10 by construction.
        fn raw_paths() -> impl Strategy<Value = Vec<Vec<u32>>> {
            let hop = (0u32..3, 1u32..60).prop_map(|(k, a)| if k == 0 { 1 + a % 4 } else { a });
            (
                proptest::collection::vec(proptest::collection::vec(hop, 2..7), 10..60),
                1u32..5,
                5u32..15,
            )
                .prop_map(|(mut paths, hub, n)| {
                    paths.extend((0..n).map(|i| vec![100 + i, hub, 200 + i]));
                    paths
                })
        }

        proptest! {
            #[test]
            fn arena_forms_match_path_forms(
                raw in raw_paths(),
                candidates in 1usize..30,
                require_seed in 0u8..2,
            ) {
                let ps: PathSet = raw
                    .iter()
                    .enumerate()
                    .map(|(i, p)| PathSample {
                        vp: Asn(p[0]),
                        prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                        path: AsPath::from_u32s(p.iter().copied()),
                    })
                    .collect();
                let sanitized = sanitize(&ps, &SanitizeConfig::default());
                let degrees = DegreeTable::compute(&sanitized);
                let top = degrees.ranked().first().map_or(0, |&a| degrees.transit_degree(a));
                prop_assert!(top >= 10, "generator missed the high-degree regime: {}", top);
                let cfg = CliqueConfig { candidates, require_seed: require_seed == 1 };
                let clique = infer_clique(&sanitized, &degrees, &cfg);
                for par in [Parallelism::sequential(), Parallelism::threads(4)] {
                    let arena = PathArena::build(&sanitized, par);
                    let arena_degrees = DegreeTable::from_arena(&arena);
                    prop_assert_eq!(&arena_degrees, &degrees);
                    prop_assert_eq!(infer_clique_from_arena(&arena, &arena_degrees, &cfg), clique.clone());
                }
            }
        }
    }
}
