//! Step S2 — transit degree and AS ranking.
//!
//! The pipeline's visiting order is governed by **transit degree**: the
//! number of distinct neighbors an AS is observed *providing transit
//! between* — i.e., neighbors adjacent to the AS at path positions where
//! the AS is in the middle. Transit degree is a far better proxy for
//! position in the hierarchy than plain node degree, because a stub with
//! many peers still has transit degree zero. Ties break by node degree,
//! then by lower ASN (the paper's ordering).
//!
//! Both degrees are defined over the *set* of observed paths, so the
//! engine computes them from the path arena's distinct paths
//! ([`DegreeTable::from_arena`]); [`DegreeTable::compute`] is the
//! path-slice definition the monolithic pipeline runs and the
//! equivalence tests pin the arena form against.

use crate::patharena::PathArena;
use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use std::collections::{HashMap, HashSet};

/// Per-AS degree information derived from sanitized paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegreeTable {
    transit: HashMap<Asn, usize>,
    node: HashMap<Asn, usize>,
    /// ASes sorted by (transit degree desc, node degree desc, ASN asc).
    ranked: Vec<Asn>,
}

impl DegreeTable {
    /// Compute degrees over a sanitized dataset.
    pub fn compute(paths: &SanitizedPaths) -> Self {
        let mut transit_sets: HashMap<Asn, HashSet<Asn>> = HashMap::new();
        let mut node_sets: HashMap<Asn, HashSet<Asn>> = HashMap::new();

        for hops in paths.paths() {
            for (i, &asn) in hops.iter().enumerate() {
                if i > 0 {
                    node_sets.entry(asn).or_default().insert(hops[i - 1]);
                }
                if i + 1 < hops.len() {
                    node_sets.entry(asn).or_default().insert(hops[i + 1]);
                }
                if i > 0 && i + 1 < hops.len() {
                    let set = transit_sets.entry(asn).or_default();
                    set.insert(hops[i - 1]);
                    set.insert(hops[i + 1]);
                }
            }
        }

        let transit: HashMap<Asn, usize> = node_sets
            .keys()
            .map(|&a| (a, transit_sets.get(&a).map(HashSet::len).unwrap_or(0)))
            .collect();
        let node: HashMap<Asn, usize> = node_sets.iter().map(|(&a, s)| (a, s.len())).collect();

        let mut ranked: Vec<Asn> = node.keys().copied().collect();
        ranked.sort_by(|a, b| {
            let ta = transit[a];
            let tb = transit[b];
            tb.cmp(&ta)
                .then_with(|| node[b].cmp(&node[a]))
                .then_with(|| a.cmp(b))
        });

        DegreeTable {
            transit,
            node,
            ranked,
        }
    }

    /// [`DegreeTable::compute`] over the arena's distinct paths — the S2
    /// stage body. For each dense id the inverted index yields every
    /// `(path, position)` occurrence; the hops at `position ± 1` are its
    /// node neighbours, and both count as transit neighbours when the id
    /// sits mid-path. Two stamp arrays count distinct neighbours without
    /// hashing.
    ///
    /// The AS set is the same as the path-slice form's: sanitized paths
    /// have at least two hops, so every interned hop has a nonzero node
    /// degree. The bulk interner assigns ids in ascending ASN order, so
    /// ranking ids by (transit desc, node desc, id asc) is the paper's
    /// order.
    pub fn from_arena(arena: &PathArena) -> Self {
        let n = arena.num_ases();
        let mut transit = vec![0usize; n];
        let mut node = vec![0usize; n];
        // `*_seen[b] == a + 1` once neighbour `b` has been counted for `a`.
        let mut node_seen = vec![0u32; n];
        let mut transit_seen = vec![0u32; n];
        for a in 0..n {
            let stamp = dense_id(a + 1);
            for (p, pos) in arena.occurrences(dense_id(a)) {
                let hops = arena.path(p as usize);
                let pos = pos as usize;
                let mid = pos > 0 && pos + 1 < hops.len();
                let before = pos.checked_sub(1);
                let after = Some(pos + 1).filter(|&j| j < hops.len());
                for j in before.into_iter().chain(after) {
                    let b = hops[j] as usize;
                    if node_seen[b] != stamp {
                        node_seen[b] = stamp;
                        node[a] += 1;
                    }
                    if mid && transit_seen[b] != stamp {
                        transit_seen[b] = stamp;
                        transit[a] += 1;
                    }
                }
            }
        }
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_unstable_by(|&a, &b| {
            transit[b]
                .cmp(&transit[a])
                .then_with(|| node[b].cmp(&node[a]))
                .then_with(|| a.cmp(&b))
        });
        let interner = arena.interner();
        Self::from_ranked_entries(
            ranked
                .into_iter()
                .map(|a| (interner.resolve(dense_id(a)), transit[a], node[a])),
        )
    }

    /// Rebuild a table from its canonical serialized form: one
    /// `(asn, transit degree, node degree)` entry per observed AS, in
    /// `ranked` order. The three internal collections share one key set
    /// by construction, so this is a lossless inverse of walking
    /// [`DegreeTable::ranked`] with the degree accessors — the persistent
    /// artifact codec's decode path. The caller owns the ordering
    /// invariant; only [`DegreeTable::compute`] and
    /// [`DegreeTable::from_arena`] establish it from scratch.
    pub fn from_ranked_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Asn, usize, usize)>,
    {
        let mut transit = HashMap::new();
        let mut node = HashMap::new();
        let mut ranked = Vec::new();
        for (asn, t, n) in entries {
            transit.insert(asn, t);
            node.insert(asn, n);
            ranked.push(asn);
        }
        DegreeTable {
            transit,
            node,
            ranked,
        }
    }

    /// Transit degree of `asn` (0 for unknown ASes).
    pub fn transit_degree(&self, asn: Asn) -> usize {
        self.transit.get(&asn).copied().unwrap_or(0)
    }

    /// Node degree of `asn` (0 for unknown ASes).
    pub fn node_degree(&self, asn: Asn) -> usize {
        self.node.get(&asn).copied().unwrap_or(0)
    }

    /// ASes in visiting order (highest transit degree first).
    pub fn ranked(&self) -> &[Asn] {
        &self.ranked
    }

    /// Rank position of `asn` (0 = highest), if observed.
    pub fn position(&self, asn: Asn) -> Option<usize> {
        // Linear scan is fine for tests/reports; hot paths use `ranked()`.
        self.ranked.iter().position(|&a| a == asn)
    }

    /// Number of ASes observed.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when no AS was observed.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// ASes with zero transit degree (the edge of the Internet).
    pub fn stubs(&self) -> impl Iterator<Item = Asn> + '_ {
        self.ranked
            .iter()
            .copied()
            .filter(move |&a| self.transit_degree(a) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{sanitize, SanitizeConfig};

    fn table(paths: &[&[u32]]) -> DegreeTable {
        let ps: PathSet = paths
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
    fn transit_degree_counts_middle_positions_only() {
        // 2 transits between 1 and 3; 1 and 3 are endpoints everywhere.
        let t = table(&[&[1, 2, 3]]);
        assert_eq!(t.transit_degree(Asn(2)), 2);
        assert_eq!(t.transit_degree(Asn(1)), 0);
        assert_eq!(t.transit_degree(Asn(3)), 0);
        assert_eq!(t.node_degree(Asn(2)), 2);
        assert_eq!(t.node_degree(Asn(1)), 1);
    }

    #[test]
    fn transit_neighbors_accumulate_across_paths() {
        let t = table(&[&[1, 2, 3], &[4, 2, 5], &[1, 2, 5]]);
        // 2's transit neighbors: 1, 3, 4, 5.
        assert_eq!(t.transit_degree(Asn(2)), 4);
    }

    #[test]
    fn ranking_prefers_transit_then_node_then_asn() {
        // 5 has transit degree 2; 9 and 7 have 0.
        // 9 has node degree 1; 7 has node degree 1 → tie broken by ASN.
        let t = table(&[&[9, 5, 7]]);
        assert_eq!(t.ranked()[0], Asn(5));
        assert_eq!(t.ranked()[1], Asn(7));
        assert_eq!(t.ranked()[2], Asn(9));
        assert_eq!(t.position(Asn(5)), Some(0));
    }

    #[test]
    fn stub_detection() {
        let t = table(&[&[1, 2, 3]]);
        let stubs: Vec<Asn> = t.stubs().collect();
        assert_eq!(stubs, vec![Asn(1), Asn(3)]);
    }

    #[test]
    fn endpoint_of_one_path_middle_of_another() {
        let t = table(&[&[1, 2], &[3, 1, 4]]);
        // 1 is an endpoint in path 0 but transits in path 1.
        assert_eq!(t.transit_degree(Asn(1)), 2);
        assert_eq!(t.node_degree(Asn(1)), 3);
    }

    #[test]
    fn empty_input() {
        let t = table(&[]);
        assert!(t.is_empty());
        assert_eq!(t.transit_degree(Asn(1)), 0);
    }
}
