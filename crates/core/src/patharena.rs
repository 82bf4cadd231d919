//! The interned path arena — the shared, deduplicated path substrate.
//!
//! Every path-consuming stage of the system (S4/S5 top-down inference,
//! the two path-observed cone definitions, valley-free grading, the
//! audit) needs the same three things from [`SanitizedPaths`]: the
//! *distinct* paths, a dense-id encoding of their hops, and — for the
//! rank-ordered S5 walk — an inverted index from AS to the paths that
//! contain it. Before this module each consumer rebuilt those views
//! independently (a `HashSet<&AsPath>` + clone here, an interner +
//! `Vec<Vec<u32>>` sort there), so the pipeline paid for parsing,
//! hashing, and deduplicating the same paths several times over.
//!
//! [`PathArena`] performs that work exactly once:
//!
//! * **Dedup and intern in one hash pass, then sort the distinct
//!   paths.** One pass over S1's flat hop buffer inserts each `Asn` hop
//!   slice into an `FxHashSet`; how often a path repeats is not kept, as
//!   repeats add no relationship evidence. A path seen for the first time
//!   gets provisional ids from a small ASN map, in first-seen order,
//!   copied into a compact distinct-hop buffer; no sample's hops are
//!   copied. The few distinct ASNs are then sorted and the provisional
//!   ids remapped, so dense ids ascend with ASN (the [`AsnInterner`]
//!   numbering) and lexicographic order of id slices equals
//!   lexicographic order of ASN slices. Only
//!   the distinct paths are sorted, so the arena's path order is
//!   *identical* to the old `sort_by(|a, b| a.0.cmp(&b.0))` over cloned
//!   `AsPath`s, and downstream traversal order (and hence every
//!   inference) is bit-for-bit unchanged.
//! * **Sharded by hash.** Each worker owns the distinct paths of one
//!   hash shard: it reads every sample but dedups, interns and sorts only
//!   its own paths. The sorted shards are merged under the same total
//!   order, so the arena is bit-identical for every thread count.
//! * **CSR flattening.** Distinct paths live in one `offsets`/`ids`
//!   arena of dense `u32` ids: path `p` is `ids[offsets[p]..offsets[p+1]]`.
//!   No per-path heap allocation survives the build.
//! * **Inverted index.** A counting sort over the flat `ids` produces,
//!   for every dense id, the `(path, position)` occurrences packed into
//!   one `u64` each — ascending by path then position, matching the
//!   insertion order of the hash-map index it replaces.

use crate::par;
use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use asrank_types::{FxHashMap, FxHashSet};

/// Deduplicated, interned, CSR-flattened view of a sanitized path set.
///
/// See the [module docs](self) for the layout. Construct with
/// [`PathArena::build`], the one builder for cold and delta runs alike
/// (or [`PathArena::from_raw`] for audit fixtures), then hand shared
/// references to every consumer — the arena is immutable.
#[derive(Debug, Clone, Default)]
pub struct PathArena {
    /// Dense ids over every AS appearing in a distinct path; ids ascend
    /// with ASN.
    interner: AsnInterner,
    /// Path `p` spans `ids[offsets[p] as usize..offsets[p + 1] as usize]`.
    offsets: Vec<u32>,
    /// Hop ids of all distinct paths, concatenated in sorted path order.
    ids: Vec<u32>,
    /// Occurrences of id `a` span
    /// `inv_entries[inv_offsets[a]..inv_offsets[a + 1]]`.
    inv_offsets: Vec<u32>,
    /// `(path << 32) | position`, ascending within each id's span.
    inv_entries: Vec<u64>,
}

impl PathArena {
    /// Build the arena from sanitized paths. The result is
    /// bit-identical for every `par` value.
    ///
    /// The distinct paths are split into one shard per worker by a hash
    /// of their hops. Each worker dedups and interns its own shard in
    /// one hash pass over the samples, then sorts it; the shards are
    /// merged in sorted order. Which shard holds a path changes nothing
    /// but the work split, since the merged order is a total order.
    pub fn build(sanitized: &SanitizedPaths, par: Parallelism) -> Self {
        let shards = par.effective().clamp(1, MAX_SHARDS);
        let parts: Vec<Shard> = par::map_ranges(par, 1, shards, |range| {
            range
                .map(|s| Shard::collect(sanitized, s, shards))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

        // Ids ascend with ASN — the property the whole determinism story
        // rests on: number the few distinct ASNs of all shards in
        // ascending order, and give each shard a provisional → final id
        // table. Id slices then order exactly like ASN slices.
        let interner = AsnInterner::from_ases(parts.iter().flat_map(|p| p.asns.iter().copied()));
        let finals: Vec<Vec<u32>> = parts
            .iter()
            .map(|p| {
                p.asns
                    .iter()
                    // lint: allow(panics, the interner was built from these same shard ASNs)
                    .map(|&a| interner.get(a).expect("interned"))
                    .collect()
            })
            .collect();

        // Sort each shard's distinct paths and lay them out in that order.
        let width = (32 - dense_id(interner.len()).leading_zeros()).max(1);
        let mut sorted: Vec<Sorted> = par::map_ranges(par, 1, shards, |range| {
            range
                .map(|s| parts[s].sorted(&finals[s], width))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        drop(parts);

        // Merge the sorted shards; one shard is the arena as it stands.
        let (offsets, ids) = if sorted.len() == 1 {
            let only = sorted.pop().unwrap_or_default();
            (only.offsets, only.ids)
        } else {
            Sorted::merge(&sorted)
        };

        let (inv_offsets, inv_entries) = invert(&offsets, &ids, interner.len());
        PathArena {
            interner,
            offsets,
            ids,
            inv_offsets,
            inv_entries,
        }
    }

    /// Assemble an arena from raw parts **without** establishing the
    /// invariants — the corruption-fixture entry point for the audit
    /// tests. The inverted index is built only when the base invariants
    /// hold (a corrupt arena keeps an empty index so [`PathArena::validate`]
    /// can report the underlying problems instead of panicking).
    pub fn from_raw(interner: AsnInterner, offsets: Vec<u32>, ids: Vec<u32>) -> Self {
        let mut arena = PathArena {
            interner,
            offsets,
            ids,
            inv_offsets: Vec::new(),
            inv_entries: Vec::new(),
        };
        if arena.base_problems().is_empty() {
            let (io, ie) = invert(&arena.offsets, &arena.ids, arena.interner.len());
            arena.inv_offsets = io;
            arena.inv_entries = ie;
        }
        arena
    }

    /// Number of distinct paths.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when the arena holds no paths.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total hops across all distinct paths.
    pub fn total_hops(&self) -> usize {
        self.ids.len()
    }

    /// Bytes held by the arena's buffers: the CSR layout, the inverted
    /// index, and the interner's id → ASN vector plus its ASN → id
    /// entries (hash-table overhead not counted).
    pub(crate) fn approx_bytes(&self) -> usize {
        let words = self.offsets.len() + self.ids.len() + self.inv_offsets.len();
        words * 4 + self.inv_entries.len() * 8 + self.interner.len() * (4 + 8)
    }

    /// Number of distinct ASes appearing in the paths.
    pub fn num_ases(&self) -> usize {
        self.interner.len()
    }

    /// The dense-id interner (ids ascend with ASN).
    pub fn interner(&self) -> &AsnInterner {
        &self.interner
    }

    /// Hop ids of distinct path `p` (VP first, origin last).
    pub fn path(&self, p: usize) -> &[u32] {
        &self.ids[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// The raw CSR offsets (`len() + 1` entries, monotone).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat hop-id array.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Occurrences of dense id `a` as `(path, position)` pairs,
    /// ascending by path then position. `a` must be `< num_ases()`.
    pub fn occurrences(&self, a: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.inv_offsets[a as usize] as usize;
        let hi = self.inv_offsets[a as usize + 1] as usize;
        self.inv_entries[lo..hi]
            .iter()
            .map(|&e| ((e >> 32) as u32, e as u32))
    }

    /// Resolve distinct path `p` back to an [`AsPath`].
    pub fn resolve_path(&self, p: usize) -> AsPath {
        AsPath(self.path(p).iter().map(|&id| self.interner.resolve(id)).collect())
    }

    /// All distinct paths as owned [`AsPath`]s, in arena (ASN-lexicographic)
    /// order — the exact set and order the pipeline's old
    /// `HashSet<&AsPath>` + clone + sort produced.
    pub fn distinct_aspaths(&self) -> Vec<AsPath> {
        (0..self.len()).map(|p| self.resolve_path(p)).collect()
    }

    /// Violations of the base layout invariants: offsets non-empty,
    /// monotone and terminated by `ids.len()`, every id in range, and
    /// paths strictly ascending (sorted + actually distinct).
    fn base_problems(&self) -> Vec<String> {
        let mut problems: Vec<String> = Vec::new();
        if self.offsets.is_empty() {
            problems.push("offsets is empty; even an empty arena has the leading 0".to_string());
            return problems; // layout unusable; nothing below is safe
        }
        let np = self.len();
        if self.offsets.first() != Some(&0) {
            problems.push("offsets does not start at 0".to_string());
        }
        if let Some(w) = self
            .offsets
            .windows(2)
            .position(|w| w[0] >= w[1])
        {
            problems.push(format!(
                "offsets not strictly increasing at path {w} ({} → {}); every sanitized path has ≥ 2 hops",
                self.offsets[w],
                self.offsets[w + 1]
            ));
            return problems;
        }
        if self.offsets.last().copied().unwrap_or(0) as usize != self.ids.len() {
            problems.push(format!(
                "offsets end at {} but ids has {} entries",
                self.offsets.last().copied().unwrap_or(0),
                self.ids.len()
            ));
            return problems;
        }
        let n = self.interner.len();
        for (i, &id) in self.ids.iter().enumerate() {
            if id as usize >= n {
                problems.push(format!("ids[{i}] = {id} out of range for {n} interned AS(es)"));
                break;
            }
        }
        for p in 1..np {
            if self.path(p - 1) >= self.path(p) {
                problems.push(format!(
                    "paths {} and {p} not strictly ascending — arena not sorted or not deduplicated",
                    p - 1
                ));
                break;
            }
        }
        problems
    }

    /// Check every arena invariant, returning human-readable violations
    /// (empty = well-formed). Beyond the base layout checks this also
    /// verifies the inverted index: correct span totals and every
    /// `(path, position)` entry mapping back to its id.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.base_problems();
        if !problems.is_empty() {
            return problems;
        }
        let n = self.interner.len();
        if self.inv_offsets.len() != n + 1 || self.inv_entries.len() != self.ids.len() {
            problems.push(format!(
                "inverted index shape mismatch: {} offset(s) / {} entr(ies) for {n} AS(es) / {} hop(s)",
                self.inv_offsets.len(),
                self.inv_entries.len(),
                self.ids.len()
            ));
            return problems;
        }
        for a in 0..n {
            let (lo, hi) = (self.inv_offsets[a] as usize, self.inv_offsets[a + 1] as usize);
            if lo > hi || hi > self.inv_entries.len() {
                problems.push(format!("inverted index span of id {a} is malformed ({lo}..{hi})"));
                return problems;
            }
            for &e in &self.inv_entries[lo..hi] {
                let (p, pos) = ((e >> 32) as usize, e as u32 as usize);
                if p >= self.len() || pos >= self.path(p).len() || self.path(p)[pos] as usize != a {
                    problems.push(format!(
                        "inverted index entry (path {p}, pos {pos}) of id {a} does not map back"
                    ));
                    return problems;
                }
            }
        }
        problems
    }
}

/// Upper bound on the arena's hash shards. Every shard's worker reads
/// every sample, so past a few workers the shared scan, not the probes,
/// dominates; and the merge compares one head per shard for every path.
const MAX_SHARDS: usize = 8;

/// The distinct paths of one hash shard, interned in the shard's own
/// first-seen order.
struct Shard {
    /// Distinct path `d` (first-seen order) is `ids[offsets[d]..offsets[d + 1]]`.
    offsets: Vec<u32>,
    /// Hops of the distinct paths, as provisional ids.
    ids: Vec<u32>,
    /// Provisional id → ASN.
    asns: Vec<Asn>,
}

impl Shard {
    /// One hash pass over every sample, keeping the paths of shard
    /// `shard` of `shards`: the first sample with a given path makes it
    /// distinct, and later ones are skipped. The same pass interns —
    /// each new distinct path's hops get provisional ids and are copied,
    /// as ids, into one compact buffer — so only distinct paths pay for
    /// interning, and no sample's hops are copied.
    fn collect(sanitized: &SanitizedPaths, shard: usize, shards: usize) -> Shard {
        let mut out = Shard {
            offsets: vec![0],
            ids: Vec::new(),
            asns: Vec::new(),
        };
        // Sized for half the shard's samples: a RIB repeats most paths
        // across prefixes (the 16k benchmark RIB sanitizes to 594k
        // samples on 269k distinct paths), and a small table keeps probes
        // in cache. A dump with more distinct paths only pays one
        // regrowth.
        let mut seen: FxHashSet<&[Asn]> =
            FxHashSet::with_capacity_and_hasher(sanitized.len() / 2 / shards, Default::default());
        let mut provisional: FxHashMap<Asn, u32> = FxHashMap::default();
        for hops in sanitized.paths() {
            if shards > 1 && shard_of(hops, shards) != shard {
                continue;
            }
            if !seen.insert(hops) {
                continue;
            }
            for &a in hops {
                let id = *provisional.entry(a).or_insert_with(|| {
                    out.asns.push(a);
                    dense_id(out.asns.len() - 1)
                });
                out.ids.push(id);
            }
            out.offsets.push(dense_id(out.ids.len()));
        }
        out
    }

    /// Number of distinct paths in the shard.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Hops of distinct path `d` as final ids.
    fn final_path<'a>(&'a self, d: u32, finals: &'a [u32]) -> impl Iterator<Item = u32> + 'a {
        let span =
            &self.ids[self.offsets[d as usize] as usize..self.offsets[d as usize + 1] as usize];
        span.iter().map(move |&p| finals[p as usize])
    }

    /// The shard's distinct paths in arena order, laid out as final
    /// ids. Each path's sort key packs final id + 1 of its leading hops,
    /// `width` bits each (`width` fits every id + 1), and 0 for a missing
    /// hop: a shorter path packs below every extension of it, so key
    /// order is lexicographic order of the leading hops and resolves
    /// almost every comparison in registers. Equal keys fall back to the
    /// whole slice. Distinct paths never compare equal, so the order is
    /// fully determined.
    fn sorted(&self, finals: &[u32], width: u32) -> Sorted {
        let lead = (128 / width) as usize;
        let mut order: Vec<(u128, u32)> = (0..dense_id(self.len()))
            .map(|d| {
                let key = self
                    .final_path(d, finals)
                    .map(|id| id + 1)
                    .chain(std::iter::repeat(0))
                    .take(lead)
                    .fold(0u128, |key, v| key << width | u128::from(v));
                (key, d)
            })
            .collect();
        order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| {
                self.final_path(a.1, finals)
                    .cmp(self.final_path(b.1, finals))
            })
        });
        let mut out = Sorted {
            keys: Vec::with_capacity(order.len()),
            offsets: Vec::with_capacity(order.len() + 1),
            ids: Vec::with_capacity(self.ids.len()),
        };
        out.offsets.push(0);
        for (key, d) in order {
            out.keys.push(key);
            out.ids.extend(self.final_path(d, finals));
            out.offsets.push(dense_id(out.ids.len()));
        }
        out
    }
}

/// One shard's distinct paths in arena order: the arena's own layout
/// plus each path's sort key.
#[derive(Default)]
struct Sorted {
    keys: Vec<u128>,
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Sorted {
    /// Path `i` as final ids.
    fn path(&self, i: usize) -> &[u32] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Merge sorted shards into the arena's `(offsets, ids)`, taking the
    /// least `(key, path)` head each step.
    fn merge(shards: &[Sorted]) -> (Vec<u32>, Vec<u32>) {
        let distinct: usize = shards.iter().map(|s| s.keys.len()).sum();
        let mut offsets: Vec<u32> = Vec::with_capacity(distinct + 1);
        offsets.push(0);
        let mut ids: Vec<u32> = Vec::with_capacity(shards.iter().map(|s| s.ids.len()).sum());
        let mut heads = vec![0usize; shards.len()];
        loop {
            let mut next: Option<usize> = None;
            for (s, shard) in shards.iter().enumerate() {
                let i = heads[s];
                if i == shard.keys.len() {
                    continue;
                }
                let better = next.is_none_or(|t| {
                    let j = heads[t];
                    (shard.keys[i], shard.path(i)) < (shards[t].keys[j], shards[t].path(j))
                });
                if better {
                    next = Some(s);
                }
            }
            let Some(s) = next else { break };
            let i = heads[s];
            heads[s] += 1;
            ids.extend_from_slice(shards[s].path(i));
            offsets.push(dense_id(ids.len()));
        }
        (offsets, ids)
    }
}

/// The shard of a hop slice: a multiplicative hash of its hops, mapped
/// onto `0..shards` by its high bits.
fn shard_of(hops: &[Asn], shards: usize) -> usize {
    let h = hops
        .iter()
        .fold(0u32, |h, a| (h ^ a.0).wrapping_mul(0x9E37_79B1));
    ((u64::from(h) * shards as u64) >> 32) as usize
}

impl PartialEq for PathArena {
    /// Structural equality over the defining fields; the inverted index
    /// is a deterministic function of `offsets`/`ids` and is not
    /// re-compared.
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.ids == other.ids
            && self.interner.len() == other.interner.len()
            && self.interner.iter().eq(other.interner.iter())
    }
}

impl Eq for PathArena {}

/// Counting-sort inversion of the flat hop array: for every dense id,
/// the packed `(path << 32) | position` occurrences, ascending.
fn invert(offsets: &[u32], ids: &[u32], n: usize) -> (Vec<u32>, Vec<u64>) {
    let mut inv_offsets = vec![0u32; n + 1];
    for &id in ids {
        inv_offsets[id as usize + 1] += 1;
    }
    for i in 1..=n {
        inv_offsets[i] += inv_offsets[i - 1];
    }
    let mut cursor: Vec<u32> = inv_offsets[..n].to_vec();
    let mut entries = vec![0u64; ids.len()];
    for p in 0..offsets.len().saturating_sub(1) {
        let (lo, hi) = (offsets[p] as usize, offsets[p + 1] as usize);
        for (pos, &id) in ids[lo..hi].iter().enumerate() {
            let slot = cursor[id as usize];
            entries[slot as usize] = ((p as u64) << 32) | pos as u64;
            cursor[id as usize] = slot + 1;
        }
    }
    (inv_offsets, entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{sanitize, SanitizeConfig};
    use std::collections::HashSet;

    fn sanitized(raw: &[&[u32]]) -> SanitizedPaths {
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
    fn dedup_matches_hashset_distinct_sort() {
        // Arena dedup order == the HashSet + clone + sort_by(path.0)
        // order it replaced.
        let raw: Vec<&[u32]> = vec![
            &[9, 1, 5, 7],
            &[9, 1, 5, 7], // duplicate
            &[8, 1, 5],
            &[9, 2, 5, 7],
            &[8, 1, 5], // duplicate
            &[7, 2, 1],
        ];
        let clean = sanitized(&raw);
        let arena = PathArena::build(&clean, Parallelism::auto());

        let mut old: Vec<AsPath> = {
            let set: HashSet<&[Asn]> = clean.paths().collect();
            set.into_iter().map(|h| AsPath(h.to_vec())).collect()
        };
        old.sort_by(|a, b| a.0.cmp(&b.0));

        assert_eq!(arena.distinct_aspaths(), old);
        assert_eq!(arena.len(), 4);
    }

    #[test]
    fn inverted_index_is_complete_and_ordered() {
        let clean = sanitized(&[&[9, 1, 5, 7], &[8, 1, 5], &[7, 2, 1]]);
        let arena = PathArena::build(&clean, Parallelism::auto());
        assert!(arena.validate().is_empty(), "{:?}", arena.validate());
        let mut seen = 0usize;
        for a in 0..dense_id(arena.num_ases()) {
            let occ: Vec<(u32, u32)> = arena.occurrences(a).collect();
            // Ascending by (path, position).
            assert!(occ.windows(2).all(|w| w[0] < w[1]), "id {a}: {occ:?}");
            for &(p, pos) in &occ {
                assert_eq!(arena.path(p as usize)[pos as usize], a);
            }
            seen += occ.len();
        }
        assert_eq!(seen, arena.total_hops());
    }

    #[test]
    fn build_is_thread_count_invariant() {
        let raw: Vec<Vec<u32>> = (0..120)
            .map(|i| vec![900 + i % 7, 50 + i % 11, 20 + i % 5, 10 + i % 3, 1])
            .collect();
        let refs: Vec<&[u32]> = raw.iter().map(Vec::as_slice).collect();
        let clean = sanitized(&refs);
        let seq = PathArena::build(&clean, Parallelism::sequential());
        let par = PathArena::build(&clean, Parallelism::threads(4));
        assert_eq!(seq.offsets, par.offsets);
        assert_eq!(seq.ids, par.ids);
        assert_eq!(seq.inv_offsets, par.inv_offsets);
        assert_eq!(seq.inv_entries, par.inv_entries);
    }

    #[test]
    fn validate_catches_corruption() {
        let clean = sanitized(&[&[9, 1, 5], &[8, 1, 5]]);
        let good = PathArena::build(&clean, Parallelism::auto());
        assert!(good.validate().is_empty());

        // Non-monotone offsets.
        let bad = PathArena::from_raw(good.interner.clone(), vec![0, 3, 2], good.ids.clone());
        assert!(bad.validate().iter().any(|p| p.contains("strictly increasing")));

        // Out-of-range id.
        let mut ids = good.ids.clone();
        ids[0] = 999;
        let bad = PathArena::from_raw(good.interner.clone(), good.offsets.clone(), ids);
        assert!(bad.validate().iter().any(|p| p.contains("out of range")));

        // Empty offsets: not even the leading 0.
        let bad = PathArena::from_raw(good.interner.clone(), Vec::new(), good.ids.clone());
        assert!(bad
            .validate()
            .iter()
            .any(|p| p.contains("offsets is empty")));

        // Duplicate (non-distinct) paths.
        let dup_ids: Vec<u32> = [good.path(0), good.path(0)].concat();
        let dup_off = vec![0, dense_id(good.path(0).len()), dense_id(dup_ids.len())];
        let bad = PathArena::from_raw(good.interner.clone(), dup_off, dup_ids);
        assert!(bad.validate().iter().any(|p| p.contains("ascending")));
    }

    #[test]
    fn empty_input_yields_empty_arena() {
        let clean = sanitized(&[]);
        let arena = PathArena::build(&clean, Parallelism::auto());
        assert!(arena.is_empty());
        assert_eq!(arena.offsets(), &[0]);
        assert!(arena.validate().is_empty());
        assert!(arena.distinct_aspaths().is_empty());
    }

    /// One synthetic sample per entry of `multiset`, taken as already
    /// sanitized.
    fn as_sanitized(multiset: &[Vec<u32>]) -> SanitizedPaths {
        let mut out = SanitizedPaths::default();
        for (i, hops) in multiset.iter().enumerate() {
            let hops: Vec<Asn> = hops.iter().copied().map(Asn).collect();
            out.push(
                hops[0],
                Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                &hops,
            );
        }
        out
    }

    mod sort_dedup_oracle {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        /// `(offsets, ids, (id, ASN) pairs in id order)`.
        type Layout = (Vec<u32>, Vec<u32>, Vec<(u32, Asn)>);

        /// The arena as the sort-based dedup defined it: sort every
        /// sample's hops, collapse equal runs into one path, and number
        /// the ASNs in ascending order.
        fn sort_dedup(multiset: &[Vec<u32>]) -> Layout {
            let mut runs: Vec<&Vec<u32>> = multiset.iter().collect();
            runs.sort();
            runs.dedup();
            let asns: Vec<u32> = multiset
                .iter()
                .flatten()
                .copied()
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .collect();
            let mut offsets = vec![0];
            let mut ids = Vec::new();
            for path in &runs {
                ids.extend(path.iter().map(|v| asns.binary_search(v).unwrap() as u32));
                offsets.push(ids.len() as u32);
            }
            let interned = (0..).zip(asns.into_iter().map(Asn)).collect();
            (offsets, ids, interned)
        }

        /// The hop alphabet, listed out of ASN order so that first-seen
        /// order almost never matches it, with 4-byte ASNs at and above
        /// 2^31.
        const ALPHABET: [u32; 8] = [
            4_200_000_123,
            7,
            2_147_483_648,
            1,
            65_536,
            u32::MAX,
            3,
            3_000_000_000,
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Hash-then-sort dedup, interned in first-seen order and
            /// remapped to ascending ids, builds exactly the sort-based
            /// arena, at every thread count. Samples draw from a small
            /// pool, so most repeat; pool paths extend one of at most
            /// three heads over the alphabet, so many distinct paths share
            /// their leading hops and only the slice tie-break orders
            /// them. A head is four hops, or 130 — longer than any packed
            /// sort key. One pool path in eight is a two- or three-hop
            /// head, which packs its missing hops as 0.
            #[test]
            fn hash_dedup_matches_sort_dedup(
                heads in proptest::collection::vec(
                    (proptest::collection::vec(0usize..8, 4), 0u8..4),
                    1..4,
                ),
                pool in proptest::collection::vec(
                    (0usize..3, proptest::collection::vec(0usize..8, 0..4), 0u8..8),
                    1..40,
                ),
                draws in proptest::collection::vec(0usize..64, 1..200),
            ) {
                let heads: Vec<Vec<usize>> = heads
                    .into_iter()
                    .map(|(head, long)| {
                        let len = if long == 0 { 130 } else { 4 };
                        head.into_iter().cycle().take(len).collect()
                    })
                    .collect();
                let pool: Vec<Vec<u32>> = pool
                    .into_iter()
                    .map(|(h, tail, short)| {
                        let head = &heads[h % heads.len()];
                        let hops = if short == 0 {
                            head[..2 + tail.len() % 2].to_vec()
                        } else {
                            [head.as_slice(), &tail].concat()
                        };
                        hops.into_iter().map(|i| ALPHABET[i]).collect()
                    })
                    .collect();
                let multiset: Vec<Vec<u32>> =
                    draws.iter().map(|&i| pool[i % pool.len()].clone()).collect();
                let (offsets, ids, interned) = sort_dedup(&multiset);
                let clean = as_sanitized(&multiset);
                for par in [Parallelism::sequential(), Parallelism::threads(4)] {
                    let arena = PathArena::build(&clean, par);
                    prop_assert_eq!(arena.offsets(), offsets.as_slice());
                    prop_assert_eq!(arena.ids(), ids.as_slice());
                    prop_assert_eq!(arena.interner().iter().collect::<Vec<_>>(), interned.clone());
                    prop_assert!(arena.validate().is_empty());
                }
            }
        }
    }
}
