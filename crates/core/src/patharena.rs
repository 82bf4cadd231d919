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
//! * **Dedup by sort.** Sample indices are sorted by their `Asn` hop
//!   slices and collapsed into runs; each run becomes one distinct path
//!   with a **multiplicity** count. Because the bulk [`AsnInterner`]
//!   assigns ids in ascending ASN order, lexicographic order of id
//!   slices equals lexicographic order of ASN slices — the arena's path
//!   order is *identical* to the old `sort_by(|a, b| a.0.cmp(&b.0))`
//!   over cloned `AsPath`s, so downstream traversal order (and hence
//!   every inference) is bit-for-bit unchanged.
//! * **CSR flattening.** Distinct paths live in one `offsets`/`ids`
//!   arena of dense `u32` ids: path `p` is `ids[offsets[p]..offsets[p+1]]`.
//!   No per-path heap allocation survives the build.
//! * **Inverted index.** A counting sort over the flat `ids` produces,
//!   for every dense id, the `(path, position)` occurrences packed into
//!   one `u64` each — ascending by path then position, matching the
//!   insertion order of the hash-map index it replaces.
//!
//! The id-mapping pass fans out over worker threads ([`crate::par`]) in
//! contiguous path ranges reassembled in range order, so the arena is
//! bit-identical for every thread count.

use crate::par;
use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use asrank_types::FxHashMap;
use std::sync::Arc;

/// Deduplicated, interned, CSR-flattened view of a sanitized path set.
///
/// See the [module docs](self) for the layout. Construct with
/// [`PathArena::build`] (or
/// [`PathArena::from_raw`] for audit fixtures), then hand shared
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
    /// Number of sanitized samples collapsed into each distinct path
    /// (≥ 1): the evidence weight dedup would otherwise discard.
    multiplicity: Vec<u32>,
    /// Occurrences of id `a` span
    /// `inv_entries[inv_offsets[a]..inv_offsets[a + 1]]`.
    inv_offsets: Vec<u32>,
    /// `(path << 32) | position`, ascending within each id's span.
    inv_entries: Vec<u64>,
}

impl PathArena {
    /// Build the arena from sanitized paths. The result is
    /// bit-identical for every `par` value.
    pub fn build(sanitized: &SanitizedPaths, par: Parallelism) -> Self {
        let samples = &sanitized.samples;

        // Flatten every sample's raw hops into one contiguous buffer so
        // the dedup sort compares cache-local u32 slices instead of
        // chasing pointers into per-sample `Vec<Asn>` allocations.
        let total_raw: usize = samples.iter().map(|s| s.path.len()).sum();
        let mut tmp_offsets: Vec<u32> = Vec::with_capacity(samples.len() + 1);
        tmp_offsets.push(0);
        let mut tmp_hops: Vec<u32> = Vec::with_capacity(total_raw);
        for s in samples {
            tmp_hops.extend(s.path.iter().map(|a| a.0));
            tmp_offsets.push(dense_id(tmp_hops.len()));
        }
        let hops_of = |i: u32| {
            &tmp_hops[tmp_offsets[i as usize] as usize..tmp_offsets[i as usize + 1] as usize]
        };

        // Sort sample indices by hop content; equal runs collapse into
        // one distinct path with a multiplicity count. A packed
        // (hop0, hop1, hop2, hop3) prefix key resolves almost every
        // comparison in registers: hops 0–1 are usually (VP, first hop),
        // shared by many samples, so a two-hop key fell through to the
        // slice compare most of the time. Missing hops read 0, and AS 0
        // never survives sanitization, so a shorter path packs below
        // every extension of it and packed-u128 order equals
        // lexicographic order of the first four hops. sort_unstable is
        // deterministic (pattern-defeating quicksort, no randomness);
        // fully equal keys reference identical hop slices, so which
        // sample represents a run cannot matter.
        let prefix_key = |h: &[u32]| -> u128 {
            (0..4).fold(0u128, |key, i| {
                key << 32 | u128::from(h.get(i).copied().unwrap_or(0))
            })
        };
        let mut order: Vec<(u128, u32)> = (0..dense_id(samples.len()))
            .map(|i| (prefix_key(hops_of(i)), i))
            .collect();
        order.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then_with(|| hops_of(a.1).cmp(hops_of(b.1)))
        });

        // Counting pre-pass: a sample starts a new run exactly when its
        // prefix key or hop slice differs from its predecessor's (equal
        // runs are contiguous after the sort, and the key comparison
        // short-circuits almost every slice compare). Knowing the
        // distinct-path and total-hop counts up front lets every buffer
        // below be allocated once at its exact final size — the build
        // used to grow reps/multiplicity by doubling and pay a second
        // copy of `ids` through per-chunk Vecs + `concat`.
        let new_run = |w: usize| -> bool {
            w == 0
                || order[w - 1].0 != order[w].0
                || hops_of(order[w - 1].1) != hops_of(order[w].1)
        };
        let mut distinct = 0usize;
        let mut total = 0usize;
        for w in 0..order.len() {
            if new_run(w) {
                distinct += 1;
                total += hops_of(order[w].1).len();
            }
        }

        let mut reps: Vec<u32> = Vec::with_capacity(distinct);
        let mut multiplicity: Vec<u32> = Vec::with_capacity(distinct);
        let mut offsets: Vec<u32> = Vec::with_capacity(distinct + 1);
        offsets.push(0);
        let mut hop_cursor = 0usize;
        for w in 0..order.len() {
            if new_run(w) {
                reps.push(order[w].1);
                multiplicity.push(1);
                hop_cursor += hops_of(order[w].1).len();
                offsets.push(dense_id(hop_cursor));
            } else if let Some(m) = multiplicity.last_mut() {
                *m += 1;
            }
        }
        debug_assert_eq!(reps.len(), distinct);
        debug_assert_eq!(hop_cursor, total);

        // Ids ascend with ASN (bulk interner) — the property the whole
        // determinism story above rests on.
        let interner = AsnInterner::from_ases(
            reps.iter()
                .flat_map(|&si| hops_of(si).iter().map(|&v| Asn(v))),
        );

        // Map hops to dense ids over contiguous path ranges in parallel,
        // each range writing its offset-table span of `ids` in place.
        let mut ids: Vec<u32> = vec![0; total];
        par::fill_ranges(
            par,
            256,
            reps.len(),
            &mut ids,
            |range| (offsets[range.end] - offsets[range.start]) as usize,
            |range, span| {
                let mut w = 0usize;
                for d in range {
                    for &v in hops_of(reps[d]) {
                        // lint: allow(panics, interner seeded from these same distinct paths covers every hop)
                        span[w] = interner.get(Asn(v)).expect("interned");
                        w += 1;
                    }
                }
            },
        );

        let (inv_offsets, inv_entries) = invert(&offsets, &ids, interner.len());
        PathArena {
            interner,
            offsets,
            ids,
            multiplicity,
            inv_offsets,
            inv_entries,
        }
    }

    /// Assemble an arena from raw parts **without** establishing the
    /// invariants — the corruption-fixture entry point for the audit
    /// tests. The inverted index is built only when the base invariants
    /// hold (a corrupt arena keeps an empty index so [`PathArena::validate`]
    /// can report the underlying problems instead of panicking).
    pub fn from_raw(
        interner: AsnInterner,
        offsets: Vec<u32>,
        ids: Vec<u32>,
        multiplicity: Vec<u32>,
    ) -> Self {
        let mut arena = PathArena {
            interner,
            offsets,
            ids,
            multiplicity,
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

    /// Clone the arena's immutable structure with new multiplicities —
    /// the [`MutablePathArena`] fast path for batches that only shifted
    /// evidence weight between already-known paths. `multiplicity` must
    /// be in arena order with one entry per path.
    pub(crate) fn with_multiplicity(&self, multiplicity: Vec<u32>) -> PathArena {
        debug_assert_eq!(multiplicity.len(), self.multiplicity.len());
        PathArena {
            interner: self.interner.clone(),
            offsets: self.offsets.clone(),
            ids: self.ids.clone(),
            multiplicity,
            inv_offsets: self.inv_offsets.clone(),
            inv_entries: self.inv_entries.clone(),
        }
    }

    /// Number of distinct paths.
    pub fn len(&self) -> usize {
        self.multiplicity.len()
    }

    /// True when the arena holds no paths.
    pub fn is_empty(&self) -> bool {
        self.multiplicity.is_empty()
    }

    /// Total hops across all distinct paths.
    pub fn total_hops(&self) -> usize {
        self.ids.len()
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

    /// How many sanitized samples collapsed into distinct path `p`.
    pub fn multiplicity(&self, p: usize) -> u32 {
        self.multiplicity[p]
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

    /// Violations of the base layout invariants: offsets monotone and
    /// terminated by `ids.len()`, every id in range, every multiplicity
    /// ≥ 1, and paths strictly ascending (sorted + actually distinct).
    fn base_problems(&self) -> Vec<String> {
        let mut problems: Vec<String> = Vec::new();
        let np = self.multiplicity.len();
        if self.offsets.len() != np + 1 {
            problems.push(format!(
                "offsets has {} entries for {np} path(s); expected {}",
                self.offsets.len(),
                np + 1
            ));
            return problems; // layout unusable; nothing below is safe
        }
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
        if let Some(p) = self.multiplicity.iter().position(|&m| m == 0) {
            problems.push(format!("multiplicity[{p}] = 0; every distinct path collapses ≥ 1 sample"));
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

impl PartialEq for PathArena {
    /// Structural equality over the defining fields; the inverted index
    /// is a deterministic function of `offsets`/`ids` and is not
    /// re-compared.
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.ids == other.ids
            && self.multiplicity == other.multiplicity
            && self.interner.len() == other.interner.len()
            && self.interner.iter().eq(other.interner.iter())
    }
}

impl Eq for PathArena {}

/// What one add/remove did to the distinct-path set — the event stream
/// the incremental engine's degree/clique evidence feeds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEvent {
    /// The path entered the distinct set (first sample, or a tombstone
    /// revived).
    AddedDistinct,
    /// The path left the distinct set (last sample gone).
    RemovedDistinct,
    /// Only the multiplicity moved; the distinct set is unchanged.
    MultChanged,
}

/// The in-place counterpart of [`PathArena`]: a canonical slot table
/// that absorbs per-sample path add/remove deltas and periodically
/// re-emits a bit-identical [`PathArena`].
///
/// Layout invariants (pinned by the build oracle proptest):
///
/// * **Slots are stable between compactions.** Base slots `0..base_n`
///   hold the distinct paths of some fully-built arena in arena
///   (ASN-lexicographic) order; appended paths occupy tail slots
///   `base_n + i` in arrival order. `index` maps hop content to its
///   slot, covering base and tail.
/// * **Multiplicity 0 is a tombstone.** Removing the last sample of a
///   path keeps its slot (and index entry) so a re-announce revives it
///   in place; tombstoned paths are excluded from canonicalization.
/// * **Canonicalize merges, never re-sorts the base.** Live base slots
///   are already in arena order; live tail paths are sorted and merged
///   in, then interned/flattened through the same `from_raw` path the
///   cold build uses — so the emitted arena is byte-identical to
///   rebuilding from scratch over the surviving sample multiset.
/// * **Compaction is threshold-driven.** When tombstones + tail exceed
///   ~1/8 of the live set, the merged result is adopted as the new base
///   and the index rebuilt; otherwise the (cheap) merge is recomputed
///   per canonicalize and the index keeps amortizing.
#[derive(Debug, Clone, Default)]
pub struct MutablePathArena {
    /// Flat ASN (not dense-id) hops of the base slots.
    base_hops: Vec<u32>,
    /// Base slot `b` spans `base_hops[off[b]..off[b+1]]`.
    base_offsets: Vec<u32>,
    /// Per-slot sample count, base slots then tail slots; 0 = tombstone.
    slot_mult: Vec<u32>,
    /// ASN hops of appended paths; tail slot `base_n + i`.
    tail: Vec<Box<[u32]>>,
    /// Hop content → slot, covering base and tail.
    index: FxHashMap<Box<[u32]>, u32>,
    /// Slot → position in the last canonicalized arena (`u32::MAX` when
    /// the slot was tombstoned or not yet emitted).
    canon_pos: Vec<u32>,
    /// Distinct set changed since the last canonicalize.
    structure_dirty: bool,
    /// Tombstoned slots (mult 0).
    dead: usize,
    /// The last canonicalized arena, reused wholesale when nothing (or
    /// only multiplicity) changed.
    prev: Option<Arc<PathArena>>,
}

impl MutablePathArena {
    /// Seed the mutable view from a fully-built arena (the cold run's).
    pub fn from_arena(arena: &Arc<PathArena>) -> Self {
        let base_hops: Vec<u32> = arena
            .ids
            .iter()
            .map(|&id| arena.interner.resolve(id).0)
            .collect();
        let base_offsets = arena.offsets.clone();
        let slot_mult = arena.multiplicity.clone();
        let mut index = FxHashMap::default();
        for p in 0..arena.len() {
            let span = &base_hops[base_offsets[p] as usize..base_offsets[p + 1] as usize];
            index.insert(span.to_vec().into_boxed_slice(), dense_id(p));
        }
        MutablePathArena {
            base_hops,
            base_offsets,
            slot_mult,
            tail: Vec::new(),
            index,
            canon_pos: (0..dense_id(arena.len())).collect(),
            structure_dirty: false,
            dead: 0,
            prev: Some(Arc::clone(arena)),
        }
    }

    /// Distinct live paths.
    pub fn live_len(&self) -> usize {
        self.slot_mult.len() - self.dead
    }

    /// Record one more sample observing `hops` (ASN values, ≥ 2 hops).
    pub fn add_one(&mut self, hops: &[u32]) -> PathEvent {
        if let Some(&slot) = self.index.get(hops) {
            let m = &mut self.slot_mult[slot as usize];
            *m += 1;
            if *m == 1 {
                // Tombstone revived: the distinct set regains the path.
                self.dead -= 1;
                self.structure_dirty = true;
                PathEvent::AddedDistinct
            } else {
                PathEvent::MultChanged
            }
        } else {
            let slot = dense_id(self.slot_mult.len());
            self.index.insert(hops.to_vec().into_boxed_slice(), slot);
            self.tail.push(hops.to_vec().into_boxed_slice());
            self.slot_mult.push(1);
            self.canon_pos.push(u32::MAX);
            self.structure_dirty = true;
            PathEvent::AddedDistinct
        }
    }

    /// Record the removal of one sample observing `hops`. Returns `None`
    /// when the path was not live — an upstream accounting bug the
    /// caller must surface as a typed error.
    pub fn remove_one(&mut self, hops: &[u32]) -> Option<PathEvent> {
        let &slot = self.index.get(hops)?;
        let m = &mut self.slot_mult[slot as usize];
        if *m == 0 {
            return None;
        }
        *m -= 1;
        Some(if *m == 0 {
            self.dead += 1;
            self.structure_dirty = true;
            PathEvent::RemovedDistinct
        } else {
            PathEvent::MultChanged
        })
    }

    /// Emit the canonical arena for the current state — bit-identical to
    /// [`PathArena::build`] over the equivalent sample multiset.
    ///
    /// Returns the previous `Arc` untouched when nothing changed, a
    /// structure-sharing multiplicity patch when only evidence weight
    /// moved, and a full merge + re-intern otherwise (compacting the
    /// slot table when the tombstone + tail overhead crosses the
    /// threshold).
    pub fn canonicalize(&mut self) -> Arc<PathArena> {
        let base_n = self.base_offsets.len() - 1;
        if !self.structure_dirty {
            if let Some(prev) = &self.prev {
                // Same distinct set as the last emission: project slot
                // multiplicities into canonical order and patch.
                let mut mult = vec![0u32; prev.len()];
                for (slot, &m) in self.slot_mult.iter().enumerate() {
                    if m > 0 {
                        mult[self.canon_pos[slot] as usize] = m;
                    }
                }
                if mult == prev.multiplicity {
                    return Arc::clone(prev);
                }
                let patched = Arc::new(prev.with_multiplicity(mult));
                self.prev = Some(Arc::clone(&patched));
                return patched;
            }
        }

        // Slow path: merge live base slots (already in arena order) with
        // the sorted live tail, then intern + flatten through from_raw —
        // the same constructors the cold build uses.
        let mut tail_live: Vec<u32> = (0..self.tail.len())
            .filter(|&i| self.slot_mult[base_n + i] > 0)
            .map(|i| dense_id(base_n + i))
            .collect();
        tail_live.sort_unstable_by(|&a, &b| self.slot_hops(a).cmp(self.slot_hops(b)));

        let live = self.live_len();
        let mut merged_slots: Vec<u32> = Vec::with_capacity(live);
        let mut ti = 0usize;
        for b in 0..base_n {
            if self.slot_mult[b] == 0 {
                continue;
            }
            let bh = self.slot_hops(dense_id(b));
            while ti < tail_live.len() && self.slot_hops(tail_live[ti]) < bh {
                merged_slots.push(tail_live[ti]);
                ti += 1;
            }
            merged_slots.push(dense_id(b));
        }
        merged_slots.extend_from_slice(&tail_live[ti..]);
        debug_assert_eq!(merged_slots.len(), live);

        for pos in self.canon_pos.iter_mut() {
            *pos = u32::MAX;
        }
        let mut offsets: Vec<u32> = Vec::with_capacity(live + 1);
        offsets.push(0);
        let mut total = 0usize;
        let mut multiplicity: Vec<u32> = Vec::with_capacity(live);
        for (pos, &slot) in merged_slots.iter().enumerate() {
            self.canon_pos[slot as usize] = dense_id(pos);
            total += self.slot_hops(slot).len();
            offsets.push(dense_id(total));
            multiplicity.push(self.slot_mult[slot as usize]);
        }
        let interner = AsnInterner::from_ases(
            merged_slots
                .iter()
                .flat_map(|&slot| self.slot_hops(slot).iter().map(|&v| Asn(v))),
        );
        let mut ids: Vec<u32> = Vec::with_capacity(total);
        for &slot in &merged_slots {
            for &v in self.slot_hops(slot) {
                // lint: allow(panics, interner seeded from these same live slots covers every hop)
                ids.push(interner.get(Asn(v)).expect("interned"));
            }
        }
        let arena = Arc::new(PathArena::from_raw(interner, offsets, ids, multiplicity));
        debug_assert!(arena.validate().is_empty());

        // Threshold compaction: adopt the merged order as the new base
        // once tombstones + tail cost more than ~1/8 of the live set.
        if self.dead + self.tail.len() > live / 8 + 64 {
            let mut base_hops: Vec<u32> = Vec::with_capacity(arena.total_hops());
            for &slot in &merged_slots {
                base_hops.extend_from_slice(self.slot_hops(slot));
            }
            self.base_hops = base_hops;
            self.base_offsets = arena.offsets.clone();
            self.slot_mult = arena.multiplicity.clone();
            self.tail.clear();
            self.dead = 0;
            self.canon_pos = (0..dense_id(live)).collect();
            self.index.clear();
            for p in 0..live {
                let span =
                    &self.base_hops[self.base_offsets[p] as usize..self.base_offsets[p + 1] as usize];
                self.index.insert(span.to_vec().into_boxed_slice(), dense_id(p));
            }
        }
        self.structure_dirty = false;
        self.prev = Some(Arc::clone(&arena));
        arena
    }

    /// ASN hops of `slot` (base or tail).
    fn slot_hops(&self, slot: u32) -> &[u32] {
        let base_n = self.base_offsets.len() - 1;
        let s = slot as usize;
        if s < base_n {
            &self.base_hops[self.base_offsets[s] as usize..self.base_offsets[s + 1] as usize]
        } else {
            &self.tail[s - base_n]
        }
    }
}

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
        // Satellite 1 pin: arena dedup order == old HashSet + clone +
        // sort_by(path.0) order, multiplicities counted.
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
            let set: HashSet<&AsPath> = clean.paths().collect();
            set.into_iter().cloned().collect()
        };
        old.sort_by(|a, b| a.0.cmp(&b.0));

        assert_eq!(arena.distinct_aspaths(), old);
        assert_eq!(arena.len(), 4);
        let mults: Vec<u32> = (0..arena.len()).map(|p| arena.multiplicity(p)).collect();
        assert_eq!(mults.iter().sum::<u32>() as usize, clean.samples.len());
        assert!(mults.iter().filter(|&&m| m == 2).count() == 2);
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
        assert_eq!(seq.multiplicity, par.multiplicity);
        assert_eq!(seq.inv_offsets, par.inv_offsets);
        assert_eq!(seq.inv_entries, par.inv_entries);
    }

    #[test]
    fn validate_catches_corruption() {
        let clean = sanitized(&[&[9, 1, 5], &[8, 1, 5]]);
        let good = PathArena::build(&clean, Parallelism::auto());
        assert!(good.validate().is_empty());

        // Non-monotone offsets.
        let bad = PathArena::from_raw(
            good.interner.clone(),
            vec![0, 3, 2],
            good.ids.clone(),
            good.multiplicity.clone(),
        );
        assert!(bad.validate().iter().any(|p| p.contains("strictly increasing")));

        // Out-of-range id.
        let mut ids = good.ids.clone();
        ids[0] = 999;
        let bad = PathArena::from_raw(
            good.interner.clone(),
            good.offsets.clone(),
            ids,
            good.multiplicity.clone(),
        );
        assert!(bad.validate().iter().any(|p| p.contains("out of range")));

        // Zero multiplicity.
        let bad = PathArena::from_raw(
            good.interner.clone(),
            good.offsets.clone(),
            good.ids.clone(),
            vec![1, 0],
        );
        assert!(bad.validate().iter().any(|p| p.contains("multiplicity")));

        // Duplicate (non-distinct) paths.
        let dup_ids: Vec<u32> = [good.path(0), good.path(0)].concat();
        let dup_off = vec![0, dense_id(good.path(0).len()), dense_id(dup_ids.len())];
        let bad = PathArena::from_raw(good.interner.clone(), dup_off, dup_ids, vec![1, 1]);
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

    /// The rebuilt-from-scratch oracle: an arena built over one synthetic
    /// sample per `(path, repeat)` entry of the multiset. `build`
    /// only reads `sample.path`, so dummy vp/prefix values are fine.
    fn oracle_arena(multiset: &[Vec<u32>]) -> PathArena {
        let samples: Vec<PathSample> = multiset
            .iter()
            .enumerate()
            .map(|(i, hops)| PathSample {
                vp: Asn(hops[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(hops.iter().copied()),
            })
            .collect();
        let clean = SanitizedPaths {
            samples,
            report: Default::default(),
        };
        PathArena::build(&clean, Parallelism::sequential())
    }

    #[test]
    fn mutable_arena_no_change_returns_same_arc() {
        let base = Arc::new(oracle_arena(&[vec![9, 1, 5], vec![8, 1, 5]]));
        let mut m = MutablePathArena::from_arena(&base);
        let out = m.canonicalize();
        assert!(Arc::ptr_eq(&base, &out), "unchanged state must reuse the Arc");
    }

    #[test]
    fn mutable_arena_mult_only_patch_matches_oracle() {
        let base = Arc::new(oracle_arena(&[vec![9, 1, 5], vec![8, 1, 5]]));
        let mut m = MutablePathArena::from_arena(&base);
        assert_eq!(m.add_one(&[9, 1, 5]), PathEvent::MultChanged);
        let out = m.canonicalize();
        assert!(!Arc::ptr_eq(&base, &out));
        assert_eq!(
            *out,
            oracle_arena(&[vec![9, 1, 5], vec![9, 1, 5], vec![8, 1, 5]])
        );
        // Structure (offsets/ids) shared with the previous emission.
        assert_eq!(out.offsets(), base.offsets());
        assert_eq!(out.ids(), base.ids());
    }

    #[test]
    fn mutable_arena_add_remove_revive_matches_oracle() {
        let base = Arc::new(oracle_arena(&[vec![9, 1, 5], vec![8, 1, 5]]));
        let mut m = MutablePathArena::from_arena(&base);

        // New distinct path with an unseen AS → full re-intern.
        assert_eq!(m.add_one(&[7, 3, 5]), PathEvent::AddedDistinct);
        let out = m.canonicalize();
        assert_eq!(
            *out,
            oracle_arena(&[vec![9, 1, 5], vec![8, 1, 5], vec![7, 3, 5]])
        );
        assert!(out.validate().is_empty());

        // Tombstone the tail path again; the distinct set shrinks back.
        assert_eq!(m.remove_one(&[7, 3, 5]), Some(PathEvent::RemovedDistinct));
        assert_eq!(*m.canonicalize(), *base);

        // Revive it in place.
        assert_eq!(m.add_one(&[7, 3, 5]), PathEvent::AddedDistinct);
        assert_eq!(
            *m.canonicalize(),
            oracle_arena(&[vec![9, 1, 5], vec![8, 1, 5], vec![7, 3, 5]])
        );

        // Removing a path that is not live is an upstream bug, not a panic.
        assert_eq!(m.remove_one(&[1, 2, 3, 4]), None);
        assert_eq!(m.remove_one(&[7, 3, 5]), Some(PathEvent::RemovedDistinct));
        assert_eq!(m.remove_one(&[7, 3, 5]), None);
    }

    #[test]
    fn mutable_arena_compaction_stays_canonical() {
        let base = Arc::new(oracle_arena(&[vec![9, 1, 5], vec![8, 1, 5]]));
        let mut m = MutablePathArena::from_arena(&base);
        // Push far past the tail threshold (live/8 + 64) to force the
        // compaction branch, canonicalizing along the way.
        let mut multiset = vec![vec![9, 1, 5], vec![8, 1, 5]];
        for i in 0..90u32 {
            let hops = vec![1000 + i, 500 + (i % 13), 1 + (i % 7)];
            assert_eq!(m.add_one(&hops), PathEvent::AddedDistinct);
            multiset.push(hops);
            if i % 17 == 0 {
                assert_eq!(*m.canonicalize(), oracle_arena(&multiset));
            }
        }
        let out = m.canonicalize();
        assert_eq!(*out, oracle_arena(&multiset));
        assert!(out.validate().is_empty());
        // Post-compaction the slot table keeps behaving canonically.
        assert_eq!(m.remove_one(&[9, 1, 5]), Some(PathEvent::RemovedDistinct));
        multiset.retain(|h| h != &[9, 1, 5]);
        assert_eq!(*m.canonicalize(), oracle_arena(&multiset));
    }

    mod mutable_oracle {
        use super::*;
        use proptest::prelude::*;

        /// One scripted mutation: add or remove the `i % pool`-th pool
        /// path, with a canonicalize sprinkled in every few ops.
        #[derive(Debug, Clone)]
        enum Op {
            Add(usize),
            Remove(usize),
            Canon,
        }

        fn op_strategy(pool: usize) -> impl Strategy<Value = Op> {
            (0u8..7, 0..pool).prop_map(|(kind, i)| match kind {
                0..=2 => Op::Add(i),
                3..=5 => Op::Remove(i),
                _ => Op::Canon,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Tentpole pin: any interleaving of adds, removes, and
            /// canonicalizations over a fixed path pool emits arenas
            /// bit-identical to rebuilding from scratch over the
            /// surviving sample multiset.
            #[test]
            fn mutation_matches_rebuild_oracle(
                pool in proptest::collection::vec(
                    proptest::collection::vec(1u32..40, 2..5),
                    1..12,
                ),
                init in proptest::collection::vec(any::<usize>(), 0..10),
                ops in proptest::collection::vec(op_strategy(64), 0..40),
            ) {
                let mut multiset: Vec<Vec<u32>> = init
                    .iter()
                    .map(|&ix| pool[ix % pool.len()].clone())
                    .collect();
                let base = Arc::new(oracle_arena(&multiset));
                let mut m = MutablePathArena::from_arena(&base);

                for op in ops {
                    match op {
                        Op::Add(i) => {
                            let hops = &pool[i % pool.len()];
                            let before_live = m.live_len();
                            let ev = m.add_one(hops);
                            multiset.push(hops.clone());
                            let was_new = !multiset[..multiset.len() - 1].contains(hops);
                            prop_assert_eq!(
                                ev,
                                if was_new { PathEvent::AddedDistinct } else { PathEvent::MultChanged }
                            );
                            prop_assert_eq!(m.live_len(), before_live + usize::from(was_new));
                        }
                        Op::Remove(i) => {
                            let hops = &pool[i % pool.len()];
                            let ev = m.remove_one(hops);
                            if let Some(pos) = multiset.iter().position(|h| h == hops) {
                                multiset.remove(pos);
                                let still_there = multiset.contains(hops);
                                prop_assert_eq!(
                                    ev,
                                    Some(if still_there {
                                        PathEvent::MultChanged
                                    } else {
                                        PathEvent::RemovedDistinct
                                    })
                                );
                            } else {
                                prop_assert_eq!(ev, None);
                            }
                        }
                        Op::Canon => {
                            let out = m.canonicalize();
                            prop_assert!(out.validate().is_empty());
                            prop_assert_eq!(&*out, &oracle_arena(&multiset));
                        }
                    }
                }
                let out = m.canonicalize();
                prop_assert!(out.validate().is_empty());
                prop_assert_eq!(&*out, &oracle_arena(&multiset));
                // Canonicalizing again without mutations reuses the Arc.
                let again = m.canonicalize();
                prop_assert!(Arc::ptr_eq(&out, &again));
            }
        }
    }
}
