//! Customer cones — the paper's three definitions.
//!
//! The *customer cone* of AS `x` is the set of ASes `x` can reach by only
//! following provider→customer links: the part of the Internet that pays
//! (directly or indirectly) for `x`'s transit. The paper defines three
//! variants with different robustness/recall trade-offs:
//!
//! 1. **Recursive** — the transitive closure of inferred p2c links.
//!    Largest, but inflated by multihoming misinference: one wrong c2p
//!    link grafts an entire subtree into a cone.
//! 2. **BGP-observed** — `y ∈ cone(x)` only when an observed path
//!    actually descends from `x` to `y` through inferred p2c links.
//! 3. **Provider/peer observed** — `y ∈ cone(x)` only when a path shows
//!    `x` *announcing* `y` to one of `x`'s providers or peers; by
//!    Gao-Rexford export rules such announcements can only be customer
//!    routes, so this is the most conservative definition.
//!
//! Cones are measured in three units: member ASes, originated prefixes,
//! and originated address space.
//!
//! ## Representation and performance
//!
//! All three computations run over **dense ids** from a bulk-built
//! [`AsnInterner`] (ids ascend with ASN, so resolved member lists are
//! born sorted). The recursive closure first tries a Kahn topological
//! sort of the p2c digraph directly: c2p cycles are rare inference
//! errors, so the common case skips Tarjan/condensation entirely and
//! every AS is its own component. When a cycle does exist, Tarjan SCCs
//! collapse it and the same dynamic program runs over the condensation.
//! The DP itself ([`closure_dp`]) is output-sensitive: stub leaves store
//! nothing, small cones live as sorted id runs in one shared arena, and
//! only the transit core pays for full-universe [`BitSet`]s whose unions
//! are word-parallel `|=` over packed `u64`s. Every AS of an SCC shares
//! one materialized member list (`set_of` indirection), and
//! prefix/address weights come from per-id lookup tables instead of hash
//! probes per member. Materialization fans out over worker threads
//! ([`Parallelism`]); results are identical for every thread count. The
//! pre-optimization HashSet implementation survives as
//! [`CustomerCones::recursive_reference`], the property-test oracle.
//!
//! The two path-observed cones run over the shared [`PathArena`] as a
//! **single deterministic parallel sweep**: worker shards scan
//! contiguous ranges of the arena's distinct paths once, emit packed
//! `(cone-root, member)` pairs, and a sort+dedup merge builds the flat
//! member sets — bit-identical for every thread count. The pre-arena
//! per-AS-rescan engines survive as
//! [`CustomerCones::bgp_observed_reference`] /
//! [`CustomerCones::provider_peer_observed_reference`], the proptest
//! oracles.

use crate::csr::Csr;
use crate::par;
use crate::patharena::PathArena;
use crate::sanitize::SanitizedPaths;
use asrank_types::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Size of one AS's customer cone in the three units the paper reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConeSize {
    /// Number of ASes in the cone (including the AS itself).
    pub ases: usize,
    /// Prefixes originated by cone members.
    pub prefixes: usize,
    /// IPv4 addresses covered by those prefixes.
    pub addresses: u64,
}

/// Customer cones for every AS under one of the three definitions.
///
/// Internally: dense ids from an [`AsnInterner`], a `set_of` indirection
/// mapping each AS to its member set (ASes of one c2p cycle share a set),
/// and per-set sizes. Member lists are sorted by ASN.
#[derive(Debug, Clone, Default)]
pub struct CustomerCones {
    interner: AsnInterner,
    /// Dense AS id → index into `bounds` / `sizes`.
    set_of: Vec<u32>,
    /// Member lists of every set, concatenated in set order and sorted
    /// within each set. One shared arena instead of a heap `Vec` per set
    /// — tens of thousands of small allocations otherwise dominate
    /// construction.
    members_flat: Vec<Asn>,
    /// Set `i` spans `members_flat[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
    /// Measured size of each set, aligned with `bounds`.
    sizes: Vec<ConeSize>,
}

/// The three cone definitions computed side by side, for comparison
/// experiments.
#[derive(Debug, Clone)]
pub struct ConeSets {
    /// Transitive closure of p2c.
    pub recursive: CustomerCones,
    /// Path-witnessed descent.
    pub bgp_observed: CustomerCones,
    /// Announcement-witnessed (to provider or peer).
    pub provider_peer_observed: CustomerCones,
}

impl ConeSets {
    /// Compute all three definitions.
    pub fn compute(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    ) -> Self {
        Self::compute_with(sanitized, rels, prefixes, Parallelism::auto())
    }

    /// [`ConeSets::compute`] with an explicit thread budget. The result
    /// is identical for every `par` value.
    pub fn compute_with(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> Self {
        // One shared arena: both observed cones read the same interned,
        // deduplicated paths instead of re-parsing them independently.
        let arena = PathArena::build_with(sanitized, par);
        Self::compute_from_arena(&arena, rels, prefixes, par)
    }

    /// Compute all three definitions over a prebuilt [`PathArena`]
    /// (e.g. the one the inference pipeline already constructed).
    pub fn compute_from_arena(
        arena: &PathArena,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> Self {
        ConeSets {
            recursive: CustomerCones::recursive_with(rels, prefixes, par),
            bgp_observed: CustomerCones::bgp_observed_from_arena(arena, rels, prefixes, par),
            provider_peer_observed: CustomerCones::provider_peer_observed_from_arena(
                arena, rels, prefixes, par,
            ),
        }
    }
}

/// Pre-dedup member bound below which a cone is kept as a sorted id vec
/// instead of a full-universe bitset. Two cache lines of ids — merging at
/// this size is cheaper than allocating and sweeping `n/64` words.
const SMALL_CONE: usize = 128;

/// DP-internal cone representation; leaf components (no customers) are
/// represented by absence — their cone is their member list.
enum Cone {
    /// Sorted, deduplicated member ids of a small cone, stored as a
    /// `start..end` range into a shared id arena (no per-cone heap).
    Small(u32, u32),
    /// Full-universe bitset for the big transit-core cones.
    Big(BitSet),
}

/// Per-dense-id prefix weights, precomputed once so measuring a cone is a
/// table walk instead of a hash probe per member.
struct PrefixWeights {
    count: Vec<u32>,
    addresses: Vec<u64>,
}

impl PrefixWeights {
    fn build(interner: &AsnInterner, prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>) -> Self {
        let n = interner.len();
        let mut count = vec![0u32; n];
        let mut addresses = vec![0u64; n];
        if let Some(table) = prefixes {
            for (id, asn) in interner.iter() {
                if let Some(pfx) = table.get(&asn) {
                    count[id as usize] = dense_id(pfx.len());
                    addresses[id as usize] =
                        pfx.iter().map(Ipv4Prefix::address_count).sum::<u64>();
                }
            }
        }
        PrefixWeights { count, addresses }
    }
}

impl CustomerCones {
    /// Cone size of `asn`; an unknown AS has the trivial cone of itself
    /// with no known prefixes.
    pub fn size(&self, asn: Asn) -> ConeSize {
        match self.interner.get(asn) {
            Some(id) => self.sizes[self.set_of[id as usize] as usize],
            None => ConeSize {
                ases: 1,
                prefixes: 0,
                addresses: 0,
            },
        }
    }

    /// Sorted cone membership of `asn` (empty slice for unknown ASes).
    pub fn members(&self, asn: Asn) -> &[Asn] {
        match self.interner.get(asn) {
            Some(id) => self.set(self.set_of[id as usize]),
            None => &[],
        }
    }

    /// Member slice of set `s` out of the shared arena.
    fn set(&self, s: u32) -> &[Asn] {
        &self.members_flat[self.bounds[s as usize] as usize..self.bounds[s as usize + 1] as usize]
    }

    /// True when `y` is in `x`'s cone.
    pub fn contains(&self, x: Asn, y: Asn) -> bool {
        self.members(x).binary_search(&y).is_ok()
    }

    /// All ASes with a computed cone, in ascending ASN order.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.interner.iter().map(|(_, a)| a)
    }

    /// Iterate `(asn, cone size)` for every covered AS in ascending ASN
    /// order — the bulk accessor for whole-distribution experiments
    /// (CCDFs, rank correlations), replacing a hash lookup per AS.
    pub fn iter_sizes(&self) -> impl Iterator<Item = (Asn, ConeSize)> + '_ {
        self.interner
            .iter()
            .map(|(id, a)| (a, self.sizes[self.set_of[id as usize] as usize]))
    }

    /// Iterate `(asn, sorted members)` for every covered AS in ascending
    /// ASN order.
    pub fn iter_members(&self) -> impl Iterator<Item = (Asn, &[Asn])> + '_ {
        self.interner
            .iter()
            .map(|(id, a)| (a, self.set(self.set_of[id as usize])))
    }

    /// Number of ASes covered.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// True when no cone was computed.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// The AS with the largest cone (by AS count, ties to the lowest
    /// ASN), if any.
    pub fn largest(&self) -> Option<(Asn, ConeSize)> {
        self.iter_sizes()
            .max_by_key(|&(a, s)| (s.ases, std::cmp::Reverse(a)))
    }

    /// Decompose into the raw columnar parts the persistent artifact
    /// codec serializes: `(interner, set_of, members_flat, bounds,
    /// sizes)`. Inverse of [`CustomerCones::from_raw_parts`].
    pub fn raw_parts(&self) -> (&AsnInterner, &[u32], &[Asn], &[u32], &[ConeSize]) {
        (
            &self.interner,
            &self.set_of,
            &self.members_flat,
            &self.bounds,
            &self.sizes,
        )
    }

    /// Reassemble cones from raw columnar parts, re-checking every
    /// structural invariant the accessors index by (set ids in range,
    /// bounds monotone and spanning the member arena). Returns `None`
    /// for inconsistent parts — the codec treats that as a corrupt
    /// cache file and recomputes.
    pub fn from_raw_parts(
        interner: AsnInterner,
        set_of: Vec<u32>,
        members_flat: Vec<Asn>,
        bounds: Vec<u32>,
        sizes: Vec<ConeSize>,
    ) -> Option<CustomerCones> {
        let sets = sizes.len();
        if set_of.len() != interner.len() {
            return None;
        }
        let trivially_empty = sets == 0 && bounds.len() <= 1 && members_flat.is_empty();
        if bounds.len() != sets + 1 && !trivially_empty {
            return None;
        }
        if let (Some(&first), Some(&last)) = (bounds.first(), bounds.last()) {
            if first != 0 || last as usize != members_flat.len() {
                return None;
            }
        } else if !members_flat.is_empty() {
            return None;
        }
        if bounds.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if set_of.iter().any(|&s| (s as usize) >= sets) {
            return None;
        }
        Some(CustomerCones {
            interner,
            set_of,
            members_flat,
            bounds,
            sizes,
        })
    }

    /// **Recursive cone**: transitive closure of inferred p2c links.
    ///
    /// Cycles (inference errors) are collapsed first so the closure is
    /// well-defined: every member of a c2p cycle shares one cone.
    ///
    /// ```
    /// use asrank_core::CustomerCones;
    /// use asrank_types::{Asn, RelationshipMap};
    ///
    /// let mut rels = RelationshipMap::new();
    /// rels.insert_c2p(Asn(10), Asn(1));
    /// rels.insert_c2p(Asn(100), Asn(10));
    /// let cones = CustomerCones::recursive(&rels, None);
    /// assert_eq!(cones.size(Asn(1)).ases, 3);   // {1, 10, 100}
    /// assert!(cones.contains(Asn(1), Asn(100)));
    /// assert_eq!(cones.size(Asn(100)).ases, 1); // just itself
    /// ```
    pub fn recursive(
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    ) -> Self {
        Self::recursive_with(rels, prefixes, Parallelism::auto())
    }

    /// [`CustomerCones::recursive`] with an explicit thread budget.
    pub fn recursive_with(
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> Self {
        let interner = AsnInterner::from_ases(rels.link_endpoints());
        let n = interner.len();
        if n == 0 {
            return CustomerCones::default();
        }

        // Provider→customer edges by dense id — the orientation the
        // closure DP walks.
        let mut p2c: Vec<(u32, u32)> = rels
            .c2p_pairs()
            .map(|(c, p)| {
                (
                    // The interner was built from these same endpoints,
                    // so every c2p member is interned by construction.
                    // lint: allow(panics, interner seeded from rels.link_endpoints covers every c2p endpoint)
                    interner.get(p).expect("interned"),
                    // lint: allow(panics, interner seeded from rels.link_endpoints covers every c2p endpoint)
                    interner.get(c).expect("interned"),
                )
            })
            .collect();
        // The pairs come off a hash map whose iteration order reflects
        // insertion history, not content — two equal relationship maps
        // can yield permuted edge lists, and that permutation would leak
        // into Tarjan's component numbering and the member grouping.
        // Sorting pins the whole cone layout to the map's content.
        p2c.sort_unstable();
        let customers = Csr::from_edges(n, &p2c);

        // Kahn completes exactly when the digraph is acyclic — the
        // typical case, since a c2p cycle is an inference error. Then
        // every "component" is a single AS and the Tarjan pass, the
        // condensation, and the member grouping all collapse to identity
        // mappings that never materialize.
        let order = kahn_order(n, &p2c, &customers);
        if order.len() == n {
            let member_starts: Vec<u32> = (0..=n as u32).collect();
            let member_ids: Vec<u32> = (0..n as u32).collect();
            let (members_flat, bounds, sizes) = closure_dp(
                &customers,
                &order,
                &member_starts,
                &member_ids,
                &interner,
                prefixes,
                par,
            );
            return CustomerCones {
                interner,
                set_of: (0..n as u32).collect(),
                members_flat,
                bounds,
                sizes,
            };
        }

        // Cycles exist: collapse them exactly with Tarjan SCCs (SCCs are
        // orientation-invariant, so the p2c graph serves as-is) and run
        // the DP over the acyclic condensation — every member of a c2p
        // cycle shares one cone.
        let scc = crate::scc::tarjan(n, &customers);
        let ncomp = scc.count;

        // Condensed provider→customer edges (comp → comp). Parallel
        // edges are left in: Kahn counts and decrements them
        // symmetrically, and the DP's unions are idempotent — skipping
        // a sort+dedup pass is a measurable win on big edge lists.
        let comp_edges: Vec<(u32, u32)> = p2c
            .iter()
            .filter_map(|&(p, c)| {
                let (pc, cc) = (scc.comp[p as usize], scc.comp[c as usize]);
                (pc != cc).then_some((pc, cc))
            })
            .collect();
        let comp_customers = Csr::from_edges(ncomp, &comp_edges);
        let order = kahn_order(ncomp, &comp_edges, &comp_customers);
        debug_assert_eq!(order.len(), ncomp, "condensation must be acyclic");

        // Group member ids by component with a counting sort — flat
        // arrays, no per-component `Vec` — ids ascend within each group.
        let mut member_starts = vec![0u32; ncomp + 1];
        for &cm in &scc.comp {
            member_starts[cm as usize + 1] += 1;
        }
        for i in 1..=ncomp {
            member_starts[i] += member_starts[i - 1];
        }
        let mut cursor = member_starts.clone();
        let mut member_ids = vec![0u32; n];
        for id in 0..n as u32 {
            let cm = scc.comp[id as usize] as usize;
            member_ids[cursor[cm] as usize] = id;
            cursor[cm] += 1;
        }

        let (members_flat, bounds, sizes) = closure_dp(
            &comp_customers,
            &order,
            &member_starts,
            &member_ids,
            &interner,
            prefixes,
            par,
        );
        CustomerCones {
            interner,
            set_of: scc.comp,
            members_flat,
            bounds,
            sizes,
        }
    }

    /// The straightforward `HashSet`-based recursive closure this module
    /// shipped with before the dense/bitset rewrite: per-AS BFS over
    /// provider→customer edges with hashed visited-sets.
    ///
    /// Kept as the correctness oracle for the property tests (the bitset
    /// closure must agree on every topology, cycles included). Do not
    /// use it for real workloads.
    pub fn recursive_reference(
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    ) -> Self {
        let interner = AsnInterner::from_ases(rels.link_endpoints());
        let n = interner.len();
        let mut customers_by_provider: HashMap<Asn, Vec<Asn>> = HashMap::new();
        for (c, p) in rels.c2p_pairs() {
            customers_by_provider.entry(p).or_default().push(c);
        }
        let mut members_flat = Vec::new();
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0u32);
        let mut sizes = Vec::with_capacity(n);
        for (_, asn) in interner.iter() {
            let mut seen: HashSet<Asn> = HashSet::new();
            let mut stack = vec![asn];
            seen.insert(asn);
            while let Some(x) = stack.pop() {
                for &c in customers_by_provider
                    .get(&x)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                {
                    if seen.insert(c) {
                        stack.push(c);
                    }
                }
            }
            let mut members: Vec<Asn> = seen.into_iter().collect();
            members.sort_unstable();
            sizes.push(measure_hashed(&members, prefixes));
            members_flat.extend_from_slice(&members);
            bounds.push(dense_id(members_flat.len()));
        }
        CustomerCones {
            interner,
            set_of: (0..n as u32).collect(),
            members_flat,
            bounds,
            sizes,
        }
    }

    /// **BGP-observed cone**: membership requires a witnessed descent.
    pub fn bgp_observed(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    ) -> Self {
        Self::bgp_observed_with(sanitized, rels, prefixes, Parallelism::auto())
    }

    /// [`CustomerCones::bgp_observed`] with an explicit thread budget.
    pub fn bgp_observed_with(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> Self {
        let arena = PathArena::build_with(sanitized, par);
        Self::bgp_observed_from_arena(&arena, rels, prefixes, par)
    }

    /// [`CustomerCones::bgp_observed`] over a prebuilt [`PathArena`] —
    /// the single-sweep engine. Worker shards scan contiguous path
    /// ranges once for maximal descending runs (each run puts everything
    /// below the top AS into that AS's cone), emit packed (cone-root,
    /// member) pairs into per-shard buffers, and a sort+dedup merge
    /// builds the flat member sets — deterministic for every thread
    /// count.
    pub fn bgp_observed_from_arena(
        arena: &PathArena,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> Self {
        let providers = witness_graph(arena, rels, false);
        let raw = raw_sweep_pairs(arena, &providers, par, scan_descents);
        let pairs = merge_sweep_pairs_blocked(&raw, arena.num_ases(), 0, par);
        observed_cones(arena, pairs, prefixes, par)
    }

    /// **Provider/peer observed cone**: membership requires `x` to have
    /// been seen announcing the member to a provider or peer.
    pub fn provider_peer_observed(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    ) -> Self {
        Self::provider_peer_observed_with(sanitized, rels, prefixes, Parallelism::auto())
    }

    /// [`CustomerCones::provider_peer_observed`] with an explicit thread
    /// budget.
    pub fn provider_peer_observed_with(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> Self {
        let arena = PathArena::build_with(sanitized, par);
        Self::provider_peer_observed_from_arena(&arena, rels, prefixes, par)
    }

    /// [`CustomerCones::provider_peer_observed`] over a prebuilt
    /// [`PathArena`] — the single-sweep engine (see
    /// [`CustomerCones::bgp_observed_from_arena`] for the merge
    /// strategy).
    pub fn provider_peer_observed_from_arena(
        arena: &PathArena,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> Self {
        let graphs = witness_graph(arena, rels, true);
        let raw = raw_sweep_pairs(arena, &graphs, par, scan_announcements);
        let pairs = merge_sweep_pairs_blocked(&raw, arena.num_ases(), 0, par);
        observed_cones(arena, pairs, prefixes, par)
    }

    /// The pre-arena BGP-observed computation: per-call interner build,
    /// per-path `Vec<u32>` allocation, and lexicographic `Vec<Vec<u32>>`
    /// sort+dedup — everything [`PathArena`] now amortizes.
    ///
    /// Kept as the property-test oracle (the arena sweep must agree on
    /// every topology). Do not use it for real workloads.
    pub fn bgp_observed_reference(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    ) -> Self {
        let par = Parallelism::auto();
        let ctx = ObservedContext::build(sanitized, rels);
        // Scan distinct paths for maximal descending runs; each run puts
        // everything below the top AS into that AS's cone.
        let pairs = ctx.collect_pairs(&ctx.c2p, par, scan_descents);
        ctx.into_cones(pairs, prefixes, par)
    }

    /// The pre-arena provider/peer-observed computation; see
    /// [`CustomerCones::bgp_observed_reference`] for why it survives.
    pub fn provider_peer_observed_reference(
        sanitized: &SanitizedPaths,
        rels: &RelationshipMap,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    ) -> Self {
        let par = Parallelism::auto();
        let ctx = ObservedContext::build(sanitized, rels);
        let pairs = ctx.collect_pairs(&ctx.c2p_or_p2p, par, scan_announcements);
        ctx.into_cones(pairs, prefixes, par)
    }
}

/// Position/relationship predicate of the BGP-observed cone: every
/// maximal descending run `hops[start..=end]` (each step witnessed by a
/// c2p edge) puts `hops[start+1..=end]` into `hops[start]`'s cone —
/// for *every* start inside the run, since each suffix of a descent is
/// itself a witnessed descent.
///
/// Each adjacent pair's witness edge is tested exactly once: a start
/// inside a maximal descending block always extends to the block's end,
/// so the per-start runs never need their own edge probes.
fn scan_descents(hops: &[u32], providers: &Csr, emit: &mut dyn FnMut(u32, u32)) {
    let mut s = 0;
    while s + 1 < hops.len() {
        // Maximal descending block starting at s.
        let mut e = s;
        while e + 1 < hops.len() && has_edge(providers, hops[e + 1], hops[e]) {
            e += 1;
        }
        if e == s {
            s += 1;
            continue;
        }
        for start in s..e {
            for &below in &hops[start + 1..=e] {
                emit(hops[start], below);
            }
        }
        // The pair (e, e+1) failed the witness test (or e+1 is the path
        // end), so no descent can start before e + 1.
        s = e + 1;
    }
}

/// Position/relationship predicate of the provider/peer-observed cone:
/// when `hops[i-1]` is `hops[i]`'s provider or peer, `hops[i]` announced
/// everything beyond itself — which can only be customer routes.
fn scan_announcements(hops: &[u32], graphs: &Csr, emit: &mut dyn FnMut(u32, u32)) {
    for i in 1..hops.len() {
        let (x, w) = (hops[i], hops[i - 1]);
        // w received the route from x; if w is x's provider or peer,
        // everything beyond x is x's customer cone.
        if has_edge(graphs, x, w) {
            for &below in &hops[i + 1..] {
                emit(x, below);
            }
        }
    }
}

/// Witness edges (`x → w` where `w` is `x`'s provider, optionally also
/// peers, restricted to path-observed ASes) as a sorted CSR over the
/// arena's id space.
fn witness_graph(arena: &PathArena, rels: &RelationshipMap, include_peers: bool) -> Csr {
    let interner = arena.interner();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (c, p) in rels.c2p_pairs() {
        if let (Some(ci), Some(pi)) = (interner.get(c), interner.get(p)) {
            edges.push((ci, pi));
        }
    }
    if include_peers {
        for (a, b) in rels.p2p_pairs() {
            if let (Some(ai), Some(bi)) = (interner.get(a), interner.get(b)) {
                edges.push((ai, bi));
                edges.push((bi, ai));
            }
        }
    }
    Csr::from_edges_dedup(interner.len(), &edges)
}

/// The scan half of the sweep: worker shards scan contiguous path
/// ranges of the arena once, emitting packed `(owner << 32) | member`
/// pairs into per-shard buffers, concatenated in shard order. The
/// result is unsorted and duplicate-bearing — it feeds
/// [`merge_sweep_pairs_blocked`], and shard order is deterministic, so
/// the merged output is independent of both path order and thread
/// count.
fn raw_sweep_pairs<F>(arena: &PathArena, witness: &Csr, par: Parallelism, scan: F) -> Vec<u64>
where
    F: Fn(&[u32], &Csr, &mut dyn FnMut(u32, u32)) + Sync,
{
    par::map_ranges(par, 32, arena.len(), |range| {
        let mut local: Vec<u64> = Vec::new();
        for p in range {
            scan(arena.path(p), witness, &mut |owner, member| {
                local.push((owner as u64) << 32 | member as u64);
            });
        }
        local
    })
    .concat()
}

/// Sort packed `(owner << 32) | member` pairs ascending via a two-pass
/// stable counting sort over the dense id space — O(pairs + ids) versus
/// the O(pairs·log pairs) comparison sort it replaces, and exactly as
/// deterministic (counting sort has no comparator, let alone an
/// unstable one).
fn sort_pairs(pairs: &mut Vec<u64>, n: usize) {
    // Comparison sort is fine (and allocation-free) for tiny inputs.
    if pairs.len() <= n || n == 0 {
        pairs.sort_unstable();
        return;
    }
    let mut tmp: Vec<u64> = vec![0; pairs.len()];
    let mut counts: Vec<u32> = vec![0; n + 1];
    // Pass 1: stable bucket by member (low word) into tmp.
    for &e in pairs.iter() {
        counts[(e & 0xFFFF_FFFF) as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    for &e in pairs.iter() {
        let c = &mut counts[(e & 0xFFFF_FFFF) as usize];
        tmp[*c as usize] = e;
        *c += 1;
    }
    // Pass 2: stable bucket by owner (high word) back into pairs; the
    // member order within each owner survives from pass 1.
    counts.clear();
    counts.resize(n + 1, 0);
    for &e in tmp.iter() {
        counts[(e >> 32) as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    for &e in tmp.iter() {
        let c = &mut counts[(e >> 32) as usize];
        pairs[*c as usize] = e;
        *c += 1;
    }
}

/// Presence-bitmap budget for the automatic block width: one block's
/// `width × num_ases` bitmap is sized to ~256 KiB — L2-resident on
/// current cores. Cache-sized, not core-sized: the win is that every
/// dedup write lands in a resident bitmap, so it holds on one core
/// exactly as on many.
const SWEEP_BLOCK_BITMAP_BYTES: usize = 256 * 1024;

/// The full-width merge on raw sweep pairs: one two-pass counting sort
/// plus dedup — the blocked merge's single-block path.
fn merge_sweep_pairs_unblocked(raw: &[u64], num_ases: usize) -> Vec<u64> {
    let mut pairs = raw.to_vec();
    sort_pairs(&mut pairs, num_ases);
    pairs.dedup();
    pairs
}

/// Cache-blocked merge of raw sweep pairs: partition by owner-id block,
/// then collapse each block through a presence bitmap of
/// `block_width × num_ases` bits. Setting a bit per raw pair dedups as
/// a side effect, and walking the bitmap's owner rows emits the
/// surviving pairs already sorted — the sort pass disappears entirely.
/// Blocks own disjoint ascending owner ranges, so the per-block outputs
/// concatenate into exactly the globally sorted, deduplicated pair list
/// — bit-identical for every `block_ids` (`0` = automatic cache-sized
/// width; any other value is rounded up to a power of two, and a width
/// covering every owner runs the single full-width merge). The engine
/// always passes `0`; tests force widths to pin that equivalence.
///
/// Why this is faster at scale: raw sweeps repeat each (owner, member)
/// pair once per witnessing path, so the raw list is many times larger
/// than its unique survivors. The full-width sort pays two counting
/// passes over *every* repeat; the bitmap pays one resident bit-set per
/// repeat and then walks bits, never touching the repeats again. The
/// bitmap only stays resident because blocking bounds it — the
/// full-width equivalent (`num_ases²` bits) would thrash exactly like
/// the scatter it replaces.
pub fn merge_sweep_pairs_blocked(
    raw: &[u64],
    num_ases: usize,
    block_ids: usize,
    par: Parallelism,
) -> Vec<u64> {
    let total = raw.len();
    let n = num_ases;
    if total == 0 {
        return Vec::new();
    }
    // Owner-block width: forced, or sized so one block's bitmap fits
    // the cache budget — rounded up to a power of two either way, so
    // the partition passes divide by shifting.
    let requested = if block_ids == 0 {
        SWEEP_BLOCK_BITMAP_BYTES * 8 / n.max(1)
    } else {
        block_ids
    };
    let shift = requested
        .clamp(1, n.max(1))
        .next_power_of_two()
        .trailing_zeros();
    let width = 1usize << shift;
    let nblocks = n.div_ceil(width).max(1);
    if nblocks <= 1 {
        return merge_sweep_pairs_unblocked(raw, n);
    }
    let (seg_starts, parts) = partition_by_block(raw, nblocks, shift);
    // Collapse every block independently. Owners never cross a block
    // boundary, so per-block dedup is global dedup, and block order is
    // id order. Each worker reuses one bitmap (and the counting-sort
    // scratch for sparse blocks) across its whole range of blocks.
    let words_per_row = n.div_ceil(64);
    par::map_ranges(par, 1, nblocks, |range| {
        let mut out: Vec<u64> = Vec::new();
        let mut bits: Vec<u64> = Vec::new();
        let mut scratch: Vec<u64> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for b in range {
            let seg = &parts[seg_starts[b]..seg_starts[b + 1]];
            if seg.is_empty() {
                continue;
            }
            let base = b * width;
            let rows = width.min(n - base);
            // Sparse blocks: the O(pairs) counting sort beats zeroing
            // and walking a bitmap the pairs barely populate. Either
            // path produces the identical sorted, deduplicated tail.
            if seg.len() * 4 < rows * words_per_row {
                let before = out.len();
                sort_block_into(seg, &mut out, &mut scratch, &mut counts);
                dedup_from(&mut out, before);
                continue;
            }
            bits.clear();
            bits.resize(rows * words_per_row, 0);
            for &e in seg {
                let o = (e >> 32) as usize - base;
                let m = (e & 0xFFFF_FFFF) as usize;
                bits[o * words_per_row + m / 64] |= 1u64 << (m % 64);
            }
            for local_o in 0..rows {
                let owner_hi = ((base + local_o) as u64) << 32;
                let row = &bits[local_o * words_per_row..(local_o + 1) * words_per_row];
                for (wi, &w) in row.iter().enumerate() {
                    let mut word = w;
                    while word != 0 {
                        let m = wi as u64 * 64 + word.trailing_zeros() as u64;
                        out.push(owner_hi | m);
                        word &= word - 1;
                    }
                }
            }
        }
        out
    })
    .concat()
}

/// Partition packed pairs into per-owner-block segments: one histogram
/// pass, one scatter pass with `nblocks` streaming cursors. The cursor
/// table and the block tails it appends to stay cache-resident — unlike
/// the full-width counting-sort scatter, whose write targets span the
/// entire pair list. Blocks are `1 << shift` owner ids wide.
fn partition_by_block(raw: &[u64], nblocks: usize, shift: u32) -> (Vec<usize>, Vec<u64>) {
    let block_of = |e: u64| ((e >> 32) >> shift) as usize;
    let mut seg_starts = vec![0usize; nblocks + 1];
    for &e in raw {
        seg_starts[block_of(e) + 1] += 1;
    }
    for b in 1..=nblocks {
        seg_starts[b] += seg_starts[b - 1];
    }
    let mut parts: Vec<u64> = vec![0; raw.len()];
    let mut cursor: Vec<usize> = seg_starts[..nblocks].to_vec();
    for &e in raw {
        let b = block_of(e);
        parts[cursor[b]] = e;
        cursor[b] += 1;
    }
    (seg_starts, parts)
}

/// Sort one owner block's packed pairs ascending, appending them to
/// `out`. Two stable counting passes, both sized to the block's live
/// value spans (observed member range, then the block's observed owner
/// range) rather than the full id space — `scratch` never outgrows the
/// block and `counts` never outgrows the live span.
fn sort_block_into(seg: &[u64], out: &mut Vec<u64>, scratch: &mut Vec<u64>, counts: &mut Vec<u32>) {
    let before = out.len();
    // Tiny blocks: comparison sort beats two counting passes.
    if seg.len() <= 64 {
        out.extend_from_slice(seg);
        out[before..].sort_unstable();
        return;
    }
    let mut min_m = u64::MAX;
    let mut max_m = 0u64;
    let mut min_o = u64::MAX;
    let mut max_o = 0u64;
    for &e in seg {
        let m = e & 0xFFFF_FFFF;
        let o = e >> 32;
        min_m = min_m.min(m);
        max_m = max_m.max(m);
        min_o = min_o.min(o);
        max_o = max_o.max(o);
    }
    let member_span = (max_m - min_m) as usize + 1;
    let owner_span = (max_o - min_o) as usize + 1;
    // Pass 1: stable bucket by member (low word) into scratch.
    counts.clear();
    counts.resize(member_span + 1, 0);
    for &e in seg {
        counts[((e & 0xFFFF_FFFF) - min_m) as usize + 1] += 1;
    }
    for i in 0..member_span {
        counts[i + 1] += counts[i];
    }
    scratch.clear();
    scratch.resize(seg.len(), 0);
    for &e in seg {
        let c = &mut counts[((e & 0xFFFF_FFFF) - min_m) as usize];
        scratch[*c as usize] = e;
        *c += 1;
    }
    // Pass 2: stable bucket by owner (high word), appending to `out`;
    // the member order within each owner survives from pass 1.
    counts.clear();
    counts.resize(owner_span + 1, 0);
    for &e in scratch.iter() {
        counts[((e >> 32) - min_o) as usize + 1] += 1;
    }
    for i in 0..owner_span {
        counts[i + 1] += counts[i];
    }
    out.resize(before + seg.len(), 0);
    for &e in scratch.iter() {
        let c = &mut counts[((e >> 32) - min_o) as usize];
        out[before + *c as usize] = e;
        *c += 1;
    }
}

/// In-place dedup of the sorted tail `v[from..]` (the block just
/// appended); earlier blocks are untouched and cannot share owners.
fn dedup_from(v: &mut Vec<u64>, from: usize) {
    let mut w = from;
    for r in from..v.len() {
        if w == from || v[w - 1] != v[r] {
            v[w] = v[r];
            w += 1;
        }
    }
    v.truncate(w);
}

/// Materialize observed cones from sorted `(owner, member)` pairs:
/// every observed AS gets the trivial cone of itself plus its collected
/// members (the same final stage as [`ObservedContext::into_cones`],
/// reading the interner from the shared arena).
fn observed_cones(
    arena: &PathArena,
    pairs: Vec<u64>,
    prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    par: Parallelism,
) -> CustomerCones {
    let interner = arena.interner().clone();
    let n = interner.len();
    let weights = PrefixWeights::build(&interner, prefixes);

    // Per-owner slice boundaries in the sorted pair list.
    let mut starts = vec![0usize; n + 1];
    {
        let mut cursor = 0usize;
        for owner in 0..n as u64 {
            while cursor < pairs.len() && pairs[cursor] >> 32 < owner {
                cursor += 1;
            }
            starts[owner as usize] = cursor;
        }
        starts[n] = pairs.len();
    }

    let materialized = par::map_ranges(par, 256, n, |range| {
        let mut chunk = ChunkSets::with_capacity(range.len());
        for owner in range {
            let (lo, hi) = (starts[owner], starts[owner + 1]);
            let before = chunk.members.len();
            let mut size = ConeSize::default();
            // Merge the owner itself into its sorted member run.
            let mut self_pending = true;
            for &packed in &pairs[lo..hi] {
                let member = packed as u32;
                if self_pending && member as usize >= owner {
                    if member as usize > owner {
                        chunk.push_member(owner as u32, &interner, &weights, &mut size);
                    }
                    self_pending = false;
                }
                chunk.push_member(member, &interner, &weights, &mut size);
            }
            if self_pending {
                chunk.push_member(owner as u32, &interner, &weights, &mut size);
            }
            chunk.finish_set(before, size);
        }
        chunk
    });

    let (members_flat, bounds, sizes) = ChunkSets::assemble(materialized);
    CustomerCones {
        interner,
        set_of: (0..n as u32).collect(),
        members_flat,
        bounds,
        sizes,
    }
}

/// Membership test against a sorted CSR neighbor list.
fn has_edge(g: &Csr, from: u32, to: u32) -> bool {
    g.neighbors(from).binary_search(&to).is_ok()
}

/// Shared scaffolding of the two observed-cone computations: dense ids
/// over every AS seen in the sanitized paths, distinct paths mapped to
/// dense hops, and the relationship edges needed for witness tests.
struct ObservedContext {
    interner: AsnInterner,
    /// Distinct paths as dense-id hop lists.
    paths: Vec<Vec<u32>>,
    /// `c → p` c2p edges (sorted CSR) — the BGP-observed descent test.
    c2p: Csr,
    /// `c → p` c2p plus symmetric p2p edges — the provider/peer-observed
    /// announcement-witness test.
    c2p_or_p2p: Csr,
}

impl ObservedContext {
    fn build(sanitized: &SanitizedPaths, rels: &RelationshipMap) -> Self {
        let interner =
            AsnInterner::from_ases(sanitized.paths().flat_map(|p| p.iter()));
        let n = interner.len();

        // Distinct paths in sorted id order: dedup via sort rather than a
        // HashSet so downstream traversal order is reproducible (L001).
        let mut paths: Vec<Vec<u32>> = sanitized
            .paths()
            .map(|p| {
                p.iter()
                    // The interner was seeded from these same paths above.
                    // lint: allow(panics, interner built from sanitized.paths covers every path ASN)
                    .map(|a| interner.get(a).expect("interned"))
                    .collect()
            })
            .collect();
        paths.sort_unstable();
        paths.dedup();

        // Witness edges restricted to interned (path-observed) ASes:
        // x → w where w is x's provider (c2p), optionally also peers.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (c, p) in rels.c2p_pairs() {
            if let (Some(ci), Some(pi)) = (interner.get(c), interner.get(p)) {
                edges.push((ci, pi));
            }
        }
        let c2p = Csr::from_edges_dedup(n, &edges);
        for (a, b) in rels.p2p_pairs() {
            if let (Some(ai), Some(bi)) = (interner.get(a), interner.get(b)) {
                edges.push((ai, bi));
                edges.push((bi, ai));
            }
        }
        let c2p_or_p2p = Csr::from_edges_dedup(n, &edges);

        ObservedContext {
            interner,
            paths,
            c2p,
            c2p_or_p2p,
        }
    }

    /// Run `scan` over every distinct path in parallel, collecting
    /// `(owner, member)` dense-id pairs; the packed pair list is sorted
    /// and deduplicated, so the result is independent of path order and
    /// thread count.
    fn collect_pairs<F>(&self, witness: &Csr, par: Parallelism, scan: F) -> Vec<u64>
    where
        F: Fn(&[u32], &Csr, &mut dyn FnMut(u32, u32)) + Sync,
    {
        let per_chunk = par::map_chunks(par, 32, &self.paths, |chunk| {
            let mut local: Vec<u64> = Vec::new();
            for hops in chunk {
                scan(hops, witness, &mut |owner, member| {
                    local.push((owner as u64) << 32 | member as u64);
                });
            }
            local
        });
        let mut pairs: Vec<u64> = per_chunk.concat();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Build the final cones: every observed AS gets the trivial cone of
    /// itself plus its collected members. `pairs` must be sorted.
    fn into_cones(
        self,
        pairs: Vec<u64>,
        prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
        par: Parallelism,
    ) -> CustomerCones {
        let n = self.interner.len();
        let weights = PrefixWeights::build(&self.interner, prefixes);

        // Per-owner slice boundaries in the sorted pair list.
        let mut starts = vec![0usize; n + 1];
        {
            let mut cursor = 0usize;
            for owner in 0..n as u64 {
                while cursor < pairs.len() && pairs[cursor] >> 32 < owner {
                    cursor += 1;
                }
                starts[owner as usize] = cursor;
            }
            starts[n] = pairs.len();
        }

        let materialized = par::map_ranges(par, 256, n, |range| {
            let mut chunk = ChunkSets::with_capacity(range.len());
            for owner in range {
                let (lo, hi) = (starts[owner], starts[owner + 1]);
                let before = chunk.members.len();
                let mut size = ConeSize::default();
                // Merge the owner itself into its sorted member run.
                let mut self_pending = true;
                for &packed in &pairs[lo..hi] {
                    let member = packed as u32;
                    if self_pending && member as usize >= owner {
                        if member as usize > owner {
                            chunk.push_member(owner as u32, &self.interner, &weights, &mut size);
                        }
                        self_pending = false;
                    }
                    chunk.push_member(member, &self.interner, &weights, &mut size);
                }
                if self_pending {
                    chunk.push_member(owner as u32, &self.interner, &weights, &mut size);
                }
                chunk.finish_set(before, size);
            }
            chunk
        });

        let (members_flat, bounds, sizes) = ChunkSets::assemble(materialized);
        CustomerCones {
            interner: self.interner,
            set_of: (0..n as u32).collect(),
            members_flat,
            bounds,
            sizes,
        }
    }
}

/// Materialize one bitset cone as a sorted member list plus its measured
/// size (ids ascend with ASN, so no sort is needed).
/// Kahn topological order over `0..n` along `edges` / its CSR `succ`.
/// Returns fewer than `n` nodes exactly when the digraph has a cycle.
fn kahn_order(n: usize, edges: &[(u32, u32)], succ: &Csr) -> Vec<u32> {
    let mut indegree = vec![0u32; n];
    for &(_, v) in edges {
        indegree[v as usize] += 1;
    }
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&v| indegree[v as usize] == 0)
        .collect();
    while let Some(u) = queue.pop() {
        order.push(u);
        for &v in succ.neighbors(u) {
            indegree[v as usize] -= 1;
            if indegree[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    order
}

/// The shared closure DP + materialization behind
/// [`CustomerCones::recursive_with`], over an acyclic component graph.
///
/// `comp_customers` is the provider→customer adjacency of `ncomp`
/// components in `order` (a topological order, processed in reverse so
/// customers land before their providers); component `c`'s member ids
/// are `member_ids[member_starts[c]..member_starts[c + 1]]`, ascending.
/// In the common acyclic case both arrays are identity mappings.
///
/// Output-sensitive representation, chosen per component by how big the
/// cone can get:
///
/// * **Leaf** (no customers — the stub majority of any AS topology): no
///   storage at all; the cone is exactly the member list.
/// * **Small** (pre-dedup bound ≤ [`SMALL_CONE`]): sorted ids appended
///   to a shared arena via a reused merge buffer — total work (and zero
///   steady-state allocation) proportional to the cone, not the
///   universe.
/// * **Big** (the transit core, a few dozen comps): a full [`BitSet`],
///   where each union is a word-parallel `|=` and, because OR is
///   commutative, the result is independent of customer order.
///
/// Returns the flat arena layout (`members_flat`, `bounds`, `sizes`)
/// [`CustomerCones`] stores, materialized in parallel.
fn closure_dp(
    comp_customers: &Csr,
    order: &[u32],
    member_starts: &[u32],
    member_ids: &[u32],
    interner: &AsnInterner,
    prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    par: Parallelism,
) -> (Vec<Asn>, Vec<u32>, Vec<ConeSize>) {
    let n = interner.len();
    let ncomp = order.len();
    let members_of = |c: usize| &member_ids[member_starts[c] as usize..member_starts[c + 1] as usize];

    let mut cones: Vec<Option<Cone>> = (0..ncomp).map(|_| None).collect();
    let mut counts: Vec<u32> = vec![0; ncomp];
    let mut small_arena: Vec<u32> = Vec::new();
    let mut scratch: Vec<u32> = Vec::new();
    for &c in order.iter().rev() {
        let c = c as usize;
        let customers = comp_customers.neighbors(c as u32);
        if customers.is_empty() {
            counts[c] = dense_id(members_of(c).len()); // leaf
            continue;
        }
        // Pre-dedup upper bound on the cone; customers are already
        // computed (reverse topological order visits them first).
        let bound: usize = members_of(c).len()
            + customers
                .iter()
                .map(|&cc| counts[cc as usize] as usize)
                .sum::<usize>();
        if bound <= SMALL_CONE {
            scratch.clear();
            scratch.extend_from_slice(members_of(c));
            for &cc in customers {
                match cones[cc as usize].as_ref() {
                    None => scratch.extend_from_slice(members_of(cc as usize)),
                    Some(&Cone::Small(lo, hi)) => {
                        scratch.extend_from_slice(&small_arena[lo as usize..hi as usize])
                    }
                    // A big-universe customer can still have a small
                    // deduped count (heavy multihoming inflates the
                    // bound it was sized by, not its contents).
                    Some(Cone::Big(b)) => scratch.extend(b.iter_ones()),
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            counts[c] = dense_id(scratch.len());
            let lo = dense_id(small_arena.len());
            small_arena.extend_from_slice(&scratch);
            cones[c] = Some(Cone::Small(lo, dense_id(small_arena.len())));
        } else {
            let mut bits = BitSet::new(n);
            for &m in members_of(c) {
                bits.insert(m);
            }
            for &cc in customers {
                match cones[cc as usize].as_ref() {
                    None => {
                        for &m in members_of(cc as usize) {
                            bits.insert(m);
                        }
                    }
                    Some(&Cone::Small(lo, hi)) => {
                        for &m in &small_arena[lo as usize..hi as usize] {
                            bits.insert(m);
                        }
                    }
                    Some(Cone::Big(b)) => bits.union_with(b),
                }
            }
            counts[c] = dense_id(bits.count_ones());
            cones[c] = Some(Cone::Big(bits));
        }
    }

    // Materialize one member list + size per component, in parallel,
    // each worker appending into its own chunk arena. Ids ascend with
    // ASN (bulk interner), so lists are born sorted — the bitset sweep,
    // the small id vecs, and the leaf member lists.
    let weights = PrefixWeights::build(interner, prefixes);
    let materialized = par::map_ranges(par, 64, ncomp, |range| {
        let mut chunk = ChunkSets::with_capacity(range.len());
        for c in range {
            match cones[c].as_ref() {
                Some(Cone::Big(bits)) => chunk.append_bits(bits, interner, &weights),
                Some(&Cone::Small(lo, hi)) => {
                    chunk.append_ids(&small_arena[lo as usize..hi as usize], interner, &weights)
                }
                None => chunk.append_ids(members_of(c), interner, &weights),
            }
        }
        chunk
    });
    ChunkSets::assemble(materialized)
}

/// Per-worker accumulator for materialized member sets: one arena of
/// resolved members plus per-set lengths and sizes. Workers fill chunks
/// independently; [`ChunkSets::assemble`] stitches them, in chunk order,
/// into the flat layout [`CustomerCones`] stores — so the whole
/// materialization performs O(workers) allocations, not O(sets).
struct ChunkSets {
    members: Vec<Asn>,
    lens: Vec<u32>,
    sizes: Vec<ConeSize>,
}

impl ChunkSets {
    fn with_capacity(nsets: usize) -> Self {
        ChunkSets {
            members: Vec::new(),
            lens: Vec::with_capacity(nsets),
            sizes: Vec::with_capacity(nsets),
        }
    }

    /// Resolve and measure one member of the set being built.
    #[inline]
    fn push_member(&mut self, id: u32, interner: &AsnInterner, weights: &PrefixWeights, size: &mut ConeSize) {
        self.members.push(interner.resolve(id));
        size.ases += 1;
        size.prefixes += weights.count[id as usize] as usize;
        size.addresses += weights.addresses[id as usize];
    }

    /// Close the set opened at arena offset `before`.
    fn finish_set(&mut self, before: usize, size: ConeSize) {
        self.lens.push((self.members.len() - before) as u32);
        self.sizes.push(size);
    }

    /// Append one set from a bitset cone. Manual word loop: zero words
    /// (the sparse majority) cost one branch, and set bits peel off with
    /// `trailing_zeros` — tighter than a general-purpose bit iterator in
    /// this hot path.
    fn append_bits(&mut self, bits: &BitSet, interner: &AsnInterner, weights: &PrefixWeights) {
        let before = self.members.len();
        let mut size = ConeSize::default();
        for (wi, &word) in bits.words().iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let id = (wi * 64) as u32 + w.trailing_zeros();
                w &= w - 1;
                self.push_member(id, interner, weights, &mut size);
            }
        }
        self.finish_set(before, size);
    }

    /// Append one set held as sorted member ids (a leaf's member list or
    /// a small merged cone), skipping any full-universe sweep.
    fn append_ids(&mut self, member_ids: &[u32], interner: &AsnInterner, weights: &PrefixWeights) {
        let before = self.members.len();
        let mut size = ConeSize::default();
        for &id in member_ids {
            self.push_member(id, interner, weights, &mut size);
        }
        self.finish_set(before, size);
    }

    /// Stitch per-worker chunks, in order, into the flat arena layout.
    fn assemble(chunks: Vec<ChunkSets>) -> (Vec<Asn>, Vec<u32>, Vec<ConeSize>) {
        let total: usize = chunks.iter().map(|c| c.members.len()).sum();
        let nsets: usize = chunks.iter().map(|c| c.lens.len()).sum();
        let mut flat = Vec::with_capacity(total);
        let mut bounds = Vec::with_capacity(nsets + 1);
        bounds.push(0u32);
        let mut sizes = Vec::with_capacity(nsets);
        let mut cursor = 0u32;
        for chunk in chunks {
            for len in chunk.lens {
                cursor += len;
                bounds.push(cursor);
            }
            flat.extend_from_slice(&chunk.members);
            sizes.extend(chunk.sizes);
        }
        (flat, bounds, sizes)
    }
}

/// Weigh a member list via hash lookups — only used by the reference
/// implementation, matching its original code path.
fn measure_hashed(members: &[Asn], prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>) -> ConeSize {
    let mut size = ConeSize {
        ases: members.len(),
        prefixes: 0,
        addresses: 0,
    };
    if let Some(table) = prefixes {
        for m in members {
            if let Some(pfx) = table.get(m) {
                size.prefixes += pfx.len();
                size.addresses += pfx.iter().map(Ipv4Prefix::address_count).sum::<u64>();
            }
        }
    }
    size
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sanitize::{sanitize, SanitizeConfig};

    /// 1 ═ 2 clique; 10→1, 20→2, 100→10, 200→20; 100 multihomes to 20.
    fn rels() -> RelationshipMap {
        let mut r = RelationshipMap::new();
        r.insert_p2p(Asn(1), Asn(2));
        r.insert_c2p(Asn(10), Asn(1));
        r.insert_c2p(Asn(20), Asn(2));
        r.insert_c2p(Asn(100), Asn(10));
        r.insert_c2p(Asn(200), Asn(20));
        r.insert_c2p(Asn(100), Asn(20));
        r
    }

    fn paths(raw: &[&[u32]]) -> SanitizedPaths {
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
    fn recursive_cone_closure() {
        let cones = CustomerCones::recursive(&rels(), None);
        assert_eq!(cones.members(Asn(1)), &[Asn(1), Asn(10), Asn(100)]);
        assert_eq!(
            cones.members(Asn(2)),
            &[Asn(2), Asn(20), Asn(100), Asn(200)]
        );
        assert_eq!(cones.members(Asn(100)), &[Asn(100)]);
        assert_eq!(cones.size(Asn(2)).ases, 4);
        assert!(cones.contains(Asn(1), Asn(100)));
        assert!(!cones.contains(Asn(1), Asn(200)));
    }

    #[test]
    fn recursive_cone_handles_cycles() {
        let mut r = RelationshipMap::new();
        r.insert_c2p(Asn(1), Asn(2));
        r.insert_c2p(Asn(2), Asn(3));
        r.insert_c2p(Asn(3), Asn(1)); // cycle 1→2→3→1
        r.insert_c2p(Asn(9), Asn(1)); // 9 below the cycle
        let cones = CustomerCones::recursive(&r, None);
        // All cycle members share one cone containing the cycle + 9.
        for a in [1u32, 2, 3] {
            assert_eq!(
                cones.members(Asn(a)),
                &[Asn(1), Asn(2), Asn(3), Asn(9)],
                "cycle member {a}"
            );
        }
        assert_eq!(cones.members(Asn(9)), &[Asn(9)]);
    }

    #[test]
    fn reference_agrees_on_fixtures() {
        for r in [rels(), {
            let mut r = RelationshipMap::new();
            r.insert_c2p(Asn(1), Asn(2));
            r.insert_c2p(Asn(2), Asn(3));
            r.insert_c2p(Asn(3), Asn(1));
            r.insert_c2p(Asn(9), Asn(1));
            r
        }] {
            let fast = CustomerCones::recursive(&r, None);
            let slow = CustomerCones::recursive_reference(&r, None);
            assert_eq!(fast.len(), slow.len());
            for asn in fast.ases() {
                assert_eq!(fast.members(asn), slow.members(asn), "members of {asn}");
                assert_eq!(fast.size(asn), slow.size(asn), "size of {asn}");
            }
        }
    }

    #[test]
    fn prefix_weighting() {
        let mut prefixes: HashMap<Asn, Vec<Ipv4Prefix>> = HashMap::new();
        prefixes.insert(Asn(100), vec!["10.0.0.0/24".parse().unwrap()]);
        prefixes.insert(
            Asn(10),
            vec![
                "11.0.0.0/24".parse().unwrap(),
                "12.0.0.0/23".parse().unwrap(),
            ],
        );
        let cones = CustomerCones::recursive(&rels(), Some(&prefixes));
        let s1 = cones.size(Asn(1)); // cone {1,10,100}
        assert_eq!(s1.prefixes, 3);
        assert_eq!(s1.addresses, 256 + 256 + 512);
        let s100 = cones.size(Asn(100));
        assert_eq!(s100.prefixes, 1);
        assert_eq!(s100.addresses, 256);
    }

    #[test]
    fn bgp_observed_requires_witnessed_descent() {
        let r = rels();
        // Only one path descends 1 → 10 → 100; nobody ever observes
        // 20 → 100, so 100 is NOT in 20's BGP-observed cone even though
        // the recursive cone contains it.
        let p = paths(&[&[200, 20, 2, 1, 10, 100]]);
        let cones = CustomerCones::bgp_observed(&p, &r, None);
        assert!(cones.contains(Asn(1), Asn(100)));
        assert!(cones.contains(Asn(1), Asn(10)));
        assert!(cones.contains(Asn(10), Asn(100)));
        assert!(!cones.contains(Asn(20), Asn(100)), "descent not witnessed");
        // 2 receives the route from peer 1 — 1's announcement, not 2's
        // descent… 2→1 is p2p so the descent run stops at 2.
        assert!(!cones.contains(Asn(2), Asn(100)));
        // Recursive ⊇ BGP-observed.
        let rec = CustomerCones::recursive(&r, None);
        for asn in cones.ases() {
            let obs = cones.members(asn);
            for m in obs {
                assert!(
                    rec.contains(asn, *m),
                    "{m} in observed but not recursive cone of {asn}"
                );
            }
        }
    }

    #[test]
    fn provider_peer_observed_uses_announcements() {
        let r = rels();
        // Path seen at VP 200: 200 ← 20 ← 2 ← 1 ← 10 ← 100 i.e. hops
        // [200, 20, 2, 1, 10, 100]. Announcements witnessed:
        //  • 20 → 200? 200 is 20's *customer* (receives everything): no.
        //  • 2 → 20: 20's view of 2 is Provider ⇒ everything after 2
        //    ([1, 10, 100]) would be 2's cone — but wait, 2 announced the
        //    route *down* to 20… the rule keys on hops[i-1] being the
        //    provider/peer OF hops[i]:
        //    i=1: x=20, w=200: orientation(20,200)=Customer → skip.
        //    i=2: x=2, w=20: orientation(2,20)=Customer → skip.
        //    i=3: x=1, w=2: orientation(1,2)=Peer → cone(1) ⊇ {10,100}. ✓
        //    i=4: x=10, w=1: orientation(10,1)=Provider → cone(10) ⊇ {100}. ✓
        let p = paths(&[&[200, 20, 2, 1, 10, 100]]);
        let cones = CustomerCones::provider_peer_observed(&p, &r, None);
        assert!(cones.contains(Asn(1), Asn(10)));
        assert!(cones.contains(Asn(1), Asn(100)));
        assert!(cones.contains(Asn(10), Asn(100)));
        assert!(!cones.contains(Asn(2), Asn(1)), "peer is not in the cone");
        assert!(!cones.contains(Asn(20), Asn(2)));
        assert_eq!(cones.size(Asn(200)).ases, 1, "VP has trivial cone");
    }

    #[test]
    fn largest_reports_biggest_cone() {
        let cones = CustomerCones::recursive(&rels(), None);
        let (asn, size) = cones.largest().unwrap();
        assert_eq!(asn, Asn(2));
        assert_eq!(size.ases, 4);
    }

    #[test]
    fn bulk_size_iterator_matches_point_lookups() {
        let cones = CustomerCones::recursive(&rels(), None);
        let bulk: Vec<(Asn, ConeSize)> = cones.iter_sizes().collect();
        assert_eq!(bulk.len(), cones.len());
        for &(a, s) in &bulk {
            assert_eq!(s, cones.size(a));
        }
        // Ascending ASN order.
        assert!(bulk.windows(2).all(|w| w[0].0 < w[1].0));
        for (a, m) in cones.iter_members() {
            assert_eq!(m, cones.members(a));
        }
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let r = rels();
        let p = paths(&[&[200, 20, 2, 1, 10, 100], &[100, 10, 1, 2, 20, 200]]);
        let seq = ConeSets::compute_with(&p, &r, None, Parallelism::sequential());
        let par = ConeSets::compute_with(&p, &r, None, Parallelism::threads(4));
        for (a, b) in [
            (&seq.recursive, &par.recursive),
            (&seq.bgp_observed, &par.bgp_observed),
            (&seq.provider_peer_observed, &par.provider_peer_observed),
        ] {
            assert_eq!(a.len(), b.len());
            for asn in a.ases() {
                assert_eq!(a.members(asn), b.members(asn));
                assert_eq!(a.size(asn), b.size(asn));
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let cones = CustomerCones::recursive(&RelationshipMap::new(), None);
        assert!(cones.is_empty());
        assert_eq!(cones.size(Asn(7)).ases, 1, "unknown AS has trivial cone");
        assert!(cones.members(Asn(7)).is_empty());
    }
}
