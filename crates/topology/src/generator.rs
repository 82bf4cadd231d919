//! Materializing a [`GroundTruth`] topology from a [`TopologyConfig`].
//!
//! Generation order follows the Internet's hierarchy top-down so that
//! provider choices can use preferential attachment over already-placed
//! ASes: clique → large transit → mid transit → small transit → content →
//! stubs → IXP peering → siblings → prefix allocation.

use crate::config::TopologyConfig;
use crate::sampling::WeightedSampler;
use asrank_types::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// One generated Internet exchange point.
#[derive(Debug, Clone)]
pub struct Ixp {
    /// The route-server ASN (class [`AsClass::IxpRouteServer`]).
    pub route_server: Asn,
    /// Region the exchange is located in.
    pub region: u8,
    /// Member ASes connected to the fabric.
    pub members: Vec<Asn>,
}

/// A generated topology: the ground truth plus generation-side metadata
/// that experiments need (regions, IXPs).
#[derive(Debug, Clone)]
pub struct GeneratedTopology {
    /// The annotated AS graph with true relationships.
    pub ground_truth: GroundTruth,
    /// Geographic region of every AS.
    pub regions: HashMap<Asn, u8>,
    /// Generated exchanges (members peer across the fabric; the route
    /// server ASN may leak into simulated paths as an artifact).
    pub ixps: Vec<Ixp>,
    /// The config the topology was generated from.
    pub config: TopologyConfig,
    /// The seed used, for provenance.
    pub seed: u64,
}

impl GeneratedTopology {
    /// Convenience accessor for the relationship map.
    pub fn relationships(&self) -> &RelationshipMap {
        &self.ground_truth.relationships
    }
}

/// Draw from a small-mean Poisson distribution (Knuth's method).
fn poisson(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // defensive: cannot happen for the means we use
        }
    }
}

/// Number of providers for an AS given the configured mean (always ≥ 1).
fn provider_count(rng: &mut StdRng, mean: f64) -> usize {
    1 + poisson(rng, (mean - 1.0).max(0.0))
}

/// Internal builder carrying generation state.
struct Builder {
    rng: StdRng,
    gt: GroundTruth,
    regions: HashMap<Asn, u8>,
    /// Preferential-attachment sampler per provider pool, keyed by region
    /// (index `regions` = global pool spanning all regions).
    next_asn: u32,
}

impl Builder {
    fn alloc_asn(&mut self) -> Asn {
        let asn = Asn(self.next_asn);
        self.next_asn += 1;
        asn
    }

    fn place(&mut self, class: AsClass, region: u8) -> Asn {
        let asn = self.alloc_asn();
        self.gt.classes.insert(asn, class);
        self.regions.insert(asn, region);
        asn
    }
}

/// A provider pool supporting region-biased preferential attachment.
struct ProviderPool {
    /// Sampler per region plus one global sampler at index `regions`.
    per_region: Vec<WeightedSampler<Asn>>,
    global: WeightedSampler<Asn>,
}

impl ProviderPool {
    fn new(regions: usize) -> Self {
        ProviderPool {
            per_region: (0..regions).map(|_| WeightedSampler::new()).collect(),
            global: WeightedSampler::new(),
        }
    }

    fn add(&mut self, asn: Asn, region: u8, weight: f64) {
        self.per_region[region as usize].insert(asn, weight);
        self.global.insert(asn, weight);
    }

    /// Reward `asn` with extra attachment weight after it gains a customer.
    fn reward(&mut self, asn: Asn, region: u8) {
        self.per_region[region as usize].add_weight(asn, 1.0);
        self.global.add_weight(asn, 1.0);
    }

    /// Pick a provider, preferring the customer's region.
    fn pick(&self, rng: &mut StdRng, region: u8, cross_region_prob: f64) -> Option<Asn> {
        let regional = &self.per_region[region as usize];
        if !regional.is_empty() && !rng.random_bool(cross_region_prob.clamp(0.0, 1.0)) {
            regional.sample(rng)
        } else {
            self.global.sample(rng)
        }
    }

    fn is_empty(&self) -> bool {
        self.global.is_empty()
    }
}

/// Attach `customer` to `n` distinct providers drawn from `pool`.
fn attach_providers(
    b: &mut Builder,
    pool: &mut ProviderPool,
    customer: Asn,
    n: usize,
    cross_region_prob: f64,
) {
    if pool.is_empty() {
        return;
    }
    let region = b.regions[&customer];
    let mut chosen: Vec<Asn> = Vec::with_capacity(n);
    let mut attempts = 0;
    while chosen.len() < n && attempts < n * 8 {
        attempts += 1;
        let Some(p) = pool.pick(&mut b.rng, region, cross_region_prob) else {
            break;
        };
        if p == customer || chosen.contains(&p) {
            continue;
        }
        chosen.push(p);
    }
    for p in chosen {
        b.gt.relationships.insert_c2p(customer, p);
        let p_region = b.regions[&p];
        pool.reward(p, p_region);
    }
}

/// Insert a p2p link unless the pair is already related.
fn maybe_peer(b: &mut Builder, x: Asn, y: Asn) {
    if x != y && b.gt.relationships.get(x, y).is_none() {
        b.gt.relationships.insert_p2p(x, y);
    }
}

/// Success positions of `n` independent Bernoulli(`p`) trials, found by
/// geometric gap skipping: each draw yields the number of failures
/// before the next success (`⌊ln(1-u)/ln(1-p)⌋`, the inverse-CDF of the
/// geometric distribution), so the expected draw count is `n·p + 1`
/// instead of `n`. `G = 0 ⇔ u < p`, i.e. each position succeeds with
/// exactly probability `p`, matching a per-position `random_bool(p)`
/// marginally — only far fewer RNG calls are spent discovering the
/// failures. Positions come back strictly ascending.
fn bernoulli_positions(rng: &mut StdRng, n: usize, p: f64) -> Vec<usize> {
    if n == 0 || p <= 0.0 {
        return Vec::new();
    }
    if p >= 1.0 {
        return (0..n).collect();
    }
    let denom = (1.0 - p).ln(); // negative and finite for p in (0, 1)
    let mut out = Vec::new();
    let mut cur = 0usize;
    while cur < n {
        let u: f64 = rng.random();
        let gap = ((1.0 - u).ln() / denom).floor();
        if !(gap >= 0.0) || gap >= (n - cur) as f64 {
            break; // overshot the remaining candidate space: no more successes
        }
        cur += gap as usize;
        out.push(cur);
        cur += 1;
    }
    out
}

/// Decode linear index `k` into the `(i, j)` pair (`i < j`) at that
/// position of the lexicographic traversal `for i { for j in i+1.. }`
/// over `n` items. A float sqrt gives the row guess; the fix-up loops
/// settle integer rounding (at most a step or two).
fn tri_decode(n: usize, k: usize) -> (usize, usize) {
    // Pairs with first element < i: C(i) = i·(n-1) - i·(i-1)/2,
    // factored as i·(2n-i-1)/2 so no operand underflows at i = 0.
    let c = |i: usize| i * (2 * n - i - 1) / 2;
    let nf = n as f64 - 0.5;
    let mut i = (nf - (nf * nf - 2.0 * k as f64).max(0.0).sqrt()) as usize;
    i = i.min(n.saturating_sub(2));
    while i + 2 < n && c(i + 1) <= k {
        i += 1;
    }
    while i > 0 && c(i) > k {
        i -= 1;
    }
    (i, i + 1 + (k - c(i)))
}

/// Peer unordered pairs of `items` with probability `p` each, visiting
/// successes in the same lexicographic `(i, j)` order the old nested
/// `random_bool` loops used.
fn peer_triangular(b: &mut Builder, items: &[Asn], p: f64) {
    let n = items.len();
    if n < 2 {
        return;
    }
    for k in bernoulli_positions(&mut b.rng, n * (n - 1) / 2, p) {
        let (i, j) = tri_decode(n, k);
        maybe_peer(b, items[i], items[j]);
    }
}

/// Generate a full topology from `config` and `seed`.
///
/// Deterministic: equal inputs produce identical topologies.
///
/// ```
/// use as_topology_gen::{generate, TopologyConfig};
/// let t1 = generate(&TopologyConfig::tiny(), 7);
/// let t2 = generate(&TopologyConfig::tiny(), 7);
/// assert_eq!(
///     t1.ground_truth.relationships.len(),
///     t2.ground_truth.relationships.len()
/// );
/// assert!(t1.ground_truth.check_invariants().is_empty());
/// ```
pub fn generate(config: &TopologyConfig, seed: u64) -> GeneratedTopology {
    let mut b = Builder {
        rng: StdRng::seed_from_u64(seed),
        gt: GroundTruth::default(),
        regions: HashMap::new(),
        next_asn: 1,
    };
    let regions = config.regions.max(1);

    // --- Tier-1 clique: full p2p mesh, spread across regions. ---
    let tier1: Vec<Asn> = (0..config.mix.tier1)
        .map(|i| b.place(AsClass::Tier1, (i % regions) as u8))
        .collect();
    for (i, &x) in tier1.iter().enumerate() {
        for &y in &tier1[i + 1..] {
            b.gt.relationships.insert_p2p(x, y);
        }
    }

    // Provider pools grow as each tier is placed. Base weights encode
    // where customers concentrate on the real Internet: Tier-1 carriers
    // hold by far the largest direct customer bases, and preferential
    // attachment amplifies whoever starts heavy — so the top of the
    // hierarchy must start heaviest for transit degrees to come out
    // monotone in tier (the property the ASRank algorithm leans on).
    let mut tier1_pool = ProviderPool::new(regions);
    for &t in &tier1 {
        tier1_pool.add(t, b.regions[&t], 12.0);
    }

    // --- Large transit: customers of the clique, peer among themselves. ---
    let large: Vec<Asn> = (0..config.mix.large_transit)
        .map(|_| {
            let region = b.rng.random_range(0..regions) as u8;
            b.place(AsClass::LargeTransit, region)
        })
        .collect();
    for &a in &large {
        let n = provider_count(&mut b.rng, config.mean_providers_transit);
        attach_providers(&mut b, &mut tier1_pool, a, n, config.cross_region_prob);
    }
    peer_triangular(&mut b, &large, config.peer_prob_large);

    // --- Mid transit: customers of large transit (sometimes the clique). ---
    let mut upper_pool = ProviderPool::new(regions);
    for &t in &tier1 {
        upper_pool.add(t, b.regions[&t], 12.0);
    }
    for &l in &large {
        upper_pool.add(l, b.regions[&l], 5.0);
    }
    let mid: Vec<Asn> = (0..config.mix.mid_transit)
        .map(|_| {
            let region = b.rng.random_range(0..regions) as u8;
            b.place(AsClass::MidTransit, region)
        })
        .collect();
    for &m in &mid {
        let n = provider_count(&mut b.rng, config.mean_providers_transit);
        attach_providers(&mut b, &mut upper_pool, m, n, config.cross_region_prob);
    }
    // Same-region mid-transit peering.
    let mut by_region: Vec<Vec<Asn>> = vec![Vec::new(); regions];
    for &m in &mid {
        by_region[b.regions[&m] as usize].push(m);
    }
    for bucket in &by_region {
        peer_triangular(&mut b, bucket, config.peer_prob_mid);
    }

    // --- Small transit: customers of mid (occasionally large) transit. ---
    let mut transit_pool = ProviderPool::new(regions);
    for &t in &tier1 {
        transit_pool.add(t, b.regions[&t], 12.0);
    }
    for &l in &large {
        transit_pool.add(l, b.regions[&l], 5.0);
    }
    for &m in &mid {
        transit_pool.add(m, b.regions[&m], 2.0);
    }
    let small: Vec<Asn> = (0..config.mix.small_transit)
        .map(|_| {
            let region = b.rng.random_range(0..regions) as u8;
            b.place(AsClass::SmallTransit, region)
        })
        .collect();
    for &s in &small {
        let n = provider_count(&mut b.rng, config.mean_providers_transit);
        attach_providers(&mut b, &mut transit_pool, s, n, config.cross_region_prob);
    }

    // --- Content networks: shallow transit, dense peering. ---
    let content: Vec<Asn> = (0..config.mix.content)
        .map(|_| {
            let region = b.rng.random_range(0..regions) as u8;
            b.place(AsClass::Content, region)
        })
        .collect();
    for &c in &content {
        let n = provider_count(&mut b.rng, config.mean_providers_stub);
        attach_providers(&mut b, &mut transit_pool, c, n, config.cross_region_prob);
    }
    // Content peers with transit (and other content) in its region. Each
    // content AS sits in its own region bucket, so the candidate space is
    // the bucket minus itself.
    let mut transit_by_region: Vec<Vec<Asn>> = vec![Vec::new(); regions];
    for &t in large.iter().chain(&mid).chain(&small).chain(&content) {
        transit_by_region[b.regions[&t] as usize].push(t);
    }
    for &c in &content {
        let bucket = &transit_by_region[b.regions[&c] as usize];
        if bucket.len() < 2 {
            continue;
        }
        let candidates: Vec<Asn> = bucket.iter().copied().filter(|&t| t != c).collect();
        for k in bernoulli_positions(&mut b.rng, candidates.len(), config.peer_prob_content) {
            maybe_peer(&mut b, c, candidates[k]);
        }
    }

    // --- Stubs: customers of small/mid transit, preferential attachment. ---
    let mut edge_pool = ProviderPool::new(regions);
    for &t in &tier1 {
        edge_pool.add(t, b.regions[&t], 12.0);
    }
    for &l in &large {
        edge_pool.add(l, b.regions[&l], 4.0);
    }
    for &m in &mid {
        edge_pool.add(m, b.regions[&m], 3.0);
    }
    for &s in &small {
        edge_pool.add(s, b.regions[&s], 2.0);
    }
    let stubs: Vec<Asn> = (0..config.mix.stubs)
        .map(|_| {
            let region = b.rng.random_range(0..regions) as u8;
            b.place(AsClass::Stub, region)
        })
        .collect();
    for &s in &stubs {
        let n = provider_count(&mut b.rng, config.mean_providers_stub);
        attach_providers(&mut b, &mut edge_pool, s, n, config.cross_region_prob);
    }

    // --- IXPs: route-server ASNs + fabric peering among members. ---
    let mut ixps = Vec::with_capacity(config.ixp.count);
    for i in 0..config.ixp.count {
        let region = (i % regions) as u8;
        let rs = b.place(AsClass::IxpRouteServer, region);
        let pool: Vec<Asn> = transit_by_region[region as usize].clone();
        let want = config.ixp.mean_members.min(pool.len());
        let mut members: Vec<Asn> = pool;
        // Partial Fisher-Yates: shuffle the first `want` positions.
        for j in 0..want {
            let k = b.rng.random_range(j..members.len());
            members.swap(j, k);
        }
        members.truncate(want);
        peer_triangular(&mut b, &members, config.ixp.peering_prob);
        ixps.push(Ixp {
            route_server: rs,
            region,
            members,
        });
    }

    // --- Siblings: a few stub pairs under common ownership. ---
    let sibling_count = ((config.mix.total() as f64) * config.sibling_fraction).round() as usize;
    for _ in 0..sibling_count {
        if stubs.len() < 2 {
            break;
        }
        let x = stubs[b.rng.random_range(0..stubs.len())];
        let y = stubs[b.rng.random_range(0..stubs.len())];
        if x != y && b.gt.relationships.get(x, y).is_none() {
            b.gt.relationships.insert_s2s(x, y);
        }
    }

    // --- Prefix allocation: aligned blocks from 11.0.0.0 upward. ---
    allocate_prefixes(&mut b, config);

    GeneratedTopology {
        ground_truth: b.gt,
        regions: b.regions,
        ixps,
        config: config.clone(),
        seed,
    }
}

/// Class-dependent multiplier on the stub prefix mean.
fn prefix_multiplier(class: AsClass) -> f64 {
    match class {
        AsClass::Tier1 => 24.0,
        AsClass::LargeTransit => 16.0,
        AsClass::MidTransit => 8.0,
        AsClass::SmallTransit => 4.0,
        AsClass::Content => 6.0,
        AsClass::Stub => 1.0,
        AsClass::IxpRouteServer => 0.0,
    }
}

fn allocate_prefixes(b: &mut Builder, config: &TopologyConfig) {
    // Cursor-based aligned allocator starting at 11.0.0.0; every AS gets
    // at least one prefix except IXP route servers.
    let mut cursor: u32 = 11 << 24;
    let mut ases: Vec<Asn> = b.gt.classes.keys().copied().collect();
    ases.sort(); // deterministic allocation order
    for asn in ases {
        let class = b.gt.classes[&asn];
        if class == AsClass::IxpRouteServer {
            continue;
        }
        let mean = config.mean_prefixes_stub * prefix_multiplier(class);
        let count = (1 + poisson(&mut b.rng, (mean - 1.0).max(0.0))).min(64);
        let mut prefixes = Vec::with_capacity(count);
        for _ in 0..count {
            // Lengths between /16 (rare, big networks) and /24 (common).
            let len: u8 = match b.rng.random_range(0..10u32) {
                0 => 16,
                1..=2 => 20,
                3..=5 => 22,
                _ => 24,
            };
            let block = 1u32 << (32 - len as u32);
            cursor = cursor.div_ceil(block) * block; // align
            let p = Ipv4Prefix::new(cursor, len).expect("len <= 24");
            cursor = cursor.wrapping_add(block);
            prefixes.push(p);
        }
        b.gt.prefixes.insert(asn, prefixes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = generate(&TopologyConfig::tiny(), 42);
        let c = generate(&TopologyConfig::tiny(), 42);
        let mut la: Vec<_> = a.ground_truth.relationships.iter().collect();
        let mut lc: Vec<_> = c.ground_truth.relationships.iter().collect();
        la.sort_by_key(|(l, _)| (l.a, l.b));
        lc.sort_by_key(|(l, _)| (l.a, l.b));
        assert_eq!(la, lc);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TopologyConfig::tiny(), 1);
        let b = generate(&TopologyConfig::tiny(), 2);
        let la: std::collections::HashSet<_> = a
            .ground_truth
            .relationships
            .iter()
            .map(|(l, _)| l)
            .collect();
        let lb: std::collections::HashSet<_> = b
            .ground_truth
            .relationships
            .iter()
            .map(|(l, _)| l)
            .collect();
        assert_ne!(la, lb);
    }

    #[test]
    fn invariants_hold_small() {
        for seed in 0..5 {
            let t = generate(&TopologyConfig::small(), seed);
            let problems = t.ground_truth.check_invariants();
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
        }
    }

    #[test]
    fn class_counts_match_config() {
        let cfg = TopologyConfig::small();
        let t = generate(&cfg, 3);
        let gt = &t.ground_truth;
        assert_eq!(gt.ases_of_class(AsClass::Tier1).len(), cfg.mix.tier1);
        assert_eq!(gt.ases_of_class(AsClass::Stub).len(), cfg.mix.stubs);
        assert_eq!(
            gt.ases_of_class(AsClass::IxpRouteServer).len(),
            cfg.ixp.count
        );
        assert_eq!(gt.as_count(), cfg.mix.total() + cfg.ixp.count);
    }

    #[test]
    fn every_non_ixp_as_originates_a_prefix() {
        let t = generate(&TopologyConfig::tiny(), 9);
        for (&asn, &class) in &t.ground_truth.classes {
            let has = t
                .ground_truth
                .prefixes
                .get(&asn)
                .map(|v| !v.is_empty())
                .unwrap_or(false);
            if class == AsClass::IxpRouteServer {
                assert!(!has, "route server {asn} should not originate");
            } else {
                assert!(has, "{asn} ({class:?}) originates nothing");
            }
        }
    }

    #[test]
    fn prefixes_do_not_overlap() {
        let t = generate(&TopologyConfig::small(), 5);
        let mut all: Vec<Ipv4Prefix> = t
            .ground_truth
            .prefixes
            .values()
            .flatten()
            .copied()
            .collect();
        all.sort();
        for w in all.windows(2) {
            assert!(
                !w[0].contains(&w[1]) && !w[1].contains(&w[0]),
                "{} overlaps {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn stubs_have_no_customers() {
        let t = generate(&TopologyConfig::small(), 11);
        let adj = t.ground_truth.relationships.adjacency();
        for &s in &t.ground_truth.ases_of_class(AsClass::Stub) {
            let customers = adj
                .get(&s)
                .map(|n| {
                    n.iter()
                        .filter(|&&(_, o)| o == Orientation::Customer)
                        .count()
                })
                .unwrap_or(0);
            assert_eq!(customers, 0, "stub {s} has customers");
        }
    }

    #[test]
    fn transit_degree_distribution_is_skewed() {
        // Preferential attachment should produce a heavy-tailed customer
        // distribution: the busiest transit AS should have many times the
        // median customer count.
        let t = generate(&TopologyConfig::small(), 13);
        let adj = t.ground_truth.relationships.adjacency();
        let mut customer_counts: Vec<usize> = t
            .ground_truth
            .classes
            .iter()
            .filter(|(_, c)| c.is_transit())
            .map(|(&a, _)| {
                adj.get(&a)
                    .map(|n| {
                        n.iter()
                            .filter(|&&(_, o)| o == Orientation::Customer)
                            .count()
                    })
                    .unwrap_or(0)
            })
            .collect();
        customer_counts.sort_unstable();
        let max = *customer_counts.last().unwrap();
        let median = customer_counts[customer_counts.len() / 2];
        assert!(
            max >= median.max(1) * 4,
            "expected skew, max={max} median={median}"
        );
    }

    #[test]
    fn ixps_have_members() {
        let t = generate(&TopologyConfig::small(), 17);
        assert_eq!(t.ixps.len(), t.config.ixp.count);
        for ixp in &t.ixps {
            assert!(!ixp.members.is_empty());
            assert_eq!(
                t.ground_truth.classes[&ixp.route_server],
                AsClass::IxpRouteServer
            );
        }
    }

    #[test]
    fn tri_decode_matches_nested_loop() {
        for n in 2usize..40 {
            let mut k = 0usize;
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(tri_decode(n, k), (i, j), "n={n} k={k}");
                    k += 1;
                }
            }
        }
    }

    /// Row boundaries at sizes the exhaustive test cannot reach, where
    /// the float row guess is furthest from exact: the first and last
    /// index of every row, with row starts summed, not closed-form.
    #[test]
    fn tri_decode_row_boundaries_at_scale() {
        for n in [40usize, 1000, 4096, 10_007, 65_536, 300_000] {
            let mut start = 0usize;
            for i in 0..n - 1 {
                let last = start + (n - 2 - i);
                assert_eq!(tri_decode(n, start), (i, i + 1), "n={n} first of row {i}");
                assert_eq!(tri_decode(n, last), (i, n - 1), "n={n} last of row {i}");
                start = last + 1;
            }
            assert_eq!(start, n * (n - 1) / 2, "n={n} rows cover every pair");
        }
    }

    #[test]
    fn bernoulli_positions_edge_cases() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(bernoulli_positions(&mut rng, 0, 0.5).is_empty());
        assert!(bernoulli_positions(&mut rng, 100, 0.0).is_empty());
        assert!(bernoulli_positions(&mut rng, 100, -1.0).is_empty());
        assert_eq!(
            bernoulli_positions(&mut rng, 5, 1.0),
            vec![0, 1, 2, 3, 4],
            "p >= 1 selects every position"
        );
        let hits = bernoulli_positions(&mut rng, 1000, 0.3);
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(hits.iter().all(|&k| k < 1000), "in range");
    }

    #[test]
    fn bernoulli_positions_hit_rate_matches_p() {
        let mut rng = StdRng::seed_from_u64(7);
        let (n, p, rounds) = (10_000usize, 0.05f64, 20);
        let total: usize = (0..rounds)
            .map(|_| bernoulli_positions(&mut rng, n, p).len())
            .sum();
        let rate = total as f64 / (n * rounds) as f64;
        assert!((rate - p).abs() < 0.005, "hit rate {rate} vs p={p}");
    }

    #[test]
    fn poisson_mean_roughly_right() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(&mut rng, 2.5)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 2.5).abs() < 0.1, "poisson mean {mean}");
    }
}
