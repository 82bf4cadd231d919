//! Longitudinal topology evolution.
//!
//! The paper's historical analysis tracks customer cones across 15 years
//! of monthly snapshots and observes the "flattening" of the Internet:
//! edge networks increasingly peer directly (largely via IXPs and content
//! networks), so the largest transit cones stop growing relative to the
//! AS population. [`evolve`] reproduces that generating process: starting
//! from a seed topology, each step adds newly-registered edge ASes (growth
//! of the AS population), adds peering links (flattening), and applies a
//! small amount of provider churn (customers switching transit).

use crate::generator::{generate, GeneratedTopology};
use crate::sampling::WeightedSampler;
use crate::TopologyConfig;
use asrank_types::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Parameters of one evolution run.
#[derive(Debug, Clone)]
pub struct EvolutionConfig {
    /// Base topology for snapshot 0.
    pub base: TopologyConfig,
    /// Number of snapshots to produce *after* the base (total = steps + 1).
    pub steps: usize,
    /// New stub ASes per step (population growth).
    pub new_stubs_per_step: usize,
    /// New content ASes per step.
    pub new_content_per_step: usize,
    /// New regional (mid-tier) transit providers per step. Their
    /// upstreams are drawn uniformly from the Tier-1/large layer, which
    /// diversifies the branch structure — the mechanism that makes the
    /// biggest cones stop growing relative to the population.
    pub new_transit_per_step: usize,
    /// New p2p links added per step among existing content/transit ASes
    /// (the flattening pressure).
    pub new_peerings_per_step: usize,
    /// Fraction of stubs that switch one provider each step (churn).
    pub provider_churn: f64,
    /// When true, newcomers attach preferentially to already-large
    /// providers (rich-get-richer, the pre-2005 growth regime). When
    /// false, attachment is uniform over transit providers — the
    /// regional-diversification regime in which the biggest cones stop
    /// growing relative to the population (the paper's flattening).
    pub preferential_attachment: bool,
}

impl EvolutionConfig {
    /// A small default evolution suitable for tests: 1k base, 6 steps.
    pub fn small() -> Self {
        EvolutionConfig {
            base: TopologyConfig::small(),
            steps: 6,
            new_stubs_per_step: 60,
            new_content_per_step: 8,
            new_transit_per_step: 5,
            new_peerings_per_step: 120,
            provider_churn: 0.06,
            preferential_attachment: false,
        }
    }
}

/// Evolve a topology, returning `steps + 1` snapshots (index 0 = base).
///
/// Each snapshot is a fully independent [`GeneratedTopology`] (deep copy),
/// so downstream analysis can hold several snapshots at once. ASNs are
/// stable across snapshots: an AS present in snapshot *i* keeps its number
/// in every later snapshot.
pub fn evolve(config: &EvolutionConfig, seed: u64) -> Vec<GeneratedTopology> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_e701);
    let mut snapshots = Vec::with_capacity(config.steps + 1);
    let mut current = generate(&config.base, seed);
    snapshots.push(current.clone());

    for _step in 0..config.steps {
        step_topology(&mut current, config, &mut rng);
        snapshots.push(current.clone());
    }
    snapshots
}

/// Apply one evolution step in place.
fn step_topology(t: &mut GeneratedTopology, cfg: &EvolutionConfig, rng: &mut StdRng) {
    let regions = t.config.regions.max(1);
    let gt = &mut t.ground_truth;
    let mut next_asn = gt.classes.keys().map(|a| a.0).max().unwrap_or(0) + 1;

    // Build an attachment sampler over current transit providers, weighted
    // by how many customers they already serve (rich get richer).
    let adj = gt.relationships.adjacency();
    let mut provider_sampler: WeightedSampler<Asn> = WeightedSampler::new();
    let mut transit: Vec<Asn> = Vec::new();
    let mut customer_counts: std::collections::HashMap<Asn, usize> =
        std::collections::HashMap::new();
    // Iterate ASes in sorted order: HashMap order is nondeterministic and
    // would leak into the sampler's layout, breaking reproducibility.
    let mut sorted_classes: Vec<(Asn, AsClass)> =
        gt.classes.iter().map(|(&a, &c)| (a, c)).collect();
    sorted_classes.sort_by_key(|(a, _)| *a);
    for &(asn, class) in &sorted_classes {
        // Preferential (early-era) growth draws on every transit tier;
        // the flattening era's newcomers buy regional transit, so the
        // uniform regime samples mid/small providers only.
        let eligible = if cfg.preferential_attachment {
            matches!(
                class,
                AsClass::MidTransit | AsClass::SmallTransit | AsClass::LargeTransit
            )
        } else {
            matches!(class, AsClass::MidTransit | AsClass::SmallTransit)
        };
        if eligible {
            let customers = adj
                .get(&asn)
                .map(|n| {
                    n.iter()
                        .filter(|&&(_, o)| o == Orientation::Customer)
                        .count()
                })
                .unwrap_or(0);
            customer_counts.insert(asn, customers);
            let weight = if cfg.preferential_attachment {
                1.0 + customers as f64
            } else {
                1.0
            };
            provider_sampler.insert(asn, weight);
            transit.push(asn);
        }
    }
    transit.sort();

    // Upstream pool for newly-created transits: uniform over the top two
    // layers so new branches spread across the clique.
    let uppers: Vec<Asn> = sorted_classes
        .iter()
        .filter(|(_, c)| matches!(c, AsClass::Tier1 | AsClass::LargeTransit))
        .map(|(a, _)| *a)
        .collect();

    let mut prefix_cursor = gt
        .prefixes
        .values()
        .flatten()
        .map(|p| p.network().wrapping_add(1u32 << (32 - p.len() as u32)))
        .max()
        .unwrap_or(11 << 24);

    // New regional transits first, so this step's stubs can attach to
    // them (recency bias: growth concentrates where the Internet is
    // expanding).
    for _ in 0..cfg.new_transit_per_step {
        if uppers.is_empty() {
            break;
        }
        let asn = Asn(next_asn);
        next_asn += 1;
        gt.classes.insert(asn, AsClass::MidTransit);
        t.regions.insert(asn, rng.random_range(0..regions) as u8);
        let homes = if rng.random_bool(0.5) { 2 } else { 1 };
        let mut chosen: Vec<Asn> = Vec::new();
        for _ in 0..homes * 4 {
            if chosen.len() >= homes {
                break;
            }
            let p = uppers[rng.random_range(0..uppers.len())];
            if p != asn && !chosen.contains(&p) {
                chosen.push(p);
            }
        }
        for p in chosen {
            gt.relationships.insert_c2p(asn, p);
        }
        let pfx = Ipv4Prefix::new(prefix_cursor, 24).expect("/24 is valid");
        prefix_cursor = prefix_cursor.wrapping_add(256);
        gt.prefixes.insert(asn, vec![pfx]);
        // Strong recency weight: newcomers attract this step's stubs.
        provider_sampler.insert(asn, 6.0);
    }

    let mut add_edge_as = |class: AsClass,
                           providers: usize,
                           gt: &mut GroundTruth,
                           t_regions: &mut std::collections::HashMap<Asn, u8>,
                           rng: &mut StdRng| {
        let asn = Asn(next_asn);
        next_asn += 1;
        gt.classes.insert(asn, class);
        t_regions.insert(asn, rng.random_range(0..regions) as u8);
        let mut chosen = Vec::new();
        for _ in 0..providers.max(1) * 4 {
            if chosen.len() >= providers.max(1) {
                break;
            }
            if let Some(p) = provider_sampler.sample(rng) {
                if !chosen.contains(&p) {
                    chosen.push(p);
                }
            }
        }
        for p in &chosen {
            gt.relationships.insert_c2p(asn, *p);
        }
        // One /24 for the newcomer.
        let p = Ipv4Prefix::new(prefix_cursor, 24).expect("/24 is valid");
        prefix_cursor = prefix_cursor.wrapping_add(256);
        gt.prefixes.insert(asn, vec![p]);
        asn
    };

    for _ in 0..cfg.new_stubs_per_step {
        let n = if rng.random_bool(0.4) { 2 } else { 1 };
        add_edge_as(AsClass::Stub, n, gt, &mut t.regions, rng);
    }
    let mut new_content = Vec::new();
    for _ in 0..cfg.new_content_per_step {
        new_content.push(add_edge_as(AsClass::Content, 2, gt, &mut t.regions, rng));
    }

    // Flattening: new p2p links among content + transit.
    let mut content: Vec<Asn> = sorted_classes
        .iter()
        .filter(|(_, c)| *c == AsClass::Content)
        .map(|(a, _)| *a)
        .collect();
    // Newly-added content ASes are not in the pre-step snapshot; include them.
    content.extend(new_content.iter().copied());
    content.sort();
    content.dedup();
    let peer_pool: Vec<Asn> = content.iter().chain(transit.iter()).copied().collect();
    if peer_pool.len() >= 2 {
        for _ in 0..cfg.new_peerings_per_step {
            // Bias one endpoint toward content (the actors of flattening).
            let x = if !content.is_empty() && rng.random_bool(0.7) {
                content[rng.random_range(0..content.len())]
            } else {
                peer_pool[rng.random_range(0..peer_pool.len())]
            };
            let y = peer_pool[rng.random_range(0..peer_pool.len())];
            if x != y && gt.relationships.get(x, y).is_none() {
                gt.relationships.insert_p2p(x, y);
            }
        }
    }

    // Provider churn: stubs *switch* away from their largest provider
    // toward regional competition (the consolidation-era dynamic behind
    // the paper's shrinking incumbent cones). The replacement is added
    // before the incumbent is dropped, so no stub is ever orphaned and
    // the link count stays roughly stable.
    let stubs: Vec<Asn> = sorted_classes
        .iter()
        .filter(|(_, c)| *c == AsClass::Stub)
        .map(|(a, _)| *a)
        .collect();
    let churn_count = (stubs.len() as f64 * cfg.provider_churn) as usize;
    for _ in 0..churn_count {
        let s = stubs[rng.random_range(0..stubs.len())];
        // providers_of iterates a HashMap: sort for deterministic choice.
        let mut providers = gt.relationships.providers_of(s);
        providers.sort();
        if providers.is_empty() {
            continue;
        }
        let dropped = *providers
            .iter()
            .max_by_key(|p| (customer_counts.get(p).copied().unwrap_or(0), p.0))
            .expect("providers nonempty");
        // Find a replacement distinct from every current provider.
        let mut replacement = None;
        for _ in 0..8 {
            if let Some(p) = provider_sampler.sample(rng) {
                if p != s && p != dropped && gt.relationships.get(s, p).is_none() {
                    replacement = Some(p);
                    break;
                }
            }
        }
        let Some(replacement) = replacement else {
            continue;
        };
        gt.relationships.insert_c2p(s, replacement);
        gt.relationships.remove(s, dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_count_and_growth() {
        let mut cfg = EvolutionConfig::small();
        cfg.base = TopologyConfig::tiny();
        cfg.steps = 4;
        cfg.new_stubs_per_step = 10;
        let snaps = evolve(&cfg, 1);
        assert_eq!(snaps.len(), 5);
        for w in snaps.windows(2) {
            assert!(
                w[1].ground_truth.as_count() > w[0].ground_truth.as_count(),
                "population must grow every step"
            );
        }
    }

    #[test]
    fn asns_are_stable_across_snapshots() {
        let mut cfg = EvolutionConfig::small();
        cfg.base = TopologyConfig::tiny();
        cfg.steps = 3;
        let snaps = evolve(&cfg, 2);
        let first: std::collections::HashSet<Asn> =
            snaps[0].ground_truth.classes.keys().copied().collect();
        let last: std::collections::HashSet<Asn> = snaps
            .last()
            .unwrap()
            .ground_truth
            .classes
            .keys()
            .copied()
            .collect();
        assert!(first.is_subset(&last));
    }

    #[test]
    fn invariants_hold_after_evolution() {
        let mut cfg = EvolutionConfig::small();
        cfg.base = TopologyConfig::tiny();
        cfg.steps = 5;
        let snaps = evolve(&cfg, 3);
        for (i, s) in snaps.iter().enumerate() {
            let problems = s.ground_truth.check_invariants();
            assert!(problems.is_empty(), "snapshot {i}: {problems:?}");
        }
    }

    #[test]
    fn peering_density_increases() {
        let cfg = EvolutionConfig::small();
        let snaps = evolve(&cfg, 4);
        let ratio = |t: &GeneratedTopology| {
            let (c2p, p2p, _) = t.ground_truth.relationships.counts();
            p2p as f64 / (c2p + p2p).max(1) as f64
        };
        assert!(
            ratio(snaps.last().unwrap()) > ratio(&snaps[0]),
            "flattening should raise the p2p share"
        );
    }

    #[test]
    fn deterministic() {
        let cfg = EvolutionConfig::small();
        let a = evolve(&cfg, 9);
        let b = evolve(&cfg, 9);
        assert_eq!(
            a.last().unwrap().ground_truth.relationships.len(),
            b.last().unwrap().ground_truth.relationships.len()
        );
    }
}
