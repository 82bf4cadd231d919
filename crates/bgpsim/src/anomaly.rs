//! Measurement-artifact injection.
//!
//! Real BGP data is not the clean Gao-Rexford ideal: paths carry
//! prepending, IXP route-server ASNs, deliberate poisoning, and leaked
//! routes. The paper's sanitization (step 1) and poisoned-path discard
//! (step 4) exist precisely because of these artifacts, so the simulator
//! must be able to produce them. All injection decisions are deterministic
//! functions of the seed via [`crate::hash`], independent of thread
//! scheduling.

use crate::graph::PolicyGraph;
use crate::hash;
use asrank_types::Asn;

/// Artifact injection probabilities. `Default` is the clean simulation
/// (all zero).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnomalyConfig {
    /// Probability that a given AS leaks routes for a given destination
    /// (re-exports provider/peer routes upward and sideways).
    pub leak_prob: f64,
    /// Probability that an emitted (VP, destination) path is poisoned —
    /// an interior forged hop producing a loop or a false clique sandwich.
    pub poison_prob: f64,
    /// Probability that an AS on a path prepends itself (1–3 extra copies)
    /// for a given destination.
    pub prepend_prob: f64,
    /// Probability that a peering hop crossing an IXP fabric shows the
    /// route-server ASN in the emitted path.
    pub rs_insertion_prob: f64,
    /// ASNs available for poisoning insertions (typically the clique;
    /// empty pool disables the clique-sandwich poison variant).
    pub poison_pool: Vec<Asn>,
}

impl AnomalyConfig {
    /// A clean simulation with no artifacts.
    pub fn none() -> Self {
        Self::default()
    }

    /// A "messy Internet" preset: mild prepending and RS insertion, rare
    /// leaks and poisoning — roughly the artifact density real collectors
    /// see.
    pub fn realistic(poison_pool: Vec<Asn>) -> Self {
        AnomalyConfig {
            leak_prob: 0.0002,
            poison_prob: 0.0005,
            prepend_prob: 0.02,
            rs_insertion_prob: 0.3,
            poison_pool,
        }
    }
}

/// Counters of artifacts actually injected during a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyStats {
    /// Emitted paths that were poisoned.
    pub poisoned_paths: u64,
    /// Emitted paths with at least one prepended hop.
    pub prepended_paths: u64,
    /// Emitted paths showing at least one route-server ASN.
    pub rs_inserted_paths: u64,
}

impl AnomalyStats {
    /// Accumulate another stats block (for merging per-thread counters).
    pub fn merge(&mut self, other: &AnomalyStats) {
        self.poisoned_paths += other.poisoned_paths;
        self.prepended_paths += other.prepended_paths;
        self.rs_inserted_paths += other.rs_inserted_paths;
    }
}

/// Apply emission-time artifacts to a raw dense-id path, producing the
/// final ASN path as a VP would record it. Returns the path plus flags
/// `(poisoned, prepended, rs_inserted)`.
///
/// `ids` is ordered VP-first, origin-last. `dest_asn` keys the
/// deterministic draws so the same path is mangled identically every run.
pub fn emit_path(
    g: &PolicyGraph,
    ids: &[u32],
    dest_asn: Asn,
    cfg: &AnomalyConfig,
    seed: u64,
) -> (Vec<Asn>, bool, bool, bool) {
    let d = dest_asn.0 as u64;

    // 1. Route-server insertion on IXP-fabric peering hops.
    let mut with_rs: Vec<Asn> = Vec::with_capacity(ids.len() + 2);
    let mut rs_inserted = false;
    for (i, &x) in ids.iter().enumerate() {
        with_rs.push(g.asn(x));
        if cfg.rs_insertion_prob > 0.0 {
            if let Some(&y) = ids.get(i + 1) {
                if let Some(rs) = g.ixp_route_server(x, y) {
                    if hash::chance(seed, &[x as u64, y as u64, d, 0x5e], cfg.rs_insertion_prob) {
                        with_rs.push(rs);
                        rs_inserted = true;
                    }
                }
            }
        }
    }

    // 2. Prepending: each AS may repeat itself 1–3 extra times.
    let mut prepended = false;
    let mut out: Vec<Asn> = Vec::with_capacity(with_rs.len() + 4);
    for &asn in &with_rs {
        out.push(asn);
        if cfg.prepend_prob > 0.0 && hash::chance(seed, &[asn.0 as u64, d, 0x9e], cfg.prepend_prob)
        {
            let extra = 1 + hash::pick(seed, &[asn.0 as u64, d, 0xa1], 3);
            for _ in 0..extra {
                out.push(asn);
            }
            prepended = true;
        }
    }

    // 3. Poisoning: forge one interior hop.
    let mut poisoned = false;
    if cfg.poison_prob > 0.0
        && out.len() >= 3
        && hash::chance(seed, &[out[0].0 as u64, d, 0x70], cfg.poison_prob)
    {
        let pos = 1 + hash::pick(seed, &[d, 0x71], out.len() - 2);
        let use_pool = !cfg.poison_pool.is_empty() && hash::chance(seed, &[d, 0x72], 0.5);
        let forged = if use_pool {
            // Clique-sandwich style: splice a prominent ASN mid-path.
            cfg.poison_pool[hash::pick(seed, &[d, 0x73], cfg.poison_pool.len())]
        } else {
            // Loop style: duplicate a non-adjacent earlier hop.
            out[hash::pick(seed, &[d, 0x74], pos.saturating_sub(1).max(1))]
        };
        if forged != out[pos] && forged != out[pos - 1] {
            out.insert(pos, forged);
            poisoned = true;
        }
    }

    (out, poisoned, prepended, rs_inserted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::prelude::*;

    fn peering_pair_graph() -> PolicyGraph {
        let mut gt = GroundTruth::default();
        gt.relationships.insert_p2p(Asn(10), Asn(20));
        gt.relationships.insert_c2p(Asn(30), Asn(10));
        gt.classes.insert(Asn(10), AsClass::MidTransit);
        gt.classes.insert(Asn(20), AsClass::MidTransit);
        gt.classes.insert(Asn(30), AsClass::Stub);
        let fabrics = vec![(Asn(900), vec![Asn(10), Asn(20)])];
        PolicyGraph::with_ixp_links(&gt, &fabrics)
    }

    #[test]
    fn clean_config_is_identity() {
        let g = peering_pair_graph();
        let ids: Vec<u32> = [20u32, 10, 30]
            .iter()
            .map(|&a| g.id(Asn(a)).unwrap())
            .collect();
        let (path, p, pr, rs) = emit_path(&g, &ids, Asn(30), &AnomalyConfig::none(), 1);
        assert_eq!(path, vec![Asn(20), Asn(10), Asn(30)]);
        assert!(!p && !pr && !rs);
    }

    #[test]
    fn rs_insertion_happens_on_fabric_hop() {
        let g = peering_pair_graph();
        let ids: Vec<u32> = [20u32, 10, 30]
            .iter()
            .map(|&a| g.id(Asn(a)).unwrap())
            .collect();
        let mut cfg = AnomalyConfig::none();
        cfg.rs_insertion_prob = 1.0;
        let (path, _, _, rs) = emit_path(&g, &ids, Asn(30), &cfg, 1);
        assert!(rs);
        assert_eq!(path, vec![Asn(20), Asn(900), Asn(10), Asn(30)]);
    }

    #[test]
    fn prepending_repeats_hops_adjacently() {
        let g = peering_pair_graph();
        let ids: Vec<u32> = [20u32, 10, 30]
            .iter()
            .map(|&a| g.id(Asn(a)).unwrap())
            .collect();
        let mut cfg = AnomalyConfig::none();
        cfg.prepend_prob = 1.0;
        let (path, _, pr, _) = emit_path(&g, &ids, Asn(30), &cfg, 3);
        assert!(pr);
        assert!(path.len() > 3);
        // Compressing prepending must recover the original path.
        let compressed = AsPath(path).compress_prepending();
        assert_eq!(compressed.0, vec![Asn(20), Asn(10), Asn(30)]);
    }

    #[test]
    fn poisoning_changes_path() {
        let g = peering_pair_graph();
        let ids: Vec<u32> = [20u32, 10, 30]
            .iter()
            .map(|&a| g.id(Asn(a)).unwrap())
            .collect();
        let mut cfg = AnomalyConfig::none();
        cfg.poison_prob = 1.0;
        cfg.poison_pool = vec![Asn(777)];
        // Try several seeds; at least one must actually insert (the guard
        // against adjacent duplicates can suppress some draws).
        let mut any = false;
        for seed in 0..20 {
            let (path, poisoned, _, _) = emit_path(&g, &ids, Asn(30), &cfg, seed);
            if poisoned {
                any = true;
                assert_eq!(path.len(), 4);
            }
        }
        assert!(any, "poisoning never fired across 20 seeds");
    }

    #[test]
    fn emit_is_deterministic() {
        let g = peering_pair_graph();
        let ids: Vec<u32> = [20u32, 10, 30]
            .iter()
            .map(|&a| g.id(Asn(a)).unwrap())
            .collect();
        let cfg = AnomalyConfig::realistic(vec![Asn(777)]);
        let a = emit_path(&g, &ids, Asn(30), &cfg, 99);
        let b = emit_path(&g, &ids, Asn(30), &cfg, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn stats_merge_adds() {
        let mut a = AnomalyStats {
            poisoned_paths: 2,
            prepended_paths: 3,
            rs_inserted_paths: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.poisoned_paths, 4);
        assert_eq!(a.rs_inserted_paths, 8);
    }
}
