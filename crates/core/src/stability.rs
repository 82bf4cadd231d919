//! Inference stability via vantage-point resampling.
//!
//! The paper argues (and its successors quantify) that inference
//! confidence varies enormously across links: a link crossed by hundreds
//! of VPs' paths is effectively certain, while one seen from a single VP
//! is a guess. This module makes that operational with a **jackknife
//! over vantage points**: re-run the pipeline on `k` half-VP subsamples
//! and record, per link, how often each classification recurs. Links
//! whose classification flips across subsamples are exactly the
//! weakly-observed tail of [`crate::visibility`].

use crate::pipeline::{infer, InferenceConfig};
use asrank_types::prelude::*;
use std::collections::HashMap;

/// Stability of one link's classification across subsamples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStability {
    /// Subsamples in which the link was observed at all.
    pub observed: usize,
    /// Subsamples agreeing with the full-data classification.
    pub agreeing: usize,
}

impl LinkStability {
    /// Agreement ratio over the subsamples that observed the link
    /// (1.0 when never observed — no evidence against).
    pub fn agreement(&self) -> f64 {
        if self.observed == 0 {
            1.0
        } else {
            self.agreeing as f64 / self.observed as f64
        }
    }
}

/// Result of a jackknife run.
#[derive(Debug, Clone, Default)]
pub struct StabilityReport {
    per_link: HashMap<AsLink, LinkStability>,
    /// Number of subsamples executed.
    pub subsamples: usize,
}

impl StabilityReport {
    /// Stability of one link (`None` when the full-data inference never
    /// classified it).
    pub fn get(&self, a: Asn, b: Asn) -> Option<LinkStability> {
        self.per_link.get(&AsLink::new(a, b)).copied()
    }

    /// Iterate over all tracked links.
    pub fn iter(&self) -> impl Iterator<Item = (AsLink, LinkStability)> + '_ {
        self.per_link.iter().map(|(&l, &s)| (l, s))
    }

    /// Links whose agreement falls below `threshold` (the unstable tail),
    /// sorted.
    pub fn unstable(&self, threshold: f64) -> Vec<AsLink> {
        let mut v: Vec<AsLink> = self
            .per_link
            .iter()
            .filter(|(_, s)| s.observed > 0 && s.agreement() < threshold)
            .map(|(&l, _)| l)
            .collect();
        v.sort();
        v
    }

    /// Mean agreement across links observed at least once.
    pub fn mean_agreement(&self) -> f64 {
        let obs: Vec<f64> = self
            .per_link
            .values()
            .filter(|s| s.observed > 0)
            .map(LinkStability::agreement)
            .collect();
        if obs.is_empty() {
            1.0
        } else {
            obs.iter().sum::<f64>() / obs.len() as f64
        }
    }
}

/// Deterministically split VPs into a half-subsample keyed by `round`.
fn half_sample(vps: &[Asn], round: u64, seed: u64) -> std::collections::HashSet<Asn> {
    vps.iter()
        .copied()
        .filter(|vp| {
            // splitmix-style per-(vp, round) coin.
            let mut x = seed
                ^ (vp.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ round.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x ^= x >> 30;
            x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            x & 1 == 0
        })
        .collect()
}

/// Run a jackknife: `subsamples` half-VP re-inferences compared against
/// the full-data inference.
pub fn jackknife(
    paths: &PathSet,
    cfg: &InferenceConfig,
    subsamples: usize,
    seed: u64,
) -> StabilityReport {
    let full = infer(paths, cfg);
    let mut report = StabilityReport {
        per_link: full
            .relationships
            .iter()
            .map(|(l, _)| (l, LinkStability::default()))
            .collect(),
        subsamples,
    };
    let mut vps: Vec<Asn> = paths.vantage_points().into_iter().collect();
    vps.sort();

    for round in 0..subsamples {
        let keep = half_sample(&vps, round as u64, seed);
        let subset: PathSet = paths
            .iter()
            .filter(|s| keep.contains(&s.vp))
            .cloned()
            .collect();
        if subset.is_empty() {
            continue;
        }
        let sub = infer(&subset, cfg);
        for (link, rel) in sub.relationships.iter() {
            if let Some(stab) = report.per_link.get_mut(&link) {
                stab.observed += 1;
                if full.relationships.get(link.a, link.b) == Some(rel) {
                    stab.agreeing += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy_paths() -> PathSet {
        // Several VPs over a stable hierarchy: classifications should be
        // highly stable under VP subsampling.
        let routes: Vec<&[u32]> = vec![
            &[100, 10, 1, 2, 20, 200],
            &[100, 10, 1, 2, 21, 210],
            &[200, 20, 2, 1, 10, 100],
            &[200, 20, 2, 1, 11, 110],
            &[210, 21, 2, 1, 10, 100],
            &[110, 11, 1, 2, 20, 200],
            &[110, 11, 1, 2, 21, 210],
            &[210, 21, 2, 20, 200],
        ];
        routes
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect()
    }

    #[test]
    fn stable_hierarchy_agrees() {
        let report = jackknife(&hierarchy_paths(), &InferenceConfig::default(), 8, 1);
        assert_eq!(report.subsamples, 8);
        assert!(
            report.mean_agreement() > 0.8,
            "mean agreement {:.3}",
            report.mean_agreement()
        );
        // The clique link is the most-observed link: must be tracked.
        let s = report.get(Asn(1), Asn(2)).expect("clique link tracked");
        assert!(s.observed > 0);
    }

    #[test]
    fn deterministic() {
        let a = jackknife(&hierarchy_paths(), &InferenceConfig::default(), 4, 9);
        let b = jackknife(&hierarchy_paths(), &InferenceConfig::default(), 4, 9);
        let mut la: Vec<_> = a.iter().collect();
        let mut lb: Vec<_> = b.iter().collect();
        la.sort_by_key(|(l, _)| (l.a, l.b));
        lb.sort_by_key(|(l, _)| (l.a, l.b));
        assert_eq!(la, lb);
    }

    #[test]
    fn unstable_listing_respects_threshold() {
        let report = jackknife(&hierarchy_paths(), &InferenceConfig::default(), 6, 2);
        let none = report.unstable(0.0);
        assert!(none.is_empty(), "nothing is below agreement 0.0");
        let all = report.unstable(1.01);
        // Everything observed is below 101% agreement.
        let observed = report.iter().filter(|(_, s)| s.observed > 0).count();
        assert_eq!(all.len(), observed);
    }

    #[test]
    fn half_sample_varies_by_round() {
        let vps: Vec<Asn> = (1..40).map(Asn).collect();
        let a = half_sample(&vps, 0, 7);
        let b = half_sample(&vps, 1, 7);
        assert_ne!(a, b);
        // Roughly half retained.
        assert!(a.len() > 10 && a.len() < 30, "{}", a.len());
    }
}
