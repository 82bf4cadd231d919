//! Calibration checks: does a generated topology look like the measured
//! Internet?
//!
//! The substitution argument in `DESIGN.md` rests on the generator
//! reproducing the structural facts the inference algorithm exploits.
//! This module makes those facts executable: published ranges for the
//! stub share, the power-law degree tail, clique size, multihoming, and
//! the p2p/c2p mix, checked against any [`GroundTruth`]. The preset
//! configs are unit-tested to stay inside the ranges, so a refactor of
//! the generator that silently breaks realism fails CI.

use asrank_types::prelude::*;

/// One realism check outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Which fact was checked.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Accepted range (inclusive).
    pub range: (f64, f64),
}

impl CheckOutcome {
    /// True when the measured value falls in the accepted range.
    pub fn ok(&self) -> bool {
        self.value >= self.range.0 && self.value <= self.range.1
    }
}

/// Full realism report.
#[derive(Debug, Clone, Default)]
pub struct RealismReport {
    /// Individual outcomes.
    pub checks: Vec<CheckOutcome>,
}

impl RealismReport {
    /// Checks that failed.
    pub fn failures(&self) -> Vec<&CheckOutcome> {
        self.checks.iter().filter(|c| !c.ok()).collect()
    }

    /// True when every check passed.
    pub fn all_ok(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Estimate the power-law exponent of the degree CCDF tail by a simple
/// Hill estimator over degrees ≥ `xmin`.
fn hill_alpha(degrees: &[usize], xmin: usize) -> Option<f64> {
    let tail: Vec<f64> = degrees
        .iter()
        .filter(|&&d| d >= xmin)
        .map(|&d| d as f64)
        .collect();
    if tail.len() < 10 {
        return None;
    }
    let n = tail.len() as f64;
    let sum_log: f64 = tail.iter().map(|d| (d / xmin as f64).ln()).sum();
    Some(1.0 + n / sum_log)
}

/// Check a topology against published Internet structure facts
/// (ranges are deliberately generous — they encode "same universe", not
/// "same snapshot"):
///
/// * stub share 70–92 % (measured ≈ 85 %);
/// * clique size 3–25 (measured 10–20 across the paper's snapshots);
/// * mean providers per multihomable AS 1.2–3.5 (measured ≈ 1.5–2.5);
/// * p2p share of links 5–60 % (visible share grew from ~10 % to ~50 %
///   as community data improved);
/// * degree-distribution tail exponent α 1.5–3.5 (classic power-law
///   measurements put the Internet near 2.1).
pub fn check_realism(gt: &GroundTruth) -> RealismReport {
    let adj = gt.relationships.adjacency();
    let mut report = RealismReport::default();

    let n = gt.as_count().max(1);
    let customer_count = |a: &Asn| {
        adj.get(a)
            .map(|ns| {
                ns.iter()
                    .filter(|&&(_, o)| o == Orientation::Customer)
                    .count()
            })
            .unwrap_or(0)
    };
    let provider_count = |a: &Asn| {
        adj.get(a)
            .map(|ns| {
                ns.iter()
                    .filter(|&&(_, o)| o == Orientation::Provider)
                    .count()
            })
            .unwrap_or(0)
    };

    // Stub share.
    let stubs = gt.classes.keys().filter(|a| customer_count(a) == 0).count();
    report.checks.push(CheckOutcome {
        name: "stub share".into(),
        value: stubs as f64 / n as f64,
        range: (0.70, 0.92),
    });

    // Clique size.
    report.checks.push(CheckOutcome {
        name: "clique size".into(),
        value: gt.clique().len() as f64,
        range: (3.0, 25.0),
    });

    // Mean providers over ASes that have any provider.
    let provider_counts: Vec<usize> = gt
        .classes
        .keys()
        .map(provider_count)
        .filter(|&c| c > 0)
        .collect();
    let mean_providers = if provider_counts.is_empty() {
        0.0
    } else {
        provider_counts.iter().sum::<usize>() as f64 / provider_counts.len() as f64
    };
    report.checks.push(CheckOutcome {
        name: "mean providers (multihoming)".into(),
        value: mean_providers,
        range: (1.2, 3.5),
    });

    // p2p share of links.
    let (c2p, p2p, s2s) = gt.relationships.counts();
    report.checks.push(CheckOutcome {
        name: "p2p share of links".into(),
        value: p2p as f64 / (c2p + p2p + s2s).max(1) as f64,
        range: (0.05, 0.60),
    });

    // Degree tail exponent.
    let degrees: Vec<usize> = gt
        .classes
        .keys()
        .map(|a| adj.get(a).map(Vec::len).unwrap_or(0))
        .collect();
    if let Some(alpha) = hill_alpha(&degrees, 3) {
        report.checks.push(CheckOutcome {
            name: "degree tail exponent (Hill, xmin=3)".into(),
            value: alpha,
            range: (1.5, 3.5),
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TopologyConfig};

    #[test]
    fn presets_stay_in_published_ranges() {
        for (name, cfg) in [
            ("small", TopologyConfig::small()),
            ("medium", TopologyConfig::medium()),
        ] {
            let topo = generate(&cfg, 42);
            let report = check_realism(&topo.ground_truth);
            assert!(
                report.all_ok(),
                "{name}: failed checks {:?}",
                report.failures()
            );
        }
    }

    #[test]
    fn degenerate_topology_fails_checks() {
        // A pure star: one provider, everyone else its customer — the
        // stub share is fine but multihoming and peering are absent.
        let mut gt = GroundTruth::default();
        gt.classes.insert(Asn(1), AsClass::Tier1);
        for i in 2..200u32 {
            gt.relationships.insert_c2p(Asn(i), Asn(1));
            gt.classes.insert(Asn(i), AsClass::Stub);
        }
        let report = check_realism(&gt);
        assert!(!report.all_ok());
        let failed: Vec<&str> = report.failures().iter().map(|c| c.name.as_str()).collect();
        assert!(failed.contains(&"p2p share of links"), "{failed:?}");
    }

    #[test]
    fn hill_estimator_on_synthetic_power_law() {
        // degrees ~ pareto(alpha=2): CCDF(x) = x^-2. Generate via inverse
        // transform on a deterministic grid.
        let degrees: Vec<usize> = (1..5000)
            .map(|i| {
                let u = i as f64 / 5000.0;
                (3.0 * (1.0 - u).powf(-0.5)) as usize
            })
            .collect();
        let alpha = hill_alpha(&degrees, 3).unwrap();
        assert!((alpha - 3.0).abs() < 0.6, "alpha={alpha}");
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        let report = check_realism(&GroundTruth::default());
        // No degrees, no tail estimate; checks exist but may fail —
        // the point is graceful behavior.
        assert!(report.checks.len() >= 4);
    }
}
