//! Topology configuration and presets.

/// How many ASes of each structural class to generate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMix {
    /// Tier-1 clique size (the paper's inferred clique had 10–20 members
    /// across snapshots).
    pub tier1: usize,
    /// Large national/international transit providers.
    pub large_transit: usize,
    /// Regional transit providers.
    pub mid_transit: usize,
    /// Small/local transit providers.
    pub small_transit: usize,
    /// Content/CDN networks (dense peering, shallow transit).
    pub content: usize,
    /// Stub (access / enterprise) networks.
    pub stubs: usize,
}

impl ClassMix {
    /// Total AS count across all classes.
    pub fn total(&self) -> usize {
        self.tier1
            + self.large_transit
            + self.mid_transit
            + self.small_transit
            + self.content
            + self.stubs
    }
}

/// Internet-exchange-point modeling parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IxpConfig {
    /// Number of IXPs (each gets a route-server ASN).
    pub count: usize,
    /// Expected members per IXP, drawn from the transit/content population
    /// of the IXP's region.
    pub mean_members: usize,
    /// Probability that any given pair of co-located members peers over
    /// the fabric.
    pub peering_prob: f64,
}

/// Full description of a synthetic topology.
///
/// All probabilities are per-opportunity Bernoulli parameters; all counts
/// are exact. Generation is deterministic given `(config, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Class composition.
    pub mix: ClassMix,
    /// Number of geographic regions; provider selection and peering are
    /// biased toward same-region ASes.
    pub regions: usize,
    /// Probability that a provider choice escapes the chooser's region.
    pub cross_region_prob: f64,
    /// Mean number of providers for multi-homed edge ASes (≥ 1; the
    /// generator draws 1 + Poisson-ish extra homes).
    pub mean_providers_stub: f64,
    /// Mean providers for transit ASes below the clique.
    pub mean_providers_transit: f64,
    /// Probability that two large-transit ASes peer.
    pub peer_prob_large: f64,
    /// Probability that two same-region mid-transit ASes peer.
    pub peer_prob_mid: f64,
    /// Probability that a content AS peers with any given transit AS of
    /// its region (the flattening knob).
    pub peer_prob_content: f64,
    /// IXP modeling.
    pub ixp: IxpConfig,
    /// Mean prefixes originated by a stub (transit ASes originate more,
    /// scaled by class).
    pub mean_prefixes_stub: f64,
    /// Fraction of adjacent AS pairs (siblings) under common ownership.
    pub sibling_fraction: f64,
}

impl TopologyConfig {
    /// ~60-AS toy topology for unit tests and doc examples.
    pub fn tiny() -> Self {
        TopologyConfig {
            mix: ClassMix {
                tier1: 3,
                large_transit: 4,
                mid_transit: 8,
                small_transit: 10,
                content: 5,
                stubs: 30,
            },
            regions: 2,
            cross_region_prob: 0.2,
            mean_providers_stub: 1.5,
            mean_providers_transit: 1.8,
            peer_prob_large: 0.5,
            peer_prob_mid: 0.2,
            peer_prob_content: 0.15,
            ixp: IxpConfig {
                count: 1,
                mean_members: 6,
                peering_prob: 0.3,
            },
            mean_prefixes_stub: 1.2,
            sibling_fraction: 0.01,
        }
    }

    /// ~1 000-AS topology: fast enough for every test, large enough for
    /// stable statistics.
    pub fn small() -> Self {
        TopologyConfig {
            mix: ClassMix {
                tier1: 8,
                large_transit: 15,
                mid_transit: 60,
                small_transit: 120,
                content: 50,
                stubs: 750,
            },
            regions: 4,
            cross_region_prob: 0.15,
            mean_providers_stub: 1.6,
            mean_providers_transit: 1.9,
            peer_prob_large: 0.35,
            peer_prob_mid: 0.1,
            peer_prob_content: 0.06,
            ixp: IxpConfig {
                count: 3,
                mean_members: 25,
                peering_prob: 0.15,
            },
            mean_prefixes_stub: 1.3,
            sibling_fraction: 0.01,
        }
    }

    /// ~10 000-AS topology for benches and mid-scale experiments.
    pub fn medium() -> Self {
        TopologyConfig {
            mix: ClassMix {
                tier1: 11,
                large_transit: 40,
                mid_transit: 400,
                small_transit: 1_100,
                content: 450,
                stubs: 8_000,
            },
            regions: 6,
            cross_region_prob: 0.12,
            mean_providers_stub: 1.7,
            mean_providers_transit: 2.0,
            peer_prob_large: 0.3,
            peer_prob_mid: 0.035,
            peer_prob_content: 0.012,
            ixp: IxpConfig {
                count: 8,
                mean_members: 80,
                peering_prob: 0.05,
            },
            mean_prefixes_stub: 1.4,
            sibling_fraction: 0.008,
        }
    }

    /// ≈ 42 000-AS topology mimicking the April 2013 Internet the paper
    /// measured (42 k ASes, ~87 % stubs, clique of ~13).
    pub fn internet_2013() -> Self {
        TopologyConfig {
            mix: ClassMix {
                tier1: 13,
                large_transit: 90,
                mid_transit: 1_400,
                small_transit: 3_900,
                content: 1_600,
                stubs: 35_000,
            },
            regions: 8,
            cross_region_prob: 0.1,
            mean_providers_stub: 1.8,
            mean_providers_transit: 2.1,
            peer_prob_large: 0.25,
            peer_prob_mid: 0.012,
            peer_prob_content: 0.004,
            ixp: IxpConfig {
                count: 20,
                mean_members: 180,
                peering_prob: 0.02,
            },
            mean_prefixes_stub: 1.5,
            sibling_fraction: 0.006,
        }
    }

    /// ≈ 400 000-AS stress topology — ten times the 2013 Internet, for
    /// forward-looking scaling claims ("does it stay linear past the
    /// real table?"). Class shares follow [`TopologyConfig::internet_2013`]
    /// with the clique held at paper size; peering probabilities shrink
    /// so per-AS adjacency stays realistic as the population grows.
    pub fn ten_x() -> Self {
        TopologyConfig {
            mix: ClassMix {
                tier1: 13,
                large_transit: 900,
                mid_transit: 14_000,
                small_transit: 39_000,
                content: 16_000,
                stubs: 330_000,
            },
            regions: 12,
            cross_region_prob: 0.1,
            mean_providers_stub: 1.8,
            mean_providers_transit: 2.1,
            peer_prob_large: 0.08,
            peer_prob_mid: 0.0012,
            peer_prob_content: 0.0004,
            ixp: IxpConfig {
                count: 40,
                mean_members: 300,
                peering_prob: 0.01,
            },
            mean_prefixes_stub: 1.5,
            sibling_fraction: 0.006,
        }
    }

    /// Scale every class count by `factor`, keeping probabilities; useful
    /// for size-sweep benches.
    pub fn scaled(&self, factor: f64) -> Self {
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        let mut out = self.clone();
        out.mix = ClassMix {
            tier1: self.mix.tier1.clamp(3, 20), // clique size does not scale
            large_transit: scale(self.mix.large_transit),
            mid_transit: scale(self.mix.mid_transit),
            small_transit: scale(self.mix.small_transit),
            content: scale(self.mix.content),
            stubs: scale(self.mix.stubs),
        };
        out
    }
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        assert_eq!(TopologyConfig::tiny().mix.total(), 60);
        assert!(TopologyConfig::internet_2013().mix.total() > 40_000);
    }

    #[test]
    fn presets_have_majority_stubs() {
        for cfg in [
            TopologyConfig::small(),
            TopologyConfig::medium(),
            TopologyConfig::internet_2013(),
        ] {
            let total = cfg.mix.total();
            assert!(
                cfg.mix.stubs as f64 >= 0.7 * total as f64,
                "stub share too low in {cfg:?}"
            );
        }
    }

    #[test]
    fn scaled_keeps_clique_bounded() {
        let big = TopologyConfig::small().scaled(10.0);
        assert!(big.mix.tier1 <= 20);
        assert_eq!(big.mix.stubs, 7_500);
        let tiny = TopologyConfig::small().scaled(0.001);
        assert!(tiny.mix.stubs >= 1, "scaling never produces empty classes");
    }
}
