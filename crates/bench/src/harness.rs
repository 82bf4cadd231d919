//! Shared experiment harness: one place that generates a topology,
//! simulates BGP over it, runs the inference pipeline, and builds the
//! validation corpus — so every experiment starts from the same
//! reproducible state.

use as_topology_gen::{generate, GeneratedTopology, Scale, TopologyConfig};
use asrank_core::pipeline::{infer, Inference, InferenceConfig};
use asrank_types::prelude::*;
use asrank_validation::{build_corpus, CorpusConfig, ValidationCorpus};
use bgp_sim::{simulate, AnomalyConfig, SimConfig, SimOutput, VpSelection};

/// A full experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Topology to generate.
    pub topology: TopologyConfig,
    /// Number of vantage points.
    pub vps: usize,
    /// Fraction of full-feed VPs.
    pub full_feed: f64,
    /// Artifact injection.
    pub anomalies: AnomalyConfig,
    /// Optional cap on propagated destinations.
    pub destination_sample: Option<usize>,
    /// Optional cap on retained RIB entries per vantage point.
    pub rib_cap_per_vp: Option<usize>,
    /// Master seed.
    pub seed: u64,
}

impl Scenario {
    /// Default scenario at a given scale: paper-like VP counts scaled to
    /// topology size, clean paths.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let (vps, sample, rib_cap) = match scale {
            Scale::Tiny => (8, None, None),
            Scale::Small => (30, None, None),
            Scale::Medium => (120, Some(4_000), None),
            Scale::Internet => (315, Some(6_000), None),
            // Paper-like VP count held at the 2013 collector population;
            // destinations sampled harder so simulation stays tractable,
            // and per-VP RIB retention bounded so collection memory is
            // `vps × cap` rather than `vps × destinations × prefixes` —
            // the cap sits above what a full feed observes at this
            // sampling rate, so it is a ceiling, not a thinning.
            Scale::TenX => (315, Some(6_000), Some(24_000)),
        };
        Scenario {
            topology: scale.topology(),
            vps,
            full_feed: 116.0 / 315.0,
            anomalies: AnomalyConfig::none(),
            destination_sample: sample,
            rib_cap_per_vp: rib_cap,
            seed,
        }
    }
}

/// Build just the engine inputs for a scenario: generate the topology,
/// simulate BGP over it, and pair the observed paths with the inference
/// config (IXP list from the topology). This is the cheap front half of
/// [`Workbench::build`] for callers that drive the staged engine
/// directly — e.g. `report stage-report`, which wants the per-stage
/// instrumentation rather than the finished [`Inference`].
pub fn scenario_inputs(scenario: &Scenario) -> (PathSet, InferenceConfig) {
    let topo = generate(&scenario.topology, scenario.seed);
    let sim_cfg = SimConfig {
        vp_selection: VpSelection::Count(scenario.vps),
        full_feed_fraction: scenario.full_feed,
        anomalies: scenario.anomalies.clone(),
        destination_sample: scenario.destination_sample,
        rib_cap_per_vp: scenario.rib_cap_per_vp,
        threads: 0,
        seed: scenario.seed,
    };
    let sim = simulate(&topo, &sim_cfg);
    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    (sim.paths, InferenceConfig::with_ixps(ixps))
}

/// Everything an experiment needs, built once.
#[derive(Debug)]
pub struct Workbench {
    /// The scenario that produced this workbench.
    pub scenario: Scenario,
    /// Generated topology with ground truth.
    pub topo: GeneratedTopology,
    /// Simulated BGP collection.
    pub sim: SimOutput,
    /// ASRank inference over the simulated paths.
    pub inference: Inference,
    /// Emulated validation corpus.
    pub corpus: ValidationCorpus,
}

impl Workbench {
    /// Build the full chain: generate → simulate → infer → corpus.
    pub fn build(scenario: Scenario) -> Self {
        let topo = generate(&scenario.topology, scenario.seed);
        let sim_cfg = SimConfig {
            vp_selection: VpSelection::Count(scenario.vps),
            full_feed_fraction: scenario.full_feed,
            anomalies: scenario.anomalies.clone(),
            destination_sample: scenario.destination_sample,
            rib_cap_per_vp: scenario.rib_cap_per_vp,
            threads: 0,
            seed: scenario.seed,
        };
        let sim = simulate(&topo, &sim_cfg);
        let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
        let inference = infer(&sim.paths, &InferenceConfig::with_ixps(ixps));
        let corpus = build_corpus(&topo.ground_truth, &CorpusConfig::paper_like(scenario.seed));
        Workbench {
            scenario,
            topo,
            sim,
            inference,
            corpus,
        }
    }

    /// Re-run only the simulation + inference with a different VP count
    /// (used by the sensitivity sweep; topology and corpus stay fixed).
    pub fn with_vps(&self, vps: usize) -> (SimOutput, Inference) {
        let sim_cfg = SimConfig {
            vp_selection: VpSelection::Count(vps),
            full_feed_fraction: self.scenario.full_feed,
            anomalies: self.scenario.anomalies.clone(),
            destination_sample: self.scenario.destination_sample,
            rib_cap_per_vp: self.scenario.rib_cap_per_vp,
            threads: 0,
            seed: self.scenario.seed,
        };
        let sim = simulate(&self.topo, &sim_cfg);
        let ixps: Vec<Asn> = self.topo.ixps.iter().map(|i| i.route_server).collect();
        let inference = infer(&sim.paths, &InferenceConfig::with_ixps(ixps));
        (sim, inference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Ok(Scale::Small));
        assert_eq!(Scale::parse("internet"), Ok(Scale::Internet));
        assert_eq!(Scale::parse("tenx"), Ok(Scale::TenX));
        let err = Scale::parse("bogus").unwrap_err();
        assert!(err.to_string().contains("tiny|small|medium|internet|tenx"));
    }

    #[test]
    fn workbench_builds_at_tiny_scale() {
        let wb = Workbench::build(Scenario::at_scale(Scale::Tiny, 3));
        assert!(!wb.sim.paths.is_empty());
        assert!(!wb.inference.relationships.is_empty());
        assert!(!wb.corpus.is_empty());
    }

    #[test]
    fn vp_override_changes_collection() {
        let wb = Workbench::build(Scenario::at_scale(Scale::Tiny, 4));
        let (sim2, _) = wb.with_vps(2);
        assert!(sim2.paths.vantage_points().len() <= 2);
    }
}
