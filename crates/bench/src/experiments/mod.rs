//! Experiment implementations `e1`–`e11`.
//!
//! Each experiment regenerates one table/figure analog of the paper (see
//! the experiment index in `DESIGN.md`) as formatted text. All accept
//! `(Scale, seed)` so reports are reproducible and cheap at small scale.

pub mod e01_data_stats;
pub mod e02_corpus;
pub mod e03_ppv;
pub mod e04_comparison;
pub mod e05_clique;
pub mod e06_cone_ccdf;
pub mod e07_cone_divergence;
pub mod e08_flattening;
pub mod e09_vp_sensitivity;
pub mod e10_robustness;
pub mod e11_degree_vs_cone;
pub mod e12_ablation;
pub mod e13_corpus_bias;
pub mod e14_stability;
pub mod e15_error_locus;

use as_topology_gen::Scale;

/// Run an experiment by id (`"e1"`…`"e15"`). Returns `None` for unknown
/// ids.
pub fn run(id: &str, scale: Scale, seed: u64) -> Option<String> {
    Some(match id {
        "e1" => e01_data_stats::run(scale, seed),
        "e2" => e02_corpus::run(scale, seed),
        "e3" => e03_ppv::run(scale, seed),
        "e4" => e04_comparison::run(scale, seed),
        "e5" => e05_clique::run(scale, seed),
        "e6" => e06_cone_ccdf::run(scale, seed),
        "e7" => e07_cone_divergence::run(scale, seed),
        "e8" => e08_flattening::run(seed),
        "e9" => e09_vp_sensitivity::run(scale, seed),
        "e10" => e10_robustness::run(scale, seed),
        "e11" => e11_degree_vs_cone::run(scale, seed),
        "e12" => e12_ablation::run(scale, seed),
        "e13" => e13_corpus_bias::run(scale, seed),
        "e14" => e14_stability::run(scale, seed),
        "e15" => e15_error_locus::run(scale, seed),
        _ => return None,
    })
}

/// All experiment ids in order.
pub const ALL: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("e99", Scale::Tiny, 1).is_none());
    }

    #[test]
    fn every_experiment_runs_at_tiny_scale() {
        for id in ALL {
            let out = run(id, Scale::Tiny, 7).unwrap();
            assert!(
                out.len() > 40,
                "experiment {id} produced suspiciously little output: {out:?}"
            );
        }
    }
}
