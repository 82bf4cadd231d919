//! Longitudinal study: evolve a topology through snapshots (population
//! growth + spreading peering), re-run the full inference on each
//! snapshot's simulated BGP view, and track the paper's "flattening"
//! signals: the largest customer cones' share of the Internet and the
//! peering share of links.
//!
//! ```text
//! cargo run --release --example longitudinal
//! ```

use asrank::bgpsim::{simulate, SimConfig, VpSelection};
use asrank::core::cone::CustomerCones;
use asrank::core::pipeline::{infer, InferenceConfig};
use asrank::topology::{evolve, EvolutionConfig};
use asrank::types::{Asn, Parallelism};

fn main() {
    let seed = 99;
    let mut cfg = EvolutionConfig::small();
    cfg.steps = 8;
    let snapshots = evolve(&cfg, seed);

    println!(
        "{:<9} {:>6} {:>7} {:>10} {:>14} {:>11} {:>9}",
        "snapshot", "ASes", "links", "p2p share", "largest cone", "cone share", "c2p PPV"
    );
    for (i, snap) in snapshots.iter().enumerate() {
        // Simulate a collection over this snapshot and infer.
        let sim = simulate(
            snap,
            &SimConfig {
                vp_selection: VpSelection::Count(30),
                full_feed_fraction: 0.4,
                anomalies: Default::default(),
                destination_sample: None,
                rib_cap_per_vp: None,
                threads: 0,
                seed: seed + i as u64,
            },
        );
        let ixps: Vec<Asn> = snap.ixps.iter().map(|x| x.route_server).collect();
        let inference = infer(&sim.paths, &InferenceConfig::with_ixps(ixps));

        let gt = asrank::validation::evaluate_against_truth(
            &inference.relationships,
            &snap.ground_truth.relationships,
        );

        let (c2p, p2p, _) = snap.ground_truth.relationships.counts();
        let cones = CustomerCones::recursive(&inference.relationships, None, Parallelism::auto());
        let (top, size) = cones.largest().expect("non-empty");
        println!(
            "{:<9} {:>6} {:>7} {:>9.1}% {:>8}: {:<5} {:>10.1}% {:>8.1}%",
            i,
            snap.ground_truth.as_count(),
            snap.ground_truth.link_count(),
            100.0 * p2p as f64 / (c2p + p2p) as f64,
            top.to_string(),
            size.ases,
            100.0 * size.ases as f64 / snap.ground_truth.as_count() as f64,
            100.0 * gt.c2p_ppv(),
        );
    }
    println!(
        "\nexpected shape (paper): the p2p share of links rises over time \
         and the largest cone's share of the AS population declines — the \
         Internet flattens."
    );
}
