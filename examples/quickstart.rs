//! Quickstart: the whole reproduction on a ~1000-AS Internet, in five
//! steps — generate, simulate, infer, compute cones, validate.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use asrank::bgpsim::{simulate, SimConfig, VpSelection};
use asrank::core::pipeline::{infer, InferenceConfig};
use asrank::core::{rank_ases, CustomerCones};
use asrank::topology::{generate, TopologyConfig};
use asrank::types::{Asn, Parallelism};
use asrank::validation::{
    build_corpus, evaluate_against_corpus, evaluate_against_truth, CorpusConfig,
};

fn main() {
    let seed = 2013; // the paper's year, why not

    // 1. Generate a small Internet with known business relationships.
    let topo = generate(&TopologyConfig::small(), seed);
    println!(
        "topology: {} ASes, {} links, {} prefixes, Tier-1 clique {:?}",
        topo.ground_truth.as_count(),
        topo.ground_truth.link_count(),
        topo.ground_truth.prefix_count(),
        topo.ground_truth.clique(),
    );

    // 2. Simulate BGP under Gao-Rexford policies; collect RIBs at 30
    //    degree-biased vantage points.
    let mut sim_cfg = SimConfig::defaults(seed);
    sim_cfg.vp_selection = VpSelection::Count(30);
    let sim = simulate(&topo, &sim_cfg);
    println!(
        "simulated: {} RIB entries, {} distinct paths from {} VPs",
        sim.paths.len(),
        sim.paths.distinct_paths().len(),
        sim.vps.len(),
    );

    // 3. Run the ASRank inference pipeline (IXP ASNs known, as in the
    //    paper's IXP list).
    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    let inference = infer(&sim.paths, &InferenceConfig::with_ixps(ixps));
    let (c2p, p2p, s2s) = inference.relationships.counts();
    println!(
        "inferred: {c2p} c2p, {p2p} p2p, {s2s} s2s; clique {:?}",
        inference.clique
    );

    // 4. Recursive customer cones, weighted by originated prefixes, and
    //    the AS ranking.
    let cones = CustomerCones::recursive(
        &inference.relationships,
        Some(&topo.ground_truth.prefixes),
        Parallelism::auto(),
    );
    println!("\ntop 5 ASes by customer cone:");
    for row in rank_ases(&cones, &inference.degrees).iter().take(5) {
        println!(
            "  #{} {}  cone: {} ASes / {} prefixes / {} addrs  (transit degree {})",
            row.rank,
            row.asn,
            row.cone.ases,
            row.cone.prefixes,
            row.cone.addresses,
            row.transit_degree,
        );
    }

    // 5. Validate — against emulated corpora (as the paper did) and
    //    against the full ground truth (as only a simulation can).
    let corpus = build_corpus(&topo.ground_truth, &CorpusConfig::paper_like(seed));
    println!("\nPPV against emulated validation sources:");
    for row in evaluate_against_corpus(&inference.relationships, &corpus) {
        println!(
            "  {:12} c2p {:5.1}% (n={})   p2p {:5.1}% (n={})",
            row.source.name(),
            row.c2p_ppv() * 100.0,
            row.c2p.1,
            row.p2p_ppv() * 100.0,
            row.p2p.1,
        );
    }
    let gt = evaluate_against_truth(&inference.relationships, &topo.ground_truth.relationships);
    println!(
        "\nagainst full ground truth: c2p PPV {:.1}%  p2p PPV {:.1}%  coverage {:.1}%",
        gt.c2p_ppv() * 100.0,
        gt.p2p_ppv() * 100.0,
        gt.coverage() * 100.0,
    );
}
