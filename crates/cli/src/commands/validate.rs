//! `asrank validate` — score an as-rel file against a topology bundle's
//! ground truth and against emulated validation corpora.
//!
//! `--inferred` also accepts a raw `.mrt` RIB: the relationships are then
//! inferred through the staged engine with the bundle's IXP list, as
//! `infer --topo` would, skipping the separate `infer --out` round trip.

use crate::args::{Flags, CACHE_SWITCHES};
use crate::snapshot::{apply_cache_flags, rels_from, topo_config};
use as_topology_gen::load_bundle;
use asrank_types::Parallelism;
use asrank_validation::{build_corpus, evaluate_against_corpus, evaluate_against_truth};
use std::path::PathBuf;

pub fn run(args: &[String]) -> i32 {
    let Some(flags) = Flags::parse_with_switches(args, CACHE_SWITCHES) else {
        return 2;
    };
    apply_cache_flags(&flags);
    let Some(inferred_path) = flags.required("inferred") else {
        return 2;
    };
    let Some(topo_dir) = flags.required("topo") else {
        return 2;
    };
    let Some(corpus_seed) = flags.get_or("corpus-seed", 42u64) else {
        return 2;
    };
    let Some(threads) = flags.get_or("threads", Parallelism::auto()) else {
        return 2;
    };

    let topo = match load_bundle(&PathBuf::from(topo_dir)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to load bundle: {e}");
            return 1;
        }
    };
    let mut cfg = topo_config(&topo);
    cfg.parallelism = threads;
    let Some(inferred) = rels_from(inferred_path, &cfg) else {
        return 1;
    };

    let truth = &topo.ground_truth.relationships;
    let r = evaluate_against_truth(&inferred, truth);
    println!("against full ground truth:");
    println!(
        "  c2p PPV {:6.2}%  (n={}, {} reversed)",
        100.0 * r.c2p_ppv(),
        r.c2p.1,
        r.reversed_c2p
    );
    println!("  p2p PPV {:6.2}%  (n={})", 100.0 * r.p2p_ppv(), r.p2p.1);
    println!(
        "  coverage {:5.1}%   phantom links {}   missed links {}",
        100.0 * r.coverage(),
        r.phantom_links,
        r.missed_links
    );

    let corpus = build_corpus(&topo.ground_truth, corpus_seed);
    println!("\nagainst emulated validation sources (paper's method):");
    for row in evaluate_against_corpus(&inferred, &corpus) {
        println!(
            "  {:12} c2p {:6.2}% (n={})   p2p {:6.2}% (n={})   unobserved {}",
            row.source.name(),
            100.0 * row.c2p_ppv(),
            row.c2p.1,
            100.0 * row.p2p_ppv(),
            row.p2p.1,
            row.unobserved
        );
    }
    0
}
