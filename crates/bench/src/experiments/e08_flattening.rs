//! E8 — longitudinal "flattening" (paper analog: top-AS customer cones
//! across years).
//!
//! Two growth regimes are evolved side by side:
//!
//! * **preferential** — newcomers attach to already-large providers
//!   (rich-get-richer, the early Internet);
//! * **regional** — newcomers buy from regional transit, new regional
//!   transit providers keep appearing, and stubs churn away from
//!   incumbents (the flattening era).
//!
//! The robust flattening signal our generative model reproduces is the
//! rising p2p share of links. The *recursive* cone share of the largest
//! AS is structurally sticky under multihoming (every added home can
//! only add cone memberships) — which is precisely the paper's argument
//! for preferring the observed-cone definitions in longitudinal work.

use crate::table::{f, pct, Table};
use as_topology_gen::{evolve, EvolutionConfig};
use asrank_core::cone::CustomerCones;
use asrank_types::Parallelism;

fn run_regime(preferential: bool, seed: u64) -> (Table, f64, f64, f64) {
    let mut cfg = EvolutionConfig::small();
    cfg.preferential_attachment = preferential;
    let snaps = evolve(&cfg, seed);
    let mut t = Table::new([
        "snapshot",
        "ASes",
        "links",
        "p2p share",
        "largest cone",
        "cone share",
    ]);
    let mut first_share = 0.0;
    let mut last_share = 0.0;
    let (mut first_p2p, mut last_p2p) = (0.0, 0.0);
    for (i, snap) in snaps.iter().enumerate() {
        let gt = &snap.ground_truth;
        let (c2p, p2p, _) = gt.relationships.counts();
        let cones = CustomerCones::recursive(&gt.relationships, None, Parallelism::auto());
        let (top, size) = cones.largest().unwrap();
        let share = size.ases as f64 / gt.as_count() as f64;
        let p2p_share = p2p as f64 / (c2p + p2p).max(1) as f64;
        if i == 0 {
            first_share = share;
            first_p2p = p2p_share;
        }
        last_share = share;
        last_p2p = p2p_share;
        t.row([
            i.to_string(),
            gt.as_count().to_string(),
            gt.link_count().to_string(),
            pct(p2p_share),
            format!("{top}: {}", size.ases),
            pct(share),
        ]);
    }
    (t, last_share / first_share, first_p2p, last_p2p)
}

/// Produce the E8 report.
pub fn run(seed: u64) -> String {
    let (pref_table, pref_ratio, _, _) = run_regime(true, seed);
    let (flat_table, flat_ratio, p2p_first, p2p_last) = run_regime(false, seed);
    format!(
        "E8: longitudinal flattening (paper: peering spreads and the \
         largest transit cones stop growing relative to the AS \
         population)\n\n--- preferential-attachment regime ---\n{}\n--- \
         regional/flattening regime ---\n{}\nfindings:\n  • p2p share of \
         links rises {} → {} in the flattening regime (the paper's \
         robust signal);\n  • largest-cone share growth over the run: {}× \
         (preferential) vs {}× (regional);\n  • the *recursive* cone share never truly shrinks \
         under multihoming (every added provider link only adds cone \
         memberships), which is exactly the paper's argument for the \
         observed-cone definitions in longitudinal analysis.\n",
        pref_table.render(),
        flat_table.render(),
        pct(p2p_first),
        pct(p2p_last),
        f(pref_ratio, 3),
        f(flat_ratio, 3),
    )
}
