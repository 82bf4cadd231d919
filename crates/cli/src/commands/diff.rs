//! `asrank diff` — compare two as-rel files (e.g. two monthly snapshots
//! or two inference runs) and report the delta.
//!
//! Either side may be a raw `.mrt` RIB; those are inferred through the
//! staged engine (default configuration, no IXP list) before diffing, so
//! `diff --old a.mrt --new b.mrt` compares two captures directly.

use crate::args::{Flags, CACHE_SWITCHES};
use crate::snapshot::{apply_cache_flags, rels_from};
use asrank_core::diff_relationships;
use asrank_core::pipeline::InferenceConfig;
use asrank_types::Parallelism;

pub fn run(args: &[String]) -> i32 {
    let Some(flags) = Flags::parse_with_switches(args, CACHE_SWITCHES) else {
        return 2;
    };
    apply_cache_flags(&flags);
    let Some(old_path) = flags.required("old") else {
        return 2;
    };
    let Some(new_path) = flags.required("new") else {
        return 2;
    };
    let Some(show) = flags.get_or("show", 10usize) else {
        return 2;
    };
    let Some(threads) = flags.get_or("threads", Parallelism::auto()) else {
        return 2;
    };

    let cfg = InferenceConfig {
        parallelism: threads,
        ..Default::default()
    };
    let Some(old) = rels_from(old_path, &cfg) else {
        return 1;
    };
    let Some(new) = rels_from(new_path, &cfg) else {
        return 1;
    };

    let d = diff_relationships(&old, &new);
    println!(
        "links: {} → {}   unchanged {}   added {}   removed {}   changed {}   stability {:.1}%",
        old.len(),
        new.len(),
        d.unchanged,
        d.added.len(),
        d.removed.len(),
        d.changed.len(),
        100.0 * d.stability(),
    );
    if !d.changed.is_empty() {
        println!("\nchanged (first {show}):");
        for c in d.changed.iter().take(show) {
            println!("  {}: {:?} → {:?}", c.link, c.before, c.after);
        }
    }
    if !d.added.is_empty() {
        println!("\nadded (first {show}):");
        for (l, r) in d.added.iter().take(show) {
            println!("  {l}: {r:?}");
        }
    }
    if !d.removed.is_empty() {
        println!("\nremoved (first {show}):");
        for (l, r) in d.removed.iter().take(show) {
            println!("  {l}: {r:?}");
        }
    }
    0
}
