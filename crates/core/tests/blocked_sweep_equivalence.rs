//! Property tests pinning the cache-blocked cone sweep to the full-width
//! unblocked sweep: for random topologies, every forced block width
//! (including degenerate 1-id blocks and widths larger than the id
//! space), and both thread budgets, the blocked merge must produce
//! element-identical cones — and, one level down, the blocked pair
//! merge must produce the bit-identical sorted pair list. The block
//! width is a cache-layout knob exactly like the thread count: it must
//! never be observable in any output.

use asrank_core::cone::{bgp_raw_sweep_pairs, merge_sweep_pairs_blocked, merge_sweep_pairs_unblocked};
use asrank_core::{sanitize, CustomerCones, PathArena, SanitizeConfig, SanitizedPaths};
use asrank_types::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Forced owner-block widths the sweep must be invariant over: 0 is
/// the automatic cache-sized width, 1 makes every owner its own block,
/// 3/17 force ragged boundaries, 256 typically covers the whole small
/// universe in one block (the unblocked fast path).
const BLOCK_WIDTHS: [usize; 5] = [0, 1, 3, 17, 256];

/// A width no id space reaches: it clamps to one full-width block, so
/// the merge falls through to `merge_sweep_pairs_unblocked` — the
/// unblocked sweep every forced width is compared against.
const FULL_WIDTH: usize = usize::MAX;

/// Random raw path sets over a small ASN universe (same shape as
/// `cone_equivalence.rs`, the unblocked sweep's own oracle suite).
fn paths_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(1u32..40, 2..6), 1..40)
}

/// Random mixed relationship edges: `(x, y, peer?)` — p2p when the
/// flag is set, c2p (x customer of y) otherwise.
fn mixed_edges_strategy() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    proptest::collection::vec((1u32..40, 1u32..40, any::<bool>()), 0..80)
}

fn sanitized_from(paths: &[Vec<u32>]) -> SanitizedPaths {
    let ps: PathSet = paths
        .iter()
        .enumerate()
        .map(|(i, p)| PathSample {
            vp: Asn(p[0]),
            prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
            path: AsPath::from_u32s(p.iter().copied()),
        })
        .collect();
    sanitize(&ps, &SanitizeConfig::default())
}

fn mixed_rels(edges: &[(u32, u32, bool)]) -> RelationshipMap {
    let mut rels = RelationshipMap::new();
    for &(x, y, peer) in edges {
        if x == y {
            continue;
        }
        if peer {
            rels.insert_p2p(Asn(x), Asn(y));
        } else {
            rels.insert_c2p(Asn(x), Asn(y));
        }
    }
    rels
}

/// Deterministic prefix table over a subset of the ASes, so weighted
/// cone sizes are part of the equivalence check too.
fn prefixes_for(edges: &[(u32, u32, bool)]) -> HashMap<Asn, Vec<Ipv4Prefix>> {
    let mut table: HashMap<Asn, Vec<Ipv4Prefix>> = HashMap::new();
    for &(x, y, _) in edges {
        for a in [x, y] {
            if a % 3 == 0 {
                table.entry(Asn(a)).or_insert_with(|| {
                    (0..a % 5)
                        .map(|i| Ipv4Prefix::new((a << 16) | (i << 8), 24).unwrap())
                        .collect()
                });
            }
        }
    }
    table
}

fn assert_same_cones(
    blocked: &CustomerCones,
    unblocked: &CustomerCones,
    block: usize,
    par: Parallelism,
) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(
        blocked.len(),
        unblocked.len(),
        "cone count differs at block {} {:?}",
        block,
        par
    );
    for asn in unblocked.ases() {
        prop_assert_eq!(
            blocked.members(asn),
            unblocked.members(asn),
            "members of {} differ at block {} {:?}",
            asn,
            block,
            par
        );
        prop_assert_eq!(
            blocked.size(asn),
            unblocked.size(asn),
            "size of {} differs at block {} {:?}",
            asn,
            block,
            par
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn blocked_bgp_observed_matches_unblocked(
        paths in paths_strategy(),
        edges in mixed_edges_strategy(),
    ) {
        let sanitized = sanitized_from(&paths);
        let rels = mixed_rels(&edges);
        let prefixes = prefixes_for(&edges);
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let arena = PathArena::build_with(&sanitized, par);
            let unblocked = CustomerCones::bgp_observed_from_arena_with_block(
                &arena, &rels, Some(&prefixes), par, FULL_WIDTH,
            );
            for block in BLOCK_WIDTHS {
                let blocked = CustomerCones::bgp_observed_from_arena_with_block(
                    &arena, &rels, Some(&prefixes), par, block,
                );
                assert_same_cones(&blocked, &unblocked, block, par)?;
            }
        }
    }

    #[test]
    fn blocked_provider_peer_matches_unblocked(
        paths in paths_strategy(),
        edges in mixed_edges_strategy(),
    ) {
        let sanitized = sanitized_from(&paths);
        let rels = mixed_rels(&edges);
        let prefixes = prefixes_for(&edges);
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let arena = PathArena::build_with(&sanitized, par);
            let unblocked = CustomerCones::provider_peer_observed_from_arena_with_block(
                &arena, &rels, Some(&prefixes), par, FULL_WIDTH,
            );
            for block in BLOCK_WIDTHS {
                let blocked = CustomerCones::provider_peer_observed_from_arena_with_block(
                    &arena, &rels, Some(&prefixes), par, block,
                );
                assert_same_cones(&blocked, &unblocked, block, par)?;
            }
        }
    }

    #[test]
    fn blocked_pair_merge_is_bit_identical(
        paths in paths_strategy(),
        edges in mixed_edges_strategy(),
    ) {
        // One level below the cones: the merged pair lists themselves
        // must be bit-identical, not merely materialize to equal sets.
        let sanitized = sanitized_from(&paths);
        let rels = mixed_rels(&edges);
        let arena = PathArena::build_with(&sanitized, Parallelism::sequential());
        let raw = bgp_raw_sweep_pairs(&arena, &rels, Parallelism::sequential());
        let reference = merge_sweep_pairs_unblocked(&raw, arena.num_ases());
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            for block in BLOCK_WIDTHS {
                let merged = merge_sweep_pairs_blocked(&raw, arena.num_ases(), block, par);
                prop_assert_eq!(
                    &merged,
                    &reference,
                    "merged pairs differ at block {} {:?}",
                    block,
                    par
                );
            }
        }
    }
}
