//! Property test pinning the cache-blocked pair merge to its definition:
//! for random packed `(owner << 32) | member` pairs, every forced block
//! width (the automatic width, 1-id blocks, ragged widths, and a width
//! covering every owner) and both thread budgets, the merge must return
//! exactly the input sorted and deduplicated. The block width is a
//! cache-layout choice exactly like the thread count: it must never be
//! observable in the output.
//!
//! The observed cones are a pure function of the merged pairs, and
//! `cone_equivalence.rs` checks both observed cones against their
//! reference engines, so pinning the merge here covers the cones at
//! every width.

use asrank_core::cone::merge_sweep_pairs_blocked;
use asrank_types::prelude::*;
use proptest::prelude::*;

/// Block widths the merge must be invariant over: 0 is the automatic
/// cache-sized width, 1 makes every owner its own block, 3/17 are
/// rounded up to 4/32, 256 leaves few blocks, and `usize::MAX` runs
/// the single full-width merge.
const BLOCK_WIDTHS: [usize; 6] = [0, 1, 3, 17, 256, usize::MAX];

/// Pack drawn `(owner, member, pick)` triples into pairs over `n` ids,
/// reduced modulo `n`. Without `pool` every triple is its own pair;
/// with it, the first `pool` triples form a small pool that every pair
/// is drawn from, so the input is duplicate-heavy.
fn raw_pairs(n: usize, draws: &[(u32, u32, u32)], pool: Option<usize>) -> Vec<u64> {
    let n = n as u64;
    let pack = |&(o, m, _): &(u32, u32, u32)| (u64::from(o) % n) << 32 | (u64::from(m) % n);
    let Some(pool) = pool else {
        return draws.iter().map(pack).collect();
    };
    let pool: Vec<u64> = draws.iter().take(pool).map(pack).collect();
    draws
        .iter()
        .map(|&(_, _, pick)| pool[pick as usize % pool.len()])
        .collect()
}

proptest! {
    #[test]
    fn blocked_merge_is_sort_dedup(
        n in 1usize..=3000,
        draws in prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..=4000),
        duplicate_heavy in any::<bool>(),
        pool in 1usize..=16,
    ) {
        let pool = duplicate_heavy.then_some(pool);
        let raw = raw_pairs(n, &draws, pool);
        let mut expected = raw.clone();
        expected.sort_unstable();
        expected.dedup();
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            for block in BLOCK_WIDTHS {
                let merged = merge_sweep_pairs_blocked(&raw, n, block, par);
                prop_assert_eq!(
                    &merged,
                    &expected,
                    "merge differs at n {} block {} {:?} ({} raw pairs, pool {:?})",
                    n,
                    block,
                    par,
                    raw.len(),
                    pool
                );
            }
        }
    }
}
