//! Valley-free checking.
//!
//! Under the Gao-Rexford model, every legitimate AS path read from the
//! vantage point toward the origin has the shape *uphill\* peer? downhill\**
//! (sibling hops are transparent). A path that violates this against a
//! relationship assignment indicates either a route leak or — when the
//! assignment is an inference — an inference error. The checker is used
//! by the simulator's tests, the pipeline's audit, and downstream
//! consumers who want to grade paths against an inference.

use crate::par;
use crate::patharena::PathArena;
use asrank_types::prelude::*;
use serde::{Deserialize, Serialize};

/// The verdict for one path against one relationship assignment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValleyVerdict {
    /// The path conforms to valley-free export rules.
    ValleyFree,
    /// A hop used a link the assignment does not classify.
    UnknownLink {
        /// Index of the offending hop (link from `i` to `i+1`).
        position: usize,
    },
    /// The path climbs (c2p) after having descended or peered.
    AscentAfterDescent {
        /// Index of the offending hop.
        position: usize,
    },
    /// The path crosses more than one peering link.
    SecondPeering {
        /// Index of the offending hop.
        position: usize,
    },
}

/// Check one path (VP first, origin last) against a relationship map.
///
/// ```
/// use asrank_core::valley::{check_valley_free, ValleyVerdict};
/// use asrank_types::{AsPath, Asn, RelationshipMap};
///
/// let mut rels = RelationshipMap::new();
/// rels.insert_c2p(Asn(10), Asn(1));
/// rels.insert_p2p(Asn(1), Asn(2));
/// rels.insert_c2p(Asn(20), Asn(2));
///
/// // VP 10 → provider 1 → peer 2 → customer 20: valley-free.
/// let ok = AsPath::from_u32s([10, 1, 2, 20]);
/// assert_eq!(check_valley_free(&ok, &rels), ValleyVerdict::ValleyFree);
///
/// // 1 → 2 (peer) → 20 (descend) → … climbing again would be a valley:
/// let leak = AsPath::from_u32s([2, 1, 10]); // wait — this one is fine too
/// assert_eq!(check_valley_free(&leak, &rels), ValleyVerdict::ValleyFree);
///
/// // 20 → 2 → 1 → 10: up to 2? no — 2 is 20's provider (up), 2–1 peer,
/// // 1–10 down: valley-free. A genuine valley needs up after down:
/// let valley = AsPath::from_u32s([10, 1, 2, 20, 2]);
/// assert_ne!(check_valley_free(&valley, &rels), ValleyVerdict::ValleyFree);
/// ```
pub fn check_valley_free(path: &AsPath, rels: &RelationshipMap) -> ValleyVerdict {
    // Phase 0: ascending. Phase 1: after the peak (peered or descended).
    let mut phase = 0u8;
    let mut peered = false;
    let hops = &path.compress_prepending().0;
    for (i, w) in hops.windows(2).enumerate() {
        let Some(orientation) = rels.orientation(w[0], w[1]) else {
            return ValleyVerdict::UnknownLink { position: i };
        };
        match orientation {
            Orientation::Sibling => {} // transparent
            Orientation::Provider => {
                // w[1] is w[0]'s provider: ascending.
                if phase == 1 {
                    return ValleyVerdict::AscentAfterDescent { position: i };
                }
            }
            Orientation::Peer => {
                if peered {
                    return ValleyVerdict::SecondPeering { position: i };
                }
                if phase == 1 {
                    return ValleyVerdict::AscentAfterDescent { position: i };
                }
                peered = true;
                phase = 1;
            }
            Orientation::Customer => {
                phase = 1;
            }
        }
    }
    ValleyVerdict::ValleyFree
}

/// Aggregated valley grades over every distinct path of a [`PathArena`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValleyStats {
    /// Distinct paths graded.
    pub total: usize,
    /// Paths crossing at least one link the assignment does not classify.
    pub unknown: usize,
    /// Paths violating valley-free export (ascent-after-descent or a
    /// second peering).
    pub valleys: usize,
    /// First `(path index, hop)` crossing an unknown link, in arena order.
    pub first_unknown: Option<(usize, usize)>,
    /// First `(path index, hop)` violating the valley rule, in arena order.
    pub first_valley: Option<(usize, usize)>,
}

/// Grade every distinct path of the arena against `rels` in one
/// parallel sweep. Worker shards grade contiguous path ranges and the
/// per-shard stats merge in shard order, so the totals *and* the
/// first-offender positions are identical for every thread count.
/// Arena paths are prepending-free by construction (the sanitizer
/// compresses before the arena dedups), so no recompression happens.
pub fn grade_arena(arena: &PathArena, rels: &RelationshipMap, par_cfg: Parallelism) -> ValleyStats {
    let interner = arena.interner();
    let chunked = par::map_ranges(par_cfg, 64, arena.len(), |range| {
        let mut s = ValleyStats::default();
        for p in range {
            s.total += 1;
            match check_valley_ids(arena.path(p), interner, rels) {
                ValleyVerdict::ValleyFree => {}
                ValleyVerdict::UnknownLink { position } => {
                    s.unknown += 1;
                    if s.first_unknown.is_none() {
                        s.first_unknown = Some((p, position));
                    }
                }
                ValleyVerdict::AscentAfterDescent { position }
                | ValleyVerdict::SecondPeering { position } => {
                    s.valleys += 1;
                    if s.first_valley.is_none() {
                        s.first_valley = Some((p, position));
                    }
                }
            }
        }
        s
    });
    let mut out = ValleyStats::default();
    for s in chunked {
        out.total += s.total;
        out.unknown += s.unknown;
        out.valleys += s.valleys;
        if out.first_unknown.is_none() {
            out.first_unknown = s.first_unknown;
        }
        if out.first_valley.is_none() {
            out.first_valley = s.first_valley;
        }
    }
    out
}

/// [`check_valley_free`] over dense-id hops (already prepending-free).
fn check_valley_ids(hops: &[u32], interner: &AsnInterner, rels: &RelationshipMap) -> ValleyVerdict {
    let mut phase = 0u8;
    let mut peered = false;
    for (i, w) in hops.windows(2).enumerate() {
        let (x, y) = (interner.resolve(w[0]), interner.resolve(w[1]));
        let Some(orientation) = rels.orientation(x, y) else {
            return ValleyVerdict::UnknownLink { position: i };
        };
        match orientation {
            Orientation::Sibling => {} // transparent
            Orientation::Provider => {
                if phase == 1 {
                    return ValleyVerdict::AscentAfterDescent { position: i };
                }
            }
            Orientation::Peer => {
                if peered {
                    return ValleyVerdict::SecondPeering { position: i };
                }
                if phase == 1 {
                    return ValleyVerdict::AscentAfterDescent { position: i };
                }
                peered = true;
                phase = 1;
            }
            Orientation::Customer => {
                phase = 1;
            }
        }
    }
    ValleyVerdict::ValleyFree
}

/// Fraction of paths in a set that are valley-free under `rels`
/// (unknown-link paths count as violations).
pub fn valley_free_fraction<'a, I>(paths: I, rels: &RelationshipMap) -> f64
where
    I: IntoIterator<Item = &'a AsPath>,
{
    let (mut ok, mut total) = (0usize, 0usize);
    for p in paths {
        total += 1;
        if check_valley_free(p, rels) == ValleyVerdict::ValleyFree {
            ok += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        ok as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rels() -> RelationshipMap {
        let mut r = RelationshipMap::new();
        r.insert_c2p(Asn(10), Asn(1));
        r.insert_c2p(Asn(20), Asn(2));
        r.insert_p2p(Asn(1), Asn(2));
        r.insert_c2p(Asn(100), Asn(10));
        r.insert_s2s(Asn(10), Asn(11));
        r
    }

    #[test]
    fn classic_shapes() {
        let r = rels();
        // up, peer, down.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([100, 10, 1, 2, 20]), &r),
            ValleyVerdict::ValleyFree
        );
        // pure descent.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([1, 10, 100]), &r),
            ValleyVerdict::ValleyFree
        );
        // pure ascent.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([100, 10, 1]), &r),
            ValleyVerdict::ValleyFree
        );
    }

    #[test]
    fn violations_detected() {
        let r = rels();
        // Descend then ascend: 1 → 10 (down) → 1? loop; use 2 → 20 → ...
        // build: 1 → 10 → 100 is down;  100 has no further link up other
        // than 10. Use peer-after-descent: 1 → 10 (down), 10 → 11 sibling
        // (ok), then 11 has no links. Simplest: down then up on same pair
        // family: [2, 20] down? 20 is 2's customer → down; then 20 has no
        // other links. Add one:
        let mut r2 = r.clone();
        r2.insert_c2p(Asn(20), Asn(3));
        let verdict = check_valley_free(&AsPath::from_u32s([2, 20, 3]), &r2);
        assert_eq!(verdict, ValleyVerdict::AscentAfterDescent { position: 1 });

        // Two peering links.
        let mut r3 = r.clone();
        r3.insert_p2p(Asn(2), Asn(3));
        let verdict = check_valley_free(&AsPath::from_u32s([1, 2, 3]), &r3);
        assert_eq!(verdict, ValleyVerdict::SecondPeering { position: 1 });

        // Unknown link.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([1, 999]), &r),
            ValleyVerdict::UnknownLink { position: 0 }
        );
    }

    #[test]
    fn siblings_are_transparent() {
        let r = rels();
        // descend 1 → 10, sibling 10 → 11: fine in phase 1.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([1, 10, 11]), &r),
            ValleyVerdict::ValleyFree
        );
    }

    #[test]
    fn prepending_ignored() {
        let r = rels();
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([100, 10, 10, 1]), &r),
            ValleyVerdict::ValleyFree
        );
    }

    #[test]
    fn degenerate_lengths_are_valley_free() {
        let r = rels();
        // Length-1 (origin only) and empty paths have no links to grade.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([100]), &r),
            ValleyVerdict::ValleyFree
        );
        assert_eq!(
            check_valley_free(&AsPath(Vec::new()), &r),
            ValleyVerdict::ValleyFree
        );
        // Length-2 paths grade the single link on its own.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([100, 10]), &r),
            ValleyVerdict::ValleyFree
        );
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([1, 2]), &r),
            ValleyVerdict::ValleyFree
        );
        // A length-1 path of full prepending compresses to length 1.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([100, 100, 100]), &r),
            ValleyVerdict::ValleyFree
        );
    }

    #[test]
    fn poisoned_paths_grade_on_link_shape_only() {
        // Loop poisoning (an AS appearing twice, non-adjacent) is the
        // sanitizer's job to remove; the valley checker only grades link
        // orientations. A poisoned path that climbs back up after
        // descending is still flagged as a valley…
        let r = rels();
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([1, 10, 1]), &r),
            ValleyVerdict::AscentAfterDescent { position: 1 }
        );
        // …while a looped path whose links are all legitimate passes,
        // documenting that loop detection must happen upstream.
        assert_eq!(
            check_valley_free(&AsPath::from_u32s([100, 10, 11, 10]), &r),
            ValleyVerdict::ValleyFree
        );
    }

    #[test]
    fn arena_grading_matches_per_path_checks() {
        use crate::sanitize::{sanitize, SanitizeConfig};
        let mut r = rels();
        r.insert_p2p(Asn(2), Asn(3));
        // A mix: valley-free, unknown-link, and a second-peering valley.
        let raw: Vec<&[u32]> = vec![
            &[100, 10, 1, 2, 20],
            &[1, 999],
            &[100, 10, 1],
            &[1, 2, 3],
        ];
        let ps: PathSet = raw
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect();
        let clean = sanitize(&ps, &SanitizeConfig::default());
        let arena = PathArena::build(&clean, Parallelism::auto());

        let stats = grade_arena(&arena, &r, Parallelism::sequential());
        assert_eq!(stats, grade_arena(&arena, &r, Parallelism::threads(4)));

        let mut expect = ValleyStats::default();
        for (p, path) in arena.distinct_aspaths().iter().enumerate() {
            expect.total += 1;
            match check_valley_free(path, &r) {
                ValleyVerdict::ValleyFree => {}
                ValleyVerdict::UnknownLink { position } => {
                    expect.unknown += 1;
                    if expect.first_unknown.is_none() {
                        expect.first_unknown = Some((p, position));
                    }
                }
                ValleyVerdict::AscentAfterDescent { position }
                | ValleyVerdict::SecondPeering { position } => {
                    expect.valleys += 1;
                    if expect.first_valley.is_none() {
                        expect.first_valley = Some((p, position));
                    }
                }
            }
        }
        assert_eq!(stats, expect);
        assert_eq!(stats.total, 4);
        assert_eq!(stats.unknown, 1);
        assert_eq!(stats.valleys, 1);
    }

    #[test]
    fn fraction() {
        let r = rels();
        let good = AsPath::from_u32s([100, 10, 1]);
        let bad = AsPath::from_u32s([1, 999]);
        let f = valley_free_fraction([&good, &bad], &r);
        assert!((f - 0.5).abs() < 1e-12);
        assert!((valley_free_fraction(std::iter::empty(), &r) - 1.0).abs() < 1e-12);
    }
}
