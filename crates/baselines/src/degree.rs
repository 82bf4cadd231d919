//! Naive degree heuristic — the floor every serious algorithm must beat.
//!
//! Classify each observed link by node degree alone: if the endpoint
//! degrees are within a tolerance factor, call it p2p; otherwise the
//! lower-degree AS is the customer. No path semantics at all, which is
//! exactly why it misclassifies content networks (high degree from
//! peering, yet customers of their transit providers).

use crate::{distinct_clean_paths, link_graph};
use asrank_types::prelude::*;

/// Endpoint degrees within this factor of each other make a link p2p. The
/// naive floor has no published parameter; a factor of two is the band
/// every comparison in this reproduction has run with.
const P2P_BAND: f64 = 2.0;

/// Run the degree heuristic.
pub fn degree_heuristic(paths: &PathSet) -> RelationshipMap {
    let (degree, links) = link_graph(&distinct_clean_paths(paths));
    let mut rels = RelationshipMap::new();
    for link in links {
        let (da, db) = (degree[&link.a] as f64, degree[&link.b] as f64);
        let ratio = (da / db).max(db / da);
        if ratio <= P2P_BAND {
            rels.insert_p2p(link.a, link.b);
        } else if da < db {
            rels.insert_c2p(link.a, link.b);
        } else {
            rels.insert_c2p(link.b, link.a);
        }
    }
    rels
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(raw: &[&[u32]]) -> PathSet {
        raw.iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect()
    }

    #[test]
    fn lower_degree_is_customer() {
        // 1 has degree 6; 10 has degree 2 — well outside the p2p band.
        let rels = degree_heuristic(&ps(&[&[100, 10, 1, 20], &[30, 1, 40], &[50, 1, 60]]));
        assert!(rels.is_c2p(Asn(10), Asn(1)), "{rels:?}");
    }

    #[test]
    fn similar_degrees_are_p2p() {
        let rels = degree_heuristic(&ps(&[&[100, 1, 2, 200]]));
        assert!(rels.is_p2p(Asn(1), Asn(2)));
    }

    #[test]
    fn band_is_a_factor_of_two() {
        // deg(1) = 4 is exactly twice deg(2) = 2: inside the band, p2p.
        // deg(3) = 5 is 2.5 × deg(4) = 2: outside it, 4 buys from 3.
        let rels = degree_heuristic(&ps(&[
            &[10, 2, 1, 11],
            &[12, 1, 13],
            &[20, 4, 3, 21],
            &[22, 3, 23],
            &[24, 3],
        ]));
        assert!(rels.is_p2p(Asn(1), Asn(2)), "{rels:?}");
        assert!(rels.is_c2p(Asn(4), Asn(3)), "{rels:?}");
    }
}
