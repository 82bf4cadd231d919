//! AS Rank — ordering ASes by customer cone size.
//!
//! The paper's public artifact (as-rank.caida.org) orders ASes by the
//! size of their customer cone: the AS whose cone contains the most ASes
//! is rank 1. Ties break by transit degree, then by lower ASN, matching
//! the published ranking's behavior of preferring the structurally larger
//! network.

use crate::cone::{ConeSize, CustomerCones};
use crate::degree::DegreeTable;
use asrank_types::Asn;
use serde::{Deserialize, Serialize};

/// One row of the AS ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankedAs {
    /// 1-based rank (1 = largest cone).
    pub rank: usize,
    /// The AS.
    pub asn: Asn,
    /// Its customer cone size.
    pub cone: ConeSize,
    /// Its transit degree.
    pub transit_degree: usize,
}

/// Rank every AS by customer cone size (descending), tie-breaking by
/// transit degree (descending) then ASN (ascending).
pub fn rank_ases(cones: &CustomerCones, degrees: &DegreeTable) -> Vec<RankedAs> {
    let mut rows: Vec<RankedAs> = cones
        .iter_sizes()
        .map(|(asn, cone)| RankedAs {
            rank: 0,
            asn,
            cone,
            transit_degree: degrees.transit_degree(asn),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.cone
            .ases
            .cmp(&a.cone.ases)
            .then_with(|| b.transit_degree.cmp(&a.transit_degree))
            .then_with(|| a.asn.cmp(&b.asn))
    });
    for (i, row) in rows.iter_mut().enumerate() {
        row.rank = i + 1;
    }
    rows
}

/// Spearman rank correlation between two orderings of the same ASes.
///
/// Used by the transit-degree-vs-cone experiment: the paper observes the
/// two are strongly but not perfectly correlated.
pub fn spearman(xs: &[(Asn, f64)], ys: &[(Asn, f64)]) -> Option<f64> {
    use std::collections::HashMap;
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let rank_map = |vals: &[(Asn, f64)]| -> HashMap<Asn, f64> {
        let mut sorted: Vec<&(Asn, f64)> = vals.iter().collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        // Average ranks for ties.
        let mut out = HashMap::new();
        let mut i = 0;
        while i < sorted.len() {
            let mut j = i;
            while j + 1 < sorted.len() && sorted[j + 1].1 == sorted[i].1 {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for item in &sorted[i..=j] {
                out.insert(item.0, avg);
            }
            i = j + 1;
        }
        out
    };
    let rx = rank_map(xs);
    let ry = rank_map(ys);
    let n = xs.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let (mut cov, mut vx, mut vy) = (0.0, 0.0, 0.0);
    for (asn, _) in xs {
        let a = rx[asn] - mean;
        let b = *ry.get(asn)? - mean;
        cov += a * b;
        vx += a * a;
        vy += b * b;
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx.sqrt() * vy.sqrt()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::{Parallelism, RelationshipMap};

    fn setup() -> (CustomerCones, DegreeTable) {
        let mut r = RelationshipMap::new();
        r.insert_c2p(Asn(10), Asn(1));
        r.insert_c2p(Asn(11), Asn(1));
        r.insert_c2p(Asn(20), Asn(2));
        let cones = CustomerCones::recursive(&r, None, Parallelism::auto());
        (cones, DegreeTable::default())
    }

    #[test]
    fn ranks_by_cone_size() {
        let (cones, degrees) = setup();
        let rows = rank_ases(&cones, &degrees);
        assert_eq!(rows[0].asn, Asn(1));
        assert_eq!(rows[0].rank, 1);
        assert_eq!(rows[0].cone.ases, 3);
        assert_eq!(rows[1].asn, Asn(2));
        // Stub ties (cone size 1) broken by ASN.
        let stub_order: Vec<Asn> = rows[2..].iter().map(|r| r.asn).collect();
        assert_eq!(stub_order, vec![Asn(10), Asn(11), Asn(20)]);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let xs: Vec<(Asn, f64)> = (1..=5).map(|i| (Asn(i), i as f64)).collect();
        let ys = xs.clone();
        assert!((spearman(&xs, &ys).unwrap() - 1.0).abs() < 1e-9);
        let inv: Vec<(Asn, f64)> = (1..=5).map(|i| (Asn(i), -(i as f64))).collect();
        assert!((spearman(&xs, &inv).unwrap() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_handles_ties_and_degenerate() {
        let xs: Vec<(Asn, f64)> = vec![(Asn(1), 1.0), (Asn(2), 1.0), (Asn(3), 2.0)];
        let ys: Vec<(Asn, f64)> = vec![(Asn(1), 5.0), (Asn(2), 5.0), (Asn(3), 9.0)];
        let rho = spearman(&xs, &ys).unwrap();
        assert!(
            (rho - 1.0).abs() < 1e-9,
            "tied pairs, same order: rho={rho}"
        );
        // All-equal values have zero variance → undefined.
        let flat: Vec<(Asn, f64)> = vec![(Asn(1), 1.0), (Asn(2), 1.0)];
        assert!(spearman(&flat, &flat).is_none());
        assert!(spearman(&xs[..1], &ys[..1]).is_none());
    }
}
