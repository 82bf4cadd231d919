//! Statistical significance for algorithm comparisons.
//!
//! "ASRank beats Gao" needs more than two percentages: on the *same* set
//! of links, the exact sign test (McNemar without the normal
//! approximation) asks whether the discordant links — those one
//! algorithm gets right and the other wrong — split asymmetrically
//! enough to rule out chance. This is the right test because both
//! algorithms are evaluated on identical items.

use asrank_types::prelude::*;

/// Result of a paired comparison of two relationship inferences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedComparison {
    /// Links only algorithm A got right.
    pub a_only: usize,
    /// Links only algorithm B got right.
    pub b_only: usize,
    /// Links both got right.
    pub both: usize,
    /// Links neither got right.
    pub neither: usize,
    /// Two-sided exact sign-test p-value over the discordant pairs.
    pub p_value: f64,
}

impl PairedComparison {
    /// Total links compared.
    pub fn total(&self) -> usize {
        self.a_only + self.b_only + self.both + self.neither
    }
}

/// Exact two-sided binomial sign test: probability of a split at least
/// this extreme among `n = a + b` discordant pairs under p = ½.
///
/// Computed in log space so hundreds of discordant pairs don't overflow.
pub fn sign_test(a: usize, b: usize) -> f64 {
    let n = a + b;
    if n == 0 {
        return 1.0;
    }
    let k = a.min(b);
    // P(X <= k) for X ~ Binomial(n, 1/2), then doubled (two-sided).
    let ln_choose = |n: usize, k: usize| -> f64 {
        // ln C(n, k) via lgamma-free accumulation.
        let mut s = 0.0f64;
        for i in 0..k {
            s += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
        }
        s
    };
    let ln_half_n = -(n as f64) * std::f64::consts::LN_2;
    let mut tail = 0.0f64;
    for i in 0..=k {
        tail += (ln_choose(n, i) + ln_half_n).exp();
    }
    (2.0 * tail).min(1.0)
}

/// Compare two inferences link-by-link against ground truth, over the
/// links *both* classified (the paper's comparisons are restricted to
/// common coverage too).
pub fn paired_comparison(
    a: &RelationshipMap,
    b: &RelationshipMap,
    truth: &RelationshipMap,
) -> PairedComparison {
    let (mut a_only, mut b_only, mut both, mut neither) = (0, 0, 0, 0);
    for (link, want) in truth.iter() {
        let (Some(ga), Some(gb)) = (a.get(link.a, link.b), b.get(link.a, link.b)) else {
            continue;
        };
        // Kind-level correctness with exact orientation for c2p.
        let right = |got: LinkRel| match want.kind() {
            RelationshipKind::C2p => got == want,
            _ => got.kind() == want.kind(),
        };
        match (right(ga), right(gb)) {
            (true, true) => both += 1,
            (true, false) => a_only += 1,
            (false, true) => b_only += 1,
            (false, false) => neither += 1,
        }
    }
    PairedComparison {
        a_only,
        b_only,
        both,
        neither,
        p_value: sign_test(a_only, b_only),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_test_extremes() {
        assert!((sign_test(0, 0) - 1.0).abs() < 1e-12);
        assert!((sign_test(5, 5) - 1.0).abs() < 0.3, "balanced ≈ 1");
        assert!(sign_test(30, 0) < 1e-6, "one-sided split is significant");
        // Symmetry.
        assert!((sign_test(20, 5) - sign_test(5, 20)).abs() < 1e-12);
    }

    #[test]
    fn sign_test_known_value() {
        // n=10, k=2: P(X<=2) = (1+10+45)/1024 = 0.0546875 → two-sided
        // 0.109375.
        assert!((sign_test(2, 8) - 0.109375).abs() < 1e-9);
    }

    #[test]
    fn paired_comparison_counts() {
        let mut truth = RelationshipMap::new();
        truth.insert_c2p(Asn(1), Asn(2));
        truth.insert_c2p(Asn(3), Asn(4));
        truth.insert_p2p(Asn(5), Asn(6));
        truth.insert_p2p(Asn(7), Asn(8)); // b never classifies this

        let mut a = RelationshipMap::new();
        a.insert_c2p(Asn(1), Asn(2)); // right
        a.insert_c2p(Asn(3), Asn(4)); // right
        a.insert_c2p(Asn(5), Asn(6)); // wrong kind
        a.insert_p2p(Asn(7), Asn(8));

        let mut b = RelationshipMap::new();
        b.insert_c2p(Asn(1), Asn(2)); // right
        b.insert_c2p(Asn(4), Asn(3)); // reversed → wrong
        b.insert_p2p(Asn(5), Asn(6)); // right

        let c = paired_comparison(&a, &b, &truth);
        // Link (7,8) is not classified by b → excluded.
        assert_eq!(c.total(), 3);
        assert_eq!(c.both, 1);
        assert_eq!(c.a_only, 1);
        assert_eq!(c.b_only, 1);
        assert_eq!(c.neither, 0);
        assert!((c.p_value - 1.0).abs() < 1e-9, "1-1 split is chance");
    }

    #[test]
    fn lopsided_comparison_is_significant() {
        let mut truth = RelationshipMap::new();
        let mut a = RelationshipMap::new();
        let mut b = RelationshipMap::new();
        for i in 0..40u32 {
            let (c, p) = (Asn(100 + i), Asn(1));
            if c == p {
                continue;
            }
            truth.insert_c2p(c, p);
            a.insert_c2p(c, p); // a always right
            b.insert_p2p(c, p); // b always wrong
        }
        let c = paired_comparison(&a, &b, &truth);
        assert_eq!((c.a_only, c.b_only), (40, 0));
        assert!(c.p_value < 0.01, "p={}", c.p_value);
    }
}
