//! Validation-source emulators.
//!
//! Each emulator reproduces the *generating process* of one of the
//! paper's corpora rather than its exact contents:
//!
//! * **Directly reported** — operators who answered CAIDA's call. Few
//!   networks, skewed toward engaged transit operators; near-perfect
//!   accuracy; reveals all of a reporter's links.
//! * **RPSL** — registry `import`/`export` objects. Registry culture
//!   concentrates in transit networks; objects go stale as businesses
//!   change, so a tunable fraction of assertions reflect an outdated
//!   relationship; c2p-heavy (policies describe one's providers).
//! * **BGP communities** — relationship-tagging communities observed in
//!   announcements, decoded via published community dictionaries. The
//!   largest corpus; only ASes that tag are covered; p2p-rich (peer
//!   tagging is the dominant convention); small decoding error.

use asrank_types::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// The three corpus sources of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValidationSource {
    /// Operator-reported relationships.
    DirectReport,
    /// Routing-registry (RPSL) policies.
    Rpsl,
    /// BGP community-derived relationships.
    Communities,
}

impl ValidationSource {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            ValidationSource::DirectReport => "direct",
            ValidationSource::Rpsl => "rpsl",
            ValidationSource::Communities => "communities",
        }
    }
}

/// One validation assertion: "the `a`–`b` link has this relationship,
/// according to `source`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assertion {
    /// The link.
    pub link: AsLink,
    /// The asserted relationship (canonical orientation).
    pub rel: LinkRel,
    /// Which corpus it came from.
    pub source: ValidationSource,
}

/// Each source's `(participation, error_rate, transit_bias,
/// p2p_inclusion)`, shaped like the paper's validation corpus (and the
/// sources of Dimitropoulos et al., *AS Relationships: Inference and
/// Validation*): a small accurate direct set, a stale c2p-heavy RPSL set,
/// and a large p2p-rich community set.
///
/// * `participation` — fraction of eligible ASes that contribute
///   assertions;
/// * `error_rate` — probability an assertion is wrong (stale object,
///   typo, decoding error); errors flip c2p↔p2p or reverse a c2p
///   orientation;
/// * `transit_bias` — extra selection weight for transit ASes (1.0 =
///   unbiased); the paper's sources all skew toward transit operators;
/// * `p2p_inclusion` — probability that a participant's *p2p* link is
///   asserted (c2p links always are), the c2p- or p2p-heaviness of each
///   corpus.
const SOURCES: [(ValidationSource, f64, f64, f64, f64); 3] = [
    // Operator reports: rare, accurate, balanced.
    (ValidationSource::DirectReport, 0.02, 0.002, 6.0, 1.0),
    // Registry data: moderately common among transit, stale.
    (ValidationSource::Rpsl, 0.15, 0.06, 3.0, 0.3),
    // Communities: common among transit, p2p-rich, accurate.
    (ValidationSource::Communities, 0.10, 0.01, 4.0, 1.0),
];

/// The emulated validation corpus.
#[derive(Debug, Clone, Default)]
pub struct ValidationCorpus {
    /// All assertions, across sources. A link may be asserted by several
    /// sources (the paper deduplicates per analysis; we keep all and let
    /// the metrics layer group by source).
    pub assertions: Vec<Assertion>,
}

impl ValidationCorpus {
    /// Assertions from one source.
    pub fn from_source(&self, source: ValidationSource) -> impl Iterator<Item = &Assertion> + '_ {
        self.assertions.iter().filter(move |a| a.source == source)
    }

    /// Count assertions by (source, kind): returns
    /// `(c2p, p2p, s2s)` for the given source.
    pub fn counts(&self, source: ValidationSource) -> (usize, usize, usize) {
        let mut out = (0, 0, 0);
        for a in self.from_source(source) {
            match a.rel.kind() {
                RelationshipKind::C2p => out.0 += 1,
                RelationshipKind::P2p => out.1 += 1,
                RelationshipKind::S2s => out.2 += 1,
            }
        }
        out
    }

    /// Total number of assertions.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// True when the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Fraction of corpus assertions that are wrong w.r.t. ground truth —
    /// the quantity the paper could only bound indirectly.
    pub fn corpus_error(&self, truth: &RelationshipMap) -> f64 {
        if self.assertions.is_empty() {
            return 0.0;
        }
        let wrong = self
            .assertions
            .iter()
            .filter(|a| truth.get(a.link.a, a.link.b) != Some(a.rel))
            .count();
        wrong as f64 / self.assertions.len() as f64
    }
}

/// Build an emulated validation corpus from ground truth; `seed` drives
/// all sampling.
pub fn build_corpus(gt: &GroundTruth, seed: u64) -> ValidationCorpus {
    let mut corpus = ValidationCorpus::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a11_da7a);
    let mut ases: Vec<(Asn, bool)> = gt
        .classes
        .iter()
        .map(|(&a, &c)| (a, c.is_transit()))
        .collect();
    ases.sort_by_key(|(a, _)| *a);
    let mut links: Vec<(AsLink, LinkRel)> = gt.relationships.iter().collect();
    links.sort_by_key(|(l, _)| (l.a, l.b));
    for (source, participation, error_rate, transit_bias, p2p_inclusion) in SOURCES {
        // Choose participants with transit bias.
        let mut participants: HashSet<Asn> = HashSet::new();
        for &(asn, transit) in &ases {
            let p = if transit {
                (participation * transit_bias).min(1.0)
            } else {
                participation
            };
            if rng.random_bool(p) {
                participants.insert(asn);
            }
        }

        // Each participant asserts its own links.
        for &(link, rel) in &links {
            if !participants.contains(&link.a) && !participants.contains(&link.b) {
                continue;
            }
            if rel.kind() == RelationshipKind::P2p && !rng.random_bool(p2p_inclusion) {
                continue;
            }
            let asserted = if rng.random_bool(error_rate) {
                corrupt(rel, &mut rng)
            } else {
                rel
            };
            corpus.assertions.push(Assertion {
                link,
                rel: asserted,
                source,
            });
        }
    }
    corpus
}

/// Produce a *wrong* assertion from a true relationship: flip kind or
/// reverse orientation.
fn corrupt(rel: LinkRel, rng: &mut StdRng) -> LinkRel {
    match rel {
        LinkRel::AC2pB => {
            if rng.random_bool(0.5) {
                LinkRel::P2p
            } else {
                LinkRel::AP2cB
            }
        }
        LinkRel::AP2cB => {
            if rng.random_bool(0.5) {
                LinkRel::P2p
            } else {
                LinkRel::AC2pB
            }
        }
        LinkRel::P2p => {
            if rng.random_bool(0.5) {
                LinkRel::AC2pB
            } else {
                LinkRel::AP2cB
            }
        }
        LinkRel::S2s => LinkRel::P2p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_topology_gen::{generate, TopologyConfig};

    fn topo() -> GroundTruth {
        generate(&TopologyConfig::small(), 5).ground_truth
    }

    #[test]
    fn corpus_respects_error_rates() {
        let gt = topo();
        let corpus = build_corpus(&gt, 1);
        assert!(!corpus.is_empty());

        // Direct reports should be nearly perfect; RPSL notably worse.
        let direct_err = error_of(&corpus, &gt, ValidationSource::DirectReport);
        let rpsl_err = error_of(&corpus, &gt, ValidationSource::Rpsl);
        assert!(direct_err < 0.02, "direct error {direct_err}");
        assert!(rpsl_err > 0.02, "rpsl error {rpsl_err}");
        assert!(rpsl_err < 0.15, "rpsl error {rpsl_err}");
    }

    fn error_of(c: &ValidationCorpus, gt: &GroundTruth, s: ValidationSource) -> f64 {
        let (mut wrong, mut total) = (0usize, 0usize);
        for a in c.from_source(s) {
            total += 1;
            if gt.relationships.get(a.link.a, a.link.b) != Some(a.rel) {
                wrong += 1;
            }
        }
        wrong as f64 / total.max(1) as f64
    }

    #[test]
    fn rpsl_is_c2p_heavy_communities_p2p_rich() {
        let gt = topo();
        let corpus = build_corpus(&gt, 2);
        let (rc2p, rp2p, _) = corpus.counts(ValidationSource::Rpsl);
        let (cc2p, cp2p, _) = corpus.counts(ValidationSource::Communities);
        let rpsl_p2p_share = rp2p as f64 / (rc2p + rp2p).max(1) as f64;
        let comm_p2p_share = cp2p as f64 / (cc2p + cp2p).max(1) as f64;
        assert!(
            comm_p2p_share > rpsl_p2p_share,
            "communities {comm_p2p_share} vs rpsl {rpsl_p2p_share}"
        );
    }

    #[test]
    fn direct_reports_are_the_smallest_corpus() {
        let gt = topo();
        let corpus = build_corpus(&gt, 3);
        let n = |s| corpus.from_source(s).count();
        assert!(n(ValidationSource::DirectReport) < n(ValidationSource::Rpsl));
        assert!(n(ValidationSource::DirectReport) < n(ValidationSource::Communities));
    }

    #[test]
    fn deterministic_for_seed() {
        let gt = topo();
        let a = build_corpus(&gt, 7);
        let b = build_corpus(&gt, 7);
        assert_eq!(a.assertions, b.assertions);
        let c = build_corpus(&gt, 8);
        assert_ne!(a.assertions, c.assertions);
    }

    #[test]
    fn corpus_error_matches_manual_count() {
        let gt = topo();
        let corpus = build_corpus(&gt, 9);
        let manual: f64 = {
            let wrong = corpus
                .assertions
                .iter()
                .filter(|a| gt.relationships.get(a.link.a, a.link.b) != Some(a.rel))
                .count();
            wrong as f64 / corpus.len() as f64
        };
        assert!((corpus.corpus_error(&gt.relationships) - manual).abs() < 1e-12);
    }

    #[test]
    fn corrupt_always_differs() {
        let mut rng = StdRng::seed_from_u64(0);
        for rel in [LinkRel::AC2pB, LinkRel::AP2cB, LinkRel::P2p, LinkRel::S2s] {
            for _ in 0..20 {
                assert_ne!(corrupt(rel, &mut rng), rel);
            }
        }
    }
}
