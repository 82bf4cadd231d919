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

/// Parameters of one emulated source.
#[derive(Debug, Clone, Copy)]
pub struct SourceConfig {
    /// Fraction of eligible ASes that contribute assertions.
    pub participation: f64,
    /// Probability an assertion is wrong (stale object, typo, decoding
    /// error). Errors flip c2p↔p2p or reverse a c2p orientation.
    pub error_rate: f64,
    /// Extra selection weight for transit ASes (1.0 = unbiased). The
    /// paper's sources all skew toward transit operators.
    pub transit_bias: f64,
    /// Probability that a participant's *p2p* link is asserted (c2p
    /// links are always asserted by participants) — models the c2p- or
    /// p2p-heaviness of each corpus.
    pub p2p_inclusion: f64,
}

/// Corpus-wide configuration with per-source parameters.
#[derive(Debug, Clone, Copy)]
pub struct CorpusConfig {
    /// Operator reports: rare, accurate, balanced.
    pub direct: SourceConfig,
    /// Registry data: moderately common among transit, stale.
    pub rpsl: SourceConfig,
    /// Communities: common among transit, p2p-rich, accurate.
    pub communities: SourceConfig,
    /// Seed for all sampling.
    pub seed: u64,
}

impl CorpusConfig {
    /// Defaults shaped like the paper's corpus: a small accurate direct
    /// set, a stale c2p-heavy RPSL set, and a large p2p-rich community
    /// set.
    pub fn paper_like(seed: u64) -> Self {
        CorpusConfig {
            direct: SourceConfig {
                participation: 0.02,
                error_rate: 0.002,
                transit_bias: 6.0,
                p2p_inclusion: 1.0,
            },
            rpsl: SourceConfig {
                participation: 0.15,
                error_rate: 0.06,
                transit_bias: 3.0,
                p2p_inclusion: 0.3,
            },
            communities: SourceConfig {
                participation: 0.10,
                error_rate: 0.01,
                transit_bias: 4.0,
                p2p_inclusion: 1.0,
            },
            seed,
        }
    }
}

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

/// Build an emulated validation corpus from ground truth.
pub fn build_corpus(gt: &GroundTruth, cfg: &CorpusConfig) -> ValidationCorpus {
    let mut corpus = ValidationCorpus::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0a11_da7a);
    for (source, sc) in [
        (ValidationSource::DirectReport, cfg.direct),
        (ValidationSource::Rpsl, cfg.rpsl),
        (ValidationSource::Communities, cfg.communities),
    ] {
        emulate_source(gt, source, &sc, &mut rng, &mut corpus);
    }
    corpus
}

fn emulate_source(
    gt: &GroundTruth,
    source: ValidationSource,
    sc: &SourceConfig,
    rng: &mut StdRng,
    corpus: &mut ValidationCorpus,
) {
    // Choose participants with transit bias.
    let mut ases: Vec<(Asn, bool)> = gt
        .classes
        .iter()
        .map(|(&a, &c)| (a, c.is_transit()))
        .collect();
    ases.sort_by_key(|(a, _)| *a);
    let mut participants: Vec<Asn> = Vec::new();
    for (asn, transit) in ases {
        let p = if transit {
            (sc.participation * sc.transit_bias).min(1.0)
        } else {
            sc.participation
        };
        if rng.random_bool(p) {
            participants.push(asn);
        }
    }
    let participant_set: std::collections::HashSet<Asn> = participants.iter().copied().collect();

    // Each participant asserts its own links.
    let mut links: Vec<(AsLink, LinkRel)> = gt.relationships.iter().collect();
    links.sort_by_key(|(l, _)| (l.a, l.b));
    for (link, rel) in links {
        if !participant_set.contains(&link.a) && !participant_set.contains(&link.b) {
            continue;
        }
        if rel.kind() == RelationshipKind::P2p && !rng.random_bool(sc.p2p_inclusion) {
            continue;
        }
        let asserted = if rng.random_bool(sc.error_rate) {
            corrupt(rel, rng)
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
        let cfg = CorpusConfig::paper_like(1);
        let corpus = build_corpus(&gt, &cfg);
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
        let corpus = build_corpus(&gt, &CorpusConfig::paper_like(2));
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
        let corpus = build_corpus(&gt, &CorpusConfig::paper_like(3));
        let n = |s| corpus.from_source(s).count();
        assert!(n(ValidationSource::DirectReport) < n(ValidationSource::Rpsl));
        assert!(n(ValidationSource::DirectReport) < n(ValidationSource::Communities));
    }

    #[test]
    fn deterministic_for_seed() {
        let gt = topo();
        let a = build_corpus(&gt, &CorpusConfig::paper_like(7));
        let b = build_corpus(&gt, &CorpusConfig::paper_like(7));
        assert_eq!(a.assertions, b.assertions);
        let c = build_corpus(&gt, &CorpusConfig::paper_like(8));
        assert_ne!(a.assertions, c.assertions);
    }

    #[test]
    fn corpus_error_matches_manual_count() {
        let gt = topo();
        let corpus = build_corpus(&gt, &CorpusConfig::paper_like(9));
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
