//! Scoring inferences: PPV against corpora and against ground truth.

use crate::sources::{ValidationCorpus, ValidationSource};
use asrank_types::prelude::*;
use std::collections::HashMap;

/// PPV of an inference against one validation source, split by
/// relationship kind — the layout of the paper's headline table.
#[derive(Debug, Clone, Copy)]
pub struct SourcePpv {
    /// The corpus source.
    pub source: ValidationSource,
    /// (correct, total) over assertions the source labels c2p.
    pub c2p: (usize, usize),
    /// (correct, total) over assertions the source labels p2p.
    pub p2p: (usize, usize),
    /// Assertions whose link the inference never classified.
    pub unobserved: usize,
}

impl SourcePpv {
    /// c2p PPV (1.0 when the source asserts no c2p links).
    pub fn c2p_ppv(&self) -> f64 {
        if self.c2p.1 == 0 {
            1.0
        } else {
            self.c2p.0 as f64 / self.c2p.1 as f64
        }
    }

    /// p2p PPV (1.0 when the source asserts no p2p links).
    pub fn p2p_ppv(&self) -> f64 {
        if self.p2p.1 == 0 {
            1.0
        } else {
            self.p2p.0 as f64 / self.p2p.1 as f64
        }
    }
}

/// Score an inference against each source of a corpus.
///
/// For every assertion whose link the inference classified, the
/// assertion's kind picks the bucket (as in the paper: "of the links the
/// corpus says are c2p, how many did we match?").
pub fn evaluate_against_corpus(
    inferred: &RelationshipMap,
    corpus: &ValidationCorpus,
) -> Vec<SourcePpv> {
    [
        ValidationSource::DirectReport,
        ValidationSource::Rpsl,
        ValidationSource::Communities,
    ]
    .into_iter()
    .map(|source| {
        let mut row = SourcePpv {
            source,
            c2p: (0, 0),
            p2p: (0, 0),
            unobserved: 0,
        };
        for a in corpus.from_source(source) {
            let Some(got) = inferred.get(a.link.a, a.link.b) else {
                row.unobserved += 1;
                continue;
            };
            match a.rel.kind() {
                RelationshipKind::C2p => {
                    row.c2p.1 += 1;
                    if got == a.rel {
                        row.c2p.0 += 1;
                    }
                }
                RelationshipKind::P2p => {
                    row.p2p.1 += 1;
                    if got.kind() == RelationshipKind::P2p {
                        row.p2p.0 += 1;
                    }
                }
                RelationshipKind::S2s => {}
            }
        }
        row
    })
    .collect()
}

/// Full-ground-truth scoring — what the paper could not do.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroundTruthReport {
    /// (correct, total) over inferred c2p links that exist in the truth.
    pub c2p: (usize, usize),
    /// (correct, total) over inferred p2p links that exist in the truth.
    pub p2p: (usize, usize),
    /// Inferred links absent from the ground truth (artifact links).
    pub phantom_links: usize,
    /// True links never observed/classified (visibility gap).
    pub missed_links: usize,
    /// Confusion matrix: `confusion[truth][inferred]` over kinds
    /// (0 = c2p-correct-orientation, 1 = c2p-wrong-orientation,
    /// handled separately) — row/col order: c2p, p2p, s2s.
    pub confusion: [[usize; 3]; 3],
    /// Inferred c2p links whose orientation is reversed.
    pub reversed_c2p: usize,
}

impl GroundTruthReport {
    /// c2p PPV.
    pub fn c2p_ppv(&self) -> f64 {
        if self.c2p.1 == 0 {
            1.0
        } else {
            self.c2p.0 as f64 / self.c2p.1 as f64
        }
    }

    /// p2p PPV.
    pub fn p2p_ppv(&self) -> f64 {
        if self.p2p.1 == 0 {
            1.0
        } else {
            self.p2p.0 as f64 / self.p2p.1 as f64
        }
    }

    /// Fraction of true links the inference covered.
    pub fn coverage(&self) -> f64 {
        let classified = self.c2p.1 + self.p2p.1;
        let total = classified + self.missed_links;
        if total == 0 {
            1.0
        } else {
            classified as f64 / total as f64
        }
    }
}

fn kind_index(k: RelationshipKind) -> usize {
    match k {
        RelationshipKind::C2p => 0,
        RelationshipKind::P2p => 1,
        RelationshipKind::S2s => 2,
    }
}

/// Score an inference against complete ground truth.
pub fn evaluate_against_truth(
    inferred: &RelationshipMap,
    truth: &RelationshipMap,
) -> GroundTruthReport {
    let mut report = GroundTruthReport::default();
    for (link, got) in inferred.iter() {
        let Some(want) = truth.get(link.a, link.b) else {
            report.phantom_links += 1;
            continue;
        };
        report.confusion[kind_index(want.kind())][kind_index(got.kind())] += 1;
        match got.kind() {
            RelationshipKind::C2p => {
                report.c2p.1 += 1;
                if got == want {
                    report.c2p.0 += 1;
                } else if want.kind() == RelationshipKind::C2p {
                    report.reversed_c2p += 1;
                }
            }
            RelationshipKind::P2p => {
                report.p2p.1 += 1;
                if want.kind() == RelationshipKind::P2p {
                    report.p2p.0 += 1;
                }
            }
            RelationshipKind::S2s => {}
        }
    }
    for (link, _) in truth.iter() {
        if inferred.get(link.a, link.b).is_none() {
            report.missed_links += 1;
        }
    }
    report
}

/// PPV broken down by the structural classes of a link's endpoints —
/// where do the errors live? (The paper's error analysis localizes
/// mistakes near the edge and at peering-dense networks.)
pub fn ppv_by_class(
    inferred: &RelationshipMap,
    truth: &RelationshipMap,
    classes: &HashMap<Asn, AsClass>,
) -> Vec<(String, usize, usize)> {
    // (bucket label, correct, total), sorted by label.
    let mut buckets: HashMap<String, (usize, usize)> = HashMap::new();
    let label = |a: Asn, b: Asn| -> String {
        let name = |x: Asn| match classes.get(&x) {
            Some(AsClass::Tier1) => "tier1",
            Some(AsClass::LargeTransit) => "large",
            Some(AsClass::MidTransit) => "mid",
            Some(AsClass::SmallTransit) => "small",
            Some(AsClass::Content) => "content",
            Some(AsClass::Stub) => "stub",
            Some(AsClass::IxpRouteServer) => "ixp",
            None => "?",
        };
        let (mut x, mut y) = (name(a), name(b));
        if x > y {
            std::mem::swap(&mut x, &mut y);
        }
        format!("{x}-{y}")
    };
    for (link, got) in inferred.iter() {
        let Some(want) = truth.get(link.a, link.b) else {
            continue;
        };
        let correct = match want.kind() {
            RelationshipKind::C2p => got == want,
            _ => got.kind() == want.kind(),
        };
        let e = buckets.entry(label(link.a, link.b)).or_default();
        e.1 += 1;
        if correct {
            e.0 += 1;
        }
    }
    let mut out: Vec<(String, usize, usize)> =
        buckets.into_iter().map(|(k, (c, t))| (k, c, t)).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::Assertion;

    fn truth() -> RelationshipMap {
        let mut t = RelationshipMap::new();
        t.insert_c2p(Asn(10), Asn(1));
        t.insert_c2p(Asn(20), Asn(1));
        t.insert_p2p(Asn(1), Asn(2));
        t.insert_p2p(Asn(10), Asn(20));
        t
    }

    #[test]
    fn ground_truth_scoring() {
        let t = truth();
        let mut inf = RelationshipMap::new();
        inf.insert_c2p(Asn(10), Asn(1)); // correct
        inf.insert_c2p(Asn(1), Asn(20)); // reversed orientation
        inf.insert_c2p(Asn(1), Asn(2)); // wrong kind (true p2p)
        inf.insert_p2p(Asn(10), Asn(20)); // correct
        inf.insert_p2p(Asn(5), Asn(6)); // phantom

        let r = evaluate_against_truth(&inf, &t);
        assert_eq!(r.c2p, (1, 3));
        assert_eq!(r.reversed_c2p, 1);
        assert_eq!(r.p2p, (1, 1));
        assert_eq!(r.phantom_links, 1);
        assert_eq!(r.missed_links, 0);
        assert!((r.c2p_ppv() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.p2p_ppv() - 1.0).abs() < 1e-12);
        assert!((r.coverage() - 1.0).abs() < 1e-12);
        // Confusion: truth c2p inferred c2p twice (one reversed),
        // truth p2p inferred c2p once, truth p2p inferred p2p once.
        assert_eq!(r.confusion[0][0], 2);
        assert_eq!(r.confusion[1][0], 1);
        assert_eq!(r.confusion[1][1], 1);
    }

    #[test]
    fn missed_links_lower_coverage() {
        let t = truth();
        let mut inf = RelationshipMap::new();
        inf.insert_c2p(Asn(10), Asn(1));
        let r = evaluate_against_truth(&inf, &t);
        assert_eq!(r.missed_links, 3);
        assert!((r.coverage() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn corpus_scoring_groups_by_source() {
        let t = truth();
        let corpus = ValidationCorpus {
            assertions: vec![
                Assertion {
                    link: AsLink::new(Asn(10), Asn(1)),
                    rel: t.get(Asn(10), Asn(1)).unwrap(),
                    source: ValidationSource::DirectReport,
                },
                Assertion {
                    link: AsLink::new(Asn(1), Asn(2)),
                    rel: t.get(Asn(1), Asn(2)).unwrap(),
                    source: ValidationSource::Communities,
                },
                Assertion {
                    link: AsLink::new(Asn(7), Asn(8)), // never inferred
                    rel: LinkRel::P2p,
                    source: ValidationSource::Rpsl,
                },
            ],
        };
        let mut inf = RelationshipMap::new();
        inf.insert_c2p(Asn(10), Asn(1));
        inf.insert_p2p(Asn(1), Asn(2));

        let rows = evaluate_against_corpus(&inf, &corpus);
        let direct = rows
            .iter()
            .find(|r| r.source == ValidationSource::DirectReport)
            .unwrap();
        assert_eq!(direct.c2p, (1, 1));
        assert!((direct.c2p_ppv() - 1.0).abs() < 1e-12);
        let comm = rows
            .iter()
            .find(|r| r.source == ValidationSource::Communities)
            .unwrap();
        assert_eq!(comm.p2p, (1, 1));
        let rpsl = rows
            .iter()
            .find(|r| r.source == ValidationSource::Rpsl)
            .unwrap();
        assert_eq!(rpsl.unobserved, 1);
        assert!((rpsl.p2p_ppv() - 1.0).abs() < 1e-12, "empty bucket = 1.0");
    }

    #[test]
    fn class_breakdown_buckets_symmetrically() {
        let t = truth();
        let mut inf = RelationshipMap::new();
        inf.insert_c2p(Asn(10), Asn(1)); // correct
        inf.insert_c2p(Asn(1), Asn(2)); // wrong kind
        let mut classes = HashMap::new();
        classes.insert(Asn(1), AsClass::Tier1);
        classes.insert(Asn(2), AsClass::Tier1);
        classes.insert(Asn(10), AsClass::Stub);
        let rows = ppv_by_class(&inf, &t, &classes);
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&("stub-tier1".to_string(), 1, 1)));
        assert!(rows.contains(&("tier1-tier1".to_string(), 0, 1)));
    }
}
