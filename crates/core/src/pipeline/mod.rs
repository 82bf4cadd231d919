//! Steps S4–S11 — the ASRank relationship-inference pipeline.
//!
//! [`infer`] wires the whole algorithm together: sanitize (S1), rank by
//! transit degree (S2), infer the clique (S3), then run the relationship
//! steps in [`steps`]. The output [`Inference`] carries the relationship
//! map plus everything needed to audit how each link was classified.

pub mod steps;

use crate::clique::infer_clique;
use crate::degree::DegreeTable;
use crate::sanitize::{sanitize_with, SanitizeConfig, SanitizeReport};
use asrank_types::prelude::*;
use asrank_types::EngineError;
use std::collections::HashSet;

/// Pipeline configuration: the inputs a deployment chooses. The
/// paper's own parameters are constants beside the steps that read them
/// ([`crate::clique::CLIQUE_CANDIDATES`], [`steps::VP_PROVIDER_SHARE`],
/// [`steps::DEGREE_FLIP_RATIO`]).
#[derive(Debug, Clone, Default)]
pub struct InferenceConfig {
    /// S1: sanitization (IXP ASN list).
    pub sanitize: SanitizeConfig,
    /// Thread budget for the fan-out stages (S1 sanitize, the path
    /// arena, the observed cones). The default (`auto`) uses all available cores;
    /// [`Parallelism::sequential`] runs single-threaded. Results are
    /// identical for every value.
    // lint: allow(fp-excluded, thread budget only — outputs are bit-identical for every value, so it must not invalidate cached artifacts)
    pub parallelism: Parallelism,
}

impl InferenceConfig {
    /// Defaults plus a known IXP route-server ASN list.
    pub fn with_ixps<I: IntoIterator<Item = Asn>>(ixps: I) -> Self {
        InferenceConfig {
            sanitize: SanitizeConfig::with_ixps(ixps),
            ..Default::default()
        }
    }
}

/// A step the reference pipeline can leave out ([`infer_monolithic`]),
/// so experiments measure what each one contributes. The others are not
/// optional: S1–S3 feed every step, S5 is the core inference, S10 and S11
/// complete and audit the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// S4: the poisoned-path discard.
    PoisonFilter,
    /// S6: VP-side provider inference.
    VpProviders,
    /// S7: the degree-anomaly repair.
    AnomalyRepair,
    /// S8: stub-to-clique links.
    StubClique,
    /// S9: providers for provider-less transit ASes.
    Providerless,
}

/// Per-step accounting of the pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InferenceReport {
    /// S1 counters.
    pub sanitize: SanitizeReport,
    /// S4: distinct paths discarded as poisoned.
    pub discarded_poisoned: usize,
    /// S5: c2p links inferred by the top-down walk.
    pub c2p_from_topdown: usize,
    /// S5: walks aborted by a conflicting earlier inference.
    pub conflicts: usize,
    /// S6: c2p links inferred from VP table shares.
    pub c2p_from_vps: usize,
    /// S7: c2p inferences demoted to p2p for degree anomalies.
    pub repaired_anomalies: usize,
    /// S8: stub-to-clique c2p links.
    pub c2p_stub_clique: usize,
    /// S9: providers assigned to otherwise provider-less transit ASes.
    pub c2p_providerless: usize,
    /// S10: remaining links classified p2p.
    pub p2p_assigned: usize,
    /// S11: links participating in a c2p cycle (audit only).
    pub cycle_links: usize,
    /// Total classified links.
    pub total_links: usize,
}

/// Full inference output.
#[derive(Debug, Clone)]
pub struct Inference {
    /// The inferred relationship for every observed (non-discarded) link.
    pub relationships: RelationshipMap,
    /// The inferred Tier-1 clique, sorted by ASN.
    pub clique: Vec<Asn>,
    /// Transit/node degrees and the visiting order.
    pub degrees: DegreeTable,
    /// Per-step accounting.
    pub report: InferenceReport,
}

/// Run the full ASRank pipeline over observed paths.
///
/// ```
/// use asrank_core::pipeline::{infer, InferenceConfig};
/// use asrank_types::{AsPath, Asn, Ipv4Prefix, PathSample, PathSet};
///
/// // Two vantage points observing a tiny hierarchy: clique {1, 2}.
/// let paths: PathSet = [
///     [100, 10, 1, 2, 20, 200],
///     [200, 20, 2, 1, 10, 100],
/// ]
/// .into_iter()
/// .enumerate()
/// .map(|(i, hops)| PathSample {
///     vp: Asn(hops[0]),
///     prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
///     path: AsPath::from_u32s(hops),
/// })
/// .collect();
///
/// let inference = infer(&paths, &InferenceConfig::default());
/// assert_eq!(inference.clique, vec![Asn(1), Asn(2)]);
/// assert!(inference.relationships.is_p2p(Asn(1), Asn(2)));
/// assert!(inference.relationships.is_c2p(Asn(10), Asn(1)));
/// ```
pub fn infer(paths: &PathSet, cfg: &InferenceConfig) -> Inference {
    // lint: allow(panics, every stage body is total over sanitized input; only a RelationshipMap corrupting its own endpoint set can fail S11)
    try_infer(paths, cfg).expect("inference stages are total over sanitized input")
}

/// [`infer`] with structured errors: drives the staged engine
/// ([`crate::engine::Snapshot`]) and surfaces any stage failure as an
/// [`EngineError`] instead of panicking.
pub fn try_infer(paths: &PathSet, cfg: &InferenceConfig) -> Result<Inference, EngineError> {
    let mut snapshot = crate::engine::Snapshot::new(paths, cfg.clone());
    let inference = snapshot.inference()?;
    Ok(Inference::clone(&inference))
}

/// The single-call reference pipeline the staged engine is tested
/// bit-identical against (see `tests/engine_equivalence.rs`). It builds
/// no path arena: S4–S11 run the path-slice step definitions in
/// [`steps`] over the sorted distinct paths, so the oracle shares no
/// S4/S5/S8/S9/S10 code with the engine. `skip` leaves one [`Step`]
/// out, which is how the step-ablation experiment measures each step;
/// with `None` the output is the engine's. Prefer [`infer`] — it
/// memoizes through the engine — for everything except equivalence
/// oracles and step variants.
pub fn infer_monolithic(paths: &PathSet, cfg: &InferenceConfig, skip: Option<Step>) -> Inference {
    let runs = |step: Step| skip != Some(step);
    // S1: sanitize.
    let sanitized = sanitize_with(paths, &cfg.sanitize, cfg.parallelism);
    let mut report = InferenceReport {
        sanitize: sanitized.report,
        ..Default::default()
    };

    // S2: degrees & visiting order.
    let degrees = DegreeTable::compute(&sanitized);

    // S3: clique.
    let clique = infer_clique(&sanitized, &degrees);
    let clique_set: HashSet<Asn> = clique.iter().copied().collect();

    // Distinct paths in ASN-lexicographic order: multiplicity (one
    // sample per prefix) adds no relationship evidence, and S5's walk
    // order follows path order.
    let mut distinct: Vec<AsPath> = sanitized.paths().map(|h| AsPath(h.to_vec())).collect();
    distinct.sort_by(|a, b| a.0.cmp(&b.0));
    distinct.dedup();

    // S4: discard poisoned paths.
    let kept = if runs(Step::PoisonFilter) {
        steps::discard_poisoned(distinct, &clique_set, &mut report)
    } else {
        distinct
    };

    // Clique links are p2p by construction.
    let mut rels = RelationshipMap::new();
    for (i, &a) in clique.iter().enumerate() {
        for &b in &clique[i + 1..] {
            rels.insert_p2p(a, b);
        }
    }

    // S5–S10, less the skipped step.
    steps::infer_topdown(&kept, &degrees, &clique_set, &mut rels, &mut report);
    if runs(Step::VpProviders) {
        steps::infer_vp_providers(&sanitized, &degrees, &mut rels, &mut report);
    }
    if runs(Step::AnomalyRepair) {
        steps::repair_anomalies(&degrees, &mut rels, &mut report);
    }
    if runs(Step::StubClique) {
        steps::infer_stub_clique(&kept, &degrees, &clique_set, &mut rels, &mut report);
    }
    if runs(Step::Providerless) {
        steps::infer_providerless(&kept, &degrees, &clique_set, &mut rels, &mut report);
    }
    steps::assign_remaining_p2p(&kept, &mut rels, &mut report);

    // S11: audit.
    report.cycle_links = steps::audit_cycles(&rels);
    report.total_links = rels.len();
    Inference {
        relationships: rels,
        clique,
        degrees,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test on a hand-built hierarchy:
    ///
    /// ```text
    ///   1 ===== 2      clique
    ///  / \     / \
    /// 10  11 20  21    transit
    /// |   |  |   |
    /// 100 110 200 210  stubs (VPs at 100 and 210)
    /// ```
    fn hierarchy_paths() -> PathSet {
        let routes: Vec<&[u32]> = vec![
            // VP 100 toward everything.
            &[100, 10, 1, 11, 110],
            &[100, 10, 1, 2, 20, 200],
            &[100, 10, 1, 2, 21, 210],
            &[100, 10, 1, 2, 20],
            &[100, 10, 1, 2, 21],
            &[100, 10, 1, 11],
            &[100, 10, 1, 2],
            &[100, 10, 1],
            // VP 210 toward everything.
            &[210, 21, 2, 20, 200],
            &[210, 21, 2, 1, 10, 100],
            &[210, 21, 2, 1, 11, 110],
            &[210, 21, 2, 1, 10],
            &[210, 21, 2, 1, 11],
            &[210, 21, 2, 20],
            &[210, 21, 2, 1],
            &[210, 21, 2],
        ];
        routes
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect()
    }

    #[test]
    fn end_to_end_hierarchy() {
        let inf = infer(&hierarchy_paths(), &InferenceConfig::default());
        assert_eq!(inf.clique, vec![Asn(1), Asn(2)]);
        let r = &inf.relationships;
        assert!(r.is_p2p(Asn(1), Asn(2)), "clique link must be p2p");
        for (c, p) in [(10u32, 1u32), (11, 1), (20, 2), (21, 2)] {
            assert!(
                r.is_c2p(Asn(c), Asn(p)),
                "expected {c} c2p {p}, got {:?}",
                r.get(Asn(c), Asn(p))
            );
        }
        for (c, p) in [(100u32, 10u32), (110, 11), (200, 20), (210, 21)] {
            assert!(
                r.is_c2p(Asn(c), Asn(p)),
                "expected {c} c2p {p}, got {:?}",
                r.get(Asn(c), Asn(p))
            );
        }
        // Every observed link classified.
        assert_eq!(inf.report.total_links, 9);
    }

    #[test]
    fn report_accounts_for_every_classification() {
        let inf = infer(&hierarchy_paths(), &InferenceConfig::default());
        let rep = &inf.report;
        let (c2p, p2p, s2s) = inf.relationships.counts();
        assert_eq!(s2s, 0);
        assert_eq!(c2p + p2p, rep.total_links);
        // Clique p2p links are assigned before S10, so p2p_assigned counts
        // only leftovers.
        assert!(rep.p2p_assigned <= p2p);
        assert_eq!(
            rep.c2p_from_topdown + rep.c2p_from_vps + rep.c2p_stub_clique + rep.c2p_providerless
                - rep.repaired_anomalies,
            c2p,
            "c2p accounting mismatch: {rep:?}"
        );
    }

    #[test]
    fn empty_input() {
        let inf = infer(&PathSet::new(), &InferenceConfig::default());
        assert!(inf.relationships.is_empty());
        assert!(inf.clique.is_empty());
        assert_eq!(inf.report.total_links, 0);
    }
}
