//! The semantic auditor graded against real pipeline output: a clean
//! inference must pass with zero errors, and deliberately corrupted
//! relationship sets must fail loudly on the matching check.

use as_topology_gen::{generate, TopologyConfig};
use asrank_core::audit::{audit, Severity};
use asrank_core::pipeline::{infer, InferenceConfig};
use asrank_core::sanitize::{sanitize, SanitizeConfig};
use asrank_types::prelude::*;
use bgp_sim::{simulate, SimConfig, VpSelection};

struct Scenario {
    rels: RelationshipMap,
    clique: Vec<Asn>,
    sanitized: asrank_core::sanitize::SanitizedPaths,
}

fn run_pipeline(cfg: &TopologyConfig, seed: u64, vps: usize) -> Scenario {
    let topo = generate(cfg, seed);
    let mut sim = SimConfig::defaults(seed);
    sim.vp_selection = VpSelection::Count(vps);
    sim.full_feed_fraction = 0.5;
    let out = simulate(&topo, &sim);

    let ixps: Vec<Asn> = topo.ixps.iter().map(|i| i.route_server).collect();
    let sanitize_cfg = SanitizeConfig::with_ixps(ixps.iter().copied());
    let inf = infer(&out.paths, &InferenceConfig::with_ixps(ixps));
    Scenario {
        rels: inf.relationships,
        clique: inf.clique,
        sanitized: sanitize(&out.paths, &sanitize_cfg),
    }
}

fn has_error(report: &asrank_core::audit::AuditReport, check: &str) -> bool {
    report
        .findings
        .iter()
        .any(|f| f.check == check && f.severity == Severity::Error)
}

#[test]
fn clean_small_scale_inference_passes() {
    let s = run_pipeline(&TopologyConfig::small(), 42, 30);
    let report = audit(
        &s.rels,
        Some(&s.sanitized),
        Some(&s.clique),
        Parallelism::auto(),
    );
    assert!(report.passed(), "{}", report.render());
    // Every check actually ran (none skipped).
    for check in [
        "csr-well-formed",
        "clique-p2p",
        "p2c-cycles",
        "cone-containment",
        "cone-agreement",
        "path-arena",
        "valley-unknown-links",
    ] {
        assert!(
            report.findings.iter().any(|f| f.check == check
                && !f.detail.contains("skipped")),
            "check {check} did not run: {}",
            report.render()
        );
    }
}

#[test]
fn corrupted_relationships_fail_loudly() {
    let s = run_pipeline(&TopologyConfig::small(), 42, 30);

    // Corruption 1: demote every c2p to p2p. The observed up-peer-down
    // paths become multi-peering valleys.
    let mut flat = RelationshipMap::new();
    for (a, b) in s.rels.p2p_pairs() {
        flat.insert_p2p(a, b);
    }
    for (c, p) in s.rels.c2p_pairs() {
        flat.insert_p2p(c, p);
    }
    let report = audit(
        &flat,
        Some(&s.sanitized),
        Some(&s.clique),
        Parallelism::auto(),
    );
    assert!(!report.passed(), "{}", report.render());
    assert!(has_error(&report, "valley-free"), "{}", report.render());

    // Corruption 2: drop one clique peering. The clique check must name it.
    let mut declique = s.rels.clone();
    let _ = declique.remove(s.clique[0], s.clique[1]);
    let report = audit(&declique, None, Some(&s.clique), Parallelism::auto());
    assert!(has_error(&report, "clique-p2p"), "{}", report.render());

    // Corruption 3: drop a classified link entirely; paths crossing it
    // now hit an unknown link, which S10's total-coverage promise forbids.
    let mut dropped = s.rels.clone();
    let victim = dropped
        .c2p_pairs()
        .next()
        .expect("inference produced at least one c2p link");
    let _ = dropped.remove(victim.0, victim.1);
    let report = audit(&dropped, Some(&s.sanitized), None, Parallelism::auto());
    assert!(
        has_error(&report, "valley-unknown-links"),
        "{}",
        report.render()
    );
}

#[test]
fn corrupted_path_arena_fails_loudly() {
    use asrank_core::audit::{check_arena, AuditReport};
    use asrank_core::PathArena;

    let interner = || AsnInterner::from_ases([Asn(1), Asn(2), Asn(3)]);

    // A well-formed raw arena passes: two distinct ascending paths.
    let clean = PathArena::from_raw(interner(), vec![0, 2, 4], vec![0, 1, 1, 2]);
    let mut report = AuditReport::default();
    check_arena(&clean, &mut report);
    assert!(report.passed(), "{}", report.render());
    assert!(
        report.findings.iter().any(|f| f.check == "path-arena"),
        "{}",
        report.render()
    );

    // Each corruption shape must raise a path-arena Error.
    let corrupted = [
        // Offsets not monotone.
        PathArena::from_raw(interner(), vec![0, 3, 2], vec![0, 1, 1, 2]),
        // Id out of interner range.
        PathArena::from_raw(interner(), vec![0, 2, 4], vec![0, 1, 1, 9]),
        // Empty offsets: not even the leading 0.
        PathArena::from_raw(interner(), Vec::new(), vec![0, 1, 1, 2]),
        // Duplicate path: dedup was not actually performed.
        PathArena::from_raw(interner(), vec![0, 2, 4], vec![0, 1, 0, 1]),
    ];
    for (i, arena) in corrupted.iter().enumerate() {
        let mut report = AuditReport::default();
        check_arena(arena, &mut report);
        assert!(
            has_error(&report, "path-arena"),
            "corruption {i} not caught: {}",
            report.render()
        );
    }
}

#[test]
#[ignore = "medium-scale: ~seconds; run with --ignored"]
fn clean_medium_scale_inference_passes() {
    let s = run_pipeline(&TopologyConfig::medium(), 7, 60);
    let report = audit(
        &s.rels,
        Some(&s.sanitized),
        Some(&s.clique),
        Parallelism::auto(),
    );
    assert!(report.passed(), "{}", report.render());
}
