//! Determinism pin: the full inference pipeline and every cone
//! computation must produce **bit-identical** output whether they run
//! single-threaded or fanned out over worker threads. Every parallel
//! stage in the crate either reassembles chunk results in input order or
//! merges with an order-independent operation, so this must hold exactly
//! — any drift is a bug, not noise.

use as_topology_gen::{generate, TopologyConfig};
use asrank_core::pipeline::{infer, InferenceConfig};
use asrank_core::sanitize::sanitize_with;
use asrank_core::{CustomerCones, PathArena};
use asrank_types::prelude::*;
use bgp_sim::{simulate, SimConfig, VpSelection};

fn simulated_paths(seed: u64) -> PathSet {
    let topo = generate(&TopologyConfig::tiny(), seed);
    let sim = simulate(
        &topo,
        &SimConfig {
            vp_selection: VpSelection::Count(12),
            ..SimConfig::defaults(seed)
        },
    );
    sim.paths
}

#[test]
fn pipeline_output_identical_across_thread_counts() {
    let paths = simulated_paths(42);

    let infer_with = |par: Parallelism| {
        let cfg = InferenceConfig {
            parallelism: par,
            ..Default::default()
        };
        infer(&paths, &cfg)
    };

    let seq = infer_with(Parallelism::sequential());
    for par in [Parallelism::threads(2), Parallelism::threads(7), Parallelism::auto()] {
        let other = infer_with(par);
        assert_eq!(
            seq.relationships, other.relationships,
            "RelationshipMap differs at {par}"
        );
        assert_eq!(seq.clique, other.clique, "clique differs at {par}");
        assert_eq!(seq.report, other.report, "report differs at {par}");
    }
}

#[test]
fn cone_sizes_identical_across_thread_counts() {
    let paths = simulated_paths(7);
    let cfg = InferenceConfig::default();
    let inference = infer(&paths, &cfg);
    let clean = sanitize_with(&paths, &cfg.sanitize, Parallelism::sequential());

    let rels = &inference.relationships;
    let cones = |par: Parallelism| {
        let arena = PathArena::build(&clean, par);
        [
            ("recursive", CustomerCones::recursive(rels, None)),
            (
                "bgp_observed",
                CustomerCones::bgp_observed(&arena, rels, None, par),
            ),
            (
                "provider_peer_observed",
                CustomerCones::provider_peer_observed(&arena, rels, None, par),
            ),
        ]
    };
    let seq = cones(Parallelism::sequential());
    for par in [Parallelism::threads(3), Parallelism::auto()] {
        for ((name, a), (_, b)) in seq.iter().zip(&cones(par)) {
            assert_eq!(a.len(), b.len(), "{name} coverage differs at {par}");
            for (x, y) in a.iter_sizes().zip(b.iter_sizes()) {
                assert_eq!(x, y, "{name} sizes differ at {par}");
            }
            for ((xa, xm), (ya, ym)) in a.iter_members().zip(b.iter_members()) {
                assert_eq!(xa, ya, "{name} AS order differs at {par}");
                assert_eq!(xm, ym, "{name} members differ at {par}");
            }
        }
    }
}

#[test]
fn sanitization_identical_across_thread_counts() {
    let paths = simulated_paths(99);
    let cfg = Default::default();
    let seq = sanitize_with(&paths, &cfg, Parallelism::sequential());
    let par = sanitize_with(&paths, &cfg, Parallelism::threads(5));
    assert_eq!(seq.report, par.report);
    assert_eq!(seq, par);
}
