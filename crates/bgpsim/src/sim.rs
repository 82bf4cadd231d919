//! Simulation orchestration: propagate every destination, collect RIBs at
//! the vantage points, and assemble the [`PathSet`] the inference pipeline
//! consumes.

use crate::anomaly::{emit_path, AnomalyConfig, AnomalyStats};
use crate::collector::{select_vps, VantagePoint, VpSelection};
use crate::graph::PolicyGraph;
use crate::hash;
use crate::propagate::{propagate, PropagationWorkspace, Targets};
use as_topology_gen::GeneratedTopology;
use asrank_types::prelude::*;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How to choose vantage points.
    pub vp_selection: VpSelection,
    /// Fraction of VPs exporting full tables (paper: 116/315 ≈ 0.37).
    pub full_feed_fraction: f64,
    /// Artifact injection.
    pub anomalies: AnomalyConfig,
    /// Upper bound on the number of origin ASes to propagate
    /// (`None` = all). Sampling keeps huge topologies tractable while
    /// preserving path structure; origins are chosen deterministically.
    pub destination_sample: Option<usize>,
    /// Upper bound on retained RIB entries per vantage point (`None` =
    /// unbounded). Applied in destination order during reassembly, so
    /// the retained set is identical for every thread count. At the
    /// 400k-AS tier an unbounded collection holds millions of cloned
    /// paths; the cap keeps peak RSS proportional to `vps × cap`
    /// instead of `vps × destinations × prefixes`.
    pub rib_cap_per_vp: Option<usize>,
    /// Worker threads (0 = use all available cores).
    pub threads: usize,
    /// Master seed for VP choice, feeds, and artifacts.
    pub seed: u64,
}

impl SimConfig {
    /// Sensible defaults: 30 degree-biased VPs, 40 % full feeds, clean
    /// paths, all destinations, all cores.
    pub fn defaults(seed: u64) -> Self {
        SimConfig {
            vp_selection: VpSelection::Count(30),
            full_feed_fraction: 0.4,
            anomalies: AnomalyConfig::none(),
            destination_sample: None,
            rib_cap_per_vp: None,
            threads: 0,
            seed,
        }
    }
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimStats {
    /// Destinations (origin ASes) propagated.
    pub destinations: usize,
    /// (VP, destination) pairs with no route at the VP.
    pub unreachable_pairs: u64,
    /// Artifact counters.
    pub anomalies: AnomalyStats,
}

/// Output of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The observed paths — input for every inference algorithm.
    pub paths: PathSet,
    /// The vantage points used.
    pub vps: Vec<VantagePoint>,
    /// Run statistics.
    pub stats: SimStats,
}

/// Simulate BGP over a generated topology and collect RIBs.
///
/// Deterministic for a given `(topology, config)`: destination-level work
/// fans out over [`Parallelism::map_ranges`], but all random decisions
/// are pure functions of the seed, and the output `PathSet` is assembled
/// in destination order regardless of thread interleaving.
pub fn simulate(topo: &GeneratedTopology, config: &SimConfig) -> SimOutput {
    let g = policy_graph(topo);
    let vps = select_vps(
        &g,
        &config.vp_selection,
        config.full_feed_fraction,
        config.seed,
    );

    // Destinations: every AS that originates at least one prefix.
    let mut origins: Vec<Asn> = topo
        .ground_truth
        .prefixes
        .iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(&a, _)| a)
        .collect();
    origins.sort();
    if let Some(cap) = config.destination_sample {
        if cap < origins.len() {
            // Deterministic thinning: keep a stable spread across the list.
            let step = origins.len() as f64 / cap as f64;
            origins = (0..cap)
                .map(|i| origins[(i as f64 * step) as usize])
                .collect();
        }
    }

    let vp_ids: Vec<(usize, u32)> = vps
        .iter()
        .enumerate()
        .filter_map(|(i, vp)| g.id(vp.asn).map(|id| (i, id)))
        .collect();
    let run = Run {
        // Only the VPs' routes are read: their closure is computed once.
        targets: Targets::new(&g, vp_ids.iter().map(|&(_, id)| id)),
        leaks: LeakDraw::new(&g, config),
        g: &g,
        topo,
        vps: &vps,
        vp_ids: &vp_ids,
        config,
    };

    // Each worker returns (samples, stats) for a contiguous run of
    // destinations; results come back in destination order.
    let per_chunk = Parallelism::threads(config.threads)
        .map_ranges(1, origins.len(), |range| run_chunk(&run, &origins[range]));

    let mut paths = PathSet::new();
    let mut stats = SimStats::default();
    let mut per_vp: std::collections::HashMap<Asn, usize> = std::collections::HashMap::new();
    for (samples, s) in per_chunk {
        for sample in samples {
            if let Some(cap) = config.rib_cap_per_vp {
                let held = per_vp.entry(sample.vp).or_insert(0);
                if *held >= cap {
                    continue;
                }
                *held += 1;
            }
            paths.push(sample);
        }
        stats.destinations += s.destinations;
        stats.unreachable_pairs += s.unreachable_pairs;
        stats.anomalies.merge(&s.anomalies);
    }

    SimOutput { paths, vps, stats }
}

/// The policy graph `simulate` routes over: the ground truth plus the
/// IXP fabrics' route servers.
pub(crate) fn policy_graph(topo: &GeneratedTopology) -> PolicyGraph {
    let fabrics: Vec<(Asn, Vec<Asn>)> = topo
        .ixps
        .iter()
        .map(|ixp| (ixp.route_server, ixp.members.clone()))
        .collect();
    PolicyGraph::with_ixp_links(&topo.ground_truth, &fabrics)
}

/// The route-leak draws: AS `a` leaks toward destination `d` when the
/// mix of `[a, d, tag]` falls below `leak_prob`. The `[a]` prefix is the
/// same for every destination, so it is mixed once per AS; propagation
/// asks only about the ASes whose leak can reach a VP.
struct LeakDraw {
    prefix: Vec<u64>,
    prob: f64,
}

impl LeakDraw {
    fn new(g: &PolicyGraph, config: &SimConfig) -> Self {
        let prob = config.anomalies.leak_prob;
        let prefix = if prob > 0.0 {
            g.ids()
                .map(|id| hash::mix(config.seed, &[g.asn(id).0 as u64]))
                .collect()
        } else {
            Vec::new()
        };
        LeakDraw { prefix, prob }
    }

    /// Does AS `id` leak toward `dest`?
    fn leaks(&self, id: u32, dest: Asn) -> bool {
        self.prob > 0.0
            && hash::below(
                hash::absorb(self.prefix[id as usize], &[dest.0 as u64, 0x1ea4]),
                self.prob,
            )
    }
}

/// What every worker of one simulation reads.
struct Run<'a> {
    g: &'a PolicyGraph,
    topo: &'a GeneratedTopology,
    vps: &'a [VantagePoint],
    /// `(index into vps, dense id)` of every VP in the graph.
    vp_ids: &'a [(usize, u32)],
    /// The VPs, closed for [`propagate`].
    targets: Targets,
    leaks: LeakDraw,
    config: &'a SimConfig,
}

/// Propagate one chunk of destinations and emit VP observations.
fn run_chunk(run: &Run<'_>, dests: &[Asn]) -> (Vec<PathSample>, SimStats) {
    let &Run {
        g,
        topo,
        vps,
        vp_ids,
        config,
        ..
    } = run;
    let mut samples = Vec::new();
    let mut stats = SimStats::default();
    let mut ws = PropagationWorkspace::new();

    for &dest_asn in dests {
        let Some(dest) = g.id(dest_asn) else { continue };
        stats.destinations += 1;

        let leaks = |id: u32| run.leaks.leaks(id, dest_asn);
        let tree = propagate(g, dest, &run.targets, leaks, &mut ws);
        let prefixes = &topo.ground_truth.prefixes[&dest_asn];

        for &(vp_idx, vp_id) in vp_ids {
            let vp = &vps[vp_idx];
            let Some(ids) = tree.path(vp_id) else {
                stats.unreachable_pairs += 1;
                continue;
            };
            let (asns, poisoned, prepended, rs) =
                emit_path(g, &ids, dest_asn, &config.anomalies, config.seed);
            if poisoned {
                stats.anomalies.poisoned_paths += 1;
            }
            if prepended {
                stats.anomalies.prepended_paths += 1;
            }
            if rs {
                stats.anomalies.rs_inserted_paths += 1;
            }
            let path = AsPath(asns);
            for &prefix in prefixes {
                // Partial feeds: deterministically include a fraction of
                // prefixes, keyed by (vp, prefix).
                if !vp.full_feed {
                    let include = hash::chance(
                        config.seed,
                        &[vp.asn.0 as u64, prefix.network() as u64, 0xfeed],
                        vp.feed_fraction,
                    );
                    if !include {
                        continue;
                    }
                }
                samples.push(PathSample {
                    vp: vp.asn,
                    prefix,
                    path: path.clone(),
                });
            }
        }
    }
    (samples, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_topology_gen::{generate, TopologyConfig};

    fn tiny_sim(seed: u64) -> (GeneratedTopology, SimOutput) {
        let topo = generate(&TopologyConfig::tiny(), seed);
        let mut cfg = SimConfig::defaults(seed);
        cfg.vp_selection = VpSelection::Count(8);
        cfg.full_feed_fraction = 1.0;
        cfg.threads = 2;
        let out = simulate(&topo, &cfg);
        (topo, out)
    }

    #[test]
    fn produces_paths_for_every_destination() {
        let (topo, out) = tiny_sim(1);
        assert!(out.stats.destinations > 0);
        // Every originated prefix should be visible from full-feed VPs.
        let seen = out.paths.prefixes();
        let expected = topo.ground_truth.prefix_count();
        assert!(
            seen.len() as f64 > 0.95 * expected as f64,
            "saw {} of {expected} prefixes",
            seen.len()
        );
    }

    #[test]
    fn paths_start_at_vp_and_end_at_origin() {
        let (topo, out) = tiny_sim(2);
        for s in out.paths.iter() {
            assert_eq!(s.path.0.first(), Some(&s.vp), "path must start at the VP");
            let origin = s.path.origin().unwrap();
            let originated = topo
                .ground_truth
                .prefixes
                .get(&origin)
                .map(|v| v.contains(&s.prefix))
                .unwrap_or(false);
            assert!(originated, "{origin} does not originate {}", s.prefix);
        }
    }

    #[test]
    fn clean_paths_are_valley_free_and_loop_free() {
        let (topo, out) = tiny_sim(3);
        let rels = &topo.ground_truth.relationships;
        for s in out.paths.iter() {
            assert!(!s.path.has_loop(), "loop in {}", s.path);
            // Valley-free check: walking origin→VP, once we step down
            // (provider→customer) or sideways we may never step up again.
            // Equivalently walking VP→origin: pattern is up* peer? down*.
            let hops: Vec<Asn> = s.path.compress_prepending().0;
            let mut phase = 0; // 0 = ascending (c2p), 1 = post-peak
            let mut peer_used = 0;
            for w in hops.windows(2) {
                let o = rels
                    .orientation(w[0], w[1])
                    .unwrap_or_else(|| panic!("unknown link {}-{} in {}", w[0], w[1], s.path));
                match o {
                    // Sibling hops are transparent: allowed in any phase
                    // (Gao's valley-free definition).
                    Orientation::Sibling => {}
                    Orientation::Provider => {
                        assert_eq!(phase, 0, "ascent after descent in {}", s.path);
                    }
                    Orientation::Peer => {
                        assert_eq!(phase, 0, "peering after descent in {}", s.path);
                        peer_used += 1;
                        phase = 1;
                    }
                    Orientation::Customer => {
                        phase = 1;
                    }
                }
            }
            assert!(peer_used <= 1, "two peering hops in {}", s.path);
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let topo = generate(&TopologyConfig::tiny(), 5);
        let mut c1 = SimConfig::defaults(5);
        c1.threads = 1;
        c1.vp_selection = VpSelection::Count(5);
        let mut c4 = c1.clone();
        c4.threads = 4;
        let a = simulate(&topo, &c1);
        let b = simulate(&topo, &c4);
        // The same samples in the same (destination) order: the chunks
        // are merged in range order.
        assert!(!a.paths.is_empty());
        assert_eq!(a.paths.samples(), b.paths.samples());
    }

    #[test]
    fn partial_feeds_see_fewer_prefixes() {
        let topo = generate(&TopologyConfig::tiny(), 7);
        let mut cfg = SimConfig::defaults(7);
        cfg.vp_selection = VpSelection::Count(10);
        cfg.full_feed_fraction = 0.0; // all partial
        let out = simulate(&topo, &cfg);
        let total = topo.ground_truth.prefix_count();
        for (_vp, n) in out.paths.prefixes_per_vp() {
            assert!(
                (n as f64) < 0.8 * total as f64,
                "partial feed saw {n}/{total}"
            );
        }
    }

    #[test]
    fn destination_sampling_caps_work() {
        let topo = generate(&TopologyConfig::tiny(), 9);
        let mut cfg = SimConfig::defaults(9);
        cfg.destination_sample = Some(10);
        let out = simulate(&topo, &cfg);
        assert_eq!(out.stats.destinations, 10);
    }

    #[test]
    fn rib_cap_bounds_per_vp_retention_deterministically() {
        let topo = generate(&TopologyConfig::tiny(), 21);
        let mut cfg = SimConfig::defaults(21);
        cfg.vp_selection = VpSelection::Count(6);
        cfg.full_feed_fraction = 1.0;
        let uncapped = simulate(&topo, &cfg);
        let max_held = uncapped
            .paths
            .prefixes_per_vp()
            .into_iter()
            .map(|(_, n)| n)
            .max()
            .unwrap();
        let cap = max_held / 2;
        cfg.rib_cap_per_vp = Some(cap);
        cfg.threads = 1;
        let capped1 = simulate(&topo, &cfg);
        for (vp, _) in capped1.paths.prefixes_per_vp() {
            let held = capped1.paths.iter().filter(|s| s.vp == vp).count();
            assert!(held <= cap, "vp {vp} holds {held} > cap {cap}");
        }
        // The retained samples and their order must not depend on the
        // worker count.
        cfg.threads = 4;
        let capped4 = simulate(&topo, &cfg);
        assert_eq!(capped1.paths.samples(), capped4.paths.samples());
    }

    #[test]
    fn explicit_vp_with_unknown_asn_is_skipped() {
        let topo = generate(&TopologyConfig::tiny(), 13);
        let mut cfg = SimConfig::defaults(13);
        cfg.vp_selection = VpSelection::Explicit(vec![Asn(999_999), Asn(1)]);
        cfg.full_feed_fraction = 1.0;
        let out = simulate(&topo, &cfg);
        // The unknown VP contributes nothing; the known one works.
        let vps = out.paths.vantage_points();
        assert!(!vps.contains(&Asn(999_999)));
        assert!(vps.contains(&Asn(1)));
    }

    #[test]
    fn zero_vps_is_a_valid_degenerate_run() {
        let topo = generate(&TopologyConfig::tiny(), 14);
        let mut cfg = SimConfig::defaults(14);
        cfg.vp_selection = VpSelection::Count(0);
        let out = simulate(&topo, &cfg);
        assert!(out.paths.is_empty());
        assert!(out.vps.is_empty());
        assert!(out.stats.destinations > 0, "propagation still ran");
    }

    #[test]
    fn leaky_paths_equal_the_full_tree() {
        // At a leak rate 250 times `realistic`'s, leakers outside the
        // VPs' closure reroute VPs on many destinations: every emitted
        // path must still be the full tree's path under the same draws.
        for (scale, vps) in [(TopologyConfig::tiny(), 8), (TopologyConfig::small(), 20)] {
            let topo = generate(&scale, 17);
            let mut cfg = SimConfig::defaults(17);
            cfg.vp_selection = VpSelection::Count(vps);
            cfg.full_feed_fraction = 1.0;
            cfg.anomalies.leak_prob = 0.05;
            let out = simulate(&topo, &cfg);
            assert!(!out.paths.is_empty());

            let g = policy_graph(&topo);
            let draw = LeakDraw::new(&g, &cfg);
            let all = Targets::new(&g, g.ids());
            let (mut ws, mut clean_ws) = (PropagationWorkspace::new(), PropagationWorkspace::new());
            let mut rerouted = 0;
            let samples = out.paths.samples();
            for run in samples.chunk_by(|a, b| a.path.origin() == b.path.origin()) {
                let origin = run[0].path.origin().unwrap();
                let dest = g.id(origin).unwrap();
                let full = propagate(&g, dest, &all, |id| draw.leaks(id, origin), &mut ws);
                let clean = propagate(&g, dest, &all, |_| false, &mut clean_ws);
                for s in run {
                    let vp = g.id(s.vp).unwrap();
                    let want: Vec<Asn> = full.path(vp).unwrap().iter().map(|&i| g.asn(i)).collect();
                    assert_eq!(s.path.0, want, "{} toward {origin}", s.vp);
                    rerouted += usize::from(clean.path(vp) != full.path(vp));
                }
            }
            assert!(rerouted > 0, "no leak reached a VP");
        }
    }

    #[test]
    fn anomalies_show_up_in_stats() {
        let topo = generate(&TopologyConfig::tiny(), 11);
        let clique = topo.ground_truth.clique();
        let mut cfg = SimConfig::defaults(11);
        cfg.anomalies = AnomalyConfig {
            leak_prob: 0.01,
            poison_prob: 0.05,
            prepend_prob: 0.1,
            rs_insertion_prob: 0.9,
            poison_pool: clique,
        };
        let out = simulate(&topo, &cfg);
        let a = out.stats.anomalies;
        assert!(a.prepended_paths > 0, "no prepending injected");
        assert!(a.poisoned_paths > 0, "no poisoning injected");
    }
}
