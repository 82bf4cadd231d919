//! Workload names, their scenario tiers, and the shared front half of
//! every set-up: generate a topology, simulate BGP over it with
//! collector-like artifacts, and encode the collected table as an MRT RIB
//! file, all from the run's seed.

use crate::trace::span;
use as_topology_gen::{generate, load_bundle, save_bundle, GeneratedTopology, TopologyConfig};
use asrank_core::pipeline::InferenceConfig;
use asrank_types::{Asn, Ipv4Prefix, Parallelism, RelationshipMap};
use bgp_sim::collector::select_vps;
use bgp_sim::{simulate, AnomalyConfig, PolicyGraph, SimConfig, VpSelection};
use rand::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A shrunk copy of the 2013 Internet preset (the paper's 42k ASes, 315
/// vantage points), sampled on destinations so simulation stays bounded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tier {
    /// Fraction of `TopologyConfig::internet_2013()`.
    pub factor: f64,
    /// Vantage points; 116/315 of them are full feeds.
    pub vps: usize,
    /// Destinations propagated.
    pub destinations: usize,
}

/// ≈16k ASes, 120 VPs, 3,500 destinations: ≈0.6M RIB samples.
pub const TIER_16K: Tier = Tier {
    factor: 0.38,
    vps: 120,
    destinations: 3_500,
};

/// ≈8k ASes, 60 VPs, 2,000 destinations: ≈0.17M RIB samples.
pub const TIER_8K: Tier = Tier {
    factor: 0.19,
    vps: 60,
    destinations: 2_000,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `asrank infer` runs over a RIB into a fresh cache.
    Cold,
    /// Closed-loop TCP queries against a server that reloads under load.
    Serve,
    /// 1% multiplicity-preserving path swaps and their inverses.
    DeltaFlap,
    /// 20% withdrawals plus new paths, and their inverses.
    DeltaChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Cold,
        Workload::Serve,
        Workload::DeltaFlap,
        Workload::DeltaChurn,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold-16k",
            Workload::Serve => "serve-16k",
            Workload::DeltaFlap => "delta-flap-8k",
            Workload::DeltaChurn => "delta-churn-8k",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario size the workload runs at.
    pub fn tier(self) -> Tier {
        match self {
            Workload::Cold | Workload::Serve => TIER_16K,
            Workload::DeltaFlap | Workload::DeltaChurn => TIER_8K,
        }
    }
}

/// The generated inputs every workload starts from.
pub struct Inputs {
    /// The true relationships, for PPV.
    pub truth: RelationshipMap,
    /// Inference config as `asrank infer --topo` builds it: the
    /// topology's IXP route servers, every core.
    pub cfg: InferenceConfig,
    /// Per-AS prefixes, as `--topo` supplies them to the cone stages.
    pub prefixes: HashMap<Asn, Vec<Ipv4Prefix>>,
    /// The topology bundle directory `--topo` names.
    pub topo: PathBuf,
    /// The MRT RIB file.
    pub rib: PathBuf,
    /// RIB entries in the file.
    pub samples: usize,
    /// The simulation seed [`pinned_sim_seed`] chose.
    pub sim_seed: u64,
}

/// Timestamp stamped on every generated MRT record.
pub const MRT_TIMESTAMP: u32 = 1_600_000_000;

/// Generate the topology for `tier` and `seed`.
pub fn topology(tier: Tier, seed: u64) -> GeneratedTopology {
    let _s = span("topology.generate");
    generate(&TopologyConfig::internet_2013().scaled(tier.factor), seed)
}

/// Share of vantage points that export full tables (116 of the paper's
/// 315).
const FULL_FEED: f64 = 116.0 / 315.0;
/// Mean share of the table a partial feed exports (uniform in
/// `[0.05, 0.5)`).
const PARTIAL_FEED: f64 = 0.275;

/// The simulation seed for run seed `seed`: the first of a seeded series
/// of candidates whose vantage-point draw has exactly the paper's share
/// of full feeds and a total feed within 2% of its expectation.
///
/// Each vantage point draws its full feed at random, so a free draw
/// moves the RIB's size by ±15% from seed to seed at 60 VPs, and every
/// time and memory figure with it. Pinning the draw keeps the seed
/// choosing the topology, which VPs and which routes, but not how much
/// table there is.
pub fn pinned_sim_seed(topo: &GeneratedTopology, tier: Tier, seed: u64) -> u64 {
    let _s = span("scenario.pin_feeds");
    let g = PolicyGraph::new(&topo.ground_truth);
    let full = (tier.vps as f64 * FULL_FEED).round() as usize;
    let expected = full as f64 + (tier.vps - full) as f64 * PARTIAL_FEED;
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let candidate = rng.next_u64();
        let vps = select_vps(&g, &VpSelection::Count(tier.vps), FULL_FEED, candidate);
        let drawn = vps.iter().filter(|v| v.full_feed).count();
        let mass: f64 = vps.iter().map(|v| v.feed_fraction).sum();
        if drawn == full && (mass - expected).abs() <= 0.02 * expected {
            return candidate;
        }
    }
}

/// Simulation parameters for `tier`: the paper's full-feed share, the
/// realistic artifact mix with the planted clique as poison pool.
pub fn sim_config(topo: &GeneratedTopology, tier: Tier, seed: u64, threads: usize) -> SimConfig {
    SimConfig {
        vp_selection: VpSelection::Count(tier.vps),
        full_feed_fraction: FULL_FEED,
        anomalies: AnomalyConfig::realistic(topo.ground_truth.clique()),
        destination_sample: Some(tier.destinations),
        rib_cap_per_vp: None,
        threads,
        seed,
    }
}

/// Inference config and prefix table for a topology, as `--topo` gives.
pub fn inference_inputs(
    topo: GeneratedTopology,
) -> (InferenceConfig, HashMap<Asn, Vec<Ipv4Prefix>>) {
    let mut cfg = InferenceConfig::with_ixps(topo.ixps.iter().map(|i| i.route_server));
    cfg.parallelism = Parallelism::auto();
    (cfg, topo.ground_truth.prefixes)
}

/// Read the topology bundle in `dir` and derive what `--topo` gives.
pub fn load_topo(dir: &Path) -> Result<(InferenceConfig, HashMap<Asn, Vec<Ipv4Prefix>>), String> {
    let _s = span("io.load_topo");
    let topo = load_bundle(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    Ok(inference_inputs(topo))
}

/// Generate, simulate, write the topology bundle to `dir/topo` and the
/// RIB to `dir/rib.mrt`.
pub fn build_inputs(tier: Tier, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let topo = topology(tier, seed);
    let sim_seed = pinned_sim_seed(&topo, tier, seed);
    let sim = {
        let _s = span("bgpsim.simulate");
        simulate(&topo, &sim_config(&topo, tier, sim_seed, 0))
    };
    let mut bytes = Vec::new();
    {
        let _s = span("mrt.rib_encode");
        mrt_codec::write_rib_dump(&sim.paths, &mut bytes, MRT_TIMESTAMP)
            .map_err(|e| format!("encoding the RIB: {e}"))?;
    }
    let rib = dir.join("rib.mrt");
    let bundle = dir.join("topo");
    {
        let _s = span("io.write_inputs");
        std::fs::write(&rib, &bytes).map_err(|e| format!("writing {}: {e}", rib.display()))?;
        save_bundle(&topo, &bundle).map_err(|e| format!("writing {}: {e}", bundle.display()))?;
    }
    // The config and prefixes as the bundle gives them back, so every
    // consumer keys its cache frames exactly as the CLI would.
    let (cfg, prefixes) = load_topo(&bundle)?;
    Ok(Inputs {
        truth: topo.ground_truth.relationships,
        cfg,
        prefixes,
        topo: bundle,
        rib,
        samples: sim.paths.len(),
        sim_seed,
    })
}

/// A scratch directory inside the working directory,
/// removed with everything in it when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.bench_work/<tag>-<pid>` under the current directory.
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still has its own directory there.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Remove and recreate `dir`, so a cache starts cold.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// A `kB` field of a `/proc` status-style file.
fn proc_kib(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|l| {
        l.strip_prefix(field)?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

/// This process's peak resident set (`VmHWM`), KiB.
pub fn peak_rss_kib() -> Option<u64> {
    proc_kib("/proc/self/status", "VmHWM:")
}

/// Host memory (`MemTotal`), KiB.
pub fn mem_total_kib() -> Option<u64> {
    proc_kib("/proc/meminfo", "MemTotal:")
}

/// Cores this process may use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
