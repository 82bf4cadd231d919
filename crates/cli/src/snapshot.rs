//! Shared input loading for the engine-driven subcommands.
//!
//! Every pipeline-running command (`infer`, `rank`, `audit --stage`,
//! `stability`) used to parse its own flags into a private re-run of the
//! monolithic pipeline. They now share this loader plus one
//! [`asrank_core::engine::Snapshot`] entry point: flags become a
//! [`LoadedInputs`] (paths + config + optional prefix table), the
//! snapshot memoizes every stage, and commands pull exactly the
//! artifacts they print.
//!
//! Caching: [`apply_cache_flags`] wires `--cache-dir`/`--no-cache` into
//! the process-wide default cache directory
//! ([`asrank_core::set_process_cache_dir`]), which every snapshot —
//! including those built deep inside `pipeline::infer` and
//! `stability::jackknife` — picks up automatically. [`load_rib`] keys a
//! decoded-`PathSet` cache entry on the checksum of the raw file bytes,
//! so a warm run skips MRT decoding entirely.

use crate::args::Flags;
use as_topology_gen::{load_bundle, GeneratedTopology};
use asrank_core::engine::Snapshot;
use asrank_core::pipeline::InferenceConfig;
use asrank_core::{read_as_rel, CacheDir, InferenceView};
use asrank_serve::{MappedBytes, SourceSpec, INFERENCE_STAGE, RIB_INGEST_STAGE};
use asrank_types::{
    checksum64, Asn, EngineError, Ipv4Prefix, LinkRel, Parallelism, PathSet, RelationshipMap,
};
use mrt_codec::read_rib_dump_parallel;
use std::collections::HashMap;
use std::path::PathBuf;

/// Everything a pipeline command needs to build a [`Snapshot`].
pub struct LoadedInputs {
    /// Observed paths decoded from the `--rib` MRT file.
    pub paths: PathSet,
    /// Inference configuration (IXP list from `--topo`, thread budget
    /// from `--threads`).
    pub cfg: InferenceConfig,
    /// Per-AS originated prefixes from the `--topo` bundle, when given —
    /// the cone stages weight cones by these.
    pub prefixes: Option<HashMap<Asn, Vec<Ipv4Prefix>>>,
}

impl LoadedInputs {
    /// Build the engine snapshot over these inputs. The snapshot borrows
    /// `self.paths`, so keep the `LoadedInputs` alive while querying.
    pub fn snapshot(&self) -> Snapshot<'_> {
        let snap = Snapshot::new(&self.paths, self.cfg.clone());
        match &self.prefixes {
            Some(table) => snap.with_prefixes(table.clone()),
            None => snap,
        }
    }
}

/// Wire `--cache-dir DIR` / `--no-cache` into the process-wide default
/// cache directory consulted by every snapshot. `--no-cache` wins when
/// both are given; with neither flag, caching stays off.
pub fn apply_cache_flags(flags: &Flags) {
    let dir = if flags.switch("no-cache") {
        None
    } else {
        flags.get("cache-dir").map(PathBuf::from)
    };
    asrank_core::set_process_cache_dir(dir);
}

/// Decode one MRT RIB file into a path set.
///
/// The file is read whole and the records decoded on the `threads`
/// fan-out ([`read_rib_dump_parallel`] — byte-identical to the
/// sequential reader). When a cache directory is active, the decoded
/// path set is stored under [`RIB_INGEST_STAGE`] keyed by the checksum
/// of the raw bytes; a warm run reads the file once and skips MRT
/// decoding. A failed store is reported on stderr and otherwise
/// ignored: the next run just decodes again.
pub fn load_rib(path: &str, threads: Parallelism) -> Result<PathSet, EngineError> {
    let bytes =
        std::fs::read(path).map_err(|e| EngineError::ingest(path, e.to_string()))?;
    let cache = asrank_core::process_cache_dir().map(CacheDir::new);
    let key = cache.as_ref().map(|_| checksum64(&bytes));
    if let (Some(cache), Some(key)) = (&cache, key) {
        if let Some(paths) = cache.load_paths(RIB_INGEST_STAGE, key) {
            return Ok(paths);
        }
    }
    let paths = read_rib_dump_parallel(&bytes, threads)
        .map_err(|e| EngineError::ingest(path, e.to_string()))?;
    if let (Some(cache), Some(key)) = (&cache, key) {
        if !cache.store_paths(RIB_INGEST_STAGE, key, &paths) {
            eprintln!(
                "warning: could not store the {RIB_INGEST_STAGE} cache entry in {}",
                cache.root().display()
            );
        }
    }
    Ok(paths)
}

/// Per-AS originated prefixes, as a `--topo` bundle records them.
type PrefixTable = HashMap<Asn, Vec<Ipv4Prefix>>;

/// The inference config of a topology bundle: its IXP route servers.
pub fn topo_config(topo: &GeneratedTopology) -> InferenceConfig {
    InferenceConfig::with_ixps(topo.ixps.iter().map(|i| i.route_server))
}

/// The inference config (IXP list) and prefix table of the `--topo`
/// bundle, or the defaults without one. On a load failure, prints it and
/// returns exit code 1.
fn load_topo(flags: &Flags) -> Result<(InferenceConfig, Option<PrefixTable>), i32> {
    let Some(dir) = flags.get("topo") else {
        return Ok((InferenceConfig::default(), None));
    };
    match load_bundle(&PathBuf::from(dir)) {
        Ok(t) => Ok((topo_config(&t), Some(t.ground_truth.prefixes))),
        Err(e) => {
            eprintln!("{}", EngineError::ingest(dir, e.to_string()));
            Err(1)
        }
    }
}

/// Parse the shared `--rib` / `--topo` / `--threads` / cache flags into
/// [`LoadedInputs`]. On error, prints the failure and returns the
/// process exit code (2 for flag mistakes, 1 for IO failures).
pub fn load_inputs(flags: &Flags) -> Result<LoadedInputs, i32> {
    let Some(rib) = flags.required("rib") else {
        return Err(2);
    };
    let Some(threads) = flags.get_or("threads", Parallelism::auto()) else {
        return Err(2);
    };
    apply_cache_flags(flags);
    let paths = match load_rib(rib, threads) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return Err(1);
        }
    };

    let (mut cfg, prefixes) = load_topo(flags)?;
    cfg.parallelism = threads;

    Ok(LoadedInputs {
        paths,
        cfg,
        prefixes,
    })
}

/// Build the serve/query frame spec from `--rib` / `--cache-dir` /
/// `--topo`: the RIB anchors the cache keys, the topo bundle supplies
/// the IXP config + prefix table of the warm run (keys depend on both).
pub fn load_serve_spec(flags: &Flags) -> Result<SourceSpec, i32> {
    let Some(rib) = flags.required("rib") else {
        return Err(2);
    };
    let Some(cache_dir) = flags.required("cache-dir") else {
        return Err(2);
    };
    let (cfg, prefixes) = load_topo(flags)?;
    Ok(SourceSpec {
        rib: PathBuf::from(rib),
        cache_root: PathBuf::from(cache_dir),
        cfg,
        prefixes,
    })
}

/// Warm-cache fast path for [`rels_from`]: when the inference frame for
/// this RIB under `cfg` is already persisted, rebuild the relationship
/// map straight from the borrowed frame view — the RIB is read once for
/// its checksum, but no `PathSet` is materialized, no pipeline stage
/// runs, and no owned artifact is decoded.
fn cached_rels(path: &str, cfg: &InferenceConfig) -> Option<RelationshipMap> {
    let cache_root = asrank_core::process_cache_dir()?;
    let spec = SourceSpec {
        rib: PathBuf::from(path),
        cache_root,
        cfg: cfg.clone(),
        prefixes: None,
    };
    let (_, content_fp) = spec.content_fp().ok()?;
    let frame_path = spec.locate(INFERENCE_STAGE, content_fp).ok()?;
    let frame = MappedBytes::open(&frame_path).ok()?;
    let (view, _, _) = InferenceView::open(&frame).ok()?;
    let mut rels = RelationshipMap::new();
    for (link, rel) in view.rels.iter() {
        match rel {
            LinkRel::AC2pB => rels.insert_c2p(link.a, link.b),
            LinkRel::AP2cB => rels.insert_c2p(link.b, link.a),
            LinkRel::P2p => rels.insert_p2p(link.a, link.b),
            LinkRel::S2s => rels.insert_s2s(link.a, link.b),
        }
    }
    Some(rels)
}

/// Load a relationship map from either an as-rel text file or — when the
/// path ends in `.mrt` — an MRT RIB, in which case the relationships are
/// inferred through the staged engine under `cfg` (its IXP list and
/// thread budget). This lets `validate` and `diff` consume raw RIBs
/// directly without a separate `infer --out` round trip. With a warm
/// cache the inference frame is read through a borrowed view
/// ([`cached_rels`]) and the decode/re-infer path is skipped entirely.
pub fn rels_from(path: &str, cfg: &InferenceConfig) -> Option<RelationshipMap> {
    if path.ends_with(".mrt") {
        if let Some(rels) = cached_rels(path, cfg) {
            return Some(rels);
        }
        let paths = match load_rib(path, cfg.parallelism) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return None;
            }
        };
        let mut snap = Snapshot::new(&paths, cfg.clone());
        return match snap.inference() {
            Ok(inf) => Some(inf.relationships.clone()),
            Err(e) => {
                eprintln!("inference over {path} failed: {e}");
                None
            }
        };
    }
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{}", EngineError::ingest(path, e.to_string()));
            return None;
        }
    };
    match read_as_rel(std::io::BufReader::new(file)) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("{}", EngineError::ingest(path, e.to_string()));
            None
        }
    }
}
