//! The cold batch path users run on every RIB, called in-process:
//! `asrank infer --rib R --topo T --cache-dir C --out as-rel.txt`.

use crate::scenario::{load_topo, Inputs};
use crate::trace::{intern, span};
use asrank_core::engine::Snapshot;
use asrank_core::pipeline::{Inference, InferenceConfig};
use asrank_core::{write_as_rel, Artifact, CacheDir, CustomerCones};
use asrank_serve::RIB_INGEST_STAGE;
use asrank_types::{checksum64, Asn, Ipv4Prefix, PathSet};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// What one cold run leaves in memory: the decoded paths and every
/// stage's artifact in DAG order.
pub struct Inferred {
    /// The decoded RIB.
    pub paths: PathSet,
    /// One artifact per [`Snapshot::stage_names`] entry.
    pub artifacts: Vec<Artifact>,
}

impl Inferred {
    /// The S11 inference.
    pub fn inference(&self) -> Arc<Inference> {
        self.artifacts
            .iter()
            .find_map(|a| match a {
                Artifact::Inference(i) => Some(Arc::clone(i)),
                _ => None,
            })
            .expect("the stage list includes s11_inference")
    }

    /// The recursive, BGP-observed and provider/peer cones, in the order
    /// `asrank_serve::ConeFlavor::ALL` lists them.
    pub fn cones(&self) -> Vec<Arc<CustomerCones>> {
        self.artifacts
            .iter()
            .filter_map(|a| match a {
                Artifact::Cone(c) => Some(Arc::clone(c)),
                _ => None,
            })
            .collect()
    }
}

/// One cold infer of `inputs.rib` into the cache at `cache`, writing the
/// as-rel file to `as_rel` when given. Mirrors the CLI: read and checksum
/// the file, decode it on every core, store the decoded path set under
/// the ingest key, read the topology bundle, then materialize every
/// stage through a snapshot with the cache attached (so each stage's
/// frame is written as it lands).
pub fn infer_rib(inputs: &Inputs, cache: &Path, as_rel: Option<&Path>) -> Result<Inferred, String> {
    let bytes = {
        let _s = span("io.read_rib");
        std::fs::read(&inputs.rib).map_err(|e| format!("reading {}: {e}", inputs.rib.display()))?
    };
    let key = {
        let _s = span("persist.checksum");
        checksum64(&bytes)
    };
    let paths = {
        let _s = span("mrt.rib_decode");
        mrt_codec::read_rib_dump_parallel(&bytes, inputs.cfg.parallelism)
            .map_err(|e| format!("decoding the RIB: {e}"))?
    };
    drop(bytes);
    {
        let _s = span("persist.store_paths");
        if !CacheDir::new(cache).store_paths(RIB_INGEST_STAGE, key, &paths) {
            return Err(format!(
                "storing the ingest frame under {}",
                cache.display()
            ));
        }
    }
    let (cfg, prefixes) = load_topo(&inputs.topo)?;
    let artifacts = run_engine(&paths, &cfg, &prefixes, Some(cache), Some(""))?;
    let inferred = Inferred { paths, artifacts };
    if let Some(out) = as_rel {
        let _s = span("io.write_as_rel");
        let file =
            std::fs::File::create(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
        let mut w = std::io::BufWriter::new(file);
        write_as_rel(&inferred.inference().relationships, &mut w)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        w.flush()
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    Ok(inferred)
}

/// Materialize all sixteen stages in DAG order, each call in its own
/// span `engine.<stage><suffix>` (none when `stage_suffix` is `None`),
/// all inside `engine.total<suffix>`.
pub fn run_engine(
    paths: &PathSet,
    cfg: &InferenceConfig,
    prefixes: &HashMap<Asn, Vec<Ipv4Prefix>>,
    cache: Option<&Path>,
    stage_suffix: Option<&str>,
) -> Result<Vec<Artifact>, String> {
    let names = Snapshot::stage_names();
    let spans: Vec<Option<&'static str>> = names
        .iter()
        .map(|n| stage_suffix.map(|s| intern(&format!("engine.{n}{s}"))))
        .collect();
    let _total = stage_suffix.map(|s| span(intern(&format!("engine.total{s}"))));
    let mut snap = Snapshot::new(paths, cfg.clone()).with_prefixes(prefixes.clone());
    if let Some(dir) = cache {
        snap = snap.with_cache_dir(dir);
    }
    let mut artifacts = Vec::with_capacity(names.len());
    for (name, span_name) in names.iter().zip(spans) {
        let _s = span_name.map(span);
        artifacts.push(
            snap.materialize(name)
                .map_err(|e| format!("stage {name}: {e}"))?,
        );
    }
    Ok(artifacts)
}
