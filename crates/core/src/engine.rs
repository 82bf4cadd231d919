//! The staged inference engine: a memoized DAG over the paper's pipeline.
//!
//! The ASRank algorithm is naturally a DAG of stages — sanitize (S1),
//! transit-degree rank (S2), clique (S3), the relationship steps S4–S10,
//! the S11 cycle audit, and the three customer-cone flavors — but the
//! original `pipeline::infer` ran it as one monolithic batch call that
//! every consumer repeated from scratch. This module splits the pipeline
//! into declared [`StageSpec`] nodes executed by a [`Snapshot`]: one
//! dataset and one fixed configuration, with one [`ArtifactStore`] slot
//! per stage memoizing its output, so a second query over the same
//! snapshot pulls artifacts instead of recomputing them.
//!
//! **Fingerprint rules.** The paper's parameters are constants beside
//! the steps that read them, so a snapshot's configuration is only the
//! IXP list, the thread budget and the optional per-AS prefix table.
//! Each stage's fingerprint is
//! `fp(stage) = mix(stage name, own config subset, fp(inputs)...)`,
//! computed once per snapshot for the keys of a persistent cache:
//!
//! * only S1 (the sorted IXP list) and the three cone stages (the
//!   prefix table, hashed once in sorted order) hash any configuration;
//!   every other stage's subset hash is 0;
//! * input fingerprints chain, so a new IXP list moves every key, while
//!   a new prefix table moves only the cones' keys and every frame
//!   upstream of them is reused;
//! * [`Parallelism`] is deliberately **excluded** from every subset:
//!   results are identical for every thread budget, so a thread-count
//!   change must (and does) hit the cache.
//!
//! Step variants (leaving S4, S6, S7, S8 or S9 out) are not engine
//! configuration: the reference pipeline
//! [`crate::pipeline::infer_monolithic`] takes the step to skip.
//!
//! Every stage run is instrumented (wall time, cache hits/misses, item
//! count, approximate artifact bytes) and exposed as a [`StageReport`]
//! with a deterministic JSON rendering for the bench tooling.
//!
//! Failures surface as [`EngineError`] values naming the stage — the
//! engine path never panics on malformed input.

use crate::clique::infer_clique_from_arena;
use crate::cone::CustomerCones;
use crate::degree::DegreeTable;
use crate::patharena::PathArena;
use crate::pipeline::{steps, Inference, InferenceConfig, InferenceReport};
use crate::sanitize::{sanitize_with, SanitizedPaths};
use asrank_types::prelude::*;
use asrank_types::{EngineError, FxHasher};
use std::collections::{HashMap, HashSet};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

/// S4 output: the poison-filter verdict over the arena's distinct paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeptPaths {
    /// `kept[p]` is false when distinct path `p` was discarded as
    /// poisoned. Always `arena.len()` entries.
    pub kept: Vec<bool>,
    /// Number of discarded paths (the S4 report counter).
    pub discarded: usize,
}

/// Intermediate relationship state threaded through stages S5–S10: the
/// working map plus the per-step counters accumulated so far.
#[derive(Debug, Clone, PartialEq)]
pub struct StepState {
    /// Relationship assignments inferred so far.
    pub rels: RelationshipMap,
    /// Step counters accumulated so far (sanitize totals are filled in
    /// by the S11 assembly stage).
    pub report: InferenceReport,
}

/// A memoized stage output. Payloads are `Arc`-shared: cloning an
/// artifact (out of the store, or into a stage's input list) is a
/// refcount bump, never a data copy.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// S1 output: cleaned samples + sanitize counters.
    Sanitized(Arc<SanitizedPaths>),
    /// S2 output: transit/node degrees and the visiting order.
    Degrees(Arc<DegreeTable>),
    /// S3 output: the Tier-1 clique, sorted by ASN.
    Clique(Arc<Vec<Asn>>),
    /// The interned path arena shared by S4–S10 and the observed cones.
    Arena(Arc<PathArena>),
    /// S4 output: kept-mask over the arena's distinct paths.
    Kept(Arc<KeptPaths>),
    /// Distinct observed links of the kept paths (shared by S8/S10).
    Links(Arc<Vec<AsLink>>),
    /// Relationship state after one of S5–S10.
    Steps(Arc<StepState>),
    /// S11 output: the assembled [`Inference`].
    Inference(Arc<Inference>),
    /// One customer-cone flavor.
    Cone(Arc<CustomerCones>),
}

/// A payload type one [`Artifact`] variant carries — what
/// [`Artifact::payload`] downcasts to.
pub(crate) trait Payload {
    /// The variant's [`Artifact::kind`] name.
    const KIND: &'static str;
    /// The payload, when `artifact` is this type's variant.
    fn of(artifact: &Artifact) -> Option<&Arc<Self>>;
}

/// One table of `variant(payload type) = kind name` rows: generates
/// [`Artifact::kind`] and a [`Payload`] impl per row.
macro_rules! payloads {
    ($($variant:ident($ty:ty) = $kind:literal),* $(,)?) => {
        impl Artifact {
            /// Short kind name used in error messages and the stage report.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Artifact::$variant(_) => $kind,)*
                }
            }
        }
        $(
            impl Payload for $ty {
                const KIND: &'static str = $kind;
                fn of(artifact: &Artifact) -> Option<&Arc<Self>> {
                    match artifact {
                        Artifact::$variant(x) => Some(x),
                        _ => None,
                    }
                }
            }
        )*
    };
}

payloads! {
    Sanitized(SanitizedPaths) = "sanitized",
    Degrees(DegreeTable) = "degrees",
    Clique(Vec<Asn>) = "clique",
    Arena(PathArena) = "arena",
    Kept(KeptPaths) = "kept",
    Links(Vec<AsLink>) = "links",
    Steps(StepState) = "steps",
    Inference(Inference) = "inference",
    Cone(CustomerCones) = "cone",
}

impl Artifact {
    /// The payload as a `T`, or an [`EngineError::ArtifactType`] naming
    /// `stage` when this is another kind — the one downcast every
    /// consumer uses, so a wiring bug surfaces as an error, not a panic.
    pub(crate) fn payload<T: Payload>(&self, stage: &str) -> Result<&Arc<T>, EngineError> {
        T::of(self).ok_or_else(|| EngineError::ArtifactType {
            stage: stage.to_string(),
            expected: T::KIND.to_string(),
            got: self.kind().to_string(),
        })
    }

    /// Number of primary items in the artifact (paths, ASes, links, …) —
    /// the unit the stage report counts.
    pub fn items(&self) -> u64 {
        match self {
            Artifact::Sanitized(s) => s.len() as u64,
            Artifact::Degrees(d) => d.len() as u64,
            Artifact::Clique(c) => c.len() as u64,
            Artifact::Arena(a) => a.len() as u64,
            Artifact::Kept(k) => k.kept.iter().filter(|&&b| b).count() as u64,
            Artifact::Links(l) => l.len() as u64,
            Artifact::Steps(s) => s.rels.len() as u64,
            Artifact::Inference(i) => i.relationships.len() as u64,
            Artifact::Cone(c) => c.len() as u64,
        }
    }

    /// Approximate heap size of the artifact in bytes, for the stage
    /// report. This is an estimate from item counts and fixed per-item
    /// costs, not an allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Artifact::Sanitized(s) => {
                let words = s.vp.len() + s.offsets.len() + s.hops.len();
                (words * 4 + s.prefix.len() * std::mem::size_of::<Ipv4Prefix>()) as u64
            }
            Artifact::Degrees(d) => (d.len() * 40) as u64,
            Artifact::Clique(c) => (c.len() * 4) as u64,
            Artifact::Arena(a) => a.approx_bytes() as u64,
            Artifact::Kept(k) => k.kept.len() as u64,
            Artifact::Links(l) => (l.len() * 8) as u64,
            Artifact::Steps(s) => (s.rels.len() * 16) as u64,
            Artifact::Inference(i) => {
                (i.relationships.len() * 16 + i.degrees.len() * 40) as u64
            }
            Artifact::Cone(c) => (c.len() * 24) as u64,
        }
    }
}

/// Per-stage instrumentation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage body actually executed.
    pub runs: u64,
    /// Materialization requests answered from the store.
    pub hits: u64,
    /// Materialization requests that required running the stage.
    pub misses: u64,
    /// Total wall time spent inside the stage body, nanoseconds.
    pub wall_ns: u64,
    /// Item count of the most recent output (see [`Artifact::items`]).
    pub items: u64,
    /// Approximate bytes of the most recent output.
    pub bytes: u64,
    /// Materialization requests answered from the persistent cache
    /// (in-memory miss, `--cache-dir` frame decoded instead of running
    /// the stage body).
    pub disk_hits: u64,
    /// Stage outputs spilled to the persistent cache.
    pub disk_stores: u64,
    /// Spills to the persistent cache that failed (the directory could
    /// not be created or the frame not written). The stage output is
    /// still kept in memory; only the next process loses the reuse.
    pub disk_store_failures: u64,
    /// Delta runs that reused the previous emission's artifact because
    /// no input aspect of this stage was dirty.
    pub delta_skipped: u64,
    /// Delta runs that re-executed this stage (body or incremental
    /// provider) because an input aspect was dirty.
    pub delta_recomputed: u64,
}

/// Immutable per-snapshot environment handed to stage bodies.
struct Env<'a> {
    paths: &'a PathSet,
    cfg: InferenceConfig,
    prefixes: Option<HashMap<Asn, Vec<Ipv4Prefix>>>,
    /// Fingerprint of `prefixes`, mixed into the cone stages only.
    prefix_fp: u64,
}

/// The fingerprint-visible slice of the environment: exactly what a
/// stage's config-subset hash may read. Deliberately **path-free** —
/// cache keys must be computable from configuration alone, so a serving
/// process can resolve the exact on-disk frame for a stage without ever
/// materializing the `PathSet` (see [`stage_disk_key`]).
struct FpCtx<'c> {
    cfg: &'c InferenceConfig,
    prefix_fp: u64,
}

impl<'a> Env<'a> {
    fn fp_ctx(&self) -> FpCtx<'_> {
        FpCtx {
            cfg: &self.cfg,
            prefix_fp: self.prefix_fp,
        }
    }
}

/// One node of the stage DAG: a name, the stages it consumes, the dirt
/// aspects it reads, the config subset entering its fingerprint, and a
/// pure body. The entry is the only statement of the node's edges: the
/// fingerprint chain, cold materialization and the delta run's dirty
/// rule all derive from it.
struct StageSpec {
    name: &'static str,
    /// Indices into [`STAGES`] of the artifacts this stage consumes, in
    /// the order the body expects them.
    inputs: &'static [usize],
    /// The [`dirt`] aspects this stage reads. A delta run recomputes the
    /// stage when one of them is dirty or an input's artifact changed.
    reads: u8,
    /// Hash of the config subset this stage reads (0 when it reads none).
    cfg_fp: fn(&FpCtx) -> u64,
    /// The stage body. Pure: output depends only on `env` and `inputs`.
    run: fn(&Env, &Inputs) -> Result<Artifact, EngineError>,
}

/// Dirt aspects: the bits of a delta run's dirt mask and of
/// [`StageSpec::reads`]. They are finer than whole-artifact changes,
/// which is why a batch that only moves samples between known paths
/// leaves almost the whole DAG untouched. S1, the arena and S11 never
/// mark their artifact changed; their consumers read them through
/// these aspects instead.
pub(crate) mod dirt {
    /// Some sanitized sample changed (content, addition, or removal).
    pub(crate) const SAMPLES: u8 = 1;
    /// The distinct clean path set changed.
    pub(crate) const STRUCTURE: u8 = 1 << 1;
    /// S1's sanitize counters changed (S11 embeds them).
    pub(crate) const REPORT: u8 = 1 << 2;
    /// S11's relationship map changed (the cones read nothing else
    /// from it).
    pub(crate) const RELS: u8 = 1 << 3;
}

// Stage indices. Order is topological; `STAGES[i].inputs` only contains
// indices < i.
pub(crate) const S1_SANITIZE: usize = 0;
pub(crate) const PATH_ARENA: usize = 1;
pub(crate) const S2_DEGREES: usize = 2;
pub(crate) const S3_CLIQUE: usize = 3;
pub(crate) const S4_POISON: usize = 4;
pub(crate) const OBSERVED_LINKS: usize = 5;
pub(crate) const S5_TOPDOWN: usize = 6;
pub(crate) const S6_VP_PROVIDERS: usize = 7;
pub(crate) const S7_ANOMALY_REPAIR: usize = 8;
pub(crate) const S8_STUB_CLIQUE: usize = 9;
pub(crate) const S9_PROVIDERLESS: usize = 10;
pub(crate) const S10_P2P: usize = 11;
pub(crate) const S11_INFERENCE: usize = 12;
pub(crate) const CONE_RECURSIVE: usize = 13;
pub(crate) const CONE_BGP_OBSERVED: usize = 14;
pub(crate) const CONE_PROVIDER_PEER: usize = 15;

/// The stage DAG, in topological order.
static STAGES: &[StageSpec] = &[
    StageSpec {
        name: "s1_sanitize",
        inputs: &[],
        reads: dirt::SAMPLES,
        cfg_fp: fp_sanitize,
        run: run_sanitize,
    },
    StageSpec {
        name: "path_arena",
        inputs: &[S1_SANITIZE],
        reads: dirt::STRUCTURE,
        cfg_fp: fp_none,
        run: run_arena,
    },
    StageSpec {
        name: "s2_degrees",
        inputs: &[PATH_ARENA],
        reads: dirt::STRUCTURE,
        cfg_fp: fp_none,
        run: run_degrees,
    },
    StageSpec {
        name: "s3_clique",
        inputs: &[PATH_ARENA, S2_DEGREES],
        reads: dirt::STRUCTURE,
        cfg_fp: fp_none,
        run: run_clique,
    },
    StageSpec {
        name: "s4_poison",
        inputs: &[PATH_ARENA, S3_CLIQUE],
        reads: dirt::STRUCTURE,
        cfg_fp: fp_none,
        run: run_poison,
    },
    StageSpec {
        name: "observed_links",
        inputs: &[PATH_ARENA, S4_POISON],
        reads: dirt::STRUCTURE,
        cfg_fp: fp_none,
        run: run_links,
    },
    StageSpec {
        name: "s5_topdown",
        inputs: &[PATH_ARENA, S4_POISON, S2_DEGREES, S3_CLIQUE],
        reads: dirt::STRUCTURE,
        cfg_fp: fp_none,
        run: run_topdown,
    },
    StageSpec {
        name: "s6_vp_providers",
        inputs: &[S5_TOPDOWN, S1_SANITIZE, S2_DEGREES],
        reads: dirt::SAMPLES,
        cfg_fp: fp_none,
        run: run_vp_providers,
    },
    StageSpec {
        name: "s7_anomaly_repair",
        inputs: &[S6_VP_PROVIDERS, S2_DEGREES],
        reads: 0,
        cfg_fp: fp_none,
        run: run_anomaly_repair,
    },
    StageSpec {
        name: "s8_stub_clique",
        inputs: &[S7_ANOMALY_REPAIR, OBSERVED_LINKS, S2_DEGREES, S3_CLIQUE],
        reads: 0,
        cfg_fp: fp_none,
        run: run_stub_clique,
    },
    StageSpec {
        name: "s9_providerless",
        inputs: &[S8_STUB_CLIQUE, PATH_ARENA, S4_POISON, S2_DEGREES, S3_CLIQUE],
        reads: dirt::STRUCTURE,
        cfg_fp: fp_none,
        run: run_providerless,
    },
    StageSpec {
        name: "s10_p2p",
        inputs: &[S9_PROVIDERLESS, OBSERVED_LINKS],
        reads: 0,
        cfg_fp: fp_none,
        run: run_p2p,
    },
    StageSpec {
        name: "s11_inference",
        inputs: &[S10_P2P, S1_SANITIZE, S2_DEGREES, S3_CLIQUE],
        reads: dirt::REPORT,
        cfg_fp: fp_none,
        run: run_inference,
    },
    StageSpec {
        name: "cone_recursive",
        inputs: &[S11_INFERENCE],
        reads: dirt::RELS,
        cfg_fp: fp_prefixes,
        run: run_cone_recursive,
    },
    StageSpec {
        name: "cone_bgp_observed",
        inputs: &[S11_INFERENCE, PATH_ARENA],
        reads: dirt::RELS | dirt::STRUCTURE,
        cfg_fp: fp_prefixes,
        run: run_cone_bgp,
    },
    StageSpec {
        name: "cone_provider_peer",
        inputs: &[S11_INFERENCE, PATH_ARENA],
        reads: dirt::RELS | dirt::STRUCTURE,
        cfg_fp: fp_prefixes,
        run: run_cone_provider_peer,
    },
];

// ---------------------------------------------------------------------
// Config-subset fingerprints. Parallelism never enters a fingerprint:
// results are identical for every thread budget.

fn fp_none(_ctx: &FpCtx) -> u64 {
    0
}

fn fp_sanitize(ctx: &FpCtx) -> u64 {
    let mut h = FxHasher::default();
    let mut ixps: Vec<Asn> = ctx.cfg.sanitize.ixp_asns.iter().copied().collect();
    ixps.sort_unstable();
    for a in ixps {
        h.write_u32(a.0);
    }
    h.finish()
}

fn fp_prefixes(ctx: &FpCtx) -> u64 {
    ctx.prefix_fp
}

/// Chained fingerprint of every stage under a fingerprint context, in
/// [`STAGES`] order: `mix(stage name, own config subset, fp(inputs)...)`.
/// This is the one definition both [`Snapshot`] and [`stage_disk_key`]
/// use, so a key computed without a dataset is bit-identical to the key
/// the engine writes under.
fn fingerprints(ctx: &FpCtx) -> Vec<u64> {
    let mut fps: Vec<u64> = Vec::with_capacity(STAGES.len());
    for spec in STAGES {
        let mut h = FxHasher::default();
        h.write(spec.name.as_bytes());
        h.write_u64((spec.cfg_fp)(ctx));
        for &j in spec.inputs {
            h.write_u64(fps[j]);
        }
        fps.push(h.finish());
    }
    fps
}

fn mix_disk_key(content_fp: u64, fp: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(content_fp);
    h.write_u64(fp);
    h.finish()
}

/// The exact on-disk [`crate::persist::CacheDir`] key a snapshot uses
/// for `stage`, computed **without the dataset**: configuration, the
/// optional per-AS prefix table, and the dataset's content fingerprint
/// ([`crate::persist::pathset_fingerprint`], or the copy a PATHSET
/// frame records, [`crate::persist::pathset_fingerprint_from_frame`]) fully
/// determine it. `None` for unknown stage names.
///
/// This is what lets `asrank serve` map cache frames directly: resolve
/// the RIB's content fingerprint from the ingest cache frame, then ask
/// for each stage's key — no `PathSet`, no engine run. A caller keying
/// several stages builds one [`StageKeys`] instead.
pub fn stage_disk_key(
    stage: &str,
    cfg: &InferenceConfig,
    prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>,
    content_fp: u64,
) -> Option<u64> {
    StageKeys::new(cfg, prefixes).disk_key(stage, content_fp)
}

/// Every stage's chained fingerprint under one configuration and prefix
/// table: [`stage_disk_key`] with the prefix table hashed and the stage
/// chain mixed once, for any number of stages and content fingerprints.
#[derive(Debug, Clone)]
pub struct StageKeys {
    fps: Vec<u64>,
}

impl StageKeys {
    /// Hash `prefixes` and chain every stage's fingerprint under `cfg`.
    pub fn new(cfg: &InferenceConfig, prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>) -> Self {
        let ctx = FpCtx {
            cfg,
            prefix_fp: hash_prefixes(prefixes),
        };
        StageKeys {
            fps: fingerprints(&ctx),
        }
    }

    /// The on-disk key of `stage` for a dataset with `content_fp`;
    /// `None` for unknown stage names.
    pub fn disk_key(&self, stage: &str, content_fp: u64) -> Option<u64> {
        let idx = STAGES.iter().position(|s| s.name == stage)?;
        Some(mix_disk_key(content_fp, self.fps[idx]))
    }
}

/// Hash the optional per-AS prefix table in sorted (deterministic) order:
/// ASes ascending, each AS's prefixes ascending. A list that is already
/// sorted, as loaded tables are, is hashed in place; only an unsorted
/// one is copied and sorted. Every serve reload pays this once.
fn hash_prefixes(prefixes: Option<&HashMap<Asn, Vec<Ipv4Prefix>>>) -> u64 {
    let Some(table) = prefixes else { return 1 };
    let mut h = FxHasher::default();
    let mut entries: Vec<(Asn, &[Ipv4Prefix])> = table
        .iter()
        .map(|(&a, list)| (a, list.as_slice()))
        .collect();
    entries.sort_unstable_by_key(|&(a, _)| a);
    let mut unsorted = Vec::new();
    for (a, list) in entries {
        h.write_u32(a.0);
        let sorted = if list.is_sorted() {
            list
        } else {
            unsorted.clear();
            unsorted.extend_from_slice(list);
            unsorted.sort_unstable();
            &unsorted
        };
        for p in sorted {
            h.write_u32(p.network());
            h.write_u8(p.len());
        }
    }
    // Avoid colliding an empty table with the no-table case (hash 1) or
    // the no-config case (0).
    h.write_u8(2);
    h.finish()
}

/// A stage body's resolved inputs, in [`StageSpec::inputs`] order.
struct Inputs<'x> {
    stage: &'static str,
    artifacts: &'x [Artifact],
}

impl<'x> Inputs<'x> {
    /// Input `i`, downcast to its payload. A missing or mistyped input
    /// is an [`EngineError`] naming the stage.
    fn get<T: Payload>(&self, i: usize) -> Result<&'x Arc<T>, EngineError> {
        self.artifacts
            .get(i)
            .ok_or_else(|| {
                EngineError::stage_failed(self.stage, format!("missing declared input #{i}"))
            })?
            .payload(self.stage)
    }
}

// ---------------------------------------------------------------------
// Stage bodies. Together they compute exactly what the arena-free
// oracle pipeline::infer_monolithic computes through the path-slice
// step definitions (pinned by the engine-equivalence tests).

fn run_sanitize(env: &Env, _inputs: &Inputs) -> Result<Artifact, EngineError> {
    Ok(Artifact::Sanitized(Arc::new(sanitize_with(
        env.paths,
        &env.cfg.sanitize,
        env.cfg.parallelism,
    ))))
}

fn run_arena(env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let sanitized = inputs.get::<SanitizedPaths>(0)?;
    Ok(Artifact::Arena(Arc::new(PathArena::build(
        sanitized,
        env.cfg.parallelism,
    ))))
}

fn run_degrees(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let arena = inputs.get::<PathArena>(0)?;
    Ok(Artifact::Degrees(Arc::new(DegreeTable::from_arena(arena))))
}

fn run_clique(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let arena = inputs.get::<PathArena>(0)?;
    let degrees = inputs.get::<DegreeTable>(1)?;
    Ok(Artifact::Clique(Arc::new(infer_clique_from_arena(
        arena, degrees,
    ))))
}

/// Dense clique-membership mask over the arena's id space. Clique
/// members that appear in no path can never match a hop, so dropping
/// them from the mask is exact.
fn clique_mask_for(arena: &PathArena, clique: &[Asn]) -> Vec<bool> {
    let interner = arena.interner();
    let mut mask = vec![false; interner.len()];
    for &a in clique {
        if let Some(id) = interner.get(a) {
            mask[id as usize] = true;
        }
    }
    mask
}

fn run_poison(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let arena = inputs.get::<PathArena>(0)?;
    let clique = inputs.get::<Vec<Asn>>(1)?;
    let mut kept = vec![true; arena.len()];
    let mut discarded = 0usize;
    let clique_mask = clique_mask_for(arena, clique);
    for (p, keep) in kept.iter_mut().enumerate() {
        if steps::is_poisoned_ids(arena.path(p), &clique_mask) {
            *keep = false;
            discarded += 1;
        }
    }
    Ok(Artifact::Kept(Arc::new(KeptPaths { kept, discarded })))
}

fn run_links(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let arena = inputs.get::<PathArena>(0)?;
    let kept = inputs.get::<KeptPaths>(1)?;
    Ok(Artifact::Links(Arc::new(steps::observed_links_arena(
        arena, &kept.kept,
    ))))
}

fn run_topdown(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let arena = inputs.get::<PathArena>(0)?;
    let kept = inputs.get::<KeptPaths>(1)?;
    let degrees = inputs.get::<DegreeTable>(2)?;
    let clique = inputs.get::<Vec<Asn>>(3)?;

    let mut report = InferenceReport {
        discarded_poisoned: kept.discarded,
        ..Default::default()
    };
    let mut rels = RelationshipMap::new();
    // Clique links are p2p by construction.
    for (i, &a) in clique.iter().enumerate() {
        for &b in &clique[i + 1..] {
            rels.insert_p2p(a, b);
        }
    }
    let clique_mask = clique_mask_for(arena, clique);
    steps::infer_topdown_arena(arena, &kept.kept, degrees, &clique_mask, &mut rels, &mut report);
    Ok(Artifact::Steps(Arc::new(StepState { rels, report })))
}

fn run_vp_providers(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let prev = inputs.get::<StepState>(0)?;
    let sanitized = inputs.get::<SanitizedPaths>(1)?;
    let degrees = inputs.get::<DegreeTable>(2)?;
    let mut state = StepState::clone(prev);
    steps::infer_vp_providers(sanitized, degrees, &mut state.rels, &mut state.report);
    Ok(Artifact::Steps(Arc::new(state)))
}

fn run_anomaly_repair(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let prev = inputs.get::<StepState>(0)?;
    let degrees = inputs.get::<DegreeTable>(1)?;
    let mut state = StepState::clone(prev);
    steps::repair_anomalies(degrees, &mut state.rels, &mut state.report);
    Ok(Artifact::Steps(Arc::new(state)))
}

fn run_stub_clique(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let prev = inputs.get::<StepState>(0)?;
    let links = inputs.get::<Vec<AsLink>>(1)?;
    let degrees = inputs.get::<DegreeTable>(2)?;
    let clique = inputs.get::<Vec<Asn>>(3)?;
    let clique_set: HashSet<Asn> = clique.iter().copied().collect();
    let mut state = StepState::clone(prev);
    steps::stub_clique_over(links, degrees, &clique_set, &mut state.rels, &mut state.report);
    Ok(Artifact::Steps(Arc::new(state)))
}

fn run_providerless(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let prev = inputs.get::<StepState>(0)?;
    let arena = inputs.get::<PathArena>(1)?;
    let kept = inputs.get::<KeptPaths>(2)?;
    let degrees = inputs.get::<DegreeTable>(3)?;
    let clique = inputs.get::<Vec<Asn>>(4)?;
    let clique_set: HashSet<Asn> = clique.iter().copied().collect();
    let mut state = StepState::clone(prev);
    steps::infer_providerless_arena(
        arena,
        &kept.kept,
        degrees,
        &clique_set,
        &mut state.rels,
        &mut state.report,
    );
    Ok(Artifact::Steps(Arc::new(state)))
}

fn run_p2p(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let prev = inputs.get::<StepState>(0)?;
    let links = inputs.get::<Vec<AsLink>>(1)?;
    let mut state = StepState::clone(prev);
    steps::remaining_p2p_over(links, &mut state.rels, &mut state.report);
    Ok(Artifact::Steps(Arc::new(state)))
}

fn run_inference(_env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let state = inputs.get::<StepState>(0)?;
    let sanitized = inputs.get::<SanitizedPaths>(1)?;
    let degrees = inputs.get::<DegreeTable>(2)?;
    let clique = inputs.get::<Vec<Asn>>(3)?;

    let mut report = state.report;
    report.sanitize = sanitized.report;
    report.cycle_links = steps::try_audit_cycles(&state.rels)
        .map_err(|detail| EngineError::stage_failed("s11_inference", detail))?;
    report.total_links = state.rels.len();
    Ok(Artifact::Inference(Arc::new(Inference {
        relationships: state.rels.clone(),
        clique: Vec::clone(clique),
        degrees: DegreeTable::clone(degrees),
        report,
    })))
}

fn run_cone_recursive(env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let inf = inputs.get::<Inference>(0)?;
    Ok(Artifact::Cone(Arc::new(CustomerCones::recursive(
        &inf.relationships,
        env.prefixes.as_ref(),
    ))))
}

fn run_cone_bgp(env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let inf = inputs.get::<Inference>(0)?;
    let arena = inputs.get::<PathArena>(1)?;
    Ok(Artifact::Cone(Arc::new(CustomerCones::bgp_observed(
        arena,
        &inf.relationships,
        env.prefixes.as_ref(),
        env.cfg.parallelism,
    ))))
}

fn run_cone_provider_peer(env: &Env, inputs: &Inputs) -> Result<Artifact, EngineError> {
    let inf = inputs.get::<Inference>(0)?;
    let arena = inputs.get::<PathArena>(1)?;
    Ok(Artifact::Cone(Arc::new(CustomerCones::provider_peer_observed(
        arena,
        &inf.relationships,
        env.prefixes.as_ref(),
        env.cfg.parallelism,
    ))))
}

// ---------------------------------------------------------------------
// The store.

/// Typed artifact store: one output slot per stage (a snapshot's
/// configuration is fixed, so the stage index is the whole key), plus
/// per-stage instrumentation.
struct ArtifactStore {
    slots: Vec<Option<Artifact>>,
    stats: Vec<StageStats>,
}

impl ArtifactStore {
    fn new() -> Self {
        ArtifactStore {
            slots: vec![None; STAGES.len()],
            stats: vec![StageStats::default(); STAGES.len()],
        }
    }

    fn lookup(&mut self, idx: usize) -> Option<Artifact> {
        let found = self.peek(idx);
        if let Some(stat) = self.stats.get_mut(idx) {
            match found {
                Some(_) => stat.hits += 1,
                None => stat.misses += 1,
            }
        }
        found
    }

    /// Fetch without touching the hit/miss counters — the delta loop's
    /// input resolution, which must not distort the cache statistics the
    /// tests and bench reports pin.
    fn peek(&self, idx: usize) -> Option<Artifact> {
        self.slots.get(idx).cloned().flatten()
    }

    /// Enter `artifact` as stage `idx`'s output, counting how it was
    /// obtained. Only a run counts as a stage run: a disk hit or a delta
    /// skip makes the next request an ordinary hit without one.
    fn record(&mut self, idx: usize, artifact: &Artifact, source: Source) {
        if let Some(stat) = self.stats.get_mut(idx) {
            match source {
                Source::Run(wall_ns) => {
                    stat.runs += 1;
                    stat.wall_ns += wall_ns;
                }
                Source::DeltaRun(wall_ns) => {
                    stat.runs += 1;
                    stat.wall_ns += wall_ns;
                    stat.delta_recomputed += 1;
                }
                Source::Disk => stat.disk_hits += 1,
                Source::DeltaSkip => stat.delta_skipped += 1,
            }
            stat.items = artifact.items();
            stat.bytes = artifact.approx_bytes();
        }
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = Some(artifact.clone());
        }
    }
}

/// How a stage output entered the store.
#[derive(Clone, Copy)]
enum Source {
    /// The stage body ran (a cold materialization), taking this many
    /// nanoseconds.
    Run(u64),
    /// A delta run re-executed the stage (body or incremental provider),
    /// taking this many nanoseconds.
    DeltaRun(u64),
    /// A delta run reused the previous emission's artifact.
    DeltaSkip,
    /// Decoded from the persistent cache instead of running the stage.
    Disk,
}

// ---------------------------------------------------------------------
// The snapshot.

/// One dataset plus the memoized stage graph over it.
///
/// A `Snapshot` borrows the observed paths, owns the active
/// [`InferenceConfig`] and optional per-AS prefix table, and caches
/// every stage output in its [`ArtifactStore`]. Repeated queries — the
/// same accessor twice, or different accessors sharing upstream stages —
/// reuse artifacts instead of recomputing them. The configuration is
/// fixed for the snapshot's life; another configuration is another
/// snapshot, which a persistent cache lets reuse every frame whose key
/// did not move.
///
/// ```
/// use asrank_core::engine::Snapshot;
/// use asrank_core::pipeline::InferenceConfig;
/// use asrank_types::{AsPath, Asn, Ipv4Prefix, PathSample, PathSet};
///
/// let paths: PathSet = [[100, 10, 1, 2, 20, 200], [200, 20, 2, 1, 10, 100]]
///     .into_iter()
///     .enumerate()
///     .map(|(i, hops)| PathSample {
///         vp: Asn(hops[0]),
///         prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
///         path: AsPath::from_u32s(hops),
///     })
///     .collect();
///
/// let mut snap = Snapshot::new(&paths, InferenceConfig::default());
/// let inference = snap.inference().unwrap();
/// assert_eq!(inference.clique, vec![Asn(1), Asn(2)]);
///
/// // A second query over the same snapshot is answered from the store.
/// let again = snap.inference().unwrap();
/// assert_eq!(again.report, inference.report);
/// assert_eq!(snap.stage_report().get("s1_sanitize").map(|s| s.runs), Some(1));
/// ```
pub struct Snapshot<'a> {
    env: Env<'a>,
    store: ArtifactStore,
    /// Optional persistent spill/load tier under a `--cache-dir`.
    cache: Option<crate::persist::CacheDir>,
    /// Content hash of `env.paths`, mixed into every on-disk key (the
    /// stage fingerprints hash configuration only, and a cache directory
    /// outlives any one dataset). Computed once when a cache is
    /// attached, 0 otherwise.
    content_fp: u64,
    /// Every stage's chained fingerprint ([`fingerprints`]), computed
    /// when the configuration or prefix table is bound; only the on-disk
    /// keys read them.
    fps: Vec<u64>,
}

impl<'a> Snapshot<'a> {
    /// Bind a dataset and configuration into a fresh snapshot (empty
    /// store). When a process-wide cache directory has been set
    /// ([`crate::persist::set_process_cache_dir`] — the CLI's
    /// `--cache-dir`), the snapshot spills to and loads from it
    /// automatically.
    pub fn new(paths: &'a PathSet, cfg: InferenceConfig) -> Self {
        let env = Env {
            paths,
            cfg,
            prefixes: None,
            prefix_fp: hash_prefixes(None),
        };
        let snapshot = Snapshot {
            fps: fingerprints(&env.fp_ctx()),
            env,
            store: ArtifactStore::new(),
            cache: None,
            content_fp: 0,
        };
        match crate::persist::process_cache_dir() {
            Some(dir) => snapshot.with_cache_dir(dir),
            None => snapshot,
        }
    }

    /// Attach a persistent artifact cache rooted at `dir`: stage outputs
    /// spill to frame files there, and future snapshots over the same
    /// paths + config load them back instead of running stage bodies.
    /// Corrupt, truncated, or version-mismatched entries are silently
    /// recomputed and rewritten.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cache = Some(crate::persist::CacheDir::new(dir));
        self.content_fp = crate::persist::pathset_fingerprint(self.env.paths);
        self
    }

    /// The attached persistent cache directory, if any.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.cache.as_ref().map(|c| c.root())
    }

    /// Attach a per-AS prefix table (used by the cone stages to weight
    /// cones by prefixes/addresses), before the first materialization:
    /// the fingerprints are recomputed and the in-memory store cleared.
    /// Only the cone stages' on-disk keys move, so a cache directory
    /// warmed under another table still serves every other stage.
    pub fn with_prefixes(mut self, prefixes: HashMap<Asn, Vec<Ipv4Prefix>>) -> Self {
        self.env.prefix_fp = hash_prefixes(Some(&prefixes));
        self.env.prefixes = Some(prefixes);
        self.fps = fingerprints(&self.env.fp_ctx());
        self.store = ArtifactStore::new();
        self
    }

    /// Names of every stage, in DAG (topological) order.
    pub fn stage_names() -> Vec<&'static str> {
        STAGES.iter().map(|s| s.name).collect()
    }

    /// On-disk key for stage `idx`: its chained config fingerprint
    /// extended with the dataset content hash.
    fn disk_key(&self, idx: usize) -> u64 {
        mix_disk_key(self.content_fp, self.fps[idx])
    }

    fn materialize_idx(&mut self, idx: usize) -> Result<Artifact, EngineError> {
        let Some(spec) = STAGES.get(idx) else {
            return Err(EngineError::UnknownStage(format!("#{idx}")));
        };
        if let Some(found) = self.store.lookup(idx) {
            return Ok(found);
        }
        // Spill tier: an in-memory miss may still be answered from the
        // persistent cache — the warm-process path that materializes a
        // stage without touching any of its inputs.
        if let (Some(cache), Some(tag)) = (&self.cache, crate::persist::tag_for_stage(spec.name)) {
            if let Some(artifact) = cache.load(spec.name, self.disk_key(idx), tag) {
                self.store.record(idx, &artifact, Source::Disk);
                return Ok(artifact);
            }
        }
        let mut artifacts = Vec::with_capacity(spec.inputs.len());
        for &j in spec.inputs {
            artifacts.push(self.materialize_idx(j)?);
        }
        let started = Instant::now();
        let inputs = Inputs {
            stage: spec.name,
            artifacts: &artifacts,
        };
        let artifact = (spec.run)(&self.env, &inputs)?;
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.keep(idx, &artifact, Source::Run(wall_ns));
        Ok(artifact)
    }

    /// Enter `artifact` as stage `idx`'s output and spill it to the
    /// attached cache directory — the one write path for every stage
    /// output not loaded from that directory.
    fn keep(&mut self, idx: usize, artifact: &Artifact, source: Source) {
        self.store.record(idx, artifact, source);
        let Some(cache) = &self.cache else { return };
        let stored = cache.store(STAGES[idx].name, self.disk_key(idx), artifact);
        if let Some(stat) = self.store.stats.get_mut(idx) {
            if stored {
                stat.disk_stores += 1;
            } else {
                stat.disk_store_failures += 1;
            }
        }
    }

    /// Materialize a stage by name — the partial-materialization entry
    /// point (`asrank audit --stage`). Unknown names are an
    /// [`EngineError::UnknownStage`].
    pub fn materialize(&mut self, stage: &str) -> Result<Artifact, EngineError> {
        match STAGES.iter().position(|s| s.name == stage) {
            Some(idx) => self.materialize_idx(idx),
            None => Err(EngineError::UnknownStage(stage.to_string())),
        }
    }

    /// Materialize stage `idx` and downcast it to its payload.
    fn typed<T: Payload>(&mut self, idx: usize) -> Result<Arc<T>, EngineError> {
        let artifact = self.materialize_idx(idx)?;
        artifact.payload(STAGES[idx].name).map(Arc::clone)
    }

    /// S1 output: sanitized paths + counters.
    pub fn sanitized(&mut self) -> Result<Arc<SanitizedPaths>, EngineError> {
        self.typed(S1_SANITIZE)
    }

    /// S2 output: the degree table.
    pub fn degrees(&mut self) -> Result<Arc<DegreeTable>, EngineError> {
        self.typed(S2_DEGREES)
    }

    /// S3 output: the Tier-1 clique, sorted by ASN.
    pub fn clique(&mut self) -> Result<Arc<Vec<Asn>>, EngineError> {
        self.typed(S3_CLIQUE)
    }

    /// The shared interned path arena.
    pub fn arena(&mut self) -> Result<Arc<PathArena>, EngineError> {
        self.typed(PATH_ARENA)
    }

    /// S11 output: the full [`Inference`] (relationships, clique,
    /// degrees, report).
    pub fn inference(&mut self) -> Result<Arc<Inference>, EngineError> {
        self.typed(S11_INFERENCE)
    }

    /// The paper's recursive (transitive-closure) customer cone.
    pub fn recursive_cone(&mut self) -> Result<Arc<CustomerCones>, EngineError> {
        self.typed(CONE_RECURSIVE)
    }

    /// The BGP-observed customer cone.
    pub fn bgp_observed_cone(&mut self) -> Result<Arc<CustomerCones>, EngineError> {
        self.typed(CONE_BGP_OBSERVED)
    }

    /// The provider/peer-observed customer cone.
    pub fn provider_peer_cone(&mut self) -> Result<Arc<CustomerCones>, EngineError> {
        self.typed(CONE_PROVIDER_PEER)
    }

    /// All three cone flavors, materialized through the store.
    pub fn cones(
        &mut self,
    ) -> Result<(Arc<CustomerCones>, Arc<CustomerCones>, Arc<CustomerCones>), EngineError> {
        Ok((
            self.recursive_cone()?,
            self.bgp_observed_cone()?,
            self.provider_peer_cone()?,
        ))
    }

    /// The incremental propagation pass behind [`crate::delta::DeltaSession`]:
    /// walk the DAG in topological order and either inject the previous
    /// emission's artifact (a delta skip) or re-execute the stage (body,
    /// or an incremental provider for S1/S6) and compare the
    /// result against the previous artifact.
    ///
    /// `aspects` holds the [`dirt`] aspects the session's batches touched.
    /// Every stage's rule comes from its [`STAGES`] entry: it is dirty
    /// when an aspect it `reads` is dirty or an artifact it `inputs`
    /// changed. S1 and S11 add the aspects they publish (`REPORT`,
    /// `RELS`) to the mask instead of marking their artifact changed;
    /// the arena's changes are already `STRUCTURE`.
    ///
    /// Every other recomputed stage is content-compared against its
    /// previous artifact, so a dirty input whose recomputation lands on
    /// the same output cuts the propagation off immediately. Both
    /// skipped and recomputed artifacts are (re-)spilled to the attached
    /// cache directory, keeping the emission serve-ready under the new
    /// dataset content fingerprint.
    pub(crate) fn delta_run(
        &mut self,
        prev: &[Artifact],
        mut aspects: u8,
        provider: &mut dyn DeltaProvider,
    ) -> Result<(), EngineError> {
        if prev.len() != STAGES.len() {
            return Err(EngineError::stage_failed(
                "delta_run",
                format!("{} previous artifact(s) for {} stages", prev.len(), STAGES.len()),
            ));
        }
        let mut changed = vec![false; STAGES.len()];
        for (idx, spec) in STAGES.iter().enumerate() {
            if spec.reads & aspects == 0 && !spec.inputs.iter().any(|&j| changed[j]) {
                self.keep(idx, &prev[idx], Source::DeltaSkip);
                continue;
            }
            let started = Instant::now();
            let mut artifacts = Vec::with_capacity(spec.inputs.len());
            for &j in spec.inputs {
                artifacts.push(self.store.peek(j).ok_or_else(|| {
                    EngineError::stage_failed(
                        spec.name,
                        format!("delta run found no input #{j} in the store"),
                    )
                })?);
            }
            let inputs = Inputs {
                stage: spec.name,
                artifacts: &artifacts,
            };
            let artifact = match idx {
                S1_SANITIZE => Artifact::Sanitized(provider.sanitized()),
                S6_VP_PROVIDERS => {
                    Artifact::Steps(provider.vp_providers(inputs.get(0)?, inputs.get(2)?))
                }
                _ => (spec.run)(&self.env, &inputs)?,
            };
            let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // Content-equality cutoff. S1 and S11 publish the finer
            // aspects their consumers read, and the arena's are the
            // batch's own; comparing those whole artifacts would be the
            // most expensive checks for no consumer.
            match (idx, &artifact, &prev[idx]) {
                (S1_SANITIZE, Artifact::Sanitized(n), Artifact::Sanitized(p)) => {
                    if n.report != p.report {
                        aspects |= dirt::REPORT;
                    }
                }
                (PATH_ARENA, ..) => {}
                (S11_INFERENCE, Artifact::Inference(n), Artifact::Inference(p)) => {
                    if n.relationships != p.relationships {
                        aspects |= dirt::RELS;
                    }
                }
                _ => changed[idx] = !artifact_eq(&artifact, &prev[idx]),
            }
            self.keep(idx, &artifact, Source::DeltaRun(wall_ns));
        }
        Ok(())
    }

    /// Snapshot of the per-stage instrumentation counters.
    pub fn stage_report(&self) -> StageReport {
        StageReport {
            stages: STAGES
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    (
                        spec.name,
                        self.store.stats.get(i).copied().unwrap_or_default(),
                    )
                })
                .collect(),
        }
    }
}

/// The incremental recomputation hooks a delta run may call instead of
/// the full stage bodies. Implemented by [`crate::delta::DeltaSession`],
/// which owns the per-sample evidence (sanitize fates, the VP first-hop
/// counters) these providers are cheap with. Every other recomputed
/// stage, the arena, S2 and S3 included, reruns its body over the
/// artifacts the run already holds.
pub(crate) trait DeltaProvider {
    /// S1 without re-sanitizing: rebuild [`SanitizedPaths`] from cached
    /// per-sample fates.
    fn sanitized(&mut self) -> Arc<SanitizedPaths>;
    /// S6 without re-scanning every sample: classify over maintained
    /// `(vp, first hop)` distinct-prefix counters, starting from the
    /// current S5 state.
    fn vp_providers(&mut self, step: &Arc<StepState>, degrees: &Arc<DegreeTable>)
        -> Arc<StepState>;
}

/// Structural equality between two artifacts of the same stage — the
/// delta run's propagation cutoff. Arc-pointer equality short-circuits;
/// cones compare by pointer only (no stage consumes a cone, so a false
/// "changed" is harmless and a deep compare would be pure cost).
fn artifact_eq(a: &Artifact, b: &Artifact) -> bool {
    match (a, b) {
        (Artifact::Sanitized(x), Artifact::Sanitized(y)) => Arc::ptr_eq(x, y) || x == y,
        (Artifact::Degrees(x), Artifact::Degrees(y)) => Arc::ptr_eq(x, y) || x == y,
        (Artifact::Clique(x), Artifact::Clique(y)) => Arc::ptr_eq(x, y) || x == y,
        (Artifact::Arena(x), Artifact::Arena(y)) => Arc::ptr_eq(x, y) || x == y,
        (Artifact::Kept(x), Artifact::Kept(y)) => Arc::ptr_eq(x, y) || x == y,
        (Artifact::Links(x), Artifact::Links(y)) => Arc::ptr_eq(x, y) || x == y,
        (Artifact::Steps(x), Artifact::Steps(y)) => Arc::ptr_eq(x, y) || x == y,
        (Artifact::Inference(x), Artifact::Inference(y)) => {
            Arc::ptr_eq(x, y)
                || (x.relationships == y.relationships
                    && x.clique == y.clique
                    && x.degrees == y.degrees
                    && x.report == y.report)
        }
        (Artifact::Cone(x), Artifact::Cone(y)) => Arc::ptr_eq(x, y),
        _ => false,
    }
}

/// Per-stage instrumentation, in DAG order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageReport {
    /// `(stage name, counters)` in the DAG's topological order.
    pub stages: Vec<(&'static str, StageStats)>,
}

impl StageReport {
    /// Counters for one stage by name.
    pub fn get(&self, name: &str) -> Option<StageStats> {
        self.stages
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, s)| s)
    }

    /// Render as JSON with a fixed stage order and fixed key order:
    /// deterministic apart from the `wall_ns` values.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"stages\": [\n");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{name}\", \"runs\": {}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"disk_hits\": {}, \"disk_stores\": {}, \
                 \"disk_store_failures\": {}, \"wall_ns\": {}, \"items\": {}, \
                 \"bytes\": {}, \"delta_skipped\": {}, \"delta_recomputed\": {}}}{}\n",
                s.runs,
                s.hits,
                s.misses,
                s.disk_hits,
                s.disk_stores,
                s.disk_store_failures,
                s.wall_ns,
                s.items,
                s.bytes,
                s.delta_skipped,
                s.delta_recomputed,
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        let totals = self.stages.iter().fold(StageStats::default(), |mut t, &(_, s)| {
            t.runs += s.runs;
            t.hits += s.hits;
            t.misses += s.misses;
            t.disk_hits += s.disk_hits;
            t.disk_stores += s.disk_stores;
            t.disk_store_failures += s.disk_store_failures;
            t.wall_ns += s.wall_ns;
            t.delta_skipped += s.delta_skipped;
            t.delta_recomputed += s.delta_recomputed;
            t
        });
        out.push_str(&format!(
            "  ],\n  \"totals\": {{\"runs\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"disk_hits\": {}, \"disk_stores\": {}, \"disk_store_failures\": {}, \
             \"wall_ns\": {}, \"delta_skipped\": {}, \"delta_recomputed\": {}, \
             \"dirty_set_size\": {}}}\n}}\n",
            totals.runs,
            totals.hits,
            totals.misses,
            totals.disk_hits,
            totals.disk_stores,
            totals.disk_store_failures,
            totals.wall_ns,
            totals.delta_skipped,
            totals.delta_recomputed,
            totals.delta_recomputed
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::infer_monolithic;

    fn hierarchy_paths() -> PathSet {
        let routes: Vec<&[u32]> = vec![
            &[100, 10, 1, 11, 110],
            &[100, 10, 1, 2, 20, 200],
            &[100, 10, 1, 2, 21, 210],
            &[100, 10, 1, 2],
            &[210, 21, 2, 20, 200],
            &[210, 21, 2, 1, 10, 100],
            &[210, 21, 2, 1, 11, 110],
            &[210, 21, 2, 1],
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

    /// The prefix-table hash is part of every cone's disk key, so it must
    /// equal the clone-and-sort definition the keys were written under,
    /// for sorted and unsorted per-AS lists alike.
    #[test]
    fn prefix_table_hash_is_the_sorted_definition() {
        fn reference(table: &HashMap<Asn, Vec<Ipv4Prefix>>) -> u64 {
            let mut h = FxHasher::default();
            let mut keys: Vec<Asn> = table.keys().copied().collect();
            keys.sort_unstable();
            for a in keys {
                h.write_u32(a.0);
                let mut sorted = table[&a].clone();
                sorted.sort_unstable();
                for p in sorted {
                    h.write_u32(p.network());
                    h.write_u8(p.len());
                }
            }
            h.write_u8(2);
            h.finish()
        }
        let prefix = |net: u32, len: u8| Ipv4Prefix::new(net << 24, len).unwrap();
        let table: HashMap<Asn, Vec<Ipv4Prefix>> = [
            (Asn(30), vec![prefix(3, 8), prefix(3, 16), prefix(4, 8)]),
            (Asn(10), vec![prefix(9, 8), prefix(1, 8), prefix(5, 16)]),
            (Asn(20), vec![]),
            (Asn(40), vec![prefix(7, 8)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(hash_prefixes(Some(&table)), reference(&table));
        assert_eq!(
            hash_prefixes(Some(&HashMap::new())),
            reference(&HashMap::new())
        );
        assert_eq!(hash_prefixes(None), 1);
    }

    #[test]
    fn engine_matches_monolithic_on_fixture() {
        let paths = hierarchy_paths();
        let cfg = InferenceConfig::default();
        let mono = infer_monolithic(&paths, &cfg, None);
        let mut snap = Snapshot::new(&paths, cfg);
        let inf = snap.inference().unwrap();
        assert_eq!(inf.relationships, mono.relationships);
        assert_eq!(inf.clique, mono.clique);
        assert_eq!(inf.report, mono.report);
    }

    #[test]
    fn second_query_is_all_cache_hits() {
        let paths = hierarchy_paths();
        let mut snap = Snapshot::new(&paths, InferenceConfig::default());
        let first = snap.inference().unwrap();
        let before = snap.stage_report();
        let second = snap.inference().unwrap();
        let after = snap.stage_report();
        assert_eq!(first.report, second.report);
        for name in ["s1_sanitize", "s2_degrees", "path_arena", "s11_inference"] {
            let (b, a) = (before.get(name).unwrap(), after.get(name).unwrap());
            assert_eq!(a.runs, b.runs, "{name} re-ran on a warm store");
        }
        // The repeat materialization of s11 is a hit, not a miss.
        assert_eq!(
            after.get("s11_inference").unwrap().hits,
            before.get("s11_inference").unwrap().hits + 1
        );
        assert_eq!(
            after.get("s11_inference").unwrap().misses,
            before.get("s11_inference").unwrap().misses
        );
    }

    #[test]
    fn shared_upstream_stages_are_reused_across_accessors() {
        let paths = hierarchy_paths();
        let mut snap = Snapshot::new(&paths, InferenceConfig::default());
        snap.inference().unwrap();
        snap.cones().unwrap();
        let report = snap.stage_report();
        // The cones pulled s11 + arena from the store: still one run each.
        assert_eq!(report.get("s1_sanitize").unwrap().runs, 1);
        assert_eq!(report.get("path_arena").unwrap().runs, 1);
        assert_eq!(report.get("s11_inference").unwrap().runs, 1);
        assert_eq!(report.get("cone_recursive").unwrap().runs, 1);
    }

    #[test]
    fn unknown_stage_is_a_structured_error() {
        let paths = hierarchy_paths();
        let mut snap = Snapshot::new(&paths, InferenceConfig::default());
        match snap.materialize("s99_bogus") {
            Err(EngineError::UnknownStage(name)) => assert_eq!(name, "s99_bogus"),
            other => panic!("expected UnknownStage, got {other:?}"),
        }
    }

    #[test]
    fn stage_names_cover_every_artifact() {
        let names = Snapshot::stage_names();
        assert_eq!(names.len(), STAGES.len());
        for required in [
            "s1_sanitize",
            "s2_degrees",
            "s3_clique",
            "path_arena",
            "s11_inference",
            "cone_recursive",
            "cone_bgp_observed",
            "cone_provider_peer",
        ] {
            assert!(names.contains(&required), "missing stage {required}");
        }
    }

    #[test]
    fn stage_report_json_is_deterministic_without_timing() {
        let paths = hierarchy_paths();
        let render = |snap: &mut Snapshot| {
            snap.inference().unwrap();
            let mut report = snap.stage_report();
            for (_, stats) in &mut report.stages {
                stats.wall_ns = 0;
            }
            report.to_json()
        };
        let a = render(&mut Snapshot::new(&paths, InferenceConfig::default()));
        let b = render(&mut Snapshot::new(&paths, InferenceConfig::default()));
        assert_eq!(a, b);
        assert!(a.contains("\"stage\": \"s1_sanitize\""));
        assert!(a.contains("\"totals\""));
    }

    #[test]
    fn prefix_table_invalidates_only_cones() {
        let paths = hierarchy_paths();
        let mut snap = Snapshot::new(&paths, InferenceConfig::default());
        let no_table = snap.fps[CONE_RECURSIVE];
        let inf_fp = snap.fps[S11_INFERENCE];
        let mut table: HashMap<Asn, Vec<Ipv4Prefix>> = HashMap::new();
        table.insert(Asn(100), vec![Ipv4Prefix::new(0x0a000000, 8).unwrap()]);
        snap = Snapshot::new(&paths, InferenceConfig::default()).with_prefixes(table);
        assert_ne!(no_table, snap.fps[CONE_RECURSIVE]);
        assert_eq!(inf_fp, snap.fps[S11_INFERENCE]);
    }

    #[test]
    fn stage_disk_key_matches_snapshot_cache_files() {
        // The path-free key computation must land on exactly the frame
        // files a cached snapshot writes — the contract the serve tier's
        // frame resolution depends on.
        let paths = hierarchy_paths();
        let dir = std::env::temp_dir().join(format!(
            "asrank_engine_diskkey_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = InferenceConfig::default();
        let mut snap = Snapshot::new(&paths, cfg.clone()).with_cache_dir(&dir);
        for name in Snapshot::stage_names() {
            snap.materialize(name).unwrap();
        }
        let cache = crate::persist::CacheDir::new(&dir);
        let content_fp = crate::persist::pathset_fingerprint(&paths);
        for name in Snapshot::stage_names() {
            let key = stage_disk_key(name, &cfg, None, content_fp).unwrap();
            assert!(
                cache.entry_path(name, key).is_file(),
                "stage {name}: no frame at the path-free key"
            );
        }
        assert!(stage_disk_key("nope", &cfg, None, content_fp).is_none());
        // A different config or dataset moves the key.
        let mut other = InferenceConfig::default();
        other.sanitize = crate::SanitizeConfig::with_ixps([Asn(999)]);
        assert_ne!(
            stage_disk_key("s1_sanitize", &cfg, None, content_fp),
            stage_disk_key("s1_sanitize", &other, None, content_fp)
        );
        assert_ne!(
            stage_disk_key("s1_sanitize", &cfg, None, content_fp),
            stage_disk_key("s1_sanitize", &cfg, None, content_fp ^ 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
