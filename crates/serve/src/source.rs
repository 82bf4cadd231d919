//! Resolving persisted artifact frames from a RIB file + cache directory.
//!
//! `asrank serve` never runs the pipeline. It derives the exact on-disk
//! cache keys the engine would use and maps the frames the engine already
//! wrote:
//!
//! 1. checksum the raw RIB bytes — the key the CLI ingest tier stores the
//!    decoded [`PathSet`](asrank_types::PathSet) frame under (`rib_ingest`);
//! 2. validate that PATHSET frame (checksum included) and read the
//!    engine's `content_fp` from the field the writer recorded in it
//!    ([`pathset_fingerprint_from_frame`]): no sample is decoded or
//!    hashed, so a reload costs the bytes it validates;
//! 3. key each served stage from `content_fp` + the inference config
//!    and prefix table through one [`StageKeys`] (the keys
//!    `asrank_core::engine::stage_disk_key` gives), yielding the exact
//!    frame paths `Snapshot` persisted.
//!
//! A missing or rejected frame is a hard error (with the path it looked
//! for, or the reason it was rejected), not a silent recompute: the serve
//! tier is read-only by design and the fix is to warm the cache with
//! `asrank infer --cache-dir ...` first. A cache written by an older
//! frame format is rejected that way too.
//!
//! [`SourceStamp`] captures `(len, mtime)` of the RIB and every resolved
//! frame; the server's watcher thread polls it to detect a re-warmed
//! cache and hot-swap to the new snapshot.

use crate::mmap::MappedBytes;
use asrank_core::engine::StageKeys;
use asrank_core::{pathset_fingerprint_from_frame, CacheDir, InferenceConfig};
use asrank_types::{checksum64, Asn, Ipv4Prefix};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// Stage name the CLI ingest tier caches decoded RIBs under (keyed by the
/// checksum of the raw MRT bytes) — must match `cli::snapshot`.
pub const RIB_INGEST_STAGE: &str = "rib_ingest";

/// Stage whose frame carries relationships, clique, and degrees.
pub const INFERENCE_STAGE: &str = "s11_inference";

/// The three customer-cone definitions a serve snapshot answers for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConeFlavor {
    /// Paper §5.1: transitive closure over inferred c2p links.
    Recursive,
    /// Paper §5.2: ASes seen behind the AS on observed BGP paths.
    BgpObserved,
    /// Paper §5.3: BGP-observed restricted to provider/peer-observed paths.
    ProviderPeer,
}

impl ConeFlavor {
    /// All flavors, in stage order.
    pub const ALL: [ConeFlavor; 3] = [
        ConeFlavor::Recursive,
        ConeFlavor::BgpObserved,
        ConeFlavor::ProviderPeer,
    ];

    /// The engine stage name whose CONE frame this flavor reads.
    pub fn stage(self) -> &'static str {
        match self {
            ConeFlavor::Recursive => "cone_recursive",
            ConeFlavor::BgpObserved => "cone_bgp_observed",
            ConeFlavor::ProviderPeer => "cone_provider_peer",
        }
    }

    /// Index into per-flavor arrays ([`ConeFlavor::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            ConeFlavor::Recursive => 0,
            ConeFlavor::BgpObserved => 1,
            ConeFlavor::ProviderPeer => 2,
        }
    }

    /// Parse the wire/CLI spelling (`recursive`, `bgp`, `pp`, plus the
    /// full stage-ish aliases).
    pub fn parse(s: &str) -> Option<ConeFlavor> {
        Some(match s {
            "recursive" | "rec" => ConeFlavor::Recursive,
            "bgp" | "bgp-observed" | "observed" => ConeFlavor::BgpObserved,
            "pp" | "provider-peer" => ConeFlavor::ProviderPeer,
            _ => return None,
        })
    }
}

impl fmt::Display for ConeFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConeFlavor::Recursive => "recursive",
            ConeFlavor::BgpObserved => "bgp-observed",
            ConeFlavor::ProviderPeer => "provider-peer",
        })
    }
}

/// Everything needed to locate (and re-locate, on hot-swap) the served
/// frames: the RIB whose checksum anchors the cache keys, the cache
/// directory, and the inference config + prefix table the warm run used.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Raw MRT RIB file — only checksummed, never decoded, by serve.
    pub rib: PathBuf,
    /// Cache directory the engine persisted frames into.
    pub cache_root: PathBuf,
    /// Config of the warm run; keys depend on it.
    pub cfg: InferenceConfig,
    /// Prefix table of the warm run (cone keys depend on it).
    pub prefixes: Option<HashMap<Asn, Vec<Ipv4Prefix>>>,
}

/// Why a snapshot could not be resolved or loaded.
#[derive(Debug)]
pub enum ServeError {
    /// Reading the RIB or a frame file failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error text.
        detail: String,
    },
    /// A required frame is absent from the cache.
    MissingFrame {
        /// Stage whose frame was expected.
        stage: String,
        /// Exact path probed.
        path: PathBuf,
    },
    /// A frame exists but failed validation.
    BadFrame {
        /// Stage whose frame was rejected.
        stage: String,
        /// Decoder/view error text.
        detail: String,
    },
    /// A query named a stage/flavor the server does not know.
    BadQuery(
        /// The offending query text.
        String,
    ),
}

/// What an operator does about a frame serve cannot use.
const REWARM_HINT: &str = "warm the cache with `asrank infer --rib ... --cache-dir ...` first";

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io { path, detail } => {
                write!(f, "serve: io error on {}: {detail}", path.display())
            }
            ServeError::MissingFrame { stage, path } => write!(
                f,
                "serve: no cached {stage} frame at {} — {REWARM_HINT}",
                path.display()
            ),
            ServeError::BadFrame { stage, detail } => write!(
                f,
                "serve: cached {stage} frame rejected: {detail} — {REWARM_HINT}"
            ),
            ServeError::BadQuery(q) => write!(f, "serve: bad query: {q}"),
        }
    }
}

impl std::error::Error for ServeError {}

fn io_err(path: &Path, e: impl fmt::Display) -> ServeError {
    ServeError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// The frame paths one snapshot is built from, in resolution order:
/// pathset, inference, then one CONE frame per [`ConeFlavor::ALL`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedFrames {
    /// The `rib_ingest` PATHSET frame (read for `content_fp`, not mapped
    /// by the snapshot).
    pub pathset: PathBuf,
    /// The `s11_inference` frame.
    pub inference: PathBuf,
    /// CONE frames in [`ConeFlavor::ALL`] order.
    pub cones: [PathBuf; 3],
    /// The engine content fingerprint the keys were derived from.
    pub content_fp: u64,
}

/// `(len, mtime)` of one file, `None` when it cannot be statted.
type FileSig = Option<(u64, Option<SystemTime>)>;

fn sig(path: &Path) -> FileSig {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.len(), meta.modified().ok()))
}

/// Snapshot-freshness token: the `(len, mtime)` signature of the RIB and
/// every resolved frame. Two equal stamps mean the mapped bytes are still
/// the live cache state; any difference tells the watcher to re-resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStamp {
    rib: FileSig,
    frames: Vec<(PathBuf, FileSig)>,
}

impl SourceStamp {
    /// Stamp the RIB plus the given frame paths as they are on disk now.
    pub fn capture(rib: &Path, frames: &ResolvedFrames) -> SourceStamp {
        let paths = [
            &frames.pathset,
            &frames.inference,
            &frames.cones[0],
            &frames.cones[1],
            &frames.cones[2],
        ];
        SourceStamp {
            rib: sig(rib),
            frames: paths.iter().map(|p| (p.to_path_buf(), sig(p))).collect(),
        }
    }
}

impl SourceSpec {
    fn cache(&self) -> CacheDir {
        CacheDir::new(&self.cache_root)
    }

    /// Recover the engine's content fingerprint from the current on-disk
    /// state: checksum the RIB bytes, find the ingest PATHSET frame,
    /// validate it and read the fingerprint it records. Returns the frame
    /// path too (it enters the hot-swap stamp). No sample is decoded, and
    /// the RIB and frame are checksummed through mappings rather than
    /// copied to the heap.
    pub fn content_fp(&self) -> Result<(PathBuf, u64), ServeError> {
        let rib_key = checksum64(&MappedBytes::open(&self.rib).map_err(|e| io_err(&self.rib, e))?);

        let pathset = self.cache().entry_path(RIB_INGEST_STAGE, rib_key);
        if !pathset.is_file() {
            return Err(ServeError::MissingFrame {
                stage: RIB_INGEST_STAGE.into(),
                path: pathset,
            });
        }
        let frame = MappedBytes::open(&pathset).map_err(|e| io_err(&pathset, e))?;
        let content_fp =
            pathset_fingerprint_from_frame(&frame).map_err(|e| ServeError::BadFrame {
                stage: RIB_INGEST_STAGE.into(),
                detail: e.to_string(),
            })?;
        Ok((pathset, content_fp))
    }

    /// The on-disk frame path for one stage under this spec's config and
    /// `content_fp` — error (with the probed path) when absent.
    pub fn locate(&self, stage: &str, content_fp: u64) -> Result<PathBuf, ServeError> {
        let keys = StageKeys::new(&self.cfg, self.prefixes.as_ref());
        self.locate_with(&keys, stage, content_fp)
    }

    /// [`SourceSpec::locate`] with the stage keys already built.
    fn locate_with(
        &self,
        keys: &StageKeys,
        stage: &str,
        content_fp: u64,
    ) -> Result<PathBuf, ServeError> {
        let key = keys
            .disk_key(stage, content_fp)
            .ok_or_else(|| ServeError::BadQuery(format!("unknown stage {stage}")))?;
        let path = self.cache().entry_path(stage, key);
        if path.is_file() {
            Ok(path)
        } else {
            Err(ServeError::MissingFrame {
                stage: stage.into(),
                path,
            })
        }
    }

    /// Resolve every served frame path from the current on-disk state —
    /// the cold path (startup and hot-swap). The prefix table is hashed
    /// and the stage chain mixed once for all four frames.
    pub fn resolve(&self) -> Result<ResolvedFrames, ServeError> {
        let (pathset, content_fp) = self.content_fp()?;
        let keys = StageKeys::new(&self.cfg, self.prefixes.as_ref());
        let locate = |stage: &str| self.locate_with(&keys, stage, content_fp);
        Ok(ResolvedFrames {
            inference: locate(INFERENCE_STAGE)?,
            cones: [
                locate(ConeFlavor::Recursive.stage())?,
                locate(ConeFlavor::BgpObserved.stage())?,
                locate(ConeFlavor::ProviderPeer.stage())?,
            ],
            pathset,
            content_fp,
        })
    }

    /// Stamp the current on-disk state of `frames` (plus the RIB).
    pub fn stamp(&self, frames: &ResolvedFrames) -> SourceStamp {
        SourceStamp::capture(&self.rib, frames)
    }
}
