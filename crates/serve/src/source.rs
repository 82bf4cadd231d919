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
//!    hashed;
//! 3. key each served stage from `content_fp` + the inference config
//!    and prefix table through one [`StageKeys`] (the keys
//!    `asrank_core::engine::stage_disk_key` gives), yielding the exact
//!    frame paths `Snapshot` persisted.
//!
//! Steps 1 and 2 each read a whole file (27 MB of RIB and 23 MB of
//! ingest frame on the 16k-AS benchmark) to derive one `u64`. Both values
//! are memoized by file identity (`FileId`: device, inode, length, mtime
//! and ctime, read from the handle that was mapped): while the RIB and
//! the ingest frame are the files a previous resolve read, a reload
//! reuses the two values without mapping either, and costs the stage
//! keys plus the four served frames, which the snapshot still maps and
//! validates in full on every load. A value is memoized only when the
//! identity did not move while the bytes were read and both timestamps
//! are at least one second older than the moment the file was opened
//! (git's "racy" rule). Any write to a file sets its ctime, and no
//! unprivileged call sets ctime back, so an in-place rewrite — even one
//! of the same length with its mtime restored — changes the identity and
//! the value is derived again; a write within the same timestamp tick
//! cannot be missed either, because a file younger than one second is
//! never memoized. That holds for timestamps of up to one second's
//! resolution (ext3 and HFS+ keep whole seconds, most others
//! nanoseconds), not for FAT's two-second mtimes. Off unix nothing is
//! memoized.
//!
//! The memo only speeds up a reload whose RIB and ingest frame are
//! unchanged and settled. The server's watcher loads only after its stamp
//! moved, so its first load of a new RIB always reads both files in full:
//! the time from new input to a fresh answer is what it was. Its hits are
//! retries after a failed load (a new RIB whose cache is still being
//! warmed: the RIB key is memoized once the RIB is a second old) and
//! reloads where only served frames changed. A caller that reloads
//! unchanged files, as the `serve-16k` benchmark workload does every
//! half second, hits on every reload once the files are a second old.
//!
//! A missing or rejected frame is a hard error (with the path it looked
//! for, or the reason it was rejected), not a silent recompute: the serve
//! tier is read-only by design and the fix is to warm the cache with
//! `asrank infer --cache-dir ...` first. A cache written by an older
//! frame format is rejected that way too.
//!
//! [`SourceStamp`] captures the same file identity of the RIB and every
//! resolved frame; the server's watcher thread polls it to detect a
//! re-warmed cache and hot-swap to the new snapshot.

use crate::mmap::MappedBytes;
use asrank_core::engine::StageKeys;
use asrank_core::{pathset_fingerprint_from_frame, CacheDir, InferenceConfig};
use asrank_types::{checksum64, Asn, Ipv4Prefix};
use std::collections::HashMap;
use std::fmt;
use std::fs::Metadata;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
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

/// The identity of one file's contents as the filesystem reports it:
/// `(dev, ino, len, mtime ns, ctime ns)`. A rename-over changes the
/// inode, and any write changes ctime, which no unprivileged call can
/// set back. Off unix only the length and mtime are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileId {
    dev: u64,
    ino: u64,
    len: u64,
    mtime_ns: i128,
    ctime_ns: i128,
}

impl FileId {
    #[cfg(unix)]
    fn of(meta: &Metadata) -> FileId {
        use std::os::unix::fs::MetadataExt;
        let ns = |secs: i64, nsecs: i64| i128::from(secs) * 1_000_000_000 + i128::from(nsecs);
        FileId {
            dev: meta.dev(),
            ino: meta.ino(),
            len: meta.size(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
        }
    }

    #[cfg(not(unix))]
    fn of(meta: &Metadata) -> FileId {
        FileId {
            dev: 0,
            ino: 0,
            len: meta.len(),
            mtime_ns: meta.modified().map_or(0, epoch_ns),
            ctime_ns: 0,
        }
    }

    /// The identity of the file at `path` now, `None` when it cannot be
    /// statted.
    fn stat(path: &Path) -> Option<FileId> {
        std::fs::metadata(path).ok().map(|meta| FileId::of(&meta))
    }

    /// Git's "racy" rule: both timestamps at least one second older than
    /// `opened`, so any write from `opened` on gives a later ctime even
    /// on a filesystem with 1-second timestamps.
    #[cfg(unix)]
    fn settled_before(&self, opened: SystemTime) -> bool {
        let cutoff = epoch_ns(opened) - 1_000_000_000;
        self.mtime_ns <= cutoff && self.ctime_ns <= cutoff
    }

    #[cfg(not(unix))]
    fn settled_before(&self, _opened: SystemTime) -> bool {
        false
    }
}

/// Nanoseconds since the unix epoch (negative before it).
fn epoch_ns(t: SystemTime) -> i128 {
    match t.duration_since(SystemTime::UNIX_EPOCH) {
        Ok(after) => after.as_nanos() as i128,
        Err(before) => -(before.duration().as_nanos() as i128),
    }
}

/// Memo entries: at most one per path, oldest first. A path is a RIB
/// (the value is its `checksum64`, its `rib_ingest` key) or an ingest
/// frame (the value is the `content_fp` recorded in it).
type MemoEntry = (PathBuf, FileId, u64);

/// Entries kept across all specs in the process; one served spec uses
/// two.
const MEMO_CAP: usize = 16;

static MEMO: Mutex<Vec<MemoEntry>> = Mutex::new(Vec::new());

fn memo() -> std::sync::MutexGuard<'static, Vec<MemoEntry>> {
    // Every update leaves the vector a valid memo after each step, so a
    // guard poisoned by a panicking holder still guards sound data.
    MEMO.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
thread_local! {
    /// Files this thread read in full to derive a memoizable value.
    static DERIVATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `derive(bytes of path)`, memoized by file identity: when the file at
/// `path` has the identity a previous call memoized, the stored value is
/// returned without opening the file. Otherwise the file is mapped and
/// derived from in full, and the value is stored only if the identity
/// held still while it was read and the file is settled (see the module
/// doc).
fn memoized(
    path: &Path,
    derive: impl FnOnce(&[u8]) -> Result<u64, ServeError>,
) -> Result<u64, ServeError> {
    if let Some(id) = FileId::stat(path) {
        let hit = memo()
            .iter()
            .find(|(p, i, _)| p == path && *i == id)
            .map(|&(_, _, value)| value);
        if let Some(value) = hit {
            return Ok(value);
        }
    }
    let opened = SystemTime::now();
    let (bytes, meta) = MappedBytes::open_with_metadata(path).map_err(|e| io_err(path, e))?;
    #[cfg(test)]
    DERIVATIONS.with(|n| n.set(n.get() + 1));
    let value = derive(&bytes)?;
    let id = FileId::of(&meta);
    if id.settled_before(opened) && FileId::stat(path) == Some(id) {
        let mut memo = memo();
        memo.retain(|(p, _, _)| p != path);
        if memo.len() >= MEMO_CAP {
            memo.remove(0);
        }
        memo.push((path.to_path_buf(), id, value));
    }
    Ok(value)
}

/// Snapshot-freshness token: the file identity of the RIB and every
/// resolved frame. Two equal stamps mean the mapped bytes are still the
/// live cache state; any difference — a rename-over, or any write, even
/// one that keeps the length and restores the mtime — tells the watcher
/// to re-resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStamp {
    rib: Option<FileId>,
    frames: Vec<(PathBuf, Option<FileId>)>,
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
            rib: FileId::stat(rib),
            frames: paths
                .iter()
                .map(|p| (p.to_path_buf(), FileId::stat(p)))
                .collect(),
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
    /// path too (it enters the hot-swap stamp). No sample is decoded, the
    /// RIB and frame are read through mappings rather than copied to the
    /// heap, and both values come from the memo while the files keep the
    /// identity they had when it was filled (see the module doc).
    pub fn content_fp(&self) -> Result<(PathBuf, u64), ServeError> {
        let rib_key = memoized(&self.rib, |bytes| Ok(checksum64(bytes)))?;

        let pathset = self.cache().entry_path(RIB_INGEST_STAGE, rib_key);
        if !pathset.is_file() {
            return Err(ServeError::MissingFrame {
                stage: RIB_INGEST_STAGE.into(),
                path: pathset,
            });
        }
        let content_fp = memoized(&pathset, |frame| {
            pathset_fingerprint_from_frame(frame).map_err(|e| ServeError::BadFrame {
                stage: RIB_INGEST_STAGE.into(),
                detail: e.to_string(),
            })
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

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_core::engine::Snapshot;
    use asrank_core::pathset_fingerprint;
    use asrank_types::{AsPath, PathSample, PathSet};
    use std::io::{Seek, SeekFrom, Write};
    use std::sync::OnceLock;
    use std::time::Duration;

    /// Two RIBs of equal length, so one can overwrite the other in place.
    const RIB_A: &[u8] = b"memo-rib-a";
    const RIB_B: &[u8] = b"memo-rib-b";

    /// A clique of three with customers below; `shift` moves every ASN,
    /// so the two datasets have different content fingerprints.
    fn paths(shift: u32) -> PathSet {
        let raw: [&[u32]; 8] = [
            &[10, 1, 2, 20],
            &[10, 1, 3, 30],
            &[20, 2, 1, 10],
            &[20, 2, 3, 30],
            &[30, 3, 1, 10],
            &[30, 3, 2, 20],
            &[10, 1, 2, 21, 41],
            &[20, 2, 3, 31, 52],
        ];
        raw.iter()
            .enumerate()
            .map(|(i, hops)| {
                let hops: Vec<u32> = hops.iter().map(|a| a + shift).collect();
                PathSample {
                    vp: Asn(hops[0]),
                    prefix: Ipv4Prefix::new((i as u32) << 12, 20).unwrap(),
                    path: AsPath::from_u32s(hops),
                }
            })
            .collect()
    }

    fn datasets() -> [(&'static [u8], PathSet); 2] {
        [(RIB_A, paths(0)), (RIB_B, paths(900))]
    }

    fn fingerprint(rib: &[u8]) -> u64 {
        let (_, ps) = datasets().into_iter().find(|(r, _)| *r == rib).unwrap();
        pathset_fingerprint(&ps)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asrank_source_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec_at(dir: &Path) -> SourceSpec {
        SourceSpec {
            rib: dir.join("rib.mrt"),
            cache_root: dir.join("cache"),
            cfg: InferenceConfig::default(),
            prefixes: None,
        }
    }

    /// A cache warmed for both RIBs, with RIB A on disk.
    fn warm(dir: &Path) -> SourceSpec {
        let spec = spec_at(dir);
        std::fs::write(&spec.rib, RIB_A).unwrap();
        for (rib, ps) in datasets() {
            assert!(spec
                .cache()
                .store_paths(RIB_INGEST_STAGE, checksum64(rib), &ps));
            let mut snap = Snapshot::new(&ps, spec.cfg.clone()).with_cache_dir(&spec.cache_root);
            snap.inference().unwrap();
            snap.cones().unwrap();
        }
        spec
    }

    const AGED_CASES: [&str; 4] = ["hit", "rewrite", "rename", "damage"];

    /// A warmed cache whose files are all more than a second old. Every
    /// case's cache is written on first use, and one sleep ages them all.
    fn aged(case: &str) -> SourceSpec {
        static ROOT: OnceLock<PathBuf> = OnceLock::new();
        let root = ROOT.get_or_init(|| {
            let root = scratch("aged");
            for case in AGED_CASES {
                std::fs::create_dir_all(root.join(case)).unwrap();
                warm(&root.join(case));
            }
            std::thread::sleep(Duration::from_millis(1100));
            root
        });
        assert!(AGED_CASES.contains(&case));
        spec_at(&root.join(case))
    }

    fn derivations() -> u64 {
        DERIVATIONS.with(std::cell::Cell::get)
    }

    /// Resolve, and return the frames and how many files were read in full.
    fn resolve_counted(spec: &SourceSpec) -> (Result<ResolvedFrames, ServeError>, u64) {
        let before = derivations();
        let resolved = spec.resolve();
        (resolved, derivations() - before)
    }

    /// Overwrite `path` with `bytes` of its own length through the same
    /// inode, then set its mtime back: length and mtime read as before.
    fn rewrite_in_place(path: &Path, at: u64, bytes: &[u8]) {
        let before = std::fs::metadata(path).unwrap();
        let mut file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(bytes).unwrap();
        file.set_modified(before.modified().unwrap()).unwrap();
        drop(file);
        let after = std::fs::metadata(path).unwrap();
        assert_eq!(after.len(), before.len());
        assert_eq!(after.modified().unwrap(), before.modified().unwrap());
    }

    #[test]
    fn a_settled_file_is_read_once() {
        let spec = aged("hit");
        let (first, reads) = resolve_counted(&spec);
        let first = first.unwrap();
        assert_eq!(reads, 2, "the RIB and the ingest frame are read once");
        assert_eq!(first.content_fp, fingerprint(RIB_A));
        for _ in 0..3 {
            let (again, reads) = resolve_counted(&spec);
            assert_eq!(reads, 0, "a settled, unchanged file is not read again");
            assert_eq!(again.unwrap(), first);
        }
    }

    #[test]
    fn a_young_file_is_never_memoized() {
        let spec = warm(&scratch("young"));
        // An mtime an hour ahead keeps the RIB and the ingest frame young
        // however long the resolves take; a file merely written a moment
        // ago settles after a second on a loaded host.
        let ahead = SystemTime::now() + Duration::from_secs(3600);
        let pathset = spec.cache().entry_path(RIB_INGEST_STAGE, checksum64(RIB_A));
        for path in [&spec.rib, &pathset] {
            let file = std::fs::File::options().write(true).open(path).unwrap();
            file.set_modified(ahead).unwrap();
        }
        for _ in 0..3 {
            let (resolved, reads) = resolve_counted(&spec);
            assert_eq!(resolved.unwrap().content_fp, fingerprint(RIB_A));
            assert_eq!(reads, 2, "a file younger than a second is read every time");
        }
    }

    #[test]
    fn an_in_place_rewrite_with_the_mtime_restored_gives_the_new_key() {
        let spec = aged("rewrite");
        assert_eq!(spec.resolve().unwrap().content_fp, fingerprint(RIB_A));
        assert_eq!(resolve_counted(&spec).1, 0, "the keys are memoized");

        rewrite_in_place(&spec.rib, 0, RIB_B);
        let (resolved, reads) = resolve_counted(&spec);
        assert_eq!(resolved.unwrap().content_fp, fingerprint(RIB_B));
        assert_eq!(reads, 2);
    }

    #[test]
    fn a_rename_over_gives_the_new_key() {
        let spec = aged("rename");
        assert_eq!(spec.resolve().unwrap().content_fp, fingerprint(RIB_A));
        assert_eq!(resolve_counted(&spec).1, 0, "the keys are memoized");

        let mtime = std::fs::metadata(&spec.rib).unwrap().modified().unwrap();
        let tmp = spec.rib.with_extension("tmp");
        std::fs::write(&tmp, RIB_B).unwrap();
        std::fs::File::options()
            .write(true)
            .open(&tmp)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        std::fs::rename(&tmp, &spec.rib).unwrap();
        assert_eq!(spec.resolve().unwrap().content_fp, fingerprint(RIB_B));
    }

    #[test]
    fn a_damaged_ingest_frame_seen_first_is_a_bad_frame() {
        let spec = aged("damage");
        let frames = spec.resolve().unwrap();
        assert_eq!(resolve_counted(&spec).1, 0, "the keys are memoized");

        let len = std::fs::metadata(&frames.pathset).unwrap().len();
        let mid = std::fs::read(&frames.pathset).unwrap()[len as usize / 2];
        rewrite_in_place(&frames.pathset, len / 2, &[mid ^ 0x40]);
        let Err(ServeError::BadFrame { stage, .. }) = spec.resolve() else {
            panic!("a damaged ingest frame resolved");
        };
        assert_eq!(stage, RIB_INGEST_STAGE);
    }
}
