//! Persistent artifact codec + cache directory — the on-disk tier of the
//! staged engine's memoization.
//!
//! The engine (`crate::engine`) fingerprints every stage output but its
//! [`Artifact`] store is per-process. This module extends it across
//! process boundaries: every artifact kind has a compact binary encoding
//! over the [`asrank_types::codec`] frame format (length-prefixed,
//! version-worded, FxHash-checksummed), and [`CacheDir`] maps
//! `(stage name, cache key)` to one frame file under a user-supplied
//! `--cache-dir`.
//!
//! ## Determinism
//!
//! Cache files must be byte-identical for identical inputs regardless of
//! process, thread count, or `HashMap` seeding — that is what the
//! cold-vs-warm equivalence tests pin. Two rules make it so:
//!
//! * hash-backed collections are serialized in sorted order
//!   ([`RelationshipMap`] by canonical link, [`DegreeTable`] in its
//!   ranked order, which is itself deterministic);
//! * interners are serialized as their sorted ASN list and rebuilt with
//!   [`AsnInterner::from_ases`], which re-derives the identical dense-id
//!   assignment.
//!
//! ## Failure policy
//!
//! Every load-side failure — missing file, I/O error, bad magic, stale
//! version, flipped bit, impossible length, structural invariant
//! violation — is a **cache miss**, surfaced as `None` and followed by
//! recompute + rewrite. Nothing on this path panics; a cache directory
//! full of garbage degrades to exactly the uncached behavior.

pub mod view;

use crate::cone::{ConeSize, CustomerCones};
use crate::degree::DegreeTable;
use crate::engine::{Artifact, KeptPaths, StepState};
use crate::patharena::PathArena;
use crate::pipeline::{Inference, InferenceReport};
use crate::sanitize::{SanitizeReport, SanitizedPaths};
use asrank_types::codec::{CodecError, Decoder, Encoder, U32View};
use asrank_types::prelude::*;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock};

/// Artifact-kind tags stored in the frame header. Stable identifiers:
/// renumbering is a format change and requires a
/// [`asrank_types::codec::CODEC_VERSION`] bump.
pub mod kind {
    /// S1 output: sanitized samples + counters.
    pub const SANITIZED: u16 = 1;
    /// S2 output: degree table.
    pub const DEGREES: u16 = 2;
    /// S3 output: Tier-1 clique.
    pub const CLIQUE: u16 = 3;
    /// Interned path arena.
    pub const ARENA: u16 = 4;
    /// S4 output: kept-path mask.
    pub const KEPT: u16 = 5;
    /// Observed link list.
    pub const LINKS: u16 = 6;
    /// S5–S10 intermediate relationship state.
    pub const STEPS: u16 = 7;
    /// S11 output: full inference.
    pub const INFERENCE: u16 = 8;
    /// Any of the three cone flavors (distinguished by stage name).
    pub const CONE: u16 = 9;
    /// A raw [`asrank_types::PathSet`] — the CLI's decoded-RIB ingest
    /// cache, keyed by the MRT file's content hash.
    pub const PATHSET: u16 = 10;
}

/// The artifact-kind tag a given engine stage persists as, by stage
/// name. `None` for names that are not engine stages.
pub fn tag_for_stage(stage: &str) -> Option<u16> {
    Some(match stage {
        "s1_sanitize" => kind::SANITIZED,
        "s2_degrees" => kind::DEGREES,
        "s3_clique" => kind::CLIQUE,
        "path_arena" => kind::ARENA,
        "s4_poison" => kind::KEPT,
        "observed_links" => kind::LINKS,
        "s5_topdown" | "s6_vp_providers" | "s7_anomaly_repair" | "s8_stub_clique"
        | "s9_providerless" | "s10_p2p" => kind::STEPS,
        "s11_inference" => kind::INFERENCE,
        "cone_recursive" | "cone_bgp_observed" | "cone_provider_peer" => kind::CONE,
        _ => return None,
    })
}

/// Content fingerprint of a path set — the "input content hash" mixed
/// into every on-disk cache key. The engine's in-memory fingerprints
/// deliberately exclude path content (the store lives inside one
/// `Snapshot`, which is bound to one `PathSet`); a persistent key must
/// add it back or two different RIBs would collide.
pub fn pathset_fingerprint(paths: &PathSet) -> u64 {
    let mut h = asrank_types::FxHasher::default();
    h.write_usize(paths.len());
    for s in paths.iter() {
        h.write_u32(s.vp.0);
        h.write_u32(s.prefix.network());
        h.write_u8(s.prefix.len());
        h.write_usize(s.path.len());
        for a in s.path.iter() {
            h.write_u32(a.0);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Shared field encoders
// ---------------------------------------------------------------------

/// One sample in the `seq_u32` path layout, hop by hop without a copy.
fn put_sample(e: &mut Encoder, vp: Asn, prefix: Ipv4Prefix, hops: &[Asn]) {
    e.u32(vp.0);
    e.u32(prefix.network());
    e.u8(prefix.len());
    e.usize(hops.len());
    for a in hops {
        e.u32(a.0);
    }
}

/// The sample count of a sample section. Each sample is lower-bounded at
/// 9 bytes (vp + network + len), which bounds pre-sized allocations by
/// the remaining payload.
fn get_sample_count(d: &mut Decoder<'_>) -> Result<usize, CodecError> {
    d.seq_len(9, "sample count")
}

/// One sample of a sample section, its hops left in the frame.
fn get_sample<'a>(d: &mut Decoder<'a>) -> Result<(Asn, Ipv4Prefix, U32View<'a>), CodecError> {
    let vp = Asn(d.u32("sample vp")?);
    let network = d.u32("sample prefix network")?;
    let plen = d.u8("sample prefix length")?;
    let prefix = Ipv4Prefix::new(network, plen).map_err(|_| CodecError::BadValue {
        context: "sample prefix length",
        value: u64::from(plen),
    })?;
    Ok((vp, prefix, d.seq_u32_view("sample path")?))
}

/// Decode an S1 sample section straight into the flat layout: no
/// allocation per sample.
fn get_sanitized(
    d: &mut Decoder<'_>,
    report: SanitizeReport,
) -> Result<SanitizedPaths, CodecError> {
    let count = get_sample_count(d)?;
    let mut out = SanitizedPaths::with_capacity(count, 0);
    for _ in 0..count {
        let (vp, prefix, hops) = get_sample(d)?;
        out.hops.extend(hops.iter().map(Asn));
        if u32::try_from(out.hops.len()).is_err() {
            return Err(CodecError::BadValue {
                context: "sanitized hop total",
                value: out.hops.len() as u64,
            });
        }
        out.seal(vp, prefix);
    }
    out.report = report;
    Ok(out)
}

fn put_interner(e: &mut Encoder, interner: &AsnInterner) {
    e.seq_u32(&interner.iter().map(|(_, a)| a.0).collect::<Vec<u32>>());
}

fn get_interner(d: &mut Decoder<'_>) -> Result<AsnInterner, CodecError> {
    // `from_ases` sorts + dedups; a serialized interner is already both,
    // so the rebuild reproduces the identical dense-id assignment.
    Ok(AsnInterner::from_ases(
        d.seq_u32("interner asns")?.into_iter().map(Asn),
    ))
}

fn put_asns(e: &mut Encoder, asns: &[Asn]) {
    e.seq_u32(&asns.iter().map(|a| a.0).collect::<Vec<u32>>());
}

fn get_asns(d: &mut Decoder<'_>, context: &'static str) -> Result<Vec<Asn>, CodecError> {
    Ok(d.seq_u32(context)?.into_iter().map(Asn).collect())
}

fn put_rels(e: &mut Encoder, rels: &RelationshipMap) {
    // The map is hash-backed: canonical-link order here is what makes
    // the frame bytes independent of `RandomState` seeding.
    let mut entries: Vec<(AsLink, LinkRel)> = rels.iter().collect();
    entries.sort_unstable_by_key(|&(l, _)| l);
    e.usize(entries.len());
    for (link, rel) in entries {
        e.u32(link.a.0);
        e.u32(link.b.0);
        e.u8(match rel {
            LinkRel::AC2pB => 0,
            LinkRel::AP2cB => 1,
            LinkRel::P2p => 2,
            LinkRel::S2s => 3,
        });
    }
}

fn get_rels(d: &mut Decoder<'_>) -> Result<RelationshipMap, CodecError> {
    let count = d.seq_len(9, "relationship count")?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let a = Asn(d.u32("link a")?);
        let b = Asn(d.u32("link b")?);
        let tag = d.u8("link relationship")?;
        let rel = match tag {
            0 => LinkRel::AC2pB,
            1 => LinkRel::AP2cB,
            2 => LinkRel::P2p,
            3 => LinkRel::S2s,
            _ => {
                return Err(CodecError::BadValue {
                    context: "link relationship",
                    value: u64::from(tag),
                })
            }
        };
        entries.push((AsLink { a, b }, rel));
    }
    Ok(entries.into_iter().collect())
}

fn put_sanitize_report(e: &mut Encoder, r: &SanitizeReport) {
    for v in [
        r.input_paths,
        r.output_paths,
        r.discarded_loops,
        r.discarded_reserved,
        r.discarded_short,
        r.compressed_prepending,
        r.stripped_ixp,
    ] {
        e.usize(v);
    }
}

fn get_sanitize_report(d: &mut Decoder<'_>) -> Result<SanitizeReport, CodecError> {
    Ok(SanitizeReport {
        input_paths: d.usize("sanitize input_paths")?,
        output_paths: d.usize("sanitize output_paths")?,
        discarded_loops: d.usize("sanitize discarded_loops")?,
        discarded_reserved: d.usize("sanitize discarded_reserved")?,
        discarded_short: d.usize("sanitize discarded_short")?,
        compressed_prepending: d.usize("sanitize compressed_prepending")?,
        stripped_ixp: d.usize("sanitize stripped_ixp")?,
    })
}

fn put_inference_report(e: &mut Encoder, r: &InferenceReport) {
    put_sanitize_report(e, &r.sanitize);
    for v in [
        r.discarded_poisoned,
        r.c2p_from_topdown,
        r.conflicts,
        r.c2p_from_vps,
        r.repaired_anomalies,
        r.c2p_stub_clique,
        r.c2p_providerless,
        r.p2p_assigned,
        r.cycle_links,
        r.total_links,
    ] {
        e.usize(v);
    }
}

fn get_inference_report(d: &mut Decoder<'_>) -> Result<InferenceReport, CodecError> {
    Ok(InferenceReport {
        sanitize: get_sanitize_report(d)?,
        discarded_poisoned: d.usize("report discarded_poisoned")?,
        c2p_from_topdown: d.usize("report c2p_from_topdown")?,
        conflicts: d.usize("report conflicts")?,
        c2p_from_vps: d.usize("report c2p_from_vps")?,
        repaired_anomalies: d.usize("report repaired_anomalies")?,
        c2p_stub_clique: d.usize("report c2p_stub_clique")?,
        c2p_providerless: d.usize("report c2p_providerless")?,
        p2p_assigned: d.usize("report p2p_assigned")?,
        cycle_links: d.usize("report cycle_links")?,
        total_links: d.usize("report total_links")?,
    })
}

fn put_degrees(e: &mut Encoder, t: &DegreeTable) {
    e.usize(t.len());
    for &asn in t.ranked() {
        e.u32(asn.0);
        e.usize(t.transit_degree(asn));
        e.usize(t.node_degree(asn));
    }
}

fn get_degrees(d: &mut Decoder<'_>) -> Result<DegreeTable, CodecError> {
    let count = d.seq_len(20, "degree count")?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let asn = Asn(d.u32("degree asn")?);
        let transit = d.usize("transit degree")?;
        let node = d.usize("node degree")?;
        entries.push((asn, transit, node));
    }
    Ok(DegreeTable::from_ranked_entries(entries))
}

// ---------------------------------------------------------------------
// Artifact encode / decode
// ---------------------------------------------------------------------

/// Serialize an engine artifact into one self-contained frame.
pub fn encode_artifact(artifact: &Artifact) -> Vec<u8> {
    match artifact {
        Artifact::Sanitized(s) => {
            let mut e = Encoder::new(kind::SANITIZED);
            put_sanitize_report(&mut e, &s.report);
            e.usize(s.len());
            for (vp, prefix, hops) in s.iter() {
                put_sample(&mut e, vp, prefix, hops);
            }
            e.finish()
        }
        Artifact::Degrees(t) => {
            let mut e = Encoder::new(kind::DEGREES);
            put_degrees(&mut e, t);
            e.finish()
        }
        Artifact::Clique(c) => {
            let mut e = Encoder::new(kind::CLIQUE);
            put_asns(&mut e, c);
            e.finish()
        }
        Artifact::Arena(a) => {
            let mut e = Encoder::new(kind::ARENA);
            put_interner(&mut e, a.interner());
            e.seq_u32(a.offsets());
            e.seq_u32(a.ids());
            e.finish()
        }
        Artifact::Kept(k) => {
            let mut e = Encoder::new(kind::KEPT);
            e.usize(k.discarded);
            e.usize(k.kept.len());
            let words: Vec<u64> = k
                .kept
                .chunks(64)
                .map(|c| {
                    c.iter()
                        .enumerate()
                        .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i))
                })
                .collect();
            e.seq_u64(&words);
            e.finish()
        }
        Artifact::Links(links) => {
            let mut e = Encoder::new(kind::LINKS);
            e.usize(links.len());
            for l in links.iter() {
                e.u32(l.a.0);
                e.u32(l.b.0);
            }
            e.finish()
        }
        Artifact::Steps(s) => {
            let mut e = Encoder::new(kind::STEPS);
            put_rels(&mut e, &s.rels);
            put_inference_report(&mut e, &s.report);
            e.finish()
        }
        Artifact::Inference(inf) => {
            let mut e = Encoder::new(kind::INFERENCE);
            put_rels(&mut e, &inf.relationships);
            put_asns(&mut e, &inf.clique);
            put_degrees(&mut e, &inf.degrees);
            put_inference_report(&mut e, &inf.report);
            e.finish()
        }
        Artifact::Cone(c) => {
            let mut e = Encoder::new(kind::CONE);
            let (interner, set_of, members, bounds, sizes) = c.raw_parts();
            put_interner(&mut e, interner);
            e.seq_u32(set_of);
            e.seq_u32(&members.iter().map(|a| a.0).collect::<Vec<u32>>());
            e.seq_u32(bounds);
            e.usize(sizes.len());
            for s in sizes {
                e.usize(s.ases);
                e.usize(s.prefixes);
                e.u64(s.addresses);
            }
            e.finish()
        }
    }
}

/// Decode a frame back into the artifact kind the caller expects.
/// Any mismatch or corruption is a [`CodecError`], never a panic.
pub fn decode_artifact(bytes: &[u8], expected: u16) -> Result<Artifact, CodecError> {
    let mut d = Decoder::open(bytes, expected)?;
    let artifact = match expected {
        kind::SANITIZED => {
            let report = get_sanitize_report(&mut d)?;
            Artifact::Sanitized(Arc::new(get_sanitized(&mut d, report)?))
        }
        kind::DEGREES => Artifact::Degrees(Arc::new(get_degrees(&mut d)?)),
        kind::CLIQUE => Artifact::Clique(Arc::new(get_asns(&mut d, "clique asns")?)),
        kind::ARENA => {
            let interner = get_interner(&mut d)?;
            let offsets = d.seq_u32("arena offsets")?;
            let ids = d.seq_u32("arena ids")?;
            let arena = PathArena::from_raw(interner, offsets, ids);
            // `from_raw` tolerates inconsistent parts (it is also the
            // corruption-fixture entry point); a cache load must not.
            if !arena.validate().is_empty() {
                return Err(CodecError::BadValue {
                    context: "arena invariants",
                    value: 0,
                });
            }
            Artifact::Arena(Arc::new(arena))
        }
        kind::KEPT => {
            let discarded = d.usize("kept discarded")?;
            let len = d.usize("kept length")?;
            let words = d.seq_u64("kept words")?;
            if words.len() != len.div_ceil(64) {
                return Err(CodecError::BadValue {
                    context: "kept word count",
                    value: words.len() as u64,
                });
            }
            let kept: Vec<bool> = (0..len)
                .map(|i| (words[i / 64] >> (i % 64)) & 1 == 1)
                .collect();
            Artifact::Kept(Arc::new(KeptPaths { kept, discarded }))
        }
        kind::LINKS => {
            let count = d.seq_len(8, "link count")?;
            let mut links = Vec::with_capacity(count);
            for _ in 0..count {
                let a = Asn(d.u32("link a")?);
                let b = Asn(d.u32("link b")?);
                links.push(AsLink { a, b });
            }
            Artifact::Links(Arc::new(links))
        }
        kind::STEPS => {
            let rels = get_rels(&mut d)?;
            let report = get_inference_report(&mut d)?;
            Artifact::Steps(Arc::new(StepState { rels, report }))
        }
        kind::INFERENCE => {
            let relationships = get_rels(&mut d)?;
            let clique = get_asns(&mut d, "inference clique")?;
            let degrees = get_degrees(&mut d)?;
            let report = get_inference_report(&mut d)?;
            Artifact::Inference(Arc::new(Inference {
                relationships,
                clique,
                degrees,
                report,
            }))
        }
        kind::CONE => {
            let interner = get_interner(&mut d)?;
            let set_of = d.seq_u32("cone set_of")?;
            let members: Vec<Asn> = d.seq_u32("cone members")?.into_iter().map(Asn).collect();
            let bounds = d.seq_u32("cone bounds")?;
            let count = d.seq_len(24, "cone size count")?;
            let mut sizes = Vec::with_capacity(count);
            for _ in 0..count {
                sizes.push(ConeSize {
                    ases: d.usize("cone size ases")?,
                    prefixes: d.usize("cone size prefixes")?,
                    addresses: d.u64("cone size addresses")?,
                });
            }
            let cones = CustomerCones::from_raw_parts(interner, set_of, members, bounds, sizes)
                .ok_or(CodecError::BadValue {
                    context: "cone invariants",
                    value: 0,
                })?;
            Artifact::Cone(Arc::new(cones))
        }
        other => {
            return Err(CodecError::BadValue {
                context: "artifact kind tag",
                value: u64::from(other),
            })
        }
    };
    d.finish()?;
    Ok(artifact)
}

/// Serialize a raw path set (the CLI's decoded-RIB cache entry).
pub fn encode_pathset(paths: &PathSet) -> Vec<u8> {
    let mut e = Encoder::new(kind::PATHSET);
    e.usize(paths.len());
    for s in paths.iter() {
        put_sample(&mut e, s.vp, s.prefix, &s.path.0);
    }
    e.finish()
}

/// Decode a raw path set frame.
pub fn decode_pathset(bytes: &[u8]) -> Result<PathSet, CodecError> {
    let mut d = Decoder::open(bytes, kind::PATHSET)?;
    let count = get_sample_count(&mut d)?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        let (vp, prefix, hops) = get_sample(&mut d)?;
        samples.push(PathSample {
            vp,
            prefix,
            path: AsPath(hops.iter().map(Asn).collect()),
        });
    }
    d.finish()?;
    Ok(PathSet::from_samples(samples))
}

// ---------------------------------------------------------------------
// Cache directory
// ---------------------------------------------------------------------

/// One on-disk artifact cache: a flat directory of frame files named
/// `{stage}-{key:016x}.bin`. Writes go through a temp file + rename so a
/// crashed process leaves either the old entry or the new one, never a
/// torn frame (and a torn frame would fail its checksum anyway).
///
/// Store failures (read-only directory, disk full) are swallowed — the
/// cache is strictly best-effort and never affects results.
#[derive(Debug, Clone)]
pub struct CacheDir {
    root: PathBuf,
}

impl CacheDir {
    /// A cache rooted at `root`. The directory is created lazily on the
    /// first store.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CacheDir { root: root.into() }
    }

    /// The cache root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the entry for `(stage, key)`.
    pub fn entry_path(&self, stage: &str, key: u64) -> PathBuf {
        self.root.join(format!("{stage}-{key:016x}.bin"))
    }

    /// Load one artifact; any failure (absent, unreadable, corrupt,
    /// version-mismatched, wrong kind) is `None`.
    pub fn load(&self, stage: &str, key: u64, expected: u16) -> Option<Artifact> {
        let bytes = std::fs::read(self.entry_path(stage, key)).ok()?;
        decode_artifact(&bytes, expected).ok()
    }

    /// Store one artifact; returns whether the write succeeded.
    pub fn store(&self, stage: &str, key: u64, artifact: &Artifact) -> bool {
        self.write_entry(stage, key, &encode_artifact(artifact))
    }

    /// Load a cached path set (the decoded-RIB ingest cache).
    pub fn load_paths(&self, stage: &str, key: u64) -> Option<PathSet> {
        let bytes = std::fs::read(self.entry_path(stage, key)).ok()?;
        decode_pathset(&bytes).ok()
    }

    /// Store a decoded path set; returns whether the write succeeded.
    pub fn store_paths(&self, stage: &str, key: u64, paths: &PathSet) -> bool {
        self.write_entry(stage, key, &encode_pathset(paths))
    }

    fn write_entry(&self, stage: &str, key: u64, bytes: &[u8]) -> bool {
        if std::fs::create_dir_all(&self.root).is_err() {
            return false;
        }
        let tmp = self
            .root
            .join(format!("{stage}-{key:016x}.tmp{}", std::process::id()));
        if std::fs::write(&tmp, bytes).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        let dest = self.entry_path(stage, key);
        if std::fs::rename(&tmp, &dest).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        true
    }
}

// ---------------------------------------------------------------------
// Process-wide default
// ---------------------------------------------------------------------

fn process_slot() -> &'static RwLock<Option<PathBuf>> {
    static SLOT: OnceLock<RwLock<Option<PathBuf>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Set (or clear) the process-wide default cache directory. New
/// `engine::Snapshot`s pick this up automatically, which is how the CLI
/// threads `--cache-dir` through call sites that construct snapshots
/// internally (`pipeline::infer`, `stability::jackknife`). Library users
/// who want explicit control use `Snapshot::with_cache_dir` instead and
/// never touch this.
pub fn set_process_cache_dir(dir: Option<PathBuf>) {
    // lint: allow(panics, a poisoned lock means another thread panicked mid-write of a PathBuf option; unrecoverable config state)
    *process_slot().write().expect("cache-dir lock poisoned") = dir;
}

/// The process-wide default cache directory, if one was set.
pub fn process_cache_dir() -> Option<PathBuf> {
    // lint: allow(panics, a poisoned lock means another thread panicked mid-write of a PathBuf option; unrecoverable config state)
    process_slot().read().expect("cache-dir lock poisoned").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Snapshot;
    use crate::pipeline::InferenceConfig;

    fn sample_paths() -> PathSet {
        let raw: &[&[u32]] = &[
            &[20, 10, 1, 2, 11, 21],
            &[20, 10, 1, 3, 11, 22],
            &[21, 11, 2, 1, 10, 20],
            &[22, 11, 3, 2, 10, 23],
            &[23, 10, 1, 2, 11, 21],
        ];
        raw.iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect()
    }

    /// Every stage's artifact survives an encode/decode roundtrip with
    /// byte-identical re-encoding (the canonical-form property the
    /// cold-vs-warm suite builds on).
    #[test]
    fn all_artifacts_roundtrip_bytewise() {
        let ps = sample_paths();
        let mut snap = Snapshot::new(&ps, InferenceConfig::default());
        snap.cones().expect("engine run");
        for name in Snapshot::stage_names() {
            let artifact = snap.materialize(name).expect("materialize");
            let tag = tag_for_stage(name).expect("stage tag");
            let bytes = encode_artifact(&artifact);
            let decoded = decode_artifact(&bytes, tag)
                .unwrap_or_else(|e| panic!("decode {name}: {e}"));
            assert_eq!(
                encode_artifact(&decoded),
                bytes,
                "{name} re-encode differs"
            );
        }
    }

    #[test]
    fn pathset_roundtrips() {
        let ps = sample_paths();
        let bytes = encode_pathset(&ps);
        let back = decode_pathset(&bytes).unwrap();
        assert_eq!(back.into_samples(), sample_paths().into_samples());
    }

    #[test]
    fn wrong_kind_and_garbage_are_misses() {
        let ps = sample_paths();
        let bytes = encode_pathset(&ps);
        assert!(decode_artifact(&bytes, kind::CLIQUE).is_err());
        assert!(decode_pathset(b"not a frame").is_err());
    }

    #[test]
    fn pathset_fingerprint_tracks_content() {
        let a = pathset_fingerprint(&sample_paths());
        assert_eq!(a, pathset_fingerprint(&sample_paths()));
        let mut other: Vec<PathSample> = sample_paths().into_samples();
        other[0].vp = Asn(9999);
        let other: PathSet = other.into_iter().collect();
        assert_ne!(a, pathset_fingerprint(&other));
    }

    #[test]
    fn cache_dir_store_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "asrank_persist_test_{}_roundtrip",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheDir::new(&dir);
        let ps = sample_paths();
        let mut snap = Snapshot::new(&ps, InferenceConfig::default());
        snap.inference().expect("engine run");
        let artifact = snap.materialize("s11_inference").unwrap();

        assert!(cache.load("s11_inference", 7, kind::INFERENCE).is_none());
        assert!(cache.store("s11_inference", 7, &artifact));
        let loaded = cache.load("s11_inference", 7, kind::INFERENCE).unwrap();
        assert_eq!(encode_artifact(&loaded), encode_artifact(&artifact));
        // Wrong key and wrong kind both miss.
        assert!(cache.load("s11_inference", 8, kind::INFERENCE).is_none());
        assert!(cache.load("s11_inference", 7, kind::CONE).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
