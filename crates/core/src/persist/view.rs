//! Borrowed zero-decode views over persisted artifact frames.
//!
//! [`super::decode_artifact`] rebuilds owned structures — the right call
//! when the artifact feeds further computation. A query tier has the
//! opposite profile: it touches a handful of entries per request out of
//! frames that may hold millions, so decoding (or even copying) the
//! payload per process is pure waste. The views here follow the
//! **checksum-once rule**:
//!
//! 1. `open()` validates the whole frame exactly once — magic, version,
//!    kind, declared length, FxHash checksum — and then walks the payload
//!    recording *where* each section lives (offset + entry count) while
//!    checking every structural invariant the accessors later index by
//!    (tag ranges, sort order, monotone bounds, in-range set ids). A
//!    frame that opens cleanly can be queried without further checks.
//! 2. Accessors read entries in place from `&[u8]` with explicit
//!    little-endian loads — no `#[repr]` punning, no alignment
//!    requirement, which is what makes the same code correct over heap
//!    buffers and `mmap`ed files alike.
//! 3. Point queries allocate nothing. Binary searches run directly over
//!    the packed sections (relationship entries are sorted by canonical
//!    link, interners and cone member sets by ASN — invariants the
//!    *writer* establishes and `open()` re-verifies).
//!
//! The serve tier additionally needs to hold a view across calls without
//! borrowing from itself. For the two hot kinds ([`InferenceView`],
//! [`ConeView`]) `open()` therefore also returns a `Copy` *layout* — the
//! section table with every offset frame-relative — and `from_layout()`
//! reconstitutes a view from `(bytes, layout)` for free. Reconstitution
//! never re-validates: the layout is only ever produced by `open()` over
//! the same bytes, and out-of-range layouts degrade to empty sections
//! rather than panicking.

use super::kind;
use crate::cone::ConeSize;
use crate::pipeline::InferenceReport;
use asrank_types::codec::{CodecError, Decoder, U32View, HEADER_LEN};
use asrank_types::prelude::*;

/// Byte size of one packed relationship entry: `(u32 a, u32 b, u8 tag)`.
const REL_STRIDE: usize = 9;
/// Byte size of one packed degree entry: `(u32 asn, u64 transit, u64 node)`.
const DEGREE_STRIDE: usize = 20;
/// Byte size of one packed cone-size entry: `(u64 ases, u64 prefixes, u64 addresses)`.
const SIZE_STRIDE: usize = 24;

/// Location of one packed section inside a frame: `count` entries
/// starting at byte `off` *of the frame* (not the payload), so a layout
/// plus the original frame bytes is enough to rebuild any view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Section {
    /// Byte offset of the first entry from the start of the frame.
    pub off: usize,
    /// Number of entries.
    pub count: usize,
}

impl Section {
    /// The section's bytes out of `frame`, or an empty slice when the
    /// layout does not fit (a layout/bytes mismatch degrades to empty
    /// results, never a panic).
    fn slice<'a>(&self, frame: &'a [u8], stride: usize) -> &'a [u8] {
        self.count
            .checked_mul(stride)
            .and_then(|n| self.off.checked_add(n))
            .and_then(|end| frame.get(self.off..end))
            .unwrap_or(&[])
    }
}

/// Read a fixed-stride counted section: length prefix, then
/// `count * stride` raw bytes, returned with its frame-relative location.
fn section<'a>(
    d: &mut Decoder<'a>,
    stride: usize,
    context: &'static str,
) -> Result<(Section, &'a [u8]), CodecError> {
    let count = d.seq_len(stride, context)?;
    let off = HEADER_LEN + d.position();
    let raw = d.bytes(count * stride, context)?;
    Ok((Section { off, count }, raw))
}

/// Read a length-prefixed u32 sequence as a view plus its location.
fn u32_section<'a>(
    d: &mut Decoder<'a>,
    context: &'static str,
) -> Result<(Section, U32View<'a>), CodecError> {
    let (sec, raw) = section(d, 4, context)?;
    Ok((sec, U32View::new(raw)))
}

fn bad(context: &'static str, value: u64) -> CodecError {
    CodecError::BadValue { context, value }
}

fn rd_u32(raw: &[u8], off: usize) -> Option<u32> {
    let s = raw.get(off..off.checked_add(4)?)?;
    Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn rd_u64(raw: &[u8], off: usize) -> Option<u64> {
    let s = raw.get(off..off.checked_add(8)?)?;
    let mut b = [0u8; 8];
    b.copy_from_slice(s);
    Some(u64::from_le_bytes(b))
}

// ---------------------------------------------------------------------
// Relationship section
// ---------------------------------------------------------------------

/// Borrowed view over a relationship section: packed 9-byte entries
/// `(u32 a, u32 b, u8 tag)` sorted by canonical link — the serve tier's
/// hottest structure. Point lookups are one binary search over the
/// packed bytes; nothing is decoded.
#[derive(Debug, Clone, Copy)]
pub struct RelsView<'a> {
    raw: &'a [u8],
}

impl<'a> RelsView<'a> {
    /// Read the section, verifying every tag is a valid [`LinkRel`] and
    /// entries are strictly sorted by `(a, b)` — the invariant `get`'s
    /// binary search indexes by.
    fn read(d: &mut Decoder<'a>) -> Result<(Section, Self), CodecError> {
        let (sec, raw) = section(d, REL_STRIDE, "relationship count")?;
        let view = RelsView { raw };
        let mut prev: Option<(u32, u32)> = None;
        for i in 0..view.len() {
            let (a, b, tag) = view.raw_entry(i).ok_or(bad("relationship entry", i as u64))?;
            if tag > 3 {
                return Err(bad("link relationship", u64::from(tag)));
            }
            if a >= b {
                return Err(bad("link canonical order", u64::from(a)));
            }
            if prev.is_some_and(|p| p >= (a, b)) {
                return Err(bad("relationship sort order", i as u64));
            }
            prev = Some((a, b));
        }
        Ok((sec, view))
    }

    fn from_section(frame: &'a [u8], sec: Section) -> Self {
        RelsView {
            raw: sec.slice(frame, REL_STRIDE),
        }
    }

    /// Number of classified links.
    pub fn len(&self) -> usize {
        self.raw.len() / REL_STRIDE
    }

    /// True when no link is classified.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    fn raw_entry(&self, i: usize) -> Option<(u32, u32, u8)> {
        let off = i.checked_mul(REL_STRIDE)?;
        let a = rd_u32(self.raw, off)?;
        let b = rd_u32(self.raw, off + 4)?;
        let tag = *self.raw.get(off + 8)?;
        Some((a, b, tag))
    }

    fn rel_of(tag: u8) -> Option<LinkRel> {
        Some(match tag {
            0 => LinkRel::AC2pB,
            1 => LinkRel::AP2cB,
            2 => LinkRel::P2p,
            3 => LinkRel::S2s,
            _ => return None,
        })
    }

    /// Entry `i` in canonical-link sort order, or `None` past the end.
    pub fn entry(&self, i: usize) -> Option<(AsLink, LinkRel)> {
        let (a, b, tag) = self.raw_entry(i)?;
        Some((
            AsLink {
                a: Asn(a),
                b: Asn(b),
            },
            Self::rel_of(tag)?,
        ))
    }

    /// Iterate `(link, rel)` in canonical-link order (the deterministic
    /// twin of `RelationshipMap::iter`, which is hash-ordered).
    pub fn iter(&self) -> impl Iterator<Item = (AsLink, LinkRel)> + 'a {
        let raw = self.raw;
        raw.chunks_exact(REL_STRIDE).filter_map(|c| {
            let a = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            let b = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            Some((
                AsLink {
                    a: Asn(a),
                    b: Asn(b),
                },
                Self::rel_of(c[8])?,
            ))
        })
    }

    /// The relationship on the link between `x` and `y`, expressed for
    /// the canonical orientation — mirror of `RelationshipMap::get`.
    pub fn get(&self, x: Asn, y: Asn) -> Option<LinkRel> {
        if x == y {
            return None;
        }
        let (a, b) = if x.0 < y.0 { (x.0, y.0) } else { (y.0, x.0) };
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (ea, eb, tag) = self.raw_entry(mid)?;
            if (ea, eb) < (a, b) {
                lo = mid + 1;
            } else if (ea, eb) > (a, b) {
                hi = mid;
            } else {
                return Self::rel_of(tag);
            }
        }
        None
    }

    /// The relationship between `x` and `y` from `x`'s point of view —
    /// mirror of `RelationshipMap::orientation`.
    pub fn orientation(&self, x: Asn, y: Asn) -> Option<Orientation> {
        let rel = self.get(x, y)?;
        let x_is_a = x.0 < y.0;
        Some(match (rel, x_is_a) {
            (LinkRel::AC2pB, true) | (LinkRel::AP2cB, false) => Orientation::Provider,
            (LinkRel::AC2pB, false) | (LinkRel::AP2cB, true) => Orientation::Customer,
            (LinkRel::P2p, _) => Orientation::Peer,
            (LinkRel::S2s, _) => Orientation::Sibling,
        })
    }
}

// ---------------------------------------------------------------------
// Degree section
// ---------------------------------------------------------------------

/// Borrowed view over a degree-table section: packed 20-byte entries
/// `(u32 asn, u64 transit, u64 node)` in ranked order (transit desc,
/// node desc, ASN asc) — *not* ASN order, so point lookups by ASN go
/// through an index the caller builds once (the serve snapshot does).
#[derive(Debug, Clone, Copy)]
pub struct DegreesView<'a> {
    raw: &'a [u8],
}

impl<'a> DegreesView<'a> {
    fn read(d: &mut Decoder<'a>) -> Result<(Section, Self), CodecError> {
        let (sec, raw) = section(d, DEGREE_STRIDE, "degree count")?;
        Ok((sec, DegreesView { raw }))
    }

    fn from_section(frame: &'a [u8], sec: Section) -> Self {
        DegreesView {
            raw: sec.slice(frame, DEGREE_STRIDE),
        }
    }

    /// Number of ASes observed.
    pub fn len(&self) -> usize {
        self.raw.len() / DEGREE_STRIDE
    }

    /// True when no AS was observed.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Entry `i` in ranked order: `(asn, transit degree, node degree)`.
    pub fn entry(&self, i: usize) -> Option<(Asn, u64, u64)> {
        let off = i.checked_mul(DEGREE_STRIDE)?;
        Some((
            Asn(rd_u32(self.raw, off)?),
            rd_u64(self.raw, off + 4)?,
            rd_u64(self.raw, off + 12)?,
        ))
    }

    /// Iterate ranked entries in order.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, u64, u64)> + 'a {
        let raw = self.raw;
        (0..raw.len() / DEGREE_STRIDE).filter_map(move |i| {
            let off = i * DEGREE_STRIDE;
            Some((
                Asn(rd_u32(raw, off)?),
                rd_u64(raw, off + 4)?,
                rd_u64(raw, off + 12)?,
            ))
        })
    }
}

// ---------------------------------------------------------------------
// Cone-size section
// ---------------------------------------------------------------------

/// Borrowed view over packed 24-byte cone-size entries
/// `(u64 ases, u64 prefixes, u64 addresses)`.
#[derive(Debug, Clone, Copy)]
pub struct SizesView<'a> {
    raw: &'a [u8],
}

impl<'a> SizesView<'a> {
    /// Number of size entries (one per distinct cone set).
    pub fn len(&self) -> usize {
        self.raw.len() / SIZE_STRIDE
    }

    /// True when there are no sets.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Size entry `i`, or `None` past the end (or if a stored count
    /// overflows `usize`, impossible on 64-bit targets).
    pub fn get(&self, i: usize) -> Option<ConeSize> {
        let off = i.checked_mul(SIZE_STRIDE)?;
        Some(ConeSize {
            ases: usize::try_from(rd_u64(self.raw, off)?).ok()?,
            prefixes: usize::try_from(rd_u64(self.raw, off + 8)?).ok()?,
            addresses: rd_u64(self.raw, off + 16)?,
        })
    }
}

// ---------------------------------------------------------------------
// Variable-stride sample section
// ---------------------------------------------------------------------

/// One path sample read in place: scalars are decoded (they are the
/// iteration cursor), the hop list stays a borrowed [`U32View`].
#[derive(Debug, Clone, Copy)]
pub struct SampleRef<'a> {
    /// Vantage point that observed the path.
    pub vp: Asn,
    /// Announced prefix.
    pub prefix: Ipv4Prefix,
    /// AS hops, VP first.
    pub hops: U32View<'a>,
}

/// Borrowed view over a variable-stride sample section. `read` walks the
/// whole section once at open time (validating prefixes and hop-list
/// lengths); iteration then re-walks the same bytes infallibly.
#[derive(Debug, Clone, Copy)]
pub struct SamplesView<'a> {
    raw: &'a [u8],
    count: usize,
}

impl<'a> SamplesView<'a> {
    fn read(d: &mut Decoder<'a>) -> Result<Self, CodecError> {
        let count = d.seq_len(9, "sample count")?;
        let start = d.position();
        let tail = d.tail();
        for _ in 0..count {
            d.u32("sample vp")?;
            let network = d.u32("sample prefix network")?;
            let plen = d.u8("sample prefix length")?;
            if Ipv4Prefix::new(network, plen).is_err() {
                return Err(bad("sample prefix length", u64::from(plen)));
            }
            d.seq_u32_view("sample path")?;
        }
        let consumed = d.position() - start;
        Ok(SamplesView {
            raw: &tail[..consumed],
            count,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the section holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterate the samples in stored order.
    pub fn iter(&self) -> SamplesIter<'a> {
        SamplesIter {
            raw: self.raw,
            pos: 0,
            left: self.count,
        }
    }
}

/// Iterator over a validated [`SamplesView`].
#[derive(Debug)]
pub struct SamplesIter<'a> {
    raw: &'a [u8],
    pos: usize,
    left: usize,
}

impl<'a> Iterator for SamplesIter<'a> {
    type Item = SampleRef<'a>;

    fn next(&mut self) -> Option<SampleRef<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let vp = rd_u32(self.raw, self.pos)?;
        let network = rd_u32(self.raw, self.pos + 4)?;
        let plen = *self.raw.get(self.pos + 8)?;
        let hop_count = usize::try_from(rd_u64(self.raw, self.pos + 9)?).ok()?;
        let hops_off = self.pos + 17;
        let hops = U32View::new(self.raw.get(hops_off..hops_off + hop_count * 4)?);
        self.pos = hops_off + hop_count * 4;
        Some(SampleRef {
            vp: Asn(vp),
            prefix: Ipv4Prefix::new(network, plen).ok()?,
            hops,
        })
    }
}

// ---------------------------------------------------------------------
// Frame views, per artifact kind
// ---------------------------------------------------------------------

/// Frame-relative section table of an INFERENCE frame — everything a
/// serve snapshot must remember to rebuild an [`InferenceView`] over the
/// mapped bytes per query, free of self-borrows.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferenceLayout {
    /// Sorted relationship entries.
    pub rels: Section,
    /// Clique ASNs.
    pub clique: Section,
    /// Ranked degree entries.
    pub degrees: Section,
}

/// View of an INFERENCE frame (stage `s11_inference`) — the serve tier's
/// primary frame: final relationships, clique, and degree table.
#[derive(Debug, Clone, Copy)]
pub struct InferenceView<'a> {
    /// Final relationship classification, sorted by canonical link.
    pub rels: RelsView<'a>,
    /// Tier-1 clique ASNs in stored (ascending) order.
    pub clique: U32View<'a>,
    /// Degree table in ranked order.
    pub degrees: DegreesView<'a>,
}

impl<'a> InferenceView<'a> {
    /// Validate and open an INFERENCE frame, returning the view, its
    /// reusable layout, and the decoded report (small scalars).
    pub fn open(bytes: &'a [u8]) -> Result<(Self, InferenceLayout, InferenceReport), CodecError> {
        let mut d = Decoder::open(bytes, kind::INFERENCE)?;
        let (rels_sec, rels) = RelsView::read(&mut d)?;
        let (clique_sec, clique) = u32_section(&mut d, "inference clique")?;
        let (deg_sec, degrees) = DegreesView::read(&mut d)?;
        let report = super::get_inference_report(&mut d)?;
        d.finish()?;
        Ok((
            InferenceView {
                rels,
                clique,
                degrees,
            },
            InferenceLayout {
                rels: rels_sec,
                clique: clique_sec,
                degrees: deg_sec,
            },
            report,
        ))
    }

    /// Rebuild a view from bytes + a layout previously produced by
    /// [`InferenceView::open`] over the same bytes. No re-validation.
    pub fn from_layout(frame: &'a [u8], layout: &InferenceLayout) -> Self {
        InferenceView {
            rels: RelsView::from_section(frame, layout.rels),
            clique: U32View::new(layout.clique.slice(frame, 4)),
            degrees: DegreesView::from_section(frame, layout.degrees),
        }
    }
}

/// Frame-relative section table of a CONE frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConeLayout {
    /// Sorted interned ASNs.
    pub interner: Section,
    /// Per-id set index.
    pub set_of: Section,
    /// Flat member arena.
    pub members: Section,
    /// Set bounds into the arena.
    pub bounds: Section,
    /// Per-set size triples.
    pub sizes: Section,
}

/// View of a CONE frame (any cone flavor): membership and size queries
/// in place, mirroring `CustomerCones` accessor semantics exactly.
#[derive(Debug, Clone, Copy)]
pub struct ConeView<'a> {
    interner: U32View<'a>,
    set_of: U32View<'a>,
    members: U32View<'a>,
    bounds: U32View<'a>,
    sizes: SizesView<'a>,
}

impl<'a> ConeView<'a> {
    /// Validate and open a CONE frame, re-checking the structural
    /// invariants `CustomerCones::from_raw_parts` enforces (plus sort
    /// order of the interner and of each member set, which the binary
    /// searches here index by).
    pub fn open(bytes: &'a [u8]) -> Result<(Self, ConeLayout), CodecError> {
        let mut d = Decoder::open(bytes, kind::CONE)?;
        let (interner_sec, interner) = u32_section(&mut d, "cone interner")?;
        let (set_of_sec, set_of) = u32_section(&mut d, "cone set_of")?;
        let (members_sec, members) = u32_section(&mut d, "cone members")?;
        let (bounds_sec, bounds) = u32_section(&mut d, "cone bounds")?;
        let (sizes_sec, sizes_raw) = section(&mut d, SIZE_STRIDE, "cone size count")?;
        d.finish()?;
        let sizes = SizesView { raw: sizes_raw };

        if set_of.len() != interner.len() {
            return Err(bad("cone set_of count", set_of.len() as u64));
        }
        let sets = sizes.len();
        let trivially_empty = sets == 0 && bounds.len() <= 1 && members.is_empty();
        if bounds.len() != sets + 1 && !trivially_empty {
            return Err(bad("cone bounds count", bounds.len() as u64));
        }
        match (bounds.get(0), bounds.get(bounds.len().wrapping_sub(1))) {
            (Some(first), Some(last)) => {
                if first != 0 || last as usize != members.len() {
                    return Err(bad("cone bounds span", u64::from(last)));
                }
            }
            _ => {
                if !members.is_empty() {
                    return Err(bad("cone bounds span", members.len() as u64));
                }
            }
        }
        let mut prev_bound = 0u32;
        for b in bounds.iter() {
            if b < prev_bound {
                return Err(bad("cone bounds order", u64::from(b)));
            }
            prev_bound = b;
        }
        if set_of.iter().any(|s| s as usize >= sets) {
            return Err(bad("cone set id", sets as u64));
        }
        let mut prev = None;
        for a in interner.iter() {
            if prev.is_some_and(|p| p >= a) {
                return Err(bad("cone interner order", u64::from(a)));
            }
            prev = Some(a);
        }
        for s in 0..sets {
            let (Some(lo), Some(hi)) = (bounds.get(s), bounds.get(s + 1)) else {
                continue;
            };
            let mut prev = None;
            for i in lo as usize..hi as usize {
                let m = members.get(i).ok_or(bad("cone member index", i as u64))?;
                if prev.is_some_and(|p| p >= m) {
                    return Err(bad("cone member order", u64::from(m)));
                }
                prev = Some(m);
            }
        }

        Ok((
            ConeView {
                interner,
                set_of,
                members,
                bounds,
                sizes,
            },
            ConeLayout {
                interner: interner_sec,
                set_of: set_of_sec,
                members: members_sec,
                bounds: bounds_sec,
                sizes: sizes_sec,
            },
        ))
    }

    /// Rebuild a view from bytes + a layout previously produced by
    /// [`ConeView::open`] over the same bytes. No re-validation.
    pub fn from_layout(frame: &'a [u8], layout: &ConeLayout) -> Self {
        ConeView {
            interner: U32View::new(layout.interner.slice(frame, 4)),
            set_of: U32View::new(layout.set_of.slice(frame, 4)),
            members: U32View::new(layout.members.slice(frame, 4)),
            bounds: U32View::new(layout.bounds.slice(frame, 4)),
            sizes: SizesView {
                raw: layout.sizes.slice(frame, SIZE_STRIDE),
            },
        }
    }

    /// Number of ASes covered.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    /// True when no cone was computed.
    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    fn id_of(&self, asn: Asn) -> Option<usize> {
        self.interner.binary_search(asn.0).ok()
    }

    /// Cone size of `asn` — mirror of `CustomerCones::size`, including
    /// the `{ases: 1, ..}` fallback for ASes without a computed cone.
    pub fn size(&self, asn: Asn) -> ConeSize {
        self.id_of(asn)
            .and_then(|id| self.sizes.get(self.set_of.get(id)? as usize))
            .unwrap_or(ConeSize {
                ases: 1,
                prefixes: 0,
                addresses: 0,
            })
    }

    /// Sorted cone membership of `asn` as a borrowed view (empty for
    /// unknown ASes) — mirror of `CustomerCones::members`.
    pub fn members(&self, asn: Asn) -> U32View<'a> {
        self.id_of(asn)
            .and_then(|id| {
                let set = self.set_of.get(id)? as usize;
                let lo = self.bounds.get(set)? as usize;
                let hi = self.bounds.get(set + 1)? as usize;
                self.members.slice(lo, hi)
            })
            .unwrap_or(U32View::new(&[]))
    }

    /// True when `y` is in `x`'s cone — mirror of
    /// `CustomerCones::contains`: one interner search plus one member
    /// search, no allocation.
    pub fn contains(&self, x: Asn, y: Asn) -> bool {
        self.members(x).binary_search(y.0).is_ok()
    }

    /// Iterate `(asn, cone size)` for every covered AS in ascending ASN
    /// order — mirror of `CustomerCones::iter_sizes`.
    pub fn iter_sizes(&self) -> impl Iterator<Item = (Asn, ConeSize)> + '_ {
        (0..self.len()).filter_map(move |id| {
            let asn = Asn(self.interner.get(id)?);
            let size = self.sizes.get(self.set_of.get(id)? as usize)?;
            Some((asn, size))
        })
    }
}

/// View of a PATHSET frame (the CLI's decoded-RIB ingest cache).
#[derive(Debug, Clone, Copy)]
pub struct PathsetView<'a> {
    /// The raw samples, in place.
    pub samples: SamplesView<'a>,
}

impl<'a> PathsetView<'a> {
    /// Validate and open a PATHSET frame.
    pub fn open(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::open(bytes, kind::PATHSET)?;
        let samples = SamplesView::read(&mut d)?;
        d.finish()?;
        Ok(PathsetView { samples })
    }
}

/// Compute [`super::pathset_fingerprint`] straight from a PATHSET frame,
/// without materializing a `PathSet`. This is what lets `asrank serve`
/// resolve exact stage cache keys from a RIB file plus cache directory
/// alone: hash the streamed samples exactly as the owned fingerprint
/// does, then feed the result to `engine::stage_disk_key`.
pub fn pathset_fingerprint_from_frame(bytes: &[u8]) -> Result<u64, CodecError> {
    use std::hash::Hasher;
    let v = PathsetView::open(bytes)?;
    let mut h = asrank_types::FxHasher::default();
    h.write_usize(v.samples.len());
    for s in v.samples.iter() {
        h.write_u32(s.vp.0);
        h.write_u32(s.prefix.network());
        h.write_u8(s.prefix.len());
        h.write_usize(s.hops.len());
        for a in s.hops.iter() {
            h.write_u32(a);
        }
    }
    Ok(h.finish())
}
