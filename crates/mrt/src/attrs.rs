//! BGP path attributes (RFC 4271 §4.3, RFC 6793).
//!
//! Only the attributes the reproduction needs are given typed forms;
//! everything else round-trips as [`PathAttribute::Unknown`] so no
//! information is lost when re-encoding a file.

use crate::error::MrtError;
use crate::wire::{fit_u16, put_u16, put_u32, Cursor};
use asrank_types::{AsPath, Asn};

/// Attribute flag bit: optional.
pub const FLAG_OPTIONAL: u8 = 0x80;
/// Attribute flag bit: transitive.
pub const FLAG_TRANSITIVE: u8 = 0x40;
/// Attribute flag bit: extended (2-byte) length.
pub const FLAG_EXTENDED: u8 = 0x10;

const TYPE_ORIGIN: u8 = 1;
const TYPE_AS_PATH: u8 = 2;
const TYPE_NEXT_HOP: u8 = 3;
const TYPE_MED: u8 = 4;

/// RFC 6793's `AS_TRANS`, written for an ASN a 2-byte field cannot hold.
const AS_TRANS: u16 = 23456;

const SEGMENT_SET: u8 = 1;
pub(crate) const SEGMENT_SEQUENCE: u8 = 2;

/// One segment of an `AS_PATH` attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsPathSegment {
    /// Ordered sequence of ASNs (`AS_SEQUENCE`).
    Sequence(Vec<Asn>),
    /// Unordered set of ASNs (`AS_SET`, from aggregation).
    Set(Vec<Asn>),
}

impl AsPathSegment {
    /// The ASNs in the segment, in stored order.
    pub fn asns(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => v,
        }
    }

    /// The segment's wire type code and its hops.
    fn wire(&self) -> (u8, &[Asn]) {
        match self {
            AsPathSegment::Set(a) => (SEGMENT_SET, a),
            AsPathSegment::Sequence(a) => (SEGMENT_SEQUENCE, a),
        }
    }
}

/// Hops one `AS_PATH` segment holds: its count is a single octet.
const MAX_SEGMENT_HOPS: usize = 255;

/// Append an attribute header — the one writer of flags, type and
/// length. The extended-length bit is set when `len` needs two octets or
/// `flags` already carries it, and cleared otherwise. A `len` over
/// 65,535 is [`MrtError::Overflow`], and then nothing is appended.
pub(crate) fn put_attr_header(
    out: &mut Vec<u8>,
    flags: u8,
    type_code: u8,
    len: usize,
) -> Result<(), MrtError> {
    match u8::try_from(len) {
        Ok(short) if flags & FLAG_EXTENDED == 0 => {
            out.extend_from_slice(&[flags, type_code, short]);
        }
        _ => {
            let long = fit_u16(len, "attr ext length")?;
            out.extend_from_slice(&[flags | FLAG_EXTENDED, type_code]);
            put_u16(out, long);
        }
    }
    Ok(())
}

/// Append an `AS_PATH` attribute holding `segments` (type code and hops)
/// in order, with 4-byte ASNs or, for `as4 = false`, 2-byte ones with
/// `AS_TRANS` standing in for wider ASNs. A sequence over 255 hops is
/// written as consecutive `AS_SEQUENCE` segments of at most 255 (RFC 4271
/// §4.3), which every reader joins back; an empty segment stays one
/// segment with no hops. An `AS_SET` over 255 members, or a value over
/// 65,535 bytes, is [`MrtError::Overflow`], and then nothing is appended.
pub(crate) fn put_as_path<'a>(
    out: &mut Vec<u8>,
    segments: impl Iterator<Item = (u8, &'a [Asn])> + Clone,
    as4: bool,
) -> Result<(), MrtError> {
    let width = if as4 { 4 } else { 2 };
    let mut len = 0;
    for (seg_type, hops) in segments.clone() {
        if seg_type == SEGMENT_SET && hops.len() > MAX_SEGMENT_HOPS {
            return Err(MrtError::Overflow {
                context: "as_set members",
                value: hops.len(),
                max: MAX_SEGMENT_HOPS,
            });
        }
        len += 2 * hops.len().div_ceil(MAX_SEGMENT_HOPS).max(1) + width * hops.len();
    }
    put_attr_header(out, FLAG_TRANSITIVE, TYPE_AS_PATH, len)?;
    out.reserve(len);
    for (seg_type, hops) in segments {
        let mut pieces = hops.chunks(MAX_SEGMENT_HOPS);
        // `chunks` yields nothing for no hops; the segment is still written.
        let first = pieces.next().unwrap_or_default();
        for piece in std::iter::once(first).chain(pieces) {
            // At most MAX_SEGMENT_HOPS, so the count fits its octet.
            out.extend_from_slice(&[seg_type, piece.len() as u8]);
            for asn in piece {
                if as4 {
                    put_u32(out, asn.0);
                } else {
                    put_u16(out, u16::try_from(asn.0).unwrap_or(AS_TRANS));
                }
            }
        }
    }
    Ok(())
}

/// A decoded BGP path attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathAttribute {
    /// `ORIGIN` (type 1): 0 = IGP, 1 = EGP, 2 = INCOMPLETE.
    Origin(u8),
    /// `AS_PATH` (type 2) with 4-byte ASNs (RFC 6793 encoding, as used in
    /// TABLE_DUMP_V2 and BGP4MP_MESSAGE_AS4).
    AsPath(Vec<AsPathSegment>),
    /// `NEXT_HOP` (type 3): IPv4 address in host byte order.
    NextHop(u32),
    /// `MULTI_EXIT_DISC` (type 4).
    Med(u32),
    /// Any other attribute, preserved verbatim.
    Unknown {
        /// Original flag octet.
        flags: u8,
        /// Attribute type code.
        type_code: u8,
        /// Raw attribute value bytes.
        value: Vec<u8>,
    },
}

impl PathAttribute {
    /// Build the conventional `AS_PATH` attribute for a plain sequence.
    pub fn as_path_sequence(path: &AsPath) -> PathAttribute {
        PathAttribute::AsPath(vec![AsPathSegment::Sequence(path.0.clone())])
    }

    /// If this is an `AS_PATH`, flatten it to an [`AsPath`]
    /// (sets contribute their members in stored order, matching how AS
    /// topology studies treat aggregated segments).
    pub fn flatten_as_path(&self) -> Option<AsPath> {
        match self {
            PathAttribute::AsPath(segs) => {
                let mut v = Vec::new();
                for s in segs {
                    v.extend_from_slice(s.asns());
                }
                Some(AsPath(v))
            }
            _ => None,
        }
    }

    /// Encode this attribute, appending to `out` (4-byte ASNs).
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        self.encode_sized(out, true)
    }

    /// Encode with explicit ASN width: `as4 = false` produces the legacy
    /// 2-byte `AS_PATH` encoding used by `TABLE_DUMP` (v1) records; ASNs
    /// above 65535 are replaced by `AS_TRANS` (23456), as RFC 6793
    /// speakers do. An `AS_PATH` sequence over 255 hops is written as
    /// consecutive `AS_SEQUENCE` segments of at most 255; an `AS_SET`
    /// over 255 members, or a value that does not fit its length field,
    /// is [`MrtError::Overflow`], and then nothing is appended.
    pub fn encode_sized(&self, out: &mut Vec<u8>, as4: bool) -> Result<(), MrtError> {
        match self {
            PathAttribute::Origin(v) => {
                put_attr_header(out, FLAG_TRANSITIVE, TYPE_ORIGIN, 1)?;
                out.push(*v);
            }
            PathAttribute::AsPath(segs) => {
                put_as_path(out, segs.iter().map(AsPathSegment::wire), as4)?
            }
            PathAttribute::NextHop(ip) => {
                put_attr_header(out, FLAG_TRANSITIVE, TYPE_NEXT_HOP, 4)?;
                put_u32(out, *ip);
            }
            PathAttribute::Med(v) => {
                put_attr_header(out, FLAG_OPTIONAL, TYPE_MED, 4)?;
                put_u32(out, *v);
            }
            PathAttribute::Unknown {
                flags,
                type_code,
                value,
            } => {
                put_attr_header(out, *flags, *type_code, value.len())?;
                out.extend_from_slice(value);
            }
        }
        Ok(())
    }

    /// Decode one attribute from the cursor (4-byte ASNs).
    pub fn decode(c: &mut Cursor<'_>) -> Result<PathAttribute, MrtError> {
        Self::decode_sized(c, true)
    }

    /// Decode with explicit ASN width (see [`Self::encode_sized`]).
    pub fn decode_sized(c: &mut Cursor<'_>, as4: bool) -> Result<PathAttribute, MrtError> {
        RawAttribute::read(c, as4).map(RawAttribute::into_owned)
    }

    /// Decode a whole attribute block of `len` bytes (4-byte ASNs).
    pub fn decode_block(c: &mut Cursor<'_>, len: usize) -> Result<Vec<PathAttribute>, MrtError> {
        Self::decode_block_sized(c, len, true)
    }

    /// Decode a whole attribute block with explicit ASN width.
    pub fn decode_block_sized(
        c: &mut Cursor<'_>,
        len: usize,
        as4: bool,
    ) -> Result<Vec<PathAttribute>, MrtError> {
        let mut block = c.sub(len, "attribute block")?;
        let mut attrs = Vec::new();
        while !block.is_empty() {
            attrs.push(PathAttribute::decode_sized(&mut block, as4)?);
        }
        Ok(attrs)
    }
}

/// One attribute read off the wire with every field checked and its
/// value still borrowed — the one statement of attribute validation.
/// [`PathAttribute::decode_sized`] turns it into the owned form; the RIB
/// sample decoder ([`crate::table`]) inspects it in place and copies out
/// only the `AS_PATH` it keeps.
#[derive(Debug)]
pub(crate) enum RawAttribute<'a> {
    Origin(u8),
    AsPath(RawAsPath<'a>),
    NextHop(u32),
    Med(u32),
    Unknown {
        flags: u8,
        type_code: u8,
        value: &'a [u8],
    },
}

impl<'a> RawAttribute<'a> {
    /// Read one attribute: flags, type, (extended) length, then the value
    /// checked against its type — `ORIGIN` at most 2, `NEXT_HOP` and `MED`
    /// at least four bytes, every `AS_PATH` segment in bounds and of a
    /// known type.
    pub(crate) fn read(c: &mut Cursor<'a>, as4: bool) -> Result<Self, MrtError> {
        let flags = c.u8("attr flags")?;
        let type_code = c.u8("attr type")?;
        let len = if flags & FLAG_EXTENDED != 0 {
            c.u16("attr ext length")? as usize
        } else {
            c.u8("attr length")? as usize
        };
        let mut body = c.sub(len, "attr value")?;
        Ok(match type_code {
            TYPE_ORIGIN => {
                let v = body.u8("origin value")?;
                if v > 2 {
                    return Err(MrtError::BadValue {
                        context: "origin value",
                        value: v as u64,
                    });
                }
                RawAttribute::Origin(v)
            }
            TYPE_AS_PATH => RawAttribute::AsPath(RawAsPath::check(body, as4)?),
            TYPE_NEXT_HOP => RawAttribute::NextHop(body.u32("next_hop")?),
            TYPE_MED => RawAttribute::Med(body.u32("med")?),
            _ => RawAttribute::Unknown {
                flags,
                type_code,
                value: body.take(body.remaining(), "unknown attr")?,
            },
        })
    }

    fn into_owned(self) -> PathAttribute {
        match self {
            RawAttribute::Origin(v) => PathAttribute::Origin(v),
            RawAttribute::AsPath(path) => {
                let mut segs = Vec::new();
                path.for_each_segment(|seg_type, hops| {
                    let asns = hops.collect();
                    segs.push(if seg_type == SEGMENT_SET {
                        AsPathSegment::Set(asns)
                    } else {
                        AsPathSegment::Sequence(asns)
                    });
                });
                PathAttribute::AsPath(segs)
            }
            RawAttribute::NextHop(ip) => PathAttribute::NextHop(ip),
            RawAttribute::Med(v) => PathAttribute::Med(v),
            RawAttribute::Unknown {
                flags,
                type_code,
                value,
            } => PathAttribute::Unknown {
                flags,
                type_code,
                value: value.to_vec(),
            },
        }
    }
}

/// A checked `AS_PATH` value, still in wire form: every segment has a
/// known type and its hops lie inside the value.
#[derive(Debug)]
pub(crate) struct RawAsPath<'a> {
    value: Cursor<'a>,
    as4: bool,
}

impl<'a> RawAsPath<'a> {
    fn check(value: Cursor<'a>, as4: bool) -> Result<Self, MrtError> {
        Self::walk(value.clone(), as4, |_, _| {})?;
        Ok(RawAsPath { value, as4 })
    }

    /// Walk the segments in stored order, handing each one's type and
    /// hops to `visit`. A segment's hops are bounds-checked before its
    /// type, the order the owned decoder always reported them in.
    fn walk(
        mut value: Cursor<'a>,
        as4: bool,
        mut visit: impl FnMut(u8, WireAsns<'a>),
    ) -> Result<(), MrtError> {
        let (width, context) = if as4 {
            (4, "as_path asn")
        } else {
            (2, "as_path asn16")
        };
        while !value.is_empty() {
            let seg_type = value.u8("as_path segment type")?;
            let count = value.u8("as_path segment count")? as usize;
            let hops = value.take(count * width, context)?;
            if seg_type != SEGMENT_SET && seg_type != SEGMENT_SEQUENCE {
                return Err(MrtError::BadValue {
                    context: "as_path segment type",
                    value: seg_type as u64,
                });
            }
            visit(seg_type, WireAsns(hops.chunks_exact(width)));
        }
        Ok(())
    }

    /// Visit each segment in stored order with its type and hops.
    fn for_each_segment(&self, visit: impl FnMut(u8, WireAsns<'a>)) {
        // `check` walked this value without error, so this walk cannot
        // fail either.
        let _ = Self::walk(self.value.clone(), self.as4, visit);
    }

    /// Every segment's hops concatenated in stored order — AS_SET members
    /// included, as [`PathAttribute::flatten_as_path`] does for the owned
    /// form — in one allocation sized from the value length.
    pub(crate) fn flatten(&self) -> AsPath {
        let width = if self.as4 { 4 } else { 2 };
        let mut hops = Vec::with_capacity(self.value.remaining() / width);
        self.for_each_segment(|_, asns| hops.extend(asns));
        AsPath(hops)
    }
}

/// The hops of one `AS_PATH` segment, decoded from their 2- or 4-byte
/// big-endian wire form as they are iterated.
struct WireAsns<'a>(std::slice::ChunksExact<'a, u8>);

impl Iterator for WireAsns<'_> {
    type Item = Asn;

    fn next(&mut self) -> Option<Asn> {
        Some(Asn(match *self.0.next()? {
            [a, b, c, d] => u32::from_be_bytes([a, b, c, d]),
            [a, b] => u32::from(u16::from_be_bytes([a, b])),
            _ => return None,
        }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(attr: PathAttribute) -> PathAttribute {
        let mut buf = Vec::new();
        attr.encode(&mut buf).unwrap();
        let mut c = Cursor::new(&buf);
        let out = PathAttribute::decode(&mut c).unwrap();
        assert!(c.is_empty(), "decode must consume the whole encoding");
        out
    }

    #[test]
    fn origin_roundtrip() {
        for v in 0..=2u8 {
            assert_eq!(
                roundtrip(PathAttribute::Origin(v)),
                PathAttribute::Origin(v)
            );
        }
    }

    #[test]
    fn origin_rejects_bad_value() {
        let mut buf = Vec::new();
        PathAttribute::Origin(0).encode(&mut buf).unwrap();
        let n = buf.len();
        buf[n - 1] = 7; // corrupt the value
        assert!(matches!(
            PathAttribute::decode(&mut Cursor::new(&buf)),
            Err(MrtError::BadValue { .. })
        ));
    }

    #[test]
    fn as_path_rejects_unknown_segment_type_after_its_hops() {
        // flags, type AS_PATH, length 6: segment type 3, one 4-byte hop.
        let bad = [FLAG_TRANSITIVE, TYPE_AS_PATH, 6, 3, 1, 0, 0, 0, 9];
        assert!(matches!(
            PathAttribute::decode(&mut Cursor::new(&bad)),
            Err(MrtError::BadValue {
                context: "as_path segment type",
                value: 3
            })
        ));
        // Declaring two hops where one fits is reported as truncation,
        // before the bad type is looked at.
        let mut short = bad;
        short[4] = 2;
        assert!(matches!(
            PathAttribute::decode(&mut Cursor::new(&short)),
            Err(MrtError::Truncated {
                context: "as_path asn"
            })
        ));
    }

    #[test]
    fn as_path_roundtrip_with_set_and_sequence() {
        let attr = PathAttribute::AsPath(vec![
            AsPathSegment::Sequence(vec![Asn(7018), Asn(3356), Asn(65000)]),
            AsPathSegment::Set(vec![Asn(1), Asn(2)]),
        ]);
        assert_eq!(roundtrip(attr.clone()), attr);
    }

    #[test]
    fn flatten_merges_segments() {
        let attr = PathAttribute::AsPath(vec![
            AsPathSegment::Sequence(vec![Asn(10), Asn(20)]),
            AsPathSegment::Set(vec![Asn(30)]),
        ]);
        assert_eq!(
            attr.flatten_as_path().unwrap(),
            AsPath::from_u32s([10, 20, 30])
        );
        assert!(PathAttribute::Origin(0).flatten_as_path().is_none());
    }

    #[test]
    fn next_hop_and_med_roundtrip() {
        assert_eq!(
            roundtrip(PathAttribute::NextHop(0x0a000001)),
            PathAttribute::NextHop(0x0a000001)
        );
        assert_eq!(
            roundtrip(PathAttribute::Med(4096)),
            PathAttribute::Med(4096)
        );
    }

    #[test]
    fn unknown_attribute_preserved() {
        let attr = PathAttribute::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code: 32, // LARGE_COMMUNITY
            value: vec![0xde, 0xad, 0xbe, 0xef],
        };
        assert_eq!(roundtrip(attr.clone()), attr);
    }

    #[test]
    fn extended_length_used_for_big_values() {
        let attr = PathAttribute::Unknown {
            flags: FLAG_OPTIONAL,
            type_code: 99,
            value: vec![0xab; 300],
        };
        let mut buf = Vec::new();
        attr.encode(&mut buf).unwrap();
        assert!(buf[0] & FLAG_EXTENDED != 0);
        let decoded = PathAttribute::decode(&mut Cursor::new(&buf)).unwrap();
        match decoded {
            PathAttribute::Unknown { value, .. } => assert_eq!(value.len(), 300),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_as_path_is_error() {
        let attr = PathAttribute::as_path_sequence(&AsPath::from_u32s([1, 2, 3]));
        let mut buf = Vec::new();
        attr.encode(&mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        // The attribute's *declared* length now exceeds the buffer.
        assert!(PathAttribute::decode(&mut Cursor::new(&buf)).is_err());
    }

    #[test]
    fn as2_roundtrip_and_as_trans_substitution() {
        let attr = PathAttribute::AsPath(vec![AsPathSegment::Sequence(vec![
            Asn(7018),
            Asn(400_000), // needs AS_TRANS in 2-byte encoding
        ])]);
        let mut buf = Vec::new();
        attr.encode_sized(&mut buf, false).unwrap();
        let got = PathAttribute::decode_sized(&mut Cursor::new(&buf), false).unwrap();
        assert_eq!(
            got.flatten_as_path().unwrap(),
            AsPath::from_u32s([7018, 23456])
        );
    }

    #[test]
    fn decode_block_parses_multiple() {
        let attrs = vec![
            PathAttribute::Origin(0),
            PathAttribute::as_path_sequence(&AsPath::from_u32s([9, 8])),
            PathAttribute::NextHop(1),
        ];
        let mut block = Vec::new();
        for a in &attrs {
            a.encode(&mut block).unwrap();
        }
        let mut c = Cursor::new(&block);
        let parsed = PathAttribute::decode_block(&mut c, block.len()).unwrap();
        assert_eq!(parsed, attrs);
    }

    #[test]
    fn long_sequence_splits_into_segments_and_round_trips() {
        let hops: Vec<u32> = (1..=300).map(|i| 4_200_000_000 + i).collect();
        let path = AsPath::from_u32s(hops.iter().copied());
        let mut buf = Vec::new();
        PathAttribute::as_path_sequence(&path)
            .encode(&mut buf)
            .unwrap();
        // Extended header, then a 255-hop and a 45-hop AS_SEQUENCE.
        let value_len = 2 + 4 * 255 + 2 + 4 * 45;
        assert_eq!(buf.len(), 4 + value_len);
        assert_eq!(
            buf[..4],
            [
                FLAG_TRANSITIVE | FLAG_EXTENDED,
                TYPE_AS_PATH,
                (value_len >> 8) as u8,
                value_len as u8
            ]
        );
        assert_eq!(buf[4..6], [SEGMENT_SEQUENCE, 255]);
        assert_eq!(buf[6 + 4 * 255..8 + 4 * 255], [SEGMENT_SEQUENCE, 45]);
        let back = PathAttribute::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back.flatten_as_path().unwrap(), path);
    }

    #[test]
    fn empty_and_boundary_paths_keep_one_segment() {
        for (hops, extended) in [(0usize, false), (63, false), (64, true), (255, true)] {
            let path = AsPath::from_u32s((0..hops as u32).map(|i| i + 1));
            let mut buf = Vec::new();
            PathAttribute::as_path_sequence(&path)
                .encode(&mut buf)
                .unwrap();
            let header = if extended { 4 } else { 3 };
            assert_eq!(buf[0] & FLAG_EXTENDED != 0, extended, "{hops} hops");
            assert_eq!(buf.len(), header + 2 + 4 * hops, "{hops} hops");
            assert_eq!(buf[header..header + 2], [SEGMENT_SEQUENCE, hops as u8]);
            let back = PathAttribute::decode(&mut Cursor::new(&buf)).unwrap();
            assert_eq!(back.flatten_as_path().unwrap(), path);
        }
    }

    #[test]
    fn oversize_values_are_typed_errors_and_append_nothing() {
        let cases = [
            (
                PathAttribute::AsPath(vec![AsPathSegment::Set((0..256).map(Asn).collect())]),
                "as_set members",
            ),
            (
                // 16,400 hops take 65,730 bytes: over the extended length.
                PathAttribute::as_path_sequence(&AsPath::from_u32s(0..16_400)),
                "attr ext length",
            ),
            (
                PathAttribute::Unknown {
                    flags: FLAG_OPTIONAL,
                    type_code: 99,
                    value: vec![0; 65_536],
                },
                "attr ext length",
            ),
        ];
        for (attr, context) in cases {
            let mut buf = vec![7u8];
            let err = attr.encode(&mut buf).unwrap_err();
            assert!(
                matches!(err, MrtError::Overflow { context: c, .. } if c == context),
                "{err}"
            );
            assert_eq!(buf, [7], "a failed encode must append nothing");
        }
        // The largest sequence that fits still encodes.
        let mut buf = Vec::new();
        PathAttribute::as_path_sequence(&AsPath::from_u32s(0..16_320))
            .encode(&mut buf)
            .unwrap();
    }
}
