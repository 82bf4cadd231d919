//! Compact, length-prefixed, checksummed binary framing for persisted
//! engine artifacts.
//!
//! The staged engine (`asrank-core::engine`) memoizes every stage output
//! in memory; this module is the wire half of extending that memoization
//! across process boundaries. A cache file is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic        "ASRC" (0x43_52_53_41 little-endian)
//! 4       4     version      format version word (bump on layout change)
//! 8       2     kind         artifact-kind tag (owned by the encoder's caller)
//! 10      8     payload_len  little-endian u64
//! 18      n     payload      artifact-specific encoding
//! 18+n    8     checksum     checksum64 of bytes [0, 18+n)
//! ```
//!
//! Design constraints, in priority order:
//!
//! * **No dependencies, no serialization framework.** Everything is
//!   hand-rolled over little-endian primitives so the codec stays inside
//!   the vendored-only build.
//! * **Single-`read` loads.** A frame is self-describing: the caller
//!   reads the whole file into one buffer, validates it with
//!   [`Decoder::open`], and decodes sequences into pre-sized `Vec`s
//!   (lengths are bounds-checked against the remaining payload before any
//!   allocation, so a corrupt length cannot balloon memory).
//! * **Corruption is an error value, never a panic.** Truncated files,
//!   flipped bits, stale versions, and mismatched kinds all surface as
//!   [`CodecError`]; the cache layer treats every variant as a miss and
//!   recomputes.
//!
//! The checksum is [`checksum64`] over the header and payload: four
//! independent Fx lanes, one per 8-byte word of each 32-byte block, folded
//! with the byte length and the tail words. The lanes have no data
//! dependency on each other, so their multiply chains overlap instead of
//! waiting on one another, and validation runs at memory speed. Fx is
//! not cryptographic — the cache directory is trusted local state, and the
//! checksum only needs to catch torn writes and bit rot, deterministically
//! across processes (which `DefaultHasher` would not guarantee).

use crate::fxhash::FxHasher;
use std::fmt;
use std::hash::Hasher;

/// Frame magic: `b"ASRC"` read as a little-endian u32.
pub const CODEC_MAGIC: u32 = u32::from_le_bytes(*b"ASRC");

/// Current frame format version. Bump whenever any artifact encoding
/// changes shape; old files then decode as [`CodecError::BadVersion`]
/// and fall back to recompute.
pub const CODEC_VERSION: u32 = 2;

/// Fixed frame header length (magic + version + kind + payload length).
pub const HEADER_LEN: usize = 18;

/// Trailing checksum length.
pub const TRAILER_LEN: usize = 8;

/// Why a frame failed to decode. Every variant is a recoverable cache
/// miss for the persistence layer — none of them abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The first four bytes are not the frame magic (not a cache file).
    BadMagic {
        /// The magic word actually read.
        got: u32,
    },
    /// The frame was written by a different codec version.
    BadVersion {
        /// The version word actually read.
        got: u32,
    },
    /// The frame holds a different artifact kind than the caller expects.
    BadKind {
        /// Kind tag the caller asked for.
        expected: u16,
        /// Kind tag stored in the frame.
        got: u16,
    },
    /// Header/payload bytes do not hash to the stored checksum.
    BadChecksum {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the frame.
        computed: u64,
    },
    /// The buffer ended before the field being read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A decoded value is structurally impossible (e.g. a sequence length
    /// larger than the remaining payload, or an out-of-range tag).
    BadValue {
        /// What was being read.
        context: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic { got } => write!(f, "bad frame magic {got:#010x}"),
            CodecError::BadVersion { got } => {
                write!(f, "frame version {got} (expected {CODEC_VERSION})")
            }
            CodecError::BadKind { expected, got } => {
                write!(f, "frame holds artifact kind {got} (expected {expected})")
            }
            CodecError::BadChecksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::Truncated { context } => write!(f, "frame truncated reading {context}"),
            CodecError::BadValue { context, value } => {
                write!(f, "invalid value {value} reading {context}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes per block of [`checksum64`]: one little-endian word per lane.
const CHECKSUM_BLOCK: usize = 32;

/// The frame checksum primitive: four independent Fx lanes over the
/// words of each 32-byte block, then one Fx chain over the byte length,
/// the four lane states and the tail (under 32 bytes, the last word
/// zero-padded). Public so callers can key cache entries by content with
/// the same function the trailer uses.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    let mut lanes = [FxHasher::default(); 4];
    let mut blocks = bytes.chunks_exact(CHECKSUM_BLOCK);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            lane.write_u64(word(w));
        }
    }
    let mut h = FxHasher::default();
    h.write_u64(bytes.len() as u64);
    for lane in &lanes {
        h.write_u64(lane.finish());
    }
    h.write(blocks.remainder());
    h.finish()
}

/// Builds one frame. Write primitives in encode order, then call
/// [`Encoder::finish`] to patch the payload length and append the
/// checksum.
#[derive(Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Start a frame for the given artifact-kind tag.
    pub fn new(kind: u16) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&CODEC_MAGIC.to_le_bytes());
        buf.extend_from_slice(&CODEC_VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // payload_len, patched in finish()
        Encoder { buf }
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a usize as a little-endian u64 (usize is at most 64 bits on
    /// every supported target).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a u32 sequence: length prefix, then the elements.
    pub fn seq_u32(&mut self, vals: &[u32]) {
        self.usize(vals.len());
        self.buf.reserve(vals.len() * 4);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a u64 sequence: length prefix, then the elements.
    pub fn seq_u64(&mut self, vals: &[u64]) {
        self.usize(vals.len());
        self.buf.reserve(vals.len() * 8);
        for &v in vals {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Patch the payload length, append the checksum, and return the
    /// finished frame bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let payload_len = (self.buf.len() - HEADER_LEN) as u64;
        self.buf[10..HEADER_LEN].copy_from_slice(&payload_len.to_le_bytes());
        let sum = checksum64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Reads one validated frame. [`Decoder::open`] checks magic, version,
/// kind, declared length, and checksum up front; the read methods then
/// walk the payload and can only fail on structural impossibilities.
#[derive(Debug)]
pub struct Decoder<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// The artifact-kind tag of a frame, validated only as far as the
    /// header (magic + version + length). Lets a generic cache layer
    /// dispatch on kind before full decode.
    pub fn peek_kind(bytes: &'a [u8]) -> Result<u16, CodecError> {
        Self::validate(bytes).map(|(kind, _)| kind)
    }

    /// Validate a whole frame and return a payload decoder, or the
    /// precise reason the frame is unusable.
    pub fn open(bytes: &'a [u8], expected_kind: u16) -> Result<Self, CodecError> {
        let (kind, payload) = Self::validate(bytes)?;
        if kind != expected_kind {
            return Err(CodecError::BadKind {
                expected: expected_kind,
                got: kind,
            });
        }
        Ok(Decoder { payload, pos: 0 })
    }

    /// Shared header + checksum validation.
    fn validate(bytes: &'a [u8]) -> Result<(u16, &'a [u8]), CodecError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(CodecError::Truncated {
                context: "frame header",
            });
        }
        let word =
            |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let magic = word(0);
        if magic != CODEC_MAGIC {
            return Err(CodecError::BadMagic { got: magic });
        }
        let version = word(4);
        if version != CODEC_VERSION {
            return Err(CodecError::BadVersion { got: version });
        }
        let kind = u16::from_le_bytes([bytes[8], bytes[9]]);
        let mut len8 = [0u8; 8];
        len8.copy_from_slice(&bytes[10..HEADER_LEN]);
        let payload_len = u64::from_le_bytes(len8);
        // `HEADER_LEN + payload_len + TRAILER_LEN` must equal the buffer
        // exactly; checked arithmetic so a hostile length cannot wrap.
        let expected_total = usize::try_from(payload_len)
            .ok()
            .and_then(|n| n.checked_add(HEADER_LEN + TRAILER_LEN))
            .ok_or(CodecError::BadValue {
                context: "frame payload length",
                value: payload_len,
            })?;
        if bytes.len() != expected_total {
            return Err(CodecError::Truncated {
                context: "frame payload",
            });
        }
        let body_end = bytes.len() - TRAILER_LEN;
        let mut sum8 = [0u8; 8];
        sum8.copy_from_slice(&bytes[body_end..]);
        let stored = u64::from_le_bytes(sum8);
        let computed = checksum64(&bytes[..body_end]);
        if stored != computed {
            return Err(CodecError::BadChecksum { stored, computed });
        }
        Ok((kind, &bytes[HEADER_LEN..body_end]))
    }

    /// Bytes of payload not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { context });
        }
        let s = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, CodecError> {
        let s = self.take(2, context)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let s = self.take(4, context)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let s = self.take(8, context)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Read a u64 and narrow it to usize.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, CodecError> {
        let v = self.u64(context)?;
        usize::try_from(v).map_err(|_| CodecError::BadValue { context, value: v })
    }

    /// Read a sequence length and verify `len * elem_size` fits in the
    /// remaining payload — the guard that makes pre-sized allocation safe
    /// against corrupt lengths.
    pub fn seq_len(&mut self, elem_size: usize, context: &'static str) -> Result<usize, CodecError> {
        let len = self.usize(context)?;
        let need = len
            .checked_mul(elem_size)
            .ok_or(CodecError::BadValue {
                context,
                value: len as u64,
            })?;
        if need > self.remaining() {
            return Err(CodecError::BadValue {
                context,
                value: len as u64,
            });
        }
        Ok(len)
    }

    /// Read a length-prefixed u32 sequence into a pre-sized Vec.
    pub fn seq_u32(&mut self, context: &'static str) -> Result<Vec<u32>, CodecError> {
        let len = self.seq_len(4, context)?;
        let raw = self.take(len * 4, context)?;
        let mut out = Vec::with_capacity(len);
        for chunk in raw.chunks_exact(4) {
            out.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        Ok(out)
    }

    /// Read a length-prefixed u64 sequence into a pre-sized Vec.
    pub fn seq_u64(&mut self, context: &'static str) -> Result<Vec<u64>, CodecError> {
        let len = self.seq_len(8, context)?;
        let raw = self.take(len * 8, context)?;
        let mut out = Vec::with_capacity(len);
        for chunk in raw.chunks_exact(8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            out.push(u64::from_le_bytes(b));
        }
        Ok(out)
    }

    /// Assert the payload was consumed exactly — trailing garbage means
    /// the frame does not hold what the decoder thinks it holds.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::BadValue {
                context: "trailing payload bytes",
                value: self.remaining() as u64,
            });
        }
        Ok(())
    }

    /// Current read position within the payload. Together with
    /// [`HEADER_LEN`] this lets a caller record frame-relative offsets of
    /// the fields it walks past — the primitive the borrowed artifact
    /// views build their offset tables from.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Read a length-prefixed u32 sequence as a borrowed [`U32View`] —
    /// the zero-copy twin of [`Decoder::seq_u32`]. The same length guard
    /// applies; no element is decoded or allocated.
    pub fn seq_u32_view(&mut self, context: &'static str) -> Result<U32View<'a>, CodecError> {
        let len = self.seq_len(4, context)?;
        let raw = self.take(len * 4, context)?;
        Ok(U32View { raw })
    }

    /// Read a length-prefixed u64 sequence as a borrowed [`U64View`] —
    /// the zero-copy twin of [`Decoder::seq_u64`].
    pub fn seq_u64_view(&mut self, context: &'static str) -> Result<U64View<'a>, CodecError> {
        let len = self.seq_len(8, context)?;
        let raw = self.take(len * 8, context)?;
        Ok(U64View { raw })
    }

    /// Skip `n` raw payload bytes (a section the caller indexes later via
    /// a recorded offset instead of decoding now).
    pub fn skip(&mut self, n: usize, context: &'static str) -> Result<(), CodecError> {
        self.take(n, context).map(|_| ())
    }

    /// Borrow `n` raw payload bytes and advance past them — how a view
    /// layer slices out a fixed-stride section (e.g. packed 9-byte
    /// relationship entries) without decoding it.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        self.take(n, context)
    }
}

/// Borrowed view over a packed little-endian `u32` sequence: reads
/// happen in place with explicit byte loads, so the underlying bytes
/// need no alignment and are never copied. This is the element type of
/// the zero-decode read path — a mapped cache frame is queried through
/// these views without materializing a single `Vec`.
#[derive(Debug, Clone, Copy)]
pub struct U32View<'a> {
    raw: &'a [u8],
}

impl<'a> U32View<'a> {
    /// View over raw bytes holding packed LE u32s. Trailing bytes that
    /// do not fill a whole element are ignored.
    pub fn new(raw: &'a [u8]) -> Self {
        U32View {
            raw: &raw[..raw.len() - raw.len() % 4],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len() / 4
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Element `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<u32> {
        let off = i.checked_mul(4)?;
        let s = self.raw.get(off..off + 4)?;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Iterate the elements in order, decoding each on the fly.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Decode into an owned `Vec` (the escape hatch back to the owned
    /// world; the read path never calls this).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Binary search for `target`, assuming the elements are sorted
    /// ascending (the caller owns that invariant — interners and member
    /// arenas serialize sorted). Same contract as `slice::binary_search`.
    pub fn binary_search(&self, target: u32) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            // In-bounds by the loop invariant; `None` cannot occur.
            match self.get(mid) {
                Some(v) if v < target => lo = mid + 1,
                Some(v) if v > target => hi = mid,
                Some(_) => return Ok(mid),
                None => return Err(lo),
            }
        }
        Err(lo)
    }

    /// Subrange `[start, end)` of elements as a new view, or `None` when
    /// out of range.
    pub fn slice(&self, start: usize, end: usize) -> Option<U32View<'a>> {
        if start > end || end > self.len() {
            return None;
        }
        Some(U32View {
            raw: &self.raw[start * 4..end * 4],
        })
    }
}

/// Borrowed view over a packed little-endian `u64` sequence — the u64
/// twin of [`U32View`].
#[derive(Debug, Clone, Copy)]
pub struct U64View<'a> {
    raw: &'a [u8],
}

impl<'a> U64View<'a> {
    /// View over raw bytes holding packed LE u64s. Trailing bytes that
    /// do not fill a whole element are ignored.
    pub fn new(raw: &'a [u8]) -> Self {
        U64View {
            raw: &raw[..raw.len() - raw.len() % 8],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len() / 8
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Element `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<u64> {
        let off = i.checked_mul(8)?;
        let s = self.raw.get(off..off + 8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Some(u64::from_le_bytes(b))
    }

    /// Iterate the elements in order, decoding each on the fly.
    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        self.raw.chunks_exact(8).map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            u64::from_le_bytes(b)
        })
    }

    /// Decode into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let mut e = Encoder::new(7);
        e.u8(3);
        e.u32(0xdead_beef);
        e.u64(42);
        e.seq_u32(&[1, 2, 3]);
        e.seq_u64(&[9, 10]);
        e.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample_frame();
        assert_eq!(Decoder::peek_kind(&bytes), Ok(7));
        let mut d = Decoder::open(&bytes, 7).unwrap();
        assert_eq!(d.u8("a").unwrap(), 3);
        assert_eq!(d.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(d.u64("c").unwrap(), 42);
        assert_eq!(d.seq_u32("d").unwrap(), vec![1, 2, 3]);
        assert_eq!(d.seq_u64("e").unwrap(), vec![9, 10]);
        d.finish().unwrap();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = sample_frame();
        assert_eq!(
            Decoder::open(&bytes, 8).map(|_| ()).unwrap_err(),
            CodecError::BadKind {
                expected: 8,
                got: 7
            }
        );
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        // Any single-bit corruption must surface as *some* CodecError —
        // checksum, magic, version, length, or kind — never a panic or a
        // silent wrong decode.
        let good = sample_frame();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Decoder::open(&bad, 7).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_caught() {
        let good = sample_frame();
        for cut in 0..good.len() {
            assert!(
                Decoder::open(&good[..cut], 7).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = sample_frame();
        bytes[4..8].copy_from_slice(&(CODEC_VERSION + 1).to_le_bytes());
        // Re-seal so only the version differs.
        let body_end = bytes.len() - TRAILER_LEN;
        let sum = checksum64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Decoder::open(&bytes, 7).map(|_| ()).unwrap_err(),
            CodecError::BadVersion {
                got: CODEC_VERSION + 1
            }
        );
    }

    #[test]
    fn corrupt_sequence_length_cannot_force_huge_allocation() {
        let mut e = Encoder::new(1);
        e.seq_u32(&[1, 2, 3]);
        let mut bytes = e.finish();
        // Overwrite the sequence length with u64::MAX and re-seal.
        bytes[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_end = bytes.len() - TRAILER_LEN;
        let sum = checksum64(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        let mut d = Decoder::open(&bytes, 1).unwrap();
        assert!(matches!(
            d.seq_u32("seq"),
            Err(CodecError::BadValue { .. })
        ));
    }

    #[test]
    fn empty_payload_frame_roundtrips() {
        let bytes = Encoder::new(0).finish();
        let d = Decoder::open(&bytes, 0).unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn seq_views_match_owned_decode() {
        let bytes = sample_frame();
        let mut owned = Decoder::open(&bytes, 7).unwrap();
        let mut viewed = Decoder::open(&bytes, 7).unwrap();
        owned.u8("a").unwrap();
        owned.u32("b").unwrap();
        owned.u64("c").unwrap();
        viewed.u8("a").unwrap();
        viewed.u32("b").unwrap();
        viewed.u64("c").unwrap();
        assert_eq!(owned.position(), viewed.position());
        let o32 = owned.seq_u32("d").unwrap();
        let v32 = viewed.seq_u32_view("d").unwrap();
        assert_eq!(v32.to_vec(), o32);
        assert_eq!(v32.len(), o32.len());
        for (i, &want) in o32.iter().enumerate() {
            assert_eq!(v32.get(i), Some(want));
        }
        assert_eq!(v32.get(o32.len()), None);
        let o64 = owned.seq_u64("e").unwrap();
        let v64 = viewed.seq_u64_view("e").unwrap();
        assert_eq!(v64.to_vec(), o64);
        for (i, &want) in o64.iter().enumerate() {
            assert_eq!(v64.get(i), Some(want));
        }
        assert_eq!(owned.position(), viewed.position());
        owned.finish().unwrap();
        viewed.finish().unwrap();
    }

    #[test]
    fn u32_view_binary_search_matches_slice() {
        let vals: Vec<u32> = vec![2, 5, 5, 9, 40, 41, 1000];
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let view = U32View::new(&raw);
        for probe in [0u32, 2, 3, 5, 9, 39, 40, 42, 1000, 1001] {
            match (view.binary_search(probe), vals.binary_search(&probe)) {
                (Ok(i), Ok(_)) => assert_eq!(vals[i], probe),
                (Err(a), Err(b)) => assert_eq!(a, b, "insert point for {probe}"),
                (a, b) => panic!("search {probe}: view {a:?} vs slice {b:?}"),
            }
        }
    }

    #[test]
    fn u32_view_slice_bounds() {
        let vals: Vec<u32> = (0..10).collect();
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let view = U32View::new(&raw);
        let mid = view.slice(3, 7).unwrap();
        assert_eq!(mid.to_vec(), vec![3, 4, 5, 6]);
        assert!(view.slice(7, 3).is_none());
        assert!(view.slice(0, 11).is_none());
        assert_eq!(view.slice(5, 5).unwrap().len(), 0);
    }

    /// `len` bytes of a seeded splitmix64 stream.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Frames and cache keys on disk are sealed with `checksum64`, so its
    /// output may only change together with [`CODEC_VERSION`]. These
    /// values were computed by the four-lane function of codec version 2;
    /// lengths 0..=40 cover the empty input, every tail width of a
    /// 32-byte block, one whole block, and one block plus each word tail.
    #[test]
    fn checksum64_golden_values() {
        const SHORT: [u64; 41] = [
            0x0000000000000000,
            0x36ecba09bc5ec374,
            0xfdee92b325e3eb1a,
            0x6b04704a67f1e566,
            0xd5bed32b5464e851,
            0xdac7a6bfeaf876e4,
            0xdcca7c70002bce7e,
            0x074d1260cf272354,
            0x3c162562b3a55127,
            0x4c9a9db66f62703c,
            0xdc61ff35ed14b6d3,
            0xc56b8583df7af840,
            0xf432769f2847f761,
            0x5855f0345f9894ed,
            0x9697a48635092746,
            0xf12cd0b0c3c78b82,
            0x2273ec5dccd203d0,
            0x24265b784f3e1dfc,
            0xcd681e13ec7c588c,
            0xd7ef2fd84b2f9b22,
            0xe94b3b2147677f2f,
            0xbe0011705d3fce0c,
            0x8ac2aa07cd047633,
            0x8f59490d9b397bd0,
            0x235e63b95fcc0411,
            0xff546016148e6ec6,
            0xe439651aa84c4606,
            0x1ff134b6e0122903,
            0xd04449f85c787b08,
            0x46bd91b115f7240c,
            0x7b8d32213a99afd8,
            0x944d033b8adec07a,
            0x9612165d6f358c7e,
            0xd0653bf46da17404,
            0x7cb6fb8d7146b41d,
            0x6dab186aa497e597,
            0x7b188d8b9a883b0c,
            0x4757fe710e56da8b,
            0x706ae5cea02753fd,
            0x36a472ed68efe4ed,
            0x3536ff9071abd615,
        ];
        let short = seeded_bytes(17, 40);
        for (n, &want) in SHORT.iter().enumerate() {
            assert_eq!(checksum64(&short[..n]), want, "length {n}");
        }
        let big = seeded_bytes(0x5eed, 1 << 20);
        assert_eq!(checksum64(&big), 0xb2f3_1904_d055_f3e3);
    }

    /// Every single-byte change of `buf`, every truncation by 1..=8
    /// bytes and every append of 1..=8 zero bytes must move the checksum.
    /// `positions` limits the byte changes to the given offsets (all of
    /// them when `None`).
    fn assert_checksum_sees_every_edit(buf: &[u8], xor: u8, positions: Option<&[usize]>) {
        let base = checksum64(buf);
        let all: Vec<usize> = (0..buf.len()).collect();
        for &at in positions.unwrap_or(&all) {
            let mut edited = buf.to_vec();
            edited[at] ^= xor;
            assert_ne!(
                checksum64(&edited),
                base,
                "byte {at} of {} changed",
                buf.len()
            );
        }
        for cut in 1..=8.min(buf.len()) {
            assert_ne!(
                checksum64(&buf[..buf.len() - cut]),
                base,
                "{} bytes cut by {cut}",
                buf.len()
            );
        }
        for extra in 1..=8 {
            let mut longer = buf.to_vec();
            longer.resize(buf.len() + extra, 0);
            assert_ne!(
                checksum64(&longer),
                base,
                "{} bytes + {extra} zeros",
                buf.len()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn checksum64_sees_every_small_edit(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=300),
            xor in 1u8..=255,
        ) {
            assert_checksum_sees_every_edit(&buf, xor, None);
        }
    }

    /// The 1 MiB case: a change of every byte of the first and the last
    /// block, and of every 4099th byte between (a stride that walks all
    /// four lanes and every byte of a word), plus every truncation and
    /// zero append. Hashing every position would take minutes
    /// unoptimized.
    #[test]
    fn checksum64_sees_edits_of_a_large_buffer() {
        let big = seeded_bytes(0x5eed, 1 << 20);
        let last = big.len() - CHECKSUM_BLOCK;
        let positions: Vec<usize> = (0..CHECKSUM_BLOCK)
            .chain((CHECKSUM_BLOCK..last).step_by(4099))
            .chain(last..big.len())
            .collect();
        assert_checksum_sees_every_edit(&big, 0x01, Some(&positions));
    }

    #[test]
    fn skip_advances_past_raw_sections() {
        let bytes = sample_frame();
        let mut d = Decoder::open(&bytes, 7).unwrap();
        // a(1) + b(4) + c(8) = 13 bytes of scalars.
        d.skip(13, "scalars").unwrap();
        assert_eq!(d.position(), 13);
        assert_eq!(d.seq_u32("d").unwrap(), vec![1, 2, 3]);
        assert!(d.skip(usize::MAX, "overrun").is_err());
    }
}
