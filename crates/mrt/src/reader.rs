//! Streaming MRT reader over any `io::Read`.

use crate::error::MrtError;
use crate::record::MrtRecord;
use crate::wire::Cursor;
use std::io::Read;

/// Default cap on a record's declared body length (64 MiB). Shared by the
/// streaming reader and the parallel frame scanner
/// ([`crate::scan::scan_record_frames`]): a declared length above this is
/// rejected as malformed rather than trusted to size a buffer — the
/// guard against both unbounded allocation and offset-arithmetic
/// overflow in the chunk scanner.
pub const DEFAULT_MAX_RECORD_LEN: u32 = 64 << 20;

/// Reads MRT records one at a time from an underlying stream.
///
/// The reader buffers exactly one record at a time (header first, then the
/// declared body length), so arbitrarily large dumps stream in constant
/// memory. Iterate with [`MrtReader::next_record`] or through the
/// [`Iterator`] impl.
#[derive(Debug)]
pub struct MrtReader<R> {
    inner: R,
    /// Maximum accepted record body length; longer records are rejected as
    /// malformed rather than buffering unbounded memory (default 64 MiB).
    pub max_record_len: u32,
}

impl<R: Read> MrtReader<R> {
    /// Wrap a stream.
    pub fn new(inner: R) -> Self {
        MrtReader {
            inner,
            max_record_len: DEFAULT_MAX_RECORD_LEN,
        }
    }

    /// Read the next record, or `Ok(None)` at clean end-of-stream.
    pub fn next_record(&mut self) -> Result<Option<(u32, MrtRecord)>, MrtError> {
        let mut frame = Vec::new();
        if !self.next_frame(&mut frame)? {
            return Ok(None);
        }
        MrtRecord::decode(&mut Cursor::new(&frame)).map(Some)
    }

    /// Read the next record's raw frame (12-byte header + body) into
    /// `frame`, reusing its allocation, without decoding the body.
    /// Returns `Ok(false)` at clean end-of-stream.
    pub fn next_frame(&mut self, frame: &mut Vec<u8>) -> Result<bool, MrtError> {
        frame.clear();
        frame.resize(12, 0);
        // Distinguish clean EOF (zero bytes) from mid-header truncation.
        let mut got = 0usize;
        while got < 12 {
            let n = self.inner.read(&mut frame[got..])?;
            if n == 0 {
                if got == 0 {
                    frame.clear();
                    return Ok(false);
                }
                return Err(MrtError::Truncated {
                    context: "mrt header (eof mid-record)",
                });
            }
            got += n;
        }
        let len = u32::from_be_bytes([frame[8], frame[9], frame[10], frame[11]]);
        if len > self.max_record_len {
            return Err(MrtError::BadLength {
                context: "mrt record length",
                value: len as usize,
            });
        }
        // Checked header+body total: on 32-bit targets a length close to
        // u32::MAX would wrap `12 + len` even below a (misconfigured)
        // max_record_len.
        let total = usize::try_from(len)
            .ok()
            .and_then(|n| n.checked_add(12))
            .ok_or(MrtError::BadLength {
                context: "mrt record length (overflows record extent)",
                value: len as usize,
            })?;
        frame.resize(total, 0);
        self.inner.read_exact(&mut frame[12..]).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                MrtError::Truncated {
                    context: "mrt body (eof mid-record)",
                }
            } else {
                MrtError::Io(e)
            }
        })?;
        Ok(true)
    }
}

impl<R: Read> Iterator for MrtReader<R> {
    type Item = Result<(u32, MrtRecord), MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PeerEntry, PeerIndexTable};
    use asrank_types::Asn;

    fn sample() -> MrtRecord {
        MrtRecord::PeerIndexTable(PeerIndexTable {
            collector_id: 5,
            view_name: "x".into(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                addr: 2,
                ipv6: false,
                asn: Asn(3),
            }],
        })
    }

    #[test]
    fn reads_multiple_records() {
        let mut bytes = Vec::new();
        for ts in [10u32, 20, 30] {
            bytes.extend_from_slice(&sample().encode(ts).unwrap());
        }
        let reader = MrtReader::new(&bytes[..]);
        let recs: Vec<_> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].0, 20);
        assert_eq!(recs[2].1, sample());
    }

    #[test]
    fn clean_eof_returns_none() {
        let mut r = MrtReader::new(&[][..]);
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn eof_mid_header_is_truncated_error() {
        let bytes = sample().encode(1).unwrap();
        let mut r = MrtReader::new(&bytes[..5]);
        assert!(matches!(r.next_record(), Err(MrtError::Truncated { .. })));
    }

    #[test]
    fn eof_mid_body_is_truncated_error() {
        let bytes = sample().encode(1).unwrap();
        let mut r = MrtReader::new(&bytes[..bytes.len() - 3]);
        assert!(matches!(r.next_record(), Err(MrtError::Truncated { .. })));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut header = Vec::new();
        crate::wire::put_u32(&mut header, 0);
        crate::wire::put_u16(&mut header, 13);
        crate::wire::put_u16(&mut header, 1);
        crate::wire::put_u32(&mut header, u32::MAX);
        let mut r = MrtReader::new(&header[..]);
        assert!(matches!(r.next_record(), Err(MrtError::BadLength { .. })));
    }
}
