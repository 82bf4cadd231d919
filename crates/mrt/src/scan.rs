//! Parallel MRT ingest: one header scan over the length-prefixed record
//! framing, then record bodies decoded on a deterministic thread fan-out.
//!
//! The streaming [`crate::reader::MrtReader`] is inherently serial: each
//! record's position depends on the previous record's declared length.
//! But that dependency is *only* the 12-byte header chain — record
//! bodies are independent. So the parallel path splits the work:
//!
//! 1. [`scan_record_frames`] walks the headers once (cheap: 12 bytes per
//!    record, no body decode) and emits the byte range of every record;
//! 2. [`Parallelism::map_ranges`] cuts the frames into one contiguous
//!    chunk per worker and returns the chunk results **in chunk order**,
//!    so every downstream fold sees stream order;
//! 3. [`read_rib_dump_parallel`] runs the streaming reader's per-frame
//!    decoder ([`crate::table::ingest_rib_frame`]) on the workers, which
//!    return finished path samples — no record tree is built — and the
//!    caller only concatenates them. [`crate::batch::read_update_batch`]
//!    decodes update captures to records on the workers and folds them
//!    on the caller. Shared functions, not copies, make the output
//!    byte-identical by construction.
//!
//! All offset arithmetic in the scanner is checked: a hostile declared
//! length can neither overflow the record extent nor run past the end of
//! the buffer (see the fuzz-style tests below and in
//! `tests/parallel_ingest.rs`).

use crate::error::MrtError;
use crate::reader::DEFAULT_MAX_RECORD_LEN;
use crate::record::{MRT_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE};
use crate::table::ingest_rib_frame;
use asrank_types::{Parallelism, PathSample, PathSet};
use std::ops::Range;

/// Walk the record framing of a complete in-memory dump and return the
/// byte range of every record (header + body).
///
/// Rejects, without panicking:
/// * truncation mid-header or mid-body;
/// * declared body lengths above `max_record_len`;
/// * declared lengths whose record extent would overflow `usize`.
pub fn scan_record_frames(
    data: &[u8],
    max_record_len: u32,
) -> Result<Vec<Range<usize>>, MrtError> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < data.len() {
        if data.len() - pos < 12 {
            return Err(MrtError::Truncated {
                context: "mrt header (eof mid-record)",
            });
        }
        let len = u32::from_be_bytes([
            data[pos + 8],
            data[pos + 9],
            data[pos + 10],
            data[pos + 11],
        ]);
        if len > max_record_len {
            return Err(MrtError::BadLength {
                context: "mrt record length",
                value: len as usize,
            });
        }
        let end = usize::try_from(len)
            .ok()
            .and_then(|n| n.checked_add(12))
            .and_then(|total| pos.checked_add(total))
            .ok_or(MrtError::BadLength {
                context: "mrt record length (overflows record extent)",
                value: len as usize,
            })?;
        if end > data.len() {
            return Err(MrtError::Truncated {
                context: "mrt body (eof mid-record)",
            });
        }
        frames.push(pos..end);
        pos = end;
    }
    Ok(frames)
}

/// True when `frame`'s header names a `PEER_INDEX_TABLE` record.
fn is_peer_table(frame: &[u8]) -> bool {
    let field = |at: usize| {
        frame
            .get(at..at + 2)
            .map(|b| u16::from_be_bytes([b[0], b[1]]))
    };
    field(4) == Some(MRT_TABLE_DUMP_V2) && field(6) == Some(SUBTYPE_PEER_INDEX_TABLE)
}

/// [`crate::table::read_rib_dump`] over an in-memory dump, with record
/// frames decoded on the [`Parallelism::map_ranges`] fan-out. Each
/// worker runs the streaming reader's per-frame decoder
/// ([`crate::table::ingest_rib_frame`]) over its contiguous chunk and
/// returns finished samples; the caller only concatenates them in chunk
/// order. A chunk resolves VPs against the latest `PEER_INDEX_TABLE`
/// before it, found by its header type field and decoded again by the
/// worker, so output is byte-identical to the sequential reader — same
/// samples, same order, and the earliest error in stream order.
pub fn read_rib_dump_parallel(data: &[u8], par: Parallelism) -> Result<PathSet, MrtError> {
    let frames = scan_record_frames(data, DEFAULT_MAX_RECORD_LEN)?;
    let ingest = |range: Range<usize>| -> Result<Vec<PathSample>, MrtError> {
        let mut peers = Vec::new();
        let mut samples = Vec::new();
        // A peer table contributes no samples, only the VP directory.
        if let Some(table) = frames[..range.start]
            .iter()
            .rev()
            .find(|r| is_peer_table(&data[(*r).clone()]))
        {
            ingest_rib_frame(&data[table.clone()], &mut peers, &mut samples)?;
        }
        for r in &frames[range] {
            ingest_rib_frame(&data[r.clone()], &mut peers, &mut samples)?;
        }
        Ok(samples)
    };
    let mut parts = par.map_ranges(8, frames.len(), ingest).into_iter();
    let mut samples = parts.next().transpose()?.unwrap_or_default();
    for part in parts {
        samples.append(&mut part?);
    }
    Ok(PathSet::from_samples(samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MrtRecord, PeerEntry, PeerIndexTable};
    use asrank_types::Asn;

    fn sample_record(ts: u32) -> Vec<u8> {
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
        .encode(ts)
        .unwrap()
    }

    #[test]
    fn scanner_frames_every_record() {
        let mut bytes = Vec::new();
        let mut expected = Vec::new();
        for ts in [1u32, 2, 3, 4] {
            let rec = sample_record(ts);
            expected.push(bytes.len()..bytes.len() + rec.len());
            bytes.extend_from_slice(&rec);
        }
        assert_eq!(
            scan_record_frames(&bytes, DEFAULT_MAX_RECORD_LEN).unwrap(),
            expected
        );
        assert!(scan_record_frames(&[], DEFAULT_MAX_RECORD_LEN)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn scanner_rejects_truncation_mid_header_and_mid_body() {
        let bytes = sample_record(1);
        for cut in 1..bytes.len() {
            assert!(
                matches!(
                    scan_record_frames(&bytes[..cut], DEFAULT_MAX_RECORD_LEN),
                    Err(MrtError::Truncated { .. })
                ),
                "cut at {cut} not rejected"
            );
        }
    }

    #[test]
    fn scanner_rejects_oversized_declared_length() {
        let mut header = Vec::new();
        crate::wire::put_u32(&mut header, 0);
        crate::wire::put_u16(&mut header, 13);
        crate::wire::put_u16(&mut header, 1);
        crate::wire::put_u32(&mut header, u32::MAX);
        assert!(matches!(
            scan_record_frames(&header, DEFAULT_MAX_RECORD_LEN),
            Err(MrtError::BadLength { .. })
        ));
        // Even with the cap raised to the format maximum, the checked
        // extent arithmetic must hold (this is the 32-bit overflow
        // guard; on 64-bit it degrades to a Truncated error).
        assert!(scan_record_frames(&header, u32::MAX).is_err());
    }
}
