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
//! 2. the frames are cut into one contiguous chunk per worker (workers
//!    capped at the available cores), every chunk runs on its own
//!    `std::thread::scope` thread, and results are taken **in chunk
//!    order**, so every downstream fold sees stream order;
//! 3. [`read_rib_dump_parallel`] runs the streaming reader's per-frame
//!    decoder ([`crate::table::ingest_rib_frame`]) on the workers, which
//!    return finished path samples — no record tree is built — and the
//!    caller only concatenates them. [`read_update_stream_parallel`]
//!    (and [`crate::batch::read_update_batch`]) decode update captures
//!    to records on the workers and fold them on the caller with the
//!    sequential reader's fold. Shared functions, not copies, make the
//!    output byte-identical by construction.
//!
//! All offset arithmetic in the scanner is checked: a hostile declared
//! length can neither overflow the record extent nor run past the end of
//! the buffer (see the fuzz-style tests below and in
//! `tests/parallel_ingest.rs`).

use crate::error::MrtError;
use crate::reader::DEFAULT_MAX_RECORD_LEN;
use crate::record::{MrtRecord, MRT_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE};
use crate::table::ingest_rib_frame;
use crate::wire::Cursor;
use asrank_types::update::UpdateMessage;
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

fn decode_one(frame: &[u8]) -> Result<(u32, MrtRecord), MrtError> {
    let mut c = Cursor::new(frame);
    MrtRecord::decode(&mut c)
}

/// Chunk length for fanning `n` frames out over `par`, or `None` when the
/// work should run inline on the caller. Workers are capped at the cores
/// actually available: oversubscribing a CPU-bound decode only adds
/// scheduling overhead, and the in-order merge means the output cannot
/// differ.
fn chunk_len(n: usize, par: Parallelism) -> Option<usize> {
    let workers = par.effective().min(
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    );
    let chunk = n.div_ceil(workers.max(1)).max(8);
    (workers > 1 && chunk < n).then_some(chunk)
}

/// Run `work` over contiguous `chunk`-frame slices of `frames`, one
/// scoped thread per slice (`work` also gets the index of the slice's
/// first frame), and hand the results to `take` **in slice order** — the
/// merge that makes every parallel reader byte-identical to its
/// sequential counterpart. All slices are spawned at once, so every
/// result not yet taken is resident. When `take` fails, the remaining
/// workers still run to completion and their results are dropped.
fn fan_out<T: Send>(
    frames: &[Range<usize>],
    chunk: usize,
    work: impl Fn(usize, &[Range<usize>]) -> T + Sync,
    mut take: impl FnMut(T) -> Result<(), MrtError>,
) -> Result<(), MrtError> {
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = frames
            .chunks(chunk)
            .enumerate()
            .map(|(i, slice)| s.spawn(move || work(i * chunk, slice)))
            .collect();
        for handle in handles {
            take(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            )?;
        }
        Ok(())
    })
}

/// Decode scanned update-capture frames on the capped worker fan-out and
/// feed each record to `sink` **in stream order**; on error, the
/// earliest failure in stream order wins, matching the sequential
/// reader. Every chunk is spawned at once and decodes in full before the
/// fold sees it, so each chunk not yet folded is resident in decoded
/// form — at worst nearly the whole capture. Only with one worker do
/// records decode and fold one at a time.
pub(crate) fn for_each_decoded<F>(
    data: &[u8],
    frames: &[Range<usize>],
    par: Parallelism,
    mut sink: F,
) -> Result<(), MrtError>
where
    F: FnMut((u32, MrtRecord)) -> Result<(), MrtError>,
{
    let Some(chunk) = chunk_len(frames.len(), par) else {
        for r in frames {
            sink(decode_one(&data[r.clone()])?)?;
        }
        return Ok(());
    };
    fan_out(
        frames,
        chunk,
        |_, slice| {
            slice
                .iter()
                .map(|r| decode_one(&data[r.clone()]))
                .collect::<Vec<_>>()
        },
        |decoded| {
            for result in decoded {
                sink(result?)?;
            }
            Ok(())
        },
    )
}

/// Decode scanned record frames, fanning bodies out over the
/// [`Parallelism`] budget with an order-preserving merge. The returned
/// record sequence is identical to sequential decode for every thread
/// count; on error, the error of the *earliest* undecodable record in
/// stream order is reported, again matching the sequential reader.
///
/// This materializes every record at once, and parallel workers hold
/// their decoded chunks until they are merged.
pub fn decode_frames(
    data: &[u8],
    frames: &[Range<usize>],
    par: Parallelism,
) -> Result<Vec<(u32, MrtRecord)>, MrtError> {
    let mut out = Vec::with_capacity(frames.len());
    for_each_decoded(data, frames, par, |rec| {
        out.push(rec);
        Ok(())
    })?;
    Ok(out)
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
/// frames decoded on the capped worker fan-out. Each worker runs the
/// streaming reader's per-frame decoder
/// ([`crate::table::ingest_rib_frame`]) over its contiguous chunk and
/// returns finished samples; the caller only concatenates them in chunk
/// order. A chunk resolves VPs against the latest `PEER_INDEX_TABLE`
/// before it, found by its header type field and decoded again by the
/// worker, so output is byte-identical to the sequential reader — same
/// samples, same order, and the earliest error in stream order.
pub fn read_rib_dump_parallel(data: &[u8], par: Parallelism) -> Result<PathSet, MrtError> {
    let frames = scan_record_frames(data, DEFAULT_MAX_RECORD_LEN)?;
    let ingest = |first: usize, slice: &[Range<usize>]| -> Result<Vec<PathSample>, MrtError> {
        let mut peers = Vec::new();
        let mut samples = Vec::new();
        // A peer table contributes no samples, only the VP directory.
        if let Some(table) = frames[..first]
            .iter()
            .rev()
            .find(|r| is_peer_table(&data[(*r).clone()]))
        {
            ingest_rib_frame(&data[table.clone()], &mut peers, &mut samples)?;
        }
        for r in slice {
            ingest_rib_frame(&data[r.clone()], &mut peers, &mut samples)?;
        }
        Ok(samples)
    };
    let Some(chunk) = chunk_len(frames.len(), par) else {
        return ingest(0, &frames).map(PathSet::from_samples);
    };
    let mut samples = Vec::new();
    fan_out(&frames, chunk, ingest, |part| {
        samples.append(&mut part?);
        Ok(())
    })?;
    Ok(PathSet::from_samples(samples))
}

/// [`crate::stream::read_update_stream`] over an in-memory capture with
/// parallel record decode; same order-preserving guarantees as
/// [`read_rib_dump_parallel`].
pub fn read_update_stream_parallel(
    data: &[u8],
    par: Parallelism,
) -> Result<Vec<UpdateMessage>, MrtError> {
    let frames = scan_record_frames(data, DEFAULT_MAX_RECORD_LEN)?;
    let mut per_vp = std::collections::BTreeMap::new();
    for_each_decoded(data, &frames, par, |(_ts, record)| {
        crate::stream::ingest_update_record(record, &mut per_vp);
        Ok(())
    })?;
    Ok(crate::stream::finish_update_fold(per_vp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PeerEntry, PeerIndexTable};
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

    #[test]
    fn parallel_decode_preserves_record_order() {
        let mut bytes = Vec::new();
        for ts in 0..100u32 {
            bytes.extend_from_slice(&sample_record(ts));
        }
        let frames = scan_record_frames(&bytes, DEFAULT_MAX_RECORD_LEN).unwrap();
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let records = decode_frames(&bytes, &frames, par).unwrap();
            let stamps: Vec<u32> = records.iter().map(|&(ts, _)| ts).collect();
            assert_eq!(stamps, (0..100).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn parallel_decode_reports_earliest_bad_record() {
        let mut bytes = Vec::new();
        for ts in 0..20u32 {
            bytes.extend_from_slice(&sample_record(ts));
        }
        // Corrupt record 3's body (inside the declared length, so the
        // scanner accepts the framing and decode must catch it): inflate
        // the peer count so body decode overruns the frame. Layout:
        // 12-byte header, u32 collector, u16 name len, "x", u16 count.
        let frames = scan_record_frames(&bytes, DEFAULT_MAX_RECORD_LEN).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[frames[3].start + 19] = 0xff;
        corrupt[frames[3].start + 20] = 0xff;
        let seq = decode_frames(&corrupt, &frames, Parallelism::sequential()).unwrap_err();
        let par = decode_frames(&corrupt, &frames, Parallelism::threads(4)).unwrap_err();
        assert_eq!(format!("{seq}"), format!("{par}"));
    }
}
