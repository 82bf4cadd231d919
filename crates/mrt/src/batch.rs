//! Folding `BGP4MP` update captures into routing-table delta batches.
//!
//! The incremental inference path does not care about individual UPDATE
//! messages — it cares about the *net* effect of a capture window on the
//! routing table: which `(vp, prefix)` entries gained a path, lost one,
//! or moved to a different one. This module folds a capture into that
//! form ([`asrank_types::UpdateBatch`]), preserving record order so the
//! usual BGP last-wins semantics hold: a withdraw followed by a
//! re-announce nets to the announce, and vice versa.
//!
//! Two entry points share one per-record fold:
//!
//! * [`read_update_batch`] — whole capture → one batch, with record
//!   bodies decoded on the [`Parallelism::map_ranges`] fan-out (the fold
//!   itself stays in stream order, so the result is byte-identical at
//!   every thread count);
//! * [`UpdateBatchIter`] — streaming, bounded-memory iteration over a
//!   capture in windows of `records_per_batch` records, for replaying a
//!   long capture as a sequence of delta runs.

use crate::attrs::PathAttribute;
use crate::error::MrtError;
use crate::reader::DEFAULT_MAX_RECORD_LEN;
use crate::record::MrtRecord;
use crate::scan::scan_record_frames;
use crate::wire::Cursor;
use asrank_types::update::{PathDelta, UpdateBatch};
use asrank_types::{Asn, Ipv4Prefix, Parallelism};
use std::collections::BTreeMap;
use std::ops::Range;

/// Fold one decoded record into the delta accumulator. Non-update
/// records are skipped; within a message withdrawals apply before
/// announcements; later records win `(vp, prefix)` collisions — the
/// same last-wins fold as [`UpdateBatch::from_messages`].
fn fold_update_record(record: MrtRecord, folded: &mut BTreeMap<(Asn, Ipv4Prefix), PathDelta>) {
    let MrtRecord::Bgp4mpMessageAs4(msg) = record else {
        return;
    };
    for prefix in &msg.update.withdrawn {
        folded.insert((msg.peer_asn, *prefix), PathDelta::Withdraw);
    }
    if let Some(path) = msg
        .update
        .attributes
        .iter()
        .find_map(PathAttribute::flatten_as_path)
    {
        for prefix in &msg.update.announced {
            folded.insert((msg.peer_asn, *prefix), PathDelta::Announce(path.clone()));
        }
    }
}

fn finish_fold(folded: BTreeMap<(Asn, Ipv4Prefix), PathDelta>) -> UpdateBatch {
    UpdateBatch::from_deltas(
        folded
            .into_iter()
            .map(|((vp, prefix), delta)| (vp, prefix, delta)),
    )
}

/// Fold an entire in-memory `BGP4MP` capture into one delta batch.
///
/// Record bodies decode on the `par` fan-out; the fold consumes them in
/// stream order, so output is identical for every thread count and the
/// earliest undecodable record's typed error is reported, matching the
/// sequential reader. Each worker decodes its whole chunk before the
/// fold sees it, so with several workers the decoded capture is
/// resident at once; with one, records decode and fold one at a time.
pub fn read_update_batch(data: &[u8], par: Parallelism) -> Result<UpdateBatch, MrtError> {
    let frames = scan_record_frames(data, DEFAULT_MAX_RECORD_LEN)?;
    let decode = |frame: &Range<usize>| MrtRecord::decode(&mut Cursor::new(&data[frame.clone()]));
    let mut folded = BTreeMap::new();
    if par.effective() == 1 {
        for frame in &frames {
            fold_update_record(decode(frame)?.1, &mut folded);
        }
    } else {
        let chunks = par.map_ranges(8, frames.len(), |range| {
            frames[range].iter().map(decode).collect::<Vec<_>>()
        });
        for record in chunks.into_iter().flatten() {
            fold_update_record(record?.1, &mut folded);
        }
    }
    Ok(finish_fold(folded))
}

/// Streaming fold of a `BGP4MP` capture into delta batches of at most
/// `records_per_batch` records each.
///
/// The record framing is scanned (and validated) up front, so hostile
/// lengths surface as typed errors at construction; body decode happens
/// lazily per window. Windows whose records carry no update content
/// (e.g. interleaved RIB records) are skipped rather than yielded empty,
/// so every yielded batch is non-empty.
pub struct UpdateBatchIter<'a> {
    data: &'a [u8],
    frames: Vec<Range<usize>>,
    next_frame: usize,
    records_per_batch: usize,
}

impl<'a> UpdateBatchIter<'a> {
    /// Scan the capture's record framing and set up a windowed fold.
    /// `records_per_batch` is clamped to at least 1.
    pub fn new(data: &'a [u8], records_per_batch: usize) -> Result<Self, MrtError> {
        Ok(UpdateBatchIter {
            data,
            frames: scan_record_frames(data, DEFAULT_MAX_RECORD_LEN)?,
            next_frame: 0,
            records_per_batch: records_per_batch.max(1),
        })
    }
}

impl Iterator for UpdateBatchIter<'_> {
    type Item = Result<UpdateBatch, MrtError>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.next_frame < self.frames.len() {
            let window_end = (self.next_frame + self.records_per_batch).min(self.frames.len());
            let mut folded = BTreeMap::new();
            for frame in &self.frames[self.next_frame..window_end] {
                let mut c = Cursor::new(&self.data[frame.clone()]);
                match MrtRecord::decode(&mut c) {
                    Ok((_ts, record)) => fold_update_record(record, &mut folded),
                    Err(e) => {
                        // Poison the iterator: the stream position after a
                        // bad body is untrustworthy.
                        self.next_frame = self.frames.len();
                        return Some(Err(e));
                    }
                }
            }
            self.next_frame = window_end;
            if !folded.is_empty() {
                return Some(Ok(finish_fold(folded)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::write_update_stream;
    use asrank_types::update::UpdateMessage;
    use asrank_types::AsPath;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn capture(updates: &[UpdateMessage]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_update_stream(updates, &mut buf, 7).unwrap();
        buf
    }

    #[test]
    fn whole_capture_folds_last_wins() {
        let bytes = capture(&[
            UpdateMessage {
                vp: Asn(100),
                withdrawn: vec![pfx("10.0.0.0/8")],
                announced: vec![(pfx("11.0.0.0/8"), AsPath::from_u32s([100, 2, 3]))],
            },
            UpdateMessage {
                vp: Asn(100),
                withdrawn: vec![pfx("11.0.0.0/8")],
                announced: vec![],
            },
        ]);
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let batch = read_update_batch(&bytes, par).unwrap();
            let deltas: Vec<_> = batch.iter().cloned().collect();
            assert_eq!(
                deltas,
                vec![
                    (Asn(100), pfx("10.0.0.0/8"), PathDelta::Withdraw),
                    (Asn(100), pfx("11.0.0.0/8"), PathDelta::Withdraw),
                ]
            );
        }
    }

    #[test]
    fn parallel_decode_preserves_record_order() {
        // One record per message, seven keys overwritten in turn: each
        // key's winner is its last record, so any out-of-order fold
        // shows up in the batch.
        let updates: Vec<UpdateMessage> = (0..100u32)
            .map(|i| UpdateMessage {
                vp: Asn(100),
                withdrawn: vec![],
                announced: vec![(
                    Ipv4Prefix::new((i % 7) << 24, 8).unwrap(),
                    AsPath::from_u32s([100, 1_000 + i]),
                )],
            })
            .collect();
        let bytes = capture(&updates);
        let expected = UpdateBatch::from_messages(&updates);
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            assert_eq!(read_update_batch(&bytes, par).unwrap(), expected);
        }
    }

    #[test]
    fn parallel_decode_reports_earliest_bad_record() {
        let updates: Vec<UpdateMessage> = (0..20u32)
            .map(|i| UpdateMessage {
                vp: Asn(100),
                withdrawn: vec![],
                announced: vec![(pfx("10.0.0.0/8"), AsPath::from_u32s([100, i]))],
            })
            .collect();
        let bytes = capture(&updates);
        let frames = scan_record_frames(&bytes, DEFAULT_MAX_RECORD_LEN).unwrap();
        // Damage two bodies inside their declared lengths, so the scanner
        // accepts the framing and decode must catch them: record 3's AFI
        // (12-byte header, then peer AS, local AS, ifindex) and record
        // 12's BGP marker, which lies in a later worker chunk.
        let mut corrupt = bytes.clone();
        corrupt[frames[3].start + 23] = 2;
        corrupt[frames[12].start + 32] = 0;
        let seq = read_update_batch(&corrupt, Parallelism::sequential()).unwrap_err();
        let par = read_update_batch(&corrupt, Parallelism::threads(4)).unwrap_err();
        assert!(matches!(seq, MrtError::BadValue { .. }), "{seq}");
        assert_eq!(format!("{seq}"), format!("{par}"));
    }

    #[test]
    fn windowed_iter_preserves_order_and_merges_to_whole(){
        let updates: Vec<UpdateMessage> = (0..20u32)
            .map(|i| UpdateMessage {
                vp: Asn(100 + (i % 3)),
                withdrawn: if i % 4 == 0 {
                    vec![Ipv4Prefix::new((i % 5) << 24, 8).unwrap()]
                } else {
                    vec![]
                },
                announced: vec![(
                    Ipv4Prefix::new((i % 7) << 24, 8).unwrap(),
                    AsPath::from_u32s([100 + (i % 3), 50 + i]),
                )],
            })
            .collect();
        let bytes = capture(&updates);
        let whole = read_update_batch(&bytes, Parallelism::sequential()).unwrap();
        for window in [1usize, 3, 1000] {
            let mut merged = UpdateBatch::default();
            for batch in UpdateBatchIter::new(&bytes, window).unwrap() {
                let batch = batch.unwrap();
                assert!(!batch.is_empty());
                merged.merge(&batch);
            }
            assert_eq!(merged, whole, "window={window}");
        }
    }

    #[test]
    fn non_update_records_are_skipped() {
        // A RIB dump contains no BGP4MP records: the fold is empty and
        // the iterator yields nothing rather than empty batches.
        let paths: asrank_types::PathSet = vec![asrank_types::PathSample {
            vp: Asn(1),
            prefix: pfx("10.0.0.0/8"),
            path: AsPath::from_u32s([1, 2]),
        }]
        .into_iter()
        .collect();
        let mut rib = Vec::new();
        crate::table::write_rib_dump(&paths, &mut rib, 0).unwrap();
        assert!(read_update_batch(&rib, Parallelism::sequential())
            .unwrap()
            .is_empty());
        assert_eq!(UpdateBatchIter::new(&rib, 4).unwrap().count(), 0);
    }

    #[test]
    fn truncated_capture_is_a_typed_error() {
        let bytes = capture(&[UpdateMessage {
            vp: Asn(1),
            withdrawn: vec![],
            announced: vec![(pfx("10.0.0.0/8"), AsPath::from_u32s([1, 2]))],
        }]);
        let cut = &bytes[..bytes.len() - 3];
        assert!(matches!(
            read_update_batch(cut, Parallelism::sequential()),
            Err(MrtError::Truncated { .. })
        ));
        assert!(matches!(
            UpdateBatchIter::new(cut, 4),
            Err(MrtError::Truncated { .. })
        ));
    }
}
