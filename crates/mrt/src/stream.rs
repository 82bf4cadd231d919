//! Update-stream serialization: [`UpdateMessage`] ⇄ `BGP4MP` records.
//!
//! Collectors interleave RIB snapshots with update captures; this module
//! writes the simulator's derived update stream in the same `BGP4MP /
//! BGP4MP_MESSAGE_AS4` framing RouteViews uses, respecting the 4096-byte
//! BGP message bound by chunking NLRI blocks.

use crate::attrs::PathAttribute;
use crate::error::MrtError;
use crate::reader::MrtReader;
use crate::record::{Bgp4mpMessageAs4, BgpUpdate, MrtRecord};
use crate::writer::MrtWriter;
use asrank_types::update::UpdateMessage;
use asrank_types::{AsPath, Ipv4Prefix};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Conservative cap on prefixes per UPDATE so the message stays well
/// under the 4096-byte BGP bound (5 bytes of NLRI each + attributes).
const MAX_NLRI_PER_MESSAGE: usize = 600;

/// Serialize update messages as a BGP4MP stream. Announcements with the
/// same AS path share UPDATE messages (as real speakers do); withdrawals
/// ride their own messages. Returns records written; the stream is
/// flushed.
pub fn write_update_stream<W: Write>(
    updates: &[UpdateMessage],
    out: W,
    timestamp: u32,
) -> Result<u64, MrtError> {
    let mut writer = MrtWriter::new(out);
    for (i, update) in updates.iter().enumerate() {
        let local_ip = 0x0a00_0000 + i as u32 + 1;
        let base = Bgp4mpMessageAs4 {
            peer_asn: update.vp,
            local_asn: asrank_types::Asn(65_000),
            if_index: 0,
            peer_ip: local_ip + 0x0100_0000,
            local_ip,
            update: BgpUpdate::default(),
        };

        // Withdrawals, chunked.
        for chunk in update.withdrawn.chunks(MAX_NLRI_PER_MESSAGE) {
            let mut msg = base.clone();
            msg.update.withdrawn = chunk.to_vec();
            writer.write_record(timestamp, &MrtRecord::Bgp4mpMessageAs4(msg))?;
        }

        // Announcements grouped by path, chunked.
        let mut by_path: BTreeMap<Vec<u32>, Vec<Ipv4Prefix>> = BTreeMap::new();
        for (prefix, path) in &update.announced {
            by_path
                .entry(path.iter().map(|a| a.0).collect())
                .or_default()
                .push(*prefix);
        }
        for (path_u32, mut prefixes) in by_path {
            prefixes.sort();
            let path = AsPath::from_u32s(path_u32);
            for chunk in prefixes.chunks(MAX_NLRI_PER_MESSAGE) {
                let mut msg = base.clone();
                msg.update.attributes = vec![
                    PathAttribute::Origin(0),
                    PathAttribute::as_path_sequence(&path),
                    PathAttribute::NextHop(local_ip + 0x0100_0000),
                ];
                msg.update.announced = chunk.to_vec();
                writer.write_record(timestamp, &MrtRecord::Bgp4mpMessageAs4(msg))?;
            }
        }
    }
    writer.finish()
}

/// Read a BGP4MP stream back into per-VP update messages (merged per
/// peer ASN, in ascending-VP order). Non-update records are skipped.
pub fn read_update_stream<R: Read>(input: R) -> Result<Vec<UpdateMessage>, MrtError> {
    let mut reader = MrtReader::new(input);
    let mut per_vp: BTreeMap<asrank_types::Asn, UpdateMessage> = BTreeMap::new();
    while let Some((_ts, record)) = reader.next_record()? {
        ingest_update_record(record, &mut per_vp);
    }
    Ok(finish_update_fold(per_vp))
}

/// Fold one decoded record into the per-VP accumulator — shared verbatim
/// by the sequential reader above and the parallel byte-range reader
/// ([`crate::scan::read_update_stream_parallel`]), so both produce
/// identical output. Non-update records are skipped.
pub(crate) fn ingest_update_record(
    record: MrtRecord,
    per_vp: &mut BTreeMap<asrank_types::Asn, UpdateMessage>,
) {
    let MrtRecord::Bgp4mpMessageAs4(msg) = record else {
        return;
    };
    let entry = per_vp.entry(msg.peer_asn).or_insert_with(|| UpdateMessage {
        vp: msg.peer_asn,
        ..Default::default()
    });
    entry.withdrawn.extend(msg.update.withdrawn.iter().copied());
    if let Some(path) = msg
        .update
        .attributes
        .iter()
        .find_map(PathAttribute::flatten_as_path)
    {
        for prefix in &msg.update.announced {
            entry.announced.push((*prefix, path.clone()));
        }
    }
}

/// Final sort pass of the update fold (ascending-VP order via the
/// `BTreeMap`, prefixes sorted within each message).
pub(crate) fn finish_update_fold(
    per_vp: BTreeMap<asrank_types::Asn, UpdateMessage>,
) -> Vec<UpdateMessage> {
    let mut out: Vec<UpdateMessage> = per_vp.into_values().collect();
    for m in &mut out {
        m.withdrawn.sort();
        m.announced.sort_by_key(|(p, _)| *p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::Asn;

    fn sample() -> Vec<UpdateMessage> {
        vec![
            UpdateMessage {
                vp: Asn(100),
                withdrawn: vec!["10.0.0.0/8".parse().unwrap()],
                announced: vec![
                    (
                        "11.0.0.0/8".parse().unwrap(),
                        AsPath::from_u32s([100, 2, 3]),
                    ),
                    (
                        "12.0.0.0/8".parse().unwrap(),
                        AsPath::from_u32s([100, 2, 3]),
                    ),
                    (
                        "13.0.0.0/8".parse().unwrap(),
                        AsPath::from_u32s([100, 5, 6]),
                    ),
                ],
            },
            UpdateMessage {
                vp: Asn(200),
                withdrawn: vec![],
                announced: vec![(
                    "14.0.0.0/8".parse().unwrap(),
                    AsPath::from_u32s([200, 9, 3]),
                )],
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let updates = sample();
        let mut buf = Vec::new();
        let records = write_update_stream(&updates, &mut buf, 77).unwrap();
        // VP 100: 1 withdrawal message + 2 path groups; VP 200: 1.
        assert_eq!(records, 4);
        let back = read_update_stream(&buf[..]).unwrap();
        assert_eq!(back, updates);
    }

    #[test]
    fn shared_paths_share_messages() {
        let updates = sample();
        let mut buf = Vec::new();
        write_update_stream(&updates, &mut buf, 0).unwrap();
        let mut reader = MrtReader::new(&buf[..]);
        let mut multi_nlri = 0;
        while let Some((_, rec)) = reader.next_record().unwrap() {
            if let MrtRecord::Bgp4mpMessageAs4(m) = rec {
                if m.update.announced.len() > 1 {
                    multi_nlri += 1;
                }
            }
        }
        assert_eq!(multi_nlri, 1, "the two same-path prefixes share one UPDATE");
    }

    #[test]
    fn chunking_respects_cap() {
        let many: Vec<(Ipv4Prefix, AsPath)> = (0..1500u32)
            .map(|i| {
                (
                    Ipv4Prefix::new(i << 12, 20).unwrap(),
                    AsPath::from_u32s([1, 2, 3]),
                )
            })
            .collect();
        let updates = vec![UpdateMessage {
            vp: Asn(1),
            withdrawn: vec![],
            announced: many,
        }];
        let mut buf = Vec::new();
        let records = write_update_stream(&updates, &mut buf, 0).unwrap();
        assert_eq!(records, 3, "1500 prefixes at 600/message = 3 messages");
        // And every message fits in the BGP bound.
        let mut reader = MrtReader::new(&buf[..]);
        while let Some((_, rec)) = reader.next_record().unwrap() {
            let encoded = rec.encode(0).unwrap();
            assert!(encoded.len() < 4096 + 12 + 20, "message too large");
        }
        let back = read_update_stream(&buf[..]).unwrap();
        assert_eq!(back[0].announced.len(), 1500);
    }

    #[test]
    fn empty_stream() {
        let mut buf = Vec::new();
        assert_eq!(write_update_stream(&[], &mut buf, 0).unwrap(), 0);
        assert!(read_update_stream(&buf[..]).unwrap().is_empty());
    }
}
