//! High-level bridge: [`PathSet`] ⇄ `TABLE_DUMP_V2` RIB dumps.
//!
//! [`write_rib_dump`] lays a simulated path set out exactly as a
//! RouteViews collector would: one `PEER_INDEX_TABLE` followed by one
//! `RIB_IPV4_UNICAST` record per prefix, each carrying one entry per
//! contributing vantage point. [`read_rib_dump`] inverts it, so the
//! inference pipeline can be driven from `.mrt` files.
//!
//! Reading has one per-frame decoder, [`ingest_rib_frame`], which turns
//! a record frame straight into [`PathSample`]s without building a
//! record tree. The streaming [`read_rib_dump`] and the parallel
//! [`crate::scan::read_rib_dump_parallel`] both run it, so they agree by
//! construction.

use crate::attrs::{PathAttribute, RawAttribute};
use crate::error::MrtError;
use crate::reader::MrtReader;
use crate::record::{
    decode_nlri, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast, MRT_TABLE_DUMP_V2,
    SUBTYPE_RIB_IPV4_UNICAST,
};
use crate::wire::Cursor;
use crate::writer::MrtWriter;
use asrank_types::{Asn, Ipv4Prefix, PathSample, PathSet};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Serialize a path set as a TABLE_DUMP_V2 RIB dump.
///
/// Records are emitted deterministically: peers sorted by ASN, prefixes in
/// ascending order, entries in peer-table order.
pub fn write_rib_dump<W: Write>(paths: &PathSet, out: W, timestamp: u32) -> Result<u64, MrtError> {
    let mut writer = MrtWriter::new(out);

    // Peer table: one entry per VP, sorted by ASN for determinism.
    let mut vps: Vec<Asn> = paths.vantage_points().into_iter().collect();
    vps.sort();
    let index_of: BTreeMap<Asn, u16> = vps
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as u16))
        .collect();
    let table = PeerIndexTable {
        collector_id: 0xc011_u32,
        view_name: "asrank-sim".into(),
        peers: vps
            .iter()
            .enumerate()
            .map(|(i, &asn)| PeerEntry {
                bgp_id: i as u32 + 1,
                addr: 0x0a00_0000 + i as u32 + 1,
                ipv6: false,
                asn,
            })
            .collect(),
    };
    writer.write_record(timestamp, &MrtRecord::PeerIndexTable(table))?;

    // Group samples by prefix.
    let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<&PathSample>> = BTreeMap::new();
    for s in paths.iter() {
        by_prefix.entry(s.prefix).or_default().push(s);
    }

    for (seq, (prefix, mut samples)) in by_prefix.into_iter().enumerate() {
        samples.sort_by_key(|s| index_of[&s.vp]);
        let entries: Vec<RibEntry> = samples
            .iter()
            .map(|s| RibEntry {
                peer_index: index_of[&s.vp],
                originated_time: timestamp,
                attributes: vec![
                    PathAttribute::Origin(0),
                    PathAttribute::as_path_sequence(&s.path),
                    PathAttribute::NextHop(0x0a00_0000 + index_of[&s.vp] as u32 + 1),
                ],
            })
            .collect();
        writer.write_record(
            timestamp,
            &MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                sequence: seq as u32,
                prefix,
                entries,
            }),
        )?;
    }
    Ok(writer.records_written())
}

/// Serialize a path set as a *legacy* TABLE_DUMP (v1) dump: one record
/// per (VP, prefix) route, 2-byte ASNs on the wire (4-byte ASNs become
/// `AS_TRANS`, as RFC 6793 prescribes). Useful for exercising consumers
/// of pre-2008 RouteViews archives. Returns records written.
pub fn write_rib_dump_v1<W: Write>(
    paths: &PathSet,
    out: W,
    timestamp: u32,
) -> Result<u64, MrtError> {
    use crate::record::TableDumpV1;
    let mut writer = MrtWriter::new(out);
    let mut samples: Vec<&PathSample> = paths.iter().collect();
    samples.sort_by_key(|s| (s.prefix, s.vp));
    let mut vps: Vec<Asn> = paths.vantage_points().into_iter().collect();
    vps.sort();
    let index_of: BTreeMap<Asn, u32> = vps
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i as u32))
        .collect();
    for (seq, s) in samples.iter().enumerate() {
        writer.write_record(
            timestamp,
            &MrtRecord::TableDumpV1(TableDumpV1 {
                view: 0,
                sequence: (seq % u16::MAX as usize) as u16,
                prefix: s.prefix,
                status: 1,
                originated_time: timestamp,
                peer_ip: 0x0a00_0000 + index_of[&s.vp] + 1,
                peer_asn: s.vp,
                attributes: vec![
                    PathAttribute::Origin(0),
                    PathAttribute::as_path_sequence(&s.path),
                ],
            }),
        )?;
    }
    Ok(writer.records_written())
}

/// Read a TABLE_DUMP_V2 RIB dump back into a path set.
///
/// Tolerates interleaved unknown records (skipped) and uses the most
/// recent `PEER_INDEX_TABLE` for index resolution, as collectors do when
/// concatenating dumps. Frames stream through one reused buffer into
/// [`ingest_rib_frame`], the decoder the parallel reader
/// ([`crate::scan::read_rib_dump_parallel`]) runs on its workers.
pub fn read_rib_dump<R: Read>(input: R) -> Result<PathSet, MrtError> {
    let mut reader = MrtReader::new(input);
    let mut frame = Vec::new();
    let mut peers = Vec::new();
    let mut samples = Vec::new();
    while reader.next_frame(&mut frame)? {
        ingest_rib_frame(&frame, &mut peers, &mut samples)?;
    }
    Ok(PathSet::from_samples(samples))
}

/// Decode one record frame (12-byte header + body) straight into path
/// samples — the one definition of RIB ingest, shared by the streaming
/// and the parallel reader.
///
/// `RIB_IPV4_UNICAST` bodies are walked in place: every attribute is
/// validated, but no record tree is built, and the only allocation per
/// entry is the flattened path of its *first* `AS_PATH`. Entries resolve
/// their VP against `peers`, the latest `PEER_INDEX_TABLE`, which this
/// function replaces when it meets one. Every other record goes through
/// [`MrtRecord::decode`]: a legacy TABLE_DUMP (v1) record carries its
/// peer ASN inline and contributes its path; v6 RIBs, updates and
/// unknown records are legal in mixed dumps, so they are validated and
/// skipped. On error, samples already pushed for the frame are left in
/// `out`; callers discard it.
pub(crate) fn ingest_rib_frame(
    frame: &[u8],
    peers: &mut Vec<Asn>,
    out: &mut Vec<PathSample>,
) -> Result<(), MrtError> {
    let mut c = Cursor::new(frame);
    c.u32("mrt timestamp")?;
    let mrt_type = c.u16("mrt type")?;
    let subtype = c.u16("mrt subtype")?;
    let len = c.u32("mrt length")? as usize;
    let mut body = c.sub(len, "mrt body")?;
    if (mrt_type, subtype) == (MRT_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST) {
        return ingest_rib_ipv4(&mut body, peers, out);
    }
    match MrtRecord::decode(&mut Cursor::new(frame))?.1 {
        MrtRecord::PeerIndexTable(t) => *peers = t.peers.iter().map(|p| p.asn).collect(),
        MrtRecord::TableDumpV1(td) => {
            if let Some(path) = td
                .attributes
                .iter()
                .find_map(PathAttribute::flatten_as_path)
            {
                out.push(PathSample {
                    vp: td.peer_asn,
                    prefix: td.prefix,
                    path,
                });
            }
        }
        _ => {}
    }
    Ok(())
}

/// The `RIB_IPV4_UNICAST` body walk of [`ingest_rib_frame`]: the reads
/// and error contexts of the record-level decoder, in its order.
fn ingest_rib_ipv4(
    c: &mut Cursor<'_>,
    peers: &[Asn],
    out: &mut Vec<PathSample>,
) -> Result<(), MrtError> {
    c.u32("rib sequence")?;
    let prefix = decode_nlri(c)?;
    let count = c.u16("rib entry count")?;
    // The whole record decodes before any entry resolves its peer, so a
    // malformed later entry outranks an unknown peer index.
    let mut unknown_peer = None;
    for _ in 0..count {
        let peer_index = c.u16("rib peer index")?;
        c.u32("rib originated time")?;
        let attr_len = c.u16("rib attr length")? as usize;
        let mut block = c.sub(attr_len, "attribute block")?;
        let mut as_path = None;
        while !block.is_empty() {
            if let RawAttribute::AsPath(path) = RawAttribute::read(&mut block, true)? {
                as_path.get_or_insert(path);
            }
        }
        match peers.get(usize::from(peer_index)) {
            // An entry without an AS_PATH carries no evidence, but its
            // peer index must still resolve.
            None => {
                unknown_peer.get_or_insert(peer_index);
            }
            Some(&vp) => {
                if let Some(path) = as_path {
                    out.push(PathSample {
                        vp,
                        prefix,
                        path: path.flatten(),
                    });
                }
            }
        }
    }
    match unknown_peer {
        Some(index) => Err(MrtError::BadValue {
            context: "rib peer index (no matching peer table entry)",
            value: u64::from(index),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::AsPath;

    fn sample_set() -> PathSet {
        let mut ps = PathSet::new();
        for (vp, pfx, path) in [
            (100u32, "10.0.0.0/8", vec![100u32, 2, 3]),
            (100, "11.0.0.0/8", vec![100, 2, 4]),
            (200, "10.0.0.0/8", vec![200, 5, 3]),
        ] {
            ps.push(PathSample {
                vp: Asn(vp),
                prefix: pfx.parse().unwrap(),
                path: AsPath::from_u32s(path),
            });
        }
        ps
    }

    #[test]
    fn dump_roundtrip_preserves_samples() {
        let ps = sample_set();
        let mut buf = Vec::new();
        let n = write_rib_dump(&ps, &mut buf, 1_600_000_000).unwrap();
        assert_eq!(n, 3); // peer table + 2 prefixes
        let back = read_rib_dump(&buf[..]).unwrap();
        let orig: std::collections::HashSet<_> = ps.iter().cloned().collect();
        let got: std::collections::HashSet<_> = back.iter().cloned().collect();
        assert_eq!(orig, got);
    }

    #[test]
    fn missing_peer_table_is_error() {
        let ps = sample_set();
        let mut buf = Vec::new();
        write_rib_dump(&ps, &mut buf, 0).unwrap();
        // Strip the first record (the peer table).
        let first_len = {
            let len = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
            12 + len
        };
        let res = read_rib_dump(&buf[first_len..]);
        assert!(matches!(res, Err(MrtError::BadValue { .. })));
    }

    #[test]
    fn unknown_records_are_skipped() {
        let ps = sample_set();
        let mut buf = Vec::new();
        write_rib_dump(&ps, &mut buf, 0).unwrap();
        buf.extend_from_slice(
            &MrtRecord::Unknown {
                mrt_type: 99,
                subtype: 1,
                body: vec![1, 2, 3],
            }
            .encode(5),
        );
        let back = read_rib_dump(&buf[..]).unwrap();
        assert_eq!(back.len(), ps.len());
    }

    #[test]
    fn v1_dump_roundtrip_for_16bit_asns() {
        // All sample ASNs fit in 16 bits, so the legacy format is
        // lossless here.
        let ps = sample_set();
        let mut buf = Vec::new();
        let n = write_rib_dump_v1(&ps, &mut buf, 900_000_000).unwrap();
        assert_eq!(n as usize, ps.len());
        let back = read_rib_dump(&buf[..]).unwrap();
        let a: std::collections::HashSet<_> = ps.iter().cloned().collect();
        let b: std::collections::HashSet<_> = back.iter().cloned().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn legacy_table_dump_v1_records_are_ingested() {
        use crate::record::TableDumpV1;
        let mut buf = Vec::new();
        write_rib_dump(&sample_set(), &mut buf, 0).unwrap();
        // Append a legacy record as a pre-2008 archive would contain.
        buf.extend_from_slice(
            &MrtRecord::TableDumpV1(TableDumpV1 {
                view: 0,
                sequence: 1,
                prefix: "198.51.100.0/24".parse().unwrap(),
                status: 1,
                originated_time: 0,
                peer_ip: 1,
                peer_asn: Asn(65001),
                attributes: vec![PathAttribute::as_path_sequence(&AsPath::from_u32s([
                    65001, 3356, 15169,
                ]))],
            })
            .encode(7),
        );
        let back = read_rib_dump(&buf[..]).unwrap();
        assert_eq!(back.len(), sample_set().len() + 1);
        assert!(back.vantage_points().contains(&Asn(65001)));
    }

    #[test]
    fn empty_pathset_writes_only_peer_table() {
        let ps = PathSet::new();
        let mut buf = Vec::new();
        let n = write_rib_dump(&ps, &mut buf, 0).unwrap();
        assert_eq!(n, 1);
        let back = read_rib_dump(&buf[..]).unwrap();
        assert!(back.is_empty());
    }
}
