//! High-level bridge: [`PathSet`] ⇄ `TABLE_DUMP_V2` RIB dumps.
//!
//! [`write_rib_dump`] lays a simulated path set out exactly as a
//! RouteViews collector would: one `PEER_INDEX_TABLE` followed by one
//! `RIB_IPV4_UNICAST` record per prefix, each carrying one entry per
//! contributing vantage point. [`read_rib_dump`] inverts it, so the
//! inference pipeline can be driven from `.mrt` files.
//!
//! Writing builds no record tree either. [`write_rib_dump`] sorts one
//! packed key per sample — prefix, then peer index (the VP's rank among
//! the sorted, distinct VPs), then sample index — so entries of one
//! prefix follow the peer table and samples of one (VP, prefix) pair keep
//! their input order. Each prefix's record is then written into the
//! writer's one reused buffer: `ORIGIN`, `AS_PATH` and `NEXT_HOP` go
//! through the attribute writers [`PathAttribute::encode_sized`] uses,
//! and every count and length is checked and patched in place. A field
//! the wire cannot hold is an [`MrtError::Overflow`], never a clamp.
//!
//! Reading has one per-frame decoder, [`ingest_rib_frame`], which turns
//! a record frame straight into [`PathSample`]s without building a
//! record tree. The streaming [`read_rib_dump`] and the parallel
//! [`crate::scan::read_rib_dump_parallel`] both run it, so they agree by
//! construction.

use crate::attrs::{put_as_path, PathAttribute, RawAttribute, SEGMENT_SEQUENCE};
use crate::error::MrtError;
use crate::reader::MrtReader;
use crate::record::{
    begin_record, decode_nlri, encode_nlri, end_record, MrtRecord, PeerEntry, PeerIndexTable,
    MRT_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST,
};
use crate::wire::{fit_u16, patch_len_u16, put_u16, put_u32, Cursor};
use crate::writer::MrtWriter;
use asrank_types::{Asn, PathSample, PathSet};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Serialize a path set as a TABLE_DUMP_V2 RIB dump.
///
/// Records are emitted deterministically: peers sorted by ASN, prefixes in
/// ascending order, entries in peer-table order, and samples of one
/// (VP, prefix) pair in input order. Entries carry `ORIGIN` IGP, the path
/// as an `AS_SEQUENCE` (split into 255-hop segments when longer), and the
/// peer's address as `NEXT_HOP`. More than 65,535 VPs, or entries for one
/// prefix, is [`MrtError::Overflow`]. Returns the records written; the
/// stream is flushed.
///
/// No record tree is built: one sort of packed (prefix, peer index,
/// sample index) keys orders the entries, and each record is written
/// straight into the writer's reused buffer, its lengths patched in.
pub fn write_rib_dump<W: Write>(paths: &PathSet, out: W, timestamp: u32) -> Result<u64, MrtError> {
    let samples = paths.samples();
    let mut vps: Vec<Asn> = samples.iter().map(|s| s.vp).collect();
    vps.sort_unstable();
    vps.dedup();
    let mut writer = MrtWriter::new(out);
    // Rejects more VPs than a u16 peer index reaches, before any key
    // packs one.
    writer.write_record(timestamp, &MrtRecord::PeerIndexTable(peer_table(&vps)))?;

    // Key: network (32 bits), length (8), peer index (16), sample index
    // (64), so an unstable sort of distinct keys gives the stable order.
    let mut keys: Vec<u128> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let peer = match vps.binary_search(&s.vp) {
                Ok(p) | Err(p) => p as u128,
            };
            u128::from(s.prefix.network()) << 88
                | u128::from(s.prefix.len()) << 80
                | peer << 64
                | i as u128
        })
        .collect();
    keys.sort_unstable();

    let mut rest = &keys[..];
    // RFC 6396 §4.3.2: the sequence number wraps back to zero on overflow.
    let mut sequence: u32 = 0;
    while let Some(&first) = rest.first() {
        let group = rest.partition_point(|&k| k >> 80 == first >> 80);
        let (entries, tail) = rest.split_at(group);
        rest = tail;
        let prefix = samples[first as u64 as usize].prefix;
        writer.write_with(|out| {
            let start = begin_record(out, timestamp, MRT_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST);
            put_u32(out, sequence);
            encode_nlri(out, &prefix);
            put_u16(out, fit_u16(entries.len(), "rib entry count")?);
            for &key in entries {
                // The peer field holds an index below the table's u16 count.
                let peer = (key >> 64) as u16;
                put_u16(out, peer);
                put_u32(out, timestamp);
                let len_pos = out.len();
                put_u16(out, 0);
                PathAttribute::Origin(0).encode(out)?;
                let path = &samples[key as u64 as usize].path;
                put_as_path(out, std::iter::once((SEGMENT_SEQUENCE, &path.0[..])), true)?;
                PathAttribute::NextHop(peer_addr(usize::from(peer))).encode(out)?;
                patch_len_u16(out, len_pos, "rib attr length")?;
            }
            end_record(out, start)
        })?;
        sequence = sequence.wrapping_add(1);
    }
    writer.finish()
}

/// The peer table of a dump whose sorted, distinct VPs are `vps`: peer
/// `i` has BGP id `i + 1` and address `10.0.0.0 + i + 1`.
fn peer_table(vps: &[Asn]) -> PeerIndexTable {
    PeerIndexTable {
        collector_id: 0xc011_u32,
        view_name: "asrank-sim".into(),
        peers: vps
            .iter()
            .enumerate()
            .map(|(i, &asn)| PeerEntry {
                bgp_id: i as u32 + 1,
                addr: peer_addr(i),
                ipv6: false,
                asn,
            })
            .collect(),
    }
}

/// The address of peer `index` in [`peer_table`], and the `NEXT_HOP` of
/// its entries.
fn peer_addr(index: usize) -> u32 {
    0x0a00_0000 + index as u32 + 1
}

/// Serialize a path set as a *legacy* TABLE_DUMP (v1) dump: one record
/// per (VP, prefix) route, 2-byte ASNs on the wire (4-byte ASNs become
/// `AS_TRANS`, as RFC 6793 prescribes). Useful for exercising consumers
/// of pre-2008 RouteViews archives. Returns records written; the stream
/// is flushed.
// lint: allow(no-caller, parallel_ingest and the table tests write v1 dumps with it to drive the TABLE_DUMP v1 reader)
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
    writer.finish()
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
            .encode(5)
            .unwrap(),
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
            .encode(7)
            .unwrap(),
        );
        let back = read_rib_dump(&buf[..]).unwrap();
        assert_eq!(back.len(), sample_set().len() + 1);
        assert!(back.vantage_points().contains(&Asn(65001)));
    }

    #[test]
    fn failed_flush_is_reported() {
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        assert!(matches!(
            write_rib_dump(&sample_set(), FailingFlush, 0),
            Err(MrtError::Io(_))
        ));
        assert!(matches!(
            write_rib_dump_v1(&sample_set(), FailingFlush, 0),
            Err(MrtError::Io(_))
        ));
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
