//! The parallel byte-range reader must be indistinguishable from the
//! sequential streaming reader: same samples in the same order on valid
//! dumps, an error whenever the sequential reader errors on damaged ones.
//! Both readers share one per-frame decoder, so they are also held to an
//! oracle that does not: the record-tree decode
//! ([`MrtRecord::decode`] + [`PathAttribute::flatten_as_path`]).

use asrank_types::update::UpdateMessage;
use asrank_types::{AsPath, Asn, Ipv4Prefix, Ipv6Prefix, Parallelism, PathSample, PathSet};
use mrt_codec::attrs::{FLAG_EXTENDED, FLAG_OPTIONAL, FLAG_TRANSITIVE};
use mrt_codec::{
    read_rib_dump, read_rib_dump_parallel, read_update_stream, read_update_stream_parallel,
    scan_record_frames, write_rib_dump, write_rib_dump_v1, write_update_stream, AsPathSegment,
    Bgp4mpMessageAs4, BgpUpdate, MrtError, MrtReader, MrtRecord, PathAttribute, PeerEntry,
    PeerIndexTable, RibEntry, RibIpv4Unicast, RibIpv6Unicast, TableDumpV1, DEFAULT_MAX_RECORD_LEN,
};
use proptest::prelude::*;

fn path_set(paths: Vec<Vec<u32>>) -> PathSet {
    let mut ps = PathSet::new();
    for (i, raw) in paths.into_iter().enumerate() {
        let vp = raw[0];
        ps.push(PathSample {
            vp: Asn(vp),
            prefix: asrank_types::Ipv4Prefix::new((i as u32) << 12, 20).unwrap(),
            path: AsPath::from_u32s(raw),
        });
    }
    ps
}

/// A mixed dump: v2 RIB records, appended legacy v1 records, and an
/// interleaved unknown record — everything the sequential reader accepts.
fn mixed_dump(paths: Vec<Vec<u32>>, v1_paths: Vec<Vec<u32>>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_rib_dump(&path_set(paths), &mut buf, 1_600_000_000).unwrap();
    buf.extend_from_slice(
        &MrtRecord::Unknown {
            mrt_type: 99,
            subtype: 7,
            body: vec![0xde, 0xad],
        }
        .encode(3)
        .unwrap(),
    );
    write_rib_dump_v1(&path_set(v1_paths), &mut buf, 900_000_000).unwrap();
    buf
}

fn samples(ps: PathSet) -> Vec<PathSample> {
    ps.into_samples()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Valid dumps: parallel output equals sequential output exactly —
    /// same samples, same order — at every parallelism level.
    #[test]
    fn parallel_rib_read_matches_sequential(
        paths in prop::collection::vec(prop::collection::vec(1u32..40, 2..6), 1..40),
        v1 in prop::collection::vec(prop::collection::vec(1u32..40, 2..6), 0..10),
    ) {
        let dump = mixed_dump(paths, v1);
        let seq = samples(read_rib_dump(&dump[..]).unwrap());
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let got = samples(read_rib_dump_parallel(&dump, par).unwrap());
            prop_assert_eq!(&got, &seq);
        }
    }

    /// Damaged dumps: truncation at any byte boundary must error in the
    /// parallel path whenever it errors in the sequential path (the
    /// scanner may reject strictly more prefixes of a dump than the
    /// streaming reader accepts, never fewer).
    #[test]
    fn truncated_dumps_never_diverge_to_success(
        paths in prop::collection::vec(prop::collection::vec(1u32..40, 2..6), 1..10),
        cut_pct in 0usize..100,
    ) {
        let dump = mixed_dump(paths, vec![]);
        let cut = dump.len() * cut_pct / 100;
        let seq = read_rib_dump(&dump[..cut]);
        let par = read_rib_dump_parallel(&dump[..cut], Parallelism::threads(4));
        if seq.is_err() {
            prop_assert!(par.is_err(), "sequential rejected the cut at {} but parallel accepted it", cut);
        }
        if let (Ok(a), Ok(b)) = (seq, par) {
            prop_assert_eq!(samples(a), samples(b));
        }
    }
}

#[test]
fn parallel_update_stream_matches_sequential() {
    let updates = vec![
        UpdateMessage {
            vp: Asn(100),
            withdrawn: vec!["10.0.0.0/8".parse().unwrap()],
            announced: vec![
                ("11.0.0.0/8".parse().unwrap(), AsPath::from_u32s([100, 2, 3])),
                ("12.0.0.0/8".parse().unwrap(), AsPath::from_u32s([100, 5, 6])),
            ],
        },
        UpdateMessage {
            vp: Asn(200),
            withdrawn: vec![],
            announced: vec![("14.0.0.0/8".parse().unwrap(), AsPath::from_u32s([200, 9, 3]))],
        },
    ];
    let mut buf = Vec::new();
    write_update_stream(&updates, &mut buf, 77).unwrap();
    let seq = read_update_stream(&buf[..]).unwrap();
    for par in [Parallelism::sequential(), Parallelism::threads(4)] {
        assert_eq!(read_update_stream_parallel(&buf, par).unwrap(), seq);
    }
}

#[test]
fn oversized_declared_length_is_rejected_not_allocated() {
    // A frame declaring a u32::MAX body must fail in the scanner before
    // any allocation is attempted.
    let mut dump = Vec::new();
    write_rib_dump(&path_set(vec![vec![1, 2, 3]]), &mut dump, 0).unwrap();
    let base = dump.len();
    dump.extend_from_slice(&[0, 0, 0, 0, 0, 13, 0, 1, 0xff, 0xff, 0xff, 0xff]);
    assert!(scan_record_frames(&dump, DEFAULT_MAX_RECORD_LEN).is_err());
    assert!(read_rib_dump_parallel(&dump, Parallelism::threads(4)).is_err());
    // Sanity: the prefix before the bad frame still scans cleanly.
    assert!(scan_record_frames(&dump[..base], DEFAULT_MAX_RECORD_LEN).is_ok());
}

#[test]
fn frame_scanner_matches_streaming_reader_on_record_count() {
    let dump = mixed_dump(
        vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8]],
        vec![vec![9, 10]],
    );
    let frames = scan_record_frames(&dump, DEFAULT_MAX_RECORD_LEN).unwrap();
    let streamed = mrt_codec::MrtReader::new(&dump[..]).count();
    assert_eq!(frames.len(), streamed);
    assert_eq!(frames.last().unwrap().end, dump.len());
}

/// RIB ingest as a fold over decoded record trees: the most recent peer
/// table resolves each `RIB_IPV4_UNICAST` entry's VP (an unknown index is
/// an error even when the entry has no `AS_PATH`), the first `AS_PATH`
/// of an entry is its path, legacy v1 records carry their VP inline, and
/// every other record is skipped once it decodes.
fn record_tree_oracle(dump: &[u8]) -> Result<Vec<PathSample>, String> {
    let mut peers: Vec<Asn> = Vec::new();
    let mut out = Vec::new();
    for record in MrtReader::new(dump) {
        match record.map_err(|e| e.to_string())?.1 {
            MrtRecord::PeerIndexTable(t) => peers = t.peers.iter().map(|p| p.asn).collect(),
            MrtRecord::RibIpv4Unicast(rib) => {
                for entry in &rib.entries {
                    let Some(&vp) = peers.get(entry.peer_index as usize) else {
                        return Err(MrtError::BadValue {
                            context: "rib peer index (no matching peer table entry)",
                            value: entry.peer_index as u64,
                        }
                        .to_string());
                    };
                    if let Some(path) = entry
                        .attributes
                        .iter()
                        .find_map(PathAttribute::flatten_as_path)
                    {
                        out.push(PathSample {
                            vp,
                            prefix: rib.prefix,
                            path,
                        });
                    }
                }
            }
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
    }
    Ok(out)
}

fn outcome(read: Result<PathSet, MrtError>) -> Result<Vec<PathSample>, String> {
    read.map(PathSet::into_samples).map_err(|e| e.to_string())
}

/// A splitmix64 stream: one `u64` seed describes a whole generated dump,
/// including whether it may hold unknown peer indices and malformed
/// attributes (each in one dump of three), so most dumps decode.
struct Draw {
    state: u64,
    bad_peers: bool,
    malformed: bool,
}

impl Draw {
    fn new(seed: u64) -> Self {
        let mut d = Draw {
            state: seed,
            bad_peers: false,
            malformed: false,
        };
        d.bad_peers = d.one_in(3);
        d.malformed = d.one_in(3);
        d
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    fn asns(&mut self, max_len: u64) -> Vec<Asn> {
        (0..self.below(max_len + 1))
            .map(|_| Asn(1 + self.below(60) as u32))
            .collect()
    }
}

/// An `AS_PATH` of one to three segments, one in four an `AS_SET`.
fn as_path(d: &mut Draw) -> PathAttribute {
    PathAttribute::AsPath(
        (0..1 + d.below(3))
            .map(|_| {
                if d.one_in(4) {
                    AsPathSegment::Set(d.asns(3))
                } else {
                    AsPathSegment::Sequence(d.asns(5))
                }
            })
            .collect(),
    )
}

/// An attribute the typed encoder cannot produce, written as raw bytes
/// under a known type code: an `AS_PATH` whose segment type is 0 or 3,
/// or an `ORIGIN` of 3.
fn malformed(d: &mut Draw) -> PathAttribute {
    let (type_code, value) = if d.one_in(2) {
        (2, vec![if d.one_in(2) { 0 } else { 3 }, 1, 0, 0, 0, 9])
    } else {
        (1, vec![3])
    };
    PathAttribute::Unknown {
        flags: FLAG_TRANSITIVE,
        type_code,
        value,
    }
}

/// One entry's attributes: none, one or two `AS_PATH`s among `ORIGIN`,
/// `NEXT_HOP`, `MED`, unknown attributes (some with extended lengths)
/// and, rarely, a malformed one.
fn attributes(d: &mut Draw) -> Vec<PathAttribute> {
    let mut attrs = Vec::new();
    if !d.one_in(4) {
        attrs.push(PathAttribute::Origin(d.below(3) as u8));
    }
    for _ in 0..[0, 1, 1, 1, 2][d.below(5) as usize] {
        attrs.push(as_path(d));
    }
    if d.one_in(2) {
        attrs.push(PathAttribute::NextHop(d.next() as u32));
    }
    if d.one_in(4) {
        attrs.push(PathAttribute::Med(d.next() as u32));
    }
    if d.one_in(4) {
        let extended = d.one_in(2);
        attrs.push(PathAttribute::Unknown {
            flags: FLAG_OPTIONAL | if extended { FLAG_EXTENDED } else { 0 },
            type_code: 20 + d.below(20) as u8,
            value: vec![0xab; d.below(if extended { 300 } else { 8 }) as usize],
        });
    }
    if d.malformed && d.one_in(8) {
        attrs.push(malformed(d));
    }
    let turn = d.below(attrs.len() as u64 + 1) as usize;
    attrs.rotate_left(turn);
    attrs
}

fn prefix(d: &mut Draw) -> Ipv4Prefix {
    let len = 8 + d.below(17) as u8;
    Ipv4Prefix::new((d.next() as u32) & (u32::MAX << (32 - len)), len).unwrap()
}

fn entries(d: &mut Draw, peers: u64) -> Vec<RibEntry> {
    (0..d.below(5))
        .map(|_| RibEntry {
            // A known index, or in a bad-peers dump one in eight times
            // anywhere up to 7.
            peer_index: if d.bad_peers && d.one_in(8) {
                d.below(8)
            } else {
                d.below(peers.max(1))
            } as u16,
            originated_time: 7,
            attributes: attributes(d),
        })
        .collect()
}

/// A mixed dump: a peer table first (seven times in eight), later peer
/// tables replacing it mid-stream, v4 RIB records, and interleaved v6
/// RIB, legacy v1, BGP4MP and unknown records.
fn generated_dump(d: &mut Draw) -> Vec<u8> {
    let mut dump = Vec::new();
    let mut peers = 0;
    let n = 6 + d.below(30);
    for i in 0..n {
        let kind = if i == 0 && !d.one_in(8) {
            0
        } else {
            d.below(12)
        };
        let record = match kind {
            0 => {
                peers = u64::from(!d.bad_peers) + d.below(6);
                MrtRecord::PeerIndexTable(PeerIndexTable {
                    collector_id: 1,
                    view_name: "v".into(),
                    peers: (0..peers)
                        .map(|p| PeerEntry {
                            bgp_id: p as u32,
                            addr: p as u32,
                            ipv6: false,
                            asn: Asn(100 + d.below(50) as u32),
                        })
                        .collect(),
                })
            }
            1..=6 => MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                sequence: i as u32,
                prefix: prefix(d),
                entries: entries(d, peers),
            }),
            7 => MrtRecord::RibIpv6Unicast(RibIpv6Unicast {
                sequence: i as u32,
                prefix: Ipv6Prefix::new(u128::from(d.next()) << 64, 64).unwrap(),
                entries: entries(d, peers),
            }),
            8 | 9 => MrtRecord::TableDumpV1(TableDumpV1 {
                view: 0,
                sequence: i as u16,
                prefix: prefix(d),
                status: 1,
                originated_time: 7,
                peer_ip: 1,
                peer_asn: Asn(200 + d.below(50) as u32),
                attributes: attributes(d),
            }),
            10 => MrtRecord::Bgp4mpMessageAs4(Bgp4mpMessageAs4 {
                peer_asn: Asn(300),
                local_asn: Asn(65000),
                if_index: 0,
                peer_ip: 1,
                local_ip: 2,
                update: BgpUpdate {
                    withdrawn: vec![prefix(d)],
                    attributes: vec![PathAttribute::Origin(0), as_path(d)],
                    announced: vec![prefix(d)],
                },
            }),
            _ => MrtRecord::Unknown {
                mrt_type: 99,
                subtype: 1,
                body: vec![0xcd; d.below(6) as usize],
            },
        };
        dump.extend_from_slice(&record.encode(i as u32).unwrap());
    }
    dump
}

/// Damage one dump in four: flip a byte, cut it short, or saturate a
/// byte to 0xff (inflating whatever count or length it lands in).
fn mutate(d: &mut Draw, mut dump: Vec<u8>) -> Vec<u8> {
    let at = d.below(dump.len() as u64) as usize;
    match d.below(8) {
        0 => dump[at] ^= 1 + d.below(255) as u8,
        1 => dump.truncate(at),
        2 => dump[at] = 0xff,
        _ => {}
    }
    dump
}

/// What a generated case is expected to produce: the oracle on the
/// streaming reader's framing, and on the frame scanner's for the
/// parallel reader (which checks the whole framing before any body).
fn expectations(
    dump: &[u8],
) -> (
    Result<Vec<PathSample>, String>,
    Result<Vec<PathSample>, String>,
) {
    let streamed = record_tree_oracle(dump);
    let framed = match scan_record_frames(dump, DEFAULT_MAX_RECORD_LEN) {
        Err(e) => Err(e.to_string()),
        Ok(_) => streamed.clone(),
    };
    (streamed, framed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Generated and damaged dumps: the streaming reader and the
    /// parallel reader at every thread count return exactly the record-
    /// tree oracle's samples, or an error with the same message.
    #[test]
    fn rib_readers_match_record_tree_oracle(seed in any::<u64>()) {
        let mut d = Draw::new(seed);
        let dump = generated_dump(&mut d);
        let dump = mutate(&mut d, dump);
        let (streamed, framed) = expectations(&dump);
        prop_assert_eq!(outcome(read_rib_dump(&dump[..])), streamed);
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            prop_assert_eq!(outcome(read_rib_dump_parallel(&dump, par)), framed.clone());
        }
    }
}

/// Whether the first entry whose peer index does not resolve has no
/// `AS_PATH` — the entry a reader that resolves only kept paths misses.
fn first_unknown_peer_is_pathless(dump: &[u8]) -> bool {
    let mut peers = 0;
    for (_, record) in MrtReader::new(dump).map_while(Result::ok) {
        match record {
            MrtRecord::PeerIndexTable(t) => peers = t.peers.len(),
            MrtRecord::RibIpv4Unicast(rib) => {
                if let Some(e) = rib.entries.iter().find(|e| e.peer_index as usize >= peers) {
                    return e.attributes.iter().all(|a| a.flatten_as_path().is_none());
                }
            }
            _ => {}
        }
    }
    false
}

/// The oracle comparison only means something if the generator reaches
/// every outcome the decoder distinguishes: clean dumps with samples,
/// unknown peer indices on entries without an `AS_PATH`, rejected
/// `AS_PATH` segment types, and damaged framing.
#[test]
fn generated_dumps_reach_every_outcome() {
    let (mut clean, mut pathless_peer, mut segment, mut framing) = (0, 0, 0, 0);
    for seed in 0..512 {
        let mut d = Draw::new(seed);
        let dump = generated_dump(&mut d);
        match record_tree_oracle(&dump) {
            Ok(samples) if !samples.is_empty() => clean += 1,
            Err(e) if e.contains("peer index") => {
                pathless_peer += usize::from(first_unknown_peer_is_pathless(&dump));
            }
            Err(e) if e.contains("as_path segment type") => segment += 1,
            _ => {}
        }
        if scan_record_frames(&mutate(&mut d, dump), DEFAULT_MAX_RECORD_LEN).is_err() {
            framing += 1;
        }
    }
    assert!(clean >= 128, "{clean} clean dumps with samples");
    assert!(
        pathless_peer >= 16,
        "{pathless_peer} unknown peers on pathless entries"
    );
    assert!(segment >= 24, "{segment} rejected segment types");
    assert!(framing >= 24, "{framing} damaged framings");
}
