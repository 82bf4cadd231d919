//! `write_rib_dump` sorts packed keys and writes each record straight
//! into one reused buffer. It is held to the encoder it replaced, written
//! out here: samples grouped per prefix in a `BTreeMap`, ordered by peer
//! index with a stable sort, and each entry built as a [`RibEntry`] with
//! typed attributes and encoded through [`MrtRecord`]. Both must produce
//! the same bytes on generated sets (duplicate `(vp, prefix)` samples,
//! empty and extended-length paths, 4-byte ASNs, `/0` and `/32`
//! prefixes, VPs in any order) and on bgpsim's tables.
//!
//! `write_update_stream` sorts each update's announcements by `(path,
//! prefix)` and writes every chunk straight into the same buffer. It is
//! held to the writer it replaced: announcements grouped per path in a
//! `BTreeMap`, and each chunk built as a [`Bgp4mpMessageAs4`] from a
//! cloned base message. Both must produce the same bytes on drawn update
//! sets, on chunked ones, and on bgpsim's depeering updates.
//!
//! Fields the wire cannot carry are pinned too: a path over 255 hops
//! round-trips as consecutive `AS_SEQUENCE` segments, and every other
//! count or length that does not fit is a typed error, not a clamp.

use as_topology_gen::{generate, TopologyConfig};
use asrank_types::update::UpdateMessage;
use asrank_types::{AsPath, Asn, Ipv4Prefix, Parallelism, PathSample, PathSet};
use bgp_sim::{simulate, simulate_event, AnomalyConfig, RoutingEvent, SimConfig, VpSelection};
use mrt_codec::{
    read_rib_dump, read_rib_dump_parallel, write_rib_dump, write_update_stream, Bgp4mpMessageAs4,
    BgpUpdate, MrtError, MrtRecord, MrtWriter, PathAttribute, PeerEntry, PeerIndexTable, RibEntry,
    RibIpv4Unicast, TableDumpV1,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The record-tree encoder `write_rib_dump` replaced.
fn record_tree_encode(paths: &PathSet, timestamp: u32) -> Vec<u8> {
    let mut writer = MrtWriter::new(Vec::new());
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
    writer
        .write_record(timestamp, &MrtRecord::PeerIndexTable(table))
        .unwrap();

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
        writer
            .write_record(
                timestamp,
                &MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
                    sequence: seq as u32,
                    prefix,
                    entries,
                }),
            )
            .unwrap();
    }
    writer.into_inner().unwrap()
}

/// A path set drawn from `seed`: a few VPs and prefixes shared by many
/// samples, so `(vp, prefix)` pairs repeat.
fn drawn_path_set(seed: u64, samples: usize) -> PathSet {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        s ^ (s >> 31)
    };
    // Half the ASNs need 4 bytes, a quarter sit at or above 2^31.
    let asn = |next: &mut dyn FnMut() -> u64| -> u32 {
        let r = next();
        match r % 4 {
            0 => (r >> 8) as u32 % 65_536,
            1 => 1 + (r >> 8) as u32 % 64_000,
            2 => 65_536 + (r >> 8) as u32 % 1_000_000,
            _ => 0x8000_0000 | (r >> 8) as u32,
        }
    };
    let vps: Vec<u32> = (0..1 + next() % 6).map(|_| asn(&mut next)).collect();
    // `/0` and a `/16` on the same network address, so prefixes that
    // differ only in length meet.
    let mut prefixes = vec![Ipv4Prefix::DEFAULT_ROUTE, Ipv4Prefix::new(0, 16).unwrap()];
    for _ in 0..1 + next() % 6 {
        let r = next();
        prefixes.push(Ipv4Prefix::new(r as u32, (r >> 32) as u8 % 33).unwrap());
    }
    prefixes.push(Ipv4Prefix::new(next() as u32, 32).unwrap());

    let mut ps = PathSet::new();
    for _ in 0..samples {
        let vp = vps[(next() % vps.len() as u64) as usize];
        let prefix = prefixes[(next() % prefixes.len() as u64) as usize];
        let hops = match next() % 8 {
            0 => 0,
            1 => 64 + (next() % 192) as usize,
            _ => 1 + (next() % 8) as usize,
        };
        let path = AsPath((0..hops).map(|_| Asn(asn(&mut next))).collect());
        ps.push(PathSample {
            vp: Asn(vp),
            prefix,
            path,
        });
    }
    ps
}

fn encode(paths: &PathSet, timestamp: u32) -> Result<Vec<u8>, MrtError> {
    let mut out = Vec::new();
    write_rib_dump(paths, &mut out, timestamp)?;
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_rib_dump_matches_record_tree_encode(seed in any::<u64>(), n in 0usize..80) {
        let paths = drawn_path_set(seed, n);
        let ts = (seed >> 32) as u32;
        let bytes = encode(&paths, ts).unwrap();
        prop_assert_eq!(&bytes, &record_tree_encode(&paths, ts));
        // Duplicate (vp, prefix) samples keep their input order: the
        // reader returns each prefix's entries in peer order, ties in the
        // order they were given.
        let mut expected: Vec<PathSample> = paths.iter().cloned().collect();
        expected.sort_by_key(|s| (s.prefix, s.vp));
        prop_assert_eq!(read_rib_dump(&bytes[..]).unwrap().into_samples(), expected);
    }
}

#[test]
fn bgpsim_tables_match_record_tree_encode() {
    for (name, topology) in [
        ("tiny", TopologyConfig::tiny()),
        ("small", TopologyConfig::small()),
    ] {
        for seed in 1..=3 {
            let topo = generate(&topology, seed);
            let mut cfg = SimConfig::defaults(seed);
            cfg.vp_selection = VpSelection::Count(20);
            cfg.anomalies = AnomalyConfig::realistic(topo.ground_truth.clique());
            let paths = simulate(&topo, &cfg).paths;
            assert!(!paths.is_empty(), "{name} seed {seed}");
            assert!(
                encode(&paths, seed as u32).unwrap() == record_tree_encode(&paths, seed as u32),
                "{name} seed {seed}: bytes differ"
            );
        }
    }
}

/// The update-stream writer `write_update_stream` replaced.
fn record_tree_update_stream(updates: &[UpdateMessage], timestamp: u32) -> Vec<u8> {
    const MAX_NLRI_PER_MESSAGE: usize = 600;
    let mut writer = MrtWriter::new(Vec::new());
    for (i, update) in updates.iter().enumerate() {
        let local_ip = 0x0a00_0000 + i as u32 + 1;
        let base = Bgp4mpMessageAs4 {
            peer_asn: update.vp,
            local_asn: Asn(65_000),
            if_index: 0,
            peer_ip: local_ip + 0x0100_0000,
            local_ip,
            update: BgpUpdate::default(),
        };
        for chunk in update.withdrawn.chunks(MAX_NLRI_PER_MESSAGE) {
            let mut msg = base.clone();
            msg.update.withdrawn = chunk.to_vec();
            writer
                .write_record(timestamp, &MrtRecord::Bgp4mpMessageAs4(msg))
                .unwrap();
        }
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
                writer
                    .write_record(timestamp, &MrtRecord::Bgp4mpMessageAs4(msg))
                    .unwrap();
            }
        }
    }
    writer.into_inner().unwrap()
}

fn encode_updates(updates: &[UpdateMessage], timestamp: u32) -> Vec<u8> {
    let mut out = Vec::new();
    write_update_stream(updates, &mut out, timestamp).unwrap();
    out
}

/// One update per VP of a drawn path set: a sample with an empty path
/// withdraws its prefix, any other announces it. Paths and prefixes
/// repeat, and so do whole `(prefix, path)` announcements.
fn drawn_updates(seed: u64, samples: usize) -> Vec<UpdateMessage> {
    let mut per_vp: BTreeMap<Asn, UpdateMessage> = BTreeMap::new();
    for s in drawn_path_set(seed, samples).iter() {
        let update = per_vp.entry(s.vp).or_insert_with(|| UpdateMessage {
            vp: s.vp,
            ..UpdateMessage::default()
        });
        if s.path.is_empty() {
            update.withdrawn.push(s.prefix);
        } else {
            update.announced.push((s.prefix, s.path.clone()));
        }
    }
    per_vp.into_values().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_update_stream_matches_record_tree_writer(seed in any::<u64>(), n in 0usize..80) {
        let updates = drawn_updates(seed, n);
        let ts = (seed >> 32) as u32;
        prop_assert_eq!(encode_updates(&updates, ts), record_tree_update_stream(&updates, ts));
    }
}

#[test]
fn chunked_updates_match_record_tree_writer() {
    // 1,300 announcements over two paths and 700 withdrawals: both
    // paths and the withdrawals span more than one 600-prefix message.
    let prefix = |i: u32| Ipv4Prefix::new(i.wrapping_mul(0x9e37_79b9) & 0xffff_ff00, 24).unwrap();
    let paths = [AsPath::from_u32s([7, 3, 1]), AsPath::from_u32s([7, 2])];
    let updates = vec![
        UpdateMessage {
            vp: Asn(7),
            withdrawn: (0..700).map(|i| prefix(5_000 + i)).collect(),
            announced: (0..1_300)
                .map(|i| (prefix(i), paths[i as usize % 2].clone()))
                .collect(),
        },
        UpdateMessage {
            vp: Asn(9),
            withdrawn: Vec::new(),
            announced: vec![(prefix(1), AsPath::from_u32s([9]))],
        },
    ];
    assert_eq!(
        encode_updates(&updates, 5),
        record_tree_update_stream(&updates, 5)
    );
}

#[test]
fn bgpsim_updates_match_record_tree_writer() {
    for (name, topology) in [
        ("tiny", TopologyConfig::tiny()),
        ("small", TopologyConfig::small()),
    ] {
        for seed in 1..=3 {
            let topo = generate(&topology, seed);
            let clique = topo.ground_truth.clique();
            let mut cfg = SimConfig::defaults(seed);
            cfg.vp_selection = VpSelection::Count(20);
            cfg.anomalies = AnomalyConfig::realistic(clique.clone());
            let event = RoutingEvent::LinkDown {
                a: clique[0],
                b: clique[1],
            };
            let (_, _, updates) = simulate_event(&topo, event, &cfg);
            assert!(!updates.is_empty(), "{name} seed {seed}");
            assert!(
                encode_updates(&updates, seed as u32)
                    == record_tree_update_stream(&updates, seed as u32),
                "{name} seed {seed}: bytes differ"
            );
        }
    }
}

#[test]
fn path_over_255_hops_round_trips_as_split_segments() {
    let long = AsPath::from_u32s((0..300).map(|i| 4_000_000_000 + i));
    let mut paths = PathSet::new();
    for (vp, path) in [(7u32, long.clone()), (9, AsPath::from_u32s([9, 1]))] {
        paths.push(PathSample {
            vp: Asn(vp),
            prefix: "10.0.0.0/8".parse().unwrap(),
            path,
        });
    }
    let bytes = encode(&paths, 1).unwrap();
    let expected = paths.clone().into_samples();
    assert_eq!(read_rib_dump(&bytes[..]).unwrap().into_samples(), expected);
    for par in [Parallelism::sequential(), Parallelism::threads(2)] {
        assert_eq!(
            read_rib_dump_parallel(&bytes, par).unwrap().into_samples(),
            expected
        );
    }
}

fn overflow_context(err: MrtError) -> &'static str {
    match err {
        MrtError::Overflow { context, .. } => context,
        other => panic!("expected an overflow error, got {other}"),
    }
}

#[test]
fn rib_fields_that_do_not_fit_are_typed_errors() {
    let sample = |vp: u32, prefix: &str| PathSample {
        vp: Asn(vp),
        prefix: prefix.parse().unwrap(),
        path: AsPath::from_u32s([vp, 1]),
    };
    // 65,536 VPs: one more than the peer count field holds, and the last
    // would need peer index 65,536.
    let many_vps = PathSet::from_samples((0..65_536).map(|vp| sample(vp, "10.0.0.0/8")).collect());
    assert_eq!(
        overflow_context(encode(&many_vps, 0).unwrap_err()),
        "peer count"
    );
    // 65,536 entries for one prefix from one VP.
    let many_entries =
        PathSet::from_samples((0..65_536).map(|_| sample(7, "10.0.0.0/8")).collect());
    assert_eq!(
        overflow_context(encode(&many_entries, 0).unwrap_err()),
        "rib entry count"
    );
    // One path too long for any AS_PATH: 16,400 hops need 65,730 bytes.
    let mut huge = PathSet::new();
    huge.push(PathSample {
        vp: Asn(7),
        prefix: "10.0.0.0/8".parse().unwrap(),
        path: AsPath::from_u32s(0..16_400),
    });
    assert_eq!(
        overflow_context(encode(&huge, 0).unwrap_err()),
        "attr ext length"
    );
}

#[test]
fn record_fields_that_do_not_fit_are_typed_errors() {
    let record_error = |record: MrtRecord| overflow_context(record.encode(0).unwrap_err());
    let big_attr = PathAttribute::Unknown {
        flags: 0xc0,
        type_code: 99,
        value: vec![0; 40_000],
    };
    // Two 40 kB attributes fit one each but not one block.
    let entry = RibEntry {
        peer_index: 0,
        originated_time: 0,
        attributes: vec![big_attr.clone(), big_attr.clone()],
    };
    assert_eq!(
        record_error(MrtRecord::RibIpv4Unicast(RibIpv4Unicast {
            sequence: 0,
            prefix: Ipv4Prefix::DEFAULT_ROUTE,
            entries: vec![entry],
        })),
        "rib attr length"
    );
    assert_eq!(
        record_error(MrtRecord::TableDumpV1(TableDumpV1 {
            view: 0,
            sequence: 0,
            prefix: Ipv4Prefix::DEFAULT_ROUTE,
            status: 1,
            originated_time: 0,
            peer_ip: 0,
            peer_asn: Asn(1),
            attributes: vec![big_attr.clone(), big_attr.clone()],
        })),
        "td1 attr length"
    );
    assert_eq!(
        record_error(MrtRecord::PeerIndexTable(PeerIndexTable {
            collector_id: 0,
            view_name: "v".repeat(65_536),
            peers: Vec::new(),
        })),
        "view name length"
    );
    let update = |update: BgpUpdate| {
        MrtRecord::Bgp4mpMessageAs4(Bgp4mpMessageAs4 {
            peer_asn: Asn(1),
            local_asn: Asn(2),
            if_index: 0,
            peer_ip: 0,
            local_ip: 0,
            update,
        })
    };
    // 14,000 /24s take 56,000 bytes of NLRI each way.
    let prefixes: Vec<Ipv4Prefix> = (0..14_000u32)
        .map(|i| Ipv4Prefix::new(i << 8, 24).unwrap())
        .collect();
    assert_eq!(
        record_error(update(BgpUpdate {
            withdrawn: [prefixes.clone(), prefixes.clone()].concat(),
            ..BgpUpdate::default()
        })),
        "withdrawn length"
    );
    assert_eq!(
        record_error(update(BgpUpdate {
            attributes: vec![big_attr.clone(), big_attr],
            ..BgpUpdate::default()
        })),
        "attributes length"
    );
    assert_eq!(
        record_error(update(BgpUpdate {
            withdrawn: prefixes.clone(),
            announced: prefixes,
            ..BgpUpdate::default()
        })),
        "bgp message length"
    );
}

#[test]
fn update_stream_writer_reports_overflow() {
    use asrank_types::update::UpdateMessage;
    let message = UpdateMessage {
        vp: Asn(7),
        withdrawn: Vec::new(),
        announced: vec![("10.0.0.0/8".parse().unwrap(), AsPath::from_u32s(0..16_400))],
    };
    let err = write_update_stream(&[message], Vec::new(), 0).unwrap_err();
    assert_eq!(overflow_context(err), "attr ext length");
}
