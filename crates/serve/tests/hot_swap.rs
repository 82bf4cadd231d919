//! Hot-swap correctness: concurrent readers must never observe a torn
//! snapshot — every answer a reader gets between two `snapshot()` calls
//! comes from exactly one generation's dataset — and the TCP server's
//! watcher must converge to a re-warmed cache without dropping
//! connections.

mod common;

use asrank_core::persist::kind;
use asrank_serve::{ConeFlavor, ServeError, ServeSnapshot, ServeState, Server, SourceStamp};
use asrank_types::codec::{checksum64, Encoder, TRAILER_LEN};
use asrank_types::{Asn, PathSet};
use common::{alternate_paths, sample_paths, scratch, warm_cache, warm_cache_frames};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Dataset A observes AS 1 (a clique member); dataset B shares no ASNs
/// with A and observes AS 901 instead. Each generation serves exactly
/// one of them, so these sentinels tell generations apart.
fn looks_like_a(snapshot: &ServeSnapshot) -> bool {
    snapshot.degree(Asn(1)).1 > 0
}

fn looks_like_b(snapshot: &ServeSnapshot) -> bool {
    snapshot.degree(Asn(901)).1 > 0
}

#[test]
fn concurrent_readers_never_see_torn_snapshots() {
    let root = scratch("swap");
    let ps_a = sample_paths();
    let ps_b = alternate_paths();
    let spec_a = warm_cache(&root.join("a"), b"swap-rib-a", &ps_a);
    let spec_b = warm_cache(&root.join("b"), b"swap-rib-b", &ps_b);

    let state = Arc::new(ServeState::new(
        ServeSnapshot::load(&spec_a, 1).expect("load A"),
    ));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4)
        .map(|_| {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut handle = state.reader();
                let mut swaps_seen = 0u64;
                let mut last_gen = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let snap = handle.snapshot();
                    let gen = snap.generation();
                    // Odd generations serve A, even serve B (publisher's
                    // alternation). Every sentinel must agree with the
                    // generation under which it is answered — a torn
                    // snapshot (new generation, old bytes, or a mix of
                    // frames) fails here.
                    let (a, b) = (looks_like_a(snap), looks_like_b(snap));
                    if gen % 2 == 1 {
                        assert!(a && !b, "gen {gen} must answer dataset A");
                        assert!(snap.rel(Asn(1), Asn(2)).is_some());
                        assert!(snap.rank(Asn(901)).is_none());
                    } else {
                        assert!(b && !a, "gen {gen} must answer dataset B");
                        assert!(snap.rel(Asn(901), Asn(902)).is_some());
                        assert!(snap.rank(Asn(1)).is_none());
                    }
                    assert!(snap.cone_size(ConeFlavor::Recursive, Asn(1)).ases >= 1);
                    if gen != last_gen {
                        swaps_seen += 1;
                        last_gen = gen;
                    }
                }
                swaps_seen
            })
        })
        .collect();

    // Publisher: alternate A/B under increasing generations.
    for generation in 2..=25u64 {
        let spec = if generation % 2 == 1 { &spec_a } else { &spec_b };
        let snapshot = ServeSnapshot::load(spec, generation).expect("reload");
        state.publish(snapshot);
        std::thread::sleep(Duration::from_millis(4));
    }
    stop.store(true, Ordering::Release);

    for r in readers {
        let swaps = r.join().expect("reader thread");
        assert!(swaps >= 2, "reader observed swaps (saw {swaps})");
    }
    assert_eq!(state.generation(), 25);
}

/// A RIB rewritten in place with bytes of the same length, its mtime set
/// back afterwards, reads the same `(len, mtime)` as before; the stamp
/// still differs, because the write moved the file's ctime.
#[test]
fn an_in_place_rib_rewrite_with_the_mtime_restored_changes_the_stamp() {
    let root = scratch("stamp");
    let spec = warm_cache(&root, b"stamp-rib-a", &sample_paths());
    let frames = spec.resolve().expect("resolve");
    let before = SourceStamp::capture(&spec.rib, &frames);
    let meta = std::fs::metadata(&spec.rib).unwrap();

    // Let the rewrite land in a later timestamp tick than the write it
    // replaces: a few ms on most filesystems, a whole second on those
    // that keep 1-second timestamps (ext3, HFS+).
    std::thread::sleep(Duration::from_millis(1100));
    let mut rib = std::fs::OpenOptions::new()
        .write(true)
        .open(&spec.rib)
        .unwrap();
    rib.seek(SeekFrom::Start(0)).unwrap();
    rib.write_all(b"stamp-rib-b").unwrap();
    rib.set_modified(meta.modified().unwrap()).unwrap();
    drop(rib);
    let after = std::fs::metadata(&spec.rib).unwrap();
    assert_eq!(after.len(), meta.len());
    assert_eq!(after.modified().unwrap(), meta.modified().unwrap());

    assert_ne!(SourceStamp::capture(&spec.rib, &frames), before);
}

fn send(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> String {
    writer
        .write_all(format!("{line}\n").as_bytes())
        .expect("write request");
    let mut out = String::new();
    reader.read_line(&mut out).expect("read answer");
    out.trim().to_string()
}

#[test]
fn tcp_server_hot_swaps_when_cache_rewarms() {
    let root = scratch("tcp");
    let ps_a = sample_paths();
    let ps_b = alternate_paths();
    let spec = warm_cache(&root, b"tcp-rib-a", &ps_a);

    let server = Server::start(spec.clone(), 0, Some(Duration::from_millis(20)))
        .expect("start server");
    let addr = server.addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    assert_eq!(send(&mut reader, &mut writer, "gen"), "1");
    let rel_a = send(&mut reader, &mut writer, "rel 1 2");
    assert_ne!(rel_a, "none", "dataset A classifies the 1-2 link");
    assert_eq!(send(&mut reader, &mut writer, "rel 901 902"), "none");
    assert_eq!(
        send(&mut reader, &mut writer, "cone recursive 1 1"),
        "true"
    );
    assert!(send(&mut reader, &mut writer, "bogus 1").starts_with("err "));

    // Re-warm the cache with dataset B and swap the RIB file contents —
    // exactly what a fresh `asrank infer --cache-dir` over a new RIB
    // does. The watcher must notice and publish a new generation.
    warm_cache_frames(&root.join("cache"), b"tcp-rib-b", &ps_b);
    std::fs::write(&spec.rib, b"tcp-rib-b").unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let gen = send(&mut reader, &mut writer, "gen");
        if gen != "1" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never swapped"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Same connection, new dataset.
    assert_eq!(send(&mut reader, &mut writer, "rel 1 2"), "none");
    assert_ne!(send(&mut reader, &mut writer, "rel 901 902"), "none");
    let _ = send(&mut reader, &mut writer, "degree 901");
    writer.write_all(b"quit\n").unwrap();

    drop(server);
}

#[test]
fn watcher_counts_failed_reloads_and_keeps_serving() {
    let root = scratch("badframe");
    let spec = warm_cache(&root, b"bad-frame-rib", &sample_paths());
    let server = Server::start(spec, 0, Some(Duration::from_millis(20))).expect("start server");
    let state = Arc::clone(server.state());
    assert_eq!(state.reload_failures(), 0);
    assert_eq!(state.last_reload_error(), None);

    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let rel = send(&mut reader, &mut writer, "rel 1 2");
    assert_ne!(rel, "none");

    // Corrupt the served inference frame the way a broken cache writer
    // would: a new file (a rename, so the live mapping keeps its bytes)
    // with one payload bit flipped and the last byte cut off.
    let frame = state.current().frames().inference.clone();
    let mut bytes = std::fs::read(&frame).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    bytes.pop();
    let tmp = frame.with_extension("corrupt");
    std::fs::write(&tmp, &bytes).unwrap();
    std::fs::rename(&tmp, &frame).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while state.reload_failures() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never tried the corrupt frame"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let error = state.last_reload_error().expect("failure recorded");
    assert!(
        error.contains("s11_inference"),
        "error names the stage: {error}"
    );

    // The old generation keeps answering, with the old answers.
    assert_eq!(send(&mut reader, &mut writer, "gen"), "1");
    assert_eq!(send(&mut reader, &mut writer, "rel 1 2"), rel);
    assert_eq!(state.generation(), 1);
    drop(server);
}

/// A `rib_ingest` frame as codec version 1 wrote it: the sample section
/// with no recorded fingerprint before it, under version word 1. It is
/// sealed with the current checksum, so only the version word rejects
/// it; a reader that skipped that check would take the sample count for
/// the fingerprint and look for stage frames under a wrong key.
fn version_one_pathset(ps: &PathSet) -> Vec<u8> {
    let mut e = Encoder::new(kind::PATHSET);
    e.usize(ps.len());
    for s in ps.iter() {
        e.u32(s.vp.0);
        e.u32(s.prefix.network());
        e.u8(s.prefix.len());
        e.seq_u32(&s.path.0.iter().map(|a| a.0).collect::<Vec<u32>>());
    }
    let mut frame = e.finish();
    frame[4..8].copy_from_slice(&1u32.to_le_bytes());
    let body_end = frame.len() - TRAILER_LEN;
    let sum = checksum64(&frame[..body_end]);
    frame[body_end..].copy_from_slice(&sum.to_le_bytes());
    frame
}

/// A cache whose ingest frame an older codec version wrote: the load is
/// a `BadFrame` on `rib_ingest` that says how to re-warm, a running
/// server keeps answering its generation and counts the failed reloads,
/// and after a re-warm the reload succeeds.
#[test]
fn version_one_ingest_frame_fails_reload_until_rewarmed() {
    let root = scratch("v1ingest");
    let ps = sample_paths();
    let rib: &[u8] = b"v1-ingest-rib";
    let spec = warm_cache(&root, rib, &ps);
    let server =
        Server::start(spec.clone(), 0, Some(Duration::from_millis(20))).expect("start server");
    let state = Arc::clone(server.state());

    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let rel = send(&mut reader, &mut writer, "rel 1 2");
    assert_ne!(rel, "none");

    // Replace the ingest frame by rename, as a cache writer would.
    let frame = state.current().frames().pathset.clone();
    let tmp = frame.with_extension("old");
    std::fs::write(&tmp, version_one_pathset(&ps)).unwrap();
    std::fs::rename(&tmp, &frame).unwrap();

    let Err(err) = ServeSnapshot::load(&spec, 99) else {
        panic!("a version-1 ingest frame loaded");
    };
    let ServeError::BadFrame { stage, detail } = &err else {
        panic!("expected BadFrame on rib_ingest, got {err}");
    };
    assert_eq!(stage, "rib_ingest");
    assert!(detail.contains("version 1"), "detail: {detail}");
    assert!(
        err.to_string().contains("--cache-dir"),
        "no re-warm hint: {err}"
    );

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while state.reload_failures() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never tried the old frame"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let error = state.last_reload_error().expect("failure recorded");
    assert!(
        error.contains("rib_ingest"),
        "error names the stage: {error}"
    );
    assert_eq!(send(&mut reader, &mut writer, "gen"), "1");
    assert_eq!(send(&mut reader, &mut writer, "rel 1 2"), rel);

    // Re-warm: the ingest frame is written in the current format, and
    // the watcher's next reload publishes a new generation.
    warm_cache_frames(&spec.cache_root, rib, &ps);
    assert!(ServeSnapshot::load(&spec, 100).is_ok());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while send(&mut reader, &mut writer, "gen") == "1" {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never reloaded after the re-warm"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(send(&mut reader, &mut writer, "rel 1 2"), rel);
    drop(server);
}
