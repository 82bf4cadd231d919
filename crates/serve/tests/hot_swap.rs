//! Hot-swap correctness: concurrent readers must never observe a torn
//! snapshot — every answer a reader gets between two `snapshot()` calls
//! comes from exactly one generation's dataset — and the TCP server's
//! watcher must converge to a re-warmed cache without dropping
//! connections.

mod common;

use asrank_serve::{ConeFlavor, Server, ServeSnapshot, ServeState};
use asrank_types::Asn;
use common::{alternate_paths, sample_paths, scratch, warm_cache, warm_cache_frames};
use std::io::{BufRead, BufReader, Write};
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
