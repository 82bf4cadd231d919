//! Hostile and heavy clients over real TCP: a line that never ends, bytes
//! that are not UTF-8, and a pipelined burst. The server must answer each
//! with the right reply, keep its per-connection memory bounded by
//! [`MAX_LINE`], and keep well-behaved connections open.
//!
//! Every test holds [`counting_alloc::serial`]: the peak-memory check
//! reads process-wide heap counters that other tests would disturb.

mod common;
mod counting_alloc;

use asrank_serve::{format_answer, parse_request, Request, Server, MAX_LINE};
use common::{sample_paths, scratch, warm_cache};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(tag: &str) -> Server {
    let spec = warm_cache(&scratch(tag), b"wire-limits-rib", &sample_paths());
    Server::start(spec, 0, None).expect("start server")
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

#[test]
fn endless_line_is_refused_then_closed_without_buffering_it() {
    let _serial = counting_alloc::serial();
    let server = start("endless");
    let (stream, mut reader) = connect(&server);
    let payload = vec![b'7'; 1 << 20];
    let mut reply = String::with_capacity(256);

    counting_alloc::reset_peak();
    let base = counting_alloc::live_bytes();
    std::thread::scope(|s| {
        // The server stops reading after MAX_LINE bytes and closes, so
        // this write is expected to fail part-way.
        s.spawn(|| {
            let _ = (&stream).write_all(&payload);
        });
        reader.read_line(&mut reply).expect("read the refusal");
    });
    let grown = counting_alloc::peak_bytes().saturating_sub(base);

    assert_eq!(reply, "err serve: line too long\n");
    let mut rest = [0u8; 16];
    assert_eq!(
        reader.read(&mut rest).expect("clean end of stream"),
        0,
        "the connection closes after the refusal"
    );
    // A buffer that followed the line would have grown past 1 MiB; the
    // capped one holds MAX_LINE. Thread start-up and socket buffers
    // account for the rest.
    assert!(
        grown < 16 * MAX_LINE as u64,
        "heap grew by {grown} bytes while a 1 MiB line arrived"
    );
}

#[test]
fn non_utf8_line_gets_an_error_and_the_connection_stays_open() {
    let _serial = counting_alloc::serial();
    let server = start("utf8");
    let (mut stream, mut reader) = connect(&server);
    stream
        .write_all(b"rank \xff\xfe\nrel 1 2\ngen\n")
        .expect("send");
    let mut lines = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply");
        lines.push(line);
    }
    assert_eq!(lines[0], "err serve: request is not UTF-8\n");
    assert_ne!(lines[1], "none\n", "dataset classifies the 1-2 link");
    assert!(!lines[1].starts_with("err "));
    assert_eq!(lines[2], "1\n");
}

#[test]
fn pipelined_burst_is_answered_in_order() {
    let _serial = counting_alloc::serial();
    let server = start("burst");
    let snapshot = server.state().current();
    let asns = [
        1u32, 2, 3, 10, 11, 20, 21, 30, 31, 41, 42, 43, 44, 51, 52, 99,
    ];
    let lines: Vec<String> = (0..1_000)
        .map(|i| {
            let (x, y) = (asns[i % asns.len()], asns[(i / asns.len()) % asns.len()]);
            match i % 5 {
                0 => format!("rel {x} {y}"),
                1 => format!("cone recursive {x} {y}"),
                2 => format!("cone-size pp {x}"),
                3 => format!("degree {x}"),
                _ => format!("rank {x}"),
            }
        })
        .collect();
    let expected: Vec<String> = lines
        .iter()
        .map(|l| match parse_request(l).expect("valid query") {
            Request::Query(q) => format!("{}\n", format_answer(&snapshot.answer(q))),
            other => panic!("not a query: {other:?}"),
        })
        .collect();
    let burst: String = lines.iter().map(|l| format!("{l}\n")).collect();

    let (stream, mut reader) = connect(&server);
    let got: Vec<String> = std::thread::scope(|s| {
        s.spawn(|| (&stream).write_all(burst.as_bytes()).expect("send burst"));
        (0..lines.len())
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).expect("reply");
                line
            })
            .collect()
    });
    assert_eq!(got, expected);
}
