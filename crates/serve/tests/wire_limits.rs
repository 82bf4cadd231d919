//! Hostile and heavy clients over real TCP: a line that never ends, bytes
//! that are not UTF-8, a pipelined burst, and a connection flood that
//! exhausts the server's file descriptors. The server must answer each
//! with the right reply, keep its per-connection memory bounded by
//! [`MAX_LINE`], keep well-behaved connections open, and keep accepting
//! once descriptors free up.
//!
//! Every test holds [`counting_alloc::serial`]: the peak-memory check
//! reads process-wide heap counters that other tests would disturb.

mod common;
mod counting_alloc;

use asrank_serve::{format_answer, parse_request, Request, Server, MAX_LINE};
use common::{sample_paths, scratch, source_spec, warm_cache};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

/// Set to a warmed cache root, this variable turns the test binary into
/// the fd-limited server child of [`accept_survives_fd_exhaustion`].
const FD_CHILD_ENV: &str = "ASRANK_WIRE_LIMITS_FD_CHILD";

/// The child's `ulimit -n`; the flood holds twice this many connections.
const FD_LIMIT: usize = 64;

/// Child side: serve the cache under `root`, print the port, then answer
/// each `failures` line on stdin with the accept-failure count until
/// any other line (or end of input) stops it.
fn fd_limited_server(root: &Path) {
    let server = Server::start(source_spec(root), 0, None).expect("start server");
    println!("port={}", server.addr().port());
    for line in std::io::stdin().lines() {
        if line.expect("read command") != "failures" {
            break;
        }
        println!("accept_failures={}", server.state().accept_failures());
    }
}

fn rel_query(addr: SocketAddr, timeout: Duration) -> std::io::Result<String> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    (&stream).write_all(b"rel 1 2\n")?;
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply)?;
    Ok(reply)
}

#[test]
fn accept_survives_fd_exhaustion() {
    if let Some(root) = std::env::var_os(FD_CHILD_ENV) {
        return fd_limited_server(Path::new(&root));
    }
    let _serial = counting_alloc::serial();
    let root = scratch("fd_flood");
    warm_cache(&root, b"wire-limits-rib", &sample_paths());

    // Re-run this test in a child whose descriptor limit the shell
    // lowers first, so the flood cannot touch this process's limit.
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -n {FD_LIMIT} && exec \"$0\" \"$@\""))
        .arg(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "accept_survives_fd_exhaustion", "--nocapture"])
        .env(FD_CHILD_ENV, &root)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fd-limited child");
    let mut to_child = child.stdin.take().expect("child stdin");
    let mut from_child = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut field = |key: &str| -> u64 {
        let mut line = String::new();
        loop {
            line.clear();
            assert_ne!(
                from_child.read_line(&mut line).expect("child output"),
                0,
                "child exited"
            );
            if let Some(v) = line.trim().strip_prefix(key) {
                return v.parse().expect("numeric field");
            }
        }
    };
    let port = u16::try_from(field("port=")).expect("port");
    let addr = SocketAddr::from(([127, 0, 0, 1], port));

    // Hold more connections than the child has descriptors, until its
    // accept loop has failed at least once.
    let flood: Vec<TcpStream> = (0..2 * FD_LIMIT)
        .map(|_| TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("flood connect"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    let failures = loop {
        writeln!(to_child, "failures").expect("ask child");
        let n = field("accept_failures=");
        if n > 0 || Instant::now() > deadline {
            break n;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(
        failures > 0,
        "{} held connections never exhausted the child's descriptors",
        flood.len()
    );
    drop(flood);

    // With the flood gone, a fresh client must be served promptly.
    let reply = rel_query(addr, Duration::from_secs(5)).expect("fresh connection after the flood");
    assert!(
        !reply.is_empty() && !reply.starts_with("err "),
        "reply {reply:?}"
    );

    writeln!(to_child, "stop").expect("stop child");
    drop(to_child);
    assert!(child.wait().expect("child exit").success());
}
