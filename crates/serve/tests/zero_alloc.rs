//! The zero-copy claim, pinned: after warmup, point queries against a
//! [`ServeSnapshot`] perform **no heap allocation at all**, and neither
//! does the connection loop that reads request lines and writes replies.
//! A counting global allocator wraps `System`; the hot loops run every
//! query kind and the allocation counter must not move.
//!
//! The wire-path tests also pin how replies leave the loop: one `write`
//! per request when the client waits for each reply, one per batch when
//! it pipelines.
//!
//! (This is an integration test so the custom `#[global_allocator]`
//! stays confined to one binary.)

mod common;
mod counting_alloc;

use asrank_core::ConeSize;
use asrank_serve::server::FLUSH_AT;
use asrank_serve::{
    format_answer, parse_request, serve_lines, write_answer, Answer, ConeFlavor, Query, Request,
    ServeSnapshot, ServeState,
};
use asrank_types::{Asn, Orientation};
use common::{sample_paths, scratch, warm_cache};
use counting_alloc::allocations;
use std::cell::Cell;
use std::io::{BufRead, Write};
use std::sync::Arc;

fn query_round(serve: &ServeSnapshot, probes: &[Asn], sink: &mut u64) {
    for &x in probes {
        for &y in probes {
            if serve.rel(x, y).is_some() {
                *sink += 1;
            }
            if serve.cone_contains(ConeFlavor::Recursive, x, y) {
                *sink += 1;
            }
            if serve.cone_contains(ConeFlavor::BgpObserved, x, y) {
                *sink += 1;
            }
            if serve.cone_contains(ConeFlavor::ProviderPeer, x, y) {
                *sink += 1;
            }
        }
        let size = serve.cone_size(ConeFlavor::Recursive, x);
        *sink += size.ases as u64;
        let (t, n) = serve.degree(x);
        *sink += t + n;
        *sink += serve.rank(x).unwrap_or(0);
    }
}

#[test]
fn warm_queries_allocate_nothing() {
    let root = scratch("zeroalloc");
    let ps = sample_paths();
    let spec = warm_cache(&root, b"zero-alloc-rib-v1", &ps);
    let serve = ServeSnapshot::load(&spec, 1).expect("load snapshot");

    let mut probes: Vec<Asn> = ps.iter().flat_map(|s| s.path.iter()).collect();
    probes.sort_unstable();
    probes.dedup();
    probes.push(Asn(123_456));

    // Batch buffers are reused; reserve happens during warmup.
    let queries: Vec<Query> = probes
        .iter()
        .map(|&x| Query::ConeSize(ConeFlavor::ProviderPeer, x))
        .collect();
    let mut batch: Vec<Answer> = Vec::new();

    // Warmup: fault in mapped pages, size the batch buffer.
    let mut sink = 0u64;
    query_round(&serve, &probes, &mut sink);
    serve.answer_batch(&queries, &mut batch);

    let before = allocations();
    for _ in 0..16 {
        query_round(&serve, &probes, &mut sink);
        serve.answer_batch(&queries, &mut batch);
    }
    let after = allocations();

    assert!(sink != 0, "queries actually answered");
    assert_eq!(
        after - before,
        0,
        "warm read path must not allocate (got {} allocations)",
        after - before
    );
}

/// One request line per protocol case, each answered with exactly one
/// reply line: every verb, hits and misses, a `None` rank, malformed
/// lines and a line that is not UTF-8.
const REQUESTS: &[&[u8]] = &[
    b"rel 1 2\n",
    b"rel 2 1\n",
    b"rel 1 123456\n",
    b"cone recursive 1 10\n",
    b"cone bgp 1 10\n",
    b"cone pp 1 10\n",
    b"cone rec 10 1\n",
    b"cone-size recursive 1\n",
    b"cone-size observed 123456\n",
    b"cone-size provider-peer 2\n",
    b"degree 1\n",
    b"degree 123456\n",
    b"rank 1\n",
    b"rank 123456\n",
    b"gen\n",
    b"  rank   2  \r\n",
    b"bogus 1 2\n",
    b"rel 1\n",
    b"cone nope 1 2\n",
    b"\xff\xfe rel 1 2\n",
];

/// The reply the old per-request path gave each line: `parse_request`,
/// then `format_answer` or `err {e}`, plus the newline.
fn reference_reply(snapshot: &ServeSnapshot, line: &[u8]) -> String {
    let Ok(text) = std::str::from_utf8(line) else {
        return "err serve: request is not UTF-8\n".into();
    };
    match parse_request(text.trim()) {
        Ok(Request::Query(q)) => format!("{}\n", format_answer(&snapshot.answer(q))),
        Ok(Request::Gen) => format!("{}\n", snapshot.generation()),
        Ok(Request::Quit) => String::new(),
        Err(e) => format!("err {e}\n"),
    }
}

/// A client that waits for each reply before sending its next line:
/// `fill_buf` hands out one request at a time and asserts that every
/// earlier request has been answered by a `write`.
struct ClosedLoop<'a> {
    lines: &'a [&'a [u8]],
    next: usize,
    offset: usize,
    writes: &'a Cell<usize>,
}

impl std::io::Read for ClosedLoop<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(buf.len());
            buf[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ClosedLoop<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let Some(line) = self.lines.get(self.next) else {
            return Ok(&[]);
        };
        if self.offset == 0 {
            assert_eq!(
                self.writes.get(),
                self.next,
                "request {} was read before every earlier reply was written",
                self.next
            );
        }
        Ok(&line[self.offset..])
    }

    fn consume(&mut self, amt: usize) {
        self.offset += amt;
        if self.offset == self.lines[self.next].len() {
            self.next += 1;
            self.offset = 0;
        }
    }
}

/// A sink that records, for every `write` call, the bytes and the
/// allocation count at that moment — into buffers sized up front, so the
/// sink itself never allocates.
struct Recorder<'a> {
    writes: &'a Cell<usize>,
    bytes: Vec<u8>,
    allocs_at_write: Vec<u64>,
    sizes: Vec<usize>,
}

impl<'a> Recorder<'a> {
    fn new(writes: &'a Cell<usize>, max_writes: usize, max_bytes: usize) -> Self {
        Recorder {
            writes,
            bytes: Vec::with_capacity(max_bytes),
            allocs_at_write: Vec::with_capacity(max_writes),
            sizes: Vec::with_capacity(max_writes),
        }
    }
}

impl Write for Recorder<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        assert!(
            self.sizes.len() < self.sizes.capacity()
                && self.bytes.len() + buf.len() <= self.bytes.capacity(),
            "recorder sized too small"
        );
        self.allocs_at_write.push(allocations());
        self.sizes.push(buf.len());
        self.bytes.extend_from_slice(buf);
        self.writes.set(self.writes.get() + 1);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn served_state(tag: &str) -> Arc<ServeState> {
    let spec = warm_cache(&scratch(tag), b"zero-alloc-wire-rib", &sample_paths());
    Arc::new(ServeState::new(
        ServeSnapshot::load(&spec, 1).expect("load snapshot"),
    ))
}

#[test]
fn connection_loop_writes_once_per_request_and_allocates_nothing_when_warm() {
    let state = served_state("wire_closed");
    let rounds = 50;
    let lines: Vec<&[u8]> = (0..rounds).flat_map(|_| REQUESTS.iter().copied()).collect();
    let expected: String = lines
        .iter()
        .map(|l| reference_reply(&state.current(), l))
        .collect();

    let writes = Cell::new(0);
    let mut sink = Recorder::new(&writes, lines.len() + 1, expected.len());
    let reader = ClosedLoop {
        lines: &lines,
        next: 0,
        offset: 0,
        writes: &writes,
    };
    serve_lines(reader, &mut sink, &state).expect("in-memory loop cannot fail");

    assert_eq!(sink.sizes.len(), lines.len(), "one write per request");
    assert_eq!(String::from_utf8_lossy(&sink.bytes), expected);
    // The first round sizes the reply buffer; every later request,
    // whatever its verb or error, must not touch the allocator.
    let warm = REQUESTS.len();
    let allocs = &sink.allocs_at_write;
    assert_eq!(
        allocs[lines.len() - 1] - allocs[warm],
        0,
        "warm connection loop allocated"
    );
}

#[test]
fn pipelined_batch_goes_out_in_one_write() {
    let state = served_state("wire_batch");
    let batch: Vec<u8> = (0..20)
        .flat_map(|_| REQUESTS.iter().flat_map(|l| l.iter().copied()))
        .chain(b"\n   \nquit\nrank 1\n".iter().copied())
        .collect();
    let expected: String = (0..20)
        .flat_map(|_| REQUESTS.iter())
        .map(|l| reference_reply(&state.current(), l))
        .collect();
    assert!(expected.len() < FLUSH_AT);

    let writes = Cell::new(0);
    let mut sink = Recorder::new(&writes, 4, expected.len());
    serve_lines(&batch[..], &mut sink, &state).expect("in-memory loop cannot fail");
    // Blank lines get no reply, `quit` ends the connection, and the line
    // after it is never read.
    assert_eq!(sink.sizes, vec![expected.len()], "one write for the batch");
    assert_eq!(String::from_utf8_lossy(&sink.bytes), expected);
}

#[test]
fn large_pipelined_batch_flushes_every_64k_without_allocating() {
    let state = served_state("wire_flush");
    let rounds = 2_000;
    let batch: Vec<u8> = (0..rounds)
        .flat_map(|_| REQUESTS.iter().flat_map(|l| l.iter().copied()))
        .collect();
    let expected: String = (0..rounds)
        .flat_map(|_| REQUESTS.iter())
        .map(|l| reference_reply(&state.current(), l))
        .collect();
    assert!(
        expected.len() > 4 * FLUSH_AT,
        "batch must span several flushes"
    );

    let writes = Cell::new(0);
    let mut sink = Recorder::new(&writes, 64, expected.len());
    serve_lines(&batch[..], &mut sink, &state).expect("in-memory loop cannot fail");

    assert_eq!(String::from_utf8_lossy(&sink.bytes), expected);
    let (last, full) = sink.sizes.split_last().expect("at least one write");
    assert!(!full.is_empty());
    for &size in full {
        assert!(
            (FLUSH_AT..FLUSH_AT + 256).contains(&size),
            "a mid-batch write sends one flush's worth, got {size} bytes"
        );
    }
    assert!(*last < FLUSH_AT + 256);
    let allocs = &sink.allocs_at_write;
    assert_eq!(
        allocs[allocs.len() - 1] - allocs[0],
        0,
        "reply buffer must stop growing once it holds a flush"
    );
}

#[test]
fn write_answer_is_format_answer_plus_newline() {
    let mut answers = vec![
        Answer::Rel(None),
        Answer::ConeContains(true),
        Answer::ConeContains(false),
        Answer::Rank(None),
        Answer::Rank(Some(0)),
        Answer::Rank(Some(1)),
        Answer::Rank(Some(u64::MAX)),
        Answer::Degree(0, 0),
        Answer::Degree(7, 1_000_000),
        Answer::Degree(u64::MAX, u64::MAX),
        Answer::ConeSize(ConeSize {
            ases: 1,
            prefixes: 0,
            addresses: 0,
        }),
        Answer::ConeSize(ConeSize {
            ases: usize::MAX,
            prefixes: usize::MAX,
            addresses: u64::MAX,
        }),
    ];
    answers.extend(
        [
            Orientation::Provider,
            Orientation::Customer,
            Orientation::Peer,
            Orientation::Sibling,
        ]
        .map(|o| Answer::Rel(Some(o))),
    );
    let mut out = Vec::new();
    for a in &answers {
        out.clear();
        write_answer(a, &mut out);
        assert_eq!(out, format!("{}\n", format_answer(a)).into_bytes(), "{a:?}");
    }
    assert_eq!(
        format_answer(&Answer::Degree(u64::MAX, 0)),
        "transit=18446744073709551615 node=0"
    );
}
