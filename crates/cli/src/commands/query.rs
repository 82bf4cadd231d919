//! `asrank query` — one-shot queries over a warm cache, or client mode
//! against a running `asrank serve`.
//!
//! ```text
//! asrank query --rib rib.mrt --cache-dir cache rel 10 1
//! asrank query --rib rib.mrt --cache-dir cache < queries.txt
//! asrank query --connect 127.0.0.1:4646 rank 7
//! ```
//!
//! Local mode maps the cached frames directly (same zero-copy path as
//! the daemon) — startup is one checksum pass over the RIB plus frame
//! validation; every query after that is allocation-free. With no query
//! on the command line, queries are read from stdin, one per line, and
//! answered one line each — the batch mode `make serve-smoke` drives.

use crate::args::Flags;
use crate::snapshot::load_serve_spec;
use asrank_serve::{format_answer, parse_request, Request, ServeSnapshot};
use std::io::{BufRead, BufReader, Write};

/// Split `--flag value` pairs (the leading portion) from the positional
/// query words (the trailing portion).
fn split_args(args: &[String]) -> (Vec<String>, Vec<String>) {
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if !args[i].starts_with("--") {
            break;
        }
        flags.push(args[i].clone());
        if args[i] != "--no-cache" {
            if let Some(v) = args.get(i + 1) {
                flags.push(v.clone());
                i += 1;
            }
        }
        i += 1;
    }
    (flags, args[i..].to_vec())
}

fn answer_local(snapshot: &ServeSnapshot, line: &str) -> String {
    match parse_request(line) {
        Ok(Request::Query(q)) => format_answer(&snapshot.answer(q)),
        Ok(Request::Gen) => snapshot.generation().to_string(),
        Ok(Request::Quit) => String::new(),
        Err(e) => format!("err {e}"),
    }
}

fn run_local(flags: &Flags, query: &[String]) -> i32 {
    let spec = match load_serve_spec(flags) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let snapshot = match ServeSnapshot::load(&spec, 1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if query.is_empty() {
        // Batch mode: one query per stdin line, one answer per line.
        let stdin = std::io::stdin();
        let mut failed = false;
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let text = line.trim();
            if text.is_empty() {
                continue;
            }
            let answer = answer_local(&snapshot, text);
            failed |= answer.starts_with("err ");
            println!("{answer}");
        }
        i32::from(failed)
    } else {
        let answer = answer_local(&snapshot, &query.join(" "));
        println!("{answer}");
        i32::from(answer.starts_with("err "))
    }
}

fn run_connect(addr: &str, query: &[String]) -> i32 {
    let stream = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    };
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("connect {addr}: {e}");
            return 1;
        }
    });
    if let Err(e) = stream.set_nodelay(true) {
        eprintln!("connect {addr}: {e}");
        return 1;
    }
    let mut writer = stream;
    let mut request = String::new();
    // One write per request: a line and its newline sent separately
    // would leave the newline waiting on the server's delayed ACK.
    let mut ask = |line: &str| -> Option<String> {
        request.clear();
        request.push_str(line);
        request.push('\n');
        writer.write_all(request.as_bytes()).ok()?;
        let mut out = String::new();
        reader.read_line(&mut out).ok()?;
        Some(out.trim().to_string())
    };

    let mut failed = false;
    if query.is_empty() {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let text = line.trim().to_string();
            if text.is_empty() {
                continue;
            }
            match ask(&text) {
                Some(answer) => {
                    failed |= answer.starts_with("err ");
                    println!("{answer}");
                }
                None => {
                    eprintln!("connection to {addr} lost");
                    return 1;
                }
            }
        }
    } else {
        match ask(&query.join(" ")) {
            Some(answer) => {
                failed |= answer.starts_with("err ");
                println!("{answer}");
            }
            None => {
                eprintln!("connection to {addr} lost");
                return 1;
            }
        }
    }
    i32::from(failed)
}

pub fn run(args: &[String]) -> i32 {
    let (flag_args, query) = split_args(args);
    let Some(flags) = Flags::parse_with_switches(&flag_args, crate::args::CACHE_SWITCHES) else {
        return 2;
    };
    match flags.get("connect") {
        Some(addr) => {
            let addr = addr.to_string();
            run_connect(&addr, &query)
        }
        None => run_local(&flags, &query),
    }
}
