//! The line protocol shared by `asrank serve` (TCP) and `asrank query`
//! (one-shot / client mode).
//!
//! One request per line, one answer line per request:
//!
//! ```text
//! rel <x> <y>              -> provider|customer|peer|sibling|none
//! cone <flavor> <x> <y>    -> true|false
//! cone-size <flavor> <x>   -> ases=A prefixes=P addresses=B
//! degree <x>               -> transit=T node=N
//! rank <x>                 -> <n>|none
//! gen                      -> <generation>
//! quit                     -> (closes the connection)
//! ```
//!
//! `<flavor>` is `recursive` (alias `rec`), `bgp` (alias `bgp-observed`,
//! `observed`), or `pp` (alias `provider-peer`). `rel` answers from
//! `x`'s point of view: `provider` means *y is x's provider*. Errors
//! answer `err <detail>` and keep the connection open, except a line
//! longer than [`MAX_LINE`](crate::server::MAX_LINE), which is refused
//! and closes it.

use crate::snapshot::{Answer, Query};
use crate::source::{ConeFlavor, ServeError};
use asrank_types::{Asn, Orientation};

/// One parsed protocol line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A snapshot query.
    Query(Query),
    /// Report the published snapshot generation.
    Gen,
    /// Close the connection.
    Quit,
}

fn asn(tok: Option<&str>) -> Option<Asn> {
    tok.and_then(|t| t.parse::<u32>().ok()).map(Asn)
}

/// Parse one protocol line without allocating; `None` for any line
/// [`parse_request`] rejects. The connection loop uses this so a
/// malformed line costs no more than a good one.
pub(crate) fn parse_line(line: &str) -> Option<Request> {
    let mut toks = line.split_whitespace();
    let req = match toks.next()? {
        "rel" => Request::Query(Query::Rel(asn(toks.next())?, asn(toks.next())?)),
        "cone" => Request::Query(Query::ConeContains(
            toks.next().and_then(ConeFlavor::parse)?,
            asn(toks.next())?,
            asn(toks.next())?,
        )),
        "cone-size" => Request::Query(Query::ConeSize(
            toks.next().and_then(ConeFlavor::parse)?,
            asn(toks.next())?,
        )),
        "degree" => Request::Query(Query::Degree(asn(toks.next())?)),
        "rank" => Request::Query(Query::Rank(asn(toks.next())?)),
        "gen" => Request::Gen,
        "quit" => Request::Quit,
        _ => return None,
    };
    toks.next().is_none().then_some(req)
}

/// Parse one protocol line. Unknown verbs, bad ASNs, bad flavors, and
/// trailing junk are all [`ServeError::BadQuery`].
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    parse_line(line).ok_or_else(|| ServeError::BadQuery(line.into()))
}

/// Append the decimal digits of `v` (no allocation beyond `out`'s growth).
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Append one answer's protocol line, newline included, to `out`. Once
/// `out` has grown to its working size this allocates nothing, which is
/// what lets the connection loop reuse one reply buffer.
pub fn write_answer(a: &Answer, out: &mut Vec<u8>) {
    match a {
        Answer::Rel(o) => out.extend_from_slice(match o {
            Some(Orientation::Provider) => b"provider",
            Some(Orientation::Customer) => b"customer",
            Some(Orientation::Peer) => b"peer",
            Some(Orientation::Sibling) => b"sibling",
            None => b"none",
        }),
        Answer::ConeContains(true) => out.extend_from_slice(b"true"),
        Answer::ConeContains(false) => out.extend_from_slice(b"false"),
        Answer::ConeSize(s) => {
            out.extend_from_slice(b"ases=");
            push_u64(out, s.ases as u64);
            out.extend_from_slice(b" prefixes=");
            push_u64(out, s.prefixes as u64);
            out.extend_from_slice(b" addresses=");
            push_u64(out, s.addresses);
        }
        Answer::Degree(t, n) => {
            out.extend_from_slice(b"transit=");
            push_u64(out, *t);
            out.extend_from_slice(b" node=");
            push_u64(out, *n);
        }
        Answer::Rank(Some(r)) => push_u64(out, *r),
        Answer::Rank(None) => out.extend_from_slice(b"none"),
    }
    out.push(b'\n');
}

/// Render one answer as its protocol line (no trailing newline): the
/// [`write_answer`] bytes as an owned `String`.
pub fn format_answer(a: &Answer) -> String {
    let mut out = Vec::new();
    write_answer(a, &mut out);
    out.pop();
    String::from_utf8(out).expect("write_answer emits only ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(
            parse_request("rel 10 20").unwrap(),
            Request::Query(Query::Rel(Asn(10), Asn(20)))
        );
        assert_eq!(
            parse_request("cone pp 1 2").unwrap(),
            Request::Query(Query::ConeContains(ConeFlavor::ProviderPeer, Asn(1), Asn(2)))
        );
        assert_eq!(
            parse_request("cone-size recursive 7").unwrap(),
            Request::Query(Query::ConeSize(ConeFlavor::Recursive, Asn(7)))
        );
        assert_eq!(
            parse_request("degree 7").unwrap(),
            Request::Query(Query::Degree(Asn(7)))
        );
        assert_eq!(
            parse_request("rank 7").unwrap(),
            Request::Query(Query::Rank(Asn(7)))
        );
        assert_eq!(parse_request("gen").unwrap(), Request::Gen);
        assert_eq!(parse_request("quit").unwrap(), Request::Quit);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "bogus",
            "rel 1",
            "rel 1 2 3",
            "rel x y",
            "cone nope 1 2",
            "cone-size recursive",
            "rank",
            "gen extra",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn formats_answers() {
        assert_eq!(
            format_answer(&Answer::Rel(Some(Orientation::Provider))),
            "provider"
        );
        assert_eq!(format_answer(&Answer::Rel(None)), "none");
        assert_eq!(format_answer(&Answer::ConeContains(true)), "true");
        assert_eq!(
            format_answer(&Answer::ConeSize(asrank_core::ConeSize {
                ases: 3,
                prefixes: 2,
                addresses: 512,
            })),
            "ases=3 prefixes=2 addresses=512"
        );
        assert_eq!(format_answer(&Answer::Degree(4, 9)), "transit=4 node=9");
        assert_eq!(format_answer(&Answer::Rank(Some(1))), "1");
        assert_eq!(format_answer(&Answer::Rank(None)), "none");
        assert_eq!(
            format_answer(&Answer::Rel(Some(Orientation::Customer))),
            "customer"
        );
        assert_eq!(format_answer(&Answer::Rel(Some(Orientation::Peer))), "peer");
        assert_eq!(
            format_answer(&Answer::Rel(Some(Orientation::Sibling))),
            "sibling"
        );
        assert_eq!(format_answer(&Answer::ConeContains(false)), "false");
        for v in [0, 9, 10, 99, 100, 4_200_000_000, u64::MAX] {
            assert_eq!(format_answer(&Answer::Rank(Some(v))), v.to_string());
        }
    }
}
