//! BGP4MP update-message edge cases: 4-byte ASNs vs `AS_TRANS`,
//! withdraw-only messages, and hostile/truncated frames surfacing typed
//! errors instead of panics.

use asrank_types::update::{PathDelta, UpdateMessage};
use asrank_types::{AsPath, Asn, Ipv4Prefix, Parallelism};
use mrt_codec::batch::read_update_batch;
use mrt_codec::{read_update_stream, write_update_stream, MrtError};

fn pfx(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn capture(updates: &[UpdateMessage]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_update_stream(updates, &mut buf, 1_600_000_000).unwrap();
    buf
}

/// `BGP4MP_MESSAGE_AS4` carries native 4-byte ASNs: a 32-bit ASN in the
/// peer field or anywhere in the path must survive the roundtrip exactly,
/// never squashed to `AS_TRANS` the way the legacy 2-byte encodings
/// substitute it.
#[test]
fn four_byte_asns_roundtrip_without_as_trans_substitution() {
    let updates = vec![UpdateMessage {
        vp: Asn(4_200_000_001),
        withdrawn: vec![],
        announced: vec![(
            pfx("10.0.0.0/8"),
            AsPath::from_u32s([4_200_000_001, 65_536, 7018]),
        )],
    }];
    let bytes = capture(&updates);
    assert_eq!(read_update_stream(&bytes[..]).unwrap(), updates);
    let batch = read_update_batch(&bytes, Parallelism::sequential()).unwrap();
    let deltas: Vec<_> = batch.iter().cloned().collect();
    assert_eq!(
        deltas,
        vec![(
            Asn(4_200_000_001),
            pfx("10.0.0.0/8"),
            PathDelta::Announce(AsPath::from_u32s([4_200_000_001, 65_536, 7018])),
        )]
    );
}

/// A literal `AS_TRANS` (23456) in an AS4 update is an ordinary ASN —
/// decoders must not "helpfully" remap or drop it. (It shows up in real
/// tables wherever a 2-byte speaker re-exported a 4-byte path.)
#[test]
fn literal_as_trans_is_preserved_as_an_ordinary_asn() {
    let updates = vec![UpdateMessage {
        vp: Asn(100),
        withdrawn: vec![],
        announced: vec![(pfx("11.0.0.0/8"), AsPath::from_u32s([100, 23_456, 3]))],
    }];
    let bytes = capture(&updates);
    assert_eq!(read_update_stream(&bytes[..]).unwrap(), updates);
    let batch = read_update_batch(&bytes, Parallelism::sequential()).unwrap();
    assert_eq!(
        batch.iter().next().unwrap().2,
        PathDelta::Announce(AsPath::from_u32s([100, 23_456, 3]))
    );
}

/// Withdraw-only messages carry no path attributes at all; they must
/// decode and fold to pure `Withdraw` deltas.
#[test]
fn withdraw_only_messages_fold_to_withdraw_deltas() {
    let updates = vec![UpdateMessage {
        vp: Asn(4_200_000_002),
        withdrawn: vec![pfx("10.0.0.0/8"), pfx("11.0.0.0/8")],
        announced: vec![],
    }];
    let bytes = capture(&updates);
    assert_eq!(read_update_stream(&bytes[..]).unwrap(), updates);
    let batch = read_update_batch(&bytes, Parallelism::sequential()).unwrap();
    let deltas: Vec<_> = batch.iter().cloned().collect();
    assert_eq!(
        deltas,
        vec![
            (Asn(4_200_000_002), pfx("10.0.0.0/8"), PathDelta::Withdraw),
            (Asn(4_200_000_002), pfx("11.0.0.0/8"), PathDelta::Withdraw),
        ]
    );
}

fn sample_capture() -> Vec<u8> {
    capture(&[UpdateMessage {
        vp: Asn(100),
        withdrawn: vec![pfx("10.0.0.0/8")],
        announced: vec![(pfx("11.0.0.0/8"), AsPath::from_u32s([100, 2, 3]))],
    }])
}

/// Every possible truncation of a valid capture is a typed error — the
/// readers never panic and never silently return partial data.
#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = sample_capture();
    // A cut exactly on a record boundary is a legitimately shorter
    // capture; every other cut must fail with a typed error.
    let mut boundaries = vec![0usize];
    {
        let mut reader = mrt_codec::MrtReader::new(&bytes[..]);
        let mut consumed = 0usize;
        while reader.next_record().unwrap().is_some() {
            // Re-derive each record's extent from its declared length.
            let len = u32::from_be_bytes([
                bytes[consumed + 8],
                bytes[consumed + 9],
                bytes[consumed + 10],
                bytes[consumed + 11],
            ]) as usize;
            consumed += 12 + len;
            boundaries.push(consumed);
        }
    }
    for cut in 0..bytes.len() {
        if boundaries.contains(&cut) {
            assert!(read_update_batch(&bytes[..cut], Parallelism::sequential()).is_ok());
            continue;
        }
        let err = read_update_batch(&bytes[..cut], Parallelism::sequential())
            .expect_err(&format!("cut at {cut} must not decode"));
        assert!(
            matches!(err, MrtError::Truncated { .. } | MrtError::BadLength { .. }),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

/// Corruption *inside* a well-framed record — a BGP message length that
/// overruns the MRT frame — is caught by the body decoder as a typed
/// error.
#[test]
fn oversized_inner_bgp_length_is_a_typed_error() {
    let mut bytes = sample_capture();
    // Layout: 12-byte MRT header, 20-byte BGP4MP preamble, 16-byte
    // marker, then the u16 BGP message length at offset 48.
    bytes[48] = 0xff;
    bytes[49] = 0xff;
    assert!(read_update_batch(&bytes, Parallelism::sequential()).is_err());
}

/// A non-UPDATE BGP message type inside a BGP4MP record is rejected with
/// a typed error, not skipped or panicked on.
#[test]
fn non_update_message_type_is_a_typed_error() {
    let mut bytes = sample_capture();
    // BGP message type octet sits right after the u16 length at 48.
    bytes[50] = 1; // OPEN
    assert!(matches!(
        read_update_batch(&bytes, Parallelism::sequential()),
        Err(MrtError::BadValue { .. })
    ));
}

/// A corrupted BGP marker is rejected with the dedicated typed error.
#[test]
fn bad_marker_is_a_typed_error() {
    let mut bytes = sample_capture();
    bytes[32] = 0x00; // first marker byte
    assert!(matches!(
        read_update_batch(&bytes, Parallelism::sequential()),
        Err(MrtError::BadMarker)
    ));
}
