//! # mrt-codec
//!
//! A from-scratch encoder/decoder for the MRT export format (RFC 6396)
//! as used by RouteViews and RIPE RIS — the file format the ASRank paper
//! ingested. Implemented subset:
//!
//! * `TABLE_DUMP_V2` / `PEER_INDEX_TABLE` — the collector's peer table;
//! * `TABLE_DUMP_V2` / `RIB_IPV4_UNICAST` — per-prefix RIB snapshots;
//! * `BGP4MP` / `BGP4MP_MESSAGE_AS4` — full BGP UPDATE messages with
//!   4-byte ASNs (RFC 6793);
//! * BGP path attributes: `ORIGIN`, `AS_PATH` (sequences and sets),
//!   `NEXT_HOP`, `MULTI_EXIT_DISC`; unknown attributes are preserved
//!   byte-for-byte.
//!
//! Design follows the smoltcp school of wire-format handling: decoding is
//! a total function over untrusted bytes — every overrun, bad length, or
//! malformed field returns [`MrtError`], never a panic (enforced by
//! property tests that mutate valid records). Encoding round-trips
//! losslessly.
//!
//! The high-level [`table`] module bridges the codec to the rest of the
//! workspace: it serializes a simulated [`asrank_types::PathSet`] into a
//! standards-shaped RIB dump and reads it back, so the inference pipeline
//! can be fed from `.mrt` files exactly as the original system was.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod attrs;
pub mod batch;
pub mod error;
pub mod reader;
pub mod record;
pub mod scan;
pub mod stream;
pub mod table;
pub mod wire;
pub mod writer;

pub use attrs::{AsPathSegment, PathAttribute};
pub use error::MrtError;
pub use reader::{MrtReader, DEFAULT_MAX_RECORD_LEN};
pub use scan::{read_rib_dump_parallel, scan_record_frames};
pub use record::{
    Bgp4mpMessageAs4, BgpUpdate, MrtRecord, PeerEntry, PeerIndexTable, RibEntry, RibIpv4Unicast,
    RibIpv6Unicast, TableDumpV1,
};
pub use batch::{read_update_batch, UpdateBatchIter};
pub use stream::{read_update_stream, write_update_stream};
pub use table::{read_rib_dump, write_rib_dump, write_rib_dump_v1};
pub use writer::MrtWriter;
