//! # asrank-serve
//!
//! Zero-copy query tier over the engine's persisted artifact cache.
//!
//! `asrank infer --cache-dir DIR` leaves behind checksummed frames for
//! every pipeline stage. This crate turns that cache into a query
//! service without re-running anything and without decoding anything on
//! the read path:
//!
//! * [`SourceSpec::resolve`] derives the exact frame paths from the RIB
//!   checksum + [`asrank_core::engine::StageKeys`], the keys of
//!   [`asrank_core::engine::stage_disk_key`]; the RIB checksum and the
//!   ingest frame's fingerprint are memoized by file identity, so a
//!   reload over an unchanged RIB and ingest frame reads neither;
//! * [`ServeSnapshot::load`] memory-maps the INFERENCE and three CONE
//!   frames ([`mmap::MappedBytes`]), validates each **once**, and keeps
//!   only `Copy` section layouts + two small ASN-sorted indexes;
//! * queries (relationship, cone membership, cone size, degree, rank)
//!   are in-place binary searches over the mapped bytes — the warm path
//!   allocates nothing (pinned by the `zero_alloc` integration test);
//! * [`ServeState`] / [`ReaderHandle`] give many threads a lock-free
//!   warm read path with atomic hot-swap to a re-warmed cache;
//! * [`Server`] wraps it all in a line-protocol TCP front
//!   ([`proto`]) with a watcher thread that detects cache changes.
//!
//! The CLI exposes this as `asrank serve` (daemon) and `asrank query`
//! (one-shot over the same cache, or client mode against a daemon).

pub mod mmap;
pub mod proto;
pub mod server;
pub mod snapshot;
pub mod source;
pub mod state;

pub use mmap::MappedBytes;
pub use proto::{format_answer, parse_request, write_answer, Request};
pub use server::{serve_lines, Server, MAX_LINE};
pub use snapshot::{Answer, Query, ServeSnapshot};
pub use source::{
    ConeFlavor, ResolvedFrames, ServeError, SourceSpec, SourceStamp, INFERENCE_STAGE,
    RIB_INGEST_STAGE,
};
pub use state::{ReaderHandle, ServeState};
