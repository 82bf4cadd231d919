//! # asrank-types
//!
//! Shared vocabulary for the `asrank` workspace — the Rust reproduction of
//! *"AS Relationships, Customer Cones, and Validation"* (Luckie, Huffaker,
//! Dhamdhere, Giotsas, claffy — ACM IMC 2013).
//!
//! This crate defines the domain model every other crate speaks:
//!
//! * [`Asn`] — an autonomous system number with the IANA special-range
//!   classification the paper's sanitization step depends on;
//! * [`Ipv4Prefix`] — the routed prefixes that BGP paths are observed for;
//! * [`AsPath`] / [`PathSample`] / [`PathSet`] — observed BGP AS paths, the
//!   sole input of the inference algorithm;
//! * [`AsLink`] / [`LinkRel`] / [`RelationshipMap`] — inferred (or
//!   ground-truth) business relationships between ASes;
//! * [`GroundTruth`] — a complete annotated AS-level topology, produced by
//!   the `as-topology-gen` substrate and used by the validation framework.
//!
//! Everything is plain data: hash-friendly and free of interior
//! mutability, so datasets can be snapshotted to disk (the hand-rolled
//! [`codec`] frames) and experiment artifacts reproduced bit-for-bit.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod asn;
pub mod bitset;
pub mod codec;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod parallel;
pub mod path;
pub mod prefix;
pub mod prefix6;
pub mod relationship;
pub mod update;

pub use asn::{dense_id, Asn, AsnClass, AsnInterner};
pub use bitset::BitSet;
pub use codec::{
    checksum64, CodecError, Decoder, Encoder, U32View, CODEC_MAGIC, CODEC_VERSION,
};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use parallel::Parallelism;
pub use error::{EngineError, TypesError};
pub use graph::{AsClass, GroundTruth};
pub use path::{AsPath, PathSample, PathSet};
pub use prefix::Ipv4Prefix;
pub use prefix6::Ipv6Prefix;
pub use relationship::{AsLink, LinkRel, Orientation, RelationshipKind, RelationshipMap};
pub use update::{PathDelta, UpdateBatch, UpdateMessage};

/// Convenience prelude re-exporting the types used by virtually every
/// downstream module.
pub mod prelude {
    pub use crate::asn::{dense_id, Asn, AsnClass, AsnInterner};
    pub use crate::bitset::BitSet;
    pub use crate::graph::{AsClass, GroundTruth};
    pub use crate::parallel::Parallelism;
    pub use crate::path::{AsPath, PathSample, PathSet};
    pub use crate::prefix::Ipv4Prefix;
    pub use crate::relationship::{
        AsLink, LinkRel, Orientation, RelationshipKind, RelationshipMap,
    };
}
