//! # asrank-core
//!
//! The primary contribution of *"AS Relationships, Customer Cones, and
//! Validation"* (IMC 2013): CAIDA's **ASRank** algorithm for inferring AS
//! business relationships from public BGP paths, the three **customer
//! cone** definitions, and AS ranking by cone size.
//!
//! ## Pipeline
//!
//! [`pipeline::infer`] drives the multi-step pipeline over a set of
//! observed AS paths ([`asrank_types::PathSet`]):
//!
//! | step | what | module |
//! |------|------|--------|
//! | S1  | sanitize paths (loops, reserved ASNs, prepending, IXP ASNs) | [`mod@sanitize`] |
//! | S2  | rank ASes by transit degree | [`degree`] |
//! | S3  | infer the Tier-1 clique (Bron-Kerbosch over top candidates) | [`clique`] |
//! | S4  | discard poisoned paths (non-clique AS between clique ASes) | [`pipeline`] |
//! | S5  | top-down c2p inference in rank order | [`pipeline`] |
//! | S6  | VP-side c2p inference from table-share evidence | [`pipeline`] |
//! | S7  | repair provider-smaller-than-customer anomalies | [`pipeline`] |
//! | S8  | stub-to-clique links are c2p | [`pipeline`] |
//! | S9  | providers for otherwise provider-less transit ASes | [`pipeline`] |
//! | S10 | everything else observed is p2p | [`pipeline`] |
//! | S11 | consistency audit (cycles, conflicts) | [`pipeline`] |
//!
//! ## Customer cones
//!
//! [`cone`] implements the paper's three cone definitions — recursive,
//! BGP-observed, and provider/peer-observed — each measured in ASes,
//! prefixes, and address space; [`rank`] orders ASes by cone size
//! (the "AS Rank" of the title).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod centrality;
pub mod clique;
pub mod cone;
pub mod csr;
pub mod degree;
pub mod delta;
pub mod diff;
pub mod engine;
pub mod io;
pub mod par;
pub mod patharena;
pub mod persist;
pub mod pipeline;
pub mod rank;
pub mod sanitize;
pub mod scc;
pub mod stability;
pub mod valley;
pub mod visibility;

pub use centrality::{transit_centrality, Centrality};
pub use clique::{infer_clique, CliqueConfig};
pub use cone::{ConeSize, CustomerCones};
pub use csr::{Adjacency, Csr};
pub use degree::DegreeTable;
pub use delta::{DeltaOutcome, DeltaSession};
pub use diff::{diff_relationships, ChangedLink, RelDiff};
pub use engine::{stage_disk_key, Artifact, Snapshot, StageReport, StageStats};
pub use io::{read_as_rel, write_as_rel, AsRelError};
pub use patharena::PathArena;
pub use persist::{
    decode_artifact, encode_artifact, pathset_fingerprint, process_cache_dir,
    set_process_cache_dir, CacheDir,
};
pub use persist::view::{
    pathset_fingerprint_from_frame, ConeLayout, ConeView, InferenceLayout, InferenceView,
};
pub use pipeline::{infer, infer_monolithic, try_infer, Inference, InferenceConfig, InferenceReport};
pub use rank::{rank_ases, RankedAs};
pub use sanitize::{sanitize, SanitizeConfig, SanitizeReport, SanitizedPaths};
pub use stability::{jackknife, LinkStability, StabilityReport};
pub use valley::{check_valley_free, grade_arena, valley_free_fraction, ValleyStats, ValleyVerdict};
pub use visibility::{LinkVisibility, VisibilityTable};
