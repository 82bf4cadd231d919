//! # as-topology-gen
//!
//! Synthetic Internet AS-level topology generator with ground-truth
//! relationships — the data substrate for the `asrank` reproduction.
//!
//! The original paper consumed BGP RIB dumps of the real Internet and
//! validated against partial external corpora. This crate replaces the
//! real Internet with a *generated* one whose business relationships are
//! known exactly, while preserving the structural properties the ASRank
//! algorithm exploits and the paper reports:
//!
//! * a small, fully-meshed **Tier-1 clique** at the top of the hierarchy;
//! * a multi-level **transit hierarchy** (large / mid / small transit)
//!   with power-law-ish customer degree via preferential attachment;
//! * an overwhelming majority (~85 %) of **stub** ASes at the edge;
//! * **content networks** that buy little transit but peer densely
//!   (the "flattening" actors of the paper's longitudinal analysis);
//! * regional structure biasing both provider choice and peering, plus
//!   **IXPs** whose route-server ASNs can leak into observed paths;
//! * per-AS originated **prefixes** with class-dependent counts.
//!
//! [`TopologyConfig`] describes a topology; [`generator::generate`]
//! materializes a [`asrank_types::GroundTruth`] from a config and a seed;
//! [`evolution`] grows a topology through a sequence of snapshots for
//! longitudinal experiments.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod evolution;
pub mod generator;
pub mod io;
pub mod realism;
pub mod stats;

pub use config::{ClassMix, IxpConfig, TopologyConfig};
pub use evolution::{evolve, EvolutionConfig};
pub mod sampling;
pub mod scale;
pub use generator::{generate, GeneratedTopology};
pub use scale::{Scale, ScaleParseError};
pub use io::{load_bundle, save_bundle, BundleError};
pub use realism::{check_realism, RealismReport};
pub use stats::TopologyStats;
