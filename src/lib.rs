//! # asrank — facade crate
//!
//! One-stop re-export of the `asrank` workspace: a Rust reproduction of
//! *"AS Relationships, Customer Cones, and Validation"* (Luckie,
//! Huffaker, Dhamdhere, Giotsas, claffy — ACM IMC 2013).
//!
//! The workspace implements the paper's full system and every substrate
//! it depends on:
//!
//! | crate | role |
//! |---|---|
//! | [`types`] | shared vocabulary: ASNs, prefixes, AS paths, relationships |
//! | [`topology`] | synthetic Internet generator with ground-truth relationships |
//! | [`bgpsim`] | Gao-Rexford policy-routing simulator + vantage points |
//! | [`mrt`] | RFC 6396 MRT codec (TABLE_DUMP_V2, BGP4MP) |
//! | [`core`] | **the paper**: ASRank pipeline, customer cones, AS rank |
//! | [`baselines`] | Gao 2001, Xia-Gao 2004, SARK 2002, degree heuristic |
//! | [`validation`] | emulated validation corpora + PPV metrics |
//!
//! ## Quickstart
//!
//! ```
//! use asrank::prelude::*;
//!
//! // 1. Generate a small Internet with known relationships.
//! let topo = asrank::topology::generate(&asrank::topology::TopologyConfig::tiny(), 42);
//!
//! // 2. Simulate BGP and collect paths at vantage points.
//! let sim = asrank::bgpsim::simulate(&topo, &asrank::bgpsim::SimConfig::defaults(42));
//!
//! // 3. Run the ASRank inference pipeline.
//! let inference = asrank::core::infer(
//!     &sim.paths,
//!     &asrank::core::InferenceConfig::default(),
//! );
//!
//! // 4. Score it against the ground truth.
//! let report = asrank::validation::evaluate_against_truth(
//!     &inference.relationships,
//!     &topo.ground_truth.relationships,
//! );
//! assert!(report.c2p_ppv() > 0.9);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// Shared vocabulary types (re-export of `asrank-types`).
pub use asrank_types as types;

/// Synthetic topology generation (re-export of `as-topology-gen`).
pub use as_topology_gen as topology;

/// BGP policy-routing simulation (re-export of `bgp-sim`).
pub use bgp_sim as bgpsim;

/// MRT wire format (re-export of `mrt-codec`).
pub use mrt_codec as mrt;

/// The ASRank algorithm, cones, and ranking (re-export of `asrank-core`).
pub use asrank_core as core;

/// Baseline inference algorithms (re-export of `asrank-baselines`).
pub use asrank_baselines as baselines;

/// Validation corpora and metrics (re-export of `asrank-validation`).
pub use asrank_validation as validation;

/// Convenience prelude spanning the whole workspace.
pub mod prelude {
    pub use asrank_core::pipeline::{infer, Inference, InferenceConfig};
    pub use asrank_core::{rank_ases, CustomerCones};
    pub use asrank_types::prelude::*;
    pub use asrank_validation::{evaluate_against_truth, GroundTruthReport};
}
