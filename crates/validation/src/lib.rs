//! # asrank-validation
//!
//! The paper's validation methodology, inverted for a simulated world.
//!
//! The original authors assembled the largest validation corpus of its
//! time from three independent sources — relationships **directly
//! reported** by network operators, **RPSL** `import`/`export` policies
//! in routing registries, and relationships encoded in **BGP
//! communities** — and measured the PPV of their inferences against it
//! (≈ 99.6 % c2p, ≈ 98.7 % p2p).
//!
//! In the reproduction the ground truth is known exactly, which lets us
//! do both of the things the paper could not and could:
//!
//! * [`sources`] *emulates the corpus-generating process* of each
//!   validation source — per-source coverage, population bias, and error
//!   (staleness, misconfiguration) — so the paper's PPV-vs-corpus
//!   analysis runs unchanged; and
//! * [`metrics`] also scores inferences against the *full* ground truth,
//!   quantifying the corpus bias the paper could only discuss.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod significance;
pub mod sources;

pub use metrics::{
    evaluate_against_corpus, evaluate_against_truth, ppv_by_class, GroundTruthReport, SourcePpv,
};
pub use significance::{paired_comparison, sign_test, PairedComparison};
pub use sources::{build_corpus, Assertion, ValidationCorpus, ValidationSource};
