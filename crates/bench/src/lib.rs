//! # asrank-bench
//!
//! The experiment harness: every table and figure analog of the paper's
//! evaluation is regenerated by a module in [`experiments`], keyed
//! `e1`–`e15` (see `DESIGN.md` for the experiment index). The `report`
//! binary prints any of them:
//!
//! ```text
//! cargo run --release -p asrank-bench --bin report -- e3 --scale small --seed 42
//! cargo run --release -p asrank-bench --bin report -- all
//! ```
//!
//! Performance is measured end to end by the separate `benchmark/`
//! package at the repository root, not here.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod table;

pub use harness::{Scenario, Workbench};
pub use table::Table;

/// Sanitize a workbench's observed paths with its IXP route-server list
/// — shared by the cone experiments, which need the cleaned path set the
/// pipeline itself ran on.
pub fn sanitized(wb: &Workbench) -> asrank_core::SanitizedPaths {
    let ixps: Vec<asrank_types::Asn> = wb.topo.ixps.iter().map(|i| i.route_server).collect();
    asrank_core::sanitize(&wb.sim.paths, &asrank_core::SanitizeConfig::with_ixps(ixps))
}
