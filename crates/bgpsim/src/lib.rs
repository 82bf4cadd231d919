//! # bgp-sim
//!
//! A Gao-Rexford policy-routing simulator over ground-truth AS topologies.
//!
//! The ASRank paper infers relationships from AS paths collected by
//! RouteViews and RIPE RIS. This crate stands in for the real BGP
//! ecosystem: given a [`asrank_types::GroundTruth`] topology it computes,
//! for every destination, the routes that the standard economic policy
//! model would select and export:
//!
//! * **Preference** — customer-learned routes over peer-learned routes
//!   over provider-learned routes; then shortest AS path; then lowest
//!   next-hop ASN (deterministic tie-break).
//! * **Export** — customer routes are announced to everyone; peer- and
//!   provider-learned routes only to customers. Sibling links exchange
//!   everything.
//!
//! The classic three-stage BFS computes this exactly when the c2p graph is
//! acyclic (which the generator guarantees): routes first climb customer→
//! provider edges, then cross a single peering edge, then descend
//! provider→customer edges.
//!
//! On top of the clean model the simulator layers the *measurement
//! artifacts* the paper's sanitization and robustness machinery exist to
//! handle: AS-path prepending, route leaks, path poisoning, IXP
//! route-server ASN insertion, and partial-feed vantage points.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod anomaly;
pub mod collector;
pub mod events;
pub mod graph;
pub mod hash;
pub mod propagate;
pub mod sim;

pub use analysis::{analyze, ClassVisibility, CollectionAnalysis, PathLengthStats};
pub use anomaly::AnomalyConfig;
pub use collector::{VantagePoint, VpSelection};
pub use events::{apply_event, diff_collections, simulate_event, RoutingEvent};
pub use graph::PolicyGraph;
pub use propagate::{
    compute_route_tree, compute_route_tree_with, PrefClass, PropagationWorkspace, RouteTree,
};
pub use sim::{simulate, SimConfig, SimOutput};
