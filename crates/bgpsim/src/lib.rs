//! # bgp-sim
//!
//! A Gao-Rexford policy-routing simulator over ground-truth AS topologies.
//!
//! The ASRank paper infers relationships from AS paths collected by
//! RouteViews and RIPE RIS. This crate stands in for the real BGP
//! ecosystem: given a [`asrank_types::GroundTruth`] topology it computes,
//! for every destination, the routes its vantage points (VPs) would
//! select under the standard economic policy model:
//!
//! * **Preference** — customer-learned routes over peer-learned routes
//!   over provider-learned routes; then shortest AS path; then a
//!   per-(chooser, destination) hash of the next hop (a deterministic,
//!   diverse tie-break).
//! * **Export** — customer routes are announced to everyone; peer- and
//!   provider-learned routes only to customers. Sibling links exchange
//!   everything.
//!
//! The classic three-stage BFS computes this exactly when the c2p graph is
//! acyclic (which the generator guarantees): routes first climb customer→
//! provider edges, then cross a single peering edge, then descend
//! provider→customer edges. Only the vantage points' routes are ever
//! read, so [`propagate()`] computes stages 2 and 3 over their closure
//! alone: the VPs with their providers and siblings, plus the leakers
//! that can announce into that set. That is exact for every VP, and a
//! few hundred ASes out of thousands (the argument is in
//! [`mod@propagate`]).
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
pub use propagate::{propagate, PrefClass, PropagationWorkspace, RouteTree, Targets};
pub use sim::{simulate, SimConfig, SimOutput};
