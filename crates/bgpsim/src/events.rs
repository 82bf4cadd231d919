//! Routing events and update-stream derivation.
//!
//! The peering disputes that motivated the paper's relationship work
//! (and its follow-ups) manifest as *events*: a link is depeered, a
//! provider is dropped, a prefix moves. This module applies an event to
//! a topology and derives the BGP update stream each vantage point would
//! emit — by simulating before and after, then diffing the two RIBs.

use crate::collector::{select_vps, VpSelection};
use crate::sim::{policy_graph, simulate, SimConfig, SimOutput};
use as_topology_gen::GeneratedTopology;
use asrank_types::prelude::*;
use asrank_types::update::UpdateMessage;
use std::collections::HashMap;

/// A topology-level routing event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingEvent {
    /// The link between two ASes goes down (depeering, contract end,
    /// fiber cut at the only interconnect).
    LinkDown {
        /// One endpoint.
        a: Asn,
        /// The other endpoint.
        b: Asn,
    },
    /// An AS stops originating all of its prefixes (outage).
    OriginDown {
        /// The origin AS.
        asn: Asn,
    },
}

/// Apply an event, returning the modified topology (the input is
/// untouched). Unknown links/ASes yield an unchanged copy.
pub fn apply_event(topo: &GeneratedTopology, event: RoutingEvent) -> GeneratedTopology {
    let mut out = topo.clone();
    match event {
        RoutingEvent::LinkDown { a, b } => {
            out.ground_truth.relationships.remove(a, b);
        }
        RoutingEvent::OriginDown { asn } => {
            out.ground_truth.prefixes.remove(&asn);
        }
    }
    out
}

/// Derive per-VP update messages by diffing two collected RIBs
/// (before → after). One message per VP, deterministic order.
pub fn diff_collections(before: &SimOutput, after: &SimOutput) -> Vec<UpdateMessage> {
    // Index each collection: (vp, prefix) → path.
    let index = |out: &SimOutput| -> HashMap<(Asn, Ipv4Prefix), AsPath> {
        out.paths
            .iter()
            .map(|s| ((s.vp, s.prefix), s.path.clone()))
            .collect()
    };
    let old = index(before);
    let new = index(after);

    let mut per_vp: HashMap<Asn, UpdateMessage> = HashMap::new();
    for (&(vp, prefix), old_path) in &old {
        match new.get(&(vp, prefix)) {
            None => per_vp
                .entry(vp)
                .or_insert_with(|| UpdateMessage {
                    vp,
                    ..Default::default()
                })
                .withdrawn
                .push(prefix),
            Some(new_path) if new_path != old_path => per_vp
                .entry(vp)
                .or_insert_with(|| UpdateMessage {
                    vp,
                    ..Default::default()
                })
                .announced
                .push((prefix, new_path.clone())),
            Some(_) => {}
        }
    }
    for (&(vp, prefix), new_path) in &new {
        if !old.contains_key(&(vp, prefix)) {
            per_vp
                .entry(vp)
                .or_insert_with(|| UpdateMessage {
                    vp,
                    ..Default::default()
                })
                .announced
                .push((prefix, new_path.clone()));
        }
    }

    let mut out: Vec<UpdateMessage> = per_vp.into_values().collect();
    for m in &mut out {
        m.withdrawn.sort();
        m.announced.sort_by_key(|(p, _)| *p);
    }
    out.sort_by_key(|m| m.vp);
    out
}

/// Convenience: simulate around an event with identical collection
/// settings and return `(before, after, updates)`.
///
/// The vantage-point set is resolved once, against the *pre-event*
/// topology, and pinned for both runs — otherwise degree-weighted VP
/// selection would re-sample on the modified graph and the diff would
/// conflate VP churn with routing churn. Both sides run under the pinned
/// selection, so feed fractions are drawn identically for both.
pub fn simulate_event(
    topo: &GeneratedTopology,
    event: RoutingEvent,
    config: &SimConfig,
) -> (SimOutput, SimOutput, Vec<UpdateMessage>) {
    let vps = select_vps(
        &policy_graph(topo),
        &config.vp_selection,
        config.full_feed_fraction,
        config.seed,
    );
    let mut pinned = config.clone();
    pinned.vp_selection = VpSelection::Explicit(vps.iter().map(|v| v.asn).collect());
    let before = simulate(topo, &pinned);
    let changed = apply_event(topo, event);
    let after = simulate(&changed, &pinned);
    let updates = diff_collections(&before, &after);
    (before, after, updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::VpSelection;
    use as_topology_gen::{generate, TopologyConfig};

    fn setup() -> (GeneratedTopology, SimConfig) {
        let topo = generate(&TopologyConfig::tiny(), 3);
        let mut cfg = SimConfig::defaults(3);
        cfg.vp_selection = VpSelection::Count(6);
        cfg.full_feed_fraction = 1.0;
        (topo, cfg)
    }

    #[test]
    fn no_event_no_updates() {
        let (topo, cfg) = setup();
        let a = simulate(&topo, &cfg);
        let b = simulate(&topo, &cfg);
        assert!(diff_collections(&a, &b).is_empty());
    }

    #[test]
    fn origin_down_produces_withdrawals() {
        let (topo, cfg) = setup();
        // Pick an AS that originates prefixes.
        let victim = *topo
            .ground_truth
            .prefixes
            .keys()
            .min()
            .expect("some origin");
        let n_prefixes = topo.ground_truth.prefixes[&victim].len();
        let (_before, _after, updates) =
            simulate_event(&topo, RoutingEvent::OriginDown { asn: victim }, &cfg);
        assert!(!updates.is_empty());
        let withdrawals: usize = updates.iter().map(|m| m.withdrawn.len()).sum();
        assert!(
            withdrawals >= n_prefixes,
            "each full-feed VP should withdraw the victim's {n_prefixes} prefixes; got {withdrawals}"
        );
        // No announcements should reference the dead origin.
        for m in &updates {
            for (_, path) in &m.announced {
                assert_ne!(path.origin(), Some(victim));
            }
        }
    }

    #[test]
    fn link_down_reroutes_or_withdraws() {
        let (topo, cfg) = setup();
        // Fail the first c2p link of the lowest-numbered multihomed stub;
        // fall back to any c2p link.
        let (c, p) = topo
            .ground_truth
            .relationships
            .c2p_pairs()
            .min()
            .expect("some c2p link");
        let (_b, after, updates) =
            simulate_event(&topo, RoutingEvent::LinkDown { a: c, b: p }, &cfg);
        // The failed link must not appear in any post-event path.
        for s in after.paths.iter() {
            for (x, y) in s.path.links() {
                assert!(
                    !(x == c && y == p || x == p && y == c),
                    "failed link {c}-{p} still used in {}",
                    s.path
                );
            }
        }
        // Some VP must have noticed (either new paths or withdrawals),
        // unless the link was invisible to every VP before the event.
        let was_visible = _b.paths.iter().any(|s| {
            s.path
                .links()
                .any(|(x, y)| x == c && y == p || x == p && y == c)
        });
        if was_visible {
            assert!(!updates.is_empty(), "visible link failure must cause churn");
        }
    }

    /// `simulate_event` as it was: a throwaway `simulate` to pick the
    /// VPs, then both sides under the pinned selection.
    fn three_run_event(
        topo: &GeneratedTopology,
        event: RoutingEvent,
        config: &SimConfig,
    ) -> (SimOutput, SimOutput, Vec<UpdateMessage>) {
        let picked = simulate(topo, config);
        let mut pinned = config.clone();
        pinned.vp_selection = VpSelection::Explicit(picked.vps.iter().map(|v| v.asn).collect());
        let before = simulate(topo, &pinned);
        let after = simulate(&apply_event(topo, event), &pinned);
        let updates = diff_collections(&before, &after);
        (before, after, updates)
    }

    fn same_output(a: &SimOutput, b: &SimOutput) -> bool {
        a.vps == b.vps
            && a.paths.iter().eq(b.paths.iter())
            && a.stats.destinations == b.stats.destinations
            && a.stats.unreachable_pairs == b.stats.unreachable_pairs
            && a.stats.anomalies == b.stats.anomalies
    }

    #[test]
    fn one_simulation_per_side_matches_the_three_run_formula() {
        for seed in 1..=3 {
            let topo = generate(&TopologyConfig::tiny(), seed);
            let mut cfg = SimConfig::defaults(seed);
            cfg.vp_selection = VpSelection::Count(8);
            cfg.anomalies = crate::AnomalyConfig::realistic(vec![Asn(777)]);
            cfg.threads = 1;
            let (c, p) = topo.ground_truth.relationships.c2p_pairs().min().unwrap();
            let origin = *topo.ground_truth.prefixes.keys().max().unwrap();
            for event in [
                RoutingEvent::LinkDown { a: c, b: p },
                RoutingEvent::OriginDown { asn: origin },
            ] {
                let (before, after, updates) = simulate_event(&topo, event, &cfg);
                let (want_before, want_after, want_updates) = three_run_event(&topo, event, &cfg);
                assert!(
                    same_output(&before, &want_before),
                    "seed {seed} {event:?}: before"
                );
                assert!(
                    same_output(&after, &want_after),
                    "seed {seed} {event:?}: after"
                );
                assert_eq!(updates, want_updates, "seed {seed} {event:?}: updates");
                assert!(
                    !updates.is_empty(),
                    "seed {seed} {event:?}: no churn to compare"
                );
            }
        }
    }

    #[test]
    fn updates_are_deterministic_and_sorted() {
        let (topo, cfg) = setup();
        let victim = *topo.ground_truth.prefixes.keys().max().unwrap();
        let ev = RoutingEvent::OriginDown { asn: victim };
        let (_, _, u1) = simulate_event(&topo, ev, &cfg);
        let (_, _, u2) = simulate_event(&topo, ev, &cfg);
        assert_eq!(u1, u2);
        for w in u1.windows(2) {
            assert!(w[0].vp < w[1].vp);
        }
    }
}
