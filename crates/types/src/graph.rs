//! Ground-truth AS-level topologies.
//!
//! The original study validated against partial external corpora because no
//! ground truth exists for the real Internet. The reproduction inverts
//! this: the `as-topology-gen` substrate *generates* an annotated topology
//! ([`GroundTruth`]), the simulator derives BGP paths from it, and the
//! validation framework measures the inference algorithms against it —
//! both directly and through emulated noisy corpora that mimic the paper's
//! three validation sources.

use crate::asn::Asn;
use crate::prefix::Ipv4Prefix;
use crate::relationship::{Orientation, RelationshipMap};
use std::collections::HashMap;

/// Structural role of an AS in the generated topology.
///
/// Mirrors the strata the paper's Internet exhibits: a Tier-1 clique at the
/// top, transit hierarchies below, and an overwhelmingly large edge of
/// stubs, content networks, and enterprises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsClass {
    /// Member of the top clique (Tier-1): no providers, peers with every
    /// other clique member.
    Tier1,
    /// Large national/international transit provider.
    LargeTransit,
    /// Regional mid-tier transit provider.
    MidTransit,
    /// Small local transit provider (has at least one customer AS).
    SmallTransit,
    /// Stub access/enterprise network with no customers.
    Stub,
    /// Content/CDN network: stub-like transit profile but dense peering.
    Content,
    /// Internet exchange route server ASN (appears in paths as an artifact
    /// and must be stripped by sanitization).
    IxpRouteServer,
}

impl AsClass {
    /// True for classes that provide transit to at least one customer.
    pub fn is_transit(self) -> bool {
        matches!(
            self,
            AsClass::Tier1 | AsClass::LargeTransit | AsClass::MidTransit | AsClass::SmallTransit
        )
    }
}

/// A complete annotated AS-level topology with known relationships —
/// the substrate every experiment is built on.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// The true business relationship of every link.
    pub relationships: RelationshipMap,
    /// Structural class of every AS.
    pub classes: HashMap<Asn, AsClass>,
    /// Prefixes originated by each AS.
    pub prefixes: HashMap<Asn, Vec<Ipv4Prefix>>,
}

impl GroundTruth {
    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.relationships.len()
    }

    /// ASNs of the planted Tier-1 clique, sorted.
    pub fn clique(&self) -> Vec<Asn> {
        let mut c: Vec<Asn> = self
            .classes
            .iter()
            .filter(|(_, &cl)| cl == AsClass::Tier1)
            .map(|(&a, _)| a)
            .collect();
        c.sort();
        c
    }

    /// ASes of a given class, sorted.
    pub fn ases_of_class(&self, class: AsClass) -> Vec<Asn> {
        let mut v: Vec<Asn> = self
            .classes
            .iter()
            .filter(|(_, &cl)| cl == class)
            .map(|(&a, _)| a)
            .collect();
        v.sort();
        v
    }

    /// Total number of prefixes originated.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.values().map(Vec::len).sum()
    }

    /// The *true* customer cone of `asn`: the set of ASes reachable by
    /// repeatedly following provider→customer links, including `asn`
    /// itself. This is the paper's "recursive customer cone" computed on
    /// ground truth rather than on inferred relationships.
    pub fn true_customer_cone(&self, asn: Asn) -> std::collections::HashSet<Asn> {
        let adj = self.relationships.adjacency();
        let mut cone = std::collections::HashSet::new();
        let mut stack = vec![asn];
        while let Some(x) = stack.pop() {
            if !cone.insert(x) {
                continue;
            }
            if let Some(neigh) = adj.get(&x) {
                for &(n, o) in neigh {
                    if o == Orientation::Customer {
                        stack.push(n);
                    }
                }
            }
        }
        cone
    }

    /// Sanity-check structural invariants of a generated topology; returns
    /// a list of human-readable violations (empty = consistent).
    ///
    /// Checked invariants:
    /// 1. clique members have no providers;
    /// 2. every clique pair is connected by a p2p link;
    /// 3. no AS is its own provider transitively (the c2p graph is acyclic);
    /// 4. every non-clique, non-IXP AS has at least one provider
    ///    (the topology is fully connected through transit).
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let adj = self.relationships.adjacency();
        let clique = self.clique();

        for &t1 in &clique {
            let providers = adj
                .get(&t1)
                .map(|n| {
                    n.iter()
                        .filter(|&&(_, o)| o == Orientation::Provider)
                        .count()
                })
                .unwrap_or(0);
            if providers > 0 {
                problems.push(format!("clique member {t1} has {providers} provider(s)"));
            }
        }
        for (i, &x) in clique.iter().enumerate() {
            for &y in &clique[i + 1..] {
                if !self.relationships.is_p2p(x, y) {
                    problems.push(format!("clique pair {x},{y} not connected by p2p"));
                }
            }
        }

        // Cycle check over the customer->provider digraph via iterative DFS
        // coloring (0 unvisited / 1 on-stack / 2 done).
        let mut color: HashMap<Asn, u8> = HashMap::new();
        for &start in self.classes.keys() {
            if color.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            // stack of (node, next-neighbor-index)
            let mut stack: Vec<(Asn, usize)> = vec![(start, 0)];
            color.insert(start, 1);
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let providers: Vec<Asn> = adj
                    .get(&node)
                    .map(|n| {
                        n.iter()
                            .filter(|&&(_, o)| o == Orientation::Provider)
                            .map(|&(a, _)| a)
                            .collect()
                    })
                    .unwrap_or_default();
                if *idx < providers.len() {
                    let next = providers[*idx];
                    *idx += 1;
                    match color.get(&next).copied().unwrap_or(0) {
                        0 => {
                            color.insert(next, 1);
                            stack.push((next, 0));
                        }
                        1 => problems.push(format!("c2p cycle through {next}")),
                        _ => {}
                    }
                } else {
                    color.insert(node, 2);
                    stack.pop();
                }
            }
        }

        for (&asn, &class) in &self.classes {
            if class == AsClass::Tier1 || class == AsClass::IxpRouteServer {
                continue;
            }
            let has_provider = adj
                .get(&asn)
                .map(|n| n.iter().any(|&(_, o)| o == Orientation::Provider))
                .unwrap_or(false);
            if !has_provider {
                problems.push(format!("{asn} ({class:?}) has no provider"));
            }
        }

        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// tiny hand-built topology:
    ///
    /// ```text
    ///   1 ===p2p=== 2        (clique)
    ///   |           |
    ///  10          20        (transit, customers of 1 / 2)
    ///   |           |
    /// 100         200        (stubs)
    /// ```
    fn tiny() -> GroundTruth {
        let mut gt = GroundTruth::default();
        gt.relationships.insert_p2p(Asn(1), Asn(2));
        gt.relationships.insert_c2p(Asn(10), Asn(1));
        gt.relationships.insert_c2p(Asn(20), Asn(2));
        gt.relationships.insert_c2p(Asn(100), Asn(10));
        gt.relationships.insert_c2p(Asn(200), Asn(20));
        for (asn, class) in [
            (1, AsClass::Tier1),
            (2, AsClass::Tier1),
            (10, AsClass::SmallTransit),
            (20, AsClass::SmallTransit),
            (100, AsClass::Stub),
            (200, AsClass::Stub),
        ] {
            gt.classes.insert(Asn(asn), class);
        }
        gt.prefixes
            .insert(Asn(100), vec!["100.0.0.0/16".parse().unwrap()]);
        gt
    }

    #[test]
    fn clique_listing() {
        assert_eq!(tiny().clique(), vec![Asn(1), Asn(2)]);
    }

    #[test]
    fn true_cone() {
        let gt = tiny();
        let cone1 = gt.true_customer_cone(Asn(1));
        assert_eq!(cone1, [Asn(1), Asn(10), Asn(100)].into_iter().collect());
        let cone100 = gt.true_customer_cone(Asn(100));
        assert_eq!(cone100, [Asn(100)].into_iter().collect());
    }

    #[test]
    fn invariants_hold_on_tiny() {
        assert!(tiny().check_invariants().is_empty());
    }

    #[test]
    fn invariant_catches_clique_with_provider() {
        let mut gt = tiny();
        gt.relationships.insert_c2p(Asn(1), Asn(99));
        gt.classes.insert(Asn(99), AsClass::LargeTransit);
        let problems = gt.check_invariants();
        assert!(problems.iter().any(|p| p.contains("provider")));
    }

    #[test]
    fn invariant_catches_c2p_cycle() {
        let mut gt = tiny();
        // 10 -> 1 already exists; add 1 -> 100 -> 10 making a cycle
        // 10 -> 1 -> 100 -> 10 in the customer->provider digraph.
        gt.relationships.insert_c2p(Asn(1), Asn(100));
        gt.relationships.insert_c2p(Asn(100), Asn(10));
        let problems = gt.check_invariants();
        assert!(problems.iter().any(|p| p.contains("cycle")), "{problems:?}");
    }

    #[test]
    fn invariant_catches_orphan() {
        let mut gt = tiny();
        gt.classes.insert(Asn(999), AsClass::Stub);
        let problems = gt.check_invariants();
        assert!(problems.iter().any(|p| p.contains("no provider")));
    }

    #[test]
    fn counters() {
        let gt = tiny();
        assert_eq!(gt.as_count(), 6);
        assert_eq!(gt.link_count(), 5);
        assert_eq!(gt.prefix_count(), 1);
        assert_eq!(gt.ases_of_class(AsClass::Stub), vec![Asn(100), Asn(200)]);
    }
}
