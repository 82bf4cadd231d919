//! Workspace-level property tests (proptest): invariants that must hold
//! for *arbitrary* inputs, not just the scenarios we thought of.

use asrank::baselines::Baseline;
use asrank::core::pipeline::{infer, InferenceConfig};
use asrank::core::{sanitize, SanitizeConfig};
use asrank::mrt::{read_rib_dump, write_rib_dump, MrtReader};
use asrank::types::prelude::*;
use asrank::types::update::UpdateMessage;
use asrank::types::PrefixTrie;
use proptest::prelude::*;

/// Strategy: an arbitrary AS path of 2–8 public ASNs (possibly with
/// repeats, so loops and prepending occur).
fn arb_path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(1u32..400, 2..8).prop_map(AsPath::from_u32s)
}

/// Strategy: an arbitrary path set with VP = first hop.
fn arb_pathset() -> impl Strategy<Value = PathSet> {
    prop::collection::vec((arb_path(), 0u32..200u32), 1..60).prop_map(|items| {
        items
            .into_iter()
            .map(|(path, pfx)| PathSample {
                vp: path.head().unwrap(),
                prefix: Ipv4Prefix::new(pfx << 12, 20).unwrap(),
                path,
            })
            .collect()
    })
}

proptest! {
    /// The sanitizer's output is always loop-free, prepending-free,
    /// routable, and ≥ 2 hops — regardless of input garbage.
    #[test]
    fn sanitizer_postconditions(ps in arb_pathset()) {
        let out = sanitize(&ps, &SanitizeConfig::default());
        for hops in out.paths() {
            let path = AsPath(hops.to_vec());
            prop_assert!(!path.has_loop());
            prop_assert!(path.all_routable());
            prop_assert!(path.len() >= 2);
            prop_assert_eq!(path.compress_prepending(), path.clone());
        }
        // Accounting adds up: every input is kept or counted discarded.
        let r = out.report;
        prop_assert_eq!(
            r.output_paths + r.discarded_loops + r.discarded_reserved + r.discarded_short,
            r.input_paths
        );
    }

    /// The pipeline classifies every link of every sanitized,
    /// non-poisoned path — totality of the classification.
    #[test]
    fn pipeline_classifies_observed_links(ps in arb_pathset()) {
        let inference = infer(&ps, &InferenceConfig::default());
        // Recompute what the pipeline should have seen.
        let clean = sanitize(&ps, &SanitizeConfig::default());
        let clique: std::collections::HashSet<Asn> =
            inference.clique.iter().copied().collect();
        'path: for p in clean.paths() {
            // Skip poisoned paths (clique sandwich), as S4 does.
            let mut seen = false;
            let mut gap = false;
            for a in p {
                if clique.contains(a) {
                    if seen && gap { continue 'path; }
                    seen = true;
                    gap = false;
                } else if seen {
                    gap = true;
                }
            }
            for w in p.windows(2) {
                let (a, b) = (w[0], w[1]);
                prop_assert!(
                    inference.relationships.get(a, b).is_some(),
                    "unclassified link {}-{}", a, b
                );
            }
        }
    }

    /// MRT RIB dumps round-trip arbitrary path sets losslessly.
    #[test]
    fn mrt_rib_roundtrip(ps in arb_pathset()) {
        let mut buf = Vec::new();
        write_rib_dump(&ps, &mut buf, 1_000_000_000).unwrap();
        let back = read_rib_dump(&buf[..]).unwrap();
        let a: std::collections::HashSet<PathSample> = ps.iter().cloned().collect();
        let b: std::collections::HashSet<PathSample> = back.iter().cloned().collect();
        prop_assert_eq!(a, b);
    }

    /// The MRT decoder never panics on arbitrarily mutated valid dumps —
    /// every outcome is Ok or a typed error.
    #[test]
    fn mrt_decoder_never_panics(
        ps in arb_pathset(),
        flips in prop::collection::vec((0usize..10_000, 0u8..=255), 1..20),
    ) {
        let mut buf = Vec::new();
        write_rib_dump(&ps, &mut buf, 5).unwrap();
        for (pos, val) in flips {
            if !buf.is_empty() {
                let i = pos % buf.len();
                buf[i] = val;
            }
        }
        // Either parses or errors — never panics, never loops forever.
        let mut reader = MrtReader::new(&buf[..]);
        let mut guard = 0;
        while let Ok(Some(_)) = reader.next_record() {
            guard += 1;
            if guard > 10_000 { break; }
        }
    }

    /// Every baseline accepts arbitrary path sets without panicking and
    /// only emits links that exist in the input.
    #[test]
    fn baselines_total_and_sound(ps in arb_pathset()) {
        let mut observed: std::collections::HashSet<AsLink> =
            std::collections::HashSet::new();
        for p in ps.paths() {
            let c = p.compress_prepending();
            for (a, b) in c.links() {
                if a != b {
                    observed.insert(AsLink::new(a, b));
                }
            }
        }
        for b in Baseline::all() {
            let rels = b.run(&ps);
            for (link, _) in rels.iter() {
                prop_assert!(
                    observed.contains(&link),
                    "{} invented link {}", b.name(), link
                );
            }
        }
    }

    /// Recursive cones are monotone: a provider's cone contains each of
    /// its customers' cones.
    #[test]
    fn recursive_cone_monotone(edges in prop::collection::vec((1u32..60, 1u32..60), 1..80)) {
        let mut rels = RelationshipMap::new();
        for (c, p) in edges {
            if c != p {
                rels.insert_c2p(Asn(c), Asn(p));
            }
        }
        let cones = asrank::core::CustomerCones::recursive(&rels, None);
        for (customer, provider) in rels.c2p_pairs() {
            for m in cones.members(customer) {
                prop_assert!(
                    cones.contains(provider, *m),
                    "{} in cone({}) but not cone(provider {})",
                    m, customer, provider
                );
            }
        }
        // And every AS is in its own cone.
        for asn in cones.ases() {
            prop_assert!(cones.contains(asn, asn));
        }
    }

    /// The prefix trie agrees with a naive linear longest-prefix match.
    #[test]
    fn trie_matches_naive_lpm(
        entries in prop::collection::vec((0u32.., 8u8..=28), 1..40),
        queries in prop::collection::vec(0u32.., 20),
    ) {
        let entries: Vec<(Ipv4Prefix, usize)> = entries
            .into_iter()
            .enumerate()
            .map(|(i, (addr, len))| (Ipv4Prefix::new(addr, len).unwrap(), i))
            .collect();
        // Later inserts win on duplicates, both in the trie and naively.
        let mut trie = PrefixTrie::new();
        for (p, v) in &entries {
            trie.insert(*p, *v);
        }
        let mut dedup: std::collections::HashMap<Ipv4Prefix, usize> =
            std::collections::HashMap::new();
        for (p, v) in &entries {
            dedup.insert(*p, *v);
        }
        for addr in queries {
            let naive = dedup
                .iter()
                .filter(|(p, _)| p.contains_addr(addr))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (p.len(), *v));
            let got = trie.lookup_addr(addr).map(|(m, v)| (m.len(), *v));
            prop_assert_eq!(got, naive);
        }
    }

    /// BGP4MP update streams round-trip arbitrary update messages.
    #[test]
    fn update_stream_roundtrip(
        raw in prop::collection::vec(
            (1u32..1000, prop::collection::vec((0u32..50, 1u32..400), 0..10),
             prop::collection::vec(0u32..50, 0..6)),
            1..8,
        )
    ) {
        use std::collections::BTreeMap;
        // Build well-formed messages: unique VPs, sorted content,
        // announced paths starting at the VP.
        let mut by_vp: BTreeMap<u32, UpdateMessage> = BTreeMap::new();
        for (vp, ann, wd) in raw {
            let m = by_vp.entry(vp).or_insert_with(|| UpdateMessage {
                vp: Asn(vp),
                ..Default::default()
            });
            for (pfx, hop) in ann {
                m.announced.push((
                    Ipv4Prefix::new(pfx << 12, 20).unwrap(),
                    AsPath::from_u32s([vp, hop, hop + 1]),
                ));
            }
            for pfx in wd {
                m.withdrawn.push(Ipv4Prefix::new((pfx + 100) << 12, 20).unwrap());
            }
        }
        let mut updates: Vec<UpdateMessage> = by_vp.into_values().collect();
        for m in &mut updates {
            m.withdrawn.sort();
            m.withdrawn.dedup();
            m.announced.sort_by_key(|(p, _)| *p);
            m.announced.dedup_by_key(|(p, _)| *p);
        }
        updates.retain(|m| !m.is_empty());
        prop_assume!(!updates.is_empty());

        let mut buf = Vec::new();
        asrank::mrt::write_update_stream(&updates, &mut buf, 0).unwrap();
        let back = asrank::mrt::read_update_stream(&buf[..]).unwrap();
        prop_assert_eq!(back, updates);
    }

    /// Sanitization is idempotent: cleaning already-clean data is a
    /// no-op with all-zero discard counters.
    #[test]
    fn sanitize_idempotent(ps in arb_pathset()) {
        let once = sanitize(&ps, &SanitizeConfig::default());
        let as_set: PathSet = once
            .iter()
            .map(|(vp, prefix, hops)| PathSample { vp, prefix, path: AsPath(hops.to_vec()) })
            .collect();
        let twice = sanitize(&as_set, &SanitizeConfig::default());
        prop_assert!(twice.iter().eq(once.iter()));
        prop_assert_eq!(twice.report.discarded_loops, 0);
        prop_assert_eq!(twice.report.discarded_reserved, 0);
        prop_assert_eq!(twice.report.discarded_short, 0);
        prop_assert_eq!(twice.report.compressed_prepending, 0);
    }

    /// The CAIDA as-rel text format round-trips arbitrary relationship
    /// maps exactly.
    #[test]
    fn as_rel_roundtrip(edges in prop::collection::vec((1u32..500, 1u32..500, 0u8..3), 0..100)) {
        let mut rels = RelationshipMap::new();
        for (a, b, kind) in edges {
            if a == b {
                continue;
            }
            match kind {
                0 => rels.insert_c2p(Asn(a), Asn(b)),
                1 => rels.insert_p2p(Asn(a), Asn(b)),
                _ => rels.insert_s2s(Asn(a), Asn(b)),
            }
        }
        let mut buf = Vec::new();
        asrank::core::write_as_rel(&rels, &mut buf).unwrap();
        let back = asrank::core::read_as_rel(&buf[..]).unwrap();
        let mut la: Vec<_> = rels.iter().collect();
        let mut lb: Vec<_> = back.iter().collect();
        la.sort_by_key(|(l, _)| (l.a, l.b));
        lb.sort_by_key(|(l, _)| (l.a, l.b));
        prop_assert_eq!(la, lb);
    }

    /// Relationship-map diffs are exact inverses: applying the diff's
    /// added/removed/changed to the old map reproduces the new map.
    #[test]
    fn diff_reconstructs_new_map(
        old_edges in prop::collection::vec((1u32..60, 1u32..60, 0u8..2), 0..50),
        new_edges in prop::collection::vec((1u32..60, 1u32..60, 0u8..2), 0..50),
    ) {
        let build = |edges: &[(u32, u32, u8)]| {
            let mut m = RelationshipMap::new();
            for &(a, b, k) in edges {
                if a == b { continue; }
                if k == 0 { m.insert_c2p(Asn(a), Asn(b)); } else { m.insert_p2p(Asn(a), Asn(b)); }
            }
            m
        };
        let old = build(&old_edges);
        let new = build(&new_edges);
        let d = asrank::core::diff_relationships(&old, &new);

        let mut rebuilt = old.clone();
        for (l, _) in &d.removed {
            rebuilt.remove(l.a, l.b);
        }
        let apply = |m: &mut RelationshipMap, l: AsLink, r: asrank::types::LinkRel| {
            use asrank::types::LinkRel::*;
            match r {
                AC2pB => m.insert_c2p(l.a, l.b),
                AP2cB => m.insert_c2p(l.b, l.a),
                P2p => m.insert_p2p(l.a, l.b),
                S2s => m.insert_s2s(l.a, l.b),
            }
        };
        for &(l, r) in &d.added {
            apply(&mut rebuilt, l, r);
        }
        for c in &d.changed {
            apply(&mut rebuilt, c.link, c.after);
        }
        let mut la: Vec<_> = rebuilt.iter().collect();
        let mut lb: Vec<_> = new.iter().collect();
        la.sort_by_key(|(l, _)| (l.a, l.b));
        lb.sort_by_key(|(l, _)| (l.a, l.b));
        prop_assert_eq!(la, lb);
    }
}
