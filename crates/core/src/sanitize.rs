//! Step S1 — AS-path sanitization.
//!
//! Real BGP data (and our simulator's artifact-injected output) contains
//! paths that carry no relationship information or would actively mislead
//! the inference: loops (poisoning or corruption), reserved/private ASNs,
//! prepending, and IXP route-server ASNs that appear as an extra hop
//! between the true peers. Sanitization normalizes every usable path and
//! discards the rest, keeping counts of everything it did.

use asrank_types::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Sanitizer configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SanitizeConfig {
    /// ASNs of IXP route servers to strip from paths. The paper removes
    /// known IXP ASNs so that the two route-server clients appear
    /// adjacent, as their business relationship actually is.
    pub ixp_asns: HashSet<Asn>,
}

impl SanitizeConfig {
    /// Sanitize with a known IXP route-server list.
    pub fn with_ixps<I: IntoIterator<Item = Asn>>(ixps: I) -> Self {
        SanitizeConfig {
            ixp_asns: ixps.into_iter().collect(),
        }
    }

    /// The IXP route-server list sorted ascending: the lookup table the
    /// per-path pass binary-searches, built once per sanitize call.
    pub(crate) fn sorted_ixps(&self) -> Vec<Asn> {
        let mut ixps: Vec<Asn> = self.ixp_asns.iter().copied().collect();
        ixps.sort_unstable();
        ixps
    }
}

/// Counters describing what sanitization did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SanitizeReport {
    /// Paths received.
    pub input_paths: usize,
    /// Paths surviving sanitization.
    pub output_paths: usize,
    /// Paths discarded for containing a loop.
    pub discarded_loops: usize,
    /// Paths discarded for containing a reserved/private/documentation ASN.
    pub discarded_reserved: usize,
    /// Paths discarded for being empty or single-hop after cleaning.
    pub discarded_short: usize,
    /// Paths that had prepending compressed.
    pub compressed_prepending: usize,
    /// Paths that had at least one IXP ASN stripped.
    pub stripped_ixp: usize,
}

/// Sanitized dataset: cleaned samples plus the report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizedPaths {
    /// Cleaned observations (loop-free, prepending-free, routable ASNs,
    /// IXP hops removed; ≥ 2 hops each).
    pub samples: Vec<PathSample>,
    /// What happened during cleaning.
    pub report: SanitizeReport,
}

impl SanitizedPaths {
    /// Iterate over the cleaned AS paths.
    pub fn paths(&self) -> impl Iterator<Item = &AsPath> {
        self.samples.iter().map(|s| &s.path)
    }
}

/// Sanitize one path in a single pass. Returns `None` (with the reason
/// recorded in `report`) when the path must be discarded. `ixps` is the
/// IXP route-server list, sorted ascending.
///
/// The pass is the composition compress prepending → strip IXP hops →
/// recompress → loop check, folded into one walk that allocates only
/// the cleaned path:
///
/// 1. a hop equal to its *raw* predecessor is prepending;
/// 2. an IXP hop is stripped, so the two route-server clients become
///    adjacent;
/// 3. a hop equal to the last kept hop is the duplicate stripping left
///    behind (`A RS A` never occurs in practice, but be safe) and is
///    dropped without counting as prepending;
/// 4. a kept hop already present in the kept slice is a loop.
///
/// Reserved ASNs anywhere make the whole path suspect (poisoners use
/// private ASNs precisely because they never appear legitimately), and
/// that verdict takes precedence over every other counter.
fn sanitize_path(path: &AsPath, ixps: &[Asn], report: &mut SanitizeReport) -> Option<AsPath> {
    let raw = &path.0;
    let mut kept: Vec<Asn> = Vec::with_capacity(raw.len());
    let (mut prepended, mut stripped, mut looped) = (false, false, false);
    for (i, &asn) in raw.iter().enumerate() {
        if !asn.is_routable() {
            report.discarded_reserved += 1;
            return None;
        }
        if i > 0 && raw[i - 1] == asn {
            prepended = true;
        } else if ixps.binary_search(&asn).is_ok() {
            stripped = true;
        } else if kept.last() != Some(&asn) {
            looped |= kept.contains(&asn);
            kept.push(asn);
        }
    }
    report.compressed_prepending += usize::from(prepended);
    report.stripped_ixp += usize::from(stripped);
    if looped {
        report.discarded_loops += 1;
        return None;
    }
    if kept.len() < 2 {
        report.discarded_short += 1;
        return None;
    }
    Some(AsPath(kept))
}

/// The sanitization outcome of a single sample: the cleaned path (or
/// `None` when discarded) plus the report-counter deltas the sample
/// contributed. The incremental engine caches one fate per sample so a
/// delta run re-sanitizes only the samples a batch touched; summing the
/// deltas reproduces [`sanitize`]'s report exactly (minus the
/// `input_paths`/`output_paths` totals, which are structural).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SampleFate {
    /// Cleaned path, `None` when the sample was discarded.
    pub clean: Option<AsPath>,
    /// This sample's contribution to the discard/rewrite counters.
    pub delta: SanitizeReport,
}

/// Sanitize one sample in isolation — the same decision procedure
/// [`sanitize_with`] applies per chunk, exposed per sample for the
/// incremental path. `ixps` is [`SanitizeConfig::sorted_ixps`].
pub(crate) fn sample_fate(path: &AsPath, ixps: &[Asn]) -> SampleFate {
    let mut delta = SanitizeReport::default();
    let clean = sanitize_path(path, ixps, &mut delta);
    SampleFate { clean, delta }
}

/// Sanitize a whole path set (S1 of the pipeline).
pub fn sanitize(paths: &PathSet, cfg: &SanitizeConfig) -> SanitizedPaths {
    sanitize_with(paths, cfg, Parallelism::auto())
}

/// [`sanitize`] with an explicit thread budget. Paths are independent, so
/// chunks are cleaned on worker threads and reassembled in input order;
/// report counters are sums of per-chunk counters. The output is
/// identical for every `par` value.
pub fn sanitize_with(paths: &PathSet, cfg: &SanitizeConfig, par: Parallelism) -> SanitizedPaths {
    let all: Vec<&PathSample> = paths.iter().collect();
    let ixps = cfg.sorted_ixps();
    let per_chunk = crate::par::map_chunks(par, 256, &all, |chunk| {
        let mut report = SanitizeReport::default();
        let mut samples = Vec::with_capacity(chunk.len());
        for s in chunk {
            if let Some(clean) = sanitize_path(&s.path, &ixps, &mut report) {
                samples.push(PathSample {
                    vp: s.vp,
                    prefix: s.prefix,
                    path: clean,
                });
            }
        }
        (samples, report)
    });

    let mut report = SanitizeReport {
        input_paths: paths.len(),
        ..Default::default()
    };
    let mut samples: Vec<PathSample> = Vec::new();
    for (chunk_samples, r) in per_chunk {
        // The first chunk's buffer becomes the output, so a sequential
        // run moves no sample twice.
        if samples.is_empty() {
            samples = chunk_samples;
        } else {
            samples.extend(chunk_samples);
        }
        report.discarded_loops += r.discarded_loops;
        report.discarded_reserved += r.discarded_reserved;
        report.discarded_short += r.discarded_short;
        report.compressed_prepending += r.compressed_prepending;
        report.stripped_ixp += r.stripped_ixp;
    }
    report.output_paths = samples.len();
    SanitizedPaths { samples, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(paths: &[&[u32]]) -> PathSet {
        paths
            .iter()
            .enumerate()
            .map(|(i, p)| PathSample {
                vp: Asn(p[0]),
                prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                path: AsPath::from_u32s(p.iter().copied()),
            })
            .collect()
    }

    #[test]
    fn clean_paths_pass_through() {
        let out = sanitize(
            &ps(&[&[1, 2, 3], &[4, 5, 6, 7]]),
            &SanitizeConfig::default(),
        );
        assert_eq!(out.samples.len(), 2);
        assert_eq!(out.report.output_paths, 2);
        assert_eq!(out.report.discarded_loops, 0);
    }

    #[test]
    fn loops_discarded() {
        let out = sanitize(&ps(&[&[1, 2, 1], &[1, 2, 3]]), &SanitizeConfig::default());
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.report.discarded_loops, 1);
    }

    #[test]
    fn reserved_asns_discarded() {
        let out = sanitize(
            &ps(&[&[1, 64512, 3], &[1, 0, 3], &[1, 23456, 3]]),
            &SanitizeConfig::default(),
        );
        assert!(out.samples.is_empty());
        assert_eq!(out.report.discarded_reserved, 3);
    }

    #[test]
    fn prepending_compressed_and_counted() {
        let out = sanitize(&ps(&[&[1, 2, 2, 2, 3]]), &SanitizeConfig::default());
        assert_eq!(out.samples[0].path, AsPath::from_u32s([1, 2, 3]));
        assert_eq!(out.report.compressed_prepending, 1);
    }

    #[test]
    fn ixp_asns_stripped() {
        let cfg = SanitizeConfig::with_ixps([Asn(900)]);
        let out = sanitize(&ps(&[&[1, 900, 2, 3]]), &cfg);
        assert_eq!(out.samples[0].path, AsPath::from_u32s([1, 2, 3]));
        assert_eq!(out.report.stripped_ixp, 1);
    }

    #[test]
    fn ixp_stripping_can_rescue_loopish_paths() {
        // 1 900 1 2: after stripping 900, "1 1 2" compresses to "1 2".
        let cfg = SanitizeConfig::with_ixps([Asn(900)]);
        let out = sanitize(&ps(&[&[1, 900, 1, 2]]), &cfg);
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.samples[0].path, AsPath::from_u32s([1, 2]));
    }

    #[test]
    fn short_paths_discarded() {
        let cfg = SanitizeConfig::with_ixps([Asn(900)]);
        let out = sanitize(&ps(&[&[1, 900], &[5, 5, 5]]), &cfg);
        assert!(out.samples.is_empty());
        assert_eq!(out.report.discarded_short, 2);
    }

    #[test]
    fn thread_counts_do_not_change_sanitization() {
        let raw: Vec<Vec<u32>> = (0..500)
            .map(|i| match i % 4 {
                0 => vec![i, i + 1, i + 2],
                1 => vec![i, i + 1, i],         // loop
                2 => vec![i, 64512, i + 2],     // reserved
                _ => vec![i, i + 1, i + 1, i + 2], // prepending
            })
            .collect();
        let refs: Vec<&[u32]> = raw.iter().map(Vec::as_slice).collect();
        let set = ps(&refs);
        let cfg = SanitizeConfig::default();
        let seq = sanitize_with(&set, &cfg, Parallelism::sequential());
        let par = sanitize_with(&set, &cfg, Parallelism::threads(4));
        assert_eq!(seq.report, par.report);
        assert_eq!(seq.samples.len(), par.samples.len());
        for (a, b) in seq.samples.iter().zip(&par.samples) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.vp, b.vp);
            assert_eq!(a.prefix, b.prefix);
        }
    }

    #[test]
    fn kept_paths_carry_their_adjacencies() {
        let out = sanitize(&ps(&[&[1, 2, 3], &[3, 2, 1]]), &SanitizeConfig::default());
        let links: HashSet<AsLink> = out
            .paths()
            .flat_map(|p| p.links().map(|(a, b)| AsLink::new(a, b)))
            .collect();
        assert_eq!(links.len(), 2);
        assert!(links.contains(&AsLink::new(Asn(1), Asn(2))));
        assert!(links.contains(&AsLink::new(Asn(2), Asn(3))));
    }

    /// Differential pin of the one-pass cleaner against the composition
    /// it folds, written out step by step. `infer_monolithic` runs the
    /// same sanitizer as the engine, so no equivalence suite can see an
    /// S1 bug; this is S1's own oracle.
    mod one_pass_oracle {
        use super::*;
        use proptest::prelude::*;

        /// IXP route servers of the differential runs.
        const RS: u32 = 900;
        const RS2: u32 = 901;

        /// compress prepending → drop IXP hops → compress again → loop
        /// check → length check, each step counting what it did.
        fn composed(
            path: &AsPath,
            ixps: &HashSet<Asn>,
            report: &mut SanitizeReport,
        ) -> Option<AsPath> {
            if !path.all_routable() {
                report.discarded_reserved += 1;
                return None;
            }
            let compressed = path.compress_prepending();
            if compressed.len() != path.len() {
                report.compressed_prepending += 1;
            }
            let mut hops = compressed.0;
            let before = hops.len();
            hops.retain(|a| !ixps.contains(a));
            if hops.len() != before {
                report.stripped_ixp += 1;
            }
            let cleaned = AsPath(hops).compress_prepending();
            if cleaned.has_loop() {
                report.discarded_loops += 1;
                return None;
            }
            if cleaned.len() < 2 {
                report.discarded_short += 1;
                return None;
            }
            Some(cleaned)
        }

        /// Both cleaners on one raw path, with and without the IXP list.
        fn assert_agree(raw: &[u32]) {
            let path = AsPath::from_u32s(raw.iter().copied());
            for cfg in [
                SanitizeConfig::default(),
                SanitizeConfig::with_ixps([Asn(RS), Asn(RS2)]),
            ] {
                let (mut got, mut want) = (SanitizeReport::default(), SanitizeReport::default());
                let clean = sanitize_path(&path, &cfg.sorted_ixps(), &mut got);
                assert_eq!(
                    clean,
                    composed(&path, &cfg.ixp_asns, &mut want),
                    "path {raw:?}"
                );
                assert_eq!(got, want, "counters of path {raw:?}");
                assert_eq!(
                    sample_fate(&path, &cfg.sorted_ixps()),
                    SampleFate { clean, delta: got }
                );
            }
        }

        #[test]
        fn route_server_edge_cases() {
            for raw in [
                &[1, RS, RS, 2][..],
                &[1, RS, 1],
                &[1, RS, 1, 2],
                &[1, 1, RS, 1, 2],
                &[RS, 1, 2],
                &[1, 2, RS],
                &[1, RS, RS2, 2],
                &[1, RS, 2, RS, 1],
                &[RS, RS],
                &[],
                &[1],
                &[1, 2, 64512, 2],
            ] {
                assert_agree(raw);
            }
        }

        /// Hops from a small universe (so loops are common), the two
        /// route servers, and reserved ASNs. One hop in eight repeats
        /// 2–3 times to draw prepending; the rest stay single so that
        /// paths without a raw prepend, such as `x RS x`, are common.
        fn raw_path() -> impl Strategy<Value = Vec<u32>> {
            let hop = (0u32..13, 0usize..4).prop_map(|(k, r)| match k {
                0..=7 => 1 + k % 6,
                8..=10 => RS,
                11 => RS2,
                _ => [0, 23456, 64512, 4_200_000_000][r],
            });
            proptest::collection::vec((hop, 0usize..16), 0..7).prop_map(|runs| {
                runs.into_iter()
                    .flat_map(|(h, r)| std::iter::repeat_n(h, 1 + r.saturating_sub(13)))
                    .collect()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            #[test]
            fn one_pass_sanitize_matches_composition(raw in raw_path()) {
                assert_agree(&raw);
            }
        }
    }
}
