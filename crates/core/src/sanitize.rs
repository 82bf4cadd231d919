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

/// Sanitized dataset: the cleaned samples as struct-of-arrays, plus the
/// report.
///
/// Sample `i` is the path `hops[offsets[i]..offsets[i + 1]]` observed at
/// vantage point `vp[i]` for `prefix[i]`, in input order. Every cleaned
/// path is loop-free, prepending-free, made of routable ASNs with IXP
/// hops removed, and ≥ 2 hops long. All hops live in the one flat buffer
/// (no heap allocation per sample), which the path arena hashes and the
/// cache frame writes in place. Read it through [`SanitizedPaths::iter`]
/// or [`SanitizedPaths::paths`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizedPaths {
    /// Vantage point of each sample.
    pub(crate) vp: Vec<Asn>,
    /// Prefix of each sample.
    pub(crate) prefix: Vec<Ipv4Prefix>,
    /// `len() + 1` monotone offsets into `hops`, starting at 0.
    pub(crate) offsets: Vec<u32>,
    /// Cleaned hops of every sample, concatenated in sample order.
    pub(crate) hops: Vec<Asn>,
    /// What happened during cleaning.
    pub report: SanitizeReport,
}

impl Default for SanitizedPaths {
    fn default() -> Self {
        SanitizedPaths::with_capacity(0, 0)
    }
}

impl SanitizedPaths {
    /// An empty set with room for `samples` samples of `hops` hops in
    /// total.
    pub(crate) fn with_capacity(samples: usize, hops: usize) -> Self {
        let mut offsets = Vec::with_capacity(samples + 1);
        offsets.push(0);
        SanitizedPaths {
            vp: Vec::with_capacity(samples),
            prefix: Vec::with_capacity(samples),
            offsets,
            hops: Vec::with_capacity(hops),
            report: SanitizeReport::default(),
        }
    }

    /// Append one cleaned sample.
    pub(crate) fn push(&mut self, vp: Asn, prefix: Ipv4Prefix, hops: &[Asn]) {
        self.hops.extend_from_slice(hops);
        self.seal(vp, prefix);
    }

    /// Close the sample whose hops were just appended to `hops`.
    pub(crate) fn seal(&mut self, vp: Asn, prefix: Ipv4Prefix) {
        self.vp.push(vp);
        self.prefix.push(prefix);
        self.offsets.push(dense_id(self.hops.len()));
    }

    /// Append every sample of `other`, shifting its offsets. The report
    /// is left alone.
    fn append(&mut self, other: &SanitizedPaths) {
        let base = dense_id(self.hops.len());
        self.vp.extend_from_slice(&other.vp);
        self.prefix.extend_from_slice(&other.prefix);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
        self.hops.extend_from_slice(&other.hops);
    }

    /// Number of cleaned samples.
    pub fn len(&self) -> usize {
        self.vp.len()
    }

    /// True when no sample survived.
    pub fn is_empty(&self) -> bool {
        self.vp.is_empty()
    }

    /// Cleaned hops of sample `i`, VP first.
    pub fn path(&self, i: usize) -> &[Asn] {
        &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterate over the samples as `(vp, prefix, cleaned hops)`, in input
    /// order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Asn, Ipv4Prefix, &[Asn])> + '_ {
        (0..self.len()).map(|i| (self.vp[i], self.prefix[i], self.path(i)))
    }

    /// Iterate over the cleaned AS paths.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &[Asn]> + '_ {
        (0..self.len()).map(|i| self.path(i))
    }
}

/// Sanitize one path in a single pass, appending the cleaned hops to
/// `out`. Returns `false` (with the reason recorded in `report`, and
/// `out` truncated back to its length on entry) when the path must be
/// discarded. `ixps` is the IXP route-server list, sorted ascending.
///
/// The pass is the composition compress prepending → strip IXP hops →
/// recompress → loop check, folded into one walk that writes only the
/// cleaned path:
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
fn sanitize_path(
    raw: &[Asn],
    ixps: &[Asn],
    report: &mut SanitizeReport,
    out: &mut Vec<Asn>,
) -> bool {
    let start = out.len();
    let (mut prepended, mut stripped, mut looped) = (false, false, false);
    for (i, &asn) in raw.iter().enumerate() {
        if !asn.is_routable() {
            report.discarded_reserved += 1;
            out.truncate(start);
            return false;
        }
        if i > 0 && raw[i - 1] == asn {
            prepended = true;
        } else if ixps.binary_search(&asn).is_ok() {
            stripped = true;
        } else {
            let kept = &out[start..];
            if kept.last() != Some(&asn) {
                looped |= kept.contains(&asn);
                out.push(asn);
            }
        }
    }
    report.compressed_prepending += usize::from(prepended);
    report.stripped_ixp += usize::from(stripped);
    if looped {
        report.discarded_loops += 1;
        out.truncate(start);
        return false;
    }
    if out.len() - start < 2 {
        report.discarded_short += 1;
        out.truncate(start);
        return false;
    }
    true
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
    let mut hops = Vec::with_capacity(path.len());
    let clean = sanitize_path(&path.0, ixps, &mut delta, &mut hops).then_some(AsPath(hops));
    SampleFate { clean, delta }
}

/// Sanitize a whole path set (S1 of the pipeline).
pub fn sanitize(paths: &PathSet, cfg: &SanitizeConfig) -> SanitizedPaths {
    sanitize_with(paths, cfg, Parallelism::auto())
}

/// [`sanitize`] with an explicit thread budget. Paths are independent, so
/// contiguous sample ranges are cleaned on worker threads, each into its
/// own flat buffers, and concatenated in input order; report counters
/// are sums of per-range counters. The output is identical for every
/// `par` value.
pub fn sanitize_with(paths: &PathSet, cfg: &SanitizeConfig, par: Parallelism) -> SanitizedPaths {
    let ixps = cfg.sorted_ixps();
    let per_range = crate::par::map_ranges(par, 256, paths.len(), |range| {
        // Cleaned paths average about five hops; reserving six per sample
        // spares the hop buffer its regrowth copies, and the pages a
        // range never writes are never touched.
        let mut out = SanitizedPaths::with_capacity(range.len(), range.len() * 6);
        for s in paths.iter().skip(range.start).take(range.len()) {
            if sanitize_path(&s.path.0, &ixps, &mut out.report, &mut out.hops) {
                out.seal(s.vp, s.prefix);
            }
        }
        out
    });

    let mut chunks = per_range.into_iter();
    // The first range's buffers become the output, so a sequential run
    // copies nothing.
    let mut out = chunks.next().unwrap_or_default();
    for chunk in chunks {
        out.append(&chunk);
        let (r, c) = (&mut out.report, &chunk.report);
        r.discarded_loops += c.discarded_loops;
        r.discarded_reserved += c.discarded_reserved;
        r.discarded_short += c.discarded_short;
        r.compressed_prepending += c.compressed_prepending;
        r.stripped_ixp += c.stripped_ixp;
    }
    out.report.input_paths = paths.len();
    out.report.output_paths = out.len();
    out
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

    fn hops(raw: &[u32]) -> Vec<Asn> {
        raw.iter().copied().map(Asn).collect()
    }

    #[test]
    fn clean_paths_pass_through() {
        let out = sanitize(
            &ps(&[&[1, 2, 3], &[4, 5, 6, 7]]),
            &SanitizeConfig::default(),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.report.output_paths, 2);
        assert_eq!(out.report.discarded_loops, 0);
    }

    #[test]
    fn loops_discarded() {
        let out = sanitize(&ps(&[&[1, 2, 1], &[1, 2, 3]]), &SanitizeConfig::default());
        assert_eq!(out.len(), 1);
        assert_eq!(out.report.discarded_loops, 1);
    }

    #[test]
    fn reserved_asns_discarded() {
        let out = sanitize(
            &ps(&[&[1, 64512, 3], &[1, 0, 3], &[1, 23456, 3]]),
            &SanitizeConfig::default(),
        );
        assert!(out.is_empty());
        assert_eq!(out.report.discarded_reserved, 3);
    }

    #[test]
    fn prepending_compressed_and_counted() {
        let out = sanitize(&ps(&[&[1, 2, 2, 2, 3]]), &SanitizeConfig::default());
        assert_eq!(out.path(0), hops(&[1, 2, 3]));
        assert_eq!(out.report.compressed_prepending, 1);
    }

    #[test]
    fn ixp_asns_stripped() {
        let cfg = SanitizeConfig::with_ixps([Asn(900)]);
        let out = sanitize(&ps(&[&[1, 900, 2, 3]]), &cfg);
        assert_eq!(out.path(0), hops(&[1, 2, 3]));
        assert_eq!(out.report.stripped_ixp, 1);
    }

    #[test]
    fn ixp_stripping_can_rescue_loopish_paths() {
        // 1 900 1 2: after stripping 900, "1 1 2" compresses to "1 2".
        let cfg = SanitizeConfig::with_ixps([Asn(900)]);
        let out = sanitize(&ps(&[&[1, 900, 1, 2]]), &cfg);
        assert_eq!(out.len(), 1);
        assert_eq!(out.path(0), hops(&[1, 2]));
    }

    #[test]
    fn short_paths_discarded() {
        let cfg = SanitizeConfig::with_ixps([Asn(900)]);
        let out = sanitize(&ps(&[&[1, 900], &[5, 5, 5]]), &cfg);
        assert!(out.is_empty());
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
        assert_eq!(seq, par);
    }

    #[test]
    fn kept_paths_carry_their_adjacencies() {
        let out = sanitize(&ps(&[&[1, 2, 3], &[3, 2, 1]]), &SanitizeConfig::default());
        let links: HashSet<AsLink> = out
            .paths()
            .flat_map(|p| p.windows(2).map(|w| AsLink::new(w[0], w[1])))
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
        /// The one-pass cleaner appends behind a hop already in its
        /// buffer: it must leave that hop alone, and truncate back to it
        /// when it discards the path.
        fn assert_agree(raw: &[u32]) {
            let path = AsPath::from_u32s(raw.iter().copied());
            for cfg in [
                SanitizeConfig::default(),
                SanitizeConfig::with_ixps([Asn(RS), Asn(RS2)]),
            ] {
                let (mut got, mut want) = (SanitizeReport::default(), SanitizeReport::default());
                let mut out = vec![Asn(7)];
                let kept = sanitize_path(&path.0, &cfg.sorted_ixps(), &mut got, &mut out);
                assert_eq!(out[0], Asn(7), "path {raw:?} overwrote the buffer");
                assert_eq!(kept, out.len() > 1, "path {raw:?}");
                let clean = kept.then(|| AsPath(out[1..].to_vec()));
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

            /// The flat output of a whole set is the per-path composition
            /// laid end to end, at every thread count.
            #[test]
            fn flat_set_matches_per_path_composition(
                raws in proptest::collection::vec(raw_path(), 1024..1100),
            ) {
                assert_flat_agrees(&raws);
            }
        }

        /// Samples over `raws`: the VP is the first raw hop (or AS 1), and
        /// every prefix is distinct.
        fn samples_of(raws: &[Vec<u32>]) -> PathSet {
            raws.iter()
                .enumerate()
                .map(|(i, raw)| PathSample {
                    vp: Asn(raw.first().copied().unwrap_or(1)),
                    prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
                    path: AsPath::from_u32s(raw.iter().copied()),
                })
                .collect()
        }

        /// `sanitize_with` over `raws`, sequentially and on four threads
        /// (256-sample ranges once there are ≥ 1024 samples), against the
        /// composition applied path by path. Samples 256..512 all carry
        /// a reserved ASN, so one whole range is discarded.
        fn assert_flat_agrees(raws: &[Vec<u32>]) {
            let mut raws = raws.to_vec();
            for raw in raws.iter_mut().take(512).skip(256) {
                raw.push(64512);
            }
            let set = samples_of(&raws);
            for cfg in [
                SanitizeConfig::default(),
                SanitizeConfig::with_ixps([Asn(RS), Asn(RS2)]),
            ] {
                let mut report = SanitizeReport {
                    input_paths: set.len(),
                    ..Default::default()
                };
                let (mut vp, mut prefix, mut offsets, mut hops) = (vec![], vec![], vec![0], vec![]);
                for s in set.iter() {
                    if let Some(clean) = composed(&s.path, &cfg.ixp_asns, &mut report) {
                        vp.push(s.vp);
                        prefix.push(s.prefix);
                        hops.extend(clean.iter());
                        offsets.push(hops.len() as u32);
                    }
                }
                report.output_paths = vp.len();
                for par in [Parallelism::sequential(), Parallelism::threads(4)] {
                    let out = sanitize_with(&set, &cfg, par);
                    assert_eq!(out.vp, vp);
                    assert_eq!(out.prefix, prefix);
                    assert_eq!(out.offsets, offsets);
                    assert_eq!(out.hops, hops);
                    assert_eq!(out.report, report);
                }
            }
        }

        #[test]
        fn flat_set_with_a_discarded_range() {
            let raws: Vec<Vec<u32>> = (0..1030u32)
                .map(|i| match i % 5 {
                    0 => vec![1 + i % 6, RS, 2 + i % 4, 9],
                    1 => vec![3, 3, 4, 5],
                    2 => vec![1, 2, 1],
                    3 => vec![6],
                    _ => vec![i + 10, i + 11, i + 12, i + 13],
                })
                .collect();
            assert_flat_agrees(&raws);
        }

        /// The S1 cache frame, written out field by field the way the
        /// per-sample encoder wrote it: the report's seven counters, the
        /// sample count, then per sample the VP, the prefix network and
        /// length, and the length-prefixed hops. The flat layout must
        /// encode to exactly these bytes, so a cache written before it
        /// stays valid.
        #[test]
        fn flat_frame_matches_per_sample_encoding() {
            use crate::engine::Artifact;
            use crate::persist::{decode_artifact, encode_artifact, kind};
            use asrank_types::codec::Encoder;
            use std::sync::Arc;

            let raws: Vec<Vec<u32>> = vec![
                vec![1, 2, 2, 3],
                vec![4, 0, 5],
                vec![6, RS, 7],
                vec![4_200_000_001, 8, 9],
                vec![10, 11, 10],
                vec![12, 13],
            ];
            let cfg = SanitizeConfig::with_ixps([Asn(RS)]);
            let out = sanitize_with(&samples_of(&raws), &cfg, Parallelism::sequential());

            let mut e = Encoder::new(kind::SANITIZED);
            let r = &out.report;
            for v in [
                r.input_paths,
                r.output_paths,
                r.discarded_loops,
                r.discarded_reserved,
                r.discarded_short,
                r.compressed_prepending,
                r.stripped_ixp,
            ] {
                e.usize(v);
            }
            let kept: Vec<(usize, Vec<u32>)> =
                vec![(0, vec![1, 2, 3]), (2, vec![6, 7]), (5, vec![12, 13])];
            e.usize(kept.len());
            for (i, hops) in &kept {
                let prefix = Ipv4Prefix::new((*i as u32) << 8, 24).unwrap();
                e.u32(raws[*i][0]);
                e.u32(prefix.network());
                e.u8(prefix.len());
                e.usize(hops.len());
                for &h in hops {
                    e.u32(h);
                }
            }
            let want = e.finish();

            let artifact = Artifact::Sanitized(Arc::new(out.clone()));
            assert_eq!(encode_artifact(&artifact), want);
            match decode_artifact(&want, kind::SANITIZED) {
                Ok(Artifact::Sanitized(back)) => assert_eq!(*back, out),
                other => panic!("decode failed: {other:?}"),
            }
        }
    }
}
