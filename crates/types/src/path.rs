//! BGP AS paths and collections of observed paths.
//!
//! The ASRank algorithm consumes nothing but AS paths observed at vantage
//! points (VPs). [`AsPath`] models one path (VP-side first, origin last),
//! with the operations the sanitization step needs: prepending compression,
//! loop detection, and reserved-ASN screening. [`PathSet`] is the dataset
//! the pipeline ingests: a deduplicated bag of [`PathSample`]s tagged with
//! the VP and prefix they were observed for.

use crate::asn::Asn;
use crate::prefix::Ipv4Prefix;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A BGP AS path, ordered from the vantage point (index 0) toward the
/// origin AS (last index), the same orientation as the wire format.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath(pub Vec<Asn>);

impl AsPath {
    /// Build a path from raw ASN values; first element is the VP side.
    pub fn from_u32s<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        AsPath(iter.into_iter().map(Asn).collect())
    }

    /// Number of hops (ASes) in the path, including any prepending.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the (never legal on the wire, but defensively handled)
    /// empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The AS that originated the route (last hop), if any.
    pub fn origin(&self) -> Option<Asn> {
        self.0.last().copied()
    }

    /// The AS nearest the vantage point (first hop), if any.
    pub fn head(&self) -> Option<Asn> {
        self.0.first().copied()
    }

    /// Iterate over hops from VP to origin.
    pub fn iter(&self) -> impl Iterator<Item = Asn> + '_ {
        self.0.iter().copied()
    }

    /// Return a copy with consecutive duplicate ASNs collapsed.
    ///
    /// BGP speakers prepend their own ASN to lengthen paths for traffic
    /// engineering; prepending carries no relationship information, so the
    /// sanitizer collapses it first (paper §3, step 1).
    ///
    /// ```
    /// use asrank_types::AsPath;
    /// let p = AsPath::from_u32s([7018, 3356, 3356, 3356, 9]);
    /// assert_eq!(p.compress_prepending(), AsPath::from_u32s([7018, 3356, 9]));
    /// ```
    pub fn compress_prepending(&self) -> AsPath {
        let mut out: Vec<Asn> = Vec::with_capacity(self.0.len());
        for &asn in &self.0 {
            if out.last() != Some(&asn) {
                out.push(asn);
            }
        }
        AsPath(out)
    }

    /// True when the same ASN appears at two non-adjacent positions.
    ///
    /// A loop means the path is an artifact (or poisoned) and must be
    /// discarded: BGP's loop prevention makes genuine loops impossible.
    /// Prepending (adjacent repeats) is *not* a loop.
    pub fn has_loop(&self) -> bool {
        let compressed = self.compress_prepending();
        let mut seen = HashSet::with_capacity(compressed.0.len());
        compressed.0.iter().any(|asn| !seen.insert(*asn))
    }

    /// True when every hop is a globally-routable public ASN.
    pub fn all_routable(&self) -> bool {
        self.0.iter().all(|a| a.is_routable())
    }

    /// Iterate over adjacent pairs `(near, far)` from the VP outward.
    pub fn links(&self) -> impl Iterator<Item = (Asn, Asn)> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1]))
    }

    /// Iterate over consecutive triplets `(a, b, c)` from the VP outward.
    ///
    /// Triplets are the unit of evidence in the top-down inference step:
    /// knowing the `a–b` relationship constrains the `b–c` relationship in
    /// a valley-free path.
    pub fn triplets(&self) -> impl Iterator<Item = (Asn, Asn, Asn)> + '_ {
        self.0.windows(3).map(|w| (w[0], w[1], w[2]))
    }

    /// Position of `asn` in the path, if present.
    pub fn position(&self, asn: Asn) -> Option<usize> {
        self.0.iter().position(|&a| a == asn)
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for asn in &self.0 {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}", asn.0)?;
            first = false;
        }
        Ok(())
    }
}

impl From<Vec<Asn>> for AsPath {
    fn from(v: Vec<Asn>) -> Self {
        AsPath(v)
    }
}

/// One observed RIB entry: an AS path for `prefix` seen at vantage point
/// `vp` (which is also the first hop of `path`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathSample {
    /// The AS hosting the vantage point that observed this path.
    pub vp: Asn,
    /// The prefix the path was selected for.
    pub prefix: Ipv4Prefix,
    /// The AS path, VP first, origin last.
    pub path: AsPath,
}

/// A dataset of observed AS paths — the complete input of the inference
/// pipeline, equivalent to the union of all RouteViews/RIS RIB dumps for
/// one snapshot in the paper.
#[derive(Debug, Clone, Default)]
pub struct PathSet {
    samples: Vec<PathSample>,
}

impl PathSet {
    /// Create an empty path set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, sample: PathSample) {
        self.samples.push(sample);
    }

    /// Number of observations (RIB entries), counting duplicates.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no path has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterate over all samples.
    pub fn iter(&self) -> impl Iterator<Item = &PathSample> {
        self.samples.iter()
    }

    /// Iterate over the AS paths only.
    pub fn paths(&self) -> impl Iterator<Item = &AsPath> {
        self.samples.iter().map(|s| &s.path)
    }

    /// Distinct AS paths (the unit the paper reports in its data table).
    pub fn distinct_paths(&self) -> HashSet<&AsPath> {
        self.samples.iter().map(|s| &s.path).collect()
    }

    /// Distinct vantage points contributing at least one path.
    pub fn vantage_points(&self) -> HashSet<Asn> {
        self.samples.iter().map(|s| s.vp).collect()
    }

    /// Distinct prefixes observed.
    pub fn prefixes(&self) -> HashSet<Ipv4Prefix> {
        self.samples.iter().map(|s| s.prefix).collect()
    }

    /// Distinct ASNs appearing anywhere in any path.
    pub fn ases(&self) -> HashSet<Asn> {
        let mut out = HashSet::new();
        for s in &self.samples {
            out.extend(s.path.iter());
        }
        out
    }

    /// Number of distinct prefixes each VP observed, keyed by VP.
    ///
    /// The paper distinguishes *full-feed* VPs (those seeing nearly the
    /// whole routed table) from partial feeds; this map is the raw material
    /// for that classification.
    pub fn prefixes_per_vp(&self) -> HashMap<Asn, usize> {
        let mut per_vp: HashMap<Asn, HashSet<Ipv4Prefix>> = HashMap::new();
        for s in &self.samples {
            per_vp.entry(s.vp).or_default().insert(s.prefix);
        }
        per_vp
            .into_iter()
            .map(|(vp, set)| (vp, set.len()))
            .collect()
    }

    /// VPs that observed at least `threshold` fraction of all prefixes.
    pub fn full_feed_vps(&self, threshold: f64) -> HashSet<Asn> {
        let total = self.prefixes().len();
        if total == 0 {
            return HashSet::new();
        }
        self.prefixes_per_vp()
            .into_iter()
            .filter(|&(_, n)| n as f64 >= threshold * total as f64)
            .map(|(vp, _)| vp)
            .collect()
    }

    /// Merge another path set into this one.
    pub fn extend(&mut self, other: PathSet) {
        self.samples.extend(other.samples);
    }

    /// Consume the set and return the raw samples.
    pub fn into_samples(self) -> Vec<PathSample> {
        self.samples
    }

    /// The samples in insertion order.
    pub fn samples(&self) -> &[PathSample] {
        &self.samples
    }

    /// Mutable access to the samples in place — incremental consumers
    /// (delta sessions) patch replaced paths at their positions instead
    /// of rebuilding the vec per update batch.
    pub fn samples_mut(&mut self) -> &mut [PathSample] {
        &mut self.samples
    }

    /// Rebuild a set from raw samples (inverse of [`Self::into_samples`]).
    pub fn from_samples(samples: Vec<PathSample>) -> Self {
        PathSet { samples }
    }

    /// Remove the samples at `positions` (sorted ascending, deduplicated)
    /// in place, preserving the order of the survivors. One compaction
    /// pass, no reallocation — the incremental consumers fold a whole
    /// batch of withdrawals with a single call instead of rebuilding the
    /// vec.
    pub fn remove_sorted_positions(&mut self, positions: &[u32]) {
        if positions.is_empty() {
            return;
        }
        let mut next = 0usize;
        let mut out = 0usize;
        for pos in 0..self.samples.len() {
            if next < positions.len() && positions[next] as usize == pos {
                next += 1;
                continue;
            }
            if out != pos {
                self.samples.swap(out, pos);
            }
            out += 1;
        }
        self.samples.truncate(out);
    }
}

impl FromIterator<PathSample> for PathSet {
    fn from_iter<T: IntoIterator<Item = PathSample>>(iter: T) -> Self {
        PathSet {
            samples: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(vp: u32, pfx: &str, path: &[u32]) -> PathSample {
        PathSample {
            vp: Asn(vp),
            prefix: pfx.parse().unwrap(),
            path: AsPath::from_u32s(path.iter().copied()),
        }
    }

    #[test]
    fn compress_prepending_idempotent() {
        let p = AsPath::from_u32s([1, 1, 2, 3, 3, 3, 4]);
        let c = p.compress_prepending();
        assert_eq!(c, AsPath::from_u32s([1, 2, 3, 4]));
        assert_eq!(c.compress_prepending(), c);
    }

    #[test]
    fn loop_detection_ignores_prepending() {
        assert!(!AsPath::from_u32s([1, 2, 2, 3]).has_loop());
        assert!(AsPath::from_u32s([1, 2, 3, 2]).has_loop());
        assert!(AsPath::from_u32s([1, 2, 1]).has_loop());
        assert!(!AsPath::from_u32s([]).has_loop());
    }

    #[test]
    fn links_and_triplets() {
        let p = AsPath::from_u32s([1, 2, 3, 4]);
        let links: Vec<_> = p.links().collect();
        assert_eq!(
            links,
            vec![(Asn(1), Asn(2)), (Asn(2), Asn(3)), (Asn(3), Asn(4))]
        );
        let trips: Vec<_> = p.triplets().collect();
        assert_eq!(
            trips,
            vec![(Asn(1), Asn(2), Asn(3)), (Asn(2), Asn(3), Asn(4))]
        );
    }

    #[test]
    fn origin_head_display() {
        let p = AsPath::from_u32s([7018, 3356, 9]);
        assert_eq!(p.origin(), Some(Asn(9)));
        assert_eq!(p.head(), Some(Asn(7018)));
        assert_eq!(p.to_string(), "7018 3356 9");
        assert_eq!(AsPath::default().origin(), None);
    }

    #[test]
    fn routable_screening() {
        assert!(AsPath::from_u32s([1, 2, 3]).all_routable());
        assert!(!AsPath::from_u32s([1, 64512, 3]).all_routable());
        assert!(!AsPath::from_u32s([1, 0, 3]).all_routable());
    }

    #[test]
    fn pathset_statistics() {
        let mut ps = PathSet::new();
        ps.push(sample(10, "10.0.0.0/8", &[10, 2, 3]));
        ps.push(sample(10, "11.0.0.0/8", &[10, 2, 4]));
        ps.push(sample(20, "10.0.0.0/8", &[20, 2, 3]));
        ps.push(sample(20, "10.0.0.0/8", &[20, 2, 3])); // duplicate

        assert_eq!(ps.len(), 4);
        assert_eq!(ps.distinct_paths().len(), 3);
        assert_eq!(ps.vantage_points().len(), 2);
        assert_eq!(ps.prefixes().len(), 2);
        assert_eq!(ps.ases().len(), 5);
        let per_vp = ps.prefixes_per_vp();
        assert_eq!(per_vp[&Asn(10)], 2);
        assert_eq!(per_vp[&Asn(20)], 1);
        // VP 10 saw 2/2 prefixes: full feed. VP 20 saw 1/2: partial.
        let full = ps.full_feed_vps(0.8);
        assert!(full.contains(&Asn(10)));
        assert!(!full.contains(&Asn(20)));
    }

    #[test]
    fn empty_pathset_full_feed_is_empty() {
        assert!(PathSet::new().full_feed_vps(0.5).is_empty());
    }

    #[test]
    fn extend_and_into_samples() {
        let mut a = PathSet::new();
        a.push(sample(1, "10.0.0.0/8", &[1, 2]));
        let mut b = PathSet::new();
        b.push(sample(3, "11.0.0.0/8", &[3, 4]));
        a.extend(b);
        assert_eq!(a.len(), 2);
        let samples = a.into_samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].vp, Asn(1));
    }

    #[test]
    fn position_finds_hops() {
        let p = AsPath::from_u32s([5, 6, 7]);
        assert_eq!(p.position(Asn(6)), Some(1));
        assert_eq!(p.position(Asn(9)), None);
    }

    #[test]
    fn remove_sorted_positions_compacts_in_place() {
        let mut set: PathSet = (0..10u32)
            .map(|i| sample(i, "10.0.0.0/8", &[i, i + 1]))
            .collect();
        // Removals at the front, middle, adjacent pair, and last slot.
        set.remove_sorted_positions(&[0, 3, 4, 9]);
        let vps: Vec<u32> = set.iter().map(|s| s.vp.0).collect();
        assert_eq!(vps, vec![1, 2, 5, 6, 7, 8]);
        // Empty removal set is a no-op.
        set.remove_sorted_positions(&[]);
        assert_eq!(set.len(), 6);
        // Removing every survivor empties the set.
        set.remove_sorted_positions(&[0, 1, 2, 3, 4, 5]);
        assert!(set.is_empty());
    }
}
