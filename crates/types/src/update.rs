//! BGP update messages at the AS-path abstraction level.
//!
//! Collectors record two artifact kinds: RIB snapshots ([`crate::PathSet`])
//! and *update streams* — the announcements and withdrawals a vantage
//! point emits as routing reacts to events (link failures, depeerings,
//! new prefixes). [`UpdateMessage`] is the shared vocabulary between the
//! simulator (which produces updates by diffing snapshots around an
//! event) and the MRT codec (which serializes them as `BGP4MP`).

use crate::asn::Asn;
use crate::path::{AsPath, PathSample, PathSet};
use crate::prefix::Ipv4Prefix;
use std::collections::BTreeMap;

/// One logical BGP update from a vantage point: some prefixes withdrawn,
/// some announced with a (shared or per-prefix) path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMessage {
    /// The vantage point emitting the update.
    pub vp: Asn,
    /// Prefixes no longer reachable.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Newly announced or re-announced prefixes with their AS paths
    /// (VP first, origin last).
    pub announced: Vec<(Ipv4Prefix, AsPath)>,
}

impl UpdateMessage {
    /// True when the update carries nothing.
    pub fn is_empty(&self) -> bool {
        self.withdrawn.is_empty() && self.announced.is_empty()
    }

    /// Total prefixes touched.
    pub fn churn(&self) -> usize {
        self.withdrawn.len() + self.announced.len()
    }
}

/// The net effect of an update stream on one routing-table entry.
///
/// A RIB holds at most one best route per `(vantage point, prefix)`
/// pair, so however many announcements and withdrawals a stream carries
/// for that pair, only the last one matters. Folding a stream therefore
/// yields one `PathDelta` per touched entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathDelta {
    /// The entry's best route is now this path (insert or replace).
    Announce(AsPath),
    /// The entry is gone from the table.
    Withdraw,
}

/// A batch of folded routing-table deltas, keyed by `(vp, prefix)` and
/// held in ascending key order so identical update streams always fold
/// to byte-identical batches.
///
/// [`UpdateBatch::apply`] defines the batch's meaning on a [`PathSet`]
/// and doubles as the from-scratch oracle the incremental engine is
/// property-tested against.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateBatch {
    deltas: Vec<(Asn, Ipv4Prefix, PathDelta)>,
}

impl UpdateBatch {
    /// Fold a sequence of update messages, in arrival order, into one
    /// delta per touched `(vp, prefix)` entry. Within a message the
    /// withdrawals apply before the announcements (so an update that
    /// both withdraws and re-announces a prefix nets to the announce);
    /// across messages the later message wins.
    pub fn from_messages<'a, I>(messages: I) -> Self
    where
        I: IntoIterator<Item = &'a UpdateMessage>,
    {
        let mut folded: BTreeMap<(Asn, Ipv4Prefix), PathDelta> = BTreeMap::new();
        for msg in messages {
            for prefix in &msg.withdrawn {
                folded.insert((msg.vp, *prefix), PathDelta::Withdraw);
            }
            for (prefix, path) in &msg.announced {
                folded.insert((msg.vp, *prefix), PathDelta::Announce(path.clone()));
            }
        }
        UpdateBatch {
            deltas: folded
                .into_iter()
                .map(|((vp, prefix), delta)| (vp, prefix, delta))
                .collect(),
        }
    }

    /// Build directly from per-entry deltas (later entries win on key
    /// collisions, matching [`Self::from_messages`]).
    pub fn from_deltas<I>(deltas: I) -> Self
    where
        I: IntoIterator<Item = (Asn, Ipv4Prefix, PathDelta)>,
    {
        let folded: BTreeMap<(Asn, Ipv4Prefix), PathDelta> = deltas
            .into_iter()
            .map(|(vp, prefix, delta)| ((vp, prefix), delta))
            .collect();
        UpdateBatch {
            deltas: folded
                .into_iter()
                .map(|((vp, prefix), delta)| (vp, prefix, delta))
                .collect(),
        }
    }

    /// True when the batch carries no deltas.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Number of `(vp, prefix)` entries touched.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Iterate the deltas in ascending `(vp, prefix)` order.
    pub fn iter(&self) -> impl Iterator<Item = &(Asn, Ipv4Prefix, PathDelta)> {
        self.deltas.iter()
    }

    /// Merge another batch on top of this one (`other` wins collisions).
    pub fn merge(&mut self, other: &UpdateBatch) {
        let mut folded: BTreeMap<(Asn, Ipv4Prefix), PathDelta> = self
            .deltas
            .drain(..)
            .map(|(vp, prefix, delta)| ((vp, prefix), delta))
            .collect();
        for (vp, prefix, delta) in &other.deltas {
            folded.insert((*vp, *prefix), delta.clone());
        }
        self.deltas = folded
            .into_iter()
            .map(|((vp, prefix), delta)| (vp, prefix, delta))
            .collect();
    }

    /// Apply the batch to a path set: existing `(vp, prefix)` samples
    /// are replaced in place (announce) or removed (withdraw), keeping
    /// the surviving samples' relative order; announcements for entries
    /// the set never held are appended in ascending `(vp, prefix)`
    /// order. This pure rebuild-from-scratch semantics is the oracle
    /// the incremental engine must match byte for byte.
    pub fn apply(&self, paths: PathSet) -> PathSet {
        let mut by_key: BTreeMap<(Asn, Ipv4Prefix), (&PathDelta, bool)> = self
            .deltas
            .iter()
            .map(|(vp, prefix, delta)| ((*vp, *prefix), (delta, false)))
            .collect();
        let mut samples = paths.into_samples();
        samples.retain_mut(|sample| {
            match by_key.get_mut(&(sample.vp, sample.prefix)) {
                None => true,
                Some((PathDelta::Withdraw, _)) => false,
                Some((PathDelta::Announce(path), matched)) => {
                    *matched = true;
                    if sample.path != *path {
                        sample.path = path.clone();
                    }
                    true
                }
            }
        });
        for ((vp, prefix), (delta, matched)) in by_key {
            if let (PathDelta::Announce(path), false) = (delta, matched) {
                samples.push(PathSample {
                    vp,
                    prefix,
                    path: path.clone(),
                });
            }
        }
        PathSet::from_samples(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_counts_both_directions() {
        let m = UpdateMessage {
            vp: Asn(1),
            withdrawn: vec!["10.0.0.0/8".parse().unwrap()],
            announced: vec![("11.0.0.0/8".parse().unwrap(), AsPath::from_u32s([1, 2, 3]))],
        };
        assert_eq!(m.churn(), 2);
        assert!(!m.is_empty());
        assert!(UpdateMessage::default().is_empty());
    }

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn sample(vp: u32, prefix: &str, path: &[u32]) -> PathSample {
        PathSample {
            vp: Asn(vp),
            prefix: pfx(prefix),
            path: AsPath::from_u32s(path.iter().copied()),
        }
    }

    #[test]
    fn fold_is_last_wins_per_entry() {
        let messages = vec![
            UpdateMessage {
                vp: Asn(1),
                withdrawn: vec![pfx("10.0.0.0/8")],
                announced: vec![(pfx("11.0.0.0/8"), AsPath::from_u32s([1, 2, 3]))],
            },
            UpdateMessage {
                vp: Asn(1),
                withdrawn: vec![pfx("11.0.0.0/8")],
                announced: vec![(pfx("10.0.0.0/8"), AsPath::from_u32s([1, 9]))],
            },
        ];
        let batch = UpdateBatch::from_messages(&messages);
        assert_eq!(batch.len(), 2);
        let deltas: Vec<_> = batch.iter().cloned().collect();
        assert_eq!(
            deltas[0],
            (
                Asn(1),
                pfx("10.0.0.0/8"),
                PathDelta::Announce(AsPath::from_u32s([1, 9]))
            )
        );
        assert_eq!(deltas[1], (Asn(1), pfx("11.0.0.0/8"), PathDelta::Withdraw));
    }

    #[test]
    fn within_message_announce_beats_withdraw() {
        let msg = UpdateMessage {
            vp: Asn(1),
            withdrawn: vec![pfx("10.0.0.0/8")],
            announced: vec![(pfx("10.0.0.0/8"), AsPath::from_u32s([1, 2]))],
        };
        let batch = UpdateBatch::from_messages(std::iter::once(&msg));
        assert_eq!(
            batch.iter().next().unwrap().2,
            PathDelta::Announce(AsPath::from_u32s([1, 2]))
        );
    }

    #[test]
    fn apply_replaces_removes_and_appends() {
        let base: PathSet = vec![
            sample(1, "10.0.0.0/8", &[1, 2, 3]),
            sample(1, "11.0.0.0/8", &[1, 2, 4]),
            sample(2, "10.0.0.0/8", &[2, 3]),
        ]
        .into_iter()
        .collect();
        let batch = UpdateBatch::from_deltas(vec![
            (
                Asn(1),
                pfx("10.0.0.0/8"),
                PathDelta::Announce(AsPath::from_u32s([1, 5, 3])),
            ),
            (Asn(1), pfx("11.0.0.0/8"), PathDelta::Withdraw),
            (Asn(2), pfx("12.0.0.0/8"), PathDelta::Withdraw),
            (
                Asn(3),
                pfx("13.0.0.0/8"),
                PathDelta::Announce(AsPath::from_u32s([3, 4])),
            ),
        ]);
        let next = batch.apply(base);
        let got: Vec<_> = next.iter().cloned().collect();
        assert_eq!(
            got,
            vec![
                sample(1, "10.0.0.0/8", &[1, 5, 3]),
                sample(2, "10.0.0.0/8", &[2, 3]),
                sample(3, "13.0.0.0/8", &[3, 4]),
            ]
        );
    }

    #[test]
    fn empty_batch_apply_is_identity() {
        let base: PathSet = vec![sample(1, "10.0.0.0/8", &[1, 2])].into_iter().collect();
        let before: Vec<_> = base.iter().cloned().collect();
        let after = UpdateBatch::default().apply(base);
        assert_eq!(after.iter().cloned().collect::<Vec<_>>(), before);
    }

    #[test]
    fn merge_later_batch_wins() {
        let mut a = UpdateBatch::from_deltas(vec![(
            Asn(1),
            pfx("10.0.0.0/8"),
            PathDelta::Announce(AsPath::from_u32s([1, 2])),
        )]);
        let b = UpdateBatch::from_deltas(vec![(Asn(1), pfx("10.0.0.0/8"), PathDelta::Withdraw)]);
        a.merge(&b);
        assert_eq!(a.len(), 1);
        assert_eq!(a.iter().next().unwrap().2, PathDelta::Withdraw);
    }
}
