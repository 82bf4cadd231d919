//! `delta-flap-8k` and `delta-churn-8k`: a long-lived incremental session
//! (`asrank timeline`) fed a trace of BGP4MP update dumps. Each op is the
//! time from dump bytes to refreshed artifacts: decode, apply, refresh.
//!
//! The trace alternates a batch with its exact inverse, so the session
//! returns to the base table every second dump and every op does the same
//! amount of work. Two distinct batch pairs, cycled.
//!
//! * flap: 1% of the samples re-announced with another sample's path
//!   that shares its first two hops, keeping the distinct path set (only
//!   multiplicities move) — the dirty-aspect fast path where 4 of 16
//!   stages rerun.
//! * churn: 20% mixed withdrawals of live entries and announcements of
//!   never-seen paths — every stage reruns on a small input, so the
//!   engine's stage code dominates, not decode.

use crate::scenario::{build_inputs, Inputs, MRT_TIMESTAMP};
use crate::trace::{count, span};
use crate::{ppv, set_up, Measured, Run};
use asrank_core::delta::DeltaSession;
use asrank_core::engine::Snapshot;
use asrank_core::persist::encode_artifact;
use asrank_core::pipeline::InferenceConfig;
use asrank_core::Artifact;
use asrank_types::update::UpdateMessage;
use asrank_types::{AsPath, Asn, Ipv4Prefix, PathDelta, PathSample, PathSet, UpdateBatch};
use rand::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Which trace a delta workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// 1% multiplicity-preserving path swaps.
    Flap,
    /// 20% withdrawals plus never-seen paths.
    Mixed,
}

/// Distinct batch pairs in a trace.
pub const PAIRS: usize = 2;
/// Forward batches checked against a cold run, per run.
const CHECKPOINTS: usize = 3;

/// A batch and its exact inverse.
pub struct ChurnPair {
    /// Applied to the base table.
    pub forward: UpdateBatch,
    /// Applied right after `forward`; restores the base table.
    pub backward: UpdateBatch,
}

/// Paths sanitization passes through untouched: no repeated ASN and at
/// least three hops, so swapping between them moves no sanitize counter.
fn is_simple(path: &AsPath) -> bool {
    let h = &path.0;
    h.len() >= 3 && (1..h.len()).all(|i| !h[..i].contains(&h[i]))
}

/// Multiplicity-preserving churn over `pct`% of the samples: re-announce
/// a key with the path of another sample sharing its first two hops (so
/// `(vp, first hop)` evidence totals hold). A path retired `r` times
/// needs `r + 1` occurrences, so its live count stays positive at every
/// point of either batch and the distinct path set never changes.
pub fn swap_churn(paths: &PathSet, pct: usize, seed: u64) -> ChurnPair {
    let samples: Vec<&PathSample> = paths.iter().collect();
    let mut occurrences: HashMap<&AsPath, u32> = HashMap::new();
    for s in &samples {
        *occurrences.entry(&s.path).or_default() += 1;
    }
    let mut pools: BTreeMap<(Asn, Asn), Vec<usize>> = BTreeMap::new();
    for (i, s) in samples.iter().enumerate() {
        if is_simple(&s.path) {
            pools.entry((s.path.0[0], s.path.0[1])).or_default().push(i);
        }
    }
    let target = samples.len() * pct / 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used: HashSet<(Asn, Ipv4Prefix)> = HashSet::new();
    let mut retired: HashMap<&AsPath, u32> = HashMap::new();
    let (mut forward, mut backward) = (Vec::new(), Vec::new());
    let mut attempts = 0usize;
    while forward.len() < target && attempts < samples.len() * 20 {
        attempts += 1;
        let s = samples[rng.random_range(0..samples.len())];
        if !is_simple(&s.path) || used.contains(&(s.vp, s.prefix)) {
            continue;
        }
        if retired.get(&s.path).copied().unwrap_or(0) + 1 >= occurrences[&s.path] {
            continue;
        }
        let pool = &pools[&(s.path.0[0], s.path.0[1])];
        let other = &samples[pool[rng.random_range(0..pool.len())]].path;
        if *other == s.path {
            continue;
        }
        used.insert((s.vp, s.prefix));
        *retired.entry(&s.path).or_default() += 1;
        forward.push((s.vp, s.prefix, PathDelta::Announce(other.clone())));
        backward.push((s.vp, s.prefix, PathDelta::Announce(s.path.clone())));
    }
    ChurnPair {
        forward: UpdateBatch::from_deltas(forward),
        backward: UpdateBatch::from_deltas(backward),
    }
}

/// Structural churn over `pct`% of the samples: half withdrawals of live
/// entries, half announcements of never-seen paths (a unique trailing
/// ASN) under fresh /24s. Both halves change the distinct path set.
pub fn mixed_churn(paths: &PathSet, pct: usize, seed: u64) -> ChurnPair {
    let samples: Vec<&PathSample> = paths.iter().collect();
    let taken: HashSet<Ipv4Prefix> = samples.iter().map(|s| s.prefix).collect();
    let target = samples.len() * pct / 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used: HashSet<(Asn, Ipv4Prefix)> = HashSet::new();
    let (mut forward, mut backward) = (Vec::new(), Vec::new());
    let mut fresh = 0u32;
    for k in 0..target {
        let s = samples[rng.random_range(0..samples.len())];
        if k % 2 == 0 {
            if used.insert((s.vp, s.prefix)) {
                forward.push((s.vp, s.prefix, PathDelta::Withdraw));
                backward.push((s.vp, s.prefix, PathDelta::Announce(s.path.clone())));
            }
        } else {
            // A /24 in 100.64.0.0/10 and up that no sample holds.
            let prefix = loop {
                let p = Ipv4Prefix::new(0x6440_0000u32.wrapping_add(fresh << 8), 24)
                    .expect("a /24 network address");
                fresh += 1;
                if !taken.contains(&p) {
                    break p;
                }
            };
            let mut hops: Vec<u32> = s.path.0.iter().map(|a| a.0).collect();
            hops.push(3_000_000 + k as u32);
            forward.push((s.vp, prefix, PathDelta::Announce(AsPath::from_u32s(hops))));
            backward.push((s.vp, prefix, PathDelta::Withdraw));
        }
    }
    ChurnPair {
        forward: UpdateBatch::from_deltas(forward),
        backward: UpdateBatch::from_deltas(backward),
    }
}

/// Encode a batch as one BGP4MP update dump: one message per vantage
/// point carrying its withdrawals and announcements.
pub fn encode_dump(batch: &UpdateBatch) -> Result<Vec<u8>, String> {
    let mut per_vp: BTreeMap<Asn, UpdateMessage> = BTreeMap::new();
    for (vp, prefix, delta) in batch.iter() {
        let msg = per_vp.entry(*vp).or_insert_with(|| UpdateMessage {
            vp: *vp,
            ..UpdateMessage::default()
        });
        match delta {
            PathDelta::Withdraw => msg.withdrawn.push(*prefix),
            PathDelta::Announce(path) => msg.announced.push((*prefix, path.clone())),
        }
    }
    let messages: Vec<UpdateMessage> = per_vp.into_values().collect();
    let mut out = Vec::new();
    mrt_codec::write_update_stream(&messages, &mut out, MRT_TIMESTAMP)
        .map_err(|e| format!("encoding an update dump: {e}"))?;
    Ok(out)
}

/// Serialized frames of a cold snapshot over `paths`: the oracle the
/// `delta_equivalence` suite uses.
pub fn cold_frames(paths: &PathSet, cfg: &InferenceConfig) -> Result<Vec<Vec<u8>>, String> {
    let mut snap = Snapshot::new(paths, cfg.clone());
    Snapshot::stage_names()
        .iter()
        .map(|name| {
            snap.materialize(name)
                .map(|a| encode_artifact(&a))
                .map_err(|e| format!("oracle stage {name}: {e}"))
        })
        .collect()
}

/// The first stage whose held artifact does not serialize to the
/// oracle's frame, if any.
pub fn first_mismatch(artifacts: &[Artifact], oracle: &[Vec<u8>]) -> Option<&'static str> {
    let names = Snapshot::stage_names();
    if artifacts.len() != oracle.len() {
        return Some("stage count");
    }
    artifacts
        .iter()
        .zip(oracle)
        .position(|(a, want)| encode_artifact(a) != *want)
        .map(|i| names[i])
}

/// What the set-up leaves for the op loop.
pub struct Prepared {
    /// The RIB as decoded, the base of every batch pair.
    pub base: PathSet,
    /// The session, holding the base table.
    pub session: DeltaSession,
    /// Batch pairs, in trace order.
    pub pairs: Vec<ChurnPair>,
    /// `[fwd 1, back 1, fwd 2, back 2, ...]` as BGP4MP dumps.
    pub dumps: Vec<Vec<u8>>,
}

/// One batch pair of a trace of kind `churn`.
fn batch_pair(churn: Churn, base: &PathSet, seed: u64) -> ChurnPair {
    match churn {
        Churn::Flap => swap_churn(base, 1, seed),
        Churn::Mixed => mixed_churn(base, 20, seed),
    }
}

/// Read and decode the RIB, start the session, and build the trace:
/// everything `asrank timeline` does before its first dump.
pub fn prepare(inputs: &Inputs, churn: Churn, seed: u64) -> Result<Prepared, String> {
    let bytes = {
        let _s = span("io.read_rib");
        std::fs::read(&inputs.rib).map_err(|e| format!("reading {}: {e}", inputs.rib.display()))?
    };
    let base = {
        let _s = span("mrt.rib_decode");
        mrt_codec::read_rib_dump_parallel(&bytes, inputs.cfg.parallelism)
            .map_err(|e| format!("decoding the RIB: {e}"))?
    };
    let session = {
        let _s = span("delta.session_new");
        DeltaSession::new(base.clone(), inputs.cfg.clone()).map_err(|e| e.to_string())?
    };
    let _s = span("delta.build_trace");
    let pairs: Vec<ChurnPair> = (0..PAIRS as u64)
        .map(|k| batch_pair(churn, &base, seed.wrapping_mul(31).wrapping_add(k)))
        .collect();
    let mut dumps = Vec::new();
    for pair in &pairs {
        dumps.push(encode_dump(&pair.forward)?);
        dumps.push(encode_dump(&pair.backward)?);
    }
    Ok(Prepared {
        base,
        session,
        pairs,
        dumps,
    })
}

/// One op: decode a dump, apply it, refresh. Returns the batch size.
pub fn step(
    session: &mut DeltaSession,
    dump: &[u8],
    cfg: &InferenceConfig,
) -> Result<usize, String> {
    let batch = {
        let _s = span("mrt.update_decode");
        mrt_codec::read_update_batch(dump, cfg.parallelism).map_err(|e| e.to_string())?
    };
    {
        let _s = span("delta.apply");
        session.apply(&batch).map_err(|e| e.to_string())?;
    }
    let outcome = {
        let _s = span("delta.refresh");
        session.refresh().map_err(|e| e.to_string())?
    };
    count("delta.stages_recomputed", outcome.recomputed as f64);
    Ok(batch.len())
}

/// Run a delta workload.
pub fn run(run: &Run, dir: &Path, churn: Churn) -> Result<Measured, String> {
    let ((inputs, prepared), secs) = set_up(|| {
        let inputs = build_inputs(run.workload.tier(), run.seed, dir)?;
        let prepared = prepare(&inputs, churn, run.seed)?;
        Ok((inputs, prepared))
    })?;
    let Prepared {
        base,
        mut session,
        pairs,
        dumps,
    } = prepared;
    crate::trace::set_enabled(false);
    let mut m = Measured::new(secs);
    m.samples = inputs.samples;
    // Accuracy of the session's first emission, over the RIB itself: the
    // dumps are synthetic churn, not routing truth.
    let inference = session.inference().map_err(|e| e.to_string())?;
    m.ppv = ppv(&inference.relationships, &inputs.truth);
    // The table every batch so far leads to, by the rebuild-from-scratch
    // semantics of `UpdateBatch::apply`; kept until the last checkpoint.
    let mut oracle = Some(base);
    let mut checks = 0usize;
    let mut measured = 0.0f64;
    let mut i = 0usize;
    while run.more_ops(i, measured) {
        let traced = run.trace_op(i);
        m.attempted += 1;
        let t = Instant::now();
        let result = step(&mut session, &dumps[i % dumps.len()], &inputs.cfg);
        let op_secs = t.elapsed().as_secs_f64();
        measured += op_secs;
        crate::trace::set_enabled(false);
        match result {
            Ok(items) => m.record_op(op_secs, items as f64, traced),
            Err(e) => {
                // The session is unusable after a failed apply.
                m.fail(&e);
                break;
            }
        }
        // Untimed: byte equality with a cold run after the first few
        // forward batches.
        if let Some(table) = oracle.take() {
            let pair = &pairs[(i % dumps.len()) / 2];
            let batch = if i.is_multiple_of(2) {
                &pair.forward
            } else {
                &pair.backward
            };
            let table = batch.apply(table);
            if i.is_multiple_of(2) {
                checks += 1;
                m.attempted += 1;
                let want = cold_frames(&table, &inputs.cfg)?;
                if let Some(stage) = first_mismatch(session.artifacts(), &want) {
                    m.fail(&format!(
                        "after dump {i}: stage {stage} differs from a cold run"
                    ));
                }
            }
            if checks < CHECKPOINTS {
                oracle = Some(table);
            }
        }
        i += 1;
    }
    std::fs::write(dir.join("dump-0.mrt"), &dumps[0])
        .map_err(|e| format!("writing the first dump: {e}"))?;
    m.peak_rss_kib = crate::rss_child(run, dir)?;
    if run.trace {
        crate::layers::pass(run, &inputs, dir, None)?;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::inference_inputs;
    use as_topology_gen::{generate, TopologyConfig};
    use asrank_types::Parallelism;

    fn tiny() -> (PathSet, InferenceConfig) {
        let topo = generate(&TopologyConfig::tiny(), 5);
        let mut sim = bgp_sim::SimConfig::defaults(5);
        sim.anomalies = bgp_sim::AnomalyConfig::realistic(topo.ground_truth.clique());
        let paths = bgp_sim::simulate(&topo, &sim).paths;
        let (mut cfg, _) = inference_inputs(topo);
        cfg.parallelism = Parallelism::sequential();
        (paths, cfg)
    }

    fn sorted(paths: PathSet) -> Vec<PathSample> {
        let mut v: Vec<PathSample> = paths.iter().cloned().collect();
        v.sort_by_key(|s| (s.vp, s.prefix));
        v
    }

    #[test]
    fn forward_then_inverse_restores_the_base() {
        let (base, _) = tiny();
        for (pair, in_place) in [
            (swap_churn(&base, 10, 1), true),
            (mixed_churn(&base, 20, 1), false),
        ] {
            assert!(!pair.forward.is_empty());
            let changed = pair.forward.apply(base.clone());
            assert_ne!(sorted(changed.clone()), sorted(base.clone()));
            let restored = pair.backward.apply(changed);
            if in_place {
                // Swaps rewrite paths where they stand: order survives.
                let want: Vec<_> = base.iter().cloned().collect();
                assert_eq!(restored.iter().cloned().collect::<Vec<_>>(), want);
            } else {
                // Re-announced entries return at the end of the table.
                assert_eq!(sorted(restored), sorted(base.clone()));
            }
        }
    }

    #[test]
    fn update_dumps_round_trip() {
        let (base, _) = tiny();
        for pair in [swap_churn(&base, 10, 2), mixed_churn(&base, 20, 2)] {
            for batch in [&pair.forward, &pair.backward] {
                let dump = encode_dump(batch).unwrap();
                let back = mrt_codec::read_update_batch(&dump, Parallelism::threads(2)).unwrap();
                assert_eq!(&back, batch);
            }
        }
    }

    #[test]
    fn frame_check_fires_on_a_tampered_byte() {
        let (base, cfg) = tiny();
        let pair = mixed_churn(&base, 20, 3);
        let mut session = DeltaSession::new(base.clone(), cfg.clone()).unwrap();
        let dump = encode_dump(&pair.forward).unwrap();
        assert_eq!(step(&mut session, &dump, &cfg).unwrap(), pair.forward.len());
        let mut want = cold_frames(&pair.forward.apply(base), &cfg).unwrap();
        assert_eq!(first_mismatch(session.artifacts(), &want), None);
        let last = want[4].len() - 1;
        want[4][last] ^= 1;
        assert_eq!(
            first_mismatch(session.artifacts(), &want),
            Some(Snapshot::stage_names()[4])
        );
    }
}
