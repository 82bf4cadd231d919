//! Incremental inference sessions: absorb BGP update batches in place
//! and re-emit snapshots that recompute only the dirty slice of the DAG.
//!
//! A [`DeltaSession`] is the stateful counterpart of a one-shot
//! [`Snapshot`]: it owns the evolving sample set plus the per-sample
//! evidence that makes small updates cheap —
//!
//! * one cached sanitize **fate** per sample (S1 re-derives only the
//!   samples a batch touched, then copies the clean fates into the flat
//!   [`SanitizedPaths`] buffers);
//! * a [`MutablePathArena`] absorbing path add/remove deltas in place,
//!   re-emitting a bit-identical arena on demand;
//! * maintained `(vp, first hop)` distinct-prefix counters, so S6 —
//!   the only relationship step that reads raw samples — classifies
//!   from counters instead of re-scanning every sample.
//!
//! S2 and S3 need no evidence of their own: both read the distinct
//! paths of the arena the walk canonicalizes anyway, so a delta run
//! reruns their bodies over it.
//!
//! Everything else is dirty-set propagation inside the engine
//! (`Snapshot::delta_run`): a stage whose input aspects are all clean is
//! *injected* from the previous emission, a recomputed stage whose
//! output equals its previous artifact cuts the propagation off, and
//! the instrumentation records every decision as
//! [`StageStats::delta_skipped`] / [`StageStats::delta_recomputed`]
//! counters.
//!
//! Equivalence contract: after any sequence of [`DeltaSession::apply`]
//! calls, [`DeltaSession::refresh`] leaves the session holding exactly
//! the artifacts a cold [`Snapshot`] over the same final sample set
//! would produce — byte-identical, at every thread count. The
//! `delta_equivalence` proptests pin this against the [`UpdateBatch::apply`]
//! oracle.
//!
//! [`StageStats::delta_skipped`]: crate::engine::StageStats::delta_skipped
//! [`StageStats::delta_recomputed`]: crate::engine::StageStats::delta_recomputed

use crate::cone::CustomerCones;
use crate::degree::DegreeTable;
use crate::engine::{
    dirt, Artifact, DeltaProvider, Payload, Snapshot, StageReport, StepState, CONE_BGP_OBSERVED,
    CONE_PROVIDER_PEER, CONE_RECURSIVE, PATH_ARENA, S11_INFERENCE, S1_SANITIZE, S2_DEGREES,
    S3_CLIQUE,
};
use crate::patharena::{MutablePathArena, PathArena, PathEvent};
use crate::pipeline::{steps, Inference, InferenceConfig};
use crate::sanitize::{sample_fate, SampleFate, SanitizeReport, SanitizedPaths};
use asrank_types::prelude::*;
use asrank_types::{EngineError, FxHashMap, PathDelta, UpdateBatch};
use std::sync::Arc;

/// What one [`DeltaSession::refresh`] did: how much of the DAG the
/// accumulated batches actually dirtied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Stages that reused the previous emission's artifact.
    pub skipped: usize,
    /// Stages re-executed (incremental provider or full body).
    pub recomputed: usize,
}

/// An inference session that folds update batches into its sample set
/// and recomputes only the affected stages on the next emission.
///
/// ```
/// use asrank_core::delta::DeltaSession;
/// use asrank_core::pipeline::InferenceConfig;
/// use asrank_types::{AsPath, Asn, Ipv4Prefix, PathDelta, PathSample, PathSet, UpdateBatch};
///
/// let paths: PathSet = [[100, 10, 1, 2, 20, 200], [200, 20, 2, 1, 10, 100]]
///     .into_iter()
///     .enumerate()
///     .map(|(i, hops)| PathSample {
///         vp: Asn(hops[0]),
///         prefix: Ipv4Prefix::new((i as u32) << 8, 24).unwrap(),
///         path: AsPath::from_u32s(hops),
///     })
///     .collect();
///
/// let mut session = DeltaSession::new(paths, InferenceConfig::default()).unwrap();
/// let cold = session.inference().unwrap();
///
/// // An empty batch dirties nothing: every stage is a delta skip.
/// session.apply(&UpdateBatch::default()).unwrap();
/// let outcome = session.refresh().unwrap();
/// assert_eq!(outcome.recomputed, 0);
/// assert!(std::sync::Arc::ptr_eq(&cold, &session.inference().unwrap()));
/// ```
#[derive(Clone)]
pub struct DeltaSession {
    /// The evolving sample set, in stable order: surviving samples keep
    /// their positions, replaced paths are rewritten in place, new
    /// announcements append.
    master: PathSet,
    /// One sanitize fate per master sample, positionally aligned.
    fates: Vec<SampleFate>,
    cfg: InferenceConfig,
    /// The configured IXP list, sorted once for [`sample_fate`].
    ixps: Vec<Asn>,
    /// In-place distinct-path table over the clean fates.
    slots: MutablePathArena,
    /// Clean samples per `(vp, first hop)` — S6's distinct-prefix
    /// evidence (exact because `(vp, prefix)` is unique per sample).
    via: FxHashMap<(Asn, Asn), u32>,
    /// Clean samples per vantage point (the S6 share denominators).
    totals: FxHashMap<Asn, u32>,
    /// `(vp, prefix)` → position in `master`/`fates`, maintained across
    /// batches so apply touches only the samples a batch names.
    index: FxHashMap<(Asn, Ipv4Prefix), u32>,
    /// Sums of the per-sample discard/rewrite counters; the structural
    /// totals (`input_paths`/`output_paths`) are derived on emission.
    counters: SanitizeReport,
    /// Samples surviving sanitization.
    clean: usize,
    /// The previous emission's artifact per stage, in DAG order.
    prev: Vec<Artifact>,
    /// Instrumentation of the last emission (cold or delta).
    last_report: StageReport,
    /// The [`dirt`] aspects applied batches touched since the last
    /// emission.
    dirt: u8,
}

impl DeltaSession {
    /// Bind a dataset and configuration, run the cold pipeline once, and
    /// seed the incremental evidence from its artifacts.
    ///
    /// Fails with a typed error when two samples share a `(vp, prefix)`
    /// key — update folding is keyed on that pair, so a duplicated key
    /// would make batch application ambiguous.
    pub fn new(paths: PathSet, cfg: InferenceConfig) -> Result<Self, EngineError> {
        let mut index: FxHashMap<(Asn, Ipv4Prefix), u32> =
            FxHashMap::with_capacity_and_hasher(paths.len(), Default::default());
        for (i, s) in paths.iter().enumerate() {
            if index.insert((s.vp, s.prefix), dense_id(i)).is_some() {
                return Err(EngineError::stage_failed(
                    "delta_session",
                    format!(
                        "duplicate (vp, prefix) sample ({}, {}); update batches fold by that key",
                        s.vp, s.prefix
                    ),
                ));
            }
        }

        // Cold run: materialize all stages, keep the Arc'd artifacts.
        let mut snap = Snapshot::new(&paths, cfg.clone());
        let mut prev = Vec::with_capacity(Snapshot::stage_names().len());
        for name in Snapshot::stage_names() {
            prev.push(snap.materialize(name)?);
        }
        let last_report = snap.stage_report();
        drop(snap);

        let slots = MutablePathArena::from_arena(prev[PATH_ARENA].payload("delta_session")?);

        let mut session = DeltaSession {
            fates: Vec::with_capacity(paths.len()),
            master: paths,
            ixps: cfg.sanitize.sorted_ixps(),
            cfg,
            slots,
            via: FxHashMap::default(),
            totals: FxHashMap::default(),
            index,
            counters: SanitizeReport::default(),
            clean: 0,
            prev,
            last_report,
            dirt: 0,
        };
        for s in session.master.iter() {
            let fate = sample_fate(&s.path, &session.ixps);
            add_report(&mut session.counters, &fate.delta);
            if let Some(path) = &fate.clean {
                session.clean += 1;
                if let Some(key) = vp_key(s.vp, path) {
                    *session.via.entry(key).or_default() += 1;
                    *session.totals.entry(s.vp).or_default() += 1;
                }
            }
            session.fates.push(fate);
        }
        Ok(session)
    }

    /// Fold one update batch into the sample set. Evidence (fates, the
    /// slot table, the S6 counters) is adjusted per touched sample; the
    /// engine runs nothing until [`DeltaSession::refresh`].
    ///
    /// Withdraws of unknown `(vp, prefix)` keys are no-ops, matching
    /// [`UpdateBatch::apply`]. A failure (an internal accounting
    /// invariant violated) leaves the session unusable.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<(), EngineError> {
        if batch.is_empty() {
            return Ok(());
        }
        // In-place pass: replacements rewrite their position, unmatched
        // announcements append in batch (ascending key) order — exactly
        // UpdateBatch::apply's order. Withdrawals of live keys only mark
        // positions; the vec is compacted once afterwards.
        let mut withdrawn: Vec<u32> = Vec::new();
        for d in batch.iter() {
            let (vp, prefix, delta) = (d.0, d.1, &d.2);
            match (self.index.get(&(vp, prefix)).copied(), delta) {
                (Some(i), PathDelta::Withdraw) => {
                    let old = std::mem::replace(
                        &mut self.fates[i as usize],
                        SampleFate {
                            clean: None,
                            delta: SanitizeReport::default(),
                        },
                    );
                    self.retire(vp, &old)?;
                    self.dirt |= dirt::SAMPLES;
                    // Batches fold by key, so this key cannot recur; drop
                    // it now and fix up the surviving positions after the
                    // compaction below.
                    self.index.remove(&(vp, prefix));
                    withdrawn.push(i);
                }
                (None, PathDelta::Withdraw) => {}
                (Some(i), PathDelta::Announce(path)) => {
                    let i = i as usize;
                    if self.master.samples_mut()[i].path == *path {
                        continue;
                    }
                    let fate = sample_fate(path, &self.ixps);
                    self.admit(vp, &fate);
                    let old = std::mem::replace(&mut self.fates[i], fate);
                    self.retire(vp, &old)?;
                    self.dirt |= dirt::SAMPLES;
                    self.master.samples_mut()[i].path = path.clone();
                }
                (None, PathDelta::Announce(path)) => {
                    let fate = sample_fate(path, &self.ixps);
                    self.admit(vp, &fate);
                    self.dirt |= dirt::SAMPLES;
                    self.index
                        .insert((vp, prefix), dense_id(self.master.len()));
                    self.master.push(PathSample {
                        vp,
                        prefix,
                        path: path.clone(),
                    });
                    self.fates.push(fate);
                }
            }
        }
        if !withdrawn.is_empty() {
            // Order-preserving in-place compaction of the withdrawn
            // positions. The withdrawn keys already left the index, so
            // the survivors only need their positions shifted down by
            // the number of withdrawals below them — a value fix-up
            // over the existing map, with no rehashing and no vec
            // rebuild.
            withdrawn.sort_unstable();
            self.master.remove_sorted_positions(&withdrawn);
            let mut next = 0usize;
            let mut out = 0usize;
            for pos in 0..self.fates.len() {
                if next < withdrawn.len() && withdrawn[next] as usize == pos {
                    next += 1;
                    continue;
                }
                if out != pos {
                    self.fates.swap(out, pos);
                }
                out += 1;
            }
            self.fates.truncate(out);
            // lint: allow(nondeterministic-iter, each value is shifted independently; no ordered output is derived from the visit order)
            for v in self.index.values_mut() {
                *v -= withdrawn.partition_point(|&w| w < *v) as u32;
            }
        }
        Ok(())
    }

    /// Re-emit: run the dirty-set propagation over the accumulated
    /// batches, replace the held artifacts, and reset the dirt tokens.
    /// With no dirt accumulated every stage is a skip and the held
    /// `Arc`s are reused untouched.
    pub fn refresh(&mut self) -> Result<DeltaOutcome, EngineError> {
        let mut snap = Snapshot::new(&self.master, self.cfg.clone());
        {
            let mut provider = SessionProvider {
                master: &self.master,
                fates: &self.fates,
                clean: self.clean,
                counters: &self.counters,
                slots: &mut self.slots,
                via: &self.via,
                totals: &self.totals,
                cfg: &self.cfg,
            };
            snap.delta_run(&self.prev, self.dirt, &mut provider)?;
        }
        let mut prev = Vec::with_capacity(Snapshot::stage_names().len());
        for name in Snapshot::stage_names() {
            prev.push(snap.materialize(name)?);
        }
        self.prev = prev;
        self.last_report = snap.stage_report();
        self.dirt = 0;
        let (skipped, recomputed) = self.last_report.stages.iter().fold(
            (0usize, 0usize),
            |(sk, rc), &(_, s)| {
                (
                    sk + s.delta_skipped as usize,
                    rc + s.delta_recomputed as usize,
                )
            },
        );
        Ok(DeltaOutcome { skipped, recomputed })
    }

    /// True when applied batches have dirtied evidence that the next
    /// [`DeltaSession::refresh`] must propagate.
    pub fn pending(&self) -> bool {
        self.dirt != 0
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.master.len()
    }

    /// True when the session holds no samples.
    pub fn is_empty(&self) -> bool {
        self.master.len() == 0
    }

    /// Instrumentation of the last emission (the cold run until the
    /// first [`DeltaSession::refresh`]), including the per-stage
    /// `delta_skipped` / `delta_recomputed` counters.
    pub fn stage_report(&self) -> &StageReport {
        &self.last_report
    }

    /// Every held artifact of the last emission, indexed like
    /// [`Snapshot::stage_names`] — the raw form the typed accessors
    /// draw from, exposed for frame-level equivalence checks.
    pub fn artifacts(&self) -> &[Artifact] {
        &self.prev
    }

    /// The held artifact of stage `idx`, downcast to its payload.
    fn held<T: Payload>(&self, idx: usize) -> Result<Arc<T>, EngineError> {
        self.prev[idx].payload("delta_session").map(Arc::clone)
    }

    /// The held S11 inference of the last emission.
    pub fn inference(&self) -> Result<Arc<Inference>, EngineError> {
        self.held(S11_INFERENCE)
    }

    /// The held Tier-1 clique of the last emission.
    pub fn clique(&self) -> Result<Arc<Vec<Asn>>, EngineError> {
        self.held(S3_CLIQUE)
    }

    /// The held degree table of the last emission.
    pub fn degrees(&self) -> Result<Arc<DegreeTable>, EngineError> {
        self.held(S2_DEGREES)
    }

    /// The held path arena of the last emission.
    pub fn arena(&self) -> Result<Arc<PathArena>, EngineError> {
        self.held(PATH_ARENA)
    }

    /// The held sanitized paths of the last emission.
    pub fn sanitized(&self) -> Result<Arc<SanitizedPaths>, EngineError> {
        self.held(S1_SANITIZE)
    }

    /// The three held cone flavors (recursive, BGP-observed,
    /// provider/peer-observed) of the last emission.
    pub fn cones(
        &self,
    ) -> Result<(Arc<CustomerCones>, Arc<CustomerCones>, Arc<CustomerCones>), EngineError> {
        Ok((
            self.held(CONE_RECURSIVE)?,
            self.held(CONE_BGP_OBSERVED)?,
            self.held(CONE_PROVIDER_PEER)?,
        ))
    }

    /// Remove one sample's contributions from the evidence.
    fn retire(&mut self, vp: Asn, fate: &SampleFate) -> Result<(), EngineError> {
        if let Some(path) = &fate.clean {
            let hops: Vec<u32> = path.0.iter().map(|a| a.0).collect();
            match self.slots.remove_one(&hops) {
                Some(ev) => self.note(ev),
                None => {
                    return Err(EngineError::stage_failed(
                        "delta_session",
                        format!("retiring a clean path absent from the slot table: {path:?}"),
                    ))
                }
            }
            self.clean -= 1;
            if let Some(key) = vp_key(vp, path) {
                decrement(&mut self.via, key);
                decrement(&mut self.totals, vp);
            }
        }
        sub_report(&mut self.counters, &fate.delta);
        Ok(())
    }

    /// Add one sample's contributions to the evidence.
    fn admit(&mut self, vp: Asn, fate: &SampleFate) {
        if let Some(path) = &fate.clean {
            let hops: Vec<u32> = path.0.iter().map(|a| a.0).collect();
            let ev = self.slots.add_one(&hops);
            self.note(ev);
            self.clean += 1;
            if let Some(key) = vp_key(vp, path) {
                *self.via.entry(key).or_default() += 1;
                *self.totals.entry(vp).or_default() += 1;
            }
        }
        add_report(&mut self.counters, &fate.delta);
    }

    fn note(&mut self, ev: PathEvent) {
        self.dirt |= dirt::MULT;
        if matches!(ev, PathEvent::AddedDistinct | PathEvent::RemovedDistinct) {
            self.dirt |= dirt::STRUCTURE;
        }
    }
}

/// S6 evidence key of a clean sample: `(vp, first hop)` — but only when
/// the path actually starts at the vantage point, mirroring the stage
/// body's per-sample filter.
fn vp_key(vp: Asn, clean: &AsPath) -> Option<(Asn, Asn)> {
    let hops = &clean.0;
    if hops.len() < 2 || hops[0] != vp {
        return None;
    }
    Some((vp, hops[1]))
}

/// Decrement a counter map entry, dropping it at zero so the key set
/// stays exactly "pairs with live evidence" (the S6 candidate set).
fn decrement<K: std::hash::Hash + Eq>(map: &mut FxHashMap<K, u32>, key: K) {
    if let Some(v) = map.get_mut(&key) {
        *v = v.saturating_sub(1);
        if *v == 0 {
            map.remove(&key);
        }
    }
}

fn add_report(dst: &mut SanitizeReport, d: &SanitizeReport) {
    dst.discarded_loops += d.discarded_loops;
    dst.discarded_reserved += d.discarded_reserved;
    dst.discarded_short += d.discarded_short;
    dst.compressed_prepending += d.compressed_prepending;
    dst.stripped_ixp += d.stripped_ixp;
}

fn sub_report(dst: &mut SanitizeReport, d: &SanitizeReport) {
    dst.discarded_loops -= d.discarded_loops;
    dst.discarded_reserved -= d.discarded_reserved;
    dst.discarded_short -= d.discarded_short;
    dst.compressed_prepending -= d.compressed_prepending;
    dst.stripped_ixp -= d.stripped_ixp;
}

/// The session's view handed to `Snapshot::delta_run` — disjoint field
/// borrows so the snapshot can hold the sample set while the providers
/// mutate the slot table.
struct SessionProvider<'s> {
    master: &'s PathSet,
    fates: &'s [SampleFate],
    clean: usize,
    counters: &'s SanitizeReport,
    slots: &'s mut MutablePathArena,
    via: &'s FxHashMap<(Asn, Asn), u32>,
    totals: &'s FxHashMap<Asn, u32>,
    cfg: &'s InferenceConfig,
}

impl DeltaProvider for SessionProvider<'_> {
    fn sanitized(&mut self) -> Arc<SanitizedPaths> {
        let hops: usize = self
            .fates
            .iter()
            .filter_map(|f| f.clean.as_ref())
            .map(AsPath::len)
            .sum();
        let mut out = SanitizedPaths::with_capacity(self.clean, hops);
        for (s, f) in self.master.iter().zip(self.fates) {
            if let Some(path) = &f.clean {
                out.push(s.vp, s.prefix, &path.0);
            }
        }
        out.report = SanitizeReport {
            input_paths: self.master.len(),
            output_paths: out.len(),
            ..*self.counters
        };
        Arc::new(out)
    }

    fn arena(&mut self) -> Arc<PathArena> {
        self.slots.canonicalize()
    }

    fn vp_providers(
        &mut self,
        step: &Arc<StepState>,
        degrees: &Arc<DegreeTable>,
    ) -> Arc<StepState> {
        // Candidate order is pinned by the sort; the hash-map iteration
        // behind it is order-free.
        let mut candidates: Vec<(Asn, Asn)> = self.via.keys().copied().collect();
        candidates.sort();
        let mut state = StepState::clone(step);
        steps::classify_vp_providers(
            &candidates,
            |vp, w| self.via.get(&(vp, w)).copied().unwrap_or(0) as usize,
            |vp| self.totals.get(&vp).copied().unwrap_or(0) as usize,
            degrees,
            self.cfg,
            &mut state.rels,
            &mut state.report,
        );
        Arc::new(state)
    }
}
