//! One loaded serve snapshot: mapped frames + query answering.
//!
//! A [`ServeSnapshot`] owns the memory-mapped INFERENCE and CONE frames
//! plus their validated [`InferenceLayout`]/[`ConeLayout`] section
//! tables. Checksums and structural invariants are verified exactly once
//! at load ([`ServeSnapshot::load`]); every query after that rebuilds a
//! `Copy` view over the mapped bytes (`from_layout` — a few offset
//! additions) and answers with in-place binary searches. The warm path
//! performs **zero heap allocation** — pinned by the crate's
//! `zero_alloc` integration test.
//!
//! Two small owned indexes are built once at load, because the on-disk
//! order of their sections is not the query key's order:
//!
//! * **degree index** — DEGREES entries are stored ranked (transit desc),
//!   so ASN point lookups get an ASN-sorted permutation into the section;
//! * **rank index** — replicates [`asrank_core::rank_ases`] (recursive
//!   cone size desc, transit degree desc, ASN asc; 1-based) over the
//!   mapped views, stored ASN-sorted for lookup.

use crate::mmap::MappedBytes;
use crate::source::{ConeFlavor, ResolvedFrames, ServeError, SourceSpec, SourceStamp};
use asrank_core::{ConeLayout, ConeSize, ConeView, InferenceLayout, InferenceView};
use asrank_core::pipeline::InferenceReport;
use asrank_types::{Asn, LinkRel, Orientation};

/// One query against a snapshot. `Cone*` queries carry the flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Relationship between two ASes, from the first AS's point of view.
    Rel(Asn, Asn),
    /// Is the second AS inside the first AS's cone?
    ConeContains(ConeFlavor, Asn, Asn),
    /// Cone size triple of an AS.
    ConeSize(ConeFlavor, Asn),
    /// `(transit, node)` degree of an AS (0, 0) when unobserved.
    Degree(Asn),
    /// 1-based AS rank by recursive cone, `None` when unranked.
    Rank(Asn),
}

/// The answer to one [`Query`], same arm order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Orientation of the second AS relative to the first, if classified.
    Rel(Option<Orientation>),
    /// Cone membership verdict.
    ConeContains(bool),
    /// Cone size triple (`{ases: 1, ..}` fallback for unknown ASes).
    ConeSize(ConeSize),
    /// `(transit degree, node degree)`.
    Degree(u64, u64),
    /// 1-based rank, `None` for ASes outside the ranking.
    Rank(Option<u64>),
}

/// Packed `(asn, value)` row of the ASN-sorted side indexes.
#[derive(Debug, Clone, Copy)]
struct IndexRow {
    asn: u32,
    val: u32,
}

fn index_lookup(rows: &[IndexRow], asn: Asn) -> Option<u32> {
    let mut lo = 0usize;
    let mut hi = rows.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let row = rows[mid];
        if row.asn < asn.0 {
            lo = mid + 1;
        } else if row.asn > asn.0 {
            hi = mid;
        } else {
            return Some(row.val);
        }
    }
    None
}

/// A fully loaded, immutable, query-ready snapshot of the cache state.
#[derive(Debug)]
pub struct ServeSnapshot {
    inference_map: MappedBytes,
    cone_maps: [MappedBytes; 3],
    inference_layout: InferenceLayout,
    cone_layouts: [ConeLayout; 3],
    report: InferenceReport,
    /// ASN-sorted permutation into the ranked DEGREES section.
    degree_index: Vec<IndexRow>,
    /// ASN-sorted 1-based ranks (recursive cone).
    rank_index: Vec<IndexRow>,
    frames: ResolvedFrames,
    stamp: SourceStamp,
    generation: u64,
}

impl ServeSnapshot {
    /// Resolve frame paths from `spec`, map them, validate every frame
    /// once, and build the side indexes. `generation` tags the snapshot
    /// for the hot-swap protocol.
    pub fn load(spec: &SourceSpec, generation: u64) -> Result<ServeSnapshot, ServeError> {
        let frames = spec.resolve()?;
        let snap = Self::load_resolved(spec, frames, generation)?;
        Ok(snap)
    }

    fn load_resolved(
        spec: &SourceSpec,
        frames: ResolvedFrames,
        generation: u64,
    ) -> Result<ServeSnapshot, ServeError> {
        let stamp = spec.stamp(&frames);
        let open = |path: &std::path::Path| -> Result<MappedBytes, ServeError> {
            MappedBytes::open(path).map_err(|e| ServeError::Io {
                path: path.to_path_buf(),
                detail: e.to_string(),
            })
        };
        let inference_map = open(&frames.inference)?;
        let cone_maps = [
            open(&frames.cones[0])?,
            open(&frames.cones[1])?,
            open(&frames.cones[2])?,
        ];

        let (_, inference_layout, report) =
            InferenceView::open(&inference_map).map_err(|e| ServeError::BadFrame {
                stage: crate::source::INFERENCE_STAGE.into(),
                detail: e.to_string(),
            })?;
        let mut cone_layouts = [ConeLayout::default(); 3];
        for flavor in ConeFlavor::ALL {
            let i = flavor.index();
            let (_, layout) = ConeView::open(&cone_maps[i]).map_err(|e| ServeError::BadFrame {
                stage: flavor.stage().into(),
                detail: e.to_string(),
            })?;
            cone_layouts[i] = layout;
        }

        let inference = InferenceView::from_layout(&inference_map, &inference_layout);
        let degree_index = build_degree_index(&inference);
        let recursive = ConeView::from_layout(
            &cone_maps[ConeFlavor::Recursive.index()],
            &cone_layouts[ConeFlavor::Recursive.index()],
        );
        let rank_index = build_rank_index(&recursive, &inference, &degree_index);

        Ok(ServeSnapshot {
            inference_map,
            cone_maps,
            inference_layout,
            cone_layouts,
            report,
            degree_index,
            rank_index,
            frames,
            stamp,
            generation,
        })
    }

    /// The snapshot's generation tag (monotone across hot-swaps).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The inference report persisted with the frame.
    pub fn report(&self) -> &InferenceReport {
        &self.report
    }

    /// The frames this snapshot was built from.
    pub fn frames(&self) -> &ResolvedFrames {
        &self.frames
    }

    /// The on-disk signatures captured at load; the watcher compares a
    /// fresh capture against this to detect a re-warmed cache.
    pub fn stamp(&self) -> &SourceStamp {
        &self.stamp
    }

    /// Borrow the relationship/clique/degree view over the mapped frame.
    /// Construction is a handful of offset additions — no allocation.
    pub fn inference(&self) -> InferenceView<'_> {
        InferenceView::from_layout(&self.inference_map, &self.inference_layout)
    }

    /// Borrow the cone view for `flavor` over its mapped frame.
    pub fn cone(&self, flavor: ConeFlavor) -> ConeView<'_> {
        let i = flavor.index();
        ConeView::from_layout(&self.cone_maps[i], &self.cone_layouts[i])
    }

    /// Relationship on the `x`–`y` link in canonical orientation.
    pub fn rel(&self, x: Asn, y: Asn) -> Option<LinkRel> {
        self.inference().rels.get(x, y)
    }

    /// Relationship from `x`'s point of view (`Provider` = `y` is `x`'s
    /// provider), `None` when the link is unclassified.
    pub fn orientation(&self, x: Asn, y: Asn) -> Option<Orientation> {
        self.inference().rels.orientation(x, y)
    }

    /// Is `y` inside `x`'s `flavor` cone?
    pub fn cone_contains(&self, flavor: ConeFlavor, x: Asn, y: Asn) -> bool {
        self.cone(flavor).contains(x, y)
    }

    /// Cone size of `x` under `flavor` (engine fallback semantics:
    /// `{ases: 1, ..}` for ASes without a computed cone).
    pub fn cone_size(&self, flavor: ConeFlavor, x: Asn) -> ConeSize {
        self.cone(flavor).size(x)
    }

    /// `(transit, node)` degree of `x`; `(0, 0)` when unobserved —
    /// mirror of `DegreeTable::transit_degree`/`node_degree`.
    pub fn degree(&self, x: Asn) -> (u64, u64) {
        index_lookup(&self.degree_index, x)
            .and_then(|pos| self.inference().degrees.entry(pos as usize))
            .map_or((0, 0), |(_, transit, node)| (transit, node))
    }

    /// 1-based AS rank by recursive customer cone (`rank_ases` order),
    /// `None` for ASes outside the ranking.
    pub fn rank(&self, x: Asn) -> Option<u64> {
        index_lookup(&self.rank_index, x).map(u64::from)
    }

    /// Answer one query.
    pub fn answer(&self, q: Query) -> Answer {
        match q {
            Query::Rel(x, y) => Answer::Rel(self.orientation(x, y)),
            Query::ConeContains(f, x, y) => Answer::ConeContains(self.cone_contains(f, x, y)),
            Query::ConeSize(f, x) => Answer::ConeSize(self.cone_size(f, x)),
            Query::Degree(x) => {
                let (t, n) = self.degree(x);
                Answer::Degree(t, n)
            }
            Query::Rank(x) => Answer::Rank(self.rank(x)),
        }
    }

    /// Answer a batch into `out` (cleared first). Reuse the same `out`
    /// buffer across batches to keep the warm path allocation-free.
    pub fn answer_batch(&self, queries: &[Query], out: &mut Vec<Answer>) {
        out.clear();
        out.reserve(queries.len());
        for &q in queries {
            out.push(self.answer(q));
        }
    }
}

/// ASN-sorted permutation into the ranked DEGREES section.
fn build_degree_index(inference: &InferenceView<'_>) -> Vec<IndexRow> {
    let mut rows: Vec<IndexRow> = inference
        .degrees
        .iter()
        .enumerate()
        .map(|(pos, (asn, _, _))| IndexRow {
            asn: asn.0,
            val: u32::try_from(pos).unwrap_or(u32::MAX),
        })
        .collect();
    rows.sort_unstable_by_key(|r| r.asn);
    rows
}

/// Replicate `rank_ases` over the mapped views: every AS covered by the
/// recursive cone, ordered by (cone ASes desc, transit degree desc, ASN
/// asc), rank 1-based — then re-sorted by ASN for point lookup.
fn build_rank_index(
    recursive: &ConeView<'_>,
    inference: &InferenceView<'_>,
    degree_index: &[IndexRow],
) -> Vec<IndexRow> {
    let transit = |asn: Asn| -> u64 {
        index_lookup(degree_index, asn)
            .and_then(|pos| inference.degrees.entry(pos as usize))
            .map_or(0, |(_, t, _)| t)
    };
    let mut rows: Vec<(u64, u64, u32)> = recursive
        .iter_sizes()
        .map(|(asn, size)| (u64::try_from(size.ases).unwrap_or(u64::MAX), transit(asn), asn.0))
        .collect();
    rows.sort_unstable_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| b.1.cmp(&a.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    let mut index: Vec<IndexRow> = rows
        .iter()
        .enumerate()
        .map(|(i, &(_, _, asn))| IndexRow {
            asn,
            val: u32::try_from(i + 1).unwrap_or(u32::MAX),
        })
        .collect();
    index.sort_unstable_by_key(|r| r.asn);
    index
}
