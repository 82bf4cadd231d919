//! Semantic auditor over inferred artifacts.
//!
//! Where `asrank-lint` guards the *source* (no nondeterministic
//! iteration, no panics), this module guards the *outputs*: given a
//! relationship assignment — and optionally the sanitized paths and
//! clique it was inferred from — it re-derives the structural invariants
//! the paper's algorithm promises and reports every violation in a
//! severity-ranked list. The checks:
//!
//! 1. **CSR well-formedness** — adjacency built from the relationship
//!    map must come out sorted, deduplicated, in-bounds, and symmetric
//!    for p2p (the representation every cone/SCC pass relies on).
//! 2. **Clique mutual reachability** — every clique pair must be
//!    classified p2p (S3 seeds them, S4–S10 must not overwrite them).
//! 3. **p2c cycles** — cycles are inference errors (warning), but every
//!    cycle must lie inside a Tarjan-reported SCC and the condensation
//!    must be acyclic (anything else is an algorithmic bug: error).
//! 4. **Cone containment** — a customer's recursive cone must be a
//!    subset of each of its providers' cones (transitive closure
//!    property; guards the output-sensitive cone DP).
//! 5. **Cone agreement** — the hybrid arena/bitset cone implementation
//!    must agree with the `HashSet` reference oracle on a deterministic
//!    sample of ASes.
//! 6. **Valley-free consistency** — every sanitized path graded against
//!    the final assignment: unclassified links are errors (S10
//!    guarantees total coverage of observed links); Gao-Rexford
//!    violations are warnings below a fraction threshold, errors above.
//! 7. **Path-arena well-formedness** — the interned [`PathArena`] built
//!    from the sanitized paths must satisfy its layout invariants
//!    (offsets non-empty and monotone, ids in range, paths sorted and
//!    actually distinct, inverted index consistent); the valley
//!    grading reads from the same arena.
//!
//! Exposed on the CLI as `asrank audit`; `AuditReport::passed` is the
//! CI gate (`make audit`).

use crate::cone::CustomerCones;
use crate::csr::Csr;
use crate::engine::{Artifact, Snapshot};
use crate::patharena::PathArena;
use crate::sanitize::SanitizedPaths;
use crate::scc;
use crate::valley::grade_arena;
use asrank_types::prelude::*;
use asrank_types::EngineError;

/// How bad a finding is. Ordering is by severity: errors sort first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Invariant violation — the artifact is unusable or the code that
    /// produced it is buggy. `make audit` fails.
    Error,
    /// Quality signal the paper expects to be rare (e.g. c2p cycles);
    /// reported but not fatal.
    Warning,
    /// A check that ran and passed, with its evidence.
    Info,
}

/// One audit finding.
#[derive(Debug, Clone)]
pub struct AuditFinding {
    /// Severity of this finding.
    pub severity: Severity,
    /// Stable check identifier, e.g. `csr-well-formed`.
    pub check: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

/// Severity-ranked audit results.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// All findings, sorted most severe first (then by check id).
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// True when no error-severity findings exist (warnings allowed).
    pub fn passed(&self) -> bool {
        self.errors() == 0
    }

    /// Render the severity-ranked report as text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "asrank audit: {} finding(s), {} error(s), {} warning(s) — {}\n",
            self.findings.len(),
            self.errors(),
            self.warnings(),
            if self.passed() { "PASS" } else { "FAIL" }
        );
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Error => "ERROR",
                Severity::Warning => "warn ",
                Severity::Info => "ok   ",
            };
            out.push_str(&format!("[{tag}] {}: {}\n", f.check, f.detail));
        }
        out
    }

    fn push(&mut self, severity: Severity, check: &'static str, detail: String) {
        self.findings.push(AuditFinding {
            severity,
            check,
            detail,
        });
    }
}

/// Cap on (customer, provider) pairs exhaustively checked for cone
/// containment; beyond it a deterministic stride sample is used. Sized
/// for both CI fixtures and medium-scale runs.
const MAX_CONTAINMENT_PAIRS: usize = 100_000;

/// Number of ASes sampled (deterministic stride over the sorted AS list)
/// for the hybrid-vs-reference cone comparison.
const REFERENCE_SAMPLE: usize = 64;

/// Valley-violation fraction above which the finding escalates from
/// warning to error.
const VALLEY_ERROR_FRACTION: f64 = 0.05;

/// Run every applicable check. `sanitized` and `clique` are optional so
/// the auditor can grade a bare relationship file; the corresponding
/// checks report as skipped. `par` is the thread budget of the arena
/// build and the valley grading.
pub fn audit(
    rels: &RelationshipMap,
    sanitized: Option<&SanitizedPaths>,
    clique: Option<&[Asn]>,
    par: Parallelism,
) -> AuditReport {
    let mut report = AuditReport::default();

    // Dense ids shared by the graph checks.
    let interner = AsnInterner::from_ases(rels.link_endpoints());
    let n = interner.len();

    check_csr(rels, &interner, n, &mut report);
    match clique {
        Some(c) => check_clique(rels, c, &mut report),
        None => report.push(
            Severity::Info,
            "clique-p2p",
            "skipped (no clique provided)".to_string(),
        ),
    }
    check_cycles(rels, &interner, n, &mut report);
    check_cones(rels, &mut report);
    match sanitized {
        Some(s) => {
            let arena = PathArena::build(s, par);
            check_arena(&arena, &mut report);
            check_valley(rels, &arena, par, &mut report);
        }
        None => {
            report.push(
                Severity::Info,
                "path-arena",
                "skipped (no paths provided)".to_string(),
            );
            report.push(
                Severity::Info,
                "valley-free",
                "skipped (no paths provided)".to_string(),
            );
        }
    }

    report
        .findings
        .sort_by(|a, b| (a.severity, a.check).cmp(&(b.severity, b.check)));
    report
}

/// Audit a single memoized engine artifact — the partial-materialization
/// path behind `asrank audit --stage <name>`.
///
/// Materializes exactly the named stage (plus its upstream dependencies,
/// served from the snapshot's store when warm) and grades the artifact
/// against the invariants appropriate to its kind: sanitize counter
/// conservation for S1, ranking-order monotonicity for S2, sortedness
/// for the clique and link lists, arena layout invariants, kept-mask
/// consistency for S4, clique-p2p preservation for the S5–S10 states,
/// the full relationship audit for S11, and member-list sortedness for
/// the cones. Unknown stage names surface as
/// [`EngineError::UnknownStage`].
pub fn audit_stage(
    snapshot: &mut Snapshot<'_>,
    stage: &str,
    par: Parallelism,
) -> Result<AuditReport, EngineError> {
    let artifact = snapshot.materialize(stage)?;
    let mut report = AuditReport::default();

    match &artifact {
        Artifact::Sanitized(s) => {
            let r = s.report;
            let accounted =
                r.output_paths + r.discarded_loops + r.discarded_reserved + r.discarded_short;
            if r.input_paths != accounted {
                report.push(
                    Severity::Error,
                    "sanitize-conservation",
                    format!(
                        "input {} != output {} + loops {} + reserved {} + short {}",
                        r.input_paths,
                        r.output_paths,
                        r.discarded_loops,
                        r.discarded_reserved,
                        r.discarded_short
                    ),
                );
            } else if r.output_paths != s.len() {
                report.push(
                    Severity::Error,
                    "sanitize-conservation",
                    format!(
                        "report says {} output paths but {} samples survive",
                        r.output_paths,
                        s.len()
                    ),
                );
            } else {
                report.push(
                    Severity::Info,
                    "sanitize-conservation",
                    format!(
                        "{} input path(s) fully accounted for; {} survive",
                        r.input_paths, r.output_paths
                    ),
                );
            }
            let short = s.paths().filter(|p| p.len() < 2).count();
            if short > 0 {
                report.push(
                    Severity::Error,
                    "sanitize-min-length",
                    format!("{short} sanitized path(s) have fewer than 2 hops"),
                );
            } else {
                report.push(
                    Severity::Info,
                    "sanitize-min-length",
                    "every sanitized path has ≥ 2 hops".to_string(),
                );
            }
        }
        Artifact::Degrees(d) => {
            let ranked = d.ranked();
            let bad = ranked.windows(2).position(|w| {
                let ka = (
                    std::cmp::Reverse(d.transit_degree(w[0])),
                    std::cmp::Reverse(d.node_degree(w[0])),
                    w[0],
                );
                let kb = (
                    std::cmp::Reverse(d.transit_degree(w[1])),
                    std::cmp::Reverse(d.node_degree(w[1])),
                    w[1],
                );
                ka > kb
            });
            match bad {
                Some(i) => report.push(
                    Severity::Error,
                    "degree-ranking",
                    format!(
                        "ranking violates (transit desc, node desc, ASN asc) at position {i} ({} before {})",
                        ranked[i],
                        ranked[i + 1]
                    ),
                ),
                None => report.push(
                    Severity::Info,
                    "degree-ranking",
                    format!("{} AS(es) ranked in paper order", ranked.len()),
                ),
            }
        }
        Artifact::Clique(c) => {
            if c.windows(2).any(|w| w[0] >= w[1]) {
                report.push(
                    Severity::Error,
                    "clique-sorted",
                    "clique members are not strictly ascending by ASN".to_string(),
                );
            } else {
                report.push(
                    Severity::Info,
                    "clique-sorted",
                    format!("{} clique member(s), strictly ascending", c.len()),
                );
            }
        }
        Artifact::Arena(a) => check_arena(a, &mut report),
        Artifact::Kept(k) => {
            let arena = snapshot.arena()?;
            if k.kept.len() != arena.len() {
                report.push(
                    Severity::Error,
                    "kept-mask",
                    format!(
                        "kept mask covers {} path(s) but the arena holds {}",
                        k.kept.len(),
                        arena.len()
                    ),
                );
            }
            let dropped = k.kept.iter().filter(|&&b| !b).count();
            if dropped != k.discarded {
                report.push(
                    Severity::Error,
                    "kept-mask",
                    format!(
                        "discard counter says {} but the mask drops {dropped}",
                        k.discarded
                    ),
                );
            }
            if report.findings.is_empty() {
                report.push(
                    Severity::Info,
                    "kept-mask",
                    format!(
                        "{} of {} distinct path(s) kept ({} poisoned)",
                        k.kept.len() - dropped,
                        k.kept.len(),
                        dropped
                    ),
                );
            }
        }
        Artifact::Links(l) => {
            if l.windows(2).any(|w| w[0] >= w[1]) {
                report.push(
                    Severity::Error,
                    "links-sorted",
                    "observed link list is not strictly sorted/deduplicated".to_string(),
                );
            } else {
                report.push(
                    Severity::Info,
                    "links-sorted",
                    format!("{} observed link(s), strictly sorted", l.len()),
                );
            }
        }
        Artifact::Steps(s) => {
            // S4–S10 must preserve the clique's mutual p2p seeding.
            let clique = snapshot.clique()?;
            check_clique(&s.rels, &clique, &mut report);
        }
        Artifact::Inference(inf) => {
            let sanitized = snapshot.sanitized()?;
            let full = audit(
                &inf.relationships,
                Some(sanitized.as_ref()),
                Some(inf.clique.as_slice()),
                par,
            );
            report.findings.extend(full.findings);
        }
        Artifact::Cone(c) => {
            let mut unsorted = 0usize;
            let mut size_mismatch = 0usize;
            for (asn, members) in c.iter_members() {
                if members.windows(2).any(|w| w[0] >= w[1]) {
                    unsorted += 1;
                }
                if c.size(asn).ases != members.len() {
                    size_mismatch += 1;
                }
            }
            if unsorted > 0 || size_mismatch > 0 {
                report.push(
                    Severity::Error,
                    "cone-members",
                    format!(
                        "{unsorted} cone(s) with unsorted members, {size_mismatch} with size/member mismatch"
                    ),
                );
            } else {
                report.push(
                    Severity::Info,
                    "cone-members",
                    format!(
                        "{} cone(s): member lists sorted, sizes match membership",
                        c.len()
                    ),
                );
            }
        }
    }

    report
        .findings
        .sort_by(|a, b| (a.severity, a.check).cmp(&(b.severity, b.check)));
    Ok(report)
}

/// Check 1: CSR adjacency built from the map must be sorted, deduped,
/// in-bounds, and symmetric on the p2p sub-graph.
fn check_csr(rels: &RelationshipMap, interner: &AsnInterner, n: usize, out: &mut AuditReport) {
    let mut c2p_edges: Vec<(u32, u32)> = Vec::new();
    let mut missing = 0usize;
    for (c, p) in rels.c2p_pairs() {
        match (interner.get(c), interner.get(p)) {
            (Some(ci), Some(pi)) => c2p_edges.push((ci, pi)),
            _ => missing += 1,
        }
    }
    let mut p2p_edges: Vec<(u32, u32)> = Vec::new();
    for (a, b) in rels.p2p_pairs() {
        match (interner.get(a), interner.get(b)) {
            (Some(ai), Some(bi)) => {
                p2p_edges.push((ai, bi));
                p2p_edges.push((bi, ai));
            }
            _ => missing += 1,
        }
    }
    if missing > 0 {
        out.push(
            Severity::Error,
            "csr-well-formed",
            format!("{missing} link endpoint(s) missing from the interner seeded by the map itself"),
        );
        return;
    }

    let c2p = Csr::from_edges_dedup(n, &c2p_edges);
    let p2p = Csr::from_edges_dedup(n, &p2p_edges);

    let mut problems: Vec<String> = Vec::new();
    for (name, csr) in [("c2p", &c2p), ("p2p", &p2p)] {
        for u in 0..dense_id(n) {
            let nbrs = csr.neighbors(u);
            if nbrs.windows(2).any(|w| w[0] >= w[1]) {
                problems.push(format!("{name} adjacency of id {u} not strictly sorted"));
            }
            if nbrs.iter().any(|&v| v as usize >= n) {
                problems.push(format!("{name} adjacency of id {u} has out-of-bounds target"));
            }
        }
    }
    for u in 0..dense_id(n) {
        for &v in p2p.neighbors(u) {
            if p2p.neighbors(v).binary_search(&u).is_err() {
                problems.push(format!("p2p edge {u}→{v} has no reverse edge"));
            }
        }
    }

    if problems.is_empty() {
        out.push(
            Severity::Info,
            "csr-well-formed",
            format!(
                "{} c2p + {} p2p directed edges over {n} ASes: sorted, deduped, in-bounds, p2p symmetric",
                c2p_edges.len(),
                p2p_edges.len()
            ),
        );
    } else {
        let shown = problems.len().min(5);
        out.push(
            Severity::Error,
            "csr-well-formed",
            format!(
                "{} problem(s); first {shown}: {}",
                problems.len(),
                problems[..shown].join("; ")
            ),
        );
    }
}

/// Check 2: every clique pair must be classified p2p.
fn check_clique(rels: &RelationshipMap, clique: &[Asn], out: &mut AuditReport) {
    let mut members: Vec<Asn> = clique.to_vec();
    members.sort_unstable();
    members.dedup();
    let mut missing: Vec<String> = Vec::new();
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            if !rels.is_p2p(a, b) {
                missing.push(format!("{a}–{b}"));
            }
        }
    }
    if missing.is_empty() {
        out.push(
            Severity::Info,
            "clique-p2p",
            format!(
                "all {} clique pair(s) mutually p2p",
                members.len() * members.len().saturating_sub(1) / 2
            ),
        );
    } else {
        let shown = missing.len().min(5);
        out.push(
            Severity::Error,
            "clique-p2p",
            format!(
                "{} clique pair(s) not p2p; first {shown}: {}",
                missing.len(),
                missing[..shown].join(", ")
            ),
        );
    }
}

/// Check 3: p2c cycles must all lie inside Tarjan-reported SCCs, and the
/// SCC condensation must be acyclic.
fn check_cycles(rels: &RelationshipMap, interner: &AsnInterner, n: usize, out: &mut AuditReport) {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (c, p) in rels.c2p_pairs() {
        if let (Some(ci), Some(pi)) = (interner.get(c), interner.get(p)) {
            edges.push((ci, pi));
        }
    }
    let adj = Csr::from_edges_dedup(n, &edges);
    let s = scc::tarjan(n, &adj);

    let cycle_links = edges
        .iter()
        .filter(|&&(c, p)| s.comp[c as usize] == s.comp[p as usize] && s.on_cycle(c as usize))
        .count();
    // Self-loops cannot exist (RelationshipMap keys are unordered pairs
    // of distinct ASes), so component size ≥ 2 is the exact cycle test.

    // Condensation acyclicity via Kahn.
    let mut comp_edges: Vec<(u32, u32)> = Vec::new();
    for &(c, p) in &edges {
        let (cc, pc) = (s.comp[c as usize], s.comp[p as usize]);
        if cc != pc {
            comp_edges.push((cc, pc));
        }
    }
    comp_edges.sort_unstable();
    comp_edges.dedup();
    let comp_adj = Csr::from_edges_dedup(s.count, &comp_edges);
    let mut indeg = vec![0u32; s.count];
    for &(_, pc) in &comp_edges {
        indeg[pc as usize] += 1;
    }
    let mut queue: Vec<u32> = (0..dense_id(s.count))
        .filter(|&v| indeg[v as usize] == 0)
        .collect();
    let mut consumed = 0usize;
    while let Some(v) = queue.pop() {
        consumed += 1;
        for &w in comp_adj.neighbors(v) {
            indeg[w as usize] -= 1;
            if indeg[w as usize] == 0 {
                queue.push(w);
            }
        }
    }

    if consumed != s.count {
        out.push(
            Severity::Error,
            "p2c-cycles",
            format!(
                "SCC condensation is not acyclic ({} of {} components ordered) — Tarjan or CSR bug",
                consumed, s.count
            ),
        );
    } else if cycle_links > 0 {
        out.push(
            Severity::Warning,
            "p2c-cycles",
            format!(
                "{cycle_links} c2p link(s) inside {} non-trivial SCC(s) — inference errors the validation framework should surface",
                s.sizes.iter().filter(|&&z| z >= 2).count()
            ),
        );
    } else {
        out.push(
            Severity::Info,
            "p2c-cycles",
            format!("c2p digraph acyclic ({} ASes, {} links)", n, edges.len()),
        );
    }
}

/// True when sorted slice `sub` is a subset of sorted slice `sup`.
fn subset_sorted(sub: &[Asn], sup: &[Asn]) -> bool {
    let mut j = 0usize;
    for &x in sub {
        while j < sup.len() && sup[j] < x {
            j += 1;
        }
        if j >= sup.len() || sup[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Checks 4 and 5: cone containment along every (sampled) c2p link, and
/// hybrid-vs-reference agreement on a deterministic AS sample.
fn check_cones(rels: &RelationshipMap, out: &mut AuditReport) {
    let cones = CustomerCones::recursive(rels, None);

    // Containment: customer cone ⊆ provider cone for each c2p pair.
    let mut pairs: Vec<(Asn, Asn)> = rels.c2p_pairs().collect();
    pairs.sort_unstable();
    let stride = (pairs.len() / MAX_CONTAINMENT_PAIRS).max(1);
    let mut checked = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for (c, p) in pairs.iter().copied().step_by(stride) {
        checked += 1;
        if !subset_sorted(cones.members(c), cones.members(p)) {
            violations.push(format!("cone({c}) ⊄ cone({p})"));
        }
    }
    if violations.is_empty() {
        out.push(
            Severity::Info,
            "cone-containment",
            format!(
                "customer ⊆ provider holds on {checked} of {} c2p link(s){}",
                pairs.len(),
                if stride > 1 {
                    format!(" (stride {stride} sample)")
                } else {
                    String::new()
                }
            ),
        );
    } else {
        let shown = violations.len().min(5);
        out.push(
            Severity::Error,
            "cone-containment",
            format!(
                "{} violation(s); first {shown}: {}",
                violations.len(),
                violations[..shown].join(", ")
            ),
        );
    }

    // Agreement with the reference oracle on a deterministic sample.
    let reference = CustomerCones::recursive_reference(rels, None);
    let mut ases: Vec<Asn> = rels.ases().collect();
    ases.sort_unstable();
    ases.dedup();
    let stride = (ases.len() / REFERENCE_SAMPLE).max(1);
    let mut sampled = 0usize;
    let mut disagreements: Vec<String> = Vec::new();
    for &asn in ases.iter().step_by(stride) {
        sampled += 1;
        if cones.members(asn) != reference.members(asn) {
            disagreements.push(format!("members({asn}) differ"));
        } else if cones.size(asn).ases != reference.size(asn).ases {
            disagreements.push(format!("size({asn}) differs"));
        }
    }
    if disagreements.is_empty() {
        out.push(
            Severity::Info,
            "cone-agreement",
            format!("hybrid and reference cones agree on {sampled} sampled AS(es)"),
        );
    } else {
        let shown = disagreements.len().min(5);
        out.push(
            Severity::Error,
            "cone-agreement",
            format!(
                "{} disagreement(s); first {shown}: {}",
                disagreements.len(),
                disagreements[..shown].join(", ")
            ),
        );
    }
}

/// Check 7: the interned path arena must satisfy every layout
/// invariant. `pub` so corruption-fixture tests can grade arenas built
/// via [`PathArena::from_raw`] directly.
pub fn check_arena(arena: &PathArena, out: &mut AuditReport) {
    let problems = arena.validate();
    if problems.is_empty() {
        out.push(
            Severity::Info,
            "path-arena",
            format!(
                "{} distinct path(s), {} hop(s) over {} AS(es): offsets monotone, ids in range, paths sorted+distinct, inverted index consistent",
                arena.len(),
                arena.total_hops(),
                arena.num_ases()
            ),
        );
    } else {
        let shown = problems.len().min(5);
        out.push(
            Severity::Error,
            "path-arena",
            format!(
                "{} problem(s); first {shown}: {}",
                problems.len(),
                problems[..shown].join("; ")
            ),
        );
    }
}

/// Check 6: grade every distinct sanitized path (read from the shared
/// arena) against the final relationship assignment.
fn check_valley(
    rels: &RelationshipMap,
    arena: &PathArena,
    par: Parallelism,
    out: &mut AuditReport,
) {
    let stats = grade_arena(arena, rels, par);
    let total = stats.total;
    let (unknown, valleys) = (stats.unknown, stats.valleys);
    let first_unknown = stats
        .first_unknown
        .map(|(p, pos)| format!("{} at hop {pos}", arena.resolve_path(p)));
    let first_valley = stats
        .first_valley
        .map(|(p, pos)| format!("{} at hop {pos}", arena.resolve_path(p)));

    if unknown > 0 {
        out.push(
            Severity::Error,
            "valley-unknown-links",
            format!(
                "{unknown} of {total} distinct path(s) cross a link the assignment does not classify (S10 promises total coverage); first: {}",
                first_unknown.unwrap_or_default()
            ),
        );
    } else {
        out.push(
            Severity::Info,
            "valley-unknown-links",
            format!("all links of {total} distinct path(s) are classified"),
        );
    }

    let frac = if total == 0 {
        0.0
    } else {
        valleys as f64 / total as f64
    };
    if valleys == 0 {
        out.push(
            Severity::Info,
            "valley-free",
            format!("{total} distinct path(s) all valley-free"),
        );
    } else {
        let sev = if frac > VALLEY_ERROR_FRACTION {
            Severity::Error
        } else {
            Severity::Warning
        };
        out.push(
            sev,
            "valley-free",
            format!(
                "{valleys} of {total} distinct path(s) ({:.2}%) violate Gao-Rexford export rules; first: {}",
                frac * 100.0,
                first_valley.unwrap_or_default()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_rels() -> (RelationshipMap, Vec<Asn>) {
        // Clique {1, 2}; 3 and 4 buy from the clique; 5 buys from 3.
        let mut rels = RelationshipMap::new();
        rels.insert_p2p(Asn(1), Asn(2));
        rels.insert_c2p(Asn(3), Asn(1));
        rels.insert_c2p(Asn(4), Asn(2));
        rels.insert_c2p(Asn(5), Asn(3));
        rels.insert_p2p(Asn(3), Asn(4));
        (rels, vec![Asn(1), Asn(2)])
    }

    #[test]
    fn clean_toy_assignment_passes() {
        let (rels, clique) = toy_rels();
        let report = audit(&rels, None, Some(&clique), Parallelism::auto());
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.errors(), 0);
        // All structural checks ran.
        for check in ["csr-well-formed", "clique-p2p", "p2c-cycles", "cone-containment", "cone-agreement"] {
            assert!(
                report.findings.iter().any(|f| f.check == check),
                "missing {check} in {}",
                report.render()
            );
        }
    }

    #[test]
    fn broken_clique_is_an_error() {
        let (mut rels, clique) = toy_rels();
        let _ = rels.remove(Asn(1), Asn(2));
        // Keep both ASes in the map so the pair is still expected.
        rels.insert_c2p(Asn(9), Asn(1));
        rels.insert_c2p(Asn(9), Asn(2));
        let report = audit(&rels, None, Some(&clique), Parallelism::auto());
        assert!(!report.passed(), "{}", report.render());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == "clique-p2p" && f.severity == Severity::Error));
    }

    #[test]
    fn c2p_cycle_is_a_warning_not_an_error() {
        let (mut rels, clique) = toy_rels();
        // 5 → 3 already exists; close the cycle 5 → 3 → 6 → 5.
        rels.insert_c2p(Asn(6), Asn(5));
        rels.insert_c2p(Asn(3), Asn(6));
        let report = audit(&rels, None, Some(&clique), Parallelism::auto());
        assert!(report.passed(), "{}", report.render());
        assert!(report
            .findings
            .iter()
            .any(|f| f.check == "p2c-cycles" && f.severity == Severity::Warning));
    }

    #[test]
    fn severity_ranking_puts_errors_first() {
        let (mut rels, clique) = toy_rels();
        let _ = rels.remove(Asn(1), Asn(2));
        rels.insert_c2p(Asn(9), Asn(1));
        rels.insert_c2p(Asn(9), Asn(2));
        // Add a cycle so a warning exists alongside the error.
        rels.insert_c2p(Asn(7), Asn(9));
        rels.insert_c2p(Asn(9), Asn(7));
        let report = audit(&rels, None, Some(&clique), Parallelism::auto());
        let severities: Vec<Severity> = report.findings.iter().map(|f| f.severity).collect();
        let mut ranked = severities.clone();
        ranked.sort();
        assert_eq!(severities, ranked, "{}", report.render());
        assert!(!report.passed());
    }

    #[test]
    fn subset_sorted_basics() {
        let a = [Asn(1), Asn(3), Asn(5)];
        let b = [Asn(1), Asn(2), Asn(3), Asn(4), Asn(5)];
        assert!(subset_sorted(&a, &b));
        assert!(!subset_sorted(&b, &a));
        assert!(subset_sorted(&[], &a));
        assert!(subset_sorted(&a, &a));
        assert!(!subset_sorted(&[Asn(6)], &b));
    }
}
