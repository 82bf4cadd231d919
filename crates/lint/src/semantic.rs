//! Cross-file semantic rules (L006–L009).
//!
//! Unlike the line-oriented rules in [`crate::rules`], these passes index
//! the whole workspace first — every file stripped, test-masked, and
//! item-parsed into a [`WorkspaceIndex`] — and then check properties that
//! span files: a config struct in `pipeline/mod.rs` against the
//! fingerprint functions in `engine.rs` (L006), `unsafe` sites against
//! the module allowlist and their `// SAFETY:` contracts (L007), release
//! stores against acquire loads elsewhere in the same compilation unit
//! (L008), and codec kind tags against their encode/decode/view call
//! sites (L009).
//!
//! The same annotation grammar applies: a finding is suppressed by
//! `// lint: allow(<slug>, <reason>)` on the flagged line or the line
//! above, and reason-less annotations never suppress.

use crate::lexer::{self, Stripped};
use crate::parser::{self, base_type_ident, Item, ItemKind};
use crate::rules::{self, Finding, RuleInfo, RULES};

/// One indexed file: stripped text, test mask, original lines, and the
/// parsed item skeleton.
pub struct FileIndex {
    /// Repo-relative path with forward slashes (rule scoping key).
    pub rel: String,
    /// Comment/string-stripped text (see [`lexer::strip`]).
    pub stripped: Stripped,
    /// `true` for lines inside `#[cfg(test)]` items.
    pub mask: Vec<bool>,
    /// Original source lines (for excerpts and `SAFETY:` comments).
    pub orig: Vec<String>,
    /// Parsed items, children after parents.
    pub items: Vec<Item>,
}

/// The whole workspace, indexed once before any semantic rule runs.
pub struct WorkspaceIndex {
    /// One entry per scanned file, in input order.
    pub files: Vec<FileIndex>,
}

impl WorkspaceIndex {
    /// Index `(rel, source)` pairs.
    pub fn build(files: &[(String, String)]) -> WorkspaceIndex {
        let files = files
            .iter()
            .map(|(rel, source)| {
                let stripped = lexer::strip(source);
                let mask = rules::test_mask(&stripped.lines);
                let items = parser::parse_items(&stripped.lines);
                FileIndex {
                    rel: rel.clone(),
                    mask,
                    orig: source.split('\n').map(str::to_string).collect(),
                    items,
                    stripped,
                }
            })
            .collect();
        WorkspaceIndex { files }
    }

    /// Locate a non-test struct definition by name: `prefer_file` (the
    /// referencing file) first, then workspace order.
    fn find_struct(&self, name: &str, prefer_file: Option<usize>) -> Option<(usize, usize)> {
        for fi in prefer_file.into_iter().chain(0..self.files.len()) {
            let f = &self.files[fi];
            for (ii, it) in f.items.iter().enumerate() {
                if it.kind == ItemKind::Struct
                    && it.name == name
                    && !f.mask.get(it.line.saturating_sub(1)).copied().unwrap_or(false)
                {
                    return Some((fi, ii));
                }
            }
        }
        None
    }
}

/// Run all semantic rules over pre-labelled `(rel, source)` pairs.
/// Fixture tests call this directly with synthetic path labels.
pub fn check_workspace(files: &[(String, String)]) -> Vec<Finding> {
    check_index(&WorkspaceIndex::build(files))
}

/// Run all semantic rules over an existing index.
pub fn check_index(idx: &WorkspaceIndex) -> Vec<Finding> {
    let mut out = Vec::new();
    l006_fingerprint_coverage(idx, &mut out);
    l007_unsafe_contracts(idx, &mut out);
    l008_atomics_audit(idx, &mut out);
    l009_codec_kinds(idx, &mut out);
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    out
}

/// Strict-mode meta findings: every allow-annotation must carry a reason
/// and name a known rule slug. Reported as `L000` and deliberately not
/// suppressible — an annotation cannot vouch for itself.
pub fn annotation_findings(idx: &WorkspaceIndex) -> Vec<Finding> {
    let meta = &rules::META_RULE;
    let mut out = Vec::new();
    for f in &idx.files {
        for a in &f.stripped.allows {
            // Doc comments *describe* the grammar (`/// … lint: allow(rule,
            // reason)`); only plain-comment annotations actually suppress,
            // so only those are audited.
            if f.stripped.doc.get(a.line.saturating_sub(1)).copied().unwrap_or(false) {
                continue;
            }
            let known = RULES.iter().any(|r| r.slug == a.rule);
            let message = if !known {
                format!(
                    "allow-annotation names unknown rule slug `{}`; it suppresses nothing \
                     (known slugs: {})",
                    a.rule,
                    RULES.iter().map(|r| r.slug).collect::<Vec<_>>().join(", ")
                )
            } else if a.reason.is_empty() {
                format!(
                    "allow-annotation for `{}` has no reason; reason-less annotations never \
                     suppress findings — state why the exception is sound",
                    a.rule
                )
            } else {
                continue;
            };
            out.push(Finding {
                rule: meta.id,
                slug: meta.slug,
                file: f.rel.clone(),
                line: a.line,
                message,
                excerpt: excerpt(f, a.line),
            });
        }
    }
    out
}

fn excerpt(f: &FileIndex, line: usize) -> String {
    f.orig
        .get(line.saturating_sub(1))
        .map(|s| s.trim())
        .unwrap_or("")
        .to_string()
}

fn emit(out: &mut Vec<Finding>, f: &FileIndex, info: &'static RuleInfo, line: usize, message: String) {
    if f.stripped.allowed(info.slug, line) {
        return;
    }
    let mut message = message;
    if f.stripped.allowed_without_reason(info.slug, line) {
        message.push_str(
            " (an allow-annotation covers this line but has no reason; add one to suppress)",
        );
    }
    out.push(Finding {
        rule: info.id,
        slug: info.slug,
        file: f.rel.clone(),
        line,
        message,
        excerpt: excerpt(f, line),
    });
}

// ---------------------------------------------------------------- L006

/// The struct every stage fingerprint function receives.
const FP_CTX: &str = "FpCtx";

/// L006: every field of `FpCtx` — and, transitively, of every
/// workspace-defined struct reachable through its covered fields — must
/// be read (`.field`) by at least one fingerprint function registered as
/// `cfg_fp:` in the stage table, unless annotated `fp-excluded`.
///
/// Transitivity walks field *types*, not generic parameters: a field of
/// type `SanitizeConfig` pulls that struct into the audit, a
/// `HashSet<Asn>` is a leaf. Exclusion stops the walk, so annotating
/// `parallelism` keeps the whole `Parallelism` type out of scope.
fn l006_fingerprint_coverage(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let info = &RULES[5];
    let Some((ctx_fi, ctx_ii)) = idx.find_struct(FP_CTX, None) else {
        return; // no fingerprint machinery in this workspace
    };

    // The registry: `cfg_fp: <ident>` initializers in the stage table,
    // which lives in the same file as `FpCtx`. (`cfg_fp: fn(..)` is the
    // field declaration, not a registration.)
    let reg_file = &idx.files[ctx_fi];
    let mut registered: Vec<String> = Vec::new();
    for (i, line) in reg_file.stripped.lines.iter().enumerate() {
        if reg_file.mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        for at in rules::ident_occurrences(line, "cfg_fp") {
            let rest = line[at + "cfg_fp".len()..].trim_start();
            let Some(rest) = rest.strip_prefix(':') else {
                continue;
            };
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && name != "fn" && !registered.contains(&name) {
                registered.push(name);
            }
        }
    }
    if registered.is_empty() {
        let line = reg_file.items[ctx_ii].line;
        emit(
            out,
            reg_file,
            info,
            line,
            format!(
                "`{FP_CTX}` is defined but no `cfg_fp:` registrations were found in {}; \
                 fingerprint coverage cannot be verified",
                reg_file.rel
            ),
        );
        return;
    }
    let body = reachable_body_text(reg_file, &registered);

    // Walk the structs feeding FpCtx.
    let mut visited: Vec<String> = vec![FP_CTX.to_string()];
    let mut queue: Vec<(usize, usize)> = vec![(ctx_fi, ctx_ii)];
    while let Some((fi, ii)) = queue.pop() {
        let file = &idx.files[fi];
        let item = file.items[ii].clone();
        for field in &item.fields {
            if file.stripped.allowed("fp-excluded", field.line) {
                continue; // deliberate, justified exclusion: stop the walk
            }
            if !reads_field(&body, &field.name) {
                emit(
                    out,
                    file,
                    info,
                    field.line,
                    format!(
                        "field `{}.{}` is not read by any of the {} registered stage \
                         fingerprint functions; a config knob outside the fingerprint chain \
                         can serve stale cached artifacts",
                        item.name,
                        field.name,
                        registered.len()
                    ),
                );
                continue;
            }
            let base = base_type_ident(&field.ty).to_string();
            if !base.is_empty() && !visited.contains(&base) {
                if let Some(next) = idx.find_struct(&base, Some(fi)) {
                    visited.push(base);
                    queue.push(next);
                }
            }
        }
    }
}

/// Concatenated stripped bodies of the named functions plus, transitively,
/// every same-file function they call (by identifier reference) — so a
/// fingerprint helper like `hash_prefixes` counts toward coverage.
fn reachable_body_text(f: &FileIndex, roots: &[String]) -> String {
    let mut text = String::new();
    let mut pending: Vec<String> = roots.to_vec();
    let mut done: Vec<String> = Vec::new();
    while let Some(name) = pending.pop() {
        if done.contains(&name) {
            continue;
        }
        done.push(name.clone());
        for it in &f.items {
            if it.kind != ItemKind::Fn || it.name != name {
                continue;
            }
            for l in it.body_start..=it.body_end {
                if let Some(line) = f.stripped.lines.get(l.saturating_sub(1)) {
                    text.push_str(line);
                    text.push('\n');
                }
            }
        }
        for it in &f.items {
            if it.kind == ItemKind::Fn
                && !done.contains(&it.name)
                && !pending.contains(&it.name)
                && !rules::ident_occurrences(&text, &it.name).is_empty()
            {
                pending.push(it.name.clone());
            }
        }
    }
    text
}

/// True when `text` contains a `.field` access (right-bounded, so `.cfg`
/// does not match `.cfg_fp`).
fn reads_field(text: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let mut from = 0usize;
    while let Some(off) = text[from..].find(&pat) {
        let idx = from + off;
        let after = idx + pat.len();
        let boundary = !text[after..]
            .chars()
            .next()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false);
        if boundary {
            return true;
        }
        from = idx + 1;
    }
    false
}

// ---------------------------------------------------------------- L007

/// Modules allowed to contain `unsafe` at all. Everything here has been
/// audited line by line; new entries are a deliberate review decision.
const UNSAFE_ALLOWED_MODULES: &[&str] = &[
    "crates/serve/src/mmap.rs",
    "crates/serve/tests/counting_alloc/mod.rs",
];

/// L007: `unsafe` only in allowlisted modules, and every occurrence needs
/// an adjacent `// SAFETY:` comment — on the same line or in the
/// contiguous comment/attribute block immediately above.
fn l007_unsafe_contracts(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let info = &RULES[6];
    for f in &idx.files {
        for (i, line) in f.stripped.lines.iter().enumerate() {
            if rules::ident_occurrences(line, "unsafe").is_empty() {
                continue;
            }
            let ln = i + 1;
            if !UNSAFE_ALLOWED_MODULES.contains(&f.rel.as_str()) {
                emit(
                    out,
                    f,
                    info,
                    ln,
                    format!(
                        "`unsafe` outside the allowlisted modules ({}); keep unsafety behind \
                         an audited module boundary",
                        UNSAFE_ALLOWED_MODULES.join(", ")
                    ),
                );
            } else if !has_adjacent_safety(f, i) {
                emit(
                    out,
                    f,
                    info,
                    ln,
                    "`unsafe` without an adjacent `// SAFETY:` comment stating the invariant \
                     that makes it sound"
                        .to_string(),
                );
            }
        }
    }
}

/// A `SAFETY:` marker on the flagged line or in the unbroken run of
/// comment/attribute lines directly above it.
fn has_adjacent_safety(f: &FileIndex, line0: usize) -> bool {
    if f.orig
        .get(line0)
        .map(|l| l.contains("SAFETY:"))
        .unwrap_or(false)
    {
        return true;
    }
    let mut j = line0;
    while j > 0 {
        j -= 1;
        let t = f.orig[j].trim();
        if t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") {
            if t.contains("SAFETY:") {
                return true;
            }
            continue;
        }
        break; // code or blank line ends the adjacent block
    }
    false
}

// ---------------------------------------------------------------- L008

/// The compilation unit a file belongs to for cross-file atomics pairing:
/// a crate's `src` tree, a crate's `tests` tree (integration binaries
/// share `common/`), or the root facade's `src`/`tests`.
fn unit_key(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 3 && parts[0] == "crates" && (parts[2] == "src" || parts[2] == "tests") {
        return parts[..3].join("/");
    }
    if !parts.is_empty() && (parts[0] == "src" || parts[0] == "tests") {
        return parts[0].to_string();
    }
    rel.to_string()
}

/// Lines `i..i+3` (stripped) contain any of `pats` — enough slack for a
/// rustfmt-wrapped `store(` call.
fn window_has(f: &FileIndex, i: usize, pats: &[&str]) -> bool {
    (i..(i + 3).min(f.stripped.lines.len()))
        .any(|j| pats.iter().any(|p| f.stripped.lines[j].contains(p)))
}

/// The trailing identifier of `s` (the receiver field/static before a
/// `.store(`/`.load(`), e.g. `self.generation` → `generation`.
fn trailing_ident(s: &str) -> &str {
    let end = s.len();
    let start = s
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map(|p| p + 1)
        .unwrap_or(0);
    &s[start..end]
}

/// L008: the atomics audit.
///
/// * Every `store(…, Ordering::Release)` on a field/static must have a
///   matching `load(Acquire)` (or `SeqCst`) on the same receiver name
///   somewhere in its compilation unit — a one-sided publication protocol
///   is a bug (this pins the `ServeState` generation handshake).
/// * `Ordering::Relaxed` in test code is flagged (L003 covers non-test
///   code); counters that genuinely need no ordering get an
///   `// lint: allow(atomics, <reason>)`.
fn l008_atomics_audit(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let info = &RULES[7];

    // Pass 1: all acquire-load receivers, per unit.
    let mut acquires: Vec<(String, String)> = Vec::new();
    for f in &idx.files {
        let unit = unit_key(&f.rel);
        for (i, line) in f.stripped.lines.iter().enumerate() {
            let mut from = 0usize;
            while let Some(off) = line[from..].find(".load(") {
                let at = from + off;
                from = at + ".load(".len();
                if window_has(f, i, &["Ordering::Acquire", "Ordering::SeqCst"]) {
                    let recv = trailing_ident(&line[..at]);
                    if !recv.is_empty() {
                        acquires.push((unit.clone(), recv.to_string()));
                    }
                }
            }
        }
    }

    // Pass 2: flag unpaired release stores and relaxed atomics in tests.
    for f in &idx.files {
        let unit = unit_key(&f.rel);
        let test_path = rules::is_test_path(&f.rel);
        for (i, line) in f.stripped.lines.iter().enumerate() {
            let ln = i + 1;
            if test_path && line.contains("Ordering::Relaxed") {
                emit(
                    out,
                    f,
                    info,
                    ln,
                    "`Ordering::Relaxed` in test code; tests that probe concurrent behavior \
                     should use the ordering the production protocol uses"
                        .to_string(),
                );
            }
            let mut from = 0usize;
            while let Some(off) = line[from..].find(".store(") {
                let at = from + off;
                from = at + ".store(".len();
                if !window_has(f, i, &["Ordering::Release"]) {
                    continue;
                }
                let recv = trailing_ident(&line[..at]);
                if recv.is_empty() {
                    continue;
                }
                if !acquires.iter().any(|(u, r)| *u == unit && *r == recv) {
                    emit(
                        out,
                        f,
                        info,
                        ln,
                        format!(
                            "`store(…, Release)` on `{recv}` has no matching `load(Acquire)` \
                             anywhere in `{unit}`; one-sided publication means readers may \
                             never synchronize with this write"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L009

/// L009: every artifact kind tag (a `u16` const inside a `mod kind`) must
/// have encode (`Encoder::new(kind::X)`), decode (a `kind::X => …` match
/// arm or `Decoder::open(…, kind::X)`), and borrowed-view coverage (a
/// `kind::X` reference in a `view.rs`) — all in non-test code. A frame
/// kind that can be written but not read back, or read but never viewed
/// zero-copy, is a latent cache-corruption bug.
fn l009_codec_kinds(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let info = &RULES[8];
    for f in &idx.files {
        for (mi, m) in f.items.iter().enumerate() {
            if m.kind != ItemKind::Mod || m.name != "kind" {
                continue;
            }
            for it in &f.items {
                if it.parent != Some(mi) || it.kind != ItemKind::Const || it.ty != "u16" {
                    continue;
                }
                let mut missing: Vec<&str> = Vec::new();
                if !kind_usage(idx, &it.name, KindUse::Encode) {
                    missing.push("encode (`Encoder::new(kind::…)`)");
                }
                if !kind_usage(idx, &it.name, KindUse::Decode) {
                    missing.push("decode (a `kind::… =>` match arm or `Decoder::open`)");
                }
                if !kind_usage(idx, &it.name, KindUse::View) {
                    missing.push("a borrowed view (reference from a `view.rs`)");
                }
                if !missing.is_empty() {
                    emit(
                        out,
                        f,
                        info,
                        it.line,
                        format!(
                            "artifact kind `{}` is missing {}; every frame kind needs \
                             encode, decode, and view coverage",
                            it.name,
                            missing.join(", ")
                        ),
                    );
                }
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum KindUse {
    Encode,
    Decode,
    View,
}

/// Byte offsets of right-bounded `kind::TAG` references in `line`.
fn kind_refs(line: &str, tag: &str) -> Vec<usize> {
    let pat = format!("kind::{tag}");
    let mut found = Vec::new();
    let mut from = 0usize;
    while let Some(off) = line[from..].find(&pat) {
        let idx = from + off;
        let after = idx + pat.len();
        let boundary = !line[after..]
            .chars()
            .next()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false);
        if boundary {
            found.push(idx);
        }
        from = idx + 1;
    }
    found
}

fn kind_usage(idx: &WorkspaceIndex, tag: &str, usage: KindUse) -> bool {
    for f in &idx.files {
        if rules::is_test_path(&f.rel) {
            continue; // coverage must come from production code
        }
        if usage == KindUse::View && !f.rel.ends_with("view.rs") {
            continue;
        }
        for (i, line) in f.stripped.lines.iter().enumerate() {
            if f.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            for at in kind_refs(line, tag) {
                let hit = match usage {
                    KindUse::View => true,
                    KindUse::Encode => {
                        // `Encoder::new(` on this line or the one above
                        // (rustfmt may wrap the argument).
                        line.contains("Encoder::new")
                            || (i > 0 && f.stripped.lines[i - 1].contains("Encoder::new"))
                    }
                    KindUse::Decode => {
                        // A match arm with the tag on the *left* of `=>`
                        // (`"s1" => kind::X` in tag_for_stage is not a
                        // decode site), or a `Decoder::open` argument.
                        line[at..].contains("=>")
                            || line.contains("Decoder::open")
                            || (i > 0 && f.stripped.lines[i - 1].contains("Decoder::open"))
                    }
                };
                if hit {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_keys() {
        assert_eq!(unit_key("crates/serve/src/state.rs"), "crates/serve/src");
        assert_eq!(unit_key("crates/serve/tests/common/mod.rs"), "crates/serve/tests");
        assert_eq!(unit_key("src/lib.rs"), "src");
        assert_eq!(unit_key("tests/full_pipeline.rs"), "tests");
    }

    #[test]
    fn trailing_ident_extracts_receiver() {
        assert_eq!(trailing_ident("        self.generation"), "generation");
        assert_eq!(trailing_ident("stop"), "stop");
        assert_eq!(trailing_ident("    NEXT_GENERATION"), "NEXT_GENERATION");
        assert_eq!(trailing_ident("x)"), "");
    }

    #[test]
    fn field_reads_are_right_bounded() {
        assert!(reads_field("ctx.cfg.sanitize.ixp_asns", "cfg"));
        assert!(!reads_field("spec.cfg_fp(ctx)", "cfg"));
        assert!(reads_field("a.prefix_fp\n", "prefix_fp"));
    }

    #[test]
    fn kind_refs_are_right_bounded() {
        assert_eq!(kind_refs("Encoder::new(kind::CONE)", "CONE"), vec![13]);
        assert!(kind_refs("kind::CONE2 =>", "CONE").is_empty());
    }
}
