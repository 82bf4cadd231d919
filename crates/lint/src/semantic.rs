//! Cross-file semantic rules (L006–L010).
//!
//! Unlike the line-oriented rules in [`crate::rules`], these passes index
//! the whole workspace first — every file stripped, test-masked, and
//! item-parsed into a [`WorkspaceIndex`] — and then check properties that
//! span files: a config struct in `pipeline/mod.rs` against the
//! fingerprint functions in `engine.rs` (L006), `unsafe` sites against
//! the module allowlist and their `// SAFETY:` contracts (L007), release
//! stores against acquire loads elsewhere in the same compilation unit
//! (L008), codec kind tags against their encode/decode call sites
//! (L009), and every library `pub` item against the non-test code that
//! names it (L010).
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
    /// Read-only caller files (see [`is_caller_only`]): L010 counts the
    /// names they use, and no rule checks them.
    pub callers: Vec<FileIndex>,
}

/// True for files outside the linted tree whose code still calls the
/// workspace's library API: the benchmark package and the examples.
pub fn is_caller_only(rel: &str) -> bool {
    rel.starts_with("benchmark/") || rel.starts_with("examples/")
}

impl WorkspaceIndex {
    /// Index `(rel, source)` pairs; caller-only paths land in `callers`.
    pub fn build(files: &[(String, String)]) -> WorkspaceIndex {
        let (callers, files): (Vec<FileIndex>, Vec<FileIndex>) = files
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
            .partition(|f| is_caller_only(&f.rel));
        WorkspaceIndex { files, callers }
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
// lint: allow(no-caller, tests/semantic.rs drives every cross-file rule through it on labelled fixtures)
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
    l010_no_caller(idx, &mut out);
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
/// have encode (`Encoder::new(kind::X)`) and decode (a `kind::X => …`
/// match arm or `Decoder::open(…, kind::X)`) coverage, both in non-test
/// code. A frame kind that can be written but not read back is a latent
/// cache-corruption bug. Borrowed views are not required: only the kinds
/// a query tier maps have one.
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
                if !missing.is_empty() {
                    emit(
                        out,
                        f,
                        info,
                        it.line,
                        format!(
                            "artifact kind `{}` is missing {}; every frame kind needs \
                             encode and decode coverage",
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
        for (i, line) in f.stripped.lines.iter().enumerate() {
            if f.mask.get(i).copied().unwrap_or(false) {
                continue;
            }
            for at in kind_refs(line, tag) {
                let hit = match usage {
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

// ---------------------------------------------------------------- L010

/// True for library source: `src/` of the root facade or of a crate.
fn is_library_source(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.first() == Some(&"src") || (parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src")
}

/// The self type an `impl` header (as [`parser`] captures it) names:
/// `Trait for Foo<T>` → `Foo`,
/// `<T> Foo<T>` → `Foo`.
fn impl_self_type(header: &str) -> &str {
    let mut rest = header.trim();
    if rest.starts_with('<') {
        let mut depth = 0i32;
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                rest = &rest[i + 1..];
                break;
            }
        }
    }
    let self_ty = match rules::ident_occurrences(rest, "for").last() {
        Some(&at) => &rest[at + "for".len()..],
        None => rest,
    };
    base_type_ident(self_ty)
}

/// L010: every bare-`pub` fn, struct, enum, trait and type alias in
/// library source needs a caller — a non-test line, outside the item's
/// own definition, that names it. Test code (`#[cfg(test)]` items and
/// `tests/` trees) does not count, nor does a `pub use` re-export; the
/// caller-only files (benchmark, examples) do. A type's own `impl`
/// blocks are part of its definition. `is_empty` beside a `len` that
/// has a caller is exempt.
///
/// Names are matched as identifiers, not resolved, so two items that
/// share a name vouch for each other: the rule misses some dead items
/// and never flags a live one.
fn l010_no_caller(idx: &WorkspaceIndex, out: &mut Vec<Finding>) {
    let info = &RULES[9];
    // Candidates, keyed by name.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut wanted: std::collections::HashMap<&str, Vec<(usize, usize)>> =
        std::collections::HashMap::new();
    for (fi, f) in idx.files.iter().enumerate() {
        if !is_library_source(&f.rel) {
            continue;
        }
        for (ii, it) in f.items.iter().enumerate() {
            let kind_ok = matches!(
                it.kind,
                ItemKind::Fn
                    | ItemKind::Struct
                    | ItemKind::Enum
                    | ItemKind::Trait
                    | ItemKind::TypeAlias
            );
            if it.is_pub && kind_ok && !it.name.is_empty() && !in_mask(f, it.line) {
                candidates.push((fi, ii));
                wanted.entry(it.name.as_str()).or_default();
            }
        }
    }
    if candidates.is_empty() {
        return;
    }

    // Every counted occurrence of a candidate name: (file, 1-based line),
    // where file indexes `idx.files` and then `idx.callers`.
    let all: Vec<&FileIndex> = idx.files.iter().chain(idx.callers.iter()).collect();
    let mut uses: std::collections::HashMap<&str, Vec<(usize, usize)>> =
        std::collections::HashMap::new();
    for (fi, f) in all.iter().enumerate() {
        if rules::is_test_path(&f.rel) {
            continue;
        }
        let mut reexport = vec![false; f.stripped.lines.len()];
        for it in &f.items {
            if it.kind == ItemKind::Use && it.is_pub {
                for l in it.line..=it.body_end {
                    if let Some(slot) = reexport.get_mut(l - 1) {
                        *slot = true;
                    }
                }
            }
        }
        for (i, line) in f.stripped.lines.iter().enumerate() {
            if f.mask.get(i).copied().unwrap_or(false) || reexport[i] {
                continue;
            }
            for word in line.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                if let Some((name, _)) = wanted.get_key_value(word) {
                    uses.entry(name).or_default().push((fi, i + 1));
                }
            }
        }
    }

    // A type's definition also covers the `impl` blocks of that type.
    let mut impl_spans: std::collections::HashMap<&str, Vec<(usize, usize, usize)>> =
        std::collections::HashMap::new();
    for (fi, f) in idx.files.iter().enumerate() {
        for it in &f.items {
            if it.kind == ItemKind::Impl {
                let ty = impl_self_type(&it.name);
                if wanted.contains_key(ty) {
                    impl_spans
                        .entry(ty)
                        .or_default()
                        .push((fi, it.line, it.body_end));
                }
            }
        }
    }

    let has_caller = |fi: usize, ii: usize| -> bool {
        let it = &idx.files[fi].items[ii];
        let own = |f: usize, l: usize| f == fi && (it.line..=it.body_end).contains(&l);
        let impls: &[(usize, usize, usize)] = match it.kind {
            ItemKind::Fn | ItemKind::Trait => &[],
            _ => impl_spans
                .get(it.name.as_str())
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        };
        uses.get(it.name.as_str())
            .map(|sites| {
                sites.iter().any(|&(f, l)| {
                    !own(f, l)
                        && !impls
                            .iter()
                            .any(|&(g, a, b)| g == f && (a..=b).contains(&l))
                })
            })
            .unwrap_or(false)
    };
    for &(fi, ii) in &candidates {
        if has_caller(fi, ii) {
            continue;
        }
        let f = &idx.files[fi];
        let it = &f.items[ii];
        let len_is_used = it.name == "is_empty"
            && f.items.iter().enumerate().any(|(j, sib)| {
                sib.parent == it.parent
                    && sib.kind == ItemKind::Fn
                    && sib.name == "len"
                    && has_caller(fi, j)
            });
        if len_is_used {
            continue;
        }
        emit(
            out,
            f,
            info,
            it.line,
            format!(
                "`{}` is `pub` but no non-test code names it outside its own definition (a \
                 `pub use` is not a caller); shipped API that only tests reach is dead weight",
                it.name
            ),
        );
    }
}

fn in_mask(f: &FileIndex, line: usize) -> bool {
    f.mask.get(line.saturating_sub(1)).copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impl_self_types() {
        assert_eq!(impl_self_type("PrefixTrie"), "PrefixTrie");
        assert_eq!(impl_self_type("Default for PrefixTrie"), "PrefixTrie");
        assert_eq!(impl_self_type("<T> Node<T>"), "Node");
        assert_eq!(impl_self_type("<'a> Iterator for Iter<'a>"), "Iter");
        assert_eq!(impl_self_type("From<u32> for Asn"), "Asn");
        assert_eq!(impl_self_type("<T>FromIterator<(P,T)>for Trie<T>"), "Trie");
    }

    #[test]
    fn library_source_paths() {
        assert!(is_library_source("src/lib.rs"));
        assert!(is_library_source("crates/core/src/engine.rs"));
        assert!(!is_library_source("crates/core/tests/x.rs"));
        assert!(!is_library_source("tests/properties.rs"));
        assert!(!is_library_source("benchmark/src/main.rs"));
    }

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
