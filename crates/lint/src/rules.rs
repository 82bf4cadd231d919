//! The file-local rules (L001–L005) and the shared rule table. Each
//! local rule is a line-oriented pattern check over [`lexer::strip`]ped
//! text, scoped to the files where the property matters, with
//! `// lint: allow(<slug>, <reason>)` as the escape hatch. The
//! cross-file rules (L006–L009) live in [`crate::semantic`] and run over
//! a whole-workspace item index.
//!
//! These are deliberately token-level heuristics, not a type checker:
//! they cannot see through method calls (`rels.c2p_pairs()` iterating an
//! internal map) or infer the type of destructured bindings. The scope is
//! "catch the patterns that have actually bitten this codebase", and the
//! semantic auditor (`asrank audit`) covers the dynamic side.

use crate::lexer::{self, Stripped};

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `L001`.
    pub rule: &'static str,
    /// Rule slug used in allow-annotations, e.g. `nondeterministic-iter`.
    pub slug: &'static str,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation of this specific violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

/// Static description of a rule, for `--list-rules` and report footers.
pub struct RuleInfo {
    /// Rule id (`L001`..`L009`, plus the `L000` strict meta-check).
    pub id: &'static str,
    /// Annotation slug.
    pub slug: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// How to fix or annotate.
    pub help: &'static str,
}

/// The strict-mode meta-check on the annotations themselves: every
/// `// lint: allow(..)` must name a known slug and carry a reason. Not
/// part of [`RULES`] because it cannot be allow-annotated away.
pub const META_RULE: RuleInfo = RuleInfo {
    id: "L000",
    slug: "annotation",
    summary: "allow-annotation without a reason, or with an unknown rule slug",
    help: "write `// lint: allow(<slug>, <reason>)` with a slug from --list-rules and a \
           reason stating why the exception is sound",
};

/// All rules, in id order.
pub const RULES: [RuleInfo; 9] = [
    RuleInfo {
        id: "L001",
        slug: "nondeterministic-iter",
        summary: "HashMap/HashSet iteration in determinism-critical modules",
        help: "sort the iterated result (a `.sort*` within the next few lines clears the \
               finding), drain into a BTree collection, or annotate \
               `// lint: allow(nondeterministic-iter, <reason>)`",
    },
    RuleInfo {
        id: "L002",
        slug: "panics",
        summary: "unwrap()/expect()/panic! in crates/core non-test code",
        help: "return a Result, restructure so the invariant is visible to the compiler, or \
               annotate `// lint: allow(panics, <invariant that makes this unreachable>)`",
    },
    RuleInfo {
        id: "L003",
        slug: "relaxed-ordering",
        summary: "Ordering::Relaxed outside core/src/par.rs",
        help: "atomics with Relaxed ordering are only audited in par.rs; use the helpers there \
               or annotate `// lint: allow(relaxed-ordering, <reason>)`",
    },
    RuleInfo {
        id: "L004",
        slug: "missing-doc",
        summary: "pub fn without a doc comment in crates/core or crates/types",
        help: "add a `///` doc comment (or `#[doc = ...]`) above the function",
    },
    RuleInfo {
        id: "L005",
        slug: "narrowing-cast",
        summary: "narrowing `as` cast on ASN/id-domain values outside the interner",
        help: "route the conversion through `asrank_types::asn::dense_id` (checked) or widen \
               the target type; the interner (types/src/asn.rs) is the one place allowed to \
               mint ids with a raw cast",
    },
    RuleInfo {
        id: "L006",
        slug: "fp-excluded",
        summary: "config field not mixed into any registered stage fingerprint",
        help: "read the field from an fp_* function registered as `cfg_fp:` in the stage \
               table (crates/core/src/engine.rs), or annotate the field \
               `// lint: allow(fp-excluded, <why it cannot change stage outputs>)`",
    },
    RuleInfo {
        id: "L007",
        slug: "unsafe-contract",
        summary: "unsafe outside allowlisted modules, or without an adjacent SAFETY: comment",
        help: "keep unsafety inside the audited modules (serve/src/mmap.rs, the counting \
               test allocator) and give every `unsafe` a `// SAFETY:` comment on the same \
               line or directly above",
    },
    RuleInfo {
        id: "L008",
        slug: "atomics",
        summary: "Release store with no Acquire load in its compilation unit, or Relaxed in tests",
        help: "pair every `store(…, Release)` with a `load(Acquire)` on the same receiver \
               in the same crate/test tree, and annotate genuinely order-free test counters \
               `// lint: allow(atomics, <reason>)`",
    },
    RuleInfo {
        id: "L009",
        slug: "codec-kind",
        summary: "artifact kind tag without encode, decode, and view coverage",
        help: "give every `u16` tag in `persist::kind` an `Encoder::new(kind::X)` site, a \
               decode match arm (or `Decoder::open`), and a borrowed-view reference in \
               persist/view.rs — or remove the dead tag",
    },
];

/// Files/prefixes where L001 (deterministic iteration) is enforced.
/// Entries ending in `/` are prefixes; others are exact paths.
const DETERMINISM_CRITICAL: &[&str] = &[
    "crates/core/src/engine.rs",
    "crates/core/src/pipeline/",
    "crates/core/src/pipeline.rs",
    "crates/core/src/cone.rs",
    "crates/core/src/delta.rs",
    "crates/core/src/par.rs",
    "crates/core/src/patharena.rs",
    "crates/core/src/persist/",
    "crates/serve/src/",
    "crates/types/src/codec.rs",
    "crates/mrt/src/batch.rs",
    "crates/mrt/src/scan.rs",
    "crates/bgpsim/src/propagate.rs",
];

/// Per-rule path allowlists: files exempt even though they fall in the
/// rule's scope.
const ALLOWLIST: &[(&str, &[&str])] = &[
    ("L003", &["crates/core/src/par.rs"]),
    ("L005", &["crates/types/src/asn.rs"]),
];

fn allowlisted(rule: &str, rel: &str) -> bool {
    ALLOWLIST
        .iter()
        .find(|(r, _)| *r == rule)
        .map(|(_, files)| files.contains(&rel))
        .unwrap_or(false)
}

/// True for files under an integration-test tree (`tests/` at the root
/// or inside a crate). L003 leaves those to L008's atomics audit.
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/")
}

fn in_scope_l001(rel: &str) -> bool {
    DETERMINISM_CRITICAL.iter().any(|p| {
        if let Some(prefix) = p.strip_suffix('/') {
            rel.starts_with(prefix) && rel.as_bytes().get(prefix.len()) == Some(&b'/')
        } else {
            rel == *p
        }
    })
}

fn in_core(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
}

fn in_core_or_types(rel: &str) -> bool {
    in_core(rel) || rel.starts_with("crates/types/src/")
}

/// Lint one file. `rel` is the repo-relative path (forward slashes) used
/// for rule scoping; `source` is the file's text. Findings come back in
/// (line, rule) order.
pub fn check_file(rel: &str, source: &str) -> Vec<Finding> {
    let stripped = lexer::strip(source);
    let mask = test_mask(&stripped.lines);
    let orig: Vec<&str> = source.split('\n').collect();
    let mut out = Vec::new();

    if in_scope_l001(rel) && !allowlisted("L001", rel) {
        l001(rel, &stripped, &mask, &orig, &mut out);
    }
    if in_core(rel) && !allowlisted("L002", rel) {
        l002(rel, &stripped, &mask, &orig, &mut out);
    }
    if !is_test_path(rel) && !allowlisted("L003", rel) {
        l003(rel, &stripped, &mask, &orig, &mut out);
    }
    if in_core_or_types(rel) && !allowlisted("L004", rel) {
        l004(rel, &stripped, &mask, &orig, &mut out);
    }
    if in_core_or_types(rel) && !allowlisted("L005", rel) {
        l005(rel, &stripped, &mask, &orig, &mut out);
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Mark lines that belong to `#[cfg(test)]` items (modules or functions):
/// from the attribute through the matching close brace of the item body.
pub fn test_mask(lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut l = 0usize;
    while l < lines.len() {
        let Some(col) = lines[l].find("#[cfg(test)]") else {
            l += 1;
            continue;
        };
        let mut depth = 0i32;
        let mut started = false;
        let mut cur = l;
        let mut done = false;
        while cur < lines.len() && !done {
            mask[cur] = true;
            for (ci, ch) in lines[cur].char_indices() {
                if cur == l && ci < col {
                    continue;
                }
                match ch {
                    '{' => {
                        depth += 1;
                        started = true;
                    }
                    '}' => {
                        depth -= 1;
                        if started && depth == 0 {
                            done = true;
                            break;
                        }
                    }
                    ';' if !started => {
                        // `#[cfg(test)] mod tests;` — out-of-line module.
                        done = true;
                        break;
                    }
                    _ => {}
                }
            }
            cur += 1;
        }
        l = cur.max(l + 1);
    }
    mask
}

fn emit(
    out: &mut Vec<Finding>,
    stripped: &Stripped,
    info: &RuleInfo,
    rel: &str,
    line0: usize,
    orig: &[&str],
    message: String,
) {
    let line = line0 + 1;
    if stripped.allowed(info.slug, line) {
        return;
    }
    let mut message = message;
    if stripped.allowed_without_reason(info.slug, line) {
        message.push_str(
            " (an allow-annotation covers this line but has no reason; add one to suppress)",
        );
    }
    out.push(Finding {
        rule: info.id,
        slug: info.slug,
        file: rel.to_string(),
        line,
        message,
        excerpt: orig.get(line0).map(|s| s.trim()).unwrap_or("").to_string(),
    });
}

/// True when `line[idx..]` starts with `pat` at an identifier boundary on
/// both sides.
pub(crate) fn ident_bounded(line: &str, idx: usize, len: usize) -> bool {
    let before_ok = idx == 0
        || !line[..idx]
            .chars()
            .next_back()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false);
    let after_ok = !line[idx + len..]
        .chars()
        .next()
        .map(|c| c.is_alphanumeric() || c == '_')
        .unwrap_or(false);
    before_ok && after_ok
}

/// All identifier-bounded occurrences of `name` in `line`.
pub(crate) fn ident_occurrences(line: &str, name: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let mut from = 0usize;
    while let Some(off) = line[from..].find(name) {
        let idx = from + off;
        if ident_bounded(line, idx, name.len()) {
            found.push(idx);
        }
        from = idx + name.len().max(1);
    }
    found
}

// ---------------------------------------------------------------- L001

const HASH_MARKERS: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];
/// Chain endings that consume the iterator order-insensitively.
const ORDER_FREE_SINKS: &[&str] = &[
    ".any(",
    ".all(",
    ".count()",
    ".sum()",
    ".sum::<",
    ".min()",
    ".max()",
    "BTreeMap",
    "BTreeSet",
];

fn l001(rel: &str, s: &Stripped, mask: &[bool], orig: &[&str], out: &mut Vec<Finding>) {
    // Pass 1: names bound to hash collections — `let [mut] x: HashMap...`,
    // `let x = HashMap::new()`, and `x: &HashMap<...>` parameters/fields.
    let mut tracked: Vec<String> = Vec::new();
    for (i, line) in s.lines.iter().enumerate() {
        if mask[i] || !HASH_MARKERS.iter().any(|m| line.contains(m)) {
            continue;
        }
        for idx in ident_occurrences(line, "let") {
            let rest = line[idx + 3..].trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() && !tracked.contains(&name) {
                tracked.push(name);
            }
        }
        for marker in HASH_MARKERS {
            let mut from = 0usize;
            while let Some(off) = line[from..].find(marker) {
                let idx = from + off;
                from = idx + marker.len();
                // Look back past `Fx`-style prefixes, `&`, `mut`, `::`
                // path segments for an `ident:` pattern.
                let before = line[..idx].trim_end_matches(|c: char| {
                    c.is_alphanumeric() || c == '_' || c == ':' || c == '&' || c == '<'
                });
                let before = before.trim_end();
                let Some(before) = before.strip_suffix(':').map(str::trim_end) else {
                    continue;
                };
                let name: String = before
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if !name.is_empty()
                    && name != "mut"
                    && !name.chars().next().map(char::is_numeric).unwrap_or(true)
                    && !tracked.contains(&name)
                {
                    tracked.push(name);
                }
            }
        }
    }

    // Pass 2: flag iteration over tracked names unless sorted or sunk
    // order-insensitively.
    for (i, line) in s.lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        // A sort (or an order-insensitive sink) appearing shortly after
        // the iteration clears it; 8 lines covers a formatted multi-line
        // collect-then-sort chain.
        let window_sorted = (i..(i + 8).min(s.lines.len())).any(|j| s.lines[j].contains(".sort"));
        let order_free = (i..(i + 4).min(s.lines.len()))
            .any(|j| ORDER_FREE_SINKS.iter().any(|m| s.lines[j].contains(m)));
        for name in &tracked {
            let mut hit = false;
            for idx in ident_occurrences(line, name) {
                let rest = &line[idx + name.len()..];
                if ITER_METHODS.iter().any(|m| rest.starts_with(m)) {
                    hit = true;
                }
                // Chain broken across lines: `distinct` at end of line,
                // `.into_iter()` starting the next.
                if rest.trim().is_empty() {
                    if let Some(next) = s.lines.get(i + 1) {
                        let next = next.trim_start();
                        if ITER_METHODS.iter().any(|m| next.starts_with(m)) {
                            hit = true;
                        }
                    }
                }
            }
            // Bare `for x in name {` / `for x in &name {`; iteration via a
            // method chain (`name.keys()`, `name.get(..)` → Vec) is handled
            // — or deliberately not handled — above.
            if !hit && line.contains("for ") {
                if let Some(pos) = line.find(" in ") {
                    let expr = line[pos + 4..].trim_start();
                    let expr = expr.trim_start_matches('&');
                    let expr = expr.strip_prefix("mut ").unwrap_or(expr);
                    if let Some(after) = expr.strip_prefix(name.as_str()) {
                        let after = after.trim_start();
                        if after.starts_with('{') {
                            hit = true;
                        } else if after.is_empty() {
                            // Line break after the name: bare iteration
                            // only if the chain doesn't continue with a
                            // (non-iterating) method on the next line.
                            let next = s
                                .lines
                                .get(i + 1)
                                .map(|l| l.trim_start())
                                .unwrap_or("");
                            if !next.starts_with('.')
                                || ITER_METHODS.iter().any(|m| next.starts_with(m))
                            {
                                hit = true;
                            }
                        }
                    }
                }
            }
            if hit && !window_sorted && !order_free {
                emit(
                    out,
                    s,
                    &RULES[0],
                    rel,
                    i,
                    orig,
                    format!(
                        "iteration over hash collection `{name}` feeds ordered output; hash \
                         order varies across runs/platforms"
                    ),
                );
                break; // one finding per line is enough
            }
        }
    }
}

// ---------------------------------------------------------------- L002

const PANIC_PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "`.unwrap()`"),
    (".expect(", "`.expect(..)`"),
    ("panic!", "`panic!`"),
    ("unreachable!", "`unreachable!`"),
    ("todo!", "`todo!`"),
    ("unimplemented!", "`unimplemented!`"),
];

fn l002(rel: &str, s: &Stripped, mask: &[bool], orig: &[&str], out: &mut Vec<Finding>) {
    for (i, line) in s.lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        for (pat, label) in PANIC_PATTERNS {
            let mut from = 0usize;
            let mut hit = false;
            while let Some(off) = line[from..].find(pat) {
                let idx = from + off;
                from = idx + pat.len();
                // Macro patterns need a left identifier boundary
                // (`should_panic!` style false positives); dotted calls
                // are anchored by the dot already.
                let left_ok = idx == 0
                    || !line[..idx]
                        .chars()
                        .next_back()
                        .map(|c| c.is_alphanumeric() || c == '_')
                        .unwrap_or(false);
                if pat.starts_with('.') || left_ok {
                    hit = true;
                    break;
                }
            }
            if hit {
                emit(
                    out,
                    s,
                    &RULES[1],
                    rel,
                    i,
                    orig,
                    format!("{label} can panic; core must stay panic-free outside tests"),
                );
                break;
            }
        }
    }
}

// ---------------------------------------------------------------- L003

fn l003(rel: &str, s: &Stripped, mask: &[bool], orig: &[&str], out: &mut Vec<Finding>) {
    for (i, line) in s.lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        if line.contains("Ordering::Relaxed") {
            emit(
                out,
                s,
                &RULES[2],
                rel,
                i,
                orig,
                "`Ordering::Relaxed` outside core/src/par.rs; relaxed atomics are only \
                 audited there"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- L004

fn l004(rel: &str, s: &Stripped, mask: &[bool], orig: &[&str], out: &mut Vec<Finding>) {
    for (i, line) in s.lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let Some(idx) = find_pub_fn(line) else {
            continue;
        };
        let _ = idx;
        // Walk up over attributes and blank lines looking for a doc line.
        let mut j = i;
        let mut documented = false;
        while j > 0 {
            j -= 1;
            let t = s.lines[j].trim();
            let orig_t = orig.get(j).map(|s| s.trim()).unwrap_or("");
            if s.doc[j] || orig_t.starts_with("#[doc") {
                documented = true;
                break;
            }
            // Skip attribute lines and blank (possibly comment-only) lines.
            if t.is_empty() || t.starts_with("#[") || t.ends_with(")]") {
                continue;
            }
            break;
        }
        if !documented {
            emit(
                out,
                s,
                &RULES[3],
                rel,
                i,
                orig,
                "public function without a doc comment".to_string(),
            );
        }
    }
}

/// Byte index of a `pub [const|async|unsafe|extern "..."] fn` on this
/// line, if any.
fn find_pub_fn(line: &str) -> Option<usize> {
    for idx in ident_occurrences(line, "pub") {
        let mut rest = line[idx + 3..].trim_start();
        loop {
            let mut advanced = false;
            for kw in ["const", "async", "unsafe", "extern"] {
                if let Some(r) = rest.strip_prefix(kw) {
                    if r.starts_with(char::is_whitespace) {
                        rest = r.trim_start();
                        advanced = true;
                    }
                }
            }
            if !advanced {
                break;
            }
        }
        if rest.starts_with("fn")
            && rest[2..]
                .chars()
                .next()
                .map(char::is_whitespace)
                .unwrap_or(false)
        {
            return Some(idx);
        }
    }
    None
}

// ---------------------------------------------------------------- L005

fn l005(rel: &str, s: &Stripped, mask: &[bool], orig: &[&str], out: &mut Vec<Finding>) {
    for (i, line) in s.lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        let mut flagged = false;
        for pat in [" as u8", " as u16"] {
            let mut from = 0usize;
            while let Some(off) = line[from..].find(pat) {
                let idx = from + off;
                from = idx + pat.len();
                if !line[idx + pat.len()..]
                    .chars()
                    .next()
                    .map(|c| c.is_alphanumeric() || c == '_')
                    .unwrap_or(false)
                {
                    emit(
                        out,
                        s,
                        &RULES[4],
                        rel,
                        i,
                        orig,
                        format!(
                            "narrowing cast `{}` can silently truncate id-domain values",
                            pat.trim_start()
                        ),
                    );
                    flagged = true;
                    break;
                }
            }
            if flagged {
                break;
            }
        }
        if flagged {
            continue;
        }
        // `len()/count()/count_ones() as u32`: usize → u32 narrowing on a
        // count that becomes a dense id or offset.
        let mut from = 0usize;
        while let Some(off) = line[from..].find(" as u32") {
            let idx = from + off;
            from = idx + 7;
            let before = line[..idx].trim_end();
            if before.ends_with(".len()")
                || before.ends_with(".count()")
                || before.ends_with(".count_ones()")
            {
                emit(
                    out,
                    s,
                    &RULES[4],
                    rel,
                    i,
                    orig,
                    "`usize` count cast to `u32` with `as` can silently truncate; use \
                     `dense_id` (checked) instead"
                        .to_string(),
                );
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_test_module() {
        let s = lexer::strip("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n");
        let m = test_mask(&s.lines);
        // Trailing newline yields a final empty line.
        assert_eq!(m, vec![false, true, true, true, true, false, false]);
    }

    #[test]
    fn pub_fn_detection() {
        assert!(find_pub_fn("pub fn foo() {}").is_some());
        assert!(find_pub_fn("    pub const fn foo() {}").is_some());
        assert!(find_pub_fn("pub(crate) fn foo() {}").is_none());
        assert!(find_pub_fn("fn foo() {}").is_none());
        assert!(find_pub_fn("pub struct Foo;").is_none());
    }

    #[test]
    fn scope_matching() {
        assert!(in_scope_l001("crates/core/src/pipeline/steps.rs"));
        assert!(in_scope_l001("crates/core/src/cone.rs"));
        assert!(in_scope_l001("crates/core/src/patharena.rs"));
        assert!(in_scope_l001("crates/bgpsim/src/propagate.rs"));
        assert!(!in_scope_l001("crates/core/src/io.rs"));
        assert!(!in_scope_l001("crates/bgpsim/src/lib.rs"));
    }
}
