//! `asrank-lint` — repo-specific static source checker for the asrank
//! workspace.
//!
//! Nine rules guard the properties the test suite cannot cheaply
//! observe. Five are file-local pattern checks: deterministic iteration
//! in ordered-output code (L001), panic-freedom of `crates/core` (L002),
//! no unannotated relaxed atomics outside tests (L003), doc
//! coverage of the public API (L004), and checked narrowing on dense-id
//! arithmetic (L005). Four are cross-file semantic passes over a
//! whole-workspace item index ([`semantic::WorkspaceIndex`]): stage
//! fingerprint coverage of every config field (L006), `unsafe`/`SAFETY:`
//! contracts (L007), the release/acquire pairing of atomic publication
//! protocols (L008), and codec kind-tag exhaustiveness (L009). Strict
//! mode adds L000, a meta-check on the allow-annotations themselves. See
//! [`rules::RULES`] for the full table and `README.md` for the workflow.
//!
//! Zero dependencies by design: the linter must build and run even when
//! the rest of the workspace is broken, which is exactly when it is most
//! useful.

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

pub use rules::{check_file, Finding, RuleInfo, META_RULE, RULES};
pub use semantic::{check_workspace, WorkspaceIndex};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Result of linting a file tree.
#[derive(Debug)]
pub struct Report {
    /// All findings, ordered by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Collect the workspace source files the linter covers: `src/` and
/// `tests/` of the root facade crate plus `crates/*/src` and
/// `crates/*/tests`. Vendored stubs, `target/`, benches, and any
/// directory named `fixtures` (seeded-violation test data) are
/// deliberately out of scope. Paths come back sorted for deterministic
/// reports.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src"), root.join("tests")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        names.sort();
        for name in names {
            roots.push(name.join("src"));
            roots.push(name.join("tests"));
        }
    }
    for src in roots {
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    let mut out: Vec<(String, PathBuf)> = files
        .into_iter()
        .filter_map(|p| {
            let rel = p.strip_prefix(root).ok()?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Some((rel, p))
        })
        .collect();
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().map(|n| n == "fixtures").unwrap_or(false) {
                continue; // seeded-violation test data, not workspace code
            }
            collect_rs(&path, files)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            files.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`, restricted to `rule_filter`
/// when non-empty (rule ids like `L001`). `strict` additionally audits
/// the allow-annotations themselves (L000: unknown slugs, missing
/// reasons).
pub fn lint_workspace(root: &Path, rule_filter: &[String], strict: bool) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let files_scanned = files.len();
    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for (rel, path) in files {
        sources.push((rel, fs::read_to_string(&path)?));
    }

    let mut findings = Vec::new();
    for (rel, source) in &sources {
        findings.extend(check_file(rel, source));
    }
    let index = WorkspaceIndex::build(&sources);
    findings.extend(semantic::check_index(&index));
    if strict {
        findings.extend(semantic::annotation_findings(&index));
    }
    if !rule_filter.is_empty() {
        findings.retain(|f| rule_filter.iter().any(|r| r == f.rule));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    Ok(Report {
        findings,
        files_scanned,
    })
}

/// Render findings in the human, diff-style format:
///
/// ```text
/// crates/core/src/cone.rs:508: L001 [nondeterministic-iter] iteration over ...
///   |     let distinct: HashSet<&AsPath> = sanitized.paths().collect();
///   = help: sort the iterated result ...
/// ```
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: {} [{}] {}\n  |  {}\n",
            f.file, f.line, f.rule, f.slug, f.message, f.excerpt
        ));
        if let Some(info) = RULES
            .iter()
            .chain(std::iter::once(&META_RULE))
            .find(|r| r.id == f.rule)
        {
            out.push_str(&format!("  = help: {}\n", info.help));
        }
    }
    if report.findings.is_empty() {
        out.push_str(&format!(
            "asrank-lint: clean ({} files scanned)\n",
            report.files_scanned
        ));
    } else {
        out.push_str(&format!(
            "asrank-lint: {} violation(s) in {} file(s) ({} files scanned)\n",
            report.findings.len(),
            {
                let mut files: Vec<&str> = report.findings.iter().map(|f| f.file.as_str()).collect();
                files.dedup();
                files.len()
            },
            report.files_scanned
        ));
    }
    out
}

/// The lint-JSON schema version. Bump only when a key is renamed,
/// removed, or changes meaning; adding keys is backward-compatible and
/// does not bump it. Pinned by `tests/schema.rs` so downstream tooling
/// can rely on the shape.
pub const JSON_SCHEMA_VERSION: u32 = 1;

/// Render findings as a single machine-readable JSON object.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"tool\":\"asrank-lint\",\"schema_version\":");
    out.push_str(&JSON_SCHEMA_VERSION.to_string());
    out.push_str(",\"files_scanned\":");
    out.push_str(&report.files_scanned.to_string());
    out.push_str(",\"violations\":");
    out.push_str(&report.findings.len().to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"slug\":{},\"file\":{},\"line\":{},\"message\":{},\"excerpt\":{}}}",
            json_str(f.rule),
            json_str(f.slug),
            json_str(&f.file),
            f.line,
            json_str(&f.message),
            json_str(&f.excerpt),
        ));
    }
    out.push_str("]}\n");
    out
}

/// Render the `--fix-annotations` dry run: for every finding, the exact
/// `// lint: allow(..)` line that would suppress it and where to put it.
/// Nothing is written — triage stays a human decision, but the reviewer
/// no longer needs to know each rule's slug by heart.
pub fn render_fix_annotations(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        if f.rule == META_RULE.id {
            // L000 flags a broken annotation; the fix is editing it, not
            // adding another.
            out.push_str(&format!(
                "{}:{}: {} — rewrite the annotation on this line:\n  // lint: allow(<slug>, <reason>)\n",
                f.file, f.line, f.rule
            ));
            continue;
        }
        out.push_str(&format!(
            "{}:{}: {} [{}] — to suppress, insert above line {} (or append to it):\n  // lint: allow({}, <why this is sound>)\n",
            f.file, f.line, f.rule, f.slug, f.line, f.slug
        ));
    }
    if report.findings.is_empty() {
        out.push_str("asrank-lint: nothing to annotate (no findings)\n");
    } else {
        out.push_str(&format!(
            "asrank-lint: {} finding(s); prefer fixing over annotating — every allow needs a reason\n",
            report.findings.len()
        ));
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn human_render_mentions_rule_and_location() {
        let report = Report {
            findings: vec![Finding {
                rule: "L002",
                slug: "panics",
                file: "crates/core/src/x.rs".into(),
                line: 7,
                message: "boom".into(),
                excerpt: "x.unwrap()".into(),
            }],
            files_scanned: 3,
        };
        let text = render_human(&report);
        assert!(text.contains("crates/core/src/x.rs:7: L002 [panics] boom"));
        assert!(text.contains("1 violation(s)"));
    }
}
