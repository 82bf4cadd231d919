//! Linter self-tests: every rule is exercised against a fixture with
//! seeded violations, asserting exact rule ids and file:line spans, plus
//! clean-file silence and the CLI exit-code contract.

use asrank_lint::{check_file, Finding};
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// (rule, line) pairs of all findings, in report order.
fn spans(findings: &[Finding]) -> Vec<(&'static str, usize)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn l001_fixture_spans() {
    // Labelled inside a determinism-critical module so L001 applies.
    let label = "crates/core/src/pipeline/l001_fixture.rs";
    let findings = check_file(label, &fixture("l001.rs"));
    assert!(findings.iter().all(|f| f.file == label));
    assert_eq!(
        spans(&findings),
        vec![
            ("L001", 23),
            ("L001", 25),
            ("L001", 27),
            ("L001", 32),
            ("L001", 36),
        ],
        "findings: {findings:#?}"
    );
    // The reason-less annotation is called out in the message.
    let f32 = findings.iter().find(|f| f.line == 32).unwrap();
    assert!(f32.message.contains("no reason"), "{}", f32.message);
}

#[test]
fn l001_out_of_scope_file_is_silent() {
    // Same source under a non-critical label: no L001 findings.
    let findings = check_file("crates/core/src/io_fixture.rs", &fixture("l001.rs"));
    assert!(
        findings.iter().all(|f| f.rule != "L001"),
        "findings: {findings:#?}"
    );
}

#[test]
fn l002_fixture_spans() {
    let findings = check_file("crates/core/src/l002_fixture.rs", &fixture("l002.rs"));
    assert_eq!(
        spans(&findings),
        vec![
            ("L002", 5),
            ("L002", 6),
            ("L002", 8),
            ("L002", 11),
            ("L002", 12),
            ("L002", 13),
        ],
        "findings: {findings:#?}"
    );
}

#[test]
fn l002_does_not_apply_outside_core() {
    let findings = check_file("crates/cli/src/l002_fixture.rs", &fixture("l002.rs"));
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

#[test]
fn l003_fixture_spans() {
    let findings = check_file("crates/cli/src/l003_fixture.rs", &fixture("l003.rs"));
    assert_eq!(
        spans(&findings),
        vec![("L003", 5), ("L003", 6)],
        "findings: {findings:#?}"
    );
}

#[test]
fn l004_fixture_spans() {
    let findings = check_file("crates/types/src/l004_fixture.rs", &fixture("l004.rs"));
    assert_eq!(
        spans(&findings),
        vec![
            ("L004", 6),
            ("L004", 16),
            ("L004", 19),
            ("L004", 33),
            ("L004", 43),
        ],
        "findings: {findings:#?}"
    );
}

#[test]
fn l005_fixture_spans() {
    let findings = check_file("crates/core/src/l005_fixture.rs", &fixture("l005.rs"));
    assert_eq!(
        spans(&findings),
        vec![("L005", 4), ("L005", 5), ("L005", 6), ("L005", 7)],
        "findings: {findings:#?}"
    );
}

#[test]
fn clean_fixture_is_silent_under_strictest_scope() {
    let findings = check_file("crates/core/src/pipeline/clean_fixture.rs", &fixture("clean.rs"));
    assert!(findings.is_empty(), "findings: {findings:#?}");
}

// ------------------------------------------------------------- CLI

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_asrank-lint"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asrank-lint-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/core/src")).unwrap();
    fs::write(dir.join("Cargo.toml"), "[workspace]\n").unwrap();
    dir
}

/// An example under `dir` that calls `name`, so the library fn the test
/// plants has a caller and L010 stays out of the way.
fn example_calling(dir: &std::path::Path, name: &str) {
    fs::create_dir_all(dir.join("examples")).unwrap();
    fs::write(dir.join("examples/main.rs"), format!("fn main() {{ {name}(); }}\n")).unwrap();
}

#[test]
fn cli_exit_zero_on_clean_tree() {
    let dir = tmp("clean");
    fs::write(
        dir.join("crates/core/src/lib.rs"),
        "/// Docs.\npub fn ok() {}\n",
    )
    .unwrap();
    example_calling(&dir, "ok");
    let out = bin().args(["--root", dir.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("clean"), "{text}");
}

#[test]
fn cli_exit_one_with_findings_and_json_output() {
    let dir = tmp("dirty");
    fs::write(
        dir.join("crates/core/src/lib.rs"),
        "/// Docs.\npub fn boom(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .unwrap();
    example_calling(&dir, "boom");
    let out = bin()
        .args(["--root", dir.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"rule\":\"L002\""), "{text}");
    assert!(text.contains("\"line\":2"), "{text}");
    assert!(text.contains("\"violations\":1"), "{text}");
}

#[test]
fn cli_rule_filter_restricts_output() {
    let dir = tmp("filter");
    fs::write(
        dir.join("crates/core/src/lib.rs"),
        "pub fn undoc(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .unwrap();
    // Both L002 and L004 fire without a filter; with --rule L004 only one.
    let out = bin()
        .args(["--root", dir.to_str().unwrap(), "--rule", "L004", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"violations\":1"), "{text}");
    assert!(text.contains("L004"), "{text}");
    assert!(!text.contains("L002"), "{text}");
}

#[test]
fn cli_usage_errors_exit_two() {
    let out = bin().arg("--no-such-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = bin().args(["--root", "/no/such/dir"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = bin().args(["--rule", "L999"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn cli_list_rules() {
    let out = bin().arg("--list-rules").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for id in [
        "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009", "L010", "L000",
    ] {
        assert!(text.contains(id), "{text}");
    }
}

#[test]
fn cli_strict_audits_annotations() {
    let dir = tmp("strict");
    fs::write(
        dir.join("crates/core/src/lib.rs"),
        "/// Docs.\npub fn f() -> u32 {\n    // lint: allow(panics)\n    1\n}\n",
    )
    .unwrap();
    example_calling(&dir, "f");
    // Default mode tolerates the reason-less annotation (it just doesn't
    // suppress anything, and nothing here needs suppressing).
    let out = bin().args(["--root", dir.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    // Strict mode flags it as L000.
    let out = bin()
        .args(["--root", dir.to_str().unwrap(), "--strict"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("L000"), "{text}");
    assert!(text.contains("no reason"), "{text}");
}

#[test]
fn cli_strict_flags_unknown_slug() {
    let dir = tmp("strict-slug");
    fs::write(
        dir.join("crates/core/src/lib.rs"),
        "/// Docs.\npub fn f() -> u32 {\n    // lint: allow(nosuchrule, because)\n    1\n}\n",
    )
    .unwrap();
    let out = bin()
        .args(["--root", dir.to_str().unwrap(), "--strict"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("unknown rule slug `nosuchrule`"), "{text}");
}

#[test]
fn cli_fix_annotations_is_a_dry_run() {
    let dir = tmp("fixann");
    let src_path = dir.join("crates/core/src/lib.rs");
    fs::write(
        &src_path,
        "/// Docs.\npub fn boom(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .unwrap();
    let out = bin()
        .args(["--root", dir.to_str().unwrap(), "--fix-annotations"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    // Exact location and the exact annotation line to paste.
    assert!(text.contains("crates/core/src/lib.rs:2: L002 [panics]"), "{text}");
    assert!(text.contains("// lint: allow(panics, "), "{text}");
    // Nothing was written.
    let src = fs::read_to_string(&src_path).unwrap();
    assert!(!src.contains("lint: allow"), "{src}");
}
