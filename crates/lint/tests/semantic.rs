//! Fixture tests for the cross-file semantic rules (L006–L010): exact
//! rule/file/line spans against seeded violations, with the fixtures
//! labelled as the workspace paths each rule scopes on.

use asrank_lint::{check_workspace, Finding};
use std::fs;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn ws(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(rel, fx)| (rel.to_string(), fixture(fx)))
        .collect()
}

/// The findings of one rule, as `--rule` would report them: each
/// fixture seeds one rule's violations, and its `pub` items would also
/// draw L010 findings that are beside the point.
fn rule_findings(files: &[(String, String)], rule: &str) -> Vec<Finding> {
    let mut findings = check_workspace(files);
    findings.retain(|f| f.rule == rule);
    findings
}

/// (rule, file, line) triples of all findings, in report order.
fn spans(findings: &[Finding]) -> Vec<(&'static str, String, usize)> {
    findings
        .iter()
        .map(|f| (f.rule, f.file.clone(), f.line))
        .collect()
}

// ---------------------------------------------------------------- L006

#[test]
fn l006_uncovered_fields_across_files() {
    let files = ws(&[
        ("crates/core/src/engine.rs", "l006_engine.rs"),
        ("crates/core/src/pipeline/mod.rs", "l006_config.rs"),
    ]);
    let findings = rule_findings(&files, "L006");
    assert_eq!(
        spans(&findings),
        vec![
            ("L006", "crates/core/src/pipeline/mod.rs".to_string(), 12),
            ("L006", "crates/core/src/pipeline/mod.rs".to_string(), 16),
            ("L006", "crates/core/src/pipeline/mod.rs".to_string(), 23),
        ],
        "findings: {findings:#?}"
    );
    // The freshly added knob names the struct, the field, and the bug class.
    let fresh = findings.iter().find(|f| f.line == 12).unwrap();
    assert!(
        fresh.message.contains("InferenceConfig.fresh_knob") && fresh.message.contains("stale"),
        "{}",
        fresh.message
    );
    // The reason-less exclusion does not suppress, and says why.
    let reasonless = findings.iter().find(|f| f.line == 16).unwrap();
    assert!(
        reasonless.message.contains("no reason"),
        "{}",
        reasonless.message
    );
    // The nested struct is reached through a covered field's type.
    let nested = findings.iter().find(|f| f.line == 23).unwrap();
    assert!(nested.message.contains("NestedConfig.dead"), "{}", nested.message);
}

#[test]
fn l006_silent_without_fingerprint_machinery() {
    // No FpCtx anywhere: the rule does not apply (fixture workspaces,
    // downstream forks without the engine).
    let files = ws(&[("crates/core/src/pipeline/mod.rs", "l006_config.rs")]);
    let findings = rule_findings(&files, "L006");
    assert!(
        findings.iter().all(|f| f.rule != "L006"),
        "findings: {findings:#?}"
    );
}

#[test]
fn l006_registry_missing_is_itself_a_finding() {
    // FpCtx exists but the stage table registers nothing: one finding at
    // the struct, not silence.
    let engine = "struct FpCtx<'c> {\n    cfg: &'c Cfg,\n}\n";
    let files = vec![("crates/core/src/engine.rs".to_string(), engine.to_string())];
    let findings = rule_findings(&files, "L006");
    assert_eq!(
        spans(&findings),
        vec![("L006", "crates/core/src/engine.rs".to_string(), 1)],
        "findings: {findings:#?}"
    );
    assert!(findings[0].message.contains("no `cfg_fp:`"), "{}", findings[0].message);
}

// ---------------------------------------------------------------- L007

#[test]
fn l007_allowlisted_module_needs_safety_comments() {
    let files = ws(&[("crates/serve/src/mmap.rs", "l007.rs")]);
    let findings = rule_findings(&files, "L007");
    assert_eq!(
        spans(&findings),
        vec![
            ("L007", "crates/serve/src/mmap.rs".to_string(), 11),
            ("L007", "crates/serve/src/mmap.rs".to_string(), 19),
        ],
        "findings: {findings:#?}"
    );
    assert!(findings[0].message.contains("SAFETY"), "{}", findings[0].message);
}

#[test]
fn l007_outside_allowlist_every_unsafe_is_flagged() {
    let files = ws(&[("crates/core/src/bad.rs", "l007.rs")]);
    let findings = rule_findings(&files, "L007");
    assert_eq!(
        spans(&findings),
        vec![
            ("L007", "crates/core/src/bad.rs".to_string(), 10),
            ("L007", "crates/core/src/bad.rs".to_string(), 11),
            ("L007", "crates/core/src/bad.rs".to_string(), 15),
            ("L007", "crates/core/src/bad.rs".to_string(), 19),
            ("L007", "crates/core/src/bad.rs".to_string(), 25),
        ],
        "findings: {findings:#?}"
    );
    assert!(
        findings[0].message.contains("allowlisted"),
        "{}",
        findings[0].message
    );
}

// ---------------------------------------------------------------- L008

#[test]
fn l008_unpaired_release_store_cross_file() {
    // The `generation` Acquire load lives in a *different file* of the
    // same unit, so only `orphan` is flagged.
    let files = ws(&[
        ("crates/serve/src/state.rs", "l008_store.rs"),
        ("crates/serve/src/reader.rs", "l008_load.rs"),
    ]);
    let findings = rule_findings(&files, "L008");
    assert_eq!(
        spans(&findings),
        vec![("L008", "crates/serve/src/state.rs".to_string(), 15)],
        "findings: {findings:#?}"
    );
    assert!(findings[0].message.contains("orphan"), "{}", findings[0].message);
}

#[test]
fn l008_pairing_does_not_cross_unit_boundaries() {
    // Same files, but the load is in another crate: both stores now have
    // no in-unit reader — `generation` joins `orphan`.
    let files = ws(&[
        ("crates/serve/src/state.rs", "l008_store.rs"),
        ("crates/other/src/reader.rs", "l008_load.rs"),
    ]);
    let findings = rule_findings(&files, "L008");
    assert_eq!(
        spans(&findings),
        vec![
            ("L008", "crates/serve/src/state.rs".to_string(), 14),
            ("L008", "crates/serve/src/state.rs".to_string(), 15),
        ],
        "findings: {findings:#?}"
    );
}

#[test]
fn l008_relaxed_in_tests_flagged_unless_annotated() {
    let files = ws(&[("crates/serve/tests/counter.rs", "l008_test_relaxed.rs")]);
    let findings = rule_findings(&files, "L008");
    assert_eq!(
        spans(&findings),
        vec![("L008", "crates/serve/tests/counter.rs".to_string(), 10)],
        "findings: {findings:#?}"
    );
}

#[test]
fn l008_relaxed_in_src_is_l003_territory() {
    // The same source under a src label: L008 stays quiet (L003 handles
    // non-test code; here the rule would double-report).
    let files = ws(&[("crates/serve/src/counter.rs", "l008_test_relaxed.rs")]);
    let findings = rule_findings(&files, "L008");
    assert!(
        findings.iter().all(|f| f.rule != "L008"),
        "findings: {findings:#?}"
    );
}

// ---------------------------------------------------------------- L009

#[test]
fn l009_missing_coverage_spans() {
    let files = ws(&[
        ("crates/core/src/persist/mod.rs", "l009_kinds.rs"),
        ("crates/core/src/persist/codec.rs", "l009_codec.rs"),
    ]);
    let findings = rule_findings(&files, "L009");
    assert_eq!(
        spans(&findings),
        vec![
            ("L009", "crates/core/src/persist/mod.rs".to_string(), 9),
            ("L009", "crates/core/src/persist/mod.rs".to_string(), 11),
        ],
        "findings: {findings:#?}"
    );
    let beta = findings.iter().find(|f| f.line == 9).unwrap();
    assert!(
        beta.message.contains("BETA") && beta.message.contains("decode"),
        "{}",
        beta.message
    );
    assert!(
        !beta.message.contains("encode ("),
        "BETA has encode coverage: {}",
        beta.message
    );
    let orphan = findings.iter().find(|f| f.line == 11).unwrap();
    assert!(
        orphan.message.contains("ORPHAN")
            && orphan.message.contains("encode")
            && orphan.message.contains("decode"),
        "{}",
        orphan.message
    );
}

#[test]
fn l009_right_of_arrow_reference_is_not_decode_coverage() {
    // `tag_name` maps `"orphan" => kind::ORPHAN` — the reference exists,
    // but on the wrong side of `=>`; ORPHAN must still be flagged for
    // missing decode.
    let files = ws(&[
        ("crates/core/src/persist/mod.rs", "l009_kinds.rs"),
        ("crates/core/src/persist/codec.rs", "l009_codec.rs"),
    ]);
    let findings = rule_findings(&files, "L009");
    let orphan = findings
        .iter()
        .find(|f| f.rule == "L009" && f.line == 11)
        .expect("ORPHAN finding");
    assert!(orphan.message.contains("decode"), "{}", orphan.message);
}

// ---------------------------------------------------------------- L010

fn l010_workspace() -> Vec<(String, String)> {
    ws(&[
        ("crates/demo/src/lib.rs", "l010_lib.rs"),
        ("crates/demo/tests/it.rs", "l010_test.rs"),
        ("benchmark/src/main.rs", "l010_bench.rs"),
        ("examples/demo.rs", "l010_example.rs"),
    ])
}

#[test]
fn l010_flags_items_no_production_code_names() {
    let findings = check_workspace(&l010_workspace());
    // Every finding is L010: nothing else is seeded, and the read-only
    // caller files are never linted themselves.
    assert_eq!(
        spans(&findings),
        vec![
            ("L010", "crates/demo/src/lib.rs".to_string(), 7),
            ("L010", "crates/demo/src/lib.rs".to_string(), 12),
            ("L010", "crates/demo/src/lib.rs".to_string(), 34),
            ("L010", "crates/demo/src/lib.rs".to_string(), 60),
        ],
        "findings: {findings:#?}"
    );
    let unused = &findings[0];
    assert!(unused.message.contains("`unused`"), "{}", unused.message);
    let reasonless = &findings[2];
    assert!(reasonless.message.contains("no reason"), "{}", reasonless.message);
    let reexported = &findings[3];
    assert!(
        reexported.message.contains("`Reexported`"),
        "{}",
        reexported.message
    );
}

#[test]
fn l010_benchmark_and_examples_are_the_callers() {
    // The same library without its read-only callers: the two fns they
    // call and `Bag` (named by the benchmark) lose their callers, and
    // `is_empty` loses its exemption with `len`.
    let files: Vec<(String, String)> = l010_workspace()
        .into_iter()
        .filter(|(rel, _)| !rel.starts_with("benchmark/") && !rel.starts_with("examples/"))
        .collect();
    let lines: Vec<usize> = rule_findings(&files, "L010")
        .iter()
        .map(|f| f.line)
        .collect();
    assert_eq!(lines, vec![7, 12, 17, 22, 34, 44, 48, 53, 60]);
}
