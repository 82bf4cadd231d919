//! The workspace lints itself: all ten rules plus the strict annotation
//! audit, pinned at zero findings. Any new in-tree violation — an
//! unfingerprinted config knob, a bare `unsafe`, an unpaired Release
//! store, a dead codec tag, a `pub` item only tests call, a reason-less
//! annotation — fails this test
//! before it fails a human reviewer.

use std::path::PathBuf;

#[test]
fn workspace_is_clean_under_strict() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    assert!(
        root.join("Cargo.toml").is_file(),
        "not a workspace root: {}",
        root.display()
    );
    let report = asrank_lint::lint_workspace(&root, &[], true).expect("lint run");
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {} files",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean under --strict:\n{}",
        asrank_lint::render_human(&report)
    );
}
