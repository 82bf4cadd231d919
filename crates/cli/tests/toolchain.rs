//! End-to-end tests of the CLI toolchain, driving the subcommand entry
//! points directly (each `run` returns the process exit code).

use std::path::PathBuf;

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asrank_cli_test_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// The command modules are private to the binary; re-run the binary's
// logic by invoking the compiled binary is not possible in unit tests
// without cargo-run, so this test links the same crate internals through
// a thin include. Instead, spawn the actual binary via CARGO_BIN_EXE.
fn bin() -> std::process::Command {
    std::process::Command::new(env!("CARGO_BIN_EXE_asrank"))
}

#[test]
fn full_toolchain_roundtrip() {
    let dir = tmp("roundtrip");
    let topo = dir.join("topo");
    let rib = dir.join("rib.mrt");
    let rel = dir.join("as-rel.txt");

    // generate
    let out = bin()
        .args(sv(&[
            "generate",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out",
            topo.to_str().unwrap(),
        ]))
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(topo.join("as-rel.txt").exists());
    assert!(topo.join("classes.txt").exists());

    // simulate
    let out = bin()
        .args(sv(&[
            "simulate",
            "--topo",
            topo.to_str().unwrap(),
            "--vps",
            "8",
            "--seed",
            "7",
            "--out",
            rib.to_str().unwrap(),
        ]))
        .output()
        .expect("run simulate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(rib.exists());

    // infer
    let out = bin()
        .args(sv(&[
            "infer",
            "--rib",
            rib.to_str().unwrap(),
            "--topo",
            topo.to_str().unwrap(),
            "--out",
            rel.to_str().unwrap(),
        ]))
        .output()
        .expect("run infer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clique"), "{stdout}");
    assert!(rel.exists());

    // validate
    let out = bin()
        .args(sv(&[
            "validate",
            "--inferred",
            rel.to_str().unwrap(),
            "--topo",
            topo.to_str().unwrap(),
        ]))
        .output()
        .expect("run validate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("c2p PPV"), "{stdout}");

    // rank
    let out = bin()
        .args(sv(&[
            "rank",
            "--rib",
            rib.to_str().unwrap(),
            "--topo",
            topo.to_str().unwrap(),
            "--top",
            "3",
        ]))
        .output()
        .expect("run rank");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("cone ASes"));

    // depeer (writes an update stream)
    let storm = dir.join("storm.mrt");
    let out = bin()
        .args(sv(&[
            "depeer",
            "--topo",
            topo.to_str().unwrap(),
            "--vps",
            "8",
            "--seed",
            "7",
            "--out",
            storm.to_str().unwrap(),
        ]))
        .output()
        .expect("run depeer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(storm.exists());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_passes_on_inferred_output_and_fails_on_corruption() {
    let dir = tmp("audit");
    let topo = dir.join("topo");
    let rib = dir.join("rib.mrt");
    let rel = dir.join("as-rel.txt");

    // The clean half needs an instance the inference solves with margin:
    // at tiny scale with 8 VPs the valley-violation rate of the inferred
    // assignment varies seed to seed (many exceed the audit's 5% error
    // threshold on visibility alone), and any change to the generator's
    // RNG stream re-rolls every instance. Seed 9 infers valley-free
    // under the current stream; re-scan if the generator's draws change.
    for args in [
        sv(&["generate", "--scale", "tiny", "--seed", "9", "--out", topo.to_str().unwrap()]),
        sv(&["simulate", "--topo", topo.to_str().unwrap(), "--vps", "8", "--seed", "9", "--out", rib.to_str().unwrap()]),
        sv(&["infer", "--rib", rib.to_str().unwrap(), "--out", rel.to_str().unwrap()]),
    ] {
        let out = bin().args(&args).output().expect("run pipeline stage");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Clean inferred output: exit 0, every structural check reports ok.
    let out = bin()
        .args(sv(&[
            "audit",
            "--rels",
            rel.to_str().unwrap(),
            "--rib",
            rib.to_str().unwrap(),
        ]))
        .output()
        .expect("run audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
    assert!(stdout.contains("csr-well-formed"), "{stdout}");
    assert!(stdout.contains("cone-containment"), "{stdout}");

    // Deliberately corrupt the relationship file (demote every c2p to
    // p2p): the observed paths are no longer explicable and the audit
    // must fail loudly with exit 1.
    let text = std::fs::read_to_string(&rel).unwrap();
    let corrupted = dir.join("corrupted.txt");
    std::fs::write(&corrupted, text.replace("|-1", "|0")).unwrap();
    let out = bin()
        .args(sv(&[
            "audit",
            "--rels",
            corrupted.to_str().unwrap(),
            "--rib",
            rib.to_str().unwrap(),
        ]))
        .output()
        .expect("run audit on corrupted file");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(stdout.contains("ERROR"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_flag_errors() {
    // Missing required --rels is a usage error.
    let out = bin().arg("audit").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    // Unreadable file is a runtime error.
    let out = bin()
        .args(["audit", "--rels", "/nonexistent/as-rel.txt"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
    // Malformed clique list is a usage error.
    let out = bin()
        .args(["audit", "--rels", "/nonexistent/as-rel.txt", "--clique", "1,x"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("subcommands"));
}

#[test]
fn missing_required_flag_fails() {
    let out = bin().args(["generate"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn infer_rejects_missing_file() {
    let out = bin()
        .args(["infer", "--rib", "/nonexistent/path.mrt"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn stability_runs_on_generated_data() {
    let dir = tmp("stability");
    let topo = dir.join("topo");
    let rib = dir.join("rib.mrt");
    assert!(bin()
        .args(sv(&[
            "generate",
            "--scale",
            "tiny",
            "--seed",
            "3",
            "--out",
            topo.to_str().unwrap()
        ]))
        .status()
        .unwrap()
        .success());
    assert!(bin()
        .args(sv(&[
            "simulate",
            "--topo",
            topo.to_str().unwrap(),
            "--vps",
            "6",
            "--seed",
            "3",
            "--out",
            rib.to_str().unwrap(),
        ]))
        .status()
        .unwrap()
        .success());
    let out = bin()
        .args(sv(&[
            "stability",
            "--rib",
            rib.to_str().unwrap(),
            "--subsamples",
            "4",
        ]))
        .output()
        .expect("run stability");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("mean agreement"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Generate a tiny topology (seed 11) and simulate an 8-VP RIB from it
/// into `dir`; returns the RIB path.
fn tiny_rib(dir: &std::path::Path) -> PathBuf {
    let topo = dir.join("topo");
    let rib = dir.join("rib.mrt");
    for args in [
        sv(&[
            "generate",
            "--scale",
            "tiny",
            "--seed",
            "11",
            "--out",
            topo.to_str().unwrap(),
        ]),
        sv(&[
            "simulate",
            "--topo",
            topo.to_str().unwrap(),
            "--vps",
            "8",
            "--seed",
            "11",
            "--out",
            rib.to_str().unwrap(),
        ]),
    ] {
        assert!(bin().args(&args).status().unwrap().success());
    }
    rib
}

/// A cache directory that cannot be created (its parent is a regular
/// file) must not fail `infer`, but the dropped RIB ingest store is
/// reported on stderr, naming the stage and the directory.
#[test]
fn failed_rib_ingest_store_is_reported() {
    let dir = tmp("store_fail");
    let rib = tiny_rib(&dir);
    let blocker = dir.join("regular-file");
    std::fs::write(&blocker, b"").unwrap();
    let cache = blocker.join("sub");

    let out = bin()
        .args(sv(&[
            "infer",
            "--rib",
            rib.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--out",
            dir.join("as-rel.txt").to_str().unwrap(),
        ]))
        .output()
        .expect("infer");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.contains("rib_ingest") && l.contains(cache.to_str().unwrap())),
        "no failed rib_ingest store reported: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every stage's failed spill to an unusable cache directory is counted
/// in the stage report (per stage and in the totals), and `infer` still
/// succeeds from its in-memory store.
#[test]
fn failed_stage_stores_are_counted_in_the_stage_report() {
    let dir = tmp("stage_store_fail");
    let rib = tiny_rib(&dir);
    let blocker = dir.join("regular-file");
    std::fs::write(&blocker, b"").unwrap();
    let report = dir.join("r.json");

    let out = bin()
        .args(sv(&[
            "infer",
            "--rib",
            rib.to_str().unwrap(),
            "--cache-dir",
            blocker.join("sub").to_str().unwrap(),
            "--stage-report",
            report.to_str().unwrap(),
            "--out",
            dir.join("as-rel.txt").to_str().unwrap(),
        ]))
        .output()
        .expect("infer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&report).expect("stage report written");
    let count = |line: &str, key: &str| -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest[..rest.find(|c: char| !c.is_ascii_digit())?]
            .parse()
            .ok()
    };
    let stages: Vec<&str> = json.lines().filter(|l| l.contains("\"stage\":")).collect();
    assert_eq!(stages.len(), 16, "{json}");
    let mut sum = 0;
    for line in &stages {
        let failures = count(line, "disk_store_failures").expect("per-stage failure count");
        assert!(
            failures > 0,
            "stage stored nothing yet reports no failure: {line}"
        );
        assert_eq!(count(line, "disk_stores"), Some(0), "{line}");
        sum += failures;
    }
    let totals = json
        .lines()
        .find(|l| l.contains("\"totals\""))
        .expect("totals");
    assert_eq!(count(totals, "disk_store_failures"), Some(sum), "{totals}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_warm_run_matches_cold_and_no_cache_disables() {
    let dir = tmp("cache");
    let topo = dir.join("topo");
    let rib = dir.join("rib.mrt");
    let cache = dir.join("cache");
    let cold_rel = dir.join("cold.txt");
    let warm_rel = dir.join("warm.txt");
    let plain_rel = dir.join("plain.txt");

    for args in [
        sv(&["generate", "--scale", "tiny", "--seed", "11", "--out", topo.to_str().unwrap()]),
        sv(&["simulate", "--topo", topo.to_str().unwrap(), "--vps", "8", "--seed", "11", "--out", rib.to_str().unwrap()]),
    ] {
        assert!(bin().args(&args).status().unwrap().success());
    }

    // Cold run populates the cache directory.
    let out = bin()
        .args(sv(&[
            "infer",
            "--rib",
            rib.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--out",
            cold_rel.to_str().unwrap(),
        ]))
        .output()
        .expect("cold infer");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let entries = std::fs::read_dir(&cache).unwrap().count();
    assert!(entries > 0, "cold run wrote no cache entries");

    // Inference-relevant stdout: everything except the trailing
    // "wrote N relationships to PATH" line (the path differs per run).
    let inference_lines = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| !l.starts_with("wrote"))
            .collect::<Vec<_>>()
            .join("\n")
    };

    // Warm run: same stdout, same as-rel bytes, nothing new computed.
    let warm = bin()
        .args(sv(&[
            "infer",
            "--rib",
            rib.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--out",
            warm_rel.to_str().unwrap(),
        ]))
        .output()
        .expect("warm infer");
    assert!(warm.status.success());
    assert_eq!(inference_lines(&out.stdout), inference_lines(&warm.stdout));
    assert_eq!(
        std::fs::read(&cold_rel).unwrap(),
        std::fs::read(&warm_rel).unwrap()
    );

    // --no-cache wins over --cache-dir and still produces identical output.
    let plain = bin()
        .args(sv(&[
            "infer",
            "--rib",
            rib.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--no-cache",
            "--out",
            plain_rel.to_str().unwrap(),
        ]))
        .output()
        .expect("no-cache infer");
    assert!(plain.status.success());
    assert_eq!(inference_lines(&out.stdout), inference_lines(&plain.stdout));
    assert_eq!(
        std::fs::read(&cold_rel).unwrap(),
        std::fs::read(&plain_rel).unwrap()
    );

    // A cached rank run over the same RIB shares the inference artifacts.
    let ranked = bin()
        .args(sv(&[
            "rank",
            "--rib",
            rib.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--top",
            "3",
        ]))
        .output()
        .expect("cached rank");
    assert!(ranked.status.success());
    assert!(String::from_utf8_lossy(&ranked.stdout).contains("cone ASes"));

    let _ = std::fs::remove_dir_all(&dir);
}
