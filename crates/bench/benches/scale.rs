//! Bench: the InternetScale tier — cold-`infer` wall time and elems/sec
//! at 8k/16k/42k synthetic ASes, child-process peak RSS for the 42k
//! cold run, and the cache-blocked vs full-width pair-merge comparison
//! the PR8 acceptance gates (`make bench-scale`).
//!
//! The tiers are shrunk copies of the paper's 2013 Internet preset
//! (42k ASes, 315 VPs), so the recorded elems/sec *trajectory* shows
//! whether the cold path stays linear as the topology approaches real
//! scale — the question none of the micro benches (≤ 2k ASes) answers.
//!
//! Peak RSS: `VmHWM` is a per-process high-water mark, so the 42k cold
//! infer is measured in a child process (the bench re-execs itself with
//! `ASRANK_SCALE_RSS_TIER` set, the same pattern as `benches/serve.rs`)
//! and emitted as a `scale_rss` JSON line for the snapshot document.
//!
//! The tenx tier (~400k ASes, `Scale::TenX`) rides the same machinery
//! but only when `ASRANK_SCALE_TENX=1` (`make bench-tenx`): its
//! generate + simulate setup alone runs for minutes and needs several
//! GiB, so it must not tax every `make bench-scale` invocation. When
//! enabled it records `infer/tenx`, `arena_build/tenx`, and the
//! child-process `scale_rss` line the `scale_rss_headroom/tenx` gate
//! reads.

use as_topology_gen::TopologyConfig;
use asrank_bench::harness::{scenario_inputs, Scale, Scenario};
use asrank_bench::rss::peak_rss_kb;
use asrank_core::cone::{
    bgp_raw_sweep_pairs, merge_sweep_pairs_blocked, merge_sweep_pairs_unblocked,
};
use asrank_core::pipeline::{infer, InferenceConfig};
use asrank_core::{sanitize, CustomerCones};
use asrank_types::prelude::*;
use bgp_sim::AnomalyConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mrt_codec::{read_rib_dump_parallel, write_rib_dump};
use std::hint::black_box;
use std::io::Write as _;
use std::path::PathBuf;

/// Size tiers: (name, fraction of the 2013 Internet preset, VP count,
/// destination sample). VP counts scale roughly with topology size up
/// to the paper's 315-collector population; destination sampling keeps
/// simulation tractable exactly as `Scale::Internet` does.
const TIERS: [(&str, f64, usize, usize); 3] = [
    ("8k", 0.19, 60, 2_000),
    ("16k", 0.38, 120, 3_500),
    ("42k", 1.0, 315, 6_000),
];

/// Generate + simulate one tier (the 42k tier is exactly the
/// `Scale::Internet` scenario; the others are its scaled-down copies).
fn tier_inputs(factor: f64, vps: usize, sample: usize) -> (PathSet, InferenceConfig) {
    let scenario = Scenario {
        topology: TopologyConfig::internet_2013().scaled(factor),
        vps,
        full_feed: 116.0 / 315.0,
        anomalies: AnomalyConfig::none(),
        destination_sample: Some(sample),
        rib_cap_per_vp: None,
        seed: 42,
    };
    scenario_inputs(&scenario)
}

/// Child-process entry for the RSS measurement: decode the rib the
/// parent wrote, run one cold infer, print `VmHWM`, exit. The rib
/// round-trip keeps the child independent of the generator; the
/// default config (no IXP list) changes which ASNs sanitize drops,
/// not the shape or scale of what inference allocates.
fn rss_child_mode_if_requested() {
    let Ok(_tier) = std::env::var("ASRANK_SCALE_RSS_TIER") else {
        return;
    };
    let rib = PathBuf::from(std::env::var("ASRANK_SCALE_RSS_RIB").unwrap_or_default());
    let bytes = std::fs::read(&rib).expect("rss child: read rib");
    let paths = read_rib_dump_parallel(&bytes, Parallelism::auto()).expect("rss child: decode rib");
    black_box(infer(&paths, &InferenceConfig::default()));
    println!("rss_kb={}", peak_rss_kb().unwrap_or(0));
    std::process::exit(0);
}

/// Fork the bench binary for one tier's cold-infer RSS and read `VmHWM`.
fn measure_rss(tier: &str, rib: &PathBuf) -> Option<u64> {
    let exe = std::env::current_exe().ok()?;
    let out = std::process::Command::new(&exe)
        .env("ASRANK_SCALE_RSS_TIER", tier)
        .env("ASRANK_SCALE_RSS_RIB", rib)
        .env_remove("CRITERION_JSON")
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!(
            "scale_rss child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("rss_kb=")?.trim().parse().ok())
        .filter(|&kb| kb > 0)
}

/// Record the child's peak RSS both to stdout and — when
/// `CRITERION_JSON` is set — as an extra snapshot line (`rss_kb`
/// instead of `median_ns`; the report binary's derived pass reads it
/// by field name).
fn report_rss(tier: &str, rss_kb: u64) {
    println!("scale_rss: {tier} cold infer peaked at {rss_kb} kB");
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let Ok(mut fh) = std::fs::OpenOptions::new().create(true).append(true).open(&path) else {
        return;
    };
    let _ = writeln!(
        fh,
        r#"{{"group":"scale_rss","bench":"infer/{tier}","rss_kb":{rss_kb}}}"#
    );
}

/// Write `paths` to an MRT rib in a fresh temp dir, measure a cold
/// infer over it in a child process, and record the peak. The rib
/// round-trip keeps the child's allocations independent of the parent's
/// live topology fixtures.
fn measure_and_report_rss(tier: &str, paths: &PathSet) {
    let dir = std::env::temp_dir().join(format!(
        "asrank_bench_scale_{tier}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scale bench temp dir");
    let rib = dir.join("rib.mrt");
    let mut bytes = Vec::new();
    write_rib_dump(paths, &mut bytes, 1_600_000_000).expect("write rib");
    std::fs::write(&rib, &bytes).expect("store rib");
    drop(bytes);
    if let Some(rss_kb) = measure_rss(tier, &rib) {
        report_rss(tier, rss_kb);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_scale(c: &mut Criterion) {
    rss_child_mode_if_requested();

    // Cold infer + arena build per tier. sample_size(5) bounds the 42k
    // tier (~10 s per cold run) to about a minute of samples.
    let mut fixture_42k: Option<(PathSet, InferenceConfig)> = None;
    let mut group = c.benchmark_group("scale");
    group.sample_size(5);
    for (name, factor, vps, sample) in TIERS {
        let (paths, icfg) = tier_inputs(factor, vps, sample);
        group.throughput(Throughput::Elements(paths.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("infer", name),
            &(&paths, &icfg),
            |b, (paths, icfg)| b.iter(|| black_box(infer(paths, icfg))),
        );
        // The PR8 allocation-frugality target, isolated: distinct-path
        // dedup + interning + CSR fill over the sanitized samples.
        let clean = sanitize(&paths, &icfg.sanitize);
        group.bench_with_input(BenchmarkId::new("arena_build", name), &clean, |b, clean| {
            b.iter(|| black_box(clean.arena()))
        });
        if name == "42k" {
            fixture_42k = Some((paths, icfg));
        }
    }
    group.finish();

    // Blocked vs full-width pair merge on identical 42k raw pairs (the
    // `scale_blocked_sweep_speedup` gate), plus the whole cone build
    // through both merges for the end-to-end view.
    let (paths, icfg) = fixture_42k.expect("42k tier is in TIERS");
    let inference = infer(&paths, &icfg);
    let rels = &inference.relationships;
    let clean = sanitize(&paths, &icfg.sanitize);
    let arena = clean.arena();
    let n = arena.num_ases();
    let raw = bgp_raw_sweep_pairs(&arena, rels, Parallelism::auto());
    println!(
        "scale_sweep: 42k raw pairs = {} over {} live ASes",
        raw.len(),
        n
    );

    let mut group = c.benchmark_group("scale_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(raw.len() as u64));
    group.bench_function(BenchmarkId::new("merge_blocked", "42k"), |b| {
        b.iter(|| {
            black_box(merge_sweep_pairs_blocked(&raw, n, 0, Parallelism::auto()))
        })
    });
    group.bench_function(BenchmarkId::new("merge_unblocked", "42k"), |b| {
        b.iter(|| black_box(merge_sweep_pairs_unblocked(&raw, n)))
    });
    group.bench_function(BenchmarkId::new("cone_blocked", "42k"), |b| {
        b.iter(|| {
            black_box(CustomerCones::bgp_observed_from_arena_with_block(
                &arena,
                rels,
                None,
                Parallelism::auto(),
                0,
            ))
        })
    });
    // `usize::MAX` clamps to one full-width block: the unblocked merge.
    group.bench_function(BenchmarkId::new("cone_unblocked", "42k"), |b| {
        b.iter(|| {
            black_box(CustomerCones::bgp_observed_from_arena_with_block(
                &arena,
                rels,
                None,
                Parallelism::auto(),
                usize::MAX,
            ))
        })
    });
    group.finish();

    // Peak RSS of a full 42k cold infer, in its own process.
    measure_and_report_rss("42k", &paths);
    drop((paths, inference, clean, arena, raw));

    // The tenx tier, opt-in: cold infer + arena build + child RSS.
    if std::env::var("ASRANK_SCALE_TENX").as_deref() == Ok("1") {
        let scenario = Scenario::at_scale(Scale::TenX, 42);
        let (paths, icfg) = scenario_inputs(&scenario);
        println!("scale: tenx tier generated ({} samples)", paths.len());
        let mut group = c.benchmark_group("scale");
        group.sample_size(5);
        group.throughput(Throughput::Elements(paths.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("infer", "tenx"),
            &(&paths, &icfg),
            |b, (paths, icfg)| b.iter(|| black_box(infer(paths, icfg))),
        );
        let clean = sanitize(&paths, &icfg.sanitize);
        group.bench_with_input(
            BenchmarkId::new("arena_build", "tenx"),
            &clean,
            |b, clean| b.iter(|| black_box(clean.arena())),
        );
        group.finish();
        drop(clean);
        measure_and_report_rss("tenx", &paths);
    }
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
