//! Run the ASRank pipeline on a *real* MRT RIB file.
//!
//! ```text
//! cargo run --release --example real_data -- /path/to/rib.mrt [ixp_asns.txt]
//! ```
//!
//! The codec understands RouteViews/RIS `TABLE_DUMP_V2` dumps and legacy
//! pre-2008 `TABLE_DUMP` archives (2-byte ASNs), so a file downloaded
//! from archive.routeviews.org drops straight in — the exact ingest path
//! of the original system. Without an argument, the example synthesizes
//! a dump first so it is runnable offline, then treats it as foreign
//! data (nothing from the generator is reused).

use asrank::core::pipeline::{infer, InferenceConfig};
use asrank::core::{rank_ases, write_as_rel, CustomerCones};
use asrank::mrt::read_rib_dump;
use asrank::types::Asn;

fn synthesize(path: &std::path::Path) {
    use asrank::bgpsim::{simulate, SimConfig, VpSelection};
    use asrank::mrt::write_rib_dump;
    use asrank::topology::{generate, TopologyConfig};
    let topo = generate(&TopologyConfig::small(), 1);
    let mut cfg = SimConfig::defaults(1);
    cfg.vp_selection = VpSelection::Count(25);
    let sim = simulate(&topo, &cfg);
    let file = std::fs::File::create(path).expect("create synthetic dump");
    write_rib_dump(&sim.paths, std::io::BufWriter::new(file), 1_365_000_000)
        .expect("write synthetic dump");
    println!(
        "(no input given: synthesized {} with {} RIB entries)",
        path.display(),
        sim.paths.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rib_path = match args.first() {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let p = std::env::temp_dir().join("asrank_example_real.mrt");
            synthesize(&p);
            p
        }
    };

    // Optional IXP route-server ASN list, one ASN per line.
    let ixps: Vec<Asn> = args
        .get(1)
        .map(|f| {
            std::fs::read_to_string(f)
                .expect("read IXP list")
                .lines()
                .filter_map(|l| l.trim().parse::<u32>().ok().map(Asn))
                .collect()
        })
        .unwrap_or_default();

    let file = std::fs::File::open(&rib_path).expect("open RIB file");
    let paths = read_rib_dump(std::io::BufReader::new(file)).expect("parse MRT");
    println!(
        "loaded {}: {} RIB entries, {} VPs, {} prefixes, {} ASes",
        rib_path.display(),
        paths.len(),
        paths.vantage_points().len(),
        paths.prefixes().len(),
        paths.ases().len()
    );

    let inference = infer(&paths, &InferenceConfig::with_ixps(ixps));
    let (c2p, p2p, s2s) = inference.relationships.counts();
    println!(
        "inferred {c2p} c2p / {p2p} p2p / {s2s} s2s; clique {:?}",
        inference.clique
    );
    println!(
        "sanitized: {} → {} paths ({} loops, {} prepending-compressed)",
        inference.report.sanitize.input_paths,
        inference.report.sanitize.output_paths,
        inference.report.sanitize.discarded_loops,
        inference.report.sanitize.compressed_prepending,
    );

    // Rank and export, exactly like the public artifact.
    let cones = CustomerCones::recursive(&inference.relationships, None);
    println!("\ntop 10 by customer cone:");
    for row in rank_ases(&cones, &inference.degrees).iter().take(10) {
        println!(
            "  #{:<3} {:<10} cone {:>6} ASes   transit degree {:>5}",
            row.rank,
            row.asn.to_string(),
            row.cone.ases,
            row.transit_degree
        );
    }

    let out = rib_path.with_extension("as-rel.txt");
    let f = std::fs::File::create(&out).expect("create as-rel output");
    let n =
        write_as_rel(&inference.relationships, std::io::BufWriter::new(f)).expect("write as-rel");
    println!("\nwrote {n} relationships to {}", out.display());
}
