//! `asrank` — the command-line toolchain of the reproduction.
//!
//! ```text
//! asrank generate  --scale small --seed 42 --out topo/
//! asrank simulate  --topo topo/ --vps 30 --out rib.mrt
//! asrank infer     --rib rib.mrt --topo topo/ --out as-rel.txt
//! asrank validate  --inferred as-rel.txt --topo topo/
//! asrank rank      --rib rib.mrt --topo topo/ --top 10
//! asrank stability --rib rib.mrt --subsamples 8
//! ```
//!
//! Each stage communicates through on-disk artifacts in open formats
//! (topology bundles, RFC 6396 MRT dumps, CAIDA as-rel text), so any
//! stage can be swapped for real data — `asrank infer` will happily
//! consume a RouteViews TABLE_DUMP_V2 file.

mod args;
mod commands;
mod snapshot;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `help`, or `--help`/`-h` anywhere on the line, prints the usage.
    if argv.first().is_some_and(|a| a == "help") || argv.iter().any(|a| a == "--help" || a == "-h")
    {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let code = match argv.first().map(String::as_str) {
        Some("audit") => commands::audit::run(&argv[1..]),
        Some("generate") => commands::generate::run(&argv[1..]),
        Some("depeer") => commands::depeer::run(&argv[1..]),
        Some("diff") => commands::diff::run(&argv[1..]),
        Some("simulate") => commands::simulate::run(&argv[1..]),
        Some("infer") => commands::infer::run(&argv[1..]),
        Some("info") => commands::info::run(&argv[1..]),
        Some("query") => commands::query::run(&argv[1..]),
        Some("serve") => commands::serve::run(&argv[1..]),
        Some("validate") => commands::validate::run(&argv[1..]),
        Some("rank") => commands::rank::run(&argv[1..]),
        Some("realism") => commands::realism::run(&argv[1..]),
        Some("stability") => commands::stability::run(&argv[1..]),
        Some("timeline") => commands::timeline::run(&argv[1..]),
        None => {
            eprintln!("{USAGE}");
            2
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
asrank — AS relationships, customer cones, and validation (IMC 2013 reproduction)

subcommands:
  generate   --scale tiny|small|medium|internet|tenx [--seed N] --out DIR
  simulate   --topo DIR [--vps N] [--full-feed F] [--seed N] [--threads N]
             [--dest-sample N] [--anomalies none|realistic] --out FILE.mrt
  infer      --rib FILE.mrt [--topo DIR] [--out as-rel.txt]
             [--stage-report FILE.json] [--threads N|auto]
  audit      --rels as-rel.txt [--rib FILE.mrt] [--clique A,B,C] [--threads N|auto]
  audit      --stage NAME --rib FILE.mrt [--topo DIR] [--threads N|auto]
  validate   --inferred as-rel.txt|FILE.mrt --topo DIR [--corpus-seed N]
  rank       --rib FILE.mrt [--topo DIR] [--top N] [--threads N|auto]
  stability  --rib FILE.mrt [--subsamples K] [--seed N] [--threads N|auto]
  timeline   RIB.mrt UPDATES.mrt... [--threads N|auto] [--cache-dir DIR]
             [--stage-report FILE.json]
  depeer     --topo DIR [--a ASN --b ASN] [--vps N] [--seed N] [--out FILE.mrt]
  diff       --old as-rel.txt|FILE.mrt --new as-rel.txt|FILE.mrt [--show N]
  realism    --topo DIR
  info       --rib FILE.mrt
  serve      --rib FILE.mrt --cache-dir DIR [--topo DIR] [--port N]
             [--poll-ms N]
  query      --rib FILE.mrt --cache-dir DIR [--topo DIR] [QUERY...]
  query      --connect HOST:PORT [QUERY...]

--threads takes a worker count (1 = deterministic single-threaded order,
which produces identical output to any other value) or \"auto\"/0 for all
available cores.

Every pipeline-running subcommand (infer, rank, validate, diff,
stability, audit) also accepts [--cache-dir DIR] [--no-cache]:
--cache-dir persists expensive artifacts (the decoded RIB, the path
arena, the inference and the three cones) as checksummed binary files
keyed by input content + config, so a warm re-run skips straight to the
answer; --no-cache disables it.
Corrupt or stale cache files are recomputed silently, never trusted.

serve runs a zero-copy query daemon over a cache previously warmed by
`infer --cache-dir` (which persists the inference and cone frames
serve maps): frames are
memory-mapped and queries answered in place, with hot-swap to a
re-warmed cache. query answers the same line protocol one-shot (local
mmap) or against a running daemon (--connect); with no QUERY on the
command line it reads queries from stdin, one per line. Queries:
rel X Y | cone FLAVOR X Y | cone-size FLAVOR X | degree X | rank X |
gen, with FLAVOR one of recursive, bgp, pp.

audit --stage materializes one memoized engine artifact and audits only
it; NAME is one of s1_sanitize, s2_degrees, s3_clique, path_arena,
s4_poison, observed_links, s5_topdown, s6_vp_providers,
s7_anomaly_repair, s8_stub_clique, s9_providerless, s10_p2p,
s11_inference, cone_recursive, cone_bgp_observed, cone_provider_peer.";
