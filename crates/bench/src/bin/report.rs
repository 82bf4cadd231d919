//! `report` — regenerate any experiment table/figure analog, or print
//! the staged engine's per-stage instrumentation.
//!
//! Usage:
//! ```text
//! report <e1|e2|…|e15|all> [--scale tiny|small|medium|internet|tenx] [--seed N]
//! report stage-report [--scale tiny|small|medium|internet|tenx] [--seed N]
//! ```
//!
//! `stage-report` runs the staged engine end to end over a generated
//! scenario and prints the per-stage instrumentation JSON (wall time,
//! item counts, artifact sizes, cache hits/misses) to stdout — the
//! `make stage-report` profile of where inference time goes.

use as_topology_gen::Scale;
use asrank_bench::experiments;
use asrank_bench::harness::{scenario_inputs, Scenario};
use asrank_core::engine::Snapshot;

/// Run the staged engine over a generated scenario and print the
/// per-stage instrumentation JSON. Every stage (inference plus all three
/// cone flavors) is materialized, so the report covers the whole DAG.
fn stage_report(scale: Scale, seed: u64) -> i32 {
    let (paths, cfg) = scenario_inputs(&Scenario::at_scale(scale, seed));
    let mut snapshot = Snapshot::new(&paths, cfg);
    if let Err(e) = snapshot.cones() {
        eprintln!("engine run failed: {e}");
        return 1;
    }
    print!("{}", snapshot.stage_report().to_json());
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut id: Option<String> = None;
    let mut scale = Scale::Small;
    let mut seed = 42u64;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match Scale::parse(v) {
                    Ok(s) => scale = s,
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                match v.parse() {
                    Ok(s) => seed = s,
                    Err(_) => {
                        eprintln!("invalid seed {v:?}");
                        std::process::exit(2);
                    }
                }
            }
            other if id.is_none() => id = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let Some(id) = id else {
        eprintln!(
            "usage: report <e1..e15|all|stage-report> \
             [--scale tiny|small|medium|internet|tenx] [--seed N]"
        );
        std::process::exit(2);
    };

    if id == "stage-report" {
        std::process::exit(stage_report(scale, seed));
    }

    let ids: Vec<&str> = if id == "all" {
        experiments::ALL.to_vec()
    } else {
        vec![id.as_str()]
    };
    for (i, id) in ids.iter().enumerate() {
        match experiments::run(id, scale, seed) {
            Some(out) => {
                if i > 0 {
                    println!("\n{}\n", "=".repeat(72));
                }
                println!("{out}");
            }
            None => {
                eprintln!("unknown experiment {id:?} (e1..e15 or all)");
                std::process::exit(2);
            }
        }
    }
}
