//! End-to-end benchmark of the asrank pipeline.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! benchmark compare DIR_A DIR_B
//! ```
//!
//! A run builds its inputs from the seed (topology, simulated BGP, MRT
//! RIB), sets up several times, then measures the workload's operation
//! for `S` seconds of operation time and checks every output. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, and `metrics` — the end-to-end metrics of `BENCHMARK.json`,
//! or with `--trace 1` its per-layer metrics, each with its unit. `--out`
//! also writes that record, with the host's cores and memory and (when
//! traced) every span, to FILE for `compare`. See README.md.

mod cold;
mod compare;
mod delta;
mod infer;
mod json;
mod layers;
mod metrics;
mod scenario;
mod serve;
mod stats;
mod trace;

use asrank_types::RelationshipMap;
use scenario::{WorkDir, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One run's parameters.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Operation time to measure, s.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

impl Run {
    /// Turn span recording on for op `i` when it is to be traced: in a
    /// traced run, alternate blocks of ops, so traced and untraced ops
    /// interleave and their medians give the tracing overhead. A block is
    /// one whole delta trace cycle (each batch and its inverse), so both
    /// halves see the same mix of dumps.
    pub fn trace_op(&self, i: usize) -> bool {
        let block = 2 * delta::PAIRS;
        let on = self.trace && (i / block).is_multiple_of(2);
        trace::set_enabled(on);
        on
    }

    /// Whether to start op `i` after `measured` seconds of ops: until the
    /// run's time is spent, and in a traced run until one block of each
    /// kind has run.
    pub fn more_ops(&self, i: usize, measured: f64) -> bool {
        i == 0 || measured < self.seconds || (self.trace && i < 4 * delta::PAIRS)
    }
}

/// What a workload measured and checked.
pub struct Measured {
    /// Wall time of each set-up, s.
    pub setup_s: Vec<f64>,
    /// Items per second of each untraced op.
    pub rates: Vec<f64>,
    /// Duration of each untraced op, s.
    pub op_secs: Vec<f64>,
    /// Duration of each traced op, s.
    pub traced_op_secs: Vec<f64>,
    /// Ops in flight at once (closed-loop clients).
    pub concurrency: f64,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops and checks that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// c2p and p2p PPV of the first answer against the ground truth.
    pub ppv: (f64, f64),
    /// Peak resident set of one op in a child process, KiB.
    pub peak_rss_kib: u64,
    /// Snapshot reloads under load, s.
    pub reloads: Vec<f64>,
    /// RIB entries the workload's scenario collected.
    pub samples: usize,
}

impl Measured {
    /// Nothing measured yet.
    pub fn new(setup_s: Vec<f64>) -> Measured {
        Measured {
            setup_s,
            rates: Vec::new(),
            op_secs: Vec::new(),
            traced_op_secs: Vec::new(),
            concurrency: 1.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            ppv: (0.0, 0.0),
            peak_rss_kib: 0,
            reloads: Vec::new(),
            samples: 0,
        }
    }

    /// Record one completed op of `items` work items.
    pub fn record_op(&mut self, secs: f64, items: f64, traced: bool) {
        if traced {
            self.traced_op_secs.push(secs);
        } else {
            self.op_secs.push(secs);
            self.rates.push(items / secs);
        }
    }

    /// Count one failed op or check.
    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why.to_string());
        }
    }
}

/// Run `once` [`SETUPS`] times, timing each; keep the last result. The
/// previous set-up's state (a running server, say) is dropped before the
/// next one starts.
pub fn set_up<T>(mut once: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(once()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS is positive"), secs))
}

/// c2p and p2p PPV of `inferred` against `truth`.
pub fn ppv(inferred: &RelationshipMap, truth: &RelationshipMap) -> (f64, f64) {
    let r = asrank_validation::evaluate_against_truth(inferred, truth);
    (r.c2p_ppv(), r.p2p_ppv())
}

/// Peak RSS of one op of `run`'s workload, measured in a child process
/// running this binary (`VmHWM` is per process, and this one holds the
/// set-up's data).
pub fn rss_child(run: &Run, dir: &Path) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--rss-child", "--workload", run.workload.name(), "--dir"])
        .arg(dir)
        .output()
        .map_err(|e| format!("starting the RSS child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "RSS child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_kib=")?.trim().parse().ok())
        .ok_or_else(|| "RSS child printed no peak".to_string())
}

/// The child side of [`rss_child`]: one op over the files the parent
/// left in `dir`, then print `VmHWM`.
fn rss_child_main(workload: Workload, dir: &Path) -> Result<(), String> {
    let topo = dir.join("topo");
    let (cfg, prefixes) = scenario::load_topo(&topo)?;
    let inputs = scenario::Inputs {
        truth: RelationshipMap::new(),
        cfg,
        prefixes,
        topo,
        rib: dir.join("rib.mrt"),
        samples: 0,
        sim_seed: 0,
    };
    match workload {
        Workload::Cold => {
            let cache = dir.join("rss-cache");
            scenario::fresh_dir(&cache)?;
            infer::infer_rib(&inputs, &cache, Some(&dir.join("rss-as-rel.txt")))?;
        }
        Workload::Serve => {
            let snap =
                asrank_serve::ServeSnapshot::load(&serve::spec(&inputs, &dir.join("cache")), 1)
                    .map_err(|e| e.to_string())?;
            // Touch every mapped page a query can reach.
            let mut seen = 0u64;
            for (asn, _, _) in snap.inference().degrees.iter() {
                seen += snap.degree(asn).0 + snap.rank(asn).unwrap_or(0);
                for flavor in asrank_serve::ConeFlavor::ALL {
                    seen += snap.cone_size(flavor, asn).ases as u64;
                    seen += u64::from(snap.cone_contains(flavor, asn, asn));
                }
            }
            for (link, _) in snap.inference().rels.iter() {
                seen += u64::from(snap.orientation(link.b, link.a).is_some());
            }
            std::hint::black_box(seen);
        }
        Workload::DeltaFlap | Workload::DeltaChurn => {
            let bytes = std::fs::read(&inputs.rib).map_err(|e| e.to_string())?;
            let paths = mrt_codec::read_rib_dump_parallel(&bytes, inputs.cfg.parallelism)
                .map_err(|e| e.to_string())?;
            drop(bytes);
            let mut session = asrank_core::delta::DeltaSession::new(paths, inputs.cfg.clone())
                .map_err(|e| e.to_string())?;
            let dump = std::fs::read(dir.join("dump-0.mrt")).map_err(|e| e.to_string())?;
            delta::step(&mut session, &dump, &inputs.cfg)?;
        }
    }
    let kib = scenario::peak_rss_kib().ok_or("no VmHWM in /proc/self/status")?;
    println!("peak_rss_kib={kib}");
    Ok(())
}

const USAGE: &str = "usage: benchmark --workload cold-16k|serve-16k|delta-flap-8k|delta-churn-8k \
--seed N --seconds S --trace 0|1 [--out FILE]\n       benchmark compare DIR_A DIR_B";

/// `--flag value` pairs into a lookup; `None` on a stray word.
fn flags(args: &[String]) -> Option<Vec<(&str, &str)>> {
    if !args.len().is_multiple_of(2) {
        return None;
    }
    args.chunks(2)
        .map(|kv| Some((kv[0].strip_prefix("--")?, kv[1].as_str())))
        .collect()
}

fn flag<'a>(pairs: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    pairs.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let (child, rest) = match args.first().map(String::as_str) {
        Some("--rss-child") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    let Some(pairs) = flags(rest) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let workload = flag(&pairs, "workload").and_then(Workload::parse);
    if let (true, Some(workload), Some(dir)) = (child, workload, flag(&pairs, "dir")) {
        return match rss_child_main(workload, Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rss child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let seed = flag(&pairs, "seed").and_then(|s| s.parse::<u64>().ok());
    let (false, Some(workload), Some(seed)) = (child, workload, seed) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let seconds = flag(&pairs, "seconds").and_then(|s| s.parse::<f64>().ok());
    let trace_flag = match flag(&pairs, "trace").unwrap_or("0") {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    };
    let (Some(seconds), Some(trace_on)) = (seconds.filter(|s| *s > 0.0), trace_flag) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let run = Run {
        workload,
        seed,
        seconds,
        trace: trace_on,
    };
    match execute(&run, flag(&pairs, "out").map(Path::new)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Run, report, and print the result line.
fn execute(run: &Run, out: Option<&Path>) -> Result<(), String> {
    let dir = WorkDir::create(run.workload.name())?;
    trace::set_enabled(run.trace);
    let measured = match run.workload {
        Workload::Cold => cold::run(run, dir.path()),
        Workload::Serve => serve::run(run, dir.path()),
        Workload::DeltaFlap => delta::run(run, dir.path(), delta::Churn::Flap),
        Workload::DeltaChurn => delta::run(run, dir.path(), delta::Churn::Mixed),
    }?;
    trace::set_enabled(false);
    let spans = trace::take();
    drop(dir);

    let metrics = if run.trace {
        metrics::per_layer(&spans, &measured)?
    } else {
        metrics::end_to_end(&measured)?
    };
    let detail = metrics::detail(&measured);

    let mut err = std::io::stderr().lock();
    let _ = metrics::print_report(&mut err, run, &metrics, &detail, &measured);
    if run.trace {
        let _ = spans.print_tables(&mut err, layers::ROOT);
    }
    drop(err);

    let line = metrics::result_line(&measured, &metrics);
    if let Some(path) = out {
        let record = metrics::record(
            run,
            &measured,
            &metrics,
            &detail,
            run.trace.then_some(&spans),
        );
        std::fs::write(path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(())
}
