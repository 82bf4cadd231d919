//! The layer pass of a traced run.
//!
//! A traced run reports every per-layer metric for every workload, so
//! after its op loop it calls, once each, the layers its own set-up and
//! ops did not exercise, on its own scenario: single-thread reruns for
//! the thread curves, frame writes, serve loads and in-process answer
//! rates, and a short 1% flap replay. Layers the workload does run are
//! measured where it runs them (cold ops, the serve warm-up, reloads
//! under load, the delta trace), never twice.

use crate::delta::{prepare, step, Churn};
use crate::infer::{infer_rib, run_engine, Inferred};
use crate::scenario::{fresh_dir, sim_config, topology, Inputs, Workload};
use crate::serve::{build_pool, client, spec, POOL_SIZE};
use crate::trace::{count, set_enabled, span};
use crate::Run;
use asrank_core::engine::{stage_disk_key, Snapshot};
use asrank_core::{pathset_fingerprint, CacheDir};
use asrank_serve::{format_answer, parse_request, Answer, ServeSnapshot, Server};
use asrank_types::Parallelism;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of the span that encloses the pass.
pub const ROOT: &str = "layers";
/// Repetitions of each short in-process measurement.
const REPEATS: usize = 5;
/// Flap dumps replayed by workloads that have no delta trace of their own.
const FLAP_OPS: usize = 8;
/// How long workloads without a TCP client loop query a server.
const WIRE_PROBE: Duration = Duration::from_secs(2);

/// Run the pass. `cached` is the workload's last cold run and the cache
/// it filled; without one (the delta workloads) the pass runs its own.
pub fn pass(
    run: &Run,
    inputs: &Inputs,
    dir: &Path,
    cached: Option<(&Inferred, &Path)>,
) -> Result<(), String> {
    // What the workload's own set-up and ops already measure.
    let serves = run.workload == Workload::Serve;
    let replays = matches!(run.workload, Workload::DeltaFlap | Workload::DeltaChurn);
    set_enabled(true);
    let _root = span(ROOT);
    let tier = run.workload.tier();

    // Thread curves: simulate, decode and the engine on one thread, plus
    // the multi-threaded engine without a cache (the delta baseline).
    {
        let topo = topology(tier, run.seed);
        let _s = span("bgpsim.simulate.t1");
        black_box(bgp_sim::simulate(
            &topo,
            &sim_config(&topo, tier, inputs.sim_seed, 1),
        ));
    }
    let bytes = std::fs::read(&inputs.rib).map_err(|e| format!("reading the RIB: {e}"))?;
    let paths = {
        let _s = span("mrt.rib_decode.t1");
        mrt_codec::read_rib_dump_parallel(&bytes, Parallelism::sequential())
            .map_err(|e| format!("decoding the RIB: {e}"))?
    };
    drop(bytes);
    let mut sequential = inputs.cfg.clone();
    sequential.parallelism = Parallelism::sequential();
    black_box(run_engine(
        &paths,
        &sequential,
        &inputs.prefixes,
        None,
        Some(".t1"),
    )?);
    {
        let _s = span("delta.cold");
        black_box(run_engine(
            &paths,
            &inputs.cfg,
            &inputs.prefixes,
            None,
            None,
        )?);
    }

    let own;
    let (inferred, cache) = match cached {
        Some(c) => c,
        None => {
            let cache = dir.join("pass-cache");
            fresh_dir(&cache)?;
            own = (infer_rib(inputs, &cache, None)?, cache);
            (&own.0, own.1.as_path())
        }
    };

    // Frame writes of every artifact plus the ingest frame.
    {
        let probe = dir.join("persist-probe");
        fresh_dir(&probe)?;
        let store = CacheDir::new(&probe);
        let content_fp = pathset_fingerprint(&inferred.paths);
        let names = Snapshot::stage_names();
        let mut keys = Vec::with_capacity(names.len());
        for name in &names {
            keys.push(
                stage_disk_key(name, &inputs.cfg, Some(&inputs.prefixes), content_fp)
                    .ok_or_else(|| format!("no disk key for stage {name}"))?,
            );
        }
        {
            let _s = span("persist.write");
            for ((name, key), artifact) in names.iter().zip(&keys).zip(&inferred.artifacts) {
                if !store.store(name, *key, artifact) {
                    return Err(format!("writing the {name} frame"));
                }
            }
            if !store.store_paths(asrank_serve::RIB_INGEST_STAGE, content_fp, &inferred.paths) {
                return Err("writing the ingest frame".to_string());
            }
        }
        let bytes: u64 = std::fs::read_dir(&probe)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        count("persist.bytes", bytes as f64);
    }

    // Serve: resolution and loads over the cache, in-process answer and
    // protocol rates over the query pool, and the wire.
    let spec = spec(inputs, cache);
    for _ in 0..REPEATS {
        let _s = span("serve.resolve");
        black_box(spec.resolve().map_err(|e| e.to_string())?);
    }
    let snapshot = ServeSnapshot::load(&spec, 1).map_err(|e| e.to_string())?;
    if !serves {
        for generation in 0..REPEATS as u64 {
            let _s = span("serve.load");
            black_box(ServeSnapshot::load(&spec, generation + 2).map_err(|e| e.to_string())?);
        }
    }
    let pool = build_pool(inferred, run.seed, POOL_SIZE);
    let mut answers: Vec<Answer> = Vec::with_capacity(pool.queries.len());
    for _ in 0..REPEATS {
        let _s = span("serve.answer_batch");
        snapshot.answer_batch(&pool.queries, &mut answers);
        black_box(&answers);
    }
    for _ in 0..REPEATS {
        let _s = span("serve.proto");
        for (line, answer) in pool.lines.iter().zip(&answers) {
            black_box(parse_request(line.trim_end()).map_err(|e| e.to_string())?);
            black_box(format_answer(answer));
        }
    }
    count("serve.pool_queries", pool.lines.len() as f64);
    if !serves {
        let mut server = Server::start(spec.clone(), 0, None).map_err(|e| e.to_string())?;
        let log = client(
            server.addr(),
            &pool,
            0,
            Instant::now() + WIRE_PROBE,
            None,
            true,
        );
        server.stop();
        set_enabled(true);
        if let Some(e) = log.failed.first() {
            return Err(format!("wire probe: {e}"));
        }
    }

    if !replays {
        let mut p = prepare(inputs, Churn::Flap, run.seed)?;
        for i in 0..FLAP_OPS {
            step(&mut p.session, &p.dumps[i % p.dumps.len()], &inputs.cfg)?;
        }
    }
    drop(_root);
    set_enabled(false);
    Ok(())
}
