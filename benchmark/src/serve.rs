//! `serve-16k`: closed-loop TCP clients against `asrank serve`'s front
//! end while the snapshot is reloaded under them. This is the only
//! workload where mapped lookups, the line protocol and the TCP front end
//! carry the load; reloads run beside reads, so a gain to one that costs
//! the other shows.

use crate::infer::{infer_rib, Inferred};
use crate::scenario::{build_inputs, fresh_dir, Inputs, Workload};
use crate::trace::span;
use crate::{ppv, set_up, Measured, Run};
use asrank_core::rank_ases;
use asrank_serve::{
    format_answer, Answer, ConeFlavor, Query, ServeSnapshot, ServeState, Server, SourceSpec,
};
use asrank_types::{Asn, LinkRel, RelationshipMap};
use rand::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries in the seeded pool.
pub const POOL_SIZE: usize = 65_536;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// The second client reloads the snapshot this often, between queries:
/// often enough that a run's median reload (`fresh_ms`) rests on about
/// thirty reloads.
const RELOAD_EVERY: Duration = Duration::from_millis(500);

/// The query pool: wire lines, the same queries parsed, and the answer
/// line each must get.
pub struct Pool {
    /// Protocol lines, newline-terminated.
    pub lines: Vec<String>,
    /// The queries the lines encode.
    pub queries: Vec<Query>,
    /// The expected reply to each line, without its newline.
    pub expected: Vec<String>,
}

/// Build a seeded pool of `n` queries over an inference and answer each
/// from the owned artifacts (never from the serve tier under test):
/// 40% `rel` (observed links in both orders, one in ten a miss), 30%
/// `cone` (10% per flavour, half of them inside the cone), 10%
/// `cone-size`, 10% `degree`, 10% `rank`. Half the ASNs come from the
/// top 1% by transit degree.
pub fn build_pool(inferred: &Inferred, seed: u64, n: usize) -> Pool {
    let inference = inferred.inference();
    let cones = inferred.cones();
    let degrees = &inference.degrees;
    let rels = &inference.relationships;
    let ases = degrees.ranked();
    let top = &ases[..(ases.len() / 100).max(1)];
    let mut links: Vec<(Asn, Asn)> = rels.iter().map(|(l, _)| (l.a, l.b)).collect();
    links.sort_unstable();
    let mut top_links: Vec<(Asn, Asn)> = links
        .iter()
        .copied()
        .filter(|(a, b)| top.contains(a) || top.contains(b))
        .collect();
    if top_links.is_empty() {
        top_links = links.clone();
    }
    let ranks: HashMap<Asn, u64> = rank_ases(&cones[0], degrees)
        .iter()
        .map(|r| (r.asn, r.rank as u64))
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e5e_0000_0000_0001);
    let pick_as = |rng: &mut StdRng| {
        if rng.random_bool(0.5) {
            top[rng.random_range(0..top.len())]
        } else {
            ases[rng.random_range(0..ases.len())]
        }
    };
    let mut pool = Pool {
        lines: Vec::with_capacity(n),
        queries: Vec::with_capacity(n),
        expected: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let r = rng.random_range(0..100usize);
        let (line, query, answer) = if r < 40 {
            let (x, y) = if r < 4 {
                // A miss: an ASN no RIB carries.
                (
                    pick_as(&mut rng),
                    Asn(4_200_000_000 - rng.random_range(0..1_000_000u32)),
                )
            } else {
                let src = if rng.random_bool(0.5) {
                    &top_links
                } else {
                    &links
                };
                let (a, b) = src[rng.random_range(0..src.len())];
                if rng.random_bool(0.5) {
                    (a, b)
                } else {
                    (b, a)
                }
            };
            (
                format!("rel {} {}", x.0, y.0),
                Query::Rel(x, y),
                Answer::Rel(rels.orientation(x, y)),
            )
        } else if r < 70 {
            let flavor = ConeFlavor::ALL[(r - 40) / 10];
            let cone = &cones[flavor.index()];
            let x = pick_as(&mut rng);
            let members = cone.members(x);
            let y = if rng.random_bool(0.5) && !members.is_empty() {
                members[rng.random_range(0..members.len())]
            } else {
                ases[rng.random_range(0..ases.len())]
            };
            (
                format!("cone {} {} {}", wire_flavor(flavor), x.0, y.0),
                Query::ConeContains(flavor, x, y),
                Answer::ConeContains(cone.contains(x, y)),
            )
        } else if r < 80 {
            let flavor = ConeFlavor::ALL[rng.random_range(0..3usize)];
            let x = pick_as(&mut rng);
            (
                format!("cone-size {} {}", wire_flavor(flavor), x.0),
                Query::ConeSize(flavor, x),
                Answer::ConeSize(cones[flavor.index()].size(x)),
            )
        } else if r < 90 {
            let x = pick_as(&mut rng);
            (
                format!("degree {}", x.0),
                Query::Degree(x),
                Answer::Degree(
                    degrees.transit_degree(x) as u64,
                    degrees.node_degree(x) as u64,
                ),
            )
        } else {
            let x = pick_as(&mut rng);
            (
                format!("rank {}", x.0),
                Query::Rank(x),
                Answer::Rank(ranks.get(&x).copied()),
            )
        };
        pool.lines.push(format!("{line}\n"));
        pool.queries.push(query);
        pool.expected.push(format_answer(&answer));
    }
    pool
}

fn wire_flavor(f: ConeFlavor) -> &'static str {
    match f {
        ConeFlavor::Recursive => "recursive",
        ConeFlavor::BgpObserved => "bgp",
        ConeFlavor::ProviderPeer => "pp",
    }
}

/// A reply is right when it is exactly the expected answer line; `err`
/// replies never are.
pub fn reply_ok(reply: &str, expected: &str) -> bool {
    reply.strip_suffix('\n').unwrap_or(reply) == expected
}

/// The spec `asrank serve --rib R --topo T --cache-dir C` builds.
pub fn spec(inputs: &Inputs, cache: &Path) -> SourceSpec {
    SourceSpec {
        rib: inputs.rib.clone(),
        cache_root: cache.to_path_buf(),
        cfg: inputs.cfg.clone(),
        prefixes: Some(inputs.prefixes.clone()),
    }
}

/// The relationships a snapshot serves, read back through its view.
pub fn served_relationships(snap: &ServeSnapshot) -> RelationshipMap {
    let mut rels = RelationshipMap::new();
    for (link, rel) in snap.inference().rels.iter() {
        match rel {
            LinkRel::AC2pB => rels.insert_c2p(link.a, link.b),
            LinkRel::AP2cB => rels.insert_c2p(link.b, link.a),
            LinkRel::P2p => rels.insert_p2p(link.a, link.b),
            LinkRel::S2s => rels.insert_s2s(link.a, link.b),
        }
    }
    rels
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    /// `(seconds, traced)` per answered query.
    pub queries: Vec<(f64, bool)>,
    /// Queries sent.
    pub attempted: u64,
    /// Wrong replies, `err` replies, and a dropped connection.
    pub failed: Vec<String>,
    /// Load + publish times of this client's reloads, s.
    pub reloads: Vec<f64>,
    /// Reloads attempted.
    pub reloads_attempted: u64,
}

/// Where a reloading client gets fresh snapshots from.
pub struct Reloader<'a> {
    /// The spec to load.
    pub spec: &'a SourceSpec,
    /// The server state to publish into.
    pub state: &'a Arc<ServeState>,
}

/// One closed-loop client, exactly as `asrank query --connect` talks:
/// one line per round trip, sent in one write on a `TCP_NODELAY` socket.
/// Walks the pool from `start` until `deadline`; with a reloader,
/// reloads every [`RELOAD_EVERY`] between two of its queries. With
/// `trace`, every other query is traced.
pub fn client(
    addr: SocketAddr,
    pool: &Pool,
    start: usize,
    deadline: Instant,
    reloader: Option<Reloader<'_>>,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let connect = || -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok((stream, reader))
    };
    let (mut writer, mut reader) = match connect() {
        Ok(conn) => conn,
        Err(e) => {
            log.attempted += 1;
            log.failed.push(format!("connect {addr}: {e}"));
            return log;
        }
    };
    let mut reply = String::new();
    let mut next_reload = Instant::now() + RELOAD_EVERY;
    let mut generation = 2u64;
    let mut i = 0usize;
    while Instant::now() < deadline {
        if let Some(r) = &reloader {
            if Instant::now() >= next_reload {
                next_reload += RELOAD_EVERY;
                log.reloads_attempted += 1;
                crate::trace::set_enabled(trace);
                let _s = span("serve.reload");
                let t = Instant::now();
                let loaded = {
                    let _l = span("serve.load");
                    ServeSnapshot::load(r.spec, generation)
                };
                match loaded {
                    Ok(snap) => {
                        r.state.publish(snap);
                        log.reloads.push(t.elapsed().as_secs_f64());
                    }
                    Err(e) => log.failed.push(format!("reload {generation}: {e}")),
                }
                generation += 1;
            }
        }
        let k = (start + i) % pool.lines.len();
        let traced = trace && i.is_multiple_of(2);
        crate::trace::set_enabled(traced);
        log.attempted += 1;
        reply.clear();
        let t = Instant::now();
        let sent = {
            let _s = span("serve.query");
            writer
                .write_all(pool.lines[k].as_bytes())
                .and_then(|()| reader.read_line(&mut reply))
        };
        let secs = t.elapsed().as_secs_f64();
        match sent {
            Ok(0) | Err(_) => {
                log.failed.push(format!("connection dropped at query {i}"));
                break;
            }
            Ok(_) => {
                log.queries.push((secs, traced));
                if !reply_ok(&reply, &pool.expected[k]) {
                    log.failed.push(format!(
                        "{:?} answered {:?}, want {:?}",
                        pool.lines[k].trim_end(),
                        reply.trim_end(),
                        pool.expected[k]
                    ));
                }
            }
        }
        i += 1;
    }
    crate::trace::set_enabled(false);
    log
}

/// Run the workload.
pub fn run(run: &Run, dir: &Path) -> Result<Measured, String> {
    let cache = dir.join("cache");
    // Set-up: generate the RIB, warm a cache from it, start the server.
    let ((inputs, mut server, inferred), secs) = set_up(|| {
        let inputs = build_inputs(Workload::Serve.tier(), run.seed, dir)?;
        fresh_dir(&cache)?;
        let inferred = infer_rib(&inputs, &cache, None)?;
        let _s = span("serve.start");
        let server = Server::start(spec(&inputs, &cache), 0, None).map_err(|e| e.to_string())?;
        Ok((inputs, server, inferred))
    })?;
    crate::trace::set_enabled(false);
    let pool = build_pool(&inferred, run.seed, POOL_SIZE);
    let spec = spec(&inputs, &cache);
    let mut m = Measured::new(secs);
    m.concurrency = CLIENTS as f64;
    m.samples = inputs.samples;
    m.ppv = ppv(
        &served_relationships(&server.state().current()),
        &inputs.truth,
    );

    let addr = server.addr();
    let shared = Arc::clone(server.state());
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (pool, spec, shared) = (&pool, &spec, &shared);
                s.spawn(move || {
                    let reloader = (c == 1).then_some(Reloader {
                        spec,
                        state: shared,
                    });
                    client(
                        addr,
                        pool,
                        c * POOL_SIZE / CLIENTS,
                        deadline,
                        reloader,
                        run.trace,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    server.stop();
    for log in logs {
        m.attempted += log.attempted + log.reloads_attempted;
        for (secs, traced) in log.queries {
            m.record_op(secs, 1.0, traced);
        }
        for e in log.failed {
            m.fail(&e);
        }
        m.reloads.extend(log.reloads);
    }
    m.peak_rss_kib = crate::rss_child(run, dir)?;
    if run.trace {
        crate::layers::pass(run, &inputs, dir, Some((&inferred, &cache)))?;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::run_engine;
    use crate::scenario::inference_inputs;
    use as_topology_gen::{generate, TopologyConfig};

    #[test]
    fn reply_check_fires_on_a_tampered_answer() {
        let topo = generate(&TopologyConfig::tiny(), 3);
        let paths = bgp_sim::simulate(&topo, &bgp_sim::SimConfig::defaults(3)).paths;
        let (cfg, prefixes) = inference_inputs(topo);
        let artifacts = run_engine(&paths, &cfg, &prefixes, None, None).unwrap();
        let pool = build_pool(&Inferred { paths, artifacts }, 3, 500);
        assert_eq!(pool.lines.len(), 500);
        assert!(pool.lines.iter().any(|l| l.starts_with("cone-size ")));
        for (line, want) in pool.lines.iter().zip(&pool.expected) {
            assert!(line.ends_with('\n'));
            assert!(reply_ok(&format!("{want}\n"), want));
            let mut tampered = want.clone().into_bytes();
            tampered[0] ^= 0x20;
            assert!(!reply_ok(&String::from_utf8(tampered).unwrap(), want));
            assert!(!reply_ok(&format!("err serve: bad query: {line}"), want));
        }
    }
}
