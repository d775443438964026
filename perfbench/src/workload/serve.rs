//! `serve`: an in-process `nvp-serve` with the default config, driven
//! closed-loop by [`CLIENTS`] client threads (one connection each, each
//! waiting for its reply before sending the next request).
//!
//! Phase 1 (populate) sends every planned key once, so every request is
//! a cache miss; phase 2 (replay) sends them again in seeded shuffles, so
//! every request is a cache hit.

use super::{secs, Iteration};
use crate::client::{Client, Reply};
use crate::golden::{fnv1a64, golden, hex};
use crate::inputs::{serve_universe, ServePlan, WARMUP_SEED};
use crate::stats::{median, Summary};
use nvp_repro::catalog::{self, RunRequest};
use nvp_serve::json::Json;
use nvp_serve::{Lookup, ResultCache, Server, ServerConfig, SimKey};
use nvp_sim::{ExecEngine, SystemConfig, SystemSim};
use nvp_trace::CounterSink;
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;

/// `/metrics` counters reported per phase.
const PHASE_COUNTERS: [(&str, &str); 5] = [
    ("cache_hits", "nvp_cache_hits_total"),
    ("cache_misses", "nvp_cache_misses_total"),
    ("coalesced", "nvp_coalesced_total"),
    ("simulations", "nvp_simulations_total"),
    ("rejected", "nvp_responses_rejected_total"),
];

/// One finished request.
struct Done {
    /// Position in the populate list.
    index: usize,
    reply: std::io::Result<Reply>,
}

/// Sends `bodies[order[i]]` for every `i`, spread over [`CLIENTS`]
/// closed-loop clients pulling from one shared cursor. Returns results in
/// completion order.
fn drive(addr: SocketAddr, bodies: &[&str], order: &[usize]) -> Vec<Done> {
    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(order.len()));
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = Client::new(addr);
                let mut mine = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = order.get(i) else { break };
                    let reply = client.request("POST", "/v1/run", bodies[index].as_bytes());
                    mine.push(Done { index, reply });
                }
                done.lock()
                    .expect("no client panics while holding it")
                    .extend(mine);
            });
        }
    });
    done.into_inner().expect("clients joined")
}

/// Reads `/metrics` into a name → value map.
fn scrape(client: &mut Client) -> HashMap<String, f64> {
    let reply = client
        .request("GET", "/metrics", b"")
        .expect("/metrics answers");
    String::from_utf8_lossy(&reply.body)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

/// Distinct (kernel, img) pairs among the bodies: each has its own
/// compiled table.
fn kernel_imgs(keys: &[SimKey]) -> BTreeSet<(&'static str, usize)> {
    keys.iter().map(|k| (k.kernel.name(), k.img)).collect()
}

fn parse_key(body: &str) -> SimKey {
    SimKey::from_json(&Json::parse(body).expect("planned bodies are JSON"))
        .expect("planned bodies are valid keys")
}

/// Client-side span medians of one phase, µs.
fn spans(done: &[Done], pick: impl Fn(&Reply) -> f64) -> f64 {
    let values: Vec<f64> = done
        .iter()
        .filter_map(|d| d.reply.as_ref().ok())
        .map(pick)
        .collect();
    median(&values)
}

fn latencies_ms(done: &[Done]) -> Vec<f64> {
    done.iter()
        .filter_map(|d| d.reply.as_ref().ok())
        .map(|r| r.span.total_us() / 1e3)
        .collect()
}

/// One serve run. Set-up is bind plus one warm-up request per (kernel,
/// img) the plan uses, with a retention seed no planned key uses, so the
/// compiled-table builds land in set-up.
pub fn iteration(seed: u64, traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let universe = serve_universe();
    let plan = ServePlan::for_seed(seed);
    let bodies: Vec<&str> = plan.keys.iter().map(|&s| universe[s].as_str()).collect();
    let keys: Vec<SimKey> = bodies.iter().map(|b| parse_key(b)).collect();
    let pairs = kernel_imgs(&keys);

    if traced {
        // Compile every table this plan needs before the server exists,
        // so the probe sees cold memos.
        let before = catalog::compile_count();
        let t = Instant::now();
        for key in &keys {
            let (w, h) = nvp_repro::dims(key.kernel, key.img);
            black_box(catalog::compiled_for(key.kernel, w, h));
        }
        it.layer("sim.compile_ms", secs(t) * 1e3);
        it.layer("sim.compiles", (catalog::compile_count() - before) as f64);
    }

    let t = Instant::now();
    let server = Server::bind(ServerConfig::default()).expect("bind an ephemeral port");
    let addr = server.addr();
    let handle = thread::spawn(move || server.run());
    let mut control = Client::new(addr);
    for (kernel, img) in &pairs {
        let body = format!(
            r#"{{"kernel":"{kernel}","img":{img},"frames":1,"seconds":0.1,"seed":{WARMUP_SEED}}}"#
        );
        let ok = control
            .request("POST", "/v1/run", body.as_bytes())
            .is_ok_and(|r| r.status == 200);
        it.attempted += 1;
        if !ok {
            it.fail(format!("warm-up {body} failed"));
        }
    }
    it.setup_s = secs(t);

    let m0 = traced.then(|| scrape(&mut control));
    let populate_order: Vec<usize> = (0..bodies.len()).collect();
    let t = Instant::now();
    let populate = drive(addr, &bodies, &populate_order);
    let populate_s = secs(t);
    let m1 = traced.then(|| scrape(&mut control));
    let t = Instant::now();
    let replay = drive(addr, &bodies, &plan.replay);
    let replay_s = secs(t);
    let m2 = traced.then(|| scrape(&mut control));
    let _ = control.request("POST", "/shutdown", b"");
    handle.join().expect("server thread exits cleanly");
    it.wall_s = populate_s + replay_s;

    // Gates: populate bodies match their pinned digests; replayed bodies
    // are byte-equal to the populate body of the same key.
    let mut first: Vec<Option<Vec<u8>>> = vec![None; bodies.len()];
    for d in &populate {
        it.attempted += 1;
        match &d.reply {
            Ok(r) if r.status == 200 => {
                let slot = plan.keys[d.index];
                if golden().serve.get(&slot) != Some(&fnv1a64(&r.body)) {
                    it.fail(format!(
                        "serve body of universe slot {slot} differs from golden"
                    ));
                }
                first[d.index] = Some(r.body.clone());
            }
            Ok(r) => it.fail(format!("populate request answered {}", r.status)),
            Err(e) => it.fail(format!("populate request failed: {e}")),
        }
    }
    let mut hits = 0usize;
    for d in &replay {
        it.attempted += 1;
        match &d.reply {
            Ok(r) if r.status == 200 => {
                if first[d.index].as_deref() != Some(&r.body[..]) {
                    it.fail(format!("replayed body of key {} changed", d.index));
                }
                hits += usize::from(r.header("x-cache") == Some("hit"));
            }
            Ok(r) => it.fail(format!("replay request answered {}", r.status)),
            Err(e) => it.fail(format!("replay request failed: {e}")),
        }
    }
    let mut all = Vec::new();
    for body in first.iter().flatten() {
        all.extend_from_slice(&fnv1a64(body).to_le_bytes());
    }
    it.digest = hex(fnv1a64(&all));

    let miss_ms = latencies_ms(&populate);
    let hit_ms = latencies_ms(&replay);
    let miss_rps = miss_ms.len() as f64 / populate_s;
    let hit_rps = hit_ms.len() as f64 / replay_s;
    if traced {
        let (m0, m1, m2) = (m0.unwrap(), m1.unwrap(), m2.unwrap());
        for (name, metric) in PHASE_COUNTERS {
            let delta = |a: &HashMap<String, f64>, b: &HashMap<String, f64>| b[metric] - a[metric];
            it.layer(format!("serve.populate_{name}"), delta(&m0, &m1));
            it.layer(format!("serve.replay_{name}"), delta(&m1, &m2));
        }
        // Server-side time per replayed request, from the `/metrics`
        // latency count and mean: its p50 is a log2 bucket bound, which
        // reads the same power of two on every run.
        let total_us =
            |m: &HashMap<String, f64>| m["nvp_run_latency_count"] * m["nvp_run_latency_mean_us"];
        it.layer(
            "serve.server_hit_us",
            (total_us(&m2) - total_us(&m1))
                / (m2["nvp_run_latency_count"] - m1["nvp_run_latency_count"]),
        );
        it.layer("serve.hit_ratio", hits as f64 / replay.len() as f64);
        for (phase, done) in [("miss", &populate), ("hit", &replay)] {
            let connects = done
                .iter()
                .filter(|d| d.reply.as_ref().is_ok_and(|r| r.connected))
                .count();
            it.layer(format!("http.{phase}_connects"), connects as f64);
            it.layer(
                format!("http.{phase}_connect_us"),
                spans(done, |r| r.span.connect_us),
            );
            it.layer(
                format!("http.{phase}_ttfb_us"),
                spans(done, |r| r.span.ttfb_us),
            );
            it.layer(
                format!("http.{phase}_read_us"),
                spans(done, |r| r.span.read_us),
            );
        }
        for (phase, ms, rps) in [("miss", &miss_ms, miss_rps), ("hit", &hit_ms, hit_rps)] {
            let s = Summary::of(ms).expect("every phase sends requests");
            it.layer(format!("serve.{phase}_p50_ms"), s.p50);
            it.layer(
                format!("serve.{phase}_tail_ms"),
                s.tail.map_or(f64::NAN, |(_, v)| v),
            );
            it.layer(format!("serve.{phase}_rps"), rps);
        }
        let parse_us = parse_probe(&bodies);
        let cache_hit_us = cache_probe(&keys, &first);
        it.layer("serve.parse_us", parse_us);
        it.layer("serve.cache_hit_us", cache_hit_us);
        let hit_ttfb = spans(&replay, |r| r.span.ttfb_us);
        it.layer(
            "serve.unattributed_hit_us",
            hit_ttfb - parse_us - cache_hit_us,
        );
        sim_probes(&mut it, &keys);
    }
    it.scalars = vec![("miss_rps", miss_rps), ("hit_rps", hit_rps)];
    it.samples = vec![("miss_ms", miss_ms), ("hit_ms", hit_ms)];
    it
}

/// µs per body for `Json::parse` + `SimKey::from_json` + `canonical`
/// (median of several passes over the workload's bodies).
fn parse_probe(bodies: &[&str]) -> f64 {
    let rounds: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            for body in bodies {
                black_box(parse_key(black_box(body)).canonical());
            }
            secs(t) * 1e6 / bodies.len() as f64
        })
        .collect();
    median(&rounds)
}

/// µs per `ResultCache::lookup` hit on a standalone cache warmed with the
/// workload's keys and bodies.
fn cache_probe(keys: &[SimKey], bodies: &[Option<Vec<u8>>]) -> f64 {
    let cache = ResultCache::new(ServerConfig::default().cache);
    let canon: Vec<String> = keys.iter().map(SimKey::canonical).collect();
    for (key, body) in canon.iter().zip(bodies) {
        if let Lookup::Miss(token) = cache.lookup(key) {
            token.complete(Arc::new(body.clone().unwrap_or_default()));
        }
    }
    let rounds: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            for key in &canon {
                match cache.lookup(black_box(key)) {
                    Lookup::Hit(body) => {
                        black_box(body);
                    }
                    _ => panic!("a warmed cache must hit"),
                }
            }
            secs(t) * 1e6 / canon.len() as f64
        })
        .collect();
    median(&rounds)
}

/// Simulator probes on every fourth planned key: `SystemSim::new` and
/// `run` timed apart, with exact instruction/backup/restore counts, then
/// `simulate_traced(CounterSink)` against `simulate` on the same keys.
fn sim_probes(it: &mut Iteration, keys: &[SimKey]) {
    let requests: Vec<RunRequest> = keys.iter().step_by(4).map(SimKey::run_request).collect();
    let (mut build_s, mut run_s) = (0.0, 0.0);
    let (mut instr, mut backups, mut restores) = (0u64, 0u64, 0u64);
    for req in &requests {
        let (w, h) = nvp_repro::dims(req.kernel, req.img);
        let spec = catalog::cached_spec(req.kernel, w, h);
        let frames = catalog::frames_for(req.kernel, req.img, req.frames);
        let trace = catalog::synth_profile(req.profile, req.trace_seconds);
        let cfg = SystemConfig {
            record_outputs: false,
            seed: req.seed,
            exec_engine: req.engine,
            ..Default::default()
        };
        let t = Instant::now();
        let mut sim = SystemSim::new(spec, frames, req.mode, cfg);
        if req.engine == ExecEngine::Compiled {
            sim.set_compiled(catalog::compiled_for(req.kernel, w, h));
        }
        build_s += secs(t);
        let t = Instant::now();
        let report = sim.run(&trace);
        run_s += secs(t);
        instr += report.instructions_retired;
        backups += report.backups;
        restores += report.restores;
    }
    let n = requests.len() as f64;
    it.layer("sim.build_us", build_s * 1e6 / n);
    it.layer("sim.run_us", run_s * 1e6 / n);
    it.layer("sim.instr", instr as f64);
    it.layer("sim.ns_per_instr", run_s * 1e9 / instr as f64);
    it.layer("sim.backups", backups as f64);
    it.layer("sim.restores", restores as f64);

    let (mut plain_s, mut counted_s) = (0.0, 0.0);
    for req in &requests {
        let t = Instant::now();
        black_box(catalog::simulate(req));
        plain_s += secs(t);
        let t = Instant::now();
        black_box(catalog::simulate_traced(req, &mut CounterSink::new()));
        counted_s += secs(t);
    }
    it.layer("trace.counter_overhead", counted_s / plain_s);
}

/// The golden `serve` lines: the body digest of every universe key, as
/// the service renders it.
pub fn record() -> String {
    let universe = serve_universe();
    let bodies: Vec<&str> = universe.iter().map(String::as_str).collect();
    let server = Server::bind(ServerConfig::default()).expect("bind an ephemeral port");
    let addr = server.addr();
    let handle = thread::spawn(move || server.run());
    let order: Vec<usize> = (0..bodies.len()).collect();
    let mut done = drive(addr, &bodies, &order);
    let _ = Client::new(addr).request("POST", "/shutdown", b"");
    handle.join().expect("server thread exits cleanly");
    done.sort_by_key(|d| d.index);
    let mut out = String::new();
    for d in done {
        let reply = d.reply.expect("recording needs every request to succeed");
        assert_eq!(
            reply.status, 200,
            "recording needs every request to succeed"
        );
        out.push_str(&format!(
            "serve {} {}\n",
            d.index,
            hex(fnv1a64(&reply.body))
        ));
    }
    out
}
