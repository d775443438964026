//! The service itself: routing, admission control, and the drain path.
//!
//! Request lifecycle for `POST /v1/run`:
//!
//! 1. the body is parsed and canonicalized into a [`SimKey`];
//! 2. the key is looked up in the [`ResultCache`] — a hit serves the
//!    stored bytes, a concurrent duplicate joins the in-flight leader;
//! 3. a genuine miss claims leadership and submits one job to the
//!    bounded [`ServicePool`] queue — a full queue answers `429` with
//!    `Retry-After`, and every joiner of that flight sees the same 429;
//! 4. the worker simulates, renders the body once, publishes it to the
//!    cache, and every waiter (leader included) serves those exact bytes.
//!
//! Cache status travels in the `X-Cache` response header (`hit`, `miss`
//! or `coalesced`) and **never** in the body, so cached and uncached
//! responses for one key are byte-identical — the property PR 4's
//! determinism work makes checkable.

use crate::http::{read_request, RecvError, Request, Response};
use crate::json::Json;
use crate::key::{BadRequest, SimKey, SweepSpec};
use crate::metrics::{bump, Metrics};
use crate::signal;
use crate::{FlightError, LeaderToken, Lookup, ResultCache};
use nvp_exec::ServicePool;
use nvp_kernels::KernelId;
use nvp_sim::RunReport;
use nvp_trace::{CounterSink, Event, TeeSink, VecSink};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the signal watcher looks at the SIGTERM/SIGINT flag.
const SIGNAL_POLL: Duration = Duration::from_millis(25);

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port; `0` asks the OS for an ephemeral port.
    pub port: u16,
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded job-queue capacity (admission control).
    pub queue: usize,
    /// Result-cache capacity in bodies.
    pub cache: usize,
    /// Per-request read deadline for slow clients.
    pub read_deadline: Duration,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Concurrent-connection cap.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            queue: 64,
            cache: 1024,
            read_deadline: Duration::from_secs(2),
            max_body: 64 * 1024,
            max_connections: 64,
        }
    }
}

pub(crate) struct Inner {
    config: ServerConfig,
    cache: Arc<ResultCache>,
    pub(crate) metrics: Arc<Metrics>,
    /// `shutdown(self)` consumes the pool, so it lives behind an Option.
    pub(crate) pool: Mutex<Option<ServicePool>>,
    pub(crate) fleet: crate::fleet::FleetJobs,
    /// The listener's own address, which `begin_drain` connects to.
    addr: SocketAddr,
    draining: AtomicBool,
    active: AtomicUsize,
}

impl Inner {
    /// Flips the drain flag, then wakes the accept loop, which blocks in
    /// `accept`, by connecting to the server's own address. The loop
    /// sees the flag as soon as `accept` returns and stops.
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // A refused or timed-out connect is harmless: either the
        // listener is already gone, or its backlog is full and `accept`
        // is about to return anyway.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
    }
}

/// A bound-but-not-yet-running service.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds `127.0.0.1:port` and builds the pool and cache.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            cache: ResultCache::new(config.cache),
            metrics: Arc::new(Metrics::default()),
            pool: Mutex::new(Some(ServicePool::new(config.workers, config.queue))),
            fleet: crate::fleet::FleetJobs::default(),
            addr,
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            config,
        });
        Ok(Server {
            listener,
            addr,
            inner,
        })
    }

    /// The bound address (reports the OS-assigned port under `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared metrics handle (for the load generator's summary).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Serves until `POST /shutdown` or SIGTERM, then drains: the
    /// listener stops accepting, queued jobs run to completion, in-flight
    /// responses are written, and only then does this return.
    pub fn run(self) {
        // SIGTERM/SIGINT only set a flag, and `accept` restarts after the
        // handler, so a watcher thread turns the flag into a drain.
        let watcher = {
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                while !inner.draining.load(Ordering::SeqCst) {
                    if signal::shutdown_requested() {
                        inner.begin_drain();
                        break;
                    }
                    std::thread::park_timeout(SIGNAL_POLL);
                }
            })
        };
        // The listener blocks in `accept`, so a fresh connection is taken
        // the moment it arrives and an idle server does not wake at all.
        // Drain reaches the loop through `begin_drain`'s wake-up connect.
        loop {
            let accepted = self.listener.accept();
            if self.inner.draining.load(Ordering::SeqCst) || signal::shutdown_requested() {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let inner = Arc::clone(&self.inner);
                    bump(&inner.metrics.connections);
                    // The cap counts accepted-and-unfinished connections;
                    // over it we answer 503 inline rather than spawn.
                    if inner.active.load(Ordering::SeqCst) >= inner.config.max_connections {
                        bump(&inner.metrics.unavailable);
                        let mut stream = stream;
                        Response::new(503)
                            .header("Retry-After", "1")
                            .json(error_body("server", "connection limit reached"))
                            .send(&mut stream);
                        continue;
                    }
                    inner.active.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_connection(&inner, stream);
                        inner.active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                // A persistent error (EMFILE, say) must not spin the loop.
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        // The watcher exits once the drain flag is set; the loop may have
        // stopped on the signal flag before the watcher set it.
        self.inner.draining.store(true, Ordering::SeqCst);
        watcher.thread().unpark();
        let _ = watcher.join();
        // Drain: stop accepting (listener drops at end of scope), let
        // every queued simulation finish so no flight is left dangling,
        // then wait for handler threads to write their responses.
        if let Some(pool) = self
            .inner
            .pool
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
        {
            pool.shutdown();
        }
        let drain_start = Instant::now();
        while self.inner.active.load(Ordering::SeqCst) > 0
            && drain_start.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Renders the standard structured error body.
pub(crate) fn error_body(field: &str, detail: &str) -> Vec<u8> {
    Json::obj(vec![(
        "error",
        Json::obj(vec![
            ("field", Json::str(field)),
            ("detail", Json::str(detail)),
        ]),
    )])
    .render()
    .into_bytes()
}

fn bad_request_response(err: &BadRequest) -> Response {
    Response::new(400).json(error_body(err.field, &err.detail))
}

fn handle_connection(inner: &Arc<Inner>, mut stream: TcpStream) {
    let request = match read_request(
        &mut stream,
        inner.config.read_deadline,
        inner.config.max_body,
    ) {
        Ok(req) => req,
        Err(RecvError::Closed) => return,
        Err(RecvError::Io(_)) => return,
        Err(RecvError::Timeout) => {
            bump(&inner.metrics.timeouts);
            Response::new(408)
                .json(error_body("request", "read deadline exceeded"))
                .send(&mut stream);
            return;
        }
        Err(RecvError::TooLarge) => {
            bump(&inner.metrics.too_large);
            Response::new(413)
                .json(error_body("body", "request exceeds size limit"))
                .send(&mut stream);
            crate::http::drain_input(&mut stream, 1024 * 1024);
            return;
        }
        Err(RecvError::Malformed(reason)) => {
            bump(&inner.metrics.bad_request);
            Response::new(400)
                .json(error_body("request", reason))
                .send(&mut stream);
            crate::http::drain_input(&mut stream, 64 * 1024);
            return;
        }
    };
    bump(&inner.metrics.requests);
    let response = route(inner, &request);
    match response.status() {
        200 => bump(&inner.metrics.ok),
        400 => bump(&inner.metrics.bad_request),
        404 | 405 => bump(&inner.metrics.not_found),
        413 => bump(&inner.metrics.too_large),
        429 => bump(&inner.metrics.rejected),
        500 => bump(&inner.metrics.failures),
        503 => bump(&inner.metrics.unavailable),
        _ => {}
    }
    response.send(&mut stream);
    // /shutdown starts the drain only after its 200 is on the wire.
    if request.method == "POST" && request.path == "/shutdown" {
        inner.begin_drain();
    }
}

fn route(inner: &Arc<Inner>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::new(200).text("ok\n"),
        ("GET", "/metrics") => {
            let depth = inner
                .pool
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .as_ref()
                .map(|p| p.queue_depth())
                .unwrap_or(0);
            let active = inner.active.load(Ordering::SeqCst);
            let body = inner.metrics.render(depth, active, &inner.cache.stats());
            Response::new(200).text(body)
        }
        ("GET", "/v1/kernels") => kernels_response(),
        ("POST", "/v1/run") => handle_run(inner, &request.body),
        ("POST", "/v1/sweep") => handle_sweep(inner, &request.body),
        ("POST", "/v1/fleet") => crate::fleet::handle_post(inner, &request.body),
        ("GET", path)
            if path
                .strip_prefix("/v1/fleet/")
                .is_some_and(|id| !id.is_empty()) =>
        {
            crate::fleet::handle_get(inner, path.strip_prefix("/v1/fleet/").unwrap())
        }
        ("POST", "/shutdown") => Response::new(200).text("draining\n"),
        ("GET", "/v1/run")
        | ("GET", "/v1/sweep")
        | ("GET", "/v1/fleet")
        | ("POST", "/v1/kernels") => {
            Response::new(405).json(error_body("method", "method not allowed on this route"))
        }
        _ => Response::new(404).json(error_body("path", "no such route")),
    }
}

fn kernels_response() -> Response {
    let kernels: Vec<Json> = KernelId::ALL
        .iter()
        .map(|&id| {
            let (w, h) = nvp_repro::dims(id, 12);
            Json::obj(vec![
                ("name", Json::str(id.name())),
                ("default_width", Json::Num(w as f64)),
                ("default_height", Json::Num(h as f64)),
            ])
        })
        .collect();
    let body = Json::obj(vec![("kernels", Json::Arr(kernels))]).render();
    Response::new(200).json(body.into_bytes())
}

fn handle_run(inner: &Arc<Inner>, body: &[u8]) -> Response {
    let started = Instant::now();
    let key = match parse_run_key(body) {
        Ok(key) => key,
        Err(err) => return bad_request_response(&err),
    };
    let response = match resolve(inner, &key) {
        Ok((bytes, status)) => Response::new(200)
            .header("X-Cache", status)
            .json((*bytes).clone()),
        Err(resp) => resp,
    };
    inner
        .metrics
        .record_run_latency_us(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    response
}

fn parse_run_key(body: &[u8]) -> Result<SimKey, BadRequest> {
    let text =
        std::str::from_utf8(body).map_err(|_| BadRequest::new("body", "body is not UTF-8"))?;
    let json = Json::parse(text).map_err(|e| BadRequest::new("body", e.to_string()))?;
    SimKey::from_json(&json)
}

/// Resolves a key to its rendered body: cache hit, coalesce onto an
/// in-flight computation, or become the leader and go through admission.
fn resolve(inner: &Arc<Inner>, key: &SimKey) -> Result<(Arc<Vec<u8>>, &'static str), Response> {
    match inner.cache.lookup(&key.canonical()) {
        Lookup::Hit(bytes) => Ok((bytes, "hit")),
        Lookup::Join(flight) => flight
            .wait()
            .map(|bytes| (bytes, "coalesced"))
            .map_err(flight_error_response),
        Lookup::Miss(token) => {
            let flight = token.flight();
            admit(inner, vec![(key.clone(), token)])?;
            flight
                .wait()
                .map(|bytes| (bytes, "miss"))
                .map_err(flight_error_response)
        }
    }
}

fn flight_error_response(err: FlightError) -> Response {
    match err {
        FlightError::Rejected => Response::new(429)
            .header("Retry-After", "1")
            .json(error_body("queue", "simulation queue is full")),
        FlightError::Failed => Response::new(500).json(error_body("worker", "simulation failed")),
    }
}

/// Submits the leaders' computations to the bounded pool as ONE job, so
/// a sweep occupies a single admission slot. A full queue drops the job
/// unexecuted; the tokens' drop then publishes `Rejected`, so every
/// joiner of those flights observes the same 429.
fn admit(inner: &Arc<Inner>, mut pending: Vec<(SimKey, LeaderToken)>) -> Result<(), Response> {
    for (_, token) in &mut pending {
        token.fail_with(FlightError::Rejected);
    }
    let job_inner = Arc::clone(inner);
    let pool = inner.pool.lock().unwrap_or_else(|p| p.into_inner());
    let Some(pool) = pool.as_ref() else {
        return Err(Response::new(503)
            .header("Retry-After", "1")
            .json(error_body("server", "shutting down")));
    };
    pool.try_submit(move || {
        for (key, mut token) in pending {
            // Once running, an unfinished token means a panic, not a
            // rejection — joiners should see 500, not 429.
            token.fail_with(FlightError::Failed);
            let body = render_run_body(&job_inner, &key);
            token.complete(Arc::new(body));
        }
    })
    // A failed submit dropped the closure and with it every token, so
    // joiners have already been released with `Rejected`.
    .map_err(|_full| flight_error_response(FlightError::Rejected))
}

/// Executes the simulation for `key` and renders the response body.
/// This is the only place bodies are rendered, which is what makes the
/// cached and computed paths byte-identical by construction.
fn render_run_body(inner: &Arc<Inner>, key: &SimKey) -> Vec<u8> {
    bump(&inner.metrics.simulations);
    bump(match key.engine {
        nvp_sim::ExecEngine::Step => &inner.metrics.runs_step,
        nvp_sim::ExecEngine::Compiled => &inner.metrics.runs_compiled,
    });
    let request = key.run_request();
    let mut counters = CounterSink::new();
    let (report, trace) = if key.trace {
        let mut events = VecSink::new();
        let mut tee = TeeSink {
            a: &mut events,
            b: &mut counters,
        };
        let report = nvp_repro::catalog::simulate_traced(&request, &mut tee);
        (report, Some(events.events))
    } else {
        let report = nvp_repro::catalog::simulate_traced(&request, &mut counters);
        (report, None)
    };
    inner.metrics.absorb_summary(&counters.summary);
    render_report(key, &report, trace.as_deref()).into_bytes()
}

/// Renders one run's response document. Pure function of its inputs —
/// given PR 4's byte-deterministic reports, equal keys render equal
/// bodies on every machine.
pub(crate) fn render_report(key: &SimKey, report: &RunReport, trace: Option<&[Event]>) -> String {
    let num = |v: u64| Json::Num(v as f64);
    let mut fields = vec![
        ("key", Json::str(key.canonical())),
        ("kernel", Json::str(key.kernel.name())),
        ("engine", Json::str(key.engine.name())),
        (
            "report",
            Json::obj(vec![
                ("forward_progress", num(report.forward_progress)),
                ("instructions_retired", num(report.instructions_retired)),
                ("backups", num(report.backups)),
                ("restores", num(report.restores)),
                ("on_ticks", num(report.on_ticks)),
                ("total_ticks", num(report.total_ticks)),
                ("frames_committed", num(report.frames_committed)),
                ("incidental_frames", num(report.incidental_frames)),
                ("frames_abandoned", num(report.frames_abandoned)),
                ("merges", num(report.merges)),
                (
                    "retention_failures",
                    Json::Arr(report.retention_failures.iter().map(|&v| num(v)).collect()),
                ),
                (
                    "bit_utilization",
                    Json::Arr(report.bit_utilization.iter().map(|&v| num(v)).collect()),
                ),
                (
                    "energy_nj",
                    Json::obj(vec![
                        ("income", Json::Num(report.energy_income.as_nj())),
                        ("compute", Json::Num(report.energy_compute.as_nj())),
                        ("backup", Json::Num(report.energy_backup.as_nj())),
                        (
                            "backup_saved",
                            Json::Num(report.energy_backup_saved.as_nj()),
                        ),
                        ("restore", Json::Num(report.energy_restore.as_nj())),
                    ]),
                ),
            ]),
        ),
    ];
    if let Some(events) = trace {
        fields.push(("trace_events", Json::Num(events.len() as f64)));
        fields.push(("trace", Json::Arr(events.iter().map(Event::json).collect())));
    }
    Json::obj(fields).render()
}

fn handle_sweep(inner: &Arc<Inner>, body: &[u8]) -> Response {
    let spec = match parse_sweep(body) {
        Ok(spec) => spec,
        Err(err) => return bad_request_response(&err),
    };
    // Resolve every cell through the shared run cache: hits are free,
    // duplicates coalesce, and the misses travel as ONE pool job so a
    // sweep occupies a single admission slot.
    let mut waits: Vec<Lookup> = Vec::with_capacity(spec.cells.len());
    let mut pending: Vec<(SimKey, LeaderToken)> = Vec::new();
    for cell in &spec.cells {
        match inner.cache.lookup(&cell.canonical()) {
            Lookup::Miss(token) => {
                waits.push(Lookup::Join(token.flight()));
                pending.push((cell.clone(), token));
            }
            resolved => waits.push(resolved),
        }
    }
    if !pending.is_empty() {
        if let Err(response) = admit(inner, pending) {
            return response;
        }
    }
    // Splice the raw cell bodies — each already a rendered JSON object —
    // into the envelope, preserving per-cell byte identity with /v1/run.
    let mut out = String::from("{\"cells\":[");
    for (i, wait) in waits.iter().enumerate() {
        let bytes = match wait {
            Lookup::Hit(bytes) => Arc::clone(bytes),
            Lookup::Join(flight) => match flight.wait() {
                Ok(bytes) => bytes,
                Err(err) => return flight_error_response(err),
            },
            Lookup::Miss(_) => unreachable!("misses were converted to joins"),
        };
        if i > 0 {
            out.push(',');
        }
        out.push_str(std::str::from_utf8(&bytes).expect("bodies are UTF-8"));
    }
    out.push_str("]}");
    Response::new(200).json(out.into_bytes())
}

fn parse_sweep(body: &[u8]) -> Result<SweepSpec, BadRequest> {
    let text =
        std::str::from_utf8(body).map_err(|_| BadRequest::new("body", "body is not UTF-8"))?;
    let json = Json::parse(text).map_err(|e| BadRequest::new("body", e.to_string()))?;
    SweepSpec::from_json(&json)
}
