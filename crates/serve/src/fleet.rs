//! Fleet jobs over HTTP: `POST /v1/fleet` and `GET /v1/fleet/{id}`.
//!
//! A fleet is far too large to simulate inside one request/response
//! exchange, so the service runs it as an *asynchronous job*. `POST
//! /v1/fleet` canonicalizes the body into a [`ScenarioSpec`] (the same
//! parser the `nvp-fleet` CLI uses, so the canonical text — and with it
//! the content-addressed job id — is spelled identically in both
//! front-ends), registers the job under `spec.job_id()`, and occupies
//! exactly **one** admission slot on the shared [`ServicePool`] for the
//! whole run. Posting a spec that hashes to an already-registered job
//! joins that job instead of re-running it; underneath, the process-wide
//! cell cache in `nvp-fleet` additionally lets *different* overlapping
//! fleets share per-cell simulation work.
//!
//! `GET /v1/fleet/{id}` polls: while the job is running it answers a
//! small progress document (chunks folded, devices folded, distinct
//! cells) with `X-Fleet-State: running`; once complete it serves the raw
//! aggregate report — byte-identical to what `nvp-fleet run` prints for
//! the same spec, because both are `FleetAggregate::render_report` over
//! the same deterministic fold.

use crate::http::Response;
use crate::json::Json;
use crate::key::BadRequest;
use crate::metrics::{bump, Metrics};
use crate::server::{error_body, Inner};
use nvp_fleet::{run_chunks, FleetAggregate, RunOptions, ScenarioSpec};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Worker-thread cap for one fleet job's internal pool. Deliberately
/// small: fleet jobs are throughput work sharing a host with the
/// latency-sensitive `/v1/run` path.
const MAX_FLEET_WORKERS: usize = 16;

/// Finished (done or failed) jobs the registry keeps addressable. Past
/// this, registering a job evicts the oldest finished ones; running jobs
/// are never evicted (each holds an admission slot, so the service's
/// queue bounds how many there are).
const MAX_FINISHED_JOBS: usize = 256;

/// One registered fleet job. Progress fields are plain gauges written by
/// the worker and read by pollers; the terminal state (report bytes or
/// failure) lives behind the mutex.
pub(crate) struct FleetJob {
    /// Content-addressed id (`ScenarioSpec::job_id`).
    id: String,
    devices: u64,
    chunks: u64,
    chunks_done: AtomicU64,
    devices_done: AtomicU64,
    distinct_cells: AtomicU64,
    state: Mutex<JobState>,
}

impl FleetJob {
    fn new(spec: &ScenarioSpec) -> Self {
        FleetJob {
            id: spec.job_id(),
            devices: spec.devices,
            chunks: spec.chunks(),
            chunks_done: AtomicU64::new(0),
            devices_done: AtomicU64::new(0),
            distinct_cells: AtomicU64::new(0),
            state: Mutex::new(JobState::Running),
        }
    }

    fn is_finished(&self) -> bool {
        !matches!(
            *self.state.lock().unwrap_or_else(|p| p.into_inner()),
            JobState::Running
        )
    }
}

enum JobState {
    Running,
    Done(Arc<Vec<u8>>),
    Failed(String),
}

/// The job registry, content-addressed. Every running job stays
/// addressable; of the finished ones, the newest [`MAX_FINISHED_JOBS`]
/// do (a report is small, but a long-lived server must not grow without
/// bound).
pub(crate) struct FleetJobs {
    registry: Mutex<Registry>,
    max_finished: usize,
}

#[derive(Default)]
struct Registry {
    by_id: BTreeMap<String, Arc<FleetJob>>,
    /// Every registered job, oldest first.
    order: VecDeque<Arc<FleetJob>>,
}

impl Default for FleetJobs {
    fn default() -> Self {
        FleetJobs::with_max_finished(MAX_FINISHED_JOBS)
    }
}

impl FleetJobs {
    fn with_max_finished(max_finished: usize) -> Self {
        FleetJobs {
            registry: Mutex::default(),
            max_finished,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn get(&self, id: &str) -> Option<Arc<FleetJob>> {
        self.lock().by_id.get(id).cloned()
    }

    /// Registers `job`, or returns the job already registered under its
    /// id. On success, evicts the oldest finished jobs beyond the cap and
    /// returns how many it evicted.
    fn register(&self, job: &Arc<FleetJob>) -> Result<u64, Arc<FleetJob>> {
        let mut guard = self.lock();
        let Registry { by_id, order } = &mut *guard;
        if let Some(existing) = by_id.get(&job.id) {
            return Err(Arc::clone(existing));
        }
        by_id.insert(job.id.clone(), Arc::clone(job));
        order.push_back(Arc::clone(job));
        let finished = order.iter().filter(|j| j.is_finished()).count();
        let mut excess = finished.saturating_sub(self.max_finished);
        let evicted = excess as u64;
        order.retain(|j| {
            if excess > 0 && j.is_finished() {
                excess -= 1;
                by_id.remove(&j.id);
                false
            } else {
                true
            }
        });
        Ok(evicted)
    }

    fn remove(&self, id: &str) {
        let mut guard = self.lock();
        guard.by_id.remove(id);
        guard.order.retain(|j| j.id != id);
    }
}

/// Translates the request body into spec text for [`ScenarioSpec::parse`].
///
/// The JSON is a thin skin over the spec grammar: numeric fields map to
/// `key = value` lines, axis arrays map to comma-joined weighted lists
/// (entries are strings like `"sobel*3"`, or bare numbers for the
/// capacitor axis). Going *through the text grammar* — rather than
/// building a `ScenarioSpec` directly — is what guarantees the service
/// and the CLI canonicalize identically.
fn spec_text_from_json(json: &Json) -> Result<String, BadRequest> {
    const NUM_KEYS: [&str; 7] = ["devices", "chunk", "seed", "img", "frames", "ms", "members"];
    const AXIS_KEYS: [&str; 7] = [
        "kernels", "profiles", "caps_nj", "caps_uj", "scopes", "modes", "engines",
    ];
    let Json::Obj(fields) = json else {
        return Err(BadRequest::new("body", "fleet request must be an object"));
    };
    for (key, _) in fields {
        let known = NUM_KEYS.contains(&key.as_str())
            || AXIS_KEYS.contains(&key.as_str())
            || key == "seconds"
            || key == "jobs";
        if !known {
            return Err(BadRequest::new("body", format!("unknown field '{key}'")));
        }
    }
    let mut text = String::from("fleet-spec-v1\n");
    for key in NUM_KEYS {
        if let Some(value) = json.get(key) {
            let n = value
                .as_u64()
                .ok_or_else(|| BadRequest::new("spec", format!("'{key}' must be an integer")))?;
            writeln!(text, "{key} = {n}").expect("String writes are infallible");
        }
    }
    if let Some(value) = json.get("seconds") {
        let s = value
            .as_f64()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| BadRequest::new("spec", "'seconds' must be a positive number"))?;
        writeln!(text, "seconds = {s}").expect("String writes are infallible");
    }
    for key in AXIS_KEYS {
        if let Some(value) = json.get(key) {
            let arr = value
                .as_array()
                .ok_or_else(|| BadRequest::new("spec", format!("'{key}' must be an array")))?;
            let mut entries = Vec::with_capacity(arr.len());
            for item in arr {
                match item {
                    Json::Str(s) => entries.push(s.clone()),
                    Json::Num(n) if n.is_finite() => entries.push(format!("{n}")),
                    _ => {
                        return Err(BadRequest::new(
                            "spec",
                            format!("'{key}' entries must be strings or numbers"),
                        ))
                    }
                }
            }
            writeln!(text, "{key} = {}", entries.join(", ")).expect("String writes are infallible");
        }
    }
    Ok(text)
}

fn parse_fleet_request(body: &[u8]) -> Result<(ScenarioSpec, usize), BadRequest> {
    let text =
        std::str::from_utf8(body).map_err(|_| BadRequest::new("body", "body is not UTF-8"))?;
    let json = Json::parse(text).map_err(|e| BadRequest::new("body", e.to_string()))?;
    let spec_text = spec_text_from_json(&json)?;
    let spec =
        ScenarioSpec::parse(&spec_text).map_err(|e| BadRequest::new("spec", e.to_string()))?;
    // Worker count is an execution knob, not population identity: it is
    // deliberately outside the spec text so it cannot perturb the job id
    // (the report is byte-identical for any value).
    let jobs = match json.get("jobs") {
        None => 1,
        Some(value) => value
            .as_u64()
            .map(|j| j as usize)
            .filter(|j| (1..=MAX_FLEET_WORKERS).contains(j))
            .ok_or_else(|| {
                BadRequest::new("jobs", format!("'jobs' must be 1..={MAX_FLEET_WORKERS}"))
            })?,
    };
    Ok((spec, jobs))
}

fn state_tag(state: &JobState) -> &'static str {
    match state {
        JobState::Running => "running",
        JobState::Done(_) => "done",
        JobState::Failed(_) => "failed",
    }
}

fn job_descriptor(job: &FleetJob, state: &'static str) -> Vec<u8> {
    let num = |v: u64| Json::Num(v as f64);
    Json::obj(vec![
        ("job", Json::str(job.id.clone())),
        ("state", Json::str(state)),
        ("devices", num(job.devices)),
        ("chunks", num(job.chunks)),
        ("poll", Json::str(format!("/v1/fleet/{}", job.id))),
    ])
    .render()
    .into_bytes()
}

/// `POST /v1/fleet`.
pub(crate) fn handle_post(inner: &Arc<Inner>, body: &[u8]) -> Response {
    let (spec, workers) = match parse_fleet_request(body) {
        Ok(parsed) => parsed,
        Err(err) => return Response::new(400).json(error_body(err.field, &err.detail)),
    };
    let job = Arc::new(FleetJob::new(&spec));
    let id = job.id.clone();
    match inner.fleet.register(&job) {
        Ok(evicted) => {
            inner
                .metrics
                .fleet_evicted
                .fetch_add(evicted, Ordering::Relaxed);
        }
        Err(existing) => {
            // Content-address dedup: same canonical spec, same job. The
            // poster joins whatever state the job has already reached.
            bump(&inner.metrics.fleet_deduped);
            let state = existing.state.lock().unwrap_or_else(|p| p.into_inner());
            let tag = state_tag(&state);
            return Response::new(200)
                .header("X-Fleet-State", tag)
                .json(job_descriptor(&existing, tag));
        }
    }
    let submitted = {
        let pool = inner.pool.lock().unwrap_or_else(|p| p.into_inner());
        let Some(pool) = pool.as_ref() else {
            inner.fleet.remove(&id);
            return Response::new(503)
                .header("Retry-After", "1")
                .json(error_body("server", "shutting down"));
        };
        let worker_job = Arc::clone(&job);
        let worker_metrics = Arc::clone(&inner.metrics);
        pool.try_submit(move || run_job(worker_job, worker_metrics, spec, workers))
    };
    if submitted.is_err() {
        inner.fleet.remove(&id);
        return Response::new(429)
            .header("Retry-After", "1")
            .json(error_body("queue", "simulation queue is full"));
    }
    bump(&inner.metrics.fleet_jobs);
    Response::new(200)
        .header("X-Fleet-State", "running")
        .json(job_descriptor(&job, "running"))
}

/// Executes one fleet job on a pool worker. The guard keeps the in-flight
/// gauge and the terminal state honest even if the engine panics.
fn run_job(job: Arc<FleetJob>, metrics: Arc<Metrics>, spec: ScenarioSpec, workers: usize) {
    struct Guard {
        job: Arc<FleetJob>,
        metrics: Arc<Metrics>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            self.metrics
                .fleet_chunks_in_flight
                .fetch_sub(1, Ordering::Relaxed);
            let mut state = self.job.state.lock().unwrap_or_else(|p| p.into_inner());
            if matches!(*state, JobState::Running) {
                *state = JobState::Failed("fleet worker panicked".into());
                bump(&self.metrics.fleet_failed);
            }
        }
    }
    metrics
        .fleet_chunks_in_flight
        .fetch_add(1, Ordering::Relaxed);
    let guard = Guard {
        job: Arc::clone(&job),
        metrics: Arc::clone(&metrics),
    };
    let mut agg = FleetAggregate::new(spec);
    let Ok(_) = run_chunks(
        &mut agg,
        RunOptions {
            jobs: workers,
            stop_after_chunks: None,
        },
        |p| {
            job.chunks_done.store(p.chunks_done, Ordering::Relaxed);
            job.devices_done.store(p.devices_done, Ordering::Relaxed);
            job.distinct_cells
                .store(p.distinct_cells, Ordering::Relaxed);
            bump(&metrics.fleet_chunks_done);
        },
    );
    let mut state = guard.job.state.lock().unwrap_or_else(|p| p.into_inner());
    *state = JobState::Done(Arc::new(agg.render_report().into_bytes()));
    bump(&guard.metrics.fleet_done);
}

/// `GET /v1/fleet/{id}`.
pub(crate) fn handle_get(inner: &Arc<Inner>, id: &str) -> Response {
    let Some(job) = inner.fleet.get(id) else {
        return Response::new(404).json(error_body("job", "no such fleet job"));
    };
    let state = job.state.lock().unwrap_or_else(|p| p.into_inner());
    match &*state {
        JobState::Done(bytes) => Response::new(200)
            .header("X-Fleet-State", "done")
            .json((**bytes).clone()),
        JobState::Failed(detail) => Response::new(500)
            .header("X-Fleet-State", "failed")
            .json(error_body("fleet", detail)),
        JobState::Running => {
            let num = |v: u64| Json::Num(v as f64);
            let body = Json::obj(vec![
                ("job", Json::str(job.id.clone())),
                ("state", Json::str("running")),
                ("chunks_done", num(job.chunks_done.load(Ordering::Relaxed))),
                ("chunks", num(job.chunks)),
                (
                    "devices_done",
                    num(job.devices_done.load(Ordering::Relaxed)),
                ),
                ("devices", num(job.devices)),
                (
                    "distinct_cells",
                    num(job.distinct_cells.load(Ordering::Relaxed)),
                ),
            ]);
            Response::new(200)
                .header("X-Fleet-State", "running")
                .json(body.render().into_bytes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_text_round_trips_through_the_cli_grammar() {
        let json = Json::parse(
            r#"{"devices":1000,"chunk":256,"ms":150,"img":8,"frames":1,
                "kernels":["sobel*3","median"],"caps_nj":[2500,3500],
                "modes":["precise","fixed:4"],"jobs":2}"#,
        )
        .unwrap();
        let text = spec_text_from_json(&json).unwrap();
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec.devices, 1000);
        assert_eq!(spec.kernels.len(), 2);
        assert_eq!(spec.kernels[0].weight, 3);
        assert_eq!(spec.caps_nj.len(), 2);
        // The id must equal what the CLI derives from equivalent text.
        let cli = ScenarioSpec::parse(
            "fleet-spec-v1\ndevices = 1000\nchunk = 256\nms = 150\nimg = 8\nframes = 1\n\
             kernels = sobel*3, median\ncaps_nj = 2500, 3500\nmodes = precise, fixed:4\n",
        )
        .unwrap();
        assert_eq!(spec.job_id(), cli.job_id());
    }

    #[test]
    fn jobs_field_is_outside_the_content_address() {
        let a = parse_fleet_request(br#"{"devices":100,"ms":150,"jobs":1}"#).unwrap();
        let b = parse_fleet_request(br#"{"devices":100,"ms":150,"jobs":4}"#).unwrap();
        assert_eq!(a.0.job_id(), b.0.job_id());
        assert_eq!(a.1, 1);
        assert_eq!(b.1, 4);
    }

    #[test]
    fn unknown_fields_and_bad_axes_are_rejected() {
        assert_eq!(
            parse_fleet_request(br#"{"devices":100,"kernel":"sobel"}"#)
                .unwrap_err()
                .field,
            "body"
        );
        assert_eq!(
            parse_fleet_request(br#"{"devices":100,"kernels":"sobel"}"#)
                .unwrap_err()
                .field,
            "spec"
        );
        assert_eq!(
            parse_fleet_request(br#"{"devices":100,"jobs":0}"#)
                .unwrap_err()
                .field,
            "jobs"
        );
        // Spec-level validation errors surface with their grammar detail.
        let err = parse_fleet_request(br#"{"devices":0}"#).unwrap_err();
        assert_eq!(err.field, "spec");
        assert!(err.detail.contains("devices"), "{}", err.detail);
    }

    fn job(devices: u64, done: bool) -> Arc<FleetJob> {
        let spec = ScenarioSpec::parse(&format!("fleet-spec-v1\ndevices = {devices}\n")).unwrap();
        let job = FleetJob::new(&spec);
        if done {
            *job.state.lock().unwrap() = JobState::Done(Arc::new(Vec::new()));
        }
        Arc::new(job)
    }

    #[test]
    fn registry_evicts_oldest_finished_jobs_and_never_running_ones() {
        const CAP: usize = 3;
        const K: u64 = 2;
        let jobs = FleetJobs::with_max_finished(CAP);
        // Running jobs interleaved with CAP + K finished ones.
        let running = [job(1, false), job(2, false), job(3, false)];
        let finished: Vec<Arc<FleetJob>> =
            (0..CAP as u64 + K).map(|i| job(100 + i, true)).collect();
        let register = |j| {
            jobs.register(j)
                .unwrap_or_else(|_| panic!("ids are distinct"))
        };
        let mut evicted = 0;
        for (i, f) in finished.iter().enumerate() {
            if let Some(r) = running.get(i) {
                evicted += register(r);
            }
            evicted += register(f);
        }
        assert_eq!(
            evicted, K,
            "exactly one eviction per finished job past the cap"
        );
        for r in &running {
            assert!(jobs.get(&r.id).is_some(), "running jobs are never evicted");
        }
        for (i, f) in finished.iter().enumerate() {
            let kept = jobs.get(&f.id).is_some();
            assert_eq!(kept, i as u64 >= K, "the oldest finished jobs go first");
        }
        // A duplicate id joins the registered job instead of registering.
        assert!(Arc::ptr_eq(
            &jobs.register(&job(1, false)).unwrap_err(),
            &running[0]
        ));
    }
}
