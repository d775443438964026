//! End-to-end fleet jobs: POST, poll, and the CLI byte-identity contract.

use nvp_fleet::{run_chunks, FleetAggregate, RunOptions, ScenarioSpec};
use nvp_serve::client::{http_request, shutdown_local_server, spawn_local_server, Exchange};
use nvp_serve::server::ServerConfig;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

const FLEET_BODY: &str = r#"{"devices":1000,"chunk":256,"seed":7,"ms":150,"img":8,"frames":1,
    "kernels":["sobel*3","median"],"caps_nj":[2500,3500],"modes":["precise","fixed:4"]}"#;

/// The same population, spelled in the CLI's spec grammar.
const FLEET_SPEC_TEXT: &str = "fleet-spec-v1\n\
    devices = 1000\n\
    chunk = 256\n\
    seed = 7\n\
    ms = 150\n\
    img = 8\n\
    frames = 1\n\
    kernels = sobel*3, median\n\
    caps_nj = 2500, 3500\n\
    modes = precise, fixed:4\n";

fn poll_until_done(addr: SocketAddr, job: &str) -> Exchange {
    let path = format!("/v1/fleet/{job}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let ex = http_request(addr, "GET", &path, "").expect("poll");
        assert_eq!(ex.status, 200, "{}", String::from_utf8_lossy(&ex.body));
        match ex.headers.get("x-fleet-state").map(String::as_str) {
            Some("done") => return ex,
            Some("running") => {
                assert!(Instant::now() < deadline, "fleet job did not finish");
                thread::sleep(Duration::from_millis(50));
            }
            other => panic!("unexpected fleet state {other:?}"),
        }
    }
}

#[test]
fn fleet_job_report_matches_the_cli_byte_for_byte() {
    let (addr, handle) = spawn_local_server(ServerConfig::default());

    let posted = http_request(addr, "POST", "/v1/fleet", FLEET_BODY).unwrap();
    assert_eq!(
        posted.status,
        200,
        "{}",
        String::from_utf8_lossy(&posted.body)
    );
    let body = String::from_utf8(posted.body.clone()).unwrap();

    // The job id is the content address of the canonical spec — the CLI
    // derives the identical id from the text spelling.
    let spec = ScenarioSpec::parse(FLEET_SPEC_TEXT).unwrap();
    let id = spec.job_id();
    assert!(body.contains(&format!("\"job\":\"{id}\"")), "{body}");

    let done = poll_until_done(addr, &id);

    // What the CLI would print for this spec.
    let mut agg = FleetAggregate::new(spec);
    let Ok(_) = run_chunks(&mut agg, RunOptions::default(), |_| {});
    assert_eq!(
        done.body,
        agg.render_report().into_bytes(),
        "served report must be byte-identical to `nvp-fleet run`"
    );

    // Re-posting the same population joins the finished job.
    let reposted = http_request(addr, "POST", "/v1/fleet", FLEET_BODY).unwrap();
    assert_eq!(reposted.status, 200);
    assert_eq!(
        reposted.headers.get("x-fleet-state").map(String::as_str),
        Some("done")
    );

    // Metrics account the job and expose the shared-cell split.
    let metrics = http_request(addr, "GET", "/metrics", "").unwrap();
    let text = String::from_utf8(metrics.body).unwrap();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in {text}"))
    };
    assert_eq!(counter("nvp_fleet_jobs_total"), 1);
    assert_eq!(counter("nvp_fleet_jobs_deduped_total"), 1);
    assert_eq!(counter("nvp_fleet_jobs_done_total"), 1);
    assert_eq!(counter("nvp_fleet_jobs_failed_total"), 0);
    assert_eq!(counter("nvp_fleet_chunks_in_flight"), 0);
    assert_eq!(counter("nvp_fleet_chunks_done_total"), spec_chunks());
    assert!(counter("nvp_fleet_cells_computed_total") > 0, "{text}");

    shutdown_local_server(addr, handle);
}

fn spec_chunks() -> u64 {
    ScenarioSpec::parse(FLEET_SPEC_TEXT).unwrap().chunks()
}

#[test]
fn fleet_errors_are_structured() {
    let (addr, handle) = spawn_local_server(ServerConfig::default());

    // Unknown job id.
    let missing = http_request(addr, "GET", "/v1/fleet/deadbeefdeadbeef", "").unwrap();
    assert_eq!(missing.status, 404);

    // Malformed spec: zero devices.
    let bad = http_request(addr, "POST", "/v1/fleet", r#"{"devices":0}"#).unwrap();
    assert_eq!(bad.status, 400);
    let text = String::from_utf8(bad.body).unwrap();
    assert!(text.contains("\"field\":\"spec\""), "{text}");

    // Unknown field.
    let unknown = http_request(addr, "POST", "/v1/fleet", r#"{"devices":10,"cap":1}"#).unwrap();
    assert_eq!(unknown.status, 400);

    // Method guard on the collection route.
    let wrong = http_request(addr, "GET", "/v1/fleet", "").unwrap();
    assert_eq!(wrong.status, 405);

    shutdown_local_server(addr, handle);
}
