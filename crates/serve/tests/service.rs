//! End-to-end tests of the running service over real sockets.
//!
//! Each test boots a server on an ephemeral port (`port: 0`), drives it
//! with the minimal HTTP client in `nvp_serve::client`, and shuts it
//! down through `POST /shutdown`. One test runs the `nvp-serve` binary
//! and stops it with SIGTERM, which reaches the same drain path.

use nvp_serve::client::{http_request, shutdown_local_server, spawn_local_server, Exchange};
use nvp_serve::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

fn small_server() -> (SocketAddr, thread::JoinHandle<()>) {
    spawn_local_server(ServerConfig {
        read_deadline: Duration::from_millis(300),
        max_body: 4 * 1024,
        ..ServerConfig::default()
    })
}

fn post_run(addr: SocketAddr, body: &str) -> Exchange {
    http_request(addr, "POST", "/v1/run", body).expect("request")
}

const FAST_RUN: &str = r#"{"kernel":"sobel","img":8,"frames":1,"seconds":0.2}"#;

#[test]
fn health_kernels_and_metrics_respond() {
    // A capacity that no power-of-two split divides: the cache holds
    // exactly what it was given.
    let (addr, handle) = spawn_local_server(ServerConfig {
        read_deadline: Duration::from_millis(300),
        max_body: 4 * 1024,
        cache: 1001,
        ..ServerConfig::default()
    });
    let health = http_request(addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, b"ok\n");

    let kernels = http_request(addr, "GET", "/v1/kernels", "").unwrap();
    assert_eq!(kernels.status, 200);
    let text = String::from_utf8(kernels.body).unwrap();
    assert!(text.contains("\"sobel\""), "{text}");
    assert!(
        text.contains("\"FFT\"") && text.contains("\"median\""),
        "{text}"
    );

    let metrics = http_request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("nvp_requests_total"), "{text}");
    assert!(text.contains("nvp_cache_entries"), "{text}");
    assert_eq!(metric(&text, "nvp_cache_capacity"), 1001, "{text}");
    // Three connections so far, this scrape's own among them. The scrape
    // is open while it renders; the two before it may not have left yet.
    assert_eq!(metric(&text, "nvp_connections_accepted_total"), 3, "{text}");
    let active = metric(&text, "nvp_connections_active");
    assert!((1..=3).contains(&active), "{text}");

    shutdown_local_server(addr, handle);
}

#[test]
fn run_roundtrip_and_cache_hit_bytes_match() {
    let (addr, handle) = small_server();

    let first = post_run(addr, FAST_RUN);
    assert_eq!(
        first.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&first.body)
    );
    assert_eq!(
        first.headers.get("x-cache").map(String::as_str),
        Some("miss")
    );
    let text = String::from_utf8(first.body.clone()).unwrap();
    assert!(text.contains("\"forward_progress\""), "{text}");
    assert!(text.contains("\"energy_nj\""), "{text}");

    // Same request, different spelling: must be a hit with identical bytes.
    let respelled = r#"{"seconds":0.20,"frames":1,"img":8,"kernel":"Sobel"}"#;
    let second = post_run(addr, respelled);
    assert_eq!(second.status, 200);
    assert_eq!(
        second.headers.get("x-cache").map(String::as_str),
        Some("hit")
    );
    assert_eq!(
        second.body, first.body,
        "cached body must be byte-identical"
    );

    shutdown_local_server(addr, handle);
}

#[test]
fn sixteen_concurrent_clients_one_simulation_identical_bodies() {
    let (addr, handle) = small_server();

    let clients: Vec<_> = (0..16)
        .map(|_| thread::spawn(move || post_run(addr, FAST_RUN)))
        .collect();
    let exchanges: Vec<Exchange> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    let first_body = &exchanges[0].body;
    for ex in &exchanges {
        assert_eq!(ex.status, 200);
        assert_eq!(&ex.body, first_body, "all 16 bodies must be byte-identical");
    }

    // The service must have simulated exactly once: every response was a
    // miss (the leader), a coalesced join, or a post-completion hit.
    let metrics = http_request(addr, "GET", "/metrics", "").unwrap();
    let text = String::from_utf8(metrics.body).unwrap();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {name} in {text}"))
    };
    assert_eq!(counter("nvp_simulations_total"), 1, "metrics:\n{text}");
    assert_eq!(counter("nvp_cache_misses_total"), 1);
    assert_eq!(
        counter("nvp_cache_hits_total") + counter("nvp_coalesced_total"),
        15
    );

    shutdown_local_server(addr, handle);
}

#[test]
fn malformed_and_invalid_requests_get_structured_400s() {
    let (addr, handle) = small_server();

    let garbage = post_run(addr, "{not json");
    assert_eq!(garbage.status, 400);
    assert!(String::from_utf8(garbage.body)
        .unwrap()
        .contains("\"error\""));

    let unknown = post_run(addr, r#"{"kernel":"warp"}"#);
    assert_eq!(unknown.status, 400);
    let text = String::from_utf8(unknown.body).unwrap();
    assert!(text.contains("\"field\":\"kernel\""), "{text}");

    let out_of_range = post_run(addr, r#"{"kernel":"sobel","img":4096}"#);
    assert_eq!(out_of_range.status, 400);
    let text = String::from_utf8(out_of_range.body).unwrap();
    assert!(text.contains("\"field\":\"img\""), "{text}");

    let not_found = http_request(addr, "GET", "/v2/everything", "").unwrap();
    assert_eq!(not_found.status, 404);

    let wrong_method = http_request(addr, "GET", "/v1/run", "").unwrap();
    assert_eq!(wrong_method.status, 405);

    shutdown_local_server(addr, handle);
}

#[test]
fn oversized_body_gets_413() {
    let (addr, handle) = small_server();
    let huge = "x".repeat(10 * 1024); // over the 4 KiB test limit
    let ex = post_run(addr, &huge);
    assert_eq!(ex.status, 413);
    shutdown_local_server(addr, handle);
}

#[test]
fn slow_client_is_cut_off_by_read_deadline() {
    let (addr, handle) = small_server();

    let mut stream = TcpStream::connect(addr).unwrap();
    // Declare a body, never deliver it; the 300ms deadline must fire.
    stream
        .write_all(b"POST /v1/run HTTP/1.1\r\nConnection: close\r\nContent-Length: 50\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");

    shutdown_local_server(addr, handle);
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, one queue slot, twelve simultaneous cold requests with
    // distinct keys: at most a handful can be running-or-queued at once,
    // so admission control must bounce some of them with 429. Retried
    // 429s are not followed up — the test wants the rejection itself.
    let (addr, handle) = spawn_local_server(ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    });

    let body = |seed: u64| {
        format!(r#"{{"kernel":"fft","img":32,"frames":8,"seconds":8.0,"seed":{seed}}}"#)
    };
    let clients: Vec<_> = (1..=12)
        .map(|seed| {
            let body = body(seed);
            thread::spawn(move || post_run(addr, &body))
        })
        .collect();
    let exchanges: Vec<Exchange> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let rejected: Vec<&Exchange> = exchanges.iter().filter(|e| e.status == 429).collect();
    assert!(
        !rejected.is_empty(),
        "expected at least one admission rejection, got statuses {:?}",
        exchanges.iter().map(|e| e.status).collect::<Vec<_>>()
    );
    for ex in &rejected {
        assert_eq!(ex.headers.get("retry-after").map(String::as_str), Some("1"));
        assert!(String::from_utf8_lossy(&ex.body).contains("queue"));
    }
    for ex in &exchanges {
        assert!(
            ex.status == 200 || ex.status == 429,
            "only 200/429 expected, got {}",
            ex.status
        );
    }

    shutdown_local_server(addr, handle);
}

#[test]
fn sweep_shares_the_run_cache_and_splices_identical_cell_bodies() {
    let (addr, handle) = small_server();

    // Warm one cell via /v1/run.
    let run = post_run(addr, FAST_RUN);
    assert_eq!(run.status, 200);

    let sweep_body = r#"{"kernels":["sobel"],"profiles":["p1"],"modes":["precise",{"fixed":4}],"img":8,"frames":1,"seconds":0.2}"#;
    let sweep = http_request(addr, "POST", "/v1/sweep", sweep_body).unwrap();
    assert_eq!(
        sweep.status,
        200,
        "{}",
        String::from_utf8_lossy(&sweep.body)
    );
    let text = String::from_utf8(sweep.body).unwrap();
    // The warmed cell's bytes appear verbatim inside the sweep envelope.
    let run_text = String::from_utf8(run.body).unwrap();
    assert!(
        text.contains(&run_text),
        "sweep must splice the cached run body"
    );

    // An oversized sweep is refused at parse time.
    let big = r#"{"kernels":["sobel","median","integral","susan.corners","susan.edges","susan.smoothing","jpeg.encode.mb","tiff2bw","tiff2rgba","fft"],"profiles":["p1","p2","p3","p4","p5"],"modes":["precise","simd4"]}"#;
    let refused = http_request(addr, "POST", "/v1/sweep", big).unwrap();
    assert_eq!(refused.status, 400);
    assert!(String::from_utf8(refused.body).unwrap().contains("cells"));

    shutdown_local_server(addr, handle);
}

#[test]
fn shutdown_drains_inflight_work_and_stops_accepting() {
    let (addr, handle) = spawn_local_server(ServerConfig {
        workers: 1,
        queue: 8,
        ..ServerConfig::default()
    });

    // Start a slow request, then immediately request shutdown.
    let slow = r#"{"kernel":"fft","img":16,"frames":4,"seconds":2.0,"seed":99}"#;
    let worker = thread::spawn(move || post_run(addr, slow));
    thread::sleep(Duration::from_millis(100));
    let ack = http_request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(ack.status, 200);

    // The in-flight simulation still completes with a full response.
    let ex = worker.join().unwrap();
    assert_eq!(ex.status, 200);
    assert!(String::from_utf8(ex.body)
        .unwrap()
        .contains("forward_progress"));

    // The server thread exits; afterwards the port refuses new requests.
    handle.join().unwrap();
    assert!(http_request(addr, "GET", "/healthz", "").is_err());
}

#[test]
fn traced_run_embeds_the_event_stream_and_keys_separately() {
    let (addr, handle) = small_server();

    let plain = post_run(addr, FAST_RUN);
    let traced = post_run(
        addr,
        r#"{"kernel":"sobel","img":8,"frames":1,"seconds":0.2,"trace":true}"#,
    );
    assert_eq!(traced.status, 200);
    // Tracing is part of the key: this was a miss, not a hit on `plain`.
    assert_eq!(
        traced.headers.get("x-cache").map(String::as_str),
        Some("miss")
    );
    let text = String::from_utf8(traced.body).unwrap();
    assert!(text.contains("\"trace_events\""), "{text}");
    assert!(text.contains("\"ev\":\"run_end\""), "{text}");
    assert!(text.len() > plain.body.len(), "traced body embeds events");

    shutdown_local_server(addr, handle);
}

/// Reads one `name value` line of a `/metrics` body.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("missing {name} in {text}"))
}

#[test]
fn distinct_trace_lengths_stay_within_the_trace_cache_bound() {
    // Every distinct `seconds` value is a distinct power trace. Before
    // the catalog caches were bounded, each one stayed resident for the
    // life of the process; now the trace cache evicts past its capacity.
    let (addr, handle) = small_server();
    let scrape = || {
        let ex = http_request(addr, "GET", "/metrics", "").unwrap();
        String::from_utf8(ex.body).unwrap()
    };
    let capacity = metric(&scrape(), "nvp_trace_cache_capacity");
    assert!(capacity >= 32, "trace cache holds {capacity} entries");
    for ms in 100..100 + capacity + 8 {
        let body = format!(
            r#"{{"kernel":"sobel","img":8,"frames":1,"seconds":{}}}"#,
            ms as f64 / 1000.0
        );
        assert_eq!(post_run(addr, &body).status, 200, "{body}");
    }
    let text = scrape();
    assert!(
        metric(&text, "nvp_trace_cache_entries") <= capacity,
        "{text}"
    );
    assert!(
        metric(&text, "nvp_trace_cache_evictions_total") > 0,
        "{text}"
    );
    shutdown_local_server(addr, handle);
}

#[test]
fn shutdown_wakes_an_idle_blocked_accept() {
    let server = Server::bind(ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.addr();
    let (done_tx, done) = mpsc::channel();
    thread::spawn(move || {
        server.run();
        let _ = done_tx.send(());
    });
    // Long enough idle that the accept loop is parked in `accept`.
    thread::sleep(Duration::from_millis(250));

    let ack = http_request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(ack.status, 200);
    done.recv_timeout(Duration::from_millis(100))
        .expect("run() returns within 100 ms of POST /shutdown");
    assert!(http_request(addr, "GET", "/healthz", "").is_err());
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_binary_and_exits_zero() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_nvp-serve"))
        .args(["serve", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn nvp-serve");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr: SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"));
    assert_eq!(
        http_request(addr, "GET", "/healthz", "").unwrap().status,
        200
    );

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(1);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("nvp-serve still running 1 s after SIGTERM");
        }
        thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(status.success(), "exit {status}, stderr {stderr:?}");
    assert!(stderr.contains("drained, exiting"), "{stderr:?}");
}

/// Sends `request` on a fresh connection and returns whatever arrives
/// before EOF or a reset. The cap's 503 is written without reading the
/// request, so the server's close may reset the connection after it.
fn send_raw(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = stream.write_all(request.as_bytes());
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = stream.read(&mut buf) {
        raw.extend_from_slice(&buf[..n]);
    }
    String::from_utf8_lossy(&raw).into_owned()
}

/// Sends `request` until the connection cap lets it through, and
/// returns the answer with the number of 503s it met on the way: a
/// handler leaves the cap just after its client sees EOF.
fn send_past_cap(addr: SocketAddr, request: &str) -> (String, u64) {
    let mut refused = 0;
    loop {
        let text = send_raw(addr, request);
        if !text.starts_with("HTTP/1.1 503") {
            return (text, refused);
        }
        refused += 1;
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn connection_cap_answers_503_with_retry_after() {
    let (addr, handle) = spawn_local_server(ServerConfig {
        max_connections: 1,
        read_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    // An accepted connection that never sends holds the only slot.
    let mut idle = TcpStream::connect(addr).unwrap();
    let refused = send_raw(
        addr,
        "GET /healthz HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(refused.starts_with("HTTP/1.1 503"), "{refused}");
    assert!(refused.contains("\r\nRetry-After: 1\r\n"), "{refused}");
    assert!(refused.contains("connection limit reached"), "{refused}");

    // The read deadline closes the idle connection with a 408.
    let mut raw = Vec::new();
    idle.read_to_end(&mut raw).unwrap();
    assert!(
        raw.starts_with(b"HTTP/1.1 408"),
        "{:?}",
        String::from_utf8_lossy(&raw)
    );

    let (text, also_refused) = send_past_cap(
        addr,
        "GET /metrics HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert_eq!(
        metric(&text, "nvp_responses_unavailable_total"),
        1 + also_refused,
        "{text}"
    );
    let (ack, _) = send_past_cap(
        addr,
        "POST /shutdown HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(ack.starts_with("HTTP/1.1 200"), "{ack}");
    handle.join().unwrap();
}

/// One request in wire format; `headers` are extra `Name: value\r\n` lines.
fn wire(method: &str, path: &str, headers: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Connects with a read timeout, so a server that never answers fails
/// the test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads one response off a connection that stays open, framed by its
/// `Content-Length`; `carry` keeps the bytes read past it. Returns the
/// head and the body.
fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (String, Vec<u8>) {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8(carry[..end].to_vec()).unwrap();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no Content-Length in {head}"));
            while carry.len() < end + 4 + length {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "connection closed inside a body: {head}");
                carry.extend_from_slice(&chunk[..n]);
            }
            let rest = carry.split_off(end + 4 + length);
            let body = carry[end + 4..].to_vec();
            *carry = rest;
            return (head, body);
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed before a response");
        carry.extend_from_slice(&chunk[..n]);
    }
}

/// Reads until the server closes the connection.
fn read_to_eof(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    String::from_utf8_lossy(&raw).into_owned()
}

#[test]
fn one_connection_carries_many_requests() {
    let (addr, handle) = small_server();
    let scrape = http_request(addr, "GET", "/metrics", "").unwrap();
    let accepted = metric(
        &String::from_utf8(scrape.body).unwrap(),
        "nvp_connections_accepted_total",
    );

    let mut stream = connect(addr);
    let mut carry = Vec::new();
    let mut bodies = Vec::new();
    for cache in ["miss", "hit"] {
        stream
            .write_all(wire("POST", "/v1/run", "", FAST_RUN).as_bytes())
            .unwrap();
        let (head, body) = read_framed(&mut stream, &mut carry);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains(&format!("\r\nX-Cache: {cache}")), "{head}");
        assert!(!head.contains("Connection:"), "{head}");
        bodies.push(body);
    }
    stream
        .write_all(wire("GET", "/metrics", "", "").as_bytes())
        .unwrap();
    let (_, text) = read_framed(&mut stream, &mut carry);
    let text = String::from_utf8(text).unwrap();
    assert_eq!(
        metric(&text, "nvp_connections_accepted_total"),
        accepted + 1,
        "{text}"
    );
    assert!(carry.is_empty(), "nothing follows the last response");

    let reference = post_run(addr, FAST_RUN);
    assert_eq!(bodies, [reference.body.clone(), reference.body]);
    drop(stream);
    shutdown_local_server(addr, handle);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle) = small_server();
    let mut stream = connect(addr);
    let both = wire("POST", "/v1/run", "", FAST_RUN)
        + &wire("GET", "/healthz", "Connection: close\r\n", "");
    stream.write_all(both.as_bytes()).unwrap();

    let mut carry = Vec::new();
    let (head, body) = read_framed(&mut stream, &mut carry);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(!head.contains("Connection:"), "{head}");
    assert_eq!(body, post_run(addr, FAST_RUN).body);
    let (head, body) = read_framed(&mut stream, &mut carry);
    assert!(head.contains("\r\nConnection: close"), "{head}");
    assert_eq!(body, b"ok\n");
    assert_eq!(read_to_eof(&mut stream), "", "the second response ends it");
    shutdown_local_server(addr, handle);
}

#[test]
fn connection_close_and_http_1_0_end_the_connection() {
    // A long idle limit: a connection left open would outlast the bound.
    let (addr, handle) = spawn_local_server(ServerConfig {
        read_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    });
    for request in [
        wire("GET", "/healthz", "Connection: close\r\n", ""),
        "GET /healthz HTTP/1.0\r\n\r\n".to_string(),
    ] {
        let mut stream = connect(addr);
        let start = Instant::now();
        stream.write_all(request.as_bytes()).unwrap();
        let text = read_to_eof(&mut stream);
        assert!(start.elapsed() < Duration::from_secs(2), "{request:?}");
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok\n"), "{text}");
    }
    shutdown_local_server(addr, handle);
}

#[test]
fn an_idle_connection_closes_without_a_response_after_the_read_deadline() {
    let (addr, handle) = small_server();
    let mut stream = connect(addr);
    stream
        .write_all(wire("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let mut carry = Vec::new();
    let (head, _) = read_framed(&mut stream, &mut carry);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    // Nothing more is sent: after the 300 ms deadline the server closes
    // without the 408 a fresh connection would get.
    let start = Instant::now();
    let text = read_to_eof(&mut stream);
    let idled = start.elapsed();
    assert_eq!(text, "", "closed without a response");
    assert!(
        (Duration::from_millis(200)..Duration::from_secs(3)).contains(&idled),
        "closed after {idled:?}"
    );
    shutdown_local_server(addr, handle);
}

#[test]
fn a_malformed_second_request_gets_400_then_eof() {
    let (addr, handle) = small_server();
    let mut stream = connect(addr);
    stream
        .write_all(wire("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let (head, _) = read_framed(&mut stream, &mut Vec::new());
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let text = read_to_eof(&mut stream);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
    shutdown_local_server(addr, handle);
}

#[test]
fn shutdown_does_not_wait_out_an_idle_kept_connection() {
    let server = Server::bind(ServerConfig {
        read_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let (done_tx, done) = mpsc::channel();
    thread::spawn(move || {
        server.run();
        let _ = done_tx.send(());
    });
    // This connection has served a request and idles in its handler.
    let mut idle = connect(addr);
    idle.write_all(wire("GET", "/healthz", "", "").as_bytes())
        .unwrap();
    let (head, _) = read_framed(&mut idle, &mut Vec::new());
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    let ack = http_request(addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(ack.status, 200);
    done.recv_timeout(Duration::from_secs(1))
        .expect("run() returns well within the 5 s read deadline");
    assert_eq!(read_to_eof(&mut idle), "", "closed without a response");
}
