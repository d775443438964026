//! Fuzzes `nvp_serve::http::Connection::read_request`, the first code
//! that reads a client's untrusted bytes.
//!
//! Valid `GET` and `POST` heads are corrupted by seeded bit flips, byte
//! insertions, truncations, duplicate `Content-Length` headers (agreeing
//! or not), oversized `Content-Length` values and a head past the 8 KiB
//! cap, then written to a real loopback socket. Most clients close their
//! write side after sending; some stall, so the read deadline is what
//! ends the read. Whatever arrives, `read_request` must return `Ok` or a
//! `RecvError` in bounded time, and never panic.
//!
//! A kept-alive connection reads on past one request, so a second mode
//! writes two requests, valid or corrupted, in one write and reads both
//! through one `Connection`: what the first request leaves buffered is
//! where the second begins.

use nvp_serve::http::{Connection, RecvError};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(100);
const MAX_BODY: usize = 4 * 1024;
const CASES: u64 = 1000;

/// SplitMix64: a dependency-free seeded generator, so every case is
/// reproducible from its index.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Requests the service answers, in the spellings its clients send.
fn seeds() -> Vec<Vec<u8>> {
    vec![
        b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".to_vec(),
        b"GET /metrics?verbose=1 HTTP/1.0\r\nAccept: */*\r\n\r\n".to_vec(),
        post(
            "/v1/run",
            r#"{"kernel":"sobel","img":8,"frames":1,"seconds":0.2}"#,
        ),
        post(
            "/v1/sweep?trace=1",
            r#"{"kernels":["median"],"modes":["precise","fixed:4"]}"#,
        ),
        b"POST /shutdown HTTP/1.1\r\ncontent-length: 0\r\n\r\n".to_vec(),
    ]
}

/// Inserts `header` right after the request line (or at the end when the
/// request line was truncated away).
fn insert_header(bytes: &mut Vec<u8>, header: &str) {
    let at = bytes
        .windows(2)
        .position(|w| w == b"\r\n")
        .map_or(bytes.len(), |p| p + 2);
    bytes.splice(at..at, header.bytes());
}

/// Applies one to three random corruptions.
fn mutate(seed: &[u8], rng: &mut Rng) -> Vec<u8> {
    // Bytes the parser splits on or parses, plus a non-UTF-8 lead byte.
    const INTERESTING: &[u8] = b":\r\n ?/-+0123456789\t\xcf";
    const HUGE_LENGTHS: [&str; 4] = ["4097", "18446744073709551615", "18446744073709551616", "-1"];
    let mut bytes = seed.to_vec();
    for _ in 0..1 + rng.below(3) {
        match rng.below(6) {
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => {
                let at = rng.below(bytes.len() + 1);
                let b = if rng.below(2) == 0 {
                    INTERESTING[rng.below(INTERESTING.len())]
                } else {
                    rng.next() as u8
                };
                bytes.insert(at, b);
            }
            2 => bytes.truncate(rng.below(bytes.len() + 1)),
            3 => {
                let n = [0, 2, 52, 53][rng.below(4)];
                insert_header(&mut bytes, &format!("Content-Length: {n}\r\n"));
            }
            4 => {
                let n = HUGE_LENGTHS[rng.below(HUGE_LENGTHS.len())];
                insert_header(&mut bytes, &format!("content-length:{n}\r\n"));
            }
            _ => {
                let pad = "a".repeat(8 * 1024 + rng.below(64));
                insert_header(&mut bytes, &format!("X-Pad: {pad}\r\n"));
            }
        }
    }
    bytes
}

/// Writes `bytes` as a client and returns the server's side of the
/// connection; a stalled client keeps its write side open.
fn connect(listener: &TcpListener, bytes: &[u8], stall: bool) -> (TcpStream, Connection) {
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    client.write_all(bytes).unwrap();
    if !stall {
        client.shutdown(Shutdown::Write).unwrap();
    }
    let (stream, _) = listener.accept().unwrap();
    (client, Connection::new(stream).unwrap())
}

/// Writes `bytes` as a client, then reads them back through
/// `read_request`.
fn read_back(listener: &TcpListener, bytes: &[u8], stall: bool) -> Result<usize, RecvError> {
    let (_client, mut conn) = connect(listener, bytes, stall);
    conn.read_request(DEADLINE, MAX_BODY)
        .map(|req| req.body.len())
}

/// The body a seed request carries: everything after its head.
fn body_of(seed: &[u8]) -> &[u8] {
    let head_end = seed.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    &seed[head_end + 4..]
}

#[test]
fn seeds_parse() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    for seed in seeds() {
        let text = String::from_utf8_lossy(&seed).into_owned();
        assert!(read_back(&listener, &seed, false).is_ok(), "{text}");
    }
}

#[test]
fn mutated_requests_never_panic_or_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let seeds = seeds();
    // The loop checks the deadline between reads, and one read blocks for
    // at most the socket's 25 ms poll, so a read ends within a deadline
    // and a poll; the bound leaves room for a loaded host.
    let bound = 2 * DEADLINE + Duration::from_secs(1);
    for case in 0..CASES {
        let mut rng = Rng(case);
        let bytes = mutate(&seeds[rng.below(seeds.len())], &mut rng);
        let stall = rng.below(40) == 0;
        let start = Instant::now();
        let result = read_back(&listener, &bytes, stall);
        let took = start.elapsed();
        let text = String::from_utf8_lossy(&bytes);
        assert!(took < bound, "case {case} took {took:?}: {text:?}");
        if let Ok(body) = result {
            assert!(body <= MAX_BODY, "case {case}: {body} B body: {text:?}");
        }
    }
}

#[test]
fn request_pairs_on_one_connection_never_panic_or_hang() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let seeds = seeds();
    // Two reads, each bounded as in `mutated_requests_never_panic_or_hang`.
    let bound = 4 * DEADLINE + Duration::from_secs(1);
    for case in 0..CASES / 2 {
        let mut rng = Rng(CASES + case);
        let (a, b) = (rng.below(seeds.len()), rng.below(seeds.len()));
        // A quarter of the pairs stay valid; the rest corrupt the first
        // request, the second, or both.
        let corrupt = rng.below(4);
        let mut first = seeds[a].clone();
        let mut second = seeds[b].clone();
        if corrupt & 1 == 1 {
            first = mutate(&first, &mut rng);
        }
        if corrupt & 2 == 2 {
            second = mutate(&second, &mut rng);
        }
        let wire = [first, second].concat();
        let stall = rng.below(40) == 0;
        let start = Instant::now();
        let (_client, mut conn) = connect(&listener, &wire, stall);
        let bodies = [(); 2].map(|()| conn.read_request(DEADLINE, MAX_BODY).map(|req| req.body));
        let took = start.elapsed();
        let text = String::from_utf8_lossy(&wire);
        assert!(took < bound, "case {case} took {took:?}: {text:?}");
        if corrupt == 0 {
            let read: Vec<&[u8]> = bodies.iter().flatten().map(Vec::as_slice).collect();
            assert_eq!(
                read,
                [body_of(&seeds[a]), body_of(&seeds[b])],
                "case {case}: {text:?}"
            );
        }
        for body in bodies.iter().flatten() {
            assert!(
                body.len() <= MAX_BODY,
                "case {case}: {} B body: {text:?}",
                body.len()
            );
        }
    }
}
