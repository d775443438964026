//! The benchmark's own HTTP/1.1 client.
//!
//! Responses are framed by `Content-Length`, so one connection can carry
//! many requests: the client keeps its connection open unless a response
//! says `Connection: close` (every `nvp-serve` response does today, which
//! is why `http.*_connects` equals the request count). Each exchange
//! records client-side spans — connect, time to first response byte, and
//! the rest of the read — so the HTTP layer's share of a request shows.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on a response head.
const MAX_HEAD: usize = 16 * 1024;

/// How long any single read may stall before the exchange fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Client-side timing of one exchange, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// TCP connect time (0 when an open connection was reused).
    pub connect_us: f64,
    /// From the first request byte written to the first response byte.
    pub ttfb_us: f64,
    /// From the first response byte to the end of the body.
    pub read_us: f64,
}

impl Span {
    /// The whole exchange as the caller waited for it.
    pub fn total_us(&self) -> f64 {
        self.connect_us + self.ttfb_us + self.read_us
    }
}

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Body bytes, exactly `Content-Length` of them.
    pub body: Vec<u8>,
    /// Where the time went.
    pub span: Span,
    /// Whether the exchange opened a new connection.
    pub connected: bool,
}

impl Reply {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A client bound to one server address, holding at most one connection.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    /// Bytes read past the end of the previous response on `conn`.
    pending: Vec<u8>,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            pending: Vec::new(),
        }
    }

    /// Sends one request and reads its response. A reused connection the
    /// server closed while idle is retried once on a fresh connection.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        if self.conn.is_some() {
            match self.exchange(method, path, body) {
                Ok(reply) => return Ok(reply),
                // The server may close an idle keep-alive connection at
                // any time; only then is a resend on a new one safe.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::UnexpectedEof
                            | io::ErrorKind::ConnectionReset
                            | io::ErrorKind::BrokenPipe
                    ) =>
                {
                    self.drop_conn()
                }
                Err(e) => {
                    self.drop_conn();
                    return Err(e);
                }
            }
        }
        let reply = self.exchange(method, path, body);
        if reply.is_err() {
            self.drop_conn();
        }
        reply
    }

    fn drop_conn(&mut self) {
        self.conn = None;
        self.pending.clear();
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut span = Span::default();
        let connected = self.conn.is_none();
        if connected {
            let t0 = Instant::now();
            let stream = TcpStream::connect(self.addr)?;
            span.connect_us = micros(t0);
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(READ_TIMEOUT))?;
            self.conn = Some(stream);
        }
        let addr = self.addr;
        let stream = self.conn.as_mut().expect("connection was just ensured");
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let sent = Instant::now();
        stream.write_all(&wire)?;

        let mut buf = std::mem::take(&mut self.pending);
        let mut first_byte: Option<Instant> = None;
        if !buf.is_empty() {
            first_byte = Some(sent);
        }
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = find(&buf, b"\r\n\r\n") {
                break pos;
            }
            if buf.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before a response",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
        };
        let first_byte = first_byte.expect("a head implies a first byte");
        span.ttfb_us = (first_byte - sent).as_secs_f64() * 1e6;

        let (status, headers) = parse_head(&buf[..head_end])?;
        let find_header = |name: &str| {
            headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        };
        let length: usize = find_header("content-length")
            .ok_or_else(|| invalid("response without Content-Length"))?
            .parse()
            .map_err(|_| invalid("bad Content-Length"))?;
        let close = find_header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let body_start = head_end + 4;
        while buf.len() < body_start + length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed inside a body"));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        span.read_us = micros(first_byte);
        let body = buf[body_start..body_start + length].to_vec();
        if close {
            self.drop_conn();
        } else {
            self.pending = buf.split_off(body_start + length);
        }
        Ok(Reply {
            status,
            headers,
            body,
            span,
            connected,
        })
    }
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn parse_head(head: &[u8]) -> io::Result<(u16, Vec<(String, String)>)> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Reads one request (head plus `Content-Length` body) from a stub
    /// connection; `None` once the client hangs up.
    fn read_request(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Option<Vec<u8>> {
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(end) = find(carry, b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&carry[..end]).to_ascii_lowercase();
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length:"))
                    .map(|v| v.trim().parse().unwrap())
                    .unwrap_or(0);
                while carry.len() < end + 4 + len {
                    let n = stream.read(&mut chunk).ok()?;
                    if n == 0 {
                        return None;
                    }
                    carry.extend_from_slice(&chunk[..n]);
                }
                let rest = carry.split_off(end + 4 + len);
                let body = carry[end + 4..].to_vec();
                *carry = rest;
                return Some(body);
            }
            let n = stream.read(&mut chunk).ok()?;
            if n == 0 {
                return None;
            }
            carry.extend_from_slice(&chunk[..n]);
        }
    }

    /// A loopback stub that echoes each request body back. On every
    /// connection, the `close_every`-th response carries
    /// `Connection: close` and ends the connection; the others persist.
    fn stub(close_every: usize, connections: usize) -> (SocketAddr, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().unwrap();
                let mut carry = Vec::new();
                let mut served = 0;
                while let Some(body) = read_request(&mut stream, &mut carry) {
                    served += 1;
                    let close = served % close_every == 0;
                    // Write head and body separately so the client must
                    // frame across reads.
                    let head = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{}\r\n",
                        body.len(),
                        if close { "Connection: close\r\n" } else { "" }
                    );
                    stream.write_all(head.as_bytes()).unwrap();
                    stream.flush().unwrap();
                    stream.write_all(&body).unwrap();
                    if close {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn persistent_responses_reuse_one_connection() {
        let (addr, server) = stub(usize::MAX, 1);
        let mut client = Client::new(addr);
        for i in 0..5 {
            let body = format!("request-{i}");
            let reply = client.request("POST", "/echo", body.as_bytes()).unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, body.as_bytes());
            assert_eq!(reply.connected, i == 0);
            assert_eq!(reply.header("content-length"), Some("9"));
        }
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn connection_close_forces_a_reconnect() {
        // Every second response closes: 6 requests need 3 connections.
        let (addr, server) = stub(2, 3);
        let mut client = Client::new(addr);
        let mut opened = Vec::new();
        for i in 0..6 {
            let body = vec![b'x'; 1000 + i];
            let reply = client.request("POST", "/echo", &body).unwrap();
            assert_eq!(reply.body, body, "framing must stop at Content-Length");
            opened.push(reply.connected);
            assert!(reply.span.ttfb_us > 0.0);
            assert!(reply.span.total_us() >= reply.span.ttfb_us);
        }
        assert_eq!(opened, [true, false, true, false, true, false]);
        server.join().unwrap();
    }

    #[test]
    fn every_response_closing_means_one_connect_per_request() {
        let (addr, server) = stub(1, 4);
        let mut client = Client::new(addr);
        for _ in 0..4 {
            let reply = client.request("GET", "/", b"").unwrap();
            assert_eq!(reply.header("connection"), Some("close"));
            assert!(reply.connected, "a closed connection is never reused");
            assert!(reply.body.is_empty());
        }
        server.join().unwrap();
    }

    #[test]
    fn a_response_without_content_length_is_refused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut carry = Vec::new();
            read_request(&mut stream, &mut carry).unwrap();
            stream.write_all(b"HTTP/1.1 200 OK\r\n\r\nbody").unwrap();
        });
        let err = Client::new(addr).request("GET", "/", b"").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        server.join().unwrap();
    }
}
