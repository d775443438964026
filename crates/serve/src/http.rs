//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`.
//!
//! The service speaks exactly what its clients need and nothing more:
//! persistent connections (RFC 9112 §9.3), so one connection carries
//! request after request until the client asks to close or goes idle;
//! `Content-Length` bodies only (a request that carries
//! `Transfer-Encoding` is refused, since its framing cannot be trusted
//! on a connection that reads on), headers capped at 8 KiB, bodies
//! capped by the server's configured limit, and a read deadline so a
//! slow or stalled client cannot pin a handler thread.
//!
//! Keeping the parser this narrow is what keeps the crate
//! dependency-free without turning it into a second project.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on the request line plus headers.
const MAX_HEAD: usize = 8 * 1024;

/// The socket's read timeout: the longest a blocked read waits before
/// the reader looks at its deadline, or an idle connection at the stop
/// flag, again.
const POLL: Duration = Duration::from_millis(25);

/// A parsed request head plus its body.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client per RFC (not normalized).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// The client wants the connection closed after this exchange: it
    /// sent `Connection: close`, or spoke a version other than HTTP/1.1.
    pub close: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// The client did not deliver the full request before the deadline.
    Timeout,
    /// Declared body (or the head) exceeds the configured limits.
    TooLarge,
    /// The bytes on the wire are not an HTTP/1.1 request we accept.
    Malformed(&'static str),
    /// The client closed the connection before a full request arrived.
    Closed,
    /// Transport error.
    Io(std::io::Error),
}

/// One client connection: the stream plus the bytes read past the end
/// of the last request, which begin the next one (a pipelining client
/// may send several requests in one write).
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    /// Takes over an accepted stream.
    pub fn new(stream: TcpStream) -> std::io::Result<Connection> {
        stream.set_read_timeout(Some(POLL))?;
        // Pipelined responses go out back to back; Nagle would hold the
        // second until the client acknowledged the first.
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            buf: Vec::new(),
        })
    }

    /// The underlying stream, for writing responses.
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Waits for the first byte of the next request on a connection that
    /// has served one. False when the client closed, `idle` passed with
    /// nothing sent, or `stop` was set: the caller then closes without a
    /// response. `stop` is read at least every 25 ms.
    pub fn await_request(&mut self, idle: Duration, stop: &AtomicBool) -> bool {
        let start = Instant::now();
        while self.buf.is_empty() {
            if stop.load(Ordering::SeqCst) || start.elapsed() >= idle {
                return false;
            }
            match self.read_some() {
                Ok(0) => return false,
                Ok(_) => {}
                Err(e) if is_poll(&e) => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Reads one request, enforcing `deadline` on the whole read and
    /// `max_body` on the declared body length. Bytes past the request's
    /// end stay buffered for the next call.
    pub fn read_request(
        &mut self,
        deadline: Duration,
        max_body: usize,
    ) -> Result<Request, RecvError> {
        let start = Instant::now();

        // Accumulate until the blank line ending the head.
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(RecvError::TooLarge);
            }
            if self.fill(start, deadline)? == 0 {
                return Err(if self.buf.is_empty() {
                    RecvError::Closed
                } else {
                    RecvError::Malformed("connection closed mid-head")
                });
            }
        };
        let head = parse_head(&self.buf[..head_end])?;
        if head.content_length > max_body {
            return Err(RecvError::TooLarge);
        }

        // The body may already be partially (or fully) buffered, and
        // the next request may follow it.
        let body_start = head_end + 4;
        let body_end = body_start + head.content_length;
        while self.buf.len() < body_end {
            if self.fill(start, deadline)? == 0 {
                return Err(RecvError::Malformed("connection closed mid-body"));
            }
        }
        let rest = self.buf.split_off(body_end);
        let mut body = std::mem::replace(&mut self.buf, rest);
        body.drain(..body_start);
        Ok(Request {
            method: head.method,
            path: head.path,
            body,
            close: head.close,
        })
    }

    /// Reads at least one byte into the buffer (`Ok(0)` is end of
    /// stream), or fails with `Timeout` once `deadline` has passed.
    fn fill(&mut self, start: Instant, deadline: Duration) -> Result<usize, RecvError> {
        loop {
            if start.elapsed() >= deadline {
                return Err(RecvError::Timeout);
            }
            match self.read_some() {
                Err(e) if is_poll(&e) => {}
                result => return result.map_err(RecvError::Io),
            }
        }
    }

    fn read_some(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Discards whatever the client is still sending, bounded by `max`
    /// bytes and a short window. Closing a socket with unread input
    /// makes the kernel send RST, which clobbers a response the client
    /// has not read yet — early rejections (413, 400) must drain before
    /// closing so the refusal actually arrives.
    pub fn drain(&mut self, max: usize) {
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(200)));
        let mut scratch = [0u8; 4096];
        let mut seen = 0usize;
        while seen < max {
            match self.stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(n) => seen += n,
            }
        }
    }
}

/// A read that timed out (or was interrupted) rather than failed.
fn is_poll(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
    )
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// What the request line and headers say.
struct Head {
    method: String,
    path: String,
    content_length: usize,
    close: bool,
}

fn parse_head(bytes: &[u8]) -> Result<Head, RecvError> {
    let head = std::str::from_utf8(bytes).map_err(|_| RecvError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RecvError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(RecvError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(RecvError::Malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::Malformed("not HTTP/1.x"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut close = version != "HTTP/1.1";
    let mut content_length: Option<usize> = None;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9110 §8.6: `1*DIGIT`, so no sign, list or blank value.
            let length = Some(value)
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or(RecvError::Malformed("unparseable Content-Length"))?;
            // RFC 9112 §6.3: duplicate Content-Length headers must agree,
            // or the body's framing is ambiguous.
            if content_length.is_some_and(|seen| seen != length) {
                return Err(RecvError::Malformed("conflicting Content-Length"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Only `Content-Length` frames a body here; a coded body would
            // otherwise be read as the next request.
            return Err(RecvError::Malformed("Transfer-Encoding is not supported"));
        } else if name.eq_ignore_ascii_case("connection") {
            close |= value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("close"));
        }
    }
    Ok(Head {
        method,
        path,
        content_length: content_length.unwrap_or(0),
        close,
    })
}

/// An HTTP response under construction. It says `Connection: close`
/// only when it is the last response on its connection.
#[derive(Debug)]
pub struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A response with the given status code.
    pub fn new(status: u16) -> Response {
        let reason = match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        };
        Response {
            status,
            reason,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Status code of this response.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Adds a header.
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Sets a JSON body.
    pub fn json(self, body: impl Into<Vec<u8>>) -> Response {
        self.body_with("application/json", body.into())
    }

    /// Sets a plain-text body.
    pub fn text(self, body: impl Into<String>) -> Response {
        self.body_with("text/plain; charset=utf-8", body.into().into_bytes())
    }

    fn body_with(mut self, content_type: &str, body: Vec<u8>) -> Response {
        self.headers
            .push(("Content-Type".to_string(), content_type.to_string()));
        self.body = body;
        self
    }

    /// Serializes head + body to wire format; `close` marks the last
    /// response on its connection.
    pub fn to_bytes(&self, close: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        if close {
            out.extend_from_slice(b"Connection: close\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response and flushes. Errors are swallowed — the
    /// client may already be gone, and there is nobody left to tell.
    pub fn send(&self, stream: &mut TcpStream, close: bool) {
        let _ = stream.write_all(&self.to_bytes(close));
        let _ = stream.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn roundtrip(raw: &[u8]) -> Result<Request, RecvError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Keep the socket open briefly so the reader sees the data,
            // then drop (close) it.
        });
        let (stream, _) = listener.accept().unwrap();
        let req = Connection::new(stream)
            .unwrap()
            .read_request(Duration::from_millis(500), 1024);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            roundtrip(b"POST /v1/run?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/run");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close);
    }

    #[test]
    fn close_is_read_from_the_header_and_the_version() {
        let req = roundtrip(b"GET / HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n").unwrap();
        assert!(req.close);
        let req = roundtrip(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close);
    }

    #[test]
    fn pipelined_requests_are_read_one_at_a_time() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .write_all(b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut conn = Connection::new(listener.accept().unwrap().0).unwrap();
        let deadline = Duration::from_millis(500);
        let first = conn.read_request(deadline, 1024).unwrap();
        assert_eq!((first.path.as_str(), &first.body[..]), ("/a", &b"abc"[..]));
        let second = conn.read_request(deadline, 1024).unwrap();
        assert_eq!((second.path.as_str(), second.body.len()), ("/b", 0));
        drop(client);
        let stop = AtomicBool::new(false);
        assert!(!conn.await_request(deadline, &stop), "EOF ends the wait");
    }

    #[test]
    fn rejects_transfer_encoding() {
        let err = roundtrip(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n",
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                RecvError::Malformed("Transfer-Encoding is not supported")
            ),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_a_content_length_that_is_not_digits() {
        for value in ["+4", "-0", "0x4", "4 4", "4,4", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nabcd");
            let err = roundtrip(raw.as_bytes()).unwrap_err();
            assert!(
                matches!(err, RecvError::Malformed("unparseable Content-Length")),
                "{value:?}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_oversized_body_from_header_alone() {
        let err = roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err();
        assert!(matches!(err, RecvError::TooLarge), "{err:?}");
    }

    #[test]
    fn rejects_non_http() {
        let err = roundtrip(b"SSH-2.0-OpenSSH\r\n\r\n").unwrap_err();
        assert!(matches!(err, RecvError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        let err =
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 400\r\n\r\nabcd")
                .unwrap_err();
        assert!(
            matches!(err, RecvError::Malformed("conflicting Content-Length")),
            "{err:?}"
        );
        let req =
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn slow_client_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Declare a body but never send it.
            s.write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n")
                .unwrap();
            s.flush().unwrap();
            thread::sleep(Duration::from_millis(400));
        });
        let (stream, _) = listener.accept().unwrap();
        let err = Connection::new(stream)
            .unwrap()
            .read_request(Duration::from_millis(100), 1024)
            .unwrap_err();
        assert!(matches!(err, RecvError::Timeout), "{err:?}");
        writer.join().unwrap();
    }

    #[test]
    fn response_wire_format() {
        let response = Response::new(429)
            .header("Retry-After", "1")
            .json(br#"{"error":"queue full"}"#.to_vec());
        let text = String::from_utf8(response.to_bytes(true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
        let kept = String::from_utf8(response.to_bytes(false)).unwrap();
        assert_eq!(kept, text.replace("Connection: close\r\n", ""));
    }
}
