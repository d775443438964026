//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`.
//!
//! The service speaks exactly what its clients need and nothing more:
//! one request per connection (`Connection: close` on every response),
//! `Content-Length` bodies only (no chunked transfer), headers capped at
//! 8 KiB, bodies capped by the server's configured limit, and a read
//! deadline so a slow or stalled client cannot pin a handler thread.
//!
//! Keeping the parser this narrow is what keeps the crate
//! dependency-free without turning it into a second project.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line plus headers.
const MAX_HEAD: usize = 8 * 1024;

/// A parsed request head plus its body.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client per RFC (not normalized).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
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

/// Reads one request from `stream`, enforcing `deadline` on the whole
/// read and `max_body` on the declared body length.
pub fn read_request(
    stream: &mut TcpStream,
    deadline: Duration,
    max_body: usize,
) -> Result<Request, RecvError> {
    stream
        .set_read_timeout(Some(deadline))
        .map_err(RecvError::Io)?;
    let start = std::time::Instant::now();

    // Accumulate until the blank line ending the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(RecvError::TooLarge);
        }
        if start.elapsed() >= deadline {
            return Err(RecvError::Timeout);
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(if buf.is_empty() {
                    RecvError::Closed
                } else {
                    RecvError::Malformed("connection closed mid-head")
                })
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(RecvError::Timeout)
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RecvError::Malformed("head is not UTF-8"))?;
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

    // RFC 9112 §6.3: duplicate Content-Length headers must agree, or the
    // body's framing is ambiguous.
    let mut content_length: Option<usize> = None;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let length = value
                .trim()
                .parse()
                .map_err(|_| RecvError::Malformed("unparseable Content-Length"))?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(RecvError::Malformed("conflicting Content-Length"));
            }
            content_length = Some(length);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(RecvError::TooLarge);
    }

    // The body may already be partially (or fully) in `buf`.
    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        if start.elapsed() >= deadline {
            return Err(RecvError::Timeout);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(RecvError::Malformed("connection closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(RecvError::Timeout)
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Discards whatever the client is still sending, bounded by `max`
/// bytes and a short window. Closing a socket with unread input makes
/// the kernel send RST, which clobbers a response the client has not
/// read yet — early rejections (413, 400) must drain before closing so
/// the refusal actually arrives.
pub fn drain_input(stream: &mut TcpStream, max: usize) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scratch = [0u8; 4096];
    let mut seen = 0usize;
    while seen < max {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => seen += n,
        }
    }
}

/// An HTTP response under construction. Always `Connection: close`.
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

    /// Serializes head + body to wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        out.extend_from_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason).as_bytes());
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(
            format!(
                "Content-Length: {}\r\nConnection: close\r\n\r\n",
                self.body.len()
            )
            .as_bytes(),
        );
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response and flushes. Errors are swallowed — the
    /// client may already be gone, and there is nobody left to tell.
    pub fn send(&self, stream: &mut TcpStream) {
        let _ = stream.write_all(&self.to_bytes());
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
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream, Duration::from_millis(500), 1024);
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
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request(&mut stream, Duration::from_millis(100), 1024).unwrap_err();
        assert!(matches!(err, RecvError::Timeout), "{err:?}");
        writer.join().unwrap();
    }

    #[test]
    fn response_wire_format() {
        let bytes = Response::new(429)
            .header("Retry-After", "1")
            .json(br#"{"error":"queue full"}"#.to_vec())
            .to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"queue full\"}"));
    }
}
