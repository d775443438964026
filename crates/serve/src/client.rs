//! A minimal blocking HTTP/1.1 client and an in-process server harness,
//! used by the integration tests to drive the service over real sockets.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;

/// One HTTP exchange as the client sees it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Response status code.
    pub status: u16,
    /// Lowercased response headers.
    pub headers: HashMap<String, String>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// Minimal blocking HTTP/1.1 client: one request, `Connection: close`.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Exchange> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    // Writes are best-effort: a server rejecting early (413 from the
    // Content-Length alone) may close its read side mid-body, and the
    // response is still worth reading.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"))
}

fn parse_response(raw: &[u8]) -> Option<Exchange> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }
    Some(Exchange {
        status,
        headers,
        body: raw[head_end + 4..].to_vec(),
    })
}

/// Spawns an in-process server on an ephemeral port and returns its
/// address plus a guard thread handle.
pub fn spawn_local_server(
    config: crate::server::ServerConfig,
) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = crate::server::Server::bind(config).expect("bind ephemeral port");
    let addr = server.addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// Requests a clean shutdown of a server started by [`spawn_local_server`].
pub fn shutdown_local_server(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    let _ = http_request(addr, "POST", "/shutdown", "");
    let _ = handle.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_parser_handles_headers_and_body() {
        let ex = parse_response(b"HTTP/1.1 200 OK\r\nX-Cache: hit\r\nContent-Length: 2\r\n\r\nok")
            .unwrap();
        assert_eq!(ex.status, 200);
        assert_eq!(ex.headers.get("x-cache").unwrap(), "hit");
        assert_eq!(ex.body, b"ok");
    }
}
