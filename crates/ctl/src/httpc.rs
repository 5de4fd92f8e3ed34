//! A minimal one-shot HTTP/1.1 client for the control loop.
//!
//! Every control-plane exchange is a single request/response pair against
//! a daemon we also wrote, so the client stays deliberately small:
//! `Connection: close`, bounded timeouts on connect/read/write, and the
//! workspace's shared codec ([`perfpred_core::http`]) reading the reply —
//! `Content-Length` framing, bodies capped at 4 MiB.

use perfpred_core::http::Response;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed response: status code and body.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Response body, UTF-8-lossy decoded.
    pub body: String,
}

impl HttpReply {
    /// True for any 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved");
    for sockaddr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sockaddr, timeout) {
            Ok(stream) => {
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

fn exchange(addr: &str, request: &[u8], timeout: Duration) -> std::io::Result<HttpReply> {
    let mut stream = connect(addr, timeout)?;
    stream.write_all(request)?;
    let (resp, _) = Response::read_from(&mut stream, &mut Vec::new())?;
    Ok(HttpReply {
        status: resp.status,
        body: String::from_utf8_lossy(&resp.body).into_owned(),
    })
}

/// `GET path` against `addr` (a `host:port` string).
pub fn get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<HttpReply> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    exchange(addr, request.as_bytes(), timeout)
}

/// `POST path` with a JSON body against `addr`.
pub fn post_json(
    addr: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<HttpReply> {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, request.as_bytes(), timeout)
}
