//! A minimal blocking HTTP/1.1 keep-alive client: requests are rendered
//! to bytes before any clock starts, and a reply is framed by its
//! `Content-Length` (every daemon response carries one).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a reply may take before the operation counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Largest reply accepted (a `/metrics` or `/models` page is well under).
const MAX_REPLY: usize = 64 << 20;

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Renders a `POST` with a body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Renders a `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and bounded I/O waits.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::with_capacity(8 << 10),
        })
    }

    /// Replaces a connection that failed mid-exchange.
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Conn::connect(self.addr)?;
        Ok(())
    }

    /// Sends one rendered request and reads its reply.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    /// Writes rendered requests without waiting for replies
    /// (pipelining); read them back in order with [`Conn::read_reply`].
    pub fn write(&mut self, requests: &[u8]) -> io::Result<()> {
        self.stream.write_all(requests)
    }

    /// Reads the next reply.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        let head_len = loop {
            if let Some(at) = find(&self.buf, b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_len]).map_err(|_| bad("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let length = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        if length > MAX_REPLY {
            return Err(bad("reply too large"));
        }
        while self.buf.len() < head_len + length {
            self.fill()?;
        }
        let body = self.buf[head_len..head_len + length].to_vec();
        self.buf.drain(..head_len + length);
        Ok(Reply { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// One request on a fresh connection (control-plane calls: scrapes,
/// health checks, `/models`).
pub fn call(addr: SocketAddr, request: &[u8]) -> io::Result<Reply> {
    Conn::connect(addr)?.send(request)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}
