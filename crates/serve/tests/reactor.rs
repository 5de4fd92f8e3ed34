//! Reactor-core integration tests: adversarial framing (one-byte writes,
//! hostile chunk boundaries, pipelining), slow-loris eviction, and the
//! golden transcript holding the daemon's bytes fixed over every
//! deterministic endpoint.

#![cfg(target_os = "linux")]

use perfpred_core::http::{self, HeadOutcome, Response};
use perfpred_core::{CacheOptions, Json};
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::router::App;
use perfpred_serve::{ModelHost, ReactorServer, Shutdown};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn make_app() -> App {
    App::new(
        ModelHost::paper(&CacheOptions::default()),
        AdmissionController::new(RuntimeOptions::default()).unwrap(),
        JobQueue::new(64),
        Shutdown::new(),
    )
}

struct Running {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Running {
    fn stop(&mut self) {
        self.shutdown.request();
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.stop();
    }
}

fn start_reactor_with(stall: Option<Duration>) -> Running {
    let mut server = ReactorServer::bind("127.0.0.1", 0, make_app(), 2, 2, 1, 8, 64).unwrap();
    if let Some(stall) = stall {
        server.set_stall_timeout(stall);
    }
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let handle = thread::spawn(move || server.run().unwrap());
    Running {
        addr,
        shutdown,
        handle: Some(handle),
    }
}

fn start_reactor() -> Running {
    start_reactor_with(None)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// Reads exactly one HTTP/1.1 response frame (head + Content-Length body)
/// through the shared codec and returns its bytes verbatim, one byte per
/// `read` so a pipelined successor is never consumed — keep-alive
/// connections can be read response-by-response.
fn recv_frame(stream: &mut TcpStream) -> Vec<u8> {
    struct ByteAtATime<'a>(&'a mut TcpStream);
    impl Read for ByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }
    let mut raw = Vec::new();
    let mut head = Response::text(0, "");
    match http::read_frame(&mut ByteAtATime(stream), &mut raw, |bytes| {
        http::parse_response_head(bytes, &mut head)
    }) {
        Ok(HeadOutcome::Complete(info)) if raw.len() == info.total_len() => raw,
        other => panic!(
            "no single complete response ({other:?}) in {:?}",
            String::from_utf8_lossy(&raw)
        ),
    }
}

fn frame(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn status_of(raw: &[u8]) -> u16 {
    String::from_utf8_lossy(raw)
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("response must start with a status line")
}

#[test]
fn one_byte_at_a_time_writes_still_parse() {
    let server = start_reactor();
    let mut stream = connect(server.addr);
    let raw = frame(
        "POST",
        "/predict",
        r#"{"method": "hybrid", "server": "AppServS", "clients": 120}"#,
        true,
    );
    for (i, b) in raw.iter().enumerate() {
        stream.write_all(std::slice::from_ref(b)).unwrap();
        if i % 16 == 0 {
            // Defeat kernel coalescing often enough that the reactor sees
            // genuinely fragmented arrivals.
            thread::sleep(Duration::from_millis(1));
        }
    }
    let reply = recv_frame(&mut stream);
    assert_eq!(
        status_of(&reply),
        200,
        "{}",
        String::from_utf8_lossy(&reply)
    );
    assert!(
        String::from_utf8_lossy(&reply).contains("\"prediction\""),
        "{}",
        String::from_utf8_lossy(&reply)
    );
}

#[test]
fn adversarial_chunk_boundaries_reassemble() {
    let server = start_reactor();
    let raw = frame(
        "POST",
        "/predict",
        r#"{"method": "hybrid", "server": "AppServF", "clients": 300}"#,
        false,
    );
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .unwrap();
    // Splits at every framing landmark: inside the request line, around
    // each CR/LF, inside a header value, at the head/body seam, mid-body.
    let splits = [
        1,
        4,
        raw.iter().position(|&b| b == b'\r').unwrap(),
        raw.iter().position(|&b| b == b'\r').unwrap() + 1,
        head_end - 2,
        head_end - 1,
        head_end,
        head_end + 1,
        raw.len() - 1,
    ];
    let mut expected: Option<String> = None;
    for &split in &splits {
        let mut stream = connect(server.addr);
        stream.write_all(&raw[..split]).unwrap();
        thread::sleep(Duration::from_millis(5));
        stream.write_all(&raw[split..]).unwrap();
        let reply = recv_frame(&mut stream);
        assert_eq!(status_of(&reply), 200, "split at {split}");
        // The first reply computes, the rest hit the prediction cache;
        // normalize that one expected difference (the flag and the
        // Content-Length it shifts) before comparing bytes.
        let normalized = String::from_utf8_lossy(&reply)
            .replace("\"cached\": false", "\"cached\": true")
            .lines()
            .filter(|l| !l.starts_with("Content-Length: "))
            .collect::<Vec<_>>()
            .join("\n");
        match &expected {
            None => expected = Some(normalized),
            Some(e) => assert_eq!(e, &normalized, "split at {split} produced different bytes"),
        }
    }
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = start_reactor();

    // Serial baseline on one connection.
    let mut serial = connect(server.addr);
    let mut baseline = Vec::new();
    for _ in 0..5 {
        serial
            .write_all(&frame("GET", "/models", "", false))
            .unwrap();
        baseline.push(recv_frame(&mut serial));
    }

    // The same five requests in a single write burst.
    let mut stream = connect(server.addr);
    let mut burst = Vec::new();
    for _ in 0..5 {
        burst.extend_from_slice(&frame("GET", "/models", "", false));
    }
    stream.write_all(&burst).unwrap();
    for (i, expected) in baseline.iter().enumerate() {
        let reply = recv_frame(&mut stream);
        assert_eq!(expected, &reply, "pipelined response {i} diverged");
    }
}

#[test]
fn slow_loris_is_evicted_but_idle_keepalive_survives() {
    let mut server = start_reactor_with(Some(Duration::from_millis(250)));

    // An idle keep-alive connection (no bytes at all) must NOT be evicted.
    let mut idle = connect(server.addr);
    // A slow-loris connection: half a request head, then silence.
    let mut loris = connect(server.addr);
    loris.write_all(b"GET /healthz HTT").unwrap();

    // The loris read blocks until the server-side close (EOF or reset);
    // a read timeout means the sweep never evicted it.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut sink = [0u8; 64];
    match loris.read(&mut sink) {
        Ok(0) => {}
        Ok(n) => panic!("stalled connection got {n} bytes instead of a close"),
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            panic!(
                "stalled connection still open after {:?}",
                started.elapsed()
            )
        }
        Err(_) => {} // ECONNRESET is an acceptable close too
    }
    assert!(
        perfpred_core::metrics::counter("serve.stalled_conns").get() > 0,
        "eviction must be recorded"
    );

    // The idle connection still serves.
    idle.write_all(&frame("GET", "/healthz", "", true)).unwrap();
    let reply = recv_frame(&mut idle);
    assert_eq!(status_of(&reply), 200);
    server.stop();
}

/// The serving contract, pinned: `fixtures/golden_trace.json` holds a
/// deterministic request trace and the exact bytes answering it — same
/// JSON, same framing headers, same keep-alive decisions — across every
/// deterministic endpoint. (/healthz carries uptime and /metrics latency
/// histograms, so they are left out; /observe pins `timestamp_us` so
/// nothing reads the wall clock.) Steps sharing a `conn` number share one
/// keep-alive connection. The transcript was recorded while a second,
/// thread-per-connection serving core still answered it byte for byte.
#[test]
fn golden_transcript_is_byte_identical() {
    let doc = Json::parse(include_str!("fixtures/golden_trace.json")).unwrap();
    let steps = doc.get("steps").and_then(Json::as_arr).unwrap();
    let server = start_reactor();

    // A malformed request line is refused with a 400 and a close, like
    // an oversized one — never a silent hang-up.
    let mut stream = connect(server.addr);
    stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut expected = Vec::new();
    Response::error(400, "malformed request").write_into(&mut expected, false);
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&reply),
        String::from_utf8_lossy(&expected)
    );

    let mut conns: BTreeMap<u32, TcpStream> = BTreeMap::new();
    let mut replies = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let field = |name: &str| step.get(name).and_then(Json::as_str).unwrap();
        let conn = step.get("conn").and_then(Json::as_u32).unwrap();
        let stream = conns.entry(conn).or_insert_with(|| connect(server.addr));
        stream.write_all(field("request").as_bytes()).unwrap();
        let reply = recv_frame(stream);
        assert_eq!(
            String::from_utf8_lossy(&reply),
            field("response"),
            "trace step {i} diverged from the golden transcript"
        );
        replies.push(reply);
    }
    // Sanity: the interesting shapes actually occurred.
    assert_eq!(replies.len(), 12);
    assert_eq!(status_of(&replies[1]), 200);
    assert_eq!(status_of(&replies[6]), 404);
    assert_eq!(status_of(&replies[7]), 405);
    assert_eq!(status_of(&replies[8]), 400);
    assert_eq!(status_of(&replies[10]), 413);
    let cached = String::from_utf8_lossy(&replies[3]);
    assert!(cached.contains("\"cached\": true"), "{cached}");
}

#[test]
fn many_keepalive_connections_multiplex_on_few_threads() {
    let server = start_reactor();
    // A few hundred concurrently idle keep-alive connections — far more
    // than the shard count — all stay serviceable. (The full 10k soak
    // runs in CI where the fd ulimit is arranged.)
    let mut conns: Vec<TcpStream> = (0..200).map(|_| connect(server.addr)).collect();
    for (i, stream) in conns.iter_mut().enumerate() {
        stream
            .write_all(&frame("GET", "/models", "", false))
            .unwrap();
        let reply = recv_frame(stream);
        assert_eq!(status_of(&reply), 200, "conn {i}");
    }
    // Second round in reverse order: the connections are still alive.
    for stream in conns.iter_mut().rev() {
        stream
            .write_all(&frame("GET", "/models", "", false))
            .unwrap();
        let reply = recv_frame(stream);
        assert_eq!(status_of(&reply), 200);
    }
}
