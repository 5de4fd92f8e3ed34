//! End-to-end tests: a real daemon on an ephemeral port, raw TCP clients,
//! the full shard/dispatcher/solver/drain machinery engaged.

#![cfg(target_os = "linux")]

use perfpred_core::http::{self, HeadOutcome, Response};
use perfpred_core::{CacheOptions, Json};
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::router::App;
use perfpred_serve::{ModelHost, ReactorServer, Shutdown};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;

struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(cache: CacheOptions) -> Daemon {
        let app = App::new(
            ModelHost::paper(&cache),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(64),
            Shutdown::new(),
        );
        let server = ReactorServer::bind("127.0.0.1", 0, app, 2, 4).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = thread::spawn(move || server.run().unwrap());
        Daemon {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.request();
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
    }
}

/// One request over a fresh connection; returns (status, body).
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (resp, _) = Response::read_from(&mut stream, &mut Vec::new()).unwrap();
    (resp.status, String::from_utf8(resp.body).unwrap())
}

fn json(body: &str) -> Json {
    Json::parse(body).unwrap()
}

#[test]
fn healthz_predict_plan_and_metrics_over_the_wire() {
    let d = Daemon::start(CacheOptions::default());

    let (status, body) = call(d.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(json(&body).get("status").and_then(Json::as_str), Some("ok"));

    // An lqns miss is offloaded to a dispatcher, which solves it.
    let (status, body) = call(
        d.addr,
        "POST",
        "/predict",
        r#"{"method": "lqns", "server": "AppServF", "clients": 250}"#,
    );
    assert_eq!(status, 200, "{body}");
    let first = json(&body);
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let mrt = first
        .get("prediction")
        .and_then(|p| p.get("mrt_ms"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(mrt > 0.0);

    // Same key again: a cache hit with identical bits.
    let (status, body) = call(
        d.addr,
        "POST",
        "/predict",
        r#"{"method": "lqns", "server": "AppServF", "clients": 250}"#,
    );
    assert_eq!(status, 200);
    let second = json(&body);
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second
            .get("prediction")
            .and_then(|p| p.get("mrt_ms"))
            .and_then(Json::as_f64)
            .unwrap()
            .to_bits(),
        mrt.to_bits()
    );

    // A plan over the paper pool.
    let (status, body) = call(
        d.addr,
        "POST",
        "/plan",
        r#"{"method": "hybrid", "total_clients": 600, "slack": 1.1}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(!json(&body)
        .get("servers")
        .and_then(Json::as_arr)
        .unwrap()
        .is_empty());

    // Metrics exposition includes the endpoint counters we just bumped.
    let (status, body) = call(d.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("serve_http_requests"), "{body}");
    assert!(body.contains("predcache_"), "{body}");
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let d = Daemon::start(CacheOptions::default());
    let mut stream = TcpStream::connect(d.addr).unwrap();
    let mut buf = Vec::new();
    let body = r#"{"method": "hybrid", "clients": 80}"#;
    for i in 0..5 {
        write!(
            stream,
            "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut resp = Response::text(0, "");
        let framed = http::read_frame(&mut stream, &mut buf, |b| {
            http::parse_response_head(b, &mut resp)
        });
        let Ok(HeadOutcome::Complete(info)) = framed else {
            panic!("request {i}: no response: {framed:?}");
        };
        // Checked on the raw head: a missing `Connection` header would
        // also parse as keep-alive.
        let head = String::from_utf8_lossy(&buf[..info.head_len]).into_owned();
        assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        info.take_body(&mut buf, &mut resp.body);
        let payload = json(std::str::from_utf8(&resp.body).unwrap());
        assert_eq!(
            payload.get("cached").and_then(Json::as_bool),
            Some(i > 0),
            "request {i}"
        );
    }
}

#[test]
fn concurrent_clients_get_identical_cached_answers() {
    let d = Daemon::start(CacheOptions {
        client_quantum: 25,
        ..Default::default()
    });
    let mut handles = Vec::new();
    for t in 0..8 {
        let addr = d.addr;
        handles.push(thread::spawn(move || {
            let mut bits = Vec::new();
            for i in 0..10 {
                // Client counts within one quantum bucket: every request
                // must observe the single memoized solve for that bucket.
                let clients = 290 + ((t + i) % 10);
                let body =
                    format!(r#"{{"method": "lqns", "server": "AppServVF", "clients": {clients}}}"#);
                let (status, reply) = call(addr, "POST", "/predict", &body);
                assert_eq!(status, 200, "{reply}");
                let mrt = json(&reply)
                    .get("prediction")
                    .and_then(|p| p.get("mrt_ms"))
                    .and_then(Json::as_f64)
                    .unwrap();
                bits.push(mrt.to_bits());
            }
            bits
        }));
    }
    let mut all: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    all.dedup();
    assert_eq!(
        all.len(),
        1,
        "every quantized request must share one memoized solve"
    );
}

#[test]
fn admission_rejection_is_a_structured_503_end_to_end() {
    let d = Daemon::start(CacheOptions::default());
    let (status, body) = call(
        d.addr,
        "POST",
        "/predict",
        r#"{"method": "lqns", "server": "AppServS", "clients": 900, "goal_ms": 150}"#,
    );
    assert_eq!(status, 503, "{body}");
    let j = json(&body);
    assert_eq!(j.get("admitted").and_then(Json::as_bool), Some(false));
    assert!(j.get("predicted_mrt_ms").and_then(Json::as_f64).unwrap() > 150.0 * 0.95);
    assert_eq!(j.get("goal_ms").and_then(Json::as_f64), Some(150.0));
    assert_eq!(j.get("threshold").and_then(Json::as_f64), Some(0.05));
}

#[test]
fn post_shutdown_drains_and_joins() {
    let mut d = Daemon::start(CacheOptions::default());
    let (status, body) = call(d.addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(
        json(&body).get("draining").and_then(Json::as_bool),
        Some(true)
    );
    // run() must return on its own — join without requesting again.
    d.handle.take().unwrap().join().unwrap();
    // New connections are refused once the listener is gone.
    assert!(TcpStream::connect(d.addr).is_err());
}
