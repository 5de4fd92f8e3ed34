//! Chaos test: a real daemon with fault injection armed — solver delays,
//! accept resets, mid-stream connection resets and store I/O errors all
//! firing at once — stays
//! available through degraded serving, never emits a malformed HTTP
//! response, never deadlocks, and recovers its durable state
//! byte-identically after a restart.
//!
//! This binary owns the whole process, so it installs the process-global
//! fault plan up front; everything (event loop, solves, store) reads the
//! same plan.

#![cfg(target_os = "linux")]

use perfpred_core::faults::{self, FaultPlan};
use perfpred_core::metrics::{self, names};
use perfpred_core::{CacheOptions, Json};
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::http::Response;
use perfpred_serve::router::App;
use perfpred_serve::{ModelHost, ReactorServer, Shutdown};
use perfpred_store::{LogOptions, ObservationStore, RefitOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const CHAOS_SPEC: &str =
    "solver_delay=40ms:p0.35,accept_reset=p0.1,store_io_err=p0.25,conn_reset=p0.03";
const CHAOS_SEED: u64 = 42;
const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 50;
const MAX_ATTEMPTS: usize = 6;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfpred-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn refit_opts() -> RefitOptions {
    RefitOptions {
        refit_window: 30,
        ..RefitOptions::default()
    }
}

struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    handle: Option<thread::JoinHandle<()>>,
    store: Arc<ObservationStore>,
}

impl Daemon {
    /// Starts a daemon over the durable store in `dir`, shaped like
    /// `main` wires it: paper models sharing the store's registry, a
    /// deliberately shallow dispatch queue, and a tight default deadline
    /// so injected solver delays actually blow budgets.
    fn start(dir: &std::path::Path) -> Daemon {
        let servers = perfpred_bench::context::Experiments::servers();
        let (store, _report) =
            ObservationStore::open(dir, LogOptions::default(), &servers, refit_opts()).unwrap();
        let store = Arc::new(store);
        let host = ModelHost::paper_with_registry(&CacheOptions::default(), store.registry());
        let mut app = App::with_store(
            host,
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(8),
            Shutdown::new(),
            Arc::clone(&store),
        );
        app.deadline = Duration::from_millis(200);
        let server = ReactorServer::bind("127.0.0.1", 0, app, 2, 4).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        Daemon {
            addr,
            shutdown,
            handle: Some(thread::spawn(move || server.run().unwrap())),
            store,
        }
    }

    fn stop(&mut self) {
        self.shutdown.request();
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One HTTP exchange over a fresh connection.
enum Reply {
    /// A well-formed response: status and body.
    Http(u16, String),
    /// The connection died before any bytes arrived (injected accept or
    /// connection reset, overload shed) — retryable, not a protocol
    /// violation.
    Transport,
    /// Bytes arrived that are not an HTTP/1.1 response — the failure the
    /// whole test exists to rule out.
    Malformed(String),
}

fn attempt(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return Reply::Transport,
    };
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    if write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .is_err()
    {
        return Reply::Transport;
    }
    // The first bytes are judged before framing, so a reset after some
    // bytes still counts what arrived: the server must never have emitted
    // anything but an HTTP/1.1 status line.
    let mut buf = Vec::new();
    let _ = (&mut stream).take(9).read_to_end(&mut buf);
    if buf.is_empty() {
        return Reply::Transport;
    }
    let prefix = |buf: &[u8]| String::from_utf8_lossy(&buf[..buf.len().min(120)]).into_owned();
    if !buf.starts_with(b"HTTP/1.1 ") {
        return Reply::Malformed(prefix(&buf));
    }
    // The shared codec frames the rest from those buffered bytes on; a
    // frame that started well but does not parse or ends early is
    // malformed too.
    match Response::read_from(&mut stream, &mut buf) {
        Ok((resp, _)) => Reply::Http(
            resp.status,
            String::from_utf8_lossy(&resp.body).into_owned(),
        ),
        Err(e) => Reply::Malformed(format!("{e}: {}", prefix(&buf))),
    }
}

/// Retries transport failures; returns the first real response, if any.
fn call_with_retries(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    malformed: &mut Vec<String>,
) -> Option<(u16, String)> {
    for _ in 0..MAX_ATTEMPTS {
        match attempt(addr, method, path, body) {
            Reply::Http(status, body) => return Some((status, body)),
            Reply::Transport => thread::sleep(Duration::from_millis(2)),
            Reply::Malformed(prefix) => {
                malformed.push(prefix);
                return None;
            }
        }
    }
    None
}

/// A synthetic AppServF measurement shaped like the paper's curves:
/// exponential MRT growth below saturation, linear above, cycling through
/// client counts on both sides of the knee (n* ≈ 1306).
fn observation_point(k: usize) -> (u32, f64) {
    let n_star = 186.0 * 7_020.0 / 1_000.0;
    let frac = 0.15 + 1.45 * ((k % 29) as f64) / 28.0;
    let n = (frac * n_star).round().max(1.0);
    let mrt = if frac < 1.0 {
        20.0 * (1.8 * frac).exp()
    } else {
        (7.0 * n / 1.3 - 6_000.0).max(100.0)
    };
    (n as u32, mrt)
}

#[derive(Default)]
struct ClientTally {
    predicts: u64,
    predict_ok: u64,
    degraded: u64,
    observes: u64,
    observe_ok: u64,
    observe_io_failed: u64,
    malformed: Vec<String>,
}

fn client_loop(addr: SocketAddr, t: usize) -> ClientTally {
    let mut tally = ClientTally::default();
    for i in 0..REQUESTS_PER_CLIENT {
        if i % 3 == 0 {
            // Observation intake: exercises the injected store I/O fault.
            // Points span both sides of the AppServF saturation knee so
            // the refitter can establish its two-regime fit and publish.
            let (a_n, a_mrt) = observation_point(t * 17 + i * 5);
            let (b_n, b_mrt) = observation_point(t * 17 + i * 5 + 13);
            let body = format!(
                r#"{{"batch": [{{"server": "AppServF", "clients": {a_n}, "mrt_ms": {a_mrt}}},
                     {{"server": "AppServF", "clients": {b_n}, "mrt_ms": {b_mrt}}}]}}"#,
            );
            tally.observes += 1;
            match call_with_retries(addr, "POST", "/observe", &body, &mut tally.malformed) {
                Some((200, _)) => tally.observe_ok += 1,
                Some((500, body)) if body.contains("injected store I/O fault") => {
                    // The fault surfaced as a structured 500, exactly as a
                    // real disk error would.
                    tally.observe_io_failed += 1;
                }
                Some((status, body)) => panic!("observe answered {status}: {body}"),
                None => {}
            }
        } else {
            // Layered-queuing predictions; fresh client counts keep the
            // dispatchers solving, and a slice of them carry a budget so
            // tight an injected solver delay forces the degraded path.
            let clients = 50 + ((t * 31 + i * 7) % 400);
            let deadline = if i % 4 == 1 { 1 } else { 0 };
            let body = format!(
                r#"{{"method": "lqns", "server": "AppServF", "clients": {clients}, "deadline_ms": {deadline}}}"#
            );
            tally.predicts += 1;
            match call_with_retries(addr, "POST", "/predict", &body, &mut tally.malformed) {
                Some((200, body)) => {
                    tally.predict_ok += 1;
                    let j = Json::parse(&body).expect("predict bodies must be valid JSON");
                    match j.get("mode").and_then(Json::as_str) {
                        Some("normal") => {}
                        Some("degraded") => tally.degraded += 1,
                        other => panic!("unexpected mode {other:?} in {body}"),
                    }
                    assert!(
                        j.get("prediction").is_some(),
                        "every 200 carries a prediction: {body}"
                    );
                }
                Some((status, body)) => panic!("predict answered {status}: {body}"),
                None => {}
            }
        }
    }
    tally
}

/// Fans out the client workload against one daemon and aggregates.
fn run_clients(addr: SocketAddr) -> ClientTally {
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| thread::spawn(move || client_loop(addr, t)))
        .collect();
    let mut total = ClientTally::default();
    for h in handles {
        let t = h.join().unwrap();
        total.predicts += t.predicts;
        total.predict_ok += t.predict_ok;
        total.degraded += t.degraded;
        total.observes += t.observes;
        total.observe_ok += t.observe_ok;
        total.observe_io_failed += t.observe_io_failed;
        total.malformed.extend(t.malformed);
    }
    total
}

/// The whole chaos scenario in one test so the process-global fault plan
/// has a single owner.
#[test]
fn chaos_run_stays_available_wellformed_and_recovers_byte_identically() {
    faults::install(Some(Arc::new(
        FaultPlan::parse(CHAOS_SPEC, CHAOS_SEED).unwrap(),
    )));
    let dir = scratch("run");

    // Deadlock watchdog: the client loops bound every read with a timeout
    // and every request with a retry cap, so a hung daemon surfaces as
    // failed assertions — but a deadlocked shutdown would still hang the
    // harness. Abort loudly instead. It wakes when the test finishes (or
    // unwinds, dropping `done`).
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(300)) {
            eprintln!("chaos test deadlocked: 300s elapsed without completing");
            std::process::abort();
        }
    });

    let mut daemon = Daemon::start(&dir);
    let store = Arc::clone(&daemon.store);

    let total = run_clients(daemon.addr);

    // 1. Protocol integrity: every byte stream the server produced was an
    //    HTTP/1.1 response, under resets, floods of fresh connections and
    //    injected faults.
    assert!(
        total.malformed.is_empty(),
        "malformed responses: {:?}",
        total.malformed
    );

    // 2. Availability: /predict answers 200 at least 99% of the time —
    //    blown budgets fall back to degraded serving instead of failing.
    let availability = total.predict_ok as f64 / total.predicts as f64;
    assert!(
        availability >= 0.99,
        "predict availability {availability:.4} ({} of {})",
        total.predict_ok,
        total.predicts
    );

    // 3. The chaos actually happened: faults fired — mid-stream
    //    connection resets included — and the degraded path served real
    //    traffic.
    assert!(
        total.degraded > 0,
        "no degraded responses — the fault plan never bit"
    );
    assert!(
        total.observe_io_failed > 0,
        "no injected store I/O errors surfaced"
    );
    assert!(
        metrics::counter(names::SERVE_DEGRADED_TOTAL).get() > 0
            && metrics::counter(names::STORE_INJECTED_IO_ERRORS_TOTAL).get() > 0,
        "fault metrics must record the injections"
    );
    assert!(
        total.observe_ok > 0,
        "some observation batches must have landed"
    );
    assert!(
        metrics::counter("serve.faults.conn_reset").get() > 0,
        "the conn_reset site never fired"
    );

    // 4. Byte-identical recovery: reopen the log a failed-batch-riddled
    //    run produced; the replayed registry must equal the live one.
    store.sync().unwrap();
    let version_before = store.registry().version();
    let model_before = store.current_model_serialized();
    let log_len = store.log_len().unwrap();
    assert!(version_before >= 1, "ingest volume must have refitted");
    // 5. Graceful drain: stop() joins run(), which hangs (and trips the
    //    watchdog) if any shard or dispatcher fails to exit.
    daemon.stop();
    drop(daemon);
    drop(store);

    let servers = perfpred_bench::context::Experiments::servers();
    let (replayed, report) =
        ObservationStore::open(&dir, LogOptions::default(), &servers, refit_opts()).unwrap();
    assert_eq!(report.torn_bytes, 0, "failed batches must not tear the log");
    assert_eq!(report.records, log_len);
    assert_eq!(replayed.registry().version(), version_before);
    assert_eq!(replayed.current_model_serialized(), model_before);
    drop(replayed);

    drop(done);
    watchdog.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
