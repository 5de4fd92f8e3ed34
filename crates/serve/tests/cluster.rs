//! Three-node cluster chaos test: a primary, a designated follower and a
//! plain follower behind a `perfpred-router`, serving live load while
//! replication-level faults (connection drops, torn frames) are armed.
//! Mid-run the primary is killed; the designated follower must take over
//! under a bumped epoch, the router must rediscover the writable node,
//! availability through the router must stay ≥ 99%, the surviving nodes
//! must converge to byte-identical `/models` and `/predict` answers, and
//! the restarted old primary must come back non-writable (demoted or
//! fenced, never a second primary).
//!
//! This binary owns the whole process, so it installs the process-global
//! fault plan up front; every replication hub draws from the same plan.

#![cfg(target_os = "linux")]

use perfpred_cluster::repl::{
    rejoin_check, spawn_replicator, HubConfig, RejoinOutcome, ReplicationHub, ReplicatorConfig,
};
use perfpred_cluster::state::{ClusterState, Role};
use perfpred_cluster::{RouterConfig, RouterServer};
use perfpred_core::faults::{self, FaultPlan};
use perfpred_core::metrics;
use perfpred_core::{CacheOptions, Json};
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::http::Response;
use perfpred_serve::router::App;
use perfpred_serve::{ModelHost, ReactorServer, Shutdown};
use perfpred_store::{LogOptions, ObservationStore, RefitOptions};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const FAULT_SPEC: &str = "repl_conn_drop:p0.1,repl_partial_frame:p0.1";
const FAULT_SEED: u64 = 0x3C1D;
const CLIENTS: usize = 4;
/// Predictions answered in each load phase (before the kill, after the
/// failover) before the test moves on, so the ≥ 99% availability check
/// has a denominator the failover window cannot dominate.
const PHASE_PREDICTS: u64 = 1_000;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perfpred-serve-cluster-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn refit_opts() -> RefitOptions {
    RefitOptions {
        refit_window: 40,
        ..RefitOptions::default()
    }
}

fn hub_cfg() -> HubConfig {
    HubConfig {
        heartbeat: Duration::from_millis(50),
        io_timeout: Duration::from_secs(2),
    }
}

/// One in-process serve node: durable store, cluster state, replication
/// hub and an HTTP server wired the way `main` wires them.
struct Node {
    dir: PathBuf,
    store: Arc<ObservationStore>,
    state: Arc<ClusterState>,
    hub_addr: String,
    http_addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Node {
    fn start(name: &str, role: Role, dir: &Path) -> Node {
        let servers = perfpred_bench::context::Experiments::servers();
        let (store, _) =
            ObservationStore::open(dir, LogOptions::default(), &servers, refit_opts()).unwrap();
        let store = Arc::new(store);
        let state = Arc::new(ClusterState::new(name, role, store.epoch().unwrap_or(0), 0));
        let hub = ReplicationHub::bind(
            "127.0.0.1",
            0,
            Arc::clone(&state),
            Arc::clone(&store),
            hub_cfg(),
        )
        .unwrap();
        let host = ModelHost::paper_with_registry(&CacheOptions::default(), store.registry());
        let app = App::with_store(
            host,
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(64),
            Shutdown::new(),
            Arc::clone(&store),
        )
        .with_cluster(Arc::clone(&state));
        let server = ReactorServer::bind("127.0.0.1", 0, app, 2, 4).unwrap();
        let http_addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = thread::spawn(move || server.run().unwrap());
        Node {
            dir: dir.to_path_buf(),
            store,
            state,
            hub_addr: hub.addr().to_string(),
            http_addr,
            shutdown,
            handle: Some(handle),
        }
    }

    fn follow(&self, peers: Vec<String>, designated: bool, grace: Duration) {
        spawn_replicator(
            ReplicatorConfig {
                peers,
                grace,
                designated,
                lease_dir: self.dir.clone(),
                io_timeout: Duration::from_secs(1),
            },
            Arc::clone(&self.state),
            Arc::clone(&self.store),
        );
    }

    /// Stops the HTTP listener; the detached hub threads keep answering
    /// (with not-primary once the state is fenced), exactly like a dead
    /// process whose peers time out instead.
    fn stop_http(&mut self) {
        self.shutdown.request();
        if let Some(h) = self.handle.take() {
            h.join().unwrap();
        }
    }
}

/// One HTTP exchange over a fresh close-delimited connection.
fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .ok()?;
    let (resp, _) = Response::read_from(&mut stream, &mut Vec::new()).ok()?;
    Some((
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    ))
}

/// Calls `attempt` every `interval` until it yields a value or `timeout`
/// has passed. The only paced wait in this file: every other wait polls
/// the condition it stands for through here.
fn poll<T>(
    timeout: Duration,
    interval: Duration,
    mut attempt: impl FnMut() -> Option<T>,
) -> Option<T> {
    let start = Instant::now();
    loop {
        if let Some(found) = attempt() {
            return Some(found);
        }
        if start.elapsed() >= timeout {
            return None;
        }
        thread::sleep(interval);
    }
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let met = poll(timeout, Duration::from_millis(20), || cond().then_some(()));
    assert!(met.is_some(), "timed out waiting for {what}");
}

/// Like [`roundtrip`] but retries transport failures for a short while.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    poll(Duration::from_millis(25), Duration::from_millis(5), || {
        roundtrip(addr, method, path, body)
    })
}

/// A synthetic AppServF measurement shaped like the paper's curves,
/// cycling through client counts on both sides of the knee.
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

/// What the client threads got answered, shared so the test can wait on
/// it while the load runs.
#[derive(Default)]
struct Tally {
    predicts: AtomicU64,
    predict_ok: AtomicU64,
    observes_ok_before: AtomicU64,
    observes_ok_after: AtomicU64,
}

impl Tally {
    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// One client thread hammering the router until `stop` rises. `phase`
/// is 0 before the primary kill and 1 once the router has rediscovered a
/// writable node — observe successes are credited per phase so the test
/// can prove writes flowed both before and after failover.
fn client_loop(
    router: SocketAddr,
    t: usize,
    stop: &AtomicBool,
    phase: &AtomicUsize,
    tally: &Tally,
) {
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        if i.is_multiple_of(4) {
            let (a_n, a_mrt) = observation_point(t * 17 + i * 5);
            let (b_n, b_mrt) = observation_point(t * 17 + i * 5 + 13);
            let body = format!(
                r#"{{"batch": [{{"server": "AppServF", "clients": {a_n}, "mrt_ms": {a_mrt}}},
                     {{"server": "AppServF", "clients": {b_n}, "mrt_ms": {b_mrt}}}]}}"#,
            );
            let before = phase.load(Ordering::Relaxed) == 0;
            if let Some((200, _)) = call(router, "POST", "/observe", &body) {
                let credited = if before {
                    &tally.observes_ok_before
                } else {
                    &tally.observes_ok_after
                };
                credited.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            let clients = 50 + ((t * 31 + i * 7) % 200);
            let body =
                format!(r#"{{"method": "lqns", "server": "AppServF", "clients": {clients}}}"#);
            let failed = Tally::get(&tally.predicts) - Tally::get(&tally.predict_ok);
            tally.predicts.fetch_add(1, Ordering::Relaxed);
            match call(router, "POST", "/predict", &body) {
                Some((200, _)) => {
                    tally.predict_ok.fetch_add(1, Ordering::Relaxed);
                }
                Some((status, text)) if failed < 4 => {
                    eprintln!("predict failed: {status} {}", &text[..text.len().min(160)]);
                }
                other => {
                    if failed < 4 {
                        eprintln!("predict failed: {other:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn three_node_failover_under_faulted_replication_keeps_serving() {
    faults::install(Some(Arc::new(
        FaultPlan::parse(FAULT_SPEC, FAULT_SEED).unwrap(),
    )));

    // Deadlock watchdog: abort loudly rather than hang the harness. It
    // wakes when the test finishes (or unwinds, dropping `done`).
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(300)) {
            eprintln!("cluster test deadlocked: 300s elapsed without completing");
            std::process::abort();
        }
    });

    let dir_a = scratch("a");
    let dir_b = scratch("b");
    let dir_c = scratch("c");
    let mut node_a = Node::start("node-a", Role::Primary, &dir_a);
    let node_b = Node::start("node-b", Role::Follower, &dir_b);
    let node_c = Node::start("node-c", Role::Follower, &dir_c);
    node_b.follow(
        vec![node_a.hub_addr.clone(), node_c.hub_addr.clone()],
        true,
        Duration::from_millis(500),
    );
    node_c.follow(
        vec![node_a.hub_addr.clone(), node_b.hub_addr.clone()],
        false,
        Duration::from_secs(3600),
    );

    let router = RouterServer::bind(RouterConfig {
        upstreams: vec![
            node_a.http_addr.to_string(),
            node_b.http_addr.to_string(),
            node_c.http_addr.to_string(),
        ],
        probe_interval: Duration::from_millis(100),
        io_timeout: Duration::from_secs(5),
        ..RouterConfig::default()
    })
    .unwrap();
    let router_addr = router.local_addr();
    thread::spawn(move || router.run());

    // Wait for the prober to find the primary: the first observe that
    // answers 200 proves the write path is wired end to end.
    wait_until(
        "router to find the primary",
        Duration::from_secs(10),
        || {
            matches!(
                roundtrip(
                    router_addr,
                    "POST",
                    "/observe",
                    r#"{"batch": [{"server": "AppServF", "clients": 200, "mrt_ms": 25.0}]}"#,
                ),
                Some((200, _))
            )
        },
    );

    let stop = Arc::new(AtomicBool::new(false));
    let phase = Arc::new(AtomicUsize::new(0));
    let tally = Arc::new(Tally::default());
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let phase = Arc::clone(&phase);
            let tally = Arc::clone(&tally);
            thread::spawn(move || client_loop(router_addr, t, &stop, &phase, &tally))
        })
        .collect();

    // Let replicated load flow — predictions answered, writes accepted
    // and a refit replicated to both followers — then kill the primary
    // mid-run: fence its state (its hub stops streaming, like a dead
    // process) and stop its HTTP listener (router probes start failing).
    wait_until(
        "replicated load before the kill",
        Duration::from_secs(60),
        || {
            Tally::get(&tally.predict_ok) >= PHASE_PREDICTS
                && Tally::get(&tally.observes_ok_before) > 0
                && node_b.store.registry().version() >= 1
                && node_c.store.registry().version() >= 1
        },
    );
    node_a.state.fence();
    node_a.stop_http();

    wait_until(
        "designated follower takeover",
        Duration::from_secs(20),
        || node_b.state.role() == Role::Primary,
    );
    assert_eq!(node_b.state.epoch(), 1, "takeover bumps the epoch");
    assert!(metrics::counter("cluster.takeovers").get() >= 1);

    // The router must rediscover the writable node on its own.
    wait_until(
        "router to re-find a primary",
        Duration::from_secs(20),
        || {
            matches!(
                roundtrip(
                    router_addr,
                    "POST",
                    "/observe",
                    r#"{"batch": [{"server": "AppServF", "clients": 300, "mrt_ms": 30.0}]}"#,
                ),
                Some((200, _))
            )
        },
    );
    phase.store(1, Ordering::Relaxed);

    // Keep the load on until writes flow through the new primary and as
    // many predictions again have been answered.
    let answered_at_failover = Tally::get(&tally.predict_ok);
    wait_until(
        "load through the new primary",
        Duration::from_secs(60),
        || {
            Tally::get(&tally.observes_ok_after) >= CLIENTS as u64
                && Tally::get(&tally.predict_ok) >= answered_at_failover + PHASE_PREDICTS
        },
    );
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let (predicts, predict_ok) = (Tally::get(&tally.predicts), Tally::get(&tally.predict_ok));

    // 1. Availability through the router: ≥ 99% of predictions answered
    //    200 across the whole run, primary kill included.
    let availability = predict_ok as f64 / predicts as f64;
    assert!(
        availability >= 0.99,
        "availability {availability:.4} ({} of {})",
        predict_ok,
        predicts
    );

    // 2. Writes flowed in both regimes.
    assert!(
        Tally::get(&tally.observes_ok_before) > 0,
        "no observes before the kill"
    );
    assert!(
        Tally::get(&tally.observes_ok_after) > 0,
        "no observes after failover"
    );

    // 3. The armed replication faults actually bit, and replication still
    //    converged: C follows the new primary B to identical state.
    assert!(
        metrics::counter("cluster.injected_conn_drops").get() > 0
            || metrics::counter("cluster.injected_partial_frames").get() > 0,
        "the replication fault plan never fired"
    );
    faults::install(None); // quiesce: let convergence finish cleanly
    wait_until("C to converge to B", Duration::from_secs(60), || {
        node_c.store.log_len() == node_b.store.log_len()
            && node_c.store.registry().version() == node_b.store.registry().version()
    });
    assert_eq!(node_c.store.epoch(), Some(1), "C adopted the new epoch");

    // 4. Byte-identical serving state on the survivors: /models verbatim,
    //    and /predict verbatim (asked twice so both answers are cache
    //    hits — the steady-state path).
    let models_b = call(node_b.http_addr, "GET", "/models", "").unwrap();
    let models_c = call(node_c.http_addr, "GET", "/models", "").unwrap();
    assert_eq!(models_b, models_c, "/models must match byte for byte");
    let probe = r#"{"method": "lqns", "server": "AppServF", "clients": 333}"#;
    let _ = call(node_b.http_addr, "POST", "/predict", probe).unwrap();
    let _ = call(node_c.http_addr, "POST", "/predict", probe).unwrap();
    let predict_b = call(node_b.http_addr, "POST", "/predict", probe).unwrap();
    let predict_c = call(node_c.http_addr, "POST", "/predict", probe).unwrap();
    assert_eq!(predict_b, predict_c, "/predict must match byte for byte");

    // 5. The old primary restarts and asks the cluster before serving:
    //    whatever the outcome (clean prefix → demoted, divergent tail →
    //    fenced), it must never come back writable.
    let restarted = Arc::new(ClusterState::new(
        "node-a",
        Role::Primary,
        node_a.store.epoch().unwrap_or(0),
        0,
    ));
    let outcome = rejoin_check(
        std::slice::from_ref(&node_b.hub_addr),
        &restarted,
        &node_a.store,
    );
    assert_ne!(
        outcome,
        RejoinOutcome::Primary,
        "old primary must step down"
    );
    assert!(!restarted.is_writable());

    done.send(()).unwrap();
    watchdog.join().unwrap();
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
    std::fs::remove_dir_all(&dir_c).unwrap();
}

/// A follower's historical answers must follow refits that reach it by
/// replication, not only the ones its own `/observe` handler publishes:
/// the same `/predict`, asked before and after a replicated refit, must
/// come back from the new model — bit-equal to the primary's answer.
#[test]
fn follower_historical_answers_follow_replicated_refits() {
    let dir_a = scratch("refit-primary");
    let dir_b = scratch("refit-follower");
    let mut node_a = Node::start("refit-a", Role::Primary, &dir_a);
    let mut node_b = Node::start("refit-b", Role::Follower, &dir_b);
    node_b.follow(
        vec![node_a.hub_addr.clone()],
        false,
        Duration::from_secs(3600),
    );

    // One refit window of AppServF measurements, scaled by `scale`.
    let observe = |offset: usize, scale: f64| {
        let batch: Vec<String> = (0..refit_opts().refit_window)
            .map(|k| {
                let (n, mrt) = observation_point(offset + k);
                format!(
                    r#"{{"server": "AppServF", "clients": {n}, "mrt_ms": {}}}"#,
                    mrt * scale
                )
            })
            .collect();
        let body = format!(r#"{{"batch": [{}]}}"#, batch.join(", "));
        let (status, text) = call(node_a.http_addr, "POST", "/observe", &body).unwrap();
        assert_eq!(status, 200, "{text}");
    };
    let replicated = |what: &str| {
        wait_until(what, Duration::from_secs(60), || {
            node_b.store.log_len() == node_a.store.log_len()
                && node_b.store.registry().version() == node_a.store.registry().version()
        });
        node_a.store.registry().version()
    };
    let probe = r#"{"method": "historical", "server": "AppServF", "clients": 700}"#;
    let mrt_ms = |node: &Node| {
        let (status, text) = call(node.http_addr, "POST", "/predict", probe).unwrap();
        assert_eq!(status, 200, "{text}");
        Json::parse(&text)
            .unwrap()
            .get("prediction")
            .and_then(|p| p.get("mrt_ms"))
            .and_then(Json::as_f64)
            .unwrap()
    };

    observe(0, 1.0);
    let first = replicated("the first model to replicate");
    // 1. The follower answers (and caches) from the first model.
    let before = mrt_ms(&node_b);
    assert_eq!(before.to_bits(), mrt_ms(&node_a).to_bits());
    // 2. A refit on a shifted curve reaches the follower by replication.
    observe(7, 1.6);
    assert!(replicated("the refit to replicate") > first);
    // 3. The same question again.
    let primary = mrt_ms(&node_a);
    assert_ne!(
        primary.to_bits(),
        before.to_bits(),
        "the refit must move the answer for this test to mean anything"
    );
    assert_eq!(
        mrt_ms(&node_b).to_bits(),
        primary.to_bits(),
        "the follower answered from a superseded model"
    );

    node_a.stop_http();
    node_b.stop_http();
    std::fs::remove_dir_all(&dir_a).unwrap();
    std::fs::remove_dir_all(&dir_b).unwrap();
}
