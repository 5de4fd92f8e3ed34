//! The router front tier: one `perfpred-router` in front of N serve
//! nodes.
//!
//! Requests are routed on the consistent-hash [`Ring`] keyed by the
//! *server-config name* in the request body (`"server": "AppServF"`),
//! so each serve node keeps a warm prediction cache for the configs it
//! owns; bounded-load spill keeps a hot config from melting one node.
//! `POST /observe` ignores the ring and always goes to the current
//! primary (the only writable node — see [`crate::repl`]); everything
//! else fans out across admitted replicas.
//!
//! Health: a prober thread GETs `/healthz` on every upstream each
//! interval. The response carries `model_version` and `cluster_role`
//! (one request answers liveness, staleness and who-is-primary at
//! once). Three consecutive failures eject an upstream; readmission
//! requires the jittered exponential backoff to expire *and* a probe to
//! succeed. An upstream whose model version trails the fleet maximum by
//! more than `max_version_lag` is treated as unhealthy — it would serve
//! predictions from a stale model.
//!
//! Client connections run on the workspace's one event loop
//! ([`perfpred_core::reactor`]), like serve's: a fixed set of shard and
//! dispatcher threads whatever the number of clients. The router's own
//! endpoints (`/router/status`, `/metrics`) answer on the shards;
//! forwards and `/admin/upstreams` run on the dispatchers, each forward
//! over a keep-alive connection checked out of the upstream's pool.

#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use crate::ring::Ring;
use perfpred_core::http::{Request, Response};
use perfpred_core::shutdown::Shutdown;
use perfpred_core::{metrics, Json};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen host.
    pub host: String,
    /// Listen port (0 = ephemeral).
    pub port: u16,
    /// Upstream serve nodes, as `host:port` strings.
    pub upstreams: Vec<String>,
    /// Virtual nodes per upstream on the hash ring.
    pub vnodes: usize,
    /// Bounded-load factor `c` (≤ 1.0 disables spill).
    pub load_factor: f64,
    /// Health probe cadence.
    pub probe_interval: Duration,
    /// Consecutive probe failures before eject.
    pub eject_after: u32,
    /// Model versions an upstream may trail the fleet max before it is
    /// considered stale (and ejected from reads).
    pub max_version_lag: u64,
    /// Per-request upstream I/O timeout.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            host: "127.0.0.1".into(),
            port: 0,
            upstreams: Vec::new(),
            vnodes: 64,
            load_factor: 1.25,
            probe_interval: Duration::from_millis(200),
            eject_after: 3,
            max_version_lag: 8,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// Mutable health view of one upstream.
#[derive(Debug)]
struct Health {
    admitted: bool,
    consecutive_failures: u32,
    /// While `Some`, the upstream is ejected until this instant.
    ejected_until: Option<Instant>,
    backoff_exp: u32,
    is_primary: bool,
    probes_failed: u64,
}

/// One upstream serve node: address, health, load and connection pool.
#[derive(Debug)]
struct Upstream {
    addr: String,
    health: Mutex<Health>,
    model_version: AtomicU64,
    in_flight: AtomicUsize,
    pool: Mutex<VecDeque<TcpStream>>,
}

/// Dispatcher threads forwarding requests; each blocks on one upstream
/// exchange at a time.
const DISPATCHERS: usize = 32;
/// Requests waiting for a dispatcher; overflow is answered 503.
const DISPATCH_QUEUE: usize = 1024;
/// Idle connections pooled per upstream: one per dispatcher, so steady
/// load never reconnects.
const POOL_IDLE_MAX: usize = DISPATCHERS;
const BACKOFF_BASE: Duration = Duration::from_millis(500);
const BACKOFF_CAP: Duration = Duration::from_secs(15);

impl Upstream {
    fn new(addr: &str) -> Upstream {
        Upstream {
            addr: addr.to_string(),
            health: Mutex::new(Health {
                admitted: true,
                consecutive_failures: 0,
                ejected_until: None,
                backoff_exp: 0,
                is_primary: false,
                probes_failed: 0,
            }),
            model_version: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            pool: Mutex::new(VecDeque::new()),
        }
    }

    fn checkout(&self, timeout: Duration) -> io::Result<TcpStream> {
        if let Some(conn) = self.pool.lock().unwrap().pop_front() {
            return Ok(conn);
        }
        let addr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable upstream")
            })?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(stream)
    }

    fn checkin(&self, conn: TcpStream) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_IDLE_MAX {
            pool.push_back(conn);
        }
    }

    /// Transport-level failure seen by forwarding: counts toward eject.
    fn note_failure(&self, eject_after: u32) {
        let mut h = self.health.lock().unwrap();
        h.consecutive_failures += 1;
        if h.admitted && h.consecutive_failures >= eject_after {
            h.admitted = false;
            let exp = h.backoff_exp.min(5);
            let base = BACKOFF_BASE.as_millis() as u64 * (1u64 << exp);
            // Deterministic jitter (±25%) from the address hash and the
            // eject count, so restarted upstreams don't thunder back in
            // lock-step.
            let salt = crate::ring::fnv1a64(self.addr.as_bytes()) ^ u64::from(h.backoff_exp);
            let jitter = (base / 4).max(1);
            let backoff =
                Duration::from_millis(base - jitter / 2 + (salt % jitter)).min(BACKOFF_CAP);
            h.ejected_until = Some(Instant::now() + backoff);
            h.backoff_exp += 1;
            metrics::counter("router.ejects").incr();
        }
    }

    fn note_success(&self) {
        let mut h = self.health.lock().unwrap();
        h.consecutive_failures = 0;
        if !h.admitted {
            h.admitted = true;
            h.ejected_until = None;
            h.backoff_exp = 0;
            metrics::counter("router.readmits").incr();
        }
    }
}

/// One immutable routing generation: the ring plus the upstream set it
/// was built from. `POST /admin/upstreams` builds a fresh `Topology` and
/// swaps the shared `Arc` — every in-flight request keeps routing (and
/// retrying) against the snapshot it captured at arrival, so a swap can
/// neither double-send a request across generations nor strand it
/// against a half-updated ring.
#[derive(Debug)]
struct Topology {
    ring: Ring,
    upstreams: Vec<Arc<Upstream>>,
}

impl Topology {
    /// Indices admitted for reads, honoring ejection windows + staleness.
    /// The staleness baseline is the max version among *health-admitted*
    /// upstreams: a dead node's last probed version is frozen in time and
    /// must not hold the survivors to a bar none of them can reach until
    /// the new primary has refitted past the ghost.
    fn admitted(&self, max_version_lag: u64) -> Vec<bool> {
        let views: Vec<(bool, u64)> = self
            .upstreams
            .iter()
            .map(|u| {
                let h = u.health.lock().unwrap();
                (h.admitted, u.model_version.load(Ordering::Relaxed))
            })
            .collect();
        let max_version = views
            .iter()
            .filter(|(alive, _)| *alive)
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0);
        views
            .into_iter()
            .map(|(alive, v)| alive && max_version.saturating_sub(v) <= max_version_lag)
            .collect()
    }

    fn loads(&self) -> Vec<usize> {
        self.upstreams
            .iter()
            .map(|u| u.in_flight.load(Ordering::Relaxed))
            .collect()
    }
}

/// Shared router state: the current topology generation plus counters.
#[derive(Debug)]
pub struct RouterState {
    topology: RwLock<Arc<Topology>>,
    cfg: RouterConfig,
    started: Instant,
    requests: AtomicU64,
    forward_errors: AtomicU64,
    topology_swaps: AtomicU64,
}

impl RouterState {
    fn new(cfg: RouterConfig) -> Arc<RouterState> {
        let upstreams = cfg
            .upstreams
            .iter()
            .map(|a| Arc::new(Upstream::new(a)))
            .collect();
        Arc::new(RouterState {
            topology: RwLock::new(Arc::new(Topology {
                ring: Ring::new(&cfg.upstreams, cfg.vnodes, cfg.load_factor),
                upstreams,
            })),
            cfg: cfg.clone(),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            topology_swaps: AtomicU64::new(0),
        })
    }

    /// Captures the current topology generation (one `Arc` clone under a
    /// read lock held for nanoseconds).
    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read().unwrap())
    }

    /// Atomically replaces the upstream set: a fresh ring over `addrs`,
    /// reusing the live [`Upstream`] (health, pools, in-flight counts)
    /// for every address that survives the swap so an unchanged node
    /// keeps its probe history and warm connections. Returns the new
    /// generation number.
    fn reload_upstreams(&self, addrs: &[String]) -> io::Result<u64> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "upstream set must not be empty",
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for a in addrs {
            if !seen.insert(a.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate upstream '{a}'"),
                ));
            }
        }
        let current = self.topology();
        let upstreams = addrs
            .iter()
            .map(|a| {
                current
                    .upstreams
                    .iter()
                    .find(|u| u.addr == *a)
                    .map_or_else(|| Arc::new(Upstream::new(a)), Arc::clone)
            })
            .collect();
        let next = Arc::new(Topology {
            ring: Ring::new(addrs, self.cfg.vnodes, self.cfg.load_factor),
            upstreams,
        });
        *self.topology.write().unwrap() = next;
        metrics::counter("router.topology_swaps").incr();
        Ok(self.topology_swaps.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// The `/router/status` document.
    fn status_json(&self) -> Json {
        let topo = self.topology();
        let mut m = Json::obj();
        m.set("uptime_s", self.started.elapsed().as_secs_f64());
        m.set("requests", self.requests.load(Ordering::Relaxed));
        m.set(
            "forward_errors",
            self.forward_errors.load(Ordering::Relaxed),
        );
        m.set(
            "topology_swaps",
            self.topology_swaps.load(Ordering::Relaxed),
        );
        let admitted = topo.admitted(self.cfg.max_version_lag);
        let mut list = Vec::new();
        for (i, u) in topo.upstreams.iter().enumerate() {
            let h = u.health.lock().unwrap();
            let mut o = Json::obj();
            o.set("addr", u.addr.as_str());
            o.set("admitted", admitted[i]);
            o.set("primary", h.is_primary);
            o.set("model_version", u.model_version.load(Ordering::Relaxed));
            o.set("in_flight", u.in_flight.load(Ordering::Relaxed));
            o.set("consecutive_failures", u64::from(h.consecutive_failures));
            o.set("probes_failed", h.probes_failed);
            list.push(o);
        }
        m.set("upstreams", list);
        m
    }
}

/// The bound router: the event loop plus a prober thread.
#[cfg(target_os = "linux")]
pub struct RouterServer {
    reactor: perfpred_core::reactor::Reactor,
    state: Arc<RouterState>,
    shutdown: Arc<Shutdown>,
    prober: std::thread::JoinHandle<()>,
}

#[cfg(target_os = "linux")]
impl RouterServer {
    /// Binds the listen socket and starts the health prober.
    pub fn bind(cfg: RouterConfig) -> io::Result<RouterServer> {
        if cfg.upstreams.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one --upstreams entry",
            ));
        }
        let mut reactor = perfpred_core::reactor::Reactor::bind(&cfg.host, cfg.port, "router")?;
        reactor.shards = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .clamp(1, 4);
        reactor.dispatchers = DISPATCHERS;
        reactor.queue_depth = DISPATCH_QUEUE;
        // Registered up front so a scrape shows them at 0 before the
        // first eject, readmit or retry.
        for name in ["router.ejects", "router.readmits", "router.forward_retries"] {
            metrics::counter(name);
        }
        let state = RouterState::new(cfg);
        let shutdown = Shutdown::new();
        let (probed, stop) = (Arc::clone(&state), Arc::clone(&shutdown));
        let prober = std::thread::Builder::new()
            .name("router-probe".into())
            .spawn(move || {
                while !stop.requested() {
                    probe_all(&probed);
                    std::thread::sleep(probed.cfg.probe_interval);
                }
            })?;
        Ok(RouterServer {
            reactor,
            state,
            shutdown,
            prober,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.reactor.local_addr()
    }

    /// The token that stops this router (SIGTERM and SIGINT set it too,
    /// once `install_signal_handlers` has run).
    pub fn shutdown_handle(&self) -> Arc<Shutdown> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until shutdown is requested, then drains: no new
    /// connections, in-flight forwards answered, idle connections closed,
    /// and the prober stopped.
    pub fn run(self) -> io::Result<()> {
        let served = self.reactor.run(self.state, &self.shutdown);
        self.shutdown.request(); // a failed start must stop the prober too
        if self.prober.join().is_err() {
            return Err(io::Error::other("the health prober panicked"));
        }
        served
    }
}

/// One probe round: GET /healthz on every upstream of the current
/// topology generation (an upstream removed mid-round still gets its
/// last probe — harmless, its `Arc` dies when the round ends).
fn probe_all(state: &RouterState) {
    let topo = state.topology();
    for u in &topo.upstreams {
        // Respect the ejection window: no probe until backoff expires.
        {
            let h = u.health.lock().unwrap();
            if let Some(until) = h.ejected_until {
                if Instant::now() < until {
                    continue;
                }
            }
        }
        match probe_one(u, Duration::from_millis(750)) {
            Ok((version, is_primary)) => {
                u.model_version.store(version, Ordering::Relaxed);
                let mut h = u.health.lock().unwrap();
                h.is_primary = is_primary;
                drop(h);
                u.note_success();
            }
            Err(_) => {
                let mut h = u.health.lock().unwrap();
                h.probes_failed += 1;
                h.is_primary = false;
                drop(h);
                u.note_failure(state.cfg.eject_after);
            }
        }
    }
}

/// GET /healthz on one upstream; returns (model_version, is_primary).
fn probe_one(u: &Upstream, timeout: Duration) -> io::Result<(u64, bool)> {
    let conn = u.checkout(timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    let resp = exchange(u, conn, "GET", "/healthz", b"")?;
    if resp.status != 200 {
        return Err(io::Error::other(format!("healthz status {}", resp.status)));
    }
    let body = String::from_utf8_lossy(&resp.body);
    let doc = Json::parse(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("healthz: {e}")))?;
    let version = doc
        .get("model_version")
        .and_then(Json::as_f64)
        .map_or(0, |v| v as u64);
    let role = doc
        .get("cluster_role")
        .and_then(Json::as_str)
        .unwrap_or("primary"); // single-node daemons are writable
    Ok((version, role == "primary"))
}

/// One request/response exchange with an upstream on a checked-out
/// connection, which goes back to the pool when the upstream keeps it
/// open and sent nothing past the response. A stale pooled connection
/// (closed by the upstream between requests) surfaces as an error and the
/// caller retries on a fresh one.
fn exchange(
    u: &Upstream,
    mut conn: TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<Response> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        u.addr,
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    conn.write_all(&out)?;
    let mut buf = Vec::new();
    let (resp, keep_alive) = Response::read_from(&mut conn, &mut buf)?;
    if keep_alive && buf.is_empty() {
        u.checkin(conn);
    }
    Ok(resp)
}

/// Extracts the consistent-hash key: the `server` field of a JSON body,
/// falling back to the path for body-less requests.
fn hash_key(req: &Request) -> String {
    if !req.body.is_empty() {
        if let Ok(doc) = Json::parse(&String::from_utf8_lossy(&req.body)) {
            if let Some(server) = doc.get("server").and_then(Json::as_str) {
                return server.to_string();
            }
        }
    }
    req.path.clone()
}

#[cfg(target_os = "linux")]
impl perfpred_core::reactor::Handler for RouterState {
    /// The router's own endpoints answer on the shard; forwards and
    /// topology swaps decline to the dispatchers.
    fn try_handle(&self, req: &Request, _arrival: Instant) -> Option<Response> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match (req.path.as_str(), req.method.as_str()) {
            (path, _) if !path.starts_with('/') => Some(Response::error(400, "malformed request")),
            ("/router/status", "GET") => Some(Response::json(200, &self.status_json())),
            ("/metrics", "GET") => {
                Some(Response::text(200, metrics::snapshot().render_exposition()))
            }
            ("/router/status" | "/metrics", _) => Some(Response::method_not_allowed("GET")),
            ("/admin/upstreams", "POST") => None,
            ("/admin/upstreams", _) => Some(Response::method_not_allowed("POST")),
            _ => None,
        }
    }

    fn handle_at(&self, req: &Request, _arrival: Instant) -> Response {
        if req.path == "/admin/upstreams" {
            return admin_upstreams(self, &req.body);
        }
        forward_with_retries(self, req).unwrap_or_else(|| {
            self.forward_errors.fetch_add(1, Ordering::Relaxed);
            Response::error(503, "no healthy upstream")
        })
    }
}

/// `POST /admin/upstreams`: replace the routed upstream set at runtime.
/// Body: `{"upstreams": ["host:port", ...]}`. Surviving addresses keep
/// their health state and connection pools; the swap is atomic and
/// in-flight requests finish on the topology they started on.
fn admin_upstreams(state: &RouterState, body: &[u8]) -> Response {
    let doc = match Json::parse(&String::from_utf8_lossy(body)) {
        Ok(d) => d,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let Some(list) = doc.get("upstreams").and_then(Json::as_arr) else {
        return Response::error(400, "need an 'upstreams' array");
    };
    let mut addrs = Vec::with_capacity(list.len());
    for item in list {
        match item.as_str() {
            Some(s) if !s.trim().is_empty() => addrs.push(s.trim().to_string()),
            _ => return Response::error(400, "'upstreams' entries must be non-empty strings"),
        }
    }
    match state.reload_upstreams(&addrs) {
        Ok(generation) => {
            let mut out = Json::obj();
            out.set(
                "upstreams",
                Json::Arr(addrs.iter().map(|a| Json::from(a.as_str())).collect()),
            );
            out.set("generation", generation);
            Response::json(200, &out)
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Picks upstreams (primary for writes, ring for reads) and forwards,
/// trying up to three distinct upstreams on transport failure. The whole
/// attempt chain runs against one topology snapshot captured at entry:
/// a concurrent `/admin/upstreams` swap cannot re-route attempt two onto
/// a node that already saw attempt one, and cannot shrink `tried` under
/// the loop.
fn forward_with_retries(state: &RouterState, req: &Request) -> Option<Response> {
    let topo = state.topology();
    let is_write = req.method == "POST" && req.path == "/observe";
    let mut tried = vec![false; topo.upstreams.len()];
    for _attempt in 0..3 {
        let idx = if is_write {
            // Writes go to the primary, wherever it currently is.
            topo.upstreams
                .iter()
                .enumerate()
                .position(|(i, u)| !tried[i] && u.health.lock().unwrap().is_primary)?
        } else {
            let mut admitted = topo.admitted(state.cfg.max_version_lag);
            for (i, t) in tried.iter().enumerate() {
                if *t {
                    admitted[i] = false;
                }
            }
            topo.ring.route(&hash_key(req), &admitted, &topo.loads())?
        };
        tried[idx] = true;
        let u = &topo.upstreams[idx];
        u.in_flight.fetch_add(1, Ordering::Relaxed);
        let result = u
            .checkout(state.cfg.io_timeout)
            .and_then(|conn| exchange(u, conn, &req.method, &req.path, &req.body));
        u.in_flight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(resp) => {
                u.note_success();
                return Some(resp);
            }
            Err(_) => {
                metrics::counter("router.forward_retries").incr();
                u.note_failure(state.cfg.eject_after);
            }
        }
    }
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use perfpred_core::http::{self, HeadOutcome, MAX_HEADERS, MAX_HEAD_BYTES};
    use std::io::Read;
    use std::net::TcpListener;

    /// Paths (as `"METHOD /path"`) a stub upstream answered, `/healthz`
    /// probes excluded.
    type Seen = Arc<Mutex<Vec<String>>>;

    /// An in-process upstream speaking the shared codec: `/healthz`
    /// reports `model_version` and `cluster_role`, everything else echoes
    /// and is recorded.
    fn stub_upstream(model_version: u64, role: &'static str) -> (String, Seen) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let seen = Seen::default();
        let record = Arc::clone(&seen);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut stream) = conn else { break };
                let record = Arc::clone(&record);
                std::thread::spawn(move || {
                    let (mut buf, mut req, mut out) = (Vec::new(), Request::default(), Vec::new());
                    while let Ok(HeadOutcome::Complete(info)) =
                        http::read_frame(&mut stream, &mut buf, |b| http::parse_head(b, &mut req))
                    {
                        info.take_body(&mut buf, &mut req.body);
                        let mut doc = Json::obj();
                        if req.path == "/healthz" {
                            doc.set("model_version", model_version);
                            doc.set("cluster_role", role);
                        } else {
                            let line = format!("{} {}", req.method, req.path);
                            doc.set("echo", line.as_str());
                            record.lock().unwrap().push(line);
                        }
                        out.clear();
                        Response::json(200, &doc).write_into(&mut out, true);
                        if stream.write_all(&out).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, seen)
    }

    fn start_router(cfg: RouterConfig) -> String {
        let server = RouterServer::bind(RouterConfig {
            probe_interval: Duration::from_millis(50),
            ..cfg
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());
        addr
    }

    /// Writes `raw` on a fresh connection and reads one response.
    fn send(addr: &str, raw: &[u8]) -> (u16, String, TcpStream) {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(raw).unwrap();
        let (resp, _) = Response::read_from(&mut conn, &mut Vec::new()).unwrap();
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        (resp.status, body, conn)
    }

    fn get(addr: &str, path: &str) -> (u16, String) {
        let raw = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
        let (status, body, _) = send(addr, raw.as_bytes());
        (status, body)
    }

    fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let (status, body, _) = send(addr, raw.as_bytes());
        (status, body)
    }

    /// Polls `/router/status` until `ready` holds — readiness, not a
    /// fixed sleep standing in for the prober.
    fn wait_status(addr: &str, what: &str, ready: impl Fn(&[Json]) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, body) = get(addr, "/router/status");
            let doc = Json::parse(&body).unwrap();
            if ready(doc.get("upstreams").and_then(Json::as_arr).unwrap()) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}: {body}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Every upstream has answered a probe (the stubs report versions ≥ 1),
    /// so roles and versions are known.
    fn probed(ups: &[Json]) -> bool {
        ups.iter()
            .all(|u| u.get("model_version").and_then(Json::as_f64) > Some(0.0))
    }

    #[test]
    fn routes_reads_and_reports_status() {
        let (a, _) = stub_upstream(5, "primary");
        let (b, _) = stub_upstream(5, "follower");
        let addr = start_router(RouterConfig {
            upstreams: vec![a, b],
            ..RouterConfig::default()
        });
        wait_status(&addr, "roles", probed);

        let (status, body) = get(&addr, "/models");
        assert_eq!(status, 200);
        assert!(body.contains("GET /models"), "{body}");
        let (status, body) = get(&addr, "/router/status");
        assert_eq!(status, 200);
        assert!(body.contains("\"primary\": true"), "{body}");
        assert!(body.contains("\"model_version\": 5"), "{body}");
    }

    /// Sends `raw` to a router in front of one stub: it must answer
    /// `status` and close, route nothing of `raw`, and a fresh connection
    /// must still route.
    fn refused_without_routing(raw: &[u8], status: u16) {
        let (up, seen) = stub_upstream(1, "primary");
        let addr = start_router(RouterConfig {
            upstreams: vec![up],
            ..RouterConfig::default()
        });
        wait_status(&addr, "roles", probed);
        let (got, body, mut conn) = send(&addr, raw);
        assert_eq!(got, status, "{body}");
        let mut rest = Vec::new();
        let _ = conn.read_to_end(&mut rest);
        assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
        let (fresh, body) = get(&addr, "/models");
        assert_eq!(fresh, 200, "{body}");
        assert_eq!(*seen.lock().unwrap(), ["GET /models"]);
    }

    #[test]
    fn unterminated_request_line_past_the_head_cap_gets_431() {
        // One byte past the cap, no newline, write side left open: the
        // router must answer from the cap alone instead of buffering on.
        refused_without_routing(&vec![b'a'; MAX_HEAD_BYTES + 1], 431);
    }

    #[test]
    fn too_many_header_fields_get_431() {
        let fields: String = (0..=MAX_HEADERS)
            .map(|i| format!("X-H{i}: v\r\n"))
            .collect();
        let raw = format!("GET /models HTTP/1.1\r\n{fields}\r\n");
        refused_without_routing(raw.as_bytes(), 431);
    }

    #[test]
    fn chunked_request_is_refused_and_its_body_never_routed() {
        // A chunked "body" that is itself a request: framed as a
        // zero-length body it would be routed as a second request.
        let raw = "POST /predict HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
                   GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n";
        refused_without_routing(raw.as_bytes(), 400);
    }

    #[test]
    fn metrics_expose_the_event_loop_counters_after_a_forward() {
        let (up, seen) = stub_upstream(1, "primary");
        let addr = start_router(RouterConfig {
            upstreams: vec![up],
            ..RouterConfig::default()
        });
        wait_status(&addr, "roles", probed);
        let (status, body) = get(&addr, "/models");
        assert_eq!(status, 200, "{body}");

        let (status, text) = get(&addr, "/metrics");
        assert_eq!(status, 200, "{text}");
        let value = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
        };
        // This test's own connections were accepted by the shared loop.
        assert!(value("router_accepted") >= Some(3), "{text}");
        for name in [
            "router_stalled_conns",
            "router_rejected_requests",
            "router_dispatch_overflow",
            "router_ejects",
            "router_readmits",
            "router_forward_retries",
        ] {
            assert!(value(name).is_some(), "{name} missing:\n{text}");
        }
        // `/metrics` is the router's own page, never forwarded.
        assert_eq!(*seen.lock().unwrap(), ["GET /models"]);
    }

    #[test]
    fn shutdown_drains_the_router_and_joins_its_threads() {
        let (up, _) = stub_upstream(1, "primary");
        let server = RouterServer::bind(RouterConfig {
            upstreams: vec![up],
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let stop = server.shutdown_handle();
        let running = std::thread::spawn(move || server.run());
        wait_status(&addr, "roles", probed);
        // An idle keep-alive client must not hold the drain open.
        let (status, _, _idle) = send(&addr, b"GET /router/status HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(status, 200);
        stop.request();
        running.join().unwrap().unwrap();
        assert!(
            TcpStream::connect(&addr).is_err(),
            "the listener must be closed"
        );
    }

    #[test]
    fn admin_upstreams_swaps_the_set_and_validates_input() {
        let (a, _) = stub_upstream(1, "primary");
        let (b, _) = stub_upstream(1, "follower");
        let addr = start_router(RouterConfig {
            upstreams: vec![a.clone()],
            ..RouterConfig::default()
        });
        wait_status(&addr, "roles", probed);

        // Bad bodies 400 and leave the set alone.
        for bad in [
            "{not json",
            r#"{"upstreams": []}"#,
            r#"{"upstreams": "x"}"#,
            r#"{"upstreams": [""]}"#,
            r#"{}"#,
        ] {
            let (status, body) = post(&addr, "/admin/upstreams", bad);
            assert_eq!(status, 400, "{bad}: {body}");
        }
        let (status, body) = post(
            &addr,
            "/admin/upstreams",
            &format!(r#"{{"upstreams": ["{a}", "{a}"]}}"#),
        );
        assert_eq!(status, 400, "duplicates must be refused: {body}");

        // A valid swap adds the second node ...
        let (status, body) = post(
            &addr,
            "/admin/upstreams",
            &format!(r#"{{"upstreams": ["{a}", "{b}"]}}"#),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\": 1"), "{body}");
        let (_, status_body) = get(&addr, "/router/status");
        assert!(status_body.contains(&b), "{status_body}");
        assert!(
            status_body.contains("\"topology_swaps\": 1"),
            "{status_body}"
        );

        // Wrong method answers 405.
        let (status, _) = get(&addr, "/admin/upstreams");
        assert_eq!(status, 405);

        // ... and removing the first still routes everything to b.
        let (status, body) = post(
            &addr,
            "/admin/upstreams",
            &format!(r#"{{"upstreams": ["{b}"]}}"#),
        );
        assert_eq!(status, 200, "{body}");
        for i in 0..5 {
            let (status, body) = get(&addr, &format!("/models?k={i}"));
            assert_eq!(status, 200, "{body}");
        }
        let (_, status_body) = get(&addr, "/router/status");
        assert!(!status_body.contains(&a), "{status_body}");
    }

    #[test]
    fn requests_racing_a_topology_swap_are_never_lost_or_double_sent() {
        let (a, seen_a) = stub_upstream(1, "primary");
        let (b, seen_b) = stub_upstream(1, "primary");
        let addr = start_router(RouterConfig {
            upstreams: vec![a.clone()],
            ..RouterConfig::default()
        });
        wait_status(&addr, "roles", probed);

        // Swapper: flip the upstream set as fast as it can.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let swapper = {
            let (addr, a, b) = (addr.clone(), a.clone(), b.clone());
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut flip = false;
                let mut swaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let body = if flip {
                        format!(r#"{{"upstreams": ["{a}"]}}"#)
                    } else {
                        format!(r#"{{"upstreams": ["{a}", "{b}"]}}"#)
                    };
                    let (status, _) = post(&addr, "/admin/upstreams", &body);
                    assert_eq!(status, 200);
                    swaps += 1;
                    flip = !flip;
                }
                swaps
            })
        };

        // Client threads: every request must come back exactly once, 200.
        let sent = Arc::new(AtomicU64::new(0));
        let clients: Vec<_> = (0..4)
            .map(|t| {
                let addr = addr.clone();
                let sent = Arc::clone(&sent);
                std::thread::spawn(move || {
                    for i in 0..150 {
                        // The stub echoes method and path, so each client
                        // must get the reply to its own request back.
                        let path = format!("/echo/{t}/{i}");
                        let (status, body) = get(&addr, &path);
                        assert_eq!(status, 200, "{body}");
                        assert!(body.contains(&path), "{path} got {body}");
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let swaps = swapper.join().unwrap();
        assert!(swaps > 0, "the swapper must have raced the clients");

        // No request was lost (all 600 answered 200 above) and none was
        // double-sent: the upstreams saw exactly as many forwards as the
        // clients sent (both upstreams were healthy throughout, so no
        // transport retry can legitimately duplicate).
        let served = seen_a.lock().unwrap().len() + seen_b.lock().unwrap().len();
        assert_eq!(served as u64, sent.load(Ordering::Relaxed));
    }

    #[test]
    fn dead_upstream_is_ejected_and_requests_fail_over() {
        let (live, _) = stub_upstream(1, "primary");
        // A dead address: bind, grab the port, drop the listener.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let addr = start_router(RouterConfig {
            upstreams: vec![dead, live],
            io_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        });
        wait_status(&addr, "the dead upstream's ejection", |ups| {
            ups.iter()
                .any(|u| u.get("admitted").and_then(Json::as_bool) == Some(false))
        });

        // Every read lands on the live upstream regardless of hash.
        for i in 0..10 {
            let (status, body) = get(&addr, &format!("/models?k={i}"));
            assert_eq!(status, 200, "{body}");
        }
        let (_, status_body) = get(&addr, "/router/status");
        assert!(status_body.contains("\"admitted\": false"), "{status_body}");
    }
}
