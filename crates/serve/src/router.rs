//! Request routing: JSON in, prediction/plan/metrics out.

use crate::admission::{AdmissionController, Verdict};
use crate::arrivals::ArrivalMeter;
use crate::batch::JobQueue;
use crate::http::{Request, Response};
use crate::models::{Method, ModelHost};
use crate::shutdown::Shutdown;
use perfpred_cluster::ClusterState;
use perfpred_core::faults::{self, FaultSite};
use perfpred_core::metrics::names;
use perfpred_core::workload::{ClassLoad, RequestType, ServiceClass};
use perfpred_core::{metrics, Json, PredictError, Prediction, ServerArch, Workload};
use perfpred_store::{Observation, ObservationStore, StoreError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default per-request deadline budget when the request body does not
/// carry a `deadline_ms` (overridable daemon-wide with `--deadline-ms`).
pub const DEFAULT_DEADLINE: Duration = Duration::from_millis(1_000);

/// The shared application state behind every connection.
pub struct App {
    /// Resident predictors.
    pub host: ModelHost,
    /// The §9 admission rule.
    pub admission: AdmissionController,
    /// The dispatch queue's bound and live depth (the reactor enforces
    /// the bound and publishes the depth; `/healthz` reads it back).
    pub queue: Arc<JobQueue>,
    /// Observation intake: durable log + continuous refit + registry.
    pub store: Arc<ObservationStore>,
    /// Cooperative shutdown token.
    pub shutdown: Arc<Shutdown>,
    /// Per-request deadline budget for `/predict` (zero disables
    /// deadlines entirely; a request's own `deadline_ms` overrides it).
    pub deadline: Duration,
    /// Cluster membership, when this daemon runs as a replicated node:
    /// gates `/observe` on the primary role and backs `GET /cluster`.
    pub cluster: Option<Arc<ClusterState>>,
    /// Reactor shard count (0 until `ReactorServer::bind` publishes it),
    /// for `/healthz`.
    pub reactor_shards: Arc<AtomicUsize>,
    /// Per-class arrival-rate EWMA, the control plane's load signal.
    pub arrivals: Arc<ArrivalMeter>,
    started: Instant,
    routes: RouteMetrics,
}

/// Route indices for [`RouteMetrics`]; the discriminant doubles as the
/// latency-histogram slot.
#[derive(Clone, Copy)]
enum Route {
    Healthz,
    Metrics,
    Models,
    Cluster,
    Predict,
    Observe,
    Plan,
    Shutdown,
    AdminThreshold,
    MethodNotAllowed,
    NotFound,
}

/// Per-endpoint telemetry handles, resolved once at assembly time, so no
/// request pays a registry lookup (a lock plus a hash of the name).
struct RouteMetrics {
    requests: Arc<metrics::Counter>,
    latency: [Arc<metrics::Histogram>; 11],
    /// Wall time of each layered-queuing solve a dispatcher runs.
    solve_ms: Arc<metrics::Histogram>,
}

impl RouteMetrics {
    fn resolve() -> RouteMetrics {
        let hist = |route: &str| metrics::histogram(&format!("serve.http.{route}_ms"));
        RouteMetrics {
            requests: metrics::counter("serve.http.requests"),
            latency: [
                hist("healthz"),
                hist("metrics"),
                hist("models"),
                hist("cluster"),
                hist("predict"),
                hist("observe"),
                hist("plan"),
                hist("shutdown"),
                hist("admin_threshold"),
                hist("method_not_allowed"),
                hist("not_found"),
            ],
            solve_ms: metrics::histogram("serve.solve_ms"),
        }
    }

    fn record_latency(&self, route: Route, started: Instant) {
        self.latency[route as usize].record(started.elapsed().as_secs_f64() * 1e3);
    }
}

impl App {
    /// Assembles the application state with an in-memory observation
    /// store whose registry backs `host.historical` — the configuration
    /// tests use. The daemon's `main` wires a durable store through
    /// [`App::with_store`] instead.
    pub fn new(
        host: ModelHost,
        admission: AdmissionController,
        queue: Arc<JobQueue>,
        shutdown: Arc<Shutdown>,
    ) -> App {
        let store = Arc::new(ObservationStore::in_memory(
            &host.servers,
            perfpred_store::RefitOptions::default(),
        ));
        // `host.historical` keeps its own registry here; /observe refits
        // publish into the store's registry, so rebind the host to it.
        let host = crate::models::ModelHost {
            historical: perfpred_core::PredictionCache::with_options(
                perfpred_store::RegistryModel::new(store.registry()),
                perfpred_core::CacheOptions::default(),
            ),
            registry: store.registry(),
            ..host
        };
        Self::with_store(host, admission, queue, shutdown, store)
    }

    /// Assembles the application state around an existing observation
    /// store. `host` must have been built against the same store (see
    /// [`ModelHost::build`]) so the registry behind `/observe` refits is
    /// the one the historical predictor serves from.
    pub fn with_store(
        host: ModelHost,
        admission: AdmissionController,
        queue: Arc<JobQueue>,
        shutdown: Arc<Shutdown>,
        store: Arc<ObservationStore>,
    ) -> App {
        debug_assert!(
            Arc::ptr_eq(&host.registry, &store.registry()),
            "host and store must share one registry"
        );
        App {
            host,
            admission,
            queue,
            store,
            shutdown,
            deadline: DEFAULT_DEADLINE,
            cluster: None,
            reactor_shards: Arc::new(AtomicUsize::new(0)),
            arrivals: Arc::new(ArrivalMeter::new()),
            started: Instant::now(),
            routes: RouteMetrics::resolve(),
        }
    }

    /// Attaches cluster membership: `/observe` starts refusing on
    /// non-primary roles and `GET /cluster` reports replication status.
    pub fn with_cluster(mut self, cluster: Arc<ClusterState>) -> App {
        self.cluster = Some(cluster);
        self
    }

    /// Routes one request, recording a per-endpoint latency histogram.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_at(req, Instant::now())
    }

    /// Routes one request whose deadline budget is anchored at `arrival`
    /// — the instant the request came off the wire — so time spent queued
    /// inside the daemon (e.g. a reactor dispatch offload) consumes the
    /// request's budget instead of resetting it.
    pub fn handle_at(&self, req: &Request, arrival: Instant) -> Response {
        let started = Instant::now();
        self.routes.requests.incr();
        let (route, response) = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => (Route::Healthz, self.healthz()),
            ("GET", "/metrics") => (Route::Metrics, self.metrics()),
            ("GET", "/models") => (Route::Models, self.models()),
            ("GET", "/cluster") => (Route::Cluster, self.cluster_status()),
            ("POST", "/predict") => (
                Route::Predict,
                self.predict_at(req, arrival, false)
                    .expect("a dispatched /predict always answers"),
            ),
            ("POST", "/observe") => (Route::Observe, self.observe(req)),
            ("POST", "/plan") => (Route::Plan, self.plan(req)),
            ("POST", "/shutdown") => (Route::Shutdown, self.shutdown_endpoint()),
            ("POST", "/admin/threshold") => (Route::AdminThreshold, self.admin_threshold(req)),
            (_, "/healthz" | "/metrics" | "/models" | "/cluster") => {
                (Route::MethodNotAllowed, Response::method_not_allowed("GET"))
            }
            (_, "/predict" | "/observe" | "/plan" | "/shutdown" | "/admin/threshold") => {
                (Route::MethodNotAllowed, Response::method_not_allowed("POST"))
            }
            _ => (
                Route::NotFound,
                Response::error(
                    404,
                    "unknown path (have: GET /healthz, GET /metrics, GET /models, GET /cluster, POST /predict, POST /observe, POST /plan, POST /shutdown, POST /admin/threshold)",
                ),
            ),
        };
        self.routes.record_latency(route, started);
        response
    }

    /// Nonblocking routing for the reactor shards: `Some` when the route
    /// cannot stall the event loop (GET endpoints, `/shutdown`, unknown
    /// paths, and `/predict` answers that are cache hits, closed-form
    /// solves or errors), `None` when the request must go to a dispatcher
    /// thread (`/observe` and `/plan` do real I/O or seconds-scale
    /// planning; an lqns `/predict` miss runs a layered solve). A `None`
    /// leaves no trace: the dispatcher's [`App::handle_at`] counts the
    /// request once.
    pub fn try_handle(&self, req: &Request, arrival: Instant) -> Option<Response> {
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/observe") | ("POST", "/plan") => None,
            ("POST", "/predict") => {
                let started = Instant::now();
                let response = self.predict_at(req, arrival, true)?;
                self.routes.requests.incr();
                self.routes.record_latency(Route::Predict, started);
                Some(response)
            }
            _ => Some(self.handle_at(req, arrival)),
        }
    }

    fn healthz(&self) -> Response {
        let mut body = Json::obj();
        body.set("status", "ok");
        body.set("uptime_s", self.started.elapsed().as_secs_f64());
        body.set(
            "models",
            Json::Arr(
                self.host
                    .available()
                    .iter()
                    .map(|&m| Json::from(m))
                    .collect(),
            ),
        );
        body.set("draining", self.shutdown.requested());
        // Fields the router's health probe keys on: one GET answers
        // liveness, model staleness and who-accepts-writes. A standalone
        // daemon is its own primary.
        body.set("model_version", self.host.registry.version());
        body.set(
            "cluster_role",
            self.cluster.as_ref().map_or("primary", |c| c.role().name()),
        );
        body.set(
            "reactor_shards",
            self.reactor_shards.load(Ordering::Relaxed) as u64,
        );
        body.set("dispatch_queue_depth", self.queue.depth() as u64);
        // Control-plane inputs: the live admission threshold and the
        // smoothed per-class arrival rates, so `perfpred-ctl` reads the
        // whole load picture from one scrape.
        body.set("threshold", self.admission.threshold());
        let rates = self.arrivals.rates();
        let mut arrival = Json::obj();
        arrival.set("total_rps", rates.total_rps);
        arrival.set("browse_rps", rates.browse_rps);
        arrival.set("buy_rps", rates.buy_rps);
        body.set("arrival", arrival);
        Response::json(200, &body)
    }

    /// `POST /admin/threshold`: hot-reload the admission threshold. The
    /// body is `{"threshold": 0.1}`; the candidate passes the same
    /// validation as at startup, so a bad value 400s and leaves the
    /// running threshold untouched.
    fn admin_threshold(&self, req: &Request) -> Response {
        let body = match req.json() {
            Ok(b) => b,
            Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
        };
        let threshold = match body.get("threshold").and_then(Json::as_f64) {
            Some(t) => t,
            None => return Response::error(400, "need a numeric 'threshold'"),
        };
        let previous = self.admission.threshold();
        if let Err(e) = self.admission.set_threshold(threshold) {
            return Response::error(400, &e.to_string());
        }
        metrics::counter("serve.admin.threshold_reloads").incr();
        let mut out = Json::obj();
        out.set("threshold", self.admission.threshold());
        out.set("previous", previous);
        Response::json(200, &out)
    }

    /// `GET /cluster`: replication status — role, epoch, seal point and
    /// (on the primary) per-follower ack progress.
    fn cluster_status(&self) -> Response {
        match &self.cluster {
            Some(c) => Response::json(200, &c.status_json(self.store.log_len().unwrap_or(0))),
            None => Response::error(
                404,
                "clustering is not configured (start with --cluster-node / --repl-peers)",
            ),
        }
    }

    fn metrics(&self) -> Response {
        let mut text = metrics::snapshot().render_exposition();
        // The serving model version, labelled so scrapes can watch hot
        // swaps happen (satellite of the perfpred-store tentpole).
        let version = self.host.registry.version();
        text.push_str(&format!(
            "serve_model_version{{method=\"historical\",model_version=\"{version}\"}} {version}\n"
        ));
        // Control-plane gauges: smoothed arrival rates plus live queue
        // depths (the registry only holds monotonic counters; these are
        // instantaneous values, so they are appended as gauge lines).
        text.push_str(&self.arrivals.render_exposition());
        text.push_str("# TYPE serve_dispatch_queue_depth gauge\n");
        text.push_str(&format!(
            "serve_dispatch_queue_depth {}\n",
            self.queue.depth()
        ));
        text.push_str("# TYPE serve_admission_threshold gauge\n");
        text.push_str(&format!(
            "serve_admission_threshold {}\n",
            self.admission.threshold()
        ));
        Response::text(200, text)
    }

    /// `GET /models`: the registry's version history — what the serving
    /// model is, how it got there, and how much data is behind it.
    fn models(&self) -> Response {
        let mut body = Json::obj();
        body.set("current", self.host.registry.version());
        body.set("observations", self.store.observations());
        body.set("skipped_unknown_server", self.store.skipped_unknown());
        match self.store.log_len() {
            Some(n) => body.set("log_records", n),
            None => body.set("log_records", Json::Null),
        };
        body.set(
            "versions",
            Json::Arr(
                self.host
                    .registry
                    .versions()
                    .iter()
                    .map(|v| {
                        let mut o = Json::obj();
                        o.set("version", v.version);
                        o.set("trigger", v.trigger.name());
                        o.set("observations", v.observations);
                        o.set("gradient", v.model.gradient());
                        o
                    })
                    .collect(),
            ),
        );
        Response::json(200, &body)
    }

    /// `POST /observe`: ingest measured operating points — one object or
    /// `{"batch": [...]}` — into the observation store. Responses report
    /// any refits the batch triggered; the historical prediction cache is
    /// re-keyed to the new model version on the spot.
    fn observe(&self, req: &Request) -> Response {
        // Only the cluster primary appends: a follower taking writes would
        // fork the log the whole tier replays from. 409 (not 5xx) so load
        // balancers don't count a correctly-refusing replica as unhealthy.
        if let Some(c) = &self.cluster {
            if !c.is_writable() {
                let mut out = Json::obj();
                out.set("error", "this node does not accept observations");
                out.set("role", c.role().name());
                out.set("epoch", c.epoch());
                return Response::json(409, &out);
            }
        }
        let body = match req.json() {
            Ok(b) => b,
            Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
        };
        let parsed: Result<Vec<Observation>, String> = match body.get("batch") {
            Some(Json::Arr(items)) => items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    self.parse_observation(item)
                        .map_err(|e| format!("batch[{i}]: {e}"))
                })
                .collect(),
            Some(_) => Err("'batch' must be an array".into()),
            None => self.parse_observation(&body).map(|o| vec![o]),
        };
        let batch = match parsed {
            Ok(b) if b.is_empty() => return Response::error(400, "empty batch"),
            Ok(b) => b,
            Err(e) => return Response::error(400, &e),
        };
        let outcome = match self.store.ingest(&batch) {
            Ok(o) => o,
            Err(StoreError::InvalidObservation(msg)) => {
                return Response::error(400, &format!("invalid observation: {msg}"))
            }
            Err(StoreError::Io(e)) => {
                return Response::error(500, &format!("observation log I/O failed: {e}"))
            }
        };
        let mut out = Json::obj();
        out.set("accepted", outcome.accepted);
        out.set("observations", self.store.observations());
        out.set("model_version", self.host.registry.version());
        out.set(
            "refits",
            Json::Arr(
                outcome
                    .refits
                    .iter()
                    .map(|r| {
                        let mut o = Json::obj();
                        o.set("version", r.version);
                        o.set("trigger", r.trigger.name());
                        o
                    })
                    .collect(),
            ),
        );
        Response::json(200, &out)
    }

    /// Parses one observation object: `server` (known architecture),
    /// `clients`, `mrt_ms`, optional `buy_pct` / `throughput_rps` /
    /// `timestamp_us` (defaults to the arrival wall clock).
    fn parse_observation(&self, j: &Json) -> Result<Observation, String> {
        let server = j
            .get("server")
            .and_then(Json::as_str)
            .ok_or("needs a 'server' string")?;
        if self.host.server(server).is_none() {
            let known: Vec<&str> = self.host.servers.iter().map(|s| s.name.as_str()).collect();
            return Err(format!(
                "unknown server '{server}' (known: {})",
                known.join(", ")
            ));
        }
        let clients = j
            .get("clients")
            .and_then(Json::as_u32)
            .ok_or("needs whole-number 'clients'")?;
        let mrt_ms = j
            .get("mrt_ms")
            .and_then(Json::as_f64)
            .ok_or("needs numeric 'mrt_ms'")?;
        let buy_pct = match j.get("buy_pct") {
            None => 0.0,
            Some(v) => v.as_f64().ok_or("'buy_pct' must be a number")? as f32,
        };
        let throughput_rps = match j.get("throughput_rps") {
            None => 0.0,
            Some(v) => v.as_f64().ok_or("'throughput_rps' must be a number")?,
        };
        let timestamp_us = match j.get("timestamp_us") {
            None => SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            Some(v) => {
                v.as_f64()
                    .filter(|t| *t >= 0.0)
                    .ok_or("'timestamp_us' must be a non-negative number")? as u64
            }
        };
        let obs = Observation {
            server: server.to_string(),
            clients,
            buy_pct,
            mrt_ms,
            throughput_rps,
            timestamp_us,
        };
        obs.validate().map_err(|e| e.to_string())?;
        Ok(obs)
    }

    fn shutdown_endpoint(&self) -> Response {
        self.shutdown.request();
        let mut body = Json::obj();
        body.set("draining", true);
        Response::json(200, &body)
    }

    /// `POST /predict`: the body is parsed once and the method's cache
    /// peeked once, and a hit is answered from that peek. `inline` is the
    /// reactor shard's call: an lqns miss there returns `None` before any
    /// side effect, and a dispatcher re-runs the request with `inline`
    /// false, peeking again and solving the miss. Every other outcome,
    /// errors included, answers `Some`.
    fn predict_at(&self, req: &Request, arrival: Instant, inline: bool) -> Option<Response> {
        let body = match req.json() {
            Ok(b) => b,
            Err(e) => return Some(Response::error(400, &format!("bad JSON: {e}"))),
        };
        let method = match parse_method(&body) {
            Ok(m) => m,
            Err(e) => return Some(Response::error(400, &e)),
        };
        if !self.host.hosts(method) {
            return Some(Response::error(
                404,
                &format!(
                    "method '{}' is not hosted by this daemon (available: {})",
                    method.name(),
                    self.host.available().join(", ")
                ),
            ));
        }
        let server = match parse_server(&body, &self.host) {
            Ok(s) => s,
            Err(e) => return Some(Response::error(400, &e)),
        };
        let workload = match parse_workload(&body) {
            Ok(w) => w,
            Err(e) => return Some(Response::error(400, &e)),
        };
        let hit = self.host.peek(method, server, &workload);
        if hit.is_none() && method == Method::Lqns && inline {
            return None;
        }
        self.arrivals.note(&workload);
        let deadline = match parse_deadline(&body, self.deadline, arrival) {
            Ok(d) => d,
            Err(e) => return Some(Response::error(400, &e)),
        };

        let (result, cached) = match hit {
            Some(found) => (found, true),
            None if method == Method::Lqns => {
                (self.predict_lqns(server, &workload, deadline), false)
            }
            // Historical/hybrid solves are closed-form (µs): inline.
            None => (
                self.host
                    .predict_inline(method, server, &workload)
                    .expect("hosted method"),
                false,
            ),
        };
        // Degraded serving: when the request's budget ran out before its
        // solve could start, fall back to the cheapest model that still
        // answers instead of failing the request. Admission below judges
        // the fallback prediction exactly as it would a normal one.
        let mut mode = "normal";
        let mut served_by = method.name();
        let prediction = match result {
            Ok(p) => p,
            // Only the serving layer's own failure degrades; anything else
            // (bad input, solver divergence) surfaces unchanged.
            Err(e @ PredictError::DeadlineExpired(_)) => {
                match self.degraded_fallback(server, &workload) {
                    Some((p, by)) => {
                        metrics::counter(names::SERVE_DEGRADED_TOTAL).incr();
                        mode = "degraded";
                        served_by = by;
                        p
                    }
                    None => return Some(Response::error(504, &e.to_string())),
                }
            }
            Err(e) => return Some(Response::error(400, &e.to_string())),
        };

        // §9 admission: reject when any class's predicted response time is
        // within the threshold of its SLA goal.
        let skip_admission = body.get("admission").and_then(Json::as_bool) == Some(false);
        if !skip_admission {
            if let Verdict::Reject {
                class,
                predicted_mrt_ms,
                goal_ms,
            } = self.admission.judge(&workload, &prediction)
            {
                let mut rej = Json::obj();
                rej.set("admitted", false);
                rej.set("class", class);
                rej.set("predicted_mrt_ms", predicted_mrt_ms);
                rej.set("goal_ms", goal_ms);
                rej.set("threshold", self.admission.threshold());
                rej.set("method", method.name());
                rej.set("server", server.name.as_str());
                return Some(Response::json(503, &rej));
            }
        }

        let mut out = Json::obj();
        out.set("method", method.name());
        out.set("server", server.name.as_str());
        out.set("admitted", true);
        out.set("mode", mode);
        out.set("served_by", served_by);
        out.set("cached", cached);
        out.set("prediction", prediction_json(&prediction));
        Some(Response::json(200, &out))
    }

    /// The degraded-serving ladder, tried in cost order once this
    /// request's budget has run out: (1) a cache entry another dispatcher
    /// published while this request waited, (2) the historical model —
    /// the paper's §4 method is a closed-form lookup that answers in
    /// microseconds from the same registry `/observe` refits feed — and
    /// (3) the hybrid model's closed form. Returns the prediction and
    /// which model produced it, or `None` when nothing can answer.
    fn degraded_fallback(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Option<(Prediction, &'static str)> {
        if let Some(Ok(p)) = self.host.lqns.peek(server, workload) {
            return Some((p, "lqns-cache"));
        }
        if self.host.registry.version() > 0 {
            if let Some(Ok(p)) = self
                .host
                .predict_inline(Method::Historical, server, workload)
            {
                return Some((p, Method::Historical.name()));
            }
        }
        if let Some(Ok(p)) = self.host.predict_inline(Method::Hybrid, server, workload) {
            return Some((p, Method::Hybrid.name()));
        }
        None
    }

    /// A layered-queuing miss, solved right here on the dispatcher through
    /// the cache's own miss path. The budget is checked when the request
    /// reaches the dispatcher and again just before the solve; an expired
    /// request is shed unsolved. A solve that has started runs to
    /// completion and its exact answer is served.
    fn predict_lqns(
        &self,
        server: &ServerArch,
        workload: &Workload,
        deadline: Option<Instant>,
    ) -> Result<Prediction, PredictError> {
        use perfpred_core::PerformanceModel;
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        if !expired() {
            // Chaos harness: stall the solve the way a CPU-starved or
            // page-faulting host would, so deadline shedding and degraded
            // fallback get exercised under test.
            if let Some(delay) = faults::delay(FaultSite::SolverDelay) {
                metrics::counter("serve.faults.solver_delay").incr();
                std::thread::sleep(delay);
            }
        }
        if expired() {
            metrics::counter(names::SERVE_DEADLINE_EXPIRED_TOTAL).incr();
            return Err(PredictError::DeadlineExpired(
                "shed before solving: queue wait exceeded the request budget".into(),
            ));
        }
        let started = Instant::now();
        let result = self.host.lqns.predict(server, workload);
        self.routes
            .solve_ms
            .record(started.elapsed().as_secs_f64() * 1e3);
        result
    }

    fn plan(&self, req: &Request) -> Response {
        let body = match req.json() {
            Ok(b) => b,
            Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
        };
        let method = match parse_method(&body) {
            Ok(m) => m,
            Err(e) => return Response::error(400, &e),
        };
        let slack = match body.get("slack") {
            None => 1.0,
            Some(v) => match v.as_f64() {
                Some(s) => s,
                None => return Response::error(400, "'slack' must be a number"),
            },
        };
        let workload = match parse_plan_workload(&body) {
            Ok(w) => w,
            Err(e) => return Response::error(400, &e),
        };
        let pool = match parse_pool(&body, &self.host) {
            Ok(p) => p,
            Err(e) => return Response::error(400, &e),
        };
        use perfpred_core::PerformanceModel;
        let model: &dyn PerformanceModel = match method {
            Method::Lqns => &self.host.lqns,
            Method::Historical => {
                if self.host.registry.version() == 0 {
                    return Response::error(
                        404,
                        &format!(
                            "method 'historical' is not hosted (available: {})",
                            self.host.available().join(", ")
                        ),
                    );
                }
                &self.host.historical
            }
            Method::Hybrid => match &self.host.hybrid {
                Some(m) => m,
                None => return Response::error(404, "method 'hybrid' is not hosted"),
            },
        };
        let plan = match perfpred_resman::plan(model, &pool, &workload, slack) {
            Ok(p) => p,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        let mut out = Json::obj();
        out.set("method", method.name());
        out.set("slack", slack);
        out.set("total_clients", u64::from(plan.total_clients));
        out.set("placement_ratio", plan.placement_ratio());
        out.set(
            "rejected_per_class",
            Json::Arr(
                plan.rejected_per_class
                    .iter()
                    .map(|&r| Json::from(u64::from(r)))
                    .collect(),
            ),
        );
        out.set(
            "servers",
            Json::Arr(
                plan.servers
                    .iter()
                    .map(|s| {
                        let mut o = Json::obj();
                        o.set("server", s.server.as_str());
                        o.set("server_idx", s.server_idx);
                        o.set(
                            "clients_per_class",
                            Json::Arr(
                                s.clients_per_class
                                    .iter()
                                    .map(|&c| Json::from(u64::from(c)))
                                    .collect(),
                            ),
                        );
                        o.set("prediction", prediction_json(&s.prediction));
                        o
                    })
                    .collect(),
            ),
        );
        Response::json(200, &out)
    }
}

/// Parses the optional `deadline_ms` body field into an absolute
/// deadline anchored at `arrival`. Absent → the daemon default; `0` →
/// deadlines off for this request (callers that prefer waiting for the
/// solve over a degraded answer).
fn parse_deadline(
    body: &Json,
    default: Duration,
    arrival: Instant,
) -> Result<Option<Instant>, String> {
    let budget = match body.get("deadline_ms") {
        None => default,
        Some(v) => {
            let ms = v
                .as_f64()
                .filter(|ms| ms.is_finite() && *ms >= 0.0)
                .ok_or("'deadline_ms' must be a non-negative number")?;
            Duration::from_secs_f64(ms / 1e3)
        }
    };
    Ok((budget > Duration::ZERO).then(|| arrival + budget))
}

fn parse_method(body: &Json) -> Result<Method, String> {
    match body.get("method") {
        None => Ok(Method::Lqns),
        Some(v) => match v.as_str() {
            Some(s) => Method::parse(s),
            None => Err("'method' must be a string".into()),
        },
    }
}

fn parse_server<'h>(body: &Json, host: &'h ModelHost) -> Result<&'h ServerArch, String> {
    let name = match body.get("server") {
        None => "AppServF",
        Some(v) => v
            .as_str()
            .ok_or_else(|| "'server' must be a string".to_string())?,
    };
    host.server(name).ok_or_else(|| {
        let known: Vec<&str> = host.servers.iter().map(|s| s.name.as_str()).collect();
        format!("unknown server '{name}' (known: {})", known.join(", "))
    })
}

/// Parses the request workload: either the `"workload": {"classes": [...]}`
/// long form or the `"clients": n` shorthand (optionally with `"buy_pct"`
/// and a `"goal_ms"` applied to every class).
fn parse_workload(body: &Json) -> Result<Workload, String> {
    if let Some(spec) = body.get("workload") {
        return parse_workload_classes(spec);
    }
    let clients = body
        .get("clients")
        .and_then(Json::as_u32)
        .ok_or_else(|| "need 'workload' or a whole-number 'clients'".to_string())?;
    let mut w = match body.get("buy_pct") {
        None => Workload::typical(clients),
        Some(v) => {
            let pct = v.as_f64().ok_or("'buy_pct' must be a number")?;
            if !(0.0..=100.0).contains(&pct) {
                return Err(format!("'buy_pct' must be in [0, 100], got {pct}"));
            }
            Workload::with_buy_pct(clients, pct)
        }
    };
    if let Some(goal) = body.get("goal_ms") {
        let goal = goal.as_f64().ok_or("'goal_ms' must be a number")?;
        if !goal.is_finite() || goal <= 0.0 {
            return Err(format!("'goal_ms' must be positive, got {goal}"));
        }
        for c in &mut w.classes {
            c.class.rt_goal_ms = Some(goal);
        }
    }
    Ok(w)
}

fn parse_workload_classes(spec: &Json) -> Result<Workload, String> {
    let classes = spec
        .get("classes")
        .and_then(Json::as_arr)
        .ok_or_else(|| "'workload' needs a 'classes' array".to_string())?;
    if classes.is_empty() {
        return Err("'workload.classes' must not be empty".into());
    }
    let mut out = Vec::with_capacity(classes.len());
    for (i, c) in classes.iter().enumerate() {
        let request_type = match c.get("type").and_then(Json::as_str) {
            Some("browse") | None => RequestType::Browse,
            Some("buy") => RequestType::Buy,
            Some(other) => return Err(format!("class {i}: unknown type '{other}'")),
        };
        let clients = c
            .get("clients")
            .and_then(Json::as_u32)
            .ok_or_else(|| format!("class {i}: needs whole-number 'clients'"))?;
        let think_time_ms = match c.get("think_ms") {
            None => 7_000.0,
            Some(v) => {
                let t = v
                    .as_f64()
                    .ok_or(format!("class {i}: 'think_ms' must be a number"))?;
                if !t.is_finite() || t < 0.0 {
                    return Err(format!("class {i}: 'think_ms' must be non-negative"));
                }
                t
            }
        };
        let rt_goal_ms = match c.get("goal_ms") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let g = v
                    .as_f64()
                    .ok_or(format!("class {i}: 'goal_ms' must be a number"))?;
                if !g.is_finite() || g <= 0.0 {
                    return Err(format!("class {i}: 'goal_ms' must be positive"));
                }
                Some(g)
            }
        };
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .map_or_else(|| format!("class-{i}"), str::to_string);
        out.push(ClassLoad {
            class: ServiceClass {
                name,
                request_type,
                think_time_ms,
                rt_goal_ms,
            },
            clients,
        });
    }
    Ok(Workload { classes: out })
}

/// `/plan` workload: long form, or `"total_clients": n` → the §9.1 paper
/// workload mix (10 % buy @150 ms, 45 % browse @300 ms, 45 % @600 ms).
fn parse_plan_workload(body: &Json) -> Result<Workload, String> {
    if let Some(spec) = body.get("workload") {
        return parse_workload_classes(spec);
    }
    let total = body
        .get("total_clients")
        .and_then(Json::as_u32)
        .ok_or_else(|| "need 'workload' or a whole-number 'total_clients'".to_string())?;
    Ok(perfpred_resman::paper_workload(total))
}

/// `/plan` pool: `"pool": ["AppServS", ...]` by name, default the paper's
/// 16-server pool.
fn parse_pool(body: &Json, host: &ModelHost) -> Result<Vec<ServerArch>, String> {
    match body.get("pool") {
        None => Ok(perfpred_resman::paper_pool()),
        Some(v) => {
            let names = v
                .as_arr()
                .ok_or("'pool' must be an array of server names")?;
            if names.is_empty() {
                return Err("'pool' must not be empty".into());
            }
            names
                .iter()
                .map(|n| {
                    let name = n.as_str().ok_or("'pool' entries must be strings")?;
                    host.server(name)
                        .cloned()
                        .ok_or_else(|| format!("unknown server '{name}' in pool"))
                })
                .collect()
        }
    }
}

fn prediction_json(p: &Prediction) -> Json {
    let mut o = Json::obj();
    o.set("mrt_ms", p.mrt_ms);
    o.set(
        "per_class_mrt_ms",
        Json::Arr(p.per_class_mrt_ms.iter().map(|&v| Json::from(v)).collect()),
    );
    o.set("throughput_rps", p.throughput_rps);
    match p.utilization {
        Some(u) => o.set("utilization", u),
        None => o.set("utilization", Json::Null),
    };
    o.set("saturated", p.saturated);
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_core::{CacheOptions, PerformanceModel};
    use perfpred_resman::RuntimeOptions;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.into(),
            path: path.into(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    fn app() -> App {
        App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(64),
            Shutdown::new(),
        )
    }

    fn body_json(r: &Response) -> Json {
        Json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap()
    }

    #[test]
    fn healthz_reports_models_and_uptime() {
        let app = app();
        let r = app.handle(&request("GET", "/healthz", ""));
        assert_eq!(r.status, 200);
        let j = body_json(&r);
        assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(j.get("draining").and_then(Json::as_bool), Some(false));
        let models = j.get("models").and_then(Json::as_arr).unwrap();
        assert_eq!(models.len(), 2); // paper mode: lqns + hybrid
    }

    #[test]
    fn predict_hybrid_inline_and_reports_cached_on_repeat() {
        let app = app();
        let body = r#"{"method": "hybrid", "server": "AppServF", "clients": 200}"#;
        let first = app.handle(&request("POST", "/predict", body));
        assert_eq!(
            first.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&first.body)
        );
        let j = body_json(&first);
        assert_eq!(j.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(j.get("admitted").and_then(Json::as_bool), Some(true));
        let mrt = j
            .get("prediction")
            .and_then(|p| p.get("mrt_ms"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(mrt > 0.0);

        assert_eq!(j.get("mode").and_then(Json::as_str), Some("normal"));
        assert_eq!(j.get("served_by").and_then(Json::as_str), Some("hybrid"));

        let second = app.handle(&request("POST", "/predict", body));
        let j2 = body_json(&second);
        assert_eq!(j2.get("cached").and_then(Json::as_bool), Some(true));
        let mrt2 = j2
            .get("prediction")
            .and_then(|p| p.get("mrt_ms"))
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(mrt.to_bits(), mrt2.to_bits());
    }

    fn mrt_of(r: &Response) -> f64 {
        body_json(r)
            .get("prediction")
            .and_then(|p| p.get("mrt_ms"))
            .and_then(Json::as_f64)
            .unwrap()
    }

    #[test]
    fn predict_lqns_drains_through_the_queue_and_hits_after() {
        let app = app();
        let server = app.host.server("AppServVF").unwrap().clone();
        let body = r#"{"method": "lqns", "server": "AppServVF", "clients": 150}"#;
        // A miss is solved right here (the dispatcher's thread) and memoized.
        let first = app.handle(&request("POST", "/predict", body));
        assert_eq!(
            first.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&first.body)
        );
        assert_eq!(
            body_json(&first).get("cached").and_then(Json::as_bool),
            Some(false)
        );
        let second = app.handle(&request("POST", "/predict", body));
        assert_eq!(
            body_json(&second).get("cached").and_then(Json::as_bool),
            Some(true)
        );
        // Identical requests answer the same bits from one cache entry,
        // and those bits are a fresh solve's.
        let fresh = app
            .host
            .lqns
            .inner()
            .predict(&server, &Workload::typical(150))
            .unwrap();
        assert_eq!(mrt_of(&first).to_bits(), fresh.mrt_ms.to_bits());
        assert_eq!(mrt_of(&second).to_bits(), fresh.mrt_ms.to_bits());
        assert_eq!(app.host.lqns.len(), 1);

        // A solve right after one at a different operating point on the
        // same thread carries no warm-start state over: it equals a solve
        // through a fresh workspace pool bit for bit.
        let next = r#"{"method": "lqns", "server": "AppServVF", "clients": 900, "buy_pct": 20, "admission": false}"#;
        let r = app.handle(&request("POST", "/predict", next));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let fresh = app
            .host
            .lqns
            .inner()
            .predict_with_pool(&server, &Workload::with_buy_pct(900, 20.0), &mut Vec::new())
            .unwrap();
        assert_eq!(mrt_of(&r).to_bits(), fresh.mrt_ms.to_bits());
        assert_eq!(app.host.lqns.len(), 2);
    }

    const HOT_BODY: &str = r#"{"method":"lqns","server":"AppServF","clients":700,"buy_pct":10}"#;

    #[test]
    fn an_inline_hit_counts_once_and_an_offloaded_miss_once() {
        let scope = metrics::Scope::new();
        let _guard = scope.enter();
        let app = app();
        let counted = |name: &str| scope.snapshot().counter(name);
        let req = request("POST", "/predict", HOT_BODY);

        // The shard's miss leaves no trace; the dispatcher counts it once.
        assert!(app.try_handle(&req, Instant::now()).is_none());
        assert_eq!(
            (counted("serve.http.requests"), app.arrivals.total()),
            (0, 0)
        );
        let r = app.handle_at(&req, Instant::now());
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        assert_eq!(
            body_json(&r).get("cached").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            (counted("serve.http.requests"), app.arrivals.total()),
            (1, 1)
        );
        let stats = app.host.lqns.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        assert_eq!(
            (counted("predcache.hits"), counted("predcache.misses")),
            (0, 1)
        );

        // Each inline hit adds exactly one hit, one request, one arrival.
        for _ in 0..10 {
            let r = app
                .try_handle(&req, Instant::now())
                .expect("a hit answers inline");
            assert_eq!(
                body_json(&r).get("cached").and_then(Json::as_bool),
                Some(true)
            );
        }
        assert_eq!(app.host.lqns.stats().hits, 10);
        assert_eq!(counted("predcache.hits"), 10);
        assert_eq!(
            (counted("serve.http.requests"), app.arrivals.total()),
            (11, 11)
        );

        // So does a closed-form method's hit.
        let hybrid = request("POST", "/predict", r#"{"method":"hybrid","clients":300}"#);
        for _ in 0..2 {
            assert!(app.try_handle(&hybrid, Instant::now()).is_some());
        }
        let stats = app.host.hybrid.as_ref().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn a_warm_inline_hit_makes_no_registry_lookups() {
        let app = app();
        let req = request("POST", "/predict", HOT_BODY);
        assert_eq!(app.handle(&req).status, 200);
        let before = metrics::lookups_on_this_thread();
        let r = app
            .try_handle(&req, Instant::now())
            .expect("a hit answers inline");
        assert_eq!(metrics::lookups_on_this_thread() - before, 0);
        assert_eq!(
            body_json(&r).get("cached").and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn admission_rejects_with_a_structured_503() {
        let app = app();
        // 900 clients on the slow architecture blow a 150 ms goal.
        let body = r#"{"method": "lqns", "server": "AppServS", "clients": 900, "goal_ms": 150}"#;
        let r = app.handle(&request("POST", "/predict", body));
        assert_eq!(r.status, 503, "{:?}", String::from_utf8_lossy(&r.body));
        let j = body_json(&r);
        assert_eq!(j.get("admitted").and_then(Json::as_bool), Some(false));
        assert!(j.get("class").and_then(Json::as_str).is_some());
        assert!(j.get("predicted_mrt_ms").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(j.get("goal_ms").and_then(Json::as_f64), Some(150.0));
        assert_eq!(j.get("threshold").and_then(Json::as_f64), Some(0.05));
        // The same request with admission disabled answers 200.
        let body_off = r#"{"method": "lqns", "server": "AppServS", "clients": 900, "goal_ms": 150, "admission": false}"#;
        assert_eq!(
            app.handle(&request("POST", "/predict", body_off)).status,
            200
        );
    }

    #[test]
    fn predict_validates_input() {
        let app = app();
        assert_eq!(
            app.handle(&request("POST", "/predict", "{not json")).status,
            400
        );
        assert_eq!(
            app.handle(&request(
                "POST",
                "/predict",
                r#"{"clients": 10, "method": "nope"}"#
            ))
            .status,
            400
        );
        assert_eq!(
            app.handle(&request(
                "POST",
                "/predict",
                r#"{"clients": 10, "server": "Cray"}"#
            ))
            .status,
            400
        );
        assert_eq!(
            app.handle(&request("POST", "/predict", r#"{"server": "AppServF"}"#))
                .status,
            400
        );
        // Historical is not hosted in paper mode.
        assert_eq!(
            app.handle(&request(
                "POST",
                "/predict",
                r#"{"clients": 10, "method": "historical"}"#
            ))
            .status,
            404
        );
        assert_eq!(app.handle(&request("GET", "/nope", "")).status, 404);
        assert_eq!(app.handle(&request("DELETE", "/predict", "")).status, 405);
    }

    #[test]
    fn wrong_method_on_a_known_path_answers_405_with_allow() {
        let app = app();
        let r = app.handle(&request("DELETE", "/predict", ""));
        assert_eq!(r.status, 405);
        assert_eq!(r.allow.as_deref(), Some("POST"));
        let r = app.handle(&request("POST", "/healthz", ""));
        assert_eq!(r.status, 405);
        assert_eq!(r.allow.as_deref(), Some("GET"));
        let r = app.handle(&request("PUT", "/cluster", ""));
        assert_eq!(r.status, 405);
        assert_eq!(r.allow.as_deref(), Some("GET"));
        // Unknown paths stay 404 with no Allow.
        let r = app.handle(&request("DELETE", "/nope", ""));
        assert_eq!((r.status, r.allow), (404, None));
    }

    #[test]
    fn healthz_reports_cluster_and_queue_fields() {
        let app = app();
        let j = body_json(&app.handle(&request("GET", "/healthz", "")));
        assert_eq!(j.get("model_version").and_then(Json::as_u32), Some(0));
        assert_eq!(
            j.get("cluster_role").and_then(Json::as_str),
            Some("primary"),
            "a standalone daemon is its own primary"
        );
        assert_eq!(j.get("reactor_shards").and_then(Json::as_u32), Some(0));
        assert_eq!(
            j.get("dispatch_queue_depth").and_then(Json::as_u32),
            Some(0)
        );
    }

    #[test]
    fn cluster_route_and_observe_gate_follow_the_role() {
        use perfpred_cluster::{ClusterState, Role};
        // Without cluster config the route 404s and observes flow.
        let plain = app();
        assert_eq!(plain.handle(&request("GET", "/cluster", "")).status, 404);

        let state = Arc::new(ClusterState::new("node-x", Role::Follower, 3, 0));
        let app = plain.with_cluster(Arc::clone(&state));
        let j = body_json(&app.handle(&request("GET", "/cluster", "")));
        assert_eq!(j.get("role").and_then(Json::as_str), Some("follower"));
        assert_eq!(j.get("epoch").and_then(Json::as_u32), Some(3));
        assert_eq!(j.get("writable").and_then(Json::as_bool), Some(false));
        let j = body_json(&app.handle(&request("GET", "/healthz", "")));
        assert_eq!(
            j.get("cluster_role").and_then(Json::as_str),
            Some("follower")
        );

        // A follower refuses observations with a structured 409 ...
        let body = r#"{"server": "AppServF", "clients": 10, "mrt_ms": 42.0}"#;
        let r = app.handle(&request("POST", "/observe", body));
        assert_eq!(r.status, 409, "{:?}", String::from_utf8_lossy(&r.body));
        let j = body_json(&r);
        assert_eq!(j.get("role").and_then(Json::as_str), Some("follower"));
        assert_eq!(j.get("epoch").and_then(Json::as_u32), Some(3));

        // ... and accepts them the moment it is promoted.
        state.promote(4, 0);
        let r = app.handle(&request("POST", "/observe", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
    }

    #[test]
    fn plan_allocates_the_paper_scenario() {
        let app = app();
        let body = r#"{"method": "hybrid", "total_clients": 800, "slack": 1.1}"#;
        let r = app.handle(&request("POST", "/plan", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let j = body_json(&r);
        assert_eq!(j.get("total_clients").and_then(Json::as_u32), Some(800));
        let ratio = j.get("placement_ratio").and_then(Json::as_f64).unwrap();
        assert!(ratio > 0.0 && ratio <= 1.0);
        let servers = j.get("servers").and_then(Json::as_arr).unwrap();
        assert!(!servers.is_empty());
        for s in servers {
            assert!(s.get("prediction").and_then(|p| p.get("mrt_ms")).is_some());
        }
    }

    #[test]
    fn metrics_expose_request_counters() {
        let _scope = metrics::Scope::new();
        let guard = _scope.enter();
        let app = app();
        app.handle(&request("GET", "/healthz", ""));
        let r = app.handle(&request("GET", "/metrics", ""));
        assert_eq!(r.status, 200);
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("serve_http_requests"), "{text}");
        assert!(
            text.contains("serve_model_version{method=\"historical\",model_version=\"0\"} 0"),
            "{text}"
        );
        drop(guard);
    }

    /// A synthetic AppServF measurement sweep as `/observe` batch items.
    fn observe_batch(count: usize, scale: f64) -> String {
        let m = 1_000.0 / 7_020.0;
        let n_star = 186.0 / m;
        let items: Vec<String> = (0..count)
            .map(|i| {
                let frac = 0.15 + 1.45 * ((i % 29) as f64) / 28.0;
                let n = (frac * n_star).round().max(1.0);
                let mrt = if frac < 1.0 {
                    scale * 20.0 * (1.8 * frac).exp()
                } else {
                    scale * (7.0 * n / 1.3 - 6_000.0).max(100.0)
                };
                let tput = if frac <= 0.9 { m * n } else { 0.0 };
                format!(
                    r#"{{"server": "AppServF", "clients": {}, "mrt_ms": {mrt}, "throughput_rps": {tput}, "timestamp_us": {i}}}"#,
                    n as u32
                )
            })
            .collect();
        format!(r#"{{"batch": [{}]}}"#, items.join(", "))
    }

    fn predict_historical_mrt(app: &App) -> (f64, bool) {
        let body = r#"{"method": "historical", "clients": 300, "admission": false}"#;
        let r = app.handle(&request("POST", "/predict", body));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let j = body_json(&r);
        (
            j.get("prediction")
                .and_then(|p| p.get("mrt_ms"))
                .and_then(Json::as_f64)
                .unwrap(),
            j.get("cached").and_then(Json::as_bool).unwrap(),
        )
    }

    /// An arrival far enough back that a 1 ms budget has run out by the
    /// time the request reaches the dispatcher.
    fn late_arrival() -> Instant {
        Instant::now() - Duration::from_millis(50)
    }

    #[test]
    fn deadline_miss_degrades_to_the_historical_model_bit_for_bit() {
        let _scope = metrics::Scope::new();
        let guard = _scope.enter();
        let app = app();
        let body = r#"{"method": "lqns", "clients": 300, "deadline_ms": 1, "admission": false}"#;
        let degraded = |by: &str| {
            let r = app.handle_at(&request("POST", "/predict", body), late_arrival());
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            let j = body_json(&r);
            assert_eq!(j.get("mode").and_then(Json::as_str), Some("degraded"));
            assert_eq!(j.get("served_by").and_then(Json::as_str), Some(by));
            mrt_of(&r)
        };

        // Before any /observe the historical model is not calibrated, so
        // the hybrid rung answers — the same bits as a method=hybrid request.
        let hybrid = degraded("hybrid");
        let pure = app.handle(&request(
            "POST",
            "/predict",
            r#"{"method": "hybrid", "clients": 300, "admission": false}"#,
        ));
        assert_eq!(hybrid.to_bits(), mrt_of(&pure).to_bits());

        // Calibrate the historical model through /observe; now it answers.
        let r = app.handle(&request("POST", "/observe", &observe_batch(128, 1.0)));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let historical = degraded("historical");

        // The degraded answer and a pure method=historical request for
        // the same workload must be the same bits — the fallback serves
        // through the very cache the historical method uses.
        let (pure, _) = predict_historical_mrt(&app);
        assert_eq!(historical.to_bits(), pure.to_bits());

        // Both expired requests were shed unsolved, each counted once.
        assert_eq!(app.host.lqns.len(), 0);
        assert_eq!(
            metrics::counter(names::SERVE_DEADLINE_EXPIRED_TOTAL).get(),
            2
        );
        drop(guard);
    }

    #[test]
    fn saturated_queue_degrades_to_hybrid() {
        // Misses that waited behind a saturated dispatch queue reach the
        // dispatcher with their budget spent: each one leaves the shard,
        // is shed unsolved, and — before any /observe — the hybrid rung
        // answers it with the bits a method=hybrid request gets.
        let app = app();
        for clients in [150u32, 300, 450] {
            let body = format!(
                r#"{{"method": "lqns", "clients": {clients}, "deadline_ms": 1, "admission": false}}"#
            );
            let req = request("POST", "/predict", &body);
            assert!(
                app.try_handle(&req, late_arrival()).is_none(),
                "an lqns miss must queue for a dispatcher"
            );
            let r = app.handle_at(&req, late_arrival());
            assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
            let j = body_json(&r);
            assert_eq!(j.get("mode").and_then(Json::as_str), Some("degraded"));
            assert_eq!(j.get("served_by").and_then(Json::as_str), Some("hybrid"));
            let pure = app.handle(&request(
                "POST",
                "/predict",
                &format!(r#"{{"method": "hybrid", "clients": {clients}, "admission": false}}"#),
            ));
            assert_eq!(mrt_of(&r).to_bits(), mrt_of(&pure).to_bits());
        }
        assert_eq!(app.host.lqns.len(), 0, "every expired miss was shed");
    }

    #[test]
    fn deadline_with_no_fallback_answers_504() {
        let mut host = ModelHost::paper(&CacheOptions::default());
        host.hybrid = None; // nothing on the degraded ladder can answer
        let app = App::new(
            host,
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(64),
            Shutdown::new(),
        );
        let body = r#"{"method": "lqns", "clients": 350, "deadline_ms": 1}"#;
        let r = app.handle_at(&request("POST", "/predict", body), late_arrival());
        assert_eq!(r.status, 504, "{:?}", String::from_utf8_lossy(&r.body));
        assert_eq!(app.host.lqns.len(), 0, "shed unsolved");

        // deadline_ms must be a non-negative number.
        let r = app.handle(&request(
            "POST",
            "/predict",
            r#"{"method": "lqns", "clients": 10, "deadline_ms": -5}"#,
        ));
        assert_eq!(r.status, 400, "{:?}", String::from_utf8_lossy(&r.body));
    }

    #[test]
    fn observe_refits_and_flips_historical_on() {
        let app = app();
        // No model yet: historical 404s and /models shows version 0.
        assert_eq!(
            app.handle(&request(
                "POST",
                "/predict",
                r#"{"clients": 10, "method": "historical"}"#
            ))
            .status,
            404
        );
        let j = body_json(&app.handle(&request("GET", "/models", "")));
        assert_eq!(j.get("current").and_then(Json::as_u32), Some(0));

        // One default refit window of observations triggers the first fit.
        let r = app.handle(&request("POST", "/observe", &observe_batch(128, 1.0)));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let j = body_json(&r);
        assert_eq!(j.get("accepted").and_then(Json::as_u32), Some(128));
        assert!(j.get("model_version").and_then(Json::as_u32).unwrap() >= 1);
        let refits = j.get("refits").and_then(Json::as_arr).unwrap();
        assert!(!refits.is_empty(), "window refit expected");

        // Historical serves now, and /models records the version history.
        let (mrt, cached) = predict_historical_mrt(&app);
        assert!(mrt > 0.0);
        assert!(!cached);
        let j = body_json(&app.handle(&request("GET", "/models", "")));
        assert!(j.get("current").and_then(Json::as_u32).unwrap() >= 1);
        assert_eq!(j.get("observations").and_then(Json::as_u32), Some(128));
        assert!(!j.get("versions").and_then(Json::as_arr).unwrap().is_empty());
    }

    #[test]
    fn refit_swaps_the_model_without_flushing_the_cache() {
        let app = app();
        app.handle(&request("POST", "/observe", &observe_batch(128, 1.0)));
        let (before, _) = predict_historical_mrt(&app);
        let (_, cached) = predict_historical_mrt(&app);
        assert!(cached, "second identical predict must hit the cache");

        // A slower regime: the next window refits, the swap re-keys the
        // cache, and the same request re-solves against the new model.
        let r = app.handle(&request("POST", "/observe", &observe_batch(128, 1.6)));
        let j = body_json(&r);
        assert!(
            !j.get("refits").and_then(Json::as_arr).unwrap().is_empty(),
            "{j:?}"
        );
        let (after, cached) = predict_historical_mrt(&app);
        assert!(!cached, "post-swap predict must miss the stale entry");
        assert!(
            (after - before).abs() > 1e-9,
            "post-refit prediction must differ: {before} vs {after}"
        );
    }

    #[test]
    fn admin_threshold_hot_reloads_the_admission_rule() {
        let app = app();
        assert_eq!(app.admission.threshold(), 0.05);

        // A workload that trips the default 5 % threshold ...
        let predict = r#"{"method": "lqns", "server": "AppServS", "clients": 900, "goal_ms": 150}"#;
        assert_eq!(
            app.handle(&request("POST", "/predict", predict)).status,
            503
        );

        // ... 400s on bad reload bodies (threshold unchanged) ...
        for bad in [
            "{not json",
            r#"{"threshold": "high"}"#,
            r#"{"threshold": 1.0}"#,
            r#"{"threshold": -0.5}"#,
            r#"{}"#,
        ] {
            assert_eq!(
                app.handle(&request("POST", "/admin/threshold", bad)).status,
                400,
                "{bad}"
            );
        }
        assert_eq!(app.admission.threshold(), 0.05);

        // ... and a valid reload takes effect on the very next request.
        let r = app.handle(&request(
            "POST",
            "/admin/threshold",
            r#"{"threshold": 0.9}"#,
        ));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let j = body_json(&r);
        assert_eq!(j.get("threshold").and_then(Json::as_f64), Some(0.9));
        assert_eq!(j.get("previous").and_then(Json::as_f64), Some(0.05));
        assert_eq!(
            app.handle(&request("POST", "/predict", predict)).status,
            503
        );
        // Loosening all the way readmits the same workload.
        let light = r#"{"method": "lqns", "server": "AppServS", "clients": 100, "goal_ms": 150}"#;
        app.handle(&request(
            "POST",
            "/admin/threshold",
            r#"{"threshold": 0.0}"#,
        ));
        assert_eq!(app.handle(&request("POST", "/predict", light)).status, 200);

        // Wrong method answers 405 with Allow.
        let r = app.handle(&request("GET", "/admin/threshold", ""));
        assert_eq!((r.status, r.allow.as_deref()), (405, Some("POST")));
    }

    #[test]
    fn healthz_and_metrics_expose_control_plane_gauges() {
        let _scope = metrics::Scope::new();
        let guard = _scope.enter();
        let app = app();
        // Drive a few predicts so the arrival meter has counted something.
        for _ in 0..3 {
            app.handle(&request(
                "POST",
                "/predict",
                r#"{"method": "hybrid", "clients": 50}"#,
            ));
        }
        assert_eq!(app.arrivals.total(), 3);
        let j = body_json(&app.handle(&request("GET", "/healthz", "")));
        assert_eq!(j.get("threshold").and_then(Json::as_f64), Some(0.05));
        let arrival = j.get("arrival").expect("healthz carries arrival rates");
        for key in ["total_rps", "browse_rps", "buy_rps"] {
            assert!(arrival.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
        let r = app.handle(&request("GET", "/metrics", ""));
        let text = String::from_utf8(r.body).unwrap();
        for line in [
            "serve_arrival_rate_rps{class=\"total\"}",
            "serve_arrival_rate_rps{class=\"browse\"}",
            "serve_arrival_rate_rps{class=\"buy\"}",
            "serve_dispatch_queue_depth 0",
            "serve_admission_threshold 0.05",
        ] {
            assert!(text.contains(line), "missing {line} in:\n{text}");
        }
        drop(guard);
    }

    #[test]
    fn observe_validates_input() {
        let app = app();
        // Unknown server.
        assert_eq!(
            app.handle(&request(
                "POST",
                "/observe",
                r#"{"server": "Cray", "clients": 5, "mrt_ms": 10}"#
            ))
            .status,
            400
        );
        // Missing fields.
        assert_eq!(
            app.handle(&request("POST", "/observe", r#"{"server": "AppServF"}"#))
                .status,
            400
        );
        // Bad values inside a batch name the offending index.
        let r = app.handle(&request(
            "POST",
            "/observe",
            r#"{"batch": [{"server": "AppServF", "clients": 5, "mrt_ms": 10}, {"server": "AppServF", "clients": 5, "mrt_ms": -3}]}"#,
        ));
        assert_eq!(r.status, 400);
        assert!(
            String::from_utf8_lossy(&r.body).contains("batch[1]"),
            "{:?}",
            String::from_utf8_lossy(&r.body)
        );
        // Empty batch.
        assert_eq!(
            app.handle(&request("POST", "/observe", r#"{"batch": []}"#))
                .status,
            400
        );
        // A single valid observation is accepted without the batch form.
        let r = app.handle(&request(
            "POST",
            "/observe",
            r#"{"server": "AppServF", "clients": 250, "mrt_ms": 42.5}"#,
        ));
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        assert_eq!(
            body_json(&r).get("accepted").and_then(Json::as_u32),
            Some(1)
        );
    }
}
