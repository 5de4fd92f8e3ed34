//! The three workloads: their inputs, topologies, warm-up and the
//! correctness checks on their answers.
//!
//! * `predict-hot` — one node, `/predict` with method `lqns` over a small
//!   fixed key set: after warm-up every request is a cache hit answered
//!   inline by the reactor (I/O, framing, JSON, cache peek).
//! * `predict-cold` — one node, `/predict` with method `lqns`, every
//!   request a distinct operating point: every request misses the cache
//!   and pays a dispatch plus an AMVA solve.
//! * `routed-mixed` — `perfpred-router` over a primary and a follower:
//!   historical, hybrid and lqns predictions spread by the ring, plus
//!   `/observe` batches pinned to the primary, shipped to the follower,
//!   and refitting the historical model as they land.

use crate::client::{self, Reply};
use crate::fixture::{self, ObsStream, SERVERS};
use crate::procs::{local, CpuSplit, Daemon};
use crate::rng::Rng;
use perfpred_core::{Json, PerformanceModel, ServerArch, Workload as Load};
use perfpred_hybrid::HybridModel;
use perfpred_lqns::trade::TradeLqnConfig;
use perfpred_lqns::LqnPredictor;
use perfpred_store::{LogOptions, ObservationStore, RefitOptions, RegistryModel};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Thread counts every serve node runs with, fixed here rather than
/// derived from the host's CPU count; reactor shards first.
pub const NODE_THREADS: [(&str, u32); 3] =
    [("--reactor-shards", 1), ("--workers", 1), ("--solvers", 1)];
/// Prediction-cache bound of every node. `predict-cold` fills it within
/// its first saturated windows, so peak memory reflects a full cache
/// rather than how many distinct keys a run got through.
pub const CACHE_CAPACITY: usize = 16_384;
/// Refit settings passed to every node and used for in-process replay.
const REFIT_WINDOW: usize = 128;
const DRIFT_THRESHOLD: f64 = 0.25;
/// Keys in `predict-hot`'s working set.
const HOT_KEYS: usize = 24;
/// Requests `predict-cold` solves during warm-up.
const COLD_WARMUP: usize = 64;
/// Share of `routed-mixed` operations that are `/observe` batches, and
/// observations per batch.
const OBSERVE_SHARE: f64 = 0.1;
pub const OBSERVE_BATCH: usize = 8;
/// One in this many predictions is kept and re-computed in-process.
const SAMPLE_EVERY: u64 = 16;
/// Predictions per method in `routed-mixed`'s end-of-run sample.
const END_SAMPLE: usize = 12;
/// Upper bound on the saturated rate a distinct-key workload can reach,
/// used to size its list of distinct operations.
const COLD_MAX_RPS: f64 = 6_000.0;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cache hits on one node.
    PredictHot,
    /// Cache misses on one node.
    PredictCold,
    /// Router, primary and follower; reads and writes.
    RoutedMixed,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Kind, String> {
        match s {
            "predict-hot" => Ok(Kind::PredictHot),
            "predict-cold" => Ok(Kind::PredictCold),
            "routed-mixed" => Ok(Kind::RoutedMixed),
            other => Err(format!(
                "unknown workload '{other}' (expected predict-hot, predict-cold or routed-mixed)"
            )),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PredictHot => "predict-hot",
            Kind::PredictCold => "predict-cold",
            Kind::RoutedMixed => "routed-mixed",
        }
    }

    /// Offered rate of the fixed-rate window, requests per second; well
    /// below each workload's saturated rate on a 2-core host.
    pub fn fixed_rate(self) -> f64 {
        match self {
            Kind::PredictHot => 2_000.0,
            Kind::PredictCold => 400.0,
            Kind::RoutedMixed => 400.0,
        }
    }
}

/// A prediction method on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Layered queuing.
    Lqns,
    /// Advanced hybrid.
    Hybrid,
    /// Historical, from the registry the observation log feeds.
    Historical,
}

impl Method {
    fn name(self) -> &'static str {
        match self {
            Method::Lqns => "lqns",
            Method::Hybrid => "hybrid",
            Method::Historical => "historical",
        }
    }
}

/// One operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Req {
    /// `POST /predict`.
    Predict {
        /// Method asked for.
        method: Method,
        /// Index into [`SERVERS`].
        server: usize,
        /// Total clients.
        clients: u32,
        /// Buy percentage.
        buy_pct: u32,
    },
    /// `POST /observe` with a batch of [`OBSERVE_BATCH`] observations.
    Observe,
}

impl Req {
    fn predict(method: Method, server: usize, clients: u32, buy_pct: u32) -> Req {
        Req::Predict {
            method,
            server,
            clients,
            buy_pct,
        }
    }

    /// The cache identity of a prediction: server plus per-class client
    /// counts (two buy percentages can round to the same split).
    fn cache_key(self) -> Option<(Method, usize, u32, u32)> {
        match self {
            Req::Predict {
                method,
                server,
                clients,
                buy_pct,
            } => {
                let buy = (f64::from(clients) * f64::from(buy_pct) / 100.0).round() as u32;
                Some((method, server, clients - buy, buy))
            }
            Req::Observe => None,
        }
    }

    /// The request bytes; an `/observe` batch draws its observations
    /// from `observations`.
    pub fn render(self, observations: &mut ObsStream) -> Vec<u8> {
        match self {
            Req::Predict { .. } => self.predict_bytes(),
            Req::Observe => client::post("/observe", &observations.batch_body(OBSERVE_BATCH)),
        }
    }

    /// The request bytes of a prediction (empty for a write).
    pub fn predict_bytes(self) -> Vec<u8> {
        let Req::Predict {
            method,
            server,
            clients,
            buy_pct,
        } = self
        else {
            return Vec::new();
        };
        client::post(
            "/predict",
            &format!(
                r#"{{"method":"{}","server":"{}","clients":{clients},"buy_pct":{buy_pct}}}"#,
                method.name(),
                SERVERS[server]
            ),
        )
    }

    /// Whether a served answer can be re-computed in-process after the
    /// run: historical answers depend on the model version current when
    /// they were served, so only the end-of-run sample checks them.
    pub fn replayable(self) -> bool {
        matches!(
            self,
            Req::Predict {
                method: Method::Lqns | Method::Hybrid,
                ..
            }
        )
    }
}

/// A rendered operation list.
#[derive(Default)]
pub struct Ops {
    /// What each operation asks.
    pub reqs: Vec<Req>,
    /// Each operation's request bytes.
    pub bytes: Vec<Vec<u8>>,
}

impl Ops {
    fn new(reqs: Vec<Req>, observations: &mut ObsStream) -> Ops {
        let bytes = reqs.iter().map(|r| r.render(observations)).collect();
        Ops { reqs, bytes }
    }
}

/// Every input of one run, generated from the seed before any clock
/// starts. A run alternates rounds of a fixed-rate window and a
/// saturated window, so both sample the whole run.
pub struct Plan {
    /// Warm-up operations (part of set-up).
    pub warmup: Ops,
    /// Fixed-rate operations of every round, in order.
    pub fixed: Ops,
    /// Each round's arrival offsets (seconds from the round's start);
    /// round `r` sends the next `schedules[r].len()` operations of
    /// `fixed`.
    pub schedules: Vec<Vec<f64>>,
    /// Saturated operations, consumed in order across rounds.
    pub saturated: Ops,
    /// Whether the saturated windows may repeat operations.
    pub wrap: bool,
}

/// Builds the plan for `kind` and `seed`: `rounds` rounds whose
/// fixed-rate window lasts `fixed_s` and saturated window `saturated_s`.
pub fn plan(kind: Kind, seed: u64, rounds: usize, fixed_s: f64, saturated_s: f64) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let schedules: Vec<Vec<f64>> = (0..rounds)
        .map(|_| crate::load::poisson_schedule(&mut rng, kind.fixed_rate(), fixed_s))
        .collect();
    let n: usize = schedules.iter().map(Vec::len).sum();
    let mut observations = ObsStream::new(seed, 2);
    let mut pick = Rng::new(seed, 3);
    let (warmup, fixed, saturated, wrap) = match kind {
        Kind::PredictHot => {
            let keys = distinct_keys(&mut pick, HOT_KEYS, 1500);
            let draw = |rng: &mut Rng, n: usize| -> Vec<Req> {
                (0..n)
                    .map(|_| keys[rng.range(0, keys.len() as u64) as usize])
                    .collect()
            };
            // Warm-up solves every key, then hits each once more.
            let warm: Vec<Req> = keys.iter().chain(keys.iter()).copied().collect();
            let fixed = draw(&mut pick, n);
            let sat = draw(&mut pick, 4096);
            (warm, fixed, sat, true)
        }
        Kind::PredictCold => {
            let sat_n = (COLD_MAX_RPS * saturated_s * rounds as f64) as usize + 64;
            let keys = distinct_keys(&mut pick, COLD_WARMUP + n + sat_n, 3000);
            let (warm, rest) = keys.split_at(COLD_WARMUP);
            let (fixed, sat) = rest.split_at(n);
            (warm.to_vec(), fixed.to_vec(), sat.to_vec(), false)
        }
        Kind::RoutedMixed => {
            let draw =
                |rng: &mut Rng, n: usize| -> Vec<Req> { (0..n).map(|_| routed_req(rng)).collect() };
            // Warm-up touches every predict key once, plus one write.
            let mut warm = Vec::new();
            for method in [Method::Lqns, Method::Hybrid, Method::Historical] {
                for server in 0..SERVERS.len() {
                    for clients in (50..=1600).step_by(50) {
                        for buy_pct in [0, 10] {
                            warm.push(Req::predict(method, server, clients, buy_pct));
                        }
                    }
                }
            }
            warm.push(Req::Observe);
            let fixed = draw(&mut pick, n);
            let sat = draw(&mut pick, 8192);
            (warm, fixed, sat, true)
        }
    };
    Plan {
        warmup: Ops::new(warmup, &mut observations),
        fixed: Ops::new(fixed, &mut observations),
        schedules,
        saturated: Ops::new(saturated, &mut observations),
        wrap,
    }
}

/// `n` lqns predictions with pairwise distinct cache keys.
fn distinct_keys(rng: &mut Rng, n: usize, max_clients: u64) -> Vec<Req> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let req = Req::predict(
            Method::Lqns,
            rng.range(0, SERVERS.len() as u64) as usize,
            rng.range(1, max_clients + 1) as u32,
            rng.range(0, 31) as u32,
        );
        if seen.insert(req.cache_key()) {
            out.push(req);
        }
    }
    out
}

/// One `routed-mixed` operation: 10 % writes, the rest predictions.
fn routed_req(rng: &mut Rng) -> Req {
    if rng.unit() < OBSERVE_SHARE {
        return Req::Observe;
    }
    routed_predict(rng)
}

/// One `routed-mixed` read: 40 % historical, 30 % hybrid, 30 % lqns over
/// 3 servers × 32 client counts × 2 mixes.
fn routed_predict(rng: &mut Rng) -> Req {
    let u = rng.unit();
    let method = if u < 0.4 {
        Method::Historical
    } else if u < 0.7 {
        Method::Hybrid
    } else {
        Method::Lqns
    };
    Req::predict(
        method,
        rng.range(0, SERVERS.len() as u64) as usize,
        50 * rng.range(1, 33) as u32,
        10 * rng.range(0, 2) as u32,
    )
}

/// The in-process models answers are checked against.
pub struct Reference {
    lqn: LqnPredictor,
    hybrid: HybridModel,
    archs: [ServerArch; 3],
}

impl Reference {
    /// The paper-mode models every node hosts.
    pub fn new() -> Reference {
        let lqn = LqnPredictor::new(TradeLqnConfig::paper_table2());
        let archs = fixture::server_archs();
        let hybrid = HybridModel::advanced(&lqn, &archs, &Default::default())
            .expect("hybrid calibration from the paper LQN");
        Reference { lqn, hybrid, archs }
    }

    /// The answer `req` should get; historical needs the registry the
    /// node served from.
    pub fn mrt_ms(&self, req: Req, historical: Option<&RegistryModel>) -> Result<f64, String> {
        let Req::Predict {
            method,
            server,
            clients,
            buy_pct,
        } = req
        else {
            return Err("not a prediction".into());
        };
        let arch = &self.archs[server];
        let load = Load::with_buy_pct(clients, f64::from(buy_pct));
        let p = match method {
            Method::Lqns => self.lqn.predict(arch, &load),
            Method::Hybrid => self.hybrid.predict(arch, &load),
            Method::Historical => historical
                .ok_or("no registry to check a historical answer against")?
                .predict(arch, &load),
        };
        p.map(|p| p.mrt_ms).map_err(|e| e.to_string())
    }

    /// The lqns predictor (for in-process layer timing).
    pub fn lqn(&self) -> &LqnPredictor {
        &self.lqn
    }

    /// The server architecture behind a [`SERVERS`] index.
    pub fn arch(&self, server: usize) -> &ServerArch {
        &self.archs[server]
    }
}

/// Predictions kept for in-process re-computation.
#[derive(Default)]
pub struct Samples(Mutex<Vec<(Req, f64)>>);

impl Samples {
    /// Keeps one served answer.
    pub fn push(&self, req: Req, mrt: f64) {
        self.0.lock().expect("sample list lock").push((req, mrt));
    }

    /// Drains the kept samples.
    pub fn take(&self) -> Vec<(Req, f64)> {
        std::mem::take(&mut *self.0.lock().expect("sample list lock"))
    }
}

/// Whether operation `i` of a window is kept for re-computation.
pub fn sampled(seed: u64, window: u64, i: usize) -> bool {
    Rng::new(seed ^ (i as u64).wrapping_mul(0x9E37), window)
        .next_u64()
        .is_multiple_of(SAMPLE_EVERY)
}

fn contains(hay: &[u8], needle: &str) -> bool {
    hay.windows(needle.len()).any(|w| w == needle.as_bytes())
}

/// Parses `prediction.mrt_ms` out of a `/predict` reply.
pub fn reply_mrt(reply: &Reply) -> Result<f64, String> {
    let doc = Json::parse(&reply.text()).map_err(|e| format!("bad JSON: {e}"))?;
    doc.get("prediction")
        .and_then(|p| p.get("mrt_ms"))
        .and_then(Json::as_f64)
        .ok_or_else(|| "no prediction.mrt_ms".into())
}

/// The cheap per-reply check every operation gets: status 200, the
/// normal serving mode, the method asked for (or the batch fully
/// accepted). `canonical`, when given, is the exact body expected.
pub fn check_reply(req: Req, reply: &Reply, canonical: Option<&[u8]>) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "{req:?}: status {}: {}",
            reply.status,
            reply.text()
        ));
    }
    let ok = match (req, canonical) {
        (_, Some(body)) => reply.body == body,
        (Req::Predict { method, .. }, None) => {
            contains(&reply.body, "\"mode\": \"normal\"")
                && contains(
                    &reply.body,
                    &format!("\"served_by\": \"{}\"", method.name()),
                )
        }
        (Req::Observe, None) => contains(&reply.body, &format!("\"accepted\": {OBSERVE_BATCH}")),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{req:?}: unexpected reply {}", reply.text()))
    }
}

/// Re-computes kept samples in-process; returns one message per answer
/// that is not bit-equal.
pub fn verify(
    reference: &Reference,
    samples: &[(Req, f64)],
    historical: Option<&RegistryModel>,
) -> Vec<String> {
    samples
        .iter()
        .filter_map(|&(req, served)| match reference.mrt_ms(req, historical) {
            Ok(want) if want.to_bits() == served.to_bits() => None,
            Ok(want) => Some(format!(
                "{req:?}: served mrt_ms {served}, in-process {want}"
            )),
            Err(e) => Some(format!("{req:?}: in-process prediction failed: {e}")),
        })
        .collect()
}

/// The running daemons of one set-up.
pub struct Fleet {
    /// Router first, so teardown stops traffic before nodes.
    pub daemons: Vec<Daemon>,
    /// Where the load goes.
    pub entry: SocketAddr,
    /// Serve nodes' HTTP addresses, primary first.
    pub nodes: Vec<SocketAddr>,
    /// Store directory of each node, primary first.
    pub stores: Vec<PathBuf>,
    /// Exact answer bodies of `predict-hot`'s keys, captured in warm-up.
    pub canonical: Vec<(Req, Vec<u8>)>,
    /// Warm-up answers kept for re-computation.
    pub samples: Vec<(Req, f64)>,
    /// Follower catch-up after the warm-up write, ms (`routed-mixed`).
    pub catchup_ms: f64,
}

impl Fleet {
    /// Total CPU time of all daemons, ns.
    pub fn cpu_ns(&self) -> u64 {
        self.daemons.iter().map(Daemon::cpu_ns).sum()
    }

    /// CPU time of each daemon, ns.
    pub fn cpu_each(&self) -> Vec<u64> {
        self.daemons.iter().map(Daemon::cpu_ns).collect()
    }

    /// Stops every daemon (router first) and reaps it.
    pub fn stop(&mut self) {
        for d in &mut self.daemons {
            d.stop();
        }
    }
}

fn node_args(dir: &Path, name: &str) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "--port".into(),
        "0".into(),
        "--port-file".into(),
        dir.join(format!("{name}.port")).display().to_string(),
        "--model".into(),
        "paper".into(),
        "--store-dir".into(),
        dir.join(format!("{name}-store")).display().to_string(),
        "--refit-window".into(),
        REFIT_WINDOW.to_string(),
        "--drift-threshold".into(),
        DRIFT_THRESHOLD.to_string(),
        "--cache-capacity".into(),
        CACHE_CAPACITY.to_string(),
    ];
    for (flag, value) in NODE_THREADS {
        args.push(flag.into());
        args.push(value.to_string());
    }
    args
}

fn spawn_node(
    cpus: CpuSplit,
    bin_dir: &Path,
    dir: &Path,
    name: &str,
    extra: &[String],
) -> Result<(Daemon, u16), String> {
    let mut args = node_args(dir, name);
    args.extend_from_slice(extra);
    let mut d = Daemon::spawn(name, &bin_dir.join("perfpred-serve"), &args, dir, cpus)
        .map_err(|e| e.to_string())?;
    let port = d
        .wait_port(&dir.join(format!("{name}.port")))
        .map_err(|e| e.to_string())?;
    Ok((d, port))
}

/// Starts `kind`'s daemons on fresh copies of `fixture` under `dir`,
/// warms them up with `warmup`, and returns the fleet with the set-up
/// time: from the first spawn until the warm-up's last answer.
pub fn start(
    kind: Kind,
    cpus: CpuSplit,
    bin_dir: &Path,
    dir: &Path,
    fixture: &Path,
    warmup: &Ops,
    seed: u64,
) -> Result<(Fleet, f64), String> {
    let names: &[&str] = match kind {
        Kind::RoutedMixed => &["primary", "follower"],
        _ => &["node"],
    };
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for name in names {
        fixture::copy_fixture(fixture, &dir.join(format!("{name}-store")))
            .map_err(|e| format!("copy fixture: {e}"))?;
    }
    let stores = names
        .iter()
        .map(|n| dir.join(format!("{n}-store")))
        .collect();

    let started = Instant::now();
    let mut fleet = match kind {
        Kind::PredictHot | Kind::PredictCold => {
            let (node, port) = spawn_node(cpus, bin_dir, dir, "node", &[])?;
            Fleet {
                daemons: vec![node],
                entry: local(port),
                nodes: vec![local(port)],
                stores,
                canonical: Vec::new(),
                samples: Vec::new(),
                catchup_ms: 0.0,
            }
        }
        Kind::RoutedMixed => start_routed(cpus, bin_dir, dir, stores)?,
    };
    warm_up(kind, &mut fleet, warmup, seed)?;
    Ok((fleet, started.elapsed().as_secs_f64()))
}

fn start_routed(
    cpus: CpuSplit,
    bin_dir: &Path,
    dir: &Path,
    stores: Vec<PathBuf>,
) -> Result<Fleet, String> {
    let cluster = |name: &str, role: &str| -> Vec<String> {
        vec![
            "--cluster-node".into(),
            name.into(),
            "--cluster-role".into(),
            role.into(),
            "--repl-port".into(),
            "0".into(),
            "--repl-port-file".into(),
            dir.join(format!("{name}.repl")).display().to_string(),
        ]
    };
    let (mut primary, p_port) = spawn_node(
        cpus,
        bin_dir,
        dir,
        "primary",
        &cluster("primary", "primary"),
    )?;
    let p_repl = primary
        .wait_port(&dir.join("primary.repl"))
        .map_err(|e| e.to_string())?;
    let mut follower_args = cluster("follower", "follower");
    follower_args.extend(["--repl-peers".into(), format!("127.0.0.1:{p_repl}")]);
    let (follower, f_port) = spawn_node(cpus, bin_dir, dir, "follower", &follower_args)?;
    let router_args: Vec<String> = vec![
        "--port".into(),
        "0".into(),
        "--port-file".into(),
        dir.join("router.port").display().to_string(),
        "--upstreams".into(),
        format!("127.0.0.1:{p_port},127.0.0.1:{f_port}"),
        "--probe-interval-ms".into(),
        "100".into(),
    ];
    let mut router = Daemon::spawn(
        "router",
        &bin_dir.join("perfpred-router"),
        &router_args,
        dir,
        cpus,
    )
    .map_err(|e| e.to_string())?;
    let r_port = router
        .wait_port(&dir.join("router.port"))
        .map_err(|e| e.to_string())?;
    Ok(Fleet {
        daemons: vec![router, follower, primary],
        entry: local(r_port),
        nodes: vec![local(p_port), local(f_port)],
        stores,
        canonical: Vec::new(),
        samples: Vec::new(),
        catchup_ms: 0.0,
    })
}

/// Polls `probe` until it returns `Some`, for at most `limit`.
fn poll<T>(limit: Duration, what: &str, mut probe: impl FnMut() -> Option<T>) -> Result<T, String> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(v) = probe() {
            return Ok(v);
        }
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn get_json(addr: SocketAddr, path: &str) -> Option<Json> {
    let reply = client::call(addr, &client::get(path)).ok()?;
    (reply.status == 200).then(|| Json::parse(&reply.text()).ok())?
}

/// `reactor_shards` from a node's `/healthz`.
pub fn reactor_shards(addr: SocketAddr) -> Option<u32> {
    get_json(addr, "/healthz")?.get("reactor_shards")?.as_u32()
}

/// `log_records` from a node's `/models`.
pub fn log_records(addr: SocketAddr) -> Option<f64> {
    get_json(addr, "/models")?.get("log_records")?.as_f64()
}

/// Waits until the follower's log is as long as the primary's.
pub fn wait_caught_up(fleet: &Fleet, limit: Duration) -> Result<(), String> {
    poll(limit, "the follower to catch up", || {
        let p = log_records(fleet.nodes[0])?;
        (log_records(fleet.nodes[1])? == p).then_some(())
    })
}

fn warm_up(kind: Kind, fleet: &mut Fleet, warmup: &Ops, seed: u64) -> Result<(), String> {
    if kind == Kind::RoutedMixed {
        // The router learns roles and versions from its probes; reads
        // need both nodes admitted and writes need a known primary.
        poll(
            Duration::from_secs(30),
            "the router to admit both nodes",
            || {
                let status = get_json(fleet.entry, "/router/status")?;
                let ups = status.get("upstreams")?.as_arr()?;
                let admitted = ups
                    .iter()
                    .all(|u| u.get("admitted").and_then(Json::as_bool) == Some(true));
                let primary = ups
                    .iter()
                    .any(|u| u.get("primary").and_then(Json::as_bool) == Some(true));
                (ups.len() == 2 && admitted && primary).then_some(())
            },
        )?;
    }
    let mut conn = client::Conn::connect(fleet.entry).map_err(|e| e.to_string())?;
    let mut observed_at = None;
    for (i, (&req, bytes)) in warmup.reqs.iter().zip(&warmup.bytes).enumerate() {
        let reply = conn
            .send(bytes)
            .map_err(|e| format!("warm-up {req:?}: {e}"))?;
        check_reply(req, &reply, None).map_err(|e| format!("warm-up: {e}"))?;
        if req == Req::Observe {
            observed_at = Some(Instant::now());
        } else if req.replayable() && (kind == Kind::PredictHot || sampled(seed, 0, i)) {
            fleet.samples.push((req, reply_mrt(&reply)?));
        }
        if kind == Kind::PredictHot && i >= warmup.reqs.len() / 2 {
            // Second pass: every key is now a hit; its exact bytes are
            // what every later answer for that key must be.
            fleet.canonical.push((req, reply.body));
        }
    }
    if let Some(t) = observed_at {
        wait_caught_up(fleet, Duration::from_secs(30))?;
        fleet.catchup_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    Ok(())
}

/// Where `routed-mixed`'s end-of-run sample is sent.
pub const END_SOURCES: [&str; 3] = ["router", "primary", "follower"];

/// The end-of-run gate for `routed-mixed`: the follower converges, both
/// nodes' `/models` are byte-identical, and a seeded sample of
/// predictions is answered through the router and by each node directly.
/// Returns each source's answers (in [`END_SOURCES`] order, for
/// in-process re-computation) and any problems.
pub fn routed_end_check(fleet: &Fleet, seed: u64) -> (Vec<Vec<(Req, f64)>>, Vec<String>) {
    let mut problems = Vec::new();
    if let Err(e) = wait_caught_up(fleet, Duration::from_secs(60)) {
        problems.push(e);
    }
    let models: Vec<Option<Vec<u8>>> = fleet
        .nodes
        .iter()
        .map(|&a| {
            client::call(a, &client::get("/models"))
                .ok()
                .map(|r| r.body)
        })
        .collect();
    if models[0].is_none() || models[0] != models[1] {
        problems.push("primary and follower /models differ".into());
    }
    let mut rng = Rng::new(seed, 4);
    let mut answers = vec![Vec::new(); END_SOURCES.len()];
    for method in [Method::Lqns, Method::Hybrid, Method::Historical] {
        for _ in 0..END_SAMPLE {
            let Req::Predict {
                server,
                clients,
                buy_pct,
                ..
            } = routed_predict(&mut rng)
            else {
                unreachable!("routed_predict only draws predictions");
            };
            let req = Req::predict(method, server, clients, buy_pct);
            let bytes = req.predict_bytes();
            let addrs = std::iter::once(fleet.entry).chain(fleet.nodes.iter().copied());
            for ((addr, source), out) in addrs.zip(END_SOURCES).zip(&mut answers) {
                let answer = client::call(addr, &bytes)
                    .map_err(|e| e.to_string())
                    .and_then(|reply| {
                        check_reply(req, &reply, None)?;
                        reply_mrt(&reply)
                    });
                match answer {
                    Ok(mrt) => out.push((req, mrt)),
                    Err(e) => problems.push(format!("{source}: {e}")),
                }
            }
        }
    }
    (answers, problems)
}

/// Replays a stopped node's store in-process: the registry its
/// historical answers came from, and the replay time in seconds.
pub fn replay_store(dir: &Path) -> Result<(ObservationStore, f64, u64), String> {
    let opts = RefitOptions {
        refit_window: REFIT_WINDOW,
        drift_threshold: DRIFT_THRESHOLD,
        ..RefitOptions::default()
    };
    let started = Instant::now();
    let (store, report) =
        ObservationStore::open(dir, LogOptions::default(), &fixture::server_archs(), opts)
            .map_err(|e| format!("replay {}: {e}", dir.display()))?;
    Ok((store, started.elapsed().as_secs_f64(), report.records))
}
