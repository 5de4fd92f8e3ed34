//! Load generator for the `perfpred-serve` daemon: closed-loop by
//! default, open-loop with `--rate`.
//!
//! **Closed loop** — N client threads each run the classic cycle: think
//! (exponential, [`SimRng::exp`]) → `POST /predict` over a keep-alive
//! connection → record the response latency. The key space is a small set
//! of client counts, so after a warm-up pass every request rides the
//! daemon's cache-hit path — the §8.5 "historical predictions answer
//! online" regime the daemon exists for.
//!
//! **Open loop** (`--rate R`) — arrivals follow a seeded Poisson process
//! at R req/s, split evenly across the sender threads, each round-robining
//! over its share of `--connections` keep-alive sockets. Latency is
//! measured from each request's *scheduled* arrival instant, not from the
//! moment the sender got around to writing it, so a stalled server inflates
//! the recorded tail instead of silently pausing the clock (the
//! coordinated-omission trap closed loops fall into). `--idle-connections`
//! additionally parks that many accepted keep-alive sockets for the whole
//! run — the "p99 with 10k idle connections multiplexed" measurement the
//! reactor core exists for. `--phases "rate@secs,..."` generalises the
//! schedule to a piecewise-constant rate — the surge-then-recede shape
//! the autoscaling control plane is demonstrated against — with each
//! phase's p50/p95/p99 reported separately (a sample belongs to the
//! phase its *scheduled* arrival falls in, so attribution is
//! deterministic even when a slow server makes the sender late).
//!
//! Results (throughput, exact p50/p95/p99 from the merged samples,
//! rejection and error rates) are printed; with `--bench-section NAME`
//! they are also merged into `BENCH.json` under `section.NAME` via
//! [`perfpred_bench::timing::Recorder`]. Without it the file is left
//! alone, so an ad-hoc run never overwrites a recorded section.
//!
//! With `--report-observations` the generator also closes the daemon's
//! continuous-refit loop: the key space spreads across 0.15–1.55 of the
//! server's saturation point, each prediction's `(clients, mrt_ms,
//! throughput_rps)` is fed back to `POST /observe` in batches, and the
//! run ends by reading `GET /models` to report how many model versions
//! the ingested observations produced.
//!
//! The client speaks raw HTTP/1.1 over `TcpStream` on purpose: the bench
//! crate must not depend on `perfpred-serve` (the daemon depends on this
//! crate for calibration), and a generator that hand-rolls its protocol
//! also exercises the daemon's parser from the outside.

use perfpred_bench::timing::Recorder;
use perfpred_core::http::Response;
use perfpred_core::Json;
use perfpred_desim::SimRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
loadgen — closed-loop load generator for perfpred-serve

USAGE: loadgen --port N [OPTIONS]

  --addr HOST:PORT     daemon address (default 127.0.0.1:<--port>)
  --port N             daemon port on 127.0.0.1
  --port-file PATH     read the port from a file the daemon wrote
  --clients N          concurrent closed-loop clients, or sender threads
                       in open-loop mode (default 32)
  --duration-s X       measured seconds after warm-up (default 10)
  --think-ms X         mean exponential think time, 0 = none (default 0.5)
  --rate R             OPEN-LOOP mode: Poisson arrivals at R req/s total
                       (seeded, split across sender threads); latency is
                       measured from each request's scheduled arrival
                       instant, so queueing delay shows up in the tail
                       instead of being coordinated-omitted away
  --phases R@S,R@S,... OPEN-LOOP mode with a time-varying schedule: each
                       phase offers R req/s (Poisson) for S seconds, in
                       order. Total duration is the sum of the phases
                       (--duration-s is ignored); latencies are reported
                       per phase (p50/p95/p99) as well as merged. The
                       autoscaling demo drives its 1 -> 3 -> 1 replica
                       cycle with this flag
  --connections N      keep-alive connections round-robined by the open-
                       loop senders (default: one per sender thread)
  --idle-connections N park N extra accepted keep-alive sockets for the
                       whole run (measures multiplexing cost at high
                       connection counts)
  --bench-section NAME record the results into this BENCH.json section
                       (without it, nothing is written)
  --note KEY=VAL       attach an extra note to the BENCH.json section
                       (repeatable; VAL records as a number when it parses
                       as one — lets an orchestrating script embed
                       companion measurements, e.g. a baseline's req/s)
  --method NAME        prediction method to request (default lqns)
  --server NAME        server architecture to ask about (default AppServF)
  --key-space N        distinct client-count keys cycled through (default 4)
  --goal-ms X          attach an SLA goal to every request (exercises
                       admission control; rejections are counted, not errors)
  --seed N             think-time RNG seed (default 1)
  --quick              2 s / 16 clients smoke settings
  --min-rps X          exit 1 unless measured throughput reaches X
  --report-observations
                       feed each prediction back to POST /observe (keys
                       then span 0.15-1.55 of the server's saturation
                       point, and admission control is bypassed so
                       saturated points still answer)
  --min-refits N       exit 1 unless at least N refits were triggered
                       (implies --report-observations)
  --chaos              chaos mode: clients retry transport resets (the
                       daemon may be running with PERFPRED_FAULTS), count
                       degraded-mode answers, and a probe thread fires
                       malformed/oversized requests at fresh connections
                       checking every byte the daemon answers is valid
                       HTTP
  --min-availability X exit 1 unless the fraction of requests answered 200
                       reaches X (chaos mode's success-rate floor; with
                       --targets it gates the run without implying chaos)
  --targets A,B,...    CLUSTER mode: closed-loop clients fan out across
                       several daemon addresses (e.g. a router plus the
                       nodes behind it). A transport failure retries the
                       next target — counted as a retry, not an error —
                       so a node death costs latency, not availability.
                       Per-target requests/errors/retries/p99 land in the
                       summary (and in BENCH.json with --bench-section),
                       plus the primary's replication lag read from
                       GET /cluster at the end of the run
  --help               print this text
";

#[derive(Debug, Clone)]
struct Config {
    addr: String,
    clients: usize,
    duration: Duration,
    think_ms: f64,
    method: String,
    server: String,
    key_space: usize,
    goal_ms: Option<f64>,
    seed: u64,
    min_rps: Option<f64>,
    report_observations: bool,
    min_refits: Option<u64>,
    chaos: bool,
    min_availability: Option<f64>,
    rate: Option<f64>,
    /// Open-loop `(rate_rps, seconds)` schedule; empty unless `--phases`.
    phases: Vec<(f64, f64)>,
    connections: usize,
    idle_connections: usize,
    bench_section: Option<String>,
    notes: Vec<(String, String)>,
    targets: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            addr: String::new(),
            clients: 32,
            duration: Duration::from_secs(10),
            think_ms: 0.5,
            method: "lqns".into(),
            server: "AppServF".into(),
            key_space: 4,
            goal_ms: None,
            seed: 1,
            min_rps: None,
            report_observations: false,
            min_refits: None,
            chaos: false,
            min_availability: None,
            rate: None,
            phases: Vec::new(),
            connections: 0,
            idle_connections: 0,
            bench_section: None,
            notes: Vec::new(),
            targets: Vec::new(),
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn parsed<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse '{raw}'"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--addr" => cfg.addr = value(&mut args, "--addr")?,
            "--port" => {
                let port: u16 = parsed(&value(&mut args, "--port")?, "--port")?;
                cfg.addr = format!("127.0.0.1:{port}");
            }
            "--port-file" => {
                let path = value(&mut args, "--port-file")?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read port file {path}: {e}"))?;
                let port: u16 = parsed(text.trim(), "--port-file")?;
                cfg.addr = format!("127.0.0.1:{port}");
            }
            "--clients" => {
                cfg.clients =
                    parsed::<usize>(&value(&mut args, "--clients")?, "--clients")?.clamp(1, 4096);
            }
            "--duration-s" => {
                let s: f64 = parsed(&value(&mut args, "--duration-s")?, "--duration-s")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--duration-s must be positive".into());
                }
                cfg.duration = Duration::from_secs_f64(s);
            }
            "--think-ms" => {
                let t: f64 = parsed(&value(&mut args, "--think-ms")?, "--think-ms")?;
                if !t.is_finite() || t < 0.0 {
                    return Err("--think-ms must be non-negative".into());
                }
                cfg.think_ms = t;
            }
            "--method" => cfg.method = value(&mut args, "--method")?,
            "--server" => cfg.server = value(&mut args, "--server")?,
            "--key-space" => {
                cfg.key_space =
                    parsed::<usize>(&value(&mut args, "--key-space")?, "--key-space")?.clamp(1, 64);
            }
            "--goal-ms" => {
                cfg.goal_ms = Some(parsed(&value(&mut args, "--goal-ms")?, "--goal-ms")?);
            }
            "--seed" => cfg.seed = parsed(&value(&mut args, "--seed")?, "--seed")?,
            "--quick" => {
                // Smoke settings: short, and no think time — the smoke
                // job measures the daemon's cached-key serving rate, and
                // sleep() granularity on small-HZ kernels would otherwise
                // dominate the closed loop (order-of-10 ms overshoot on a
                // 0.5 ms think).
                cfg.duration = Duration::from_secs(2);
                cfg.clients = 16;
                cfg.think_ms = 0.0;
            }
            "--min-rps" => {
                cfg.min_rps = Some(parsed(&value(&mut args, "--min-rps")?, "--min-rps")?);
            }
            "--report-observations" => cfg.report_observations = true,
            "--min-refits" => {
                cfg.min_refits = Some(parsed(&value(&mut args, "--min-refits")?, "--min-refits")?);
                cfg.report_observations = true;
            }
            "--chaos" => cfg.chaos = true,
            "--min-availability" => {
                let a: f64 = parsed(
                    &value(&mut args, "--min-availability")?,
                    "--min-availability",
                )?;
                if !(0.0..=1.0).contains(&a) {
                    return Err("--min-availability must be in [0, 1]".into());
                }
                cfg.min_availability = Some(a);
            }
            "--targets" => {
                cfg.targets = value(&mut args, "--targets")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if cfg.targets.is_empty() {
                    return Err("--targets wants ADDR,ADDR,...".into());
                }
            }
            "--rate" => {
                let r: f64 = parsed(&value(&mut args, "--rate")?, "--rate")?;
                if !r.is_finite() || r <= 0.0 {
                    return Err("--rate must be positive".into());
                }
                cfg.rate = Some(r);
            }
            "--phases" => {
                let raw = value(&mut args, "--phases")?;
                cfg.phases = raw
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|part| {
                        let (r, s) = part
                            .split_once('@')
                            .ok_or_else(|| format!("--phases wants RATE@SECS,..., got '{part}'"))?;
                        let rate: f64 = parsed(r.trim(), "--phases")?;
                        let secs: f64 = parsed(s.trim(), "--phases")?;
                        if !rate.is_finite() || rate <= 0.0 || !secs.is_finite() || secs <= 0.0 {
                            return Err(format!(
                                "--phases rates and durations must be positive, got '{part}'"
                            ));
                        }
                        Ok((rate, secs))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                if cfg.phases.is_empty() {
                    return Err("--phases wants RATE@SECS,RATE@SECS,...".into());
                }
            }
            "--connections" => {
                cfg.connections =
                    parsed::<usize>(&value(&mut args, "--connections")?, "--connections")?
                        .clamp(1, 65_536);
            }
            "--idle-connections" => {
                cfg.idle_connections = parsed::<usize>(
                    &value(&mut args, "--idle-connections")?,
                    "--idle-connections",
                )?
                .min(60_000);
            }
            "--bench-section" => {
                cfg.bench_section = Some(value(&mut args, "--bench-section")?);
            }
            "--note" => {
                let raw = value(&mut args, "--note")?;
                let (key, val) = raw
                    .split_once('=')
                    .ok_or_else(|| format!("--note wants KEY=VAL, got '{raw}'"))?;
                cfg.notes.push((key.to_string(), val.to_string()));
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    // Outside cluster mode, an availability floor implies the chaos
    // harness (retries + probe thread) exactly as it always has; with
    // --targets the floor gates the fan-out run on its own.
    if cfg.min_availability.is_some() && cfg.targets.is_empty() {
        cfg.chaos = true;
    }
    let open_loop = cfg.rate.is_some() || !cfg.phases.is_empty();
    if cfg.rate.is_some() && !cfg.phases.is_empty() {
        return Err("--rate and --phases are both open-loop schedules (pick one)".into());
    }
    if !cfg.targets.is_empty() {
        if open_loop {
            return Err("--targets is closed-loop only (drop --rate/--phases)".into());
        }
        if cfg.chaos || cfg.report_observations {
            return Err(
                "--targets cannot be combined with --chaos or --report-observations".into(),
            );
        }
        if cfg.addr.is_empty() {
            cfg.addr = cfg.targets[0].clone();
        }
    }
    if cfg.addr.is_empty() {
        return Err("need --addr, --port, --port-file or --targets (try --help)".into());
    }
    if open_loop && (cfg.report_observations || cfg.chaos) {
        return Err(
            "open loop (--rate/--phases) cannot be combined with --report-observations or --chaos"
                .into(),
        );
    }
    if cfg.connections > 0 && !open_loop {
        return Err("--connections only applies to open-loop mode (add --rate or --phases)".into());
    }
    // A phased schedule defines its own total duration.
    if !cfg.phases.is_empty() {
        let total: f64 = cfg.phases.iter().map(|&(_, s)| s).sum();
        cfg.duration = Duration::from_secs_f64(total);
    }
    Ok(cfg)
}

/// The client count behind one key. Plain runs use small distinct cache
/// keys; observation-reporting runs spread keys across 0.15–1.55 of the
/// server's saturation point so the refitter sees both sides of the
/// transition region (the §4.2 two-points-per-equation minimum).
fn clients_for(cfg: &Config, key: usize) -> u32 {
    if !cfg.report_observations {
        return 50 + 50 * (key as u32); // 50, 100, 150, ...
    }
    let mx = perfpred_core::ServerArch::case_study_servers()
        .iter()
        .find(|s| s.name == cfg.server)
        .map_or(186.0, |s| s.max_throughput_rps);
    let n_star = mx / (1_000.0 / 7_020.0);
    let steps = cfg.key_space.max(2) - 1;
    let frac = 0.15 + 1.40 * (key as f64) / steps as f64;
    ((frac * n_star).round() as u32).max(1)
}

/// The request body for one key in the key space.
fn body_for(cfg: &Config, key: usize) -> String {
    let clients = clients_for(cfg, key);
    let goal = cfg
        .goal_ms
        .map(|g| format!(", \"goal_ms\": {g}"))
        .unwrap_or_default();
    // Reporting runs drive saturated operating points on purpose —
    // admission control would 503 them, so it is bypassed.
    let admission = if cfg.report_observations {
        ", \"admission\": false"
    } else {
        ""
    };
    format!(
        "{{\"method\": \"{}\", \"server\": \"{}\", \"clients\": {clients}{goal}{admission}}}",
        cfg.method, cfg.server
    )
}

/// One client's tally.
#[derive(Debug, Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    ok: u64,
    rejected: u64,
    errors: u64,
    observations: u64,
    refits: u64,
    /// 200s served by the degraded ladder (`"mode": "degraded"`).
    degraded: u64,
    /// Transport failures retried in chaos mode (reconnect + resend).
    retries: u64,
    /// Latency samples bucketed by `--phases` index (empty otherwise).
    /// A sample is attributed to the phase its *scheduled* arrival falls
    /// in, so phase boundaries are deterministic under sender lag.
    phase_latencies: Vec<Vec<f64>>,
}

/// A persistent keep-alive connection that reconnects on failure (or
/// when the server closes it), framing replies through the shared codec.
struct Connection {
    addr: String,
    stream: Option<TcpStream>,
    /// Bytes read off `stream` and not yet consumed.
    buf: Vec<u8>,
}

impl Connection {
    fn new(addr: &str) -> Connection {
        Connection {
            addr: addr.to_string(),
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Sends one POST and reads the response; returns the status code.
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<u16> {
        self.post_capture(path, body).map(|(status, _)| status)
    }

    /// Sends one POST and returns `(status, body)`.
    fn post_capture(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.roundtrip(&request)
    }

    /// Sends one GET and returns `(status, body)`.
    fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.roundtrip(&format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n"))
    }

    fn roundtrip(&mut self, request: &str) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(35)))?;
            self.stream = Some(stream);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        let reply = stream
            .write_all(request.as_bytes())
            .and_then(|()| Response::read_from(stream, &mut self.buf));
        match reply {
            Ok((resp, keep_alive)) => {
                if !keep_alive {
                    self.stream = None; // the server closed its side
                }
                Ok((
                    resp.status,
                    String::from_utf8_lossy(&resp.body).into_owned(),
                ))
            }
            Err(e) => {
                self.stream = None; // force reconnect next call
                Err(e)
            }
        }
    }
}

/// Observations a reporting client has predicted but not yet fed back:
/// `(clients, mrt_ms, throughput_rps)`.
type Pending = Vec<(u32, f64, f64)>;

/// How many predictions a reporting client accumulates before one
/// `POST /observe` batch.
const OBSERVE_BATCH: usize = 32;

/// Feeds accumulated predictions back to `POST /observe` as one batch,
/// counting accepted observations and triggered refits into the tally.
fn flush_observations(
    conn: &mut Connection,
    cfg: &Config,
    pending: &mut Pending,
    tally: &mut Tally,
) {
    if pending.is_empty() {
        return;
    }
    let items: Vec<String> = pending
        .iter()
        .map(|(clients, mrt, tput)| {
            format!(
                "{{\"server\": \"{}\", \"clients\": {clients}, \
                 \"mrt_ms\": {mrt}, \"throughput_rps\": {tput}}}",
                cfg.server
            )
        })
        .collect();
    let body = format!("{{\"batch\": [{}]}}", items.join(", "));
    pending.clear();
    match conn.post_capture("/observe", &body) {
        Ok((200, text)) => {
            if let Ok(j) = Json::parse(&text) {
                if let Some(n) = j.get("accepted").and_then(Json::as_f64) {
                    tally.observations += n as u64;
                }
                if let Some(refits) = j.get("refits").and_then(Json::as_arr) {
                    tally.refits += refits.len() as u64;
                }
            }
        }
        _ => tally.errors += 1,
    }
}

/// One client thread's closed loop.
fn client_loop(cfg: &Config, id: usize, stop: &AtomicBool) -> Tally {
    let mut rng = SimRng::seed_from(cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(id as u64));
    let mut conn = Connection::new(&cfg.addr);
    let mut tally = Tally::default();
    let mut key = id % cfg.key_space;
    let mut pending: Pending = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        if cfg.think_ms > 0.0 {
            let think = rng.exp(cfg.think_ms);
            std::thread::sleep(Duration::from_secs_f64(think / 1e3));
        }
        let body = body_for(cfg, key);
        let clients = clients_for(cfg, key);
        key = (key + 1) % cfg.key_space;
        let started = Instant::now();
        // Chaos mode injects accept-time connection resets on purpose;
        // a reset before any response bytes is retryable by definition,
        // so spend up to two reconnects before scoring an error.
        let mut outcome = conn.post_capture("/predict", &body);
        if cfg.chaos {
            let mut attempts = 0;
            while outcome.is_err() && attempts < 2 && !stop.load(Ordering::Relaxed) {
                attempts += 1;
                tally.retries += 1;
                std::thread::sleep(Duration::from_millis(2));
                outcome = conn.post_capture("/predict", &body);
            }
        }
        match outcome {
            Ok((status, text)) => {
                tally
                    .latencies_ms
                    .push(started.elapsed().as_secs_f64() * 1e3);
                match status {
                    200 => {
                        tally.ok += 1;
                        if text.contains("\"mode\": \"degraded\"") {
                            tally.degraded += 1;
                        }
                        if cfg.report_observations {
                            if let Some(p) = Json::parse(&text)
                                .ok()
                                .as_ref()
                                .and_then(|j| j.get("prediction"))
                            {
                                if let (Some(mrt), Some(tput)) = (
                                    p.get("mrt_ms").and_then(Json::as_f64),
                                    p.get("throughput_rps").and_then(Json::as_f64),
                                ) {
                                    pending.push((clients, mrt, tput));
                                }
                            }
                            if pending.len() >= OBSERVE_BATCH {
                                flush_observations(&mut conn, cfg, &mut pending, &mut tally);
                            }
                        }
                    }
                    503 => tally.rejected += 1,
                    _ => tally.errors += 1,
                }
            }
            Err(_) => {
                tally.errors += 1;
                // Brief backoff so a dead daemon doesn't spin the loop.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    flush_observations(&mut conn, cfg, &mut pending, &mut tally);
    tally
}

/// Per-target slice of a cluster-mode run. `requests` counts outcomes
/// charged to this target (answers plus final transport give-ups);
/// `errors` is HTTP-level failures plus give-ups; `retries` is transport
/// failures that were retried on the next target — kept apart from
/// errors so a node death under failover shows up as retries (latency
/// cost) rather than lost requests.
#[derive(Debug, Default, Clone)]
struct TargetStats {
    requests: u64,
    errors: u64,
    retries: u64,
    latencies_ms: Vec<f64>,
}

/// One client thread's closed loop in `--targets` cluster mode: requests
/// round-robin across the target set, and a transport failure fails over
/// to the next target within the same logical request. Latency is
/// measured across the whole attempt chain, so failover cost lands in
/// the tail of the merged distribution, not in the error count.
fn cluster_loop(cfg: &Config, id: usize, stop: &AtomicBool) -> (Tally, Vec<TargetStats>) {
    let mut rng = SimRng::seed_from(cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(id as u64));
    let n = cfg.targets.len();
    let mut conns: Vec<Connection> = cfg.targets.iter().map(|a| Connection::new(a)).collect();
    let mut per = vec![TargetStats::default(); n];
    let mut tally = Tally::default();
    let mut key = id % cfg.key_space;
    let mut turn = id; // stagger threads across the target set
    while !stop.load(Ordering::Relaxed) {
        if cfg.think_ms > 0.0 {
            let think = rng.exp(cfg.think_ms);
            std::thread::sleep(Duration::from_secs_f64(think / 1e3));
        }
        let body = body_for(cfg, key);
        key = (key + 1) % cfg.key_space;
        let first = turn % n;
        turn += 1;
        let started = Instant::now();
        // At least two attempts even against a single target (a router in
        // front of a failing-over cluster resets once, then recovers).
        let attempts = n.max(2);
        let mut outcome = None;
        let mut slot = first;
        for attempt in 0..attempts {
            slot = (first + attempt) % n;
            match conns[slot].post_capture("/predict", &body) {
                Ok(found) => {
                    outcome = Some(found);
                    break;
                }
                Err(_) => {
                    if stop.load(Ordering::Relaxed) || attempt + 1 == attempts {
                        break;
                    }
                    per[slot].retries += 1;
                    tally.retries += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        match outcome {
            Some((status, text)) => {
                let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                tally.latencies_ms.push(latency_ms);
                per[slot].requests += 1;
                per[slot].latencies_ms.push(latency_ms);
                match status {
                    200 => {
                        tally.ok += 1;
                        if text.contains("\"mode\": \"degraded\"") {
                            tally.degraded += 1;
                        }
                    }
                    503 => tally.rejected += 1,
                    _ => {
                        tally.errors += 1;
                        per[slot].errors += 1;
                    }
                }
            }
            None => {
                if stop.load(Ordering::Relaxed) {
                    break; // an abandoned attempt chain is not an error
                }
                tally.errors += 1;
                per[slot].requests += 1;
                per[slot].errors += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    (tally, per)
}

/// Reads `GET /cluster` on every target and returns the worst replication
/// lag visible anywhere: a follower's own lag, or the laggiest entry in
/// the primary's follower list. Targets without the route (a router, a
/// standalone daemon) are skipped.
fn probe_replication_lag(targets: &[String]) -> Option<u64> {
    let mut worst: Option<u64> = None;
    for addr in targets {
        let mut conn = Connection::new(addr);
        let Ok((200, text)) = conn.get("/cluster") else {
            continue;
        };
        let Ok(j) = Json::parse(&text) else { continue };
        if let Some(lag) = j.get("lag").and_then(Json::as_f64) {
            worst = Some(worst.unwrap_or(0).max(lag as u64));
        }
        if let Some(followers) = j.get("followers").and_then(Json::as_arr) {
            for f in followers {
                if let Some(lag) = f.get("lag").and_then(Json::as_f64) {
                    worst = Some(worst.unwrap_or(0).max(lag as u64));
                }
            }
        }
    }
    worst
}

/// Sleeps until `deadline` in short slices so a raised stop flag is
/// honoured within ~50 ms even when Poisson gaps are long.
fn sleep_until(deadline: Instant, stop: &AtomicBool) {
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

/// One open-loop sender thread: a seeded Poisson arrival schedule at this
/// thread's share of `--rate`, round-robined over its share of
/// `--connections` keep-alive sockets.
///
/// Coordinated-omission safety is the whole design: each request's
/// arrival instant is drawn from the schedule *before* the send, and the
/// latency sample is `completion - scheduled`. If the server (or a busy
/// connection) makes the sender late, the lateness is charged to the
/// request — the schedule never stretches to match a slow server the way
/// a closed loop's does.
fn open_loop_worker(
    cfg: &Config,
    id: usize,
    workers: usize,
    n_conns: usize,
    epoch: Instant,
    stop: &AtomicBool,
) -> Tally {
    let mut rng = SimRng::seed_from(cfg.seed.wrapping_mul(0x9e37_79b9).wrapping_add(id as u64));
    let plan = phase_plan(cfg);
    // Arrival times are the running sum of per-phase exponential gaps,
    // the gap drawn from whichever phase the schedule cursor sits in —
    // a piecewise-homogeneous Poisson process over the --phases steps
    // (one homogeneous phase for plain --rate).
    let phase_of = |t_ms: f64| {
        plan.iter()
            .position(|&(_, end)| t_ms < end)
            .unwrap_or(plan.len() - 1)
    };
    let mut conns: Vec<Connection> = (0..n_conns.max(1))
        .map(|_| Connection::new(&cfg.addr))
        .collect();
    let mut tally = Tally {
        phase_latencies: vec![Vec::new(); plan.len()],
        ..Tally::default()
    };
    let mut key = id % cfg.key_space;
    let mut turn = 0usize;
    let mut next_ms = 0.0;
    while !stop.load(Ordering::Relaxed) {
        let mean_gap_ms = 1e3 * workers as f64 / plan[phase_of(next_ms)].0;
        next_ms += rng.exp(mean_gap_ms);
        let phase = phase_of(next_ms);
        let scheduled = epoch + Duration::from_secs_f64(next_ms / 1e3);
        sleep_until(scheduled, stop);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let body = body_for(cfg, key);
        key = (key + 1) % cfg.key_space;
        let slot = turn % conns.len();
        let conn = &mut conns[slot];
        turn += 1;
        let outcome = conn.post_capture("/predict", &body);
        // From the *scheduled* arrival, not the send: queueing delay in
        // the sender counts against the server that caused it.
        let latency_ms = scheduled.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok((status, _)) => {
                tally.latencies_ms.push(latency_ms);
                tally.phase_latencies[phase].push(latency_ms);
                match status {
                    200 => tally.ok += 1,
                    503 => tally.rejected += 1,
                    _ => tally.errors += 1,
                }
            }
            Err(_) => tally.errors += 1, // connection reconnects on next use
        }
    }
    tally
}

/// The open-loop schedule as `(rate_rps, cumulative_end_ms)` steps: the
/// `--phases` list, or plain `--rate` as a single phase spanning the run.
fn phase_plan(cfg: &Config) -> Vec<(f64, f64)> {
    if cfg.phases.is_empty() {
        let rate = cfg.rate.expect("open loop requires --rate or --phases");
        return vec![(rate, cfg.duration.as_secs_f64() * 1e3)];
    }
    let mut end_ms = 0.0;
    cfg.phases
        .iter()
        .map(|&(rate, secs)| {
            end_ms += secs * 1e3;
            (rate, end_ms)
        })
        .collect()
}
#[derive(Debug, Default)]
struct ProbeReport {
    sent: u64,
    malformed: u64,
}

/// The chaos probe: fires deliberately hostile requests — garbage
/// framing, an oversized Content-Length, a header flood — each on a
/// fresh connection, and verifies that every byte the daemon sends back
/// is a well-formed HTTP response (or a clean close with no bytes at
/// all). Any other answer is exactly the malformed-response bug class
/// the chaos harness exists to catch.
fn chaos_probe(addr: &str, stop: &AtomicBool) -> ProbeReport {
    let mut report = ProbeReport::default();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let probe = match i % 3 {
            0 => "NONSENSE\r\n\r\n".to_string(),
            1 => format!(
                "POST /predict HTTP/1.1\r\nHost: probe\r\nContent-Length: {}\r\n\r\n",
                64 * 1024 * 1024
            ),
            _ => {
                let mut s = String::from("GET /healthz HTTP/1.1\r\nHost: probe\r\n");
                for h in 0..100 {
                    s.push_str(&format!("X-Flood-{h}: v\r\n"));
                }
                s.push_str("\r\n");
                s
            }
        };
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                report.sent += 1;
                let _ = stream.set_nodelay(true);
                // Short timeout: under full load the closed-loop clients
                // hold every connection worker, so a probe can sit in the
                // accept queue a while — recycle instead of waiting.
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                if stream.write_all(probe.as_bytes()).is_ok() {
                    // Half-close so the server's post-reject drain sees
                    // EOF immediately instead of waiting out its timeout.
                    let _ = stream.shutdown(std::net::Shutdown::Write);
                    // Drain whatever comes back until close or timeout;
                    // an injected accept-reset (empty read) is fine, raw
                    // non-HTTP bytes are not.
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    }
                    if !buf.is_empty() && !buf.starts_with(b"HTTP/1.1 ") {
                        report.malformed += 1;
                    }
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    report
}

/// Nearest-rank percentile over sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            let is_help = msg.contains("USAGE");
            eprintln!("{msg}");
            std::process::exit(i32::from(!is_help));
        }
    };

    // Warm-up: solve every key once so the measured window exercises the
    // daemon's cache-hit path (lqns misses cost ms; hits cost µs). Chaos
    // daemons may reset accepted connections, so give each key a few
    // tries before concluding the daemon is unreachable.
    let warm_addrs: Vec<String> = if cfg.targets.is_empty() {
        vec![cfg.addr.clone()]
    } else {
        cfg.targets.clone() // every node's cache gets hot, not just one
    };
    let mut warm = Connection::new(&cfg.addr);
    for addr in &warm_addrs {
        let mut conn = Connection::new(addr);
        for key in 0..cfg.key_space {
            // Chaos daemons reset connections on purpose, and cluster
            // nodes may still be settling after a (re)start — give those
            // modes a few tries before concluding the daemon is gone.
            let tries = if cfg.chaos {
                10
            } else if !cfg.targets.is_empty() {
                5
            } else {
                1
            };
            let mut last_err = None;
            for _ in 0..tries {
                match conn.post("/predict", &body_for(&cfg, key)) {
                    Ok(_) => {
                        last_err = None;
                        break;
                    }
                    Err(e) => {
                        last_err = Some(e);
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            }
            if let Some(e) = last_err {
                eprintln!("loadgen: cannot reach {addr}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Idle keep-alive sockets, parked for the whole run: the daemon must
    // hold every one open (accepted, registered, swept past) while the
    // active load runs — the high-connection-count multiplexing cost the
    // reactor core is built to flatten. One probe request on the last
    // socket confirms the accept queue actually drained.
    let mut parked: Vec<TcpStream> = Vec::with_capacity(cfg.idle_connections);
    if cfg.idle_connections > 0 {
        for i in 0..cfg.idle_connections {
            match TcpStream::connect(&cfg.addr) {
                Ok(s) => parked.push(s),
                Err(e) => {
                    eprintln!(
                        "loadgen: FAIL — idle connection {}/{} refused: {e}",
                        i + 1,
                        cfg.idle_connections
                    );
                    std::process::exit(1);
                }
            }
        }
        let mut probe = Connection::new(&cfg.addr);
        if !matches!(probe.get("/healthz"), Ok((200, _))) {
            eprintln!("loadgen: FAIL — daemon unhealthy after parking idle connections");
            std::process::exit(1);
        }
        println!(
            "loadgen: parked {} idle keep-alive connections",
            parked.len()
        );
    }

    if !cfg.targets.is_empty() {
        println!(
            "loadgen: CLUSTER {} clients x {:.1}s across {} targets [{}] \
             ({} / {}, {} keys, think {} ms)",
            cfg.clients,
            cfg.duration.as_secs_f64(),
            cfg.targets.len(),
            cfg.targets.join(", "),
            cfg.method,
            cfg.server,
            cfg.key_space,
            cfg.think_ms,
        );
    } else if !cfg.phases.is_empty() {
        let schedule: Vec<String> = cfg
            .phases
            .iter()
            .map(|&(r, s)| format!("{r}rps@{s}s"))
            .collect();
        println!(
            "loadgen: OPEN LOOP phased [{}] x {:.1}s against {} \
             ({} senders, {} connections, {} / {}, {} keys)",
            schedule.join(", "),
            cfg.duration.as_secs_f64(),
            cfg.addr,
            cfg.clients,
            cfg.connections.max(cfg.clients),
            cfg.method,
            cfg.server,
            cfg.key_space,
        );
    } else if let Some(rate) = cfg.rate {
        println!(
            "loadgen: OPEN LOOP {rate} req/s Poisson x {:.1}s against {} \
             ({} senders, {} connections, {} idle, {} / {}, {} keys)",
            cfg.duration.as_secs_f64(),
            cfg.addr,
            cfg.clients,
            cfg.connections.max(cfg.clients),
            cfg.idle_connections,
            cfg.method,
            cfg.server,
            cfg.key_space,
        );
    } else {
        println!(
            "loadgen: {} clients x {:.1}s against {} ({} / {}, {} keys, think {} ms)",
            cfg.clients,
            cfg.duration.as_secs_f64(),
            cfg.addr,
            cfg.method,
            cfg.server,
            cfg.key_space,
            cfg.think_ms,
        );
    }
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let probe = cfg.chaos.then(|| {
        let addr = cfg.addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || chaos_probe(&addr, &stop))
    });
    let mut handles: Vec<std::thread::JoinHandle<(Tally, Vec<TargetStats>)>> =
        Vec::with_capacity(cfg.clients);
    if cfg.rate.is_some() || !cfg.phases.is_empty() {
        // Distribute --connections across the sender threads; every
        // sender gets at least one socket.
        let workers = cfg.clients;
        let total_conns = cfg.connections.max(workers);
        for id in 0..workers {
            let cfg = cfg.clone();
            let stop = Arc::clone(&stop);
            let n_conns = total_conns / workers + usize::from(id < total_conns % workers);
            handles.push(std::thread::spawn(move || {
                (
                    open_loop_worker(&cfg, id, workers, n_conns, started, &stop),
                    Vec::new(),
                )
            }));
        }
    } else if !cfg.targets.is_empty() {
        for id in 0..cfg.clients {
            let cfg = cfg.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || cluster_loop(&cfg, id, &stop)));
        }
    } else {
        for id in 0..cfg.clients {
            let cfg = cfg.clone();
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                (client_loop(&cfg, id, &stop), Vec::new())
            }));
        }
    }
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut merged = Tally::default();
    let mut phase_latencies: Vec<Vec<f64>> = vec![Vec::new(); cfg.phases.len()];
    let mut per_target = vec![TargetStats::default(); cfg.targets.len()];
    for h in handles {
        let (t, per) = h.join().expect("client thread");
        merged.latencies_ms.extend(t.latencies_ms);
        for (agg, got) in phase_latencies.iter_mut().zip(t.phase_latencies) {
            agg.extend(got);
        }
        merged.ok += t.ok;
        merged.rejected += t.rejected;
        merged.errors += t.errors;
        merged.observations += t.observations;
        merged.refits += t.refits;
        merged.degraded += t.degraded;
        merged.retries += t.retries;
        for (agg, p) in per_target.iter_mut().zip(per) {
            agg.requests += p.requests;
            agg.errors += p.errors;
            agg.retries += p.retries;
            agg.latencies_ms.extend(p.latencies_ms);
        }
    }
    let probe_report = probe.map(|h| h.join().expect("probe thread"));
    let elapsed = started.elapsed().as_secs_f64();

    // The end-of-run model state, when this run fed the refit loop.
    let model_version = if cfg.report_observations {
        let version = warm
            .get("/models")
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, text)| Json::parse(&text).ok())
            .and_then(|j| j.get("current").and_then(Json::as_f64))
            .map_or(0, |v| v as u64);
        println!(
            "loadgen: reported {} observations -> {} refits, model version {}",
            merged.observations, merged.refits, version
        );
        Some(version)
    } else {
        None
    };

    let total = merged.ok + merged.rejected + merged.errors;
    let throughput = merged.latencies_ms.len() as f64 / elapsed;
    merged
        .latencies_ms
        .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let (p50, p95, p99) = (
        percentile(&merged.latencies_ms, 0.50),
        percentile(&merged.latencies_ms, 0.95),
        percentile(&merged.latencies_ms, 0.99),
    );
    let rejection_rate = if total > 0 {
        merged.rejected as f64 / total as f64
    } else {
        0.0
    };

    let availability = if total > 0 {
        merged.ok as f64 / total as f64
    } else {
        0.0
    };

    println!(
        "loadgen: {total} requests in {elapsed:.2}s -> {throughput:.0} req/s \
         (ok {}, rejected {}, errors {})",
        merged.ok, merged.rejected, merged.errors
    );
    println!("loadgen: latency p50 {p50:.3} ms   p95 {p95:.3} ms   p99 {p99:.3} ms");

    // Phased runs: each phase's percentiles come from its own samples, so
    // the tail of a heavy phase is visible instead of being averaged away
    // by the quiet ones on either side of it.
    let mut phase_stats: Vec<(u64, f64, f64, f64)> = Vec::new();
    for (i, lat) in phase_latencies.iter_mut().enumerate() {
        lat.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let (p50, p95, p99) = (
            percentile(lat, 0.50),
            percentile(lat, 0.95),
            percentile(lat, 0.99),
        );
        let (rate, secs) = cfg.phases[i];
        println!(
            "loadgen: phase {i} ({rate} req/s x {secs}s) — {} requests, \
             p50 {p50:.3} ms   p95 {p95:.3} ms   p99 {p99:.3} ms",
            lat.len()
        );
        phase_stats.push((lat.len() as u64, p50, p95, p99));
    }
    if let Some(probe) = &probe_report {
        println!(
            "loadgen: chaos — availability {:.4}, degraded {}, retries {}, \
             probes {} (malformed responses {})",
            availability, merged.degraded, merged.retries, probe.sent, probe.malformed
        );
    }

    // Cluster mode: the per-target breakdown (errors apart from transport
    // retries — a failed-over request is a retry, not a lost request) and
    // the replication lag left behind after the run.
    let mut target_p99 = vec![f64::NAN; per_target.len()];
    let replication_lag = if cfg.targets.is_empty() {
        None
    } else {
        for (i, stats) in per_target.iter_mut().enumerate() {
            stats
                .latencies_ms
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            target_p99[i] = percentile(&stats.latencies_ms, 0.99);
            println!(
                "loadgen: target {} — {} answered, {} errors, {} transport retries, \
                 p99 {:.3} ms",
                cfg.targets[i], stats.requests, stats.errors, stats.retries, target_p99[i]
            );
        }
        println!(
            "loadgen: cluster — availability {:.4}, errors {}, transport retries {}",
            availability, merged.errors, merged.retries
        );
        let lag = probe_replication_lag(&cfg.targets);
        match lag {
            Some(l) => println!("loadgen: replication lag {l} records (worst across targets)"),
            None => println!("loadgen: no target exposes GET /cluster (lag not recorded)"),
        }
        lag
    };

    // The notes are collected either way; only a run that names its
    // BENCH.json section writes them (below).
    let mut rec = Recorder::new(cfg.bench_section.as_deref().unwrap_or_default());
    rec.note("clients", cfg.clients);
    rec.note("duration_s", elapsed);
    rec.note("think_ms", cfg.think_ms);
    if cfg.rate.is_some() || !cfg.phases.is_empty() {
        rec.note("open_loop", true);
        rec.note("connections", cfg.connections.max(cfg.clients));
    }
    if let Some(rate) = cfg.rate {
        rec.note("offered_rate_rps", rate);
    }
    if !cfg.phases.is_empty() {
        rec.note("phases", cfg.phases.len() as u64);
        for (i, &(rate, secs)) in cfg.phases.iter().enumerate() {
            let (n, p50, p95, p99) = phase_stats[i];
            rec.note(&format!("phase.{i}.rate_rps"), rate);
            rec.note(&format!("phase.{i}.duration_s"), secs);
            rec.note(&format!("phase.{i}.requests"), n);
            rec.note(&format!("phase.{i}.p50_ms"), p50);
            rec.note(&format!("phase.{i}.p95_ms"), p95);
            rec.note(&format!("phase.{i}.p99_ms"), p99);
        }
    }
    if cfg.idle_connections > 0 {
        rec.note("idle_connections", cfg.idle_connections);
    }
    for (key, val) in &cfg.notes {
        match val.parse::<f64>() {
            Ok(n) => rec.note(key, n),
            Err(_) => rec.note(key, val.as_str()),
        }
    }
    rec.note("method", cfg.method.as_str());
    rec.note("server", cfg.server.as_str());
    rec.note("key_space", cfg.key_space);
    rec.note("requests", total);
    rec.note("throughput_rps", throughput);
    rec.note("p50_ms", p50);
    rec.note("p95_ms", p95);
    rec.note("p99_ms", p99);
    rec.note("rejected", merged.rejected);
    rec.note("rejection_rate", rejection_rate);
    rec.note("errors", merged.errors);
    if let Some(version) = model_version {
        rec.note("report_observations", true);
        rec.note("observations_reported", merged.observations);
        rec.note("refits_triggered", merged.refits);
        rec.note("model_version", version);
    }
    if let Some(probe) = &probe_report {
        rec.note("availability", availability);
        rec.note("degraded", merged.degraded);
        rec.note("retries", merged.retries);
        rec.note("probes_sent", probe.sent);
        rec.note("probe_malformed_responses", probe.malformed);
    }
    if !cfg.targets.is_empty() {
        rec.note("targets", cfg.targets.len() as u64);
        rec.note("availability", availability);
        rec.note("transport_retries", merged.retries);
        for (i, stats) in per_target.iter().enumerate() {
            rec.note(&format!("target.{i}.addr"), cfg.targets[i].as_str());
            rec.note(&format!("target.{i}.requests"), stats.requests);
            rec.note(&format!("target.{i}.errors"), stats.errors);
            rec.note(&format!("target.{i}.retries"), stats.retries);
            rec.note(&format!("target.{i}.p99_ms"), target_p99[i]);
        }
        if let Some(lag) = replication_lag {
            rec.note("replication_lag_records", lag);
        }
    }
    if cfg.bench_section.is_some() {
        rec.write();
    }

    if let Some(probe) = &probe_report {
        if probe.malformed > 0 {
            eprintln!(
                "loadgen: FAIL — {} malformed HTTP responses to chaos probes",
                probe.malformed
            );
            std::process::exit(1);
        }
        println!(
            "loadgen: PASS — all {} probe responses were well-formed HTTP",
            probe.sent
        );
    }
    // Runs with an availability floor gate on that floor instead: there,
    // transport-level give-ups after retries are what's being scored.
    if !cfg.chaos && cfg.min_availability.is_none() && merged.errors > total / 100 {
        eprintln!("loadgen: FAIL — more than 1% errors");
        std::process::exit(1);
    }
    if let Some(min) = cfg.min_availability {
        if availability < min {
            eprintln!("loadgen: FAIL — availability {availability:.4} below the {min} floor");
            std::process::exit(1);
        }
        println!("loadgen: PASS — availability {availability:.4} >= {min}");
    }
    if let Some(min) = cfg.min_rps {
        if throughput < min {
            eprintln!("loadgen: FAIL — {throughput:.0} req/s below the {min:.0} req/s floor");
            std::process::exit(1);
        }
        println!("loadgen: PASS — {throughput:.0} req/s >= {min:.0} req/s");
    }
    if let Some(min) = cfg.min_refits {
        if merged.refits < min {
            eprintln!(
                "loadgen: FAIL — {} refits below the {min} refit floor",
                merged.refits
            );
            std::process::exit(1);
        }
        println!("loadgen: PASS — {} refits >= {min}", merged.refits);
    }
}
