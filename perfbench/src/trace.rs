//! The traced run's per-layer metrics.
//!
//! Three sources, each named in the metric it feeds:
//!
//! * *Spans in-process.* The workload's own requests are pushed through
//!   the serving layers' public functions, called from this file exactly
//!   as the reactor calls them — `conn::parse_head`, `App::try_handle`
//!   (plus `App::handle` or an lqns solve when it declines),
//!   `Response::write_into` — on an `App` wired like the daemon's and
//!   recovered from the same fixture. Each call is a span (name, start,
//!   end, parent, request id) kept in memory and written out when the run
//!   ends; a layer's self time is its spans' time minus their children's.
//!   Microbenchmarks of `PredictionCache::peek`, the lqns solver,
//!   `ObservationStore::{open, ingest}` and `Ring::route` run on the
//!   workload's keys.
//! * *Daemon scrapes.* Each node's `/metrics` before and after the
//!   measured rounds: cache hits, solver batches, solves.
//! * *Process accounting.* Per-daemon CPU over the fixed-rate windows,
//!   which the in-process self times are reconciled against.

use crate::client;
use crate::fixture::{self, ObsStream, SERVERS};
use crate::load::Outcome;
use crate::report::Metrics;
use crate::workloads::{self, Fleet, Kind, Method, Plan, Reference, Req};
use perfpred_cluster::Ring;
use perfpred_core::{metrics, CacheOptions, PerformanceModel, Workload};
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::config::ModelSpec;
use perfpred_serve::conn::{parse_head, HeadOutcome};
use perfpred_serve::http::Request;
use perfpred_serve::router::App;
use perfpred_serve::{ModelHost, Shutdown};
use perfpred_store::{ObservationStore, RECORD_BYTES};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests pushed through the in-process layers per pass.
const SAMPLE: usize = 2000;
/// Keys per microbenchmark.
const MICRO_KEYS: usize = 128;
/// `/observe` batches in the ingest microbenchmarks and write probe.
const WRITE_BATCHES: usize = 64;

/// One `/metrics` scrape per serve node.
pub type Scrape = Vec<BTreeMap<String, f64>>;

/// Scrapes every serve node's `/metrics`.
pub fn scrape(fleet: &Fleet) -> Scrape {
    fleet
        .nodes
        .iter()
        .map(|&a| {
            client::call(a, &client::get("/metrics"))
                .map(|r| crate::procs::parse_exposition(&r.text()))
                .unwrap_or_default()
        })
        .collect()
}

/// Sum over nodes of a counter's growth between two scrapes.
fn delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.get(name).unwrap_or(&0.0) - b.get(name).unwrap_or(&0.0))
        .sum()
}

/// What the routed topology's extra probes measured.
pub struct RoutedProbe {
    /// Median round trip through the router minus direct to a node, ms.
    pub added_ms_p50: f64,
    /// Follower CPU per replicated observation during a write-only
    /// burst, µs.
    pub follower_us_per_obs: f64,
}

/// Probes the routed topology after the measured rounds: the same
/// prediction sequence sent to the primary directly and then through the
/// router (one connection, one request at a time), and a write-only
/// burst whose replication cost the follower's CPU time shows.
pub fn probe_routed(fleet: &Fleet, plan: &Plan) -> RoutedProbe {
    let reads: Vec<Vec<u8>> = plan
        .fixed
        .reqs
        .iter()
        .filter(|r| matches!(r, Req::Predict { .. }))
        .take(1000)
        .map(|r| r.predict_bytes())
        .collect();
    let ok = |_: usize, r: &client::Reply| -> Result<(), String> {
        (r.status == 200)
            .then_some(())
            .ok_or(format!("status {}", r.status))
    };
    let mut direct = crate::load::sequential(fleet.nodes[0], &reads, &ok).latency_ms;
    let mut routed = crate::load::sequential(fleet.entry, &reads, &ok).latency_ms;
    let added = crate::rng::median(&mut routed) - crate::rng::median(&mut direct);

    let mut obs = ObsStream::new(0x5EED, 7);
    let writes: Vec<Vec<u8>> = (0..WRITE_BATCHES)
        .map(|_| client::post("/observe", &obs.batch_body(workloads::OBSERVE_BATCH)))
        .collect();
    let follower = fleet
        .daemons
        .iter()
        .find(|d| d.name == "follower")
        .expect("routed fleet has a follower");
    let cpu0 = follower.cpu_ns();
    crate::load::sequential(fleet.entry, &writes, &ok);
    let caught_up = workloads::wait_caught_up(fleet, Duration::from_secs(30)).is_ok();
    let per_obs =
        (follower.cpu_ns() - cpu0) as f64 / 1e3 / (WRITE_BATCHES * workloads::OBSERVE_BATCH) as f64;
    RoutedProbe {
        added_ms_p50: added,
        follower_us_per_obs: if caught_up { per_obs } else { f64::NAN },
    }
}

/// What the traced run hands the per-layer analysis.
pub struct Context<'a> {
    /// The workload.
    pub kind: Kind,
    /// Its seed.
    pub seed: u64,
    /// Its inputs.
    pub plan: &'a Plan,
    /// In-process models.
    pub reference: &'a Reference,
    /// The cached fixture the nodes recovered from.
    pub fixture: &'a Path,
    /// This run's scratch directory.
    pub scratch: &'a Path,
    /// Scrapes around the measured rounds.
    pub before: &'a Scrape,
    /// See `before`.
    pub after: &'a Scrape,
    /// The fixed-rate windows.
    pub fixed: &'a Outcome,
    /// Daemon CPU over the fixed-rate sub-windows, ns.
    pub daemon_cpu_ns: u64,
    /// The same per daemon.
    pub daemon_cpu_each: &'a [u64],
    /// Daemon names, in `daemon_cpu_each` order.
    pub daemon_names: Vec<String>,
    /// The serve nodes' addresses as the router names them.
    pub upstreams: Vec<String>,
    /// Requests completed in those sub-windows.
    pub fixed_done: usize,
    /// Requests completed in all measured windows.
    pub completed: u64,
    /// Routed probes (routed workload only).
    pub proxy: Option<&'a RoutedProbe>,
    /// Follower catch-up after the warm-up write, ms.
    pub catchup_ms: f64,
    /// Primary minus follower log length right after the rounds.
    pub lag_end: f64,
    /// The primary's store replayed after the run, its replay seconds
    /// and records (routed workload only).
    pub registry: Option<(&'a ObservationStore, f64, u64)>,
}

/// One span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: usize,
}

/// Spans kept in memory; disabled tracers record nothing.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn enter(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    fn exit(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Per span name: (self time, spans).
    fn self_times(&self) -> BTreeMap<&'static str, (Duration, usize)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (Duration, usize)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end - s.start).saturating_sub(children);
            e.1 += 1;
        }
        out
    }

    /// Mean duration of the spans called `name`, ns.
    fn mean_ns(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0usize), |(t, n), s| {
                (t + (s.end - s.start).as_nanos() as f64, n + 1)
            });
        if n == 0 {
            f64::NAN
        } else {
            sum / n as f64
        }
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"request":{}}}"#,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            )?;
        }
        out.flush()
    }
}

/// An in-process `App` wired like a `--model paper` daemon, recovered
/// from a fresh copy of the fixture. Returns it with the replay time.
fn in_process_app(fixture: &Path, dir: &Path) -> Result<(App, f64, u64), String> {
    fixture::copy_fixture(fixture, dir).map_err(|e| format!("copy fixture: {e}"))?;
    let (store, replay_s, records) = workloads::replay_store(dir)?;
    let cache = CacheOptions {
        capacity: Some(workloads::CACHE_CAPACITY),
        ..Default::default()
    };
    let host = ModelHost::build(ModelSpec::Paper, 0, &cache, &store);
    let admission = AdmissionController::new(RuntimeOptions::default())
        .map_err(|e| format!("admission: {e}"))?;
    let app = App::with_store(
        host,
        admission,
        JobQueue::new(1024),
        Shutdown::new(),
        Arc::new(store),
    );
    Ok((app, replay_s, records))
}

fn parse(bytes: &[u8]) -> Request {
    let mut req = Request::default();
    match parse_head(bytes, &mut req) {
        HeadOutcome::Complete(info) => {
            req.body = bytes[info.head_len..info.total_len()].to_vec();
            req
        }
        other => panic!("the benchmark's own request failed to parse: {other:?}"),
    }
}

fn load_of(req: Req) -> Option<(usize, Workload, Method)> {
    match req {
        Req::Predict {
            method,
            server,
            clients,
            buy_pct,
        } => Some((
            server,
            Workload::with_buy_pct(clients, f64::from(buy_pct)),
            method,
        )),
        Req::Observe => None,
    }
}

/// Tallies of one in-process pass.
#[derive(Default)]
struct Pass {
    requests: usize,
    inline: usize,
    response_bytes: usize,
    elapsed: Duration,
}

/// Pushes requests through the layers the reactor calls, recording a
/// span per layer call.
fn run_pass(
    app: &App,
    reference: &Reference,
    reqs: &[Req],
    bytes: &[Vec<u8>],
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut out = Vec::with_capacity(4096);
    let started = Instant::now();
    for (i, (&req, raw)) in reqs.iter().zip(bytes).enumerate() {
        let root = tracer.enter("request", None, i);
        let s = tracer.enter("serve.conn.parse_head", root, i);
        let request = parse(raw);
        tracer.exit(s);
        let s = tracer.enter("serve.router.try_handle", root, i);
        let inline = app.try_handle(&request, Instant::now());
        tracer.exit(s);
        let response = match inline {
            Some(r) => {
                pass.inline += 1;
                r
            }
            None => {
                // An lqns miss: the daemon's solver pool solves and
                // memoizes; the dispatcher then answers from the cache.
                if let Some((server, load, Method::Lqns)) = load_of(req) {
                    let s = tracer.enter("lqns.solve", root, i);
                    let solved = app.host.lqns.predict(reference.arch(server), &load);
                    tracer.exit(s);
                    solved.map_err(|e| format!("in-process solve: {e}"))?;
                }
                let s = tracer.enter("serve.router.handle", root, i);
                let r = app.handle(&request);
                tracer.exit(s);
                r
            }
        };
        if response.status != 200 {
            return Err(format!("in-process {req:?}: status {}", response.status));
        }
        let s = tracer.enter("serve.http.write_into", root, i);
        out.clear();
        response.write_into(&mut out, true);
        tracer.exit(s);
        pass.response_bytes += out.len();
        pass.requests += 1;
        tracer.exit(root);
    }
    pass.elapsed = started.elapsed();
    Ok(pass)
}

/// Mean ns per call of `f` over `items`.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return f64::NAN;
    }
    let started = Instant::now();
    for item in items {
        f(item);
    }
    started.elapsed().as_nanos() as f64 / items.len() as f64
}

/// Computes every per-layer metric.
pub fn per_layer(ctx: &Context, out: &mut Metrics) -> Result<(), String> {
    let plan = ctx.plan;
    let fixed_reqs = &plan.fixed.reqs;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // Generator.
    let mut late = ctx.fixed.late_ms.clone();
    out.add("gen.late_ms_p50", crate::rng::median(&mut late), "ms");
    out.add("gen.inflight_max", ctx.fixed.inflight_max as f64, "count");

    // In-process layers, on an App recovered from the same fixture and
    // warmed up with the same requests as the daemon.
    let n = SAMPLE.min(fixed_reqs.len());
    let (reqs, bytes) = (&fixed_reqs[..n], &plan.fixed.bytes[..n]);
    let (app, replay_s, records) = in_process_app(ctx.fixture, &ctx.scratch.join("in-process"))?;
    let (warm_reqs, warm_bytes) = (&plan.warmup.reqs, &plan.warmup.bytes);
    run_pass(
        &app,
        ctx.reference,
        warm_reqs,
        warm_bytes,
        &mut Tracer::new(false),
    )?;
    let versions_at_start = app.host.registry.version();
    let mut tracer = Tracer::new(true);
    let traced = run_pass(&app, ctx.reference, reqs, bytes, &mut tracer)?;

    out.add(
        "serve.conn.parse_head_ns",
        tracer.mean_ns("serve.conn.parse_head"),
        "ns",
    );
    out.add(
        "serve.http.write_into_ns",
        tracer.mean_ns("serve.http.write_into"),
        "ns",
    );
    out.add(
        "serve.http.resp_bytes",
        ratio(traced.response_bytes as f64, traced.requests as f64),
        "bytes",
    );
    out.add(
        "serve.router.inline_ratio",
        ratio(traced.inline as f64, traced.requests as f64),
        "ratio",
    );

    // Hit path: the sample's predictions are all cached by now.
    let sampled: Vec<(Req, Request)> = reqs
        .iter()
        .zip(bytes)
        .filter(|(r, _)| matches!(r, Req::Predict { .. }))
        .take(1000)
        .map(|(&r, b)| (r, parse(b)))
        .collect();
    let hit_ns = time_each(&sampled, |(_, req)| {
        black_box(
            app.try_handle(req, Instant::now())
                .expect("a cached prediction answers inline"),
        );
    });
    out.add("serve.router.handle_hit_us", hit_ns / 1e3, "us");
    let lqns_keys: Vec<(usize, Workload)> = sampled
        .iter()
        .filter_map(|&(r, _)| load_of(r))
        .filter(|(_, _, m)| *m == Method::Lqns)
        .map(|(s, w, _)| (s, w))
        .take(MICRO_KEYS)
        .collect();
    let peek_ns = time_each(&lqns_keys, |(s, w)| {
        black_box(app.host.lqns.peek(ctx.reference.arch(*s), w));
    });
    out.add("core.cache.peek_ns", peek_ns, "ns");

    // The solver on the same keys, uncached: time and exact AMVA work.
    let iters = metrics::counter("lqns.amva_iterations");
    let solves = metrics::counter("lqns.solves");
    let (i0, s0) = (iters.get(), solves.get());
    let solve_ns = time_each(&lqns_keys, |(s, w)| {
        black_box(ctx.reference.lqn().predict(ctx.reference.arch(*s), w).ok());
    });
    out.add("lqns.solve_us", solve_ns / 1e3, "us");
    out.add(
        "lqns.amva_iters_per_solve",
        ratio((iters.get() - i0) as f64, (solves.get() - s0) as f64),
        "count",
    );
    out.add(
        "lqns.solves_per_req",
        ratio(
            delta(ctx.before, ctx.after, "lqns_solves"),
            ctx.completed as f64,
        ),
        "count",
    );

    // Daemon-side counters over the measured rounds.
    let hits = delta(ctx.before, ctx.after, "predcache_hits");
    let misses = delta(ctx.before, ctx.after, "predcache_misses");
    out.add("core.cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    out.add(
        "serve.batch.batch_size_mean",
        ratio(
            delta(ctx.before, ctx.after, "serve_batch_size_sum"),
            delta(ctx.before, ctx.after, "serve_batch_size_count"),
        ),
        "count",
    );
    out.add(
        "serve.batch.solve_ms_mean",
        ratio(
            delta(ctx.before, ctx.after, "serve_solve_ms_sum"),
            delta(ctx.before, ctx.after, "serve_solve_ms_count"),
        ),
        "ms",
    );

    // Store: recovery, then ingest of seeded batches.
    out.add("store.replay_obs_per_s", records as f64 / replay_s, "1/s");
    let mut obs = ObsStream::new(ctx.seed, 6);
    let batches: Vec<Vec<perfpred_store::Observation>> = (0..WRITE_BATCHES)
        .map(|_| {
            (0..workloads::OBSERVE_BATCH)
                .map(|_| obs.next_obs())
                .collect()
        })
        .collect();
    let mut refits = 0usize;
    let ingest_ns = time_each(&batches, |b| {
        refits += app.store.ingest(b).expect("in-process ingest").refits.len();
    });
    let ingested = (WRITE_BATCHES * workloads::OBSERVE_BATCH) as f64;
    out.add(
        "store.ingest_us_per_obs",
        ingest_ns / 1e3 / workloads::OBSERVE_BATCH as f64,
        "us",
    );
    out.add(
        "store.refits_per_kobs",
        refits as f64 * 1e3 / ingested,
        "count",
    );
    let observe: Vec<Request> = (0..WRITE_BATCHES)
        .map(|_| {
            parse(&client::post(
                "/observe",
                &obs.batch_body(workloads::OBSERVE_BATCH),
            ))
        })
        .collect();
    let observe_ns = time_each(&observe, |req| {
        assert_eq!(app.handle(req).status, 200, "in-process /observe");
    });
    out.add(
        "serve.router.observe_us_per_obs",
        observe_ns / 1e3 / workloads::OBSERVE_BATCH as f64,
        "us",
    );
    let versions = match ctx.registry {
        Some((store, _, _)) => store.registry().version(),
        None => versions_at_start,
    };
    out.add("store.registry.versions", versions as f64, "count");

    // Ring: the router's hash of each prediction's key.
    let names: Vec<String> = match ctx.kind {
        Kind::RoutedMixed => ctx.upstreams.clone(),
        _ => vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
    };
    let ring = Ring::new(&names, 64, 1.25);
    let keys: Vec<&str> = fixed_reqs
        .iter()
        .filter_map(|r| load_of(*r).map(|(s, _, _)| SERVERS[s]))
        .collect();
    let (admitted, loads) = (vec![true; names.len()], vec![0usize; names.len()]);
    let mut share = vec![0usize; names.len()];
    let route_ns = time_each(&keys, |k| {
        if let Some(u) = black_box(ring.route(k, &admitted, &loads)) {
            share[u] += 1;
        }
    });
    out.add("cluster.ring.route_ns", route_ns, "ns");
    out.add(
        "cluster.ring.max_share",
        ratio(*share.iter().max().unwrap_or(&0) as f64, keys.len() as f64),
        "ratio",
    );

    // Process accounting: daemon CPU per request and its split.
    let daemon_us = ratio(ctx.daemon_cpu_ns as f64 / 1e3, ctx.fixed_done as f64);
    let cpu_of = |name: &str| {
        ctx.daemon_names
            .iter()
            .position(|d| d == name)
            .map_or(0.0, |i| {
                ratio(ctx.daemon_cpu_each[i] as f64 / 1e3, ctx.fixed_done as f64)
            })
    };
    out.add("cluster.proxy.cpu_us_per_req", cpu_of("router"), "us");
    out.add(
        "cluster.proxy.added_ms_p50",
        ctx.proxy.map_or(0.0, |p| p.added_ms_p50),
        "ms",
    );
    out.add("cluster.repl.lag_records_end", ctx.lag_end, "count");
    out.add("cluster.repl.catchup_ms", ctx.catchup_ms, "ms");
    out.add(
        "cluster.repl.follower_cpu_us_per_obs",
        ctx.proxy.map_or(0.0, |p| p.follower_us_per_obs),
        "us",
    );

    // Reconciliation: in-process self time per request against the
    // daemons' CPU per request.
    let selfs = tracer.self_times();
    let per = |name: &str| {
        selfs.get(name).map_or(0.0, |(t, _)| {
            t.as_secs_f64() * 1e6 / traced.requests.max(1) as f64
        })
    };
    let layers = [
        "serve.conn.parse_head",
        "serve.router.try_handle",
        "lqns.solve",
        "serve.router.handle",
        "serve.http.write_into",
    ];
    let in_process: f64 = layers.iter().map(|l| per(l)).sum();
    out.add("serve.reactor.residual_us", daemon_us - in_process, "us");
    println!(
        "self time per request, in-process over {} requests:",
        traced.requests
    );
    for l in layers.iter().chain(["request"].iter()) {
        println!("  {l:<26} {:>10.3} us", per(l));
    }
    println!("  {:<26} {in_process:>10.3} us", "sum of layers");
    println!(
        "daemon CPU per request (untraced rounds): {daemon_us:.3} us = layers {in_process:.3} us + residual {:.3} us (reactor I/O, syscalls, wake-ups, other threads)",
        daemon_us - in_process
    );
    for (name, cpu) in ctx.daemon_names.iter().zip(ctx.daemon_cpu_each) {
        println!(
            "  {name:<10} {:>10.3} us/req",
            ratio(*cpu as f64 / 1e3, ctx.fixed_done as f64)
        );
    }
    // The daemons run untraced in both modes; the only tracing cost is
    // the in-process spans, timed here on a scratch tracer.
    let mut scratch = Tracer::new(true);
    let span_ns = time_each(&[(); 100_000], |_| {
        let s = scratch.enter("overhead", None, 0);
        scratch.exit(s);
    });
    let spans_per_req = ratio(tracer.spans.len() as f64, traced.requests as f64);
    println!(
        "tracing overhead: {spans_per_req:.1} spans/req x {span_ns:.1} ns/span = {:.3} us/req of the traced pass's {:.3} us/req (in-process only; the daemons run untraced)",
        spans_per_req * span_ns / 1e3,
        traced.elapsed.as_secs_f64() * 1e6 / traced.requests.max(1) as f64
    );
    let traces = ctx.scratch.parent().unwrap_or(ctx.scratch).join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
    let path = traces.join(format!("{}-s{}.jsonl", ctx.kind.name(), ctx.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    // Fixture record size, for readers converting replay rates to bytes.
    println!("store: {records} records of {RECORD_BYTES} bytes replayed in {replay_s:.3} s");
    Ok(())
}
