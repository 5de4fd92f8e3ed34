//! `perfbench` — the serving benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--bin-dir DIR]
//! perfbench --repeat N --workload NAME --seed N --seconds S [--bin-dir DIR]
//! ```
//!
//! One run sets the workload's daemons up several times on a fresh copy
//! of the seeded observation-log fixture, then alternates rounds of a
//! seeded open-loop Poisson window at a fixed rate and a saturated
//! window, checks every answer, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! `--repeat N` is the steadiness mode: it runs the benchmark N times on
//! consecutive seeds and prints each end-to-end metric's median,
//! quartiles and spread next to the bound in `BENCHMARK.json`.
//!
//! Run from the root of a checkout (`bash perfbench/run.sh ...` builds
//! everything first); scratch files go under `perfbench/work/`.

mod calib;
mod client;
mod fixture;
mod load;
mod procs;
mod report;
mod rng;
mod trace;
mod workloads;

use report::Metrics;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use workloads::{Fleet, Kind, Req};

/// Set-ups per run; the last one is measured.
const SETUP_REPS: usize = 5;
/// Length of one measured round, s: a fixed-rate window taking
/// [`FIXED_SHARE`] of it, then a saturated window.
const ROUND_S: f64 = 5.0;
const FIXED_SHARE: f64 = 0.6;
/// Pause after each saturated window, so its backlog has drained before
/// the next fixed-rate window opens.
const SETTLE: Duration = Duration::from_millis(100);
/// Sub-window of the fixed-rate windows that `p50_ms` and
/// `cpu_us_per_req` are computed over, s.
const WINDOW_S: f64 = 1.0;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    repeat: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0f64, false);
    let mut bin_dir = PathBuf::from("target/release");
    let mut repeat = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Kind::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds < 1.0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => trace = value()? == "1",
            "--bin-dir" => bin_dir = PathBuf::from(value()?),
            "--repeat" => repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bin_dir,
        repeat,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.repeat {
        Some(n) => report::steadiness(
            &args.bin_dir,
            args.workload.name(),
            args.seed,
            args.seconds,
            n,
        ),
        None => match procs::CpuSplit::for_host().keep_warm(|gauges| run(&args, gauges)) {
            Ok(out) => {
                println!("{}", out.json_line());
                i32::from(!out.correct)
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        },
    };
    // Every daemon was stopped and reaped when `run` returned.
    std::process::exit(code);
}

/// A directory removed (with everything in it) when dropped.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The benchmark's scratch root inside the checkout.
fn work_root() -> Result<PathBuf, String> {
    if !Path::new("perfbench").is_dir() || !Path::new("Cargo.toml").is_file() {
        return Err("run from the root of a checkout (no ./perfbench or ./Cargo.toml)".into());
    }
    Ok(PathBuf::from("perfbench/work"))
}

/// What the measured rounds produced.
struct Measured {
    fixed: load::Outcome,
    saturated: load::Outcome,
    /// Median latency of each fixed-rate sub-window, ms.
    p50s: Vec<f64>,
    /// Daemon CPU per completed request in each sub-window, µs.
    cpu_per_req: Vec<f64>,
    /// Completions per second in each saturated slice.
    slice_rates: Vec<f64>,
    /// Daemon CPU seconds per second in each saturated window.
    saturated_busy: Vec<f64>,
    /// Daemon CPU over all fixed-rate sub-windows, ns.
    fixed_cpu_ns: u64,
    /// The same per daemon, in [`Fleet::daemons`] order.
    fixed_cpu_each: Vec<u64>,
    /// Requests completed in those sub-windows.
    fixed_done: usize,
    /// Reading of the daemons' CPU gauge over each fixed-rate
    /// sub-window, CPU ns per batch.
    sub_gauge: Vec<Option<f64>>,
    /// For each saturated slice, the mean reading over the whole
    /// fixed-rate windows before and after it (the daemons leave the
    /// gauge no time while saturated).
    slice_gauge: Vec<Option<f64>>,
}

/// Runs the plan's rounds against a warmed-up fleet: each round is a
/// fixed-rate window, then a saturated window, then a short settle.
fn measure(
    fleet: &Fleet,
    gauge: Option<&calib::Gauge>,
    plan: &workloads::Plan,
    seed: u64,
    fixed_s: f64,
    saturated_s: f64,
    samples: &workloads::Samples,
) -> Measured {
    let canonical: HashMap<Req, Vec<u8>> = fleet.canonical.iter().cloned().collect();
    let check = |reqs: &[Req], window: u64| {
        let canonical = &canonical;
        let reqs = reqs.to_vec();
        move |i: usize, reply: &client::Reply| -> Result<(), String> {
            let req = reqs[i];
            workloads::check_reply(req, reply, canonical.get(&req).map(Vec::as_slice))?;
            if canonical.is_empty() && req.replayable() && workloads::sampled(seed, window, i) {
                samples.push(req, workloads::reply_mrt(reply)?);
            }
            Ok(())
        }
    };
    let check_fixed = check(&plan.fixed.reqs, 1);
    let check_saturated = check(&plan.saturated.reqs, 2);
    let saturated_next = AtomicUsize::new(0);
    let windows = (fixed_s / WINDOW_S).floor() as usize;
    let mut m = Measured {
        fixed: load::Outcome::default(),
        saturated: load::Outcome::default(),
        p50s: Vec::new(),
        cpu_per_req: Vec::new(),
        slice_rates: Vec::new(),
        saturated_busy: Vec::new(),
        fixed_cpu_ns: 0,
        fixed_cpu_each: vec![0; fleet.daemons.len()],
        fixed_done: 0,
        sub_gauge: Vec::new(),
        slice_gauge: Vec::new(),
    };
    let reading = |a: &Option<calib::Mark>, b: &Option<calib::Mark>| match (a, b) {
        (Some(a), Some(b)) => b.since(a),
        _ => None,
    };
    // Per round: the reading over its fixed-rate window, and the number
    // of slices in its saturated window.
    let mut rounds: Vec<(Option<f64>, usize)> = Vec::new();
    let mut offset = 0;
    for schedule in &plan.schedules {
        // The window opens shortly after both senders are parked; a
        // sampler reads the daemons' CPU time and the gauge at every
        // sub-window edge.
        let start = Instant::now() + Duration::from_millis(50);
        let (out, marks) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                (0..=windows)
                    .map(|k| {
                        let at = start + Duration::from_secs_f64(k as f64 * WINDOW_S);
                        std::thread::sleep(at.saturating_duration_since(Instant::now()));
                        (fleet.cpu_each(), gauge.map(calib::Gauge::mark))
                    })
                    .collect::<Vec<_>>()
            });
            let ops = &plan.fixed.bytes[offset..offset + schedule.len()];
            let out = load::open_loop(fleet.entry, ops, offset, schedule, start, &check_fixed);
            (out, sampler.join().expect("CPU sampler thread"))
        });
        let (marks, gauge_marks): (Vec<Vec<u64>>, Vec<_>) = marks.into_iter().unzip();
        m.sub_gauge
            .extend(gauge_marks.windows(2).map(|g| reading(&g[0], &g[1])));
        let round_gauge = reading(&gauge_marks[0], &gauge_marks[windows]);
        offset += schedule.len();
        for (d, total) in m.fixed_cpu_each.iter_mut().enumerate() {
            *total += marks[windows][d] - marks[0][d];
        }
        let totals: Vec<u64> = marks.iter().map(|each| each.iter().sum()).collect();
        for (lat, edge) in out
            .by_window(WINDOW_S, windows)
            .iter()
            .zip(totals.windows(2))
        {
            let cpu = edge[1] - edge[0];
            m.p50s.push(report::median_of(lat));
            m.cpu_per_req
                .push(cpu as f64 / 1e3 / lat.len().max(1) as f64);
            m.fixed_cpu_ns += cpu;
            m.fixed_done += lat.len();
        }
        m.fixed.absorb(out);
        let cpu_before = fleet.cpu_ns();
        let out = load::saturate(
            fleet.entry,
            &plan.saturated.bytes,
            &saturated_next,
            saturated_s,
            plan.wrap,
            &check_saturated,
        );
        m.saturated_busy
            .push((fleet.cpu_ns() - cpu_before) as f64 / 1e9 / saturated_s);
        let rates = out.slice_rates();
        rounds.push((round_gauge, rates.len()));
        m.slice_rates.extend(rates);
        m.saturated.absorb(out);
        std::thread::sleep(SETTLE);
    }
    for (r, &(before, slices)) in rounds.iter().enumerate() {
        let after = rounds.get(r + 1).and_then(|next| next.0);
        let known: Vec<f64> = [before, after].into_iter().flatten().collect();
        let bracket = (!known.is_empty()).then(|| known.iter().sum::<f64>() / known.len() as f64);
        m.slice_gauge
            .extend(std::iter::repeat(bracket).take(slices));
    }
    m
}

/// `values` expressed at the reference host speed: each divided (a
/// cost) or multiplied (a rate) by its gauge reading over
/// [`calib::REFERENCE_BATCH_NS`], to the power
/// [`calib::SPEED_EXPONENT`]. A value without a reading takes the
/// median of the others; with no readings at all (one CPU, no gauge)
/// the values stand as measured.
fn at_reference(values: &[f64], readings: &[Option<f64>], rate: bool) -> Vec<f64> {
    let known: Vec<f64> = readings.iter().flatten().copied().collect();
    let fill = if known.is_empty() {
        calib::REFERENCE_BATCH_NS
    } else {
        report::median_of(&known)
    };
    values
        .iter()
        .zip(readings)
        .map(|(v, r)| {
            let speed = (calib::REFERENCE_BATCH_NS / r.unwrap_or(fill)).powf(calib::SPEED_EXPONENT);
            if rate {
                v / speed
            } else {
                v * speed
            }
        })
        .collect()
}

fn run(args: &Args, gauges: &[calib::Gauge]) -> Result<report::Outcome, String> {
    let kind = args.workload;
    let (nproc, load_before) = procs::host_facts();
    // Before any sender thread is spawned, so every one inherits it.
    let cpus = procs::CpuSplit::for_host();
    let pinned = cpus.pin_generator();
    let steal_before = procs::cpu_times();
    let work = work_root()?;
    let scratch = ScratchDir(work.join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);

    // Inputs first, before any clock starts.
    let fixture_dir =
        fixture::cached_fixture(&work, args.seed).map_err(|e| format!("fixture: {e}"))?;
    let rounds = ((args.seconds / ROUND_S).floor() as usize).max(1);
    let fixed_s = args.seconds / rounds as f64 * FIXED_SHARE;
    let saturated_s = args.seconds / rounds as f64 - fixed_s;
    let plan = workloads::plan(kind, args.seed, rounds, fixed_s, saturated_s);
    let reference = workloads::Reference::new();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fleet: Option<Fleet> = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut old) = fleet.take() {
            old.stop();
            let _ = std::fs::remove_dir_all(scratch.0.join(format!("setup-{}", rep - 1)));
        }
        let dir = scratch.0.join(format!("setup-{rep}"));
        let (f, secs) = workloads::start(
            kind,
            cpus,
            &args.bin_dir,
            &dir,
            &fixture_dir,
            &plan.warmup,
            args.seed,
        )?;
        setups.push(secs);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    println!(
        "workload {} seed {} seconds {} ({rounds} rounds of {fixed_s:.2} s fixed-rate + {saturated_s:.2} s saturated) host nproc {nproc} loadavg {load_before}",
        kind.name(),
        args.seed,
        args.seconds
    );
    println!(
        "CPU split: {}{}",
        cpus.describe(),
        if pinned || nproc < 2 {
            ""
        } else {
            " (generator pin refused)"
        }
    );
    for d in &fleet.daemons {
        println!(
            "daemon {} pid {} threads {} (node flags {})",
            d.name,
            d.pid(),
            d.status_field("Threads"),
            workloads::NODE_THREADS
                .iter()
                .map(|(f, v)| format!("{f} {v}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    // The thread counts the nodes run with must be the ones passed.
    let mut problems: Vec<String> = Vec::new();
    for &node in &fleet.nodes {
        let shards = workloads::reactor_shards(node);
        println!("node {node} reports reactor_shards {shards:?}");
        if shards != Some(workloads::NODE_THREADS[0].1) {
            problems.push(format!("node {node} runs {shards:?} reactor shards"));
        }
    }

    let samples = workloads::Samples::default();
    let before = args.trace.then(|| trace::scrape(&fleet));
    let daemon_gauge = gauges.last().filter(|_| gauges.len() >= 2);
    let m = measure(
        &fleet,
        daemon_gauge,
        &plan,
        args.seed,
        fixed_s,
        saturated_s,
        &samples,
    );
    let after = args.trace.then(|| trace::scrape(&fleet));
    let lag_end = match kind {
        Kind::RoutedMixed => {
            workloads::log_records(fleet.nodes[0]).unwrap_or(0.0)
                - workloads::log_records(fleet.nodes[1]).unwrap_or(0.0)
        }
        _ => 0.0,
    };
    let rss_kb: u64 = fleet.daemons.iter().map(|d| d.status_field("VmHWM")).sum();
    // The router's added latency: one request sequence, sent directly to
    // the primary and then through the router.
    let proxy =
        (args.trace && kind == Kind::RoutedMixed).then(|| trace::probe_routed(&fleet, &plan));

    // Correctness gate.
    let mut kept = std::mem::take(&mut fleet.samples);
    kept.extend(samples.take());
    let mut end_samples = Vec::new();
    if kind == Kind::RoutedMixed {
        let (s, p) = workloads::routed_end_check(&fleet, args.seed);
        end_samples = s;
        problems.extend(p);
    }
    fleet.stop();
    let historical = match kind {
        Kind::RoutedMixed => Some(workloads::replay_store(&fleet.stores[0])?),
        _ => None,
    };
    let registry = historical
        .as_ref()
        .map(|(store, _, _)| perfpred_store::RegistryModel::new(store.registry()));
    problems.extend(workloads::verify(&reference, &kept, None));
    for (source, answers) in workloads::END_SOURCES.iter().zip(&end_samples) {
        for e in workloads::verify(&reference, answers, registry.as_ref()) {
            problems.push(format!("{source}: {e}"));
        }
    }
    let checked = kept.len() + end_samples.iter().map(Vec::len).sum::<usize>();

    let (fixed, saturated) = (&m.fixed, &m.saturated);
    let attempted = fixed.attempted + saturated.attempted;
    let failed = fixed.failed + saturated.failed + problems.len() as u64;
    let mut lat = fixed.latency_ms.clone();
    lat.sort_by(f64::total_cmp);
    let mut late = fixed.late_ms.clone();
    let (tail_p, tail) = report::tail(&lat);
    let rates = &m.slice_rates;
    println!(
        "fixed-rate windows: {:.0} req/s offered, {} sent, {} failed, p{tail_p} {tail:.4} ms over {} samples, generator late p50 {:.4} ms, in flight max {}",
        kind.fixed_rate(),
        fixed.attempted,
        fixed.failed,
        lat.len(),
        rng::median(&mut late),
        fixed.inflight_max,
    );
    println!(
        "fixed-rate sub-windows of {WINDOW_S} s: p50 ms {:.4?}; daemon CPU us/req {:.2?}",
        m.p50s, m.cpu_per_req
    );
    println!(
        "saturated windows: {} sent, {} failed, {} slices of {} s, daemon CPU busy share {:.2?}",
        saturated.attempted,
        saturated.failed,
        rates.len(),
        load::SLICE_S,
        m.saturated_busy
    );
    let gauge: Vec<f64> = m.sub_gauge.iter().flatten().copied().collect();
    println!(
        "host-speed gauge on the daemons' CPU: CPU ns per batch in each sub-window {gauge:.0?} (reference {})",
        calib::REFERENCE_BATCH_NS
    );
    println!(
        "correctness: {checked} answers re-computed in-process, {} problems",
        problems.len()
    );
    for e in fixed
        .errors
        .iter()
        .chain(&saturated.errors)
        .chain(&problems)
        .take(10)
    {
        println!("  problem: {e}");
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let ctx = trace::Context {
            kind,
            seed: args.seed,
            plan: &plan,
            reference: &reference,
            fixture: &fixture_dir,
            scratch: &scratch.0,
            before: before.as_ref().expect("scraped when tracing"),
            after: after.as_ref().expect("scraped when tracing"),
            fixed,
            daemon_cpu_ns: m.fixed_cpu_ns,
            daemon_cpu_each: &m.fixed_cpu_each,
            daemon_names: fleet.daemons.iter().map(|d| d.name.clone()).collect(),
            upstreams: fleet.nodes.iter().map(|a| a.to_string()).collect(),
            completed: fixed.completed() + saturated.completed(),
            proxy: proxy.as_ref(),
            fixed_done: m.fixed_done,
            catchup_ms: fleet.catchup_ms,
            lag_end,
            registry: historical.as_ref().map(|(s, secs, n)| (s, *secs, *n)),
        };
        trace::per_layer(&ctx, &mut metrics)?;
    } else {
        // Interference from other tenants of the host only ever slows a
        // set-up, sub-window or slice down, so each figure is the better
        // quartile of its parts: lower for costs, upper for throughput.
        // The parts of the measured rounds are first expressed at the
        // reference host speed. Set-up, which runs before any gauge
        // window, stands as measured.
        let figure = |values: &[f64], readings: &[Option<f64>], rate: bool| {
            (
                report::better_quartile(values, rate),
                report::better_quartile(&at_reference(values, readings, rate), rate),
            )
        };
        let p50 = figure(&m.p50s, &m.sub_gauge, false);
        let sat = figure(rates, &m.slice_gauge, true);
        let cpu = figure(&m.cpu_per_req, &m.sub_gauge, false);
        println!(
            "as measured: p50_ms {} ms, saturated_rps {} 1/s, cpu_us_per_req {} us",
            p50.0, sat.0, cpu.0
        );
        metrics.add("setup_s", report::better_quartile(&setups, false), "s");
        metrics.add("p50_ms", p50.1, "ms");
        metrics.add("saturated_rps", sat.1, "1/s");
        metrics.add("cpu_us_per_req", cpu.1, "us");
        metrics.add("rss_mb", rss_kb as f64 / 1024.0, "MB");
    }
    metrics.print();
    let (_, load_after) = procs::host_facts();
    let steal = procs::cpu_times().since(&steal_before);
    println!(
        "setup_s runs: {setups:?}; loadavg after {load_after}; CPU time stolen by the hypervisor {:.2} %",
        steal * 100.0
    );
    Ok(report::Outcome {
        correct: failed == 0 && !lat.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
