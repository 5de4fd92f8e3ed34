//! `repro` — regenerates every table and figure of the paper against the
//! simulated testbed.
//!
//! ```text
//! repro all              # everything, in paper order
//! repro fig2 table1      # just these
//! repro --list           # available experiment ids
//! repro all --jobs 4     # schedule experiments on 4 workers
//! repro all --quick      # smoke mode: short simulations, temp results
//! ```
//!
//! Independent experiments are scheduled on a work-stealing thread pool
//! (`--jobs N`, or `PERFPRED_JOBS`, default = available parallelism);
//! reports are printed and mirrored under `results/<id>.txt` in paper
//! order regardless of completion order, and are byte-identical for any
//! worker count. The RNG seed can be overridden with `PERFPRED_SEED`;
//! `PERFPRED_RESULTS_DIR` redirects the report mirror. Wall-clock and
//! per-experiment solver/cache activity land in the `section.repro` slice
//! of `BENCH.json` (path override: `PERFPRED_BENCH_JSON`).

use perfpred_bench::json::Json;
use perfpred_bench::report::save;
use perfpred_bench::timing::{available_parallelism, bench_json_path, Recorder};
use perfpred_bench::{experiments, runner, Experiments};

fn main() {
    let mut jobs_arg: Option<usize> = None;
    let mut quick = false;
    let mut list = false;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--quick" => quick = true,
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs_arg = Some(n),
                None => {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                }
            },
            _ => {
                if let Some(n) = arg.strip_prefix("--jobs=").and_then(|v| v.parse().ok()) {
                    jobs_arg = Some(n);
                } else {
                    ids.push(arg);
                }
            }
        }
    }
    if list {
        for id in experiments::ALL {
            println!("{id}");
        }
        return;
    }
    let all = ids.is_empty() || ids.iter().any(|a| a == "all");
    let ids: Vec<&str> = if all {
        experiments::ALL.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    // Refuse unknown ids before anything runs or is written.
    if let Some(bad) = ids.iter().find(|id| !experiments::ALL.contains(id)) {
        eprintln!("unknown experiment id: {bad} (try --list)");
        std::process::exit(2);
    }

    let seed = std::env::var("PERFPRED_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(perfpred_bench::context::DEFAULT_SEED);
    let jobs = runner::resolve_jobs(jobs_arg);
    let ctx = if quick {
        // Smoke mode: short simulations, and (unless the caller already
        // redirected it) keep the measurement-grade results/ mirror
        // untouched.
        if std::env::var_os("PERFPRED_RESULTS_DIR").is_none() {
            std::env::set_var(
                "PERFPRED_RESULTS_DIR",
                std::env::temp_dir().join("perfpred-quick-results"),
            );
        }
        Experiments::quick(seed)
    } else {
        Experiments::new(seed)
    };
    println!(
        "perfpred repro (seed {seed}, jobs {jobs}{})\n",
        if quick { ", quick" } else { "" }
    );

    // Per-experiment metrics come from each experiment's own scope (see
    // runner); the shared context's calibrations are lazy, so whichever
    // experiment first needs one includes that campaign's activity.
    let summary = runner::run_experiments(&ctx, &ids, jobs, |outcome| {
        let report = outcome.report.as_ref().expect("ids are checked above");
        println!("================ {} ================", outcome.id);
        println!("{report}");
        if !outcome.metrics.is_empty() {
            println!("---- metrics ----");
            print!("{}", outcome.metrics.render());
        }
        println!("[{} completed in {:.1?}]\n", outcome.id, outcome.duration);
        save(&outcome.id, report);
    });
    println!(
        "[{} experiments in {:.1?} on {} worker(s)]",
        summary.outcomes.len(),
        summary.wall,
        summary.jobs
    );

    write_trajectory(&summary, all, quick);
}

/// Records the run into `section.repro` of BENCH.json: per-experiment
/// wall-clock and solver/cache counters, plus — for full-suite runs —
/// wall-clock keyed by worker count (carried across invocations so a
/// serial and a parallel run yield a measured speedup).
fn write_trajectory(summary: &runner::RunSummary, full_suite: bool, quick: bool) {
    let mut rec = Recorder::new("repro");
    rec.note("jobs", summary.jobs);
    rec.note("quick", quick);
    rec.note("full_suite", full_suite);
    rec.note("wall_s", summary.wall.as_secs_f64());
    rec.note("available_parallelism", available_parallelism());

    let mut rows = Vec::new();
    let mut solves = 0u64;
    let mut amva_iterations = 0u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    for o in &summary.outcomes {
        let m = &o.metrics;
        let mut row = Json::obj();
        row.set("id", o.id.as_str());
        row.set("wall_s", o.duration.as_secs_f64());
        row.set("lqns_solves", m.counter("lqns.solves"));
        row.set("mva_solves", m.counter("lqns.mva_solves"));
        row.set("amva_iterations", m.counter("lqns.amva_iterations"));
        row.set("sim_runs", m.counter("tradesim.runs"));
        let (h, mi) = (m.counter("predcache.hits"), m.counter("predcache.misses"));
        row.set("cache_hits", h);
        row.set("cache_misses", mi);
        if h + mi > 0 {
            row.set("cache_hit_rate", h as f64 / (h + mi) as f64);
        }
        solves += m.counter("lqns.solves");
        amva_iterations += m.counter("lqns.amva_iterations");
        hits += h;
        misses += mi;
        rows.push(row);
    }
    rec.note("experiments", Json::Arr(rows));
    rec.note("total_lqns_solves", solves);
    rec.note("total_amva_iterations", amva_iterations);
    if hits + misses > 0 {
        rec.note("cache_hit_rate", hits as f64 / (hits + misses) as f64);
    }

    // Serial-vs-parallel trajectory: only comparable across full-suite
    // measurement-grade runs, keyed by worker count and carried over from
    // the existing file.
    if full_suite && !quick {
        let mut by_jobs = std::fs::read_to_string(bench_json_path())
            .ok()
            .and_then(|t| Json::parse(&t).ok())
            .and_then(|doc| doc.get("section.repro")?.get("wall_s_by_jobs").cloned())
            .filter(|v| matches!(v, Json::Obj(_)))
            .unwrap_or_else(Json::obj);
        by_jobs.set(&summary.jobs.to_string(), summary.wall.as_secs_f64());
        if let Some(serial) = by_jobs.get("1").and_then(Json::as_f64) {
            let best_parallel = by_jobs
                .as_obj_mut()
                .map(|m| {
                    m.iter()
                        .filter(|(k, _)| k.as_str() != "1")
                        .filter_map(|(_, v)| v.as_f64())
                        .fold(f64::INFINITY, f64::min)
                })
                .unwrap_or(f64::INFINITY);
            if best_parallel.is_finite() && best_parallel > 0.0 {
                rec.note("speedup_vs_serial", serial / best_parallel);
            }
        }
        rec.note("wall_s_by_jobs", by_jobs);
    }
    rec.write();
}
