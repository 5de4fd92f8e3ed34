//! Measurement harness: single runs, parallel client sweeps, and
//! max-throughput search — the "application-specific benchmarks" of §2.

use crate::config::{GroundTruth, SimOptions};
use crate::engine::TradeSim;
use perfpred_core::{metrics, ServerArch, Summary, Workload};
use perfpred_desim::splitmix64;
use std::sync::Mutex;

/// Measurements for one service class at one operating point.
#[derive(Debug, Clone)]
pub struct ClassMeasure {
    /// Class name.
    pub name: String,
    /// Clients in the class.
    pub clients: u32,
    /// Mean response time, ms.
    pub mrt_ms: f64,
    /// Response-time standard deviation, ms.
    pub rt_std_ms: f64,
    /// Requests completed in the measurement window.
    pub completed: u64,
    /// Class throughput, requests/second.
    pub throughput_rps: f64,
    /// 90th-percentile response time (only when samples were stored).
    pub p90_ms: Option<f64>,
    /// Mean absolute deviation of response times from the mean (the
    /// double-exponential scale estimator of §7.1; only with samples).
    pub mad_ms: Option<f64>,
}

/// One measured operating point: a (server, workload) pair under load.
#[derive(Debug, Clone)]
pub struct MeasuredPoint {
    /// Total clients across classes.
    pub clients: u32,
    /// Per-class measurements, in workload class order.
    pub classes: Vec<ClassMeasure>,
    /// Workload mean response time (completion-weighted), ms.
    pub mrt_ms: f64,
    /// Aggregate throughput, requests/second.
    pub throughput_rps: f64,
    /// Application-server CPU utilisation in the window.
    pub app_cpu_utilization: f64,
    /// Database CPU utilisation.
    pub db_cpu_utilization: f64,
    /// Database disk utilisation.
    pub disk_utilization: f64,
    /// Session-cache miss ratio, when caching was simulated.
    pub cache_miss_ratio: Option<f64>,
}

impl MeasuredPoint {
    /// 90th percentile of the whole workload (only when samples stored).
    pub fn p90_ms(&self) -> Option<f64> {
        // Completion-weighted percentile needs the union of samples; when
        // every class stored one, approximate with the weighted mean of the
        // class percentiles (exact for a single class).
        let mut total = 0u64;
        let mut acc = 0.0;
        for c in &self.classes {
            let p = c.p90_ms?;
            acc += p * c.completed as f64;
            total += c.completed;
        }
        if total == 0 {
            None
        } else {
            Some(acc / total as f64)
        }
    }
}

/// Runs one measurement of `workload` on `server`.
pub fn run(
    gt: &GroundTruth,
    server: &ServerArch,
    workload: &Workload,
    opts: &SimOptions,
) -> MeasuredPoint {
    let raw = TradeSim::new(gt, server, workload, opts).run();
    let secs = raw.measure_ms / 1_000.0;
    let mut classes = Vec::with_capacity(workload.classes.len());
    let mut total_completed = 0u64;
    let mut weighted_mrt = 0.0;
    for (load, cr) in workload.classes.iter().zip(&raw.per_class) {
        let summary = if cr.samples.is_empty() {
            None
        } else {
            Summary::from_samples(&cr.samples)
        };
        let mrt = cr.rt.mean();
        classes.push(ClassMeasure {
            name: load.class.name.to_string(),
            clients: load.clients,
            mrt_ms: mrt,
            rt_std_ms: cr.rt.std_dev(),
            completed: cr.completed,
            throughput_rps: cr.completed as f64 / secs,
            p90_ms: summary.as_ref().map(|s| s.percentile(90.0)),
            mad_ms: summary.as_ref().map(|s| s.mean_abs_deviation(mrt)),
        });
        total_completed += cr.completed;
        weighted_mrt += mrt * cr.completed as f64;
    }
    MeasuredPoint {
        clients: workload.total_clients(),
        classes,
        mrt_ms: if total_completed > 0 {
            weighted_mrt / total_completed as f64
        } else {
            0.0
        },
        throughput_rps: total_completed as f64 / secs,
        app_cpu_utilization: raw.app_cpu_utilization[0],
        db_cpu_utilization: raw.db_cpu_utilization,
        disk_utilization: raw.disk_utilization,
        cache_miss_ratio: raw.cache_miss_ratio,
    }
}

/// Measures `template` scaled to each client count in `client_counts`, in
/// parallel (one OS thread per hardware thread, work-stealing by index).
/// Every cell derives its own seed from `opts.seed` through a SplitMix64
/// bijection, so results depend on neither scheduling nor collisions
/// between cell indices.
pub fn sweep(
    gt: &GroundTruth,
    server: &ServerArch,
    template: &Workload,
    client_counts: &[u32],
    opts: &SimOptions,
) -> Vec<MeasuredPoint> {
    assert!(!template.is_empty(), "sweep template must have clients");
    let base = f64::from(template.total_clients());
    // One pre-sized slot per cell: workers contend only when two finish
    // the *same* cell (never happens), not on one global results lock.
    let slots: Vec<Mutex<Option<MeasuredPoint>>> =
        client_counts.iter().map(|_| Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    // Workers record into the caller's metrics scope, if one is active.
    let scope = metrics::current_scope();
    std::thread::scope(|s| {
        for _ in 0..workers.min(client_counts.len()) {
            s.spawn(|| {
                let _scope_guard = scope.as_ref().map(metrics::Scope::enter);
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= client_counts.len() {
                        break;
                    }
                    let n = client_counts[i];
                    let w = template.scaled(f64::from(n) / base);
                    let cell_opts =
                        opts.with_seed(splitmix64(opts.seed.wrapping_add(i as u64 + 1)));
                    let started = std::time::Instant::now();
                    let point = run(gt, server, &w, &cell_opts);
                    metrics::histogram("tradesim.sweep_cell_ms")
                        .record(started.elapsed().as_secs_f64() * 1_000.0);
                    *slots[i].lock().expect("sweep cell lock") = Some(point);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sweep cell lock")
                .expect("every sweep cell completed")
        })
        .collect()
}

/// Result of a [`find_max_throughput_detailed`] search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxThroughput {
    /// Measured plateau throughput (or, when `saturated` is false, the
    /// rate at the heaviest probed load), requests/second.
    pub throughput_rps: f64,
    /// Whether the probe loop actually drove the application CPU into
    /// saturation (utilisation > 0.98) before the plateau measurement.
    /// When false the returned rate is a lower bound, not a maximum.
    pub saturated: bool,
    /// Number of probe simulations spent.
    pub probes: u32,
}

/// Finds the server's max throughput for the template's workload mix by
/// loading it until the application CPU saturates, then measuring the
/// plateau (the §2 "application-specific benchmark" service).
///
/// Logs a warning when the search never saturates; use
/// [`find_max_throughput_detailed`] to branch on that outcome instead.
pub fn find_max_throughput(
    gt: &GroundTruth,
    server: &ServerArch,
    template: &Workload,
    opts: &SimOptions,
) -> f64 {
    let m = find_max_throughput_detailed(gt, server, template, opts);
    if !m.saturated {
        eprintln!(
            "warning: max-throughput search on {} never saturated in {} probes; \
             reporting the last observed rate ({:.1} req/s) as a lower bound",
            server.name, m.probes, m.throughput_rps
        );
    }
    m.throughput_rps
}

/// [`find_max_throughput`] with an explicit outcome: whether saturation
/// was actually reached, and how many probes the search spent.
///
/// Probe runs reuse the caller's simulation configuration (session cache,
/// admission policy) but with short `quick`-length windows and no sample
/// storage — only the final plateau measurement runs at the caller's full
/// measurement quality.
pub fn find_max_throughput_detailed(
    gt: &GroundTruth,
    server: &ServerArch,
    template: &Workload,
    opts: &SimOptions,
) -> MaxThroughput {
    assert!(!template.is_empty());
    let base = f64::from(template.total_clients());
    let quick = SimOptions::quick(opts.seed);
    let probe_base = SimOptions {
        warmup_ms: quick.warmup_ms,
        measure_ms: quick.measure_ms,
        store_samples: false,
        ..*opts
    };
    let mut n = 200.0f64;
    let mut probes = 0u32;
    while probes < 24 {
        probes += 1;
        let w = template.scaled(n / base);
        let probe_opts = probe_base.with_seed(opts.seed.wrapping_add(u64::from(probes)));
        let probe = run(gt, server, &w, &probe_opts);
        metrics::counter("tradesim.max_tput.probes").incr();
        let util = probe.app_cpu_utilization;
        if util > 0.98 {
            // Measure the plateau well past the knee, at full quality.
            let w = template.scaled(n * 1.35 / base);
            let point = run(gt, server, &w, opts);
            return MaxThroughput {
                throughput_rps: point.throughput_rps,
                saturated: true,
                probes,
            };
        }
        let factor = (0.99 / util.max(0.05)).clamp(1.3, 3.0);
        n *= factor;
    }
    // Pathological: never saturated — report the heaviest observed rate,
    // flagged so callers do not mistake it for a measured maximum.
    metrics::counter("tradesim.max_tput.unsaturated").incr();
    let w = template.scaled(n / base);
    MaxThroughput {
        throughput_rps: run(gt, server, &w, opts).throughput_rps,
        saturated: false,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_per_class_and_aggregate() {
        let gt = GroundTruth::default();
        let p = run(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::with_buy_pct(400, 10.0),
            &SimOptions::quick(21),
        );
        assert_eq!(p.classes.len(), 2);
        assert_eq!(p.clients, 400);
        let sum: f64 = p.classes.iter().map(|c| c.throughput_rps).sum();
        assert!((sum - p.throughput_rps).abs() < 1e-9);
        assert!(p.mrt_ms > 0.0);
        assert!(p.p90_ms().is_none(), "no samples stored by default");
    }

    #[test]
    fn stored_samples_give_percentiles() {
        let gt = GroundTruth::default();
        let p = run(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(300),
            &SimOptions::quick(22).storing_samples(),
        );
        let p90 = p.p90_ms().unwrap();
        assert!(p90 > p.mrt_ms, "p90 {p90} should exceed mean {}", p.mrt_ms);
        assert!(p.classes[0].mad_ms.unwrap() > 0.0);
    }

    #[test]
    fn sweep_matches_individual_runs_and_is_ordered() {
        let gt = GroundTruth::default();
        let counts = [100u32, 400, 800];
        let opts = SimOptions::quick(23);
        let points = sweep(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(100),
            &counts,
            &opts,
        );
        assert_eq!(points.len(), 3);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.clients, counts[i]);
        }
        // Throughput grows roughly linearly below saturation (m ≈ 0.14).
        let m0 = points[0].throughput_rps / 100.0;
        let m1 = points[1].throughput_rps / 400.0;
        assert!((m0 - 0.14).abs() < 0.01, "m {m0}");
        assert!((m1 - 0.14).abs() < 0.01, "m {m1}");
        // Deterministic: same call again gives identical results.
        let again = sweep(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(100),
            &counts,
            &opts,
        );
        assert_eq!(points[2].mrt_ms, again[2].mrt_ms);
    }

    #[test]
    fn max_throughput_close_to_design_points() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(24);
        let f = find_max_throughput(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(100),
            &opts,
        );
        assert!((f - 186.0).abs() < 7.0, "AppServF max tput {f}");
    }

    #[test]
    fn max_throughput_search_reports_saturation() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(24);
        let m = find_max_throughput_detailed(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(100),
            &opts,
        );
        assert!(
            m.saturated,
            "AppServF should saturate within the probe budget"
        );
        assert!((1..24).contains(&m.probes), "probes {}", m.probes);
        // The plain wrapper returns the same measurement.
        let f = find_max_throughput(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(100),
            &opts,
        );
        assert_eq!(f, m.throughput_rps);
    }
}

/// Two-sided 95 % Student-t quantiles for small degrees of freedom
/// (df = replicas − 1); falls back to the normal 1.96 beyond the table.
fn t_quantile_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// A replicated measurement: the same operating point simulated with
/// independent seeds, reduced to a mean and a 95 % confidence half-width.
#[derive(Debug, Clone)]
pub struct ReplicatedPoint {
    /// Per-replica measured points.
    pub replicas: Vec<MeasuredPoint>,
    /// Mean of the replica workload mean response times, ms.
    pub mrt_ms: f64,
    /// 95 % confidence half-width on the mean response time, ms.
    pub mrt_ci95_ms: f64,
    /// Mean aggregate throughput, req/s.
    pub throughput_rps: f64,
    /// 95 % confidence half-width on the throughput, req/s.
    pub throughput_ci95_rps: f64,
}

/// Runs `replicas` independent simulations of the same operating point
/// (seeds derived from `opts.seed`) and reduces them to means with 95 %
/// confidence half-widths — the measurement rigour a production
/// recalibration service needs before trusting a data point.
pub fn replicate(
    gt: &GroundTruth,
    server: &ServerArch,
    workload: &Workload,
    opts: &SimOptions,
    replicas: usize,
) -> ReplicatedPoint {
    assert!(
        replicas >= 2,
        "need at least two replicas for a confidence interval"
    );
    let points: Vec<MeasuredPoint> = (0..replicas)
        .map(|i| {
            run(
                gt,
                server,
                workload,
                &opts.with_seed(opts.seed.wrapping_add(0x5EED * (i as u64 + 1))),
            )
        })
        .collect();
    let reduce = |values: Vec<f64>| -> (f64, f64) {
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
        let half = t_quantile_95(values.len() - 1) * (var / n).sqrt();
        (mean, half)
    };
    let (mrt, mrt_ci) = reduce(points.iter().map(|p| p.mrt_ms).collect());
    let (tput, tput_ci) = reduce(points.iter().map(|p| p.throughput_rps).collect());
    ReplicatedPoint {
        replicas: points,
        mrt_ms: mrt,
        mrt_ci95_ms: mrt_ci,
        throughput_rps: tput,
        throughput_ci95_rps: tput_ci,
    }
}

#[cfg(test)]
mod replication_tests {
    use super::*;

    #[test]
    fn replicas_differ_but_agree_statistically() {
        let gt = GroundTruth::default();
        let r = replicate(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(400),
            &SimOptions::quick(41),
            5,
        );
        assert_eq!(r.replicas.len(), 5);
        // Replicas use different seeds: not all identical.
        let first = r.replicas[0].mrt_ms;
        assert!(r.replicas.iter().any(|p| p.mrt_ms != first));
        // The CI is small relative to the mean at this well-sampled point.
        assert!(r.mrt_ci95_ms > 0.0);
        assert!(
            r.mrt_ci95_ms < 0.2 * r.mrt_ms,
            "CI {} vs mean {}",
            r.mrt_ci95_ms,
            r.mrt_ms
        );
        // The true closed-loop throughput sits inside the CI.
        let expect = 400.0 / 7.02;
        assert!(
            (r.throughput_rps - expect).abs() < (r.throughput_ci95_rps + 1.0),
            "throughput {} ± {} vs {}",
            r.throughput_rps,
            r.throughput_ci95_rps,
            expect
        );
    }

    #[test]
    fn t_table_shrinks_with_df() {
        assert!(t_quantile_95(1) > t_quantile_95(4));
        assert!(t_quantile_95(4) > t_quantile_95(29));
        assert_eq!(t_quantile_95(100), 1.96);
        assert_eq!(t_quantile_95(0), f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn single_replica_panics() {
        let gt = GroundTruth::default();
        let _ = replicate(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(10),
            &SimOptions::quick(42),
            1,
        );
    }
}
