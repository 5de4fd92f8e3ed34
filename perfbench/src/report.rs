//! Metric output (human lines plus the final JSON line) and the
//! steadiness mode.

use perfpred_core::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Adds one metric.
    pub fn add(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Prints one `name value unit` line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("metric {name} = {value} {unit}");
        }
    }
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    /// Zero failed operations and zero mismatches.
    pub correct: bool,
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Failed operations plus correctness mismatches.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// The final JSON line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a missing figure reads 0.
                let v = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}": {{"value": {v:?}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line printed by [`Outcome::json_line`].
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let doc = Json::parse(line)?;
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).ok_or(format!("no '{k}'"));
        let Some(Json::Obj(map)) = doc.get("metrics") else {
            return Err("no 'metrics' object".into());
        };
        let mut metrics = Metrics::default();
        for (name, m) in map {
            let value = m.get("value").and_then(Json::as_f64).ok_or("no value")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("no unit")?;
            metrics.add(name, value, unit);
        }
        Ok(Outcome {
            correct: doc
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("no 'correct'")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// The median of `values`.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    crate::rng::median(&mut v)
}

/// The lower quartile of `values` (`higher`: the upper quartile), by
/// linear interpolation.
pub fn better_quartile(values: &[f64], higher: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    crate::rng::quantile(&v, if higher { 0.75 } else { 0.25 })
}

/// The highest percentile of `sorted` with at least ten samples beyond
/// it: `(percentile, value)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let p = [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, crate::rng::quantile(sorted, p / 100.0))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = d.len();
    if m < 2 {
        let v = d.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let q = |i: usize| {
        let (j, delta) = ((i * (m + 1)) / 4, (i * (m + 1)) % 4);
        let j = j.clamp(1, m - 1);
        (d[j - 1] * (4 - delta) as f64 + d[j] * delta as f64) / 4.0
    };
    (q(1), q(2), q(3))
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Vec::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return Vec::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Runs the benchmark `n` times on seeds `seed..seed+n` and prints each
/// end-to-end metric's median, quartiles and spread (interquartile range
/// over median) next to its bound. Returns the exit code.
pub fn steadiness(bin_dir: &Path, workload: &str, seed: u64, seconds: f64, n: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 1;
        }
    };
    let (nproc, load) = crate::procs::host_facts();
    println!("steadiness {workload}: {n} runs, {seconds} s each, nproc {nproc}, loadavg {load}");
    let mut runs = Vec::new();
    for s in seed..seed + n as u64 {
        let mut steal = String::new();
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &s.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .arg("--bin-dir")
            .arg(bin_dir)
            .stderr(Stdio::inherit())
            .output();
        let parsed = out.map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            steal = text
                .lines()
                .find_map(|l| {
                    l.split_once("stolen by the hypervisor ")
                        .map(|(_, v)| v.to_string())
                })
                .unwrap_or_default();
            Outcome::parse(text.lines().last().unwrap_or(""))
        });
        match parsed {
            Ok(o) if o.correct => {
                let line: Vec<String> = o
                    .metrics
                    .0
                    .iter()
                    .map(|(k, v, _)| format!("{k}={v:.5}"))
                    .collect();
                println!("  seed {s}: {} (stolen {steal})", line.join(" "));
                runs.push(o);
            }
            Ok(o) => {
                eprintln!(
                    "perfbench: seed {s} failed its checks ({} failed)",
                    o.failed
                );
                return 1;
            }
            Err(e) => {
                eprintln!("perfbench: seed {s}: no result ({e})");
                return 1;
            }
        }
    }
    let bounds = bounds();
    let (_, load_after) = crate::procs::host_facts();
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (name, _, unit) in &runs[0].metrics.0 {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.metrics.get(name)).collect();
        let (q1, _, q3) = quartiles(&values);
        let med = median_of(&values);
        let bound = bounds
            .iter()
            .find(|(b, _)| b == name)
            .map_or("-".to_string(), |(_, b)| format!("{b}"));
        println!(
            "{:<16} {q1:>12.5} {med:>12.5} {q3:>12.5} {:>8.4} {bound:>7} {unit}",
            name,
            (q3 - q1) / med
        );
    }
    println!("loadavg after {load_after}");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_parses_back_to_the_same_names_and_units() {
        let mut metrics = Metrics::default();
        metrics.add("setup_s", 0.8127, "s");
        metrics.add("p50_ms", 0.123_456_789_012_345_6, "ms");
        metrics.add("saturated_rps", 41234.5, "1/s");
        let out = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        };
        let line = out.json_line();
        let back = Outcome::parse(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1000, 0));
        let mut names: Vec<_> = out.metrics.0.clone();
        names.sort_by(|a, b| a.0.cmp(&b.0));
        // The parser's object map is name-ordered.
        assert_eq!(back.metrics.0, names);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        assert_eq!(tail(&v[..200]).0, 95.0);
        assert_eq!(tail(&v[..20]).0, 50.0);
    }
}
