//! Seeded observation streams and the observation-log fixture every node
//! recovers from at start-up.
//!
//! Observations are the paper's layered-queuing predictions for the three
//! server architectures, perturbed by ±5 % seeded noise — plausible
//! measurements that keep the refitter fitting real curves. The fixture
//! is written through the store's own log writer, so the same seed gives
//! byte-identical segments. It is built once per seed, before any clock
//! starts, cached under the work directory, and copied fresh into each
//! node's store directory so one run's writes never lengthen the next
//! run's replay.

use crate::rng::Rng;
use perfpred_core::{PerformanceModel, Workload};
use perfpred_lqns::trade::TradeLqnConfig;
use perfpred_lqns::LqnPredictor;
use perfpred_store::{LogOptions, Observation, ObservationLog};
use std::io;
use std::path::{Path, PathBuf};

/// Records in the fixture log. Replaying it dominates node start-up,
/// which makes `setup_s` a measurement of recovery rather than of
/// process spawn jitter.
pub const FIXTURE_RECORDS: usize = 40_000;
/// Bump when the generator changes, so stale cached fixtures are not
/// reused.
const FIXTURE_FORMAT: u32 = 2;
/// Client think time (s) the refitter assumes when it locates n*.
const THINK_S: f64 = 7.02;
/// First observation timestamp (µs since the UNIX epoch) and spacing.
const T0_US: u64 = 1_700_000_000_000_000;
const DT_US: u64 = 10_000;

/// One point of the observation table.
#[derive(Debug, Clone)]
struct Point {
    server: &'static str,
    clients: u32,
    buy_pct: f64,
    mrt_ms: f64,
    throughput_rps: f64,
}

/// A seeded stream of plausible observations.
pub struct ObsStream {
    table: Vec<Point>,
    rng: Rng,
    next_ts: u64,
}

/// Server names every workload draws from.
pub const SERVERS: [&str; 3] = ["AppServS", "AppServF", "AppServVF"];

impl ObsStream {
    /// The stream for `seed`, on its own RNG `stream`.
    pub fn new(seed: u64, stream: u64) -> ObsStream {
        let lqn = LqnPredictor::new(TradeLqnConfig::paper_table2());
        let archs = server_archs();
        let mut table = Vec::new();
        for (name, arch) in SERVERS.iter().zip(&archs) {
            // Both sides of the saturation point n* the refitter anchors
            // on, so every server's relationships get calibrated.
            let n_star = arch.max_throughput_rps * THINK_S;
            for buy_pct in [0.0, 10.0, 20.0] {
                for step in 1..40 {
                    let clients = (n_star * f64::from(step) * 0.05).round() as u32;
                    let w = Workload::with_buy_pct(clients, buy_pct);
                    let p = lqn
                        .predict(arch, &w)
                        .expect("paper LQN predicts every table point");
                    table.push(Point {
                        server: name,
                        clients,
                        buy_pct,
                        mrt_ms: p.mrt_ms,
                        throughput_rps: p.throughput_rps,
                    });
                }
            }
        }
        ObsStream {
            table,
            rng: Rng::new(seed, stream),
            next_ts: T0_US,
        }
    }

    /// The next observation.
    pub fn next_obs(&mut self) -> Observation {
        let i = self.rng.range(0, self.table.len() as u64) as usize;
        let p = &self.table[i];
        let noise = |r: &mut Rng| 1.0 + 0.1 * (r.unit() - 0.5);
        let obs = Observation {
            server: p.server.to_string(),
            clients: p.clients,
            buy_pct: p.buy_pct as f32,
            mrt_ms: p.mrt_ms * noise(&mut self.rng),
            throughput_rps: p.throughput_rps * noise(&mut self.rng),
            timestamp_us: self.next_ts,
        };
        self.next_ts += DT_US;
        obs
    }

    /// A `POST /observe` body carrying `n` observations.
    pub fn batch_body(&mut self, n: usize) -> String {
        let items: Vec<String> = (0..n)
            .map(|_| {
                let o = self.next_obs();
                format!(
                    r#"{{"server":"{}","clients":{},"buy_pct":{},"mrt_ms":{},"throughput_rps":{},"timestamp_us":{}}}"#,
                    o.server, o.clients, o.buy_pct, o.mrt_ms, o.throughput_rps, o.timestamp_us
                )
            })
            .collect();
        format!(r#"{{"batch":[{}]}}"#, items.join(","))
    }
}

/// The serving daemon's server architectures, in [`SERVERS`] order.
pub fn server_archs() -> [perfpred_core::ServerArch; 3] {
    use perfpred_core::ServerArch;
    [
        ServerArch::app_serv_s(),
        ServerArch::app_serv_f(),
        ServerArch::app_serv_vf(),
    ]
}

/// Writes the fixture log for `seed` into `dir` (which must not exist).
pub fn write_fixture(dir: &Path, seed: u64, records: usize) -> io::Result<()> {
    let mut stream = ObsStream::new(seed, 0xF1C7);
    let (mut log, _) = ObservationLog::open(dir, LogOptions::default(), |_| {})?;
    let mut batch = Vec::with_capacity(1024);
    for i in 0..records {
        batch.push(stream.next_obs());
        if batch.len() == 1024 || i + 1 == records {
            log.append_batch(&batch).map_err(io::Error::other)?;
            batch.clear();
        }
    }
    log.sync()
}

/// The cached fixture for `seed`, building it first if needed. Built in
/// a private temporary directory and renamed into place, so a reader
/// never sees a half-written fixture.
pub fn cached_fixture(work: &Path, seed: u64) -> io::Result<PathBuf> {
    let root = work.join("fixtures");
    let dir = root.join(format!("v{FIXTURE_FORMAT}-n{FIXTURE_RECORDS}-s{seed}"));
    if dir.is_dir() {
        return Ok(dir);
    }
    std::fs::create_dir_all(&root)?;
    let tmp = root.join(format!(".build-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    write_fixture(&tmp, seed, FIXTURE_RECORDS)?;
    if std::fs::rename(&tmp, &dir).is_err() && dir.is_dir() {
        // Another run published the same fixture first.
        std::fs::remove_dir_all(&tmp)?;
    }
    Ok(dir)
}

/// Copies a fixture's files into a fresh store directory.
pub fn copy_fixture(fixture: &Path, store_dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(store_dir)?;
    for entry in std::fs::read_dir(fixture)? {
        let entry = entry?;
        std::fs::copy(entry.path(), store_dir.join(entry.file_name()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn fixture_is_byte_stable_per_seed() {
        let (a, b, c) = (scratch("fa"), scratch("fb"), scratch("fc"));
        write_fixture(&a, 11, 3000).unwrap();
        write_fixture(&b, 11, 3000).unwrap();
        write_fixture(&c, 12, 3000).unwrap();
        let (fa, fb, fc) = (files(&a), files(&b), files(&c));
        assert_eq!(fa, fb, "same seed, same bytes");
        assert_ne!(fa, fc, "another seed, other observations");
        let segment_bytes: usize = fa
            .iter()
            .filter(|(n, _)| n.ends_with(".obs"))
            .map(|(_, b)| b.len())
            .sum();
        assert_eq!(segment_bytes, 3000 * perfpred_store::RECORD_BYTES);
        for d in [a, b, c] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn observations_are_valid_and_repeat() {
        let mut s1 = ObsStream::new(3, 1);
        let mut s2 = ObsStream::new(3, 1);
        for _ in 0..500 {
            let (o1, o2) = (s1.next_obs(), s2.next_obs());
            o1.validate().unwrap();
            assert_eq!(o1, o2);
        }
    }
}
