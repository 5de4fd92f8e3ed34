//! Daemon configuration and command-line parsing (std-only, no clap).

use perfpred_cluster::Role;
use perfpred_core::CacheOptions;
use perfpred_resman::RuntimeOptions;
use std::path::PathBuf;

/// Which models the daemon hosts and how they are calibrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// Instant start-up: the layered queuing predictor on the paper's
    /// Table 2 processing times, plus the advanced hybrid calibrated from
    /// it. No simulator campaigns, so no historical model.
    Paper,
    /// Calibrate all three predictors against the simulated testbed with
    /// smoke-grade simulations (seconds of start-up).
    CalibratedQuick,
    /// Calibrate all three predictors with measurement-grade simulations
    /// (minutes of start-up; what the repro experiments use).
    Calibrated,
}

impl ModelSpec {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "paper" => Ok(ModelSpec::Paper),
            "calibrated-quick" | "quick" => Ok(ModelSpec::CalibratedQuick),
            "calibrated" | "measured" => Ok(ModelSpec::Calibrated),
            other => Err(format!(
                "unknown model spec '{other}' (expected paper, calibrated-quick or calibrated)"
            )),
        }
    }
}

/// Replicated-cluster membership: who this node is, which role it boots
/// in, where its replication hub listens, and who its peers are.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's name (unique within the cluster).
    pub node: String,
    /// Boot role. A configured primary still runs the rejoin handshake
    /// against its peers before accepting writes.
    pub role: Role,
    /// Replication hub port; `0` = ephemeral (pair with
    /// `repl_port_file`). The hub binds the daemon's `--host`.
    pub repl_port: u16,
    /// When set, the bound replication port is written here.
    pub repl_port_file: Option<PathBuf>,
    /// Replication addresses (`host:port`) of the other nodes.
    pub peers: Vec<String>,
    /// Whether this follower takes over when the primary goes silent.
    pub designated: bool,
    /// How long the primary must be silent before the designated
    /// follower seizes the epoch.
    pub failover_grace_ms: u64,
}

/// Everything the daemon needs to come up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind, default `127.0.0.1`.
    pub host: String,
    /// Port to bind; `0` asks the OS for an ephemeral port (pair with
    /// `port_file` for scripts).
    pub port: u16,
    /// When set, the daemon writes the bound port number here once
    /// listening — how the CI smoke job finds an ephemeral port.
    pub port_file: Option<PathBuf>,
    /// Dispatcher threads running the routes that may block (`/observe`,
    /// `/plan`, solver-bound `/predict`).
    pub workers: usize,
    /// Epoll reactor shards (at least 1). Defaults to the CPU count
    /// (1..8).
    pub reactor_shards: usize,
    /// Layered-queuing solver threads (the micro-batching pool).
    pub solvers: usize,
    /// Bound on requests queued between the shards and the dispatchers;
    /// overflow is answered with an immediate 503.
    pub queue_depth: usize,
    /// Most predict jobs one solver drains per lock acquisition.
    pub batch_max: usize,
    /// Admission-control options; the threshold is validated at parse
    /// time via [`RuntimeOptions::with_threshold`].
    pub admission: RuntimeOptions,
    /// Prediction-cache shape. Serving defaults to a bounded cache
    /// (capacity 262 144) so the daemon cannot grow without bound —
    /// unlike the repro sweeps, which keep the unbounded default.
    pub cache: CacheOptions,
    /// Model hosting/calibration choice.
    pub models: ModelSpec,
    /// Seed for calibrated model specs.
    pub seed: u64,
    /// Directory for the durable observation log. `None` keeps the
    /// observation store in memory (refits still run, nothing persists).
    pub store_dir: Option<PathBuf>,
    /// Observations between scheduled refits.
    pub refit_window: usize,
    /// Mean relative error over recent observations that triggers an
    /// early (drift) refit; `0` disables drift detection.
    pub drift_threshold: f64,
    /// Default `/predict` deadline budget in milliseconds; `0` disables
    /// deadlines (requests then wait the full solver reply timeout). A
    /// request's own `deadline_ms` field overrides this per call.
    pub deadline_ms: u64,
    /// Replicated-cluster membership; `None` = standalone daemon.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let parallelism =
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        ServeConfig {
            host: "127.0.0.1".into(),
            port: 7020,
            port_file: None,
            workers: parallelism.clamp(2, 16),
            reactor_shards: parallelism.clamp(1, 8),
            solvers: (parallelism / 4).clamp(1, 4),
            queue_depth: 1024,
            batch_max: 32,
            admission: RuntimeOptions::default(),
            cache: CacheOptions {
                capacity: Some(262_144),
                ..Default::default()
            },
            models: ModelSpec::Paper,
            seed: perfpred_bench::context::DEFAULT_SEED,
            store_dir: None,
            refit_window: 128,
            drift_threshold: 0.25,
            deadline_ms: 1_000,
            cluster: None,
        }
    }
}

/// The `--help` text.
pub const USAGE: &str = "\
perfpred-serve — online prediction-serving daemon

USAGE: perfpred-serve [OPTIONS]

  --host ADDR          interface to bind (default 127.0.0.1)
  --port N             port to bind; 0 = ephemeral (default 7020)
  --port-file PATH     write the bound port here once listening
  --workers N          dispatcher threads for routes that may block
                       (default: CPU count, 2..16)
  --reactor-shards N   epoll reactor shards, at least 1
                       (default: CPU count, 1..8)
  --solvers N          LQ solver threads (default: CPU count / 4, 1..4)
  --queue-depth N      dispatch-queue bound, overflow => 503
                       (default 1024)
  --batch-max N        max predict jobs per solver batch (default 32)
  --threshold X        admission threshold in [0, 1) (default 0.05)
  --cache-capacity N   prediction-cache entry bound, 0 = unbounded
                       (default 262144)
  --client-quantum N   cache client-count quantum (default 1 = exact)
  --model SPEC         paper | calibrated-quick | calibrated (default paper)
  --seed N             calibration seed (default: the paper's)
  --store-dir PATH     durable observation log directory; unset = in-memory
  --refit-window N     observations between scheduled refits (default 128)
  --drift-threshold X  mean relative error triggering an early refit,
                       0 disables drift detection (default 0.25)
  --deadline-ms N      default /predict deadline budget in ms; past it the
                       daemon answers from the degraded ladder (cache,
                       historical, hybrid) or 504s. 0 disables deadlines
                       (default 1000)

Clustering (any of these flags enables cluster mode; requires --store-dir):
  --cluster-node NAME  this node's name (required in cluster mode)
  --cluster-role ROLE  primary | follower (default primary)
  --repl-port N        replication hub port; 0 = ephemeral (default 0)
  --repl-port-file P   write the bound replication port here
  --repl-peers A,B     replication addresses of the other nodes
                       (required for followers)
  --designated-successor
                       this follower takes over when the primary goes
                       silent past the grace period
  --failover-grace-ms N
                       primary silence before takeover (default 3000)

  --help               print this text

Fault injection (chaos testing): set PERFPRED_FAULTS to a spec like
  solver_delay=5ms:p0.1,store_io_err=p0.01,accept_reset=p0.05
and optionally PERFPRED_FAULT_SEED for a reproducible draw sequence.
";

impl ServeConfig {
    /// Parses command-line arguments (everything after argv[0]).
    ///
    /// Returns `Err(message)` on malformed input; `--help` surfaces as an
    /// error carrying [`USAGE`] so `main` can print-and-exit.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<ServeConfig, String> {
        let mut cfg = ServeConfig::default();
        let mut args = args.into_iter();
        // Cluster flags are collected loose and validated together at the
        // end, so flag order never matters.
        let mut cluster_touched = false;
        let mut cluster = ClusterConfig {
            node: String::new(),
            role: Role::Primary,
            repl_port: 0,
            repl_port_file: None,
            peers: Vec::new(),
            designated: false,
            failover_grace_ms: 3_000,
        };
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
                "--host" => cfg.host = value(&mut args, "--host")?,
                "--port" => cfg.port = parsed(&value(&mut args, "--port")?, "--port")?,
                "--port-file" => {
                    cfg.port_file = Some(PathBuf::from(value(&mut args, "--port-file")?));
                }
                "--workers" => {
                    cfg.workers = parsed::<usize>(&value(&mut args, "--workers")?, "--workers")?
                        .clamp(1, 256);
                }
                "--reactor-shards" => {
                    cfg.reactor_shards = parsed::<usize>(
                        &value(&mut args, "--reactor-shards")?,
                        "--reactor-shards",
                    )?
                    .min(256);
                    if cfg.reactor_shards == 0 {
                        return Err("--reactor-shards must be at least 1".into());
                    }
                }
                "--solvers" => {
                    cfg.solvers =
                        parsed::<usize>(&value(&mut args, "--solvers")?, "--solvers")?.clamp(1, 64);
                }
                "--queue-depth" => {
                    cfg.queue_depth =
                        parsed::<usize>(&value(&mut args, "--queue-depth")?, "--queue-depth")?
                            .max(1);
                }
                "--batch-max" => {
                    cfg.batch_max =
                        parsed::<usize>(&value(&mut args, "--batch-max")?, "--batch-max")?.max(1);
                }
                "--threshold" => {
                    let t: f64 = parsed(&value(&mut args, "--threshold")?, "--threshold")?;
                    cfg.admission = RuntimeOptions::with_threshold(t).map_err(|e| e.to_string())?;
                }
                "--cache-capacity" => {
                    let n: usize =
                        parsed(&value(&mut args, "--cache-capacity")?, "--cache-capacity")?;
                    cfg.cache.capacity = if n == 0 { None } else { Some(n) };
                }
                "--client-quantum" => {
                    cfg.cache.client_quantum =
                        parsed::<u32>(&value(&mut args, "--client-quantum")?, "--client-quantum")?
                            .max(1);
                }
                "--model" => cfg.models = ModelSpec::parse(&value(&mut args, "--model")?)?,
                "--seed" => cfg.seed = parsed(&value(&mut args, "--seed")?, "--seed")?,
                "--store-dir" => {
                    cfg.store_dir = Some(PathBuf::from(value(&mut args, "--store-dir")?));
                }
                "--refit-window" => {
                    cfg.refit_window =
                        parsed::<usize>(&value(&mut args, "--refit-window")?, "--refit-window")?
                            .max(1);
                }
                "--drift-threshold" => {
                    let t: f64 =
                        parsed(&value(&mut args, "--drift-threshold")?, "--drift-threshold")?;
                    if !t.is_finite() || t < 0.0 {
                        return Err(format!(
                            "--drift-threshold must be a non-negative number, got {t}"
                        ));
                    }
                    cfg.drift_threshold = t;
                }
                "--deadline-ms" => {
                    cfg.deadline_ms =
                        parsed::<u64>(&value(&mut args, "--deadline-ms")?, "--deadline-ms")?;
                }
                "--cluster-node" => {
                    cluster.node = value(&mut args, "--cluster-node")?;
                    cluster_touched = true;
                }
                "--cluster-role" => {
                    cluster.role = match value(&mut args, "--cluster-role")?.as_str() {
                        "primary" => Role::Primary,
                        "follower" => Role::Follower,
                        other => {
                            return Err(format!(
                                "--cluster-role: expected primary or follower, got '{other}'"
                            ))
                        }
                    };
                    cluster_touched = true;
                }
                "--repl-port" => {
                    cluster.repl_port = parsed(&value(&mut args, "--repl-port")?, "--repl-port")?;
                    cluster_touched = true;
                }
                "--repl-port-file" => {
                    cluster.repl_port_file =
                        Some(PathBuf::from(value(&mut args, "--repl-port-file")?));
                    cluster_touched = true;
                }
                "--repl-peers" => {
                    cluster.peers = value(&mut args, "--repl-peers")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    cluster_touched = true;
                }
                "--designated-successor" => {
                    cluster.designated = true;
                    cluster_touched = true;
                }
                "--failover-grace-ms" => {
                    cluster.failover_grace_ms = parsed::<u64>(
                        &value(&mut args, "--failover-grace-ms")?,
                        "--failover-grace-ms",
                    )?
                    .max(1);
                    cluster_touched = true;
                }
                other => return Err(format!("unknown flag '{other}' (try --help)")),
            }
        }
        if cluster_touched {
            if cluster.node.is_empty() {
                return Err("cluster mode needs --cluster-node NAME".into());
            }
            if cfg.store_dir.is_none() {
                return Err("cluster mode needs --store-dir (the log is what replicates)".into());
            }
            if cluster.role == Role::Follower && cluster.peers.is_empty() {
                return Err("a follower needs --repl-peers to pull from".into());
            }
            if cluster.designated && cluster.role != Role::Follower {
                return Err("--designated-successor only makes sense on a follower".into());
            }
            cfg.cluster = Some(cluster);
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeConfig, String> {
        ServeConfig::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_serving_shaped() {
        let cfg = parse(&[]).unwrap();
        assert_eq!(cfg.port, 7020);
        assert_eq!(cfg.models, ModelSpec::Paper);
        // Bounded cache by default — a daemon must not grow unboundedly.
        assert!(cfg.cache.capacity.is_some());
        assert_eq!(cfg.cache.client_quantum, 1);
        assert!(cfg.workers >= 2);
        assert!(cfg.solvers >= 1);
        assert!(cfg.reactor_shards >= 1);
    }

    #[test]
    fn reactor_shards_flag_selects_the_core() {
        assert!(parse(&["--reactor-shards", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert_eq!(parse(&["--reactor-shards", "4"]).unwrap().reactor_shards, 4);
        assert!(parse(&["--reactor-shards", "x"])
            .unwrap_err()
            .contains("--reactor-shards"));
    }

    #[test]
    fn flags_override_defaults() {
        let cfg = parse(&[
            "--port",
            "0",
            "--workers",
            "3",
            "--solvers",
            "2",
            "--queue-depth",
            "7",
            "--batch-max",
            "4",
            "--threshold",
            "0.2",
            "--cache-capacity",
            "0",
            "--client-quantum",
            "10",
            "--model",
            "calibrated-quick",
            "--seed",
            "42",
            "--port-file",
            "/tmp/p",
            "--store-dir",
            "/tmp/obs",
            "--refit-window",
            "32",
            "--drift-threshold",
            "0.4",
            "--deadline-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(cfg.port, 0);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.solvers, 2);
        assert_eq!(cfg.queue_depth, 7);
        assert_eq!(cfg.batch_max, 4);
        assert!((cfg.admission.threshold - 0.2).abs() < 1e-12);
        assert_eq!(cfg.cache.capacity, None);
        assert_eq!(cfg.cache.client_quantum, 10);
        assert_eq!(cfg.models, ModelSpec::CalibratedQuick);
        assert_eq!(cfg.seed, 42);
        assert_eq!(
            cfg.port_file.as_deref(),
            Some(std::path::Path::new("/tmp/p"))
        );
        assert_eq!(
            cfg.store_dir.as_deref(),
            Some(std::path::Path::new("/tmp/obs"))
        );
        assert_eq!(cfg.refit_window, 32);
        assert!((cfg.drift_threshold - 0.4).abs() < 1e-12);
        assert_eq!(cfg.deadline_ms, 250);
    }

    #[test]
    fn deadline_defaults_to_a_second_and_zero_disables() {
        assert_eq!(parse(&[]).unwrap().deadline_ms, 1_000);
        assert_eq!(parse(&["--deadline-ms", "0"]).unwrap().deadline_ms, 0);
        assert!(parse(&["--deadline-ms", "-3"])
            .unwrap_err()
            .contains("--deadline-ms"));
    }

    #[test]
    fn cluster_flags_assemble_and_validate() {
        assert!(parse(&[]).unwrap().cluster.is_none());

        let cfg = parse(&[
            "--store-dir",
            "/tmp/obs",
            "--cluster-node",
            "b",
            "--cluster-role",
            "follower",
            "--repl-peers",
            "127.0.0.1:7040, 127.0.0.1:7041",
            "--repl-port",
            "7042",
            "--repl-port-file",
            "/tmp/rp",
            "--designated-successor",
            "--failover-grace-ms",
            "750",
        ])
        .unwrap();
        let c = cfg.cluster.unwrap();
        assert_eq!(c.node, "b");
        assert_eq!(c.role, Role::Follower);
        assert_eq!(c.peers, vec!["127.0.0.1:7040", "127.0.0.1:7041"]);
        assert_eq!(c.repl_port, 7042);
        assert_eq!(
            c.repl_port_file.as_deref(),
            Some(std::path::Path::new("/tmp/rp"))
        );
        assert!(c.designated);
        assert_eq!(c.failover_grace_ms, 750);

        // A primary needs no peers; flag order does not matter.
        let c = parse(&["--cluster-node", "a", "--store-dir", "/tmp/obs"])
            .unwrap()
            .cluster
            .unwrap();
        assert_eq!(c.role, Role::Primary);
        assert_eq!(c.failover_grace_ms, 3_000);

        // Validation: node name, store dir, follower peers, successor role.
        assert!(parse(&["--repl-port", "7040", "--store-dir", "/tmp/o"])
            .unwrap_err()
            .contains("--cluster-node"));
        assert!(parse(&["--cluster-node", "a"])
            .unwrap_err()
            .contains("--store-dir"));
        assert!(parse(&[
            "--cluster-node",
            "b",
            "--cluster-role",
            "follower",
            "--store-dir",
            "/tmp/o"
        ])
        .unwrap_err()
        .contains("--repl-peers"));
        assert!(parse(&[
            "--cluster-node",
            "a",
            "--designated-successor",
            "--store-dir",
            "/tmp/o"
        ])
        .unwrap_err()
        .contains("follower"));
        assert!(parse(&["--cluster-role", "king"])
            .unwrap_err()
            .contains("primary or follower"));
    }

    #[test]
    fn bad_input_is_rejected_with_context() {
        assert!(parse(&["--port"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--port", "abc"]).unwrap_err().contains("--port"));
        assert!(parse(&["--threshold", "1.5"])
            .unwrap_err()
            .contains("threshold"));
        assert!(parse(&["--threshold", "NaN"])
            .unwrap_err()
            .contains("threshold"));
        assert!(parse(&["--model", "nope"]).unwrap_err().contains("nope"));
        assert!(parse(&["--drift-threshold", "-1"])
            .unwrap_err()
            .contains("drift-threshold"));
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("--help"));
        assert!(parse(&["--help"]).unwrap_err().contains("USAGE"));
    }
}
