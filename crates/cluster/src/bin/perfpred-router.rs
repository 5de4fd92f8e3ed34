//! The `perfpred-router` binary: a consistent-hash front tier over a
//! fleet of `perfpred-serve` nodes. Linux only: it serves on the epoll
//! event loop. SIGTERM or SIGINT drains it.

#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

use perfpred_cluster::RouterConfig;
use std::time::Duration;

const USAGE: &str = "\
USAGE: perfpred-router --upstreams ADDR,ADDR,... [OPTIONS]

OPTIONS:
  --host HOST             listen host (default 127.0.0.1)
  --port PORT             listen port (default 7030; 0 = ephemeral)
  --port-file PATH        write the bound port here once listening
  --upstreams A,B,C       serve nodes to route across (required)
  --vnodes N              virtual nodes per upstream (default 64)
  --load-factor C         bounded-load factor, <=1 disables spill (default 1.25)
  --probe-interval-ms MS  health probe cadence (default 200)
  --eject-after N         consecutive probe failures before eject (default 3)
  --max-version-lag N     model versions an upstream may trail (default 8)
  --help                  show this help
";

fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(RouterConfig, Option<String>), String> {
    let mut cfg = RouterConfig {
        port: 7030,
        ..RouterConfig::default()
    };
    let mut port_file = None;
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--host" => cfg.host = value("--host")?,
            "--port" => {
                cfg.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--port-file" => port_file = Some(value("--port-file")?),
            "--upstreams" => {
                cfg.upstreams = value("--upstreams")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--vnodes" => {
                cfg.vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|e| format!("--vnodes: {e}"))?
            }
            "--load-factor" => {
                cfg.load_factor = value("--load-factor")?
                    .parse()
                    .map_err(|e| format!("--load-factor: {e}"))?
            }
            "--probe-interval-ms" => {
                cfg.probe_interval = Duration::from_millis(
                    value("--probe-interval-ms")?
                        .parse()
                        .map_err(|e| format!("--probe-interval-ms: {e}"))?,
                )
            }
            "--eject-after" => {
                cfg.eject_after = value("--eject-after")?
                    .parse()
                    .map_err(|e| format!("--eject-after: {e}"))?
            }
            "--max-version-lag" => {
                cfg.max_version_lag = value("--max-version-lag")?
                    .parse()
                    .map_err(|e| format!("--max-version-lag: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    if cfg.upstreams.is_empty() {
        return Err(format!("--upstreams is required\n\n{USAGE}"));
    }
    Ok((cfg, port_file))
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("perfpred-router requires Linux (epoll)");
    std::process::exit(1);
}

#[cfg(target_os = "linux")]
fn main() {
    let (cfg, port_file) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            let is_help =
                msg.contains("USAGE") && !msg.contains("unknown") && !msg.contains("required");
            eprintln!("{msg}");
            std::process::exit(i32::from(!is_help));
        }
    };
    let upstreams = cfg.upstreams.join(", ");
    perfpred_core::shutdown::install_signal_handlers();
    let server = match perfpred_cluster::RouterServer::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind router: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr();
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", addr.port())) {
            eprintln!("cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("perfpred-router listening on http://{addr} -> [{upstreams}]");
    match server.run() {
        Ok(()) => eprintln!("perfpred-router: drained, bye"),
        Err(e) => {
            eprintln!("perfpred-router: serve loop failed: {e}");
            std::process::exit(1);
        }
    }
}
