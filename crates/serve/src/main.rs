//! The `perfpred-serve` binary: parse flags, build the model host, bind,
//! install signal handlers, serve until drained. Linux only: the serving
//! loop is built on epoll.

#![cfg_attr(not(target_os = "linux"), allow(unused_imports, dead_code))]

use perfpred_cluster::{
    rejoin_check, spawn_replicator, ClusterState, HubConfig, Lease, RejoinOutcome, ReplicationHub,
    ReplicatorConfig, Role,
};
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::router::App;
use perfpred_serve::shutdown::install_signal_handlers;
use perfpred_serve::{ModelHost, ServeConfig, Shutdown};
use perfpred_store::{LogOptions, ObservationStore, RefitOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("perfpred-serve requires Linux (epoll)");
    std::process::exit(1);
}

#[cfg(target_os = "linux")]
fn main() {
    let cfg = match ServeConfig::from_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(msg) => {
            // --help lands here too, carrying the usage text.
            let is_help = msg.contains("USAGE");
            eprintln!("{msg}");
            std::process::exit(i32::from(!is_help));
        }
    };

    let admission = match AdmissionController::new(cfg.admission) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("invalid admission options: {e}");
            std::process::exit(1);
        }
    };

    install_signal_handlers();

    // Fault injection (chaos testing) is opt-in via PERFPRED_FAULTS; a
    // malformed spec is a hard startup error, not a silently clean run.
    match perfpred_core::faults::init_from_env() {
        Ok(None) => {}
        Ok(Some(plan)) => eprintln!("fault injection armed: {}", plan.render()),
        Err(e) => {
            eprintln!("invalid {}: {e}", perfpred_core::faults::FAULTS_ENV);
            std::process::exit(1);
        }
    }

    // The observation store comes up first: replaying a durable log may
    // already publish model versions the host then serves from.
    let refit_opts = RefitOptions {
        refit_window: cfg.refit_window,
        drift_threshold: cfg.drift_threshold,
        ..RefitOptions::default()
    };
    let servers = perfpred_bench::context::Experiments::servers();
    let store = match &cfg.store_dir {
        None => Arc::new(ObservationStore::in_memory(&servers, refit_opts)),
        Some(dir) => {
            let started = Instant::now();
            match ObservationStore::open(dir, LogOptions::default(), &servers, refit_opts) {
                Ok((store, report)) => {
                    eprintln!(
                        "observation log {}: {} records replayed from {} segments in {:.2}s{}",
                        dir.display(),
                        report.records,
                        report.segments,
                        started.elapsed().as_secs_f64(),
                        if report.torn_bytes > 0 {
                            format!(" ({} torn bytes truncated)", report.torn_bytes)
                        } else {
                            String::new()
                        },
                    );
                    Arc::new(store)
                }
                Err(e) => {
                    eprintln!("cannot open observation store {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        }
    };

    eprintln!("building models ({:?}, seed {}) ...", cfg.models, cfg.seed);
    let started = Instant::now();
    let host = ModelHost::build(cfg.models, cfg.seed, &cfg.cache, &store);
    eprintln!(
        "models ready in {:.2}s: {} (model version {})",
        started.elapsed().as_secs_f64(),
        host.available().join(", "),
        store.registry().version(),
    );

    // Cluster membership: the replication hub and (for followers) the
    // pull loop come up before the HTTP listener so a follower never
    // serves a single request ahead of its first catch-up attempt.
    let cluster_state = cfg.cluster.as_ref().map(|cc| {
        let dir = cfg
            .store_dir
            .as_ref()
            .expect("config validation requires --store-dir in cluster mode");
        let epoch = store.epoch().unwrap_or(0);
        // A lease from this node's own takeover pins the seal point for
        // judging older-epoch rejoins; any other lease is stale.
        let sealed = match Lease::read(dir) {
            Ok(Some(l)) if l.epoch == epoch => l.sealed_len,
            _ => 0,
        };
        let state = Arc::new(ClusterState::new(&cc.node, cc.role, epoch, sealed));

        // A configured primary asks the cluster before trusting its role:
        // a newer epoch elsewhere demotes it, a divergent tail fences it.
        if cc.role == Role::Primary && !cc.peers.is_empty() {
            match rejoin_check(&cc.peers, &state, &store) {
                RejoinOutcome::Primary => {}
                RejoinOutcome::Demoted => eprintln!(
                    "cluster: a newer epoch ({}) is serving; rejoining as follower",
                    state.epoch()
                ),
                RejoinOutcome::Fenced => eprintln!(
                    "cluster: log diverges from the current primary; fenced (reads only — \
                     wipe {} to rejoin as a fresh follower)",
                    dir.display()
                ),
            }
        }

        let hub = match ReplicationHub::bind(
            &cfg.host,
            cc.repl_port,
            Arc::clone(&state),
            Arc::clone(&store),
            HubConfig::default(),
        ) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("cannot bind replication hub on {}: {e}", cfg.host);
                std::process::exit(1);
            }
        };
        if let Some(path) = &cc.repl_port_file {
            if let Err(e) = std::fs::write(path, format!("{}\n", hub.addr().port())) {
                eprintln!("cannot write repl port file {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        if !cc.peers.is_empty() {
            // The pull loop exits on its own while this node is primary
            // and re-engages logic-side on demotion.
            spawn_replicator(
                ReplicatorConfig {
                    peers: cc.peers.clone(),
                    grace: Duration::from_millis(cc.failover_grace_ms),
                    designated: cc.designated,
                    lease_dir: dir.clone(),
                    io_timeout: Duration::from_secs(5),
                },
                Arc::clone(&state),
                Arc::clone(&store),
            );
        }
        eprintln!(
            "cluster node '{}': role {}, epoch {}, replication on {}",
            cc.node,
            state.role().name(),
            state.epoch(),
            hub.addr(),
        );
        state
    });

    let mut app = App::with_store(
        host,
        admission,
        JobQueue::new(cfg.queue_depth),
        Shutdown::new(),
        store,
    );
    app.deadline = std::time::Duration::from_millis(cfg.deadline_ms);
    if let Some(state) = cluster_state {
        app = app.with_cluster(state);
    }

    let server = match perfpred_serve::ReactorServer::bind(
        &cfg.host,
        cfg.port,
        app,
        cfg.reactor_shards,
        cfg.workers,
        cfg.solvers,
        cfg.batch_max,
        cfg.queue_depth,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}:{}: {e}", cfg.host, cfg.port);
            std::process::exit(1);
        }
    };
    announce(&cfg, server.local_addr());
    match server.run() {
        Ok(()) => eprintln!("perfpred-serve: drained, bye"),
        Err(e) => {
            eprintln!("perfpred-serve: serve loop failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the port file (a hard error if asked for and impossible — CI
/// scripts would hang otherwise) and prints the listening banner.
fn announce(cfg: &ServeConfig, addr: std::net::SocketAddr) {
    if let Some(path) = &cfg.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            eprintln!("cannot write port file {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "perfpred-serve listening on http://{addr} (reactor core, {} shards, {} solvers, threshold {})",
        cfg.reactor_shards, cfg.solvers, cfg.admission.threshold
    );
}
