//! Integration tests for the control plane: deterministic replay,
//! hysteresis under noise, and a real three-node scale-up/scale-down
//! cycle against in-process serve nodes and a router.

use perfpred_core::workload::Workload;
use perfpred_core::{CacheOptions, PerformanceModel, PredictError, Prediction, ServerArch};
use perfpred_ctl::actuate::NodeLauncher;
use perfpred_ctl::journal::{read_journal, replay_file, replay_with, FRAME_DECISION};
use perfpred_ctl::models::{Models, WhatIfMode};
use perfpred_ctl::plan::{ActionKind, CtlConfig, CtlState, TickInputs};
use perfpred_ctl::scrape::NodeScrape;
use perfpred_ctl::{run_trace, Controller};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("perfpred-ctl-autoscale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn scrape(addr: &str, rps: f64, threshold: f64) -> NodeScrape {
    NodeScrape {
        ok: true,
        total_rps: rps,
        browse_rps: rps * 0.9,
        buy_rps: rps * 0.1,
        threshold,
        predict_p50_ms: 0.5,
        ..NodeScrape::down(addr)
    }
}

/// ISSUE acceptance: a recorded scrape trace replayed through the
/// planner yields the identical decision sequence — twice over: the
/// same trace journalled twice gives identical bytes, and
/// `replay_file` on the first journal reproduces it byte for byte.
///
/// The trace drives the *paper* hybrid model around its AppServF knee
/// (≈1 300 clients at a 10 % buy mix): the 420 req/s plateau implies
/// ≈2 900 clients, infeasible below three replicas.
#[test]
fn deterministic_scrape_trace_replays_byte_identically() {
    let models = Models::paper(&CacheOptions::default());
    let cfg = CtlConfig {
        goal_ms: 150.0,
        threshold: 0.05,
        ..CtlConfig::default()
    };
    let planner = models.planner(cfg.method);
    let checker = Some(models.checker(cfg.method));
    // A 1 -> up -> down load shape with deterministic jitter.
    let trace: Vec<TickInputs> = (0..24u64)
        .map(|tick| {
            let base = match tick {
                0..=5 => 3.0,
                6..=15 => 420.0,
                _ => 2.0,
            };
            let jitter = (tick % 3) as f64 * 0.37;
            TickInputs {
                tick,
                nodes: vec![scrape("127.0.0.1:9101", base + jitter, cfg.threshold)],
            }
        })
        .collect();
    let j1 = tmp("trace-a.journal");
    let j2 = tmp("trace-b.journal");
    let d1 = run_trace(
        &cfg,
        planner,
        checker,
        CtlState::starting_at(1),
        &trace,
        &j1,
    )
    .unwrap();
    let d2 = run_trace(
        &cfg,
        planner,
        checker,
        CtlState::starting_at(1),
        &trace,
        &j2,
    )
    .unwrap();
    assert_eq!(d1, d2, "same trace, same decisions");
    assert_eq!(
        std::fs::read(&j1).unwrap(),
        std::fs::read(&j2).unwrap(),
        "same trace, same journal bytes"
    );
    // And the journal replays itself.
    let j3 = tmp("trace-replayed.journal");
    replay_file(&j1, &j3).unwrap();
    assert_eq!(
        std::fs::read(&j1).unwrap(),
        std::fs::read(&j3).unwrap(),
        "replay must regenerate the journal byte-identically"
    );
    // The trace actually exercised scaling, or the test proves nothing.
    assert!(
        d1.iter().any(|d| d.action.kind == ActionKind::ScaleUp),
        "trace should trigger a scale-up"
    );
    assert!(
        d1.iter().any(|d| d.action.kind == ActionKind::ScaleDown),
        "trace should trigger a scale-down"
    );
}

/// mrt = base + slope × clients (largest class), for controllable
/// capacity boundaries in tests.
struct LinearModel {
    base_ms: f64,
    per_client_ms: f64,
}

impl PerformanceModel for LinearModel {
    fn method_name(&self) -> &str {
        "linear-test"
    }
    fn predict(&self, _s: &ServerArch, w: &Workload) -> Result<Prediction, PredictError> {
        let per_class: Vec<f64> = w
            .classes
            .iter()
            .map(|c| self.base_ms + self.per_client_ms * f64::from(c.clients))
            .collect();
        Ok(Prediction {
            mrt_ms: per_class.iter().copied().fold(0.0f64, f64::max),
            per_class_mrt_ms: per_class,
            throughput_rps: 0.0,
            utilization: None,
            saturated: false,
        })
    }
}

/// ISSUE acceptance: hysteresis — a noisy-but-flat trace straddling a
/// replica boundary must produce zero scaling actions.
#[test]
fn hysteresis_does_not_flap_on_a_noisy_flat_trace() {
    // Capacity 90 browse clients/replica at goal 100 (mrt = 10 + n).
    // The tier sits at 2; alternate ticks flip the instantaneous target
    // between 2 (24 req/s ⇒ ~151 browse clients, 76/replica) and 3
    // (30 req/s ⇒ ~189 browse clients, 95/replica — over the bar), so
    // neither side ever sustains a streak.
    let model = LinearModel {
        base_ms: 10.0,
        per_client_ms: 1.0,
    };
    let cfg = CtlConfig {
        goal_ms: 100.0,
        threshold: 0.0,
        think_ms: 7_000.0,
        whatif: WhatIfMode::Off,
        scale_up_ticks: 3,
        scale_down_ticks: 3,
        ..CtlConfig::default()
    };
    let trace: Vec<TickInputs> = (0..40u64)
        .map(|tick| {
            let rps = if tick % 2 == 0 { 24.0 } else { 30.0 };
            TickInputs {
                tick,
                nodes: vec![scrape("127.0.0.1:9102", rps, cfg.threshold)],
            }
        })
        .collect();
    let journal = tmp("noisy-flat.journal");
    let decisions = run_trace(
        &cfg,
        &model,
        None,
        CtlState::starting_at(2),
        &trace,
        &journal,
    )
    .unwrap();
    for d in &decisions {
        assert_eq!(
            d.action.kind,
            ActionKind::Hold,
            "tick {}: flapped {:?}",
            d.tick,
            d.action
        );
    }
    // The boundary really was straddled (both targets seen).
    assert!(decisions.iter().any(|d| d.target == 2));
    assert!(decisions.iter().any(|d| d.target == 3));
}

// ---------------------------------------------------------------- e2e --

/// One in-process serve node.
fn start_node() -> (
    String,
    Arc<perfpred_serve::Shutdown>,
    std::thread::JoinHandle<()>,
) {
    use perfpred_resman::RuntimeOptions;
    use perfpred_serve::batch::JobQueue;
    use perfpred_serve::router::App;
    let app = App::new(
        perfpred_serve::ModelHost::paper(&CacheOptions::default()),
        perfpred_serve::AdmissionController::new(RuntimeOptions::default()).unwrap(),
        JobQueue::new(64),
        perfpred_serve::Shutdown::new(),
    );
    let server = perfpred_serve::ReactorServer::bind("127.0.0.1", 0, app, 2, 2, 1, 8, 64).unwrap();
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, shutdown, handle)
}

type NodeRegistry = Arc<
    Mutex<
        Vec<(
            String,
            Arc<perfpred_serve::Shutdown>,
            Option<std::thread::JoinHandle<()>>,
        )>,
    >,
>;

/// Launcher backed by in-process serve nodes.
struct TestLauncher {
    registry: NodeRegistry,
}

impl NodeLauncher for TestLauncher {
    fn spawn(&mut self, _index: u32) -> std::io::Result<String> {
        let (addr, shutdown, handle) = start_node();
        self.registry
            .lock()
            .unwrap()
            .push((addr.clone(), shutdown, Some(handle)));
        Ok(addr)
    }

    fn drain(&mut self, addr: &str) -> std::io::Result<()> {
        let entry = {
            let mut reg = self.registry.lock().unwrap();
            reg.iter()
                .position(|(a, _, _)| a == addr)
                .map(|pos| reg.remove(pos))
        };
        if let Some((_, shutdown, handle)) = entry {
            shutdown.request();
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
        Ok(())
    }
}

/// Blocking client: one POST /predict, returns the status line's code.
fn post_predict(addr: &str) -> Option<u16> {
    use std::io::Read as _;
    let body = r#"{"method": "hybrid", "server": "AppServF", "clients": 5}"#;
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    let req = format!(
        "POST /predict HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).ok()?;
    let mut out = String::new();
    stream.read_to_string(&mut out).ok()?;
    out.split_whitespace().nth(1)?.parse().ok()
}

/// ISSUE acceptance: end-to-end — one node under phased load grows to
/// three replicas through the router and shrinks back when the load
/// drops, with every client request answered (zero lost requests), and
/// the live journal replays deterministically.
#[test]
fn three_node_e2e_scales_up_then_down_without_losing_requests() {
    use perfpred_cluster::{RouterConfig, RouterServer};

    let registry: NodeRegistry = Arc::new(Mutex::new(Vec::new()));
    let mut seed_launcher = TestLauncher {
        registry: Arc::clone(&registry),
    };
    let first = seed_launcher.spawn(0).unwrap();

    let router = RouterServer::bind(RouterConfig {
        upstreams: vec![first.clone()],
        probe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .unwrap();
    let router_addr = router.local_addr().to_string();
    std::thread::spawn(move || {
        let _ = router.run();
    });
    // Ready once the prober has reached the node: a standalone node
    // reports itself primary, and the router shows that after a probe.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let status =
            perfpred_ctl::httpc::get(&router_addr, "/router/status", Duration::from_secs(2));
        if status.is_ok_and(|r| r.body.contains("\"primary\": true")) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the router never probed its upstream"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Capacity fiction for speed: ≤85 clients per replica (mrt = 10 + n,
    // bar = 100 × 0.95). Two driver threads at ~60 req/s feed the nodes'
    // τ = 10 s arrival EWMA; Little's law at 7 s think time pushes the
    // population estimate past 170 within a few seconds ⇒ 3 replicas.
    let model = LinearModel {
        base_ms: 10.0,
        per_client_ms: 1.0,
    };
    let cfg = CtlConfig {
        goal_ms: 100.0,
        threshold: 0.05,
        think_ms: 7_000.0,
        whatif: WhatIfMode::Off,
        scale_up_ticks: 2,
        scale_down_ticks: 2,
        up_cooldown_ticks: 2,
        down_cooldown_ticks: 2,
        ..CtlConfig::default()
    };
    let journal = tmp("e2e.journal");
    let mut controller = Controller::new(
        cfg,
        &model,
        None,
        vec![first.clone()],
        Some(router_addr.clone()),
        Box::new(TestLauncher {
            registry: Arc::clone(&registry),
        }),
        &journal,
        false,
    )
    .unwrap();
    controller.drain_settle = Duration::from_millis(300);

    // Load drivers: ~60 req/s against the router in the heavy phase,
    // ~5 req/s in the light phase (so scale-down happens *under* live
    // traffic and the zero-loss claim covers the drain path too).
    let running = Arc::new(AtomicBool::new(true));
    let gap_ms = Arc::new(AtomicU64::new(33));
    let sent = Arc::new(AtomicU64::new(0));
    let okd = Arc::new(AtomicU64::new(0));
    let mut drivers = Vec::new();
    for _ in 0..2 {
        let running = Arc::clone(&running);
        let gap_ms = Arc::clone(&gap_ms);
        let sent = Arc::clone(&sent);
        let okd = Arc::clone(&okd);
        let target = router_addr.clone();
        drivers.push(std::thread::spawn(move || {
            while running.load(Ordering::Relaxed) {
                sent.fetch_add(1, Ordering::Relaxed);
                if post_predict(&target) == Some(200) {
                    okd.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(gap_ms.load(Ordering::Relaxed)));
            }
        }));
    }

    // Phase 1: heavy load; tick until the tier reaches 3 replicas.
    let mut tick = 0u64;
    let mut peak = 1u32;
    for _ in 0..60 {
        let d = controller.tick(tick).unwrap();
        tick += 1;
        peak = peak.max(d.state_after.replicas);
        if peak >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(500));
    }
    assert_eq!(peak, 3, "tier should scale up to 3 replicas under load");
    assert_eq!(controller.nodes.len(), 3);

    // Phase 2: light load; tick until the tier shrinks back to 1.
    gap_ms.store(400, Ordering::Relaxed);
    let mut floor = controller.state.replicas;
    for _ in 0..90 {
        let d = controller.tick(tick).unwrap();
        tick += 1;
        floor = floor.min(d.state_after.replicas);
        if floor <= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(500));
    }
    assert_eq!(floor, 1, "tier should scale back down after the load drops");
    assert_eq!(controller.nodes.len(), 1);

    // Stop the drivers, then check zero loss: every request answered 200.
    running.store(false, Ordering::Relaxed);
    for d in drivers {
        d.join().unwrap();
    }
    let sent = sent.load(Ordering::Relaxed);
    let okd = okd.load(Ordering::Relaxed);
    assert!(sent > 100, "driver actually ran ({sent} requests)");
    assert_eq!(
        okd, sent,
        "no request may be lost across scaling events ({okd}/{sent})"
    );

    // The live journal's decisions recompute identically from their
    // recorded inputs (replay with the same test model).
    let entries = read_journal(&journal).unwrap();
    let replayed = replay_with(&entries, &model, None).unwrap();
    assert_eq!(entries.len(), replayed.len());
    for (entry, (kind, payload)) in entries.iter().zip(&replayed) {
        assert_eq!(entry.kind, *kind);
        if entry.kind == FRAME_DECISION {
            assert_eq!(
                entry.doc.render(),
                *payload,
                "decision frames must replay byte-identically"
            );
        }
    }

    // Teardown any survivors.
    for (_, shutdown, handle) in registry.lock().unwrap().drain(..) {
        shutdown.request();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}
