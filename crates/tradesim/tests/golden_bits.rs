//! Golden-bits oracle for the simulator.
//!
//! Every per-class `Welford` field (count, mean, variance, min, max), the
//! completion count, an FNV-1a hash of the stored raw samples, every
//! utilisation, the cache miss ratio and the `tradesim.events` count of a
//! run are recorded by `to_bits()` and compared against `golden_bits.txt`.
//! A refactor of the engine that changes one random draw, one event or one
//! ulp of any answer fails here, so structural work on the simulator can be
//! checked for bit-identical output.
//!
//! The cases (all with `SimOptions::quick` windows) cover the three
//! case-study servers at light, heavy and saturating load, a buy + browse
//! mix, a one-connection database pool, the session cache, priority
//! admission, open traffic beside and without closed clients, and
//! raw-sample storage.
//!
//! After a *deliberate* change to the simulated behaviour, rewrite the
//! fixture with
//! `cargo test -p perfpred-tradesim --test golden_bits -- --ignored` and
//! review the diff.

use perfpred_core::metrics::Scope;
use perfpred_core::workload::ClassLoad;
use perfpred_core::{ServerArch, ServiceClass, Workload};
use perfpred_tradesim::config::{CacheOptions, GroundTruth, SimOptions};
use perfpred_tradesim::engine::{RawRunResult, TradeSim};
use std::fmt::Write as _;

const FIXTURE: &str = "tests/golden_bits.txt";

fn bits(out: &mut String, label: &str, xs: &[f64]) {
    write!(out, " {label}=").unwrap();
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{:016x}", x.to_bits()).unwrap();
    }
}

fn fnv(samples: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for s in samples {
        for b in s.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Runs one simulation inside a private metrics scope and renders its line.
fn case(out: &mut String, name: &str, sim: TradeSim<'_>) {
    let scope = Scope::new();
    let r: RawRunResult = {
        let _guard = scope.enter();
        sim.run()
    };
    let metrics = scope.snapshot();
    write!(
        out,
        "{name} runs={} events={}",
        metrics.counter("tradesim.runs"),
        metrics.counter("tradesim.events")
    )
    .unwrap();
    for (ci, c) in r.per_class.iter().enumerate() {
        write!(out, " c{ci}:n={}/{}", c.completed, c.rt.count()).unwrap();
        bits(
            out,
            "rt",
            &[c.rt.mean(), c.rt.variance(), c.rt.min(), c.rt.max()],
        );
        write!(out, " s={}/{:016x}", c.samples.len(), fnv(&c.samples)).unwrap();
    }
    bits(out, "app", &r.app_cpu_utilization);
    bits(out, "db", &[r.db_cpu_utilization]);
    bits(out, "disk", &[r.disk_utilization]);
    match r.cache_miss_ratio {
        Some(m) => bits(out, "miss", &[m]),
        None => out.push_str(" miss=none"),
    }
    bits(out, "win", &[r.measure_ms]);
    out.push('\n');
}

fn gold_bronze(n: u32) -> Workload {
    Workload {
        classes: vec![
            ClassLoad {
                class: ServiceClass::browse().named("gold").with_goal(100.0),
                clients: n / 2,
            },
            ClassLoad {
                class: ServiceClass::browse().named("bronze").with_goal(1_000.0),
                clients: n / 2,
            },
        ],
    }
}

fn render() -> String {
    let mut out = String::new();
    let gt = GroundTruth::default();
    let servers = [
        ServerArch::app_serv_s(),
        ServerArch::app_serv_f(),
        ServerArch::app_serv_vf(),
    ];
    let (s, f, vf) = (&servers[0], &servers[1], &servers[2]);

    // Closed browse clients: light, heavy and saturating per server.
    for (si, server) in servers.iter().enumerate() {
        for (k, &clients) in [100u32, 900, 2_200].iter().enumerate() {
            let seed = 100 + 10 * si as u64 + k as u64;
            let opts = SimOptions::quick(seed);
            let w = Workload::typical(clients);
            let name = format!("typical/{}/c{clients}/s{seed}", server.name);
            case(&mut out, &name, TradeSim::new(&gt, server, &w, &opts));
        }
    }

    // Buy sessions beside browsers.
    for &(clients, buy) in &[(800u32, 25.0), (1_500, 60.0)] {
        let w = Workload::with_buy_pct(clients, buy);
        let opts = SimOptions::quick(200 + u64::from(clients));
        let name = format!("buy/{}/c{clients}/b{buy}", f.name);
        case(&mut out, &name, TradeSim::new(&gt, f, &w, &opts));
    }

    // One database connection: calls queue for it, and it is held through
    // the disk read.
    let one_conn = GroundTruth {
        db_connections: 1,
        disk_miss_prob: 0.5,
        ..gt
    };
    let opts = SimOptions::quick(250);
    case(
        &mut out,
        "dbpool/1conn",
        TradeSim::new(&one_conn, vf, &Workload::typical(1_500), &opts),
    );

    // The session cache, thrashing and fitting, browse and buy.
    let mut cached = SimOptions::quick(300);
    cached.cache = Some(CacheOptions::default());
    for (server, w, label) in [
        (s, Workload::typical(600), "thrash"),
        (s, Workload::typical(60), "fits"),
        (f, Workload::with_buy_pct(700, 30.0), "buy"),
    ] {
        let name = format!("cache/{label}/{}", server.name);
        case(&mut out, &name, TradeSim::new(&gt, server, &w, &cached));
    }

    // Priority admission on a saturated server, and FIFO on the same load.
    for prio in [false, true] {
        let mut opts = SimOptions::quick(400);
        opts.priority_admission = prio;
        let name = format!("priority/{prio}/{}", f.name);
        case(
            &mut out,
            &name,
            TradeSim::new(&gt, f, &gold_bronze(2_400), &opts),
        );
    }

    // Open traffic alone and beside closed clients.
    for &(clients, rate) in &[(0u32, 40.0), (600, 90.0)] {
        let opts = SimOptions::quick(500 + u64::from(clients));
        let sim = TradeSim::new(&gt, f, &Workload::typical(clients), &opts)
            .with_open_traffic(ServiceClass::browse().named("open"), rate);
        let name = format!("open/{}/c{clients}/r{rate}", f.name);
        case(&mut out, &name, sim);
    }

    // Raw samples, closed and with the cache and open traffic on.
    let stored = SimOptions::quick(600).storing_samples();
    case(
        &mut out,
        "samples/typical",
        TradeSim::new(&gt, vf, &Workload::typical(300), &stored),
    );
    let mut stored_cached = stored;
    stored_cached.cache = Some(CacheOptions::default());
    let sim = TradeSim::new(&gt, s, &Workload::with_buy_pct(400, 20.0), &stored_cached)
        .with_open_traffic(ServiceClass::browse().named("open"), 15.0);
    case(&mut out, "samples/cache+open", sim);
    out
}

#[test]
fn simulator_output_matches_golden_bits() {
    let expected = std::fs::read_to_string(FIXTURE).expect("golden_bits.txt is committed");
    let actual = render();
    if actual == expected {
        return;
    }
    let (a, e): (Vec<&str>, Vec<&str>) = (actual.lines().collect(), expected.lines().collect());
    assert_eq!(a.len(), e.len(), "case count changed");
    for (got, want) in a.iter().zip(&e) {
        assert_eq!(got, want, "simulator output changed");
    }
    panic!("fixture differs only in line endings");
}

#[test]
#[ignore = "rewrites the fixture; run only after a deliberate change to the simulation"]
fn regenerate_golden_bits() {
    std::fs::write(FIXTURE, render()).unwrap();
}
