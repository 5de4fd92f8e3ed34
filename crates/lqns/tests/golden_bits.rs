//! Golden-bits oracle for the layered solver.
//!
//! Every `f64` of a [`SolverResult`] (and of a [`Prediction`]) is recorded
//! by its `to_bits()`, together with the outer iteration count and the
//! convergence flag, and compared against `golden_bits.txt`. A refactor of
//! the solver that changes any answer by even one ulp fails here, so
//! performance work on the solve can be checked for bit-identical output.
//!
//! The inputs cover the case-study shape (3 servers × clients × buy mix,
//! fresh and warm workspace pools), hand-built mixed open/closed and
//! two-phase models, a disk layer, and `max_throughput_rps` per server.
//!
//! After a *deliberate* numerical change, rewrite the fixture with
//! `cargo test -p perfpred-lqns --test golden_bits -- --ignored` and
//! review the diff.

use perfpred_core::{PerformanceModel, Prediction, ServerArch, Workload};
use perfpred_lqns::mva::AmvaWorkspace;
use perfpred_lqns::solve::{solve, solve_with_pool, SolverOptions};
use perfpred_lqns::trade::TradeLqnConfig;
use perfpred_lqns::{LqnModel, LqnPredictor, SolverResult};
use std::fmt::Write as _;

const FIXTURE: &str = "tests/golden_bits.txt";

/// splitmix64: a seeded, platform-independent case generator.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn int(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

fn bits(out: &mut String, label: &str, xs: &[f64]) {
    write!(out, " {label}=").unwrap();
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{:016x}", x.to_bits()).unwrap();
    }
}

fn result_line(
    out: &mut String,
    case: &str,
    r: &Result<SolverResult, perfpred_core::PredictError>,
) {
    write!(out, "{case}").unwrap();
    match r {
        Ok(s) => {
            write!(out, " it={} conv={}", s.iterations, s.converged).unwrap();
            bits(out, "rc", &s.chain_response_ms);
            bits(out, "xc", &s.chain_throughput_rps);
            bits(out, "ro", &s.open_response_ms);
            bits(out, "xo", &s.open_throughput_rps);
            let flat: Vec<f64> = s.entry_elapsed_ms.iter().flatten().copied().collect();
            bits(out, "el", &flat);
            bits(out, "up", &s.processor_utilization);
            bits(out, "ut", &s.task_utilization);
        }
        Err(e) => write!(out, " err={e}").unwrap(),
    }
    out.push('\n');
}

fn prediction_line(
    out: &mut String,
    case: &str,
    p: &Result<Prediction, perfpred_core::PredictError>,
) {
    write!(out, "{case}").unwrap();
    match p {
        Ok(p) => {
            write!(out, " sat={}", p.saturated).unwrap();
            bits(out, "mrt", &[p.mrt_ms]);
            bits(out, "cls", &p.per_class_mrt_ms);
            bits(out, "x", &[p.throughput_rps]);
            bits(out, "u", &[p.utilization.unwrap_or(f64::NAN)]);
        }
        Err(e) => write!(out, " err={e}").unwrap(),
    }
    out.push('\n');
}

/// Open Poisson source -> app -> db, optionally beside closed clients.
fn open_model(rate_rps: f64, app_demand: f64, closed_clients: u32, app_threads: u32) -> LqnModel {
    let mut b = LqnModel::builder();
    let cp = b.processor("src-cpu").infinite().finish();
    let ap = b.processor("app-cpu").finish();
    let dp = b.processor("db-cpu").finish();
    let app = b.task("app", ap).multiplicity(app_threads).finish();
    let db = b.task("db", dp).multiplicity(20).finish();
    let serve = b.entry("serve", app).demand_ms(app_demand).finish();
    let query = b.entry("query", db).demand_ms(1.0).finish();
    b.call(serve, query, 1.14);
    let src = b.open_reference_task("source", cp, rate_rps).finish();
    let arrive = b.entry("arrive", src).finish();
    b.call(arrive, serve, 1.0);
    if closed_clients > 0 {
        let clients = b
            .reference_task("clients", cp, closed_clients, 7_000.0)
            .finish();
        let cycle = b.entry("cycle", clients).finish();
        b.call(cycle, serve, 1.0);
    }
    b.build().unwrap()
}

/// Clients -> app -> db with a second phase on both servers.
fn two_phase(population: u32, phase1: f64, phase2: f64, threads: u32) -> LqnModel {
    let mut b = LqnModel::builder();
    let cp = b.processor("client-cpu").infinite().finish();
    let ap = b.processor("app-cpu").finish();
    let dp = b.processor("db-cpu").finish();
    let app = b.task("app", ap).multiplicity(threads).finish();
    let db = b.task("db", dp).multiplicity(4).finish();
    let serve = b
        .entry("serve", app)
        .demand_ms(phase1)
        .phase2_ms(phase2)
        .finish();
    let query = b.entry("query", db).demand_ms(0.7).phase2_ms(0.4).finish();
    b.call(serve, query, 1.5);
    let clients = b
        .reference_task("clients", cp, population, 7_000.0)
        .finish();
    let cycle = b.entry("cycle", clients).finish();
    b.call(cycle, serve, 1.0);
    b.build().unwrap()
}

/// Two closed chains and an open stream sharing an app tier with two
/// entries per class, an infinite-pool logger and a shared db.
fn mixed_wide(browse: u32, buy: u32, rate_rps: f64) -> LqnModel {
    let mut b = LqnModel::builder();
    let cp = b.processor("client-cpu").infinite().finish();
    let ap = b.processor("app-cpu").multiplicity(2).finish();
    let dp = b.processor("db-cpu").finish();
    let lp = b.processor("log-cpu").finish();
    let app = b.task("app", ap).multiplicity(30).finish();
    let db = b.task("db", dp).multiplicity(10).finish();
    let log = b.task("log", lp).infinite().finish();
    let a_browse = b.entry("a-browse", app).demand_ms(6.0).finish();
    let a_buy = b.entry("a-buy", app).demand_ms(9.0).phase2_ms(2.0).finish();
    let q_browse = b.entry("q-browse", db).demand_ms(0.9).finish();
    let q_buy = b.entry("q-buy", db).demand_ms(1.7).finish();
    let write = b.entry("write", log).demand_ms(0.3).finish();
    b.call(a_browse, q_browse, 1.14);
    b.call(a_buy, q_buy, 2.0);
    b.call(a_buy, write, 1.0);
    b.call(q_buy, write, 0.5);
    let c1 = b.reference_task("browsers", cp, browse, 7_000.0).finish();
    let e1 = b.entry("browse-cycle", c1).finish();
    b.call(e1, a_browse, 1.0);
    let c2 = b.reference_task("buyers", cp, buy, 5_000.0).finish();
    let e2 = b.entry("buy-cycle", c2).finish();
    b.call(e2, a_buy, 1.0);
    let src = b.open_reference_task("feed", cp, rate_rps).finish();
    let arrive = b.entry("arrive", src).finish();
    b.call(arrive, a_browse, 1.0);
    b.call(arrive, q_buy, 0.25);
    b.build().unwrap()
}

fn servers() -> [ServerArch; 3] {
    [
        ServerArch::app_serv_s(),
        ServerArch::app_serv_f(),
        ServerArch::app_serv_vf(),
    ]
}

fn render() -> String {
    let mut out = String::new();
    let opts = SolverOptions::default();
    let config = TradeLqnConfig::paper_table2();

    // Seeded case-study sweep, one fresh pool per solve.
    let mut rng = Rng(20040426);
    for server in &servers() {
        for i in 0..40 {
            let clients = rng.int(1, 4000);
            let buy = rng.int(0, 100);
            let w = Workload::with_buy_pct(clients, f64::from(buy));
            let model = config.build_model(server, &w).unwrap();
            let case = format!("sweep/{}/{i}/c{clients}/b{buy}", server.name);
            result_line(&mut out, &case, &solve(&model, &opts));
        }
    }

    // The same shape through one warm pool held across solves, as the
    // serving daemon's solver threads hold theirs.
    let mut pool: Vec<AmvaWorkspace> = Vec::new();
    for i in 0..40 {
        let server = &servers()[rng.int(0, 2) as usize];
        let clients = rng.int(1, 3000);
        let buy = rng.int(0, 30);
        let w = Workload::with_buy_pct(clients, f64::from(buy));
        let model = config.build_model(server, &w).unwrap();
        let case = format!("warm/{}/{i}/c{clients}/b{buy}", server.name);
        result_line(&mut out, &case, &solve_with_pool(&model, &opts, &mut pool));
    }

    // A wider sweep folded into FNV-1a digests of the same lines, one per
    // hundred keys; even keys solve fresh, odd keys through a warm pool.
    let mut pool: Vec<AmvaWorkspace> = Vec::new();
    for block in 0..6 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..100 {
            let server = &servers()[rng.int(0, 2) as usize];
            let clients = rng.int(1, 4000);
            let buy = rng.int(0, 100);
            let w = Workload::with_buy_pct(clients, f64::from(buy));
            let model = config.build_model(server, &w).unwrap();
            let r = if i % 2 == 0 {
                solve(&model, &opts)
            } else {
                solve_with_pool(&model, &opts, &mut pool)
            };
            let mut line = String::new();
            result_line(&mut line, &format!("{}/c{clients}/b{buy}", server.name), &r);
            for b in line.bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        writeln!(out, "digest/{block} fnv={hash:016x}").unwrap();
    }

    // The paper's coarse criterion and a disk layer.
    let paper = SolverOptions::paper();
    let mut disk = TradeLqnConfig::paper_table2();
    disk.browse.disk_demand_ms = 0.5;
    disk.buy.disk_demand_ms = 0.9;
    for &(clients, buy) in &[(300u32, 0u32), (1500, 10), (2600, 40)] {
        let w = Workload::with_buy_pct(clients, f64::from(buy));
        let f = ServerArch::app_serv_f();
        let m = config.build_model(&f, &w).unwrap();
        result_line(
            &mut out,
            &format!("paper20ms/c{clients}/b{buy}"),
            &solve(&m, &paper),
        );
        let m = disk.build_model(&f, &w).unwrap();
        result_line(
            &mut out,
            &format!("disk/c{clients}/b{buy}"),
            &solve(&m, &opts),
        );
    }

    // Open streams, alone and mixed with closed chains (one unstable).
    for &(rate, demand, closed, threads) in &[
        (10.0, 5.0, 0u32, 50u32),
        (120.0, 5.0, 0, 50),
        (180.0, 5.0, 0, 50),
        (250.0, 5.0, 0, 50),
        (60.0, 5.0, 400, 50),
        (60.0, 4.0, 600, 12),
    ] {
        let case = format!("open/r{rate}/d{demand}/c{closed}/t{threads}");
        let m = open_model(rate, demand, closed, threads);
        result_line(&mut out, &case, &solve(&m, &opts));
    }
    for &(browse, buy, rate) in &[(200u32, 50u32, 5.0), (900, 300, 20.0), (2000, 600, 10.0)] {
        let m = mixed_wide(browse, buy, rate);
        let case = format!("mixed/b{browse}/u{buy}/r{rate}");
        result_line(&mut out, &case, &solve(&m, &opts));
    }

    // Second phases on both server layers.
    for &(pop, p1, p2, threads) in &[
        (50u32, 3.0, 5.0, 50u32),
        (2000, 1.0, 9.0, 2),
        (3000, 3.0, 5.0, 50),
        (800, 2.0, 2.0, 6),
    ] {
        let case = format!("phase2/n{pop}/p{p1}+{p2}/t{threads}");
        result_line(
            &mut out,
            &case,
            &solve(&two_phase(pop, p1, p2, threads), &opts),
        );
    }

    // A warm-pool prediction sequence and max throughput per server.
    let predictor = LqnPredictor::new(TradeLqnConfig::paper_table2());
    let mut pool: Vec<AmvaWorkspace> = Vec::new();
    for i in 0..24 {
        let server = &servers()[i % 3];
        let clients = rng.int(1, 3000);
        let buy = rng.int(0, 30);
        let w = Workload::with_buy_pct(clients, f64::from(buy));
        let case = format!("predict/{}/{i}/c{clients}/b{buy}", server.name);
        prediction_line(
            &mut out,
            &case,
            &predictor.predict_with_pool(server, &w, &mut pool),
        );
    }
    for server in &servers() {
        for (label, w) in [
            ("typical", Workload::typical(100)),
            ("buy25", Workload::with_buy_pct(100, 25.0)),
        ] {
            let case = format!("maxx/{}/{label}", server.name);
            match predictor.max_throughput_rps(server, &w) {
                Ok(x) => {
                    write!(out, "{case}").unwrap();
                    bits(&mut out, "x", &[x]);
                    out.push('\n');
                }
                Err(e) => writeln!(out, "{case} err={e}").unwrap(),
            }
        }
    }
    let p = predictor.predict(&ServerArch::app_serv_f(), &Workload::typical(1200));
    prediction_line(&mut out, "predict/fresh/c1200", &p);
    out
}

#[test]
fn solver_output_matches_golden_bits() {
    let expected = std::fs::read_to_string(FIXTURE).expect("golden_bits.txt is committed");
    let actual = render();
    if actual == expected {
        return;
    }
    let (a, e): (Vec<&str>, Vec<&str>) = (actual.lines().collect(), expected.lines().collect());
    assert_eq!(a.len(), e.len(), "case count changed");
    for (got, want) in a.iter().zip(&e) {
        assert_eq!(got, want, "solver output changed");
    }
    panic!("fixture differs only in line endings");
}

#[test]
#[ignore = "rewrites the fixture; run only after a deliberate numerical change"]
fn regenerate_golden_bits() {
    std::fs::write(FIXTURE, render()).unwrap();
}
