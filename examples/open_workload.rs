//! Open (constant-rate) workload — §8.1's variation: instead of a closed
//! client population, requests arrive as a Poisson stream. Compares the
//! layered queuing model's mixed open/closed solution with the simulated
//! testbed as the arrival rate approaches the server's capacity.
//!
//! ```text
//! cargo run --release --example open_workload
//! ```

use perfpred::core::{ServerArch, ServiceClass, Workload};
use perfpred::lqns::model::LqnModel;
use perfpred::lqns::solve::{solve, SolverOptions};
use perfpred::tradesim::config::{GroundTruth, SimOptions};
use perfpred::tradesim::engine::TradeSim;

fn lqn_open(rate_rps: f64) -> LqnModel {
    // Table-2-style demands matched to the simulator's ground truth.
    let gt = GroundTruth::default();
    let mut b = LqnModel::builder();
    let cp = b.processor("src-cpu").infinite().finish();
    let ap = b.processor("app-cpu").finish();
    let dp = b.processor("db-cpu").finish();
    let app = b.task("app", ap).multiplicity(gt.app_threads).finish();
    let db = b.task("db", dp).multiplicity(gt.db_connections).finish();
    let serve = b
        .entry("serve", app)
        .demand_ms(gt.browse_app_demand_ms)
        .finish();
    let query = b
        .entry("query", db)
        .demand_ms(gt.browse_db_demand_ms)
        .finish();
    b.call(serve, query, 1.14);
    let src = b.open_reference_task("source", cp, rate_rps).finish();
    let arrive = b.entry("arrive", src).finish();
    b.call(arrive, serve, 1.0);
    b.build().expect("valid model")
}

fn main() {
    let gt = GroundTruth::default();
    let server = ServerArch::app_serv_f();
    println!(
        "Open Poisson workload on {} (capacity ≈ {:.0} req/s)\n",
        server.name,
        1_000.0 / gt.browse_app_demand_ms
    );
    println!(
        "{:>12}  {:>13}  {:>12}  {:>9}",
        "rate (req/s)", "simulated mrt", "lq open mrt", "app util"
    );
    for rate in [30.0, 90.0, 130.0, 160.0, 175.0, 183.0] {
        let sim = TradeSim::new(&gt, &server, &Workload::typical(0), &SimOptions::quick(11))
            .with_open_traffic(ServiceClass::browse().named("open"), rate)
            .run();
        let sol = solve(&lqn_open(rate), &SolverOptions::default()).expect("stable load");
        println!(
            "{:>12.0}  {:>13.1}  {:>12.1}  {:>8.0}%",
            rate,
            sim.per_class[1].rt.mean(),
            sol.open_response_ms[0],
            sim.app_cpu_utilization[0] * 100.0
        );
    }
    println!(
        "\nBoth columns show the M/M/1-style blow-up as the rate nears capacity; the\n\
         constant offset at low rates is the infrastructure latency the LQN's\n\
         CPU-based calibration cannot see (the paper's §5.1 'communication overhead')."
    );

    // Instability is detected, not mispredicted.
    match solve(&lqn_open(250.0), &SolverOptions::default()) {
        Err(e) => println!("\n250 req/s against a ~186 req/s server: {e}"),
        Ok(_) => unreachable!("unstable load must be rejected"),
    }
}
