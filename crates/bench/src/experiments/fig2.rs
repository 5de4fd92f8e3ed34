//! Figure 2: mean response time vs number of clients for the typical
//! workload on all three architectures — measured (simulated) against the
//! three prediction methods — plus the paper's headline accuracy numbers.
//!
//! Accuracy follows §4.2's definition: "the overall predictive accuracy is
//! defined as the mean of the lower equation accuracy and the upper
//! equation accuracy" — i.e. points in the lower region (≤ 66 % of the
//! max-throughput load) and the upper region (≥ 110 %), with the
//! transition region excluded from the headline number (we also report the
//! all-points mean).
//!
//! Paper: historical 89.1 % (established) / 83 % (new); layered queuing
//! mrt 68.8 % / 73.4 % and throughput 97.8 % / 97.1 %; hybrid mrt
//! 67.1 % / 74.9 %.

use crate::context::GRID_FRACTIONS;
use crate::report::{f, Table};
use crate::Experiments;
use perfpred_core::{AccuracyReport, PerformanceModel};
use std::fmt::Write as _;

/// Accuracy accumulators for one method on one server group.
#[derive(Default)]
struct Acc {
    lower_mrt: AccuracyReport,
    upper_mrt: AccuracyReport,
    all_mrt: AccuracyReport,
    tput: AccuracyReport,
}

impl Acc {
    fn paper_accuracy(&self) -> f64 {
        AccuracyReport::paired_mean(&self.lower_mrt, &self.upper_mrt)
    }
}

/// Runs the experiment.
pub fn run(ctx: &Experiments) -> String {
    let methods: [(&str, &dyn PerformanceModel); 3] = [
        ("historical", ctx.historical()),
        ("layered-q", ctx.lqn()),
        ("hybrid", ctx.hybrid()),
    ];
    // [method][established=0 | new=1]
    let mut acc: Vec<[Acc; 2]> = (0..3).map(|_| [Acc::default(), Acc::default()]).collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 2 — mean response time vs clients, typical workload (measured vs predicted)\n"
    );

    for server in Experiments::servers() {
        let gi = usize::from(server.name == "AppServS"); // 1 = new
        let grid = ctx.grid(&server);
        let measured = ctx.measure_grid(&server, &grid, false);
        let _ = writeln!(
            out,
            "{} ({})",
            server.name,
            if gi == 1 { "new" } else { "established" }
        );
        let mut table = Table::new(&[
            "clients",
            "region",
            "measured mrt",
            "hist mrt",
            "lq mrt",
            "hyb mrt",
            "measured rps",
            "hist rps",
            "lq rps",
        ]);
        let grids: [Vec<(f64, f64)>; 3] = [
            Experiments::predict_grid(methods[0].1, &server, &grid),
            Experiments::predict_grid(methods[1].1, &server, &grid),
            Experiments::predict_grid(methods[2].1, &server, &grid),
        ];
        for (i, point) in measured.iter().enumerate() {
            let frac = GRID_FRACTIONS[i];
            let region = if frac <= 0.66 {
                "lower"
            } else if frac >= 1.10 {
                "upper"
            } else {
                "transition"
            };
            table.row(&[
                grid[i].to_string(),
                region.to_string(),
                f(point.mrt_ms, 1),
                f(grids[0][i].0, 1),
                f(grids[1][i].0, 1),
                f(grids[2][i].0, 1),
                f(point.throughput_rps, 1),
                f(grids[0][i].1, 1),
                f(grids[1][i].1, 1),
            ]);
            for mi in 0..3 {
                let a = &mut acc[mi][gi];
                let (mrt, tput) = grids[mi][i];
                a.all_mrt.push(mrt, point.mrt_ms);
                a.tput.push(tput, point.throughput_rps);
                match region {
                    "lower" => a.lower_mrt.push(mrt, point.mrt_ms),
                    "upper" => a.upper_mrt.push(mrt, point.mrt_ms),
                    _ => {}
                }
            }
        }
        out.push_str(&table.render());
        out.push('\n');
    }

    let _ = writeln!(
        out,
        "accuracy summary (%; 'mrt' = mean of lower-eq and upper-eq accuracies, §4.2):"
    );
    let mut summary = Table::new(&[
        "method",
        "mrt est.",
        "mrt new",
        "mrt est. (all pts)",
        "mrt new (all pts)",
        "tput est.",
        "tput new",
        "paper mrt est./new",
    ]);
    let paper = ["89.1 / 83.0", "68.8 / 73.4", "67.1 / 74.9"];
    for (mi, (name, _)) in methods.iter().enumerate() {
        let est = &acc[mi][0];
        let new = &acc[mi][1];
        summary.row(&[
            name.to_string(),
            f(est.paper_accuracy(), 1),
            f(new.paper_accuracy(), 1),
            f(est.all_mrt.mean_accuracy(), 1),
            f(new.all_mrt.mean_accuracy(), 1),
            f(est.tput.mean_accuracy(), 1),
            f(new.tput.mean_accuracy(), 1),
            paper[mi].to_string(),
        ]);
    }
    out.push_str(&summary.render());
    let _ = writeln!(
        out,
        "\npaper throughput accuracies (layered queuing): 97.8 % est. / 97.1 % new"
    );
    out
}
