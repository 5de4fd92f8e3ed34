//! The parallel scheduler's headline guarantee: a run with `--jobs N`
//! produces byte-identical reports to a serial run. Each experiment is a
//! pure function of the shared context (per-cell sweep seeds, scoped
//! metrics, no cross-experiment solver state), so worker count and
//! completion order must not leak into any report.

use perfpred_bench::{runner, Experiments};

/// A representative subset: `table1` drives simulator measurement
/// campaigns (parallel sweeps inside a scheduled experiment), `table2`
/// the LQN calibration and solver, `open` the mixed open/closed solver
/// against simulated open traffic, `cluster` a multi-server tier run of
/// a resource-manager allocation.
const IDS: [&str; 4] = ["table1", "table2", "open", "cluster"];

fn reports(jobs: usize) -> Vec<(String, String)> {
    // A fresh context per run: nothing carries over, not even lazy
    // calibrations, so the comparison covers those campaigns too.
    let ctx = Experiments::quick(42);
    let summary = runner::run_experiments(&ctx, &IDS, jobs, |_| {});
    assert_eq!(summary.jobs, jobs.min(IDS.len()));
    summary
        .outcomes
        .into_iter()
        .map(|o| {
            let report = o.report.unwrap_or_else(|| panic!("{} must run", o.id));
            (o.id, report)
        })
        .collect()
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let serial = reports(1);
    let parallel = reports(4);
    assert_eq!(
        serial.len(),
        parallel.len(),
        "same experiments must complete"
    );
    for ((sid, sreport), (pid, preport)) in serial.iter().zip(&parallel) {
        assert_eq!(sid, pid, "paper order must be preserved");
        assert_eq!(
            sreport, preport,
            "{sid}: --jobs 4 report differs from serial"
        );
    }
}
