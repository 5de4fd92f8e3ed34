//! The [`PerformanceModel`] implementation for the layered queuing method.

use crate::mva::AmvaWorkspace;
use crate::solve::solve_with_pool;
use crate::trade::TradeLqnConfig;
use perfpred_core::{PerformanceModel, PredictError, Prediction, ServerArch, Workload};
use std::cell::RefCell;

thread_local! {
    /// Solver buffers [`PerformanceModel::predict`] reuses across calls on
    /// this thread (a serving dispatcher, a sweep worker), so a solve does
    /// not re-allocate its AMVA workspaces.
    static WORKSPACES: RefCell<Vec<AmvaWorkspace>> = const { RefCell::new(Vec::new()) };
}

/// Application-server utilisation above which an operating point is
/// reported as saturated (at/after max throughput).
const SATURATION_UTILIZATION: f64 = 0.985;

/// The layered queuing prediction method (§5): builds the Trade LQN for the
/// requested server/workload and solves it analytically.
///
/// Each prediction costs one full solver run — the paper's "delay when
/// evaluating a prediction" drawback (§8.5) — which the
/// `prediction_delay` criterion bench quantifies.
#[derive(Debug, Clone)]
pub struct LqnPredictor {
    config: TradeLqnConfig,
}

impl LqnPredictor {
    /// A predictor over a calibrated Trade LQN configuration.
    pub fn new(config: TradeLqnConfig) -> Self {
        LqnPredictor { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &TradeLqnConfig {
        &self.config
    }

    /// Finds the server's max throughput for the given workload *mix* by
    /// sweeping the population upward until the application CPU saturates,
    /// then evaluating just past the knee (§8.2: with the layered queuing
    /// solver "the number of clients can only be an input so it is
    /// necessary to search").
    ///
    /// Measuring *at* 1.35× the saturation knee — exactly how the
    /// benchmark service loads a physical server — matters for mixed
    /// workloads: far past the knee the slower class's clients cycle less
    /// often, the served request mix drifts toward the cheap class, and
    /// the plateau creeps upward, overstating the mix's max throughput.
    pub fn max_throughput_rps(
        &self,
        server: &ServerArch,
        template: &Workload,
    ) -> Result<f64, PredictError> {
        if template.is_empty() {
            return Err(PredictError::OutOfRange(
                "template workload is empty".into(),
            ));
        }
        // One workspace pool rides the whole search: each probe solves the
        // same model shape at a neighbouring population, so every AMVA
        // fixed point after the first warm-starts. The pool is local to
        // this call — the search stays a pure function of its inputs.
        let mut pool: Vec<AmvaWorkspace> = Vec::new();
        let base = f64::from(template.total_clients());
        let mut n = base.max(64.0);
        for _ in 0..40 {
            let w = template.scaled(n / base);
            let p = self.predict_with_pool(server, &w, &mut pool)?;
            let util = p.utilization.unwrap_or(0.0);
            if util >= 0.99 {
                let w = template.scaled(n * 1.35 / base);
                return Ok(self
                    .predict_with_pool(server, &w, &mut pool)?
                    .throughput_rps);
            }
            let factor = (0.995 / util.max(0.05)).clamp(1.25, 3.0);
            n *= factor;
        }
        // Never saturated (e.g. a non-CPU bottleneck): report the largest
        // observed rate.
        self.predict_with_pool(server, &template.scaled(n / base), &mut pool)
            .map(|p| p.throughput_rps)
    }

    /// [`PerformanceModel::predict`] against a caller-held AMVA workspace
    /// pool, so a sweep of related predictions reuses solver buffers and
    /// warm starts across calls (see [`solve_with_pool`]).
    pub fn predict_with_pool(
        &self,
        server: &ServerArch,
        workload: &Workload,
        ws_pool: &mut Vec<AmvaWorkspace>,
    ) -> Result<Prediction, PredictError> {
        if workload.is_empty() {
            return Ok(Prediction {
                mrt_ms: 0.0,
                per_class_mrt_ms: vec![0.0; workload.classes.len()],
                throughput_rps: 0.0,
                utilization: Some(0.0),
                saturated: false,
            });
        }
        let model = self.config.build_model(server, workload)?;
        let sol = solve_with_pool(&model, &self.config.solver, ws_pool)?;
        let app_cpu = model
            .processor_by_name("app-cpu")
            .expect("trade model always has an app-cpu");
        let utilization = sol.processor_utilization[app_cpu.0];
        Ok(Prediction {
            mrt_ms: sol.workload_mrt_ms(),
            per_class_mrt_ms: sol.chain_response_ms.clone(),
            throughput_rps: sol.total_throughput_rps(),
            utilization: Some(utilization),
            saturated: utilization >= SATURATION_UTILIZATION,
        })
    }
}

impl PerformanceModel for LqnPredictor {
    fn method_name(&self) -> &str {
        "layered-queuing"
    }

    fn predict(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Result<Prediction, PredictError> {
        // The thread's pool lends its buffers, but its warm-start state is
        // invalidated first: every prediction is a cold solve, bit-identical
        // to one through a fresh pool whatever this thread solved before.
        WORKSPACES.with(|pool| {
            let mut pool = pool.borrow_mut();
            for ws in pool.iter_mut() {
                ws.invalidate();
            }
            self.predict_with_pool(server, workload, &mut pool)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_core::accuracy_pct;

    fn predictor() -> LqnPredictor {
        LqnPredictor::new(TradeLqnConfig::paper_table2())
    }

    #[test]
    fn light_load_prediction() {
        let p = predictor()
            .predict(&ServerArch::app_serv_f(), &Workload::typical(200))
            .unwrap();
        // ~5.45 ms service chain, no contention.
        assert!(p.mrt_ms > 4.0 && p.mrt_ms < 8.0, "mrt {}", p.mrt_ms);
        assert!(!p.saturated);
        assert!((p.throughput_rps - 200.0 / 7.005).abs() < 1.0);
        assert_eq!(p.per_class_mrt_ms.len(), 1);
    }

    #[test]
    fn saturation_detected_past_max_throughput() {
        // AppServF bound with Table 2 demands: 1000/4.505 ≈ 222 req/s;
        // saturation load ≈ 222·7 ≈ 1550 clients.
        let p = predictor()
            .predict(&ServerArch::app_serv_f(), &Workload::typical(2_200))
            .unwrap();
        assert!(p.saturated, "utilization {:?}", p.utilization);
        assert!(p.throughput_rps < 225.0);
        assert!(p.mrt_ms > 100.0);
    }

    #[test]
    fn empty_workload_is_zero() {
        let p = predictor()
            .predict(&ServerArch::app_serv_f(), &Workload::empty())
            .unwrap();
        assert_eq!(p.mrt_ms, 0.0);
        assert_eq!(p.throughput_rps, 0.0);
        assert!(!p.saturated);
    }

    #[test]
    fn max_throughput_scales_with_server_speed() {
        let pr = predictor();
        let w = Workload::typical(100);
        let f = pr
            .max_throughput_rps(&ServerArch::app_serv_f(), &w)
            .unwrap();
        let s = pr
            .max_throughput_rps(&ServerArch::app_serv_s(), &w)
            .unwrap();
        let vf = pr
            .max_throughput_rps(&ServerArch::app_serv_vf(), &w)
            .unwrap();
        // CPU-bound: ratios follow speed factors (§5's ratio rule).
        assert!(accuracy_pct(s / f, 86.0 / 186.0) > 97.0, "s/f {}", s / f);
        assert!(
            accuracy_pct(vf / f, 320.0 / 186.0) > 97.0,
            "vf/f {}",
            vf / f
        );
        // Absolute: ≈ 222 req/s on F for Table 2 demands.
        assert!((f - 222.0).abs() < 6.0, "f {f}");
    }

    #[test]
    fn max_clients_search_consistent_with_predictions() {
        let pr = predictor();
        let server = ServerArch::app_serv_f();
        let goal = 50.0;
        let n = pr
            .max_clients(&server, &Workload::typical(100), goal)
            .unwrap();
        assert!(n > 1_000, "n={n}");
        let at = pr.predict(&server, &Workload::typical(n)).unwrap().mrt_ms;
        let over = pr
            .predict(&server, &Workload::typical(n + 1))
            .unwrap()
            .mrt_ms;
        assert!(at <= goal + 1e-9);
        assert!(over > goal);
    }

    #[test]
    fn heavier_mix_lowers_max_throughput() {
        let pr = predictor();
        let server = ServerArch::app_serv_f();
        let typical = pr
            .max_throughput_rps(&server, &Workload::typical(100))
            .unwrap();
        let buys = pr
            .max_throughput_rps(&server, &Workload::with_buy_pct(100, 25.0))
            .unwrap();
        assert!(buys < typical, "buys {buys} vs typical {typical}");
        // The paper's LQNS reports 189 -> 158 req/s at 25% buy (a ~16%
        // drop); with Table 2 demands the drop should be in that region.
        let drop = 1.0 - buys / typical;
        assert!(drop > 0.10 && drop < 0.25, "drop {drop}");
    }

    #[test]
    fn no_direct_percentiles() {
        assert!(!predictor().supports_direct_percentiles());
        assert_eq!(predictor().method_name(), "layered-queuing");
    }
}
