//! The paper's §9.1 experiment setup and the uniform-error wrapper model.

use perfpred_core::workload::ClassLoad;
use perfpred_core::{
    PerformanceModel, PredictError, Prediction, ServerArch, ServiceClass, Workload,
};

/// The 16-server pool of §9.1: eight new-architecture servers (AppServS)
/// and eight established ones (4 × AppServF, 4 × AppServVF).
pub fn paper_pool() -> Vec<ServerArch> {
    let mut pool = Vec::with_capacity(16);
    for _ in 0..8 {
        pool.push(ServerArch::app_serv_s());
    }
    for _ in 0..4 {
        pool.push(ServerArch::app_serv_f());
    }
    for _ in 0..4 {
        pool.push(ServerArch::app_serv_vf());
    }
    pool
}

/// The §9.1 workload template at `total` clients: 10 % buy clients
/// (goal 150 ms), 45 % high-priority browse (300 ms), 45 % low-priority
/// browse (600 ms). Goals follow the fastest server's ~600 ms response at
/// max throughput.
pub fn paper_workload(total: u32) -> Workload {
    let buy = (f64::from(total) * 0.10).round() as u32;
    let hi = (f64::from(total) * 0.45).round() as u32;
    let lo = total - buy - hi;
    Workload {
        classes: vec![
            ClassLoad {
                class: ServiceClass::buy().named("buy").with_goal(150.0),
                clients: buy,
            },
            ClassLoad {
                class: ServiceClass::browse().named("browse-hi").with_goal(300.0),
                clients: hi,
            },
            ClassLoad {
                class: ServiceClass::browse().named("browse-lo").with_goal(600.0),
                clients: lo,
            },
        ],
    }
}

/// A wrapper that injects *uniform* predictive error into any model (§9.1:
/// "define y as the predictive accuracy, where multiplying the actual
/// number of clients by y gives the prediction").
///
/// With `y > 1` the wrapped model is optimistic: its prediction for `n`
/// clients equals the inner model's for `n / y`, so it overestimates every
/// server's capacity by the factor `y` — which a slack of exactly `y`
/// compensates.
pub struct UniformErrorModel<M> {
    inner: M,
    y: f64,
}

impl<M> UniformErrorModel<M> {
    /// Wraps `inner` with accuracy factor `y` (> 0).
    pub fn new(inner: M, y: f64) -> Self {
        assert!(y > 0.0, "accuracy factor must be positive");
        UniformErrorModel { inner, y }
    }

    /// The accuracy factor.
    pub fn y(&self) -> f64 {
        self.y
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: PerformanceModel> PerformanceModel for UniformErrorModel<M> {
    fn method_name(&self) -> &str {
        "uniform-error"
    }

    fn predict(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Result<Prediction, PredictError> {
        // Evaluate the inner model at n/y clients but report the original
        // class structure (scaled() preserves classes).
        let scaled = workload.scaled(1.0 / self.y);
        let mut p = self.inner.predict(server, &scaled)?;
        // Throughput is still produced by the *real* population; keep the
        // inner model's rate estimate per client.
        if scaled.total_clients() > 0 {
            p.throughput_rps *=
                f64::from(workload.total_clients()) / f64::from(scaled.total_clients());
        }
        Ok(p)
    }

    fn model_version(&self) -> u64 {
        self.inner.model_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_model::LinearModel;

    #[test]
    fn pool_composition() {
        let pool = paper_pool();
        assert_eq!(pool.len(), 16);
        assert_eq!(pool.iter().filter(|s| s.name == "AppServS").count(), 8);
        assert_eq!(pool.iter().filter(|s| s.name == "AppServF").count(), 4);
        assert_eq!(pool.iter().filter(|s| s.name == "AppServVF").count(), 4);
        let power: f64 = pool.iter().map(|s| s.max_throughput_rps).sum();
        assert_eq!(power, 8.0 * 86.0 + 4.0 * 186.0 + 4.0 * 320.0);
    }

    #[test]
    fn workload_mix_and_goals() {
        let w = paper_workload(1_000);
        assert_eq!(w.total_clients(), 1_000);
        assert_eq!(w.classes[0].clients, 100);
        assert_eq!(w.classes[1].clients, 450);
        assert_eq!(w.classes[2].clients, 450);
        assert_eq!(w.classes[0].class.rt_goal_ms, Some(150.0));
        assert_eq!(w.classes[2].class.rt_goal_ms, Some(600.0));
        assert!((w.buy_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_error_shifts_predictions() {
        let inner = LinearModel {
            base_ms: 10.0,
            per_client_ms: 1.0,
        };
        let m = UniformErrorModel::new(
            LinearModel {
                base_ms: 10.0,
                per_client_ms: 1.0,
            },
            2.0,
        );
        let server = ServerArch::app_serv_f();
        let w = Workload::typical(200);
        let wrapped = m.predict(&server, &w).unwrap();
        let honest = inner.predict(&server, &w).unwrap();
        // Optimistic: predicts the response of 100 clients for 200.
        assert!(wrapped.mrt_ms < honest.mrt_ms);
        let at_100 = inner.predict(&server, &Workload::typical(100)).unwrap();
        assert!((wrapped.mrt_ms - at_100.mrt_ms).abs() < 1e-9);
        // Throughput rescaled back to the real population.
        assert!((wrapped.throughput_rps - honest.throughput_rps).abs() < 1e-9);
    }

    #[test]
    fn capacity_overestimated_by_y() {
        let inner = LinearModel {
            base_ms: 10.0,
            per_client_ms: 1.0,
        };
        let y = 1.25;
        let m = UniformErrorModel::new(
            LinearModel {
                base_ms: 10.0,
                per_client_ms: 1.0,
            },
            y,
        );
        let server = ServerArch::app_serv_f();
        let true_cap = inner.capacity(&server, 300.0);
        let template = Workload {
            classes: vec![ClassLoad {
                class: ServiceClass::browse().with_goal(300.0),
                clients: 100,
            }],
        };
        let predicted_cap = m.max_clients(&server, &template, 300.0).unwrap();
        let ratio = f64::from(predicted_cap) / f64::from(true_cap);
        assert!((ratio - y).abs() < 0.02, "ratio {ratio}");
    }
}
