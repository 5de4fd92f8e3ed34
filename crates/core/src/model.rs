//! The common interface every prediction method implements.

use crate::error::PredictError;
use crate::server::ServerArch;
use crate::workload::Workload;

/// The output of one prediction: workload-level and per-class metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Mean response time across the whole workload, milliseconds.
    pub mrt_ms: f64,
    /// Mean response time per service class (same order as
    /// [`Workload::classes`]), milliseconds.
    pub per_class_mrt_ms: Vec<f64>,
    /// Aggregate request throughput, requests/second.
    pub throughput_rps: f64,
    /// Application-server CPU utilisation in `[0, 1]`, if the method
    /// produces one (the layered queuing method does; the historical method
    /// reports saturation via `saturated` instead).
    pub utilization: Option<f64>,
    /// Whether the operating point is at/after the server's max throughput
    /// — this selects the post-saturation response-time distribution of
    /// §7.1 and the upper equation of relationship 1.
    pub saturated: bool,
}

impl Prediction {
    /// A single-class prediction helper.
    pub fn single_class(mrt_ms: f64, throughput_rps: f64, saturated: bool) -> Self {
        Prediction {
            mrt_ms,
            per_class_mrt_ms: vec![mrt_ms],
            throughput_rps,
            utilization: None,
            saturated,
        }
    }
}

/// A performance prediction method, in the paper's sense: something that
/// predicts service-class response times and throughputs for a workload on
/// an application-server architecture.
///
/// Implementations in this workspace:
///
/// * `perfpred_hydra::HistoricalModel` — §4, extrapolates fitted trends;
/// * `perfpred_lqns::LqnPredictor` — §5, solves a layered queuing network;
/// * `perfpred_hybrid::HybridModel` — §6, a historical model calibrated
///   from layered-queuing-generated pseudo data.
pub trait PerformanceModel {
    /// A short human-readable method name ("historical", "layered-queuing",
    /// "hybrid").
    fn method_name(&self) -> &str;

    /// Predicts workload and per-class metrics for `workload` running on
    /// `server`.
    fn predict(&self, server: &ServerArch, workload: &Workload)
        -> Result<Prediction, PredictError>;

    /// The maximum number of clients (scaling `template`'s class mix) the
    /// server can support with the *workload mean* response time at or below
    /// `rt_goal_ms`.
    ///
    /// The default implementation performs the search the paper describes
    /// for the layered queuing method (§8.2): exponential growth to bracket,
    /// then bisection on the number of clients. Methods with closed-form
    /// inversions (the historical method can rewrite eqs 1–2 in terms of the
    /// mean response time) should override this.
    fn max_clients(
        &self,
        server: &ServerArch,
        template: &Workload,
        rt_goal_ms: f64,
    ) -> Result<u32, PredictError> {
        if template.is_empty() {
            return Err(PredictError::OutOfRange(
                "template workload is empty".into(),
            ));
        }
        let base = f64::from(template.total_clients());
        let mrt_at = |n: u32| -> Result<f64, PredictError> {
            let w = template.scaled(f64::from(n) / base);
            if w.is_empty() {
                return Ok(0.0);
            }
            Ok(self.predict(server, &w)?.mrt_ms)
        };
        // A single client must meet the goal for any capacity to exist.
        if mrt_at(1)? > rt_goal_ms {
            return Ok(0);
        }
        // Bracket: double until the goal is exceeded (or a hard cap).
        let mut lo: u32 = 1;
        let mut hi: u32 = 2;
        const CAP: u32 = 1 << 22;
        while mrt_at(hi)? <= rt_goal_ms {
            lo = hi;
            if hi >= CAP {
                return Ok(hi); // effectively unbounded within the cap
            }
            hi = hi.saturating_mul(2).min(CAP);
        }
        // Bisect [lo, hi): lo meets the goal, hi does not.
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if mrt_at(mid)? <= rt_goal_ms {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Whether the method can record and predict percentile metrics
    /// *directly* (only the historical method can, §8.2). Every method can
    /// still extrapolate percentiles from means via
    /// [`crate::distribution::RtDistribution`].
    fn supports_direct_percentiles(&self) -> bool {
        false
    }

    /// The version of the calibration this model currently answers from.
    /// Models that are re-calibrated while serving (a registry-backed
    /// historical model) bump it on every publish; pure models keep the
    /// default 0. [`crate::PredictionCache`] stamps it into every key, so
    /// answers memoized under a superseded calibration are never served
    /// and no publisher has to remember to re-key a cache.
    fn model_version(&self) -> u64 {
        0
    }
}

impl<M: PerformanceModel + ?Sized> PerformanceModel for &M {
    fn method_name(&self) -> &str {
        (**self).method_name()
    }
    fn predict(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Result<Prediction, PredictError> {
        (**self).predict(server, workload)
    }
    fn max_clients(
        &self,
        server: &ServerArch,
        template: &Workload,
        rt_goal_ms: f64,
    ) -> Result<u32, PredictError> {
        (**self).max_clients(server, template, rt_goal_ms)
    }
    fn supports_direct_percentiles(&self) -> bool {
        (**self).supports_direct_percentiles()
    }
    fn model_version(&self) -> u64 {
        (**self).model_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// A synthetic model with a closed-form mrt = 10 + 0.05·n² / 100 curve,
    /// used to exercise the default max-clients search.
    struct Quadratic;

    impl PerformanceModel for Quadratic {
        fn method_name(&self) -> &str {
            "quadratic-test"
        }
        fn predict(
            &self,
            _server: &ServerArch,
            workload: &Workload,
        ) -> Result<Prediction, PredictError> {
            let n = f64::from(workload.total_clients());
            let mrt = 10.0 + 0.0005 * n * n;
            Ok(Prediction::single_class(mrt, n / 7.0, false))
        }
    }

    fn server() -> ServerArch {
        ServerArch::app_serv_f()
    }

    #[test]
    fn max_clients_brackets_and_bisects() {
        let m = Quadratic;
        // mrt(n) = 10 + 0.0005 n² ≤ 300  ⇒  n ≤ sqrt(290/0.0005) ≈ 761.6
        let n = m
            .max_clients(&server(), &Workload::typical(100), 300.0)
            .unwrap();
        assert_eq!(n, 761);
    }

    #[test]
    fn max_clients_zero_when_goal_unreachable() {
        let m = Quadratic;
        let n = m
            .max_clients(&server(), &Workload::typical(100), 5.0)
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn max_clients_rejects_empty_template() {
        let m = Quadratic;
        assert!(m.max_clients(&server(), &Workload::empty(), 100.0).is_err());
    }

    #[test]
    fn boundary_client_meets_goal_and_next_does_not() {
        let m = Quadratic;
        let goal = 300.0;
        let n = m
            .max_clients(&server(), &Workload::typical(10), goal)
            .unwrap();
        let at = m.predict(&server(), &Workload::typical(n)).unwrap().mrt_ms;
        let over = m
            .predict(&server(), &Workload::typical(n + 1))
            .unwrap()
            .mrt_ms;
        assert!(at <= goal);
        assert!(over > goal);
    }

    #[test]
    fn default_percentile_support_is_false() {
        assert!(!Quadratic.supports_direct_percentiles());
    }
}
