//! Per-request admission control — §9's runtime rejection rule applied at
//! the serving boundary.
//!
//! The resource manager's runtime model rejects clients whenever a
//! populated class's response time comes within `threshold` of its SLA
//! goal ([`perfpred_resman::runtime`]); this controller applies the same
//! comparison to the *predicted* response times of an incoming `/predict`
//! request, so a caller asking "may I place this workload here?" is told
//! no (503) before the server ever misses a goal.
//!
//! The threshold is hot-reloadable: `POST /admin/threshold` (driven by
//! the `perfpred-ctl` control plane) swaps it atomically under live
//! traffic, so a fleet can be retuned without a restart. The value lives
//! as f64 bits in an [`AtomicU64`] shared by every clone of the
//! controller — a request in flight sees either the old or the new
//! threshold, never a torn value.

use perfpred_core::metrics::{self, Counter};
use perfpred_core::{Prediction, Workload};
use perfpred_resman::RuntimeOptions;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The controller's answer for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Every populated class with a goal clears `goal × (1 − threshold)`.
    Admit,
    /// The first class that failed the margin (workloads without goals are
    /// always admitted).
    Reject {
        /// Service-class name that tripped the rule.
        class: String,
        /// Its predicted mean response time, ms (NaN counts as a miss,
        /// exactly as in the runtime model).
        predicted_mrt_ms: f64,
        /// Its SLA goal, ms.
        goal_ms: f64,
    },
}

impl Verdict {
    /// True for [`Verdict::Admit`].
    pub fn admitted(&self) -> bool {
        matches!(self, Verdict::Admit)
    }
}

/// Admission controller sharing [`RuntimeOptions`] with the resource
/// manager's runtime evaluation. Clones share one threshold cell, so a
/// [`AdmissionController::set_threshold`] on any clone retunes them all.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    threshold_bits: Arc<AtomicU64>,
    /// `serve.admission.*` handles, resolved in the metrics scope the
    /// controller is built in.
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
}

impl AdmissionController {
    /// Builds a controller, validating the threshold (NaN and values
    /// outside `[0, 1)` are rejected by [`RuntimeOptions::validate`]).
    pub fn new(opts: RuntimeOptions) -> Result<AdmissionController, perfpred_core::PredictError> {
        opts.validate()?;
        Ok(AdmissionController {
            threshold_bits: Arc::new(AtomicU64::new(opts.threshold.to_bits())),
            admitted: metrics::counter("serve.admission.admitted"),
            rejected: metrics::counter("serve.admission.rejected"),
        })
    }

    /// The current (validated) rejection threshold.
    pub fn threshold(&self) -> f64 {
        f64::from_bits(self.threshold_bits.load(Ordering::Relaxed))
    }

    /// Atomically swaps the threshold under live traffic. The candidate
    /// goes through the same [`RuntimeOptions`] validation as at build
    /// time, so an invalid value leaves the running threshold untouched.
    pub fn set_threshold(&self, threshold: f64) -> Result<(), perfpred_core::PredictError> {
        let opts = RuntimeOptions::with_threshold(threshold)?;
        self.threshold_bits
            .store(opts.threshold.to_bits(), Ordering::Relaxed);
        Ok(())
    }

    /// Judges one prediction against the workload's SLA goals.
    ///
    /// Mirrors `within_threshold` in the runtime model: empty workloads
    /// and classes without goals are admitted; a class violates when its
    /// predicted mean response time is NaN or exceeds
    /// `goal × (1 − threshold)`.
    pub fn judge(&self, workload: &Workload, prediction: &Prediction) -> Verdict {
        let threshold = self.threshold();
        for (i, load) in workload.classes.iter().enumerate() {
            if load.clients == 0 {
                continue;
            }
            let Some(goal) = load.class.rt_goal_ms else {
                continue;
            };
            let mrt = prediction
                .per_class_mrt_ms
                .get(i)
                .copied()
                .unwrap_or(f64::NAN);
            if mrt.is_nan() || mrt > goal * (1.0 - threshold) {
                self.rejected.incr();
                return Verdict::Reject {
                    class: load.class.name.clone(),
                    predicted_mrt_ms: mrt,
                    goal_ms: goal,
                };
            }
        }
        self.admitted.incr();
        Verdict::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_core::workload::{ClassLoad, RequestType, ServiceClass};

    fn workload(goal_ms: Option<f64>, clients: u32) -> Workload {
        Workload {
            classes: vec![ClassLoad {
                class: ServiceClass {
                    name: "browse".into(),
                    request_type: RequestType::Browse,
                    think_time_ms: 7_000.0,
                    rt_goal_ms: goal_ms,
                },
                clients,
            }],
        }
    }

    fn prediction(mrt_ms: f64) -> Prediction {
        Prediction {
            mrt_ms,
            per_class_mrt_ms: vec![mrt_ms],
            throughput_rps: 1.0,
            utilization: None,
            saturated: false,
        }
    }

    #[test]
    fn admits_with_margin_and_rejects_inside_threshold() {
        let c = AdmissionController::new(RuntimeOptions::with_threshold(0.05).unwrap()).unwrap();
        // goal 300 ms, threshold 5 % → admit up to 285 ms.
        assert!(c
            .judge(&workload(Some(300.0), 10), &prediction(284.0))
            .admitted());
        assert!(c
            .judge(&workload(Some(300.0), 10), &prediction(285.0))
            .admitted());
        let v = c.judge(&workload(Some(300.0), 10), &prediction(286.0));
        assert_eq!(
            v,
            Verdict::Reject {
                class: "browse".into(),
                predicted_mrt_ms: 286.0,
                goal_ms: 300.0
            }
        );
    }

    #[test]
    fn nan_predictions_and_missing_classes_reject() {
        let c = AdmissionController::new(RuntimeOptions::default()).unwrap();
        assert!(!c
            .judge(&workload(Some(300.0), 10), &prediction(f64::NAN))
            .admitted());
        // Prediction with no per-class entry for a populated goal class.
        let mut p = prediction(10.0);
        p.per_class_mrt_ms.clear();
        assert!(!c.judge(&workload(Some(300.0), 10), &p).admitted());
    }

    #[test]
    fn goalless_and_empty_classes_always_admit() {
        let c = AdmissionController::new(RuntimeOptions::default()).unwrap();
        assert!(c.judge(&workload(None, 10), &prediction(1e9)).admitted());
        assert!(c
            .judge(&workload(Some(1.0), 0), &prediction(1e9))
            .admitted());
    }

    #[test]
    fn invalid_thresholds_cannot_build_a_controller() {
        for bad in [f64::NAN, -0.1, 1.0, 2.0] {
            let opts = RuntimeOptions {
                threshold: bad,
                ..Default::default()
            };
            assert!(AdmissionController::new(opts).is_err());
        }
    }

    #[test]
    fn hot_reload_is_shared_across_clones_and_validated() {
        let c = AdmissionController::new(RuntimeOptions::with_threshold(0.05).unwrap()).unwrap();
        let clone = c.clone();
        // 286 ms vs goal 300 rejects at 5 % ...
        assert!(!c
            .judge(&workload(Some(300.0), 10), &prediction(286.0))
            .admitted());
        // ... admits after loosening to 0 % through the *clone* ...
        clone.set_threshold(0.0).unwrap();
        assert_eq!(c.threshold(), 0.0);
        assert!(c
            .judge(&workload(Some(300.0), 10), &prediction(286.0))
            .admitted());
        // ... and an invalid candidate leaves the running value alone.
        for bad in [f64::NAN, -0.1, 1.0] {
            assert!(clone.set_threshold(bad).is_err());
        }
        assert_eq!(c.threshold(), 0.0);
    }
}
