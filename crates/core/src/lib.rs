#![warn(missing_docs)]

//! # perfpred-core
//!
//! Shared vocabulary for the `perfpred` workspace: server architectures,
//! closed-loop workloads divided into SLA-bearing service classes, prediction
//! results, response-time distributions, accuracy metrics and the
//! least-squares fitting utilities used by the historical method.
//!
//! The types here mirror the *system model* of Bacigalupo et al. (IPDPS
//! 2004): a service provider hosts applications, each application is a tier
//! of (possibly heterogeneous) application servers in front of a single
//! database server, and the workload is a population of closed-loop clients
//! grouped into *service classes*, each with a response-time goal from an
//! SLA.
//!
//! Every prediction method in the workspace (historical, layered queuing,
//! hybrid) implements the [`PerformanceModel`] trait defined here, which is
//! what the resource manager in `perfpred-resman` consumes.

pub mod accuracy;
pub mod cache;
pub mod distribution;
pub mod error;
pub mod faults;
pub mod fit;
pub mod frame;
pub mod fsutil;
pub mod http;
pub mod json;
pub mod metrics;
pub mod model;
pub mod server;
pub mod sla;
pub mod summary;
pub mod sys;
pub mod workload;

pub use accuracy::{accuracy_pct, mean_accuracy_pct, AccuracyReport};
pub use cache::{CacheOptions, CacheStats, PredictionCache};
pub use distribution::{DoubleExponentialRt, ExponentialRt, RtDistribution};
pub use error::PredictError;
pub use fit::{ExpFit, LinearFit, PowerFit};
pub use json::Json;
pub use model::{PerformanceModel, Prediction};
pub use server::ServerArch;
pub use sla::{SlaGoal, SlaSpec};
pub use summary::Summary;
pub use workload::{ClassLoad, RequestType, ServiceClass, Workload};

/// Convenience result alias used throughout the workspace.
pub type Result<T, E = PredictError> = std::result::Result<T, E>;
