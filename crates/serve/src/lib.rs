#![warn(missing_docs)]

//! # perfpred-serve
//!
//! An online prediction-serving daemon for the perfpred workspace: the
//! paper's §8.5 timing argument — historical predictions answer in
//! microseconds while layered queuing solves cost much more, so a resource
//! manager must consume predictions *online* — turned into a long-running
//! service instead of a batch sweep.
//!
//! The daemon is a std-only TCP server speaking HTTP/1.1 through the
//! workspace's one codec, [`perfpred_core::http`] (the workspace stays
//! dependency-free), on the workspace's one event loop,
//! [`perfpred_core::reactor`] — so it runs on Linux only.
//! It hosts the layered queuing, hybrid and (when calibrated) historical
//! predictors behind [`perfpred_core::PredictionCache`] and answers:
//!
//! * `POST /predict` — server architecture + workload → response
//!   time/throughput prediction, with SLA-threshold admission control;
//! * `POST /observe` — ingest measured operating points (single or
//!   batched) into the [`perfpred_store`] observation log; every full
//!   refit window (or on detected drift) the historical model is refitted
//!   and hot-swapped without dropping in-flight work;
//! * `GET /models` — the versioned model registry: current version,
//!   triggers, observation counts;
//! * `POST /plan` — SLA workload set + pool → resource-manager allocation
//!   (via [`perfpred_resman::planner::plan`]);
//! * `GET /metrics` — Prometheus-style text exposition of the
//!   [`perfpred_core::metrics`] registry, including per-endpoint latency
//!   histograms and the serving `serve_model_version`;
//! * `GET /healthz` — liveness;
//! * `POST /shutdown` — graceful drain (SIGTERM/ctrl-c do the same),
//!   fsyncing the observation log tail last.
//!
//! ## Serving stack
//!
//! ```text
//!   listener ── reactor shards (epoll; connection cap ⇒ 503)
//!                 │
//!                 ├─ conn::Conn (core::http) + route + admission
//!                 │
//!                 ├─ cache hit? ─────────▶ answer on the shard (µs path)
//!                 │
//!                 └─ miss, /observe, /plan: dispatcher pool
//!                          (bounded queue, overflow ⇒ 503; an lqns
//!                          miss is solved on the dispatcher and
//!                          memoized into the shared cache)
//! ```
//!
//! Admission control mirrors [`perfpred_resman::runtime`]: a predict
//! request whose predicted response time lands within
//! `RuntimeOptions::threshold` of its SLA goal is rejected with 503 —
//! §9's "application servers reject clients at runtime if response times
//! are within a threshold of missing SLA goals", exercised per request.

pub mod admission;
pub mod arrivals;
pub mod batch;
pub mod config;
pub mod models;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod router;

/// The per-connection state machine and its parser re-exports, from the
/// shared event loop.
pub use perfpred_core::conn;
/// Graceful shutdown: the token and the SIGTERM/SIGINT handlers.
pub use perfpred_core::shutdown;

/// The request/response types and limits the daemon speaks: the
/// workspace's one HTTP/1.1 codec.
pub use perfpred_core::http;

pub use admission::{AdmissionController, Verdict};
pub use arrivals::{ArrivalMeter, ArrivalRates};
pub use config::{ModelSpec, ServeConfig};
pub use models::{Method, ModelHost};
#[cfg(target_os = "linux")]
pub use reactor::ReactorServer;
pub use shutdown::Shutdown;
