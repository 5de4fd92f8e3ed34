#![warn(missing_docs)]

//! # perfpred-tradesim
//!
//! A discrete-event simulator of the paper's testbed: the IBM *Trade*
//! performance benchmark running on a WebSphere-style application server in
//! front of a DB2-style database server, driven by closed-loop clients with
//! exponential think times (§2–§3).
//!
//! This crate is the workspace's **ground truth**. The paper measured a
//! physical testbed; we cannot, so every "measured" data point in the
//! reproduced tables and figures comes from this simulator instead (see
//! DESIGN.md's substitution table). The simulator deliberately includes
//! behaviour that the layered queuing model's CPU-based calibration cannot
//! see — per-request infrastructure (communication/container) latency and
//! per-database-call network time — which reproduces the paper's finding
//! that the historical method's response-time accuracy beats the layered
//! queuing method's (§5.1 blames unmodelled "delays such as communication
//! overhead").
//!
//! ## Structure
//!
//! * [`ops`] — the Trade operation mixes: the *browse* mix (home/quote/
//!   portfolio/account) and the *buy* session flow (register+login, a
//!   geometric run of buys averaging 10, logoff — giving the paper's mean
//!   portfolio size of 5.5);
//! * [`config`] — the synthetic testbed's calibration constants and run
//!   options;
//! * [`slot`] — counted resource pools with FIFO or priority admission
//!   (the 50 application-server threads);
//! * [`cache`] — an LRU session cache for the §7.2 caching extension;
//! * [`engine`] — the event-driven simulation core: the §2 system model,
//!   a tier of application servers in front of one database server with
//!   one database queue per application server (one server for the
//!   paper's calibration runs);
//! * [`harness`] — measurement runs, client sweeps (parallel on scoped
//!   std threads), max-throughput search;
//! * [`calibrate`] — derives a [`perfpred_lqns::trade::TradeLqnConfig`]
//!   from simulator runs exactly the way §5 calibrates LQNS on a physical
//!   server: send a single-request-type workload to an offline server and
//!   divide measured CPU utilisation by throughput.

pub mod cache;
pub mod calibrate;
pub mod config;
pub mod engine;
pub mod harness;
pub mod ops;
pub mod slot;

pub use config::{GroundTruth, SimOptions};
pub use engine::TradeSim;
pub use harness::{
    find_max_throughput, replicate, run, sweep, ClassMeasure, MeasuredPoint, ReplicatedPoint,
};
