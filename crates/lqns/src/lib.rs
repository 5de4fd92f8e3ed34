#![warn(missing_docs)]

//! # perfpred-lqns
//!
//! Layered queuing network (LQN) modelling and analytic solving — a
//! from-scratch Rust implementation of the method the paper calls "the
//! layered queuing method, as implemented in the layered queuing network
//! solver (LQNS)" (§5).
//!
//! An LQN describes a distributed system as *tasks* (software servers with
//! finite thread pools) running on *processors*, offering *entries* that
//! make synchronous calls to entries of lower-layer tasks. Closed workload
//! enters through *reference tasks* — one per service class — whose
//! population and think time model the paper's closed-loop clients.
//!
//! ## Solver
//!
//! [`solve::solve`] computes an approximate analytic solution in the
//! method-of-layers family (Rolia & Sevcik), alternating:
//!
//! 1. **software contention** submodels — one closed multi-class queueing
//!    network per call-depth layer, whose stations are the layer's tasks
//!    (thread pools as multiservers) with service times equal to the
//!    current estimate of entry *thread-holding* times; and
//! 2. a **device contention** submodel whose stations are the processors.
//!
//! Each submodel is solved with Bard–Schweitzer approximate MVA
//! ([`mva::solve_amva`]); multiservers use the Seidmann transformation.
//! The fixed point iterates until the largest change in any chain's
//! predicted response time falls below a configurable absolute tolerance —
//! the paper's "convergence criterion of 20 ms" ([`solve::SolverOptions`]).
//!
//! ## Scope
//!
//! Synchronous rendezvous calls, FIFO/PS queueing, finite multiplicities
//! and closed chains — everything the paper's case study exercises — are
//! supported. Second phases, asynchronous forks/joins and request
//! forwarding are *not* (the paper itself only exercises synchronous
//! interactions; see DESIGN.md).
//!
//! ```
//! use perfpred_lqns::model::LqnModel;
//!
//! // A two-tier model: 100 clients -> app server (2 threads) -> database.
//! let mut b = LqnModel::builder();
//! let client_cpu = b.processor("client-cpu").infinite().finish();
//! let app_cpu = b.processor("app-cpu").finish();
//! let db_cpu = b.processor("db-cpu").finish();
//! let app = b.task("app", app_cpu).multiplicity(2).finish();
//! let db = b.task("db", db_cpu).finish();
//! let serve = b.entry("serve", app).demand_ms(5.0).finish();
//! let query = b.entry("query", db).demand_ms(1.0).finish();
//! b.call(serve, query, 1.14);
//! let clients = b.reference_task("clients", client_cpu, 100, 7_000.0).finish();
//! let think = b.entry("cycle", clients).demand_ms(0.0).finish();
//! b.call(think, serve, 1.0);
//! let model = b.build().unwrap();
//!
//! let solution = perfpred_lqns::solve::solve(&model, &Default::default()).unwrap();
//! assert!(solution.converged);
//! assert!(solution.chain_throughput_rps[0] > 0.0);
//! ```

pub mod format;
pub mod model;
pub mod mva;
pub mod predictor;
pub mod results;
pub mod solve;
pub mod trade;

pub use model::{EntryId, LqnModel, LqnModelBuilder, Multiplicity, ProcessorId, TaskId};
pub use mva::{solve_amva_into, solve_mixed_into, solve_mixed_with, AmvaWorkspace};
pub use predictor::LqnPredictor;
pub use results::SolverResult;
pub use solve::{solve, solve_with_pool, SolverOptions};
