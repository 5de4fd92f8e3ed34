#![warn(missing_docs)]

//! perfpred-cluster: replicated multi-node serving.
//!
//! The paper's resource manager assumes predictions exist for a *pool*
//! of heterogeneous servers; this crate makes the serving tier itself a
//! pool. One primary node accepts observations, continuously refits,
//! and ships its observation log — raw 64-byte CRC-framed records, the
//! exact bytes on its disk — to follower nodes over a length-prefixed
//! TCP protocol. Followers replay the stream through the same
//! deterministic ingest path, so every node's log files, model registry
//! and `/predict` answers are byte-identical to the primary's.
//!
//! Layers:
//!
//! * [`wire`] — typed messages over the CRC-guarded frame codec.
//! * [`state`] — the node's role/epoch state machine shared with serve.
//! * [`lease`] — the atomically persisted epoch lease.
//! * [`repl`] — the primary-side hub, follower-side replicator,
//!   failover and the rejoin/fencing rules.
//! * [`ring`] — consistent hashing with bounded-load spill.
//! * [`proxy`] — the `perfpred-router` front tier on the shared event
//!   loop: health-probed upstream pools, eject/readmit with jittered
//!   backoff, writes pinned to the primary.

pub mod lease;
pub mod proxy;
pub mod repl;
pub mod ring;
pub mod state;
pub mod wire;

pub use lease::Lease;
pub use proxy::RouterConfig;
#[cfg(target_os = "linux")]
pub use proxy::RouterServer;
pub use repl::{
    rejoin_check, spawn_replicator, HubConfig, RejoinOutcome, ReplicationHub, ReplicatorConfig,
};
pub use ring::Ring;
pub use state::{ClusterState, Role};
pub use wire::Message;
