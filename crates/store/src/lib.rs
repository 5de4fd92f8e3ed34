//! perfpred-store: durable observation intake with continuous HYDRA
//! refitting and hot model reload.
//!
//! The paper's historical method fits its relationships once, offline,
//! from a calibration dataset. This crate closes the loop for a *running*
//! system: measured operating points stream in (from the load generator
//! or the live application), land in a crash-safe append-only log, fold
//! incrementally into the HYDRA anchor grid, and periodically — on a full
//! window or on detected drift — produce a freshly calibrated
//! [`HistoricalModel`](perfpred_hydra::HistoricalModel) that is
//! hot-swapped into a versioned registry the serve daemon reads lock-free.
//!
//! Layers, bottom to top:
//!
//! * [`record`] — the fixed 64-byte CRC-framed observation record.
//! * [`log`] — segmented append-only log with atomic manifest updates and
//!   torn-tail recovery.
//! * [`refit`] — the incremental refitter: anchor-grid running sums,
//!   window + drift triggers, batch-equivalent fits.
//! * [`registry`] — versioned models behind one atomic pointer;
//!   [`RegistryModel`] adapts the registry to
//!   [`PerformanceModel`](perfpred_core::PerformanceModel).
//! * [`pipeline`] — [`ObservationStore`], the assembled intake: one lock
//!   orders appends and folds identically, which makes restart replay
//!   rebuild the serving model bit for bit from the log alone.

pub mod log;
pub mod pipeline;
pub mod record;
pub mod refit;
pub mod registry;

pub use log::{LogOptions, ObservationLog, ReplayReport, SegmentReader};
pub use pipeline::{IngestOutcome, LogWatch, ObservationStore, RefitEvent};
pub use record::{Observation, StoreError, RECORD_BYTES, SERVER_NAME_BYTES};
pub use refit::{AnchorGrid, RefitOptions, RefitTrigger, Refitter};
pub use registry::{ModelRegistry, ModelVersion, RegistryModel};
