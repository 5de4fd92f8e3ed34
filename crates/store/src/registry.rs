//! Versioned model registry with lock-free hot swap.
//!
//! The refitter publishes each newly fitted [`HistoricalModel`] as an
//! immutable [`ModelVersion`]; the serve daemon's request threads read the
//! *current* version through a single atomic pointer load — no lock, no
//! allocation on the miss-free path — so a refit never stalls in-flight
//! predictions and a prediction never observes a half-swapped model.
//!
//! Safety model: `current` stores the raw pointer of an `Arc` that is
//! *also* kept alive in the `versions` vec for the registry's whole
//! lifetime, so readers can always revive a usable `Arc` from the pointer
//! with `Arc::increment_strong_count`. Old versions are retained on
//! purpose — they back `GET /models` and let cached predictions keyed by
//! an older version stay attributable.
//!
//! Two numbers identify a version. `version` is its position in the
//! current history (1, 2, …), which a rollback rebuilds from 1 so that a
//! follower's `/models` matches the primary's. `generation` counts every
//! publish over the registry's lifetime and never repeats, so it is what
//! prediction caches key on: a version rebuilt under an old number after
//! a rollback cannot answer from entries cached for the discarded one.

use crate::refit::RefitTrigger;
use perfpred_core::{PerformanceModel, PredictError, Prediction, ServerArch, Workload};
use perfpred_hydra::HistoricalModel;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One published model generation.
#[derive(Debug)]
pub struct ModelVersion {
    /// Position in the current history, starting at 1; a
    /// [`rewind`](ModelRegistry::rewind) restarts it.
    pub version: u64,
    /// Publish count over the registry's lifetime, starting at 1; unique
    /// across rewinds.
    pub generation: u64,
    /// The fitted model.
    pub model: HistoricalModel,
    /// Observations folded into the refitter when this fit was produced.
    pub observations: u64,
    /// Why the refit ran.
    pub trigger: RefitTrigger,
}

/// The registry: every published [`ModelVersion`] plus an atomically
/// swappable pointer to the current one.
pub struct ModelRegistry {
    current: AtomicPtr<ModelVersion>,
    versions: Mutex<Vec<Arc<ModelVersion>>>,
    /// Versions retired by [`rewind`](Self::rewind), kept alive for the
    /// registry's lifetime so the raw-pointer safety contract of
    /// [`current`](Self::current) holds across a rewind: a reader that
    /// loaded the pointer just before the rewind can still revive it.
    retired: Mutex<Vec<Arc<ModelVersion>>>,
    /// Publishes so far, rewinds included: the last generation assigned.
    generations: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry (version 0: nothing fitted yet).
    pub fn new() -> ModelRegistry {
        ModelRegistry {
            current: AtomicPtr::new(std::ptr::null_mut()),
            versions: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            generations: AtomicU64::new(0),
        }
    }

    /// Retires every published version so the history can be rebuilt from
    /// scratch — the follower rollback path, where a divergent log tail is
    /// discarded and the surviving prefix replayed. Version numbering
    /// restarts at 1, which is exactly what makes the rebuilt registry
    /// byte-identical to one that never saw the dropped tail; generations
    /// keep counting, so cache identity does not repeat. `current`
    /// keeps serving the last retired version until the rebuild's first
    /// publish, so reads never hit an empty registry mid-rollback; retired
    /// entries stay alive for the registry's lifetime (see the safety
    /// model above).
    pub fn rewind(&self) {
        let mut versions = self.versions.lock().unwrap();
        self.retired.lock().unwrap().append(&mut versions);
    }

    /// Publishes a fitted model as the next version and hot-swaps it in.
    /// Returns the version number assigned.
    pub fn publish(&self, model: HistoricalModel, observations: u64, trigger: RefitTrigger) -> u64 {
        let mut versions = self.versions.lock().unwrap();
        let version = versions.len() as u64 + 1;
        // Under the versions lock, so generations follow publish order.
        let generation = self.generations.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(ModelVersion {
            version,
            generation,
            model,
            observations,
            trigger,
        });
        let ptr = Arc::as_ptr(&entry) as *mut ModelVersion;
        versions.push(entry);
        // Publish after the vec holds its keep-alive reference. Release
        // pairs with the Acquire in `current()` so readers see the fully
        // initialised ModelVersion behind the pointer.
        self.current.store(ptr, Ordering::Release);
        version
    }

    /// The current model version, lock-free. `None` until the first
    /// [`publish`](Self::publish).
    pub fn current(&self) -> Option<Arc<ModelVersion>> {
        let ptr = self.current.load(Ordering::Acquire);
        if ptr.is_null() {
            return None;
        }
        // SAFETY: `ptr` was produced by `Arc::as_ptr` on an Arc that the
        // `versions` vec keeps alive (entries are never removed), so the
        // strong count is ≥ 1 for the registry's lifetime and reviving a
        // second Arc from the pointer is sound.
        unsafe {
            Arc::increment_strong_count(ptr);
            Some(Arc::from_raw(ptr))
        }
    }

    /// The current version number; 0 while the registry is empty. Reads
    /// through the pointer without reviving an `Arc`, so a per-request
    /// cache-key lookup costs no shared refcount traffic. Acquire pairs
    /// with `publish`'s Release: a reader that sees version `v` answers
    /// from `v` or newer.
    pub fn version(&self) -> u64 {
        // SAFETY: as in `current`, `versions` or `retired` keeps the entry
        // behind a non-null pointer alive for the registry's lifetime.
        unsafe { self.current.load(Ordering::Acquire).as_ref() }.map_or(0, |v| v.version)
    }

    /// The current version's generation; 0 while the registry is empty.
    /// Lock-free, like [`version`](Self::version).
    pub fn generation(&self) -> u64 {
        // SAFETY: as in `version`.
        unsafe { self.current.load(Ordering::Acquire).as_ref() }.map_or(0, |v| v.generation)
    }

    /// Snapshot of every published version, oldest first.
    pub fn versions(&self) -> Vec<Arc<ModelVersion>> {
        self.versions.lock().unwrap().clone()
    }
}

/// A [`PerformanceModel`] view over a registry: every call delegates to
/// whatever model is current at that instant, which is what lets the serve
/// daemon's prediction cache and routing stay oblivious to refits.
#[derive(Clone)]
pub struct RegistryModel {
    registry: Arc<ModelRegistry>,
}

impl RegistryModel {
    /// Wraps a shared registry.
    pub fn new(registry: Arc<ModelRegistry>) -> RegistryModel {
        RegistryModel { registry }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    fn current(&self) -> Result<Arc<ModelVersion>, PredictError> {
        self.registry.current().ok_or_else(|| {
            PredictError::Calibration(
                "no historical model fitted yet: feed observations to /observe \
                 or seed the store from a calibration dataset"
                    .into(),
            )
        })
    }
}

impl PerformanceModel for RegistryModel {
    fn method_name(&self) -> &str {
        "historical"
    }

    fn predict(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Result<Prediction, PredictError> {
        self.current()?.model.predict(server, workload)
    }

    fn max_clients(
        &self,
        server: &ServerArch,
        template: &Workload,
        rt_goal_ms: f64,
    ) -> Result<u32, PredictError> {
        self.current()?
            .model
            .max_clients(server, template, rt_goal_ms)
    }

    /// The current version's generation, so a cache over this view
    /// re-keys on every publish, local or replicated alike, and never
    /// reuses a key after a rollback.
    fn model_version(&self) -> u64 {
        self.registry.generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_hydra::ServerObservations;

    fn fitted(c_low: f64) -> HistoricalModel {
        let mx = 186.0;
        let n_star = mx / 0.1424;
        HistoricalModel::builder()
            .observations(
                ServerObservations::new("AppServF", mx)
                    .with_lower(0.15 * n_star, c_low)
                    .with_lower(0.60 * n_star, c_low * 1.4)
                    .with_upper(1.20 * n_star, 1_000.0 / mx * 1.20 * n_star - 7_000.0)
                    .with_upper(1.55 * n_star, 1_000.0 / mx * 1.55 * n_star - 7_000.0),
            )
            .gradient(0.1424)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_registry_reports_version_zero_and_calibration_error() {
        let reg = Arc::new(ModelRegistry::new());
        assert_eq!(reg.version(), 0);
        assert!(reg.current().is_none());
        let model = RegistryModel::new(reg);
        let err = model
            .predict(&ServerArch::app_serv_f(), &Workload::typical(100))
            .unwrap_err();
        assert!(matches!(err, PredictError::Calibration(_)), "{err}");
    }

    #[test]
    fn publish_bumps_version_and_swaps_the_served_model() {
        let reg = Arc::new(ModelRegistry::new());
        let model = RegistryModel::new(Arc::clone(&reg));
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);

        assert_eq!(reg.publish(fitted(20.0), 10, RefitTrigger::Window), 1);
        let before = model.predict(&server, &wl).unwrap().mrt_ms;

        assert_eq!(reg.publish(fitted(32.0), 20, RefitTrigger::Drift), 2);
        assert_eq!(reg.version(), 2);
        let after = model.predict(&server, &wl).unwrap().mrt_ms;
        assert!(
            after > before,
            "slower fit must serve slower predictions: {before} vs {after}"
        );

        let versions = reg.versions();
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0].version, 1);
        assert_eq!(versions[0].trigger, RefitTrigger::Window);
        assert_eq!(versions[1].trigger, RefitTrigger::Drift);
    }

    #[test]
    fn readers_holding_an_old_version_survive_a_swap() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(fitted(20.0), 10, RefitTrigger::Window);
        let held = reg.current().unwrap();
        reg.publish(fitted(32.0), 20, RefitTrigger::Window);
        // The old Arc keeps predicting from the old fit.
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);
        let old = held.model.predict(&server, &wl).unwrap().mrt_ms;
        let new = reg
            .current()
            .unwrap()
            .model
            .predict(&server, &wl)
            .unwrap()
            .mrt_ms;
        assert!(old < new);
        assert_eq!(held.version, 1);
    }

    #[test]
    fn rewind_restarts_numbering_without_breaking_live_readers() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(fitted(20.0), 10, RefitTrigger::Window);
        reg.publish(fitted(32.0), 20, RefitTrigger::Drift);
        let held = reg.current().unwrap();
        reg.rewind();
        // The retired current keeps serving until the rebuild publishes.
        assert_eq!(reg.version(), 2);
        assert!(reg.versions().is_empty());
        assert_eq!(held.version, 2);
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);
        assert!(held.model.predict(&server, &wl).is_ok());
        // Rebuilding restarts numbering at 1 — the property that makes a
        // rolled-back follower's registry byte-identical to the primary's.
        assert_eq!(reg.publish(fitted(20.0), 10, RefitTrigger::Window), 1);
        assert_eq!(reg.version(), 1);
        assert_eq!(reg.versions().len(), 1);
        // Generations keep counting through the rewind.
        assert_eq!(reg.generation(), 3);
        assert_eq!(reg.versions()[0].generation, 3);
    }

    #[test]
    fn cache_misses_after_a_rollback_republishes_the_same_number() {
        let reg = Arc::new(ModelRegistry::new());
        let cache = perfpred_core::PredictionCache::new(RegistryModel::new(Arc::clone(&reg)));
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);

        assert_eq!(reg.publish(fitted(20.0), 10, RefitTrigger::Window), 1);
        let divergent = cache.predict(&server, &wl).unwrap();

        // Roll back and rebuild a different fit under the same number.
        reg.rewind();
        assert_eq!(reg.publish(fitted(32.0), 10, RefitTrigger::Window), 1);
        let expect = fitted(32.0).predict(&server, &wl).unwrap();
        let served = cache.predict(&server, &wl).unwrap();
        assert_ne!(divergent.mrt_ms, expect.mrt_ms);
        assert_eq!(
            served, expect,
            "the cache answered from the discarded history's version 1"
        );
    }

    #[test]
    fn concurrent_readers_and_publishers_do_not_tear() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(fitted(20.0), 1, RefitTrigger::Seed);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let model = RegistryModel::new(reg);
                let server = ServerArch::app_serv_f();
                let wl = Workload::typical(150);
                let mut last = 0.0;
                while !stop.load(Ordering::Relaxed) {
                    let p = model.predict(&server, &wl).unwrap();
                    assert!(p.mrt_ms.is_finite() && p.mrt_ms > 0.0);
                    last = p.mrt_ms;
                }
                last
            }));
        }
        for i in 0..50 {
            reg.publish(fitted(20.0 + i as f64), i, RefitTrigger::Window);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.version(), 51);
    }
}
