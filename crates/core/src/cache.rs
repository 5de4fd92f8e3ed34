//! A sharded, memoizing prediction cache.
//!
//! The paper's §8.5 timing comparison is the motivation: a layered queuing
//! solve can cost seconds at tight convergence criteria while the
//! historical method answers in microseconds. The resource manager's
//! Algorithm 1 and the slack sweeps of §8.4 evaluate the *same*
//! (server, workload) operating points over and over — every slack value
//! re-walks the same load grid, and the allocation search re-probes
//! neighbouring client counts. [`PredictionCache`] wraps any
//! [`PerformanceModel`] and memoizes `predict` results behind sharded
//! `RwLock` hash maps so concurrent sweep workers share answers instead of
//! re-solving.
//!
//! ## Keying and quantization
//!
//! A cache key captures everything `predict` sees: the server name plus,
//! per service class, the class name, request type, think time and SLA
//! goal (both at full `f64` bit precision) and the client count. Client
//! counts can optionally be *quantized* to a multiple of
//! [`CacheOptions::client_quantum`]; the miss path then solves the
//! quantized workload, so a lookup and the solve it memoizes always agree.
//! The default quantum of 1 makes the cache **exact**: a cached sweep is
//! bit-for-bit identical to an uncached one, which the `repro` binary
//! asserts for the fig 5–8 and cost experiments.
//!
//! ## Invalidation and bounded memory
//!
//! Entries never expire on their own — the wrapped models are pure
//! functions of their calibration data. If the underlying model is
//! re-calibrated, call [`PredictionCache::clear`] (or drop the cache and
//! wrap the new model). Models that are *continuously* re-calibrated (the
//! serve daemon's registry-backed historical model) instead report a
//! [`PerformanceModel::model_version`], which every key carries: a
//! publish makes all entries memoized under older versions unreachable at
//! once, without flushing in-flight work — a request already past its
//! lookup keeps the version it started with, and stale entries simply age
//! out of the LRU. Hit/miss counts are exposed both per-cache
//! ([`PredictionCache::stats`]) and through the [`crate::metrics`]
//! registry as `predcache.hits` / `predcache.misses` — the registry of the
//! scope the cache was built in, whose handles it resolves once.
//!
//! By default the cache grows without bound, which is exactly right for a
//! batch sweep (bit-identical repro runs, every point kept) and exactly
//! wrong for a long-running daemon. [`CacheOptions::capacity`] caps the
//! total entry count: each shard then tracks per-entry recency and evicts
//! its least-recently-used entries in small batches when it overflows its
//! slice of the budget (approximate sharded LRU — recency is exact per
//! entry, but eviction only consults the overflowing shard).

use crate::error::PredictError;
use crate::metrics;
use crate::model::{PerformanceModel, Prediction};
use crate::server::ServerArch;
use crate::workload::{RequestType, Workload};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Tuning knobs for [`PredictionCache`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheOptions {
    /// Number of independent lock shards. More shards mean less contention
    /// between parallel sweep workers; the default (16) comfortably covers
    /// the harness's worker counts.
    pub shards: usize,
    /// Client counts are rounded to the nearest multiple of this quantum
    /// before keying *and* solving. `1` (the default) keys exactly and
    /// guarantees bit-identical results; larger quanta trade accuracy for
    /// hit rate on dense load grids.
    pub client_quantum: u32,
    /// Upper bound on memoized entries across all shards; `None` (the
    /// default) never evicts, which keeps repro sweeps bit-identical. Set
    /// for long-running processes (the serving daemon) so an adversarial
    /// or merely enormous key-space cannot grow memory without bound.
    pub capacity: Option<usize>,
}

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions {
            shards: 16,
            client_quantum: 1,
            capacity: None,
        }
    }
}

/// Hit/miss totals for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Predictions served from memory.
    pub hits: u64,
    /// Predictions that required an underlying model solve.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of requests served from memory (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One service class inside a cache key: name, type, think time, goal and
/// (quantized) population, floats captured at bit precision.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClassKey {
    name: String,
    request_type: RequestType,
    think_bits: u64,
    goal_bits: Option<u64>,
    clients: u32,
}

/// Full cache key: the model version the entry was solved under, the
/// server identity, and the per-class workload shape (which also pins
/// down totals like buy-% exactly).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    version: u64,
    server: String,
    classes: Vec<ClassKey>,
}

impl Key {
    fn new(version: u64, server: &ServerArch, workload: &Workload, quantum: u32) -> Key {
        Key {
            version,
            server: server.name.clone(),
            classes: workload
                .classes
                .iter()
                .map(|c| ClassKey {
                    name: c.class.name.clone(),
                    request_type: c.class.request_type,
                    think_bits: c.class.think_time_ms.to_bits(),
                    goal_bits: c.class.rt_goal_ms.map(f64::to_bits),
                    clients: quantize(c.clients, quantum),
                })
                .collect(),
        }
    }

    fn shard(&self, shards: usize) -> usize {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        (h.finish() as usize) % shards
    }
}

fn quantize(clients: u32, quantum: u32) -> u32 {
    if quantum <= 1 {
        return clients;
    }
    let q = u64::from(quantum);
    let rounded = (u64::from(clients) + q / 2) / q * q;
    // Never quantize a live class down to zero clients.
    if rounded == 0 && clients > 0 {
        quantum
    } else {
        rounded.min(u64::from(u32::MAX)) as u32
    }
}

/// One memoized prediction plus the recency stamp eviction consults.
struct Entry {
    result: Result<Prediction, PredictError>,
    /// Tick of the last lookup that touched this entry. Atomic so the hit
    /// path can refresh recency under the shard's *read* lock.
    last_used: AtomicU64,
}

/// A concurrent memoizing wrapper around any [`PerformanceModel`].
///
/// Implements [`PerformanceModel`] itself, so it drops into every consumer
/// — the resource manager, slack sweeps, the bench harness — unchanged.
/// Wrap by value or by reference (`PredictionCache::new(&model)` works via
/// the blanket `impl PerformanceModel for &M`).
pub struct PredictionCache<M: PerformanceModel> {
    inner: M,
    name: String,
    options: CacheOptions,
    shards: Vec<RwLock<HashMap<Key, Entry>>>,
    /// Logical clock for LRU stamps: bumped once per lookup/insert.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    /// `predcache.*` handles, resolved once in the metrics scope the
    /// cache is built in, so a hit or miss pays no registry lookup.
    counters: CacheCounters,
}

/// Registry counters shared by every cache built in one metrics scope.
struct CacheCounters {
    hits: Arc<metrics::Counter>,
    misses: Arc<metrics::Counter>,
    evictions: Arc<metrics::Counter>,
}

impl<M: PerformanceModel> PredictionCache<M> {
    /// Wraps `inner` with the default options (16 shards, exact keying).
    pub fn new(inner: M) -> Self {
        Self::with_options(inner, CacheOptions::default())
    }

    /// Wraps `inner` with explicit options.
    pub fn with_options(inner: M, options: CacheOptions) -> Self {
        let shard_count = options.shards.max(1);
        let name = format!("{}+cache", inner.method_name());
        PredictionCache {
            inner,
            name,
            options,
            shards: (0..shard_count)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            counters: CacheCounters {
                hits: metrics::counter("predcache.hits"),
                misses: metrics::counter("predcache.misses"),
                evictions: metrics::counter("predcache.evictions"),
            },
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Hit/miss totals since construction (or the last [`clear`]).
    ///
    /// [`clear`]: PredictionCache::clear
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard lock").len())
            .sum()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized entry and zeroes the stats. Call after
    /// re-calibrating the wrapped model.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("cache shard lock").clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// The workload the cache actually keys and solves: `workload` itself
    /// under exact keying, the client-quantized copy otherwise. External
    /// solvers (see [`insert`]) must solve *this* workload so lookups and
    /// memoized results agree.
    ///
    /// [`insert`]: PredictionCache::insert
    pub fn quantized<'w>(&self, workload: &'w Workload) -> std::borrow::Cow<'w, Workload> {
        if self.options.client_quantum <= 1 {
            return std::borrow::Cow::Borrowed(workload);
        }
        let mut quantized = workload.clone();
        for c in &mut quantized.classes {
            c.clients = quantize(c.clients, self.options.client_quantum);
        }
        std::borrow::Cow::Owned(quantized)
    }

    /// Looks up a memoized prediction without ever invoking the wrapped
    /// model. `Some` counts as a hit; `None` counts nothing — follow it
    /// with [`PerformanceModel::predict`], whose miss path re-peeks,
    /// solves and memoizes (the serving daemon peeks on a reactor shard
    /// and solves on a dispatcher), or with [`insert`] after solving the
    /// miss externally.
    ///
    /// [`insert`]: PredictionCache::insert
    pub fn peek(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Option<Result<Prediction, PredictError>> {
        let key = Key::new(
            self.model_version(),
            server,
            workload,
            self.options.client_quantum,
        );
        let found = self.lookup(&key);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.counters.hits.incr();
        }
        found
    }

    /// Memoizes an externally computed prediction for `(server, workload)`
    /// and counts it as a miss. The result must be the wrapped model's
    /// answer for [`quantized`]`(workload)` — handing the cache anything
    /// else breaks the lookup/solve agreement the quantization contract
    /// guarantees.
    ///
    /// [`quantized`]: PredictionCache::quantized
    pub fn insert(
        &self,
        server: &ServerArch,
        workload: &Workload,
        result: Result<Prediction, PredictError>,
    ) {
        let key = Key::new(
            self.model_version(),
            server,
            workload,
            self.options.client_quantum,
        );
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.counters.misses.incr();
        self.store(key, result);
    }

    /// Hit-path lookup: stamps recency under the shard's read lock.
    fn lookup(&self, key: &Key) -> Option<Result<Prediction, PredictError>> {
        let shard = &self.shards[key.shard(self.shards.len())];
        let map = shard.read().expect("cache shard lock");
        let entry = map.get(key)?;
        entry
            .last_used
            .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        Some(entry.result.clone())
    }

    /// Miss-path store: inserts and, when a capacity is configured, evicts
    /// the shard's least-recently-used entries once it overflows its slice
    /// of the budget.
    fn store(&self, key: Key, result: Result<Prediction, PredictError>) {
        let shard = &self.shards[key.shard(self.shards.len())];
        let mut map = shard.write().expect("cache shard lock");
        map.insert(
            key,
            Entry {
                result,
                last_used: AtomicU64::new(self.tick.fetch_add(1, Ordering::Relaxed)),
            },
        );
        if let Some(capacity) = self.options.capacity {
            let per_shard = capacity.max(1).div_ceil(self.shards.len());
            if map.len() > per_shard {
                // Batch eviction amortizes the recency scan: drop the
                // oldest eighth (at least the overflow) in one pass.
                // Stamps are unique ticks, so the batch-th smallest is a
                // cutoff that selects exactly the `batch` oldest entries,
                // found without sorting or cloning any key.
                let excess = map.len() - per_shard;
                let batch = excess.max(per_shard / 8).max(1);
                let mut stamps: Vec<u64> = map
                    .values()
                    .map(|e| e.last_used.load(Ordering::Relaxed))
                    .collect();
                let cutoff = *stamps.select_nth_unstable(batch - 1).1;
                map.retain(|_, e| e.last_used.load(Ordering::Relaxed) > cutoff);
                self.counters.evictions.add(batch as u64);
            }
        }
    }
}

impl<M: PerformanceModel> PerformanceModel for PredictionCache<M> {
    fn method_name(&self) -> &str {
        &self.name
    }

    fn predict(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Result<Prediction, PredictError> {
        let key = Key::new(
            self.model_version(),
            server,
            workload,
            self.options.client_quantum,
        );
        if let Some(cached) = self.lookup(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.counters.hits.incr();
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.counters.misses.incr();
        // Solve the workload the key describes, so quantized lookups and
        // the memoized result always agree.
        let result = self.inner.predict(server, &self.quantized(workload));
        // Errors are memoized too: a point the model rejects once it will
        // reject every time (models are pure).
        self.store(key, result.clone());
        result
    }

    fn supports_direct_percentiles(&self) -> bool {
        self.inner.supports_direct_percentiles()
    }

    /// The wrapped model's version — the one stamped into new keys.
    fn model_version(&self) -> u64 {
        self.inner.model_version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use std::sync::atomic::AtomicUsize;

    /// Counts how many times `predict` actually runs.
    struct CountingModel {
        solves: AtomicUsize,
        version: AtomicU64,
    }

    impl CountingModel {
        fn new() -> Self {
            CountingModel {
                solves: AtomicUsize::new(0),
                version: AtomicU64::new(0),
            }
        }
        fn solve_count(&self) -> usize {
            self.solves.load(Ordering::SeqCst)
        }
    }

    impl PerformanceModel for CountingModel {
        fn method_name(&self) -> &str {
            "counting"
        }
        fn predict(
            &self,
            _server: &ServerArch,
            workload: &Workload,
        ) -> Result<Prediction, PredictError> {
            self.solves.fetch_add(1, Ordering::SeqCst);
            let n = f64::from(workload.total_clients());
            if n > 10_000.0 {
                return Err(PredictError::OutOfRange("too many clients".into()));
            }
            Ok(Prediction::single_class(10.0 + 0.1 * n, n / 7.0, false))
        }
        fn model_version(&self) -> u64 {
            self.version.load(Ordering::SeqCst)
        }
    }

    fn server() -> ServerArch {
        ServerArch::app_serv_f()
    }

    #[test]
    fn repeated_predictions_hit_the_cache() {
        let cache = PredictionCache::new(CountingModel::new());
        let w = Workload::typical(500);
        let first = cache.predict(&server(), &w).unwrap();
        for _ in 0..9 {
            let again = cache.predict(&server(), &w).unwrap();
            assert_eq!(again, first);
        }
        assert_eq!(cache.inner().solve_count(), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert!((stats.hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn distinct_points_miss_independently() {
        let cache = PredictionCache::new(CountingModel::new());
        for n in [100, 200, 300] {
            cache.predict(&server(), &Workload::typical(n)).unwrap();
        }
        // A different server is a different key even at equal load.
        cache
            .predict(&ServerArch::app_serv_vf(), &Workload::typical(100))
            .unwrap();
        // So is a different class mix at equal total population.
        cache
            .predict(&server(), &Workload::with_buy_pct(100, 50.0))
            .unwrap();
        assert_eq!(cache.inner().solve_count(), 5);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn exact_keying_matches_uncached_bit_for_bit() {
        let raw = CountingModel::new();
        let cache = PredictionCache::new(CountingModel::new());
        for n in (1..=50).chain(1..=50) {
            let w = Workload::typical(n * 37);
            let direct = raw.predict(&server(), &w).unwrap();
            let cached = cache.predict(&server(), &w).unwrap();
            assert_eq!(direct.mrt_ms.to_bits(), cached.mrt_ms.to_bits());
            assert_eq!(
                direct.throughput_rps.to_bits(),
                cached.throughput_rps.to_bits()
            );
        }
        assert_eq!(cache.inner().solve_count(), 50);
    }

    #[test]
    fn errors_are_memoized() {
        let cache = PredictionCache::new(CountingModel::new());
        let w = Workload::typical(20_000);
        assert!(cache.predict(&server(), &w).is_err());
        assert!(cache.predict(&server(), &w).is_err());
        assert_eq!(cache.inner().solve_count(), 1);
    }

    #[test]
    fn quantized_lookup_and_solve_agree() {
        let cache = PredictionCache::with_options(
            CountingModel::new(),
            CacheOptions {
                shards: 4,
                client_quantum: 50,
                ..Default::default()
            },
        );
        // 101, 120 and 80 all round to 100: one solve, identical answers.
        let a = cache.predict(&server(), &Workload::typical(101)).unwrap();
        let b = cache.predict(&server(), &Workload::typical(120)).unwrap();
        let c = cache.predict(&server(), &Workload::typical(80)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(cache.inner().solve_count(), 1);
        // The memoized prediction is the one for the quantized population.
        assert!((a.mrt_ms - 20.0).abs() < 1e-12);
        // A live class never quantizes to zero clients.
        let tiny = cache.predict(&server(), &Workload::typical(3)).unwrap();
        assert!(tiny.mrt_ms > 10.0);
    }

    #[test]
    fn clear_invalidates_and_zeroes_stats() {
        let cache = PredictionCache::new(CountingModel::new());
        let w = Workload::typical(10);
        cache.predict(&server(), &w).unwrap();
        cache.predict(&server(), &w).unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
        cache.predict(&server(), &w).unwrap();
        assert_eq!(cache.inner().solve_count(), 2);
    }

    #[test]
    fn wraps_borrowed_models() {
        let inner = CountingModel::new();
        let cache = PredictionCache::new(&inner);
        let w = Workload::typical(42);
        cache.predict(&server(), &w).unwrap();
        cache.predict(&server(), &w).unwrap();
        assert_eq!(inner.solve_count(), 1);
        assert_eq!(cache.method_name(), "counting+cache");
    }

    #[test]
    fn concurrent_sweep_workers_share_entries() {
        let cache = PredictionCache::new(CountingModel::new());
        let loads: Vec<u32> = (1..=40).map(|i| i * 25).collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for &n in &loads {
                        cache.predict(&server(), &Workload::typical(n)).unwrap();
                    }
                });
            }
        });
        // Racing workers may duplicate a solve for the same key, but the
        // map converges to one entry per point.
        assert_eq!(cache.len(), loads.len());
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * loads.len() as u64);
        assert!(stats.hits >= (8 - 2) * loads.len() as u64);
    }

    #[test]
    fn capacity_bounds_total_entries() {
        // A metrics scope keeps the eviction-counter assertion immune to
        // concurrent tests resetting the global registry.
        let scope = metrics::Scope::new();
        let _guard = scope.enter();
        let cache = PredictionCache::with_options(
            CountingModel::new(),
            CacheOptions {
                shards: 4,
                capacity: Some(64),
                ..Default::default()
            },
        );
        for n in 1..=1_000u32 {
            cache.predict(&server(), &Workload::typical(n)).unwrap();
        }
        // Per-shard budget is 64/4 = 16; a shard may transiently hold one
        // extra entry before its eviction pass runs, never more.
        assert!(cache.len() <= 64 + 4, "len {}", cache.len());
        assert!(cache.len() >= 16, "len {}", cache.len());
        assert!(metrics::snapshot().counter("predcache.evictions") > 0);
    }

    #[test]
    fn eviction_prefers_cold_entries() {
        let cache = PredictionCache::with_options(
            CountingModel::new(),
            CacheOptions {
                shards: 1,
                capacity: Some(32),
                ..Default::default()
            },
        );
        let hot = Workload::typical(7);
        cache.predict(&server(), &hot).unwrap();
        // Keep the hot key fresh while a cold stream churns the shard.
        for n in 100..400u32 {
            cache.predict(&server(), &Workload::typical(n)).unwrap();
            cache.predict(&server(), &hot).unwrap();
        }
        let solves_before = cache.inner().solve_count();
        cache.predict(&server(), &hot).unwrap();
        assert_eq!(
            cache.inner().solve_count(),
            solves_before,
            "hot key was evicted despite constant use"
        );
        assert!(cache.len() <= 33);
    }

    #[test]
    fn unbounded_default_never_evicts() {
        let cache = PredictionCache::new(CountingModel::new());
        for n in 1..=500u32 {
            cache.predict(&server(), &Workload::typical(n)).unwrap();
        }
        assert_eq!(cache.len(), 500);
    }

    #[test]
    fn peek_and_insert_roundtrip_with_quantization() {
        let cache = PredictionCache::with_options(
            CountingModel::new(),
            CacheOptions {
                client_quantum: 10,
                ..Default::default()
            },
        );
        let w = Workload::typical(97);
        assert!(cache.peek(&server(), &w).is_none());
        // External solver path: solve the quantized workload, hand the
        // result back, and expect bit-identical hits from then on.
        let solved = cache.quantized(&w);
        assert_eq!(solved.total_clients(), 100);
        let result = cache.inner().predict(&server(), &solved);
        cache.insert(&server(), &w, result.clone());
        let via_peek = cache.peek(&server(), &w).expect("inserted");
        assert_eq!(via_peek, result);
        // A neighbouring population quantizing to the same key also hits.
        let near = cache.peek(&server(), &Workload::typical(103)).expect("hit");
        assert_eq!(near, result);
        // predict() agrees with the externally inserted entry.
        assert_eq!(cache.predict(&server(), &w), result);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn quantized_borrows_under_exact_keying() {
        let cache = PredictionCache::new(CountingModel::new());
        let w = Workload::typical(42);
        assert!(matches!(cache.quantized(&w), std::borrow::Cow::Borrowed(_)));
    }

    #[test]
    fn concurrent_quantized_access_is_bit_identical_to_serial() {
        // Satellite check: hammer one key-space from 8 threads with
        // client_quantum > 1 and assert every returned prediction is
        // bit-identical to a serial solve of the quantized workload.
        let opts = CacheOptions {
            shards: 4,
            client_quantum: 25,
            ..Default::default()
        };
        let cache = PredictionCache::with_options(CountingModel::new(), opts);
        let serial = CountingModel::new();
        let loads: Vec<u32> = (1..=200).collect();
        std::thread::scope(|s| {
            let cache = &cache;
            let serial = &serial;
            let loads = &loads;
            for t in 0..8 {
                s.spawn(move || {
                    // Each thread walks the key-space from a different
                    // offset so hits and misses interleave.
                    for i in 0..loads.len() {
                        let n = loads[(i + t * 37) % loads.len()];
                        let w = Workload::typical(n);
                        let got = cache.predict(&server(), &w).unwrap();
                        let expect = serial.predict(&server(), &cache.quantized(&w)).unwrap();
                        assert_eq!(got.mrt_ms.to_bits(), expect.mrt_ms.to_bits());
                        assert_eq!(
                            got.throughput_rps.to_bits(),
                            expect.throughput_rps.to_bits()
                        );
                        assert_eq!(got.per_class_mrt_ms, expect.per_class_mrt_ms);
                    }
                });
            }
        });
        // 200 loads quantize to multiples of 25: 1..=200 rounds to
        // {25, 50, ..., 200} — at most 8+1 distinct keys ever solved.
        assert!(cache.len() <= 9, "len {}", cache.len());
    }

    #[test]
    fn model_version_swap_invalidates_without_flushing() {
        let cache = PredictionCache::new(CountingModel::new());
        let w = Workload::typical(250);
        assert_eq!(cache.model_version(), 0);
        let v0 = cache.predict(&server(), &w).unwrap();
        assert_eq!(cache.inner().solve_count(), 1);

        // A hot swap: old entries become unreachable, nothing is flushed.
        cache.inner().version.store(3, Ordering::SeqCst);
        assert_eq!(cache.model_version(), 3);
        assert!(cache.peek(&server(), &w).is_none(), "stale hit after swap");
        let v3 = cache.predict(&server(), &w).unwrap();
        assert_eq!(cache.inner().solve_count(), 2, "swap must force a re-solve");
        assert_eq!(v0.mrt_ms.to_bits(), v3.mrt_ms.to_bits()); // same pure model
        assert_eq!(cache.len(), 2, "old entry survives until LRU evicts it");

        // In-flight work keyed under the old version can still land and be
        // read back under that version.
        cache.inner().version.store(0, Ordering::SeqCst);
        assert!(cache.peek(&server(), &w).is_some());
    }

    #[test]
    fn counters_land_in_the_scope_the_cache_was_built_in() {
        let built_in = metrics::Scope::new();
        let cache = {
            let _guard = built_in.enter();
            PredictionCache::new(CountingModel::new())
        };
        let elsewhere = metrics::Scope::new();
        let _guard = elsewhere.enter();
        let w = Workload::typical(50);
        let before = metrics::lookups_on_this_thread();
        cache.predict(&server(), &w).unwrap();
        cache.predict(&server(), &w).unwrap();
        assert!(cache.peek(&server(), &w).is_some());
        assert_eq!(
            metrics::lookups_on_this_thread(),
            before,
            "no registry lookups"
        );
        let snap = built_in.snapshot();
        assert_eq!(
            (
                snap.counter("predcache.hits"),
                snap.counter("predcache.misses")
            ),
            (2, 1)
        );
        assert!(elsewhere.snapshot().is_empty());
    }

    #[test]
    fn max_clients_goes_through_the_cache() {
        let cache = PredictionCache::new(CountingModel::new());
        let n1 = cache
            .max_clients(&server(), &Workload::typical(100), 100.0)
            .unwrap();
        let solves_once = cache.inner().solve_count();
        let n2 = cache
            .max_clients(&server(), &Workload::typical(100), 100.0)
            .unwrap();
        assert_eq!(n1, n2);
        // The second search re-walks memoized points only.
        assert_eq!(cache.inner().solve_count(), solves_once);
    }
}
