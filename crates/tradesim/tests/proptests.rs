//! Property-style tests for the simulated testbed, swept over
//! deterministic pseudo-random cases.

use perfpred_core::{ServerArch, Workload};
use perfpred_tradesim::cache::{Access, SessionCache};
use perfpred_tradesim::config::{GroundTruth, SimOptions};
use perfpred_tradesim::engine::TradeSim;
use perfpred_tradesim::slot::SlotPool;

/// Minimal xorshift64* generator for deterministic case sweeps.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn quick(seed: u64) -> SimOptions {
    // Short windows keep the property runs fast.
    SimOptions {
        seed,
        warmup_ms: 5_000.0,
        measure_ms: 40_000.0,
        ..Default::default()
    }
}

/// Simulated throughput never exceeds the server's CPU capacity nor the
/// closed-loop bound N/think, and utilisations stay in [0, 1].
#[test]
fn throughput_respects_physical_bounds() {
    let mut cases = Rng::new(0x75_0001);
    for _ in 0..12 {
        let seed = cases.next_u64();
        let clients = cases.int(50, 2_400) as u32;
        let server_pick = cases.int(0, 3) as usize;
        let gt = GroundTruth::default();
        let server = ServerArch::case_study_servers()[server_pick].clone();
        let r = TradeSim::new(&gt, &server, &Workload::typical(clients), &quick(seed)).run();
        let x = r.per_class[0].completed as f64 / (r.measure_ms / 1_000.0);
        // Completion *counts* can transiently beat the expected-capacity
        // rate: under a backlog, processor sharing finishes short requests
        // first, biasing the completed set toward small demands. The hard
        // physical bound is on *work*: utilisation ≤ 1 (asserted below).
        let cpu_cap = 1_000.0 / (gt.browse_app_demand_ms / server.speed_factor);
        assert!(x <= cpu_cap * 1.12, "X {x} above CPU cap {cpu_cap}");
        // The closed-loop rate N/E[think] is an *expectation*: with a short
        // window the realised mean think time wanders several percent.
        let loop_cap = f64::from(clients) * 1_000.0 / 7_000.0;
        assert!(
            x <= loop_cap * 1.15,
            "X {x} above closed-loop cap {loop_cap}"
        );
        assert!((0.0..=1.0).contains(&r.app_cpu_utilization[0]));
        assert!((0.0..=1.0).contains(&r.db_cpu_utilization));
        // Little's-law sanity: response times are positive and finite.
        assert!(r.per_class[0].rt.mean() > 0.0);
        assert!(r.per_class[0].rt.mean().is_finite());
    }
}

/// The same seed gives a bit-identical run.
#[test]
fn determinism() {
    let mut cases = Rng::new(0x75_0002);
    for _ in 0..4 {
        let seed = cases.next_u64();
        let clients = cases.int(50, 500) as u32;
        let gt = GroundTruth::default();
        let server = ServerArch::app_serv_f();
        let w = Workload::typical(clients);
        let a = TradeSim::new(&gt, &server, &w, &quick(seed)).run();
        let b = TradeSim::new(&gt, &server, &w, &quick(seed)).run();
        assert_eq!(a.per_class[0].rt.mean(), b.per_class[0].rt.mean());
        assert_eq!(a.per_class[0].completed, b.per_class[0].completed);
        assert_eq!(a.app_cpu_utilization, b.app_cpu_utilization);
    }
}

/// LRU cache: usage never exceeds capacity; resident count matches the
/// map; re-access of a resident key is always a hit.
#[test]
fn cache_invariants() {
    let mut rng = Rng::new(0x75_0003);
    for _ in 0..100 {
        let capacity = rng.int(1_000, 100_000);
        let n_ops = rng.int(1, 400) as usize;
        let mut cache = SessionCache::new(capacity);
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for _ in 0..n_ops {
            let key = rng.int(0, 64);
            let size = rng.int(1, 5_000);
            let was_resident = resident.contains(&key);
            let result = cache.access(key, size);
            if was_resident {
                assert_eq!(result, Access::Hit, "resident key missed");
            }
            assert!(cache.used_bytes() <= capacity, "over capacity");
            // Rebuild the resident set conservatively: eviction may drop
            // any key except (usually) the one just touched.
            if size <= capacity {
                resident.insert(key);
            } else {
                resident.remove(&key);
            }
            // Drop keys the cache no longer reports (len is authoritative).
            if resident.len() > cache.len() {
                resident.clear(); // cannot track evictions precisely; reset
            }
        }
        assert!(cache.hits() + cache.misses() > 0);
    }
}

/// Slot pool conservation: tokens out = tokens in, regardless of the
/// acquire/release interleaving and priorities.
#[test]
fn slot_pool_conserves_tokens() {
    let mut rng = Rng::new(0x75_0004);
    for _ in 0..100 {
        let limit = rng.int(1, 8) as usize;
        let n_ops = rng.int(1, 200) as usize;
        let mut pool: SlotPool<u64> = SlotPool::new(limit);
        let mut next_token = 0u64;
        let mut acquired = 0u64; // tokens granted a slot (immediately or later)
        let mut queued = 0u64;
        let mut released = 0u64;
        for _ in 0..n_ops {
            let is_acquire = rng.bool();
            let prio = rng.int(0, 4) as u32;
            if is_acquire {
                if pool.acquire_with_priority(next_token, prio) {
                    acquired += 1;
                } else {
                    queued += 1;
                }
                next_token += 1;
            } else if pool.in_use() > 0 {
                // Every release call ends one holder's tenancy …
                released += 1;
                if pool.release().is_some() {
                    // … and a hand-off starts a waiter's tenancy.
                    acquired += 1;
                    queued -= 1;
                }
            }
        }
        assert_eq!(pool.waiting() as u64, queued);
        assert_eq!(pool.in_use() as u64, acquired - released);
        assert!(pool.in_use() <= limit);
    }
}
