//! Consistent-hash ring with bounded-load spill for the router tier.
//!
//! Upstreams are placed on a 64-bit ring at `vnodes` pseudo-random
//! points each (FNV-1a of `"{addr}#{replica}"`, mixed through
//! splitmix64). A request key — the server-config name extracted from
//! the request — hashes to a point, and the ring walks clockwise to the
//! first upstream that is (a) admitted and (b) under its load cap.
//!
//! The cap is the "bounded load" rule of consistent-hashing-with-bounded
//! -loads: with `n` live upstreams carrying `total` in-flight requests,
//! no upstream may hold more than `ceil(c · (total + 1) / n)` of them
//! (`c` = 1.25 by default). Hot keys spill to their successor instead of
//! melting one node, while cold keys keep perfect affinity — which is
//! what keeps each serve node's prediction cache warm for the server
//! configs it owns.

use perfpred_core::faults::splitmix64;

/// One upstream's routing view.
#[derive(Debug, Clone)]
struct Point {
    hash: u64,
    upstream: usize,
}

/// A consistent-hash ring over upstream indices `0..n`.
#[derive(Debug)]
pub struct Ring {
    points: Vec<Point>,
    upstreams: usize,
    load_factor: f64,
}

/// FNV-1a 64-bit over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Ring {
    /// Builds a ring over `names` (typically upstream addresses) with
    /// `vnodes` points each. `load_factor` is the bounded-load `c`
    /// (values ≤ 1.0 disable spill entirely — pure consistent hashing).
    pub fn new(names: &[String], vnodes: usize, load_factor: f64) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (upstream, name) in names.iter().enumerate() {
            for replica in 0..vnodes {
                let hash = splitmix64(fnv1a64(format!("{name}#{replica}").as_bytes()));
                points.push(Point { hash, upstream });
            }
        }
        points.sort_by_key(|p| p.hash);
        Ring {
            points,
            upstreams: names.len(),
            load_factor,
        }
    }

    /// Number of upstreams the ring was built over.
    pub fn len(&self) -> usize {
        self.upstreams
    }

    /// True when the ring has no upstreams.
    pub fn is_empty(&self) -> bool {
        self.upstreams == 0
    }

    /// Routes `key` to an upstream index. `admitted[i]` marks live
    /// upstreams; `loads[i]` is each upstream's current in-flight count.
    /// Returns `None` only when no upstream is admitted.
    ///
    /// The walk is two-pass: first clockwise honoring the load cap, then
    /// (all admitted upstreams at cap — possible because loads move under
    /// us) clockwise ignoring it. Affinity degrades before availability.
    pub fn route(&self, key: &str, admitted: &[bool], loads: &[usize]) -> Option<usize> {
        debug_assert_eq!(admitted.len(), self.upstreams);
        debug_assert_eq!(loads.len(), self.upstreams);
        let live = admitted.iter().filter(|&&a| a).count();
        if live == 0 || self.points.is_empty() {
            return None;
        }
        let total: usize = admitted
            .iter()
            .zip(loads)
            .filter(|(&a, _)| a)
            .map(|(_, &l)| l)
            .sum();
        let cap = if self.load_factor <= 1.0 {
            usize::MAX
        } else {
            (self.load_factor * (total as f64 + 1.0) / live as f64).ceil() as usize
        };
        let target = splitmix64(fnv1a64(key.as_bytes()));
        let start = self.points.partition_point(|p| p.hash < target);
        let walk = |respect_cap: bool| -> Option<usize> {
            for i in 0..self.points.len() {
                let p = &self.points[(start + i) % self.points.len()];
                if !admitted[p.upstream] {
                    continue;
                }
                if respect_cap && loads[p.upstream] >= cap {
                    continue;
                }
                return Some(p.upstream);
            }
            None
        };
        walk(true).or_else(|| walk(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn routing_is_deterministic_and_roughly_balanced() {
        let ring = Ring::new(&names(3), 64, 1.25);
        let admitted = vec![true; 3];
        let loads = vec![0usize; 3];
        let mut counts = [0usize; 3];
        for i in 0..3000 {
            let key = format!("AppServF-{i}");
            let a = ring.route(&key, &admitted, &loads).unwrap();
            let b = ring.route(&key, &admitted, &loads).unwrap();
            assert_eq!(a, b, "same key, same upstream");
            counts[a] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((500..1800).contains(&c), "upstream {i} got {c} of 3000");
        }
    }

    #[test]
    fn keys_mostly_stay_put_when_an_upstream_is_ejected() {
        let ring = Ring::new(&names(3), 64, 1.25);
        let all = vec![true; 3];
        let loads = vec![0usize; 3];
        let mut moved = 0;
        let mut total = 0;
        for i in 0..2000 {
            let key = format!("srv-{i}");
            let before = ring.route(&key, &all, &loads).unwrap();
            let mut without = all.clone();
            without[2] = false;
            let after = ring.route(&key, &without, &loads).unwrap();
            assert_ne!(after, 2, "ejected upstream must not be chosen");
            if before != 2 {
                total += 1;
                if before != after {
                    moved += 1;
                }
            }
        }
        // Consistent hashing: keys not owned by the ejected node stay.
        assert_eq!(moved, 0, "{moved} of {total} unaffected keys moved");
    }

    #[test]
    fn bounded_load_spills_hot_keys() {
        let ring = Ring::new(&names(3), 64, 1.25);
        let admitted = vec![true; 3];
        let home = ring.route("hot-key", &admitted, &[0; 3]).unwrap();
        // Pile load on the home node: the same key must spill elsewhere.
        let mut loads = vec![0usize; 3];
        loads[home] = 100;
        let spilled = ring.route("hot-key", &admitted, &loads).unwrap();
        assert_ne!(spilled, home, "over-cap upstream must spill");
        // With the cap disabled (c <= 1), affinity is absolute.
        let pure = Ring::new(&names(3), 64, 1.0);
        let h = pure.route("hot-key", &admitted, &[0; 3]).unwrap();
        assert_eq!(pure.route("hot-key", &admitted, &loads).unwrap(), h);
    }

    #[test]
    fn no_admitted_upstreams_routes_nowhere() {
        let ring = Ring::new(&names(2), 16, 1.25);
        assert_eq!(ring.route("k", &[false, false], &[0, 0]), None);
        assert!(Ring::new(&[], 16, 1.25).is_empty());
    }
}
