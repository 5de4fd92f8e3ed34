//! Seeded random streams and the sampling distributions the simulator
//! needs, implemented from scratch: a xoshiro256++ uniform source plus
//! inverse-transform / Box–Muller samplers.
//!
//! We deliberately do not use an external RNG here: the sweep harness needs
//! cloneable, cheaply derivable, bit-reproducible sub-streams, and the whole
//! generator is ~30 lines.

/// A deterministic random stream for one simulation component
/// (xoshiro256++, seeded via SplitMix64).
///
/// Sub-streams derived with [`SimRng::derive`] are statistically independent
/// for distinct stream ids, which lets a parallel sweep give every
/// (server, client-count) cell its own reproducible stream regardless of
/// execution order.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

/// SplitMix64 step, used to expand seeds and mix derived-stream ids —
/// the workspace's one copy, in `perfpred-core`.
///
/// Public because seed *derivation* elsewhere in the workspace (e.g. the
/// sweep harness giving every cell its own stream) should use a full
/// 64-bit bijective mix rather than ad-hoc affine arithmetic, whose
/// low-entropy outputs can collide after further seed arithmetic
/// downstream.
pub use perfpred_core::faults::splitmix64;

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // Expand the seed into four non-zero state words with SplitMix64,
        // per the xoshiro authors' recommendation.
        let mut s = seed;
        let mut state = [0u64; 4];
        for w in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(s);
        }
        SimRng { state, seed }
    }

    /// Derives an independent sub-stream identified by `stream`.
    pub fn derive(&self, stream: u64) -> SimRng {
        let mixed = splitmix64(self.seed ^ splitmix64(stream.wrapping_add(0xA5A5_A5A5)));
        SimRng::seed_from(mixed)
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in the half-open interval `[0, 1)` (53-bit resolution).
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in the open interval `(0, 1)` — safe for `ln`.
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, n)` via Lemire-style rejection; `n` must be
    /// > 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Exponentially distributed sample with the given mean (inverse
    /// transform). The case study's think times are exponential with mean
    /// 7000 ms (§3.1), and the layered queuing model assumes exponential
    /// processing times (§5).
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        -mean * self.uniform_open().ln()
    }

    /// Standard normal sample via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        let u1 = self.uniform_open();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal sample parameterised by the *target* mean and coefficient
    /// of variation of the resulting distribution (used for per-client
    /// session data sizes in the §7.2 caching extension).
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        assert!(mean > 0.0 && cv >= 0.0);
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.std_normal()).exp()
    }

    /// Samples an index with probability proportional to `weights`.
    pub fn choice_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty());
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            debug_assert!(w >= 0.0, "negative weight");
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1 // guard against floating-point round-off
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.uniform() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn derived_streams_differ_by_id() {
        let root = SimRng::seed_from(7);
        let mut s1 = root.derive(1);
        let mut s2 = root.derive(2);
        let mut s1b = root.derive(1);
        let a: Vec<f64> = (0..10).map(|_| s1.uniform()).collect();
        let b: Vec<f64> = (0..10).map(|_| s2.uniform()).collect();
        let c: Vec<f64> = (0..10).map(|_| s1b.uniform()).collect();
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn exp_mean_converges() {
        let mut rng = SimRng::seed_from(1);
        let n = 200_000;
        let mean = 7_000.0;
        let sum: f64 = (0..n).map(|_| rng.exp(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() / mean < 0.01,
            "sample mean {sample_mean} too far from {mean}"
        );
    }

    #[test]
    fn exp_is_nonnegative_and_finite() {
        let mut rng = SimRng::seed_from(2);
        for _ in 0..10_000 {
            let x = rng.exp(1.0);
            assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn std_normal_moments() {
        let mut rng = SimRng::seed_from(3);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.std_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn lognormal_hits_target_mean_and_cv() {
        let mut rng = SimRng::seed_from(4);
        let n = 200_000;
        let (target_mean, target_cv) = (8_192.0, 0.75);
        let samples: Vec<f64> = (0..n)
            .map(|_| rng.lognormal_mean_cv(target_mean, target_cv))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0);
        let cv = var.sqrt() / mean;
        assert!(
            (mean - target_mean).abs() / target_mean < 0.02,
            "mean {mean}"
        );
        assert!((cv - target_cv).abs() < 0.03, "cv {cv}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_zero_cv_is_deterministic() {
        let mut rng = SimRng::seed_from(5);
        assert_eq!(rng.lognormal_mean_cv(100.0, 0.0), 100.0);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SimRng::seed_from(6);
        let weights = [0.2, 0.5, 0.3];
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.choice_weighted(&weights)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - w).abs() < 0.01, "weight {i}: {freq} vs {w}");
        }
    }

    #[test]
    fn weighted_choice_zero_weight_never_chosen() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            assert_ne!(rng.choice_weighted(&[0.5, 0.0, 0.5]), 1);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(8);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn below_bounds() {
        let mut rng = SimRng::seed_from(9);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
        assert_eq!(rng.below(1), 0);
    }
}
