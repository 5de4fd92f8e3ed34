//! Deterministic fault injection for robustness testing.
//!
//! The serving stack's §9 promise — admission control that keeps answering
//! when predictions are wrong — only holds if the failure paths are
//! exercised. This module turns a `PERFPRED_FAULTS` spec into a
//! [`FaultPlan`] the daemon's injection points consult: the accept loop,
//! the layered-queuing solve and the observation store each ask "does
//! this fault fire now?" and the plan answers from a seeded splitmix64
//! stream, so a chaos run replays identically under the same seed.
//!
//! ## Spec grammar
//!
//! ```text
//! spec    := entry ("," entry)*
//! entry   := site "=" duration ":" "p" probability   (sites with a delay)
//!          | site ("=" | ":") "p" probability        (all sites)
//! site    := "solver_delay" | "store_io_err" | "accept_reset" | "conn_reset"
//!          | "repl_conn_drop" | "repl_partial_frame"
//! duration:= <float> ("us" | "ms" | "s")             (solver_delay only)
//! probability := <float in [0, 1]>
//! ```
//!
//! Example: `solver_delay=5ms:p0.1,store_io_err=p0.01,accept_reset=p0.05`
//! delays one in ten solver jobs by 5 ms, fails one in a hundred
//! observation-log appends, and resets one in twenty accepted connections.
//!
//! The seed comes from `PERFPRED_FAULT_SEED` (default 0). Each site draws
//! from its own counter-indexed stream, so the firing pattern at one site
//! does not depend on how often the other sites are consulted.
//!
//! ## Wiring
//!
//! Nothing fires unless a plan is installed: binaries call
//! [`init_from_env`] at startup, tests call [`install`] directly. The
//! fast path for the (usual) no-faults case is a single relaxed atomic
//! load. Components that must be testable in isolation (the observation
//! store) capture the active plan at construction instead of re-reading
//! the global on every call.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// Environment variable holding the fault spec.
pub const FAULTS_ENV: &str = "PERFPRED_FAULTS";
/// Environment variable holding the injection seed (default 0).
pub const FAULT_SEED_ENV: &str = "PERFPRED_FAULT_SEED";

/// An injection point the serving stack consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Sleep before each layered-queuing solve a serving dispatcher runs
    /// (models a slow or contended solver; takes a duration parameter).
    SolverDelay,
    /// Fail an observation-store ingest with an injected I/O error before
    /// anything is appended or folded (models a failing disk).
    StoreIoErr,
    /// Drop an accepted connection on the floor without a byte written
    /// (models a client or network reset at the accept boundary).
    AcceptReset,
    /// Reset an established connection mid-stream, from the read/write
    /// paths of the reactor's connection state machine (models a client
    /// vanishing between requests or mid-response).
    ConnReset,
    /// Drop a replication connection between frames (models a network
    /// partition between a primary and a follower; the follower
    /// reconnects and resumes from its applied offset).
    ReplConnDrop,
    /// Cut a replication frame short mid-write and then drop the
    /// connection (models a crash mid-send; the receiver must discard
    /// the partial frame rather than apply garbage).
    ReplPartialFrame,
}

/// All sites, in [`FaultSite::index`] order.
pub const SITES: [FaultSite; 6] = [
    FaultSite::SolverDelay,
    FaultSite::StoreIoErr,
    FaultSite::AcceptReset,
    FaultSite::ConnReset,
    FaultSite::ReplConnDrop,
    FaultSite::ReplPartialFrame,
];

impl FaultSite {
    /// The spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SolverDelay => "solver_delay",
            FaultSite::StoreIoErr => "store_io_err",
            FaultSite::AcceptReset => "accept_reset",
            FaultSite::ConnReset => "conn_reset",
            FaultSite::ReplConnDrop => "repl_conn_drop",
            FaultSite::ReplPartialFrame => "repl_partial_frame",
        }
    }

    /// Parses a spec-grammar name.
    pub fn parse(s: &str) -> Result<FaultSite, String> {
        SITES
            .iter()
            .copied()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = SITES.iter().map(|s| s.name()).collect();
                format!("unknown fault site '{s}' (known: {})", known.join(", "))
            })
    }

    /// True when the site accepts a `=duration` parameter.
    fn takes_duration(self) -> bool {
        matches!(self, FaultSite::SolverDelay)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::SolverDelay => 0,
            FaultSite::StoreIoErr => 1,
            FaultSite::AcceptReset => 2,
            FaultSite::ConnReset => 3,
            FaultSite::ReplConnDrop => 4,
            FaultSite::ReplPartialFrame => 5,
        }
    }
}

/// One armed injection point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Per-consultation firing probability in `[0, 1]`.
    pub probability: f64,
    /// The delay injected when the site fires (sites that take one).
    pub delay: Option<Duration>,
}

/// A parsed, seeded fault plan.
///
/// Draws are deterministic: site `s`'s `n`-th consultation fires iff
/// `splitmix64(seed ⊕ salt(s) ⊕ n)` maps below the site's probability —
/// independent of thread interleaving at *other* sites, and reproducible
/// across runs with the same seed and per-site consultation counts.
#[derive(Debug)]
pub struct FaultPlan {
    sites: [Option<SiteSpec>; SITES.len()],
    seed: u64,
    draws: [AtomicU64; SITES.len()],
}

/// SplitMix64 step: the workspace's one 64-bit bijective mixer. Fault
/// plans draw from it, the simulation kernel expands and derives seeds
/// with it (`perfpred_desim` re-exports it), and the cluster's hash ring
/// places its points with it.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_duration(raw: &str, entry: &str) -> Result<Duration, String> {
    let (number, scale_us) = if let Some(n) = raw.strip_suffix("us") {
        (n, 1.0)
    } else if let Some(n) = raw.strip_suffix("ms") {
        (n, 1_000.0)
    } else if let Some(n) = raw.strip_suffix('s') {
        (n, 1_000_000.0)
    } else {
        return Err(format!(
            "'{entry}': duration '{raw}' needs a us/ms/s suffix"
        ));
    };
    let value: f64 = number
        .parse()
        .map_err(|_| format!("'{entry}': cannot parse duration '{raw}'"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("'{entry}': duration must be non-negative"));
    }
    Ok(Duration::from_micros((value * scale_us) as u64))
}

impl FaultPlan {
    /// Parses a spec (see the module docs for the grammar) under `seed`.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut sites: [Option<SiteSpec>; SITES.len()] = [None; SITES.len()];
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            // The probability is the tail after the last ':' or '='.
            let (head, prob) = entry
                .rsplit_once([':', '='])
                .ok_or_else(|| format!("'{entry}': missing a p0.1-style probability"))?;
            let prob = prob
                .strip_prefix('p')
                .ok_or_else(|| format!("'{entry}': probability must look like p0.1"))?;
            let probability: f64 = prob
                .parse()
                .map_err(|_| format!("'{entry}': cannot parse probability '{prob}'"))?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!(
                    "'{entry}': probability must be in [0, 1], got {probability}"
                ));
            }
            let (site, delay) = match head.split_once('=') {
                None => (FaultSite::parse(head)?, None),
                Some((name, raw)) => {
                    let site = FaultSite::parse(name)?;
                    if !site.takes_duration() {
                        return Err(format!(
                            "'{entry}': site '{}' does not take a parameter",
                            site.name()
                        ));
                    }
                    (site, Some(parse_duration(raw, entry)?))
                }
            };
            let delay = match (site.takes_duration(), delay) {
                (true, None) => Some(Duration::from_millis(1)), // default 1 ms
                (_, d) => d,
            };
            if sites[site.index()].is_some() {
                return Err(format!("site '{}' appears twice", site.name()));
            }
            sites[site.index()] = Some(SiteSpec { probability, delay });
        }
        if sites.iter().all(Option::is_none) {
            return Err("fault spec is empty".into());
        }
        Ok(FaultPlan {
            sites,
            seed,
            draws: Default::default(),
        })
    }

    /// The armed spec for a site, if any.
    pub fn site(&self, site: FaultSite) -> Option<&SiteSpec> {
        self.sites[site.index()].as_ref()
    }

    /// One deterministic draw: does `site` fire on this consultation?
    pub fn fires(&self, site: FaultSite) -> bool {
        let Some(spec) = self.site(site) else {
            return false;
        };
        let n = self.draws[site.index()].fetch_add(1, Ordering::Relaxed);
        // Per-site salt keeps the streams independent.
        let salt = splitmix64(0xFA01 + site.index() as u64);
        let z = splitmix64(self.seed ^ salt ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        unit < spec.probability
    }

    /// Draws `site` and returns the injected delay when it fires.
    pub fn delay(&self, site: FaultSite) -> Option<Duration> {
        if self.fires(site) {
            self.site(site).and_then(|s| s.delay)
        } else {
            None
        }
    }

    /// A human-readable summary for startup logging.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for site in SITES {
            if let Some(spec) = self.site(site) {
                let delay = spec
                    .delay
                    .map(|d| format!("={:.1}ms", d.as_secs_f64() * 1e3))
                    .unwrap_or_default();
                parts.push(format!("{}{delay}:p{}", site.name(), spec.probability));
            }
        }
        parts.join(",")
    }
}

/// `true` only while a plan is installed — the no-faults fast path.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn slot() -> &'static RwLock<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Installs (or with `None`, clears) the process-wide plan. Tests in
/// shared binaries should prefer wiring a plan into the component under
/// test (e.g. `ObservationStore::with_faults`) over this global.
pub fn install(plan: Option<Arc<FaultPlan>>) {
    let enabled = plan.is_some();
    *slot().write().expect("fault plan lock") = plan;
    ENABLED.store(enabled, Ordering::Release);
}

/// Reads `PERFPRED_FAULTS` (+ `PERFPRED_FAULT_SEED`), installs the parsed
/// plan, and returns it. `Ok(None)` when the variable is unset or empty;
/// `Err` carries the parse failure for the binary to report.
pub fn init_from_env() -> Result<Option<Arc<FaultPlan>>, String> {
    let spec = match std::env::var(FAULTS_ENV) {
        Ok(s) if !s.trim().is_empty() => s,
        _ => return Ok(None),
    };
    let seed = match std::env::var(FAULT_SEED_ENV) {
        Ok(s) => s
            .trim()
            .parse()
            .map_err(|_| format!("{FAULT_SEED_ENV}: cannot parse '{s}'"))?,
        Err(_) => 0,
    };
    let plan = Arc::new(FaultPlan::parse(&spec, seed).map_err(|e| format!("{FAULTS_ENV}: {e}"))?);
    install(Some(Arc::clone(&plan)));
    Ok(Some(plan))
}

/// The installed plan, if any (one relaxed load when faults are off).
pub fn active() -> Option<Arc<FaultPlan>> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    slot().read().expect("fault plan lock").clone()
}

/// Draws `site` against the installed plan (never fires when none is).
pub fn fires(site: FaultSite) -> bool {
    active().is_some_and(|p| p.fires(site))
}

/// Draws `site` against the installed plan and returns the delay to
/// inject when it fires.
pub fn delay(site: FaultSite) -> Option<Duration> {
    active().and_then(|p| p.delay(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let plan = FaultPlan::parse(
            "solver_delay=5ms:p0.1,store_io_err=p0.01,accept_reset=p0.05",
            7,
        )
        .unwrap();
        let solver = plan.site(FaultSite::SolverDelay).unwrap();
        assert!((solver.probability - 0.1).abs() < 1e-12);
        assert_eq!(solver.delay, Some(Duration::from_millis(5)));
        let store = plan.site(FaultSite::StoreIoErr).unwrap();
        assert!((store.probability - 0.01).abs() < 1e-12);
        assert_eq!(store.delay, None);
        assert!(plan.site(FaultSite::AcceptReset).is_some());
        assert!(plan.render().contains("solver_delay"));
    }

    #[test]
    fn duration_suffixes_and_defaults() {
        let plan = FaultPlan::parse("solver_delay=250us:p1", 0).unwrap();
        assert_eq!(
            plan.site(FaultSite::SolverDelay).unwrap().delay,
            Some(Duration::from_micros(250))
        );
        let plan = FaultPlan::parse("solver_delay=1s:p1", 0).unwrap();
        assert_eq!(
            plan.site(FaultSite::SolverDelay).unwrap().delay,
            Some(Duration::from_secs(1))
        );
        // No parameter: the 1 ms default.
        let plan = FaultPlan::parse("solver_delay:p0.5", 0).unwrap();
        assert_eq!(
            plan.site(FaultSite::SolverDelay).unwrap().delay,
            Some(Duration::from_millis(1))
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "solver_delay",                        // no probability
            "solver_delay:0.1",                    // missing the p prefix
            "solver_delay:p1.5",                   // out of range
            "solver_delay:pNaN",                   // unparseable
            "frobnicate:p0.1",                     // unknown site
            "store_io_err=5ms:p0.1",               // parameter on a parameterless site
            "solver_delay=5:p0.1",                 // missing duration suffix
            "accept_reset:p0.1,accept_reset:p0.2", // duplicate
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn draws_are_deterministic_and_roughly_calibrated() {
        let a = FaultPlan::parse("store_io_err:p0.25", 42).unwrap();
        let b = FaultPlan::parse("store_io_err:p0.25", 42).unwrap();
        let pattern_a: Vec<bool> = (0..1000).map(|_| a.fires(FaultSite::StoreIoErr)).collect();
        let pattern_b: Vec<bool> = (0..1000).map(|_| b.fires(FaultSite::StoreIoErr)).collect();
        assert_eq!(pattern_a, pattern_b, "same seed, same pattern");
        let hits = pattern_a.iter().filter(|&&f| f).count();
        assert!((150..350).contains(&hits), "p0.25 over 1000 draws: {hits}");
        // A different seed moves the pattern.
        let c = FaultPlan::parse("store_io_err:p0.25", 43).unwrap();
        let pattern_c: Vec<bool> = (0..1000).map(|_| c.fires(FaultSite::StoreIoErr)).collect();
        assert_ne!(pattern_a, pattern_c);
        // Unarmed sites never fire; p0/p1 are exact.
        assert!(!a.fires(FaultSite::SolverDelay));
        let never = FaultPlan::parse("accept_reset:p0", 0).unwrap();
        let always = FaultPlan::parse("accept_reset:p1", 0).unwrap();
        for _ in 0..100 {
            assert!(!never.fires(FaultSite::AcceptReset));
            assert!(always.fires(FaultSite::AcceptReset));
        }
    }

    #[test]
    fn conn_reset_site_parses_and_draws() {
        let plan = FaultPlan::parse("conn_reset:p0.5", 11).unwrap();
        assert!(plan.site(FaultSite::ConnReset).is_some());
        let hits = (0..1000)
            .filter(|_| plan.fires(FaultSite::ConnReset))
            .count();
        assert!((350..650).contains(&hits), "p0.5 over 1000 draws: {hits}");
        // Parameterless: a duration is rejected.
        assert!(FaultPlan::parse("conn_reset=5ms:p0.1", 0).is_err());
        assert_eq!(plan.render(), "conn_reset:p0.5");
    }

    #[test]
    fn replication_sites_parse_and_draw() {
        let plan = FaultPlan::parse("repl_conn_drop:p0.5,repl_partial_frame:p0.5", 3).unwrap();
        assert!(plan.site(FaultSite::ReplConnDrop).is_some());
        assert!(plan.site(FaultSite::ReplPartialFrame).is_some());
        let drops = (0..1000)
            .filter(|_| plan.fires(FaultSite::ReplConnDrop))
            .count();
        assert!((350..650).contains(&drops), "p0.5 over 1000 draws: {drops}");
        // Parameterless: a duration is rejected.
        assert!(FaultPlan::parse("repl_conn_drop=5ms:p0.1", 0).is_err());
        assert!(FaultPlan::parse("repl_partial_frame=5ms:p0.1", 0).is_err());
        assert_eq!(plan.render(), "repl_conn_drop:p0.5,repl_partial_frame:p0.5");
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        let a = FaultPlan::parse("store_io_err:p0.5,accept_reset:p0.5", 9).unwrap();
        let b = FaultPlan::parse("store_io_err:p0.5,accept_reset:p0.5", 9).unwrap();
        // Interleave consultations differently: per-site patterns match.
        let mut store_a = Vec::new();
        let mut reset_a = Vec::new();
        for i in 0..200 {
            if i % 2 == 0 {
                store_a.push(a.fires(FaultSite::StoreIoErr));
            } else {
                reset_a.push(a.fires(FaultSite::AcceptReset));
            }
        }
        let store_b: Vec<bool> = (0..100).map(|_| b.fires(FaultSite::StoreIoErr)).collect();
        let reset_b: Vec<bool> = (0..100).map(|_| b.fires(FaultSite::AcceptReset)).collect();
        assert_eq!(store_a, store_b);
        assert_eq!(reset_a, reset_b);
    }
}
