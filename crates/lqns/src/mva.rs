//! Mean value analysis for closed multi-class queueing networks.
//!
//! Two solvers are provided:
//!
//! * [`solve_exact_single_chain`] — the textbook exact MVA recursion for a
//!   single closed chain over single-server queueing stations and delay
//!   stations; used as ground truth in tests and for small models;
//! * [`solve_amva`] — the Bard–Schweitzer approximate MVA fixed point for
//!   multiple chains, which is what the layered solver uses for its
//!   submodels. Multiserver stations are handled with the Seidmann
//!   transformation: an `m`-server station with per-chain demand `d`
//!   becomes a single queueing station with demand `d/m` plus a pure delay
//!   of `d·(m−1)/m`.
//!
//! Demands are *total per chain cycle* (visits × per-visit service time),
//! in milliseconds. Throughputs come back in cycles per millisecond.

use perfpred_core::PredictError;

/// How a station serves customers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StationKind {
    /// A queueing station with `servers` identical servers (FIFO or PS —
    /// identical mean values under MVA's assumptions).
    Queueing {
        /// Number of identical servers at the station.
        servers: u32,
    },
    /// An infinite server: customers never queue, only spend their demand.
    Delay,
}

/// A service station in a closed network.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    /// Station kind.
    pub kind: StationKind,
    /// Per-chain demand per cycle (visits × service time), ms.
    pub demands: Vec<f64>,
}

/// A closed multi-class queueing network.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedNetwork {
    /// Population of each chain (customers). Fractional populations are
    /// permitted (useful for derived submodels).
    pub populations: Vec<f64>,
    /// Per-chain think time (pure delay outside all stations), ms.
    pub think_ms: Vec<f64>,
    /// The stations.
    pub stations: Vec<Station>,
}

impl ClosedNetwork {
    /// Number of chains.
    pub fn n_chains(&self) -> usize {
        self.populations.len()
    }

    fn validate(&self) -> Result<(), PredictError> {
        let k = self.n_chains();
        if self.think_ms.len() != k {
            return Err(PredictError::InvalidModel(format!(
                "think_ms has {} entries for {} chains",
                self.think_ms.len(),
                k
            )));
        }
        for (i, s) in self.stations.iter().enumerate() {
            if s.demands.len() != k {
                return Err(PredictError::InvalidModel(format!(
                    "station {i} has {} demands for {} chains",
                    s.demands.len(),
                    k
                )));
            }
            if s.demands.iter().any(|d| !d.is_finite() || *d < 0.0) {
                return Err(PredictError::InvalidModel(format!(
                    "station {i} has a negative or non-finite demand"
                )));
            }
            if let StationKind::Queueing { servers: 0 } = s.kind {
                return Err(PredictError::InvalidModel(format!(
                    "station {i} has zero servers"
                )));
            }
        }
        if self
            .populations
            .iter()
            .chain(&self.think_ms)
            .any(|v| !v.is_finite() || *v < 0.0)
        {
            return Err(PredictError::InvalidModel(
                "negative or non-finite population/think time".into(),
            ));
        }
        Ok(())
    }
}

/// The solution of a closed network.
#[derive(Debug, Clone, PartialEq)]
pub struct MvaSolution {
    /// Residence time per chain per station (waiting + service, totalled
    /// over all visits in a cycle), ms. Indexed `[chain][station]`.
    pub residence_ms: Vec<Vec<f64>>,
    /// Response time per cycle per chain (sum of residences), ms.
    pub response_ms: Vec<f64>,
    /// Chain throughput, cycles per **millisecond**.
    pub throughput_per_ms: Vec<f64>,
    /// Mean number of chain-k customers at each station.
    pub queue_len: Vec<Vec<f64>>,
    /// Iterations used (1 for exact MVA).
    pub iterations: usize,
}

impl MvaSolution {
    /// Total utilisation of station `s` (Σ_k X_k·D_k,s / servers); delay
    /// stations report mean concurrency instead.
    pub fn utilization(&self, net: &ClosedNetwork, s: usize) -> f64 {
        let raw: f64 = (0..net.n_chains())
            .map(|k| self.throughput_per_ms[k] * net.stations[s].demands[k])
            .sum();
        match net.stations[s].kind {
            StationKind::Queueing { servers } => raw / f64::from(servers),
            StationKind::Delay => raw,
        }
    }
}

/// Exact MVA for one closed chain over single-server queueing and delay
/// stations. The population must be a non-negative integer.
pub fn solve_exact_single_chain(net: &ClosedNetwork) -> Result<MvaSolution, PredictError> {
    net.validate()?;
    if net.n_chains() != 1 {
        return Err(PredictError::InvalidModel(
            "exact single-chain MVA requires exactly one chain".into(),
        ));
    }
    for (i, s) in net.stations.iter().enumerate() {
        if let StationKind::Queueing { servers } = s.kind {
            if servers != 1 {
                return Err(PredictError::InvalidModel(format!(
                    "exact single-chain MVA supports only single-server stations (station {i} has {servers})"
                )));
            }
        }
    }
    let n = net.populations[0];
    if (n.fract()).abs() > 1e-9 {
        return Err(PredictError::InvalidModel(
            "exact MVA requires an integer population".into(),
        ));
    }
    let n = n.round() as u64;
    let z = net.think_ms[0];
    let m = net.stations.len();
    let mut q = vec![0.0f64; m];
    let mut w = vec![0.0f64; m];
    let mut x = 0.0f64;
    for pop in 1..=n {
        for s in 0..m {
            let d = net.stations[s].demands[0];
            w[s] = match net.stations[s].kind {
                StationKind::Queueing { .. } => d * (1.0 + q[s]),
                StationKind::Delay => d,
            };
        }
        let r: f64 = w.iter().sum();
        x = pop as f64 / (z + r);
        for s in 0..m {
            q[s] = x * w[s];
        }
    }
    let r: f64 = w.iter().sum();
    Ok(MvaSolution {
        residence_ms: vec![w],
        response_ms: vec![r],
        throughput_per_ms: vec![x],
        queue_len: vec![q],
        iterations: 1,
    })
}

/// Options for the Bard–Schweitzer fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmvaOptions {
    /// Convergence tolerance on queue lengths.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Damping factor in (0, 1]: new = old + damping·(computed − old).
    pub damping: f64,
}

impl Default for AmvaOptions {
    fn default() -> Self {
        AmvaOptions {
            tolerance: 1e-8,
            max_iterations: 20_000,
            damping: 0.7,
        }
    }
}

/// Reusable flat state for the Bard–Schweitzer fixed point.
///
/// One workspace serves any sequence of networks: every buffer is a
/// single `Vec<f64>` indexed `[chain * stations + station]` whose
/// capacity only ever grows, so a warm [`solve_amva_into`] performs no
/// heap allocation at all. After a successful solve the workspace holds
/// the solution (see the accessors) and remembers the converged queue
/// lengths; the next solve over the *same shape* starts the fixed point
/// from those, scaled per chain to the new population. Warm starts never
/// change the converged answer — the Bard–Schweitzer fixed point does
/// not depend on its starting point — only how many iterations reaching
/// it takes, which is what makes population sweeps (calibration
/// campaigns, max-throughput searches, resman cost sweeps) cheap. Call
/// [`AmvaWorkspace::invalidate`] to force the next solve cold.
#[derive(Debug, Clone, Default)]
pub struct AmvaWorkspace {
    kn: usize,
    sn: usize,
    /// Seidmann-transformed queueing demand per chain per station.
    qdemand: Vec<f64>,
    /// Queue lengths — the fixed-point state, kept between solves for
    /// warm starts.
    q: Vec<f64>,
    /// Arrival-theorem waiting-time estimate.
    w: Vec<f64>,
    /// Final residence times (waiting + Seidmann delay folded back).
    residence: Vec<f64>,
    /// Per-station total queue over all chains, updated incrementally as
    /// each chain's queue moves instead of rebuilt every iteration.
    totals: Vec<f64>,
    /// Per-chain Seidmann extra delay.
    extra_delay: Vec<f64>,
    /// Per-chain response time.
    response: Vec<f64>,
    /// Per-chain throughput, cycles per ms.
    x: Vec<f64>,
    /// Per-station open-load utilisation (all zero for closed solves).
    rho_open: Vec<f64>,
    /// Whether each station queues (false = pure delay).
    is_queueing: Vec<bool>,
    /// Populations of the last converged solve — the warm-start scaling
    /// reference.
    prev_pop: Vec<f64>,
    /// True when `q` holds a converged solution of the current shape.
    warm: bool,
    /// Iterations the last solve used.
    iterations: usize,
}

impl AmvaWorkspace {
    /// An empty workspace; buffers are sized by the first solve.
    pub fn new() -> Self {
        AmvaWorkspace::default()
    }

    /// Sizes every buffer for a `kn`-chain, `sn`-station network.
    /// Growth-only on capacity; changing shape discards warm-start state.
    fn ensure(&mut self, kn: usize, sn: usize) {
        if kn != self.kn || sn != self.sn {
            self.warm = false;
            self.kn = kn;
            self.sn = sn;
        }
        self.qdemand.resize(kn * sn, 0.0);
        self.q.resize(kn * sn, 0.0);
        self.w.resize(kn * sn, 0.0);
        self.residence.resize(kn * sn, 0.0);
        self.totals.resize(sn, 0.0);
        self.extra_delay.resize(kn, 0.0);
        self.response.resize(kn, 0.0);
        self.x.resize(kn, 0.0);
        self.rho_open.resize(sn, 0.0);
        self.is_queueing.resize(sn, false);
        self.prev_pop.resize(kn, 0.0);
    }

    /// Forgets the previous solution; the next solve starts cold.
    pub fn invalidate(&mut self) {
        self.warm = false;
    }

    /// True when the next same-shape solve will warm-start.
    pub fn is_warm(&self) -> bool {
        self.warm
    }

    /// Iterations used by the last solve.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Response time per chain from the last solve, ms.
    pub fn response_ms(&self) -> &[f64] {
        &self.response[..self.kn]
    }

    /// Throughput per chain from the last solve, cycles per ms.
    pub fn throughput_per_ms(&self) -> &[f64] {
        &self.x[..self.kn]
    }

    /// Residence times of chain `k` at every station, ms.
    pub fn residence_ms(&self, k: usize) -> &[f64] {
        &self.residence[k * self.sn..(k + 1) * self.sn]
    }

    /// Mean chain-`k` queue length at every station.
    pub fn queue_len(&self, k: usize) -> &[f64] {
        &self.q[k * self.sn..(k + 1) * self.sn]
    }

    /// Copies the last solve out into an owned [`MvaSolution`].
    pub fn to_solution(&self) -> MvaSolution {
        MvaSolution {
            residence_ms: (0..self.kn)
                .map(|k| self.residence_ms(k).to_vec())
                .collect(),
            response_ms: self.response_ms().to_vec(),
            throughput_per_ms: self.throughput_per_ms().to_vec(),
            queue_len: (0..self.kn).map(|k| self.queue_len(k).to_vec()).collect(),
            iterations: self.iterations,
        }
    }

    /// Cold-starts chain `k`: its population spread evenly over the
    /// queueing stations it visits, zero elsewhere.
    fn init_chain_cold(&mut self, k: usize, nk: f64) {
        let row = k * self.sn;
        let visited = (0..self.sn)
            .filter(|&s| self.is_queueing[s] && self.qdemand[row + s] > 0.0)
            .count();
        let share = if visited > 0 && nk > 0.0 {
            (nk / visited as f64).min(nk)
        } else {
            0.0
        };
        for s in 0..self.sn {
            self.q[row + s] = if self.is_queueing[s] && self.qdemand[row + s] > 0.0 {
                share
            } else {
                0.0
            };
        }
    }
}

/// The Bard–Schweitzer fixed point over workspace state. `use_rho` makes
/// queueing-station demands inflate by `1/(1 − ρ_open[s])` (the mixed
/// decomposition); `ws.rho_open` must then hold per-station open
/// utilisations `< 1`. Allocation-free except for error messages.
fn amva_fixed_point(
    net: &ClosedNetwork,
    opts: &AmvaOptions,
    ws: &mut AmvaWorkspace,
    use_rho: bool,
) -> Result<(), PredictError> {
    let kn = ws.kn;
    let sn = ws.sn;

    // Seidmann transformation (+ optional open-load inflation): per-station
    // effective queueing demand and extra per-chain delay.
    ws.extra_delay[..kn].fill(0.0);
    for (s, st) in net.stations.iter().enumerate() {
        let inflation = if use_rho {
            1.0 / (1.0 - ws.rho_open[s])
        } else {
            1.0
        };
        match st.kind {
            StationKind::Queueing { servers } => {
                ws.is_queueing[s] = true;
                let m = f64::from(servers);
                for (k, d) in st.demands.iter().enumerate() {
                    let d = d * inflation;
                    ws.qdemand[k * sn + s] = d / m;
                    ws.extra_delay[k] += d * (m - 1.0) / m;
                }
            }
            StationKind::Delay => {
                ws.is_queueing[s] = false;
                for (k, d) in st.demands.iter().enumerate() {
                    ws.qdemand[k * sn + s] = *d;
                }
            }
        }
    }

    // Initial queue lengths: the previous converged solution scaled to the
    // new populations when available, else an even cold-start spread.
    // Stale mass at stations a chain no longer visits is harmless — the
    // damped update decays it geometrically toward the fixed point.
    for k in 0..kn {
        let nk = net.populations[k];
        if ws.warm && nk > 0.0 && ws.prev_pop[k] > 0.0 {
            let ratio = nk / ws.prev_pop[k];
            let row = k * sn;
            for s in 0..sn {
                ws.q[row + s] = (ws.q[row + s] * ratio).min(nk);
            }
        } else {
            ws.init_chain_cold(k, nk);
        }
    }
    for s in 0..sn {
        ws.totals[s] = (0..kn).map(|k| ws.q[k * sn + s]).sum();
    }

    let mut iterations = 0;
    for iter in 1..=opts.max_iterations {
        iterations = iter;
        let mut max_delta = 0.0f64;
        for k in 0..kn {
            let nk = net.populations[k];
            let row = k * sn;
            if nk <= 0.0 {
                ws.x[k] = 0.0;
                ws.w[row..row + sn].fill(0.0);
                continue;
            }
            let scale = (nk - 1.0).max(0.0) / nk;
            let mut r = ws.extra_delay[k];
            for s in 0..sn {
                let d = ws.qdemand[row + s];
                if d == 0.0 {
                    ws.w[row + s] = 0.0;
                    continue;
                }
                ws.w[row + s] = if ws.is_queueing[s] {
                    // Queue seen on arrival: others' queues in full, own
                    // chain scaled by (N_k − 1)/N_k (Schweitzer estimate).
                    let seen = ws.totals[s] - ws.q[row + s] + scale * ws.q[row + s];
                    d * (1.0 + seen)
                } else {
                    d
                };
                r += ws.w[row + s];
            }
            let cycle = net.think_ms[k] + r;
            ws.x[k] = if cycle > 0.0 { nk / cycle } else { 0.0 };
            for s in 0..sn {
                let old = ws.q[row + s];
                let target = ws.x[k] * ws.w[row + s];
                let updated = old + opts.damping * (target - old);
                max_delta = max_delta.max((updated - old).abs());
                ws.q[row + s] = updated;
                ws.totals[s] += updated - old;
            }
        }
        if max_delta < opts.tolerance {
            break;
        }
    }
    ws.iterations = iterations;

    // Final pass to report residence times consistent with the fixed point,
    // and fold the Seidmann extra delay back into the multiserver station's
    // residence so callers see the station's full residence time.
    let mut finite = true;
    for k in 0..kn {
        let row = k * sn;
        ws.response[k] = 0.0;
        for (s, st) in net.stations.iter().enumerate() {
            let extra = match st.kind {
                StationKind::Queueing { servers } => {
                    let m = f64::from(servers);
                    let inflation = if use_rho {
                        1.0 / (1.0 - ws.rho_open[s])
                    } else {
                        1.0
                    };
                    st.demands[k] * inflation * (m - 1.0) / m
                }
                StationKind::Delay => 0.0,
            };
            ws.residence[row + s] = ws.w[row + s] + extra;
            ws.response[k] += ws.residence[row + s];
        }
        finite &= ws.response[k].is_finite();
    }
    if !finite {
        ws.warm = false;
        return Err(PredictError::Solver(
            "AMVA produced a non-finite response time".into(),
        ));
    }
    ws.prev_pop[..kn].copy_from_slice(&net.populations);
    ws.warm = true;
    Ok(())
}

/// Bard–Schweitzer approximate MVA into a reusable workspace. After a
/// successful return the workspace exposes the solution through its
/// accessors; a warm workspace performs zero heap allocations here.
pub fn solve_amva_into(
    net: &ClosedNetwork,
    opts: &AmvaOptions,
    ws: &mut AmvaWorkspace,
) -> Result<(), PredictError> {
    net.validate()?;
    ws.ensure(net.n_chains(), net.stations.len());
    amva_fixed_point(net, opts, ws, false)
}

/// Bard–Schweitzer approximate MVA for a closed multi-class network with
/// multiserver stations (Seidmann transformation). Convenience wrapper
/// over [`solve_amva_into`] with a throwaway workspace; hot paths should
/// hold a workspace and call [`solve_amva_into`] directly.
pub fn solve_amva(net: &ClosedNetwork, opts: &AmvaOptions) -> Result<MvaSolution, PredictError> {
    let mut ws = AmvaWorkspace::new();
    solve_amva_into(net, opts, &mut ws)?;
    Ok(ws.to_solution())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single(net_demand: f64, servers: u32, pop: f64, think: f64) -> ClosedNetwork {
        ClosedNetwork {
            populations: vec![pop],
            think_ms: vec![think],
            stations: vec![Station {
                kind: StationKind::Queueing { servers },
                demands: vec![net_demand],
            }],
        }
    }

    #[test]
    fn exact_single_customer_sees_no_queue() {
        // One customer, one station: R = D, X = 1/(Z+D).
        let net = single(10.0, 1, 1.0, 90.0);
        let sol = solve_exact_single_chain(&net).unwrap();
        assert!((sol.response_ms[0] - 10.0).abs() < 1e-12);
        assert!((sol.throughput_per_ms[0] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn exact_matches_closed_form_machine_repairman() {
        // N=2, Z=0, one station D=1: known exact MVA values.
        // n=1: W=1, X=1, Q=1. n=2: W=1·(1+1)=2, X=2/2=1, Q=2.
        let net = single(1.0, 1, 2.0, 0.0);
        let sol = solve_exact_single_chain(&net).unwrap();
        assert!((sol.response_ms[0] - 2.0).abs() < 1e-12);
        assert!((sol.throughput_per_ms[0] - 1.0).abs() < 1e-12);
        assert!((sol.queue_len[0][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exact_throughput_saturates_at_service_rate() {
        let net = single(5.0, 1, 500.0, 100.0);
        let sol = solve_exact_single_chain(&net).unwrap();
        // Bottleneck bound: X ≤ 1/D = 0.2 per ms.
        assert!(sol.throughput_per_ms[0] <= 0.2 + 1e-9);
        assert!(sol.throughput_per_ms[0] > 0.199);
        // Little's law on the full loop: N = X·(Z+R).
        let n = sol.throughput_per_ms[0] * (100.0 + sol.response_ms[0]);
        assert!((n - 500.0).abs() < 1e-6);
    }

    #[test]
    fn exact_delay_station_adds_no_queueing() {
        let net = ClosedNetwork {
            populations: vec![10.0],
            think_ms: vec![0.0],
            stations: vec![
                Station {
                    kind: StationKind::Delay,
                    demands: vec![50.0],
                },
                Station {
                    kind: StationKind::Queueing { servers: 1 },
                    demands: vec![1.0],
                },
            ],
        };
        let sol = solve_exact_single_chain(&net).unwrap();
        // The delay station always contributes exactly its demand.
        assert!((sol.residence_ms[0][0] - 50.0).abs() < 1e-12);
        assert!(sol.residence_ms[0][1] >= 1.0);
    }

    #[test]
    fn exact_rejects_multichain_and_multiserver() {
        let bad = ClosedNetwork {
            populations: vec![1.0, 1.0],
            think_ms: vec![0.0, 0.0],
            stations: vec![Station {
                kind: StationKind::Queueing { servers: 1 },
                demands: vec![1.0, 1.0],
            }],
        };
        assert!(solve_exact_single_chain(&bad).is_err());
        let multi = single(1.0, 2, 5.0, 0.0);
        assert!(solve_exact_single_chain(&multi).is_err());
        let frac = single(1.0, 1, 2.5, 0.0);
        assert!(solve_exact_single_chain(&frac).is_err());
    }

    #[test]
    fn amva_close_to_exact_for_single_chain() {
        for &(d, n, z) in &[(5.0, 20.0, 100.0), (1.0, 4.0, 0.0), (10.0, 200.0, 1_000.0)] {
            let net = single(d, 1, n, z);
            let exact = solve_exact_single_chain(&net).unwrap();
            let approx = solve_amva(&net, &AmvaOptions::default()).unwrap();
            let rel = (approx.throughput_per_ms[0] - exact.throughput_per_ms[0]).abs()
                / exact.throughput_per_ms[0];
            assert!(rel < 0.03, "throughput off by {rel} for d={d} n={n} z={z}");
        }
    }

    #[test]
    fn amva_single_customer_exact() {
        // With N=1 the Schweitzer estimate is exact: R = D.
        let net = single(10.0, 1, 1.0, 90.0);
        let sol = solve_amva(&net, &AmvaOptions::default()).unwrap();
        assert!((sol.response_ms[0] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn amva_multiserver_below_single_server_response() {
        let one = single(10.0, 1, 50.0, 100.0);
        let four = single(10.0, 4, 50.0, 100.0);
        let r1 = solve_amva(&one, &AmvaOptions::default()).unwrap();
        let r4 = solve_amva(&four, &AmvaOptions::default()).unwrap();
        assert!(r4.response_ms[0] < r1.response_ms[0]);
        assert!(r4.throughput_per_ms[0] > r1.throughput_per_ms[0]);
        // 4 servers quadruple the saturation throughput bound.
        assert!(r4.throughput_per_ms[0] <= 4.0 / 10.0 + 1e-9);
    }

    #[test]
    fn amva_multiserver_light_load_is_pure_service() {
        // A single customer on an m-server station must see exactly D.
        let net = single(12.0, 3, 1.0, 0.0);
        let sol = solve_amva(&net, &AmvaOptions::default()).unwrap();
        assert!((sol.response_ms[0] - 12.0).abs() < 1e-6);
    }

    #[test]
    fn amva_two_chains_share_capacity() {
        let net = ClosedNetwork {
            populations: vec![30.0, 30.0],
            think_ms: vec![100.0, 100.0],
            stations: vec![Station {
                kind: StationKind::Queueing { servers: 1 },
                demands: vec![4.0, 4.0],
            }],
        };
        let sol = solve_amva(&net, &AmvaOptions::default()).unwrap();
        // Symmetric chains get symmetric results — up to the convergence
        // tolerance: chains update in sequence against live totals
        // (Gauss–Seidel), so exact symmetry is not preserved mid-iteration.
        assert!((sol.throughput_per_ms[0] - sol.throughput_per_ms[1]).abs() < 1e-6);
        assert!((sol.response_ms[0] - sol.response_ms[1]).abs() < 1e-6);
        // Combined throughput bounded by station capacity.
        let total = sol.throughput_per_ms[0] + sol.throughput_per_ms[1];
        assert!(total <= 1.0 / 4.0 + 1e-9);
        assert!(total > 0.24);
    }

    #[test]
    fn amva_asymmetric_chains() {
        let net = ClosedNetwork {
            populations: vec![10.0, 40.0],
            think_ms: vec![0.0, 0.0],
            stations: vec![
                Station {
                    kind: StationKind::Queueing { servers: 1 },
                    demands: vec![2.0, 1.0],
                },
                Station {
                    kind: StationKind::Queueing { servers: 1 },
                    demands: vec![0.5, 3.0],
                },
            ],
        };
        let sol = solve_amva(&net, &AmvaOptions::default()).unwrap();
        // Little's law per chain: N_k = X_k (Z_k + R_k).
        for k in 0..2 {
            let n = sol.throughput_per_ms[k] * sol.response_ms[k];
            assert!(
                (n - net.populations[k]).abs() / net.populations[k] < 1e-4,
                "chain {k}"
            );
        }
    }

    #[test]
    fn amva_zero_population_chain_is_inert() {
        let net = ClosedNetwork {
            populations: vec![0.0, 10.0],
            think_ms: vec![50.0, 50.0],
            stations: vec![Station {
                kind: StationKind::Queueing { servers: 1 },
                demands: vec![5.0, 5.0],
            }],
        };
        let sol = solve_amva(&net, &AmvaOptions::default()).unwrap();
        assert_eq!(sol.throughput_per_ms[0], 0.0);
        assert!(sol.throughput_per_ms[1] > 0.0);
    }

    #[test]
    fn amva_utilization_reported() {
        let net = single(5.0, 1, 200.0, 100.0);
        let sol = solve_amva(&net, &AmvaOptions::default()).unwrap();
        let u = sol.utilization(&net, 0);
        assert!(u > 0.99 && u <= 1.0 + 1e-9, "utilization {u}");
    }

    #[test]
    fn amva_response_grows_with_population() {
        let mut last = 0.0;
        for &n in &[10.0, 100.0, 400.0, 1_000.0] {
            let sol = solve_amva(&single(5.0, 1, n, 7_000.0), &AmvaOptions::default()).unwrap();
            assert!(sol.response_ms[0] >= last);
            last = sol.response_ms[0];
        }
        // Deep saturation: R ≈ N·D − Z.
        let n = 4_000.0;
        let sol = solve_amva(&single(5.0, 1, n, 7_000.0), &AmvaOptions::default()).unwrap();
        let asymptote = n * 5.0 - 7_000.0;
        assert!((sol.response_ms[0] - asymptote).abs() / asymptote < 0.02);
    }

    #[test]
    fn warm_start_matches_cold_start_across_population_sweep() {
        // One workspace rides the whole sweep; every point is checked
        // against a cold solve. The fixed point must not depend on the
        // starting queue lengths, only the iteration count may differ.
        let opts = AmvaOptions::default();
        let mut ws = AmvaWorkspace::new();
        let mut warm_iters = 0usize;
        let mut cold_iters = 0usize;
        for step in 0..30 {
            let n = 10.0 + 40.0 * f64::from(step);
            let net = ClosedNetwork {
                populations: vec![n, n / 4.0],
                think_ms: vec![7_000.0, 3_000.0],
                stations: vec![
                    Station {
                        kind: StationKind::Queueing { servers: 1 },
                        demands: vec![4.5, 9.0],
                    },
                    Station {
                        kind: StationKind::Queueing { servers: 2 },
                        demands: vec![1.1, 2.5],
                    },
                    Station {
                        kind: StationKind::Delay,
                        demands: vec![2.5, 2.5],
                    },
                ],
            };
            let cold = solve_amva(&net, &opts).unwrap();
            cold_iters += cold.iterations;
            solve_amva_into(&net, &opts, &mut ws).unwrap();
            warm_iters += ws.iterations();
            for k in 0..2 {
                let rel = (ws.response_ms()[k] - cold.response_ms[k]).abs()
                    / cold.response_ms[k].max(1e-9);
                assert!(rel < 1e-5, "n={n} chain {k}: warm differs by {rel}");
                let relx = (ws.throughput_per_ms()[k] - cold.throughput_per_ms[k]).abs()
                    / cold.throughput_per_ms[k].max(1e-12);
                assert!(relx < 1e-5, "n={n} chain {k}: throughput differs by {relx}");
            }
        }
        // The point of warm-starting: neighbouring populations converge in
        // fewer iterations than cold starts over the same sweep.
        assert!(
            warm_iters < cold_iters,
            "warm {warm_iters} >= cold {cold_iters}"
        );
    }

    #[test]
    fn workspace_shape_change_and_invalidate_stay_correct() {
        let opts = AmvaOptions::default();
        let mut ws = AmvaWorkspace::new();
        // Solve a 2-chain net, then a 1-chain net (shape change → cold),
        // then the same net again warm, then invalidated.
        let two = ClosedNetwork {
            populations: vec![20.0, 5.0],
            think_ms: vec![100.0, 0.0],
            stations: vec![Station {
                kind: StationKind::Queueing { servers: 1 },
                demands: vec![2.0, 3.0],
            }],
        };
        solve_amva_into(&two, &opts, &mut ws).unwrap();
        let one = single(5.0, 1, 50.0, 200.0);
        solve_amva_into(&one, &opts, &mut ws).unwrap();
        assert!(ws.is_warm());
        let warm = ws.to_solution();
        ws.invalidate();
        assert!(!ws.is_warm());
        solve_amva_into(&one, &opts, &mut ws).unwrap();
        let cold = ws.to_solution();
        let rel = (warm.response_ms[0] - cold.response_ms[0]).abs() / cold.response_ms[0];
        assert!(rel < 1e-5, "rel {rel}");
        let fresh = solve_amva(&one, &opts).unwrap();
        assert_eq!(cold.response_ms, fresh.response_ms);
    }

    #[test]
    fn warm_start_handles_population_going_to_zero_and_back() {
        let opts = AmvaOptions::default();
        let mut ws = AmvaWorkspace::new();
        let mk = |p0: f64, p1: f64| ClosedNetwork {
            populations: vec![p0, p1],
            think_ms: vec![50.0, 50.0],
            stations: vec![Station {
                kind: StationKind::Queueing { servers: 1 },
                demands: vec![5.0, 5.0],
            }],
        };
        solve_amva_into(&mk(10.0, 10.0), &opts, &mut ws).unwrap();
        // Chain 0 empties: its stale queue must not poison chain 1.
        solve_amva_into(&mk(0.0, 10.0), &opts, &mut ws).unwrap();
        let expect = solve_amva(&mk(0.0, 10.0), &opts).unwrap();
        assert_eq!(ws.throughput_per_ms()[0], 0.0);
        let rel = (ws.response_ms()[1] - expect.response_ms[1]).abs() / expect.response_ms[1];
        assert!(rel < 1e-5, "rel {rel}");
        // And back to a positive population (prev_pop 0 → cold init).
        solve_amva_into(&mk(10.0, 10.0), &opts, &mut ws).unwrap();
        let expect = solve_amva(&mk(10.0, 10.0), &opts).unwrap();
        let rel = (ws.response_ms()[0] - expect.response_ms[0]).abs() / expect.response_ms[0];
        assert!(rel < 1e-5, "rel {rel}");
    }

    #[test]
    fn amva_validation_errors() {
        let mut net = single(5.0, 1, 10.0, 0.0);
        net.stations[0].demands = vec![5.0, 1.0];
        assert!(solve_amva(&net, &AmvaOptions::default()).is_err());

        let net2 = single(-1.0, 1, 10.0, 0.0);
        assert!(solve_amva(&net2, &AmvaOptions::default()).is_err());

        let net3 = single(1.0, 0, 10.0, 0.0);
        assert!(solve_amva(&net3, &AmvaOptions::default()).is_err());
    }
}

/// An open (Poisson-arrival) customer class in a mixed network.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenClass {
    /// Arrival rate, customers per millisecond.
    pub rate_per_ms: f64,
    /// Per-station demand per customer, ms.
    pub demands: Vec<f64>,
}

/// A mixed network: closed chains plus open classes sharing the stations.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedNetwork {
    /// The closed part (chains, think times, stations).
    pub closed: ClosedNetwork,
    /// The open classes.
    pub open: Vec<OpenClass>,
}

/// Solution of a mixed network.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedSolution {
    /// The closed chains' solution (demands already include the open-load
    /// inflation).
    pub closed: MvaSolution,
    /// Residence time of each open class at each station, ms.
    pub open_residence_ms: Vec<Vec<f64>>,
    /// Total response time per open class, ms.
    pub open_response_ms: Vec<f64>,
}

/// Solves a mixed open/closed network with the standard decomposition:
/// open classes claim their utilisation first (stability required), closed
/// chains are solved by AMVA over demands inflated by `1/(1 − ρ_open)`,
/// and open-class residence times then see the closed queue lengths:
///
/// ```text
/// W_open[s] = D_open[s] · (1 + Q_closed[s]) / (1 − ρ_open[s])
/// ```
///
/// (multiservers via the Seidmann transformation on both sides).
pub fn solve_mixed(net: &MixedNetwork, opts: &AmvaOptions) -> Result<MixedSolution, PredictError> {
    let mut ws = AmvaWorkspace::new();
    solve_mixed_with(net, opts, &mut ws)
}

/// [`solve_mixed`] against a caller-held workspace: a thin wrapper over
/// [`solve_mixed_into`] that copies the solution out of the workspace
/// into an owned [`MixedSolution`]. The copy allocates; loops that
/// re-solve a submodel should call [`solve_mixed_into`] and read the
/// workspace instead.
pub fn solve_mixed_with(
    net: &MixedNetwork,
    opts: &AmvaOptions,
    ws: &mut AmvaWorkspace,
) -> Result<MixedSolution, PredictError> {
    let mut open_residence = Vec::new();
    solve_mixed_into(net, opts, ws, &mut open_residence)?;
    let sn = net.closed.stations.len();
    let open_residence_ms: Vec<Vec<f64>> = (0..net.open.len())
        .map(|o| open_residence[o * sn..(o + 1) * sn].to_vec())
        .collect();
    let open_response_ms = open_residence_ms
        .iter()
        .map(|row| row.iter().fold(0.0, |total, w| total + w))
        .collect();
    Ok(MixedSolution {
        closed: ws.to_solution(),
        open_residence_ms,
        open_response_ms,
    })
}

/// The allocation-free core of [`solve_mixed_with`]. The closed-chain
/// fixed point runs entirely in the workspace's flat buffers and
/// warm-starts from the workspace's previous solution when the shape
/// matches; on success the closed solution is left in the workspace (read
/// it through the accessors) and the open classes' residence times are
/// written to `open_residence_ms`, indexed `[class * stations + station]`.
/// With a warm workspace and a buffer that has held this shape before,
/// the call performs no heap allocation (error messages aside).
pub fn solve_mixed_into(
    net: &MixedNetwork,
    opts: &AmvaOptions,
    ws: &mut AmvaWorkspace,
    open_residence_ms: &mut Vec<f64>,
) -> Result<(), PredictError> {
    net.closed.validate()?;
    let sn = net.closed.stations.len();
    for (o, oc) in net.open.iter().enumerate() {
        if oc.demands.len() != sn {
            return Err(PredictError::InvalidModel(format!(
                "open class {o} has {} demands for {sn} stations",
                oc.demands.len()
            )));
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)] // also rejects NaN
        if !(oc.rate_per_ms >= 0.0) || oc.demands.iter().any(|d| !d.is_finite() || *d < 0.0) {
            return Err(PredictError::InvalidModel(format!(
                "open class {o} has a negative or non-finite rate/demand"
            )));
        }
    }

    ws.ensure(net.closed.n_chains(), sn);

    // Open utilisation per station (per server).
    for (s, st) in net.closed.stations.iter().enumerate() {
        let raw: f64 = net
            .open
            .iter()
            .map(|oc| oc.rate_per_ms * oc.demands[s])
            .sum();
        ws.rho_open[s] = match st.kind {
            StationKind::Queueing { servers } => raw / f64::from(servers),
            StationKind::Delay => 0.0,
        };
        if ws.rho_open[s] >= 0.999 {
            return Err(PredictError::Solver(format!(
                "open load saturates station {s} (rho = {:.3})",
                ws.rho_open[s]
            )));
        }
    }

    // Closed chains see service slowed by the open traffic: the fixed
    // point inflates queueing demands by 1/(1 − ρ_open) in place.
    amva_fixed_point(&net.closed, opts, ws, true)?;

    // Open residences against the closed queues.
    open_residence_ms.clear();
    for oc in &net.open {
        for (s, st) in net.closed.stations.iter().enumerate() {
            let d = oc.demands[s];
            open_residence_ms.push(match st.kind {
                StationKind::Delay => d,
                StationKind::Queueing { servers } => {
                    let m = f64::from(servers);
                    let q_closed: f64 =
                        (0..net.closed.n_chains()).map(|k| ws.queue_len(k)[s]).sum();
                    // Seidmann: queueing part on d/m, the rest pure delay.
                    (d / m) * (1.0 + q_closed) / (1.0 - ws.rho_open[s]) + d * (m - 1.0) / m
                }
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod mixed_tests {
    use super::*;

    fn station(demands_closed: Vec<f64>, servers: u32) -> Station {
        Station {
            kind: StationKind::Queueing { servers },
            demands: demands_closed,
        }
    }

    #[test]
    fn open_only_matches_mm1() {
        // M/M/1: W = D / (1 − ρ).
        let net = MixedNetwork {
            closed: ClosedNetwork {
                populations: vec![],
                think_ms: vec![],
                stations: vec![station(vec![], 1)],
            },
            open: vec![OpenClass {
                rate_per_ms: 0.08,
                demands: vec![10.0],
            }],
        };
        let sol = solve_mixed(&net, &AmvaOptions::default()).unwrap();
        let expect = 10.0 / (1.0 - 0.8);
        assert!(
            (sol.open_response_ms[0] - expect).abs() < 1e-9,
            "{}",
            sol.open_response_ms[0]
        );
    }

    #[test]
    fn open_load_slows_closed_chain() {
        let closed = ClosedNetwork {
            populations: vec![10.0],
            think_ms: vec![100.0],
            stations: vec![station(vec![5.0], 1)],
        };
        let quiet = solve_amva(&closed, &AmvaOptions::default()).unwrap();
        let busy = solve_mixed(
            &MixedNetwork {
                closed: closed.clone(),
                open: vec![OpenClass {
                    rate_per_ms: 0.1,
                    demands: vec![5.0],
                }],
            },
            &AmvaOptions::default(),
        )
        .unwrap();
        assert!(busy.closed.response_ms[0] > quiet.response_ms[0] * 1.5);
        // Closed throughput drops accordingly.
        assert!(busy.closed.throughput_per_ms[0] < quiet.throughput_per_ms[0]);
    }

    #[test]
    fn open_class_sees_closed_queue() {
        // A single closed customer adds queueing for the open stream.
        let net = MixedNetwork {
            closed: ClosedNetwork {
                populations: vec![5.0],
                think_ms: vec![0.0],
                stations: vec![station(vec![4.0], 1)],
            },
            open: vec![OpenClass {
                rate_per_ms: 0.02,
                demands: vec![4.0],
            }],
        };
        let sol = solve_mixed(&net, &AmvaOptions::default()).unwrap();
        // Closed population ~5 queued at the station: open W >> D.
        assert!(
            sol.open_response_ms[0] > 4.0 * 3.0,
            "{}",
            sol.open_response_ms[0]
        );
    }

    #[test]
    fn saturating_open_load_rejected() {
        let net = MixedNetwork {
            closed: ClosedNetwork {
                populations: vec![],
                think_ms: vec![],
                stations: vec![station(vec![], 1)],
            },
            open: vec![OpenClass {
                rate_per_ms: 0.2,
                demands: vec![10.0],
            }],
        };
        assert!(solve_mixed(&net, &AmvaOptions::default()).is_err());
    }

    #[test]
    fn multiserver_open_faster_than_single() {
        let mk = |servers| MixedNetwork {
            closed: ClosedNetwork {
                populations: vec![],
                think_ms: vec![],
                stations: vec![station(vec![], servers)],
            },
            open: vec![OpenClass {
                rate_per_ms: 0.15,
                demands: vec![10.0],
            }],
        };
        let one = solve_mixed(&mk(2), &AmvaOptions::default()).unwrap();
        let four = solve_mixed(&mk(8), &AmvaOptions::default()).unwrap();
        assert!(four.open_response_ms[0] < one.open_response_ms[0]);
        // Never below the bare demand.
        assert!(four.open_response_ms[0] >= 10.0);
    }

    #[test]
    fn mixed_validation_errors() {
        let net = MixedNetwork {
            closed: ClosedNetwork {
                populations: vec![],
                think_ms: vec![],
                stations: vec![station(vec![], 1)],
            },
            open: vec![OpenClass {
                rate_per_ms: 0.1,
                demands: vec![1.0, 2.0],
            }],
        };
        assert!(solve_mixed(&net, &AmvaOptions::default()).is_err());
        let neg = MixedNetwork {
            closed: ClosedNetwork {
                populations: vec![],
                think_ms: vec![],
                stations: vec![station(vec![], 1)],
            },
            open: vec![OpenClass {
                rate_per_ms: -0.1,
                demands: vec![1.0],
            }],
        };
        assert!(solve_mixed(&neg, &AmvaOptions::default()).is_err());
    }
}

/// Exact multi-class MVA over single-server queueing and delay stations,
/// by recursion over the population lattice with memoised queue lengths.
///
/// Cost is `∏(N_k + 1)` states; the function refuses networks with more
/// than `MAX_EXACT_STATES` states. Intended for validating the
/// Bard–Schweitzer approximation on small populations, where its error is
/// largest.
pub fn solve_exact_multiclass(
    net: &ClosedNetwork,
    populations: &[u32],
) -> Result<MvaSolution, PredictError> {
    const MAX_EXACT_STATES: u64 = 4_000_000;
    net.validate()?;
    let kn = net.n_chains();
    if populations.len() != kn {
        return Err(PredictError::InvalidModel(format!(
            "{} populations for {} chains",
            populations.len(),
            kn
        )));
    }
    for (k, (&n, &decl)) in populations.iter().zip(&net.populations).enumerate() {
        if (f64::from(n) - decl).abs() > 1e-9 {
            return Err(PredictError::InvalidModel(format!(
                "population mismatch for chain {k}: {n} vs declared {decl}"
            )));
        }
    }
    for (i, s) in net.stations.iter().enumerate() {
        if let StationKind::Queueing { servers } = s.kind {
            if servers != 1 {
                return Err(PredictError::InvalidModel(format!(
                    "exact multiclass MVA supports single-server stations only (station {i})"
                )));
            }
        }
    }
    let states: u64 = populations.iter().map(|&n| u64::from(n) + 1).product();
    if states > MAX_EXACT_STATES {
        return Err(PredictError::OutOfRange(format!(
            "exact MVA state space too large ({states} > {MAX_EXACT_STATES})"
        )));
    }

    let sn = net.stations.len();
    // Iterate the lattice in an order where every predecessor (n − e_k) is
    // already computed: mixed-radix counting does exactly that.
    let mut queues: std::collections::HashMap<Vec<u32>, Vec<f64>> =
        std::collections::HashMap::new();
    queues.insert(vec![0; kn], vec![0.0; sn]);

    let mut current = vec![0u32; kn];
    let mut last_w = vec![vec![0.0f64; sn]; kn];
    let mut last_x = vec![0.0f64; kn];
    loop {
        // Advance mixed-radix counter.
        let mut carry = true;
        for k in 0..kn {
            if !carry {
                break;
            }
            if current[k] < populations[k] {
                current[k] += 1;
                carry = false;
            } else {
                current[k] = 0;
            }
        }
        if carry {
            break; // wrapped: lattice exhausted
        }

        let mut q_here = vec![0.0f64; sn];
        let mut w = vec![vec![0.0f64; sn]; kn];
        let mut x = vec![0.0f64; kn];
        for k in 0..kn {
            if current[k] == 0 {
                continue;
            }
            let mut prev = current.clone();
            prev[k] -= 1;
            let q_prev = queues.get(&prev).expect("predecessor computed");
            let mut r = 0.0;
            for s in 0..sn {
                let d = net.stations[s].demands[k];
                w[k][s] = match net.stations[s].kind {
                    StationKind::Queueing { .. } => d * (1.0 + q_prev[s]),
                    StationKind::Delay => d,
                };
                r += w[k][s];
            }
            let cycle = net.think_ms[k] + r;
            x[k] = if cycle > 0.0 {
                f64::from(current[k]) / cycle
            } else {
                0.0
            };
        }
        for s in 0..sn {
            q_here[s] = (0..kn).map(|k| x[k] * w[k][s]).sum();
        }
        let at_target = current.iter().zip(populations).all(|(a, b)| a == b);
        if at_target {
            last_w = w;
            last_x = x;
        }
        queues.insert(current.clone(), q_here);
        if at_target {
            break;
        }
    }

    let target: Vec<u32> = populations.to_vec();
    let q_final = queues.remove(&target).unwrap_or_else(|| vec![0.0; sn]);
    let response: Vec<f64> = last_w.iter().map(|ws| ws.iter().sum()).collect();
    // Per-chain queue lengths at the final population.
    let queue_len: Vec<Vec<f64>> = (0..kn)
        .map(|k| (0..sn).map(|s| last_x[k] * last_w[k][s]).collect())
        .collect();
    let _ = q_final;
    Ok(MvaSolution {
        residence_ms: last_w,
        response_ms: response,
        throughput_per_ms: last_x,
        queue_len,
        iterations: 1,
    })
}

#[cfg(test)]
mod exact_multiclass_tests {
    use super::*;

    fn net(demands: Vec<Vec<f64>>, pops: Vec<f64>, think: Vec<f64>) -> ClosedNetwork {
        let kn = pops.len();
        let sn = demands[0].len();
        ClosedNetwork {
            populations: pops,
            think_ms: think,
            stations: (0..sn)
                .map(|s| Station {
                    kind: StationKind::Queueing { servers: 1 },
                    demands: (0..kn).map(|k| demands[k][s]).collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn reduces_to_single_chain_exact() {
        let n = net(vec![vec![5.0, 2.0]], vec![12.0], vec![100.0]);
        let multi = solve_exact_multiclass(&n, &[12]).unwrap();
        let single = solve_exact_single_chain(&n).unwrap();
        assert!((multi.throughput_per_ms[0] - single.throughput_per_ms[0]).abs() < 1e-12);
        assert!((multi.response_ms[0] - single.response_ms[0]).abs() < 1e-9);
    }

    #[test]
    fn symmetric_chains_get_symmetric_results() {
        let n = net(
            vec![vec![3.0, 1.0], vec![3.0, 1.0]],
            vec![6.0, 6.0],
            vec![50.0, 50.0],
        );
        let sol = solve_exact_multiclass(&n, &[6, 6]).unwrap();
        assert!((sol.throughput_per_ms[0] - sol.throughput_per_ms[1]).abs() < 1e-12);
        assert!((sol.response_ms[0] - sol.response_ms[1]).abs() < 1e-12);
        // Little's law.
        let n_back = sol.throughput_per_ms[0] * (50.0 + sol.response_ms[0]);
        assert!((n_back - 6.0).abs() < 1e-9);
    }

    #[test]
    fn amva_error_bounded_against_exact_multiclass() {
        // Asymmetric 2-chain network: Schweitzer should stay within a few
        // percent of the exact answer at these populations.
        let n = net(
            vec![vec![4.0, 1.0], vec![1.0, 6.0]],
            vec![8.0, 5.0],
            vec![20.0, 0.0],
        );
        let exact = solve_exact_multiclass(&n, &[8, 5]).unwrap();
        let approx = solve_amva(&n, &AmvaOptions::default()).unwrap();
        for k in 0..2 {
            let rel = (approx.throughput_per_ms[k] - exact.throughput_per_ms[k]).abs()
                / exact.throughput_per_ms[k];
            assert!(rel < 0.08, "chain {k} off by {rel}");
        }
    }

    #[test]
    fn rejects_oversized_and_invalid_inputs() {
        let n = net(
            vec![vec![1.0], vec![1.0]],
            vec![3000.0, 3000.0],
            vec![0.0, 0.0],
        );
        assert!(solve_exact_multiclass(&n, &[3000, 3000]).is_err());
        let n2 = net(vec![vec![1.0]], vec![5.0], vec![0.0]);
        assert!(solve_exact_multiclass(&n2, &[4]).is_err()); // mismatch
        let multi_server = ClosedNetwork {
            populations: vec![2.0],
            think_ms: vec![0.0],
            stations: vec![Station {
                kind: StationKind::Queueing { servers: 2 },
                demands: vec![1.0],
            }],
        };
        assert!(solve_exact_multiclass(&multi_server, &[2]).is_err());
    }
}
