//! The layered (method-of-layers style) solver.
//!
//! The fixed point maintains two waiting-time surfaces:
//!
//! * `task_wait[k][t]` — time a chain-`k` request waits to acquire a thread
//!   of task `t`, per call;
//! * `proc_wait[k][p]` — time a chain-`k` entry invocation waits for
//!   processor `p`, per visit;
//!
//! and alternates: (1) recompute entry *elapsed* (thread-holding) times
//! bottom-up through the acyclic call graph; (2) re-estimate `task_wait`
//! with one closed AMVA submodel per call-depth layer (tasks as multiserver
//! stations, the rest of the cycle folded into a complementary delay); and
//! (3) re-estimate `proc_wait` with a device submodel over the processors.
//! Waits are under-relaxed between iterations; convergence is declared when
//! no chain's predicted response time moves by more than
//! [`SolverOptions::convergence_ms`] — the knob the paper sets to 20 ms
//! (§5.1) and whose coarseness causes the small-`x` anomaly discussed in
//! §4.2.

use crate::model::{LqnModel, Multiplicity, TaskKind};
use crate::mva::{
    solve_mixed_into, AmvaOptions, AmvaWorkspace, ClosedNetwork, MixedNetwork, OpenClass, Station,
    StationKind,
};
use crate::results::SolverResult;
use perfpred_core::{metrics, PredictError};
use std::ops::Range;

/// Options for the layered solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Absolute convergence criterion on chain response times, ms. The
    /// paper uses 20 ms; the library default is stricter (1 ms).
    pub convergence_ms: f64,
    /// Cap on outer iterations.
    pub max_iterations: usize,
    /// Under-relaxation factor in (0, 1] applied to waiting-time updates.
    pub under_relax: f64,
    /// Options for the inner AMVA submodel solves.
    pub amva: AmvaOptions,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            convergence_ms: 1.0,
            max_iterations: 200,
            under_relax: 0.5,
            amva: AmvaOptions::default(),
        }
    }
}

impl SolverOptions {
    /// The configuration the paper reports: a 20 ms convergence criterion.
    pub fn paper() -> Self {
        SolverOptions {
            convergence_ms: 20.0,
            ..Default::default()
        }
    }
}

struct Prepared {
    /// Reference task per closed chain.
    chains: Vec<usize>,
    /// Population per closed chain.
    populations: Vec<f64>,
    /// Think time per closed chain, ms.
    think_ms: Vec<f64>,
    /// Reference entry per closed chain.
    ref_entry: Vec<usize>,
    /// Visit counts `[chain][entry]` per cycle.
    visits: Vec<Vec<f64>>,
    /// Source task per open flow.
    open_tasks: Vec<usize>,
    /// Arrival rate per open flow, requests per millisecond.
    open_rates: Vec<f64>,
    /// Reference entry per open flow.
    open_ref_entry: Vec<usize>,
    /// Visit counts `[open flow][entry]` per arrival.
    open_visits: Vec<Vec<f64>>,
    /// Entries in bottom-up (deepest-task-first) order.
    bottom_up: Vec<usize>,
    /// Task depth per task.
    depths: Vec<usize>,
}

fn prepare(model: &LqnModel) -> Result<Prepared, PredictError> {
    let chains: Vec<usize> = model.reference_tasks().iter().map(|t| t.0).collect();
    let mut populations = Vec::with_capacity(chains.len());
    let mut think_ms = Vec::with_capacity(chains.len());
    let mut ref_entry = Vec::with_capacity(chains.len());
    for &t in &chains {
        let task = &model.tasks()[t];
        match task.kind {
            TaskKind::Reference {
                population,
                think_time_ms,
            } => {
                populations.push(f64::from(population));
                think_ms.push(think_time_ms);
            }
            _ => unreachable!("reference_tasks returned a non-reference"),
        }
        if task.entries.len() != 1 {
            return Err(PredictError::InvalidModel(format!(
                "reference task {} must have exactly one entry (has {})",
                task.name,
                task.entries.len()
            )));
        }
        ref_entry.push(task.entries[0].0);
    }

    let open_chains: Vec<usize> = model.open_reference_tasks().iter().map(|t| t.0).collect();
    let mut open_rates = Vec::with_capacity(open_chains.len());
    let mut open_ref_entry = Vec::with_capacity(open_chains.len());
    for &t in &open_chains {
        let task = &model.tasks()[t];
        match task.kind {
            TaskKind::OpenReference { rate_rps } => open_rates.push(rate_rps / 1_000.0),
            _ => unreachable!("open_reference_tasks returned a non-open-reference"),
        }
        if task.entries.len() != 1 {
            return Err(PredictError::InvalidModel(format!(
                "open reference task {} must have exactly one entry (has {})",
                task.name,
                task.entries.len()
            )));
        }
        open_ref_entry.push(task.entries[0].0);
    }

    let depths = model.task_depths();
    // Topological order of entries by ascending task depth (callers before
    // callees), for visit propagation; reversed for bottom-up elapsed times.
    let mut order: Vec<usize> = (0..model.entries().len()).collect();
    order.sort_by_key(|&e| depths[model.entries()[e].task.0]);

    let propagate = |start: usize| -> Vec<f64> {
        let mut v = vec![0.0f64; model.entries().len()];
        v[start] = 1.0;
        for &e in &order {
            let val = v[e];
            if val == 0.0 {
                continue;
            }
            for call in &model.entries()[e].calls {
                v[call.target.0] += val * call.mean_calls;
            }
        }
        v
    };
    let visits: Vec<Vec<f64>> = ref_entry.iter().map(|&re| propagate(re)).collect();
    let open_visits: Vec<Vec<f64>> = open_ref_entry.iter().map(|&re| propagate(re)).collect();

    let bottom_up: Vec<usize> = order.iter().rev().copied().collect();
    Ok(Prepared {
        chains,
        populations,
        think_ms,
        ref_entry,
        visits,
        open_tasks: open_chains,
        open_rates,
        open_ref_entry,
        open_visits,
        bottom_up,
        depths,
    })
}

/// The queueing station of a finite thread pool or processor (submodel
/// stations are never infinite servers).
fn queueing(multiplicity: Multiplicity) -> StationKind {
    match multiplicity {
        Multiplicity::Finite(servers) => StationKind::Queueing { servers },
        Multiplicity::Infinite => unreachable!("infinite servers are never stations"),
    }
}

/// One callee-pool demand term: sub-chain (or sub-stream) `ci` spends
/// `coef × holding[target]` per cycle at callee station `si`.
struct DemandTerm {
    ci: usize,
    si: usize,
    /// `share × mean_calls`: calls per customer cycle.
    coef: f64,
    /// The called entry, whose thread-holding time is the per-call demand.
    target: usize,
}

/// One level of the method of layers, planned once per solve.
///
/// Level 0: the client chains (full populations, think time Z_k) queue for
/// the thread pools of the tasks they call.
///
/// Level ℓ ≥ 1: the *threads* of level-ℓ tasks are the customers —
/// per-(chain, task) populations follow from Little's law (X·V·holding
/// time, capped by N_k and the pool size) — and the stations are the
/// tasks' host processors plus the thread pools of the tasks they call. A
/// thread is always either executing on its processor or blocked in a
/// callee, so the submodel think time is zero.
///
/// The submodel's structure — customers, stations, visit ratios, processor
/// demands, open arrival rates — is fixed by the model. Each outer
/// iteration only rewrites the sub-chain populations and the callee-pool
/// demand columns ([`LevelPlan::update`]), solves the network in place and
/// folds its residences back into the waits ([`LevelPlan::fold`]).
struct LevelPlan {
    /// Workspace slot in the pool: 1 + level.
    slot: usize,
    /// Whether the customers are threads (level ≥ 1), whose populations
    /// follow the current throughputs and holding times.
    threads: bool,
    /// Original chain and customer task of each sub-chain.
    sub_chains: Vec<(usize, usize)>,
    /// Original open flow of each open sub-stream.
    sub_streams: Vec<usize>,
    /// Finite customer pools: the task's contiguous sub-chain range and
    /// its thread count.
    pool_caps: Vec<(Range<usize>, u32)>,
    /// Callee thread pools (stations `0..callee_tasks.len()`).
    callee_tasks: Vec<usize>,
    /// Host processors (the stations after the callee pools).
    host_procs: Vec<usize>,
    /// Calls per cycle to each callee pool, `[ci * callees + si]`, for
    /// residence → per-call wait conversion.
    calls_per_cycle: Vec<f64>,
    /// Processor visits per cycle, `[ci * procs + pi]`.
    proc_visits_cycle: Vec<f64>,
    /// The open sub-streams' equivalents of the two above.
    open_calls_cycle: Vec<f64>,
    open_pvisits_cycle: Vec<f64>,
    /// Callee demand terms in accumulation order.
    terms: Vec<DemandTerm>,
    open_terms: Vec<DemandTerm>,
    /// The submodel, kept allocated across iterations.
    net: MixedNetwork,
    /// Open residences of the last solve, `[oi * stations + s]`.
    open_residence: Vec<f64>,
    /// (wait·weight, weight) per original chain/flow and station:
    /// `[k * callees + si]` and `[k * procs + pi]`.
    tw_acc: Vec<(f64, f64)>,
    pw_acc: Vec<(f64, f64)>,
    otw_acc: Vec<(f64, f64)>,
    opw_acc: Vec<(f64, f64)>,
}

impl LevelPlan {
    /// Plans `level`'s submodel, or `None` when it has no customers or no
    /// stations.
    fn build(
        model: &LqnModel,
        prep: &Prepared,
        level: usize,
        task_visits: &[Vec<f64>],
        open_task_visits: &[Vec<f64>],
    ) -> Option<LevelPlan> {
        let kn = prep.chains.len();
        let on = prep.open_tasks.len();
        let tn = model.tasks().len();
        // Customer tasks at this level (reference chains at level 0). The
        // deepest level has no callee pools, but its submodel still
        // corrects the host processors' waits (the flat initialisation
        // deliberately overestimates them).
        let customer_tasks: Vec<usize> = (0..tn)
            .filter(|&t| {
                prep.depths[t] == level
                    && if level == 0 {
                        model.tasks()[t].is_reference()
                    } else {
                        !model.tasks()[t].is_source()
                            && ((0..kn).any(|k| task_visits[k][t] > 0.0)
                                || (0..on).any(|o| open_task_visits[o][t] > 0.0))
                    }
            })
            .collect();
        if customer_tasks.is_empty() {
            return None;
        }

        // Sub-chains: one per (chain, customer task) pair with traffic.
        // Thread populations are set by `update` before every solve.
        let mut sub_chains = Vec::new();
        let mut pool_caps = Vec::new();
        for &t in &customer_tasks {
            let first = sub_chains.len();
            sub_chains.extend(
                (0..kn)
                    .filter(|&k| {
                        if level == 0 {
                            prep.chains[k] == t
                        } else {
                            task_visits[k][t] != 0.0
                        }
                    })
                    .map(|k| (k, t)),
            );
            // Cap total thread-customers of a finite pool at its size.
            if let (true, Multiplicity::Finite(m)) = (level > 0, model.tasks()[t].multiplicity) {
                pool_caps.push((first..sub_chains.len(), m));
            }
        }
        let (populations, think_ms): (Vec<f64>, Vec<f64>) = sub_chains
            .iter()
            .map(|&(k, _)| {
                if level == 0 {
                    let own = model.entries()[prep.ref_entry[k]].demand_ms;
                    (prep.populations[k], prep.think_ms[k] + own)
                } else {
                    (0.0, 0.0)
                }
            })
            .unzip();

        // Open sub-streams through this level: at level 0 an open source
        // injects its arrival stream; at deeper levels a stream follows
        // the flow's visit counts through the level's tasks.
        let mut sub_streams = Vec::new();
        let mut stream_tasks = Vec::new();
        let mut rates = Vec::new();
        for (o, (&src, &rate)) in prep.open_tasks.iter().zip(&prep.open_rates).enumerate() {
            if level == 0 {
                sub_streams.push(o);
                stream_tasks.push(src);
                rates.push(rate);
            } else {
                for &t in &customer_tasks {
                    let v = open_task_visits[o][t];
                    if v > 0.0 {
                        sub_streams.push(o);
                        stream_tasks.push(t);
                        rates.push(rate * v);
                    }
                }
            }
        }

        // Stations: callee thread pools (finite multiplicity, any deeper
        // level) and — for level ≥ 1 — the finite processors hosting the
        // customer tasks (and open-stream source/carrier tasks).
        let mut callee_tasks: Vec<usize> = Vec::new();
        let mut host_procs: Vec<usize> = Vec::new();
        for &t in customer_tasks.iter().chain(&stream_tasks) {
            for e in &model.tasks()[t].entries {
                for call in &model.entries()[e.0].calls {
                    let t2 = model.entries()[call.target.0].task.0;
                    if !model.tasks()[t2].multiplicity.is_infinite() && !callee_tasks.contains(&t2)
                    {
                        callee_tasks.push(t2);
                    }
                }
            }
            if level > 0 {
                let p = model.tasks()[t].processor.0;
                if !model.processors()[p].multiplicity.is_infinite() && !host_procs.contains(&p) {
                    host_procs.push(p);
                }
            }
        }
        if callee_tasks.is_empty() && host_procs.is_empty() {
            return None;
        }

        // Per-customer demands at each station, per customer-task visit.
        let mut closed_rows = Rows::new(sub_chains.len(), level, &callee_tasks, &host_procs);
        for (ci, &(k, t)) in sub_chains.iter().enumerate() {
            let v_t = if level == 0 { 1.0 } else { task_visits[k][t] };
            closed_rows.add(model, ci, t, &prep.visits[k], v_t);
        }
        let mut open_rows = Rows::new(sub_streams.len(), level, &callee_tasks, &host_procs);
        for (oi, (&o, &t)) in sub_streams.iter().zip(&stream_tasks).enumerate() {
            let v_t = if level == 0 {
                1.0
            } else {
                open_task_visits[o][t]
            };
            open_rows.add(model, oi, t, &prep.open_visits[o], v_t);
        }

        let sn = callee_tasks.len() + host_procs.len();
        let cn = sub_chains.len();
        let net = MixedNetwork {
            closed: ClosedNetwork {
                populations,
                think_ms,
                stations: callee_tasks
                    .iter()
                    .map(|&t| queueing(model.tasks()[t].multiplicity))
                    .chain(
                        host_procs
                            .iter()
                            .map(|&p| queueing(model.processors()[p].multiplicity)),
                    )
                    .enumerate()
                    .map(|(si, kind)| Station {
                        kind,
                        demands: (0..cn)
                            .map(|ci| closed_rows.demands[ci * sn + si])
                            .collect(),
                    })
                    .collect(),
            },
            open: rates
                .iter()
                .enumerate()
                .map(|(oi, &rate_per_ms)| OpenClass {
                    rate_per_ms,
                    demands: open_rows.demands[oi * sn..(oi + 1) * sn].to_vec(),
                })
                .collect(),
        };
        Some(LevelPlan {
            slot: 1 + level,
            threads: level > 0,
            sub_chains,
            sub_streams,
            pool_caps,
            tw_acc: vec![(0.0, 0.0); kn * callee_tasks.len()],
            pw_acc: vec![(0.0, 0.0); kn * host_procs.len()],
            otw_acc: vec![(0.0, 0.0); on * callee_tasks.len()],
            opw_acc: vec![(0.0, 0.0); on * host_procs.len()],
            calls_per_cycle: closed_rows.calls_cycle,
            proc_visits_cycle: closed_rows.pvisits_cycle,
            open_calls_cycle: open_rows.calls_cycle,
            open_pvisits_cycle: open_rows.pvisits_cycle,
            terms: closed_rows.terms,
            open_terms: open_rows.terms,
            net,
            open_residence: Vec::new(),
            // Last: the rows above borrow these until they are moved out.
            callee_tasks,
            host_procs,
        })
    }

    /// Rewrites the numbers that depend on the outer iteration's state:
    /// thread populations (Little's law, capped by N_k and the pool size)
    /// and the callee-pool demand columns (`coef × holding`, accumulated
    /// in planning order).
    fn update(
        &mut self,
        model: &LqnModel,
        prep: &Prepared,
        holding: &[Vec<f64>],
        open_holding: &[Vec<f64>],
        throughput_per_ms: &[f64],
    ) {
        let populations = &mut self.net.closed.populations;
        if self.threads {
            for (ci, &(k, t)) in self.sub_chains.iter().enumerate() {
                let holding_total: f64 = model.tasks()[t]
                    .entries
                    .iter()
                    .map(|e| prep.visits[k][e.0] * holding[k][e.0])
                    .sum();
                // Concurrently active chain-k threads of t (Little's law:
                // X × thread-holding time per cycle).
                populations[ci] = (throughput_per_ms[k] * holding_total).min(prep.populations[k]);
            }
            for (range, m) in &self.pool_caps {
                let m = f64::from(*m);
                let pool = &mut populations[range.clone()];
                let total: f64 = pool.iter().sum();
                if total > m {
                    let scale = m / total;
                    for p in pool {
                        *p *= scale;
                    }
                }
            }
        }

        let sn_tasks = self.callee_tasks.len();
        for st in &mut self.net.closed.stations[..sn_tasks] {
            st.demands.fill(0.0);
        }
        for term in &self.terms {
            let k = self.sub_chains[term.ci].0;
            self.net.closed.stations[term.si].demands[term.ci] +=
                term.coef * holding[k][term.target];
        }
        for oc in &mut self.net.open {
            oc.demands[..sn_tasks].fill(0.0);
        }
        for term in &self.open_terms {
            let o = self.sub_streams[term.ci];
            self.net.open[term.ci].demands[term.si] += term.coef * open_holding[o][term.target];
        }
    }

    /// Folds the solved residences back into per-call / per-visit waits,
    /// accumulating call-weighted means per original chain (and open
    /// flow), and under-relaxes the waits toward them.
    fn fold(
        &mut self,
        ws: &AmvaWorkspace,
        under_relax: f64,
        (task_wait, proc_wait): (&mut [Vec<f64>], &mut [Vec<f64>]),
        (open_task_wait, open_proc_wait): (&mut [Vec<f64>], &mut [Vec<f64>]),
    ) {
        let sn_tasks = self.callee_tasks.len();
        let sn_procs = self.host_procs.len();
        let stations = &self.net.closed.stations;

        self.tw_acc.fill((0.0, 0.0));
        self.pw_acc.fill((0.0, 0.0));
        for (ci, &(k, _)) in self.sub_chains.iter().enumerate() {
            let (task_res, proc_res) = ws.residence_ms(ci).split_at(sn_tasks);
            let population = self.net.closed.populations[ci];
            accumulate(
                &mut self.tw_acc[k * sn_tasks..(k + 1) * sn_tasks],
                &self.calls_per_cycle[ci * sn_tasks..(ci + 1) * sn_tasks],
                task_res,
                |si| stations[si].demands[ci],
                population,
            );
            accumulate(
                &mut self.pw_acc[k * sn_procs..(k + 1) * sn_procs],
                &self.proc_visits_cycle[ci * sn_procs..(ci + 1) * sn_procs],
                proc_res,
                |pi| stations[sn_tasks + pi].demands[ci],
                population,
            );
        }
        relax(&self.tw_acc, &self.callee_tasks, under_relax, task_wait);
        relax(&self.pw_acc, &self.host_procs, under_relax, proc_wait);

        // Open-stream waits from the open residences.
        let sn = sn_tasks + sn_procs;
        self.otw_acc.fill((0.0, 0.0));
        self.opw_acc.fill((0.0, 0.0));
        for (oi, (&o, oc)) in self.sub_streams.iter().zip(&self.net.open).enumerate() {
            let (task_res, proc_res) =
                self.open_residence[oi * sn..(oi + 1) * sn].split_at(sn_tasks);
            let (task_demand, proc_demand) = oc.demands.split_at(sn_tasks);
            accumulate(
                &mut self.otw_acc[o * sn_tasks..(o + 1) * sn_tasks],
                &self.open_calls_cycle[oi * sn_tasks..(oi + 1) * sn_tasks],
                task_res,
                |si| task_demand[si],
                oc.rate_per_ms,
            );
            accumulate(
                &mut self.opw_acc[o * sn_procs..(o + 1) * sn_procs],
                &self.open_pvisits_cycle[oi * sn_procs..(oi + 1) * sn_procs],
                proc_res,
                |pi| proc_demand[pi],
                oc.rate_per_ms,
            );
        }
        relax(
            &self.otw_acc,
            &self.callee_tasks,
            under_relax,
            open_task_wait,
        );
        relax(&self.opw_acc, &self.host_procs, under_relax, open_proc_wait);
    }
}

/// Adds one customer's waits to its chain's `(wait·weight, weight)`
/// accumulators: at each station it visits `count > 0` times per cycle,
/// the per-visit wait is `(residence − demand) / count`, weighted by
/// `base × count` (`base` is the customer's population or arrival rate).
fn accumulate(
    acc: &mut [(f64, f64)],
    counts: &[f64],
    residence: &[f64],
    demand: impl Fn(usize) -> f64,
    base: f64,
) {
    for (s, (&count, &r)) in counts.iter().zip(residence).enumerate() {
        if count > 0.0 {
            let wait = ((r - demand(s)) / count).max(0.0);
            let weight = base.max(1e-12) * count;
            acc[s].0 += wait * weight;
            acc[s].1 += weight;
        }
    }
}

/// Moves each `waits[k][targets[i]]` a fraction `under_relax` toward the
/// weighted mean in `acc[k * targets.len() + i]`, where it has weight.
fn relax(acc: &[(f64, f64)], targets: &[usize], under_relax: f64, waits: &mut [Vec<f64>]) {
    for (k, row) in waits.iter_mut().enumerate() {
        for (i, &target) in targets.iter().enumerate() {
            let (sum, w) = acc[k * targets.len() + i];
            if w > 0.0 {
                let new_wait = sum / w;
                row[target] += under_relax * (new_wait - row[target]);
            }
        }
    }
}

/// The planned rows of one level's closed sub-chains or open sub-streams.
struct Rows<'a> {
    level: usize,
    /// The level's callee pools (stations `0..callee_tasks.len()`) and
    /// host processors (the stations after them).
    callee_tasks: &'a [usize],
    host_procs: &'a [usize],
    /// Constant (host-processor) demands, `[row * stations + s]`; the
    /// callee columns stay zero here and come from `terms`.
    demands: Vec<f64>,
    /// Calls per cycle to each callee pool, `[row * callees + si]`.
    calls_cycle: Vec<f64>,
    /// Host-processor visits per cycle, `[row * procs + pi]`.
    pvisits_cycle: Vec<f64>,
    terms: Vec<DemandTerm>,
}

impl<'a> Rows<'a> {
    fn new(rows: usize, level: usize, callee_tasks: &'a [usize], host_procs: &'a [usize]) -> Self {
        let (sn_tasks, sn_procs) = (callee_tasks.len(), host_procs.len());
        Rows {
            level,
            callee_tasks,
            host_procs,
            demands: vec![0.0; rows * (sn_tasks + sn_procs)],
            calls_cycle: vec![0.0; rows * sn_tasks],
            pvisits_cycle: vec![0.0; rows * sn_procs],
            terms: Vec::new(),
        }
    }

    /// Plans row `ci`, a customer of task `t` with per-cycle entry
    /// `visits` and `v_t` visits to `t` per cycle.
    fn add(&mut self, model: &LqnModel, ci: usize, t: usize, visits: &[f64], v_t: f64) {
        let (sn_tasks, sn_procs) = (self.callee_tasks.len(), self.host_procs.len());
        let sn = sn_tasks + sn_procs;
        for e in &model.tasks()[t].entries {
            let entry = &model.entries()[e.0];
            let share = visits[e.0] / v_t;
            if share == 0.0 {
                continue;
            }
            for call in &entry.calls {
                let t2 = model.entries()[call.target.0].task.0;
                if let Some(si) = self.callee_tasks.iter().position(|&x| x == t2) {
                    let coef = share * call.mean_calls;
                    self.terms.push(DemandTerm {
                        ci,
                        si,
                        coef,
                        target: call.target.0,
                    });
                    self.calls_cycle[ci * sn_tasks + si] += coef;
                }
            }
            let total_demand = entry.demand_ms + entry.phase2_demand_ms;
            if self.level > 0 && total_demand > 0.0 {
                let p = model.tasks()[t].processor.0;
                if let Some(pi) = self.host_procs.iter().position(|&x| x == p) {
                    self.demands[ci * sn + sn_tasks + pi] += share * total_demand;
                    self.pvisits_cycle[ci * sn_procs + pi] += share;
                }
            }
        }
    }
}

/// Solves the model analytically. See the module docs for the algorithm.
pub fn solve(model: &LqnModel, opts: &SolverOptions) -> Result<SolverResult, PredictError> {
    solve_with_pool(model, opts, &mut Vec::new())
}

/// [`solve`] against a caller-held pool of AMVA workspaces, one per
/// submodel (seed solve + one per layer). Within a solve every outer
/// iteration re-solves the same-shaped submodels, so each workspace
/// warm-starts from the previous iteration's queue lengths; a caller
/// sweeping a family of models (e.g. a max-throughput population search)
/// can hold the pool across calls to extend the warm start over the whole
/// sweep. The pool is an implementation detail of performance only — the
/// returned result is a pure function of `(model, opts)` up to the AMVA
/// convergence tolerance, and callers needing bit-exact reproducibility
/// across runs must pass pools with the same solve history (or fresh
/// ones).
///
/// Each level's submodel is planned once per solve (a `LevelPlan`: its
/// customers, stations, visit ratios and constant demands, plus a
/// `MixedNetwork` that stays allocated). An outer iteration only rewrites
/// the thread populations and callee-pool demands in place and solves
/// with [`solve_mixed_into`], which leaves the solution in the workspace,
/// so the iterations themselves allocate nothing once the pool is warm.
/// What still allocates, once per solve: model preparation (visit
/// vectors, the entry order), the waiting-time state, the flat seed
/// network, the level plans and the returned [`SolverResult`].
pub fn solve_with_pool(
    model: &LqnModel,
    opts: &SolverOptions,
    ws_pool: &mut Vec<AmvaWorkspace>,
) -> Result<SolverResult, PredictError> {
    let prep = prepare(model)?;
    let kn = prep.chains.len();
    let en = model.entries().len();
    let tn = model.tasks().len();
    let pn = model.processors().len();

    let mut task_wait = vec![vec![0.0f64; tn]; kn];
    let mut proc_wait = vec![vec![0.0f64; pn]; kn];
    let mut elapsed = vec![vec![0.0f64; en]; kn];
    // Thread-holding time: phase-1 elapsed plus any second phase (§5's
    // "service with a second phase" — the caller does not wait for it but
    // the thread stays busy).
    let mut holding = vec![vec![0.0f64; en]; kn];
    let mut response = vec![0.0f64; kn];
    let mut throughput_per_ms = vec![0.0f64; kn];
    let mut converged = false;
    let mut converged_streak = 0usize;
    let mut iterations = 0;
    // Metrics are accumulated locally and flushed once on exit; the outer
    // iteration must not touch the shared registry per pass.
    let mut mva_solves = 0u64;
    let mut amva_iterations = 0u64;
    let mut last_delta = f64::INFINITY;

    // Chain visit totals per task and per processor (constant).
    let mut task_visits = vec![vec![0.0f64; tn]; kn];
    let mut proc_visits = vec![vec![0.0f64; pn]; kn];
    let mut proc_demand = vec![vec![0.0f64; pn]; kn];
    for k in 0..kn {
        for (e, entry) in model.entries().iter().enumerate() {
            let v = prep.visits[k][e];
            if v == 0.0 {
                continue;
            }
            task_visits[k][entry.task.0] += v;
            let total_demand = entry.demand_ms + entry.phase2_demand_ms;
            if total_demand > 0.0 {
                let p = model.tasks()[entry.task.0].processor.0;
                proc_visits[k][p] += v;
                proc_demand[k][p] += v * total_demand;
            }
        }
    }

    // Open-flow state.
    let on = prep.open_tasks.len();
    let mut open_task_wait = vec![vec![0.0f64; tn]; on];
    let mut open_proc_wait = vec![vec![0.0f64; pn]; on];
    let mut open_elapsed = vec![vec![0.0f64; en]; on];
    let mut open_holding = vec![vec![0.0f64; en]; on];
    let mut open_response = vec![0.0f64; on];
    let mut open_task_visits = vec![vec![0.0f64; tn]; on];
    let mut open_proc_demand = vec![vec![0.0f64; pn]; on];
    let mut open_proc_visits = vec![vec![0.0f64; pn]; on];
    for o in 0..on {
        for (e, entry) in model.entries().iter().enumerate() {
            let v = prep.open_visits[o][e];
            if v == 0.0 {
                continue;
            }
            open_task_visits[o][entry.task.0] += v;
            let total_demand = entry.demand_ms + entry.phase2_demand_ms;
            if total_demand > 0.0 {
                let p = model.tasks()[entry.task.0].processor.0;
                open_proc_visits[o][p] += v;
                open_proc_demand[o][p] += v * total_demand;
            }
        }
    }

    let max_depth = prep.depths.iter().copied().max().unwrap_or(0);

    // One reusable workspace per submodel: slot 0 seeds the flat device
    // model, slot 1 + level serves that layer. Submodel shapes are stable
    // across outer iterations, so every re-solve after the first
    // warm-starts from the previous iteration's queue lengths.
    ws_pool.resize_with((max_depth + 2).max(ws_pool.len()), AmvaWorkspace::new);

    // Seed the processor waits from a *flat* device-level AMVA (every chain
    // queueing directly at every finite processor it uses). This
    // deliberately overestimates contention — it ignores the concurrency
    // limits imposed by thread pools — but it starts the layered fixed
    // point in the saturated basin, from which the iteration relaxes
    // downward quickly. Starting from zero waits instead can strand the
    // solver near a degenerate unsaturated fixed point for many iterations.
    {
        let station_procs: Vec<usize> = (0..pn)
            .filter(|&p| {
                !model.processors()[p].multiplicity.is_infinite()
                    && (0..kn).any(|k| proc_demand[k][p] > 0.0)
            })
            .collect();
        if !station_procs.is_empty() {
            let sn = station_procs.len();
            let net = MixedNetwork {
                closed: ClosedNetwork {
                    populations: prep.populations.clone(),
                    think_ms: prep.think_ms.clone(),
                    stations: station_procs
                        .iter()
                        .map(|&p| Station {
                            kind: queueing(model.processors()[p].multiplicity),
                            demands: (0..kn).map(|k| proc_demand[k][p]).collect(),
                        })
                        .collect(),
                },
                open: (0..on)
                    .map(|o| OpenClass {
                        rate_per_ms: prep.open_rates[o],
                        demands: station_procs
                            .iter()
                            .map(|&p| open_proc_demand[o][p])
                            .collect(),
                    })
                    .collect(),
            };
            // An open load that saturates a processor is unstable: the
            // mixed solver rejects it here, before any iteration.
            mva_solves += 1;
            let ws = &mut ws_pool[0];
            let mut open_residence = Vec::new();
            solve_mixed_into(&net, &opts.amva, ws, &mut open_residence)?;
            amva_iterations += ws.iterations() as u64;
            for k in 0..kn {
                let residence = ws.residence_ms(k);
                for (si, &p) in station_procs.iter().enumerate() {
                    if proc_visits[k][p] > 0.0 {
                        proc_wait[k][p] =
                            ((residence[si] - proc_demand[k][p]) / proc_visits[k][p]).max(0.0);
                    }
                }
            }
            for o in 0..on {
                for (si, &p) in station_procs.iter().enumerate() {
                    if open_proc_visits[o][p] > 0.0 {
                        open_proc_wait[o][p] = ((open_residence[o * sn + si]
                            - open_proc_demand[o][p])
                            / open_proc_visits[o][p])
                            .max(0.0);
                    }
                }
            }
        }
    }

    // The level submodels' structure is fixed by the model: plan each
    // once, then only update its numbers on every outer iteration.
    let mut plans: Vec<LevelPlan> = (0..=max_depth)
        .filter_map(|level| LevelPlan::build(model, &prep, level, &task_visits, &open_task_visits))
        .collect();

    for iter in 1..=opts.max_iterations {
        iterations = iter;

        // (1) Entry elapsed times, bottom-up.
        for k in 0..kn {
            for &e in &prep.bottom_up {
                if prep.visits[k][e] == 0.0 {
                    elapsed[k][e] = 0.0;
                    continue;
                }
                let entry = &model.entries()[e];
                let p = model.tasks()[entry.task.0].processor.0;
                let mut x = entry.demand_ms;
                if entry.demand_ms > 0.0 {
                    x += proc_wait[k][p];
                }
                for call in &entry.calls {
                    let tgt = call.target.0;
                    let tgt_task = model.entries()[tgt].task.0;
                    x += call.mean_calls * (task_wait[k][tgt_task] + elapsed[k][tgt]);
                }
                elapsed[k][e] = x;
                // Holding adds the second phase's service; the single
                // per-cycle proc_wait already covers queueing for the
                // entry's full (phase 1 + phase 2) processor demand.
                holding[k][e] = x + entry.phase2_demand_ms;
            }
        }
        for o in 0..on {
            for &e in &prep.bottom_up {
                if prep.open_visits[o][e] == 0.0 {
                    open_elapsed[o][e] = 0.0;
                    continue;
                }
                let entry = &model.entries()[e];
                let p = model.tasks()[entry.task.0].processor.0;
                let mut x = entry.demand_ms;
                if entry.demand_ms > 0.0 {
                    x += open_proc_wait[o][p];
                }
                for call in &entry.calls {
                    let tgt = call.target.0;
                    let tgt_task = model.entries()[tgt].task.0;
                    x += call.mean_calls * (open_task_wait[o][tgt_task] + open_elapsed[o][tgt]);
                }
                open_elapsed[o][e] = x;
                open_holding[o][e] = x + entry.phase2_demand_ms;
            }
        }

        // (2) Chain response and throughput estimates.
        let mut max_delta = 0.0f64;
        for k in 0..kn {
            let r = elapsed[k][prep.ref_entry[k]];
            max_delta = max_delta.max((r - response[k]).abs());
            response[k] = r;
            let cycle = prep.think_ms[k] + r;
            throughput_per_ms[k] = if cycle > 0.0 && prep.populations[k] > 0.0 {
                prep.populations[k] / cycle
            } else {
                0.0
            };
        }
        for o in 0..on {
            let r = open_elapsed[o][prep.open_ref_entry[o]];
            max_delta = max_delta.max((r - open_response[o]).abs());
            open_response[o] = r;
        }
        last_delta = max_delta;

        // Never accept a fixed point that implies an infeasible operating
        // point (some finite station pushed past 100 % utilisation by the
        // current throughput estimate) — a coarse convergence criterion
        // could otherwise stop mid-ramp with throughputs above hardware
        // capacity.
        let mut feasible = true;
        for p in 0..pn {
            if let Multiplicity::Finite(m) = model.processors()[p].multiplicity {
                let closed_load: f64 = (0..kn)
                    .map(|k| throughput_per_ms[k] * proc_demand[k][p])
                    .sum();
                let open_load: f64 = (0..on)
                    .map(|o| prep.open_rates[o] * open_proc_demand[o][p])
                    .sum();
                if (closed_load + open_load) / f64::from(m) > 1.005 {
                    feasible = false;
                }
            }
        }

        // Require the criterion to hold over consecutive iterations so a
        // momentarily slow-moving ramp is not mistaken for a fixed point.
        if feasible && max_delta < opts.convergence_ms {
            converged_streak += 1;
            if iter > 3 && converged_streak >= 2 {
                converged = true;
                break;
            }
        } else {
            converged_streak = 0;
        }

        // (3) Level submodels (Method of Layers), see [`LevelPlan`]:
        // refresh each level's populations and callee demands from the
        // current holding times, solve it in place, and fold its
        // residences back into the waits.
        for plan in &mut plans {
            plan.update(model, &prep, &holding, &open_holding, &throughput_per_ms);
            mva_solves += 1;
            let ws = &mut ws_pool[plan.slot];
            solve_mixed_into(&plan.net, &opts.amva, ws, &mut plan.open_residence)?;
            amva_iterations += ws.iterations() as u64;
            plan.fold(
                ws,
                opts.under_relax,
                (&mut task_wait, &mut proc_wait),
                (&mut open_task_wait, &mut open_proc_wait),
            );
        }
    }

    // Utilisations from the final throughputs (closed + open).
    let mut processor_utilization = vec![0.0f64; pn];
    for p in 0..pn {
        let raw: f64 = (0..kn)
            .map(|k| throughput_per_ms[k] * proc_demand[k][p])
            .sum::<f64>()
            + (0..on)
                .map(|o| prep.open_rates[o] * open_proc_demand[o][p])
                .sum::<f64>();
        processor_utilization[p] = match model.processors()[p].multiplicity {
            Multiplicity::Finite(m) => raw / f64::from(m),
            Multiplicity::Infinite => raw,
        };
    }
    let mut task_utilization = vec![0.0f64; tn];
    for (t, task) in model.tasks().iter().enumerate() {
        if task.is_source() {
            continue;
        }
        let raw: f64 = (0..kn)
            .map(|k| {
                throughput_per_ms[k]
                    * model.tasks()[t]
                        .entries
                        .iter()
                        .map(|e| prep.visits[k][e.0] * holding[k][e.0])
                        .sum::<f64>()
            })
            .sum::<f64>()
            + (0..on)
                .map(|o| {
                    prep.open_rates[o]
                        * model.tasks()[t]
                            .entries
                            .iter()
                            .map(|e| prep.open_visits[o][e.0] * open_holding[o][e.0])
                            .sum::<f64>()
                })
                .sum::<f64>();
        task_utilization[t] = match model.tasks()[t].multiplicity {
            Multiplicity::Finite(m) => raw / f64::from(m),
            Multiplicity::Infinite => raw,
        };
    }

    // Flush the locally accumulated instrumentation in one pass.
    metrics::counter("lqns.solves").incr();
    metrics::counter("lqns.iterations").add(iterations as u64);
    metrics::counter("lqns.mva_solves").add(mva_solves);
    metrics::counter("lqns.amva_iterations").add(amva_iterations);
    if last_delta.is_finite() {
        metrics::histogram("lqns.convergence_residual_ms").record(last_delta);
    }

    if response
        .iter()
        .chain(open_response.iter())
        .any(|r| !r.is_finite())
    {
        return Err(PredictError::Solver(
            "layered solver produced non-finite response".into(),
        ));
    }

    Ok(SolverResult {
        chain_tasks: model.reference_tasks(),
        chain_response_ms: response,
        chain_throughput_rps: throughput_per_ms.iter().map(|x| x * 1_000.0).collect(),
        open_tasks: model.open_reference_tasks(),
        open_response_ms: open_response,
        open_throughput_rps: prep.open_rates.iter().map(|r| r * 1_000.0).collect(),
        entry_elapsed_ms: elapsed,
        processor_utilization,
        task_utilization,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LqnModel;

    /// Clients -> app(m threads) -> db, the shape of the paper's case study.
    fn trade_like(population: u32, think: f64, app_threads: u32) -> LqnModel {
        let mut b = LqnModel::builder();
        let cp = b.processor("client-cpu").infinite().finish();
        let ap = b.processor("app-cpu").finish();
        let dp = b.processor("db-cpu").finish();
        let app = b.task("app", ap).multiplicity(app_threads).finish();
        let db = b.task("db", dp).multiplicity(20).finish();
        let serve = b.entry("serve", app).demand_ms(5.0).finish();
        let query = b.entry("query", db).demand_ms(1.0).finish();
        b.call(serve, query, 1.14);
        let clients = b.reference_task("clients", cp, population, think).finish();
        let cycle = b.entry("cycle", clients).finish();
        b.call(cycle, serve, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn light_load_response_is_sum_of_demands() {
        // One client: no contention anywhere, R = 5 + 1.14·1 = 6.14 ms.
        let m = trade_like(1, 7_000.0, 50);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(sol.converged);
        assert!(
            (sol.chain_response_ms[0] - 6.14).abs() < 0.05,
            "R={}",
            sol.chain_response_ms[0]
        );
        // X = 1/(7000+6.14) cycles/ms ≈ 0.1427 req/s.
        let x = sol.chain_throughput_rps[0];
        assert!((x - 1_000.0 / 7_006.14).abs() < 0.001, "X={x}");
    }

    #[test]
    fn throughput_saturates_at_bottleneck() {
        // App CPU demand 5 ms ⇒ bound 200 req/s.
        let m = trade_like(4_000, 7_000.0, 50);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        let x = sol.chain_throughput_rps[0];
        assert!(x <= 200.0 + 0.5, "X={x}");
        assert!(x > 190.0, "X={x}");
        // The app CPU should be nearly saturated.
        let app_cpu = m.processor_by_name("app-cpu").unwrap();
        assert!(sol.processor_utilization[app_cpu.0] > 0.95);
    }

    #[test]
    fn response_monotone_in_population() {
        let mut last = 0.0;
        for &n in &[50u32, 400, 900, 1_400, 2_000, 3_000] {
            let sol = solve(&trade_like(n, 7_000.0, 50), &SolverOptions::default()).unwrap();
            let r = sol.chain_response_ms[0];
            assert!(
                r >= last - 1.0,
                "response decreased: {last} -> {r} at n={n}"
            );
            last = r;
        }
        // Deep saturation asymptote: R ≈ N/X − Z = N·5 − 7000.
        let sol = solve(&trade_like(3_000, 7_000.0, 50), &SolverOptions::default()).unwrap();
        let expect = 3_000.0 * 5.0 - 7_000.0;
        let r = sol.chain_response_ms[0];
        assert!((r - expect).abs() / expect < 0.05, "R={r} vs {expect}");
    }

    #[test]
    fn little_law_holds_at_fixed_point() {
        for &n in &[100u32, 800, 1_500] {
            let sol = solve(&trade_like(n, 7_000.0, 50), &SolverOptions::default()).unwrap();
            let x_per_ms = sol.chain_throughput_rps[0] / 1_000.0;
            let lhs = x_per_ms * (7_000.0 + sol.chain_response_ms[0]);
            assert!((lhs - f64::from(n)).abs() / f64::from(n) < 0.01, "n={n}");
        }
    }

    #[test]
    fn thread_starvation_inflates_response() {
        // Same demands, but only 1 app thread: requests queue for the
        // thread while the db call blocks it.
        let wide = solve(&trade_like(300, 1_000.0, 50), &SolverOptions::default()).unwrap();
        let narrow = solve(&trade_like(300, 1_000.0, 1), &SolverOptions::default()).unwrap();
        assert!(
            narrow.chain_response_ms[0] > wide.chain_response_ms[0] * 1.5,
            "narrow {} vs wide {}",
            narrow.chain_response_ms[0],
            wide.chain_response_ms[0]
        );
        // 1 thread holding ~6.14 ms per request caps throughput near
        // 163/s, below the 200/s CPU bound.
        assert!(narrow.chain_throughput_rps[0] < 170.0);
    }

    #[test]
    fn two_chains_mix() {
        // Browse + buy style: buy has double the demands.
        let mut b = LqnModel::builder();
        let cp = b.processor("client-cpu").infinite().finish();
        let ap = b.processor("app-cpu").finish();
        let dp = b.processor("db-cpu").finish();
        let app = b.task("app", ap).multiplicity(50).finish();
        let db = b.task("db", dp).multiplicity(20).finish();
        let browse = b.entry("browse", app).demand_ms(4.505).finish();
        let buy = b.entry("buy", app).demand_ms(8.761).finish();
        let bq = b.entry("browse-q", db).demand_ms(0.8294).finish();
        let uq = b.entry("buy-q", db).demand_ms(1.613).finish();
        b.call(browse, bq, 1.14);
        b.call(buy, uq, 2.0);
        let c1 = b.reference_task("browsers", cp, 750, 7_000.0).finish();
        let e1 = b.entry("browse-cycle", c1).finish();
        b.call(e1, browse, 1.0);
        let c2 = b.reference_task("buyers", cp, 250, 7_000.0).finish();
        let e2 = b.entry("buy-cycle", c2).finish();
        b.call(e2, buy, 1.0);
        let m = b.build().unwrap();

        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(sol.converged);
        // Buy requests are heavier, so slower.
        assert!(sol.chain_response_ms[1] > sol.chain_response_ms[0]);
        // Both chains below their saturation caps but positive.
        assert!(sol.chain_throughput_rps[0] > 0.0);
        assert!(sol.chain_throughput_rps[1] > 0.0);
        // Browse is ~3x the buy population so ~3x the throughput (think
        // times equal, responses small vs think).
        let ratio = sol.chain_throughput_rps[0] / sol.chain_throughput_rps[1];
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn zero_population_chain() {
        let m = trade_like(0, 7_000.0, 50);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert_eq!(sol.chain_throughput_rps[0], 0.0);
    }

    #[test]
    fn coarse_convergence_criterion_converges_faster() {
        // Away from the saturation knee the paper's 20 ms criterion agrees
        // with a fine criterion while using fewer iterations.
        for &n in &[800u32, 2_500, 4_000] {
            let m = trade_like(n, 7_000.0, 50);
            let fine = solve(
                &m,
                &SolverOptions {
                    convergence_ms: 0.01,
                    ..Default::default()
                },
            )
            .unwrap();
            let coarse = solve(&m, &SolverOptions::paper()).unwrap();
            assert!(coarse.iterations <= fine.iterations, "n={n}");
            let rel = (fine.chain_response_ms[0] - coarse.chain_response_ms[0]).abs()
                / fine.chain_response_ms[0].max(1.0);
            assert!(
                rel < 0.25,
                "n={n}: fine {} vs coarse {}",
                fine.chain_response_ms[0],
                coarse.chain_response_ms[0]
            );
        }
    }

    #[test]
    fn knee_solutions_stay_feasible_under_coarse_criterion() {
        // §4.2 reports anomalies from the 20 ms convergence criterion near
        // max throughput. Our solver refuses to *stop* in an infeasible
        // state: even with the coarse criterion, the reported throughput
        // never exceeds the bottleneck capacity, and the knee solution
        // stays in the fine solution's neighbourhood.
        let m = trade_like(1_500, 7_000.0, 50); // knee ≈ 1450 clients
        let fine = solve(
            &m,
            &SolverOptions {
                convergence_ms: 0.01,
                ..Default::default()
            },
        )
        .unwrap();
        let coarse = solve(&m, &SolverOptions::paper()).unwrap();
        // App CPU bound: 1000/5 = 200 req/s.
        assert!(
            coarse.chain_throughput_rps[0] <= 200.0 * 1.01,
            "infeasible throughput {}",
            coarse.chain_throughput_rps[0]
        );
        assert!(fine.chain_throughput_rps[0] <= 200.0 * 1.01);
        // Knee responses agree within the coarse criterion's slop.
        let rel = (coarse.chain_response_ms[0] - fine.chain_response_ms[0]).abs()
            / fine.chain_response_ms[0];
        assert!(
            rel < 0.35,
            "coarse {} vs fine {}",
            coarse.chain_response_ms[0],
            fine.chain_response_ms[0]
        );
    }

    #[test]
    fn reference_task_with_two_entries_rejected() {
        let mut b = LqnModel::builder();
        let p = b.processor("p").infinite().finish();
        let r = b.reference_task("r", p, 10, 100.0).finish();
        b.entry("a", r).finish();
        b.entry("b", r).finish();
        let m = b.build().unwrap();
        assert!(solve(&m, &SolverOptions::default()).is_err());
    }

    #[test]
    fn utilization_scales_with_population() {
        let lo = solve(&trade_like(200, 7_000.0, 50), &SolverOptions::default()).unwrap();
        let hi = solve(&trade_like(1_000, 7_000.0, 50), &SolverOptions::default()).unwrap();
        assert!(hi.processor_utilization[1] > lo.processor_utilization[1]);
        // At 200 clients: X ≈ 28.5/s, U_app ≈ 28.5·0.005 ≈ 0.143.
        assert!((lo.processor_utilization[1] - 0.143).abs() < 0.01);
    }

    #[test]
    fn db_sees_visit_scaled_utilization() {
        let sol = solve(&trade_like(700, 7_000.0, 50), &SolverOptions::default()).unwrap();
        let m = trade_like(700, 7_000.0, 50);
        let app = m.processor_by_name("app-cpu").unwrap().0;
        let db = m.processor_by_name("db-cpu").unwrap().0;
        // U_db / U_app = (1.14·1.0)/(5.0) = 0.228.
        let ratio = sol.processor_utilization[db] / sol.processor_utilization[app];
        assert!((ratio - 0.228).abs() < 0.01, "ratio {ratio}");
    }
}

#[cfg(test)]
mod open_tests {
    use super::*;
    use crate::model::LqnModel;

    /// Open Poisson source -> app (50 threads) -> db, the §8.1 "constant
    /// rate" variant of the case study shape.
    fn open_trade(rate_rps: f64, app_demand: f64) -> LqnModel {
        let mut b = LqnModel::builder();
        let cp = b.processor("src-cpu").infinite().finish();
        let ap = b.processor("app-cpu").finish();
        let dp = b.processor("db-cpu").finish();
        let app = b.task("app", ap).multiplicity(50).finish();
        let db = b.task("db", dp).multiplicity(20).finish();
        let serve = b.entry("serve", app).demand_ms(app_demand).finish();
        let query = b.entry("query", db).demand_ms(1.0).finish();
        b.call(serve, query, 1.14);
        let src = b.open_reference_task("source", cp, rate_rps).finish();
        let arrive = b.entry("arrive", src).finish();
        b.call(arrive, serve, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn light_open_load_is_service_time() {
        let m = open_trade(10.0, 5.0);
        let sol = solve(&m, &SolverOptions::default()).unwrap();
        assert!(sol.converged);
        assert_eq!(sol.open_response_ms.len(), 1);
        // 10 req/s on a 200 req/s server: rho = 0.05, W ≈ D/(1-rho) ≈ 6.5.
        let r = sol.open_response_ms[0];
        assert!(r > 6.0 && r < 8.0, "open response {r}");
        assert_eq!(sol.open_throughput_rps[0], 10.0);
        assert_eq!(sol.total_throughput_rps(), 10.0);
    }

    #[test]
    fn open_response_grows_toward_saturation() {
        // M/M/1-like growth: at rho = 0.9 the response is ~10x the demand.
        let low = solve(&open_trade(20.0, 5.0), &SolverOptions::default()).unwrap();
        let high = solve(&open_trade(180.0, 5.0), &SolverOptions::default()).unwrap();
        assert!(
            high.open_response_ms[0] > low.open_response_ms[0] * 4.0,
            "low {} high {}",
            low.open_response_ms[0],
            high.open_response_ms[0]
        );
        // rho = 0.9 at the app CPU.
        let m = open_trade(180.0, 5.0);
        let app = m.processor_by_name("app-cpu").unwrap();
        assert!((high.processor_utilization[app.0] - 0.9).abs() < 0.02);
    }

    #[test]
    fn unstable_open_load_rejected() {
        // 250 req/s against a 200 req/s CPU: no steady state.
        let m = open_trade(250.0, 5.0);
        let err = solve(&m, &SolverOptions::default()).unwrap_err();
        assert!(err.to_string().contains("saturates"), "{err}");
    }

    #[test]
    fn open_traffic_slows_closed_chain() {
        // Closed clients sharing the app server with an open stream.
        let build = |rate: f64| {
            let mut b = LqnModel::builder();
            let cp = b.processor("client-cpu").infinite().finish();
            let ap = b.processor("app-cpu").finish();
            let app = b.task("app", ap).multiplicity(50).finish();
            let serve = b.entry("serve", app).demand_ms(5.0).finish();
            let clients = b.reference_task("clients", cp, 400, 7_000.0).finish();
            let cycle = b.entry("cycle", clients).finish();
            b.call(cycle, serve, 1.0);
            if rate > 0.0 {
                let src = b.open_reference_task("source", cp, rate).finish();
                let arrive = b.entry("arrive", src).finish();
                b.call(arrive, serve, 1.0);
            }
            b.build().unwrap()
        };
        let quiet = solve(&build(0.0), &SolverOptions::default()).unwrap();
        let busy = solve(&build(120.0), &SolverOptions::default()).unwrap();
        assert!(
            busy.chain_response_ms[0] > quiet.chain_response_ms[0] * 1.5,
            "quiet {} busy {}",
            quiet.chain_response_ms[0],
            busy.chain_response_ms[0]
        );
        // Aggregate throughput counts both flows.
        assert!(busy.total_throughput_rps() > busy.chain_throughput_rps[0] + 119.0);
    }

    #[test]
    fn open_format_round_trip() {
        let m = open_trade(42.5, 5.0);
        let text = crate::format::serialize(&m);
        assert!(text.contains("openreftask source"));
        let m2 = crate::format::parse(&text).unwrap();
        assert_eq!(m, m2);
    }
}

#[cfg(test)]
mod phase2_tests {
    use super::*;
    use crate::model::LqnModel;

    /// Clients -> app, where the app entry splits its work between phase 1
    /// (caller waits) and phase 2 (after the reply).
    fn two_phase(population: u32, phase1: f64, phase2: f64, threads: u32) -> LqnModel {
        let mut b = LqnModel::builder();
        let cp = b.processor("client-cpu").infinite().finish();
        let ap = b.processor("app-cpu").finish();
        let app = b.task("app", ap).multiplicity(threads).finish();
        let serve = b
            .entry("serve", app)
            .demand_ms(phase1)
            .phase2_ms(phase2)
            .finish();
        let clients = b
            .reference_task("clients", cp, population, 7_000.0)
            .finish();
        let cycle = b.entry("cycle", clients).finish();
        b.call(cycle, serve, 1.0);
        b.build().unwrap()
    }

    #[test]
    fn second_phase_cuts_light_load_response() {
        // Same 8 ms of total work; phase 2 hides 5 ms of it from the
        // caller.
        let single = solve(&two_phase(50, 8.0, 0.0, 50), &SolverOptions::default()).unwrap();
        let split = solve(&two_phase(50, 3.0, 5.0, 50), &SolverOptions::default()).unwrap();
        assert!((single.chain_response_ms[0] - 8.0).abs() < 0.5);
        assert!(
            split.chain_response_ms[0] < 4.0,
            "phase-1 response {}",
            split.chain_response_ms[0]
        );
    }

    #[test]
    fn second_phase_still_consumes_the_processor() {
        // Total demand 8 ms either way: the saturation throughput must be
        // identical (phase 2 is free latency, not free work).
        let single = solve(&two_phase(3_000, 8.0, 0.0, 50), &SolverOptions::default()).unwrap();
        let split = solve(&two_phase(3_000, 3.0, 5.0, 50), &SolverOptions::default()).unwrap();
        let bound = 1_000.0 / 8.0;
        let rel = |x: f64| (x - bound).abs() / bound;
        assert!(
            rel(single.chain_throughput_rps[0]) < 0.05,
            "single X {}",
            single.chain_throughput_rps[0]
        );
        assert!(
            rel(split.chain_throughput_rps[0]) < 0.05,
            "split X {}",
            split.chain_throughput_rps[0]
        );
        // And the two agree with each other closely.
        assert!(
            (single.chain_throughput_rps[0] - split.chain_throughput_rps[0]).abs()
                / single.chain_throughput_rps[0]
                < 0.03
        );
        // Utilisation accounts for both phases.
        assert!(split.processor_utilization[1] > 0.95);
    }

    #[test]
    fn second_phase_occupies_threads() {
        // 2 threads, 1 ms phase-1 + 9 ms phase-2: thread holding is ~10 ms,
        // capping throughput at ~200/s even though phase-1 alone would
        // allow ~1000/s through the pool.
        let sol = solve(&two_phase(2_000, 1.0, 9.0, 2), &SolverOptions::default()).unwrap();
        assert!(
            sol.chain_throughput_rps[0] < 230.0,
            "X {} not limited by phase-2 thread holding",
            sol.chain_throughput_rps[0]
        );
    }

    #[test]
    fn phase2_format_round_trip() {
        let m = two_phase(100, 3.0, 5.0, 50);
        let text = crate::format::serialize(&m);
        assert!(text.contains("phase2=5"));
        let m2 = crate::format::parse(&text).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn negative_phase2_rejected() {
        let mut b = LqnModel::builder();
        let p = b.processor("p").infinite().finish();
        let r = b.reference_task("r", p, 1, 0.0).finish();
        b.entry("e", r).phase2_ms(-1.0).finish();
        assert!(b.build().is_err());
    }
}
