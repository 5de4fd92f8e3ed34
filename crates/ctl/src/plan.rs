//! The decision core: a *pure* function from (configuration, controller
//! state, one tick of scrapes) to (decision, next state).
//!
//! Everything observable about a tick is inside [`TickInputs`]; nothing
//! in here reads clocks, RNGs (the what-if simulation seed is derived
//! from the tick index) or ambient state. That purity is the contract
//! behind the decision journal: replaying recorded inputs through
//! [`decide`] reproduces the decision sequence byte for byte.
//!
//! The planning rule is §9's, specialised to a homogeneous tier by
//! [`perfpred_resman::online::plan_replicas`]: estimate the client
//! population from the tier's smoothed arrival rate via Little's law
//! (`N = λ · (Z + R)`), split it per replica, and pick the smallest
//! replica count whose predicted response times clear every SLA goal by
//! the admission margin. Hysteresis (consecutive-tick streaks plus
//! per-direction cooldowns) keeps a noisy boundary estimate from
//! flapping the tier.

use crate::models::{server_arch, PlanMethod, WhatIfMode};
use crate::scrape::NodeScrape;
use perfpred_core::workload::{ClassLoad, RequestType, ServiceClass};
use perfpred_core::{Json, PerformanceModel, ServerArch, Workload};
use perfpred_resman::online::{meets_goals, plan_replicas, ReplicaBounds};

/// Control-plane configuration (journalled in the header frame, so a
/// replay reconstructs the exact planner).
#[derive(Debug, Clone, PartialEq)]
pub struct CtlConfig {
    /// SLA response-time goal applied to every class, ms.
    pub goal_ms: f64,
    /// Admission margin: plans must clear `goal × (1 − threshold)`; also
    /// pushed to every node's admission controller.
    pub threshold: f64,
    /// Client think time for the Little's-law population estimate, ms.
    pub think_ms: f64,
    /// Server architecture the tier runs on (wire name, e.g. "AppServF").
    pub server: String,
    /// Planning model.
    pub method: PlanMethod,
    /// Validation pass for proposed allocations.
    pub whatif: WhatIfMode,
    /// Replica-count bounds.
    pub bounds: ReplicaBounds,
    /// Consecutive ticks the plan must demand *more* replicas before a
    /// scale-up actuates.
    pub scale_up_ticks: u32,
    /// Consecutive ticks the plan must demand *fewer* replicas before a
    /// scale-down actuates.
    pub scale_down_ticks: u32,
    /// Ticks after a scale-up during which another scale-up is refused.
    pub up_cooldown_ticks: u32,
    /// Ticks after a scale-down during which another scale-down is
    /// refused.
    pub down_cooldown_ticks: u32,
}

impl Default for CtlConfig {
    fn default() -> Self {
        CtlConfig {
            goal_ms: 3_000.0,
            threshold: 0.05,
            think_ms: 7_000.0,
            server: "AppServF".into(),
            method: PlanMethod::Hybrid,
            whatif: WhatIfMode::Predict,
            bounds: ReplicaBounds::new(1, 8).expect("static bounds"),
            scale_up_ticks: 2,
            scale_down_ticks: 4,
            up_cooldown_ticks: 3,
            down_cooldown_ticks: 3,
        }
    }
}

impl CtlConfig {
    /// Renders the configuration for the journal header.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("goal_ms", self.goal_ms);
        o.set("threshold", self.threshold);
        o.set("think_ms", self.think_ms);
        o.set("server", self.server.as_str());
        o.set("method", self.method.name());
        o.set("whatif", self.whatif.name());
        o.set("min_replicas", u64::from(self.bounds.min));
        o.set("max_replicas", u64::from(self.bounds.max));
        o.set("scale_up_ticks", u64::from(self.scale_up_ticks));
        o.set("scale_down_ticks", u64::from(self.scale_down_ticks));
        o.set("up_cooldown_ticks", u64::from(self.up_cooldown_ticks));
        o.set("down_cooldown_ticks", u64::from(self.down_cooldown_ticks));
        o
    }

    /// Parses a journalled configuration back (replay path).
    pub fn from_json(j: &Json) -> Result<CtlConfig, String> {
        let f = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("config needs numeric '{k}'"))
        };
        let u = |k: &str| {
            j.get(k)
                .and_then(Json::as_u32)
                .ok_or(format!("config needs integer '{k}'"))
        };
        Ok(CtlConfig {
            goal_ms: f("goal_ms")?,
            threshold: f("threshold")?,
            think_ms: f("think_ms")?,
            server: j
                .get("server")
                .and_then(Json::as_str)
                .ok_or("config needs 'server'")?
                .to_string(),
            method: PlanMethod::parse(
                j.get("method")
                    .and_then(Json::as_str)
                    .ok_or("config needs 'method'")?,
            )?,
            whatif: WhatIfMode::parse(
                j.get("whatif")
                    .and_then(Json::as_str)
                    .ok_or("config needs 'whatif'")?,
            )?,
            bounds: ReplicaBounds::new(u("min_replicas")?, u("max_replicas")?)
                .map_err(|e| e.to_string())?,
            scale_up_ticks: u("scale_up_ticks")?,
            scale_down_ticks: u("scale_down_ticks")?,
            up_cooldown_ticks: u("up_cooldown_ticks")?,
            down_cooldown_ticks: u("down_cooldown_ticks")?,
        })
    }

    /// The server architecture this configuration plans for.
    pub fn server_arch(&self) -> Result<ServerArch, String> {
        server_arch(&self.server).ok_or_else(|| format!("unknown server '{}'", self.server))
    }
}

/// The hysteresis state carried between ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtlState {
    /// Replica count the controller last actuated (the intent, not the
    /// scrape — a node can die without the controller having shrunk).
    pub replicas: u32,
    /// Consecutive ticks the plan demanded more replicas.
    pub up_streak: u32,
    /// Consecutive ticks the plan demanded fewer replicas.
    pub down_streak: u32,
    /// Ticks remaining before another scale-up is allowed.
    pub up_cooldown: u32,
    /// Ticks remaining before another scale-down is allowed.
    pub down_cooldown: u32,
}

impl CtlState {
    /// Fresh state for a tier currently at `replicas`.
    pub fn starting_at(replicas: u32) -> CtlState {
        CtlState {
            replicas,
            up_streak: 0,
            down_streak: 0,
            up_cooldown: 0,
            down_cooldown: 0,
        }
    }

    /// Renders the state (journal header's `initial`, decision records'
    /// `state_after`).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("replicas", u64::from(self.replicas));
        o.set("up_streak", u64::from(self.up_streak));
        o.set("down_streak", u64::from(self.down_streak));
        o.set("up_cooldown", u64::from(self.up_cooldown));
        o.set("down_cooldown", u64::from(self.down_cooldown));
        o
    }

    /// Parses a journalled state back.
    pub fn from_json(j: &Json) -> Result<CtlState, String> {
        let u = |k: &str| {
            j.get(k)
                .and_then(Json::as_u32)
                .ok_or(format!("state needs integer '{k}'"))
        };
        Ok(CtlState {
            replicas: u("replicas")?,
            up_streak: u("up_streak")?,
            down_streak: u("down_streak")?,
            up_cooldown: u("up_cooldown")?,
            down_cooldown: u("down_cooldown")?,
        })
    }
}

/// One tick's observations.
#[derive(Debug, Clone, PartialEq)]
pub struct TickInputs {
    /// Tick index (monotonic from 0).
    pub tick: u64,
    /// One scrape per managed node.
    pub nodes: Vec<NodeScrape>,
}

impl TickInputs {
    /// Renders the inputs for the journal.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("tick", self.tick);
        o.set(
            "nodes",
            Json::Arr(self.nodes.iter().map(NodeScrape::to_json).collect()),
        );
        o
    }

    /// Parses journalled inputs back.
    pub fn from_json(j: &Json) -> Result<TickInputs, String> {
        let tick = j
            .get("tick")
            .and_then(Json::as_f64)
            .ok_or("inputs need 'tick'")? as u64;
        let mut nodes = Vec::new();
        for n in j
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or("inputs need 'nodes'")?
        {
            nodes.push(NodeScrape::from_json(n)?);
        }
        Ok(TickInputs { tick, nodes })
    }
}

/// What the controller decided to do this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Keep the tier as it is.
    Hold,
    /// Grow the tier.
    ScaleUp,
    /// Shrink the tier.
    ScaleDown,
}

impl ActionKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ActionKind::Hold => "hold",
            ActionKind::ScaleUp => "scale_up",
            ActionKind::ScaleDown => "scale_down",
        }
    }
}

/// The chosen action with its replica transition and reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// Hold, scale up, or scale down.
    pub kind: ActionKind,
    /// Replica count before.
    pub from: u32,
    /// Replica count after (equals `from` for holds).
    pub to: u32,
    /// Why (stable, journalled string).
    pub reason: String,
}

/// A what-if validation verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfVerdict {
    /// The mode that produced the verdict.
    pub mode: WhatIfMode,
    /// The proposed share cleared every goal under the check.
    pub ok: bool,
    /// Checked workload mean response time, ms (when the check produced
    /// one).
    pub mrt_ms: Option<f64>,
}

/// One tick's full decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Tick index.
    pub tick: u64,
    /// Tier-wide smoothed arrival rate, req/s.
    pub total_rps: f64,
    /// Buy fraction of the arrival mix, `[0, 1]`.
    pub buy_share: f64,
    /// Observed mean `/predict` latency across live nodes, ms.
    pub observed_mrt_ms: f64,
    /// Little's-law client population estimate.
    pub est_clients: u32,
    /// The planner's proposed replica count.
    pub target: u32,
    /// The proposed count meets every goal per the planning model.
    pub feasible: bool,
    /// Planning model's predicted workload mrt at the proposed count, ms.
    pub predicted_mrt_ms: Option<f64>,
    /// Validation verdict (only when an action was proposed and a
    /// what-if mode is on).
    pub whatif: Option<WhatIfVerdict>,
    /// The action taken.
    pub action: Action,
    /// Live nodes whose admission threshold disagrees with the
    /// configured one (the actuator re-pushes it to these).
    pub threshold_syncs: Vec<String>,
    /// Hysteresis state after this tick.
    pub state_after: CtlState,
}

impl Decision {
    /// Renders the decision for the journal.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("tick", self.tick);
        o.set("total_rps", self.total_rps);
        o.set("buy_share", self.buy_share);
        o.set("observed_mrt_ms", self.observed_mrt_ms);
        o.set("est_clients", u64::from(self.est_clients));
        o.set("target", u64::from(self.target));
        o.set("feasible", self.feasible);
        match self.predicted_mrt_ms {
            Some(v) => o.set("predicted_mrt_ms", v),
            None => o.set("predicted_mrt_ms", Json::Null),
        };
        match &self.whatif {
            Some(w) => {
                let mut wo = Json::obj();
                wo.set("mode", w.mode.name());
                wo.set("ok", w.ok);
                match w.mrt_ms {
                    Some(v) => wo.set("mrt_ms", v),
                    None => wo.set("mrt_ms", Json::Null),
                };
                o.set("whatif", wo)
            }
            None => o.set("whatif", Json::Null),
        };
        let mut a = Json::obj();
        a.set("kind", self.action.kind.name());
        a.set("from", u64::from(self.action.from));
        a.set("to", u64::from(self.action.to));
        a.set("reason", self.action.reason.as_str());
        o.set("action", a);
        o.set(
            "threshold_syncs",
            Json::Arr(
                self.threshold_syncs
                    .iter()
                    .map(|s| Json::from(s.as_str()))
                    .collect(),
            ),
        );
        o.set("state_after", self.state_after.to_json());
        o
    }
}

/// Derived load picture for one tick.
fn observe(inputs: &TickInputs) -> (f64, f64, f64) {
    let live: Vec<&NodeScrape> = inputs
        .nodes
        .iter()
        .filter(|n| n.ok && !n.draining)
        .collect();
    let total_rps: f64 = live.iter().map(|n| n.total_rps).sum();
    let browse: f64 = live.iter().map(|n| n.browse_rps).sum();
    let buy: f64 = live.iter().map(|n| n.buy_rps).sum();
    let buy_share = if browse + buy > 0.0 {
        buy / (browse + buy)
    } else {
        0.0
    };
    // Rate-weighted observed latency; plain mean when the tier is idle.
    let observed_mrt_ms = if total_rps > 0.0 {
        live.iter()
            .map(|n| n.predict_p50_ms * n.total_rps)
            .sum::<f64>()
            / total_rps
    } else if live.is_empty() {
        0.0
    } else {
        live.iter().map(|n| n.predict_p50_ms).sum::<f64>() / live.len() as f64
    };
    (total_rps, buy_share, observed_mrt_ms)
}

/// The workload the planner sizes for: the estimated population split
/// into browse/buy classes by the observed arrival mix, every class
/// carrying the configured SLA goal and think time.
pub fn control_workload(cfg: &CtlConfig, est_clients: u32, buy_share: f64) -> Workload {
    let buy = ((f64::from(est_clients) * buy_share).round() as u32).min(est_clients);
    let class = |name: &'static str, request_type, clients| ClassLoad {
        class: ServiceClass {
            name: name.into(),
            request_type,
            think_time_ms: cfg.think_ms,
            rt_goal_ms: Some(cfg.goal_ms),
        },
        clients,
    };
    Workload {
        classes: vec![
            class("browse", RequestType::Browse, est_clients - buy),
            class("buy", RequestType::Buy, buy),
        ],
    }
}

/// Runs the configured what-if check on the proposed per-replica share.
fn run_whatif(
    cfg: &CtlConfig,
    checker: Option<&dyn PerformanceModel>,
    server: &ServerArch,
    share: &Workload,
    tick: u64,
) -> Option<WhatIfVerdict> {
    match cfg.whatif {
        WhatIfMode::Off => None,
        WhatIfMode::Predict => {
            let checker = checker?;
            match checker.predict(server, share) {
                Ok(p) => Some(WhatIfVerdict {
                    mode: WhatIfMode::Predict,
                    ok: meets_goals(share, &p, cfg.threshold),
                    mrt_ms: Some(p.mrt_ms),
                }),
                Err(_) => Some(WhatIfVerdict {
                    mode: WhatIfMode::Predict,
                    ok: false,
                    mrt_ms: None,
                }),
            }
        }
        WhatIfMode::Sim => {
            // A short deterministic simulation: the seed is a pure
            // function of the tick, so replay reproduces the verdict.
            let opts = perfpred_tradesim::SimOptions {
                seed: perfpred_desim_seed(tick),
                warmup_ms: 2_000.0,
                measure_ms: 8_000.0,
                ..Default::default()
            };
            let gt = perfpred_tradesim::GroundTruth::default();
            let point = perfpred_tradesim::run(&gt, server, share, &opts);
            let bar = cfg.goal_ms * (1.0 - cfg.threshold);
            let ok =
                share.classes.iter().zip(&point.classes).all(|(load, m)| {
                    load.clients == 0 || (m.mrt_ms.is_finite() && m.mrt_ms <= bar)
                });
            Some(WhatIfVerdict {
                mode: WhatIfMode::Sim,
                ok,
                mrt_ms: Some(point.mrt_ms),
            })
        }
    }
}

/// SplitMix64 of the tick index: a deterministic, well-spread simulation
/// seed without touching a clock or RNG.
fn perfpred_desim_seed(tick: u64) -> u64 {
    // Constant offset so tick 0 doesn't seed with 0.
    0x9e37_79b9_7f4a_7c15u64.wrapping_add(tick)
}

/// The §9 control decision for one tick. Pure: equal `(cfg, state,
/// inputs)` (and models — the paper-mode models are deterministic) give
/// equal `(Decision, CtlState)`.
pub fn decide(
    cfg: &CtlConfig,
    planner: &dyn PerformanceModel,
    checker: Option<&dyn PerformanceModel>,
    state: &CtlState,
    inputs: &TickInputs,
) -> (Decision, CtlState) {
    let server = cfg.server_arch().expect("config was validated at build");
    let (total_rps, buy_share, observed_mrt_ms) = observe(inputs);
    let est_clients = (total_rps * (cfg.think_ms + observed_mrt_ms) / 1_000.0)
        .round()
        .max(0.0) as u32;
    let workload = control_workload(cfg, est_clients, buy_share);

    let mut next = *state;
    next.up_cooldown = next.up_cooldown.saturating_sub(1);
    next.down_cooldown = next.down_cooldown.saturating_sub(1);

    let threshold_syncs: Vec<String> = inputs
        .nodes
        .iter()
        .filter(|n| n.ok && !n.draining && (n.threshold - cfg.threshold).abs() > 1e-9)
        .map(|n| n.addr.clone())
        .collect();

    let (target, feasible, predicted_mrt_ms, share) =
        match plan_replicas(planner, &server, &workload, cfg.bounds, cfg.threshold) {
            Ok(plan) => (
                plan.replicas,
                plan.feasible,
                plan.prediction.as_ref().map(|p| p.mrt_ms),
                plan.per_replica.clone(),
            ),
            Err(e) => {
                // Unplannable tick: hold, record why, reset streaks.
                next.up_streak = 0;
                next.down_streak = 0;
                let decision = Decision {
                    tick: inputs.tick,
                    total_rps,
                    buy_share,
                    observed_mrt_ms,
                    est_clients,
                    target: state.replicas,
                    feasible: false,
                    predicted_mrt_ms: None,
                    whatif: None,
                    action: Action {
                        kind: ActionKind::Hold,
                        from: state.replicas,
                        to: state.replicas,
                        reason: format!("plan_error: {e}"),
                    },
                    threshold_syncs,
                    state_after: next,
                };
                return (decision, next);
            }
        };

    // Streak bookkeeping.
    if target > state.replicas {
        next.up_streak += 1;
        next.down_streak = 0;
    } else if target < state.replicas {
        next.down_streak += 1;
        next.up_streak = 0;
    } else {
        next.up_streak = 0;
        next.down_streak = 0;
    }

    let mut whatif = None;
    let mut action = Action {
        kind: ActionKind::Hold,
        from: state.replicas,
        to: state.replicas,
        reason: "steady".into(),
    };

    if target > state.replicas {
        if next.up_streak < cfg.scale_up_ticks {
            action.reason = format!("up_streak {}/{}", next.up_streak, cfg.scale_up_ticks);
        } else if next.up_cooldown > 0 {
            action.reason = format!("up_cooldown {}", next.up_cooldown);
        } else {
            // Adding capacity can only relax response times; the what-if
            // is recorded but cannot veto a scale-up.
            whatif = run_whatif(cfg, checker, &server, &share, inputs.tick);
            action = Action {
                kind: ActionKind::ScaleUp,
                from: state.replicas,
                to: target,
                reason: if feasible {
                    "plan".into()
                } else {
                    "plan_infeasible_max".into()
                },
            };
            next.replicas = target;
            next.up_streak = 0;
            next.up_cooldown = cfg.up_cooldown_ticks;
        }
    } else if target < state.replicas {
        if next.down_streak < cfg.scale_down_ticks {
            action.reason = format!("down_streak {}/{}", next.down_streak, cfg.scale_down_ticks);
        } else if next.down_cooldown > 0 {
            action.reason = format!("down_cooldown {}", next.down_cooldown);
        } else {
            whatif = run_whatif(cfg, checker, &server, &share, inputs.tick);
            let vetoed = whatif.as_ref().is_some_and(|w| !w.ok);
            if vetoed {
                action.reason = "whatif_veto".into();
                next.down_streak = 0;
            } else {
                action = Action {
                    kind: ActionKind::ScaleDown,
                    from: state.replicas,
                    to: target,
                    reason: "plan".into(),
                };
                next.replicas = target;
                next.down_streak = 0;
                next.down_cooldown = cfg.down_cooldown_ticks;
            }
        }
    }

    let decision = Decision {
        tick: inputs.tick,
        total_rps,
        buy_share,
        observed_mrt_ms,
        est_clients,
        target,
        feasible,
        predicted_mrt_ms,
        whatif,
        action,
        threshold_syncs,
        state_after: next,
    };
    (decision, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_core::{PredictError, Prediction};

    /// mrt = base + per_client × clients, per class.
    pub struct LinearModel {
        pub base_ms: f64,
        pub per_client_ms: f64,
    }

    impl PerformanceModel for LinearModel {
        fn method_name(&self) -> &str {
            "linear-test"
        }
        fn predict(
            &self,
            _server: &ServerArch,
            workload: &Workload,
        ) -> Result<Prediction, PredictError> {
            let per_class: Vec<f64> = workload
                .classes
                .iter()
                .map(|c| self.base_ms + self.per_client_ms * f64::from(c.clients))
                .collect();
            let mrt = per_class.iter().copied().fold(0.0f64, f64::max);
            Ok(Prediction {
                mrt_ms: mrt,
                per_class_mrt_ms: per_class,
                throughput_rps: 0.0,
                utilization: None,
                saturated: false,
            })
        }
    }

    fn scrape(rps: f64) -> NodeScrape {
        NodeScrape {
            ok: true,
            total_rps: rps,
            browse_rps: rps,
            threshold: 0.05,
            ..NodeScrape::down("n:1")
        }
    }

    fn cfg() -> CtlConfig {
        CtlConfig {
            goal_ms: 100.0,
            threshold: 0.0,
            think_ms: 7_000.0,
            scale_up_ticks: 2,
            scale_down_ticks: 2,
            up_cooldown_ticks: 2,
            down_cooldown_ticks: 2,
            whatif: WhatIfMode::Off,
            ..CtlConfig::default()
        }
    }

    // Capacity: goal 100, base 10, slope 1 ⇒ ≤ 90 clients per replica.
    fn model() -> LinearModel {
        LinearModel {
            base_ms: 10.0,
            per_client_ms: 1.0,
        }
    }

    #[test]
    fn scale_up_needs_a_streak_and_then_fires() {
        let cfg = cfg();
        let m = model();
        let mut state = CtlState::starting_at(1);
        // 30 req/s × 7 s ⇒ ~210 clients ⇒ ceil(210/r) ≤ 90 ⇒ target 3.
        let inputs = |tick| TickInputs {
            tick,
            nodes: vec![scrape(30.0)],
        };
        let (d1, s1) = decide(&cfg, &m, None, &state, &inputs(0));
        assert_eq!(d1.target, 3);
        assert_eq!(d1.action.kind, ActionKind::Hold);
        assert_eq!(s1.up_streak, 1);
        state = s1;
        let (d2, s2) = decide(&cfg, &m, None, &state, &inputs(1));
        assert_eq!(d2.action.kind, ActionKind::ScaleUp);
        assert_eq!(d2.action.to, 3);
        assert_eq!(s2.replicas, 3);
        assert_eq!(s2.up_cooldown, cfg.up_cooldown_ticks);
    }

    #[test]
    fn scale_down_respects_streak_and_cooldown() {
        let cfg = cfg();
        let m = model();
        let mut state = CtlState::starting_at(3);
        state.down_cooldown = 1;
        let idle = |tick| TickInputs {
            tick,
            nodes: vec![scrape(1.0)],
        };
        // Tick 0: cooldown just expired this tick, streak 1/2 ⇒ hold.
        let (d0, s0) = decide(&cfg, &m, None, &state, &idle(0));
        assert_eq!(d0.action.kind, ActionKind::Hold);
        state = s0;
        let (d1, s1) = decide(&cfg, &m, None, &state, &idle(1));
        assert_eq!(d1.action.kind, ActionKind::ScaleDown);
        assert_eq!(d1.action.to, 1);
        assert_eq!(s1.replicas, 1);
    }

    #[test]
    fn whatif_predict_vetoes_a_scale_down_the_checker_rejects() {
        let mut cfg = cfg();
        cfg.whatif = WhatIfMode::Predict;
        cfg.scale_down_ticks = 1;
        let planner = model(); // thinks 1 replica is plenty
        let pessimist = LinearModel {
            base_ms: 500.0, // checker: nothing fits
            per_client_ms: 1.0,
        };
        let state = CtlState::starting_at(3);
        let inputs = TickInputs {
            tick: 0,
            nodes: vec![scrape(1.0)],
        };
        let (d, s) = decide(&cfg, &planner, Some(&pessimist), &state, &inputs);
        assert_eq!(d.action.kind, ActionKind::Hold);
        assert_eq!(d.action.reason, "whatif_veto");
        assert_eq!(s.replicas, 3, "veto keeps the tier");
        assert!(d.whatif.as_ref().is_some_and(|w| !w.ok));
    }

    #[test]
    fn threshold_drift_is_flagged_for_sync() {
        let cfg = cfg(); // cfg.threshold = 0.0
        let m = model();
        let state = CtlState::starting_at(1);
        let mut n = scrape(1.0);
        n.threshold = 0.2;
        let (d, _) = decide(
            &cfg,
            &m,
            None,
            &state,
            &TickInputs {
                tick: 0,
                nodes: vec![n],
            },
        );
        assert_eq!(d.threshold_syncs, vec!["n:1".to_string()]);
    }

    #[test]
    fn config_and_state_round_trip_through_json() {
        let cfg = CtlConfig::default();
        assert_eq!(CtlConfig::from_json(&cfg.to_json()).unwrap(), cfg);
        let state = CtlState {
            replicas: 4,
            up_streak: 1,
            down_streak: 0,
            up_cooldown: 2,
            down_cooldown: 0,
        };
        assert_eq!(CtlState::from_json(&state.to_json()).unwrap(), state);
        let inputs = TickInputs {
            tick: 9,
            nodes: vec![scrape(12.5), NodeScrape::down("b:2")],
        };
        assert_eq!(TickInputs::from_json(&inputs.to_json()).unwrap(), inputs);
    }
}
