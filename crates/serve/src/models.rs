//! The model host: the three predictors of the paper, each behind its own
//! [`PredictionCache`], plus request-time method dispatch.

use crate::config::ModelSpec;
use perfpred_bench::context::Experiments;
use perfpred_core::{
    CacheOptions, PredictError, Prediction, PredictionCache, ServerArch, Workload,
};
use perfpred_hybrid::HybridModel;
use perfpred_lqns::trade::TradeLqnConfig;
use perfpred_lqns::LqnPredictor;
use perfpred_store::{ModelRegistry, ObservationStore, RegistryModel};
use std::sync::Arc;

/// Which predictor a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The §4 historical model (requires a calibrated daemon).
    Historical,
    /// The §5 layered queuing model (misses are solved on a dispatcher
    /// thread; hits answer inline on the reactor shard).
    Lqns,
    /// The §6 advanced hybrid model.
    Hybrid,
}

impl Method {
    /// Parses the wire name (`historical` | `lqns` | `hybrid`).
    pub fn parse(s: &str) -> Result<Method, String> {
        match s {
            "historical" | "hydra" => Ok(Method::Historical),
            "lqns" | "lqn" | "layered-queuing" => Ok(Method::Lqns),
            "hybrid" => Ok(Method::Hybrid),
            other => Err(format!(
                "unknown method '{other}' (expected historical, lqns or hybrid)"
            )),
        }
    }

    /// The canonical wire name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Historical => "historical",
            Method::Lqns => "lqns",
            Method::Hybrid => "hybrid",
        }
    }
}

/// The daemon's resident predictors.
///
/// The layered queuing predictor is always present (its construction is
/// free). The historical predictor serves whatever model is current in a
/// hot-swappable [`ModelRegistry`]: `paper` mode starts with an empty
/// registry (historical 404s until the observation store's first refit
/// publishes a version); `calibrated*` modes seed it from the
/// [`Experiments`] measurement campaigns. The hybrid model depends on the
/// [`ModelSpec`] as before.
pub struct ModelHost {
    /// Layered queuing behind a cache; misses are solved on a dispatcher.
    pub lqns: PredictionCache<LqnPredictor>,
    /// Historical predictions through the registry's current model. The
    /// cache keys carry the registry's version, so any publish — local
    /// refit or replicated — invalidates stale entries without flushing
    /// in-flight work.
    pub historical: PredictionCache<RegistryModel>,
    /// The versioned model registry behind `historical` (shared with the
    /// observation store that publishes refits into it).
    pub registry: Arc<ModelRegistry>,
    /// Hybrid model (all specs).
    pub hybrid: Option<PredictionCache<HybridModel>>,
    /// Servers accepted by name in requests.
    pub servers: Vec<ServerArch>,
}

impl ModelHost {
    /// Builds the host for a model spec, sharing the observation store's
    /// registry so refits swap straight into the serving path. `paper` is
    /// instant; calibrated specs run simulation campaigns (seconds for
    /// quick, minutes for measurement-grade) and seed the registry —
    /// unless the store already replayed a model out of its log, which
    /// wins over the seed.
    pub fn build(
        spec: ModelSpec,
        seed: u64,
        cache: &CacheOptions,
        store: &ObservationStore,
    ) -> ModelHost {
        match spec {
            ModelSpec::Paper => Self::paper_with_registry(cache, store.registry()),
            ModelSpec::CalibratedQuick => {
                let ctx = Experiments::quick(seed);
                store.seed_if_empty(ctx.historical().clone());
                Self::calibrated(&ctx, cache, store.registry())
            }
            ModelSpec::Calibrated => {
                let ctx = Experiments::new(seed);
                store.seed_if_empty(ctx.historical().clone());
                Self::calibrated(&ctx, cache, store.registry())
            }
        }
    }

    /// Paper mode with a standalone (empty) registry — handy in tests.
    pub fn paper(cache: &CacheOptions) -> ModelHost {
        Self::paper_with_registry(cache, Arc::new(ModelRegistry::new()))
    }

    /// Paper mode: Table 2 LQN + hybrid calibrated purely from LQN solves.
    /// The historical method comes up empty and becomes available as soon
    /// as `registry` receives its first published version.
    pub fn paper_with_registry(cache: &CacheOptions, registry: Arc<ModelRegistry>) -> ModelHost {
        let lqn = LqnPredictor::new(TradeLqnConfig::paper_table2());
        let servers = Experiments::servers();
        let hybrid = HybridModel::advanced(&lqn, &servers, &Default::default())
            .expect("hybrid calibration from the paper LQN");
        ModelHost {
            lqns: PredictionCache::with_options(lqn, cache.clone()),
            historical: PredictionCache::with_options(
                RegistryModel::new(Arc::clone(&registry)),
                cache.clone(),
            ),
            registry,
            hybrid: Some(PredictionCache::with_options(hybrid, cache.clone())),
            servers: servers.to_vec(),
        }
    }

    /// Calibrated mode: all three predictors from an experiment context.
    /// The caller seeds `registry` (see [`ModelHost::build`]) so the
    /// historical method answers immediately.
    pub fn calibrated(
        ctx: &Experiments,
        cache: &CacheOptions,
        registry: Arc<ModelRegistry>,
    ) -> ModelHost {
        ModelHost {
            lqns: PredictionCache::with_options(ctx.lqn().clone(), cache.clone()),
            historical: PredictionCache::with_options(
                RegistryModel::new(Arc::clone(&registry)),
                cache.clone(),
            ),
            registry,
            hybrid: Some(PredictionCache::with_options(
                ctx.hybrid().clone(),
                cache.clone(),
            )),
            servers: Experiments::servers().to_vec(),
        }
    }

    /// Wire names of the methods this host can answer.
    pub fn available(&self) -> Vec<&'static str> {
        let mut out = vec![Method::Lqns.name()];
        if self.registry.version() > 0 {
            out.insert(0, Method::Historical.name());
        }
        if self.hybrid.is_some() {
            out.push(Method::Hybrid.name());
        }
        out
    }

    /// True when the host can answer this method. Historical flips on at
    /// the first published model version.
    pub fn hosts(&self, method: Method) -> bool {
        match method {
            Method::Lqns => true,
            Method::Historical => self.registry.version() > 0,
            Method::Hybrid => self.hybrid.is_some(),
        }
    }

    /// Looks a server up by name (e.g. `"AppServF"`).
    pub fn server(&self, name: &str) -> Option<&ServerArch> {
        self.servers.iter().find(|s| s.name == name)
    }

    /// The method's memoized answer, without solving: `None` on a miss or
    /// when the method is not hosted. A hit counts once in the cache's
    /// stats; follow a miss with [`ModelHost::predict_inline`] or, for
    /// lqns, a dispatcher's solve.
    pub(crate) fn peek(
        &self,
        method: Method,
        server: &ServerArch,
        workload: &Workload,
    ) -> Option<Result<Prediction, PredictError>> {
        match method {
            Method::Lqns => self.lqns.peek(server, workload),
            Method::Historical if self.registry.version() > 0 => {
                self.historical.peek(server, workload)
            }
            Method::Historical => None,
            Method::Hybrid => self.hybrid.as_ref()?.peek(server, workload),
        }
    }

    /// Predicts through the method's cache, solving inline on a miss.
    ///
    /// This is the path for historical/hybrid requests (microsecond
    /// closed-form solves), for `/plan`, and for the degraded ladder. A
    /// layered queuing `/predict` reaches the same cache miss path from
    /// the router, on a dispatcher thread, so a reactor shard never runs
    /// an AMVA solve.
    pub fn predict_inline(
        &self,
        method: Method,
        server: &ServerArch,
        workload: &Workload,
    ) -> Option<Result<Prediction, PredictError>> {
        use perfpred_core::PerformanceModel;
        match method {
            Method::Lqns => Some(self.lqns.predict(server, workload)),
            Method::Historical => {
                if self.registry.version() == 0 {
                    None
                } else {
                    Some(self.historical.predict(server, workload))
                }
            }
            Method::Hybrid => self.hybrid.as_ref().map(|m| m.predict(server, workload)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_core::PerformanceModel;

    #[test]
    fn method_names_round_trip() {
        for m in [Method::Historical, Method::Lqns, Method::Hybrid] {
            assert_eq!(Method::parse(m.name()), Ok(m));
        }
        assert!(Method::parse("simulation").is_err());
    }

    #[test]
    fn paper_host_serves_lqns_and_hybrid_but_not_historical() {
        let host = ModelHost::paper(&CacheOptions::default());
        assert_eq!(host.available(), vec!["lqns", "hybrid"]);
        assert!(host.hosts(Method::Lqns));
        assert!(host.hosts(Method::Hybrid));
        assert!(!host.hosts(Method::Historical));
        assert!(host.server("AppServF").is_some());
        assert!(host.server("AppServX").is_none());

        let server = host.server("AppServF").unwrap().clone();
        let w = Workload::typical(300);
        let lq = host
            .predict_inline(Method::Lqns, &server, &w)
            .unwrap()
            .unwrap();
        assert!(lq.mrt_ms > 0.0 && lq.throughput_rps > 0.0);
        let hy = host
            .predict_inline(Method::Hybrid, &server, &w)
            .unwrap()
            .unwrap();
        assert!(hy.mrt_ms > 0.0);
        assert!(host
            .predict_inline(Method::Historical, &server, &w)
            .is_none());
    }

    #[test]
    fn historical_flips_on_at_the_first_published_version() {
        use perfpred_hydra::{HistoricalModel, ServerObservations};
        use perfpred_store::RefitTrigger;

        let host = ModelHost::paper(&CacheOptions::default());
        let server = host.server("AppServF").unwrap().clone();
        let w = Workload::typical(300);
        assert!(!host.hosts(Method::Historical));
        assert!(host
            .predict_inline(Method::Historical, &server, &w)
            .is_none());

        let mx = 186.0;
        let n_star = mx / 0.1424;
        let model = HistoricalModel::builder()
            .observations(
                ServerObservations::new("AppServF", mx)
                    .with_lower(0.15 * n_star, 20.0)
                    .with_lower(0.60 * n_star, 28.0)
                    .with_upper(1.20 * n_star, 1_000.0 / mx * 1.20 * n_star - 7_000.0)
                    .with_upper(1.55 * n_star, 1_000.0 / mx * 1.55 * n_star - 7_000.0),
            )
            .gradient(0.1424)
            .build()
            .unwrap();
        host.registry.publish(model, 4, RefitTrigger::Window);

        assert!(host.hosts(Method::Historical));
        assert_eq!(host.available(), vec!["historical", "lqns", "hybrid"]);
        let p = host
            .predict_inline(Method::Historical, &server, &w)
            .unwrap()
            .unwrap();
        assert!(p.mrt_ms > 0.0);
        assert_eq!(host.historical.model_version(), 1);
    }

    #[test]
    fn inline_predictions_memoize() {
        let host = ModelHost::paper(&CacheOptions::default());
        let server = host.server("AppServVF").unwrap().clone();
        let w = Workload::typical(120);
        let a = host
            .predict_inline(Method::Hybrid, &server, &w)
            .unwrap()
            .unwrap();
        let b = host
            .predict_inline(Method::Hybrid, &server, &w)
            .unwrap()
            .unwrap();
        assert_eq!(a.mrt_ms.to_bits(), b.mrt_ms.to_bits());
        assert_eq!(host.hybrid.as_ref().unwrap().len(), 1);
    }
}
