//! Scraping the serving tier: one `NodeScrape` per serve node per tick,
//! plus the router's topology view.
//!
//! A node scrape folds `GET /healthz` (liveness, draining, model version,
//! live admission threshold, smoothed per-class arrival rates, queue
//! depths) and `GET /metrics` (the `/predict` latency summary) into one
//! flat record. The record round-trips through [`perfpred_core::Json`]
//! losslessly — it is the *input* half of every journal entry, and replay
//! recomputes decisions from exactly these fields.

use crate::httpc;
use perfpred_core::Json;
use std::time::Duration;

/// Everything the planner reads from one serve node on one tick.
///
/// An unreachable or unhealthy node keeps its `addr` with `ok: false`
/// and zeroed observations, so the journal still records that the node
/// existed and the planner can count live capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeScrape {
    /// The node's `host:port`.
    pub addr: String,
    /// `/healthz` answered 200.
    pub ok: bool,
    /// The node is draining (shutdown requested).
    pub draining: bool,
    /// Serving model version.
    pub model_version: u64,
    /// Live admission threshold.
    pub threshold: f64,
    /// Smoothed total arrival rate, req/s.
    pub total_rps: f64,
    /// Smoothed browse-class arrival rate, req/s.
    pub browse_rps: f64,
    /// Smoothed buy-class arrival rate, req/s.
    pub buy_rps: f64,
    /// Reactor dispatch queue depth.
    pub dispatch_queue: u64,
    /// `/predict` latency p50 over the node's lifetime, ms (0 when the
    /// node has served nothing).
    pub predict_p50_ms: f64,
    /// `/predict` latency p99, ms.
    pub predict_p99_ms: f64,
}

impl NodeScrape {
    /// A placeholder for a node that did not answer.
    pub fn down(addr: &str) -> NodeScrape {
        NodeScrape {
            addr: addr.to_string(),
            ok: false,
            draining: false,
            model_version: 0,
            threshold: 0.0,
            total_rps: 0.0,
            browse_rps: 0.0,
            buy_rps: 0.0,
            dispatch_queue: 0,
            predict_p50_ms: 0.0,
            predict_p99_ms: 0.0,
        }
    }

    /// Renders the scrape for the journal.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("addr", self.addr.as_str());
        o.set("ok", self.ok);
        o.set("draining", self.draining);
        o.set("model_version", self.model_version);
        o.set("threshold", self.threshold);
        o.set("total_rps", self.total_rps);
        o.set("browse_rps", self.browse_rps);
        o.set("buy_rps", self.buy_rps);
        o.set("dispatch_queue", self.dispatch_queue);
        o.set("predict_p50_ms", self.predict_p50_ms);
        o.set("predict_p99_ms", self.predict_p99_ms);
        o
    }

    /// Parses a journalled scrape back (replay path).
    pub fn from_json(j: &Json) -> Result<NodeScrape, String> {
        let f = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("scrape needs numeric '{k}'"))
        };
        let u = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or(format!("scrape needs integer '{k}'"))
        };
        Ok(NodeScrape {
            addr: j
                .get("addr")
                .and_then(Json::as_str)
                .ok_or("scrape needs 'addr'")?
                .to_string(),
            ok: j
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or("scrape needs 'ok'")?,
            draining: j.get("draining").and_then(Json::as_bool).unwrap_or(false),
            model_version: u("model_version")?,
            threshold: f("threshold")?,
            total_rps: f("total_rps")?,
            browse_rps: f("browse_rps")?,
            buy_rps: f("buy_rps")?,
            dispatch_queue: u("dispatch_queue")?,
            predict_p50_ms: f("predict_p50_ms")?,
            predict_p99_ms: f("predict_p99_ms")?,
        })
    }
}

/// One value from a Prometheus exposition page: the first sample of
/// `name` whose label block contains `label_filter` (pass `""` to match
/// any). Returns `None` when absent.
pub fn exposition_value(text: &str, name: &str, label_filter: &str) -> Option<f64> {
    for line in text.lines() {
        if line.starts_with('#') || !line.starts_with(name) {
            continue;
        }
        let rest = &line[name.len()..];
        // Either `name{labels} v` or `name v`; avoid matching prefixed
        // metric names (`foo_ms_sum` when asked for `foo_ms`).
        let (labels, value) = match rest.find(' ') {
            Some(sp) => (&rest[..sp], &rest[sp + 1..]),
            None => continue,
        };
        if !labels.is_empty() && !labels.starts_with('{') {
            continue;
        }
        if !labels.contains(label_filter) {
            continue;
        }
        if let Ok(v) = value.trim().parse::<f64>() {
            return Some(v);
        }
    }
    None
}

/// Scrapes one serve node: `/healthz` plus `/metrics`. I/O failure or a
/// non-200 healthz yields a `down` placeholder rather than an error —
/// a missing node is an observation, not a control-loop fault.
pub fn scrape_node(addr: &str, timeout: Duration) -> NodeScrape {
    let health = match httpc::get(addr, "/healthz", timeout) {
        Ok(r) if r.ok() => r,
        _ => return NodeScrape::down(addr),
    };
    let Ok(h) = Json::parse(&health.body) else {
        return NodeScrape::down(addr);
    };
    let mut scrape = NodeScrape::down(addr);
    scrape.ok = true;
    scrape.draining = h.get("draining").and_then(Json::as_bool).unwrap_or(false);
    scrape.model_version = h.get("model_version").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    scrape.threshold = h.get("threshold").and_then(Json::as_f64).unwrap_or(0.0);
    if let Some(a) = h.get("arrival") {
        scrape.total_rps = a.get("total_rps").and_then(Json::as_f64).unwrap_or(0.0);
        scrape.browse_rps = a.get("browse_rps").and_then(Json::as_f64).unwrap_or(0.0);
        scrape.buy_rps = a.get("buy_rps").and_then(Json::as_f64).unwrap_or(0.0);
    }
    scrape.dispatch_queue = h
        .get("dispatch_queue_depth")
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    if let Ok(m) = httpc::get(addr, "/metrics", timeout) {
        if m.ok() {
            scrape.predict_p50_ms =
                exposition_value(&m.body, "serve_http_predict_ms", "quantile=\"0.5\"")
                    .unwrap_or(0.0);
            scrape.predict_p99_ms =
                exposition_value(&m.body, "serve_http_predict_ms", "quantile=\"0.99\"")
                    .unwrap_or(0.0);
        }
    }
    scrape
}

/// The router's upstream view (from `GET /router/status`).
#[derive(Debug, Clone, Default)]
pub struct RouterScrape {
    /// Upstream addresses the router currently routes to.
    pub upstreams: Vec<String>,
    /// How many of those the health prober admits.
    pub admitted: usize,
}

/// Scrapes the router's status endpooint; `None` when unreachable.
pub fn scrape_router(addr: &str, timeout: Duration) -> Option<RouterScrape> {
    let reply = httpc::get(addr, "/router/status", timeout).ok()?;
    if !reply.ok() {
        return None;
    }
    let body = Json::parse(&reply.body).ok()?;
    let mut out = RouterScrape::default();
    for u in body.get("upstreams").and_then(Json::as_arr).unwrap_or(&[]) {
        if let Some(a) = u.get("addr").and_then(Json::as_str) {
            out.upstreams.push(a.to_string());
        }
        if u.get("admitted").and_then(Json::as_bool).unwrap_or(false) {
            out.admitted += 1;
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_round_trips_through_json() {
        let s = NodeScrape {
            addr: "127.0.0.1:9001".into(),
            ok: true,
            draining: false,
            model_version: 7,
            threshold: 0.05,
            total_rps: 123.456,
            browse_rps: 111.1,
            buy_rps: 12.356,
            dispatch_queue: 3,
            predict_p50_ms: 0.125,
            predict_p99_ms: 2.5,
        };
        let j = s.to_json();
        let back = NodeScrape::from_json(&j).unwrap();
        assert_eq!(s, back);
        // And the render itself is stable (journal byte-identity leans
        // on this).
        assert_eq!(
            j.render(),
            NodeScrape::from_json(&j).unwrap().to_json().render()
        );
    }

    #[test]
    fn down_nodes_parse_too() {
        let j = NodeScrape::down("a:1").to_json();
        let back = NodeScrape::from_json(&j).unwrap();
        assert!(!back.ok);
        assert_eq!(back.addr, "a:1");
    }

    #[test]
    fn exposition_parsing_matches_labels_and_plain_gauges() {
        let text = "\
# TYPE serve_http_predict_ms summary
serve_http_predict_ms{quantile=\"0.5\"} 0.25
serve_http_predict_ms{quantile=\"0.99\"} 4.5
serve_http_predict_ms_sum 100
serve_http_predict_ms_count 400
serve_dispatch_queue_depth 2
";
        assert_eq!(
            exposition_value(text, "serve_http_predict_ms", "quantile=\"0.5\""),
            Some(0.25)
        );
        assert_eq!(
            exposition_value(text, "serve_http_predict_ms", "quantile=\"0.99\""),
            Some(4.5)
        );
        assert_eq!(
            exposition_value(text, "serve_dispatch_queue_depth", ""),
            Some(2.0)
        );
        assert_eq!(exposition_value(text, "serve_missing", ""), None);
    }
}
