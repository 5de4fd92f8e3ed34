//! Closed-loop workloads divided into service classes.
//!
//! Following §3.1 of the paper, workload intensity is expressed as *number
//! of clients* plus a mean client think time — **not** as an open arrival
//! rate — because in a distributed enterprise application a client cannot
//! send its next request until the previous response arrives, so the
//! effective arrival rate falls as the system slows down.

use std::borrow::Cow;

/// The request types the performance models distinguish (§5: "requests in
/// the workload are broken down into request types that are expected to
/// exhibit similar performance characteristics").
///
/// The case study uses two: *browse* (the Trade read-mostly mix: quote,
/// portfolio, home, ...) and *buy* (register/login, buy ×10, logoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestType {
    /// The Trade browse mix; the *typical workload* is 100 % browse.
    Browse,
    /// The Trade buy flow; buy requests touch the database more heavily
    /// (2 DB requests vs 1.14 on average for browse, §5.1).
    Buy,
}

impl RequestType {
    /// All request types, in a stable order.
    pub const ALL: [RequestType; 2] = [RequestType::Browse, RequestType::Buy];

    /// Stable index for table lookups.
    pub fn index(self) -> usize {
        match self {
            RequestType::Browse => 0,
            RequestType::Buy => 1,
        }
    }

    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RequestType::Browse => "browse",
            RequestType::Buy => "buy",
        }
    }
}

/// A service class: a group of clients sharing a request type, think-time
/// behaviour and (optionally) an SLA response-time goal.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceClass {
    /// Class name, e.g. `"browse-hi"`. Borrowed for the case-study
    /// classes, so building their workloads allocates no name.
    pub name: Cow<'static, str>,
    /// The request type this class issues.
    pub request_type: RequestType,
    /// Mean client think time between receiving a response and sending the
    /// next request, milliseconds. Exponentially distributed; 7000 ms in the
    /// case study (IBM's recommendation for Trade clients).
    pub think_time_ms: f64,
    /// SLA mean-response-time goal for the class, if any, in milliseconds.
    pub rt_goal_ms: Option<f64>,
}

impl ServiceClass {
    /// The case-study browse class (7 s think time, no goal attached).
    pub fn browse() -> Self {
        ServiceClass {
            name: Cow::Borrowed("browse"),
            request_type: RequestType::Browse,
            think_time_ms: 7_000.0,
            rt_goal_ms: None,
        }
    }

    /// The case-study buy class (register/login + 10 buys + logoff flow,
    /// mean portfolio size 5.5).
    pub fn buy() -> Self {
        ServiceClass {
            name: Cow::Borrowed("buy"),
            request_type: RequestType::Buy,
            think_time_ms: 7_000.0,
            rt_goal_ms: None,
        }
    }

    /// Returns a copy of the class with an SLA goal attached.
    pub fn with_goal(mut self, rt_goal_ms: f64) -> Self {
        self.rt_goal_ms = Some(rt_goal_ms);
        self
    }

    /// Returns a copy of the class with a different name.
    pub fn named(mut self, name: impl Into<Cow<'static, str>>) -> Self {
        self.name = name.into();
        self
    }
}

/// A number of clients belonging to one service class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLoad {
    /// The service class the clients belong to.
    pub class: ServiceClass,
    /// Number of concurrently active closed-loop clients.
    pub clients: u32,
}

/// A workload: the populations of every service class directed at one
/// application server (or at the provider as a whole, for the resource
/// manager).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workload {
    /// Per-class client populations. Order is preserved and meaningful for
    /// per-class prediction output.
    pub classes: Vec<ClassLoad>,
}

impl Workload {
    /// An empty workload.
    pub fn empty() -> Self {
        Workload {
            classes: Vec::new(),
        }
    }

    /// The *typical workload* of the case study: `clients` browse clients
    /// with a 7 s mean think time (§3.1).
    pub fn typical(clients: u32) -> Self {
        Workload {
            classes: vec![ClassLoad {
                class: ServiceClass::browse(),
                clients,
            }],
        }
    }

    /// A two-class browse + buy workload with `buy_pct` percent of the
    /// clients in the buy class (the heterogeneous workloads of §4.3/fig 4).
    pub fn with_buy_pct(total_clients: u32, buy_pct: f64) -> Self {
        let mut w = Workload::empty();
        w.set_buy_pct(total_clients, buy_pct);
        w
    }

    /// Makes this workload [`Workload::with_buy_pct`]`(total_clients,
    /// buy_pct)` in place, reusing the class list's capacity — a request
    /// path that keeps one workload as scratch builds it without
    /// allocating.
    pub fn set_buy_pct(&mut self, total_clients: u32, buy_pct: f64) {
        assert!(
            (0.0..=100.0).contains(&buy_pct),
            "buy_pct must be in [0,100]"
        );
        let buy = ((f64::from(total_clients) * buy_pct / 100.0).round()) as u32;
        let browse = total_clients - buy;
        self.classes.clear();
        if browse > 0 || buy == 0 {
            self.classes.push(ClassLoad {
                class: ServiceClass::browse(),
                clients: browse,
            });
        }
        if buy > 0 {
            self.classes.push(ClassLoad {
                class: ServiceClass::buy(),
                clients: buy,
            });
        }
    }

    /// Total number of clients across all service classes.
    pub fn total_clients(&self) -> u32 {
        self.classes.iter().map(|c| c.clients).sum()
    }

    /// Fraction of clients (0..=1) whose class issues `Buy` requests.
    pub fn buy_fraction(&self) -> f64 {
        let total = self.total_clients();
        if total == 0 {
            return 0.0;
        }
        let buy: u32 = self
            .classes
            .iter()
            .filter(|c| c.class.request_type == RequestType::Buy)
            .map(|c| c.clients)
            .sum();
        f64::from(buy) / f64::from(total)
    }

    /// Percentage of clients (0..=100) whose class issues `Buy` requests —
    /// the `b` of relationship 3 (§4.3).
    pub fn buy_pct(&self) -> f64 {
        self.buy_fraction() * 100.0
    }

    /// Client-weighted mean think time across classes, milliseconds.
    /// Returns the case-study default (7000 ms) for an empty workload.
    pub fn mean_think_time_ms(&self) -> f64 {
        let total = self.total_clients();
        if total == 0 {
            return 7_000.0;
        }
        self.classes
            .iter()
            .map(|c| c.class.think_time_ms * f64::from(c.clients))
            .sum::<f64>()
            / f64::from(total)
    }

    /// True if no class has any clients.
    pub fn is_empty(&self) -> bool {
        self.total_clients() == 0
    }

    /// Returns a copy with every class population scaled by `factor`
    /// (rounding to nearest client). Used by sweep harnesses.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Workload {
            classes: self
                .classes
                .iter()
                .map(|c| ClassLoad {
                    class: c.class.clone(),
                    clients: (f64::from(c.clients) * factor).round() as u32,
                })
                .collect(),
        }
    }

    /// Returns a copy with `extra` additional clients in class `idx`.
    pub fn with_extra_clients(&self, idx: usize, extra: u32) -> Self {
        let mut w = self.clone();
        w.classes[idx].clients += extra;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_workload_is_all_browse() {
        let w = Workload::typical(500);
        assert_eq!(w.total_clients(), 500);
        assert_eq!(w.buy_pct(), 0.0);
        assert_eq!(w.classes.len(), 1);
        assert_eq!(w.classes[0].class.request_type, RequestType::Browse);
        assert_eq!(w.mean_think_time_ms(), 7_000.0);
    }

    #[test]
    fn buy_pct_splits_clients() {
        let w = Workload::with_buy_pct(1000, 25.0);
        assert_eq!(w.total_clients(), 1000);
        assert!((w.buy_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn buy_pct_zero_matches_typical() {
        let w = Workload::with_buy_pct(300, 0.0);
        assert_eq!(w, Workload::typical(300));
    }

    #[test]
    fn buy_pct_hundred_is_all_buy() {
        let w = Workload::with_buy_pct(100, 100.0);
        assert_eq!(w.total_clients(), 100);
        assert!((w.buy_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_workload() {
        let w = Workload::empty();
        assert!(w.is_empty());
        assert_eq!(w.buy_fraction(), 0.0);
        assert_eq!(w.mean_think_time_ms(), 7_000.0);
    }

    #[test]
    fn scaled_rounds_per_class() {
        let w = Workload::with_buy_pct(1000, 10.0).scaled(0.5);
        assert_eq!(w.total_clients(), 500);
        let w0 = w.scaled(0.0);
        assert!(w0.is_empty());
    }

    #[test]
    fn mean_think_time_weighted() {
        let mut slow = ServiceClass::browse();
        slow.think_time_ms = 14_000.0;
        let w = Workload {
            classes: vec![
                ClassLoad {
                    class: ServiceClass::browse(),
                    clients: 300,
                },
                ClassLoad {
                    class: slow,
                    clients: 100,
                },
            ],
        };
        let expected = (7_000.0 * 300.0 + 14_000.0 * 100.0) / 400.0;
        assert!((w.mean_think_time_ms() - expected).abs() < 1e-9);
    }

    #[test]
    fn with_goal_and_named() {
        let c = ServiceClass::buy().with_goal(150.0).named("buyers");
        assert_eq!(c.rt_goal_ms, Some(150.0));
        assert_eq!(c.name, "buyers");
    }

    #[test]
    fn request_type_indices_are_stable() {
        for (i, rt) in RequestType::ALL.iter().enumerate() {
            assert_eq!(rt.index(), i);
        }
        assert_eq!(RequestType::Browse.label(), "browse");
        assert_eq!(RequestType::Buy.label(), "buy");
    }

    #[test]
    fn with_extra_clients_adds_to_one_class() {
        let w = Workload::with_buy_pct(100, 10.0);
        let w2 = w.with_extra_clients(1, 5);
        assert_eq!(w2.total_clients(), 105);
        assert_eq!(w2.classes[0].clients, w.classes[0].clients);
    }
}
