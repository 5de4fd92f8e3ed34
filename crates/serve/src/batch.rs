//! The dispatch-queue spec shared by [`App`](crate::router::App) and the
//! event loop.
//!
//! Requests that may block — `/observe`, `/plan` and layered-queuing
//! `/predict` misses, which a dispatcher solves in place — queue between
//! the reactor shards and the dispatcher pool. [`JobQueue`] carries that
//! queue's bound and its live depth: the reactor enforces the bound
//! (overflow answers 503 on the shard) and publishes the depth, which
//! `/healthz` and `/metrics` read back.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The bound and live depth of the dispatch queue.
#[derive(Debug)]
pub struct JobQueue {
    /// Most requests that may wait for a dispatcher (at least 1).
    pub capacity: usize,
    /// Requests waiting for a dispatcher right now, published by the
    /// reactor.
    pub depth: Arc<AtomicUsize>,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting requests.
    pub fn new(capacity: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            capacity: capacity.max(1),
            depth: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// Requests waiting for a dispatcher.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionController;
    use crate::http::{Request, Response};
    use crate::models::ModelHost;
    use crate::router::App;
    use crate::shutdown::Shutdown;
    use perfpred_core::reactor::{Handler, Reactor};
    use perfpred_core::{metrics, CacheOptions, Json, PerformanceModel, Workload};
    use perfpred_resman::RuntimeOptions;
    use std::io::Write as _;
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Mutex;
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// [`App`] behind a gate the test holds shut: the first offloaded
    /// request parks on the one dispatcher, so later ones wait in the
    /// dispatch queue until the gate opens.
    struct Gated {
        app: Arc<App>,
        gate: Mutex<()>,
        entered: AtomicUsize,
    }

    impl Handler for Gated {
        fn try_handle_into(&self, req: &Request, arrival: Instant, out: &mut Response) -> bool {
            self.app.try_handle_into(req, arrival, out)
        }

        fn handle_at(&self, req: &Request, arrival: Instant) -> Response {
            self.entered.fetch_add(1, Ordering::SeqCst);
            drop(self.gate.lock());
            self.app.handle_at(req, arrival)
        }
    }

    /// Serves `app` on one shard and one dispatcher, wired to `app.queue`
    /// the way [`ReactorServer`](crate::ReactorServer) wires it.
    fn serve(app: &Arc<App>) -> (SocketAddr, Arc<Gated>, JoinHandle<()>) {
        serve_in(app, metrics::Scope::new())
    }

    /// [`serve`], with the loop's counters resolved in `scope`.
    fn serve_in(app: &Arc<App>, scope: metrics::Scope) -> (SocketAddr, Arc<Gated>, JoinHandle<()>) {
        let gated = Arc::new(Gated {
            app: Arc::clone(app),
            gate: Mutex::new(()),
            entered: AtomicUsize::new(0),
        });
        let mut reactor = Reactor::bind("127.0.0.1", 0, "serve").unwrap();
        reactor.shards = 1;
        reactor.dispatchers = 1;
        reactor.queue_depth = app.queue.capacity;
        reactor.dispatch_depth = Arc::clone(&app.queue.depth);
        let addr = reactor.local_addr();
        let handler = Arc::clone(&gated);
        let shutdown = Arc::clone(&app.shutdown);
        let run = std::thread::spawn(move || {
            let _scope = scope.enter();
            reactor.run(handler, &shutdown).unwrap()
        });
        (addr, gated, run)
    }

    fn send_predict(addr: SocketAddr, body: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let raw = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).unwrap();
        stream
    }

    fn predict_frame(body: &str) -> String {
        format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    /// Reads one reply off a connection whose read-ahead lives in `buf`.
    fn next_reply(stream: &mut TcpStream, buf: &mut Vec<u8>) -> (u16, Json) {
        let (r, _) = Response::read_from(stream, buf).unwrap();
        let body = Json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        (r.status, body)
    }

    fn reply(stream: &mut TcpStream) -> (u16, Json) {
        let (r, _) = Response::read_from(stream, &mut Vec::new()).unwrap();
        let body = Json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        (r.status, body)
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(30);
        while !done() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn mrt(body: &Json) -> f64 {
        body.get("prediction")
            .and_then(|p| p.get("mrt_ms"))
            .and_then(Json::as_f64)
            .unwrap()
    }

    #[test]
    fn expired_jobs_are_shed_unsolved_and_in_budget_jobs_still_answer() {
        let mut host = ModelHost::paper(&CacheOptions::default());
        host.hybrid = None; // no degraded rung: a shed request answers 504
        let app = Arc::new(App::new(
            host,
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(16),
            Shutdown::new(),
        ));
        let (addr, gated, run) = serve(&app);
        let held = gated.gate.lock().unwrap();

        let mut live = send_predict(
            addr,
            r#"{"method": "lqns", "server": "AppServF", "clients": 250, "deadline_ms": 30000, "admission": false}"#,
        );
        wait_until("the live request on the dispatcher", || {
            gated.entered.load(Ordering::SeqCst) == 1
        });
        let mut expired = send_predict(
            addr,
            r#"{"method": "lqns", "server": "AppServF", "clients": 150, "deadline_ms": 1, "admission": false}"#,
        );
        wait_until("the 1 ms request in the dispatch queue", || {
            app.queue.depth() == 1
        });
        // Its budget runs out while it waits behind the gate.
        std::thread::sleep(Duration::from_millis(20));
        drop(held);

        let (status, body) = reply(&mut live);
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.get("mode").and_then(Json::as_str), Some("normal"));
        let (status, body) = reply(&mut expired);
        assert_eq!(status, 504, "{body:?}");
        let error = body.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains("shed before solving"), "{body:?}");

        // The shed request must not have been solved into the cache.
        let server = app.host.server("AppServF").unwrap().clone();
        assert_eq!(app.host.lqns.len(), 1);
        assert!(app
            .host
            .lqns
            .peek(&server, &Workload::typical(150))
            .is_none());
        assert_eq!(app.queue.depth(), 0);

        app.shutdown.request();
        run.join().unwrap();
    }

    #[test]
    fn solver_drains_queue_then_exits_on_shutdown() {
        let app = Arc::new(App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(16),
            Shutdown::new(),
        ));
        let (addr, gated, run) = serve(&app);
        let held = gated.gate.lock().unwrap();

        let mut streams = Vec::new();
        for clients in [100u32, 200, 300, 100] {
            let body = format!(
                r#"{{"method": "lqns", "server": "AppServF", "clients": {clients}, "admission": false}}"#
            );
            streams.push((clients, send_predict(addr, &body)));
        }
        // One miss on the dispatcher, three queued behind it.
        wait_until("four offloaded misses", || {
            gated.entered.load(Ordering::SeqCst) == 1 && app.queue.depth() == 3
        });
        // Drain mode: what is queued is still solved and answered, then
        // the event loop exits.
        app.shutdown.request();
        drop(held);

        let server = app.host.server("AppServF").unwrap().clone();
        let mut first_100 = None;
        let mut hits = 0;
        for (clients, mut stream) in streams {
            let (status, body) = reply(&mut stream);
            assert_eq!(status, 200, "clients={clients}: {body:?}");
            let got = mrt(&body);
            let fresh = app
                .host
                .lqns
                .inner()
                .predict(&server, &Workload::typical(clients))
                .unwrap();
            assert_eq!(got.to_bits(), fresh.mrt_ms.to_bits(), "clients={clients}");
            if body.get("cached").and_then(Json::as_bool) == Some(true) {
                hits += 1;
            }
            if clients == 100 {
                // Both 100-client requests answer one memoized entry.
                if let Some(prev) = first_100.replace(got) {
                    assert_eq!(f64::to_bits(prev), got.to_bits());
                }
            }
        }
        // Whichever 100-client request reached the dispatcher second hit.
        assert_eq!(hits, 1);
        run.join().unwrap();
        assert_eq!(app.queue.depth(), 0);
        // 3 distinct keys solved; the duplicate 100-client request hit.
        assert_eq!(app.host.lqns.len(), 3);
    }

    #[test]
    fn a_pipelined_burst_of_warm_hits_is_one_write_and_an_offload_one_more() {
        let app = Arc::new(App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(16),
            Shutdown::new(),
        ));
        let hit = r#"{"method": "lqns", "server": "AppServF", "clients": 120, "admission": false}"#;
        let warm = Request {
            method: "POST".into(),
            path: "/predict".into(),
            body: hit.as_bytes().to_vec(),
            keep_alive: true,
        };
        assert_eq!(app.handle(&warm).status, 200, "solve the hit's key once");
        let scope = metrics::Scope::new();
        let (addr, _gated, run) = serve_in(&app, scope.clone());
        let writes = || scope.snapshot().counter("serve.socket_writes");

        let mut stream = send_predict(addr, hit);
        let mut buf = Vec::new();
        let (status, _) = next_reply(&mut stream, &mut buf);
        assert_eq!(status, 200);
        let before = writes();
        stream
            .write_all(predict_frame(hit).repeat(8).as_bytes())
            .unwrap();
        for _ in 0..8 {
            let (status, body) = next_reply(&mut stream, &mut buf);
            assert_eq!(status, 200, "{body:?}");
            assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true));
        }
        assert_eq!(writes() - before, 1, "eight pipelined hits, one write");

        let before = writes();
        let miss =
            r#"{"method": "lqns", "server": "AppServF", "clients": 137, "admission": false}"#;
        stream.write_all(predict_frame(miss).as_bytes()).unwrap();
        let (status, body) = next_reply(&mut stream, &mut buf);
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(writes() - before, 1, "an offloaded request, one write");

        app.shutdown.request();
        run.join().unwrap();
    }

    #[test]
    fn a_hit_pipelined_ahead_of_a_held_miss_is_answered_before_the_solve() {
        let app = Arc::new(App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(16),
            Shutdown::new(),
        ));
        let hit = r#"{"method": "lqns", "server": "AppServS", "clients": 60, "admission": false}"#;
        let warm = Request {
            method: "POST".into(),
            path: "/predict".into(),
            body: hit.as_bytes().to_vec(),
            keep_alive: true,
        };
        assert_eq!(app.handle(&warm).status, 200, "solve the hit's key once");
        let (addr, gated, run) = serve(&app);
        let held = gated.gate.lock().unwrap();

        let miss = r#"{"method": "lqns", "server": "AppServS", "clients": 61, "admission": false}"#;
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let burst = predict_frame(hit) + &predict_frame(miss);
        stream.write_all(burst.as_bytes()).unwrap();
        let mut buf = Vec::new();
        // Both requests arrived in one burst: the hit's reply is on the
        // wire while the miss waits behind the gate.
        let (status, body) = next_reply(&mut stream, &mut buf);
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.get("cached").and_then(Json::as_bool), Some(true));
        wait_until("the miss on the dispatcher", || {
            gated.entered.load(Ordering::SeqCst) == 1
        });
        drop(held);
        let (status, body) = next_reply(&mut stream, &mut buf);
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false));
        let answered = body
            .get("prediction")
            .and_then(|p| p.get("per_class_mrt_ms"))
            .and_then(Json::as_arr)
            .map(<[Json]>::len);
        assert_eq!(answered, Some(1));

        app.shutdown.request();
        run.join().unwrap();
    }
}
