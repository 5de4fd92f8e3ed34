//! The daemon's serving loop: the workspace's one event loop
//! ([`perfpred_core::reactor`]) around [`App`].
//!
//! ```text
//!   reactor shards ── App::try_handle_into: GET endpoints, cache-hit /predict,
//!        │            answered on the shard (µs path)
//!        └─ offload ─ dispatcher pool ── App::handle_at: /observe, /plan,
//!                                        lqns /predict misses, solved on
//!                                        the dispatcher and memoized
//! ```
//!
//! Admission control, deadline propagation (anchored at *arrival*, so
//! dispatch queueing consumes the budget), the degraded ladder and fault
//! injection all live in [`App`]; framing, the connection cap, the stall
//! sweep and the drain live in the shared loop.

use crate::http::{Request, Response};
use crate::router::App;
use crate::shutdown::Shutdown;
use perfpred_core::reactor::{Handler, Reactor};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Handler for App {
    fn try_handle_into(&self, req: &Request, arrival: Instant, out: &mut Response) -> bool {
        App::try_handle_into(self, req, arrival, out)
    }

    fn handle_at(&self, req: &Request, arrival: Instant) -> Response {
        App::handle_at(self, req, arrival)
    }
}

/// A bound-and-listening daemon, one `run()` away from serving.
pub struct ReactorServer {
    reactor: Reactor,
    app: Arc<App>,
}

impl ReactorServer {
    /// Binds `host:port` (port 0 = ephemeral) around an assembled [`App`].
    /// `shards` sizes the epoll reactor and `dispatchers` the pool running
    /// blocking routes; the dispatch queue between them takes its bound
    /// from `app.queue` and publishes its live depth there.
    pub fn bind(
        host: &str,
        port: u16,
        app: App,
        shards: usize,
        dispatchers: usize,
    ) -> io::Result<ReactorServer> {
        let mut reactor = Reactor::bind(host, port, "serve")?;
        reactor.shards = shards.max(1);
        reactor.dispatchers = dispatchers.max(1);
        reactor.queue_depth = app.queue.capacity;
        reactor.dispatch_depth = Arc::clone(&app.queue.depth);
        // Publish the shard count so /healthz can report the serving
        // topology.
        app.reactor_shards.store(reactor.shards, Ordering::Relaxed);
        Ok(ReactorServer {
            reactor,
            app: Arc::new(app),
        })
    }

    /// Overrides the stalled-connection eviction threshold (tests shrink
    /// it to exercise slow-loris eviction without waiting 10 s).
    pub fn set_stall_timeout(&mut self, timeout: Duration) {
        self.reactor.stall_timeout = timeout;
    }

    /// The bound address (resolves `--port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.reactor.local_addr()
    }

    /// The token that stops this server (shared with the [`App`]).
    pub fn shutdown_handle(&self) -> Arc<Shutdown> {
        Arc::clone(&self.app.shutdown)
    }

    /// Serves until shutdown is requested, then drains in dependency
    /// order: the event loop (shards, then dispatchers, each finishing
    /// the solve it started) first, and the observation log's tail syncs
    /// last.
    pub fn run(self) -> io::Result<()> {
        self.reactor
            .run(Arc::clone(&self.app), &self.app.shutdown)?;
        self.app
            .store
            .sync()
            .map_err(|e| io::Error::other(format!("observation log sync: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionController;
    use crate::batch::JobQueue;
    use crate::models::ModelHost;
    use crate::router::App;
    use perfpred_core::CacheOptions;
    use perfpred_resman::RuntimeOptions;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn start() -> (SocketAddr, Arc<Shutdown>, std::thread::JoinHandle<()>) {
        let app = App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(64),
            Shutdown::new(),
        );
        let server = ReactorServer::bind("127.0.0.1", 0, app, 2, 2).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, shutdown, handle)
    }

    #[test]
    fn bind_takes_the_dispatch_queue_from_the_app() {
        let app = App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(7),
            Shutdown::new(),
        );
        let depth = Arc::clone(&app.queue.depth);
        let server = ReactorServer::bind("127.0.0.1", 0, app, 1, 1).unwrap();
        assert_eq!(server.reactor.queue_depth, 7);
        assert!(Arc::ptr_eq(&server.reactor.dispatch_depth, &depth));
    }

    #[test]
    fn serves_inline_and_offloaded_routes_then_drains() {
        let (addr, shutdown, handle) = start();
        // Inline fast path (GET) and an offloaded route (POST /observe)
        // over one keep-alive connection, then a clean drain.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 4096];
        let n = stream.read(&mut buf).unwrap();
        let reply = String::from_utf8_lossy(&buf[..n]).to_string();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("keep-alive"), "{reply}");

        let body = r#"{"server": "AppServS", "clients": 50, "mrt_ms": 120.0}"#;
        let raw = format!(
            "POST /observe HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");

        shutdown.request();
        handle.join().unwrap();
    }

    #[test]
    fn wrong_method_gets_a_405_and_the_connection_survives() {
        let (addr, shutdown, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"DELETE /predict HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        // The exact bytes, so `Allow` and `Connection: keep-alive` are
        // checked on the wire, not through a parser's defaults.
        let mut expected = Vec::new();
        Response::method_not_allowed("POST").write_into(&mut expected, true);
        let mut first = vec![0u8; expected.len()];
        stream.read_exact(&mut first).unwrap();
        assert_eq!(first, expected, "{}", String::from_utf8_lossy(&first));
        // The same socket still answers the next (correct) request.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (rest, _) = Response::read_from(&mut stream, &mut Vec::new()).unwrap();
        assert_eq!(rest.status, 200);
        shutdown.request();
        handle.join().unwrap();
    }

    #[test]
    fn shutdown_endpoint_stops_the_reactor() {
        let (addr, _shutdown, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /shutdown HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        handle.join().unwrap();
    }

    #[test]
    fn oversized_post_gets_a_413_not_a_reset() {
        let (addr, shutdown, handle) = start();
        let mut stream = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            8 * 1024 * 1024
        );
        stream.write_all(head.as_bytes()).unwrap();
        let _ = stream.write_all(&vec![b'x'; 64 * 1024]);
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
        shutdown.request();
        handle.join().unwrap();
    }
}
