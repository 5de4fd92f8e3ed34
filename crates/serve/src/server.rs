//! The threaded serving core: bounded accept queue, connection worker
//! pool, solver pool, and the graceful-drain ordering between them.
//!
//! Each worker is a blocking driver of the same [`Conn`] state machine
//! the reactor runs over nonblocking sockets, so both cores share
//! parsing, body framing, pipelining and reject-then-drain. This core is
//! the serving path off Linux and the reactor's differential oracle.

use crate::batch::solver_loop;
use crate::conn::{BufPool, Conn, State, Step, DEFAULT_STALL_TIMEOUT};
use crate::http::Response;
use crate::router::App;
use crate::shutdown::Shutdown;
use perfpred_core::faults::{self, FaultSite};
use perfpred_core::metrics;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Socket read timeout: the cadence at which idle keep-alive connections
/// re-check the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(100);
/// Accept-loop poll interval while no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_micros(500);

/// Bounded queue of accepted connections awaiting a worker.
struct ConnQueue {
    conns: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            conns: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// `Err(stream)` hands the connection back on overflow.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut conns = self.conns.lock().expect("conn queue lock");
        if conns.len() >= self.capacity {
            return Err(stream);
        }
        conns.push_back(stream);
        drop(conns);
        self.available.notify_one();
        Ok(())
    }

    fn pop(&self, wait: Duration) -> Option<TcpStream> {
        let conns = self.conns.lock().expect("conn queue lock");
        let (mut conns, _) = self
            .available
            .wait_timeout_while(conns, wait, |c| c.is_empty())
            .expect("conn queue lock");
        conns.pop_front()
    }
}

/// A bound-and-listening daemon, one `run()` away from serving.
///
/// Splitting bind from run lets callers (tests, `--port 0` scripts) learn
/// the ephemeral address before the blocking serve loop starts.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    app: Arc<App>,
    workers: usize,
    solvers: usize,
    batch_max: usize,
    conn_queue: Arc<ConnQueue>,
}

impl Server {
    /// Binds `host:port` (port 0 = ephemeral) around an assembled [`App`].
    pub fn bind(
        host: &str,
        port: u16,
        app: App,
        workers: usize,
        solvers: usize,
        batch_max: usize,
        queue_depth: usize,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind((host, port))?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            app: Arc::new(app),
            workers: workers.max(1),
            solvers: solvers.max(1),
            batch_max: batch_max.max(1),
            conn_queue: Arc::new(ConnQueue::new(queue_depth)),
        })
    }

    /// The bound address (resolves `--port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The token that stops this server (shared with the [`App`]).
    pub fn shutdown_handle(&self) -> Arc<Shutdown> {
        Arc::clone(&self.app.shutdown)
    }

    /// Serves until shutdown is requested, then drains: the accept loop
    /// stops first, connection workers finish their in-flight requests,
    /// and only after the workers have joined do the solvers exit — so
    /// every job a worker enqueued gets solved and answered.
    pub fn run(self) -> io::Result<()> {
        let shutdown = self.shutdown_handle();
        self.listener.set_nonblocking(true)?;

        let mut solver_handles = Vec::with_capacity(self.solvers);
        // Solvers ignore the shared token and watch this private one, so
        // they outlive the workers during the drain.
        let solvers_done = Shutdown::new();
        for i in 0..self.solvers {
            let queue = Arc::clone(&self.app.queue);
            let cache_app = Arc::clone(&self.app);
            let done = Arc::clone(&solvers_done);
            let batch_max = self.batch_max;
            solver_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-solver-{i}"))
                    .spawn(move || solver_loop(&queue, &cache_app.host.lqns, batch_max, &done))
                    .expect("spawn solver thread"),
            );
        }

        let mut worker_handles = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let app = Arc::clone(&self.app);
            let conns = Arc::clone(&self.conn_queue);
            let stop = Arc::clone(&shutdown);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&app, &conns, &stop))
                    .expect("spawn worker thread"),
            );
        }

        // Accept loop: nonblocking so the shutdown flag is honoured within
        // one poll interval even with no clients connecting.
        while !shutdown.requested() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // One padded lane: the reactor core stripes this same
                    // counter per shard, so both cores publish one
                    // `serve.accepted` aggregate on scrape.
                    metrics::sharded_counter("serve.accepted", 1).lane(0).incr();
                    // Chaos harness: drop the connection on the floor the
                    // way a dying LB or flaky network would, before any
                    // bytes are exchanged. Clients must treat the reset as
                    // retryable.
                    if faults::fires(FaultSite::AcceptReset) {
                        metrics::counter("serve.faults.accept_reset").incr();
                        drop(stream);
                        continue;
                    }
                    if let Err(stream) = self.conn_queue.push(stream) {
                        metrics::counter("serve.accept_overflow").incr();
                        reject_overloaded(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: workers first (they stop pulling new connections and
        // finish in-flight requests), then the solver pool.
        for h in worker_handles {
            let _ = h.join();
        }
        solvers_done.request();
        for h in solver_handles {
            let _ = h.join();
        }
        // Last in the drain order: force the observation log's tail to
        // disk, now that no worker can append behind us.
        self.app
            .store
            .sync()
            .map_err(|e| io::Error::other(format!("observation log sync: {e}")))?;
        Ok(())
    }
}

/// Best-effort 503 for connections shed at the accept queue: written
/// first, then the unread request bytes are drained so the close is a FIN
/// the client can read the 503 through, not an RST that destroys it.
fn reject_overloaded(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let mut pool = BufPool::new(1);
    let mut conn = Conn::blocking(stream, Instant::now());
    conn.queue_final(
        &Response::error(503, "server is overloaded, retry later"),
        &mut pool,
    );
    let _ = conn.flush(Instant::now());
}

/// One connection worker: pull a connection, serve its keep-alive request
/// stream, repeat. Exits once shutdown is requested and the current
/// connection is finished.
fn worker_loop(app: &App, conns: &ConnQueue, shutdown: &Shutdown) {
    loop {
        match conns.pop(Duration::from_millis(20)) {
            Some(stream) => serve_connection(app, stream, shutdown),
            None => {
                if shutdown.requested() {
                    return;
                }
            }
        }
    }
}

/// Serves requests off one connection until the peer closes, asks to
/// close, errors, stalls mid-request, or shutdown interrupts an idle wait.
fn serve_connection(app: &App, stream: TcpStream, shutdown: &Shutdown) {
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(10)))
            .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let mut pool = BufPool::new(1);
    let mut conn = Conn::blocking(stream, Instant::now());
    let mut step = Step::WantRead;
    loop {
        let now = Instant::now();
        step = match step {
            Step::Dispatch => {
                let req = &conn.bufs.as_ref().expect("a parsed request").req;
                let response = app.handle(req);
                // An idle daemon drains instantly; one that is answering
                // closes each connection after the in-flight response.
                let keep = req.keep_alive && !shutdown.requested();
                conn.queue_response(&response, keep, &mut pool);
                conn.flush(now)
            }
            // The post-reject drain timed out: the peer has had its window.
            Step::WantRead if conn.state == State::Drain => return,
            Step::WantRead => {
                match conn.fill(&mut pool, now) {
                    Ok(true) => {}
                    Ok(false) => {
                        conn.release_if_idle(&mut pool);
                        if conn.is_idle() {
                            if shutdown.requested() {
                                return;
                            }
                        } else if now.duration_since(conn.last_progress) > DEFAULT_STALL_TIMEOUT {
                            return;
                        }
                    }
                    Err(_) => return,
                }
                conn.advance(now)
            }
            // A write timed out, or the connection is done.
            Step::WantWrite | Step::Close => return,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionController;
    use crate::batch::JobQueue;
    use crate::models::ModelHost;
    use perfpred_core::CacheOptions;
    use perfpred_resman::RuntimeOptions;
    use std::io::{Read as _, Write as _};

    fn start() -> (SocketAddr, Arc<Shutdown>, std::thread::JoinHandle<()>) {
        let app = App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(64),
            Shutdown::new(),
        );
        let server = Server::bind("127.0.0.1", 0, app, 2, 1, 8, 16).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, shutdown, handle)
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_healthz_and_drains_cleanly() {
        let (addr, shutdown, handle) = start();
        let reply = roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"status\": \"ok\""), "{reply}");
        shutdown.request();
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
        // Keep sending body bytes the way a naive client would; the
        // server must answer from the headers and drain, not reset.
        let _ = stream.write_all(&vec![b'x'; 64 * 1024]);
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
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
    fn shutdown_endpoint_stops_the_server() {
        let (addr, _shutdown, handle) = start();
        let reply = roundtrip(addr, "POST /shutdown HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        // run() returns once the flag propagates through accept + workers.
        handle.join().unwrap();
    }
}
