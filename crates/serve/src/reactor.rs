//! The event-driven serving core: N per-core reactor shards, each a
//! nonblocking epoll loop multiplexing thousands of keep-alive
//! connections through the [`crate::conn`] state machine.
//!
//! ## Why a reactor
//!
//! The threaded core ([`crate::server`]) spends one OS thread per
//! in-flight connection: at 10k parked keep-alive sockets that is 10k
//! threads' worth of stacks and context switches for work that is almost
//! entirely *waiting*. A shard replaces the thread-per-connection model
//! with one thread per core parked in `epoll_wait`, so a connection costs
//! one slab slot and one fd while idle — buffers detach to a per-shard
//! pool — and the steady-state request path (read → parse → route →
//! serialize → write) performs zero heap allocations (`tests/zeroalloc.rs`
//! asserts this with a counting allocator).
//!
//! ## Topology
//!
//! ```text
//!   listener (shared fd, EPOLLEXCLUSIVE: kernel wakes ONE shard per conn)
//!      │
//!   ┌──┴────────┬────────────┐
//! shard 0     shard 1      shard N     epoll loops; conns pinned to the
//!   │            │            │        shard that accepted them
//!   │  inline fast path: GET endpoints, cache-hit /predict — answered
//!   │  on the shard, no handoff, no epoll_ctl, no allocation
//!   │            │            │
//!   └── offload ─┴── offload ─┘        /observe, /plan, solver-bound
//!             │                        /predict (may block seconds)
//!      dispatcher pool ── App::handle_at ──┐
//!             │                            │
//!       solver pool (micro-batch,          │
//!       unchanged from the threaded core)  │
//!             │                            │
//!      completion → shard's eventfd doorbell; the shard writes the
//!      response on the connection's pooled buffers, in request order
//! ```
//!
//! Admission control, deadline propagation (anchored at *arrival*, so
//! dispatch queueing consumes the budget), the degraded ladder and fault
//! injection all live in [`crate::router::App`] and are shared verbatim
//! with the threaded core — `tests/reactor.rs` holds the two cores
//! byte-identical over a differential request trace.

use crate::batch::solver_loop;
use crate::conn::{BufPool, Conn, State, Step, DEFAULT_STALL_TIMEOUT};
use crate::http::{Request, Response};
use crate::router::App;
use crate::shutdown::Shutdown;
use perfpred_core::faults::{self, FaultSite};
use perfpred_core::metrics;
use perfpred_core::sys;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Epoll cookie for the shared listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll cookie for the shard's completion/shutdown eventfd doorbell.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Upper bound on one `epoll_wait` sleep: the backstop cadence for
/// signal-delivered shutdown (a signal handler cannot ring the doorbell)
/// and for the stall sweep.
const EPOLL_TIMEOUT_MS: i32 = 50;
/// Ready events drained per `epoll_wait` call.
const EVENTS_PER_WAIT: usize = 256;
/// Cadence of the slow-loris stall sweep.
const SWEEP_INTERVAL: Duration = Duration::from_millis(100);
/// Extra connections (beyond `max_conns`) that may briefly occupy slab
/// slots while a shed 503 flushes; past the slack the socket just drops.
const SHED_SLACK: usize = 256;
/// Default cap on concurrently open connections across all shards,
/// comfortably under a 20k fd ulimit with headroom for listener/epoll/
/// eventfd/store descriptors.
pub const DEFAULT_MAX_CONNS: usize = 16_000;

/// A dispatched request's answer, travelling dispatcher → shard. Carries
/// the scratch [`Request`] back home so the connection's buffer set stays
/// allocation-free across offloaded requests.
struct Completion {
    token: u64,
    req: Request,
    response: Response,
}

/// A shard's cross-thread mailbox: completions land here and the eventfd
/// doorbell interrupts the shard's `epoll_wait`. Also rung (empty) by the
/// shutdown waker. The fd closes when the last `Arc` drops — the shutdown
/// waker and dispatcher pool hold clones, so a rung doorbell can never be
/// a reused fd.
struct ShardHandle {
    wake_fd: i32,
    completions: Mutex<Vec<Completion>>,
}

impl ShardHandle {
    fn new() -> io::Result<ShardHandle> {
        Ok(ShardHandle {
            wake_fd: sys::eventfd_create()?,
            completions: Mutex::new(Vec::new()),
        })
    }

    fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completion mailbox lock")
            .push(completion);
        let _ = sys::eventfd_signal(self.wake_fd);
    }

    fn wake(&self) {
        let _ = sys::eventfd_signal(self.wake_fd);
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        sys::close_fd(self.wake_fd);
    }
}

/// One offloaded request, bound for the dispatcher pool.
struct DispatchJob {
    shard: usize,
    token: u64,
    req: Request,
    arrival: Instant,
}

/// Bounded queue feeding the dispatcher pool; overflow answers 503 on the
/// shard, mirroring the threaded core's bounded accept queue.
struct DispatchQueue {
    jobs: Mutex<VecDeque<DispatchJob>>,
    available: Condvar,
    capacity: usize,
    /// Mirror of the live queue length, shared with `App.dispatch_depth`
    /// so `/healthz` reads it without taking the queue lock.
    depth: Arc<AtomicUsize>,
}

impl DispatchQueue {
    fn new(capacity: usize, depth: Arc<AtomicUsize>) -> DispatchQueue {
        DispatchQueue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    /// `Err(job)` hands the request back on overflow.
    fn push(&self, job: DispatchJob) -> Result<(), DispatchJob> {
        let mut jobs = self.jobs.lock().expect("dispatch queue lock");
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        self.depth.store(jobs.len(), Ordering::Relaxed);
        drop(jobs);
        self.available.notify_one();
        Ok(())
    }

    fn pop(&self, wait: Duration) -> Option<DispatchJob> {
        let jobs = self.jobs.lock().expect("dispatch queue lock");
        let (mut jobs, _) = self
            .available
            .wait_timeout_while(jobs, wait, |j| j.is_empty())
            .expect("dispatch queue lock");
        let job = jobs.pop_front();
        self.depth.store(jobs.len(), Ordering::Relaxed);
        job
    }
}

/// A bound-and-listening event-driven daemon, one `run()` away from
/// serving — the reactor counterpart of [`crate::server::Server`], built
/// around the same [`App`] so the two cores answer byte-identically.
pub struct ReactorServer {
    listener: TcpListener,
    addr: SocketAddr,
    app: Arc<App>,
    shards: usize,
    dispatchers: usize,
    solvers: usize,
    batch_max: usize,
    queue_depth: usize,
    stall_timeout: Duration,
    max_conns: usize,
}

impl ReactorServer {
    /// Binds `host:port` (port 0 = ephemeral) around an assembled [`App`].
    /// `dispatchers` sizes the blocking-work pool (the threaded core's
    /// `workers` knob); `shards` sizes the epoll reactor itself.
    #[allow(clippy::too_many_arguments)]
    pub fn bind(
        host: &str,
        port: u16,
        app: App,
        shards: usize,
        dispatchers: usize,
        solvers: usize,
        batch_max: usize,
        queue_depth: usize,
    ) -> io::Result<ReactorServer> {
        let listener = TcpListener::bind((host, port))?;
        let addr = listener.local_addr()?;
        // Publish the shard count so /healthz can report the serving
        // topology (0 means the threaded core is running instead).
        app.reactor_shards.store(shards.max(1), Ordering::Relaxed);
        Ok(ReactorServer {
            listener,
            addr,
            app: Arc::new(app),
            shards: shards.max(1),
            dispatchers: dispatchers.max(1),
            solvers: solvers.max(1),
            batch_max: batch_max.max(1),
            queue_depth: queue_depth.max(1),
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            max_conns: DEFAULT_MAX_CONNS,
        })
    }

    /// Overrides the stalled-connection eviction threshold (tests shrink
    /// it to exercise slow-loris eviction without waiting 10 s).
    pub fn set_stall_timeout(&mut self, timeout: Duration) {
        self.stall_timeout = timeout.max(Duration::from_millis(1));
    }

    /// Overrides the global open-connection cap.
    pub fn set_max_conns(&mut self, max_conns: usize) {
        self.max_conns = max_conns.max(1);
    }

    /// The bound address (resolves `--port 0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The token that stops this server (shared with the [`App`]).
    pub fn shutdown_handle(&self) -> Arc<Shutdown> {
        Arc::clone(&self.app.shutdown)
    }

    /// Serves until shutdown is requested, then drains in dependency
    /// order: shards stop accepting, close idle connections and finish
    /// in-flight responses; the dispatcher pool exits once no shard can
    /// enqueue more work; the solver pool exits once no dispatcher can;
    /// and the observation log's tail syncs last.
    pub fn run(self) -> io::Result<()> {
        let shutdown = self.shutdown_handle();
        self.listener.set_nonblocking(true)?;

        // Solver pool — identical to the threaded core, private done
        // token so solvers outlive everything that can enqueue jobs.
        let solvers_done = Shutdown::new();
        let mut solver_handles = Vec::with_capacity(self.solvers);
        for i in 0..self.solvers {
            let queue = Arc::clone(&self.app.queue);
            let app = Arc::clone(&self.app);
            let done = Arc::clone(&solvers_done);
            let batch_max = self.batch_max;
            solver_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-solver-{i}"))
                    .spawn(move || solver_loop(&queue, &app.host.lqns, batch_max, &done))
                    .expect("spawn solver thread"),
            );
        }

        // Dispatcher pool for blocking work, with its own drain token.
        let dispatch = Arc::new(DispatchQueue::new(
            self.queue_depth,
            Arc::clone(&self.app.dispatch_depth),
        ));
        let handles: Vec<Arc<ShardHandle>> = (0..self.shards)
            .map(|_| ShardHandle::new().map(Arc::new))
            .collect::<io::Result<_>>()?;
        let dispatchers_done = Shutdown::new();
        let mut dispatcher_handles = Vec::with_capacity(self.dispatchers);
        for i in 0..self.dispatchers {
            let queue = Arc::clone(&dispatch);
            let app = Arc::clone(&self.app);
            let shard_handles = handles.clone();
            let done = Arc::clone(&dispatchers_done);
            dispatcher_handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(&queue, &app, &shard_handles, &done))
                    .expect("spawn dispatcher thread"),
            );
        }

        // `request()` rings every shard's doorbell so parked epoll waits
        // notice immediately; the waker's Arcs keep the fds alive.
        {
            let handles = handles.clone();
            shutdown.on_request(move || {
                for handle in &handles {
                    handle.wake();
                }
            });
        }

        let open_conns = Arc::new(AtomicUsize::new(0));
        let mut shard_threads = Vec::with_capacity(self.shards);
        for (id, handle) in handles.iter().enumerate() {
            let shard = Shard::new(
                id,
                self.listener.try_clone()?,
                Arc::clone(handle),
                Arc::clone(&self.app),
                Arc::clone(&shutdown),
                Arc::clone(&dispatch),
                Arc::clone(&open_conns),
                self.max_conns,
                self.stall_timeout,
                self.shards,
            )?;
            shard_threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-shard-{id}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard thread"),
            );
        }

        for t in shard_threads {
            let _ = t.join();
        }
        dispatchers_done.request();
        for t in dispatcher_handles {
            let _ = t.join();
        }
        solvers_done.request();
        for t in solver_handles {
            let _ = t.join();
        }
        self.app
            .store
            .sync()
            .map_err(|e| io::Error::other(format!("observation log sync: {e}")))?;
        Ok(())
    }
}

/// Pops offloaded requests and runs the blocking route handlers, posting
/// each answer back to the owning shard's mailbox.
fn dispatcher_loop(queue: &DispatchQueue, app: &App, shards: &[Arc<ShardHandle>], done: &Shutdown) {
    loop {
        match queue.pop(Duration::from_millis(20)) {
            Some(job) => {
                let response = app.handle_at(&job.req, job.arrival);
                shards[job.shard].complete(Completion {
                    token: job.token,
                    req: job.req,
                    response,
                });
            }
            None => {
                if done.requested() {
                    return;
                }
            }
        }
    }
}

/// A slab-resident connection plus the generation stamped into its epoll
/// cookie; stale events and completions for a recycled slot fail the
/// generation check and are discarded.
struct Entry {
    conn: Conn,
    gen: u32,
}

/// What handling a freshly parsed request did to the connection.
enum ReqOutcome {
    /// Answered on the shard; the response is queued and flushing.
    Inline,
    /// Handed to the dispatcher pool; the connection parks in `Dispatch`
    /// with epoll interest zero until the completion doorbell rings.
    Offloaded,
    /// The connection must close (fault injection).
    Closed,
}

/// One reactor shard: an epoll fd, a connection slab, a buffer pool, and
/// the loop that multiplexes them.
struct Shard {
    id: usize,
    epfd: i32,
    listener: TcpListener,
    listener_fd: i32,
    handle: Arc<ShardHandle>,
    app: Arc<App>,
    shutdown: Arc<Shutdown>,
    dispatch: Arc<DispatchQueue>,
    pool: BufPool,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    active: usize,
    gen_counter: u32,
    open_conns: Arc<AtomicUsize>,
    max_conns: usize,
    stall_timeout: Duration,
    accepted: Arc<metrics::ShardedCounter>,
    comp_scratch: Vec<Completion>,
    draining: bool,
}

impl Drop for Shard {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

impl Shard {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: usize,
        listener: TcpListener,
        handle: Arc<ShardHandle>,
        app: Arc<App>,
        shutdown: Arc<Shutdown>,
        dispatch: Arc<DispatchQueue>,
        open_conns: Arc<AtomicUsize>,
        max_conns: usize,
        stall_timeout: Duration,
        nshards: usize,
    ) -> io::Result<Shard> {
        let epfd = sys::epoll_create()?;
        let listener_fd = listener.as_raw_fd();
        // Every shard watches the same listening socket; EPOLLEXCLUSIVE
        // (Linux ≥ 4.5) makes the kernel wake exactly one shard per
        // pending connection instead of thundering the whole herd. Older
        // kernels reject the flag — fall back to plain (racy but correct)
        // shared watching.
        if sys::epoll_add(
            epfd,
            listener_fd,
            sys::EPOLLIN | sys::EPOLLEXCLUSIVE,
            LISTENER_TOKEN,
        )
        .is_err()
        {
            if let Err(e) = sys::epoll_add(epfd, listener_fd, sys::EPOLLIN, LISTENER_TOKEN) {
                sys::close_fd(epfd);
                return Err(e);
            }
        }
        if let Err(e) = sys::epoll_add(epfd, handle.wake_fd, sys::EPOLLIN, WAKE_TOKEN) {
            sys::close_fd(epfd);
            return Err(e);
        }
        Ok(Shard {
            id,
            epfd,
            listener,
            listener_fd,
            handle,
            app,
            shutdown,
            dispatch,
            pool: BufPool::new(1024),
            slab: Vec::new(),
            free: Vec::new(),
            active: 0,
            gen_counter: 1,
            open_conns,
            max_conns,
            stall_timeout,
            // One padded lane per shard: accepts count contention-free
            // and aggregate into a single `serve.accepted` on scrape.
            accepted: metrics::sharded_counter("serve.accepted", nshards),
            comp_scratch: Vec::new(),
            draining: false,
        })
    }

    fn run(mut self) {
        let mut events = [sys::EpollEvent::default(); EVENTS_PER_WAIT];
        let mut last_sweep = Instant::now();
        loop {
            let n = match sys::epoll_wait_events(self.epfd, &mut events, EPOLL_TIMEOUT_MS) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(_) => return,
            };
            let now = Instant::now();
            for event in &events[..n] {
                let ev = *event;
                // Braces force copies out of the (packed) event record.
                let flags = { ev.events };
                let token = { ev.data };
                match token {
                    LISTENER_TOKEN => self.accept_burst(now),
                    WAKE_TOKEN => {
                        sys::eventfd_drain(self.handle.wake_fd);
                        self.apply_completions(now);
                    }
                    token => self.on_conn_event(token, flags, now),
                }
            }
            let now = Instant::now();
            if now.duration_since(last_sweep) >= SWEEP_INTERVAL {
                self.sweep(now);
                last_sweep = now;
            }
            if self.shutdown.requested() {
                if !self.draining {
                    self.begin_drain();
                }
                // The doorbell is level-triggered so no completion can be
                // missed; draining here just shortens the tail.
                self.apply_completions(now);
                if self.active == 0 {
                    return;
                }
            }
        }
    }

    /// Accepts every pending connection (level-triggered: the kernel
    /// re-reports the listener until the backlog is empty).
    fn accept_burst(&mut self, now: Instant) {
        if self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accepted.lane(self.id).incr();
                    // Chaos harness: drop the connection on the floor the
                    // way a dying LB would, before any bytes move.
                    if faults::fires(FaultSite::AcceptReset) {
                        metrics::counter("serve.faults.accept_reset").incr();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    if self.open_conns.load(Ordering::Relaxed) >= self.max_conns {
                        metrics::counter("serve.accept_overflow").incr();
                        self.shed(stream, now);
                        continue;
                    }
                    let conn = Conn::new(stream, now);
                    self.register(conn, sys::EPOLLIN | sys::EPOLLRDHUP);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Installs a connection into the slab and epoll with `interest`.
    fn register(&mut self, mut conn: Conn, interest: u32) -> Option<usize> {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(None);
            self.slab.len() - 1
        });
        let gen = self.gen_counter;
        self.gen_counter = self.gen_counter.wrapping_add(1);
        let token = ((gen as u64) << 32) | slot as u64;
        conn.interest = interest;
        if sys::epoll_add(self.epfd, conn.stream.as_raw_fd(), interest, token).is_err() {
            self.free.push(slot);
            return None;
        }
        self.slab[slot] = Some(Entry { conn, gen });
        self.active += 1;
        self.open_conns.fetch_add(1, Ordering::Relaxed);
        Some(slot)
    }

    /// Sheds a connection over the cap: best-effort 503 through the same
    /// pooled write path normal responses use, then drain-and-close. If
    /// the 503 doesn't flush in one write, the connection may park in the
    /// slab within a small slack; past the slack it just drops.
    fn shed(&mut self, stream: TcpStream, now: Instant) {
        let mut conn = Conn::new(stream, now);
        let response = Response::error(503, "server is overloaded, retry later");
        conn.queue_final(&response, &mut self.pool);
        match conn.flush(now) {
            Step::WantWrite => {
                if self.open_conns.load(Ordering::Relaxed) < self.max_conns + SHED_SLACK {
                    self.register(conn, sys::EPOLLOUT | sys::EPOLLRDHUP);
                }
            }
            Step::WantRead => {
                // Response flushed; mid-drain. Park briefly so the peer
                // can read the 503 through a FIN instead of an RST.
                if self.open_conns.load(Ordering::Relaxed) < self.max_conns + SHED_SLACK {
                    self.register(conn, sys::EPOLLIN | sys::EPOLLRDHUP);
                }
            }
            Step::Dispatch | Step::Close => {
                if let Some(bufs) = conn.bufs.take() {
                    self.pool.put(bufs);
                }
            }
        }
    }

    /// Routes one ready event to its connection, discarding stale tokens.
    fn on_conn_event(&mut self, token: u64, flags: u32, now: Instant) {
        let slot = (token & 0xFFFF_FFFF) as usize;
        let gen = (token >> 32) as u32;
        let Some(entry) = self.slab.get(slot).and_then(|e| e.as_ref()) else {
            return;
        };
        if entry.gen != gen {
            return;
        }
        let broken = flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
        if broken && entry.conn.state == State::Dispatch {
            // The peer died while its request is in flight; close now.
            // The eventual completion fails the generation check.
            let entry = self.slab[slot].take().expect("checked above");
            self.finish_close(slot, entry);
            return;
        }
        let readable = flags & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 || broken;
        self.drive(slot, readable, now);
    }

    /// Advances one connection as far as it can go without blocking:
    /// fill → parse → handle → serialize → flush, looping across
    /// pipelined requests, then re-arms epoll with the minimal interest
    /// set (no `epoll_ctl` at all when the interest didn't change — the
    /// inline fast path's common case).
    fn drive(&mut self, slot: usize, mut can_read: bool, now: Instant) {
        let Some(mut entry) = self.slab.get_mut(slot).and_then(|e| e.take()) else {
            return;
        };
        loop {
            let step = match entry.conn.state {
                State::Write => entry.conn.flush(now),
                State::Drain => entry.conn.advance(now),
                State::Dispatch => {
                    // Spurious wakeup while awaiting a completion: park
                    // with zero interest (pipelined bytes wait in the
                    // kernel buffer to preserve response order).
                    self.park(slot, entry, 0);
                    return;
                }
                _ => {
                    if can_read {
                        can_read = false;
                        if entry.conn.fill(&mut self.pool, now).is_err() {
                            self.finish_close(slot, entry);
                            return;
                        }
                    }
                    entry.conn.advance(now)
                }
            };
            match step {
                Step::Dispatch => match self.on_request(&mut entry, slot, now) {
                    ReqOutcome::Inline => {}
                    ReqOutcome::Offloaded => {
                        self.park(slot, entry, 0);
                        return;
                    }
                    ReqOutcome::Closed => {
                        self.finish_close(slot, entry);
                        return;
                    }
                },
                Step::WantRead => {
                    entry.conn.release_if_idle(&mut self.pool);
                    self.park(slot, entry, sys::EPOLLIN | sys::EPOLLRDHUP);
                    return;
                }
                Step::WantWrite => {
                    self.park(slot, entry, sys::EPOLLOUT | sys::EPOLLRDHUP);
                    return;
                }
                Step::Close => {
                    self.finish_close(slot, entry);
                    return;
                }
            }
        }
    }

    /// Handles the parsed request sitting in the connection's scratch:
    /// inline on the shard when the route can't block, otherwise offload
    /// to the dispatcher pool.
    fn on_request(&mut self, entry: &mut Entry, slot: usize, now: Instant) -> ReqOutcome {
        // Chaos harness: reset an established connection mid-stream.
        if faults::fires(FaultSite::ConnReset) {
            metrics::counter("serve.faults.conn_reset").incr();
            return ReqOutcome::Closed;
        }
        // The deadline budget anchors here — at arrival — so time spent
        // queued behind the dispatcher pool consumes it, exactly like
        // queue time consumed it on the threaded core's workers.
        let arrival = now;
        let app = Arc::clone(&self.app);
        let bufs = entry
            .conn
            .bufs
            .as_mut()
            .expect("request parsed into scratch");
        match app.try_handle(&bufs.req, arrival) {
            Some(response) => {
                let keep = bufs.req.keep_alive && !self.shutdown.requested();
                entry.conn.queue_response(&response, keep, &mut self.pool);
                ReqOutcome::Inline
            }
            None => {
                let req = std::mem::take(&mut bufs.req);
                let token = ((entry.gen as u64) << 32) | slot as u64;
                match self.dispatch.push(DispatchJob {
                    shard: self.id,
                    token,
                    req,
                    arrival,
                }) {
                    Ok(()) => ReqOutcome::Offloaded,
                    Err(job) => {
                        metrics::counter("serve.dispatch_overflow").incr();
                        entry.conn.bufs.as_mut().expect("still attached").req = job.req;
                        let response = Response::error(503, "server is overloaded, retry later");
                        entry.conn.queue_response(&response, false, &mut self.pool);
                        ReqOutcome::Inline
                    }
                }
            }
        }
    }

    /// Applies every queued completion: the scratch request returns to
    /// its connection's buffers, the response serializes, and the write
    /// drives immediately.
    fn apply_completions(&mut self, now: Instant) {
        let mut comps = std::mem::take(&mut self.comp_scratch);
        {
            let mut mailbox = self
                .handle
                .completions
                .lock()
                .expect("completion mailbox lock");
            std::mem::swap(&mut *mailbox, &mut comps);
        }
        for comp in comps.drain(..) {
            let slot = (comp.token & 0xFFFF_FFFF) as usize;
            let gen = (comp.token >> 32) as u32;
            let Some(mut entry) = self.slab.get_mut(slot).and_then(|e| e.take()) else {
                continue; // connection closed while the request was in flight
            };
            if entry.gen != gen || entry.conn.state != State::Dispatch {
                self.slab[slot] = Some(entry); // someone else's live conn
                continue;
            }
            let keep = comp.req.keep_alive && !self.shutdown.requested();
            if entry.conn.bufs.is_none() {
                entry.conn.bufs = Some(self.pool.get());
            }
            entry.conn.bufs.as_mut().expect("attached above").req = comp.req;
            entry
                .conn
                .queue_response(&comp.response, keep, &mut self.pool);
            self.slab[slot] = Some(entry);
            self.drive(slot, false, now);
        }
        self.comp_scratch = comps; // keep the capacity for next time
    }

    /// Evicts connections stalled mid-request, mid-response or mid-drain
    /// past the stall timeout — the slow-loris defence. Idle keep-alive
    /// connections and dispatched requests (the solver-reply timeout
    /// governs those) are exempt.
    fn sweep(&mut self, now: Instant) {
        for slot in 0..self.slab.len() {
            let Some(entry) = self.slab[slot].as_ref() else {
                continue;
            };
            let mid_stream = match entry.conn.state {
                State::Dispatch => false,
                State::ReadHead => entry.conn.bufs.as_ref().is_some_and(|b| !b.read.is_empty()),
                State::ReadBody | State::Write | State::Drain => true,
            };
            if mid_stream && now.duration_since(entry.conn.last_progress) > self.stall_timeout {
                metrics::counter("serve.stalled_conns").incr();
                let entry = self.slab[slot].take().expect("checked above");
                self.finish_close(slot, entry);
            }
        }
    }

    /// First shutdown tick: stop accepting and close idle connections.
    /// Mid-request connections finish (their responses go out with
    /// `Connection: close`); the stall sweep bounds the tail.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = sys::epoll_del(self.epfd, self.listener_fd);
        for slot in 0..self.slab.len() {
            let idle = self.slab[slot].as_ref().is_some_and(|e| {
                e.conn.state == State::ReadHead
                    && e.conn.bufs.as_ref().is_none_or(|b| b.read.is_empty())
            });
            if idle {
                let entry = self.slab[slot].take().expect("checked above");
                self.finish_close(slot, entry);
            }
        }
    }

    /// Re-inserts a driven connection, updating epoll interest only when
    /// it changed.
    fn park(&mut self, slot: usize, mut entry: Entry, interest: u32) {
        if entry.conn.interest != interest {
            let token = ((entry.gen as u64) << 32) | slot as u64;
            if sys::epoll_mod(self.epfd, entry.conn.stream.as_raw_fd(), interest, token).is_err() {
                self.finish_close(slot, entry);
                return;
            }
            entry.conn.interest = interest;
        }
        self.slab[slot] = Some(entry);
    }

    /// Final close for an already-removed entry: deregister, recycle the
    /// buffers and slot, drop the socket.
    fn finish_close(&mut self, slot: usize, mut entry: Entry) {
        let _ = sys::epoll_del(self.epfd, entry.conn.stream.as_raw_fd());
        if let Some(bufs) = entry.conn.bufs.take() {
            self.pool.put(bufs);
        }
        self.free.push(slot);
        self.active -= 1;
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
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

    fn start() -> (SocketAddr, Arc<Shutdown>, std::thread::JoinHandle<()>) {
        let app = App::new(
            ModelHost::paper(&CacheOptions::default()),
            AdmissionController::new(RuntimeOptions::default()).unwrap(),
            JobQueue::new(64),
            Shutdown::new(),
        );
        let server = ReactorServer::bind("127.0.0.1", 0, app, 2, 2, 1, 8, 16).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, shutdown, handle)
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
