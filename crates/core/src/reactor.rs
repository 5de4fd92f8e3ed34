//! The workspace's one event loop: N reactor shards, each a nonblocking
//! epoll loop multiplexing thousands of keep-alive connections through
//! the [`crate::conn`] state machine, in front of a bounded pool of
//! dispatcher threads for work that may block. Every daemon that accepts
//! HTTP connections runs on it — `perfpred-serve` and `perfpred-router`
//! differ only in their [`Handler`].
//!
//! ## Why a reactor
//!
//! A thread per connection spends one OS thread per open socket: at 10k
//! parked keep-alive sockets that is 10k threads' worth of stacks and
//! context switches for work that is almost entirely *waiting*. A shard
//! is one thread per core parked in `epoll_wait`, so a connection costs
//! one slab slot and one fd while idle — buffers detach to a per-shard
//! pool — and the steady-state framing path (read → parse → serialize →
//! write) performs zero heap allocations (serve's `tests/zeroalloc.rs`
//! asserts this with a counting allocator). The thread count is fixed:
//! shards plus dispatchers, whatever the number of clients.
//!
//! ## Topology
//!
//! ```text
//!   listener (shared fd, EPOLLEXCLUSIVE: kernel wakes ONE shard per conn)
//!      │
//!   ┌──┴────────┬────────────┐
//! shard 0     shard 1      shard N     epoll loops; conns pinned to the
//!   │            │            │        shard that accepted them
//!   │  Handler::try_handle_into: answered on the shard into a reused
//!   │  response, no handoff, no epoll_ctl, no allocation
//!   │            │            │
//!   └── offload ─┴── offload ─┘        bounded DispatchQueue, overflow
//!             │                        answers 503 on the shard
//!      dispatcher pool ── Handler::handle_at (may block)
//!             │
//!      completion → shard's eventfd doorbell; the shard writes the
//!      response on the connection's pooled buffers, in request order
//! ```
//!
//! Replies answered on the shard coalesce: a pipelined burst of inline
//! hits goes out in one `write(2)`, and replies queued ahead of an
//! offloaded request are written before it leaves the shard (see
//! [`crate::conn`], "When a reply is flushed"). Every `write(2)` call is
//! counted in `<prefix>.socket_writes`.
//!
//! The loop also owns everything around the handler: the connection cap
//! (shed with a 503), the slow-loris stall sweep, refusals of malformed
//! or oversized requests, the `AcceptReset`/`ConnReset` fault sites, and
//! the graceful drain. Its counters are named under a caller-given prefix
//! (`serve.accepted`, `router.accepted`, ...).

#![cfg(target_os = "linux")]

use crate::conn::{BufPool, Conn, State, Step, DEFAULT_STALL_TIMEOUT};
use crate::faults::{self, FaultSite};
use crate::http::{Request, Response};
use crate::metrics::{self, Counter, ShardedCounter};
use crate::shutdown::Shutdown;
use crate::sys;
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
/// Extra connections (beyond [`MAX_CONNS`]) that may briefly occupy slab
/// slots while a shed 503 flushes; past the slack the socket just drops.
const SHED_SLACK: usize = 256;
/// Cap on concurrently open connections across all shards, comfortably
/// under a 20k fd ulimit with headroom for listener/epoll/eventfd/store
/// descriptors; past it, new connections are shed with a 503.
const MAX_CONNS: usize = 16_000;

/// What a daemon plugs into the loop: how to answer one parsed request.
pub trait Handler: Send + Sync + 'static {
    /// Answers on the shard thread into `out` and returns true, or
    /// declines with false to have the request offloaded to
    /// [`Handler::handle_at`]. `out` is a response the shard reuses
    /// across requests, so rendering into its body
    /// ([`Response::reset_json`]) allocates nothing once warm. Must not
    /// block: every connection on the shard waits while it runs.
    fn try_handle_into(&self, req: &Request, arrival: Instant, out: &mut Response) -> bool;

    /// Answers a declined request on a dispatcher thread; may block.
    /// `arrival` is when the request came off the wire, so time spent in
    /// the dispatch queue counts against any deadline it carries.
    fn handle_at(&self, req: &Request, arrival: Instant) -> Response;
}

/// The loop's counters, resolved once under the caller's prefix.
struct Counters {
    accepted: Arc<ShardedCounter>,
    socket_writes: Arc<ShardedCounter>,
    accept_reset: Arc<Counter>,
    accept_overflow: Arc<Counter>,
    conn_reset: Arc<Counter>,
    dispatch_overflow: Arc<Counter>,
    stalled_conns: Arc<Counter>,
    rejected_requests: Arc<Counter>,
}

impl Counters {
    fn resolve(prefix: &str, shards: usize) -> Counters {
        let c = |name: &str| metrics::counter(&format!("{prefix}.{name}"));
        Counters {
            // One padded lane per shard: accepts count contention-free
            // and aggregate into a single `<prefix>.accepted` on scrape.
            accepted: metrics::sharded_counter(&format!("{prefix}.accepted"), shards),
            socket_writes: metrics::sharded_counter(&format!("{prefix}.socket_writes"), shards),
            accept_reset: c("faults.accept_reset"),
            accept_overflow: c("accept_overflow"),
            conn_reset: c("faults.conn_reset"),
            dispatch_overflow: c("dispatch_overflow"),
            stalled_conns: c("stalled_conns"),
            rejected_requests: c("rejected_requests"),
        }
    }
}

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
        self.wake();
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
/// shard. Idle dispatchers sleep on the condvar until a job arrives or
/// the queue closes — no polling.
struct DispatchQueue {
    /// The jobs, and whether the queue has closed.
    jobs: Mutex<(VecDeque<DispatchJob>, bool)>,
    available: Condvar,
    capacity: usize,
    /// Mirror of the live queue length, shared with the handler (serve's
    /// `/healthz` reads it without taking the queue lock).
    depth: Arc<AtomicUsize>,
}

impl DispatchQueue {
    fn new(capacity: usize, depth: Arc<AtomicUsize>) -> DispatchQueue {
        DispatchQueue {
            jobs: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    /// `Err(job)` hands the request back on overflow.
    fn push(&self, job: DispatchJob) -> Result<(), DispatchJob> {
        let mut guard = self.jobs.lock().expect("dispatch queue lock");
        let jobs = &mut guard.0;
        if jobs.len() >= self.capacity {
            return Err(job);
        }
        jobs.push_back(job);
        self.depth.store(jobs.len(), Ordering::Relaxed);
        drop(guard);
        self.available.notify_one();
        Ok(())
    }

    /// The next job; `None` once the queue is closed and empty.
    fn pop(&self) -> Option<DispatchJob> {
        let guard = self.jobs.lock().expect("dispatch queue lock");
        let mut guard = self
            .available
            .wait_while(guard, |(jobs, closed)| jobs.is_empty() && !*closed)
            .expect("dispatch queue lock");
        let job = guard.0.pop_front();
        self.depth.store(guard.0.len(), Ordering::Relaxed);
        job
    }

    /// Lets the dispatchers finish what is queued, then exit.
    fn close(&self) {
        self.jobs.lock().expect("dispatch queue lock").1 = true;
        self.available.notify_all();
    }
}

/// A bound listening socket plus the loop's shape, one [`Reactor::run`]
/// away from serving. Splitting bind from run lets callers learn an
/// ephemeral port before the blocking loop starts.
pub struct Reactor {
    listener: TcpListener,
    addr: SocketAddr,
    /// Prefix of the loop's counter and thread names (`serve`, `router`).
    prefix: &'static str,
    /// Epoll shards (threads running the event loop).
    pub shards: usize,
    /// Dispatcher threads running [`Handler::handle_at`].
    pub dispatchers: usize,
    /// Bound on offloaded requests waiting for a dispatcher; overflow is
    /// answered 503.
    pub queue_depth: usize,
    /// How long a connection may stall mid-request, mid-response or
    /// mid-drain before it is evicted.
    pub stall_timeout: Duration,
    /// Published live depth of the dispatch queue.
    pub dispatch_depth: Arc<AtomicUsize>,
}

impl Reactor {
    /// Binds `host:port` (port 0 = ephemeral) with one shard, one
    /// dispatcher, a 1024-deep dispatch queue and the default stall
    /// timeout; callers adjust the public fields.
    pub fn bind(host: &str, port: u16, prefix: &'static str) -> io::Result<Reactor> {
        let listener = TcpListener::bind((host, port))?;
        let addr = listener.local_addr()?;
        Ok(Reactor {
            listener,
            addr,
            prefix,
            shards: 1,
            dispatchers: 1,
            queue_depth: 1024,
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            dispatch_depth: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves `handler` until `shutdown` is requested, then drains in
    /// dependency order: shards stop accepting, close idle connections
    /// and finish in-flight responses; the dispatcher pool exits once no
    /// shard can enqueue more work.
    pub fn run<H: Handler>(self, handler: Arc<H>, shutdown: &Arc<Shutdown>) -> io::Result<()> {
        let nshards = self.shards.max(1);
        self.listener.set_nonblocking(true)?;
        let dispatch = Arc::new(DispatchQueue::new(
            self.queue_depth,
            Arc::clone(&self.dispatch_depth),
        ));
        let handles: Vec<Arc<ShardHandle>> = (0..nshards)
            .map(|_| ShardHandle::new().map(Arc::new))
            .collect::<io::Result<_>>()?;
        let open_conns = Arc::new(AtomicUsize::new(0));
        // Every fallible step comes before the first thread starts, so an
        // error here leaves nothing running.
        let mut shards = Vec::with_capacity(nshards);
        for (id, handle) in handles.iter().enumerate() {
            shards.push(Shard::new(
                id,
                self.listener.try_clone()?,
                Arc::clone(handle),
                Arc::clone(&handler),
                Arc::clone(shutdown),
                Arc::clone(&dispatch),
                Arc::clone(&open_conns),
                Counters::resolve(self.prefix, nshards),
                &self,
            )?);
        }

        let dispatcher_threads: Vec<_> = (0..self.dispatchers.max(1))
            .map(|i| {
                let queue = Arc::clone(&dispatch);
                let handler = Arc::clone(&handler);
                let shard_handles = handles.clone();
                std::thread::Builder::new()
                    .name(format!("{}-dispatch-{i}", self.prefix))
                    .spawn(move || dispatcher_loop(&queue, &*handler, &shard_handles))
                    .expect("spawn dispatcher thread")
            })
            .collect();

        // `request()` rings every shard's doorbell so parked epoll waits
        // notice immediately; the waker's Arcs keep the fds alive.
        shutdown.on_request(move || {
            for handle in &handles {
                handle.wake();
            }
        });

        let shard_threads: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                std::thread::Builder::new()
                    .name(format!("{}-shard-{}", self.prefix, shard.id))
                    .spawn(move || shard.run())
                    .expect("spawn shard thread")
            })
            .collect();
        for t in shard_threads {
            let _ = t.join();
        }
        dispatch.close();
        for t in dispatcher_threads {
            let _ = t.join();
        }
        Ok(())
    }
}

/// Pops offloaded requests and runs the blocking handler, posting each
/// answer back to the owning shard's mailbox, until the queue closes.
fn dispatcher_loop<H: Handler>(queue: &DispatchQueue, handler: &H, shards: &[Arc<ShardHandle>]) {
    while let Some(job) = queue.pop() {
        let response = handler.handle_at(&job.req, job.arrival);
        shards[job.shard].complete(Completion {
            token: job.token,
            req: job.req,
            response,
        });
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
    /// Answered on the shard (the response is queued), or its offload
    /// deferred behind queued replies; the loop drives on.
    Queued,
    /// Handed to the dispatcher pool; the connection parks in `Dispatch`
    /// with epoll interest zero until the completion doorbell rings.
    Offloaded,
    /// The connection must close (fault injection).
    Closed,
}

/// One reactor shard: an epoll fd, a connection slab, a buffer pool, and
/// the loop that multiplexes them.
struct Shard<H> {
    id: usize,
    epfd: i32,
    listener: TcpListener,
    listener_fd: i32,
    handle: Arc<ShardHandle>,
    handler: Arc<H>,
    shutdown: Arc<Shutdown>,
    dispatch: Arc<DispatchQueue>,
    pool: BufPool,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    active: usize,
    gen_counter: u32,
    open_conns: Arc<AtomicUsize>,
    stall_timeout: Duration,
    counters: Counters,
    comp_scratch: Vec<Completion>,
    /// The response inline handlers render into, reused per request.
    reply: Response,
    draining: bool,
}

impl<H> Drop for Shard<H> {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

impl<H: Handler> Shard<H> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: usize,
        listener: TcpListener,
        handle: Arc<ShardHandle>,
        handler: Arc<H>,
        shutdown: Arc<Shutdown>,
        dispatch: Arc<DispatchQueue>,
        open_conns: Arc<AtomicUsize>,
        counters: Counters,
        shape: &Reactor,
    ) -> io::Result<Shard<H>> {
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
            handler,
            shutdown,
            dispatch,
            pool: BufPool::new(1024),
            slab: Vec::new(),
            free: Vec::new(),
            active: 0,
            gen_counter: 1,
            open_conns,
            stall_timeout: shape.stall_timeout.max(Duration::from_millis(1)),
            counters,
            comp_scratch: Vec::new(),
            reply: Response::default(),
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
                    self.counters.accepted.lane(self.id).incr();
                    // Chaos harness: drop the connection on the floor the
                    // way a dying LB would, before any bytes move.
                    if faults::fires(FaultSite::AcceptReset) {
                        self.counters.accept_reset.incr();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    if self.open_conns.load(Ordering::Relaxed) >= MAX_CONNS {
                        self.counters.accept_overflow.incr();
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
    fn register(&mut self, mut conn: Conn, interest: u32) {
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
            return;
        }
        self.slab[slot] = Some(Entry { conn, gen });
        self.active += 1;
        self.open_conns.fetch_add(1, Ordering::Relaxed);
    }

    /// Sheds a connection over the cap: best-effort 503 through the same
    /// pooled write path normal responses use, then drain-and-close. If
    /// the 503 doesn't flush in one write, the connection may park in the
    /// slab within a small slack; past the slack it just drops.
    fn shed(&mut self, stream: TcpStream, now: Instant) {
        let mut conn = Conn::new(stream, now);
        let response = Response::error(503, "server is overloaded, retry later");
        conn.queue_final(&response, &mut self.pool);
        let interest = match conn.flush(now, &self.counters.socket_writes.lane(self.id)) {
            Step::WantWrite => sys::EPOLLOUT | sys::EPOLLRDHUP,
            // Response flushed; mid-drain. Park briefly so the peer can
            // read the 503 through a FIN instead of an RST.
            Step::WantRead => sys::EPOLLIN | sys::EPOLLRDHUP,
            Step::Dispatch | Step::Offload(_) | Step::Refused | Step::Flush | Step::Close => {
                if let Some(bufs) = conn.bufs.take() {
                    self.pool.put(bufs);
                }
                return;
            }
        };
        if self.open_conns.load(Ordering::Relaxed) < MAX_CONNS + SHED_SLACK {
            self.register(conn, interest);
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
    /// fill → parse → handle → serialize, looping across pipelined
    /// requests, then one flush for the burst; then re-arms epoll with the
    /// minimal interest set (no `epoll_ctl` at all when the interest
    /// didn't change — the inline fast path's common case).
    fn drive(&mut self, slot: usize, mut can_read: bool, now: Instant) {
        let Some(mut entry) = self.slab.get_mut(slot).and_then(|e| e.take()) else {
            return;
        };
        loop {
            let step = match entry.conn.state {
                State::Write => entry
                    .conn
                    .flush(now, &self.counters.socket_writes.lane(self.id)),
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
            let outcome = match step {
                Step::Dispatch => self.on_request(&mut entry, slot, now),
                Step::Offload(arrival) => self.offload(&mut entry, slot, arrival),
                // The refusal is queued; the next lap flushes it.
                Step::Refused => {
                    self.counters.rejected_requests.incr();
                    ReqOutcome::Queued
                }
                Step::Flush => ReqOutcome::Queued,
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
            };
            match outcome {
                ReqOutcome::Queued => {}
                ReqOutcome::Offloaded => {
                    self.park(slot, entry, 0);
                    return;
                }
                ReqOutcome::Closed => {
                    self.finish_close(slot, entry);
                    return;
                }
            }
        }
    }

    /// Handles the parsed request sitting in the connection's scratch:
    /// inline on the shard when the handler answers without blocking,
    /// otherwise offload to the dispatcher pool — once any replies queued
    /// ahead of it are written.
    fn on_request(&mut self, entry: &mut Entry, slot: usize, now: Instant) -> ReqOutcome {
        // Chaos harness: reset an established connection mid-stream.
        if faults::fires(FaultSite::ConnReset) {
            self.counters.conn_reset.incr();
            return ReqOutcome::Closed;
        }
        // Any deadline budget anchors here — at arrival — so time spent
        // queued behind the dispatcher pool consumes it.
        let arrival = now;
        let bufs = entry
            .conn
            .bufs
            .as_mut()
            .expect("request parsed into scratch");
        if self
            .handler
            .try_handle_into(&bufs.req, arrival, &mut self.reply)
        {
            let keep = bufs.req.keep_alive && !self.shutdown.requested();
            entry.conn.queue_response(&self.reply, keep, &mut self.pool);
            return ReqOutcome::Queued;
        }
        if entry.conn.defer_offload(arrival) {
            return ReqOutcome::Queued;
        }
        self.offload(entry, slot, arrival)
    }

    /// Hands the request in the connection's scratch to the dispatcher
    /// pool; a full queue answers 503 on the shard instead.
    fn offload(&mut self, entry: &mut Entry, slot: usize, arrival: Instant) -> ReqOutcome {
        let bufs = entry
            .conn
            .bufs
            .as_mut()
            .expect("request parsed into scratch");
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
                self.counters.dispatch_overflow.incr();
                entry.conn.bufs.as_mut().expect("still attached").req = job.req;
                let response = Response::error(503, "server is overloaded, retry later");
                entry.conn.queue_response(&response, false, &mut self.pool);
                ReqOutcome::Queued
            }
        }
    }

    /// Applies every queued completion: the scratch request returns to
    /// its connection's buffers, the response serializes, and the
    /// connection drives immediately — pipelined successors already
    /// buffered are answered into the same flush.
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
    /// connections and dispatched requests (the handler's own timeouts
    /// govern those) are exempt.
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
                self.counters.stalled_conns.incr();
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
