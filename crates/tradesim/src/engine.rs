//! The event-driven simulation core: the paper's §2 system model (fig 1).
//!
//! One [`TradeSim`] models a *tier* of heterogeneous application servers in
//! front of **one** database server, with clients statically routed to
//! servers by the workload manager's division of the workload
//! ([`TradeSim::tier`]). The paper's calibration setup — one benchmarking
//! client per server (§4.2), measuring one (app server, DB) pair — is a tier
//! of one ([`TradeSim::new`]). The request path is:
//!
//! ```text
//! client think (exp) → infrastructure latency → app thread pool (50, FIFO)
//!   → [ app CPU slice (PS) → db net → db connection (20, FIFO)
//!       → db CPU (PS) → (disk on buffer-pool miss, FIFO) ] × db-calls
//!   → final app CPU slice → response recorded → client thinks again
//! ```
//!
//! The application thread is held for the whole bracketed section — the
//! synchronous rendezvous the layered queuing model captures — while the
//! infrastructure latency and db network time consume no CPU, which is what
//! the LQN's utilisation-based calibration cannot see.
//!
//! Each application server has its own thread pool, CPU and session cache.
//! "The database server has one FIFO queue per application server": a db
//! call waits in its own server's queue, and freed connections are handed
//! out round-robin across the queues. The database processes
//! `db_connections` calls concurrently by time-sharing its CPU, and its
//! disk serves one request at a time.

use crate::cache::{Access, SessionCache};
use crate::config::{GroundTruth, SimOptions};
use crate::ops::{BuySession, Op, OpTable};
use crate::slot::SlotPool;
use perfpred_core::{metrics, ClassLoad, RequestType, ServerArch, Workload};
use perfpred_desim::queue::EventHandle;
use perfpred_desim::{EventQueue, FifoStation, PsStation, SimRng, Welford};
use std::collections::VecDeque;

/// Raw statistics from one run.
#[derive(Debug, Clone)]
pub struct RawRunResult {
    /// Tier-wide per-service-class statistics, in workload class order.
    pub per_class: Vec<ClassRaw>,
    /// Per-class statistics per application server:
    /// `per_server_class[server][class]`. Raw samples are kept tier-wide
    /// only, in `per_class`.
    pub per_server_class: Vec<Vec<ClassRaw>>,
    /// CPU utilisation per application server over the measurement window.
    pub app_cpu_utilization: Vec<f64>,
    /// Database-server CPU utilisation over the measurement window.
    pub db_cpu_utilization: f64,
    /// Database-disk utilisation over the measurement window.
    pub disk_utilization: f64,
    /// Tier-wide session-cache miss ratio, when the cache is enabled.
    pub cache_miss_ratio: Option<f64>,
    /// Length of the measurement window, ms.
    pub measure_ms: f64,
}

/// Raw per-class statistics.
#[derive(Debug, Clone)]
pub struct ClassRaw {
    /// Response-time accumulator (ms), completions inside the window.
    pub rt: Welford,
    /// Raw response-time samples (only when `store_samples` was set).
    pub samples: Vec<f64>,
    /// Requests completed inside the measurement window.
    pub completed: u64,
}

impl ClassRaw {
    fn empty() -> Self {
        ClassRaw {
            rt: Welford::new(),
            samples: Vec::new(),
            completed: 0,
        }
    }
}

/// Marker client id for open (Poisson) requests, which have no think loop.
const OPEN_CLIENT: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A client's think time ended; it issues its next request.
    Issue(usize),
    /// An open (Poisson) source fires its next arrival; the payload is the
    /// index into the combined class list.
    OpenIssue(usize),
    /// A request's inbound infrastructure latency elapsed.
    ArriveApp(usize),
    /// App-CPU completion probe of the given server.
    AppCpu(usize),
    /// A request's database-call network latency elapsed.
    DbArrive(usize),
    /// DB-CPU completion probe.
    DbCpu,
    /// Disk completion probe.
    Disk,
    /// Warm-up boundary: snapshot utilisation counters.
    Warmup,
}

struct Client {
    class_idx: usize,
    server_idx: usize,
    session: Option<BuySession>,
    session_bytes: u64,
}

struct Request {
    client: usize,
    class_idx: usize,
    server_idx: usize,
    priority: u32,
    db_calls_left: u32,
    slice_work: f64,
    db_demand_mean: f64,
    pending_session_read: bool,
    issued_at: f64,
}

/// One application server of the tier.
struct AppServer {
    threads: SlotPool<usize>,
    cpu: PsStation<usize>,
    cpu_ev: Option<EventHandle>,
    busy_at_warmup: f64,
    cache: Option<SessionCache>,
    /// This server's per-class statistics (no raw samples).
    stats: Vec<ClassRaw>,
}

/// The database front: one FIFO queue per application server, a shared
/// connection pool, round-robin admission across the queues. With one
/// queue it is a plain FIFO pool.
struct DbFront {
    queues: Vec<VecDeque<usize>>,
    in_use: usize,
    limit: usize,
    rr: usize,
}

impl DbFront {
    fn new(servers: usize, limit: usize) -> Self {
        DbFront {
            queues: (0..servers).map(|_| VecDeque::new()).collect(),
            in_use: 0,
            limit,
            rr: 0,
        }
    }

    /// Tries to take a connection for a request from `server_idx`.
    fn acquire(&mut self, server_idx: usize, req: usize) -> bool {
        if self.in_use < self.limit {
            self.in_use += 1;
            true
        } else {
            self.queues[server_idx].push_back(req);
            false
        }
    }

    /// Releases a connection, admitting the next waiter round-robin across
    /// the per-server queues.
    fn release(&mut self) -> Option<usize> {
        let n = self.queues.len();
        for i in 0..n {
            let q = (self.rr + i) % n;
            if let Some(req) = self.queues[q].pop_front() {
                self.rr = (q + 1) % n;
                return Some(req); // connection passes on
            }
        }
        self.in_use -= 1;
        None
    }
}

/// Rough upper bound on completions one class can record in the
/// measurement window, used to pre-size raw-sample storage: a closed
/// client cannot cycle faster than its think time allows. Capped so a
/// zero-think pathological class cannot reserve unbounded memory.
fn estimated_completions(opts: &SimOptions, load: &ClassLoad) -> usize {
    let cycles_per_client = opts.measure_ms / load.class.think_time_ms.max(1.0);
    ((cycles_per_client * f64::from(load.clients)) as usize).min(1 << 20)
}

/// The simulator. Build with [`TradeSim::new`] (one server) or
/// [`TradeSim::tier`], execute with [`TradeSim::run`].
///
/// Borrows the server descriptions for its whole life — constructing a
/// simulator allocates no `ServerArch` clone (the name string made every
/// sweep cell pay a heap allocation per run).
pub struct TradeSim<'a> {
    gt: GroundTruth,
    servers: &'a [ServerArch],
    opts: SimOptions,
    ops: OpTable,

    queue: EventQueue<Ev>,
    rng_think: SimRng,
    rng_ops: SimRng,
    rng_service: SimRng,
    rng_infra: SimRng,
    rng_db: SimRng,
    rng_disk: SimRng,

    clients: Vec<Client>,
    class_think_ms: Vec<f64>,
    /// Admission priority per class (0 = highest), used when
    /// `priority_admission` is set.
    class_priority: Vec<u32>,
    requests: Vec<Option<Request>>,
    free_requests: Vec<usize>,

    apps: Vec<AppServer>,
    db_front: DbFront,
    db_cpu: PsStation<usize>,
    db_cpu_ev: Option<EventHandle>,
    disk: FifoStation<usize>,
    disk_ev: Option<EventHandle>,

    /// Open Poisson sources: (combined class index, rate per ms).
    open_sources: Vec<(usize, f64)>,
    /// Tier-wide raw response-time samples per class (`store_samples`).
    samples: Vec<Vec<f64>>,
    db_busy_at_warmup: f64,
    disk_busy_at_warmup: f64,
}

impl<'a> TradeSim<'a> {
    /// Builds a simulator for `workload` on one `server` (and the database
    /// server) with ground truth `gt` — the paper's calibration setup.
    pub fn new(
        gt: &GroundTruth,
        server: &'a ServerArch,
        workload: &Workload,
        opts: &SimOptions,
    ) -> Self {
        Self::tier(
            gt,
            std::slice::from_ref(server),
            std::slice::from_ref(workload),
            1.0,
            opts,
        )
    }

    /// Builds a tier over `assignments`: one workload per application
    /// server (all sharing the same class list), typically a
    /// resource-manager allocation (`Allocation::server_workload`).
    /// `db_speed` scales the shared database CPU (1.0 = the case-study
    /// Athlon; a tier of many application servers can out-scale one
    /// database — raise it to model a beefier DB host).
    pub fn tier(
        gt: &GroundTruth,
        servers: &'a [ServerArch],
        assignments: &[Workload],
        db_speed: f64,
        opts: &SimOptions,
    ) -> Self {
        assert_eq!(servers.len(), assignments.len(), "one workload per server");
        assert!(!servers.is_empty(), "a tier needs at least one server");
        assert!(db_speed > 0.0, "db_speed must be positive");
        let classes = &assignments[0].classes;
        for w in assignments {
            assert_eq!(
                w.classes.len(),
                classes.len(),
                "uniform class lists across servers"
            );
        }
        let root = SimRng::seed_from(opts.seed);
        let ops = OpTable::new(gt.browse_app_demand_ms, gt.buy_app_demand_ms);
        let mut rng_cache = root.derive(8);

        let mut clients = Vec::new();
        for (si, w) in assignments.iter().enumerate() {
            for (ci, load) in w.classes.iter().enumerate() {
                for _ in 0..load.clients {
                    let session = match load.class.request_type {
                        RequestType::Browse => None,
                        RequestType::Buy => Some(BuySession::start()),
                    };
                    let session_bytes = match &opts.cache {
                        Some(c) => rng_cache
                            .lognormal_mean_cv(c.mean_session_bytes, c.session_cv)
                            .max(1.0) as u64,
                        None => 0,
                    };
                    clients.push(Client {
                        class_idx: ci,
                        server_idx: si,
                        session,
                        session_bytes,
                    });
                }
            }
        }

        // Priority = rank by response-time goal (tightest first); classes
        // without goals rank last, ties keep workload order.
        let mut order: Vec<usize> = (0..classes.len()).collect();
        order.sort_by(|&a, &b| {
            let ga = classes[a].class.rt_goal_ms.unwrap_or(f64::INFINITY);
            let gb = classes[b].class.rt_goal_ms.unwrap_or(f64::INFINITY);
            // total_cmp: goals come from user configuration; a NaN goal
            // must sort deterministically, not panic the engine.
            ga.total_cmp(&gb).then(a.cmp(&b))
        });
        let mut class_priority = vec![0u32; classes.len()];
        for (rank, &ci) in order.iter().enumerate() {
            class_priority[ci] = rank as u32;
        }

        let apps = servers
            .iter()
            .map(|arch| AppServer {
                threads: SlotPool::new(gt.app_threads as usize),
                cpu: PsStation::new(arch.speed_factor, usize::MAX),
                cpu_ev: None,
                busy_at_warmup: 0.0,
                cache: opts
                    .cache
                    .as_ref()
                    .map(|c| SessionCache::new(c.capacity_for(arch))),
                stats: classes.iter().map(|_| ClassRaw::empty()).collect(),
            })
            .collect();
        let samples = (0..classes.len())
            .map(|ci| {
                Vec::with_capacity(if opts.store_samples {
                    assignments
                        .iter()
                        .map(|w| estimated_completions(opts, &w.classes[ci]))
                        .sum()
                } else {
                    0
                })
            })
            .collect();

        // Every closed client has at most one request in flight, so the
        // request arena and free list never outgrow the client count
        // (open traffic can still push past this; growth stays amortised).
        let request_cap = clients.len();

        TradeSim {
            gt: *gt,
            servers,
            opts: *opts,
            ops,
            queue: EventQueue::new(),
            rng_think: root.derive(1),
            rng_ops: root.derive(2),
            rng_service: root.derive(3),
            rng_infra: root.derive(4),
            rng_db: root.derive(6),
            rng_disk: root.derive(7),
            clients,
            class_think_ms: classes.iter().map(|l| l.class.think_time_ms).collect(),
            class_priority,
            requests: Vec::with_capacity(request_cap),
            free_requests: Vec::with_capacity(request_cap),
            apps,
            db_front: DbFront::new(servers.len(), gt.db_connections as usize),
            db_cpu: PsStation::new(db_speed, usize::MAX),
            db_cpu_ev: None,
            disk: FifoStation::new(1.0),
            disk_ev: None,
            open_sources: Vec::new(),
            samples,
            db_busy_at_warmup: 0.0,
            disk_busy_at_warmup: 0.0,
        }
    }

    /// Adds an open (Poisson) traffic source of `rate_rps` browse-mix
    /// requests per second — §8.1's "clients sending requests at a
    /// constant rate". Only browse traffic is supported open (the buy flow
    /// is a stateful session and needs a closed client), and only on a
    /// tier of one.
    pub fn with_open_traffic(mut self, class: perfpred_core::ServiceClass, rate_rps: f64) -> Self {
        assert!(rate_rps > 0.0, "open rate must be positive");
        assert_eq!(
            class.request_type,
            RequestType::Browse,
            "open traffic supports browse requests only"
        );
        assert_eq!(self.apps.len(), 1, "open traffic needs a tier of one");
        self.class_think_ms.push(class.think_time_ms);
        self.class_priority.push(u32::MAX);
        self.apps[0].stats.push(ClassRaw::empty());
        self.samples.push(Vec::new());
        let idx = self.samples.len() - 1;
        self.open_sources.push((idx, rate_rps / 1_000.0));
        self
    }

    fn alloc_request(&mut self, req: Request) -> usize {
        match self.free_requests.pop() {
            Some(i) => {
                self.requests[i] = Some(req);
                i
            }
            None => {
                self.requests.push(Some(req));
                self.requests.len() - 1
            }
        }
    }

    fn free_request(&mut self, id: usize) -> Request {
        let req = self.requests[id].take().expect("request already freed");
        self.free_requests.push(id);
        req
    }

    fn resched_app(&mut self, now: f64, si: usize) {
        let app = &mut self.apps[si];
        if let Some(h) = app.cpu_ev.take() {
            self.queue.cancel(h);
        }
        app.cpu.advance_to(now);
        if let Some(t) = app.cpu.next_completion() {
            app.cpu_ev = Some(self.queue.schedule(t.max(now), Ev::AppCpu(si)));
        }
    }

    fn resched_db(&mut self, now: f64) {
        if let Some(h) = self.db_cpu_ev.take() {
            self.queue.cancel(h);
        }
        self.db_cpu.advance_to(now);
        if let Some(t) = self.db_cpu.next_completion() {
            self.db_cpu_ev = Some(self.queue.schedule(t.max(now), Ev::DbCpu));
        }
    }

    fn resched_disk(&mut self, now: f64) {
        if let Some(h) = self.disk_ev.take() {
            self.queue.cancel(h);
        }
        if let Some(t) = self.disk.next_completion() {
            self.disk_ev = Some(self.queue.schedule(t.max(now), Ev::Disk));
        }
    }

    /// A client issues its next request.
    fn issue(&mut self, now: f64, client_id: usize) {
        let Client {
            class_idx,
            server_idx,
            session,
            ..
        } = self.clients[client_id];
        let op = match session {
            None => self.ops.sample_browse(&mut self.rng_ops),
            Some(session) => {
                let (op, next) = session.next(&mut self.rng_ops);
                self.clients[client_id].session = Some(next);
                op
            }
        };
        self.dispatch(now, op, client_id, class_idx, server_idx);
    }

    /// An open source fires: schedule its next arrival and issue a browse
    /// request to the tier's one server.
    fn issue_open(&mut self, now: f64, source_idx: usize) {
        let (class_idx, rate_per_ms) = self.open_sources[source_idx];
        // Next Poisson arrival.
        let gap = self.rng_think.exp(1.0 / rate_per_ms);
        self.queue.schedule(now + gap, Ev::OpenIssue(source_idx));
        let op = self.ops.sample_browse(&mut self.rng_ops);
        self.dispatch(now, op, OPEN_CLIENT, class_idx, 0);
    }

    /// Samples `op`'s demand and call count, then sends the request on its
    /// inbound infrastructure latency.
    fn dispatch(&mut self, now: f64, op: Op, client: usize, class_idx: usize, server_idx: usize) {
        let demand = self.rng_service.exp(self.ops.demand_ms(op));
        let mean_calls = self.ops.db_calls(op);
        let mut calls = mean_calls.floor() as u32;
        if self.rng_service.chance(mean_calls.fract()) {
            calls += 1;
        }
        let db_demand_mean = match op.request_type() {
            RequestType::Browse => self.gt.browse_db_demand_ms,
            RequestType::Buy => self.gt.buy_db_demand_ms,
        };
        let id = self.alloc_request(Request {
            client,
            class_idx,
            server_idx,
            priority: self.class_priority[class_idx],
            db_calls_left: calls,
            slice_work: demand / f64::from(calls + 1),
            db_demand_mean,
            pending_session_read: false,
            issued_at: now,
        });
        let infra = self
            .rng_infra
            .exp(self.gt.infra_latency_for(&self.servers[server_idx]));
        self.queue.schedule(now + infra, Ev::ArriveApp(id));
    }

    /// A request reaches its application server and tries to take a thread
    /// (FIFO admission, or by class priority when configured — §8.1).
    fn arrive_app(&mut self, now: f64, id: usize) {
        let req = self.requests[id].as_ref().expect("live request");
        let priority = if self.opts.priority_admission {
            req.priority
        } else {
            0
        };
        if self.apps[req.server_idx]
            .threads
            .acquire_with_priority(id, priority)
        {
            self.start_on_app(now, id);
        }
        // Otherwise the request waits in the pool's queue; `release` will
        // hand it the freed slot and the releaser resumes it.
    }

    /// A request holds an app thread: consult the session cache, then start
    /// its first CPU slice.
    fn start_on_app(&mut self, now: f64, id: usize) {
        let req = self.requests[id].as_mut().expect("live request");
        if req.client != OPEN_CLIENT {
            if let Some(cache) = &mut self.apps[req.server_idx].cache {
                let bytes = self.clients[req.client].session_bytes;
                if cache.access(req.client as u64, bytes) == Access::Miss {
                    // Extra database call to read the session back (§7.2);
                    // the CPU slices were already sized, so the session read
                    // rides in front of the first slice's db call.
                    req.db_calls_left += 1;
                    req.pending_session_read = true;
                }
            }
        }
        self.start_slice(now, id);
    }

    /// Puts a request's next CPU slice on its application server.
    fn start_slice(&mut self, now: f64, id: usize) {
        let req = self.requests[id].as_ref().expect("live request");
        let (si, work) = (req.server_idx, req.slice_work);
        self.apps[si].cpu.arrive(now, id, work.max(1e-9));
        self.resched_app(now, si);
    }

    /// An app CPU slice completed.
    fn on_slice_done(&mut self, now: f64, id: usize) {
        let req = self.requests[id].as_mut().expect("live request");
        if req.db_calls_left > 0 {
            req.db_calls_left -= 1;
            let net = self.rng_db.exp(self.gt.db_net_ms);
            self.queue.schedule(now + net, Ev::DbArrive(id));
            return;
        }
        // Final slice: the response is complete.
        let Request {
            client,
            class_idx,
            server_idx,
            issued_at,
            ..
        } = self.free_request(id);
        if let Some(waiter) = self.apps[server_idx].threads.release() {
            self.start_on_app(now, waiter);
        }
        if now >= self.opts.warmup_ms && now <= self.opts.end_ms() {
            let rt = now - issued_at;
            let s = &mut self.apps[server_idx].stats[class_idx];
            s.rt.push(rt);
            s.completed += 1;
            if self.opts.store_samples {
                self.samples[class_idx].push(rt);
            }
        }
        if client != OPEN_CLIENT {
            let think = self.rng_think.exp(self.class_think_ms[class_idx]);
            self.queue.schedule(now + think, Ev::Issue(client));
        }
    }

    /// A database call arrives at the database server and queues behind its
    /// own server's earlier calls.
    fn db_arrive(&mut self, now: f64, id: usize) {
        let si = self.requests[id].as_ref().expect("live request").server_idx;
        if self.db_front.acquire(si, id) {
            self.enter_db_cpu(now, id);
        }
    }

    fn enter_db_cpu(&mut self, now: f64, id: usize) {
        let req = self.requests[id].as_mut().expect("live request");
        let demand_mean = if req.pending_session_read {
            req.pending_session_read = false;
            self.opts
                .cache
                .as_ref()
                .map(|c| c.session_read_db_ms)
                .unwrap_or(req.db_demand_mean)
        } else {
            req.db_demand_mean
        };
        let work = self.rng_db.exp(demand_mean);
        self.db_cpu.arrive(now, id, work.max(1e-9));
        self.resched_db(now);
    }

    /// A database CPU burst completed: possibly a disk read, else done.
    fn on_db_cpu_done(&mut self, now: f64, id: usize) {
        if self.rng_disk.chance(self.gt.disk_miss_prob) {
            let work = self.rng_disk.exp(self.gt.disk_service_ms);
            self.disk.arrive(now, id, work.max(1e-9));
            self.resched_disk(now);
        } else {
            self.db_call_complete(now, id);
        }
    }

    /// A database call finished: free the connection, resume the request's
    /// next application CPU slice.
    fn db_call_complete(&mut self, now: f64, id: usize) {
        if let Some(waiter) = self.db_front.release() {
            self.enter_db_cpu(now, waiter);
        }
        self.start_slice(now, id);
    }

    /// Runs the simulation to completion and returns the raw statistics.
    pub fn run(mut self) -> RawRunResult {
        // Stagger client starts with an exponential initial think.
        for c in 0..self.clients.len() {
            let think = self
                .rng_think
                .exp(self.class_think_ms[self.clients[c].class_idx]);
            self.queue.schedule(think, Ev::Issue(c));
        }
        for i in 0..self.open_sources.len() {
            let gap = self.rng_think.exp(1.0 / self.open_sources[i].1);
            self.queue.schedule(gap, Ev::OpenIssue(i));
        }
        self.queue.schedule(self.opts.warmup_ms, Ev::Warmup);

        let end = self.opts.end_ms();
        // Count events in a local and flush once after the loop: the master
        // loop runs millions of times per simulated window and must not pay
        // for a shared atomic per event.
        let mut events = 0u64;
        let wall_start = std::time::Instant::now();
        while let Some((t, ev)) = self.queue.pop() {
            if t > end {
                break;
            }
            events += 1;
            match ev {
                Ev::Issue(c) => self.issue(t, c),
                Ev::OpenIssue(i) => self.issue_open(t, i),
                Ev::ArriveApp(id) => self.arrive_app(t, id),
                Ev::AppCpu(si) => {
                    self.apps[si].cpu_ev = None;
                    let done = self.apps[si].cpu.pop_completed(t);
                    for id in done {
                        self.on_slice_done(t, id);
                    }
                    self.resched_app(t, si);
                }
                Ev::DbArrive(id) => self.db_arrive(t, id),
                Ev::DbCpu => {
                    self.db_cpu_ev = None;
                    let done = self.db_cpu.pop_completed(t);
                    for id in done {
                        self.on_db_cpu_done(t, id);
                    }
                    self.resched_db(t);
                }
                Ev::Disk => {
                    self.disk_ev = None;
                    while let Some(id) = self.disk.pop_completed(t) {
                        self.db_call_complete(t, id);
                    }
                    self.resched_disk(t);
                }
                Ev::Warmup => {
                    for app in &mut self.apps {
                        app.cpu.advance_to(t);
                        app.busy_at_warmup = app.cpu.metrics().busy_time_ms;
                    }
                    self.db_cpu.advance_to(t);
                    self.db_busy_at_warmup = self.db_cpu.metrics().busy_time_ms;
                    self.disk_busy_at_warmup = self.disk.metrics().busy_time_ms;
                }
            }
        }

        let wall = wall_start.elapsed().as_secs_f64();
        metrics::counter("tradesim.runs").incr();
        metrics::counter("tradesim.events").add(events);
        if wall > 0.0 {
            metrics::histogram("tradesim.events_per_sec").record(events as f64 / wall);
        }

        let measure = self.opts.measure_ms;
        let util = |busy: f64, at_warmup: f64| ((busy - at_warmup) / measure).clamp(0.0, 1.0);
        let app_cpu_utilization = self
            .apps
            .iter_mut()
            .map(|app| {
                app.cpu.advance_to(end);
                util(app.cpu.metrics().busy_time_ms, app.busy_at_warmup)
            })
            .collect();
        self.db_cpu.advance_to(end);
        let db_cpu_utilization = util(self.db_cpu.metrics().busy_time_ms, self.db_busy_at_warmup);
        let disk_utilization = util(self.disk.metrics().busy_time_ms, self.disk_busy_at_warmup);
        let cache_miss_ratio = self.opts.cache.map(|_| {
            let (hits, misses) = self
                .apps
                .iter()
                .filter_map(|app| app.cache.as_ref())
                .fold((0, 0), |(h, m), c| (h + c.hits(), m + c.misses()));
            if hits + misses == 0 {
                0.0
            } else {
                misses as f64 / (hits + misses) as f64
            }
        });

        // Tier-wide classes: merging into an empty accumulator copies it
        // exactly, so a tier of one reports its server's bits unchanged.
        let per_class = self
            .samples
            .into_iter()
            .enumerate()
            .map(|(ci, samples)| {
                let mut c = ClassRaw {
                    samples,
                    ..ClassRaw::empty()
                };
                for app in &self.apps {
                    c.rt.merge(&app.stats[ci].rt);
                    c.completed += app.stats[ci].completed;
                }
                c
            })
            .collect();

        RawRunResult {
            per_class,
            per_server_class: self.apps.into_iter().map(|app| app.stats).collect(),
            app_cpu_utilization,
            db_cpu_utilization,
            disk_utilization,
            cache_miss_ratio,
            measure_ms: measure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheOptions;

    fn quick_run(server: &ServerArch, clients: u32, seed: u64) -> RawRunResult {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(seed);
        TradeSim::new(&gt, server, &Workload::typical(clients), &opts).run()
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = quick_run(&ServerArch::app_serv_f(), 200, 42);
        let b = quick_run(&ServerArch::app_serv_f(), 200, 42);
        assert_eq!(a.per_class[0].rt.mean(), b.per_class[0].rt.mean());
        assert_eq!(a.per_class[0].completed, b.per_class[0].completed);
        assert_eq!(a.app_cpu_utilization, b.app_cpu_utilization);
        let c = quick_run(&ServerArch::app_serv_f(), 200, 43);
        assert_ne!(a.per_class[0].rt.mean(), c.per_class[0].rt.mean());
    }

    #[test]
    fn light_load_throughput_matches_closed_loop() {
        // 200 clients, think 7 s, rt ~20 ms ⇒ X ≈ 200/7.02 ≈ 28.5 req/s.
        let r = quick_run(&ServerArch::app_serv_f(), 200, 1);
        let x = r.per_class[0].completed as f64 / (r.measure_ms / 1_000.0);
        assert!((x - 28.5).abs() < 1.5, "throughput {x}");
        // Mean RT: ~7 ms of service plus ~13 ms of infra latency and db
        // network time the LQN cannot see.
        let mrt = r.per_class[0].rt.mean();
        assert!(mrt > 14.0 && mrt < 30.0, "mrt {mrt}");
        // CPU utilisation ≈ X · 5.376 ms ≈ 15 %.
        assert!(
            (r.app_cpu_utilization[0] - 0.15).abs() < 0.03,
            "util {}",
            r.app_cpu_utilization[0]
        );
    }

    #[test]
    fn saturation_throughput_near_186() {
        let r = quick_run(&ServerArch::app_serv_f(), 1_900, 2);
        let x = r.per_class[0].completed as f64 / (r.measure_ms / 1_000.0);
        assert!((x - 186.0).abs() < 8.0, "throughput {x}");
        assert!(
            r.app_cpu_utilization[0] > 0.97,
            "util {}",
            r.app_cpu_utilization[0]
        );
        // Response time far above the light-load value.
        assert!(r.per_class[0].rt.mean() > 800.0);
    }

    #[test]
    fn slow_server_saturates_lower() {
        let r = quick_run(&ServerArch::app_serv_s(), 1_200, 3);
        let x = r.per_class[0].completed as f64 / (r.measure_ms / 1_000.0);
        assert!((x - 86.0).abs() < 5.0, "throughput {x}");
    }

    #[test]
    fn buy_requests_are_slower_than_browse() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(4);
        let w = Workload::with_buy_pct(600, 25.0);
        let r = TradeSim::new(&gt, &ServerArch::app_serv_f(), &w, &opts).run();
        assert_eq!(r.per_class.len(), 2);
        let browse_mrt = r.per_class[0].rt.mean();
        let buy_mrt = r.per_class[1].rt.mean();
        assert!(
            buy_mrt > browse_mrt,
            "buy {buy_mrt} should exceed browse {browse_mrt}"
        );
        assert!(r.per_class[1].completed > 0);
    }

    #[test]
    fn store_samples_collects_raw_rts() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(5).storing_samples();
        let r = TradeSim::new(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(100),
            &opts,
        )
        .run();
        assert_eq!(
            r.per_class[0].samples.len() as u64,
            r.per_class[0].completed
        );
        assert!(r.per_class[0].samples.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn cache_thrashes_when_sessions_exceed_memory() {
        let gt = GroundTruth::default();
        let mut opts = SimOptions::quick(6);
        opts.cache = Some(CacheOptions::default());
        // AppServS: 64 MB usable / 512 KB ≈ 128 sessions; 600 clients thrash.
        let r = TradeSim::new(
            &gt,
            &ServerArch::app_serv_s(),
            &Workload::typical(600),
            &opts,
        )
        .run();
        let miss = r.cache_miss_ratio.unwrap();
        assert!(miss > 0.5, "miss ratio {miss}");

        // 60 clients fit comfortably: misses only on first touch.
        let r2 = TradeSim::new(
            &gt,
            &ServerArch::app_serv_s(),
            &Workload::typical(60),
            &opts,
        )
        .run();
        // Only cold-start (first-touch) misses: ~60 of ~1200 accesses.
        let miss2 = r2.cache_miss_ratio.unwrap();
        assert!(miss2 < 0.08, "miss ratio {miss2}");
        // Thrashing adds database work: higher DB utilisation per request.
        let per_req_db = r.db_cpu_utilization / r.per_class[0].completed as f64;
        let per_req_db2 = r2.db_cpu_utilization / r2.per_class[0].completed as f64;
        assert!(per_req_db > per_req_db2);
    }

    #[test]
    fn no_cache_no_miss_ratio() {
        let r = quick_run(&ServerArch::app_serv_f(), 50, 7);
        assert!(r.cache_miss_ratio.is_none());
    }

    #[test]
    fn utilizations_bounded() {
        let r = quick_run(&ServerArch::app_serv_f(), 2_500, 8);
        for u in [
            r.app_cpu_utilization[0],
            r.db_cpu_utilization,
            r.disk_utilization,
        ] {
            assert!((0.0..=1.0).contains(&u), "utilization {u}");
        }
        // DB CPU busy but not the bottleneck.
        assert!(r.db_cpu_utilization < 0.5);
        assert!(r.disk_utilization < 0.5);
    }
}

#[cfg(test)]
mod open_tests {
    use super::*;
    use perfpred_core::ServiceClass;

    #[test]
    fn open_traffic_arrives_at_configured_rate() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(91);
        let server = ServerArch::app_serv_f();
        let sim = TradeSim::new(&gt, &server, &Workload::typical(0), &opts)
            .with_open_traffic(ServiceClass::browse().named("open"), 40.0);
        let r = sim.run();
        // The open class is appended after the (single, empty) closed one.
        assert_eq!(r.per_class.len(), 2);
        let x = r.per_class[1].completed as f64 / (r.measure_ms / 1_000.0);
        assert!((x - 40.0).abs() < 2.0, "open throughput {x}");
        // Light load: response ≈ service + infra, no queueing blowup.
        let mrt = r.per_class[1].rt.mean();
        assert!(mrt > 10.0 && mrt < 40.0, "open mrt {mrt}");
    }

    #[test]
    fn open_and_closed_traffic_share_the_server() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(92);
        let quiet = TradeSim::new(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(600),
            &opts,
        )
        .run();
        let busy = TradeSim::new(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(600),
            &opts,
        )
        .with_open_traffic(ServiceClass::browse().named("open"), 90.0)
        .run();
        // 600 closed clients ≈ 85 req/s plus 90 open ≈ 94% utilisation:
        // closed clients feel the added contention.
        assert!(
            busy.per_class[0].rt.mean() > quiet.per_class[0].rt.mean() * 1.5,
            "quiet {} busy {}",
            quiet.per_class[0].rt.mean(),
            busy.per_class[0].rt.mean()
        );
        assert!(busy.app_cpu_utilization[0] > quiet.app_cpu_utilization[0] + 0.3);
    }

    #[test]
    #[should_panic]
    fn open_buy_traffic_rejected() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(93);
        let _ = TradeSim::new(&gt, &ServerArch::app_serv_f(), &Workload::typical(0), &opts)
            .with_open_traffic(ServiceClass::buy(), 10.0);
    }
}

#[cfg(test)]
mod priority_tests {
    use super::*;
    use perfpred_core::workload::ClassLoad;
    use perfpred_core::ServiceClass;

    fn two_class_workload(n: u32) -> Workload {
        Workload {
            classes: vec![
                ClassLoad {
                    class: ServiceClass::browse().named("gold").with_goal(100.0),
                    clients: n / 2,
                },
                ClassLoad {
                    class: ServiceClass::browse().named("bronze").with_goal(1_000.0),
                    clients: n / 2,
                },
            ],
        }
    }

    #[test]
    fn priority_admission_protects_the_tight_goal_class() {
        let gt = GroundTruth::default();
        // Saturate AppServF so the thread queue is long.
        let w = two_class_workload(2_400);
        let mut fifo_opts = SimOptions::quick(95);
        let mut prio_opts = SimOptions::quick(95);
        prio_opts.priority_admission = true;

        let fifo = TradeSim::new(&gt, &ServerArch::app_serv_f(), &w, &fifo_opts).run();
        let prio = TradeSim::new(&gt, &ServerArch::app_serv_f(), &w, &prio_opts).run();

        // FIFO: both classes suffer equally.
        let fifo_ratio = fifo.per_class[1].rt.mean() / fifo.per_class[0].rt.mean();
        assert!((fifo_ratio - 1.0).abs() < 0.15, "fifo ratio {fifo_ratio}");
        // Priority: the gold class is dramatically faster than bronze.
        assert!(
            prio.per_class[0].rt.mean() * 3.0 < prio.per_class[1].rt.mean(),
            "gold {} vs bronze {}",
            prio.per_class[0].rt.mean(),
            prio.per_class[1].rt.mean()
        );
        // Work conservation: total throughput unchanged (within noise).
        let x = |r: &RawRunResult| r.per_class.iter().map(|c| c.completed).sum::<u64>() as f64;
        assert!((x(&fifo) - x(&prio)).abs() / x(&fifo) < 0.03);
        let _ = &mut fifo_opts; // silence unused-mut on the fifo options
    }

    #[test]
    fn priority_is_inert_below_saturation() {
        let gt = GroundTruth::default();
        let w = two_class_workload(400);
        let mut prio_opts = SimOptions::quick(96);
        prio_opts.priority_admission = true;
        let r = TradeSim::new(&gt, &ServerArch::app_serv_f(), &w, &prio_opts).run();
        // No thread queueing at this load: the classes look alike.
        let ratio = r.per_class[1].rt.mean() / r.per_class[0].rt.mean();
        assert!((ratio - 1.0).abs() < 0.12, "ratio {ratio}");
    }
}

#[cfg(test)]
mod db_saturation_tests {
    use super::*;

    #[test]
    fn tiny_connection_pool_becomes_the_bottleneck() {
        // One DB connection whose holding time is ~0.99 ms CPU + 50 % x
        // 6 ms disk = ~4 ms per call => ~250 calls/s => ~220 req/s at 1.14
        // calls/request - below the fast server's 320 req/s CPU capacity,
        // so the connection, not the CPU, binds.
        let gt = GroundTruth {
            db_connections: 1,
            disk_miss_prob: 0.5,
            ..Default::default()
        };
        let opts = SimOptions::quick(97);
        let r = TradeSim::new(
            &gt,
            &ServerArch::app_serv_vf(),
            &Workload::typical(2_600),
            &opts,
        )
        .run();
        let x = r.per_class[0].completed as f64 / (r.measure_ms / 1_000.0);
        // Well below the 320 req/s CPU capacity…
        assert!(
            x < 300.0,
            "throughput {x} not limited by the connection pool"
        );
        // …while the app CPU has headroom and the DB connection is the
        // choke point (db cpu util = x · calls · demand).
        assert!(
            r.app_cpu_utilization[0] < 0.95,
            "app util {}",
            r.app_cpu_utilization[0]
        );
        // Response times blow up on connection queueing.
        assert!(
            r.per_class[0].rt.mean() > 500.0,
            "mrt {}",
            r.per_class[0].rt.mean()
        );
    }

    #[test]
    fn db_connection_pool_holds_through_disk_access() {
        // High miss probability + slow disk: the disk (inside the
        // connection) saturates long before the CPUs.
        let gt = GroundTruth {
            disk_miss_prob: 1.0,
            disk_service_ms: 8.0,
            ..Default::default()
        };
        let opts = SimOptions::quick(98);
        let r = TradeSim::new(
            &gt,
            &ServerArch::app_serv_f(),
            &Workload::typical(1_500),
            &opts,
        )
        .run();
        // Disk capacity: 1000/8 = 125 disk-ops/s = ~110 req/s at 1.14
        // calls per request.
        let x = r.per_class[0].completed as f64 / (r.measure_ms / 1_000.0);
        assert!(x < 120.0, "throughput {x} above the disk bound");
        assert!(
            r.disk_utilization > 0.95,
            "disk util {}",
            r.disk_utilization
        );
        assert!(
            r.app_cpu_utilization[0] < 0.75,
            "app util {}",
            r.app_cpu_utilization[0]
        );
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;
    use perfpred_core::ServiceClass;

    fn browse_assignment(clients: u32) -> Workload {
        Workload {
            classes: vec![ClassLoad {
                class: ServiceClass::browse(),
                clients,
            }],
        }
    }

    #[test]
    fn heterogeneous_tier_loads_split_by_assignment() {
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(72);
        let archs = [ServerArch::app_serv_s(), ServerArch::app_serv_vf()];
        let assignments = [browse_assignment(300), browse_assignment(1_100)];
        let r = TradeSim::tier(&gt, &archs, &assignments, 1.0, &opts).run();
        // Both carry ~50 % CPU: 300 clients ≈ 43 req/s on an 86 req/s
        // server; 1100 ≈ 157 req/s on a 320 req/s server.
        assert!(
            (r.app_cpu_utilization[0] - 0.50).abs() < 0.05,
            "{:?}",
            r.app_cpu_utilization
        );
        assert!(
            (r.app_cpu_utilization[1] - 0.49).abs() < 0.05,
            "{:?}",
            r.app_cpu_utilization
        );
        // Per-server stats kept separately.
        assert!(r.per_server_class[0][0].completed > 0);
        assert!(r.per_server_class[1][0].completed > r.per_server_class[0][0].completed);
    }

    #[test]
    fn shared_database_saturates_a_large_tier() {
        // Four fast servers generate ~4×300 req/s of DB work (~1.13 ms per
        // request): the shared DB CPU melts, and response times explode in
        // a way no per-server model predicts.
        let gt = GroundTruth::default();
        let opts = SimOptions::quick(73);
        let archs = vec![ServerArch::app_serv_vf(); 4];
        let assignments = vec![browse_assignment(2_100); 4];
        let r = TradeSim::tier(&gt, &archs, &assignments, 1.0, &opts).run();
        assert!(
            r.db_cpu_utilization > 0.95,
            "db util {}",
            r.db_cpu_utilization
        );
        // A 4x database restores the tier's scaling.
        let fixed = TradeSim::tier(&gt, &archs, &assignments, 4.0, &opts).run();
        assert!(
            fixed.db_cpu_utilization < 0.6,
            "db util {}",
            fixed.db_cpu_utilization
        );
        assert!(
            fixed.per_class[0].rt.mean() < r.per_class[0].rt.mean() / 2.0,
            "fixed {} vs saturated {}",
            fixed.per_class[0].rt.mean(),
            r.per_class[0].rt.mean()
        );
    }

    #[test]
    fn db_front_round_robin_is_fair() {
        let mut front = DbFront::new(2, 1);
        assert!(front.acquire(0, 100));
        assert!(!front.acquire(0, 1));
        assert!(!front.acquire(0, 2));
        assert!(!front.acquire(1, 3));
        // Round-robin alternates between the two server queues.
        assert_eq!(front.release(), Some(1));
        assert_eq!(front.release(), Some(3));
        assert_eq!(front.release(), Some(2));
        assert_eq!(front.release(), None);
    }
}
