//! Micro-batching for layered-queuing misses.
//!
//! Layered queuing solves are the daemon's only expensive predictions
//! (§8.5: seconds-scale against the historical model's microseconds), so
//! cache misses are not solved on the connection path. They become [`Job`]s
//! on a bounded [`JobQueue`]; a small pool of solver threads drains jobs
//! in batches, solving each against a thread-local [`AmvaWorkspace`] pool
//! (buffers are reused allocation-free, but warm-start state is dropped
//! between jobs so every memoized entry is a pure function of its inputs
//! — cluster replicas rely on that for byte-identical answers), and
//! memoizes every result into the shared [`PredictionCache`].

use crate::shutdown::Shutdown;
use perfpred_core::faults::{self, FaultSite};
use perfpred_core::metrics::names;
use perfpred_core::{metrics, PredictError, Prediction, PredictionCache, ServerArch, Workload};
use perfpred_lqns::{AmvaWorkspace, LqnPredictor};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued layered-queuing solve.
pub struct Job {
    /// Target architecture.
    pub server: ServerArch,
    /// The workload *as received*; the solver quantizes through the cache
    /// so lookup and solve agree.
    pub workload: Workload,
    /// Where the waiting dispatcher receives the result.
    pub reply: mpsc::Sender<Result<Prediction, PredictError>>,
    /// When the requester stops caring. A job whose deadline has passed
    /// by the time a solver picks it up is shed unsolved — the dispatcher has
    /// already fallen back or answered 504, so solving would only burn a
    /// solver slot that queued-behind jobs still in budget are waiting on.
    pub deadline: Option<Instant>,
}

/// A bounded MPMC queue of solver jobs.
pub struct JobQueue {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` outstanding jobs.
    pub fn new(capacity: usize) -> Arc<JobQueue> {
        Arc::new(JobQueue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Enqueues a job; `Err(job)` hands it back when the queue is full
    /// (the router answers 503 — solver overload must shed, not buffer
    /// unboundedly).
    pub fn push(&self, job: Job) -> Result<(), Job> {
        let mut jobs = self.jobs.lock().expect("job queue lock");
        if jobs.len() >= self.capacity {
            metrics::counter("serve.solver.overflow").incr();
            return Err(job);
        }
        jobs.push_back(job);
        drop(jobs);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks up to `wait` for a first job, then drains up to `max` —
    /// the micro-batch. Returns an empty batch on timeout.
    pub fn pop_batch(&self, max: usize, wait: Duration) -> Vec<Job> {
        let jobs = self.jobs.lock().expect("job queue lock");
        let (mut jobs, _) = self
            .available
            .wait_timeout_while(jobs, wait, |j| j.is_empty())
            .expect("job queue lock");
        let take = jobs.len().min(max.max(1));
        jobs.drain(..take).collect()
    }

    /// Outstanding jobs.
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("job queue lock").len()
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One solver thread's main loop.
///
/// Runs until `shutdown` is requested *and* the queue is drained: dispatchers
/// stop enqueueing once shutdown begins (the router answers misses inline
/// then), so draining first means no accepted request is ever dropped.
pub fn solver_loop(
    queue: &JobQueue,
    cache: &PredictionCache<LqnPredictor>,
    batch_max: usize,
    shutdown: &Shutdown,
) {
    let mut pool: Vec<AmvaWorkspace> = Vec::new();
    loop {
        let batch = queue.pop_batch(batch_max, Duration::from_millis(20));
        if batch.is_empty() {
            if shutdown.requested() {
                return;
            }
            continue;
        }
        metrics::histogram("serve.batch_size").record(batch.len() as f64);
        for job in batch {
            if job.deadline.is_some_and(|d| Instant::now() >= d) {
                metrics::counter(names::SERVE_DEADLINE_EXPIRED_TOTAL).incr();
                let _ = job.reply.send(Err(PredictError::DeadlineExpired(
                    "shed before solving: queue wait exceeded the request budget".into(),
                )));
                continue;
            }
            // Chaos harness: stall the solver the way a CPU-starved or
            // page-faulting host would, so deadline shedding and degraded
            // fallback get exercised under test.
            if let Some(delay) = faults::delay(FaultSite::SolverDelay) {
                metrics::counter("serve.faults.solver_delay").incr();
                std::thread::sleep(delay);
            }
            let result = solve_one(cache, &job, &mut pool);
            // A dropped receiver just means the client went away.
            let _ = job.reply.send(result);
        }
    }
}

/// Solves one job through the cache: re-peek (another solver may have
/// answered the same quantized key while this job sat queued), solve with
/// the warm pool on a real miss, memoize.
fn solve_one(
    cache: &PredictionCache<LqnPredictor>,
    job: &Job,
    pool: &mut Vec<AmvaWorkspace>,
) -> Result<Prediction, PredictError> {
    if let Some(found) = cache.peek(&job.server, &job.workload) {
        return found;
    }
    let solved = cache.quantized(&job.workload);
    let started = std::time::Instant::now();
    // Reuse the pool's buffers but drop its warm-start state: a memoized
    // entry must be a pure function of (server, workload, model), or
    // replicas serving the same model would cache answers that differ in
    // the last bits depending on what each node happened to solve before.
    for ws in pool.iter_mut() {
        ws.invalidate();
    }
    let result = cache.inner().predict_with_pool(&job.server, &solved, pool);
    metrics::histogram("serve.solve_ms").record(started.elapsed().as_secs_f64() * 1e3);
    cache.insert(&job.server, &job.workload, result.clone());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_core::CacheOptions;
    use perfpred_core::PerformanceModel;
    use perfpred_lqns::trade::TradeLqnConfig;

    fn queue_job(
        server: &ServerArch,
        clients: u32,
    ) -> (Job, mpsc::Receiver<Result<Prediction, PredictError>>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                server: server.clone(),
                workload: Workload::typical(clients),
                reply: tx,
                deadline: None,
            },
            rx,
        )
    }

    #[test]
    fn queue_bounds_and_batches() {
        let q = JobQueue::new(2);
        let server = ServerArch::app_serv_f();
        let (a, _ra) = queue_job(&server, 10);
        let (b, _rb) = queue_job(&server, 20);
        let (c, _rc) = queue_job(&server, 30);
        assert!(q.push(a).is_ok());
        assert!(q.push(b).is_ok());
        assert!(q.push(c).is_err(), "third job must overflow");
        assert_eq!(q.len(), 2);
        let batch = q.pop_batch(8, Duration::from_millis(1));
        assert_eq!(batch.len(), 2);
        assert!(q.is_empty());
        assert!(q.pop_batch(8, Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn expired_jobs_are_shed_unsolved_and_in_budget_jobs_still_answer() {
        let q = JobQueue::new(16);
        let cache = PredictionCache::with_options(
            LqnPredictor::new(TradeLqnConfig::paper_table2()),
            CacheOptions::default(),
        );
        let server = ServerArch::app_serv_f();

        let (mut expired, rx_expired) = queue_job(&server, 150);
        expired.deadline = Some(Instant::now() - Duration::from_millis(5));
        let (mut live, rx_live) = queue_job(&server, 250);
        live.deadline = Some(Instant::now() + Duration::from_secs(30));
        assert!(q.push(expired).is_ok());
        assert!(q.push(live).is_ok());

        let shutdown = Shutdown::new();
        shutdown.request();
        solver_loop(&q, &cache, 8, &shutdown);

        match rx_expired.try_recv().expect("shed reply delivered") {
            Err(PredictError::DeadlineExpired(_)) => {}
            other => panic!("expected DeadlineExpired, got {other:?}"),
        }
        assert!(rx_live.try_recv().expect("live reply delivered").is_ok());
        // The shed job must not have been solved into the cache.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn solver_drains_queue_then_exits_on_shutdown() {
        let q = JobQueue::new(16);
        let cache = PredictionCache::with_options(
            LqnPredictor::new(TradeLqnConfig::paper_table2()),
            CacheOptions::default(),
        );
        let server = ServerArch::app_serv_f();
        let mut receivers = Vec::new();
        for clients in [100u32, 200, 300, 100] {
            let (job, rx) = queue_job(&server, clients);
            assert!(q.push(job).is_ok());
            receivers.push((clients, rx));
        }
        let shutdown = Shutdown::new();
        shutdown.request(); // drain mode: solve what is queued, then exit
        solver_loop(&q, &cache, 3, &shutdown);
        assert!(q.is_empty());
        let mut first_100 = None;
        for (clients, rx) in receivers {
            let got = rx.try_recv().expect("reply delivered").unwrap();
            // Warm-started solves agree with fresh solves to solver
            // tolerance, not bit-for-bit (bit-identity is the *cache's*
            // contract, exercised below on the duplicate key).
            let direct = cache
                .inner()
                .predict(&server, &Workload::typical(clients))
                .unwrap();
            let rel = (got.mrt_ms - direct.mrt_ms).abs() / direct.mrt_ms;
            assert!(
                rel < 1e-4,
                "clients={clients}: {} vs {}",
                got.mrt_ms,
                direct.mrt_ms
            );
            if clients == 100 {
                // Both 100-client jobs must answer the same memoized bits.
                if let Some(prev) = first_100.replace(got.mrt_ms) {
                    assert_eq!(f64::to_bits(prev), got.mrt_ms.to_bits());
                }
            }
        }
        // 3 distinct keys solved; the duplicate 100-client job re-peeked.
        assert_eq!(cache.len(), 3);
    }
}
