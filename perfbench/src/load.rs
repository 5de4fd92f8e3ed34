//! The load generator: one process, two sender threads, two keep-alive
//! connections.
//!
//! *Open loop.* Arrivals follow a seeded Poisson schedule at a fixed
//! rate. Each sender takes the next arrival, sleeps until it is due,
//! sends, and waits for the reply; latency is timed from the arrival's
//! *scheduled* instant, so a stall that delays later sends is charged to
//! them, and the generator reports how late it sent.
//!
//! *Saturated.* Both connections keep pipelined batches outstanding for
//! a fixed time; completions are counted per slice.

use crate::client::{Conn, Reply};
use crate::procs::tighten_timer_slack;
use crate::rng::Rng;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sender threads and connections.
pub const SENDERS: usize = 2;
/// Requests each sender keeps in flight in a saturated window.
pub const PIPELINE: usize = 8;
/// Width of one throughput slice in a saturated window.
pub const SLICE_S: f64 = 0.25;
/// Failure messages kept for the report.
const KEEP_ERRORS: usize = 8;

/// Checks one reply; `Err` counts the operation as failed.
pub type Check<'a> = dyn Fn(usize, &Reply) -> Result<(), String> + Sync + 'a;

/// What one window measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations sent (or due and never sent).
    pub attempted: u64,
    /// Transport errors, non-200 replies and failed checks.
    pub failed: u64,
    /// Latency of each successful operation, ms (open loop: from its
    /// scheduled instant).
    pub latency_ms: Vec<f64>,
    /// How late each send left against its schedule, ms (open loop).
    pub late_ms: Vec<f64>,
    /// Completion instants, seconds after the window opened.
    pub done_s: Vec<f64>,
    /// Most operations outstanding at once.
    pub inflight_max: usize,
    /// Wall time of the window, s.
    pub elapsed_s: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.done_s.extend(other.done_s);
        for e in other.errors {
            if self.errors.len() < KEEP_ERRORS {
                self.errors.push(e);
            }
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Completed operations.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Latencies grouped by the `width`-second window (of `n`) their
    /// operation completed in.
    pub fn by_window(&self, width: f64, n: usize) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); n];
        for (&t, &lat) in self.done_s.iter().zip(&self.latency_ms) {
            if let Some(w) = out.get_mut((t / width) as usize) {
                w.push(lat);
            }
        }
        out
    }

    /// Completions per second in each whole [`SLICE_S`] slice of the
    /// window.
    pub fn slice_rates(&self) -> Vec<f64> {
        let slices = (self.elapsed_s / SLICE_S).floor() as usize;
        let mut counts = vec![0.0f64; slices];
        for &t in &self.done_s {
            if let Some(c) = counts.get_mut((t / SLICE_S) as usize) {
                *c += 1.0;
            }
        }
        counts.iter().map(|c| c / SLICE_S).collect()
    }

    /// Folds a later window's counts, samples and errors into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.inflight_max = self.inflight_max.max(other.inflight_max);
        self.elapsed_s += other.elapsed_s;
        self.merge(other);
    }
}

/// Seeded Poisson arrival offsets (seconds) at `rate` per second over
/// `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = rng.exp(1.0 / rate);
    while t < seconds {
        out.push(t);
        t += rng.exp(1.0 / rate);
    }
    out
}

/// `n` connections to `addr`.
fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| Conn::connect(addr))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("connect to {addr}: {e}"))
}

/// An outcome recording a refused connection as one failed operation.
fn refused(msg: String) -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    out.fail(msg);
    out
}

fn exchange(conn: &mut Conn, i: usize, bytes: &[u8], check: &Check) -> Result<(), String> {
    match conn.send(bytes) {
        Ok(reply) => check(i, &reply),
        Err(e) => {
            // The exchange is lost; the next one needs a fresh socket.
            let _ = conn.reconnect();
            Err(format!("op {i}: transport: {e}"))
        }
    }
}

/// Sends `ops[i]` at `start + schedule[i]`, from [`SENDERS`] threads
/// each holding one connection; `check` sees operation `base + i`.
pub fn open_loop(
    addr: SocketAddr,
    ops: &[Vec<u8>],
    base: usize,
    schedule: &[f64],
    start: Instant,
    check: &Check,
) -> Outcome {
    assert_eq!(ops.len(), schedule.len());
    let next = AtomicUsize::new(0);
    let inflight = AtomicUsize::new(0);
    let inflight_max = AtomicUsize::new(0);
    let total = Mutex::new(Outcome::default());
    let mut conns = match connect(addr, SENDERS) {
        Ok(c) => c,
        Err(e) => return refused(e),
    };
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, inflight, inflight_max, total) = (&next, &inflight, &inflight_max, &total);
            s.spawn(move || {
                tighten_timer_slack();
                let mut out = Outcome::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= ops.len() {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(schedule[i]);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let depth = inflight.fetch_add(1, Ordering::Relaxed) + 1;
                    inflight_max.fetch_max(depth, Ordering::Relaxed);
                    out.attempted += 1;
                    let result = exchange(conn, base + i, &ops[i], check);
                    let done = Instant::now();
                    inflight.fetch_sub(1, Ordering::Relaxed);
                    match result {
                        Ok(()) => {
                            out.latency_ms.push((done - due).as_secs_f64() * 1e3);
                            out.late_ms
                                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                            out.done_s.push((done - start).as_secs_f64());
                        }
                        Err(e) => out.fail(e),
                    }
                }
                total
                    .lock()
                    .expect("no sender panicked holding the total")
                    .merge(out);
            });
        }
    });
    let mut out = total.into_inner().expect("senders joined");
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.inflight_max = inflight_max.into_inner();
    out
}

/// Keeps both connections saturated for `seconds`. Each sender writes
/// [`PIPELINE`] requests at once and keeps a second batch queued behind
/// the one whose replies it is reading, so the daemon never waits on the
/// generator's turnaround. Sends `ops[next]` in order, wrapping around
/// when `wrap`; otherwise running out of operations is a failure (for
/// workloads whose every request must be distinct). `next` carries the
/// position across windows.
pub fn saturate(
    addr: SocketAddr,
    ops: &[Vec<u8>],
    next: &AtomicUsize,
    seconds: f64,
    wrap: bool,
    check: &Check,
) -> Outcome {
    let total = Mutex::new(Outcome::default());
    let mut conns = match connect(addr, SENDERS) {
        Ok(c) => c,
        Err(e) => return refused(e),
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let total = &total;
            s.spawn(move || {
                let mut out = Outcome::default();
                let mut queued: VecDeque<(Vec<usize>, Instant)> = VecDeque::new();
                let mut bytes = Vec::new();
                loop {
                    while queued.len() < 2 && Instant::now() < end {
                        let first = next.fetch_add(PIPELINE, Ordering::Relaxed);
                        let batch: Vec<usize> = (first..first + PIPELINE)
                            .filter_map(|i| match i < ops.len() {
                                true => Some(i),
                                false => wrap.then(|| i % ops.len()),
                            })
                            .collect();
                        if batch.len() < PIPELINE {
                            out.attempted += 1;
                            out.fail(format!(
                                "saturated window needs more than {} distinct operations",
                                ops.len()
                            ));
                            break;
                        }
                        bytes.clear();
                        for &i in &batch {
                            bytes.extend_from_slice(&ops[i]);
                        }
                        out.attempted += batch.len() as u64;
                        if let Err(e) = conn.write(&bytes) {
                            for _ in &batch {
                                out.fail(format!("pipelined write: {e}"));
                            }
                            break;
                        }
                        queued.push_back((batch, Instant::now()));
                    }
                    let Some((batch, sent)) = queued.pop_front() else {
                        break;
                    };
                    for &i in &batch {
                        match conn
                            .read_reply()
                            .map_err(|e| format!("op {i}: transport: {e}"))
                            .and_then(|r| check(i, &r))
                        {
                            Ok(()) => {
                                let done = Instant::now();
                                out.latency_ms.push((done - sent).as_secs_f64() * 1e3);
                                out.done_s.push((done - start).as_secs_f64());
                            }
                            Err(e) => out.fail(e),
                        }
                    }
                }
                total
                    .lock()
                    .expect("no sender panicked holding the total")
                    .merge(out);
            });
        }
    });
    let mut out = total.into_inner().expect("senders joined");
    out.elapsed_s = seconds;
    out.inflight_max = SENDERS * PIPELINE * 2;
    out
}

/// Sends `ops` one after another on one connection; returns each
/// round-trip in ms (failures count in the outcome).
pub fn sequential(addr: SocketAddr, ops: &[Vec<u8>], check: &Check) -> Outcome {
    let mut conn = match connect(addr, 1) {
        Ok(mut c) => c.remove(0),
        Err(e) => return refused(e),
    };
    let mut out = Outcome::default();
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let sent = Instant::now();
        out.attempted += 1;
        match exchange(&mut conn, i, op, check) {
            Ok(()) => out.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3),
            Err(e) => out.fail(e),
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.inflight_max = 1;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_repeats_per_seed() {
        let a = poisson_schedule(&mut Rng::new(5, 9), 1000.0, 2.0);
        let b = poisson_schedule(&mut Rng::new(5, 9), 1000.0, 2.0);
        let c = poisson_schedule(&mut Rng::new(6, 9), 1000.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.last().is_some_and(|&t| t < 2.0));
        // ~2000 arrivals, within a generous Poisson margin.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn slice_rates_count_whole_slices() {
        let out = Outcome {
            attempted: 7,
            elapsed_s: 1.1,
            // slices of 0.25 s hold 1, 2, 0 and 3 completions; the
            // partial slice after 1.0 s is dropped.
            done_s: vec![0.1, 0.3, 0.4, 0.8, 0.9, 0.95, 1.05],
            ..Default::default()
        };
        let per_slice: Vec<f64> = [1.0, 2.0, 0.0, 3.0].iter().map(|c| c / SLICE_S).collect();
        assert_eq!(out.slice_rates(), per_slice);
    }
}
