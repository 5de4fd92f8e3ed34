//! The host-speed gauge: what a fixed piece of work costs on the
//! daemons' CPU, read at the same moments as the daemons' figures.
//!
//! The speed of a shared virtual machine drifts by tens of percent over
//! minutes as other tenants come and go, and every time-based figure of
//! a run moves with it. A gauge is a lowest-priority (`SCHED_IDLE`)
//! thread pinned to one CPU that repeats batches of a cheap system call
//! and publishes the CPU time they took. It runs only when nothing else
//! on its CPU can, so the gauge on the daemons' CPU measures that CPU in
//! the very moments the daemons sit idle between requests. Scaling a
//! daemon's cost by the gauge reading of the same window (see
//! [`SPEED_EXPONENT`]) expresses it at a reference speed, so that it
//! follows the program and not the neighbours. None of the program's
//! code runs in the gauge, so a faster program still reads faster. On a
//! shared 2-vCPU virtual machine, whose speed moved every time-based
//! figure of whole runs by up to 1.6x, this cut their run-to-run spread
//! by a half to two thirds. The kernel's entry and exit cost tracked the
//! drift better than floating-point work or a walk over a buffer larger
//! than the L2 cache, and as well as a loopback round trip timed between
//! windows, which is not aligned with the windows it corrects. The
//! tracking is not exact: some minutes slow the gauge more than the
//! daemons, or the other way round.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// System calls in one gauge batch.
const BATCH_CALLS: usize = 16;
/// CPU time of one batch on the reference host, ns: a shared 2-vCPU
/// Xeon virtual machine in its faster moments, whose daemon figures
/// therefore read about as measured. Only the ratio of two runs'
/// figures matters.
pub const REFERENCE_BATCH_NS: f64 = 2_000.0;
/// How steeply the daemons' costs follow the gauge: a figure measured
/// while one batch costs `r` ns is taken as `(r / reference)` to this
/// power times its value at reference speed. The daemons' costs move
/// more than the gauge's: over 1 s sub-windows of four sets of 5-10 runs
/// per workload on the reference host, the least-squares slope of log
/// daemon CPU per request and of log median latency on log reading was
/// 0.5-2.1, most often about 1.5. Power 1 (a plain ratio) left about a
/// sixth more run-to-run spread over those sets, and power 2 more still.
pub const SPEED_EXPONENT: f64 = 1.5;
/// Fewest batches a reading must span to count.
pub const MIN_BATCHES: u64 = 100;

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getppid() -> i32;
}

/// CPU time the calling thread has used, ns.
fn thread_cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable timespec for the call's duration.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// One CPU's gauge: batches run and CPU time spent in them.
#[derive(Default)]
pub struct Gauge {
    batches: AtomicU64,
    cpu_ns: AtomicU64,
}

/// A reading of a [`Gauge`]'s counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    batches: u64,
    cpu_ns: u64,
}

impl Mark {
    /// CPU ns per batch since `earlier`; `None` with fewer than
    /// [`MIN_BATCHES`] batches in between.
    pub fn since(&self, earlier: &Mark) -> Option<f64> {
        let n = self.batches.checked_sub(earlier.batches)?;
        (n >= MIN_BATCHES).then(|| (self.cpu_ns - earlier.cpu_ns) as f64 / n as f64)
    }
}

impl Gauge {
    pub fn mark(&self) -> Mark {
        // The batch count is published last, so a reading never counts a
        // batch whose time it lacks.
        let batches = self.batches.load(Ordering::Acquire);
        Mark {
            batches,
            cpu_ns: self.cpu_ns.load(Ordering::Relaxed),
        }
    }

    /// Runs batches on the calling thread until `stop` is set.
    pub fn run(&self, stop: &AtomicBool) {
        while !stop.load(Ordering::Relaxed) {
            let start = thread_cpu_ns();
            for _ in 0..BATCH_CALLS {
                // SAFETY: getppid takes no arguments and cannot fail.
                std::hint::black_box(unsafe { getppid() });
            }
            self.cpu_ns
                .fetch_add(thread_cpu_ns() - start, Ordering::Relaxed);
            self.batches.fetch_add(1, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_need_enough_batches() {
        let a = Mark::default();
        let few = Mark {
            batches: MIN_BATCHES - 1,
            cpu_ns: 1_000,
        };
        let enough = Mark {
            batches: 2 * MIN_BATCHES,
            cpu_ns: 2 * MIN_BATCHES * 1_500,
        };
        assert_eq!(few.since(&a), None);
        assert_eq!(enough.since(&a), Some(1_500.0));
        assert_eq!(a.since(&enough), None);
    }

    #[test]
    fn a_running_gauge_publishes_batches() {
        let gauge = Gauge::default();
        let stop = AtomicBool::new(false);
        let before = gauge.mark();
        std::thread::scope(|s| {
            s.spawn(|| gauge.run(&stop));
            while gauge.mark().batches < 2 * MIN_BATCHES {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert!(gauge.mark().since(&before).is_some_and(|ns| ns > 0.0));
    }
}
