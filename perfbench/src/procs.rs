//! Child daemons: spawn with an ephemeral port and a port file, detect
//! readiness from that file, read CPU time and peak RSS from `/proc`,
//! and always kill and reap — on drop, so panics and failed checks clean
//! up too.

use crate::calib::Gauge;
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SIGKILL: i32 = 9;
const SIGTERM: i32 = 15;
const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

const SCHED_IDLE: i32 = 5;

/// CPU mask words passed to `sched_setaffinity` (1024 CPUs, the size of
/// glibc's `cpu_set_t`).
type CpuMask = [u64; 16];

/// A mask holding exactly the CPUs in `cpus`.
fn cpu_mask(cpus: std::ops::Range<usize>) -> CpuMask {
    let mut mask = [0u64; 16];
    for cpu in cpus.filter(|&c| c < 1024) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

/// Restricts the calling thread — and every thread it spawns later — to
/// `cpus`. Returns false when the kernel refuses.
fn pin_current(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live, readable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// How the host's CPUs are split between the daemons and the load
/// generator: with two or more CPUs the daemons get the last one and the
/// generator the rest, so neither preempts the other; with one CPU
/// nothing is pinned.
#[derive(Debug, Clone, Copy)]
pub struct CpuSplit {
    nproc: usize,
}

impl CpuSplit {
    /// The split for the machine this runs on.
    pub fn for_host() -> CpuSplit {
        CpuSplit {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn daemon_mask(self) -> Option<CpuMask> {
        (self.nproc >= 2).then(|| cpu_mask(self.nproc - 1..self.nproc))
    }

    /// Pins the calling (generator) thread to its CPUs.
    pub fn pin_generator(self) -> bool {
        self.nproc >= 2 && pin_current(&cpu_mask(0..self.nproc - 1))
    }

    /// Runs `f` while one lowest-priority (`SCHED_IDLE`) host-speed
    /// gauge thread per CPU keeps every CPU out of its idle state; `f`
    /// gets the gauges, one per CPU. A virtual CPU that halts between
    /// requests must be woken through the hypervisor, whose latency
    /// swings with other tenants' load; a busy one hands over to a woken
    /// thread with an ordinary context switch. The gauges only run when
    /// nothing else on their CPU can, and their time is charged to this
    /// process, never to the daemons.
    pub fn keep_warm<T>(self, f: impl FnOnce(&[Gauge]) -> T) -> T {
        let gauges: Vec<Gauge> = (0..self.nproc).map(|_| Gauge::default()).collect();
        if self.nproc < 2 {
            return f(&gauges);
        }
        /// Stops the gauges however `f` ends, panics included, so the
        /// scope can join them.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for (cpu, gauge) in gauges.iter().enumerate() {
                let stop = &stop;
                s.spawn(move || {
                    let param = 0i32;
                    // SAFETY: pid 0 is the calling thread; `param` is a
                    // live sched_param (one int) for the call's duration.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    if idle && pin_current(&cpu_mask(cpu..cpu + 1)) {
                        gauge.run(stop);
                    }
                });
            }
            let _stop = StopOnDrop(&stop);
            f(&gauges)
        })
    }

    /// A one-line description for the report.
    pub fn describe(self) -> String {
        match self.nproc {
            0 | 1 => "nothing pinned (1 CPU)".into(),
            2 => "daemons on CPU 1, load generator on CPU 0".into(),
            n => format!(
                "daemons on CPU {}, load generator on CPUs 0-{}",
                n - 1,
                n - 2
            ),
        }
    }
}

/// How long a daemon may take to write its port file.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a daemon may take to drain after SIGTERM before SIGKILL.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Asks the kernel to wake this thread's sleeps on time (the default
/// 50 µs timer slack would be added to every open-loop send).
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// One running child process.
pub struct Daemon {
    /// Short name for logs and reports (`node`, `primary`, `router`).
    pub name: String,
    child: Option<Child>,
    pid: u32,
    log: PathBuf,
}

impl Daemon {
    /// Spawns `bin args...` on the daemons' CPUs with stdout and stderr
    /// appended to `dir/<name>.log`. The child gets SIGKILL if this
    /// process dies.
    pub fn spawn(
        name: &str,
        bin: &Path,
        args: &[String],
        dir: &Path,
        cpus: CpuSplit,
    ) -> io::Result<Daemon> {
        let log = dir.join(format!("{name}.log"));
        let out = File::create(&log)?;
        let err = out.try_clone()?;
        let mut cmd = Command::new(bin);
        cmd.args(args).stdin(Stdio::null()).stdout(out).stderr(err);
        let mask = cpus.daemon_mask();
        // SAFETY: the closure runs between fork and exec and calls only
        // prctl and sched_setaffinity, which are async-signal-safe; it
        // reads only the mask it owns.
        unsafe {
            cmd.pre_exec(move || {
                if prctl(PR_SET_PDEATHSIG, SIGKILL as u64) != 0 {
                    return Err(io::Error::last_os_error());
                }
                if let Some(mask) = &mask {
                    if !pin_current(mask) {
                        return Err(io::Error::last_os_error());
                    }
                }
                Ok(())
            });
        }
        let child = cmd.spawn().map_err(|e| {
            io::Error::new(e.kind(), format!("cannot spawn {}: {e}", bin.display()))
        })?;
        Ok(Daemon {
            name: name.to_string(),
            pid: child.id(),
            child: Some(child),
            log,
        })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Waits until the daemon has written a port number to `file` (the
    /// daemons write it once bound and listening). Fails fast if the
    /// daemon exits first.
    pub fn wait_port(&mut self, file: &Path) -> io::Result<u16> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(file) {
                if text.ends_with('\n') {
                    if let Ok(port) = text.trim().parse() {
                        return Ok(port);
                    }
                }
            }
            if let Some(status) = self
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(io::Error::other(format!(
                    "{} exited with {status} before writing {}:\n{}",
                    self.name,
                    file.display(),
                    self.log_tail()
                )));
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other(format!(
                    "{} wrote no port file within {READY_TIMEOUT:?}:\n{}",
                    self.name,
                    self.log_tail()
                )));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// CPU time of every thread of the process, in nanoseconds, from
    /// `/proc/<pid>/task/*/schedstat`.
    pub fn cpu_ns(&self) -> u64 {
        task_cpu_ns(&format!("/proc/{}/task", self.pid))
    }

    /// A field of `/proc/<pid>/status` in its own unit (kB for sizes).
    pub fn status_field(&self, field: &str) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    let rest = l.strip_prefix(field)?.strip_prefix(':')?;
                    rest.split_whitespace().next()?.parse().ok()
                })
            })
            .unwrap_or(0)
    }

    /// The last lines of the daemon's log, for error reports.
    pub fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(12)..].join("\n")
    }

    /// SIGTERM, wait for the drain, SIGKILL if it overruns, and reap.
    /// Idempotent.
    pub fn stop(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        if matches!(child.try_wait(), Ok(Some(_))) {
            return;
        }
        // SAFETY: kill(2) with a pid this process spawned and has not yet
        // reaped, so the pid cannot have been reused.
        unsafe {
            kill(self.pid as i32, SIGTERM);
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline {
            if matches!(child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn task_cpu_ns(dir: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir(dir) else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// `127.0.0.1:<port>`.
pub fn local(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

/// Parses a Prometheus text exposition into `name{labels} -> value`.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The host's logical CPU count and 1-minute load average.
pub fn host_facts() -> (usize, f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN);
    (nproc, load)
}

/// Cumulative CPU jiffies from the first line of `/proc/stat`.
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Share of CPU time stolen by the hypervisor since `earlier`.
    pub fn since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

/// The host's CPU time counters (all zero where `/proc/stat` is absent).
pub fn cpu_times() -> CpuTimes {
    let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            Some(
                line.split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default();
    CpuTimes {
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}
