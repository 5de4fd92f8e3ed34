//! Thin `extern "C"` shims over the Linux readiness syscalls the serving
//! reactor needs: `epoll_create1` / `epoll_ctl` / `epoll_wait` and
//! `eventfd`, plus `read`/`write` on raw descriptors for eventfd counters.
//!
//! The workspace takes no external dependencies, so instead of the `libc`
//! crate these are declared directly against the C library std already
//! links. Everything here is Linux-only and compiled out elsewhere, and
//! so is [`crate::reactor`], the event loop built on it: the daemons
//! require Linux.
//!
//! The wrappers stay deliberately small: raw descriptors in, `io::Result`
//! out, `EINTR` handled by the caller (retrying is a policy decision the
//! event loop owns). Ownership of descriptors also stays with the caller —
//! these are syscall bindings, not an I/O framework.

#![cfg(target_os = "linux")]

use std::io;
use std::os::raw::{c_int, c_uint, c_void};

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Error condition (`EPOLLERR`); always reported, never needs arming.
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (`EPOLLHUP`); always reported, never needs arming.
pub const EPOLLHUP: u32 = 0x010;
/// Wake at most one waiter per event (`EPOLLEXCLUSIVE`, Linux ≥ 4.5) —
/// how every reactor shard can watch one listening socket without
/// thundering-herd wakeups.
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;

/// `epoll_ctl` op: add a descriptor to the interest list.
pub const EPOLL_CTL_ADD: c_int = 1;
/// `epoll_ctl` op: remove a descriptor from the interest list.
pub const EPOLL_CTL_DEL: c_int = 2;
/// `epoll_ctl` op: change the events a registered descriptor reports.
pub const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// One `struct epoll_event`. Packed on x86-64, where the kernel ABI lays
/// the 64-bit cookie directly behind the 32-bit mask.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy, Default)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLLIN` | ...).
    pub events: u32,
    /// Caller-owned cookie, returned verbatim with each ready event.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

/// Creates a close-on-exec epoll instance and returns its descriptor.
pub fn epoll_create() -> io::Result<i32> {
    match unsafe { epoll_create1(EPOLL_CLOEXEC) } {
        -1 => Err(io::Error::last_os_error()),
        fd => Ok(fd),
    }
}

/// Adds `fd` to `epfd`'s interest list with `events` and cookie `data`.
pub fn epoll_add(epfd: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_ADD, fd, events, data)
}

/// Changes what a registered `fd` reports.
pub fn epoll_mod(epfd: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_MOD, fd, events, data)
}

/// Removes `fd` from `epfd`'s interest list. (Closing the descriptor also
/// removes it; the explicit form keeps shutdown paths easy to audit.)
pub fn epoll_del(epfd: i32, fd: i32) -> io::Result<()> {
    ctl(epfd, EPOLL_CTL_DEL, fd, 0, 0)
}

fn ctl(epfd: i32, op: c_int, fd: i32, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    match unsafe { epoll_ctl(epfd, op, fd, &mut ev) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Waits for ready events, filling `events` and returning how many landed.
/// `timeout_ms` of `-1` blocks indefinitely; `0` polls. `EINTR` surfaces
/// as `Err(Interrupted)` for the caller's loop to decide about.
pub fn epoll_wait_events(
    epfd: i32,
    events: &mut [EpollEvent],
    timeout_ms: i32,
) -> io::Result<usize> {
    let n = unsafe {
        epoll_wait(
            epfd,
            events.as_mut_ptr(),
            events.len().min(i32::MAX as usize) as c_int,
            timeout_ms,
        )
    };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Creates a nonblocking close-on-exec eventfd counter at zero — the
/// reactor's cross-thread doorbell (completions, shutdown).
pub fn eventfd_create() -> io::Result<i32> {
    match unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) } {
        -1 => Err(io::Error::last_os_error()),
        fd => Ok(fd),
    }
}

/// Rings an eventfd (adds 1 to its counter). Wakes any epoll watching it.
pub fn eventfd_signal(fd: i32) -> io::Result<()> {
    let one: u64 = 1;
    let n = unsafe { write(fd, (&one as *const u64).cast(), 8) };
    // A full counter (EAGAIN) still leaves the fd readable — the wakeup
    // the caller wanted is already pending, so that is success too.
    if n == 8 {
        return Ok(());
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::WouldBlock {
        Ok(())
    } else {
        Err(e)
    }
}

/// Drains an eventfd's counter so it stops reporting readable. Returns
/// the drained count (0 when it was already drained by another wakeup).
pub fn eventfd_drain(fd: i32) -> u64 {
    let mut count: u64 = 0;
    let n = unsafe { read(fd, (&mut count as *mut u64).cast(), 8) };
    if n == 8 {
        count
    } else {
        0
    }
}

/// Closes a raw descriptor (for eventfds and epoll fds this module
/// created; sockets stay owned by their std types).
pub fn close_fd(fd: i32) {
    unsafe {
        close(fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn eventfd_rings_and_drains_through_epoll() {
        let ep = epoll_create().unwrap();
        let ev = eventfd_create().unwrap();
        epoll_add(ep, ev, EPOLLIN, 7).unwrap();

        // Nothing pending: a zero-timeout wait comes back empty.
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(epoll_wait_events(ep, &mut events, 0).unwrap(), 0);

        eventfd_signal(ev).unwrap();
        eventfd_signal(ev).unwrap();
        let n = epoll_wait_events(ep, &mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].data }, 7);
        assert_ne!({ events[0].events } & EPOLLIN, 0);
        assert_eq!(eventfd_drain(ev), 2);
        // Drained: readable no longer reported.
        assert_eq!(epoll_wait_events(ep, &mut events, 0).unwrap(), 0);

        epoll_del(ep, ev).unwrap();
        close_fd(ev);
        close_fd(ep);
    }

    #[test]
    fn socket_readiness_flows_through_mod_and_del() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ep = epoll_create().unwrap();
        epoll_add(ep, listener.as_raw_fd(), EPOLLIN, 1).unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = [EpollEvent::default(); 4];
        let n = epoll_wait_events(ep, &mut events, 2000).unwrap();
        assert_eq!(n, 1, "pending accept must report EPOLLIN");
        assert_eq!({ events[0].data }, 1);

        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        epoll_add(ep, server_side.as_raw_fd(), EPOLLIN, 2).unwrap();
        client.write_all(b"x").unwrap();
        let n = epoll_wait_events(ep, &mut events, 2000).unwrap();
        assert!((0..n).any(|i| events[i].data == 2), "data must wake fd 2");

        // MOD to write-interest: an idle socket's send buffer is writable.
        epoll_mod(ep, server_side.as_raw_fd(), EPOLLOUT, 3).unwrap();
        let n = epoll_wait_events(ep, &mut events, 2000).unwrap();
        assert!((0..n).any(|i| events[i].data == 3));

        epoll_del(ep, server_side.as_raw_fd()).unwrap();
        close_fd(ep);
    }
}
