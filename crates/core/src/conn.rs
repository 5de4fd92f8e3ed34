//! Per-connection state machine of the shared event loop
//! ([`crate::reactor`]).
//!
//! Each connection moves through
//! `ReadHead → ReadBody → Dispatch → Write → Drain`, parsing requests
//! *incrementally* out of a pooled read buffer: the socket delivers bytes
//! in arbitrary chunks, so [`parse_head`] (the shared codec in
//! [`crate::http`]) is re-run over the accumulated buffer until a full
//! head (then body) is present. Parsing, body framing, pipelining and
//! refuse-then-drain live here once, for every daemon the loop serves.
//!
//! Nothing here allocates on the steady-state path: requests parse into
//! a reused [`Request`] scratch (strings cleared, capacity kept),
//! responses serialize into a reused write buffer, and a whole
//! connection's buffers ([`ConnBufs`]) detach back to a per-shard
//! [`BufPool`] while the connection idles between keep-alive requests —
//! ten thousand parked connections hold sockets, not buffers.
//!
//! ## When a reply is flushed
//!
//! A reply answered on the shard does not go out on its own: the
//! connection returns to `ReadHead` and keeps parsing while the read
//! buffer holds another complete request, so a pipelined burst is
//! answered with one `write(2)`. The write buffer is flushed once no
//! complete request is left, and early in three cases: it has grown past
//! [`MAX_COALESCED_BYTES`]; the reply closes the connection or refuses
//! the request; or the next request is about to be offloaded to a
//! dispatcher ([`Conn::defer_offload`]) — replies queued ahead of it are
//! written first, so none waits behind another request's solve, and the
//! offload itself waits ([`Step::Offload`]) until those bytes have left.

pub use crate::http::{parse_head, HeadInfo, HeadOutcome, DRAIN_BUDGET_BYTES};
use crate::http::{Request, Response, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use crate::metrics::ShardedLane;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Bytes added to the read buffer per `read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Upper bound on buffered inbound bytes per connection: one maximal
/// request (head + body) plus a chunk of pipelined follow-on. A client
/// flooding faster than we dispatch keeps the rest in the kernel buffer.
const READ_CAP: usize = MAX_HEAD_BYTES + MAX_BODY_BYTES + READ_CHUNK;
/// Pooled buffers larger than this are shrunk before re-pooling, so one
/// 1 MiB body doesn't pin megabytes in the pool forever.
const MAX_POOLED_CAPACITY: usize = 64 * 1024;
/// Queued reply bytes past which a pipelined burst stops coalescing and
/// flushes before parsing on: the pool's retention bound, so coalescing
/// never grows a buffer the pool would then shed.
pub const MAX_COALESCED_BYTES: usize = MAX_POOLED_CAPACITY;
/// Initial capacity for pooled buffers (a typical head + JSON response).
const INITIAL_CAPACITY: usize = 4 * 1024;
/// How long a connection may sit mid-request, mid-response or mid-drain
/// without a byte moving before the event loop gives up on it — the
/// slow-loris defence, measured against [`Conn::last_progress`]. Idle
/// keep-alive connections are never evicted.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Inbound bytes awaiting parse: the unparsed bytes sit at
/// `buf[start..end]`, and `buf`'s own length is how much of its capacity
/// has ever been zeroed. A read lands in `buf[end..]` without re-zeroing
/// it, so each byte is zeroed once, when the buffer grows; consuming a
/// parsed request only moves `start`.
#[derive(Debug, Default)]
pub struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// An empty buffer with `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> ReadBuf {
        ReadBuf {
            buf: Vec::with_capacity(capacity),
            start: 0,
            end: 0,
        }
    }

    /// The buffered, not yet consumed bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Number of buffered bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Drops the first `n` buffered bytes (a parsed request).
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.len(), "consumed past the buffered bytes");
        self.start += n;
        if self.start == self.end {
            self.clear();
        }
    }

    /// Appends `bytes` (for callers that frame bytes they already hold).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.spare(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.commit(bytes.len());
    }

    /// Empties the buffer, keeping its capacity and zeroed prefix.
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// At least `want` writable bytes after the buffered ones. Slides the
    /// buffered bytes to the front first, and zeroes only bytes the buffer
    /// has never held.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
        &mut self.buf[self.end..]
    }

    /// Marks `n` bytes of the last [`ReadBuf::spare`] as buffered.
    fn commit(&mut self, n: usize) {
        self.end += n;
    }

    /// Capacity, for the pool's shedding rule.
    fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Empties the buffer and gives back all but `capacity` bytes.
    fn shrink_to(&mut self, capacity: usize) {
        self.clear();
        self.buf.truncate(capacity);
        self.buf.shrink_to(capacity);
    }
}

/// The buffers and scratch one active connection borrows from the pool.
#[derive(Debug, Default)]
pub struct ConnBufs {
    /// Accumulated inbound bytes awaiting parse.
    pub read: ReadBuf,
    /// Serialized response bytes awaiting flush.
    pub write: Vec<u8>,
    /// The reused parse target (strings cleared, capacity kept).
    pub req: Request,
}

/// A per-shard free list of [`ConnBufs`]. Connections borrow on first
/// inbound byte and return the set once they go idle between requests,
/// so buffer memory scales with *active* connections, not open sockets.
#[derive(Debug, Default)]
pub struct BufPool {
    free: Vec<ConnBufs>,
    cap: usize,
}

impl BufPool {
    /// A pool retaining at most `cap` idle buffer sets.
    pub fn new(cap: usize) -> BufPool {
        BufPool {
            free: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Borrows a buffer set (allocating a fresh one only when the pool is
    /// dry — the amortized steady state pops and pushes).
    pub fn get(&mut self) -> ConnBufs {
        self.free.pop().unwrap_or_else(|| ConnBufs {
            read: ReadBuf::with_capacity(INITIAL_CAPACITY),
            write: Vec::with_capacity(INITIAL_CAPACITY),
            req: Request {
                method: String::new(),
                path: String::new(),
                body: Vec::new(),
                keep_alive: true,
            },
        })
    }

    /// Returns a buffer set, clearing it and shedding outsized capacity
    /// (one 1 MiB request must not pin megabytes in the pool).
    pub fn put(&mut self, mut bufs: ConnBufs) {
        if self.free.len() >= self.cap {
            return;
        }
        bufs.read.clear();
        bufs.write.clear();
        bufs.req.body.clear();
        if bufs.read.capacity() > MAX_POOLED_CAPACITY {
            bufs.read.shrink_to(READ_CHUNK);
        }
        if bufs.write.capacity() > MAX_POOLED_CAPACITY {
            bufs.write.shrink_to(INITIAL_CAPACITY);
        }
        if bufs.req.body.capacity() > MAX_POOLED_CAPACITY {
            bufs.req.body.shrink_to(INITIAL_CAPACITY);
        }
        self.free.push(bufs);
    }

    /// Idle buffer sets currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when no buffer sets are pooled.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// Accumulating request line + headers (idle keep-alive connections
    /// park here with an empty buffer).
    ReadHead,
    /// Head parsed; awaiting the advertised body bytes.
    ReadBody,
    /// Request handed to a dispatcher; response not yet produced. Epoll
    /// interest drops to zero — inbound pipelined bytes wait in the
    /// kernel buffer until the in-order response is written.
    Dispatch,
    /// Response bytes pending in the write buffer.
    Write,
    /// Error response written; discarding inbound until EOF or budget so
    /// the close is a FIN the peer can read the response through, not an
    /// RST that destroys it.
    Drain,
}

/// What [`Conn::advance`] wants the event loop to do next.
#[derive(Debug, PartialEq, Eq)]
pub enum Step {
    /// A complete request sits in the scratch (`bufs.req`); dispatch it.
    Dispatch,
    /// The request was refused (400 for malformed framing, 413/431 past a
    /// limit): the error response is queued with `Connection: close` and
    /// a bounded drain follows. The loop counts it, then flushes.
    Refused,
    /// Queued replies are due to go out: the loop flushes on its next lap.
    Flush,
    /// The queued replies ahead of a deferred offload have been written;
    /// hand the request in the scratch to a dispatcher now, with the
    /// deadline anchored at its arrival.
    Offload(Instant),
    /// Waiting for more inbound bytes (epoll interest: readable).
    WantRead,
    /// Write buffer not yet flushed (epoll interest: writable).
    WantWrite,
    /// Connection finished or broken; deregister and drop it.
    Close,
}

/// One nonblocking connection owned by a reactor shard.
#[derive(Debug)]
pub struct Conn {
    /// The socket.
    pub stream: TcpStream,
    /// Current state-machine position.
    pub state: State,
    /// Borrowed buffers; `None` while idling between requests.
    pub bufs: Option<ConnBufs>,
    head: Option<HeadInfo>,
    write_pos: usize,
    /// Close instead of re-entering `ReadHead` once the write flushes.
    pub close_after_write: bool,
    /// Enter `Drain` (rather than closing outright) after the flush —
    /// the reject path, where the peer may still be mid-send.
    pub drain_after_write: bool,
    /// Last time a byte moved in either direction — the slow-loris clock.
    pub last_progress: Instant,
    /// Events currently armed in epoll for this socket.
    pub interest: u32,
    drained: usize,
    peer_eof: bool,
    /// Arrival of a parsed request whose offload waits for the queued
    /// replies ahead of it to be written.
    offload_at: Option<Instant>,
}

impl Conn {
    /// Wraps an accepted, already-nonblocking socket.
    pub fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            state: State::ReadHead,
            bufs: None,
            head: None,
            write_pos: 0,
            close_after_write: false,
            drain_after_write: false,
            last_progress: now,
            interest: 0,
            drained: 0,
            peer_eof: false,
            offload_at: None,
        }
    }

    /// Reads whatever the socket has (up to the per-connection cap),
    /// appending to the pooled read buffer. Returns `true` if any bytes
    /// arrived. Records EOF; `advance` turns it into `Close` once the
    /// buffered bytes are exhausted.
    pub fn fill(&mut self, pool: &mut BufPool, now: Instant) -> io::Result<bool> {
        if self.bufs.is_none() {
            self.bufs = Some(pool.get());
        }
        let bufs = self.bufs.as_mut().expect("bufs attached above");
        let mut got = false;
        while bufs.read.len() < READ_CAP {
            let want = READ_CHUNK.min(READ_CAP - bufs.read.len());
            match self.stream.read(&mut bufs.read.spare(want)[..want]) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    bufs.read.commit(n);
                    self.last_progress = now;
                    got = true;
                    if n < want {
                        break; // short read: socket is drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(got)
    }

    /// Advances the read-side state machine over the buffered bytes:
    /// parses the head, then waits out the body, then yields `Dispatch`
    /// with the request in the scratch. A refused head queues its error
    /// response and comes back as `Refused`.
    pub fn advance(&mut self, now: Instant) -> Step {
        loop {
            match self.state {
                State::ReadHead => {
                    let Some(bufs) = self.bufs.as_mut().filter(|b| !b.read.is_empty()) else {
                        return self.want_read();
                    };
                    match parse_head(bufs.read.bytes(), &mut bufs.req) {
                        HeadOutcome::Complete(info) => {
                            self.head = Some(info);
                            self.state = State::ReadBody;
                        }
                        // EOF mid-head is a truncated request: close
                        // without answering.
                        HeadOutcome::Partial => return self.want_read(),
                        // RFC 9112 §3 and §6.3: a malformed request or
                        // unusable framing gets a 400 and a close — the
                        // same path as a size limit.
                        HeadOutcome::Malformed => return self.refuse(400, "malformed request"),
                        HeadOutcome::Reject { status, message } => {
                            return self.refuse(status, message);
                        }
                    }
                }
                State::ReadBody => {
                    let info = self.head.expect("ReadBody requires a parsed head");
                    let bufs = self.bufs.as_mut().expect("ReadBody requires buffers");
                    if bufs.read.len() < info.total_len() {
                        return self.want_read();
                    }
                    // Copy the body out and consume the framed request;
                    // pipelined successors stay where they are.
                    bufs.req.body.clear();
                    bufs.req
                        .body
                        .extend_from_slice(&bufs.read.bytes()[info.head_len..info.total_len()]);
                    bufs.read.consume(info.total_len());
                    self.head = None;
                    self.state = State::Dispatch;
                    return Step::Dispatch;
                }
                // Dispatch/Write/Drain don't advance on reads.
                State::Dispatch => return Step::WantRead,
                State::Write => return Step::WantWrite,
                State::Drain => return self.drain_step(now),
            }
        }
    }

    /// No complete request is buffered: flush the replies queued so far,
    /// then wait for more bytes, or close once the peer has sent its last.
    fn want_read(&mut self) -> Step {
        if self.has_queued_reply() {
            self.state = State::Write;
            Step::Flush
        } else if self.peer_eof {
            Step::Close
        } else {
            Step::WantRead
        }
    }

    /// Serializes `response` into the write buffer. A kept-alive reply
    /// returns to `ReadHead` so a pipelined successor is answered into the
    /// same flush; a closing reply, or a buffer past
    /// [`MAX_COALESCED_BYTES`], moves to `Write`. `keep` is the loop's
    /// per-response choice (`req.keep_alive && !shutdown`).
    pub fn queue_response(&mut self, response: &Response, keep: bool, pool: &mut BufPool) {
        if self.bufs.is_none() {
            self.bufs = Some(pool.get());
        }
        self.queue(response, keep);
    }

    /// Queues the connection's last response — `Connection: close`, then
    /// a bounded drain of whatever the peer is still sending — for
    /// connections shed under overload. Flush next.
    pub fn queue_final(&mut self, response: &Response, pool: &mut BufPool) {
        self.queue_response(response, false, pool);
        self.drain_after_write = true;
    }

    /// Queues a refusal (400/413/431) the same way; the loop flushes it.
    fn refuse(&mut self, status: u16, message: &'static str) -> Step {
        self.queue(&Response::error(status, message), false);
        self.drain_after_write = true;
        Step::Refused
    }

    fn queue(&mut self, response: &Response, keep: bool) {
        let bufs = self.bufs.as_mut().expect("queueing needs buffers");
        response.write_into(&mut bufs.write, keep);
        self.close_after_write = !keep;
        self.state = if keep && bufs.write.len() < MAX_COALESCED_BYTES {
            State::ReadHead
        } else {
            State::Write
        };
    }

    /// True while reply bytes wait in the write buffer.
    fn has_queued_reply(&self) -> bool {
        self.bufs.as_ref().is_some_and(|b| !b.write.is_empty())
    }

    /// Called when the request in the scratch is about to be offloaded.
    /// With replies queued ahead of it, moves to `Write` and returns true:
    /// the flush then answers [`Step::Offload`] once those bytes are out
    /// (after any number of `WantWrite` parks). With nothing queued,
    /// returns false and the caller offloads at once.
    pub fn defer_offload(&mut self, arrival: Instant) -> bool {
        if !self.has_queued_reply() {
            return false;
        }
        self.offload_at = Some(arrival);
        self.state = State::Write;
        true
    }

    /// Flushes the write buffer, counting each `write(2)` call in
    /// `writes`. `WantWrite` means the socket filled up (arm writable
    /// interest); otherwise the connection either closes, drains, hands a
    /// deferred request to the loop ([`Step::Offload`]), or returns to
    /// `ReadHead` — where buffered pipelined bytes are paged through
    /// `advance` by the caller.
    pub fn flush(&mut self, now: Instant, writes: &ShardedLane<'_>) -> Step {
        debug_assert_eq!(self.state, State::Write);
        let bufs = self.bufs.as_mut().expect("Write requires buffers");
        while self.write_pos < bufs.write.len() {
            writes.incr();
            match self.stream.write(&bufs.write[self.write_pos..]) {
                Ok(0) => return Step::Close,
                Ok(n) => {
                    self.write_pos += n;
                    self.last_progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::WantWrite,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            }
        }
        bufs.write.clear();
        self.write_pos = 0;
        if self.drain_after_write {
            // Signal end-of-response, then absorb what the peer is still
            // sending so the close is a FIN, not an RST.
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            self.state = State::Drain;
            return self.drain_step(now);
        }
        if self.close_after_write {
            return Step::Close;
        }
        if let Some(arrival) = self.offload_at.take() {
            self.state = State::Dispatch;
            return Step::Offload(arrival);
        }
        self.state = State::ReadHead;
        // Pipelined successors may already be buffered — epoll will never
        // re-report bytes that left the kernel, so re-enter the parser
        // instead of parking (it returns `WantRead` if the buffer is dry).
        self.advance(now)
    }

    /// One nonblocking pass of the bounded post-reject drain.
    fn drain_step(&mut self, now: Instant) -> Step {
        let mut sink = [0u8; 4096];
        while self.drained < DRAIN_BUDGET_BYTES {
            match self.stream.read(&mut sink) {
                Ok(0) => return Step::Close, // peer saw the FIN and finished
                Ok(n) => {
                    self.drained += n;
                    self.last_progress = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Step::WantRead,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Step::Close,
            }
        }
        Step::Close // budget blown: the peer is hostile, RST is fine
    }

    /// Releases the buffers back to the pool if the connection is parked
    /// between requests with nothing buffered in either direction.
    pub fn release_if_idle(&mut self, pool: &mut BufPool) {
        if self.state != State::ReadHead {
            return;
        }
        let empty = self
            .bufs
            .as_ref()
            .is_some_and(|b| b.read.is_empty() && b.write.is_empty());
        if empty {
            pool.put(self.bufs.take().expect("checked above"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_and_sheds_outsized_buffers() {
        let mut pool = BufPool::new(2);
        let mut a = pool.get();
        a.read
            .extend_from_slice(&vec![0u8; 2 * MAX_POOLED_CAPACITY]);
        a.read.consume(10);
        a.req.body.extend_from_slice(b"leftover");
        pool.put(a);
        assert_eq!(pool.len(), 1);
        let a = pool.get();
        assert!(a.read.is_empty() && a.write.is_empty() && a.req.body.is_empty());
        assert!(a.read.capacity() <= MAX_POOLED_CAPACITY);
        // The cap bounds retention.
        pool.put(a);
        pool.put(ConnBufs::default());
        pool.put(ConnBufs::default());
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn a_deferred_offload_waits_until_the_queued_replies_are_written() {
        use crate::metrics::ShardedCounter;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();
        let now = Instant::now();
        let mut conn = Conn::new(server, now);
        // Fill the socket's buffers so the next write would block.
        let mut filler = 0usize;
        let chunk = [b'f'; 64 * 1024];
        loop {
            match conn.stream.write(&chunk) {
                Ok(n) => filler += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        let mut pool = BufPool::new(1);
        let reply = Response::text(200, "queued ahead");
        conn.queue_response(&reply, true, &mut pool);
        assert_eq!(conn.state, State::ReadHead, "a kept-alive reply coalesces");
        assert!(conn.defer_offload(now));
        let writes = ShardedCounter::new(1);
        let lane = writes.lane(0);
        assert_eq!(conn.flush(now, &lane), Step::WantWrite);
        assert_eq!(conn.state, State::Write, "no offload while bytes wait");

        let mut expected = Vec::new();
        reply.write_into(&mut expected, true);
        let mut got = Vec::new();
        let mut sink = vec![0u8; 64 * 1024];
        let step = loop {
            match client.read(&mut sink) {
                Ok(n) => got.extend_from_slice(&sink[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => match conn.flush(now, &lane) {
                    Step::WantWrite => {}
                    step => break step,
                },
                Err(e) => panic!("{e}"),
            }
        };
        assert_eq!(step, Step::Offload(now));
        assert_eq!(conn.state, State::Dispatch);
        client.set_nonblocking(false).unwrap();
        while got.len() < filler + expected.len() {
            let n = client.read(&mut sink).unwrap();
            assert!(n > 0);
            got.extend_from_slice(&sink[..n]);
        }
        assert_eq!(&got[filler..], &expected[..]);
        assert!(writes.get() >= 2);
        // Nothing queued: an offload goes at once.
        assert!(!conn.defer_offload(now));
    }

    #[test]
    fn the_read_buffer_slides_consumed_bytes_out_and_zeroes_once() {
        let mut read = ReadBuf::with_capacity(8);
        read.extend_from_slice(b"GET / one");
        read.consume(4);
        assert_eq!(read.bytes(), b"/ one");
        read.extend_from_slice(b"+two");
        assert_eq!(read.bytes(), b"/ one+two");
        let zeroed = read.buf.len();
        read.consume(read.len());
        assert!(read.is_empty());
        read.extend_from_slice(b"again");
        assert_eq!(read.bytes(), b"again");
        assert_eq!(read.buf.len(), zeroed, "refilling re-zeroes nothing");
    }
}
