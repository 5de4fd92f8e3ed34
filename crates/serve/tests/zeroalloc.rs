//! Proof of the reactor's zero-allocation framing contract: once a
//! connection's pooled buffers are warm, the steady-state request path —
//! incremental head parse into the reused [`Request`] scratch, body copy,
//! response serialization via [`Response::write_into`] — performs **zero**
//! heap allocations, asserted with the same counting-`#[global_allocator]`
//! trick as `crates/bench/benches/allocator.rs`.
//!
//! Scope: the contract covers the *framing* layer the reactor executes
//! per request on a shard (parse + serialize on pooled buffers). Route
//! handlers (`App::handle_at`) build JSON and intentionally allocate;
//! DESIGN.md documents the boundary, and `hitalloc.rs` budgets the one
//! handler on the hot path, an inline cache hit.
//!
//! `harness = false`: libtest spawns threads whose allocations would
//! pollute the counter, so this is a plain `main`.

use perfpred_serve::conn::{parse_head, BufPool, HeadOutcome};
use perfpred_serve::http::Response;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation the process makes (frees are free).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROUNDS: u64 = 1_000;

fn main() {
    // One keep-alive connection's worth of state, borrowed once.
    let mut pool = BufPool::new(4);
    let mut bufs = pool.get();

    let raw: &[u8] =
        b"POST /predict?cache=1 HTTP/1.1\r\nHost: bench\r\nContent-Length: 25\r\nConnection: keep-alive\r\n\r\n{\"server\": \"AppServS\", 1}";
    // A response of realistic size, built once — the reactor reuses the
    // route handler's Response; the per-request work is serialization.
    let response = Response::error(200, "prediction body placeholder, ~normal size");

    // Warm-up: size the scratch strings, body and write buffer.
    for _ in 0..8 {
        cycle(raw, &mut bufs, &response);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        cycle(black_box(raw), &mut bufs, &response);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;

    println!("zeroalloc: {allocs} allocations / {ROUNDS} warm request cycles");
    assert_eq!(
        allocs, 0,
        "steady-state framing (parse_head + body copy + write_into) must not allocate"
    );

    // And the pool round-trip itself (detach while idle, reattach on the
    // next request) must also be allocation-free. One warm-up lap sizes
    // the pool's own free list.
    pool.put(bufs);
    bufs = pool.get();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        pool.put(black_box(bufs));
        bufs = pool.get();
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    println!("zeroalloc: {allocs} allocations / {ROUNDS} pool round-trips");
    assert_eq!(allocs, 0, "BufPool get/put must not allocate when warm");
}

/// One full framing cycle: accumulate bytes, parse the head, copy the
/// body into the scratch request, consume the frame, serialize the
/// response — exactly what a reactor shard does per request.
fn cycle(raw: &[u8], bufs: &mut perfpred_serve::conn::ConnBufs, response: &Response) {
    bufs.read.extend_from_slice(raw);
    let info = match parse_head(&bufs.read, &mut bufs.req) {
        HeadOutcome::Complete(info) => info,
        other => panic!("warm parse must complete, got {other:?}"),
    };
    bufs.req.body.clear();
    bufs.req
        .body
        .extend_from_slice(&bufs.read[info.head_len..info.total_len()]);
    bufs.read.drain(..info.total_len());
    assert!(bufs.read.is_empty());
    black_box(&bufs.req);

    bufs.write.clear();
    response.write_into(&mut bufs.write, true);
    black_box(&bufs.write);
}
