//! The reactor's zero-allocation contract: **a warm inline hit, framing
//! included, allocates nothing.** Once a connection's pooled buffers and
//! the shard's reply scratch are warm, one `/predict` cache hit — the
//! incremental head parse into the reused [`Request`] scratch, the body
//! copy, `App::try_handle_into` (body read, workload build, cache peek,
//! admission check, reply render) and [`Response::write_into`] — makes no
//! heap allocation. Counted with a `#[global_allocator]` over a rotating
//! set of warm keys: all three servers, one- and two-class workloads,
//! with and without `goal_ms` and `deadline_ms`.
//!
//! `harness = false`: libtest spawns threads whose allocations would
//! pollute the counter, so this is a plain `main`.

use perfpred_core::CacheOptions;
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::conn::{parse_head, BufPool, ConnBufs, HeadOutcome};
use perfpred_serve::http::{Request, Response};
use perfpred_serve::router::App;
use perfpred_serve::{ModelHost, Shutdown};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

/// The warm keys the hits rotate over.
const BODIES: [&str; 8] = [
    r#"{"method":"lqns","server":"AppServF","clients":700,"buy_pct":10}"#,
    r#"{"method":"lqns","server":"AppServS","clients":120}"#,
    r#"{"method":"lqns","server":"AppServVF","clients":900,"buy_pct":25,"goal_ms":100000}"#,
    r#"{"server":"AppServF","clients":300,"deadline_ms":5000}"#,
    r#"{"method":"lqns","server":"AppServS","clients":80,"buy_pct":50,"goal_ms":90000,"deadline_ms":2500}"#,
    r#"{"method":"lqns","server":"AppServVF","clients":40,"goal_ms":100000}"#,
    r#"{ "clients" : 650 , "server" : "AppServF" , "buy_pct" : 5 , "deadline_ms" : 0 }"#,
    r#"{"method":"lqns","server":"AppServS","clients":10,"buy_pct":100,"admission":true}"#,
];

fn main() {
    let app = App::new(
        ModelHost::paper(&CacheOptions::default()),
        AdmissionController::new(RuntimeOptions::default()).expect("default threshold"),
        JobQueue::new(64),
        Shutdown::new(),
    );
    let frames: Vec<Vec<u8>> = BODIES
        .iter()
        .map(|body| {
            format!(
                "POST /predict?cache=1 HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    // Each key's miss is solved once, as a dispatcher would.
    for body in BODIES {
        let req = Request {
            method: "POST".into(),
            path: "/predict".into(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        };
        assert_eq!(app.handle(&req).status, 200, "{body}");
    }

    // One keep-alive connection's worth of state, borrowed once, and the
    // shard's reply scratch.
    let mut pool = BufPool::new(4);
    let mut bufs = pool.get();
    let mut reply = Response::default();
    // Warm-up: size the scratch strings, body, reply and write buffer.
    for round in 0..2 * frames.len() {
        cycle(&app, &frames[round % frames.len()], &mut bufs, &mut reply);
        let body = std::str::from_utf8(&reply.body).expect("UTF-8 reply");
        assert_eq!(reply.status, 200, "{body}");
        assert!(body.contains("\"cached\": true"), "{body}");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for round in 0..ROUNDS {
        let frame = &frames[round as usize % frames.len()];
        cycle(&app, black_box(frame), &mut bufs, &mut reply);
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    println!(
        "zeroalloc: {allocs} allocations / {ROUNDS} warm inline /predict hits, framing included"
    );
    assert_eq!(
        allocs, 0,
        "a warm inline hit (parse_head + body copy + try_handle_into + write_into) must not allocate"
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

/// One request cycle as a reactor shard runs it: accumulate bytes, parse
/// the head, copy the body into the scratch request and consume the
/// frame, answer the hit into the reused reply, serialize it.
fn cycle(app: &App, raw: &[u8], bufs: &mut ConnBufs, reply: &mut Response) {
    bufs.read.extend_from_slice(raw);
    let info = match parse_head(bufs.read.bytes(), &mut bufs.req) {
        HeadOutcome::Complete(info) => info,
        other => panic!("warm parse must complete, got {other:?}"),
    };
    bufs.req.body.clear();
    bufs.req
        .body
        .extend_from_slice(&bufs.read.bytes()[info.head_len..info.total_len()]);
    bufs.read.consume(info.total_len());
    assert!(bufs.read.is_empty());

    assert!(
        app.try_handle_into(&bufs.req, Instant::now(), reply),
        "a hit answers inline"
    );
    bufs.write.clear();
    reply.write_into(&mut bufs.write, true);
    black_box(&bufs.write);
}
