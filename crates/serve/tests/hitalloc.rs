//! Heap allocations of one warm inline `/predict` hit: `App::try_handle`
//! on a memoized layered-queuing answer, as a reactor shard runs it —
//! one body parse, one cache peek, the admission check and the rendered
//! reply. Counted with the same `#[global_allocator]` as `zeroalloc.rs`
//! and held to a budget, so a change that re-parses the body, clones the
//! server or peeks twice fails here.
//!
//! `harness = false`: libtest spawns threads whose allocations would
//! pollute the counter, so this is a plain `main`.

use perfpred_core::CacheOptions;
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::http::Request;
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

/// Allocations one warm hit may make: the parsed body, the workload, the
/// cache key and the cloned answer, and the reply's JSON tree and bytes.
const BUDGET: u64 = 39;

fn main() {
    let app = App::new(
        ModelHost::paper(&CacheOptions::default()),
        AdmissionController::new(RuntimeOptions::default()).expect("default threshold"),
        JobQueue::new(64),
        Shutdown::new(),
    );
    let req = Request {
        method: "POST".into(),
        path: "/predict".into(),
        body: br#"{"method":"lqns","server":"AppServF","clients":700,"buy_pct":10}"#.to_vec(),
        keep_alive: true,
    };
    // The miss is solved once, as a dispatcher would; then warm up.
    assert_eq!(app.handle(&req).status, 200);
    for _ in 0..8 {
        let reply = app
            .try_handle(&req, Instant::now())
            .expect("a hit answers inline");
        assert_eq!(reply.status, 200);
        let body = String::from_utf8(reply.body).expect("UTF-8 reply");
        assert!(body.contains("\"cached\": true"), "{body}");
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        black_box(app.try_handle(black_box(&req), Instant::now()));
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;

    let per_hit = allocs / ROUNDS;
    println!("hitalloc: {allocs} allocations / {ROUNDS} warm inline lqns hits = {per_hit} per hit");
    assert_eq!(
        allocs % ROUNDS,
        0,
        "a warm hit must allocate the same every time"
    );
    assert!(
        per_hit <= BUDGET,
        "a warm inline lqns hit made {per_hit} allocations (budget {BUDGET})"
    );
}
