//! Allocation benchmarks, in both senses: resource-manager Algorithm 1
//! over the paper's 16-server scenario (the paper notes "each line was
//! generated in under one second"; one line is a full load sweep at one
//! slack), and — via a counting `#[global_allocator]` — proof that a warm
//! [`AmvaWorkspace`] makes the AMVA hot path heap-allocation-free, and a
//! ceiling on the heap allocations of one whole layered solve.

use perfpred_bench::timing::{group, Recorder};
use perfpred_core::{ServerArch, Workload};
use perfpred_hydra::{HistoricalModel, ServerObservations};
use perfpred_lqns::mva::{
    solve_amva_into, AmvaOptions, AmvaWorkspace, ClosedNetwork, Station, StationKind,
};
use perfpred_lqns::trade::TradeLqnConfig;
use perfpred_lqns::LqnPredictor;
use perfpred_resman::algorithm::allocate;
use perfpred_resman::costs::{sweep_loads, SweepConfig};
use perfpred_resman::runtime::RuntimeOptions;
use perfpred_resman::scenario::{paper_pool, paper_workload, UniformErrorModel};
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

fn historical_model() -> HistoricalModel {
    let m = 0.1424;
    let obs = |name: &str, mx: f64, c: f64, lam: f64| {
        let n_star = mx / m;
        ServerObservations::new(name, mx)
            .with_lower(0.15 * n_star, c * (lam * 0.15 * n_star).exp())
            .with_lower(0.66 * n_star, c * (lam * 0.66 * n_star).exp())
            .with_upper(1.10 * n_star, 1_000.0 / mx * 1.10 * n_star - 7_000.0)
            .with_upper(1.55 * n_star, 1_000.0 / mx * 1.55 * n_star - 7_000.0)
            .with_throughput(0.3 * n_star, m * 0.3 * n_star)
    };
    HistoricalModel::builder()
        .observations(obs("AppServF", 186.0, 18.5, 5.6e-4))
        .observations(obs("AppServVF", 320.0, 11.7, 3.3e-4))
        .r3_points(&[(0.0, 186.0), (25.0, 151.0), (50.0, 127.0), (100.0, 95.0)])
        .class_deviation(0.86, 1.43)
        .build()
        .expect("synthetic calibration")
}

fn bench_allocate(rec: &mut Recorder) {
    group("algorithm1_16_servers");
    let model = historical_model();
    let pool = paper_pool();
    for &load in &[2_000u32, 6_000, 10_000] {
        let w = paper_workload(load);
        rec.bench(&format!("algorithm1_16_servers/clients/{load}"), 20, || {
            allocate(black_box(&model), black_box(&pool), black_box(&w), 1.1).unwrap()
        });
    }
}

fn bench_full_sweep_line(rec: &mut Recorder) {
    // One "line" of fig 5/6: a 12-load sweep at one slack, planner +
    // runtime evaluation (the paper: "under one second").
    group("fig5_line");
    let truth = historical_model();
    let planner = UniformErrorModel::new(historical_model(), 1.075);
    let pool = paper_pool();
    let template = paper_workload(1_000);
    let config = SweepConfig {
        loads: (1..=12).map(|i| i * 1_000).collect(),
        runtime: RuntimeOptions::default(),
    };
    rec.bench("fig5_line/sweep_12_loads_slack_1.1", 10, || {
        sweep_loads(
            black_box(&planner),
            black_box(&truth),
            &pool,
            &template,
            &config,
            1.1,
        )
        .unwrap()
    });
}

/// Asserts the ISSUE's zero-allocation contract: once an
/// [`AmvaWorkspace`]'s buffers are sized, repeated `solve_amva_into`
/// calls — warm or population-perturbed — never touch the heap.
fn check_amva_zero_alloc(rec: &mut Recorder) {
    group("amva_zero_alloc");
    let mut net = ClosedNetwork {
        populations: vec![200.0, 120.0, 50.0, 25.0],
        think_ms: vec![7_000.0; 4],
        stations: (0..4)
            .map(|s| Station {
                kind: if s == 3 {
                    StationKind::Delay
                } else {
                    StationKind::Queueing {
                        servers: 1 + s as u32,
                    }
                },
                demands: (0..4).map(|k| 1.0 + k as f64 * 0.5 + s as f64).collect(),
            })
            .collect(),
    };
    let opts = AmvaOptions::default();
    let mut ws = AmvaWorkspace::new();
    // First solve sizes the buffers and may allocate; it is excluded.
    solve_amva_into(&net, &opts, &mut ws).unwrap();

    const SOLVES: u64 = 100;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 0..SOLVES {
        // Perturb the populations so every solve does real work (and the
        // warm start is exercised), without changing the network shape.
        net.populations[0] = 200.0 + (i % 7) as f64 * 25.0;
        solve_amva_into(black_box(&net), &opts, &mut ws).unwrap();
        black_box(ws.response_ms());
    }
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - before;
    println!(
        "{:<52} {} allocations / {SOLVES} warm solves",
        "amva_zero_alloc/solve_amva_into", allocs
    );
    rec.note("amva_warm_solves", SOLVES);
    rec.note("amva_allocations_during_warm_solves", allocs);
    assert_eq!(allocs, 0, "warm solve_amva_into must not allocate");
}

/// Heap allocations a whole layered solve may make: building the Trade
/// model, planning each level's submodel once, the solver state and the
/// result. The per-iteration submodel solves allocate nothing.
const LAYERED_SOLVE_ALLOCATION_CEILING: u64 = 250;

/// Counts the heap allocations of warm-pool predictions at the Trade
/// shape (browse + buy chains over the three case-study servers) through
/// one pool held across solves, and asserts
/// [`LAYERED_SOLVE_ALLOCATION_CEILING`] per solve.
fn check_layered_solve_allocs(rec: &mut Recorder) {
    group("lqns_layered_solve_allocs");
    let predictor = LqnPredictor::new(TradeLqnConfig::paper_table2());
    let servers = ServerArch::case_study_servers();
    let mut pool: Vec<AmvaWorkspace> = Vec::new();
    let workload =
        |i: u32| Workload::with_buy_pct(1 + (i * 337) % 3_000, 5.0 + (i % 6) as f64 * 5.0);
    // The first prediction sizes the pool's workspaces; it is excluded.
    predictor
        .predict_with_pool(&servers[0], &workload(0), &mut pool)
        .unwrap();

    const SOLVES: u32 = 60;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for i in 1..=SOLVES {
        let server = &servers[i as usize % 3];
        black_box(
            predictor
                .predict_with_pool(black_box(server), &workload(i), &mut pool)
                .unwrap(),
        );
    }
    let per_solve = (ALLOCATIONS.load(Ordering::SeqCst) - before) / u64::from(SOLVES);
    println!(
        "{:<52} {per_solve} allocations / solve",
        "lqns_layered_solve_allocs/predict_with_pool"
    );
    rec.note("lqns_layered_solves", u64::from(SOLVES));
    rec.note("lqns_allocations_per_layered_solve", per_solve);
    assert!(
        per_solve <= LAYERED_SOLVE_ALLOCATION_CEILING,
        "a warm-pool layered solve made {per_solve} allocations \
         (ceiling {LAYERED_SOLVE_ALLOCATION_CEILING})"
    );
}

fn main() {
    let mut rec = Recorder::new("bench.allocator");
    check_amva_zero_alloc(&mut rec);
    check_layered_solve_allocs(&mut rec);
    bench_allocate(&mut rec);
    bench_full_sweep_line(&mut rec);
    rec.write();
}
