//! P1 — performance of the exact game solver.
//!
//! Covers the resolution ablation (`Q ∈ {4, 16, 64}`), the two table
//! builds (the tick-walking reference and the event-driven production
//! solve), cached sweeps, the policy evaluators and query paths — and
//! emits the headline numbers to `BENCH_dp.json` at the workspace root.
//! The acceptance point is `(Q=32, p=16, L=10⁹ ticks)`: the event-driven
//! build of the run-backed table, its deterministic structure counters
//! (`event_count`, `event_driven_breakpoints`,
//! `run_compressed_breakpoints` ≤ 0.2× the logical breakpoints,
//! `run_memory_bytes`, and the events split by kind as `events_<kind>`),
//! the warm start that replaces it, and the serving and
//! batch-simulation throughput on top. The batch simulation runs first,
//! so no earlier solve shapes the heap it allocates in.
//!
//! Quick mode (`CRITERION_QUICK=1` or `--quick`) is the CI smoke
//! configuration: single-run measurements (`runs_per_measurement: 1`,
//! stamped `"quick_mode": true`) and shorter broker loads.
//!
//! ```sh
//! cargo bench -p cyclesteal-bench --bench perf_dp            # full
//! CRITERION_QUICK=1 cargo bench -p cyclesteal-bench --bench perf_dp  # CI smoke
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cyclesteal_core::prelude::*;
use cyclesteal_dp::event::EVENT_KINDS;
use cyclesteal_dp::{
    evaluate_policy, evaluate_policy_compressed, CompressedEvalOptions, CompressedTable,
    EvalOptions, SolveConfig, TableCache,
};
use std::hint::black_box;
use std::time::Instant;

/// The acceptance-criteria configuration: Q ticks/setup, interrupt
/// budget and the deep lifespan in ticks.
const ACCEPT_Q: u32 = 32;
const ACCEPT_P: u32 = 16;
const ACCEPT_EVENT_TICKS: i64 = 1_000_000_000;

fn bench_solve_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_solve_resolution");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for q in [4u32, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| CompressedTable::solve_event_driven(secs(1.0), q, secs(512.0), black_box(3)))
        });
    }
    group.finish();
}

fn bench_compressed_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_compressed_solve");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("q16_u512_p3", |b| {
        b.iter(|| CompressedTable::solve(secs(1.0), 16, secs(512.0), black_box(3)))
    });
    group.bench_function("event_q16_u512_p3", |b| {
        b.iter(|| CompressedTable::solve_event_driven(secs(1.0), 16, secs(512.0), black_box(3)))
    });
    // The run-skipping regime only shows at depth: 10⁷ ticks, where the
    // tick walk pays 10⁷ steps per level and the event build ~k.
    group.bench_function("event_q16_u625000_p3", |b| {
        b.iter(|| CompressedTable::solve_event_driven(secs(1.0), 16, secs(625_000.0), black_box(3)))
    });
    group.finish();
}

fn bench_compressed_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_compressed_eval");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    // Guideline scoring on a 10⁶-tick grid through the knot-compressed
    // evaluator — the dense evaluator at this size is the policy_eval
    // group's 4096-tick bench scaled by ~250×.
    group.bench_function("adaptive_guideline_p2_u125000_q8", |b| {
        b.iter(|| {
            evaluate_policy_compressed(
                &AdaptiveGuideline::default(),
                secs(1.0),
                8,
                secs(125_000.0),
                black_box(2),
                CompressedEvalOptions::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_cached_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_cached_sweep");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    // 24 configs, 3 distinct keys: the cache turns 24 solves into 3,
    // fanned out over the par workers.
    let configs: Vec<SolveConfig> = (0..24)
        .map(|i| SolveConfig {
            setup: secs(1.0),
            ticks_per_setup: 8,
            max_lifespan: secs(64.0 * (1 + i % 8) as f64),
            max_interrupts: 1 + (i % 3) as u32,
        })
        .collect();
    group.bench_function("solve_many_24cfg_3keys", |b| {
        b.iter(|| {
            let cache = TableCache::new();
            cache.solve_many(black_box(&configs))
        })
    });
    group.finish();
}

fn bench_policy_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_policy_eval");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.bench_function("adaptive_guideline_p3_u512_q8", |b| {
        b.iter(|| {
            evaluate_policy(
                &AdaptiveGuideline::default(),
                secs(1.0),
                8,
                secs(512.0),
                black_box(3),
                EvalOptions::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let table = CompressedTable::solve_event_driven(secs(1.0), 32, secs(1024.0), 3);
    c.bench_function("dp_value_query_compressed", |b| {
        let mut x = 0.0f64;
        b.iter(|| {
            x = (x + 13.37) % 1024.0;
            black_box(table.value(3, secs(x)))
        })
    });
    c.bench_function("dp_episode_reconstruction_compressed", |b| {
        b.iter(|| table.episode(black_box(3), secs(1024.0)).unwrap())
    });
}

/// Median wall-clock seconds of `runs` executions of `f`, after one
/// untimed warm-up run (the first solve at this scale pays the OS
/// page-fault cost of mapping the arena; later ones reuse the pages).
/// The last run's output is returned so callers can read stats off it
/// without paying for yet another solve.
fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    black_box(f());
    let mut last = None;
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            last = Some(black_box(f()));
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (
        times[times.len() / 2],
        last.expect("runs >= 1 timed executions"),
    )
}

/// The acceptance-criteria measurement, reported on stdout and written
/// to `BENCH_dp.json` at the workspace root. Honors the CLI name filter
/// under the id `dp_acceptance_report` — `cargo bench ... -- dp_value`
/// skips the heavyweight p=16 solves (and the JSON rewrite).
///
/// Quick mode stamps `"quick_mode": true` with `runs_per_measurement: 1`
/// and runs shorter broker loads; every field is emitted in both modes,
/// so `bench_diff` can gate on them in every mode.
fn acceptance_report(c: &mut Criterion) {
    if !c.filter_matches("dp_acceptance_report") {
        return;
    }
    let quick = std::env::var("CRITERION_QUICK").is_ok_and(|v| v == "1")
        || std::env::args().any(|a| a == "--quick");
    let runs = if quick { 1 } else { 3 };
    let deep_u = secs(ACCEPT_EVENT_TICKS as f64 / ACCEPT_Q as f64);

    // Population-scale batch simulation: 10⁶ seeded episodes of the
    // table-driven optimal borrower against the Poisson owner, on the
    // struct-of-arrays BatchSim. The same batch is run once at a single
    // worker and asserted bit-identical to the threaded run (the
    // acceptance criterion), then timed threaded. It runs before the
    // 10⁹-tick solve, whose heap layout otherwise moves its rate ~10%.
    let (sim_episodes_per_s, sim_batch_episodes, sim_batch_threads) = {
        use now_sim::{BatchAdversary, BatchConfig, BatchSim};
        let sim_l_ticks = 4_096i64;
        let sim_p = 3u32;
        let sim_table = std::sync::Arc::new(CompressedTable::solve_event_driven(
            secs(1.0),
            ACCEPT_Q,
            secs(sim_l_ticks as f64 / ACCEPT_Q as f64),
            sim_p,
        ));
        let episodes = 1_000_000usize;
        let mk = |threads: usize| {
            BatchSim::new(BatchConfig {
                table: sim_table.clone(),
                lifespan_ticks: sim_l_ticks,
                interrupts: sim_p,
                episodes,
                seed: 0xBA7C4,
                adversary: BatchAdversary::Poisson {
                    mean_gap_ticks: 256.0,
                },
                block: 0,
                threads,
            })
            .run()
        };
        let (sim_s, threaded) = time_median(runs, || mk(0));
        let sequential = mk(1);
        assert_eq!(
            sequential, threaded,
            "batch reports must be bit-identical at 1 vs N threads"
        );
        assert_eq!(
            threaded.violations, 0,
            "guarantee violated at the bench point"
        );
        (
            episodes as f64 / sim_s,
            episodes,
            cyclesteal_par::default_threads(),
        )
    };

    // The production solve at the deep point; the last timed build
    // doubles as the stats source.
    let (run_s, deep) = time_median(runs, || {
        CompressedTable::solve_event_driven(secs(1.0), ACCEPT_Q, deep_u, ACCEPT_P)
    });
    let event_count = deep.events();
    let event_kinds = deep
        .events_by_kind()
        .expect("the event-driven build counts events by kind");
    let deep_breakpoints: usize = (0..=ACCEPT_P).map(|p| deep.breakpoints(p)).sum();
    let run_breakpoints: usize = (0..=ACCEPT_P).map(|p| deep.stored_breakpoints(p)).sum();
    let run_bytes = deep.memory_bytes();
    let run_k_ratio = run_breakpoints as f64 / deep_breakpoints as f64;

    // Warm start: snapshot the run-backed deep table once, then time a
    // fresh cache warming from disk *and serving its first query* — the
    // restart path of the serving layer. Acceptance: ≥ 10× faster than
    // the cold solve it replaces.
    use cyclesteal_store::CacheSnapshotExt;
    let snap_dir =
        std::env::temp_dir().join(format!("cyclesteal-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&snap_dir);
    {
        let cache = TableCache::new();
        cache.admit_compressed(std::sync::Arc::new(deep));
        cache
            .snapshot_to_dir(&snap_dir)
            .expect("write warm-start snapshot");
    }
    let (warm_s, _) = time_median(runs, || {
        let cache = TableCache::new();
        let report = cache.warm_from_dir(&snap_dir).expect("read snapshot dir");
        assert_eq!(report.loaded, 1, "snapshot must load");
        let table = cache.get_compressed(secs(1.0), ACCEPT_Q, deep_u, ACCEPT_P);
        assert_eq!(cache.stats().misses, 0, "warm start must not solve");
        table.value(ACCEPT_P, deep_u)
    });
    let _ = std::fs::remove_dir_all(&snap_dir);
    let warm_speedup = run_s / warm_s;

    // Broker throughput: batched guarantee queries against a warmed
    // in-process broker, from 4 client threads.
    let (serve_qps, serve_p99_us) = {
        use cyclesteal_serve::{Broker, BrokerConfig, GuaranteeQuery};
        let broker = std::sync::Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let queries: Vec<GuaranteeQuery> = (0..64)
            .map(|i| GuaranteeQuery {
                setup: secs(1.0),
                ticks_per_setup: 8,
                interrupts: 1 + (i % 3),
                lifespan: secs(8.0 * (1 + i % 64) as f64),
            })
            .collect();
        let _ = broker.query_batch(&queries).unwrap(); // one solve, warm
        let batches_per_thread = if quick { 250 } else { 1000 };
        let threads = 4;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let broker = broker.clone();
                let queries = &queries;
                scope.spawn(move || {
                    for _ in 0..batches_per_thread {
                        black_box(broker.query_batch(black_box(queries)).unwrap());
                    }
                });
            }
        });
        let total_queries = (threads * batches_per_thread * queries.len()) as f64;
        let qps = total_queries / start.elapsed().as_secs_f64();
        // Tail latency of the same batches, from the broker's own
        // per-endpoint digest (the warm-up batch is included — one
        // cache-hit batch among thousands cannot move the p99).
        let p99_us = broker
            .stats()
            .endpoints
            .iter()
            .find(|e| e.endpoint == "inproc")
            .map(|e| e.p99_us)
            .unwrap_or(0);
        (qps, p99_us)
    };

    // The same warmed workload with full observability on: solver phase
    // profiling enabled and every batch traced (nonzero trace ids, so
    // every request records pipeline spans into the journal). Gated in
    // bench_diff at serve_qps_instrumented ≥ 0.9 × serve_qps within the
    // same run — the instrumentation overhead budget is 10%.
    let serve_qps_instrumented = {
        use cyclesteal_serve::{Broker, BrokerConfig, GuaranteeQuery, Request};
        let broker = std::sync::Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        broker.enable_profiling();
        let queries: Vec<GuaranteeQuery> = (0..64)
            .map(|i| GuaranteeQuery {
                setup: secs(1.0),
                ticks_per_setup: 8,
                interrupts: 1 + (i % 3),
                lifespan: secs(8.0 * (1 + i % 64) as f64),
            })
            .collect();
        let _ = broker.query_batch(&queries).unwrap(); // one solve, warm
        let batches_per_thread = if quick { 250 } else { 1000 };
        let threads = 4;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let broker = broker.clone();
                let queries = &queries;
                scope.spawn(move || {
                    for b in 0..batches_per_thread {
                        let trace = 1 + (t * batches_per_thread + b) as u64;
                        let request = Request {
                            trace_id: trace,
                            ..Request::batch(black_box(queries))
                        };
                        black_box(broker.serve(&request).unwrap());
                    }
                });
            }
        });
        let total_queries = (threads * batches_per_thread * queries.len()) as f64;
        total_queries / start.elapsed().as_secs_f64()
    };

    // The same warmed workload at 64 concurrent client threads: the
    // concurrency acceptance point for the serving stack. Gated
    // higher-is-better in bench_diff; the acceptance bar is staying
    // within 2× of the 4-client number with a flat p99.
    let (serve_qps_64c, serve_p99_64c_us) = {
        use cyclesteal_serve::{Broker, BrokerConfig, GuaranteeQuery};
        let broker = std::sync::Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let queries: Vec<GuaranteeQuery> = (0..64)
            .map(|i| GuaranteeQuery {
                setup: secs(1.0),
                ticks_per_setup: 8,
                interrupts: 1 + (i % 3),
                lifespan: secs(8.0 * (1 + i % 64) as f64),
            })
            .collect();
        let _ = broker.query_batch(&queries).unwrap(); // one solve, warm
        let batches_per_thread = if quick { 25 } else { 100 };
        let threads = 64;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let broker = broker.clone();
                let queries = &queries;
                scope.spawn(move || {
                    for _ in 0..batches_per_thread {
                        black_box(broker.query_batch(black_box(queries)).unwrap());
                    }
                });
            }
        });
        let total_queries = (threads * batches_per_thread * queries.len()) as f64;
        let qps = total_queries / start.elapsed().as_secs_f64();
        let p99_us = broker
            .stats()
            .endpoints
            .iter()
            .find(|e| e.endpoint == "inproc")
            .map(|e| e.p99_us)
            .unwrap_or(0);
        (qps, p99_us)
    };

    println!(
        "\n=== perf_dp acceptance (Q={ACCEPT_Q}, p={ACCEPT_P}, L={ACCEPT_EVENT_TICKS} ticks) ==="
    );
    println!(
        "event-driven solve   : {run_s:.3} s ({event_count} events, {deep_breakpoints} breakpoints stored as {run_breakpoints} run descriptors = {run_k_ratio:.4}×, target ≤ 0.2×; {run_bytes} B)"
    );
    println!(
        "events by kind       : {}",
        EVENT_KINDS
            .iter()
            .zip(event_kinds)
            .map(|(kind, n)| format!("{kind} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "warm start           : {warm_s:.3} s snapshot-load + first query ({warm_speedup:.1}× vs cold solve, target ≥ 10×)"
    );
    println!(
        "broker throughput    : {serve_qps:.0} queries/s (batched, 4 client threads), batch p99 {serve_p99_us} µs"
    );
    println!(
        "broker instrumented  : {serve_qps_instrumented:.0} queries/s with tracing + phase profiling on ({:.1}% of baseline, floor 90%)",
        100.0 * serve_qps_instrumented / serve_qps
    );
    println!(
        "broker at 64 clients : {serve_qps_64c:.0} queries/s (batched, 64 client threads), batch p99 {serve_p99_64c_us} µs"
    );
    println!(
        "batch simulation     : {sim_episodes_per_s:.0} episodes/s ({sim_batch_episodes} seeded episodes at {sim_batch_threads} threads, bit-identical to 1 thread)"
    );

    let kind_fields = EVENT_KINDS
        .iter()
        .zip(event_kinds)
        .map(|(kind, n)| format!("\"events_{kind}\": {n}"))
        .collect::<Vec<_>>()
        .join(",\n  ");
    let fields = [
        format!("\"quick_mode\": {quick}"),
        format!("\"runs_per_measurement\": {runs}"),
        format!("\"event_driven_lifespan_ticks\": {ACCEPT_EVENT_TICKS}"),
        format!("\"event_count\": {event_count}"),
        format!("\"event_driven_breakpoints\": {deep_breakpoints}"),
        kind_fields,
        format!("\"run_compressed_solve_s\": {run_s:.6}"),
        format!("\"run_compressed_breakpoints\": {run_breakpoints}"),
        format!("\"run_memory_bytes\": {run_bytes}"),
        format!("\"warm_start_s\": {warm_s:.6}"),
        format!("\"warm_start_speedup\": {warm_speedup:.3}"),
        format!("\"serve_qps\": {serve_qps:.1}"),
        format!("\"serve_p99_us\": {serve_p99_us}"),
        format!("\"serve_qps_instrumented\": {serve_qps_instrumented:.1}"),
        format!("\"serve_qps_64c\": {serve_qps_64c:.1}"),
        format!("\"serve_p99_64c_us\": {serve_p99_64c_us}"),
        format!("\"sim_episodes_per_s\": {sim_episodes_per_s:.1}"),
        format!("\"sim_batch_episodes\": {sim_batch_episodes}"),
        format!("\"sim_batch_threads\": {sim_batch_threads}"),
    ];

    let json = format!(
        "{{\n  \"bench\": \"perf_dp\",\n  \"config\": {{ \"ticks_per_setup\": {ACCEPT_Q}, \"max_interrupts\": {ACCEPT_P}, \"lifespan_ticks\": {ACCEPT_EVENT_TICKS} }},\n  {}\n}}\n",
        fields.join(",\n  ")
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dp.json");
    std::fs::write(&path, json).expect("write BENCH_dp.json");
    println!("wrote {}", path.display());
}

criterion_group!(
    benches,
    bench_solve_resolution,
    bench_compressed_solve,
    bench_compressed_eval,
    bench_cached_sweep,
    bench_policy_eval,
    bench_queries,
    acceptance_report
);
criterion_main!(benches);
