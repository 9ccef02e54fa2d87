//! Observability dashboard: pull a live server's metrics + trace spans
//! over the wire (op 4) and render them as text tables — queue depths,
//! per-tenant traffic, lane occupancy, cache shards, solve-phase
//! breakdowns, and a span waterfall for the slowest trace.
//!
//! ```sh
//! cargo run --release --example obs_dashboard              # self-contained demo
//! cargo run --release --example obs_dashboard -- pull 127.0.0.1:7717
//! cargo run --release --example obs_dashboard -- smoke     # CI gate
//! ```
//!
//! The default mode starts an ephemeral server, drives mixed traffic
//! (three tenant grids, batches and sweeps, some requests traced) and
//! renders the op-4 pull. `pull` renders any running `serve_demo
//! server`. `smoke` is the CI `obs-smoke` step: it additionally
//! asserts that the op-4 exposition reconciles **exactly** with
//! [`Broker::stats`] (the per-tenant series sum to the tcp endpoint's
//! queries), that a warm batch spanning every tenant grid is answered
//! on the connection thread (0 pool hand-offs, 0 misses), that a
//! client-chosen trace id produced a span at every pipeline stage of a
//! cold solve, that solver phase profiling recorded timings, and that
//! the span journal dumps as JSON lines.

use cyclesteal_core::time::secs;
use cyclesteal_obs::{parse_exposition, Sample, SpanRecord};
use cyclesteal_serve::{
    Broker, BrokerConfig, Client, ClientConfig, GuaranteeQuery, Request, RetryPolicy, Server,
    SweepQuery,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// A traced batch id the smoke assertions look for.
const SMOKE_TRACE: u64 = 0xDA5B_0A4D;

/// Three tenant grids driving mixed traffic.
const TENANTS: [(f64, u32); 3] = [(1.0, 8), (2.0, 4), (0.5, 16)];

fn drive_traffic(addr: std::net::SocketAddr) {
    std::thread::scope(|scope| {
        for (t, (setup, ticks)) in TENANTS.iter().enumerate() {
            scope.spawn(move || {
                // Distinct retry seeds keep the clients' client-drawn
                // trace-id streams disjoint (the seed feeds both jitter
                // and trace ids).
                let mut client = Client::connect_with(
                    addr,
                    ClientConfig {
                        retry: RetryPolicy {
                            seed: 0xBA5E ^ ((t as u64) << 32),
                            ..RetryPolicy::default()
                        },
                        ..ClientConfig::default()
                    },
                )
                .unwrap();
                for round in 0..10u32 {
                    let queries: Vec<GuaranteeQuery> = (1..=3)
                        .map(|p| GuaranteeQuery {
                            setup: secs(*setup),
                            ticks_per_setup: *ticks,
                            interrupts: p,
                            lifespan: secs(20.0 + 7.0 * f64::from(round)),
                        })
                        .collect();
                    // Tenant 0's third round is the pinned trace the
                    // smoke mode follows through the pipeline.
                    if t == 0 && round == 2 {
                        client
                            .send(&Request {
                                trace_id: SMOKE_TRACE,
                                ..Request::batch(&queries)
                            })
                            .unwrap();
                    } else {
                        client.query_batch(&queries).unwrap();
                    }
                }
                // A streaming sweep per tenant exercises op 3 too.
                client
                    .query_sweep(&SweepQuery {
                        setup: secs(*setup),
                        ticks_per_setup: *ticks,
                        interrupts: 2,
                        first_tick: 1,
                        count: 200,
                    })
                    .unwrap();
            });
        }
    });
}

/// Renders rows as a fixed-width text table with a header rule.
fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("\n== {title} ==");
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

fn value_of(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .find(|s| s.name == name)
        .map_or(0, |s| s.value)
}

fn label_of<'a>(sample: &'a Sample, key: &str) -> &'a str {
    sample
        .labels
        .iter()
        .find(|(k, _)| k == key)
        .map_or("", |(_, v)| v.as_str())
}

/// Per-label breakdown of one series: `label value` rows, sorted.
fn by_label(samples: &[Sample], name: &str, key: &str) -> BTreeMap<String, u64> {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (label_of(s, key).to_string(), s.value))
        .collect()
}

fn render_dashboard(text: &str, spans: &[SpanRecord], elapsed_s: f64) {
    let samples = parse_exposition(text);

    // Queue depths and lane occupancy — the "is it keeping up" row.
    render_table(
        "queues & lanes",
        &["inflight batches", "lanes running", "lane waiters"],
        &[vec![
            value_of(&samples, "cyclesteal_inflight_batches").to_string(),
            value_of(&samples, "cyclesteal_lanes_running").to_string(),
            value_of(&samples, "cyclesteal_lane_waiters").to_string(),
        ]],
    );

    // Endpoint traffic with mean latency from the histogram sum/count.
    let mut rows = Vec::new();
    for s in samples
        .iter()
        .filter(|s| s.name == "cyclesteal_requests_total")
    {
        let ep = label_of(s, "endpoint");
        let pick = |name: &str| {
            samples
                .iter()
                .find(|x| x.name == name && label_of(x, "endpoint") == ep)
                .map_or(0, |x| x.value)
        };
        let count = pick("cyclesteal_request_latency_us_count");
        let mean_us = pick("cyclesteal_request_latency_us_sum")
            .checked_div(count)
            .unwrap_or(0);
        rows.push(vec![
            ep.to_string(),
            s.value.to_string(),
            pick("cyclesteal_queries_total").to_string(),
            pick("cyclesteal_coalesced_total").to_string(),
            format!("{mean_us}"),
        ]);
    }
    render_table(
        "endpoints",
        &["endpoint", "requests", "queries", "coalesced", "mean µs"],
        &rows,
    );

    // Per-tenant traffic rate over the demo window.
    let tenants = by_label(&samples, "cyclesteal_tenant_queries_total", "tenant");
    let rows: Vec<Vec<String>> = tenants
        .iter()
        .map(|(tenant, queries)| {
            vec![
                tenant.clone(),
                queries.to_string(),
                format!("{:.0}", *queries as f64 / elapsed_s.max(1e-9)),
            ]
        })
        .collect();
    render_table("tenants", &["grid (setup x Q)", "queries", "QPS"], &rows);

    // Cache shards.
    let shard_series = [
        ("hits", "cyclesteal_cache_shard_hits"),
        ("misses", "cyclesteal_cache_shard_misses"),
        ("tables", "cyclesteal_cache_shard_compressed_entries"),
        ("KiB", "cyclesteal_cache_shard_resident_bytes"),
    ];
    let shards: Vec<String> = by_label(&samples, "cyclesteal_cache_shard_hits", "shard")
        .keys()
        .cloned()
        .collect();
    let rows: Vec<Vec<String>> = shards
        .iter()
        .map(|shard| {
            let mut row = vec![shard.clone()];
            for (label, series) in &shard_series {
                let v = samples
                    .iter()
                    .find(|s| s.name == *series && label_of(s, "shard") == shard)
                    .map_or(0, |s| s.value);
                row.push(if *label == "KiB" {
                    (v >> 10).to_string()
                } else {
                    v.to_string()
                });
            }
            row
        })
        .collect();
    render_table(
        "cache shards",
        &["shard", "hits", "misses", "tables", "KiB"],
        &rows,
    );

    // Solve-phase breakdown (needs the server to have profiling on).
    let counts = by_label(&samples, "cyclesteal_solve_phase_ns_count", "phase");
    let sums = by_label(&samples, "cyclesteal_solve_phase_ns_sum", "phase");
    let rows: Vec<Vec<String>> = counts
        .iter()
        .filter(|(_, c)| **c > 0)
        .map(|(phase, count)| {
            let total = sums.get(phase).copied().unwrap_or(0);
            vec![
                phase.clone(),
                count.to_string(),
                format!("{:.3}", total as f64 / 1e6),
                format!("{:.3}", total as f64 / 1e6 / *count as f64),
            ]
        })
        .collect();
    if rows.is_empty() {
        println!("\n== solve phases == (profiling disabled on this server)");
    } else {
        render_table(
            "solve phases",
            &["phase", "solves", "total ms", "mean ms"],
            &rows,
        );
    }

    // Span waterfall of the slowest trace in the journal.
    let mut traces: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        traces.entry(span.trace_id).or_default().push(span);
    }
    let slowest = traces
        .iter()
        .max_by_key(|(_, spans)| spans.iter().map(|s| s.duration_ns()).max().unwrap_or(0));
    if let Some((trace_id, mut trace_spans)) = slowest.map(|(id, s)| (*id, s.clone())) {
        trace_spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        let t0 = trace_spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let rows: Vec<Vec<String>> = trace_spans
            .iter()
            .map(|s| {
                vec![
                    s.stage.clone(),
                    format!("{:.3}", (s.start_ns - t0) as f64 / 1e6),
                    format!("{:.3}", s.duration_ns() as f64 / 1e6),
                ]
            })
            .collect();
        render_table(
            &format!(
                "slowest trace {trace_id:#018x} ({} spans journaled)",
                spans.len()
            ),
            &["stage", "start ms", "span ms"],
            &rows,
        );
    }
}

/// What one local run leaves for the dashboard and the smoke gate.
struct LocalRun {
    broker: Arc<Broker>,
    text: String,
    spans: Vec<SpanRecord>,
    elapsed_s: f64,
    /// Pool hand-offs and cache misses added by the warm batch that
    /// spans every tenant grid.
    warm_handoffs: u64,
    warm_misses: u64,
}

/// Starts an ephemeral instrumented server, drives the mixed workload,
/// then one warm batch over every tenant grid, and pulls op 4.
fn run_local() -> LocalRun {
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    broker.enable_profiling();
    let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
    let started = Instant::now();
    drive_traffic(server.local_addr());
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Every grid is resident now, so this multi-grid batch must be
    // answered on the connection thread: no pool job, no miss.
    let handoffs = broker
        .obs()
        .registry()
        .lookup_counter("cyclesteal_pool_handoffs_total", &[])
        .expect("registered at broker build");
    let (handoffs_before, misses_before) = (handoffs.get(), broker.stats().cache.misses);
    let warm: Vec<GuaranteeQuery> = TENANTS
        .iter()
        .flat_map(|&(setup, ticks)| {
            (1..=3).map(move |p| GuaranteeQuery {
                setup: secs(setup),
                ticks_per_setup: ticks,
                interrupts: p,
                lifespan: secs(20.0),
            })
        })
        .collect();
    client.query_batch(&warm).unwrap();
    let warm_handoffs = handoffs.get() - handoffs_before;
    let warm_misses = broker.stats().cache.misses - misses_before;

    let (text, spans) = client.fetch_metrics().unwrap();
    server.shutdown();
    LocalRun {
        broker,
        text,
        spans,
        elapsed_s,
        warm_handoffs,
        warm_misses,
    }
}

fn run_demo() {
    let run = run_local();
    render_dashboard(&run.text, &run.spans, run.elapsed_s);
}

fn run_pull(addr: &str) {
    let mut client = Client::connect(addr).unwrap();
    let (text, spans) = client.fetch_metrics().unwrap();
    // A remote pull has no demo window; rate over 1 s = raw totals.
    render_dashboard(&text, &spans, 1.0);
}

fn run_smoke() {
    println!("[obs-smoke 1/3] instrumented server under mixed 3-tenant traffic…");
    let LocalRun {
        broker,
        text,
        spans,
        elapsed_s,
        warm_handoffs,
        warm_misses,
    } = run_local();
    let samples = parse_exposition(&text);
    let stats = broker.stats();

    // Gate 1: the op-4 exposition reconciles exactly with BrokerStats —
    // same atomics, two reads, no traffic in between.
    let tcp = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "tcp")
        .expect("tcp endpoint");
    let pick = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && label_of(s, "endpoint") == "tcp")
            .map_or(0, |s| s.value)
    };
    assert_eq!(pick("cyclesteal_requests_total"), tcp.requests);
    assert_eq!(pick("cyclesteal_queries_total"), tcp.queries);
    assert_eq!(pick("cyclesteal_coalesced_total"), tcp.coalesced);
    assert_eq!(pick("cyclesteal_request_latency_us_count"), tcp.requests);
    for (series, want) in [
        ("cyclesteal_cache_shard_hits", stats.cache.hits),
        ("cyclesteal_cache_shard_misses", stats.cache.misses),
        (
            "cyclesteal_cache_shard_resident_bytes",
            stats.cache.resident_bytes as u64,
        ),
    ] {
        let sum: u64 = samples
            .iter()
            .filter(|s| s.name == series)
            .map(|s| s.value)
            .sum();
        assert_eq!(sum, want, "shard sum of {series}");
    }
    // Every query the tcp endpoint counted lands in exactly one tenant
    // series (`tenant="other"` included).
    let tenant_sum: u64 = by_label(&samples, "cyclesteal_tenant_queries_total", "tenant")
        .values()
        .sum();
    assert_eq!(tenant_sum, tcp.queries, "Σ tenant series vs tcp queries");
    // The warm multi-grid batch never left the connection thread.
    assert_eq!(warm_handoffs, 0, "warm batch handed jobs to the pool");
    assert_eq!(warm_misses, 0, "warm batch missed the cache");
    println!(
        "[obs-smoke 2/3] op-4 pull reconciles exactly with BrokerStats; warm batch: 0 hand-offs…"
    );

    // Gate 2: the pinned trace crossed every pipeline stage, and the
    // solver phases were profiled.
    let stages: Vec<&str> = spans
        .iter()
        .filter(|s| s.trace_id == SMOKE_TRACE)
        .map(|s| s.stage.as_str())
        .collect();
    for stage in [
        "server.recv",
        "server.dispatch",
        "broker.admission",
        "broker.batch",
    ] {
        assert!(stages.contains(&stage), "trace missing {stage}: {stages:?}");
    }
    assert!(
        samples
            .iter()
            .any(|s| s.name == "cyclesteal_solve_phase_ns_count" && s.value > 0),
        "phase profiling recorded no solves"
    );

    // Gate 3: the journal dumps as JSON lines, one per span.
    let jsonl = broker.obs().journal().to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), broker.obs().journal().len());
    assert!(lines
        .iter()
        .all(|l| l.starts_with('{') && l.ends_with('}') && l.contains("\"trace_id\"")));
    println!("[obs-smoke 3/3] trace spans + phase profile + JSONL journal present…");

    render_dashboard(&text, &spans, elapsed_s);
    println!(
        "\nobs smoke: all gates green (exact reconciliation, full-pipeline trace, profiled solves)"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => run_demo(),
        Some("pull") => run_pull(args.get(1).map_or("127.0.0.1:7717", String::as_str)),
        Some("smoke") => run_smoke(),
        Some(other) => {
            eprintln!("unknown mode {other}; use pull/smoke or no argument");
            std::process::exit(2);
        }
    }
}
