//! Observability acceptance tests.
//!
//! Four contracts:
//!
//! 1. **Trace propagation** — a client-chosen trace id rides the op-1/
//!    op-3 wire frames and stamps a span at *every* pipeline stage the
//!    request crosses (`server.recv` → `server.dispatch` →
//!    `broker.admission` → `broker.lane` → `broker.solve` →
//!    `broker.batch` on a cold solve), all retrievable over the op-4
//!    introspection pull.
//! 2. **Reconciliation** — the op-4 text exposition and
//!    [`Broker::stats`] are two reads of the *same* atomics: endpoint
//!    counters match exactly, and summing the per-shard cache gauges
//!    reproduces [`cyclesteal_dp::CacheStats`] totals exactly, even
//!    after concurrent load. The per-tenant series, `tenant="other"`
//!    included, sum to the endpoint's queries exactly, even over more
//!    grids than [`MAX_TENANT_SERIES`].
//! 3. **Profiling neutrality** — enabling solver phase profiling (and
//!    tracing) changes observability output only; answers stay
//!    bit-identical to an uninstrumented broker.
//! 4. **Connection accounting** — every accepted TCP connection is
//!    counted open until its thread closes it under exactly one
//!    `reason`, so accepted − Σ closed equals the open-connection
//!    gauge.

use cyclesteal_core::time::secs;
use cyclesteal_obs::{parse_exposition, LogicalClock, Sample};
use cyclesteal_serve::broker::MAX_TENANT_SERIES;
use cyclesteal_serve::{
    Broker, BrokerConfig, Client, GuaranteeQuery, ObsHub, Request, Server, SweepQuery,
};
use std::collections::BTreeSet;
use std::sync::Arc;

fn query(p: u32, lifespan: f64) -> GuaranteeQuery {
    GuaranteeQuery {
        setup: secs(1.0),
        ticks_per_setup: 8,
        interrupts: p,
        lifespan: secs(lifespan),
    }
}

/// The one value a series must have: exactly one sample with `name` and
/// (at least) the given label pair.
fn sample_value(samples: &[Sample], name: &str, label: (&str, &str)) -> u64 {
    let matches: Vec<&Sample> = samples
        .iter()
        .filter(|s| {
            s.name == name
                && s.labels
                    .iter()
                    .any(|(k, v)| (k.as_str(), v.as_str()) == label)
        })
        .collect();
    assert_eq!(
        matches.len(),
        1,
        "expected exactly one sample of {name}{{{}={}}}, got {matches:?}",
        label.0,
        label.1
    );
    matches[0].value
}

/// Sums every sample of `name` across all label sets (e.g. a per-shard
/// gauge summed over shards).
fn sample_sum(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

#[test]
fn trace_ids_stamp_every_pipeline_stage_on_a_cold_solve() {
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", broker).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A cold batch under an explicit trace id: the grid is fresh, so
    // the request must cross admission, a fairness lane and a solve.
    let batch_trace = 0xB10C_5EED_u64;
    client
        .send(&Request {
            trace_id: batch_trace,
            ..Request::batch(&[query(2, 80.0)])
        })
        .unwrap();
    // And a sweep under a different id, against a different grid so it
    // also runs cold.
    let sweep_trace = 0x051E_E7ED_u64;
    client
        .send(&Request {
            trace_id: sweep_trace,
            ..Request::sweep(SweepQuery {
                setup: secs(2.0),
                ticks_per_setup: 4,
                interrupts: 2,
                first_tick: 1,
                count: 64,
            })
        })
        .unwrap();

    let (_text, spans) = client.fetch_metrics().unwrap();
    for span in &spans {
        assert!(span.end_ns >= span.start_ns, "span runs forward: {span:?}");
    }
    let stages_of = |trace: u64| -> BTreeSet<String> {
        spans
            .iter()
            .filter(|s| s.trace_id == trace)
            .map(|s| s.stage.clone())
            .collect()
    };

    let batch_stages = stages_of(batch_trace);
    for stage in [
        "server.recv",
        "server.dispatch",
        "broker.admission",
        "broker.lane",
        "broker.solve",
        "broker.batch",
    ] {
        assert!(
            batch_stages.contains(stage),
            "cold batch trace missing {stage}: {batch_stages:?}"
        );
    }

    let sweep_stages = stages_of(sweep_trace);
    for stage in [
        "server.recv",
        "server.dispatch",
        "broker.admission",
        "broker.lane",
        "broker.solve",
        "broker.sweep",
    ] {
        assert!(
            sweep_stages.contains(stage),
            "cold sweep trace missing {stage}: {sweep_stages:?}"
        );
    }
    server.shutdown();
}

#[test]
fn op4_pull_reconciles_exactly_with_broker_stats() {
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", broker).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    for round in 1..=3u32 {
        let queries: Vec<GuaranteeQuery> = (1..=3)
            .map(|p| query(p, 30.0 * f64::from(round * p)))
            .collect();
        client.query_batch(&queries).unwrap();
    }

    // Stats first, then the op-4 pull: neither endpoint touches the
    // request counters, so with no traffic in between the two reads
    // must agree exactly.
    let stats = client.stats().unwrap();
    let (text, _spans) = client.fetch_metrics().unwrap();
    let samples = parse_exposition(&text);

    let tcp = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "tcp")
        .expect("tcp endpoint served traffic");
    let label = ("endpoint", "tcp");
    assert_eq!(
        sample_value(&samples, "cyclesteal_requests_total", label),
        tcp.requests
    );
    assert_eq!(
        sample_value(&samples, "cyclesteal_queries_total", label),
        tcp.queries
    );
    assert_eq!(
        sample_value(&samples, "cyclesteal_coalesced_total", label),
        tcp.coalesced
    );
    assert_eq!(
        sample_value(&samples, "cyclesteal_request_latency_us_count", label),
        tcp.requests,
        "every request records exactly one latency observation"
    );

    // Per-shard cache gauges sum to the CacheStats totals — same
    // atomics, one relaxed read each.
    for (series, want) in [
        ("cyclesteal_cache_shard_hits", stats.cache.hits),
        ("cyclesteal_cache_shard_misses", stats.cache.misses),
        ("cyclesteal_cache_shard_evictions", stats.cache.evictions),
        (
            "cyclesteal_cache_shard_compressed_entries",
            stats.cache.compressed_entries as u64,
        ),
        (
            "cyclesteal_cache_shard_resident_bytes",
            stats.cache.resident_bytes as u64,
        ),
    ] {
        assert_eq!(sample_sum(&samples, series), want, "series {series}");
    }

    // Per-tenant traffic: the single grid in play accounts for every
    // query the tcp endpoint counted.
    assert_eq!(
        sample_value(
            &samples,
            "cyclesteal_tenant_queries_total",
            ("tenant", "1x8")
        ),
        tcp.queries
    );
    server.shutdown();
}

#[test]
fn tenant_series_reconcile_exactly_across_more_grids_than_the_cap() {
    const PAST_CAP: usize = 5;
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // One batch over MAX_TENANT_SERIES + PAST_CAP cheap grids (Q 4,
    // 12-tick lifespans), two queries a grid, plus a sweep on a grid
    // past the cap: every grid's queries must be counted exactly once,
    // under its own series or under "other".
    let grids = MAX_TENANT_SERIES + PAST_CAP;
    let queries: Vec<GuaranteeQuery> = (0..grids)
        .flat_map(|i| {
            let setup = secs(1.0 + i as f64 / 64.0);
            [1, 2].map(|p| GuaranteeQuery {
                setup,
                ticks_per_setup: 4,
                interrupts: p,
                lifespan: setup * 3.0,
            })
        })
        .collect();
    let answers = client.query_batch(&queries).unwrap();
    assert_eq!(answers.len(), 2 * grids);
    client
        .query_sweep(&SweepQuery {
            setup: secs(1.0 + grids as f64 / 64.0),
            ticks_per_setup: 4,
            interrupts: 1,
            first_tick: 0,
            count: 16,
        })
        .unwrap();

    let stats = client.stats().unwrap();
    let (text, _spans) = client.fetch_metrics().unwrap();
    let samples = parse_exposition(&text);
    let tcp = stats
        .endpoints
        .iter()
        .find(|e| e.endpoint == "tcp")
        .expect("tcp endpoint served traffic");
    assert_eq!(tcp.queries, 2 * grids as u64 + 16);
    assert_eq!(
        sample_sum(&samples, "cyclesteal_tenant_queries_total"),
        tcp.queries,
        "every query lands in exactly one tenant series"
    );
    let tenant_series = samples
        .iter()
        .filter(|s| s.name == "cyclesteal_tenant_queries_total")
        .count();
    assert_eq!(tenant_series, MAX_TENANT_SERIES + 1, "the cap plus other");
    assert_eq!(
        samples
            .iter()
            .find(|s| s.name == "cyclesteal_tenant_series_folded_total")
            .expect("folded counter exported")
            .value,
        PAST_CAP as u64 + 1,
        "the grids past the cap, and the sweep's"
    );
    assert_eq!(
        sample_value(
            &samples,
            "cyclesteal_tenant_queries_total",
            ("tenant", "other")
        ),
        2 * PAST_CAP as u64 + 16
    );
    server.shutdown();
}

#[test]
fn connection_counters_reconcile_after_connections_open_serve_and_close() {
    const CONNECTIONS: u64 = 12;
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
    let registry = broker.obs().registry();
    let accepted = registry
        .lookup_counter("cyclesteal_server_connections_accepted_total", &[])
        .expect("registered before the acceptor starts");
    let open = registry
        .lookup_gauge("cyclesteal_server_connections", &[])
        .expect("registered before the acceptor starts");
    let eof = registry
        .lookup_counter(
            "cyclesteal_server_connections_closed_total",
            &[("reason", "eof")],
        )
        .expect("registered before the acceptor starts");

    // Open all K at once, serve a request on each, then hang up.
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for (k, client) in clients.iter_mut().enumerate() {
        client
            .query_batch(&[query(1 + (k % 3) as u32, 20.0 + k as f64)])
            .unwrap();
    }
    assert_eq!(accepted.get(), CONNECTIONS);
    assert_eq!(open.get(), CONNECTIONS, "all K are open and served");
    drop(clients);

    // Each hang-up is a clean EOF; wait for the threads to count them.
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while eof.get() < CONNECTIONS {
        assert!(
            std::time::Instant::now() < give_up,
            "{} of {CONNECTIONS} closes counted",
            eof.get()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let samples = parse_exposition(&broker.metrics_text());
    let closed = sample_sum(&samples, "cyclesteal_server_connections_closed_total");
    let gauge = samples
        .iter()
        .find(|s| s.name == "cyclesteal_server_connections")
        .expect("connection gauge exported")
        .value;
    assert_eq!(closed, CONNECTIONS, "every close is counted once");
    assert_eq!(
        sample_sum(&samples, "cyclesteal_server_connections_accepted_total") - closed,
        gauge,
        "accepted − closed = open"
    );
    assert_eq!(gauge, 0);
    server.shutdown();
}

#[test]
fn shard_gauges_stay_consistent_under_concurrent_load() {
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let broker = &broker;
            scope.spawn(move || {
                for round in 0..20u32 {
                    let p = 1 + (t + round) % 3;
                    let queries = [query(p, 10.0 + f64::from(round))];
                    broker.query_batch(&queries).unwrap();
                }
            });
        }
    });
    let samples = parse_exposition(&broker.metrics_text());
    let stats = broker.stats();
    assert_eq!(
        sample_sum(&samples, "cyclesteal_cache_shard_hits"),
        stats.cache.hits
    );
    assert_eq!(
        sample_sum(&samples, "cyclesteal_cache_shard_misses"),
        stats.cache.misses
    );
    assert_eq!(
        sample_value(
            &samples,
            "cyclesteal_requests_total",
            ("endpoint", "inproc")
        ),
        160,
        "8 threads x 20 rounds, one request each"
    );
}

#[test]
fn profiling_and_tracing_leave_answers_bit_identical() {
    let plain = Broker::new(BrokerConfig::default()).unwrap();
    // The instrumented broker runs under a logical clock (so this test
    // is deterministic) with phase profiling enabled and every request
    // traced.
    let hub = ObsHub::with_clock(Arc::new(LogicalClock::with_step(100)));
    let instrumented = Broker::with_obs(BrokerConfig::default(), hub).unwrap();
    instrumented.enable_profiling();

    let queries: Vec<GuaranteeQuery> = (1..=3)
        .flat_map(|p| [query(p, 25.0 * f64::from(p)), query(p, 90.0)])
        .collect();
    let want = plain.query_batch(&queries).unwrap();
    let got = instrumented
        .serve(&Request {
            trace_id: 0x0B5E_7E57,
            ..Request::batch(&queries)
        })
        .unwrap()
        .into_answers()
        .unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.value.get().to_bits(), w.value.get().to_bits());
        assert_eq!(g.value_ticks, w.value_ticks);
    }

    // The cold solves recorded phase timings into the registry. The
    // cache's default compressed path is event-driven (no tick walk),
    // so `event_loop` is the phase guaranteed to fire; every phase
    // series exists either way (registered eagerly), and only observed
    // phases count.
    let samples = parse_exposition(&instrumented.metrics_text());
    assert!(
        sample_value(
            &samples,
            "cyclesteal_solve_phase_ns_count",
            ("phase", "event_loop")
        ) >= 1,
        "cold event-driven solves time the event-loop phase"
    );
    assert!(
        sample_sum(&samples, "cyclesteal_solve_phase_ns_sum") > 0,
        "the logical clock ticked between phases"
    );
    // ...and the logical clock makes the span timings byte-stable:
    // every span is a whole number of 100 ns steps.
    let spans = instrumented.obs().journal().snapshot();
    assert!(!spans.is_empty());
    for span in &spans {
        assert_eq!(span.start_ns % 100, 0);
        assert_eq!(span.end_ns % 100, 0);
    }
}
