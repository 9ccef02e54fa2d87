//! Chaos suite: the serving layer's failure contract under seeded fault
//! injection.
//!
//! The invariant, checked across ≥ 64 seeded [`FaultPlan`]s (connection
//! drops, read delays, corrupted wire bytes, panicking solves, failing
//! snapshot writes):
//!
//! > Every query returns either the **bit-identical answer** (vs. the
//! > direct `TableCache` path) or a **typed retryable / transient
//! > transport error** — never a hang, never an escaped panic, never a
//! > wrong value. Once the faults clear, a retrying client converges
//! > to exact answers on the same connection object.
//!
//! Fault plans are process-global, so every test here serializes on one
//! lock; integration-test binaries run apart from the unit-test binary,
//! so nothing outside this file ever sees an armed plan.

// The sweep's per-seed progress lines are this suite's output contract
// for humans bisecting a failing seed.
#![allow(clippy::print_stdout)]

use cyclesteal_core::time::{secs, Time};
use cyclesteal_dp::{CompressedTable, SolveConfig, TableCache};
use cyclesteal_serve::{
    wire, Broker, BrokerConfig, Client, ClientConfig, ErrorCode, FaultPlan, GuaranteeAnswer,
    GuaranteeQuery, Request, RetryPolicy, ServeError, Server, ServerConfig, SweepQuery,
};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Serializes tests in this binary: the fault registry is process-wide.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Silences the default panic hook while injected solve panics fire, so
/// the (contained) panics don't spam the test log. Restores on drop.
struct QuietPanics;

impl QuietPanics {
    fn install() -> QuietPanics {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

/// `request` with its deadline `budget` from now; the client re-arms
/// that budget on every retry attempt.
fn within(request: Request<'_>, budget: Duration) -> Request<'_> {
    Request {
        deadline: Some(Instant::now() + budget),
        ..request
    }
}

/// Sends a batch under a `budget` deadline and returns its answers.
fn batch_within(
    client: &mut Client,
    queries: &[GuaranteeQuery],
    budget: Duration,
) -> io::Result<Vec<GuaranteeAnswer>> {
    Ok(client
        .send(&within(Request::batch(queries), budget))?
        .into_answers()?)
}

fn q(setup: f64, ticks: u32, p: u32, lifespan: f64) -> GuaranteeQuery {
    GuaranteeQuery {
        setup: secs(setup),
        ticks_per_setup: ticks,
        interrupts: p,
        lifespan: secs(lifespan),
    }
}

/// Small mixed workload (two grids, three budgets): cheap enough that
/// 64 plans × (faulted + converged) passes stay fast in debug builds.
fn workload() -> Vec<GuaranteeQuery> {
    vec![
        q(1.0, 8, 1, 40.0),
        q(1.0, 8, 2, 120.0),
        q(1.0, 8, 3, 300.0),
        q(2.0, 4, 1, 60.0),
        q(2.0, 4, 2, 0.0),
        q(1.5, 8, 2, 200.0),
    ]
}

/// Ground truth from the direct `TableCache` path — what every
/// successful answer must match bit for bit.
fn reference_answers(queries: &[GuaranteeQuery]) -> Vec<GuaranteeAnswer> {
    let cache = TableCache::new();
    let configs: Vec<SolveConfig> = queries
        .iter()
        .map(|query| SolveConfig {
            setup: query.setup,
            ticks_per_setup: query.ticks_per_setup,
            max_lifespan: Time::max(query.lifespan, secs(1.0)),
            max_interrupts: query.interrupts,
        })
        .collect();
    let tables = cache.solve_many(&configs);
    queries
        .iter()
        .zip(&tables)
        .map(|(query, table)| {
            let ticks = table
                .grid()
                .to_ticks(query.lifespan)
                .clamp(0, table.max_ticks());
            GuaranteeAnswer {
                value: table.value(query.interrupts, query.lifespan),
                value_ticks: table.value_ticks(query.interrupts, ticks),
            }
        })
        .collect()
}

fn assert_bit_identical(got: &GuaranteeAnswer, want: &GuaranteeAnswer, ctx: &str) {
    assert_eq!(
        got.value.get().to_bits(),
        want.value.get().to_bits(),
        "{ctx}: value bits differ ({} vs {})",
        got.value,
        want.value
    );
    assert_eq!(got.value_ticks, want.value_ticks, "{ctx}: ticks differ");
}

/// The only failures the contract admits: a typed retryable server
/// error, a transient transport error, or provable wire corruption.
fn acceptable_failure(err: &io::Error) -> bool {
    if let Some(se) = ServeError::from_io(err) {
        return se.retryable;
    }
    if wire::is_corrupt_frame(err) {
        return true;
    }
    matches!(
        err.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cyclesteal-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Client options tuned for a hostile server: short socket timeouts so
/// a stalled or mis-framed stream surfaces as `TimedOut` instead of a
/// hang, and quick seeded backoff.
fn chaos_client(addr: std::net::SocketAddr, seed: u64, max_retries: u32) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            retry: RetryPolicy {
                max_retries,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(10),
                seed,
            },
        },
    )
    .expect("connect (accept path is never faulted)")
}

fn chaos_server(broker: Arc<Broker>) -> Server {
    Server::start_with(
        "127.0.0.1:0",
        broker,
        ServerConfig {
            read_timeout: Some(Duration::from_secs(2)),
            write_timeout: Some(Duration::from_secs(2)),
        },
    )
    .expect("bind ephemeral")
}

/// The headline sweep: 64 seeded plans over a live server + retrying
/// client, with a tight memory budget (every batch re-solves, so the
/// panic and store-write points actually fire) and snapshot-on-evict
/// wired so store faults are in play too.
#[test]
fn every_query_answers_bit_identically_or_fails_retryably_across_64_plans() {
    let _serial = chaos_lock();
    let _quiet = QuietPanics::install();
    let queries = workload();
    let want = reference_answers(&queries);
    let dir = scratch_dir("sweep");
    let mut acceptable = 0u32;
    let mut answered = 0u32;

    for seed in 0..64u64 {
        let broker = Arc::new(
            Broker::new(BrokerConfig {
                threads: 2,
                memory_budget: Some(1), // evict always → cold solves + snapshot writes
                snapshot_dir: Some(dir.clone()),
                max_inflight: 0,
                ..BrokerConfig::default()
            })
            .unwrap(),
        );
        let server = chaos_server(broker.clone());
        let guard = FaultPlan::from_seed(seed).install();
        let mut client = chaos_client(server.local_addr(), seed, 5);

        for (i, (query, expect)) in queries.iter().zip(&want).enumerate() {
            let budget = Duration::from_millis(400);
            match batch_within(&mut client, std::slice::from_ref(query), budget) {
                Ok(answers) => {
                    assert_eq!(answers.len(), 1, "seed {seed} query {i}: answer count");
                    assert_bit_identical(&answers[0], expect, &format!("seed {seed} query {i}"));
                    answered += 1;
                }
                Err(err) => {
                    assert!(
                        acceptable_failure(&err),
                        "seed {seed} query {i}: non-retryable failure escaped: \
                         {err} (kind {:?})",
                        err.kind()
                    );
                    acceptable += 1;
                }
            }
        }

        // Faults cleared: the same client object must converge to exact
        // answers (reconnecting if its stream was left mid-frame).
        drop(guard);
        for (i, (query, expect)) in queries.iter().zip(&want).enumerate() {
            let answers = client
                .query_batch(std::slice::from_ref(query))
                .unwrap_or_else(|e| panic!("seed {seed} query {i}: no convergence: {e}"));
            assert_bit_identical(&answers[0], expect, &format!("seed {seed} post query {i}"));
        }
        server.shutdown();
    }

    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        answered > 0,
        "the sweep never succeeded once — workload broken?"
    );
    println!(
        "chaos sweep: {answered} exact answers, {acceptable} acceptable failures \
         across 64 plans"
    );
}

/// The server at 64 **concurrent** clients — 64 connection threads,
/// so an injected read delay stalls its own request, never the fleet —
/// under seeded fault plans, mixing op-1 batches with op-3 streaming
/// sweeps: every query returns the bit-identical answer or an acceptable
/// typed/transient failure — no hangs, no escaped panics — and once
/// the plan clears, a fresh client converges to exact answers.
#[test]
fn sixty_four_concurrent_clients_survive_fault_plans_on_the_readiness_loop() {
    let _serial = chaos_lock();
    let _quiet = QuietPanics::install();
    const CLIENTS: usize = 64;
    let queries = workload();
    let want = reference_answers(&queries);
    // Sweep ground truth straight from the solver: one table covers
    // every per-client window below.
    let sweep_table = CompressedTable::solve(secs(1.0), 8, secs(20.0), 3);

    for seed in [3u64, 29] {
        let broker = Arc::new(
            Broker::new(BrokerConfig {
                threads: 2,
                ..BrokerConfig::default()
            })
            .unwrap(),
        );
        let server = Server::start_with(
            "127.0.0.1:0",
            broker.clone(),
            ServerConfig {
                read_timeout: Some(Duration::from_secs(2)),
                write_timeout: Some(Duration::from_secs(2)),
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();
        let guard = FaultPlan::from_seed(seed).install();
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let exact = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        // Diagnostics collected instead of asserted in-thread: the quiet
        // panic hook would swallow a worker's assert message.
        let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let barrier = barrier.clone();
                let (queries, want, sweep_table) = (&queries, &want, &sweep_table);
                let (exact, failed, violations) = (&exact, &failed, &violations);
                scope.spawn(move || {
                    let mut client = chaos_client(addr, seed * 1000 + c as u64, 3);
                    let budget = Duration::from_millis(400);
                    barrier.wait();
                    for (i, (query, expect)) in queries.iter().zip(want.iter()).enumerate() {
                        match batch_within(&mut client, std::slice::from_ref(query), budget) {
                            Ok(answers)
                                if answers.len() == 1
                                    && answers[0].value.get().to_bits()
                                        == expect.value.get().to_bits()
                                    && answers[0].value_ticks == expect.value_ticks =>
                            {
                                exact.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(answers) => violations
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(format!(
                                    "seed {seed} client {c} query {i}: wrong answer {answers:?}"
                                )),
                            Err(err) if acceptable_failure(&err) => {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(err) => {
                                violations
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(format!(
                                        "seed {seed} client {c} query {i}: unacceptable failure \
                                     {err} (kind {:?})",
                                        err.kind()
                                    ))
                            }
                        }
                    }
                    // One streaming sweep per client, windows staggered
                    // across clients.
                    let sweep = SweepQuery {
                        setup: secs(1.0),
                        ticks_per_setup: 8,
                        interrupts: 1 + (c as u32) % 3,
                        first_tick: (c as i64) % 40,
                        count: 64,
                    };
                    let expanded = client
                        .send(&within(Request::sweep(sweep), budget))
                        .map(|r| {
                            let runs = r.into_runs().expect("a sweep is answered with runs");
                            cyclesteal_dp::expand_value_runs(&runs)
                        });
                    match expanded {
                        Ok(values) => {
                            let ok = values.len() == 64
                                && values.iter().enumerate().all(|(j, &v)| {
                                    v == sweep_table
                                        .value_ticks(sweep.interrupts, sweep.first_tick + j as i64)
                                });
                            if ok {
                                exact.fetch_add(1, Ordering::Relaxed);
                            } else {
                                violations
                                    .lock()
                                    .unwrap_or_else(|e| e.into_inner())
                                    .push(format!("seed {seed} client {c}: wrong sweep expansion"));
                            }
                        }
                        Err(err) if acceptable_failure(&err) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(err) => {
                            violations
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(format!(
                                    "seed {seed} client {c}: unacceptable sweep failure {err}"
                                ))
                        }
                    }
                });
            }
        });

        let violations = violations.into_inner().unwrap_or_else(|e| e.into_inner());
        assert!(violations.is_empty(), "{}", violations.join("\n"));
        let (exact, failed) = (
            exact.load(Ordering::Relaxed),
            failed.load(Ordering::Relaxed),
        );
        assert_eq!(
            exact + failed,
            CLIENTS * (queries.len() + 1),
            "seed {seed}: an outcome went missing (hang?)"
        );

        // Faults cleared: a fresh client converges on the same server.
        drop(guard);
        let mut client = chaos_client(addr, seed, 5);
        for (i, (query, expect)) in queries.iter().zip(&want).enumerate() {
            let answers = client
                .query_batch(std::slice::from_ref(query))
                .unwrap_or_else(|e| panic!("seed {seed} post query {i}: no convergence: {e}"));
            assert_bit_identical(&answers[0], expect, &format!("seed {seed} post query {i}"));
        }
        server.shutdown();
        println!("chaos 64c seed {seed}: {exact} exact, {failed} acceptable failures");
    }
}

/// A plan that panics **every** solve: queries surface as typed
/// retryable `Internal` errors, the panic counter advances, nothing
/// escapes, and after disarming the same broker serves exact answers.
#[test]
fn always_panicking_solves_are_contained_as_typed_internal_errors() {
    let _serial = chaos_lock();
    let _quiet = QuietPanics::install();
    let broker = Broker::new(BrokerConfig::default()).unwrap();
    let plan = FaultPlan {
        panic_solve_pm: 1000,
        ..FaultPlan::quiet(7)
    };
    let guard = plan.install();

    let query = q(1.0, 8, 2, 80.0);
    let se = broker.query_batch(&[query]).unwrap_err();
    assert_eq!(se.code, ErrorCode::Internal);
    assert!(se.retryable, "contained panics must invite a retry");
    assert!(broker.stats().resilience.solve_panics >= 1);

    // Concurrent hammering on one cold key: every thread gets a typed
    // error (possibly after re-leading a poisoned flight) — no panic
    // ever crosses query_batch.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let broker = &broker;
            scope.spawn(move || {
                let se = broker.query_batch(&[q(1.0, 8, 3, 160.0)]).unwrap_err();
                assert!(se.retryable, "typed retryable under contention: {se}");
            });
        }
    });
    let stats = broker.stats().resilience;
    assert!(
        stats.solve_panics >= 2,
        "each failed solve counted: {stats:?}"
    );

    drop(guard);
    let want = reference_answers(&[query]);
    let got = broker.query_batch(&[query]).expect("heals after disarm");
    assert_bit_identical(&got[0], &want[0], "post-disarm");
}

/// A plan that drops **every** connection before responding: the retry
/// budget exhausts into a transient transport error (no hang, no lie),
/// and the very same client converges once the plan is dropped.
#[test]
fn always_dropped_connections_exhaust_into_a_transient_error_then_converge() {
    let _serial = chaos_lock();
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = chaos_server(broker.clone());
    let plan = FaultPlan {
        drop_connection_pm: 1000,
        ..FaultPlan::quiet(11)
    };
    let guard = plan.install();

    let query = q(1.0, 8, 1, 50.0);
    let mut client = chaos_client(server.local_addr(), 11, 2);
    let err = client.query_batch(&[query]).unwrap_err();
    assert!(
        ServeError::from_io(&err).is_none(),
        "a dropped connection is transport-level, not a typed frame"
    );
    assert!(acceptable_failure(&err), "must classify transient: {err}");

    drop(guard);
    let want = reference_answers(&[query]);
    let got = client.query_batch(&[query]).expect("reconnect + converge");
    assert_bit_identical(&got[0], &want[0], "post-drop convergence");
    server.shutdown();
}

/// A plan that corrupts a byte of **every** response frame: the client
/// either proves corruption via the frame CRC or times out on a
/// mis-framed stream — it never accepts a damaged answer.
#[test]
fn always_corrupted_frames_are_detected_never_believed() {
    let _serial = chaos_lock();
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = chaos_server(broker.clone());
    let plan = FaultPlan {
        corrupt_frame_pm: 1000,
        ..FaultPlan::quiet(13)
    };
    let guard = plan.install();

    let query = q(1.0, 8, 2, 70.0);
    let want = reference_answers(&[query]);
    let mut client = chaos_client(server.local_addr(), 13, 1);
    match client.query_batch(&[query]) {
        // Only possible if the flipped byte landed outside the payload
        // bytes the answer decodes from — and then it must be exact.
        Ok(answers) => assert_bit_identical(&answers[0], &want[0], "lucky corrupt"),
        Err(err) => assert!(
            wire::is_corrupt_frame(&err) || acceptable_failure(&err),
            "corruption must be detected, got: {err} (kind {:?})",
            err.kind()
        ),
    }

    drop(guard);
    let got = client.query_batch(&[query]).expect("clean frames again");
    assert_bit_identical(&got[0], &want[0], "post-corruption convergence");
    server.shutdown();
}

/// `max_inflight = 1` with the single permit held: every TCP request
/// sheds with the typed retryable `Overloaded` (nothing queues), and
/// once the permit frees, eight concurrent retrying clients all
/// converge to the exact answer through the shed/retry path.
#[test]
fn a_full_admission_budget_sheds_with_typed_overloaded_errors() {
    let _serial = chaos_lock();
    let broker = Arc::new(
        Broker::new(BrokerConfig {
            threads: 2,
            memory_budget: None,
            snapshot_dir: None,
            max_inflight: 1,
            ..BrokerConfig::default()
        })
        .unwrap(),
    );
    let server = chaos_server(broker.clone());
    let addr = server.local_addr();
    let query = q(1.0, 16, 4, 30_000.0);
    let want = reference_answers(&[query]);

    // Hold the only permit: the budget is deterministically full, so a
    // no-retry client must observe the shed — instantly, not queued.
    let permit = broker.hold_admission().expect("fresh broker, budget 1");
    let err = chaos_client(addr, 0, 0).query_batch(&[query]).unwrap_err();
    let se = ServeError::from_io(&err).unwrap_or_else(|| panic!("untyped overload error: {err}"));
    assert_eq!(se.code, ErrorCode::Overloaded);
    assert!(se.retryable);
    assert!(broker.stats().resilience.shed >= 1, "the shed is counted");
    assert!(
        broker.hold_admission().is_none(),
        "shedding must never consume budget"
    );
    drop(permit);

    // Warm the grid once so contended batches hold the permit for a
    // lookup, not a cold solve — the contention below then exercises
    // pure shed/retry races instead of stacking retries behind one
    // long solve.
    let answers = chaos_client(addr, 0, 3).query_batch(&[query]).unwrap();
    assert_bit_identical(&answers[0], &want[0], "warming batch");

    // Budget free again: eight barrier-synced retrying clients contend
    // for one permit — shed batches retry until admitted, so every
    // client ends with the bit-identical answer.
    const CLIENTS: usize = 8;
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let shed_before = broker.stats().resilience.shed;
    let ok = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let barrier = barrier.clone();
            let (ok, want) = (&ok, &want);
            scope.spawn(move || {
                let mut client = chaos_client(addr, 0, 10);
                barrier.wait();
                let answers = client
                    .query_batch(&[query])
                    .expect("Overloaded is retryable — contention must converge");
                assert_bit_identical(&answers[0], &want[0], "contended batch");
                ok.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(ok.load(Ordering::Relaxed), CLIENTS);
    let _ = shed_before; // further sheds during contention are expected, not required
    server.shutdown();
}

/// Deadlines over the wire: an already-expired budget rejects typed and
/// retryable *before* any solve; without a deadline the solve lands in
/// cache; and the retried deadline then succeeds from cache — the
/// convergence story `DeadlineExceeded` promises.
#[test]
fn wire_deadlines_reject_early_then_converge_from_cache() {
    let _serial = chaos_lock();
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = chaos_server(broker.clone());
    let mut client = chaos_client(server.local_addr(), 0, 0);

    let query = q(1.0, 8, 2, 90.0);
    let err = batch_within(&mut client, &[query], Duration::from_micros(1)).unwrap_err();
    let se = ServeError::from_io(&err).expect("typed deadline frame");
    assert_eq!(se.code, ErrorCode::DeadlineExceeded);
    assert!(se.retryable);
    let rejected = broker.stats().resilience.deadline_rejects;
    assert!(rejected >= 1, "reject counted");
    assert_eq!(broker.stats().cache.misses, 0, "rejected before any solve");

    // Unbounded attempt populates the cache…
    let want = reference_answers(&[query]);
    let got = client.query_batch(&[query]).unwrap();
    assert_bit_identical(&got[0], &want[0], "unbounded attempt");
    // …after which even a tight budget is met from cache.
    let got = batch_within(&mut client, &[query], Duration::from_millis(250))
        .expect("cache hit inside the budget");
    assert_bit_identical(&got[0], &want[0], "budgeted cache hit");
    server.shutdown();
}

/// A wire budget starts when the server parses the frame, not when a
/// handler gets round to decoding it: a 50 ms injected read delay spends
/// a 10 ms budget before the broker ever sees the batch, so the answer
/// is the typed `DeadlineExceeded`. Without a budget the same delayed
/// query is answered exactly.
#[test]
fn wire_deadlines_count_time_spent_before_the_handler() {
    let _serial = chaos_lock();
    let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
    let server = chaos_server(broker.clone());
    let mut client = chaos_client(server.local_addr(), 0, 0);
    let guard = FaultPlan {
        delay_read_pm: 1000,
        read_delay: Duration::from_millis(50),
        ..FaultPlan::quiet(19)
    }
    .install();

    let query = q(1.0, 8, 2, 45.0);
    let err = batch_within(&mut client, &[query], Duration::from_millis(10)).unwrap_err();
    let se = ServeError::from_io(&err).expect("typed deadline frame");
    assert_eq!(se.code, ErrorCode::DeadlineExceeded);
    assert!(se.retryable);
    assert_eq!(broker.stats().cache.misses, 0, "rejected before any solve");

    let got = client.query_batch(&[query]).expect("no budget, no reject");
    assert_bit_identical(&got[0], &reference_answers(&[query])[0], "delayed");
    drop(guard);
    server.shutdown();
}

/// Failing snapshot writes: answers stay exact, the failure is counted
/// (never propagated), and once the plan clears snapshots land on disk.
#[test]
fn failing_snapshot_writes_never_touch_answers() {
    let _serial = chaos_lock();
    let dir = scratch_dir("store");
    let broker = Broker::new(BrokerConfig {
        threads: 2,
        memory_budget: Some(1), // every solve evicts → snapshot write
        snapshot_dir: Some(dir.clone()),
        max_inflight: 0,
        ..BrokerConfig::default()
    })
    .unwrap();
    let plan = FaultPlan {
        fail_store_write_pm: 1000,
        ..FaultPlan::quiet(17)
    };
    let guard = plan.install();

    let queries = [q(1.0, 8, 2, 64.0), q(2.0, 4, 2, 64.0)];
    let want = reference_answers(&queries);
    let got = broker
        .query_batch(&queries)
        .expect("store faults stay behind the cache");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_bit_identical(g, w, &format!("under store faults, query {i}"));
    }
    let failures = broker.stats().resilience.snapshot_failures;
    assert!(failures >= 2, "each failed snapshot counted: {failures}");
    assert!(
        std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0) == 0,
        "no snapshot (and no temp litter) lands while writes fail"
    );

    drop(guard);
    let got = broker
        .query_batch(&queries)
        .expect("re-solve after eviction");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_bit_identical(g, w, &format!("post-disarm, query {i}"));
    }
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|ext| ext == "cst")
        })
        .count();
    assert!(snapshots >= 1, "healed writes reach the snapshot dir");
    let _ = std::fs::remove_dir_all(&dir);
}
