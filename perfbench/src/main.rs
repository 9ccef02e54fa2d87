//! End-to-end and per-layer benchmark of the guarantee service: a real
//! TCP server over the broker, driven through the client library.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer each metric belongs to. In short: every workload boots the same
//! service (a broker and TCP server whose cache is loaded with a corpus
//! of tenant grids over the wire), five times, and `setup_s` is the
//! median boot; the last instance then serves `warm`, `cold` or `sim`
//! traffic. With `--trace 0` the end-to-end metrics are printed, with
//! `--trace 1` the per-layer ones (solver phase profiling on). The last
//! line of stdout is the JSON result.

mod drive;
mod layers;
mod plan;

use cyclesteal_obs::parse_exposition;
use cyclesteal_serve::{
    wire, Broker, BrokerConfig, Client, GuaranteeAnswer, GuaranteeQuery, Server,
};
use drive::{drive, Traffic};
use layers::{per_layer, percentile, Metric, Pulls};
use plan::{expected, same, Corpus};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boots per run; the median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Cache budget: the corpus fits with room to spare, while `cold`
/// traffic outgrows it within seconds and then evicts steadily.
const MEMORY_BUDGET: usize = 8 << 20;
/// The window is cut into slices this long; each latency percentile is
/// taken per slice and the median over slices reported, so one noisy
/// moment on a shared machine moves it little. Shorter slices give more
/// of them to take the median over, but fewer samples each: at 0.5 s the
/// slowest workload still has about ten samples beyond its p90 in every
/// slice.
const SLICE: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug)]
enum Workload {
    Warm,
    Cold,
    Sim,
}

/// How a workload offers its traffic.
enum Load {
    /// Connections that each send the next request on an answer.
    Closed { clients: usize },
    /// Requests due at Poisson instants, `rate` per second, sent over
    /// `senders` connections.
    Open { senders: usize, rate: f64 },
}

impl Workload {
    fn load(self) -> Load {
        match self {
            Workload::Warm => Load::Closed { clients: 4 },
            // About a fifth of the one solve lane a two-core machine
            // gets, so requests rarely queue for it.
            Workload::Cold => Load::Open {
                senders: 8,
                rate: 200.0,
            },
            // A light load: an open loop near capacity turns every
            // moment the host steals the CPU into a queue, and the tail
            // would measure the host rather than the service.
            Workload::Sim => Load::Open {
                senders: 8,
                rate: 600.0,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "warm" => Workload::Warm,
                    "cold" => Workload::Cold,
                    "sim" => Workload::Sim,
                    other => return Err(format!("unknown workload {other}")),
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One running service instance and the connections that drive it.
struct Service {
    broker: Arc<Broker>,
    server: Server,
    clients: Vec<Client>,
    /// Loads the corpus and pulls op-4 snapshots.
    control: Client,
}

impl Service {
    /// Starts a broker and server, loads the corpus over the wire and
    /// opens `connections` client connections.
    fn boot(corpus: &Corpus, connections: usize, profile: bool) -> io::Result<Service> {
        let broker = Broker::new(BrokerConfig {
            memory_budget: Some(MEMORY_BUDGET),
            ..BrokerConfig::default()
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
        let broker = Arc::new(broker);
        if profile {
            broker.enable_profiling();
        }
        let server = Server::start("127.0.0.1:0", broker.clone())?;
        let mut control = Client::connect(server.local_addr())?;
        for batch in corpus.warm_up_requests() {
            control.query_batch(&batch)?;
        }
        let clients = (0..connections)
            .map(|_| Client::connect(server.local_addr()))
            .collect::<io::Result<Vec<Client>>>()?;
        Ok(Service {
            broker,
            server,
            clients,
            control,
        })
    }

    fn shutdown(self) {
        drop(self.clients);
        drop(self.control);
        self.server.shutdown();
    }
}

/// Frame bytes on the wire per query, both directions, for one request.
fn wire_bytes_per_query(queries: &[GuaranteeQuery], answers: &[GuaranteeAnswer]) -> f64 {
    let frame = |payload: Vec<u8>| 8 + payload.len();
    let bytes = frame(wire::encode_query_batch_traced(
        queries,
        wire::NO_DEADLINE_US,
        1,
    )) + frame(wire::encode_answers(answers));
    bytes as f64 / queries.len().max(1) as f64
}

/// Median over slices of the p50 latency (ns) and of the p90 latency
/// (ns), plus the queries answered per second: those answered before
/// the window closed, so a service that falls behind an open-loop
/// schedule shows it.
fn end_to_end(answered: &[(u64, u64, u64)], window: Duration) -> (f64, f64, f64) {
    let window_ns = window.as_nanos() as u64;
    let slices = (window.as_nanos() / SLICE.as_nanos()).max(1) as usize;
    let slice_ns = window_ns / slices as u64;
    let mut latencies = vec![Vec::new(); slices];
    let mut queries = 0;
    for &(at, latency, n) in answered {
        latencies[((at / slice_ns) as usize).min(slices - 1)].push(latency);
        if at + latency < window_ns {
            queries += n;
        }
    }
    latencies.retain(|l| !l.is_empty());
    let mut p50: Vec<u64> = latencies.iter_mut().map(|l| percentile(l, 0.50)).collect();
    let mut p90: Vec<u64> = latencies.iter_mut().map(|l| percentile(l, 0.90)).collect();
    (
        percentile(&mut p50, 0.5) as f64,
        percentile(&mut p90, 0.5) as f64,
        queries as f64 / window.as_secs_f64(),
    )
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> io::Result<String> {
    let seed = args.seed;
    let corpus = Corpus::new(seed);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let warmup = Duration::from_secs_f64((args.seconds * 0.1).min(1.0));
    let window = Duration::from_secs_f64(args.seconds);

    // Inputs and their reference answers, before anything is timed.
    let refs = match args.workload {
        Workload::Cold => Vec::new(),
        Workload::Warm | Workload::Sim => corpus.references(threads),
    };
    let (requests, violations) = match args.workload {
        Workload::Warm => (plan::warm_requests(&corpus, &refs, seed), 0),
        Workload::Cold => (Vec::new(), 0),
        Workload::Sim => plan::sim_requests(&corpus, &refs, seed),
    };
    let traffic = match args.workload {
        Workload::Cold => Traffic::Cold { seed },
        Workload::Warm | Workload::Sim => Traffic::Known(&requests),
    };
    let (connections, arrivals) = match args.workload.load() {
        Load::Closed { clients } => (clients, None),
        Load::Open { senders, rate } => (
            senders,
            Some(plan::poisson_arrivals(
                rate,
                (warmup + window).as_secs_f64(),
                seed,
            )),
        ),
    };

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut service = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = service.take() {
            Service::shutdown(old);
        }
        let started = Instant::now();
        service = Some(Service::boot(&corpus, connections, args.trace)?);
        setups.push(started.elapsed().as_nanos() as u64);
    }
    let mut svc = service.expect("booted at least once");

    let before = if args.trace {
        Some(svc.control.fetch_metrics()?)
    } else {
        None
    };
    let outcome = drive(
        &mut svc.clients,
        traffic,
        warmup,
        window,
        arrivals.as_deref(),
    );
    let after = if args.trace {
        Some(svc.control.fetch_metrics()?)
    } else {
        None
    };
    let tables = svc.broker.cache().compressed_tables();
    let events_per_table =
        tables.iter().map(|t| t.events()).sum::<u64>() as f64 / tables.len().max(1) as f64;
    svc.shutdown();

    // Cold answers are checked after the window, against the reference
    // build of each sampled grid.
    let cold_wrong = outcome
        .cold_checks
        .iter()
        .filter(|check| {
            let table = check.grid.reference();
            check
                .queries
                .iter()
                .zip(&check.answers)
                .any(|(q, got)| !same(got, &expected(&table, q)))
        })
        .count();
    let correct = outcome.wrong == 0 && cold_wrong == 0 && violations == 0;
    eprintln!(
        "perfbench {:?} seed {seed}: {} requests, {} failed, {} wrong, {cold_wrong} of {} \
         cold checks wrong, {violations} sim episodes below their guarantee",
        args.workload,
        outcome.attempted,
        outcome.failed,
        outcome.wrong,
        outcome.cold_checks.len()
    );

    let metrics = if let (Some(before), Some(after)) = (before, after) {
        let sample = match outcome.cold_checks.first() {
            Some(check) => Some((&check.queries, &check.answers)),
            None => requests.first().map(|r| (&r.queries, &r.expected)),
        };
        let wire_bytes = sample.map_or(0.0, |(q, a)| wire_bytes_per_query(q, a));
        let before = parse_exposition(&before.0);
        let (after, spans) = (parse_exposition(&after.0), after.1);
        per_layer(
            &Pulls {
                before: &before,
                after: &after,
                spans: &spans,
            },
            &outcome.traces,
            &[
                ("late_sends", outcome.late_sends as f64, "count"),
                ("wire_bytes_per_query", wire_bytes, "bytes"),
                ("solver_events_per_table", events_per_table, "count"),
            ],
        )
    } else {
        let (p50, p90, qps) = end_to_end(&outcome.answered, window);
        vec![
            ("latency_p50_ms", p50 / 1e6, "ms"),
            ("latency_p90_ms", p90 / 1e6, "ms"),
            ("queries_per_s", qps, "1/s"),
            ("setup_s", percentile(&mut setups, 0.5) as f64 / 1e9, "s"),
        ]
    };
    Ok(json(correct, outcome.attempted, outcome.failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload warm|cold|sim --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
