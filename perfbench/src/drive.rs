//! The load generator, closed loop (each connection sends its next request
//! when the previous answer arrives) or open loop (requests are due at
//! seeded Poisson instants whether or not the service keeps up, and each
//! is timed from when it was due).
//!
//! Requests are numbered `0, 1, 2, …` in the order they are taken;
//! request `n` carries trace id `n + 1`, so its server-side spans can be
//! joined with the round trip the client measured.

use crate::plan::{cold_grid, cold_queries, same, GridSpec, Request};
use cyclesteal_serve::{Client, GuaranteeAnswer, GuaranteeQuery};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// An open-loop send that starts later than this behind its due time
/// counts as late: the generator, not the service, delayed it.
const LATE: Duration = Duration::from_millis(1);

/// Every n-th cold request is kept for checking ...
const COLD_CHECK_EVERY: u64 = 16;
/// ... up to this many per run.
const COLD_CHECKS: usize = 64;

/// What the load generator sends.
#[derive(Clone, Copy)]
pub enum Traffic<'a> {
    /// Request `n` is `pool[n % pool.len()]`, whose answers are known.
    Known(&'a [Request]),
    /// Request `n` asks about the fresh grid [`cold_grid`]`(seed, n)`;
    /// a sample is checked after the run.
    Cold { seed: u64 },
}

/// A cold request kept for checking against a reference solve.
pub struct ColdCheck {
    pub grid: GridSpec,
    pub queries: Vec<GuaranteeQuery>,
    pub answers: Vec<GuaranteeAnswer>,
}

/// What one run of the load generator saw inside its measurement window.
#[derive(Default)]
pub struct Outcome {
    /// `(start, latency, queries)` of every answered request: start in
    /// nanoseconds since the window opened, latency in nanoseconds.
    pub answered: Vec<(u64, u64, u64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Requests with an answer that differs from the reference.
    pub wrong: u64,
    /// Open-loop sends that started more than [`LATE`] after due.
    pub late_sends: u64,
    /// `(trace id, round trip ns)` of every answered request.
    pub traces: Vec<(u64, u64)>,
    /// Cold requests to check after the run.
    pub cold_checks: Vec<ColdCheck>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.answered.extend(other.answered);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.late_sends += other.late_sends;
        self.traces.extend(other.traces);
        self.cold_checks.extend(other.cold_checks);
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The measurement window: requests due inside it are recorded.
#[derive(Clone, Copy)]
struct Window {
    opens: Instant,
    closes: Instant,
}

/// Sends request `n` of `traffic`, due at `due`, and records it into
/// `out` when `due` falls inside the window.
fn send(
    client: &mut Client,
    traffic: Traffic<'_>,
    n: u64,
    due: Instant,
    window: Window,
    out: &mut Outcome,
) {
    let id = n + 1;
    let (queries, expected, fresh): (Cow<'_, [GuaranteeQuery]>, _, _) = match traffic {
        Traffic::Known(pool) => {
            let req = &pool[(n % pool.len() as u64) as usize];
            (Cow::Borrowed(&req.queries), Some(&req.expected), None)
        }
        Traffic::Cold { seed } => {
            let grid = cold_grid(seed, n);
            (Cow::Owned(cold_queries(&grid, seed)), None, Some(grid))
        }
    };
    let sent = Instant::now();
    let result = client.query_batch_traced(&queries, None, id);
    let done = Instant::now();
    if due < window.opens || due >= window.closes {
        return;
    }
    out.attempted += 1;
    if sent.duration_since(due) > LATE {
        out.late_sends += 1;
    }
    let answers = match result {
        Ok(answers) => answers,
        Err(e) => {
            eprintln!("perfbench: request {n} failed: {e}");
            out.failed += 1;
            return;
        }
    };
    out.answered.push((
        nanos(due - window.opens),
        nanos(done - due),
        answers.len() as u64,
    ));
    out.traces.push((id, nanos(done - sent)));
    if let Some(want) = expected {
        if answers.len() != want.len() || answers.iter().zip(want).any(|(g, w)| !same(g, w)) {
            out.wrong += 1;
        }
    }
    if let Some(grid) = fresh.filter(|_| n.is_multiple_of(COLD_CHECK_EVERY)) {
        out.cold_checks.push(ColdCheck {
            grid,
            queries: queries.into_owned(),
            answers,
        });
    }
}

/// Runs one thread per connection until `warmup + window` has passed,
/// each taking the next request number `n` from a shared counter.
/// With `arrivals` (open loop) request `n` is due `arrivals[n]` seconds
/// after the start and is timed from then, so a stall also delays — and
/// is charged to — the requests behind it. Without (closed loop) it is
/// due at once: every connection sends its next request as soon as the
/// previous one is answered. Requests due inside the window (after the
/// warm-up) are recorded.
pub fn drive(
    clients: &mut [Client],
    traffic: Traffic<'_>,
    warmup: Duration,
    window: Duration,
    arrivals: Option<&[f64]>,
) -> Outcome {
    let start = Instant::now();
    let window = Window {
        opens: start + warmup,
        closes: start + warmup + window,
    };
    let next = AtomicU64::new(0);
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    loop {
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let due = match arrivals {
                            None => Some(Instant::now()),
                            Some(arrivals) => usize::try_from(n)
                                .ok()
                                .and_then(|n| arrivals.get(n))
                                .map(|&s| start + Duration::from_secs_f64(s)),
                        };
                        let Some(at) = due.filter(|&at| at < window.closes) else {
                            return out;
                        };
                        let now = Instant::now();
                        if now < at {
                            std::thread::sleep(at - now);
                        }
                        send(client, traffic, n, at, window, &mut out);
                    }
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("load thread panicked"));
        }
    });
    // Cold setup charges grow with `n`: keep the earliest requests, so
    // the sample does not depend on which thread finished first.
    total.cold_checks.sort_by_key(|c| c.grid.setup.to_bits());
    total.cold_checks.truncate(COLD_CHECKS);
    total
}
