//! The batched guarantee-query broker (see the crate docs for the
//! serving model). All solve work funnels through one [`TableCache`].
//! The calling (connection) thread groups a batch by grid and looks
//! every group up in the cache itself; only the cold groups go on to
//! the solve path. One cold group solves inline, and the
//! [`WorkerPool`] is reached only by a batch with two or more cold
//! groups, whose solves it runs side by side. Every job handed to the
//! pool is counted in `cyclesteal_pool_handoffs_total`, so a warm batch
//! provably adds 0 to it.
//!
//! ## Failure semantics
//!
//! Every failure a request (a batch or a sweep, through one
//! [`Broker::serve`]) can hit is a typed [`ServeError`]:
//!
//! * **Admission.** At most [`BrokerConfig::max_inflight`] requests are
//!   admitted concurrently; the rest are shed immediately with
//!   [`ErrorCode::Overloaded`](crate::ErrorCode::Overloaded) — the
//!   broker never queues unboundedly.
//! * **Tenant fairness.** A tenant is a grid `(setup, ticks_per_setup)`.
//!   Warm hits are answered straight from the sharded cache — no solve
//!   lane, no quota, nothing of one tenant's cold traffic in the way.
//!   Cold solves take one of [`BrokerConfig::solve_lanes`] lanes,
//!   released **round-robin by tenant** when contended, and a tenant
//!   past its [`BrokerConfig::tenant_quota`] in-flight cold solves is
//!   shed with the retryable `Overloaded` (counted in
//!   [`ResilienceStats::tenant_sheds`]).
//! * **Deadlines.** A request may carry a deadline
//!   ([`Request::deadline`]). It is checked on admission,
//!   before a leader starts a solve, and bounds how long a follower
//!   waits on a coalesced flight — a query that would blow its deadline
//!   joining a cold solve is rejected early with the retryable
//!   [`ErrorCode::DeadlineExceeded`](crate::ErrorCode::DeadlineExceeded)
//!   instead of blocking past it.
//! * **Panic containment.** A panicking solve is caught
//!   ([`std::panic::catch_unwind`]) — it can *never* escape
//!   [`Broker::serve`]. The poisoned flight is retried once by a
//!   new leader (the first follower to observe the poison); a second
//!   poison makes followers solve for themselves. The panicked
//!   request itself gets a retryable
//!   [`ErrorCode::Internal`](crate::ErrorCode::Internal) error.
//!
//! All shed/deadline/panic/retry events are counted in
//! [`ResilienceStats`], as are snapshot-on-evict write failures.

use crate::errors::ServeError;
use crate::faults;
use crate::obs::ObsHub;
use cyclesteal_core::time::{Time, Work};
use cyclesteal_dp::compressed::CompressedTable;
use cyclesteal_dp::{CacheStats, Grid, Phase, PhaseTimings, TableCache, ValueRun};
use cyclesteal_obs::{Counter, Gauge, Histogram, Registry, SpanRecord};
use cyclesteal_par::WorkerPool;
use cyclesteal_store::CacheSnapshotExt;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, RwLock};
use std::time::Instant;

/// One guarantee query: "how much work is guaranteed at
/// `(setup, Q, p, L)`?" — the unit the wire protocol and the batch API
/// share.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuaranteeQuery {
    /// The setup charge `c`.
    pub setup: Time,
    /// Grid resolution in ticks per setup charge.
    pub ticks_per_setup: u32,
    /// The adversary's interrupt budget `p`.
    pub interrupts: u32,
    /// The episode lifespan `L`.
    pub lifespan: Time,
}

/// One query's answer, in both the continuous and the exact grid view.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GuaranteeAnswer {
    /// `W^(p)(L)` interpolated to the requested lifespan — bit-identical
    /// to `table.value(p, L)` on the covering cached table.
    pub value: Work,
    /// The exact integer value at the nearest grid tick.
    pub value_ticks: i64,
}

/// One streaming sweep: the exact tick staircase of one `(setup, Q, p)`
/// row over the consecutive lifespan-tick window `first_tick ..
/// first_tick + count`, answered as arithmetic-run descriptors
/// ([`ValueRun`]) — the unit of the op-3 streaming wire mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepQuery {
    /// The setup charge `c`.
    pub setup: Time,
    /// Grid resolution in ticks per setup charge.
    pub ticks_per_setup: u32,
    /// The adversary's interrupt budget `p`.
    pub interrupts: u32,
    /// First lifespan tick of the window (inclusive, `≥ 0`).
    pub first_tick: i64,
    /// Window width in ticks (`≥ 1`).
    pub count: u32,
}

/// What a [`Request`] asks: guarantees at chosen points, or at every
/// lifespan tick of one row's window.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestBody<'a> {
    /// A batch of point queries (wire op 1), answered in input order.
    /// Borrowed in-process; owned when decoded off the wire.
    Batch(Cow<'a, [GuaranteeQuery]>),
    /// One streaming sweep (wire op 3), answered as run descriptors.
    Sweep(SweepQuery),
}

/// One guarantee request, the unit [`Broker::serve`] answers and
/// [`crate::Client::send`] sends: a body plus how to account for it.
/// Build one with [`Request::batch`] or [`Request::sweep`] and set the
/// other fields with struct-update syntax.
#[derive(Clone, Debug, PartialEq)]
pub struct Request<'a> {
    /// What is asked.
    pub body: RequestBody<'a>,
    /// The endpoint label the request is counted under (`"inproc"`,
    /// `"tcp"`). Not sent on the wire: the server counts every TCP
    /// request under `"tcp"`.
    pub endpoint: &'static str,
    /// When the answer stops being useful. The broker checks it on
    /// admission, before a leader starts a solve, while a follower waits
    /// on a coalesced flight, and once the tables are resolved; expiry
    /// is the retryable `DeadlineExceeded`.
    pub deadline: Option<Instant>,
    /// Nonzero: every pipeline stage the request crosses records a span
    /// under this id (`broker.admission`, `broker.lane`,
    /// `broker.flight`, `broker.solve`, then `broker.batch` or
    /// `broker.sweep`). Zero is the untraced fast path: no clock reads,
    /// no journal writes.
    pub trace_id: u64,
}

impl<'a> Request<'a> {
    /// An untraced batch request with no deadline, counted as `"inproc"`.
    pub fn batch(queries: &'a [GuaranteeQuery]) -> Request<'a> {
        Request::of(RequestBody::Batch(Cow::Borrowed(queries)))
    }

    /// An untraced sweep request with no deadline, counted as `"inproc"`.
    pub fn sweep(sweep: SweepQuery) -> Request<'a> {
        Request::of(RequestBody::Sweep(sweep))
    }

    fn of(body: RequestBody<'a>) -> Request<'a> {
        Request {
            body,
            endpoint: "inproc",
            deadline: None,
            trace_id: 0,
        }
    }
}

/// What [`Broker::serve`] answers: one variant per [`RequestBody`].
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A batch's answers, in query order.
    Answers(Vec<GuaranteeAnswer>),
    /// A sweep window's arithmetic-run descriptors; expanding them
    /// ([`cyclesteal_dp::expand_value_runs`]) is bit-identical to
    /// querying `value_ticks` at every tick of the window.
    Runs(Vec<ValueRun>),
}

impl Response {
    /// A batch response's answers. A sweep response is an internal
    /// error: a batch request is never answered with runs.
    pub fn into_answers(self) -> Result<Vec<GuaranteeAnswer>, ServeError> {
        match self {
            Response::Answers(answers) => Ok(answers),
            Response::Runs(_) => Err(ServeError::internal("batch answered with runs")),
        }
    }

    /// A sweep response's run descriptors. A batch response is an
    /// internal error: a sweep request is never answered with answers.
    pub fn into_runs(self) -> Result<Vec<ValueRun>, ServeError> {
        match self {
            Response::Runs(runs) => Ok(runs),
            Response::Answers(_) => Err(ServeError::internal("sweep answered with answers")),
        }
    }
}

/// In-flight batch budget used when [`BrokerConfig::max_inflight`] is
/// zero: far above any sane concurrency, small enough that a runaway
/// client sheds instead of exhausting memory.
pub const DEFAULT_MAX_INFLIGHT: usize = 1024;

/// Per-tenant cold-solve quota used when [`BrokerConfig::tenant_quota`]
/// is zero: how many cold solves one grid may have in flight (leading
/// or queued for a lane) before further ones shed with `Overloaded`.
pub const DEFAULT_TENANT_QUOTA: usize = 4;

/// Most tenant grids that get a `cyclesteal_tenant_queries_total`
/// series of their own. Grids first seen after the cap is reached are
/// counted under `tenant="other"`, so a client sending ever-new
/// `(setup, Q)` pairs cannot grow the registry or the op-4 text without
/// limit. Comfortably above the grids a deployment is expected to serve
/// (perfbench's whole corpus is 192).
pub const MAX_TENANT_SERIES: usize = 256;

/// Broker construction options.
#[derive(Clone, Debug, Default)]
pub struct BrokerConfig {
    /// Worker threads of the solve pool (`0` = machine default /
    /// `CYCLESTEAL_THREADS`).
    pub threads: usize,
    /// Resident-bytes cap for the underlying [`TableCache`]
    /// (`None` = unbounded). Evicted compressed tables are snapshotted
    /// first when `snapshot_dir` is set.
    pub memory_budget: Option<usize>,
    /// Snapshot directory: warmed from at startup, snapshotted to on
    /// eviction and on [`Broker::snapshot`].
    pub snapshot_dir: Option<PathBuf>,
    /// Most requests admitted concurrently; the rest are shed with
    /// `Overloaded` (`0` = [`DEFAULT_MAX_INFLIGHT`]).
    pub max_inflight: usize,
    /// Most cold solves one tenant grid `(setup, ticks_per_setup)` may
    /// have in flight before further ones shed with `Overloaded`
    /// (`0` = [`DEFAULT_TENANT_QUOTA`]). Warm hits never consume quota.
    pub tenant_quota: usize,
    /// Most cold solves running concurrently across all tenants — the
    /// fairness gate's lane count; queued solvers are released
    /// round-robin by tenant (`0` = one less than the pool's worker
    /// count, minimum 1, so cold solves can never occupy every worker).
    pub solve_lanes: usize,
}

/// Resilience-event counters (all monotone): how often the broker shed,
/// rejected on deadline, contained a panic, re-led a poisoned flight,
/// or failed a snapshot-on-evict write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Requests shed by the in-flight budget (`Overloaded`).
    pub shed: u64,
    /// Requests rejected because their deadline expired (on admission,
    /// before a solve, or waiting on a coalesced flight).
    pub deadline_rejects: u64,
    /// Solve panics contained by the flight machinery.
    pub solve_panics: u64,
    /// Poisoned flights re-led by a follower-turned-leader.
    pub flight_retries: u64,
    /// Snapshot-on-evict writes that failed (logged, never propagated).
    pub snapshot_failures: u64,
    /// Cold solves shed by a tenant's per-grid quota (`Overloaded`).
    /// Distinct from `shed`, which counts whole requests shed by the
    /// global in-flight budget.
    pub tenant_sheds: u64,
}

/// Live resilience counters ([`ResilienceStats`] is their snapshot).
/// `snapshot_failures` is an `Arc` because the store's counting evict
/// hook holds the other reference.
struct Resilience {
    shed: AtomicU64,
    deadline_rejects: AtomicU64,
    solve_panics: AtomicU64,
    flight_retries: AtomicU64,
    snapshot_failures: Arc<AtomicU64>,
    tenant_sheds: AtomicU64,
}

impl Resilience {
    fn new() -> Resilience {
        Resilience {
            shed: AtomicU64::new(0),
            deadline_rejects: AtomicU64::new(0),
            solve_panics: AtomicU64::new(0),
            flight_retries: AtomicU64::new(0),
            snapshot_failures: Arc::new(AtomicU64::new(0)),
            tenant_sheds: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> ResilienceStats {
        ResilienceStats {
            shed: self.shed.load(Ordering::Relaxed),
            deadline_rejects: self.deadline_rejects.load(Ordering::Relaxed),
            solve_panics: self.solve_panics.load(Ordering::Relaxed),
            flight_retries: self.flight_retries.load(Ordering::Relaxed),
            snapshot_failures: self.snapshot_failures.load(Ordering::Relaxed),
            tenant_sheds: self.tenant_sheds.load(Ordering::Relaxed),
        }
    }

    /// Counts one deadline reject and builds its typed error.
    fn deadline_exceeded(&self, context: &str) -> ServeError {
        self.deadline_rejects.fetch_add(1, Ordering::Relaxed);
        ServeError::deadline_exceeded(context)
    }
}

/// Everything the in-flight solve closures share with the broker.
struct Shared {
    cache: Arc<TableCache>,
    inflight: StdMutex<HashMap<SolveKey, Arc<Flight>>>,
    res: Resilience,
    fair: FairGate,
    obs: ObsHub,
}

/// A tenant is a grid — the `(setup_bits, ticks_per_setup)` every key
/// of one user's sweep shares. Interrupt budgets deliberately do not
/// distinguish tenants: all of one grid's solves draw on one quota.
type TenantKey = (u64, u32);

/// Why the fairness gate refused a cold solve.
enum GateReject {
    /// The tenant already has `quota` cold solves in flight.
    Quota { held: usize },
    /// The caller's deadline expired while queued for a lane.
    Deadline,
}

/// One tenant's gate bookkeeping: cold solves in flight (leading or
/// queued) and the FIFO of queued ticket ids.
#[derive(Default)]
struct TenantLane {
    inflight: usize,
    waiting: VecDeque<u64>,
}

/// Admission for **cold solves only** (warm hits bypass the broker's
/// flight machinery entirely via the cache fast lane): at most `lanes`
/// solves run at once, a tenant may hold at most `per_tenant` in
/// flight, and queued solvers are released **round-robin by tenant** —
/// a tenant fanning out many cold grids takes turns with every other
/// tenant's single cold solve instead of monopolizing the lanes.
struct FairGate {
    lanes: usize,
    per_tenant: usize,
    state: StdMutex<FairGateState>,
    cv: Condvar,
    /// Registry gauge mirroring `FairGateState::running` — how many
    /// cold solves hold a lane right now.
    running_g: Gauge,
    /// Registry gauge counting solvers queued for a lane across all
    /// tenants — the cold-solve queue depth.
    waiting_g: Gauge,
}

#[derive(Default)]
struct FairGateState {
    /// Cold solves currently holding a lane.
    running: usize,
    /// Monotone ticket source ordering each tenant's queue.
    next_ticket: u64,
    tenants: HashMap<TenantKey, TenantLane>,
    /// Tenants with queued solvers, in round-robin release order.
    rotation: VecDeque<TenantKey>,
}

impl FairGate {
    /// A gate with detached (unregistered) gauges — unit-test flavor of
    /// [`FairGate::with_gauges`].
    #[cfg(test)]
    fn new(lanes: usize, per_tenant: usize) -> FairGate {
        FairGate::with_gauges(lanes, per_tenant, Gauge::new(), Gauge::new())
    }

    /// [`FairGate::new`] wired to registry gauges (lane occupancy and
    /// queue depth) — what the broker uses; bare `new` keeps detached
    /// gauges for unit tests.
    fn with_gauges(
        lanes: usize,
        per_tenant: usize,
        running_g: Gauge,
        waiting_g: Gauge,
    ) -> FairGate {
        FairGate {
            lanes: lanes.max(1),
            per_tenant: per_tenant.max(1),
            state: StdMutex::new(FairGateState::default()),
            cv: Condvar::new(),
            running_g,
            waiting_g,
        }
    }

    /// Takes a solve lane for `tenant`, queueing (round-robin, bounded
    /// by `deadline`) when all lanes are busy, shedding when the tenant
    /// quota is already spent. The returned permit releases the lane on
    /// drop — including when the solve panics.
    fn acquire(
        &self,
        tenant: TenantKey,
        deadline: Option<Instant>,
    ) -> Result<FairPermit<'_>, GateReject> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let lane = state.tenants.entry(tenant).or_default();
        if lane.inflight >= self.per_tenant {
            let held = lane.inflight;
            return Err(GateReject::Quota { held });
        }
        lane.inflight += 1;
        // Fast path only when nobody is queued: barging past a waiting
        // tenant would undo the round-robin guarantee.
        if state.running < self.lanes && state.rotation.is_empty() {
            state.running += 1;
            self.running_g.set(state.running as u64);
            return Ok(FairPermit { gate: self, tenant });
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        if let Some(lane) = state.tenants.get_mut(&tenant) {
            lane.waiting.push_back(ticket);
            self.waiting_g.inc();
        }
        if !state.rotation.contains(&tenant) {
            state.rotation.push_back(tenant);
        }
        loop {
            let my_turn = state.running < self.lanes
                && state.rotation.front() == Some(&tenant)
                && state.tenants.get(&tenant).and_then(|l| l.waiting.front()) == Some(&ticket);
            if my_turn {
                state.rotation.pop_front();
                if let Some(lane) = state.tenants.get_mut(&tenant) {
                    lane.waiting.pop_front();
                    self.waiting_g.dec();
                    if !lane.waiting.is_empty() {
                        state.rotation.push_back(tenant);
                    }
                }
                state.running += 1;
                self.running_g.set(state.running as u64);
                // Another lane may have freed for the next tenant too.
                self.cv.notify_all();
                return Ok(FairPermit { gate: self, tenant });
            }
            match deadline {
                None => state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        Self::abandon(&mut state, tenant, ticket);
                        self.waiting_g.dec();
                        self.cv.notify_all();
                        return Err(GateReject::Deadline);
                    }
                    state = self
                        .cv
                        .wait_timeout(state, d - now)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
    }

    /// Removes an expired waiter's ticket and quota charge, keeping the
    /// rotation honest (a tenant with no remaining waiters leaves it).
    fn abandon(state: &mut FairGateState, tenant: TenantKey, ticket: u64) {
        if let Some(lane) = state.tenants.get_mut(&tenant) {
            lane.waiting.retain(|&t| t != ticket);
            lane.inflight = lane.inflight.saturating_sub(1);
            let empty_queue = lane.waiting.is_empty();
            let gone = empty_queue && lane.inflight == 0;
            if empty_queue {
                state.rotation.retain(|&t| t != tenant);
            }
            if gone {
                state.tenants.remove(&tenant);
            }
        }
    }

    fn release(&self, tenant: TenantKey) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.running = state.running.saturating_sub(1);
        self.running_g.set(state.running as u64);
        if let Some(lane) = state.tenants.get_mut(&tenant) {
            lane.inflight = lane.inflight.saturating_sub(1);
            if lane.inflight == 0 && lane.waiting.is_empty() {
                state.tenants.remove(&tenant);
            }
        }
        self.cv.notify_all();
    }
}

/// RAII lane holder: one granted cold solve. Releasing on drop keeps
/// the gate correct through panicking solves.
struct FairPermit<'a> {
    gate: &'a FairGate,
    tenant: TenantKey,
}

impl Drop for FairPermit<'_> {
    fn drop(&mut self) {
        self.gate.release(self.tenant);
    }
}

/// Single-flight key: one concurrent solve per `(setup, Q, p_max)` —
/// the `TableCache` key shape (lifespan rides along via headroom).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct SolveKey {
    setup_bits: u64,
    ticks_per_setup: u32,
    max_interrupts: u32,
}

/// One in-flight solve: followers park on the condvar until the leader
/// publishes. `Err(())` means the leader died without publishing
/// (poisoned flight) — followers then re-lead once, then solve for
/// themselves.
struct Flight {
    result: StdMutex<Option<Result<Arc<CompressedTable>, ()>>>,
    cv: Condvar,
}

/// Removes the flight from the in-flight map on drop and poisons it if
/// the leader never published — a panicking solve must not strand its
/// followers on the condvar forever.
struct FlightGuard<'a> {
    shared: &'a Shared,
    key: SolveKey,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        {
            let mut result = self.flight.result.lock().unwrap_or_else(|e| e.into_inner());
            if result.is_none() {
                *result = Some(Err(()));
            }
        }
        self.flight.cv.notify_all();
        if let Ok(mut map) = self.shared.inflight.lock() {
            map.remove(&self.key);
        }
    }
}

/// Bounded admission: a relaxed counter plus an RAII permit. A batch
/// past the budget is never queued — it sheds immediately, keeping the
/// broker's memory and latency bounded under overload.
struct Admission {
    inflight: AtomicUsize,
    budget: usize,
    /// Registry gauge mirroring `inflight` — the live batch depth.
    gauge: Gauge,
}

impl Admission {
    fn try_acquire(&self) -> Option<Permit<'_>> {
        let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
        if prev >= self.budget {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            None
        } else {
            self.gauge.inc();
            Some(Permit { admission: self })
        }
    }
}

struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.inflight.fetch_sub(1, Ordering::AcqRel);
        self.admission.gauge.dec();
    }
}

/// Per-endpoint handles into the shared metrics registry: request and
/// query totals, solves coalesced onto another request's flight, and a
/// log₂-bucketed batch-latency histogram (microseconds) from which the
/// p50/p99 snapshots are read. These are registry series — the op-4
/// exposition and [`Broker::stats`] read the *same* atomics, so the two
/// views reconcile exactly.
struct Endpoint {
    requests: Counter,
    queries: Counter,
    coalesced: Counter,
    latency_us: Histogram,
}

impl Endpoint {
    fn new(registry: &Registry, name: &str) -> Endpoint {
        let labels = [("endpoint", name)];
        Endpoint {
            requests: registry.counter_with("cyclesteal_requests_total", &labels),
            queries: registry.counter_with("cyclesteal_queries_total", &labels),
            coalesced: registry.counter_with("cyclesteal_coalesced_total", &labels),
            latency_us: registry.histogram_with("cyclesteal_request_latency_us", &labels),
        }
    }

    fn record(&self, queries: usize, elapsed_us: u64) {
        self.requests.inc();
        self.queries.add(queries as u64);
        self.latency_us.record(elapsed_us);
    }
}

/// Per-tenant traffic counters (`cyclesteal_tenant_queries_total`),
/// one registry handle per tenant grid, looked up once. A known
/// tenant's count is a shared read lock, a hash probe and an atomic add:
/// no `format!`, no allocation and no registry mutex. At most
/// [`MAX_TENANT_SERIES`] tenants get a series of their own; the queries
/// of every later grid land in `tenant="other"`, and each group folded
/// there bumps `cyclesteal_tenant_series_folded_total`.
struct TenantCounters {
    named: RwLock<HashMap<TenantKey, Counter>>,
    other: Counter,
    folded: Counter,
}

impl TenantCounters {
    fn new(registry: &Registry) -> TenantCounters {
        TenantCounters {
            named: RwLock::new(HashMap::new()),
            other: registry.counter_with("cyclesteal_tenant_queries_total", &[("tenant", "other")]),
            folded: registry.counter("cyclesteal_tenant_series_folded_total"),
        }
    }

    /// Counts `n` queries against tenant grid `key`. The label is
    /// human-readable (`"<setup>x<Q>"`); it is formatted once, when
    /// the tenant's series is created.
    fn record(&self, registry: &Registry, key: TenantKey, n: u64) {
        {
            let named = self.named.read().unwrap_or_else(|e| e.into_inner());
            if let Some(counter) = named.get(&key) {
                counter.add(n);
                return;
            }
            // The map only grows, so a full map stays full: fold
            // without taking the write lock.
            if named.len() >= MAX_TENANT_SERIES {
                self.fold(n);
                return;
            }
        }
        let mut named = self.named.write().unwrap_or_else(|e| e.into_inner());
        if let Some(counter) = named.get(&key) {
            counter.add(n);
        } else if named.len() >= MAX_TENANT_SERIES {
            self.fold(n);
        } else {
            let tenant = format!("{}x{}", f64::from_bits(key.0), key.1);
            let counter =
                registry.counter_with("cyclesteal_tenant_queries_total", &[("tenant", &tenant)]);
            counter.add(n);
            named.insert(key, counter);
        }
    }

    fn fold(&self, n: u64) {
        self.other.add(n);
        self.folded.inc();
    }
}

/// A point-in-time view of one endpoint's counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EndpointStats {
    /// Endpoint label (`"inproc"`, `"tcp"`).
    pub endpoint: String,
    /// Batches served.
    pub requests: u64,
    /// Individual queries answered across those batches.
    pub queries: u64,
    /// Solves this endpoint's requests coalesced onto another request's
    /// in-flight solve instead of running themselves.
    pub coalesced: u64,
    /// Approximate median batch latency in microseconds (log₂ bucket
    /// upper bound).
    pub p50_us: u64,
    /// Approximate 99th-percentile batch latency in microseconds.
    pub p99_us: u64,
}

/// Broker-level observability: per-endpoint request stats, the
/// underlying cache's counters, and the resilience-event counters.
#[derive(Clone, Debug)]
pub struct BrokerStats {
    /// One entry per endpoint that served at least one request, sorted
    /// by label.
    pub endpoints: Vec<EndpointStats>,
    /// The shared [`TableCache`]'s counters (hits, misses, evictions,
    /// resident bytes, entry counts).
    pub cache: CacheStats,
    /// Shed/deadline/panic/retry/snapshot-failure counters.
    pub resilience: ResilienceStats,
}

/// The batched guarantee-query broker. Cheap to share: wrap it in an
/// [`Arc`] and hand clones to every connection/test thread.
pub struct Broker {
    shared: Arc<Shared>,
    pool: WorkerPool,
    /// `cyclesteal_pool_handoffs_total`: jobs handed to `pool`.
    handoffs: Counter,
    snapshot_dir: Option<PathBuf>,
    admission: Admission,
    /// Endpoint handles by label, read-mostly: a batch of a known
    /// endpoint takes only the shared read lock.
    endpoints: RwLock<HashMap<&'static str, Arc<Endpoint>>>,
    tenants: TenantCounters,
}

impl Broker {
    /// Builds a broker: a fresh [`TableCache`] (budgeted if configured),
    /// a worker pool, and — when a snapshot directory is configured — a
    /// warm start from it plus snapshot-on-evict wiring (whose write
    /// failures are counted, never propagated). Returns the warm-start
    /// I/O error if the directory exists but cannot be read.
    pub fn new(config: BrokerConfig) -> Result<Broker, cyclesteal_store::StoreError> {
        Broker::with_obs(config, ObsHub::new())
    }

    /// [`Broker::new`] over an explicit observability hub — how tests
    /// inject a deterministic clock, and how a server embedding several
    /// brokers could share one registry.
    pub fn with_obs(
        config: BrokerConfig,
        obs: ObsHub,
    ) -> Result<Broker, cyclesteal_store::StoreError> {
        let cache = Arc::new(TableCache::new());
        cache.set_memory_budget(config.memory_budget);
        let res = Resilience::new();
        if let Some(dir) = &config.snapshot_dir {
            cache.warm_from_dir(dir)?;
            cache.set_evict_hook(Some(cyclesteal_store::evict_hook_to_dir_counting(
                dir.clone(),
                res.snapshot_failures.clone(),
            )));
        }
        let pool = WorkerPool::new(config.threads);
        // Default lane count: one below the worker count (min 1), so
        // cold solves dispatched through the pool can never occupy
        // every worker — there is always headroom for another tenant's
        // cold batch to make progress. Warm groups never reach the
        // pool (they resolve on the calling thread), so this headroom
        // concerns cold batches only.
        let lanes = if config.solve_lanes == 0 {
            pool.threads().saturating_sub(1).max(1)
        } else {
            config.solve_lanes
        };
        let quota = if config.tenant_quota == 0 {
            DEFAULT_TENANT_QUOTA
        } else {
            config.tenant_quota
        };
        let registry = obs.registry();
        let fair = FairGate::with_gauges(
            lanes,
            quota,
            registry.gauge("cyclesteal_lanes_running"),
            registry.gauge("cyclesteal_lane_waiters"),
        );
        let inflight_gauge = registry.gauge("cyclesteal_inflight_batches");
        let handoffs = registry.counter("cyclesteal_pool_handoffs_total");
        let tenants = TenantCounters::new(registry);
        Ok(Broker {
            shared: Arc::new(Shared {
                cache,
                inflight: StdMutex::new(HashMap::new()),
                res,
                fair,
                obs,
            }),
            pool,
            handoffs,
            snapshot_dir: config.snapshot_dir,
            admission: Admission {
                inflight: AtomicUsize::new(0),
                budget: if config.max_inflight == 0 {
                    DEFAULT_MAX_INFLIGHT
                } else {
                    config.max_inflight
                },
                gauge: inflight_gauge,
            },
            endpoints: RwLock::new(HashMap::new()),
            tenants,
        })
    }

    /// The broker's observability hub: the metrics registry, span
    /// journal and injected clock shared by every pipeline stage.
    pub fn obs(&self) -> &ObsHub {
        &self.shared.obs
    }

    /// Wires solver **phase profiling** into the hub: every cache solve
    /// is timed against the hub's clock and its per-phase durations land
    /// in `cyclesteal_solve_phase_ns{phase=…}` histograms. Off by
    /// default — the unprofiled solve path pays zero clock reads, and
    /// solver outputs are bit-identical either way (pinned in
    /// `cyclesteal-dp`'s profiling tests).
    pub fn enable_profiling(&self) {
        let registry = self.shared.obs.registry();
        let hists: Vec<(Phase, Histogram)> = Phase::ALL
            .iter()
            .map(|&phase| {
                let h = registry
                    .histogram_with("cyclesteal_solve_phase_ns", &[("phase", phase.name())]);
                (phase, h)
            })
            .collect();
        let sink = Box::new(move |timings: &PhaseTimings| {
            for (phase, hist) in &hists {
                if timings.calls(*phase) > 0 {
                    hist.record(timings.ns(*phase));
                }
            }
        });
        self.shared
            .cache
            .set_profiling(Some(self.shared.obs.clock().clone()), Some(sink));
    }

    /// The broker's shared solve cache (for diffing broker answers
    /// against direct queries, and for operational introspection).
    pub fn cache(&self) -> &TableCache {
        &self.shared.cache
    }

    /// Answers a batch of queries in input order, bit-identically to
    /// querying the covering `TableCache` table directly:
    /// [`Broker::serve`] on an untraced, deadline-free
    /// [`Request::batch`] counted as `"inproc"`.
    pub fn query_batch(
        &self,
        queries: &[GuaranteeQuery],
    ) -> Result<Vec<GuaranteeAnswer>, ServeError> {
        self.serve(&Request::batch(queries))?.into_answers()
    }

    /// Answers one request; both shapes take one path. The request is
    /// admitted under [`BrokerConfig::max_inflight`] (or shed with
    /// `Overloaded`), checked against its deadline and validated. A
    /// batch then groups its queries per `(setup, Q)` grid and a sweep
    /// is one grid; each grid's covering table is looked up on the
    /// calling thread, and only the misses go on to a solve, coalesced
    /// with any concurrent request for the same key. A table that is
    /// ready only after the deadline still rejects the request. A batch
    /// is answered by table lookup in input order, a sweep by its row's
    /// run descriptors; both are bit-identical to querying the covering
    /// `TableCache` table directly.
    pub fn serve(&self, request: &Request<'_>) -> Result<Response, ServeError> {
        let &Request {
            ref body,
            endpoint,
            deadline,
            trace_id,
        } = request;
        let (obs, res) = (&self.shared.obs, &self.shared.res);
        let start = Instant::now();
        let t_request = obs.start_ns(trace_id);
        let Some(_permit) = self.admission.try_acquire() else {
            res.shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::overloaded(
                self.admission.inflight.load(Ordering::Relaxed),
                self.admission.budget,
            ));
        };
        if expired(deadline) {
            return Err(res.deadline_exceeded("expired on arrival"));
        }
        // Each grid group solves once at the max (p, L) asked of it — a
        // p_max solve holds every smaller budget exactly; a sweep's one
        // group covers its window's last tick. Admission ends once the
        // request is valid: grouping counts as resolving.
        let (groups, group_of) = match body {
            RequestBody::Batch(queries) => {
                validate(queries)?;
                obs.span(trace_id, "broker.admission", t_request);
                group_by_grid(queries)
            }
            RequestBody::Sweep(sweep) => {
                let covering = sweep_covering_query(sweep)?;
                obs.span(trace_id, "broker.admission", t_request);
                let group = Group {
                    tenant: tenant_of(&covering),
                    covering,
                    queries: u64::from(sweep.count),
                };
                (vec![group], Vec::new())
            }
        };
        let ep = self.endpoint(endpoint);
        for group in &groups {
            self.tenants
                .record(obs.registry(), group.tenant, group.queries);
        }

        // Every group is looked up here, on the calling thread: a warm
        // group costs one cache probe and never leaves it — no flight,
        // no solve lane, no tenant quota, so one tenant's cold solves
        // can never queue (or shed) another tenant's warm traffic. Only
        // the misses go on to the cold path.
        let mut tables: Vec<Option<Arc<CompressedTable>>> = groups
            .iter()
            .map(|group| {
                let g = &group.covering;
                self.shared.cache.try_get_compressed(
                    g.setup,
                    g.ticks_per_setup,
                    g.lifespan,
                    g.interrupts,
                )
            })
            .collect();
        let misses: Vec<usize> = (0..groups.len()).filter(|&i| tables[i].is_none()).collect();
        if let [only] = misses[..] {
            // One cold group solves inline — no pool hand-off latency.
            tables[only] = Some(resolve_cold(
                &self.shared,
                &ep,
                &groups[only].covering,
                deadline,
                0,
                trace_id,
            )?);
        } else if !misses.is_empty() {
            // Two or more cold groups solve side by side on the pool.
            // Jobs return Results and contain their own panics, so no
            // panic can cross the pool boundary and abort the scatter.
            let jobs: Vec<_> = misses
                .iter()
                .map(|&i| {
                    let shared = self.shared.clone();
                    let ep = ep.clone();
                    let g = groups[i].covering;
                    move || resolve_cold(&shared, &ep, &g, deadline, 0, trace_id)
                })
                .collect();
            self.handoffs.add(jobs.len() as u64);
            for (i, table) in misses.iter().zip(self.pool.scatter(jobs)) {
                tables[*i] = Some(table?);
            }
        }
        // Every slot is filled now: hits above, misses just solved.
        let tables: Vec<Arc<CompressedTable>> = tables.into_iter().flatten().collect();
        // The answer contract is "within the deadline or a typed
        // reject", so a solve that finished late still errors — but its
        // table is cached now, which is exactly why the error is
        // retryable: the next attempt answers from cache in time.
        if expired(deadline) {
            return Err(res.deadline_exceeded("answer ready only after the deadline"));
        }
        let (response, queries, stage) = match body {
            RequestBody::Batch(queries) => {
                let answers = queries
                    .iter()
                    .zip(&group_of)
                    .map(|(q, &group)| {
                        let table = &tables[group];
                        let ticks = table
                            .grid()
                            .to_ticks(q.lifespan)
                            .clamp(0, table.max_ticks());
                        GuaranteeAnswer {
                            value: table.value(q.interrupts, q.lifespan),
                            value_ticks: table.value_ticks(q.interrupts, ticks),
                        }
                    })
                    .collect();
                (Response::Answers(answers), queries.len(), "broker.batch")
            }
            RequestBody::Sweep(sweep) => {
                let table = &tables[0];
                let last = sweep.first_tick + i64::from(sweep.count) - 1;
                if last > table.max_ticks() {
                    // Defensive: the covering solve must reach the
                    // window's end (grid round-trips are exact on tick
                    // points). A table that doesn't is an internal
                    // inconsistency, not the client's fault — and
                    // retryable, since the next attempt resolves a fresh
                    // covering table.
                    return Err(ServeError::internal(format!(
                        "covering table stops at tick {} before sweep end {last}",
                        table.max_ticks()
                    )));
                }
                let runs =
                    table.value_runs(sweep.interrupts, sweep.first_tick, i64::from(sweep.count));
                (Response::Runs(runs), sweep.count as usize, "broker.sweep")
            }
        };
        ep.record(queries, start.elapsed().as_micros() as u64);
        obs.span(trace_id, stage, t_request);
        Ok(response)
    }

    /// Snapshot every cached table to the configured directory (no-op
    /// `Ok(0)` without one) — the graceful-shutdown path.
    pub fn snapshot(&self) -> Result<usize, cyclesteal_store::StoreError> {
        match &self.snapshot_dir {
            Some(dir) => self.shared.cache.snapshot_to_dir(dir),
            None => Ok(0),
        }
    }

    /// Test-only: takes one admission permit directly (released on
    /// drop), so suites can fill the in-flight budget deterministically
    /// instead of racing real requests against it. Hidden — not part of
    /// the serving API.
    #[doc(hidden)]
    pub fn hold_admission(&self) -> Option<impl Drop + '_> {
        self.admission.try_acquire()
    }

    /// Per-endpoint, cache-level and resilience counters.
    pub fn stats(&self) -> BrokerStats {
        let mut endpoints: Vec<EndpointStats> = self
            .endpoints
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, ep)| EndpointStats {
                endpoint: (*name).to_string(),
                requests: ep.requests.get(),
                queries: ep.queries.get(),
                coalesced: ep.coalesced.get(),
                p50_us: ep.latency_us.quantile(0.50),
                p99_us: ep.latency_us.quantile(0.99),
            })
            .collect();
        endpoints.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
        BrokerStats {
            endpoints,
            cache: self.shared.cache.stats(),
            resilience: self.shared.res.snapshot(),
        }
    }

    /// The op-4 payload: the registry's text exposition plus the span
    /// journal's snapshot, taken together. Cache-shard and resilience
    /// gauges are refreshed from their authoritative counters first, so
    /// the exposition reconciles with [`Broker::stats`]: summing the
    /// `cyclesteal_cache_shard_*` gauges reproduces
    /// [`CacheStats`]'s totals exactly (they are one read of the same
    /// per-shard atomics).
    pub fn metrics_snapshot(&self) -> (String, Vec<SpanRecord>) {
        self.refresh_gauges();
        (
            self.shared.obs.registry().render(),
            self.shared.obs.journal().snapshot(),
        )
    }

    /// The registry exposition alone (gauges refreshed) — the in-process
    /// flavor of the op-4 pull.
    pub fn metrics_text(&self) -> String {
        self.refresh_gauges();
        self.shared.obs.registry().render()
    }

    /// Copies the authoritative per-shard cache counters and resilience
    /// event counts into registry gauges, so one exposition carries the
    /// whole picture.
    fn refresh_gauges(&self) {
        let registry = self.shared.obs.registry();
        for s in self.shared.cache.shard_stats() {
            let shard = s.shard.to_string();
            let labels = [("shard", shard.as_str())];
            for (name, value) in [
                ("cyclesteal_cache_shard_hits", s.hits),
                ("cyclesteal_cache_shard_misses", s.misses),
                ("cyclesteal_cache_shard_evictions", s.evictions),
                (
                    "cyclesteal_cache_shard_compressed_entries",
                    s.compressed_entries as u64,
                ),
                (
                    "cyclesteal_cache_shard_resident_bytes",
                    s.resident_bytes as u64,
                ),
            ] {
                registry.gauge_with(name, &labels).set(value);
            }
        }
        let r = self.shared.res.snapshot();
        for (kind, value) in [
            ("shed", r.shed),
            ("deadline_rejects", r.deadline_rejects),
            ("solve_panics", r.solve_panics),
            ("flight_retries", r.flight_retries),
            ("snapshot_failures", r.snapshot_failures),
            ("tenant_sheds", r.tenant_sheds),
        ] {
            registry
                .gauge_with("cyclesteal_resilience_events", &[("kind", kind)])
                .set(value);
        }
    }

    /// The endpoint's handles: a shared read lock once the label has
    /// served a request, the write lock only on its first.
    fn endpoint(&self, name: &'static str) -> Arc<Endpoint> {
        if let Some(ep) = self
            .endpoints
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return ep.clone();
        }
        self.endpoints
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .entry(name)
            .or_insert_with(|| Arc::new(Endpoint::new(self.shared.obs.registry(), name)))
            .clone()
    }
}

/// The tenant grid a query belongs to.
fn tenant_of(q: &GuaranteeQuery) -> TenantKey {
    (q.setup.get().to_bits(), q.ticks_per_setup)
}

/// One grid's share of a batch: the covering query (the largest `p`
/// and `L` asked of the grid) and how many queries it holds.
struct Group {
    tenant: TenantKey,
    covering: GuaranteeQuery,
    queries: u64,
}

/// Groups a batch by grid without hashing: the queries are sorted by
/// grid (`O(n log n)` whatever a hostile batch holds) and each run of
/// one grid becomes a group. Returns the groups in grid order and, for
/// each query in input order, the index of its group.
fn group_by_grid(queries: &[GuaranteeQuery]) -> (Vec<Group>, Vec<usize>) {
    let mut order: Vec<(TenantKey, usize)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| (tenant_of(q), i))
        .collect();
    order.sort_unstable();
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of = vec![0; queries.len()];
    for (tenant, i) in order {
        let q = &queries[i];
        match groups.last_mut() {
            Some(group) if group.tenant == tenant => {
                let g = &mut group.covering;
                if q.lifespan > g.lifespan {
                    g.lifespan = q.lifespan;
                }
                if q.interrupts > g.interrupts {
                    g.interrupts = q.interrupts;
                }
                group.queries += 1;
            }
            _ => groups.push(Group {
                tenant,
                covering: *q,
                queries: 1,
            }),
        }
        group_of[i] = groups.len() - 1;
    }
    (groups, group_of)
}

/// Largest grid extent (in ticks) one query may demand —
/// ~16× the `10⁹`-tick acceptance point, still a sub-minute solve.
/// Solve cost scales with the tick count, so without this cap a single
/// 24-byte frame could demand an effectively unbounded solve.
pub const MAX_QUERY_TICKS: i64 = 1 << 34;

/// Largest interrupt budget one query may demand (one solved level per
/// interrupt).
pub const MAX_QUERY_INTERRUPTS: u32 = 1 << 12;

/// Largest grid resolution one query may demand.
pub const MAX_QUERY_TICKS_PER_SETUP: u32 = 1 << 20;

fn validate(queries: &[GuaranteeQuery]) -> Result<(), ServeError> {
    for (index, q) in queries.iter().enumerate() {
        let reason = if !q.setup.get().is_finite() || !q.setup.is_positive() {
            Some(format!("setup charge {} must be positive", q.setup))
        } else if q.ticks_per_setup < 1 {
            Some("ticks_per_setup must be ≥ 1".to_string())
        } else if q.ticks_per_setup > MAX_QUERY_TICKS_PER_SETUP {
            Some(format!(
                "ticks_per_setup {} exceeds the broker cap {MAX_QUERY_TICKS_PER_SETUP}",
                q.ticks_per_setup
            ))
        } else if q.interrupts > MAX_QUERY_INTERRUPTS {
            Some(format!(
                "interrupt budget {} exceeds the broker cap {MAX_QUERY_INTERRUPTS}",
                q.interrupts
            ))
        } else if !q.lifespan.get().is_finite() || q.lifespan.is_negative() {
            Some(format!("lifespan {} must be nonnegative", q.lifespan))
        } else {
            // Solve cost scales with the tick extent, so the magnitude
            // cap is on ticks, not raw lifespan: a tiny setup charge at
            // a huge lifespan is just as expensive.
            let ticks = q.lifespan.get() / q.setup.get() * q.ticks_per_setup as f64;
            if ticks > MAX_QUERY_TICKS as f64 {
                Some(format!(
                    "lifespan {} at this resolution is {ticks:.0} ticks, over the broker cap {MAX_QUERY_TICKS}",
                    q.lifespan
                ))
            } else {
                None
            }
        };
        if let Some(reason) = reason {
            return Err(ServeError::invalid_query(index, reason));
        }
    }
    Ok(())
}

/// Validates a sweep and derives the batch query whose covering table
/// holds the whole window: same grid and interrupt budget, lifespan at
/// the window's last tick. Scalar checks run *before* [`Grid`] is
/// constructed — `Grid::new` panics on nonpositive setups, and a
/// hostile frame must never be able to panic the broker.
fn sweep_covering_query(sweep: &SweepQuery) -> Result<GuaranteeQuery, ServeError> {
    if sweep.count < 1 {
        return Err(ServeError::invalid_query(0, "sweep count must be ≥ 1"));
    }
    if sweep.first_tick < 0 {
        return Err(ServeError::invalid_query(
            0,
            format!("sweep first_tick {} must be ≥ 0", sweep.first_tick),
        ));
    }
    if !sweep.setup.get().is_finite() || !sweep.setup.is_positive() {
        return Err(ServeError::invalid_query(
            0,
            format!("setup charge {} must be positive", sweep.setup),
        ));
    }
    if sweep.ticks_per_setup < 1 {
        return Err(ServeError::invalid_query(0, "ticks_per_setup must be ≥ 1"));
    }
    // checked_add: first_tick arrives straight off the wire, so the
    // window end must not be able to overflow i64.
    let last = sweep
        .first_tick
        .checked_add(i64::from(sweep.count) - 1)
        .filter(|&last| last <= MAX_QUERY_TICKS)
        .ok_or_else(|| {
            ServeError::invalid_query(
                0,
                format!(
                    "sweep window ends past the broker cap {MAX_QUERY_TICKS} ticks (first_tick {}, count {})",
                    sweep.first_tick, sweep.count
                ),
            )
        })?;
    let grid = Grid::new(sweep.setup, sweep.ticks_per_setup);
    let covering = GuaranteeQuery {
        setup: sweep.setup,
        ticks_per_setup: sweep.ticks_per_setup,
        interrupts: sweep.interrupts,
        lifespan: grid.to_time(last),
    };
    // The shared validator applies the resolution/interrupt/tick caps
    // identically to both wire modes.
    validate(std::slice::from_ref(&covering))?;
    Ok(covering)
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Runs one cache solve with panic containment: the fault harness's
/// solve-panic injection point sits inside the `catch_unwind`, and any
/// panic — injected or real — is converted into a counted, retryable
/// `Internal` error instead of unwinding through the broker.
fn solve_guarded(shared: &Shared, g: &GuaranteeQuery) -> Result<Arc<CompressedTable>, ServeError> {
    catch_unwind(AssertUnwindSafe(|| {
        faults::maybe_panic_solve();
        shared
            .cache
            .get_compressed(g.setup, g.ticks_per_setup, g.lifespan, g.interrupts)
    }))
    .map_err(|payload| {
        shared.res.solve_panics.fetch_add(1, Ordering::Relaxed);
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        ServeError::internal(format!("solve panicked (contained): {what}"))
    })
}

/// Resolves a grid group the cache just missed to a covering table.
/// Cold groups run single-flight coalescing: the first arrival for a
/// `(setup, Q, p_max)` key leads the solve — after taking a fairness
/// lane under its tenant's quota ([`FairGate`]) — and concurrent
/// arrivals park and reuse its result.
///
/// Failure paths: a leader whose solve panics poisons the flight and
/// returns a retryable `Internal` error; the first follower to observe
/// the poison re-resolves at `attempt + 1` — the guard already removed
/// the dead flight, so the retrier becomes (or joins) a fresh leader —
/// and a follower seeing poison at `attempt ≥ 1` solves for itself. A
/// follower whose lifespan outruns what the leader solved also falls
/// back to its own solve (rare: headroom absorbs creeping lifespans).
/// A deadline bounds the condvar wait; expiry is a retryable
/// `DeadlineExceeded`.
fn resolve_cold(
    shared: &Shared,
    ep: &Endpoint,
    g: &GuaranteeQuery,
    deadline: Option<Instant>,
    attempt: u32,
    trace_id: u64,
) -> Result<Arc<CompressedTable>, ServeError> {
    let key = SolveKey {
        setup_bits: g.setup.get().to_bits(),
        ticks_per_setup: g.ticks_per_setup,
        max_interrupts: g.interrupts,
    };
    let (flight, leader) = {
        let mut map = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
        match map.get(&key) {
            Some(flight) => (flight.clone(), false),
            None => {
                let flight = Arc::new(Flight {
                    result: StdMutex::new(None),
                    cv: Condvar::new(),
                });
                map.insert(key, flight.clone());
                (flight, true)
            }
        }
    };

    if leader {
        let guard = FlightGuard {
            shared,
            key,
            flight: flight.clone(),
        };
        // Gate the solve on the deadline *before* paying for it: a cold
        // solve that cannot finish in time would just burn a worker. The
        // guard's drop poisons the flight, so followers re-check their
        // own deadlines instead of hanging.
        if expired(deadline) {
            return Err(shared.res.deadline_exceeded("before the solve started"));
        }
        // A cold solve holds a fairness lane under its tenant's quota
        // for the whole solve; both reject paths are typed retryable
        // errors (the guard's drop un-strands any followers).
        let tenant: TenantKey = (key.setup_bits, key.ticks_per_setup);
        let t_lane = shared.obs.start_ns(trace_id);
        let _lane = match shared.fair.acquire(tenant, deadline) {
            Ok(permit) => {
                shared.obs.span(trace_id, "broker.lane", t_lane);
                permit
            }
            Err(GateReject::Quota { held }) => {
                shared.res.tenant_sheds.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::new(
                    crate::ErrorCode::Overloaded,
                    format!("tenant quota exhausted: {held} cold solves in flight for this grid"),
                ));
            }
            Err(GateReject::Deadline) => {
                return Err(shared.res.deadline_exceeded("queued for a solve lane"));
            }
        };
        let t_solve = shared.obs.start_ns(trace_id);
        let table = solve_guarded(shared, g)?;
        shared.obs.span(trace_id, "broker.solve", t_solve);
        *flight.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(Ok(table.clone()));
        drop(guard); // notifies followers, removes the flight
        return Ok(table);
    }

    ep.coalesced.inc();
    let t_flight = shared.obs.start_ns(trace_id);
    let mut result = flight.result.lock().unwrap_or_else(|e| e.into_inner());
    // Wait until the leader publishes; break *with* the value so there
    // is no "loop exited but the slot is empty" state to unwrap later.
    let outcome = loop {
        if let Some(outcome) = result.clone() {
            break outcome;
        }
        match deadline {
            None => result = flight.cv.wait(result).unwrap_or_else(|e| e.into_inner()),
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    drop(result);
                    return Err(shared.res.deadline_exceeded("waiting on a coalesced solve"));
                }
                result = flight
                    .cv
                    .wait_timeout(result, d - now)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
        }
    };
    shared.obs.span(trace_id, "broker.flight", t_flight);
    match outcome {
        // `covers` is the table's own coverage contract — the same
        // check the cache applies — so a coalesced result is never
        // returned for a range it cannot answer.
        Ok(table) if table.covers(g.lifespan) => Ok(table),
        // Leader solved a smaller lifespan than we need: pay our own
        // cache call (usually still a hit).
        Ok(_) => {
            drop(result);
            let t_solve = shared.obs.start_ns(trace_id);
            let table = solve_guarded(shared, g)?;
            shared.obs.span(trace_id, "broker.solve", t_solve);
            Ok(table)
        }
        // Poisoned flight: the dead leader's guard already removed the
        // key, so re-resolving makes (or joins) a fresh leader — the
        // "retried once by a new leader" step. A second poison means
        // the solve itself is sick: solve for ourselves so one broken
        // flight cannot starve the whole key.
        Err(()) => {
            drop(result);
            if attempt == 0 {
                shared.res.flight_retries.fetch_add(1, Ordering::Relaxed);
                match shared.cache.try_get_compressed(
                    g.setup,
                    g.ticks_per_setup,
                    g.lifespan,
                    g.interrupts,
                ) {
                    Some(table) => Ok(table),
                    None => resolve_cold(shared, ep, g, deadline, attempt + 1, trace_id),
                }
            } else {
                let t_solve = shared.obs.start_ns(trace_id);
                let table = solve_guarded(shared, g)?;
                shared.obs.span(trace_id, "broker.solve", t_solve);
                Ok(table)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::ErrorCode;
    use cyclesteal_core::time::secs;
    use std::time::Duration;

    fn q(setup: f64, ticks: u32, p: u32, lifespan: f64) -> GuaranteeQuery {
        GuaranteeQuery {
            setup: secs(setup),
            ticks_per_setup: ticks,
            interrupts: p,
            lifespan: secs(lifespan),
        }
    }

    /// Asserts each answer is bit-identical to a direct
    /// `TableCache::get_compressed` lookup of its own query.
    fn assert_matches_direct_lookups(
        broker: &Broker,
        queries: &[GuaranteeQuery],
        answers: &[GuaranteeAnswer],
    ) {
        assert_eq!(queries.len(), answers.len());
        for (query, answer) in queries.iter().zip(answers) {
            let direct = broker.cache().get_compressed(
                query.setup,
                query.ticks_per_setup,
                query.lifespan,
                query.interrupts,
            );
            let want = direct.value(query.interrupts, query.lifespan);
            assert_eq!(
                answer.value.get().to_bits(),
                want.get().to_bits(),
                "value at {query:?}"
            );
            let ticks = direct.grid().to_ticks(query.lifespan);
            assert_eq!(
                answer.value_ticks,
                direct.value_ticks(query.interrupts, ticks)
            );
        }
    }

    #[test]
    fn batch_answers_match_direct_cache_queries() {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        let queries = vec![
            q(1.0, 8, 1, 40.0),
            q(1.0, 8, 2, 100.0),
            q(1.0, 8, 2, 0.0),
            q(2.0, 4, 1, 60.0),
        ];
        let answers = broker.query_batch(&queries).unwrap();
        // Two grids → at most two solves, whatever the batch size.
        assert!(broker.cache().stats().misses <= 2);
        assert_matches_direct_lookups(&broker, &queries, &answers);

        // A batch mixing the now-resident grids (hits, answered on the
        // calling thread) with two fresh ones (misses, solved on the
        // pool), its queries interleaved across grids.
        let mixed = vec![
            q(3.0, 8, 2, 90.0),
            q(1.0, 8, 1, 30.0),
            q(0.5, 4, 1, 12.0),
            q(2.0, 4, 1, 20.0),
            q(3.0, 8, 1, 45.0),
            q(1.0, 8, 2, 100.0),
            q(0.5, 4, 3, 7.5),
        ];
        let before = broker.cache().stats();
        let answers = broker.query_batch(&mixed).unwrap();
        let after = broker.cache().stats();
        assert_eq!(after.hits - before.hits, 2, "two resident grids hit");
        assert_eq!(after.misses - before.misses, 2, "two fresh grids solve");
        assert_matches_direct_lookups(&broker, &mixed, &answers);
    }

    /// `count` distinct cheap grids (setup `1 + i/16`, `Q` 4, `L` 12).
    fn grids(count: usize) -> Vec<GuaranteeQuery> {
        (0..count)
            .map(|i| q(1.0 + i as f64 / 16.0, 4, 2, 12.0))
            .collect()
    }

    #[test]
    fn warm_batches_never_hand_off_to_the_pool() {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        let resident = grids(6);
        broker.query_batch(&resident).unwrap();
        let handoffs = broker.handoffs.get();
        let hits = broker.cache().stats().hits;
        // Two queries per grid, interleaved: still one lookup a grid.
        let warm: Vec<GuaranteeQuery> = resident
            .iter()
            .chain(&resident)
            .map(|g| GuaranteeQuery {
                interrupts: 1,
                ..*g
            })
            .collect();
        let answers = broker.query_batch(&warm).unwrap();
        assert_eq!(broker.handoffs.get() - handoffs, 0, "warm batch");
        assert_eq!(broker.cache().stats().hits - hits, 6, "one hit per grid");
        assert_eq!(broker.cache().stats().misses, 6, "the first batch only");
        assert_matches_direct_lookups(&broker, &warm, &answers);
    }

    #[test]
    fn only_two_or_more_misses_reach_the_pool() {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        let all = grids(10);
        broker.query_batch(&all[..3]).unwrap();
        assert_eq!(broker.handoffs.get(), 3, "three cold grids: three jobs");

        // Resident grids plus exactly one miss: solved inline.
        broker.query_batch(&all[..4]).unwrap();
        assert_eq!(broker.handoffs.get(), 3, "one miss adds no hand-off");
        assert_eq!(broker.cache().stats().misses, 4);

        // Resident grids plus k = 6 misses: k jobs, hits stay inline.
        let before = broker.cache().stats();
        let answers = broker.query_batch(&all).unwrap();
        let after = broker.cache().stats();
        assert_eq!(broker.handoffs.get(), 3 + 6, "k misses add k hand-offs");
        assert_eq!(after.hits - before.hits, 4);
        assert_eq!(after.misses - before.misses, 6);
        assert_matches_direct_lookups(&broker, &all, &answers);
    }

    #[test]
    fn tenant_series_fold_into_other_past_the_cap() {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        let registry = broker.obs().registry();
        let extra = 3;
        let batch = grids(MAX_TENANT_SERIES + extra);
        broker.query_batch(&batch).unwrap();
        // Again: known tenants count under their own series, folded
        // ones under "other" again.
        broker.query_batch(&batch).unwrap();
        let folded = registry
            .lookup_counter("cyclesteal_tenant_series_folded_total", &[])
            .unwrap();
        assert_eq!(folded.get(), 2 * extra as u64);
        let other = registry
            .lookup_counter("cyclesteal_tenant_queries_total", &[("tenant", "other")])
            .unwrap();
        assert_eq!(other.get(), 2 * extra as u64);
        assert_eq!(
            broker.tenants.named.read().unwrap().len(),
            MAX_TENANT_SERIES
        );
        let first = registry
            .lookup_counter("cyclesteal_tenant_queries_total", &[("tenant", "1x4")])
            .unwrap();
        assert_eq!(first.get(), 2);
    }

    #[test]
    fn invalid_queries_are_rejected_not_solved() {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        // NaN/infinite inputs cannot exist in-process (`Time::new`
        // refuses them); the wire decoder rejects those bit patterns
        // before they ever reach the broker (see `wire::finite_time`).
        let bad = [
            q(-1.0, 8, 1, 40.0),
            q(0.0, 8, 1, 40.0),
            q(1.0, 0, 1, 40.0),
            q(1.0, 8, 1, -40.0),
        ];
        for (i, query) in bad.iter().enumerate() {
            let batch = [q(1.0, 8, 1, 10.0), *query];
            let err = broker.query_batch(&batch).unwrap_err();
            assert_eq!(err.code, ErrorCode::InvalidQuery, "bad case {i}");
            assert!(!err.retryable, "bad case {i} must not invite retries");
            assert!(err.message.contains("query 1"), "names the index: {err}");
        }
        assert_eq!(broker.cache().stats().misses, 0, "nothing was solved");
    }

    #[test]
    fn oversized_queries_are_rejected_before_solving() {
        // A 24-byte frame must not be able to demand an unbounded
        // solve: the caps on tick extent, interrupts and resolution
        // all reject before any table is built.
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        let too_big = [
            q(1.0, 8, 1, 1e300),                            // astronomic lifespan
            q(1e-12, 8, 1, 1e6),                            // tiny setup ⇒ huge tick count
            q(1.0, 8, MAX_QUERY_INTERRUPTS + 1, 10.0),      // interrupt budget
            q(1.0, MAX_QUERY_TICKS_PER_SETUP + 1, 1, 10.0), // resolution
        ];
        for (i, query) in too_big.iter().enumerate() {
            assert!(broker.query_batch(&[*query]).is_err(), "cap case {i}");
        }
        assert_eq!(broker.cache().stats().misses, 0, "nothing was solved");
        // The acceptance-scale deep query (10⁹ ticks) stays well inside
        // the caps.
        let deep = q(1.0, 32, 16, 31_250_000.0);
        assert!(super::validate(&[deep]).is_ok());
    }

    #[test]
    fn expired_deadlines_reject_before_any_solve() {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        let queries = [q(1.0, 8, 1, 20.0)];
        let past = Instant::now() - Duration::from_millis(1);
        let err = broker
            .serve(&Request {
                deadline: Some(past),
                ..Request::batch(&queries)
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert!(err.retryable);
        assert_eq!(broker.cache().stats().misses, 0, "nothing was solved");
        assert_eq!(broker.stats().resilience.deadline_rejects, 1);

        // A generous deadline changes nothing about the answer.
        let future = Instant::now() + Duration::from_secs(60);
        let within = broker
            .serve(&Request {
                deadline: Some(future),
                ..Request::batch(&queries)
            })
            .unwrap();
        let without = broker.query_batch(&queries).unwrap();
        assert_eq!(within, Response::Answers(without));
    }

    #[test]
    fn the_inflight_budget_sheds_with_a_typed_overloaded_error() {
        // Budget 0 admits nothing — the degenerate case makes shedding
        // deterministic without racing threads.
        let broker = Broker::new(BrokerConfig {
            max_inflight: 1,
            ..BrokerConfig::default()
        })
        .unwrap();
        // Hold the only permit and probe from another thread.
        let permit = broker.admission.try_acquire().expect("first admit");
        let err = broker.query_batch(&[q(1.0, 8, 1, 20.0)]).unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(err.retryable);
        assert_eq!(broker.stats().resilience.shed, 1);
        drop(permit);
        // Budget released: the same batch now succeeds.
        assert!(broker.query_batch(&[q(1.0, 8, 1, 20.0)]).is_ok());
    }

    #[test]
    fn sweeps_share_batch_admission_and_the_arrival_deadline() {
        let broker = Broker::new(BrokerConfig {
            max_inflight: 1,
            ..BrokerConfig::default()
        })
        .unwrap();
        let sweep = Request::sweep(SweepQuery {
            setup: secs(2.0),
            ticks_per_setup: 4,
            interrupts: 1,
            first_tick: 3,
            count: 40,
        });
        // The single permit held: the sweep sheds like a batch.
        let permit = broker.admission.try_acquire().expect("first admit");
        let err = broker.serve(&sweep).unwrap_err();
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert!(err.retryable);
        assert_eq!(broker.stats().resilience.shed, 1);
        drop(permit);
        // Expired on arrival: rejected before any solve.
        let err = broker
            .serve(&Request {
                deadline: Some(Instant::now() - Duration::from_millis(1)),
                ..sweep.clone()
            })
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert!(err.retryable);
        assert_eq!(broker.stats().resilience.deadline_rejects, 1);
        assert_eq!(broker.cache().stats().misses, 0, "nothing was solved");
        // Neither reject leaks the permit: the sweep is then answered.
        assert!(broker.serve(&sweep).unwrap().into_runs().is_ok());
    }

    #[test]
    fn admission_permits_are_raii() {
        let admission = Admission {
            inflight: AtomicUsize::new(0),
            budget: 2,
            gauge: Gauge::new(),
        };
        let a = admission.try_acquire().expect("1st");
        let _b = admission.try_acquire().expect("2nd");
        assert!(admission.try_acquire().is_none(), "budget exhausted");
        drop(a);
        let _c = admission.try_acquire().expect("slot freed by drop");
        // A failed acquire must not leak counter increments.
        assert!(admission.try_acquire().is_none());
        assert_eq!(admission.inflight.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn stats_track_requests_and_endpoints() {
        let broker = Broker::new(BrokerConfig::default()).unwrap();
        broker.query_batch(&[q(1.0, 8, 1, 20.0)]).unwrap();
        broker
            .serve(&Request {
                endpoint: "tcp",
                ..Request::batch(&[q(1.0, 8, 1, 20.0), q(1.0, 8, 1, 10.0)])
            })
            .unwrap();
        let stats = broker.stats();
        assert_eq!(stats.endpoints.len(), 2);
        let inproc = &stats.endpoints[0];
        assert_eq!(
            (inproc.endpoint.as_str(), inproc.requests, inproc.queries),
            ("inproc", 1, 1)
        );
        let tcp = &stats.endpoints[1];
        assert_eq!(
            (tcp.endpoint.as_str(), tcp.requests, tcp.queries),
            ("tcp", 1, 2)
        );
        assert!(inproc.p50_us > 0, "latency histogram recorded");
        assert!(inproc.p99_us >= inproc.p50_us);
        assert_eq!(stats.cache.hits + stats.cache.misses, 2);
        // A clean run has no resilience events.
        assert_eq!(stats.resilience, ResilienceStats::default());
    }

    #[test]
    fn fair_gate_sheds_past_the_tenant_quota_and_releases_on_drop() {
        let gate = FairGate::new(8, 2);
        let tenant: TenantKey = (1, 8);
        let a = gate.acquire(tenant, None).ok().expect("1st");
        let _b = gate.acquire(tenant, None).ok().expect("2nd");
        assert!(
            matches!(
                gate.acquire(tenant, None),
                Err(GateReject::Quota { held: 2 })
            ),
            "3rd cold solve for the grid must shed"
        );
        // A different tenant is unaffected by the first one's quota.
        let other: TenantKey = (2, 8);
        let _c = gate.acquire(other, None).ok().expect("other tenant");
        drop(a);
        let _d = gate.acquire(tenant, None).ok().expect("slot freed by drop");
    }

    #[test]
    fn fair_gate_releases_queued_tenants_round_robin() {
        use std::sync::mpsc;
        let gate = Arc::new(FairGate::new(1, 4));
        let hog: TenantKey = (1, 8);
        let other: TenantKey = (2, 8);
        let first = gate.acquire(hog, None).ok().expect("lane taken");
        let (tx, rx) = mpsc::channel::<&'static str>();
        std::thread::scope(|scope| {
            // The hog queues two more solves *before* the other tenant
            // arrives; round-robin must still alternate hog → other.
            let g1 = gate.clone();
            let t1 = tx.clone();
            scope.spawn(move || {
                let p = g1.acquire(hog, None).ok().expect("hog #2");
                t1.send("hog").ok();
                std::thread::sleep(Duration::from_millis(5));
                drop(p);
            });
            // Give the first hog waiter time to enqueue.
            std::thread::sleep(Duration::from_millis(20));
            let g2 = gate.clone();
            let t2 = tx.clone();
            scope.spawn(move || {
                let p = g2.acquire(hog, None).ok().expect("hog #3");
                t2.send("hog").ok();
                std::thread::sleep(Duration::from_millis(5));
                drop(p);
            });
            std::thread::sleep(Duration::from_millis(20));
            let g3 = gate.clone();
            let t3 = tx.clone();
            scope.spawn(move || {
                let p = g3.acquire(other, None).ok().expect("other tenant");
                t3.send("other").ok();
                std::thread::sleep(Duration::from_millis(5));
                drop(p);
            });
            std::thread::sleep(Duration::from_millis(20));
            drop(first);
        });
        let order: Vec<&str> = rx.try_iter().collect();
        assert_eq!(order.len(), 3);
        assert_eq!(
            order[1], "other",
            "the other tenant must not wait behind the hog's whole queue: {order:?}"
        );
    }

    #[test]
    fn warm_hits_bypass_quota_while_a_tenant_is_saturated() {
        // Quota 1 and one lane: tenant A's cold solve both fills its
        // quota and occupies the only lane. Tenant B's *warm* query
        // must still be answered (fast lane), and A's own warm queries
        // too — quotas govern solves, never lookups.
        let broker = Broker::new(BrokerConfig {
            tenant_quota: 1,
            solve_lanes: 1,
            ..BrokerConfig::default()
        })
        .unwrap();
        // Warm both grids.
        broker.query_batch(&[q(1.0, 8, 2, 50.0)]).unwrap();
        broker.query_batch(&[q(2.0, 8, 2, 50.0)]).unwrap();
        // Saturate the gate by hand: pretend tenant A leads a solve.
        let tenant_a: TenantKey = (secs(1.0).get().to_bits(), 8);
        let _lane = broker.shared.fair.acquire(tenant_a, None).ok().unwrap();
        assert!(matches!(
            broker.shared.fair.acquire(tenant_a, None),
            Err(GateReject::Quota { .. })
        ));
        // Warm queries of both tenants sail through regardless.
        assert!(broker.query_batch(&[q(1.0, 8, 1, 40.0)]).is_ok());
        assert!(broker.query_batch(&[q(2.0, 8, 1, 40.0)]).is_ok());
        assert_eq!(broker.stats().resilience.tenant_sheds, 0);
    }

    #[test]
    fn a_queued_cold_solve_respects_its_deadline() {
        let gate = FairGate::new(1, 4);
        let hold = gate.acquire((1, 8), None).ok().expect("lane");
        let deadline = Instant::now() + Duration::from_millis(30);
        let start = Instant::now();
        let rejected = gate.acquire((2, 8), Some(deadline));
        assert!(matches!(rejected, Err(GateReject::Deadline)));
        assert!(start.elapsed() >= Duration::from_millis(25));
        drop(hold);
        // The expired waiter left no residue: the lane is free again.
        assert!(gate.acquire((2, 8), None).is_ok());
    }

    #[test]
    fn concurrent_same_key_requests_coalesce() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        // A moderately expensive grid so the flights genuinely overlap.
        let query = q(1.0, 16, 3, 20_000.0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let broker = broker.clone();
                scope.spawn(move || broker.query_batch(&[query]).unwrap());
            }
        });
        let stats = broker.stats();
        // Single-flight: the 8 concurrent requests ran ≤ … well, at
        // least one coalesced or hit the cache; never 8 solves.
        assert!(
            stats.cache.misses < 8,
            "8 identical requests must not run 8 solves (got {})",
            stats.cache.misses
        );
        let answers: Vec<_> = (0..3)
            .map(|_| broker.query_batch(&[query]).unwrap()[0])
            .collect();
        assert!(answers.windows(2).all(|w| w[0] == w[1]));
    }
}
