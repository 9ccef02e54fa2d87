//! TCP transport: [`Server`] binds a listener and serves the broker
//! over the [`crate::wire`] framing; [`Client`] is the matching caller.
//!
//! Threading model: **one blocking thread per connection**. An
//! acceptor thread blocks in `accept` and hands each new connection a
//! named thread of its own, which reads until a full frame parses,
//! runs the request against the broker inline, writes the response and
//! goes back to reading. The kernel wakes a connection's thread the
//! moment its bytes land, so nothing polls: an idle server, however
//! many connections it holds open, wakes never. The trade is memory
//! for CPU — each open connection costs one parked thread (~26 KB of
//! resident stack and bookkeeping) where a polling loop would spend a
//! slice of a core checking it. Each connection runs at most one
//! request at a time, so responses stay in request order and
//! pipelining depth is the client's choice; the broker's
//! [`crate::BrokerConfig::max_inflight`] bounds how many requests are
//! inside the broker at once. The *solves* all funnel through the
//! broker's shared worker pool and cache, so a hundred connections
//! still coalesce onto one solve per `(setup, Q, p_max)` key.
//! Connection counts are exported as `cyclesteal_server_connections`
//! (open now), `cyclesteal_server_connections_accepted_total` and
//! `cyclesteal_server_connections_closed_total{reason}`.
//! [`Server::shutdown`] stops accepting and shuts down every open
//! connection's socket; clients see the close as a transient error and
//! reconnect-retry.
//!
//! ## Failure semantics
//!
//! * **Timeouts.** The [`ServerConfig`] timeouts are the connection's
//!   socket timeouts. The read timeout bounds how long a connection may
//!   sit idle (or a peer may stall mid-frame) before the server closes
//!   it; the write timeout bounds how long a response may go without
//!   the peer accepting a byte. A laggard parks only its own thread.
//!   Client-side socket timeouts ([`ClientConfig`]) surface as
//!   transient, retried errors.
//! * **Typed errors.** Request failures answer a typed error frame
//!   ([`crate::ServeError`]: code + retryable flag + message) on a
//!   still-healthy connection; only *framing* damage tears the
//!   connection down.
//! * **Retry.** [`Client`] transparently retries transient transport
//!   errors (connection reset/refused, timeouts, truncated or
//!   CRC-corrupt frames) and typed retryable errors, with capped
//!   exponential backoff and seeded full jitter ([`RetryPolicy`]),
//!   reconnecting when the stream may be out of sync. Deadlines ride
//!   the wire as relative budgets ([`Client::send`]), anchored when
//!   the server parses the frame ([`wire::decode_request`]), so time
//!   spent before the broker call (an injected read delay, say) counts
//!   against them.
//! * **Accept survival.** Transient `accept()` failures (EMFILE,
//!   ECONNABORTED) back off — doubling up to a cap — and keep
//!   accepting; only [`Server::shutdown`] stops the listener. A
//!   connection whose thread cannot be spawned is closed and counted
//!   (`reason="spawn_failed"`); the server keeps serving the rest.

use crate::broker::{
    Broker, BrokerStats, GuaranteeAnswer, GuaranteeQuery, Request, RequestBody, Response,
    SweepQuery,
};
use crate::errors::ServeError;
use crate::faults::{self, FaultPoint};
use crate::wire;
use cyclesteal_obs::{Counter, Gauge, Registry, SpanRecord};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server connection-handling options.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// How long a connection may sit idle (or a peer may stall
    /// mid-frame) before the server closes it. `None` = wait forever —
    /// only for trusted peers.
    pub read_timeout: Option<Duration>,
    /// How long a response may go without the peer accepting a single
    /// byte before the server closes the connection.
    pub write_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// A running TCP front-end over a shared [`Broker`].
pub struct Server {
    local_addr: SocketAddr,
    conns: Arc<Connections>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting connections against `broker`, with the default
    /// [`ServerConfig`] timeouts.
    pub fn start(addr: impl ToSocketAddrs, broker: Arc<Broker>) -> io::Result<Server> {
        Server::start_with(addr, broker, ServerConfig::default())
    }

    /// [`Server::start`] with explicit connection-handling options.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        broker: Arc<Broker>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let conns = Arc::new(Connections {
            stop: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
            metrics: ConnMetrics::new(broker.obs().registry()),
        });
        let acceptor = std::thread::Builder::new()
            .name("cyclesteal-accept".into())
            .spawn({
                let conns = conns.clone();
                move || accept_loop(&listener, &broker, config, &conns)
            })?;
        Ok(Server {
            local_addr,
            conns,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes the listener, and shuts down every open
    /// connection's socket. Clients observe the close as a transient
    /// transport error and reconnect-retry against the next server
    /// instance. A broker call already in progress is not waited for:
    /// its connection thread finds the socket shut when it goes to
    /// write the response, and exits.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.conns.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept` (or an error backoff) so it
        // sees the flag. If the self-connect fails the acceptor is left
        // to exit on its next accept rather than joined forever.
        acceptor.thread().unpark();
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
            let _ = acceptor.join();
        }
        for stream in self.conns.live_streams().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Why a connection closed. The discriminant indexes
/// [`CLOSE_REASONS`], the `reason` labels of
/// `cyclesteal_server_connections_closed_total`.
#[derive(Clone, Copy, Debug)]
enum CloseReason {
    /// The peer hung up.
    Eof,
    /// A socket read or write timeout expired.
    Timeout,
    /// Any other I/O error.
    Error,
    /// An impossible frame length or a CRC mismatch.
    Framing,
    /// An injected drop ([`FaultPoint::DropConnection`]).
    Dropped,
    /// The connection's thread could not be spawned.
    SpawnFailed,
    /// [`Server::shutdown`] closed it.
    Shutdown,
}

/// The `reason` label of each [`CloseReason`], in discriminant order.
const CLOSE_REASONS: [&str; 7] = [
    "eof",
    "timeout",
    "error",
    "framing",
    "dropped",
    "spawn_failed",
    "shutdown",
];

impl CloseReason {
    /// A failed socket read or write: an expired socket timeout reads
    /// as `WouldBlock` (or `TimedOut`), anything else is an error.
    fn of_io(err: &io::Error) -> CloseReason {
        match err.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => CloseReason::Timeout,
            _ => CloseReason::Error,
        }
    }
}

/// The server's connection registry handles, taken once before the
/// acceptor starts. `accepted − Σ closed = open` whenever no connection
/// is between the two updates.
struct ConnMetrics {
    open: Gauge,
    accepted: Counter,
    /// Indexed like [`CLOSE_REASONS`].
    closed: [Counter; 7],
}

impl ConnMetrics {
    fn new(registry: &Registry) -> ConnMetrics {
        ConnMetrics {
            open: registry.gauge("cyclesteal_server_connections"),
            accepted: registry.counter("cyclesteal_server_connections_accepted_total"),
            closed: CLOSE_REASONS.map(|reason| {
                registry.counter_with(
                    "cyclesteal_server_connections_closed_total",
                    &[("reason", reason)],
                )
            }),
        }
    }
}

/// What the acceptor, the connection threads and [`Server::shutdown`]
/// share: the stop flag, every open connection's socket (so shutdown
/// can close them), and the connection counters.
struct Connections {
    stop: AtomicBool,
    live: Mutex<HashMap<u64, Arc<TcpStream>>>,
    metrics: ConnMetrics,
}

impl Connections {
    fn live_streams(&self) -> MutexGuard<'_, HashMap<u64, Arc<TcpStream>>> {
        self.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn open(&self, id: u64, stream: Arc<TcpStream>) {
        self.metrics.accepted.inc();
        self.metrics.open.inc();
        self.live_streams().insert(id, stream);
    }

    /// Forgets connection `id` and counts its close. A close while the
    /// server is stopping counts as `shutdown`, whatever the socket said.
    fn close(&self, id: u64, reason: CloseReason) {
        self.live_streams().remove(&id);
        let reason = if self.stop.load(Ordering::SeqCst) {
            CloseReason::Shutdown
        } else {
            reason
        };
        self.metrics.closed[reason as usize].inc();
        self.metrics.open.dec();
    }
}

/// Don't buffer more inbound bytes than one maximal frame: a peer that
/// pipelines past the request being served is backpressured by TCP
/// instead of growing the accumulator unboundedly.
const MAX_CONN_BUFFER: usize = wire::MAX_FRAME_BYTES as usize + 8;

/// The acceptor: blocks in `accept` and gives every new connection a
/// thread of its own, until the stop flag.
fn accept_loop(
    listener: &TcpListener,
    broker: &Arc<Broker>,
    config: ServerConfig,
    conns: &Arc<Connections>,
) {
    // accept() can fail transiently under load (ECONNABORTED on a reset
    // handshake, EMFILE on fd exhaustion). Dropping the listener over
    // one of those would silently refuse every future connection, so
    // *no* error stops accepting — failures just back off, doubling up
    // to a cap, while open connections keep serving.
    const ERROR_BACKOFF_CAP: Duration = Duration::from_secs(1);
    let mut error_backoff = Duration::from_millis(10);
    let mut next_id: u64 = 0;
    loop {
        let accepted = listener.accept();
        if conns.stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => Arc::new(stream),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Parked rather than slept, so shutdown can cut it short.
                std::thread::park_timeout(error_backoff);
                error_backoff = (error_backoff * 2).min(ERROR_BACKOFF_CAP);
                continue;
            }
        };
        error_backoff = Duration::from_millis(10);
        let id = next_id;
        next_id += 1;
        conns.open(id, stream.clone());
        let spawned = std::thread::Builder::new()
            .name(format!("cyclesteal-conn-{id}"))
            .spawn({
                let (broker, conns) = (broker.clone(), conns.clone());
                move || conns.close(id, serve_connection(&stream, &broker, config))
            });
        if spawned.is_err() {
            conns.close(id, CloseReason::SpawnFailed);
        }
    }
}

/// One connection's thread: read until a frame parses, answer it, and
/// repeat until the peer hangs up, a socket timeout expires, the
/// framing breaks or an injected drop fires. The fault-injection points
/// (read delay, drop-before-response, corrupt-frame) live here, inert
/// unless a [`crate::FaultPlan`] is armed.
fn serve_connection(stream: &TcpStream, broker: &Broker, config: ServerConfig) -> CloseReason {
    // A zero timeout is not a valid socket option; the shortest one is.
    let at_least_1ns = |t: Option<Duration>| t.map(|t| t.max(Duration::from_nanos(1)));
    stream.set_nodelay(true).ok();
    if stream
        .set_read_timeout(at_least_1ns(config.read_timeout))
        .and_then(|()| stream.set_write_timeout(at_least_1ns(config.write_timeout)))
        .is_err()
    {
        return CloseReason::Error;
    }
    let obs = broker.obs();
    let mut inbound: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    let mut reader = stream;
    loop {
        // A malformed *payload* answers a typed error frame and keeps
        // the connection; *framing* damage (impossible length, CRC
        // mismatch) tears it down — the stream is unrecoverable.
        let payload = match wire::parse_frame(&inbound) {
            Ok(Some((payload, consumed))) => {
                inbound.drain(..consumed);
                payload
            }
            Ok(None) => {
                // An incomplete frame is shorter than MAX_CONN_BUFFER,
                // so there is always room for at least one byte.
                let room = (MAX_CONN_BUFFER - inbound.len()).min(scratch.len());
                match reader.read(&mut scratch[..room]) {
                    Ok(0) => return CloseReason::Eof,
                    Ok(n) => inbound.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return CloseReason::of_io(&e),
                }
                continue;
            }
            Err(_) => return CloseReason::Framing,
        };
        let recv_ns = obs.now_ns();
        let parsed_at = Instant::now();
        if let Some(delay) = faults::read_delay() {
            std::thread::sleep(delay);
        }
        let response = handle_request(&payload, recv_ns, parsed_at, broker);
        if faults::should(FaultPoint::DropConnection) {
            // Injected mid-exchange drop: close without responding —
            // the client sees a truncated session.
            return CloseReason::Dropped;
        }
        let mut frame = wire::frame_bytes(&response);
        if faults::should(FaultPoint::CorruptFrame) {
            // Injected wire damage: flip one byte of the encoded frame.
            // The frame CRC guarantees the client detects it.
            let pos = faults::corrupt_position(frame.len());
            frame[pos] ^= 0x01;
        }
        let mut writer = stream;
        if let Err(e) = writer.write_all(&frame) {
            return CloseReason::of_io(&e);
        }
    }
}

/// Answers one request payload. `recv_ns` (hub clock) starts the
/// request's `server.recv` span (frame parse → request start), and
/// `parsed_at` anchors its wire deadline budget.
fn handle_request(payload: &[u8], recv_ns: u64, parsed_at: Instant, broker: &Broker) -> Vec<u8> {
    let obs = broker.obs();
    match payload.split_first() {
        Some((&(wire::OP_QUERY_BATCH | wire::OP_SWEEP), _)) => {
            let mut request = match wire::decode_request(payload, parsed_at) {
                Ok(request) => request,
                Err(e) => {
                    let error = ServeError::malformed(format!("malformed request: {e}"));
                    return wire::encode_error(&error);
                }
            };
            // A request arriving untraced (legacy frame or trace id 0)
            // still gets a server-assigned id, so every TCP request is
            // followable through the pipeline.
            if request.trace_id == 0 {
                request.trace_id = obs.assign_trace_id();
            }
            obs.span(request.trace_id, "server.recv", recv_ns);
            let t_dispatch = obs.start_ns(request.trace_id);
            let outcome = broker.serve(&request);
            obs.span(request.trace_id, "server.dispatch", t_dispatch);
            match outcome {
                Ok(Response::Answers(answers)) => wire::encode_answers(&answers),
                // A window too jagged to fit one frame is the request's
                // problem (narrow it), not a transport fault — reject
                // before encoding, so frame_bytes never sees an over-cap
                // payload.
                Ok(Response::Runs(runs)) if runs.len() > wire::MAX_SWEEP_RUNS => {
                    wire::encode_error(&ServeError::invalid_query(
                        0,
                        format!(
                            "sweep produced {} runs, over the {}-run frame cap — narrow the window",
                            runs.len(),
                            wire::MAX_SWEEP_RUNS
                        ),
                    ))
                }
                Ok(Response::Runs(runs)) => wire::encode_runs(&runs),
                Err(e) => wire::encode_error(&e),
            }
        }
        Some((&wire::OP_STATS, [])) => wire::encode_stats(&broker.stats()),
        Some((&wire::OP_STATS, _)) => {
            wire::encode_error(&ServeError::malformed("stats request carries no body"))
        }
        Some((&wire::OP_METRICS, [])) => {
            let (text, spans) = broker.metrics_snapshot();
            wire::encode_metrics(&text, &spans)
        }
        Some((&wire::OP_METRICS, _)) => {
            wire::encode_error(&ServeError::malformed("metrics request carries no body"))
        }
        Some((op, _)) => wire::encode_error(&ServeError::malformed(format!("unknown opcode {op}"))),
        None => wire::encode_error(&ServeError::malformed("empty request")),
    }
}

/// Client retry policy: capped exponential backoff with seeded **full
/// jitter** — attempt `k` sleeps uniformly in
/// `(0, min(base·2ᵏ, max)]`, with the uniform draw coming from a
/// deterministic splitmix64 stream over `seed`. Seeded jitter keeps
/// retry storms decorrelated across clients (give each a different
/// seed) while staying reproducible in tests.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = never retry).
    pub max_retries: u32,
    /// Backoff cap doubles from here.
    pub base_delay: Duration,
    /// Backoff cap never exceeds this.
    pub max_delay: Duration,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x1CEB_00DA,
        }
    }
}

impl RetryPolicy {
    /// The deterministic jittered sleep before retry number `attempt`
    /// (0-based), where `n` indexes the jitter stream (monotone across
    /// the client's lifetime so repeated retry rounds keep fresh
    /// jitter).
    fn backoff(&self, attempt: u32, n: u64) -> Duration {
        let cap = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        let cap_ns = cap.as_nanos().max(1) as u64;
        Duration::from_nanos(faults::splitmix64(self.seed ^ n) % cap_ns + 1)
    }
}

/// Client construction options.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// How long one response read may block. `None` = wait forever.
    pub read_timeout: Option<Duration>,
    /// How long one request write may block.
    pub write_timeout: Option<Duration>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::default(),
        }
    }
}

/// A blocking client for the [`Server`]'s wire protocol. One request at
/// a time per client; open several clients (they're cheap) for
/// concurrent load. Transient failures are retried per the configured
/// [`RetryPolicy`], reconnecting when the transport may be out of sync.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conn: Option<Conn>,
    /// Monotone jitter-stream index (see [`RetryPolicy::backoff`]).
    jitter_n: u64,
    /// Monotone trace-id stream index: each logical request draws one
    /// id, so every retry of that request shares its trace.
    next_trace: u64,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Transport-level failures worth a reconnect-and-retry: the connection
/// died, stalled, or delivered provably damaged bytes — none of which
/// says anything about the *request* being wrong.
fn transient(err: &io::Error) -> bool {
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

impl Client {
    /// Connects to a running server with the default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// [`Client::connect`] with explicit timeout/retry options. The
    /// first connection is dialed eagerly (so an unreachable address
    /// errors here); later reconnects happen lazily inside the retry
    /// loop.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "address resolved empty"))?;
        let mut client = Client {
            addr,
            config,
            conn: None,
            jitter_n: 0,
            next_trace: 0,
        };
        client.conn = Some(client.dial()?);
        Ok(client)
    }

    fn dial(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.config.read_timeout)?;
        stream.set_write_timeout(self.config.write_timeout)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Runs `op` against a live connection, retrying per the policy.
    /// Typed retryable server errors retry on the *same* connection
    /// (the frame was intact — the stream is still in sync); transport
    /// errors drop the connection and redial, because after a
    /// truncated or corrupt frame the stream position is unreliable.
    fn with_retry<T>(&mut self, mut op: impl FnMut(&mut Conn) -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let result = {
                match self.ensure_conn() {
                    Ok(conn) => op(conn),
                    Err(e) => Err(e),
                }
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let typed_retryable = ServeError::from_io(&err).map(|se| se.retryable);
            if typed_retryable.is_none() {
                self.conn = None;
            }
            let retryable = typed_retryable.unwrap_or_else(|| transient(&err));
            if !retryable || attempt >= self.config.retry.max_retries {
                return Err(err);
            }
            let n = self.jitter_n;
            self.jitter_n += 1;
            std::thread::sleep(self.config.retry.backoff(attempt, n));
            attempt += 1;
        }
    }

    fn ensure_conn(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            self.conn = Some(self.dial()?);
        }
        // Unreachable after the fill above, but kept a typed error: the
        // client's contract (like the broker's) is to never panic.
        self.conn
            .as_mut()
            .ok_or_else(|| io::Error::other("connection slot empty after dial"))
    }

    /// Sends one request and returns the server's response, retrying
    /// transient failures. The request's deadline travels as the budget
    /// left until it, measured once here and re-armed fresh on every
    /// retry attempt; the server rejects (typed, retryable
    /// `DeadlineExceeded`) any attempt it cannot answer in time rather
    /// than blocking past it. A nonzero trace id rides the wire and
    /// stamps every pipeline span the request crosses server-side, the
    /// same id on every attempt, so one logical request is one trace;
    /// `0` sends a legacy untraced frame (the server still assigns its
    /// own id). The endpoint label is not sent. A response is believed
    /// only if it answers every query of a batch, or its run
    /// descriptors cover exactly the sweep's window; anything else is a
    /// server fault, surfaced as `InvalidData`.
    pub fn send(&mut self, request: &Request<'_>) -> io::Result<Response> {
        let deadline_us = request.deadline.map_or(wire::NO_DEADLINE_US, |deadline| {
            let left = deadline.saturating_duration_since(Instant::now());
            u64::try_from(left.as_nanos().div_ceil(1000))
                .unwrap_or(u64::MAX)
                .max(1)
        });
        let bytes = wire::encode_request(&request.body, deadline_us, request.trace_id);
        self.with_retry(|conn| {
            let response = round_trip(conn, &bytes)?;
            match &request.body {
                RequestBody::Batch(queries) => {
                    let answers = wire::decode_answers(&response)?;
                    if answers.len() != queries.len() {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "answer count does not match query count",
                        ));
                    }
                    Ok(Response::Answers(answers))
                }
                RequestBody::Sweep(sweep) => {
                    let runs = wire::decode_runs(&response)?;
                    let covered: u64 = runs.iter().map(|r| r.len.max(0) as u64).sum();
                    if covered != u64::from(sweep.count) || runs.iter().any(|r| r.len < 1) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "run descriptors do not cover the requested window",
                        ));
                    }
                    Ok(Response::Runs(runs))
                }
            }
        })
    }

    /// Sends one batch of queries and returns the answers in input
    /// order: [`Client::send`] under a fresh trace id, with no
    /// deadline. Values cross the wire as IEEE bit patterns, so what
    /// the broker computed is exactly what this returns.
    pub fn query_batch(&mut self, queries: &[GuaranteeQuery]) -> io::Result<Vec<GuaranteeAnswer>> {
        let request = Request {
            trace_id: self.draw_trace_id(),
            ..Request::batch(queries)
        };
        Ok(self.send(&request)?.into_answers()?)
    }

    /// [`Client::send`] for a batch under an explicit trace id, with
    /// `deadline` as the budget (re-armed on every retry attempt).
    pub fn query_batch_traced(
        &mut self,
        queries: &[GuaranteeQuery],
        deadline: Option<Duration>,
        trace_id: u64,
    ) -> io::Result<Vec<GuaranteeAnswer>> {
        let request = Request {
            deadline: deadline.and_then(|budget| Instant::now().checked_add(budget)),
            trace_id,
            ..Request::batch(queries)
        };
        Ok(self.send(&request)?.into_answers()?)
    }

    /// Sends one streaming sweep (op 3) under a fresh trace id and
    /// returns the exact tick staircase of the window, expanded
    /// client-side from the run descriptors the server streamed
    /// ([`cyclesteal_dp::expand_value_runs`]) — bit-identical to asking
    /// [`Client::query_batch`] for every tick of the window, at
    /// `O(runs)` wire bytes instead of `O(count)`.
    pub fn query_sweep(&mut self, sweep: &SweepQuery) -> io::Result<Vec<i64>> {
        let request = Request {
            trace_id: self.draw_trace_id(),
            ..Request::sweep(*sweep)
        };
        let runs = self.send(&request)?.into_runs()?;
        Ok(cyclesteal_dp::expand_value_runs(&runs))
    }

    /// Fetches the broker's per-endpoint, cache and resilience stats,
    /// retrying transient failures.
    pub fn stats(&mut self) -> io::Result<BrokerStats> {
        self.with_retry(|conn| {
            let response = round_trip(conn, &[wire::OP_STATS])?;
            wire::decode_stats(&response)
        })
    }

    /// Pulls the server's observability snapshot (op 4): the metrics
    /// registry's text exposition plus the recent trace-span journal.
    /// Parse the text with [`cyclesteal_obs::parse_exposition`].
    pub fn fetch_metrics(&mut self) -> io::Result<(String, Vec<SpanRecord>)> {
        self.with_retry(|conn| {
            let response = round_trip(conn, &[wire::OP_METRICS])?;
            wire::decode_metrics(&response)
        })
    }

    /// A fresh nonzero trace id for one logical request — a well-mixed
    /// splitmix64 draw over the retry seed, so concurrent clients with
    /// distinct seeds emit disjoint id streams.
    fn draw_trace_id(&mut self) -> u64 {
        let n = self.next_trace;
        self.next_trace += 1;
        faults::splitmix64(self.config.retry.seed ^ n.rotate_left(17) ^ 0x7EAC_E1D5).max(1)
    }
}

fn round_trip(conn: &mut Conn, request: &[u8]) -> io::Result<Vec<u8>> {
    wire::write_frame(&mut conn.writer, request)?;
    wire::read_frame(&mut conn.reader)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed mid-request"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerConfig;
    use crate::errors::ErrorCode;
    use cyclesteal_core::time::secs;

    fn query(p: u32, lifespan: f64) -> GuaranteeQuery {
        GuaranteeQuery {
            setup: secs(1.0),
            ticks_per_setup: 8,
            interrupts: p,
            lifespan: secs(lifespan),
        }
    }

    #[test]
    fn tcp_round_trip_matches_in_process_broker() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let queries: Vec<GuaranteeQuery> = (1..=3).map(|p| query(p, 40.0 * p as f64)).collect();
        let over_wire = client.query_batch(&queries).unwrap();
        let direct = broker.query_batch(&queries).unwrap();
        for (a, b) in over_wire.iter().zip(&direct) {
            assert_eq!(a.value.get().to_bits(), b.value.get().to_bits());
            assert_eq!(a.value_ticks, b.value_ticks);
        }

        let stats = client.stats().unwrap();
        assert!(stats.endpoints.iter().any(|e| e.endpoint == "tcp"));
        server.shutdown();
    }

    #[test]
    fn sweeps_stream_the_exact_staircase_over_the_wire() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        let sweep = SweepQuery {
            setup: secs(1.0),
            ticks_per_setup: 8,
            interrupts: 2,
            first_tick: 37,
            count: 500,
        };
        let over_wire = client.query_sweep(&sweep).unwrap();
        assert_eq!(over_wire.len(), 500);
        // Bit-identical to the per-tick op-1 answers for the same ticks.
        let grid = cyclesteal_dp::Grid::new(sweep.setup, sweep.ticks_per_setup);
        let queries: Vec<GuaranteeQuery> = (0..sweep.count)
            .map(|j| GuaranteeQuery {
                setup: sweep.setup,
                ticks_per_setup: sweep.ticks_per_setup,
                interrupts: sweep.interrupts,
                lifespan: grid.to_time(sweep.first_tick + i64::from(j)),
            })
            .collect();
        let dense = client.query_batch(&queries).unwrap();
        for (j, (run_value, answer)) in over_wire.iter().zip(&dense).enumerate() {
            assert_eq!(*run_value, answer.value_ticks, "tick {j}");
        }

        // An invalid window (count 0) is the typed InvalidQuery, not a
        // hang or a panic.
        let err = client
            .query_sweep(&SweepQuery { count: 0, ..sweep })
            .unwrap_err();
        assert_eq!(
            ServeError::from_io(&err).expect("typed").code,
            ErrorCode::InvalidQuery
        );
        server.shutdown();
    }

    #[test]
    fn malformed_requests_error_without_killing_the_connection() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        // Unknown opcode → typed error frame, connection stays up.
        wire::write_frame(&mut writer, &[99u8]).unwrap();
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(resp[0], wire::STATUS_ERR);
        assert_eq!(wire::decode_error(&resp[1..]).code, ErrorCode::Malformed);

        // An invalid query (negative setup) → typed error frame too.
        let bad = wire::encode_query_batch_traced(
            &[GuaranteeQuery {
                setup: secs(-1.0),
                ticks_per_setup: 8,
                interrupts: 1,
                lifespan: secs(10.0),
            }],
            wire::NO_DEADLINE_US,
            0,
        );
        wire::write_frame(&mut writer, &bad).unwrap();
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(resp[0], wire::STATUS_ERR);
        let err = wire::decode_error(&resp[1..]);
        assert_eq!(err.code, ErrorCode::InvalidQuery);
        assert!(!err.retryable);

        // And the connection still answers a good batch afterwards.
        wire::write_frame(
            &mut writer,
            &wire::encode_query_batch_traced(&[query(1, 20.0)], wire::NO_DEADLINE_US, 0),
        )
        .unwrap();
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(resp[0], wire::STATUS_OK);
        server.shutdown();
    }

    #[test]
    fn a_connection_killed_mid_frame_leaves_the_server_serving() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker).unwrap();

        // Claim a 64-byte frame, send 3 bytes, and vanish: the handler
        // sees EOF mid-frame (an error, not a hang) and dies alone.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(&64u32.to_le_bytes()).unwrap();
        stream.write_all(&[1, 2, 3]).unwrap();
        stream.flush().unwrap();
        drop(stream);

        // The server is unaffected: a fresh client gets real answers.
        let mut client = Client::connect(server.local_addr()).unwrap();
        let answers = client.query_batch(&[query(1, 20.0)]).unwrap();
        assert_eq!(answers.len(), 1);
        server.shutdown();
    }

    #[test]
    fn an_expired_wire_deadline_returns_the_typed_retryable_error() {
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start("127.0.0.1:0", broker.clone()).unwrap();
        // max_retries 0: surface the first typed error instead of
        // burning retries on a deadline that can never be met.
        let mut client = Client::connect_with(
            server.local_addr(),
            ClientConfig {
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                ..ClientConfig::default()
            },
        )
        .unwrap();
        // A 1 µs budget is spent before the broker even sees the batch.
        let err = client
            .send(&Request {
                deadline: Some(Instant::now() + Duration::from_micros(1)),
                ..Request::batch(&[query(1, 20.0)])
            })
            .unwrap_err();
        let typed = ServeError::from_io(&err).expect("typed error over the wire");
        assert_eq!(typed.code, ErrorCode::DeadlineExceeded);
        assert!(typed.retryable);
        assert!(broker.stats().resilience.deadline_rejects >= 1);
        server.shutdown();
    }

    /// A stand-in server that answers request frames with `replies`, in
    /// order, across as many connections as the client dials, and
    /// returns every request payload it read.
    fn scripted_server(replies: Vec<Vec<u8>>) -> (SocketAddr, JoinHandle<Vec<Vec<u8>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = std::thread::spawn(move || {
            let mut requests = Vec::new();
            let mut replies = replies.into_iter().peekable();
            while replies.peek().is_some() {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                while let Ok(Some(request)) = wire::read_frame(&mut reader) {
                    requests.push(request);
                    let Some(reply) = replies.next() else { break };
                    wire::write_frame(&mut writer, &reply).unwrap();
                }
            }
            requests
        });
        (addr, script)
    }

    fn client_retrying(addr: SocketAddr, max_retries: u32) -> Client {
        let retry = RetryPolicy {
            max_retries,
            base_delay: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        Client::connect_with(
            addr,
            ClientConfig {
                retry,
                ..ClientConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn send_re_arms_the_same_budget_and_trace_id_on_every_retry() {
        let answer = GuaranteeAnswer {
            value: secs(3.5),
            value_ticks: 28,
        };
        let (addr, script) = scripted_server(vec![
            wire::encode_error(&ServeError::overloaded(1, 1)),
            wire::encode_answers(&[answer]),
        ]);
        let mut client = client_retrying(addr, 1);
        let queries = [query(1, 20.0)];
        let request = Request {
            deadline: Some(Instant::now() + Duration::from_millis(250)),
            trace_id: 7,
            ..Request::batch(&queries)
        };
        let response = client.send(&request).unwrap();
        assert_eq!(response, Response::Answers(vec![answer]));
        drop(client);
        // The typed retryable error was retried with the very same
        // bytes: the same budget (not what was left of it) and trace.
        let requests = script.join().unwrap();
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[0], requests[1]);
        let parsed_at = Instant::now();
        let sent = wire::decode_request(&requests[0], parsed_at).unwrap();
        assert_eq!(sent.trace_id, 7);
        let budget = sent.deadline.unwrap() - parsed_at;
        assert!(
            budget > Duration::from_millis(200) && budget <= Duration::from_millis(250),
            "budget {budget:?}"
        );
    }

    #[test]
    fn send_believes_only_replies_that_answer_the_whole_request() {
        let answer = GuaranteeAnswer {
            value: secs(1.0),
            value_ticks: 8,
        };
        let short_run = cyclesteal_dp::ValueRun {
            start: 0,
            step: 1,
            len: 9,
        };
        let (addr, script) = scripted_server(vec![
            wire::encode_answers(&[answer, answer]),
            wire::encode_runs(&[short_run]),
        ]);
        let mut client = client_retrying(addr, 0);
        let sweep = SweepQuery {
            setup: secs(1.0),
            ticks_per_setup: 8,
            interrupts: 2,
            first_tick: 0,
            count: 10,
        };
        for request in [Request::batch(&[query(1, 20.0)]), Request::sweep(sweep)] {
            let err = client.send(&request).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(ServeError::from_io(&err).is_none(), "a transport fault");
        }
        drop(client);
        assert_eq!(script.join().unwrap().len(), 2);
    }

    /// Waits (generously) until `counter` reaches `want`.
    fn wait_for(counter: &Counter, want: u64) {
        let give_up = Instant::now() + Duration::from_secs(30);
        while counter.get() < want {
            assert!(
                Instant::now() < give_up,
                "counter stuck at {} of {want}",
                counter.get()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Socket timeouts close stalled and silent peers, and a stalled
    /// peer parks only its own thread: while 32 peers sit on half a
    /// frame and 8 more pipeline sweeps they never read, a fresh client
    /// gets bit-identical answers, and then every stalled peer is
    /// closed with `reason="timeout"`.
    #[test]
    fn stalled_and_silent_peers_time_out_without_holding_up_anyone() {
        const HALF_FRAMES: usize = 32;
        const NON_READERS: usize = 8;
        // 64 pipelined sweeps of ~180 KB each outgrow loopback's socket
        // buffers, so the server's write stalls on the write timeout.
        const SWEEPS_PER_NON_READER: usize = 64;
        let limit = Some(Duration::from_millis(200));
        let broker = Arc::new(Broker::new(BrokerConfig::default()).unwrap());
        let server = Server::start_with(
            "127.0.0.1:0",
            broker.clone(),
            ServerConfig {
                read_timeout: limit,
                write_timeout: limit,
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let timeouts = broker
            .obs()
            .registry()
            .lookup_counter(
                "cyclesteal_server_connections_closed_total",
                &[("reason", "timeout")],
            )
            .expect("registered before the acceptor starts");

        let frame = |payload: Vec<u8>| {
            let mut bytes = Vec::new();
            wire::write_frame(&mut bytes, &payload).unwrap();
            bytes
        };
        let batch = frame(wire::encode_query_batch_traced(
            &[query(2, 60.0)],
            wire::NO_DEADLINE_US,
            0,
        ));
        let sweep = frame(wire::encode_request(
            &RequestBody::Sweep(SweepQuery {
                setup: secs(1.0),
                ticks_per_setup: 8,
                interrupts: 3,
                first_tick: 0,
                count: 200_000,
            }),
            wire::NO_DEADLINE_US,
            0,
        ));
        let mut stalled = Vec::new();
        for _ in 0..HALF_FRAMES {
            let mut peer = TcpStream::connect(addr).unwrap();
            peer.write_all(&batch[..batch.len() / 2]).unwrap();
            stalled.push(peer);
        }
        for _ in 0..NON_READERS {
            let mut peer = TcpStream::connect(addr).unwrap();
            for _ in 0..SWEEPS_PER_NON_READER {
                peer.write_all(&sweep).unwrap();
            }
            stalled.push(peer);
        }

        let mut client = Client::connect(addr).unwrap();
        let queries: Vec<GuaranteeQuery> = (1..=3).map(|p| query(p, 50.0 * p as f64)).collect();
        let over_wire = client.query_batch(&queries).unwrap();
        for (a, b) in over_wire.iter().zip(&broker.query_batch(&queries).unwrap()) {
            assert_eq!(a.value.get().to_bits(), b.value.get().to_bits());
            assert_eq!(a.value_ticks, b.value_ticks);
        }
        drop(client);

        wait_for(&timeouts, (HALF_FRAMES + NON_READERS) as u64);
        // Each stalled peer sees its connection closed: after whatever
        // responses made it out, a FIN or a reset — never our own
        // read timeout.
        let mut sink = vec![0u8; 64 * 1024];
        for mut peer in stalled {
            peer.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            loop {
                match peer.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) => {
                        assert!(
                            !matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ),
                            "the server never closed a stalled peer"
                        );
                        break;
                    }
                }
            }
        }
        server.shutdown();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            seed: 7,
        };
        for attempt in 0..8 {
            let cap = Duration::from_millis(10)
                .saturating_mul(1 << attempt)
                .min(Duration::from_millis(80));
            let d = policy.backoff(attempt, attempt as u64);
            assert!(d > Duration::ZERO && d <= cap, "attempt {attempt}: {d:?}");
            // Same (seed, stream index) → same delay.
            assert_eq!(d, policy.backoff(attempt, attempt as u64));
        }
        // Distinct stream indices decorrelate the jitter.
        let a: Vec<_> = (0..16).map(|n| policy.backoff(3, n)).collect();
        assert!(a.windows(2).any(|w| w[0] != w[1]), "jitter varies: {a:?}");
    }

    #[test]
    fn transient_classification_separates_retryable_from_fatal() {
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            assert!(transient(&io::Error::new(kind, "x")), "{kind:?}");
        }
        assert!(!transient(&io::Error::new(io::ErrorKind::InvalidData, "x")));
        assert!(
            transient(&io::Error::new(
                io::ErrorKind::InvalidData,
                wire::CorruptFrame
            )),
            "CRC damage is transport, not protocol"
        );
    }
}
