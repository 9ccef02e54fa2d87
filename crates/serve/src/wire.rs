//! The wire protocol: checksummed, length-prefixed binary frames over a
//! byte stream.
//!
//! Every message is one **frame**:
//!
//! ```text
//! len  u32        payload length (capped at MAX_FRAME_BYTES)
//! crc  u32        CRC-32/IEEE of the payload
//! payload         len bytes
//! ```
//!
//! The CRC exists for the chaos invariant, not for TCP (which already
//! checksums): a corrupted frame — injected by the fault harness or by
//! a buggy middlebox — must surface as a **detectable, retryable
//! transport error** ([`is_corrupt_frame`]), never as a silently wrong
//! answer. The length cap means a corrupt peer cannot make either side
//! allocate unboundedly. All multi-byte integers are little-endian;
//! `f64`s travel as their IEEE bit patterns, so answers survive the
//! wire **bit-identically**.
//!
//! Request payload:
//!
//! ```text
//! op  u8          1 = query batch, 2 = stats, 3 = streaming sweep,
//!                 4 = metrics/introspection
//! op 1: deadline_us u64 (0 = none; remaining budget in µs)
//!       count u32, then per query (24 B):
//!       setup_bits u64 · ticks_per_setup u32 · interrupts u32 · lifespan_bits u64
//!       [trace_id u64]   optional trailing field, see below
//! op 2: (empty)
//! op 3: deadline_us u64 · setup_bits u64 · ticks_per_setup u32 ·
//!       interrupts u32 · first_tick i64 · count u32 · [trace_id u64]
//! op 4: (empty)
//! ```
//!
//! Ops 1 and 3 are the two shapes of one [`Request`]: [`encode_request`]
//! writes either from a [`RequestBody`], and [`decode_request`] reads
//! either back into the `Request` the server hands to
//! [`crate::Broker::serve`].
//!
//! The deadline travels as a *relative* budget (µs left), not a wall
//! timestamp — the two hosts' clocks never need to agree.
//! [`crate::Client::send`] converts the request's deadline into the
//! budget, and [`decode_request`] converts it back into an absolute
//! `Instant`, counted from when the server parsed the frame.
//!
//! The **trace_id** is an optional trailing `u64` on op 1 and op 3: a
//! nonzero client-generated request id the server threads through every
//! pipeline stage's trace span (see `cyclesteal_obs::trace`). The field
//! is version-tolerant in both directions: decoders accept the legacy
//! layout (no trailing field — trace id 0, untraced) *and* the extended
//! layout, and encoders omit the field when the id is 0, so old clients
//! talk to new servers and new clients to old servers byte-compatibly.
//! Any other trailing length still errors — tolerance is exactly
//! `{0, 8}` extra bytes, pinned truncation-cut by truncation-cut in the
//! tests.
//!
//! Response payload:
//!
//! ```text
//! status u8       0 = ok, 1 = error
//! ok, op 1: count u32, then per answer (16 B): value_bits u64 · value_ticks i64
//! ok, op 2: hits u64 · misses u64 · evictions u64 · reserved u64 ·
//!           compressed_entries u64 · resident_bytes u64 ·
//!           shed u64 · deadline_rejects u64 · solve_panics u64 ·
//!           flight_retries u64 · snapshot_failures u64 ·
//!           tenant_sheds u64 ·
//!           endpoint_count u32, then per endpoint:
//!           name_len u8 · name bytes · requests u64 · queries u64 ·
//!           coalesced u64 · p50_us u64 · p99_us u64
//! ok, op 3: run_count u32, then per run (24 B):
//!           start i64 · step i64 · len i64
//! ok, op 4: metrics_len u32 · metrics bytes (UTF-8 exposition text) ·
//!           span_count u32, then per span:
//!           trace_id u64 · start_ns u64 · end_ns u64 ·
//!           stage_len u8 · stage bytes
//! error:    code u8 · retryable u8 · UTF-8 message (rest of payload)
//! ```
//!
//! Op 3 is the **streaming wire mode** for sweep-shaped queries: a
//! request names one consecutive tick window `first_tick ..
//! first_tick + count` of one `(setup, Q, p)` row, and the answer
//! travels as the row's arithmetic-run descriptors
//! ([`cyclesteal_dp::ValueRun`]) instead of a dense array — `O(flats
//! in range)` bytes for an `O(count)`-tick window. The client expands
//! runs locally ([`cyclesteal_dp::expand_value_runs`]); expansion is
//! bit-identical to asking op 1 for each tick, pinned by the streaming
//! property suite.
//!
//! The typed error body carries the [`ErrorCode`] and the retryable
//! flag explicitly, so a client can decide *back off and retry* versus
//! *fix the request* without parsing prose (see [`crate::errors`]).

use crate::broker::{
    BrokerStats, EndpointStats, GuaranteeAnswer, GuaranteeQuery, Request, RequestBody,
    ResilienceStats, SweepQuery,
};
use crate::errors::{ErrorCode, ServeError};
use cyclesteal_core::time::Time;
use cyclesteal_dp::{CacheStats, ValueRun};
use cyclesteal_obs::SpanRecord;
use cyclesteal_store::crc::crc32;
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Largest payload either side will accept (64 MiB ≈ 2.7M queries per
/// batch — far past any sane batch, small enough to bound allocation).
pub const MAX_FRAME_BYTES: u32 = 1 << 26;

/// Request opcode: batched guarantee queries.
pub const OP_QUERY_BATCH: u8 = 1;
/// Request opcode: broker stats.
pub const OP_STATS: u8 = 2;
/// Request opcode: streaming sweep — one consecutive tick window of one
/// row, answered as arithmetic-run descriptors.
pub const OP_SWEEP: u8 = 3;
/// Request opcode: metrics/introspection — pulls the server's metrics
/// registry exposition plus its trace-span journal snapshot.
pub const OP_METRICS: u8 = 4;

/// Most run descriptors one sweep response can carry and still fit a
/// frame (24 B per run after status + run_count). The TCP server checks
/// it in `handle_request`, after `Broker::serve` has solved the covering
/// table and built the runs, and answers a wider sweep with a
/// non-retryable invalid-query error instead of encoding it. An
/// in-process `Broker::serve` call is not capped.
pub const MAX_SWEEP_RUNS: usize = (MAX_FRAME_BYTES as usize - 5) / 24;

/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: error (payload is `code · retryable · message`).
pub const STATUS_ERR: u8 = 1;

/// On-wire deadline meaning "none".
pub const NO_DEADLINE_US: u64 = 0;

/// Marker error for a frame whose payload failed its CRC: the bytes
/// made it but are provably damaged. Distinguishable via
/// [`is_corrupt_frame`] so the client's retry loop can treat it as
/// transient (re-request) rather than protocol-fatal.
#[derive(Debug)]
pub struct CorruptFrame;

impl std::fmt::Display for CorruptFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame payload failed CRC check (corrupt on the wire)")
    }
}

impl std::error::Error for CorruptFrame {}

/// Whether `err` is the frame-CRC-mismatch marker ([`CorruptFrame`]).
pub fn is_corrupt_frame(err: &io::Error) -> bool {
    err.get_ref()
        .is_some_and(|inner| (inner as &(dyn std::error::Error + 'static)).is::<CorruptFrame>())
}

/// Serializes a complete frame (header + payload) into one buffer. The
/// server's corrupt-frame fault injection flips a byte of this buffer
/// before writing it raw — which is exactly what the CRC exists to
/// catch.
pub(crate) fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    // lint:allow(lossy-cast): response payloads answer requests that
    // already passed read_frame's 64 MiB cap, so the length fits u32
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Writes one frame (length prefix, payload CRC, payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| invalid("frame exceeds MAX_FRAME_BYTES"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Initial payload buffer of [`read_frame`]: frames up to this size
/// read into one allocation; larger ones grow as their bytes arrive.
const READ_CHUNK: usize = 64 * 1024;

/// Reads one frame's payload, verifying its CRC. `Ok(None)` is a clean
/// EOF *between* frames (the peer hung up); EOF mid-frame is an error,
/// and a CRC mismatch is the [`CorruptFrame`] marker error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    // A clean close before any header byte is a normal end of session;
    // a signal landing mid-wait (Interrupted) is retried, matching
    // read_exact's convention — neither should tear the session down.
    loop {
        match r.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => {
                r.read_exact(&mut header[n..])?;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    // An impossible length is indistinguishable from a damaged length
    // byte (no honest peer sends one), so it classifies as wire
    // corruption: the connection is unusable, but a retry on a fresh
    // connection is sound.
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, CorruptFrame));
    }
    // Grow the payload with the bytes that actually arrive: a header
    // is only a claim, and a peer that claims 64 MiB and sends 100
    // bytes must not cost 64 MiB.
    let want = len as usize;
    let mut payload = Vec::with_capacity(want.min(READ_CHUNK));
    r.by_ref().take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "frame truncated mid-payload",
        ));
    }
    if crc32(&payload) != stored_crc {
        return Err(io::Error::new(io::ErrorKind::InvalidData, CorruptFrame));
    }
    Ok(Some(payload))
}

/// Parses one frame out of an in-memory buffer — a connection
/// thread's inbound accumulator. `Ok(None)` means *incomplete, keep
/// reading*; a parsed frame returns its payload plus the bytes
/// consumed; an impossible length or a CRC mismatch is the
/// [`CorruptFrame`] marker, exactly as [`read_frame`] classifies them.
pub(crate) fn parse_frame(buf: &[u8]) -> io::Result<Option<(Vec<u8>, usize)>> {
    let Some(header) = buf.get(..8) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let stored_crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, CorruptFrame));
    }
    let total = 8 + len as usize;
    let Some(payload) = buf.get(8..total) else {
        return Ok(None);
    };
    if crc32(payload) != stored_crc {
        return Err(io::Error::new(io::ErrorKind::InvalidData, CorruptFrame));
    }
    Ok(Some((payload.to_vec(), total)))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Rebuilds a [`Time`] from wire bits, rejecting NaN/infinite patterns
/// *before* construction — `Time::new` panics on them, and a corrupt or
/// hostile peer must never be able to panic the decoder.
fn finite_time(bits: u64) -> io::Result<Time> {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        Ok(Time::new(v))
    } else {
        Err(invalid("non-finite time value on the wire"))
    }
}

// ---- payload encode/decode -------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| invalid("payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    /// Exact inverse of an `i64::to_le_bytes` write — negative values
    /// round-trip without any integer cast.
    fn i64(&mut self) -> io::Result<i64> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(invalid("trailing bytes in payload"))
        }
    }
}

/// Encodes a request payload: the body's op byte, `deadline_us` (the
/// remaining budget in µs, [`NO_DEADLINE_US`] for none), the body, and
/// the trace id. A zero `trace_id` omits the trailing field entirely,
/// producing bytes identical to what a pre-tracing client sends.
pub fn encode_request(body: &RequestBody<'_>, deadline_us: u64, trace_id: u64) -> Vec<u8> {
    let (op, capacity) = match body {
        RequestBody::Batch(queries) => (OP_QUERY_BATCH, 21 + queries.len() * 24),
        RequestBody::Sweep(_) => (OP_SWEEP, 45),
    };
    let mut out = Vec::with_capacity(capacity);
    out.push(op);
    out.extend_from_slice(&deadline_us.to_le_bytes());
    match body {
        RequestBody::Batch(queries) => {
            // lint:allow(lossy-cast): a batch whose count wraps u32 is a >96 GiB
            // payload — write_frame's 64 MiB cap rejects it before it reaches
            // the wire
            out.extend_from_slice(&(queries.len() as u32).to_le_bytes());
            for q in queries.iter() {
                out.extend_from_slice(&q.setup.get().to_bits().to_le_bytes());
                out.extend_from_slice(&q.ticks_per_setup.to_le_bytes());
                out.extend_from_slice(&q.interrupts.to_le_bytes());
                out.extend_from_slice(&q.lifespan.get().to_bits().to_le_bytes());
            }
        }
        RequestBody::Sweep(sweep) => {
            out.extend_from_slice(&sweep.setup.get().to_bits().to_le_bytes());
            out.extend_from_slice(&sweep.ticks_per_setup.to_le_bytes());
            out.extend_from_slice(&sweep.interrupts.to_le_bytes());
            out.extend_from_slice(&sweep.first_tick.to_le_bytes());
            out.extend_from_slice(&sweep.count.to_le_bytes());
        }
    }
    if trace_id != 0 {
        out.extend_from_slice(&trace_id.to_le_bytes());
    }
    out
}

/// [`encode_request`] for a batch of borrowed queries.
pub fn encode_query_batch_traced(
    queries: &[GuaranteeQuery],
    deadline_us: u64,
    trace_id: u64,
) -> Vec<u8> {
    encode_request(
        &RequestBody::Batch(Cow::Borrowed(queries)),
        deadline_us,
        trace_id,
    )
}

/// Decodes an op-1 or op-3 request payload (op byte included) into the
/// [`Request`] it carries, counted under the `"tcp"` endpoint. The
/// relative deadline budget becomes an absolute deadline counted from
/// `parsed_at`, when the server parsed the frame, so time spent before
/// the broker call is spent budget; an absurd (hostile) budget that
/// overflows `Instant` degrades to "none" instead of panicking. Exactly
/// two trailing lengths decode: 0 (legacy, trace id 0) and 8 (traced);
/// anything else is a truncation or miscount error.
pub fn decode_request(payload: &[u8], parsed_at: Instant) -> io::Result<Request<'static>> {
    let mut rd = Reader {
        buf: payload,
        pos: 0,
    };
    let op = rd.u8()?;
    let deadline_us = rd.u64()?;
    let body = match op {
        OP_QUERY_BATCH => {
            let count = rd.u32()? as usize;
            // checked_mul: on 32-bit targets a hostile count could wrap
            // the size check and reach a huge Vec::with_capacity below.
            let room = rd.buf.len() - rd.pos;
            if count.checked_mul(24).filter(|&body| body <= room).is_none() {
                return Err(invalid("query count does not match payload size"));
            }
            let mut queries = Vec::with_capacity(count);
            for _ in 0..count {
                queries.push(GuaranteeQuery {
                    setup: finite_time(rd.u64()?)?,
                    ticks_per_setup: rd.u32()?,
                    interrupts: rd.u32()?,
                    lifespan: finite_time(rd.u64()?)?,
                });
            }
            RequestBody::Batch(Cow::Owned(queries))
        }
        OP_SWEEP => RequestBody::Sweep(SweepQuery {
            setup: finite_time(rd.u64()?)?,
            ticks_per_setup: rd.u32()?,
            interrupts: rd.u32()?,
            first_tick: rd.i64()?,
            count: rd.u32()?,
        }),
        _ => return Err(invalid("not a query request")),
    };
    let trace_id = match rd.buf.len() - rd.pos {
        0 => 0,
        8 => rd.u64()?,
        _ => return Err(invalid("trailing bytes in payload")),
    };
    let deadline = match deadline_us {
        NO_DEADLINE_US => None,
        us => parsed_at.checked_add(Duration::from_micros(us)),
    };
    Ok(Request {
        body,
        endpoint: "tcp",
        deadline,
        trace_id,
    })
}

/// Encodes a successful streaming-sweep response payload: the run
/// descriptors of the requested window.
pub fn encode_runs(runs: &[ValueRun]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + runs.len() * 24);
    out.push(STATUS_OK);
    // lint:allow(lossy-cast): the server caps sweep responses at
    // MAX_SWEEP_RUNS (~2.8M) before encoding, far inside u32
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for run in runs {
        out.extend_from_slice(&run.start.to_le_bytes());
        out.extend_from_slice(&run.step.to_le_bytes());
        out.extend_from_slice(&run.len.to_le_bytes());
    }
    out
}

/// Decodes a streaming-sweep response payload into run descriptors.
/// Descriptors are *transport* — expansion-side sanity (window length,
/// value bounds) is the client's job, since a corrupt-but-CRC-passing
/// frame is not in this layer's threat model while a truncated or
/// miscounted one is.
pub fn decode_runs(payload: &[u8]) -> io::Result<Vec<ValueRun>> {
    let body = response_body(payload)?;
    let mut rd = Reader { buf: body, pos: 0 };
    let count = rd.u32()? as usize;
    if count.checked_mul(24) != Some(body.len() - 4) {
        return Err(invalid("run count does not match payload size"));
    }
    let mut runs = Vec::with_capacity(count);
    for _ in 0..count {
        runs.push(ValueRun {
            start: rd.i64()?,
            step: rd.i64()?,
            len: rd.i64()?,
        });
    }
    rd.done()?;
    Ok(runs)
}

/// Encodes a successful query-batch response payload.
pub fn encode_answers(answers: &[GuaranteeAnswer]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + answers.len() * 16);
    out.push(STATUS_OK);
    // lint:allow(lossy-cast): answers mirror a decoded batch whose count
    // already fit u32 (decode_request checked it against the frame)
    out.extend_from_slice(&(answers.len() as u32).to_le_bytes());
    for a in answers {
        out.extend_from_slice(&a.value.get().to_bits().to_le_bytes());
        out.extend_from_slice(&a.value_ticks.to_le_bytes());
    }
    out
}

/// Encodes a typed error response payload: `code · retryable · message`.
pub fn encode_error(err: &ServeError) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + err.message.len());
    out.push(STATUS_ERR);
    out.push(err.code.wire());
    out.push(u8::from(err.retryable));
    out.extend_from_slice(err.message.as_bytes());
    out
}

/// Decodes the body of a [`STATUS_ERR`] response into the typed error.
/// Unknown codes (a newer peer) degrade to [`ErrorCode::Internal`] but
/// keep the frame's own retryable flag — forward compatibility must not
/// turn a permanent error into a retry storm or vice versa.
pub fn decode_error(body: &[u8]) -> ServeError {
    match body {
        [code, retryable, message @ ..] => ServeError {
            code: ErrorCode::from_wire(*code).unwrap_or(ErrorCode::Internal),
            retryable: *retryable != 0,
            message: String::from_utf8_lossy(message).into_owned(),
        },
        // A short error body is itself malformed; report what we can.
        _ => ServeError::malformed("error frame too short for code + retryable flag"),
    }
}

/// Splits a response payload into its status-checked body: `Ok` bytes
/// after the status on success, the server's typed [`ServeError`]
/// (carried inside the `io::Error`, recoverable via
/// [`ServeError::from_io`]) otherwise.
fn response_body(payload: &[u8]) -> io::Result<&[u8]> {
    match payload.split_first() {
        Some((&STATUS_OK, body)) => Ok(body),
        Some((&STATUS_ERR, body)) => Err(decode_error(body).into()),
        _ => Err(invalid("empty response payload")),
    }
}

/// Decodes a query-batch response payload.
pub fn decode_answers(payload: &[u8]) -> io::Result<Vec<GuaranteeAnswer>> {
    let body = response_body(payload)?;
    let mut rd = Reader { buf: body, pos: 0 };
    let count = rd.u32()? as usize;
    if count.checked_mul(16) != Some(body.len() - 4) {
        return Err(invalid("answer count does not match payload size"));
    }
    let mut answers = Vec::with_capacity(count);
    for _ in 0..count {
        answers.push(GuaranteeAnswer {
            value: finite_time(rd.u64()?)?,
            value_ticks: rd.i64()?,
        });
    }
    rd.done()?;
    Ok(answers)
}

/// Encodes a stats response payload.
pub fn encode_stats(stats: &BrokerStats) -> Vec<u8> {
    let mut out = vec![STATUS_OK];
    for v in [
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        // Reserved: the retired dense-table entry count, always 0, kept
        // so clients built against the old layout still decode.
        0,
        stats.cache.compressed_entries as u64,
        stats.cache.resident_bytes as u64,
        stats.resilience.shed,
        stats.resilience.deadline_rejects,
        stats.resilience.solve_panics,
        stats.resilience.flight_retries,
        stats.resilience.snapshot_failures,
        stats.resilience.tenant_sheds,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    // lint:allow(lossy-cast): the endpoint list is the server's
    // per-connection counter registry — a handful of entries, never 2³²
    out.extend_from_slice(&(stats.endpoints.len() as u32).to_le_bytes());
    for ep in &stats.endpoints {
        let name = ep.endpoint.as_bytes();
        // lint:allow(lossy-cast): min(255) clamps the length into u8
        // range on this same expression
        out.push(name.len().min(255) as u8);
        out.extend_from_slice(&name[..name.len().min(255)]);
        for v in [ep.requests, ep.queries, ep.coalesced, ep.p50_us, ep.p99_us] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Decodes a stats response payload.
pub fn decode_stats(payload: &[u8]) -> io::Result<BrokerStats> {
    let body = response_body(payload)?;
    let mut rd = Reader { buf: body, pos: 0 };
    let (hits, misses, evictions) = (rd.u64()?, rd.u64()?, rd.u64()?);
    rd.u64()?; // reserved slot (see `encode_stats`)
    let cache = CacheStats {
        hits,
        misses,
        evictions,
        compressed_entries: usize::try_from(rd.u64()?)
            .map_err(|_| invalid("compressed entry count exceeds usize"))?,
        resident_bytes: usize::try_from(rd.u64()?)
            .map_err(|_| invalid("resident byte count exceeds usize"))?,
    };
    let resilience = ResilienceStats {
        shed: rd.u64()?,
        deadline_rejects: rd.u64()?,
        solve_panics: rd.u64()?,
        flight_retries: rd.u64()?,
        snapshot_failures: rd.u64()?,
        tenant_sheds: rd.u64()?,
    };
    let count = rd.u32()? as usize;
    let mut endpoints = Vec::new();
    for _ in 0..count {
        let name_len = rd.u8()? as usize;
        let name = String::from_utf8_lossy(rd.take(name_len)?).into_owned();
        endpoints.push(EndpointStats {
            endpoint: name,
            requests: rd.u64()?,
            queries: rd.u64()?,
            coalesced: rd.u64()?,
            p50_us: rd.u64()?,
            p99_us: rd.u64()?,
        });
    }
    rd.done()?;
    Ok(BrokerStats {
        endpoints,
        cache,
        resilience,
    })
}

/// Smallest on-wire footprint of one span: three u64s plus the stage
/// length byte. Bounds both the encoder's defensive clamp and the
/// decoder's count sanity check.
const SPAN_MIN_BYTES: usize = 25;

/// Encodes a metrics/introspection (op 4) response payload: the
/// registry's text exposition followed by the span-journal snapshot.
/// Defensive clamps (exposition to the frame cap, stage names to 255
/// bytes, span count to what a frame can hold) keep every length prefix
/// exact without any lossy cast.
pub fn encode_metrics(text: &str, spans: &[SpanRecord]) -> Vec<u8> {
    let text = &text.as_bytes()[..text.len().min(MAX_FRAME_BYTES as usize)];
    let spans = &spans[..spans.len().min(MAX_FRAME_BYTES as usize / SPAN_MIN_BYTES)];
    let mut out = Vec::with_capacity(9 + text.len() + spans.len() * 40);
    out.push(STATUS_OK);
    // try_from cannot fail after the clamps above; the fallback merely
    // keeps the panic policy honest (a mismatched prefix fails decode,
    // never corrupts silently).
    out.extend_from_slice(&u32::try_from(text.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(text);
    out.extend_from_slice(&u32::try_from(spans.len()).unwrap_or(u32::MAX).to_le_bytes());
    for span in spans {
        out.extend_from_slice(&span.trace_id.to_le_bytes());
        out.extend_from_slice(&span.start_ns.to_le_bytes());
        out.extend_from_slice(&span.end_ns.to_le_bytes());
        let stage = &span.stage.as_bytes()[..span.stage.len().min(255)];
        out.push(u8::try_from(stage.len()).unwrap_or(u8::MAX));
        out.extend_from_slice(stage);
    }
    out
}

/// Decodes a metrics/introspection (op 4) response payload into the
/// exposition text and the span-journal snapshot.
pub fn decode_metrics(payload: &[u8]) -> io::Result<(String, Vec<SpanRecord>)> {
    let body = response_body(payload)?;
    let mut rd = Reader { buf: body, pos: 0 };
    let text_len = rd.u32()? as usize;
    let text = String::from_utf8_lossy(rd.take(text_len)?).into_owned();
    let count = rd.u32()? as usize;
    // A hostile count cannot reserve more memory than the remaining
    // payload could possibly justify (each span is ≥ 25 bytes).
    let min_bytes = count
        .checked_mul(SPAN_MIN_BYTES)
        .ok_or_else(|| invalid("span count does not match payload size"))?;
    if min_bytes > body.len() - rd.pos {
        return Err(invalid("span count does not match payload size"));
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        let trace_id = rd.u64()?;
        let start_ns = rd.u64()?;
        let end_ns = rd.u64()?;
        let stage_len = rd.u8()? as usize;
        let stage = String::from_utf8_lossy(rd.take(stage_len)?).into_owned();
        spans.push(SpanRecord {
            trace_id,
            stage,
            start_ns,
            end_ns,
        });
    }
    rd.done()?;
    Ok((text, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_core::time::secs;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        // Truncated mid-frame is an error, not a silent None.
        let mut r = &buf[..3];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn buffer_parsing_matches_stream_reading_at_every_prefix() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        write_frame(&mut buf, b"second").unwrap();
        // Every strict prefix of the first frame is "incomplete", never
        // an error or a phantom frame.
        let first_len = 8 + b"payload bytes".len();
        for cut in 0..first_len {
            assert!(
                parse_frame(&buf[..cut]).unwrap().is_none(),
                "cut at {cut} must read as incomplete"
            );
        }
        // A complete first frame parses and reports its exact extent,
        // leaving the second frame's bytes untouched.
        let (payload, consumed) = parse_frame(&buf).unwrap().expect("complete");
        assert_eq!(payload, b"payload bytes");
        assert_eq!(consumed, first_len);
        let (payload, _) = parse_frame(&buf[consumed..]).unwrap().expect("second");
        assert_eq!(payload, b"second");
        // A flipped payload byte is CRC-detected; an impossible length
        // is classified as corruption without waiting for more bytes.
        let mut bad = buf.clone();
        bad[9] ^= 0x01;
        assert!(is_corrupt_frame(&parse_frame(&bad).unwrap_err()));
        let mut bad = buf.clone();
        bad[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(is_corrupt_frame(&parse_frame(&bad).unwrap_err()));
    }

    #[test]
    fn truncated_frames_error_at_every_cut_point() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        // Mid-header, exactly at header end, and mid-payload: every
        // truncation is an error, never a hang or a silent None.
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(read_frame(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_payload_bytes_are_detected_by_the_frame_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"the answer is 42").unwrap();
        // Flip each payload byte in turn (payload starts after the 8 B
        // header): every flip must surface as the CorruptFrame marker.
        for i in 8..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            let err = read_frame(&mut &bad[..]).unwrap_err();
            assert!(is_corrupt_frame(&err), "flip at {i} detected");
        }
        // A flipped CRC byte is also a mismatch.
        let mut bad = buf.clone();
        bad[5] ^= 0x80;
        assert!(is_corrupt_frame(&read_frame(&mut &bad[..]).unwrap_err()));
        // And an intact frame is not flagged.
        assert!(read_frame(&mut &buf[..]).unwrap().is_some());
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        // Classified as wire corruption: an honest peer never sends an
        // impossible length, so it reads as a damaged length byte.
        assert!(is_corrupt_frame(&read_frame(&mut &buf[..]).unwrap_err()));
    }

    /// A reader that serves a fixed byte string and records the
    /// largest buffer it is ever offered.
    struct RecordingReader {
        bytes: Vec<u8>,
        pos: usize,
        largest_buffer: usize,
    }

    impl Read for RecordingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_buffer = self.largest_buffer.max(buf.len());
            let n = buf.len().min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn a_header_claiming_the_cap_allocates_only_what_arrives() {
        // The header claims a maximal frame; 100 payload bytes follow,
        // then EOF.
        let mut bytes = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[7u8; 100]);
        let mut r = RecordingReader {
            bytes,
            pos: 0,
            largest_buffer: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.largest_buffer <= 64 * 1024,
            "offered a {}-byte buffer for 100 bytes",
            r.largest_buffer
        );
    }

    #[test]
    fn query_batches_round_trip_bit_identically() {
        let queries = vec![
            GuaranteeQuery {
                setup: secs(1.5),
                ticks_per_setup: 32,
                interrupts: 7,
                lifespan: secs(1234.5678),
            },
            GuaranteeQuery {
                setup: secs(0.1),
                ticks_per_setup: 1,
                interrupts: 0,
                lifespan: secs(0.0),
            },
        ];
        let parsed_at = Instant::now();
        let payload = encode_query_batch_traced(&queries, 250_000, 0);
        assert_eq!(payload[0], OP_QUERY_BATCH);
        let request = decode_request(&payload, parsed_at).unwrap();
        assert_eq!(
            request.deadline,
            Some(parsed_at + Duration::from_micros(250_000))
        );
        let RequestBody::Batch(decoded) = request.body else {
            panic!("op 1 decodes to a batch")
        };
        for (a, b) in queries.iter().zip(decoded.iter()) {
            assert_eq!(a.setup.get().to_bits(), b.setup.get().to_bits());
            assert_eq!(a.lifespan.get().to_bits(), b.lifespan.get().to_bits());
            assert_eq!(
                (a.ticks_per_setup, a.interrupts),
                (b.ticks_per_setup, b.interrupts)
            );
        }
        // No deadline travels as the zero sentinel.
        let payload = encode_query_batch_traced(&queries, NO_DEADLINE_US, 0);
        assert_eq!(decode_request(&payload, parsed_at).unwrap().deadline, None);
        // A count/size mismatch is an error.
        assert!(decode_request(&payload[..payload.len() - 1], parsed_at).is_err());
    }

    #[test]
    fn non_finite_wire_times_error_instead_of_panicking() {
        let mut payload = encode_query_batch_traced(
            &[GuaranteeQuery {
                setup: secs(1.0),
                ticks_per_setup: 8,
                interrupts: 1,
                lifespan: secs(10.0),
            }],
            NO_DEADLINE_US,
            0,
        );
        // Overwrite the setup bits (after op + deadline + count) with NaN.
        payload[13..21].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_request(&payload, Instant::now()).is_err());
    }

    /// The request the golden bytes below carry: one query at
    /// `(c, Q, p, L) = (1, 8, 2, 100)`, or the sweep of ticks
    /// `37 .. 537` of that row, with a 250 ms budget.
    fn golden_body(op: u8) -> RequestBody<'static> {
        match op {
            OP_QUERY_BATCH => RequestBody::Batch(Cow::Owned(vec![GuaranteeQuery {
                setup: secs(1.0),
                ticks_per_setup: 8,
                interrupts: 2,
                lifespan: secs(100.0),
            }])),
            _ => RequestBody::Sweep(SweepQuery {
                setup: secs(1.0),
                ticks_per_setup: 8,
                interrupts: 2,
                first_tick: 37,
                count: 500,
            }),
        }
    }

    #[test]
    fn requests_encode_to_pinned_golden_bytes_and_decode_back() {
        #[rustfmt::skip]
        let batch: &[u8] = &[
            0x01, // op 1
            0x90, 0xD0, 0x03, 0, 0, 0, 0, 0, // deadline_us 250 000
            0x01, 0, 0, 0, // count 1
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // setup 1.0
            0x08, 0, 0, 0, // ticks_per_setup 8
            0x02, 0, 0, 0, // interrupts 2
            0, 0, 0, 0, 0, 0, 0x59, 0x40, // lifespan 100.0
        ];
        #[rustfmt::skip]
        let sweep: &[u8] = &[
            0x03, // op 3
            0x90, 0xD0, 0x03, 0, 0, 0, 0, 0, // deadline_us 250 000
            0, 0, 0, 0, 0, 0, 0xF0, 0x3F, // setup 1.0
            0x08, 0, 0, 0, // ticks_per_setup 8
            0x02, 0, 0, 0, // interrupts 2
            0x25, 0, 0, 0, 0, 0, 0, 0, // first_tick 37
            0xF4, 0x01, 0, 0, // count 500
        ];
        let trace: [u8; 8] = [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01];
        let parsed_at = Instant::now();
        for legacy in [batch, sweep] {
            let body = golden_body(legacy[0]);
            let traced = [legacy, &trace[..]].concat();
            for (bytes, trace_id) in [(legacy.to_vec(), 0), (traced, 0x0102_0304_0506_0708)] {
                assert_eq!(encode_request(&body, 250_000, trace_id), bytes);
                let want = Request {
                    body: body.clone(),
                    endpoint: "tcp",
                    deadline: Some(parsed_at + Duration::from_micros(250_000)),
                    trace_id,
                };
                assert_eq!(decode_request(&bytes, parsed_at).unwrap(), want);
            }
            // Exactly 0 or 8 trailing bytes decode; any other count errors.
            for extra in (1..=16).filter(|&n| n != 8) {
                let long = [legacy, &vec![0u8; extra][..]].concat();
                assert!(decode_request(&long, parsed_at).is_err(), "{extra} extra");
            }
        }
        // Only ops 1 and 3 are requests.
        assert!(decode_request(&[OP_STATS], parsed_at).is_err());
    }

    #[test]
    fn answers_round_trip() {
        let answers = vec![
            GuaranteeAnswer {
                value: secs(42.125),
                value_ticks: 337,
            },
            GuaranteeAnswer {
                value: secs(0.0),
                value_ticks: -1,
            },
        ];
        let decoded = decode_answers(&encode_answers(&answers)).unwrap();
        for (a, b) in answers.iter().zip(&decoded) {
            assert_eq!(a.value.get().to_bits(), b.value.get().to_bits());
            assert_eq!(a.value_ticks, b.value_ticks);
        }
    }

    #[test]
    fn sweeps_and_runs_round_trip_bit_identically() {
        let sweep = SweepQuery {
            setup: secs(1.5),
            ticks_per_setup: 32,
            interrupts: 7,
            first_tick: 123_456_789,
            count: 1_000_000,
        };
        let parsed_at = Instant::now();
        let payload = encode_request(&RequestBody::Sweep(sweep), 250_000, 0);
        assert_eq!(payload[0], OP_SWEEP);
        let request = decode_request(&payload, parsed_at).unwrap();
        assert_eq!(
            request.deadline,
            Some(parsed_at + Duration::from_micros(250_000))
        );
        let RequestBody::Sweep(decoded) = request.body else {
            panic!("op 3 decodes to a sweep")
        };
        assert_eq!(decoded.setup.get().to_bits(), sweep.setup.get().to_bits());
        assert_eq!(
            (decoded.ticks_per_setup, decoded.interrupts),
            (sweep.ticks_per_setup, sweep.interrupts)
        );
        assert_eq!(
            (decoded.first_tick, decoded.count),
            (123_456_789, 1_000_000)
        );
        // A truncated request is an error, not a short read.
        assert!(decode_request(&payload[..payload.len() - 1], parsed_at).is_err());
        // NaN setup bits are rejected before Time construction.
        let mut bad = payload.clone();
        bad[9..17].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_request(&bad, parsed_at).is_err());

        let runs = vec![
            ValueRun {
                start: 0,
                step: 0,
                len: 17,
            },
            ValueRun {
                start: -3,
                step: 1,
                len: 1 << 40,
            },
        ];
        let decoded = decode_runs(&encode_runs(&runs)).unwrap();
        assert_eq!(decoded, runs);
        // A count/size mismatch is an error at every truncation cut.
        let enc = encode_runs(&runs);
        for cut in 1..enc.len() {
            assert!(decode_runs(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn typed_errors_round_trip_code_flag_and_message() {
        let e = ServeError::overloaded(12, 8);
        let err = decode_answers(&encode_error(&e)).unwrap_err();
        let back = ServeError::from_io(&err).expect("typed error on the wire");
        assert_eq!(*back, e);

        // An unknown code from a future peer degrades to Internal but
        // keeps the frame's retryable flag.
        let mut payload = encode_error(&e);
        payload[1] = 0xEE;
        let err = decode_answers(&payload).unwrap_err();
        let back = ServeError::from_io(&err).unwrap();
        assert_eq!(back.code, ErrorCode::Internal);
        assert!(back.retryable);
        assert_eq!(back.message, e.message);
    }

    #[test]
    fn stats_round_trip() {
        let stats = BrokerStats {
            endpoints: vec![EndpointStats {
                endpoint: "tcp".into(),
                requests: 3,
                queries: 17,
                coalesced: 2,
                p50_us: 127,
                p99_us: 1023,
            }],
            cache: CacheStats {
                hits: 5,
                misses: 2,
                evictions: 1,
                compressed_entries: 2,
                resident_bytes: 16_000_000,
            },
            resilience: ResilienceStats {
                shed: 4,
                deadline_rejects: 3,
                solve_panics: 2,
                flight_retries: 1,
                snapshot_failures: 9,
                tenant_sheds: 6,
            },
        };
        let bytes = encode_stats(&stats);
        // Status byte, three counters, then the reserved slot: zero.
        assert_eq!(bytes[25..33], [0u8; 8], "reserved slot must stay 0");
        let decoded = decode_stats(&bytes).unwrap();
        assert_eq!(decoded.endpoints, stats.endpoints);
        assert_eq!(decoded.resilience, stats.resilience);
        let (a, b) = (decoded.cache, stats.cache);
        assert_eq!(
            (
                a.hits,
                a.misses,
                a.evictions,
                a.compressed_entries,
                a.resident_bytes
            ),
            (
                b.hits,
                b.misses,
                b.evictions,
                b.compressed_entries,
                b.resident_bytes
            )
        );
    }

    /// A nonzero trace id adds exactly the trailing 8 bytes to the
    /// legacy layout, and truncation at every cut errors except at the
    /// exact legacy boundary, which decodes untraced — in particular all
    /// seven cuts inside the trailing trace field error.
    fn assert_traces_ride_version_tolerantly(body: &RequestBody<'_>) {
        let now = Instant::now();
        // Trace 0 emits byte-for-byte the legacy layout: an old server
        // sees exactly what an old client would have sent.
        let legacy = encode_request(body, 250_000, 0);
        let traced = encode_request(body, 250_000, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(traced.len(), legacy.len() + 8);
        assert_eq!(&traced[..legacy.len()], &legacy[..]);
        let request = decode_request(&traced, now).unwrap();
        assert_eq!(request.trace_id, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(&request.body, body);
        // A new server decodes a legacy payload as untraced (id 0).
        assert_eq!(decode_request(&legacy, now).unwrap().trace_id, 0);
        for cut in 1..traced.len() {
            let got = decode_request(&traced[..cut], now);
            if cut == legacy.len() {
                assert_eq!(got.unwrap().trace_id, 0, "legacy boundary decodes untraced");
            } else {
                assert!(got.is_err(), "cut at {cut} must error");
            }
        }
    }

    #[test]
    fn trace_ids_ride_query_batches_version_tolerantly() {
        let queries = [GuaranteeQuery {
            setup: secs(1.5),
            ticks_per_setup: 32,
            interrupts: 7,
            lifespan: secs(1234.5678),
        }];
        assert_traces_ride_version_tolerantly(&RequestBody::Batch(Cow::Borrowed(&queries)));
    }

    #[test]
    fn trace_ids_ride_sweeps_version_tolerantly() {
        assert_traces_ride_version_tolerantly(&RequestBody::Sweep(SweepQuery {
            setup: secs(1.5),
            ticks_per_setup: 32,
            interrupts: 7,
            first_tick: 123_456_789,
            count: 1_000_000,
        }));
    }

    #[test]
    fn metrics_responses_round_trip_text_and_spans() {
        let text = "cyclesteal_requests_total{endpoint=\"tcp\"} 17\n";
        let spans = vec![
            SpanRecord {
                trace_id: 0xABCD,
                stage: "broker.solve".into(),
                start_ns: 100,
                end_ns: 250,
            },
            SpanRecord {
                trace_id: u64::MAX,
                stage: String::new(),
                start_ns: 0,
                end_ns: u64::MAX,
            },
        ];
        let payload = encode_metrics(text, &spans);
        assert_eq!(payload[0], STATUS_OK);
        let (got_text, got_spans) = decode_metrics(&payload).unwrap();
        assert_eq!(got_text, text);
        assert_eq!(got_spans, spans);
        // Empty on both axes round-trips too.
        let (t, s) = decode_metrics(&encode_metrics("", &[])).unwrap();
        assert!(t.is_empty() && s.is_empty());
        // Every length is an exact prefix, so every truncation cut is an
        // error — never a short read or a phantom span.
        for cut in 1..payload.len() {
            assert!(decode_metrics(&payload[..cut]).is_err(), "cut at {cut}");
        }
        // A hostile span count cannot force a large allocation: the
        // count/size sanity check rejects it first.
        let mut bad = encode_metrics("x", &[]);
        let n = bad.len();
        bad[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_metrics(&bad).is_err());
    }

    #[test]
    fn metrics_encoding_clamps_oversized_stage_names() {
        let spans = vec![SpanRecord {
            trace_id: 1,
            stage: "s".repeat(300),
            start_ns: 5,
            end_ns: 6,
        }];
        let (_, got) = decode_metrics(&encode_metrics("", &spans)).unwrap();
        assert_eq!(got[0].stage.len(), 255, "stage clamped to the u8 prefix");
        assert_eq!(got[0].stage, "s".repeat(255));
        assert_eq!((got[0].trace_id, got[0].start_ns, got[0].end_ns), (1, 5, 6));
    }
}
