//! # cyclesteal-serve
//!
//! The serving layer over the exact solver stack: a thread-pool request
//! **broker** that answers batched guarantee queries
//! `(setup, Q, p, L)` from shared [`cyclesteal_dp::TableCache`] solves,
//! plus a small TCP **server/client** pair speaking a checksummed,
//! length-prefixed binary framing — no async runtime, no serialization
//! crates (this is a registry-less environment), just `std::net` and
//! plain threads.
//!
//! ## Why a broker
//!
//! One solved `(setup, Q, p_max)` table answers *every* query at
//! smaller `p` and `L` exactly, so under multi-user traffic the right
//! unit of work is the **table**, not the query. [`Broker`] exploits
//! that three ways:
//!
//! * **batching** — a request carries many queries; the broker groups
//!   them per grid and resolves each grid once, then answers every
//!   query by lookup;
//! * **coalescing** — concurrent requests needing the same
//!   `(setup, Q, p_max)` solve join a single in-flight solve
//!   (single-flight) instead of duplicating it, on top of the
//!   `TableCache`'s own key dedup;
//! * **warm starts** — with a snapshot directory configured, the broker
//!   loads previously solved tables at startup
//!   ([`cyclesteal_store::CacheSnapshotExt::warm_from_dir`]) and
//!   snapshots tables the memory budget evicts
//!   ([`cyclesteal_store::evict_hook_to_dir`]), so a restart skips the
//!   solves entirely.
//!
//! Answers are **bit-identical** to direct `TableCache` queries — the
//! broker serves the same `CompressedTable` values every other path in
//! the repository serves (the equivalence suite pins the tables against a
//! dense oracle), and `tests/serve_props.rs` pins broker == direct under
//! concurrent multi-client load.
//!
//! ## Failure semantics
//!
//! The paper's premise is guaranteed output from an unreliable
//! resource; the serving layer holds itself to the same standard. The
//! contract — enforced across ≥ 64 seeded fault plans by the
//! `serve_chaos` suite — is:
//!
//! > Under connection drops, read delays, corrupted wire bytes,
//! > panicking solves and failing snapshot writes, every query returns
//! > either the **bit-identical answer** or a **typed retryable
//! > error** ([`ServeError`]) — never a hang, never an escaped panic,
//! > never a wrong value.
//!
//! The pieces: per-connection read/write **timeouts**
//! ([`ServerConfig`]/[`ClientConfig`]); per-request **deadlines**
//! carried on the wire and enforced inside the broker
//! ([`Request::deadline`], sent by [`Client::send`], served by
//! [`Broker::serve`]); **typed error frames**
//! ([`ErrorCode`] + retryable flag + message) instead of silent
//! connection drops; client **retry** with capped exponential backoff
//! and seeded jitter ([`RetryPolicy`]); **load shedding** past a
//! bounded in-flight budget ([`BrokerConfig::max_inflight`]); contained
//! solve panics with single **flight re-lead**; store-level snapshot
//! **quarantine** and save retry; and the seeded, deterministic
//! [`FaultPlan`] harness ([`faults`]) that injects all of the above.
//! Every resilience event is counted in
//! [`BrokerStats::resilience`](broker::ResilienceStats).
//!
//! ## In-process use
//!
//! ```
//! use cyclesteal_core::time::secs;
//! use cyclesteal_serve::{Broker, BrokerConfig, GuaranteeQuery};
//!
//! let broker = Broker::new(BrokerConfig::default()).unwrap();
//! let answers = broker
//!     .query_batch(&[GuaranteeQuery {
//!         setup: secs(1.0),
//!         ticks_per_setup: 8,
//!         interrupts: 2,
//!         lifespan: secs(100.0),
//!     }])
//!     .unwrap();
//! assert!(answers[0].value.get() > 0.0);
//! ```
//!
//! ## Multi-tenant fairness
//!
//! Cold solves are the expensive unit, so admission control is
//! per-tenant grid: each `(setup, Q)` tenant holds at most
//! [`BrokerConfig::tenant_quota`] cold solves in flight (excess sheds
//! with a typed `Overloaded`), and the solve **lanes**
//! ([`BrokerConfig::solve_lanes`]) are granted round-robin across
//! waiting tenants — one tenant's `10⁹`-tick cold solve cannot starve
//! another tenant's warm point queries, which bypass the lane machinery
//! entirely on a cache hit. Pinned by `tests/serve_fairness.rs`.
//!
//! ## Over TCP
//!
//! [`Server::start`] binds a listener with **one blocking thread per
//! connection**: an acceptor thread hands each connection a thread that
//! reads a frame, runs it against the broker inline and writes the
//! answer. A batch's warm grids resolve right there on that thread;
//! only a batch with two or more cold grids hands its solves to the
//! broker's worker pool. The kernel
//! wakes a connection's thread when its bytes land, so a request is
//! never waiting on a poll and an idle server never wakes; each open
//! connection costs a parked thread instead. [`Client`] frames batches
//! to it and transparently retries transient failures. A batch and a
//! sweep are the two bodies of one [`Request`], answered by one
//! [`Broker::serve`] and sent by one [`Client::send`]. Sweep-shaped
//! reads use the op-3 **streaming wire mode** ([`Request::sweep`] /
//! [`Client::query_sweep`]): a consecutive tick window travels back as
//! arithmetic-run descriptors ([`cyclesteal_dp::ValueRun`]) and is
//! expanded client-side, bit-identically to per-tick op-1 answers. See
//! [`wire`] for the exact byte protocol.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod broker;
pub mod errors;
pub mod faults;
pub mod obs;
pub mod server;
pub mod wire;

pub use broker::{
    Broker, BrokerConfig, BrokerStats, EndpointStats, GuaranteeAnswer, GuaranteeQuery, Request,
    RequestBody, ResilienceStats, Response, SweepQuery,
};
pub use errors::{ErrorCode, ServeError};
pub use faults::{FaultPlan, FaultPoint, FaultsGuard};
pub use obs::{ObsHub, WallClock};
pub use server::{Client, ClientConfig, RetryPolicy, Server, ServerConfig};
