//! Zero-dependency observability for the cyclesteal workspace.
//!
//! Three pieces, all free of wall clocks, unseeded randomness and
//! iteration-order-unstable collections (this crate's root denies the
//! determinism *and* panic-policy clippy lints — see
//! `docs/INVARIANTS.md`):
//!
//! - [`metrics`]: a [`Registry`] of named counters, gauges and
//!   log₂-bucket histograms with lock-free atomic recording, label
//!   sets for tenant/shard/endpoint, and a deterministic
//!   Prometheus-style text exposition ([`Registry::render`]).
//! - [`trace`]: per-request [`SpanRecord`]s collected into a bounded
//!   ring-buffer [`SpanJournal`], dumpable as JSON lines and served
//!   over wire op 4.
//! - [`clock`]: the [`Clock`] trait (monotonic nanoseconds) that lets
//!   solver crates time their phases without touching `Instant::now` —
//!   the production impl lives in `cyclesteal-serve`, tests use the
//!   deterministic [`LogicalClock`], and the default [`NoopClock`]
//!   keeps uninstrumented solves bit-identical for free.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Panic policy: a request ends in a value or a typed error, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
// Determinism: the wall-clock, sleep, hash-collection and unseeded-hash
// bans listed in crates/clippy.toml (see docs/INVARIANTS.md).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod clock;
pub mod metrics;
pub mod trace;

pub use clock::{Clock, LogicalClock, NoopClock};
pub use metrics::{parse_exposition, Counter, Gauge, Histogram, Registry, Sample, HIST_BUCKETS};
pub use trace::{SpanJournal, SpanRecord};
