//! # cyclesteal-workloads
//!
//! Synthetic data-parallel workloads and owner-activity traces for the
//! NOW cycle-stealing experiments: the closest executable equivalent of
//! the workstation-pool setting the paper's introduction motivates
//! (render/compile/simulate task bags farmed out to colleagues' idle
//! machines, whose owners come back at inconvenient times).
//!
//! * [`tasks`] — indivisible tasks with perfectly known durations (the
//!   paper's §2 assumptions), bag-of-tasks plumbing, and four duration
//!   mixes (constant, uniform, bimodal, heavy-tailed Pareto).
//! * [`owner`] — interrupt traces: Poisson owners, session-structured
//!   owners, the undocked laptop; plus a plain-text trace format and the
//!   [`OwnerClimate`] catalogue of named owner-behaviour families used by
//!   the population-scale validation grid.
//!
//! Everything is seeded and reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Determinism: the wall-clock, sleep, hash-collection and unseeded-hash
// bans listed in crates/clippy.toml (see docs/INVARIANTS.md).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod owner;
pub mod tasks;

pub use owner::{OwnerClimate, OwnerEvent, OwnerTrace};
pub use tasks::{Task, TaskBag, TaskDist};
