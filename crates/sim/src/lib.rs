//! # now-sim
//!
//! A deterministic discrete-event simulator for *networks of workstations*
//! under draconian cycle-stealing contracts — the executable counterpart
//! of the formal model in `cyclesteal-core`.
//!
//! A simulation holds a shared bag of indivisible data-parallel tasks and
//! any number of lender workstations, each with a contracted opportunity
//! `(U, c, p)`, an owner-activity trace, and a scheduling driver (adaptive
//! policy or committed non-adaptive schedule). The engine implements §2.2
//! of the paper exactly — setup charges, kill-on-interrupt, tail replay,
//! final consolidation — and additionally measures what the continuum
//! model abstracts away: task-quantization waste, owner busy spells
//! (wall-clock vs usable-lifespan time), bag exhaustion and contract
//! violations.
//!
//! ```
//! use cyclesteal_core::prelude::*;
//! use cyclesteal_workloads::{OwnerTrace, TaskBag, TaskDist};
//! use now_sim::{DriverKind, LenderConfig, NowSim};
//! use std::sync::Arc;
//!
//! let cfg = LenderConfig {
//!     name: "colleague-laptop".into(),
//!     opportunity: Opportunity::from_units(480.0, 2.0, 2),
//!     owner: OwnerTrace::poisson(7, 0.004, secs(480.0), 2, secs(30.0)),
//!     driver: DriverKind::Adaptive(Arc::new(AdaptiveGuideline::default())),
//!     deadline: None,
//! };
//! let bag = TaskBag::generate_work(TaskDist::Uniform { lo: 0.5, hi: 2.0 }, secs(600.0), 1);
//! let report = NowSim::new(vec![cfg], bag).run().unwrap();
//! assert!(report.total_task_work().is_positive());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Determinism: the wall-clock, sleep, hash-collection and unseeded-hash
// bans listed in crates/clippy.toml (see docs/INVARIANTS.md).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod batch;
pub mod driver;
pub mod engine;
pub mod kernel;
pub mod metrics;

pub use batch::{BatchAdversary, BatchConfig, BatchReport, BatchSim};
pub use driver::DriverKind;
pub use engine::{LenderConfig, NowSim};
pub use metrics::{DoneReason, LenderMetrics, SimReport};
