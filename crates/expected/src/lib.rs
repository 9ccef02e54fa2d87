//! # cyclesteal-expected
//!
//! The *expected-output* companion submodel (Rosenberg, IPPS 1998 — paper
//! I of the pair; the model of Bhatt–Chung–Leighton–Rosenberg \[3\]): the
//! owner's return time is a random variable, the first interrupt ends the
//! opportunity, and schedules maximize the **expectation** of banked work
//! instead of the guarantee.
//!
//! This crate lets the benches and examples compare the two philosophies
//! on the same opportunities:
//!
//! * [`law`] — interrupt-time distributions (uniform, exponential, escape
//!   mixtures) with exact survival functions and samplers;
//! * [`eval`] — exact and Monte-Carlo expected work of any
//!   [`cyclesteal_core::schedule::EpisodeSchedule`];
//! * [`opt`] — an exact grid DP for optimal expected-output schedules, and
//!   the memoryless owner's stationary closed form
//!   (`1 − e^(−λt*) = λ(t* − c)`, with the small-`λ` limit `√(2c/λ)`).
//!
//! ```
//! use cyclesteal_core::prelude::*;
//! use cyclesteal_expected::{eval::expected_work, law::InterruptLaw, opt::ExpectedDp};
//!
//! let c = secs(1.0);
//! let law = InterruptLaw::Uniform { horizon: secs(60.0) };
//! let dp = ExpectedDp::solve(c, 8, secs(60.0), &law);
//! // The guaranteed-output p=1 optimum is a fine but not optimal hedge
//! // against a *random* owner:
//! let s_opt1 = optimal_p1_schedule(secs(60.0), c).unwrap();
//! assert!(expected_work(&s_opt1, c, &law) <= dp.value());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Determinism: the wall-clock, sleep, hash-collection and unseeded-hash
// bans listed in crates/clippy.toml (see docs/INVARIANTS.md).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod eval;
pub mod law;
pub mod opt;

pub use eval::{expected_work, expected_work_monte_carlo};
pub use law::InterruptLaw;
pub use opt::{optimal_exponential_period, optimal_exponential_value, ExpectedDp};
