//! # cyclesteal-core
//!
//! Formal model, schedule families and closed-form bounds for
//! *guaranteed-output cycle-stealing* in networks of workstations, after
//!
//! > A. L. Rosenberg, "Guidelines for Data-Parallel Cycle-Stealing in
//! > Networks of Workstations, II: On Maximizing Guaranteed Output",
//! > IPPS 1999.
//!
//! ## The model in brief
//!
//! Workstation `A` borrows workstation `B` for a usable lifespan `U`,
//! subject to at most `p` owner interrupts, each of which **kills all work
//! in progress**. Work is dispatched in *periods*; each period pays a
//! communication-setup charge `c`, so a period of length `t` that completes
//! banks `t ⊖ c` work, and a period that is interrupted banks nothing.
//! Scheduling is a game against a malicious adversary who places the
//! interrupts to minimize the banked total.
//!
//! ## What lives where
//!
//! * [`time`] — the `Time`/`Work` scalar and the paper's `⊖`.
//! * [`model`] — the opportunity triple `(U, c, p)`.
//! * [`schedule`] — episode schedules `t_1, …, t_m` and their invariants,
//!   including Theorem 4.1's productive-normalization.
//! * [`work`] — §2.2 work accounting: episode outcomes under interrupts,
//!   and the non-adaptive tail-replay/consolidation discipline.
//! * [`schedules`] — §3.1's non-adaptive guideline, §3.2's adaptive
//!   guideline, §5.2's exact `p = 1` optimum, Theorem 4.3's equalization
//!   constructor, and naive baselines.
//! * [`bounds`] — Prop 4.1, Thm 5.1 and the closed forms of Table 2.
//! * [`table1`] — the adversary's option table (Table 1), regenerable for
//!   any schedule.
//! * [`policy`] — the traits tying owners, adversaries and work oracles
//!   together across the workspace.
//!
//! The exact game solver (the `W^(p)[L]` oracle) lives in `cyclesteal-dp`;
//! adversaries and the game runner in `cyclesteal-adversary`; a discrete-
//! event NOW simulator in `now-sim`.
//!
//! ## Quick start
//!
//! ```
//! use cyclesteal_core::prelude::*;
//!
//! // An overnight opportunity: 8 hours in seconds, 30 s setup charge,
//! // at most 3 interrupts.
//! let opp = Opportunity::from_units(8.0 * 3600.0, 30.0, 3);
//!
//! // §3.2's adaptive guideline commits this episode schedule first:
//! let schedule = AdaptiveGuideline::default().episode(&opp).unwrap();
//! assert!(schedule.is_fully_productive(opp.setup()));
//!
//! // Theorem 5.1 guarantees nearly all of the lifespan as useful work:
//! let bound = thm51_lower_bound(&opp, 0.0, 0.0);
//! assert!(bound.get() > 0.9 * opp.lifespan().get());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Determinism: the wall-clock, sleep, hash-collection and unseeded-hash
// bans listed in crates/clippy.toml (see docs/INVARIANTS.md).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod bounds;
pub mod error;
pub mod model;
pub mod policy;
pub mod schedule;
pub mod schedules;
pub mod table1;
pub mod time;
pub mod work;

/// One-stop imports for downstream crates, examples and tests.
pub mod prelude {
    pub use crate::bounds::{
        corrected_guarantee, lambda1_opt, loss_coefficient, m1_opt, nonadaptive_guarantee,
        profile_coefficient, thm51_lower_bound, w0, w1_approx, w1_exact, zero_work_threshold,
    };
    pub use crate::error::{ModelError, Result};
    pub use crate::model::Opportunity;
    pub use crate::policy::{
        Adversary, ClosedFormOracle, CommittedSchedule, EpisodePolicy, WorkOracle,
    };
    pub use crate::schedule::EpisodeSchedule;
    pub use crate::schedules::{
        equalized_schedule, optimal_p1_schedule, verify_equalization, AdaptiveGuideline,
        EqualPeriodsPolicy, EqualizationReport, FixedChunkPolicy, HalvingPolicy,
        NonAdaptiveGuideline, OptimalP1Policy, SelfSimilarGuideline, SinglePeriodPolicy,
    };
    pub use crate::table1::{adversary_value, render_table1, table1, AdversaryOption, Table1Row};
    pub use crate::time::{secs, Time, Work};
    pub use crate::work::{episode_outcome, EpisodeOutcome, InterruptSpec, NonAdaptiveRun};
}
