//! # cyclesteal
//!
//! A production-quality Rust implementation of
//!
//! > Arnold L. Rosenberg, *"Guidelines for Data-Parallel Cycle-Stealing in
//! > Networks of Workstations, II: On Maximizing Guaranteed Output"*,
//! > IPPS 1999,
//!
//! together with every substrate the paper's model needs to be exercised
//! end-to-end: an exact minimax game solver, optimal and stochastic
//! adversaries, a discrete-event NOW simulator, workload generators, and
//! the companion expected-output submodel.
//!
//! This facade re-exports the whole workspace; see the individual crates
//! for depth:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `cyclesteal-core` | model, schedules (§3.1, §3.2, §5.2, Thm 4.3), bounds, Table 1 |
//! | [`dp`] | `cyclesteal-dp` | exact `W^(p)[L]` tables (run-backed, event-driven build plus a tick-walking reference), table cache, dense + compressed-oracle policy evaluators |
//! | [`adversary`] | `cyclesteal-adversary` | optimal/stochastic adversaries, game runner |
//! | [`sim`] | `now-sim` | discrete-event NOW simulator |
//! | [`workloads`] | `cyclesteal-workloads` | task bags + owner traces |
//! | [`expected`] | `cyclesteal-expected` | expected-output companion submodel |
//! | [`par`] | `cyclesteal-par` | deterministic parallel sweep utilities |
//!
//! ## Thirty seconds of cycle-stealing
//!
//! ```
//! use cyclesteal::prelude::*;
//!
//! // Borrow a colleague's workstation for 2 hours (in units of the 30 s
//! // communication setup charge: U/c = 240) with at most 2 interrupts.
//! let opp = Opportunity::from_units(240.0, 1.0, 2);
//!
//! // The adaptive guideline (§3.2) plans this episode first:
//! let first = AdaptiveGuideline::default().episode(&opp).unwrap();
//!
//! // Against the worst-case owner it still banks most of the lifespan:
//! let table = CompressedTable::solve_event_driven(secs(1.0), 16, secs(240.0), 2);
//! let optimal = table.value(2, secs(240.0));
//! assert!(optimal.get() > 200.0);
//! assert!(first.is_fully_productive(opp.setup()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub use cyclesteal_adversary as adversary;
pub use cyclesteal_core as core;
pub use cyclesteal_dp as dp;
pub use cyclesteal_expected as expected;
pub use cyclesteal_par as par;
pub use cyclesteal_workloads as workloads;
pub use now_sim as sim;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use cyclesteal_adversary::{
        game::run_game, nonadaptive::worst_case, GameLog, NonAdaptiveWorstCase, OptimalAdversary,
        PoissonAdversary, PolicyAwareAdversary, TraceAdversary, UniformRandomAdversary,
    };
    pub use cyclesteal_core::prelude::*;
    pub use cyclesteal_dp::{
        evaluate_policy, evaluate_policy_compressed, CompressedEvalOptions,
        CompressedOptimalPolicy, CompressedPolicyValue, CompressedTable, EvalOptions, PolicyValue,
        SolveConfig, TableCache,
    };
    pub use cyclesteal_expected::{expected_work, ExpectedDp, InterruptLaw};
    pub use cyclesteal_workloads::{OwnerEvent, OwnerTrace, Task, TaskBag, TaskDist};
    pub use now_sim::{DriverKind, LenderConfig, NowSim, SimReport};
}
