//! # cyclesteal-adversary
//!
//! The adversary's side of the guaranteed-output cycle-stealing game, and
//! the runner that plays owners against adversaries.
//!
//! * [`optimal`] — §4's malicious adversary (oracle-driven), plus the
//!   policy-aware variant that is exactly worst-case against a *fixed*
//!   owner policy.
//! * [`nonadaptive`] — the exact `O(m log m)` worst case against a
//!   committed non-adaptive schedule with §2.2's tail-consolidation rule.
//! * [`stochastic`] — uniform, Poisson and trace-replay owners for
//!   typical-case studies.
//! * [`counter`] — counter-based per-episode RNG streams for
//!   population-scale batch simulation (bit-identical at any thread
//!   count or block size).
//! * [`game`] — the opportunity game loop and its transcript.
//!
//! ```
//! use cyclesteal_core::prelude::*;
//! use cyclesteal_adversary::{game::run_game, optimal::OptimalAdversary};
//!
//! let c = secs(1.0);
//! let opp = Opportunity::from_units(400.0, 1.0, 1);
//! let mut adversary = OptimalAdversary::new(ClosedFormOracle::new(c));
//! let log = run_game(&OptimalP1Policy, &mut adversary, &opp).unwrap();
//! // §5.2: the realized work is exactly W^(1)[U].
//! assert!(log.total_work.approx_eq(w1_exact(secs(400.0), c), secs(1e-6)));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Determinism: the wall-clock, sleep, hash-collection and unseeded-hash
// bans listed in crates/clippy.toml (see docs/INVARIANTS.md).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod counter;
pub mod game;
pub mod nonadaptive;
pub mod optimal;
pub mod stochastic;

pub use counter::CounterRng;
pub use game::{run_game, EpisodeRecord, GameLog};
pub use nonadaptive::{worst_case, NonAdaptiveWorstCase};
pub use optimal::{OptimalAdversary, PolicyAwareAdversary};
pub use stochastic::{PoissonAdversary, TraceAdversary, UniformRandomAdversary};
