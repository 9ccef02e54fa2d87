//! # cyclesteal-dp
//!
//! The exact game solver for the guaranteed-output cycle-stealing model:
//! the ground truth every guideline in the paper is measured against.
//!
//! One function, `W^(p)[L]` (the paper's §4 bootstrapping, executed
//! rather than assumed), one table type, five layers:
//!
//! * [`compressed::CompressedTable`] — the table: `W^(p)[L]` exactly on
//!   an integer tick grid for every `p ≤ p_max` and `L ≤ L_max`. Rows are
//!   1-Lipschitz staircases whose flat ticks number only
//!   `O(√(QL) + pQ)`, stored as **arithmetic runs** ([`run`]): `O(p·k)`
//!   memory with `k ≪ L`, about one byte per breakpoint. Reconstructs
//!   optimal episode schedules and implements
//!   [`cyclesteal_core::policy::WorkOracle`], so Theorem 4.3's equalizer
//!   can be driven by exact values for any `p`.
//!   [`compressed::CompressedTable::solve`] builds it by walking every
//!   tick — the independent reference the served answers are checked
//!   against.
//! * [`event`] — the production build,
//!   [`compressed::CompressedTable::solve_event_driven`]: between
//!   breakpoints every sweep quantity is linear in `L`, so the builder
//!   jumps lifespan event to event (stall ends, flat-tick onsets,
//!   branch/regime switches) in `O(p·k log k)` time — `10^9`-tick tables
//!   in about a second, bit-identical to the tick walk.
//! * [`cache::TableCache`] — one solve per `(setup, resolution, p_max)`
//!   serves a whole `(U/c, p)` sweep; independent configurations solve
//!   in parallel through `cyclesteal-par`, under a global LRU memory
//!   budget.
//! * [`snapshot`] — the persistence boundary: lossless decomposition of
//!   a table into primitive parts and exact (validated) reconstruction —
//!   what the `cyclesteal-store` snapshot format serializes, so a solved
//!   `10⁹`-tick table can be written to disk once and warm-started by
//!   every later process instead of re-solved.
//! * [`eval::evaluate_policy`] — the guaranteed work of an *arbitrary*
//!   policy against the optimal adversary, used by the E-series benches
//!   to score the §3 guidelines and the baselines;
//!   [`eval::evaluate_policy_compressed`] carries the same scoring to
//!   `10^7`–`10^9` tick grids on adaptively-sampled piecewise-linear
//!   rows.
//!
//! A symbol-by-symbol map from the paper's notation (`W^(p)[L]`, `Q`,
//! `h(s)`, episodes, the frontier sweep) to the types and functions here
//! lives in `docs/NOTATION.md` at the repository root.
//!
//! ```
//! use cyclesteal_core::prelude::*;
//! use cyclesteal_dp::CompressedTable;
//!
//! let c = secs(1.0);
//! let table = CompressedTable::solve_event_driven(c, 32, secs(200.0), 2);
//! // Prop 4.1(b): more potential interrupts can only hurt.
//! assert!(table.value(2, secs(200.0)) <= table.value(1, secs(200.0)));
//! // §5.2's closed form is confirmed by the solver at p = 1:
//! let diff = (table.value(1, secs(200.0)) - w1_exact(secs(200.0), c)).abs();
//! assert!(diff.get() < 0.75);
//! // The independent tick-walking build agrees exactly:
//! let walked = CompressedTable::solve(c, 32, secs(200.0), 2);
//! assert_eq!(walked.value_ticks(2, 6400), table.value_ticks(2, 6400));
//! // …and the runs hold far fewer bytes than a dense i64 row per level.
//! assert!(table.memory_bytes() < 3 * 6401 * 8);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod compressed;
pub mod eval;
pub mod event;
pub mod grid;
pub mod profile;
pub mod run;
pub mod snapshot;

pub use cache::{CacheStats, EvictHook, ShardStats, SolveConfig, TableCache};
pub use compressed::{expand_value_runs, CompressedOptimalPolicy, CompressedTable, ValueRun};
pub use eval::{
    evaluate_policy, evaluate_policy_compressed, CompressedEvalOptions, CompressedPolicyValue,
    EvalOptions, PolicyValue,
};
pub use grid::Grid;
pub use profile::{Phase, PhaseRecorder, PhaseTimings, ProfileSink, PHASE_COUNT};
pub use snapshot::{PartsError, RowParts, RunParts, TableParts};

#[cfg(test)]
mod cross_tests {
    //! Cross-module validations: Theorem 4.3's equalizer driven by the
    //! exact oracle must reproduce the exact game value.
    use crate::compressed::CompressedTable;
    use cyclesteal_core::prelude::*;

    #[test]
    fn equalizer_with_exact_oracle_matches_game_value() {
        let c = secs(1.0);
        let table = CompressedTable::solve_event_driven(c, 32, secs(160.0), 3);
        for p in 1..=3u32 {
            for &u in &[40.0, 90.0, 160.0] {
                let opp = Opportunity::from_units(u, 1.0, p);
                let (sched, value) = equalized_schedule(&table, &opp).unwrap();
                let exact = table.value(p, secs(u));
                assert!(
                    (value - exact).abs() <= secs(0.25),
                    "p={p} U={u}: equalizer {value} vs DP {exact}"
                );
                assert!(sched.total().approx_eq(secs(u), secs(1e-6)));
                // The audit agrees with the constructed value.
                let report = verify_equalization(&table, &opp, &sched);
                assert!(
                    (report.value - value).abs() <= secs(0.05),
                    "p={p} U={u}: audit {} vs constructed {}",
                    report.value,
                    value
                );
            }
        }
    }

    #[test]
    fn fully_productive_restriction_is_lossless_here() {
        // §4.1 admits the fully-productive restriction is a heuristic.
        // The DP searches ALL schedules (including nonproductive periods);
        // its optimum matching the equalizer's fully-productive
        // construction (above) and §5.2 (compressed.rs tests) is numerical
        // evidence the restriction loses nothing. Here: reconstructed
        // optimal episodes are always productive outside the zero region.
        let c = secs(1.0);
        let table = CompressedTable::solve_event_driven(c, 16, secs(120.0), 2);
        for p in 1..=2u32 {
            for &u in &[20.0, 60.0, 120.0] {
                if table.value(p, secs(u)) > Work::ZERO {
                    let s = table.episode(p, secs(u)).unwrap();
                    assert!(
                        s.make_productive(c).work_uninterrupted(c) >= s.work_uninterrupted(c),
                        "Thm 4.1 sanity at p={p}, U={u}"
                    );
                }
            }
        }
    }
}
