//! Property tests for the exact solver: random parameters, random
//! competing policies, grid-resolution relationships.

use cyclesteal_core::prelude::*;
use cyclesteal_dp::{evaluate_policy, CompressedTable, EvalOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No equal-period policy — whatever its m — beats the table, at any
    /// random query point.
    #[test]
    fn random_equal_policies_never_beat_the_table(
        m in 1usize..40,
        u in 5.0f64..120.0,
        p in 0u32..3,
    ) {
        let table = CompressedTable::solve_event_driven(secs(1.0), 8, secs(120.0), 2);
        let pv = evaluate_policy(
            &EqualPeriodsPolicy::new(m), secs(1.0), 8, secs(120.0), 2,
            EvalOptions::default()).unwrap();
        let g = pv.value(p, secs(u));
        let w = table.value(p, secs(u));
        prop_assert!(g <= w + secs(0.2),
            "equal-{m} gets {g} at (p={p}, U={u}), table says {w}");
    }

    /// Doubling the grid resolution never lowers the computed value by
    /// more than the coarse grid's tick (the fine grid can realize every
    /// coarse schedule exactly).
    #[test]
    fn refinement_consistency(u in 4.0f64..64.0, p in 1u32..3) {
        let coarse = CompressedTable::solve_event_driven(secs(1.0), 4, secs(64.0), 2);
        let fine = CompressedTable::solve_event_driven(secs(1.0), 8, secs(64.0), 2);
        let wc = coarse.value(p, secs(u));
        let wf = fine.value(p, secs(u));
        prop_assert!(wf + secs(1e-9) >= wc - secs(0.25),
            "refining lost value at (p={p}, U={u}): {wc} -> {wf}");
    }

    /// The reconstructed optimal episode realizes the table's value: the
    /// adversary's best option against it (scored by the table itself)
    /// equals W^(p) up to a tick.
    #[test]
    fn reconstruction_realizes_the_value(u in 10.0f64..100.0, p in 1u32..3) {
        let table = CompressedTable::solve_event_driven(secs(1.0), 16, secs(100.0), 2);
        let sched = table.episode(p, secs(u)).unwrap();
        let rows = table1(&table, &Opportunity::from_units(u, 1.0, p), &sched);
        let realized = adversary_value(&rows);
        let claimed = table.value(p, secs(u));
        prop_assert!((realized - claimed).abs() <= secs(0.15),
            "(p={p}, U={u}): realized {realized} vs claimed {claimed}");
    }

    /// p = 1 conformance with §5.2 at arbitrary (non-grid) lifespans.
    #[test]
    fn p1_conformance_off_grid(u in 3.0f64..190.0) {
        let table = CompressedTable::solve_event_driven(secs(1.0), 64, secs(190.0), 1);
        let dp = table.value(1, secs(u));
        let cf = w1_exact(secs(u), secs(1.0));
        prop_assert!(dp <= cf + secs(0.02), "grid beats continuum at U={u}");
        prop_assert!(dp >= cf - secs(0.6), "grid too lossy at U={u}: {dp} vs {cf}");
    }
}
