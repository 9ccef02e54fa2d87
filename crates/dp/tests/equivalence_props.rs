//! Equivalence property tests: both table builds — the production
//! event-driven build and the tick-walking reference — must agree with
//! the dense oracle of `support` on values, on argmax and on the
//! episodes the argmax induces, over randomized `(q, L, p)` grids and at
//! the documented edges (`t ≤ Q` wait domination, `L ∈ {0, 1}`,
//! single-breakpoint rows, all-flat tails).

mod support;

use cyclesteal_core::prelude::*;
use cyclesteal_dp::CompressedTable;
use proptest::prelude::*;
use support::{Oracle, Search};

fn solve_event(q: u32, max_u: f64, p: u32) -> CompressedTable {
    CompressedTable::solve_event_driven(secs(1.0), q, secs(max_u), p)
}

fn solve_walk(q: u32, max_u: f64, p: u32) -> CompressedTable {
    CompressedTable::solve(secs(1.0), q, secs(max_u), p)
}

/// The oracle over the same tick range as `table`.
fn oracle(table: &CompressedTable, p: u32, search: Search) -> Oracle {
    Oracle::solve(table.grid().q() as u32, table.max_ticks(), p, search)
}

/// Worst-case value an episode schedule actually realizes at `(p, u)`,
/// scored by the Table-1 machinery against the exact table.
fn realized(table: &CompressedTable, p: u32, u: f64, sched: &EpisodeSchedule) -> Work {
    let rows = table1(table, &Opportunity::from_units(u, 1.0, p), sched);
    adversary_value(&rows)
}

/// The episode `table` reconstructs at `(p, u)` must be the oracle's
/// argmax chain: the same period count, and every period past the first
/// (which absorbs the off-grid drift) exactly the oracle's tick length.
fn assert_episode_is_oracles(table: &CompressedTable, oracle: &Oracle, p: u32, u: f64) {
    let ticks = oracle.episode_ticks(p, table.grid().to_ticks(secs(u)).min(table.max_ticks()));
    let got = table.episode(p, secs(u)).unwrap();
    assert_eq!(got.len(), ticks.len(), "period count at p={p}, U={u}");
    for (k, &t) in ticks.iter().enumerate().skip(1) {
        assert_eq!(
            got.period(k),
            table.grid().to_time(t),
            "period {k} at p={p}, U={u}"
        );
    }
    assert!(got.total().approx_eq(secs(u), secs(1e-9)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both builds and both oracle searches produce identical values at
    /// every state.
    #[test]
    fn values_agree_everywhere(q in 2u32..12, max_u in 1.0f64..60.0, p in 0u32..4) {
        let event = solve_event(q, max_u, p);
        let walked = solve_walk(q, max_u, p);
        let bisect = oracle(&event, p, Search::Bisection);
        let scan = oracle(&event, p, Search::LinearScan);
        prop_assert_eq!(event.max_ticks(), walked.max_ticks());
        for pp in 0..=p {
            prop_assert_eq!(event.breakpoints(pp), walked.breakpoints(pp),
                "logical breakpoints differ at q={}, p={}", q, pp);
            for l in 0..=event.max_ticks() {
                let w = bisect.value_ticks(pp, l);
                prop_assert_eq!(w, scan.value_ticks(pp, l),
                    "oracle searches differ at q={}, p={}, l={}", q, pp, l);
                prop_assert_eq!(w, event.value_ticks(pp, l),
                    "event-driven differs at q={}, p={}, l={}", q, pp, l);
                prop_assert_eq!(w, walked.value_ticks(pp, l),
                    "tick walk differs at q={}, p={}, l={}", q, pp, l);
            }
        }
    }

    /// Bisection and the tables' query-time policy share one crossing
    /// rule: their argmax is bit-identical state by state.
    #[test]
    fn crossing_argmax_is_identical(q in 2u32..12, max_u in 1.0f64..60.0, p in 0u32..4) {
        let event = solve_event(q, max_u, p);
        let walked = solve_walk(q, max_u, p);
        let bisect = oracle(&event, p, Search::Bisection);
        for pp in 0..=p {
            for l in 1..=event.max_ticks() {
                let t = bisect.first_period_ticks(pp, l);
                prop_assert_eq!(t, event.first_period_ticks(pp, l),
                    "event-driven argmax differs at q={}, p={}, l={}", q, pp, l);
                prop_assert_eq!(t, walked.first_period_ticks(pp, l),
                    "tick-walk argmax differs at q={}, p={}, l={}", q, pp, l);
            }
        }
    }

    /// Both builds reconstruct the bisection oracle's episodes exactly.
    /// The linear scan may break argmax ties differently (it keeps the
    /// smallest maximizer), but the episode it induces realizes the same
    /// guaranteed work.
    #[test]
    fn episode_outputs_are_equivalent(
        q in 4u32..10,
        max_u in 10.0f64..50.0,
        p in 1u32..3,
        frac in 0.3f64..1.0,
    ) {
        let event = solve_event(q, max_u, p);
        let walked = solve_walk(q, max_u, p);
        let bisect = oracle(&event, p, Search::Bisection);
        let scan = oracle(&event, p, Search::LinearScan);
        let u = max_u * frac;
        if event.value(p, secs(u)) > Work::ZERO {
            assert_episode_is_oracles(&event, &bisect, p, u);
            assert_episode_is_oracles(&walked, &bisect, p, u);
            let es = event.episode(p, secs(u)).unwrap();
            let ew = walked.episode(p, secs(u)).unwrap();
            prop_assert_eq!(es.periods(), ew.periods());
            // The scan's on-grid episode may differ in shape but not in
            // what it guarantees (a tick of tolerance for off-grid drift).
            let grid = event.grid();
            let l = grid.to_ticks(secs(u)).min(event.max_ticks());
            let mut scan_periods: Vec<Time> =
                scan.episode_ticks(p, l).iter().map(|&t| grid.to_time(t)).collect();
            let total: Time = scan_periods.iter().copied().sum();
            scan_periods[0] += secs(u) - total;
            let el = EpisodeSchedule::for_lifespan(scan_periods, secs(u)).unwrap();
            let tick = secs(1.0 / q as f64);
            let vs = realized(&event, p, u, &es);
            let vl = realized(&event, p, u, &el);
            prop_assert!((vs - vl).abs() <= tick,
                "episodes realize different values: sweep {} vs scan {}", vs, vl);
            // And the table's episode realizes the claimed table value.
            let claimed = event.value(p, secs(u));
            prop_assert!((vs - claimed).abs() <= tick * 2.0,
                "sweep episode realizes {} but table claims {}", vs, claimed);
        }
    }

    /// Wait-domination edge: just above the zero region every solver
    /// agrees the optimum is positive, and below it everything is zero
    /// with the burn-it-all argmax.
    #[test]
    fn wait_domination_edge(q in 2u32..10, p in 1u32..4) {
        // Cover exactly the interesting band around (p+1)·Q ticks.
        let max_u = (p as f64 + 1.0) * 2.0 + 1.0;
        let event = solve_event(q, max_u, p);
        let walked = solve_walk(q, max_u, p);
        let scan = oracle(&event, p, Search::LinearScan);
        let qq = q as i64;
        let zero_edge = (p as i64 + 1) * qq;
        for l in 0..=event.max_ticks() {
            let w = scan.value_ticks(p, l);
            prop_assert_eq!(w, event.value_ticks(p, l));
            prop_assert_eq!(w, walked.value_ticks(p, l));
            if l <= zero_edge {
                prop_assert_eq!(w, 0, "W^{}[{}] must be 0 (≤ (p+1)Q)", p, l);
                if l >= 1 {
                    // Zero states burn the lifespan in one period — in
                    // every build.
                    prop_assert_eq!(scan.first_period_ticks(p, l), l);
                    prop_assert_eq!(event.first_period_ticks(p, l), l);
                    prop_assert_eq!(walked.first_period_ticks(p, l), l);
                }
            }
        }
        let above = (p as i64 + 1) * (qq + 1);
        if above <= event.max_ticks() {
            prop_assert!(event.value_ticks(p, above) >= 1);
        }
    }
}

#[test]
fn boundary_lifespans_zero_and_one_tick() {
    for q in [1u32, 2, 8] {
        for p in 0..=2u32 {
            // L = 0 ticks.
            let event = solve_event(q, 0.0, p);
            let walked = solve_walk(q, 0.0, p);
            let scan = oracle(&event, p, Search::LinearScan);
            assert_eq!(event.max_ticks(), 0);
            assert_eq!(walked.max_ticks(), 0);
            assert_eq!(scan.value_ticks(p, 0), 0);
            assert_eq!(event.value_ticks(p, 0), 0);
            assert_eq!(walked.value_ticks(p, 0), 0);
            assert!(event.episode(p, secs(0.0)).is_err());
            assert!(walked.episode(p, secs(0.0)).is_err());

            // L = 1 tick.
            let u1 = 1.0 / q as f64;
            let event = solve_event(q, u1, p);
            let walked = solve_walk(q, u1, p);
            let bisect = oracle(&event, p, Search::Bisection);
            assert_eq!(event.max_ticks(), 1);
            // W^(p)(1 tick) = 1 ⊖ Q = 0 for every Q ≥ 1 and every p.
            let w = bisect.value_ticks(p, 1);
            assert_eq!(w, event.value_ticks(p, 1));
            assert_eq!(w, walked.value_ticks(p, 1));
            assert_eq!(w, 0, "one tick can never out-bank the setup charge");
            let e = event.episode(p, secs(u1)).unwrap();
            assert_eq!(e.len(), 1, "zero-value state burns the lifespan whole");
        }
    }
}

#[test]
fn single_breakpoint_rows_and_all_flat_tails() {
    // Rows whose skeleton is a single breakpoint (the zero-region edge,
    // no flats after): lifespans that never escape the zero region at
    // the deepest level, plus level 0 (W^(0) = l ⊖ Q exactly). And
    // all-flat tails: lifespans ending just inside the zero region of
    // the deepest level, where the event builder must not overrun `n`.
    for q in [1u32, 3, 16] {
        for p in 1..=3u32 {
            let qq = q as i64;
            // n lands exactly on, just below and just above (p+1)·Q —
            // the all-zero / first-positive boundary of level p.
            for n in [
                (p as i64 + 1) * qq - 1,
                (p as i64 + 1) * qq,
                (p as i64 + 1) * qq + 1,
                (p as i64 + 1) * (qq + 1),
                (p as i64 + 1) * (qq + 1) + 3,
            ] {
                let u = n as f64 / q as f64;
                let event = solve_event(q, u, p);
                let bisect = oracle(&event, p, Search::Bisection);
                assert_eq!(event.max_ticks(), n, "q={q} p={p}");
                for pp in 0..=p {
                    for l in 0..=n {
                        assert_eq!(
                            bisect.value_ticks(pp, l),
                            event.value_ticks(pp, l),
                            "q={q} p={pp} l={l} (n={n})"
                        );
                    }
                }
                // Level 0 compresses to the single zero-edge breakpoint.
                assert_eq!(event.breakpoints(0), 1, "q={q} n={n}");
                assert_eq!(event.stored_breakpoints(0), 1, "q={q} n={n}");
            }
        }
    }
}

#[test]
fn event_driven_matches_tick_walk_at_a_million_ticks() {
    // The deep check behind the acceptance criterion: at 10⁶ ticks the
    // event build and the tick-walking build store identical rows, for
    // a mid and a coarse resolution. The tick walk itself is pinned to
    // the dense oracle by the properties above.
    for (q, p) in [(8u32, 2u32), (32, 3)] {
        let ticks: i64 = 1_000_000;
        let u = ticks as f64 / q as f64;
        let walked = solve_walk(q, u, p);
        let event = solve_event(q, u, p);
        assert_eq!(walked.max_ticks(), ticks);
        assert_eq!(event.max_ticks(), ticks);
        assert_eq!(
            walked.to_parts().rows,
            event.to_parts().rows,
            "rows differ at q={q}"
        );
        // The second-order promise at depth: stored descriptors collapse
        // by an order of magnitude below the logical breakpoints, and
        // the footprint to well under a word per breakpoint.
        let logical: usize = (0..=p).map(|pp| event.breakpoints(pp)).sum();
        let stored: usize = (0..=p).map(|pp| event.stored_breakpoints(pp)).sum();
        assert!(
            stored * 5 <= logical,
            "q={q}: stored {stored} of {logical} descriptors (> 0.2×)"
        );
        assert!(
            event.memory_bytes() < logical * 8,
            "q={q}: {} bytes for {logical} breakpoints",
            event.memory_bytes()
        );
    }
}

#[test]
fn compressed_scales_where_dense_cannot() {
    // A lifespan deep into the 10⁷-tick range: a dense table would hold
    // 2 × (10⁷+1) i64 values (~160 MB); the runs hold the same two
    // levels in well under a megabyte and still answer exact queries at
    // the far end.
    let q = 8u32;
    let ticks: i64 = 10_000_000;
    let u = ticks as f64 / q as f64;
    let table = solve_walk(q, u, 1);
    assert_eq!(table.max_ticks(), ticks);
    assert!(
        table.memory_bytes() < 1 << 20,
        "table too large: {} B",
        table.memory_bytes()
    );
    // Exact agreement with the p = 1 closed form at the far end, within
    // grid-quantization slack (the grid only loses, by O(m/Q)).
    let dp = table.value(1, secs(u));
    let cf = w1_exact(secs(u), secs(1.0));
    assert!(dp <= cf + secs(1e-6), "grid beats continuum: {dp} vs {cf}");
    let m = cyclesteal_core::bounds::m1_opt(secs(u), secs(1.0)) as f64;
    assert!(
        dp >= cf - secs((m + 2.0) / q as f64),
        "grid too lossy at U={u}: {dp} vs {cf}"
    );
}
