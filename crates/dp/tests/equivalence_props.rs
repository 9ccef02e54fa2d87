//! Equivalence property tests: both table builds — the production
//! event-driven build and the tick-walking reference — must agree with
//! the dense oracle of `support` on values, on argmax and on the
//! episodes the argmax induces, over randomized `(q, L, p)` grids and at
//! the documented edges (`t ≤ Q` wait domination, `L ∈ {0, 1}`,
//! single-breakpoint rows, all-flat tails). The certificate of `support`
//! checks the production build against the §4 recursion at sizes no
//! dense oracle reaches.

mod support;

use cyclesteal_core::prelude::*;
use cyclesteal_dp::CompressedTable;
use proptest::prelude::*;
use std::time::Instant;
use support::{certificate_points, certify, Oracle, Search};

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

/// A table built from mutated parts: the last flat of the first level-`p`
/// run past the middle that stores residuals moves one tick later. Returns
/// the table and the flat's old position.
fn with_one_flat_moved(table: &CompressedTable, p: usize) -> (CompressedTable, i64) {
    let mut parts = table.to_parts();
    let row = &mut parts.rows[p];
    let mut off = 0usize;
    let mut moved = None;
    for (i, run) in row.runs.iter().enumerate() {
        let len = run.len as usize;
        if run.has_residuals {
            let last = off + len - 1;
            let j = i64::from(run.len) - 1;
            let tick = run.start + ((j * run.step_fx) >> 16) + i64::from(row.residuals[last]);
            let next = row.runs.get(i + 1).map_or(parts.max_ticks + 1, |r| r.start);
            if i >= row.runs.len() / 2 && tick + 1 < next && row.residuals[last] < 127 {
                row.residuals[last] += 1;
                moved = Some(tick);
                break;
            }
            off += len;
        }
    }
    let moved = moved.expect("a run with residuals and room to move its last flat");
    (CompressedTable::from_parts(parts).unwrap(), moved)
}

#[test]
fn certificate_accepts_every_state_of_small_tables() {
    for (q, u, p) in [
        (1u32, 300.0, 4u32),
        (4, 200.0, 3),
        (7, 150.0, 5),
        (16, 40.0, 6),
    ] {
        let table = solve_event(q, u, p);
        let every: Vec<(u32, i64)> = (0..=p)
            .flat_map(|pp| (0..=table.max_ticks()).map(move |l| (pp, l)))
            .collect();
        assert_eq!(certify(&table, &every), Ok(()), "q={q}, U={u}, p={p}");
    }
}

#[test]
fn certificate_catches_one_moved_flat() {
    let table = solve_event(8, 2000.0, 4);
    for p in 1..=4 {
        let (bad, tick) = with_one_flat_moved(&table, p);
        let points = certificate_points(&bad, 200, 11);
        assert_eq!(certify(&bad, &points), Err((p as u32, tick)));
    }
}

/// The production build at `(Q=32, p=8, 10⁷ ticks)`, checked against the
/// §4 recursion at the zero-region edges, both ends of every stored
/// descriptor and a seeded sample.
#[test]
fn certificate_holds_at_ten_million_ticks() {
    let table = solve_event(32, 312_500.0, 8);
    assert_eq!(table.max_ticks(), 10_000_000);
    let points = certificate_points(&table, 20_000, 7);
    assert_eq!(certify(&table, &points), Ok(()));
}

/// FNV-1a over every field of `to_parts()`: a fixed digest of the stored
/// rows, residual bytes and event count.
fn parts_digest(table: &CompressedTable) -> u64 {
    let parts = table.to_parts();
    let mut words = vec![
        parts.setup.get().to_bits(),
        u64::from(parts.ticks_per_setup),
        parts.max_ticks as u64,
        u64::from(parts.max_interrupts),
        parts.events,
    ];
    for row in &parts.rows {
        words.push(row.zero_until as u64);
        for run in &row.runs {
            words.extend([
                run.start as u64,
                run.step_fx as u64,
                u64::from(run.len),
                u64::from(run.has_residuals),
            ]);
        }
        words.extend(row.residuals.iter().map(|&r| r as u64));
    }
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The `(Q=32, p=16, 10⁹ ticks)` acceptance table, certified with 20,000
/// sampled lifespans per level, and its stored form pinned by a digest
/// recorded before the builder kept levels as flat tick lists. Takes
/// seconds in release, far longer in debug, so it runs on request:
/// `cargo test --release -p cyclesteal-dp --test equivalence_props -- --ignored --nocapture`.
#[test]
#[ignore = "release-mode check at the 10⁹-tick acceptance point"]
fn certificate_holds_at_a_billion_ticks() {
    let start = Instant::now();
    let table = solve_event(32, 31_250_000.0, 16);
    let solved = start.elapsed();
    let points = certificate_points(&table, 20_000, 7);
    let result = certify(&table, &points);
    let digest = parts_digest(&table);
    eprintln!(
        "certificate at 10^9 ticks: {} points, {} failed, solve {:.2} s, certify {:.2} s, digest {digest:#018x}",
        points.len(),
        usize::from(result.is_err()),
        solved.as_secs_f64(),
        (start.elapsed() - solved).as_secs_f64()
    );
    assert_eq!(result, Ok(()));
    assert_eq!(digest, 0xd84e_f688_fd71_4217, "stored rows moved");
}
