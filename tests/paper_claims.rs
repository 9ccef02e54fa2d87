//! Integration tests pinning the paper's quantitative claims, each tagged
//! with the section it machine-checks.

use cyclesteal::prelude::*;
use std::sync::Arc;

const C: f64 = 1.0;

fn opp(u: f64, p: u32) -> Opportunity {
    Opportunity::from_units(u, C, p)
}

/// §5.2 / Table 2: the exact optimal `p = 1` value tracks
/// `U − √(2cU) − c/2` to within the discretization of `m`.
#[test]
fn table2_w1_approximation_quality() {
    for &u in &[100.0, 1_000.0, 10_000.0, 100_000.0] {
        let exact = w1_exact(secs(u), secs(C));
        let approx = w1_approx(secs(u), secs(C));
        assert!(
            (exact - approx).abs() <= secs(1.0),
            "U={u}: |{exact} − {approx}| too large"
        );
    }
}

/// Table 2's schedule-shape row: `t_k ≈ √(2cU) − kc` for the optimal
/// schedule's early periods.
#[test]
fn table2_period_length_row() {
    let u = 10_000.0;
    let s = optimal_p1_schedule(secs(u), secs(C)).unwrap();
    let sqrt2cu = (2.0 * C * u).sqrt();
    for k in [1usize, 5, 20, 50] {
        let predicted = sqrt2cu - k as f64 * C;
        let actual = s.period(k - 1).get(); // paper is 1-indexed
        assert!(
            (actual - predicted).abs() <= 2.0,
            "t_{k}: actual {actual} vs √(2cU)−kc = {predicted}"
        );
    }
}

/// Proposition 4.1 at the level of the exact game value.
#[test]
fn proposition_41_on_the_exact_game() {
    let table = CompressedTable::solve_event_driven(secs(C), 8, secs(200.0), 4);
    // (a) nondecreasing in U, (b) nonincreasing in p: checked densely.
    for p in 0..=4u32 {
        let mut prev = Work::ZERO;
        let mut u = 0.0;
        while u <= 200.0 {
            let w = table.value(p, secs(u));
            assert!(w + secs(1e-9) >= prev, "(a) fails at p={p}, U={u}");
            if p > 0 {
                assert!(
                    w <= table.value(p - 1, secs(u)) + secs(1e-9),
                    "(b) fails at p={p}, U={u}"
                );
            }
            prev = w;
            u += 3.7;
        }
        // (c) zero exactly up to (p+1)c.
        let threshold = zero_work_threshold(secs(C), p);
        assert_eq!(table.value(p, threshold), Work::ZERO);
        // (d) p = 0 is the single-period closed form.
        assert!(table
            .value(0, secs(123.0))
            .approx_eq(w0(secs(123.0), secs(C)), secs(1e-9)));
    }
}

/// Theorem 4.1: productive normalization never decreases guaranteed work,
/// measured by the exact policy evaluator on schedules with nonproductive
/// periods.
#[test]
fn theorem_41_productive_normalization() {
    let c = secs(C);
    let raw = EpisodeSchedule::from_periods(
        [0.5, 6.0, 0.9, 5.0, 0.3, 7.3]
            .iter()
            .map(|&x| secs(x))
            .collect(),
    )
    .unwrap();
    let norm = raw.make_productive(c);
    assert!(norm.is_productive(c));
    let u = raw.total();
    // Compare worst cases as committed (non-adaptive, p = 2) schedules.
    let raw_run = NonAdaptiveRun::new(raw, c, u, 2).unwrap();
    let norm_run = NonAdaptiveRun::new(norm, c, u, 2).unwrap();
    assert!(worst_case(&norm_run).work >= worst_case(&raw_run).work);
}

/// Theorem 4.2: splitting a never-interrupted long tail period in two
/// cannot decrease an episode's work production (it banks the same time
/// minus one extra setup — but protects against nothing, so the paper's
/// claim is about r-immune tails; we check the no-interrupt accounting
/// direction that drives the proof).
#[test]
fn theorem_42_tail_splitting() {
    // A schedule whose last period is long; with p = 1 the adversary never
    // gains by hitting the tail of the *optimal* schedule, so splitting it
    // must keep the worst case within one setup charge.
    let c = secs(C);
    let u = secs(400.0);
    let s = optimal_p1_schedule(u, c).unwrap();
    let split = s.split_period(s.len() - 1).unwrap();
    let orig = NonAdaptiveRun::new(s, c, u, 1).unwrap();
    let alt = NonAdaptiveRun::new(split, c, u, 1).unwrap();
    let w_orig = worst_case(&orig).work;
    let w_alt = worst_case(&alt).work;
    assert!(
        w_alt >= w_orig - c,
        "splitting the tail lost more than a setup charge: {w_alt} vs {w_orig}"
    );
}

/// Observation (a): for any fixed period, interrupting at the last instant
/// is (weakly) the adversary's best choice within that period.
#[test]
fn observation_a_last_instant_dominates() {
    let table = CompressedTable::solve_event_driven(secs(C), 16, secs(100.0), 2);
    let u = secs(100.0);
    let s = AdaptiveGuideline::default()
        .episode(&opp(100.0, 2))
        .unwrap();
    // For every period k and a few interior offsets τ: the continuation
    // left to the owner is larger (never smaller) than at the last instant.
    for (k, start, t) in s.iter_windows().take(6) {
        let last = table.value(1, (u - (start + t)).clamp_min_zero());
        for frac in [0.0, 0.3, 0.7, 0.95] {
            let tau = start + t * frac;
            let mid = table.value(1, u - tau);
            assert!(
                mid + secs(1e-9) >= last,
                "period {k}, frac {frac}: mid {mid} < last {last}"
            );
        }
    }
}

/// Observation (b): with budget left and a worthwhile episode, the optimal
/// adversary interrupts.
#[test]
fn observation_b_always_interrupts() {
    let table = Arc::new(CompressedTable::solve_event_driven(
        secs(C),
        16,
        secs(150.0),
        3,
    ));
    let policy = CompressedOptimalPolicy::new(table.clone());
    for p in 1..=3u32 {
        for &u in &[20.0, 80.0, 150.0] {
            let mut adv = OptimalAdversary::new(table.as_ref());
            let log = run_game(&policy, &mut adv, &opp(u, p)).unwrap();
            assert_eq!(
                log.interrupts_used(),
                p as usize,
                "adversary left budget unused at p={p}, U={u}"
            );
        }
    }
}

/// Observation (c): the adversary's chosen interrupt leaves the owner a
/// residual worth attacking — it lands in a period beginning before
/// `U − pc`.
#[test]
fn observation_c_interrupt_position() {
    let table = Arc::new(CompressedTable::solve_event_driven(
        secs(C),
        16,
        secs(120.0),
        2,
    ));
    let policy = CompressedOptimalPolicy::new(table.clone());
    for &u in &[60.0, 120.0] {
        let mut adv = OptimalAdversary::new(table.as_ref());
        let log = run_game(&policy, &mut adv, &opp(u, 2)).unwrap();
        let first = &log.episodes[0];
        if let InterruptSpec::LastInstantOf(k) = first.response {
            let sched = policy.episode(&opp(u, 2)).unwrap();
            let begins = sched.start_of(k);
            assert!(
                begins < secs(u - 2.0 * C),
                "U={u}: interrupted a period beginning at {begins} ≥ U − pc"
            );
        } else {
            panic!("Observation (b) violated first");
        }
    }
}

/// §3.1's analysis: the non-adaptive guideline's exact worst case equals
/// the closed form `(m−p)(U/m − c)`, i.e. `U − 2√(pcU) + pc + O(·)`
/// (DESIGN.md §1.1 note 1), and the adversary's optimal play kills whole
/// periods at last instants.
#[test]
fn section_31_nonadaptive_guarantee() {
    for &(u, p) in &[(5_000.0, 1u32), (20_000.0, 2), (50_000.0, 4)] {
        let o = opp(u, p);
        let run = NonAdaptiveGuideline::run(&o).unwrap();
        let wc = worst_case(&run);
        assert!(wc
            .work
            .approx_eq(NonAdaptiveGuideline::guarantee(&o), secs(1e-6)));
        let continuum = u - 2.0 * (p as f64 * C * u).sqrt() + p as f64 * C;
        let slack = (C * u / p as f64).sqrt() + C; // one period's worth
        assert!(
            (wc.work.get() - continuum).abs() <= slack,
            "U={u},p={p}: worst case {w} vs continuum {continuum}",
            w = wc.work
        );
    }
}

/// Theorem 5.1 at scale, with the **corrected** constants this
/// reproduction derives (EXPERIMENTS.md E5; `bounds::loss_coefficient`):
/// 1. both guidelines are near-optimal (deficit vs the exact optimum is a
///    low-order term relative to the `√(2cU)` loss);
/// 2. the self-similar guideline's measured loss coefficient
///    `(U − W)/√(2cU)` lands on `β_p` (golden recursion), while the
///    paper's printed `2 − 2^(1−p)` sits strictly below the exact
///    optimum for `p ≥ 2` — i.e. the printed bound is unachievable;
/// 3. the corrected bound with fitted low-order constants holds.
///
/// Plus the headline: adaptivity pays for `p ≥ 2` at this scale.
#[test]
fn theorem_51_guarantee_at_scale() {
    let u = 4096.0;
    let table = CompressedTable::solve_event_driven(secs(C), 8, secs(u), 4);
    let arith = evaluate_policy(
        &AdaptiveGuideline::default(),
        secs(C),
        8,
        secs(u),
        4,
        EvalOptions::default(),
    )
    .unwrap();
    let selfsim = evaluate_policy(
        &SelfSimilarGuideline::default(),
        secs(C),
        8,
        secs(u),
        4,
        EvalOptions::default(),
    )
    .unwrap();
    for p in 1..=4u32 {
        let w_ar = arith.value(p, secs(u));
        let w_ss = selfsim.value(p, secs(u));
        let o = opp(u, p);

        // (1) Near-optimality of both guidelines.
        let optimal = table.value(p, secs(u));
        for (name, w) in [("arithmetic", w_ar), ("self-similar", w_ss)] {
            assert!(
                w + secs(0.5 * (C * u).sqrt() + 2.0 * C) >= optimal,
                "p={p}: {name} guideline {w} too far below optimum {optimal}"
            );
        }

        // (2) Coefficients: self-similar lands on β_p; the exact optimum
        // sits above the printed constant (making the printed bound
        // unachievable for p ≥ 2).
        let coeff = |w: Work| (u - w.get()) / (2.0 * C * u).sqrt();
        let beta = loss_coefficient(p);
        assert!(
            (coeff(w_ss) - beta).abs() < 0.1,
            "p={p}: self-similar coefficient {} vs β_p {beta}",
            coeff(w_ss)
        );
        let printed = 2.0 - 2.0f64.powi(1 - p as i32);
        if p >= 2 {
            assert!(
                coeff(optimal) > printed + 0.05,
                "p={p}: optimal coefficient {} does not exceed printed {printed} — \
                 the printed bound would be achievable after all",
                coeff(optimal)
            );
        }

        // (3) Corrected bound with fitted low-order constants.
        let bound = corrected_guarantee(&o, 4.0, 4.0);
        assert!(
            w_ss + secs(1e-6) >= bound,
            "p={p}: self-similar {w_ss} below corrected bound {bound}"
        );

        // Headline: adaptivity pays for p ≥ 2 at this (U, p) scale.
        if p >= 2 {
            assert!(
                w_ss >= nonadaptive_guarantee(&o) - secs(1.0),
                "p={p}: adaptive {w_ss} loses to non-adaptive"
            );
        }
    }
}

/// Table 1 regenerated for the optimal schedule shows the equalization the
/// paper's §4.2 strategy aims for, and the adversary's value matches the
/// exact `W^(p)`.
#[test]
fn table1_regeneration_consistency() {
    let table = CompressedTable::solve_event_driven(secs(C), 32, secs(100.0), 2);
    for p in 1..=2u32 {
        let o = opp(100.0, p);
        let sched = table.episode(p, secs(100.0)).unwrap();
        let rows = table1(&table, &o, &sched);
        assert_eq!(rows.len(), sched.len() + 1);
        let v = adversary_value(&rows);
        let w = table.value(p, secs(100.0));
        assert!(
            (v - w).abs() <= secs(0.25),
            "p={p}: Table-1 min {v} vs W^(p) {w}"
        );
    }
}
