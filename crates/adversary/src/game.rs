//! The owner-vs-adversary game runner (§2.2's opportunity semantics).
//!
//! Plays an [`EpisodePolicy`] against an [`Adversary`] over a full
//! cycle-stealing opportunity: the policy commits an episode schedule for
//! the residual `(p, L)`; the adversary responds; banked work accumulates;
//! interrupts spend budget and lifespan until the episode completes (which
//! exhausts the lifespan) or nothing remains.

use cyclesteal_core::error::Result;
use cyclesteal_core::model::Opportunity;
use cyclesteal_core::policy::{Adversary, EpisodePolicy};
use cyclesteal_core::time::{Time, Work};
use cyclesteal_core::work::{episode_outcome, InterruptSpec};

/// One episode of a played-out game.
#[derive(Clone, Debug)]
pub struct EpisodeRecord {
    /// Interrupt budget when the episode was committed.
    pub interrupts_left: u32,
    /// Residual lifespan when the episode was committed.
    pub residual: Time,
    /// Number of periods the policy committed.
    pub periods: usize,
    /// How the adversary responded.
    pub response: InterruptSpec,
    /// Work banked by this episode.
    pub work: Work,
    /// Usable lifespan this episode consumed.
    pub consumed: Time,
}

/// The transcript of one full opportunity.
#[derive(Clone, Debug)]
pub struct GameLog {
    /// The opportunity as originally contracted.
    pub opportunity: Opportunity,
    /// Episode-by-episode transcript.
    pub episodes: Vec<EpisodeRecord>,
    /// Total banked work.
    pub total_work: Work,
}

impl GameLog {
    /// Number of interrupts the adversary actually used.
    pub fn interrupts_used(&self) -> usize {
        self.episodes
            .iter()
            .filter(|e| !matches!(e.response, InterruptSpec::None))
            .count()
    }

    /// Total usable lifespan consumed over all episodes.
    pub fn consumed(&self) -> Time {
        self.episodes.iter().map(|e| e.consumed).sum()
    }
}

/// Plays the game to completion and returns the transcript.
///
/// Invariants maintained (and asserted in tests): at most `p` interrupts
/// occur; consumed lifespan never exceeds `U`; the game ends either on an
/// uninterrupted episode (which by construction covers the whole residual
/// lifespan) or when lifespan/budget semantics terminate it.
pub fn run_game(
    policy: &dyn EpisodePolicy,
    adversary: &mut dyn Adversary,
    opportunity: &Opportunity,
) -> Result<GameLog> {
    let c = opportunity.setup();
    let mut current = *opportunity;
    let mut episodes = Vec::new();
    let mut total_work = Work::ZERO;

    while current.lifespan().is_positive() {
        let schedule = policy.episode(&current)?;
        let response = if current.interrupts() > 0 {
            adversary.respond(&current, &schedule)
        } else {
            InterruptSpec::None
        };
        let outcome = episode_outcome(&schedule, c, response)?;
        total_work += outcome.work;
        episodes.push(EpisodeRecord {
            interrupts_left: current.interrupts(),
            residual: current.lifespan(),
            periods: schedule.len(),
            response,
            work: outcome.work,
            consumed: outcome.consumed,
        });
        if !outcome.interrupted {
            break; // episode ran to completion: lifespan exhausted
        }
        current = current.after_interrupt(outcome.consumed);
    }

    Ok(GameLog {
        opportunity: *opportunity,
        episodes,
        total_work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::{OptimalAdversary, PolicyAwareAdversary};
    use crate::stochastic::{TraceAdversary, UniformRandomAdversary};
    use cyclesteal_core::bounds::w1_exact;
    use cyclesteal_core::prelude::*;
    use cyclesteal_dp::{evaluate_policy, CompressedOptimalPolicy, CompressedTable, EvalOptions};
    use std::sync::Arc;

    #[test]
    fn optimal_policy_vs_optimal_adversary_realizes_game_value() {
        let c = secs(1.0);
        let table = Arc::new(CompressedTable::solve_event_driven(c, 32, secs(200.0), 3));
        let policy = CompressedOptimalPolicy::new(table.clone());
        for p in 0..=3u32 {
            for &u in &[10.0, 64.0, 150.0, 200.0] {
                let opp = Opportunity::from_units(u, 1.0, p);
                let mut adv = OptimalAdversary::new(table.as_ref());
                let log = run_game(&policy, &mut adv, &opp).unwrap();
                let expect = table.value(p, secs(u));
                assert!(
                    (log.total_work - expect).abs() <= secs(0.4),
                    "p={p} U={u}: game {} vs table {}",
                    log.total_work,
                    expect
                );
                assert!(log.interrupts_used() <= p as usize);
                assert!(log.consumed() <= secs(u) + secs(1e-6));
            }
        }
    }

    #[test]
    fn p1_game_matches_closed_form() {
        let c = secs(1.0);
        let policy = OptimalP1Policy;
        let oracle = ClosedFormOracle::new(c);
        for &u in &[5.0, 50.0, 500.0, 5000.0] {
            let opp = Opportunity::from_units(u, 1.0, 1);
            let mut adv = OptimalAdversary::new(oracle);
            let log = run_game(&policy, &mut adv, &opp).unwrap();
            let expect = w1_exact(secs(u), c);
            assert!(
                log.total_work.approx_eq(expect, secs(1e-6)),
                "U={u}: game {} vs W^1 {}",
                log.total_work,
                expect
            );
        }
    }

    #[test]
    fn policy_aware_adversary_realizes_evaluated_value() {
        // The strongest cross-check in the workspace: the game transcript
        // of (π, policy-aware adversary) must land exactly on G_π.
        let c = secs(1.0);
        let policy = AdaptiveGuideline::default();
        let pv = evaluate_policy(&policy, c, 32, secs(150.0), 2, EvalOptions::default()).unwrap();
        for p in 0..=2u32 {
            for &u in &[20.0, 75.0, 150.0] {
                let expect = pv.value(p, secs(u));
                let mut adv = PolicyAwareAdversary::new(pv.clone());
                let opp = Opportunity::from_units(u, 1.0, p);
                let log = run_game(&policy, &mut adv, &opp).unwrap();
                assert!(
                    (log.total_work - expect).abs() <= secs(0.4),
                    "p={p} U={u}: game {} vs evaluated {}",
                    log.total_work,
                    expect
                );
            }
        }
    }

    #[test]
    fn stochastic_games_respect_budget_and_lifespan() {
        let policy = AdaptiveGuideline::default();
        for seed in 0..20u64 {
            let mut adv = UniformRandomAdversary::new(seed, 0.9);
            let opp = Opportunity::from_units(500.0, 1.0, 4);
            let log = run_game(&policy, &mut adv, &opp).unwrap();
            assert!(log.interrupts_used() <= 4);
            assert!(log.consumed() <= secs(500.0) + secs(1e-6));
            assert!(log.total_work >= Work::ZERO);
            // Work never exceeds lifespan minus one setup charge.
            assert!(log.total_work <= secs(499.0) + secs(1e-6));
        }
    }

    #[test]
    fn trace_game_replays_interrupts_in_order() {
        let policy = EqualPeriodsPolicy::new(4);
        let mut adv = TraceAdversary::new(vec![secs(30.0), secs(60.0)]);
        let opp = Opportunity::from_units(100.0, 1.0, 2);
        let log = run_game(&policy, &mut adv, &opp).unwrap();
        assert_eq!(log.interrupts_used(), 2);
        assert_eq!(log.episodes.len(), 3);
        // First episode: 4×25; interrupt at 30 ⇒ period 1, consumed 30.
        assert!(log.episodes[0].consumed.approx_eq(secs(30.0), secs(1e-9)));
        // Second episode over 70: 4×17.5; interrupt at absolute 60 ⇒ 30 in.
        assert!(log.episodes[1].consumed.approx_eq(secs(30.0), secs(1e-9)));
        // Final episode runs out the remaining 40 uninterrupted.
        assert!(log.episodes[2].consumed.approx_eq(secs(40.0), secs(1e-9)));
        assert!(log.consumed().approx_eq(secs(100.0), secs(1e-9)));
    }

    #[test]
    fn more_interrupts_never_help_the_owner() {
        // Monotonicity of the realized game value in p, under optimal play
        // (Prop 4.1(b) at the game level).
        let c = secs(1.0);
        let table = Arc::new(CompressedTable::solve_event_driven(c, 16, secs(128.0), 4));
        let policy = CompressedOptimalPolicy::new(table.clone());
        let mut prev = Work::new(f64::MAX);
        for p in 0..=4u32 {
            let opp = Opportunity::from_units(128.0, 1.0, p);
            let mut adv = OptimalAdversary::new(table.as_ref());
            let log = run_game(&policy, &mut adv, &opp).unwrap();
            assert!(
                log.total_work <= prev + secs(0.3),
                "p={p}: {} beat p−1's {}",
                log.total_work,
                prev
            );
            prev = log.total_work;
        }
    }
}
