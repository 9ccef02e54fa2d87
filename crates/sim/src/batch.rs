//! Population-scale batch simulation: millions of episodes in
//! struct-of-arrays form.
//!
//! [`BatchSim`] plays the §2.2 period game for `N` independent episodes
//! of the *same* contract `(L, Q, p)` — the table-driven optimal
//! borrower against a configurable [`BatchAdversary`] — entirely on the
//! integer tick grid of a solved [`CompressedTable`]. There is no event
//! queue, no task bag and no per-episode heap `Lender`: episode state
//! lives in parallel arrays (lifespan left, interrupt budget left,
//! banked/lost ticks, period counters, the owner's next-arrival clock
//! and the per-episode draw counter), and one sweep of the live list
//! advances every running episode by exactly one period — dispatch and
//! resolution fused, so the in-flight period state never leaves
//! registers.
//!
//! **Determinism.** Every episode is a pure function of
//! `(config, episode index)`: randomness comes from counter-based
//! [`CounterRng`] streams keyed by `(seed, episode index)` (the same
//! splitmix64 scheme as the serving layer's fault harness), episode
//! blocks are fanned over a [`WorkerPool`] in index order, and the final
//! reduction is a sequential pass in episode order over exact integer
//! tick counts. Results are therefore bit-identical at any thread count
//! and any block size.
//!
//! **Validation semantics.** The borrower plays period-by-period with
//! [`CompressedTable::first_period_ticks`] — exactly the schedule
//! [`CompressedTable::episode`] commits, replanned from the residual
//! state after every interrupt. Against *any* adversary that spends at
//! most `p` interrupts at integer-tick instants, the banked output of
//! that play is at least `W^(p)[L]` (flooring a continuous arrival to
//! the grid only concedes lifespan to the borrower), so
//! `observed < guaranteed` is a hard zero-tolerance bug — the invariant
//! the `sim-validate` CI gate enforces. The [`BatchAdversary::Worst`]
//! owner realizes the minimax bound *exactly*: every episode banks
//! precisely `W^(p)[L]` ticks.

use crate::kernel;
use cyclesteal_adversary::counter::CounterRng;
use cyclesteal_dp::CompressedTable;
use cyclesteal_par::{block_ranges, WorkerPool};
use cyclesteal_workloads::OwnerClimate;
use std::ops::Range;
use std::sync::Arc;

/// The owner's behaviour across a batch, on the tick grid. All
/// stochastic variants draw from per-episode counter streams; all
/// variants stop interrupting once the contracted budget `p` is spent
/// (the draconian contract caps the adversary, not the borrower).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchAdversary {
    /// No interrupts: the borrower keeps the machine for the whole
    /// lifespan.
    Quiet,
    /// The paper's malicious owner, table-driven: facing a committed
    /// period of `t` ticks at residual `(p, l)`, it interrupts at the
    /// period's last instant (consuming all `t` ticks, banking nothing)
    /// exactly when `W^(p-1)[l-t] < (t-Q)⁺ + W^(p)[l-t]`, and lets the
    /// period complete otherwise (ties saved the interrupt). Realizes
    /// `W^(p)[L]` exactly against the optimal borrower.
    Worst,
    /// Poisson owner: exponential gaps between arrivals in usable time,
    /// floored to ticks. An arrival strictly inside a period kills it at
    /// the arrival tick; an arrival at or past the period boundary lets
    /// it complete (the engine's half-open window).
    Poisson {
        /// Mean gap between owner arrivals, in ticks. Must be positive.
        mean_gap_ticks: f64,
    },
    /// Memoryless per-period owner: each dispatched period is killed
    /// with probability `per_mille`/1000, at a position uniform over the
    /// period's ticks.
    UniformPerPeriod {
        /// Kill probability per dispatched period, in per-mille
        /// (`0..=1000`).
        per_mille: u32,
    },
}

impl BatchAdversary {
    /// Maps a named [`OwnerClimate`] onto a batch adversary for a grid
    /// with `q` ticks per setup charge.
    pub fn from_climate(climate: OwnerClimate, q: i64) -> BatchAdversary {
        match climate.mean_gap_setups() {
            Some(gap) => BatchAdversary::Poisson {
                mean_gap_ticks: gap * q as f64,
            },
            None => match climate {
                OwnerClimate::Hostile => BatchAdversary::Worst,
                _ => BatchAdversary::Quiet,
            },
        }
    }
}

/// Configuration of one batch: `episodes` independent plays of the same
/// contract.
#[derive(Clone)]
pub struct BatchConfig {
    /// The solved table that is both the borrower's policy and the
    /// guarantee oracle. Must cover `(lifespan_ticks, interrupts)`.
    pub table: Arc<CompressedTable>,
    /// Contracted lifespan `L` in ticks (`1..=table.max_ticks()`).
    pub lifespan_ticks: i64,
    /// Contracted interrupt budget `p` (`<= table.max_interrupts()`).
    pub interrupts: u32,
    /// Number of episodes to run.
    pub episodes: usize,
    /// Seed of every per-episode counter stream.
    pub seed: u64,
    /// The owner's behaviour.
    pub adversary: BatchAdversary,
    /// Episodes per work block (`0` = the default of 4096). Purely a
    /// scheduling knob: results are bit-identical at any block size.
    pub block: usize,
    /// Worker threads (`0` = auto via `cyclesteal_par::default_threads`,
    /// honouring `CYCLESTEAL_THREADS`). Purely a scheduling knob.
    pub threads: usize,
}

impl BatchConfig {
    fn block_size(&self) -> usize {
        if self.block == 0 {
            4096
        } else {
            self.block
        }
    }
}

/// Aggregate + per-episode results of one batch, all in exact integer
/// ticks. `PartialEq` compares everything — the determinism property
/// suite asserts whole-report equality across thread counts and block
/// sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchReport {
    /// Episodes run.
    pub episodes: usize,
    /// The table's guarantee `W^(p)[L]` in work ticks.
    pub guarantee_ticks: i64,
    /// Banked work ticks per episode, in episode order.
    pub banked: Vec<i64>,
    /// Interrupts the owner spent per episode, in episode order.
    pub interrupts_used: Vec<u32>,
    /// Sum of banked ticks over all episodes.
    pub total_banked: i128,
    /// Sum of lifespan ticks destroyed by kills.
    pub total_lost: i128,
    /// Total completed periods.
    pub total_periods: u64,
    /// Total killed periods (== total interrupts spent).
    pub total_killed: u64,
    /// Episodes whose banked output fell **below** the guarantee. Any
    /// nonzero value is a bug in the solver or the policy.
    pub violations: u64,
    /// Episodes whose banked output equals the guarantee exactly.
    pub exact_matches: u64,
    /// Smallest banked output observed.
    pub min_banked: i64,
    /// Largest banked output observed.
    pub max_banked: i64,
}

impl BatchReport {
    /// Mean banked ticks per episode.
    pub fn mean_banked(&self) -> f64 {
        if self.episodes == 0 {
            return 0.0;
        }
        self.total_banked as f64 / self.episodes as f64
    }

    /// Banked-output quantiles (one sort, nearest-rank): `qs` in
    /// `[0, 1]`, e.g. `&[0.0, 0.1, 0.5, 0.9, 1.0]` for a distribution
    /// curve.
    pub fn banked_quantiles(&self, qs: &[f64]) -> Vec<i64> {
        if self.banked.is_empty() {
            return vec![0; qs.len()];
        }
        let mut sorted = self.banked.clone();
        sorted.sort_unstable();
        qs.iter()
            .map(|&q| {
                let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
                sorted[rank.min(sorted.len() - 1)]
            })
            .collect()
    }
}

/// Immutable per-batch context shared by every worker block.
struct Ctx {
    table: Arc<CompressedTable>,
    l0: i64,
    p0: u32,
    q: i64,
    seed: u64,
    adversary: BatchAdversary,
}

/// One block's struct-of-arrays output (per-episode arrays in episode
/// order, plus exact integer partial sums).
struct BlockOut {
    banked: Vec<i64>,
    interrupts_used: Vec<u32>,
    periods: u64,
    killed: u64,
    lost: i128,
}

/// Runs episodes `range` of the batch in struct-of-arrays form. Every
/// owner interrupt is also reported to `on_interrupt(block-local
/// episode index, absolute usable tick)` — a no-op closure in the hot
/// path, a recorder in trace replays — so there is exactly one
/// definition of the episode step.
fn run_block<F: FnMut(usize, i64)>(
    ctx: &Ctx,
    range: Range<usize>,
    mut on_interrupt: F,
) -> BlockOut {
    let n = range.len();
    let needs_rng = matches!(
        ctx.adversary,
        BatchAdversary::Poisson { .. } | BatchAdversary::UniformPerPeriod { .. }
    );

    // The parallel arrays: one slot per episode of the block.
    let mut l_left: Vec<i64> = vec![ctx.l0; n];
    let mut p_left: Vec<u32> = vec![ctx.p0; n];
    let mut banked: Vec<i64> = vec![0; n];
    let mut lost: Vec<i64> = vec![0; n];
    let mut periods: Vec<u32> = vec![0; n];
    let mut killed: Vec<u32> = vec![0; n];
    let mut rng: Vec<CounterRng> = if needs_rng {
        range
            .clone()
            .map(|e| CounterRng::new(ctx.seed, e as u64))
            .collect()
    } else {
        Vec::new()
    };
    // The owner's next arrival on the usable clock (Poisson only);
    // i64::MAX means "never".
    let mut next_arrival: Vec<i64> = match ctx.adversary {
        BatchAdversary::Poisson { mean_gap_ticks } => rng
            .iter_mut()
            .map(|r| r.next_exp_ticks(mean_gap_ticks))
            .collect(),
        _ => vec![i64::MAX; n],
    };

    // Sweep the live list until every episode has consumed its lifespan.
    // Each visit plays exactly one period: dispatch (the table's optimal
    // first period at the residual state) fused with resolution
    // (complete or killed). Every step either consumes >= 1 tick of
    // lifespan or one of the <= p interrupts, so an episode finishes in
    // at most L + p steps.
    let mut live: Vec<usize> = (0..n).collect();
    while !live.is_empty() {
        live.retain(|&i| {
            let l = l_left[i];
            let t = ctx.table.first_period_ticks(p_left[i], l).max(1).min(l);
            let consumed = ctx.l0 - l;

            // The owner's move: `Some(elapsed)` kills the period after
            // `elapsed` ticks (banking nothing), `None` lets it run out.
            let interrupt: Option<i64> = if p_left[i] == 0 {
                None
            } else {
                match ctx.adversary {
                    BatchAdversary::Quiet => None,
                    BatchAdversary::Worst => {
                        let concede = ctx.table.value_ticks(p_left[i] - 1, l - t);
                        let complete = kernel::banked_ticks(t, ctx.q)
                            + ctx.table.value_ticks(p_left[i], l - t);
                        (concede < complete).then_some(t)
                    }
                    BatchAdversary::Poisson { mean_gap_ticks: _ } => {
                        // Half-open window, as in the event engine: an
                        // arrival at the boundary lets the period finish.
                        (next_arrival[i] < consumed + t)
                            .then(|| (next_arrival[i] - consumed).max(0))
                    }
                    BatchAdversary::UniformPerPeriod { per_mille } => {
                        let fire = rng[i].next_u64() % 1000 < per_mille as u64;
                        fire.then(|| (rng[i].next_u64() % t as u64) as i64)
                    }
                }
            };

            match interrupt {
                None => {
                    banked[i] += kernel::banked_ticks(t, ctx.q);
                    periods[i] += 1;
                    l_left[i] = l - t;
                }
                Some(elapsed) => {
                    let at = consumed + elapsed;
                    on_interrupt(i, at);
                    lost[i] += elapsed;
                    killed[i] += 1;
                    p_left[i] -= 1;
                    l_left[i] = l - elapsed;
                    if let BatchAdversary::Poisson { mean_gap_ticks } = ctx.adversary {
                        // The consumed arrival happened at `at`; the next
                        // one is an exponential gap later.
                        next_arrival[i] = at.saturating_add(rng[i].next_exp_ticks(mean_gap_ticks));
                    }
                }
            }
            l_left[i] > 0
        });
    }

    BlockOut {
        periods: periods.iter().map(|&x| x as u64).sum(),
        killed: killed.iter().map(|&x| x as u64).sum(),
        lost: lost.iter().map(|&x| x as i128).sum(),
        banked,
        interrupts_used: killed,
    }
}

/// The struct-of-arrays batch simulator. See the module docs for the
/// determinism and validation contracts.
pub struct BatchSim {
    cfg: BatchConfig,
}

impl BatchSim {
    /// Builds a batch over `cfg`.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent: zero episodes, a
    /// lifespan outside the table's solved range, an interrupt budget
    /// beyond the table's, a non-positive Poisson mean, or a per-mille
    /// probability above 1000.
    pub fn new(cfg: BatchConfig) -> BatchSim {
        assert!(cfg.episodes > 0, "a batch needs at least one episode");
        assert!(
            cfg.lifespan_ticks >= 1 && cfg.lifespan_ticks <= cfg.table.max_ticks(),
            "lifespan {} ticks outside the table's solved range 1..={}",
            cfg.lifespan_ticks,
            cfg.table.max_ticks()
        );
        assert!(
            cfg.interrupts <= cfg.table.max_interrupts(),
            "interrupt budget {} beyond the table's {}",
            cfg.interrupts,
            cfg.table.max_interrupts()
        );
        match cfg.adversary {
            BatchAdversary::Poisson { mean_gap_ticks } => {
                assert!(
                    mean_gap_ticks > 0.0 && mean_gap_ticks.is_finite(),
                    "Poisson mean gap must be positive and finite"
                );
            }
            BatchAdversary::UniformPerPeriod { per_mille } => {
                assert!(per_mille <= 1000, "per-mille probability above 1000");
            }
            _ => {}
        }
        BatchSim { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Runs the batch on a fresh pool of `cfg.threads` workers.
    pub fn run(&self) -> BatchReport {
        let pool = WorkerPool::new(self.cfg.threads);
        self.run_on(&pool)
    }

    /// Runs the batch on an existing pool. Episode blocks are scattered
    /// in index order and merged sequentially in block order, so the
    /// report is bit-identical for any pool size.
    pub fn run_on(&self, pool: &WorkerPool) -> BatchReport {
        let ctx = Arc::new(self.ctx());
        let jobs: Vec<_> = block_ranges(self.cfg.episodes, self.cfg.block_size())
            .into_iter()
            .map(|range| {
                let ctx = ctx.clone();
                move || run_block(&ctx, range, |_, _| ())
            })
            .collect();
        let outs = pool.scatter(jobs);

        let guarantee_ticks = self
            .cfg
            .table
            .value_ticks(self.cfg.interrupts, self.cfg.lifespan_ticks);
        let mut report = BatchReport {
            episodes: self.cfg.episodes,
            guarantee_ticks,
            banked: Vec::with_capacity(self.cfg.episodes),
            interrupts_used: Vec::with_capacity(self.cfg.episodes),
            total_banked: 0,
            total_lost: 0,
            total_periods: 0,
            total_killed: 0,
            violations: 0,
            exact_matches: 0,
            min_banked: i64::MAX,
            max_banked: i64::MIN,
        };
        for out in outs {
            report.total_periods += out.periods;
            report.total_killed += out.killed;
            report.total_lost += out.lost;
            report.banked.extend(out.banked);
            report.interrupts_used.extend(out.interrupts_used);
        }
        for &b in &report.banked {
            report.total_banked += b as i128;
            if b < guarantee_ticks {
                report.violations += 1;
            }
            if b == guarantee_ticks {
                report.exact_matches += 1;
            }
            report.min_banked = report.min_banked.min(b);
            report.max_banked = report.max_banked.max(b);
        }
        report
    }

    /// Replays one episode and returns the absolute usable-tick times of
    /// the owner interrupts it suffered — the bridge to the scalar event
    /// engine: feed these ticks (scaled by the grid's tick length) to an
    /// `OwnerTrace` and [`crate::NowSim`] plays the identical episode.
    /// Counter-based streams make the replay exact by construction.
    pub fn episode_interrupt_ticks(&self, episode: usize) -> Vec<i64> {
        assert!(episode < self.cfg.episodes, "episode index out of range");
        let ctx = self.ctx();
        let mut ticks = Vec::new();
        #[allow(clippy::range_plus_one)] // Range<usize>, not RangeInclusive
        let out = run_block(&ctx, episode..episode + 1, |_, at| ticks.push(at));
        debug_assert_eq!(out.killed as usize, ticks.len());
        ticks
    }

    fn ctx(&self) -> Ctx {
        Ctx {
            table: self.cfg.table.clone(),
            l0: self.cfg.lifespan_ticks,
            p0: self.cfg.interrupts,
            q: self.cfg.table.grid().q(),
            seed: self.cfg.seed,
            adversary: self.cfg.adversary,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_core::time::secs;

    fn table(q: u32, p: u32, l_ticks: i64) -> Arc<CompressedTable> {
        Arc::new(CompressedTable::solve_event_driven(
            secs(1.0),
            q,
            secs(l_ticks as f64 / q as f64),
            p,
        ))
    }

    fn cfg(adversary: BatchAdversary) -> BatchConfig {
        BatchConfig {
            table: table(8, 3, 2048),
            lifespan_ticks: 2048,
            interrupts: 3,
            episodes: 256,
            seed: 42,
            adversary,
            block: 0,
            threads: 1,
        }
    }

    #[test]
    fn worst_adversary_realizes_the_guarantee_exactly() {
        for (q, p, l) in [(4u32, 1u32, 256i64), (8, 3, 2048), (32, 2, 4096)] {
            let table = table(q, p, l);
            let report = BatchSim::new(BatchConfig {
                table: table.clone(),
                lifespan_ticks: l,
                interrupts: p,
                episodes: 16,
                seed: 7,
                adversary: BatchAdversary::Worst,
                block: 0,
                threads: 1,
            })
            .run();
            let w = table.value_ticks(p, l);
            assert_eq!(report.guarantee_ticks, w);
            assert_eq!(report.violations, 0);
            assert_eq!(
                report.exact_matches, 16,
                "(q={q}, p={p}, L={l}): minimax play must bank exactly W"
            );
            assert_eq!(report.min_banked, w);
            assert_eq!(report.max_banked, w);
        }
    }

    #[test]
    fn quiet_owner_never_interrupts_and_dominates_the_guarantee() {
        let report = BatchSim::new(cfg(BatchAdversary::Quiet)).run();
        assert_eq!(report.total_killed, 0);
        assert_eq!(report.violations, 0);
        assert!(report.interrupts_used.iter().all(|&k| k == 0));
        // No interrupts: strictly more than the p=3 worst case
        // (the guarantee prices in 3 free kills that never came).
        assert!(report.min_banked > report.guarantee_ticks);
        // All episodes identical (no randomness anywhere).
        assert_eq!(report.min_banked, report.max_banked);
    }

    #[test]
    fn stochastic_adversaries_never_beat_the_guarantee_and_replay_exactly() {
        for adversary in [
            BatchAdversary::Poisson {
                mean_gap_ticks: 300.0,
            },
            BatchAdversary::UniformPerPeriod { per_mille: 400 },
        ] {
            let a = BatchSim::new(cfg(adversary)).run();
            let b = BatchSim::new(cfg(adversary)).run();
            assert_eq!(a, b, "{adversary:?}: same seed, same report");
            assert_eq!(a.violations, 0, "{adversary:?}: guarantee violated");
            assert!(a.total_killed > 0, "{adversary:?}: adversary never fired");
            // Budget is draconian: never more than p interrupts.
            assert!(a.interrupts_used.iter().all(|&k| k <= 3));
        }
    }

    #[test]
    fn interrupt_trace_replay_matches_the_batch() {
        let sim = BatchSim::new(cfg(BatchAdversary::Poisson {
            mean_gap_ticks: 250.0,
        }));
        let report = sim.run();
        for episode in [0usize, 3, 117, 255] {
            let ticks = sim.episode_interrupt_ticks(episode);
            assert_eq!(
                ticks.len() as u32,
                report.interrupts_used[episode],
                "episode {episode}: replay disagrees with the batch"
            );
            for w in ticks.windows(2) {
                assert!(w[0] <= w[1], "interrupt times must be nondecreasing");
            }
        }
    }

    #[test]
    fn quantiles_and_means_are_consistent() {
        let report = BatchSim::new(cfg(BatchAdversary::Poisson {
            mean_gap_ticks: 400.0,
        }))
        .run();
        let qs = report.banked_quantiles(&[0.0, 0.5, 1.0]);
        assert_eq!(qs[0], report.min_banked);
        assert_eq!(qs[2], report.max_banked);
        assert!(qs[0] <= qs[1] && qs[1] <= qs[2]);
        let mean = report.mean_banked();
        assert!(mean >= report.min_banked as f64 && mean <= report.max_banked as f64);
    }
}
