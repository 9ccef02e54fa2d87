//! Guaranteed-work evaluation of *arbitrary* episode policies.
//!
//! The [`CompressedTable`](crate::CompressedTable) answers "what can the best
//! owner guarantee"; this module answers "what does *this* owner
//! guarantee". For a policy `π` the value satisfies
//!
//! ```text
//! G_π(p, L) = min( W_uninterrupted(S),
//!                  min_k  accrued_k(S) + G_π(p−1, L − T_k) )
//! with S = π(p, L),
//! ```
//!
//! the adversary picking the cheapest of letting the committed episode
//! complete or killing some period `k` at its last instant. Levels are
//! computed bottom-up on a tick grid (each level is embarrassingly
//! parallel — continuations always drop to level `p−1` — and is fanned out
//! with `cyclesteal_par`), with linear interpolation between grid points.
//!
//! Last-instant interrupts are optimal for the adversary whenever the
//! policy's own value is nondecreasing in lifespan — true for every policy
//! in this workspace. For pathological policies
//! [`EvalOptions::scan_within_period`] makes the adversary scan every grid
//! instant inside each period, which is exact for any policy at `O(N²)`
//! cost; the tests confirm both modes agree on the shipped policies.
//!
//! ## Two row representations
//!
//! [`evaluate_policy`] materializes every grid state — `O(p·N)` policy
//! invocations and `f64`s, exact on the grid, right for `N ≲ 10^6`.
//! [`evaluate_policy_compressed`] instead exploits that `G_π` is
//! piecewise linear in the lifespan (schedules change shape at a
//! vanishing set of lifespans): each level is *adaptively sampled* into
//! a breakpoint-knot skeleton, refining any segment whose midpoint (and
//! quarter points) deviates from the chord by more than a tolerance, and
//! continuations in the recursion read the previous level's knots — the
//! compressed-oracle evaluator. Guideline scoring at `10^7`–`10^9` tick
//! grids then costs `O(p·k·log N)` policy invocations (`k` = knots)
//! instead of `O(p·N)`, with no dense `f64` rows anywhere.

use crate::grid::Grid;
use cyclesteal_core::error::Result;
use cyclesteal_core::model::Opportunity;
use cyclesteal_core::policy::EpisodePolicy;
use cyclesteal_core::time::{Time, Work};
use cyclesteal_par::par_map;

/// Options for [`evaluate_policy`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalOptions {
    /// Make the adversary consider every grid instant inside each period
    /// rather than only last instants. Exact for arbitrary (even
    /// non-monotone) policies; quadratic in the grid size.
    pub scan_within_period: bool,
}

/// The guaranteed-work table `G_π(p, ·)` of one policy on a tick grid.
#[derive(Clone, Debug)]
pub struct PolicyValue {
    grid: Grid,
    max_ticks: i64,
    /// `levels[p][l]`: guaranteed work (time units) at lifespan `l` ticks.
    levels: Vec<Vec<f64>>,
    name: String,
}

impl PolicyValue {
    /// The grid the evaluation ran on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The evaluated policy's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Largest lifespan covered.
    pub fn max_lifespan(&self) -> Time {
        self.grid.to_time(self.max_ticks)
    }

    /// Guaranteed work of the policy at `(p, lifespan)`, linearly
    /// interpolated between grid points.
    pub fn value(&self, p: u32, lifespan: Time) -> Work {
        let tick = self.grid.tick().get();
        let x = lifespan.get() / tick;
        assert!(
            x >= -1e-9 && x <= self.max_ticks as f64 + 1e-9,
            "lifespan {lifespan} outside evaluated range"
        );
        let x = x.clamp(0.0, self.max_ticks as f64);
        let p = (p as usize).min(self.levels.len() - 1);
        let row = &self.levels[p];
        let i = x.floor() as usize;
        if i as i64 >= self.max_ticks {
            return Time::new(row[self.max_ticks as usize] * tick);
        }
        let frac = x - i as f64;
        Time::new((row[i] + (row[i + 1] - row[i]) * frac) * tick)
    }
}

/// Worst-case guaranteed work (in ticks) of `policy` at state `(p, l)`:
/// the adversary picks the cheapest of letting the committed episode
/// complete or killing some period at its last instant (every instant
/// with `scan_within_period`), with level-`p−1` continuations answered
/// by `continuation` at a fractional residual in ticks. Shared by the
/// dense and the compressed-oracle evaluators.
fn state_worst_case<C: Fn(f64) -> f64>(
    policy: &dyn EpisodePolicy,
    grid: &Grid,
    p: u32,
    l: i64,
    continuation: Option<&C>,
    scan_within_period: bool,
) -> Result<f64> {
    if l == 0 {
        return Ok(0.0);
    }
    let setup = grid.setup();
    let tick = grid.tick().get();
    let lifespan = grid.to_time(l);
    let opp = Opportunity::new(lifespan, setup, p)?;
    let sched = policy.episode(&opp)?;
    debug_assert!(
        sched.total().approx_eq(lifespan, setup * 1e-6),
        "policy {} returned a schedule covering {} of {}",
        policy.name(),
        sched.total(),
        lifespan
    );

    let uninterrupted = sched.work_uninterrupted(setup).get() / tick;
    let mut worst = uninterrupted;
    if let Some(continuation) = continuation {
        let mut accrued = 0.0f64; // work ticks banked before period k
        for (_k, start, t) in sched.iter_windows() {
            let start_ticks = start.get() / tick;
            let end_ticks = (start + t).get() / tick;
            // Last-instant interrupt: residual L − T_k.
            let v = accrued + continuation(l as f64 - end_ticks);
            worst = worst.min(v);
            if scan_within_period {
                // Every interior grid instant τ ∈ [T_{k−1}, T_k).
                let first = start_ticks.ceil() as i64;
                let last = end_ticks.floor() as i64;
                for tau in first..last {
                    let v = accrued + continuation((l - tau) as f64);
                    worst = worst.min(v);
                }
            }
            accrued += t.pos_sub(setup).get() / tick;
        }
    }
    Ok(worst)
}

/// Evaluates `policy` against the optimal adversary for all budgets
/// `0..=max_interrupts` and lifespans `0..=max_lifespan` on a grid with
/// `ticks_per_setup` ticks per setup charge.
///
/// Errors propagate from the policy (e.g. a policy that cannot produce a
/// schedule for some residual it is asked about).
pub fn evaluate_policy(
    policy: &dyn EpisodePolicy,
    setup: Time,
    ticks_per_setup: u32,
    max_lifespan: Time,
    max_interrupts: u32,
    opts: EvalOptions,
) -> Result<PolicyValue> {
    let grid = Grid::new(setup, ticks_per_setup);
    let n = grid.to_ticks(max_lifespan).max(0);
    let mut levels: Vec<Vec<f64>> = Vec::with_capacity(max_interrupts as usize + 1);

    for p in 0..=max_interrupts {
        let prev = levels.last();
        let lattice: Vec<i64> = (0..=n).collect();
        let results: Vec<Result<f64>> = par_map(&lattice, |&l| {
            let continuation = prev.map(|prev| {
                move |residual_ticks: f64| -> f64 {
                    let x = residual_ticks.clamp(0.0, n as f64);
                    let i = x.floor() as usize;
                    if i as i64 >= n {
                        prev[n as usize]
                    } else {
                        let frac = x - i as f64;
                        prev[i] + (prev[i + 1] - prev[i]) * frac
                    }
                }
            });
            state_worst_case(
                policy,
                &grid,
                p,
                l,
                continuation.as_ref(),
                opts.scan_within_period,
            )
        });
        let mut row = Vec::with_capacity(results.len());
        for r in results {
            row.push(r?);
        }
        levels.push(row);
    }

    Ok(PolicyValue {
        grid,
        max_ticks: n,
        levels,
        name: policy.name(),
    })
}

/// Options for [`evaluate_policy_compressed`].
#[derive(Clone, Copy, Debug)]
pub struct CompressedEvalOptions {
    /// Adversary scans every grid instant inside each period (see
    /// [`EvalOptions::scan_within_period`]); quadratic per state, only
    /// sensible on small grids.
    pub scan_within_period: bool,
    /// Refinement tolerance in work ticks: a segment is accepted as
    /// linear when its mid- and quarter-point samples deviate from the
    /// chord by at most this much. At sampled points the rows are exact;
    /// between them the `O(p · tol)` deviation bound holds for rows
    /// whose pieces the probes can see — a kink pair narrower than the
    /// probe spacing inside one accepted segment can slip through, so
    /// for adversarially fine-structured policies raise
    /// [`Self::coarse_segments`] (or cross-check against the dense
    /// evaluator, which remains the exact small-grid oracle).
    pub tol_ticks: f64,
    /// Initial uniform segments per level the adaptive refinement starts
    /// from (and fans out over `cyclesteal-par` workers). More segments
    /// cost more up-front samples but localize refinement.
    pub coarse_segments: usize,
}

impl Default for CompressedEvalOptions {
    fn default() -> Self {
        CompressedEvalOptions {
            scan_within_period: false,
            tol_ticks: 0.25,
            coarse_segments: 64,
        }
    }
}

/// The guaranteed-work table `G_π(p, ·)` of one policy stored as
/// piecewise-linear breakpoint knots per level — the compressed-oracle
/// counterpart of [`PolicyValue`], built by [`evaluate_policy_compressed`]
/// for grids far too large to materialize densely.
#[derive(Clone, Debug)]
pub struct CompressedPolicyValue {
    grid: Grid,
    max_ticks: i64,
    /// `levels[p]`: `(tick, value-in-ticks)` knots, strictly increasing
    /// in tick, always containing `(0, 0)` and the far end. Runs of
    /// exactly collinear knots are merged (see [`merge_collinear_knots`]),
    /// so each stored knot marks a genuine slope change.
    levels: Vec<Vec<(i64, f64)>>,
    name: String,
}

/// Second-order compression of a knot row: drops every interior knot
/// that lies *exactly* on the chord of its neighbours, so a maximal run
/// of collinear knots — the adaptive sampler emits plenty, since `G_π`
/// is piecewise linear and probes land inside linear pieces — collapses
/// to its endpoints. Interpolated values are unchanged (the dropped
/// knots sat on the surviving segments), which keeps the next level's
/// continuation reads, and therefore the whole evaluation, on the same
/// function; the exactness predicate is conservative in `f64`, so a
/// knot is only elided when both slopes compare equal cross-multiplied.
fn merge_collinear_knots(knots: Vec<(i64, f64)>) -> Vec<(i64, f64)> {
    if knots.len() <= 2 {
        return knots;
    }
    let mut out: Vec<(i64, f64)> = Vec::with_capacity(knots.len());
    out.push(knots[0]);
    for &(t2, v2) in &knots[1..] {
        while out.len() >= 2 {
            let (t0, v0) = out[out.len() - 2];
            let (t1, v1) = out[out.len() - 1];
            // (v1−v0)/(t1−t0) == (v2−v1)/(t2−t1), cross-multiplied.
            if (v1 - v0) * (t2 - t1) as f64 == (v2 - v1) * (t1 - t0) as f64 {
                out.pop();
            } else {
                break;
            }
        }
        out.push((t2, v2));
    }
    out
}

/// Linear interpolation over a knot row at a fractional tick position.
fn knots_value(knots: &[(i64, f64)], x: f64) -> f64 {
    let last = knots[knots.len() - 1];
    let x = x.clamp(0.0, last.0 as f64);
    let i = knots.partition_point(|&(t, _)| (t as f64) <= x);
    if i >= knots.len() {
        return last.1;
    }
    let (t0, v0) = knots[i - 1];
    let (t1, v1) = knots[i];
    v0 + (v1 - v0) * ((x - t0 as f64) / (t1 - t0) as f64)
}

/// One level's adaptive sampler: evaluates states against the previous
/// level's knot row and bisects any segment that is not linear within
/// tolerance.
struct LevelSampler<'a> {
    policy: &'a dyn EpisodePolicy,
    grid: &'a Grid,
    p: u32,
    prev: Option<&'a [(i64, f64)]>,
    scan: bool,
    tol: f64,
}

impl LevelSampler<'_> {
    fn eval(&self, l: i64) -> Result<f64> {
        let continuation = self.prev.map(|knots| move |x: f64| knots_value(knots, x));
        state_worst_case(
            self.policy,
            self.grid,
            self.p,
            l,
            continuation.as_ref(),
            self.scan,
        )
    }

    /// Emits knots covering `(lo, hi]`; `lo`'s knot is owned by the
    /// caller (or the preceding segment). `mid_hint` carries a sample an
    /// enclosing call already paid for (a quarter-point probe lands
    /// exactly on the child's midpoint), so a failed linearity check
    /// never re-evaluates the probe that failed it.
    fn refine(
        &self,
        lo: i64,
        v_lo: f64,
        hi: i64,
        v_hi: f64,
        mid_hint: Option<(i64, f64)>,
        out: &mut Vec<(i64, f64)>,
    ) -> Result<()> {
        if hi - lo <= 1 {
            out.push((hi, v_hi));
            return Ok(());
        }
        let chord = |t: i64| v_lo + (v_hi - v_lo) * ((t - lo) as f64 / (hi - lo) as f64);
        let mid = lo + (hi - lo) / 2;
        let v_mid = match mid_hint {
            Some((t, v)) if t == mid => v,
            _ => self.eval(mid)?,
        };
        let mut linear = (v_mid - chord(mid)).abs() <= self.tol;
        let mut quarters: [Option<(i64, f64)>; 2] = [None, None];
        if linear && hi - lo > 8 {
            // A midpoint can sit on the chord of a non-linear segment by
            // accident; quarter-point probes catch the common wiggles.
            for (slot, t) in [lo + (hi - lo) / 4, lo + 3 * (hi - lo) / 4]
                .into_iter()
                .enumerate()
            {
                let v = self.eval(t)?;
                quarters[slot] = Some((t, v));
                if (v - chord(t)).abs() > self.tol {
                    linear = false;
                    break;
                }
            }
        }
        if linear {
            out.push((hi, v_hi));
            Ok(())
        } else {
            self.refine(lo, v_lo, mid, v_mid, quarters[0], out)?;
            self.refine(mid, v_mid, hi, v_hi, quarters[1], out)
        }
    }
}

impl CompressedPolicyValue {
    /// The grid the evaluation ran on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The evaluated policy's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Largest lifespan covered.
    pub fn max_lifespan(&self) -> Time {
        self.grid.to_time(self.max_ticks)
    }

    /// Stored knots at level `p` — the resolution-independent row size.
    /// Budgets above the evaluated range saturate to the deepest level,
    /// like [`Self::value`].
    pub fn knots(&self, p: u32) -> usize {
        self.levels[(p as usize).min(self.levels.len() - 1)].len()
    }

    /// Bytes held by all knot rows.
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|row| row.capacity() * std::mem::size_of::<(i64, f64)>())
            .sum()
    }

    /// Guaranteed work of the policy at `(p, lifespan)`, interpolated on
    /// the knot skeleton; same contract as [`PolicyValue::value`],
    /// including the budget saturation: `p` beyond the evaluated range
    /// clamps to the deepest level, whose value is an *upper* bound on
    /// the true guarantee there (`G_π` is nonincreasing in `p`) —
    /// evaluate with a larger `max_interrupts` if the exact deep-budget
    /// number matters. Lifespans outside the evaluated range panic.
    pub fn value(&self, p: u32, lifespan: Time) -> Work {
        let tick = self.grid.tick().get();
        let x = lifespan.get() / tick;
        assert!(
            x >= -1e-9 && x <= self.max_ticks as f64 + 1e-9,
            "lifespan {lifespan} outside evaluated range"
        );
        let p = (p as usize).min(self.levels.len() - 1);
        Time::new(knots_value(&self.levels[p], x) * tick)
    }
}

/// Evaluates `policy` like [`evaluate_policy`], but stores each level as
/// adaptively-sampled piecewise-linear knots and reads continuations
/// from the previous level's knots — no dense `f64` rows, so `10^7`+
/// tick grids cost `O(p·k·log N)` policy invocations instead of
/// `O(p·N)`. Within each level the coarse segments refine in parallel
/// over `cyclesteal-par`, and each finished row is run-merged
/// (`merge_collinear_knots`) so the knots the next level reads mark
/// genuine slope changes only.
///
/// Values agree with the dense evaluator up to the refinement tolerance
/// (compounded once per level); the `compressed_evaluator_*` tests
/// measure it.
///
/// ```
/// use cyclesteal_core::prelude::*;
/// use cyclesteal_dp::{evaluate_policy_compressed, CompressedEvalOptions};
///
/// // Score the closed-form p=1 guideline on a 16k-tick grid without
/// // materializing a dense row.
/// let pv = evaluate_policy_compressed(
///     &OptimalP1Policy,
///     secs(1.0),
///     8,
///     secs(2048.0),
///     1,
///     CompressedEvalOptions::default(),
/// )
/// .unwrap();
/// // A few hundred knots stand in for 16k dense states…
/// assert!(pv.knots(1) < 2000);
/// // …and the guarantee still tracks the §5.2 closed form.
/// let got = pv.value(1, secs(2000.0));
/// let want = w1_exact(secs(2000.0), secs(1.0));
/// assert!((got - want).abs() <= secs(1.0));
/// ```
pub fn evaluate_policy_compressed(
    policy: &dyn EpisodePolicy,
    setup: Time,
    ticks_per_setup: u32,
    max_lifespan: Time,
    max_interrupts: u32,
    opts: CompressedEvalOptions,
) -> Result<CompressedPolicyValue> {
    let grid = Grid::new(setup, ticks_per_setup);
    let n = grid.to_ticks(max_lifespan).max(0);
    let mut levels: Vec<Vec<(i64, f64)>> = Vec::with_capacity(max_interrupts as usize + 1);

    for p in 0..=max_interrupts {
        let knots = {
            let sampler = LevelSampler {
                policy,
                grid: &grid,
                p,
                prev: levels.last().map(|v| v.as_slice()),
                scan: opts.scan_within_period,
                tol: opts.tol_ticks.max(1e-9),
            };
            if n == 0 {
                vec![(0i64, 0.0f64)]
            } else {
                let segs = opts.coarse_segments.clamp(1, n as usize);
                let mut pts: Vec<i64> = (0..=segs)
                    .map(|i| (n as u128 * i as u128 / segs as u128) as i64)
                    .collect();
                pts.dedup();
                let vals = {
                    let sampled: Vec<Result<f64>> = par_map(&pts, |&l| sampler.eval(l));
                    let mut vals = Vec::with_capacity(sampled.len());
                    for v in sampled {
                        vals.push(v?);
                    }
                    vals
                };
                let seg_ids: Vec<usize> = (0..pts.len() - 1).collect();
                let parts: Vec<Result<Vec<(i64, f64)>>> = par_map(&seg_ids, |&i| {
                    let mut out = Vec::new();
                    sampler.refine(pts[i], vals[i], pts[i + 1], vals[i + 1], None, &mut out)?;
                    Ok(out)
                });
                let mut knots = vec![(0i64, 0.0f64)];
                for part in parts {
                    knots.extend(part?);
                }
                // Second-order pass: the next level's continuations (and
                // every query) read through run-merged knots.
                merge_collinear_knots(knots)
            }
        };
        levels.push(knots);
    }

    Ok(CompressedPolicyValue {
        grid,
        max_ticks: n,
        levels,
        name: policy.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::{CompressedOptimalPolicy, CompressedTable};
    use cyclesteal_core::bounds::w1_exact;
    use cyclesteal_core::prelude::*;
    use std::sync::Arc;

    const C: f64 = 1.0;

    fn eval(policy: &dyn EpisodePolicy, q: u32, max_u: f64, p: u32) -> PolicyValue {
        evaluate_policy(policy, secs(C), q, secs(max_u), p, EvalOptions::default()).unwrap()
    }

    #[test]
    fn single_period_policy_guarantees_nothing_under_interrupts() {
        let pv = eval(&SinglePeriodPolicy, 8, 64.0, 2);
        for &u in &[5.0, 20.0, 64.0] {
            assert_eq!(pv.value(1, secs(u)), Work::ZERO);
            assert_eq!(pv.value(2, secs(u)), Work::ZERO);
            // …but is optimal with no interrupts.
            assert!(pv.value(0, secs(u)).approx_eq(secs(u - C), secs(1e-9)));
        }
    }

    #[test]
    fn optimal_p1_policy_achieves_w1() {
        let pv = eval(&OptimalP1Policy, 32, 150.0, 1);
        for &u in &[10.0, 50.0, 100.0, 150.0] {
            let got = pv.value(1, secs(u));
            let want = w1_exact(secs(u), secs(C));
            // Interpolated continuations cost a fraction of a tick.
            assert!(
                (got - want).abs() <= secs(3.0 / 32.0),
                "U={u}: evaluator {got} vs closed form {want}"
            );
        }
    }

    #[test]
    fn no_policy_beats_the_value_table() {
        let table = CompressedTable::solve_event_driven(secs(C), 16, secs(100.0), 2);
        let policies: Vec<Box<dyn EpisodePolicy>> = vec![
            Box::new(SinglePeriodPolicy),
            Box::new(EqualPeriodsPolicy::new(5)),
            Box::new(EqualPeriodsPolicy::new(12)),
            Box::new(FixedChunkPolicy::new(secs(7.0))),
            Box::new(HalvingPolicy::default()),
            Box::new(AdaptiveGuideline::default()),
            Box::new(OptimalP1Policy),
        ];
        for pol in &policies {
            let pv = eval(pol.as_ref(), 16, 100.0, 2);
            for p in 0..=2u32 {
                for &u in &[7.0, 25.0, 60.0, 100.0] {
                    let g = pv.value(p, secs(u));
                    let w = table.value(p, secs(u));
                    assert!(
                        g <= w + secs(0.25),
                        "{} beats optimum at p={p}, U={u}: {g} > {w}",
                        pol.name()
                    );
                }
            }
        }
    }

    #[test]
    fn optimal_policy_self_consistency() {
        // Evaluating the DP's own reconstructed policy must reproduce the
        // DP's value (up to interpolation slack).
        let table = Arc::new(CompressedTable::solve_event_driven(
            secs(C),
            32,
            secs(120.0),
            2,
        ));
        let pol = CompressedOptimalPolicy::new(table.clone());
        let pv = eval(&pol, 32, 120.0, 2);
        for p in 0..=2u32 {
            for &u in &[10.0, 40.0, 80.0, 120.0] {
                let g = pv.value(p, secs(u));
                let w = table.value(p, secs(u));
                assert!(
                    (g - w).abs() <= secs(6.0 / 32.0),
                    "p={p} U={u}: policy eval {g} vs table {w}"
                );
            }
        }
    }

    #[test]
    fn adaptive_guideline_is_near_optimal() {
        // Thm 5.1's claim, measured: the guideline deviates from the exact
        // optimum by low-order terms only. Empirically the deficit is below
        // 0.5·√(cU) + 2c across this grid (see EXPERIMENTS.md E5 for the
        // large-U sweep against the closed-form bound).
        let table = CompressedTable::solve_event_driven(secs(C), 16, secs(256.0), 3);
        let pv = eval(&AdaptiveGuideline::default(), 16, 256.0, 3);
        for p in 1..=3u32 {
            for &u in &[64.0, 128.0, 256.0] {
                let got = pv.value(p, secs(u));
                let opt = table.value(p, secs(u));
                let slack = secs(0.5 * (u * C).sqrt() + 2.0 * C);
                assert!(
                    got + slack >= opt,
                    "p={p} U={u}: guideline {got} too far below optimum {opt}"
                );
                // And it must beat the non-adaptive guarantee for p ≥ 2
                // (the paper's raison d'être).
                if p >= 2 {
                    let opp = Opportunity::from_units(u, C, p);
                    let na = nonadaptive_guarantee(&opp);
                    assert!(
                        got >= na - secs(1e-6),
                        "p={p} U={u}: adaptive {got} loses to non-adaptive {na}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_within_period_agrees_on_monotone_policies() {
        for pol in [
            &AdaptiveGuideline::default() as &dyn EpisodePolicy,
            &OptimalP1Policy,
            &EqualPeriodsPolicy::new(6),
        ] {
            let fast =
                evaluate_policy(pol, secs(C), 8, secs(48.0), 2, EvalOptions::default()).unwrap();
            let slow = evaluate_policy(
                pol,
                secs(C),
                8,
                secs(48.0),
                2,
                EvalOptions {
                    scan_within_period: true,
                },
            )
            .unwrap();
            for p in 0..=2u32 {
                for &u in &[5.0, 17.0, 33.0, 48.0] {
                    let a = fast.value(p, secs(u));
                    let b = slow.value(p, secs(u));
                    assert!(
                        (a - b).abs() <= secs(1e-9),
                        "{}: scan mode differs at p={p}, U={u}: {a} vs {b}",
                        pol.name()
                    );
                }
            }
        }
    }

    #[test]
    fn compressed_evaluator_tracks_dense_rows() {
        // The knot skeleton must reproduce the dense evaluator within the
        // compounded refinement tolerance, for a closed-form policy and
        // for the paper's adaptive guideline.
        let opts = CompressedEvalOptions::default();
        for pol in [
            &AdaptiveGuideline::default() as &dyn EpisodePolicy,
            &OptimalP1Policy,
            &EqualPeriodsPolicy::new(7),
        ] {
            let dense = eval(pol, 8, 96.0, 2);
            let sparse = evaluate_policy_compressed(pol, secs(C), 8, secs(96.0), 2, opts).unwrap();
            let slack = secs((2.0 + 1.0) * opts.tol_ticks / 8.0);
            for p in 0..=2u32 {
                for &u in &[0.5, 7.0, 23.25, 51.0, 96.0] {
                    let d = dense.value(p, secs(u));
                    let s = sparse.value(p, secs(u));
                    assert!(
                        (d - s).abs() <= slack,
                        "{}: dense {d} vs compressed {s} at p={p}, U={u}",
                        pol.name()
                    );
                }
            }
        }
    }

    #[test]
    fn compressed_evaluator_scales_to_huge_grids() {
        // 10⁷ ticks: the dense evaluator would need 3 × 10⁷ policy
        // invocations and 240 MB of rows; the knot skeleton answers from
        // a few thousand samples. The p = 1 closed form pins the far end.
        let ticks: i64 = 10_000_000;
        let q = 8u32;
        let u = ticks as f64 / q as f64;
        let pv = evaluate_policy_compressed(
            &OptimalP1Policy,
            secs(C),
            q,
            secs(u),
            1,
            CompressedEvalOptions::default(),
        )
        .unwrap();
        assert!(
            pv.knots(1) < 100_000,
            "knot skeleton too dense: {}",
            pv.knots(1)
        );
        assert!(pv.memory_bytes() < 4 << 20);
        let got = pv.value(1, secs(u));
        let want = w1_exact(secs(u), secs(C));
        // Grid restriction + knot interpolation both cost low-order
        // terms; at U ~ 10⁶ the closed form is ~10⁶ ticks of work.
        assert!(
            (got - want).abs() <= secs(2.0),
            "U={u}: compressed evaluator {got} vs closed form {want}"
        );
    }

    #[test]
    fn collinear_knot_merge_preserves_the_function() {
        // Three collinear spans with noise-free interior knots: only the
        // genuine slope changes survive, and interpolation is unchanged.
        let knots: Vec<(i64, f64)> = vec![
            (0, 0.0),
            (10, 0.0),
            (20, 0.0), // flat span
            (30, 5.0),
            (40, 10.0), // slope 1/2 span
            (60, 10.0),
            (80, 10.0), // flat tail
        ];
        let merged = merge_collinear_knots(knots.clone());
        assert_eq!(merged, vec![(0, 0.0), (20, 0.0), (40, 10.0), (80, 10.0)]);
        for x in 0..=80 {
            assert_eq!(
                knots_value(&knots, x as f64),
                knots_value(&merged, x as f64),
                "merge changed the function at {x}"
            );
        }
        // Degenerate rows pass through untouched.
        assert_eq!(merge_collinear_knots(vec![(0, 0.0)]), vec![(0, 0.0)]);
    }

    #[test]
    fn compressed_rows_store_only_slope_changes() {
        // The equal-periods policy has a piecewise-linear guarantee with
        // few pieces: after the run merge, the knot rows must be far
        // sparser than the probe count the adaptive sampler paid.
        let pv = evaluate_policy_compressed(
            &EqualPeriodsPolicy::new(4),
            secs(C),
            8,
            secs(512.0),
            2,
            CompressedEvalOptions::default(),
        )
        .unwrap();
        assert!(
            pv.knots(1) < 200,
            "knot row not run-merged: {} knots",
            pv.knots(1)
        );
    }

    #[test]
    fn values_monotone_in_budget() {
        let pv = eval(&AdaptiveGuideline::default(), 8, 100.0, 3);
        for &u in &[10.0, 50.0, 100.0] {
            let mut prev = pv.value(0, secs(u));
            for p in 1..=3u32 {
                let cur = pv.value(p, secs(u));
                assert!(cur <= prev + secs(1e-9), "p={p}, U={u}");
                prev = cur;
            }
        }
    }
}
