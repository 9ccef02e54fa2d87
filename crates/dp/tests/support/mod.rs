//! The reference checks of the equivalence suite.
//!
//! - [`Oracle`], the dense oracle: `W^(p)[L]` as one `i64` row per level
//!   plus the per-state argmax, filled by per-state bisection on the
//!   crossing (`O(p·L log L)`) or by a full scan over productive period
//!   lengths (`O(p·L²)`) — small grids only. Tie-breaks are the
//!   production ones: the crossing `t*` or one tick before it, a real
//!   period over a 1-tick wait, and a zero-value state burning its
//!   whole lifespan in one period.
//! - [`certify`], the certificate: checks chosen states of a table of
//!   any size against the §4 recursion in `O(log L)` value lookups each.

use cyclesteal_dp::CompressedTable;

/// How a level fill locates the maximizing period length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Search {
    /// Bisection on the crossing: values *and* argmax match the solver.
    Bisection,
    /// Full scan; keeps the smallest maximizer, so its argmax may differ
    /// on plateaus while realizing the same value.
    LinearScan,
}

/// Dense values and argmax for every `p ≤ p_max`, `l ≤ max_ticks`.
pub struct Oracle {
    values: Vec<Vec<i64>>,
    argmax: Vec<Vec<u32>>,
}

/// Fills `cur[1..=n]` (and the argmax) from the completed `prev` row.
/// `cur[0]` must already be 0.
fn solve_level_search(
    prev: &[i64],
    cur: &mut [i64],
    mut arg: Option<&mut [u32]>,
    n: i64,
    q: i64,
    inner: Search,
) {
    for l in 1..=n {
        let lu = l as usize;
        // Wait candidate: a 1-tick (nonproductive) period. Any t ≤ Q is
        // dominated by it.
        let mut best = cur[lu - 1];
        let mut best_t: i64 = 1;

        if l > q {
            let lo = q + 1;
            let hi = l;
            let (cand_t, cand_v) = match inner {
                Search::Bisection => {
                    let a = |t: i64| prev[(l - t) as usize];
                    let b = |t: i64| (t - q) + cur[(l - t) as usize];
                    // Smallest t with B(t) ≥ A(t); B−A is nondecreasing.
                    let (mut lo_s, mut hi_s) = (lo, hi);
                    while lo_s < hi_s {
                        let mid = lo_s + (hi_s - lo_s) / 2;
                        if b(mid) >= a(mid) {
                            hi_s = mid;
                        } else {
                            lo_s = mid + 1;
                        }
                    }
                    let t_star = lo_s;
                    let v_star = a(t_star).min(b(t_star));
                    if t_star > lo {
                        let v_left = a(t_star - 1).min(b(t_star - 1));
                        if v_left > v_star {
                            (t_star - 1, v_left)
                        } else {
                            (t_star, v_star)
                        }
                    } else {
                        (t_star, v_star)
                    }
                }
                Search::LinearScan => {
                    let a = |t: i64| prev[(l - t) as usize];
                    let b = |t: i64| (t - q) + cur[(l - t) as usize];
                    let mut bt = lo;
                    let mut bv = a(lo).min(b(lo));
                    for t in lo + 1..=hi {
                        let v = a(t).min(b(t));
                        if v > bv {
                            bv = v;
                            bt = t;
                        }
                    }
                    (bt, bv)
                }
            };
            // Prefer a real period over waiting on ties.
            if cand_v >= best {
                best = cand_v;
                best_t = cand_t;
            }
        }

        // A zero-value state might as well burn the lifespan in one
        // period; keeps reconstructed schedules small.
        if best == 0 {
            best_t = l;
        }
        cur[lu] = best;
        if let Some(arg) = arg.as_deref_mut() {
            arg[lu] = best_t as u32;
        }
    }
}

impl Oracle {
    /// Solves levels `0..=max_interrupts` over lifespans
    /// `0..=max_ticks` at `q` ticks per setup charge.
    pub fn solve(q: u32, max_ticks: i64, max_interrupts: u32, search: Search) -> Oracle {
        let (q, n) = (q as i64, max_ticks.max(0));
        // Level 0: W^(0)(l) = l ⊖ Q in a single period.
        let mut values = vec![(0..=n).map(|l| (l - q).max(0)).collect::<Vec<_>>()];
        let mut argmax = vec![(0..=n).map(|l| l as u32).collect::<Vec<_>>()];
        for _ in 1..=max_interrupts {
            let mut cur = vec![0i64; n as usize + 1];
            let mut arg = vec![0u32; n as usize + 1];
            let prev = values.last().expect("level p−1 present");
            solve_level_search(prev, &mut cur, Some(&mut arg), n, q, search);
            values.push(cur);
            argmax.push(arg);
        }
        Oracle { values, argmax }
    }

    fn level(&self, p: u32) -> usize {
        (p as usize).min(self.values.len() - 1)
    }

    /// `W^(p)[l]` in work ticks (`p` clamps to the solved range).
    pub fn value_ticks(&self, p: u32, l: i64) -> i64 {
        self.values[self.level(p)][l as usize]
    }

    /// The optimal first-period length at `(p, l)` (0 at `l = 0`).
    pub fn first_period_ticks(&self, p: u32, l: i64) -> i64 {
        i64::from(self.argmax[self.level(p)][l as usize])
    }

    /// The on-grid period lengths of the optimal episode at `(p, l)`.
    pub fn episode_ticks(&self, p: u32, mut l: i64) -> Vec<i64> {
        let mut periods = Vec::new();
        while l > 0 {
            let t = self.first_period_ticks(p, l).max(1).min(l);
            periods.push(t);
            l -= t;
        }
        periods
    }
}

/// One state the certificate checks: interrupt level `p` and lifespan
/// `L` in ticks.
pub type Point = (u32, i64);

/// Checks `table` at every point against the §4 recursion, reading
/// nothing but the table's own values: `W^(0)(L) = L ⊖ Q` and, for
/// `p ≥ 1`,
///
/// `W^(p)(L) = max(W^(p)(L−1), min(A, B) at the last t with B ≤ A, and at the t after it)`
///
/// over periods `t ∈ [Q+1, L]`, with the interrupted branch
/// `A(t) = W^(p−1)(L−t)` and the completed branch
/// `B(t) = (t−Q) + W^(p)(L−t)`. Rows are monotone and 1-Lipschitz by
/// representation, so `A` is nonincreasing and `B` nondecreasing in `t`,
/// and a binary search finds the crossing; periods `t ≤ Q` bank nothing
/// and never beat `W^(p)(L−1)`. It shares no code with either builder.
/// If level `p−1` is right, checking every `L` of level `p` proves it; a
/// sample is seeded evidence at any size. Returns the first failing
/// point.
pub fn certify(table: &CompressedTable, points: &[Point]) -> Result<(), Point> {
    let q = table.grid().q();
    let w = |p: u32, l: i64| table.value_ticks(p, l);
    for &(p, l) in points {
        let want = if p == 0 {
            (l - q).max(0)
        } else if l == 0 {
            0
        } else {
            let a = |t: i64| w(p - 1, l - t);
            let b = |t: i64| (t - q) + w(p, l - t);
            // The last t ∈ [Q+1, L] with B(t) ≤ A(t); `Q` when none.
            let (mut lo, mut hi) = (q, l);
            while lo < hi {
                let mid = lo + (hi - lo + 1) / 2;
                if b(mid) <= a(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            let mut best = w(p, l - 1);
            for t in [lo, lo + 1] {
                if (q + 1..=l).contains(&t) {
                    best = best.max(a(t).min(b(t)));
                }
            }
            best
        };
        if w(p, l) != want {
            return Err((p, l));
        }
    }
    Ok(())
}

/// The certificate's point sets for `table`, on every level:
/// - every tick of the zero-region edges, `L ≤ (p+2)·Q`;
/// - both ends of every stored run descriptor, where the builder changes
///   regime, and the ticks on either side of each end;
/// - `sample` lifespans drawn uniformly from `1..=max_ticks` by a
///   SplitMix64 stream seeded with `seed`.
pub fn certificate_points(table: &CompressedTable, sample: usize, seed: u64) -> Vec<Point> {
    let q = table.grid().q();
    let n = table.max_ticks();
    let mut points = Vec::new();
    let mut state = seed;
    for (p, row) in table.to_parts().rows.iter().enumerate() {
        let p = p as u32;
        points.extend((0..=((i64::from(p) + 2) * q).min(n)).map(|l| (p, l)));
        let mut res = row.residuals.iter();
        for run in &row.runs {
            // A run's flats are `start + (j·step_fx >> 16) + res_j`.
            let j = i64::from(run.len) - 1;
            let mut last = run.start + ((j * run.step_fx) >> 16);
            if run.has_residuals {
                last += i64::from(*res.nth(run.len as usize - 1).expect("residual per flat"));
            }
            for l in [
                run.start - 1,
                run.start,
                run.start + 1,
                last - 1,
                last,
                last + 1,
            ] {
                if (0..=n).contains(&l) {
                    points.push((p, l));
                }
            }
        }
        for _ in 0..sample {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if n > 0 {
                points.push((p, 1 + (z % n as u64) as i64));
            }
        }
    }
    points
}
