//! The dense reference oracle of the equivalence suite: `W^(p)[L]` as one
//! `i64` row per level plus the per-state argmax, filled by per-state
//! bisection on the crossing (`O(p·L log L)`) or by a full scan over
//! productive period lengths (`O(p·L²)`) — small grids only. Tie-breaks
//! are the production ones: the crossing `t*` or one tick before it, a
//! real period over a 1-tick wait, and a zero-value state burning its
//! whole lifespan in one period.

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
