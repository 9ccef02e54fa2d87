//! Run-backed `W^(p)[L]` tables: the one table type of the solver.
//!
//! ## Why rows compress
//!
//! Every row `W^(p)[·]` is nondecreasing, 1-Lipschitz and integer on the
//! tick grid, so consecutive differences are bits: each tick either banks
//! a tick of work (slope 1) or loses it to the adversary (slope 0). The
//! total number of slope-0 ticks in a row is exactly the row's final loss
//! `L − W^(p)(L)`, which the paper bounds by `O(√(QL) + pQ)` — vanishing
//! relative to `L`. A row is therefore stored as its **flat ticks** (the
//! positions where the slope is 0, i.e. the breakpoints of the
//! piecewise-linear row) past the zero-region prefix, and evaluated by
//! rank query: `W(l) = (l − z) − #{flats ≤ l}` for `l` past the zero
//! region `[0, z]`.
//!
//! The flat ticks themselves recur near-arithmetically (once per optimal
//! period), so each row stores them as **arithmetic runs** (start,
//! fixed-point common difference, length) plus one `i8` residual per
//! jittery flat — see [`crate::run`]. Stored descriptors track *regime
//! changes* of the row rather than individual breakpoints, and memory
//! drops to ≈1 byte per breakpoint. The encoding is lossless: every
//! query reads the exact flat ticks back.
//!
//! ## Two builds, one table
//!
//! * [`CompressedTable::solve_event_driven`] — the production build
//!   ([`crate::event`]): between breakpoints every sweep quantity is
//!   linear in `L`, so the builder jumps event to event in
//!   `O(p·k)` time, reading each previous level as the flat ticks
//!   it was just built in and compressing each level once complete.
//!   The cache, store, sim and serving layers all solve through it.
//! * [`CompressedTable::solve`] — the independent **tick-walking
//!   reference**: the monotone frontier sweep of the §4 recursion, one
//!   tick at a time (`O(p·L)`), each level read through the previous
//!   level's runs and compressed once complete. Slow, but it shares none
//!   of the event builder's span formulas, which is what makes it worth
//!   checking served answers against.
//!
//! Both emit identical rows; the equivalence suite
//! (`tests/equivalence_props.rs`) pins the values, argmax and episodes
//! of both against a dense bisection/linear-scan oracle.
//!
//! ## The frontier sweep
//!
//! Within an episode no information reaches the owner, so the game
//! satisfies
//!
//! ```text
//! W^(p)(L) = max_{0 < t ≤ L} min( W^(p−1)(L − t),          // interrupted
//!                                 (t ⊖ c) + W^(p)(L − t) ) // completed
//! W^(0)(L) = L ⊖ c
//! ```
//!
//! On `t ∈ [Q+1, L]` the interrupted branch is nonincreasing and the
//! completed branch nondecreasing, so the maximum sits at their
//! crossing. Substituting `s = L − t`, the crossing condition reads
//! `h(s) ≤ L − Q` for `h(s) = s + W^(p−1)(s) − W^(p)(s)`, and `h` is
//! nondecreasing in `s` (both rows are 1-Lipschitz): as `L` grows the
//! crossing residual `s*(L)` only advances. Nonproductive lengths
//! `t ≤ Q` are dominated by the 1-tick "wait" candidate `W^(p)(L−1)`.
//!
//! ## Policy queries without an argmax arena
//!
//! The optimal first period at `(p, l)` is re-derived at query time from
//! the rows alone: binary search the crossing residual, then apply the
//! sweep's exact tie-breaks (the crossing `t*` or one tick before it,
//! `t*` on ties; a real period over waiting on ties; a zero-value state
//! burns its whole lifespan). [`CompressedTable::episode`] costs
//! `O(m log L log k)` per reconstruction and zero bytes of policy
//! storage.

use crate::event::{build_level_events, BuildRow, EventCounts, EVENT_KIND_COUNT};
use crate::grid::Grid;
use crate::profile::{time_opt, Phase, PhaseRecorder};
use crate::run::{RunCursor, RunRow};
use cyclesteal_core::error::{ModelError, Result};
use cyclesteal_core::model::Opportunity;
use cyclesteal_core::policy::{EpisodePolicy, WorkOracle};
use cyclesteal_core::schedule::EpisodeSchedule;
use cyclesteal_core::time::{Time, Work};
use std::sync::Arc;

/// One arithmetic run of the exact tick staircase `W^(p)[l]`: `len`
/// consecutive grid values starting at `start` with common difference
/// `step`. Produced by [`CompressedTable::value_runs`] and shipped by
/// the serving layer's streaming wire mode in place of dense arrays;
/// [`expand_value_runs`] is the exact inverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValueRun {
    /// Value (in work ticks) at the run's first lifespan tick.
    pub start: i64,
    /// Common difference between consecutive ticks — `0` in the zero
    /// region and on flat ticks, `1` on ramps (rows are monotone
    /// 1-Lipschitz, so no other slope occurs).
    pub step: i64,
    /// Number of consecutive lifespan ticks the run covers (`≥ 1`).
    pub len: i64,
}

/// Expand run descriptors back into the dense tick-value array they
/// describe — the client-side inverse of
/// [`CompressedTable::value_runs`], bit-identical by construction.
pub fn expand_value_runs(runs: &[ValueRun]) -> Vec<i64> {
    let total: i64 = runs.iter().map(|r| r.len.max(0)).sum();
    let mut out = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    for run in runs {
        let mut v = run.start;
        for _ in 0..run.len {
            out.push(v);
            v += run.step;
        }
    }
    out
}

/// One compressed row: the zero-region prefix plus the flat ticks past
/// it, stored as arithmetic runs. Shared with the event-driven builder
/// in [`crate::event`], which emits rows in this exact form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CompressedRow {
    /// Largest `l` with `W(l) = 0` (the whole row when never positive).
    pub(crate) zero_until: i64,
    /// The flat ticks past the zero region.
    pub(crate) runs: RunRow,
}

impl CompressedRow {
    /// A row with no flat ticks past the zero region.
    pub(crate) fn empty(zero_until: i64) -> CompressedRow {
        CompressedRow {
            zero_until,
            runs: RunRow::default(),
        }
    }

    /// Number of flat ticks (row loss past the zero region).
    #[inline]
    pub(crate) fn count(&self) -> i64 {
        self.runs.count()
    }

    /// `W(l)` by rank query over the flat ticks.
    #[inline]
    pub(crate) fn value(&self, l: i64) -> i64 {
        if l <= self.zero_until {
            return 0;
        }
        (l - self.zero_until) - self.runs.rank_le(l)
    }

    /// A fresh forward cursor over this row's flat ticks.
    pub(crate) fn cursor(&self) -> RowCursor<'_> {
        RowCursor {
            zero_until: self.zero_until,
            runs: &self.runs,
            cur: RunCursor::default(),
        }
    }

    /// Logical breakpoints: flat ticks + the zero-region edge — the
    /// resolution-independent first-order row size.
    pub(crate) fn breakpoints(&self) -> usize {
        self.count() as usize + 1
    }

    /// Breakpoints *stored* as explicit descriptors: arithmetic-run
    /// descriptors + 1 for the zero edge — the second-order `k` the
    /// bench reports.
    pub(crate) fn stored_breakpoints(&self) -> usize {
        self.runs.descriptors() + 1
    }

    pub(crate) fn memory_bytes(&self) -> usize {
        std::mem::size_of::<CompressedRow>() + self.runs.memory_bytes()
    }
}

/// Forward cursor over a row's values: `W(pos)` in `O(1)` amortized for
/// positions that move (nearly) monotonically forward, tolerating the
/// small retreats the tick-walking sweep performs when it interleaves
/// `s` and `s+1`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowCursor<'a> {
    zero_until: i64,
    runs: &'a RunRow,
    cur: RunCursor,
}

impl RowCursor<'_> {
    /// `W(pos)` through the cursor (amortized-`O(1)` staircase read).
    #[inline]
    pub(crate) fn value(&mut self, pos: i64) -> i64 {
        let rank = self.cur.rank_le(self.runs, pos);
        if pos <= self.zero_until {
            0
        } else {
            (pos - self.zero_until) - rank
        }
    }
}

/// Amortized-O(1) evaluator for positions that move (nearly)
/// monotonically forward over a plain flat-tick slice — the
/// tick-walking builder's view of the row *under construction* (which
/// is not yet a [`CompressedRow`]). Tolerates small retreats.
#[derive(Clone, Copy, Debug, Default)]
struct FlatSliceCursor {
    rank: usize,
}

impl FlatSliceCursor {
    #[inline]
    fn value(&mut self, zero_until: i64, flats: &[i64], pos: i64) -> i64 {
        while self.rank > 0 && flats[self.rank - 1] > pos {
            self.rank -= 1;
        }
        while self.rank < flats.len() && flats[self.rank] <= pos {
            self.rank += 1;
        }
        if pos <= zero_until {
            0
        } else {
            (pos - zero_until) - self.rank as i64
        }
    }
}

/// Walks level `p` tick by tick from the completed level `p−1` by the
/// monotone frontier sweep, recording only slope-0 ticks. Returns the
/// zero-region edge and the sorted flat ticks; the caller compresses
/// them into runs. The run-skipping alternative is [`crate::event`].
pub(crate) fn walk_level(prev: &CompressedRow, n: i64, q: i64) -> (i64, Vec<i64>) {
    let mut prev_at = prev.cursor();
    let mut zero_until = 0i64;
    let mut flats: Vec<i64> = Vec::new();
    let mut last = 0i64; // W^(p)(l−1)
    let mut frontier = 0i64; // crossing residual s*, nondecreasing in l
    let mut cur_at = FlatSliceCursor::default(); // reads cur at s / s+1

    for l in 1..=n {
        let mut best = last;
        if l > q {
            let tau = l - q;
            let s_cap = l - q - 1;
            while frontier < s_cap {
                let s1 = frontier + 1;
                let h = s1 + prev_at.value(s1) - cur_at.value(zero_until, &flats, s1);
                if h <= tau {
                    frontier += 1;
                } else {
                    break;
                }
            }
            let s = frontier;
            let t_star = l - s;
            let mut cand = prev_at
                .value(s)
                .min((t_star - q) + cur_at.value(zero_until, &flats, s));
            if t_star > q + 1 {
                let v_left = prev_at
                    .value(s + 1)
                    .min((t_star - 1 - q) + cur_at.value(zero_until, &flats, s + 1));
                cand = cand.max(v_left);
            }
            if cand >= best {
                best = cand;
            }
        }

        let inc = best - last;
        debug_assert!(
            inc == 0 || inc == 1,
            "row not monotone 1-Lipschitz at l={l}: {last} -> {best}"
        );
        if best == 0 {
            zero_until = l;
        } else if inc == 0 {
            flats.push(l);
        }
        last = best;
    }
    (zero_until, flats)
}

/// `W^(p)[L]` for all `p ≤ p_max`, `L ≤ L_max`, stored as run-backed
/// rows: `O(p·k)` memory with `k ≪ L`.
///
/// Equality is **structural**: two tables compare equal only when every
/// persisted field — grid, extent, event count and each row's stored
/// runs — matches exactly. This is the bit-identical round-trip contract
/// of the persistence layer (`from_parts(to_parts(t)) == t`, see
/// [`crate::snapshot`]). The per-kind event split is a build diagnostic
/// that is not persisted, so equality ignores it.
#[derive(Clone, Debug)]
pub struct CompressedTable {
    pub(crate) grid: Grid,
    pub(crate) max_ticks: i64,
    pub(crate) max_interrupts: u32,
    pub(crate) rows: Vec<CompressedRow>,
    /// Build-loop iterations summed over all levels: one per tick for the
    /// tick-walking build, one per breakpoint event for the event-driven
    /// build (see [`Self::events`]).
    pub(crate) events: u64,
    /// The event build's `events` per kind (see [`Self::events_by_kind`]).
    pub(crate) event_kinds: Option<EventCounts>,
}

impl PartialEq for CompressedTable {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid
            && self.max_ticks == other.max_ticks
            && self.max_interrupts == other.max_interrupts
            && self.rows == other.rows
            && self.events == other.events
    }
}

impl CompressedTable {
    /// Solves the game bottom-up for interrupt levels `0..=max_interrupts`
    /// and lifespans `0..=max_lifespan` at `ticks_per_setup` resolution by
    /// **walking every tick** (`O(p·L)` time) — the independent reference
    /// build. Production callers use [`Self::solve_event_driven`], which
    /// stores the same rows.
    ///
    /// ```
    /// use cyclesteal_core::time::secs;
    /// use cyclesteal_dp::CompressedTable;
    ///
    /// let walked = CompressedTable::solve(secs(1.0), 8, secs(500.0), 2);
    /// let jumped = CompressedTable::solve_event_driven(secs(1.0), 8, secs(500.0), 2);
    /// // Bit-identical answers from two independent builds…
    /// assert_eq!(walked.value_ticks(2, 4000), jumped.value_ticks(2, 4000));
    /// // …but the event build skips ticks instead of visiting each one.
    /// assert!(jumped.events() < walked.events());
    /// ```
    pub fn solve(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
    ) -> CompressedTable {
        Self::build(
            setup,
            ticks_per_setup,
            max_lifespan,
            max_interrupts,
            false,
            None,
        )
    }

    /// [`Self::solve`] with each level's tick walk and run compression
    /// timed into `recorder` as [`Phase::SkeletonBuild`] and
    /// [`Phase::RunCompression`]. The clock is read only between phases,
    /// so the table is bit-identical to the unprofiled solve.
    pub fn solve_profiled(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
        recorder: &PhaseRecorder<'_>,
    ) -> CompressedTable {
        let prof = Some(recorder);
        Self::build(
            setup,
            ticks_per_setup,
            max_lifespan,
            max_interrupts,
            false,
            prof,
        )
    }

    /// The production solve: the same rows as [`Self::solve`], built by
    /// the event-driven (run-skipping) builder of [`crate::event`] in
    /// `O(p·k)` time, `k` = breakpoints.
    pub fn solve_event_driven(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
    ) -> CompressedTable {
        Self::build(
            setup,
            ticks_per_setup,
            max_lifespan,
            max_interrupts,
            true,
            None,
        )
    }

    /// [`Self::solve_event_driven`] with each level's event loop and run
    /// compression timed into `recorder` as [`Phase::EventLoop`] and
    /// [`Phase::RunCompression`]. The clock is read only between phases,
    /// so the table is bit-identical to the unprofiled solve.
    pub fn solve_event_driven_profiled(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
        recorder: &PhaseRecorder<'_>,
    ) -> CompressedTable {
        let prof = Some(recorder);
        Self::build(
            setup,
            ticks_per_setup,
            max_lifespan,
            max_interrupts,
            true,
            prof,
        )
    }

    fn build(
        setup: Time,
        ticks_per_setup: u32,
        max_lifespan: Time,
        max_interrupts: u32,
        event_driven: bool,
        prof: Option<&PhaseRecorder<'_>>,
    ) -> CompressedTable {
        let grid = Grid::new(setup, ticks_per_setup);
        let n = grid.to_ticks(max_lifespan).max(0);
        let q = grid.q();
        let mut rows = Vec::with_capacity(max_interrupts as usize + 1);
        let mut kinds: EventCounts = [0; EVENT_KIND_COUNT];
        // Level 0: W^(0)(l) = l ⊖ Q — a pure zero region, no flats after.
        rows.push(CompressedRow::empty(q.min(n)));
        // The event build reads level p−1 as the flat ticks it was built
        // in, never by decoding its compressed row.
        let mut prev = BuildRow::empty(q.min(n));
        for _p in 1..=max_interrupts {
            let row = if event_driven {
                let (level, level_kinds) =
                    time_opt(prof, Phase::EventLoop, || build_level_events(&prev, n, q));
                for (total, k) in kinds.iter_mut().zip(level_kinds) {
                    *total += k;
                }
                prev = level;
                time_opt(prof, Phase::RunCompression, || prev.compress())
            } else {
                let prev_row = rows.last().expect("level p−1 present");
                let (zero_until, flats) =
                    time_opt(prof, Phase::SkeletonBuild, || walk_level(prev_row, n, q));
                time_opt(prof, Phase::RunCompression, || {
                    BuildRow { zero_until, flats }.compress()
                })
            };
            rows.push(row);
        }

        CompressedTable {
            grid,
            max_ticks: n,
            max_interrupts,
            rows,
            events: if event_driven {
                kinds.iter().sum()
            } else {
                u64::from(max_interrupts) * n as u64
            },
            event_kinds: event_driven.then_some(kinds),
        }
    }

    /// Build-loop iterations summed over all levels: `p·L` for the
    /// tick-walking build, the number of breakpoint events (skips, stalls
    /// and boundary single-steps) for the event-driven build. The
    /// `perf_dp` bench reports this as `event_count`.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The event-driven build's [`Self::events`] split by kind, indexed
    /// like [`EVENT_KINDS`](crate::event::EVENT_KINDS); the kinds sum to
    /// [`Self::events`]. `None` for the tick-walking build and for a
    /// table rebuilt by [`Self::from_parts`], which persists only the
    /// total.
    pub fn events_by_kind(&self) -> Option<EventCounts> {
        self.event_kinds
    }

    /// The grid the table was solved on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Largest lifespan (in ticks) the table covers.
    pub fn max_ticks(&self) -> i64 {
        self.max_ticks
    }

    /// Largest lifespan the table covers.
    pub fn max_lifespan(&self) -> Time {
        self.grid.to_time(self.max_ticks)
    }

    /// Whether the table can answer every query up to `max_lifespan`,
    /// with the same tolerance [`Self::value`] accepts — the coverage
    /// check the [`crate::TableCache`] and the serving layer share, so
    /// a "covered" table can never panic on the promised range.
    pub fn covers(&self, max_lifespan: Time) -> bool {
        max_lifespan.get() / self.grid.tick().get() <= self.max_ticks as f64 + 1e-9
    }

    /// Largest interrupt budget the table covers.
    pub fn max_interrupts(&self) -> u32 {
        self.max_interrupts
    }

    /// Logical breakpoints at level `p` (flat ticks + the zero edge) —
    /// the resolution-independent row size.
    pub fn breakpoints(&self, p: u32) -> usize {
        self.rows[p.min(self.max_interrupts) as usize].breakpoints()
    }

    /// Breakpoints *stored* as explicit descriptors at level `p`: the
    /// arithmetic-run descriptor count plus the zero edge — the
    /// `run_compressed_breakpoints` number of the `perf_dp` bench.
    pub fn stored_breakpoints(&self, p: u32) -> usize {
        self.rows[p.min(self.max_interrupts) as usize].stored_breakpoints()
    }

    /// Bytes held by all rows (descriptors + residual streams) — the
    /// cache's residency accounting and the bench's `run_memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        self.rows.iter().map(CompressedRow::memory_bytes).sum()
    }

    /// Exact grid value in work ticks. `p` above the solved range clamps
    /// (the adversary never benefits from more interrupts than periods,
    /// and `W^(p)` is nonincreasing in `p`, so this is an upper bound
    /// there); `l` outside `[0, max]` panics.
    #[inline]
    pub fn value_ticks(&self, p: u32, l: i64) -> i64 {
        assert!(
            (0..=self.max_ticks).contains(&l),
            "lifespan {l} ticks outside solved range 0..={}",
            self.max_ticks
        );
        self.rows[p.min(self.max_interrupts) as usize].value(l)
    }

    /// The exact tick staircase `W^(p)[l]` over `first_tick ..
    /// first_tick + count` as arithmetic-run descriptors (typically one
    /// per breakpoint in range) — what the serving layer's streaming
    /// wire mode ships for sweep-shaped queries instead of a dense
    /// array. [`expand_value_runs`] reproduces [`Self::value_ticks`] at
    /// every covered tick bit for bit.
    ///
    /// # Panics
    ///
    /// If `count < 1` or the range extends outside the solved
    /// `0..=max_ticks` domain (same contract as [`Self::value_ticks`]).
    pub fn value_runs(&self, p: u32, first_tick: i64, count: i64) -> Vec<ValueRun> {
        assert!(count >= 1, "empty sweep: count {count} must be >= 1");
        let last = first_tick + count - 1;
        assert!(
            first_tick >= 0 && last <= self.max_ticks,
            "sweep {first_tick}..={last} outside solved range 0..={}",
            self.max_ticks
        );
        let row = &self.rows[p.min(self.max_interrupts) as usize];
        let zero = row.zero_until;
        let mut runs = Vec::new();
        let mut l = first_tick;
        if l <= zero {
            // The zero region is one constant run.
            let end = zero.min(last);
            runs.push(ValueRun {
                start: 0,
                step: 0,
                len: end - l + 1,
            });
            l = end + 1;
        }
        if l > last {
            return runs;
        }
        // Past the zero region `W(l) = (l - zero) - #flats ≤ l`: slope 1
        // except at flat ticks. Walk the flats once; each gap becomes a
        // step-1 ramp, each maximal group of consecutive flats a
        // constant run.
        let mut flats = row.runs.iter();
        let mut rank = flats.seek_after(l - 1);
        let mut next_flat = flats.next().unwrap_or(i64::MAX);
        while l <= last {
            if l < next_flat {
                let end = (next_flat - 1).min(last);
                runs.push(ValueRun {
                    start: (l - zero) - rank,
                    step: 1,
                    len: end - l + 1,
                });
                l = end + 1;
            } else {
                let start = (l - zero) - (rank + 1);
                let mut len = 0;
                while next_flat == l + len && l + len <= last {
                    len += 1;
                    rank += 1;
                    next_flat = flats.next().unwrap_or(i64::MAX);
                }
                runs.push(ValueRun {
                    start,
                    step: 0,
                    len,
                });
                l += len;
            }
        }
        runs
    }

    /// Value at an arbitrary lifespan by linear interpolation between grid
    /// points (`W` is 1-Lipschitz, so the interpolation error is below
    /// half a tick). Lifespans beyond the solved range panic.
    pub fn value(&self, p: u32, lifespan: Time) -> Work {
        let tick = self.grid.tick().get();
        let x = lifespan.get() / tick;
        assert!(
            x >= -1e-9 && x <= self.max_ticks as f64 + 1e-9,
            "lifespan {lifespan} outside solved range {}",
            self.max_lifespan()
        );
        let x = x.clamp(0.0, self.max_ticks as f64);
        let i = x.floor() as i64;
        let row = &self.rows[p.min(self.max_interrupts) as usize];
        if i >= self.max_ticks {
            return Time::new(row.value(self.max_ticks) as f64 * tick);
        }
        let frac = x - i as f64;
        let lo = row.value(i) as f64;
        let hi = row.value(i + 1) as f64;
        Time::new((lo + (hi - lo) * frac) * tick)
    }

    /// The optimal first-period length (in ticks) at state `(p, l)`,
    /// re-derived from the rows with the frontier sweep's exact
    /// tie-breaks (see the module docs).
    pub fn first_period_ticks(&self, p: u32, l: i64) -> i64 {
        assert!(
            (0..=self.max_ticks).contains(&l),
            "lifespan {l} ticks outside solved range 0..={}",
            self.max_ticks
        );
        let p = p.min(self.max_interrupts);
        if l == 0 {
            return 0;
        }
        if p == 0 {
            // Level 0: a single period consuming the whole lifespan.
            return l;
        }
        let q = self.grid.q();
        let prev = &self.rows[p as usize - 1];
        let cur = &self.rows[p as usize];

        let mut best = cur.value(l - 1);
        let mut best_t: i64 = 1;
        if l > q {
            let tau = l - q;
            // Largest s ∈ [0, l−q−1] with h(s) = s + prev(s) − cur(s) ≤ τ;
            // h is nondecreasing and h(0) = 0, so the search is total.
            let (mut lo_s, mut hi_s) = (0i64, l - q - 1);
            while lo_s < hi_s {
                let mid = lo_s + (hi_s - lo_s + 1) / 2;
                if mid + prev.value(mid) - cur.value(mid) <= tau {
                    lo_s = mid;
                } else {
                    hi_s = mid - 1;
                }
            }
            let s = lo_s;
            let t_star = l - s;
            let v_star = prev.value(s).min((t_star - q) + cur.value(s));
            let (cand_t, cand_v) = if t_star > q + 1 {
                let v_left = prev.value(s + 1).min((t_star - 1 - q) + cur.value(s + 1));
                if v_left > v_star {
                    (t_star - 1, v_left)
                } else {
                    (t_star, v_star)
                }
            } else {
                (t_star, v_star)
            };
            if cand_v >= best {
                best = cand_v;
                best_t = cand_t;
            }
        }
        if best == 0 {
            best_t = l;
        }
        best_t
    }

    /// Reconstructs the full optimal episode schedule at `(p, lifespan)`
    /// (the lifespan is quantized to the grid; the residual quantization
    /// drift is absorbed by the first period — see `assemble_episode`
    /// for the coarse-grid guard).
    pub fn episode(&self, p: u32, lifespan: Time) -> Result<EpisodeSchedule> {
        let mut l = self.grid.to_ticks(lifespan);
        if l <= 0 {
            return Err(ModelError::NegativeLifespan { lifespan });
        }
        l = l.min(self.max_ticks);
        let mut periods_ticks: Vec<i64> = Vec::new();
        while l > 0 {
            let t = self.first_period_ticks(p, l).max(1).min(l);
            periods_ticks.push(t);
            l -= t;
        }
        assemble_episode(&self.grid, &periods_ticks, lifespan)
    }
}

/// Turns reconstructed on-grid period ticks into an [`EpisodeSchedule`]
/// at the requested (off-grid) lifespan. The quantization drift
/// `lifespan − Σ tᵢ·tick` is absorbed by the first period; when a
/// *negative* drift would consume the entire first period — reachable
/// only at very coarse grids, where half a tick can rival a whole period
/// — every period is instead scaled by the same positive factor, so the
/// schedule never contains a non-positive length and still sums to the
/// lifespan.
pub(crate) fn assemble_episode(
    grid: &Grid,
    periods_ticks: &[i64],
    lifespan: Time,
) -> Result<EpisodeSchedule> {
    let mut periods: Vec<Time> = periods_ticks.iter().map(|&t| grid.to_time(t)).collect();
    let total: Time = periods.iter().copied().sum();
    let drift = lifespan - total;
    if !drift.is_zero() {
        if (periods[0] + drift).is_positive() {
            periods[0] += drift;
        } else {
            let scale = lifespan.get() / total.get();
            for t in periods.iter_mut() {
                *t = Time::new(t.get() * scale);
            }
        }
    }
    EpisodeSchedule::for_lifespan(periods, lifespan)
}

impl WorkOracle for CompressedTable {
    fn setup(&self) -> Time {
        self.grid.setup()
    }

    fn guaranteed_work(&self, interrupts: u32, lifespan: Time) -> Work {
        self.value(interrupts, lifespan)
    }
}

/// The table's optimal strategy as an [`EpisodePolicy`].
#[derive(Clone)]
pub struct CompressedOptimalPolicy {
    table: Arc<CompressedTable>,
}

impl CompressedOptimalPolicy {
    /// Wraps a solved table (the policy is always available — no argmax
    /// arena is needed).
    pub fn new(table: Arc<CompressedTable>) -> CompressedOptimalPolicy {
        CompressedOptimalPolicy { table }
    }

    /// The backing table.
    pub fn table(&self) -> &CompressedTable {
        &self.table
    }
}

impl EpisodePolicy for CompressedOptimalPolicy {
    fn episode(&self, opp: &Opportunity) -> Result<EpisodeSchedule> {
        self.table.episode(opp.interrupts(), opp.lifespan())
    }

    fn name(&self) -> String {
        format!(
            "optimal-dp-compressed(q={}, p≤{})",
            self.table.grid.q(),
            self.table.max_interrupts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_core::bounds::{w0, w1_exact};
    use cyclesteal_core::time::secs;

    fn table(q: u32, max_u: f64, p: u32) -> CompressedTable {
        CompressedTable::solve_event_driven(secs(1.0), q, secs(max_u), p)
    }

    #[test]
    fn level_zero_matches_prop_41d() {
        let t = table(8, 64.0, 0);
        for l in [0.0, 0.5, 1.0, 7.25, 64.0] {
            assert_eq!(t.value(0, secs(l)), w0(secs(l), secs(1.0)), "L={l}");
        }
    }

    #[test]
    fn monotone_in_lifespan_and_interrupts() {
        let t = table(8, 128.0, 4);
        for p in 0..=4u32 {
            for l in 1..=t.max_ticks() {
                assert!(
                    t.value_ticks(p, l) >= t.value_ticks(p, l - 1),
                    "Prop 4.1(a) fails at p={p}, l={l}"
                );
            }
        }
        for p in 1..=4u32 {
            for l in 0..=t.max_ticks() {
                assert!(
                    t.value_ticks(p, l) <= t.value_ticks(p - 1, l),
                    "Prop 4.1(b) fails at p={p}, l={l}"
                );
            }
        }
    }

    #[test]
    fn zero_region_is_prop_41c() {
        let t = table(8, 64.0, 3);
        let q = 8i64;
        for p in 0..=3u32 {
            let threshold = (p as i64 + 1) * q;
            for l in 0..=threshold {
                assert_eq!(t.value_ticks(p, l), 0, "W^{p}[{l}] should be 0");
            }
            // Just above: (p+1) periods of Q+1 ticks leave one survivor
            // banking one tick even after p kills.
            let above = (p as i64 + 1) * (q + 1);
            if above <= t.max_ticks() {
                assert!(
                    t.value_ticks(p, above) >= 1,
                    "W^{p}[{above}] should be positive"
                );
            }
        }
    }

    #[test]
    fn p1_matches_section_52_closed_form() {
        // Grid restriction can only lose; the loss is O(tick · m).
        let q = 64u32;
        let t = table(q, 200.0, 1);
        let c = secs(1.0);
        for &u in &[3.0, 5.0, 10.0, 50.0, 100.0, 200.0] {
            let dp = t.value(1, secs(u));
            let cf = w1_exact(secs(u), c);
            assert!(
                dp <= cf + secs(1e-9),
                "U={u}: grid value {dp} exceeds continuum optimum {cf}"
            );
            let m = cyclesteal_core::bounds::m1_opt(secs(u), c) as f64;
            let slack = secs((m + 2.0) / q as f64);
            assert!(
                dp >= cf - slack,
                "U={u}: grid value {dp} too far below optimum {cf} (slack {slack})"
            );
        }
    }

    #[test]
    fn brute_force_full_range_cross_check() {
        // Reference maximizing over ALL t ∈ [1, l] — no wait-candidate
        // shortcut, no productivity restriction — against both builds.
        let q = 4i64;
        let n = 60i64;
        let mut ref_levels: Vec<Vec<i64>> = Vec::new();
        ref_levels.push((0..=n).map(|l| (l - q).max(0)).collect());
        for p in 1..=3usize {
            let mut cur = vec![0i64; (n + 1) as usize];
            for l in 1..=n {
                let mut best = 0;
                for t in 1..=l {
                    let a = ref_levels[p - 1][(l - t) as usize];
                    let b = (t - q).max(0) + cur[(l - t) as usize];
                    best = best.max(a.min(b));
                }
                cur[l as usize] = best;
            }
            ref_levels.push(cur);
        }

        let u = secs(n as f64 / q as f64);
        let walked = CompressedTable::solve(secs(1.0), q as u32, u, 3);
        let jumped = CompressedTable::solve_event_driven(secs(1.0), q as u32, u, 3);
        for p in 0..=3u32 {
            for l in 0..=n {
                let want = ref_levels[p as usize][l as usize];
                assert_eq!(walked.value_ticks(p, l), want, "tick walk at p={p}, l={l}");
                assert_eq!(
                    jumped.value_ticks(p, l),
                    want,
                    "event build at p={p}, l={l}"
                );
            }
        }
    }

    #[test]
    fn both_builds_store_identical_rows() {
        for (q, max_u, p) in [
            (4u32, 60.0, 3u32),
            (8, 120.0, 2),
            (32, 40.0, 4),
            (16, 1.0, 2),
        ] {
            let walked = CompressedTable::solve(secs(1.0), q, secs(max_u), p);
            let jumped = table(q, max_u, p);
            assert_eq!(walked.rows, jumped.rows, "rows differ at q={q}, p={p}");
            assert_eq!(walked.events(), p as u64 * walked.max_ticks() as u64);
            assert_eq!(walked.events_by_kind(), None);
        }
    }

    /// The event build's per-kind counts sum to its total, and at the
    /// perfbench cold size `(Q=16, p=6, 15k ticks)` they are pinned in
    /// the order of `EVENT_KINDS`: zero prefix, stall, lockstep, cap,
    /// own-flat onset, prev-flat onset, single tick.
    #[test]
    fn event_kinds_sum_to_events_and_are_pinned_at_the_cold_size() {
        for (q, max_u, p) in [(1u32, 300.0, 5u32), (4, 500.0, 4), (32, 2_000.0, 8)] {
            let t = table(q, max_u, p);
            let kinds = t.events_by_kind().expect("event build counts kinds");
            assert_eq!(kinds.iter().sum::<u64>(), t.events(), "q={q}, p={p}");
        }
        let cold = table(16, 937.5, 6);
        assert_eq!(cold.max_ticks(), 15_000);
        assert_eq!(
            cold.events_by_kind(),
            Some([6, 1_294, 10_407, 0, 6_097, 4_107, 3_766])
        );
        assert_eq!(cold.events(), 25_677);
    }

    #[test]
    fn reconstructed_episode_covers_lifespan_and_starts_like_s_opt1() {
        let t = table(64, 300.0, 1);
        let u = secs(250.0);
        let s = t.episode(1, u).unwrap();
        assert!(s.total().approx_eq(u, secs(1e-9)));
        let reference = cyclesteal_core::schedules::optimal_p1_schedule(u, secs(1.0)).unwrap();
        let diff = (s.period(0) - reference.period(0)).abs();
        assert!(
            diff <= secs(0.2),
            "DP first period {} vs closed form {}",
            s.period(0),
            reference.period(0)
        );
    }

    #[test]
    fn row_size_tracks_loss_not_lifespan() {
        // Doubling the lifespan must not double the row: breakpoints
        // scale like the √-loss, not like L.
        let a = CompressedTable::solve(secs(1.0), 16, secs(500.0), 2);
        let b = CompressedTable::solve(secs(1.0), 16, secs(2000.0), 2);
        let (ka, kb) = (a.breakpoints(2), b.breakpoints(2));
        assert!(
            (kb as f64) < 3.0 * ka as f64,
            "4× lifespan grew breakpoints {ka} -> {kb} (≥3×): not sublinear"
        );
        // And the table must beat a dense i64 row per level handily.
        let dense = 3 * (b.max_ticks() as usize + 1) * std::mem::size_of::<i64>();
        assert!(
            dense >= 10 * b.memory_bytes(),
            "dense {dense} vs compressed {}",
            b.memory_bytes()
        );
    }

    #[test]
    fn runs_store_fewer_descriptors_than_breakpoints() {
        // Second-order compression: the stored descriptor count drops
        // well below the logical breakpoints, and the footprint below one
        // word per breakpoint.
        let t = table(16, 4000.0, 2);
        assert!(
            t.stored_breakpoints(2) * 2 < t.breakpoints(2),
            "runs stored {} of {} breakpoints — second-order compression inert",
            t.stored_breakpoints(2),
            t.breakpoints(2)
        );
        let words: usize = (0..=2).map(|p| t.breakpoints(p) * 8).sum();
        assert!(t.memory_bytes() < words, "{} vs {words}", t.memory_bytes());
    }

    #[test]
    fn degenerate_lifespans() {
        // L = 0: one all-zero state per level.
        let c = CompressedTable::solve(secs(1.0), 8, secs(0.0), 2);
        assert_eq!(c.max_ticks(), 0);
        for p in 0..=2 {
            assert_eq!(c.value_ticks(p, 0), 0);
        }
        assert!(c.episode(1, secs(0.0)).is_err());
        // L = 1 tick: still inside every zero region.
        let c = CompressedTable::solve(secs(1.0), 8, secs(0.125), 2);
        assert_eq!(c.max_ticks(), 1);
        assert_eq!(c.value_ticks(1, 1), 0);
        let e = c.episode(1, secs(0.125)).unwrap();
        assert_eq!(e.len(), 1);
        // The event build's degenerate rows behave identically.
        let r = table(8, 0.125, 2);
        assert_eq!(r.max_ticks(), 1);
        assert_eq!(r.value_ticks(1, 1), 0);
    }

    #[test]
    fn interpolation_is_between_grid_points() {
        let t = table(4, 32.0, 2);
        let a = t.value(2, secs(10.0));
        let b = t.value(2, secs(10.25));
        let mid = t.value(2, secs(10.125));
        assert!(mid >= a.min(b) && mid <= a.max(b));
    }

    #[test]
    #[should_panic(expected = "outside solved range")]
    fn out_of_range_lifespan_panics() {
        let t = table(4, 32.0, 1);
        let _ = t.value(1, secs(1000.0));
    }

    #[test]
    fn coarse_grid_episodes_never_emit_nonpositive_periods() {
        // Q = 1 is the coarsest grid: one tick per setup charge, so the
        // quantization drift (up to half a tick) rivals whole periods.
        // Every reconstructed episode must consist of strictly positive
        // periods summing to the requested lifespan — including lifespans
        // sitting right at the round-half-away boundary.
        let t = table(1, 40.0, 2);
        for p in 0..=2u32 {
            for k in 1..=39i64 {
                for du in [-0.5, -0.499, -0.25, 0.0, 0.25, 0.499] {
                    let u = secs(k as f64 + du);
                    if t.grid().to_ticks(u) <= 0 {
                        continue;
                    }
                    let s = t.episode(p, u).unwrap();
                    assert!(
                        s.periods().iter().all(|pd| pd.is_positive()),
                        "non-positive period at p={p}, U={u}: {:?}",
                        s.periods()
                    );
                    assert!(
                        s.total().approx_eq(u, secs(1e-9)),
                        "episode at p={p}, U={u} sums to {}",
                        s.total()
                    );
                }
            }
        }
    }

    #[test]
    fn assemble_episode_renormalizes_when_drift_consumes_first_period() {
        // Direct exercise of the guard: a 1-tick first period with a
        // negative drift larger than itself. Unreachable through today's
        // reconstruction loop (|drift| ≤ tick/2 < any period), but the
        // helper must never emit a non-positive length even if a future
        // caller feeds it a worse quantization.
        let grid = Grid::new(secs(1.0), 1);
        let periods_ticks = [1i64, 5, 5];
        let lifespan = secs(0.5); // total is 11.0 — drift −10.5 swallows t₁
        let s = assemble_episode(&grid, &periods_ticks, lifespan).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.periods().iter().all(|pd| pd.is_positive()));
        assert!(s.total().approx_eq(lifespan, secs(1e-9)));
        // Proportions survive the renormalization.
        assert!(s.period(1).approx_eq(s.period(2), secs(1e-12)));
        assert!(s.period(1) > s.period(0));
    }

    #[test]
    fn optimal_policy_is_an_episode_policy() {
        let pol = CompressedOptimalPolicy::new(Arc::new(table(16, 100.0, 2)));
        let opp = Opportunity::from_units(80.0, 1.0, 2);
        let s = pol.episode(&opp).unwrap();
        assert!(s.total().approx_eq(secs(80.0), secs(1e-9)));
        assert!(pol.name().contains("optimal-dp"));
    }

    #[test]
    fn value_runs_expand_to_the_exact_staircase() {
        // The streaming descriptors must reproduce value_ticks bit for
        // bit at every covered tick, for every window placement.
        let t = table(8, 120.0, 3);
        let max = t.max_ticks();
        for p in 0..=3u32 {
            for (first, count) in [
                (0, 1),
                (0, max),
                (0, max + 1),
                (1, max),
                (max, 1),
                (7, 200),
                (max / 2, max / 3),
            ] {
                let got = expand_value_runs(&t.value_runs(p, first, count));
                assert_eq!(got.len() as i64, count, "p={p} first={first}");
                for (j, &v) in got.iter().enumerate() {
                    let l = first + j as i64;
                    assert_eq!(v, t.value_ticks(p, l), "p={p} tick={l}");
                }
            }
        }
        // Compression: one descriptor per breakpoint in range (the
        // O(√(QL) + pQ) flat count), not one per tick.
        let descriptors = t.value_runs(3, 0, max + 1).len();
        assert!(
            descriptors <= t.breakpoints(3) * 2 + 2,
            "{descriptors} runs vs {} breakpoints",
            t.breakpoints(3)
        );
        assert!(
            (descriptors as i64) * 2 < max,
            "{descriptors} runs for {max} ticks — no compression win"
        );
    }
}
