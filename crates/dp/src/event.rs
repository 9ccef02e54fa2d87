//! Event-driven (run-skipping) construction of compressed `W^(p)` rows.
//!
//! ## Why ticks can be skipped
//!
//! The tick-walking reference build ([`crate::compressed`]) spends
//! `O(1)` per lifespan tick, which caps practical
//! lifespans near `10^6`–`10^7` ticks. But between breakpoints *every*
//! quantity the frontier-sweep recursion touches advances linearly in
//! `l`:
//!
//! * the threshold `τ = l − Q` and the frontier cap `s_cap = τ − 1` gain
//!   one tick per tick;
//! * the crossing function `h(s) = s + W^(p−1)(s) − W^(p)(s)` has slope
//!   exactly 1 in `s` wherever neither row has a flat tick, so the
//!   crossing residual `s*` advances in lockstep with `τ`;
//! * both candidate branches — the interrupted value `A = W^(p−1)(s*)`
//!   and the completed value `B = (τ − s* − 1) + W^(p)(s* + 1)` — are
//!   then linear too, and the output row is their running maximum.
//!
//! The builder therefore advances `l` **event to event** instead of tick
//! to tick. An *event* is any tick where the linear picture can change:
//!
//! * **stall end** — `h(s*+1)` exceeds `τ` by `d ≥ 2`, so the frontier
//!   sits still for exactly `d − 1` ticks while `B` climbs; the whole
//!   stall is applied at once;
//! * **flat-tick onset** — a flat tick of `W^(p−1)` or of the row under
//!   construction enters the sweep window, changing `h`'s local slope;
//! * **branch/regime switch** — the frontier reaches the cap `s_cap`
//!   (periods pinned at `Q+1` ticks) or leaves it, or the candidate
//!   crosses the running maximum (the row switches between banking and
//!   losing ticks);
//! * **zero-region edges** of either row.
//!
//! Between consecutive events the output is `max(last, C + j)` for a
//! span-constant `C`, so the span contributes either a run of slope-1
//! ticks (skipped in `O(1)`) or a run of flat ticks. Boundary ticks
//! where no linear span applies fall back to an exact single-tick
//! transcription of the frontier sweep.
//!
//! ## Emitting runs, not flat lists
//!
//! The row under construction is kept as **run-length-encoded flat
//! runs** (`FlatRun`): a stall of `d` ticks contributes one run
//! descriptor in `O(1)` instead of `d` vector pushes, and the builder's
//! own reads of the partial row go through a forward-only `BlockCursor`
//! (rank, membership, next-flat and second-next-flat queries, each
//! `O(1)` amortized). A completed level keeps those runs: the next
//! level reads its previous level through a second `BlockCursor` over
//! them, so no read ever decodes an arithmetic run. Each level's runs
//! also feed straight into the second-order compressor of
//! [`crate::run`] **without ever materializing a per-breakpoint list**;
//! the compressed row is what the table stores.
//!
//! ## Cost
//!
//! All row reads go through cursors that only move forward (`s*` and the
//! sweep window are monotone in `l`), so each event costs `O(1)`
//! amortized — the `log k` is the rank re-synchronization a cursor pays
//! when a span jumps it. Event counts are `O(k)` flat-driven events plus
//! `O(L / t̄)` lockstep windows (`t̄` = the current optimal period length,
//! which bounds how far reads may run ahead of the determined prefix) —
//! `O(p·k log k)` overall for all levels, with `k = O(√(QL) + pQ) ≪ L`.
//! A `(Q=32, p=16, L=10^9)` table builds in under a second where the
//! tick walk would take minutes and a dense arena would need tens of
//! gigabytes.
//!
//! ## Exactness
//!
//! Every span formula is derived from (and checked against) invariants
//! of the frontier sweep: `h(s*) ≤ τ` always holds, so the crossing value
//! is `A`; the stopped frontier has `h(s*+1) > τ`, so the left-neighbour
//! candidate is `B`; and both candidates were already `≤` the running
//! maximum when the span began. Whenever a precondition cannot be
//! verified the builder takes a single exact tick instead — so the
//! output is *bit-identical* to the tick-walking build by construction,
//! which `tests/equivalence_props.rs` pins down over randomized setups.

use crate::compressed::CompressedRow;
use crate::run::{FlatRun, RunRow};

/// Sentinel for "no flat tick ahead" — large enough to never constrain a
/// span, small enough to never overflow the arithmetic around it.
const NO_FLAT: i64 = i64::MAX / 4;

/// One level as run-length-encoded flat ticks past its zero-region
/// prefix: the row under construction, and — once complete — the next
/// level's input, read through a `BlockCursor`. [`Self::compress`] turns
/// a complete level into its stored form.
#[derive(Debug, Default)]
pub(crate) struct BuildRow {
    /// Largest `l` with `W(l) = 0` so far.
    pub(crate) zero_until: i64,
    /// Flat runs, sorted, disjoint, never adjacent (adjacent appends are
    /// merged on push).
    pub(crate) runs: Vec<FlatRun>,
    /// Total flat ticks across `runs`.
    count: i64,
}

impl BuildRow {
    /// A row with no flat ticks past the zero region — level 0.
    pub(crate) fn empty(zero_until: i64) -> BuildRow {
        BuildRow {
            zero_until,
            ..BuildRow::default()
        }
    }

    /// The row whose flat ticks past `zero_until` are `ticks` (strictly
    /// increasing): how a tick-walked level reaches the compressor.
    pub(crate) fn from_ticks(zero_until: i64, ticks: &[i64]) -> BuildRow {
        let mut row = BuildRow::empty(zero_until);
        for &t in ticks {
            row.push_flat(t);
        }
        row
    }

    /// The level's stored form: its flat runs fed straight into the
    /// second-order compressor, with no per-flat list in between.
    pub(crate) fn compress(&self) -> CompressedRow {
        CompressedRow {
            zero_until: self.zero_until,
            runs: RunRow::compress(&self.runs),
        }
    }

    /// Appends the flat run `start..start+len`, merging with the last run
    /// when contiguous. Positions only ever grow, so append-or-merge is
    /// complete.
    #[inline]
    fn push_run(&mut self, start: i64, len: i64) {
        debug_assert!(len >= 1);
        match self.runs.last_mut() {
            Some(r) if r.start + r.len == start => r.len += len,
            _ => self.runs.push(FlatRun { start, len }),
        }
        self.count += len;
    }

    /// Appends a single flat tick.
    #[inline]
    fn push_flat(&mut self, pos: i64) {
        self.push_run(pos, 1);
    }
}

/// Forward-only reader over a [`BuildRow`]'s runs: rank (`#flats ≤ pos`),
/// flat-membership and next-flat queries in `O(1)` amortized, for query
/// positions that never decrease (the sweep residual `s` is monotone in
/// `l`).
#[derive(Clone, Copy, Debug, Default)]
struct BlockCursor {
    /// First run whose last flat is ≥ the latest query position.
    idx: usize,
    /// Total flats in `runs[..idx]`.
    before: i64,
}

impl BlockCursor {
    /// `#flats ≤ pos`. Also positions the cursor for the other queries at
    /// the same `pos`.
    #[inline]
    fn rank(&mut self, runs: &[FlatRun], pos: i64) -> i64 {
        while self.idx < runs.len() && runs[self.idx].start + runs[self.idx].len - 1 < pos {
            self.before += runs[self.idx].len;
            self.idx += 1;
        }
        match runs.get(self.idx) {
            Some(r) if r.start <= pos => self.before + (pos - r.start + 1),
            _ => self.before,
        }
    }

    /// Whether `pos` itself is a flat tick. Only valid immediately after
    /// [`Self::rank`] was called with the same `pos`.
    #[inline]
    fn is_flat(&self, runs: &[FlatRun], pos: i64) -> bool {
        matches!(runs.get(self.idx), Some(r) if r.start <= pos)
    }

    /// The smallest flat tick strictly greater than `pos` and the index
    /// of its run, or `None`. Only valid immediately after
    /// [`Self::rank`] was called with the same `pos`.
    #[inline]
    fn first_after(&self, runs: &[FlatRun], pos: i64) -> Option<(i64, usize)> {
        match runs.get(self.idx) {
            Some(r) if r.start > pos => Some((r.start, self.idx)),
            Some(r) if r.start + r.len - 1 > pos => Some((pos + 1, self.idx)),
            Some(_) => runs.get(self.idx + 1).map(|r2| (r2.start, self.idx + 1)),
            None => None,
        }
    }

    /// The smallest flat tick strictly greater than `pos`, or [`NO_FLAT`].
    /// Only valid immediately after [`Self::rank`] was called with the
    /// same `pos`.
    #[inline]
    fn next_after(&self, runs: &[FlatRun], pos: i64) -> i64 {
        self.first_after(runs, pos).map_or(NO_FLAT, |(f, _)| f)
    }

    /// The second-smallest flat tick strictly greater than `pos`, or
    /// [`NO_FLAT`]. Only valid immediately after [`Self::rank`] was called
    /// with the same `pos`.
    #[inline]
    fn next2_after(&self, runs: &[FlatRun], pos: i64) -> i64 {
        match self.first_after(runs, pos) {
            Some((f, i)) if f + 1 < runs[i].start + runs[i].len => f + 1,
            Some((_, i)) => runs.get(i + 1).map_or(NO_FLAT, |r| r.start),
            None => NO_FLAT,
        }
    }
}

/// Row value at `x` given `rank_le` = the number of flat ticks `≤ x`:
/// the staircase banks every tick past the zero region except the flats.
#[inline(always)]
fn val(zero: i64, rank_le: i64, x: i64) -> i64 {
    if x <= zero {
        0
    } else {
        (x - zero) - rank_le
    }
}

/// One exact tick of the monotone frontier sweep, transcribed from the
/// tick-walking build (`compressed::walk_level`) onto cursor reads. Used for every
/// tick where no linear span is provable: zero-region edges, flat
/// crossings, cap transitions. `pc` is the forward-only cursor into the
/// completed previous level `prev`; `rc` serves the same queries against
/// the row under construction.
#[allow(clippy::too_many_arguments)]
fn single_step(
    prev: &BuildRow,
    pc: &mut BlockCursor,
    cur: &mut BuildRow,
    l: &mut i64,
    last: &mut i64,
    s: &mut i64,
    q: i64,
    rc: &mut BlockCursor,
) {
    let pz = prev.zero_until;
    let lt = *l + 1;
    let mut best = *last;
    if lt > q {
        let tau = lt - q;
        let s_cap = tau - 1;
        let mut c1 = rc.rank(&cur.runs, *s + 1);
        let mut p1 = pc.rank(&prev.runs, *s + 1);
        loop {
            if *s >= s_cap {
                break;
            }
            let h = (*s + 1) + val(pz, p1, *s + 1) - val(cur.zero_until, c1, *s + 1);
            if h <= tau {
                *s += 1;
                c1 = rc.rank(&cur.runs, *s + 1);
                p1 = pc.rank(&prev.runs, *s + 1);
            } else {
                break;
            }
        }
        let sf = *s;
        let rp0 = p1 - i64::from(pc.is_flat(&prev.runs, sf + 1));
        let rc0 = c1 - i64::from(rc.is_flat(&cur.runs, sf + 1));
        let cz = cur.zero_until;
        let t_star = lt - sf;
        let v_star = val(pz, rp0, sf).min((t_star - q) + val(cz, rc0, sf));
        let cand = if t_star > q + 1 {
            let v_left = val(pz, p1, sf + 1).min((t_star - 1 - q) + val(cz, c1, sf + 1));
            v_star.max(v_left)
        } else {
            v_star
        };
        if cand >= best {
            best = cand;
        }
    }
    emit_tick(cur, l, last, best);
}

/// Applies one linear span of `delta` ticks whose output is
/// `out(l + j) = max(last, c + j)`: a (possibly empty) run of flat ticks
/// while `c + j ≤ last`, then pure slope-1 growth skipped in `O(1)`.
/// Requires `c ≤ last` (checked by the caller against the sweep
/// invariants).
#[inline]
fn emit_span(cur: &mut BuildRow, l: &mut i64, last: &mut i64, delta: i64, c: i64) {
    debug_assert!(c <= *last, "span candidate {c} above running max {last}");
    let j_cut = (*last - c).min(delta);
    if j_cut > 0 {
        if *last == 0 {
            // Still inside the zero region: extend it, don't store flats.
            cur.zero_until = *l + j_cut;
        } else {
            cur.push_run(*l + 1, j_cut);
        }
    }
    *last = (*last).max(c + delta);
    *l += delta;
}

/// Records one computed tick `l+1` with value `best` — the shared tail
/// of [`single_step`] and the O(1) flat-crossing transitions.
#[inline(always)]
fn emit_tick(cur: &mut BuildRow, l: &mut i64, last: &mut i64, best: i64) {
    let inc = best - *last;
    debug_assert!(
        inc == 0 || inc == 1,
        "row not monotone 1-Lipschitz at l={}: {} -> {best}",
        *l + 1,
        *last
    );
    if best == 0 {
        cur.zero_until = *l + 1;
    } else if inc == 0 {
        cur.push_flat(*l + 1);
    }
    *last = best;
    *l += 1;
}

/// Builds level `p` from the completed level `p−1` by event jumps.
/// Returns the level's flat runs and the number of events (loop
/// iterations — span applications plus boundary single-steps) taken.
pub(crate) fn build_level_events(prev: &BuildRow, n: i64, q: i64) -> (BuildRow, u64) {
    let pz = prev.zero_until;
    let mut cur = BuildRow::default();
    // Level p's loss exceeds level p−1's by roughly one period's worth,
    // but runs compress consecutive flats; a modest seed avoids the first
    // few doubling-and-copy rounds without over-reserving.
    cur.runs.reserve(prev.count as usize / 8 + 32);
    let mut l: i64 = 0; // last computed tick
    let mut last: i64 = 0; // W^(p)(l)
    let mut s: i64 = 0; // crossing residual s*, nondecreasing in l
    let mut events: u64 = 0;
    // Forward-only cursors at position s+1 over the flat runs of the
    // previous level (`pc`) and of the row under construction (`rc`).
    // `s` never retreats, so each cursor crosses each run once per level.
    let mut pc = BlockCursor::default();
    let mut rc = BlockCursor::default();

    // Ticks 1..=Q carry no productive period and a zero wait-chain: the
    // whole prefix is zero region, in one event.
    if n > 0 {
        let z = q.min(n);
        cur.zero_until = z;
        l = z;
        events += 1;
    }

    while l < n {
        events += 1;
        let prank1 = pc.rank(&prev.runs, s + 1);
        let crank1 = rc.rank(&cur.runs, s + 1);

        // The span formulas difference the rows across the sweep window;
        // inside either zero region the slopes differ — single-step until
        // the frontier clears both prefixes (O(p·Q) ticks per level).
        let cz = cur.zero_until;
        if s > pz && s + 1 > cz {
            let tau = l - q; // threshold for the already-processed tick l
            let p1 = val(pz, prank1, s + 1);
            let c1 = val(cz, crank1, s + 1);
            let d = (s + 1) + p1 - c1 - tau;
            let s1_is_pflat = pc.is_flat(&prev.runs, s + 1);
            let a0 = val(pz, prank1 - i64::from(s1_is_pflat), s);

            if d >= 2 {
                // Stall: h(s*+1) > τ for the next d−1 ticks, so the
                // frontier sits still; A = prev(s*) is fixed and ≤ last
                // (it was a losing candidate at tick l), and only B
                // climbs.
                let b0 = tau - (s + 1) + c1;
                if a0 <= last && b0 <= last {
                    let delta = (d - 1).min(n - l);
                    emit_span(&mut cur, &mut l, &mut last, delta, b0);
                    continue;
                }
            } else {
                // Advancing: the frontier moves one residual per tick,
                // either in lockstep with the crossing (d == 1) or pinned
                // to the cap s_cap = τ − 1 (d ≤ 0, periods of exactly Q+1
                // ticks).
                let s_cap = tau - 1;
                let np = if s1_is_pflat {
                    s + 1
                } else {
                    pc.next_after(&prev.runs, s + 1)
                };
                let nc = rc.next_after(&cur.runs, s + 1);
                if d >= 1 || s == s_cap {
                    // Genericity horizons: no flat of either row may
                    // enter the sweep window (s, s+Δ+1], and reads of the
                    // row under construction must stay inside the prefix
                    // determined before this span (positions ≤ l).
                    let delta = (np - s - 2).min(nc - s - 2).min(l - s - 1).min(n - l);
                    let c = if s == s_cap {
                        // At the cap the period is pinned to Q+1 ticks
                        // and the only candidate is the interrupted
                        // branch A.
                        a0
                    } else {
                        a0.max(tau - (s + 1) + c1)
                    };
                    if delta >= 1 && c <= last {
                        emit_span(&mut cur, &mut l, &mut last, delta, c);
                        s += delta;
                        continue;
                    }
                }
                // Flat-tick onset, resolved in O(1). Both transitions are
                // one exact tick of the frontier sweep specialized to an
                // isolated flat entering the window from lockstep
                // (d == 1, so h(s*+1) = τ+1 and the frontier advances):
                if d == 1 && s < s_cap {
                    if nc == s + 2 && np > s + 2 {
                        // The window edge moves onto a flat of the row
                        // under construction: h jumps by 2 there, so the
                        // frontier advances exactly once and a stall of
                        // exactly one tick follows. cur(s+2) = cur(s+1),
                        // prev(s+1) generic: A = prev(s+1),
                        // B = (τ+1) − (s+2) + cur(s+2), and the stall
                        // tick replays the same crossing with B one
                        // higher — both ticks resolve in this one event.
                        let b = (tau + 1) - (s + 2) + c1;
                        let best = last.max(p1.max(b));
                        emit_tick(&mut cur, &mut l, &mut last, best);
                        if l < n {
                            let best2 = best.max(b + 1);
                            emit_tick(&mut cur, &mut l, &mut last, best2);
                        }
                        s += 1;
                        continue;
                    }
                    // With np == s+2 the second prev flat past s+1 is the
                    // one after s+2; read it only then.
                    if np == s + 2
                        && pc.next2_after(&prev.runs, s + 1) != s + 3
                        && nc > s + 3
                        && s + 2 < tau
                    {
                        // The window edge moves onto a flat of the
                        // completed level: h is locally flat there, so
                        // the frontier advances exactly twice in one tick
                        // (h(s+2) = h(s+1) = τ+1, h(s+3) = τ+2).
                        // A = prev(s+2) = prev(s+1); B reads the generic
                        // cur(s+3) = cur(s+1) + 2.
                        let b = (tau + 1) - (s + 3) + (c1 + 2);
                        let best = last.max(p1.max(b));
                        emit_tick(&mut cur, &mut l, &mut last, best);
                        s += 2;
                        continue;
                    }
                }
            }
        }
        // No provable span — take one exact tick of the frontier sweep.
        single_step(
            prev, &mut pc, &mut cur, &mut l, &mut last, &mut s, q, &mut rc,
        );
    }

    (cur, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::walk_level;

    /// The event builder against the tick-walking builder, level by
    /// level, across resolutions that exercise stalls, cap pinning and
    /// flat runs. (The randomized equivalence suite lives in
    /// `tests/equivalence_props.rs`.)
    #[test]
    fn levels_match_tick_walk_exactly() {
        for (q, n, p_max) in [(1i64, 400i64, 4u32), (4, 1000, 3), (16, 3000, 5), (7, 0, 2)] {
            let mut prev = BuildRow::empty(q.min(n));
            let mut prev_row = prev.compress();
            for p in 1..=p_max {
                let (zero_until, flats) = walk_level(&prev_row, n, q);
                let (level, events) = build_level_events(&prev, n, q);
                let jumped = level.compress();
                assert_eq!(
                    zero_until, jumped.zero_until,
                    "zero region differs at q={q}, n={n}, p={p}"
                );
                assert_eq!(
                    flats,
                    jumped.runs.iter().collect::<Vec<_>>(),
                    "flat ticks differ at q={q}, n={n}, p={p}"
                );
                if n >= 1000 {
                    assert!(
                        events < n as u64,
                        "event build took {events} events for {n} ticks — not skipping"
                    );
                }
                prev = level;
                prev_row = jumped;
            }
        }
    }

    /// Deep lifespans build in few events: the whole point of the
    /// run-skipping formulation.
    #[test]
    fn deep_lifespan_event_count_is_sublinear() {
        let n: i64 = 5_000_000;
        let q: i64 = 8;
        let (level, events) = build_level_events(&BuildRow::empty(q), n, q);
        let row = level.compress();
        // k = O(√(QL)): ~9e3 here. Events track k, not L.
        assert!(
            (events as i64) < n / 50,
            "{events} events for {n} ticks — skipping broke down"
        );
        // The flat count equals the total loss L − W(L) by construction;
        // confirm the far-end value closes the books.
        assert_eq!(row.value(n), n - row.zero_until - row.count());
        // The runs store the function in a fraction of the breakpoints.
        assert!(
            row.stored_breakpoints() * 4 < row.breakpoints(),
            "second-order compression inert: {} of {} descriptors",
            row.stored_breakpoints(),
            row.breakpoints()
        );
    }

    /// BlockCursor rank/membership/next/second-next queries against a brute-force
    /// reference over irregular runs.
    #[test]
    fn block_cursor_matches_bruteforce() {
        let runs = [
            FlatRun { start: 5, len: 3 },
            FlatRun { start: 9, len: 1 },
            FlatRun { start: 20, len: 10 },
            FlatRun { start: 31, len: 2 },
        ];
        let flats: Vec<i64> = runs.iter().flat_map(|r| r.start..r.start + r.len).collect();
        let mut cursor = BlockCursor::default();
        for pos in 0..40i64 {
            let rank = flats.iter().filter(|&&f| f <= pos).count() as i64;
            assert_eq!(cursor.rank(&runs, pos), rank, "rank at {pos}");
            assert_eq!(
                cursor.is_flat(&runs, pos),
                flats.contains(&pos),
                "membership at {pos}"
            );
            let mut after = flats.iter().copied().filter(|&f| f > pos);
            let next = after.next().unwrap_or(NO_FLAT);
            assert_eq!(cursor.next_after(&runs, pos), next, "next after {pos}");
            let next2 = after.next().unwrap_or(NO_FLAT);
            assert_eq!(cursor.next2_after(&runs, pos), next2, "second after {pos}");
        }
    }
}
