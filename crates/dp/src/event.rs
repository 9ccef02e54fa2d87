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
//! ## One flat list per level
//!
//! Each level is kept as one sorted `Vec<i64>` of its flat ticks past
//! the zero edge (`BuildRow`). The builder's reads of the row under
//! construction, and the next level's reads of the completed row, go
//! through a forward-only `FlatCursor`: a single index, the number of
//! flats `≤` the latest query position, from which rank, membership
//! and next-flat are each one slice read, `O(1)`
//! amortized. No read ever decodes an arithmetic run. Each completed
//! level feeds the second-order compressor of [`crate::run`] as the same
//! slice; the compressed row is what the table stores.
//!
//! ## Cost
//!
//! All row reads go through cursors that only move forward (`s*` and the
//! sweep window are monotone in `l`), so each event costs `O(1)`
//! amortized. Event counts are `O(k)` flat-driven events plus
//! `O(L / t̄)` lockstep windows (`t̄` = the current optimal period length,
//! which bounds how far reads may run ahead of the determined prefix) —
//! `O(p·k)` overall for all levels, with `k = O(√(QL) + pQ) ≪ L`. A span
//! pushes the flats it cuts one by one, so emitting a level is `O(k)` as
//! well — the same order as the compressor's single pass over the
//! level's flats. No span measured has cut more than one flat (tables
//! from `Q = 1` to `Q = 2^20`, up to `10^9` ticks): spans skip slope-1
//! growth, not flat stretches, so a level holds at most two flats per
//! event and its list stays within the event count's order at any `Q`
//! (`levels_match_tick_walk_exactly` pins that bound). A `(Q=32, p=16,
//! L=10^9)` table builds in under two seconds where the tick walk would
//! take minutes and a dense arena would need tens of gigabytes.
//!
//! ## Event kinds
//!
//! The builder counts its events by kind, in the order of
//! [`EVENT_KINDS`]: the zero-prefix step, stall spans, lockstep spans,
//! cap spans, the two `O(1)` flat-onset transitions (own-row flat and
//! previous-level flat) and the single-tick fallback. The counts sum to
//! the level's event total.
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
use crate::run::RunRow;

/// Sentinel for "no flat tick ahead" — large enough to never constrain a
/// span, small enough to never overflow the arithmetic around it.
const NO_FLAT: i64 = i64::MAX / 4;

/// Number of event kinds the event-driven builder distinguishes.
pub const EVENT_KIND_COUNT: usize = 7;

/// The builder's event kinds, in counter order (see the module docs).
pub const EVENT_KINDS: [&str; EVENT_KIND_COUNT] = [
    "zero_prefix",
    "stall",
    "lockstep",
    "cap",
    "own_flat_onset",
    "prev_flat_onset",
    "single_tick",
];

/// Events of one build, per kind, indexed like [`EVENT_KINDS`].
pub type EventCounts = [u64; EVENT_KIND_COUNT];

const ZERO_PREFIX: usize = 0;
const STALL: usize = 1;
const LOCKSTEP: usize = 2;
const CAP: usize = 3;
const OWN_FLAT_ONSET: usize = 4;
const PREV_FLAT_ONSET: usize = 5;
const SINGLE_TICK: usize = 6;

/// One level as its sorted flat ticks past its zero-region prefix: the
/// row under construction, and — once complete — the next level's
/// input, read through a [`FlatCursor`]. [`Self::compress`] turns a
/// complete level into its stored form.
#[derive(Debug)]
pub(crate) struct BuildRow {
    /// Largest `l` with `W(l) = 0` so far.
    pub(crate) zero_until: i64,
    /// Flat ticks past `zero_until`, strictly increasing.
    pub(crate) flats: Vec<i64>,
}

impl BuildRow {
    /// A row with no flat ticks past the zero region — level 0.
    pub(crate) fn empty(zero_until: i64) -> BuildRow {
        BuildRow {
            zero_until,
            flats: Vec::new(),
        }
    }

    /// The level's stored form: its flat ticks fed straight into the
    /// second-order compressor.
    pub(crate) fn compress(&self) -> CompressedRow {
        CompressedRow {
            zero_until: self.zero_until,
            runs: RunRow::compress(&self.flats),
        }
    }
}

/// Forward-only reader over a sorted flat-tick slice: rank (`#flats ≤
/// pos`), flat-membership and next-flat queries in `O(1)` amortized, for
/// query positions that never decrease (the sweep residual `s` is
/// monotone in `l`).
#[derive(Clone, Copy, Debug, Default)]
struct FlatCursor {
    /// `#flats ≤` the latest query position.
    idx: usize,
}

impl FlatCursor {
    /// `#flats ≤ pos`. Also positions the cursor for the other queries at
    /// the same `pos`.
    #[inline]
    fn rank(&mut self, flats: &[i64], pos: i64) -> i64 {
        while self.idx < flats.len() && flats[self.idx] <= pos {
            self.idx += 1;
        }
        self.idx as i64
    }

    /// Whether `pos` itself is a flat tick. Only valid immediately after
    /// [`Self::rank`] was called with the same `pos`.
    #[inline]
    fn is_flat(&self, flats: &[i64], pos: i64) -> bool {
        self.idx > 0 && flats[self.idx - 1] == pos
    }

    /// The smallest flat tick past the last [`Self::rank`] position, or
    /// [`NO_FLAT`].
    #[inline]
    fn next_after(&self, flats: &[i64]) -> i64 {
        flats.get(self.idx).copied().unwrap_or(NO_FLAT)
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
/// the row under construction. Kept out of line so the event loop's span
/// and onset paths stay compact: inlined, the `(Q=16, p=6, 15k ticks)`
/// solve ran ~4% slower on a 2-vCPU x86 box.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn single_step(
    prev: &BuildRow,
    pc: &mut FlatCursor,
    cur: &mut BuildRow,
    l: &mut i64,
    last: &mut i64,
    s: &mut i64,
    q: i64,
    rc: &mut FlatCursor,
) {
    let pz = prev.zero_until;
    let lt = *l + 1;
    let mut best = *last;
    if lt > q {
        let tau = lt - q;
        let s_cap = tau - 1;
        let mut c1 = rc.rank(&cur.flats, *s + 1);
        let mut p1 = pc.rank(&prev.flats, *s + 1);
        loop {
            if *s >= s_cap {
                break;
            }
            let h = (*s + 1) + val(pz, p1, *s + 1) - val(cur.zero_until, c1, *s + 1);
            if h <= tau {
                *s += 1;
                c1 = rc.rank(&cur.flats, *s + 1);
                p1 = pc.rank(&prev.flats, *s + 1);
            } else {
                break;
            }
        }
        let sf = *s;
        let rp0 = p1 - i64::from(pc.is_flat(&prev.flats, sf + 1));
        let rc0 = c1 - i64::from(rc.is_flat(&cur.flats, sf + 1));
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
/// while `c + j ≤ last`, pushed one by one, then pure slope-1 growth
/// skipped in `O(1)`.
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
            cur.flats.extend(*l + 1..*l + 1 + j_cut);
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
        cur.flats.push(*l + 1);
    }
    *last = best;
    *l += 1;
}

/// Builds level `p` from the completed level `p−1` by event jumps.
/// Returns the level's flat ticks and the events (loop iterations —
/// span applications, flat onsets and boundary single-steps) taken, per
/// kind.
pub(crate) fn build_level_events(prev: &BuildRow, n: i64, q: i64) -> (BuildRow, EventCounts) {
    let pz = prev.zero_until;
    // A level's flat count changes slowly with p, so sizing the row like
    // level p−1 leaves it about one doubling, not a dozen, from its end.
    let mut cur = BuildRow {
        zero_until: 0,
        flats: Vec::with_capacity(prev.flats.len()),
    };
    let mut l: i64 = 0; // last computed tick
    let mut last: i64 = 0; // W^(p)(l)
    let mut s: i64 = 0; // crossing residual s*, nondecreasing in l
    let mut events: EventCounts = [0; EVENT_KIND_COUNT];
    // Forward-only cursors at position s+1 over the flats of the
    // previous level (`pc`) and of the row under construction (`rc`).
    // `s` never retreats, so each cursor passes each flat once per level.
    let mut pc = FlatCursor::default();
    let mut rc = FlatCursor::default();

    // Ticks 1..=Q carry no productive period and a zero wait-chain: the
    // whole prefix is zero region, in one event.
    if n > 0 {
        let z = q.min(n);
        cur.zero_until = z;
        l = z;
        events[ZERO_PREFIX] += 1;
    }

    while l < n {
        let prank1 = pc.rank(&prev.flats, s + 1);
        let crank1 = rc.rank(&cur.flats, s + 1);

        // The span formulas difference the rows across the sweep window;
        // inside either zero region the slopes differ — single-step until
        // the frontier clears both prefixes (O(p·Q) ticks per level).
        let cz = cur.zero_until;
        if s > pz && s + 1 > cz {
            let tau = l - q; // threshold for the already-processed tick l
            let p1 = val(pz, prank1, s + 1);
            let c1 = val(cz, crank1, s + 1);
            let d = (s + 1) + p1 - c1 - tau;
            let s1_is_pflat = pc.is_flat(&prev.flats, s + 1);
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
                    events[STALL] += 1;
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
                    pc.next_after(&prev.flats)
                };
                let nc = rc.next_after(&cur.flats);
                if d >= 1 || s == s_cap {
                    // Genericity horizons: no flat of either row may
                    // enter the sweep window (s, s+Δ+1], and reads of the
                    // row under construction must stay inside the prefix
                    // determined before this span (positions ≤ l).
                    let delta = (np - s - 2).min(nc - s - 2).min(l - s - 1).min(n - l);
                    // At the cap the period is pinned to Q+1 ticks and
                    // the only candidate is the interrupted branch A.
                    let (c, kind) = if s == s_cap {
                        (a0, CAP)
                    } else {
                        (a0.max(tau - (s + 1) + c1), LOCKSTEP)
                    };
                    if delta >= 1 && c <= last {
                        emit_span(&mut cur, &mut l, &mut last, delta, c);
                        s += delta;
                        events[kind] += 1;
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
                        events[OWN_FLAT_ONSET] += 1;
                        continue;
                    }
                    if np == s + 2 && nc > s + 3 && s + 2 < tau {
                        // The window edge moves onto a flat of the
                        // completed level: h is locally flat there, so
                        // the frontier passes s+1 and s+2 in one tick
                        // (h(s+2) = h(s+1) = τ+1). A = prev(s+2) =
                        // prev(s+1); B reads the generic cur(s+3) =
                        // cur(s+1) + 2.
                        //
                        // Exact whether or not s+3 is a prev flat too.
                        // Write τ' = τ+1, A(x) = prev(x) (nondecreasing)
                        // and B(x) = τ' − x − 1 + cur(x+1)
                        // (nonincreasing, cur being 1-Lipschitz); the
                        // sweep passes x+1 iff h(x+1) ≤ τ' iff
                        // A(x+1) ≤ B(x). If s+3 is not a prev flat,
                        // h(s+3) = τ'+1, the frontier stops at s+2 and
                        // the tick is max(last, A(s+2), B(s+2)) as
                        // written. If s+3 is one, h(s+3) = τ', so
                        // A(s+3) = B(s+2) = b = p1 and the frontier
                        // stops at some sf ≥ s+3, where
                        // p1 = A(s+3) ≤ A(sf) ≤ B(sf−1) ≤ B(s+2) = p1
                        // and the left candidate is at most B(sf) ≤ p1:
                        // the tick is max(last, p1), the same value.
                        // Then s+2 is behind the frontier, but h(s+3) =
                        // τ' makes the next iteration's d = 0 with
                        // s+2 < s_cap, which only a single exact step
                        // accepts; its sweep passes s+3..=sf again and
                        // ends where the tick walk does.
                        let b = (tau + 1) - (s + 3) + (c1 + 2);
                        let best = last.max(p1.max(b));
                        emit_tick(&mut cur, &mut l, &mut last, best);
                        s += 2;
                        events[PREV_FLAT_ONSET] += 1;
                        continue;
                    }
                }
            }
        }
        // No provable span — take one exact tick of the frontier sweep.
        single_step(
            prev, &mut pc, &mut cur, &mut l, &mut last, &mut s, q, &mut rc,
        );
        events[SINGLE_TICK] += 1;
    }

    (cur, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::walk_level;

    /// The event builder against the tick-walking builder, level by
    /// level, across resolutions that exercise stalls, cap pinning and
    /// flat runs, including a coarse `Q` where periods are long. Each
    /// level also keeps its flat list within two flats per event, the
    /// bound that keeps a level's memory in the event count's order.
    /// (The randomized equivalence suite lives in
    /// `tests/equivalence_props.rs`.)
    #[test]
    fn levels_match_tick_walk_exactly() {
        for (q, n, p_max) in [
            (1i64, 400i64, 4u32),
            (4, 1000, 3),
            (16, 3000, 5),
            (7, 0, 2),
            (1024, 60_000, 3),
        ] {
            let mut prev = BuildRow::empty(q.min(n));
            let mut prev_row = prev.compress();
            for p in 1..=p_max {
                let (zero_until, flats) = walk_level(&prev_row, n, q);
                let (level, kinds) = build_level_events(&prev, n, q);
                let events: u64 = kinds.iter().sum();
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
                assert!(
                    level.flats.len() as u64 <= 2 * events,
                    "{} flats from {events} events at q={q}, n={n}, p={p}",
                    level.flats.len()
                );
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
        let (level, kinds) = build_level_events(&BuildRow::empty(q), n, q);
        let events: u64 = kinds.iter().sum();
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

    /// FlatCursor rank/membership/next queries against a brute-force
    /// reference over irregular flats: isolated ticks, runs of
    /// consecutive ticks and the end of the slice.
    #[test]
    fn flat_cursor_matches_bruteforce() {
        let flats: Vec<i64> = [5, 6, 7, 9]
            .into_iter()
            .chain(20..30)
            .chain([31, 32])
            .collect();
        let mut cursor = FlatCursor::default();
        for pos in 0..40i64 {
            let rank = flats.iter().filter(|&&f| f <= pos).count() as i64;
            assert_eq!(cursor.rank(&flats, pos), rank, "rank at {pos}");
            assert_eq!(
                cursor.is_flat(&flats, pos),
                flats.contains(&pos),
                "membership at {pos}"
            );
            let next = flats.iter().copied().find(|&f| f > pos).unwrap_or(NO_FLAT);
            assert_eq!(cursor.next_after(&flats), next, "next after {pos}");
        }
    }
}
