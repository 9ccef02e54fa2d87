//! Second-order (arithmetic-run) compression of breakpoint skeletons.
//!
//! ## Why skeletons compress again
//!
//! A row ([`crate::compressed`]) is determined by its flat ticks — `k = O(√(QL) + pQ)` positions instead of `L` values.
//! But those positions are themselves highly structured: the optimal
//! episode loses roughly one tick per period, so flats recur once per
//! period length, and the period length drifts only slowly across the
//! row. The gap sequence between consecutive flats is therefore
//! **near-arithmetic** — long stretches of near-constant difference with
//! a few ticks of jitter inherited from the previous level's own
//! skeleton (measured at the `(Q=32, p=16, L=10⁹)` acceptance point the
//! gaps wobble by ±3 around means that drift over thousands of flats).
//!
//! ## The representation
//!
//! A `RunRow` stores a level as a list of `ArithRun`s. Each run
//! covers `len` consecutive flats modeled by an arithmetic progression
//! with a **fixed-point common difference** (`step_fx`, in units of
//! `1/2¹⁶` tick — fractional mean gaps would otherwise force a break
//! every couple of flats just to absorb rounding):
//!
//! ```text
//! flat_j = start + (j · step_fx) >> 16 + res_j        j ∈ [0, len)
//! ```
//!
//! The per-flat residual `res_j ∈ [−127, 127]` records the jitter
//! exactly; an all-zero residual block is elided entirely (`res_off ==
//! NO_RES`), so genuinely arithmetic stretches cost 32 bytes total.
//! A run closes when the next flat's residual would overflow an `i8` —
//! i.e. run boundaries track *regime changes* of the row, not individual
//! breakpoints. The representation is **lossless**: every query is
//! answered from the exact reconstructed positions (the equivalence
//! suite pins the tables against a dense oracle).
//!
//! ## Cost
//!
//! At the acceptance point the run count is 2–3 orders of magnitude
//! below the flat count and memory drops to ≈1 byte per breakpoint
//! (descriptors are amortized across their runs, jittery flats pay one
//! residual byte, arithmetic flats pay nothing) — the `perf_dp` bench
//! reports both as `run_compressed_breakpoints` / `run_memory_bytes`.
//! Queries stay `O(log r + log len)` random-access and `O(1)` amortized
//! through the forward `RunCursor`, which is what the tick-walking
//! reference build reads the previous level through. The event-driven
//! build never decodes a compressed row: it reads the previous level as
//! the sorted flat-tick list it was built in, and compresses each level
//! only once it is complete.
//!
//! Both builds hand `RunRow::compress` a level as one sorted `&[i64]` of
//! flat ticks. It makes one pass over them: each run's anchor is the
//! next flat, its step comes from the flat `LOOKAHEAD − 1` places further
//! on, and the residual walk is a plain slice loop.

/// Fixed-point fraction bits of [`ArithRun::step_fx`].
const STEP_FRAC_BITS: u32 = 16;

/// `res_off` sentinel: the run's residuals are all zero and not stored.
/// Shared with [`crate::snapshot`], which maps it to a `has_residuals`
/// flag at the persistence boundary.
pub(crate) const NO_RES: u32 = u32::MAX;

/// Residual magnitude bound; one `i8` per jittery flat, with ±128
/// reserved so the overflow check is symmetric.
const RES_MAX: i64 = 127;

/// How many upcoming flats the compressor inspects to estimate a new
/// run's common difference.
const LOOKAHEAD: usize = 64;

/// Hard cap on flats per run, keeping `len · step_fx` far from `i64`
/// overflow for any step the estimator can produce.
const LEN_CAP: u32 = 1 << 20;

/// One arithmetic run: `len` flat ticks starting at tick `start` (where
/// the row takes the value implied by `rank_before`), advancing by the
/// fixed-point common difference `step_fx`, corrected per flat by an
/// optional `i8` residual.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ArithRun {
    /// First flat tick of the run (`flat_0 == start` exactly: the
    /// compressor anchors each run so `res_0 == 0`).
    pub(crate) start: i64,
    /// Common difference between modeled flats, in `1/2¹⁶` ticks.
    pub(crate) step_fx: i64,
    /// Number of flats the run covers.
    pub(crate) len: u32,
    /// Offset of the run's residual block in [`RunRow::res`], or
    /// [`NO_RES`] when every residual is zero.
    pub(crate) res_off: u32,
    /// Flats stored before this run — the run's start *value* in
    /// staircase terms: `W(start) = (start − zero_until) − rank_before − 1`.
    pub(crate) rank_before: i64,
}

impl ArithRun {
    /// Largest `j` (exclusive) such that `j · step_fx` stays well inside
    /// `i64` for this run's step.
    pub(crate) fn len_cap(step_fx: i64) -> u32 {
        let by_overflow = ((1i64 << 62) / step_fx.max(1)).min(LEN_CAP as i64);
        by_overflow.max(1) as u32
    }
}

/// A row's flat ticks as arithmetic runs plus a shared residual stream.
/// The second-order counterpart of the flat-tick list inside
/// [`crate::compressed::CompressedRow`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct RunRow {
    pub(crate) runs: Vec<ArithRun>,
    /// Residual bytes, one per flat of every run with `res_off != NO_RES`.
    pub(crate) res: Vec<i8>,
    /// Total flats across all runs.
    pub(crate) count: i64,
}

impl RunRow {
    /// The exact flat tick at index `j` of `run`.
    #[inline]
    pub(crate) fn flat_at(&self, run: &ArithRun, j: u32) -> i64 {
        let modeled = run.start + ((j as i64 * run.step_fx) >> STEP_FRAC_BITS);
        if run.res_off == NO_RES {
            modeled
        } else {
            modeled + self.res[(run.res_off + j) as usize] as i64
        }
    }

    /// The exact last flat tick of `run`.
    #[inline]
    pub(crate) fn last_of(&self, run: &ArithRun) -> i64 {
        self.flat_at(run, run.len - 1)
    }

    /// Total flats stored.
    #[inline]
    pub(crate) fn count(&self) -> i64 {
        self.count
    }

    /// Stored run descriptors — the second-order `k` the bench reports.
    #[inline]
    pub(crate) fn descriptors(&self) -> usize {
        self.runs.len()
    }

    /// Heap bytes held (descriptors + residual stream), by capacity so
    /// the accounting matches real footprint.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<ArithRun>() + self.res.capacity()
    }

    /// `#flats ≤ pos` by binary search: over runs first, then over the
    /// (strictly increasing) flats inside the located run.
    pub(crate) fn rank_le(&self, pos: i64) -> i64 {
        let i = self.runs.partition_point(|r| r.start <= pos);
        if i == 0 {
            return 0;
        }
        let run = &self.runs[i - 1];
        if self.last_of(run) <= pos {
            return run.rank_before + run.len as i64;
        }
        // Exact flats are strictly increasing inside a run, so the usual
        // partition point applies to the index space.
        let (mut lo, mut hi) = (0u32, run.len - 1);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.flat_at(run, mid) <= pos {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        // lo = largest index with flat ≤ pos, unless even flat_0 > pos.
        if self.flat_at(run, lo) <= pos {
            run.rank_before + lo as i64 + 1
        } else {
            run.rank_before
        }
    }

    /// Builds a [`RunRow`] from a level's flat ticks (strictly
    /// increasing). The compression is deterministic: a new run estimates
    /// its common difference from the endpoint slope of up to
    /// [`LOOKAHEAD`] upcoming flats, then extends greedily while each
    /// flat's residual fits an `i8`; residual blocks that end up all-zero
    /// are elided.
    pub(crate) fn compress(flats: &[i64]) -> RunRow {
        let mut row = RunRow::default();
        let mut i = 0;
        while i < flats.len() {
            let start = flats[i];
            let m = (flats.len() - i).min(LOOKAHEAD);
            let step_fx = if m >= 2 {
                let span = flats[i + m - 1] - start;
                ((span << STEP_FRAC_BITS) / (m as i64 - 1)).max(1)
            } else {
                1 << STEP_FRAC_BITS
            };
            let res_off = row.res.len() as u32;
            let mut all_zero = true;
            let end = flats.len().min(i + ArithRun::len_cap(step_fx) as usize);
            let mut len: u32 = 0;
            for &f in &flats[i..end] {
                let modeled = start + ((len as i64 * step_fx) >> STEP_FRAC_BITS);
                let r = f - modeled;
                if r.abs() > RES_MAX {
                    // This flat starts the next run.
                    break;
                }
                row.res.push(r as i8);
                all_zero &= r == 0;
                len += 1;
            }
            debug_assert!(len >= 1, "a run always covers its anchor flat");
            row.runs.push(ArithRun {
                start,
                step_fx,
                len,
                res_off: if all_zero { NO_RES } else { res_off },
                rank_before: row.count,
            });
            if all_zero {
                row.res.truncate(res_off as usize);
            }
            row.count += i64::from(len);
            i += len as usize;
        }
        row.runs.shrink_to_fit();
        row.res.shrink_to_fit();
        row
    }

    /// An iterator over all flat ticks, in increasing order.
    pub(crate) fn iter(&self) -> RunFlatIter<'_> {
        RunFlatIter {
            row: self,
            run: 0,
            j: 0,
        }
    }
}

/// Forward iterator over a [`RunRow`]'s exact flat ticks.
pub(crate) struct RunFlatIter<'a> {
    row: &'a RunRow,
    run: usize,
    j: u32,
}

impl Iterator for RunFlatIter<'_> {
    type Item = i64;

    fn next(&mut self) -> Option<i64> {
        let run = self.row.runs.get(self.run)?;
        let f = self.row.flat_at(run, self.j);
        self.j += 1;
        if self.j == run.len {
            self.run += 1;
            self.j = 0;
        }
        Some(f)
    }
}

impl RunFlatIter<'_> {
    /// Positions the iterator at the first flat strictly greater than
    /// `pos` and returns the rank `#flats ≤ pos`. `O(log r + log len)`.
    pub(crate) fn seek_after(&mut self, pos: i64) -> i64 {
        let rank = self.row.rank_le(pos);
        let i = self.row.runs.partition_point(|r| r.rank_before < rank);
        // i = first run with rank_before ≥ rank; the target flat (index
        // `rank`, 0-based) lives in run i−1 unless it starts a new run.
        if i > 0 && rank < self.row.runs[i - 1].rank_before + self.row.runs[i - 1].len as i64 {
            self.run = i - 1;
            self.j = (rank - self.row.runs[i - 1].rank_before) as u32;
        } else {
            self.run = i;
            self.j = 0;
        }
        rank
    }
}

/// Forward cursor over a [`RunRow`]: `#flats ≤ pos` in `O(1)` amortized
/// for query positions that move (nearly) monotonically forward;
/// tolerates the one-tick retreats the tick-walking sweep performs when
/// it interleaves `s` and `s+1`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RunCursor {
    /// Current run index (may equal `runs.len()` past the end).
    run: usize,
    /// Flats consumed inside the current run.
    j: u32,
}

impl RunCursor {
    /// `#flats ≤ pos`.
    #[inline]
    pub(crate) fn rank_le(&mut self, row: &RunRow, pos: i64) -> i64 {
        // Retreat (rare, bounded): step back while the last counted flat
        // exceeds pos.
        loop {
            if self.j > 0 {
                let run = &row.runs[self.run];
                if row.flat_at(run, self.j - 1) > pos {
                    self.j -= 1;
                    continue;
                }
            } else if self.run > 0 {
                let prev = &row.runs[self.run - 1];
                if row.last_of(prev) > pos {
                    self.run -= 1;
                    self.j = prev.len - 1;
                    continue;
                }
            }
            break;
        }
        // Advance while the next flat is ≤ pos.
        while self.run < row.runs.len() {
            let run = &row.runs[self.run];
            if self.j < run.len && row.flat_at(run, self.j) <= pos {
                self.j += 1;
                continue;
            }
            if self.j == run.len {
                match row.runs.get(self.run + 1) {
                    Some(next) if next.start <= pos => {
                        self.run += 1;
                        self.j = 0;
                        continue;
                    }
                    _ => break,
                }
            }
            break;
        }
        match row.runs.get(self.run) {
            Some(run) => run.rank_before + self.j as i64,
            None => row.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A jittery near-arithmetic sequence like the solver's skeletons
    /// produce: base gap drifting slowly, deterministic ±3 wobble.
    fn jittery(n: usize) -> Vec<i64> {
        let mut pos = 17i64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(pos);
            let base = 40 + (i as i64 / 500); // slow drift
            let wobble = [0i64, 2, -1, 3, -2, 1, -3, 0][i % 8];
            pos += (base + wobble).max(1);
        }
        out
    }

    #[test]
    fn compression_is_lossless() {
        for flats in [
            jittery(5000),
            (0..400).map(|i| 10 + 7 * i).collect::<Vec<_>>(), // pure arithmetic
            vec![5],
            vec![],
            vec![3, 4, 5, 6, 100, 200, 300, 5000], // mixed regimes
        ] {
            let row = RunRow::compress(&flats);
            assert_eq!(row.count(), flats.len() as i64);
            let back: Vec<i64> = row.iter().collect();
            assert_eq!(back, flats, "round-trip mismatch");
        }
    }

    #[test]
    fn jittery_rows_compress_and_pure_rows_store_no_residuals() {
        let flats = jittery(50_000);
        let row = RunRow::compress(&flats);
        assert!(
            row.descriptors() * 20 < flats.len(),
            "{} runs for {} jittery flats — regime tracking broke",
            row.descriptors(),
            flats.len()
        );
        // ~1 residual byte per flat + a handful of descriptors.
        assert!(row.memory_bytes() < flats.len() * 2 + 4096);

        let arith: Vec<i64> = (0..10_000).map(|i| 3 + 11 * i).collect();
        let row = RunRow::compress(&arith);
        assert_eq!(row.descriptors(), 1, "pure progression should be one run");
        assert!(row.res.is_empty(), "pure runs must elide residuals");
    }

    #[test]
    fn rank_matches_bruteforce() {
        let flats = jittery(2000);
        let row = RunRow::compress(&flats);
        let max = *flats.last().unwrap() + 5;
        for pos in (0..max).step_by(13).chain(flats.iter().copied()) {
            let want = flats.iter().filter(|&&f| f <= pos).count() as i64;
            assert_eq!(row.rank_le(pos), want, "rank at {pos}");
        }
    }

    #[test]
    fn cursor_matches_bruteforce_with_retreats() {
        let flats = jittery(800);
        let row = RunRow::compress(&flats);
        let mut cur = RunCursor::default();
        let max = *flats.last().unwrap() + 3;
        let mut pos = 0i64;
        // Sweep forward with interleaved one-step retreats, like the
        // frontier sweep's s / s+1 reads.
        while pos < max {
            for p in [pos + 1, pos, pos + 1] {
                let want = flats.iter().filter(|&&f| f <= p).count() as i64;
                assert_eq!(cur.rank_le(&row, p), want, "rank at {p}");
            }
            pos += 7;
        }
    }

    #[test]
    fn seek_after_positions_the_iterator() {
        let flats = jittery(1500);
        let row = RunRow::compress(&flats);
        for pos in [0i64, 16, 17, 18, 500, 20_000, i64::MAX / 8] {
            let mut it = row.iter();
            let rank = it.seek_after(pos);
            assert_eq!(rank, flats.iter().filter(|&&f| f <= pos).count() as i64);
            let rest: Vec<i64> = it.take(3).collect();
            let want: Vec<i64> = flats.iter().copied().filter(|&f| f > pos).take(3).collect();
            assert_eq!(rest, want, "tail after {pos}");
        }
    }

    #[test]
    fn huge_gaps_do_not_overflow() {
        // Steps near the NO_FLAT scale: len caps keep j·step_fx in range.
        let flats = vec![0i64, 1 << 40, 2 << 40, 3 << 40, (3 << 40) + 5];
        let row = RunRow::compress(&flats);
        let back: Vec<i64> = row.iter().collect();
        assert_eq!(back, flats);
        assert_eq!(row.rank_le(1 << 41), 3);
    }
}
