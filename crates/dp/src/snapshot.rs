//! Table introspection for persistence: a lossless decomposition of a
//! [`CompressedTable`] into plain data ([`TableParts`]) and the exact
//! inverse ([`CompressedTable::from_parts`]).
//!
//! The solver's rows are internal types (`RunRow`, `ArithRun`) whose
//! layout the serialization layer (`cyclesteal-store`) must not depend
//! on. This module is the stable boundary between the two:
//! [`CompressedTable::to_parts`] flattens a table into primitive vectors
//! **in its native representation** — arithmetic runs stay run
//! descriptors plus the shared residual stream, nothing is re-encoded —
//! and
//! [`CompressedTable::from_parts`] rebuilds the identical table,
//! re-deriving only the fields that are pure functions of the rest
//! (per-run residual offsets, cumulative ranks, flat counts).
//!
//! Round-tripping is **bit-identical**: `from_parts(to_parts(t)) == t`
//! under the structural [`PartialEq`] on [`CompressedTable`], for either
//! build (the store crate's property suite pins this). Reconstruction
//! validates enough structure that a corrupt `TableParts` yields an
//! [`Err`], never a panic: row counts, run lengths, residual-stream
//! length and cross-run ordering are all checked before any table is
//! built.
//! (Per-flat monotonicity *inside* one arithmetic run is deliberately
//! not walked — it would cost `O(k)` on every warm start — so the
//! checksums of the store layer remain the integrity guarantee for the
//! residual bytes themselves.)

use crate::compressed::{CompressedRow, CompressedTable};
use crate::grid::Grid;
use crate::run::{ArithRun, RunRow, NO_RES};
use cyclesteal_core::time::Time;

/// A [`CompressedTable`] flattened into primitive, representation-native
/// parts — everything needed to rebuild the table exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct TableParts {
    /// The setup charge `c` of the solved grid.
    pub setup: Time,
    /// Grid resolution in ticks per setup charge.
    pub ticks_per_setup: u32,
    /// Largest lifespan (in ticks) the table covers.
    pub max_ticks: i64,
    /// Largest interrupt budget the table covers.
    pub max_interrupts: u32,
    /// Build-loop iteration count (see [`CompressedTable::events`]).
    pub events: u64,
    /// One entry per level `0..=max_interrupts`, in level order.
    pub rows: Vec<RowParts>,
}

/// One row: the zero-region edge plus its arithmetic runs and their
/// shared residual stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowParts {
    /// Largest `l` with `W(l) = 0`.
    pub zero_until: i64,
    /// Run descriptors, in increasing flat-tick order.
    pub runs: Vec<RunParts>,
    /// Residual bytes of every run with `has_residuals`, concatenated in
    /// run order (`len` bytes per such run).
    pub residuals: Vec<i8>,
}

/// One arithmetic-run descriptor, shorn of the derived fields (`res_off`
/// and `rank_before` are recomputed on reconstruction — they are pure
/// functions of the run sequence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunParts {
    /// First flat tick of the run.
    pub start: i64,
    /// Fixed-point (Q48.16) common difference between modeled flats.
    pub step_fx: i64,
    /// Number of flats the run covers (≥ 1).
    pub len: u32,
    /// Whether the run stores `len` residual bytes (an all-zero residual
    /// block is elided and this is `false`).
    pub has_residuals: bool,
}

/// Why a [`TableParts`] value cannot be a [`CompressedTable`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartsError {
    /// The table-level metadata is inconsistent (bad grid, wrong row
    /// count, negative extent, …).
    Meta(String),
    /// One row's skeleton data is structurally invalid.
    Row {
        /// The interrupt level of the offending row.
        level: usize,
        /// What was wrong with it.
        what: String,
    },
}

impl std::fmt::Display for PartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartsError::Meta(what) => write!(f, "invalid table metadata: {what}"),
            PartsError::Row { level, what } => write!(f, "invalid row at level {level}: {what}"),
        }
    }
}

impl std::error::Error for PartsError {}

fn meta_err(what: impl Into<String>) -> PartsError {
    PartsError::Meta(what.into())
}

fn row_err(level: usize, what: impl Into<String>) -> PartsError {
    PartsError::Row {
        level,
        what: what.into(),
    }
}

/// Rebuilds a [`RunRow`] from its descriptors, re-deriving residual
/// offsets, cumulative ranks and the flat count, with endpoint-level
/// structural validation (see the module docs for what is *not* walked).
fn runs_from_parts(
    level: usize,
    zero_until: i64,
    runs: &[RunParts],
    residuals: Vec<i8>,
    max_ticks: i64,
) -> Result<RunRow, PartsError> {
    if !(0..=max_ticks).contains(&zero_until) {
        return Err(row_err(
            level,
            format!("zero_until {zero_until} outside [0, {max_ticks}]"),
        ));
    }
    let mut out = RunRow {
        runs: Vec::with_capacity(runs.len()),
        ..RunRow::default()
    };
    let mut res_cursor: usize = 0;
    let mut prev_last = zero_until;
    for rp in runs {
        if rp.len == 0 {
            return Err(row_err(level, "run of length 0"));
        }
        if rp.step_fx < 1 {
            return Err(row_err(
                level,
                format!("non-positive step_fx {}", rp.step_fx),
            ));
        }
        if rp.len > ArithRun::len_cap(rp.step_fx) {
            return Err(row_err(
                level,
                format!("run length {} overflows step {}", rp.len, rp.step_fx),
            ));
        }
        let res_off = if rp.has_residuals {
            let off = res_cursor;
            res_cursor = off
                .checked_add(rp.len as usize)
                .ok_or_else(|| row_err(level, "residual offsets overflow"))?;
            if res_cursor > residuals.len() {
                return Err(row_err(
                    level,
                    format!(
                        "residual stream too short: need {res_cursor}, have {}",
                        residuals.len()
                    ),
                ));
            }
            off as u32
        } else {
            NO_RES
        };
        let run = ArithRun {
            start: rp.start,
            step_fx: rp.step_fx,
            len: rp.len,
            res_off,
            rank_before: out.count,
        };
        out.count += rp.len as i64;
        out.runs.push(run);
    }
    // The residual stream is owned wholesale; attach it before the
    // endpoint checks so `flat_at` can read through it.
    if res_cursor != residuals.len() {
        return Err(row_err(
            level,
            format!(
                "residual stream length {} does not match runs (need {res_cursor})",
                residuals.len()
            ),
        ));
    }
    out.res = residuals;
    for (i, run) in out.runs.iter().enumerate() {
        let first = out.flat_at(run, 0);
        let last = out.last_of(run);
        if first <= prev_last {
            return Err(row_err(
                level,
                format!("run {i} starts at {first}, not past the previous flat {prev_last}"),
            ));
        }
        if last < first {
            return Err(row_err(
                level,
                format!("run {i} ends at {last}, before its start {first}"),
            ));
        }
        if last > max_ticks {
            return Err(row_err(
                level,
                format!("run {i} reaches {last}, beyond solved extent {max_ticks}"),
            ));
        }
        prev_last = last;
    }
    out.runs.shrink_to_fit();
    out.res.shrink_to_fit();
    Ok(out)
}

impl CompressedTable {
    /// Flattens the table into representation-native [`TableParts`] —
    /// the introspection side of the persistence boundary. No row is
    /// re-encoded; the parts mirror the in-memory skeletons exactly.
    pub fn to_parts(&self) -> TableParts {
        let rows = self
            .rows
            .iter()
            .map(|row| RowParts {
                zero_until: row.zero_until,
                runs: row
                    .runs
                    .runs
                    .iter()
                    .map(|r| RunParts {
                        start: r.start,
                        step_fx: r.step_fx,
                        len: r.len,
                        has_residuals: r.res_off != NO_RES,
                    })
                    .collect(),
                residuals: row.runs.res.clone(),
            })
            .collect();
        TableParts {
            setup: self.grid().setup(),
            ticks_per_setup: self.grid().q() as u32,
            max_ticks: self.max_ticks(),
            max_interrupts: self.max_interrupts(),
            events: self.events(),
            rows,
        }
    }

    /// Rebuilds the exact table [`Self::to_parts`] came from. Validates
    /// the parts structurally first — corrupt input yields an [`Err`],
    /// never a panic or a table whose accessors could panic later.
    pub fn from_parts(parts: TableParts) -> Result<CompressedTable, PartsError> {
        if !parts.setup.get().is_finite() || !parts.setup.is_positive() {
            return Err(meta_err(format!(
                "setup charge {} not positive",
                parts.setup
            )));
        }
        if parts.ticks_per_setup < 1 {
            return Err(meta_err("ticks_per_setup must be ≥ 1"));
        }
        if parts.max_ticks < 0 {
            return Err(meta_err(format!(
                "negative extent {} ticks",
                parts.max_ticks
            )));
        }
        let expected_rows = parts.max_interrupts as usize + 1;
        if parts.rows.len() != expected_rows {
            return Err(meta_err(format!(
                "{} rows for max_interrupts {} (need {expected_rows})",
                parts.rows.len(),
                parts.max_interrupts
            )));
        }
        let grid = Grid::new(parts.setup, parts.ticks_per_setup);
        let mut rows = Vec::with_capacity(expected_rows);
        for (level, row) in parts.rows.into_iter().enumerate() {
            let runs = runs_from_parts(
                level,
                row.zero_until,
                &row.runs,
                row.residuals,
                parts.max_ticks,
            )?;
            rows.push(CompressedRow {
                zero_until: row.zero_until,
                runs,
            });
        }
        Ok(CompressedTable {
            grid,
            max_ticks: parts.max_ticks,
            max_interrupts: parts.max_interrupts,
            rows,
            events: parts.events,
            event_kinds: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_core::time::secs;

    fn solve() -> CompressedTable {
        CompressedTable::solve_event_driven(secs(1.0), 8, secs(300.0), 3)
    }

    #[test]
    fn round_trips_both_builds() {
        let walked = CompressedTable::solve(secs(1.0), 8, secs(300.0), 3);
        for table in [solve(), walked] {
            let back = CompressedTable::from_parts(table.to_parts()).unwrap();
            assert_eq!(table, back);
            // And the rebuilt table answers queries identically.
            for p in 0..=3 {
                for l in [0, 1, 100, table.max_ticks()] {
                    assert_eq!(table.value_ticks(p, l), back.value_ticks(p, l));
                }
            }
        }
    }

    #[test]
    fn corrupt_parts_error_instead_of_panicking() {
        let table = solve();

        // Wrong row count.
        let mut parts = table.to_parts();
        parts.rows.pop();
        assert!(matches!(
            CompressedTable::from_parts(parts),
            Err(PartsError::Meta(_))
        ));

        // Truncated residual stream.
        let mut parts = table.to_parts();
        let row = parts
            .rows
            .iter_mut()
            .find(|row| !row.residuals.is_empty())
            .expect("test table should carry residuals");
        row.residuals.pop();
        assert!(matches!(
            CompressedTable::from_parts(parts),
            Err(PartsError::Row { .. })
        ));

        // Zero-length run.
        let mut parts = table.to_parts();
        let run = parts
            .rows
            .iter_mut()
            .find_map(|row| row.runs.first_mut())
            .expect("test table should have runs");
        run.len = 0;
        assert!(CompressedTable::from_parts(parts).is_err());

        // Runs out of order.
        let mut parts = table.to_parts();
        let row = parts
            .rows
            .iter_mut()
            .find(|row| row.runs.len() >= 2)
            .expect("test table should have a multi-run row");
        row.runs.swap(0, 1);
        row.residuals.clear();
        for r in &mut row.runs {
            r.has_residuals = false;
        }
        assert!(matches!(
            CompressedTable::from_parts(parts),
            Err(PartsError::Row { .. })
        ));

        // Bad grid metadata must error before Grid::new can panic.
        let mut parts = table.to_parts();
        parts.ticks_per_setup = 0;
        assert!(CompressedTable::from_parts(parts).is_err());
        let mut parts = table.to_parts();
        parts.setup = secs(-1.0);
        assert!(CompressedTable::from_parts(parts).is_err());
    }

    #[test]
    fn structural_equality_detects_build_and_value_changes() {
        let jumped = solve();
        let walked = CompressedTable::solve(secs(1.0), 8, secs(300.0), 3);
        // Same rows, different event counts: structurally unequal.
        assert_eq!(jumped.rows, walked.rows);
        assert_ne!(jumped, walked);
        assert_eq!(jumped, jumped.clone());
        let other = CompressedTable::solve_event_driven(secs(1.0), 8, secs(200.0), 3);
        assert_ne!(jumped, other);
    }
}
