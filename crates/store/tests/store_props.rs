//! Persistence property tests: `load(save(table))` must be
//! **bit-identical** to the original (structural `PartialEq`, which
//! covers the stored runs byte for byte) for both table builds and the
//! degenerate lifespans `L ∈ {0, 1 tick, large}` — and every corruption
//! of the byte stream (truncation, bit-flips, wrong version) must come
//! back as an error, never a panic and never a silently different
//! table.

use cyclesteal_core::time::secs;
use cyclesteal_dp::compressed::CompressedTable;
use cyclesteal_store::{from_bytes, load, save, to_bytes, StoreError};
use proptest::prelude::*;

/// The production event-driven build, or the tick-walking reference.
fn solve(q: u32, max_u: f64, p: u32, event_driven: bool) -> CompressedTable {
    if event_driven {
        CompressedTable::solve_event_driven(secs(1.0), q, secs(max_u), p)
    } else {
        CompressedTable::solve(secs(1.0), q, secs(max_u), p)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Round trip over randomized grids and both builds.
    #[test]
    fn round_trip_is_bit_identical(q in 2u32..12, max_u in 1.0f64..80.0, p in 0u32..4) {
        for event_driven in [false, true] {
            let table = solve(q, max_u, p, event_driven);
            let back = from_bytes(&to_bytes(&table)).expect("clean snapshot must decode");
            prop_assert_eq!(&table, &back,
                "round trip at q={}, event_driven={}", q, event_driven);
        }
    }

    /// Every single-byte corruption of a snapshot errors — the CRCs and
    /// structural validation leave no byte whose flip goes unnoticed or
    /// panics the decoder.
    #[test]
    fn every_bit_flip_is_rejected(q in 2u32..10, max_u in 5.0f64..40.0, p in 1u32..3) {
        let bytes = to_bytes(&solve(q, max_u, p, true));
        let stride = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[pos] ^= 1 << (pos % 8);
            prop_assert!(from_bytes(&bad).is_err(),
                "flip at byte {} of {} went unnoticed", pos, bytes.len());
        }
    }

    /// Every truncation errors, from the empty file up to one byte
    /// short of complete.
    #[test]
    fn every_truncation_is_rejected(q in 2u32..10, max_u in 5.0f64..40.0, p in 1u32..3) {
        let bytes = to_bytes(&solve(q, max_u, p, true));
        let stride = (bytes.len() / 61).max(1);
        for cut in (0..bytes.len()).step_by(stride).chain([bytes.len() - 1]) {
            prop_assert!(from_bytes(&bytes[..cut]).is_err(),
                "truncation to {} of {} bytes went unnoticed", cut, bytes.len());
        }
    }
}

#[test]
fn degenerate_lifespans_round_trip() {
    // L = 0 (a single all-zero state per level), L = 1 tick (still
    // inside every zero region), and a large-L table.
    for (q, max_u, p) in [(8u32, 0.0f64, 2u32), (8, 0.125, 2), (16, 4000.0, 3)] {
        for event_driven in [false, true] {
            let table = solve(q, max_u, p, event_driven);
            let back = from_bytes(&to_bytes(&table)).unwrap();
            assert_eq!(
                table, back,
                "q={q} max_u={max_u} p={p} event_driven={event_driven}"
            );
        }
    }
}

#[test]
fn snapshots_are_deterministic() {
    // Two solves of the same grid encode to the same bytes — a warm
    // start may be consumed by any later process.
    let reference = to_bytes(&solve(8, 300.0, 3, true));
    assert_eq!(reference, to_bytes(&solve(8, 300.0, 3, true)));
}

#[test]
fn wrong_version_is_rejected_with_the_version_error() {
    let mut bytes = to_bytes(&solve(8, 50.0, 2, true));
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        from_bytes(&bytes),
        Err(StoreError::UnsupportedVersion(2))
    ));
}

#[test]
fn file_round_trip_and_queries_survive() {
    let dir = std::env::temp_dir().join(format!("cyclesteal-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table = solve(16, 2000.0, 3, true);
    let path = dir.join("t.cst");
    save(&table, &path).unwrap();
    let back = load(&path).unwrap();
    assert_eq!(table, back);
    // The restored table answers every query the original answers.
    for p in 0..=3u32 {
        for l in [0, 1, 17, 1000, table.max_ticks()] {
            assert_eq!(table.value_ticks(p, l), back.value_ticks(p, l));
            if l > 0 {
                assert_eq!(
                    table.first_period_ticks(p, l),
                    back.first_period_ticks(p, l)
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
