//! Golden snapshot bytes: `to_bytes` of a fixed set of event-built
//! tables hashes to constants recorded before the builder stored each
//! level as a flat tick list.
//!
//! The equivalence suite checks the event build against the tick walk,
//! but both builds feed the same run compressor, so a compressor change
//! that alters both alike passes it. These digests pin the stored rows,
//! residual bytes and event counts themselves.

use cyclesteal_core::time::secs;
use cyclesteal_dp::compressed::CompressedTable;
use cyclesteal_store::to_bytes;

/// FNV-1a, 64-bit: a fixed, dependency-free digest of the snapshot.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn event_built_snapshots_match_pinned_digests() {
    // (Q, p, lifespan in ticks, digest of `to_bytes`). The setup charge
    // is 1 s, so the lifespan is `ticks / Q` seconds.
    let cases: [(u32, u32, i64, u64); 6] = [
        (2, 3, 500, 0x58c5_c2ea_cf9e_4f62),
        (9, 5, 3_600, 0x51c2_7370_1b41_1d2b),
        (16, 6, 15_000, 0xe35e_58a5_303f_e155),
        (4, 4, 80_000, 0xb5c8_5581_2751_07ae),
        (1, 64, 1_000_000, 0x0b72_aa56_d759_9b0c),
        (32, 16, 10_000_000, 0x7c3a_1cc0_aa81_f44c),
    ];
    let mut mismatches = Vec::new();
    for (q, p, ticks, want) in cases {
        let table =
            CompressedTable::solve_event_driven(secs(1.0), q, secs(ticks as f64 / q as f64), p);
        assert_eq!(table.max_ticks(), ticks, "grid rounding at Q={q}");
        let got = fnv1a(&to_bytes(&table));
        if got != want {
            mismatches.push(format!("(Q={q}, p={p}, {ticks} ticks): {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "digests moved: {mismatches:#?}");
}
