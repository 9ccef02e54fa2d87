//! E3 — Proposition 4.1, measured exhaustively on the exact game value:
//! (a) `W^(p)[U]` nondecreasing in `U`; (b) nonincreasing in `p`;
//! (c) zero iff `U ≤ (p+1)c` (both directions, on the grid);
//! (d) `W^(0)[U] = U ⊖ c`.

use cyclesteal_bench::{Report, C};
use cyclesteal_core::prelude::*;
use cyclesteal_dp::TableCache;

fn main() {
    let mut report = Report::new("prop41");
    report.line("E3 / Proposition 4.1 — exhaustive grid verification");
    let q = 8u32;
    let max_u = 512.0;
    let p_max = 6u32;
    let table = TableCache::global().get_compressed(secs(C), q, secs(max_u), p_max);
    let n = table.max_ticks();
    report.line(format!(
        "grid: {} states per level, p ≤ {p_max} (resolution c/{q}, U/c ≤ {max_u})",
        n + 1
    ));

    let mut violations_a = 0u64;
    let mut violations_b = 0u64;
    for p in 0..=p_max {
        for l in 1..=n {
            if table.value_ticks(p, l) < table.value_ticks(p, l - 1) {
                violations_a += 1;
            }
            if p > 0 && table.value_ticks(p, l) > table.value_ticks(p - 1, l) {
                violations_b += 1;
            }
        }
    }
    report.line(format!(
        "(a) monotone in U: {} violations over {} comparisons",
        violations_a,
        (p_max as i64 + 1) * n
    ));
    report.line(format!(
        "(b) antitone in p: {} violations over {} comparisons",
        violations_b,
        p_max as i64 * n
    ));
    assert_eq!(violations_a + violations_b, 0);

    report.line("(c) zero-work region boundaries (ticks, threshold = (p+1)·Q):");
    for p in 0..=p_max {
        // First lifespan with positive value.
        let mut first_positive = None;
        for l in 0..=n {
            if table.value_ticks(p, l) > 0 {
                first_positive = Some(l);
                break;
            }
        }
        let threshold = (p as i64 + 1) * q as i64;
        let fp = first_positive.expect("value becomes positive");
        report.line(format!(
            "    p = {p}: W > 0 from {fp} ticks; (p+1)c = {threshold} ticks"
        ));
        assert!(fp > threshold, "positive value inside the hopeless region");
        // The continuous threshold is sharp: on the grid the first positive
        // state appears within (p+1) extra ticks (one per surviving period).
        assert!(
            fp <= threshold + p as i64 + 1,
            "zero region extends past the sharp threshold"
        );
    }

    let mut d_err = Work::ZERO;
    for l in 0..=n {
        let u = table.grid().to_time(l);
        d_err = d_err.max((table.value(0, u) - w0(u, secs(C))).abs());
    }
    report.line(format!("(d) max |W^(0) − (U ⊖ c)| over the grid = {d_err}"));
    assert_eq!(d_err, Work::ZERO);

    report.line("");
    report.line("Proposition 4.1 holds exactly on the solved grid.");
}
