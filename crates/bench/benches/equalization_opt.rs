//! E6 — Theorem 4.3's equalization construction, driven by the exact DP
//! oracle, against the exact game value: the "abstract guidelines" of §4
//! executed end-to-end.
//!
//! Also audits §5.2's `S_opt^(1)` (every adversary option equalized to
//! machine precision) and reports how far the *fully-productive*
//! restriction — which the paper admits it cannot justify rigorously —
//! is from the unrestricted optimum (spoiler: indistinguishable at grid
//! resolution, for every `(U, p)` tested).

use cyclesteal_bench::{Report, C};
use cyclesteal_core::prelude::*;
use cyclesteal_dp::TableCache;

fn main() {
    let mut report = Report::new("equalization_opt");
    report.line("E6 / Theorem 4.3 — equalized schedules vs the exact game value (c = 1)");
    report.line("");

    let table = TableCache::global().get_compressed(secs(C), 16, secs(4_096.0), 4);

    report.line(format!(
        "{:>8} {:>3} {:>6} {:>14} {:>14} {:>10} {:>12}",
        "U/c", "p", "m", "equalized W", "exact W^(p)", "gap", "audit spread"
    ));
    for p in 1..=4u32 {
        for &u in &[64.0, 512.0, 4_096.0] {
            let opp = Opportunity::from_units(u, C, p);
            let (sched, value) = equalized_schedule(&*table, &opp).unwrap();
            let exact = table.value(p, secs(u));
            let audit = verify_equalization(&*table, &opp, &sched);
            // Spread among options whose continuation is still positive.
            let early: Vec<bool> = sched
                .iter_windows()
                .map(|(_, start, t)| {
                    let residual = (secs(u) - (start + t)).clamp_min_zero();
                    table.value(p.saturating_sub(1), residual).is_positive()
                })
                .collect();
            let spread = audit.early_spread(&early);
            report.line(format!(
                "{:>8} {:>3} {:>6} {:>14.2} {:>14.2} {:>10.3} {:>12.4}",
                u,
                p,
                sched.len(),
                value,
                exact,
                exact - value,
                spread
            ));
            assert!(
                (exact - value).abs() <= secs(0.01 * u.sqrt() + 0.3),
                "equalizer strayed from the game value at U={u}, p={p}"
            );
        }
    }
    report.line("");

    // --- §5.2 audit ---------------------------------------------------------
    report.line("§5.2 audit — S_opt^(1) option values (min = max to machine precision):");
    let oracle = ClosedFormOracle::new(secs(C));
    for &u in &[100.0, 10_000.0] {
        let opp = Opportunity::from_units(u, C, 1);
        let sched = optimal_p1_schedule(secs(u), secs(C)).unwrap();
        let audit = verify_equalization(&oracle, &opp, &sched);
        let lo = audit.option_values.iter().copied().min().unwrap();
        let hi = audit.option_values.iter().copied().max().unwrap();
        report.line(format!(
            "  U/c = {u}: {} options in [{lo:.6}, {hi:.6}], no-interrupt = {:.3}, W^(1) = {:.3}",
            audit.option_values.len(),
            audit.uninterrupted,
            w1_exact(secs(u), secs(C))
        ));
        assert!((hi - lo) <= secs(1e-6));
    }
    report.line("");

    // --- Fully-productive restriction -----------------------------------
    report.line("fully-productive restriction (§4.1's unproven heuristic):");
    report.line("  the DP searches ALL schedules (nonproductive periods allowed); the");
    report.line("  equalizer builds fully-productive ones. Their agreement above bounds");
    report.line("  the restriction's cost at grid resolution:");
    let mut worst_gap = Work::ZERO;
    for p in 1..=4u32 {
        for &u in &[64.0, 512.0, 4_096.0] {
            let opp = Opportunity::from_units(u, C, p);
            let (_s, value) = equalized_schedule(&*table, &opp).unwrap();
            worst_gap = worst_gap.max(table.value(p, secs(u)) - value);
        }
    }
    report.line(format!(
        "  max gap over the sweep = {worst_gap:.4} (≤ one grid tick + search tolerance per period)"
    ));
    report.line("");
    report.line("Theorem 4.3 reproduced: equalization recovers the exact optimum.");
}
