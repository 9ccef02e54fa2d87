//! E5 — Theorem 5.1, measured — **with a corrected constant**.
//!
//! The paper claims `W(Σ_a^(p)[U]) ≥ U − (2 − 2^(1−p))·√(2cU) −
//! O(U^(1/4) + pc)`. This reproduction finds the printed coefficient
//! **unachievable for `p ≥ 2`**: the exact game's asymptotic loss constant
//! is `β_p` with `β_1 = 1`, `β_p = (β_{p−1} + √(β_{p−1}²+4))/2` — the
//! golden ratio `φ ≈ 1.618` at `p = 2` versus the printed `1.5` — derived
//! from Theorem 4.3's own equalization in the continuum limit and
//! confirmed by the DP to three digits at `U/c = 131072`
//! (`cargo run -p cyclesteal-bench --bin beta_probe`).
//!
//! Columns: the §3.2 arithmetic guideline (as reconstructed), the
//! corrected *self-similar* guideline `t = γ_p√(2cR)`, the exact optimum,
//! and their measured loss coefficients against both constants.
//!
//! Also runs the Table-2-literal `p = 1` ablation (DESIGN.md §1.1 note 4).

use cyclesteal_bench::{Report, C};
use cyclesteal_core::error::Result;
use cyclesteal_core::prelude::*;
use cyclesteal_dp::{evaluate_policy, EvalOptions, PolicyValue, TableCache};
use cyclesteal_par::par_map;

/// Table 2's literal `S_a^(1)[U]`: `m = ⌊√(2U/c) + 2⌋` periods with
/// `t_k = √(2cU) − (k − 7/2)c` for `k ≤ m − 2` and two trailing `3c/2`
/// periods, rescaled minimally so the lengths sum to `U`.
struct LiteralTable2P1;

impl EpisodePolicy for LiteralTable2P1 {
    fn episode(&self, opp: &Opportunity) -> Result<EpisodeSchedule> {
        let u = opp.lifespan();
        let c = opp.setup();
        if opp.interrupts() == 0 || u <= c * 6.0 {
            return EpisodeSchedule::single(u);
        }
        let m = ((2.0 * u.ratio(c)).sqrt() + 2.0).floor() as usize;
        let sqrt2cu = (2.0 * c.get() * u.get()).sqrt();
        let mut periods: Vec<Time> = Vec::with_capacity(m);
        for k in 1..=m.saturating_sub(2) {
            let t = sqrt2cu - (k as f64 - 3.5) * c.get();
            periods.push(Time::new(t.max(1.6 * c.get())));
        }
        periods.push(c * 1.5);
        periods.push(c * 1.5);
        // The literal lengths only sum to U up to O(√U) slack; rescale the
        // leading periods proportionally to cover U exactly.
        let total: Time = periods.iter().copied().sum();
        let scale = u.ratio(total);
        for t in &mut periods {
            *t = *t * scale;
        }
        EpisodeSchedule::for_lifespan(periods, u)
    }
    fn name(&self) -> String {
        "table2-literal-p1".into()
    }
}

fn main() {
    let mut report = Report::new("thm51_guarantee");
    report.line("E5 / Theorem 5.1 — guidelines vs exact optimum, claimed vs corrected constants");
    report.line("");
    report.line("corrected loss constants β_p (this repo) vs printed 2 − 2^(1−p) (paper):");
    for p in 1..=5u32 {
        report.line(format!(
            "  p = {p}:  β_p = {:.4}   printed = {:.4}",
            loss_coefficient(p),
            2.0 - 2.0f64.powi(1 - p as i32)
        ));
    }
    report.line("");

    let q = 8u32;
    let p_max = 5u32;
    let max_u = 16_384.0;
    // One cached solve serves every (U/c, p) cell in the sweep below.
    let table = TableCache::global().get_compressed(secs(C), q, secs(max_u), p_max);
    let policies: Vec<(&str, Box<dyn EpisodePolicy>)> = vec![
        ("arithmetic §3.2", Box::new(AdaptiveGuideline::default())),
        ("self-similar", Box::new(SelfSimilarGuideline::default())),
    ];
    let values: Vec<PolicyValue> = par_map(&policies, |(_, pol)| {
        evaluate_policy(
            pol.as_ref(),
            secs(C),
            q,
            secs(max_u),
            p_max,
            EvalOptions::default(),
        )
        .expect("policy evaluation")
    });

    report.line(format!(
        "{:>8} {:>3} | {:>11} {:>11} {:>11} | {:>7} {:>7} {:>7} | {:>7}",
        "U/c", "p", "arithmetic", "self-sim", "optimal", "c_arith", "c_self", "c_opt", "β_p"
    ));
    let us = [64.0, 256.0, 1_024.0, 4_096.0, 16_384.0];
    for p in 1..=p_max {
        let beta = loss_coefficient(p);
        for &u in &us {
            let wa = values[0].value(p, secs(u));
            let ws = values[1].value(p, secs(u));
            let wo = table.value(p, secs(u));
            let coeff = |w: Work| (u - w.get()) / (2.0 * C * u).sqrt();
            report.line(format!(
                "{:>8} {:>3} | {:>11.1} {:>11.1} {:>11.1} | {:>7.3} {:>7.3} {:>7.3} | {:>7.3}",
                u,
                p,
                wa,
                ws,
                wo,
                coeff(wa),
                coeff(ws),
                coeff(wo),
                beta
            ));
            // Soundness: nothing beats the optimum; the optimum's
            // coefficient approaches β_p from below (positive O(pc)
            // finite-size terms favour the owner at small U), so check
            // the asymptotic end of the sweep.
            assert!(wa <= wo + secs(0.5) && ws <= wo + secs(0.5));
            if u >= 4_096.0 {
                assert!(
                    coeff(wo) >= beta - 0.08,
                    "optimum beats the corrected constant at U={u}, p={p}"
                );
            }
            // Corrected bound with fitted low-order constants holds for
            // the self-similar guideline everywhere on the sweep.
            let opp = Opportunity::from_units(u, C, p);
            let bound = corrected_guarantee(&opp, 4.0, 4.0);
            assert!(
                ws + secs(1e-6) >= bound,
                "corrected bound violated by self-similar at U={u}, p={p}: {ws} < {bound}"
            );
        }
        // At the top of the sweep the self-similar guideline's coefficient
        // is within 4% of β_p; the arithmetic reconstruction trails it.
        let top = 16_384.0;
        let cs = (top - values[1].value(p, secs(top)).get()) / (2.0 * C * top).sqrt();
        assert!(
            cs <= beta * 1.04 + 0.02,
            "self-similar coefficient {cs} strays from β_{p} = {beta}"
        );
        report.line("");
    }

    // --- Reconstruction ablation at p = 1 ---------------------------------
    report.line("p = 1 ablation — exact-remainder reconstruction vs Table-2-literal schedule:");
    let lit = evaluate_policy(
        &LiteralTable2P1,
        secs(C),
        q,
        secs(max_u),
        1,
        EvalOptions::default(),
    )
    .unwrap();
    report.line(format!(
        "{:>8} {:>14} {:>14} {:>14}",
        "U/c", "reconstructed", "literal", "optimal"
    ));
    for &u in &us {
        let a = values[0].value(1, secs(u));
        let b = lit.value(1, secs(u));
        let o = table.value(1, secs(u));
        report.line(format!("{:>8} {:>14.1} {:>14.1} {:>14.1}", u, a, b, o));
        assert!((a - b).abs() <= secs(0.02 * u.sqrt() + 3.0));
    }
    report.line("");
    report.line("E5 verdict: the guidelines track the exact optimum to low-order terms, but");
    report.line("the printed Thm 5.1 coefficient (2 − 2^(1−p)) is below the exact game's");
    report.line("asymptotic loss constant β_p for every p ≥ 2 and therefore unachievable;");
    report.line("the corrected constant follows β_p = (β_{p−1} + √(β_{p−1}²+4))/2.");
}
