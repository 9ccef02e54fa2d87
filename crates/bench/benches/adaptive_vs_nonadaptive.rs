//! E7 — the paper's raison d'être, measured: adaptive vs non-adaptive
//! guaranteed output over the `(U/c, p)` plane, with the exact optimum and
//! naive baselines for scale.
//!
//! Under the **corrected** constants (E5), both disciplines lose
//! `2√(pcU)` to first order as `p` grows (`β_p ~ √(2p)`, so the adaptive
//! loss `β_p√(2cU) → 2√(pcU)`), and the separation the paper celebrates is
//! second-order: adaptivity recovers `Θ(√(cU/p))` per opportunity while
//! the committed schedule recovers `p·c`. The crossover frontier
//! `p* ≈ (U/c)^(1/3)` this implies is mapped below — a sharper statement
//! of "when adaptivity pays" than the paper's asymptotic-in-`U` claim.

use cyclesteal_adversary::nonadaptive::worst_case;
use cyclesteal_bench::{Report, C};
use cyclesteal_core::prelude::*;
use cyclesteal_dp::{evaluate_policy, EvalOptions, PolicyValue, TableCache};
use cyclesteal_par::par_map;

fn main() {
    let mut report = Report::new("adaptive_vs_nonadaptive");
    report.line("E7 — adaptive vs non-adaptive over the (U/c, p) plane (c = 1)");
    report.line("");

    let q = 4u32;
    let p_max = 12u32;
    let max_u = 8_192.0;
    let table = TableCache::global().get_compressed(secs(C), q, secs(max_u), p_max);

    let policies: Vec<(&str, Box<dyn EpisodePolicy>)> = vec![
        ("adaptive §3.2", Box::new(AdaptiveGuideline::default())),
        ("self-similar", Box::new(SelfSimilarGuideline::default())),
        ("equal-16", Box::new(EqualPeriodsPolicy::new(16))),
        ("halving", Box::new(HalvingPolicy::default())),
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
        "{:>8} {:>3} {:>10} | {:>10} {:>10} {:>10} {:>9} | {:>9} {:>9}",
        "U/c", "p", "W optimal", "self-sim", "arith", "non-adapt", "ss−na", "equal-16", "halving"
    ));
    let us = [32.0, 128.0, 512.0, 2_048.0, 8_192.0];
    for &u in &us {
        for p in [1u32, 2, 4, 8, 12] {
            let opp = Opportunity::from_units(u, C, p);
            let w_opt = table.value(p, secs(u));
            let w_ss = values[1].value(p, secs(u));
            let w_ar = values[0].value(p, secs(u));
            let run = NonAdaptiveGuideline::run(&opp).unwrap();
            let w_na = worst_case(&run).work;
            let w_eq = values[2].value(p, secs(u));
            let w_hv = values[3].value(p, secs(u));
            report.line(format!(
                "{:>8} {:>3} {:>10.1} | {:>10.1} {:>10.1} {:>10.1} {:>9.1} | {:>9.1} {:>9.1}",
                u,
                p,
                w_opt,
                w_ss,
                w_ar,
                w_na,
                w_ss - w_na,
                w_eq,
                w_hv
            ));
            // Shape assertions:
            assert!(
                w_ss <= w_opt + secs(0.5) && w_ar <= w_opt + secs(0.5),
                "no policy beats the optimum"
            );
            // The *optimal adaptive* player always dominates the best
            // committed schedule (adaptivity cannot hurt):
            assert!(
                w_opt + secs(0.5) >= w_na,
                "optimum lost to non-adaptive at U={u}, p={p}"
            );
        }
        report.line("");
    }

    // --- The crossover frontier -------------------------------------------
    report.line("crossover frontier: largest p at which the self-similar guideline still");
    report.line("beats the non-adaptive guideline (second-order separation ⇒ p* grows");
    report.line("roughly like (U/c)^(1/3)):");
    let mut line = String::from("   ");
    for &u in &us {
        let mut p_star = 0u32;
        for p in 1..=p_max {
            let opp = Opportunity::from_units(u, C, p);
            let w_ss = values[1].value(p, secs(u));
            let run = NonAdaptiveGuideline::run(&opp).unwrap();
            let w_na = worst_case(&run).work;
            if w_ss + secs(1e-6) >= w_na {
                p_star = p;
            } else {
                break;
            }
        }
        line.push_str(&format!("  U/c={u}: p*≥{p_star}"));
        // Adaptivity must pay in the regime the paper motivates (modest p,
        // sizable U).
        if u >= 512.0 {
            assert!(p_star >= 4, "adaptivity fails too early at U/c={u}");
        }
    }
    report.line(line);
    report.line("");
    report.line("E7 verdict: the guideline separation the paper claims holds for modest p —");
    report.line("but under the corrected constants it is second-order, and the committed");
    report.line("schedule catches up once p ≳ (U/c)^(1/3); the exact adaptive optimum, of");
    report.line("course, dominates everywhere (adaptivity can never hurt).");
}
