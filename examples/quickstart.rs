//! Quickstart: plan a cycle-stealing opportunity and see what the paper's
//! guidelines guarantee.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cyclesteal::prelude::*;

fn main() {
    // A colleague lends you their workstation overnight: 8 hours, with a
    // 30-second setup charge per work parcel, and at most 3 interruptions
    // (measured in units of c, U/c = 960).
    let c = secs(1.0);
    let u = secs(960.0);
    let opp = Opportunity::new(u, c, 3).unwrap();

    println!(
        "Opportunity: U/c = {}, p = {}",
        opp.u_over_c(),
        opp.interrupts()
    );
    println!();

    // --- What the closed forms promise -----------------------------------
    println!("Closed-form guarantees (work, in units of c):");
    println!(
        "  non-adaptive guideline (§3.1): {:.1}",
        NonAdaptiveGuideline::guarantee(&opp)
    );
    println!(
        "  adaptive guideline bound (Thm 5.1 leading term): {:.1}",
        thm51_lower_bound(&opp, 0.0, 0.0)
    );
    println!();

    // --- The schedules themselves ----------------------------------------
    let na = NonAdaptiveGuideline::build(&opp).unwrap();
    println!(
        "Non-adaptive schedule: {} equal periods of {:.2}",
        na.len(),
        na.period(0)
    );
    let ad = AdaptiveGuideline::default().episode(&opp).unwrap();
    println!(
        "Adaptive first episode: {} periods, t_1 = {:.2} … t_m = {:.2}",
        ad.len(),
        ad.period(0),
        ad.period(ad.len() - 1)
    );
    println!();

    // --- Exact numbers from the game solver ------------------------------
    let table = CompressedTable::solve_event_driven(c, 16, u, 3);
    println!("Exact game values W^(p)[U] (DP at c/16 resolution):");
    for p in 0..=3u32 {
        println!("  p = {p}: {:.1}", table.value(p, u));
    }
    println!();

    // --- Play the game ----------------------------------------------------
    let policy = AdaptiveGuideline::default();
    let pv = evaluate_policy(&policy, c, 16, u, 3, EvalOptions::default()).unwrap();
    let mut adversary = PolicyAwareAdversary::new(pv);
    let log = run_game(&policy, &mut adversary, &opp).unwrap();
    println!(
        "Adaptive guideline vs its worst-case owner: banked {:.1} over {} episodes \
         ({} interrupts used)",
        log.total_work,
        log.episodes.len(),
        log.interrupts_used()
    );
    let single = SinglePeriodPolicy;
    let pv1 = evaluate_policy(&single, c, 16, u, 3, EvalOptions::default()).unwrap();
    let mut adversary1 = PolicyAwareAdversary::new(pv1);
    let naive = run_game(&single, &mut adversary1, &opp).unwrap();
    println!(
        "The naive send-everything policy banks {:.1} against the same owner.",
        naive.total_work
    );
}
