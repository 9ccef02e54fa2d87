//! The draconian contract in its purest form: a donated laptop that may be
//! unplugged from the network at any moment. How should a batch of
//! simulation sweeps be parcelled out, and what is the price of each extra
//! interruption the owner reserves the right to make?
//!
//! ```sh
//! cargo run --release --example laptop_donation
//! ```

use cyclesteal::prelude::*;
use std::sync::Arc;

fn main() {
    let c = secs(1.0); // one parcel setup ≈ 20 s on 1998-vintage Ethernet
    let u = secs(1440.0); // an 8-hour donation, U/c = 1440

    println!("Donated laptop: U/c = 1440. What does each reserved interrupt cost?\n");
    let table = CompressedTable::solve_event_driven(c, 16, u, 6);
    println!(
        "{:>3} {:>12} {:>14} {:>12}",
        "p", "W^(p) exact", "Thm 5.1 bound", "loss vs p−1"
    );
    let mut prev = Work::ZERO;
    for p in 0..=6u32 {
        let w = table.value(p, u);
        let opp = Opportunity::new(u, c, p).unwrap();
        let bound = thm51_lower_bound(&opp, 0.0, 0.0);
        let delta = if p == 0 {
            String::from("—")
        } else {
            format!("{:.1}", prev - w)
        };
        println!("{:>3} {:>12.1} {:>14.1} {:>12}", p, w, bound, delta);
        prev = w;
    }

    // --- Simulate the actual donation day --------------------------------
    println!("\nSimulating the donation with a p = 2 contract:");
    let p = 2u32;
    let opp = Opportunity::new(u, c, p).unwrap();
    // A parameter sweep: 1200 Monte-Carlo cells of 0.75–2.5c each.
    let bag = TaskBag::generate(TaskDist::Uniform { lo: 0.75, hi: 2.5 }, 1200, 7);
    let total_cells = bag.len();

    for (label, owner) in [
        ("owner never returns", OwnerTrace::quiet()),
        (
            "owner checks in twice",
            OwnerTrace::poisson(11, 0.0015, u, p as usize, secs(60.0)),
        ),
        (
            "undocked after lunch",
            OwnerTrace::laptop_undock(secs(700.0), secs(100_000.0)),
        ),
    ] {
        let cfg = LenderConfig {
            name: "laptop".into(),
            opportunity: opp,
            owner,
            driver: DriverKind::Adaptive(Arc::new(AdaptiveGuideline::default())),
            // Results are due 10 hours (1800 c-units) after the handoff.
            deadline: Some(secs(1800.0)),
        };
        let report = NowSim::new(vec![cfg], bag.clone()).run().unwrap();
        let m = &report.lenders[0].1;
        println!(
            "  {label:<24} {:>6}/{} cells, banked {:>7.1}, lost {:>6.1}, reason {:?}",
            m.tasks_completed, total_cells, m.task_work, m.lost_time, m.done_reason
        );
    }

    // --- Guaranteed vs expected planning ----------------------------------
    println!("\nIf the owner is merely random (uniform return in [0, U]),");
    println!("the expected-output companion model (paper I) plans differently:");
    let law = InterruptLaw::Uniform { horizon: u };
    let dp = ExpectedDp::solve(c, 8, u, &law);
    let s_guaranteed = optimal_p1_schedule(u, c).unwrap();
    let s_expected = dp.schedule().unwrap();
    println!(
        "  guaranteed-optimal schedule: {} periods, E[W] = {:.1}",
        s_guaranteed.len(),
        expected_work(&s_guaranteed, c, &law)
    );
    println!(
        "  expected-optimal schedule:   {} periods, E[W] = {:.1}",
        s_expected.len(),
        dp.value()
    );
    println!(
        "  (the guaranteed-output plan trades ~{:.1} expected work for its worst-case floor of {:.1})",
        dp.value() - expected_work(&s_guaranteed, c, &law),
        w1_exact(u, c)
    );
}
