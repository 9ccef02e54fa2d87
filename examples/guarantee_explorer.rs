//! Guarantee explorer: sweep `(U/c, p)` in parallel and print how the
//! paper's schedules stack up against the exact optimum and against each
//! other — the adaptive-vs-non-adaptive separation that motivates the
//! whole paper, as one table.
//!
//! ```sh
//! cargo run --release --example guarantee_explorer
//! ```

use cyclesteal::prelude::*;
use cyclesteal_par::{par_map, sweep};

fn main() {
    let c = secs(1.0);
    let us = sweep::geometric(128.0, 8192.0, 4.0);
    let ps: Vec<u32> = vec![1, 2, 3, 4];

    // One cached DP solve covers the whole sweep (largest U, largest p):
    // a row for L_max contains every smaller lifespan, so all cells below
    // are plain lookups into the shared table.
    let max_u = secs(*us.last().unwrap());
    let p_max = *ps.last().unwrap();
    let cache = TableCache::global();
    println!(
        "[{} worker thread(s) for the policy evaluations and the sweep]",
        cyclesteal_par::default_threads()
    );
    let table = &cache.solve_many(&[SolveConfig {
        setup: c,
        ticks_per_setup: 8,
        max_lifespan: max_u,
        max_interrupts: p_max,
    }])[0];
    let adaptive = evaluate_policy(
        &AdaptiveGuideline::default(),
        c,
        8,
        max_u,
        *ps.last().unwrap(),
        EvalOptions::default(),
    )
    .unwrap();
    let selfsim = evaluate_policy(
        &SelfSimilarGuideline::default(),
        c,
        8,
        max_u,
        *ps.last().unwrap(),
        EvalOptions::default(),
    )
    .unwrap();

    let cells = sweep::cartesian(&us, &ps);
    let rows = par_map(&cells, |&(u, p)| {
        let opp = Opportunity::from_units(u, 1.0, p);
        // One shared table serves every cell lock-free; the cache holds
        // it for any later sweep in the same process.
        let w_opt = table.value(p, secs(u));
        let w_ad = adaptive.value(p, secs(u));
        let w_ss = selfsim.value(p, secs(u));
        let run = NonAdaptiveGuideline::run(&opp).unwrap();
        let w_na = worst_case(&run).work;
        (u, p, w_opt, w_ad, w_ss, w_na)
    });

    println!(
        "{:>8} {:>3} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "U/c", "p", "W optimal", "§3.2 arith", "self-sim", "non-adapt", "ss/opt", "na/opt"
    );
    for (u, p, w_opt, w_ad, w_ss, w_na) in rows {
        let frac = |w: Work| {
            if w_opt.is_positive() {
                format!("{:.3}", w.ratio(w_opt))
            } else {
                "—".into()
            }
        };
        println!(
            "{:>8} {:>3} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>9} {:>9}",
            u,
            p,
            w_opt,
            w_ad,
            w_ss,
            w_na,
            frac(w_ss),
            frac(w_na)
        );
    }

    // ---- Large horizons: the compressed oracle ----------------------
    // Beyond ~10⁶ ticks a dense policy evaluation stops being an option;
    // the same run-backed table and the knot-compressed evaluator carry
    // the sweep to 10⁷ ticks and beyond in milliseconds and megabytes.
    let deep_ticks: i64 = 10_000_000;
    let q = 8u32;
    let deep_u = secs(deep_ticks as f64 / q as f64);
    let deep = cache.get_compressed(c, q, deep_u, 2);
    let deep_ad = evaluate_policy_compressed(
        &AdaptiveGuideline::default(),
        c,
        q,
        deep_u,
        2,
        CompressedEvalOptions::default(),
    )
    .unwrap();
    println!(
        "\n{:>10} {:>3} {:>12} {:>12} {:>8}",
        "U/c", "p", "W optimal", "§3.2 arith", "ad/opt"
    );
    for &u in &[100_000.0, 400_000.0, 1_250_000.0] {
        for p in 1..=2u32 {
            let w_opt = deep.value(p, secs(u));
            let w_ad = deep_ad.value(p, secs(u));
            println!(
                "{:>10} {:>3} {:>12.0} {:>12.0} {:>8.4}",
                u,
                p,
                w_opt,
                w_ad,
                w_ad.ratio(w_opt)
            );
        }
    }
    println!(
        "[deep table: {} breakpoints compressed into {} stored descriptors over {} ticks, {} events to build, {} KiB]",
        (0..=2).map(|p| deep.breakpoints(p)).sum::<usize>(),
        (0..=2).map(|p| deep.stored_breakpoints(p)).sum::<usize>(),
        deep.max_ticks(),
        deep.events(),
        deep.memory_bytes() >> 10
    );

    let stats = cache.stats();
    println!(
        "\n[table cache: {} solve(s) and {} cached table(s) served {} sweep cells]",
        stats.misses,
        stats.compressed_entries,
        cells.len()
    );
    println!("\nReading the table: the corrected self-similar guideline tracks the exact");
    println!("optimum at every p and beats the committed schedule throughout this range;");
    println!("the paper's arithmetic §3.2 profile trails it as p grows. The committed");
    println!("schedule closes in once p ≳ (U/c)^(1/3) — see EXPERIMENTS.md E5/E7.");
}
