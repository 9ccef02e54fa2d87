//! Determinism and equivalence properties of the struct-of-arrays batch
//! simulator.
//!
//! The contracts pinned here are the ones the `sim-validate` CI gate
//! leans on:
//!
//! 1. **Scheduling invariance** — a batch report is bit-identical at any
//!    worker-thread count (including `threads: 0`, which resolves
//!    through `CYCLESTEAL_THREADS`; the `deep-props` CI matrix runs this
//!    suite at 1 and 4 threads) and at any block size.
//! 2. **Scalar equivalence** — one episode of a batch, replayed through
//!    an `OwnerTrace` into the event-driven `NowSim` engine driven by
//!    the same table's optimal policy, banks the *bit-identical* amount
//!    of continuum work.
//! 3. **Guarantee dominance** — no adversary in the catalogue ever
//!    drives observed output below `W^(p)[L]`, and the worst-case owner
//!    realizes it exactly.

use cyclesteal_core::model::Opportunity;
use cyclesteal_core::time::secs;
use cyclesteal_dp::{CompressedOptimalPolicy, CompressedTable};
use cyclesteal_workloads::{OwnerEvent, OwnerTrace, TaskBag, TaskDist};
use now_sim::{
    BatchAdversary, BatchConfig, BatchSim, DoneReason, DriverKind, LenderConfig, NowSim,
};
use std::sync::Arc;

fn table(q: u32, p: u32, l_ticks: i64) -> Arc<CompressedTable> {
    Arc::new(CompressedTable::solve_event_driven(
        secs(1.0),
        q,
        secs(l_ticks as f64 / q as f64),
        p,
    ))
}

fn base_cfg(adversary: BatchAdversary) -> BatchConfig {
    BatchConfig {
        table: table(8, 3, 2048),
        lifespan_ticks: 2048,
        interrupts: 3,
        episodes: 2000,
        seed: 0xBA7C4,
        adversary,
        block: 0,
        threads: 1,
    }
}

fn adversary_catalogue() -> [BatchAdversary; 4] {
    [
        BatchAdversary::Quiet,
        BatchAdversary::Worst,
        BatchAdversary::Poisson {
            mean_gap_ticks: 300.0,
        },
        BatchAdversary::UniformPerPeriod { per_mille: 350 },
    ]
}

#[test]
fn reports_are_bit_identical_across_thread_counts() {
    for adversary in adversary_catalogue() {
        let reference = BatchSim::new(base_cfg(adversary)).run();
        assert_eq!(reference.violations, 0, "{adversary:?}");
        // 0 resolves through default_threads() — under the deep-props CI
        // matrix that is CYCLESTEAL_THREADS ∈ {1, 4}.
        for threads in [0usize, 2, 4, 7] {
            let cfg = BatchConfig {
                threads,
                ..base_cfg(adversary)
            };
            let report = BatchSim::new(cfg).run();
            assert_eq!(
                report, reference,
                "{adversary:?}: report diverged at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn reports_are_bit_identical_across_block_sizes() {
    for adversary in [
        BatchAdversary::Worst,
        BatchAdversary::Poisson {
            mean_gap_ticks: 300.0,
        },
    ] {
        let reference = BatchSim::new(base_cfg(adversary)).run();
        for block in [1usize, 7, 100, 1999, 100_000] {
            let cfg = BatchConfig {
                block,
                threads: 4,
                ..base_cfg(adversary)
            };
            let report = BatchSim::new(cfg).run();
            assert_eq!(
                report, reference,
                "{adversary:?}: report diverged at block size {block}"
            );
        }
    }
}

/// One episode of a batch == the scalar event engine on the same trace.
///
/// The bridge: replay the episode's interrupt ticks into an
/// [`OwnerTrace`] (scaled by the grid's tick length) and drive `NowSim`
/// with the same table's optimal policy. On a binary-exact grid
/// (tick = 1/4) every f64 the engine computes is an exact multiple of
/// the tick, so the comparison is `==`, not approx. The `Worst`
/// adversary is excluded by design: it kills at the period's *last
/// instant*, which the event engine's half-open window reads as a
/// completion — its anchor is the analytic value instead (below).
#[test]
fn single_episodes_match_the_scalar_engine_bit_for_bit() {
    let q = 4u32;
    let l_ticks = 1024i64;
    let p = 2u32;
    let tbl = table(q, p, l_ticks);
    let tick = tbl.grid().tick();
    let lifespan = tick * l_ticks as f64;
    assert_eq!(lifespan, secs(256.0));

    let mut compared = 0usize;
    for adversary in [
        BatchAdversary::Quiet,
        BatchAdversary::Poisson {
            mean_gap_ticks: 150.0,
        },
        BatchAdversary::UniformPerPeriod { per_mille: 300 },
    ] {
        let sim = BatchSim::new(BatchConfig {
            table: tbl.clone(),
            lifespan_ticks: l_ticks,
            interrupts: p,
            episodes: 24,
            seed: 0x5EED,
            adversary,
            block: 0,
            threads: 1,
        });
        let report = sim.run();
        assert_eq!(report.violations, 0, "{adversary:?}");

        for episode in 0..24usize {
            let ticks = sim.episode_interrupt_ticks(episode);
            // OwnerTrace requires strictly increasing instants; the rare
            // zero-gap double interrupt cannot be expressed as a trace.
            if ticks.windows(2).any(|w| w[0] >= w[1]) {
                continue;
            }
            let events: Vec<OwnerEvent> = ticks
                .iter()
                .map(|&at| OwnerEvent {
                    at_usable: tick * at as f64,
                    busy_wall: secs(0.0),
                })
                .collect();
            let cfg = LenderConfig {
                name: format!("episode-{episode}"),
                opportunity: Opportunity::new(lifespan, secs(1.0), p).unwrap(),
                owner: OwnerTrace::new(events),
                driver: DriverKind::Adaptive(Arc::new(CompressedOptimalPolicy::new(tbl.clone()))),
                deadline: None,
            };
            // 1/64 tasks pack any budget exactly; the bag never runs dry.
            let bag = TaskBag::generate_work(TaskDist::Constant(0.015625), secs(400.0), 1);
            let scalar = NowSim::new(vec![cfg], bag).run().unwrap();
            let m = &scalar.lenders[0].1;

            let batch_banked = tick * report.banked[episode] as f64;
            assert_eq!(
                m.continuum_work.get(),
                batch_banked.get(),
                "{adversary:?} episode {episode}: engine banked {} vs batch {}",
                m.continuum_work,
                batch_banked
            );
            assert_eq!(m.interrupts, report.interrupts_used[episode]);
            assert_eq!(m.done_reason, DoneReason::LifespanExhausted);
            assert_eq!(m.consumed_lifespan.get(), lifespan.get());
            compared += 1;
        }
    }
    assert!(
        compared >= 60,
        "too many episodes skipped for zero-gap doubles: {compared}"
    );
}

#[test]
fn worst_case_owner_realizes_the_analytic_value_exactly() {
    let tbl = table(8, 3, 2048);
    for p in 0..=3u32 {
        for l in [1i64, 7, 64, 513, 2048] {
            let report = BatchSim::new(BatchConfig {
                table: tbl.clone(),
                lifespan_ticks: l,
                interrupts: p,
                episodes: 4,
                seed: 1,
                adversary: BatchAdversary::Worst,
                block: 0,
                threads: 1,
            })
            .run();
            let w = tbl.value_ticks(p, l);
            assert_eq!(report.min_banked, w, "(p={p}, L={l})");
            assert_eq!(report.max_banked, w, "(p={p}, L={l})");
            assert_eq!(report.exact_matches as usize, report.episodes);
        }
    }
}
