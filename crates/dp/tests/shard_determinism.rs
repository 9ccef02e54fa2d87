//! The shard-clock determinism rule, pinned as an integration suite:
//! sharding `TableCache` is a contention knob, never a semantics knob.
//! For a fixed seeded workload, `CacheStats` (hits / misses / evictions
//! / resident_bytes) **and the eviction victim sequence** must be
//! bit-identical across shard counts ∈ {1, 4, 16} — eviction picks the
//! *globally* least-recently-used
//! entry by the one shared logical clock, so shard layout can never
//! leak into what gets dropped or when.

use cyclesteal_core::prelude::*;
use cyclesteal_dp::{SolveConfig, TableCache};
use std::sync::{Arc, Mutex};

/// Grid identity of an eviction victim:
/// `(setup_bits, q, max_interrupts, max_ticks)`.
type Victim = (u64, u32, u32, i64);

/// One observable outcome of a run: the final stats tuple plus the
/// grid identity of every eviction victim, in eviction order.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Outcome {
    hits: u64,
    misses: u64,
    evictions: u64,
    compressed_entries: usize,
    resident_bytes: usize,
    victims: Vec<Victim>,
}

/// SplitMix64, the repo's standard seedless mixing primitive — drives
/// the workload's grid/lifespan choices deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Runs the fixed seeded workload against a cache with the given shard
/// count. The workload is applied sequentially (the clock-stamp order is
/// part of the contract) and mixes gets, lookup-only probes, batch
/// solves and budget squeezes.
fn run(seed: u64, shards: usize) -> Outcome {
    let cache = TableCache::with_shards(shards);
    let victims: Arc<Mutex<Vec<Victim>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = victims.clone();
    cache.set_evict_hook(Some(Box::new(move |t| {
        sink.lock().unwrap().push((
            t.grid().setup().get().to_bits(),
            t.grid().q() as u32,
            t.max_interrupts(),
            t.max_ticks(),
        ));
    })));

    for step in 0..40u64 {
        let r = splitmix64(seed ^ step);
        let grid = 1 + r % 7;
        let q = 4u32 << ((r >> 8) % 2);
        let p = 1 + ((r >> 16) % 3) as u32;
        let lifespan = secs(100.0 + ((r >> 24) % 400) as f64);
        match (r >> 40) % 4 {
            0 => {
                let _ = cache.get_compressed(secs(grid as f64), q, lifespan, p);
            }
            1 => {
                let _ = cache.try_get_compressed(secs(grid as f64), q, lifespan, p);
            }
            2 => {
                let configs: Vec<SolveConfig> = (0..3)
                    .map(|i| SolveConfig {
                        setup: secs((1 + (grid + i) % 7) as f64),
                        ticks_per_setup: q,
                        max_lifespan: lifespan,
                        max_interrupts: p,
                    })
                    .collect();
                let _ = cache.solve_many(&configs);
            }
            _ => {
                let _ = cache.get_compressed(secs(grid as f64), q, lifespan, p);
                // Squeeze to half the current footprint, then unbound
                // again: resident_bytes is itself shard-invariant, so
                // the squeeze point is identical across runs.
                let resident = cache.stats().resident_bytes;
                cache.set_memory_budget(Some(resident / 2));
                cache.set_memory_budget(None);
            }
        }
    }

    let s = cache.stats();
    let seen = victims.lock().unwrap().clone();
    Outcome {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        compressed_entries: s.compressed_entries,
        resident_bytes: s.resident_bytes,
        victims: seen,
    }
}

#[test]
fn stats_and_victim_sequence_are_invariant_across_shards() {
    for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
        let baseline = run(seed, 1);
        assert!(
            baseline.evictions > 0 && !baseline.victims.is_empty(),
            "seed {seed:#x}: the workload must actually evict to pin the rule"
        );
        for shards in [4usize, 16] {
            let outcome = run(seed, shards);
            assert_eq!(
                outcome, baseline,
                "seed {seed:#x}: {shards} shards diverged"
            );
        }
    }
}

#[test]
fn compressed_snapshot_listing_is_shard_invariant() {
    // `compressed_tables()` feeds the persistence layer; its order must
    // not depend on shard layout either.
    let identity = |shards: usize| {
        let cache = TableCache::with_shards(shards);
        for grid in 1..=6u64 {
            let _ = cache.get_compressed(secs(grid as f64), 4, secs(150.0), 2);
        }
        cache
            .compressed_tables()
            .iter()
            .map(|t| (t.grid().setup().get().to_bits(), t.grid().q()))
            .collect::<Vec<_>>()
    };
    let baseline = identity(1);
    assert_eq!(baseline.len(), 6);
    assert_eq!(identity(4), baseline);
    assert_eq!(identity(16), baseline);
}
