//! # cyclesteal-par
//!
//! Small, deterministic parallel-sweep utilities used by the cyclesteal
//! benches and the simulator's Monte-Carlo harness.
//!
//! The workloads here are embarrassingly parallel (value-table solves and
//! game evaluations over a `(U/c, p)` parameter grid), so the machinery is
//! deliberately simple: scoped threads, an atomic chunk cursor for dynamic
//! load balancing, and a channel to collect `(index, result)` pairs so the
//! output order — and therefore every downstream report — is independent of
//! thread scheduling.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod pool;
pub mod sweep;

pub use pool::WorkerPool;

use crossbeam::channel;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads used by default: the `CYCLESTEAL_THREADS`
/// environment override when set to a positive integer, otherwise the
/// machine's available parallelism capped at 16 (the sweeps saturate
/// memory bandwidth well before that).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CYCLESTEAL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(16)
}

/// Chunk size for the atomic work-claiming cursor: ~8 chunks per worker
/// on large inputs (load balance), but never finer than ~2 chunks per
/// worker on small ones — claiming single items would put every worker
/// on the cursor cache line between every item.
pub(crate) fn chunk_size(n: usize, threads: usize) -> usize {
    if n >= threads * 16 {
        n / (threads * 8)
    } else {
        n.div_ceil(threads * 2)
    }
    .max(1)
}

/// Applies `f` to every item of `items` on `threads` scoped workers and
/// returns the results **in input order**.
///
/// Items are claimed in chunks through an atomic cursor, so long-running
/// items do not serialize the sweep; the `(index, value)` channel restores
/// determinism regardless of which worker computed what.
///
/// Panics in `f` propagate to the caller when the scope joins.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }

    let chunk = chunk_size(n, threads);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = channel::bounded::<(usize, R)>(n);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for (i, item) in items[start..end].iter().enumerate() {
                    // The channel is sized for every result; send cannot
                    // block or fail while the receiver lives.
                    let _ = tx.send((start + i, f(item)));
                }
            });
        }
        drop(tx);
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in rx.iter() {
        debug_assert!(slots[i].is_none(), "index {i} produced twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("index {i} never produced")))
        .collect()
}

/// Splits `0..len` into consecutive half-open ranges of at most `block`
/// items — the blocking scheme the batch simulator fans over a
/// [`WorkerPool`]. Consecutive, in-order blocks are what make a
/// block-parallel reduction independent of which worker ran what: block
/// `k` always covers the same indices, and a sequential merge in block
/// order is a sequential merge in item order.
///
/// # Panics
/// Panics if `block == 0`.
pub fn block_ranges(len: usize, block: usize) -> Vec<std::ops::Range<usize>> {
    assert!(block > 0, "block size must be positive");
    let mut out = Vec::with_capacity(len.div_ceil(block));
    let mut start = 0usize;
    while start < len {
        let end = (start + block).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// [`par_map_threads`] with [`default_threads`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, default_threads(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_in_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        let par = par_map(&items, |x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |x| x + 1).is_empty());
        assert_eq!(par_map(&[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<i64> = (0..1234).collect();
        let expect: Vec<i64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_threads(&items, threads, |x| x * 3), expect);
        }
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = (0..64).collect();
        let cost = |&x: &u64| {
            let spin = if x % 7 == 0 { 200_000 } else { 10 };
            (0..spin).fold(x, |a, b| a.wrapping_add(b % 13))
        };
        let out = par_map(&items, cost);
        let seq: Vec<u64> = items.iter().map(cost).collect();
        assert_eq!(out, seq);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map(&items, |&x| {
            if x == 57 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn default_threads_is_sane() {
        let t = default_threads();
        assert!(t >= 1);
    }

    #[test]
    fn block_ranges_tile_the_index_space_exactly() {
        for (len, block) in [(0usize, 1usize), (1, 1), (10, 3), (12, 4), (5, 100)] {
            let ranges = block_ranges(len, block);
            let mut covered = 0usize;
            for r in &ranges {
                assert_eq!(r.start, covered, "blocks must be consecutive");
                assert!(r.end - r.start <= block);
                assert!(r.end > r.start, "no empty blocks");
                covered = r.end;
            }
            assert_eq!(covered, len);
            // Only the last block may be short.
            for r in ranges.iter().rev().skip(1) {
                assert_eq!(r.end - r.start, block);
            }
        }
    }

    #[test]
    #[should_panic]
    fn block_ranges_reject_zero_blocks() {
        let _ = block_ranges(10, 0);
    }

    #[test]
    fn chunk_size_never_degenerates_on_small_inputs() {
        // Small inputs: ~2 chunks per worker, not chunk=1 cursor thrash.
        assert_eq!(chunk_size(20, 8), 2);
        assert_eq!(chunk_size(16, 16), 1); // n == threads: 1 item each
        assert_eq!(chunk_size(48, 4), 6); // just under the cutover: 2/worker
                                          // Large inputs: ~8 chunks per worker for load balance.
        assert_eq!(chunk_size(6400, 8), 100);
        assert!(chunk_size(1, 16) >= 1);
    }
}
