//! A persistent worker pool for long-lived services.
//!
//! The scoped helpers in the crate root ([`crate::par_map_threads`])
//! spin threads up per call — right for
//! batch sweeps, wrong for a server that fields thousands of small
//! requests: per-request thread spawn latency would dominate the work.
//! [`WorkerPool`] keeps a fixed set of workers alive for the life of
//! the service (`cyclesteal-serve`'s broker owns one), feeding them
//! through a shared queue.
//!
//! Jobs are `'static` closures (the pool outlives any caller's stack
//! frame); [`WorkerPool::scatter`] adds the deterministic
//! collect-in-input-order contract of [`crate::par_map_threads`] on
//! top, so swapping a scoped fan-out for a pooled one never reorders
//! results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads fed by a shared
/// queue. Dropping the pool closes the queue and joins every worker
/// (pending jobs finish first).
pub struct WorkerPool {
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Spawns `threads` workers (`0` resolves through
    /// [`crate::default_threads`], honoring `CYCLESTEAL_THREADS`).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = if threads == 0 {
            crate::default_threads()
        } else {
            threads
        };
        // Mutex<Receiver> rather than an MPMC channel because the
        // vendored crossbeam subset wraps std mpsc (single-consumer);
        // jobs here are coarse (whole solves), so the hand-off lock is
        // nowhere near the critical path.
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(parking_lot::Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || loop {
                    // Holding the lock while blocked on recv is the
                    // classic hand-off: the next idle worker queues on
                    // the mutex and takes the next job.
                    let job = match rx.lock().recv() {
                        Ok(job) => job,
                        Err(_) => break, // queue closed: pool dropped
                    };
                    // A panicking job must not kill the worker — the
                    // panic resurfaces at the caller waiting on the
                    // job's result channel instead (see `scatter`).
                    let _ = catch_unwind(AssertUnwindSafe(job));
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            threads,
        }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues one fire-and-forget job.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool alive until drop")
            .send(Box::new(job))
            .expect("workers alive until drop");
    }

    /// Runs every job on the pool and returns the results **in input
    /// order** — the pooled counterpart of [`crate::par_map_threads`].
    /// The calling thread blocks until all jobs finish.
    ///
    /// Panics if a job panicked (the worker itself survives).
    pub fn scatter<R, F>(&self, jobs: Vec<F>) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let n = jobs.len();
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.spawn(move || {
                // Send after the job: a panic drops this sender, which
                // surfaces below as a missing result.
                let out = job();
                let _ = tx.send((i, out));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx.iter() {
            debug_assert!(slots[i].is_none(), "job {i} produced twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("pool job {i} panicked")))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue lets each worker's recv() fail and exit.
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<_> = (0..100u64).map(|i| move || i * i).collect();
        let out = pool.scatter(jobs);
        assert_eq!(out, (0..100u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        for round in 0..10u64 {
            let out = pool.scatter((0..8u64).map(|i| move || i + round).collect());
            assert_eq!(out, (0..8u64).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn spawn_runs_detached_jobs() {
        let pool = WorkerPool::new(3);
        let hits = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..32 {
            let hits = hits.clone();
            let tx = tx.clone();
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 32);
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn zero_resolves_to_default_threads() {
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scatter(
                (0..4u32)
                    .map(|i| move || if i == 2 { panic!("boom") } else { i })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(result.is_err(), "scatter must propagate the panic");
        // The workers survived: the next batch still completes.
        let out = pool.scatter((0..4u32).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_joins_after_pending_jobs() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let hits = hits.clone();
                pool.spawn(move || {
                    #[cfg_attr(
                        clippy,
                        expect(
                            clippy::disallowed_methods,
                            reason = "the sleep keeps jobs queued while the pool drops; its timing reaches no output"
                        )
                    )]
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        // Drop joined the workers; every queued job ran.
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }
}
