//! Serving-side observability: the production [`Clock`], the shared
//! metrics/trace hub every pipeline stage records into, and the
//! server-assigned trace-id generator.
//!
//! The `cyclesteal-obs` crate itself is deterministic (it denies the
//! determinism lints and never reads wall time); the serving
//! layer is where real time is allowed, so the production
//! [`WallClock`] lives here and is *injected* into the broker, the
//! cache profiler and the span journal. Tests inject
//! [`cyclesteal_obs::LogicalClock`] instead and get byte-stable
//! timings.

use cyclesteal_obs::{Clock, Registry, SpanJournal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Span-journal capacity of a [`ObsHub::new`] hub: enough to hold the
/// full pipeline fan-out (7 stages) of ~500 recent traced requests
/// without growing past a few hundred KiB.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Monotonic wall clock: nanoseconds since the clock was built, read
/// from [`Instant`]. This is the production [`Clock`] the serving layer
/// injects; it never goes backwards and never panics.
pub struct WallClock {
    base: Instant,
}

impl WallClock {
    /// A clock anchored at "now"; all readings are relative to it.
    pub fn new() -> WallClock {
        WallClock {
            base: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // Saturate instead of wrapping: an Instant delta outruns u64
        // nanoseconds only after ~584 years of uptime.
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The shared observability hub: one metrics [`Registry`], one
/// [`SpanJournal`], one injected [`Clock`], and the server-side
/// trace-id source. Cheap to clone (all `Arc`s inside); the broker,
/// the TCP server and the cache profiling sink all hold clones of one
/// hub, so an op-4 pull sees every stage's data in one snapshot.
#[derive(Clone)]
pub struct ObsHub {
    registry: Arc<Registry>,
    journal: Arc<SpanJournal>,
    clock: Arc<dyn Clock>,
    next_trace: Arc<AtomicU64>,
}

impl ObsHub {
    /// A production hub: [`WallClock`] time, default journal capacity.
    pub fn new() -> ObsHub {
        ObsHub::with_clock(Arc::new(WallClock::new()))
    }

    /// A hub over an explicit clock — how tests inject
    /// [`cyclesteal_obs::LogicalClock`] for byte-stable span timings.
    pub fn with_clock(clock: Arc<dyn Clock>) -> ObsHub {
        ObsHub {
            registry: Arc::new(Registry::new()),
            journal: Arc::new(SpanJournal::new(DEFAULT_JOURNAL_CAPACITY)),
            clock,
            next_trace: Arc::new(AtomicU64::new(1)),
        }
    }

    /// The hub's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The hub's span journal.
    pub fn journal(&self) -> &Arc<SpanJournal> {
        &self.journal
    }

    /// The injected clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current clock reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The span-start stamp for a request: the clock reading when
    /// traced, 0 when `trace_id` is 0 — so untraced traffic never pays
    /// a clock read.
    pub fn start_ns(&self, trace_id: u64) -> u64 {
        if trace_id == 0 {
            0
        } else {
            self.clock.now_ns()
        }
    }

    /// Records a `[start_ns, now]` span for `trace_id` under `stage`.
    /// A zero trace id is the untraced sentinel: nothing is recorded,
    /// making this free on the untraced hot path.
    pub fn span(&self, trace_id: u64, stage: &str, start_ns: u64) {
        if trace_id != 0 {
            self.journal
                .record_span(trace_id, stage, start_ns, self.clock.now_ns());
        }
    }

    /// A fresh server-assigned trace id — nonzero, well-mixed
    /// (splitmix64 over a monotone counter), for requests that arrived
    /// untraced but should still be followable through the pipeline.
    pub fn assign_trace_id(&self) -> u64 {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        crate::faults::splitmix64(n).max(1)
    }
}

impl Default for ObsHub {
    fn default() -> ObsHub {
        ObsHub::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_obs::LogicalClock;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = WallClock::new();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn zero_trace_ids_record_nothing() {
        let hub = ObsHub::with_clock(Arc::new(LogicalClock::with_step(10)));
        assert_eq!(hub.start_ns(0), 0, "untraced start pays no clock read");
        hub.span(0, "broker.batch", 0);
        assert!(hub.journal().is_empty());
        let start = hub.start_ns(7);
        hub.span(7, "broker.batch", start);
        let spans = hub.journal().snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].trace_id, spans[0].stage.as_str()),
            (7, "broker.batch")
        );
        assert!(spans[0].end_ns > spans[0].start_ns);
    }

    #[test]
    fn assigned_trace_ids_are_nonzero_and_distinct() {
        let hub = ObsHub::new();
        let ids: Vec<u64> = (0..64).map(|_| hub.assign_trace_id()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "no collisions in 64 draws");
    }
}
