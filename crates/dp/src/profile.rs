//! Solver phase profiling over an injected [`Clock`].
//!
//! The determinism lint bans `Instant::now` in this crate, so phase
//! timings go through `cyclesteal-obs`'s [`Clock`] trait: production
//! callers (the serving layer, the benches) inject a wall-backed clock
//! from *outside* the determinism fence, tests inject the logical
//! clock, and unprofiled solves don't read any clock at all. The clock
//! is only ever read **between** phases — never inside the build
//! loops — so profiling cannot perturb solver output: a profiled solve
//! is bit-identical to an unprofiled one (pinned by
//! `profiled_solves_are_bit_identical`).
//!
//! Phases map onto the solver's real structure:
//!
//! - [`Phase::SkeletonBuild`] — the tick-walking reference build
//!   (`compressed::walk_level`), one walk per interrupt level.
//! - [`Phase::EventLoop`] — the event-driven run-skipping build loop
//!   (`event::build_level_events`): the production solve, one build per
//!   interrupt level.
//! - [`Phase::RunCompression`] — compressing a completed level, from
//!   either build, into its arithmetic runs (`run::RunRow::compress`),
//!   once per interrupt level.

use cyclesteal_obs::Clock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of distinct [`Phase`]s.
pub const PHASE_COUNT: usize = 3;

/// One timed stage of a solve (see the module docs for the mapping
/// onto solver internals).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Tick-walking reference build.
    SkeletonBuild,
    /// Event-driven (run-skipping) build loop.
    EventLoop,
    /// Run compression of a completed level (either build).
    RunCompression,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::SkeletonBuild,
        Phase::EventLoop,
        Phase::RunCompression,
    ];

    /// Stable snake_case name, used as the metric label value.
    pub fn name(self) -> &'static str {
        match self {
            Phase::SkeletonBuild => "skeleton_build",
            Phase::EventLoop => "event_loop",
            Phase::RunCompression => "run_compression",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::SkeletonBuild => 0,
            Phase::EventLoop => 1,
            Phase::RunCompression => 2,
        }
    }
}

/// Accumulated per-phase durations and call counts for one solve (or a
/// batch of solves sharing a recorder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    ns: [u64; PHASE_COUNT],
    calls: [u64; PHASE_COUNT],
}

impl PhaseTimings {
    /// Accumulated nanoseconds spent in `phase`.
    pub fn ns(&self, phase: Phase) -> u64 {
        self.ns[phase.index()]
    }

    /// How many times `phase` was entered.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.index()]
    }

    /// Nanoseconds summed over all phases.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// `(phase, ns, calls)` triples in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64, u64)> + '_ {
        Phase::ALL
            .iter()
            .map(move |&p| (p, self.ns(p), self.calls(p)))
    }
}

/// Accumulates phase timings against an injected clock. Thread-safe:
/// `TableCache`'s fanned-out batch solves may share one recorder.
pub struct PhaseRecorder<'c> {
    clock: &'c dyn Clock,
    ns: [AtomicU64; PHASE_COUNT],
    calls: [AtomicU64; PHASE_COUNT],
}

impl<'c> PhaseRecorder<'c> {
    /// A recorder reading `clock` at phase boundaries.
    pub fn new(clock: &'c dyn Clock) -> PhaseRecorder<'c> {
        PhaseRecorder {
            clock,
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Runs `f`, attributing its duration to `phase`.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = self.clock.now_ns();
        let out = f();
        let elapsed = self.clock.now_ns().saturating_sub(start);
        self.ns[phase.index()].fetch_add(elapsed, Ordering::Relaxed);
        self.calls[phase.index()].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Snapshot of the accumulated timings.
    pub fn timings(&self) -> PhaseTimings {
        PhaseTimings {
            ns: std::array::from_fn(|i| self.ns[i].load(Ordering::Relaxed)),
            calls: std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed)),
        }
    }
}

/// The callback [`crate::TableCache::set_profiling`] offers each
/// profiled solve's timings.
pub type ProfileSink = Box<dyn Fn(&PhaseTimings) + Send + Sync>;

/// Time `f` as `phase` when a recorder is present, else just run it.
/// The solver entry points thread an `Option` so the unprofiled path
/// does not even pay the no-op clock reads.
pub(crate) fn time_opt<T>(
    prof: Option<&PhaseRecorder<'_>>,
    phase: Phase,
    f: impl FnOnce() -> T,
) -> T {
    match prof {
        Some(rec) => rec.time(phase, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclesteal_obs::LogicalClock;

    #[test]
    fn recorder_attributes_time_per_phase() {
        let clock = LogicalClock::new();
        let rec = PhaseRecorder::new(&clock);
        rec.time(Phase::SkeletonBuild, || clock.advance(100));
        rec.time(Phase::EventLoop, || clock.advance(40));
        rec.time(Phase::EventLoop, || clock.advance(2));
        let t = rec.timings();
        assert_eq!(t.ns(Phase::SkeletonBuild), 100);
        assert_eq!(t.calls(Phase::SkeletonBuild), 1);
        assert_eq!(t.ns(Phase::EventLoop), 42);
        assert_eq!(t.calls(Phase::EventLoop), 2);
        assert_eq!(t.ns(Phase::RunCompression), 0);
        assert_eq!(t.total_ns(), 142);
    }

    #[test]
    fn iter_yields_all_phases_in_order() {
        let clock = LogicalClock::with_step(1);
        let rec = PhaseRecorder::new(&clock);
        rec.time(Phase::EventLoop, || ());
        let t = rec.timings();
        let seen: Vec<(Phase, u64, u64)> = t.iter().collect();
        assert_eq!(seen.len(), PHASE_COUNT);
        assert_eq!(seen[1], (Phase::EventLoop, 1, 1));
        assert_eq!(
            Phase::ALL.map(Phase::name).join(","),
            "skeleton_build,event_loop,run_compression"
        );
    }

    #[test]
    fn noop_recorder_costs_nothing_and_records_zero() {
        let clock = cyclesteal_obs::NoopClock;
        let rec = PhaseRecorder::new(&clock);
        let v = rec.time(Phase::RunCompression, || 7);
        assert_eq!(v, 7);
        let t = rec.timings();
        assert_eq!(t.total_ns(), 0);
        assert_eq!(t.calls(Phase::RunCompression), 1);
    }
}
