//! Injectable monotonic clock.
//!
//! The determinism rules (clippy's `disallowed_methods` /
//! `disallowed_types`, denied at the root of this crate and of the
//! solver crates; see `docs/INVARIANTS.md`) ban `Instant::now` and
//! `SystemTime`, and this crate is inside that scope on purpose: `obs`
//! itself never reads a wall clock. Code that wants timings takes a
//! `&dyn Clock`, and the *production* impl (wrapping
//! `std::time::Instant`) lives in `cyclesteal-serve`
//! (`serve::obs::WallClock`), outside that scope. Tests and solver
//! crates use [`LogicalClock`] (deterministic, manually or
//! step-advanced) or [`NoopClock`] (free, always zero), so instrumented
//! solves stay bit-identical and need zero waivers.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic nanosecond source.
///
/// Implementations must be cheap and thread-safe; the returned value is
/// relative to an arbitrary per-process epoch, so only differences are
/// meaningful.
pub trait Clock: Send + Sync {
    /// Monotonic nanoseconds since an arbitrary epoch.
    fn now_ns(&self) -> u64;
}

/// A clock that always reads zero.
///
/// The default for uninstrumented solves: every span and phase records
/// a duration of exactly zero, and the solver pays one virtual call per
/// phase boundary — no syscalls, no nondeterminism.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopClock;

impl Clock for NoopClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// A deterministic logical clock for tests and solver-crate
/// instrumentation.
///
/// Reads return the current logical time; [`advance`](Self::advance)
/// moves it forward explicitly. With a nonzero `step`, every read
/// *also* auto-advances by `step` ns after returning, so consecutive
/// reads are strictly increasing — useful for asserting span ordering
/// without any wall clock.
#[derive(Debug, Default)]
pub struct LogicalClock {
    ns: AtomicU64,
    step: u64,
}

impl LogicalClock {
    /// A frozen logical clock starting at zero (reads do not advance).
    pub fn new() -> Self {
        Self::default()
    }

    /// A logical clock that auto-advances by `step` ns on every read.
    pub fn with_step(step: u64) -> Self {
        Self {
            ns: AtomicU64::new(0),
            step,
        }
    }

    /// Advance the clock by `delta` ns.
    pub fn advance(&self, delta: u64) {
        self.ns.fetch_add(delta, Ordering::Relaxed);
    }

    /// Set the clock to an absolute logical time.
    pub fn set(&self, ns: u64) {
        self.ns.store(ns, Ordering::Relaxed);
    }
}

impl Clock for LogicalClock {
    fn now_ns(&self) -> u64 {
        if self.step == 0 {
            self.ns.load(Ordering::Relaxed)
        } else {
            self.ns.fetch_add(self.step, Ordering::Relaxed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_clock_is_always_zero() {
        let c = NoopClock;
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn logical_clock_advances_explicitly() {
        let c = LogicalClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(17);
        assert_eq!(c.now_ns(), 17);
        c.set(5);
        assert_eq!(c.now_ns(), 5);
    }

    #[test]
    fn stepped_clock_is_strictly_increasing() {
        let c = LogicalClock::with_step(3);
        let a = c.now_ns();
        let b = c.now_ns();
        let d = c.now_ns();
        assert_eq!((a, b, d), (0, 3, 6));
    }

    #[test]
    fn clock_is_object_safe() {
        let clocks: Vec<Box<dyn Clock>> =
            vec![Box::new(NoopClock), Box::new(LogicalClock::with_step(1))];
        assert_eq!(clocks[0].now_ns(), 0);
        assert_eq!(clocks[1].now_ns(), 0);
        assert_eq!(clocks[1].now_ns(), 1);
    }
}
