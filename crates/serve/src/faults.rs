//! Seeded, deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a compact description of *how hostile the world
//! is*: per-injection-point per-mille probabilities for dropping a
//! connection mid-exchange, delaying reads, corrupting wire bytes,
//! panicking a solve, and failing snapshot writes. Installing a plan
//! ([`FaultPlan::install`]) arms test-only injection points threaded
//! through [`crate::server`], [`crate::broker`] and
//! `cyclesteal_store::save`; dropping the returned guard disarms them.
//!
//! **Determinism.** Every decision is a pure function of
//! `(seed, point, n)` where `n` is that point's own trigger counter —
//! `splitmix64(seed ^ point_salt ^ n)` against the plan's threshold. A
//! given seed therefore produces the same fault *schedule per point*
//! regardless of thread interleaving, which is what lets the
//! `serve_chaos` suite sweep seeds reproducibly.
//!
//! **Cost when disarmed.** Injection points check one relaxed atomic
//! and branch away — the production hot path pays a load, nothing more.
//!
//! This is a test harness, not an operational feature: plans are
//! process-global (one active plan at a time) and the API is intended
//! for the chaos suite and local experiments.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The injection points a [`FaultPlan`] can arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// Server drops the TCP connection instead of writing a response.
    DropConnection,
    /// Server stalls before reading the next request frame.
    DelayRead,
    /// Server flips one byte of the encoded response frame (the frame
    /// CRC turns this into a detectable transport error, never a wrong
    /// value).
    CorruptFrame,
    /// The broker's solve panics (contained by the flight machinery).
    PanicSolve,
    /// A `cyclesteal_store` snapshot write fails with an injected I/O
    /// error.
    FailStoreWrite,
}

impl FaultPoint {
    fn index(self) -> usize {
        match self {
            FaultPoint::DropConnection => 0,
            FaultPoint::DelayRead => 1,
            FaultPoint::CorruptFrame => 2,
            FaultPoint::PanicSolve => 3,
            FaultPoint::FailStoreWrite => 4,
        }
    }

    /// Distinct salt per point so the per-point schedules are
    /// independent streams of the same seed.
    fn salt(self) -> u64 {
        [
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0xd6e8_feb8_6659_fd93,
            0xa076_1d64_78bd_642f,
        ][self.index()]
    }
}

const POINTS: usize = 5;

/// SplitMix64 — the one mixing primitive the whole harness (and the
/// client's retry jitter) uses. Public within the crate so there is
/// exactly one deterministic stream definition.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded description of which faults fire how often. Probabilities
/// are per-mille (`0..=1000`); `1000` fires on every consultation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of every per-point decision stream.
    pub seed: u64,
    /// ‰ chance the server drops the connection instead of responding.
    pub drop_connection_pm: u16,
    /// ‰ chance the server stalls [`FaultPlan::read_delay`] before
    /// reading the next frame.
    pub delay_read_pm: u16,
    /// How long a triggered read delay stalls.
    pub read_delay: Duration,
    /// ‰ chance one byte of a response frame is flipped.
    pub corrupt_frame_pm: u16,
    /// ‰ chance a solve panics.
    pub panic_solve_pm: u16,
    /// ‰ chance a snapshot write fails.
    pub fail_store_write_pm: u16,
}

impl FaultPlan {
    /// A plan with every fault disarmed (probability zero).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_connection_pm: 0,
            delay_read_pm: 0,
            read_delay: Duration::from_millis(0),
            corrupt_frame_pm: 0,
            panic_solve_pm: 0,
            fail_store_write_pm: 0,
        }
    }

    /// Derives a moderately hostile plan from a seed: each point's
    /// probability is sampled in `0..=250‰` (with occasional zero, so
    /// sampled plans also cover "this fault never fires"), read delays
    /// in `1..=8` ms. The same seed always derives the same plan.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let pm = |salt: u64| -> u16 {
            let r = splitmix64(seed ^ salt);
            // One seed in four disarms the point entirely.
            if r % 4 == 0 {
                0
            } else {
                ((r >> 8) % 251) as u16
            }
        };
        FaultPlan {
            seed,
            drop_connection_pm: pm(0x01),
            delay_read_pm: pm(0x02),
            read_delay: Duration::from_millis(1 + splitmix64(seed ^ 0x03) % 8),
            corrupt_frame_pm: pm(0x04),
            panic_solve_pm: pm(0x05),
            fail_store_write_pm: pm(0x06),
        }
    }

    fn threshold(self, point: FaultPoint) -> u16 {
        match point {
            FaultPoint::DropConnection => self.drop_connection_pm,
            FaultPoint::DelayRead => self.delay_read_pm,
            FaultPoint::CorruptFrame => self.corrupt_frame_pm,
            FaultPoint::PanicSolve => self.panic_solve_pm,
            FaultPoint::FailStoreWrite => self.fail_store_write_pm,
        }
    }

    /// Arms the plan process-wide; the returned guard disarms it (and
    /// unhooks the store's save fault) when dropped. Installing a new
    /// plan replaces any active one.
    pub fn install(self) -> FaultsGuard {
        let active = Arc::new(ActivePlan::new(self));
        *registry().lock().unwrap_or_else(|e| e.into_inner()) = Some(active);
        ARMED.store(true, Ordering::Release);
        // Store-layer hook: consult this module on every save attempt.
        cyclesteal_store::set_save_fault(Some(Box::new(|_path| {
            should(FaultPoint::FailStoreWrite)
        })));
        FaultsGuard { _priv: () }
    }
}

/// Disarms the active [`FaultPlan`] on drop.
pub struct FaultsGuard {
    _priv: (),
}

impl Drop for FaultsGuard {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Release);
        *registry().lock().unwrap_or_else(|e| e.into_inner()) = None;
        cyclesteal_store::set_save_fault(None);
    }
}

struct ActivePlan {
    plan: FaultPlan,
    /// One trigger counter per point: the `n` of the decision stream.
    counters: [AtomicU64; POINTS],
}

impl ActivePlan {
    fn new(plan: FaultPlan) -> ActivePlan {
        ActivePlan {
            plan,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// One decision: deterministic in `(seed, point, trigger index)`.
    fn decide(&self, point: FaultPoint) -> bool {
        let threshold = self.plan.threshold(point);
        if threshold == 0 {
            return false;
        }
        let n = self.counters[point.index()].fetch_add(1, Ordering::Relaxed);
        let roll = splitmix64(self.plan.seed ^ point.salt() ^ n) % 1000;
        roll < threshold as u64
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Option<Arc<ActivePlan>>> {
    static REGISTRY: OnceLock<Mutex<Option<Arc<ActivePlan>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(None))
}

fn active() -> Option<Arc<ActivePlan>> {
    if !ARMED.load(Ordering::Acquire) {
        return None;
    }
    registry().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Consults the active plan at `point`: deterministic in
/// `(seed, point, trigger index)`. Always `false` with no plan armed.
pub(crate) fn should(point: FaultPoint) -> bool {
    match active() {
        Some(active) => active.decide(point),
        None => false,
    }
}

/// The read-delay injection: `Some(delay)` when the point fires.
pub(crate) fn read_delay() -> Option<Duration> {
    let delay = active()?.plan.read_delay;
    should(FaultPoint::DelayRead).then_some(delay)
}

/// The solve-panic injection, consulted by the broker's flight leader
/// right before a solve. The panic is contained by the flight
/// machinery — it must never escape [`crate::Broker::query_batch`].
#[cfg_attr(
    clippy,
    expect(
        clippy::panic,
        reason = "this panic IS the injected fault; the chaos suite proves the flight machinery contains it"
    )
)]
pub(crate) fn maybe_panic_solve() {
    if should(FaultPoint::PanicSolve) {
        panic!("injected solve panic (fault plan)");
    }
}

/// Picks which byte of an encoded frame to flip when
/// [`FaultPoint::CorruptFrame`] fires; seeded off the frame length so
/// repeated corruptions of identical frames still vary position.
pub(crate) fn corrupt_position(frame_len: usize) -> usize {
    let seed = active().map(|a| a.plan.seed).unwrap_or(0);
    (splitmix64(seed ^ frame_len as u64) % frame_len.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_derive_deterministically_from_seeds() {
        for seed in 0..32 {
            assert_eq!(FaultPlan::from_seed(seed), FaultPlan::from_seed(seed));
        }
        // Different seeds disagree somewhere across a small sweep.
        assert!((0..32).any(|s| FaultPlan::from_seed(s) != FaultPlan::from_seed(s + 1)));
    }

    #[test]
    fn armed_points_fire_at_roughly_the_planned_rate_and_deterministically() {
        // Exercised on a local ActivePlan (not the process-global
        // registry) so this cannot inject faults into the crate's other
        // unit tests running concurrently.
        let plan = FaultPlan {
            drop_connection_pm: 500,
            ..FaultPlan::quiet(42)
        };
        let run = || {
            let active = ActivePlan::new(plan);
            (0..1000)
                .map(|_| active.decide(FaultPoint::DropConnection))
                .collect::<Vec<_>>()
        };
        let first = run();
        let hits = first.iter().filter(|&&b| b).count();
        assert!(
            (350..650).contains(&hits),
            "≈50% of 1000 consultations, got {hits}"
        );
        // Replaying the same plan replays the same schedule.
        assert_eq!(first, run());
    }

    #[test]
    fn zero_thresholds_and_disarmed_plans_never_fire() {
        let active = ActivePlan::new(FaultPlan::quiet(7));
        for point in [
            FaultPoint::DropConnection,
            FaultPoint::DelayRead,
            FaultPoint::CorruptFrame,
            FaultPoint::PanicSolve,
            FaultPoint::FailStoreWrite,
        ] {
            for _ in 0..50 {
                assert!(!active.decide(point));
            }
        }
    }

    #[test]
    fn point_streams_are_independent() {
        let plan = FaultPlan {
            drop_connection_pm: 500,
            panic_solve_pm: 500,
            ..FaultPlan::quiet(9)
        };
        let a = ActivePlan::new(plan);
        let drops: Vec<bool> = (0..200)
            .map(|_| a.decide(FaultPoint::DropConnection))
            .collect();
        let panics: Vec<bool> = (0..200).map(|_| a.decide(FaultPoint::PanicSolve)).collect();
        assert_ne!(drops, panics, "distinct salts → distinct schedules");
    }
}
