//! Deterministic fault injection for the memtree workspace.
//!
//! A [`Faults`] value is a **fault plan**: a set of named injection
//! points, each armed with a failure probability, an optional failure
//! budget, and its own seeded RNG stream. Every object whose code has
//! fault points owns one inline — the LSM's `SimDisk`, the Hybrid Index,
//! the hstore anti-cache — and evaluates its points through it with
//! [`fail_point!`] or [`Faults::should_fail`]. Tests arm the plan of the
//! object they break, so two tests (or two threads) holding different
//! objects never see each other's faults.
//!
//! Design goals, in order:
//!
//! 1. **Zero cost when disarmed** — one relaxed atomic load guards every
//!    point; the flag is set exactly while the plan has an armed point.
//! 2. **Deterministic** — each point owns a SplitMix64 stream seeded from
//!    the plan's seed and the point's name, so a failing schedule replays
//!    from `(seed, op sequence)` alone, independent of unrelated points.
//! 3. **Thread-safe** — a plan is a `Mutex`-guarded map; points are
//!    armed/tripped atomically, so worker threads sharing the owner share
//!    one schedule.
//!
//! ```
//! use memtree_faults::{fail_point, Faults};
//!
//! struct Device {
//!     faults: Faults,
//! }
//!
//! impl Device {
//!     fn fetch_block(&self) -> memtree_common::error::Result<Vec<u8>> {
//!         fail_point!(self.faults, "doc.fetch");
//!         Ok(vec![1, 2, 3])
//!     }
//! }
//!
//! let dev = Device { faults: Faults::default() };
//! dev.faults.enable(42);
//! dev.faults.arm("doc.fetch", 1.0, Some(1)); // always fail, once
//! assert!(dev.fetch_block().is_err());
//! assert!(dev.fetch_block().is_ok()); // budget exhausted
//! assert_eq!(dev.faults.trips("doc.fetch"), 1);
//! dev.faults.disable();
//! ```

#![warn(missing_docs)]

use memtree_common::hash::{hash64_seed, splitmix64};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

pub use memtree_common::error::MemtreeError;

#[derive(Debug, Default)]
struct PointState {
    /// Probability in [0, 1] that an evaluation trips.
    probability: f64,
    /// Remaining failures allowed (`None` = unlimited).
    budget: Option<u64>,
    /// Per-point deterministic RNG stream.
    rng: u64,
    /// Times this point fired.
    trips: u64,
    /// Times this point was evaluated while armed.
    evals: u64,
}

#[derive(Debug, Default)]
struct Plan {
    seed: u64,
    points: HashMap<String, PointState>,
}

/// A fault plan, owned by the object whose fault points it drives (see the
/// module docs). Starts with nothing armed.
#[derive(Debug, Default)]
pub struct Faults {
    /// Fast-path flag: true exactly while `plan` has an armed point.
    armed: AtomicBool,
    plan: Mutex<Plan>,
}

impl Faults {
    fn lock(&self) -> MutexGuard<'_, Plan> {
        self.plan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts a fresh plan: disarms every point and sets the seed later
    /// [`arm`](Self::arm)s draw their streams from.
    pub fn enable(&self, seed: u64) {
        self.lock().seed = seed;
        self.disable();
    }

    /// Disarms every point. All [`should_fail`](Self::should_fail) calls
    /// return false afterwards.
    pub fn disable(&self) {
        let mut p = self.lock();
        p.points.clear();
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Arms `point` to fail with `probability` (clamped to [0, 1]) and an
    /// optional budget of at most `budget` failures. Re-arming resets the
    /// point's counters and RNG stream.
    pub fn arm(&self, point: &str, probability: f64, budget: Option<u64>) {
        let mut p = self.lock();
        let rng = p.seed ^ hash64_seed(point.as_bytes(), 0x0FA1_7599);
        p.points.insert(
            point.to_string(),
            PointState {
                probability: probability.clamp(0.0, 1.0),
                budget,
                rng,
                trips: 0,
                evals: 0,
            },
        );
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Disarms a single point, leaving the rest of the plan untouched.
    pub fn disarm(&self, point: &str) {
        let mut p = self.lock();
        p.points.remove(point);
        self.armed.store(!p.points.is_empty(), Ordering::SeqCst);
    }

    /// Evaluates `point`: returns true if the fault should fire now. Counts
    /// the evaluation, consumes budget on a trip. Points that were never
    /// [`arm`](Self::arm)ed never fire.
    #[inline]
    pub fn should_fail(&self, point: &str) -> bool {
        self.armed.load(Ordering::Relaxed) && self.draw(point)
    }

    fn draw(&self, point: &str) -> bool {
        let mut p = self.lock();
        let Some(s) = p.points.get_mut(point) else {
            return false;
        };
        s.evals += 1;
        if s.budget == Some(0) {
            return false;
        }
        let draw = splitmix64(&mut s.rng) as f64 / u64::MAX as f64;
        if draw >= s.probability {
            return false;
        }
        if let Some(b) = &mut s.budget {
            *b -= 1;
        }
        s.trips += 1;
        true
    }

    /// Times `point` has fired since it was armed.
    pub fn trips(&self, point: &str) -> u64 {
        self.lock().points.get(point).map_or(0, |s| s.trips)
    }

    /// Times `point` was evaluated while armed.
    pub fn evaluations(&self, point: &str) -> u64 {
        self.lock().points.get(point).map_or(0, |s| s.evals)
    }
}

/// The seeds a fault oracle sweeps: `MEMTREE_FAULT_SEEDS` (`"lo..hi"`),
/// default `0..32`, so CI can shard a seed matrix across jobs.
pub fn seed_range() -> std::ops::Range<u64> {
    let spec = std::env::var("MEMTREE_FAULT_SEEDS").unwrap_or_else(|_| "0..32".to_string());
    let (lo, hi) = spec
        .split_once("..")
        .unwrap_or_else(|| panic!("MEMTREE_FAULT_SEEDS must look like '0..32', got {spec:?}"));
    let parse = |s: &str| {
        s.trim()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("bad bound {s:?} in MEMTREE_FAULT_SEEDS: {e}"))
    };
    parse(lo)..parse(hi)
}

/// Bounded-backoff retry policy for transient faults.
///
/// The simulated disk has no asynchronous completion to wait on, so the
/// backoff is a deterministic, exponentially growing busy-wait — enough to
/// model "give the device a moment" without wall-clock nondeterminism.
/// Only [`MemtreeError::is_transient`] failures are retried; corruption,
/// ENOSPC, and injected crash faults propagate immediately so callers keep
/// their typed abort semantics.
#[derive(Debug)]
pub struct Backoff {
    attempts: u32,
    max_attempts: u32,
    spin: u32,
}

impl Backoff {
    /// A policy allowing at most `max_attempts` total attempts (so at most
    /// `max_attempts - 1` retries).
    pub fn new(max_attempts: u32) -> Self {
        Self {
            attempts: 1,
            max_attempts: max_attempts.max(1),
            spin: 32,
        }
    }

    /// Attempts recorded so far (starts at 1: the initial try).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Records a failed attempt. Returns true when the caller should try
    /// again — the error is transient and budget remains — after a bounded
    /// busy-wait. Returns false (no wait) for non-transient errors or an
    /// exhausted budget.
    pub fn retry(&mut self, err: &MemtreeError) -> bool {
        if !err.is_transient() || self.attempts >= self.max_attempts {
            return false;
        }
        self.attempts += 1;
        for _ in 0..self.spin {
            std::hint::spin_loop();
        }
        self.spin = self.spin.saturating_mul(2).min(1 << 14);
        true
    }
}

/// Marks a fallible injection point evaluated through the [`Faults`] plan
/// `$faults`. If the point is armed and fires, the enclosing function
/// returns `Err(MemtreeError::Injected { .. })` (or a custom error with the
/// three-argument form).
///
/// Compiles to a single relaxed atomic load plus a never-taken branch
/// while the plan has nothing armed.
#[macro_export]
macro_rules! fail_point {
    ($faults:expr, $name:expr) => {
        if $faults.should_fail($name) {
            return Err($crate::MemtreeError::Injected {
                point: ($name).to_string(),
            }
            .into());
        }
    };
    ($faults:expr, $name:expr, $err:expr) => {
        if $faults.should_fail($name) {
            return Err($err);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_never_fire_and_cost_nothing() {
        let f = Faults::default();
        assert!(!f.should_fail("never.armed"));
        f.enable(1);
        assert!(!f.should_fail("never.armed"));
        f.arm("other", 1.0, None);
        assert!(!f.should_fail("never.armed"));
        assert_eq!(f.evaluations("never.armed"), 0);
        f.disarm("other");
        assert!(!f.armed.load(Ordering::Relaxed), "no armed point, flag off");
    }

    #[test]
    fn probability_one_always_fires_until_budget() {
        let f = Faults::default();
        f.enable(7);
        f.arm("t.always", 1.0, Some(3));
        let fired: Vec<bool> = (0..5).map(|_| f.should_fail("t.always")).collect();
        assert_eq!(fired, [true, true, true, false, false]);
        assert_eq!(f.trips("t.always"), 3);
        assert_eq!(f.evaluations("t.always"), 5);
        f.disable();
        assert_eq!(f.trips("t.always"), 0, "disable forgets the plan");
    }

    /// The first 64 draws of `("t.half", p = 0.5)` as a bitmask (bit i =
    /// draw i fired).
    fn half_mask(seed: u64) -> u64 {
        let f = Faults::default();
        f.enable(seed);
        f.arm("t.half", 0.5, None);
        (0..64).fold(0, |m, i| m | (u64::from(f.should_fail("t.half")) << i))
    }

    #[test]
    fn seeded_schedules_replay_exactly() {
        // Pinned streams (`seed ^ hash64_seed(name, 0x0FA1_7599)` +
        // SplitMix64): any change to the derivation changes every seeded
        // oracle's fault schedule.
        assert_eq!(half_mask(99), 0x5256_BA56_59BF_C585);
        assert_eq!(half_mask(100), 0x0D30_BFD5_DB92_C5C2);
    }

    #[test]
    fn points_are_independent_streams() {
        let f = Faults::default();
        f.enable(5);
        f.arm("t.a", 0.5, None);
        f.arm("t.b", 0.5, None);
        let solo: Vec<bool> = (0..32).map(|_| f.should_fail("t.a")).collect();
        // Re-arm and interleave evaluations of another point: t.a's
        // schedule must not change.
        f.arm("t.a", 0.5, None);
        let interleaved: Vec<bool> = (0..32)
            .map(|_| {
                f.should_fail("t.b");
                f.should_fail("t.a")
            })
            .collect();
        assert_eq!(solo, interleaved);
    }

    #[test]
    fn fail_point_macro_returns_typed_error() {
        let f = Faults::default();
        let op = || -> Result<u32, MemtreeError> {
            crate::fail_point!(f, "t.macro");
            Ok(42)
        };
        f.enable(3);
        f.arm("t.macro", 1.0, Some(1));
        match op() {
            Err(MemtreeError::Injected { point }) => assert_eq!(point, "t.macro"),
            other => panic!("expected injected error, got {other:?}"),
        }
        assert_eq!(op(), Ok(42));
    }

    #[test]
    fn backoff_retries_transient_only_within_budget() {
        let mut b = Backoff::new(3);
        let transient = MemtreeError::TransientIo { context: "t" };
        assert!(b.retry(&transient), "first retry allowed");
        assert!(b.retry(&transient), "second retry allowed");
        assert!(!b.retry(&transient), "budget of 3 attempts exhausted");
        assert_eq!(b.attempts(), 3);

        let mut b = Backoff::new(4);
        let hard = MemtreeError::corruption("t", "bad");
        assert!(!b.retry(&hard), "corruption is never retried");
        let enospc = MemtreeError::Enospc { context: "t", requested: 1 };
        assert!(!b.retry(&enospc), "ENOSPC is never retried");
        assert_eq!(b.attempts(), 1, "non-transient errors consume no budget");
    }

    #[test]
    fn threads_share_a_plan_safely() {
        let f = Faults::default();
        f.enable(11);
        f.arm("t.mt", 1.0, Some(1000));
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..250).filter(|_| f.should_fail("t.mt")).count()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total, 1000);
        assert_eq!(f.trips("t.mt"), 1000);
    }
}
