//! Virtual time.
//!
//! The paper's workloads span microseconds (Fig 9's 10 µs tasks) to minutes
//! (Fig 5's "stress" function). To reproduce minute-scale experiments in CI,
//! every component in this workspace reads time and sleeps exclusively
//! through the [`Clock`] trait:
//!
//! * [`RealClock`] maps virtual time onto wall time with a speed-up factor —
//!   at `speedup = 100`, a virtual 1-second function body occupies a worker
//!   for 10 ms of wall time, while every ratio between component latencies
//!   is preserved.
//! * [`ManualClock`] advances only when a test tells it to, making timeout,
//!   TTL, and heartbeat logic fully deterministic under test.
//!
//! The discrete-event simulator (`funcx-sim`) has its own event-driven clock
//! and does not go through this trait; these clocks serve the *real*
//! threaded pipeline.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

/// Duration in virtual time. Virtual durations use the standard `Duration`
/// type; only *when they elapse* differs between clocks.
pub type VirtualDuration = Duration;

/// A point in virtual time, as nanoseconds since the clock's origin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub struct VirtualInstant(pub u64);

impl VirtualInstant {
    /// The clock origin.
    pub const ZERO: VirtualInstant = VirtualInstant(0);

    /// Nanoseconds since origin.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Construct from nanoseconds since origin.
    pub const fn from_nanos(n: u64) -> Self {
        VirtualInstant(n)
    }

    /// Construct from seconds since origin (convenience for experiment
    /// scripts).
    pub fn from_secs_f64(s: f64) -> Self {
        VirtualInstant((s * 1e9) as u64)
    }

    /// Seconds since origin as f64 (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Virtual time elapsed since `earlier`; zero if `earlier` is later
    /// (mirrors `Instant::saturating_duration_since`).
    pub fn saturating_duration_since(&self, earlier: VirtualInstant) -> VirtualDuration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Exact elapsed time since `earlier`; `None` if `earlier` is later.
    pub fn checked_duration_since(&self, earlier: VirtualInstant) -> Option<VirtualDuration> {
        self.0.checked_sub(earlier.0).map(Duration::from_nanos)
    }
}

impl Add<Duration> for VirtualInstant {
    type Output = VirtualInstant;
    fn add(self, rhs: Duration) -> VirtualInstant {
        VirtualInstant(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for VirtualInstant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<VirtualInstant> for VirtualInstant {
    type Output = VirtualDuration;
    fn sub(self, rhs: VirtualInstant) -> VirtualDuration {
        self.saturating_duration_since(rhs)
    }
}

impl fmt::Debug for VirtualInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

/// Source of virtual time for the threaded pipeline.
pub trait Clock: Send + Sync {
    /// Current virtual time.
    fn now(&self) -> VirtualInstant;

    /// Block the calling thread for `d` of *virtual* time.
    fn sleep(&self, d: VirtualDuration);

    /// Block until virtual time reaches `deadline` (no-op if already past).
    fn sleep_until(&self, deadline: VirtualInstant) {
        let now = self.now();
        if let Some(d) = deadline.checked_duration_since(now) {
            self.sleep(d);
        }
    }
}

/// Wall-clock-backed clock with a virtual/wall speed-up factor.
pub struct RealClock {
    origin: Instant,
    /// virtual seconds elapsed per wall second; 1.0 = real time.
    speedup: f64,
}

impl RealClock {
    /// A clock running at true wall speed.
    pub fn wall() -> Self {
        Self::with_speedup(1.0)
    }

    /// A clock where virtual time runs `speedup`× faster than wall time.
    /// `speedup` must be finite and positive.
    pub fn with_speedup(speedup: f64) -> Self {
        assert!(
            speedup.is_finite() && speedup > 0.0,
            "speedup must be finite and positive, got {speedup}"
        );
        RealClock { origin: Instant::now(), speedup }
    }

    /// The configured speed-up factor.
    pub fn speedup(&self) -> f64 {
        self.speedup
    }
}

impl Clock for RealClock {
    fn now(&self) -> VirtualInstant {
        let wall = self.origin.elapsed().as_nanos() as f64;
        VirtualInstant((wall * self.speedup) as u64)
    }

    fn sleep(&self, d: VirtualDuration) {
        if d.is_zero() {
            return;
        }
        let wall = Duration::from_nanos((d.as_nanos() as f64 / self.speedup) as u64);
        std::thread::sleep(wall);
    }
}

/// Test clock: virtual time moves only via [`ManualClock::advance`].
/// Sleeping threads block on a condvar and wake when time passes their
/// deadline, so timeout logic can be unit-tested deterministically.
pub struct ManualClock {
    inner: Mutex<u64>,
    cv: Condvar,
}

impl ManualClock {
    /// A clock frozen at the origin.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock { inner: Mutex::new(0), cv: Condvar::new() })
    }

    /// Advance virtual time by `d`, waking any sleeper whose deadline passed.
    pub fn advance(&self, d: VirtualDuration) {
        let mut t = self.inner.lock();
        *t = t.saturating_add(d.as_nanos() as u64);
        drop(t);
        self.cv.notify_all();
    }

    /// Set the absolute virtual time (must not go backwards).
    pub fn set(&self, at: VirtualInstant) {
        let mut t = self.inner.lock();
        assert!(at.0 >= *t, "ManualClock cannot go backwards");
        *t = at.0;
        drop(t);
        self.cv.notify_all();
    }
}

impl Clock for ManualClock {
    fn now(&self) -> VirtualInstant {
        VirtualInstant(*self.inner.lock())
    }

    fn sleep(&self, d: VirtualDuration) {
        let mut t = self.inner.lock();
        let deadline = t.saturating_add(d.as_nanos() as u64);
        while *t < deadline {
            self.cv.wait(&mut t);
        }
    }
}

/// Shared handle to a clock; components hold this.
pub type SharedClock = Arc<dyn Clock>;

/// One wake-up that every source of an event loop posts to and the loop
/// alone blocks on — what a `select!` over the loop's channels, queue and
/// stop flag would be, for sources that are not all channels.
///
/// The flag makes a post that lands while the loop is busy survive until
/// its next wait, so a loop that drains every source *after* waking and
/// *before* waiting again cannot sleep through work: anything posted since
/// the drain began has set the flag and the wait returns at once.
#[derive(Default)]
pub struct Wake {
    posted: Mutex<bool>,
    cv: Condvar,
}

impl Wake {
    /// A wake with nothing posted.
    pub fn new() -> Arc<Self> {
        Arc::new(Wake::default())
    }

    /// Post: the current or next [`wait_timeout`](Self::wait_timeout)
    /// returns. Posts coalesce — with the flag already set this is one
    /// uncontended lock and no signal.
    pub fn notify(&self) {
        let mut posted = self.posted.lock();
        if !*posted {
            *posted = true;
            drop(posted);
            self.cv.notify_one();
        }
    }

    /// Block until posted or `timeout` of wall time passes, and clear the
    /// flag. True if a post ended the wait.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut posted = self.posted.lock();
        while !*posted {
            if self.cv.wait_until(&mut posted, deadline).timed_out() {
                break;
            }
        }
        std::mem::take(&mut *posted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn virtual_instant_arithmetic() {
        let a = VirtualInstant::from_nanos(1_000);
        let b = a + Duration::from_nanos(500);
        assert_eq!(b.as_nanos(), 1_500);
        assert_eq!(b - a, Duration::from_nanos(500));
        assert_eq!(a - b, Duration::ZERO, "saturating");
        assert_eq!(b.checked_duration_since(a), Some(Duration::from_nanos(500)));
        assert_eq!(a.checked_duration_since(b), None);
    }

    #[test]
    fn real_clock_speedup_scales_sleep() {
        let clock = RealClock::with_speedup(1000.0);
        let wall_start = Instant::now();
        clock.sleep(Duration::from_secs(1)); // should take ~1ms wall
        let wall = wall_start.elapsed();
        assert!(wall < Duration::from_millis(500), "slept {wall:?} wall for 1s virtual");
        assert!(clock.now() >= VirtualInstant::from_nanos(900_000_000));
    }

    #[test]
    #[should_panic(expected = "speedup must be finite")]
    fn real_clock_rejects_zero_speedup() {
        let _ = RealClock::with_speedup(0.0);
    }

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now(), VirtualInstant::ZERO);
        c.advance(Duration::from_secs(5));
        assert_eq!(c.now(), VirtualInstant::from_secs_f64(5.0));
    }

    #[test]
    fn manual_clock_wakes_sleepers() {
        let c = ManualClock::new();
        let woke = Arc::new(AtomicBool::new(false));
        let c2 = Arc::clone(&c);
        let woke2 = Arc::clone(&woke);
        let h = std::thread::spawn(move || {
            c2.sleep(Duration::from_secs(10));
            woke2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!woke.load(Ordering::SeqCst), "must still be asleep");
        c.advance(Duration::from_secs(10));
        h.join().unwrap();
        assert!(woke.load(Ordering::SeqCst));
    }

    #[test]
    fn wake_posted_before_the_wait_returns_at_once_and_is_cleared() {
        let w = Wake::new();
        w.notify();
        let start = Instant::now();
        assert!(w.wait_timeout(Duration::from_secs(30)));
        assert!(start.elapsed() < Duration::from_secs(5));
        // The wait consumed the post: the next one times out.
        assert!(!w.wait_timeout(Duration::from_millis(20)));
    }

    #[test]
    fn wake_coalesces_posts() {
        let w = Wake::new();
        for _ in 0..100 {
            w.notify();
        }
        assert!(w.wait_timeout(Duration::from_secs(30)));
        assert!(!w.wait_timeout(Duration::from_millis(20)), "100 posts are one wake-up");
    }

    #[test]
    fn wake_from_another_thread_ends_a_long_wait() {
        let w = Wake::new();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            entered_tx.send(()).unwrap();
            let start = Instant::now();
            (w2.wait_timeout(Duration::from_secs(30)), start.elapsed())
        });
        entered_rx.recv().unwrap();
        w.notify();
        let (posted, waited) = h.join().unwrap();
        assert!(posted);
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let c = ManualClock::new();
        c.advance(Duration::from_secs(2));
        c.sleep_until(VirtualInstant::from_secs_f64(1.0)); // returns immediately
        assert_eq!(c.now(), VirtualInstant::from_secs_f64(2.0));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_rewind() {
        let c = ManualClock::new();
        c.advance(Duration::from_secs(1));
        c.set(VirtualInstant::ZERO);
    }
}
