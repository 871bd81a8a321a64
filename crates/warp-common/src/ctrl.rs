//! Cooperative cancellation and injectable time.
//!
//! The resilient service layer (`warp-service`) enforces per-job
//! wall-clock deadlines and cancellation across the whole pipeline:
//! the [`Session`](../warp_compiler) polls a [`CancelToken`] at pass
//! boundaries, the skew analysis polls it every few thousand steps,
//! and the simulator polls it in its cycle loop. All time flows
//! through the [`Clock`] trait so the entire layer is testable with a
//! [`ManualClock`] — no real sleeps, no wall-clock flakiness.
//!
//! A token is cheap to clone (an `Arc`) and cheap to poll (one atomic
//! load plus, when a deadline is set, one clock read). The default
//! token is inert: [`CancelToken::none`] never fires and costs one
//! branch per poll, so un-budgeted compiles pay nothing.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use warp_common::ctrl::{CancelReason, CancelToken, ManualClock};
//!
//! let clock = Arc::new(ManualClock::new(0));
//! let token = CancelToken::with_deadline(clock.clone(), 100);
//! assert!(token.check().is_ok());
//! clock.advance(150);
//! assert!(matches!(
//!     token.check(),
//!     Err(CancelReason::DeadlineExceeded { deadline: 100, now: 150 })
//! ));
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic tick source. One tick is one microsecond on the
/// [`SystemClock`]; a [`ManualClock`] gives ticks whatever meaning the
/// test wants.
pub trait Clock: Send + Sync {
    /// Current time in ticks since the clock's origin.
    fn now_ticks(&self) -> u64;

    /// Blocks until `ticks` have elapsed. The [`SystemClock`] really
    /// sleeps; the [`ManualClock`] advances itself instantly, so
    /// backoff/retry logic built on this hook is testable with zero
    /// real delay.
    fn sleep_ticks(&self, ticks: u64);
}

/// Real wall-clock time in microseconds since construction.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    pub fn new() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> SystemClock {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ticks(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn sleep_ticks(&self, ticks: u64) {
        std::thread::sleep(std::time::Duration::from_micros(ticks));
    }
}

/// A deterministic clock for tests: time moves only when the test says
/// so — either explicitly via [`ManualClock::advance`] or implicitly by
/// a fixed number of ticks per [`Clock::now_ticks`] call
/// ([`ManualClock::with_auto_advance`]). Auto-advance models "work
/// takes time" deterministically: every deadline poll is one unit of
/// progress, so a runaway job exceeds its deadline after a bounded,
/// reproducible number of polls.
#[derive(Debug, Default)]
pub struct ManualClock {
    ticks: AtomicU64,
    auto_advance: u64,
}

impl ManualClock {
    /// A clock frozen at `start` ticks.
    pub fn new(start: u64) -> ManualClock {
        ManualClock {
            ticks: AtomicU64::new(start),
            auto_advance: 0,
        }
    }

    /// A clock that advances by `per_read` ticks on every read.
    pub fn with_auto_advance(start: u64, per_read: u64) -> ManualClock {
        ManualClock {
            ticks: AtomicU64::new(start),
            auto_advance: per_read,
        }
    }

    /// Moves time forward by `ticks`.
    pub fn advance(&self, ticks: u64) {
        self.ticks.fetch_add(ticks, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_ticks(&self) -> u64 {
        if self.auto_advance == 0 {
            self.ticks.load(Ordering::SeqCst)
        } else {
            self.ticks.fetch_add(self.auto_advance, Ordering::SeqCst)
        }
    }

    fn sleep_ticks(&self, ticks: u64) {
        self.advance(ticks);
    }
}

/// Why a cooperative computation was asked to stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// Someone called [`CancelToken::cancel`].
    Cancelled,
    /// The token's deadline passed.
    DeadlineExceeded {
        /// The deadline, in clock ticks.
        deadline: u64,
        /// The clock reading that tripped the check.
        now: u64,
    },
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Cancelled => write!(f, "cancelled"),
            CancelReason::DeadlineExceeded { deadline, now } => {
                write!(f, "deadline exceeded ({now} ticks past {deadline})")
            }
        }
    }
}

impl std::error::Error for CancelReason {}

/// Deadline sentinel meaning "no deadline armed".
const NO_DEADLINE: u64 = u64::MAX;

/// Heartbeat sentinel meaning "heartbeat recording disabled".
const HEARTBEAT_OFF: u64 = u64::MAX;

struct TokenInner {
    cancelled: AtomicBool,
    /// Absolute deadline in clock ticks; `NO_DEADLINE` when unarmed.
    deadline: AtomicU64,
    /// Last clock reading observed by a [`CancelToken::check`] poll;
    /// `HEARTBEAT_OFF` unless a supervisor opted in. A cancelled token
    /// stops refreshing: a job that polls but refuses to exit goes
    /// stale and is indistinguishable from one that never polls at
    /// all — both hold a worker hostage.
    heartbeat: AtomicU64,
    clock: Arc<dyn Clock>,
}

/// A cooperatively polled cancellation handle, optionally carrying a
/// deadline against an injectable clock.
///
/// Long-running loops call [`CancelToken::check`] periodically; the
/// service layer calls [`CancelToken::cancel`] (or just sets a
/// deadline) and the loop unwinds with a structured [`CancelReason`]
/// instead of hanging.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// The inert token: never cancelled, no deadline.
    pub fn none() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A cancellable token with no deadline (one can be armed later
    /// with [`CancelToken::arm_deadline`]).
    pub fn new(clock: Arc<dyn Clock>) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: AtomicU64::new(NO_DEADLINE),
                heartbeat: AtomicU64::new(HEARTBEAT_OFF),
                clock,
            })),
        }
    }

    /// A token that trips once `clock` passes `deadline_ticks`.
    pub fn with_deadline(clock: Arc<dyn Clock>, deadline_ticks: u64) -> CancelToken {
        let t = CancelToken::new(clock);
        t.arm_deadline(deadline_ticks);
        t
    }

    /// Arms (or moves) the deadline. Lets a service hand out a token at
    /// admission time and start the clock only when the job actually
    /// begins executing, so queue wait does not eat the budget. No-op
    /// on the inert token.
    pub fn arm_deadline(&self, deadline_ticks: u64) {
        if let Some(inner) = &self.inner {
            inner.deadline.store(deadline_ticks, Ordering::SeqCst);
        }
    }

    /// Requests cancellation; every clone of this token observes it.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::SeqCst);
        }
    }

    /// Polls the token: `Err` once cancelled or past the deadline.
    ///
    /// # Errors
    ///
    /// [`CancelReason::Cancelled`] after [`CancelToken::cancel`], or
    /// [`CancelReason::DeadlineExceeded`] once the clock passes the
    /// deadline.
    pub fn check(&self) -> Result<(), CancelReason> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.cancelled.load(Ordering::SeqCst) {
            return Err(CancelReason::Cancelled);
        }
        let deadline = inner.deadline.load(Ordering::SeqCst);
        let beating = inner.heartbeat.load(Ordering::SeqCst) != HEARTBEAT_OFF;
        if deadline != NO_DEADLINE || beating {
            // One clock read serves both the deadline comparison and
            // the heartbeat stamp, so enabling supervision does not
            // change auto-advance poll accounting on deadline tokens.
            let now = inner.clock.now_ticks();
            if beating {
                inner
                    .heartbeat
                    .store(now.min(HEARTBEAT_OFF - 1), Ordering::SeqCst);
            }
            if deadline != NO_DEADLINE && now > deadline {
                return Err(CancelReason::DeadlineExceeded { deadline, now });
            }
        }
        Ok(())
    }

    /// `true` once [`CancelToken::check`] would fail.
    pub fn is_stopped(&self) -> bool {
        self.check().is_err()
    }

    /// Turns on heartbeat recording and stamps "now". Called by a
    /// supervising pool at dispatch; off by default so plain tokens
    /// never pay an extra clock read per poll.
    pub fn enable_heartbeat(&self) {
        if let Some(inner) = &self.inner {
            let now = inner.clock.now_ticks().min(HEARTBEAT_OFF - 1);
            inner.heartbeat.store(now, Ordering::SeqCst);
        }
    }

    /// The clock reading of the most recent poll, or `None` when the
    /// token is inert or heartbeats were never enabled. A supervisor
    /// compares this against its own clock read to detect a worker
    /// that stopped polling (or polls but ignores cancellation).
    pub fn heartbeat_ticks(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let beat = inner.heartbeat.load(Ordering::SeqCst);
        (beat != HEARTBEAT_OFF).then_some(beat)
    }
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "CancelToken::none"),
            Some(inner) => {
                let deadline = inner.deadline.load(Ordering::SeqCst);
                f.debug_struct("CancelToken")
                    .field("cancelled", &inner.cancelled.load(Ordering::SeqCst))
                    .field("deadline", &(deadline != NO_DEADLINE).then_some(deadline))
                    .finish()
            }
        }
    }
}

/// Two tokens are equal when they share state (or are both inert).
/// This exists so option structs carrying a token can stay
/// `PartialEq`-derivable.
impl PartialEq for CancelToken {
    fn eq(&self, other: &CancelToken) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for CancelToken {}

/// The message of a caught panic (the payload `catch_unwind` or a
/// thread join returns): the `&str` or `String` that `panic!` carried,
/// or a fixed text for any other payload type.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// SplitMix64: the tiny deterministic generator behind seeded fault
/// corruption masks, audit input data, and the service layer's retry
/// jitter. Stateless: feed it any counter or hash.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 stream: [`splitmix64`] applied to an
/// incrementing counter, packaged as a stateful generator for callers
/// that draw many values (the program generator, shrink orderings).
///
/// Deterministic: the same seed always yields the same stream, so any
/// artifact derived from one (a generated program, a fault mask) is
/// reproducible from the seed alone.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(1);
        out
    }

    /// A value in `0..n` (`n` must be nonzero). Simple modulo: the bias
    /// is irrelevant for test-case generation.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::none();
        assert!(t.check().is_ok());
        t.cancel();
        assert!(t.check().is_ok());
        assert!(!t.is_stopped());
        assert_eq!(t, CancelToken::default());
    }

    #[test]
    fn cancel_observed_by_clones() {
        let clock = Arc::new(ManualClock::new(0));
        let t = CancelToken::new(clock);
        let t2 = t.clone();
        assert!(t2.check().is_ok());
        t.cancel();
        assert_eq!(t2.check(), Err(CancelReason::Cancelled));
        assert_eq!(t, t2);
    }

    #[test]
    fn deadline_uses_injected_clock() {
        let clock = Arc::new(ManualClock::new(10));
        let t = CancelToken::with_deadline(clock.clone(), 20);
        assert!(t.check().is_ok());
        clock.advance(10); // now == deadline: still fine
        assert!(t.check().is_ok());
        clock.advance(1);
        assert_eq!(
            t.check(),
            Err(CancelReason::DeadlineExceeded {
                deadline: 20,
                now: 21
            })
        );
    }

    #[test]
    fn auto_advance_is_deterministic() {
        let clock = ManualClock::with_auto_advance(0, 5);
        assert_eq!(clock.now_ticks(), 0);
        assert_eq!(clock.now_ticks(), 5);
        assert_eq!(clock.now_ticks(), 10);
        // A deadline of 12 trips on the poll after tick 12 is passed.
        let clock = Arc::new(ManualClock::with_auto_advance(0, 5));
        let t = CancelToken::with_deadline(clock, 12);
        let polls = (0..10).take_while(|_| t.check().is_ok()).count();
        assert_eq!(polls, 3, "polls read ticks 0, 5, 10, then 15 > 12");
    }

    #[test]
    fn deadline_armed_after_construction() {
        let clock = Arc::new(ManualClock::new(0));
        let t = CancelToken::new(clock.clone());
        clock.advance(1000); // queue wait: no deadline armed yet
        assert!(t.check().is_ok());
        t.arm_deadline(clock.now_ticks() + 50);
        assert!(t.check().is_ok());
        clock.advance(51);
        assert_eq!(
            t.check(),
            Err(CancelReason::DeadlineExceeded {
                deadline: 1050,
                now: 1051
            })
        );
    }

    #[test]
    fn manual_sleep_advances_instantly() {
        let c = ManualClock::new(0);
        c.sleep_ticks(250);
        assert_eq!(c.now_ticks(), 250);
    }

    #[test]
    fn system_clock_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ticks();
        let b = c.now_ticks();
        assert!(b >= a);
    }

    #[test]
    fn reason_display() {
        assert_eq!(CancelReason::Cancelled.to_string(), "cancelled");
        let r = CancelReason::DeadlineExceeded {
            deadline: 5,
            now: 9,
        };
        assert!(r.to_string().contains("deadline exceeded"), "{r}");
    }

    #[test]
    fn heartbeat_off_by_default() {
        let clock = Arc::new(ManualClock::new(0));
        let t = CancelToken::new(clock.clone());
        assert_eq!(t.heartbeat_ticks(), None);
        t.check().unwrap();
        assert_eq!(t.heartbeat_ticks(), None, "check must not enable it");
        assert_eq!(CancelToken::none().heartbeat_ticks(), None);
    }

    #[test]
    fn heartbeat_stamps_on_poll() {
        let clock = Arc::new(ManualClock::new(7));
        let t = CancelToken::new(clock.clone());
        t.enable_heartbeat();
        assert_eq!(t.heartbeat_ticks(), Some(7));
        clock.advance(10);
        assert_eq!(t.heartbeat_ticks(), Some(7), "reads don't stamp");
        t.check().unwrap();
        assert_eq!(t.heartbeat_ticks(), Some(17));
    }

    #[test]
    fn heartbeat_goes_stale_once_cancelled() {
        // A job that polls but ignores cancellation must look exactly
        // like one that never polls: its heartbeat stops refreshing.
        let clock = Arc::new(ManualClock::new(0));
        let t = CancelToken::new(clock.clone());
        t.enable_heartbeat();
        t.cancel();
        clock.advance(100);
        assert!(t.check().is_err());
        assert_eq!(
            t.heartbeat_ticks(),
            Some(0),
            "stamp frozen at cancel-time value"
        );
    }

    #[test]
    fn heartbeat_shares_deadline_clock_read() {
        // Auto-advance accounting is unchanged by enabling heartbeats
        // on a deadline token: one read per poll, stamped and compared.
        let clock = Arc::new(ManualClock::with_auto_advance(0, 5));
        let t = CancelToken::with_deadline(clock, 12);
        t.enable_heartbeat(); // consumes one read: ticks 0
        let polls = (0..10).take_while(|_| t.check().is_ok()).count();
        assert_eq!(polls, 2, "polls read ticks 5, 10, then 15 > 12");
        assert_eq!(t.heartbeat_ticks(), Some(15), "failing poll still stamps");
    }

    #[test]
    fn splitmix_reference_values() {
        // Deterministic and bit-mixing: distinct inputs, distinct outputs.
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
