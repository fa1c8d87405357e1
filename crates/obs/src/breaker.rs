//! The circuit breaker: closed → open → single probe.
//!
//! ```text
//!            K consecutive failures
//!   Closed ──────────────────────────▶ Open ◀──┐ probe fails
//!     ▲                                 │ cooldown elapsed: one probe
//!     └──────── any success ────────────┴───────┘
//! ```
//!
//! Every call that reads or arms the clock takes an explicit `now`, so
//! the machine is testable on `Instant` arithmetic alone. An outcome
//! recorded while open *without* holding the probe slot (a request
//! admitted before the trip finishing late) is applied like a probe's:
//! a success closes, a failure re-arms the cooldown.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning of one [`Breaker`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker (K).
    pub failure_threshold: u32,
    /// How long an open breaker waits before letting a probe through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Failures below threshold; callers run normally.
    Closed,
    /// Threshold tripped; callers steer around the protected path.
    Open,
    /// Open, with the single probe in flight.
    HalfOpen,
}

/// What one caller should do about the protected path
/// ([`Breaker::decide`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Breaker closed: run normally and record the outcome.
    Normal,
    /// Breaker open (cooling down, or a probe already in flight): steer
    /// around the path; there is no outcome to record.
    PreDegrade,
    /// This caller holds the probe slot: run normally and record — or
    /// [`release_probe`](Breaker::release_probe) if the path never ran.
    Probe,
}

/// What a recorded outcome did to the breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    /// No state change.
    None,
    /// The failure was the K-th in a row: closed → open.
    Opened,
    /// The probe failed: the cooldown is re-armed.
    Reopened,
    /// A success landed while open: open → closed.
    Closed,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed {
        fails: u32,
    },
    Open {
        /// When the cooldown was last armed (re-set by every failure).
        since: Instant,
        probing: bool,
    },
}

/// One circuit breaker. See the module docs for the state machine.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
}

impl Breaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Breaker {
        Breaker {
            cfg,
            state: Mutex::new(State::Closed { fails: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The observable state.
    pub fn state(&self) -> BreakerState {
        match *self.lock() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { probing: false, .. } => BreakerState::Open,
            State::Open { probing: true, .. } => BreakerState::HalfOpen,
        }
    }

    /// Whether the breaker is closed.
    pub fn is_closed(&self) -> bool {
        self.state() == BreakerState::Closed
    }

    /// Admission verdict for one caller at `now`. `Probe` claims the single
    /// probe slot — granted iff the breaker is open, its cooldown has
    /// elapsed and no probe is in flight — until the next
    /// [`record`](Self::record) or [`release_probe`](Self::release_probe).
    pub fn decide(&self, now: Instant) -> BreakerDecision {
        match &mut *self.lock() {
            State::Closed { .. } => BreakerDecision::Normal,
            State::Open { since, probing, .. }
                if !*probing && now >= *since + self.cfg.cooldown =>
            {
                *probing = true;
                BreakerDecision::Probe
            }
            State::Open { .. } => BreakerDecision::PreDegrade,
        }
    }

    /// [`decide`](Self::decide) for callers that only route probes:
    /// whether this caller now holds the probe slot.
    pub fn try_probe(&self, now: Instant) -> bool {
        self.decide(now) == BreakerDecision::Probe
    }

    /// Record one observed outcome at `now`.
    pub fn record(&self, ok: bool, now: Instant) -> BreakerTransition {
        use BreakerTransition as T;
        let closed = State::Closed { fails: 0 };
        let open = |since| State::Open {
            since,
            probing: false,
        };
        let mut st = self.lock();
        let (next, transition) = match (*st, ok) {
            (State::Closed { .. }, true) => (closed, T::None),
            (State::Closed { fails }, false) if fails + 1 < self.cfg.failure_threshold => {
                (State::Closed { fails: fails + 1 }, T::None)
            }
            (State::Closed { .. }, false) => (open(now), T::Opened),
            (State::Open { .. }, true) => (closed, T::Closed),
            // A failed probe releases its slot; either way the cooldown
            // restarts.
            (State::Open { probing, .. }, false) => {
                (open(now), if probing { T::Reopened } else { T::None })
            }
        };
        *st = next;
        transition
    }

    /// The probe holder produced no signal (the protected path never
    /// ran): free the slot so the next caller can probe.
    pub fn release_probe(&self) {
        if let State::Open { probing, .. } = &mut *self.lock() {
            *probing = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::BreakerDecision::{Normal, PreDegrade, Probe};
    use super::BreakerTransition as T;
    use super::*;

    const COOLDOWN: Duration = Duration::from_millis(20);

    /// A K=3 breaker and the instant its clock starts at.
    fn breaker() -> (Breaker, Instant) {
        let cfg = BreakerConfig {
            failure_threshold: 3,
            cooldown: COOLDOWN,
        };
        (Breaker::new(cfg), Instant::now())
    }

    /// A breaker opened at `t0` by K consecutive failures.
    fn opened_at(t0: Instant) -> Breaker {
        let (b, _) = breaker();
        assert_eq!(b.record(false, t0), T::None);
        assert_eq!(b.record(false, t0), T::None);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.record(false, t0), T::Opened, "third failure opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.decide(t0), PreDegrade, "cooling down");
        b
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let (b, t0) = breaker();
        for ok in [false, false, true, false, false] {
            assert_eq!(b.record(ok, t0), T::None);
        }
        assert!(b.is_closed(), "streak was broken");
        assert_eq!(b.decide(t0), Normal);
        assert_eq!(b.record(false, t0), T::Opened);
    }

    #[test]
    fn single_probe_closes_or_reopens() {
        let (_, t0) = breaker();
        let b = opened_at(t0);
        assert!(!b.try_probe(t0 + COOLDOWN / 2), "cooldown not elapsed");
        let t1 = t0 + COOLDOWN;
        assert_eq!(b.decide(t1), Probe, "cooldown elapsed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.decide(t1), PreDegrade, "only one probe at a time");
        assert!(!b.try_probe(t1));
        // The probe fails: the full cooldown runs again from the failure.
        assert_eq!(b.record(false, t1), T::Reopened);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_probe(t1 + COOLDOWN / 2), "cooldown re-armed");
        let t2 = t1 + COOLDOWN;
        assert!(b.try_probe(t2));
        // The probe succeeds: closed, and failures count from zero again.
        assert_eq!(b.record(true, t2), T::Closed);
        assert_eq!(b.decide(t2), Normal);
        assert_eq!(b.record(false, t2), T::None);
    }

    #[test]
    fn released_probe_frees_the_slot() {
        let (_, t0) = breaker();
        let b = opened_at(t0);
        let t1 = t0 + COOLDOWN;
        assert_eq!(b.decide(t1), Probe);
        // The probe never reached the protected path: without a release
        // every later caller would pre-degrade forever.
        b.release_probe();
        assert_eq!(b.decide(t1), Probe);
    }

    #[test]
    fn breakers_are_independent() {
        let (closed, t0) = breaker();
        let open = opened_at(t0);
        assert_eq!(open.state(), BreakerState::Open);
        assert_eq!(closed.state(), BreakerState::Closed);
        assert_eq!(closed.decide(t0), Normal);
    }

    /// The one case the serve and shard breakers used to disagree on: an
    /// outcome recorded while open by a caller that does not hold the
    /// probe slot. Shard's rule won: it is applied, not ignored.
    #[test]
    fn record_while_open_without_probe_is_applied() {
        let (_, t0) = breaker();
        let b = opened_at(t0);
        let t1 = t0 + COOLDOWN / 2;
        assert_eq!(b.record(false, t1), T::None, "not a probe: no reopen");
        assert!(!b.try_probe(t0 + COOLDOWN), "the failure re-armed `since`");
        assert!(b.try_probe(t1 + COOLDOWN));
        b.release_probe();
        assert_eq!(b.record(true, t1), T::Closed, "a late success closes");
        assert!(b.is_closed());
    }
}
