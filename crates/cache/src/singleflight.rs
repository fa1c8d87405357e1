//! Single-flight de-duplication: N concurrent identical misses execute
//! once; N−1 waiters block on the leader's published result.

use muve_obs::{lock_recover, metrics, CancelToken};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One in-flight computation: waiters park on the condvar until the
/// leader publishes `Some(value)` (success) or `None` (leader failed).
struct Flight<V> {
    result: Mutex<Option<Option<V>>>,
    done: Condvar,
}

/// The outcome of [`SingleFlight::join`]: either this caller leads the
/// computation or it waits on whoever got there first.
pub enum Join<'a, K: Hash + Eq + Clone, V: Clone> {
    /// This caller must compute and then call [`Leader::finish`].
    Leader(Leader<'a, K, V>),
    /// Another caller is already computing; wait on its result.
    Waiter(Waiter<V>),
}

/// The leader's obligation token. Dropping it without calling
/// [`Leader::finish`] (e.g. because the computation panicked and unwound
/// through it) resolves the flight with `None`, so waiters never hang on
/// a dead leader.
pub struct Leader<'a, K: Hash + Eq + Clone, V: Clone> {
    sf: &'a SingleFlight<K, V>,
    key: Option<K>,
}

impl<K: Hash + Eq + Clone, V: Clone> Leader<'_, K, V> {
    /// Publish the computation's outcome and release the flight. Callers
    /// that cache the value should insert it into the cache *before*
    /// finishing, so a latecomer that joins after the flight is gone hits
    /// the cache instead of re-executing.
    pub fn finish(mut self, value: Option<V>) {
        self.resolve(value);
    }

    fn resolve(&mut self, value: Option<V>) {
        let Some(key) = self.key.take() else { return };
        let flight = {
            let mut flights = lock_recover(&self.sf.flights, "cache.lock_poisoned");
            flights.remove(&key)
        };
        if let Some(flight) = flight {
            *lock_recover(&flight.result, "cache.lock_poisoned") = Some(value);
            flight.done.notify_all();
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for Leader<'_, K, V> {
    fn drop(&mut self) {
        self.resolve(None);
    }
}

/// A waiter's handle on the leader's eventual result.
pub struct Waiter<V> {
    flight: Arc<Flight<V>>,
}

impl<V: Clone> Waiter<V> {
    /// Block until the leader resolves the flight, `timeout` elapses, or
    /// `cancel` (when given) fires.
    ///
    /// - `Some(Some(v))` — the leader succeeded with `v`;
    /// - `Some(None)` — the leader failed (error or panic); the waiter
    ///   should fall back to computing itself;
    /// - `None` — the timeout (the waiter's own remaining deadline
    ///   budget) elapsed or the token fired first.
    ///
    /// The condvar wait is sliced so a token is consulted every few
    /// milliseconds, and each consult stamps the waiter's heartbeat — a
    /// parked waiter is *slow*, not *wedged*, to the serve watchdog.
    pub fn wait(self, timeout: Duration, cancel: Option<&CancelToken>) -> Option<Option<V>> {
        const SLICE: Duration = Duration::from_millis(5);
        let deadline = Instant::now() + timeout;
        let mut result = lock_recover(&self.flight.result, "cache.lock_poisoned");
        loop {
            if let Some(out) = result.as_ref() {
                return Some(out.clone());
            }
            let now = Instant::now();
            if now >= deadline || cancel.is_some_and(CancelToken::should_stop) {
                return None;
            }
            let (guard, _) = self
                .flight
                .done
                .wait_timeout(result, (deadline - now).min(SLICE))
                .unwrap_or_else(|e| e.into_inner());
            result = guard;
        }
    }
}

/// De-duplicates concurrent computations keyed by `K`.
pub struct SingleFlight<K, V> {
    flights: Mutex<HashMap<K, Arc<Flight<V>>>>,
    waits: AtomicU64,
    leads: AtomicU64,
}

impl<K, V> std::fmt::Debug for SingleFlight<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleFlight")
            .field("waits", &self.waits.load(Ordering::Relaxed))
            .field("leads", &self.leads.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty flight table.
    pub fn new() -> SingleFlight<K, V> {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
            waits: AtomicU64::new(0),
            leads: AtomicU64::new(0),
        }
    }

    /// Join the flight for `key`: the first caller per key becomes the
    /// [`Leader`]; everyone else gets a [`Waiter`]. Each waiter records a
    /// `cache.singleflight_wait` tick.
    pub fn join(&self, key: K) -> Join<'_, K, V> {
        let mut flights = lock_recover(&self.flights, "cache.lock_poisoned");
        if let Some(flight) = flights.get(&key) {
            self.waits.fetch_add(1, Ordering::Relaxed);
            metrics().counter("cache.singleflight_wait").incr();
            return Join::Waiter(Waiter {
                flight: Arc::clone(flight),
            });
        }
        flights.insert(
            key.clone(),
            Arc::new(Flight {
                result: Mutex::new(None),
                done: Condvar::new(),
            }),
        );
        self.leads.fetch_add(1, Ordering::Relaxed);
        metrics().counter("cache.singleflight_lead").incr();
        Join::Leader(Leader {
            sf: self,
            key: Some(key),
        })
    }

    /// Number of waiters that joined an existing flight so far.
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Number of flights led so far.
    pub fn leads(&self) -> u64 {
        self.leads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn leader_publishes_and_waiters_receive() {
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let barrier = Arc::new(Barrier::new(4));

        // Claim leadership deterministically before spawning waiters.
        let lead = match sf.join(7) {
            Join::Leader(l) => l,
            Join::Waiter(_) => panic!("first join must lead"),
        };
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let w = match sf.join(7) {
                        Join::Waiter(w) => w,
                        Join::Leader(_) => panic!("leadership already taken"),
                    };
                    barrier.wait();
                    w.wait(Duration::from_secs(5), None)
                })
            })
            .collect();
        barrier.wait(); // every waiter has joined the flight
        lead.finish(Some(42));
        for w in waiters {
            assert_eq!(w.join().unwrap(), Some(Some(42)));
        }
        assert_eq!(sf.leads(), 1);
        assert_eq!(sf.waits(), 3);
    }

    #[test]
    fn dropped_leader_resolves_with_none() {
        let sf: SingleFlight<u32, u64> = SingleFlight::new();
        let lead = match sf.join(1) {
            Join::Leader(l) => l,
            Join::Waiter(_) => panic!("first join must lead"),
        };
        let waiter = match sf.join(1) {
            Join::Waiter(w) => w,
            Join::Leader(_) => panic!("flight exists"),
        };
        drop(lead); // simulates a leader that panicked
        assert_eq!(waiter.wait(Duration::from_secs(5), None), Some(None));
        // The flight is gone: the next join leads again.
        assert!(matches!(sf.join(1), Join::Leader(_)));
    }

    #[test]
    fn waiter_times_out_on_slow_leader() {
        let sf: SingleFlight<u32, u64> = SingleFlight::new();
        let _lead = match sf.join(9) {
            Join::Leader(l) => l,
            Join::Waiter(_) => panic!("first join must lead"),
        };
        let waiter = match sf.join(9) {
            Join::Waiter(w) => w,
            Join::Leader(_) => panic!("flight exists"),
        };
        assert_eq!(waiter.wait(Duration::from_millis(20), None), None);
    }

    #[test]
    fn cancelled_waiter_abandons_the_flight_promptly() {
        let sf: SingleFlight<u32, u64> = SingleFlight::new();
        let _lead = match sf.join(3) {
            Join::Leader(l) => l,
            Join::Waiter(_) => panic!("first join must lead"),
        };
        let waiter = match sf.join(3) {
            Join::Waiter(w) => w,
            Join::Leader(_) => panic!("flight exists"),
        };
        let cancel = CancelToken::never();
        let canceller = cancel.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(15));
            canceller.cancel();
        });
        let start = Instant::now();
        // Generous timeout: only the cancellation can end this wait early.
        assert_eq!(waiter.wait(Duration::from_secs(10), Some(&cancel)), None);
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "cancel must cut the wait short, took {:?}",
            start.elapsed()
        );
        h.join().unwrap();
    }

    #[test]
    fn cancellable_wait_still_receives_results() {
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let lead = match sf.join(4) {
            Join::Leader(l) => l,
            Join::Waiter(_) => panic!("first join must lead"),
        };
        let waiter = match sf.join(4) {
            Join::Waiter(w) => w,
            Join::Leader(_) => panic!("flight exists"),
        };
        let cancel = CancelToken::never();
        let h = std::thread::spawn(move || waiter.wait(Duration::from_secs(5), Some(&cancel)));
        std::thread::sleep(Duration::from_millis(10));
        lead.finish(Some(99));
        assert_eq!(h.join().unwrap(), Some(Some(99)));
    }
}
