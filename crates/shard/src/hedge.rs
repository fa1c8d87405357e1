//! The hedge-delay tracker and its tuning.

use std::sync::Mutex;
use std::time::Duration;

/// Hedge delay before enough latency samples exist.
const DEFAULT_DELAY: Duration = Duration::from_millis(25);
/// Lower clamp on the derived delay.
const MIN_DELAY: Duration = Duration::from_millis(1);
/// Upper clamp on the derived delay.
const MAX_DELAY: Duration = Duration::from_millis(250);
/// Samples required before the p99 estimate is trusted.
const MIN_SAMPLES: usize = 16;
/// Ring-buffer capacity of retained latency samples.
const WINDOW: usize = 256;

/// Rolling p99 of successful sub-query latencies, driving the hedge delay:
/// a sub-query still unanswered after [`delay`](Self::delay) is presumed a
/// straggler and re-issued to another replica. The delay is the observed
/// p99 (clamped), so under healthy operation ~1% of sub-queries hedge —
/// the classic tail-at-scale tradeoff of a little extra load for a lot
/// less tail latency.
#[derive(Debug, Default)]
pub struct HedgeTracker {
    ring: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    lats: Vec<u64>,
    next: usize,
}

impl HedgeTracker {
    /// Record one successful sub-query latency.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut r = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if r.lats.len() < WINDOW {
            r.lats.push(us);
        } else {
            let i = r.next;
            r.lats[i] = us;
        }
        r.next = (r.next + 1) % WINDOW;
    }

    /// The current hedge delay: clamped p99 of the sample window, or the
    /// default while samples are scarce.
    pub fn delay(&self) -> Duration {
        let r = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if r.lats.len() < MIN_SAMPLES {
            return DEFAULT_DELAY;
        }
        let mut sorted = r.lats.clone();
        drop(r);
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * 0.99) as usize;
        Duration::from_micros(sorted[idx]).clamp(MIN_DELAY, MAX_DELAY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hedge_delay_defaults_then_tracks_p99() {
        let t = HedgeTracker::default();
        assert_eq!(t.delay(), DEFAULT_DELAY);
        for _ in 0..99 {
            t.record(Duration::from_millis(2));
        }
        t.record(Duration::from_millis(100));
        let d = t.delay();
        assert!(d >= Duration::from_millis(2) && d <= MAX_DELAY, "{d:?}");
    }

    #[test]
    fn hedge_window_wraps() {
        let t = HedgeTracker::default();
        for _ in 0..WINDOW {
            t.record(Duration::from_millis(100));
        }
        assert_eq!(t.delay(), Duration::from_millis(100));
        // A second windowful overwrites the first sample for sample.
        for _ in 0..WINDOW {
            t.record(Duration::from_micros(10));
        }
        assert_eq!(t.delay(), MIN_DELAY, "only the last window counts");
    }
}
