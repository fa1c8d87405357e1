//! Morsel-driven scan scheduling.
//!
//! The batch engine splits a scan into fixed-size *morsels* (64K rows) and
//! hands them to a std-only pool of scoped workers through one shared
//! cursor: a worker claims the next unclaimed morsel index with a single
//! `fetch_add` and runs it, until the cursor passes the end. A worker is
//! therefore never idle while a morsel is unclaimed and never waits on
//! another worker. A shared stop flag short-circuits all workers as soon
//! as one of them fails (cancellation, memory exhaustion), so abort
//! latency stays bounded by one in-flight chunk per worker.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per morsel: the unit of work distribution (and of partial-
/// accumulator granularity). Large enough that scheduling overhead
/// vanishes, small enough that a multi-million-row scan spreads evenly
/// over the pool.
pub const MORSEL_ROWS: usize = 64 * 1024;

/// One unit of scan work: a half-open row range of the scan source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Index of this morsel within the scan (partials are combined in
    /// this order, making results deterministic under any schedule).
    pub index: usize,
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

/// Split `n_rows` rows into morsels of at most `morsel_rows` rows.
pub fn morsels(n_rows: usize, morsel_rows: usize) -> Vec<Morsel> {
    let morsel_rows = morsel_rows.max(1);
    let mut out = Vec::with_capacity(n_rows.div_ceil(morsel_rows));
    let mut start = 0;
    let mut index = 0;
    while start < n_rows {
        let end = (start + morsel_rows).min(n_rows);
        out.push(Morsel { index, start, end });
        start = end;
        index += 1;
    }
    out
}

/// Run `work(morsel_index)` for every index in `0..n_morsels`, spread over
/// `threads` workers claiming indices from one shared cursor. The first
/// error wins and raises the shared `stop` flag; remaining workers observe
/// it at their next morsel boundary (`work` is expected to also poll it at
/// finer grain). Every morsel is either executed exactly once or abandoned
/// after `stop`.
pub(crate) fn scan_parallel<E, F>(
    n_morsels: usize,
    threads: usize,
    stop: &AtomicBool,
    work: F,
) -> Result<(), E>
where
    E: Send,
    F: Fn(usize) -> Result<(), E> + Sync,
{
    let threads = threads.clamp(1, n_morsels.max(1));
    if threads <= 1 || n_morsels <= 1 {
        for m in 0..n_morsels {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if let Err(e) = work(m) {
                stop.store(true, Ordering::Relaxed);
                return Err(e);
            }
        }
        return Ok(());
    }

    // Relaxed is enough: the cursor publishes no data, it only hands out
    // distinct indices (`fetch_add` is atomic under any ordering), and the
    // scope's join orders every worker's writes before the caller's reads.
    let next = AtomicUsize::new(0);
    let first_err: Mutex<Option<E>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let m = next.fetch_add(1, Ordering::Relaxed);
                    if m >= n_morsels {
                        break;
                    }
                    if let Err(e) = work(m) {
                        stop.store(true, Ordering::Relaxed);
                        let mut slot = first_err.lock().unwrap_or_else(|p| p.into_inner());
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        break;
                    }
                }
            });
        }
    });

    match first_err.into_inner().unwrap_or_else(|p| p.into_inner()) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_split_covers_rows_exactly() {
        let ms = morsels(200_000, MORSEL_ROWS);
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0].start, 0);
        assert_eq!(ms.last().unwrap().end, 200_000);
        for w in ms.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!(w[0].index + 1, w[1].index);
        }
        assert!(morsels(0, MORSEL_ROWS).is_empty());
        assert_eq!(morsels(1, MORSEL_ROWS).len(), 1);
        assert_eq!(morsels(MORSEL_ROWS, MORSEL_ROWS).len(), 1);
        assert_eq!(morsels(MORSEL_ROWS + 1, MORSEL_ROWS).len(), 2);
    }

    #[test]
    fn every_morsel_runs_exactly_once_under_contention() {
        // Uneven per-morsel work so workers reach the cursor out of step.
        let n = 1000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let stop = AtomicBool::new(false);
        let r: Result<(), ()> = scan_parallel(n, 8, &stop, |m| {
            if m % 7 == 0 {
                std::thread::yield_now();
            }
            counts[m].fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(r.is_ok());
        for (m, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "morsel {m}");
        }
    }

    #[test]
    fn first_error_wins_and_stops_the_pool() {
        let executed = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let r = scan_parallel(1000, 4, &stop, |m| {
            executed.fetch_add(1, Ordering::Relaxed);
            if m == 3 {
                Err("boom")
            } else {
                std::thread::yield_now();
                Ok(())
            }
        });
        assert_eq!(r, Err("boom"));
        assert!(stop.load(Ordering::Relaxed));
        assert!(
            executed.load(Ordering::Relaxed) < 1000,
            "stop flag should abandon most of the scan"
        );
    }

    #[test]
    fn single_thread_path_is_sequential() {
        let order = Mutex::new(Vec::new());
        let stop = AtomicBool::new(false);
        let r: Result<(), ()> = scan_parallel(5, 1, &stop, |m| {
            order.lock().unwrap().push(m);
            Ok(())
        });
        assert!(r.is_ok());
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pre_raised_stop_runs_nothing() {
        let stop = AtomicBool::new(true);
        let executed = AtomicUsize::new(0);
        let r: Result<(), ()> = scan_parallel(100, 4, &stop, |_| {
            executed.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert!(r.is_ok());
        // Workers check the flag before every morsel; a few may slip one
        // claim in before observing it, but the bulk is abandoned.
        assert!(executed.load(Ordering::Relaxed) <= 8);
    }
}
