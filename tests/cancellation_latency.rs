//! Cancellation-latency contract: when a budget expires (or a token is
//! cancelled externally), in-flight work must *stop* — not merely be
//! skipped at the next stage boundary. The dbms scan loops check their
//! [`CancelToken`](muve::obs::CancelToken) every
//! [`CANCEL_STRIDE`](muve::dbms::CANCEL_STRIDE) rows, so abort latency is
//! bounded by one stride of work, far under the tolerance asserted here.
//!
//! Asserted bound: once cancellation is requested, direct scans, merged
//! scans, and the session's plan/execute stages all return within
//! `OVERSHOOT` (~25 ms) — on tables large enough that a full scan takes
//! much longer than that in debug builds.

use muve::data::Dataset;
use muve::dbms::{
    execute_merged_with_opts, index_registry, parse, plan_merged, probe_candidates, ExecError,
    ExecOptions, Query, ResultSet, ScanProgress, ScanRequest, ScanRows, Table,
};
use muve::obs::CancelToken;
use muve::pipeline::{Session, SessionConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum time a cancelled scan may keep running past the cancellation
/// point. One `CANCEL_STRIDE` of aggregation is microseconds even in debug
/// builds; 25 ms leaves room for scheduler noise.
const OVERSHOOT: Duration = Duration::from_millis(25);

/// Delay before the external cancel fires mid-scan.
const CANCEL_AFTER: Duration = Duration::from_millis(5);

/// Large enough that a grouped debug-mode scan takes well over
/// `CANCEL_AFTER + OVERSHOOT`, so a late abort would actually be caught.
const ROWS: usize = 400_000;

fn big_table() -> Table {
    Dataset::Flights.generate(ROWS, 7)
}

/// A direct scan: a `ScanRows::All` request under `opts`.
fn scan(table: &Table, query: &Query, opts: ExecOptions<'_>) -> Result<ResultSet, ExecError> {
    ScanRequest::new(ScanRows::All, opts).run(table, query)
}

/// Cancel a token from another thread after `CANCEL_AFTER`, run `work`,
/// and return (result, elapsed).
fn run_with_midflight_cancel<T>(token: &CancelToken, work: impl FnOnce() -> T) -> (T, Duration) {
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(CANCEL_AFTER);
            token.cancel();
        })
    };
    let start = Instant::now();
    let out = work();
    let elapsed = start.elapsed();
    canceller.join().expect("canceller thread panicked");
    (out, elapsed)
}

#[test]
fn direct_scan_aborts_within_overshoot_of_cancellation() {
    let table = big_table();
    let query = parse("select avg(dep_delay) from flights group by dest").unwrap();

    let token = CancelToken::never();
    let opts = ExecOptions {
        cancel: Some(&token),
        ..ExecOptions::default()
    };
    let (result, elapsed) = run_with_midflight_cancel(&token, || scan(&table, &query, opts));

    // Either the scan outran the canceller (fast machine, release build) or
    // it was aborted with the typed error — never a late success.
    match result {
        Ok(_) => assert!(
            elapsed < CANCEL_AFTER + OVERSHOOT,
            "scan claims success but ran {elapsed:?}, past the cancellation point"
        ),
        Err(ExecError::Cancelled) => assert!(
            elapsed <= CANCEL_AFTER + OVERSHOOT,
            "cancelled scan overshot: {elapsed:?} > {CANCEL_AFTER:?} + {OVERSHOOT:?}"
        ),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn merged_scan_aborts_within_overshoot_of_cancellation() {
    let table = big_table();
    let queries: Vec<_> = ["AA", "UA", "DL", "WN"]
        .iter()
        .map(|c| {
            parse(&format!(
                "select avg(dep_delay) from flights where carrier = '{c}'"
            ))
            .unwrap()
        })
        .collect();
    let groups = plan_merged(&queries);
    let group = groups
        .iter()
        .find(|g| g.members.len() > 1)
        .expect("phonetically-similar predicates should merge into one scan");

    let token = CancelToken::never();
    let opts = ExecOptions {
        cancel: Some(&token),
        ..ExecOptions::default()
    };
    let (result, elapsed) =
        run_with_midflight_cancel(&token, || execute_merged_with_opts(&table, group, opts));
    match result {
        Ok(_) => assert!(
            elapsed < CANCEL_AFTER + OVERSHOOT,
            "merged scan claims success but ran {elapsed:?}"
        ),
        Err(ExecError::Cancelled) => assert!(
            elapsed <= CANCEL_AFTER + OVERSHOOT,
            "cancelled merged scan overshot: {elapsed:?}"
        ),
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// Aborting a scan must not lose the work it already did: a mid-flight
/// cancel still reports the rows scanned so far through the
/// [`ScanProgress`] out-param (and the `dbms.partial_scans` counter). The
/// old executor threw this accounting away with the aborted call frame.
#[test]
fn cancelled_scan_reports_partial_work() {
    let table = big_table();
    let query = parse("select avg(dep_delay) from flights group by dest").unwrap();

    let token = CancelToken::never();
    let progress = ScanProgress::new();
    let opts = ExecOptions {
        cancel: Some(&token),
        progress: Some(&progress),
        ..ExecOptions::default()
    };
    let partials_before = muve::obs::metrics().counter("dbms.partial_scans").get();
    let (result, _) = run_with_midflight_cancel(&token, || scan(&table, &query, opts));

    match result {
        // Outran the canceller (release build): the full scan is visible.
        Ok(rs) => assert_eq!(progress.rows_scanned() as usize, rs.stats.rows_scanned),
        Err(ExecError::Cancelled) => {
            // CANCEL_AFTER ms of debug-mode scanning covers many chunks:
            // the abort path must surface that partial work, not zero it.
            let scanned = progress.rows_scanned();
            assert!(
                scanned > 0,
                "mid-flight cancel lost all partial-scan accounting"
            );
            assert!(
                (scanned as usize) < ROWS,
                "cancelled scan claims it finished the whole table"
            );
            assert!(
                muve::obs::metrics().counter("dbms.partial_scans").get() > partials_before,
                "aborted execution did not record a partial scan"
            );
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn already_expired_budget_aborts_in_one_stride() {
    let table = big_table();
    let query = parse("select sum(arr_delay) from flights group by origin").unwrap();
    let token = CancelToken::with_budget(Duration::ZERO);
    let opts = ExecOptions {
        cancel: Some(&token),
        ..ExecOptions::default()
    };
    let start = Instant::now();
    let err = scan(&table, &query, opts).unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, ExecError::Cancelled), "{err}");
    assert!(
        elapsed <= OVERSHOOT,
        "expired-budget scan should abort within one stride: {elapsed:?}"
    );
}

/// Index builds poll the token every `CANCEL_STRIDE` rows during both the
/// counting and fill passes, and an aborted build must store **nothing**:
/// the registry either holds a complete index or none at all, so a later
/// probe rebuilds from scratch and answers correctly.
#[test]
fn mid_build_cancellation_leaves_no_partial_index() {
    let table = big_table();
    let query = parse("select count(*) from flights where origin = 'MSP'").unwrap();
    index_registry().drop_tables(&[table.fingerprint()]);

    let token = CancelToken::never();
    let opts = ExecOptions {
        cancel: Some(&token),
        ..ExecOptions::default()
    };
    let (result, elapsed) =
        run_with_midflight_cancel(&token, || probe_candidates(&table, &query, &opts));
    match result {
        // Outran the canceller (release build): the probe completed whole.
        Ok(Some(_)) => assert!(
            elapsed < CANCEL_AFTER + OVERSHOOT,
            "probe claims success but ran {elapsed:?}, past the cancellation point"
        ),
        Err(ExecError::Cancelled) => {
            assert!(
                elapsed <= CANCEL_AFTER + OVERSHOOT,
                "cancelled index build overshot: {elapsed:?}"
            );
            assert!(
                !index_registry().has_table(table.fingerprint()),
                "aborted build left a partial index in the registry"
            );
        }
        other => panic!("unexpected probe outcome: {other:?}"),
    }

    // A fresh, uncancelled probe rebuilds and agrees with the scan.
    let ids = probe_candidates(&table, &query, &ExecOptions::default())
        .expect("rebuild failed")
        .expect("origin predicate is indexable");
    let want = scan(&table, &query, ExecOptions::default()).unwrap();
    assert_eq!(Some(ids.len() as f64), want.scalar(), "rebuilt index wrong");
    index_registry().drop_tables(&[table.fingerprint()]);
}

/// The session-level guarantee behind DESIGN.md §12: with the token
/// threaded into the solver's node loop and the executor's scan loops, the
/// plan and execute stages cannot overrun their allotments by more than
/// the abort tolerance even when the total budget expires mid-stage.
#[test]
fn session_stages_hold_their_allotments_under_expiring_budget() {
    let table = Arc::new(big_table());
    // Tight enough to expire somewhere inside plan/execute on a debug
    // build, generous enough that the early stages actually run.
    let config = SessionConfig {
        deadline: Duration::from_millis(40),
        ..SessionConfig::default()
    };
    let outcome = Session::new(&table, config).run("average arr delay by carrier");
    for stage in ["plan", "execute"] {
        let Some(span) = outcome.stage_trace.span(stage) else {
            continue;
        };
        let Some(allotted) = span.allotted else {
            continue; // skipped before start — zero time spent by definition
        };
        assert!(
            span.spent <= allotted + OVERSHOOT,
            "{stage} overran its allotment: spent {:?} of {allotted:?} (+{OVERSHOOT:?} tolerance)",
            span.spent,
        );
    }
    // The whole answer respects the interactivity contract too. The
    // per-stage bound above is the tight one; this end-to-end check gets
    // extra fixed slack for scheduler noise on loaded CI machines.
    assert!(
        outcome.elapsed <= Duration::from_millis(40) + OVERSHOOT * 2 + Duration::from_millis(100),
        "session overshot its budget: {:?}",
        outcome.elapsed
    );
}
