//! Exact deltas of process-global `muve_obs` counters.
//!
//! `dbms.queries`, `dbms.cancelled`, `dbms.partial_scans` and
//! `index.stale_drops` are process-wide, so a test asserting an exact
//! delta on one of them is only sound while nothing else in the process
//! moves that counter. The crate's unit tests run queries and drop
//! indexes in parallel; these tests therefore live in a binary of their
//! own and take [`EXCLUSIVE`] for their whole body.

use muve_dbms::{
    index_registry, parse, ColumnType, ExecError, ExecOptions, ScanProgress, ScanRequest, ScanRows,
    Schema, Table, Value,
};
use muve_obs::{metrics, CancelToken};
use std::sync::Mutex;

/// Serializes the tests in this binary: every counter delta below is only
/// exact while no other test executes queries or drops indexes.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn big(n: usize) -> Table {
    let schema = Schema::new([("k", ColumnType::Int), ("v", ColumnType::Int)]);
    let mut b = Table::builder("t", schema);
    for i in 0..n as i64 {
        b.push_row([Value::Int(i), Value::Int(i % 100)]);
    }
    b.build()
}

#[test]
fn cancelled_runs_do_not_count_as_queries() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let t = big(50_000);
    let q = parse("select count(*) from t").unwrap();
    let queries = metrics().counter("dbms.queries");
    let cancelled = metrics().counter("dbms.cancelled");
    let (q0, c0) = (queries.get(), cancelled.get());
    let token = CancelToken::never();
    token.cancel();
    let opts = ExecOptions {
        cancel: Some(&token),
        ..ExecOptions::default()
    };
    let _ = ScanRequest::new(ScanRows::All, opts).run(&t, &q);
    assert_eq!(queries.get(), q0, "cancelled run must not count");
    assert_eq!(cancelled.get() - c0, 1);
}

#[test]
fn cancelled_run_still_counts_partial_scan_work() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    // The abort path must report the rows it actually visited (the bug:
    // pre-batch-engine, stats were only written after a complete scan, so
    // aborted work vanished from the counters).
    let t = big(50_000);
    let q = parse("select count(*) from t").unwrap();
    let partial = metrics().counter("dbms.partial_scans");
    let p0 = partial.get();
    let token = CancelToken::never();
    token.cancel();
    let progress = ScanProgress::new();
    let opts = ExecOptions {
        cancel: Some(&token),
        mem: None,
        progress: Some(&progress),
    };
    assert_eq!(
        ScanRequest::new(ScanRows::All, opts).run(&t, &q),
        Err(ExecError::Cancelled)
    );
    assert_eq!(partial.get() - p0, 1, "aborted execution counted");
    // Pre-cancelled token: zero rows is correct — the point is that the
    // counters are written at all on the error path.
    assert_eq!(progress.rows_scanned(), 0);
}

#[test]
fn registry_drops_stale_fingerprints() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
    let mut b = Table::builder("t", schema);
    for i in 0..512 {
        b.push_row([Value::from(format!("k{}", i % 4)), Value::from(i as i64)]);
    }
    let t = b.build();
    let reg = index_registry();
    let _ = reg.get_or_build(&t, "k", &ExecOptions::default()).unwrap();
    assert!(reg.has_table(t.fingerprint()));
    let stale_drops = metrics().counter("index.stale_drops");
    let before = stale_drops.get();
    assert_eq!(reg.drop_tables(&[t.fingerprint()]), 1);
    assert!(!reg.has_table(t.fingerprint()));
    assert_eq!(stale_drops.get(), before + 1);
    // Dropping an unknown fingerprint is a no-op, not a counter hit.
    assert_eq!(reg.drop_tables(&[t.fingerprint()]), 0);
}
