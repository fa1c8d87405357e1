//! Query executor: scan → filter → aggregate.
//!
//! Every execution enters through one door, [`ScanRequest`]: which rows
//! to scan ([`ScanRows`]: all of them, an explicit row-id selection, or a
//! seeded systematic sample for approximate processing, paper §8.2), the
//! robustness hooks ([`ExecOptions`]) and the engine configuration
//! ([`BatchConfig`]). The door compiles the query once — string constants
//! resolve to dictionary codes, a constant missing from the dictionary
//! collapses its predicate to "always false" without touching a row —
//! validates a selection, makes the index-vs-scan choice for a full scan,
//! draws and scales a sample, and runs the morsel-driven batch engine in
//! [`crate::batch`] on the caller's thread: chunked predicate kernels
//! over selection bitmaps and per-morsel partial accumulators folded in
//! morsel order. [`execute`], [`crate::sample::execute_approximate`] and
//! [`crate::merge::execute_merged_with_opts`] are thin wrappers over it.
//!
//! A row-at-a-time reference implementation ([`execute_reference`]) is
//! retained as the executable specification: the differential suites
//! hold every execution path to it.

use crate::ast::Query;
use crate::batch::{
    group_state_bytes, materialize_flat, materialize_grouped, run_scan, scan_partials,
    validate_selection, Acc, BatchConfig, CompiledQuery, QueryPartials, SharedCharge,
};
use crate::index::index_candidates;
use crate::sample::{realized_fraction, scale_result, systematic_rows};
use crate::table::Table;
use muve_obs::{CancelToken, MemBudget, MemExhausted};
use rustc_hash::FxHashMap;
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A referenced column does not exist.
    UnknownColumn(String),
    /// A referenced table does not exist (database-level entry points).
    UnknownTable(String),
    /// A type mismatch, e.g. `sum` over a string column.
    TypeError(String),
    /// Execution was cut short at a cancellation point (deadline expiry or
    /// an explicit cancel, e.g. from the serve watchdog).
    Cancelled,
    /// The memory governor rejected an allocation: group-aggregation state
    /// or result materialization would have exceeded a cap.
    ResourceExhausted {
        /// Bytes in use at the cap that rejected the charge.
        used: usize,
        /// The cap in bytes.
        cap: usize,
        /// Whether the global pool (vs. the per-request cap) rejected it.
        global: bool,
    },
    /// No execution backend could serve the query — e.g. every replica of
    /// a shard is down and partial answers are not allowed. Distinct from
    /// [`ExecError::Cancelled`]: the caller did not give up, the backends
    /// did.
    Unavailable(String),
    /// A row selection referenced a row id past the end of the table.
    /// The scan kernels trust their selection (no per-lane bounds
    /// checks), so ids from external sources are validated at the entry
    /// points and rejected with this error instead of panicking.
    SelectionOutOfBounds {
        /// The first out-of-range id, in selection order.
        id: u32,
        /// Number of rows in the table.
        rows: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownColumn(c) => write!(f, "unknown column {c:?}"),
            ExecError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            ExecError::TypeError(m) => write!(f, "type error: {m}"),
            ExecError::Cancelled => write!(f, "execution cancelled"),
            ExecError::ResourceExhausted { used, cap, global } => write!(
                f,
                "{} memory cap exhausted ({used} of {cap} bytes)",
                if *global { "global" } else { "per-request" }
            ),
            ExecError::Unavailable(m) => write!(f, "execution backend unavailable: {m}"),
            ExecError::SelectionOutOfBounds { id, rows } => {
                write!(f, "selection row id {id} out of bounds for {rows} rows")
            }
        }
    }
}

impl From<MemExhausted> for ExecError {
    fn from(e: MemExhausted) -> ExecError {
        ExecError::ResourceExhausted {
            used: e.used,
            cap: e.cap,
            global: e.global,
        }
    }
}

impl std::error::Error for ExecError {}

/// Live scan-progress counters, shared with the caller through
/// [`ExecOptions::progress`]. Counters only ever grow (they accumulate
/// across executions sharing one instance), and — crucially — an aborted
/// execution leaves the work it actually did visible here, so cancelled
/// scans report true partial work instead of losing it.
#[derive(Debug, Default)]
pub struct ScanProgress {
    rows_scanned: AtomicU64,
    rows_matched: AtomicU64,
}

impl ScanProgress {
    /// Fresh zeroed counters.
    pub fn new() -> ScanProgress {
        ScanProgress::default()
    }

    /// Rows visited so far.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Rows that satisfied all predicates so far.
    pub fn rows_matched(&self) -> u64 {
        self.rows_matched.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn add(&self, scanned: u64, matched: u64) {
        self.rows_scanned.fetch_add(scanned, Ordering::Relaxed);
        self.rows_matched.fetch_add(matched, Ordering::Relaxed);
    }
}

/// Optional robustness hooks threaded into an execution: a cancellation
/// token polled at chunk boundaries (every [`crate::batch::CHUNK_ROWS`]
/// rows in the batch engine, every [`CANCEL_STRIDE`] rows in the reference
/// path), a memory budget charged for group-aggregation state and result
/// materialization, and a progress out-param updated as the scan runs.
/// The default (all `None`) is bit-identical to ungoverned execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Cancellation point, polled at chunk boundaries.
    pub cancel: Option<&'a CancelToken>,
    /// Memory governor charged for execution state.
    pub mem: Option<&'a MemBudget>,
    /// Out-param receiving scanned/matched row counts while the scan runs
    /// (the batch engine publishes per chunk; the reference path once, on
    /// completion or abort). An aborted scan's partial work stays visible.
    pub progress: Option<&'a ScanProgress>,
}

/// How many rows the *reference* scan advances between cancellation-point
/// checks (the batch engine polls at chunk boundaries instead). Small
/// enough that even a full-table scan over millions of rows reacts to
/// expiry within a few hundred microseconds; large enough that the
/// `Instant::now()` per check vanishes in the noise.
pub const CANCEL_STRIDE: usize = 1024;

#[inline]
pub(crate) fn check_cancel(cancel: Option<&CancelToken>) -> Result<(), ExecError> {
    match cancel {
        Some(t) if t.should_stop() => {
            muve_obs::metrics().counter("dbms.cancelled").incr();
            Err(ExecError::Cancelled)
        }
        _ => Ok(()),
    }
}

/// RAII accounting for the transient memory an execution holds: charges
/// accumulate during the scan and are released when the execution ends
/// (whatever way it ends), so the governor tracks peak in-flight state.
struct MemCharge<'a> {
    mem: Option<&'a MemBudget>,
    bytes: usize,
}

impl<'a> MemCharge<'a> {
    fn new(mem: Option<&'a MemBudget>) -> MemCharge<'a> {
        MemCharge { mem, bytes: 0 }
    }

    #[inline]
    fn charge(&mut self, bytes: usize) -> Result<(), ExecError> {
        if let Some(m) = self.mem {
            m.try_charge(bytes).map_err(|e| {
                muve_obs::metrics().counter("dbms.mem_aborts").incr();
                ExecError::from(e)
            })?;
            self.bytes += bytes;
        }
        Ok(())
    }
}

impl Drop for MemCharge<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.mem {
            m.release(self.bytes);
        }
    }
}

/// Scan statistics of one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows visited by the scan.
    pub rows_scanned: usize,
    /// Rows satisfying all predicates.
    pub rows_matched: usize,
}

/// A materialized result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names (group-by columns first, then aggregates).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Scan statistics.
    pub stats: ExecStats,
}

use crate::value::Value;

impl ResultSet {
    /// The single scalar of a one-aggregate, non-grouped query
    /// (`None` if the value is NULL).
    pub fn scalar(&self) -> Option<f64> {
        self.rows
            .first()
            .and_then(|r| r.first())
            .and_then(Value::as_f64)
    }

    /// Rough in-memory size in bytes, used by the result cache to charge
    /// entries against its byte budget.
    pub fn approx_bytes(&self) -> usize {
        let cell = |v: &Value| match v {
            Value::Str(s) => s.len() + 24,
            _ => 16,
        };
        self.columns.iter().map(|c| c.len() + 24).sum::<usize>()
            + self
                .rows
                .iter()
                .map(|r| r.iter().map(cell).sum::<usize>() + 24)
                .sum::<usize>()
    }
}

/// Which rows a [`ScanRequest`] scans.
#[derive(Debug, Clone, Copy)]
pub enum ScanRows<'a> {
    /// Every row. A query with a selective equality/`IN` predicate over a
    /// dictionary column is answered from the inverted indexes of
    /// [`crate::index`] instead when the access-path planner
    /// ([`crate::cost::choose_access_path`]) says so; results and typed
    /// errors are identical either way, only `rows_scanned` shrinks to
    /// the candidate count.
    All,
    /// Exactly these row ids. An id past the end of the table is rejected
    /// with [`ExecError::SelectionOutOfBounds`].
    Ids(&'a [u32]),
    /// The systematic sample [`crate::sample::systematic_rows`] draws for
    /// `(fraction, seed)`; [`ScanRequest::run`] scales COUNT and SUM by
    /// the realized fraction.
    Sample {
        /// Requested fraction of rows, clamped to `[0, 1]`.
        fraction: f64,
        /// Sampling seed.
        seed: u64,
    },
}

/// One execution request, the single entry into the scan engine: direct
/// queries, merge groups, sampled rungs and shard sub-queries all describe
/// their scan here. The request compiles the query once, validates a
/// selection, makes the index-vs-scan choice for [`ScanRows::All`], and
/// draws and scales a sample.
#[derive(Debug, Clone, Copy)]
pub struct ScanRequest<'a> {
    /// Which rows to scan.
    pub rows: ScanRows<'a>,
    /// Cancellation, memory-governor and progress hooks; the default is
    /// bit-identical to ungoverned execution.
    pub opts: ExecOptions<'a>,
    /// Morsel size.
    pub cfg: BatchConfig,
}

impl<'a> ScanRequest<'a> {
    /// A request over `rows` under `opts`, with the default engine
    /// configuration.
    pub fn new(rows: ScanRows<'a>, opts: ExecOptions<'a>) -> ScanRequest<'a> {
        ScanRequest {
            rows,
            opts,
            cfg: BatchConfig::default(),
        }
    }

    /// The scan half of [`run`](Self::run): the un-materialized partial
    /// aggregates a shard ships to
    /// [`combine_partials`](crate::batch::combine_partials) (a sample's
    /// unscaled). Errors and abort accounting match `run`; success records
    /// nothing, because the combine records the one logical query.
    pub fn partials(&self, table: &Table, query: &Query) -> Result<QueryPartials, ExecError> {
        let cq = CompiledQuery::compile(table, query)?;
        let ids = self.select(table, query)?;
        let charge = SharedCharge::new(self.opts.mem);
        scan_partials(&cq, ids.as_deref(), &self.opts, &self.cfg, &charge)
    }

    /// Execute `query` against `table`: [`partials`](Self::partials) plus
    /// the one finish — materialize, charge the result against the memory
    /// governor, record the query's metrics — then, for a sample, scale.
    /// The scan aborts with [`ExecError::Cancelled`] at the first chunk
    /// boundary after the token fires, and with
    /// [`ExecError::ResourceExhausted`] when a memory cap is hit.
    pub fn run(&self, table: &Table, query: &Query) -> Result<ResultSet, ExecError> {
        let cq = CompiledQuery::compile(table, query)?;
        let ids = self.select(table, query)?;
        let rs = run_scan(&cq, query, ids.as_deref(), &self.opts, &self.cfg)?;
        if !matches!(self.rows, ScanRows::Sample { .. }) {
            return Ok(rs);
        }
        muve_obs::metrics().counter("dbms.sample_execs").incr();
        let realized = realized_fraction(rs.stats.rows_scanned, table.num_rows());
        Ok(scale_result(rs, query, realized))
    }

    /// The row ids to scan (`None` = every row): the caller's validated
    /// ids, the index candidates when the planner takes the index path,
    /// or a drawn sample.
    fn select(&self, table: &Table, query: &Query) -> Result<Option<Cow<'a, [u32]>>, ExecError> {
        Ok(match self.rows {
            ScanRows::All => index_candidates(table, query, &self.opts)?.map(Cow::Owned),
            ScanRows::Ids(ids) => {
                validate_selection(table, ids)?;
                Some(Cow::Borrowed(ids))
            }
            ScanRows::Sample { fraction, seed } => Some(Cow::Owned(systematic_rows(
                table.num_rows(),
                fraction,
                seed,
            ))),
        })
    }
}

/// Row-at-a-time reference executor, retained as the differential oracle
/// every execution path is checked against (the path registry of the
/// `muve-testkit` crate) and as the readable specification of execution
/// semantics: same compiled plan, same materialization, same typed errors
/// and metrics contracts as [`ScanRequest::run`] — only the scan loop
/// differs. It adds floats row by row, the batch engine morsel by morsel:
/// their SUM and AVG are bit-identical when every partial sum is exact
/// (integers, dyadic rationals such as the suites' multiples of 1/4) and
/// otherwise agree to about 15 significant digits.
pub fn execute_reference(
    table: &Table,
    query: &Query,
    selection: Option<&[u32]>,
    opts: ExecOptions<'_>,
) -> Result<ResultSet, ExecError> {
    let cq = CompiledQuery::compile(table, query)?;
    if let Some(ids) = selection {
        validate_selection(table, ids)?;
    }
    let mut scanned = 0usize;
    let mut matched = 0usize;
    let result = reference_scan(
        table,
        query,
        &cq,
        selection,
        &opts,
        &mut scanned,
        &mut matched,
    );
    // Rows scanned/matched are accumulated incrementally, so the abort
    // path reports the work actually done instead of losing it.
    if let Some(p) = opts.progress {
        p.add(scanned as u64, matched as u64);
    }
    match result {
        Ok(rs) => {
            record_query_metrics(&rs.stats);
            Ok(rs)
        }
        Err(e) => {
            record_partial_metrics(&ExecStats {
                rows_scanned: scanned,
                rows_matched: matched,
            });
            Err(e)
        }
    }
}

fn reference_scan(
    table: &Table,
    query: &Query,
    cq: &CompiledQuery<'_>,
    selection: Option<&[u32]>,
    opts: &ExecOptions<'_>,
    scanned: &mut usize,
    matched: &mut usize,
) -> Result<ResultSet, ExecError> {
    let n = table.num_rows();
    let cancel = opts.cancel;
    // The per-row callback can fail (memory cap); the scan itself checks
    // the cancellation token every CANCEL_STRIDE rows and propagates both
    // aborts out of the hot loop immediately.
    let mut scan = |f: &mut dyn FnMut(usize) -> Result<(), ExecError>| -> Result<(), ExecError> {
        match selection {
            Some(rows) => {
                for (i, &r) in rows.iter().enumerate() {
                    if i % CANCEL_STRIDE == 0 {
                        check_cancel(cancel)?;
                    }
                    *scanned += 1;
                    f(r as usize)?;
                }
            }
            None => {
                for r in 0..n {
                    if r % CANCEL_STRIDE == 0 {
                        check_cancel(cancel)?;
                    }
                    *scanned += 1;
                    f(r)?;
                }
            }
        }
        Ok(())
    };

    let mut mem = MemCharge::new(opts.mem);

    if cq.key.is_empty() {
        let mut accs = vec![Acc::new(); cq.inputs.len()];
        scan(&mut |row| {
            if cq.preds.iter().all(|p| p.matches(row)) {
                *matched += 1;
                for (acc, input) in accs.iter_mut().zip(&cq.inputs) {
                    if let Some(v) = input.value(row) {
                        acc.feed(v);
                    }
                }
            }
            Ok(())
        })?;
        let stats = ExecStats {
            rows_scanned: *scanned,
            rows_matched: *matched,
        };
        let rs = materialize_flat(cq, query, &accs, stats);
        mem.charge(rs.approx_bytes())?;
        return Ok(rs);
    }

    // Grouped execution. The group key is built in a reusable scratch
    // buffer and only cloned into the map when a new group first appears,
    // so the hot loop does no per-row allocation. Each new group charges
    // its state against the memory budget *before* it is inserted — the
    // governor caps the aggregation state itself, not just the result.
    let mut groups: FxHashMap<Vec<i64>, Vec<Acc>> = FxHashMap::default();
    let mut key_buf: Vec<i64> = Vec::with_capacity(cq.key.len());
    let n_accs = cq.inputs.len();
    scan(&mut |row| {
        if cq.preds.iter().all(|p| p.matches(row)) {
            *matched += 1;
            cq.key.fill(row, &mut key_buf);
            let accs = match groups.get_mut(key_buf.as_slice()) {
                Some(accs) => accs,
                None => {
                    mem.charge(group_state_bytes(key_buf.len(), n_accs))?;
                    groups
                        .entry(key_buf.clone())
                        .or_insert_with(|| vec![Acc::new(); n_accs])
                }
            };
            for (acc, input) in accs.iter_mut().zip(&cq.inputs) {
                if let Some(v) = input.value(row) {
                    acc.feed(v);
                }
            }
        }
        Ok(())
    })?;
    let stats = ExecStats {
        rows_scanned: *scanned,
        rows_matched: *matched,
    };
    let rs = materialize_grouped(cq, query, groups, stats);
    mem.charge(rs.approx_bytes())?;
    Ok(rs)
}

/// Record per-execution counters. Called on *every* successful execution
/// — grouped or not — so `dbms.queries` counts underlying executions
/// exactly (the single-flight tests rely on this).
pub(crate) fn record_query_metrics(stats: &ExecStats) {
    let obs = muve_obs::metrics();
    obs.counter("dbms.queries").incr();
    obs.counter("dbms.rows_scanned")
        .add(stats.rows_scanned as u64);
    obs.counter("dbms.rows_matched")
        .add(stats.rows_matched as u64);
}

/// Record abort-path counters: the scan died (cancelled or out of memory)
/// but the rows it *did* visit still count toward `dbms.rows_scanned` /
/// `dbms.rows_matched`, and `dbms.partial_scans` counts the aborted
/// execution itself. `dbms.queries` stays untouched — it counts only
/// completed executions.
pub(crate) fn record_partial_metrics(stats: &ExecStats) {
    let obs = muve_obs::metrics();
    obs.counter("dbms.partial_scans").incr();
    obs.counter("dbms.rows_scanned")
        .add(stats.rows_scanned as u64);
    obs.counter("dbms.rows_matched")
        .add(stats.rows_matched as u64);
}

/// Execute `query` against `table` over all rows: a [`ScanRows::All`]
/// request with default hooks.
pub fn execute(table: &Table, query: &Query) -> Result<ResultSet, ExecError> {
    ScanRequest::new(ScanRows::All, ExecOptions::default()).run(table, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{AggFunc, Aggregate, Predicate, Query};
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::value::ColumnType;

    fn flights() -> Table {
        let schema = Schema::new([
            ("origin", ColumnType::Str),
            ("carrier", ColumnType::Str),
            ("delay", ColumnType::Int),
            ("dist", ColumnType::Float),
        ]);
        let mut b = Table::builder("flights", schema);
        let rows: &[(&str, &str, i64, f64)] = &[
            ("JFK", "AA", 10, 100.0),
            ("JFK", "UA", 20, 200.0),
            ("LGA", "AA", 30, 300.0),
            ("JFK", "AA", 40, 400.0),
            ("LGA", "DL", 50, 500.0),
        ];
        for &(o, c, d, x) in rows {
            b.push_row([o.into(), c.into(), d.into(), x.into()]);
        }
        b.build()
    }

    fn run(sql: &str) -> ResultSet {
        execute(&flights(), &parse(sql).unwrap()).unwrap()
    }

    #[test]
    fn count_star() {
        let r = run("select count(*) from flights");
        assert_eq!(r.rows, vec![vec![Value::Int(5)]]);
        assert_eq!(r.stats.rows_scanned, 5);
        assert_eq!(r.stats.rows_matched, 5);
    }

    #[test]
    fn filtered_aggregates() {
        let r = run("select sum(delay) from flights where origin = 'JFK'");
        assert_eq!(r.scalar(), Some(70.0));
        let r = run("select avg(delay) from flights where carrier = 'AA'");
        assert!((r.scalar().unwrap() - 80.0 / 3.0).abs() < 1e-9);
        let r = run("select min(dist), count(*) from flights where origin = 'LGA'");
        assert_eq!(r.rows[0], vec![Value::Float(300.0), Value::Int(2)]);
    }

    #[test]
    fn in_predicate() {
        let r = run("select count(*) from flights where carrier in ('AA', 'DL')");
        assert_eq!(r.scalar(), Some(4.0));
    }

    #[test]
    fn missing_dictionary_constant_is_empty() {
        let r = run("select count(*) from flights where origin = 'SFO'");
        assert_eq!(r.scalar(), Some(0.0));
        // Matched nothing, scanned nothing extra (AlwaysFalse shortcut still
        // scans rows but matches none).
        assert_eq!(r.stats.rows_matched, 0);
    }

    #[test]
    fn empty_result_null_semantics() {
        let r = run(
            "select sum(delay), avg(delay), min(delay), max(delay), count(*) \
                     from flights where origin = 'XXX'",
        );
        assert_eq!(
            r.rows[0],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Int(0)
            ]
        );
        assert_eq!(r.scalar(), None);
    }

    #[test]
    fn group_by_string() {
        let r = run("select count(*), avg(delay) from flights group by origin");
        assert_eq!(r.columns, vec!["origin", "count(*)", "avg(delay)"]);
        assert_eq!(r.rows.len(), 2);
        // Sorted by dictionary code: JFK interned first.
        assert_eq!(r.rows[0][0], Value::Str("JFK".into()));
        assert_eq!(r.rows[0][1], Value::Int(3));
        assert_eq!(r.rows[1][0], Value::Str("LGA".into()));
    }

    #[test]
    fn group_by_with_filter() {
        let r = run("select sum(delay) from flights where origin = 'JFK' group by carrier");
        assert_eq!(r.rows.len(), 2);
        let total: f64 = r.rows.iter().map(|row| row[1].as_f64().unwrap()).sum();
        assert_eq!(total, 70.0);
    }

    #[test]
    fn selection_restricts_scan() {
        let t = flights();
        let q = parse("select count(*) from flights").unwrap();
        let r = ScanRequest::new(ScanRows::Ids(&[0, 2, 4]), ExecOptions::default())
            .run(&t, &q)
            .unwrap();
        assert_eq!(r.scalar(), Some(3.0));
        assert_eq!(r.stats.rows_scanned, 3);
    }

    #[test]
    fn error_paths() {
        let t = flights();
        assert!(matches!(
            execute(&t, &parse("select count(*) from other").unwrap()),
            Err(ExecError::UnknownTable(_))
        ));
        assert!(matches!(
            execute(
                &t,
                &parse("select count(*) from flights where nope = 1").unwrap()
            ),
            Err(ExecError::UnknownColumn(_))
        ));
        assert!(matches!(
            execute(&t, &parse("select sum(origin) from flights").unwrap()),
            Err(ExecError::TypeError(_))
        ));
        assert!(matches!(
            execute(
                &t,
                &parse("select count(*) from flights where delay = 'x'").unwrap()
            ),
            Err(ExecError::TypeError(_))
        ));
        assert!(matches!(
            execute(
                &t,
                &parse("select count(*) from flights group by dist").unwrap()
            ),
            Err(ExecError::TypeError(_))
        ));
    }

    #[test]
    fn int_column_predicates() {
        let r = run("select count(*) from flights where delay = 30");
        assert_eq!(r.scalar(), Some(1.0));
        let r = run("select count(*) from flights where delay in (10, 50)");
        assert_eq!(r.scalar(), Some(2.0));
    }

    #[test]
    fn fractional_float_on_int_column_matches_nothing() {
        // Per SQL semantics `delay = 19.5` is false for every integer
        // delay — not a type error (regression: this used to fail the
        // whole query). Whole-valued floats still match.
        let r = run("select count(*) from flights where delay = 19.5");
        assert_eq!(r.scalar(), Some(0.0));
        let r = run("select count(*) from flights where delay in (10.5, 20.0)");
        assert_eq!(r.scalar(), Some(1.0));
        let r = run("select sum(delay) from flights where delay = 0.25");
        assert_eq!(r.scalar(), None);
        // Genuine type mismatches stay hard errors.
        assert!(matches!(
            execute(
                &flights(),
                &parse("select count(*) from flights where delay = 'x'").unwrap()
            ),
            Err(ExecError::TypeError(_))
        ));
    }

    #[test]
    fn float_eq_predicate() {
        let r = run("select count(*) from flights where dist = 200.0");
        assert_eq!(r.scalar(), Some(1.0));
    }

    #[test]
    fn builder_query_matches_sql() {
        let t = flights();
        let q = Query {
            table: "flights".into(),
            aggregates: vec![Aggregate::over(AggFunc::Max, "delay")],
            predicates: vec![Predicate::eq("origin", "JFK")],
            group_by: vec![],
        };
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.scalar(), Some(40.0));
    }

    #[test]
    fn nulls_skipped_in_aggregates() {
        let schema = Schema::new([("x", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        b.push_row([Value::Int(1)]);
        b.push_row([Value::Null]);
        b.push_row([Value::Int(3)]);
        let t = b.build();
        let r = execute(&t, &parse("select sum(x), count(*) from t").unwrap()).unwrap();
        assert_eq!(r.rows[0], vec![Value::Float(4.0), Value::Int(3)]);
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::value::ColumnType;
    use muve_obs::{CancelToken, MemBudget, MemPool};
    use std::sync::Arc;

    fn big(n: usize) -> Table {
        let schema = Schema::new([("k", ColumnType::Int), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..n as i64 {
            b.push_row([Value::Int(i), Value::Int(i % 100)]);
        }
        b.build()
    }

    fn run_all(t: &Table, q: &Query, opts: ExecOptions<'_>) -> Result<ResultSet, ExecError> {
        ScanRequest::new(ScanRows::All, opts).run(t, q)
    }

    #[test]
    fn default_opts_bit_identical() {
        let t = big(10_000);
        let q = parse("select sum(v) from t where v < 50 group by v").unwrap();
        let a = execute(&t, &q).unwrap();
        let door = ScanRequest::new(ScanRows::All, ExecOptions::default());
        let parts = door.partials(&t, &q).unwrap();
        let b = crate::batch::combine_partials(&t, &q, vec![parts], ExecOptions::default());
        assert_eq!(a, b.unwrap());
    }

    #[test]
    fn reference_path_matches_batch_engine() {
        let t = big(10_000);
        for sql in [
            "select sum(v), count(*) from t where v < 50 group by v",
            "select avg(v), min(k), max(k) from t",
        ] {
            let q = parse(sql).unwrap();
            let a = execute(&t, &q).unwrap();
            let b = execute_reference(&t, &q, None, ExecOptions::default()).unwrap();
            assert_eq!(a, b, "{sql}");
        }
    }

    #[test]
    fn cancelled_token_aborts_scan() {
        let t = big(200_000);
        let q = parse("select count(*) from t group by k").unwrap();
        let token = CancelToken::never();
        token.cancel();
        let opts = ExecOptions {
            cancel: Some(&token),
            ..ExecOptions::default()
        };
        assert_eq!(run_all(&t, &q, opts), Err(ExecError::Cancelled));
        // Selection path too.
        let rows: Vec<u32> = (0..100_000).collect();
        assert_eq!(
            ScanRequest::new(ScanRows::Ids(&rows), opts).run(&t, &q),
            Err(ExecError::Cancelled)
        );
    }

    #[test]
    fn group_state_hits_request_cap() {
        // group by k over distinct keys: state grows with the row count
        // and must trip a small per-request cap mid-scan.
        let t = big(50_000);
        let q = parse("select count(*) from t group by k").unwrap();
        let mem = MemBudget::new(10_000, None);
        let opts = ExecOptions {
            mem: Some(&mem),
            ..ExecOptions::default()
        };
        match run_all(&t, &q, opts) {
            Err(ExecError::ResourceExhausted { global: false, .. }) => {}
            other => panic!("expected per-request exhaustion, got {other:?}"),
        }
        assert_eq!(mem.used(), 0, "abort releases everything charged");
    }

    #[test]
    fn global_pool_released_after_execution() {
        let pool = Arc::new(MemPool::new(1 << 30));
        let mem = MemBudget::pooled(Arc::clone(&pool));
        let t = big(20_000);
        let q = parse("select count(*) from t group by k").unwrap();
        let opts = ExecOptions {
            mem: Some(&mem),
            ..ExecOptions::default()
        };
        let rs = run_all(&t, &q, opts).unwrap();
        assert_eq!(rs.rows.len(), 20_000);
        assert_eq!(pool.used(), 0, "transient state returned to the pool");
        drop(mem);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn small_cap_passes_low_cardinality_group() {
        // The same cap that kills a 50k-group query admits a 100-group one
        // — exactly the contrast the sample-ladder fallback relies on.
        let t = big(50_000);
        let q = parse("select count(*) from t group by v").unwrap();
        let mem = MemBudget::new(64 * 1024, None);
        let opts = ExecOptions {
            mem: Some(&mem),
            ..ExecOptions::default()
        };
        let rs = run_all(&t, &q, opts).unwrap();
        assert_eq!(rs.rows.len(), 100);
    }
}

#[cfg(test)]
mod cmp_tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::value::ColumnType;

    fn t() -> Table {
        let schema = Schema::new([
            ("k", ColumnType::Str),
            ("v", ColumnType::Int),
            ("x", ColumnType::Float),
        ]);
        let mut b = Table::builder("t", schema);
        for i in 0..10i64 {
            b.push_row([
                Value::from(format!("k{}", i % 2)),
                Value::Int(i),
                Value::Float(i as f64 / 2.0),
            ]);
        }
        b.build()
    }

    fn count(sql: &str) -> f64 {
        execute(&t(), &parse(sql).unwrap())
            .unwrap()
            .scalar()
            .unwrap()
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(count("select count(*) from t where v < 5"), 5.0);
        assert_eq!(count("select count(*) from t where v <= 5"), 6.0);
        assert_eq!(count("select count(*) from t where v > 7"), 2.0);
        assert_eq!(count("select count(*) from t where v >= 7"), 3.0);
        assert_eq!(count("select count(*) from t where v <> 3"), 9.0);
        assert_eq!(count("select count(*) from t where v != 3"), 9.0);
    }

    #[test]
    fn float_comparisons_and_negative_bounds() {
        assert_eq!(count("select count(*) from t where x < 2.5"), 5.0);
        assert_eq!(count("select count(*) from t where v > -1"), 10.0);
    }

    #[test]
    fn combined_with_equality() {
        assert_eq!(
            count("select count(*) from t where k = 'k0' and v >= 4"),
            3.0
        );
    }

    #[test]
    fn string_comparison_rejected() {
        let err = execute(
            &t(),
            &parse("select count(*) from t where k > 'a'").unwrap(),
        );
        assert!(matches!(err, Err(ExecError::TypeError(_))));
    }

    #[test]
    fn cmp_roundtrips_through_sql() {
        for op in ["<", "<=", ">", ">=", "<>"] {
            let sql = format!("select count(*) from t where v {op} 5");
            let q = parse(&sql).unwrap();
            assert_eq!(parse(&q.to_sql()).unwrap(), q, "{sql}");
        }
    }
}
