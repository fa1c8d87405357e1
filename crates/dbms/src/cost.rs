//! Postgres-flavoured query cost model.
//!
//! MUVE consults the Postgres optimizer's cost estimates (`EXPLAIN`) to
//! decide whether to merge queries and to bias plot selection towards
//! cheap multiplots (paper §8.1). This module reproduces the relevant part
//! of that model for our scan-based executor: a sequential-scan cost with
//! the classical `seq_page_cost` / `cpu_tuple_cost` / `cpu_operator_cost`
//! constants, equality selectivity `1/n_distinct`, and per-group overheads
//! for aggregation.
//!
//! [`estimate`] prices the row-at-a-time reference plan; [`estimate_batch`]
//! prices the same query on the morsel-driven batch engine, dividing CPU
//! work across workers and charging a fixed per-morsel overhead
//! (scheduling, partial-accumulator setup) plus the cost of combining one
//! partial per morsel at the end. [`estimate_index`] prices the inverted
//! -index path of [`crate::index`] — posting-list probe + intersection
//! plus a residual re-evaluation over the candidate rows — and
//! [`choose_access_path`] turns the comparison into the planner's
//! index-vs-scan decision.

use crate::ast::{PredOp, Query};
use crate::table::Table;
use crate::value::Value;

/// Cost model constants (defaults match Postgres).
#[derive(Debug, Clone, Copy)]
pub struct CostParams {
    /// Cost of reading one page sequentially.
    pub seq_page_cost: f64,
    /// CPU cost of processing one tuple.
    pub cpu_tuple_cost: f64,
    /// CPU cost of one operator/predicate evaluation.
    pub cpu_operator_cost: f64,
    /// Bytes per page.
    pub page_bytes: usize,
    /// Rows per morsel assumed by [`estimate_batch`].
    pub morsel_rows: usize,
    /// Worker threads the batch engine may spread morsels over.
    pub workers: usize,
    /// Fixed cost of dispatching one morsel: the shared-cursor claim plus
    /// partial-accumulator setup, in the same units as the other knobs.
    pub morsel_cost: f64,
    /// CPU cost of materializing one candidate row from a posting list:
    /// the gather through `Rows::Ids` is random-access, so this is priced
    /// well above `cpu_tuple_cost` (cf. Postgres' random-vs-seq page
    /// ratio). Deliberately pessimistic so the index path only wins on
    /// genuinely selective predicates.
    pub index_tuple_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            seq_page_cost: 1.0,
            cpu_tuple_cost: 0.01,
            cpu_operator_cost: 0.0025,
            page_bytes: 8192,
            morsel_rows: crate::morsel::MORSEL_ROWS,
            workers: crate::morsel::available_cores(),
            morsel_cost: 0.1,
            index_tuple_cost: 0.5,
        }
    }
}

/// An `EXPLAIN`-style estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated total cost in arbitrary cost units.
    pub total: f64,
    /// Estimated number of rows satisfying the predicates.
    pub est_rows: f64,
    /// Estimated number of output rows (groups).
    pub est_groups: f64,
}

/// Estimate the cost of `query` over `table`.
///
/// Unknown columns contribute the default equality selectivity (0.005,
/// Postgres' `DEFAULT_EQ_SEL`) rather than erroring, mirroring how planning
/// proceeds on estimates even when statistics are missing.
pub fn estimate(table: &Table, query: &Query, params: &CostParams) -> CostEstimate {
    let rows = table.num_rows() as f64;
    let pages = (table.approx_bytes() as f64 / params.page_bytes as f64)
        .ceil()
        .max(1.0);
    // Selectivity of the conjunctive predicates (independence assumption).
    let mut selectivity = 1.0;
    for pred in &query.predicates {
        let distinct = table
            .column_by_name(&pred.column)
            .map(|c| c.distinct_estimate() as f64)
            .unwrap_or(200.0);
        let s = match &pred.op {
            PredOp::Eq(_) => 1.0 / distinct,
            PredOp::In(vs) => (vs.len() as f64 / distinct).min(1.0),
            // Postgres DEFAULT_INEQ_SEL for range predicates without
            // histogram statistics.
            PredOp::Cmp(crate::ast::CmpOp::Ne, _) => 1.0 - 1.0 / distinct,
            PredOp::Cmp(..) => 1.0 / 3.0,
        };
        selectivity *= s.clamp(0.0, 1.0);
    }
    let est_rows = rows * selectivity;
    // Scan cost: pages + per-tuple CPU + per-predicate operator evaluations.
    let scan = pages * params.seq_page_cost
        + rows * params.cpu_tuple_cost
        + rows * (query.predicates.len() as f64) * params.cpu_operator_cost;
    // Aggregation: one operator evaluation per qualifying row per aggregate.
    let agg = est_rows * (query.aggregates.len() as f64) * params.cpu_operator_cost;
    // Grouping: hash maintenance per row plus one output tuple per group.
    let est_groups = if query.group_by.is_empty() {
        1.0
    } else {
        let mut g = 1.0;
        for col in &query.group_by {
            let d = table
                .column_by_name(col)
                .map(|c| c.distinct_estimate() as f64)
                .unwrap_or(200.0);
            g *= d;
        }
        g.min(est_rows.max(1.0))
    };
    let group = if query.group_by.is_empty() {
        0.0
    } else {
        est_rows * params.cpu_operator_cost + est_groups * params.cpu_tuple_cost
    };
    CostEstimate {
        total: scan + agg + group,
        est_rows,
        est_groups,
    }
}

/// Estimate the cost of `query` on the morsel-driven batch engine.
///
/// Starts from the row-at-a-time estimate and reshapes it the way the
/// batch engine reshapes the work: page reads stay serial (the scan is
/// memory-bandwidth-bound), per-tuple CPU divides across the effective
/// worker count (capped by the number of morsels — a one-morsel table
/// cannot parallelize), and two batch-only terms are added: a fixed
/// [`CostParams::morsel_cost`] per morsel dispatched, and the combine pass
/// that folds one per-morsel partial accumulator per group into the final
/// state.
pub fn estimate_batch(table: &Table, query: &Query, params: &CostParams) -> CostEstimate {
    let base = estimate(table, query, params);
    let rows = table.num_rows() as f64;
    let pages = (table.approx_bytes() as f64 / params.page_bytes as f64)
        .ceil()
        .max(1.0);
    let n_morsels = (rows / params.morsel_rows.max(1) as f64).ceil().max(1.0);
    let workers = (params.workers.max(1) as f64).min(n_morsels);
    let io = pages * params.seq_page_cost;
    let cpu = (base.total - io).max(0.0);
    let dispatch = n_morsels * params.morsel_cost;
    // Combining per-morsel partials only costs something when there is
    // accumulator state to merge: grouped queries fold one partial hash
    // table per morsel. An ungrouped query's partial is a handful of
    // scalars merged inside the dispatch overhead already charged above —
    // charging `est_groups` (=1) per morsel again double-counted it.
    let combine = if query.group_by.is_empty() {
        0.0
    } else {
        (n_morsels - 1.0) * base.est_groups * params.cpu_operator_cost
    };
    CostEstimate {
        total: io + cpu / workers + dispatch + combine,
        est_rows: base.est_rows,
        est_groups: base.est_groups,
    }
}

/// The planner's access-path decision for one query (or one merge-group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPath {
    /// Full-table morsel-driven scan through the batch engine.
    BatchScan,
    /// Inverted-index probe producing candidate row-ids that feed the
    /// batch engine as a `Rows::Ids` selection.
    IndexScan {
        /// Estimated fraction of rows surviving the indexable predicates.
        selectivity: f64,
    },
}

/// Per-predicate classification shared by the planner and the cost model.
///
/// A predicate is *indexable* when it is `Eq` or `IN` over string literals
/// on a dictionary-coded column: the inverted index of [`crate::index`]
/// maps dictionary codes to posting lists, so its selectivity is exact —
/// `resolved_codes / dict_len` — not an estimate. Returns the combined
/// selectivity, the number of indexable predicates, and the number of
/// literal→code lookups the probe will perform; `None` when no predicate
/// is indexable.
fn classify_indexable(table: &Table, query: &Query) -> Option<(f64, usize, usize)> {
    let mut sel = 1.0f64;
    let mut n_indexable = 0usize;
    let mut n_lookups = 0usize;
    for pred in &query.predicates {
        let Some(dict) = table
            .column_by_name(&pred.column)
            .and_then(|c| c.dictionary())
        else {
            continue;
        };
        let denom = dict.len().max(1) as f64;
        match &pred.op {
            PredOp::Eq(Value::Str(s)) => {
                let resolved = if dict.code_of(s).is_some() { 1.0 } else { 0.0 };
                sel *= resolved / denom;
                n_indexable += 1;
                n_lookups += 1;
            }
            PredOp::In(vs) if vs.iter().all(|v| matches!(v, Value::Str(_))) => {
                let resolved = vs
                    .iter()
                    .filter(|v| matches!(v, Value::Str(s) if dict.code_of(s).is_some()))
                    .count() as f64;
                sel *= (resolved / denom).min(1.0);
                n_indexable += 1;
                n_lookups += vs.len();
            }
            _ => {}
        }
    }
    if n_indexable == 0 {
        None
    } else {
        Some((sel, n_indexable, n_lookups))
    }
}

/// Exact combined selectivity of the indexable predicates of `query`, or
/// `None` when no predicate can use an inverted index.
///
/// Unlike [`estimate`]'s `1/n_distinct` heuristic this resolves each
/// string literal against the column dictionary, so an unmatched literal
/// contributes selectivity 0 — the index path answers it without touching
/// a single row. Projected shard tables share the parent's dictionaries,
/// so parent and shards compute the same value.
pub fn indexed_selectivity(table: &Table, query: &Query) -> Option<f64> {
    classify_indexable(table, query).map(|(sel, _, _)| sel)
}

/// Pick the access path for `query` over `table`.
///
/// The rule compares per-row work only: the index path touches
/// `sel × rows` candidates at `index_tuple_cost + cpu_tuple_cost +
/// P·cpu_operator_cost` each (random gather plus full residual
/// re-evaluation), the scan touches every row at `cpu_tuple_cost +
/// P·cpu_operator_cost`. Worker count is deliberately excluded — both
/// paths parallelize through the same morsel engine, so parallelism
/// cancels — which keeps the decision identical across machines and
/// between a parent table and its shard projections (required for
/// bit-identical sharded execution).
pub fn choose_access_path(table: &Table, query: &Query, params: &CostParams) -> AccessPath {
    let Some(sel) = indexed_selectivity(table, query) else {
        return AccessPath::BatchScan;
    };
    let p = query.predicates.len() as f64;
    let per_row_scan = params.cpu_tuple_cost + p * params.cpu_operator_cost;
    let per_row_index = params.index_tuple_cost + per_row_scan;
    if sel * per_row_index < per_row_scan {
        AccessPath::IndexScan { selectivity: sel }
    } else {
        AccessPath::BatchScan
    }
}

/// Estimate the cost of answering `query` through the inverted-index path:
/// literal→code probes, posting-list intersection, a random gather of the
/// candidate rows with full residual predicate re-evaluation, then the
/// same aggregation/grouping terms as [`estimate`] and the batch engine's
/// dispatch/combine overheads over the (much smaller) candidate set.
///
/// Returns `None` when no predicate is indexable ([`indexed_selectivity`]
/// is `None`): the query has no index path to price.
pub fn estimate_index(table: &Table, query: &Query, params: &CostParams) -> Option<CostEstimate> {
    let (sel, n_indexable, n_lookups) = classify_indexable(table, query)?;
    let base = estimate(table, query, params);
    let rows = table.num_rows() as f64;
    let pages = (table.approx_bytes() as f64 / params.page_bytes as f64)
        .ceil()
        .max(1.0);
    let p = query.predicates.len() as f64;
    let candidates = rows * sel;
    // Probe: one dictionary lookup per literal plus posting-list merges;
    // intersecting k lists costs one comparison per surviving candidate
    // per extra list (the galloping intersection is bounded by the
    // smaller list).
    let probe = n_lookups as f64 * params.cpu_operator_cost;
    let intersect = (n_indexable.saturating_sub(1)) as f64 * candidates * params.cpu_operator_cost;
    // Candidate fetch + residual: every candidate row is gathered at
    // random (index_tuple_cost) and re-checked against the *full*
    // predicate set, which is what the Selection execution actually does.
    let fetch = candidates * (params.index_tuple_cost + params.cpu_tuple_cost)
        + candidates * p * params.cpu_operator_cost;
    // Aggregation and grouping are downstream of the filter and identical
    // to the sequential plan: recover them from `base` by subtracting its
    // scan term.
    let scan = pages * params.seq_page_cost
        + rows * params.cpu_tuple_cost
        + rows * p * params.cpu_operator_cost;
    let downstream = (base.total - scan).max(0.0);
    // The candidate set still flows through the morsel engine.
    let n_morsels = (candidates / params.morsel_rows.max(1) as f64)
        .ceil()
        .max(1.0);
    let dispatch = n_morsels * params.morsel_cost;
    let combine = if query.group_by.is_empty() {
        0.0
    } else {
        (n_morsels - 1.0) * base.est_groups * params.cpu_operator_cost
    };
    Some(CostEstimate {
        total: probe + intersect + fetch + downstream + dispatch + combine,
        est_rows: base.est_rows,
        est_groups: base.est_groups,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::{ColumnType, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..n {
            b.push_row([Value::from(format!("k{}", i % 20)), Value::from(i as i64)]);
        }
        b.build()
    }

    #[test]
    fn cost_grows_with_table_size() {
        let p = CostParams::default();
        let q = parse("select count(*) from t").unwrap();
        let small = estimate(&table(100), &q, &p);
        let large = estimate(&table(10_000), &q, &p);
        assert!(large.total > small.total);
    }

    #[test]
    fn predicates_reduce_estimated_rows() {
        let p = CostParams::default();
        let t = table(1000);
        let all = estimate(&t, &parse("select count(*) from t").unwrap(), &p);
        let filtered = estimate(
            &t,
            &parse("select count(*) from t where k = 'k3'").unwrap(),
            &p,
        );
        assert!(filtered.est_rows < all.est_rows);
        assert!((filtered.est_rows - 50.0).abs() < 1.0); // 1000 / 20 distinct
    }

    #[test]
    fn in_list_selectivity_scales() {
        let p = CostParams::default();
        let t = table(1000);
        let one = estimate(
            &t,
            &parse("select count(*) from t where k = 'k3'").unwrap(),
            &p,
        );
        let three = estimate(
            &t,
            &parse("select count(*) from t where k in ('k1','k2','k3')").unwrap(),
            &p,
        );
        assert!((three.est_rows / one.est_rows - 3.0).abs() < 0.01);
    }

    #[test]
    fn merged_cheaper_than_separate() {
        // One grouped scan must be estimated cheaper than many single scans.
        let p = CostParams::default();
        let t = table(10_000);
        let single = estimate(
            &t,
            &parse("select sum(v) from t where k = 'k1'").unwrap(),
            &p,
        );
        let merged = estimate(
            &t,
            &parse("select sum(v) from t where k in ('k1','k2','k3','k4') group by k").unwrap(),
            &p,
        );
        assert!(merged.total < 4.0 * single.total);
    }

    #[test]
    fn group_count_bounded_by_rows() {
        let p = CostParams::default();
        let t = table(10);
        let e = estimate(&t, &parse("select count(*) from t group by v").unwrap(), &p);
        assert!(e.est_groups <= 10.0);
    }

    #[test]
    fn batch_estimate_never_beats_serial_io_but_beats_serial_cpu() {
        // With several workers and plenty of morsels, the batch plan must
        // be cheaper than the row-at-a-time plan (CPU parallelizes), yet
        // never cheaper than the serial page reads it still has to do.
        let p = CostParams {
            morsel_rows: 1024,
            workers: 8,
            ..CostParams::default()
        };
        let t = table(100_000);
        let q = parse("select sum(v) from t where k = 'k3' group by k").unwrap();
        let row = estimate(&t, &q, &p);
        let batch = estimate_batch(&t, &q, &p);
        assert!(batch.total < row.total, "{} vs {}", batch.total, row.total);
        let pages = (t.approx_bytes() as f64 / p.page_bytes as f64).ceil();
        assert!(batch.total >= pages * p.seq_page_cost);
        // Cardinalities are engine-independent.
        assert_eq!(batch.est_rows, row.est_rows);
        assert_eq!(batch.est_groups, row.est_groups);
    }

    #[test]
    fn one_worker_batch_costs_serial_cpu_plus_morsel_overhead() {
        let p = CostParams {
            morsel_rows: 1024,
            workers: 1,
            ..CostParams::default()
        };
        let t = table(50_000);
        let q = parse("select count(*) from t").unwrap();
        let row = estimate(&t, &q, &p);
        let batch = estimate_batch(&t, &q, &p);
        let n_morsels = (50_000f64 / 1024.0).ceil();
        assert!(batch.total > row.total, "single worker gains nothing");
        assert!(batch.total <= row.total + n_morsels * (p.morsel_cost + p.cpu_operator_cost));
    }

    #[test]
    fn smaller_morsels_cost_more_dispatch() {
        // Same worker count so the comparison isolates per-morsel
        // overhead (with more workers, finer morsels can win by engaging
        // the whole pool — that trade-off is exactly what the model is
        // for).
        let t = table(100_000);
        let q = parse("select count(*) from t").unwrap();
        let coarse = estimate_batch(
            &t,
            &q,
            &CostParams {
                morsel_rows: 65_536,
                workers: 1,
                ..CostParams::default()
            },
        );
        let fine = estimate_batch(
            &t,
            &q,
            &CostParams {
                morsel_rows: 256,
                workers: 1,
                ..CostParams::default()
            },
        );
        assert!(fine.total > coarse.total);
    }

    #[test]
    fn ungrouped_batch_pays_no_combine_term() {
        // Satellite bugfix pin: a query with no GROUP BY has no per-morsel
        // accumulator state to merge, so with one worker the batch plan
        // must cost exactly the serial plan plus dispatch overhead — no
        // `(n_morsels - 1) * est_groups * cpu_operator_cost` combine term.
        let p = CostParams {
            morsel_rows: 1024,
            workers: 1,
            ..CostParams::default()
        };
        let t = table(50_000);
        let q = parse("select count(*) from t").unwrap();
        let row = estimate(&t, &q, &p);
        let batch = estimate_batch(&t, &q, &p);
        let n_morsels = (50_000f64 / 1024.0).ceil();
        let expect = row.total + n_morsels * p.morsel_cost;
        assert!(
            (batch.total - expect).abs() < 1e-9,
            "{} vs {expect}",
            batch.total
        );
        // A grouped query over the same table still pays the combine term.
        let qg = parse("select count(*) from t group by k").unwrap();
        let rowg = estimate(&t, &qg, &p);
        let batchg = estimate_batch(&t, &qg, &p);
        assert!(batchg.total > rowg.total + n_morsels * p.morsel_cost);
    }

    /// Table whose string column has `distinct` dictionary entries.
    fn wide_table(n: usize, distinct: usize) -> Table {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..n {
            b.push_row([
                Value::from(format!("k{}", i % distinct)),
                Value::from(i as i64),
            ]);
        }
        b.build()
    }

    #[test]
    fn planner_prefers_index_only_when_selective() {
        let p = CostParams::default();
        let selective = wide_table(10_000, 200);
        let q = parse("select count(*) from t where k = 'k3'").unwrap();
        // 1/200 = 0.005 is far below the ~0.024 break-even.
        match choose_access_path(&selective, &q, &p) {
            AccessPath::IndexScan { selectivity } => {
                assert!((selectivity - 1.0 / 200.0).abs() < 1e-12)
            }
            other => panic!("expected index path, got {other:?}"),
        }
        // 1/20 = 0.05 is above it: the random gather would cost more than
        // the scan saves.
        let coarse = wide_table(10_000, 20);
        assert_eq!(choose_access_path(&coarse, &q, &p), AccessPath::BatchScan);
    }

    #[test]
    fn unresolved_literal_is_exactly_free() {
        // A literal absent from the dictionary matches nothing; the index
        // knows that without touching a row, so selectivity is exactly 0.
        let p = CostParams::default();
        let t = wide_table(1000, 20);
        let q = parse("select count(*) from t where k = 'nope'").unwrap();
        assert_eq!(indexed_selectivity(&t, &q), Some(0.0));
        assert_eq!(
            choose_access_path(&t, &q, &p),
            AccessPath::IndexScan { selectivity: 0.0 }
        );
    }

    #[test]
    fn non_string_predicates_have_no_index_path() {
        let p = CostParams::default();
        let t = wide_table(1000, 20);
        let q = parse("select count(*) from t where v > 10").unwrap();
        assert_eq!(indexed_selectivity(&t, &q), None);
        assert_eq!(choose_access_path(&t, &q, &p), AccessPath::BatchScan);
        assert!(estimate_index(&t, &q, &p).is_none());
    }

    #[test]
    fn shard_projection_plans_like_parent() {
        // The access-path decision must be identical for a parent table
        // and any projection of it (shards keep the parent dictionary),
        // regardless of row count — otherwise sharded execution could mix
        // paths and lose bit-identity of ExecStats.
        let p = CostParams::default();
        let parent = wide_table(8_000, 200);
        let rows: Vec<u32> = (0..8_000u32).filter(|r| r % 3 == 0).collect();
        let shard = parent.project_rows(&rows);
        for sql in [
            "select count(*) from t where k = 'k7'",
            "select sum(v) from t where k in ('k1','k2') group by k",
            "select count(*) from t where v > 3",
        ] {
            let q = parse(sql).unwrap();
            assert_eq!(
                choose_access_path(&parent, &q, &p),
                choose_access_path(&shard, &q, &p),
                "{sql}"
            );
        }
    }

    #[test]
    fn index_estimate_beats_batch_only_when_selective() {
        // Pin the worker count: estimate_batch divides CPU across cores,
        // so the comparison must not float with the build machine.
        let p = CostParams {
            workers: 4,
            ..CostParams::default()
        };
        let t = wide_table(200_000, 200);
        let selective = parse("select sum(v) from t where k = 'k3'").unwrap();
        let idx = estimate_index(&t, &selective, &p).unwrap();
        let scan = estimate_batch(&t, &selective, &p);
        assert!(idx.total < scan.total, "{} vs {}", idx.total, scan.total);
        assert_eq!(idx.est_rows, scan.est_rows);
        // A near-full-table IN list should price the other way.
        let members: Vec<String> = (0..150).map(|i| format!("'k{i}'")).collect();
        let broad = parse(&format!(
            "select sum(v) from t where k in ({})",
            members.join(",")
        ))
        .unwrap();
        let idx = estimate_index(&t, &broad, &p).unwrap();
        let scan = estimate_batch(&t, &broad, &p);
        assert!(idx.total > scan.total, "{} vs {}", idx.total, scan.total);
    }

    #[test]
    fn unknown_column_uses_default_selectivity() {
        let p = CostParams::default();
        let t = table(100);
        let e = estimate(
            &t,
            &parse("select count(*) from t where zz = 1").unwrap(),
            &p,
        );
        assert!(e.est_rows > 0.0 && e.est_rows < 100.0);
    }
}

/// Render an `EXPLAIN`-style plan description for `query`, mirroring the
/// Postgres output MUVE consults when gating query merging (paper §8.1).
///
/// # Examples
/// ```
/// use muve_dbms::{explain, parse, CostParams, Schema, Table, ColumnType, Value};
/// let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
/// let mut b = Table::builder("t", schema);
/// b.push_row([Value::from("a"), Value::from(1i64)]);
/// let t = b.build();
/// let q = parse("select sum(v) from t where k = 'a'").unwrap();
/// let plan = explain(&t, &q, &CostParams::default());
/// assert!(plan.contains("Seq Scan on t"));
/// assert!(plan.contains("Filter: k = 'a'"));
/// ```
pub fn explain(table: &Table, query: &Query, params: &CostParams) -> String {
    let e = estimate(table, query, params);
    let mut out = String::new();
    let agg_label = if query.group_by.is_empty() {
        "Aggregate"
    } else {
        "HashAggregate"
    };
    out.push_str(&format!(
        "{agg_label}  (cost=0.00..{:.2} rows={} width=8)\n",
        e.total,
        e.est_groups.round() as u64
    ));
    if !query.group_by.is_empty() {
        out.push_str(&format!("  Group Key: {}\n", query.group_by.join(", ")));
    }
    out.push_str(&format!(
        "  ->  Seq Scan on {}  (cost=0.00..{:.2} rows={} width=8)\n",
        table.name(),
        e.total,
        e.est_rows.round() as u64
    ));
    if !query.predicates.is_empty() {
        let filters: Vec<String> = query.predicates.iter().map(|p| p.to_string()).collect();
        out.push_str(&format!("        Filter: {}\n", filters.join(" AND ")));
    }
    out
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::{ColumnType, Value};

    fn t() -> Table {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..100i64 {
            b.push_row([Value::from(format!("k{}", i % 5)), Value::Int(i)]);
        }
        b.build()
    }

    #[test]
    fn scalar_plan_shape() {
        let plan = explain(
            &t(),
            &parse("select count(*) from t where k = 'k1'").unwrap(),
            &CostParams::default(),
        );
        assert!(plan.starts_with("Aggregate"));
        assert!(plan.contains("Seq Scan on t"));
        assert!(plan.contains("Filter: k = 'k1'"));
        assert!(!plan.contains("Group Key"));
    }

    #[test]
    fn grouped_plan_shape() {
        let plan = explain(
            &t(),
            &parse("select sum(v) from t where v > 10 group by k").unwrap(),
            &CostParams::default(),
        );
        assert!(plan.starts_with("HashAggregate"));
        assert!(plan.contains("Group Key: k"));
        assert!(plan.contains("Filter: v > 10"));
    }

    #[test]
    fn estimated_rows_in_plan() {
        let plan = explain(
            &t(),
            &parse("select count(*) from t where k = 'k1'").unwrap(),
            &CostParams::default(),
        );
        // 100 rows / 5 distinct keys = 20 estimated.
        assert!(plan.contains("rows=20"), "{plan}");
    }
}
