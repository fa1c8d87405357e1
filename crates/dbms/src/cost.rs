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
//! [`estimate`] prices a query's sequential scan, which `explain` renders
//! and the merge planner compares; [`choose_access_path`] makes the
//! planner's index-vs-scan decision from the exact selectivity of the
//! indexable predicates ([`indexed_selectivity`]) and per-row work alone.

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

/// Exact combined selectivity of the indexable predicates of `query`, or
/// `None` when no predicate can use an inverted index.
///
/// A predicate is *indexable* when it is `Eq` or `IN` over string literals
/// on a dictionary-coded column: the inverted index of [`crate::index`]
/// maps dictionary codes to posting lists, so its selectivity is exact —
/// `resolved_codes / dict_len` — not an estimate. Unlike [`estimate`]'s
/// `1/n_distinct` heuristic, an unmatched literal contributes selectivity
/// 0 — the index path answers it without touching a single row. Projected
/// shard tables share the parent's dictionaries, so parent and shards
/// compute the same value.
pub fn indexed_selectivity(table: &Table, query: &Query) -> Option<f64> {
    let mut sel = None;
    for pred in &query.predicates {
        let Some(dict) = table
            .column_by_name(&pred.column)
            .and_then(|c| c.dictionary())
        else {
            continue;
        };
        let denom = dict.len().max(1) as f64;
        let s = match &pred.op {
            PredOp::Eq(Value::Str(s)) => {
                if dict.code_of(s).is_some() {
                    1.0 / denom
                } else {
                    0.0
                }
            }
            PredOp::In(vs) if vs.iter().all(|v| matches!(v, Value::Str(_))) => {
                let resolved = vs
                    .iter()
                    .filter(|v| matches!(v, Value::Str(s) if dict.code_of(s).is_some()))
                    .count() as f64;
                (resolved / denom).min(1.0)
            }
            _ => continue,
        };
        sel = Some(sel.unwrap_or(1.0) * s);
    }
    sel
}

/// Pick the access path for `query` over `table`.
///
/// The rule compares per-row work only: the index path touches
/// `sel × rows` candidates at `index_tuple_cost + cpu_tuple_cost +
/// P·cpu_operator_cost` each (random gather plus full residual
/// re-evaluation), the scan touches every row at `cpu_tuple_cost +
/// P·cpu_operator_cost`. Row counts cancel, which keeps the decision
/// identical between a parent table and its shard projections (required
/// for bit-identical sharded execution).
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
