//! # muve-dbms
//!
//! The in-memory columnar SQL engine under MUVE, standing in for the
//! Postgres instance used in the paper (Wei, Trummer, Anderson, PVLDB
//! 2021). It supports exactly the query class MUVE targets — single-table
//! aggregation queries with conjunctive equality / `IN` predicates plus the
//! `GROUP BY` form that query merging rewrites into — and the two
//! facilities the paper's processing optimizations rely on:
//!
//! - a Postgres-flavoured [`cost`] model (the `EXPLAIN` substitute that
//!   gates query merging and feeds processing-cost-aware planning, §8.1),
//! - seeded Bernoulli [`sample`]-based approximate execution (§8.2).
//!
//! ```
//! use muve_dbms::{execute, parse, Schema, Table, ColumnType, Value};
//!
//! let schema = Schema::new([("borough", ColumnType::Str), ("count", ColumnType::Int)]);
//! let mut b = Table::builder("complaints", schema);
//! b.push_row([Value::from("Brooklyn"), Value::from(12i64)]);
//! b.push_row([Value::from("Queens"), Value::from(7i64)]);
//! let table = b.build();
//! let q = parse("select sum(count) from complaints where borough = 'Brooklyn'").unwrap();
//! assert_eq!(execute(&table, &q).unwrap().scalar(), Some(12.0));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod column;
pub mod cost;
pub mod csv;
pub mod exec;
pub mod fingerprint;
pub mod index;
pub mod merge;
pub mod morsel;
pub mod parser;
pub mod result_cache;
pub mod sample;
pub mod schema;
pub mod table;
pub mod value;

pub use ast::{AggFunc, Aggregate, CmpOp, PredOp, Predicate, Query};
pub use batch::{
    combine_partials, execute_batch, validate_query, BatchConfig, QueryPartials, CHUNK_ROWS,
};
pub use column::{Column, ColumnData, Dictionary};
pub use cost::{
    choose_access_path, estimate, estimate_batch, estimate_index, explain, indexed_selectivity,
    AccessPath, CostEstimate, CostParams,
};
pub use csv::{
    table_from_csv_path, table_from_csv_path_with_limits, table_from_csv_str,
    table_from_csv_str_with_limits, CsvError, CsvLimits,
};
pub use exec::{
    execute, execute_reference, ExecError, ExecOptions, ExecStats, ResultSet, ScanProgress,
    ScanRequest, ScanRows, CANCEL_STRIDE,
};
pub use fingerprint::{canon_ident, predicate_order_fingerprint, query_fingerprint};
pub use index::{
    build_indexes, index_registry, probe_candidates, ColumnIndex, IndexRegistry, IndexStatus,
    Postings,
};
pub use merge::{
    execute_merged_with_opts, extract_merged, merge_is_beneficial, plan_group_paths, plan_merged,
    MergeGroup, MergeMember, MergedResults,
};
pub use morsel::{morsels, Morsel, MORSEL_ROWS};
pub use parser::{parse, ParseError};
pub use result_cache::{fidelity_key, ResultCache, ResultKey, FIDELITY_EXACT};
pub use sample::{bernoulli_rows, execute_approximate, scale_result, systematic_rows};
pub use schema::{ColumnDef, Schema};
pub use table::{Database, Table, TableBuilder};
pub use value::{ColumnType, Value};
