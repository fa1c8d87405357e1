//! **Figure 7**: impact of query merging on execution cost (DOB data).
//!
//! The paper's microbenchmark: 10 random queries, 50 phonetically most
//! similar candidates each, executed once separately and once merged.
//! Expected shape: merged execution is several times cheaper.

use super::common::{dataset_table, fmt, test_cases, ResultTable};
use muve_data::Dataset;
use muve_dbms::{execute, execute_merged_with_opts, plan_merged, ExecOptions, Query};
use muve_sim::{ci95, mean};
use std::time::Instant;

/// Run the merging microbenchmark.
pub fn run(quick: bool) -> Vec<ResultTable> {
    let rows = if quick { 20_000 } else { 200_000 };
    let n_queries = if quick { 3 } else { 10 };
    let k = 50;
    let table = dataset_table(Dataset::Dob, rows, 0xD0B);
    let cases = test_cases(&table, n_queries, 2, k, 7);

    let mut separate_ms = Vec::new();
    let mut merged_ms = Vec::new();
    let mut scans_separate = Vec::new();
    let mut scans_merged = Vec::new();
    for case in &cases {
        let queries: Vec<Query> = case.candidates.iter().map(|c| c.query.clone()).collect();
        // Separate execution: one scan per candidate.
        let start = Instant::now();
        let mut scanned = 0usize;
        for q in &queries {
            if let Ok(r) = execute(&table, q) {
                scanned += r.stats.rows_scanned;
            }
        }
        separate_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        scans_separate.push(scanned as f64);
        // Merged execution.
        let start = Instant::now();
        let mut scanned = 0usize;
        for g in plan_merged(&queries) {
            if let Ok(r) = execute_merged_with_opts(&table, &g, ExecOptions::default()) {
                scanned += r.stats.rows_scanned;
            }
        }
        merged_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        scans_merged.push(scanned as f64);
    }

    let mut out = ResultTable::new(
        "fig7",
        "Separate vs merged execution of 50 phonetic candidates on DOB data \
         (paper Fig. 7; shape: merging reduces execution cost severalfold)",
        &["method", "avg time ms", "ci95 ms", "avg rows scanned"],
    );
    out.push(vec![
        "separate".into(),
        fmt(mean(&separate_ms)),
        fmt(ci95(&separate_ms)),
        fmt(mean(&scans_separate)),
    ]);
    out.push(vec![
        "merged".into(),
        fmt(mean(&merged_ms)),
        fmt(ci95(&merged_ms)),
        fmt(mean(&scans_merged)),
    ]);
    vec![out]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merging_reduces_scans() {
        let tables = run(true);
        let rows = &tables[0].rows;
        let sep_scans: f64 = rows[0][3].parse().unwrap();
        let merged_scans: f64 = rows[1][3].parse().unwrap();
        assert!(
            merged_scans < sep_scans / 2.0,
            "merged {merged_scans} vs separate {sep_scans}"
        );
    }
}
