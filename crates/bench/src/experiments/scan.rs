//! **BENCH_scan**: row-at-a-time reference executor vs the morsel-driven
//! batch engine on single-table aggregation scans.
//!
//! Two variants run the same queries over an enlarged Flights table, both
//! on one thread: `row` is [`muve_dbms::execute_reference`] (per-row
//! closure dispatch) and `batch` is the batch engine (dictionary-coded
//! predicate compares into selection bitmaps, chunked accumulation).
//! Expected shape: `batch` at least 10× the `row` throughput on the
//! filtered scans, from kernel vectorization alone.

use super::common::{dataset_table, fmt, ResultTable};
use muve_data::Dataset;
use muve_dbms::{execute_batch, execute_reference, parse, BatchConfig, ExecOptions, Query, Table};
use std::time::Instant;

/// The benchmarked scan shapes, covering the batch engine's kernels:
/// dictionary-coded equality into a flat accumulator, a float aggregate
/// under the same filter, an IN-list, dense-array grouping over a small
/// dictionary, and hash grouping over a wider key.
const QUERIES: &[(&str, &str)] = &[
    (
        "filtered count",
        "select count(*) from flights where carrier = 'AA'",
    ),
    (
        "filtered avg",
        "select avg(dep_delay) from flights where carrier = 'AA'",
    ),
    (
        "in-list sum",
        "select sum(arr_delay) from flights where carrier in ('AA', 'UA', 'DL')",
    ),
    (
        "grouped by carrier",
        "select sum(arr_delay) from flights group by carrier",
    ),
    (
        "grouped by dest",
        "select avg(dep_delay) from flights group by dest",
    ),
];

/// Best-of-`reps` throughput in rows per second (best-of suppresses
/// scheduler noise; the engines are deterministic so the minimum time is
/// the honest kernel speed).
fn throughput(reps: usize, rows: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    rows as f64 / best.max(1e-12)
}

/// Run the scan-throughput experiment.
pub fn run(quick: bool) -> Vec<ResultTable> {
    let rows = if quick { 200_000 } else { 2_000_000 };
    let reps = if quick { 2 } else { 5 };
    let table = dataset_table(Dataset::Flights, rows, 0x5CA9);

    let mut out = ResultTable::new(
        "BENCH_scan",
        "Single-table scan throughput on one thread: row-at-a-time \
         reference vs the morsel-driven batch engine (Flights data; \
         shape: batch at least 10x row throughput)",
        &["query", "variant", "Mrows/s", "speedup vs row"],
    );

    let run_row = |t: &Table, q: &Query| {
        execute_reference(t, q, None, ExecOptions::default()).expect("bench query failed");
    };
    let run_batch = |t: &Table, q: &Query| {
        execute_batch(t, q, None, ExecOptions::default(), &BatchConfig::default())
            .expect("bench query failed");
    };

    let mut speedups: Vec<f64> = Vec::new();
    for (label, sql) in QUERIES {
        let q = parse(sql).expect("bench query parses");
        // Warm-up outside the timed region (faults in the first touch of
        // freshly generated columns would penalize whichever runs first).
        run_row(&table, &q);

        let row = throughput(reps, rows, || run_row(&table, &q));
        let batch = throughput(reps, rows, || run_batch(&table, &q));
        let speedup = batch / row;
        speedups.push(speedup);
        for (variant, tput, rel) in [("row", row, 1.0), ("batch", batch, speedup)] {
            out.push(vec![
                (*label).into(),
                variant.into(),
                fmt(tput / 1e6),
                fmt(rel),
            ]);
        }
    }

    let geomean = speedups
        .iter()
        .fold(1.0f64, |acc, s| acc * s)
        .powf(1.0 / speedups.len() as f64);
    // The filtered count is the pure scan-throughput measure (the other
    // queries are increasingly accumulator-bound at 30-60% selectivity),
    // so the max speedup is the scan-kernel headline number.
    let max = speedups.iter().fold(0.0f64, |a, s| a.max(*s));
    out.push(vec![
        "all queries".into(),
        "speedup (geomean)".into(),
        "-".into(),
        fmt(geomean),
    ]);
    out.push(vec![
        "all queries".into(),
        "speedup (max)".into(),
        "-".into(),
        fmt(max),
    ]);
    vec![out]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_at_least_matches_row_throughput() {
        let tables = run(true);
        let rows = &tables[0].rows;
        // Last two rows are the geomean and max summaries.
        let geomean: f64 = rows[rows.len() - 2][3].parse().unwrap();
        assert!(
            geomean >= 1.0,
            "batch engine slower than the reference path: geomean {geomean}"
        );
        // Every query contributes its two variants plus the summaries.
        assert_eq!(rows.len(), QUERIES.len() * 2 + 2);
    }
}
