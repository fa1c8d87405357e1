//! Row sampling and result scaling for approximate processing.
//!
//! MUVE's approximate presentation strategy (paper §8.2) first answers
//! queries on a data sample and later replaces the visualization with exact
//! results. This module provides seeded Bernoulli row sampling and the
//! estimator that scales sample aggregates back to the full data set
//! (`count` and `sum` scale by `1/fraction`; `avg`, `min`, `max` are used
//! as-is).

use crate::ast::{AggFunc, Query};
use crate::exec::{ExecError, ExecOptions, ResultSet, ScanRequest, ScanRows};
use crate::table::Table;
use crate::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw a systematic (Postgres `TABLESAMPLE SYSTEM`-style) sample of row
/// ids: `k = n * fraction` strata of equal width, one uniformly placed row
/// per stratum. Costs `O(k)` — independent of the table size — which is
/// what makes approximate processing meet interactivity thresholds on
/// large data (paper §8.2/Fig. 9).
///
/// Deterministic for a given `(n_rows, fraction, seed)`.
pub fn systematic_rows(n_rows: usize, fraction: f64, seed: u64) -> Vec<u32> {
    let fraction = fraction.clamp(0.0, 1.0);
    let k = ((n_rows as f64) * fraction).round() as usize;
    if k == 0 {
        return Vec::new();
    }
    if k >= n_rows {
        return (0..n_rows as u32).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let stride = n_rows as f64 / k as f64;
    let mut out: Vec<u32> = Vec::with_capacity(k);
    for i in 0..k {
        let lo = (i as f64) * stride;
        let hi = ((i + 1) as f64) * stride;
        let mut pick = (lo + rng.gen::<f64>() * (hi - lo)) as usize;
        // Float rounding can push a pick onto its neighbour stratum's row.
        // Clamping (the old behaviour) emitted *duplicate* ids there, which
        // the sample executor double-counted, biasing scaled COUNT/SUM
        // estimates upward. Keep ids strictly increasing instead; a pick
        // past the last row means the tail strata were exhausted.
        if let Some(&prev) = out.last() {
            pick = pick.max(prev as usize + 1);
        }
        if pick >= n_rows {
            break;
        }
        out.push(pick as u32);
    }
    out
}

/// Draw a Bernoulli sample of row ids with inclusion probability `fraction`.
///
/// Unlike [`systematic_rows`] this is `O(n_rows)`; use it when exact
/// Bernoulli semantics matter more than sampling latency.
///
/// Deterministic for a given `(n_rows, fraction, seed)`.
pub fn bernoulli_rows(n_rows: usize, fraction: f64, seed: u64) -> Vec<u32> {
    let fraction = fraction.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((n_rows as f64 * fraction) as usize + 16);
    for i in 0..n_rows {
        if rng.gen::<f64>() < fraction {
            out.push(i as u32);
        }
    }
    out
}

/// Execute `query` over a systematic sample ([`systematic_rows`]) of
/// `table` and scale the result to estimate the full answer: a
/// [`ScanRows::Sample`] request that also returns the realized sample
/// fraction.
pub fn execute_approximate(
    table: &Table,
    query: &Query,
    fraction: f64,
    seed: u64,
) -> Result<(ResultSet, f64), ExecError> {
    let rows = ScanRows::Sample { fraction, seed };
    let rs = ScanRequest::new(rows, ExecOptions::default()).run(table, query)?;
    let realized = realized_fraction(rs.stats.rows_scanned, table.num_rows());
    Ok((rs, realized))
}

/// The fraction of `n_rows` a sample of `sampled` rows realized — what
/// its COUNT and SUM scale by. 1 for an empty table, and never 0 (it
/// divides).
pub(crate) fn realized_fraction(sampled: usize, n_rows: usize) -> f64 {
    if n_rows == 0 {
        1.0
    } else {
        (sampled as f64 / n_rows as f64).max(f64::MIN_POSITIVE)
    }
}

/// Scale a sample result up to full-data estimates.
pub fn scale_result(mut rs: ResultSet, query: &Query, fraction: f64) -> ResultSet {
    if fraction >= 1.0 || fraction <= 0.0 {
        return rs;
    }
    let n_group = query.group_by.len();
    let inv = 1.0 / fraction;
    for row in &mut rs.rows {
        for (agg, v) in query.aggregates.iter().zip(row[n_group..].iter_mut()) {
            match (agg.func, &v) {
                (AggFunc::Count, Value::Int(c)) => {
                    *v = Value::Float(*c as f64 * inv);
                }
                (AggFunc::Sum, Value::Float(s)) => {
                    *v = Value::Float(s * inv);
                }
                _ => {}
            }
        }
    }
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::ColumnType;

    fn table(n: usize) -> Table {
        let schema = Schema::new([("g", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..n {
            b.push_row([
                Value::from(if i % 2 == 0 { "a" } else { "b" }),
                Value::from(1i64),
            ]);
        }
        b.build()
    }

    #[test]
    fn sampling_deterministic() {
        let a = bernoulli_rows(1000, 0.1, 7);
        let b = bernoulli_rows(1000, 0.1, 7);
        assert_eq!(a, b);
        let c = bernoulli_rows(1000, 0.1, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn sample_size_near_expectation() {
        let rows = bernoulli_rows(100_000, 0.05, 42);
        let n = rows.len() as f64;
        assert!((n - 5000.0).abs() < 300.0, "{n}");
    }

    #[test]
    fn fraction_bounds() {
        assert!(bernoulli_rows(100, 0.0, 1).is_empty());
        assert_eq!(bernoulli_rows(100, 1.0, 1).len(), 100);
        assert_eq!(bernoulli_rows(100, 2.0, 1).len(), 100);
        assert!(bernoulli_rows(0, 0.5, 1).is_empty());
    }

    #[test]
    fn count_scales_back() {
        let t = table(10_000);
        let q = parse("select count(*) from t").unwrap();
        let (rs, f) = execute_approximate(&t, &q, 0.1, 3).unwrap();
        assert!(f > 0.05 && f < 0.2);
        let est = rs.scalar().unwrap();
        assert!((est - 10_000.0).abs() < 1.0, "{est}");
    }

    #[test]
    fn sum_scales_avg_does_not() {
        let t = table(10_000);
        let q = parse("select sum(v), avg(v) from t").unwrap();
        let (rs, _) = execute_approximate(&t, &q, 0.2, 5).unwrap();
        let sum = rs.rows[0][0].as_f64().unwrap();
        let avg = rs.rows[0][1].as_f64().unwrap();
        assert!((sum - 10_000.0).abs() < 1.0);
        assert!((avg - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grouped_scaling() {
        let t = table(10_000);
        let q = parse("select count(*) from t group by g").unwrap();
        let (rs, _) = execute_approximate(&t, &q, 0.1, 11).unwrap();
        assert_eq!(rs.rows.len(), 2);
        for row in &rs.rows {
            let est = row[1].as_f64().unwrap();
            assert!((est - 5000.0).abs() < 500.0, "{est}");
        }
    }

    #[test]
    fn systematic_is_sample_sized_and_sorted() {
        let rows = systematic_rows(1_000_000, 0.01, 5);
        assert!(
            (rows.len() as f64 - 10_000.0).abs() < 10.0,
            "{}",
            rows.len()
        );
        for w in rows.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(systematic_rows(100, 0.0, 1).is_empty());
        assert_eq!(systematic_rows(100, 1.0, 1).len(), 100);
        // Deterministic.
        assert_eq!(
            systematic_rows(5_000, 0.1, 9),
            systematic_rows(5_000, 0.1, 9)
        );
    }

    #[test]
    fn systematic_unbiased_for_counts() {
        // Stratified sampling over an alternating table estimates group
        // counts accurately.
        let t = table(100_000);
        let q = parse("select count(*) from t group by g").unwrap();
        let rows = systematic_rows(t.num_rows(), 0.02, 3);
        let rs = muve_dbms_exec_helper(&t, &q, &rows);
        for row in &rs.rows {
            let est = row[1].as_f64().unwrap() / 0.02;
            assert!((est - 50_000.0).abs() < 5_000.0, "{est}");
        }
    }

    fn muve_dbms_exec_helper(t: &Table, q: &Query, rows: &[u32]) -> crate::exec::ResultSet {
        ScanRequest::new(ScanRows::Ids(rows), ExecOptions::default())
            .run(t, q)
            .unwrap()
    }

    #[test]
    fn full_fraction_unscaled() {
        let t = table(100);
        let q = parse("select count(*) from t").unwrap();
        let (rs, f) = execute_approximate(&t, &q, 1.0, 1).unwrap();
        assert_eq!(f, 1.0);
        assert_eq!(rs.rows[0][0], Value::Int(100));
    }
}
