//! **BENCH_shard**: a replicated scatter-gather chaos burst.
//!
//! In-process sharding buys survivability, not speed (the ruler's
//! `shard.gather_vs_direct` is ≥ 1.00 on every workload), so this table
//! does not report scaling. It runs the scan workload through a 4×2
//! [`ShardSet`], kills one replica mid-burst and reports what the
//! robustness machinery did about it: the burst must lose zero queries
//! and zero shards (survivor replicas absorb the failed sub-queries via
//! breaker-driven failover), which is the number the row exists to
//! witness.

use super::common::{dataset_table, fmt, ResultTable};
use muve_data::Dataset;
use muve_dbms::{parse, Query};
use muve_shard::{ShardExecOptions, ShardSet, ShardSpec};
use std::sync::Arc;
use std::time::Instant;

/// Scan shapes shared with `BENCH_scan`: a selective filter, a float
/// aggregate, and dictionary-grouped aggregation.
const QUERIES: &[&str] = &[
    "select count(*) from flights where carrier = 'AA'",
    "select avg(dep_delay) from flights where carrier = 'AA'",
    "select sum(arr_delay) from flights group by carrier",
];

/// Run the sharded-execution experiment.
pub fn run(quick: bool) -> Vec<ResultTable> {
    let rows = if quick { 200_000 } else { 2_000_000 };
    let table = Arc::new(dataset_table(Dataset::Flights, rows, 0x5CA9));

    let mut out = ResultTable::new(
        "BENCH_shard",
        "Replicated scatter-gather: a chaos burst that kills a replica \
         mid-flight (shape: zero lost queries, zero missing shards)",
        &["workload", "config", "Mrows/s", "detail"],
    );

    let queries: Vec<Query> = QUERIES
        .iter()
        .map(|sql| parse(sql).expect("bench query parses"))
        .collect();

    // Chaos burst: a fresh 4x2 set, one replica killed halfway through.
    // Count what the gather layer reports; the robustness claim is the
    // zero in the lost-queries and missing-shards columns.
    let chaos = ShardSet::build(Arc::clone(&table), ShardSpec::new(4, 2));
    let burst = if quick { 24 } else { 60 };
    let mut lost = 0usize;
    let start = Instant::now();
    for i in 0..burst {
        if i == burst / 2 {
            chaos.kill_replica(0, 0);
        }
        let q = &queries[i % queries.len()];
        match chaos.execute(q, ShardExecOptions::default()) {
            Ok(r) if !r.report.is_partial() => {}
            _ => lost += 1,
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-12);
    let snap = chaos.stats().snapshot();
    out.push(vec![
        "chaos burst (kill s0r0 mid-burst)".into(),
        "N=4 R=2".into(),
        fmt((rows * burst) as f64 / elapsed / 1e6),
        format!(
            "{lost} lost, {} missing shards, {} failovers, {} trips",
            snap.shards_missing, snap.failovers, snap.replica_trips
        ),
    ]);
    vec![out]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_burst_loses_nothing() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.id, "BENCH_shard");
        assert_eq!(t.rows.len(), 1, "the chaos row only");
        let chaos = &t.rows[0];
        assert!(chaos[0].starts_with("chaos burst"), "{chaos:?}");
        assert!(
            chaos[3].starts_with("0 lost, 0 missing"),
            "chaos burst must lose nothing: {chaos:?}"
        );
    }
}
