//! **BENCH_heal**: self-healing shard recovery under live traffic.
//!
//! Three numbers the robustness layer is judged by:
//!
//! - **time-to-heal** (p50/p95): from killing a replica to the healer
//!   having re-replicated, warmed, probed and re-admitted it — measured
//!   while a query burst keeps hitting the set;
//! - **query loss during heal**: gathers that came back errored or with
//!   missing shards while heals were in flight — the row exists to
//!   witness a zero;
//! - **throughput dip during resize**: a burst crossed by a live
//!   `resize(4→8)` and back, as a fraction of the steady-state rate —
//!   the epoch-fenced swap should cost little.

use super::common::{dataset_table, fmt, ResultTable};
use muve_data::Dataset;
use muve_dbms::{parse, Query};
use muve_shard::{ShardExecOptions, ShardSet, ShardSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUERIES: &[&str] = &[
    "select count(*) from flights where carrier = 'AA'",
    "select sum(arr_delay) from flights group by carrier",
    "select avg(dep_delay) from flights group by origin",
];

fn healing_spec(shards: usize) -> ShardSpec {
    ShardSpec {
        heal: true,
        ..ShardSpec::new(shards, 2)
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn fully_healthy(set: &ShardSet) -> bool {
    (0..set.num_shards()).all(|s| set.healthy_replicas(s) == set.num_replicas())
        && set.stats().snapshot().heals_in_flight() == 0
}

/// Queries served per second over one timed burst.
fn burst_rate(set: &ShardSet, queries: &[Query], n: usize, lost: &mut usize) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        match set.execute(&queries[i % queries.len()], ShardExecOptions::default()) {
            Ok(r) if !r.report.is_partial() => {}
            _ => *lost += 1,
        }
    }
    n as f64 / start.elapsed().as_secs_f64().max(1e-12)
}

/// Run the self-healing experiment.
pub fn run(quick: bool) -> Vec<ResultTable> {
    let rows = if quick { 100_000 } else { 1_000_000 };
    let kills = if quick { 6 } else { 15 };
    let table = Arc::new(dataset_table(Dataset::Flights, rows, 0x4EA1));
    let queries: Vec<Query> = QUERIES
        .iter()
        .map(|sql| parse(sql).expect("bench query parses"))
        .collect();

    let mut out = ResultTable::new(
        "BENCH_heal",
        "Self-healing shards: time from replica kill to automatic \
         re-admission under live traffic (p50/p95), query loss while \
         heals are in flight (must be 0), and the throughput cost of a \
         live resize(4->8->4)",
        &["metric", "config", "value", "detail"],
    );

    // --- time-to-heal + loss-during-heal -----------------------------
    let set = ShardSet::build(Arc::clone(&table), healing_spec(4));
    // Warm-up: touch every shard once.
    let mut lost = 0usize;
    burst_rate(&set, &queries, queries.len(), &mut lost);
    let mut heal_ms: Vec<f64> = Vec::with_capacity(kills);
    for k in 0..kills {
        let completed_before = set.stats().snapshot().heals_completed;
        let (s, r) = (
            k % set.num_shards(),
            (k / set.num_shards()) % set.num_replicas(),
        );
        let killed_at = Instant::now();
        set.kill_replica(s, r);
        // Keep traffic flowing while the healer works; every gather in
        // this window rides the survivor replica.
        let deadline = killed_at + Duration::from_secs(30);
        loop {
            burst_rate(&set, &queries, queries.len(), &mut lost);
            let snap = set.stats().snapshot();
            if snap.heals_completed > completed_before && fully_healthy(&set) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "heal {k} never completed: {snap:?}"
            );
        }
        heal_ms.push(killed_at.elapsed().as_secs_f64() * 1000.0);
    }
    heal_ms.sort_by(|a, b| a.total_cmp(b));
    let snap = set.stats().snapshot();
    out.push(vec![
        "time-to-heal p50".into(),
        "N=4 R=2".into(),
        format!("{} ms", fmt(percentile(&heal_ms, 0.50))),
        format!("{kills} kills, one per burst"),
    ]);
    out.push(vec![
        "time-to-heal p95".into(),
        "N=4 R=2".into(),
        format!("{} ms", fmt(percentile(&heal_ms, 0.95))),
        format!(
            "{} heals completed, {} failed",
            snap.heals_completed, snap.heals_failed
        ),
    ]);
    out.push(vec![
        "query loss during heal".into(),
        "N=4 R=2".into(),
        format!("{lost}"),
        format!(
            "{} missing shards across {} gathers",
            snap.shards_missing, snap.gathers
        ),
    ]);

    // --- throughput dip during resize --------------------------------
    let set = ShardSet::build(Arc::clone(&table), healing_spec(4));
    let burst = if quick { 30 } else { 90 };
    let mut resize_lost = 0usize;
    burst_rate(&set, &queries, queries.len(), &mut resize_lost); // warm-up
    let steady = burst_rate(&set, &queries, burst, &mut resize_lost);
    // The measured burst crosses two live resizes: out to 8 shards a
    // third of the way in, back to 4 at two thirds.
    let start = Instant::now();
    for i in 0..burst {
        if i == burst / 3 {
            set.resize(8, 2);
        } else if i == 2 * burst / 3 {
            set.resize(4, 2);
        }
        match set.execute(&queries[i % queries.len()], ShardExecOptions::default()) {
            Ok(r) if !r.report.is_partial() => {}
            _ => resize_lost += 1,
        }
    }
    let resizing = burst as f64 / start.elapsed().as_secs_f64().max(1e-12);
    out.push(vec![
        "throughput during resize".into(),
        "N=4->8->4 R=2".into(),
        format!("{} q/s", fmt(resizing)),
        format!(
            "{} of steady-state {} q/s, {resize_lost} lost",
            fmt(resizing / steady.max(1e-12)),
            fmt(steady)
        ),
    ]);
    vec![out]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heals_complete_and_nothing_is_lost() {
        let tables = run(true);
        let t = &tables[0];
        assert_eq!(t.id, "BENCH_heal");
        assert_eq!(t.rows.len(), 4);
        let loss = &t.rows[2];
        assert_eq!(loss[0], "query loss during heal");
        assert_eq!(loss[2], "0", "healing must lose zero queries: {loss:?}");
        let resize = &t.rows[3];
        assert!(
            resize[3].ends_with("0 lost"),
            "resizing must lose zero queries: {resize:?}"
        );
    }
}
