//! Chaos suite for the replicated scatter-gather executor.
//!
//! The contract under test: with R ≥ 2, a replica dying mid-burst —
//! whether it panics on every sub-query or is killed between queries —
//! loses **zero** queries: every gather returns `Ok` with full coverage
//! and bit-identical values, failures surface only as typed outcomes,
//! and after quiescing the flow-conservation identities reconcile the
//! counter ledger exactly (every dispatched sub-query is accounted for).

use muve::data::Dataset;
use muve::dbms::{execute, AggFunc, Aggregate, CmpOp, Predicate, Query, Table};
use muve::pipeline::{Session, SessionConfig, Visualization};
use muve::shard::{ShardExecOptions, ShardFaultInjector, ShardSet, ShardSpec};
use std::sync::Arc;
use std::time::Duration;

fn flights(rows: usize) -> Arc<Table> {
    Arc::new(Dataset::Flights.generate(rows, 7))
}

/// A fixed burst of aggregate shapes over the flights schema: every
/// aggregate function, grouped and ungrouped, filtered and unfiltered.
/// All-integer columns, so sums are exact and bit-identity is testable.
fn burst_queries() -> Vec<Query> {
    let mut qs = Vec::new();
    for (f, col) in [
        (AggFunc::Avg, "dep_delay"),
        (AggFunc::Sum, "arr_delay"),
        (AggFunc::Min, "distance"),
        (AggFunc::Max, "dep_delay"),
        (AggFunc::Count, "arr_delay"),
    ] {
        qs.push(Query {
            table: "flights".into(),
            aggregates: vec![Aggregate::over(f, col)],
            predicates: vec![Predicate::cmp("distance", CmpOp::Gt, 500)],
            group_by: vec!["carrier".into()],
        });
    }
    qs.push(Query {
        table: "flights".into(),
        aggregates: vec![
            Aggregate::count_star(),
            Aggregate::over(AggFunc::Avg, "arr_delay"),
        ],
        predicates: vec![],
        group_by: vec!["origin".into(), "month".into()],
    });
    qs
}

/// Quiesce the set, then assert every flow-conservation identity from the
/// stats ledger. These are exact equalities, not bounds: each dispatched
/// sub-query maps to exactly one reply-or-reject, and to exactly one of
/// {primary, hedge, failover, heal probe}.
fn assert_flow_conserved(set: &ShardSet) {
    assert!(
        set.quiesce(Duration::from_secs(10)),
        "set must quiesce: {:?}",
        set.stats().snapshot()
    );
    let s = set.stats().snapshot();
    let shards = set.num_shards() as u64;
    assert_eq!(s.violations(), Vec::<String>::new(), "ledger: {s:?}");
    assert_eq!(
        s.dispatched,
        s.gathers * shards + s.hedges_fired + s.failovers + s.heal_probes,
        "attempt taxonomy: {s:?}"
    );
    assert_eq!(
        s.gathers * shards,
        s.shards_served + s.shards_missing,
        "per-shard outcomes: {s:?}"
    );
    assert_eq!(
        s.replica_trips,
        s.replica_recoveries + set.suspect_replicas() as u64,
        "breaker transitions: {s:?}"
    );
}

/// Replica 0 of every shard panics on *every* sub-query (p=1) from the
/// first dispatch on. With R=2 the survivors absorb the whole burst:
/// every query returns `Ok`, full coverage, bit-identical to the
/// single-table path — and the books balance afterwards.
#[test]
fn replica_panic_storm_loses_no_queries() {
    let table = flights(4_000);
    let set = ShardSet::build_with_faults(
        Arc::clone(&table),
        ShardSpec::new(4, 2),
        ShardFaultInjector::parse("*.0:panic").unwrap(),
    );
    let queries = burst_queries();
    for round in 0..7 {
        for q in &queries {
            let want = execute(&table, q).unwrap();
            let got = set
                .execute(q, ShardExecOptions::default())
                .unwrap_or_else(|e| panic!("round {round}: lost query {q:?}: {e}"));
            assert!(
                !got.report.is_partial(),
                "round {round}: survivors must cover every shard: {:?}",
                got.report
            );
            assert_eq!(got.result, want, "round {round}: {q:?}");
        }
    }
    assert_flow_conserved(&set);
    let s = set.stats().snapshot();
    assert_eq!(s.shards_missing, 0, "no shard was ever lost: {s:?}");
    assert!(
        s.replies_err > 0,
        "the panics were typed, not silent: {s:?}"
    );
    assert!(
        s.failovers > 0,
        "panicking primaries forced re-dispatches to survivors: {s:?}"
    );
    assert!(
        s.replica_trips >= 4,
        "the breaker isolated every panicking replica: {s:?}"
    );
}

/// A replica is killed *between* queries of a burst (the mid-flight chaos
/// shape the benchmark also runs). Nothing is lost before or after the
/// kill, and a revived replica is probed back into rotation.
#[test]
fn replica_killed_mid_burst_then_revived_recovers() {
    let table = flights(3_000);
    let spec = ShardSpec::new(3, 2);
    let set = ShardSet::build(Arc::clone(&table), spec);
    let queries = burst_queries();
    let truth: Vec<_> = queries
        .iter()
        .map(|q| execute(&table, q).unwrap())
        .collect();
    let run_burst = |tag: &str| {
        for (q, want) in queries.iter().zip(&truth) {
            let got = set
                .execute(q, ShardExecOptions::default())
                .unwrap_or_else(|e| panic!("{tag}: lost query {q:?}: {e}"));
            assert!(!got.report.is_partial(), "{tag}: {:?}", got.report);
            assert_eq!(&got.result, want, "{tag}: {q:?}");
        }
    };
    run_burst("healthy");
    set.kill_replica(1, 0);
    run_burst("one replica down");
    assert!(
        !set.replica_healthy(1, 0),
        "the breaker must have tripped the killed replica"
    );
    set.revive_replica(1, 0);
    // Recovery flows through the half-open probe: wait out the cooldown,
    // then keep offering traffic until a probe lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !set.replica_healthy(1, 0) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(60));
        run_burst("probing");
    }
    assert!(set.replica_healthy(1, 0), "revived replica must recover");
    assert_flow_conserved(&set);
    let s = set.stats().snapshot();
    assert_eq!(s.shards_missing, 0, "{s:?}");
    assert!(s.replica_trips >= 1 && s.replica_recoveries >= 1, "{s:?}");
}

/// End-to-end through the session pipeline: a sharded session with every
/// shard served is indistinguishable from the single-table session, and a
/// lost shard degrades to an annotated scaled estimate instead of an
/// error — `approximate` is set and the degradation trace says why.
#[test]
fn sharded_session_matches_and_degrades_end_to_end() {
    let table = flights(3_000);
    let cfg = SessionConfig {
        deadline: Duration::from_secs(1),
        ..SessionConfig::default()
    };

    let plain = Session::shared(Arc::clone(&table), cfg.clone()).run("average dep delay in jfk");
    let set = Arc::new(ShardSet::build(Arc::clone(&table), ShardSpec::new(3, 2)));
    let sharded = Session::shared(Arc::clone(&table), cfg.clone())
        .with_shards(Arc::clone(&set))
        .run("average dep delay in jfk");
    match (&plain.visualization, &sharded.visualization) {
        (
            Visualization::Multiplot {
                results: a,
                approximate: ax,
                ..
            },
            Visualization::Multiplot {
                results: b,
                approximate: bx,
                ..
            },
        ) => {
            assert_eq!(a, b, "sharded session must show identical values");
            assert!(!ax && !bx, "clean exact runs are not approximate");
        }
        other => panic!("expected multiplots, got {other:?}"),
    }
    assert!(sharded.errors.is_empty(), "{:?}", sharded.errors);

    // R=1 and a killed replica: the shard is unrecoverable, the gather is
    // partial, and the session annotates instead of failing.
    let frail = Arc::new(ShardSet::build(Arc::clone(&table), ShardSpec::new(2, 1)));
    frail.kill_replica(0, 0);
    let degraded = Session::shared(Arc::clone(&table), cfg)
        .with_shards(Arc::clone(&frail))
        .run("average dep delay in jfk");
    match &degraded.visualization {
        Visualization::Multiplot {
            results,
            approximate,
            ..
        } => {
            assert!(*approximate, "partial gather must mark values approximate");
            assert!(
                results.iter().any(Option::is_some),
                "scaled estimates still land on screen"
            );
        }
        Visualization::Text { message } => {
            panic!("partial coverage must degrade, not fail: {message}")
        }
    }
    assert!(
        degraded
            .trace
            .events
            .iter()
            .any(|e| e.detail.contains("partial shard gather")),
        "the degradation trace must say why: {:#?}",
        degraded.trace.events
    );
    assert_flow_conserved(&frail);
    let s = frail.stats().snapshot();
    assert!(s.shards_missing > 0, "{s:?}");
    assert!(s.partial_gathers > 0, "{s:?}");
}
