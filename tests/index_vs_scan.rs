//! Acceptance differential for the secondary-index subsystem.
//!
//! For random NULL-bearing tables with a high-cardinality string column
//! (equality selectivity well under the planner's crossover, so the
//! routed path really does take the index), every access path must be
//! **bit-identical** to the row-at-a-time reference executor:
//!
//! - the forced batch scan (`execute_batch` with no selection),
//! - the routed path (a `ScanRows::All` request: planner-chosen index
//!   probe feeding the batch engine through a `Rows::Ids` selection),
//! - merged execution (`plan_merged` → index-served merge groups),
//! - sharded scatter-gather (per-shard local indexes over shared parent
//!   dictionaries, so every shard makes the same access-path decision).
//!
//! Robustness hooks must also be path-independent: a pre-cancelled token
//! or a 1-byte memory cap surfaces the same typed error whether or not
//! the planner would have probed an index. Finally, cache epoch stamping
//! ([`SessionCaches::set_table`]) must eagerly drop indexes built for
//! replaced tables (`index.stale_drops`).

use muve::dbms::{
    choose_access_path, execute_batch, execute_reference, index_registry, plan_group_paths,
    plan_merged, AccessPath, AggFunc, Aggregate, BatchConfig, ColumnType, CostParams, ExecError,
    ExecOptions, PredOp, Predicate, Query, ResultSet, ScanRequest, ScanRows, Schema, Table, Value,
};
use muve::obs::{metrics, CancelToken, MemBudget};
use muve::pipeline::SessionCaches;
use muve::shard::{ShardExecOptions, ShardSet, ShardSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Distinct values in the high-cardinality column: equality selectivity
/// 1/240 ≈ 0.4%, far below the planner's ~2.4% single-predicate
/// crossover, so `hub` predicates route through the index.
const HUBS: usize = 240;

/// A random table: a high-cardinality `hub` string column (NULL-bearing),
/// a low-cardinality `tier`, a NULL-bearing dyadic float and an int.
/// Dyadic rationals (multiples of 1/8) are exact under any summation
/// order, so bit-identity survives selections and hash partitioning.
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let schema = Schema::new([
        ("hub", ColumnType::Str),
        ("tier", ColumnType::Str),
        ("delay", ColumnType::Float),
        ("dist", ColumnType::Int),
    ]);
    let tiers = ["econ", "flex", "biz", "first", "cargo"];
    let mut b = Table::builder("t", schema);
    for _ in 0..rows {
        let hub = if rng.gen_bool(0.03) {
            Value::Null
        } else {
            Value::from(format!("v{:03}", rng.gen_range(0..HUBS)))
        };
        let delay = if rng.gen_bool(0.1) {
            Value::Null
        } else {
            Value::Float(rng.gen_range(-400i64..1600) as f64 / 8.0)
        };
        b.push_row([
            hub,
            Value::from(tiers[rng.gen_range(0..tiers.len())]),
            delay,
            Value::Int(rng.gen_range(0..2500)),
        ]);
    }
    b.build()
}

fn hub_value(rng: &mut StdRng) -> Value {
    // Out-of-dictionary literals (selectivity exactly zero) included.
    if rng.gen_bool(0.1) {
        Value::from(format!("zz{:03}", rng.gen_range(0..50)))
    } else {
        Value::from(format!("v{:03}", rng.gen_range(0..HUBS)))
    }
}

/// A random query that is always selective on `hub` (so the planner takes
/// the index path), optionally with a `tier` equality (index intersection)
/// and a non-indexable `dist` comparison (residual evaluation over the
/// candidate selection).
fn random_query(rng: &mut StdRng) -> Query {
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];
    let mut aggregates = Vec::new();
    for _ in 0..rng.gen_range(1..=2) {
        let f = funcs[rng.gen_range(0..funcs.len())];
        aggregates.push(if f == AggFunc::Count && rng.gen_bool(0.5) {
            Aggregate::count_star()
        } else {
            let col = if rng.gen_bool(0.5) { "delay" } else { "dist" };
            Aggregate::over(f, col)
        });
    }
    let mut predicates = vec![Predicate {
        column: "hub".into(),
        op: if rng.gen_bool(0.5) {
            PredOp::Eq(hub_value(rng))
        } else {
            let k = rng.gen_range(1..=3);
            PredOp::In((0..k).map(|_| hub_value(rng)).collect())
        },
    }];
    if rng.gen_bool(0.4) {
        predicates.push(Predicate {
            column: "tier".into(),
            op: PredOp::Eq(Value::from("biz")),
        });
    }
    if rng.gen_bool(0.4) {
        predicates.push(Predicate::cmp(
            "dist",
            muve::dbms::CmpOp::Lt,
            rng.gen_range(100i64..2500),
        ));
    }
    let group_by = if rng.gen_bool(0.3) {
        vec!["tier".into()]
    } else {
        vec![]
    };
    Query {
        table: "t".into(),
        aggregates,
        predicates,
        group_by,
    }
}

/// The routed path: a `ScanRows::All` request under `opts`.
fn routed(table: &Table, q: &Query, opts: ExecOptions<'_>) -> Result<ResultSet, ExecError> {
    ScanRequest::new(ScanRows::All, opts).run(table, q)
}

/// Results agree up to scan statistics (the index path scans fewer rows
/// by design, so `rows_scanned` legitimately differs from a full scan).
fn assert_same_answer(a: &ResultSet, b: &ResultSet, ctx: &str) {
    assert_eq!(a.columns, b.columns, "{ctx}");
    assert_eq!(a.rows, b.rows, "{ctx}");
    assert_eq!(a.stats.rows_matched, b.stats.rows_matched, "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: reference executor, forced batch scan and the routed
    /// (index-probing) path return identical answers for any random
    /// table/query pair — and the planner really does pick the index for
    /// these selective queries.
    #[test]
    fn routed_index_path_matches_reference(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, 1_500 + (seed as usize % 700));
        let hits_before = metrics().counter("index.hits").get();
        let mut indexed = 0usize;
        for _ in 0..6 {
            let q = random_query(&mut rng);
            if let AccessPath::IndexScan { .. } =
                choose_access_path(&table, &q, &CostParams::default())
            {
                indexed += 1;
            }
            let reference = execute_reference(&table, &q, None, ExecOptions::default()).unwrap();
            let scan = execute_batch(
                &table,
                &q,
                None,
                ExecOptions::default(),
                &BatchConfig::default(),
            )
            .unwrap();
            let door = routed(&table, &q, ExecOptions::default()).unwrap();
            assert_same_answer(&reference, &scan, &format!("scan {q:?}"));
            assert_same_answer(&reference, &door, &format!("routed {q:?}"));
        }
        prop_assert!(indexed > 0, "sweep never exercised the index path");
        prop_assert!(
            metrics().counter("index.hits").get() > hits_before,
            "planner chose the index but execution never probed it"
        );
        index_registry().drop_tables(&[table.fingerprint()]);
    }
}

#[test]
fn merged_groups_ride_the_index_and_match_direct_execution() {
    let mut rng = StdRng::seed_from_u64(0x1DEA);
    let table = random_table(&mut rng, 4_000);
    // Four count queries differing only in the hub literal: one merge
    // group, rewritten to an IN + GROUP BY whose combined selectivity
    // (4/240 ≈ 1.7%) still sits under the planner's ~2.4% crossover, so
    // the whole group is served from one index probe.
    let queries: Vec<Query> = (0..4)
        .map(|i| Query {
            table: "t".into(),
            aggregates: vec![Aggregate::count_star()],
            predicates: vec![Predicate {
                column: "hub".into(),
                op: PredOp::Eq(Value::from(format!("v{:03}", 17 + 31 * i))),
            }],
            group_by: vec![],
        })
        .collect();
    let groups = plan_merged(&queries);
    assert_eq!(groups.len(), 1, "identical-shape queries must merge");
    let paths = plan_group_paths(&table, &groups, &CostParams::default());
    assert!(
        matches!(paths[0], AccessPath::IndexScan { .. }),
        "merged group should be index-served: {paths:?}"
    );
    let merged =
        muve::dbms::execute_merged_with_opts(&table, &groups[0], ExecOptions::default()).unwrap();
    assert_eq!(merged.results.len(), queries.len());
    for (qi, value) in &merged.results {
        let want = execute_reference(&table, &queries[*qi], None, ExecOptions::default())
            .unwrap()
            .scalar();
        assert_eq!(*value, want, "member {qi}");
    }
    index_registry().drop_tables(&[table.fingerprint()]);
}

#[test]
fn sharded_with_index_is_bit_identical_to_routed_single_table() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let table = Arc::new(random_table(&mut rng, 3_000));
    let queries: Vec<Query> = (0..8).map(|_| random_query(&mut rng)).collect();
    let direct: Vec<ResultSet> = queries
        .iter()
        .map(|q| routed(&table, q, ExecOptions::default()).unwrap())
        .collect();
    for shards in [2, 3] {
        for replicas in [1, 2] {
            let set = ShardSet::build(Arc::clone(&table), ShardSpec::new(shards, replicas));
            for (q, want) in queries.iter().zip(&direct) {
                let got = set.execute(q, ShardExecOptions::default()).unwrap();
                assert!(!got.report.is_partial());
                // Full equality including stats: per-shard indexes over
                // the shared parent dictionary make the same access-path
                // decision, so even `rows_scanned` must agree in sum.
                assert_eq!(&got.result, want, "{shards}x{replicas} {q:?}");
            }
            let fps: Vec<u64> = (0..set.num_shards())
                .map(|s| set.shard_table(s).fingerprint())
                .collect();
            index_registry().drop_tables(&fps);
        }
    }
    index_registry().drop_tables(&[table.fingerprint()]);
}

#[test]
fn robustness_hooks_are_path_independent() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let table = random_table(&mut rng, 2_000);
    let q = Query {
        table: "t".into(),
        aggregates: vec![Aggregate::over(AggFunc::Sum, "delay")],
        predicates: vec![Predicate {
            column: "hub".into(),
            op: PredOp::Eq(Value::from("v042")),
        }],
        group_by: vec![],
    };
    assert!(matches!(
        choose_access_path(&table, &q, &CostParams::default()),
        AccessPath::IndexScan { .. }
    ));

    // Pre-cancelled token: the routed path must degrade to the scan and
    // surface the canonical Cancelled error, identical to the reference.
    let fired = CancelToken::never();
    fired.cancel();
    let opts = ExecOptions {
        cancel: Some(&fired),
        ..ExecOptions::default()
    };
    let door = routed(&table, &q, opts).unwrap_err();
    let opts = ExecOptions {
        cancel: Some(&fired),
        ..ExecOptions::default()
    };
    let reference = execute_reference(&table, &q, None, opts).unwrap_err();
    assert!(matches!(door, ExecError::Cancelled), "{door:?}");
    assert_eq!(door.to_string(), reference.to_string());

    // 1-byte memory cap: any index build/probe charge fails, the planner
    // falls back to the scan, and the scan's own governor abort surfaces
    // — again identical to the reference path's error.
    let tiny = MemBudget::new(1, None);
    let opts = ExecOptions {
        mem: Some(&tiny),
        ..ExecOptions::default()
    };
    let door = routed(&table, &q, opts).unwrap_err();
    let tiny = MemBudget::new(1, None);
    let opts = ExecOptions {
        mem: Some(&tiny),
        ..ExecOptions::default()
    };
    let reference = execute_reference(&table, &q, None, opts).unwrap_err();
    assert!(
        matches!(door, ExecError::ResourceExhausted { .. }),
        "{door:?}"
    );
    assert_eq!(door.to_string(), reference.to_string());
    assert!(
        !index_registry().has_table(table.fingerprint()),
        "a 1-byte cap must not leave a partially charged index behind"
    );
}

#[test]
fn cache_epoch_stamping_drops_indexes_for_replaced_tables() {
    let mut rng = StdRng::seed_from_u64(0xE90C);
    let old = random_table(&mut rng, 2_000);
    let new = random_table(&mut rng, 2_000);
    let q = Query {
        table: "t".into(),
        aggregates: vec![Aggregate::count_star()],
        predicates: vec![Predicate {
            column: "hub".into(),
            op: PredOp::Eq(Value::from("v007")),
        }],
        group_by: vec![],
    };

    let caches = SessionCaches::new(1 << 20);
    caches.set_table(&old);
    // Routed execution lazily builds the index for `old`.
    routed(&old, &q, ExecOptions::default()).unwrap();
    assert!(index_registry().has_table(old.fingerprint()));

    // Reload: the epoch stamp must eagerly drop the stale index.
    let drops_before = metrics().counter("index.stale_drops").get();
    caches.set_table(&new);
    assert!(!index_registry().has_table(old.fingerprint()));
    assert!(metrics().counter("index.stale_drops").get() > drops_before);

    // Post-reload answers come from the new table's own (fresh) index.
    let door = routed(&new, &q, ExecOptions::default()).unwrap();
    let want = execute_reference(&new, &q, None, ExecOptions::default()).unwrap();
    assert_same_answer(&want, &door, "post-reload");

    // Sharded stamping covers per-shard tables too.
    let parent = Arc::new(random_table(&mut rng, 2_000));
    let set = ShardSet::build(Arc::clone(&parent), ShardSpec::new(2, 1));
    caches.set_shards(&set);
    set.execute(&q, ShardExecOptions::default()).unwrap();
    let shard_fp = set.shard_table(0).fingerprint();
    assert!(index_registry().has_table(shard_fp));
    caches.set_table(&new);
    assert!(
        !index_registry().has_table(shard_fp),
        "replacing a shard set must drop per-shard indexes"
    );
    index_registry().drop_tables(&[new.fingerprint()]);
}
