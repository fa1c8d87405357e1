//! Acceptance differential for sharded execution.
//!
//! For random tables (dict-coded strings, NULL-bearing dyadic floats) and
//! random queries, sharded execution at any `N×R` layout must be
//! **bit-identical** to the single-table path — and must stay so with one
//! replica of every shard fault-injected dead, every shard served by the
//! survivors (no `Missing`, no error).

use muve_dbms::{
    execute, execute_approximate, AggFunc, Aggregate, CmpOp, ColumnType, PredOp, Predicate, Query,
    Schema, Table, Value,
};
use muve_shard::{ShardExecOptions, ShardFaultInjector, ShardSet, ShardSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A random table: grouping strings, a NULL-bearing dyadic float, and two
/// int columns. Dyadic rationals (multiples of 1/8) are exact under any
/// summation order, so bit-identity survives hash partitioning.
fn random_table(rng: &mut StdRng, rows: usize) -> Arc<Table> {
    let schema = Schema::new([
        ("city", ColumnType::Str),
        ("delay", ColumnType::Float),
        ("dist", ColumnType::Int),
        ("year", ColumnType::Int),
    ]);
    let cities = ["ams", "bos", "cdg", "den", "ewr", "fra", "gva"];
    let mut b = Table::builder("t", schema);
    for _ in 0..rows {
        let delay = if rng.gen_bool(0.12) {
            Value::Null
        } else {
            Value::Float(rng.gen_range(-400i64..1600) as f64 / 8.0)
        };
        b.push_row([
            Value::from(cities[rng.gen_range(0..cities.len())]),
            delay,
            Value::Int(rng.gen_range(0..2500)),
            Value::Int(rng.gen_range(2015..2022)),
        ]);
    }
    Arc::new(b.build())
}

fn random_query(rng: &mut StdRng) -> Query {
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];
    let mut aggregates = Vec::new();
    for _ in 0..rng.gen_range(1..=3) {
        let f = funcs[rng.gen_range(0..funcs.len())];
        aggregates.push(if f == AggFunc::Count && rng.gen_bool(0.5) {
            Aggregate::count_star()
        } else {
            let col = if rng.gen_bool(0.5) { "delay" } else { "dist" };
            Aggregate::over(f, col)
        });
    }
    let mut predicates = Vec::new();
    if rng.gen_bool(0.7) {
        let ops = CmpOp::ALL;
        predicates.push(Predicate::cmp(
            "dist",
            ops[rng.gen_range(0..ops.len())],
            rng.gen_range(0i64..2500),
        ));
    }
    if rng.gen_bool(0.3) {
        predicates.push(Predicate {
            column: "city".into(),
            op: PredOp::In(vec![
                Value::from("ams"),
                Value::from("den"),
                Value::from("gva"),
            ]),
        });
    }
    let group_by = match rng.gen_range(0..3) {
        0 => vec![],
        1 => vec!["city".into()],
        _ => vec!["city".into(), "year".into()],
    };
    Query {
        table: "t".into(),
        aggregates,
        predicates,
        group_by,
    }
}

#[test]
fn sharded_is_bit_identical_to_single_table() {
    let mut rng = StdRng::seed_from_u64(0x5A4D);
    for round in 0..3 {
        let table = random_table(&mut rng, 1500 + round * 700);
        let queries: Vec<Query> = (0..8).map(|_| random_query(&mut rng)).collect();
        let direct: Vec<_> = queries
            .iter()
            .map(|q| execute(&table, q).unwrap())
            .collect();
        for shards in [1, 2, 3, 4] {
            for replicas in [1, 2] {
                let set = ShardSet::build(Arc::clone(&table), ShardSpec::new(shards, replicas));
                for (q, want) in queries.iter().zip(&direct) {
                    let got = set.execute(q, ShardExecOptions::default()).unwrap();
                    assert!(!got.report.is_partial());
                    // ResultSet compares Value::Float bitwise through
                    // PartialEq, so this is bit-identity, not tolerance.
                    assert_eq!(&got.result, want, "round {round} {shards}x{replicas} {q:?}");
                }
            }
        }
    }
}

#[test]
fn one_dead_replica_per_shard_changes_nothing() {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let table = random_table(&mut rng, 2500);
    let queries: Vec<Query> = (0..10).map(|_| random_query(&mut rng)).collect();
    // Replica 0 of EVERY shard is dead from the first sub-query on.
    let set = ShardSet::build_with_faults(
        Arc::clone(&table),
        ShardSpec::new(4, 2),
        ShardFaultInjector::parse("*.0:down").unwrap(),
    );
    for q in &queries {
        let want = execute(&table, q).unwrap();
        let got = set.execute(q, ShardExecOptions::default()).unwrap();
        assert!(
            !got.report.is_partial(),
            "survivor replicas must serve every shard: {:?}",
            got.report
        );
        assert_eq!(got.result, want, "{q:?}");
    }
    // The breaker must have isolated the dead replicas by now.
    let snap = set.stats().snapshot();
    assert!(snap.replica_trips >= 4, "{snap:?}");
    assert_eq!(snap.shards_missing, 0, "{snap:?}");
}

#[test]
fn sampled_sharded_matches_unsharded_sampling_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let table = random_table(&mut rng, 4000);
    let queries: Vec<Query> = (0..6).map(|_| random_query(&mut rng)).collect();
    for shards in [1, 3, 4] {
        let set = ShardSet::build(Arc::clone(&table), ShardSpec::new(shards, 1));
        for (i, q) in queries.iter().enumerate() {
            for fraction in [0.05, 0.25, 1.0] {
                let seed = 31 * i as u64 + 7;
                let (want, realized_d) = execute_approximate(&table, q, fraction, seed).unwrap();
                let (got, realized_s) = set
                    .execute_sampled(q, fraction, seed, ShardExecOptions::default())
                    .unwrap();
                assert_eq!(realized_s.to_bits(), realized_d.to_bits());
                assert_eq!(got.result, want, "N={shards} f={fraction} {q:?}");
            }
        }
    }
}
