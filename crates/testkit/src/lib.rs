//! The engine's differential suites' one table generator, one query
//! generator, one selection generator, an independent row model
//! ([`row_model`]) and the registry of execution paths ([`Registry`]),
//! each checked against [`muve_dbms::execute_reference`]. Test-only: no
//! shipping crate depends on it.
//!
//! Floats are dyadic rationals (multiples of 1/4): every partial sum is
//! exact, so sums agree in any order and every path — morsel folds, shard
//! gathers — must match the reference bit for bit. Arbitrary floats only
//! agree to the last few digits.

mod model;
mod paths;

pub use model::row_model;
pub use paths::{Family, Registry, Scan};

use muve_dbms::Value;
use muve_dbms::{AggFunc, Aggregate, CmpOp, ColumnType, PredOp, Predicate, Query, Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Distinct values of the `hub` column: equality selectivity 1/240, far
/// below the planner's crossover, so `hub` predicates take the index.
const HUBS: usize = 240;

/// A random table `t` of `rows` rows:
///
/// - `hub`: string, 240 values (`v000`…);
/// - `k`: string, `k0`…`k4`; `g`: string, `g0`…`g2`;
/// - `v`: int in −50..50; `f`: float, a multiple of 1/4.
///
/// Every column, GROUP BY columns included, is NULL-bearing at a rate
/// drawn per table and column: none, one in 500 (so some shards of a
/// table have NULLs and others none), a few, half or all rows (`hub` at
/// most a few, so its index stays selective).
pub fn random_table(rng: &mut StdRng, rows: usize) -> Arc<Table> {
    let schema = Schema::new([
        ("hub", ColumnType::Str),
        ("k", ColumnType::Str),
        ("g", ColumnType::Str),
        ("v", ColumnType::Int),
        ("f", ColumnType::Float),
    ]);
    let mut rate = |choices: &[f64]| choices[rng.gen_range(0..choices.len())];
    let mut nulls = vec![rate(&[0.0, 0.002, 0.03])];
    nulls.extend((0..4).map(|_| rate(&[0.0, 0.002, 0.03, 0.125, 0.5, 1.0])));
    let mut b = Table::builder("t", schema);
    for _ in 0..rows {
        let row = [
            Value::from(format!("v{:03}", rng.gen_range(0..HUBS))),
            Value::from(format!("k{}", rng.gen_range(0..5))),
            Value::from(format!("g{}", rng.gen_range(0..3))),
            Value::Int(rng.gen_range(-50i64..50)),
            Value::Float(rng.gen_range(-400i64..400) as f64 / 4.0),
        ];
        let cell = |(v, &rate)| if rng.gen_bool(rate) { Value::Null } else { v };
        b.push_row(row.into_iter().zip(&nulls).map(cell));
    }
    Arc::new(b.build())
}

/// The rng seeded with `seed` and a [`random_table`] of 1 to 599 rows
/// drawn from it: row counts span the 64- and 257-row test morsels.
pub fn seeded_table(seed: u64) -> (StdRng, Arc<Table>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows = rng.gen_range(1..600);
    let table = random_table(&mut rng, rows);
    (rng, table)
}

/// A literal for string column `col`, out-of-dictionary one time in ten.
fn literal(rng: &mut StdRng, col: &str) -> Value {
    let absent = rng.gen_bool(0.1);
    Value::from(match (col, absent) {
        ("hub", false) => format!("v{:03}", rng.gen_range(0..HUBS)),
        ("hub", true) => format!("zz{:03}", rng.gen_range(0..50)),
        (_, false) => format!("{col}{}", rng.gen_range(0..5)),
        (_, true) => format!("{col}{}", rng.gen_range(5..10)),
    })
}

fn numeric(rng: &mut StdRng) -> &'static str {
    ["v", "f"][rng.gen_range(0..2)]
}

/// One aggregate over a numeric column; a COUNT is also drawn as
/// `count(*)` or over a string column.
fn random_aggregate(rng: &mut StdRng) -> Aggregate {
    let func = AggFunc::ALL[rng.gen_range(0..AggFunc::ALL.len())];
    if func != AggFunc::Count {
        return Aggregate::over(func, numeric(rng));
    }
    match rng.gen_range(0..3) {
        0 => Aggregate::count_star(),
        1 => Aggregate::over(func, numeric(rng)),
        _ => Aggregate::over(func, ["k", "g", "hub"][rng.gen_range(0..3)]),
    }
}

/// A random query over [`random_table`]: one to three aggregates, one of
/// seven GROUP BY lists and up to three conjuncts of every compiled shape,
/// two queries in three with a `hub` `=` or `IN` the index answers.
pub fn random_query(rng: &mut StdRng) -> Query {
    let aggregates = (0..rng.gen_range(1..=3))
        .map(|_| random_aggregate(rng))
        .collect();
    let mut predicates = Vec::new();
    if rng.gen_bool(2.0 / 3.0) {
        predicates.push(string_predicate(rng, "hub"));
    }
    for _ in 0..rng.gen_range(0..=2) {
        let quarter = rng.gen_range(-240i64..240) as f64 / 4.0;
        predicates.push(match rng.gen_range(0..6) {
            0 => string_predicate(rng, "k"),
            1 => string_predicate(rng, "g"),
            2 => Predicate::eq("v", rng.gen_range(-60i64..60)),
            // Whole floats match ints; fractional ones match nothing.
            3 => Predicate::eq(numeric(rng), quarter),
            _ => {
                let op = CmpOp::ALL[rng.gen_range(0..CmpOp::ALL.len())];
                Predicate::cmp(numeric(rng), op, rng.gen_range(-60i64..60))
            }
        });
    }
    let group_by = ["", "k", "g", "k g", "v", "g v", "hub"][rng.gen_range(0..7)];
    Query {
        table: "t".into(),
        aggregates,
        predicates,
        group_by: group_by.split_whitespace().map(String::from).collect(),
    }
}

/// `col = literal` or `col IN (1–3 literals)`.
fn string_predicate(rng: &mut StdRng, col: &str) -> Predicate {
    if rng.gen_bool(0.5) {
        Predicate::eq(col, literal(rng, col))
    } else {
        let n = rng.gen_range(1..=3);
        Predicate::is_in(col, (0..n).map(|_| literal(rng, col)).collect())
    }
}

/// `n` random queries, about half *siblings* of the last fresh one: one
/// aggregate, equalities only, a new literal in its first string
/// predicate — the candidates query merging rewrites to one scan.
pub fn candidate_queries(rng: &mut StdRng, n: usize) -> Vec<Query> {
    let mut base = random_query(rng);
    let mut out = vec![base.clone()];
    while out.len() < n {
        if rng.gen_bool(0.5) {
            base = random_query(rng);
            out.push(base.clone());
            continue;
        }
        let mut q = base.clone();
        q.group_by.clear();
        q.aggregates = vec![random_aggregate(rng)];
        for p in &mut q.predicates {
            if let PredOp::In(vs) = &p.op {
                p.op = PredOp::Eq(vs[0].clone());
            }
        }
        if let Some(p) = q
            .predicates
            .iter_mut()
            .find(|p| p.column != "v" && p.column != "f")
        {
            p.op = PredOp::Eq(literal(rng, &p.column));
        }
        out.push(q);
    }
    out
}

/// A selection over `rows` rows: none (a full scan) one time in three,
/// else a sorted subset; or, `adversarial`, up to 40 unsorted ids with
/// ids past the end (`u32::MAX` included) spliced in anywhere.
pub fn selection(rng: &mut StdRng, rows: usize, adversarial: bool) -> Option<Vec<u32>> {
    let n = rows as u32;
    if adversarial {
        let ids = (0..rng.gen_range(0..40))
            .map(|_| match rng.gen_range(0..5) {
                0 => u32::MAX,
                1 => rng.gen_range(n..n + 50),
                _ => rng.gen_range(0..n.max(1)),
            })
            .collect();
        return Some(ids);
    }
    if rng.gen_range(0..3) == 0 {
        return None;
    }
    let keep = rng.gen_range(0.0..1.0);
    Some((0..n).filter(|_| rng.gen_bool(keep)).collect())
}
