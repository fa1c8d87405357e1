//! Differential testing of the morsel-driven batch engine against the
//! row-at-a-time reference executor (`execute_reference`).
//!
//! The reference path is the executable specification: for every random
//! table / query / selection / engine configuration the batch engine must
//! produce a **bit-identical** `ResultSet` — same columns, same rows, same
//! scan stats — including NULL-bearing columns, group-bys, restricted
//! selections, tiny morsels that force many partial accumulators, and
//! multi-threaded schedules. Float aggregates use dyadic-rational inputs
//! (multiples of 1/4) so sums are exact and bit-comparable regardless of
//! accumulation order; determinism is additionally enforced by comparing
//! two multi-threaded runs against each other.
//!
//! Abort parity is covered too: a pre-cancelled token must surface the
//! same typed error from both paths, and a tight memory cap must reject
//! both paths with the same error variant.

use muve_dbms::{
    combine_partials, execute_batch, execute_reference, scale_result, systematic_rows, AggFunc,
    Aggregate, BatchConfig, CmpOp, ColumnType, ExecError, ExecOptions, PredOp, Predicate, Query,
    ScanRequest, ScanRows, Schema, Table, Value,
};
use muve_obs::{CancelToken, MemBudget};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomTable {
    keys: Vec<u8>,
    groups: Vec<u8>,
    /// `None` is a NULL int.
    ints: Vec<Option<i8>>,
    /// Quarter-integers (`i/4`), `None` is a NULL float. Dyadic rationals
    /// keep float sums exact, so batch and reference results are
    /// bit-identical rather than merely close.
    quarters: Vec<Option<i16>>,
}

impl RandomTable {
    fn build(&self) -> Table {
        let schema = Schema::new([
            ("k", ColumnType::Str),
            ("g", ColumnType::Str),
            ("v", ColumnType::Int),
            ("f", ColumnType::Float),
        ]);
        let mut b = Table::builder("t", schema);
        for i in 0..self.keys.len() {
            b.push_row([
                Value::from(format!("k{}", self.keys[i])),
                Value::from(format!("g{}", self.groups[i])),
                self.ints[i].map_or(Value::Null, |v| Value::Int(i64::from(v))),
                self.quarters[i].map_or(Value::Null, |q| Value::Float(f64::from(q) / 4.0)),
            ]);
        }
        b.build()
    }
}

fn random_table() -> impl Strategy<Value = RandomTable> {
    (1usize..400).prop_flat_map(|n| {
        (
            prop::collection::vec(0u8..5, n),
            prop::collection::vec(0u8..3, n),
            // (tag, value): tag 0 encodes NULL (~1 row in 8).
            prop::collection::vec((0u8..8, -50i8..50), n),
            prop::collection::vec((0u8..8, -200i16..200), n),
        )
            .prop_map(|(keys, groups, ints, quarters)| RandomTable {
                keys,
                groups,
                ints: ints
                    .into_iter()
                    .map(|(tag, v)| (tag != 0).then_some(v))
                    .collect(),
                quarters: quarters
                    .into_iter()
                    .map(|(tag, q)| (tag != 0).then_some(q))
                    .collect(),
            })
    })
}

fn aggregates() -> impl Strategy<Value = Vec<Aggregate>> {
    let one = prop_oneof![
        Just(Aggregate::count_star()),
        (
            prop::sample::select(vec![
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Count,
            ]),
            prop::sample::select(vec!["v", "f"]),
        )
            .prop_map(|(f, c)| Aggregate::over(f, c)),
    ];
    prop::collection::vec(one, 1..4)
}

/// Random conjuncts covering every compiled-predicate shape: dictionary
/// `IN` (with literals absent from the dictionary), int equality against
/// int, whole-float and *fractional*-float literals (the latter compile to
/// always-false), float equality, and range comparisons on both numeric
/// columns.
fn predicates() -> impl Strategy<Value = Vec<Predicate>> {
    let one = prop_oneof![
        // k in ('k3', 'k9', ...) — k5..k9 are absent from the dictionary.
        prop::collection::vec(0u8..10, 1..4).prop_map(|ks| Predicate {
            column: "k".into(),
            op: PredOp::In(ks.iter().map(|k| Value::from(format!("k{k}"))).collect()),
        }),
        (-60i64..60).prop_map(|v| Predicate::eq("v", v)),
        // Int column vs float literal: whole floats match as ints,
        // fractional floats can match nothing.
        (-240i64..240).prop_map(|q| Predicate::eq("v", q as f64 / 4.0)),
        (-240i64..240).prop_map(|q| Predicate::eq("f", q as f64 / 4.0)),
        (
            prop::sample::select(CmpOp::ALL.to_vec()),
            prop::sample::select(vec!["v", "f"]),
            -60i64..60,
        )
            .prop_map(|(op, col, v)| Predicate::cmp(col, op, v)),
    ];
    prop::collection::vec(one, 0..4)
}

fn group_by() -> impl Strategy<Value = Vec<String>> {
    prop::sample::select(vec![
        vec![],
        vec!["k".to_owned()],
        vec!["g".to_owned()],
        vec!["k".to_owned(), "g".to_owned()],
        vec!["v".to_owned()],
        vec!["g".to_owned(), "v".to_owned()],
    ])
}

fn queries() -> impl Strategy<Value = Query> {
    (aggregates(), predicates(), group_by()).prop_map(|(aggregates, predicates, group_by)| Query {
        table: "t".into(),
        aggregates,
        predicates,
        group_by,
    })
}

/// Sorted, duplicate-free random row selection over `n` rows (the shape
/// the sampling layer feeds the executor), or `None` for a full scan.
fn selection_for(n: usize, picks: &[bool]) -> Option<Vec<u32>> {
    if picks.is_empty() {
        return None;
    }
    Some(
        (0..n)
            .filter(|&i| picks[i % picks.len()] || i % 7 == 3)
            .map(|i| i as u32)
            .collect(),
    )
}

/// Engine configurations that exercise the interesting schedules: one
/// morsel (sequential fast path), many tiny morsels on one thread (partial
/// combination without parallelism), and many tiny morsels over a real
/// thread pool (any claim order + combination order).
fn configs() -> Vec<BatchConfig> {
    vec![
        BatchConfig::default(),
        BatchConfig {
            morsel_rows: 64,
            threads: 1,
        },
        BatchConfig {
            morsel_rows: 257,
            threads: 3,
        },
        BatchConfig {
            morsel_rows: 64,
            threads: 4,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The batch engine is bit-identical to the reference executor for
    /// every configuration, on full scans and restricted selections alike
    /// — directly, and through the door (`ScanRequest`) both as one `run`
    /// and as `partials` folded by `combine_partials`. A door sample
    /// equals the reference over the same systematic rows, scaled.
    #[test]
    fn batch_matches_reference(
        rt in random_table(),
        q in queries(),
        picks in prop::collection::vec(any::<bool>(), 0..20),
        percent in 1u32..=100,
        seed in any::<u64>(),
    ) {
        let table = rt.build();
        let selection = selection_for(table.num_rows(), &picks);
        let sel = selection.as_deref();
        let expected = execute_reference(&table, &q, sel, ExecOptions::default()).unwrap();
        let fraction = f64::from(percent) / 100.0;
        let sampled = systematic_rows(table.num_rows(), fraction, seed);
        let realized = (sampled.len() as f64 / table.num_rows() as f64).max(f64::MIN_POSITIVE);
        let unscaled = execute_reference(&table, &q, Some(&sampled), ExecOptions::default());
        let expected_sample = scale_result(unscaled.unwrap(), &q, realized);
        for cfg in configs() {
            let got = execute_batch(&table, &q, sel, ExecOptions::default(), &cfg).unwrap();
            prop_assert_eq!(&got.columns, &expected.columns, "cfg {:?}", cfg);
            prop_assert_eq!(&got.rows, &expected.rows, "cfg {:?}", cfg);
            prop_assert_eq!(got.stats, expected.stats, "cfg {:?}", cfg);

            let door = ScanRequest {
                rows: sel.map_or(ScanRows::All, ScanRows::Ids),
                opts: ExecOptions::default(),
                cfg,
            };
            let run = door.run(&table, &q).unwrap();
            let parts = door.partials(&table, &q).unwrap();
            let combined = combine_partials(&table, &q, vec![parts], ExecOptions::default());
            prop_assert_eq!(&run, &combined.unwrap(), "cfg {:?}", cfg);
            prop_assert_eq!(&run.columns, &expected.columns, "cfg {:?}", cfg);
            prop_assert_eq!(&run.rows, &expected.rows, "cfg {:?}", cfg);
            // `All` may be answered from an index, which scans fewer rows.
            prop_assert_eq!(run.stats.rows_matched, expected.stats.rows_matched, "cfg {:?}", cfg);
            if sel.is_some() {
                prop_assert_eq!(run.stats, expected.stats, "cfg {:?}", cfg);
            }

            let sample = ScanRequest { rows: ScanRows::Sample { fraction, seed }, ..door };
            prop_assert_eq!(&sample.run(&table, &q).unwrap(), &expected_sample, "cfg {:?}", cfg);
        }
    }

    /// Two multi-threaded runs with tiny morsels agree with each other:
    /// partials combine in morsel order, so the thread schedule never
    /// leaks into results (float accumulation order included).
    #[test]
    fn parallel_runs_are_deterministic(rt in random_table(), q in queries()) {
        let table = rt.build();
        let cfg = BatchConfig { morsel_rows: 64, threads: 4 };
        let a = execute_batch(&table, &q, None, ExecOptions::default(), &cfg).unwrap();
        let b = execute_batch(&table, &q, None, ExecOptions::default(), &cfg).unwrap();
        prop_assert_eq!(a.rows, b.rows);
        prop_assert_eq!(a.stats, b.stats);
    }

    /// Abort parity: a pre-cancelled token surfaces the same typed error
    /// from both engines, and a one-byte memory cap rejects both with the
    /// same variant.
    #[test]
    fn aborts_match_reference(rt in random_table(), q in queries()) {
        let table = rt.build();

        let cancel = CancelToken::never();
        cancel.cancel();
        let opts = ExecOptions { cancel: Some(&cancel), ..ExecOptions::default() };
        prop_assert_eq!(
            execute_reference(&table, &q, None, opts).unwrap_err(),
            ExecError::Cancelled
        );
        for cfg in configs() {
            prop_assert_eq!(
                execute_batch(&table, &q, None, opts, &cfg).unwrap_err(),
                ExecError::Cancelled,
                "cfg {:?}", cfg
            );
        }

        // A cap of one byte cannot hold even an empty materialized result,
        // so every execution must abort with ResourceExhausted (charge
        // *amounts* may differ between engines; the variant must not).
        let mem = MemBudget::new(1, None);
        let opts = ExecOptions { mem: Some(&mem), ..ExecOptions::default() };
        let r = execute_reference(&table, &q, None, opts).unwrap_err();
        prop_assert!(matches!(r, ExecError::ResourceExhausted { .. }), "{r:?}");
        for cfg in configs() {
            let b = execute_batch(&table, &q, None, opts, &cfg).unwrap_err();
            prop_assert!(
                matches!(b, ExecError::ResourceExhausted { .. }),
                "cfg {:?}: {:?}", cfg, b
            );
        }
    }

    /// Genuine type errors (string literal against a numeric column, an
    /// aggregate over a string column) surface identically from both
    /// engines — the always-false collapse must not swallow them.
    #[test]
    fn type_errors_match_reference(rt in random_table()) {
        let table = rt.build();
        let bad_pred = Query {
            table: "t".into(),
            aggregates: vec![Aggregate::count_star()],
            predicates: vec![Predicate::eq("v", "oops")],
            group_by: vec![],
        };
        let bad_agg = Query {
            table: "t".into(),
            aggregates: vec![Aggregate::over(AggFunc::Sum, "k")],
            predicates: vec![],
            group_by: vec![],
        };
        for q in [bad_pred, bad_agg] {
            let a = execute_reference(&table, &q, None, ExecOptions::default()).unwrap_err();
            let b = execute_batch(
                &table,
                &q,
                None,
                ExecOptions::default(),
                &BatchConfig::default(),
            )
            .unwrap_err();
            prop_assert_eq!(a, b);
        }
    }
}
