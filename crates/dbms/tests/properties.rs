//! Property-based tests of the execution engine: aggregate correctness
//! against a naive reference, merge/separate equivalence, and sampling
//! invariants, over randomly generated tables and queries.

use muve_dbms::{
    execute, execute_merged_with_opts, plan_merged, AggFunc, Aggregate, ColumnType, ExecOptions,
    Predicate, Query, Schema, Table, Value,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomTable {
    keys: Vec<u8>,
    groups: Vec<u8>,
    values: Vec<i32>,
}

impl RandomTable {
    fn build(&self) -> Table {
        let schema = Schema::new([
            ("k", ColumnType::Str),
            ("g", ColumnType::Str),
            ("v", ColumnType::Int),
        ]);
        let mut b = Table::builder("t", schema);
        for i in 0..self.keys.len() {
            b.push_row([
                Value::from(format!("k{}", self.keys[i])),
                Value::from(format!("g{}", self.groups[i])),
                Value::from(i64::from(self.values[i])),
            ]);
        }
        b.build()
    }
}

fn random_table() -> impl Strategy<Value = RandomTable> {
    (1usize..60).prop_flat_map(|n| {
        (
            prop::collection::vec(0u8..5, n),
            prop::collection::vec(0u8..3, n),
            prop::collection::vec(-100i32..100, n),
        )
            .prop_map(|(keys, groups, values)| RandomTable {
                keys,
                groups,
                values,
            })
    })
}

fn agg_query(func: AggFunc, key: u8) -> Query {
    Query {
        table: "t".into(),
        aggregates: vec![Aggregate::over(func, "v")],
        predicates: vec![Predicate::eq("k", format!("k{key}"))],
        group_by: vec![],
    }
}

/// Naive reference implementation.
fn reference(rt: &RandomTable, func: AggFunc, key: u8) -> Option<f64> {
    let vals: Vec<f64> = rt
        .keys
        .iter()
        .zip(&rt.values)
        .filter(|(k, _)| **k == key)
        .map(|(_, v)| f64::from(*v))
        .collect();
    match func {
        AggFunc::Count => Some(vals.len() as f64),
        _ if vals.is_empty() => None,
        AggFunc::Sum => Some(vals.iter().sum()),
        AggFunc::Avg => Some(vals.iter().sum::<f64>() / vals.len() as f64),
        AggFunc::Min => vals.iter().cloned().reduce(f64::min),
        AggFunc::Max => vals.iter().cloned().reduce(f64::max),
    }
}

fn funcs() -> impl Strategy<Value = AggFunc> {
    prop::sample::select(vec![
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn aggregates_match_reference(rt in random_table(), func in funcs(), key in 0u8..6) {
        let table = rt.build();
        let q = agg_query(func, key);
        let got = execute(&table, &q).unwrap().scalar();
        let expected = reference(&rt, func, key);
        match (got, expected) {
            (Some(g), Some(e)) => prop_assert!((g - e).abs() < 1e-9, "{} vs {}", g, e),
            (g, e) => prop_assert_eq!(g, e),
        }
    }

    #[test]
    fn merged_equals_separate(rt in random_table(), func in funcs(), keys in prop::collection::vec(0u8..6, 1..8)) {
        let table = rt.build();
        let queries: Vec<Query> = keys.iter().map(|&k| agg_query(func, k)).collect();
        let mut merged = vec![None; queries.len()];
        for g in plan_merged(&queries) {
            for (idx, v) in execute_merged_with_opts(&table, &g, ExecOptions::default()).unwrap().results {
                merged[idx] = v;
            }
        }
        for (i, q) in queries.iter().enumerate() {
            let direct = execute(&table, q).unwrap().scalar();
            // Counts of empty groups come back as 0 either way.
            let direct = if q.aggregates[0].func == AggFunc::Count { direct.or(Some(0.0)) } else { direct };
            match (merged[i], direct) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9, "q{}: {} vs {}", i, a, b),
                (a, b) => prop_assert_eq!(a, b, "query {}", i),
            }
        }
    }

    #[test]
    fn group_by_partitions_count(rt in random_table()) {
        let table = rt.build();
        let q = muve_dbms::parse("select count(*) from t group by g").unwrap();
        let r = execute(&table, &q).unwrap();
        let total: f64 = r.rows.iter().map(|row| row[1].as_f64().unwrap()).sum();
        prop_assert_eq!(total as usize, rt.keys.len());
    }

    #[test]
    fn sampling_never_exceeds_population(rt in random_table(), fraction in 0.0f64..1.0, seed in 0u64..100) {
        let table = rt.build();
        let rows = muve_dbms::bernoulli_rows(table.num_rows(), fraction, seed);
        prop_assert!(rows.len() <= table.num_rows());
        // Strictly increasing row ids.
        for w in rows.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Systematic sampling must never emit a duplicate row id: the sample
    /// executor counts every listed row, so a duplicate double-counts it
    /// and biases scaled COUNT/SUM estimates upward (the old stratum-edge
    /// clamp did exactly that).
    #[test]
    fn systematic_rows_sorted_and_duplicate_free(
        n_rows in 0usize..50_000,
        fraction in 0.0f64..1.2,
        seed in any::<u64>(),
    ) {
        let rows = muve_dbms::systematic_rows(n_rows, fraction, seed);
        prop_assert!(rows.len() <= n_rows);
        for w in rows.windows(2) {
            prop_assert!(w[0] < w[1], "duplicate or unsorted ids: {} then {}", w[0], w[1]);
        }
        if let Some(&last) = rows.last() {
            prop_assert!((last as usize) < n_rows);
        }
        // Sample size stays close to target: strictly-increasing repair
        // must not silently shrink the sample.
        let k = ((n_rows as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        if k > 0 && k < n_rows {
            prop_assert!(rows.len() + 2 >= k, "{} of {} requested", rows.len(), k);
        }
    }

    #[test]
    fn cost_estimates_monotone_in_selectivity(rt in random_table()) {
        let table = rt.build();
        let params = muve_dbms::CostParams::default();
        let narrow = muve_dbms::parse("select count(*) from t where k = 'k0' and g = 'g0'").unwrap();
        let wide = muve_dbms::parse("select count(*) from t where k = 'k0'").unwrap();
        let en = muve_dbms::estimate(&table, &narrow, &params);
        let ew = muve_dbms::estimate(&table, &wide, &params);
        prop_assert!(en.est_rows <= ew.est_rows + 1e-9);
    }
}

mod fingerprint_props {
    use super::*;
    use muve_dbms::{query_fingerprint, PredOp};

    /// Random single-table query drawn from a deliberately small space so
    /// that semantically equivalent pairs (and always-false collapses onto
    /// absent dictionary literals) occur often.
    fn small_queries() -> impl Strategy<Value = Query> {
        (funcs(), prop::collection::vec(0u8..8, 0..4), 0u8..2).prop_map(|(func, keys, grouped)| {
            Query {
                table: "t".into(),
                aggregates: vec![if func == AggFunc::Count {
                    Aggregate::count_star()
                } else {
                    Aggregate::over(func, "v")
                }],
                predicates: if keys.is_empty() {
                    vec![]
                } else {
                    vec![Predicate::is_in(
                        "k",
                        keys.iter().map(|k| Value::from(format!("k{k}"))).collect(),
                    )]
                },
                group_by: if grouped == 1 {
                    vec!["g".into()]
                } else {
                    vec![]
                },
            }
        })
    }

    /// A semantics-preserving rewrite: reversed predicate order, a
    /// duplicated conjunct, `=` rewritten to a singleton `IN`, IN-lists
    /// reversed with a duplicated member, and identifiers upper-cased.
    fn scramble(q: &Query) -> Query {
        let mut predicates: Vec<Predicate> = q
            .predicates
            .iter()
            .rev()
            .cloned()
            .map(|p| Predicate {
                column: p.column.to_ascii_uppercase(),
                op: match p.op {
                    PredOp::Eq(v) => PredOp::In(vec![v]),
                    PredOp::In(mut vs) => {
                        vs.reverse();
                        if let Some(first) = vs.first().cloned() {
                            vs.push(first);
                        }
                        PredOp::In(vs)
                    }
                    other => other,
                },
            })
            .collect();
        if let Some(p) = predicates.first().cloned() {
            predicates.push(p);
        }
        Query {
            table: q.table.to_ascii_uppercase(),
            aggregates: q.aggregates.clone(),
            predicates,
            group_by: q.group_by.iter().map(|g| g.to_ascii_uppercase()).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Equivalent ASTs — predicate permutation, duplicate conjuncts,
        /// `=` vs singleton `IN`, IN-set order/duplicates, identifier case
        /// — fingerprint identically, with and without table context.
        #[test]
        fn equivalent_rewrites_share_fingerprint(rt in random_table(), q in small_queries()) {
            let table = rt.build();
            let scrambled = scramble(&q);
            prop_assert_eq!(
                query_fingerprint(&q, Some(&table)),
                query_fingerprint(&scrambled, Some(&table))
            );
            prop_assert_eq!(query_fingerprint(&q, None), query_fingerprint(&scrambled, None));
        }

        /// Soundness of cache keying: whenever two random queries share a
        /// fingerprint on a table, executing both yields identical results.
        /// A collision between semantically different queries would make
        /// this fail, so it doubles as the "non-equivalent queries hash
        /// differently" check.
        #[test]
        fn equal_fingerprints_imply_equal_results(
            rt in random_table(),
            a in small_queries(),
            b in small_queries(),
        ) {
            let table = rt.build();
            if query_fingerprint(&a, Some(&table)) == query_fingerprint(&b, Some(&table)) {
                let ra = execute(&table, &a).unwrap();
                let rb = execute(&table, &b).unwrap();
                prop_assert_eq!(&ra.columns, &rb.columns);
                prop_assert_eq!(&ra.rows, &rb.rows);
            }
        }
    }
}

mod sql_roundtrip {
    use super::*;
    use muve_dbms::{parse, CmpOp, PredOp};

    fn values() -> impl Strategy<Value = Value> {
        prop_oneof![
            any::<i64>().prop_map(Value::Int),
            (-1e9f64..1e9).prop_map(|f| Value::Float((f * 100.0).round() / 100.0)),
            "[a-zA-Z '0-9_]{0,12}".prop_map(Value::Str),
        ]
    }

    fn idents() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,10}"
    }

    fn predicates() -> impl Strategy<Value = Predicate> {
        (
            idents(),
            prop_oneof![
                values().prop_map(PredOp::Eq),
                prop::collection::vec(values(), 1..4).prop_map(PredOp::In),
                (prop::sample::select(CmpOp::ALL.to_vec()), any::<i64>())
                    .prop_map(|(op, v)| PredOp::Cmp(op, Value::Int(v))),
            ],
        )
            .prop_map(|(column, op)| Predicate { column, op })
    }

    fn queries() -> impl Strategy<Value = Query> {
        (
            idents(),
            prop::collection::vec(
                (prop::sample::select(AggFunc::ALL.to_vec()), idents()),
                1..4,
            ),
            prop::collection::vec(predicates(), 0..4),
            prop::collection::vec(idents(), 0..3),
        )
            .prop_map(|(table, aggs, predicates, group_by)| Query {
                table,
                aggregates: aggs
                    .into_iter()
                    .map(|(f, c)| {
                        if f == AggFunc::Count {
                            Aggregate::count_star()
                        } else {
                            Aggregate::over(f, c)
                        }
                    })
                    .collect(),
                predicates,
                group_by,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any AST the builders can produce renders to SQL that parses back
        /// to the identical AST.
        #[test]
        fn display_parse_roundtrip(q in queries()) {
            let sql = q.to_sql();
            let parsed = parse(&sql).expect(&sql);
            prop_assert_eq!(parsed, q, "{}", sql);
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn parser_total(input in "\\PC{0,80}") {
            let _ = parse(&input);
        }

        /// The parser never panics on arbitrary byte strings either —
        /// control bytes, NULs and invalid UTF-8 (lossily decoded), not
        /// just printable characters.
        #[test]
        fn parser_total_bytes(bytes in prop::collection::vec(any::<u8>(), 0..120)) {
            let input = String::from_utf8_lossy(&bytes);
            let _ = parse(&input);
        }

        /// SQL-shaped prefixes with arbitrary byte tails: exercises deeper
        /// parser states than pure noise reaches.
        #[test]
        fn parser_total_sql_prefix(bytes in prop::collection::vec(any::<u8>(), 0..60)) {
            let input = format!("select count(*) from t where {}", String::from_utf8_lossy(&bytes));
            let _ = parse(&input);
        }
    }
}

mod selection_props {
    use super::*;
    use muve_dbms::{
        combine_partials, execute_batch, execute_reference, BatchConfig, ExecError, ExecOptions,
        ScanRequest, ScanRows,
    };

    /// Adversarial row-id selections: mostly valid ids with occasional
    /// out-of-range ones (including `u32::MAX`) spliced in anywhere.
    fn ids(n_rows: usize) -> impl Strategy<Value = Vec<u32>> {
        let n = n_rows as u32;
        // Mostly-valid ids; the vendored prop_oneof is unweighted, so the
        // valid range is repeated to keep all-valid selections common.
        prop::collection::vec(
            prop_oneof![
                0..n.max(1),
                0..n.max(1),
                0..n.max(1),
                n..n.saturating_add(50).max(1),
                Just(u32::MAX),
            ],
            0..40,
        )
    }

    /// The first id at or past `rows`, in slice order — the one every
    /// entry point must report.
    fn first_bad(ids: &[u32], rows: usize) -> Option<u32> {
        ids.iter().copied().find(|&id| id as usize >= rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Property: every execution entry point taking a `Rows::Ids`
        /// selection either (a) rejects an out-of-range id with the same
        /// typed `SelectionOutOfBounds` error naming the first offender,
        /// or (b) agrees bit-for-bit with the reference executor. No
        /// entry point may panic or silently skip bad ids.
        #[test]
        fn adversarial_selections_fail_closed(rt in random_table(), sel in (1usize..60).prop_flat_map(ids)) {
            let table = rt.build();
            let rows = table.num_rows();
            let q = muve_dbms::parse("select count(*), sum(v) from t where k = 'k1' group by g").unwrap();

            let reference = execute_reference(&table, &q, Some(&sel), ExecOptions::default());
            let batch = execute_batch(
                &table, &q, Some(&sel), ExecOptions::default(), &BatchConfig::default(),
            );
            let door = ScanRequest::new(ScanRows::Ids(&sel), ExecOptions::default());
            let run = door.run(&table, &q);
            let partials = door
                .partials(&table, &q)
                .and_then(|p| combine_partials(&table, &q, vec![p], ExecOptions::default()));

            match first_bad(&sel, rows) {
                Some(bad) => {
                    for (label, got) in [
                        ("reference", &reference),
                        ("batch", &batch),
                        ("door run", &run),
                        ("door partials", &partials),
                    ] {
                        match got {
                            Err(ExecError::SelectionOutOfBounds { id, rows: r }) => {
                                prop_assert_eq!(*id, bad, "{}: wrong offender", label);
                                prop_assert_eq!(*r, rows, "{}: wrong row count", label);
                            }
                            other => prop_assert!(false, "{}: expected SelectionOutOfBounds, got {:?}", label, other),
                        }
                    }
                }
                None => {
                    let want = reference.unwrap();
                    let batch = batch.unwrap();
                    prop_assert_eq!(&want.columns, &batch.columns);
                    prop_assert_eq!(&want.rows, &batch.rows);
                    let run = run.unwrap();
                    prop_assert_eq!(&want.rows, &run.rows);
                    let combined = partials.unwrap();
                    prop_assert_eq!(&want.rows, &combined.rows);
                }
            }
        }
    }
}
