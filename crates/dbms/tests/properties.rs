//! Property-based tests of the execution engine: the reference executor
//! against the independent row model, merged against separate execution,
//! sampling invariants, fingerprints, SQL round trips and adversarial
//! selections, over the shared random tables and queries of
//! `muve-testkit`.

use muve_dbms::{
    execute, execute_reference, AggFunc, Aggregate, ExecOptions, Predicate, Query, Value,
};
use muve_testkit::{candidate_queries, row_model, seeded_table as table, selection};
use muve_testkit::{Family, Registry, Scan};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reference executor equals the row model — NULL GROUP BY keys,
    /// all five aggregates, selections — so a bug every path shares with
    /// the reference (its grouping, its accumulators) still shows.
    #[test]
    fn aggregates_match_reference(seed in 0..u64::MAX) {
        let (mut rng, t) = table(seed);
        let ids = selection(&mut rng, t.num_rows(), false);
        for q in candidate_queries(&mut rng, 4) {
            let got = execute_reference(&t, &q, ids.as_deref(), ExecOptions::default());
            prop_assert_eq!(got, Ok(row_model(&t, &q, ids.as_deref())), "{:?}", q);
        }
    }

    /// Merged execution answers every member as the reference does, and
    /// aborts as it does.
    #[test]
    fn merged_equals_separate(seed in 0..u64::MAX, n in 1usize..8) {
        let (mut rng, t) = table(seed);
        let queries = candidate_queries(&mut rng, n);
        let reg = Registry::new(&t, &[Family::Merged]);
        reg.check_answers(&queries, &Scan::all());
        reg.check_aborts(&queries, &Scan::all());
    }

    #[test]
    fn group_by_partitions_count(seed in 0..u64::MAX) {
        let (_, t) = table(seed);
        let q = muve_dbms::parse("select count(*) from t group by g").unwrap();
        let r = execute(&t, &q).unwrap();
        let total: f64 = r.rows.iter().map(|row| row[1].as_f64().unwrap()).sum();
        prop_assert_eq!(total as usize, t.num_rows());
    }

    #[test]
    fn sampling_never_exceeds_population(seed in 0..u64::MAX, fraction in 0.0f64..1.0, sample_seed in 0u64..100) {
        let (_, t) = table(seed);
        let rows = muve_dbms::bernoulli_rows(t.num_rows(), fraction, sample_seed);
        prop_assert!(rows.len() <= t.num_rows());
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
    fn cost_estimates_monotone_in_selectivity(seed in 0..u64::MAX) {
        let (_, t) = table(seed);
        let params = muve_dbms::CostParams::default();
        let narrow = muve_dbms::parse("select count(*) from t where k = 'k0' and g = 'g0'").unwrap();
        let wide = muve_dbms::parse("select count(*) from t where k = 'k0'").unwrap();
        let en = muve_dbms::estimate(&t, &narrow, &params);
        let ew = muve_dbms::estimate(&t, &wide, &params);
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
        (
            prop::sample::select(AggFunc::ALL.to_vec()),
            prop::collection::vec(0u8..8, 0..4),
            0u8..2,
        )
            .prop_map(|(func, keys, grouped)| Query {
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
        fn equivalent_rewrites_share_fingerprint(seed in 0..u64::MAX, q in small_queries()) {
            let (_, table) = table(seed);
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
            seed in 0..u64::MAX,
            a in small_queries(),
            b in small_queries(),
        ) {
            let (_, table) = table(seed);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Property: every path taking a row-id selection either rejects
        /// an out-of-range id with the typed `SelectionOutOfBounds` naming
        /// the first offender, as the reference does, or agrees with the
        /// reference bit for bit. No path may panic or skip bad ids.
        #[test]
        fn adversarial_selections_fail_closed(seed in 0..u64::MAX) {
            let (mut rng, t) = table(seed);
            let ids = selection(&mut rng, t.num_rows(), true).unwrap();
            let queries = candidate_queries(&mut rng, 2);
            Registry::new(&t, &[Family::Batch, Family::Door]).check_selection(&queries, &ids);
        }
    }
}
