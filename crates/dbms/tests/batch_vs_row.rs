//! Differential testing of the morsel-driven batch engine and the door
//! (`ScanRequest`) against the row-at-a-time reference executor
//! (`execute_reference`), through `muve-testkit`'s path registry.
//!
//! The reference path is the executable specification: for every random
//! table / query / selection and every morsel size the batch paths must
//! produce a **bit-identical** `ResultSet` — same columns, rows and scan
//! stats — including NULL-bearing columns and GROUP BY keys, restricted
//! selections, and tiny morsels that force many partial accumulators.
//! Floats are dyadic rationals, so sums are exact in any order.

use muve_dbms::{AggFunc, Aggregate, Predicate, Query};
use muve_testkit::{candidate_queries, seeded_table, selection, Family, Registry, Scan};
use proptest::prelude::*;
use rand::rngs::StdRng;

/// The batch and door paths over a seeded random table, the rng that drew
/// it and its row count.
fn registry(seed: u64) -> (StdRng, Registry, usize) {
    let (rng, t) = seeded_table(seed);
    (
        rng,
        Registry::new(&t, &[Family::Batch, Family::Door]),
        t.num_rows(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every batch and door path equals the reference at every morsel
    /// size, on full scans and restricted selections alike; a door sample
    /// equals the reference over the same systematic rows, scaled.
    #[test]
    fn batch_matches_reference(seed in 0..u64::MAX, percent in 1u32..=100, sample_seed in any::<u64>()) {
        let (mut rng, reg, rows) = registry(seed);
        let ids = selection(&mut rng, rows, false);
        let queries = candidate_queries(&mut rng, 2);
        let scan = Scan { ids: ids.as_deref(), fraction: f64::from(percent) / 100.0, seed: sample_seed };
        reg.check_answers(&queries, &scan);
    }

    /// Abort parity: a pre-cancelled token and a one-byte memory cap abort
    /// every path with the reference's typed error.
    #[test]
    fn aborts_match_reference(seed in 0..u64::MAX) {
        let (mut rng, reg, rows) = registry(seed);
        let ids = selection(&mut rng, rows, false);
        let queries = candidate_queries(&mut rng, 2);
        reg.check_aborts(&queries, &Scan { ids: ids.as_deref(), ..Scan::all() });
    }

    /// Genuine type errors (string literal against a numeric column, an
    /// aggregate over a string column) surface identically from every
    /// path — the always-false collapse must not swallow them.
    #[test]
    fn type_errors_match_reference(seed in 0..u64::MAX) {
        let (_, reg, _) = registry(seed);
        let query = |aggregate, predicates| Query {
            table: "t".into(),
            aggregates: vec![aggregate],
            predicates,
            group_by: vec![],
        };
        let bad = [
            query(Aggregate::count_star(), vec![Predicate::eq("v", "oops")]),
            query(Aggregate::over(AggFunc::Sum, "k"), vec![]),
        ];
        reg.check_answers(&bad, &Scan::all());
    }
}
