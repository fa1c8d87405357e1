//! Canonical query fingerprints.
//!
//! [`query_fingerprint`] hashes a [`Query`] into a `u64` such that two
//! queries that are *semantically equivalent on a given table* hash
//! identically:
//!
//! - predicate order is irrelevant (conjunction commutes), and exact
//!   duplicate conjuncts collapse;
//! - `col = v` and `col in (v)` are the same predicate; IN-list order and
//!   duplicates are irrelevant;
//! - on a string column, literals canonicalize to their **dictionary
//!   code**: `'JFK'` matches by code, while a literal absent from the
//!   dictionary matches nothing. Two absent literals are therefore
//!   equivalent (both always-false) even though they differ textually —
//!   and, crucially, `'jfk'` is *not* equivalent to `'JFK'` when only
//!   `'JFK'` is interned, because dictionary lookups are exact-case;
//! - on an int column, `5` and `5.0` are the same constant (the executor
//!   accepts whole floats) while a fractional float like `1.5` matches
//!   nothing and collapses to always-false; float constants unify through
//!   their bit pattern with `-0.0` normalized to `0.0`;
//! - a conjunct that can never match (empty resolved set) makes the whole
//!   conjunction always-false, so every such query collapses to one
//!   canonical form;
//! - identifiers (table, columns) are case-insensitive, matching the
//!   schema's `index_of`.
//!
//! Aggregates and `GROUP BY` keep their order — output column order is
//! part of the result. Without a table context (`table == None`) the
//! canonicalization is purely syntactic: string literals stay exact-case
//! and nothing resolves to dictionary codes.
//!
//! The result cache keys on this fingerprint (plus fidelity and table
//! epoch); `merge.rs` shares the identifier normalization
//! ([`canon_ident`]) for its grouping signatures.

use crate::ast::{PredOp, Predicate, Query};
use crate::column::ColumnData;
use crate::table::Table;
use crate::value::Value;
use std::hash::Hasher;

/// Token for a conjunct that can never match any row.
const FALSE_TOKEN: &str = "\u{1}false";

/// Canonical (lowercased) form of an identifier, shared with the merge
/// planner's grouping signatures so both layers agree on identity.
pub fn canon_ident(s: &str) -> String {
    s.to_ascii_lowercase()
}

/// `-0.0`-normalized bit pattern of a float constant.
fn norm_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

/// Canonical member string of one literal in a value set, or `None` when
/// the literal contributes nothing (NULLs never match; a string absent
/// from the dictionary matches no row).
fn member(v: &Value, data: Option<&ColumnData>) -> Option<String> {
    if v.is_null() {
        return None;
    }
    match data {
        Some(ColumnData::Str { dict, .. }) => match v {
            Value::Str(s) => dict.code_of(s).map(|code| format!("d{code}")),
            other => Some(format!("raw:{other:?}")), // type error at exec
        },
        Some(ColumnData::Int(_)) => match v {
            Value::Int(i) => Some(format!("i{i}")),
            Value::Float(f) if f.fract() == 0.0 => Some(format!("i{}", *f as i64)),
            // A fractional float can never equal an int value: it
            // contributes nothing, matching the executor's always-false
            // collapse for `intcol = 1.5`.
            Value::Float(_) => None,
            other => Some(format!("raw:{other:?}")),
        },
        Some(ColumnData::Float(_)) => match v.as_f64() {
            Some(f) => Some(format!("f{:016x}", norm_bits(f))),
            None => Some(format!("raw:{v:?}")),
        },
        // No table context: exact-case strings, numerics unified via f64.
        None => match v {
            Value::Str(s) => Some(format!("s{s}")),
            other => other
                .as_f64()
                .map(|f| format!("f{:016x}", norm_bits(f)))
                .or_else(|| Some(format!("raw:{other:?}"))),
        },
    }
}

/// Canonical token for one conjunct.
fn predicate_token(pred: &Predicate, table: Option<&Table>) -> String {
    let col = canon_ident(&pred.column);
    let data = table
        .and_then(|t| t.column_by_name(&pred.column))
        .map(|c| c.data());
    match &pred.op {
        PredOp::Cmp(op, v) => match v.as_f64() {
            Some(f) => format!("{col}\u{1}{}\u{1}{:016x}", op.symbol(), norm_bits(f)),
            None => format!("{col}\u{1}{}\u{1}raw:{v:?}", op.symbol()),
        },
        PredOp::Eq(v) => set_token(&col, std::slice::from_ref(v), data),
        PredOp::In(vs) => set_token(&col, vs, data),
    }
}

/// Canonical token for an `=`/`IN` membership conjunct: the sorted,
/// deduplicated set of canonical members, or [`FALSE_TOKEN`] when the set
/// is empty (the conjunct — and hence the conjunction — never matches).
fn set_token(col: &str, values: &[Value], data: Option<&ColumnData>) -> String {
    let mut members: Vec<String> = values.iter().filter_map(|v| member(v, data)).collect();
    members.sort_unstable();
    members.dedup();
    if members.is_empty() {
        FALSE_TOKEN.to_owned()
    } else {
        format!("{col}\u{1}in\u{1}{}", members.join(","))
    }
}

/// Hash `query` into its canonical fingerprint, resolving literals
/// against `table`'s dictionaries when a table context is given. See the
/// module docs for the exact equivalence relation.
pub fn query_fingerprint(query: &Query, table: Option<&Table>) -> u64 {
    let mut tokens: Vec<String> = query
        .predicates
        .iter()
        .map(|p| predicate_token(p, table))
        .collect();
    // A single always-false conjunct falsifies the whole conjunction:
    // every such query is equivalent (same empty match set on this table).
    if tokens.iter().any(|t| t == FALSE_TOKEN) {
        tokens = vec![FALSE_TOKEN.to_owned()];
    }
    tokens.sort_unstable();
    tokens.dedup();

    let mut h = rustc_hash::FxHasher::default();
    h.write(canon_ident(&query.table).as_bytes());
    h.write_usize(query.aggregates.len());
    for agg in &query.aggregates {
        h.write(agg.func.name().as_bytes());
        match &agg.column {
            Some(c) => h.write(canon_ident(c).as_bytes()),
            None => h.write(b"*"),
        }
        h.write_u8(0xfe);
    }
    h.write_usize(query.group_by.len());
    for g in &query.group_by {
        h.write(canon_ident(g).as_bytes());
        h.write_u8(0xfe);
    }
    h.write_usize(tokens.len());
    for t in &tokens {
        h.write(t.as_bytes());
        h.write_u8(0xfe);
    }
    h.finish()
}

/// Hash of `query`'s conjuncts in *written* order — exactly what
/// [`query_fingerprint`] forgets. Consumers whose output depends on
/// predicate order (candidate generation ranks and tie-breaks in it) key
/// on both.
pub fn predicate_order_fingerprint(query: &Query, table: Option<&Table>) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for pred in &query.predicates {
        h.write(predicate_token(pred, table).as_bytes());
        h.write_u8(0xfe);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Aggregate, CmpOp};
    use crate::schema::Schema;
    use crate::value::ColumnType;

    fn table() -> Table {
        let schema = Schema::new([
            ("origin", ColumnType::Str),
            ("delay", ColumnType::Int),
            ("dist", ColumnType::Float),
        ]);
        let mut b = Table::builder("flights", schema);
        for (o, d, x) in [("JFK", 10i64, 1.5), ("LGA", 20, 2.5)] {
            b.push_row([Value::from(o), Value::from(d), Value::from(x)]);
        }
        b.build()
    }

    fn base() -> Query {
        Query::scalar("flights", Aggregate::count_star())
    }

    #[test]
    fn predicate_order_is_irrelevant() {
        let t = table();
        let a = base().with_eq("origin", "JFK").with_eq("delay", 10i64);
        let b = base().with_eq("delay", 10i64).with_eq("origin", "JFK");
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );
        assert_eq!(query_fingerprint(&a, None), query_fingerprint(&b, None));
    }

    #[test]
    fn duplicate_conjuncts_collapse() {
        let t = table();
        let a = base().with_eq("origin", "JFK").with_eq("origin", "JFK");
        let b = base().with_eq("origin", "JFK");
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );
    }

    #[test]
    fn eq_is_singleton_in_and_lists_are_sets() {
        let t = table();
        let a = base().with_eq("origin", "JFK");
        let mut b = base();
        b.predicates
            .push(Predicate::is_in("origin", vec!["JFK".into()]));
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );

        let mut c = base();
        c.predicates.push(Predicate::is_in(
            "origin",
            vec!["LGA".into(), "JFK".into(), "JFK".into()],
        ));
        let mut d = base();
        d.predicates
            .push(Predicate::is_in("origin", vec!["JFK".into(), "LGA".into()]));
        assert_eq!(
            query_fingerprint(&c, Some(&t)),
            query_fingerprint(&d, Some(&t))
        );
    }

    #[test]
    fn dictionary_decides_literal_equivalence() {
        let t = table();
        // Two literals absent from the dictionary: both always-false.
        let a = base().with_eq("origin", "XXX");
        let b = base().with_eq("origin", "YYY");
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );
        // Lowercase 'jfk' is absent (dictionary lookups are exact-case),
        // so it is NOT equivalent to interned 'JFK'.
        let lower = base().with_eq("origin", "jfk");
        let upper = base().with_eq("origin", "JFK");
        assert_ne!(
            query_fingerprint(&lower, Some(&t)),
            query_fingerprint(&upper, Some(&t))
        );
        // But without a table context the two absent literals differ.
        assert_ne!(query_fingerprint(&a, None), query_fingerprint(&b, None));
    }

    #[test]
    fn int_accepts_whole_float_constants() {
        let t = table();
        let a = base().with_eq("delay", 10i64);
        let b = base().with_eq("delay", 10.0f64);
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );
    }

    #[test]
    fn fractional_float_on_int_column_collapses_to_false() {
        let t = table();
        // `delay = 1.5` and `delay = 2.5` both match nothing: same
        // canonical always-false form — and the same form as a string
        // literal absent from a dictionary.
        let a = base().with_eq("delay", 1.5f64);
        let b = base().with_eq("delay", 2.5f64);
        let absent = base().with_eq("origin", "XXX");
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&absent, Some(&t))
        );
        // A satisfiable query must not collide with the false class, and
        // mixing a fractional member into an IN list just drops it.
        let whole = base().with_eq("delay", 10.0f64);
        assert_ne!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&whole, Some(&t))
        );
        let mut mixed = base();
        mixed.predicates.push(Predicate::is_in(
            "delay",
            vec![Value::Float(10.5), Value::Int(10)],
        ));
        assert_eq!(
            query_fingerprint(&mixed, Some(&t)),
            query_fingerprint(&base().with_eq("delay", 10i64), Some(&t))
        );
    }

    #[test]
    fn identifier_case_is_irrelevant() {
        let t = table();
        let a = base().with_eq("ORIGIN", "JFK");
        let b = base().with_eq("origin", "JFK");
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );
        let mut c = base();
        c.table = "FLIGHTS".into();
        let c = c.with_eq("origin", "JFK");
        assert_eq!(
            query_fingerprint(&b, Some(&t)),
            query_fingerprint(&c, Some(&t))
        );
    }

    #[test]
    fn semantics_that_differ_hash_differently() {
        let t = table();
        let count = base().with_eq("origin", "JFK");
        let mut avg = Query::scalar(
            "flights",
            Aggregate::over(crate::ast::AggFunc::Avg, "delay"),
        );
        avg.predicates.push(Predicate::eq("origin", "JFK"));
        assert_ne!(
            query_fingerprint(&count, Some(&t)),
            query_fingerprint(&avg, Some(&t))
        );

        let lt = {
            let mut q = base();
            q.predicates.push(Predicate::cmp("delay", CmpOp::Lt, 15i64));
            q
        };
        let gt = {
            let mut q = base();
            q.predicates.push(Predicate::cmp("delay", CmpOp::Gt, 15i64));
            q
        };
        assert_ne!(
            query_fingerprint(&lt, Some(&t)),
            query_fingerprint(&gt, Some(&t))
        );

        let grouped = {
            let mut q = base();
            q.group_by.push("origin".into());
            q
        };
        assert_ne!(
            query_fingerprint(&base(), Some(&t)),
            query_fingerprint(&grouped, Some(&t))
        );
    }

    #[test]
    fn negative_zero_normalizes() {
        let t = table();
        let a = {
            let mut q = base();
            q.predicates.push(Predicate::cmp("dist", CmpOp::Gt, 0.0f64));
            q
        };
        let b = {
            let mut q = base();
            q.predicates
                .push(Predicate::cmp("dist", CmpOp::Gt, -0.0f64));
            q
        };
        assert_eq!(
            query_fingerprint(&a, Some(&t)),
            query_fingerprint(&b, Some(&t))
        );
    }
}
