//! Rule-based text-to-SQL for single-table aggregation queries.
//!
//! The paper uses SQLova, a neural text-to-SQL model, to obtain the *most
//! likely* query before candidate generation takes over (§3). This module
//! is the deterministic substitute: it recognizes aggregate keywords, binds
//! column mentions by (multi-word) name, and binds constants by looking
//! probe tokens up in the table's string dictionaries. Everything MUVE
//! contributes happens downstream of this translation, so a deterministic
//! front-end preserves the paper's pipeline shape while staying
//! reproducible.

use muve_dbms::{AggFunc, Aggregate, CmpOp, ColumnType, Predicate, Query, Table, Value};
use rustc_hash::FxHashMap;

/// Why translation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The utterance contained no tokens.
    Empty,
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Empty => write!(f, "empty utterance"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translate a natural-language utterance into the most likely SQL query
/// over `table`.
///
/// # Examples
/// ```
/// use muve_dbms::{ColumnType, Schema, Table, Value};
/// use muve_nlq::translate;
/// let schema = Schema::new([
///     ("borough", ColumnType::Str),
///     ("complaint_type", ColumnType::Str),
///     ("calls", ColumnType::Int),
/// ]);
/// let mut b = Table::builder("requests", schema);
/// b.push_row([Value::from("Brooklyn"), Value::from("noise"), Value::from(3i64)]);
/// let t = b.build();
/// let q = translate("total calls in brooklyn for noise complaints", &t).unwrap();
/// assert_eq!(
///     q.to_sql(),
///     "select sum(calls) from requests where borough = 'Brooklyn' and complaint_type = 'noise'"
/// );
/// ```
pub fn translate(utterance: &str, table: &Table) -> Result<Query, TranslateError> {
    let tokens = tokenize(utterance)?;
    Ok(interpret(&Phrases::new(table), &tokens))
}

/// Split an utterance into lowercase word tokens; an utterance without any
/// is [`TranslateError::Empty`].
pub(crate) fn tokenize(utterance: &str) -> Result<Vec<String>, TranslateError> {
    let tokens: Vec<String> = utterance
        .split(|c: char| !c.is_alphanumeric() && c != '\'')
        .filter(|w| !w.is_empty())
        .map(|w| w.to_ascii_lowercase())
        .collect();
    if tokens.is_empty() {
        return Err(TranslateError::Empty);
    }
    Ok(tokens)
}

/// What [`translate`] matches an utterance against: multi-word lookup
/// tables of column names (underscores split) and of the dictionary values
/// of categorical columns, plus the table name and numeric columns the
/// query is built from. Only the table's contents decide them, so a
/// [`Lexicon`](crate::Lexicon) builds them once per table.
#[derive(Debug)]
pub(crate) struct Phrases {
    table: String,
    /// Numeric column names in schema order (the aggregate fallback).
    numeric: Vec<String>,
    numeric_cols: FxHashMap<Vec<String>, String>,
    categorical_cols: FxHashMap<Vec<String>, String>,
    /// Dictionary value words → (owning column, value); the first column
    /// to hold a spelling keeps it.
    constants: FxHashMap<Vec<String>, (String, String)>,
    max_ngram: usize,
}

impl Phrases {
    /// Build the lookup tables over every column name and dictionary entry.
    pub(crate) fn new(table: &Table) -> Phrases {
        let mut numeric: Vec<String> = Vec::new();
        let mut numeric_cols: FxHashMap<Vec<String>, String> = FxHashMap::default();
        let mut categorical_cols: FxHashMap<Vec<String>, String> = FxHashMap::default();
        let mut constants: FxHashMap<Vec<String>, (String, String)> = FxHashMap::default();
        let mut max_ngram = 1usize;
        for (i, def) in table.schema().columns().iter().enumerate() {
            let words: Vec<String> = def
                .name
                .split('_')
                .map(|w| w.to_ascii_lowercase())
                .collect();
            max_ngram = max_ngram.max(words.len());
            match def.ty {
                ColumnType::Int | ColumnType::Float => {
                    numeric.push(def.name.clone());
                    numeric_cols.insert(words, def.name.clone());
                }
                ColumnType::Str => {
                    categorical_cols.insert(words, def.name.clone());
                    if let Some(dict) = table.column(i).dictionary() {
                        for v in dict.entries() {
                            let words: Vec<String> = v
                                .split(|c: char| !c.is_alphanumeric())
                                .filter(|w| !w.is_empty())
                                .map(|w| w.to_ascii_lowercase())
                                .collect();
                            if words.is_empty() {
                                continue;
                            }
                            max_ngram = max_ngram.max(words.len());
                            constants
                                .entry(words)
                                .or_insert_with(|| (def.name.clone(), v.clone()));
                        }
                    }
                }
            }
        }
        Phrases {
            table: table.name().to_owned(),
            numeric,
            numeric_cols,
            categorical_cols,
            constants,
            max_ngram,
        }
    }
}

/// The most likely query for a non-empty token sequence, matched against
/// `phrases`.
pub(crate) fn interpret(phrases: &Phrases, tokens: &[String]) -> Query {
    let func = detect_aggregate(tokens);

    // Greedy longest-match scan over token n-grams.
    #[derive(Debug)]
    #[allow(dead_code)] // CategoricalCol keeps its name for diagnostics
    enum Mention {
        NumericCol(String),
        CategoricalCol(String),
        Constant(String, String),
        Number(f64),
    }
    let mut mentions: Vec<(usize, Mention)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let mut matched = 0usize;
        for len in (1..=phrases.max_ngram.min(tokens.len() - i)).rev() {
            let gram = &tokens[i..i + len];
            if let Some((col, v)) = phrases.constants.get(gram) {
                mentions.push((i, Mention::Constant(col.clone(), v.clone())));
                matched = len;
                break;
            }
            if let Some(col) = phrases.numeric_cols.get(gram) {
                mentions.push((i, Mention::NumericCol(col.clone())));
                matched = len;
                break;
            }
            if let Some(col) = phrases.categorical_cols.get(gram) {
                mentions.push((i, Mention::CategoricalCol(col.clone())));
                matched = len;
                break;
            }
        }
        if matched == 0 {
            if let Ok(n) = tokens[i].parse::<f64>() {
                mentions.push((i, Mention::Number(n)));
            }
            i += 1;
        } else {
            i += matched;
        }
    }

    // Aggregation column: first numeric mention; Sum/Avg/Min/Max need one.
    let agg_col = mentions.iter().find_map(|(_, m)| match m {
        Mention::NumericCol(c) => Some(c.clone()),
        _ => None,
    });
    let aggregate = match (func, agg_col) {
        // Counts are always row counts in MUVE's query class; numeric
        // mentions next to "count" are predicate material instead.
        (AggFunc::Count, _) => Aggregate::count_star(),
        (f, Some(c)) => Aggregate::over(f, c),
        (f, None) => {
            // No full column mention: fall back to the numeric column whose
            // name shares the most tokens with the utterance (a half-heard
            // "proposed stories" still selects proposed_stories), breaking
            // ties towards schema order.
            let best_numeric = phrases
                .numeric
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let overlap = name
                        .split('_')
                        .filter(|w| tokens.iter().any(|t| t.eq_ignore_ascii_case(w)))
                        .count();
                    (name, overlap, i)
                })
                // Highest overlap; ties break towards schema order.
                .min_by_key(|(_, overlap, i)| (std::cmp::Reverse(*overlap), *i))
                .map(|(name, _, _)| name.clone());
            match best_numeric {
                Some(c) => Aggregate::over(f, c),
                None => Aggregate::count_star(),
            }
        }
    };

    // Predicates, in two passes. Pass 1: column-anchored constants — a
    // categorical column mention followed closely by a constant belonging
    // to that column ("region is west") binds with priority; this outranks
    // stray constant mentions on the same column elsewhere in a noisy
    // transcript. Pass 2: remaining free-floating constants bind to their
    // owning column if it is still unpredicated; numeric columns followed
    // by a number bind an equality or comparison.
    let mut predicates: Vec<Predicate> = Vec::new();
    let mut consumed_constants: Vec<usize> = Vec::new();
    for (pos, m) in &mentions {
        let Mention::CategoricalCol(col) = m else {
            continue;
        };
        if predicates
            .iter()
            .any(|p| p.column.eq_ignore_ascii_case(col))
        {
            continue;
        }
        if let Some((cpos, v)) = mentions.iter().find_map(|(p2, m2)| match m2 {
            Mention::Constant(c2, v2)
                if *p2 > *pos && *p2 <= *pos + 3 && c2.eq_ignore_ascii_case(col) =>
            {
                Some((*p2, v2.clone()))
            }
            _ => None,
        }) {
            consumed_constants.push(cpos);
            predicates.push(Predicate::eq(col.clone(), v.as_str()));
        }
    }
    let mut consumed_numbers: Vec<usize> = Vec::new();
    for (pos, m) in &mentions {
        match m {
            Mention::Constant(col, v)
                if !consumed_constants.contains(pos)
                    && !predicates.iter().any(|p| p.column.eq_ignore_ascii_case(col)) => {
                    predicates.push(Predicate::eq(col.clone(), v.as_str()));
                }
            Mention::NumericCol(col)
                // "month is 5" / "month 5" patterns; skip the aggregation
                // column itself when it was consumed by the aggregate.
                if Some(col.as_str()) != aggregate.column.as_deref() => {
                    if let Some((npos, n)) = mentions.iter().find_map(|(p2, m2)| match m2 {
                        Mention::Number(n) if *p2 > *pos && *p2 <= *pos + 5 => Some((*p2, *n)),
                        _ => None,
                    }) {
                        if !consumed_numbers.contains(&npos)
                            && !predicates.iter().any(|p| p.column.eq_ignore_ascii_case(col))
                        {
                            consumed_numbers.push(npos);
                            let value = if n.fract() == 0.0 {
                                Value::Int(n as i64)
                            } else {
                                Value::Float(n)
                            };
                            // Comparison phrases between the column mention
                            // and the number ("delay of more than 30").
                            let op = detect_comparison(&tokens[*pos..npos]);
                            let pred = match op {
                                Some(op) => Predicate { column: col.clone(), op: muve_dbms::PredOp::Cmp(op, value) },
                                None => Predicate { column: col.clone(), op: muve_dbms::PredOp::Eq(value) },
                            };
                            predicates.push(pred);
                        }
                    }
                }
            _ => {}
        }
    }

    Query {
        table: phrases.table.clone(),
        aggregates: vec![aggregate],
        predicates,
        group_by: Vec::new(),
    }
}

/// Detect a comparison phrase among the tokens between a numeric-column
/// mention and its number.
fn detect_comparison(between: &[String]) -> Option<CmpOp> {
    let has = |w: &str| between.iter().any(|t| t == w);
    if has("least") {
        return Some(CmpOp::Ge); // "at least"
    }
    if has("most") {
        return Some(CmpOp::Le); // "at most"
    }
    if has("more") || has("over") || has("above") || has("greater") || has("exceeding") {
        return Some(CmpOp::Gt);
    }
    if has("less") || has("under") || has("below") || has("fewer") {
        return Some(CmpOp::Lt);
    }
    if has("not") || has("except") {
        return Some(CmpOp::Ne);
    }
    None
}

fn detect_aggregate(tokens: &[String]) -> AggFunc {
    for t in tokens {
        match t.as_str() {
            "count" | "many" | "number" => return AggFunc::Count,
            "sum" | "total" => return AggFunc::Sum,
            "average" | "avg" | "mean" => return AggFunc::Avg,
            "minimum" | "min" | "lowest" | "smallest" | "least" => return AggFunc::Min,
            "maximum" | "max" | "highest" | "largest" | "most" => return AggFunc::Max,
            _ => {}
        }
    }
    AggFunc::Count
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::Schema;

    fn requests() -> Table {
        let schema = Schema::new([
            ("borough", ColumnType::Str),
            ("complaint_type", ColumnType::Str),
            ("resolution_hours", ColumnType::Int),
            ("calls", ColumnType::Int),
        ]);
        let mut b = Table::builder("requests", schema);
        for (bo, c, h, n) in [
            ("Brooklyn", "noise", 10i64, 3i64),
            ("Queens", "heat hot water", 20, 1),
            ("Bronx", "illegal parking", 30, 2),
        ] {
            b.push_row([bo.into(), c.into(), h.into(), n.into()]);
        }
        b.build()
    }

    fn tr(s: &str) -> String {
        translate(s, &requests()).unwrap().to_sql()
    }

    #[test]
    fn aggregate_keywords() {
        assert!(tr("how many complaints").starts_with("select count(*)"));
        assert!(tr("total calls").starts_with("select sum(calls)"));
        assert!(tr("average resolution hours").starts_with("select avg(resolution_hours)"));
        assert!(tr("maximum calls").starts_with("select max(calls)"));
        assert!(tr("lowest calls").starts_with("select min(calls)"));
    }

    #[test]
    fn constants_bind_with_column() {
        assert_eq!(
            tr("how many complaints in brooklyn"),
            "select count(*) from requests where borough = 'Brooklyn'"
        );
    }

    #[test]
    fn multiword_constant() {
        assert_eq!(
            tr("count of heat hot water complaints"),
            "select count(*) from requests where complaint_type = 'heat hot water'"
        );
    }

    #[test]
    fn multiple_predicates() {
        let sql = tr("average calls for noise in queens");
        assert!(sql.contains("complaint_type = 'noise'"), "{sql}");
        assert!(sql.contains("borough = 'Queens'"), "{sql}");
        assert!(sql.starts_with("select avg(calls)"), "{sql}");
    }

    #[test]
    fn numeric_predicate() {
        let sql = tr("count complaints with resolution hours 20");
        assert_eq!(
            sql,
            "select count(*) from requests where resolution_hours = 20"
        );
    }

    #[test]
    fn range_phrases() {
        assert_eq!(
            tr("count complaints with resolution hours more than 20"),
            "select count(*) from requests where resolution_hours > 20"
        );
        assert_eq!(
            tr("count complaints with resolution hours at least 20"),
            "select count(*) from requests where resolution_hours >= 20"
        );
        assert_eq!(
            tr("count complaints with resolution hours under 20"),
            "select count(*) from requests where resolution_hours < 20"
        );
        assert_eq!(
            tr("count complaints with resolution hours at most 20"),
            "select count(*) from requests where resolution_hours <= 20"
        );
    }

    #[test]
    fn fallback_numeric_column() {
        // "total" with no numeric column named falls back to the first
        // numeric column.
        let sql = tr("total in bronx");
        assert_eq!(
            sql,
            "select sum(resolution_hours) from requests where borough = 'Bronx'"
        );
    }

    #[test]
    fn empty_utterance_errors() {
        assert_eq!(translate("   ", &requests()), Err(TranslateError::Empty));
    }

    #[test]
    fn unknown_tokens_ignored() {
        assert_eq!(
            tr("please kindly count stuff"),
            "select count(*) from requests"
        );
    }

    #[test]
    fn duplicate_column_predicates_deduped() {
        let sql = tr("count noise noise complaints");
        assert_eq!(
            sql,
            "select count(*) from requests where complaint_type = 'noise'"
        );
    }
}

#[cfg(test)]
mod robustness {
    use super::*;
    use muve_dbms::{execute, Schema};
    use proptest::prelude::*;

    fn table() -> Table {
        let schema = Schema::new([("borough", ColumnType::Str), ("calls", ColumnType::Int)]);
        let mut b = Table::builder("requests", schema);
        b.push_row(["Brooklyn".into(), Value::Int(1)]);
        b.push_row(["Queens".into(), Value::Int(2)]);
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Translation never panics and, when it succeeds, yields a query
        /// the engine can execute.
        #[test]
        fn translate_total_and_executable(utterance in "\\PC{0,60}") {
            let t = table();
            if let Ok(q) = translate(&utterance, &t) {
                prop_assert!(execute(&t, &q).is_ok(), "{}", q.to_sql());
            }
        }
    }
}
