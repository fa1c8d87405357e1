//! Candidate queries and query templates (paper §2, Definition 1-2).
//!
//! A *candidate query* is one possible interpretation of the voice input,
//! weighted by probability. A *template* is a candidate query with exactly
//! one element replaced by a placeholder; all queries instantiating the
//! same template can share a plot, with the placeholder substitutions as
//! x-axis labels. Templates are derived by masking, in turn, the aggregate
//! function, the aggregated column, and each predicate constant.

use muve_dbms::{PredOp, Query, Value};
use std::fmt::Write;
use std::ops::Range;

/// A candidate interpretation of the user's voice query.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The SQL interpretation.
    pub query: Query,
    /// Probability that this interpretation is the intended one.
    pub probability: f64,
}

impl Candidate {
    /// Convenience constructor.
    pub fn new(query: Query, probability: f64) -> Candidate {
        Candidate { query, probability }
    }
}

/// A template instantiation: the template identity (its rendered title with
/// a `?` placeholder) plus the x-axis label this query contributes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TemplateInstance {
    /// Template identity; doubles as the plot title.
    pub title: String,
    /// X-axis label: the element substituted for the placeholder.
    pub label: String,
}

/// All templates a query instantiates (the function `T(q)` of Algorithm 2).
///
/// # Examples
/// ```
/// use muve_core::query::templates_of;
/// use muve_dbms::parse;
/// let q = parse("select avg(delay) from flights where origin = 'JFK'").unwrap();
/// let ts = templates_of(&q);
/// // Masking the aggregate function, the aggregated column, and the constant:
/// assert_eq!(ts.len(), 3);
/// assert!(ts.iter().any(|t| t.title.contains("?(delay)") && t.label == "avg"));
/// assert!(ts.iter().any(|t| t.title.contains("avg(?)") && t.label == "delay"));
/// assert!(ts.iter().any(|t| t.title.contains("origin = ?") && t.label == "JFK"));
/// ```
pub fn templates_of(q: &Query) -> Vec<TemplateInstance> {
    let mut buf = TemplateBuf::default();
    buf.push(q);
    (0..buf.len())
        .map(|k| TemplateInstance {
            title: buf.title(k).to_owned(),
            label: buf.label(k).to_owned(),
        })
        .collect()
}

/// The templates of a sequence of queries, every title and label written
/// into one text buffer, so that grouping can compare titles before any
/// of them becomes a `String` of its own.
#[derive(Debug, Default)]
pub(crate) struct TemplateBuf {
    /// Titles and labels, back to back.
    text: String,
    /// Per template, the byte ranges of its title and its label in `text`.
    ranges: Vec<(Range<usize>, Range<usize>)>,
    /// Byte ranges in `text` of the current query's predicates, unmasked.
    spans: Vec<Range<usize>>,
}

impl TemplateBuf {
    /// An empty buffer sized for the templates of about `queries` queries.
    pub(crate) fn with_capacity(queries: usize) -> TemplateBuf {
        TemplateBuf {
            text: String::with_capacity(queries * 320),
            ranges: Vec::with_capacity(queries * 5),
            ..TemplateBuf::default()
        }
    }

    /// Number of templates written so far.
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Title of template `k`.
    pub(crate) fn title(&self, k: usize) -> &str {
        &self.text[self.ranges[k].0.clone()]
    }

    /// X-axis label of template `k`.
    pub(crate) fn label(&self, k: usize) -> &str {
        &self.text[self.ranges[k].1.clone()]
    }

    /// Append the templates `q` instantiates: the aggregate function, the
    /// aggregated column (not for `count(*)`), then each predicate's
    /// constant and, for a comparison, its operator (paper §2 Definition 2:
    /// "placeholders may substitute constants in predicates but also
    /// operators or aggregation functions").
    pub(crate) fn push(&mut self, q: &Query) {
        let Some(agg) = q.aggregates.first() else {
            return;
        };
        let func = agg.func.name();
        let col_name = agg.column.as_deref().unwrap_or("*");
        // The first title renders every predicate unmasked; later titles
        // copy them.
        self.spans.clear();
        self.template(q, ("?", col_name), None, Piece::Str(func));
        if let Some(col) = &agg.column {
            self.template(q, (func, "?"), None, Piece::Str(col));
        }
        for (i, p) in q.predicates.iter().enumerate() {
            let (op, v) = match &p.op {
                PredOp::Eq(v) => ("=", v),
                PredOp::Cmp(op, v) => (op.symbol(), v),
                PredOp::In(_) => continue,
            };
            self.template(
                q,
                (func, col_name),
                Some((i, op, Piece::Str("?"))),
                Piece::Value(v),
            );
            if let PredOp::Cmp(..) = p.op {
                self.template(
                    q,
                    (func, col_name),
                    Some((i, "?", Piece::Value(v))),
                    Piece::Str(op),
                );
            }
        }
    }

    /// Write one template of `q`: the title `{f}({c}) from {table} where
    /// p_0 and p_1 ...` for `head = (f, c)`, with predicate `k` of
    /// `mask = Some((k, op, value))` written as `{column} {op} {value}`;
    /// then its label.
    fn template(
        &mut self,
        q: &Query,
        head: (&str, &str),
        mask: Option<(usize, &str, Piece)>,
        label: Piece,
    ) {
        let TemplateBuf {
            text,
            ranges,
            spans,
        } = self;
        let title_start = text.len();
        text.push_str(head.0);
        text.push('(');
        text.push_str(head.1);
        text.push_str(") from ");
        text.push_str(&q.table);
        for (i, p) in q.predicates.iter().enumerate() {
            text.push_str(if i == 0 { " where " } else { " and " });
            match (&mask, spans.get(i)) {
                (Some((k, op, value)), _) if *k == i => {
                    text.push_str(&p.column);
                    text.push(' ');
                    text.push_str(op);
                    text.push(' ');
                    value.write(text);
                }
                (_, Some(span)) => text.extend_from_within(span.clone()),
                (_, None) => {
                    let start = text.len();
                    write!(text, "{p}").expect("writing to a String cannot fail");
                    spans.push(start..text.len());
                }
            }
        }
        let label_start = text.len();
        label.write(text);
        ranges.push((title_start..label_start, label_start..text.len()));
    }
}

/// A piece of template text: literal, or a constant as [`label_of`]
/// renders it.
enum Piece<'a> {
    Str(&'a str),
    Value(&'a Value),
}

impl Piece<'_> {
    fn write(&self, text: &mut String) {
        match self {
            Piece::Str(s) => text.push_str(s),
            Piece::Value(Value::Str(s)) => text.push_str(s),
            Piece::Value(v) => write!(text, "{v}").expect("writing to a String cannot fail"),
        }
    }
}

/// Render a constant as an x-axis label.
pub fn label_of(v: &Value) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::parse;

    #[test]
    fn count_star_has_no_column_template() {
        let q = parse("select count(*) from t where a = 'x'").unwrap();
        let ts = templates_of(&q);
        // Function mask + one predicate mask; no column mask for `*`.
        assert_eq!(ts.len(), 2);
        assert!(ts.iter().all(|t| !t.title.contains("count(?)")));
    }

    #[test]
    fn shared_template_across_constants() {
        let a = parse("select sum(v) from t where k = 'x'").unwrap();
        let b = parse("select sum(v) from t where k = 'y'").unwrap();
        let ta = templates_of(&a);
        let tb = templates_of(&b);
        let shared: Vec<_> = ta
            .iter()
            .filter(|t| tb.iter().any(|u| u.title == t.title))
            .collect();
        // The constant-masked template is shared; labels differ.
        assert!(shared.iter().any(|t| t.title.contains("k = ?")));
        let t_a = ta.iter().find(|t| t.title.contains("k = ?")).unwrap();
        let t_b = tb.iter().find(|t| t.title.contains("k = ?")).unwrap();
        assert_eq!(t_a.label, "x");
        assert_eq!(t_b.label, "y");
    }

    #[test]
    fn shared_template_across_functions() {
        let a = parse("select sum(v) from t where k = 'x'").unwrap();
        let b = parse("select avg(v) from t where k = 'x'").unwrap();
        let ta = templates_of(&a);
        let tb = templates_of(&b);
        let fa = ta.iter().find(|t| t.title.contains("?(v)")).unwrap();
        let fb = tb.iter().find(|t| t.title.contains("?(v)")).unwrap();
        assert_eq!(fa.title, fb.title);
        assert_ne!(fa.label, fb.label);
    }

    #[test]
    fn multiple_predicates_each_masked() {
        let q = parse("select avg(v) from t where a = 'x' and b = 'y'").unwrap();
        let ts = templates_of(&q);
        assert_eq!(ts.len(), 4); // func, column, two constants
        assert!(ts
            .iter()
            .any(|t| t.title.contains("a = ?") && t.title.contains("b = 'y'")));
        assert!(ts
            .iter()
            .any(|t| t.title.contains("b = ?") && t.title.contains("a = 'x'")));
    }

    #[test]
    fn comparison_operator_masked_as_slot() {
        use muve_dbms::parse;
        let q = parse("select avg(v) from t where m > 5").unwrap();
        let ts = templates_of(&q);
        // Value mask, operator mask, plus function and column masks.
        assert!(ts
            .iter()
            .any(|t| t.title.contains("m > ?") && t.label == "5"));
        assert!(ts
            .iter()
            .any(|t| t.title.contains("m ? 5") && t.label == ">"));
        // Two queries differing only in the operator share the op template.
        let q2 = parse("select avg(v) from t where m < 5").unwrap();
        let t2 = templates_of(&q2);
        let shared_a = ts.iter().find(|t| t.title.contains("m ? 5")).unwrap();
        let shared_b = t2.iter().find(|t| t.title.contains("m ? 5")).unwrap();
        assert_eq!(shared_a.title, shared_b.title);
        assert_ne!(shared_a.label, shared_b.label);
    }

    #[test]
    fn numeric_constants_masked_too() {
        let q = parse("select avg(v) from t where m = 5").unwrap();
        let ts = templates_of(&q);
        assert!(ts
            .iter()
            .any(|t| t.title.contains("m = ?") && t.label == "5"));
    }

    /// Titles are user-visible and their char count sets a plot's width,
    /// so every byte of every template instance is pinned.
    #[test]
    fn golden_titles() {
        let golden: &[(&str, &[(&str, &str)])] = &[
            (
                "select avg(delay) from flights where origin = 'JFK'",
                &[
                    ("?(delay) from flights where origin = 'JFK'", "avg"),
                    ("avg(?) from flights where origin = 'JFK'", "delay"),
                    ("avg(delay) from flights where origin = ?", "JFK"),
                ],
            ),
            (
                "select avg(v) from t where m < 5",
                &[
                    ("?(v) from t where m < 5", "avg"),
                    ("avg(?) from t where m < 5", "v"),
                    ("avg(v) from t where m < ?", "5"),
                    ("avg(v) from t where m ? 5", "<"),
                ],
            ),
            (
                "select min(v) from t where m >= 2.5",
                &[
                    ("?(v) from t where m >= 2.5", "min"),
                    ("min(?) from t where m >= 2.5", "v"),
                    ("min(v) from t where m >= ?", "2.5"),
                    ("min(v) from t where m ? 2.5", ">="),
                ],
            ),
            (
                "select sum(v) from t where k in ('a', 'b')",
                &[
                    ("?(v) from t where k in ('a', 'b')", "sum"),
                    ("sum(?) from t where k in ('a', 'b')", "v"),
                ],
            ),
            (
                "select count(*) from t where a = 'x'",
                &[
                    ("?(*) from t where a = 'x'", "count"),
                    ("count(*) from t where a = ?", "x"),
                ],
            ),
            (
                "select avg(v) from t where a = 'x' and b = 3",
                &[
                    ("?(v) from t where a = 'x' and b = 3", "avg"),
                    ("avg(?) from t where a = 'x' and b = 3", "v"),
                    ("avg(v) from t where a = ? and b = 3", "x"),
                    ("avg(v) from t where a = 'x' and b = ?", "3"),
                ],
            ),
            (
                "select max(v) from t",
                &[("?(v) from t", "max"), ("max(?) from t", "v")],
            ),
            ("select count(*) from t", &[("?(*) from t", "count")]),
            (
                "select avg(delay) from flights where city = 'Zürich' and delay > -3",
                &[
                    (
                        "?(delay) from flights where city = 'Zürich' and delay > -3",
                        "avg",
                    ),
                    (
                        "avg(?) from flights where city = 'Zürich' and delay > -3",
                        "delay",
                    ),
                    (
                        "avg(delay) from flights where city = ? and delay > -3",
                        "Zürich",
                    ),
                    (
                        "avg(delay) from flights where city = 'Zürich' and delay > ?",
                        "-3",
                    ),
                    (
                        "avg(delay) from flights where city = 'Zürich' and delay ? -3",
                        ">",
                    ),
                ],
            ),
        ];
        for (sql, want) in golden {
            let got = templates_of(&parse(sql).unwrap());
            let want: Vec<TemplateInstance> = want
                .iter()
                .map(|(title, label)| TemplateInstance {
                    title: (*title).to_owned(),
                    label: (*label).to_owned(),
                })
                .collect();
            assert_eq!(got, want, "{sql}");
        }
    }
}
