//! Query AST for the supported SQL subset.
//!
//! MUVE (paper §3) operates on SQL aggregation queries over a single table
//! with conjunctive predicates, producing a single numerical result. The
//! AST mirrors that subset plus what query merging (paper §8.1) needs:
//! `IN` lists, multiple aggregates per query, and `GROUP BY`.

use crate::value::Value;
use std::fmt;

/// Aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

impl AggFunc {
    /// All aggregate functions (used by workload generators).
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];

    /// SQL keyword for the function.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One aggregate expression, e.g. `sum(delay)` or `count(*)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// Aggregated column; `None` means `*` (only valid for `Count`).
    pub column: Option<String>,
}

impl Aggregate {
    /// `count(*)`.
    pub fn count_star() -> Aggregate {
        Aggregate {
            func: AggFunc::Count,
            column: None,
        }
    }

    /// An aggregate over a named column.
    pub fn over(func: AggFunc, column: impl Into<String>) -> Aggregate {
        Aggregate {
            func,
            column: Some(column.into()),
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.column {
            Some(c) => write!(f, "{}({})", self.func, c),
            None => write!(f, "{}(*)", self.func),
        }
    }
}

/// Predicate operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOp {
    /// `col = value`.
    Eq(Value),
    /// `col IN (v1, v2, ...)`.
    In(Vec<Value>),
    /// `col <op> value` for a comparison operator (numeric columns).
    Cmp(CmpOp, Value),
}

/// Comparison operator for range predicates. The paper's query templates
/// may substitute *operators* as placeholders (§2 Definition 2), so the
/// engine supports the full comparison set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<>`
    Ne,
}

impl CmpOp {
    /// All comparison operators.
    pub const ALL: [CmpOp; 5] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne];

    /// SQL token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Ne => "<>",
        }
    }

    /// Evaluate the comparison `lhs <op> rhs`.
    #[inline]
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// One conjunct of the WHERE clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Column name.
    pub column: String,
    /// Operator and constant(s).
    pub op: PredOp,
}

impl Predicate {
    /// Equality predicate.
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Predicate {
        Predicate {
            column: column.into(),
            op: PredOp::Eq(value.into()),
        }
    }

    /// IN-list predicate.
    pub fn is_in(column: impl Into<String>, values: Vec<Value>) -> Predicate {
        Predicate {
            column: column.into(),
            op: PredOp::In(values),
        }
    }

    /// Comparison predicate.
    pub fn cmp(column: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate {
            column: column.into(),
            op: PredOp::Cmp(op, value.into()),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.column)?;
        match &self.op {
            PredOp::Eq(v) => {
                f.write_str(" = ")?;
                Quoted(v).fmt(f)
            }
            PredOp::Cmp(op, v) => {
                f.write_str(" ")?;
                f.write_str(op.symbol())?;
                f.write_str(" ")?;
                Quoted(v).fmt(f)
            }
            PredOp::In(vs) => {
                f.write_str(" in (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    Quoted(v).fmt(f)?;
                }
                f.write_str(")")
            }
        }
    }
}

/// A constant as SQL text: strings single-quoted, embedded quotes doubled.
struct Quoted<'a>(&'a Value);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Str(s) => {
                f.write_str("'")?;
                for (i, part) in s.split('\'').enumerate() {
                    if i > 0 {
                        f.write_str("''")?;
                    }
                    f.write_str(part)?;
                }
                f.write_str("'")
            }
            other => write!(f, "{other}"),
        }
    }
}

/// A single-table aggregation query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Target table.
    pub table: String,
    /// Selected aggregates (at least one).
    pub aggregates: Vec<Aggregate>,
    /// Conjunctive predicates.
    pub predicates: Vec<Predicate>,
    /// Grouping columns (empty for scalar results).
    pub group_by: Vec<String>,
}

impl Query {
    /// A scalar aggregate query without predicates.
    pub fn scalar(table: impl Into<String>, agg: Aggregate) -> Query {
        Query {
            table: table.into(),
            aggregates: vec![agg],
            predicates: Vec::new(),
            group_by: Vec::new(),
        }
    }

    /// Add an equality predicate (builder style).
    pub fn with_eq(mut self, column: impl Into<String>, value: impl Into<Value>) -> Query {
        self.predicates.push(Predicate::eq(column, value));
        self
    }

    /// Render as SQL text.
    pub fn to_sql(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "select ")?;
        for (i, a) in self.aggregates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " from {}", self.table)?;
        if !self.predicates.is_empty() {
            write!(f, " where ")?;
            for (i, p) in self.predicates.iter().enumerate() {
                if i > 0 {
                    write!(f, " and ")?;
                }
                write!(f, "{p}")?;
            }
        }
        if !self.group_by.is_empty() {
            write!(f, " group by {}", self.group_by.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_rendering() {
        let q = Query {
            table: "flights".into(),
            aggregates: vec![
                Aggregate::over(AggFunc::Avg, "delay"),
                Aggregate::count_star(),
            ],
            predicates: vec![
                Predicate::eq("origin", "JFK"),
                Predicate::is_in("carrier", vec!["AA".into(), "UA".into()]),
            ],
            group_by: vec!["dest".into()],
        };
        assert_eq!(
            q.to_sql(),
            "select avg(delay), count(*) from flights where origin = 'JFK' \
             and carrier in ('AA', 'UA') group by dest"
        );
    }

    #[test]
    fn quoting_escapes() {
        let p = Predicate::eq("name", "O'Brien");
        assert_eq!(p.to_string(), "name = 'O''Brien'");
    }

    #[test]
    fn builders() {
        let q = Query::scalar("t", Aggregate::count_star()).with_eq("a", 3i64);
        assert_eq!(q.to_sql(), "select count(*) from t where a = 3");
    }

    #[test]
    fn agg_display() {
        assert_eq!(Aggregate::over(AggFunc::Sum, "x").to_string(), "sum(x)");
        assert_eq!(Aggregate::count_star().to_string(), "count(*)");
        assert_eq!(AggFunc::ALL.len(), 5);
    }
}
