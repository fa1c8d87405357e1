//! The row model: a naive evaluation of a query over [`Table::row`]
//! values, independent of the engine's compiled plan, group keys and
//! accumulators. The only check that can catch a bug the engine's paths
//! share with [`muve_dbms::execute_reference`].

use muve_dbms::{AggFunc, ExecStats, PredOp, Query, ResultSet, Table, Value};
use std::collections::BTreeMap;

/// Whether `v` satisfies `op`. NULL satisfies nothing, and so does a NULL
/// or mistyped literal; a float literal equals an int when it is whole.
fn holds(v: &Value, op: &PredOp) -> bool {
    let eq = |lit: &Value| match (v, lit) {
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            v.as_f64() == lit.as_f64()
        }
        _ => false,
    };
    match op {
        PredOp::Eq(lit) => eq(lit),
        PredOp::In(lits) => lits.iter().any(eq),
        PredOp::Cmp(op, lit) => match (v.as_f64(), lit.as_f64()) {
            (Some(a), Some(b)) => op.eval(a, b),
            _ => false,
        },
    }
}

/// One aggregate over a group's non-NULL values: COUNT an int, the rest
/// a float folded in row order, NULL over no values.
fn aggregate(func: AggFunc, xs: &[f64]) -> Value {
    let Some(&first) = xs.first() else {
        return if func == AggFunc::Count {
            Value::Int(0)
        } else {
            Value::Null
        };
    };
    let sum = || xs.iter().fold(0.0, |s, x| s + x);
    match func {
        AggFunc::Count => Value::Int(xs.len() as i64),
        AggFunc::Sum => Value::Float(sum()),
        AggFunc::Avg => Value::Float(sum() / xs.len() as f64),
        AggFunc::Min => Value::Float(xs.iter().fold(first, |m, &x| if x < m { x } else { m })),
        AggFunc::Max => Value::Float(xs.iter().fold(first, |m, &x| if x > m { x } else { m })),
    }
}

/// `query` over `table`'s rows at `ids` (every row when `None`) as the
/// engine documents it: groups in key order — strings in dictionary
/// order, ints ascending, NULL last — and one row for an ungrouped query
/// even over no rows. Covers the predicates and aggregates the generators
/// draw.
pub fn row_model(table: &Table, query: &Query, ids: Option<&[u32]>) -> ResultSet {
    let col = |name: &str| table.schema().index_of(name).expect("model column");
    let rows: Vec<Vec<Value>> = match ids {
        Some(ids) => ids.iter().map(|&r| table.row(r as usize)).collect(),
        None => (0..table.num_rows()).map(|r| table.row(r)).collect(),
    };
    let holds_all = |row: &&Vec<Value>| {
        let mut preds = query.predicates.iter();
        preds.all(|p| holds(&row[col(&p.column)], &p.op))
    };
    let matched: Vec<&Vec<Value>> = rows.iter().filter(holds_all).collect();
    // Groups by sort position: NULL last, strings by dictionary code.
    let keys: Vec<usize> = query.group_by.iter().map(|g| col(g)).collect();
    let rank = |c: usize, v: &Value| match v {
        Value::Null => (true, 0),
        Value::Int(x) => (false, *x),
        _ => {
            let dict = table.column(c).dictionary().expect("string column");
            (false, i64::from(dict.code_of(v.as_str().unwrap()).unwrap()))
        }
    };
    let mut groups: BTreeMap<Vec<(bool, i64)>, Vec<&Vec<Value>>> = BTreeMap::new();
    if keys.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    for row in &matched {
        let key = keys.iter().map(|&c| rank(c, &row[c])).collect();
        groups.entry(key).or_default().push(row);
    }
    let out_rows = groups.into_values().map(|members| {
        let mut out: Vec<Value> = keys.iter().map(|&c| members[0][c].clone()).collect();
        for a in &query.aggregates {
            let value = |row: &&Vec<Value>| {
                a.column
                    .as_ref()
                    .map_or(Some(1.0), |c| row[col(c)].as_f64())
            };
            let xs: Vec<f64> = members.iter().filter_map(value).collect();
            out.push(aggregate(a.func, &xs));
        }
        out
    });
    let mut columns = query.group_by.clone();
    columns.extend(query.aggregates.iter().map(|a| a.to_string()));
    let (rows_scanned, rows_matched) = (rows.len(), matched.len());
    ResultSet {
        columns,
        rows: out_rows.collect(),
        stats: ExecStats {
            rows_scanned,
            rows_matched,
        },
    }
}
