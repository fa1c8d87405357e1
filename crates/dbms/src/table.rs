//! Tables and the catalog.

use crate::column::Column;
use crate::schema::Schema;
use crate::value::Value;

/// An immutable, in-memory columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    fingerprint: u64,
}

impl Table {
    /// Start building a table with the given name and schema.
    pub fn builder(name: impl Into<String>, schema: Schema) -> TableBuilder {
        let columns = schema.columns().iter().map(|c| Column::new(c.ty)).collect();
        TableBuilder {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Column by index.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by (case-insensitive) name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Read a full row (for tests and small results).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// A cheap content fingerprint stamped at build time: a hash of the
    /// (lowercased) name, schema, row count, column payloads, and NULL
    /// masks. Two loads of identical data share a fingerprint; any content
    /// change produces a new one. Caches use it as the *table epoch*, so a
    /// `\load` invalidates every entry computed against the old data.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Build a new table holding exactly the given rows, in the given
    /// order, under the same name and schema — the shard-partitioning
    /// primitive. String columns keep the parent's dictionary (codes are
    /// copied verbatim), so grouped partials computed on projections of the
    /// same parent share a key space and combine exactly. The projection is
    /// a real table: it stamps its own content fingerprint, so per-shard
    /// epochs track per-shard content.
    ///
    /// # Panics
    /// Panics if any row id is out of range.
    pub fn project_rows(&self, rows: &[u32]) -> Table {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.project(rows)).collect();
        let fingerprint = content_fingerprint(&self.name, &self.schema, rows.len(), &columns);
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns,
            rows: rows.len(),
            fingerprint,
        }
    }

    /// Rough in-memory size in bytes, used by the cost model to derive a
    /// page count (Postgres-style).
    pub fn approx_bytes(&self) -> usize {
        use crate::column::ColumnData;
        self.columns
            .iter()
            .map(|c| match c.data() {
                ColumnData::Int(v) => v.len() * 8,
                ColumnData::Float(v) => v.len() * 8,
                ColumnData::Str { codes, dict } => {
                    codes.len() * 4 + dict.entries().iter().map(|s| s.len() + 16).sum::<usize>()
                }
            })
            .sum()
    }
}

/// Incremental table builder.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl TableBuilder {
    /// Append one row.
    ///
    /// # Panics
    /// Panics if the row arity does not match the schema or a value has the
    /// wrong type.
    pub fn push_row<I>(&mut self, row: I) -> &mut Self
    where
        I: IntoIterator<Item = Value>,
    {
        let mut n = 0;
        for (v, col) in row.into_iter().zip(&mut self.columns) {
            col.push(&v);
            n += 1;
        }
        assert_eq!(n, self.schema.len(), "row arity mismatch");
        self.rows += 1;
        self
    }

    /// Finish building, stamping the content fingerprint (one linear pass
    /// over the column data; load-time only, never per query).
    pub fn build(self) -> Table {
        let fingerprint = content_fingerprint(&self.name, &self.schema, self.rows, &self.columns);
        Table {
            name: self.name,
            schema: self.schema,
            columns: self.columns,
            rows: self.rows,
            fingerprint,
        }
    }
}

/// Hash every observable part of a table into one `u64`.
fn content_fingerprint(name: &str, schema: &Schema, rows: usize, columns: &[Column]) -> u64 {
    use crate::column::ColumnData;
    use std::hash::Hasher;
    let mut h = rustc_hash::FxHasher::default();
    h.write(name.to_ascii_lowercase().as_bytes());
    h.write_usize(rows);
    for def in schema.columns() {
        h.write(def.name.to_ascii_lowercase().as_bytes());
        h.write_u8(def.ty as u8);
    }
    for col in columns {
        match col.data() {
            ColumnData::Int(xs) => {
                for v in xs {
                    h.write_i64(*v);
                }
            }
            ColumnData::Float(xs) => {
                for v in xs {
                    h.write_u64(v.to_bits());
                }
            }
            ColumnData::Str { codes, dict } => {
                for c in codes {
                    h.write_u32(*c);
                }
                for s in dict.entries() {
                    h.write(s.as_bytes());
                }
            }
        }
        for null in col.null_slice() {
            h.write_u8(u8::from(*null));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ColumnType;

    fn sample() -> Table {
        let schema = Schema::new([("city", ColumnType::Str), ("pop", ColumnType::Int)]);
        let mut b = Table::builder("cities", schema);
        b.push_row([Value::from("nyc"), Value::from(8_000_000i64)]);
        b.push_row([Value::from("ithaca"), Value::from(30_000i64)]);
        b.build()
    }

    #[test]
    fn build_and_read() {
        let t = sample();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.name(), "cities");
        assert_eq!(
            t.row(1),
            vec![Value::from("ithaca"), Value::from(30_000i64)]
        );
        assert_eq!(
            t.column_by_name("POP").unwrap().get(0),
            Value::Int(8_000_000)
        );
        assert!(t.column_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let schema = Schema::new([("a", ColumnType::Int), ("b", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        b.push_row([Value::from(1i64)]);
    }

    #[test]
    fn approx_bytes_positive() {
        let t = sample();
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        let b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint(), "identical loads match");

        let schema = Schema::new([("city", ColumnType::Str), ("pop", ColumnType::Int)]);
        let mut builder = Table::builder("cities", schema);
        builder.push_row([Value::from("nyc"), Value::from(8_000_001i64)]);
        builder.push_row([Value::from("ithaca"), Value::from(30_000i64)]);
        let c = builder.build();
        assert_ne!(a.fingerprint(), c.fingerprint(), "changed data differs");
    }
}
