//! Vectorized batch execution: morsel-driven scans over selection bitmaps.
//!
//! The engine behind [`crate::exec::ScanRequest`]. The rows to scan — a
//! whole table or an explicit row-id selection — are split into
//! [`crate::morsel`] morsels that run in order on the caller's thread;
//! inside a morsel, rows are processed in [`CHUNK_ROWS`]-lane chunks:
//!
//! 1. every compiled predicate ANDs the chunk's selection bitmap
//!    (`Sel`) with a tight compare loop over the raw column storage —
//!    dictionary codes (`u32`), `i64`, or `f64` compared directly, with no
//!    per-row enum dispatch; a string `IN` list of several codes (what
//!    query merging produces) is one bitset lookup per row;
//! 2. aggregation feeds only the surviving lanes into per-morsel partial
//!    accumulators (`count(*)` degenerates to a popcount of the bitmap;
//!    a single small-dictionary group column uses a dense code-indexed
//!    accumulator array instead of a hash map);
//! 3. partials are folded in morsel order after the scan, the same fold
//!    a gather applies to per-shard partials.
//!
//! Cancellation is polled and scan progress published at every chunk
//! boundary, and memory for group state is charged as groups appear — the
//! same observability and governor contracts as the row-at-a-time
//! reference path ([`crate::exec::execute_reference`]), which this module
//! must match — bit for bit when float sums are exact, which the
//! differential suites' dyadic floats guarantee.

use crate::ast::{AggFunc, CmpOp, PredOp, Query};
use crate::column::{Column, ColumnData, Dictionary};
use crate::exec::{
    record_partial_metrics, record_query_metrics, ExecError, ExecOptions, ExecStats, ResultSet,
    ScanProgress,
};
use crate::morsel::{morsels, Morsel, MORSEL_ROWS};
use crate::table::Table;
use crate::value::Value;
use muve_obs::MemBudget;
use rustc_hash::FxHashMap;
use std::cell::Cell;

/// Rows per predicate/aggregation chunk: the vectorization unit, and the
/// granularity of cancellation checks and progress publication inside a
/// morsel — abort latency is bounded by one chunk of work, far below a
/// full morsel.
pub const CHUNK_ROWS: usize = 4096;
const SEL_WORDS: usize = CHUNK_ROWS / 64;

/// Largest group-by dictionary for which grouped partials use the dense
/// code-indexed accumulator layout; larger dictionaries (and multi-column
/// or integer keys) fall back to hashed grouping.
const DENSE_GROUPS: usize = 1024;

/// Tuning knob of the batch engine. [`Default`] matches production use;
/// tests shrink `morsel_rows` to force many-morsel folds on small tables.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Rows per morsel — the partial-accumulator granularity.
    pub morsel_rows: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            morsel_rows: MORSEL_ROWS,
        }
    }
}

/// Rows addressed by one chunk of a scan.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// A dense run of consecutive row ids `start..start + len`.
    Dense {
        /// First row id of the run.
        start: usize,
        /// Run length.
        len: usize,
    },
    /// Explicit row ids (a sample selection, an index probe).
    Ids(&'a [u32]),
}

impl Rows<'_> {
    /// The rows at scan positions `start..end`: the positions themselves
    /// on a full scan (`ids` is `None`), `ids[start..end]` on a selection.
    fn at(ids: Option<&[u32]>, start: usize, end: usize) -> Rows<'_> {
        match ids {
            None => Rows::Dense {
                start,
                len: end - start,
            },
            Some(ids) => Rows::Ids(&ids[start..end]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Rows::Dense { len, .. } => *len,
            Rows::Ids(ids) => ids.len(),
        }
    }

    #[inline]
    fn row(&self, lane: usize) -> usize {
        match self {
            Rows::Dense { start, .. } => start + lane,
            Rows::Ids(ids) => ids[lane] as usize,
        }
    }
}

/// Selection bitmap over one chunk's lanes.
struct Sel {
    words: [u64; SEL_WORDS],
    len: usize,
}

impl Sel {
    fn all(len: usize) -> Sel {
        debug_assert!(len <= CHUNK_ROWS);
        let mut words = [0u64; SEL_WORDS];
        let full = len / 64;
        for w in &mut words[..full] {
            *w = u64::MAX;
        }
        let rem = len % 64;
        if rem > 0 {
            words[full] = (1u64 << rem) - 1;
        }
        Sel { words, len }
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    fn clear(&mut self) {
        self.words = [0u64; SEL_WORDS];
    }

    /// AND every lane with `keep(lane)`. Words already all-zero are
    /// skipped, so stacked predicates get cheaper as selectivity drops;
    /// `keep` is evaluated branchlessly across whole words so the compare
    /// loops vectorize.
    #[inline]
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for wi in 0..self.len.div_ceil(64) {
            if self.words[wi] == 0 {
                continue;
            }
            let base = wi * 64;
            let lanes = (self.len - base).min(64);
            let mut mask = 0u64;
            for b in 0..lanes {
                mask |= u64::from(keep(base + b)) << b;
            }
            self.words[wi] &= mask;
        }
    }

    /// Visit selected lanes in ascending order.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize)) {
        for wi in 0..self.len.div_ceil(64) {
            let mut w = self.words[wi];
            let base = wi * 64;
            while w != 0 {
                f(base + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Fallible [`Sel::for_each`] (group-state memory charges can abort
    /// mid-chunk).
    #[inline]
    fn try_for_each(
        &self,
        mut f: impl FnMut(usize) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        for wi in 0..self.len.div_ceil(64) {
            let mut w = self.words[wi];
            let base = wi * 64;
            while w != 0 {
                f(base + w.trailing_zeros() as usize)?;
                w &= w - 1;
            }
        }
        Ok(())
    }
}

/// A compiled predicate over one column: constants are pre-resolved (string
/// constants to dictionary codes) so the chunk kernels compare raw
/// `i64`/`f64`/`u32` storage with no per-row dispatch or string work.
pub(crate) enum Compiled<'a> {
    IntIn {
        col: &'a [i64],
        nulls: Option<&'a [bool]>,
        values: Vec<i64>,
    },
    FloatIn {
        col: &'a [f64],
        nulls: Option<&'a [bool]>,
        values: Vec<f64>,
    },
    /// A string equality (or an `IN` list that resolved to one code).
    CodeEq {
        col: &'a [u32],
        nulls: Option<&'a [bool]>,
        code: u32,
    },
    /// A string `IN` list of two or more codes: membership is one bit
    /// lookup per row in a bitset over the column's whole dictionary, so
    /// a merged `IN` costs the same per row as a single equality.
    CodeSet {
        col: &'a [u32],
        nulls: Option<&'a [bool]>,
        bits: Vec<u64>,
    },
    IntCmp {
        col: &'a [i64],
        nulls: Option<&'a [bool]>,
        op: CmpOp,
        value: f64,
    },
    FloatCmp {
        col: &'a [f64],
        nulls: Option<&'a [bool]>,
        op: CmpOp,
        value: f64,
    },
    AlwaysFalse,
}

impl Compiled<'_> {
    /// Row-at-a-time evaluation (reference path).
    #[inline]
    pub(crate) fn matches(&self, row: usize) -> bool {
        match self {
            Compiled::IntIn { col, nulls, values } => {
                !is_null(nulls, row) && values.contains(&col[row])
            }
            Compiled::FloatIn { col, nulls, values } => {
                !is_null(nulls, row) && values.iter().any(|v| *v == col[row])
            }
            Compiled::CodeEq { col, nulls, code } => !is_null(nulls, row) && col[row] == *code,
            Compiled::CodeSet { col, nulls, bits } => {
                !is_null(nulls, row) && has_code(bits, col[row])
            }
            Compiled::IntCmp {
                col,
                nulls,
                op,
                value,
            } => !is_null(nulls, row) && op.eval(col[row] as f64, *value),
            Compiled::FloatCmp {
                col,
                nulls,
                op,
                value,
            } => !is_null(nulls, row) && op.eval(col[row], *value),
            Compiled::AlwaysFalse => false,
        }
    }

    /// AND the chunk's selection bitmap with this predicate.
    fn apply(&self, rows: &Rows<'_>, sel: &mut Sel) {
        match self {
            Compiled::AlwaysFalse => sel.clear(),
            Compiled::CodeEq { col, nulls, code } => {
                apply_in(rows, sel, col, nulls, std::slice::from_ref(code))
            }
            Compiled::CodeSet { col, nulls, bits } => match rows {
                Rows::Dense { start, len } => {
                    let seg = &col[*start..*start + *len];
                    match nulls {
                        None => sel.retain(|i| has_code(bits, seg[i])),
                        Some(m) => {
                            let nseg = &m[*start..*start + *len];
                            sel.retain(|i| !nseg[i] && has_code(bits, seg[i]));
                        }
                    }
                }
                Rows::Ids(ids) => sel.retain(|i| {
                    let r = ids[i] as usize;
                    !is_null(nulls, r) && has_code(bits, col[r])
                }),
            },
            Compiled::IntIn { col, nulls, values } => apply_in(rows, sel, col, nulls, values),
            Compiled::FloatIn { col, nulls, values } => apply_in(rows, sel, col, nulls, values),
            Compiled::IntCmp {
                col,
                nulls,
                op,
                value,
            } => match rows {
                Rows::Dense { start, len } => {
                    let seg = &col[*start..*start + *len];
                    let nseg = nulls.map(|m| &m[*start..*start + *len]);
                    apply_cmp(sel, *op, *value, |i| seg[i] as f64, nseg);
                }
                Rows::Ids(ids) => sel.retain(|i| {
                    let r = ids[i] as usize;
                    !is_null(nulls, r) && op.eval(col[r] as f64, *value)
                }),
            },
            Compiled::FloatCmp {
                col,
                nulls,
                op,
                value,
            } => match rows {
                Rows::Dense { start, len } => {
                    let seg = &col[*start..*start + *len];
                    let nseg = nulls.map(|m| &m[*start..*start + *len]);
                    apply_cmp(sel, *op, *value, |i| seg[i], nseg);
                }
                Rows::Ids(ids) => sel.retain(|i| {
                    let r = ids[i] as usize;
                    !is_null(nulls, r) && op.eval(col[r], *value)
                }),
            },
        }
    }
}

/// Equality/IN kernel shared by `CodeEq`, `IntIn` and `FloatIn`. The
/// dominant case — a single dictionary code over a dense chunk with no
/// NULLs — reduces to one `==` per lane over contiguous storage.
#[inline]
fn apply_in<T: PartialEq + Copy>(
    rows: &Rows<'_>,
    sel: &mut Sel,
    col: &[T],
    nulls: &Option<&[bool]>,
    values: &[T],
) {
    match rows {
        Rows::Dense { start, len } => {
            let seg = &col[*start..*start + *len];
            match (values, nulls) {
                ([v], None) => {
                    let v = *v;
                    sel.retain(|i| seg[i] == v);
                }
                ([v], Some(m)) => {
                    let v = *v;
                    let nseg = &m[*start..*start + *len];
                    sel.retain(|i| !nseg[i] && seg[i] == v);
                }
                (vs, None) => sel.retain(|i| vs.contains(&seg[i])),
                (vs, Some(m)) => {
                    let nseg = &m[*start..*start + *len];
                    sel.retain(|i| !nseg[i] && vs.contains(&seg[i]));
                }
            }
        }
        Rows::Ids(ids) => sel.retain(|i| {
            let r = ids[i] as usize;
            !is_null(nulls, r) && values.contains(&col[r])
        }),
    }
}

/// Whether `code` is a member of a [`Compiled::CodeSet`] bitset. Every
/// code of a column is below its dictionary's length, which sizes the
/// bitset, so the lookup never leaves it.
#[inline]
fn has_code(bits: &[u64], code: u32) -> bool {
    bits[(code >> 6) as usize] >> (code & 63) & 1 != 0
}

/// Comparison kernel with the operator match hoisted out of the lane loop.
#[inline]
fn apply_cmp(
    sel: &mut Sel,
    op: CmpOp,
    value: f64,
    get: impl Fn(usize) -> f64,
    nseg: Option<&[bool]>,
) {
    let ok = |i: usize| nseg.is_none_or(|m| !m[i]);
    match op {
        CmpOp::Lt => sel.retain(|i| ok(i) && get(i) < value),
        CmpOp::Le => sel.retain(|i| ok(i) && get(i) <= value),
        CmpOp::Gt => sel.retain(|i| ok(i) && get(i) > value),
        CmpOp::Ge => sel.retain(|i| ok(i) && get(i) >= value),
        CmpOp::Ne => sel.retain(|i| ok(i) && get(i) != value),
    }
}

#[inline]
pub(crate) fn is_null(nulls: &Option<&[bool]>, row: usize) -> bool {
    nulls.is_some_and(|m| m[row])
}

pub(crate) fn null_mask(c: &Column) -> Option<&[bool]> {
    // Columns without NULLs skip the mask entirely so the hot kernels stay
    // two-operand compares.
    if c.is_empty() || !c.is_null_any() {
        None
    } else {
        Some(c.null_slice())
    }
}

/// Approximate bytes one new group adds to the aggregation state: the
/// boxed key vector, the accumulator vector, and the hash-map entry.
pub(crate) fn group_state_bytes(key_len: usize, n_accs: usize) -> usize {
    key_len * 8 + n_accs * 32 + 96
}

/// One aggregate accumulator. COUNT/SUM/AVG/MIN/MAX all decompose, so an
/// `Acc` doubles as a per-morsel *partial*: partials merge associatively
/// and are combined in morsel order for deterministic float sums.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    pub(crate) fn new() -> Acc {
        Acc {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    pub(crate) fn feed(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Feed `n` ones in one step (a popcounted `count(*)` chunk). Exact
    /// for any realistic count (`n` additions of `1.0` equal one addition
    /// of `n` while the running sum stays below 2^53).
    #[inline]
    fn feed_ones(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.count += n as u64;
        self.sum += n as f64;
        if 1.0 < self.min {
            self.min = 1.0;
        }
        if 1.0 > self.max {
            self.max = 1.0;
        }
    }

    /// Fold a later partial into this one.
    fn merge(&mut self, other: &Acc) {
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    pub(crate) fn finish(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum if self.count > 0 => Value::Float(self.sum),
            AggFunc::Avg if self.count > 0 => Value::Float(self.sum / self.count as f64),
            AggFunc::Min if self.count > 0 => Value::Float(self.min),
            AggFunc::Max if self.count > 0 => Value::Float(self.max),
            _ => Value::Null,
        }
    }
}

/// Numeric input of one aggregate (or row-count for `count(*)`).
pub(crate) enum AggInput<'a> {
    Star,
    /// `count(col)` over a string column with NULLs: one per non-NULL row.
    NotNull(&'a [bool]),
    Int {
        col: &'a [i64],
        nulls: Option<&'a [bool]>,
    },
    Float {
        col: &'a [f64],
        nulls: Option<&'a [bool]>,
    },
}

impl AggInput<'_> {
    #[inline]
    pub(crate) fn value(&self, row: usize) -> Option<f64> {
        match self {
            AggInput::Star => Some(1.0),
            AggInput::NotNull(nulls) => (!nulls[row]).then_some(1.0),
            AggInput::Int { col, nulls } => (!is_null(nulls, row)).then(|| col[row] as f64),
            AggInput::Float { col, nulls } => (!is_null(nulls, row)).then(|| col[row]),
        }
    }
}

/// Grouping key part per row (str code or int value; floats disallowed).
pub(crate) enum GroupInput<'a> {
    Int(&'a [i64]),
    Code {
        codes: &'a [u32],
        dict: &'a Dictionary,
    },
}

impl GroupInput<'_> {
    #[inline]
    pub(crate) fn key(&self, row: usize) -> i64 {
        match self {
            GroupInput::Int(xs) => xs[row],
            GroupInput::Code { codes, .. } => codes[row] as i64,
        }
    }
}

/// The composite group key of a query, one `i64` part per GROUP BY
/// column. A NULL row stores 0 (code 0, int 0), so when any key column
/// has a NULL mask the key carries trailing *null words* too: bit `i` of
/// word `i / 64` is set when column `i` is NULL, and that column's part is
/// zeroed. A NULL key is therefore its own group, never the group of code
/// 0 or int 0. Queries whose key columns have no mask have no null words
/// and do no per-row NULL work; the choice is made at compile time.
pub(crate) struct GroupKey<'a> {
    pub(crate) inputs: Vec<GroupInput<'a>>,
    /// The NULL mask of each key column (`None` when it has no NULLs).
    nulls: Vec<Option<&'a [bool]>>,
    /// Trailing null words per key: 0 when no key column has a mask.
    null_words: usize,
}

impl GroupKey<'_> {
    /// Whether the query is ungrouped.
    pub(crate) fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Parts per key, null words included.
    pub(crate) fn len(&self) -> usize {
        self.inputs.len() + self.null_words
    }

    /// Write `row`'s key into `buf`.
    #[inline]
    pub(crate) fn fill(&self, row: usize, buf: &mut Vec<i64>) {
        buf.clear();
        buf.extend(self.inputs.iter().map(|g| g.key(row)));
        if self.null_words > 0 {
            buf.resize(self.len(), 0);
            let n = self.inputs.len();
            for (i, mask) in self.nulls.iter().enumerate() {
                if mask.is_some_and(|m| m[row]) {
                    buf[i] = 0;
                    buf[n + i / 64] |= 1 << (i % 64);
                }
            }
        }
    }

    /// Bring a key from a table whose key columns had no NULL mask (a
    /// shard without NULLs) to this key's layout: its null words are 0.
    fn pad(&self, key: &mut Vec<i64>) {
        key.resize(self.len(), 0);
    }

    /// Whether key column `i` is NULL in `key`.
    fn is_null(&self, key: &[i64], i: usize) -> bool {
        self.null_words > 0 && key[self.inputs.len() + i / 64] >> (i % 64) & 1 != 0
    }

    /// Group order: column by column, values ascending (string columns
    /// in dictionary order), NULL after every value.
    fn cmp(&self, a: &[i64], b: &[i64]) -> std::cmp::Ordering {
        if self.null_words == 0 {
            return a.cmp(b);
        }
        (0..self.inputs.len())
            .map(|i| (self.is_null(a, i), a[i]).cmp(&(self.is_null(b, i), b[i])))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    /// The output value of key column `i`.
    fn value(&self, key: &[i64], i: usize) -> Value {
        if self.is_null(key, i) {
            return Value::Null;
        }
        match &self.inputs[i] {
            GroupInput::Int(_) => Value::Int(key[i]),
            GroupInput::Code { dict, .. } => Value::Str(dict.resolve(key[i] as u32).to_owned()),
        }
    }
}

/// A fully compiled query: validated bindings of predicates, aggregate
/// inputs, and group keys to column storage. Shared by the batch engine
/// and the row-at-a-time reference path so both execute the same plan.
pub(crate) struct CompiledQuery<'a> {
    pub(crate) preds: Vec<Compiled<'a>>,
    pub(crate) inputs: Vec<AggInput<'a>>,
    pub(crate) key: GroupKey<'a>,
    pub(crate) agg_names: Vec<String>,
    /// Rows of the compiling table: what a full scan covers.
    pub(crate) n_rows: usize,
}

impl<'a> CompiledQuery<'a> {
    pub(crate) fn compile(table: &'a Table, query: &Query) -> Result<CompiledQuery<'a>, ExecError> {
        if !query.table.eq_ignore_ascii_case(table.name()) {
            return Err(ExecError::UnknownTable(query.table.clone()));
        }
        if query.aggregates.is_empty() {
            return Err(ExecError::TypeError(
                "query needs at least one aggregate".into(),
            ));
        }
        let preds = compile_predicates(table, query)?;
        let inputs = agg_inputs(table, query)?;
        let mut group_inputs: Vec<GroupInput<'a>> = Vec::with_capacity(query.group_by.len());
        let mut nulls = Vec::with_capacity(query.group_by.len());
        for g in &query.group_by {
            let idx = table
                .schema()
                .index_of(g)
                .ok_or_else(|| ExecError::UnknownColumn(g.clone()))?;
            nulls.push(null_mask(table.column(idx)));
            match table.column(idx).data() {
                ColumnData::Int(xs) => group_inputs.push(GroupInput::Int(xs)),
                ColumnData::Str { codes, dict } => {
                    group_inputs.push(GroupInput::Code { codes, dict })
                }
                ColumnData::Float(_) => {
                    return Err(ExecError::TypeError(format!(
                        "cannot group by float column {g}"
                    )))
                }
            }
        }
        let agg_names = query.aggregates.iter().map(|a| a.to_string()).collect();
        let null_words = if nulls.iter().any(Option::is_some) {
            group_inputs.len().div_ceil(64)
        } else {
            0
        };
        Ok(CompiledQuery {
            preds,
            inputs,
            key: GroupKey {
                inputs: group_inputs,
                nulls,
                null_words,
            },
            agg_names,
            n_rows: table.num_rows(),
        })
    }
}

fn compile_predicates<'a>(table: &'a Table, query: &Query) -> Result<Vec<Compiled<'a>>, ExecError> {
    let mut out = Vec::with_capacity(query.predicates.len());
    for pred in &query.predicates {
        let idx = table
            .schema()
            .index_of(&pred.column)
            .ok_or_else(|| ExecError::UnknownColumn(pred.column.clone()))?;
        let col = table.column(idx);
        let nulls = null_mask(col);
        // Comparison predicates compile directly (numeric columns only).
        if let PredOp::Cmp(op, v) = &pred.op {
            let value = v.as_f64().ok_or_else(|| {
                ExecError::TypeError(format!(
                    "comparison on column {} needs a numeric constant, got {v:?}",
                    pred.column
                ))
            })?;
            let compiled = match col.data() {
                ColumnData::Int(xs) => Compiled::IntCmp {
                    col: xs,
                    nulls,
                    op: *op,
                    value,
                },
                ColumnData::Float(xs) => Compiled::FloatCmp {
                    col: xs,
                    nulls,
                    op: *op,
                    value,
                },
                ColumnData::Str { .. } => {
                    return Err(ExecError::TypeError(format!(
                        "comparison operator on string column {}",
                        pred.column
                    )))
                }
            };
            out.push(compiled);
            continue;
        }
        let consts: Vec<&Value> = match &pred.op {
            PredOp::Eq(v) => vec![v],
            PredOp::In(vs) => vs.iter().collect(),
            PredOp::Cmp(..) => unreachable!("handled above"),
        };
        let compiled = match col.data() {
            ColumnData::Int(xs) => {
                let mut values = Vec::with_capacity(consts.len());
                for v in consts {
                    match v {
                        Value::Int(i) => values.push(*i),
                        Value::Float(f) if f.fract() == 0.0 => values.push(*f as i64),
                        // A fractional (or non-finite) float literal can
                        // never equal an integer value: the predicate is
                        // simply false, the same collapse a string constant
                        // absent from the dictionary gets below. Genuine
                        // type mismatches (strings against ints) stay hard
                        // errors.
                        Value::Float(_) => {}
                        Value::Null => {}
                        other => {
                            return Err(ExecError::TypeError(format!(
                                "cannot compare int column {} with {other:?}",
                                pred.column
                            )))
                        }
                    }
                }
                if values.is_empty() {
                    Compiled::AlwaysFalse
                } else {
                    Compiled::IntIn {
                        col: xs,
                        nulls,
                        values,
                    }
                }
            }
            ColumnData::Float(xs) => {
                let mut values = Vec::with_capacity(consts.len());
                for v in consts {
                    match v.as_f64() {
                        Some(f) => values.push(f),
                        None if v.is_null() => {}
                        None => {
                            return Err(ExecError::TypeError(format!(
                                "cannot compare float column {} with {v:?}",
                                pred.column
                            )))
                        }
                    }
                }
                if values.is_empty() {
                    Compiled::AlwaysFalse
                } else {
                    Compiled::FloatIn {
                        col: xs,
                        nulls,
                        values,
                    }
                }
            }
            ColumnData::Str { codes, dict } => {
                let mut resolved = Vec::with_capacity(consts.len());
                for v in consts {
                    match v {
                        Value::Str(s) => {
                            if let Some(c) = dict.code_of(s) {
                                resolved.push(c);
                            }
                        }
                        Value::Null => {}
                        other => {
                            return Err(ExecError::TypeError(format!(
                                "cannot compare string column {} with {other:?}",
                                pred.column
                            )))
                        }
                    }
                }
                match resolved.as_slice() {
                    [] => Compiled::AlwaysFalse,
                    &[code] => Compiled::CodeEq {
                        col: codes,
                        nulls,
                        code,
                    },
                    _ => {
                        let mut bits = vec![0u64; dict.len().div_ceil(64)];
                        for c in resolved {
                            bits[(c >> 6) as usize] |= 1 << (c & 63);
                        }
                        Compiled::CodeSet {
                            col: codes,
                            nulls,
                            bits,
                        }
                    }
                }
            }
        };
        out.push(compiled);
    }
    Ok(out)
}

fn agg_inputs<'a>(table: &'a Table, query: &Query) -> Result<Vec<AggInput<'a>>, ExecError> {
    query
        .aggregates
        .iter()
        .map(|agg| match &agg.column {
            None => Ok(AggInput::Star),
            Some(name) => {
                let idx = table
                    .schema()
                    .index_of(name)
                    .ok_or_else(|| ExecError::UnknownColumn(name.clone()))?;
                let col = table.column(idx);
                let nulls = null_mask(col);
                match col.data() {
                    ColumnData::Int(xs) => Ok(AggInput::Int { col: xs, nulls }),
                    ColumnData::Float(xs) => Ok(AggInput::Float { col: xs, nulls }),
                    // count(col) over strings counts non-NULLs: every row
                    // when the column has none.
                    ColumnData::Str { .. } if agg.func == AggFunc::Count => {
                        Ok(nulls.map_or(AggInput::Star, AggInput::NotNull))
                    }
                    ColumnData::Str { .. } => Err(ExecError::TypeError(format!(
                        "{}({name}) over a string column",
                        agg.func
                    ))),
                }
            }
        })
        .collect()
}

/// Build the single-row result of an ungrouped execution.
pub(crate) fn materialize_flat(
    cq: &CompiledQuery<'_>,
    query: &Query,
    accs: &[Acc],
    stats: ExecStats,
) -> ResultSet {
    let row: Vec<Value> = accs
        .iter()
        .zip(&query.aggregates)
        .map(|(acc, agg)| acc.finish(agg.func))
        .collect();
    ResultSet {
        columns: cq.agg_names.clone(),
        rows: vec![row],
        stats,
    }
}

/// Build the key-sorted result of a grouped execution.
pub(crate) fn materialize_grouped(
    cq: &CompiledQuery<'_>,
    query: &Query,
    groups: FxHashMap<Vec<i64>, Vec<Acc>>,
    stats: ExecStats,
) -> ResultSet {
    let mut keys: Vec<&Vec<i64>> = groups.keys().collect();
    keys.sort_unstable_by(|a, b| cq.key.cmp(a, b));
    let n_keys = cq.key.inputs.len();
    let mut rows = Vec::with_capacity(keys.len());
    for key in keys {
        let accs = &groups[key];
        let mut row: Vec<Value> = Vec::with_capacity(n_keys + accs.len());
        row.extend((0..n_keys).map(|i| cq.key.value(key, i)));
        for (acc, agg) in accs.iter().zip(&query.aggregates) {
            row.push(acc.finish(agg.func));
        }
        rows.push(row);
    }
    let mut columns = query.group_by.clone();
    columns.extend(cq.agg_names.iter().cloned());
    ResultSet {
        columns,
        rows,
        stats,
    }
}

/// Memory accounting for one batch execution, shared by its scan and its
/// finish: group state and the result charge the same budget, and
/// everything is released when the execution ends, however it ends, so
/// the governor sees peak in-flight state (same contract as the
/// reference path's RAII charge).
pub(crate) struct SharedCharge<'a> {
    mem: Option<&'a MemBudget>,
    bytes: Cell<usize>,
}

impl<'a> SharedCharge<'a> {
    pub(crate) fn new(mem: Option<&'a MemBudget>) -> SharedCharge<'a> {
        SharedCharge {
            mem,
            bytes: Cell::new(0),
        }
    }

    #[inline]
    fn charge(&self, bytes: usize) -> Result<(), ExecError> {
        if let Some(m) = self.mem {
            m.try_charge(bytes)?;
            self.bytes.set(self.bytes.get() + bytes);
        }
        Ok(())
    }
}

impl Drop for SharedCharge<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.mem {
            m.release(self.bytes.get());
        }
    }
}

/// Internal progress counters, mirrored into the caller's
/// [`ScanProgress`] out-param (if any) at every chunk boundary.
struct Progress<'a> {
    stats: ExecStats,
    external: Option<&'a ScanProgress>,
}

impl<'a> Progress<'a> {
    fn new(external: Option<&'a ScanProgress>) -> Progress<'a> {
        Progress {
            stats: ExecStats::default(),
            external,
        }
    }

    #[inline]
    fn add(&mut self, scanned: usize, matched: usize) {
        self.stats.rows_scanned += scanned;
        self.stats.rows_matched += matched;
        if let Some(p) = self.external {
            p.add(scanned as u64, matched as u64);
        }
    }
}

/// How grouped state is laid out in per-morsel partials.
enum GroupMode {
    /// No GROUP BY: one flat accumulator vector.
    Flat,
    /// Single string group column with a small dictionary and no NULLs:
    /// accumulators addressed by dictionary code directly — no hashing,
    /// no per-group key allocation in the scan.
    Dense { dict_len: usize },
    /// General case: hashed composite keys (same layout as the reference
    /// path).
    Hash,
}

fn group_mode(cq: &CompiledQuery<'_>) -> GroupMode {
    match cq.key.inputs.as_slice() {
        [] => GroupMode::Flat,
        [GroupInput::Code { dict, .. }] if cq.key.null_words == 0 && dict.len() <= DENSE_GROUPS => {
            GroupMode::Dense {
                dict_len: dict.len(),
            }
        }
        _ => GroupMode::Hash,
    }
}

/// Per-morsel partial state, folded in morsel order after the scan.
#[derive(Debug)]
enum Partial {
    Flat(Vec<Acc>),
    Dense { accs: Vec<Acc>, present: Vec<bool> },
    Hash(FxHashMap<Vec<i64>, Vec<Acc>>),
}

/// Ungrouped chunk aggregation over the surviving lanes.
fn accumulate_flat(
    accs: &mut [Acc],
    inputs: &[AggInput<'_>],
    rows: &Rows<'_>,
    sel: &Sel,
    matched: usize,
) {
    let full = matched == rows.len();
    for (acc, input) in accs.iter_mut().zip(inputs) {
        match input {
            AggInput::Star => acc.feed_ones(matched),
            AggInput::NotNull(nulls) => sel.for_each(|i| {
                if !nulls[rows.row(i)] {
                    acc.feed(1.0);
                }
            }),
            AggInput::Int { col, nulls } => match (rows, nulls) {
                (Rows::Dense { start, len }, None) if full => {
                    for v in &col[*start..*start + *len] {
                        acc.feed(*v as f64);
                    }
                }
                _ => sel.for_each(|i| {
                    let r = rows.row(i);
                    if !is_null(nulls, r) {
                        acc.feed(col[r] as f64);
                    }
                }),
            },
            AggInput::Float { col, nulls } => match (rows, nulls) {
                (Rows::Dense { start, len }, None) if full => {
                    for v in &col[*start..*start + *len] {
                        acc.feed(*v);
                    }
                }
                _ => sel.for_each(|i| {
                    let r = rows.row(i);
                    if !is_null(nulls, r) {
                        acc.feed(col[r]);
                    }
                }),
            },
        }
    }
}

/// Dense-grouped chunk aggregation: group slot looked up by dictionary
/// code, memory charged per group the first time it appears in this
/// partial.
fn accumulate_dense(
    accs: &mut [Acc],
    present: &mut [bool],
    cq: &CompiledQuery<'_>,
    rows: &Rows<'_>,
    sel: &Sel,
    charge: &SharedCharge<'_>,
) -> Result<(), ExecError> {
    let GroupInput::Code { codes, .. } = &cq.key.inputs[0] else {
        unreachable!("dense grouping is only chosen for a single code column");
    };
    let n_accs = cq.inputs.len();
    sel.try_for_each(|i| {
        let r = rows.row(i);
        let g = codes[r] as usize;
        if !present[g] {
            charge.charge(group_state_bytes(1, n_accs))?;
            present[g] = true;
        }
        let slot = &mut accs[g * n_accs..(g + 1) * n_accs];
        for (acc, input) in slot.iter_mut().zip(&cq.inputs) {
            if let Some(v) = input.value(r) {
                acc.feed(v);
            }
        }
        Ok(())
    })
}

/// Hash-grouped chunk aggregation (composite or high-cardinality keys).
fn accumulate_hash(
    map: &mut FxHashMap<Vec<i64>, Vec<Acc>>,
    key_buf: &mut Vec<i64>,
    cq: &CompiledQuery<'_>,
    rows: &Rows<'_>,
    sel: &Sel,
    charge: &SharedCharge<'_>,
) -> Result<(), ExecError> {
    let n_accs = cq.inputs.len();
    sel.try_for_each(|i| {
        let r = rows.row(i);
        cq.key.fill(r, key_buf);
        let accs = match map.get_mut(key_buf.as_slice()) {
            Some(accs) => accs,
            None => {
                charge.charge(group_state_bytes(key_buf.len(), n_accs))?;
                map.entry(key_buf.clone())
                    .or_insert_with(|| vec![Acc::new(); n_accs])
            }
        };
        for (acc, input) in accs.iter_mut().zip(&cq.inputs) {
            if let Some(v) = input.value(r) {
                acc.feed(v);
            }
        }
        Ok(())
    })
}

/// Process one morsel: chunked predicate evaluation + aggregation into a
/// fresh partial. Polls the cancel token at every chunk boundary and
/// publishes progress as it goes.
fn run_morsel(
    m: Morsel,
    ids: Option<&[u32]>,
    cq: &CompiledQuery<'_>,
    mode: &GroupMode,
    opts: &ExecOptions<'_>,
    progress: &mut Progress<'_>,
    charge: &SharedCharge<'_>,
) -> Result<Partial, ExecError> {
    let n_accs = cq.inputs.len();
    let mut partial = match mode {
        GroupMode::Flat => Partial::Flat(vec![Acc::new(); n_accs]),
        GroupMode::Dense { dict_len } => Partial::Dense {
            accs: vec![Acc::new(); dict_len * n_accs],
            present: vec![false; *dict_len],
        },
        GroupMode::Hash => Partial::Hash(FxHashMap::default()),
    };
    let mut key_buf: Vec<i64> = Vec::with_capacity(cq.key.len());
    let mut pos = m.start;
    while pos < m.end {
        if let Some(t) = opts.cancel {
            if t.should_stop() {
                return Err(ExecError::Cancelled);
            }
        }
        let end = (pos + CHUNK_ROWS).min(m.end);
        let rows = Rows::at(ids, pos, end);
        let len = end - pos;
        let mut sel = Sel::all(len);
        for pred in &cq.preds {
            if !sel.any() {
                break;
            }
            pred.apply(&rows, &mut sel);
        }
        let matched = sel.count();
        if matched > 0 {
            match &mut partial {
                Partial::Flat(accs) => accumulate_flat(accs, &cq.inputs, &rows, &sel, matched),
                Partial::Dense { accs, present } => {
                    accumulate_dense(accs, present, cq, &rows, &sel, charge)?
                }
                Partial::Hash(map) => accumulate_hash(map, &mut key_buf, cq, &rows, &sel, charge)?,
            }
        }
        progress.add(len, matched);
        pos = end;
    }
    Ok(partial)
}

/// Fold partials, in order, into one flat or hashed partial. A scan's
/// per-morsel partials (in morsel order) and a gather's per-shard states
/// (in shard order) go through this same merge, so float sums are
/// deterministic for a given morsel size and shard count. Keys are
/// brought to `cq`'s layout ([`GroupKey::pad`]): a shard without NULLs
/// keys its groups without null words. No memory is charged here: every
/// group was charged when it first appeared.
fn fold(
    cq: &CompiledQuery<'_>,
    parts: impl IntoIterator<Item = Partial>,
) -> Result<Partial, ExecError> {
    let n_accs = cq.inputs.len();
    if cq.key.is_empty() {
        let mut accs = vec![Acc::new(); n_accs];
        for p in parts {
            let Partial::Flat(pa) = p else {
                return Err(ExecError::TypeError(
                    "grouped partials combined into an ungrouped query".into(),
                ));
            };
            for (a, b) in accs.iter_mut().zip(&pa) {
                a.merge(b);
            }
        }
        return Ok(Partial::Flat(accs));
    }
    let mut groups: FxHashMap<Vec<i64>, Vec<Acc>> = FxHashMap::default();
    let mut merge = |mut key: Vec<i64>, pa: &[Acc]| {
        cq.key.pad(&mut key);
        let slot = groups
            .entry(key)
            .or_insert_with(|| vec![Acc::new(); n_accs]);
        for (a, b) in slot.iter_mut().zip(pa) {
            a.merge(b);
        }
    };
    for p in parts {
        match p {
            Partial::Dense { accs, present } => {
                for (g, ok) in present.iter().enumerate() {
                    if *ok {
                        merge(vec![g as i64], &accs[g * n_accs..(g + 1) * n_accs]);
                    }
                }
            }
            Partial::Hash(map) => {
                for (k, pa) in map {
                    merge(k, &pa);
                }
            }
            Partial::Flat(_) => {
                return Err(ExecError::TypeError(
                    "ungrouped partials combined into a grouped query".into(),
                ))
            }
        }
    }
    Ok(Partial::Hash(groups))
}

/// Record abort-path bookkeeping once per execution (the typed-error
/// counter plus the partial-scan accounting) and pass the error through.
fn surface_error(e: ExecError, stats: &ExecStats) -> ExecError {
    match &e {
        ExecError::Cancelled => {
            muve_obs::metrics().counter("dbms.cancelled").incr();
        }
        ExecError::ResourceExhausted { .. } => {
            muve_obs::metrics().counter("dbms.mem_aborts").incr();
        }
        _ => {}
    }
    record_partial_metrics(stats);
    e
}

/// Reject selections containing row ids beyond the table. The scan
/// kernels index column slices by `ids[lane] as usize` without bounds
/// checks (the hot loops trust their source), so ids arriving from
/// external sources — samples, index probes, network callers — are
/// validated once at the entry points instead. Reports the *first*
/// out-of-range id in slice order, so every engine surfaces the same
/// typed error for the same input.
pub(crate) fn validate_selection(table: &Table, ids: &[u32]) -> Result<(), ExecError> {
    let rows = table.num_rows();
    match ids.iter().find(|&&id| id as usize >= rows) {
        Some(&id) => Err(ExecError::SelectionOutOfBounds { id, rows }),
        None => Ok(()),
    }
}

/// Execute `query` against `table` through the batch engine with no
/// access-path choice: `selection` restricts the scan to the given row
/// ids, `None` scans every row and never an index. Ids past the end of
/// the table are rejected with [`ExecError::SelectionOutOfBounds`] (after
/// query compilation, so query-shape errors keep priority). The routed
/// equivalent is a [`crate::exec::ScanRequest`].
pub fn execute_batch(
    table: &Table,
    query: &Query,
    selection: Option<&[u32]>,
    opts: ExecOptions<'_>,
    cfg: &BatchConfig,
) -> Result<ResultSet, ExecError> {
    let cq = CompiledQuery::compile(table, query)?;
    if let Some(ids) = selection {
        validate_selection(table, ids)?;
    }
    run_scan(&cq, query, selection, &opts, cfg)
}

/// The scan half of every execution: run `cq` over the rows at `ids`
/// (`None` = every row of the compiling table), one morsel after another
/// on the caller's thread, and fold the per-morsel partials, in morsel
/// order, into one [`QueryPartials`]. Group state is charged to `charge`
/// as it appears; abort bookkeeping (the typed-error counter,
/// partial-scan accounting) is recorded here, once.
pub(crate) fn scan_partials(
    cq: &CompiledQuery<'_>,
    ids: Option<&[u32]>,
    opts: &ExecOptions<'_>,
    cfg: &BatchConfig,
    charge: &SharedCharge<'_>,
) -> Result<QueryPartials, ExecError> {
    let mut progress = Progress::new(opts.progress);
    let ms = morsels(ids.map_or(cq.n_rows, <[u32]>::len), cfg.morsel_rows);
    let mode = group_mode(cq);
    let mut partials = Vec::with_capacity(ms.len());
    for m in ms {
        match run_morsel(m, ids, cq, &mode, opts, &mut progress, charge) {
            Ok(p) => partials.push(p),
            Err(e) => return Err(surface_error(e, &progress.stats)),
        }
    }
    let state = fold(cq, partials)?;
    Ok(QueryPartials {
        state,
        stats: progress.stats,
    })
}

/// The one finish of every execution: materialize folded partials, charge
/// the result against the governor on top of what `charge` already holds,
/// and record the query's metrics — once per logical query however many
/// scans fed it, which the single-flight tests rely on.
fn finish(
    cq: &CompiledQuery<'_>,
    query: &Query,
    parts: QueryPartials,
    charge: &SharedCharge<'_>,
) -> Result<ResultSet, ExecError> {
    let rs = match parts.state {
        Partial::Flat(accs) => materialize_flat(cq, query, &accs, parts.stats),
        Partial::Hash(groups) => materialize_grouped(cq, query, groups, parts.stats),
        Partial::Dense { .. } => unreachable!("a folded partial is never dense"),
    };
    if let Err(e) = charge.charge(rs.approx_bytes()) {
        muve_obs::metrics().counter("dbms.mem_aborts").incr();
        return Err(e);
    }
    record_query_metrics(&rs.stats);
    Ok(rs)
}

/// [`scan_partials`] then [`finish`] under one memory charge, so the
/// result is charged on top of the group state it was built from; a
/// rejected result still counts the scan's work as a partial scan.
pub(crate) fn run_scan(
    cq: &CompiledQuery<'_>,
    query: &Query,
    ids: Option<&[u32]>,
    opts: &ExecOptions<'_>,
    cfg: &BatchConfig,
) -> Result<ResultSet, ExecError> {
    let charge = SharedCharge::new(opts.mem);
    let parts = scan_partials(cq, ids, opts, cfg, &charge)?;
    let stats = parts.stats;
    finish(cq, query, parts, &charge).inspect_err(|_| record_partial_metrics(&stats))
}

/// Opaque partial-aggregate state of one sub-execution: everything a
/// distributed combiner needs, none of the materialization. Produced by
/// [`ScanRequest::partials`](crate::exec::ScanRequest::partials) on each
/// shard, folded in shard-index order by [`combine_partials`].
/// COUNT/SUM/AVG/MIN/MAX all decompose through it — AVG ships as an exact
/// `(sum, count)` pair and divides only at materialization, so a sharded
/// AVG is the *same* division the single-table path performs. Grouped
/// state is keyed by the composite group key, string parts as dictionary
/// codes of the *compiling* table, so partials from projections of one
/// parent share a key space.
#[derive(Debug)]
pub struct QueryPartials {
    state: Partial,
    stats: ExecStats,
}

impl QueryPartials {
    /// Scan statistics of the sub-execution that produced this state.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }
}

/// Validate `query` against `table` without executing: compile predicates,
/// aggregate inputs, and group keys, surfacing exactly the typed errors
/// execution would. Scatter-gather callers run this once *before* fanning
/// out, so a deterministic query error (unknown column, type mismatch)
/// never masquerades as a replica fault.
pub fn validate_query(table: &Table, query: &Query) -> Result<(), ExecError> {
    CompiledQuery::compile(table, query).map(|_| ())
}

/// Fold sub-execution partials — **in the caller's order, which must be
/// shard-index order for determinism** — into the materialized result the
/// single-table path would have produced. `table` must be the parent the
/// shards were projected from ([`Table::project_rows`]): group keys carry
/// its dictionary codes. Records the query metrics for the one logical
/// query and charges the materialized result against `opts.mem`.
pub fn combine_partials(
    table: &Table,
    query: &Query,
    parts: Vec<QueryPartials>,
    opts: ExecOptions<'_>,
) -> Result<ResultSet, ExecError> {
    let cq = CompiledQuery::compile(table, query)?;
    let mut stats = ExecStats::default();
    for p in &parts {
        stats.rows_scanned += p.stats.rows_scanned;
        stats.rows_matched += p.stats.rows_matched;
    }
    let states = parts.into_iter().map(|p| p.state);
    let state = fold(&cq, states)?;
    let charge = SharedCharge::new(opts.mem);
    finish(&cq, query, QueryPartials { state, stats }, &charge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ScanRequest, ScanRows};
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::value::ColumnType;

    fn table(n: usize) -> Table {
        let schema = Schema::new([
            ("g", ColumnType::Str),
            ("v", ColumnType::Int),
            ("x", ColumnType::Float),
        ]);
        let mut b = Table::builder("t", schema);
        for i in 0..n as i64 {
            b.push_row([
                Value::from(format!("g{}", i % 7)),
                Value::Int(i % 100),
                // Dyadic rationals: exact under any summation order.
                Value::Float(i as f64 / 4.0),
            ]);
        }
        b.build()
    }

    fn run(sql: &str, cfg: &BatchConfig) -> ResultSet {
        let t = table(10_000);
        execute_batch(&t, &parse(sql).unwrap(), None, ExecOptions::default(), cfg).unwrap()
    }

    #[test]
    fn multi_morsel_matches_single_morsel() {
        let queries = [
            "select count(*) from t",
            "select sum(v), avg(x), min(v), max(x) from t where g = 'g3'",
            "select count(*), sum(x) from t where v in (1, 2, 3) group by g",
            "select count(*) from t where v < 37 group by g, v",
        ];
        let one = BatchConfig {
            morsel_rows: usize::MAX,
        };
        for sql in queries {
            for morsel_rows in [1, 64, 257, 4096] {
                let many = BatchConfig { morsel_rows };
                assert_eq!(
                    run(sql, &one),
                    run(sql, &many),
                    "{sql} morsel_rows={morsel_rows}"
                );
            }
        }
    }

    #[test]
    fn selection_source_matches_dense_source() {
        let t = table(5_000);
        let q = parse("select sum(v), count(*) from t where g = 'g1' group by v").unwrap();
        let all: Vec<u32> = (0..5_000).collect();
        let cfg = BatchConfig { morsel_rows: 100 };
        let dense = execute_batch(&t, &q, None, ExecOptions::default(), &cfg).unwrap();
        let ids = execute_batch(&t, &q, Some(&all), ExecOptions::default(), &cfg).unwrap();
        assert_eq!(dense, ids);
    }

    #[test]
    fn progress_reports_full_scan_on_success() {
        let t = table(3_000);
        let q = parse("select count(*) from t where v < 10").unwrap();
        let progress = ScanProgress::new();
        let opts = ExecOptions {
            progress: Some(&progress),
            ..ExecOptions::default()
        };
        let rs = execute_batch(&t, &q, None, opts, &BatchConfig::default()).unwrap();
        assert_eq!(progress.rows_scanned(), 3_000);
        assert_eq!(progress.rows_matched() as usize, rs.stats.rows_matched);
    }

    /// Split `0..n` into `shards` hash-partitioned row-id sets (the same
    /// shape `muve-shard` produces) for partials round-trip tests.
    fn hash_split(n: usize, shards: usize) -> Vec<Vec<u32>> {
        use std::hash::{Hash, Hasher};
        let mut parts = vec![Vec::new(); shards];
        for i in 0..n {
            let mut h = rustc_hash::FxHasher::default();
            (i as u64).hash(&mut h);
            parts[(h.finish() % shards as u64) as usize].push(i as u32);
        }
        parts
    }

    #[test]
    fn partials_combine_matches_direct() {
        let t = table(10_000);
        let cfg = BatchConfig::default();
        let queries = [
            "select count(*), sum(x), min(v), max(x) from t where g = 'g2'",
            "select avg(x), count(*) from t where v in (3, 4, 5) group by g",
            "select sum(v) from t group by g, v",
        ];
        for sql in queries {
            let q = parse(sql).unwrap();
            let direct = execute_batch(&t, &q, None, ExecOptions::default(), &cfg).unwrap();
            for shards in [1, 2, 3, 5] {
                let parts: Vec<QueryPartials> = hash_split(t.num_rows(), shards)
                    .iter()
                    .map(|rows| {
                        let shard = t.project_rows(rows);
                        ScanRequest::new(ScanRows::All, ExecOptions::default())
                            .partials(&shard, &q)
                            .unwrap()
                    })
                    .collect();
                let combined = combine_partials(&t, &q, parts, ExecOptions::default()).unwrap();
                assert_eq!(direct, combined, "{sql} shards={shards}");
            }
        }
    }

    /// The AVG decomposition pitfall: averaging per-shard averages is wrong
    /// under skew and inexact regardless. Partials carry (sum, count) pairs
    /// and divide once at materialization, so a sharded AVG over a
    /// NULL-bearing float column is bit-identical to the unsharded one.
    #[test]
    fn sharded_avg_bit_identical_with_nulls() {
        let schema = Schema::new([("g", ColumnType::Str), ("x", ColumnType::Float)]);
        let mut b = Table::builder("t", schema);
        for i in 0..5_000i64 {
            let x = if i % 11 == 0 {
                Value::Null
            } else {
                // Dyadic rationals: exact under any summation order.
                Value::Float(i as f64 / 8.0)
            };
            b.push_row([Value::from(format!("g{}", i % 5)), x]);
        }
        let t = b.build();
        let cfg = BatchConfig::default();
        for sql in [
            "select avg(x) from t",
            "select avg(x), count(*) from t group by g",
        ] {
            let q = parse(sql).unwrap();
            let direct = execute_batch(&t, &q, None, ExecOptions::default(), &cfg).unwrap();
            for shards in [2, 4, 7] {
                let parts: Vec<QueryPartials> = hash_split(t.num_rows(), shards)
                    .iter()
                    .map(|rows| {
                        let shard = t.project_rows(rows);
                        ScanRequest::new(ScanRows::All, ExecOptions::default())
                            .partials(&shard, &q)
                            .unwrap()
                    })
                    .collect();
                let combined = combine_partials(&t, &q, parts, ExecOptions::default()).unwrap();
                // PartialEq on Value::Float is bitwise for non-NaN floats:
                // this asserts bit-identity, not approximate equality.
                assert_eq!(direct, combined, "{sql} shards={shards}");
            }
        }
    }

    /// NULL keys are their own group, after every value, on the scan, the
    /// reference and a combine of shards with and without NULLs.
    #[test]
    fn null_group_keys_form_their_own_group() {
        let schema = Schema::new([("g", ColumnType::Str), ("y", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for (g, y) in [
            (None, None),
            (Some("a"), Some(0)),
            (None, None),
            (Some("b"), Some(7)),
            (None, Some(0)),
        ] {
            b.push_row([
                g.map_or(Value::Null, Value::from),
                y.map_or(Value::Null, Value::Int),
            ]);
        }
        let t = b.build();
        let count = |key: Value, n: i64| vec![key, Value::Int(n)];
        let cases = [
            (
                "select count(*) from t group by g",
                vec![
                    count(Value::from("a"), 1),
                    count(Value::from("b"), 1),
                    count(Value::Null, 3),
                ],
            ),
            (
                "select count(*) from t group by y",
                vec![
                    count(Value::Int(0), 2),
                    count(Value::Int(7), 1),
                    count(Value::Null, 2),
                ],
            ),
        ];
        for (sql, want) in cases {
            let q = parse(sql).unwrap();
            let reference =
                crate::exec::execute_reference(&t, &q, None, ExecOptions::default()).unwrap();
            assert_eq!(reference.rows, want, "{sql}");
            for morsel_rows in [1, 2, MORSEL_ROWS] {
                let cfg = BatchConfig { morsel_rows };
                let got = execute_batch(&t, &q, None, ExecOptions::default(), &cfg).unwrap();
                assert_eq!(got, reference, "{sql} morsel_rows={morsel_rows}");
            }
            // Row 1 alone has no NULLs: its shard keys groups without null
            // words, and the combine pads them.
            for split in [vec![vec![1], vec![0, 2, 3, 4]], hash_split(5, 3)] {
                let parts = split
                    .iter()
                    .map(|rows| {
                        ScanRequest::new(ScanRows::All, ExecOptions::default())
                            .partials(&t.project_rows(rows), &q)
                            .unwrap()
                    })
                    .collect();
                let combined = combine_partials(&t, &q, parts, ExecOptions::default()).unwrap();
                assert_eq!(combined, reference, "{sql} split {split:?}");
            }
        }

        // An all-NULL string column has an empty dictionary: one NULL group.
        let schema = Schema::new([("s", ColumnType::Str)]);
        let mut b = Table::builder("t", schema);
        for _ in 0..3 {
            b.push_row([Value::Null]);
        }
        let t = b.build();
        let q = parse("select count(*) from t group by s").unwrap();
        let rs = execute_batch(
            &t,
            &q,
            None,
            ExecOptions::default(),
            &BatchConfig::default(),
        );
        assert_eq!(rs.unwrap().rows, vec![count(Value::Null, 3)]);
    }

    #[test]
    fn validate_query_surfaces_typed_errors() {
        let t = table(10);
        assert!(validate_query(&t, &parse("select sum(v) from t").unwrap()).is_ok());
        assert!(matches!(
            validate_query(&t, &parse("select sum(nope) from t").unwrap()),
            Err(ExecError::UnknownColumn(_))
        ));
        assert!(matches!(
            validate_query(&t, &parse("select count(*) from elsewhere").unwrap()),
            Err(ExecError::UnknownTable(_))
        ));
    }

    #[test]
    fn sel_bitmap_edges() {
        for len in [0, 1, 63, 64, 65, CHUNK_ROWS - 1, CHUNK_ROWS] {
            let sel = Sel::all(len);
            assert_eq!(sel.count(), len, "len={len}");
            let mut seen = Vec::new();
            sel.for_each(|i| seen.push(i));
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len={len}");
        }
        let mut sel = Sel::all(130);
        sel.retain(|i| i % 3 == 0);
        assert_eq!(sel.count(), 44);
        let mut seen = Vec::new();
        sel.for_each(|i| seen.push(i));
        assert!(seen.iter().all(|i| i % 3 == 0));
    }

    #[test]
    fn code_set_matches_in_list_membership() {
        // A 200-entry dictionary spans four bitset words; every ninth row
        // is NULL and matches nothing.
        let schema = Schema::new([("s", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..5_000i64 {
            let s = if i % 9 == 0 {
                Value::Null
            } else {
                Value::from(format!("s{}", i % 200))
            };
            b.push_row([s, Value::Int(i)]);
        }
        let t = b.build();
        let q =
            parse("select count(*), sum(v) from t where s in ('s0', 's63', 's64', 's199', 'nope')")
                .unwrap();
        let hit = |i: i64| i % 9 != 0 && [0, 63, 64, 199].contains(&(i % 200));
        let odd: Vec<u32> = (1..5_000).step_by(2).collect();
        for ids in [None, Some(odd.as_slice())] {
            let rows: Vec<i64> = match ids {
                None => (0..5_000).filter(|&i| hit(i)).collect(),
                Some(ids) => ids
                    .iter()
                    .map(|&i| i64::from(i))
                    .filter(|&i| hit(i))
                    .collect(),
            };
            let rs = execute_batch(&t, &q, ids, ExecOptions::default(), &BatchConfig::default())
                .unwrap();
            assert_eq!(rs.rows[0][0], Value::Int(rows.len() as i64));
            assert_eq!(rs.rows[0][1], Value::Float(rows.iter().sum::<i64>() as f64));
        }
    }
}
