//! Inverted secondary indexes with adaptive access-path selection.
//!
//! Every predicate in the MUVE workload is equality/`IN` over
//! dictionary-coded string columns — the ideal case for an inverted
//! index: one posting list of row ids per dictionary code. This module
//! provides exactly that, built **lazily** on the first qualifying
//! predicate and kept in a process-global registry keyed by
//! [`Table::fingerprint`], so the existing cache-invalidation machinery
//! (epoch stamping in the pipeline's `SessionCaches`) drops stale indexes
//! by fingerprint with no new protocol.
//!
//! Posting lists are density-adaptive: codes matching few rows store a
//! sorted `u32` list, codes matching many rows store a dense bitmap
//! (chosen per code at `count > rows/32`, the break-even of `4·count`
//! list bytes against `rows/8` bitmap bytes). Index *results* feed the
//! batch engine as an ordinary row-id selection (`Rows::Ids`), so every
//! vectorized kernel, cancellation stride, and memory-accounting path is
//! reused unchanged — the index only shrinks the row set the engine sees.
//!
//! Robustness mirrors the executor's contracts: builds poll the
//! cancellation token every [`CANCEL_STRIDE`] rows and charge their exact
//! footprint against the memory governor *before* allocating, and an
//! aborted build stores nothing — there is no partial-index state to
//! serve. When the governor rejects a build, execution silently falls
//! back to the scan path (`index.mem_fallbacks`), so a query can always
//! run in less memory than the index would need.

use crate::ast::{PredOp, Query};
use crate::column::ColumnData;
use crate::cost::{choose_access_path, AccessPath, CostParams};
use crate::exec::{
    check_cancel, record_partial_metrics, ExecError, ExecOptions, ExecStats, CANCEL_STRIDE,
};
use crate::table::Table;
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default byte cap for the process-global index registry.
const DEFAULT_CAP_BYTES: usize = 512 << 20;

/// A compressed row-id posting list for one dictionary code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Postings {
    /// Sorted, duplicate-free row ids — compact for selective codes.
    Ids(Vec<u32>),
    /// Dense bitmap over all rows — compact once a code matches more
    /// than `rows/32` rows.
    Bitmap {
        /// One bit per row, little-endian within each word.
        words: Vec<u64>,
        /// Number of set bits.
        count: usize,
    },
}

impl Postings {
    /// Number of rows in this posting list.
    pub fn len(&self) -> usize {
        match self {
            Postings::Ids(v) => v.len(),
            Postings::Bitmap { count, .. } => *count,
        }
    }

    /// Whether the posting list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by this posting list.
    fn bytes(&self) -> usize {
        match self {
            Postings::Ids(v) => v.capacity() * 4,
            Postings::Bitmap { words, .. } => words.capacity() * 8,
        }
    }

    /// Append all row ids, in ascending order, to `out`.
    fn extend_ids(&self, out: &mut Vec<u32>) {
        match self {
            Postings::Ids(v) => out.extend_from_slice(v),
            Postings::Bitmap { words, .. } => words_to_ids(words, out),
        }
    }

    /// Whether `id` is in this posting list: an O(1) bit test on bitmaps,
    /// a binary search on id lists.
    fn contains(&self, id: u32) -> bool {
        match self {
            Postings::Ids(v) => v.binary_search(&id).is_ok(),
            Postings::Bitmap { words, .. } => {
                let w = (id / 64) as usize;
                w < words.len() && (words[w] >> (id % 64)) & 1 == 1
            }
        }
    }

    /// OR this posting list into a word-level bitmap accumulator sized
    /// for the table's rows.
    fn or_into(&self, acc: &mut [u64]) {
        match self {
            Postings::Ids(v) => {
                for &id in v {
                    acc[(id / 64) as usize] |= 1u64 << (id % 64);
                }
            }
            Postings::Bitmap { words, .. } => {
                for (a, w) in acc.iter_mut().zip(words) {
                    *a |= w;
                }
            }
        }
    }
}

/// Decode the set bits of a row bitmap into ascending row ids.
fn words_to_ids(words: &[u64], out: &mut Vec<u32>) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros();
            out.push((w * 64) as u32 + b);
            bits &= bits - 1;
        }
    }
}

/// Bytes-and-variant plan for one code, fixed by the counts pass so the
/// governor charge is exact before anything is allocated.
#[inline]
fn repr_is_bitmap(count: usize, rows: usize) -> bool {
    count > rows / 32
}

/// An inverted index over one dictionary-coded column: `postings[code]`
/// lists every non-NULL row whose value interned to `code`. NULL string
/// rows store code 0 in the column (aliasing the first interned string),
/// so the build consults the column's null mask and excludes them —
/// matching the scan kernels, which also reject NULL rows.
#[derive(Debug)]
pub struct ColumnIndex {
    postings: Vec<Postings>,
    bytes: usize,
}

impl ColumnIndex {
    /// Build the inverted index for string column `column` of `table`.
    ///
    /// Two passes: a counts pass sizes every posting list (and picks its
    /// representation), then the exact total footprint is charged against
    /// the memory governor before the fill pass allocates anything. Both
    /// passes poll the cancellation token every [`CANCEL_STRIDE`] rows;
    /// any abort returns the typed error with nothing built — the
    /// no-partial-index guarantee is structural, not a cleanup path.
    pub fn build(
        table: &Table,
        column: &str,
        opts: &ExecOptions<'_>,
    ) -> Result<ColumnIndex, ExecError> {
        let col = table
            .column_by_name(column)
            .ok_or_else(|| ExecError::UnknownColumn(column.to_owned()))?;
        let ColumnData::Str { codes, dict } = col.data() else {
            return Err(ExecError::TypeError(format!(
                "index over non-string column {column:?}"
            )));
        };
        let nulls = col.null_slice();
        let rows = codes.len();
        let mut counts = vec![0usize; dict.len()];
        for (row, &code) in codes.iter().enumerate() {
            if row % CANCEL_STRIDE == 0 {
                check_cancel(opts.cancel)?;
            }
            if !nulls.is_empty() && nulls[row] {
                continue;
            }
            counts[code as usize] += 1;
        }
        // Exact footprint of what the fill pass will allocate.
        let words_len = rows.div_ceil(64);
        let mut bytes = counts.len() * std::mem::size_of::<Postings>();
        for &c in &counts {
            bytes += if repr_is_bitmap(c, rows) {
                words_len * 8
            } else {
                c * 4
            };
        }
        // Transient governor charge covering the build; the *retained*
        // footprint is accounted by the registry's own byte cap.
        if let Some(m) = opts.mem {
            m.try_charge(bytes).map_err(ExecError::from)?;
        }
        let filled = Self::fill(codes, nulls, &counts, rows, words_len, opts);
        if let Some(m) = opts.mem {
            m.release(bytes);
        }
        let postings = filled?;
        let bytes = postings.len() * std::mem::size_of::<Postings>()
            + postings.iter().map(Postings::bytes).sum::<usize>();
        muve_obs::metrics().counter("index.builds").incr();
        Ok(ColumnIndex { postings, bytes })
    }

    fn fill(
        codes: &[u32],
        nulls: &[bool],
        counts: &[usize],
        rows: usize,
        words_len: usize,
        opts: &ExecOptions<'_>,
    ) -> Result<Vec<Postings>, ExecError> {
        let mut postings: Vec<Postings> = counts
            .iter()
            .map(|&c| {
                if repr_is_bitmap(c, rows) {
                    Postings::Bitmap {
                        words: vec![0u64; words_len],
                        count: c,
                    }
                } else {
                    Postings::Ids(Vec::with_capacity(c))
                }
            })
            .collect();
        for (row, &code) in codes.iter().enumerate() {
            if row % CANCEL_STRIDE == 0 {
                check_cancel(opts.cancel)?;
            }
            if !nulls.is_empty() && nulls[row] {
                continue;
            }
            match &mut postings[code as usize] {
                Postings::Ids(v) => v.push(row as u32),
                Postings::Bitmap { words, .. } => words[row / 64] |= 1 << (row % 64),
            }
        }
        Ok(postings)
    }

    /// Posting list for `code` (`None` when the code is out of range).
    pub fn postings(&self, code: u32) -> Option<&Postings> {
        self.postings.get(code as usize)
    }

    /// Heap bytes retained by this index.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

struct TableEntry {
    name: String,
    rows: usize,
    columns: FxHashMap<String, Arc<ColumnIndex>>,
    bytes: usize,
    last_touch: u64,
}

/// Status of one indexed table, as reported by [`IndexRegistry::status`].
#[derive(Debug, Clone)]
pub struct IndexStatus {
    /// Table name at build time.
    pub table: String,
    /// Content fingerprint the index is keyed by.
    pub fingerprint: u64,
    /// Rows in the indexed table.
    pub rows: usize,
    /// `(column, retained bytes)` per built column index.
    pub columns: Vec<(String, usize)>,
}

/// Process-global registry of lazily built column indexes, keyed by
/// [`Table::fingerprint`] so distinct table versions never share an
/// index. Bounded by a byte cap with least-recently-touched eviction;
/// the pipeline's epoch stamping calls [`IndexRegistry::drop_tables`]
/// when a table (or shard set) is replaced, firing `index.stale_drops`.
pub struct IndexRegistry {
    enabled: AtomicBool,
    cap_bytes: AtomicUsize,
    clock: AtomicU64,
    total_bytes: AtomicUsize,
    inner: Mutex<FxHashMap<u64, TableEntry>>,
}

impl IndexRegistry {
    fn new() -> IndexRegistry {
        IndexRegistry {
            enabled: AtomicBool::new(true),
            cap_bytes: AtomicUsize::new(DEFAULT_CAP_BYTES),
            clock: AtomicU64::new(0),
            total_bytes: AtomicUsize::new(0),
            inner: Mutex::new(FxHashMap::default()),
        }
    }

    /// Whether index-accelerated execution is enabled (`\index on|off`).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enable or disable index-accelerated execution. Disabling keeps
    /// built indexes resident (re-enabling is instant); use
    /// [`IndexRegistry::clear`] to also free them.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Byte cap for retained indexes.
    pub fn cap_bytes(&self) -> usize {
        self.cap_bytes.load(Ordering::Relaxed)
    }

    /// Set the byte cap (eviction applies on the next insert).
    pub fn set_cap_bytes(&self, cap: usize) {
        self.cap_bytes.store(cap, Ordering::Relaxed);
    }

    /// Total bytes currently retained.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    fn set_total(&self, bytes: usize) {
        self.total_bytes.store(bytes, Ordering::Relaxed);
        muve_obs::metrics().gauge("index.bytes").set(bytes as i64);
    }

    /// The index for `(table, column)`, building it on first use.
    ///
    /// The build runs *outside* the registry lock; when two threads race,
    /// the first insert wins and the loser's work is dropped without
    /// being double-counted. Build aborts (cancellation, memory) return
    /// the typed error and leave the registry untouched.
    pub fn get_or_build(
        &self,
        table: &Table,
        column: &str,
        opts: &ExecOptions<'_>,
    ) -> Result<Arc<ColumnIndex>, ExecError> {
        let fp = table.fingerprint();
        let touch = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(entry) = inner.get_mut(&fp) {
                entry.last_touch = touch;
                if let Some(idx) = entry.columns.get(column) {
                    return Ok(Arc::clone(idx));
                }
            }
        }
        let built = Arc::new(ColumnIndex::build(table, column, opts)?);
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.entry(fp).or_insert_with(|| TableEntry {
            name: table.name().to_owned(),
            rows: table.num_rows(),
            columns: FxHashMap::default(),
            bytes: 0,
            last_touch: touch,
        });
        entry.last_touch = touch;
        let idx = match entry.columns.get(column) {
            // Lost the race: serve the winner, drop our build.
            Some(winner) => Arc::clone(winner),
            None => {
                entry.bytes += built.bytes();
                entry.columns.insert(column.to_owned(), Arc::clone(&built));
                built
            }
        };
        let total: usize = inner.values().map(|e| e.bytes).sum();
        self.set_total(total);
        self.evict_over_cap(&mut inner, fp);
        Ok(idx)
    }

    /// Evict least-recently-touched tables (never `keep`) until the total
    /// fits the cap.
    fn evict_over_cap(&self, inner: &mut FxHashMap<u64, TableEntry>, keep: u64) {
        let cap = self.cap_bytes();
        while self.total_bytes() > cap {
            let victim = inner
                .iter()
                .filter(|(fp, _)| **fp != keep)
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(fp, _)| *fp);
            let Some(fp) = victim else { break };
            if let Some(e) = inner.remove(&fp) {
                muve_obs::metrics().counter("index.evictions").incr();
                self.set_total(self.total_bytes().saturating_sub(e.bytes));
            }
        }
    }

    /// Drop every index built for the given table fingerprints (stale
    /// epochs after a table reload). Returns how many tables actually
    /// had indexes; each fires `index.stale_drops`.
    pub fn drop_tables(&self, fingerprints: &[u64]) -> usize {
        let mut inner = self.inner.lock().unwrap();
        let mut dropped = 0;
        for fp in fingerprints {
            if let Some(e) = inner.remove(fp) {
                muve_obs::metrics().counter("index.stale_drops").incr();
                self.set_total(self.total_bytes().saturating_sub(e.bytes));
                dropped += 1;
            }
        }
        dropped
    }

    /// Drop every index and reset the byte gauge.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.clear();
        self.set_total(0);
    }

    /// Whether the registry holds any index for `fingerprint`.
    pub fn has_table(&self, fingerprint: u64) -> bool {
        self.inner.lock().unwrap().contains_key(&fingerprint)
    }

    /// Snapshot of every indexed table, sorted by table name then
    /// fingerprint, columns sorted by name.
    pub fn status(&self) -> Vec<IndexStatus> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<IndexStatus> = inner
            .iter()
            .map(|(fp, e)| {
                let mut columns: Vec<(String, usize)> = e
                    .columns
                    .iter()
                    .map(|(c, i)| (c.clone(), i.bytes()))
                    .collect();
                columns.sort();
                IndexStatus {
                    table: e.name.clone(),
                    fingerprint: *fp,
                    rows: e.rows,
                    columns,
                }
            })
            .collect();
        out.sort_by(|a, b| (&a.table, a.fingerprint).cmp(&(&b.table, b.fingerprint)));
        out
    }
}

/// The process-global index registry.
pub fn index_registry() -> &'static IndexRegistry {
    static REGISTRY: OnceLock<IndexRegistry> = OnceLock::new();
    REGISTRY.get_or_init(IndexRegistry::new)
}

/// The indexable predicates of `query`: `(column, resolved codes)` per
/// equality/`IN` predicate over string literals on a dictionary column.
/// Codes are sorted and duplicate-free (duplicate `IN` members must not
/// duplicate rows in the union). Empty when no predicate is indexable.
fn indexable_preds(table: &Table, query: &Query) -> Vec<(String, Vec<u32>)> {
    let mut out = Vec::new();
    for pred in &query.predicates {
        let Some(dict) = table
            .column_by_name(&pred.column)
            .and_then(|c| c.dictionary())
        else {
            continue;
        };
        let codes = match &pred.op {
            PredOp::Eq(Value::Str(s)) => dict.code_of(s).into_iter().collect::<Vec<u32>>(),
            PredOp::In(vs) if vs.iter().all(|v| matches!(v, Value::Str(_))) => {
                let mut codes: Vec<u32> = vs
                    .iter()
                    .filter_map(|v| match v {
                        Value::Str(s) => dict.code_of(s),
                        _ => None,
                    })
                    .collect();
                codes.sort_unstable();
                codes.dedup();
                codes
            }
            _ => continue,
        };
        out.push((pred.column.clone(), codes));
    }
    out
}

/// Sorted row ids matching one indexable predicate: the union of the
/// posting lists of its codes. Codes are disjoint, so a small union
/// concatenates then sorts; a large one ORs into a word bitmap and
/// decodes, sidestepping the `O(n log n)` sort entirely.
fn pred_row_set(
    idx: &ColumnIndex,
    codes: &[u32],
    rows: usize,
    opts: &ExecOptions<'_>,
) -> Result<Vec<u32>, ExecError> {
    let mut out = Vec::new();
    match codes {
        [] => {}
        [one] => {
            if let Some(p) = idx.postings(*one) {
                out.reserve_exact(p.len());
                p.extend_ids(&mut out);
            }
        }
        many => {
            let total: usize = many
                .iter()
                .filter_map(|&c| idx.postings(c))
                .map(Postings::len)
                .sum();
            out.reserve_exact(total);
            if total > rows / 16 {
                let mut acc = vec![0u64; rows.div_ceil(64)];
                for &code in many {
                    check_cancel(opts.cancel)?;
                    if let Some(p) = idx.postings(code) {
                        p.or_into(&mut acc);
                    }
                }
                words_to_ids(&acc, &mut out);
            } else {
                for &code in many {
                    check_cancel(opts.cancel)?;
                    if let Some(p) = idx.postings(code) {
                        p.extend_ids(&mut out);
                    }
                }
                out.sort_unstable();
            }
        }
    }
    Ok(out)
}

/// Force an index probe for `query`: build (or fetch) the column indexes
/// its indexable predicates need and return the sorted candidate row-id
/// list, bypassing the planner. `Ok(None)` when no predicate is
/// indexable. Used by the CLI's `\index build`, the benchmark harness,
/// and tests; normal execution probes through a
/// [`ScanRows::All`](crate::exec::ScanRows::All) request, which adds the
/// planner gate and fallback semantics.
pub fn probe_candidates(
    table: &Table,
    query: &Query,
    opts: &ExecOptions<'_>,
) -> Result<Option<Vec<u32>>, ExecError> {
    let preds = indexable_preds(table, query);
    if preds.is_empty() {
        return Ok(None);
    }
    // Fetch (or lazily build) each predicate's index and size its row
    // set from the posting-list counts alone — nothing materializes yet.
    let mut entries = Vec::with_capacity(preds.len());
    for (column, codes) in &preds {
        check_cancel(opts.cancel)?;
        let idx = index_registry().get_or_build(table, column, opts)?;
        let size: usize = codes
            .iter()
            .filter_map(|&c| idx.postings(c))
            .map(Postings::len)
            .sum();
        if size == 0 {
            return Ok(Some(Vec::new()));
        }
        entries.push((idx, codes, size));
    }
    // Intersect smallest-first so the running candidate set only
    // shrinks. A dense smallest set stays in bitmap form and every
    // further predicate is ANDed word-wise (row ids decode exactly
    // once, at the end); a sparse one materializes its ids and filters
    // them by posting-list membership (a bit test or a binary search
    // per candidate). Either way the probe's cost tracks the smallest
    // set, never the sum of all sets.
    let rows = table.num_rows();
    entries.sort_by_key(|e| e.2);
    let (first, rest) = entries.split_first().expect("preds is non-empty");
    if first.2 > rows / 32 && !rest.is_empty() {
        let mut acc = vec![0u64; rows.div_ceil(64)];
        for &code in first.1 {
            if let Some(p) = first.0.postings(code) {
                p.or_into(&mut acc);
            }
        }
        let mut mask = Vec::new();
        for (idx, codes, _) in rest {
            check_cancel(opts.cancel)?;
            muve_obs::metrics().counter("index.intersections").incr();
            let single_bitmap = match codes.as_slice() {
                [one] => match idx.postings(*one) {
                    Some(Postings::Bitmap { words, .. }) => Some(words),
                    _ => None,
                },
                _ => None,
            };
            if let Some(words) = single_bitmap {
                for (a, w) in acc.iter_mut().zip(words) {
                    *a &= w;
                }
            } else {
                // Sparse or multi-code predicate: OR its postings into a
                // scratch mask, then AND.
                mask.clear();
                mask.resize(acc.len(), 0);
                for &code in codes.iter() {
                    if let Some(p) = idx.postings(code) {
                        p.or_into(&mut mask);
                    }
                }
                for (a, m) in acc.iter_mut().zip(&mask) {
                    *a &= m;
                }
            }
        }
        let mut candidates = Vec::new();
        words_to_ids(&acc, &mut candidates);
        return Ok(Some(candidates));
    }
    let mut candidates = pred_row_set(&first.0, first.1, rows, opts)?;
    for (idx, codes, _) in rest {
        check_cancel(opts.cancel)?;
        muve_obs::metrics().counter("index.intersections").incr();
        candidates.retain(|&id| {
            codes
                .iter()
                .any(|&c| idx.postings(c).is_some_and(|p| p.contains(id)))
        });
        if candidates.is_empty() {
            break;
        }
    }
    Ok(Some(candidates))
}

/// Planner-gated index probe: the index-vs-scan choice of a
/// [`ScanRows::All`](crate::exec::ScanRows::All) request, which is its
/// only caller and has already compiled the query (so a query error
/// surfaces before any probe).
///
/// Returns `Ok(Some(ids))` only when the index path is both *chosen*
/// (cost model) and *serviceable*; every degraded condition returns
/// `Ok(None)` so the request falls back to the batch scan, which then
/// surfaces the canonical error or result. Concretely:
///
/// - registry disabled, planner prefers the scan, or no indexable
///   predicate → `Ok(None)`;
/// - token already fired → `Ok(None)` (the scan path surfaces the
///   canonical [`ExecError::Cancelled`] with its usual metrics);
/// - the governor rejects the build or the candidate list →
///   `index.mem_fallbacks` + `Ok(None)` — the scan needs less transient
///   memory, so degrading is strictly safer;
/// - the token fires *mid*-build/probe → `Err(Cancelled)` with the
///   executor's partial-scan accounting (nothing partial is retained).
pub(crate) fn index_candidates(
    table: &Table,
    query: &Query,
    opts: &ExecOptions<'_>,
) -> Result<Option<Vec<u32>>, ExecError> {
    let reg = index_registry();
    if !reg.enabled() {
        return Ok(None);
    }
    if opts.cancel.is_some_and(|t| t.should_stop()) {
        return Ok(None);
    }
    match choose_access_path(table, query, &CostParams::default()) {
        AccessPath::BatchScan => return Ok(None),
        AccessPath::IndexScan { .. } => {}
    }
    match probe_candidates(table, query, opts) {
        Ok(Some(ids)) => {
            // Transient charge for the candidate list itself: if even
            // that does not fit, degrade to the scan path.
            if let Some(m) = opts.mem {
                if m.try_charge(ids.len() * 4).is_err() {
                    muve_obs::metrics().counter("index.mem_fallbacks").incr();
                    return Ok(None);
                }
                m.release(ids.len() * 4);
            }
            let obs = muve_obs::metrics();
            obs.counter("index.hits").incr();
            obs.counter("index.residual_rows").add(ids.len() as u64);
            Ok(Some(ids))
        }
        Ok(None) => Ok(None),
        Err(ExecError::ResourceExhausted { .. }) => {
            muve_obs::metrics().counter("index.mem_fallbacks").incr();
            Ok(None)
        }
        Err(e @ ExecError::Cancelled) => {
            // Mid-probe abort: account it exactly like an aborted scan
            // that visited zero rows (`check_cancel` already counted
            // `dbms.cancelled`).
            record_partial_metrics(&ExecStats::default());
            Err(e)
        }
        Err(e) => Err(e),
    }
}

/// Build indexes for every dictionary-coded column of `table`, returning
/// `(column, retained bytes)` per index. Used by the CLI's
/// `\index build`.
pub fn build_indexes(
    table: &Table,
    opts: &ExecOptions<'_>,
) -> Result<Vec<(String, usize)>, ExecError> {
    let mut out = Vec::new();
    let names: Vec<String> = table.schema().names().map(str::to_owned).collect();
    for name in &names {
        let is_str = table
            .column_by_name(name)
            .is_some_and(|c| c.dictionary().is_some());
        if !is_str {
            continue;
        }
        let idx = index_registry().get_or_build(table, name, opts)?;
        out.push((name.clone(), idx.bytes()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::schema::Schema;
    use crate::value::{ColumnType, Value};
    use muve_obs::{CancelToken, MemBudget};

    fn table(rows: usize, distinct: usize, nulls: bool) -> Table {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..rows {
            let k = if nulls && i % 5 == 0 {
                Value::Null
            } else {
                Value::from(format!("k{}", i % distinct))
            };
            b.push_row([k, Value::from(i as i64)]);
        }
        b.build()
    }

    #[test]
    fn postings_match_scan_semantics_with_nulls() {
        // NULL rows push code 0 (aliasing "k1", the first interned
        // string here): the index must not list them, matching the
        // kernels' null-mask check.
        let t = table(1000, 10, true);
        let idx = ColumnIndex::build(&t, "k", &ExecOptions::default()).unwrap();
        let ColumnData::Str { codes, dict } = t.column_by_name("k").unwrap().data() else {
            unreachable!()
        };
        let nulls = t.column_by_name("k").unwrap().null_slice();
        for code in 0..dict.len() as u32 {
            let mut want: Vec<u32> = Vec::new();
            for (row, &c) in codes.iter().enumerate() {
                if c == code && !nulls[row] {
                    want.push(row as u32);
                }
            }
            let mut got = Vec::new();
            idx.postings(code).unwrap().extend_ids(&mut got);
            assert_eq!(got, want, "code {code}");
        }
    }

    #[test]
    fn density_picks_bitmap_for_common_codes() {
        // 2 distinct over 10k rows: both codes way past rows/32.
        let t = table(10_000, 2, false);
        let idx = ColumnIndex::build(&t, "k", &ExecOptions::default()).unwrap();
        assert!(matches!(idx.postings(0), Some(Postings::Bitmap { .. })));
        // 500 distinct over 10k rows: 20 rows per code, under 10k/32.
        let t = table(10_000, 500, false);
        let idx = ColumnIndex::build(&t, "k", &ExecOptions::default()).unwrap();
        assert!(matches!(idx.postings(0), Some(Postings::Ids(_))));
        // Bitmap and list round-trip identically.
        let dense = table(2000, 3, false);
        let di = ColumnIndex::build(&dense, "k", &ExecOptions::default()).unwrap();
        let mut ids = Vec::new();
        di.postings(1).unwrap().extend_ids(&mut ids);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids.len(), di.postings(1).unwrap().len());
    }

    #[test]
    fn probe_intersects_multiple_predicates() {
        let schema = Schema::new([("a", ColumnType::Str), ("b", ColumnType::Str)]);
        let mut b = Table::builder("t", schema);
        for i in 0..400 {
            b.push_row([
                Value::from(format!("a{}", i % 4)),
                Value::from(format!("b{}", i % 5)),
            ]);
        }
        let t = b.build();
        let q = parse("select count(*) from t where a = 'a1' and b = 'b2'").unwrap();
        let ids = probe_candidates(&t, &q, &ExecOptions::default())
            .unwrap()
            .unwrap();
        let want: Vec<u32> = (0..400u32).filter(|i| i % 4 == 1 && i % 5 == 2).collect();
        assert_eq!(ids, want);
    }

    #[test]
    fn in_with_duplicate_members_does_not_duplicate_rows() {
        let t = table(100, 4, false);
        let q = parse("select count(*) from t where k in ('k1','k1','k2')").unwrap();
        let ids = probe_candidates(&t, &q, &ExecOptions::default())
            .unwrap()
            .unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn unresolved_literal_probes_to_empty() {
        let t = table(100, 4, false);
        let q = parse("select count(*) from t where k = 'nope'").unwrap();
        assert_eq!(
            probe_candidates(&t, &q, &ExecOptions::default()).unwrap(),
            Some(Vec::new())
        );
    }

    #[test]
    fn registry_drops_stale_fingerprints() {
        let reg = index_registry();
        let t = table(512, 4, false);
        let _ = reg.get_or_build(&t, "k", &ExecOptions::default()).unwrap();
        assert!(reg.has_table(t.fingerprint()));
        let before = muve_obs::metrics().counter("index.stale_drops").get();
        assert_eq!(reg.drop_tables(&[t.fingerprint()]), 1);
        assert!(!reg.has_table(t.fingerprint()));
        assert_eq!(
            muve_obs::metrics().counter("index.stale_drops").get(),
            before + 1
        );
        // Dropping an unknown fingerprint is a no-op, not a counter hit.
        assert_eq!(reg.drop_tables(&[t.fingerprint()]), 0);
    }

    #[test]
    fn build_respects_memory_governor() {
        let t = table(50_000, 8, false);
        let mem = MemBudget::new(64, None);
        let opts = ExecOptions {
            mem: Some(&mem),
            ..ExecOptions::default()
        };
        match ColumnIndex::build(&t, "k", &opts) {
            Err(ExecError::ResourceExhausted { global: false, .. }) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(mem.used(), 0, "aborted build releases its charge");
    }

    #[test]
    fn cancelled_build_stores_nothing() {
        let t = table(100_000, 8, false);
        index_registry().drop_tables(&[t.fingerprint()]);
        let token = CancelToken::never();
        token.cancel();
        let opts = ExecOptions {
            cancel: Some(&token),
            ..ExecOptions::default()
        };
        let err = index_registry().get_or_build(&t, "k", &opts).unwrap_err();
        assert_eq!(err, ExecError::Cancelled);
        assert!(
            !index_registry().has_table(t.fingerprint()),
            "no partial index may ever be visible"
        );
    }

    #[test]
    fn eviction_respects_cap_and_keeps_current() {
        let reg = IndexRegistry::new();
        reg.set_cap_bytes(1); // everything but the newest must go
        let a = table(2048, 4, false);
        let b = {
            let schema = Schema::new([("k", ColumnType::Str)]);
            let mut bld = Table::builder("u", schema);
            for i in 0..2048 {
                bld.push_row([Value::from(format!("x{}", i % 4))]);
            }
            bld.build()
        };
        reg.get_or_build(&a, "k", &ExecOptions::default()).unwrap();
        reg.get_or_build(&b, "k", &ExecOptions::default()).unwrap();
        assert!(!reg.has_table(a.fingerprint()), "LRU table evicted");
        assert!(reg.has_table(b.fingerprint()), "current table kept");
    }
}
