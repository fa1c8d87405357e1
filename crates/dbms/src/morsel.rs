//! Morsel splitting for batch scans.
//!
//! The batch engine splits a scan into fixed-size *morsels* (64K rows) and
//! runs them in order on the caller's thread. A morsel is the unit of
//! partial-accumulator state: each one fills a fresh partial, and the
//! partials fold in morsel order, which is also the order a gather folds
//! per-shard partials in. Cancellation is polled inside a morsel,
//! at every chunk, so abort latency stays bounded by one chunk of work.

/// Rows per morsel: the granularity of partial accumulators. Large
/// enough that per-morsel setup (a fresh partial, one fold step)
/// vanishes against the scan work.
pub const MORSEL_ROWS: usize = 64 * 1024;

/// One unit of scan work: a half-open row range of the scan source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Index of this morsel within the scan (partials are combined in
    /// this order).
    pub index: usize,
    /// First row (inclusive).
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

/// Split `n_rows` rows into morsels of at most `morsel_rows` rows.
pub fn morsels(n_rows: usize, morsel_rows: usize) -> Vec<Morsel> {
    let morsel_rows = morsel_rows.max(1);
    let mut out = Vec::with_capacity(n_rows.div_ceil(morsel_rows));
    let mut start = 0;
    let mut index = 0;
    while start < n_rows {
        let end = (start + morsel_rows).min(n_rows);
        out.push(Morsel { index, start, end });
        start = end;
        index += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_split_covers_rows_exactly() {
        let ms = morsels(200_000, MORSEL_ROWS);
        assert_eq!(ms.len(), 4);
        assert_eq!(ms[0].start, 0);
        assert_eq!(ms.last().unwrap().end, 200_000);
        for w in ms.windows(2) {
            assert_eq!(w[0].end, w[1].start);
            assert_eq!(w[0].index + 1, w[1].index);
        }
        assert!(morsels(0, MORSEL_ROWS).is_empty());
        assert_eq!(morsels(1, MORSEL_ROWS).len(), 1);
        assert_eq!(morsels(MORSEL_ROWS, MORSEL_ROWS).len(), 1);
        assert_eq!(morsels(MORSEL_ROWS + 1, MORSEL_ROWS).len(), 2);
    }
}
