//! Phonetic similarity index.
//!
//! Reproduces the Lucene functionality MUVE relies on (paper §3): given a
//! vocabulary of database element names and constants, return the `k`
//! entries most phonetically similar to a probe fragment. Entries are
//! pre-encoded once; lookups scan candidate buckets keyed by the first code
//! character (a cheap blocking scheme) before falling back to a full scan,
//! so typical lookups touch a fraction of the vocabulary.

use crate::similarity::{key_similarity, PhoneticKey};
use rustc_hash::FxHashMap;

/// One scored match from the index.
#[derive(Debug, Clone, PartialEq)]
pub struct PhoneticMatch {
    /// Index of the entry in insertion order.
    pub entry: usize,
    /// The matched vocabulary string.
    pub text: String,
    /// Phonetic similarity in `[0, 1]`.
    pub similarity: f64,
}

/// An immutable index over a string vocabulary supporting k-most-similar
/// phonetic lookups.
///
/// # Examples
/// ```
/// use muve_phonetics::PhoneticIndex;
/// let idx = PhoneticIndex::build(["Brooklyn", "Queens", "Bronx", "Manhattan"]);
/// let top = idx.top_k("brooklin", 2);
/// assert_eq!(top[0].text, "Brooklyn");
/// assert_eq!(top[0].similarity, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PhoneticIndex {
    entries: Vec<(String, PhoneticKey)>,
    /// Buckets keyed by first primary-code byte (0 = empty code).
    buckets: FxHashMap<u8, Vec<usize>>,
}

impl PhoneticIndex {
    /// Build an index over a vocabulary. Duplicate strings are kept (each
    /// occupies its own entry slot so callers can map entries back to their
    /// own metadata).
    pub fn build<I, S>(vocab: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut entries = Vec::new();
        let mut buckets: FxHashMap<u8, Vec<usize>> = FxHashMap::default();
        for (i, s) in vocab.into_iter().enumerate() {
            let s: String = s.into();
            let key = PhoneticKey::encode(&s);
            for b in bucket_bytes(&key) {
                buckets.entry(b).or_default().push(i);
            }
            entries.push((s, key));
        }
        PhoneticIndex { entries, buckets }
    }

    /// Number of entries in the index.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry text at `i` (insertion order).
    pub fn text(&self, i: usize) -> &str {
        &self.entries[i].0
    }

    /// Return up to `k` entries with the highest phonetic similarity to
    /// `probe`, in descending similarity order (ties broken by entry order).
    pub fn top_k(&self, probe: &str, k: usize) -> Vec<PhoneticMatch> {
        self.top_k_above(probe, k, 0.0)
    }

    /// Like [`top_k`](Self::top_k), but drops matches below `min_similarity`.
    pub fn top_k_above(&self, probe: &str, k: usize, min_similarity: f64) -> Vec<PhoneticMatch> {
        if k == 0 || self.entries.is_empty() {
            return Vec::new();
        }
        let probe_key = PhoneticKey::encode(probe);
        // Candidate set: entries sharing a first code byte with the probe.
        // If that set is small relative to k, fall back to a full scan so we
        // never return fewer than k matches when more exist.
        let mut candidate_ids: Vec<usize> = bucket_bytes(&probe_key)
            .into_iter()
            .flat_map(|b| self.buckets.get(&b).into_iter().flatten().copied())
            .collect();
        candidate_ids.sort_unstable();
        candidate_ids.dedup();
        if candidate_ids.len() < k.min(self.entries.len()) {
            candidate_ids = (0..self.entries.len()).collect();
        }
        // Score and rank (entry, similarity) pairs; only the `k` survivors
        // clone their text.
        let mut scored: Vec<(usize, f64)> = candidate_ids
            .into_iter()
            .map(|i| (i, key_similarity(&probe_key, &self.entries[i].1)))
            .filter(|&(_, similarity)| similarity >= min_similarity)
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(entry, similarity)| PhoneticMatch {
                entry,
                text: self.entries[entry].0.clone(),
                similarity,
            })
            .collect()
    }
}

/// Blocking keys for an entry: first byte of primary and alternate codes.
fn bucket_bytes(key: &PhoneticKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(2);
    out.push(key.primary.bytes().next().unwrap_or(0));
    let alt = key.alternate.bytes().next().unwrap_or(0);
    if alt != out[0] {
        out.push(alt);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boroughs() -> PhoneticIndex {
        PhoneticIndex::build(["Brooklyn", "Queens", "Bronx", "Manhattan", "Staten Island"])
    }

    #[test]
    fn exact_probe_ranks_first() {
        let idx = boroughs();
        let top = idx.top_k("Queens", 3);
        assert_eq!(top[0].text, "Queens");
        assert_eq!(top[0].similarity, 1.0);
    }

    #[test]
    fn misspelled_probe_recovers() {
        let idx = boroughs();
        assert_eq!(idx.top_k("brooklin", 1)[0].text, "Brooklyn");
        assert_eq!(idx.top_k("manhatten", 1)[0].text, "Manhattan");
        assert_eq!(idx.top_k("kweens", 1)[0].text, "Queens");
    }

    #[test]
    fn k_limits_results() {
        let idx = boroughs();
        assert_eq!(idx.top_k("bronx", 2).len(), 2);
        assert_eq!(idx.top_k("bronx", 100).len(), 5);
        assert!(idx.top_k("bronx", 0).is_empty());
    }

    #[test]
    fn descending_order() {
        let idx = boroughs();
        let top = idx.top_k("brooklyn", 5);
        for w in top.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
    }

    #[test]
    fn threshold_filters() {
        let idx = boroughs();
        let strict = idx.top_k_above("brooklyn", 5, 0.95);
        assert!(strict.iter().all(|m| m.similarity >= 0.95));
        assert!(strict.len() < 5);
    }

    #[test]
    fn empty_index() {
        let idx = PhoneticIndex::build(Vec::<String>::new());
        assert!(idx.is_empty());
        assert!(idx.top_k("anything", 3).is_empty());
    }

    #[test]
    fn duplicates_retained() {
        let idx = PhoneticIndex::build(["dup", "dup", "other"]);
        assert_eq!(idx.len(), 3);
        let top = idx.top_k("dup", 3);
        assert_eq!(top[0].similarity, 1.0);
        assert_eq!(top[1].similarity, 1.0);
        assert_eq!((top[0].entry, top[1].entry), (0, 1));
    }

    #[test]
    fn full_scan_fallback_fills_k() {
        // Probe phonetically unlike every entry still returns k results.
        let idx = boroughs();
        let top = idx.top_k("zzzzz", 4);
        assert_eq!(top.len(), 4);
    }

    #[test]
    fn entry_text_accessor() {
        let idx = boroughs();
        assert_eq!(idx.text(0), "Brooklyn");
        assert_eq!(idx.text(4), "Staten Island");
    }
}
