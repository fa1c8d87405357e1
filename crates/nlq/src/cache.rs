//! The candidate cache: canonical base-query fingerprint → scored
//! candidate distribution.
//!
//! Candidate generation is deterministic in the base query, the table
//! content (dictionaries feed the phonetic index), and the `(k,
//! max_candidates)` knobs — so a repeated transcript, or a differently
//! phrased one that translates to the same base query, can reuse the
//! whole phonetic beam search. Keys use
//! [`muve_dbms::query_fingerprint`] *with table context*, which both
//! normalizes trivia (identifier case, `=` vs one-element `IN`) and ties
//! the key to dictionary codes, plus
//! [`muve_dbms::predicate_order_fingerprint`]: the generator ranks and
//! tie-breaks in predicate order, so two transcripts naming the same
//! predicates in opposite order get different distributions and must not
//! share an entry. Epoch invalidation on table reload handles the rest.

use crate::candidates::CandidateQuery;
use muve_cache::{Cache, CacheStats};
use std::sync::Arc;

/// Cache key for one candidate-generation call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CandidateKey {
    /// [`muve_dbms::query_fingerprint`] of the base query with the target
    /// table as context.
    pub fingerprint: u64,
    /// [`muve_dbms::predicate_order_fingerprint`] of the base query (same
    /// table context): the order the fingerprint above forgets.
    pub predicate_order: u64,
    /// Per-element alternative count (`k`).
    pub k: usize,
    /// Output distribution size cap.
    pub max_candidates: usize,
}

/// Rough heap footprint of a cached distribution.
fn distribution_bytes(cands: &[CandidateQuery]) -> usize {
    64 + cands.len() * 256
}

/// A byte-bounded cache of candidate distributions keyed by
/// [`CandidateKey`].
#[derive(Debug)]
pub struct CandidateCache {
    cache: Cache<CandidateKey, Arc<Vec<CandidateQuery>>>,
}

impl CandidateCache {
    /// A candidate cache bounded by `max_bytes` (0 disables it).
    pub fn new(max_bytes: usize) -> CandidateCache {
        CandidateCache {
            cache: Cache::new("candidates", max_bytes),
        }
    }

    /// Cached distribution for `key`, if fresh.
    pub fn get(&self, key: &CandidateKey) -> Option<Arc<Vec<CandidateQuery>>> {
        self.cache.get(key)
    }

    /// Insert a distribution, recording the measured generation cost for
    /// cost-aware eviction.
    pub fn insert(&self, key: CandidateKey, cands: Arc<Vec<CandidateQuery>>, cost_us: u64) {
        let bytes = distribution_bytes(&cands);
        self.cache.insert(key, cands, bytes, cost_us);
    }

    /// Bump the table epoch (see [`Cache::set_epoch`]).
    pub fn set_epoch(&self, epoch: u64) {
        self.cache.set_epoch(epoch);
    }

    /// Drop every entry.
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// Local statistics.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateGenerator;
    use muve_dbms::{
        parse, predicate_order_fingerprint, query_fingerprint, ColumnType, Schema, Table,
    };

    #[test]
    fn distribution_roundtrip_and_knobs_separate_keys() {
        let schema = Schema::new([("borough", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for bo in ["Brooklyn", "Queens"] {
            b.push_row([bo.into(), muve_dbms::Value::Int(1)]);
        }
        let table = b.build();
        let base = parse("select count(*) from t where borough = 'Brooklyn'").unwrap();
        let cands = Arc::new(CandidateGenerator::new(&table).candidates(&base, 20, 10));

        let cache = CandidateCache::new(1 << 20);
        cache.set_epoch(table.fingerprint());
        let key = CandidateKey {
            fingerprint: query_fingerprint(&base, Some(&table)),
            predicate_order: predicate_order_fingerprint(&base, Some(&table)),
            k: 20,
            max_candidates: 10,
        };
        assert!(cache.get(&key).is_none());
        cache.insert(key, Arc::clone(&cands), 100);
        assert_eq!(*cache.get(&key).unwrap(), *cands);

        // Different knobs are different cache entries.
        let other = CandidateKey {
            max_candidates: 5,
            ..key
        };
        assert!(cache.get(&other).is_none());
    }
}
