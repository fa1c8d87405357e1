//! The session cache bundle: the three cache layers plus the
//! single-flight table, shared across workers via `Arc`.
//!
//! One [`SessionCaches`] instance is built per server (or per shell) and
//! attached to every [`crate::Session`] with
//! [`Session::with_caches`](crate::Session::with_caches). Each layer is a
//! plain [`Cache`]; this module alone decides what the session caches —
//! the keys, the byte estimates and the plan layer's offer rule:
//!
//! 1. **candidates** — canonical base-query fingerprint → scored
//!    candidate distribution ([`CandidateKey`]); a hit skips the whole
//!    phonetic beam search *and* the lazy phonetic-index build;
//! 2. **result** — canonical merged-query fingerprint + fidelity →
//!    aggregate [`ResultSet`] ([`ResultKey`]), fronted by a [`SingleFlight`]
//!    table so N concurrent identical misses execute once;
//! 3. **plan** — candidate-distribution fingerprint
//!    ([`distribution_fingerprint`]) → best known plan, seeding the ILP
//!    warm start.
//!
//! All three layers share one table epoch ([`Table::fingerprint`]):
//! [`SessionCaches::set_table`] bumps it, lazily dropping every entry
//! computed against the old data. The dbms-level inverted-index registry
//! rides the same epoch machinery: each bundle remembers the table
//! fingerprints it stamped and eagerly drops their indexes
//! ([`muve_dbms::IndexRegistry::drop_tables`]) when a reload replaces
//! them — the `index.stale_drops` counter records each such drop.

use muve_cache::{Cache, CacheStats, SingleFlight};
use muve_core::{Candidate, PlanResult, ScreenConfig, UserCostModel};
use muve_dbms::{query_fingerprint, ResultSet, Table};
use muve_nlq::CandidateQuery;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Candidate-layer key for one candidate-generation call.
///
/// Candidate generation is deterministic in the base query, the table
/// content (dictionaries feed the phonetic index), and the `(k,
/// max_candidates)` knobs — so a repeated transcript, or a differently
/// phrased one that translates to the same base query, can reuse the
/// whole phonetic beam search. The fingerprint is taken *with table
/// context*, which both normalizes trivia (identifier case, `=` vs
/// one-element `IN`) and ties the key to dictionary codes. The generator
/// ranks and tie-breaks in predicate order, so two transcripts naming the
/// same predicates in opposite order get different distributions and must
/// not share an entry. Epoch invalidation on table reload handles the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CandidateKey {
    /// [`muve_dbms::query_fingerprint`] of the base query with the target
    /// table as context.
    pub(crate) fingerprint: u64,
    /// [`muve_dbms::predicate_order_fingerprint`] of the base query (same
    /// table context): the order the fingerprint above forgets.
    pub(crate) predicate_order: u64,
    /// Per-element alternative count (`k`).
    pub(crate) k: usize,
    /// Output distribution size cap.
    pub(crate) max_candidates: usize,
}

/// Result-layer key: canonical query fingerprint plus fidelity key.
///
/// The fidelity key encodes exactly which rung of the sample ladder
/// produced the result ([`fidelity_key`]). Matching is strict: a result
/// computed at sample fraction `f` can only ever serve a request that
/// would itself execute at fraction `f` with the same seed, and an exact
/// result only serves exact requests. That makes the degradation-ladder
/// rung-compatibility rule — *caching never silently upgrades or
/// downgrades fidelity* — hold by construction rather than by a runtime
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    /// [`muve_dbms::query_fingerprint`] of the (merged) query, computed
    /// with the target table as context.
    pub(crate) fingerprint: u64,
    /// [`fidelity_key`] of the execution.
    pub(crate) fidelity: u64,
}

/// Fidelity key of an exact (unsampled) execution.
pub(crate) const FIDELITY_EXACT: u64 = u64::MAX;

/// The fidelity key for an execution at `fraction` (sample rung) with
/// `seed`, or [`FIDELITY_EXACT`] for a full scan. Sampled rungs fold the
/// exact fraction bits and the seed together so distinct rungs — or the
/// same rung under a different seed — never share a key.
pub(crate) fn fidelity_key(fraction: Option<f64>, seed: u64) -> u64 {
    match fraction {
        None => FIDELITY_EXACT,
        Some(f) => {
            let mut h = rustc_hash::FxHasher::default();
            h.write_u64(f.to_bits());
            h.write_u64(seed);
            // Keep the exact marker reserved for exact scans.
            let v = h.finish();
            if v == FIDELITY_EXACT {
                v ^ 1
            } else {
                v
            }
        }
    }
}

/// Plan-layer key: the fingerprint of a planning problem.
///
/// Planning depends only on the candidate distribution (queries and
/// probabilities), the screen geometry, and the user cost model — not on
/// the table data itself — so a repeated or phonetically identical
/// transcript reproduces the same distribution and can reuse earlier
/// planning work. Every candidate's canonical query fingerprint is hashed
/// with its probability (quantized to 1e-9, so float noise below any
/// behavioral significance does not fragment the cache), then the screen,
/// the model, and a caller-supplied `salt` covering any planner
/// configuration that changes the answer (processing mode, template
/// pruning, ...).
pub(crate) fn distribution_fingerprint(
    candidates: &[Candidate],
    screen: &ScreenConfig,
    model: &UserCostModel,
    salt: u64,
) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    h.write_usize(candidates.len());
    for c in candidates {
        h.write_u64(query_fingerprint(&c.query, None));
        h.write_i64((c.probability * 1e9).round() as i64);
    }
    h.write(format!("{screen:?}|{model:?}").as_bytes());
    h.write_u64(salt);
    h.finish()
}

/// Single-flight key: `(table epoch, query fingerprint, fidelity key)`.
/// The epoch is part of the key because the flight table has no epoch
/// machinery of its own — a reload must not join post-reload requests
/// onto a pre-reload leader.
pub(crate) type FlightKey = (u64, u64, u64);

/// Share of the byte budget given to the result layer.
const RESULT_SHARE: f64 = 0.60;
/// Share of the byte budget given to the candidate layer.
const CANDIDATE_SHARE: f64 = 0.25;

/// The shared cache bundle (candidates + results + plans + single-flight).
///
/// Crate code reads the layers directly, but inserts only through
/// `insert_candidates`, `insert_result` and `offer_plan` (which own the
/// byte estimates), and moves the shared epoch only through
/// [`SessionCaches::set_table`] / [`SessionCaches::set_shards`].
#[derive(Debug)]
pub struct SessionCaches {
    pub(crate) candidates: Cache<CandidateKey, Arc<Vec<CandidateQuery>>>,
    pub(crate) results: Cache<ResultKey, Arc<ResultSet>>,
    pub(crate) plans: Cache<u64, PlanResult>,
    /// The single-flight table fronting the result layer.
    pub(crate) flights: SingleFlight<FlightKey, Arc<ResultSet>>,
    epoch: AtomicU64,
    /// Table fingerprints this bundle last stamped — on restamp, any
    /// fingerprint no longer current has its inverted indexes dropped
    /// from the process-wide registry. Only fingerprints *this* bundle
    /// stamped are ever dropped, so parallel bundles (tests, multiple
    /// shells) never thrash each other's indexes.
    index_fps: Mutex<Vec<u64>>,
}

impl SessionCaches {
    /// A cache bundle with `total_bytes` split across the layers
    /// (60% results, 25% candidates, 15% plans). `total_bytes == 0`
    /// disables every layer.
    pub fn new(total_bytes: usize) -> SessionCaches {
        let results = (total_bytes as f64 * RESULT_SHARE) as usize;
        let candidates = (total_bytes as f64 * CANDIDATE_SHARE) as usize;
        let plans = total_bytes.saturating_sub(results + candidates);
        SessionCaches {
            candidates: Cache::new("candidates", candidates),
            results: Cache::new("result", results),
            plans: Cache::new("plan", plans),
            flights: SingleFlight::new(),
            epoch: AtomicU64::new(0),
            index_fps: Mutex::new(Vec::new()),
        }
    }

    /// Cache a candidate distribution, charging its approximate size.
    pub(crate) fn insert_candidates(&self, key: CandidateKey, cands: Arc<Vec<CandidateQuery>>) {
        // Rough heap footprint of a distribution.
        let bytes = 64 + cands.len() * 256;
        self.candidates.insert(key, cands, bytes);
    }

    /// Cache a result, charging its approximate size.
    pub(crate) fn insert_result(&self, key: ResultKey, rs: Arc<ResultSet>) {
        let bytes = rs.approx_bytes();
        self.results.insert(key, rs, bytes);
    }

    /// Record `result` for the planning problem `fingerprint` if it is
    /// worth keeping over `held`, the entry the caller's own lookup
    /// returned: when there was none, when the new plan costs less, or
    /// when it upgrades an unproven plan to proven-optimal. Taking the
    /// held entry from the caller keeps an offer from counting as a
    /// second lookup.
    pub(crate) fn offer_plan(
        &self,
        fingerprint: u64,
        result: &PlanResult,
        held: Option<&PlanResult>,
    ) {
        let better = held.is_none_or(|old| {
            result.expected_cost < old.expected_cost - 1e-9
                || (result.proven_optimal && !old.proven_optimal)
        });
        if better {
            // Rough heap footprint of a plan.
            let m = &result.multiplot;
            let bytes = 128 + m.num_plots() * 96 + m.num_bars() * 48;
            self.plans.insert(fingerprint, result.clone(), bytes);
        }
    }

    /// Stamp `epoch` into every layer and reconcile the index registry:
    /// fingerprints this bundle stamped last time that are absent from
    /// `fps` have their inverted indexes dropped eagerly (the registry is
    /// process-wide and cannot see table reloads on its own).
    fn restamp(&self, epoch: u64, fps: Vec<u64>) {
        self.epoch.store(epoch, Ordering::Release);
        self.candidates.set_epoch(epoch);
        self.results.set_epoch(epoch);
        self.plans.set_epoch(epoch);
        let mut stamped = self.index_fps.lock().unwrap();
        let stale: Vec<u64> = stamped
            .iter()
            .copied()
            .filter(|fp| !fps.contains(fp))
            .collect();
        *stamped = fps;
        drop(stamped);
        if !stale.is_empty() {
            muve_dbms::index_registry().drop_tables(&stale);
        }
    }

    /// Stamp the current table: every layer's epoch becomes the table's
    /// content fingerprint, lazily invalidating entries from other epochs.
    /// Inverted indexes built for the previously stamped table are dropped
    /// from the [`muve_dbms::IndexRegistry`].
    pub fn set_table(&self, table: &Table) {
        let fp = table.fingerprint();
        self.restamp(fp, vec![fp]);
    }

    /// Stamp the caches from a shard set instead of a bare table: the
    /// epoch becomes the combined shard epoch — a hash over every shard
    /// table's content fingerprint plus the shard count. Reloading even a
    /// single shard's data (or changing the partition layout) moves the
    /// epoch, so no entry computed against the old shards is ever served.
    /// Indexes for previously stamped tables (parent or per-shard) that
    /// are not part of the new set are dropped from the registry.
    pub fn set_shards(&self, shards: &muve_shard::ShardSet) {
        let mut fps = Vec::with_capacity(shards.num_shards() + 1);
        fps.push(shards.parent().fingerprint());
        for s in 0..shards.num_shards() {
            fps.push(shards.shard_table(s).fingerprint());
        }
        self.restamp(shards.epoch(), fps);
    }

    /// The current table epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Drop every entry in every layer (the epoch is kept).
    pub fn clear(&self) {
        self.candidates.clear();
        self.results.clear();
        self.plans.clear();
    }

    /// Per-layer statistics snapshot.
    pub fn stats(&self) -> CachesReport {
        CachesReport {
            candidates: self.candidates.stats(),
            results: self.results.stats(),
            plans: self.plans.stats(),
            singleflight_leads: self.flights.leads(),
            singleflight_waits: self.flights.waits(),
        }
    }
}

/// A point-in-time snapshot of every cache layer, for the `\cache`
/// command and tests.
#[derive(Debug, Clone, Copy)]
pub struct CachesReport {
    /// Candidate-layer statistics.
    pub candidates: CacheStats,
    /// Result-layer statistics.
    pub results: CacheStats,
    /// Plan-layer statistics.
    pub plans: CacheStats,
    /// Single-flight executions led.
    pub singleflight_leads: u64,
    /// Single-flight waits joined onto a leader.
    pub singleflight_waits: u64,
}

impl std::fmt::Display for CachesReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "candidates   {}", self.candidates)?;
        writeln!(f, "results      {}", self.results)?;
        writeln!(f, "plans        {}", self.plans)?;
        write!(
            f,
            "single-flight: {} led, {} waited",
            self.singleflight_leads, self.singleflight_waits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_core::{plan, Planner};
    use muve_dbms::{
        parse, predicate_order_fingerprint, Aggregate, ColumnType, Query, Schema, Value,
    };
    use muve_nlq::CandidateGenerator;

    fn table(seed: i64) -> Table {
        let schema = Schema::new([("k", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        b.push_row([Value::from("a"), Value::from(seed)]);
        b.build()
    }

    #[test]
    fn set_table_bumps_every_layer() {
        let caches = SessionCaches::new(1 << 20);
        let a = table(1);
        caches.set_table(&a);
        assert_eq!(caches.epoch(), a.fingerprint());
        let b = table(2);
        caches.set_table(&b);
        assert_eq!(caches.epoch(), b.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn roundtrip_with_epoch_invalidation() {
        let caches = SessionCaches::new(1 << 20);
        let a = table(1);
        caches.set_table(&a);

        let q = Query::scalar("t", Aggregate::count_star());
        let rs = Arc::new(muve_dbms::execute(&a, &q).unwrap());
        let key = ResultKey {
            fingerprint: query_fingerprint(&q, Some(&a)),
            fidelity: FIDELITY_EXACT,
        };
        assert!(caches.results.get(&key).is_none());
        caches.insert_result(key, Arc::clone(&rs));
        assert_eq!(caches.results.get(&key).unwrap().scalar(), rs.scalar());

        // Reload: the new epoch drops the entry lazily.
        let b = table(2);
        caches.set_table(&b);
        assert_eq!(caches.epoch(), b.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(caches.results.get(&key).is_none());
        assert_eq!(caches.stats().results.stale, 1);
    }

    #[test]
    fn fidelity_keys_separate_rungs_and_seeds() {
        assert_eq!(fidelity_key(None, 1), fidelity_key(None, 2));
        assert_ne!(fidelity_key(Some(0.01), 1), FIDELITY_EXACT);
        assert_ne!(fidelity_key(Some(0.01), 1), fidelity_key(Some(0.05), 1));
        assert_ne!(fidelity_key(Some(0.01), 1), fidelity_key(Some(0.01), 2));
        assert_eq!(fidelity_key(Some(0.01), 7), fidelity_key(Some(0.01), 7));
    }

    #[test]
    fn distribution_roundtrip_and_knobs_separate_keys() {
        let schema = Schema::new([("borough", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for bo in ["Brooklyn", "Queens"] {
            b.push_row([bo.into(), Value::Int(1)]);
        }
        let table = b.build();
        let base = parse("select count(*) from t where borough = 'Brooklyn'").unwrap();
        let cands = Arc::new(CandidateGenerator::new(&table).candidates(&base, 20, 10));

        let caches = SessionCaches::new(1 << 20);
        caches.set_table(&table);
        let key = CandidateKey {
            fingerprint: query_fingerprint(&base, Some(&table)),
            predicate_order: predicate_order_fingerprint(&base, Some(&table)),
            k: 20,
            max_candidates: 10,
        };
        assert!(caches.candidates.get(&key).is_none());
        caches.insert_candidates(key, Arc::clone(&cands));
        assert_eq!(*caches.candidates.get(&key).unwrap(), *cands);

        // Different knobs are different cache entries.
        let other = CandidateKey {
            max_candidates: 5,
            ..key
        };
        assert!(caches.candidates.get(&other).is_none());
    }

    fn cands(probs: &[f64]) -> Vec<Candidate> {
        probs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Candidate::new(
                    parse(&format!("select sum(v) from t where k = 'x{i}'")).unwrap(),
                    p,
                )
            })
            .collect()
    }

    #[test]
    fn fingerprint_tracks_distribution_and_config() {
        let screen = ScreenConfig::iphone(1);
        let model = UserCostModel::default();
        let a = distribution_fingerprint(&cands(&[0.6, 0.4]), &screen, &model, 0);
        let b = distribution_fingerprint(&cands(&[0.6, 0.4]), &screen, &model, 0);
        assert_eq!(a, b, "same problem, same fingerprint");
        let c = distribution_fingerprint(&cands(&[0.7, 0.3]), &screen, &model, 0);
        assert_ne!(a, c, "probabilities matter");
        let d = distribution_fingerprint(&cands(&[0.6, 0.4]), &screen, &model, 1);
        assert_ne!(a, d, "salt matters");
        let e = distribution_fingerprint(&cands(&[0.6, 0.4]), &ScreenConfig::iphone(2), &model, 0);
        assert_ne!(a, e, "screen matters");
    }

    #[test]
    fn offer_keeps_the_better_plan() {
        let screen = ScreenConfig::iphone(1);
        let model = UserCostModel::default();
        let candidates = cands(&[0.6, 0.4]);
        let result = plan(&Planner::Greedy, &candidates, &screen, &model);
        let fp = distribution_fingerprint(&candidates, &screen, &model, 0);

        let caches = SessionCaches::new(1 << 20);
        assert!(caches.plans.get(&fp).is_none());
        caches.offer_plan(fp, &result, None);
        let held = caches.plans.get(&fp).expect("cached");
        assert_eq!(held.multiplot, result.multiplot);

        // A strictly worse plan does not displace the incumbent.
        let worse = PlanResult {
            expected_cost: result.expected_cost + 10.0,
            ..result.clone()
        };
        caches.offer_plan(fp, &worse, Some(&held));
        assert!(
            (caches.plans.get(&fp).unwrap().expected_cost - result.expected_cost).abs() < 1e-12
        );

        // Equal cost but proven optimal upgrades the entry.
        let proven = PlanResult {
            proven_optimal: true,
            ..result.clone()
        };
        caches.offer_plan(fp, &proven, Some(&held));
        assert!(caches.plans.get(&fp).unwrap().proven_optimal);
    }

    #[test]
    fn set_shards_stamps_combined_shard_epoch() {
        use muve_shard::{ShardSet, ShardSpec};
        use std::sync::Arc;

        let caches = SessionCaches::new(1 << 20);
        let t = Arc::new(table(1));
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(2, 1));
        caches.set_shards(&set);
        assert_eq!(caches.epoch(), set.epoch());
        assert_ne!(
            caches.epoch(),
            t.fingerprint(),
            "shard epoch is layout-aware, not the parent fingerprint"
        );
        // A different layout over the same data is a different epoch.
        let other = ShardSet::build(Arc::clone(&t), ShardSpec::new(3, 1));
        caches.set_shards(&other);
        assert_eq!(caches.epoch(), other.epoch());
        assert_ne!(set.epoch(), other.epoch());
    }

    #[test]
    fn set_table_drops_stale_indexes() {
        use muve_dbms::{index_registry, ExecOptions};

        let caches = SessionCaches::new(1 << 20);
        let a = table(10);
        let b = table(11);
        caches.set_table(&a);
        index_registry()
            .get_or_build(&a, "k", &ExecOptions::default())
            .unwrap();
        assert!(index_registry().has_table(a.fingerprint()));

        let drops_before = muve_obs::metrics().counter("index.stale_drops").get();
        caches.set_table(&b);
        assert!(
            !index_registry().has_table(a.fingerprint()),
            "reload must evict the old table's indexes"
        );
        assert!(
            muve_obs::metrics().counter("index.stale_drops").get() > drops_before,
            "stale drop must be observable"
        );
        // Re-stamping the same table is a no-op: nothing new to drop.
        index_registry()
            .get_or_build(&b, "k", &ExecOptions::default())
            .unwrap();
        caches.set_table(&b);
        assert!(index_registry().has_table(b.fingerprint()));
        index_registry().drop_tables(&[b.fingerprint()]);
    }

    #[test]
    fn set_shards_tracks_parent_and_shard_indexes() {
        use muve_dbms::{index_registry, ExecOptions};
        use muve_shard::{ShardSet, ShardSpec};
        use std::sync::Arc;

        let caches = SessionCaches::new(1 << 20);
        let t = Arc::new(table(20));
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(2, 1));
        caches.set_shards(&set);
        let shard_fp = set.shard_table(0).fingerprint();
        index_registry()
            .get_or_build(&set.shard_table(0), "k", &ExecOptions::default())
            .unwrap();
        assert!(index_registry().has_table(shard_fp));

        // Replacing the shard set with a plain table drops shard indexes.
        let replacement = table(21);
        caches.set_table(&replacement);
        assert!(
            !index_registry().has_table(shard_fp),
            "shard reload must evict per-shard indexes"
        );
    }

    #[test]
    fn report_renders() {
        let caches = SessionCaches::new(1 << 20);
        let text = caches.stats().to_string();
        assert!(text.contains("candidates"), "{text}");
        assert!(text.contains("single-flight"), "{text}");
    }

    #[test]
    fn zero_budget_disables_layers() {
        let caches = SessionCaches::new(0);
        let t = table(1);
        caches.set_table(&t);
        let key = ResultKey {
            fingerprint: 1,
            fidelity: FIDELITY_EXACT,
        };
        assert!(caches.results.get(&key).is_none());
        assert_eq!(caches.stats().results.lookups, 0, "disabled: not counted");
    }
}
