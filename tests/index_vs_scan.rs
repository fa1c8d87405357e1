//! Acceptance differential for the secondary-index subsystem, through
//! `muve-testkit`'s path registry: on random tables whose high-cardinality
//! `hub` column makes the planner take the index, the forced scan, the
//! routed path, merged execution and sharded scatter-gather (per-shard
//! indexes over the parent's dictionaries) answer as the reference, and a
//! pre-cancelled token or 1-byte memory cap aborts them alike. Cache
//! epoch stamping ([`SessionCaches::set_table`]) must eagerly drop indexes
//! built for replaced tables (`index.stale_drops`).

use muve::dbms::{
    choose_access_path, index_registry, parse, plan_group_paths, plan_merged, AccessPath,
    CostParams, ExecOptions, Query, ScanRequest, ScanRows,
};
use muve::obs::metrics;
use muve::pipeline::SessionCaches;
use muve::shard::{ShardExecOptions, ShardSet, ShardSpec};
use muve_testkit::{candidate_queries, random_table, Family, Registry, Scan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: the forced batch scan and the routed (index-probing)
    /// path answer as the reference for any random table/query pair —
    /// and the planner really does pick the index for the selective ones.
    #[test]
    fn routed_index_path_matches_reference(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, 1_500 + (seed as usize % 700));
        let queries = candidate_queries(&mut rng, 16);
        let hits_before = metrics().counter("index.hits").get();
        let indexed = queries
            .iter()
            .map(|q| choose_access_path(&table, q, &CostParams::default()))
            .filter(|path| matches!(path, AccessPath::IndexScan { .. }))
            .count();
        let reg = Registry::new(&table, &[Family::Batch, Family::Routed]);
        reg.check_answers(&queries, &Scan::all());
        prop_assert!(indexed > 0, "sweep never exercised the index path");
        prop_assert!(
            metrics().counter("index.hits").get() > hits_before,
            "planner chose the index but execution never probed it"
        );
    }
}

#[test]
fn merged_groups_ride_the_index_and_match_direct_execution() {
    let mut rng = StdRng::seed_from_u64(0x1DEA);
    let table = random_table(&mut rng, 4_000);
    // Four count queries differing only in the hub literal: one merge
    // group, rewritten to an IN + GROUP BY whose combined selectivity
    // (4/240 ≈ 1.7%) still sits under the planner's ~2.4% crossover, so
    // the whole group is served from one index probe.
    let sql = |i| format!("select count(*) from t where hub = 'v{:03}'", 17 + 31 * i);
    let queries: Vec<Query> = (0..4).map(|i| parse(&sql(i)).unwrap()).collect();
    let groups = plan_merged(&queries);
    assert_eq!(groups.len(), 1, "identical-shape queries must merge");
    let paths = plan_group_paths(&table, &groups, &CostParams::default());
    assert!(
        matches!(paths[0], AccessPath::IndexScan { .. }),
        "merged group should be index-served: {paths:?}"
    );
    let reg = Registry::new(&table, &[Family::Merged]);
    reg.check_answers(&queries, &Scan::all());
    reg.check_aborts(&queries, &Scan::all());
}

#[test]
fn sharded_with_index_is_bit_identical_to_routed_single_table() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let table = random_table(&mut rng, 3_000);
    let queries = candidate_queries(&mut rng, 8);
    // Every gather equals the routed run, `rows_scanned` included: per-shard
    // indexes over the parent's dictionaries make the same index choice.
    let reg = Registry::new(&table, &[Family::Routed, Family::Sharded]);
    reg.check_answers(&queries, &Scan::all());
}

#[test]
fn robustness_hooks_are_path_independent() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let table = random_table(&mut rng, 2_000);
    let q = parse("select sum(f) from t where hub = 'v042'").unwrap();
    assert!(matches!(
        choose_access_path(&table, &q, &CostParams::default()),
        AccessPath::IndexScan { .. }
    ));
    // Pre-cancelled token: the routed path degrades to the scan and
    // surfaces the canonical Cancelled error. 1-byte memory cap: any index
    // build/probe charge fails, the planner falls back to the scan, and
    // the scan's own governor abort surfaces. Both identical to the
    // reference path's error.
    let reg = Registry::new(&table, &[Family::Routed]);
    reg.check_aborts(&[q], &Scan::all());
    assert!(
        !index_registry().has_table(table.fingerprint()),
        "a 1-byte cap must not leave a partially charged index behind"
    );
}

#[test]
fn cache_epoch_stamping_drops_indexes_for_replaced_tables() {
    let mut rng = StdRng::seed_from_u64(0xE90C);
    let old = random_table(&mut rng, 2_000);
    let new = random_table(&mut rng, 2_000);
    let q = parse("select count(*) from t where hub = 'v007'").unwrap();
    let routed = |t| ScanRequest::new(ScanRows::All, ExecOptions::default()).run(t, &q);

    let caches = SessionCaches::new(1 << 20);
    caches.set_table(&old);
    // Routed execution lazily builds the index for `old`.
    routed(&old).unwrap();
    assert!(index_registry().has_table(old.fingerprint()));

    // Reload: the epoch stamp must eagerly drop the stale index.
    let drops_before = metrics().counter("index.stale_drops").get();
    caches.set_table(&new);
    assert!(!index_registry().has_table(old.fingerprint()));
    assert!(metrics().counter("index.stale_drops").get() > drops_before);

    // Post-reload answers come from the new table's own (fresh) index.
    Registry::new(&new, &[Family::Routed]).check_answers(std::slice::from_ref(&q), &Scan::all());

    // Sharded stamping covers per-shard tables too.
    let parent = random_table(&mut rng, 2_000);
    let set = ShardSet::build(Arc::clone(&parent), ShardSpec::new(2, 1));
    caches.set_shards(&set);
    set.execute(&q, ShardExecOptions::default()).unwrap();
    let shard_fp = set.shard_table(0).fingerprint();
    assert!(index_registry().has_table(shard_fp));
    caches.set_table(&new);
    assert!(
        !index_registry().has_table(shard_fp),
        "replacing a shard set must drop per-shard indexes"
    );
    index_registry().drop_tables(&[new.fingerprint()]);
}
