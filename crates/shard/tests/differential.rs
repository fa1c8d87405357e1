//! Acceptance differential for sharded execution, through `muve-testkit`'s
//! path registry.
//!
//! For random NULL-bearing tables and random queries, sharded execution
//! at any `N×R` layout must answer exactly as the reference executor —
//! bit-identical, since the tables' floats are dyadic — with the routed
//! run's stats, and stay so with one replica of every shard dead, every
//! shard served by the survivors (no `Missing`, no error). A sampled
//! gather must realize the unsharded sample's fraction to the bit.
//! Cancellation and a 1-byte memory cap abort every layout as they abort
//! the reference.

use muve_testkit::{candidate_queries, random_table, Family, Registry, Scan};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sharded_is_bit_identical_to_single_table() {
    let mut rng = StdRng::seed_from_u64(0x5A4D);
    for round in 0..3 {
        let table = random_table(&mut rng, 1500 + round * 700);
        let queries = candidate_queries(&mut rng, 8);
        let reg = Registry::new(&table, &[Family::Sharded]);
        reg.check_answers(&queries, &Scan::all());
        reg.check_aborts(&queries, &Scan::all());
    }
}

#[test]
fn one_dead_replica_per_shard_changes_nothing() {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let table = random_table(&mut rng, 2500);
    let queries = candidate_queries(&mut rng, 10);
    // In the `*.0:down` layout replica 0 of EVERY shard is dead from the
    // first sub-query on.
    let reg = Registry::new(&table, &[Family::Sharded]);
    reg.check_answers(&queries, &Scan::all());
    // The breaker must have isolated the dead replicas by now.
    let snap = reg.down_stats();
    assert!(snap.replica_trips >= 4, "{snap:?}");
    assert_eq!(snap.shards_missing, 0, "{snap:?}");
    // Aborted gathers leave shards unanswered, so they come last.
    reg.check_aborts(&queries, &Scan::all());
}

#[test]
fn sampled_sharded_matches_unsharded_sampling_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let table = random_table(&mut rng, 4000);
    let queries = candidate_queries(&mut rng, 6);
    let reg = Registry::new(&table, &[Family::SampledShards]);
    for (i, q) in queries.iter().enumerate() {
        for fraction in [0.05, 0.25, 1.0] {
            let scan = Scan {
                ids: None,
                fraction,
                seed: 31 * i as u64 + 7,
            };
            reg.check_answers(std::slice::from_ref(q), &scan);
            reg.check_aborts(std::slice::from_ref(q), &scan);
        }
    }
}
