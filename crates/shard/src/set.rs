//! Hash partitioning and the replicated shard set.
//!
//! A [`ShardSet`] splits one parent [`Table`] into `N` hash-partitioned
//! shard tables ([`Table::project_rows`] keeps the parent's dictionary
//! codes, so grouped partials combine exactly) and spawns `R` replica
//! worker threads per shard. The replicas of a shard are threads over
//! one shared, immutable shard table — in-process replication buys
//! execution-level redundancy (a panicking, stalled, or killed worker),
//! not storage redundancy — and each worker owns its own bounded job
//! queue, health state, and fault hooks, so one replica's demise never
//! takes its siblings down. The `N`×`R` layout is fixed at build.

use crate::exec::{worker_main, Job};
use crate::fault::ShardFaultInjector;
use crate::stats::ShardStats;
use muve_dbms::Table;
use muve_obs::{Breaker, BreakerConfig};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound of each replica's dispatch queue. A slow replica's queue fills
/// to this depth and further dispatches are *shed* (typed per-replica
/// overload, counted in `shard.replica_queue_shed` and fed to the breaker)
/// instead of growing without limit.
const REPLICA_QUEUE_CAP: usize = 128;

/// Tuning of every replica's breaker: 3 consecutive failures trip a
/// replica to suspect, and it rests 250 ms before its single probe.
pub(crate) const REPLICA_BREAKER: BreakerConfig = BreakerConfig {
    failure_threshold: 3,
    cooldown: Duration::from_millis(250),
};

/// Shape of a shard set.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Number of hash partitions (N ≥ 1).
    pub shards: usize,
    /// Replicas per shard (R ≥ 1).
    pub replicas: usize,
}

impl ShardSpec {
    /// A `shards`×`replicas` topology (each clamped to at least 1).
    pub fn new(shards: usize, replicas: usize) -> ShardSpec {
        ShardSpec {
            shards: shards.max(1),
            replicas: replicas.max(1),
        }
    }
}

/// Deterministically hash-partition row ids `0..n_rows` into `shards`
/// buckets. Each bucket is sorted ascending (the construction visits rows
/// in order), which the sampled scatter path relies on for its
/// merge-intersection with systematic row ids.
pub(crate) fn partition_rows(n_rows: usize, shards: usize) -> Vec<Vec<u32>> {
    let shards = shards.max(1);
    let mut parts: Vec<Vec<u32>> = vec![Vec::with_capacity(n_rows / shards + 1); shards];
    for i in 0..n_rows {
        let mut h = rustc_hash::FxHasher::default();
        (i as u64).hash(&mut h);
        parts[(h.finish() % shards as u64) as usize].push(i as u32);
    }
    parts
}

/// One shard's data: the projected table and the sorted global row ids it
/// holds.
#[derive(Debug)]
pub(crate) struct ShardData {
    pub(crate) table: Arc<Table>,
    pub(crate) rows: Vec<u32>,
}

/// One replica's live half: its bounded job queue, liveness flag, and
/// breaker. Dropping it disconnects the queue and lets the worker thread
/// drain out.
#[derive(Debug)]
pub(crate) struct Replica {
    pub(crate) tx: mpsc::SyncSender<Job>,
    pub(crate) dead: Arc<AtomicBool>,
    /// Closed = healthy (routable), open = suspect (probe or last resort).
    pub(crate) health: Arc<Breaker>,
}

/// A replicated, hash-partitioned execution backend over one parent
/// table.
#[derive(Debug)]
pub struct ShardSet {
    pub(crate) parent: Arc<Table>,
    pub(crate) shards: Vec<ShardData>,
    /// `replicas[s][r]`: replica `r` of shard `s`.
    pub(crate) replicas: Vec<Vec<Replica>>,
    /// Per-shard rotation counters for read load-balancing.
    pub(crate) rr: Vec<AtomicUsize>,
    pub(crate) stats: Arc<ShardStats>,
    threads: Vec<JoinHandle<()>>,
}

impl ShardSet {
    /// Partition `parent` and spawn the replica workers, fault-free.
    pub fn build(parent: Arc<Table>, spec: ShardSpec) -> ShardSet {
        ShardSet::build_with_faults(parent, spec, ShardFaultInjector::none())
    }

    /// [`build`](Self::build) with replica-level fault injection armed.
    pub fn build_with_faults(
        parent: Arc<Table>,
        spec: ShardSpec,
        injector: ShardFaultInjector,
    ) -> ShardSet {
        let spec = ShardSpec::new(spec.shards, spec.replicas);
        let stats = Arc::new(ShardStats::new());
        let injector = Arc::new(injector);
        let shards: Vec<ShardData> = partition_rows(parent.num_rows(), spec.shards)
            .into_iter()
            .map(|rows| ShardData {
                table: Arc::new(parent.project_rows(&rows)),
                rows,
            })
            .collect();
        let mut threads = Vec::with_capacity(spec.shards * spec.replicas);
        let replicas = shards
            .iter()
            .enumerate()
            .map(|(s, shard)| {
                (0..spec.replicas)
                    .map(|r| {
                        let (tx, rx) = mpsc::sync_channel::<Job>(REPLICA_QUEUE_CAP);
                        let dead = Arc::new(AtomicBool::new(false));
                        let health = Arc::new(Breaker::new(REPLICA_BREAKER));
                        let ctx = (
                            Arc::clone(&shard.table),
                            Arc::clone(&dead),
                            Arc::clone(&health),
                            Arc::clone(&stats),
                            Arc::clone(&injector),
                        );
                        let join = std::thread::Builder::new()
                            .name(format!("muve-shard-s{s}r{r}"))
                            .spawn(move || {
                                let (table, dead, health, stats, injector) = ctx;
                                worker_main(s, r, table, dead, health, stats, injector, rx);
                            })
                            .expect("spawn shard worker");
                        threads.push(join);
                        Replica { tx, dead, health }
                    })
                    .collect()
            })
            .collect();
        ShardSet {
            parent,
            rr: (0..spec.shards).map(|_| AtomicUsize::new(0)).collect(),
            shards,
            replicas,
            stats,
            threads,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s projected table.
    pub fn shard_table(&self, s: usize) -> Arc<Table> {
        Arc::clone(&self.shards[s].table)
    }

    /// Flow-conserving execution counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Kill a replica: it stays scheduled but refuses every sub-query,
    /// the way the chaos suites take a replica out mid-burst. Routing
    /// notices through the ordinary breaker path (failures → trip →
    /// probes).
    pub fn kill_replica(&self, shard: usize, replica: usize) {
        self.replicas[shard][replica]
            .dead
            .store(true, Ordering::SeqCst);
    }

    /// Bring a killed replica back; the next probe recovers it.
    pub fn revive_replica(&self, shard: usize, replica: usize) {
        self.replicas[shard][replica]
            .dead
            .store(false, Ordering::SeqCst);
    }

    /// Whether replica `r` of shard `s` is currently healthy.
    pub fn replica_healthy(&self, shard: usize, replica: usize) -> bool {
        self.replicas[shard][replica].health.is_closed()
    }

    /// Replicas currently in the suspect state, across all shards.
    pub fn suspect_replicas(&self) -> usize {
        self.replicas
            .iter()
            .flatten()
            .filter(|r| !r.health.is_closed())
            .count()
    }

    /// Wait (by polling) until every dispatched sub-query has been
    /// accounted for by a worker — the precondition for exact
    /// flow-conservation checks. Returns `false` on timeout.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.stats.snapshot();
            if s.accounted() == s.dispatched {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        // Dropping the replicas disconnects every queue; the workers
        // drain and exit, and the joins observe that.
        self.replicas.clear();
        for j in self.threads.drain(..) {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muve_dbms::{ColumnType, Schema, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new([("g", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..n as i64 {
            b.push_row([Value::from(format!("g{}", i % 3)), Value::Int(i)]);
        }
        b.build()
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        for shards in [1, 2, 3, 8] {
            let parts = partition_rows(1000, shards);
            assert_eq!(parts.len(), shards);
            let mut all: Vec<u32> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..1000).collect::<Vec<u32>>(), "shards={shards}");
            for p in &parts {
                assert!(p.windows(2).all(|w| w[0] < w[1]), "buckets sorted");
            }
        }
    }

    #[test]
    fn partition_is_deterministic() {
        assert_eq!(partition_rows(5000, 4), partition_rows(5000, 4));
    }

    #[test]
    fn shards_preserve_parent_dictionary_codes() {
        let t = Arc::new(table(300));
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(3, 1));
        let parent_dict = t.column_by_name("g").unwrap().dictionary().unwrap();
        for s in 0..set.num_shards() {
            let shard = set.shard_table(s);
            let dict = shard.column_by_name("g").unwrap().dictionary().unwrap();
            assert_eq!(dict.entries(), parent_dict.entries());
            // Spot-check: shard row values equal parent rows at the mapped ids.
            for (local, &global) in set.shards[s].rows.iter().enumerate().take(10) {
                assert_eq!(shard.row(local), t.row(global as usize));
            }
        }
    }
}
