//! Hash partitioning, the replicated shard set, and its live topology.
//!
//! A [`ShardSet`] splits one parent [`Table`] into `N` hash-partitioned
//! shard tables ([`Table::project_rows`] keeps the parent's dictionary
//! codes, so grouped partials combine exactly) and spawns `R` replica
//! worker threads per shard. The replicas of a shard are threads over
//! one shared, immutable shard table — in-process replication buys
//! execution-level redundancy (a panicking, stalled, or killed worker),
//! not storage redundancy — and each worker owns its own bounded job
//! queue, health state, and fault hooks, so one replica's demise never
//! takes its siblings down.
//!
//! The set is **self-healing and resizable**: the whole
//! `N`×`R` layout lives in an immutable [`Topology`] snapshot behind one
//! `RwLock<Arc<_>>`. Every gather clones the `Arc` once at entry and
//! executes against exactly that snapshot — the *epoch fence* — so a
//! concurrent [`resize`](ShardSet::resize) or a healer core-swap can
//! never hand a query a half-switched layout. Old topologies retire
//! naturally: when the last in-flight gather drops its snapshot, the
//! retired workers' queues disconnect and the threads exit (the healer
//! reaps their join handles; [`Drop`] joins whatever is left).

use crate::exec::{worker_main, Job};
use crate::fault::ShardFaultInjector;
use crate::heal::healer_main;
use crate::stats::ShardStats;
use muve_dbms::Table;
use muve_obs::{Breaker, BreakerConfig};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
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
    /// Whether a background healer re-replicates dead or persistently
    /// suspect replicas (off by default; the CLI and the daemon turn it
    /// on). Its timings are constants of the heal module.
    pub heal: bool,
}

impl ShardSpec {
    /// A `shards`×`replicas` topology with the healer off.
    pub fn new(shards: usize, replicas: usize) -> ShardSpec {
        ShardSpec {
            shards,
            replicas,
            heal: false,
        }
        .normalized()
    }

    fn normalized(self) -> ShardSpec {
        ShardSpec {
            shards: self.shards.max(1),
            replicas: self.replicas.max(1),
            ..self
        }
    }
}

/// Deterministically hash-partition row ids `0..n_rows` into `shards`
/// buckets. Each bucket is sorted ascending (the construction visits rows
/// in order), which the sampled scatter path relies on for its
/// merge-intersection with systematic row ids.
pub fn partition_rows(n_rows: usize, shards: usize) -> Vec<Vec<u32>> {
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
    pub(crate) rows: Arc<Vec<u32>>,
}

/// The live half of one replica: its bounded job queue, liveness flag,
/// and breaker. Immutable once built — the healer *replaces* a
/// core rather than mutating it, so a core an in-flight dispatch cloned
/// stays coherent. Dropping the last `Arc<ReplicaCore>` disconnects the
/// queue and lets the worker thread drain out.
#[derive(Debug)]
pub(crate) struct ReplicaCore {
    pub(crate) tx: mpsc::SyncSender<Job>,
    pub(crate) dead: Arc<AtomicBool>,
    /// Closed = healthy (routable), open = suspect (probe or last resort).
    pub(crate) health: Arc<Breaker>,
}

/// One replica position in the topology. The slot is the stable address
/// (`shard s, replica r`); the core behind it is swapped atomically when
/// the healer re-replicates the position.
#[derive(Debug)]
pub(crate) struct ReplicaSlot {
    core: RwLock<Arc<ReplicaCore>>,
}

impl ReplicaSlot {
    pub(crate) fn new(core: Arc<ReplicaCore>) -> ReplicaSlot {
        ReplicaSlot {
            core: RwLock::new(core),
        }
    }

    /// The current core (cloned, so the caller keeps a coherent view even
    /// across a concurrent heal swap).
    pub(crate) fn core(&self) -> Arc<ReplicaCore> {
        Arc::clone(&self.core.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Swap in a healed replacement core; the old core retires when its
    /// last in-flight user drops it.
    pub(crate) fn swap(&self, core: Arc<ReplicaCore>) {
        *self.core.write().unwrap_or_else(|e| e.into_inner()) = core;
    }
}

/// One immutable `N`×`R` layout: shard data, replica slots, rotation
/// counters, and the cache epoch derived from the shard fingerprints.
/// Gathers execute against exactly one `Arc<Topology>` snapshot.
#[derive(Debug)]
pub(crate) struct Topology {
    pub(crate) spec: ShardSpec,
    pub(crate) shards: Vec<ShardData>,
    pub(crate) replicas: Vec<Vec<ReplicaSlot>>,
    /// Per-shard rotation counters for read load-balancing.
    pub(crate) rr: Vec<AtomicUsize>,
    pub(crate) epoch: u64,
    /// Monotonic topology generation; bumped by every resize. The healer
    /// refuses to swap a core into a retired generation.
    pub(crate) generation: u64,
}

impl Topology {
    pub(crate) fn num_shards(&self) -> usize {
        self.spec.shards
    }

    pub(crate) fn num_replicas(&self) -> usize {
        self.spec.replicas
    }

    /// A zero-shard placeholder used only while tearing the set down.
    fn retired(spec: ShardSpec) -> Topology {
        Topology {
            spec: ShardSpec {
                shards: 0,
                replicas: 0,
                ..spec
            },
            shards: Vec::new(),
            replicas: Vec::new(),
            rr: Vec::new(),
            epoch: 0,
            generation: u64::MAX,
        }
    }
}

/// Shared internals of a [`ShardSet`]: everything the healer thread and
/// in-flight gathers need to outlive any single borrow of the set.
#[derive(Debug)]
pub(crate) struct ShardInner {
    pub(crate) parent: Arc<Table>,
    pub(crate) topo: RwLock<Arc<Topology>>,
    pub(crate) stats: Arc<ShardStats>,
    pub(crate) injector: Arc<ShardFaultInjector>,
    /// Join handles of every worker thread ever spawned (initial build,
    /// heals, resizes). The healer reaps finished ones; `Drop` joins the
    /// rest.
    pub(crate) threads: Mutex<Vec<JoinHandle<()>>>,
    /// Current topology generation (equals `topology().generation`).
    pub(crate) generation: AtomicU64,
}

impl ShardInner {
    /// The current topology snapshot — the epoch fence. One clone per
    /// gather.
    pub(crate) fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topo.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Spawn one replica worker over `table` and return its core. The
    /// join handle lands in [`threads`](Self::threads).
    pub(crate) fn spawn_replica(
        &self,
        shard: usize,
        replica: usize,
        table: Arc<Table>,
    ) -> Arc<ReplicaCore> {
        let (tx, rx) = mpsc::sync_channel::<Job>(REPLICA_QUEUE_CAP);
        let dead = Arc::new(AtomicBool::new(false));
        let health = Arc::new(Breaker::new(REPLICA_BREAKER));
        let ctx = (
            table,
            Arc::clone(&dead),
            Arc::clone(&health),
            Arc::clone(&self.stats),
            Arc::clone(&self.injector),
        );
        let join = std::thread::Builder::new()
            .name(format!("muve-shard-s{shard}r{replica}"))
            .spawn(move || {
                let (table, dead, health, stats, injector) = ctx;
                worker_main(shard, replica, table, dead, health, stats, injector, rx);
            })
            .expect("spawn shard worker");
        self.threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(join);
        Arc::new(ReplicaCore { tx, dead, health })
    }

    /// Partition the parent and spawn a full `N`×`R` worker fleet for a
    /// new topology at `generation`.
    pub(crate) fn build_topology(&self, spec: ShardSpec, generation: u64) -> Arc<Topology> {
        let spec = spec.normalized();
        let shards: Vec<ShardData> = partition_rows(self.parent.num_rows(), spec.shards)
            .into_iter()
            .map(|rows| ShardData {
                table: Arc::new(self.parent.project_rows(&rows)),
                rows: Arc::new(rows),
            })
            .collect();
        let epoch = shard_epoch(shards.iter().map(|s| s.table.fingerprint()));
        let mut replicas = Vec::with_capacity(spec.shards);
        for (s, shard) in shards.iter().enumerate() {
            let mut row = Vec::with_capacity(spec.replicas);
            for r in 0..spec.replicas {
                let core = self.spawn_replica(s, r, Arc::clone(&shard.table));
                row.push(ReplicaSlot::new(core));
            }
            replicas.push(row);
        }
        let rr = (0..spec.shards).map(|_| AtomicUsize::new(0)).collect();
        Arc::new(Topology {
            spec,
            shards,
            replicas,
            rr,
            epoch,
            generation,
        })
    }

    /// Join every finished worker thread, returning how many were reaped.
    pub(crate) fn reap_finished(&self) -> usize {
        let mut lock = self.threads.lock().unwrap_or_else(|e| e.into_inner());
        let mut live = Vec::with_capacity(lock.len());
        let mut done = Vec::new();
        for j in lock.drain(..) {
            if j.is_finished() {
                done.push(j);
            } else {
                live.push(j);
            }
        }
        *lock = live;
        drop(lock);
        let n = done.len();
        for j in done {
            let _ = j.join();
        }
        n
    }

    /// Tear-down: swap in an empty topology (disconnecting every queue as
    /// the old snapshot drops) and join all worker threads.
    fn retire(&self) {
        let spec = self.topology().spec;
        *self.topo.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(Topology::retired(spec));
        let threads: Vec<JoinHandle<()>> = self
            .threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for j in threads {
            let _ = j.join();
        }
    }
}

/// Handle of the background healer thread.
#[derive(Debug)]
struct HealerHandle {
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl HealerHandle {
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// A replicated, hash-partitioned execution backend over one parent
/// table, with optional background self-healing and live resharding.
#[derive(Debug)]
pub struct ShardSet {
    pub(crate) inner: Arc<ShardInner>,
    healer: Mutex<Option<HealerHandle>>,
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
        let spec = spec.normalized();
        let inner = Arc::new(ShardInner {
            parent,
            // Placeholder; replaced before the set is visible to anyone.
            topo: RwLock::new(Arc::new(Topology::retired(spec))),
            stats: Arc::new(ShardStats::new()),
            injector: Arc::new(injector),
            threads: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
        });
        let topo = inner.build_topology(spec, 0);
        *inner.topo.write().unwrap_or_else(|e| e.into_inner()) = topo;
        let healer = if spec.heal {
            let stop = Arc::new(AtomicBool::new(false));
            let ctx = (Arc::clone(&inner), Arc::clone(&stop));
            let join = std::thread::Builder::new()
                .name("muve-shard-healer".into())
                .spawn(move || {
                    let (inner, stop) = ctx;
                    healer_main(inner, stop);
                })
                .expect("spawn shard healer");
            Some(HealerHandle {
                stop,
                join: Some(join),
            })
        } else {
            None
        };
        ShardSet {
            inner,
            healer: Mutex::new(healer),
        }
    }

    /// The parent table the shards were projected from.
    pub fn parent(&self) -> Arc<Table> {
        Arc::clone(&self.inner.parent)
    }

    /// Number of shards in the current topology.
    pub fn num_shards(&self) -> usize {
        self.inner.topology().num_shards()
    }

    /// Replicas per shard in the current topology.
    pub fn num_replicas(&self) -> usize {
        self.inner.topology().num_replicas()
    }

    /// The combined shard epoch: a hash over every shard table's content
    /// fingerprint (plus the shard count). Caches key on this instead of
    /// the parent fingerprint when a shard set is attached, so reloading
    /// even a single shard's data — or resizing the layout — moves the
    /// epoch and invalidates.
    pub fn epoch(&self) -> u64 {
        self.inner.topology().epoch
    }

    /// The current topology generation (0 at build; +1 per resize).
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::SeqCst)
    }

    /// Shard `s`'s projected table in the current topology.
    pub fn shard_table(&self, s: usize) -> Arc<Table> {
        Arc::clone(&self.inner.topology().shards[s].table)
    }

    /// Shard `s`'s sorted global row ids in the current topology.
    pub fn shard_rows(&self, s: usize) -> Arc<Vec<u32>> {
        Arc::clone(&self.inner.topology().shards[s].rows)
    }

    /// Flow-conserving execution counters.
    pub fn stats(&self) -> &ShardStats {
        &self.inner.stats
    }

    /// The fault injector this set was built with (chaos suites arm
    /// dynamic faults through it at runtime).
    pub fn fault_injector(&self) -> &ShardFaultInjector {
        &self.inner.injector
    }

    /// Whether the background healer is running.
    pub fn healer_enabled(&self) -> bool {
        self.healer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Rebuild the topology live as `shards`×`replicas`, returning the
    /// new cache epoch. In-flight gathers keep executing against the
    /// snapshot they fenced at entry (bit-identical results before,
    /// during, and after); new gathers see only the new layout. The old
    /// workers retire as the last snapshot holder lets go. Callers that
    /// attached a `SessionCaches` bundle should restamp it (the epoch
    /// moves with the shard count).
    pub fn resize(&self, shards: usize, replicas: usize) -> u64 {
        let cur = self.inner.topology();
        let spec = ShardSpec {
            shards: shards.max(1),
            replicas: replicas.max(1),
            ..cur.spec
        };
        let generation = self.inner.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let topo = self.inner.build_topology(spec, generation);
        let epoch = topo.epoch;
        *self.inner.topo.write().unwrap_or_else(|e| e.into_inner()) = topo;
        self.inner.stats.resizes.incr();
        epoch
    }

    /// Kill a replica: it stays scheduled but refuses every sub-query,
    /// the way the chaos suites take a replica out mid-burst. Routing
    /// notices through the ordinary breaker path (failures → trip →
    /// probes); with the healer on, the position is re-replicated
    /// automatically.
    pub fn kill_replica(&self, shard: usize, replica: usize) {
        self.inner.topology().replicas[shard][replica]
            .core()
            .dead
            .store(true, Ordering::SeqCst);
    }

    /// Bring a killed replica back; the next probe recovers it. (With the
    /// healer on this is unnecessary — the position heals on its own.)
    pub fn revive_replica(&self, shard: usize, replica: usize) {
        self.inner.topology().replicas[shard][replica]
            .core()
            .dead
            .store(false, Ordering::SeqCst);
    }

    /// Whether replica `r` of shard `s` is currently healthy.
    pub fn replica_healthy(&self, shard: usize, replica: usize) -> bool {
        self.inner.topology().replicas[shard][replica]
            .core()
            .health
            .is_closed()
    }

    /// Healthy replicas of shard `s` in the current topology.
    pub fn healthy_replicas(&self, shard: usize) -> usize {
        let topo = self.inner.topology();
        topo.replicas[shard]
            .iter()
            .filter(|slot| {
                let core = slot.core();
                core.health.is_closed() && !core.dead.load(Ordering::SeqCst)
            })
            .count()
    }

    /// Replicas currently in the suspect state, across all shards.
    pub fn suspect_replicas(&self) -> usize {
        let topo = self.inner.topology();
        topo.replicas
            .iter()
            .flatten()
            .filter(|slot| !slot.core().health.is_closed())
            .count()
    }

    /// Wait (by polling) until every dispatched sub-query has been
    /// accounted for by a worker — the precondition for exact
    /// flow-conservation checks. Returns `false` on timeout.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.inner.stats.snapshot();
            if s.accounted() == s.dispatched && s.heals_in_flight() == 0 {
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
        // Stop the healer first (it may be mid-probe; the probe deadline
        // bounds the wait), then retire the topology: the empty swap
        // disconnects every queue, workers drain and exit, and the joins
        // observe that.
        if let Some(h) = self
            .healer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            h.shutdown();
        }
        self.inner.retire();
    }
}

/// Combine per-shard fingerprints into one epoch value.
fn shard_epoch(fingerprints: impl Iterator<Item = u64>) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    let mut n = 0usize;
    for f in fingerprints {
        h.write_u64(f);
        n += 1;
    }
    h.write_usize(n);
    h.finish()
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
    fn epoch_tracks_single_shard_content() {
        let t = Arc::new(table(500));
        let a = ShardSet::build(Arc::clone(&t), ShardSpec::new(4, 1));
        let b = ShardSet::build(Arc::clone(&t), ShardSpec::new(4, 1));
        assert_eq!(a.epoch(), b.epoch(), "same data, same layout, same epoch");
        let c = ShardSet::build(Arc::clone(&t), ShardSpec::new(2, 1));
        assert_ne!(a.epoch(), c.epoch(), "different layout moves the epoch");
        let d = ShardSet::build(Arc::new(table(501)), ShardSpec::new(4, 1));
        assert_ne!(a.epoch(), d.epoch(), "different data moves the epoch");
        assert_ne!(
            a.epoch(),
            t.fingerprint(),
            "shard epoch is not the parent fingerprint"
        );
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
            for (local, &global) in set.shard_rows(s).iter().enumerate().take(10) {
                assert_eq!(shard.row(local), t.row(global as usize));
            }
        }
    }

    #[test]
    fn resize_moves_epoch_generation_and_layout() {
        let t = Arc::new(table(800));
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(2, 1));
        let (e2, g0) = (set.epoch(), set.generation());
        assert_eq!(g0, 0);
        let e4 = set.resize(4, 2);
        assert_eq!(set.epoch(), e4);
        assert_ne!(e2, e4, "resize moves the epoch");
        assert_eq!((set.num_shards(), set.num_replicas()), (4, 2));
        assert_eq!(set.generation(), 1);
        // Resizing back restores the original epoch: same data, same
        // layout → same fingerprints, deterministically.
        let back = set.resize(2, 1);
        assert_eq!(back, e2, "epoch is a pure function of data × layout");
        assert_eq!(set.stats().snapshot().resizes, 2);
        // All rows still covered exactly once.
        let mut all: Vec<u32> = (0..set.num_shards())
            .flat_map(|s| set.shard_rows(s).iter().copied().collect::<Vec<_>>())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..800).collect::<Vec<u32>>());
    }

    #[test]
    fn retired_workers_are_reaped_after_resize() {
        let t = Arc::new(table(200));
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(4, 2));
        set.resize(2, 1);
        // The old topology's 8 workers lose their queues at the swap (no
        // gather in flight holds the snapshot) and exit; reap joins them.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut reaped = 0;
        while reaped < 8 && Instant::now() < deadline {
            reaped += set.inner.reap_finished();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(reaped, 8, "every retired worker exits and is joined");
        assert_eq!(
            set.inner.threads.lock().unwrap().len(),
            2,
            "only the new topology's workers remain"
        );
    }
}
