//! The self-healing layer: a background thread that re-replicates dead
//! or persistently-suspect replicas without operator intervention.
//!
//! Per replica position, the healer runs a small state machine:
//!
//! ```text
//! dead ──► cloning ──► warming ──► probe ───► healthy
//!            │            │           │
//!            └────────────┴───────────┴──► failed (backoff, retry)
//! ```
//!
//! - **dead**: the position's dead flag is set (an explicit kill or a
//!   `down_until_healed` fault), or its breaker has been continuously
//!   suspect for at least [`HealConfig::suspect_after`].
//! - **cloning**: the shard's table is re-projected from the parent via
//!   [`muve_dbms::Table::project_rows`] — a bit-identical replica clone
//!   (same content fingerprint, so cache epochs do not move).
//! - **warming / probe**: a fresh worker is spawned over the clone and
//!   a warm-up sub-query (`COUNT(*)` over the shard) is dispatched
//!   directly to its queue — **before** the slot swap, so routing never
//!   sees the replacement until it has proven it can answer. The probe
//!   rides the ordinary worker ledger (`shard.heal_probes` is its term
//!   in the dispatch taxonomy).
//! - **healthy**: the replacement core is swapped into the topology slot
//!   and the old core retires with its last in-flight user.
//!
//! The healer is deliberately a *single* thread healing at most
//! [`HealConfig::budget_per_tick`] positions per poll tick — the heal
//! budget that keeps re-replication (a full shard projection each time)
//! from starving foreground queries. Failed heals back off by
//! [`HealConfig::retry_backoff`] per position.
//!
//! Resizes fence the healer the same way they fence gathers: a heal
//! carries the generation of the topology snapshot it started from, and
//! the swap is abandoned (counted `heals_failed`) if a resize retired
//! that generation mid-heal.

use crate::exec::{Job, Reply};
use crate::set::{ReplicaCore, ShardInner, Topology};
use muve_dbms::{Aggregate, Query};
use muve_obs::CancelToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Knobs of the self-healing layer.
#[derive(Debug, Clone, Copy)]
pub struct HealConfig {
    /// Whether a [`crate::ShardSet`] spawns the healer thread at all.
    /// Off by default: chaos suites that assert on *manual* kill/revive
    /// semantics (and any caller that wants PR 8 behavior) keep it off;
    /// the CLI and the self-healing suites turn it on.
    pub enabled: bool,
    /// Healer poll interval.
    pub poll: Duration,
    /// How long a replica must be continuously suspect (breaker-tripped)
    /// before the healer gives up on probes and re-replicates it. Dead
    /// flags skip this wait — an explicit kill heals on the next tick.
    pub suspect_after: Duration,
    /// How long the warm-up probe may take before the heal is abandoned.
    pub probe_timeout: Duration,
    /// Per-position backoff after a failed heal.
    pub retry_backoff: Duration,
    /// Maximum heals started per poll tick (the heal budget).
    pub budget_per_tick: usize,
}

impl Default for HealConfig {
    fn default() -> HealConfig {
        HealConfig {
            enabled: false,
            poll: Duration::from_millis(10),
            suspect_after: Duration::from_millis(300),
            probe_timeout: Duration::from_secs(2),
            retry_backoff: Duration::from_millis(250),
            budget_per_tick: 1,
        }
    }
}

impl HealConfig {
    /// A config with healing switched on and default tuning.
    pub fn enabled() -> HealConfig {
        HealConfig {
            enabled: true,
            ..HealConfig::default()
        }
    }
}

/// Healer thread body: poll the topology for positions that need healing
/// and re-replicate them, within the per-tick budget.
pub(crate) fn healer_main(inner: Arc<ShardInner>, stop: Arc<AtomicBool>) {
    // Backoff per *core* (keyed by the health state's address): a healed
    // slot gets a fresh core and therefore a fresh backoff.
    let mut backoff: HashMap<usize, Instant> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        inner.reap_finished();
        let topo = inner.topology();
        let cfg = topo.spec.heal;
        let mut seen: Vec<usize> = Vec::new();
        let mut healed_this_tick = 0usize;
        'scan: for s in 0..topo.num_shards() {
            for r in 0..topo.num_replicas() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let core = topo.replicas[s][r].core();
                let key = Arc::as_ptr(&core.health) as usize;
                seen.push(key);
                let now = Instant::now();
                let needs_heal = core.dead.load(Ordering::SeqCst)
                    || core
                        .health
                        .open_since()
                        .is_some_and(|t| now >= t + cfg.suspect_after);
                if !needs_heal || backoff.get(&key).is_some_and(|&until| now < until) {
                    continue;
                }
                if healed_this_tick >= cfg.budget_per_tick.max(1) {
                    break 'scan;
                }
                healed_this_tick += 1;
                if !heal_one(&inner, &topo, s, r, &cfg) {
                    backoff.insert(key, Instant::now() + cfg.retry_backoff);
                }
            }
        }
        backoff.retain(|k, _| seen.contains(k));
        std::thread::sleep(cfg.poll);
    }
}

/// Heal one position: clone → warm → probe → swap. Returns whether the
/// replacement made it into the topology.
fn heal_one(inner: &ShardInner, topo: &Topology, s: usize, r: usize, cfg: &HealConfig) -> bool {
    let started = Instant::now();
    inner.stats.heals_started.incr();
    // Cloning: re-project the shard from the surviving parent data. The
    // projection is bit-identical (same rows, same dictionary codes), so
    // the shard fingerprint — and with it the cache epoch — is unchanged.
    let table = Arc::new(inner.parent.project_rows(&topo.shards[s].rows));
    debug_assert_eq!(
        table.fingerprint(),
        topo.shards[s].table.fingerprint(),
        "a replica clone must be bit-identical"
    );
    // Disarm `down_until_healed` for these coordinates *before* the
    // probe, or the clause would re-kill every replacement.
    inner.injector.mark_healed(s, r);
    // Warming: a fresh worker over the clone, not yet routed to.
    let core = inner.spawn_replica(s, r, table);
    // Probe: the replacement must answer a real sub-query through its
    // own queue before it is re-admitted.
    if !probe(inner, &core, s, r, cfg) {
        inner.stats.heals_failed.incr();
        return false; // dropping `core` retires the warming worker
    }
    // A resize may have retired this topology mid-heal; swapping into a
    // retired snapshot would heal a layout nobody routes to anymore.
    if inner.generation.load(Ordering::SeqCst) != topo.generation {
        inner.stats.heals_failed.incr();
        return false;
    }
    topo.replicas[s][r].swap(core);
    inner.stats.heals_completed.incr();
    inner.stats.heal_us.record_duration(started.elapsed());
    true
}

/// Dispatch the warm-up sub-query to the replacement worker and wait for
/// its answer. Rides the ordinary ledger: one `dispatched` (+ one
/// `heal_probes`) that a reply or reject accounts for.
fn probe(inner: &ShardInner, core: &ReplicaCore, s: usize, r: usize, cfg: &HealConfig) -> bool {
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let deadline = Instant::now() + cfg.probe_timeout;
    let job = Job {
        query: Arc::new(probe_query(inner)),
        selection: None,
        cancel: CancelToken::with_deadline(deadline),
        hedge: false,
        probe: false,
        reply_tx,
    };
    inner.stats.dispatched.incr();
    inner.stats.heal_probes.incr();
    if core.tx.try_send(job).is_err() {
        // A fresh worker with an empty queue refusing work means it
        // already exited; account the dispatch and give up.
        inner.stats.rejects.incr();
        return false;
    }
    match reply_rx.recv_timeout(cfg.probe_timeout) {
        Ok(reply) => {
            debug_assert_eq!((reply.shard, reply.replica), (s, r));
            reply.result.is_ok()
        }
        // The probe's own deadline token unsticks the worker; its late
        // reply is already in the books worker-side.
        Err(_) => false,
    }
}

/// The warm-up query: an ungrouped `COUNT(*)` over the replica's whole
/// shard — a real scan through the real execution path, cheap enough to
/// run on every heal.
fn probe_query(inner: &ShardInner) -> Query {
    Query {
        table: inner.parent.name().to_string(),
        aggregates: vec![Aggregate::count_star()],
        predicates: vec![],
        group_by: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{ShardSet, ShardSpec};
    use crate::{ShardExecOptions, ShardFaultInjector};
    use muve_dbms::{ColumnType, Schema, Table, Value};

    fn table(n: usize) -> Arc<Table> {
        let schema = Schema::new([("g", ColumnType::Str), ("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..n as i64 {
            b.push_row([Value::from(format!("g{}", i % 5)), Value::Int(i)]);
        }
        Arc::new(b.build())
    }

    fn healing_spec(shards: usize, replicas: usize) -> ShardSpec {
        ShardSpec {
            heal: HealConfig {
                enabled: true,
                poll: Duration::from_millis(2),
                suspect_after: Duration::from_millis(50),
                retry_backoff: Duration::from_millis(20),
                ..HealConfig::default()
            },
            ..ShardSpec::new(shards, replicas)
        }
    }

    fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, f: F) {
        let deadline = Instant::now() + timeout;
        while !f() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn killed_replica_heals_without_manual_revive() {
        let set = ShardSet::build(table(1500), healing_spec(2, 2));
        assert!(set.healer_enabled());
        set.kill_replica(0, 1);
        wait_for("heal of 0.1", Duration::from_secs(10), || {
            set.stats().snapshot().heals_completed >= 1
        });
        // The replacement is healthy and routable; no revive was issued.
        assert!(set.replica_healthy(0, 1));
        assert_eq!(set.healthy_replicas(0), 2);
        let q = Query {
            table: "t".into(),
            aggregates: vec![Aggregate::count_star()],
            predicates: vec![],
            group_by: vec![],
        };
        let out = set.execute(&q, ShardExecOptions::default()).unwrap();
        assert!(!out.report.is_partial());
        assert!(set.quiesce(Duration::from_secs(5)));
        let snap = set.stats().snapshot();
        assert_eq!(snap.heals_in_flight(), 0);
        assert!(snap.heal_probes >= 1, "{snap:?}");
    }

    #[test]
    fn down_until_healed_fault_self_heals_under_traffic() {
        let set = ShardSet::build_with_faults(
            table(1200),
            healing_spec(2, 2),
            ShardFaultInjector::parse("*.0:down_until_healed").unwrap(),
        );
        let q = Query {
            table: "t".into(),
            aggregates: vec![Aggregate::count_star()],
            predicates: vec![],
            group_by: vec!["g".into()],
        };
        // Traffic trips the faulted replicas (they mark themselves dead);
        // the healer replaces them; the clause is disarmed per healed
        // coordinate, so replacements stay up.
        for _ in 0..30 {
            let out = set.execute(&q, ShardExecOptions::default()).unwrap();
            assert!(!out.report.is_partial(), "survivor covers every shard");
            std::thread::sleep(Duration::from_millis(5));
            if set.stats().snapshot().heals_completed >= 2 {
                break;
            }
        }
        wait_for(
            "both replica-0 positions healed",
            Duration::from_secs(10),
            || set.stats().snapshot().heals_completed >= 2,
        );
        wait_for("healed replicas routable", Duration::from_secs(5), || {
            set.healthy_replicas(0) == 2 && set.healthy_replicas(1) == 2
        });
    }

    #[test]
    fn heal_is_abandoned_when_resize_retires_the_topology() {
        // No healer thread: drive heal_one by hand against a stale
        // generation to pin the fence behavior.
        let set = ShardSet::build(table(800), ShardSpec::new(2, 1));
        let topo = set.inner.topology();
        set.resize(4, 1);
        let cfg = HealConfig::default();
        assert!(
            !heal_one(&set.inner, &topo, 0, 0, &cfg),
            "stale-generation heal must be abandoned"
        );
        let snap = set.stats().snapshot();
        assert_eq!(snap.heals_failed, 1, "{snap:?}");
        assert_eq!(snap.heals_in_flight(), 0, "{snap:?}");
    }

    #[test]
    fn healer_defaults_off() {
        let set = ShardSet::build(table(100), ShardSpec::new(2, 1));
        assert!(!set.healer_enabled());
        set.kill_replica(0, 0);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(set.stats().snapshot().heals_started, 0);
    }
}
