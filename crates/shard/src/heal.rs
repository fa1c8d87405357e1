//! The self-healing layer: a background thread that re-replicates dead
//! or persistently-suspect replicas without operator intervention.
//!
//! Per replica position, the healer runs a small state machine:
//!
//! ```text
//! dead ──► warming ──► probe ───► healthy
//!             │           │
//!             └───────────┴──► failed (backoff, retry)
//! ```
//!
//! - **dead**: the position's dead flag is set (an explicit kill or a
//!   `down_until_healed` fault), or its breaker has been continuously
//!   suspect for at least [`SUSPECT_AFTER`].
//! - **warming / probe**: a fresh worker is spawned over the shard's
//!   existing table — replicas are threads over one immutable
//!   `Arc<Table>`, so there is nothing to copy and the shard fingerprint
//!   (and with it the cache epoch) cannot move — and a warm-up sub-query
//!   (`COUNT(*)` over the shard) is dispatched directly to its queue —
//!   **before** the slot swap, so routing never sees the replacement until
//!   it has proven it can answer. The probe rides the ordinary worker
//!   ledger (`shard.heal_probes` is its term in the dispatch taxonomy).
//! - **healthy**: the replacement core is swapped into the topology slot
//!   and the old core retires with its last in-flight user.
//!
//! The healer is deliberately a *single* thread starting at most one heal
//! per [`POLL`] tick, so re-replication never competes with foreground
//! queries for more than one worker start at a time. A failed heal backs
//! the position off for [`RETRY_BACKOFF`]. The timings are constants: they
//! have one value in use.
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

/// Healer poll interval.
const POLL: Duration = Duration::from_millis(10);
/// How long a replica must be continuously suspect (breaker-tripped)
/// before the healer gives up on probes and re-replicates it. Dead flags
/// skip this wait — an explicit kill heals on the next tick.
const SUSPECT_AFTER: Duration = Duration::from_millis(300);
/// How long the warm-up probe may take before the heal is abandoned.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// Per-position backoff after a failed heal.
const RETRY_BACKOFF: Duration = Duration::from_millis(250);

/// Healer thread body: each tick, heal the first position that needs it
/// and is not backing off.
pub(crate) fn healer_main(inner: Arc<ShardInner>, stop: Arc<AtomicBool>) {
    // Backoff per *core* (keyed by the health state's address): a healed
    // slot gets a fresh core and therefore a fresh backoff.
    let mut backoff: HashMap<usize, Instant> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        inner.reap_finished();
        let topo = inner.topology();
        let now = Instant::now();
        let mut seen: Vec<usize> = Vec::new();
        let mut due = None;
        for s in 0..topo.num_shards() {
            for r in 0..topo.num_replicas() {
                let core = topo.replicas[s][r].core();
                let key = Arc::as_ptr(&core.health) as usize;
                seen.push(key);
                let needs_heal = core.dead.load(Ordering::SeqCst)
                    || core
                        .health
                        .open_since()
                        .is_some_and(|t| now >= t + SUSPECT_AFTER);
                let backing_off = backoff.get(&key).is_some_and(|&until| now < until);
                if due.is_none() && needs_heal && !backing_off {
                    due = Some((s, r, key));
                }
            }
        }
        backoff.retain(|k, _| seen.contains(k));
        if let Some((s, r, key)) = due {
            if !heal_one(&inner, &topo, s, r) {
                backoff.insert(key, Instant::now() + RETRY_BACKOFF);
            }
        }
        std::thread::sleep(POLL);
    }
}

/// Heal one position: warm → probe → swap. Returns whether the
/// replacement made it into the topology.
fn heal_one(inner: &ShardInner, topo: &Topology, s: usize, r: usize) -> bool {
    let started = Instant::now();
    inner.stats.heals_started.incr();
    // Disarm `down_until_healed` for these coordinates *before* the
    // probe, or the clause would re-kill every replacement.
    inner.injector.mark_healed(s, r);
    // Warming: a fresh worker over the shard's table, not yet routed to.
    let core = inner.spawn_replica(s, r, Arc::clone(&topo.shards[s].table));
    // Probe: the replacement must answer a real sub-query through its
    // own queue before it is re-admitted.
    if !probe(inner, &core, s, r) {
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
fn probe(inner: &ShardInner, core: &ReplicaCore, s: usize, r: usize) -> bool {
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let job = Job {
        query: Arc::new(probe_query(inner)),
        selection: None,
        cancel: CancelToken::with_deadline(Instant::now() + PROBE_TIMEOUT),
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
    match reply_rx.recv_timeout(PROBE_TIMEOUT) {
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
            heal: true,
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
        assert!(
            !heal_one(&set.inner, &topo, 0, 0),
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
