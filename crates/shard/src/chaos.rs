//! Deterministic chaos orchestration: seeded scripts of timed
//! kill/revive/slow/partition/resize events, driven by a **logical step
//! counter** instead of the wall clock.
//!
//! A [`ChaosScript`] is a list of `(step, action)` events, built in code
//! ([`ChaosScript::new`]) or generated from a seed
//! ([`ChaosScript::seeded`]). The driving test (or benchmark) calls
//! [`ChaosOrchestrator::step`] once per unit of its own work — per query,
//! per burst, per request batch — and the orchestrator applies exactly the events whose step has come due. No
//! timers, no sleeps: the same script against the same seed produces the
//! same applied-event log on every machine and every run, which is what
//! lets the healing chaos suite assert replay identity in CI.
//!
//! Applying an event records a canonical log line (`@<step> <action>`,
//! e.g. `@3 kill 0.1`, `@15 resize 8x2`); two runs of the same script
//! are expected to yield byte-identical logs.

use crate::fault::FaultKind;
use crate::set::ShardSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::Duration;

/// One timed chaos action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Set the replica's dead flag (the healer's job to undo, if on).
    Kill {
        /// Target shard.
        shard: usize,
        /// Target replica.
        replica: usize,
    },
    /// Clear the replica's dead flag (manual recovery).
    Revive {
        /// Target shard.
        shard: usize,
        /// Target replica.
        replica: usize,
    },
    /// Arm a dynamic latency fault on the replica (it answers, slowly).
    Slow {
        /// Target shard.
        shard: usize,
        /// Target replica.
        replica: usize,
        /// Added latency in milliseconds.
        millis: u64,
    },
    /// Disarm a previously armed slow fault.
    Unslow {
        /// Target shard.
        shard: usize,
        /// Target replica.
        replica: usize,
    },
    /// Kill every replica of the shard at once (a lost partition).
    Partition {
        /// Target shard.
        shard: usize,
    },
    /// Live-resize the topology.
    Resize {
        /// New shard count.
        shards: usize,
        /// New replicas per shard.
        replicas: usize,
    },
}

impl fmt::Display for ChaosAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ChaosAction::Kill { shard, replica } => write!(f, "kill {shard}.{replica}"),
            ChaosAction::Revive { shard, replica } => write!(f, "revive {shard}.{replica}"),
            ChaosAction::Slow {
                shard,
                replica,
                millis,
            } => write!(f, "slow {shard}.{replica} {millis}ms"),
            ChaosAction::Unslow { shard, replica } => write!(f, "unslow {shard}.{replica}"),
            ChaosAction::Partition { shard } => write!(f, "partition {shard}"),
            ChaosAction::Resize { shards, replicas } => write!(f, "resize {shards}x{replicas}"),
        }
    }
}

/// One scheduled event: apply `action` when the logical step counter
/// reaches `at_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Logical step at which the action fires.
    pub at_step: u64,
    /// What to do.
    pub action: ChaosAction,
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} {}", self.at_step, self.action)
    }
}

/// A step-ordered list of [`ChaosEvent`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosScript {
    events: Vec<ChaosEvent>,
}

impl ChaosScript {
    /// Build a script from events (stably sorted by step, so same-step
    /// events keep their given order).
    pub fn new(mut events: Vec<ChaosEvent>) -> ChaosScript {
        events.sort_by_key(|e| e.at_step);
        ChaosScript { events }
    }

    /// The scheduled events, in firing order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Steps after which nothing more fires.
    pub fn last_step(&self) -> u64 {
        self.events.last().map_or(0, |e| e.at_step)
    }

    /// Generate a seeded random script: every `period` steps one replica
    /// per shard is killed (the healing suite's drumbeat), with occasional
    /// slow/unslow pairs, and — halfway through — a `resize(N→2N)` and
    /// back. Deterministic in `(seed, steps, shards, replicas, period)`.
    pub fn seeded(
        seed: u64,
        steps: u64,
        shards: usize,
        replicas: usize,
        period: u64,
    ) -> ChaosScript {
        let mut rng = StdRng::seed_from_u64(seed);
        let (shards, replicas) = (shards.max(1), replicas.max(1));
        let period = period.max(1);
        let mut events = Vec::new();
        let mut step = period;
        while step < steps {
            for s in 0..shards {
                let r = rng.gen_range(0..replicas);
                events.push(ChaosEvent {
                    at_step: step,
                    action: ChaosAction::Kill {
                        shard: s,
                        replica: r,
                    },
                });
            }
            if rng.gen_bool(0.3) {
                let s = rng.gen_range(0..shards);
                let r = rng.gen_range(0..replicas);
                let millis = rng.gen_range(1..=10);
                events.push(ChaosEvent {
                    at_step: step + period / 3,
                    action: ChaosAction::Slow {
                        shard: s,
                        replica: r,
                        millis,
                    },
                });
                events.push(ChaosEvent {
                    at_step: step + 2 * period / 3,
                    action: ChaosAction::Unslow {
                        shard: s,
                        replica: r,
                    },
                });
            }
            step += period;
        }
        let mid = steps / 2;
        events.push(ChaosEvent {
            at_step: mid,
            action: ChaosAction::Resize {
                shards: shards * 2,
                replicas,
            },
        });
        events.push(ChaosEvent {
            at_step: mid + period,
            action: ChaosAction::Resize { shards, replicas },
        });
        ChaosScript::new(events)
    }
}

/// Drives a [`ChaosScript`] against a [`ShardSet`], one logical step at
/// a time, recording a canonical log of every applied event.
#[derive(Debug)]
pub struct ChaosOrchestrator {
    script: ChaosScript,
    cursor: usize,
    step: u64,
    log: Vec<String>,
}

impl ChaosOrchestrator {
    /// An orchestrator at step 0 with nothing applied yet.
    pub fn new(script: ChaosScript) -> ChaosOrchestrator {
        ChaosOrchestrator {
            script,
            cursor: 0,
            step: 0,
            log: Vec::new(),
        }
    }

    /// Apply every event due at the current step against `set`, then
    /// advance the step counter. Returns the events just applied (the
    /// driver restamps caches after steps that contain a resize).
    ///
    /// Coordinates that fall outside the *current* topology (possible
    /// right after a shrink) are logged as skipped rather than applied —
    /// deterministically, since the topology at a given step is itself a
    /// pure function of the script prefix.
    pub fn step(&mut self, set: &ShardSet) -> Vec<ChaosEvent> {
        let mut applied = Vec::new();
        while self
            .script
            .events
            .get(self.cursor)
            .is_some_and(|e| e.at_step <= self.step)
        {
            let event = self.script.events[self.cursor];
            self.cursor += 1;
            if self.apply(set, event.action) {
                self.log.push(format!("@{} {}", self.step, event.action));
                applied.push(event);
            } else {
                self.log
                    .push(format!("@{} skip {}", self.step, event.action));
            }
        }
        self.step += 1;
        applied
    }

    /// The current logical step (number of [`step`](Self::step) calls).
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Whether every scheduled event has fired.
    pub fn done(&self) -> bool {
        self.cursor >= self.script.events().len()
    }

    /// The canonical applied-event log (one line per event, including
    /// skips). Two runs of the same script over the same seed data must
    /// produce identical logs.
    pub fn log(&self) -> &[String] {
        &self.log
    }

    fn apply(&self, set: &ShardSet, action: ChaosAction) -> bool {
        let (n, r_max) = (set.num_shards(), set.num_replicas());
        let in_range = |s: usize, r: usize| s < n && r < r_max;
        match action {
            ChaosAction::Kill { shard, replica } => {
                if !in_range(shard, replica) {
                    return false;
                }
                set.kill_replica(shard, replica);
            }
            ChaosAction::Revive { shard, replica } => {
                if !in_range(shard, replica) {
                    return false;
                }
                set.revive_replica(shard, replica);
            }
            ChaosAction::Slow {
                shard,
                replica,
                millis,
            } => {
                if !in_range(shard, replica) {
                    return false;
                }
                set.fault_injector().set_dynamic(
                    shard,
                    replica,
                    FaultKind::Latency(Duration::from_millis(millis)),
                );
            }
            ChaosAction::Unslow { shard, replica } => {
                if !in_range(shard, replica) {
                    return false;
                }
                set.fault_injector().clear_dynamic(shard, replica);
            }
            ChaosAction::Partition { shard } => {
                if shard >= n {
                    return false;
                }
                for r in 0..r_max {
                    set.kill_replica(shard, r);
                }
            }
            ChaosAction::Resize { shards, replicas } => {
                set.resize(shards, replicas);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::ShardSpec;
    use muve_dbms::{ColumnType, Schema, Table, Value};
    use std::sync::Arc;

    fn table(n: usize) -> Arc<Table> {
        let schema = Schema::new([("v", ColumnType::Int)]);
        let mut b = Table::builder("t", schema);
        for i in 0..n as i64 {
            b.push_row([Value::Int(i)]);
        }
        Arc::new(b.build())
    }

    fn kill(at_step: u64, shard: usize, replica: usize) -> ChaosEvent {
        let action = ChaosAction::Kill { shard, replica };
        ChaosEvent { at_step, action }
    }

    #[test]
    fn seeded_scripts_replay_identically() {
        let a = ChaosScript::seeded(42, 60, 4, 2, 10);
        let b = ChaosScript::seeded(42, 60, 4, 2, 10);
        assert_eq!(a, b);
        let c = ChaosScript::seeded(43, 60, 4, 2, 10);
        assert_ne!(a, c, "different seed, different script");
        // The drumbeat is there: one kill per shard per period.
        let kills = a
            .events()
            .iter()
            .filter(|e| matches!(e.action, ChaosAction::Kill { .. }))
            .count();
        assert_eq!(kills, 4 * 5, "4 shards × 5 periods before step 60");
        assert!(a
            .events()
            .iter()
            .any(|e| matches!(e.action, ChaosAction::Resize { shards: 8, .. })));
    }

    #[test]
    fn orchestrator_applies_events_at_their_step_and_logs() {
        let resize = ChaosAction::Resize {
            shards: 3,
            replicas: 1,
        };
        let script = ChaosScript::new(vec![
            kill(1, 0, 0),
            ChaosEvent {
                at_step: 2,
                action: resize,
            },
            kill(2, 2, 0),
        ]);
        let set = crate::ShardSet::build(table(500), ShardSpec::new(2, 1));
        let mut orch = ChaosOrchestrator::new(script);
        assert!(orch.step(&set).is_empty(), "nothing due at step 0");
        let applied = orch.step(&set);
        assert_eq!(applied.len(), 1);
        assert!(!set.replica_healthy(0, 0) || set.stats().snapshot().dispatched == 0);
        let applied = orch.step(&set);
        assert_eq!(applied.len(), 2, "same-step events fire together");
        assert_eq!(set.num_shards(), 3);
        assert!(orch.done());
        assert_eq!(
            orch.log(),
            &[
                "@1 kill 0.0".to_string(),
                "@2 resize 3x1".to_string(),
                "@2 kill 2.0".to_string(),
            ]
        );
    }

    #[test]
    fn out_of_range_events_are_skipped_deterministically() {
        let script = ChaosScript::new(vec![kill(0, 5, 0)]);
        let set = crate::ShardSet::build(table(100), ShardSpec::new(2, 1));
        let mut orch = ChaosOrchestrator::new(script);
        let applied = orch.step(&set);
        assert!(applied.is_empty());
        assert_eq!(orch.log(), &["@0 skip kill 5.0".to_string()]);
    }
}
