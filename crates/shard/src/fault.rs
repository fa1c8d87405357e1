//! Seeded fault injection at replica granularity, modeled on
//! `muve-pipeline`'s stage injector but addressed by (shard, replica)
//! coordinates instead of pipeline stages.
//!
//! Specs use the shared clause grammar ([`muve_obs::FaultClause`]):
//!
//! ```text
//! <shard>.<replica>:<kind>[@p=<0..=1>]
//! ```
//!
//! where `<shard>` / `<replica>` are indexes or `*`, and `<kind>` is one
//! of `error` (typed sub-query failure), `panic` (a real panic inside the
//! worker, contained by its catch_unwind), `stall` (hold the sub-query
//! until its token fires or the stall cap elapses, then fail), `down`
//! (replica refuses work — the "killed replica" of the chaos suites),
//! `down_until_healed` (the replica marks itself dead and stays dead
//! until the healer replaces it — the fault the self-healing suites
//! arm), or `latency=MS` (sleep, then execute normally). Without `@p=`,
//! a clause fires on every matching sub-query (`p=1`); with it, each
//! sub-query draws from a seeded RNG, so chaos runs replay exactly.
//!
//! Examples: `*.0:down` (first replica of every shard is dead),
//! `2.1:panic@p=0.5` (replica 1 of shard 2 panics on half its work),
//! `*.*:latency=5@p=0.1` (10% of all sub-queries eat 5 ms).
//!
//! Besides the parsed (static) plans, the injector carries a **dynamic
//! overlay**: exact-coordinate faults armed and disarmed at runtime via
//! [`set_dynamic`](ShardFaultInjector::set_dynamic) /
//! [`clear_dynamic`](ShardFaultInjector::clear_dynamic). The chaos
//! orchestrator's timed `slow`/`unslow` events ride this overlay, which
//! involves no RNG, so scripted chaos replays stay deterministic.

use muve_obs::{fault_clauses, FaultClause, FaultSpecError, FaultSpecReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::Duration;

/// What an armed fault does to a matching sub-query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Reply with a typed injected failure.
    Error,
    /// Panic inside the worker (contained, surfaced as a typed failure).
    Panic,
    /// Hold the sub-query until cancellation or the stall cap, then fail.
    Stall,
    /// The replica refuses work entirely.
    Down,
    /// The replica marks itself dead on first contact and refuses work
    /// until the healer replaces it
    /// ([`mark_healed`](ShardFaultInjector::mark_healed) disarms the
    /// clause for those coordinates).
    DownUntilHealed,
    /// Sleep this long, then execute normally.
    Latency(Duration),
}

#[derive(Debug, Clone)]
struct Plan {
    shard: Option<usize>,
    replica: Option<usize>,
    kind: FaultKind,
    probability: f64,
}

/// Seeded replica-level fault injector.
#[derive(Debug)]
pub struct ShardFaultInjector {
    plans: Vec<Plan>,
    seed: u64,
    rng: Mutex<StdRng>,
    /// Coordinates the healer has re-replicated: `down_until_healed`
    /// clauses are inert for them.
    healed: Mutex<HashSet<(usize, usize)>>,
    /// Runtime-armed exact-coordinate faults (chaos `slow` events).
    /// Checked before the parsed plans; no RNG involved.
    dynamic: Mutex<HashMap<(usize, usize), FaultKind>>,
}

impl Clone for ShardFaultInjector {
    /// Cloning restarts the seeded draw sequence, so a cloned injector
    /// replays the same fault schedule. The healed set and the dynamic
    /// overlay are copied as-is (they are driven externally, not by the
    /// RNG).
    fn clone(&self) -> ShardFaultInjector {
        ShardFaultInjector {
            plans: self.plans.clone(),
            seed: self.seed,
            rng: Mutex::new(StdRng::seed_from_u64(self.seed)),
            healed: Mutex::new(
                self.healed
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
            dynamic: Mutex::new(
                self.dynamic
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .clone(),
            ),
        }
    }
}

impl Default for ShardFaultInjector {
    fn default() -> ShardFaultInjector {
        ShardFaultInjector::none()
    }
}

impl ShardFaultInjector {
    /// No faults.
    pub fn none() -> ShardFaultInjector {
        ShardFaultInjector {
            plans: Vec::new(),
            seed: 0,
            rng: Mutex::new(StdRng::seed_from_u64(0)),
            healed: Mutex::new(HashSet::new()),
            dynamic: Mutex::new(HashMap::new()),
        }
    }

    /// Whether any fault is armed.
    pub fn is_none(&self) -> bool {
        self.plans.is_empty()
    }

    /// Parse a spec (see module docs for the grammar).
    pub fn parse(spec: &str) -> Result<ShardFaultInjector, FaultSpecError> {
        let plans = fault_clauses(spec)
            .map(|clause| plan(&clause?))
            .collect::<Result<_, _>>()?;
        Ok(ShardFaultInjector {
            plans,
            ..ShardFaultInjector::none()
        })
    }

    /// Re-seed the probability draws (deterministic chaos replay).
    pub fn with_seed(mut self, seed: u64) -> ShardFaultInjector {
        self.seed = seed;
        self.rng = Mutex::new(StdRng::seed_from_u64(seed));
        self
    }

    /// The fault (if any) that fires for this sub-query. The dynamic
    /// overlay is checked first (exact coordinates, no RNG); then the
    /// first matching armed clause wins, probabilistic clauses drawing
    /// from the seeded RNG. `down_until_healed` clauses stop matching
    /// coordinates the healer has [`mark_healed`](Self::mark_healed).
    pub fn action(&self, shard: usize, replica: usize) -> Option<FaultKind> {
        if let Some(&kind) = self
            .dynamic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(shard, replica))
        {
            return Some(kind);
        }
        for p in &self.plans {
            if p.shard.is_some_and(|s| s != shard) || p.replica.is_some_and(|r| r != replica) {
                continue;
            }
            if p.kind == FaultKind::DownUntilHealed
                && self
                    .healed
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .contains(&(shard, replica))
            {
                continue;
            }
            if p.probability >= 1.0 {
                return Some(p.kind);
            }
            let draw: f64 = self.rng.lock().unwrap_or_else(|e| e.into_inner()).gen();
            if draw < p.probability {
                return Some(p.kind);
            }
        }
        None
    }

    /// Record that the healer re-replicated `(shard, replica)`:
    /// `down_until_healed` clauses stop firing for those coordinates.
    /// Called right before the replacement worker is probed, so the
    /// probe itself is not re-killed by the clause that took the
    /// original replica out.
    pub fn mark_healed(&self, shard: usize, replica: usize) {
        self.healed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((shard, replica));
    }

    /// Arm a runtime fault for exactly `(shard, replica)`, overriding the
    /// parsed plans until [`clear_dynamic`](Self::clear_dynamic). The
    /// chaos orchestrator's `slow`/`unslow` events use this with
    /// [`FaultKind::Latency`].
    pub fn set_dynamic(&self, shard: usize, replica: usize, kind: FaultKind) {
        self.dynamic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((shard, replica), kind);
    }

    /// Disarm a runtime fault armed by [`set_dynamic`](Self::set_dynamic).
    pub fn clear_dynamic(&self, shard: usize, replica: usize) {
        self.dynamic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&(shard, replica));
    }
}

/// One clause's plan: a `shard.replica` target (indexes or `*`), the
/// kind → action table, and "no `@p=`" meaning "always".
fn plan(clause: &FaultClause<'_>) -> Result<Plan, FaultSpecError> {
    let bad_target = || clause.error(FaultSpecReason::UnknownTarget);
    let index = |s: &str| match s {
        "*" => Ok(None),
        _ => s.parse().map(Some).map_err(|_| bad_target()),
    };
    let (shard, replica) = clause.target.split_once('.').ok_or_else(bad_target)?;
    let kind = match (clause.kind, clause.arg) {
        ("error", None) => FaultKind::Error,
        ("panic", None) => FaultKind::Panic,
        ("stall", None) => FaultKind::Stall,
        ("down", None) => FaultKind::Down,
        ("down_until_healed", None) => FaultKind::DownUntilHealed,
        ("latency", _) => FaultKind::Latency(clause.millis()?),
        _ => return Err(clause.error(FaultSpecReason::UnknownKind)),
    };
    Ok(Plan {
        shard: index(shard)?,
        replica: index(replica)?,
        kind,
        probability: clause.probability.unwrap_or(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_wildcards_kinds_and_probability() {
        let inj =
            ShardFaultInjector::parse("*.0:down, 2.1:panic@p=0.5, *.*:latency=5@p=0.25").unwrap();
        assert!(!inj.is_none());
        // `*.0:down` fires deterministically for replica 0 of any shard.
        assert_eq!(inj.action(7, 0), Some(FaultKind::Down));
        // Replica 1 of shard 0 only matches the probabilistic clauses.
        let mut fired = 0;
        for _ in 0..200 {
            if inj.action(0, 1).is_some() {
                fired += 1;
            }
        }
        assert!(fired > 0 && fired < 200, "{fired}");
    }

    #[test]
    fn seeded_draws_replay() {
        let spec = "*.*:error@p=0.5";
        let a = ShardFaultInjector::parse(spec).unwrap().with_seed(42);
        let b = ShardFaultInjector::parse(spec).unwrap().with_seed(42);
        let da: Vec<bool> = (0..64).map(|_| a.action(0, 0).is_some()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.action(0, 0).is_some()).collect();
        assert_eq!(da, db);
        let c = a.clone();
        let dc: Vec<bool> = (0..64).map(|_| c.action(0, 0).is_some()).collect();
        assert_eq!(da, dc, "clone restarts the seeded sequence");
    }

    #[test]
    fn down_until_healed_disarms_per_coordinate() {
        let inj = ShardFaultInjector::parse("*.*:down_until_healed").unwrap();
        assert_eq!(inj.action(0, 0), Some(FaultKind::DownUntilHealed));
        assert_eq!(inj.action(1, 1), Some(FaultKind::DownUntilHealed));
        inj.mark_healed(0, 0);
        assert_eq!(inj.action(0, 0), None, "healed coordinates stop matching");
        assert_eq!(
            inj.action(1, 1),
            Some(FaultKind::DownUntilHealed),
            "other coordinates still match"
        );
    }

    #[test]
    fn dynamic_overlay_overrides_and_clears() {
        let inj = ShardFaultInjector::none();
        assert_eq!(inj.action(2, 1), None);
        inj.set_dynamic(2, 1, FaultKind::Latency(Duration::from_millis(5)));
        assert_eq!(
            inj.action(2, 1),
            Some(FaultKind::Latency(Duration::from_millis(5)))
        );
        assert_eq!(inj.action(2, 0), None, "exact coordinates only");
        inj.clear_dynamic(2, 1);
        assert_eq!(inj.action(2, 1), None);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "0:error",
            "0.0:flaky",
            "0.0:latency=abc",
            "0.0:error@p=2",
            "x.0:error",
        ] {
            assert!(ShardFaultInjector::parse(bad).is_err(), "{bad}");
        }
        assert!(ShardFaultInjector::parse("").unwrap().is_none());
    }
}
