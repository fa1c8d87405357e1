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
//! or `latency=MS` (sleep, then execute normally). Without `@p=`,
//! a clause fires on every matching sub-query (`p=1`); with it, each
//! sub-query draws from a seeded RNG, so chaos runs replay exactly.
//!
//! Examples: `*.0:down` (first replica of every shard is dead),
//! `2.1:panic@p=0.5` (replica 1 of shard 2 panics on half its work),
//! `*.*:latency=5@p=0.1` (10% of all sub-queries eat 5 ms).

use muve_obs::{fault_clauses, FaultClause, FaultSpecError, FaultSpecReason};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Seed of every injector's probability draws.
const SEED: u64 = 0;

/// Seeded replica-level fault injector.
#[derive(Debug)]
pub struct ShardFaultInjector {
    plans: Vec<Plan>,
    rng: Mutex<StdRng>,
}

impl Clone for ShardFaultInjector {
    /// Cloning restarts the seeded draw sequence, so a cloned injector
    /// replays the same fault schedule.
    fn clone(&self) -> ShardFaultInjector {
        ShardFaultInjector {
            plans: self.plans.clone(),
            rng: Mutex::new(StdRng::seed_from_u64(SEED)),
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
            rng: Mutex::new(StdRng::seed_from_u64(SEED)),
        }
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

    /// The fault (if any) that fires for this sub-query: the first
    /// matching armed clause wins, probabilistic clauses drawing from the
    /// seeded RNG.
    pub fn action(&self, shard: usize, replica: usize) -> Option<FaultKind> {
        for p in &self.plans {
            if p.shard.is_some_and(|s| s != shard) || p.replica.is_some_and(|r| r != replica) {
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
        assert_eq!(inj.plans.len(), 3);
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
        let a = ShardFaultInjector::parse(spec).unwrap();
        let b = ShardFaultInjector::parse(spec).unwrap();
        let da: Vec<bool> = (0..64).map(|_| a.action(0, 0).is_some()).collect();
        let db: Vec<bool> = (0..64).map(|_| b.action(0, 0).is_some()).collect();
        assert_eq!(da, db);
        let c = a.clone();
        let dc: Vec<bool> = (0..64).map(|_| c.action(0, 0).is_some()).collect();
        assert_eq!(da, dc, "clone restarts the seeded sequence");
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
        assert!(ShardFaultInjector::parse("").unwrap().plans.is_empty());
    }
}
