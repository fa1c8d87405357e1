//! Fault-tolerant sharded execution for the MUVE engine (ROADMAP item:
//! robust serving of interactive aggregate queries).
//!
//! `muve-shard` hash-partitions a [`muve_dbms::Table`] into `N` shard
//! tables, runs `R` replica workers per shard, and executes aggregate
//! queries by scatter-gather: each shard computes un-materialized partial
//! aggregates ([`muve_dbms::ScanRequest::partials`]) and the gather combines
//! them in shard-index order ([`muve_dbms::combine_partials`]) — the same
//! morsel-order merge the single-table batch engine uses, so a full
//! gather is **bit-identical** to unsharded execution, float sums
//! included.
//!
//! The point of the crate is what happens when replicas misbehave:
//!
//! - **Replica health** — a [`muve_obs::Breaker`] per replica, the same
//!   state machine `muve-serve` keeps per stage: consecutive failures
//!   (a cancelled sub-query is neither failure nor success; a cancelled
//!   probe just frees the probe slot) trip it to
//!   *suspect*, a cooldown-gated single probe — or any success that
//!   lands while suspect — recovers it. Routing load-balances reads across
//!   healthy replicas; a suspect one only sees traffic as its probe, or
//!   when nothing healthier is left.
//! - **Hedging** ([`HedgeTracker`]) — sub-queries unanswered after the
//!   rolling-p99 delay are re-issued to another replica; first answer
//!   wins, the loser is cancelled but still accounted.
//! - **Failover** — typed sub-query failures re-dispatch to untried
//!   replicas.
//! - **Partial-result degradation** ([`ShardOutcome`], [`GatherReport`])
//!   — when a shard is lost entirely, the answer degrades to a typed,
//!   coverage-scaled estimate instead of an error (callers may opt out
//!   via [`ShardExecOptions::allow_partial`]).
//! - **Deterministic chaos** ([`ShardFaultInjector`]) — seeded
//!   replica-level fault injection (`error` / `panic` / `stall` / `down`
//!   / `down_until_healed` / `latency`) so the failover machinery is
//!   testable and replayable.
//! - **Self-healing** ([`HealConfig`]) — a background healer watches the
//!   per-replica breaker state, clones the shard table for a dead
//!   replica, warms a fresh worker behind a probe query, and only then
//!   re-admits it to routing. No manual `revive` needed.
//! - **Live resharding** ([`ShardSet::resize`]) — a new topology is
//!   built beside the old one and swapped in atomically; in-flight
//!   gathers are epoch-fenced to the topology they started on, so every
//!   query sees exactly one consistent layout and results stay
//!   bit-identical before, during, and after a resize.
//! - **Chaos orchestration** ([`ChaosScript`], [`ChaosOrchestrator`]) —
//!   seeded scripts of timed kill/revive/slow/partition/resize events
//!   driven by a logical step counter, so healing chaos suites replay
//!   identically in CI.
//!
//! Every dispatch/reply/outcome lands in flow-conserving counters
//! ([`ShardStats`], one [`muve_obs::ledger!`] declaration) mirrored into
//! the `shard.*` namespace of the process-wide [`muve_obs`] metrics
//! registry.
//!
//! The robustness tuning is constants, not options — the replica breaker
//! (3 failures, 250 ms), the hedge clamps and window and the per-replica
//! queue bound (128) each have one value in use. A sub-query scans on its
//! replica's worker thread, like every scan in the engine. [`ShardSpec`]
//! is the shape (`N`×`R`) plus [`HealConfig`].

#![warn(missing_docs)]

mod chaos;
mod exec;
mod fault;
mod heal;
mod hedge;
mod set;
mod stats;

pub use chaos::{ChaosAction, ChaosEvent, ChaosOrchestrator, ChaosScript, ChaosScriptError};
pub use exec::{
    local_selection, GatherReport, MissingCause, ShardExecOptions, ShardOutcome, ShardedResult,
};
pub use fault::{FaultKind, ShardFaultInjector};
pub use heal::HealConfig;
pub use hedge::HedgeTracker;
pub use set::{partition_rows, ShardSet, ShardSpec};
pub use stats::{ShardStats, ShardStatsSnapshot};
