//! Fault-tolerant sharded execution for the MUVE engine (ROADMAP item:
//! robust serving of interactive aggregate queries).
//!
//! `muve-shard` hash-partitions a [`muve_dbms::Table`] into `N` shard
//! tables, runs `R` replica workers per shard, and executes aggregate
//! queries by scatter-gather: each shard computes un-materialized partial
//! aggregates ([`muve_dbms::ScanRequest::partials`]) and the gather combines
//! them in shard-index order ([`muve_dbms::combine_partials`]) — the same
//! merge the single-table batch engine applies to its morsels. A full
//! gather returns the unsharded answer: the same groups, counts, MIN and
//! MAX, and **bit-identical** SUM and AVG whenever every float addend is
//! an integer or a dyadic rational whose partial sums are exact. Other
//! floats are added in a different order per shard count, so SUM and AVG
//! then agree only to about 15 significant digits.
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
//! - **Failover** — typed sub-query failures re-dispatch to untried
//!   replicas, one copy in flight per shard at a time. Replicas are
//!   threads over one shared `Arc<Table>`, so a second copy of a slow
//!   sub-query would only contend for the same cores.
//! - **Partial-result degradation** ([`ShardOutcome`], [`GatherReport`])
//!   — when a shard is lost entirely, the answer degrades to a typed,
//!   coverage-scaled estimate instead of an error (callers may opt out
//!   via [`ShardExecOptions::allow_partial`]).
//! - **Deterministic chaos** ([`ShardFaultInjector`]) — seeded
//!   replica-level fault injection (`error` / `panic` / `stall` / `down`
//!   / `down_until_healed` / `latency`) so the failover machinery is
//!   testable and replayable.
//! - **Self-healing** ([`ShardSpec::heal`]) — a background healer watches
//!   the per-replica dead flags and breaker state, warms a fresh worker
//!   over the shard's existing table behind a probe query, and only then
//!   re-admits it to routing. No manual `revive` needed.
//! - **Live resharding** ([`ShardSet::resize`]) — a new topology is
//!   built beside the old one and swapped in atomically; in-flight
//!   gathers are epoch-fenced to the topology they started on, so every
//!   query sees exactly one consistent layout and results stay
//!   bit-identical before, during, and after a resize.
//! - **Chaos orchestration** ([`ChaosScript`], [`ChaosOrchestrator`]) —
//!   scripts of timed kill/revive/slow/partition/resize events, built in
//!   code or seeded, driven by a logical step counter, so healing chaos
//!   suites replay identically in CI.
//!
//! Every dispatch/reply/outcome lands in flow-conserving counters
//! ([`ShardStats`], one [`muve_obs::ledger!`] declaration) mirrored into
//! the `shard.*` namespace of the process-wide [`muve_obs`] metrics
//! registry.
//!
//! The robustness tuning is constants, not options — the replica breaker
//! (3 failures, 250 ms), the per-replica queue bound (128) and the healer
//! timings (10 ms poll, 300 ms suspect window, 2 s probe timeout, 250 ms
//! retry backoff) each have one value in use. A sub-query scans on its
//! replica's worker thread, like every scan in the engine. [`ShardSpec`]
//! is the shape (`N`×`R`) plus whether the healer runs.

#![warn(missing_docs)]

mod chaos;
mod exec;
mod fault;
mod heal;
mod set;
mod stats;

pub use chaos::{ChaosAction, ChaosEvent, ChaosOrchestrator, ChaosScript};
pub use exec::{
    local_selection, GatherReport, MissingCause, ShardExecOptions, ShardOutcome, ShardedResult,
};
pub use fault::{FaultKind, ShardFaultInjector};
pub use set::{partition_rows, ShardSet, ShardSpec};
pub use stats::{ShardStats, ShardStatsSnapshot};
