//! Partitioned execution with replica failover for the MUVE engine.
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
//! The crate is a library and a measuring stick, not a serving backend:
//! the serving stack executes against the one table, and the benchmark
//! and the differential suites hold a gather to that table's answer.
//! What the crate adds is what happens when replicas misbehave:
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
//!   coverage-scaled estimate instead of an error.
//! - **Deterministic chaos** ([`ShardFaultInjector`]) — seeded
//!   replica-level fault injection (`error` / `panic` / `stall` / `down`
//!   / `latency`) so the failover machinery is testable and replayable;
//!   [`ShardSet::kill_replica`] / [`ShardSet::revive_replica`] take a
//!   replica out and bring it back by hand.
//!
//! The `N`×`R` layout is fixed when the set is built. Every
//! dispatch/reply/outcome lands in flow-conserving counters
//! ([`ShardStats`], one [`muve_obs::ledger!`] declaration) mirrored into
//! the `shard.*` namespace of the process-wide [`muve_obs`] metrics
//! registry.
//!
//! The robustness tuning is constants, not options — the replica breaker
//! (3 failures, 250 ms) and the per-replica queue bound (128) each have
//! one value in use. A sub-query scans on its replica's worker thread,
//! like every scan in the engine. [`ShardSpec`] is the shape (`N`×`R`).

#![warn(missing_docs)]

mod exec;
mod fault;
mod set;
mod stats;

pub use exec::{GatherReport, MissingCause, ShardExecOptions, ShardOutcome, ShardedResult};
pub use fault::{FaultKind, ShardFaultInjector};
pub use set::{ShardSet, ShardSpec};
pub use stats::{ShardStats, ShardStatsSnapshot};
