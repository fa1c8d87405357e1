//! Flow-conserving counters for the scatter-gather executor.
//!
//! Every sub-query dispatched to a replica is eventually accounted for in
//! exactly one of `replies_ok` / `replies_err` / `rejects` — workers count
//! a reply *before* sending it, so even replies the gather abandoned (a
//! straggler past the deadline) land in the books. The
//! counter-only identities are declared with the ledger below and checked
//! by [`ShardStatsSnapshot::violations`]; the ones that need topology stay
//! with the suites that know it (`tests/shard_failover.rs`):
//!
//! - `dispatched == gathers * shards + failovers + heal_probes`
//! - `gathers * shards == shards_served + shards_missing`
//! - `replica_trips == replica_recoveries + currently-suspect replicas`
//!
//! The gather-count term uses the shard count of each gather's own
//! topology snapshot, so the taxonomy holds across live resizes (tests
//! that resize track `Σ gathers·shards(topology)` themselves).

use muve_obs::BreakerTransition;

muve_obs::ledger! {
    /// Counters of one [`crate::ShardSet`]'s lifetime, each mirrored into
    /// the process-wide [`muve_obs`] registry under its `shard.*` name, so
    /// `\stats` and serving dashboards see them alongside the dbms and
    /// pipeline counters.
    pub struct ShardStats =>
    /// A point-in-time copy of [`ShardStats`].
    pub struct ShardStatsSnapshot {
        /// Scatter-gathers started.
        gathers => "shard.scatters",
        /// Sub-queries handed to replica workers (primaries + failovers +
        /// heal probes).
        dispatched => "shard.subqueries",
        /// Sub-queries a worker answered successfully (counted even when
        /// the gather had already moved on).
        replies_ok => "shard.replies_ok",
        /// Sub-queries a worker answered with a typed failure.
        replies_err => "shard.replies_err",
        /// Dispatches that never reached a worker (its queue was full or
        /// gone).
        rejects => "shard.rejects",
        /// Re-dispatches to another replica after a typed failure.
        failovers => "shard.failovers",
        /// Sub-queries routed to a suspect replica as its single probe.
        replica_probes => "shard.replica_probes",
        /// Healthy→suspect transitions (consecutive-failure trips).
        replica_trips => "shard.replica_trips",
        /// Suspect→healthy transitions (a success while suspect).
        replica_recoveries => "shard.replica_recoveries",
        /// Shards that contributed partials to a gather.
        shards_served => "shard.served_shards",
        /// Shards a gather gave up on (all replicas down, deadline, cancel).
        shards_missing => "shard.missing_shards",
        /// Gathers that completed with some — but not all — shards served.
        partial_gathers => "shard.partial_gathers",
        /// Dispatches shed because the target replica's bounded queue was
        /// full (a typed subset of [`rejects`](Self::rejects)).
        replica_queue_shed => "shard.replica_queue_shed",
        /// Heal attempts the healer started (dead or persistently-suspect
        /// replica detected).
        heals_started => "shard.heals_started",
        /// Heals that re-admitted a warmed replacement replica to routing.
        heals_completed => "shard.heals_completed",
        /// Heals abandoned (probe failed or a resize retired the topology
        /// mid-heal).
        heals_failed => "shard.heals_failed",
        /// Warm-up sub-queries dispatched to replacement workers (also
        /// counted in [`dispatched`](Self::dispatched), so the attempt
        /// taxonomy stays an exact identity).
        heal_probes => "shard.heal_probes",
        /// Live topology resizes.
        resizes => "shard.resizes",
    }
    histograms {
        fanout => "shard.fanout",
        subquery_us => "shard.subquery_us",
        gather_us => "shard.gather_us",
        heal_us => "shard.heal_us",
    }
    identities {
        (dispatched) == (replies_ok + replies_err + rejects);
        (replica_queue_shed) <= (rejects);
        (heals_started) >= (heals_completed + heals_failed);
    }
}

impl ShardStats {
    /// What a recorded outcome did to a replica's breaker.
    pub(crate) fn breaker_moved(&self, transition: BreakerTransition) {
        match transition {
            BreakerTransition::Opened => self.replica_trips.incr(),
            BreakerTransition::Closed => self.replica_recoveries.incr(),
            BreakerTransition::Reopened | BreakerTransition::None => {}
        }
    }
}

impl ShardStatsSnapshot {
    /// Sub-queries accounted for by a worker (or a reject): when the set
    /// is quiescent this equals [`dispatched`](Self::dispatched).
    pub fn accounted(&self) -> u64 {
        self.replies_ok + self.replies_err + self.rejects
    }

    /// Heals started but not yet completed or failed.
    pub fn heals_in_flight(&self) -> u64 {
        self.heals_started
            .saturating_sub(self.heals_completed + self.heals_failed)
    }
}
