//! Flow-conserving counters for the scatter-gather executor.
//!
//! Every sub-query dispatched to a replica is eventually accounted for in
//! exactly one of `replies_ok` / `replies_err` / `rejects` — workers count
//! a reply *before* sending it, so even replies the gather abandoned (a
//! straggler past the deadline) land in the books. The
//! counter-only identities are declared with the ledger below and checked
//! by [`ShardStatsSnapshot::violations`]; the ones that need the layout stay
//! with the suites that know it (`tests/shard_failover.rs`):
//!
//! - `dispatched == gathers * shards + failovers`
//! - `gathers * shards == shards_served + shards_missing`
//! - `replica_trips == replica_recoveries + currently-suspect replicas`

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
        /// Sub-queries handed to replica workers (primaries + failovers).
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
    }
    histograms {
        fanout => "shard.fanout",
        subquery_us => "shard.subquery_us",
        gather_us => "shard.gather_us",
    }
    identities {
        (dispatched) == (replies_ok + replies_err + rejects);
        (replica_queue_shed) <= (rejects);
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
}
