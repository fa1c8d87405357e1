//! The scatter-gather executor: replica workers, hedged sub-queries,
//! failover, and typed partial-result degradation.
//!
//! A query scatters into one sub-query per shard. Each sub-query runs the
//! *scan half* of the batch engine ([`muve_dbms::ScanRequest::partials`]) on a
//! replica worker and replies with un-materialized partial aggregates; the
//! gather combines partials **in shard-index order** through
//! [`muve_dbms::combine_partials`], which is the same merge the
//! single-table path applies to its morsels — so a full gather answers as
//! the unsharded table does, bit for bit where float sums are exact (see
//! the crate docs).
//!
//! Robustness, per shard:
//!
//! - **Failover** — a typed sub-query failure re-dispatches to an untried
//!   replica; the per-replica breaker ([`muve_obs::Breaker`]) steers routing away
//!   from replicas that keep failing.
//! - **Hedging** — a sub-query still unanswered after the rolling-p99
//!   hedge delay is re-issued to a second replica; first answer wins, the
//!   loser's token is cancelled. Losers still run to their next
//!   cancellation point and still record their reply stats — abandonment
//!   never loses bookkeeping — but a cancelled copy records nothing in the
//!   replica's breaker (a cancelled probe only hands its probe slot back).
//! - **Degradation** — when every replica of a shard is out (or the
//!   deadline expires first), the gather returns what it has: a typed
//!   [`ShardOutcome::Missing`] per lost shard, with the combined result
//!   scaled by the served row fraction into an annotated estimate, the
//!   same arithmetic the sampling ladder uses.

use crate::fault::{FaultKind, ShardFaultInjector};
use crate::hedge::HedgeTracker;
use crate::set::{ReplicaCore, ShardSet, Topology};
use crate::stats::ShardStats;
use muve_dbms::Table;
use muve_dbms::{
    combine_partials, scale_result, systematic_rows, validate_query, ExecError, ExecOptions, Query,
    QueryPartials, ResultSet, ScanRequest, ScanRows,
};
use muve_obs::{Breaker, CancelToken, MemBudget};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::time::{Duration, Instant};

/// How long an injected stall holds a sub-query when no cancellation
/// arrives first. Bounded so chaos runs cannot wedge a worker forever.
const STALL_CAP: Duration = Duration::from_secs(2);

/// Gather poll granularity while waiting for replies.
const POLL: Duration = Duration::from_millis(10);

/// Why a shard contributed nothing to a gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingCause {
    /// Every replica was tried and none answered successfully.
    AllReplicasDown,
    /// Every remaining replica shed the dispatch because its bounded
    /// queue was full — the shard was overloaded, not down.
    Overloaded,
    /// The gather's deadline budget expired first.
    DeadlineExpired,
    /// The caller's cancel token fired mid-gather.
    Cancelled,
}

/// Per-shard outcome of one scatter-gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard's partials arrived.
    Served {
        /// Replica that answered first.
        replica: usize,
        /// Whether the winning answer was the hedge copy.
        hedged: bool,
    },
    /// The shard is absent from the combined result.
    Missing {
        /// Why.
        cause: MissingCause,
    },
}

/// What happened to each shard, plus the row coverage the served shards
/// represent.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherReport {
    /// Outcome per shard, indexed by shard.
    pub outcomes: Vec<ShardOutcome>,
    /// Rows the full gather would have covered (parent rows for an exact
    /// gather; for a sampled gather this stays the parent row count so
    /// [`coverage`](Self::coverage) *is* the realized sample fraction).
    pub rows_total: u64,
    /// Rows actually covered by served shards.
    pub rows_served: u64,
}

impl GatherReport {
    /// Shards that contributed partials.
    pub fn served(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, ShardOutcome::Served { .. }))
            .count()
    }

    /// Shards that are absent.
    pub fn missing(&self) -> usize {
        self.outcomes.len() - self.served()
    }

    /// Whether any shard is absent.
    pub fn is_partial(&self) -> bool {
        self.missing() > 0
    }

    /// Served-row fraction: `1.0` for a full exact gather, the realized
    /// sample fraction for a sampled gather, and the degradation scale
    /// factor for a partial one.
    pub fn coverage(&self) -> f64 {
        if self.rows_total == 0 {
            1.0
        } else {
            self.rows_served as f64 / self.rows_total as f64
        }
    }
}

/// A combined result plus the gather provenance callers need to label it
/// (exact vs. scaled-estimate, which shards are missing and why).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedResult {
    /// The combined (possibly coverage-scaled) result.
    pub result: ResultSet,
    /// Per-shard provenance.
    pub report: GatherReport,
}

/// Knobs of one sharded execution.
#[derive(Debug, Clone, Copy)]
pub struct ShardExecOptions<'a> {
    /// Caller cancellation, polled by the gather and propagated into every
    /// sub-query token.
    pub cancel: Option<&'a CancelToken>,
    /// Memory governor charged for the combine/materialization step.
    pub mem: Option<&'a MemBudget>,
    /// Wall-clock budget for the whole gather; sub-query tokens carry the
    /// derived deadline so stragglers self-cancel.
    pub budget: Option<Duration>,
    /// Accept a degraded (scaled, annotated) answer when shards are lost.
    /// When `false`, any missing shard fails the query instead.
    pub allow_partial: bool,
}

impl Default for ShardExecOptions<'_> {
    fn default() -> ShardExecOptions<'static> {
        ShardExecOptions {
            cancel: None,
            mem: None,
            budget: None,
            allow_partial: true,
        }
    }
}

/// Map global sorted row ids onto a shard's local row indexes by merge
/// intersection with its (sorted) global id list.
pub fn local_selection(shard_rows: &[u32], ids: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < shard_rows.len() && j < ids.len() {
        match shard_rows[i].cmp(&ids[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(i as u32);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// One sub-query handed to a replica worker (fields are crate-visible so
/// the healer can hand-build its warm-up probe).
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) query: Arc<Query>,
    pub(crate) selection: Option<Arc<Vec<u32>>>,
    pub(crate) cancel: CancelToken,
    pub(crate) hedge: bool,
    /// Holds the replica breaker's single probe slot.
    pub(crate) probe: bool,
    pub(crate) reply_tx: mpsc::Sender<Reply>,
}

/// A worker's answer.
#[derive(Debug)]
pub(crate) struct Reply {
    pub(crate) shard: usize,
    pub(crate) replica: usize,
    pub(crate) hedge: bool,
    pub(crate) result: Result<QueryPartials, ExecError>,
}

/// Replica worker loop: drain jobs until the set drops the queue. The
/// worker records health, hedge-latency, and reply counters *itself*,
/// before sending the reply — so sub-queries the gather abandoned still
/// land in the books and flow conservation holds under any interleaving.
/// A cancelled sub-query (hedge loser, gather deadline, caller cancel)
/// says nothing about the replica, so it records nothing in the breaker;
/// a cancelled probe only hands its probe slot back.
#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_main(
    shard: usize,
    replica: usize,
    table: Arc<Table>,
    dead: Arc<AtomicBool>,
    health: Arc<Breaker>,
    stats: Arc<ShardStats>,
    hedge: Arc<HedgeTracker>,
    injector: Arc<ShardFaultInjector>,
    rx: mpsc::Receiver<Job>,
) {
    while let Ok(job) = rx.recv() {
        let start = Instant::now();
        let result = run_job(shard, replica, &table, &dead, &injector, &job);
        let elapsed = start.elapsed();
        let ok = result.is_ok();
        if !matches!(result, Err(ExecError::Cancelled)) {
            stats.breaker_moved(health.record(ok, Instant::now()));
        } else if job.probe {
            health.release_probe();
        }
        if ok {
            hedge.record(elapsed);
            stats.replies_ok.incr();
        } else {
            stats.replies_err.incr();
        }
        stats.subquery_us.record_duration(elapsed);
        // The gather may be long gone (hedge loser, straggler): a closed
        // reply channel is fine, the books above are already settled.
        let _ = job.reply_tx.send(Reply {
            shard,
            replica,
            hedge: job.hedge,
            result,
        });
    }
}

/// Run one sub-query on this replica, applying armed faults first.
fn run_job(
    shard: usize,
    replica: usize,
    table: &Table,
    dead: &AtomicBool,
    injector: &ShardFaultInjector,
    job: &Job,
) -> Result<QueryPartials, ExecError> {
    if dead.load(Ordering::SeqCst) {
        return Err(ExecError::Unavailable(format!(
            "replica {shard}.{replica} is down"
        )));
    }
    match injector.action(shard, replica) {
        Some(FaultKind::Down) => {
            return Err(ExecError::Unavailable(format!(
                "injected: replica {shard}.{replica} down"
            )))
        }
        Some(FaultKind::DownUntilHealed) => {
            // The replica takes itself out for good: the dead flag makes
            // every subsequent sub-query fail fast, and the healer (if
            // running) notices the flag and re-replicates the position.
            dead.store(true, Ordering::SeqCst);
            return Err(ExecError::Unavailable(format!(
                "injected: replica {shard}.{replica} down until healed"
            )));
        }
        Some(FaultKind::Error) => {
            return Err(ExecError::Unavailable(format!(
                "injected: sub-query failure on {shard}.{replica}"
            )))
        }
        Some(FaultKind::Panic) => {
            // A real panic, contained by catch_unwind; the default panic
            // printer is suppressed for exactly this scope so seeded chaos
            // runs don't spray backtraces over test output.
            return contain_quietly(shard, replica, || {
                panic!("injected panic in replica {shard}.{replica}")
            });
        }
        Some(FaultKind::Stall) => {
            // A stall is a replica fault even when the token ends it, so
            // stall chaos still trips the breaker.
            interruptible_sleep(STALL_CAP, &job.cancel);
            return Err(ExecError::Unavailable(format!(
                "injected: stall on {shard}.{replica}"
            )));
        }
        Some(FaultKind::Latency(d)) if !interruptible_sleep(d, &job.cancel) => {
            return Err(ExecError::Cancelled);
        }
        Some(FaultKind::Latency(_)) | None => {}
    }
    // A full shard scan is a `ScanRows::All` request, so it consults the
    // access-path planner, building per-shard local indexes from the
    // projected table on first use. Shards keep the parent's
    // dictionaries, so every replica of every shard makes the *same*
    // index-vs-scan decision as the single-table path — sharded answers
    // stay bit-identical.
    let request = ScanRequest::new(
        job.selection
            .as_deref()
            .map_or(ScanRows::All, |ids| ScanRows::Ids(ids)),
        ExecOptions {
            cancel: Some(&job.cancel),
            ..ExecOptions::default()
        },
    );
    // Contain unexpected panics too (worker threads must outlive any one
    // sub-query), but without muzzling the printer: an un-injected panic
    // is a bug and should be loud.
    match panic::catch_unwind(AssertUnwindSafe(|| request.partials(table, &job.query))) {
        Ok(r) => r,
        Err(_) => Err(ExecError::Unavailable(format!(
            "replica {shard}.{replica} worker panicked"
        ))),
    }
}

thread_local! {
    /// Armed while an *injected* panic is in flight on this thread.
    static PANIC_QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that stays silent for panics
/// this module armed and chains to the previous hook for everything else.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !PANIC_QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Catch a panic from `f` with the default printer suppressed, mapping it
/// to a typed unavailability error.
fn contain_quietly<T>(shard: usize, replica: usize, f: impl FnOnce() -> T) -> Result<T, ExecError> {
    install_quiet_hook();
    PANIC_QUIET.with(|q| q.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(f));
    PANIC_QUIET.with(|q| q.set(false));
    out.map_err(|_| ExecError::Unavailable(format!("replica {shard}.{replica} worker panicked")))
}

/// Sleep up to `d`, waking early if `cancel` fires. Returns `true` when
/// the full duration elapsed.
fn interruptible_sleep(d: Duration, cancel: &CancelToken) -> bool {
    let deadline = Instant::now() + d;
    loop {
        if cancel.should_stop() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(2)));
    }
}

/// Why a dispatch happened, for the flow-conservation ledger: every
/// dispatched sub-query is a shard's one primary, a hedge, or a failover.
#[derive(Clone, Copy, PartialEq)]
enum DispatchKind {
    Primary,
    Hedge,
    Failover,
}

/// Per-shard gather state.
struct GatherShard {
    partials: Option<QueryPartials>,
    outcome: Option<ShardOutcome>,
    /// (replica, its sub-query token) for every copy still in flight.
    inflight: Vec<(usize, CancelToken)>,
    tried: Vec<bool>,
    hedge_at: Option<Instant>,
    hedged: bool,
}

impl ShardSet {
    /// Execute `query` across the shards, exactly when every shard
    /// answers, degrading to a typed scaled estimate when some don't (and
    /// `allow_partial` permits). A full gather answers as a
    /// [`muve_dbms::ScanRows::All`] request against the parent table
    /// does: bit-identical when every float sum is exact (integers,
    /// dyadic rationals), within about 15 significant digits otherwise —
    /// shards add their floats in a different order.
    ///
    /// The gather snapshots the topology once at entry (the epoch fence):
    /// a concurrent [`resize`](ShardSet::resize) or healer core-swap
    /// never hands a running query a half-switched layout.
    pub fn execute(
        &self,
        query: &Query,
        opts: ShardExecOptions<'_>,
    ) -> Result<ShardedResult, ExecError> {
        // Deterministic query errors (unknown column, type mismatch) are
        // the caller's bug, not a replica fault: surface them before any
        // dispatch so they never trip breakers or burn failovers.
        validate_query(&self.inner.parent, query)?;
        let topo = self.inner.topology();
        let (partials, report) = self.scatter_gather(&topo, query, None, &opts);
        let scale = report.coverage();
        self.finish(query, partials, report, &opts, scale)
    }

    /// Execute `query` over a systematic sample of the parent, mirroring a
    /// [`muve_dbms::ScanRows::Sample`] request: same row selection, same
    /// realized-fraction scaling, the `(result, realized)` shape of
    /// [`muve_dbms::execute_approximate`] — with the sample's rows routed
    /// to their owning shards. Lost shards
    /// shrink the realized fraction instead of failing the query, which is
    /// exactly the right estimator: `(a/b) · (b/n) = a/n`.
    pub fn execute_sampled(
        &self,
        query: &Query,
        fraction: f64,
        seed: u64,
        opts: ShardExecOptions<'_>,
    ) -> Result<(ShardedResult, f64), ExecError> {
        validate_query(&self.inner.parent, query)?;
        let topo = self.inner.topology();
        let n = self.inner.parent.num_rows();
        let ids = systematic_rows(n, fraction, seed);
        let selections: Vec<Arc<Vec<u32>>> = (0..topo.num_shards())
            .map(|s| Arc::new(local_selection(&topo.shards[s].rows, &ids)))
            .collect();
        let (partials, report) = self.scatter_gather(&topo, query, Some(selections), &opts);
        let realized = if n == 0 {
            1.0
        } else {
            report.coverage().max(f64::MIN_POSITIVE)
        };
        let sr = self.finish(query, partials, report, &opts, realized)?;
        muve_obs::metrics().counter("dbms.sample_execs").incr();
        Ok((sr, realized))
    }

    /// Scatter one sub-query per shard of `topo`, ride hedges/failovers,
    /// and return whatever partials arrived plus the per-shard outcome
    /// ledger. Never fails: lost shards become typed
    /// [`ShardOutcome::Missing`] entries.
    fn scatter_gather(
        &self,
        topo: &Topology,
        query: &Query,
        selections: Option<Vec<Arc<Vec<u32>>>>,
        opts: &ShardExecOptions<'_>,
    ) -> (Vec<Option<QueryPartials>>, GatherReport) {
        let n_shards = topo.num_shards();
        let started = Instant::now();
        let deadline = opts.budget.map(|b| started + b);
        let query = Arc::new(query.clone());
        let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
        self.inner.stats.gathers.incr();
        self.inner.stats.fanout.record(n_shards as u64);

        let hedge_delay = self.inner.hedge.delay();
        let can_hedge = topo.num_replicas() > 1;
        let mut gss: Vec<GatherShard> = (0..n_shards)
            .map(|_| GatherShard {
                partials: None,
                outcome: None,
                inflight: Vec::new(),
                tried: vec![false; topo.num_replicas()],
                hedge_at: None,
                hedged: false,
            })
            .collect();

        let mut unresolved = n_shards;
        for s in 0..n_shards {
            let sel = selections.as_ref().map(|v| &v[s]);
            let gs = &mut gss[s];
            match self.dispatch(
                topo,
                s,
                gs,
                &query,
                sel,
                &reply_tx,
                deadline,
                DispatchKind::Primary,
            ) {
                Ok(()) => {
                    if can_hedge {
                        gs.hedge_at = Some(Instant::now() + hedge_delay);
                    }
                }
                Err(cause) => {
                    // No replica could take it — nothing to wait for.
                    gs.outcome = Some(ShardOutcome::Missing { cause });
                    unresolved -= 1;
                }
            }
        }

        while unresolved > 0 {
            let now = Instant::now();
            if opts.cancel.is_some_and(|c| c.should_stop()) {
                resolve_rest(&mut gss, &mut unresolved, MissingCause::Cancelled);
                break;
            }
            if deadline.is_some_and(|d| now >= d) {
                resolve_rest(&mut gss, &mut unresolved, MissingCause::DeadlineExpired);
                break;
            }
            // Fire hedges that have come due.
            for s in 0..n_shards {
                let sel = selections.as_ref().map(|v| &v[s]);
                let gs = &mut gss[s];
                if gs.outcome.is_none() && !gs.hedged && gs.hedge_at.is_some_and(|t| now >= t) {
                    gs.hedged = true;
                    let _ = self.dispatch(
                        topo,
                        s,
                        gs,
                        &query,
                        sel,
                        &reply_tx,
                        deadline,
                        DispatchKind::Hedge,
                    );
                }
            }
            // Wait for a reply, but wake in time for the deadline or the
            // next due hedge.
            let mut wait = POLL;
            if let Some(d) = deadline {
                wait = wait.min(d.saturating_duration_since(now));
            }
            for gs in gss.iter().filter(|g| g.outcome.is_none() && !g.hedged) {
                if let Some(t) = gs.hedge_at {
                    wait = wait.min(t.saturating_duration_since(now));
                }
            }
            match reply_rx.recv_timeout(wait.max(Duration::from_micros(100))) {
                Ok(reply) => {
                    let sel = selections.as_ref().map(|v| &v[reply.shard]);
                    self.absorb_reply(
                        topo,
                        reply,
                        &mut gss,
                        &mut unresolved,
                        &query,
                        sel,
                        &reply_tx,
                        deadline,
                    );
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                // We hold a sender, so this arm is unreachable; treat it
                // like a timeout rather than asserting.
                Err(mpsc::RecvTimeoutError::Disconnected) => {}
            }
        }

        // Abandoned copies (stragglers past resolution, stallers past the
        // deadline) get their tokens cancelled so they unwind promptly.
        for gs in &gss {
            for (_, token) in &gs.inflight {
                token.cancel();
            }
        }

        let weights: Vec<u64> = match &selections {
            Some(sel) => sel.iter().map(|s| s.len() as u64).collect(),
            None => (0..n_shards)
                .map(|s| topo.shards[s].rows.len() as u64)
                .collect(),
        };
        let rows_total = match &selections {
            // Sampled gathers report coverage against the parent row count
            // so `coverage()` is the realized sample fraction.
            Some(_) => self.inner.parent.num_rows() as u64,
            None => weights.iter().sum(),
        };
        let mut rows_served = 0u64;
        let mut served = 0usize;
        let mut outcomes = Vec::with_capacity(n_shards);
        let mut partials = Vec::with_capacity(n_shards);
        for (s, mut gs) in gss.into_iter().enumerate() {
            let outcome = gs.outcome.unwrap_or(ShardOutcome::Missing {
                cause: MissingCause::Cancelled,
            });
            if matches!(outcome, ShardOutcome::Served { .. }) {
                rows_served += weights[s];
                served += 1;
            }
            outcomes.push(outcome);
            partials.push(gs.partials.take());
        }
        let stats = &self.inner.stats;
        stats.shards_served.add(served as u64);
        stats.shards_missing.add((n_shards - served) as u64);
        if 0 < served && served < n_shards {
            stats.partial_gathers.incr();
        }
        stats.gather_us.record_duration(started.elapsed());
        (
            partials,
            GatherReport {
                outcomes,
                rows_total,
                rows_served,
            },
        )
    }

    /// Dispatch one copy of the shard's sub-query to the best untried
    /// replica, retrying through rejects and sheds. Returns the typed
    /// cause when no replica could accept it: `Overloaded` when at least
    /// one bounded queue was full, `AllReplicasDown` otherwise.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        topo: &Topology,
        s: usize,
        gs: &mut GatherShard,
        query: &Arc<Query>,
        selection: Option<&Arc<Vec<u32>>>,
        reply_tx: &mpsc::Sender<Reply>,
        deadline: Option<Instant>,
        kind: DispatchKind,
    ) -> Result<(), MissingCause> {
        let mut attempt = 0usize;
        let mut shed_any = false;
        loop {
            let Some((r, core, probe)) = self.pick_replica(topo, s, &gs.tried) else {
                return Err(if shed_any {
                    MissingCause::Overloaded
                } else {
                    MissingCause::AllReplicasDown
                });
            };
            gs.tried[r] = true;
            // Ledger: the first primary attempt is the shard's one
            // scatter dispatch; every other dispatch is a hedge or a
            // failover (heal probes carry their own term), so
            // `dispatched == gathers·shards + hedges + failovers + heal_probes`.
            match kind {
                DispatchKind::Primary if attempt == 0 => {}
                DispatchKind::Hedge => self.inner.stats.hedges_fired.incr(),
                _ => self.inner.stats.failovers.incr(),
            }
            attempt += 1;
            let token = deadline
                .map(CancelToken::with_deadline)
                .unwrap_or_else(CancelToken::never);
            let job = Job {
                query: Arc::clone(query),
                selection: selection.map(Arc::clone),
                cancel: token.clone(),
                hedge: kind == DispatchKind::Hedge,
                probe,
                reply_tx: reply_tx.clone(),
            };
            self.inner.stats.dispatched.incr();
            match core.tx.try_send(job) {
                Ok(()) => {
                    gs.inflight.push((r, token));
                    return Ok(());
                }
                Err(mpsc::TrySendError::Full(_)) => {
                    // Typed per-replica overload: the bounded queue shed
                    // the dispatch. Feed the breaker's suspect logic —
                    // enough consecutive sheds trip the replica exactly
                    // like failed sub-queries would — and try the next
                    // replica.
                    shed_any = true;
                    let stats = &self.inner.stats;
                    stats.replica_queue_shed.incr();
                    stats.rejects.incr();
                    stats.breaker_moved(core.health.record(false, Instant::now()));
                }
                Err(mpsc::TrySendError::Disconnected(_)) => {
                    // The worker retired (topology teardown mid-gather).
                    self.inner.stats.rejects.incr();
                }
            }
        }
    }

    /// Route one sub-query: a probe-eligible suspect first (single-probe
    /// recovery), then healthy replicas in rotation (read load-balancing),
    /// then any untried suspect as a last resort. Returns the slot's
    /// current core alongside the index so the caller sends to the same
    /// core it inspected even across a concurrent heal swap, and whether
    /// the pick holds that core's probe slot.
    fn pick_replica(
        &self,
        topo: &Topology,
        s: usize,
        tried: &[bool],
    ) -> Option<(usize, Arc<ReplicaCore>, bool)> {
        let cores: Vec<Arc<ReplicaCore>> =
            topo.replicas[s].iter().map(|slot| slot.core()).collect();
        let now = Instant::now();
        for (r, core) in cores.iter().enumerate() {
            if !tried[r] && core.health.try_probe(now) {
                self.inner.stats.replica_probes.incr();
                return Some((r, Arc::clone(core), true));
            }
        }
        let start = topo.rr[s].fetch_add(1, Ordering::Relaxed);
        for k in 0..cores.len() {
            let r = (start + k) % cores.len();
            if !tried[r] && cores[r].health.is_closed() {
                return Some((r, Arc::clone(&cores[r]), false));
            }
        }
        tried
            .iter()
            .position(|&t| !t)
            .map(|r| (r, Arc::clone(&cores[r]), false))
    }

    /// Fold one worker reply into the gather.
    #[allow(clippy::too_many_arguments)]
    fn absorb_reply(
        &self,
        topo: &Topology,
        reply: Reply,
        gss: &mut [GatherShard],
        unresolved: &mut usize,
        query: &Arc<Query>,
        selection: Option<&Arc<Vec<u32>>>,
        reply_tx: &mpsc::Sender<Reply>,
        deadline: Option<Instant>,
    ) {
        let s = reply.shard;
        let gs = &mut gss[s];
        if let Some(pos) = gs.inflight.iter().position(|(r, _)| *r == reply.replica) {
            gs.inflight.remove(pos);
        }
        if gs.outcome.is_some() {
            // A straggler for an already-resolved shard: its health and
            // reply counters were recorded worker-side; nothing to do.
            return;
        }
        match reply.result {
            Ok(p) => {
                gs.partials = Some(p);
                gs.outcome = Some(ShardOutcome::Served {
                    replica: reply.replica,
                    hedged: reply.hedge,
                });
                if reply.hedge {
                    self.inner.stats.hedges_won.incr();
                }
                // First answer wins: release the losing copies.
                for (_, token) in &gs.inflight {
                    token.cancel();
                }
                *unresolved -= 1;
            }
            Err(e)
                if matches!(e, ExecError::Cancelled)
                    || deadline.is_some_and(|d| Instant::now() >= d) =>
            {
                // The copy was stopped by its own dispatch token — the
                // gather's deadline or the caller's cancel — or failed
                // once the budget was already spent (a stall ended by its
                // token reports a fault). Burning a failover on it (or
                // declaring the shard all-replicas-down) would misreport
                // a blown budget as unavailability.
                if gs.inflight.is_empty() {
                    let cause = if deadline.is_some_and(|d| Instant::now() >= d) {
                        MissingCause::DeadlineExpired
                    } else {
                        MissingCause::Cancelled
                    };
                    gs.outcome = Some(ShardOutcome::Missing { cause });
                    *unresolved -= 1;
                }
                // else: another copy (the hedge) is still out — wait.
            }
            Err(_) => {
                match self.dispatch(
                    topo,
                    s,
                    gs,
                    query,
                    selection,
                    reply_tx,
                    deadline,
                    DispatchKind::Failover,
                ) {
                    Ok(()) => (), // failover copy in flight
                    Err(cause) => {
                        if gs.inflight.is_empty() {
                            gs.outcome = Some(ShardOutcome::Missing { cause });
                            *unresolved -= 1;
                        }
                        // else: another copy (the hedge) is still out — wait.
                    }
                }
            }
        }
    }

    /// Combine served partials against the parent table and apply the
    /// coverage scale (a no-op at full coverage).
    fn finish(
        &self,
        query: &Query,
        partials: Vec<Option<QueryPartials>>,
        report: GatherReport,
        opts: &ShardExecOptions<'_>,
        scale: f64,
    ) -> Result<ShardedResult, ExecError> {
        let served: Vec<QueryPartials> = partials.into_iter().flatten().collect();
        if served.is_empty() || (!opts.allow_partial && report.is_partial()) {
            return Err(gather_error(&report));
        }
        let exec_opts = ExecOptions {
            cancel: opts.cancel,
            mem: opts.mem,
            progress: None,
        };
        let combined = combine_partials(&self.inner.parent, query, served, exec_opts)?;
        let result = scale_result(combined, query, scale);
        Ok(ShardedResult { result, report })
    }
}

/// Mark every still-unresolved shard missing with `cause`, cancelling its
/// in-flight copies.
fn resolve_rest(gss: &mut [GatherShard], unresolved: &mut usize, cause: MissingCause) {
    for gs in gss.iter_mut().filter(|g| g.outcome.is_none()) {
        gs.outcome = Some(ShardOutcome::Missing { cause });
        for (_, token) in &gs.inflight {
            token.cancel();
        }
        *unresolved -= 1;
    }
}

/// The typed error for a gather that could not (or was not allowed to)
/// produce an answer: the caller giving up is [`ExecError::Cancelled`],
/// the backends giving out is [`ExecError::Unavailable`].
fn gather_error(report: &GatherReport) -> ExecError {
    let gave_up = report.outcomes.iter().any(|o| {
        matches!(
            o,
            ShardOutcome::Missing {
                cause: MissingCause::Cancelled | MissingCause::DeadlineExpired,
            }
        )
    });
    if gave_up {
        ExecError::Cancelled
    } else {
        ExecError::Unavailable(format!(
            "{} of {} shards lost (replicas down or overloaded)",
            report.missing(),
            report.outcomes.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::ShardSpec;
    use muve_dbms::{execute, AggFunc, Aggregate, CmpOp, ColumnType, Predicate, Schema, Value};

    fn table(n: usize) -> Arc<Table> {
        let schema = Schema::new([
            ("carrier", ColumnType::Str),
            ("delay", ColumnType::Float),
            ("dist", ColumnType::Int),
        ]);
        let mut b = Table::builder("flights", schema);
        for i in 0..n as i64 {
            b.push_row([
                Value::from(format!("c{}", i % 5)),
                // Dyadic rationals: exact under any summation order.
                Value::Float(i as f64 / 4.0),
                Value::Int(i % 97),
            ]);
        }
        Arc::new(b.build())
    }

    fn queries() -> Vec<Query> {
        vec![
            Query {
                table: "flights".into(),
                aggregates: vec![Aggregate::count_star()],
                predicates: vec![Predicate::cmp("dist", CmpOp::Lt, 50i64)],
                group_by: vec![],
            },
            Query {
                table: "flights".into(),
                aggregates: vec![
                    Aggregate::over(AggFunc::Avg, "delay"),
                    Aggregate::over(AggFunc::Max, "dist"),
                ],
                predicates: vec![],
                group_by: vec!["carrier".into()],
            },
        ]
    }

    #[test]
    fn full_gather_is_bit_identical_to_unsharded() {
        let t = table(4000);
        for (shards, replicas) in [(1, 1), (3, 1), (4, 2)] {
            let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(shards, replicas));
            for q in queries() {
                let direct = execute(&t, &q).unwrap();
                let sharded = set.execute(&q, ShardExecOptions::default()).unwrap();
                assert!(!sharded.report.is_partial());
                assert_eq!(sharded.result, direct, "{shards}x{replicas} {q:?}");
            }
        }
    }

    #[test]
    fn killed_replicas_fail_over_without_degradation() {
        let t = table(2000);
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(3, 2));
        for s in 0..3 {
            set.kill_replica(s, 0);
        }
        for q in queries() {
            let direct = execute(&t, &q).unwrap();
            let sharded = set.execute(&q, ShardExecOptions::default()).unwrap();
            assert!(!sharded.report.is_partial(), "survivors serve every shard");
            assert_eq!(sharded.result, direct);
        }
        let snap = set.stats().snapshot();
        assert!(snap.failovers > 0, "dead primaries forced failovers");
    }

    #[test]
    fn lost_shard_degrades_to_typed_scaled_estimate() {
        let t = table(3000);
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(2, 1));
        set.kill_replica(0, 0);
        let q = &queries()[0];
        let sharded = set.execute(q, ShardExecOptions::default()).unwrap();
        assert!(sharded.report.is_partial());
        assert_eq!(sharded.report.served(), 1);
        assert!(matches!(
            sharded.report.outcomes[0],
            ShardOutcome::Missing {
                cause: MissingCause::AllReplicasDown
            }
        ));
        let cov = sharded.report.coverage();
        assert!(cov > 0.0 && cov < 1.0, "{cov}");
        // COUNT scaled by 1/coverage becomes a float estimate near truth.
        let est = match sharded.result.rows[0][0] {
            Value::Float(f) => f,
            ref v => panic!("scaled count should be a float, got {v:?}"),
        };
        let direct = execute(&t, q).unwrap();
        let truth = match direct.rows[0][0] {
            Value::Int(c) => c as f64,
            ref v => panic!("{v:?}"),
        };
        assert!((est - truth).abs() / truth < 0.15, "est {est} vs {truth}");
        // Strict mode refuses the same degraded answer.
        let strict = set.execute(
            q,
            ShardExecOptions {
                allow_partial: false,
                ..ShardExecOptions::default()
            },
        );
        assert!(
            matches!(strict, Err(ExecError::Unavailable(_))),
            "{strict:?}"
        );
    }

    #[test]
    fn total_loss_is_unavailable_and_deadline_is_cancelled() {
        let t = table(500);
        let set = ShardSet::build_with_faults(
            Arc::clone(&t),
            ShardSpec::new(2, 1),
            ShardFaultInjector::parse("*.*:error").unwrap(),
        );
        let q = &queries()[0];
        assert!(matches!(
            set.execute(q, ShardExecOptions::default()),
            Err(ExecError::Unavailable(_))
        ));

        let stalled = ShardSet::build_with_faults(
            Arc::clone(&t),
            ShardSpec::new(1, 1),
            ShardFaultInjector::parse("*.*:stall").unwrap(),
        );
        let out = stalled.execute(
            q,
            ShardExecOptions {
                budget: Some(Duration::from_millis(40)),
                ..ShardExecOptions::default()
            },
        );
        assert!(matches!(out, Err(ExecError::Cancelled)), "{out:?}");
        assert!(stalled.quiesce(Duration::from_secs(5)), "stall unwinds");
    }

    #[test]
    fn cancelled_subqueries_leave_the_breaker_alone() {
        // Every sub-query outlives its gather's budget and is cancelled by
        // the deadline: three in a row must not trip the live replica.
        let t = table(500);
        let set = ShardSet::build_with_faults(
            Arc::clone(&t),
            ShardSpec::new(1, 1),
            ShardFaultInjector::parse("*.*:latency=200").unwrap(),
        );
        let q = &queries()[0];
        for _ in 0..3 {
            let out = set.execute(
                q,
                ShardExecOptions {
                    budget: Some(Duration::from_millis(20)),
                    ..ShardExecOptions::default()
                },
            );
            assert!(matches!(out, Err(ExecError::Cancelled)), "{out:?}");
        }
        assert!(set.quiesce(Duration::from_secs(5)), "latency unwinds");
        assert_eq!(set.suspect_replicas(), 0);
    }

    #[test]
    fn cancelled_probe_hands_back_its_probe_slot() {
        let t = table(500);
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(1, 2));
        let q = &queries()[0];
        // Trip replica 0: its failures fail over to replica 1.
        set.kill_replica(0, 0);
        for _ in 0..20 {
            if !set.replica_healthy(0, 0) {
                break;
            }
            set.execute(q, ShardExecOptions::default()).unwrap();
        }
        assert!(!set.replica_healthy(0, 0), "replica 0 is suspect");
        // After the cooldown the next gather probes replica 0, and the
        // probe is cancelled by a hedge or the gather deadline.
        set.revive_replica(0, 0);
        let faults = set.fault_injector();
        faults.set_dynamic(0, 0, FaultKind::Latency(Duration::from_millis(500)));
        std::thread::sleep(crate::set::REPLICA_BREAKER.cooldown + Duration::from_millis(50));
        let probes = set.stats().snapshot().replica_probes;
        let _ = set.execute(
            q,
            ShardExecOptions {
                budget: Some(Duration::from_millis(50)),
                ..ShardExecOptions::default()
            },
        );
        assert!(set.quiesce(Duration::from_secs(5)), "latency unwinds");
        assert_eq!(set.stats().snapshot().replica_probes, probes + 1);
        // The slot came back: a later gather probes again and closes it.
        faults.clear_dynamic(0, 0);
        let give_up = Instant::now() + Duration::from_secs(5);
        while !set.replica_healthy(0, 0) && Instant::now() < give_up {
            set.execute(q, ShardExecOptions::default()).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            set.replica_healthy(0, 0),
            "a fresh probe closed the breaker"
        );
        assert!(set.stats().snapshot().replica_probes > probes + 1);
    }

    #[test]
    fn sampled_gather_matches_unsharded_sampling() {
        let t = table(5000);
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(4, 1));
        let q = &queries()[0];
        for fraction in [0.1, 0.5, 1.0] {
            let (direct, realized_d) = muve_dbms::execute_approximate(&t, q, fraction, 7).unwrap();
            let (sharded, realized_s) = set
                .execute_sampled(q, fraction, 7, ShardExecOptions::default())
                .unwrap();
            assert_eq!(realized_s.to_bits(), realized_d.to_bits(), "f={fraction}");
            assert_eq!(sharded.result, direct, "f={fraction}");
        }
    }

    #[test]
    fn query_errors_do_not_burn_replicas() {
        let t = table(100);
        let set = ShardSet::build(Arc::clone(&t), ShardSpec::new(2, 1));
        let bad = Query {
            table: "flights".into(),
            aggregates: vec![Aggregate::over(AggFunc::Sum, "carrier")],
            predicates: vec![],
            group_by: vec![],
        };
        assert!(matches!(
            set.execute(&bad, ShardExecOptions::default()),
            Err(ExecError::TypeError(_))
        ));
        let snap = set.stats().snapshot();
        assert_eq!(snap.dispatched, 0, "rejected before any dispatch");
        assert_eq!(set.suspect_replicas(), 0);
    }

    #[test]
    fn local_selection_maps_global_ids() {
        let shard_rows = [2u32, 5, 9, 14];
        assert_eq!(
            local_selection(&shard_rows, &[0, 2, 9, 13, 14, 20]),
            vec![0, 2, 3]
        );
        assert!(local_selection(&shard_rows, &[]).is_empty());
        assert!(local_selection(&[], &[1, 2]).is_empty());
    }
}
