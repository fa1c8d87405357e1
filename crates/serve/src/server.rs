//! The worker pool, admission queue, retry loop, and drain logic.

use muve_core::Planner;
use muve_dbms::Table;
use muve_obs::{
    lock_recover, Breaker, BreakerConfig, BreakerDecision, BreakerState, BreakerTransition,
    CancelToken, MemPool,
};
use muve_pipeline::{
    DeadlineBudget, FaultInjector, Lexicon, Session, SessionCaches, SessionConfig, SessionOutcome,
    Stage, Visualization,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retry policy for transiently failed sessions. Backoff is exponential
/// (`base · 2^(attempt−1)`, capped at `cap`) with ±50 % multiplicative
/// jitter from a seeded RNG, and every delay is bounded by the request's
/// remaining deadline: a retry that could not leave `min_headroom` of
/// budget for the attempt itself is not taken.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum retries per request (attempts = retries + 1).
    pub max_retries: u32,
    /// First backoff delay.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Do not retry unless `remaining > delay + min_headroom`.
    pub min_headroom: Duration,
    /// Seed of the jitter RNG (each worker derives its own stream).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            min_headroom: Duration::from_millis(25),
            jitter_seed: 0x5EED,
        }
    }
}

/// Configuration of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads consuming the admission queue.
    pub workers: usize,
    /// Bound of the admission queue; a submit beyond it is shed.
    pub queue_depth: usize,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Per-stage circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Shared cross-request cache bundle. `None` disables caching; the
    /// server stamps the bundle with the table's epoch at startup.
    pub caches: Option<Arc<SessionCaches>>,
    /// Run the watchdog thread: it cancels requests stuck past
    /// [`STUCK_FACTOR`]·θ and respawns worker threads killed by escaped
    /// panics, recording the lost request as a typed crashed shed. Without
    /// it, an escaped panic silently shrinks the pool and the caller's
    /// [`Ticket`] resolves to a generic shutdown shed.
    pub watchdog: bool,
    /// Per-request memory cap for execution state, in MiB; the server also
    /// maintains a global pool of `mem_cap_mb × workers` MiB that every
    /// in-flight request charges against. `0` disables the governor.
    /// Requests that set their own [`SessionConfig::mem_cap_bytes`] keep
    /// it; the global pool applies either way.
    pub mem_cap_mb: usize,
    /// Scheduling weight per tenant lane (`(tenant, weight)`), for the
    /// weighted fair-share admission queue. Tenants not listed here get
    /// weight 1; weight 0 is clamped to 1. The queue holds one *lane* per
    /// tenant name seen on submitted requests, each bounded at
    /// [`queue_depth`](Self::queue_depth), and workers pick lanes by
    /// smooth weighted round-robin — so one tenant flooding its lane can
    /// neither evict nor starve another tenant's requests.
    pub lane_weights: Vec<(String, u32)>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            caches: None,
            watchdog: true,
            mem_cap_mb: 0,
            lane_weights: Vec::new(),
        }
    }
}

/// A request older than `STUCK_FACTOR × θ` (measured from worker pickup)
/// has blown well past every in-band deadline check; the watchdog fires
/// its cancellation token so the next cancellation point aborts it.
pub const STUCK_FACTOR: u32 = 3;

/// How often the watchdog samples worker liveness and request age.
const WATCHDOG_POLL: Duration = Duration::from_millis(10);

/// One voice-query request: a transcript plus the session configuration it
/// should run under. Owned throughout (`Send + 'static`), so it can cross
/// into the worker pool.
#[derive(Debug)]
pub struct Request {
    /// The voice transcript (or SQL) to answer.
    pub transcript: String,
    /// Per-request session configuration; `config.deadline` is the
    /// request's end-to-end budget θ, started at submission.
    pub config: SessionConfig,
    /// Fault plan for chaos testing (default: none).
    pub injector: FaultInjector,
    /// The tenant lane this request queues in (`""` = the default lane).
    /// See [`ServerConfig::lane_weights`].
    pub tenant: String,
    /// An externally owned cancellation token. When set, the worker runs
    /// the session under *this* token instead of minting one from the
    /// budget, so the submitter (e.g. the network layer watching the
    /// client socket) can abort the request from outside — a token
    /// cancelled with [`CancelToken::cancel_client_gone`] while the
    /// request is still queued sheds it at pickup as a typed
    /// [`Rejected::ClientGone`]. The token should carry the request's
    /// deadline or the in-band θ enforcement is lost.
    pub cancel: Option<CancelToken>,
}

impl Request {
    /// A request with the default session configuration.
    pub fn new(transcript: impl Into<String>) -> Request {
        Request {
            transcript: transcript.into(),
            config: SessionConfig::default(),
            injector: FaultInjector::none(),
            tenant: String::new(),
            cancel: None,
        }
    }

    /// Replace the session configuration.
    pub fn with_config(mut self, config: SessionConfig) -> Request {
        self.config = config;
        self
    }

    /// Plant a fault plan.
    pub fn with_injector(mut self, injector: FaultInjector) -> Request {
        self.injector = injector;
        self
    }

    /// Queue in `tenant`'s fair-share lane.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Request {
        self.tenant = tenant.into();
        self
    }

    /// Run under an externally owned cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Request {
        self.cancel = Some(token);
        self
    }
}

/// Why a request was shed instead of served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// Admission control refused the request: the queue is full, or the
    /// expected queue wait would consume the request's entire deadline.
    Overloaded {
        /// Queue depth observed at submission.
        queue_depth: usize,
        /// Expected wait for a worker at submission.
        expected_wait: Duration,
    },
    /// The request's deadline expired while it waited in the queue; it was
    /// shed at pickup instead of burning a worker on a dead request.
    Expired {
        /// How long the request waited before being picked up.
        waited: Duration,
    },
    /// The server is draining (or gone) and no longer admits requests.
    ShuttingDown,
    /// The worker thread running this request died (a panic escaped the
    /// session's stage guards). The watchdog detected the dead thread,
    /// resolved the request with this typed reason, and respawned the
    /// worker so the pool keeps its strength.
    WorkerCrashed,
    /// The client that submitted this request disconnected while it was
    /// still queued (its [`Request::cancel`] token fired with
    /// [`CancelCause::ClientGone`](muve_obs::CancelCause::ClientGone)); it
    /// was shed at pickup instead of burning a worker on an answer nobody
    /// is waiting for.
    ClientGone,
}

impl Rejected {
    /// The one shared user-facing message for this rejection, used
    /// verbatim by the CLI shell, the serve [`Display`](fmt::Display)
    /// impl, and the JSON `error` field of `muve-net` responses.
    pub fn user_message(&self) -> String {
        match self {
            Rejected::Overloaded {
                queue_depth,
                expected_wait,
            } => format!(
                "overloaded: {queue_depth} queued, expected wait {:.0} ms — retry shortly",
                expected_wait.as_secs_f64() * 1000.0
            ),
            Rejected::Expired { waited } => format!(
                "deadline expired after {:.0} ms in the queue",
                waited.as_secs_f64() * 1000.0
            ),
            Rejected::ShuttingDown => "server is shutting down".to_owned(),
            Rejected::WorkerCrashed => "worker thread crashed mid-request".to_owned(),
            Rejected::ClientGone => "client disconnected before the answer was ready".to_owned(),
        }
    }

    /// The HTTP status `muve-net` maps this rejection to: `429` for load
    /// shedding (retry can help), `504` for a deadline that died in the
    /// queue, `503` for a draining server, `500` for a crashed worker, and
    /// the conventional nginx `499` for a client that hung up first.
    pub fn http_status(&self) -> u16 {
        match self {
            Rejected::Overloaded { .. } => 429,
            Rejected::Expired { .. } => 504,
            Rejected::ShuttingDown => 503,
            Rejected::WorkerCrashed => 500,
            Rejected::ClientGone => 499,
        }
    }

    /// The `Retry-After` hint (whole seconds, rounded up, at least 1)
    /// `muve-net` attaches to shed responses, for the rejections where a
    /// retry can plausibly succeed.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            Rejected::Overloaded { expected_wait, .. } => Some(Duration::from_secs(
                (expected_wait.as_secs_f64().ceil() as u64).max(1),
            )),
            Rejected::ShuttingDown => Some(Duration::from_secs(1)),
            Rejected::Expired { .. } | Rejected::WorkerCrashed | Rejected::ClientGone => None,
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.user_message())
    }
}

/// The one typed outcome every request resolves to.
#[derive(Debug)]
pub enum ServeOutcome {
    /// A worker ran the session (possibly retrying); the outcome inside is
    /// always well-formed, and [`SessionOutcome::degraded`] distinguishes
    /// served-as-planned from degraded.
    Completed {
        /// The (best) session outcome across attempts (boxed: a session
        /// outcome is ~half a kilobyte, a shed reason a few words).
        outcome: Box<SessionOutcome>,
        /// Session attempts made (1 = no retries).
        attempts: u32,
        /// Time spent waiting for a worker.
        queue_wait: Duration,
        /// Submission-to-resolution wall clock.
        total: Duration,
    },
    /// The request was shed after admission (see [`Rejected`]).
    Shed {
        /// Why it was shed.
        reason: Rejected,
        /// Submission-to-resolution wall clock.
        total: Duration,
    },
}

impl ServeOutcome {
    /// The served/degraded/shed classification of this outcome.
    pub fn class(&self) -> OutcomeClass {
        match self {
            ServeOutcome::Completed { outcome, .. } if outcome.degraded() => OutcomeClass::Degraded,
            ServeOutcome::Completed { .. } => OutcomeClass::Served,
            ServeOutcome::Shed { .. } => OutcomeClass::Shed,
        }
    }
}

/// The three terminal classes a request can end in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// Completed on its planned rung.
    Served,
    /// Completed below its planned rung.
    Degraded,
    /// Never ran: shed at admission, in the queue, or at shutdown.
    Shed,
}

/// The pending result of a submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<ServeOutcome>,
}

impl Ticket {
    /// Block until the request resolves. With the watchdog on, a worker
    /// killed mid-request resolves as a typed [`Rejected::WorkerCrashed`]
    /// shed; without it, the dropped sender reads as a shutdown shed —
    /// either way, never a hang.
    pub fn wait(self) -> ServeOutcome {
        self.rx.recv().unwrap_or(ServeOutcome::Shed {
            reason: Rejected::ShuttingDown,
            total: Duration::ZERO,
        })
    }

    /// Like [`wait`](Self::wait) with an upper bound; `None` on timeout.
    pub fn wait_timeout(self, timeout: Duration) -> Option<ServeOutcome> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Poll for the outcome without consuming the ticket: `None` means
    /// not resolved yet, keep polling. This is what the network layer
    /// uses to interleave waiting for the worker with watching the client
    /// socket for a disconnect. A dropped sender (server torn down)
    /// resolves as a shutdown shed, same as [`wait`](Self::wait).
    pub fn wait_for(&self, timeout: Duration) -> Option<ServeOutcome> {
        match self.rx.recv_timeout(timeout) {
            Ok(out) => Some(out),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(ServeOutcome::Shed {
                reason: Rejected::ShuttingDown,
                total: Duration::ZERO,
            }),
        }
    }
}

muve_obs::ledger! {
    /// Live request-level counters of one server, each mirrored into the
    /// process-wide registry under its `serve.*` name.
    struct Stats =>
    /// Point-in-time serving statistics (request-level; exact, per-server).
    pub struct ServeStats {
        /// Requests handed to `submit`.
        submitted => "serve.submitted",
        /// Requests completed on their planned rung.
        served => "serve.served",
        /// Requests completed below their planned rung.
        degraded => "serve.degraded",
        /// Requests shed (admission, queue expiry, shutdown).
        shed => "serve.shed",
        /// Session retries taken beyond first attempts.
        retries => "serve.retries",
        /// Circuit-breaker open transitions.
        breaker_opens => "serve.breaker_open",
        /// Requests lost to a worker crash (counted *within* `shed`: the
        /// watchdog resolves each with [`Rejected::WorkerCrashed`]).
        crashed => "serve.worker_crashes",
        /// Worker threads respawned by the watchdog after a crash.
        respawns => "serve.worker_respawns",
        /// Stuck requests whose token the watchdog cancelled.
        watchdog_cancels => "serve.watchdog_cancels",
        /// Requests admitted to the queue.
        enqueued => "serve.enqueued",
        /// Requests a worker picked up from the queue.
        dequeued => "serve.dequeued",
        /// Queued requests shed at pickup because their client hung up.
        client_gone => "serve.client_gone",
    }
    extra {
        /// Requests currently queued (waiting for a worker).
        queue_depth: usize,
    }
    histograms {
        queue_depth => "serve.queue_depth",
        queue_wait_us => "serve.queue_wait_us",
        e2e_us => "serve.e2e_us",
    }
    identities {
        (submitted) == (served + degraded + shed);
        (crashed) <= (shed);
    }
}

impl ServeStats {
    /// Whether every submitted request has resolved to exactly one class
    /// (no declared identity is [violated](Self::violations)). Crashed
    /// requests are shed (with a typed reason), so the books balance even
    /// under a worker-death storm.
    pub fn reconciles(&self) -> bool {
        self.violations().is_empty()
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "submitted {}  served {}  degraded {}  shed {}  retries {}  breaker opens {}  \
             crashed {}  respawns {}  watchdog cancels {}  queued {}",
            self.submitted,
            self.served,
            self.degraded,
            self.shed,
            self.retries,
            self.breaker_opens,
            self.crashed,
            self.respawns,
            self.watchdog_cancels,
            self.queue_depth
        )
    }
}

/// The report [`Server::drain`] returns once every in-flight request has
/// resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Final request-level statistics; `queue_depth` is zero.
    pub stats: ServeStats,
}

impl fmt::Display for DrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "drained: {}", self.stats)
    }
}

struct Job {
    req: Request,
    budget: DeadlineBudget,
    tx: mpsc::Sender<ServeOutcome>,
}

/// One tenant's slice of the admission queue.
struct Lane {
    tenant: String,
    weight: u32,
    /// Smooth weighted-round-robin credit.
    credit: i64,
    jobs: VecDeque<Job>,
}

#[derive(Default)]
struct QueueState {
    /// One lane per tenant name seen on submitted requests, in first-seen
    /// order. The common no-tenant case is a single lane named `""`.
    lanes: Vec<Lane>,
    draining: bool,
    /// Set by [`Server::drain_shedding`]: workers flush still-queued jobs
    /// as typed [`Rejected::ShuttingDown`] sheds instead of running them.
    shed_queued: bool,
}

impl QueueState {
    fn total_queued(&self) -> usize {
        self.lanes.iter().map(|l| l.jobs.len()).sum()
    }

    fn lane_mut(&mut self, tenant: &str, weights: &[(String, u32)]) -> &mut Lane {
        if let Some(i) = self.lanes.iter().position(|l| l.tenant == tenant) {
            return &mut self.lanes[i];
        }
        let weight = weights
            .iter()
            .find(|(t, _)| t == tenant)
            .map_or(1, |(_, w)| (*w).max(1));
        self.lanes.push(Lane {
            tenant: tenant.to_owned(),
            weight,
            credit: 0,
            jobs: VecDeque::new(),
        });
        self.lanes.last_mut().expect("just pushed")
    }

    /// Pop the next job by smooth weighted round-robin over the non-empty
    /// lanes: every candidate lane earns its weight in credit, the richest
    /// lane is served and pays back the total weight in play. Over time
    /// each backlogged tenant is served in proportion to its weight, so a
    /// flooding tenant cannot starve the rest.
    fn pop_next(&mut self) -> Option<Job> {
        let total: i64 = self
            .lanes
            .iter()
            .filter(|l| !l.jobs.is_empty())
            .map(|l| l.weight as i64)
            .sum();
        if total == 0 {
            return None;
        }
        let mut best: Option<usize> = None;
        for i in 0..self.lanes.len() {
            if self.lanes[i].jobs.is_empty() {
                continue;
            }
            self.lanes[i].credit += self.lanes[i].weight as i64;
            match best {
                Some(b) if self.lanes[b].credit >= self.lanes[i].credit => {}
                _ => best = Some(i),
            }
        }
        let b = best?;
        self.lanes[b].credit -= total;
        self.lanes[b].jobs.pop_front()
    }
}

/// What the watchdog knows about one in-flight request: enough to judge
/// it stuck (`started`, `total`), cancel it (`token`), and — if the worker
/// thread dies under it — resolve the caller's ticket (`tx`) with a typed
/// crashed shed. The worker fills its slot at pickup and clears it *after*
/// sending the outcome, so a dead thread with an occupied slot always
/// means an unanswered request.
struct ActiveReq {
    token: CancelToken,
    started: Instant,
    total: Duration,
    cancelled: bool,
    tx: mpsc::Sender<ServeOutcome>,
}

struct Shared {
    cfg: ServerConfig,
    table: Arc<Table>,
    /// The lookup structures of `table`, shared by every worker session;
    /// empty at startup, each part built by the first request needing it.
    lexicon: Arc<Lexicon>,
    queue: Mutex<QueueState>,
    available: Condvar,
    /// One breaker per pipeline stage, indexed by [`Stage::index`].
    breakers: [Breaker; 5],
    /// EWMA of per-request service time, microseconds (0 = no data yet).
    ewma_service_us: AtomicU64,
    stats: Stats,
    /// Per-worker in-flight request slots, indexed by worker id.
    active: Mutex<Vec<Option<ActiveReq>>>,
    /// Per-worker join handles, indexed by worker id; the watchdog swaps
    /// in fresh handles when it respawns a dead worker.
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Tells the watchdog thread to exit (set at the end of drain).
    watchdog_stop: AtomicBool,
    /// Global execution-memory pool (`mem_cap_mb × workers` MiB).
    mem_pool: Option<Arc<MemPool>>,
}

/// A concurrent MUVE serving instance: a fixed worker pool consuming a
/// bounded admission queue of [`Request`]s, with deadline-aware load
/// shedding, bounded retries, per-stage circuit breakers, and graceful
/// drain. See the crate docs for the full semantics.
pub struct Server {
    shared: Arc<Shared>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.shared.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// Spawn `cfg.workers` worker threads over `table` and start admitting
    /// requests.
    pub fn new(table: Arc<Table>, cfg: ServerConfig) -> Server {
        let workers = cfg.workers.max(1);
        if let Some(caches) = &cfg.caches {
            caches.set_table(&table);
        }
        let mem_pool = (cfg.mem_cap_mb > 0)
            .then(|| Arc::new(MemPool::new(cfg.mem_cap_mb * workers * 1024 * 1024)));
        let shared = Arc::new(Shared {
            breakers: std::array::from_fn(|_| Breaker::new(cfg.breaker)),
            cfg,
            lexicon: Arc::new(Lexicon::new(&table)),
            table,
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            ewma_service_us: AtomicU64::new(0),
            stats: Stats::new(),
            active: Mutex::new((0..workers).map(|_| None).collect()),
            workers: Mutex::new((0..workers).map(|_| None).collect()),
            watchdog_stop: AtomicBool::new(false),
            mem_pool,
        });
        {
            let mut slots = lock_recover(&shared.workers, "serve.lock_poisoned");
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = Some(spawn_worker(&shared, i));
            }
        }
        let watchdog = shared.cfg.watchdog.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("muve-serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog thread")
        });
        Server {
            shared,
            watchdog: Mutex::new(watchdog),
        }
    }

    /// Submit a request. Admission control runs *inline and in O(µs)* —
    /// no worker is occupied, no session is built:
    ///
    /// - a draining server sheds with [`Rejected::ShuttingDown`];
    /// - a full queue sheds with [`Rejected::Overloaded`];
    /// - a queue whose *expected wait* (queued × EWMA service time ÷
    ///   workers) would consume the request's whole deadline sheds with
    ///   [`Rejected::Overloaded`] immediately, instead of letting the
    ///   request time out in the queue.
    ///
    /// On admission the request's [`DeadlineBudget`] starts ticking
    /// immediately, so queue wait is charged against its deadline.
    pub fn submit(&self, req: Request) -> Result<Ticket, Rejected> {
        let shared = &self.shared;
        shared.stats.submitted.incr();
        let mut q = lock_recover(&shared.queue, "serve.lock_poisoned");
        if q.draining {
            drop(q);
            shared.stats.shed.incr();
            return Err(Rejected::ShuttingDown);
        }
        let lane_depth = q
            .lanes
            .iter()
            .find(|l| l.tenant == req.tenant)
            .map_or(0, |l| l.jobs.len());
        let expected_wait = self.expected_wait(q.total_queued());
        if lane_depth >= shared.cfg.queue_depth || expected_wait >= req.config.deadline {
            drop(q);
            shared.stats.shed.incr();
            return Err(Rejected::Overloaded {
                queue_depth: lane_depth,
                expected_wait,
            });
        }
        let budget = DeadlineBudget::new(req.config.deadline);
        let (tx, rx) = mpsc::channel();
        let tenant = req.tenant.clone();
        q.lane_mut(&tenant, &shared.cfg.lane_weights)
            .jobs
            .push_back(Job { req, budget, tx });
        let depth_after = q.total_queued();
        drop(q);
        shared.available.notify_one();
        shared.stats.enqueued.incr();
        shared.stats.queue_depth.record(depth_after as u64);
        Ok(Ticket { rx })
    }

    /// Expected time a request submitted now would wait for a worker.
    fn expected_wait(&self, queue_depth: usize) -> Duration {
        let ewma = self.shared.ewma_service_us.load(Ordering::Relaxed);
        let workers = self.shared.cfg.workers.max(1) as u64;
        Duration::from_micros(ewma.saturating_mul(queue_depth as u64 + 1) / workers)
    }

    /// The lexicon every worker session looks utterances up in: one per
    /// server, built lazily by the first requests that need each part.
    pub fn lexicon(&self) -> &Arc<Lexicon> {
        &self.shared.lexicon
    }

    /// Exact request-level statistics for this server.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            queue_depth: lock_recover(&self.shared.queue, "serve.lock_poisoned").total_queued(),
            ..self.shared.stats.snapshot()
        }
    }

    /// Bytes currently charged against the global execution-memory pool
    /// (`None` when the governor is disabled). Returns to zero once every
    /// in-flight request has drained.
    pub fn mem_pool_used(&self) -> Option<usize> {
        self.shared.mem_pool.as_ref().map(|p| p.used())
    }

    /// The circuit-breaker state of one pipeline stage.
    pub fn breaker_state(&self, stage: Stage) -> BreakerState {
        self.shared.breakers[stage.index()].state()
    }

    /// Gracefully drain: stop admitting, let the workers finish every
    /// queued and in-flight request, join them, and report the final
    /// shed/served counts. Requests submitted after (or during) the drain
    /// are shed with [`Rejected::ShuttingDown`]. Idempotent.
    pub fn drain(&self) -> DrainReport {
        self.drain_inner(false)
    }

    /// Drain like [`drain`](Self::drain), but *shed* the still-queued
    /// requests as typed [`Rejected::ShuttingDown`] outcomes instead of
    /// running them: in-flight requests (already picked up by a worker)
    /// complete normally; everything still waiting resolves immediately.
    /// This is the shutdown-on-signal path of `muve-net`, where finishing
    /// a deep backlog would hold the process open past its grace period.
    pub fn drain_shedding(&self) -> DrainReport {
        self.drain_inner(true)
    }

    fn drain_inner(&self, shed_queued: bool) -> DrainReport {
        {
            let mut q = lock_recover(&self.shared.queue, "serve.lock_poisoned");
            q.draining = true;
            if shed_queued {
                q.shed_queued = true;
            }
        }
        self.shared.available.notify_all();
        // Join workers until the pool stays empty: the watchdog may still
        // respawn a worker mid-drain (a crash with requests left in the
        // queue), and that replacement must be joined too.
        loop {
            let handles: Vec<JoinHandle<()>> =
                lock_recover(&self.shared.workers, "serve.lock_poisoned")
                    .iter_mut()
                    .filter_map(Option::take)
                    .collect();
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        self.shared.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(h) = lock_recover(&self.watchdog, "serve.lock_poisoned").take() {
            let _ = h.join();
        }
        // The watchdog may have respawned one final worker between the
        // last sweep and its stop flag; it exits immediately (draining,
        // empty queue) but still needs joining.
        let leftovers: Vec<JoinHandle<()>> =
            lock_recover(&self.shared.workers, "serve.lock_poisoned")
                .iter_mut()
                .filter_map(Option::take)
                .collect();
        for h in leftovers {
            let _ = h.join();
        }
        DrainReport {
            stats: self.stats(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Jittered exponential backoff before retry number `retry` (1-based).
fn backoff(policy: &RetryPolicy, retry: u32, rng: &mut StdRng) -> Duration {
    let exp = policy
        .base
        .saturating_mul(2u32.saturating_pow(retry.saturating_sub(1)))
        .min(policy.cap);
    exp.mul_f64(rng.gen_range(0.5..1.5))
}

/// Whether a completed outcome is worth retrying: it must carry a
/// transient error *and* be visibly short of its goal (degraded below its
/// planned rung, value-less, or on the text fallback).
fn wants_retry(out: &SessionOutcome) -> bool {
    let transient = out
        .errors
        .iter()
        .any(muve_pipeline::PipelineError::is_transient);
    let incomplete = out.degraded()
        || match &out.visualization {
            Visualization::Multiplot { results, .. } => results.iter().all(Option::is_none),
            Visualization::Text { .. } => true,
        };
    transient && incomplete
}

/// Feed one attempt's per-stage dispositions to the breakers, honouring
/// the admission-time decisions: pre-degraded stages are not recorded (the
/// broken path never ran), skipped stages yield no signal.
fn record_breaker_signals(
    shared: &Shared,
    decisions: &[BreakerDecision; 5],
    out: &SessionOutcome,
    saw_signal: &mut [bool; 5],
) {
    use muve_obs::SpanStatus;
    for stage in Stage::ALL {
        let i = stage.index();
        if decisions[i] == BreakerDecision::PreDegrade {
            continue;
        }
        let Some(span) = out.stage_trace.span(stage.name()) else {
            continue;
        };
        let success = match span.status {
            SpanStatus::Completed => true,
            SpanStatus::Failed | SpanStatus::Panicked => false,
            // No signal: a skipped stage never ran; a cancelled stage was
            // stopped from outside (deadline or watchdog — including a
            // budget already spent before it could start), not by its own
            // dependency; a governor rejection is structural — opening a
            // breaker (which pre-degrades *away* from sampling) could only
            // make the memory pressure worse.
            SpanStatus::Skipped | SpanStatus::Cancelled | SpanStatus::Exhausted => continue,
        };
        saw_signal[i] = true;
        if matches!(
            shared.breakers[i].record(success, Instant::now()),
            BreakerTransition::Opened | BreakerTransition::Reopened
        ) {
            shared.stats.breaker_opens.incr();
        }
    }
}

/// Spawn the worker thread for slot `index`.
fn spawn_worker(shared: &Arc<Shared>, index: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("muve-serve-{index}"))
        .spawn(move || worker_loop(&shared, index))
        .expect("spawn worker thread")
}

fn worker_loop(shared: &Shared, worker_id: usize) {
    let stats = &shared.stats;
    let mut rng = StdRng::seed_from_u64(shared.cfg.retry.jitter_seed ^ worker_id as u64);
    loop {
        let (job, shed_queued) = {
            let mut q = lock_recover(&shared.queue, "serve.lock_poisoned");
            loop {
                if let Some(job) = q.pop_next() {
                    break (Some(job), q.shed_queued);
                }
                if q.draining {
                    break (None, q.shed_queued);
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(mut job) = job else {
            return; // draining and the queue is empty
        };
        stats.dequeued.incr();
        job.budget.mark_admitted();
        let queue_wait = job.budget.queue_wait();
        stats.queue_wait_us.record_duration(queue_wait);

        // Shed at pickup, in microseconds, what no longer deserves a worker.
        let client_gone = (job.req.cancel.as_ref())
            .is_some_and(|t| t.cause() == Some(muve_obs::CancelCause::ClientGone));
        let shed = if shed_queued {
            // A shedding drain: flush the backlog as typed ShuttingDown
            // outcomes instead of running answers nobody will wait for.
            Some(Rejected::ShuttingDown)
        } else if client_gone {
            // The submitter hung up while the request waited: do not
            // compute an answer nobody reads.
            stats.client_gone.incr();
            Some(Rejected::ClientGone)
        } else if job.budget.exhausted() {
            // The deadline died in the queue: a session now could only
            // show stale fallbacks after its budget is gone.
            Some(Rejected::Expired { waited: queue_wait })
        } else {
            None
        };
        if let Some(reason) = shed {
            stats.shed.incr();
            let _ = job.tx.send(ServeOutcome::Shed {
                reason,
                total: job.budget.elapsed(),
            });
            continue;
        }

        // Register with the watchdog *before* any session work: from here
        // until the outcome is sent, a dead thread means a lost request,
        // and the occupied slot is how the watchdog knows to resolve it.
        // A request that arrived with its own token (the network layer
        // watching the client socket) runs under that token, so the
        // submitter and the watchdog can both fire it.
        let token = job
            .req
            .cancel
            .clone()
            .unwrap_or_else(|| job.budget.cancel_token());
        {
            let mut active = lock_recover(&shared.active, "serve.lock_poisoned");
            active[worker_id] = Some(ActiveReq {
                token: token.clone(),
                started: Instant::now(),
                total: job.budget.total(),
                cancelled: false,
                tx: job.tx.clone(),
            });
        }

        // Admission-time breaker decisions, then pre-degradation: an open
        // plan breaker starts the ladder on greedy (no doomed ILP attempt);
        // an open execute breaker skips the sample ladder.
        let now = Instant::now();
        let decisions: [BreakerDecision; 5] =
            std::array::from_fn(|i| shared.breakers[i].decide(now));
        let mut config = job.req.config.clone();
        if decisions[Stage::Plan.index()] == BreakerDecision::PreDegrade
            && matches!(config.planner, Planner::Ilp(_))
        {
            config.planner = Planner::Greedy;
        }
        if decisions[Stage::Execute.index()] == BreakerDecision::PreDegrade {
            config.sample_ladder.clear();
        }
        // The memory governor: requests that configured their own cap keep
        // it; otherwise the server's per-request share applies. The global
        // pool is charged either way.
        if shared.mem_pool.is_some() && config.mem_cap_bytes == 0 {
            config.mem_cap_bytes = shared.cfg.mem_cap_mb * 1024 * 1024;
        }

        let mut session = Session::shared(Arc::clone(&shared.table), config)
            .with_lexicon(Arc::clone(&shared.lexicon))
            .with_injector(job.req.injector)
            .with_cancel(token);
        if let Some(caches) = &shared.cfg.caches {
            session = session.with_caches(Arc::clone(caches));
        }
        if let Some(pool) = &shared.mem_pool {
            session = session.with_mem_pool(Arc::clone(pool));
        }
        let mut saw_signal = [false; 5];
        let mut attempts: u32 = 1;
        let mut outcome = session.run_with_budget(&job.req.transcript, job.budget.clone());
        record_breaker_signals(shared, &decisions, &outcome, &mut saw_signal);
        while attempts <= shared.cfg.retry.max_retries && wants_retry(&outcome) {
            let delay = backoff(&shared.cfg.retry, attempts, &mut rng);
            if job.budget.remaining() <= delay + shared.cfg.retry.min_headroom {
                break; // no budget left for a meaningful attempt
            }
            std::thread::sleep(delay);
            stats.retries.incr();
            let again = session.run_with_budget(&job.req.transcript, job.budget.clone());
            attempts += 1;
            record_breaker_signals(shared, &decisions, &again, &mut saw_signal);
            // Keep the better outcome (ties go to the fresher attempt).
            if again.trace.final_rung <= outcome.trace.final_rung {
                outcome = again;
            }
        }
        // A probe that never reached its stage must release the slot so
        // the next request can probe instead of pre-degrading forever.
        for (i, breaker) in shared.breakers.iter().enumerate() {
            if decisions[i] == BreakerDecision::Probe && !saw_signal[i] {
                breaker.release_probe();
            }
        }

        let service = job.budget.elapsed().saturating_sub(queue_wait);
        update_ewma(&shared.ewma_service_us, service);
        if outcome.degraded() {
            stats.degraded.incr();
        } else {
            stats.served.incr();
        }
        let total = job.budget.elapsed();
        stats.e2e_us.record_duration(total);
        let _ = job.tx.send(ServeOutcome::Completed {
            outcome: Box::new(outcome),
            attempts,
            queue_wait,
            total,
        });
        // Clear the slot only after the outcome is on the wire: the
        // watchdog must never see a dead thread with an answered request.
        lock_recover(&shared.active, "serve.lock_poisoned")[worker_id] = None;
    }
}

/// The watchdog loop: every [`WATCHDOG_POLL`], (1) cancel the token of any
/// request stuck past [`STUCK_FACTOR`]·θ, and (2) detect worker threads
/// killed by an escaped panic — resolve their orphaned request as a typed
/// crashed shed and respawn the worker so the pool never shrinks.
fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.watchdog_stop.load(Ordering::SeqCst) {
        std::thread::sleep(WATCHDOG_POLL);

        // (1) Stuck requests: past k·θ every in-band deadline has failed;
        // fire the token so the next cancellation point aborts the run.
        {
            let mut active = lock_recover(&shared.active, "serve.lock_poisoned");
            for slot in active.iter_mut().flatten() {
                if !slot.cancelled && slot.started.elapsed() > slot.total * STUCK_FACTOR {
                    slot.token.cancel();
                    slot.cancelled = true;
                    shared.stats.watchdog_cancels.incr();
                }
            }
        }

        // (2) Dead workers. A worker thread exits normally only while
        // draining — and always *after* clearing its active slot — so a
        // finished thread with an occupied slot was killed by an escaped
        // panic mid-request. Join it, resolve the orphaned request through
        // the slot's tx clone, and respawn the worker at the same index.
        for i in 0..shared.cfg.workers.max(1) {
            let finished = {
                let workers = lock_recover(&shared.workers, "serve.lock_poisoned");
                matches!(&workers[i], Some(h) if h.is_finished())
            };
            if !finished {
                continue;
            }
            let orphan = lock_recover(&shared.active, "serve.lock_poisoned")[i].take();
            let Some(req) = orphan else {
                continue; // clean slot: a normal drain exit, joined by drain()
            };
            let dead = lock_recover(&shared.workers, "serve.lock_poisoned")[i].take();
            if let Some(h) = dead {
                let _ = h.join(); // reaps the escaped panic payload
            }
            // Typed resolution keeps submitted = served + degraded + shed
            // exact even under a death storm.
            shared.stats.shed.incr();
            shared.stats.crashed.incr();
            let _ = req.tx.send(ServeOutcome::Shed {
                reason: Rejected::WorkerCrashed,
                total: req.started.elapsed(),
            });
            // Respawn unless the pool is winding down with nothing queued.
            let wind_down = {
                let q = lock_recover(&shared.queue, "serve.lock_poisoned");
                q.draining && q.total_queued() == 0
            };
            if !wind_down {
                let replacement = spawn_worker(shared, i);
                lock_recover(&shared.workers, "serve.lock_poisoned")[i] = Some(replacement);
                shared.stats.respawns.incr();
            }
        }
    }
}

/// 1/8-weight exponential moving average over service times, µs.
fn update_ewma(cell: &AtomicU64, sample: Duration) {
    let sample_us = sample.as_micros().min(u64::MAX as u128) as u64;
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample_us
    } else {
        old - old / 8 + sample_us / 8
    };
    cell.store(new, Ordering::Relaxed);
}
