//! # muve-serve — concurrent serving for the MUVE session pipeline
//!
//! `muve-pipeline` guarantees the interactivity budget θ for **one**
//! session; this crate makes the guarantee hold **under load**. A
//! [`Server`] owns a fixed pool of worker threads (std-only, consistent
//! with the workspace's vendored offline dependency policy) consuming a
//! **bounded admission queue** of [`Request`]s:
//!
//! - **Deadline-aware admission control** — a request's
//!   [`DeadlineBudget`](muve_pipeline::DeadlineBudget) starts ticking at
//!   submission, so queue wait is charged against θ. A submit that finds
//!   the queue full, or whose *expected* wait (queued × EWMA service time
//!   ÷ workers) would consume the whole deadline, is shed immediately with
//!   a typed [`Rejected::Overloaded`] — in microseconds, without touching
//!   a worker. A request whose deadline dies *in* the queue is shed at
//!   pickup with [`Rejected::Expired`].
//! - **Retry with jittered exponential backoff** — a completed session
//!   that carries a transient error and is visibly short of its goal
//!   (degraded or value-less) is re-run under the same ticking budget,
//!   with backoff `base·2^(n−1)` ± 50 % jitter, bounded by the remaining
//!   deadline and [`RetryPolicy::max_retries`].
//! - **Per-stage circuit breakers** — one [`muve_obs::Breaker`] per
//!   stage: K consecutive failures open it ([`BreakerState`]); while open, sessions *pre-degrade*
//!   past the broken rung (open plan breaker ⇒ start on greedy, open
//!   execute breaker ⇒ skip the sample ladder) instead of burning budget
//!   rediscovering the fault; after a cooldown a single probe request
//!   closes or re-opens the breaker.
//! - **Weighted fair-share tenant lanes** — requests carry a tenant name
//!   ([`Request::with_tenant`]); the admission queue holds one bounded
//!   *lane* per tenant, and workers pick lanes by smooth weighted
//!   round-robin ([`ServerConfig::lane_weights`]). A tenant flooding its
//!   own lane sheds only itself and cannot starve the other lanes.
//! - **Graceful drain** — [`Server::drain`] stops admission, finishes
//!   every queued and in-flight request, joins the workers, and reports
//!   final shed/served counts. [`Server::drain_shedding`] is the
//!   shutdown-on-signal variant: in-flight requests complete, but the
//!   still-queued backlog is *flushed* as typed
//!   [`Rejected::ShuttingDown`] outcomes instead of being run.
//! - **External cancellation** — a request submitted with its own
//!   [`CancelToken`](muve_obs::CancelToken) ([`Request::with_cancel`])
//!   runs under that token; a token fired with
//!   [`cancel_client_gone`](muve_obs::CancelToken::cancel_client_gone)
//!   aborts the in-flight session at its next cancellation point, and a
//!   request still queued when it fires is shed at pickup as a typed
//!   [`Rejected::ClientGone`].
//! - **Worker watchdog** — a monitor thread cancels the token of any
//!   request stuck past [`STUCK_FACTOR`]·θ and detects worker threads
//!   killed by an escaped panic: the orphaned request resolves as a typed
//!   [`Rejected::WorkerCrashed`] shed and the worker is respawned at the
//!   same index, so the pool never loses strength.
//! - **Memory governor** — with [`ServerConfig::mem_cap_mb`] set, each
//!   request's execution state is capped per-request and charged against
//!   a global `mem_cap_mb × workers` pool; a rejected charge surfaces as
//!   a typed `ResourceExhausted` that sends the session down the sample
//!   ladder instead of materializing an oversized result.
//!
//! Every request resolves to **exactly one** typed [`ServeOutcome`] —
//! served, degraded, or shed; never a hang, an escaped panic, or an
//! unbounded deadline overshoot. The documented tolerance: a completed
//! request's end-to-end time is bounded by `3·θ` plus scheduling slack
//! (queue wait ≤ θ enforced at pickup, session+retries ≤ 2·θ by the
//! pipeline's own stage guards).
//!
//! Everything is instrumented through `muve-obs`: `serve.submitted`,
//! `serve.shed`, `serve.served`, `serve.degraded`, `serve.retries`,
//! `serve.breaker_open`, `serve.watchdog_cancels`, `serve.worker_crashes`,
//! `serve.worker_respawns`, gauge-style `serve.enqueued`/`serve.dequeued`
//! counter pairs, and `serve.queue_depth` / `serve.queue_wait_us` /
//! `serve.e2e_us` histograms.

#![warn(missing_docs)]

mod server;

pub use muve_obs::{BreakerConfig, BreakerDecision, BreakerState};
pub use server::{
    DrainReport, OutcomeClass, Rejected, Request, RetryPolicy, ServeOutcome, ServeStats, Server,
    ServerConfig, Ticket, STUCK_FACTOR,
};

#[cfg(test)]
mod tests {
    use super::*;
    use muve_data::Dataset;
    use muve_dbms::Table;
    use muve_pipeline::{FaultInjector, SessionConfig, Stage};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn table(rows: usize) -> Arc<Table> {
        Arc::new(Dataset::Flights.generate(rows, 7))
    }

    fn config(deadline_ms: u64) -> SessionConfig {
        SessionConfig {
            deadline: Duration::from_millis(deadline_ms),
            ..SessionConfig::default()
        }
    }

    fn request(deadline_ms: u64) -> Request {
        Request::new("average dep delay in jfk").with_config(config(deadline_ms))
    }

    #[test]
    fn clean_requests_are_served_and_reconcile() {
        let server = Server::new(table(2_000), ServerConfig::default());
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| server.submit(request(800)).expect("admitted"))
            .collect();
        for t in tickets {
            match t.wait() {
                ServeOutcome::Completed {
                    outcome, attempts, ..
                } => {
                    assert!(!outcome.degraded(), "{:?}", outcome.trace);
                    assert_eq!(attempts, 1);
                }
                ServeOutcome::Shed { reason, .. } => panic!("unexpected shed: {reason}"),
            }
        }
        let report = server.drain();
        assert_eq!(report.stats.submitted, 8);
        assert_eq!(report.stats.served, 8);
        assert_eq!(report.stats.shed, 0);
        assert!(report.stats.reconciles(), "{}", report.stats);
    }

    #[test]
    fn draining_server_sheds_new_requests() {
        let server = Server::new(table(500), ServerConfig::default());
        let report = server.drain();
        assert!(report.stats.reconciles());
        match server.submit(request(500)) {
            Err(Rejected::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        assert_eq!(server.stats().shed, 1);
        assert!(server.stats().reconciles());
    }

    #[test]
    fn full_queue_sheds_immediately_without_occupying_a_worker() {
        // One worker pinned down by slow requests, a queue bound of 2:
        // the third concurrent submit must be rejected inline, in
        // microseconds, not after a queue timeout.
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 1,
                queue_depth: 2,
                ..ServerConfig::default()
            },
        );
        let slow = || {
            Request::new("average dep delay in jfk")
                .with_config(config(900))
                .with_injector(
                    FaultInjector::parse("translate:latency=250@p=1").expect("spec parses"),
                )
        };
        // Saturate: one in flight (after pickup) + two queued. Submission
        // itself is near-instant, so all three are admitted before the
        // worker can drain the 250 ms blockers.
        let mut tickets = vec![server.submit(slow()).expect("admitted")];
        std::thread::sleep(Duration::from_millis(30)); // worker picks up #1
        tickets.push(server.submit(slow()).expect("queued"));
        tickets.push(server.submit(slow()).expect("queued"));
        let start = Instant::now();
        let rejected = server.submit(slow());
        let took = start.elapsed();
        match rejected {
            Err(Rejected::Overloaded { queue_depth, .. }) => assert_eq!(queue_depth, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(
            took < Duration::from_millis(5),
            "shedding a full queue took {took:?}; must be inline"
        );
        for t in tickets {
            t.wait();
        }
        let report = server.drain();
        assert_eq!(report.stats.shed, 1);
        assert!(report.stats.reconciles(), "{}", report.stats);
    }

    #[test]
    fn queue_expired_requests_are_shed_at_pickup() {
        // A 40 ms-deadline request stuck behind a 300 ms blocker expires
        // in the queue and is shed typed, not run pointlessly.
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
        );
        let blocker = Request::new("average dep delay in jfk")
            .with_config(config(900))
            .with_injector(FaultInjector::parse("translate:latency=300@p=1").unwrap());
        let tb = server.submit(blocker).expect("admitted");
        std::thread::sleep(Duration::from_millis(30)); // ensure pickup
        let doomed = server.submit(request(40)).expect("admitted (EWMA cold)");
        match doomed.wait() {
            ServeOutcome::Shed {
                reason: Rejected::Expired { waited },
                ..
            } => assert!(waited >= Duration::from_millis(40)),
            other => panic!("expected Expired shed, got {other:?}"),
        }
        tb.wait();
        let report = server.drain();
        assert_eq!(report.stats.shed, 1);
        assert!(report.stats.reconciles());
    }

    #[test]
    fn transient_plan_panic_is_retried_back_to_top_rung() {
        // One-shot plan panic: attempt 1 degrades to greedy, the retry
        // runs clean and lands back on ILP — the server reports the best.
        let server = Server::new(
            table(2_000),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let req = request(900).with_injector(FaultInjector::none().with(
            Stage::Plan,
            muve_pipeline::StageFault {
                panic: true,
                ..Default::default()
            },
        ));
        match server.submit(req).expect("admitted").wait() {
            ServeOutcome::Completed {
                outcome, attempts, ..
            } => {
                assert!(attempts >= 2, "a transient fault must be retried");
                assert!(
                    !outcome.degraded(),
                    "retry must recover the planned rung: {:?}",
                    outcome.trace
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
        let report = server.drain();
        assert_eq!(report.stats.served, 1);
        assert!(report.stats.retries >= 1);
        assert!(report.stats.reconciles());
    }

    #[test]
    fn open_plan_breaker_pre_degrades_and_saves_budget() {
        // A persistently stalled solver trips the plan breaker; once open,
        // requests start on greedy and spend measurably less time in the
        // plan stage than the requests that tripped it.
        let server = Server::new(
            table(2_000),
            ServerConfig {
                workers: 1,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown: Duration::from_secs(30), // no probe mid-test
                },
                retry: RetryPolicy {
                    max_retries: 0, // isolate the breaker effect
                    ..RetryPolicy::default()
                },
                ..ServerConfig::default()
            },
        );
        let stalled =
            || request(400).with_injector(FaultInjector::parse("plan:stall").expect("spec parses"));
        let plan_spent = |o: &ServeOutcome| -> Duration {
            match o {
                ServeOutcome::Completed { outcome, .. } => {
                    outcome.stage_trace.span("plan").expect("plan span").spent
                }
                other => panic!("expected completion, got {other:?}"),
            }
        };
        let mut tripping = Vec::new();
        for _ in 0..2 {
            tripping.push(plan_spent(&server.submit(stalled()).unwrap().wait()));
        }
        assert_eq!(server.breaker_state(Stage::Plan), BreakerState::Open);
        assert!(server.stats().breaker_opens >= 1);
        let mut shielded = Vec::new();
        for _ in 0..2 {
            let out = server.submit(stalled()).unwrap().wait();
            match &out {
                ServeOutcome::Completed { outcome, .. } => {
                    assert_eq!(
                        outcome.stage_trace.planned_rung, "greedy",
                        "open breaker must pre-degrade planning"
                    );
                    assert!(!outcome.degraded(), "pre-degraded run is served as planned");
                }
                other => panic!("expected completion, got {other:?}"),
            }
            shielded.push(plan_spent(&out));
        }
        let worst_shielded = shielded.iter().max().unwrap();
        let best_tripping = tripping.iter().min().unwrap();
        assert!(
            *worst_shielded * 4 < *best_tripping,
            "pre-degraded plan stage ({worst_shielded:?}) must be far cheaper than \
             the stalled attempts that tripped the breaker ({best_tripping:?})"
        );
        server.drain();
    }

    #[test]
    fn half_open_probe_closes_the_breaker_after_recovery() {
        let server = Server::new(
            table(2_000),
            ServerConfig {
                workers: 1,
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Duration::from_millis(30),
                },
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                ..ServerConfig::default()
            },
        );
        let bad =
            request(400).with_injector(FaultInjector::parse("plan:stall").expect("spec parses"));
        server.submit(bad).unwrap().wait();
        assert_eq!(server.breaker_state(Stage::Plan), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(40));
        // The fault is gone; the probe runs full ILP and closes the breaker.
        match server.submit(request(800)).unwrap().wait() {
            ServeOutcome::Completed { outcome, .. } => {
                assert_eq!(
                    outcome.stage_trace.planned_rung, "ilp",
                    "probe runs normally"
                );
                assert!(!outcome.degraded());
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(server.breaker_state(Stage::Plan), BreakerState::Closed);
        server.drain();
    }

    #[test]
    fn escaped_panic_is_typed_and_the_worker_respawns() {
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        // An escaping panic kills the worker thread mid-request.
        let doomed = request(600)
            .with_injector(FaultInjector::parse("execute:panic_escape@p=1").expect("spec parses"));
        let t = server.submit(doomed).unwrap();
        match t.wait() {
            ServeOutcome::Shed {
                reason: Rejected::WorkerCrashed,
                ..
            } => {}
            other => panic!("expected a typed crashed shed, got {other:?}"),
        }
        // The pool is whole again: clean requests still complete on both
        // workers' worth of throughput.
        for _ in 0..4 {
            match server.submit(request(800)).unwrap().wait() {
                ServeOutcome::Completed { .. } => {}
                other => panic!("respawned pool must serve, got {other:?}"),
            }
        }
        let stats = server.drain().stats;
        assert_eq!(stats.crashed, 1);
        assert!(stats.respawns >= 1, "{stats}");
        assert!(stats.reconciles(), "{stats}");
    }

    #[test]
    fn tenant_lanes_isolate_a_flooding_tenant() {
        // One worker, per-lane bound 2. The hostile tenant floods its lane
        // past the bound; the victim's lane is untouched, and weighted
        // round-robin serves the victim's backlog interleaved with (not
        // after) the hostile one.
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
        );
        let slow = |tenant: &str| {
            // Greedy planning: the default ILP spends its whole time budget
            // per request, which would swamp the queue-order signal.
            let cfg = SessionConfig {
                planner: muve_core::Planner::Greedy,
                ..config(60_000)
            };
            Request::new("average dep delay in jfk")
                .with_config(cfg)
                .with_tenant(tenant)
                .with_injector(
                    FaultInjector::parse("translate:latency=20@p=1").expect("spec parses"),
                )
        };
        // Pin the worker down, then build both backlogs.
        let first = server.submit(slow("hostile")).expect("admitted");
        std::thread::sleep(Duration::from_millis(20)); // worker picks up #1
        let hostile: Vec<Ticket> = (0..6)
            .map(|_| server.submit(slow("hostile")).expect("queued"))
            .collect();
        let victim: Vec<Ticket> = (0..3)
            .map(|_| server.submit(slow("victim")).expect("queued"))
            .collect();
        let done_at = |t: Ticket| -> Duration {
            match t.wait() {
                ServeOutcome::Completed { total, .. } => total,
                ServeOutcome::Shed { reason, .. } => panic!("unexpected shed: {reason}"),
            }
        };
        first.wait();
        let victim_last = victim.into_iter().map(done_at).max().unwrap();
        let hostile_last = hostile.into_iter().map(done_at).max().unwrap();
        assert!(
            victim_last < hostile_last,
            "equal-weight WRR must interleave the short victim backlog \
             (last done {victim_last:?}) ahead of the 2× hostile backlog \
             (last done {hostile_last:?})"
        );
        let report = server.drain();
        assert_eq!(report.stats.shed, 0);
        assert!(report.stats.reconciles(), "{}", report.stats);
    }

    #[test]
    fn lane_bound_sheds_only_the_flooding_tenant() {
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 1,
                queue_depth: 2,
                ..ServerConfig::default()
            },
        );
        let slow = |tenant: &str| {
            Request::new("average dep delay in jfk")
                .with_config(config(5_000))
                .with_tenant(tenant)
                .with_injector(
                    FaultInjector::parse("translate:latency=100@p=1").expect("spec parses"),
                )
        };
        let mut tickets = vec![server.submit(slow("hostile")).expect("admitted")];
        std::thread::sleep(Duration::from_millis(30)); // worker picks up #1
        tickets.push(server.submit(slow("hostile")).expect("queued"));
        tickets.push(server.submit(slow("hostile")).expect("queued"));
        // The hostile lane is full: its next submit sheds…
        match server.submit(slow("hostile")) {
            Err(Rejected::Overloaded { queue_depth, .. }) => assert_eq!(queue_depth, 2),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // …but the victim's empty lane still admits.
        tickets.push(server.submit(slow("victim")).expect("victim lane open"));
        for t in tickets {
            match t.wait() {
                ServeOutcome::Completed { .. } => {}
                ServeOutcome::Shed { reason, .. } => panic!("unexpected shed: {reason}"),
            }
        }
        let report = server.drain();
        assert_eq!(report.stats.shed, 1, "only the hostile overflow shed");
        assert!(report.stats.reconciles(), "{}", report.stats);
    }

    #[test]
    fn drain_shedding_flushes_queued_as_shutting_down() {
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
        );
        let slow = || {
            Request::new("average dep delay in jfk")
                .with_config(config(5_000))
                .with_injector(
                    FaultInjector::parse("translate:latency=200@p=1").expect("spec parses"),
                )
        };
        let in_flight = server.submit(slow()).expect("admitted");
        std::thread::sleep(Duration::from_millis(30)); // worker picks up #1
        let queued: Vec<Ticket> = (0..4)
            .map(|_| server.submit(slow()).expect("queued"))
            .collect();
        let report = server.drain_shedding();
        // The in-flight request completed; every queued one was flushed.
        match in_flight.wait() {
            ServeOutcome::Completed { .. } => {}
            other => panic!("in-flight request must complete, got {other:?}"),
        }
        for t in queued {
            match t.wait() {
                ServeOutcome::Shed {
                    reason: Rejected::ShuttingDown,
                    ..
                } => {}
                other => panic!("queued request must flush as ShuttingDown, got {other:?}"),
            }
        }
        assert_eq!(report.stats.shed, 4);
        assert_eq!(report.stats.served, 1);
        assert!(report.stats.reconciles(), "{}", report.stats);
    }

    #[test]
    fn client_gone_queued_request_is_shed_at_pickup() {
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
        );
        let blocker = Request::new("average dep delay in jfk")
            .with_config(config(5_000))
            .with_injector(FaultInjector::parse("translate:latency=150@p=1").unwrap());
        let tb = server.submit(blocker).expect("admitted");
        std::thread::sleep(Duration::from_millis(30)); // ensure pickup
        let token = muve_obs::CancelToken::with_budget(Duration::from_secs(5));
        let abandoned = Request::new("average dep delay in jfk")
            .with_config(config(5_000))
            .with_cancel(token.clone());
        let ticket = server.submit(abandoned).expect("queued");
        token.cancel_client_gone(); // the client hangs up while queued
        match ticket.wait() {
            ServeOutcome::Shed {
                reason: Rejected::ClientGone,
                ..
            } => {}
            other => panic!("expected a typed ClientGone shed, got {other:?}"),
        }
        tb.wait();
        let report = server.drain();
        assert_eq!(report.stats.shed, 1);
        assert!(report.stats.reconciles(), "{}", report.stats);
    }

    #[test]
    fn rejected_maps_to_http_statuses_and_messages() {
        let over = Rejected::Overloaded {
            queue_depth: 3,
            expected_wait: Duration::from_millis(2_400),
        };
        assert_eq!(over.http_status(), 429);
        assert_eq!(over.retry_after(), Some(Duration::from_secs(3)));
        assert_eq!(format!("{over}"), over.user_message());
        let expired = Rejected::Expired {
            waited: Duration::from_millis(75),
        };
        assert_eq!(expired.http_status(), 504);
        assert_eq!(expired.retry_after(), None);
        assert_eq!(Rejected::ShuttingDown.http_status(), 503);
        assert_eq!(
            Rejected::ShuttingDown.retry_after(),
            Some(Duration::from_secs(1))
        );
        assert_eq!(Rejected::WorkerCrashed.http_status(), 500);
        assert_eq!(Rejected::ClientGone.http_status(), 499);
        assert!(Rejected::ClientGone.user_message().contains("disconnected"));
    }

    #[test]
    fn mem_cap_exhaustion_degrades_and_pool_drains() {
        let server = Server::new(
            table(500),
            ServerConfig {
                workers: 2,
                // 0 MiB is "disabled", so build the tightest possible
                // governor through the per-request session cap instead.
                mem_cap_mb: 1,
                retry: RetryPolicy {
                    max_retries: 0,
                    ..RetryPolicy::default()
                },
                ..ServerConfig::default()
            },
        );
        // A per-request cap of a few bytes: every materialization charge
        // is rejected, so execution falls down the sample ladder and the
        // outcome carries typed ResourceExhausted errors.
        let mut cfg = config(600);
        cfg.mem_cap_bytes = 8;
        let starved = Request::new("average dep delay in jfk").with_config(cfg);
        match server.submit(starved).unwrap().wait() {
            ServeOutcome::Completed { outcome, .. } => {
                assert!(
                    outcome.errors.iter().any(|e| matches!(
                        e,
                        muve_pipeline::PipelineError::ResourceExhausted { .. }
                    )),
                    "{:?}",
                    outcome.errors
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
        // An uncapped request under the server-wide governor still works.
        match server.submit(request(800)).unwrap().wait() {
            ServeOutcome::Completed { outcome, .. } => {
                assert!(!outcome.degraded(), "{:?}", outcome.errors);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(
            server.mem_pool_used(),
            Some(0),
            "global pool must drain to baseline"
        );
        server.drain();
    }

    #[test]
    fn budget_spent_before_a_stage_is_no_breaker_signal() {
        // θ runs out inside translate (a 2θ latency fault), so candidates
        // and plan never start. A stage that never ran says nothing about
        // its dependency: more such requests than the failure threshold
        // must leave every breaker closed — otherwise a burst of slow
        // translations pre-degrades the next healthy requests to greedy.
        let server = Server::new(
            table(2_000),
            ServerConfig {
                // Admission refuses a request whose expected wait (service
                // EWMA / workers) reaches θ; four workers keep the 2θ
                // service time of these requests under it.
                workers: 4,
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown: Duration::from_secs(30),
                },
                ..ServerConfig::default()
            },
        );
        for _ in 0..5 {
            let late = request(40)
                .with_injector(FaultInjector::parse("translate:latency=80").expect("spec parses"));
            match server.submit(late).unwrap().wait() {
                ServeOutcome::Completed { outcome, .. } => {
                    for stage in [Stage::Candidates, Stage::Plan] {
                        assert!(
                            outcome.errors.iter().any(|e| matches!(
                                e,
                                muve_pipeline::PipelineError::DeadlineExceeded { stage: s, .. }
                                    if *s == stage
                            )),
                            "{stage} must not have started: {:?}",
                            outcome.errors
                        );
                    }
                }
                other => panic!("expected completion, got {other:?}"),
            }
        }
        assert_eq!(
            server.breaker_state(Stage::Candidates),
            BreakerState::Closed
        );
        assert_eq!(server.breaker_state(Stage::Plan), BreakerState::Closed);
        assert_eq!(server.stats().breaker_opens, 0);
        server.drain();
    }
}
