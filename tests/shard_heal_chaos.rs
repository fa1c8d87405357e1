//! Self-healing chaos suite: seeded kill/slow/resize scripts against a
//! healer-enabled shard set, plus the same chaos driven through the full
//! net → serve → session stack.
//!
//! The contract under test, per ISSUE (PR 10):
//!
//! - with the healer on, killing one replica per shard every K steps
//!   loses **zero** queries, and every kill is healed without a manual
//!   `revive`;
//! - a mid-burst `resize(N→2N)` and back returns **bit-identical** exact
//!   results throughout, and restores the original cache epoch;
//! - after quiescing, the flow-conservation ledger reconciles exactly —
//!   across resizes, the gather-attempt term is `Σ shards(topology at
//!   gather time)`, which this driver tracks itself;
//! - the same seed replays to an **identical** applied-event log.

use muve::data::Dataset;
use muve::dbms::{execute, AggFunc, Aggregate, CmpOp, Predicate, Query, Table};
use muve::net::{NetConfig, NetServer};
use muve::pipeline::SessionConfig;
use muve::serve::ServerConfig;
use muve::shard::{
    ChaosAction, ChaosOrchestrator, ChaosScript, HealConfig, ShardExecOptions, ShardSet, ShardSpec,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const REPLICAS: usize = 2;
const STEPS: u64 = 40;
const KILL_PERIOD: u64 = 8;

fn flights(rows: usize) -> Arc<Table> {
    Arc::new(Dataset::Flights.generate(rows, 7))
}

/// Healer tuned for test time scales: kills are detected within a couple
/// of milliseconds; the suspect path is parked far out so only explicit
/// kills (dead flags) trigger heals — keeps the heal ledger predictable.
fn fast_heal() -> HealConfig {
    HealConfig {
        enabled: true,
        poll: Duration::from_millis(2),
        suspect_after: Duration::from_secs(30),
        probe_timeout: Duration::from_secs(2),
        retry_backoff: Duration::from_millis(20),
        budget_per_tick: 2,
    }
}

fn healing_set(table: &Arc<Table>) -> ShardSet {
    let spec = ShardSpec {
        heal: fast_heal(),
        ..ShardSpec::new(SHARDS, REPLICAS)
    };
    ShardSet::build(Arc::clone(table), spec)
}

fn burst_queries() -> Vec<Query> {
    let mut qs = Vec::new();
    for (f, col) in [
        (AggFunc::Sum, "arr_delay"),
        (AggFunc::Avg, "dep_delay"),
        (AggFunc::Max, "distance"),
    ] {
        qs.push(Query {
            table: "flights".into(),
            aggregates: vec![Aggregate::over(f, col)],
            predicates: vec![Predicate::cmp("distance", CmpOp::Gt, 500)],
            group_by: vec!["carrier".into()],
        });
    }
    qs.push(Query {
        table: "flights".into(),
        aggregates: vec![Aggregate::count_star()],
        predicates: vec![],
        group_by: vec!["origin".into()],
    });
    qs
}

fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

fn fully_healthy(set: &ShardSet) -> bool {
    (0..set.num_shards()).all(|s| set.healthy_replicas(s) == set.num_replicas())
        && set.stats().snapshot().heals_in_flight() == 0
}

/// Wait for full replication, offering `traffic` meanwhile. The healer
/// replaces *dead* replicas unprompted, but a live replica can be suspect
/// too — a hedge loser's cancelled reply counts against its breaker, and
/// three in a row trip it — and a suspect only recovers through a probe,
/// which needs a sub-query to ride on (the same reason
/// `shard_failover.rs` keeps its burst going while it waits).
fn heals_fully(set: &ShardSet, mut traffic: impl FnMut()) -> bool {
    wait_for(Duration::from_secs(10), || {
        if fully_healthy(set) {
            return true;
        }
        traffic();
        false
    })
}

/// One complete seeded chaos run. Returns the orchestrator's canonical
/// applied-event log (for the replay-identity assertion).
fn run_seeded_chaos(seed: u64) -> Vec<String> {
    let table = flights(3_000);
    let set = healing_set(&table);
    let epoch0 = set.epoch();
    let queries = burst_queries();
    let truth: Vec<_> = queries
        .iter()
        .map(|q| execute(&table, q).unwrap())
        .collect();

    let script = ChaosScript::seeded(seed, STEPS, SHARDS, REPLICAS, KILL_PERIOD);
    let mut orch = ChaosOrchestrator::new(script);
    let mut expected_attempts: u64 = 0; // Σ shards(topology) per gather
    let mut kills: u64 = 0;
    let mut resizes_seen = 0;

    for step in 0..STEPS {
        let applied = orch.step(&set);
        for event in &applied {
            match event.action {
                ChaosAction::Kill { .. } => kills += 1,
                ChaosAction::Resize { .. } => {
                    resizes_seen += 1;
                    if resizes_seen == 1 {
                        assert_eq!(set.num_shards(), SHARDS * 2, "seed {seed}");
                        assert_ne!(set.epoch(), epoch0, "a resize must move the epoch");
                    } else {
                        assert_eq!(set.num_shards(), SHARDS, "seed {seed}");
                        assert_eq!(
                            set.epoch(),
                            epoch0,
                            "resizing back must restore the epoch bit-for-bit"
                        );
                    }
                }
                _ => {}
            }
        }

        // Query immediately — a freshly killed replica exercises the
        // failover path while its heal is still in flight.
        let q = &queries[step as usize % queries.len()];
        let want = &truth[step as usize % queries.len()];
        let shards_now = set.num_shards() as u64;
        let got = set
            .execute(q, ShardExecOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed} step {step}: lost query {q:?}: {e}"));
        assert!(
            !got.report.is_partial(),
            "seed {seed} step {step}: lost coverage: {:?}",
            got.report
        );
        assert_eq!(
            &got.result, want,
            "seed {seed} step {step}: diverged on {q:?}"
        );
        expected_attempts += shards_now;

        // A kill period ends with the healer — not a manual revive —
        // restoring full replication before the next event lands.
        if applied
            .iter()
            .any(|e| matches!(e.action, ChaosAction::Kill { .. }))
        {
            let mut extra_gather = || {
                expected_attempts += set.num_shards() as u64;
                let _ = set.execute(q, ShardExecOptions::default());
            };
            assert!(
                heals_fully(&set, &mut extra_gather),
                "seed {seed} step {step}: healer failed to re-replicate: {:?}",
                set.stats().snapshot()
            );
        }
    }
    assert!(orch.done(), "script must be exhausted by step {STEPS}");

    // Post-quiesce ledger reconciliation, exact across resizes.
    assert!(
        set.quiesce(Duration::from_secs(10)),
        "set must quiesce: {:?}",
        set.stats().snapshot()
    );
    let s = set.stats().snapshot();
    // Counter-only identities (dispatch ledger, hedges, sheds, heals —
    // with no heal in flight after quiesce, started = completed + failed).
    assert_eq!(s.violations(), Vec::<String>::new(), "{s:?}");
    assert_eq!(
        s.dispatched,
        expected_attempts + s.hedges_fired + s.failovers + s.heal_probes,
        "attempt taxonomy across resizes: {s:?}"
    );
    assert_eq!(
        expected_attempts,
        s.shards_served + s.shards_missing,
        "per-shard outcomes: {s:?}"
    );
    assert_eq!(
        s.shards_missing, 0,
        "zero query loss means zero lost shards: {s:?}"
    );
    assert!(
        s.heals_completed >= kills,
        "every kill ({kills}) must have healed automatically: {s:?}"
    );
    assert_eq!(s.resizes, 2, "{s:?}");
    assert_eq!(
        set.epoch(),
        epoch0,
        "final epoch must match the initial layout"
    );
    // The healer is a wall-clock thread: give the last heal time to land.
    assert!(
        heals_fully(&set, || {
            let _ = set.execute(&queries[0], ShardExecOptions::default());
        }),
        "no manual revive was ever issued, yet not fully healthy: {:?}",
        set.stats().snapshot()
    );

    orch.log().to_vec()
}

#[test]
fn seeded_kill_storm_heals_itself_and_loses_nothing() {
    let log = run_seeded_chaos(42);
    assert!(
        log.iter().any(|l| l.contains("kill")),
        "the script actually killed replicas: {log:?}"
    );
}

#[test]
fn same_seed_replays_to_an_identical_event_log() {
    let first = run_seeded_chaos(7);
    let second = run_seeded_chaos(7);
    assert_eq!(first, second, "chaos must replay bit-identically");
    let other = run_seeded_chaos(8);
    assert_ne!(first, other, "a different seed is a different storm");
}

// ---------------------------------------------------------------------
// Full stack: HTTP → net → serve worker pool → sharded session, with the
// orchestrator killing and resizing underneath live requests.
// ---------------------------------------------------------------------

fn raw(addr: std::net::SocketAddr, bytes: &[u8], timeout: Duration) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(timeout)).unwrap();
    s.write_all(bytes).expect("write");
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    let start = Instant::now();
    while start.elapsed() < timeout {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn post_query(addr: std::net::SocketAddr, transcript: &str) -> String {
    let body = format!("{{\"transcript\": \"{transcript}\"}}");
    let wire = format!(
        "POST /query HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    );
    raw(addr, wire.as_bytes(), Duration::from_secs(10))
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

/// The `"results"` array of a 200 body — the bit-level payload served to
/// the client (exact integers; any divergence under chaos shows here).
fn results_of(response: &str) -> String {
    let start = response
        .find("\"results\": [")
        .unwrap_or_else(|| panic!("no results array: {response:?}"));
    let end = response[start..]
        .find(']')
        .map(|i| start + i + 1)
        .unwrap_or_else(|| panic!("unterminated results array: {response:?}"));
    response[start..end].to_string()
}

#[test]
fn full_stack_chaos_serves_identical_exact_answers_while_healing() {
    let table = flights(5_000);
    let set = Arc::new(healing_set(&table));
    let serve_cfg = ServerConfig {
        workers: 2,
        shards: Some(Arc::clone(&set)),
        caches: None, // every request exercises the scatter-gather path
        ..ServerConfig::default()
    };
    let session_cfg = SessionConfig {
        deadline: Duration::from_secs(3),
        planner: muve::core::Planner::Greedy,
        ..SessionConfig::default()
    };
    let server = NetServer::start(
        Arc::clone(&table),
        serve_cfg,
        session_cfg,
        NetConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    let script = ChaosScript::parse(
        "@2 kill 0.1\n\
         @5 kill 1.0\n\
         @8 resize 6x2\n\
         @11 kill 2.1\n\
         @14 resize 3x2\n\
         @17 kill 0.0\n",
    )
    .unwrap();
    let mut orch = ChaosOrchestrator::new(script);

    let transcripts = [
        "count flights by carrier",
        "average arrival delay by origin",
    ];
    let mut reference: [Option<String>; 2] = [None, None];
    let mut served = 0u32;
    for step in 0..20u64 {
        let applied = orch.step(&set);
        let t_idx = (step % 2) as usize;
        let response = post_query(addr, transcripts[t_idx]);
        // Exactly one typed outcome per request: a parseable status line,
        // and under this load profile it is always a served 200.
        assert_eq!(status_of(&response), 200, "step {step}: {response:?}");
        assert!(
            response.contains("\"approximate\": false"),
            "step {step}: exact answers only: {response:?}"
        );
        let results = results_of(&response);
        match &reference[t_idx] {
            None => reference[t_idx] = Some(results),
            Some(want) => assert_eq!(
                &results, want,
                "step {step}: bit-level divergence under chaos"
            ),
        }
        served += 1;
        if applied
            .iter()
            .any(|e| matches!(e.action, ChaosAction::Kill { .. }))
        {
            assert!(
                heals_fully(&set, || drop(post_query(addr, transcripts[0]))),
                "healer failed mid-soak: {:?}",
                set.stats().snapshot()
            );
        }
    }
    assert_eq!(served, 20);
    assert!(orch.done());

    // Once healed, the health surface is green again and reports the
    // shard layout.
    assert!(
        heals_fully(&set, || drop(post_query(addr, transcripts[0]))),
        "not fully healthy after the storm: {:?}",
        set.stats().snapshot()
    );
    let health = raw(
        addr,
        b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        Duration::from_secs(2),
    );
    assert_eq!(status_of(&health), 200, "{health:?}");
    assert!(health.contains("\"healthy_replicas\""), "{health:?}");

    // Post-quiesce ledger reconciliation at every layer.
    assert!(
        set.quiesce(Duration::from_secs(10)),
        "shard layer must quiesce: {:?}",
        set.stats().snapshot()
    );
    let s = set.stats().snapshot();
    assert_eq!(s.violations(), Vec::<String>::new(), "shard ledger: {s:?}");
    assert_eq!(s.shards_missing, 0, "no served answer was partial: {s:?}");
    assert!(s.heals_completed >= 4, "all four kills healed: {s:?}");
    assert_eq!(s.resizes, 2, "{s:?}");
    let serve_stats = server.serve().stats();
    assert!(
        serve_stats.reconciles(),
        "serve ledger drifted: {serve_stats:?}"
    );
    let report = server.shutdown();
    assert!(report.reconciled, "net ledger drifted: {:?}", report.stats);
    assert_eq!(report.stragglers, 0, "stuck connection handlers");
}

/// The health surface with the healer *off* is deterministic: a kill
/// flips `/healthz` to 503 with a typed reason immediately (the dead
/// flag, not breaker state, drives the replica count), and a revive
/// restores 200.
#[test]
fn healthz_reports_shard_degradation_and_recovery() {
    let table = flights(2_000);
    let set = Arc::new(ShardSet::build(
        Arc::clone(&table),
        ShardSpec::new(2, 2), // healer off: degradation must persist
    ));
    let server = NetServer::start(
        Arc::clone(&table),
        ServerConfig {
            workers: 1,
            shards: Some(Arc::clone(&set)),
            ..ServerConfig::default()
        },
        SessionConfig::default(),
        NetConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let get_health = || {
        raw(
            addr,
            b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
            Duration::from_secs(2),
        )
    };

    let healthy = get_health();
    assert_eq!(status_of(&healthy), 200, "{healthy:?}");
    assert!(
        healthy.contains("\"healthy_replicas\": [2, 2]"),
        "{healthy:?}"
    );

    set.kill_replica(1, 0);
    let degraded = get_health();
    assert_eq!(status_of(&degraded), 503, "{degraded:?}");
    assert!(
        degraded.contains("shard 1: 1 of 2 replicas healthy"),
        "{degraded:?}"
    );
    assert!(
        degraded.contains("\"healthy_replicas\": [2, 1]"),
        "{degraded:?}"
    );

    set.revive_replica(1, 0);
    let recovered = get_health();
    assert_eq!(status_of(&recovered), 200, "{recovered:?}");

    // /metrics carries the same shard block.
    let metrics = raw(
        addr,
        b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n",
        Duration::from_secs(2),
    );
    assert_eq!(status_of(&metrics), 200);
    assert!(metrics.contains("\"heals_in_flight\""), "{metrics:?}");
    let report = server.shutdown();
    assert!(report.reconciled);
}
