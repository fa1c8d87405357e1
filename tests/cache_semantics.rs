//! Fidelity semantics of the result cache, exercised through the real
//! deadline machinery ([`DeadlineBudget`] via `SessionConfig::deadline`)
//! and the [`FaultInjector`]:
//!
//! - caching never silently upgrades or downgrades fidelity — an entry
//!   computed at a sample rung only ever serves requests that would
//!   execute at exactly that rung (same fraction, same seed), and an
//!   exact request never reads a sampled entry;
//! - a disabled cache (`--cache-mb 0`, i.e. a zero byte budget) is
//!   bit-identical to caching never having existed;
//! - every cache state (none, cold, warm), with a private or a shared
//!   lexicon, returns the same values at every fidelity, and a warm cache
//!   executes nothing;
//! - transcripts naming the same predicates in a different order do not
//!   share a candidate-cache entry;
//! - an ILP-planned session looks the plan layer up once, offer included;
//! - the same sequence of sessions against two fresh, evicting bundles
//!   leaves the same counts in both.

use muve::core::Planner;
use muve::data::Dataset;
use muve::dbms::{ColumnType, Schema, Table, Value};
use muve::obs::metrics;
use muve::pipeline::{
    FaultInjector, Lexicon, Session, SessionCaches, SessionConfig, SessionOutcome, Visualization,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes the tests in this binary: the `dbms.queries` delta in the
/// fidelity test is only exact while no other test executes queries.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

const TRANSCRIPT: &str = "average dep delay in jfk";

fn flights() -> Table {
    Dataset::Flights.generate(2_000, 7)
}

/// A config whose execute ladder starts on a 5 % sample: the table is
/// above the sampling threshold, so the first attempt is approximate.
fn sampled_config() -> SessionConfig {
    SessionConfig {
        deadline: Duration::from_secs(1),
        planner: Planner::Greedy,
        max_candidates: 1,
        sample_ladder: vec![0.05],
        sample_threshold_rows: 100,
        ..SessionConfig::default()
    }
}

/// A one-shot execute latency far beyond the deadline: the sampled
/// attempt completes (the sleep happens before it), after which the
/// budget is exhausted and the session keeps the approximate result
/// instead of escalating to exact.
fn stall_execute() -> FaultInjector {
    FaultInjector::parse("execute:latency=2000").expect("spec parses")
}

fn run(
    table: &Table,
    config: SessionConfig,
    caches: Option<&Arc<SessionCaches>>,
    injector: Option<FaultInjector>,
) -> SessionOutcome {
    let mut session = Session::new(table, config);
    if let Some(caches) = caches {
        session = session.with_caches(Arc::clone(caches));
    }
    if let Some(injector) = injector {
        session = session.with_injector(injector);
    }
    session.run(TRANSCRIPT)
}

fn scalar(outcome: &SessionOutcome) -> f64 {
    match &outcome.visualization {
        Visualization::Multiplot { results, .. } => results[0].expect("a value"),
        Visualization::Text { message } => panic!("degraded to text: {message}"),
    }
}

fn is_approximate(outcome: &SessionOutcome) -> bool {
    match &outcome.visualization {
        Visualization::Multiplot { approximate, .. } => *approximate,
        Visualization::Text { .. } => false,
    }
}

#[test]
fn sampled_entries_never_serve_other_rungs() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let table = flights();
    let caches = Arc::new(SessionCaches::new(8 << 20));
    caches.set_table(&table);

    // Phase 1: the injected latency exhausts the deadline right after
    // the 5 % attempt, so the session finalizes — and caches — at the
    // sampled rung.
    let sampled = run(
        &table,
        sampled_config(),
        Some(&caches),
        Some(stall_execute()),
    );
    assert!(is_approximate(&sampled), "phase 1 should stay sampled");
    let v_sampled = scalar(&sampled);
    let after_sampled = caches.stats();
    assert!(after_sampled.results.inserts >= 1, "{after_sampled}");

    // Phase 2: a generous deadline and a raised threshold make the same
    // transcript execute exactly. The sampled entry must NOT serve it:
    // the exact fidelity key misses, and a fresh exact execution runs.
    let exact = run(
        &table,
        SessionConfig {
            deadline: Duration::from_secs(10),
            sample_threshold_rows: usize::MAX,
            ..sampled_config()
        },
        Some(&caches),
        None,
    );
    assert!(!is_approximate(&exact), "phase 2 should be exact");
    let after_exact = caches.stats();
    assert_eq!(
        after_exact.results.hits, after_sampled.results.hits,
        "the sampled entry served an exact request: {after_exact}"
    );
    assert!(
        after_exact.results.inserts > after_sampled.results.inserts,
        "exact execution was not cached under its own key: {after_exact}"
    );

    // Phase 3: the phase-1 setup again (same fraction, same seed, fresh
    // one-shot fault). Now the sampled key *hits*: the cached entry
    // serves the request at its matching rung with the identical value,
    // and no new execution runs at all.
    let before = metrics().snapshot();
    let again = run(
        &table,
        sampled_config(),
        Some(&caches),
        Some(stall_execute()),
    );
    let after = metrics().snapshot();
    assert!(is_approximate(&again), "phase 3 should stay sampled");
    assert_eq!(scalar(&again), v_sampled, "cache changed the answer");
    let report = caches.stats();
    assert_eq!(
        report.results.hits,
        after_exact.results.hits + 1,
        "phase 3 did not hit the sampled entry: {report}"
    );
    assert_eq!(
        after.counter("dbms.queries") - before.counter("dbms.queries"),
        0,
        "phase 3 re-executed despite the cached sampled entry"
    );
}

#[test]
fn zero_budget_cache_is_bit_identical_to_no_cache() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let table = flights();
    let config = || SessionConfig {
        deadline: Duration::from_secs(10),
        planner: Planner::Greedy,
        ..SessionConfig::default()
    };
    let disabled = Arc::new(SessionCaches::new(0));
    disabled.set_table(&table);

    // Two consecutive runs each way: the second pair would expose any
    // cross-request reuse a zero-budget cache wrongly performed.
    for round in 0..2 {
        let without = run(&table, config(), None, None);
        let with = run(&table, config(), Some(&disabled), None);
        assert_eq!(
            format!("{:?}", without.visualization),
            format!("{:?}", with.visualization),
            "round {round}: a zero-budget cache changed the output"
        );
        assert_eq!(without.trace.final_rung, with.trace.final_rung);
        assert_eq!(without.candidates.len(), with.candidates.len());
    }
    // Disabled means *disabled*: the layers never even counted lookups.
    let report = disabled.stats();
    assert_eq!(report.results.lookups, 0, "{report}");
    assert_eq!(report.candidates.lookups, 0, "{report}");
    assert_eq!(report.plans.lookups, 0, "{report}");
}

/// One matrix for the one execute path: lexicon {private to the session,
/// shared by every cell} × caches {none, cold (single-flight leader), warm
/// (hit)} × fidelity {exact, sample ladder escalating to exact, finalized
/// on the sample rung}. Every cell of a fidelity row must show the
/// private/no-cache cell's values bit for bit and its `approximate` flag,
/// and a warm cell must execute nothing. A new route to the engine
/// registers here once.
#[test]
fn every_backend_and_cache_state_returns_the_same_results() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let table = Arc::new(flights());
    let lexicon = Arc::new(Lexicon::new(&table));

    let exact = SessionConfig {
        deadline: Duration::from_secs(10),
        planner: Planner::Greedy,
        ..SessionConfig::default()
    };
    // Above the sampling threshold: a 5 % attempt, then exact.
    let ladder = SessionConfig {
        sample_ladder: vec![0.05],
        sample_threshold_rows: 100,
        ..exact.clone()
    };
    // The same ladder under a deadline the injected execute latency
    // outlives: the run finalizes on (and caches) the 5 % rung.
    let sampled = SessionConfig {
        deadline: Duration::from_millis(250),
        ..ladder.clone()
    };
    let fidelities = [
        ("exact", exact, None, false),
        ("ladder", ladder, None, false),
        ("sampled", sampled, Some("execute:latency=300"), true),
    ];

    for (fidelity, config, fault, want_approximate) in fidelities {
        let cell = |shared: bool, caches: Option<&Arc<SessionCaches>>| {
            let mut session = Session::shared(Arc::clone(&table), config.clone());
            if shared {
                session = session.with_lexicon(Arc::clone(&lexicon));
            }
            if let Some(caches) = caches {
                session = session.with_caches(Arc::clone(caches));
            }
            if let Some(spec) = fault {
                session = session.with_injector(FaultInjector::parse(spec).expect("spec parses"));
            }
            match session.run(TRANSCRIPT).visualization {
                Visualization::Multiplot {
                    results,
                    approximate,
                    ..
                } => {
                    let bits: Vec<Option<u64>> =
                        results.iter().map(|v| v.map(f64::to_bits)).collect();
                    (bits, approximate)
                }
                Visualization::Text { message } => panic!("{fidelity}: text: {message}"),
            }
        };

        let reference = cell(false, None);
        assert!(reference.0.iter().any(Option::is_some), "{fidelity}");
        assert_eq!(reference.1, want_approximate, "{fidelity}");
        for shared in [false, true] {
            let at = format!("{fidelity} / shared lexicon={shared}");
            assert_eq!(cell(shared, None), reference, "{at} / no caches");

            let caches = Arc::new(SessionCaches::new(8 << 20));
            caches.set_table(&table);
            assert_eq!(cell(shared, Some(&caches)), reference, "{at} / cold");
            let cold = caches.stats();
            assert_eq!(cold.results.hits, 0, "{at} / cold led nothing: {cold}");
            assert!(cold.results.inserts >= 1, "{at} / cold: {cold}");

            let before = metrics().snapshot();
            assert_eq!(cell(shared, Some(&caches)), reference, "{at} / warm");
            let after = metrics().snapshot();
            let warm = caches.stats();
            assert!(warm.results.hits >= 1, "{at} / never warmed: {warm}");
            assert!(warm.candidates.hits >= 1, "{at} / never warmed: {warm}");
            assert_eq!(
                after.counter("dbms.queries") - before.counter("dbms.queries"),
                0,
                "{at} / warm cell executed"
            );
        }
    }
    assert_eq!(lexicon.built(), (true, true), "the shared cells used it");
}

/// The candidate cache used to key on the order-insensitive query
/// fingerprint alone, so the second of two transcripts naming the same
/// predicates in opposite order was served the first one's candidate
/// *order* (found by `benchmark/` at seed 7). Cached must equal uncached,
/// candidate for candidate, whichever transcript warmed the cache.
#[test]
fn predicate_order_separates_candidate_cache_entries() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let schema = Schema::new([
        ("street", ColumnType::Str),
        ("agency", ColumnType::Str),
        ("calls", ColumnType::Int),
    ]);
    let mut b = Table::builder("streets", schema);
    for (i, street) in ["Galoosint", "Wari", "Wucun", "Galoosin", "Warri", "Wukun"]
        .into_iter()
        .cycle()
        .take(60)
        .enumerate()
    {
        let agency = ["NYPD", "NYPT", "DOT"][i % 3];
        b.push_row([street.into(), agency.into(), Value::Int(i as i64)]);
    }
    let table = b.build();
    let candidates = |transcript: &str, caches: Option<&Arc<SessionCaches>>| {
        let config = SessionConfig {
            deadline: Duration::from_secs(10),
            planner: Planner::Greedy,
            ..SessionConfig::default()
        };
        let mut session = Session::new(&table, config);
        if let Some(caches) = caches {
            session = session.with_caches(Arc::clone(caches));
        }
        format!("{:?}", session.run(transcript).candidates)
    };

    let pair = [
        "total Galoosint Wari Wucun is NYPD",
        "total NYPD is Galoosint Wari Wucun",
    ];
    let uncached = pair.map(|t| candidates(t, None));
    assert_ne!(uncached[0], uncached[1], "the twins rank differently");
    let caches = Arc::new(SessionCaches::new(8 << 20));
    caches.set_table(&table);
    // Warm with the first twin, ask the second, repeat the first.
    for i in [0, 1, 0] {
        assert_eq!(
            candidates(pair[i], Some(&caches)),
            uncached[i],
            "{:?} was served another transcript's candidates",
            pair[i]
        );
    }
    let report = caches.stats();
    assert_eq!(report.candidates.inserts, 2, "one entry per twin: {report}");
    assert_eq!(
        report.candidates.hits, 1,
        "the repeat hit its own: {report}"
    );
}

/// Offering a plan used to re-read the plan layer, so one ILP session on
/// a fresh bundle counted two plan lookups and two misses. The plan stage
/// now hands its own lookup's entry to the offer.
#[test]
fn one_ilp_session_looks_the_plan_layer_up_once() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let table = flights();
    let caches = Arc::new(SessionCaches::new(8 << 20));
    caches.set_table(&table);
    let config = SessionConfig {
        deadline: Duration::from_secs(10),
        ..SessionConfig::default()
    };
    assert!(matches!(config.planner, Planner::Ilp(_)));
    let outcome = run(&table, config, Some(&caches), None);
    assert!(matches!(
        outcome.visualization,
        Visualization::Multiplot { .. }
    ));
    let plans = caches.stats().plans;
    assert_eq!(
        (plans.lookups, plans.misses, plans.inserts),
        (1, 1, 1),
        "{plans}"
    );
}

/// Eviction is least-recently-used over each layer's whole budget, so
/// which entry goes depends only on the order of lookups and inserts: two
/// fresh bundles small enough to evict, driven through the same session
/// sequence, must end with the same counts in every field.
#[test]
fn the_same_sessions_leave_the_same_cache_counts() {
    let _exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let table = flights();
    let config = SessionConfig {
        deadline: Duration::from_secs(10),
        planner: Planner::Greedy,
        ..SessionConfig::default()
    };
    let transcripts: Vec<String> = ["jfk", "lga", "ewr", "ord", "atl", "sfo"]
        .iter()
        .flat_map(|o| {
            ["average dep delay", "average arr delay", "total distance"]
                .map(|measure| format!("{measure} in {o}"))
        })
        .collect();
    let report = || {
        let caches = Arc::new(SessionCaches::new(24 << 10));
        caches.set_table(&table);
        let session = Session::new(&table, config.clone()).with_caches(Arc::clone(&caches));
        // 26 sessions over 18 transcripts, some repeated right away (hits)
        // and some only after the layer has moved on (misses again).
        for i in [
            0, 1, 0, 2, 3, 2, 4, 0, 5, 6, 5, 7, 8, 1, 9, 10, 9, 11, 12, 13, 12, 14, 15, 16, 17, 0,
        ] {
            session.run(&transcripts[i]);
        }
        caches.stats()
    };
    let (a, b) = (report(), report());
    assert_eq!(a.candidates, b.candidates, "{a}\n--\n{b}");
    assert_eq!(a.results, b.results, "{a}\n--\n{b}");
    assert_eq!(a.plans, b.plans, "{a}\n--\n{b}");
    assert_eq!(a.singleflight_leads, b.singleflight_leads);
    assert_eq!(a.singleflight_waits, b.singleflight_waits);
    assert!(a.candidates.evictions > 0, "the budget must evict: {a}");
    assert!(a.results.evictions > 0, "the budget must evict: {a}");
}
