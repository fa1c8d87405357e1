//! One lexicon per served table: a server's worker sessions share one
//! [`Lexicon`], so `translate`'s n-gram tables and the phonetic indexes
//! are built once per table rather than once per request, and a session
//! handed a lexicon of another table ignores it.

use muve::core::Planner;
use muve::data::Dataset;
use muve::dbms::Table;
use muve::pipeline::{Lexicon, Session, SessionConfig, SessionOutcome};
use muve::serve::{Request, ServeOutcome, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

const ORIGINS: [&str; 8] = ["jfk", "lga", "ewr", "ord", "atl", "sfo", "bos", "den"];
const MEASURES: [&str; 4] = [
    "average dep delay",
    "total distance",
    "maximum arr delay",
    "how many flights",
];

fn config() -> SessionConfig {
    SessionConfig {
        deadline: Duration::from_secs(10),
        planner: Planner::Greedy,
        ..SessionConfig::default()
    }
}

fn transcript(i: usize) -> String {
    format!(
        "{} in {}",
        MEASURES[i % MEASURES.len()],
        ORIGINS[(i / MEASURES.len()) % ORIGINS.len()]
    )
}

/// Everything a session decides, without timings.
fn decided(out: &SessionOutcome) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{}",
        out.interpretation, out.candidates, out.visualization, out.trace.final_rung
    )
}

#[test]
fn a_two_worker_server_builds_its_lexicon_once_for_64_requests() {
    let table = Arc::new(Dataset::Flights.generate(2_000, 7));
    let server = Server::new(
        Arc::clone(&table),
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    );
    let lexicon = Arc::clone(server.lexicon());
    assert!(lexicon.serves(&table));
    assert_eq!(lexicon.built(), (false, false), "startup builds nothing");

    let tickets: Vec<_> = (0..64)
        .map(|i| {
            let req = Request::new(transcript(i)).with_config(config());
            server.submit(req).expect("admitted")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let ServeOutcome::Completed { outcome, .. } = ticket.wait() else {
            panic!("request {i} was shed");
        };
        // Sharing changes no answer: each request decides what a fresh
        // session with a lexicon of its own decides.
        let fresh = Session::shared(Arc::clone(&table), config()).run(&transcript(i));
        assert_eq!(decided(&outcome), decided(&fresh), "request {i}");
    }

    // The one lexicon the server started with served every request: its
    // n-gram tables and generator are built, each by exactly one request
    // (a part builds at most once), and no request replaced it.
    assert!(Arc::ptr_eq(&lexicon, server.lexicon()));
    assert_eq!(lexicon.built(), (true, true));
    server.drain();
}

#[test]
fn a_session_ignores_a_lexicon_of_another_table() {
    let own = Dataset::Flights.generate(2_000, 7);
    let other = Dataset::Nyc311.generate(2_000, 7);
    let foreign = Arc::new(Lexicon::new(&other));
    // Build both parts over the other table, whose columns and constants
    // differ, so using them would show in every answer.
    foreign
        .translate("total calls in brooklyn", &other)
        .unwrap();
    foreign.generator(&other);

    for i in 0..8 {
        let t = transcript(i);
        let fresh = Session::new(&own, config()).run(&t);
        let given = Session::new(&own, config())
            .with_lexicon(Arc::clone(&foreign))
            .run(&t);
        assert_eq!(decided(&given), decided(&fresh), "{t}");
    }
}

#[test]
fn sessions_given_one_lexicon_build_it_once() {
    let table: Table = Dataset::Flights.generate(2_000, 7);
    let lexicon = Arc::new(Lexicon::new(&table));
    // A `select` transcript builds no n-gram tables.
    Session::new(&table, config())
        .with_lexicon(Arc::clone(&lexicon))
        .run("select avg(dep_delay) from flights where origin = 'JFK'");
    assert_eq!(lexicon.built(), (false, true));
    for i in 0..4 {
        Session::new(&table, config())
            .with_lexicon(Arc::clone(&lexicon))
            .run(&transcript(i));
    }
    assert_eq!(lexicon.built(), (true, true));
}
