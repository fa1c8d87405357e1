//! A [`Lexicon`] answers exactly as the free functions it caches for:
//! over Flights, NYC311 and a 4,000-name street table, every seeded,
//! speech-noised utterance translates to the same query through
//! `Lexicon::translate` as through `translate(u, table)`, and the
//! lexicon's generator yields the same candidates as a fresh
//! `CandidateGenerator::new(table)` — queries equal, probabilities equal
//! bit for bit.

use muve_data::{Dataset, QueryGenerator};
use muve_dbms::{ColumnType, Schema, Table, Value};
use muve_nlq::{describe_query, translate, CandidateGenerator, Lexicon, SpeechChannel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Utterances per table.
const UTTERANCES: usize = 40;

/// One street per name, `n` distinct pronounceable names, so the phonetic
/// index holds thousands of near-confusable entries.
fn streets(n: usize, seed: u64) -> Table {
    const ONSETS: [&str; 12] = ["b", "br", "d", "g", "k", "l", "m", "p", "r", "s", "t", "w"];
    const VOWELS: [&str; 6] = ["a", "e", "i", "o", "u", "oo"];
    const CODAS: [&str; 5] = ["", "n", "r", "l", "st"];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < n {
        let mut name = String::new();
        for _ in 0..rng.gen_range(2..=3) {
            name.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
            name.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
        }
        name.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
        seen.insert(name[..1].to_ascii_uppercase() + &name[1..]);
    }
    let schema = Schema::new([
        ("street", ColumnType::Str),
        ("borough", ColumnType::Str),
        ("calls", ColumnType::Int),
        ("resolution_hours", ColumnType::Int),
    ]);
    let mut b = Table::builder("streets", schema);
    for (i, name) in seen.into_iter().enumerate() {
        let borough = ["Brooklyn", "Queens", "Bronx", "Manhattan"][i % 4];
        b.push_row([
            Value::from(name.as_str()),
            Value::from(borough),
            Value::Int(rng.gen_range(1..40)),
            Value::Int(rng.gen_range(1..500)),
        ]);
    }
    b.build()
}

/// What a speaker might say about `table`: every column-name word and
/// dictionary value, the confusion vocabulary of the noise channel.
fn vocabulary(table: &Table) -> Vec<String> {
    let mut words = Vec::new();
    for (i, def) in table.schema().columns().iter().enumerate() {
        words.extend(def.name.split('_').map(str::to_owned));
        if let Some(dict) = table.column(i).dictionary() {
            words.extend(dict.entries().iter().cloned());
        }
    }
    words
}

fn check(table: &Table, seed: u64) {
    let lexicon = Lexicon::new(table);
    let fresh = CandidateGenerator::new(table);
    let mut queries = QueryGenerator::new(table, seed);
    let mut channel = SpeechChannel::new(vocabulary(table), 0.3, seed);
    let mut utterances: Vec<String> = ["", "   ", "how many", "count 42 of 7"]
        .map(str::to_owned)
        .to_vec();
    utterances
        .extend((0..UTTERANCES).map(|_| channel.transmit(&describe_query(&queries.query(3)))));
    let mut translated = 0;
    for utterance in &utterances {
        let expected = translate(utterance, table);
        assert_eq!(
            lexicon.translate(utterance, table),
            expected,
            "{}: {utterance:?}",
            table.name()
        );
        let Ok(base) = expected else { continue };
        translated += 1;
        for (k, max_candidates) in [(20, 10), (5, 3)] {
            let want = fresh.candidates(&base, k, max_candidates);
            let got = lexicon
                .generator(table)
                .candidates(&base, k, max_candidates);
            assert_eq!(got.len(), want.len(), "{utterance:?}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.query, w.query, "{utterance:?}");
                assert_eq!(
                    g.probability.to_bits(),
                    w.probability.to_bits(),
                    "{utterance:?}: {}",
                    g.query.to_sql()
                );
            }
        }
    }
    assert!(translated >= UTTERANCES, "{}: {translated}", table.name());
    assert_eq!(lexicon.built(), (true, true));
}

#[test]
fn flights_lexicon_matches_the_free_functions() {
    check(&Dataset::Flights.generate(2_000, 3), 11);
}

#[test]
fn nyc311_lexicon_matches_the_free_functions() {
    check(&Dataset::Nyc311.generate(2_000, 3), 12);
}

#[test]
fn street_lexicon_matches_the_free_functions() {
    let table = streets(4_000, 5);
    let street = table
        .column_by_name("street")
        .unwrap()
        .dictionary()
        .unwrap();
    assert_eq!(street.len(), 4_000);
    check(&table, 13);
}
