//! Seeded inputs: the table, the transcript stream and each client's
//! request order. Everything here is a function of `(workload, seed)`; the
//! server under test only ever receives the generated transcripts.

use crate::par::parallel_map;
use crate::spec::{Data, Draw, Plan, Screen, Workload, CLIENTS, K, NOISE, THETA_MS};
use muve::core::{IlpConfig, Planner, ScreenConfig};
use muve::data::{Dataset, QueryGenerator};
use muve::dbms::{query_fingerprint, AggFunc, ColumnType, Query, Schema, Table, Value};
use muve::nlq::{describe_query, translate, SpeechChannel};
use muve::pipeline::SessionConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Duration;

/// Distinct street names in the `streets` table.
pub const STREET_NAMES: usize = 4_000;
/// Zipf exponent of the street column.
const STREET_SKEW: f64 = 0.6;
/// Requests pre-drawn per client under [`Draw::Zipf`]; more than any
/// window can consume, so the order never wraps.
const ZIPF_DRAWS: usize = 1 << 17;

const BOROUGHS: &[&str] = &["Brooklyn", "Queens", "Manhattan", "Bronx", "Staten Island"];
const AGENCIES: &[&str] = &["NYPD", "HPD", "DOT", "DEP", "DSNY", "DOHMH", "DPR", "FDNY"];

/// One spoken request: what the user meant and what the recogniser heard.
#[derive(Debug, Clone, PartialEq)]
pub struct Utterance {
    pub intended: Query,
    pub transcript: String,
}

/// Cumulative distribution of `Zipf(s)` over `n` ranks; sampling is a
/// binary search (`muve_data::gen::zipf_index` recomputes the norm on
/// every draw, O(n) per row, which is fine for its 15-value domains and
/// hopeless for 4,000).
pub struct ZipfCdf(Vec<f64>);

impl ZipfCdf {
    pub fn new(n: usize, s: f64) -> ZipfCdf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfCdf(cdf)
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.0.partition_point(|&c| c <= u).min(self.0.len() - 1)
    }
}

/// `n` distinct pronounceable single-word names (consonant-vowel
/// syllables), so the phonetic index has thousands of near-confusable
/// entries and `translate` can match each as one token.
fn street_names(n: usize, rng: &mut StdRng) -> Vec<String> {
    const ONSETS: &[&str] = &[
        "b", "br", "c", "ch", "d", "dr", "f", "g", "gr", "h", "j", "k", "l", "m", "n", "p", "pr",
        "r", "s", "sh", "st", "t", "tr", "v", "w",
    ];
    const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "oo"];
    const CODAS: &[&str] = &["", "", "n", "r", "l", "s", "th", "ck", "rd", "nt"];
    let mut seen = std::collections::HashSet::new();
    let mut names = Vec::with_capacity(n);
    while names.len() < n {
        let syllables = rng.gen_range(2..=3);
        let mut name = String::new();
        for _ in 0..syllables {
            name.push_str(ONSETS.choose(rng).expect("non-empty"));
            name.push_str(VOWELS.choose(rng).expect("non-empty"));
        }
        name.push_str(CODAS.choose(rng).expect("non-empty"));
        let name = name[..1].to_ascii_uppercase() + &name[1..];
        if seen.insert(name.clone()) {
            names.push(name);
        }
    }
    names
}

/// The benchmark's own table: one high-cardinality categorical column
/// (sub-2.4%-selectivity predicates, so the inverted-index path is taken),
/// two low-cardinality ones and two Int measures.
pub fn streets(rows: usize, seed: u64) -> Table {
    let schema = Schema::new([
        ("street", ColumnType::Str),
        ("borough", ColumnType::Str),
        ("agency", ColumnType::Str),
        ("calls", ColumnType::Int),
        ("resolution_hours", ColumnType::Int),
    ]);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57EE7);
    let names = street_names(STREET_NAMES, &mut rng);
    let street = ZipfCdf::new(names.len(), STREET_SKEW);
    let borough = ZipfCdf::new(BOROUGHS.len(), 0.5);
    let agency = ZipfCdf::new(AGENCIES.len(), 0.9);
    let mut b = Table::builder("streets", schema);
    for _ in 0..rows {
        b.push_row([
            Value::from(names[street.sample(&mut rng)].as_str()),
            Value::from(BOROUGHS[borough.sample(&mut rng)]),
            Value::from(AGENCIES[agency.sample(&mut rng)]),
            Value::Int(rng.gen_range(1..40)),
            Value::Int(rng.gen_range(1..500)),
        ]);
    }
    b.build()
}

/// Generate the workload's table with `rows` rows.
pub fn table(data: Data, rows: usize, seed: u64) -> Table {
    match data {
        Data::Flights => Dataset::Flights.generate(rows, seed),
        Data::Nyc311 => Dataset::Nyc311.generate(rows, seed),
        Data::Streets => streets(rows, seed),
    }
}

/// The confusion vocabulary of the noise channel: column-name words and
/// every categorical value, as the repo's voice examples build it.
fn vocabulary(table: &Table) -> Vec<String> {
    let mut vocab: Vec<String> = Vec::new();
    for (i, def) in table.schema().columns().iter().enumerate() {
        vocab.extend(def.name.split('_').map(str::to_owned));
        if let Some(dict) = table.column(i).dictionary() {
            vocab.extend(dict.entries().iter().cloned());
        }
    }
    vocab
}

/// The first `n` utterances of the workload's seeded stream:
/// `QueryGenerator::query(2)` -> `describe_query` -> `SpeechChannel`. A
/// function of `(table, seed)` alone: nothing the system under test does
/// decides which transcripts are in it. (At noise 0.15 `translate` reads
/// every one of them - 0 of 73,728 over three seeds and three tables failed
/// at this commit. One it could not read would get the session's text
/// fallback: a degraded reply, so a miss, and "intended query not shown".)
pub fn utterances(table: &Table, n: usize, seed: u64) -> Vec<Utterance> {
    let mut queries = QueryGenerator::new(table, seed ^ 0x0_5EED);
    let mut channel = SpeechChannel::new(vocabulary(table), NOISE, seed ^ 0xA5A);
    (0..n)
        .map(|_| {
            let intended = queries.query(2);
            let transcript = channel.transmit(&describe_query(&intended));
            Utterance {
                intended,
                transcript,
            }
        })
        .collect()
}

/// Pool indices a cache-on workload does not send: transcripts whose
/// interpretation has the canonical fingerprint of an earlier pool
/// transcript's but different SQL text (the same predicates in another
/// order). The candidate cache is keyed by that fingerprint, so the two
/// share an entry and the later one's reply lists the candidates in the
/// order (and with the tie-broken tail) of whichever was served first - a
/// finding of this benchmark, which an oracle that regenerates candidates
/// from the transcript alone reports as a failed operation. The pool itself
/// stays as generated; how many indices are skipped is reported as
/// `client.aliases_skipped`, and with caches off nothing is skipped.
pub fn aliases(table: &Table, pool: &[Utterance]) -> Vec<u32> {
    let interpretations = parallel_map(pool, CLIENTS, |u| translate(&u.transcript, table).ok());
    let mut seen: HashMap<u64, String> = HashMap::new();
    let mut skipped = Vec::new();
    for (index, base) in interpretations.iter().enumerate() {
        let Some(base) = base else { continue };
        let sql = base.to_sql();
        let first = seen
            .entry(query_fingerprint(base, Some(table)))
            .or_insert_with(|| sql.clone());
        if *first != sql {
            skipped.push(index as u32);
        }
    }
    skipped
}

/// Client `client`'s request order: indices into the pool, none of them in
/// `skipped`. Under [`Draw::Walk`] a seeded permutation (cycled by the
/// caller); under [`Draw::Zipf`] pre-drawn ranks from the client's own RNG.
pub fn order(w: &Workload, seed: u64, client: usize, skipped: &[u32]) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xC11E47 + client as u64));
    let mut sent: Vec<u32> = (0..w.pool as u32)
        .filter(|i| !skipped.contains(i))
        .collect();
    match w.draw {
        Draw::Walk => {
            sent.shuffle(&mut rng);
            sent
        }
        Draw::Zipf(s) => {
            let cdf = ZipfCdf::new(sent.len(), s);
            (0..ZIPF_DRAWS)
                .map(|_| sent[cdf.sample(&mut rng)])
                .collect()
        }
    }
}

/// The session configuration every request of the workload runs under.
pub fn session_config(w: &Workload) -> SessionConfig {
    SessionConfig {
        deadline: Duration::from_millis(THETA_MS),
        screen: match w.screen {
            Screen::Desktop2 => ScreenConfig::desktop(2),
            Screen::Iphone1 => ScreenConfig::iphone(1),
        },
        planner: match w.planner {
            Plan::Greedy => Planner::Greedy,
            Plan::Ilp => Planner::Ilp(IlpConfig {
                warm_start: true,
                ..IlpConfig::default()
            }),
        },
        k: K,
        max_candidates: w.max_candidates,
        ..SessionConfig::default()
    }
}

/// Whether `a` and `b` ask the same question of `table`: equal canonical
/// fingerprints (predicate order and literal spelling are irrelevant) once
/// `count(col)` is read as `count(*)`, which is what `translate` always
/// produces for counts.
pub fn same_intent(table: &Table, a: &Query, b: &Query) -> bool {
    let canon = |q: &Query| {
        let mut q = q.clone();
        for agg in &mut q.aggregates {
            if agg.func == AggFunc::Count {
                agg.column = None;
            }
        }
        query_fingerprint(&q, Some(table))
    };
    canon(a) == canon(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    /// Rows enough for every dictionary value to appear, few enough for a
    /// test.
    fn small(w: &Workload) -> Table {
        table(w.data, w.rows.min(20_000), 7)
    }

    #[test]
    fn same_seed_yields_byte_identical_pools_and_orders() {
        for w in WORKLOADS {
            let (a, b) = (small(w), small(w));
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", w.name);
            let n = w.pool.min(256);
            let (ua, ub) = (utterances(&a, n, 7), utterances(&b, n, 7));
            assert_eq!(ua, ub, "{}", w.name);
            let bytes = |us: &[Utterance]| -> Vec<u8> {
                us.iter()
                    .flat_map(|u| u.transcript.bytes().chain([b'\n']))
                    .collect()
            };
            assert_eq!(bytes(&ua), bytes(&ub), "{}", w.name);
            // A longer request for the same stream only appends.
            assert_eq!(utterances(&a, n + 64, 7)[..n], ua[..], "{}", w.name);
            assert_eq!(order(w, 7, 0, &[]), order(w, 7, 0, &[]), "{}", w.name);
            assert_ne!(order(w, 7, 0, &[]), order(w, 7, 1, &[]), "{}", w.name);
        }
    }

    #[test]
    fn different_seed_yields_different_pools() {
        for w in WORKLOADS {
            let a = table(w.data, w.rows.min(20_000), 7);
            let b = table(w.data, w.rows.min(20_000), 8);
            assert_ne!(a.fingerprint(), b.fingerprint(), "{}", w.name);
            let n = w.pool.min(256);
            let ta: Vec<String> = utterances(&a, n, 7)
                .into_iter()
                .map(|u| u.transcript)
                .collect();
            let tb: Vec<String> = utterances(&b, n, 8)
                .into_iter()
                .map(|u| u.transcript)
                .collect();
            assert_ne!(ta, tb, "{}", w.name);
            assert_ne!(order(w, 7, 0, &[]), order(w, 8, 0, &[]), "{}", w.name);
        }
    }

    #[test]
    fn orders_leave_out_what_they_are_told_to() {
        let w = crate::spec::workload("vocab_zipf").unwrap();
        let t = small(w);
        let pool = utterances(&t, 512, 7);
        let skipped = aliases(&t, &pool);
        assert!(skipped.windows(2).all(|p| p[0] < p[1]));
        assert!(!skipped.contains(&0), "the first of a pair is kept");
        for probe in [&skipped[..], &[3, 5][..]] {
            let sent = order(w, 7, 0, probe);
            assert!(!sent.is_empty() && sent.iter().all(|i| !probe.contains(i)));
        }
    }

    #[test]
    fn streets_has_the_advertised_shape() {
        let t = streets(100_000, 1);
        let street = t.column_by_name("street").unwrap().dictionary().unwrap();
        // Zipf(0.6) over 4,000 names in 100,000 rows leaves none unseen.
        assert_eq!(street.len(), STREET_NAMES);
        assert_eq!(
            t.column_by_name("borough")
                .unwrap()
                .dictionary()
                .unwrap()
                .len(),
            5
        );
        assert_eq!(
            t.column_by_name("agency")
                .unwrap()
                .dictionary()
                .unwrap()
                .len(),
            8
        );
    }

    #[test]
    fn zipf_cdf_is_skewed_and_in_range() {
        let cdf = ZipfCdf::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[cdf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        assert!(counts[99] > 0);
    }

    #[test]
    fn count_column_does_not_change_intent() {
        let t = table(Data::Flights, 1_000, 1);
        let a =
            muve::dbms::parse("select count(distance) from flights where origin = 'JFK'").unwrap();
        let b = muve::dbms::parse("select count(*) from flights where origin = 'JFK'").unwrap();
        let c = muve::dbms::parse("select count(*) from flights where origin = 'LGA'").unwrap();
        assert!(same_intent(&t, &a, &b));
        assert!(!same_intent(&t, &a, &c));
    }
}
